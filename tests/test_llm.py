import dataclasses
import http.server
import io
import json
import os
import socket
import stat
import sys
import threading
import time
import urllib.request
from concurrent.futures import Future

import pytest

import mea.llm
from conftest import DATA, make_replay_client
from mea import InputFileError
from mea.dag import ActionClass
from mea.llm import (
    MAX_IN_FLIGHT,
    ClientConfig,
    ClientMode,
    LlmClient,
    LlmParseError,
    LlmTransportError,
    PromptTemplate,
    ReplayMissError,
    _http_transport,
    cache_key,
    heuristic_classifier,
    load_template,
)


class RecordingTransport:
    def __init__(self, responses):
        self.responses = dict(responses)
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, config, prompt):
        with self.lock:
            self.calls.append(prompt)
        for needle, response in self.responses.items():
            if needle in prompt:
                return response
        raise LlmTransportError("no canned response")


def live_client(transport, tmp_path=None):
    cache = tmp_path / "cache.jsonl" if tmp_path else None
    config = ClientConfig(endpoint="http://example.invalid/v1", cache_path=cache)
    return LlmClient(config, transport=transport)


# --- templates ---------------------------------------------------------------

def test_bundled_templates_load():
    for name in ("classify_action", "filter_feeling_neg", "filter_emotion"):
        template = load_template(name)
        assert template.template_text.count("{input}") == 1
        assert template.expected_labels
        assert load_template(name) is template  # every client shares it
        with pytest.raises(dataclasses.FrozenInstanceError):
            template.template_text = "{input}"


def test_template_requires_single_slot():
    with pytest.raises(ValueError):
        PromptTemplate("classify_action", "no slot here", frozenset({"mental"}))
    with pytest.raises(ValueError):
        PromptTemplate("classify_action", "{input} and {input}", frozenset({"mental"}))


def test_template_requires_expected_labels():
    with pytest.raises(ValueError, match="expected_labels must be non-empty"):
        PromptTemplate("classify_action", "{input}", frozenset())


def test_unknown_template_name_rejected():
    with pytest.raises(ValueError):
        PromptTemplate("mystery", "{input}", frozenset({"x"}))


# --- config ------------------------------------------------------------------

def test_replay_requires_fixture():
    with pytest.raises(ValueError):
        ClientConfig(mode=ClientMode.REPLAY)


def test_config_from_env(monkeypatch):
    monkeypatch.setenv("MEA_LLM_ENDPOINT", "http://models.local/v1")
    monkeypatch.setenv("MEA_LLM_MODEL", "glm-4-air")
    config = ClientConfig.from_env()
    assert config.endpoint == "http://models.local/v1"
    assert config.model == "glm-4-air"


# --- the HTTP transport ------------------------------------------------------

def replying(body, posted=None):
    """An urlopen stand-in that records each request and its timeout, and answers body."""

    def urlopen(request, timeout):
        if posted is not None:
            posted.append((request, timeout))
        return io.BytesIO(body)

    return urlopen


def test_http_transport_posts_temperature_zero_and_reads_the_completion(monkeypatch):
    posted = []
    choices = [{"message": {"content": "Physical"}}, {"message": {"content": "Social"}}]
    monkeypatch.setattr(urllib.request, "urlopen", replying(json.dumps({"choices": choices}).encode(), posted))
    assert _http_transport(ClientConfig(endpoint="http://models.local/v1"), "prompt") == "Physical"
    [(request, timeout)] = posted
    body = json.loads(request.data)
    assert (request.get_method(), request.full_url) == ("POST", "http://models.local/v1")
    assert body["temperature"] == 0
    assert body["messages"] == [{"role": "user", "content": "prompt"}]
    assert timeout == 30.0


@pytest.mark.parametrize(
    "body",
    [
        b'{"choices": []}',
        b'{"choices": "none"}',
        b"<html>overloaded</html>",
        b'{"choices": [{"message": {"content": null}}]}',
        b'{"choices": [{"message": {"content": 7}}]}',
        b'{"choices": [{"message": {"content": ["Physical"]}}]}',
    ],
    ids=["no-choice", "choices-not-a-list", "not-json", "null-content", "number-content", "list-content"],
)
def test_http_transport_reports_a_misshapen_body_as_malformed(monkeypatch, body):
    monkeypatch.setattr(urllib.request, "urlopen", replying(body))
    with pytest.raises(LlmTransportError, match="malformed completion response"):
        _http_transport(ClientConfig(endpoint="http://models.local/v1"), "prompt")


def test_http_transport_reports_a_body_without_choices_as_malformed(monkeypatch):
    monkeypatch.setattr(urllib.request, "urlopen", replying(b'{"error": "overloaded"}'))
    with pytest.raises(LlmTransportError, match="malformed completion response"):
        _http_transport(ClientConfig(endpoint="http://models.local/v1"), "prompt")


def test_http_transport_reports_an_empty_endpoint_as_a_request_error(monkeypatch):
    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: pytest.fail("nothing may be sent"))
    with pytest.raises(LlmTransportError) as exc:
        _http_transport(ClientConfig(endpoint=""), "prompt")
    assert "unknown url type" in str(exc.value) and "malformed" not in str(exc.value)


class CompletionServer(http.server.ThreadingHTTPServer):
    """A loopback chat-completion endpoint; the request path picks the reply."""

    daemon_threads = False  # so server_close waits for every handler

    def __init__(self):
        super().__init__(("127.0.0.1", 0), CompletionHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.posted = []  # (Authorization header, decoded body) per request
        self.release = threading.Event()  # lets the /slow handler reply


class CompletionHandler(http.server.BaseHTTPRequestHandler):
    REPLIES = {  # path: (status, body, bytes missing from the body its Content-Length announces)
        "/ok": (200, json.dumps({"choices": [{"message": {"content": "Physical"}}]}).encode(), 0),
        "/slow": (200, b"{}", 0),
        "/error": (500, b"overloaded", 0),
        "/not-json": (200, b"<html>overloaded</html>", 0),
        "/truncated": (200, b'{"choices": [', 10),
    }

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.posted.append((self.headers["Authorization"], json.loads(body)))
        if self.path == "/slow":
            self.server.release.wait(5)
        status, reply, missing = self.REPLIES[self.path]
        try:
            self.send_response(status)
            self.send_header("Content-Length", str(len(reply) + missing))
            self.end_headers()
            self.wfile.write(reply)
        except (BrokenPipeError, ConnectionResetError):  # the client gave up on the slow reply
            pass

    def log_message(self, format, *args):
        pass


@pytest.fixture
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # a proxy set in the environment must not see these requests
    server = CompletionServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()
    thread.join()


def test_http_transport_posts_to_a_loopback_server(server):
    config = ClientConfig(endpoint=f"{server.url}/ok", api_key="sk-test", model="glm-4-air")
    assert _http_transport(config, "I eat soup") == "Physical"
    [(authorization, body)] = server.posted
    assert authorization == "Bearer sk-test"
    assert body == {"model": "glm-4-air", "messages": [{"role": "user", "content": "I eat soup"}], "temperature": 0}
    _http_transport(ClientConfig(endpoint=f"{server.url}/ok"), "I eat soup")
    assert server.posted[1][0] is None  # no key, no Authorization header


@pytest.mark.parametrize(
    "path, message",
    [
        ("/error", "HTTP Error 500: Internal Server Error"),
        ("/not-json", "malformed completion response"),
        ("/truncated", r"IncompleteRead\(13 bytes read, 10 more expected\)"),
    ],
    ids=["status-500", "not-json", "truncated"],
)
def test_http_transport_reports_a_failed_reply(server, path, message):
    with pytest.raises(LlmTransportError, match=message):
        _http_transport(ClientConfig(endpoint=server.url + path), "prompt")


def test_http_transport_gives_up_on_a_reply_slower_than_its_timeout(server, monkeypatch):
    monkeypatch.setattr(mea.llm, "REQUEST_TIMEOUT_S", 0.2)
    started = time.monotonic()
    with pytest.raises(LlmTransportError, match="timed out") as exc:
        _http_transport(ClientConfig(endpoint=f"{server.url}/slow"), "prompt")
    assert time.monotonic() - started < 2
    assert "malformed" not in str(exc.value)


def test_http_transport_reports_a_refused_connection(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with socket.socket() as closed:  # bound but not listening: a connection to it is refused
        closed.bind(("127.0.0.1", 0))
        endpoint = f"http://127.0.0.1:{closed.getsockname()[1]}/v1"
        with pytest.raises(LlmTransportError, match="Connection refused"):
            _http_transport(ClientConfig(endpoint=endpoint), "prompt")


def test_http_transport_reports_a_hostless_endpoint_as_a_request_error():
    with pytest.raises(LlmTransportError) as exc:
        _http_transport(ClientConfig(endpoint="http://"), "prompt")
    assert "no host given" in str(exc.value) and "malformed" not in str(exc.value)


@pytest.mark.parametrize("endpoint", ["", "models.local/v1", "ftp://models.local/v1", "http://"])
def test_a_live_client_without_a_transport_rejects_an_unusable_endpoint(endpoint):
    with pytest.raises(ValueError, match="MEA_LLM_ENDPOINT"):
        LlmClient(ClientConfig(endpoint=endpoint))
    for config in (ClientConfig(endpoint="HTTPS://models.local/v1"), ClientConfig(endpoint="http://localhost:8000")):
        LlmClient(config).close()
    LlmClient(ClientConfig(endpoint=endpoint), transport=RecordingTransport({})).close()  # a given transport is not checked


# --- cache keys and files ----------------------------------------------------

def test_cache_key_is_stable_across_runs():
    key = cache_key("classify_action", "I buy it", "glm-4")
    assert key == cache_key("classify_action", "I buy it", "glm-4")
    # frozen value: the key derivation must never silently change
    assert key == "22400bec60c28739e4e6a233a9b9235e64ddd62e1bc02fcd7eb36c0a48ac1c08"


def test_cache_rejects_corrupt_entries(tmp_path):
    path = tmp_path / "fixture.jsonl"
    entry = {
        "key": "0" * 64,
        "template": "classify_action",
        "input": "I buy it",
        "model": "glm-4",
        "raw_response": "physical",
        "parsed_label": "physical",
        "timestamp": 0.0,
    }
    path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    with pytest.raises(InputFileError):
        LlmClient(ClientConfig(mode=ClientMode.REPLAY, fixture_path=path))


def test_cache_rejects_label_outside_set(tmp_path):
    path = tmp_path / "fixture.jsonl"
    entry = {
        "key": cache_key("classify_action", "I buy it", "glm-4"),
        "template": "classify_action",
        "input": "I buy it",
        "model": "glm-4",
        "raw_response": "spiritual",
        "parsed_label": "spiritual",
        "timestamp": 0.0,
    }
    path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    with pytest.raises(InputFileError):
        LlmClient(ClientConfig(mode=ClientMode.REPLAY, fixture_path=path))


_ENTRY = {
    "key": cache_key("classify_action", "I buy it", "glm-4"),
    "template": "classify_action",
    "input": "I buy it",
    "model": "glm-4",
    "raw_response": "physical",
    "parsed_label": "physical",
    "timestamp": 0.0,
}


def test_cache_rejects_an_unknown_template_at_its_line(tmp_path):
    path = tmp_path / "fixture.jsonl"
    line = {**_ENTRY, "template": "mystery", "key": cache_key("mystery", "I buy it", "glm-4")}
    path.write_text(json.dumps(_ENTRY) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(InputFileError, match="unknown template 'mystery'") as exc:
        LlmClient(ClientConfig(mode=ClientMode.REPLAY, fixture_path=path))
    assert exc.value.line_no == 2


@pytest.mark.parametrize(
    "line",
    [
        "[1]",
        "[" * 100_000,
        json.dumps({**_ENTRY, "template": ["x"]}),
        json.dumps({**_ENTRY, "input": 5}),
        json.dumps({**_ENTRY, "input": "\ud800"}),
    ],
    ids=["list", "deeply-nested", "list-template", "number-input", "lone-surrogate"],
)
def test_cache_rejects_lines_that_are_not_objects_of_strings(tmp_path, line):
    path = tmp_path / "fixture.jsonl"
    path.write_text(json.dumps(_ENTRY) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        LlmClient(ClientConfig(mode=ClientMode.REPLAY, fixture_path=path))
    assert exc.value.line_no == 2


@pytest.mark.parametrize("name", list(_ENTRY))
def test_cache_line_missing_a_field_names_it(tmp_path, name):
    path = tmp_path / "fixture.jsonl"
    line = {k: v for k, v in _ENTRY.items() if k != name}
    path.write_text(json.dumps(_ENTRY) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(InputFileError, match=f"missing field '{name}'") as exc:
        LlmClient(ClientConfig(mode=ClientMode.REPLAY, fixture_path=path))
    assert exc.value.line_no == 2


# --- replay mode -------------------------------------------------------------

def test_replay_classification_without_network(replay_client):
    assert replay_client.classify_action_event("I buy it") is ActionClass.PHYSICAL
    assert replay_client.classify_action_event("I tell friends") is ActionClass.SOCIAL
    calls, hits = replay_client.stats()
    assert (calls, hits) == (2, 2)


def test_replay_serves_the_three_subtype_exemplars(replay_client):
    assert replay_client.classify_action_event("I analyze the ingredient list") is ActionClass.MENTAL
    assert replay_client.classify_action_event("I wash the apples") is ActionClass.PHYSICAL
    assert replay_client.classify_action_event("I recommend this to my friends") is ActionClass.SOCIAL


def test_replay_miss_is_an_error(replay_client):
    with pytest.raises(ReplayMissError):
        replay_client.classify_action_event("I juggle flaming torches")


def test_replay_neither_reads_nor_writes_the_live_cache(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("not json\n", encoding="utf-8")
    transport = RecordingTransport({})
    config = ClientConfig(mode=ClientMode.REPLAY, fixture_path=DATA / "replay_classifier.jsonl", cache_path=cache)
    client = LlmClient(config, transport=transport)
    assert client.classify_action_event("I buy it") is ActionClass.PHYSICAL
    with pytest.raises(ReplayMissError):
        client.classify_action_event("I juggle flaming torches")
    assert transport.calls == []
    assert client.stats() == (2, 1)
    assert cache.read_text(encoding="utf-8") == "not json\n"


def test_classify_rejects_empty_text(replay_client):
    with pytest.raises(ValueError):
        replay_client.classify_action_event("   ")


# --- live mode ---------------------------------------------------------------

def test_live_classification_parses_labels(tmp_path):
    transport = RecordingTransport({"I wash the apples": " Physical \n"})
    client = live_client(transport, tmp_path)
    assert client.classify_action_event("I wash the apples") is ActionClass.PHYSICAL
    assert len(transport.calls) == 1


def test_live_client_appends_cache_lines_with_fields_in_order(tmp_path):
    transport = RecordingTransport({"I wash the apples": " Physical \n"})
    live_client(transport, tmp_path).classify_action_event("I wash the apples")
    (line,) = (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    doc = json.loads(line)
    assert list(doc) == ["key", "template", "input", "model", "raw_response", "parsed_label", "timestamp"]
    assert doc["key"] == cache_key("classify_action", "I wash the apples", "glm-4")
    assert (doc["template"], doc["input"], doc["model"]) == ("classify_action", "I wash the apples", "glm-4")
    assert (doc["raw_response"], doc["parsed_label"]) == (" Physical \n", "physical")


def test_repeat_calls_hit_the_cache(tmp_path):
    transport = RecordingTransport({"I analyze the ingredient list": "mental"})
    client = live_client(transport, tmp_path)
    for _ in range(3):
        assert client.classify_action_event("I analyze the ingredient list") is ActionClass.MENTAL
    assert len(transport.calls) == 1
    calls, hits = client.stats()
    assert (calls, hits) == (3, 2)


def test_cache_survives_client_restart(tmp_path):
    transport = RecordingTransport({"I recommend this to my friends": "social"})
    client = live_client(transport, tmp_path)
    assert client.classify_action_event("I recommend this to my friends") is ActionClass.SOCIAL

    fresh = live_client(RecordingTransport({}), tmp_path)
    assert fresh.classify_action_event("I recommend this to my friends") is ActionClass.SOCIAL
    assert fresh.stats() == (1, 1)


def descriptors_on(path):
    """How many of this process's descriptors are open on path."""
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            targets.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return targets.count(str(path.resolve()))


def test_live_client_creates_its_cache_file_at_start_as_an_append_would(tmp_path):
    live_client(RecordingTransport({}), tmp_path).close()
    cache, other = tmp_path / "cache.jsonl", tmp_path / "other.jsonl"
    open(other, "a", encoding="utf-8").close()
    assert cache.read_bytes() == b""
    assert stat.S_IMODE(cache.stat().st_mode) == stat.S_IMODE(other.stat().st_mode)


def test_live_client_with_a_cache_in_a_missing_directory_fails_at_start(tmp_path):
    config = ClientConfig(endpoint="http://example.invalid/v1", cache_path=tmp_path / "missing" / "cache.jsonl")
    with pytest.raises(FileNotFoundError):
        LlmClient(config, transport=RecordingTransport({}))
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc/self/fd")
def test_close_leaves_no_descriptor_open_on_the_cache_file(tmp_path):
    cache = tmp_path / "cache.jsonl"
    transport = RecordingTransport({"I wash the apples": "physical", "I peel the apples": "physical"})
    client = live_client(transport, tmp_path)
    assert descriptors_on(cache) == 1
    client.classify_action_event("I wash the apples")
    client.classify_action_event("I peel the apples")
    assert descriptors_on(cache) == 1  # every line goes through the one descriptor
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 2
    client.close()
    assert descriptors_on(cache) == 0
    client.close()  # closing again closes nothing twice


def test_a_failed_cache_write_leaves_the_text_uncached(tmp_path, monkeypatch):
    monkeypatch.setattr(mea.llm, "RETRIES", 0)
    transport = RecordingTransport({"I wash the apples": "physical"})
    client = live_client(transport, tmp_path)
    writable, client._cache_fd = client._cache_fd, os.open(tmp_path / "cache.jsonl", os.O_RDONLY)
    with pytest.raises(OSError):
        client.classify_action_event("I wash the apples")
    os.close(client._cache_fd)
    client._cache_fd = writable
    assert client.classify_action_event("I wash the apples") is ActionClass.PHYSICAL  # requested again, not a hit
    assert len(transport.calls) == 2
    assert client.stats() == (2, 0)
    client.close()
    assert len((tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()) == 1


def test_unparseable_response_is_an_error_not_a_guess(tmp_path):
    transport = RecordingTransport({"I blorp": "probably physical, hard to say"})
    client = live_client(transport, tmp_path)
    with pytest.raises(LlmParseError) as exc:
        client.classify_action_event("I blorp")
    assert "probably physical" in exc.value.raw_response


def test_transport_errors_are_retried_then_raised(tmp_path):
    transport, started = RecordingTransport({}), []

    def timed(config, prompt):
        started.append(time.monotonic())
        return transport(config, prompt)

    client = live_client(timed, tmp_path)
    with pytest.raises(LlmTransportError):
        client.classify_action_event("I vanish")
    assert len(transport.calls) == 3
    assert started[1] - started[0] >= 0.2 and started[2] - started[1] >= 0.4  # a growing pause before each retry


# --- filtering ---------------------------------------------------------------

def test_filter_candidates_keeps_accepted_words():
    config = ClientConfig(mode=ClientMode.REPLAY, fixture_path=DATA / "replay_filters.jsonl")
    client = LlmClient(config, transport=RecordingTransport({}))
    kept = client.filter_candidates(["bitter", "asymptotic"], "filter_feeling_neg")
    assert kept == ["bitter"]


def test_filter_candidates_requires_words(replay_client):
    with pytest.raises(ValueError):
        replay_client.filter_candidates([], "filter_emotion")


def test_filter_candidates_requires_filter_template(replay_client):
    with pytest.raises(ValueError):
        replay_client.filter_candidates(["x"], "classify_action")


def test_filter_keeps_word_on_parse_failure(tmp_path, caplog):
    # needles target the rendered input line; template text itself names exemplars
    transport = RecordingTransport({"Adjective: sour": "yes", "Adjective: zesty": "it depends"})
    client = live_client(transport, tmp_path)
    kept = client.filter_candidates(["sour", "zesty"], "filter_feeling_neg")
    assert kept == ["sour", "zesty"]
    assert any("keeping" in r.getMessage() for r in caplog.records)


def test_filter_in_heuristic_mode_raises():
    client = LlmClient(ClientConfig(mode=ClientMode.HEURISTIC))
    with pytest.raises(ValueError, match="heuristic mode cannot filter candidates"):
        client.filter_candidates(["a", "b"], "filter_emotion")


def test_filter_preserves_order_and_is_cached(tmp_path):
    transport = RecordingTransport(
        {"Word: merry": "yes", "Word: gleeful": "no", "Word: gloomy": "yes"}
    )
    client = live_client(transport, tmp_path)
    first = client.filter_candidates(["gloomy", "gleeful", "merry"], "filter_emotion")
    again = client.filter_candidates(["gloomy", "gleeful", "merry"], "filter_emotion")
    assert first == again == ["gloomy", "merry"]
    assert len(transport.calls) == 3


def test_filter_candidates_requests_its_misses_together(tmp_path):
    words = [f"mood{i:02}" for i in range(3 * MAX_IN_FLIGHT)]
    transport = RecordingTransport({f"Word: {w}": "yes" if i % 2 else "no" for i, w in enumerate(words)})
    barrier, lock, started = threading.Barrier(MAX_IN_FLIGHT, timeout=5), threading.Lock(), [0]

    def together(config, prompt):
        with lock:
            started[0] += 1
            first = started[0] <= MAX_IN_FLIGHT
        if first:  # the first MAX_IN_FLIGHT requests only succeed when they are in flight at once
            barrier.wait()
        return transport(config, prompt)

    client = live_client(together, tmp_path)
    kept = client.filter_candidates(words + [words[1]], "filter_emotion")
    assert kept == words[1::2] + [words[1]]
    assert not barrier.broken
    assert len(transport.calls) == len(set(transport.calls)) == len(words)
    assert client.stats() == (len(words) + 1, 1)


def test_filter_candidates_raises_the_first_failing_words_error(tmp_path, monkeypatch):
    monkeypatch.setattr(mea.llm, "RETRIES", 0)

    def transport(config, prompt):
        for word in ("gloomy", "merry"):
            if f"Word: {word}" in prompt:
                raise LlmTransportError(f"refused {word}")
        return "yes"

    client = live_client(transport, tmp_path)
    with pytest.raises(LlmTransportError, match="refused gloomy"):
        client.filter_candidates(["glad", "gloomy", "merry", "sad"], "filter_emotion")


# --- heuristic classifier ----------------------------------------------------

def test_heuristic_exemplar_verbs():
    assert heuristic_classifier("I versify about soup") is ActionClass.MENTAL
    assert heuristic_classifier("I rent a booth") is ActionClass.SOCIAL
    assert heuristic_classifier("I wash the apples") is ActionClass.PHYSICAL


_KEYWORDS = {
    ActionClass.MENTAL: "analyze versify think consider decide expect want wonder remember feel believe love hate",
    ActionClass.SOCIAL: "denounce rent recommend tell share ask thank invite give serve",
    ActionClass.PHYSICAL: "wash peel cook eat buy drink slice bake push pour freeze mix go pay wait try",
}


@pytest.mark.parametrize("action_class", list(_KEYWORDS))
def test_heuristic_keyword_tables(action_class):
    for word in _KEYWORDS[action_class].split():  # a later keyword of another class must not decide
        later = "tell" if action_class is ActionClass.PHYSICAL else "eat"
        assert heuristic_classifier(f"I {word} and {later}") is action_class, word


def test_heuristic_strips_quotes_and_brackets_around_a_keyword():
    assert heuristic_classifier('I "think" so') is ActionClass.MENTAL
    assert heuristic_classifier("I (rent) it") is ActionClass.SOCIAL


def test_heuristic_defaults_to_physical():
    assert heuristic_classifier("I blorp") is ActionClass.PHYSICAL


def test_heuristic_mode_client_needs_no_endpoint():
    client = LlmClient(ClientConfig(mode=ClientMode.HEURISTIC), transport=RecordingTransport({}))
    assert client.classify_action_event("I consider the label") is ActionClass.MENTAL
    assert client.stats() == (1, 0)


# --- classifying a sequence of texts -------------------------------------------

class GatedTransport(RecordingTransport):
    """A RecordingTransport whose requests wait until the gate is open."""

    def __init__(self, responses):
        super().__init__(responses)
        self.gate = threading.Event()

    def __call__(self, config, prompt):
        assert self.gate.wait(timeout=10), "gate never opened"
        return super().__call__(config, prompt)


def classify_events(client, texts):
    """Call classify_action_events; return a future of what answered got.

    Its thread is the thread answered ran in, and its in_place is True when
    that is the calling thread before the call returned; a second call of
    answered raises InvalidStateError.
    """
    answers, caller, returned = Future(), threading.get_ident(), []

    def answered(results):
        answers.thread = threading.get_ident()
        answers.in_place = answers.thread == caller and not returned
        answers.set_result(results)

    assert client.classify_action_events(texts, answered) is None
    returned.append(True)
    return answers


def test_classify_action_events_requests_each_distinct_miss_once(tmp_path, monkeypatch):
    monkeypatch.setattr(mea.llm, "RETRIES", 0)
    transport = GatedTransport({"I wash": "physical", "I tell": "social", "I blorp": "no idea"})
    client = live_client(transport, tmp_path)
    transport.gate.set()
    assert client.classify_action_event("I tell friends") is ActionClass.SOCIAL
    transport.gate.clear()  # every lookup below happens while its request is pending
    texts = ["I wash it", "I tell friends", "I blorp", "I wash it", "I vanish", "I blorp"]
    answers = classify_events(client, texts)
    assert not answers.done()
    transport.gate.set()
    results = answers.result(timeout=10)
    assert not answers.in_place
    assert results[:2] == [ActionClass.PHYSICAL, ActionClass.SOCIAL]
    assert results[3] is ActionClass.PHYSICAL
    assert isinstance(results[2], LlmParseError) and results[5] is results[2]
    assert isinstance(results[4], LlmTransportError)
    assert sorted(transport.calls) == sorted(
        load_template("classify_action").render(t) for t in ["I tell friends", "I wash it", "I blorp", "I vanish"]
    )
    # Hits: the cached "I tell friends" and the repeat of "I wash it"; the failed repeat of "I blorp" is no hit.
    assert client.stats() == (1 + len(texts), 2)


def test_failed_request_answers_its_waiting_repeats_and_is_requested_again(tmp_path, monkeypatch):
    monkeypatch.setattr(mea.llm, "RETRIES", 0)
    transport = GatedTransport({})
    client = live_client(transport, tmp_path)
    answers = classify_events(client, ["I vanish", "I vanish"])
    transport.gate.set()
    first, repeat = answers.result(timeout=10)
    assert isinstance(first, LlmTransportError) and repeat is first
    assert client.stats() == (2, 0)
    assert len(transport.calls) == 1
    (again,) = classify_events(client, ["I vanish"]).result(timeout=10)
    assert isinstance(again, LlmTransportError)
    assert client.stats() == (3, 0)
    assert len(transport.calls) == 2
    assert (tmp_path / "cache.jsonl").read_bytes() == b""  # created at start; no failed request is written


def test_classify_action_events_answers_replay_and_heuristic_texts_in_place(replay_client):
    answers = classify_events(replay_client, ["I buy it", "I juggle flaming torches", "I buy it"])
    assert answers.done() and answers.in_place
    results = answers.result()
    assert results[0] is results[2] is ActionClass.PHYSICAL
    assert isinstance(results[1], ReplayMissError)
    assert replay_client.stats() == (3, 2)
    heuristic = LlmClient(ClientConfig(mode=ClientMode.HEURISTIC))
    answers = classify_events(heuristic, ["I recommend it", "  "])
    assert answers.done() and answers.in_place
    assert answers.result()[0] is ActionClass.SOCIAL
    blank = classify_events(heuristic, ["  "])
    assert blank.done() and blank.in_place
    assert isinstance(blank.result()[0], ValueError)
    assert heuristic.stats() == (1, 0)


def test_answered_runs_in_the_thread_that_completes_the_last_request(tmp_path):
    joined, first_settled, tell_thread = threading.Event(), threading.Event(), []

    def transport(config, prompt):
        if "I tell" not in prompt:
            assert joined.wait(timeout=10)
            return "physical"
        assert first_settled.wait(timeout=10)  # ends after every callback on the first request ran
        tell_thread.append(threading.get_ident())
        return "social"

    client = live_client(transport, tmp_path)
    answers = classify_events(client, ["I wash it", "I tell friends"])
    client.classify_action_events(["I wash it"], lambda _: first_settled.set())  # called back after the batch
    joined.set()
    assert answers.result(timeout=30) == [ActionClass.PHYSICAL, ActionClass.SOCIAL]
    assert answers.thread == tell_thread[0]


_AGREEMENT_CASES = {  # outcome -> (a fresh client, the text it classifies)
    "replay-hit": (make_replay_client, "I buy it"),
    "replay-miss": (make_replay_client, "I juggle flaming torches"),
    "heuristic": (lambda: LlmClient(ClientConfig(mode=ClientMode.HEURISTIC)), "I recommend it"),
    "empty": (make_replay_client, ""),
    "whitespace-only": (make_replay_client, " \t "),
    "heuristic-whitespace-only": (lambda: LlmClient(ClientConfig(mode=ClientMode.HEURISTIC)), "  "),
    "live-success": (lambda: live_client(RecordingTransport({"I wash": " Physical \n"})), "I wash the apples"),
    "live-unparseable": (lambda: live_client(RecordingTransport({"I blorp": "probably physical"})), "I blorp"),
    "live-transport-error": (lambda: live_client(RecordingTransport({})), "I vanish"),
}


@pytest.mark.parametrize("outcome", list(_AGREEMENT_CASES))
def test_one_text_gets_what_a_batch_of_one_yields(outcome, monkeypatch):
    monkeypatch.setattr(mea.llm, "RETRIES", 1)
    make_client, text = _AGREEMENT_CASES[outcome]
    single, batch = make_client(), make_client()
    try:
        answer = single.classify_action_event(text)
    except Exception as exc:
        answer = exc
    (expected,) = classify_events(batch, [text]).result(timeout=10)
    if isinstance(expected, Exception):
        assert (type(answer), str(answer)) == (type(expected), str(expected))
    else:
        assert answer is expected
    assert single.stats() == batch.stats()
    assert getattr(single._transport, "calls", None) == getattr(batch._transport, "calls", None)
    single.close()
    batch.close()


def peak_counting_transport(label):
    """A 10-ms transport answering label, and the list holding its peak number of requests in flight."""
    lock, in_flight, peak = threading.Lock(), [0], [0]

    def transport(config, prompt):
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        time.sleep(0.01)
        with lock:
            in_flight[0] -= 1
        return label

    return transport, peak


def test_classify_action_events_keeps_at_most_max_in_flight_requests(tmp_path):
    transport, peak = peak_counting_transport("physical")
    client = live_client(transport, tmp_path)
    texts = [f"I eat dish {i}" for i in range(3 * MAX_IN_FLIGHT)]
    assert classify_events(client, texts).result(timeout=30) == [ActionClass.PHYSICAL] * len(texts)
    assert peak[0] == MAX_IN_FLIGHT


def test_concurrent_callers_request_each_text_once(tmp_path):
    transport = RecordingTransport({"I eat": "physical"})
    client = live_client(transport, tmp_path)
    batches = [[f"I eat dish {(i * 7 + j) % 20}" for j in range(50)] for i in range(8)]

    def classify_batch(texts):
        classify_events(client, texts).result(timeout=60)

    def classify_one_by_one(texts):
        for text in texts:
            client.classify_action_event(text)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=classify_batch if i % 2 else classify_one_by_one, args=(texts,))
            for i, texts in enumerate(batches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(transport.calls) == len(set(transport.calls)) == 20
    assert client.stats() == (sum(map(len, batches)), sum(map(len, batches)) - 20)
    assert len((tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()) == 20


def test_close_ends_the_request_threads(tmp_path):
    before = set(threading.enumerate())
    client = live_client(RecordingTransport({"I eat": "physical"}), tmp_path)
    assert client.classify_action_event("I eat soup") is ActionClass.PHYSICAL
    started = set(threading.enumerate()) - before
    assert started
    client.close()
    assert not any(thread.is_alive() for thread in started)
    assert client.classify_action_event("I eat soup") is ActionClass.PHYSICAL  # cached labels still answer


def test_close_sends_only_the_requests_already_running(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(mea.llm, "RETRIES", 0)
    sent, started, gate = [], threading.Semaphore(0), threading.Event()

    def transport(config, prompt):
        sent.append(prompt)
        started.release()
        assert gate.wait(timeout=10), "gate never opened"
        return "physical"

    client = live_client(transport, tmp_path)
    texts = [f"I eat dish {i}" for i in range(3 * MAX_IN_FLIGHT)]
    answers = classify_events(client, texts + texts[-1:])  # the repeat joins a queued request
    for _ in range(MAX_IN_FLIGHT):
        assert started.acquire(timeout=10)
    waiter_errors = []

    def wait_on_a_queued_request():
        try:
            client.classify_action_event(texts[-2])
        except Exception as exc:
            waiter_errors.append(exc)

    waiter = threading.Thread(target=wait_on_a_queued_request)
    waiter.start()
    while client.stats()[0] < len(texts) + 2:  # the waiter has joined the queued request
        time.sleep(0.001)
    threading.Timer(0.5, gate.set).start()  # the running requests finish only after close has begun
    client.close()
    waiter.join(timeout=10)
    assert len(sent) == MAX_IN_FLIGHT
    results = answers.result(timeout=10)
    assert results.count(ActionClass.PHYSICAL) == MAX_IN_FLIGHT
    cancelled = [r for r in results if r is not ActionClass.PHYSICAL]
    assert len(cancelled) == len(results) - MAX_IN_FLIGHT
    assert all(isinstance(r, LlmTransportError) and "cancelled" in str(r) for r in cancelled)
    assert len(waiter_errors) == 1
    assert (type(waiter_errors[0]), str(waiter_errors[0])) == (LlmTransportError, str(cancelled[0]))
    assert "request cancelled" in str(waiter_errors[0])
    assert not any(isinstance(answer, Future) for answer in client._cache.values())
    assert "exception calling callback" not in caplog.text
