import json
import threading

import pytest

from conftest import DATA, make_replay_client
from mea.dag import ActionClass
from mea.llm import (
    CacheFormatError,
    ClientConfig,
    ClientMode,
    LlmClient,
    LlmParseError,
    LlmTransportError,
    PromptTemplate,
    ReplayMissError,
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


def live_client(transport, tmp_path=None, **overrides):
    cache = tmp_path / "cache.jsonl" if tmp_path else None
    config = ClientConfig(endpoint="http://example.invalid/v1", cache_path=cache, **overrides)
    return LlmClient(config, transport=transport)


# --- templates ---------------------------------------------------------------

def test_bundled_templates_load():
    for name in ("classify_action", "filter_feeling_neg", "filter_emotion"):
        template = load_template(name)
        assert template.template_text.count("{input}") == 1
        assert template.expected_labels


def test_template_requires_single_slot():
    with pytest.raises(ValueError):
        PromptTemplate("classify_action", "no slot here", frozenset({"mental"}))
    with pytest.raises(ValueError):
        PromptTemplate("classify_action", "{input} and {input}", frozenset({"mental"}))


def test_unknown_template_name_rejected():
    with pytest.raises(ValueError):
        PromptTemplate("mystery", "{input}", frozenset({"x"}))


# --- config ------------------------------------------------------------------

def test_replay_requires_fixture():
    with pytest.raises(ValueError):
        ClientConfig(mode=ClientMode.REPLAY)


def test_live_mode_pins_temperature():
    with pytest.raises(ValueError):
        ClientConfig(mode=ClientMode.LIVE, temperature=0.7)


def test_config_from_env(monkeypatch):
    monkeypatch.setenv("MEA_LLM_ENDPOINT", "http://models.local/v1")
    monkeypatch.setenv("MEA_LLM_MODEL", "glm-4-air")
    config = ClientConfig.from_env()
    assert config.endpoint == "http://models.local/v1"
    assert config.model == "glm-4-air"


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
    with pytest.raises(CacheFormatError):
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
    with pytest.raises(CacheFormatError):
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
    with pytest.raises(CacheFormatError) as exc:
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


def test_templates_load_from_custom_directory(tmp_path):
    (tmp_path / "classify_action.txt").write_text("Pick a label for: {input}\n", encoding="utf-8")
    template = load_template("classify_action", tmp_path)
    assert template.template_text == "Pick a label for: {input}"
    assert template.expected_labels == frozenset({"mental", "physical", "social"})


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


def test_unparseable_response_is_an_error_not_a_guess(tmp_path):
    transport = RecordingTransport({"I blorp": "probably physical, hard to say"})
    client = live_client(transport, tmp_path)
    with pytest.raises(LlmParseError) as exc:
        client.classify_action_event("I blorp")
    assert "probably physical" in exc.value.raw_response


def test_transport_errors_are_retried_then_raised(tmp_path):
    transport = RecordingTransport({})
    client = live_client(transport, tmp_path, retries=2)
    with pytest.raises(LlmTransportError):
        client.classify_action_event("I vanish")
    assert len(transport.calls) == 3


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


def test_filter_in_heuristic_mode_keeps_everything(caplog):
    client = LlmClient(ClientConfig(mode=ClientMode.HEURISTIC))
    assert client.filter_candidates(["a", "b"], "filter_emotion") == ["a", "b"]


def test_filter_preserves_order_and_is_cached(tmp_path):
    transport = RecordingTransport(
        {"Word: merry": "yes", "Word: gleeful": "no", "Word: gloomy": "yes"}
    )
    client = live_client(transport, tmp_path)
    first = client.filter_candidates(["gloomy", "gleeful", "merry"], "filter_emotion")
    again = client.filter_candidates(["gloomy", "gleeful", "merry"], "filter_emotion")
    assert first == again == ["gloomy", "merry"]
    assert len(transport.calls) == 3


# --- heuristic classifier ----------------------------------------------------

def test_heuristic_exemplar_verbs():
    assert heuristic_classifier("I versify about soup") is ActionClass.MENTAL
    assert heuristic_classifier("I rent a booth") is ActionClass.SOCIAL
    assert heuristic_classifier("I wash the apples") is ActionClass.PHYSICAL


def test_heuristic_defaults_to_physical():
    assert heuristic_classifier("I blorp") is ActionClass.PHYSICAL


def test_heuristic_mode_client_needs_no_endpoint():
    client = LlmClient(ClientConfig(mode=ClientMode.HEURISTIC), transport=RecordingTransport({}))
    assert client.classify_action_event("I consider the label") is ActionClass.MENTAL
    assert client.stats() == (1, 0)
