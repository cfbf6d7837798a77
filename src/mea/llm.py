"""Chat-completion client for lexicon filtering and action classification.

Three modes: live (HTTP endpoint, cached), replay (bundled fixtures, never
touches the network) and heuristic (keyword table, no endpoint needed).
Responses must parse to a closed label set; anything else is an error, never
a guess.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

from . import InputFileError, read_text
from .dag import ActionClass

log = logging.getLogger(__name__)

ENDPOINT_ENV = "MEA_LLM_ENDPOINT"
API_KEY_ENV = "MEA_LLM_API_KEY"
MODEL_ENV = "MEA_LLM_MODEL"
DEFAULT_MODEL = "glm-4"
MAX_IN_FLIGHT = 16  # concurrent requests per client
REQUEST_TIMEOUT_S = 30.0  # per live request
RETRIES = 2  # further attempts after a live request's transport error

_LABEL_TO_CLASS = {c.value.lower(): c for c in ActionClass}

_TEMPLATE_LABELS: dict[str, tuple[frozenset[str], str | None]] = {
    "filter_feeling_neg": (frozenset({"yes", "no"}), "yes"),
    "filter_emotion": (frozenset({"yes", "no"}), "yes"),
    "classify_action": (frozenset(_LABEL_TO_CLASS), None),
}


class LlmTransportError(Exception):
    pass


class LlmParseError(Exception):
    def __init__(self, message: str, raw_response: str):
        self.raw_response = raw_response
        super().__init__(message)


class ReplayMissError(Exception):
    pass


class ClientMode(str, Enum):
    LIVE = "live"
    REPLAY = "replay"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    template_text: str
    expected_labels: frozenset[str]
    keep_label: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _TEMPLATE_LABELS:
            raise ValueError(f"unknown template name {self.name!r}")
        if self.template_text.count("{input}") != 1:
            raise ValueError(f"template {self.name!r} must contain exactly one {{input}} slot")
        if not self.expected_labels:
            raise ValueError("expected_labels must be non-empty")

    def render(self, value: str) -> str:
        return self.template_text.replace("{input}", value)


@functools.cache
def load_template(name: str) -> PromptTemplate:
    """Load a bundled template, once per name."""
    labels, keep = _TEMPLATE_LABELS[name]
    text = resources.files("mea").joinpath(f"templates/{name}.txt").read_text(encoding="utf-8")
    return PromptTemplate(name, text.strip(), labels, keep)


@dataclass
class ClientConfig:
    endpoint: str = ""
    api_key: str = ""
    model: str = DEFAULT_MODEL
    mode: ClientMode = ClientMode.LIVE
    fixture_path: Path | None = None
    cache_path: Path | None = None

    def __post_init__(self) -> None:
        if self.mode is ClientMode.REPLAY and self.fixture_path is None:
            raise ValueError("replay mode requires a fixture file")

    @classmethod
    def from_env(cls, **overrides) -> "ClientConfig":
        base = {
            "endpoint": os.environ.get(ENDPOINT_ENV, ""),
            "api_key": os.environ.get(API_KEY_ENV, ""),
            "model": os.environ.get(MODEL_ENV, DEFAULT_MODEL),
        }
        base.update(overrides)
        return cls(**base)


# The fields of a cache line, in the order they are written.
_CACHE_FIELDS = ("key", "template", "input", "model", "raw_response", "parsed_label", "timestamp")
_cache_fields = itemgetter(*_CACHE_FIELDS)  # raises KeyError for the first missing field


def cache_key(template: str, input_text: str, model: str) -> str:
    # A cache line may hold any JSON string, lone surrogates included.
    payload = "\x1f".join((template, input_text, model)).encode("utf-8", "surrogatepass")
    return hashlib.sha256(payload).hexdigest()


def _load_entries(path: Path) -> dict[str, str]:
    labels: dict[str, str] = {}
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputFileError(str(path), line_no, f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InputFileError(str(path), line_no, "expected a JSON object")
        try:
            key, template, input_text, model, _, label, _ = _cache_fields(doc)
        except KeyError as exc:
            raise InputFileError(str(path), line_no, f"missing field {exc}") from None
        try:
            if template not in _TEMPLATE_LABELS:
                raise InputFileError(str(path), line_no, f"unknown template {template!r}")
            if label not in _TEMPLATE_LABELS[template][0]:
                raise InputFileError(str(path), line_no, f"label {label!r} not allowed")
            expected = cache_key(template, input_text, model)
        except TypeError:  # a list, object or number where a string belongs
            raise InputFileError(str(path), line_no, "template, input, model and label must be strings") from None
        if key != expected:
            raise InputFileError(str(path), line_no, "key does not match entry fields")
        labels[key] = label
    return labels


def _http_transport(config: ClientConfig, prompt: str) -> str:
    import http.client  # imported here, not at module level: a run that sends nothing never loads them
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"
    body = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0,
    }
    try:
        request = urllib.request.Request(config.endpoint, json.dumps(body).encode(), headers)  # a body makes it a POST
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
            raw = response.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:  # OSError: HTTP status, URL and timeout errors
        raise LlmTransportError(str(exc)) from exc
    try:
        return json.loads(raw)["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise LlmTransportError(f"malformed completion response: {exc}") from exc


Transport = Callable[[ClientConfig, str], str]


# Keyword tables seeded with the subtype exemplar verbs; unknown verbs default
# to physical, the most common class in a food-review corpus.
_MENTAL_VERBS = frozenset(
    {"analyze", "versify", "think", "consider", "decide", "expect", "want", "wonder", "remember", "feel", "believe", "love", "hate"}
)
_SOCIAL_VERBS = frozenset(
    {"denounce", "rent", "recommend", "tell", "share", "ask", "thank", "invite", "give", "serve"}
)
_PHYSICAL_VERBS = frozenset(
    {"wash", "peel", "cook", "eat", "buy", "drink", "slice", "bake", "push", "pour", "freeze", "mix", "go", "pay", "wait", "try"}
)


def heuristic_classifier(text: str) -> ActionClass:
    """Offline fallback: first known keyword wins, default physical."""
    for raw in text.lower().split():
        word = raw.strip(".,!?;:'\"()")
        if word in _MENTAL_VERBS:
            return ActionClass.MENTAL
        if word in _SOCIAL_VERBS:
            return ActionClass.SOCIAL
        if word in _PHYSICAL_VERBS:
            return ActionClass.PHYSICAL
    return ActionClass.PHYSICAL


def _settled(outcome: ActionClass | Exception | Future[str]) -> ActionClass | Exception:
    if not isinstance(outcome, Future):
        return outcome
    if outcome.cancelled():
        return LlmTransportError("request cancelled: the client was closed")
    exc = outcome.exception()
    return exc if exc is not None else _LABEL_TO_CLASS[outcome.result()]


def _when_done(futures: Sequence[Future], callback: Callable[[], None]) -> None:
    """Call callback once every future is done: now, or in the thread that completes the last."""
    for at, future in enumerate(futures):
        if not future.done():
            future.add_done_callback(lambda _: _when_done(futures[at + 1 :], callback))
            return
    callback()


class LlmClient:
    """Thread-safe completion client with an append-only response cache.

    Live requests run on a pool of MAX_IN_FLIGHT threads. One table maps each
    cache key to its label or to the one request in flight for it: a caller
    that misses while it is in flight waits for it instead of sending its own,
    and a failed request leaves the table, so a later caller sends it again.
    """

    def __init__(
        self,
        config: ClientConfig,
        transport: Transport | None = None,
    ):
        self.config = config
        if transport is None and config.mode is ClientMode.LIVE:
            url = urlsplit(config.endpoint)
            if url.scheme not in ("http", "https") or not url.netloc:
                raise ValueError(f"{ENDPOINT_ENV} must be an http(s):// URL, got {config.endpoint!r}")
        self._transport = transport or _http_transport
        self._lock = threading.Lock()
        self._requests = ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT, thread_name_prefix="mea-llm")
        self._joins: Counter[str] = Counter()  # callers waiting on another's request, by cache key
        self.calls = 0
        self.cache_hits = 0
        # Replay answers from the fixture alone; live mode from its own cache file,
        # created here if missing and appended to through one descriptor until close().
        self._cache: dict[str, str | Future[str]] = {}
        self._cache_fd: int | None = None
        if config.mode is ClientMode.REPLAY:
            self._cache = _load_entries(config.fixture_path)
        elif config.mode is ClientMode.LIVE and config.cache_path is not None:
            if Path(config.cache_path).exists():
                self._cache = _load_entries(Path(config.cache_path))
            self._cache_fd = os.open(config.cache_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)

    def close(self) -> None:
        """Cancel the requests not yet started; once the rest are done, stop their threads and close the cache file."""
        self._requests.shutdown(cancel_futures=True)
        with self._lock:  # a started request settles its key itself, so the requests left were cancelled
            self._cache = {key: label for key, label in self._cache.items() if isinstance(label, str)}
            self._joins.clear()
            if self._cache_fd is not None:  # no request is left to write to it
                os.close(self._cache_fd)
                self._cache_fd = None

    def stats(self) -> tuple[int, int]:
        """Calls, and the calls answered by a cached label or by another call's successful request."""
        with self._lock:
            return self.calls, self.cache_hits

    def classify_action_event(self, text: str) -> ActionClass:
        """Classify one first-person action event as mental, physical or social: a batch of one, awaited."""
        answers = self.classify_action_events([text])
        [answer] = answers.result() if isinstance(answers, Future) else answers
        if isinstance(answer, Exception):
            raise answer
        return answer

    def classify_action_events(
        self, texts: Sequence[str]
    ) -> list[ActionClass | Exception] | Future[list[ActionClass | Exception]]:
        """Classify first-person action events as mental, physical or social, without waiting on the endpoint.

        Each text gets its class, or the exception classifying it raised (a
        ValueError for blank text): as a list when every text is answered now
        (cached, fixture and heuristic texts are), else as a future, done when
        the last request it needs is.
        """
        outcomes = [self._start_classify(text) for text in texts]
        requests = [o for o in outcomes if isinstance(o, Future)]
        if not requests:
            return outcomes
        answers: Future[list[ActionClass | Exception]] = Future()
        _when_done(requests, lambda: answers.set_result([_settled(o) for o in outcomes]))
        return answers

    def _start_classify(self, text: str) -> ActionClass | Exception | Future[str]:
        try:
            if not text.strip():
                raise ValueError("event text must be non-empty")
            if self.config.mode is ClientMode.HEURISTIC:
                with self._lock:
                    self.calls += 1
                return heuristic_classifier(text)
            label = self._lookup(load_template("classify_action"), text)
        except Exception as exc:  # the caller decides, per text, what an error means
            return exc
        return label if isinstance(label, Future) else _LABEL_TO_CLASS[label]

    def filter_candidates(self, words: Sequence[str], template_name: str) -> list[str]:
        """Keep the words the model accepts; on a parse failure keep the word.

        Rule-based compilation already admitted every candidate, so an
        unreadable verdict conservatively keeps it.
        """
        if not words:
            raise ValueError("words must be non-empty")
        template = load_template(template_name)
        if template.keep_label is None:
            raise ValueError(f"template {template.name!r} is not a filter template")
        if self.config.mode is ClientMode.HEURISTIC:
            raise ValueError("heuristic mode cannot filter candidates")
        labels = [self._lookup(template, word) for word in words]  # every miss is requested before any is awaited
        kept: list[str] = []
        for word, label in zip(words, labels):
            try:
                if isinstance(label, Future):
                    label = label.result()
            except LlmParseError as exc:
                log.warning("unparseable filter verdict for %r (%r); keeping it", word, exc.raw_response)
                kept.append(word)
                continue
            if label == template.keep_label:
                kept.append(word)
        return kept

    def _lookup(self, template: PromptTemplate, input_text: str) -> str | Future[str]:
        """Count a call; return the cached label, else the one request for its key, started if none is in flight."""
        key = cache_key(template.name, input_text, self.config.model)
        with self._lock:
            self.calls += 1
            answer = self._cache.get(key)
            if isinstance(answer, str):
                self.cache_hits += 1
                return answer
            if self.config.mode is not ClientMode.REPLAY:
                if answer is None:
                    answer = self._cache[key] = self._requests.submit(self._fetch, key, template, input_text)
                else:
                    self._joins[key] += 1
                return answer
        raise ReplayMissError(
            f"no fixture entry for template={template.name!r} input={input_text!r} "
            f"model={self.config.model!r}"
        )

    def _fetch(self, key: str, template: PromptTemplate, input_text: str) -> str:
        """Request one key's label and cache it; the callers that joined the request count as hits only then."""
        try:
            raw = self._request(template.render(input_text))
            label = raw.strip().lower()
            if label not in template.expected_labels:
                raise LlmParseError(
                    f"response is not one of {sorted(template.expected_labels)}", raw_response=raw
                )
            line = (key, template.name, input_text, self.config.model, raw, label, time.time())
            entry = (json.dumps(dict(zip(_CACHE_FIELDS, line))) + "\n").encode()
            with self._lock:
                if self._cache_fd is not None:  # one unbuffered write: a whole line, on file before its label is cached
                    os.write(self._cache_fd, entry)
                self.cache_hits += self._joins.pop(key, 0)
                self._cache[key] = label
        except Exception:
            with self._lock:  # not cached, so a later caller requests it again
                del self._cache[key]
                self._joins.pop(key, None)
            raise
        return label

    def _request(self, prompt: str) -> str:
        last: LlmTransportError | None = None
        for attempt in range(RETRIES + 1):
            try:
                return self._transport(self.config, prompt)
            except LlmTransportError as exc:
                last = exc
                if attempt < RETRIES:
                    time.sleep(0.2 * (attempt + 1))
        raise last
