"""One batch of one workload, run in a fresh process.

    python3 perfbench/batch.py {reviews,lexicon} INPUTS OUT [--trace] [--setup-only]
        [--classifier {replay,live}] [--cache FILE] [--workers N]

It calls the same public functions, in the same order, as ``mea run`` and
``mea compile-lexicon`` and prints one JSON object: timings, the peak RSS of
this process and, when traced, the span summary. With ``--setup-only`` it
does only the set-up (cold, once) and prints its time. It checks nothing
itself; the parent (``run.py``) compares the outputs with what the generator
planted.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mea.dag  # noqa: E402
import mea.runner  # noqa: E402
from mea import belief  # noqa: E402
from mea.belief import BeliefLexicon  # noqa: E402
from mea.llm import ClientConfig, ClientMode, LlmClient, load_template  # noqa: E402
from mea.nature import default_graph, validate_graph  # noqa: E402
from mea.runner import ingest_reviews, load_parse_dir, run_pipeline  # noqa: E402

from spans import Tracer, patched  # noqa: E402

STUB_LATENCY_MS = 10.0  # fixed latency of the stub endpoint in live mode

# Module globals that the program looks up at call time: (module, name, span,
# whether to record the length of the result).
_TRACED_GLOBALS = (
    (mea.runner, "parse_conllu", "extraction.parse_conllu", False),
    (mea.runner, "build_mea_dag", "dag.build_mea_dag", False),
    (mea.runner, "dumps_dag", "dag.dumps_dag", False),
    (mea.dag, "extract_events", "extraction.extract_events", True),
    (mea.dag, "detect_perception", "extraction.detect_perception", False),
    (mea.dag, "forward_transmit", "dag.forward_transmit", False),
    (mea.dag, "link_actions", "dag.link_actions", False),
)


def trace_layers(tracer: Tracer, patches: ExitStack) -> None:
    """Wrap the calls between layers, for both workload kinds, so a layer a
    workload bypasses shows as zero calls rather than as untraced."""
    if not tracer.enabled:
        return
    for module, name, span, sized in _TRACED_GLOBALS:
        patches.enter_context(patched(module, name, tracer.wrap(span, getattr(module, name), sized=sized)))
    tails = tracer.count("nature.transmitting_tails", mea.dag.transmitting_tails)
    patches.enter_context(patched(mea.dag, "transmitting_tails", tails))


class StubEndpoint:
    """In-process stand-in for the completion endpoint.

    Sleeps a fixed latency, then answers with the label recorded for the
    source text of the prompt. It never uses the heuristic classifier, which
    disagrees with the recorded labels on some texts.
    """

    def __init__(self, labels: dict[str, str], latency_s: float):
        template = load_template("classify_action")
        self._answers = {template.render(text): label for text, label in labels.items()}
        self._latency_s = latency_s
        self._lock = threading.Lock()
        self.prompts: list[str] = []

    def __call__(self, config: ClientConfig, prompt: str) -> str:
        time.sleep(self._latency_s)
        with self._lock:
            self.prompts.append(prompt)
        return self._answers[prompt]


def _clock() -> tuple[float, float, float]:
    """Wall clock, and user and system CPU time of this process (all threads)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), usage.ru_utime, usage.ru_stime


def _timings(t0: tuple, t1: tuple, t2: tuple, t3: tuple) -> dict:
    """Workload time is [t0, t1] plus [t2, t3]; set-up, [t1, t2], is left out."""
    wall, user, system = ((t1[i] - t0[i]) + (t3[i] - t2[i]) for i in range(3))
    return {
        "wall_s": wall,
        "cpu_s": user + system,
        "sys_s": system,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def make_stub(args: argparse.Namespace) -> StubEndpoint | None:
    """The stub endpoint of live mode; it is not part of the timed set-up."""
    if args.classifier != ClientMode.LIVE.value:
        return None
    labels = json.loads((Path(args.inputs) / "labels.json").read_text(encoding="utf-8"))
    return StubEndpoint(labels, STUB_LATENCY_MS / 1000)


def set_up_reviews(args: argparse.Namespace, tracer: Tracer, stub: StubEndpoint | None):
    """The set-up of ``mea run``: lexicon, nature graph and classifier client."""
    inputs, w = Path(args.inputs), tracer.wrap
    mode = ClientMode(args.classifier)
    lexicon = w("belief.load_lexicon", belief.load_lexicon)(inputs / "lexicon.tsv")
    with tracer.span("nature.graph_setup"):
        graph = default_graph()
        validate_graph(graph)
    config = ClientConfig(
        mode=mode,
        fixture_path=inputs / "replay.jsonl" if mode is ClientMode.REPLAY else None,
        cache_path=Path(args.cache) if args.cache else None,
    )
    transport = w("llm.transport", stub) if stub else None
    client = w("llm.client_init", LlmClient)(config, transport=transport)
    return lexicon, graph, client


def run_reviews(args: argparse.Namespace, tracer: Tracer) -> dict:
    """``mea run``: ingest, parse, set up, then build and write every graph."""
    inputs, out, w = Path(args.inputs), Path(args.out), tracer.wrap
    stub = make_stub(args)
    with ExitStack() as patches:
        trace_layers(tracer, patches)
        t0 = _clock()
        failures: list[tuple[str, str]] = []
        reviews = w("runner.ingest_reviews", ingest_reviews)(inputs / "reviews.csv", "csv", failures)
        parses = w("runner.load_parse_dir", load_parse_dir)(inputs / "parses", failures)
        t1 = _clock()
        lexicon, graph, client = set_up_reviews(args, tracer, stub)
        t2 = _clock()

        if tracer.enabled:
            patches.enter_context(patched(lexicon, "lookup", tracer.count("belief.lookup", lexicon.lookup)))
            patches.enter_context(patched(lexicon, "tuples_for", tracer.count("belief.lookup", lexicon.tuples_for)))
            classify = w("llm.classify_action_event", client.classify_action_event)
            patches.enter_context(patched(client, "classify_action_event", classify))
        w("runner.run_pipeline", run_pipeline)(
            reviews, parses, graph, lexicon, client, out, workers=args.workers, failures=failures
        )
        t3 = _clock()

    result = _timings(t0, t1, t2, t3) | {"failures": len(failures), "client_stats": list(client.stats())}
    if stub is not None:
        result["transport_calls"] = len(stub.prompts)
        result["transport_unique"] = len(set(stub.prompts))
    return result


def set_up_lexicon(args: argparse.Namespace, tracer: Tracer) -> LlmClient:
    """The set-up of ``mea compile-lexicon --llm-filter``: the replay client."""
    config = ClientConfig(mode=ClientMode.REPLAY, fixture_path=Path(args.inputs) / "filters.jsonl")
    return tracer.wrap("llm.client_init", LlmClient)(config)


def run_lexicon(args: argparse.Namespace, tracer: Tracer) -> dict:
    """``mea compile-lexicon --llm-filter`` with the replay classifier."""
    inputs, out, w = Path(args.inputs), Path(args.out), tracer.wrap
    with ExitStack() as patches:
        trace_layers(tracer, patches)
        t0 = _clock()
        exclusions = belief.load_word_list(inputs / "exclusions.txt")
        food = w("belief.compile_food_lexicon", belief.compile_food_lexicon)(inputs / "wordnet.tsv", exclusions)
        senses = w("belief.parse_sense_file", belief.parse_sense_file)(inputs / "senti.tsv")
        feeling_pos, feeling_neg = w("belief.compile_feeling_lexicon", belief.compile_feeling_lexicon)(senses)
        bases = w("belief.parse_emotion_file", belief.parse_emotion_file)(inputs / "emotions.tsv")
        emo_pos, emo_neg = w("belief.compile_emotion_lexicon", belief.compile_emotion_lexicon)(bases)
        t1 = _clock()

        client = set_up_lexicon(args, tracer)
        t2 = _clock()

        filter_candidates = w("llm.filter_candidates", client.filter_candidates)
        neg_words = sorted({t.word for t in feeling_neg})
        if neg_words:
            kept = set(filter_candidates(neg_words, "filter_feeling_neg"))
            feeling_neg = {t for t in feeling_neg if t.word in kept}
        emo_words = sorted({t.word for t in emo_pos | emo_neg})
        if emo_words:
            kept = set(filter_candidates(emo_words, "filter_emotion"))
            emo_pos = {t for t in emo_pos if t.word in kept}
            emo_neg = {t for t in emo_neg if t.word in kept}
        lexicon = w("belief.lexicon_build", BeliefLexicon)(food | feeling_pos | feeling_neg | emo_pos | emo_neg)
        w("belief.dump_lexicon", belief.dump_lexicon)(lexicon, out / "lexicon.tsv")
        t3 = _clock()

    return _timings(t0, t1, t2, t3) | {"client_stats": list(client.stats())}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=("reviews", "lexicon"))
    parser.add_argument("inputs")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--classifier", choices=("replay", "live"), default="replay")
    parser.add_argument("--cache")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    tracer = Tracer(args.trace)
    if args.setup_only:
        stub = make_stub(args)
        start = time.perf_counter()
        set_up_reviews(args, tracer, stub) if args.kind == "reviews" else set_up_lexicon(args, tracer)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return
    result = (run_reviews if args.kind == "reviews" else run_lexicon)(args, tracer)
    if tracer.enabled:
        result["spans"] = tracer.summary()
        result["counts"] = tracer.counts()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
