"""Command line entry points: run, compile-lexicon, sample, report."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import closing, nullcontext
from pathlib import Path
from typing import Any, Callable

from . import InputFileError, belief, read_text
from .belief import BeliefLexicon
from .llm import ClientConfig, ClientMode, LlmClient
from .nature import default_graph, load_graph_file, validate_graph
from .runner import (
    INDEX_FILE,
    ingest_reviews,
    load_parse_dir,
    render_report,
    report_errors,
    run_pipeline,
    sample_for_evaluation,
)

log = logging.getLogger("mea.cli")  # not __name__, which is "__main__" under python -m mea.cli

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mea", description="Motivation-emotion-action graph pipeline")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="build one graph per review")
    run.add_argument("--reviews", required=True, help="corpus file")
    run.add_argument("--format", required=True, choices=("snap", "csv"))
    run.add_argument("--parses", required=True, help="directory of per-review .conllu files")
    run.add_argument("--lexicon", required=True, help="compiled lexicon file")
    run.add_argument("--graph", help="optional graph override file")
    run.add_argument("--classifier", required=True, choices=("live", "replay", "heuristic"))
    run.add_argument("--replay-fixture", help="fixture file for replay mode")
    run.add_argument("--cache", help="classifier cache file for live mode")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--dot", action="store_true", help="also write Graphviz files")

    comp = sub.add_parser("compile-lexicon", help="compile the belief lexicon from dumps")
    comp.add_argument("--wordnet", required=True, help="noun hyponym taxonomy dump")
    comp.add_argument("--sentiwordnet", required=True, help="sense score dump")
    comp.add_argument("--emotions", required=True, help="emotion word file")
    comp.add_argument("--exclusions", help="food words to drop, one per line")
    comp.add_argument("--llm-filter", choices=("live", "replay"), help="filter candidates through the model in this mode")
    comp.add_argument("--replay-fixture")
    comp.add_argument("--cache")
    comp.add_argument("--out", required=True)

    samp = sub.add_parser("sample", help="draw an evaluation sample of valid graphs")
    samp.add_argument("--index", required=True, help="run output directory (holds index.json)")
    samp.add_argument("--n", type=int, required=True)
    samp.add_argument("--seed", type=int, required=True)
    samp.add_argument("--out", required=True)

    rep = sub.add_parser("report", help="aggregate filled annotation manifests")
    rep.add_argument("--manifest", required=True)
    rep.add_argument("--out", help="also write the report as JSON")
    return parser


def _make_client(mode: str, args: argparse.Namespace) -> LlmClient:
    fixture = Path(args.replay_fixture) if args.replay_fixture else None
    cache = Path(args.cache) if args.cache else None
    config = ClientConfig.from_env(mode=ClientMode(mode), fixture_path=fixture, cache_path=cache)
    return LlmClient(config)


def _cmd_run(args: argparse.Namespace) -> int:
    failures: list[tuple[str, str]] = []
    review_ids = ingest_reviews(args.reviews, args.format, failures)
    parses = load_parse_dir(args.parses, failures)
    lexicon = belief.load_lexicon(args.lexicon)
    graph = load_graph_file(args.graph) if args.graph else default_graph()
    validate_graph(graph)
    with closing(_make_client(args.classifier, args)) as client:
        stats = run_pipeline(review_ids, parses, graph, lexicon, client, args.out, write_dot=args.dot, failures=failures)
    print(
        f"{stats.total_reviews} reviews, {stats.reviews_with_events} with events, "
        f"{stats.valid_dags} valid graphs, {stats.failed_reviews} failed"
    )
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_compile_lexicon(args: argparse.Namespace) -> int:
    # The filter client is built first: a bad filter configuration fails before any dump is read.
    with closing(_make_client(args.llm_filter, args)) if args.llm_filter else nullcontext() as client:
        exclusions = belief.load_word_list(args.exclusions) if args.exclusions else []
        food = belief.compile_food_lexicon(args.wordnet, exclusions)
        feeling_pos, feeling_neg = belief.compile_feeling_lexicon(belief.parse_sense_file(args.sentiwordnet))
        emo_pos, emo_neg = belief.compile_emotion_lexicon(belief.parse_emotion_file(args.emotions))
        if client is not None:
            neg_words = sorted({t.word for t in feeling_neg})
            if neg_words:
                kept = set(client.filter_candidates(neg_words, "filter_feeling_neg"))
                feeling_neg = {t for t in feeling_neg if t.word in kept}
            emo_words = sorted({t.word for t in emo_pos | emo_neg})
            if emo_words:
                kept = set(client.filter_candidates(emo_words, "filter_emotion"))
                emo_pos = {t for t in emo_pos if t.word in kept}
                emo_neg = {t for t in emo_neg if t.word in kept}

    lexicon = BeliefLexicon(food | feeling_pos | feeling_neg | emo_pos | emo_neg)
    belief.dump_lexicon(lexicon, args.out)
    print(
        f"{len(food)} food, {len(feeling_pos)}/{len(feeling_neg)} feeling, "
        f"{len(emo_pos)}/{len(emo_neg)} emotion tuples -> {args.out}"
    )
    return EXIT_OK


def _read_json(path: str | Path, use: Callable[[Any], dict]) -> dict:
    """Apply use to the JSON document in path; a syntax error or a missing or mistyped field names the file."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputFileError(str(path), exc.lineno, f"invalid JSON: {exc}") from None
    except RecursionError as exc:  # nested too deep for the decoder; it gives no position
        raise InputFileError(str(path), 0, f"invalid JSON: {exc}") from None
    try:
        return use(doc)
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputFileError(str(path), 0, f"missing or mistyped field: {exc}") from None


def _cmd_sample(args: argparse.Namespace) -> int:
    index_path = Path(args.index) / INDEX_FILE
    manifest = _read_json(index_path, lambda entries: sample_for_evaluation(entries, args.n, args.seed))
    Path(args.out).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"{len(manifest['entries'])} samples -> {args.out}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    report = _read_json(args.manifest, report_errors)
    print(render_report(report), end="")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "compile-lexicon": _cmd_compile_lexicon,
    "sample": _cmd_sample,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        log.error("%s", exc)
        return EXIT_FATAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
