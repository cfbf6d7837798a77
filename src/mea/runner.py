"""Batch corpus processing: ingestion, pipeline runs, sampling, error reports."""

from __future__ import annotations

import csv
import json
import logging
import os
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from queue import SimpleQueue
from typing import Iterable, Sequence

from . import InputFileError, read_text
from .belief import BeliefLexicon
# build_mea_dag is no longer called here but stays importable: perfbench/batch.py traces it by name.
from .dag import ActionClass, MeaDag, build_mea_dag, dumps_dag, finish_mea_dag, needs_classifier, prepare_mea_dag, to_dot  # noqa: F401
from .extraction import PATTERN_IDS, ParsedSentence, parse_conllu
from .llm import LlmClient, LlmParseError
from .nature import NatureGraph, NatureNodeId

log = logging.getLogger(__name__)

ERROR_DISPLAY_NAMES = {
    "EventLinkingLoss": "Event Linking Loss",
    "AserExtractionLoss": "ASER Extraction Loss",
    "WrongSubsequentAction": "Wrong Subsequent Action",
    "WordSenseAmbiguity": "Word Sense Ambiguity",
    "WrongBelief": "Wrong Belief",
    "WrongPastAction": "Wrong Past Action",
    "NegationLoss": "Negation Loss",
}

ERROR_TYPES = tuple(ERROR_DISPLAY_NAMES)

SHORT_SENTENCE_LIMIT = 5  # reviews with fewer sentences than this are "short"

OPEN_REVIEWS = 256  # reviews waiting on the endpoint at once; bounds the state they hold

# A review id names its output files, so it may not hold a path separator or
# a control character (C0, DEL or C1); failures.log escapes control characters.
_CONTROL_CHARS = r"\x00-\x1f\x7f-\x9f"
_UNSAFE_ID_CHAR = re.compile(rf"[/\\{_CONTROL_CHARS}]")
_CONTROL_CHAR = re.compile(rf"[{_CONTROL_CHARS}]")
# The files a run writes beside its graphs.
INDEX_FILE, STATS_FILE, FAILURES_FILE = "index.json", "stats.json", "failures.log"


@dataclass
class CorpusStats:
    total_reviews: int = 0
    reviews_with_events: int = 0
    valid_dags: int = 0
    invalid_both_needs: int = 0
    invalid_no_need: int = 0
    failed_reviews: int = 0
    pattern_counts: dict[str, int] = field(default_factory=lambda: {p: 0 for p in PATTERN_IDS})
    classifier_calls: int = 0
    classifier_cache_hits: int = 0


class ReportValidationError(Exception):
    def __init__(self, offenders: list[str], what: str = "error types"):
        self.offenders = offenders
        super().__init__(f"unknown {what}: " + ", ".join(offenders))


def ingest_reviews(path: str | Path, fmt: str, failures: list[tuple[str, str]]) -> list[str]:
    """Read a review corpus in snap (key: value blocks) or csv (Id,Text) form; return its review ids.

    The file is read as a stream of lines, each ended by \\n, \\r or \\r\\n, and
    no review text is held. Records without usable text, CSV rows whose Id
    is unsafe as a file name or names a file the run writes for itself, and
    every row of a CSV Id that appears more than once are skipped with a
    warning and recorded in failures for quarantine reporting, once the
    whole file has been read.
    """
    if fmt not in ("snap", "csv"):
        raise ValueError(f"unknown corpus format {fmt!r}")
    path = Path(path)
    skips: list[tuple[str, str]] = []  # logged once the whole file has read without error
    with open(path, encoding="utf-8", newline="") as lines:
        try:
            ids = _snap_ids(lines, skips) if fmt == "snap" else _csv_ids(str(path), lines, skips)
        except (UnicodeDecodeError, InputFileError):  # a bad byte anywhere in the file is the error to report
            read_text(path)  # raises InputFileError at the line of the first bad byte
            raise
    for review_id, reason in skips:
        _skip(failures, review_id, reason)
    return ids


def _skip(failures: list[tuple[str, str]], review_id: str, reason: str) -> None:
    log.warning("skipping review %s: %s", review_id, reason)
    failures.append((review_id, reason))


def _snap_ids(lines: Iterable[str], skips: list[tuple[str, str]]) -> list[str]:
    """Number the blank-line separated blocks from 1: the ids of blocks with text; a skip for each other."""
    ids: list[str] = []
    in_block = has_text = False
    ordinal = 0
    for raw in chain(lines, [""]):  # the empty line closes the last block
        line = raw.strip()
        if line:
            key, sep, value = line.partition(":")
            if sep:
                in_block = True
                if key.strip() == "review/text":  # the block's last review/text line decides
                    has_text = bool(value.strip())
        elif in_block:
            ordinal += 1
            if has_text:
                ids.append(str(ordinal))
            else:
                skips.append((str(ordinal), "missing review/text field"))
            in_block = has_text = False
    return ids


def _csv_ids(path: str, lines: Iterable[str], skips: list[tuple[str, str]]) -> list[str]:
    """The Ids of the usable rows, in file order; a skip for each other row."""
    reader = csv.DictReader(lines)
    try:
        if reader.fieldnames is None or "Id" not in reader.fieldnames or "Text" not in reader.fieldnames:
            raise InputFileError(path, reader.line_num, "csv must have Id and Text columns")
        rows = [((row.get("Id") or "").strip(), bool((row.get("Text") or "").strip())) for row in reader]
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        # DictReader.line_num lags on a failed row; its inner reader's does not.
        raise InputFileError(path, reader.reader.line_num, str(exc)) from None
    # A parse names only its review id, so no row of a repeated id can be trusted.
    id_rows = Counter(review_id for review_id, _ in rows)
    ids: list[str] = []
    for review_id, has_text in rows:
        if not review_id:  # quarantined under its own empty id, which no accepted Id can equal
            skips.append((review_id, "missing Id value"))
        elif review_id in (".", "..") or _UNSAFE_ID_CHAR.search(review_id):
            skips.append((review_id, "Id must not be . or .. or contain /, \\ or control characters"))
        elif f"{review_id}.json" in (INDEX_FILE, STATS_FILE):
            skips.append((review_id, f"Id names the run's own {review_id}.json"))
        elif id_rows[review_id] > 1:
            skips.append((review_id, f"Id appears in {id_rows[review_id]} rows"))
        elif not has_text:
            skips.append((review_id, "empty review text"))
        else:
            ids.append(review_id)
    return ids


def load_parse_dir(parse_dir: str | Path, failures: list[tuple[str, str]]) -> dict[str, list[ParsedSentence]]:
    """Parse every *.conllu entry in a directory, by name, into {file stem: its sentences}.

    A file is one review's parse and its stem is the review id; an empty file
    is a review without sentences. An entry that fails to parse or to read,
    e.g. one with a `# review_id` other than its stem or a directory,
    quarantines that review, recorded in failures, instead of aborting the batch.
    """
    parse_dir = Path(parse_dir)
    if not parse_dir.is_dir():
        raise InputFileError(str(parse_dir), 0, "not a directory")
    prefix = str(parse_dir / "_")[:-1]  # str(parse_dir / name) is prefix + name; no Path per file
    by_review: dict[str, list[ParsedSentence]] = {}
    for name in sorted(name for name in os.listdir(parse_dir) if name.endswith(".conllu")):
        stem = name[:-7] or name  # as Path.stem: a bare ".conllu" is all stem
        try:
            sentences = parse_conllu(prefix + name)
        except (InputFileError, OSError) as exc:  # OSError: a directory, a dangling link, an unreadable file
            error = exc if isinstance(exc, InputFileError) else InputFileError(prefix + name, 0, exc.strerror)
            _skip(failures, stem, f"parse error: {error}")
            continue
        by_review[stem] = sentences
    return by_review


def _write_file(path: str, text: str) -> None:
    """Write text as UTF-8 with one open, write and close: no buffered or text I/O layer."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        data = memoryview(text.encode())
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def run_pipeline(
    review_ids: Sequence[str],
    parses: dict[str, list[ParsedSentence]],
    graph: NatureGraph,
    lexicon: BeliefLexicon,
    client: LlmClient,
    out_dir: str | Path,
    write_dot: bool = False,
    workers: int = 1,
    *,
    failures: list[tuple[str, str]],
) -> CorpusStats:
    """Build one graph per ingested review id with sentences, write outputs and stats.

    review_ids are ingest_reviews' ids, in file order; parses maps a review
    id to its sentences, as load_parse_dir returns them. Graphs are built in the calling thread; workers is accepted and has no
    effect. Per-review failures are logged, counted and appended to failures,
    never abort the batch: a parse whose stem names no ingested or skipped
    review is quarantined under that stem, and an ingested review with no
    parse and no failure yet as "no parse file", before any graph is built.
    Classifier verdicts that fail to parse skip just the affected event.
    """
    quarantined = {rid for rid, _ in failures}
    for stem in sorted(set(parses) - set(review_ids) - quarantined):
        _skip(failures, stem, f"parse file {stem}.conllu names no ingested or skipped review")
    for review_id in review_ids:
        if review_id not in parses and review_id not in quarantined:
            _skip(failures, review_id, "no parse file")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = str(out_dir / "_")[:-1]  # str(out_dir / name) is out + name
    work = [review_id for review_id in review_ids if review_id in parses]

    stats = CorpusStats(total_reviews=len(review_ids))
    index_entries = []
    errors: dict[int, Exception] = {}

    def finish(position: int, dag: MeaDag, answers: list[ActionClass | Exception]) -> None:
        in_event_order = iter(answers)  # link_actions asks about the events needs_classifier names, in order

        def classify(text: str) -> ActionClass | None:
            answer = next(in_event_order)
            if isinstance(answer, LlmParseError):
                log.warning("unparseable classifier verdict for %r (%r); skipping event", text, answer.raw_response)
                return None
            if isinstance(answer, Exception):
                raise answer
            return answer

        review_id = dag.review_id
        try:
            finish_mea_dag(dag, graph, classify)
            if dag.events:
                _write_file(f"{out}{review_id}.json", dumps_dag(dag))
                if write_dot:
                    _write_file(f"{out}{review_id}.dot", to_dot(dag))
        except Exception as exc:  # quarantined per review
            errors[position] = exc
            return
        if not dag.events:
            return
        stats.reviews_with_events += 1
        for event in dag.events:
            stats.pattern_counts[event.pattern_id] += 1
        if dag.valid:
            stats.valid_dags += 1
        elif NatureNodeId.NEED_FOOD_NEG in dag.activated:  # an invalid graph with need_food_neg has both needs
            stats.invalid_both_needs += 1
        else:
            stats.invalid_no_need += 1
        index_entries.append({"review_id": review_id, "sentence_count": len(parses[review_id]), "valid": dag.valid})

    # Each prepared review is queued with its answers once they are all in, and
    # finished from the queue in the order answered, so a slow request holds back no other.
    answered: SimpleQueue[tuple[int, MeaDag, list[ActionClass | Exception]]] = SimpleQueue()
    open_reviews = 0
    for position, review_id in enumerate(work):
        try:
            dag = prepare_mea_dag(review_id, parses[review_id], graph, lexicon)
            texts = [event.text for event in dag.events if needs_classifier(event)]
            client.classify_action_events(texts, lambda answers, review=(position, dag): answered.put((*review, answers)))
        except Exception as exc:  # quarantined per review
            errors[position] = exc
            continue
        open_reviews += 1
        while open_reviews >= OPEN_REVIEWS or not answered.empty():  # blocks only while OPEN_REVIEWS are open
            finish(*answered.get())
            open_reviews -= 1
    for _ in range(open_reviews):
        finish(*answered.get())
    for position in sorted(errors):  # failures in review order
        _skip(failures, work[position], f"pipeline error: {errors[position]}")

    stats.failed_reviews = len(failures)
    stats.classifier_calls, stats.classifier_cache_hits = client.stats()

    index_entries.sort(key=lambda e: e["review_id"])
    _write_file(out + INDEX_FILE, json.dumps(index_entries, indent=2) + "\n")
    _write_file(out + STATS_FILE, json.dumps(asdict(stats), indent=2) + "\n")
    if failures:
        lines = [f"{_escape_controls(rid)}\t{_escape_controls(reason)}" for rid, reason in failures]
        _write_file(out + FAILURES_FILE, "\n".join(lines) + "\n")
    return stats


def _escape_controls(text: str) -> str:
    """Write each control character as a \\xNN escape, so a log line never splits."""
    return _CONTROL_CHAR.sub(lambda m: f"\\x{ord(m.group()):02x}", text)


def sample_for_evaluation(index_entries: Sequence[dict], n: int, seed: int) -> dict:
    """Draw a uniform, seeded sample of valid graphs tagged short or long."""
    valid = sorted((e for e in index_entries if e["valid"]), key=lambda e: e["review_id"])
    if n > len(valid):
        raise ValueError(f"requested {n} samples but only {len(valid)} valid graphs exist")
    rng = random.Random(seed)
    chosen = rng.sample(valid, n)
    entries = [
        {
            "review_id": e["review_id"],
            "sentence_count": e["sentence_count"],
            "split": "short" if e["sentence_count"] < SHORT_SENTENCE_LIMIT else "long",
            "annotations": [],
        }
        for e in chosen
    ]
    return {"seed": seed, "n": n, "entries": entries}


def _column_report(entries: list[dict]) -> tuple[dict, dict]:
    incorrect = sum(1 for e in entries if e["annotations"])
    count = len(entries)
    samples = {
        "count": count,
        "incorrect": incorrect,
        "incorrect_pct": round(100.0 * incorrect / count, 1) if count else 0.0,
    }
    type_counts = {t: 0 for t in ERROR_TYPES}
    for entry in entries:
        for ann in entry["annotations"]:
            type_counts[ann["error_type"]] += 1
    total_errors = sum(type_counts.values())
    errors = {
        "count": total_errors,
        "by_type": {
            t: {
                "count": c,
                "pct": round(100.0 * c / total_errors, 1) if total_errors else 0.0,
            }
            for t, c in type_counts.items()
        },
    }
    return samples, errors


def report_errors(manifest: dict) -> dict:
    """Aggregate filled annotations into counts and percentages per column."""
    offenders = []
    for entry in manifest["entries"]:
        for ann in entry["annotations"]:
            if ann.get("error_type") not in ERROR_TYPES:
                offenders.append(str(ann.get("error_type")))
    if offenders:
        raise ReportValidationError(offenders)

    entries = manifest["entries"]
    splits = [str(e["split"]) for e in entries if e["split"] not in ("short", "long")]
    if splits:
        raise ReportValidationError(splits, "splits")
    short = [e for e in entries if e["split"] == "short"]
    long_ = [e for e in entries if e["split"] == "long"]
    report: dict = {"samples": {}, "errors": {}}
    for name, subset in (("total", entries), ("short", short), ("long", long_)):
        samples, errors = _column_report(list(subset))
        report["samples"][name] = samples
        report["errors"][name] = errors
    return report


def render_report(report: dict) -> str:
    """Plain-text table: sample accuracy and error distribution per column."""
    cols = ("total", "short", "long")
    headers = {"total": "Test", "short": "Short-Test", "long": "Long-Test"}

    def row(label: str, cells: list[tuple[int, float]]) -> str:
        out = f"{label:<32}"
        for count, pct in cells:
            out += f"{count:>8} {pct:>7.1f}%"
        return out

    lines = [f"{'':<32}" + "".join(f"{headers[c]:>17}" for c in cols)]
    lines.append(
        row("Sample  Incorrect", [(report["samples"][c]["incorrect"], report["samples"][c]["incorrect_pct"]) for c in cols])
    )
    lines.append(row("        Total", [(report["samples"][c]["count"], 100.0 if report["samples"][c]["count"] else 0.0) for c in cols]))
    lines.append("-" * len(lines[0]))
    for error_type in ERROR_TYPES:
        cells = [
            (
                report["errors"][c]["by_type"][error_type]["count"],
                report["errors"][c]["by_type"][error_type]["pct"],
            )
            for c in cols
        ]
        lines.append(row(f"Error   {ERROR_DISPLAY_NAMES[error_type]}", cells))
    lines.append(
        row("        Total", [(report["errors"][c]["count"], 100.0 if report["errors"][c]["count"] else 0.0) for c in cols])
    )
    return "\n".join(lines) + "\n"
