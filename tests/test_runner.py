import csv
import json
import os
import shutil
import stat
import tempfile
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mea.extraction
import mea.llm
import mea.runner
from conftest import DATA, make_replay_client, sentence, write_parses
from mea import InputFileError
from mea.belief import load_lexicon
from mea.extraction import Tense, classify_tense, extract_events, parse_conllu
from mea.llm import MAX_IN_FLIGHT, ClientConfig, ClientMode, LlmClient, LlmTransportError, load_template
from mea.nature import default_graph
from mea.runner import (
    ERROR_TYPES,
    ReportValidationError,
    ingest_reviews,
    load_parse_dir,
    render_report,
    report_errors,
    run_pipeline,
    sample_for_evaluation,
)


def run_fixture_corpus(data_dir, out_dir, workers=1):
    failures = []
    reviews = ingest_reviews(data_dir / "corpus" / "reviews.csv", "csv", failures)
    parses = load_parse_dir(data_dir / "corpus" / "parses", failures)
    stats = run_pipeline(
        reviews,
        parses,
        default_graph(),
        load_lexicon(data_dir / "lexicon.tsv"),
        make_replay_client(),
        out_dir,
        workers=workers,
        failures=failures,
    )
    return stats, failures


# --- ingestion ---------------------------------------------------------------

def test_ingest_snap_blocks(data_dir):
    assert ingest_reviews(data_dir / "snap_sample.txt", "snap", []) == ["1", "2"]


def test_ingest_snap_records_skips(data_dir):
    failures = []
    ingest_reviews(data_dir / "snap_sample.txt", "snap", failures)
    assert failures == [("3", "missing review/text field")]


SNAP_BLOCKS = [
    ["product/productId: A", "review/score: 1.0"],
    ["product/productId: B", "review/text: second{sep}", "review/score: 5.0"],
    ["product/productId: C", "review/score: 2.0"],
    ["product/productId: D", "review/text: fourth"],
]
SNAP_IDS, SNAP_SKIPS = ["2", "4"], [("1", "missing review/text field"), ("3", "missing review/text field")]


def write_snap(path, sep="", newline="\n"):
    """SNAP_BLOCKS after a blank line, each block followed by two blank lines, the second a space."""
    lines = [""] + [line for block in SNAP_BLOCKS for line in (*block, "", " ")]
    path.write_text("".join(line + newline for line in lines).format(sep=sep), encoding="utf-8", newline="")


# Each sep ends a line for str.splitlines but not in a file. A reader that split with splitlines would
# find a blank line inside block 2's text: a new block, and a shift of every later id.
@pytest.mark.parametrize(
    "sep, newline",
    [(sep, "\n") for sep in ["", "\u2028\u2028", "\x0c\x0c", "\x1c", "\x0b", "\x85", "\u2029", "\x1e \x1d"]]
    + [("", "\r\n"), ("", "\r")],
)
def test_ingest_snap_ends_lines_only_at_line_feed_and_carriage_return(tmp_path, sep, newline):
    path = tmp_path / "reviews.txt"
    write_snap(path, sep, newline)
    failures = []
    assert ingest_reviews(path, "snap", failures) == SNAP_IDS
    assert failures == SNAP_SKIPS


def test_ingest_snap_logs_no_skip_before_a_bad_byte(tmp_path, caplog):
    path = tmp_path / "bad.txt"
    # The bad byte lies far past the first block, which has no text, so the file is read in more than one piece.
    path.write_bytes(b"review/score: 1.0\n\n" + b"review/text: ok\n\n" * 5000 + b"review/text: \xff\n")
    failures = []
    with pytest.raises(InputFileError) as exc:
        ingest_reviews(path, "snap", failures)
    assert (exc.value.path, exc.value.line_no) == (str(path), 10003)
    assert failures == []
    assert "skipping" not in caplog.text


def test_ingest_reraises_a_decode_error_that_a_second_read_does_not_meet(tmp_path, monkeypatch):
    path = tmp_path / "reviews.csv"
    path.write_bytes(b"Id,Text\n1,\xff\n")
    monkeypatch.setattr(mea.runner, "read_text", lambda path: "")  # as if the file were mended between the reads
    with pytest.raises(UnicodeDecodeError):
        ingest_reviews(path, "csv", [])


# No Text column; a field over the csv module's size limit. Either is met before the bad byte is read.
@pytest.mark.parametrize("head, lines", [(b"Id,Body\n", 1), (b"Id,Text\n1," + b"x" * 200_000 + b"\n", 2)])
def test_ingest_csv_reports_a_bad_byte_before_a_csv_fault(tmp_path, head, lines):
    path = tmp_path / "reviews.csv"
    path.write_bytes(head + b"1,ok\n" * 5000 + b"2,\xff\n")
    with pytest.raises(InputFileError) as exc:
        ingest_reviews(path, "csv", [])
    assert str(exc.value) == f"{path}:{lines + 5001}: not valid UTF-8"


def test_ingest_csv(data_dir):
    review_ids = ingest_reviews(data_dir / "corpus" / "reviews.csv", "csv", [])
    assert len(review_ids) == 20
    assert review_ids[0] == "1"
    assert review_ids == [str(i) for i in range(1, 21)]


def test_ingest_rejects_unknown_format(data_dir):
    with pytest.raises(ValueError):
        ingest_reviews(data_dir / "corpus" / "reviews.csv", "xml", [])


def test_ingest_csv_requires_columns(tmp_path):
    path = tmp_path / "bad.csv"
    for content, line_no in [("a,b\n1,2\n", 1), ("Id\n1\n", 1), ("", 0)]:  # the header's line; 0: an empty file
        path.write_text(content, encoding="utf-8")
        with pytest.raises(InputFileError) as exc:
            ingest_reviews(path, "csv", [])
        assert type(exc.value) is InputFileError
        assert (exc.value.path, exc.value.line_no) == (str(path), line_no)
        assert str(exc.value) == f"{path}:{line_no}: csv must have Id and Text columns"


def test_ingest_csv_field_over_the_csv_limit_names_file_and_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("Id,Text\n1,ok\n2," + "x" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        ingest_reviews(path, "csv", [])
    assert exc.value.path == str(path)
    assert exc.value.line_no == 3


# --- pipeline runs -----------------------------------------------------------

def test_fixture_corpus_stats(data_dir, tmp_path):
    stats, failures = run_fixture_corpus(data_dir, tmp_path / "out")
    assert failures == []
    assert stats.total_reviews == 20
    assert stats.reviews_with_events == 20
    assert stats.valid_dags == 9
    assert stats.invalid_both_needs == 2
    assert stats.invalid_no_need == 9
    assert stats.valid_dags + stats.invalid_both_needs + stats.invalid_no_need == stats.reviews_with_events
    assert stats.pattern_counts == {
        "P1": 1,
        "P2": 9,
        "P3": 1,
        "P4": 1,
        "P5": 1,
        "P6": 1,
        "P7": 1,
        "P8": 1,
        "P9": 1,
        "P10": 2,
        "STATE": 31,
    }
    assert stats.classifier_calls == 14
    assert stats.classifier_cache_hits == 14


def test_pipeline_writes_one_json_per_review_with_events(data_dir, tmp_path):
    out = tmp_path / "out"
    run_fixture_corpus(data_dir, out)
    written = sorted(p.stem for p in out.glob("*.json") if p.stem not in ("index", "stats"))
    assert written == sorted(str(i) for i in range(1, 21))
    index = json.loads((out / "index.json").read_text())
    assert len(index) == 20
    assert sum(1 for e in index if e["valid"]) == 9
    for name in ("index.json", "stats.json"):  # written as json.dumps(..., indent=2) with a final newline
        text = (out / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    umask = os.umask(0)
    os.umask(umask)
    assert {stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} == {0o666 & ~umask}  # the mode open() gives


def test_pipeline_is_deterministic_across_workers(data_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_fixture_corpus(data_dir, out1, workers=1)
    run_fixture_corpus(data_dir, out2, workers=4)
    for path in sorted(out1.iterdir()):
        assert (out2 / path.name).read_bytes() == path.read_bytes()


@pytest.fixture(scope="module")
def fixture_corpus(data_dir):
    reviews = ingest_reviews(data_dir / "corpus" / "reviews.csv", "csv", [])
    return reviews, load_parse_dir(data_dir / "corpus" / "parses", []), load_lexicon(data_dir / "lexicon.tsv")


def run_reviews(corpus, ids, out_dir, workers=1):
    """Run the fixture reviews `ids`, in that order; return their graph bytes and index entries by id."""
    _, parses, lexicon = corpus
    run_pipeline(
        list(ids),
        {i: parses[i] for i in ids},
        default_graph(),
        lexicon,
        make_replay_client(),
        out_dir,
        workers=workers,
        failures=[],
    )
    graphs = {p.stem: p.read_bytes() for p in out_dir.glob("*.json") if p.stem not in ("index", "stats")}
    index = {e["review_id"]: e for e in json.loads((out_dir / "index.json").read_text())}
    return graphs, index


FIXTURE_IDS = [str(i) for i in range(1, 21)]


@pytest.fixture(scope="module")
def full_run(fixture_corpus, tmp_path_factory):
    return run_reviews(fixture_corpus, FIXTURE_IDS, tmp_path_factory.mktemp("full") / "out")


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(st.sampled_from(FIXTURE_IDS), min_size=1, unique=True), workers=st.sampled_from([1, 3]))
def test_review_outputs_do_not_depend_on_the_rest_of_the_batch(fixture_corpus, full_run, ids, workers):
    with tempfile.TemporaryDirectory() as tmp:
        graphs, index = run_reviews(fixture_corpus, ids, Path(tmp) / "out", workers)
    full_graphs, full_index = full_run
    assert graphs == {i: full_graphs[i] for i in ids if i in full_graphs}
    assert index == {i: full_index[i] for i in ids if i in full_index}


def test_empty_corpus_yields_zero_stats(data_dir, tmp_path):
    stats = run_pipeline(
        [],
        {},
        default_graph(),
        load_lexicon(data_dir / "lexicon.tsv"),
        make_replay_client(),
        tmp_path / "out",
        failures=[],
    )
    assert stats.total_reviews == 0
    assert stats.reviews_with_events == 0
    assert stats.valid_dags == 0


ORPHAN_PARSES = {  # form -> the text of 999.conllu, a stray by its name whatever it holds
    "well-formed": (
        (DATA / "corpus" / "parses" / "1.conllu").read_text(encoding="utf-8").replace("# review_id = 1\n", "# review_id = 999\n")
    ),
    "malformed": "1\tfoo\n",
    "empty": "",
}


@pytest.mark.parametrize("form", list(ORPHAN_PARSES))
def test_unknown_parse_review_id_is_quarantined(data_dir, tmp_path, form):
    text = ORPHAN_PARSES[form]
    parse_dir = tmp_path / "parses"
    shutil.copytree(data_dir / "corpus" / "parses", parse_dir)
    (parse_dir / "999.conllu").write_text(text, encoding="utf-8")
    failures = []
    reviews = ingest_reviews(data_dir / "corpus" / "reviews.csv", "csv", failures)
    parses = load_parse_dir(parse_dir, failures)
    out = tmp_path / "out"
    stats = run_pipeline(
        reviews, parses, default_graph(), load_lexicon(data_dir / "lexicon.tsv"), make_replay_client(), out, failures=failures
    )
    assert failures == [("999", "parse file 999.conllu names no ingested or skipped review")]
    assert stats.failed_reviews == 1
    assert len([p for p in out.glob("*.json") if p.stem not in ("index", "stats")]) == 20


def test_an_empty_parse_file_is_a_review_without_sentences(data_dir, tmp_path, monkeypatch):
    parse_dir = tmp_path / "parses"
    shutil.copytree(data_dir / "corpus" / "parses", parse_dir)
    (parse_dir / "5.conllu").write_text("", encoding="utf-8")
    read = {}

    def parse_conllu(path):
        read[Path(path).stem] = sentences = real_parse_conllu(path)
        return sentences

    real_parse_conllu = mea.runner.parse_conllu
    monkeypatch.setattr(mea.runner, "parse_conllu", parse_conllu)
    failures = []
    reviews = ingest_reviews(data_dir / "corpus" / "reviews.csv", "csv", failures)
    parses = load_parse_dir(parse_dir, failures)
    out = tmp_path / "out"
    stats = run_pipeline(
        reviews, parses, default_graph(), load_lexicon(data_dir / "lexicon.tsv"), make_replay_client(), out, failures=failures
    )
    assert read["5"] == []
    assert failures == [] and stats.reviews_with_events == 19
    assert not (out / "5.json").exists()


@pytest.mark.parametrize("mode", ["heuristic", "live"])
def test_each_action_event_is_linked_by_its_own_answer(data_dir, tmp_path, live_client, mode):
    parse = [
        sentence([("The", "the", "DT", 2, "det"), ("pizza", "pizza", "NN", 4, "nsubj"), ("is", "be", "VBZ", 4, "cop"),
                  ("delicious", "delicious", "JJ", 0, "root")]),
        sentence([("I", "i", "PRP", 2, "nsubj"), ("recommend", "recommend", "VBP", 0, "root"), ("it", "it", "PRP", 2, "dobj")]),
        sentence([("I", "i", "PRP", 2, "nsubj"), ("wash", "wash", "VBP", 0, "root"), ("the", "the", "DT", 4, "det"),
                  ("apples", "apple", "NNS", 2, "dobj")]),
    ]
    if mode == "heuristic":
        client = LlmClient(ClientConfig(mode=ClientMode.HEURISTIC))
    else:
        client = live_client(lambda config, prompt: "social" if "recommend" in prompt else "physical", None)
    out = tmp_path / "out"
    parses = write_parses(tmp_path / "parses", {"r": parse})
    run_pipeline(["r"], parses, default_graph(), load_lexicon(data_dir / "lexicon.tsv"), client, out, failures=[])
    doc = json.loads((out / "r.json").read_text(encoding="utf-8"))
    assert {"social_action", "physical_action"} <= set(doc["activated"])
    actions = [(link["event_id"], link["node"], link["justification"]) for link in doc["links"] if link["node"].endswith("_action")]
    assert actions == [
        ("e2", "social_action", {"type": "action_class", "class": "Social"}),
        ("e4", "physical_action", {"type": "action_class", "class": "Physical"}),
    ]


def test_robust_corpus_quarantines_failures(data_dir, tmp_path):
    failures = []
    reviews = ingest_reviews(data_dir / "robust" / "reviews.csv", "csv", failures)
    parses = load_parse_dir(data_dir / "robust" / "parses", failures)
    out = tmp_path / "out"
    stats = run_pipeline(
        reviews,
        parses,
        default_graph(),
        load_lexicon(data_dir / "lexicon.tsv"),
        make_replay_client(),
        out,
        failures=failures,
    )
    assert sorted(rid for rid, _ in failures) == ["2", "3"]
    assert stats.failed_reviews == 2
    assert stats.valid_dags == 2
    log_lines = (out / "failures.log").read_text().splitlines()
    assert len(log_lines) == 2


def run_csv_corpus(data_dir, root, rows, parses):
    """Run rows of (Id, Text) with parses {file stem: review id}, each a copy of review 1's parse."""
    (root / "reviews.csv").write_text(
        "Id,Text\n" + "".join(f'"{rid}","{text}"\n' for rid, text in rows), encoding="utf-8"
    )
    (root / "parses").mkdir()
    parse_1 = (data_dir / "corpus" / "parses" / "1.conllu").read_text(encoding="utf-8")
    for stem, review_id in parses.items():
        text = parse_1.replace("# review_id = 1\n", f"# review_id = {review_id}\n")
        (root / "parses" / f"{stem}.conllu").write_text(text, encoding="utf-8")
    failures = []
    reviews = ingest_reviews(root / "reviews.csv", "csv", failures)
    stats = run_pipeline(
        reviews,
        load_parse_dir(root / "parses", failures),
        default_graph(),
        load_lexicon(data_dir / "lexicon.tsv"),
        make_replay_client(),
        root / "run" / "out",
        failures=failures,
    )
    return stats, failures


def test_unsafe_csv_ids_are_quarantined_inside_out_dir(data_dir, tmp_path):
    unsafe = ["../escaped", "..", ".", "a\\b", "tab\there", "bell\x07"]
    rows = [("1", "I bought this brand.")] + [(rid, "I bought this brand.") for rid in unsafe]
    parses = {"1": "1"}  # an unsafe id can have no parse: its file would have to be named after it
    stats, failures = run_csv_corpus(data_dir, tmp_path, rows, parses)
    out = tmp_path / "run" / "out"
    outside = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p != out and out not in p.parents}
    assert outside == {"reviews.csv", "parses", "run"} | {f"parses/{stem}.conllu" for stem in parses}
    assert [rid for rid, _ in failures] == unsafe
    assert all("Id must not be" in reason for _, reason in failures)
    assert sorted(p.name for p in out.iterdir()) == ["1.json", "failures.log", "index.json", "stats.json"]
    assert stats.total_reviews == 1
    assert stats.failed_reviews == len(unsafe)


def test_a_parse_file_cannot_add_sentences_to_another_review(data_dir, tmp_path):
    rows = [("1", "I bought this brand."), ("2", "I bought this brand.")]
    (tmp_path / "alone").mkdir()
    (tmp_path / "lying").mkdir()
    run_csv_corpus(data_dir, tmp_path / "alone", rows, {"1": "1"})
    stats, failures = run_csv_corpus(data_dir, tmp_path / "lying", rows, {"1": "1", "2": "1"})
    lying = tmp_path / "lying" / "parses" / "2.conllu"
    assert failures == [("2", f"parse error: {lying}:1: review_id '1' does not match the file name")]
    assert stats.failed_reviews == 1
    graph_1 = (tmp_path / "lying" / "run" / "out" / "1.json").read_bytes()
    assert graph_1 == (tmp_path / "alone" / "run" / "out" / "1.json").read_bytes()


def test_a_row_without_an_id_does_not_hide_a_review_of_any_id(data_dir, tmp_path):
    rows = [("", "I eat."), ("<missing id>", "I eat bread.")]
    stats, failures = run_csv_corpus(data_dir, tmp_path, rows, {})
    assert failures == [("", "missing Id value"), ("<missing id>", "no parse file")]
    assert (stats.total_reviews, stats.failed_reviews) == (1, 2)
    log_lines = (tmp_path / "run" / "out" / "failures.log").read_text(encoding="utf-8").splitlines()
    assert log_lines == ["\tmissing Id value", "<missing id>\tno parse file"]


def test_every_row_of_a_duplicated_csv_id_is_quarantined(data_dir, tmp_path):
    rows = [("7", "I bought this brand."), ("8", "I bought this brand."), ("7", "Another text.")]
    stats, failures = run_csv_corpus(data_dir, tmp_path, rows, {"7": "7", "8": "8"})
    assert failures == [("7", "Id appears in 2 rows"), ("7", "Id appears in 2 rows")]
    assert stats.total_reviews == 1
    assert stats.failed_reviews == 2
    out = tmp_path / "run" / "out"
    assert not (out / "7.json").exists()
    assert json.loads((out / "8.json").read_text())["review_id"] == "8"
    assert (out / "failures.log").read_text().splitlines() == ["7\tId appears in 2 rows"] * 2


def test_csv_ids_naming_a_run_file_are_quarantined(data_dir, tmp_path):
    rows = [(rid, "I bought this brand.") for rid in ("index", "stats", "failures")]
    stats, failures = run_csv_corpus(data_dir, tmp_path, rows, {rid: rid for rid, _ in rows})
    assert failures == [("index", "Id names the run's own index.json"), ("stats", "Id names the run's own stats.json")]
    assert (stats.total_reviews, stats.reviews_with_events, stats.failed_reviews) == (1, 1, 2)
    out = tmp_path / "run" / "out"
    assert sorted(p.name for p in out.iterdir()) == ["failures.json", "failures.log", "index.json", "stats.json"]
    assert json.loads((out / "failures.json").read_text())["review_id"] == "failures"
    assert [e["review_id"] for e in json.loads((out / "index.json").read_text())] == ["failures"]
    assert json.loads((out / "stats.json").read_text())["failed_reviews"] == 2


def test_failures_log_has_one_line_per_failure(data_dir, tmp_path):
    unsafe = ["a\nb", "tab\there", "c\x851", "bell\x07"]
    rows = [("1", "I bought this brand.")] + [(rid, "I bought this brand.") for rid in unsafe]
    stats, failures = run_csv_corpus(data_dir, tmp_path, rows, {"1": "1"})
    assert [rid for rid, _ in failures] == unsafe
    log_lines = (tmp_path / "run" / "out" / "failures.log").read_text(encoding="utf-8").splitlines()
    escaped = ["a\\x0ab", "tab\\x09here", "c\\x851", "bell\\x07"]
    assert log_lines == [f"{rid}\t{reason}" for rid, (_, reason) in zip(escaped, failures)]


def test_failures_log_escapes_the_unicode_line_and_paragraph_separators(data_dir, tmp_path):
    ids = ["a\u2028b", "c\u2029d", "a\u2028b", "c\u2029d"]  # safe in a file name, so quarantined as repeated Ids
    stats, failures = run_csv_corpus(data_dir, tmp_path, [(rid, "I bought this brand.") for rid in ids], {})
    assert failures == [(rid, "Id appears in 2 rows") for rid in ids]
    log_lines = (tmp_path / "run" / "out" / "failures.log").read_text(encoding="utf-8").splitlines()
    assert log_lines == [f"{rid}\tId appears in 2 rows" for rid in ["a\\u2028b", "c\\u2029d", "a\\u2028b", "c\\u2029d"]]


_ID_CHARS = (
    st.sampled_from([".", "/", "\\", "\t", "\x07", "\x85"])
    | st.characters(categories=["L"], min_codepoint=0x80)
    | st.characters(categories=["Nd"])
)


@settings(max_examples=30, deadline=None)
@given(
    ids=st.lists(st.text(_ID_CHARS, min_size=1, max_size=8) | st.sampled_from(["index", "stats", "failures"]), min_size=1, max_size=4),
    # Stems of parse files beside the ids' own: strays, dot-files and names no id has.
    stems=st.lists(st.text(_ID_CHARS.filter(lambda c: c != "/"), max_size=8) | st.sampled_from([".hidden", "..", "."]), max_size=3),
)
@example(ids=["../up", "a\\b", "..", "\x85x"], stems=[])  # random ids seldom climb out, so one always tries
@example(ids=["index", "stats", "failures"], stems=[])  # the ids whose <id>.json a run writes for itself, and one it does not
@example(ids=["1"], stems=["..", ".", "", ".hidden"])  # the files ...conllu, ..conllu, .conllu and .hidden.conllu
def test_no_csv_id_makes_the_run_write_outside_out_dir(lexicon, ids, stems):
    parse_1 = (DATA / "corpus" / "parses" / "1.conllu").read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with open(root / "reviews.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["Id", "Text"]] + [[rid, "I bought this brand."] for rid in ids])
        (root / "parses").mkdir()
        inputs = {"reviews.csv", "parses"}
        # A parse is named after its id, so no id holding / can have one, nor one that no
        # review_id comment can carry. A drawn stem that names no id's file is a stray.
        own = [rid for rid in ids if "/" not in rid and len(rid.splitlines()) == 1 and rid == rid.strip()]
        for stem in own + [stem for stem in stems if stem not in own]:
            text = parse_1.replace("# review_id = 1\n", f"# review_id = {stem}\n")
            (root / "parses" / f"{stem}.conllu").write_text(text, encoding="utf-8")
            inputs.add(f"parses/{stem}.conllu")
        out = root / "run" / "deep" / "out"  # an id of 8 characters climbs at most 3 levels: still under root
        failures, read = [], []

        def parse_conllu(path):
            read.append(path)
            return real_parse_conllu(path)

        real_parse_conllu = mea.runner.parse_conllu
        reviews = ingest_reviews(root / "reviews.csv", "csv", failures)
        parses = load_parse_dir(root / "parses", failures)
        with mock.patch.object(mea.runner, "parse_conllu", parse_conllu):
            run_pipeline(reviews, parses, default_graph(), lexicon, make_replay_client(), out, write_dot=True, failures=failures)
        written = {p.relative_to(root).as_posix() for p in root.rglob("*") if out not in p.parents}
        assert written == inputs | {"run", "run/deep", "run/deep/out"}
        # The run reads each ingested review's own file once, and no other.
        assert sorted(read) == sorted(str(path) for rid in reviews if (path := root / "parses" / f"{rid}.conllu").is_file())
        for review_id in reviews:  # each graph is its own review's, not overwritten by a run file
            if review_id in parses:
                assert json.loads((out / f"{review_id}.json").read_text(encoding="utf-8"))["review_id"] == review_id


def test_non_utf8_parse_file_quarantines_only_its_review(data_dir, tmp_path):
    parse_1 = (data_dir / "corpus" / "parses" / "1.conllu").read_bytes()
    (tmp_path / "1.conllu").write_bytes(parse_1)
    (tmp_path / "2.conllu").write_bytes(
        b"# review_id = 2\n"
        b"1\tI\ti\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"
        b"2\tate\teat\tVERB\tVBD\t_\t0\troot\t_\t_\n"
        b"3\tcr\xe8pes\tcr\xe8pe\tNOUN\tNNS\t_\t2\tdobj\t_\t_\n"
    )
    failures = []
    out = tmp_path / "out"
    run_pipeline(
        ["1", "2"], load_parse_dir(tmp_path, failures), default_graph(), load_lexicon(data_dir / "lexicon.tsv"),
        make_replay_client(), out, failures=failures,
    )
    assert sorted(p.stem for p in out.glob("*.json")) == ["1", "index", "stats"]
    assert failures == [("2", f"parse error: {tmp_path / '2.conllu'}:4: not valid UTF-8")]


def test_listing_parse_files_reads_none_of_them(tmp_path, monkeypatch):
    monkeypatch.setattr(mea.runner, "parse_conllu", lambda path: pytest.fail(f"{path} was read"))
    (tmp_path / "malformed.conllu").write_text("1\tfoo\n", encoding="utf-8")
    (tmp_path / "non-utf8.conllu").write_bytes(b"# review_id = \xff\n")
    (tmp_path / "other.conllu").write_text("# review_id = 1\n", encoding="utf-8")
    (tmp_path / "directory.conllu").mkdir()
    (tmp_path / "dangling.conllu").symlink_to(tmp_path / "nowhere.conllu")
    failures = []
    names = ["dangling", "directory", "malformed", "non-utf8", "other"]
    assert load_parse_dir(tmp_path, failures) == {stem: str(tmp_path / f"{stem}.conllu") for stem in names}
    assert failures == []


def test_the_parse_listing_selects_and_orders_as_glob_does(data_dir, tmp_path):
    """Every name glob("*.conllu") matches, dot-files included and case-sensitive, sorted by name."""
    parse_1 = (data_dir / "corpus" / "parses" / "1.conllu").read_text(encoding="utf-8")
    for name in ["b.conllu", "B.conllu", ".c.conllu", "a b.conllu", "a.conllu", "x.CONLLU", "y.conllu.bak", "z.txt"]:
        stem = name.split(".conllu")[0] if name.endswith(".conllu") else "other"
        (tmp_path / name).write_text(parse_1.replace("# review_id = 1\n", f"# review_id = {stem}\n"), encoding="utf-8")
    failures = []
    assert list(load_parse_dir(tmp_path, failures)) == [p.stem for p in sorted(tmp_path.glob("*.conllu"))]
    assert list(load_parse_dir(tmp_path, failures)) == [".c", "B", "a b", "a", "b"]  # by file name: " " sorts below "."
    assert failures == []


def test_a_rerun_replaces_longer_outputs_byte_for_byte(data_dir, tmp_path):
    out = tmp_path / "out"
    run_fixture_corpus(data_dir, out)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    for path in out.iterdir():
        path.write_bytes(path.read_bytes() * 2 + b"stale")
    run_fixture_corpus(data_dir, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_the_pipeline_decides_each_action_events_tense_once(data_dir, tmp_path, monkeypatch):
    """classify_tense runs once per non-STATE event: needs_classifier and link_actions reuse its answer."""
    decided = []
    real_classify_tense = mea.extraction.classify_tense

    def classify_tense(event):
        decided.append(event.pattern_id)
        return real_classify_tense(event)

    monkeypatch.setattr(mea.extraction, "classify_tense", classify_tense)
    stats, failures = run_fixture_corpus(data_dir, tmp_path / "out")
    assert failures == []
    action_events = sum(count for pattern_id, count in stats.pattern_counts.items() if pattern_id != "STATE")
    assert len(decided) == action_events == 19
    assert "STATE" not in decided


# --- sampling ----------------------------------------------------------------

def make_index(n_valid=20, n_invalid=5):
    entries = [
        {"review_id": f"v{i:02}", "sentence_count": (i % 8) + 1, "valid": True} for i in range(n_valid)
    ]
    entries += [
        {"review_id": f"x{i:02}", "sentence_count": 3, "valid": False} for i in range(n_invalid)
    ]
    return entries


def test_sample_is_reproducible():
    index = make_index()
    a = sample_for_evaluation(index, 10, seed=42)
    b = sample_for_evaluation(index, 10, seed=42)
    assert a == b
    c = sample_for_evaluation(index, 10, seed=43)
    assert c != a


def test_sample_only_draws_valid_entries():
    manifest = sample_for_evaluation(make_index(), 20, seed=1)
    assert all(e["review_id"].startswith("v") for e in manifest["entries"])


def test_sample_rejects_oversized_requests():
    with pytest.raises(ValueError, match="requested 6 samples but only 5 valid graphs exist"):
        sample_for_evaluation(make_index(n_valid=5), 6, seed=1)


def test_sample_split_boundary():
    index = [
        {"review_id": "a", "sentence_count": 4, "valid": True},
        {"review_id": "b", "sentence_count": 5, "valid": True},
    ]
    manifest = sample_for_evaluation(index, 2, seed=0)
    splits = {e["review_id"]: e["split"] for e in manifest["entries"]}
    assert splits == {"a": "short", "b": "long"}


def test_sampling_is_uniform():
    index = make_index(n_valid=20, n_invalid=0)
    counts = Counter()
    trials = 2000
    for seed in range(trials):
        for entry in sample_for_evaluation(index, 10, seed=seed)["entries"]:
            counts[entry["review_id"]] += 1
    for review_id in (e["review_id"] for e in index):
        assert abs(counts[review_id] / trials - 0.5) < 0.05


# --- reporting ---------------------------------------------------------------

def manifest_with(annotations_by_sample):
    entries = []
    for i, (split, annotations) in enumerate(annotations_by_sample):
        entries.append(
            {
                "review_id": f"r{i}",
                "sentence_count": 2 if split == "short" else 7,
                "split": split,
                "annotations": [{"error_type": t, "note": ""} for t in annotations],
            }
        )
    return {"seed": 0, "n": len(entries), "entries": entries}


def test_report_empty_annotations():
    manifest = manifest_with([("short", []), ("long", [])])
    report = report_errors(manifest)
    assert report["samples"]["total"]["incorrect"] == 0
    assert report["errors"]["total"]["count"] == 0
    assert report["errors"]["total"]["by_type"]["WrongBelief"]["pct"] == 0.0


def test_report_counts_multi_error_samples_once():
    manifest = manifest_with([("short", ["EventLinkingLoss", "WrongBelief"]), ("short", [])])
    report = report_errors(manifest)
    assert report["samples"]["total"]["incorrect"] == 1
    assert report["errors"]["total"]["count"] == 2


def test_report_rejects_unknown_error_types():
    manifest = manifest_with([("short", ["GremlinsAteIt"])])
    with pytest.raises(ReportValidationError) as exc:
        report_errors(manifest)
    assert exc.value.offenders == ["GremlinsAteIt"]


def test_report_rejects_unknown_splits():
    manifest = manifest_with([("short", []), ("Long", []), ("long", [])])
    with pytest.raises(ReportValidationError, match="^unknown splits: Long$") as exc:
        report_errors(manifest)
    assert exc.value.offenders == ["Long"]


def test_report_percentages_sum_to_100():
    manifest = manifest_with(
        [("short", [t]) for t in ERROR_TYPES] + [("long", [t]) for t in ERROR_TYPES[:3]]
    )
    report = report_errors(manifest)
    for column in ("total", "short", "long"):
        total = sum(v["pct"] for v in report["errors"][column]["by_type"].values())
        assert abs(total - 100.0) <= 0.1 + 1e-9


def test_render_report_layout():
    manifest = manifest_with([("short", ["NegationLoss"]), ("long", [])])
    text = render_report(report_errors(manifest))
    assert "Negation Loss" in text
    assert "Short-Test" in text and "Long-Test" in text
    lines = text.splitlines()
    assert lines[:4] == [
        " " * 32 + "Test".rjust(17) + "Short-Test".rjust(17) + "Long-Test".rjust(17),
        "Sample  Incorrect".ljust(32) + "       1    50.0%       1   100.0%       0     0.0%",
        "        Total".ljust(32) + "       2   100.0%       1   100.0%       1   100.0%",
        "-" * 83,
    ]
    assert {len(line) for line in lines} == {83}


# --- live classification: each distinct miss requested once, requests overlapped ---

def classifier_texts(parses):
    """The texts each review asks the classifier about: its non-STATE, non-past events, in order."""
    return {
        review_id: [
            event.text
            for s in parse_conllu(path)
            for event in extract_events(s)
            if event.pattern_id != "STATE" and classify_tense(event) is not Tense.PAST
        ]
        for review_id, path in parses.items()
    }


class FixtureTransport:
    """Answers live prompts with the replay fixture's responses and records every prompt.

    The first `together` requests wait for each other on a barrier, so they
    only succeed when that many are in flight at once.
    """

    def __init__(self, together=1, fail=(), raw=None):
        template = load_template("classify_action")
        entries = [json.loads(line) for line in (DATA / "replay_classifier.jsonl").read_text().splitlines()]
        self.answers = {template.render(e["input"]): e["raw_response"] for e in entries}
        self.answers.update({template.render(text): response for text, response in (raw or {}).items()})
        self.failing = {template.render(text) for text in fail}
        self.barrier = threading.Barrier(together, timeout=5)
        self.lock = threading.Lock()
        self.prompts = []

    def __call__(self, config, prompt):
        with self.lock:
            self.prompts.append(prompt)
            first = len(self.prompts) <= self.barrier.parties
        if first:
            self.barrier.wait()
        if prompt in self.failing:
            raise LlmTransportError("endpoint refused the request")
        return self.answers[prompt]


def run_with_client(corpus, client, out_dir, workers):
    reviews, parses, lexicon = corpus
    failures = []
    stats = run_pipeline(reviews, parses, default_graph(), lexicon, client, out_dir, workers=workers, failures=failures)
    graphs = {p.stem: p.read_bytes() for p in out_dir.glob("*.json") if p.stem not in ("index", "stats")}
    return stats, failures, graphs


@pytest.fixture()
def live_client(monkeypatch):
    """Makes live clients whose transport errors are not retried."""
    monkeypatch.setattr(mea.llm, "RETRIES", 0)
    return lambda transport, cache_path: LlmClient(ClientConfig(mode=ClientMode.LIVE, cache_path=cache_path), transport=transport)


@pytest.mark.parametrize("workers", [1, 3])
def test_live_run_requests_each_distinct_miss_once_with_requests_in_flight_together(
    fixture_corpus, full_run, tmp_path, live_client, workers
):
    distinct = {text for texts in classifier_texts(fixture_corpus[1]).values() for text in texts}
    transport = FixtureTransport(together=min(MAX_IN_FLIGHT, len(distinct)))
    cache = tmp_path / "cache.jsonl"
    stats, failures, graphs = run_with_client(fixture_corpus, live_client(transport, cache), tmp_path / "out", workers)
    assert failures == []
    assert not transport.barrier.broken
    template = load_template("classify_action")
    assert sorted(transport.prompts) == sorted(template.render(text) for text in distinct)
    assert len(cache.read_text(encoding="utf-8").splitlines()) == len(transport.prompts)
    full_graphs, full_index = full_run
    assert graphs == full_graphs
    assert {e["review_id"]: e for e in json.loads((tmp_path / "out" / "index.json").read_text())} == full_index
    assert stats.classifier_calls == 14
    assert stats.classifier_cache_hits == stats.classifier_calls - len(transport.prompts)


def test_live_run_with_few_open_reviews_requests_each_text_once(fixture_corpus, full_run, tmp_path, monkeypatch, live_client):
    monkeypatch.setattr(mea.runner, "OPEN_REVIEWS", 3)  # "I buy it" (reviews 4 and 20) is never open twice at once
    distinct = {text for texts in classifier_texts(fixture_corpus[1]).values() for text in texts}
    transport = FixtureTransport()
    stats, failures, graphs = run_with_client(
        fixture_corpus, live_client(transport, tmp_path / "cache.jsonl"), tmp_path / "out", workers=2
    )
    assert failures == []
    assert sorted(transport.prompts) == sorted(load_template("classify_action").render(text) for text in distinct)
    assert graphs == full_run[0]
    assert (stats.classifier_calls, stats.classifier_cache_hits) == (14, 14 - len(distinct))


@pytest.mark.parametrize("workers", [1, 2])
def test_reviews_finish_while_another_waits_on_the_endpoint(
    fixture_corpus, full_run, tmp_path, monkeypatch, live_client, workers
):
    monkeypatch.setattr(mea.runner, "OPEN_REVIEWS", 3)
    full_graphs, _ = full_run
    others = len(full_graphs) - len(reviews_holding(fixture_corpus, FAILING_TEXT))
    written, others_written = [], threading.Event()

    def dumps_dag(dag):
        written.append(dag)
        if len(written) == others:
            others_written.set()
        return real_dumps_dag(dag)

    real_dumps_dag = mea.runner.dumps_dag
    monkeypatch.setattr(mea.runner, "dumps_dag", dumps_dag)
    fixture = FixtureTransport()
    slow_prompt = load_template("classify_action").render(FAILING_TEXT)
    waited = []

    def transport(config, prompt):
        if prompt == slow_prompt:  # answered only once every review without its text is written
            waited.append(others_written.wait(timeout=10))
        return fixture(config, prompt)

    stats, failures, graphs = run_with_client(
        fixture_corpus, live_client(transport, tmp_path / "cache.jsonl"), tmp_path / "out", workers
    )
    assert waited == [True]
    assert failures == []
    assert graphs == full_graphs


@pytest.mark.parametrize("workers", [1, 3])
def test_every_graph_is_written_in_the_calling_thread(data_dir, tmp_path, monkeypatch, workers):
    threads = []

    def dumps_dag(dag):
        threads.append(threading.get_ident())
        return real_dumps_dag(dag)

    real_dumps_dag = mea.runner.dumps_dag
    monkeypatch.setattr(mea.runner, "dumps_dag", dumps_dag)
    run_fixture_corpus(data_dir, tmp_path / "out", workers)
    assert threads == [threading.get_ident()] * 20


@pytest.mark.parametrize("workers", [1, 3])
def test_prepared_reviews_never_outnumber_open_reviews(
    fixture_corpus, full_run, tmp_path, monkeypatch, live_client, workers
):
    monkeypatch.setattr(mea.runner, "OPEN_REVIEWS", 2)
    lock, prepared, peak, gate = threading.Lock(), [0], [0], threading.Event()

    def prepare_mea_dag(*args, **kwargs):
        result = real_prepare(*args, **kwargs)
        with lock:
            prepared[0] += 1
            peak[0] = max(peak[0], prepared[0])
            if prepared[0] > mea.runner.OPEN_REVIEWS:  # over the bound already: answer the requests
                gate.set()
        return result

    def finish_mea_dag(*args, **kwargs):
        with lock:
            prepared[0] -= 1
        return real_finish(*args, **kwargs)

    real_prepare, real_finish = mea.runner.prepare_mea_dag, mea.runner.finish_mea_dag
    monkeypatch.setattr(mea.runner, "prepare_mea_dag", prepare_mea_dag)
    monkeypatch.setattr(mea.runner, "finish_mea_dag", finish_mea_dag)
    fixture = FixtureTransport()

    def transport(config, prompt):
        if not gate.wait(timeout=1):  # held so that prepared reviews pile up while none is answered
            gate.set()
        return fixture(config, prompt)

    stats, failures, graphs = run_with_client(
        fixture_corpus, live_client(transport, tmp_path / "cache.jsonl"), tmp_path / "out", workers
    )
    assert failures == []
    assert graphs == full_run[0]
    assert prepared == [0]
    assert peak == [2]


# --- classifier failures quarantine or skip only what they name ---------------

FAILING_TEXT = "I buy it"  # held by reviews 4 and 20


def reviews_holding(corpus, text):
    """The ids of the reviews whose action events ask the classifier about text, in review order."""
    reviews, parses, _ = corpus
    texts = classifier_texts(parses)
    return [review_id for review_id in reviews if text in texts[review_id]]


def test_transport_error_quarantines_only_the_reviews_holding_its_text(fixture_corpus, full_run, tmp_path, live_client):
    transport = FixtureTransport(fail={FAILING_TEXT})
    client = live_client(transport, tmp_path / "cache.jsonl")
    stats, failures, graphs = run_with_client(fixture_corpus, client, tmp_path / "out", workers=3)
    holding = reviews_holding(fixture_corpus, FAILING_TEXT)
    assert holding == ["4", "20"]
    assert failures == [(rid, "pipeline error: endpoint refused the request") for rid in holding]
    assert stats.failed_reviews == 2
    full_graphs, _ = full_run
    assert graphs == {rid: g for rid, g in full_graphs.items() if rid not in holding}


def test_pipeline_errors_are_logged_in_review_order_when_a_later_review_fails_first(
    data_dir, tmp_path, monkeypatch, live_client
):
    def parse(verb):
        return [sentence([("I", "i", "PRP", 2, "nsubj"), (verb, verb, "VBP", 0, "root"), ("it", "it", "PRP", 2, "dobj")])]

    later_finished, real_finish = threading.Event(), mea.runner.finish_mea_dag

    def finish_mea_dag(dag, *args):
        try:
            return real_finish(dag, *args)
        finally:
            if dag.review_id == "fast":
                later_finished.set()

    monkeypatch.setattr(mea.runner, "finish_mea_dag", finish_mea_dag)
    slow_prompt, waited = load_template("classify_action").render("I juggle it"), []

    def transport(config, prompt):
        if prompt == slow_prompt:  # the earlier review fails only once the later one has
            waited.append(later_finished.wait(timeout=10))
            raise LlmTransportError("slow refusal")
        raise LlmTransportError("fast refusal")

    failures = []
    reviews = ["slow", "fast"]
    parses = write_parses(tmp_path / "parses", {"slow": parse("juggle"), "fast": parse("whistle")})
    out = tmp_path / "out"
    client = live_client(transport, None)
    run_pipeline(reviews, parses, default_graph(), load_lexicon(data_dir / "lexicon.tsv"), client, out, failures=failures)
    assert waited == [True]
    assert failures == [("slow", "pipeline error: slow refusal"), ("fast", "pipeline error: fast refusal")]
    assert (out / "failures.log").read_text(encoding="utf-8").splitlines() == [
        "slow\tpipeline error: slow refusal",
        "fast\tpipeline error: fast refusal",
    ]


def test_unparseable_verdict_skips_only_its_event(fixture_corpus, full_run, tmp_path, live_client):
    transport = FixtureTransport(raw={FAILING_TEXT: "banana"})
    client = live_client(transport, tmp_path / "cache.jsonl")
    stats, failures, graphs = run_with_client(fixture_corpus, client, tmp_path / "out", workers=3)
    assert failures == []
    full_graphs, _ = full_run
    holding = reviews_holding(fixture_corpus, FAILING_TEXT)
    for rid, full in full_graphs.items():
        doc, expected = json.loads(graphs[rid]), json.loads(full)
        if rid in holding:
            (skipped,) = [e["id"] for e in expected["events"] if e["text"] == FAILING_TEXT]
            expected["links"] = [link for link in expected["links"] if link["event_id"] != skipped]
            expected["unlinked_events"] = [e for e in expected["unlinked_events"] if e != skipped]
            assert skipped not in {link["event_id"] for link in doc["links"]} | set(doc["unlinked_events"])
        assert doc == expected


def test_replay_miss_quarantines_only_the_reviews_holding_its_text(fixture_corpus, full_run, tmp_path):
    fixture = tmp_path / "fixture.jsonl"
    lines = (DATA / "replay_classifier.jsonl").read_text(encoding="utf-8").splitlines()
    fixture.write_text("".join(l + "\n" for l in lines if json.loads(l)["input"] != FAILING_TEXT), encoding="utf-8")
    client = LlmClient(ClientConfig(mode=ClientMode.REPLAY, fixture_path=fixture))
    stats, failures, graphs = run_with_client(fixture_corpus, client, tmp_path / "out", workers=3)
    holding = reviews_holding(fixture_corpus, FAILING_TEXT)
    assert [rid for rid, _ in failures] == holding
    assert all(reason.startswith("pipeline error: no fixture entry for template='classify_action'") for _, reason in failures)
    full_graphs, _ = full_run
    assert graphs == {rid: g for rid, g in full_graphs.items() if rid not in holding}


def test_interrupted_live_run_stops_without_finishing_the_corpus(fixture_corpus, tmp_path, monkeypatch, live_client):
    monkeypatch.setattr(mea.runner, "OPEN_REVIEWS", 1)  # the run soon waits until a waiting review is answered
    tallying = []

    def dumps_dag(dag):
        if threading.get_ident() in tallying:  # the first review that waited on the endpoint
            raise KeyboardInterrupt
        return real_dumps_dag(dag)

    real_dumps_dag = mea.runner.dumps_dag
    monkeypatch.setattr(mea.runner, "dumps_dag", dumps_dag)
    raised = []

    def run():
        tallying.append(threading.get_ident())
        try:
            run_with_client(fixture_corpus, live_client(FixtureTransport(), tmp_path / "cache.jsonl"), tmp_path / "out", 2)
        except KeyboardInterrupt:
            raised.append(True)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=20)
    assert not runner.is_alive()
    assert raised == [True]
