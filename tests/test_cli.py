import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA
from mea.cli import main
from mea.extraction import extract_events, parse_conllu
from mea.llm import load_template


def run_args(out_dir, classifier="replay"):
    args = [
        "run",
        "--reviews", str(DATA / "corpus" / "reviews.csv"),
        "--format", "csv",
        "--parses", str(DATA / "corpus" / "parses"),
        "--lexicon", str(DATA / "lexicon.tsv"),
        "--classifier", classifier,
        "--out", str(out_dir),
    ]
    if classifier == "replay":
        args += ["--replay-fixture", str(DATA / "replay_classifier.jsonl")]
    return args


def test_run_sample_report_chain(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(run_args(out)) == 0

    manifest_path = tmp_path / "manifest.json"
    assert main(["sample", "--index", str(out), "--n", "5", "--seed", "3", "--out", str(manifest_path)]) == 0
    manifest_text = manifest_path.read_text()
    manifest = json.loads(manifest_text)
    assert manifest_text == json.dumps(manifest, indent=2) + "\n"
    assert len(manifest["entries"]) == 5
    manifest["entries"][0]["annotations"].append({"error_type": "NegationLoss", "note": "missed cue"})
    manifest_path.write_text(json.dumps(manifest))

    report_path = tmp_path / "report.json"
    assert main(["report", "--manifest", str(manifest_path), "--out", str(report_path)]) == 0
    report_text = report_path.read_text()
    report = json.loads(report_text)
    assert report_text == json.dumps(report, indent=2) + "\n"
    assert report["samples"]["total"]["incorrect"] == 1
    rendered = capsys.readouterr().out
    assert "Negation Loss" in rendered


def test_run_with_dot(tmp_path):
    out = tmp_path / "out"
    assert main(run_args(out) + ["--dot"]) == 0
    assert (out / "1.dot").exists()


def test_run_heuristic_mode_needs_no_fixture(tmp_path):
    assert main(run_args(tmp_path / "out", classifier="heuristic")) == 0


def test_missing_reviews_file_is_fatal(tmp_path):
    assert (
        main(
            [
                "run",
                "--reviews", str(tmp_path / "missing.csv"),
                "--format", "csv",
                "--parses", str(DATA / "corpus" / "parses"),
                "--lexicon", str(DATA / "lexicon.tsv"),
                "--classifier", "heuristic",
                "--out", str(tmp_path / "out"),
            ]
        )
        == 1
    )


def test_missing_parses_directory_is_fatal(tmp_path, caplog):
    args = run_args(tmp_path / "out", classifier="heuristic")
    args[args.index("--parses") + 1] = str(tmp_path / "no-such-dir")
    assert main(args) == 1
    assert "no-such-dir:0: not a directory" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("form", ["well-formed", "malformed", "empty"])
def test_parse_file_naming_no_review_is_quarantined_and_named(tmp_path, form):
    parses = tmp_path / "parses"
    shutil.copytree(DATA / "corpus" / "parses", parses)
    orphan = parses / "999.conllu"
    if form == "well-formed":
        well_formed = (parses / "1.conllu").read_text(encoding="utf-8").replace("# review_id = 1\n", "# review_id = 999\n")
        orphan.write_text(well_formed, encoding="utf-8")
    elif form == "malformed":
        orphan.write_text("1\tfoo\n", encoding="utf-8")
    else:
        orphan.write_text("", encoding="utf-8")
    reason = "parse file 999.conllu names no ingested or skipped review"  # by its name: the file is never read
    out = tmp_path / "out"
    args = run_args(out)
    args[args.index("--parses") + 1] = str(parses)
    assert main(args) == 2
    assert (out / "failures.log").read_text(encoding="utf-8").splitlines() == [f"999\t{reason}"]
    graphs = sorted(int(p.stem) for p in out.glob("*.json") if p.stem not in ("index", "stats"))
    assert graphs == list(range(1, 21))


@pytest.mark.parametrize("entry, reason", [("directory", "Is a directory"), ("dangling link", "No such file or directory")])
def test_an_unreadable_parse_entry_quarantines_only_its_review(tmp_path, entry, reason):
    parses = tmp_path / "parses"
    shutil.copytree(DATA / "corpus" / "parses", parses)
    (parses / "5.conllu").unlink()
    if entry == "directory":
        (parses / "5.conllu").mkdir()
    else:
        (parses / "5.conllu").symlink_to(tmp_path / "nowhere.conllu")
    out = tmp_path / "out"
    args = run_args(out)
    args[args.index("--parses") + 1] = str(parses)
    assert main(args) == 2
    graphs = sorted(int(p.stem) for p in out.glob("*.json") if p.stem not in ("index", "stats"))
    assert graphs == [i for i in range(1, 21) if i != 5]
    failures = (out / "failures.log").read_text(encoding="utf-8").splitlines()
    assert failures == [f"5\tparse error: {parses / '5.conllu'}:0: {reason}"]


@pytest.mark.parametrize("malformed_3", [False, True], ids=["missing", "missing-and-malformed"])
def test_a_review_without_a_parse_file_is_quarantined_once(tmp_path, malformed_3):
    rows = (DATA / "robust" / "reviews.csv").read_text(encoding="utf-8").splitlines()
    reviews = tmp_path / "reviews.csv"
    reviews.write_text("".join(row + "\n" for row in rows if row.split(",")[0] in ("Id", "1", "3", "4")), encoding="utf-8")
    parses = tmp_path / "parses"
    parses.mkdir()
    for stem in ["1", "3"] if malformed_3 else ["1"]:
        shutil.copy(DATA / "robust" / "parses" / f"{stem}.conllu", parses)
    out = tmp_path / "out"
    args = run_args(out, classifier="heuristic")
    args[args.index("--reviews") + 1] = str(reviews)
    args[args.index("--parses") + 1] = str(parses)
    assert main(args) == 2
    # A review whose parse file fails to parse keeps its one parse error line, after every "no parse file".
    if malformed_3:
        lines = ["4\tno parse file", f"3\tparse error: {parses / '3.conllu'}:2: token 1 has dangling head 9"]
    else:
        lines = ["3\tno parse file", "4\tno parse file"]
    assert (out / "failures.log").read_text(encoding="utf-8").splitlines() == lines
    assert json.loads((out / "stats.json").read_text(encoding="utf-8"))["failed_reviews"] == 2
    assert (out / "1.json").exists()


def test_non_utf8_reviews_file_is_fatal_with_file_and_line(tmp_path, caplog):
    reviews = tmp_path / "reviews.csv"
    reviews.write_bytes("Id,Text\n1,caf\u00e9 au lait\n".encode("latin-1"))
    args = run_args(tmp_path / "out", classifier="heuristic")
    args[args.index("--reviews") + 1] = str(reviews)
    assert main(args) == 1
    assert "reviews.csv:2: not valid UTF-8" in caplog.text


def test_live_run_without_an_endpoint_is_fatal_at_once(tmp_path, caplog, monkeypatch):
    monkeypatch.delenv("MEA_LLM_ENDPOINT", raising=False)
    monkeypatch.setattr("urllib.request.urlopen", lambda *args, **kwargs: pytest.fail("nothing may be sent"))
    assert main(run_args(tmp_path / "out", classifier="live")) == 1
    assert "MEA_LLM_ENDPOINT must be an http(s):// URL, got ''" in caplog.text
    assert not (tmp_path / "out").exists()


def test_live_run_with_a_cache_in_a_missing_directory_is_fatal_at_once(tmp_path, caplog, monkeypatch):
    monkeypatch.setenv("MEA_LLM_ENDPOINT", "http://localhost:9/v1")
    sent = []
    monkeypatch.setattr("urllib.request.urlopen", lambda *args, **kwargs: sent.append(args))
    cache = tmp_path / "missing" / "cache.jsonl"
    assert main(run_args(tmp_path / "out", classifier="live") + ["--cache", str(cache)]) == 1
    assert sent == []
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [f"[Errno 2] No such file or directory: '{cache}'"]
    assert not (tmp_path / "out").exists()
    assert not cache.parent.exists()


# Each subcommand's required options, with a value argparse accepts.
REQUIRED = {
    "run": {"--reviews": "r.csv", "--format": "csv", "--parses": "p", "--lexicon": "l.tsv", "--classifier": "replay", "--out": "o"},
    "compile-lexicon": {"--wordnet": "w.tsv", "--sentiwordnet": "s.tsv", "--emotions": "e.tsv", "--out": "o"},
    "sample": {"--index": "o", "--n": "1", "--seed": "1", "--out": "m.json"},
    "report": {"--manifest": "m.json"},
}


@pytest.mark.parametrize(
    "command, missing",
    [(None, "command")] + [(command, option) for command, options in REQUIRED.items() for option in options],
)
def test_a_missing_subcommand_or_required_option_is_a_usage_error(capsys, command, missing):
    args = [] if command is None else [command]
    for option, value in REQUIRED.get(command, {}).items():
        if option != missing:
            args += [option, value]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: the following arguments are required: {missing}\n")


def test_run_reads_a_snap_corpus(tmp_path):
    parses = tmp_path / "parses"
    parses.mkdir()
    for stem in ("1", "2"):  # the corpus parses of reviews 1 and 2 stand in for the snap reviews of the same ids
        shutil.copy(DATA / "corpus" / "parses" / f"{stem}.conllu", parses)
    out = tmp_path / "out"
    args = run_args(out, classifier="heuristic")
    args[args.index("--reviews") + 1] = str(DATA / "snap_sample.txt")
    args[args.index("--format") + 1] = "snap"
    args[args.index("--parses") + 1] = str(parses)
    assert main(args) == 2
    assert sorted(p.name for p in out.glob("?.json")) == ["1.json", "2.json"]
    assert (out / "failures.log").read_text(encoding="utf-8") == "3\tmissing review/text field\n"


def test_replay_without_fixture_is_fatal(tmp_path):
    args = run_args(tmp_path / "out")
    args.remove("--replay-fixture")
    args.remove(str(DATA / "replay_classifier.jsonl"))
    assert main(args) == 1


def test_sample_too_large_is_fatal(tmp_path):
    out = tmp_path / "out"
    assert main(run_args(out)) == 0
    code = main(["sample", "--index", str(out), "--n", "100", "--seed", "1", "--out", str(tmp_path / "m.json")])
    assert code == 1


COMPILE_ARGS = [
    "compile-lexicon",
    "--wordnet", str(DATA / "wordnet_dump.tsv"),
    "--sentiwordnet", str(DATA / "senti_dump.tsv"),
    "--emotions", str(DATA / "emotions.tsv"),
    "--exclusions", str(DATA / "food_exclusions.txt"),
]
REPLAY_FILTER = ["--llm-filter", "replay", "--replay-fixture", str(DATA / "replay_filters.jsonl")]


def test_compile_lexicon_with_replay_filter(tmp_path):
    out = tmp_path / "lexicon.tsv"
    code = main(COMPILE_ARGS + REPLAY_FILTER + ["--out", str(out)])
    assert code == 0
    text = out.read_text()
    words = {line.split("\t")[0] for line in text.splitlines()[1:]}
    assert "gleeful" not in words  # dropped by the emotion filter verdict
    assert {"meatball", "bitter", "cheerful", "adore"} <= words
    assert "mess" not in words
    assert main(COMPILE_ARGS + ["--out", str(tmp_path / "unfiltered.tsv")]) == 0
    unfiltered = (tmp_path / "unfiltered.tsv").read_text().splitlines()
    assert text.splitlines() == [line for line in unfiltered if not line.startswith("gleeful\t")]  # the one "no" verdict


@pytest.mark.parametrize(
    "mode, message",
    [([], "expected one argument"), (["heuristic"], "invalid choice: 'heuristic'")],
    ids=["default", "heuristic"],
)
def test_llm_filter_without_a_model_classifier_is_fatal_before_reading_dumps(tmp_path, capsys, mode, message):
    out = tmp_path / "lexicon.tsv"
    missing = str(tmp_path / "missing.tsv")  # reading any dump would fail with another message
    args = ["compile-lexicon", "--wordnet", missing, "--sentiwordnet", missing, "--emotions", missing]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out), "--llm-filter"] + mode)
    assert exc.value.code == 2
    assert f"argument --llm-filter: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, message",
    [("replay", "replay mode requires a fixture file"), ("live", "MEA_LLM_ENDPOINT must be an http(s):// URL, got ''")],
    ids=["replay", "live"],
)
def test_a_bad_llm_filter_configuration_is_fatal_before_reading_dumps(tmp_path, caplog, monkeypatch, mode, message):
    monkeypatch.delenv("MEA_LLM_ENDPOINT", raising=False)
    monkeypatch.setattr("mea.belief.compile_food_lexicon", lambda *args: pytest.fail("no dump may be read"))
    out = tmp_path / "lexicon.tsv"
    args = ["compile-lexicon", "--wordnet", str(DATA / "wordnet_dump.tsv"), "--sentiwordnet", str(tmp_path / "missing.tsv")]
    assert main(args + ["--emotions", str(DATA / "emotions.tsv"), "--llm-filter", mode, "--out", str(out)]) == 1
    assert message in caplog.text
    assert not out.exists()


def test_compile_lexicon_with_a_live_filter_matches_replay_and_fills_the_cache(tmp_path, monkeypatch):
    entries = [json.loads(line) for line in (DATA / "replay_filters.jsonl").read_text(encoding="utf-8").splitlines()]
    answers = {load_template(e["template"]).render(e["input"]): e["raw_response"] for e in entries}
    monkeypatch.setenv("MEA_LLM_ENDPOINT", "http://models.local/v1")
    monkeypatch.delenv("MEA_LLM_MODEL", raising=False)
    monkeypatch.setattr("mea.llm._http_transport", lambda config, prompt: answers[prompt])
    cache = tmp_path / "cache.jsonl"
    assert main(COMPILE_ARGS + ["--llm-filter", "live", "--cache", str(cache), "--out", str(tmp_path / "live.tsv")]) == 0
    assert main(COMPILE_ARGS + REPLAY_FILTER + ["--out", str(tmp_path / "replay.tsv")]) == 0
    assert (tmp_path / "live.tsv").read_bytes() == (tmp_path / "replay.tsv").read_bytes()
    cached = [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()]
    assert {e["input"] for e in cached} == {"bitter", "hard", "adore", "angry", "cheerful", "fearful", "gleeful", "love", "sad"}
    assert {(e["key"], e["parsed_label"]) for e in cached} <= {(e["key"], e["parsed_label"]) for e in entries}


def test_compile_lexicon_without_filter(tmp_path):
    out = tmp_path / "lexicon.tsv"
    code = main(
        [
            "compile-lexicon",
            "--wordnet", str(DATA / "wordnet_dump.tsv"),
            "--sentiwordnet", str(DATA / "senti_dump.tsv"),
            "--emotions", str(DATA / "emotions.tsv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    words = {line.split("\t")[0] for line in out.read_text().splitlines()[1:]}
    assert "gleeful" in words and "mess" in words


@pytest.mark.parametrize(
    ("name", "text", "message"),
    [
        ("manifest.json", '{"entries": [', ":1: invalid JSON: Expecting value: line 1 column 14"),
        ("manifest.json", "{}", ":0: missing or mistyped field: 'entries'"),
        ("manifest.json", "[]", ":0: missing or mistyped field: list indices must be integers or slices, not str"),
        ("manifest.json", '{"entries": [{"annotations": []}]}', ":0: missing or mistyped field: 'split'"),
        ("manifest.json", '{"entries": [{"split": "short"}]}', ":0: missing or mistyped field: 'annotations'"),
        ("manifest.json", '{"entries": [{"split": "short", "annotations": ["x"]}]}', ":0: missing or mistyped field: "),
        ("index.json", '[{"review_id": "1", "sentence_count": 2}]', ":0: missing or mistyped field: 'valid'"),
    ],
    ids=["truncated", "no-entries", "not-an-object", "no-split", "no-annotations", "annotation-not-object", "index-no-valid"],
)
def test_malformed_sample_and_report_inputs_name_the_file(tmp_path, caplog, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if name == "index.json":
        args = ["sample", "--index", str(tmp_path), "--n", "1", "--seed", "0", "--out", str(tmp_path / "m.json")]
    else:
        args = ["report", "--manifest", str(path)]
    assert main(args) == 1
    assert f"{path}{message}" in caplog.text


def test_report_rejects_an_unknown_split(tmp_path, caplog, capsys):
    path = tmp_path / "manifest.json"
    entries = [{"split": split, "annotations": []} for split in ("short", "Long")]
    path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    assert main(["report", "--manifest", str(path), "--out", str(tmp_path / "report.json")]) == 1
    assert "unknown splits: Long" in caplog.text
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "report.json").exists()


def run_cli_process(args, **env_vars):
    """``python -m mea.cli`` with args, in a fresh process whose path holds src/ and whose env adds env_vars."""
    src = str(DATA.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env_vars}
    return subprocess.run([sys.executable, "-m", "mea.cli", *args], env=env, capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli(tmp_path):
    missing = tmp_path / "missing.json"
    result = run_cli_process(["report", "--manifest", str(missing)])
    assert result.returncode == 1
    assert str(missing) in result.stderr


def test_deeply_nested_manifest_names_the_file(tmp_path, caplog):
    path = tmp_path / "manifest.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["report", "--manifest", str(path)]) == 1
    assert f"{path}:0: invalid JSON: maximum recursion depth exceeded" in caplog.text


def test_python_dash_m_logs_as_mea_cli(tmp_path):
    result = run_cli_process(["report", "--manifest", str(tmp_path / "missing.json")])
    assert result.returncode == 1
    assert result.stderr.startswith("ERROR mea.cli: ")


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """A run and a lexicon compile give the same bytes whatever order str hashing puts sets and dicts in."""
    trees = []
    for seed in ("0", "1"):
        root = tmp_path / seed
        run = run_cli_process(run_args(root / "out") + ["--dot"], PYTHONHASHSEED=seed)
        compiled = run_cli_process(COMPILE_ARGS + REPLAY_FILTER + ["--out", str(root / "lexicon.tsv")], PYTHONHASHSEED=seed)
        assert (run.returncode, compiled.returncode) == (0, 0)
        files = {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        trees.append((files, (run.stdout + compiled.stdout).replace(str(root), "ROOT")))
    assert trees[0] == trees[1]
    assert len(trees[0][0]) == 43  # 20 graphs as .json and .dot, index.json, stats.json, lexicon.tsv


# --- whole-run accounting: each CSV row ends in exactly one place -------------

ROW_IDS = ["1", "2", "3", "index", "stats", "../up", "a\\b", "..", "bell\x07", ""]
ESCAPED_IDS = {"bell\x07": "bell\\x07"}  # as failures.log writes them
# Every stem a parse file may have: each row id that can name a file, and two strays.
PARSE_STEMS = [rid for rid in ROW_IDS if rid and "/" not in rid] + ["9", ".hidden"]
_PARSE_1, _PARSE_4 = ((DATA / "corpus" / "parses" / f"{n}.conllu").read_text(encoding="utf-8") for n in (1, 4))
PARSE_ENTRIES = {  # kind -> the bytes of the parse file of a stem, or None for a directory
    "parse-1": lambda stem: _PARSE_1.replace("# review_id = 1\n", f"# review_id = {stem}\n").encode(),
    "parse-4": lambda stem: _PARSE_4.replace("# review_id = 4\n", f"# review_id = {stem}\n").encode(),  # asks about "I buy it"
    "other-review": lambda stem: _PARSE_1.replace("# review_id = 1\n", "# review_id = 0other\n").encode(),
    "empty": lambda stem: b"",
    "malformed": lambda stem: b"1\tfoo\n",
    "non-utf8": lambda stem: b"# review_id = \xff\n",
    "directory": lambda stem: None,
}


def run_hostile(root, rows, kinds, classifier):
    """Write rows and a parse entry of each drawn kind under root; return the run's arguments."""
    with open(root / "reviews.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["Id", "Text"], *rows])
    parses = root / "parses"
    parses.mkdir()
    for stem, kind in kinds.items():
        content = PARSE_ENTRIES[kind](stem)
        if content is None:
            (parses / f"{stem}.conllu").mkdir()
        else:
            (parses / f"{stem}.conllu").write_bytes(content)
    args = run_args(root / "out", classifier="heuristic" if classifier == "heuristic" else "replay")
    args[args.index("--reviews") + 1] = str(root / "reviews.csv")
    args[args.index("--parses") + 1] = str(parses)
    if classifier == "replay-partial":  # a fixture that lacks "I buy it"
        lines = (DATA / "replay_classifier.jsonl").read_text(encoding="utf-8").splitlines()
        fixture = root / "fixture.jsonl"
        fixture.write_text("".join(line + "\n" for line in lines if json.loads(line)["input"] != "I buy it"), encoding="utf-8")
        args[args.index("--replay-fixture") + 1] = str(fixture)
    return args


def tree(root, skip=None):
    """Every path under root, but not under skip, with the bytes of each file."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
        if skip is None or (p != skip and skip not in p.parents)
    }


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from(ROW_IDS), st.sampled_from(["I eat bread.", ""])), max_size=6),
    kinds=st.dictionaries(st.sampled_from(PARSE_STEMS), st.sampled_from(sorted(PARSE_ENTRIES))),
    classifier=st.sampled_from(["heuristic", "replay", "replay-partial"]),
)
# A review skipped at ingest whose parse file is malformed: one failure, not two.
@example(rows=[("1", "I eat bread."), ("2", "")], kinds={"1": "parse-1", "2": "malformed"}, classifier="heuristic")
def test_each_csv_row_ends_as_its_graph_a_review_without_events_or_one_failure(rows, kinds, classifier):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        args = run_hostile(root, rows, kinds, classifier)
        inputs, out = tree(root), root / "out"
        code = main(args)
        outputs = tree(out)
        assert main(args) == code
        assert tree(out) == outputs  # a second run into the same --out writes the same bytes
        assert tree(root, skip=out) == inputs  # and nothing outside --out
        assert code == (2 if "failures.log" in outputs else 0)

        logged = Counter(line.split("\t", 1)[0] for line in outputs.get("failures.log", b"").decode().splitlines())
        graphs = {name[:-5] for name in outputs if name.endswith(".json")} - {"index", "stats"}
        assert {e["review_id"] for e in json.loads(outputs["index.json"])} == graphs
        row_count = Counter(rid for rid, _ in rows)
        for rid, count in row_count.items():
            failed = logged.pop(ESCAPED_IDS.get(rid, rid), 0)
            without_events = count - failed - (rid in graphs)
            assert without_events in (0, 1), rid
            if rid in graphs:
                assert json.loads(outputs[f"{rid}.json"])["review_id"] == rid
            if without_events:  # the one row of a review whose parse holds no event
                assert count == 1
                assert not [e for s in parse_conllu(root / "parses" / f"{rid}.conllu") for e in extract_events(s)]
        assert graphs <= set(row_count)
        # Every other line names a stray: a parse file whose stem is no row's id, once.
        assert logged == Counter(ESCAPED_IDS.get(stem, stem) for stem in kinds if stem not in row_count)
