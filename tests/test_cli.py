import json
import os
import subprocess
import sys

import pytest

from conftest import DATA
from mea.cli import main


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
    manifest = json.loads(manifest_path.read_text())
    assert len(manifest["entries"]) == 5
    manifest["entries"][0]["annotations"].append({"error_type": "NegationLoss", "note": "missed cue"})
    manifest_path.write_text(json.dumps(manifest))

    report_path = tmp_path / "report.json"
    assert main(["report", "--manifest", str(manifest_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
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


def test_non_utf8_reviews_file_is_fatal_with_file_and_line(tmp_path, caplog):
    reviews = tmp_path / "reviews.csv"
    reviews.write_bytes("Id,Text\n1,caf\u00e9 au lait\n".encode("latin-1"))
    args = run_args(tmp_path / "out", classifier="heuristic")
    args[args.index("--reviews") + 1] = str(reviews)
    assert main(args) == 1
    assert "reviews.csv:2: not valid UTF-8" in caplog.text


def test_live_run_without_an_endpoint_is_fatal_at_once(tmp_path, caplog, monkeypatch):
    monkeypatch.delenv("MEA_LLM_ENDPOINT", raising=False)
    monkeypatch.setattr("requests.adapters.HTTPAdapter.send", lambda *args, **kwargs: pytest.fail("nothing may be sent"))
    assert main(run_args(tmp_path / "out", classifier="live")) == 1
    assert "MEA_LLM_ENDPOINT must be an http(s):// URL, got ''" in caplog.text
    assert not (tmp_path / "out").exists()


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


def test_compile_lexicon_with_replay_filter(tmp_path):
    out = tmp_path / "lexicon.tsv"
    code = main(
        [
            "compile-lexicon",
            "--wordnet", str(DATA / "wordnet_dump.tsv"),
            "--sentiwordnet", str(DATA / "senti_dump.tsv"),
            "--emotions", str(DATA / "emotions.tsv"),
            "--exclusions", str(DATA / "food_exclusions.txt"),
            "--llm-filter",
            "--classifier", "replay",
            "--replay-fixture", str(DATA / "replay_filters.jsonl"),
            "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    words = {line.split("\t")[0] for line in text.splitlines()[1:]}
    assert "gleeful" not in words  # dropped by the emotion filter verdict
    assert {"meatball", "bitter", "cheerful", "adore"} <= words
    assert "mess" not in words


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
        ("manifest.json", '{"entries": [{"annotations": []}]}', ":0: missing or mistyped field: 'split'"),
        ("manifest.json", '{"entries": [{"split": "short"}]}', ":0: missing or mistyped field: 'annotations'"),
        ("manifest.json", '{"entries": [{"split": "short", "annotations": ["x"]}]}', ":0: missing or mistyped field: "),
        ("index.json", '[{"review_id": "1", "sentence_count": 2}]', ":0: missing or mistyped field: 'valid'"),
    ],
    ids=["truncated", "no-entries", "no-split", "no-annotations", "annotation-not-object", "index-no-valid"],
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


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(DATA.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    missing = tmp_path / "missing.json"
    result = subprocess.run(
        [sys.executable, "-m", "mea.cli", "report", "--manifest", str(missing)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert str(missing) in result.stderr


def test_deeply_nested_manifest_names_the_file(tmp_path, caplog):
    path = tmp_path / "manifest.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["report", "--manifest", str(path)]) == 1
    assert f"{path}:0: invalid JSON: maximum recursion depth exceeded" in caplog.text


def test_python_dash_m_logs_as_mea_cli(tmp_path):
    src = str(DATA.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "mea.cli", "report", "--manifest", str(tmp_path / "missing.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("ERROR mea.cli: ")
