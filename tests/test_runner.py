import json
from collections import Counter

import pytest

from conftest import make_replay_client
from mea import InputFileError
from mea.belief import load_lexicon
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
    records = ingest_reviews(data_dir / "snap_sample.txt", "snap")
    assert [(r.review_id, r.text) for r in records] == [
        ("1", "Great taffy."),
        ("2", "Not as advertised."),
    ]


def test_ingest_snap_records_skips(data_dir):
    failures = []
    ingest_reviews(data_dir / "snap_sample.txt", "snap", failures)
    assert failures == [("3", "missing review/text field")]


def test_ingest_csv(data_dir):
    records = ingest_reviews(data_dir / "corpus" / "reviews.csv", "csv")
    assert len(records) == 20
    assert records[0].review_id == "1"
    assert records[6].text == "This bread is not delicious."


def test_ingest_rejects_unknown_format(data_dir):
    with pytest.raises(ValueError):
        ingest_reviews(data_dir / "corpus" / "reviews.csv", "xml")


def test_ingest_csv_requires_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ingest_reviews(path, "csv")


def test_ingest_csv_field_over_the_csv_limit_names_file_and_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("Id,Text\n1,ok\n2," + "x" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        ingest_reviews(path, "csv")
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


def test_pipeline_is_deterministic_across_workers(data_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_fixture_corpus(data_dir, out1, workers=1)
    run_fixture_corpus(data_dir, out2, workers=4)
    for path in sorted(out1.iterdir()):
        assert (out2 / path.name).read_bytes() == path.read_bytes()


def test_empty_corpus_yields_zero_stats(data_dir, tmp_path):
    stats = run_pipeline(
        [],
        {},
        default_graph(),
        load_lexicon(data_dir / "lexicon.tsv"),
        make_replay_client(),
        tmp_path / "out",
    )
    assert stats.total_reviews == 0
    assert stats.reviews_with_events == 0
    assert stats.valid_dags == 0


def test_unknown_parse_review_id_is_fatal(data_dir, tmp_path):
    reviews = ingest_reviews(data_dir / "corpus" / "reviews.csv", "csv")
    parses = load_parse_dir(data_dir / "corpus" / "parses")
    parses["999"] = parses["1"]
    with pytest.raises(ValueError):
        run_pipeline(
            reviews,
            parses,
            default_graph(),
            load_lexicon(data_dir / "lexicon.tsv"),
            make_replay_client(),
            tmp_path / "out",
        )


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
    parses = {"1": "1", "escaped": "../escaped", "dots": ".."}
    stats, failures = run_csv_corpus(data_dir, tmp_path, rows, parses)
    out = tmp_path / "run" / "out"
    outside = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p != out and out not in p.parents}
    assert outside == {"reviews.csv", "parses", "run"} | {f"parses/{stem}.conllu" for stem in parses}
    assert [rid for rid, _ in failures] == unsafe
    assert all("Id must not be" in reason for _, reason in failures)
    assert sorted(p.name for p in out.iterdir()) == ["1.json", "failures.log", "index.json", "stats.json"]
    assert stats.total_reviews == 1
    assert stats.failed_reviews == len(unsafe)


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


def test_failures_log_has_one_line_per_failure(data_dir, tmp_path):
    unsafe = ["a\nb", "tab\there", "c\x851", "bell\x07"]
    rows = [("1", "I bought this brand.")] + [(rid, "I bought this brand.") for rid in unsafe]
    stats, failures = run_csv_corpus(data_dir, tmp_path, rows, {"1": "1"})
    assert [rid for rid, _ in failures] == unsafe
    log_lines = (tmp_path / "run" / "out" / "failures.log").read_text(encoding="utf-8").splitlines()
    escaped = ["a\\x0ab", "tab\\x09here", "c\\x851", "bell\\x07"]
    assert log_lines == [f"{rid}\t{reason}" for rid, (_, reason) in zip(escaped, failures)]


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
    parses = load_parse_dir(tmp_path, failures)
    assert list(parses) == ["1"]
    assert failures == [("2", f"parse error: {tmp_path / '2.conllu'}:4: not valid UTF-8")]


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
    with pytest.raises(ValueError):
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
