"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

import functools
import itertools
import json
import time

import pytest

from conftest import DATA, detect_negation
from mea.belief import (
    compile_feeling_lexicon,
    compile_food_lexicon,
    compile_emotion_lexicon,
    parse_emotion_file,
    parse_sense_file,
)
from mea.cli import main
from mea.dag import MeaDag, forward_transmit, is_valid
from mea.extraction import detect_perception, extract_events, match_action_patterns, parse_conllu
from mea.nature import DEFAULT_EDGE_TABLE, NatureNodeId, default_graph, opposite_node

from test_extraction import all_fixture_sentences, brute_force_matches

N = NatureNodeId


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  {description}")
                raise
            print(f"criterion {number}: PASS  {description}")

        return wrapper

    return decorate


def run_corpus_cli(out_dir):
    return main(
        [
            "run",
            "--reviews", str(DATA / "corpus" / "reviews.csv"),
            "--format", "csv",
            "--parses", str(DATA / "corpus" / "parses"),
            "--lexicon", str(DATA / "lexicon.tsv"),
            "--classifier", "replay",
            "--replay-fixture", str(DATA / "replay_classifier.jsonl"),
            "--out", str(out_dir),
        ]
    )


@criterion(1, "golden fixtures: 20 hand-parsed reviews match hand-derived graphs exactly")
def test_criterion_1_golden_fixture_equivalence(tmp_path):
    out = tmp_path / "out"
    started = time.perf_counter()
    exit_code = run_corpus_cli(out)
    elapsed = time.perf_counter() - started
    assert exit_code == 0
    gold_dir = DATA / "corpus" / "gold"
    gold_files = sorted(gold_dir.glob("*.json"))
    assert len(gold_files) == 20
    diffs = []
    for gold_path in gold_files:
        produced = json.loads((out / gold_path.name).read_text(encoding="utf-8"))
        expected = json.loads(gold_path.read_text(encoding="utf-8"))
        if produced != expected:
            diffs.append(gold_path.name)
    assert diffs == [], f"graphs differ from gold: {diffs}"
    assert elapsed < 5.0, f"corpus run took {elapsed:.2f}s"


@criterion(2, "propagation matches brute-force reachability on all 8192 seed sets")
def test_criterion_2_propagation_oracle():
    graph = default_graph()
    nodes = list(N)
    transmitting = [(h, t) for h, t, tr in DEFAULT_EDGE_TABLE if tr]

    def oracle(seed):
        closed = set(seed)
        changed = True
        while changed:
            changed = False
            for head, tail in transmitting:
                if head in closed and tail not in closed:
                    closed.add(tail)
                    changed = True
        return closed

    started = time.perf_counter()
    for mask in range(1 << len(nodes)):
        seed = {nodes[i] for i in range(len(nodes)) if mask >> i & 1}
        assert forward_transmit(seed, graph) == oracle(seed)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"exhaustive check took {elapsed:.2f}s"


@criterion(3, "pattern matcher equals the brute-force all-bindings matcher on fixtures")
def test_criterion_3_pattern_oracle():
    sentences = [s for s in all_fixture_sentences(DATA) if len(s.tokens) <= 12]
    assert len(sentences) >= 30
    for s in sentences:
        expected = brute_force_matches(s)
        actual = [(e.pattern_id, e.token_indices, e.verb_index) for e in match_action_patterns(s)]
        assert actual == expected, f"disagreement on: {' '.join(t.surface for t in s.tokens)}"

    exemplars = parse_conllu(DATA / "patterns.conllu")
    assert [e.pattern_id for e in match_action_patterns(exemplars[0])] == ["P1"]   # "I freeze"
    assert [e.pattern_id for e in match_action_patterns(exemplars[9])] == ["P10"]  # "I push the pizza into the oven"


@criterion(4, "negated feeling/emotion words link to the opposite node")
def test_criterion_4_negation_property(lexicon):
    flippable = {N.EXPERIENCE_FEELING_POS, N.EXPERIENCE_FEELING_NEG, N.EMO_POS, N.EMO_NEG}
    flipped_links = 0
    for s in all_fixture_sentences(DATA):
        for event in extract_events(s):
            for link in detect_perception(event, lexicon):
                if link.node not in flippable:
                    assert not link.flipped
                    continue
                lexicon_nodes = lexicon.lookup(link.word) & flippable
                assert len(lexicon_nodes) == 1
                lexicon_node = lexicon_nodes.pop()
                if detect_negation(event):
                    assert link.flipped
                    assert link.node == opposite_node(lexicon_node)
                    flipped_links += 1
                else:
                    assert not link.flipped
                    assert link.node == lexicon_node
    assert flipped_links >= 3  # fixtures include several negated events


@criterion(5, "a graph is valid iff exactly one need node is activated")
def test_criterion_5_validity_criterion():
    base = {N.FOOD, N.EMO_POS}
    for has_pos, has_neg in itertools.product((False, True), repeat=2):
        activated = set(base)
        if has_pos:
            activated.add(N.NEED_FOOD_POS)
        if has_neg:
            activated.add(N.NEED_FOOD_NEG)
        dag = MeaDag(review_id="t", activated=activated)
        assert is_valid(dag) is (has_pos != has_neg)


@criterion(6, "error report reproduces the reference accuracy table exactly")
def test_criterion_6_report_reproduction():
    from mea.runner import report_errors

    ELL, AEL, WSA, WSB = "EventLinkingLoss", "AserExtractionLoss", "WrongSubsequentAction", "WordSenseAmbiguity"
    WB, WPA, NL = "WrongBelief", "WrongPastAction", "NegationLoss"

    short_annotations = [[ELL, WB]] + [[t] for t in
        [ELL, ELL, AEL, AEL, WSA, WSB, WSB, WSB, WB, WB, WB, WPA, NL]]
    short_annotations += [[] for _ in range(47 - len(short_annotations))]
    long_annotations = [[ELL, AEL], [ELL, WSA], [ELL, WPA], [ELL, NL]] + [[t] for t in
        [ELL, ELL, AEL, AEL, AEL, AEL, WSA, WSA, WSA, WSA, WSB, WSB, WSB, WB, WB, WPA, WPA, WPA, NL]]
    long_annotations += [[] for _ in range(53 - len(long_annotations))]

    entries = []
    for i, annotations in enumerate(short_annotations):
        entries.append({"review_id": f"s{i}", "sentence_count": 3, "split": "short",
                        "annotations": [{"error_type": t, "note": ""} for t in annotations]})
    for i, annotations in enumerate(long_annotations):
        entries.append({"review_id": f"l{i}", "sentence_count": 8, "split": "long",
                        "annotations": [{"error_type": t, "note": ""} for t in annotations]})
    report = report_errors({"seed": 0, "n": 100, "entries": entries})

    samples = report["samples"]
    assert (samples["total"]["count"], samples["total"]["incorrect"], samples["total"]["incorrect_pct"]) == (100, 37, 37.0)
    assert (samples["short"]["count"], samples["short"]["incorrect"], samples["short"]["incorrect_pct"]) == (47, 14, 29.8)
    assert (samples["long"]["count"], samples["long"]["incorrect"], samples["long"]["incorrect_pct"]) == (53, 23, 43.4)

    expected = {
        "total": (42, {ELL: (9, 21.4), AEL: (7, 16.7), WSA: (6, 14.3), WSB: (6, 14.3),
                       WB: (6, 14.3), WPA: (5, 11.9), NL: (3, 7.1)}),
        "short": (15, {ELL: (3, 20.0), AEL: (2, 13.3), WSA: (1, 6.7), WSB: (3, 20.0),
                       WB: (4, 26.7), WPA: (1, 6.7), NL: (1, 6.7)}),
        "long": (27, {ELL: (6, 22.2), AEL: (5, 18.5), WSA: (5, 18.5), WSB: (3, 11.1),
                      WB: (2, 7.4), WPA: (4, 14.8), NL: (2, 7.4)}),
    }
    for column, (total, by_type) in expected.items():
        assert report["errors"][column]["count"] == total
        for error_type, (count, pct) in by_type.items():
            cell = report["errors"][column]["by_type"][error_type]
            assert (cell["count"], cell["pct"]) == (count, pct), (column, error_type)
        rounded_sum = sum(v["pct"] for v in report["errors"][column]["by_type"].values())
        assert abs(rounded_sum - 100.0) <= 0.1 + 1e-9


@criterion(7, "lexicon compilation reproduces the hand-computed fixture sets")
def test_criterion_7_lexicon_compilation():
    food = compile_food_lexicon(DATA / "wordnet_dump.tsv", ["mess", "intellectual nourishment"])
    assert {t.word for t in food} == {
        "food", "solid food", "dish", "meatball", "pizza", "baked goods", "bread", "pabulum",
    }

    feeling_pos, feeling_neg = compile_feeling_lexicon(parse_sense_file(DATA / "senti_dump.tsv"))
    assert {t.word for t in feeling_pos} == {"delicious", "great", "tasty"}
    assert {t.word for t in feeling_neg} == {"bitter", "hard"}
    # threshold boundary: a 0.6 score does not qualify; mixed lemmas drop out
    assert "plain" not in {t.word for t in feeling_pos}
    assert "odd" not in {t.word for t in feeling_pos} | {t.word for t in feeling_neg}

    emo_pos, emo_neg = compile_emotion_lexicon(parse_emotion_file(DATA / "emotions.tsv"))
    assert {t.word for t in emo_pos} == {"cheerful", "gleeful", "love", "adore"}
    assert {t.word for t in emo_neg} == {"angry", "fearful", "sad"}


@criterion(8, "two replay-mode runs produce byte-identical outputs and stats")
def test_criterion_8_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_corpus_cli(out1) == 0
    assert run_corpus_cli(out2) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and len(names1) == 22  # 20 graphs + index + stats
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@criterion(9, "malformed parse and empty review are quarantined with exit code 2")
def test_criterion_9_robustness(tmp_path):
    out = tmp_path / "out"
    exit_code = main(
        [
            "run",
            "--reviews", str(DATA / "robust" / "reviews.csv"),
            "--format", "csv",
            "--parses", str(DATA / "robust" / "parses"),
            "--lexicon", str(DATA / "lexicon.tsv"),
            "--classifier", "heuristic",
            "--out", str(out),
        ]
    )
    assert exit_code == 2
    quarantined = [line.split("\t")[0] for line in (out / "failures.log").read_text().splitlines()]
    assert sorted(quarantined) == ["2", "3"]
    assert (out / "1.json").exists() and (out / "4.json").exists()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["failed_reviews"] == 2
