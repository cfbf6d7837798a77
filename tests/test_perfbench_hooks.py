"""The benchmark's tracer wraps program globals by name; a refactor must keep them."""

import ast
import importlib.util
import inspect
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

import mea.dag
from mea.belief import load_lexicon
from mea.llm import ClientConfig, LlmClient, load_template
from mea.nature import default_graph, validate_graph
from mea.runner import ingest_reviews, load_parse_dir, run_pipeline

from conftest import make_replay_client

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_batch(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))  # batch.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_batch", PERFBENCH / "batch.py")
    batch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(batch)
    return batch


def test_every_global_the_tracer_wraps_resolves(monkeypatch):
    batch = load_batch(monkeypatch)
    wrapped = [(module, name) for module, name, _, _ in batch._TRACED_GLOBALS] + [(mea.dag, "transmitting_tails")]
    assert len(wrapped) == 8
    for module, name in wrapped:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_the_tracer_counts_each_layers_calls_on_the_fixture_corpus(monkeypatch, data_dir, graph, lexicon, tmp_path):
    """A traced name the program binds anywhere but at call time would read 0 here."""
    batch = load_batch(monkeypatch)
    tracer = batch.Tracer(enabled=True)
    with ExitStack() as patches:
        batch.trace_layers(tracer, patches)
        failures = []
        reviews = ingest_reviews(data_dir / "corpus" / "reviews.csv", "csv", failures)
        parses = load_parse_dir(data_dir / "corpus" / "parses", failures)
        run_pipeline(reviews, parses, graph, lexicon, make_replay_client(), tmp_path / "out", failures=failures)
    assert failures == []
    calls = {name: span["calls"] for name, span in tracer.summary().items()}
    assert calls == {
        "extraction.parse_conllu": 20,
        "extraction.extract_events": 31,
        "extraction.detect_perception": 50,
        "dag.forward_transmit": 20,
        "dag.link_actions": 20,
        "dag.dumps_dag": 20,
    }
    # dag.build_mea_dag and nature.transmitting_tails read 0: the pipeline no
    # longer calls them, and they stay traced until ROADMAP item A drops them.
    assert tracer.counts() == {"nature.transmitting_tails": 0}


def test_the_tracer_can_count_and_restore_a_lexicons_lookups(monkeypatch):
    """batch.py counts lookup and tuples_for by setting them on the lexicon instance."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    lexicon = load_lexicon(Path(__file__).parent / "data" / "lexicon.tsv")
    tracer = spans.Tracer(enabled=True)
    for name in ("lookup", "tuples_for"):
        original = getattr(lexicon, name)
        with spans.patched(lexicon, name, tracer.count("belief.lookup", original)):
            assert getattr(lexicon, name)("Meatball") == original("meatball")
        assert getattr(lexicon, name) == original
        assert getattr(lexicon, name)("Meatball") == original("meatball")
    assert tracer.counts() == {"belief.lookup": 2}


def benchmark_calls(callee):
    """Every call perfbench/batch.py makes to callee: callee(...) or a tracer wrap of it, w("...", callee)(...)."""
    tree = ast.parse((PERFBENCH / "batch.py").read_text(encoding="utf-8"))

    def calls_callee(call):
        names = [call.func] + (call.func.args if isinstance(call.func, ast.Call) else [])
        return any(isinstance(name, ast.Name) and name.id == callee.__name__ for name in names)

    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and calls_callee(node)]
    assert calls, f"batch.py never calls {callee.__name__}"
    return calls


def assert_binds(call, callee):
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    assert all(keyword.arg is not None for keyword in call.keywords)
    keywords = {keyword.arg: None for keyword in call.keywords}
    inspect.signature(callee).bind(*[None] * len(call.args), **keywords)
    return keywords


def test_the_benchmarks_run_pipeline_call_binds_to_its_signature():
    (call,) = benchmark_calls(run_pipeline)
    assert "workers" in assert_binds(call, run_pipeline)


@pytest.mark.parametrize(
    "callee", [ClientConfig, LlmClient, load_template, default_graph, validate_graph, ingest_reviews, load_parse_dir]
)
def test_the_benchmarks_calls_bind_to_their_signatures(callee):
    for call in benchmark_calls(callee):
        assert_binds(call, callee)
