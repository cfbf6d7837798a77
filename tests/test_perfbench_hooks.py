"""The benchmark's tracer wraps program globals by name; a refactor must keep them."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import mea.dag
from mea.runner import run_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_global_the_tracer_wraps_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))  # batch.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_batch", PERFBENCH / "batch.py")
    batch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(batch)
    wrapped = [(module, name) for module, name, _, _ in batch._TRACED_GLOBALS] + [(mea.dag, "transmitting_tails")]
    assert len(wrapped) == 8
    for module, name in wrapped:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_the_benchmarks_run_pipeline_call_binds_to_its_signature():
    tree = ast.parse((PERFBENCH / "batch.py").read_text(encoding="utf-8"))

    def calls_run_pipeline(call):  # run_pipeline(...) or a tracer wrap of it, w("...", run_pipeline)(...)
        names = [call.func] + (call.func.args if isinstance(call.func, ast.Call) else [])
        return any(isinstance(name, ast.Name) and name.id == "run_pipeline" for name in names)

    (call,) = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and calls_run_pipeline(node)]
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    assert all(keyword.arg is not None for keyword in call.keywords)
    keywords = {keyword.arg: None for keyword in call.keywords}
    assert "workers" in keywords
    inspect.signature(run_pipeline).bind(*[None] * len(call.args), **keywords)
