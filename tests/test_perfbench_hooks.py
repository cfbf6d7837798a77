"""The benchmark's tracer wraps program globals by name; a refactor must keep them."""

import importlib.util
import sys
from pathlib import Path

import mea.dag

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
