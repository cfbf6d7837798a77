"""The package runs on the standard library alone, and loads no HTTP code until a live request is sent."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "mea").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_the_package_or_the_standard_library(path):
    foreign = {name for name in absolute_imports(path) if name != "mea" and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_project_declares_no_runtime_dependency():
    assert "dependencies = []" in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()


def test_importing_the_cli_loads_no_http_code():
    # Each of these costs start-up time and memory in every process, the benchmark's
    # workers included, though only a live request needs them.
    code = "import sys, mea.cli; print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
