"""Mutation testing: plant one small fault at a time in a module and see whether the tests notice.

    python3 tools/mutate.py src/mea/nature.py src/mea/belief.py

Standard library only, and not part of the test suite. Each mutant is one edit
of the module's syntax tree, written back with ast.unparse:
  - a comparison operator flipped: == and !=, < and >=, > and <=, is and is not, in and not in;
  - `and` and `or` swapped, a `not` dropped, True and False swapped;
  - an int constant shifted by +1 and by -1 (two mutants);
  - a `raise` statement replaced by `pass`;
  - an `if` whose body only raises, `continue`s or `return`s dropped, as if its
    test were always false: its `else` branch, if any, takes its place;
  - one member dropped from a tuple or set display of two or more, but not from
    the parameters of a subscript such as dict[str, int], which are mostly types.
The repository is copied once into a temporary directory (TMPDIR sets where).
For each mutant the copy's module is rewritten; its own tests
(tests/test_<module>.py) run with -x and, when they pass, the full suite runs
with -x. A mutant is killed when a run fails or outlasts the time limit, and
survives when both runs pass. Before any mutant, the module as ast.unparse
writes it must pass both runs, which also sets the time limit: three times the
slower of them, plus 10 s.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FLIPPED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SYMBOL = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}


class Mutator(ast.NodeTransformer):
    """Number every possible mutation of a tree in one fixed walk, and apply the one numbered target."""

    def __init__(self, target: int | None = None):
        self.target = target
        self.sites: list[tuple[int, str]] = []  # (line, what changes), by mutant number

    def _site(self, node: ast.AST, change: str) -> bool:
        self.sites.append((node.lineno, change))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            flipped = _FLIPPED[type(op)]
            if self._site(node, f"{_SYMBOL[type(op)]} -> {_SYMBOL[flipped]}"):
                node.ops[i] = flipped()
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        self.generic_visit(node)
        is_and = isinstance(node.op, ast.And)
        if self._site(node, "and -> or" if is_and else "or -> and"):
            node.op = ast.Or() if is_and else ast.And()
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "not x -> x"):
            return node.operand
        return node

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        value = node.value
        if isinstance(value, bool):
            if self._site(node, f"{value} -> {not value}"):
                return ast.copy_location(ast.Constant(not value), node)
        elif isinstance(value, int):
            for delta in (1, -1):
                if self._site(node, f"{value} -> {value + delta}"):
                    return ast.copy_location(ast.Constant(value + delta), node)
        return node

    def visit_Tuple(self, node: ast.Tuple) -> ast.AST:
        self.generic_visit(node)
        return self._drop_member(node) if isinstance(node.ctx, ast.Load) else node

    def visit_Set(self, node: ast.Set) -> ast.AST:
        self.generic_visit(node)
        return self._drop_member(node)

    def _drop_member(self, node: ast.Tuple | ast.Set) -> ast.AST:
        count = len(node.elts)
        for i in range(count if count > 1 else 0):
            if self._site(node, f"member {i + 1} of {count} dropped"):
                del node.elts[i]
                break
        return node

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        node.value = self.visit(node.value)
        if isinstance(node.slice, ast.Tuple):  # x[a, b]: its members may change, but none is dropped
            node.slice.elts = [self.visit(e) for e in node.slice.elts]
        else:
            node.slice = self.visit(node.slice)
        return node

    def visit_If(self, node: ast.If) -> ast.AST | list[ast.stmt]:
        is_guard = all(isinstance(stmt, (ast.Raise, ast.Continue, ast.Return)) for stmt in node.body)  # before any body mutant
        self.generic_visit(node)
        if is_guard and self._site(node, "if guard dropped"):
            return node.orelse or ast.copy_location(ast.Pass(), node)
        return node

    def visit_Raise(self, node: ast.Raise) -> ast.AST:
        self.generic_visit(node)
        if self._site(node, "raise -> pass"):
            return ast.copy_location(ast.Pass(), node)
        return node


def mutant_source(source: str, target: int | None) -> tuple[str, list[tuple[int, str]]]:
    """The module with mutant `target` applied (None: unchanged), and every mutant's (line, change)."""
    mutator = Mutator(target)
    tree = ast.fix_missing_locations(mutator.visit(ast.parse(source)))
    return ast.unparse(tree) + "\n", mutator.sites


def run_tests(work: Path, tests: list[str], timeout: float | None) -> tuple[str, float]:
    """Run pytest with -x in the work copy: ("pass" | "fail" | "timeout", seconds)."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - start


def mutate_module(work: Path, module: Path) -> tuple[int, int]:
    """Run each mutant of one module (a path relative to the repository); print each verdict; (killed, run)."""
    target = work / module
    original = target.read_text(encoding="utf-8")
    own = Path("tests") / f"test_{module.stem}.py"
    stages = ([[str(own)]] if (work / own).is_file() else []) + [[]]  # module tests first, then the full suite
    unchanged, sites = mutant_source(original, None)
    try:
        target.write_text(unchanged, encoding="utf-8")
        timeout = 0.0
        for tests in stages:
            verdict, seconds = run_tests(work, tests, None)
            if verdict != "pass":
                raise SystemExit(f"{module}: the tests fail on the module as ast.unparse writes it; no mutant can be judged")
            timeout = max(timeout, 3 * seconds + 10)
        killed = run = 0
        for number, (line, change) in enumerate(sites):
            target.write_text(mutant_source(original, number)[0], encoding="utf-8")
            for stage, tests in enumerate(stages):
                verdict, _ = run_tests(work, tests, timeout)
                if verdict != "pass":
                    break
            if verdict == "pass":
                status = "SURVIVED"
            else:
                status = f"killed by the {'module tests' if stage < len(stages) - 1 else 'full suite'}" + (" (timeout)" if verdict == "timeout" else "")
            print(f"#{number:<4} {module}:{line}  {change}  {status}", flush=True)
            run += 1
            killed += verdict != "pass"
    finally:
        target.write_text(original, encoding="utf-8")
    return killed, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files, relative to the repository root")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        totals = []
        for module in args.modules:
            killed, run = mutate_module(work, module)
            totals.append(f"{module}: {killed}/{run} killed" + (f" ({100 * killed / run:.1f}%)" if run else ""))
        print("\n".join(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
