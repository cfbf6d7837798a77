"""No definition in src/mea is dead: each module-level name and method is used somewhere in src/."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mea"

# Held only by perfbench/batch.py, which traces them by name; deleting them is a benchmark change.
# build_mea_dag is only imported, by runner under `# noqa: F401`, and an import is not a use.
BENCHMARK_ONLY = {"BeliefLexicon.lookup", "LlmClient.classify_action_event", "build_mea_dag"}


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each module-level function, class, assignment and method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m.name) for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(qualified, bare) for qualified, bare in found if not bare.startswith("__")]


def _references(tree: ast.Module) -> Counter[str]:
    """Names read and attributes reached: every use a definition can have. Importing a name is not using it."""
    uses: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def test_every_definition_in_src_is_used_in_src():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    uses = sum((_references(tree) for tree in trees), Counter())
    unused = {qualified for tree in trees for qualified, bare in _definitions(tree) if not uses[bare]}
    assert unused == BENCHMARK_ONLY
