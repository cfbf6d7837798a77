"""Innate motivation graph: the fixed 13-node DAG, its edge table and validation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Hashable, Iterable, TypeVar

from . import InputFileError, read_text, split_fields

T = TypeVar("T", bound=Hashable)


class NatureNodeId(str, Enum):
    """Closed inventory of the 13 innate-graph nodes."""

    FOOD = "food"
    EXPERIENCE_FEELING_POS = "experience_feeling_pos"
    EXPERIENCE_FEELING_NEG = "experience_feeling_neg"
    EMO_POS = "emo_pos"
    EMO_NEG = "emo_neg"
    NEED_FOOD_POS = "need_food_pos"
    NEED_FOOD_NEG = "need_food_neg"
    PAST_EXPERIENCE = "past_experience"
    ACTION_POS = "action_pos"
    ACTION_NEG = "action_neg"
    MENTAL_ACTION = "mental_action"
    PHYSICAL_ACTION = "physical_action"
    SOCIAL_ACTION = "social_action"


# Canonical display/serialization order (enum declaration order).
NODE_ORDER: dict[NatureNodeId, int] = {n: i for i, n in enumerate(NatureNodeId)}


class GraphError(Exception):
    """Base class for innate-graph errors."""


class CycleError(GraphError):
    def __init__(self, cycle: list[NatureNodeId]):
        self.cycle = cycle
        names = " -> ".join(n.value for n in cycle)
        super().__init__(f"graph contains a cycle: {names}")


class NodeSetError(GraphError):
    def __init__(self, missing: set[NatureNodeId], extra: set[NatureNodeId]):
        self.missing = missing
        self.extra = extra
        parts = []
        if missing:
            parts.append("missing " + ", ".join(sorted(n.value for n in missing)))
        if extra:
            parts.append("extra " + ", ".join(sorted(n.value for n in extra)))
        super().__init__("node set mismatch: " + "; ".join(parts))


class NoOppositeError(GraphError):
    def __init__(self, node: NatureNodeId):
        self.node = node
        super().__init__(f"node {node.value} has no polar opposite")


class GraphFileError(GraphError, InputFileError):
    pass


@dataclass(frozen=True)
class NatureEdge:
    head: NatureNodeId
    tail: NatureNodeId
    transmits: bool

    def __post_init__(self) -> None:
        if self.head == self.tail:
            raise ValueError(f"self-loop on {self.head.value}")


class NatureGraph:
    """Immutable directed graph over the 13 node ids.

    Construction only rejects structurally broken input (duplicate head/tail
    pairs); acyclicity and the exact node set are checked by validate_graph so
    that deliberately broken graphs can be built and then diagnosed.
    """

    def __init__(self, edges: Iterable[NatureEdge], nodes: Iterable[NatureNodeId] | None = None):
        self.edges: frozenset[NatureEdge] = frozenset(edges)
        self.nodes: frozenset[NatureNodeId] = (
            frozenset(nodes) if nodes is not None else frozenset(NatureNodeId)
        )
        seen: set[tuple[NatureNodeId, NatureNodeId]] = set()
        for e in self.edges:
            pair = (e.head, e.tail)
            if pair in seen:
                raise ValueError(f"duplicate edge {e.head.value} -> {e.tail.value}")
            seen.add(pair)
        tails: dict[NatureNodeId, list[NatureEdge]] = {}
        for e in sorted(self.edges, key=lambda e: (NODE_ORDER[e.head], NODE_ORDER[e.tail])):
            tails.setdefault(e.head, []).append(e)
        self._out = {h: tuple(es) for h, es in tails.items()}

    def out_edges(self, head: NatureNodeId) -> tuple[NatureEdge, ...]:
        return self._out.get(head, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NatureGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"NatureGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


N = NatureNodeId

# Edge table of the canonical graph. The four edges leaving past_experience
# carry causal structure but do not transmit activation; if they did, any past
# event would light up both need nodes and no output graph could be valid.
DEFAULT_EDGE_TABLE: tuple[tuple[NatureNodeId, NatureNodeId, bool], ...] = (
    (N.PAST_EXPERIENCE, N.EXPERIENCE_FEELING_POS, False),
    (N.PAST_EXPERIENCE, N.EXPERIENCE_FEELING_NEG, False),
    (N.PAST_EXPERIENCE, N.EMO_POS, False),
    (N.PAST_EXPERIENCE, N.EMO_NEG, False),
    (N.EXPERIENCE_FEELING_POS, N.NEED_FOOD_POS, True),
    (N.EMO_POS, N.NEED_FOOD_POS, True),
    (N.EXPERIENCE_FEELING_NEG, N.NEED_FOOD_NEG, True),
    (N.EMO_NEG, N.NEED_FOOD_NEG, True),
    (N.NEED_FOOD_POS, N.ACTION_POS, True),
    (N.NEED_FOOD_NEG, N.ACTION_NEG, True),
    (N.ACTION_POS, N.MENTAL_ACTION, True),
    (N.ACTION_POS, N.PHYSICAL_ACTION, True),
    (N.ACTION_POS, N.SOCIAL_ACTION, True),
    (N.ACTION_NEG, N.MENTAL_ACTION, True),
    (N.ACTION_NEG, N.PHYSICAL_ACTION, True),
    (N.ACTION_NEG, N.SOCIAL_ACTION, True),
)

_OPPOSITES: dict[NatureNodeId, NatureNodeId] = {
    N.EXPERIENCE_FEELING_POS: N.EXPERIENCE_FEELING_NEG,
    N.EXPERIENCE_FEELING_NEG: N.EXPERIENCE_FEELING_POS,
    N.EMO_POS: N.EMO_NEG,
    N.EMO_NEG: N.EMO_POS,
    N.NEED_FOOD_POS: N.NEED_FOOD_NEG,
    N.NEED_FOOD_NEG: N.NEED_FOOD_POS,
    N.ACTION_POS: N.ACTION_NEG,
    N.ACTION_NEG: N.ACTION_POS,
}


def default_graph() -> NatureGraph:
    """Build the canonical 13-node, 16-edge graph."""
    return NatureGraph(NatureEdge(h, t, tr) for h, t, tr in DEFAULT_EDGE_TABLE)


def validate_graph(graph: NatureGraph) -> None:
    """Check node-set completeness and acyclicity.

    Raises NodeSetError when the node set differs from the canonical 13 and
    CycleError (reporting one offending cycle) when the graph is cyclic.
    """
    canonical = set(NatureNodeId)
    missing = canonical - set(graph.nodes)
    extra = set(graph.nodes) - canonical
    if missing or extra:
        raise NodeSetError(missing, extra)

    cycle = find_cycle(
        sorted(graph.nodes, key=NODE_ORDER.get), lambda n: (e.tail for e in graph.out_edges(n))
    )
    if cycle:
        raise CycleError(cycle)


def find_cycle(roots: Iterable[T], successors: Callable[[T], Iterable[T]]) -> list[T] | None:
    """First cycle met by a depth-first walk from each root in turn, or None.

    The cycle is listed in walk order and closed on its first node. The walk
    keeps an explicit stack of successor iterators, so depth is not limited by
    the interpreter's recursion limit.
    """
    done: set[T] = set()
    for root in roots:
        if root in done:
            continue
        path = {root: None}  # the nodes on the current path, in walk order
        stack = [iter(successors(root))]
        while stack:
            for node in stack[-1]:
                if node in path:
                    cycle = list(path)
                    return cycle[cycle.index(node):] + [node]
                if node not in done:
                    path[node] = None
                    stack.append(iter(successors(node)))
                    break
            else:
                stack.pop()
                done.add(path.popitem()[0])
    return None


def reachable(seeds: Iterable[T], successors: Callable[[T], Iterable[T]]) -> set[T]:
    """The seeds plus every node reachable from them; successors is called once per node."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for node in successors(todo.pop()):
            if node not in seen:
                seen.add(node)
                todo.append(node)
    return seen


def opposite_node(node: NatureNodeId) -> NatureNodeId:
    """Swap pos and neg within a polarity family."""
    try:
        return _OPPOSITES[node]
    except KeyError:
        raise NoOppositeError(node) from None


def transmitting_tails(graph: NatureGraph, node: NatureNodeId) -> set[NatureNodeId]:
    """Tails of all transmitting edges leaving node."""
    if node not in graph.nodes:
        raise ValueError(f"unknown node {node!r}")
    return {e.tail for e in graph.out_edges(node) if e.transmits}


def load_graph_file(path: str | Path) -> NatureGraph:
    """Read an edge-list override file: head<TAB>tail<TAB>0|1 per line, # comments."""
    edges: list[NatureEdge] = []
    path = Path(path)
    for line_no, raw in enumerate(read_text(path, GraphFileError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head_s, tail_s, flag = split_fields(line, 3, path, line_no, GraphFileError)
        try:
            head = NatureNodeId(head_s)
            tail = NatureNodeId(tail_s)
        except ValueError as exc:
            raise GraphFileError(str(path), line_no, str(exc)) from None
        if flag not in ("0", "1"):
            raise GraphFileError(str(path), line_no, f"transmits flag must be 0 or 1, got {flag!r}")
        try:
            edges.append(NatureEdge(head, tail, flag == "1"))
        except ValueError as exc:
            raise GraphFileError(str(path), line_no, str(exc)) from None
    try:
        return NatureGraph(edges)
    except ValueError as exc:
        raise GraphFileError(str(path), 0, str(exc)) from None
