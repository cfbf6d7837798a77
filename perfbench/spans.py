"""Spans and counters recorded around calls into the program's layers.

The tracer wraps functions from the outside: module globals that the program
looks up at call time, and methods of the instances the benchmark creates.
Nothing inside ``src/`` is edited. When disabled, ``wrap`` and ``count``
return the function unchanged, so an untraced batch makes the same calls.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

NO_PARENT = 0


class Tracer:
    """Records spans as (name, id, parent id, thread, start ns, end ns, result size).

    Spans are plain tuples of numbers and strings, which the garbage
    collector stops tracking, so holding tens of thousands of them does not
    slow the program's own collections. A worker thread's outermost span gets
    the main thread's innermost open span as its parent, since the main
    thread's call handed that work to the pool.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int, int, int, int]] = []
        self._ids = itertools.count(NO_PARENT + 1)
        self._counters: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else NO_PARENT

    def wrap(self, name: str, fn: Callable, sized: bool = False) -> Callable:
        """``fn`` recording one span per call; ``sized`` also records len(result)."""
        if not self.enabled:
            return fn
        clock, thread = time.perf_counter_ns, threading.get_ident
        spans, next_id, stack_of, parent_of = self.spans, self._ids.__next__, self._stack, self._parent

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = parent_of(stack)
            span_id = next_id()
            stack.append(span_id)
            size = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    size = len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((name, span_id, parent, thread(), start, end, size))

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((name, span_id, parent, threading.get_ident(), start, end, 0))

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls without a span, for calls too cheap to time."""
        if not self.enabled:
            return fn
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    def counts(self) -> dict[str, int]:
        # Calling next() on an itertools.count is atomic under the interpreter lock.
        return {name: next(c) for name, c in self._counters.items()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, threads, total and self seconds, and summed result sizes.

        Self time is the span's duration minus the part of its interval that
        its children cover. Children on the span's own thread nest and never
        overlap; children on several worker threads may, so the covered part
        is the union of their intervals and two workers' concurrent children
        are not subtracted twice.
        """
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        threads: dict[str, set[int]] = defaultdict(set)
        for name, _, parent, thread, start, end, _ in self.spans:
            threads[name].add(thread)
            if parent != NO_PARENT:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = {}
        for name, span_id, _, _, start, end, size in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            agg = out.setdefault(name, {"calls": 0, "threads": len(threads[name]), "total_s": 0.0, "self_s": 0.0, "n": 0})
            agg["calls"] += 1
            agg["total_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - covered) / 1e9
            agg["n"] += size
        return out


@contextmanager
def patched(target: object, name: str, replacement: object) -> Iterator[None]:
    """Temporarily replace ``target.name``; restores the original afterwards."""
    original = getattr(target, name)
    setattr(target, name, replacement)
    try:
        yield
    finally:
        setattr(target, name, original)
