"""Spans around the calls into each layer, recorded from outside the program.

A :class:`Tracer` wraps a function so that each call records a span (name,
parent, start, end, counts).  :func:`rebind` installs wrappers on the module
attributes the program looks up at call time and restores the originals
afterwards.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    """In-memory span recorder; a disabled tracer returns functions as is."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # [name, parent index or None, start, end, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its counts dict."""
        if not self.enabled:
            yield {}
            return
        rec = [name, self._stack[-1] if self._stack else None,
               time.perf_counter(), None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec[4]
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` traced as ``name``; ``count(args, result)`` gives counts."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, result))
            return result
        return traced

    def root(self, index: int) -> str:
        """Name of the outermost span enclosing span ``index``."""
        name, parent = self.spans[index][:2]
        while parent is not None:
            name, parent = self.spans[parent][:2]
        return name

    def has_ancestor(self, index: int, prefix: str) -> bool:
        parent = self.spans[index][1]
        while parent is not None:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][1]
        return False

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def to_json(self) -> list[dict]:
        return [{"name": n, "parent": p, "start": s, "end": e, "counts": c}
                for n, p, s, e, c in self.spans]


def overhead_per_span(calls: int = 20000) -> float:
    """Seconds one traced call costs over a direct call, measured here."""
    noop = Tracer(True).wrap("probe", lambda: None)
    bare = lambda: None                                   # noqa: E731
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


@contextlib.contextmanager
def rebind(bindings):
    """Set each ``(owner, attribute, value)`` and restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, value in bindings:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
