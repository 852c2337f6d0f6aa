"""In-memory spans and counters, and wrappers that record them around calls.

A span is (name, start, end, parent).  Spans are kept in memory for the
whole traced pass and summarised when it ends; a span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Records spans and counters from one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = self.clock()
        self._open.pop()
        return span[2] - span[1]

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """``fn`` inside a span ``name``.

        ``after(args, result, seconds)`` runs once the call has returned,
        to read counts off its arguments or result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.end(index)
            if after is not None:
                after(args, result, seconds)
            return result

        return traced

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} over every closed span."""
        children: dict[int, list] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                raise RuntimeError(f"span {name!r} was never closed")
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered(start, end, children.get(index, ()))
        return out


class Patches:
    """Replaces functions by wrapped ones wherever modules bind them.

    A function imported by name into several modules (``from .groups
    import build_group``) is replaced in each, so calls through every
    binding are recorded.  ``restore`` puts the originals back.
    """

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo: list[tuple] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        wrapped = make(original)
        targets = [owner] + [m for m in self.modules if m is not owner]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, key, original))
                    setattr(target, key, wrapped)

    def restore(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()
