"""Outside-in tracing: wrap moealab's layer entry points, record spans in
memory, and reduce them to per-layer self time, call counts and dominance
comparisons.

A trace point replaces one module global or class attribute that moealab
looks up at call time (for example ``moealab.engine.generate`` or
``DeteriorationTracker.observe``). Nothing inside the package changes; the
wrappers are removed again when tracing ends.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

# counters(args, kwargs) -> the run's Counters, or None when the call does not
# carry them; extra(args, result) -> an int recorded with the span
CountersOf = Callable[[tuple, dict], Any]
ExtraOf = Callable[[tuple, Any], int]


@dataclass(frozen=True)
class TracePoint:
    name: str
    owner: Any
    attr: str
    counters: CountersOf | None = None
    extra: ExtraOf | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def empty_row() -> dict:
    """A reduced row for a span name that was never called."""
    return {"calls": 0, "self_ns": 0, "cmp": 0, "cells": 0, "extra_sum": 0,
            "extra_last": 0, "durations_ns": []}


def counters_arg(index: int, keyword: str = "counters") -> CountersOf:
    def get(args: tuple, kwargs: dict):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[index] if len(args) > index else None

    return get


def state_counters(args: tuple, kwargs: dict):
    return (args[0] if args else kwargs["state"]).counters


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, and the
    inclusive change of the run's dominance-comparison and cell-lookup
    counters where the call carries them."""

    def __init__(self, points: list[TracePoint], clock: Callable[[], int] = time.perf_counter_ns):
        self.points = points
        self.clock = clock
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.cmp: list[int | None] = []
        self.cells: list[int | None] = []
        self.extra: list[int | None] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        try:
            for point in self.points:
                original = vars(point.owner)[point.attr]
                self._installed.append((point.owner, point.attr, original))
                setattr(point.owner, point.attr, self._wrap(point, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._installed)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, point: TracePoint, original: Callable) -> Callable:
        name, get_counters, get_extra = point.name, point.counters, point.extra

        @functools.wraps(original)
        def traced(*args, **kwargs):
            counters = get_counters(args, kwargs) if get_counters else None
            idx = self._open(name, counters)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx, counters)
            if get_extra is not None:
                self.extra[idx] = get_extra(args, result)
            return result

        return traced

    def _open(self, name: str, counters) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.extra.append(None)
        if counters is None:
            self.cmp.append(None)
            self.cells.append(None)
        else:
            self.cmp.append(counters.dominance_comparisons)
            self.cells.append(counters.cell_lookups)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int, counters) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        if counters is not None:
            self.cmp[idx] = counters.dominance_comparisons - self.cmp[idx]
            self.cells[idx] = counters.cell_lookups - self.cells[idx]

    def reduce(self) -> dict[str, dict]:
        """Per span name: calls, self time (duration minus the time its child
        spans cover), self dominance comparisons and cell lookups, the sum and
        last value of the recorded extra, and every inclusive duration.

        A span that does not carry counters is charged exactly what its
        children were charged, so its own count is zero.
        """
        n = len(self.names)
        child_ns = [0] * n
        child_cmp = [0] * n
        child_cells = [0] * n
        incl_cmp = [0] * n
        incl_cells = [0] * n
        for i in reversed(range(n)):
            incl_cmp[i] = self.cmp[i] if self.cmp[i] is not None else child_cmp[i]
            incl_cells[i] = self.cells[i] if self.cells[i] is not None else child_cells[i]
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
                child_cmp[p] += incl_cmp[i]
                child_cells[p] += incl_cells[i]
        out: dict[str, dict] = {}
        for i in range(n):
            row = out.setdefault(self.names[i], empty_row())
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_ns"] += duration - child_ns[i]
            row["cmp"] += incl_cmp[i] - child_cmp[i]
            row["cells"] += incl_cells[i] - child_cells[i]
            row["durations_ns"].append(duration)
            if self.extra[i] is not None:
                row["extra_sum"] += self.extra[i]
                row["extra_last"] = self.extra[i]
        return out

    def write_csv(self, path) -> None:
        """One row per span; cmp and cells are inclusive (empty when the call
        carries no counters)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_ns", "end_ns", "cmp", "cells", "extra"])
            for i in range(len(self.names)):
                w.writerow([
                    i, self.parent[i], self.names[i], self.start[i], self.end[i],
                    "" if self.cmp[i] is None else self.cmp[i],
                    "" if self.cells[i] is None else self.cells[i],
                    "" if self.extra[i] is None else self.extra[i],
                ])
