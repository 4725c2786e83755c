"""In-memory span tracing by wrapping a package's public callables.

The traced run replaces each :class:`Probe` target — a module-level
function or a method defined on a class — with a wrapper that records
one span (name, start, end, parent) per call, plus call and work-row
counts, and restores the originals afterwards.  Nothing under ``src/``
changes: spans sit at the layer boundaries the public API exposes.

A module-level function is wrapped under the name its *caller*
resolves.  ``voyager.serve`` imports ``decode_block_candidates`` from
``voyager.sim`` by name, so the tick path only sees a wrapper installed
as ``voyager.serve.decode_block_candidates``.  Methods are wrapped on
the class, so a wrapped method calling another wrapped method on
``self`` records a nested span.
"""

from __future__ import annotations

import csv
import functools
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

#: ``rows(args, result) -> int``: work rows one call processed.
RowCounter = Callable[[Tuple[Any, ...], Any], int]


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``;
    ``name`` is the span name; ``expect`` lists the workloads on which
    the probe must fire at least once.
    """

    target: str
    name: str
    expect: FrozenSet[str]
    rows: Optional[RowCounter] = None


class Tracer:
    """Span and counter store; spans stay in memory until :meth:`write`."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.roots: List[int] = []  # top-level span each span belongs to
        self.span_rows: List[int] = []
        self.calls: Dict[str, int] = {}
        self.rows: Dict[str, int] = {}
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else idx)
        self.ends.append(float("nan"))
        self.span_rows.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def wrap(self, fn: Callable, name: str, rows: Optional[RowCounter]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.calls[name] = self.calls.get(name, 0) + 1
            if rows is not None:
                n = int(rows(args, result))
                self.span_rows[idx] = n
                self.rows[name] = self.rows.get(name, 0) + n
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self, probes: Sequence[Probe]) -> None:
        """Wrap every probe target; raise if one no longer exists."""
        for probe in probes:
            module_name, _, attr = probe.target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None or leaf not in vars(owner):
                self.uninstall()
                raise LookupError(
                    f"traced public callable {probe.target} no longer exists"
                )
            original = vars(owner)[leaf]
            setattr(owner, leaf, self.wrap(original, probe.name, probe.rows))
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        own = self_times(self.starts, self.ends, self.parents)
        out: Dict[str, float] = {}
        for name, value in zip(self.names, own):
            out[name] = out.get(name, 0.0) + float(value)
        return out

    def durations(self, name: str, parent: Optional[str] = None) -> float:
        """Summed wall time of ``name`` spans, optionally only under ``parent``."""
        total = 0.0
        for i, span_name in enumerate(self.names):
            if span_name != name:
                continue
            p = self.parents[i]
            if parent is not None and (p < 0 or self.names[p] != parent):
                continue
            total += self.ends[i] - self.starts[i]
        return total

    def rows_under(self, prefix: str, roots: Sequence[str]) -> int:
        """Rows of ``prefix*`` spans whose top-level span is in ``roots``."""
        return sum(
            n
            for name, n, root in zip(self.names, self.span_rows, self.roots)
            if n and name.startswith(prefix) and self.names[root] in roots
        )

    def root_time(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, p in enumerate(self.parents)
            if p < 0
        )

    def check_fired(self, probes: Sequence[Probe], workload: str) -> None:
        silent = [
            p.target
            for p in probes
            if workload in p.expect and not self.calls.get(p.name)
        ]
        if silent:
            raise RuntimeError(
                f"traced callables never fired on {workload}: {', '.join(silent)}"
            )

    def write(self, path: Path) -> Path:
        """Write every span as CSV: id, name, start_s, end_s, parent, root, rows.

        ``root`` is the top-level span a span belongs to, so all spans of
        one tick, simulate call or training run share it.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "root", "rows"])
            for i, name in enumerate(self.names):
                out.writerow(
                    [
                        i,
                        name,
                        f"{self.starts[i] - origin:.9f}",
                        f"{self.ends[i] - origin:.9f}",
                        self.parents[i],
                        self.roots[i],
                        self.span_rows[i],
                    ]
                )
        return path


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes negative and a
    parent's self time plus its children's covered time equals its
    duration.
    """
    starts_a = np.asarray(starts, dtype=np.float64)
    ends_a = np.asarray(ends, dtype=np.float64)
    own = ends_a - starts_a
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = starts_a[p], ends_a[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda k: starts_a[k]):
            a, b = max(starts_a[k], lo), min(ends_a[k], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[p] -= covered
    return own
