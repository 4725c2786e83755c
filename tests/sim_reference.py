"""Reference simulator: the oracle the product simulator is pinned to.

:func:`voyager.sim.simulate` runs one replay loop over
:class:`~voyager.sim.ArrayCache` and takes its candidates from a
precomputed per-position table.  This module keeps the original,
independent implementation of the same accounting rules:

- :class:`SetAssociativeCache` — a set-associative true-LRU cache where
  each set is an :class:`~collections.OrderedDict` (iteration order is
  LRU -> MRU) of :class:`CacheLine` residency metadata;
- :func:`reference_simulate` — replays a trace through that cache and
  calls the prefetcher's ``update``/``prefetch`` once per access, in
  trace order, with no offline candidates and no batching.

Tests compare :class:`~voyager.sim.SimResult` counters from both
simulators and drive :class:`~voyager.sim.ArrayCache` against
:class:`SetAssociativeCache` op for op.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from voyager.sim import CacheConfig, Prefetcher, SimConfig, SimResult
from voyager.traces import MemoryAccess


@dataclass
class CacheLine:
    """Residency metadata for one cached block."""

    prefetched: bool = False
    demanded: bool = False  # a demand access has touched this line


class SetAssociativeCache:
    """Set-associative cache with true-LRU replacement over block addresses.

    Each set is an :class:`~collections.OrderedDict` from block address
    to :class:`CacheLine`; iteration order is LRU -> MRU.
    """

    def __init__(self, config: Optional[CacheConfig] = None):
        self.config = config or CacheConfig()
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(self.config.num_sets)
        ]

    def _set_for(self, block: int) -> "OrderedDict[int, CacheLine]":
        return self._sets[block % self.config.num_sets]

    def contains(self, block: int) -> bool:
        """Residency probe without touching LRU state."""
        return block in self._set_for(block)

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Demand lookup: returns the line (promoted to MRU) or ``None``."""
        lines = self._set_for(block)
        line = lines.get(block)
        if line is not None:
            lines.move_to_end(block)
        return line

    def fill(self, block: int, prefetched: bool = False) -> Optional[Tuple[int, CacheLine]]:
        """Insert ``block`` as MRU, evicting LRU if the set is full.

        Returns the ``(block, line)`` evicted, or ``None``.  Filling a
        resident block just promotes it.
        """
        lines = self._set_for(block)
        if block in lines:
            lines.move_to_end(block)
            return None
        evicted = None
        if len(lines) >= self.config.ways:
            evicted = lines.popitem(last=False)
        lines[block] = CacheLine(prefetched=prefetched, demanded=not prefetched)
        return evicted

    def resident_blocks(self) -> List[int]:
        """All resident blocks, set by set, LRU->MRU."""
        out: List[int] = []
        for lines in self._sets:
            out.extend(lines.keys())
        return out


def reference_simulate(
    trace: Sequence[MemoryAccess],
    prefetcher: Optional[Prefetcher],
    config: Optional[SimConfig] = None,
) -> SimResult:
    """Per-access ``update``/``prefetch`` calls against
    :class:`SetAssociativeCache`, with the accounting rules documented
    in :mod:`voyager.sim`."""
    config = config or SimConfig()
    cache = SetAssociativeCache(config.cache)
    baseline_cache = SetAssociativeCache(config.cache)

    in_flight: "OrderedDict[int, int]" = OrderedDict()  # block -> arrival time
    arrivals: deque = deque()  # (arrival_time, block) in issue order

    misses = 0
    baseline_misses = 0
    issued = 0
    timely = 0
    late = 0
    dropped = 0
    evicted_unused = 0

    for t, access in enumerate(trace):
        block = access.block

        # 1. land prefetches whose latency has elapsed.
        while arrivals and arrivals[0][0] <= t:
            _, arrived = arrivals.popleft()
            if in_flight.pop(arrived, None) is None:
                continue  # consumed early by a late demand miss
            evicted = cache.fill(arrived, prefetched=True)
            if evicted is not None and evicted[1].prefetched and not evicted[1].demanded:
                evicted_unused += 1

        # 2. demand access against both caches.
        if baseline_cache.lookup(block) is None:
            baseline_misses += 1
            baseline_cache.fill(block)

        line = cache.lookup(block)
        if line is not None:
            if line.prefetched and not line.demanded:
                timely += 1
            line.demanded = True
        else:
            misses += 1
            if block in in_flight:
                # Correct prediction, but the fill is still in flight:
                # the demand turns it into an ordinary (late) miss fill.
                late += 1
                del in_flight[block]
            evicted = cache.fill(block)
            if evicted is not None and evicted[1].prefetched and not evicted[1].demanded:
                evicted_unused += 1

        # 3. observe, then issue new prefetches.
        if prefetcher is not None and config.degree > 0:
            prefetcher.update(access)
            want = config.degree + config.distance
            candidates = prefetcher.prefetch(access, want)
            for cand in candidates[config.distance : want]:
                if cand < 0 or cand in in_flight or cache.contains(cand):
                    continue
                if len(in_flight) >= config.queue_capacity:
                    dropped += 1
                    continue
                in_flight[cand] = t + config.latency
                arrivals.append((t + config.latency, cand))
                issued += 1

    return SimResult(
        prefetcher=prefetcher.name if prefetcher is not None else "none",
        accesses=len(trace),
        misses=misses,
        baseline_misses=baseline_misses,
        issued_prefetches=issued,
        timely_prefetches=timely,
        late_prefetches=late,
        dropped_prefetches=dropped,
        evicted_unused_prefetches=evicted_unused,
    )
