"""Trace-driven prefetch simulation: cache model, issue queue, metrics.

The paper evaluates Voyager not on argmax accuracy but on what a
prefetcher *does* to a cache.  This module provides the machinery:

- :class:`ArrayCache` — a deterministic set-associative LRU cache over
  cache-block addresses, held in dense NumPy planes;
- the ``Prefetcher`` protocol — ``update(access)`` observes a demand
  access, then ``prefetch(access, degree)`` returns up to ``degree``
  candidate block addresses (both baselines in
  :mod:`voyager.baselines`, :class:`NeuralPrefetcher` and
  :class:`voyager.distill.TablePrefetcher` implement it);
- :func:`simulate` — replays a trace through a demand cache with a
  bounded in-flight prefetch queue and a fixed fill latency, and
  reports coverage / accuracy / timeliness plus miss rates with and
  without prefetching.

Everything is deterministic: same trace + prefetcher + config means
bit-identical counters, so golden regression tests pin exact integers.

Accounting rules (documented here because they define the metrics):

- A prefetch issued at time ``t`` arrives at ``t + latency`` (time is
  measured in demand accesses).  Until then it is *in flight*.
- A demand hit on a prefetched, not-yet-demanded line counts that
  prefetch as **timely useful** (once — later re-hits are ordinary
  cache hits).
- A demand miss on a block that is still in flight counts the prefetch
  as **late useful**: the line was correctly predicted but arrived too
  late to hide the miss, so the access still counts as a miss.
- ``accuracy = (timely + late) / issued``;
  ``coverage = (baseline_misses - misses) / baseline_misses`` where the
  baseline is the identical cache replayed with no prefetcher;
  ``timeliness = timely / (timely + late)``.
- Candidates already resident or already in flight are filtered before
  issue and never count as issued.  When the in-flight queue is full,
  further candidates are dropped (counted in ``dropped_prefetches``).

There is one replay loop, fed by a per-position candidate table that is
computed before the replay starts.  A prefetcher sees only the access
stream, never cache state, so its candidates can always be collected
ahead of time.  The table comes from one of two sources:

- the prefetcher's ``offline_candidates(trace, degree, distance)`` hook,
  when it has one and accepts the trace (vectorised for the baselines,
  one batched inference-engine rollout for the neural model, flat dict
  probes for the distilled tables);
- otherwise, one ``update`` and one ``prefetch`` call per access.

An independent OrderedDict-based simulator that calls the protocol per
access during the replay lives in the test suite as the oracle these
counters are pinned to.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from voyager.infer import InferenceEngine
from voyager.model import HierarchicalModel
from voyager.traces import BLOCK_BITS, NUM_OFFSETS, OFFSET_BITS, MemoryAccess
from voyager.vocab import Vocab


class Prefetcher(Protocol):
    """What :func:`simulate` needs from a prefetcher.

    For each demand access, in trace order, ``update`` sees the access
    *before* ``prefetch`` is asked for candidates, so implementations
    may use the current access when predicting.  Neither call sees the
    cache, so :func:`simulate` makes all of them before its replay
    loop.  A prefetcher may also offer
    ``offline_candidates(trace, degree, distance)``, returning for each
    position ``t`` what ``prefetch(trace[t], degree + distance)
    [distance:]`` would return after ``update(trace[t])``, or ``None``
    to decline the trace.
    """

    name: str

    def update(self, access: MemoryAccess) -> None: ...

    def prefetch(self, access: MemoryAccess, degree: int = 1) -> List[int]: ...


# ----------------------------------------------------------------------
# cache model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the simulated cache (capacity = num_sets * ways blocks)."""

    num_sets: int = 64
    ways: int = 4

    def __post_init__(self) -> None:
        if self.num_sets < 1 or self.ways < 1:
            raise ValueError(
                f"num_sets and ways must be >= 1, got {self.num_sets}x{self.ways}"
            )

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.ways


class ArrayCache:
    """Array-backed set-associative cache with true-LRU replacement.

    Canonical state lives in dense NumPy arrays — a ``(num_sets, ways)``
    int64 block plane (``-1`` marks an empty way), a monotonic LRU stamp
    plane, and boolean ``prefetched``/``demanded`` flag planes — so
    victim selection is an ``argmin`` over a stamp row and a fill is a
    handful of scalar array writes.  A block -> way dict *indexes* the
    arrays to make residency probes O(1); it never holds state of its
    own.

    ``lookup`` and ``fill`` promote the
    touched block to MRU (a fresh stamp), ``contains`` never touches LRU
    state, and the eviction victim is the smallest stamp in the set —
    empty ways carry stamp ``-1`` so they are always consumed before any
    resident line is evicted.  Stamps are unique (one global monotonic
    clock per cache), so victim choice is deterministic and the
    hypothesis property suite pins this class against an
    :class:`~collections.OrderedDict` reference cache op for op.
    """

    def __init__(self, config: Optional[CacheConfig] = None):
        self.config = config or CacheConfig()
        shape = (self.config.num_sets, self.config.ways)
        self.blocks = np.full(shape, -1, dtype=np.int64)
        self.stamps = np.full(shape, -1, dtype=np.int64)
        self.prefetched = np.zeros(shape, dtype=bool)
        self.demanded = np.zeros(shape, dtype=bool)
        self._clock = 0
        self._way: Dict[int, int] = {}  # resident block -> way index

    def __contains__(self, block: int) -> bool:
        return block in self._way

    def contains(self, block: int) -> bool:
        """Residency probe without touching LRU state."""
        return block in self._way

    def lookup(self, block: int) -> Optional[Tuple[bool, bool]]:
        """Demand lookup: ``(prefetched, demanded)`` flags or ``None``.

        A hit is promoted to MRU; the returned flags are the line's
        state *before* any demand marking (callers score timeliness from
        them, then call :meth:`set_demanded`).
        """
        way = self._way.get(block)
        if way is None:
            return None
        s = block % self.config.num_sets
        self._clock += 1
        self.stamps[s, way] = self._clock
        return bool(self.prefetched[s, way]), bool(self.demanded[s, way])

    def set_demanded(self, block: int) -> None:
        """Mark a resident block as demand-touched (no LRU effect)."""
        way = self._way[block]
        self.demanded[block % self.config.num_sets, way] = True

    def fill(
        self, block: int, prefetched: bool = False
    ) -> Optional[Tuple[int, bool, bool]]:
        """Insert ``block`` as MRU, evicting the LRU way if the set is full.

        Returns the evicted ``(block, prefetched, demanded)`` triple or
        ``None``.  Filling a resident block just promotes it.
        """
        s = block % self.config.num_sets
        self._clock += 1
        way = self._way.get(block)
        if way is not None:
            self.stamps[s, way] = self._clock
            return None
        row = self.stamps[s]
        way = int(row.argmin())  # empty ways stamp -1: consumed first
        old = int(self.blocks[s, way])
        evicted = None
        if old >= 0:
            evicted = (
                old,
                bool(self.prefetched[s, way]),
                bool(self.demanded[s, way]),
            )
            del self._way[old]
        self.blocks[s, way] = block
        self.stamps[s, way] = self._clock
        self.prefetched[s, way] = prefetched
        self.demanded[s, way] = not prefetched
        self._way[block] = way
        return evicted

    def resident_blocks(self) -> List[int]:
        """All resident blocks, set by set, LRU->MRU (stamp order).

        The full LRU order, not just residency membership, is what the
        property tests compare against the reference cache.
        """
        out: List[int] = []
        for s in range(self.config.num_sets):
            for way in np.argsort(self.stamps[s], kind="stable"):
                if self.blocks[s, way] >= 0:
                    out.append(int(self.blocks[s, way]))
        return out


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimConfig:
    """Issue-policy and cache knobs for :func:`simulate`.

    Prefetchers return candidates ordered by predicted arrival (the
    baselines' sequential chains; the neural rollout): candidate ``k``
    approximates the access at ``t + k + 1``.  ``distance`` skips the
    first ``distance`` candidates so issues target accesses far enough
    out to beat ``latency`` — the classic prefetch-distance knob.  With
    ``distance=0`` a degree-1 next-line prefetch on a stride-1 stream is
    always correct but always late; ``distance >= latency`` makes it
    timely.
    """

    cache: CacheConfig = field(default_factory=CacheConfig)
    degree: int = 2  # max prefetches issued per demand access
    distance: int = 0  # lookahead: skip this many leading candidates
    latency: int = 8  # demand accesses until a prefetch fill arrives
    queue_capacity: int = 32  # max prefetches in flight

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.distance < 0:
            raise ValueError(f"distance must be >= 0, got {self.distance}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0, got {self.queue_capacity}"
            )


@dataclass(frozen=True)
class SimResult:
    """Raw counters plus derived prefetching metrics for one run."""

    prefetcher: str
    accesses: int
    misses: int  # demand misses with prefetching enabled
    baseline_misses: int  # demand misses of the same cache, no prefetcher
    issued_prefetches: int
    timely_prefetches: int  # prefetched line arrived before its demand hit
    late_prefetches: int  # correct but still in flight at demand time
    dropped_prefetches: int  # queue full at issue time
    evicted_unused_prefetches: int  # cache pollution
    #: per-phase wall-clock seconds (``simulate(..., profile=True)`` only):
    #: ``encode_s`` (trace -> block-id array), ``candidates_s`` (the
    #: per-position candidate table), ``cache_loop_s`` (replay loop).
    phases: Optional[Dict[str, float]] = None

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def baseline_miss_rate(self) -> float:
        return self.baseline_misses / self.accesses if self.accesses else 0.0

    @property
    def useful_prefetches(self) -> int:
        return self.timely_prefetches + self.late_prefetches

    @property
    def accuracy(self) -> float:
        """Useful (timely or late) prefetches per issued prefetch."""
        if not self.issued_prefetches:
            return 0.0
        return self.useful_prefetches / self.issued_prefetches

    @property
    def coverage(self) -> float:
        """Fraction of no-prefetch misses eliminated by prefetching."""
        if not self.baseline_misses:
            return 0.0
        return (self.baseline_misses - self.misses) / self.baseline_misses

    @property
    def timeliness(self) -> float:
        """Fraction of useful prefetches that arrived in time."""
        if not self.useful_prefetches:
            return 0.0
        return self.timely_prefetches / self.useful_prefetches

    def as_dict(self) -> Dict[str, float]:
        out = {
            "prefetcher": self.prefetcher,
            "accesses": self.accesses,
            "misses": self.misses,
            "baseline_misses": self.baseline_misses,
            "issued_prefetches": self.issued_prefetches,
            "timely_prefetches": self.timely_prefetches,
            "late_prefetches": self.late_prefetches,
            "dropped_prefetches": self.dropped_prefetches,
            "evicted_unused_prefetches": self.evicted_unused_prefetches,
            "miss_rate": self.miss_rate,
            "baseline_miss_rate": self.baseline_miss_rate,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "timeliness": self.timeliness,
        }
        if self.phases is not None:
            out["phases"] = dict(self.phases)
        return out


def simulate(
    trace: Sequence[MemoryAccess],
    prefetcher: Optional[Prefetcher],
    config: Optional[SimConfig] = None,
    *,
    use_kernel: bool = False,
    profile: bool = False,
) -> SimResult:
    """Replay ``trace`` through the cache with ``prefetcher`` driving fills.

    ``prefetcher=None`` (or ``degree=0``) simulates the demand-only
    cache, in which case ``misses == baseline_misses`` exactly — the
    degree-0 invariant the tests pin.  The no-prefetch baseline cache
    is replayed in the same pass, so one call yields both miss rates.

    Candidates are computed for the whole trace before the replay (see
    the module docstring for their two sources).  ``use_kernel=True``
    demands the prefetcher's own ``offline_candidates`` and raises
    :class:`ValueError` when it has no such hook or declines the trace.
    ``profile=True`` attaches per-phase wall-clock timings
    (``encode_s``, ``candidates_s``, ``cache_loop_s``) to
    :attr:`SimResult.phases`.
    """
    config = config or SimConfig()
    phases: Optional[Dict[str, float]] = {} if profile else None

    t0 = time.perf_counter()
    n = len(trace)
    blocks = (
        np.fromiter((a.address for a in trace), dtype=np.int64, count=n)
        >> BLOCK_BITS
    ).tolist()
    if phases is not None:
        phases["encode_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    candidates: Optional[List[List[int]]] = None
    if prefetcher is not None and config.degree > 0:
        offline = getattr(prefetcher, "offline_candidates", None)
        if offline is not None:
            candidates = offline(trace, config.degree, config.distance)
        if candidates is None:
            if use_kernel:
                raise ValueError(
                    "use_kernel=True but the prefetcher cannot provide "
                    "offline candidates for this trace (no "
                    "offline_candidates hook, or it declined); use "
                    "use_kernel=False to collect them per access"
                )
            candidates = _streamed_candidates(
                trace, prefetcher, config.degree, config.distance
            )
    if phases is not None:
        phases["candidates_s"] = time.perf_counter() - t0

    cache = ArrayCache(config.cache)
    baseline_cache = ArrayCache(config.cache)

    in_flight: "OrderedDict[int, int]" = OrderedDict()  # block -> arrival time
    arrivals: deque = deque()  # (arrival_time, block) in issue order

    misses = 0
    baseline_misses = 0
    issued = 0
    timely = 0
    late = 0
    dropped = 0
    evicted_unused = 0

    latency = config.latency
    capacity = config.queue_capacity

    t0 = time.perf_counter()
    for t, block in enumerate(blocks):
        # 1. land prefetches whose latency has elapsed.
        while arrivals and arrivals[0][0] <= t:
            _, arrived = arrivals.popleft()
            if in_flight.pop(arrived, None) is None:
                continue  # consumed early by a late demand miss
            evicted = cache.fill(arrived, prefetched=True)
            if evicted is not None and evicted[1] and not evicted[2]:
                evicted_unused += 1

        # 2. demand access against both caches.
        if baseline_cache.lookup(block) is None:
            baseline_misses += 1
            baseline_cache.fill(block)

        flags = cache.lookup(block)
        if flags is not None:
            if flags[0] and not flags[1]:
                timely += 1
            cache.set_demanded(block)
        else:
            misses += 1
            if block in in_flight:
                # Correct prediction, but the fill is still in flight:
                # the demand turns it into an ordinary (late) miss fill.
                late += 1
                del in_flight[block]
            evicted = cache.fill(block)
            if evicted is not None and evicted[1] and not evicted[2]:
                evicted_unused += 1

        # 3. issue from the precomputed candidate table (each row
        # already embeds the update-then-prefetch protocol).
        if candidates is not None:
            for cand in candidates[t]:
                if cand < 0 or cand in in_flight or cand in cache:
                    continue
                if len(in_flight) >= capacity:
                    dropped += 1
                    continue
                in_flight[cand] = t + latency
                arrivals.append((t + latency, cand))
                issued += 1
    if phases is not None:
        phases["cache_loop_s"] = time.perf_counter() - t0

    # Prefetches still unused (in cache) or in flight at trace end stay
    # unscored: they count in `issued`, lowering accuracy, which matches
    # hardware accounting for a finite evaluation window.
    return SimResult(
        prefetcher=prefetcher.name if prefetcher is not None else "none",
        accesses=n,
        misses=misses,
        baseline_misses=baseline_misses,
        issued_prefetches=issued,
        timely_prefetches=timely,
        late_prefetches=late,
        dropped_prefetches=dropped,
        evicted_unused_prefetches=evicted_unused,
        phases=phases,
    )


def _streamed_candidates(
    trace: Sequence[MemoryAccess],
    prefetcher: Prefetcher,
    degree: int,
    distance: int,
) -> List[List[int]]:
    """Per-position issue windows from per-access protocol calls.

    Row ``t`` is ``prefetch(trace[t], degree + distance)[distance:]``
    after ``update(trace[t])``.  Collecting the rows ahead of the
    replay is exact because a prefetcher never observes cache state.
    """
    want = degree + distance
    rows = []
    for access in trace:
        prefetcher.update(access)
        rows.append(prefetcher.prefetch(access, want)[distance:want])
    return rows

# ----------------------------------------------------------------------
# shared candidate helpers (simulator, distiller, serving decode)
# ----------------------------------------------------------------------
def page_id_table(page_vocab: Vocab) -> np.ndarray:
    """Vectorised page-id -> raw-page decode table.

    Index 0 is the OOV placeholder (rollouts never mark an OOV
    prediction valid, so the 0 there is never decoded).  Shared by
    :class:`NeuralPrefetcher` and the online serving layer
    (:mod:`voyager.serve`) so both decode predictions identically.
    """
    return np.array(
        [0] + [page_vocab.decode(i) for i in range(1, page_vocab.size)],
        dtype=np.int64,
    )


def decode_block_candidates(
    page_table: np.ndarray,  # from :func:`page_id_table`
    pages: np.ndarray,  # (S,) page vocab ids
    offsets: np.ndarray,  # (S,)
    valid: np.ndarray,  # (S,) bool, monotone prefix
    limit: int,
) -> List[int]:
    """Decode one rollout row into up to ``limit`` block addresses.

    ``valid`` is a monotone prefix (False from the first OOV step on),
    so its first False bounds the decodable candidates.
    """
    n = min(limit, valid.shape[0] if valid.all() else int(valid.argmin()))
    raw = page_table[pages[:n]]
    return ((raw << OFFSET_BITS) | offsets[:n]).tolist()


def encode_trace(
    pc_vocab: Vocab, page_vocab: Vocab, trace: Sequence[MemoryAccess]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pc_ids, page_ids, offsets)`` int64 arrays for a whole trace."""
    return (
        np.array(pc_vocab.encode_all(a.pc for a in trace), dtype=np.int64),
        np.array(page_vocab.encode_all(a.page for a in trace), dtype=np.int64),
        np.array([a.offset for a in trace], dtype=np.int64),
    )


def check_stateful(inference: str, seq_len: int) -> None:
    """Validate the inference arguments of the offline neural paths.

    Inference is stateful only; the ``inference`` keyword survives so
    callers that name the mode keep working.
    """
    if inference != "stateful":
        raise ValueError(f"inference must be 'stateful', got {inference!r}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")


def rollout_candidates(
    engine: InferenceEngine,
    page_table: np.ndarray,  # from :func:`page_id_table`
    pc_ids: np.ndarray,  # (n,) encoded trace
    page_ids: np.ndarray,  # (n,)
    offsets: np.ndarray,  # (n,)
    steps: int,
    seq_len: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stateful candidate blocks at every trace position, one batched pass.

    Embeds every access once (``feature_step``), rebuilds each
    position's carried state with ``segment_states`` (reset every
    ``seq_len`` accesses, the training segmentation), rolls every
    position out ``steps`` steps with ``rollout`` and decodes the
    predictions into block addresses.  Returns ``(blocks, counts)``:
    ``blocks[p, :counts[p]]`` are position ``p``'s candidates in
    rollout order (``counts`` stops at the first OOV prediction).

    The one candidate pass of the offline side:
    :meth:`NeuralPrefetcher.offline_candidates` slices its issue
    windows from these rows and :func:`voyager.distill.build_table`
    tabulates them.
    """
    x = engine.feature_step(pc_ids, page_ids, offsets)
    states = engine.segment_states(x, seq_len)
    pages, offs, valid = engine.rollout(states, pc_ids, steps)
    blocks = (page_table[pages] << OFFSET_BITS) | offs
    counts = np.where(valid.all(axis=1), steps, valid.argmin(axis=1))
    return blocks, counts


# ----------------------------------------------------------------------
# neural prefetcher adapter
# ----------------------------------------------------------------------
class NeuralPrefetcher:
    """Adapts a trained :class:`HierarchicalModel` to the sim protocol.

    Drives a cache-free :class:`~voyager.infer.InferenceEngine` the way
    :func:`voyager.train.train` trained the weights: the LSTM state is
    carried across accesses and reset every ``seq_len`` accesses (the
    segmentation ``build_sequence_dataset`` trains on).  ``update`` is
    one cell step; ``prefetch`` continues the carried state with the
    engine's state-continuation rollout (one cell step per lookahead
    step).  ``inference`` accepts only ``"stateful"``.

    The candidate list is temporally ordered — candidate ``k`` is the
    model's guess for the access ``k + 1`` steps ahead — matching the
    baselines' sequential chains, so :class:`SimConfig` ``distance``
    means the same thing for all prefetchers.  Rollouts stop early if a
    step predicts the OOV page: the model cannot name a concrete page
    beyond that horizon.

    :meth:`offline_candidates` computes the same per-position
    candidates for a whole trace in one batched pass
    (:func:`rollout_candidates`).  It leaves the streaming state
    untouched, so an instance can be simulated and then streamed.

    Float32 mode (``dtype=np.float32``) trades bit-exactness for
    roughly halved memory traffic; float64 (default) runs the model's
    own arithmetic (see :mod:`voyager.infer` for the bit-exactness
    contracts).
    """

    name = "neural"

    def __init__(
        self,
        model: HierarchicalModel,
        pc_vocab: Vocab,
        page_vocab: Vocab,
        dtype=np.float64,
        inference: str = "stateful",
        seq_len: int = 64,
    ):
        check_stateful(inference, seq_len)
        self.model = model
        self.pc_vocab = pc_vocab
        self.page_vocab = page_vocab
        self.seq_len = seq_len
        self.engine = InferenceEngine(model, dtype=dtype)
        self._page_table = page_id_table(page_vocab)
        # streaming storage: carried (h, c) + last pc id
        self._state = None
        self._last_pc_id = 0
        self._pos = -1

    def update(self, access: MemoryAccess) -> None:
        self._pos += 1
        if self._pos % self.seq_len == 0:
            self._state = self.engine.init_state(1)
        self._last_pc_id = self.pc_vocab.encode(access.pc)
        self._state = self.engine.step(
            self._state,
            np.array([self._last_pc_id], dtype=np.int64),
            np.array([self.page_vocab.encode(access.page)], dtype=np.int64),
            np.array([access.offset], dtype=np.int64),
        )

    def prefetch(self, access: MemoryAccess, degree: int = 1) -> List[int]:
        if degree < 1 or self._state is None:
            return []
        pages, offsets, valid = self.engine.rollout(
            self._state, np.array([self._last_pc_id], dtype=np.int64), degree
        )
        return decode_block_candidates(
            self._page_table, pages[0], offsets[0], valid[0], degree
        )

    def offline_candidates(
        self, trace: Sequence[MemoryAccess], degree: int, distance: int
    ) -> List[List[int]]:
        """Per-position issue windows for :func:`simulate`.

        Row ``t`` is what a fresh streaming prefetcher would return from
        ``prefetch(trace[t], degree + distance)[distance:]`` after
        ``update(trace[t])``, computed in one batched pass over the
        whole trace (:func:`rollout_candidates`).  The arithmetic per
        position matches the streaming mode, and this instance's
        streaming state is not touched.
        """
        want = degree + distance
        n = len(trace)
        if want < 1 or n == 0:
            return [[] for _ in range(n)]
        blocks, counts = rollout_candidates(
            self.engine,
            self._page_table,
            *encode_trace(self.pc_vocab, self.page_vocab, trace),
            want,
            self.seq_len,
        )
        return [
            row[distance:count]
            for row, count in zip(blocks.tolist(), counts.tolist())
        ]


def make_prefetcher(kind: str, table=None) -> Prefetcher:
    """Factory over the model-free prefetcher kinds used by bench and the CLI.

    ``kind='table'`` wraps a :class:`~voyager.distill.DistilledTable`
    (pass it as ``table``) — the distilled lookup-table predictor that
    replaces model arithmetic with context probes.  Neural prefetchers
    are built directly as :class:`NeuralPrefetcher`.
    """
    from voyager.baselines import NextLinePrefetcher, StridePrefetcher

    if kind == "next_line":
        return NextLinePrefetcher()
    if kind == "stride":
        return StridePrefetcher()
    if kind == "table":
        from voyager.distill import DistilledTable, TablePrefetcher

        if not isinstance(table, DistilledTable):
            raise ValueError(
                "kind='table' requires table=DistilledTable (build one "
                "with voyager.distill.build_table or the distill CLI)"
            )
        return TablePrefetcher(table)
    raise ValueError(
        f"unknown prefetcher kind {kind!r}; "
        "expected 'next_line', 'stride' or 'table'"
    )


#: Offset count re-exported for sim users that reason about block maths.
__all__ = [
    "ArrayCache",
    "CacheConfig",
    "NeuralPrefetcher",
    "Prefetcher",
    "SimConfig",
    "SimResult",
    "check_stateful",
    "decode_block_candidates",
    "encode_trace",
    "make_prefetcher",
    "page_id_table",
    "rollout_candidates",
    "simulate",
    "NUM_OFFSETS",
]
