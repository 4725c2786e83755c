"""The three benchmark workloads, driven only through public APIs.

Each workload has three steps.  ``generate(seed)`` makes every input
(traces, arrival schedules, stream picks) from the seed.  ``prepare``
trains the model and builds what the measured phase needs; together
with ``generate`` it is the set-up that ``setup_s`` times.
``run(prepared, budget_s)`` is the measured phase.  Its work is fixed
by the budget: as many rounds or cycles as take ``budget_s`` on the
reference host.  Two commits therefore do the same work, and so does
the traced repeat of a run.  Work fixed by time would not be: the
server keeps an index entry per request it ever admitted, so its
memory grows with throughput, and a faster commit would read as
hungrier.

The serving loops here call only ``open_stream``/``submit``/``tick``
(plus ``load_and_swap`` and the logger's ``flush``).  They do not reuse
``voyager.loadgen`` or ``voyager.shard``, so a change to those modules
cannot change how this benchmark measures.

Timings are reported in reference-host units (``stats.HostSpeed``):
closed-loop windows, open-loop segments and ``train_sim`` cycles are
each scaled by the host-speed samples at their two edges.  Raw timings
go to ``info``.

Every call into the package goes through a module attribute
(``vtrain.train``, not a name imported at load time) so that the traced
run's wrappers see it.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

import numpy as np
from stats import HostSpeed, digest_accesses, digest_array, median, percentile, summarize
from tracing import Probe

from voyager import adapt as vadapt
from voyager import distill as vdistill
from voyager import model as vmodel
from voyager import serve as vserve
from voyager import sim as vsim
from voyager import synthetic
from voyager import train as vtrain
from voyager.labeling import LabelConfig

clock = time.perf_counter

#: Model shape and training recipe of the bench's ``full`` profile.
EMBED_DIM = 16
HIDDEN_DIM = 32
HISTORY = 8
SEQ_LEN = 32
TBPTT = 8
TRAIN_STEPS = 400
BATCH_SIZE = 16
LR = 0.04
DEGREE = 2

#: Serving model: trained on a slice of every zoo workload, as
#: ``serve-bench`` does, since each stream replays one of them.
SERVE_TRAIN_PER_WORKLOAD = 750
#: Fine-tune steps that make the checkpoint ``serve_churn`` swaps in.
SWAP_FINE_TUNE_STEPS = 40

STEADY_STREAMS = 64
STEADY_STREAM_LEN = 1024  # replayed cyclically if a run outlasts it
STEADY_RATE = 1000.0  # open-loop aggregate requests/s
#: Reference-host speeds that turn ``--seconds`` into a fixed amount of
#: work (measured medians, in reference-host units).
STEADY_REF_ACC_PER_S = 5000.0
CHURN_REF_ACC_PER_S = 660.0
SIM_REF_CYCLE_S = 3.2
RATE_WINDOW_S = 0.5  # closed-loop stretch between host-speed samples
OPEN_SEGMENT_S = 1.0  # open-loop stretch between host-speed samples

CHURN_STREAMS = 128
CHURN_RESIDENT = 64
CHURN_CLIENTS = 16
CHURN_STREAM_LEN = 256
CHURN_PICKS = 1 << 16

SIM_WORKLOADS = ("multi_phase", "zipf_db")
SIM_TRACE_LEN = 6000
SIM_TRAIN_PREFIX = 4000
SIM_CONFIG = vsim.SimConfig(degree=2, distance=8, latency=8)
SIM_KINDS = ("neural", "table", "stride")

S, C, T = "serve_steady", "serve_churn", "train_sim"
SERVE = frozenset({S, C})
ALL = frozenset({S, C, T})


def _rows_arg(i: int) -> Callable:
    return lambda args, result: args[i].shape[0]


#: Layer boundaries the traced run wraps; the module name is the layer.
PROBES = (
    Probe("voyager.infer:InferenceEngine.feature_step", "infer.feature_step", ALL, _rows_arg(1)),
    Probe("voyager.infer:InferenceEngine.step_from_features", "infer.step_from_features", ALL, _rows_arg(2)),
    Probe("voyager.infer:InferenceEngine.rollout_window", "infer.rollout_window", SERVE, _rows_arg(1)),
    Probe("voyager.infer:InferenceEngine.rollout", "infer.rollout", frozenset({T}), lambda a, r: a[1].batch),
    Probe("voyager.infer:InferenceEngine.segment_states", "infer.segment_states", frozenset({T}), _rows_arg(1)),
    Probe("voyager.serve:PrefetchServer.submit", "serve.submit", SERVE),
    Probe("voyager.serve:PrefetchServer.tick", "serve.tick", SERVE, lambda a, r: len(r)),
    Probe("voyager.serve:SpillStore.save", "serve.spill.save", frozenset({C})),
    Probe("voyager.serve:SpillStore.load", "serve.spill.load", frozenset({C})),
    Probe("voyager.serve:PrefetchServer.swap_checkpoint", "serve.swap", frozenset({C})),
    Probe("voyager.serve:decode_block_candidates", "sim.decode", SERVE),
    Probe("voyager.sim:simulate", "sim.simulate", frozenset({T})),
    Probe("voyager.sim:NeuralPrefetcher.offline_candidates", "sim.candidates.neural", frozenset({T})),
    Probe("voyager.distill:TablePrefetcher.offline_candidates", "sim.candidates.table", frozenset({T})),
    Probe("voyager.baselines:StridePrefetcher.offline_candidates", "sim.candidates.stride", frozenset({T})),
    Probe("voyager.distill:build_table", "distill.build", frozenset({C, T})),
    Probe("voyager.distill:DistilledTable.lookup", "distill.lookup", frozenset({C}), lambda a, r: r[0] is not None),
    Probe("voyager.adapt:AccessLogger.log", "adapt.log", frozenset({C})),
    Probe("voyager.adapt:AccessLogger.flush", "adapt.flush", frozenset({C})),
    Probe("voyager.adapt:load_and_swap", "adapt.load_and_swap", frozenset({C})),
    Probe("voyager.train:build_sequence_dataset", "train.build_sequence_dataset", ALL),
    Probe("voyager.train:label_arrays", "labeling.label_arrays", ALL),
    Probe("voyager.model:HierarchicalModel.forward_sequence", "model.forward_sequence", ALL),
    Probe("voyager.model:HierarchicalModel.loss_and_grads_sequence", "model.loss_and_grads_sequence", ALL, lambda a, r: a[1].size),
    Probe("voyager.optim:Adam.step", "optim.adam_step", ALL),
    Probe("voyager.train:train", "train.train", ALL),
)


def sub_seed(seed: int, label: str) -> int:
    """Independent, stable seed for one named input of a run."""
    return zlib.crc32(f"{seed}/{label}".encode()) % (2**31)


@dataclass
class Phase:
    """What one measured run did and saw."""

    busy_s: float  # run() wall time minus arrival waits and speed samples
    requests: int  # served requests, or simulated accesses
    e2e: Dict[str, float]  # acc_per_s, p50_ms, p90_ms (train_s on train_sim)
    layer: Dict[str, float]  # layer numbers this benchmark measures itself
    attempted: int
    refused: int  # shed or orphaned: failed without a wrong answer
    #: Untimed output check; returns the number of wrong answers.  Run
    #: outside the traced region so checks add no spans.
    verify: Callable[[], int]
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Prepared:
    inputs: Dict[str, Any]
    train_s: float
    objects: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def train_model(trace, seed: int):
    """Sequence-mode training at the full profile's shape."""
    dataset = vtrain.build_sequence_dataset(
        trace, seq_len=SEQ_LEN, label_config=LabelConfig()
    )
    model = vmodel.HierarchicalModel(
        vmodel.ModelConfig(
            pc_vocab_size=dataset.pc_vocab.size,
            page_vocab_size=dataset.page_vocab.size,
            embed_dim=EMBED_DIM,
            hidden_dim=HIDDEN_DIM,
            history=HISTORY,
            seed=seed,
        )
    )
    vtrain.train(
        model,
        dataset,
        steps=TRAIN_STEPS,
        batch_size=BATCH_SIZE,
        lr=LR,
        seed=seed,
        tbptt=TBPTT,
        lr_schedule="cosine",
    )
    return model, dataset


def serving_inputs(seed: int, streams: int, stream_len: int) -> Dict[str, Any]:
    """Training trace plus per-stream traces, zoo workloads round-robin."""
    workloads = synthetic.WORKLOADS
    train_trace: List = []
    for name in workloads:
        train_trace.extend(
            synthetic.generate(
                name, SERVE_TRAIN_PER_WORKLOAD, seed=sub_seed(seed, f"train/{name}")
            )
        )
    traces = []
    for i in range(streams):
        name = workloads[i % len(workloads)]
        traces.append(
            synthetic.generate(name, stream_len, seed=sub_seed(seed, f"stream{i}/{name}"))
        )
    return {"train": train_trace, "streams": traces}


@dataclass
class Window:
    """One stretch of a closed loop between two host-speed samples."""

    rounds: int
    requests: int
    seconds: float
    factor: float  # mean host slowdown at the window's two edges

    @property
    def rate(self) -> float:
        """Requests per second in reference-host units."""
        return self.requests / self.seconds * self.factor


def closed_loop(
    round_fn: Callable[[int], int], speed: HostSpeed, rounds: int
) -> List[Window]:
    """Run ``round_fn(r)`` for rounds ``0 .. rounds - 1``.

    ``round_fn`` serves round ``r`` and returns its request count.
    Rounds are grouped into windows of at least ``RATE_WINDOW_S``, each
    scaled by the host speed at its two edges; the median window rate
    also shrugs off a short stall.
    """
    windows: List[Window] = []
    r = 0
    while r < rounds:
        start, first, requests = clock(), r, 0
        while clock() - start < RATE_WINDOW_S and r < rounds:
            requests += round_fn(r)
            r += 1
        seconds = clock() - start
        windows.append(Window(r - first, requests, seconds, speed.edge()))
    return windows


def scaled_latency_ms(latency_s: Sequence[float], windows: Sequence[Window]) -> List[float]:
    """Closed-loop latencies in ms, each scaled by its window's host speed.

    Every round answers all its requests, so each window's requests are
    a contiguous run of ``latency_s``.
    """
    out: List[float] = []
    for w in windows:
        lo = len(out)
        out.extend(v * 1e3 / w.factor for v in latency_s[lo : lo + w.requests])
    return out


def _ms(values: Sequence[float]) -> List[float]:
    return [v * 1e3 for v in values]


def _source_counts(*snapshots: Dict[str, Any]) -> Dict[str, float]:
    out = {}
    for source in ("neural", "table", "cold", "shed", "orphaned"):
        out[f"serve.responses.{source}"] = sum(s[source] for s in snapshots)
    return out


def _batch_mean(*snapshots: Dict[str, Any]) -> float:
    ticks = sum(n for s in snapshots for n in s["batch_size_hist"].values())
    reqs = sum(b * n for s in snapshots for b, n in s["batch_size_hist"].items())
    return reqs / ticks if ticks else 0.0


# ----------------------------------------------------------------------
# serve_steady
# ----------------------------------------------------------------------
class ServeSteady:
    """64 resident streams on one server: closed loop, then open loop."""

    name = S
    setup_reps = 5

    def generate(self, seed: int, budget_s: float) -> Dict[str, Any]:
        inputs = serving_inputs(seed, STEADY_STREAMS, STEADY_STREAM_LEN)
        rng = np.random.default_rng(sub_seed(seed, "arrivals"))
        # A Poisson process at the aggregate rate whose arrivals pick a
        # stream uniformly is the merge of independent per-stream
        # Poisson processes at rate / streams.
        n = int(STEADY_RATE * budget_s / 2)
        inputs["arrival_s"] = np.cumsum(rng.exponential(1.0 / STEADY_RATE, n))
        inputs["arrival_stream"] = rng.integers(0, STEADY_STREAMS, n)
        inputs["digests"] = {
            "train": digest_accesses([inputs["train"]]),
            "streams": digest_accesses(inputs["streams"]),
            "arrivals": digest_array(
                np.stack([inputs["arrival_s"], inputs["arrival_stream"]])
            ),
        }
        return inputs

    def prepare(self, inputs: Dict[str, Any], seed: int, work: Path) -> Prepared:
        t0 = clock()
        model, dataset = train_model(inputs["train"], sub_seed(seed, "model"))
        return Prepared(
            inputs,
            clock() - t0,
            {"model": model, "pc_vocab": dataset.pc_vocab, "page_vocab": dataset.page_vocab},
        )

    def _server(self, prepared: Prepared):
        o = prepared.objects
        server = vserve.PrefetchServer(
            o["model"],
            o["pc_vocab"],
            o["page_vocab"],
            vserve.ServeConfig(
                degree=DEGREE,
                max_sessions=STEADY_STREAMS,
                max_pending=4 * STEADY_STREAMS,
                max_batch=STEADY_STREAMS,
            ),
        )
        return server, [server.open_stream() for _ in range(STEADY_STREAMS)]

    def run(self, prepared, budget_s, speed, seed=0, work=None) -> Phase:
        run_start, sampled = clock(), speed.kernel_total_s
        traces = prepared.inputs["streams"]
        arrival_s = prepared.inputs["arrival_s"]
        arrival_stream = prepared.inputs["arrival_stream"]
        # Closed-loop answers the open loop's requests are checked
        # against; later ones are not kept, so memory does not grow
        # with throughput.
        keep = int(np.bincount(arrival_stream, minlength=STEADY_STREAMS).max())

        # Closed loop: every stream submits its next access, then one
        # tick answers all 64; half the budget at the reference rate.
        server, sids = self._server(prepared)
        closed: List[List[List[int]]] = [[] for _ in sids]
        closed_latency: List[float] = []

        def one_round(r: int) -> int:
            self._round(server, sids, traces, r, closed, keep, closed_latency)
            return STEADY_STREAMS

        timed_rounds = max(1, round(budget_s / 2 * STEADY_REF_ACC_PER_S / STEADY_STREAMS))
        windows = closed_loop(one_round, speed, timed_rounds)
        closed_snap = server.stats.snapshot()
        closed_server = (server, sids)

        # Open loop on a fresh server: arrivals are due on the seeded
        # schedule whether or not the server keeps up, and latency runs
        # from the due time.  The schedule is served in segments of
        # OPEN_SEGMENT_S; each drains, then the host speed is sampled.
        server, sids = self._server(prepared)
        n = len(arrival_s)
        pos = np.zeros(STEADY_STREAMS, dtype=np.int64)
        meta: Dict[int, tuple] = {}
        latency: List[float] = []  # scaled by the segment's host speed
        raw_latency: List[float] = []
        late: List[float] = []
        queue_wait: List[float] = []
        service: List[float] = []
        answered: List[tuple] = []  # (stream, k-th access, candidates)
        idle = 0.0
        i = 0
        while i < n:
            seg_end = (int(arrival_s[i] // OPEN_SEGMENT_S) + 1) * OPEN_SEGMENT_S
            seg_latency: List[float] = []
            t0 = clock() - arrival_s[i]  # the first arrival is due now
            while (i < n and arrival_s[i] < seg_end) or server.pending:
                now = clock() - t0
                while i < n and arrival_s[i] < seg_end and arrival_s[i] <= now:
                    s = int(arrival_stream[i])
                    k = int(pos[s])
                    pos[s] += 1
                    access = traces[s][k % len(traces[s])]
                    submitted = clock()
                    seq = server.submit(sids[s], access.pc, access.address)
                    meta[seq] = (i, s, k, submitted)
                    late.append(submitted - t0 - arrival_s[i])
                    i += 1
                if server.pending:
                    start = clock()
                    responses = server.tick()
                    done = clock()
                    for resp in responses:
                        j, s, k, submitted = meta.pop(resp.seq)
                        seg_latency.append(done - t0 - arrival_s[j])
                        queue_wait.append(start - submitted)
                        service.append(done - start)
                        if resp.source != vserve.SOURCE_SHED:  # degraded by design
                            answered.append((s, k, resp.candidates))
                elif i < n and arrival_s[i] < seg_end:
                    wait_from = clock()
                    gap = arrival_s[i] - (wait_from - t0)
                    if gap > 0.002:
                        time.sleep(gap - 0.001)
                    while clock() - t0 < arrival_s[i]:
                        pass
                    idle += clock() - wait_from
            factor = speed.edge()
            raw_latency.extend(seg_latency)
            latency.extend(v / factor for v in seg_latency)
        open_snap = server.stats.snapshot()

        def verify() -> int:
            # Same traces, different batching: batched == serial means
            # the open loop must answer exactly as the closed loop did.
            # Top the closed loop up so every open request has a match.
            server, sids = closed_server
            for r in range(timed_rounds, keep):
                self._round(server, sids, traces, r, closed, keep)
            return sum(cands != closed[s][k] for s, k, cands in answered)

        closed_requests = timed_rounds * STEADY_STREAMS
        closed_ms = scaled_latency_ms(closed_latency, windows)
        raw_ms = _ms(raw_latency)
        lat = _ms(latency)
        layer = {
            "serve.queue_wait_ms_p50": percentile(_ms(queue_wait), 50)[0],
            "serve.service_ms_p50": percentile(_ms(service), 50)[0],
            "serve.gen_late_ms_p99": percentile(_ms(late), 99)[0],
            "serve.open_latency_ms_p50": percentile(lat, 50)[0],
            "serve.open_latency_ms_p90": percentile(lat, 90)[0],
            "serve.latency_ms_p99": percentile(raw_ms, 99)[0],
            "serve.tick.batch_mean": _batch_mean(closed_snap, open_snap),
        }
        layer.update(_source_counts(closed_snap, open_snap))
        return Phase(
            busy_s=clock() - run_start - idle - (speed.kernel_total_s - sampled),
            requests=closed_requests + n,
            e2e={
                "acc_per_s": median([w.rate for w in windows]),
                "p50_ms": percentile(closed_ms, 50)[0],
                "p90_ms": percentile(closed_ms, 90)[0],
            },
            layer=layer,
            attempted=closed_requests + n,
            refused=sum(
                snap["shed"] + snap["orphaned"] for snap in (closed_snap, open_snap)
            ),
            verify=verify,
            info={
                "closed_rounds": timed_rounds,
                "closed_raw_acc_per_s": median([w.requests / w.seconds for w in windows]),
                "closed_factors": [w.factor for w in windows],
                "open_requests": n,
                "open_idle_s": idle,
                "closed_latency_ms": summarize(closed_ms, qs=(50, 90, 99)),
                "open_latency_ms_raw": summarize(raw_ms, qs=(50, 90, 99)),
                "open_latency_ms": summarize(lat, qs=(50, 90, 99)),
            },
        )

    @staticmethod
    def _round(server, sids, traces, r, out, keep, latency=None) -> None:
        submitted = []
        for s, sid in enumerate(sids):
            access = traces[s][r % len(traces[s])]
            submitted.append(clock())
            server.submit(sid, access.pc, access.address)
        responses = server.tick()
        if latency is not None:
            done = clock()
            latency.extend(done - t for t in submitted)
        if r < keep:
            index = {sid: s for s, sid in enumerate(sids)}
            for resp in responses:
                out[index[resp.stream_id]].append(resp.candidates)


# ----------------------------------------------------------------------
# serve_churn
# ----------------------------------------------------------------------
class ServeChurn:
    """128 streams over 64 resident slots, spill, logging, table, swap."""

    name = C
    setup_reps = 5

    def generate(self, seed: int, budget_s: float) -> Dict[str, Any]:
        inputs = serving_inputs(seed, CHURN_STREAMS, CHURN_STREAM_LEN)
        rng = np.random.default_rng(sub_seed(seed, "picks"))
        inputs["picks"] = rng.integers(0, CHURN_STREAMS, CHURN_PICKS)
        inputs["digests"] = {
            "train": digest_accesses([inputs["train"]]),
            "streams": digest_accesses(inputs["streams"]),
            "picks": digest_array(inputs["picks"]),
        }
        return inputs

    def prepare(self, inputs: Dict[str, Any], seed: int, work: Path) -> Prepared:
        t0 = clock()
        model, dataset = train_model(inputs["train"], sub_seed(seed, "model"))
        train_s = clock() - t0
        table = vdistill.build_table(
            model,
            dataset.pc_vocab,
            dataset.page_vocab,
            inputs["train"],
            vdistill.DistillConfig(
                depths=vdistill.depth_chain(4), table_size=4096, top_k=DEGREE
            ),
        )
        # The checkpoint swapped in mid-run: the serving model after a
        # short fine-tune, so the swap changes answers.
        tuned = vadapt.clone_model(model)
        vtrain.train(
            tuned,
            dataset,
            steps=SWAP_FINE_TUNE_STEPS,
            batch_size=BATCH_SIZE,
            lr=LR / 4,
            seed=sub_seed(seed, "fine-tune"),
            tbptt=TBPTT,
        )
        prefix = work / "checkpoint" / "swap"
        vmodel.save_checkpoint(
            prefix,
            tuned,
            dataset.pc_vocab,
            dataset.page_vocab,
            train_mode="sequence",
            seq_len=SEQ_LEN,
        )
        return Prepared(
            inputs,
            train_s,
            {
                "model": model,
                "pc_vocab": dataset.pc_vocab,
                "page_vocab": dataset.page_vocab,
                "table": table,
                "checkpoint": prefix,
            },
        )

    def _server(self, prepared: Prepared, resident: int, spill=None, logger=None):
        o = prepared.objects
        server = vserve.PrefetchServer(
            o["model"],
            o["pc_vocab"],
            o["page_vocab"],
            vserve.ServeConfig(
                degree=DEGREE,
                max_sessions=resident,
                max_pending=4 * CHURN_STREAMS,
                max_batch=CHURN_STREAMS,
                spill_dir=None if spill is None else str(spill),
            ),
            table=o["table"],
            logger=logger,
        )
        return server, [server.open_stream() for _ in range(CHURN_STREAMS)]

    @staticmethod
    def _requests(inputs, pos, r):
        """Round ``r``'s ``(stream, access)`` per client; advances ``pos``."""
        traces, picks = inputs["streams"], inputs["picks"]
        out = []
        for c in range(CHURN_CLIENTS):
            s = int(picks[(r * CHURN_CLIENTS + c) % len(picks)])
            out.append((s, traces[s][int(pos[s]) % len(traces[s])]))
            pos[s] += 1
        return out

    def run(self, prepared, budget_s, speed, seed=0, work=None) -> Phase:
        run_start, sampled = clock(), speed.kernel_total_s
        phase_dir = work / f"churn-{time.monotonic_ns()}"
        logger = vadapt.AccessLogger(phase_dir / "log")
        server, sids = self._server(
            prepared, CHURN_RESIDENT, spill=phase_dir / "spill", logger=logger
        )
        pos = np.zeros(CHURN_STREAMS, dtype=np.int64)
        answers: List[List[int]] = []
        latency: List[float] = []
        queue_wait: List[float] = []
        service: List[float] = []
        rounds = max(2, round(budget_s * CHURN_REF_ACC_PER_S / CHURN_CLIENTS))
        swap_round = rounds // 2

        def one_round(r: int) -> int:
            if r == swap_round:
                vadapt.load_and_swap(server, prepared.objects["checkpoint"])
            submitted: Dict[int, float] = {}
            for s, access in self._requests(prepared.inputs, pos, r):
                start = clock()
                submitted[server.submit(sids[s], access.pc, access.address)] = start
            start = clock()
            responses = server.tick()
            done = clock()
            for resp in responses:
                latency.append(done - submitted[resp.seq])
                queue_wait.append(start - submitted[resp.seq])
                service.append(done - start)
                answers.append(resp.candidates)
            logger.flush()
            return len(responses)

        windows = closed_loop(one_round, speed, rounds)
        logger.close()
        snap = server.stats.snapshot()
        log_bytes = sum(p.stat().st_size for p in (phase_dir / "log").iterdir())

        raw_ms = _ms(latency)
        lat = scaled_latency_ms(latency, windows)
        requests = rounds * CHURN_CLIENTS
        layer = {
            "serve.queue_wait_ms_p50": percentile(_ms(queue_wait), 50)[0],
            "serve.service_ms_p50": percentile(_ms(service), 50)[0],
            "serve.latency_ms_p99": percentile(raw_ms, 99)[0],
            "serve.tick.batch_mean": _batch_mean(snap),
            "adapt.log.dropped": logger.dropped,
            "adapt.flush.bytes": log_bytes,
        }
        layer.update(_source_counts(snap))
        return Phase(
            busy_s=clock() - run_start - (speed.kernel_total_s - sampled),
            requests=requests,
            e2e={
                "acc_per_s": median([w.rate for w in windows]),
                "p50_ms": percentile(lat, 50)[0],
                "p90_ms": percentile(lat, 90)[0],
            },
            layer=layer,
            attempted=requests,
            refused=snap["shed"] + snap["orphaned"],
            verify=lambda: self._replay_mismatches(prepared, rounds, swap_round, answers),
            info={
                "rounds": rounds,
                "swap_round": swap_round,
                "raw_acc_per_s": median([w.requests / w.seconds for w in windows]),
                "factors": [w.factor for w in windows],
                "spilled": snap["spilled"],
                "restored": snap["restored"],
                "latency_ms_raw": summarize(raw_ms, qs=(50, 90, 99)),
                "latency_ms": summarize(lat, qs=(50, 90, 99)),
            },
        )

    def _replay_mismatches(self, prepared, rounds, swap_round, answers) -> int:
        """Untimed replay with every session resident and no logger."""
        server, sids = self._server(prepared, CHURN_STREAMS)
        pos = np.zeros(CHURN_STREAMS, dtype=np.int64)
        replayed: List[List[int]] = []
        for r in range(rounds):
            if r == swap_round:
                vadapt.load_and_swap(server, prepared.objects["checkpoint"])
            for s, access in self._requests(prepared.inputs, pos, r):
                server.submit(sids[s], access.pc, access.address)
            replayed.extend(resp.candidates for resp in server.tick())
        missing = abs(len(replayed) - len(answers))
        return missing + sum(a != b for a, b in zip(answers, replayed))


# ----------------------------------------------------------------------
# train_sim
# ----------------------------------------------------------------------
class TrainSim:
    """Offline loop: train, distill, simulate on the held-out suffix."""

    name = T
    #: Set-up is input generation alone (~0.1 s), so more repeats are
    #: cheap and steady its median.
    setup_reps = 9

    def generate(self, seed: int, budget_s: float) -> Dict[str, Any]:
        traces = {
            name: synthetic.generate(name, SIM_TRACE_LEN, seed=sub_seed(seed, name))
            for name in SIM_WORKLOADS
        }
        return {
            "traces": traces,
            "digests": {name: digest_accesses([t]) for name, t in traces.items()},
        }

    def prepare(self, inputs: Dict[str, Any], seed: int, work: Path) -> Prepared:
        # Training is this workload's measured work, so set-up is input
        # generation alone.
        return Prepared(inputs, 0.0)

    def run(self, prepared, budget_s, speed, seed=0, work=None) -> Phase:
        cycles = max(1, round(budget_s / SIM_REF_CYCLE_S))
        sampled = speed.kernel_total_s
        train_s: List[float] = []
        distill_s: List[float] = []
        sim_rate: List[float] = []
        cycle_s: List[float] = []
        totals = {k: {"issued": 0, "useful": 0, "base": 0, "misses": 0} for k in SIM_KINDS}
        entries = 0  # table entries over both workloads, last cycle
        baselines: List[tuple] = []  # (workload, baseline_misses)
        t0 = clock()
        c = 0
        raw_cycle_s: List[float] = []
        while c < cycles:
            spent = {"train": 0.0, "distill": 0.0, "sim": 0.0}
            simulated = entries = 0
            for name in SIM_WORKLOADS:
                trace = prepared.inputs["traces"][name]
                prefix, suffix = trace[:SIM_TRAIN_PREFIX], trace[SIM_TRAIN_PREFIX:]
                a = clock()
                model, dataset = train_model(prefix, sub_seed(seed, f"model/{name}"))
                b = clock()
                table = vdistill.build_table(
                    model,
                    dataset.pc_vocab,
                    dataset.page_vocab,
                    prefix,
                    vdistill.DistillConfig(
                        depths=vdistill.depth_chain(4),
                        table_size=4096,
                        top_k=SIM_CONFIG.degree + SIM_CONFIG.distance,
                    ),
                    inference="stateful",
                    seq_len=SEQ_LEN,
                )
                d = clock()
                spent["train"] += b - a
                spent["distill"] += d - b
                entries += table.total_entries
                prefetchers = {
                    "neural": vsim.NeuralPrefetcher(
                        model,
                        dataset.pc_vocab,
                        dataset.page_vocab,
                        inference="stateful",
                        seq_len=SEQ_LEN,
                    ),
                    "table": vsim.make_prefetcher("table", table=table),
                    "stride": vsim.make_prefetcher("stride"),
                }
                results = {}
                for kind, prefetcher in prefetchers.items():
                    a = clock()
                    results[kind] = vsim.simulate(suffix, prefetcher, SIM_CONFIG, use_kernel=True)
                    spent["sim"] += clock() - a
                    simulated += len(suffix)
                for kind, res in results.items():
                    baselines.append((name, res.baseline_misses))
                    tot = totals[kind]
                    tot["issued"] += res.issued_prefetches
                    tot["useful"] += res.useful_prefetches
                    tot["base"] += res.baseline_misses
                    tot["misses"] += res.misses
            factor = speed.edge()
            raw_cycle_s.append(sum(spent.values()))
            train_s.append(spent["train"] / factor)
            distill_s.append(spent["distill"] / factor)
            sim_rate.append(simulated / spent["sim"] * factor)
            cycle_s.append(raw_cycle_s[-1] / factor)
            c += 1
        busy = clock() - t0 - (speed.kernel_total_s - sampled)
        layer: Dict[str, float] = {"distill.entries": entries}
        for kind, tot in totals.items():
            layer[f"sim.accuracy.{kind}"] = tot["useful"] / tot["issued"] if tot["issued"] else 0.0
            layer[f"sim.coverage.{kind}"] = (tot["base"] - tot["misses"]) / tot["base"]
        cycle_ms = _ms(cycle_s)

        def verify() -> int:
            # Every SimResult's no-prefetch baseline must equal a
            # demand-only replay of the same suffix.
            demand = {
                name: vsim.simulate(
                    prepared.inputs["traces"][name][SIM_TRAIN_PREFIX:], None, SIM_CONFIG
                ).misses
                for name in SIM_WORKLOADS
            }
            return sum(misses != demand[name] for name, misses in baselines)

        return Phase(
            busy_s=busy,
            requests=c * len(SIM_WORKLOADS) * len(SIM_KINDS) * (SIM_TRACE_LEN - SIM_TRAIN_PREFIX),
            e2e={
                "acc_per_s": median(sim_rate),
                "p50_ms": percentile(cycle_ms, 50)[0],
                "p90_ms": percentile(cycle_ms, 90)[0],
                "train_s": median(train_s),
            },
            layer=layer,
            attempted=len(baselines),
            refused=0,
            verify=verify,
            info={
                "cycles": c,
                "train_s": train_s,
                "distill_s": distill_s,
                "sim_acc_per_s": sim_rate,
                "cycle_s": cycle_s,
                "raw_cycle_s": raw_cycle_s,
            },
        )


WORKLOADS = {w.name: w for w in (ServeSteady(), ServeChurn(), TrainSim())}
