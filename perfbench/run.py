"""Outside-in benchmark of the voyager prefetcher package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric declared in
``BENCHMARK.json``; ``--trace 1`` repeats the same work with the
package's public callables wrapped, then once more untraced as the
overhead base, and prints every per-layer metric.
The last stdout line is the result object; the line before it is the
full report (seed, input digests, host facts, raw samples), which is
also written under ``.perfbench_out/``.  Exit status is 0 only when the
run completed; wrong outputs are reported through ``correct`` and
``failed``.
"""

from __future__ import annotations

import os

# The package is single-threaded Python around small matmuls.  On a
# small host a second BLAS thread only spins against the benchmark loop (it
# measured slower and noisier on 2 cores), so every run pins BLAS to
# one thread before NumPy loads.  ``host.blas_threads`` records it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_package() -> None:
    src = ROOT / "src"
    if not (src / "voyager" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no voyager package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _declared() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read {path}: {exc}")


def _layer_metrics(tracer, traced, untraced, traced_busy: float, untraced_busy: float) -> Dict[str, float]:
    """Per-layer numbers: span-derived ones from the traced run, the
    benchmark's own measurements (waits, counts) from the untraced run."""
    own = tracer.self_times()
    calls, rows = tracer.calls, tracer.rows
    out: Dict[str, float] = {}
    for fn in ("feature_step", "step_from_features", "rollout_window", "rollout", "segment_states"):
        name = f"infer.{fn}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.rows"] = rows.get(name, 0)
        out[f"{name}.self_s"] = own.get(name, 0.0)
    # Rows entering the engine on the serving or simulation path (not
    # training-time distillation) per request or simulated access.
    served_rows = tracer.rows_under("infer.", ("serve.tick", "sim.simulate"))
    out["infer.rows_per_request"] = served_rows / traced.requests

    out["serve.submit.calls"] = calls.get("serve.submit", 0)
    out["serve.submit.self_s"] = own.get("serve.submit", 0.0)
    out["serve.tick.calls"] = calls.get("serve.tick", 0)
    out["serve.tick.self_s"] = own.get("serve.tick", 0.0)
    for key in ("serve.queue_wait_ms_p50", "serve.service_ms_p50", "serve.gen_late_ms_p99",
                "serve.open_latency_ms_p50", "serve.open_latency_ms_p90",
                "serve.latency_ms_p99", "serve.tick.batch_mean"):
        out[key] = untraced.layer.get(key, 0.0)
    out["serve.spill.saves"] = calls.get("serve.spill.save", 0)
    out["serve.spill.save_s"] = tracer.durations("serve.spill.save")
    out["serve.spill.loads"] = calls.get("serve.spill.load", 0)
    out["serve.spill.load_s"] = tracer.durations("serve.spill.load")
    out["serve.swap_s"] = tracer.durations("adapt.load_and_swap")
    for source in ("neural", "table", "cold", "shed", "orphaned"):
        key = f"serve.responses.{source}"
        out[key] = untraced.layer.get(key, 0)

    out["sim.decode.calls"] = calls.get("sim.decode", 0)
    out["sim.decode.self_s"] = own.get("sim.decode", 0.0)
    out["sim.simulate.calls"] = calls.get("sim.simulate", 0)
    candidates = 0.0
    for kind in ("neural", "table", "stride"):
        spent = tracer.durations(f"sim.candidates.{kind}", parent="sim.simulate")
        out[f"sim.candidates_s.{kind}"] = spent
        candidates += spent
        out[f"sim.accuracy.{kind}"] = untraced.layer.get(f"sim.accuracy.{kind}", 0.0)
        out[f"sim.coverage.{kind}"] = untraced.layer.get(f"sim.coverage.{kind}", 0.0)
    out["sim.replay_s"] = tracer.durations("sim.simulate") - candidates

    out["distill.build_s"] = tracer.durations("distill.build")
    out["distill.entries"] = untraced.layer.get("distill.entries", 0)
    lookups = calls.get("distill.lookup", 0)
    out["distill.lookup.calls"] = lookups
    out["distill.lookup.hit_ratio"] = rows.get("distill.lookup", 0) / lookups if lookups else 0.0
    out["distill.lookup_s"] = own.get("distill.lookup", 0.0)

    out["adapt.log.calls"] = calls.get("adapt.log", 0)
    out["adapt.log.dropped"] = untraced.layer.get("adapt.log.dropped", 0)
    out["adapt.flush_s"] = tracer.durations("adapt.flush")
    out["adapt.flush.bytes"] = untraced.layer.get("adapt.flush.bytes", 0)

    for name in ("train.build_sequence_dataset", "labeling.label_arrays", "model.forward_sequence",
                 "model.loss_and_grads_sequence", "optim.adam_step", "train.train"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = own.get(name, 0.0)
    train_time = tracer.durations("train.train")
    positions = rows.get("model.loss_and_grads_sequence", 0)
    out["train.positions_per_s"] = positions / train_time if train_time else 0.0

    out["trace.spans"] = len(tracer.names)
    out["trace.busy_s"] = traced_busy
    out["trace.coverage"] = tracer.root_time() / traced_busy
    out["trace_overhead"] = traced_busy / untraced_busy
    return out


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    declared = _declared()
    _load_package()
    import stats
    from tracing import Tracer
    from workloads import PROBES, WORKLOADS, clock

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        # Each set-up repeat is scaled by the host speed at its edges.
        speed = stats.HostSpeed()
        setup_raw: List[float] = []
        train_raw: List[float] = []
        setup_s: List[float] = []
        train_s: List[float] = []
        for rep in range(workload.setup_reps):
            t0 = clock()
            inputs = workload.generate(args.seed, args.seconds)
            prepared = workload.prepare(inputs, args.seed, work / f"setup{rep}")
            setup_raw.append(clock() - t0)
            train_raw.append(prepared.train_s)
            factor = speed.edge()
            setup_s.append(setup_raw[-1] / factor)
            train_s.append(train_raw[-1] / factor)
        untraced = workload.run(prepared, args.seconds, speed, seed=args.seed, work=work)
        phases = [untraced]
        mismatched = untraced.verify()
        spans_path = None
        if args.trace:
            tracer = Tracer(clock)
            tracer.install(PROBES)
            try:
                t0 = clock()
                traced_inputs = workload.generate(args.seed, args.seconds)
                traced_prepared = workload.prepare(traced_inputs, args.seed, work / "setup-traced")
                setup_traced = clock() - t0
                traced = workload.run(
                    traced_prepared, args.seconds, speed, seed=args.seed, work=work
                )
            finally:
                tracer.uninstall()
            tracer.check_fired(PROBES, args.workload)
            # The untraced run went first, on colder caches; repeat it
            # after the traced run and take the mean as the base.
            again = workload.run(prepared, args.seconds, speed, seed=args.seed, work=work)
            phases += [traced, again]
            mismatched += traced.verify() + again.verify()
            metrics = _layer_metrics(
                tracer,
                traced,
                untraced,
                traced_busy=setup_traced + traced.busy_s,
                untraced_busy=stats.median(setup_raw) + (untraced.busy_s + again.busy_s) / 2,
            )
            spans_path = tracer.write(
                ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
            )
            declared_metrics = declared["per_layer"]
        else:
            metrics = {
                "setup_s": stats.median(setup_s),
                "train_s": untraced.e2e.get("train_s", stats.median(train_s)),
                "acc_per_s": untraced.e2e["acc_per_s"],
                "p50_ms": untraced.e2e["p50_ms"],
                "p90_ms": untraced.e2e["p90_ms"],
                "peak_rss_mb": stats.peak_rss_mb(),
                "ok_frac": 1.0 - (untraced.refused + mismatched) / untraced.attempted,
            }
            declared_metrics = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    names = [m["name"] for m in declared_metrics]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    units = {m["name"]: m["unit"] for m in declared_metrics}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs["digests"],
        "host": stats.host_facts(ROOT),
        "setup_raw_s": setup_raw,
        "train_raw_s": train_raw,
        "host_speed_factors": speed.factors,
        "untraced": {"info": untraced.info, "layer": untraced.layer},
        "mismatched": mismatched,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n"
    )
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": mismatched == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.refused for p in phases) + mismatched,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
