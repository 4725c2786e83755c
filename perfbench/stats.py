"""Measurement helpers: percentiles, input digests, peak memory, host facts.

Nothing here imports the package under test, so the helpers can be
tested (``python -m pytest perfbench``) without building any model.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and how many samples lie above it.

    The second value says how much the percentile rests on: a p99 with
    fewer than ten samples beyond it is the tail of a handful of
    requests, not a distribution.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = len(ordered) - bisect.bisect_right(ordered, value)
    return value, beyond


def summarize(samples: Sequence[float], qs: Iterable[float] = (50, 99)) -> Dict:
    """``{"n": ..., "mean": ..., "p50": ..., "p50_beyond": ..., ...}``."""
    out: Dict[str, float] = {"n": len(samples), "mean": sum(samples) / len(samples)}
    for q in qs:
        value, beyond = percentile(samples, q)
        key = f"p{q:g}"
        out[key] = value
        out[f"{key}_beyond"] = beyond
    return out


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)[0]


#: Median wall time of :func:`kernel_s` on the reference host: the 2-core
#: x86_64 VM that produced the numbers in README.md, at its usual speed.
REFERENCE_KERNEL_S = 0.060


def kernel_s() -> float:
    """Wall time of a fixed mix of small matmuls and interpreter work.

    The package's hot paths are this same mix: small BLAS calls between
    Python loops, dict and list work.  How long it takes right now, next
    to :data:`REFERENCE_KERNEL_S`, says how fast the host is running.
    It uses only NumPy and the interpreter, so no change to the package
    can change it.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 48))
    w = rng.standard_normal((48, 128))
    acc = 0
    t0 = time.perf_counter()
    for i in range(3000):
        y = x @ w
        np.tanh(y, out=y)
        acc += int(y.argmax())
        d = {j: (j, i) for j in range(30)}
        acc += len([v for v in d.values() if v[0] & 1])
    return time.perf_counter() - t0


class HostSpeed:
    """Samples :func:`kernel_s` to put timings in reference-host units.

    On a shared VM the same work ran anywhere from 1x to 2x slower
    between runs minutes apart, and process CPU time slowed with it, so
    the slowdown is the core's, not descheduling.  A run samples the
    kernel at both edges of every timed stretch and divides the
    slowdown out: a sample's ``factor`` is kernel time over
    :data:`REFERENCE_KERNEL_S` (above 1 on a slow host); a stretch's
    time is reported as ``raw / factor`` and a rate as ``raw * factor``,
    with the mean factor of its two edges.  One sample jitters by ~15%,
    so metrics are medians over many short stretches.
    """

    def __init__(self) -> None:
        self.factors: List[float] = []
        self.kernel_total_s = 0.0  # wall time spent sampling
        kernel_s()  # the first call pays one-time NumPy set-up
        self.sample()

    def sample(self) -> float:
        k = kernel_s()
        self.kernel_total_s += k
        self.factors.append(k / REFERENCE_KERNEL_S)
        return self.factors[-1]

    def edge(self) -> float:
        """Close a stretch: sample, and return the mean of its two edges."""
        before = self.factors[-1]
        return (before + self.sample()) / 2


def digest_accesses(traces: Sequence[Sequence]) -> str:
    """Stable digest of one or more access sequences (pc and address)."""
    h = hashlib.sha256()
    for trace in traces:
        pairs = np.array(
            [(a.pc, a.address) for a in trace], dtype=np.int64
        ).reshape(-1, 2)
        h.update(np.int64(len(trace)).tobytes())
        h.update(pairs.tobytes())
    return h.hexdigest()[:16]


def digest_array(values: np.ndarray) -> str:
    """Stable digest of a numeric array's dtype, shape and bytes."""
    values = np.ascontiguousarray(values)
    h = hashlib.sha256(f"{values.dtype.str}{values.shape}".encode())
    h.update(values.tobytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or -1 if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return -1
    libs = {
        line.split()[-1]
        for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, fs = "", "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, fs = point, fields[2]
    return fs


def host_facts(work_dir: Path) -> Dict[str, object]:
    """What a reader needs to compare numbers across machines."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 0
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "work_dir_fs": _fs_type(work_dir),
    }
