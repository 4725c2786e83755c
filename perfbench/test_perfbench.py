"""Tests of the benchmark's own helpers: ``python -m pytest perfbench -q``."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import stats  # noqa: E402
from tracing import Probe, Tracer, self_times  # noqa: E402


# -- percentiles ---------------------------------------------------------
def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 50) == (50, 50)
    assert stats.percentile(samples, 99) == (99, 1)
    assert stats.percentile(samples, 100) == (100, 0)
    assert stats.percentile([7.0], 99) == (7.0, 0)


def test_percentile_beyond_excludes_ties_and_ignores_order():
    samples = [5, 1, 3, 3, 3, 9]
    # rank ceil(0.5 * 6) = 3 -> 3; only 5 and 9 lie strictly above it.
    assert stats.percentile(samples, 50) == (3, 2)
    summary = stats.summarize(samples, qs=(50, 99))
    assert summary == {
        "n": 6, "mean": 4.0, "p50": 3, "p50_beyond": 2, "p99": 9, "p99_beyond": 0
    }


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


# -- spans and self time -------------------------------------------------
def test_self_time_subtracts_covered_child_time():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping, so
    # they cover 1..6 = 5) and a grandchild [4, 5] inside the second.
    starts = [0.0, 1.0, 2.0, 4.0]
    ends = [10.0, 3.0, 6.0, 5.0]
    parents = [-1, 0, 0, 2]
    own = self_times(starts, ends, parents)
    assert own.tolist() == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    own = self_times([0.0, 2.0], [3.0, 5.0], [-1, 0])
    assert own.tolist() == pytest.approx([2.0, 3.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class Engine:
    """Stand-in for a package class whose methods call each other."""

    clock: FakeClock

    def outer(self, n):
        self.clock.advance(1.0)
        total = self.inner(n) + self.inner(n)
        self.clock.advance(0.5)
        return total

    def inner(self, n):
        self.clock.advance(2.0)
        return n


def test_wrapped_method_calling_wrapped_method_on_same_object():
    clock = FakeClock()
    Engine.clock = clock
    tracer = Tracer(clock)
    probes = [
        Probe(f"{__name__}:Engine.outer", "engine.outer", frozenset({"w"})),
        Probe(f"{__name__}:Engine.inner", "engine.inner", frozenset({"w"}), lambda a, r: a[1]),
    ]
    original = Engine.__dict__["outer"]
    tracer.install(probes)
    try:
        assert Engine().outer(3) == 6
    finally:
        tracer.uninstall()
    assert Engine.__dict__["outer"] is original
    assert tracer.calls == {"engine.outer": 1, "engine.inner": 2}
    assert tracer.rows == {"engine.inner": 6}
    own = tracer.self_times()
    assert own["engine.outer"] == pytest.approx(1.5)
    assert own["engine.inner"] == pytest.approx(4.0)
    assert tracer.durations("engine.inner", parent="engine.outer") == pytest.approx(4.0)
    assert tracer.root_time() == pytest.approx(5.5)
    # Both inner spans belong to the outer call's tree.
    assert tracer.roots == [0, 0, 0]
    assert tracer.rows_under("engine.", ("engine.outer",)) == 6
    tracer.check_fired(probes, "w")


def test_missing_public_callable_fails_loudly_and_unwraps():
    tracer = Tracer(FakeClock())
    probes = [
        Probe(f"{__name__}:Engine.inner", "engine.inner", frozenset()),
        Probe(f"{__name__}:Engine.renamed", "engine.renamed", frozenset()),
    ]
    original = Engine.__dict__["inner"]
    with pytest.raises(LookupError, match="Engine.renamed"):
        tracer.install(probes)
    assert Engine.__dict__["inner"] is original


def test_probe_that_never_fires_on_its_workload_fails():
    tracer = Tracer(FakeClock())
    probes = [Probe(f"{__name__}:Engine.inner", "engine.inner", frozenset({"w"}))]
    tracer.install(probes)
    tracer.uninstall()
    tracer.check_fired(probes, "other")  # not expected there
    with pytest.raises(RuntimeError, match="never fired on w"):
        tracer.check_fired(probes, "w")


def test_every_probe_target_exists_in_the_package():
    workloads = pytest.importorskip("workloads")
    tracer = Tracer(FakeClock())
    tracer.install(workloads.PROBES)
    tracer.uninstall()
    assert not tracer.names


# -- inputs --------------------------------------------------------------
@pytest.mark.parametrize("name", ["serve_churn", "train_sim"])
def test_input_digests_are_stable_for_a_seed(name):
    workloads = pytest.importorskip("workloads")
    workload = workloads.WORKLOADS[name]
    first = workload.generate(3, 4.0)["digests"]
    assert workload.generate(3, 4.0)["digests"] == first
    assert workload.generate(4, 4.0)["digests"] != first


def test_open_loop_schedule_is_seeded():
    workloads = pytest.importorskip("workloads")
    steady = workloads.WORKLOADS["serve_steady"]
    a = steady.generate(5, 2.0)
    b = steady.generate(5, 2.0)
    assert a["digests"] == b["digests"]
    assert len(a["arrival_s"]) == int(workloads.STEADY_RATE * 2.0 / 2)
    assert (a["arrival_s"][1:] >= a["arrival_s"][:-1]).all()

