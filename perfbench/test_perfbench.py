"""Self-tests of the benchmark's own logic (run with pytest).

They cover the tail-percentile rule, self-time subtraction, the
fidelity computation, the traced run's wrappers, the stats digest and
host-speed scaling; none of them times anything.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Tuple

import pytest

import layers
import scoring
from spans import Patches, Recorder, Span


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, p, rank",
    [(20, 50, 10), (21, 52, 11), (42, 76, 32), (48, 79, 38), (84, 88, 74),
     (105, 90, 95), (1000, 99, 990)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, p, rank):
    values = [float(i) for i in range(1, n + 1)]
    random.Random(n).shuffle(values)
    tail = scoring.tail(values)
    # Nearest rank picks p: with values 1..n the value is its own rank,
    # and the samples beyond it are the n - rank ranked after it.
    assert (tail.p, tail.n) == (p, n)
    assert n - rank >= 10
    # The reported value is the Harrell-Davis estimate at p, which on
    # 1..n lies within one rank of the nearest-rank sample.
    assert tail.value == scoring.quantile(values, p / 100)
    assert abs(tail.value - rank) < 1


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError, match="at least 20"):
        scoring.tail([1.0] * 19)


@pytest.mark.parametrize("n, q", [(19, 0.5), (39, 0.75), (99, 0.9)])
def test_quantile_weights_ranks_by_the_beta_distribution(n, q):
    import math

    # With whole a = q(n+1) and b = (1-q)(n+1) the Beta CDF is a
    # binomial tail: I_x(a, b) = P(Binomial(a + b - 1, x) >= a).
    a, b = round(q * (n + 1)), round((1 - q) * (n + 1))
    m = a + b - 1

    def cdf(x: float) -> float:
        return sum(math.comb(m, j) * x**j * (1 - x) ** (m - j) for j in range(a, m + 1))

    rng = random.Random(n)
    values = [rng.lognormvariate(0, 1) for _ in range(n)]
    ranked = sorted(values)
    expected = sum((cdf(i / n) - cdf((i - 1) / n)) * ranked[i - 1] for i in range(1, n + 1))
    assert scoring.quantile(values, q) == pytest.approx(expected, rel=1e-4)
    assert scoring.quantile([2.5] * n, q) == pytest.approx(2.5)


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per span name, from complete span records: each span's
    duration minus the part of it its children cover (overlapping
    children count once).  The reference for what Recorder.wrap
    accumulates as spans close."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[str, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - covered)
    return out


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_children_on_a_synthetic_tree():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def leaf():
        clock.advance(1.0)

    def mid():
        clock.advance(0.5)
        traced_leaf()
        traced_leaf()
        clock.advance(0.25)

    def root():
        clock.advance(2.0)
        traced_mid()
        clock.advance(3.0)
        traced_leaf()

    traced_leaf = rec.wrap("leaf", leaf, keep=True)
    traced_mid = rec.wrap("mid", mid, keep=True)
    rec.wrap("root", root, keep=True)()

    totals = rec.totals()
    assert totals["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0, "hits": 0}
    assert totals["mid"]["total_s"] == 2.75
    assert totals["mid"]["self_s"] == 0.75
    assert totals["root"]["total_s"] == 8.75
    assert totals["root"]["self_s"] == 5.0
    # Self times over the tree add up to the root's total.
    assert sum(t["self_s"] for t in totals.values()) == totals["root"]["total_s"]
    # The offline computation from span records agrees.
    assert self_times(rec.spans()) == {"leaf": 3.0, "mid": 0.75, "root": 5.0}
    parents = {s.name: s.parent for s in rec.spans()}
    ids = {s.name: s.id for s in rec.spans()}
    assert parents["root"] is None and parents["mid"] == ids["root"]


def test_overlapping_children_are_covered_once():
    spans = [
        Span(1, None, "parent", 0.0, 10.0, 0, 0),
        Span(2, 1, "child", 1.0, 4.0, 0, 0),
        Span(3, 1, "child", 3.0, 6.0, 0, 0),
        Span(4, 1, "child", 8.0, 12.0, 0, 0),  # clipped to the parent
    ]
    assert self_times(spans)["parent"] == pytest.approx(10.0 - 5.0 - 2.0)


def test_hits_cells_and_iterators():
    rec = Recorder(clock=FakeClock())
    load = rec.wrap("load", lambda key: key or None, keep=True, hit=lambda r: r is not None,
                    starts_cell=True)
    assert [load(k) for k in ("a", "", "b")] == ["a", None, "b"]
    assert rec.totals()["load"]["hits"] == 2
    assert [s.cell for s in rec.spans()] == [1, 2, 3]

    def gen():
        yield 1
        yield 2

    assert list(rec.wrap_iter("stream", gen)()) == [1, 2]
    assert rec.totals()["stream"]["calls"] == 3  # two items and the end


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    original = vars(Base)["f"]
    patches = Patches()
    patches.set(Base, "f", lambda self: "patched base")
    patches.set(Child, "f", lambda self: "patched child")
    assert Child().f() == "patched child"
    patches.restore()
    assert vars(Base)["f"] is original
    assert "f" not in vars(Child)
    assert Child().f() == "base"


# ----------------------------------------------------------------------
# Fidelity
# ----------------------------------------------------------------------


def _result(workload, config, ipc, size="bench"):
    from repro.api import Result
    from repro.timing.stats import Stats

    return Result(workload, size, config, Stats(cycles=1000, thread_instructions=int(ipc * 1000)))


def test_fidelity_on_a_hand_built_result_set_excludes_tmd():
    from repro.api import ResultSet

    rs = ResultSet([
        _result("3dfd", "baseline", 10.0),
        _result("3dfd", "sbi_swi", 11.0),
        _result("matrixmul", "baseline", 20.0),
        _result("matrixmul", "sbi_swi", 24.2),
        _result("bfs", "baseline", 4.0),
        _result("bfs", "sbi_swi", 6.0),
        # Excluded from suite means as in the paper: a 100x "gain" here
        # must not move the irregular number.
        _result("tmd1", "baseline", 1.0),
        _result("tmd1", "sbi_swi", 100.0),
        _result("tmd2", "baseline", 1.0),
        _result("tmd2", "sbi_swi", 0.01),
    ])
    fid = scoring.fidelity(rs)
    regular = 100.0 * ((1.1 * 1.21) ** 0.5 - 1.0)
    assert fid["regular"]["measured_pct"] == pytest.approx(regular)
    assert fid["regular"]["error_pp"] == pytest.approx(23.0 - regular)
    assert fid["irregular"]["measured_pct"] == pytest.approx(50.0)
    assert fid["irregular"]["error_pp"] == pytest.approx(10.0)
    assert fid["irregular"]["paper_pct"] == 40.0


def test_fidelity_pairs_device_variants_with_their_own_baseline():
    from repro.api import ResultSet

    rs = ResultSet([
        _result("3dfd", "baseline/sm_count=1", 10.0),
        _result("3dfd", "sbi_swi/sm_count=1", 20.0),
        _result("3dfd", "baseline/sm_count=4", 40.0),
        _result("3dfd", "sbi_swi/sm_count=4", 20.0),
        _result("bfs", "baseline/sm_count=1", 1.0),
        _result("bfs", "sbi_swi/sm_count=1", 1.0),
    ])
    gains = scoring.suite_gains(rs)
    assert gains["regular"] == pytest.approx(0.0)  # gmean(2.0, 0.5) = 1
    assert gains["irregular"] == pytest.approx(0.0)


def test_fidelity_needs_both_suites():
    from repro.api import ResultSet

    rs = ResultSet([_result("3dfd", "baseline", 1.0), _result("3dfd", "sbi_swi", 2.0)])
    with pytest.raises(ValueError, match="irregular"):
        scoring.fidelity(rs)


def test_checker_counts_each_failed_cell_once(tmp_path):
    import json

    import grids
    from repro.api import ResultSet

    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"cells": {"3dfd/baseline": {"stats_sha": "0" * 64}}}))
    checker = grids.Checker(str(golden))
    cold = ResultSet([_result("3dfd", "baseline", 1.0, size="tiny")])
    checker.cold(cold, client=0, numpy_checked=True)  # golden mismatch
    other = ResultSet([_result("3dfd", "baseline", 2.0, size="tiny")])
    checker.cold(other, client=1, numpy_checked=False)  # golden and client mismatch
    assert (checker.attempted, checker.failed) == (2, 2)
    checker.warm(cold, 0, uncached=["3dfd/baseline@tiny"])  # same stats, not cached
    checker.warm(cold, 1, uncached=[])
    assert (checker.attempted, checker.failed) == (4, 3)
    assert (checker.numpy_checked, checker.golden_checked) == (1, 2)


# ----------------------------------------------------------------------
# Traced-run wrappers
# ----------------------------------------------------------------------


def _tiny_cell():
    from repro.api import Engine, SweepSpec

    spec = SweepSpec.from_presets(["sbi_swi"], workloads=["bfs"], size="tiny")
    return Engine(memo={}, cache_dir=None).run(spec, verify=True)


def _targets():
    import repro.api.cache as cache_mod
    import repro.api.engine as engine_mod
    from repro.core.schedulers import CascadedScheduler
    from repro.core.sm import StreamingMultiprocessor
    from repro.service.remote import RemoteClient

    return [
        (engine_mod, "get_workload"),
        (engine_mod, "simulate"),
        (cache_mod, "disk_load"),
        (StreamingMultiprocessor, "step"),
        (CascadedScheduler, "tick"),
        (RemoteClient, "events"),
        (RemoteClient, "_open"),
    ]


def test_wrappers_are_restored_for_later_untraced_runs():
    targets = _targets()
    originals = [vars(owner)[attr] for owner, attr in targets]
    rec = Recorder()
    patches = layers.install(rec)
    try:
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, attr
        traced = _tiny_cell()
    finally:
        patches.restore()
    assert len(patches) == 0
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, attr

    totals = rec.totals()
    assert totals["core.simulate"]["calls"] == 1
    assert totals["workloads.numpy_check"]["calls"] == 1
    assert totals["core.schedulers.cascaded.tick"]["calls"] > 0
    balance = layers.simulator_balance(totals)
    assert balance["sum_of_self_s"] == pytest.approx(balance["simulate_s"])

    # An untraced run after the traced one reaches the recorder no more
    # and simulates the same stats.
    untraced = _tiny_cell()
    assert rec.totals() == totals
    assert [scoring.stats_sha(r.stats) for r in untraced] == [
        scoring.stats_sha(r.stats) for r in traced
    ]


def test_seed_permutes_cells_but_keeps_the_grid():
    import grids

    spec = grids.fig7_smoke()
    orders = [
        [(c.workload, c.config_name) for c in grids.permuted(spec, random.Random(seed)).cells()]
        for seed in (1, 2)
    ]
    assert orders[0] != orders[1]
    assert sorted(orders[0]) == sorted(orders[1]) == sorted(
        (c.workload, c.config_name) for c in spec.cells()
    )


# ----------------------------------------------------------------------
# Stats digests and host-speed scaling
# ----------------------------------------------------------------------


def test_stats_sha_digests_to_dict():
    import hashlib
    import json

    from repro.timing.stats import DeviceStats, Stats

    sm = Stats(cycles=7, thread_instructions=96, per_op_class={"alu": 3, "mem": 1})
    device = DeviceStats(cycles=9, sm_stats=[sm, Stats(cycles=5)], l2_hits=2, dram_bytes=64.0)
    for stats in (sm, device):
        blob = json.dumps(stats.to_dict(), sort_keys=True)
        assert scoring.stats_sha(stats) == hashlib.sha256(blob.encode()).hexdigest()


def sampler_with(cpu: List[float]):
    """A host-speed sampler holding one sample per second, sample i
    taken over [i, i + 0.001] with thread CPU time cpu[i]."""
    import hostspeed

    sampler = hostspeed.Sampler()
    for i, seconds in enumerate(cpu):
        sampler.starts.append(float(i))
        sampler.ends.append(i + 0.001)
        sampler.cpu.append(seconds)
    return sampler


def test_short_intervals_scale_by_the_samples_nearest_them():
    import hostspeed

    n = hostspeed.OWN_SAMPLES
    # A slow stretch (twice the nominal sample time), then a fast one
    # with one sample that something else held up.
    cpu = [2 * hostspeed.NOMINAL_S] * (2 * n) + [hostspeed.NOMINAL_S] * (2 * n)
    cpu[3 * n + 3] = 100 * hostspeed.NOMINAL_S
    sampler = sampler_with(cpu)
    short_slow, short_fast = (n - 0.5, n + 0.5), (3 * n - 0.5, 3 * n + 0.5)
    # Each short interval holds one sample, so it keeps 1 - 0.001 s of
    # its 1 s and takes the median speed of the stretch around it.
    assert sampler.phase([short_slow, short_fast]) == pytest.approx([0.999 / 2, 0.999])
    # A long interval holds enough samples to be scaled by its own.
    long_span = (n - 0.5, 3 * n - 0.5)
    assert sampler.phase([long_span]) == pytest.approx([(2 * n - 2 * n * 0.001) * 2 / 3])
