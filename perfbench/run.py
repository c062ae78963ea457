"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-smoke --seed 1 --seconds 3 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's public functions in spans and
prints the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_smoke.json")
WORKLOAD_NAMES = ("fig7-smoke", "fig7-bench", "service-smoke", "device-scaling")

#: name -> (unit, direction) of every end-to-end metric, in print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cells_per_s": ("cells/s", "higher"),
    "sim_cycles_per_s": ("cycles/s", "higher"),
    "cell_p50_ms": ("ms", "lower"),
    "cell_tail_ms": ("ms", "lower"),
    "warm_cells_per_s": ("cells/s", "higher"),
    "warm_pass_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fidelity_err_regular_pp": ("pp", "lower"),
    "fidelity_err_irregular_pp": ("pp", "lower"),
}

#: Set for this process and its children before anything is measured.
#: String hashing is salted per process, and dict layouts that follow
#: from the salt move host time by several percent from one process to
#: the next; one fixed salt keeps runs comparable.  glibc raises its
#: mmap threshold to the size of each large block freed, so later
#: multi-megabyte numpy buffers land in the main heap, which shrinks
#: only from its top: peak resident memory then ratchets with the cell
#: order (96-152 MB over seeds on device-scaling, with 54 MB live).
#: Fixing the threshold at glibc's initial 128 KiB hands every large
#: buffer back on free, so peak_rss_mb follows what the program holds.
#: Simulated results depend on neither.
PINNED_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "131072"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the warm phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_extras(measured, spec, reps) -> dict:
    """Per-layer values that come from stats, set-up and the daemon."""
    import scoring

    cold = list(measured.cold)
    sm = [scoring.sm_total(r.stats) for r in cold]
    devices = [r.stats for r in cold if hasattr(r.stats, "sm_stats")]
    extra = {
        "cli.import_s": statistics.median(r["import_s"] for r in reps),
        "api.spec.cells_s": statistics.median(r["spec_s"] for r in reps),
        "core.sim_cycles": float(sum(scoring.sim_cycles(r.stats) for r in cold)),
        "timing.cache.l1_hit_ratio": scoring.ratio(
            sum(s.l1_hits for s in sm), sum(s.l1_accesses for s in sm)
        ),
        "timing.l2.hit_ratio": scoring.ratio(
            sum(d.l2_hits for d in devices), sum(d.l2_accesses for d in devices)
        ),
    }
    for name, value in scoring.model_summary(cold, spec.configs).items():
        extra["model." + name] = value
    if measured.daemon:
        counters = measured.daemon
        for name in ("cells_simulated", "cells_store", "cells_coalesced", "cells_failed"):
            extra["service.daemon." + name] = counters[name]
        duplicates = counters["cells_requested"] - len(cold)
        extra["service.daemon.coalesce_ratio"] = scoring.ratio(
            counters["cells_coalesced"], duplicates
        )
    return extra


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, env)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # A terminated run still unwinds, so the daemon it started stops too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and every child it starts (the daemon,
    # fresh interpreters), so host-speed samples taken here describe
    # the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The benchmark picks every cache directory itself.
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_STORE_DIR", None)

    import grids
    import hostspeed
    import layers
    import scoring
    import spans

    workload = grids.WORKLOADS[args.workload]
    spec = workload.spec()
    rng = random.Random(args.seed)
    traced = bool(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, "run-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir)
    checker = grids.Checker(GOLDEN)
    recorder = spans.Recorder()
    patches = None
    daemon = None
    try:
        with hostspeed.Sampler() as sampler:
            reps, daemon = grids.setup(workload, ROOT, work_dir, in_process=traced)
            if traced:
                patches = layers.install(recorder)
            if workload.service:
                if daemon is None:
                    daemon = grids.Daemon(ROOT, os.path.join(work_dir, "daemon"), True)
                    daemon.start()
                measured = grids.run_service(spec, rng, args.seconds, work_dir, checker, daemon)
            else:
                measured = grids.run_inline(spec, rng, args.seconds, work_dir, checker)
    finally:
        if daemon is not None:
            daemon.stop()
        if patches is not None:
            patches.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    cold_raw = [b - a for a, b in measured.cold_cells]
    cold = sampler.phase(measured.cold_cells + measured.other_cells)
    cold_s, other_s = cold[:len(cold_raw)], cold[len(cold_raw):]
    warm_s = sampler.phase(measured.warm_passes)
    resolved = len(cold_s) + len(other_s)
    # Closed-loop clients run side by side: the cold phase lasts as long
    # as the first client's back-to-back cells.
    cells_per_s = resolved / sum(cold_s)
    fidelity = scoring.fidelity(measured.cold)
    shas = {
        grids.label(r.workload, r.size, r.config): scoring.stats_sha(r.stats)
        for r in measured.cold
    }
    failed = checker.failed
    lines = [
        "workload %s  seed %d  %s run" % (args.workload, args.seed,
                                         "traced" if traced else "untraced"),
        "cells: %d cold (%d numpy-checked, %d golden-checked), %d warm passes x %d"
        % (resolved, checker.numpy_checked, checker.golden_checked,
           len(warm_s), measured.warm_cells),
        "checks: %d attempted, %d failed, failed_ratio %.4f"
        % (checker.attempted, failed, scoring.ratio(failed, checker.attempted)),
    ]
    lines += ["  FAILED %s" % text for text in checker.failures[:20]]
    lines.append("sim_stats_sha: %s" % scoring.grid_sha(shas))
    lines.append(
        "fidelity: SBI+SWI gmean IPC gain over baseline on this grid, checked "
        "only against the paper's reported figure-7 numbers, not hardware"
    )
    for suite, row in fidelity.items():
        lines.append(
            "  %-9s measured %+6.1f%%  paper %+5.1f%% (%s)  error %.1f pp"
            % (suite, row["measured_pct"], row["paper_pct"], row["source"], row["error_pp"])
        )
    lines.append(
        "peak resident memory: %s"
        % ", ".join("%.1f MB after %s" % (mb, phase) for phase, mb in measured.peak_mb.items())
    )
    lines.append(
        "host speed: %d samples, median %.3f ms vs %.3f ms nominal; cold phase "
        "%.2f s measured, %.2f s normalised (%.2f cells/s measured)"
        % (len(sampler.cpu), 1e3 * statistics.median(sampler.cpu),
           1e3 * hostspeed.NOMINAL_S, sum(cold_raw), sum(cold_s),
           resolved / sum(cold_raw))
    )

    last_path = os.path.join(OUT_DIR, "last-%s.json" % args.workload)
    if not traced:
        tail = scoring.tail(cold_s + other_s)
        warm_tail = scoring.tail(warm_s)
        values = {
            "setup_s": statistics.median(sampler.phase([r["total"]])[0] for r in reps),
            "cells_per_s": cells_per_s,
            "sim_cycles_per_s": sum(scoring.sim_cycles(r.stats) for r in measured.cold)
            / sum(cold_s),
            "cell_p50_ms": 1e3 * scoring.quantile(cold_s + other_s, 0.5),
            "cell_tail_ms": 1e3 * tail.value,
            "warm_cells_per_s": measured.warm_cells * len(warm_s) / sum(warm_s),
            "warm_pass_tail_ms": 1e3 * warm_tail.value,
            "peak_rss_mb": grids.peak_rss_mb(),
            "fidelity_err_regular_pp": fidelity["regular"]["error_pp"],
            "fidelity_err_irregular_pp": fidelity["irregular"]["error_pp"],
        }
        lines.append("cell_tail_ms is p%d of %d cold cells; warm_pass_tail_ms is p%d of %d passes"
                     % (tail.p, tail.n, warm_tail.p, warm_tail.n))
        metrics = {
            name: {"value": scoring.finite(values[name]), "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
        with open(last_path, "w") as f:
            json.dump({"cells_per_s": cells_per_s}, f)
    else:
        untraced = None
        if os.path.exists(last_path):
            with open(last_path) as f:
                untraced = json.load(f)["cells_per_s"]
        extra = layer_extras(measured, spec, reps)
        extra["trace.cells_per_s"] = cells_per_s
        extra["trace.overhead_ratio"] = untraced / cells_per_s - 1.0 if untraced else 0.0
        totals = recorder.totals()
        balance = layers.simulator_balance(totals)
        lines.append(
            "tracing overhead: traced %.2f cells/s vs untraced %s"
            % (cells_per_s, "%.2f cells/s (%+.1f%% slower)"
               % (untraced, 100 * extra["trace.overhead_ratio"]) if untraced
               else "unknown: no untraced run of this workload in this checkout yet")
        )
        lines.append(
            "simulator spans: top-level total %.4f s, sum of self times %.4f s"
            % (balance["simulate_s"], balance["sum_of_self_s"])
        )
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        recorder.dump(trace_path)
        lines.append("spans written to %s" % os.path.relpath(trace_path, ROOT))
        metrics = {
            name: {"value": scoring.finite(value), "unit": unit_of(name)}
            for name, value in layers.per_layer(totals, extra).items()
        }
    for name, metric in metrics.items():
        lines.append("  %-40s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "trace.cells_per_s":
        return "cells/s"
    if name.endswith(".calls") or name in (
        "service.remote.retries", "core.sim_cycles"
    ) or name.startswith("service.daemon.cells_"):
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "model.ipc_gmean":
        return "instr/cycle"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
