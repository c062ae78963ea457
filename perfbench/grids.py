"""The benchmark's workloads: what each one runs and checks.

Every workload has a cold phase, which resolves its grid once and is
where cell latencies and simulated cycles come from, and a warm phase,
which re-resolves the grid from a cache for ``--seconds`` seconds.
Cell order within every pass comes from the seeded ``random.Random``,
one fresh permutation per pass, so the seed fixes the order of every
pass and of the passes; it never changes a cell's inputs or results.

Clients are closed loop: each sweep waits for its results before the
next one is sent.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Engine, ResultSet, SweepSpec
from repro.core import presets

import scoring

clock = time.perf_counter

#: The tail rule needs 20 samples; warm phases run at least this many passes.
MIN_WARM_PASSES = 20

#: Set-up repetitions per run (fresh-interpreter import, spec
#: expansion and, for the service workload, a daemon start).
SETUP_REPEATS = 5

DEVICE_WORKLOADS = (
    "transpose", "matrixmul", "histogram", "bfs",
    "3dfd", "convolutionseparable", "srad", "hotspot",
)


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------


def fig7_smoke() -> SweepSpec:
    return SweepSpec.figure7(size="smoke")


def fig7_bench() -> SweepSpec:
    return SweepSpec.from_presets(["baseline", "sbi_swi"], workloads="all", size="bench")


def service_smoke() -> SweepSpec:
    return SweepSpec.from_presets(["baseline", "sbi_swi"], workloads="all", size="smoke")


def device_scaling() -> SweepSpec:
    configs = {
        "%s/sm_count=%d" % (mode, n): presets.device(mode, sm_count=n)
        for mode in ("baseline", "sbi_swi")
        for n in (1, 4, 8)
    }
    return SweepSpec(workloads=DEVICE_WORKLOADS, configs=configs, sizes="bench")


class Permuted(SweepSpec):
    """``base``'s cells in the order ``order`` gives (indices into them)."""

    def __init__(self, base: SweepSpec, order: List[int]) -> None:
        super().__init__(workloads=base.workloads, configs=base.configs, sizes=base.sizes)
        object.__setattr__(self, "order", tuple(order))

    def cells(self):
        cells = super().cells()
        return [cells[i] for i in self.order]


def permuted(spec: SweepSpec, rng) -> Permuted:
    n = spec.total_cells
    return Permuted(spec, rng.sample(range(n), n))


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def label(workload: str, size: str, config_name: str) -> str:
    return "%s/%s@%s" % (workload, config_name, size)


class Checker:
    """Counts checked cells and the ones that failed a check.

    A cell fails if it raised, failed its numpy check (both surface as
    a collected ``CellError``), mismatches its golden stats digest, or
    its warm result differs from the cold result of the same run; a
    warm cell that was not served from the cache fails too.  Each
    resolved cell is one check, however many ways it fails.
    """

    def __init__(self, golden_path: str) -> None:
        with open(golden_path) as f:
            golden = json.load(f)
        self.golden_size = "tiny"  # the golden file's "smoke" size
        self.golden: Dict[str, str] = {
            key: cell["stats_sha"] for key, cell in golden["cells"].items()
        }
        self.attempted = 0
        self.failed_checks: set = set()
        self.failures: List[str] = []
        self.cold_sha: Dict[str, str] = {}
        self.golden_checked = 0
        self.numpy_checked = 0

    @property
    def failed(self) -> int:
        return len(self.failed_checks)

    def _fail(self, check: tuple, message: str) -> None:
        self.failed_checks.add(check)
        self.failures.append(message)

    def _errors(self, rs: ResultSet, phase: tuple) -> None:
        for err in rs.errors:
            self.attempted += 1
            key = label(err.workload, err.size, err.config)
            self._fail(phase + (key,), "%s %s: %s" % (phase[0], key, err.error))

    def cold(self, rs: ResultSet, client: int, numpy_checked: bool) -> None:
        """Check cold results and keep their digests for the warm check."""
        phase = ("cold", client)
        self._errors(rs, phase)
        for r in rs:
            self.attempted += 1
            key = label(r.workload, r.size, r.config)
            sha = scoring.stats_sha(r.stats)
            if numpy_checked:
                self.numpy_checked += 1
            if r.size == self.golden_size:
                self.golden_checked += 1
                if sha != self.golden.get("%s/%s" % (r.workload, r.config)):
                    self._fail(phase + (key,), "golden %s: stats sha %s" % (key, sha[:12]))
            if self.cold_sha.setdefault(key, sha) != sha:
                self._fail(phase + (key,), "cold %s: the clients got different stats" % key)

    def client_crashed(self, message: str) -> None:
        """A client stopped before resolving its cells: one failed check."""
        self.attempted += 1
        self._fail(("crash", message), message)

    def warm(self, rs: ResultSet, index: int, uncached: List[str]) -> None:
        """Check warm pass ``index`` against the cold results."""
        phase = ("warm", index)
        self._errors(rs, phase)
        for key in uncached:
            self._fail(phase + (key,), "warm %s: not served from the cache" % key)
        for r in rs:
            self.attempted += 1
            key = label(r.workload, r.size, r.config)
            if scoring.stats_sha(r.stats) != self.cold_sha.get(key):
                self._fail(phase + (key,), "warm %s: differs from the cold result" % key)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


Interval = Tuple[float, float]


@dataclass
class Measured:
    """What one workload run measured, before it becomes metrics.

    Times are wall-clock intervals, normalised later with the
    host-speed samples taken during the run (see :mod:`hostspeed`).
    """

    #: Cold cells resolved by the first (or only) client, back to back.
    cold_cells: List[Interval] = field(default_factory=list)
    #: Cold cells resolved by the second service client.
    other_cells: List[Interval] = field(default_factory=list)
    warm_passes: List[Interval] = field(default_factory=list)
    warm_cells: int = 0
    cold: Optional[ResultSet] = None
    daemon: Dict[str, float] = field(default_factory=dict)
    #: Peak resident MB after set-up and after the cold phase.
    peak_mb: Dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cold_inline(spec: SweepSpec, rng, cache_dir: str, out: Measured, checker: Checker) -> None:
    last = [0.0]

    def progress(p) -> None:
        now = clock()
        out.cold_cells.append((last[0], now))
        last[0] = now

    engine = Engine(cache_dir=cache_dir, memo={}, errors="collect", progress=progress)
    grid = permuted(spec, rng)
    last[0] = clock()
    rs = engine.run(grid, verify=True)
    out.cold = rs
    checker.cold(rs, client=0, numpy_checked=True)


def _warm(
    spec: SweepSpec,
    rng,
    seconds: float,
    out: Measured,
    checker: Checker,
    make_engine: Callable[[int, list], Engine],
    after_pass: Callable[[int], None] = lambda i: None,
) -> None:
    """Warm passes for ``seconds`` (at least MIN_WARM_PASSES of them)."""
    out.warm_cells = spec.total_cells
    deadline = clock() + seconds
    while len(out.warm_passes) < MIN_WARM_PASSES or clock() < deadline:
        flags: list = []
        engine = make_engine(len(out.warm_passes), flags)
        grid = permuted(spec, rng)
        start = clock()
        rs = engine.run(grid)
        out.warm_passes.append((start, clock()))
        uncached = [label(p.workload, p.size, p.config_name) for p in flags if not p.cached]
        checker.warm(rs, len(out.warm_passes) - 1, uncached)
        after_pass(len(out.warm_passes) - 1)


def run_inline(spec: SweepSpec, rng, seconds: float, work_dir: str, checker: Checker) -> Measured:
    """Cold pass with numpy checks into a fresh disk cache, then warm
    passes that read it back with an empty in-process memo."""
    out = Measured(peak_mb={"set-up": peak_rss_mb()})
    cache_dir = os.path.join(work_dir, "cache")
    _cold_inline(spec, rng, cache_dir, out, checker)
    out.peak_mb["cold"] = peak_rss_mb()
    _warm(
        spec, rng, seconds, out, checker,
        lambda i, flags: Engine(
            cache_dir=cache_dir, memo={}, errors="collect", progress=flags.append
        ),
    )
    return out


# ----------------------------------------------------------------------
# The sweep daemon
# ----------------------------------------------------------------------


class Daemon:
    """One sweep daemon with a fresh store, as a subprocess or in-process.

    ``repro serve`` runs as a subprocess; a traced run hosts the daemon
    in this process instead (``make_server``), so its store calls can
    be wrapped too.
    """

    LISTENING = re.compile(r"listening on (http://\S+)")

    def __init__(self, root: str, work_dir: str, in_process: bool) -> None:
        self.root = root
        self.dir = work_dir
        self.in_process = in_process
        self.proc: Optional[subprocess.Popen] = None
        self.server = None
        self.thread: Optional[threading.Thread] = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> None:
        """Start and wait until /v1/health answers."""
        from repro.service.remote import RemoteClient, RemoteError

        os.makedirs(self.dir)
        store = os.path.join(self.dir, "store")
        start = clock()
        if self.in_process:
            from repro.service.daemon import make_server

            self.server = make_server(store_dir=store, workers=2)
            self.url = "http://127.0.0.1:%d" % self.server.server_address[1]
            self.thread = threading.Thread(target=self.server.serve_forever)
            self.thread.start()
        else:
            self.url = self._spawn(store, start + timeout)
        client = RemoteClient(self.url, timeout=timeout, retries=0)
        while True:
            try:
                client.health()
                return
            except RemoteError:
                if clock() - start > timeout:
                    raise
                time.sleep(0.01)

    def _spawn(self, store: str, deadline: float) -> str:
        log_path = os.path.join(self.dir, "serve.log")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--store", store, "--workers", "2"],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        while True:
            with open(log_path) as f:
                match = self.LISTENING.search(f.read())
            if match:
                return match.group(1)
            if self.proc.poll() is not None or clock() > deadline:
                raise RuntimeError("repro serve did not start; see %s" % log_path)
            time.sleep(0.005)

    def health(self) -> Dict[str, object]:
        from repro.service.remote import RemoteClient

        return RemoteClient(self.url).health()

    def stop(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.service.shutdown_gracefully()
            self.server.server_close()
            self.thread.join()
            self.server = None
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None


def run_service(
    spec: SweepSpec, rng, seconds: float, work_dir: str, checker: Checker, daemon: Daemon
) -> Measured:
    """Two closed-loop clients, then warm passes against the daemon store.

    Cold phase: two client threads walk the same seed-permuted grid at
    once, one single-cell sweep at a time, so each cell is submitted
    twice at about the same moment and the daemon coalesces (or serves
    from its store) the second.  Single-cell sweeps give per-cell
    latency: the remote backend reports a sweep's progress only when
    the whole job has finished.  Warm phase: whole-grid sweeps, each
    from a fresh client cache dir, so every cell goes HTTP, store hit,
    client cache write.
    """
    out = Measured(peak_mb={"set-up": peak_rss_mb()})
    cells = permuted(spec, rng).cells()
    singles = [
        SweepSpec(workloads=[c.workload], configs={c.config_name: c.config}, sizes=c.size)
        for c in cells
    ]
    barrier = threading.Barrier(2)
    intervals = (out.cold_cells, out.other_cells)
    results: List[List[ResultSet]] = [[], []]
    crashed: List[str] = []

    def client(i: int) -> None:
        try:
            engine = Engine(
                server=daemon.url, memo={}, errors="collect",
                cache_dir=os.path.join(work_dir, "client%d" % i),
            )
            barrier.wait()
            start = clock()
            for single in singles:
                rs = engine.run(single)
                end = clock()
                intervals[i].append((start, end))
                results[i].append(rs)
                start = end
        except Exception as exc:  # noqa: BLE001 — reported as a failed check
            crashed.append("client %d: %s: %s" % (i, type(exc).__name__, exc))
            barrier.abort()

    other = threading.Thread(target=client, args=(1,))
    other.start()
    client(0)
    other.join()
    for message in crashed:
        checker.client_crashed(message)
    out.cold = ResultSet(
        [r for rs in results[0] for r in rs],
        errors=[e for rs in results[0] for e in rs.errors],
    )
    for index, client_results in enumerate(results):
        for rs in client_results:
            checker.cold(rs, client=index, numpy_checked=False)
    out.peak_mb["cold"] = peak_rss_mb()
    out.daemon = {k: float(v) for k, v in daemon.health()["counters"].items()}

    def warm_dir(i: int) -> str:
        return os.path.join(work_dir, "warm%d" % i)

    _warm(
        spec, rng, seconds, out, checker,
        lambda i, flags: Engine(
            server=daemon.url, memo={}, errors="collect",
            cache_dir=warm_dir(i), progress=flags.append,
        ),
        after_pass=lambda i: shutil.rmtree(warm_dir(i), ignore_errors=True),
    )
    return out


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

_IMPORT = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


def fresh_import(root: str) -> float:
    """``import repro.cli`` in a fresh interpreter; returns the seconds
    the import took inside it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT], cwd=root, env=env,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload: "Workload", root: str, work_dir: str, in_process: bool):
    """Set up ``SETUP_REPEATS`` times; returns (repetitions, live daemon).

    One repetition is ``import repro.cli`` in a fresh interpreter, the
    workload's spec expansion and, for the service workload, a daemon
    start up to its first healthy answer; ``total`` is its wall-clock
    interval.  A traced run hosts its daemon in-process and starts it
    later, after the wrappers are in.
    """
    reps: List[Dict[str, object]] = []
    daemon: Optional[Daemon] = None
    for i in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        start = clock()
        import_s = fresh_import(root)
        spec_start = clock()
        workload.spec().cells()
        spec_end = clock()
        if workload.service and not in_process:
            daemon = Daemon(root, os.path.join(work_dir, "daemon%d" % i), False)
            daemon.start()
        reps.append({
            "import_s": import_s,
            "spec_s": spec_end - spec_start,
            "total": (start, clock()),
        })
    return reps, daemon


@dataclass(frozen=True)
class Workload:
    spec: Callable[[], SweepSpec]
    service: bool = False


#: The workloads by name; BENCHMARK.json and README.md say why each exists.
WORKLOADS = {
    "fig7-smoke": Workload(fig7_smoke),
    "fig7-bench": Workload(fig7_bench),
    "service-smoke": Workload(service_smoke, service=True),
    "device-scaling": Workload(device_scaling),
}
