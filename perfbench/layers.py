"""The program's layers as the traced run sees them.

:func:`install` wraps the public functions each layer is entered
through, so every call becomes a span in a :class:`spans.Recorder`;
:func:`per_layer` turns the recorder's totals into the per-layer
metrics named in ``BENCHMARK.json``.  Private helpers stay inside
their caller's self time.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping

from scoring import ratio
from spans import Patches, Recorder

#: Scheduler classes of the figure-7 modes, by the name metrics use.
SCHEDULER_KINDS = ("baseline", "warp64", "sbi", "cascaded")

#: Spans nested inside ``simulate`` / ``simulate_device``; their self
#: times and the top span's own self time add up to the top span.
SIMULATOR_SPANS = (
    "core.sm.step",
    "core.sm.issue",
    "timing.fetch.tick",
    "timing.units.pick_group",
    "functional.execute_masked",
    "timing.scoreboard.add",
    "timing.lsu.access",
    "timing.dram.request",
    "timing.l2.request",
) + tuple("core.schedulers.%s.tick" % kind for kind in SCHEDULER_KINDS)

SIMULATE_ROOTS = ("core.simulate", "core.gpu.simulate_device")


def _found(result: object) -> bool:
    return result is not None


def install(recorder: Recorder) -> Patches:
    """Wrap every traced function; ``restore()`` the result to undo."""
    import repro.api.cache as cache_mod
    import repro.api.engine as engine_mod
    from repro.api.engine import Engine
    from repro.core import schedulers
    from repro.core.sm import StreamingMultiprocessor
    from repro.functional.executor import Executor
    from repro.service.remote import RemoteClient
    from repro.service.store import ResultStore
    from repro.timing.dram import DRAMChannel
    from repro.timing.fetch import FetchEngine
    from repro.timing.l2 import L2System
    from repro.timing.lsu import LoadStoreUnit
    from repro.timing.scoreboard import ScoreboardBase
    from repro.timing.units import Backend

    patches = Patches()
    wrap = recorder.wrap

    def method(owner, attr: str, name: str, **kwargs) -> None:
        patches.set(owner, attr, wrap(name, vars(owner)[attr], **kwargs))

    # Engine and its module-level references (bound by Engine.__init__,
    # so engines must be built after install).
    method(Engine, "run", "api.engine.run", keep=True)
    method(Engine, "run_cell", "api.engine.run_cell", keep=True)
    method(cache_mod, "disk_load", "api.cache.disk_load", keep=True, hit=_found,
           starts_cell=True)
    method(cache_mod, "disk_store", "api.cache.disk_store", keep=True)
    method(engine_mod, "simulate", "core.simulate", keep=True)
    method(engine_mod, "simulate_device", "core.gpu.simulate_device", keep=True)

    get_workload = engine_mod.get_workload

    def traced_get_workload(*args, **kwargs):
        inst = get_workload(*args, **kwargs)
        if inst.numpy_check is not None:
            inst.numpy_check = wrap("workloads.numpy_check", inst.numpy_check, keep=True)
        return inst

    patches.set(
        engine_mod,
        "get_workload",
        wrap("workloads.get_workload", traced_get_workload, keep=True, starts_cell=True),
    )

    # Simulator layers, entered once or more per simulated cycle.
    method(StreamingMultiprocessor, "step", "core.sm.step")
    method(StreamingMultiprocessor, "issue", "core.sm.issue")
    for kind, cls in zip(
        SCHEDULER_KINDS,
        (
            schedulers.BaselineScheduler,
            schedulers.Warp64Scheduler,
            schedulers.SBIScheduler,
            schedulers.CascadedScheduler,
        ),
    ):
        method(cls, "tick", "core.schedulers.%s.tick" % kind)
    method(FetchEngine, "tick", "timing.fetch.tick")
    method(Backend, "pick_group", "timing.units.pick_group")
    method(Executor, "execute_masked", "functional.execute_masked")
    method(ScoreboardBase, "add", "timing.scoreboard.add")
    method(LoadStoreUnit, "access", "timing.lsu.access")
    method(DRAMChannel, "request", "timing.dram.request")
    method(L2System, "request", "timing.l2.request")

    # Service client and the daemon's store (when hosted in-process).
    method(RemoteClient, "submit", "service.remote.submit", keep=True)
    method(RemoteClient, "result", "service.remote.result", keep=True)
    patches.set(
        RemoteClient,
        "events",
        recorder.wrap_iter("service.remote.events", vars(RemoteClient)["events"]),
    )
    method(ResultStore, "get_entry", "service.store.load", keep=True, hit=_found)
    method(ResultStore, "store", "service.store.store", keep=True)

    # Retries: connection attempts beyond the first within one request.
    attempts = threading.local()
    request, open_ = vars(RemoteClient)["_request"], vars(RemoteClient)["_open"]

    def counted_request(self, *args, **kwargs):
        attempts.n = 0
        try:
            return request(self, *args, **kwargs)
        finally:
            attempts.n = None

    def counted_open(self, *args, **kwargs):
        n = getattr(attempts, "n", None)
        if n is not None:
            if n:
                recorder.count("service.remote.retries")
            attempts.n = n + 1
        return open_(self, *args, **kwargs)

    patches.set(RemoteClient, "_request", counted_request)
    patches.set(RemoteClient, "_open", counted_open)
    return patches


def per_layer(
    totals: Mapping[str, Mapping[str, float]], extra: Mapping[str, float]
) -> Dict[str, float]:
    """Per-layer metrics from recorder totals plus run-level values.

    A layer the workload never entered reads 0.  ``extra`` supplies the
    values that come from set-up, simulated stats or the daemon.
    """

    def get(name: str, field: str) -> float:
        return float(totals.get(name, {}).get(field, 0.0))

    out: Dict[str, float] = {}

    def calls_self(name: str) -> None:
        out[name + ".calls"] = get(name, "calls")
        out[name + ".self_s"] = get(name, "self_s")

    out["cli.import_s"] = extra["cli.import_s"]
    out["api.spec.cells_s"] = extra["api.spec.cells_s"]
    calls_self("api.engine.run")
    calls_self("workloads.get_workload")
    calls_self("workloads.numpy_check")
    calls_self("api.cache.disk_store")
    calls_self("api.cache.disk_load")
    out["api.cache.hit_ratio"] = ratio(
        get("api.cache.disk_load", "hits"), get("api.cache.disk_load", "calls")
    )
    out["core.simulate.calls"] = get("core.simulate", "calls")
    out["core.simulate.s"] = get("core.simulate", "total_s")
    out["core.sim_cycles"] = extra["core.sim_cycles"]
    for name in SIMULATOR_SPANS:
        calls_self(name)
    out["core.idle_skip_ratio"] = (
        1.0 - get("core.sm.step", "calls") / extra["core.sim_cycles"]
        if extra["core.sim_cycles"] and get("core.sm.step", "calls") else 0.0
    )
    out["timing.cache.l1_hit_ratio"] = extra["timing.cache.l1_hit_ratio"]
    out["core.gpu.simulate_device.calls"] = get("core.gpu.simulate_device", "calls")
    out["core.gpu.simulate_device.s"] = get("core.gpu.simulate_device", "total_s")
    out["core.gpu.device_self_s"] = get("core.gpu.simulate_device", "self_s")
    out["timing.l2.hit_ratio"] = extra["timing.l2.hit_ratio"]
    out["core.unattributed_s"] = sum(get(name, "self_s") for name in SIMULATE_ROOTS)
    calls_self("service.remote.submit")
    calls_self("service.remote.events")
    calls_self("service.remote.result")
    out["service.remote.retries"] = get("service.remote.retries", "calls")
    for name in ("cells_simulated", "cells_store", "cells_coalesced", "cells_failed"):
        out["service.daemon." + name] = extra.get("service.daemon." + name, 0.0)
    out["service.daemon.coalesce_ratio"] = extra.get("service.daemon.coalesce_ratio", 0.0)
    calls_self("service.store.load")
    calls_self("service.store.store")
    for name in ("ipc_gmean", "simd_efficiency", "sbi_secondary_share", "swi_hit_ratio"):
        out["model." + name] = extra.get("model." + name, 0.0)
    out["trace.cells_per_s"] = extra["trace.cells_per_s"]
    out["trace.overhead_ratio"] = extra["trace.overhead_ratio"]
    return out


def simulator_balance(totals: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """Top-span total vs. the sum of the self times nested in it."""
    root = sum(float(totals.get(n, {}).get("total_s", 0.0)) for n in SIMULATE_ROOTS)
    parts = sum(
        float(totals.get(n, {}).get("self_s", 0.0))
        for n in SIMULATOR_SPANS + SIMULATE_ROOTS
    )
    return {"simulate_s": root, "sum_of_self_s": parts}

