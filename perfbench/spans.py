"""In-memory span recorder for the benchmark's traced runs.

A traced run replaces public functions of the program with wrappers
made here (:class:`Patches`), before any simulation starts, and puts
the originals back when it ends.  Each wrapper opens a span around one
call: its name, start, end, parent span and the cell it belongs to.

Per-cycle layers (scheduler ticks, issue, fetch, ...) are entered
millions of times per run, far too many spans to keep one record each.
Every span is therefore folded into per-name aggregates when it closes
-- calls, total time and self time, where self time is the span's
duration minus the time its child spans cover -- and only spans named
with ``keep=True`` (cell-level calls such as ``simulate`` or a cache
read) are also kept as records.  Records and aggregates stay in memory
and are written out by :meth:`Recorder.dump` when the run ends.

Nothing here imports the program, so the self-tests can drive a
recorder with a fake clock.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One kept span; ``parent`` is the enclosing span's id (or None)."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    cell: int
    thread: int


class _Thread:
    """Span stack, aggregates and kept spans of one thread."""

    __slots__ = ("index", "stack", "agg", "spans", "cell")

    def __init__(self, index: int) -> None:
        self.index = index
        # Open spans: [span id, time covered by closed children].
        self.stack: List[List[float]] = []
        # name -> [calls, total seconds, self seconds, hits]
        self.agg: Dict[str, List[float]] = {}
        self.spans: List[Span] = []
        self.cell = 0


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_Thread] = []
        self._ids = itertools.count(1)
        self._cells = itertools.count(1)

    def _state(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _Thread(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    # -- spans ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Count an event that has no duration (``calls`` only)."""
        agg = self._state().agg.setdefault(name, [0, 0.0, 0.0, 0])
        agg[0] += n

    def wrap(
        self,
        name: str,
        fn: Callable,
        keep: bool = False,
        hit: Optional[Callable[[object], bool]] = None,
        starts_cell: bool = False,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``hit`` marks a call's result as a hit (a cache read that found
        its entry), counted next to the calls.  ``starts_cell`` makes
        every call begin a new cell (the first call a cell makes).
        """
        clock = self.clock
        ids = self._ids
        state_of = self._state
        cells = self._cells

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            if starts_cell:
                state.cell = next(cells)
            stack = state.stack
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = state.agg.get(name)
                if agg is None:
                    agg = state.agg[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if hit is not None and hit(result):
                    agg[3] += 1
                if keep:
                    state.spans.append(
                        Span(
                            int(frame[0]),
                            int(stack[-1][0]) if stack else None,
                            name,
                            start,
                            end,
                            state.cell,
                            state.index,
                        )
                    )

        return wrapper

    def wrap_iter(self, name: str, fn: Callable[..., Iterator]) -> Callable[..., Iterator]:
        """A generator function whose every ``next`` is one span."""
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = step(inner)
                    except StopIteration:
                        return
                    yield item
            finally:
                inner.close()

        return wrapper

    # -- results -------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s, hits}, summed over threads."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (calls, total, self_s, hits) in state.agg.items():
                row = out.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
                )
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
                row["hits"] += hits
        return out

    def spans(self) -> List[Span]:
        with self._lock:
            threads = list(self._threads)
        return sorted(
            (span for state in threads for span in state.spans),
            key=lambda s: (s.start, s.id),
        )

    def dump(self, path: str) -> None:
        """Write kept spans and per-name aggregates as JSON."""
        with open(path, "w") as f:
            json.dump(
                {
                    "aggregates": self.totals(),
                    "spans": [span._asdict() for span in self.spans()],
                },
                f,
                indent=0,
                sort_keys=True,
            )


class Patches:
    """Attribute replacements that can be undone exactly.

    ``set`` records what ``owner.attr`` was (or that the owner had no
    attribute of its own) before replacing it; ``restore`` puts every
    original back in reverse order.
    """

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        own = vars(owner).get(attr, self._MISSING)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __len__(self) -> int:
        return len(self._saved)
