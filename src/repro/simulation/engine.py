"""Discrete-event simulation kernel.

A minimal but strict event-driven engine: a binary heap of timestamped
events, a monotonically advancing clock, and deterministic tie-breaking by
insertion order.  Everything in :mod:`repro.simulation` (network transfers,
chunk computations, probe rounds) is expressed as events scheduled on one
:class:`SimulationEngine`.

The engine deliberately has no notion of processes or channels -- the
master/worker logic in :mod:`repro.simulation.master` composes callbacks
directly, which keeps simulations of hundreds of thousands of chunk events
fast and easy to reason about.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..obs.profile import EngineProfiler

EventCallback = Callable[..., None]


#: Heap entries are ``[time, seq, callback, args]`` lists: they compare
#: element-wise in C, and ``seq`` is unique, so ordering never reaches the
#: callback; a cancelled entry has its callback cleared to None.
_TIME, _CALLBACK = 0, 2


class EventHandle:
    """Opaque handle returned by :meth:`SimulationEngine.schedule`.

    Supports cancellation; a cancelled event is skipped when popped.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self._entry[_CALLBACK] = None


class SimulationEngine:
    """Deterministic discrete-event simulation core.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(2.5, fired.append, "late")
    >>> _ = engine.schedule(1.0, fired.append, "early")
    >>> engine.run()
    >>> fired
    ['early', 'late']
    >>> engine.now
    2.5
    """

    def __init__(self, *, profiler: "EngineProfiler | None" = None) -> None:
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._processed = 0
        self._profiler = profiler

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not cancelled events still queued."""
        return sum(1 for entry in self._heap if entry[_CALLBACK] is not None)

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        # now + a non-negative delay is never before now: no second check
        return self._push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        return self._push(time, callback, args)

    def _push(self, time: float, callback: EventCallback, args: tuple[Any, ...]) -> EventHandle:
        entry = [time, next(self._seq), callback, args]
        heappush(self._heap, entry)
        if self._profiler is not None:
            self._profiler.note_heap_depth(len(self._heap))
        return EventHandle(entry)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, callback, args = heappop(heap)
            if callback is None:
                continue
            if time < self._now:
                raise SimulationError("event heap corrupted: time went backwards")
            self._now = time
            self._processed += 1
            callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the event queue drains (or a time / event-count bound).

        Parameters
        ----------
        until:
            Optional simulated-time horizon; events beyond it stay queued
            and the clock is advanced to ``until``.
        max_events:
            Optional safety bound on the number of events to execute;
            exceeding it raises :class:`SimulationError` (a stalled or
            livelocked model is a bug, not a result).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        run_start = perf_counter() if self._profiler is not None else 0.0  # repro: allow[sim-time] -- profiler measures wall events/s, not modeled time
        try:
            while self._heap:
                next_time = self._next_pending_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = max(self._now, until)
                    return
                if not self.step():
                    break
                executed += 1
                if max_events is not None and executed > max_events:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}; likely livelock"
                    )
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False
            if self._profiler is not None:
                self._profiler.note_run(executed, perf_counter() - run_start)  # repro: allow[sim-time] -- profiler measures wall events/s, not modeled time

    def _next_pending_time(self) -> float | None:
        """Time of the next non-cancelled event, or None if drained."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heappop(heap)
        return heap[0][_TIME] if heap else None
