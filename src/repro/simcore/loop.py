"""The simulation event loop.

One :class:`Simulator` instance owns the virtual clock and a binary heap of
pending events. Everything else in the library (links, switches, container
runtimes, reconcile loops, clients) schedules plain callbacks or spawns
generator-based processes on this loop.

The loop is intentionally minimal and allocation-light: an event is a 4-tuple
``(time, seq, handle, args)`` on a ``heapq``; cancellation marks the handle
dead rather than re-heapifying (lazy deletion), which keeps ``cancel`` O(1)
and is the standard idiom for timer wheels with many idle-timeout resets
(OpenFlow flow entries reset their timeout on every matched packet).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Optional

from repro.metrics.perf import PERF
from repro.simcore.errors import DeadlockError, ScheduleInPastError, SimulatorReentryError
from repro.simcore.trace import TraceLog

_heappush = heapq.heappush
_heappop = heapq.heappop


class EventHandle:
    """Handle for a scheduled callback; supports O(1) cancellation.

    The callback and its arguments are stored on the handle so that a
    cancelled event releases its references immediately instead of pinning
    them until the heap entry is popped. The owning loop is kept so a
    cancellation can maintain the loop's O(1) live-event counter.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "loop")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: tuple,
                 loop: Optional["Simulator"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., None]] = callback
        self.args: Optional[tuple] = args
        self.cancelled = False
        self.loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call more than once,
        and safe to call after the event already fired (then a no-op)."""
        if not self.cancelled and self.callback is not None and self.loop is not None:
            self.loop._live -= 1
        self.cancelled = True
        self.callback = None
        self.args = None

    @property
    def alive(self) -> bool:
        return not self.cancelled and self.callback is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event loop with a virtual clock.

    Parameters
    ----------
    trace:
        Optional :class:`TraceLog`; when provided, kernel-level events
        (process spawn/finish, deadlocks) are recorded into it and the same
        log is conventionally shared by higher layers.

    Notes
    -----
    Two events scheduled for the same time fire in the order they were
    scheduled (FIFO), enforced by the monotonically increasing sequence
    number used as the heap tiebreaker. This property is load-bearing: e.g.
    a switch that forwards a packet and then updates a counter relies on it.
    """

    def __init__(self, trace: Optional[TraceLog] = None) -> None:
        from repro.simcore.faults import FaultPlane  # local import: cycle

        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        #: live (scheduled, not yet executed or cancelled) events — kept
        #: exact by schedule/cancel/pop so pending_count() is O(1)
        self._live = 0
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        #: simulation-wide fault-injection plane; pass-through until armed
        #: (bound to seeded streams *and* given at least one fault point)
        self.faults = FaultPlane()
        #: number of events executed so far (diagnostic / benchmark metric)
        self.events_executed = 0

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` may be zero (runs after all currently-executing work, in
        FIFO order with other zero-delay events). Negative delays raise
        :class:`ScheduleInPastError`.
        """
        if delay < 0:
            raise ScheduleInPastError(f"negative delay {delay!r}")
        seq = self._seq + 1
        self._seq = seq
        time = self._now + delay
        handle = EventHandle(time, seq, callback, args, self)
        _heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        # Scheduling in the past must raise, so the subtraction is the point.
        return self.schedule(time - self._now, callback, *args)  # repro: noqa[REP006]

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current time (after pending
        same-time events)."""
        return self.schedule(0.0, callback, *args)

    # ------------------------------------------------------------- execution

    def _pop_alive(self) -> Optional[EventHandle]:
        # ``callback is None`` is :attr:`EventHandle.alive` negated
        # (cancel() clears the callback) without the property call.
        while self._queue:
            _, _, handle = _heappop(self._queue)
            if handle.callback is not None:
                self._live -= 1  # about to execute
                return handle
            # lazily dropped: cancelled entry
        return None

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        while self._queue:
            time, _, handle = self._queue[0]
            if handle.alive:
                return time
            _heappop(self._queue)
        return None

    def step(self) -> bool:
        """Execute exactly one event. Returns ``False`` when none remain."""
        handle = self._pop_alive()
        if handle is None:
            return False
        self._now = handle.time
        callback, args = handle.callback, handle.args
        # Mark consumed before invoking so re-entrant cancel() is a no-op.
        handle.callback = None
        handle.args = None
        self.events_executed += 1
        PERF.events_executed += 1
        assert callback is not None
        callback(*(args or ()))
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the final simulated time. When ``until`` is given the clock
        is advanced to exactly ``until`` even if the last event fired
        earlier, so back-to-back ``run(until=...)`` calls compose.

        The loop is the hot path of every experiment: one pass per event
        (the old ``peek()`` + ``step()`` pair traversed the cancelled heap
        prefix twice and paid two extra method calls per event). The pop
        itself stays routed through :meth:`_pop_alive` — the runtime
        sanitizer's event-order audit patches that method.
        """
        if self._running:
            raise SimulatorReentryError("Simulator.run() is not re-entrant")
        self._running = True
        queue = self._queue
        executed_before = self.events_executed
        try:
            while queue:
                head = queue[0][2]
                if head.callback is None:
                    _heappop(queue)  # lazily dropped: cancelled entry
                    continue
                if until is not None and head.time > until:
                    break
                handle = self._pop_alive()
                assert handle is not None
                self._now = handle.time
                callback, args = handle.callback, handle.args
                # Mark consumed before invoking so re-entrant cancel() is a
                # no-op (same protocol as step()).
                handle.callback = None
                handle.args = None
                self.events_executed += 1
                assert callback is not None and args is not None
                callback(*args)
        finally:
            self._running = False
            PERF.events_executed += self.events_executed - executed_before
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_deadlock(self, watched: "list[Any]") -> float:
        """Run to quiescence; raise :class:`DeadlockError` if any process in
        ``watched`` is still alive when no events remain."""
        self.run()
        alive = [p for p in watched if getattr(p, "alive", False)]
        if alive:
            raise DeadlockError(f"{len(alive)} process(es) blocked forever: {alive!r}")
        return self._now

    # -------------------------------------------------------------- processes

    def spawn(self, generator: Iterator[Any], name: str = "") -> "Process":
        """Start a generator-based process on this loop.

        The generator may ``yield`` any :class:`~repro.simcore.process.Waitable`
        (a :class:`Timeout`, a :class:`Signal`, another :class:`Process`, or
        an :class:`AllOf`/:class:`AnyOf` combinator). Its ``return`` value
        becomes :attr:`Process.result`.
        """
        from repro.simcore.process import Process  # local import: cycle

        return Process(self, generator, name=name)

    def timeout(self, delay: float) -> "Timeout":
        """Create a waitable that fires ``delay`` seconds from now."""
        from repro.simcore.process import Timeout

        return Timeout(self, delay)

    def signal(self, name: str = "") -> "Signal":
        """Create a fresh, unset :class:`Signal` bound to this loop."""
        from repro.simcore.signal import Signal

        return Signal(self, name=name)

    # ------------------------------------------------------------ diagnostics

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1): the
        counter is maintained by schedule/cancel/pop instead of walking
        the heap."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6f} pending={len(self._queue)}>"
