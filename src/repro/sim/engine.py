"""A compact discrete-event simulation engine.

The engine provides exactly the primitives the system models need:

* :class:`Event` — one-shot triggerable with callbacks and a value;
* :class:`Process` — a generator-based coroutine. Yield a number to wait
  that many *seconds* of simulated time, an :class:`Event` (including
  another process) to wait for it, or :class:`AllOf` to join several;
* :class:`Resource` — capacity-limited FIFO resource (the bus, BRAM
  ports);
* :class:`WrrResource` — a single-capacity resource whose waiters are
  served in weighted round-robin order per requester class. This models
  the paper's NoC router arbitration (Heisswolf et al.'s WRR scheduler).

Determinism: simultaneous events fire in schedule order (a monotonically
increasing sequence number breaks time ties), so identical inputs always
produce identical traces.

Event fusion: a component may execute a timed operation of duration
``d`` synchronously (:meth:`Engine.try_advance`, or
:meth:`Engine.can_advance` + :meth:`Engine.advance`) when no queued
event lands in ``(now, now + d]``. The check is strict: an event at
exactly ``now + d`` was scheduled earlier, carries a lower sequence
number and must run before the fused continuation would. ``advance``
performs the same single ``now + d`` addition ``schedule`` would have,
so timestamps and makespans are bit-identical to the unfused run.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError


class Event:
    """A one-shot event that processes can wait on."""

    __slots__ = ("engine", "callbacks", "triggered", "value")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: object = None

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event now; waiters resume at the current time.

        All registered callbacks run from one scheduled thunk, in
        insertion order. This is order-equivalent to one closure per
        callback (the N closures got consecutive sequence numbers with
        nothing interleaved, so they ran back to back anyway) but keeps
        the queue depth independent of fan-in — a wide ``AllOf`` does
        not flood the scheduler with N same-timestamp entries. An
        untriggered event with no waiters schedules nothing at all.

        The dispatch loop maintains the engine's pending-callback
        count: callbacks still waiting inside this closure are
        invisible to the event queue, and a fused operation in callback
        *i* advancing ``now`` before callback ``i+1`` ran would
        serialize work that runs concurrently. The count makes
        :meth:`Engine.can_advance` refuse exactly when per-callback
        scheduling would have (siblings queued at the same timestamp
        ⇒ ``peek == now`` ⇒ no fusion).
        """
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        if self.callbacks:
            callbacks = self.callbacks
            self.callbacks = []
            engine = self.engine

            def dispatch() -> None:
                remaining = len(callbacks)
                for cb in callbacks:
                    remaining -= 1
                    engine._batch_remaining = remaining
                    cb(self)

            engine.schedule(0.0, dispatch)
        return self

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register a callback; fires immediately if already triggered."""
        if self.triggered:
            self.engine.schedule(0.0, lambda: callback(self))
        else:
            self.callbacks.append(callback)


class AllOf(Event):
    """An event that triggers once every child event has triggered."""

    __slots__ = ("_remaining",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        events = list(events)
        self._remaining = len(events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in events:
            ev.wait(self._child_done)

    def _child_done(self, _ev: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed()


ProcessGenerator = Generator[object, object, object]


class Process(Event):
    """A coroutine driven by the engine; completes as an event.

    The generator's return value becomes the event value.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, engine: "Engine", gen: ProcessGenerator, name: str = "") -> None:
        super().__init__(engine)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        engine._active += 1
        engine.schedule(0.0, lambda: self._step(None))

    def _step(self, send_value: object) -> None:
        try:
            target = self._gen.send(send_value)
        except StopIteration as stop:
            self.engine._active -= 1
            self.succeed(stop.value)
            return
        except Exception:
            self.engine._active -= 1
            raise
        if isinstance(target, (int, float)):
            if target < 0:
                self.engine._active -= 1
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {target}"
                )
            self.engine.schedule(float(target), lambda: self._step(None))
        elif isinstance(target, Event):
            target.wait(lambda ev: self._step(ev.value))
        elif isinstance(target, (tuple, list)):
            AllOf(self.engine, target).wait(lambda ev: self._step(ev.value))
        else:
            self.engine._active -= 1
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {type(target).__name__}"
            )


class Engine:
    """The event loop: a priority queue over (time, seq, thunk)."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = count()
        self._active = 0  # processes started but not finished
        self.events_processed = 0  # thunks executed by run()
        #: Timed operations executed synchronously (never queued). Like
        #: ``events_processed`` this describes the engine, not the
        #: simulated system.
        self.fused_events = 0
        #: Callbacks still pending inside the running ``Event.succeed``
        #: dispatch batch: due *now* but invisible to the queue, so a
        #: non-zero value vetoes fusion.
        self._batch_remaining = 0
        self._until: Optional[float] = None  # the running run() horizon

    def schedule(self, delay: float, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), thunk))

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def timeout(self, delay: float) -> Event:
        """An event that triggers after ``delay`` seconds."""
        ev = Event(self)
        self.schedule(delay, lambda: ev.succeed())
        return ev

    # -- event fusion --------------------------------------------------------
    def can_advance(self, delay: float) -> bool:
        """Whether a timed operation of ``delay`` seconds may be fused.

        True only when no dispatch batch is mid-flight, the landing
        time stays within a ``run(until=...)`` horizon, and *no* queued
        event fires at or before ``now + delay`` (strictly — ties must
        run first).
        """
        if self._batch_remaining:
            return False
        target = self.now + delay
        if self._until is not None and target > self._until:
            return False
        queue = self._queue
        return not queue or queue[0][0] > target

    def advance(self, delay: float) -> None:
        """Commit a fused operation: jump ``now`` forward by ``delay``.

        Only valid immediately after :meth:`can_advance` returned True.
        """
        self.now = self.now + delay
        self.fused_events += 1

    def try_advance(self, delay: float) -> bool:
        """Fuse a pure wait of ``delay`` seconds if provably safe."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if self.can_advance(delay):
            self.advance(delay)
            return True
        return False

    def run(self, until: Optional[float] = None, check_deadlock: bool = True) -> float:
        """Drain the event queue; returns the final simulation time.

        With ``check_deadlock`` (default) the engine raises when the
        queue empties while processes are still alive — i.e. somebody is
        waiting on an event nobody will ever trigger.
        """
        self._until = until
        try:
            while self._queue:
                t, _seq, thunk = heapq.heappop(self._queue)
                if until is not None and t > until:
                    heapq.heappush(self._queue, (t, _seq, thunk))
                    self.now = until
                    return self.now
                if t < self.now - 1e-18:  # pragma: no cover - defensive
                    raise SimulationError("time went backwards")
                self.now = t
                self.events_processed += 1
                thunk()
        finally:
            self._until = None
        if check_deadlock and self._active > 0:
            raise DeadlockError(
                f"{self._active} process(es) still waiting with an empty "
                "event queue"
            )
        return self.now


class Resource:
    """Capacity-limited resource with FIFO granting.

    Usage inside a process::

        yield resource.request()
        try: ...
        finally: resource.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: List[Event] = []
        # Utilization accounting (single-capacity resources only).
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0
        self.grants = 0
        # Contention accounting: how often a request had to wait, and the
        # deepest queue ever observed (bus arbitration pressure).
        self.contentions = 0
        self.peak_waiters = 0
        # Optional profiling hooks (duck-typed to keep the engine free of
        # observability imports): when ``recorder`` is set, grants emit
        # occupancy samples on ``profile_lane`` and contended requests
        # emit ``wait_kind`` activity spans covering their queueing time.
        self.recorder: Optional[object] = None
        self.profile_lane = name
        self.wait_kind = "wait"
        self._wait_started: Dict[Event, float] = {}

    def queued(self) -> int:
        """Requests currently waiting for a grant."""
        return len(self._waiters)

    def request(self, key: object = None) -> Event:
        """Event that triggers when the resource is granted."""
        ev = Event(self.engine)
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            self.contentions += 1
            if self.recorder is not None:
                self._wait_started[ev] = self.engine.now
            self._enqueue(ev, key)
            self.peak_waiters = max(self.peak_waiters, self.queued())
        return ev

    def _fused_acquire(self) -> None:
        """Grant bookkeeping for a fused (synchronous) uncontended hold.

        Callers (component fused paths) must have checked
        ``_in_use < capacity`` and :meth:`Engine.can_advance`; this replays
        exactly what :meth:`request` → :meth:`_grant` would have
        recorded for an uncontended grant — counters, busy-window
        start, and the recorder occupancy sample — without allocating
        the grant :class:`Event`. The matching release is the ordinary
        :meth:`release`.
        """
        self._in_use += 1
        self.grants += 1
        if self._in_use == 1:
            self._busy_since = self.engine.now
        rec = self.recorder
        if rec is not None:
            rec.occupancy(
                self.profile_lane, self.engine.now, self._in_use, self.queued()
            )

    def _enqueue(self, ev: Event, key: object) -> None:
        self._waiters.append(ev)

    def _dequeue(self) -> Optional[Event]:
        return self._waiters.pop(0) if self._waiters else None

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.grants += 1
        if self._in_use == 1:
            self._busy_since = self.engine.now
        rec = self.recorder
        if rec is not None:
            started = self._wait_started.pop(ev, None)
            if started is not None:
                rec.activity(
                    self.wait_kind, self.profile_lane, started, self.engine.now
                )
            rec.occupancy(
                self.profile_lane, self.engine.now, self._in_use, self.queued()
            )
        ev.succeed()

    def release(self) -> None:
        """Return one unit of capacity; grants the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.engine.now - self._busy_since
            self._busy_since = None
        if self.recorder is not None:
            self.recorder.occupancy(
                self.profile_lane, self.engine.now, self._in_use, self.queued()
            )
        nxt = self._dequeue()
        if nxt is not None:
            self._grant(nxt)

    def utilization(self, total_time: float) -> float:
        """Fraction of ``total_time`` the resource was busy."""
        if total_time <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.engine.now - self._busy_since
        return min(busy / total_time, 1.0)


class WrrResource(Resource):
    """Single resource with weighted-round-robin service per key.

    Waiters carry a *key* (e.g. the router input port). When the resource
    frees up, the scheduler walks the keys round-robin, serving up to
    ``weight[key]`` consecutive waiters of a key before moving on —
    the arbitration policy of the paper's NoC routers.
    """

    def __init__(
        self,
        engine: Engine,
        weights: Optional[Dict[object, int]] = None,
        default_weight: int = 1,
        name: str = "wrr",
    ) -> None:
        super().__init__(engine, capacity=1, name=name)
        if default_weight < 1:
            raise SimulationError("default_weight must be >= 1")
        self.weights = dict(weights or {})
        self.default_weight = default_weight
        self._queues: Dict[object, List[Event]] = {}
        self._rr_order: List[object] = []
        self._current_key: Optional[object] = None
        self._served_in_turn = 0

    def queued(self) -> int:
        """Requests waiting across all per-key queues."""
        return sum(len(q) for q in self._queues.values())

    def _enqueue(self, ev: Event, key: object) -> None:
        if key not in self._queues:
            self._queues[key] = []
            self._rr_order.append(key)
        self._queues[key].append(ev)

    def _weight_of(self, key: object) -> int:
        return self.weights.get(key, self.default_weight)

    def _dequeue(self) -> Optional[Event]:
        live = [k for k in self._rr_order if self._queues.get(k)]
        if not live:
            return None
        key = self._current_key
        if (
            key is not None
            and self._queues.get(key)
            and self._served_in_turn < self._weight_of(key)
        ):
            pass  # continue this key's turn
        else:
            # Advance round-robin to the next key with waiters.
            if key in live:
                start = (live.index(key) + 1) % len(live)
            else:
                start = 0
            key = live[start]
            self._current_key = key
            self._served_in_turn = 0
        self._served_in_turn += 1
        return self._queues[key].pop(0)
