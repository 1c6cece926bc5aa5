"""Shared-resource primitives: FIFO stores, counted resources, and a
fair-share bandwidth resource.

:class:`BandwidthResource` is the workhorse of the hardware model.  A
NIC, a memory bus, or a filesystem stream is a pipe with a fixed
capacity in bytes/second; concurrent transfers share it *processor-
sharing* style (each of the *k* active flows progresses at capacity/k).
This is what makes, e.g., 12 ranks on one node checkpointing 512 MB
each take ~12x longer through the node's single InfiniBand link than
one rank would -- the effect behind Figure 12's per-node throughput
numbers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.simt.kernel import Event, Simulator

__all__ = ["Store", "Resource", "BandwidthResource"]


class Store:
    """An unbounded FIFO channel of Python objects.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item once one is available.  Items are matched to getters in
    strict FIFO order, which the message-matching layer relies on.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        # Hand the item to the oldest *live* getter, if any.
        while self._getters:
            getter = self._getters.popleft()
            # A killed waiter detaches its resume callback, leaving an
            # untriggered event nobody listens to -- skip it or the item
            # would be lost.
            if not getter.callbacks or getter.triggered:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        evt = Event(self.sim)
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt


class Resource:
    """A counted resource with ``capacity`` slots and a FIFO wait queue.

    ``acquire`` returns an event that fires when a slot is granted;
    ``release`` frees a slot.  A process killed while *holding* a slot
    leaks it -- by design: a crashed node takes its hardware resources
    down with it, and the cluster layer discards the whole node object.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        evt = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            evt.succeed(self)
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.callbacks or waiter.triggered:
                continue  # waiter's process was killed while queued
            waiter.succeed(self)
            return
        self.in_use -= 1


class _Flow:
    """One transfer in a pipe.  It completes by succeeding ``arg``
    (an :class:`Event`) when ``fn`` is None, else by scheduling
    ``fn(arg)`` in the slot the event's completion would have taken."""

    __slots__ = ("remaining", "nbytes", "fn", "arg")

    def __init__(self, nbytes: float, fn, arg):
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.fn = fn
        self.arg = arg


class _Timer:
    """A pipe's completion timer and the key it fires under.

    ``deadline``/``seq`` is where the timer must finally pop.  A
    reschedule that only moves the deadline later updates them (with a
    reserved seq) instead of pushing a second timer; the heap entry
    then pops early and re-enters the heap under this key.
    """

    __slots__ = ("deadline", "seq")

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.seq = 0  # set when a later deadline reserves a key


class BandwidthResource:
    """A pipe of ``capacity`` bytes/second shared fairly between flows.

    :meth:`transfer` registers a flow of ``nbytes`` and returns an event
    that fires when the flow completes.  At any instant each of the *k*
    active flows progresses at ``capacity / k`` bytes/second (max-min
    fair share with equal demands).  Completion times are recomputed
    whenever a flow starts or finishes.

    A per-flow fixed ``overhead`` (seconds) models per-operation setup
    cost (e.g. per-message software latency) and is added *before* the
    bytes start moving.

    The pipe keeps at most one live completion timer.  When a
    recomputation moves the deadline later (a burst of flow starts at
    one instant), the armed timer stays in the heap; it reserves the
    seq a fresh timer would have taken, and when it pops early it
    re-enters the heap at the exact new deadline under that key.  A
    deadline that moves earlier, or stays equal, gets a fresh timer as
    it always did, and the superseded one pops as a no-op.  Every event
    therefore fires at the same time and in the same order as with a
    fresh timer per recomputation.
    """

    #: bytes below this are considered finished (float-noise guard)
    _EPS = 1e-6

    def __init__(self, sim: Simulator, capacity: float, name: str = "bw"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._flows: List[_Flow] = []
        self._last = sim.now
        #: the live completion timer (None while no flow is active)
        self._timer: Optional[_Timer] = None
        #: cumulative bytes fully transferred (for utilization stats)
        self.bytes_done: float = 0.0

    # -- public ----------------------------------------------------------------
    def transfer(self, nbytes: float, overhead: float = 0.0,
                 on_done=None, arg: Any = None) -> Optional[Event]:
        """Move ``nbytes`` through the pipe.

        Returns an event that fires at completion, or, when ``on_done``
        is given, returns None and schedules ``on_done(arg)`` in the
        slot that event would have taken.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        done = None
        if on_done is None:
            done = arg = Event(self.sim)
        if overhead > 0:
            # Charge the fixed overhead first, then enter the shared pipe.
            self.sim.schedule(overhead, self._start_after_overhead,
                              (nbytes, on_done, arg))
        else:
            self._start(nbytes, on_done, arg)
        return done

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def set_capacity(self, capacity: float) -> None:
        """Change the pipe's capacity mid-simulation (limping links).

        In-flight flows keep the progress accrued at the old rate and
        continue at the new one; completion timers are recomputed.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if capacity == self.capacity:
            return
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    def time_for(self, nbytes: float) -> float:
        """Uncontended transfer time for ``nbytes`` (planning helper)."""
        return nbytes / self.capacity

    # -- internals ----------------------------------------------------------------
    def _start_after_overhead(self, args: tuple) -> None:
        self._start(*args)

    def _start(self, nbytes: float, fn, arg) -> None:
        if fn is None and arg.callbacks is None:
            return  # receiver abandoned before start (e.g. killed)
        self._advance()
        if nbytes <= self._EPS:
            self.bytes_done += nbytes
            if fn is None:
                arg.succeed(None)
            else:
                self.sim.schedule(0.0, fn, arg)
            self._reschedule()
            return
        self._flows.append(_Flow(nbytes, fn, arg))
        self._reschedule()

    def _rate(self) -> float:
        return self.capacity / len(self._flows)

    def _advance(self) -> None:
        """Apply progress accrued since the last recomputation."""
        now = self.sim.now
        if self._flows and now > self._last:
            progressed = (now - self._last) * self._rate()
            for flow in self._flows:
                flow.remaining -= progressed
        self._last = now

    def _reschedule(self) -> None:
        flows = self._flows
        if not flows:
            self._timer = None
            return
        if len(flows) == 1:  # uncontended pipe: skip the scan
            min_remaining = flows[0].remaining
        else:
            min_remaining = min(f.remaining for f in flows)
        dt = max(min_remaining, 0.0) / self._rate()
        sim = self.sim
        deadline = sim.now + dt
        timer = self._timer
        if timer is not None and deadline > timer.deadline:
            # Later deadline: keep the armed timer, under the key a
            # fresh one would have taken.
            timer.deadline = deadline
            timer.seq = sim._reserve()
            return
        # Earlier, equal or due now: a fresh timer, as every
        # recomputation had.  An equal deadline is not re-keyed: the
        # armed entry may already sit at that time under its older
        # seq, and would fire there.
        timer = self._timer = _Timer(deadline)
        sim.schedule(dt, self._on_timer, timer)

    def _on_timer(self, timer: _Timer) -> None:
        sim = self.sim
        if sim.now < timer.deadline:
            # Popped at an earlier deadline: move to the final key
            # without touching the flows, so progress is applied in
            # one step at the real deadline.  A superseded timer moves
            # too: its no-op pop there leaves a drained run's clock
            # where a fresh timer per recomputation left it.
            sim._push_at(timer.deadline, timer.seq, self._on_timer, timer)
            return
        if timer is not self._timer:
            return  # superseded by a newer flow set
        self._timer = None
        self._advance()
        finished = [f for f in self._flows if f.remaining <= self._EPS]
        if not finished:
            # Float residue on multi-GB flows can exceed the absolute
            # epsilon; but this timer was armed exactly for the
            # minimum-remaining flow's deadline, so that flow *is* done.
            threshold = min(f.remaining for f in self._flows) + self._EPS
            finished = [f for f in self._flows if f.remaining <= threshold]
        done_set = set(id(f) for f in finished)
        self._flows = [f for f in self._flows if id(f) not in done_set]
        for flow in finished:
            self.bytes_done += flow.nbytes
            fn = flow.fn
            if fn is not None:
                sim.schedule(0.0, fn, flow.arg)
            elif flow.arg.callbacks is not None and not flow.arg.triggered:
                flow.arg.succeed(None)
        self._reschedule()
