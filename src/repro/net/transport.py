"""PSM-like low-latency transport.

Faithful to the property the paper highlights for QLogic's PSM: after
connection establishment, **communication calls do not report peer
failures**.  A send to a dead process completes locally and the bytes
vanish; failure awareness comes exclusively from the ibverbs-style
connection events consumed by the log-ring detector
(:mod:`repro.net.endpoint` + :mod:`repro.fmi.detector`).

Epoch hygiene (Section IV-D): every envelope carries the sender's
recovery epoch; delivery into a context with a newer epoch is silently
dropped, so stale pre-failure messages can never satisfy a
post-recovery receive.

Gray failures ride the same delivery path:

* **Partitions** -- the fabric (:mod:`repro.cluster.network`) says
  which node pairs are cut.  A message arriving at a cut is parked in
  its channel's FIFO and either *stalled* (released when the partition
  heals, modelling switch buffering plus link-layer retry) or
  *dropped* (the reliable layer retransmits the channel every
  ``partition_rto`` until the link returns) depending on
  ``partition_mode``.  A later arrival on a channel with parked
  messages queues behind them, so either way delivery is eventually
  exact-once and in channel order.
* **Omission** -- an attached :class:`~repro.net.faults.LinkFaultModel`
  injects seeded per-message drop/duplicate/delay.  Drops cost
  retransmission timeouts.  Once a link has been lossy, each channel
  numbers its sends and releases arrivals in that order, so a
  retransmitted message is never overtaken and a second copy of a
  released message is recognised as a duplicate.

A recovery plane's *delivery hook* may then suppress an lseq-stamped
envelope the receiver already holds.  Every arrival -- clean link,
omission plan, partition flush -- goes through :meth:`Transport._arrive`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.net.faults import LinkFaultModel
from repro.net.matching import MatchingEngine
from repro.net.message import Envelope
from repro.simt.kernel import Event

__all__ = ["Transport", "NetContext"]

Address = Tuple[int, int]  # (node_id, serial)


class NetContext:
    """Per-process networking state: address, matching engine, epoch."""

    def __init__(self, transport: "Transport", node: Node, label: str = ""):
        # Serials are per-transport, not per-process: two simulations in
        # the same interpreter must assign identical addresses/labels or
        # the byte-identical-replay guarantee breaks.
        serial = transport._next_serial = transport._next_serial + 1
        self.transport = transport
        self.node = node
        self.addr: Address = (node.id, serial)
        self.label = label or f"ctx{serial}"
        self.matching = MatchingEngine(transport.sim)
        #: current recovery epoch; bumped by the FMI runtime on recovery
        self.epoch = 0
        self.closed = False
        #: stale envelopes dropped by the epoch filter
        self.stale_dropped = 0

    @property
    def alive(self) -> bool:
        return not self.closed and self.node.alive

    def close(self) -> None:
        self.closed = True
        self.transport._registry.pop(self.addr, None)


class _Send:
    """One message from :meth:`Transport.send` to its arrival.

    ``chan``/``n`` number it on a lossy channel; ``extra`` is the
    omission plan's retransmission and delay time, and ``dup_delay``
    when its duplicate copy trails (None: no duplicate).
    """

    __slots__ = ("env", "src_nid", "dst_addr", "done", "chan", "n",
                 "extra", "dup_delay")

    def __init__(self, env: Envelope, src_nid: int, dst_addr: Address,
                 done: Event):
        self.env = env
        self.src_nid = src_nid
        self.dst_addr = dst_addr
        self.done = done
        self.chan = None
        self.n = 0
        self.extra = 0.0
        self.dup_delay = None


class Transport:
    """Message movement between :class:`NetContext` instances."""

    #: retransmission timeout for messages lost at a drop-mode
    #: partition cut (no fault model required to be attached)
    partition_rto = 0.05

    def __init__(self, machine: Machine, sw_overhead: Optional[float] = None):
        self.machine = machine
        self.sim = machine.sim
        self.sw_overhead = (
            machine.spec.network.sw_overhead_fmi
            if sw_overhead is None
            else sw_overhead
        )
        self._registry: Dict[Address, NetContext] = {}
        self._next_serial = 0
        #: every context ever created (chaos invariant sweeps)
        self.contexts: List[NetContext] = []
        #: envelopes dropped because the destination was gone
        self.dropped_dead = 0
        #: envelopes dropped by the epoch filter
        self.dropped_stale = 0
        # -- gray-failure state --
        #: attached link-fault model (None = clean links)
        self.faults: Optional[LinkFaultModel] = None
        #: sticky flag: once a fault model has ever been attached,
        #: channel ordering and duplicate suppression stay armed (a
        #: detached model may still have copies in flight)
        self._lossy = False
        #: what happens to a message arriving at a partition cut
        self.partition_mode = "stall"  # or "drop"
        #: per-channel send order on lossy links, keyed by (src addr,
        #: dst addr): next number to assign, next to release, and the
        #: arrivals held back until the sends before them are released
        self._chan_sent: Dict[Tuple[Address, Address], int] = {}
        self._chan_next: Dict[Tuple[Address, Address], int] = {}
        self._chan_held: Dict[Tuple[Address, Address], Dict[int, list]] = {}
        #: arrivals parked at a partition cut, per channel (source node,
        #: destination address), each as ``(arrival number, args)``
        self._parked: Dict[Tuple[int, Address], List[tuple]] = {}
        self._parked_seq = 0
        #: cut envelopes parked until heal (stall mode)
        self.partition_stalls = 0
        #: parked envelopes released once their channel healed
        self.partition_flushed = 0
        #: retransmission attempts burned at a cut (drop mode)
        self.partition_retries = 0
        #: transmission attempts lost to the omission model
        self.omission_drops = 0
        #: messages that picked up extra omission delay
        self.omission_delays = 0
        #: duplicate copies injected by the omission model
        self.omission_dups = 0
        #: duplicate copies suppressed at the receiver
        self.dup_dropped = 0
        #: the job's recovery-plane delivery hook ``(ctx, env) -> bool``
        #: (see :meth:`set_delivery_hook`); None = no plane
        self.delivery_hook = None
        #: the hook's hop-fidelity reason: "msglog" or "replicated"
        self.hook_reason: Optional[str] = None
        #: envelopes suppressed by the message-logging hook
        self.replay_dup_dropped = 0
        #: envelopes suppressed/buffered by the replication hook
        self.replication_filtered = 0
        # -- macro-event collectives --
        #: lazily-created per-job coordinator (repro.mpi.macro); lives
        #: here because the transport is the per-job rendezvous object
        #: every rank's API shares
        self.macro = None
        #: explicit vetoes on the macro fast path (chaos engine arming,
        #: experiment drivers); while > 0 every collective goes hop-level
        self.macro_blockers = 0
        machine.fabric.on_heal(self._on_heal)

    def detach(self) -> None:
        """Unhook from the (long-lived) fabric at job teardown so a
        stream of tenant jobs does not accumulate dead heal listeners."""
        self.machine.fabric.remove_heal_listener(self._on_heal)

    # -- macro-event eligibility ---------------------------------------------
    def block_macro(self) -> None:
        """Veto the macro-event collective fast path (stackable)."""
        self.macro_blockers += 1

    def unblock_macro(self) -> None:
        self.macro_blockers = max(0, self.macro_blockers - 1)

    def hop_fidelity_reason(self) -> Optional[str]:
        """Why collectives on this transport need per-hop fidelity.

        Returns ``None`` when the macro-event fast path may run, or a
        short reason string: something is armed, degraded, observed or
        recorded that makes individual message hops load-bearing.
        The check is *nominal* network state, not instantaneous
        in-flight traffic -- concurrent point-to-point flows (halo
        exchanges) do not disable the fast path; their contention
        error is what the conformance tolerance covers.
        """
        if self.macro_blockers > 0:
            return "blocked"
        if self.sim.fault_injectors > 0:
            return "injector"
        if self.faults is not None or self._lossy:
            return "omission"
        if self.machine.fabric.partitioned:
            return "partition"
        if self.machine.limping_count > 0:
            return "limp"
        if self.delivery_hook is not None:
            # Logging, dedup and mirroring happen per physical hop: a
            # macro-collapsed collective would bypass them entirely.
            return self.hook_reason
        if self.sim.tracer.enabled or self.sim.metrics.enabled:
            return "observability"
        return None

    def macro_reset(self) -> None:
        """Recovery hook: drop all in-flight macro collective state
        (pending instances, per-rank sequence counters, scheduled
        completions) so a post-rollback world starts from a clean
        collective sequence."""
        if self.macro is not None:
            self.macro.reset()

    # -- registry ---------------------------------------------------------
    def create_context(self, node: Node, label: str = "") -> NetContext:
        ctx = NetContext(self, node, label)
        self._registry[ctx.addr] = ctx
        self.contexts.append(ctx)
        return ctx

    def context_at(self, addr: Address) -> Optional[NetContext]:
        """The registered context at ``addr`` regardless of liveness."""
        return self._registry.get(addr)

    # -- link faults ----------------------------------------------------------
    def set_faults(self, model: LinkFaultModel) -> None:
        """Attach a lossy-link model (all subsequent sends consult it)."""
        self.faults = model
        self._lossy = True

    def clear_faults(self) -> None:
        """Detach the model; in-flight faults still play out."""
        self.faults = None

    # -- recovery plane -----------------------------------------------------
    def set_delivery_hook(self, hook, reason: Optional[str] = None) -> None:
        """Install (or, with None, remove) the recovery-plane hook.

        ``hook(ctx, env)`` sees every lseq-stamped envelope that passed
        the liveness, epoch and duplicate filters; False suppresses it.
        ``reason`` ("msglog" or "replicated") is the hop-fidelity reason
        and picks the drop counter and trace outcome."""
        self.delivery_hook = hook
        self.hook_reason = None if hook is None else reason

    # -- data plane ----------------------------------------------------------
    def send(self, src: NetContext, dst_addr: Address, env: Envelope) -> Event:
        """Send ``env`` from ``src`` to the context at ``dst_addr``.

        The returned event fires when the bytes have left/landed; it
        fires even if the destination died mid-flight (the sender
        cannot tell -- PSM semantics).  It only fails if the *sender's*
        node is down.
        """
        src_nid = src.node.id
        done = Event(self.sim)
        msg = _Send(env, src_nid, dst_addr, done)
        try:
            self.machine.fabric.send(
                src.node, self.machine.nodes[dst_addr[0]], env.nbytes,
                self.sw_overhead, self._on_wire, msg,
            )
        except ConnectionError as exc:
            # Down source: the failure lands one queue hop later, where
            # the fabric's failed event would have.
            self.sim.schedule(0.0, self._sender_down, (msg, exc))
        tracer = self.sim.tracer
        metrics = self.sim.metrics
        if tracer.enabled:
            tracer.instant(
                "net.send", "net", rank=env.src, node=src_nid,
                epoch=env.epoch, dst=env.dst, dst_node=dst_addr[0],
                nbytes=env.nbytes, tag=env.tag,
            )
        if metrics.enabled:
            metrics.counter("net.msgs_sent", node=src_nid).inc()
            metrics.counter("net.bytes_sent", node=src_nid).inc(env.nbytes)

        # Draw this message's fault plan up front (one seeded draw per
        # message keeps replays byte-identical).
        faults = self.faults
        if faults is not None:
            plan = faults.plan(src_nid, dst_addr[0])
            if not plan.clean:
                self.omission_drops += plan.drops
                if plan.delay:
                    self.omission_delays += 1
                if plan.duplicate:
                    self.omission_dups += 1
                if tracer.enabled:
                    tracer.instant(
                        "net.omission", "net", rank=env.src, node=src_nid,
                        epoch=env.epoch, dst=env.dst, drops=plan.drops,
                        delay=plan.delay, dup=plan.duplicate,
                    )
                msg.extra = plan.drops * faults.rto + plan.delay
                if plan.duplicate:
                    msg.dup_delay = msg.extra + faults.dup_lag

        if self._lossy:
            # A retransmitted message must not be overtaken by the ones
            # sent after it: release this channel's arrivals in order.
            chan = msg.chan = (src.addr, dst_addr)
            n = msg.n = self._chan_sent.get(chan, 0)
            self._chan_sent[chan] = n + 1
        return done

    def _sender_down(self, failure: tuple) -> None:
        msg, exc = failure
        if not msg.done.triggered:
            msg.done.fail(exc)
        if msg.chan is not None:
            self._in_order((msg.chan, msg.n, None))  # nothing will arrive

    def _on_wire(self, msg: "_Send") -> None:
        """The fabric landed ``msg``'s bytes at the destination node."""
        chan = msg.chan
        if chan is None:
            self._arrive(msg.env, msg.src_nid, msg.dst_addr, msg.done)
            return
        # Lossy from here on (a fault plan implies a lossy link).
        args = (msg.env, msg.src_nid, msg.dst_addr, msg.done)
        if msg.extra > 0:
            self.sim.schedule(msg.extra, self._in_order, (chan, msg.n, args))
        else:
            self._in_order((chan, msg.n, args))
        if msg.dup_delay is not None:
            self.sim.schedule(
                msg.dup_delay, self._in_order,
                (chan, msg.n, args[:3] + (None,)),
            )

    # -- delivery ------------------------------------------------------------
    def _in_order(self, arrival: tuple) -> None:
        """Arrival ``(chan, n, args)`` on a lossy channel (``args`` for
        :meth:`_arrive`, None when it will never come): release it once
        every earlier send on the channel was released, holding it back
        otherwise.  Any later copy of a released send is a duplicate."""
        chan, n, args = arrival
        nxt = self._chan_next.get(chan, 0)
        if n < nxt:
            self._arrive(*args, dup=True)
            return
        held = self._chan_held.setdefault(chan, {})
        held.setdefault(n, []).append(args)
        while nxt in held:
            first, *later = held.pop(nxt)
            if first is not None:
                self._arrive(*first)
            for copy in later:
                self._arrive(*copy, dup=True)
            nxt += 1
        self._chan_next[chan] = nxt

    def _arrive(
        self,
        env: Envelope,
        src_nid: int,
        dst_addr: Address,
        done: Optional[Event],
        dup: bool = False,
    ) -> None:
        """Final delivery step: partition cut, parked channel, liveness,
        epoch filter, duplicate suppression, recovery-plane hook -- in
        that order."""
        fabric = self.machine.fabric
        if fabric._partition is not None and not fabric.reachable(
            src_nid, dst_addr[0]
        ):
            self._cut(env, src_nid, dst_addr, done, dup)
            return
        if self._parked and (src_nid, dst_addr) in self._parked:
            # Healed, but earlier messages on this channel still wait
            # for their retransmission: queue behind them.
            self._park((src_nid, dst_addr), (env, src_nid, dst_addr, done, dup))
            return
        ctx = self._registry.get(dst_addr)
        hook = self.delivery_hook
        if ctx is None or ctx.closed or not ctx.node.alive:
            ctx = None
            self.dropped_dead += 1
            outcome = "net.drop_dead"
        elif env.epoch < ctx.epoch:
            self.dropped_stale += 1
            ctx.stale_dropped += 1
            outcome = "net.drop_stale"
        elif dup:
            self.dup_dropped += 1
            outcome = "net.drop_dup"
        elif (
            hook is not None
            and env.lseq is not None
            and not hook(ctx, env)
        ):
            if self.hook_reason == "msglog":
                self.replay_dup_dropped += 1
                outcome = "net.drop_replay_dup"
            else:
                self.replication_filtered += 1
                outcome = "net.drop_replica_dup"
        else:
            ctx.matching.deliver(env)
            outcome = "net.recv"
        tracer = self.sim.tracer
        if tracer.enabled:
            # ctx_epoch lets post-hoc checkers re-verify the epoch
            # filter: a net.recv with env.epoch < ctx_epoch would be
            # a stale delivery.
            extra = {} if ctx is None else {"ctx_epoch": ctx.epoch}
            if env.lseq is not None:
                # (src, dst, n) channel identity: the orphan checker
                # correlates deliveries with mlog.log / mlog.rewind.
                extra["lseq"] = env.lseq
            tracer.instant(
                outcome, "net", rank=env.dst, node=dst_addr[0],
                epoch=env.epoch, src=env.src, nbytes=env.nbytes,
                tag=env.tag, **extra,
            )
        metrics = self.sim.metrics
        if metrics.enabled:
            metrics.counter(outcome, node=dst_addr[0]).inc()
        if done is not None and not done.triggered:
            done.succeed(None)

    def _cut(
        self,
        env: Envelope,
        src_nid: int,
        dst_addr: Address,
        done: Optional[Event],
        dup: bool,
    ) -> None:
        """The message hit a partition cut: park it in its channel.

        ``stall`` releases it when the fabric heals (switch buffering +
        link-layer retry); ``drop`` loses the bytes and retransmits the
        channel every ``partition_rto`` until the link is back.  Both
        converge to exact-once, in-order delivery once the partition
        heals.
        """
        if self.partition_mode == "stall":
            self.partition_stalls += 1
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    "net.partition_stall", "net", rank=env.dst,
                    node=dst_addr[0], epoch=env.epoch, src=env.src,
                    tag=env.tag,
                )
        else:
            self.partition_retries += 1
        self._park((src_nid, dst_addr), (env, src_nid, dst_addr, done, dup))

    def _park(self, chan: tuple, args: tuple) -> None:
        queue = self._parked.get(chan)
        if queue is None:
            queue = self._parked[chan] = []
            if self.partition_mode == "drop":
                self.sim.schedule(self.partition_rto, self._retry, (chan, queue))
        self._parked_seq += 1
        queue.append((self._parked_seq, args))

    def _retry(self, timer: tuple) -> None:
        """Retransmission tick of a drop-mode channel: release it if the
        link is back, else every parked message is lost again."""
        chan, queue = timer
        if self._parked.get(chan) is not queue:
            return  # a stall-mode heal released the queue this tick serves
        if self.machine.fabric.reachable(chan[0], chan[1][0]):
            self._release([self._parked.pop(chan)])
            return
        self.partition_retries += len(queue)
        self.sim.schedule(self.partition_rto, self._retry, timer)

    def _release(self, queues: List[list]) -> None:
        """Deliver parked arrivals in the order they reached the cut."""
        entries = sorted(e for queue in queues for e in queue)
        self.partition_flushed += len(entries)
        for _n, args in entries:
            self._arrive(*args)

    def _on_heal(self, tag: str) -> None:
        """Stall mode: release every channel parked at the healed cut."""
        if self.partition_mode == "stall" and self._parked:
            parked, self._parked = self._parked, {}
            self._release(list(parked.values()))
