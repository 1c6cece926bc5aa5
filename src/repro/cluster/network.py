"""The interconnect fabric.

A message from node A to node B is modelled cut-through style:

    sender sw overhead  ->  { A.nic_tx  ||  B.nic_rx }  ->  wire
    latency  ->  receiver sw overhead

The bytes occupy the sender's transmit pipe and the receiver's receive
pipe *concurrently* (completion when both fair-share transfers finish),
so a node receiving N simultaneous streams bottlenecks on its single
NIC -- the effect that shapes the XOR-gather restart cost (Fig 11) and
the per-node C/R throughput (Fig 12).

Intra-node messages bypass the NIC and move through the memory bus.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.cluster.node import Node
from repro.cluster.spec import NetworkSpec
from repro.simt.kernel import Event, Simulator

__all__ = ["Fabric"]


class _InFlight:
    """One inter-node message on its way through the fabric.

    The steps run as scheduled calls, each in the queue slot the
    per-message event it replaces used to take: sender overhead ->
    ``tx || rx`` flows (the last of the two to finish moves on, like
    an ``AllOf``) -> wire latency -> arrival.  The arrival schedules
    ``on_arrival(arg)``, or succeeds ``arg`` (an :class:`Event`) when
    there is no callback.
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "overhead",
                 "lat_factor", "pending", "on_arrival", "arg")

    def __init__(self, fabric: "Fabric", src: Node, dst: Node,
                 nbytes: float, overhead: float, on_arrival, arg: Any):
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.overhead = overhead
        # Limping endpoints stretch the per-message latencies (their
        # NIC bandwidth is already degraded via set_limp); the wire hop
        # pays the slower endpoint's factor.
        self.lat_factor = max(src.limp_latency, dst.limp_latency)
        self.pending = 2
        self.on_arrival = on_arrival
        self.arg = arg

    def start(self) -> None:
        """Sender overhead paid: the bytes enter both NICs at once."""
        flow_done = _InFlight.flow_done
        self.src.nic_tx.transfer(self.nbytes, 0.0, flow_done, self)
        self.dst.nic_rx.transfer(self.nbytes, 0.0, flow_done, self)

    def flow_done(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.fabric.sim.schedule(0.0, _InFlight.on_wire, self)

    def on_wire(self) -> None:
        fabric = self.fabric
        fabric.sim.schedule(
            fabric.spec.wire_latency * self.lat_factor
            + self.overhead * self.dst.limp_latency,
            _InFlight.landed, self,
        )

    def landed(self) -> None:
        if self.on_arrival is not None:
            self.fabric.sim.schedule(0.0, self.on_arrival, self.arg)
        elif not self.arg.triggered:
            self.arg.succeed(None)


class Fabric:
    """Connects all nodes of a machine; stateless wire + per-node NICs.

    The fabric also owns the *partition* gray-failure state: at most
    one partition at a time splits the node set into components, and
    :meth:`reachable` answers whether two nodes can currently exchange
    bytes.  The wire itself stays stateless -- whether a cut message is
    stalled or dropped is the transport layer's policy.
    """

    def __init__(self, sim: Simulator, spec: NetworkSpec):
        self.sim = sim
        self.spec = spec
        #: total messages moved (observability / tests)
        self.messages_sent = 0
        #: total payload bytes moved
        self.bytes_sent = 0.0
        # -- partition state (None = fully connected) --
        self._partition: Optional[Dict[int, int]] = None
        self._partition_tag = ""
        self._partition_count = 0
        self._partition_listeners: List[Callable[[str, Dict[int, int]], None]] = []
        self._heal_listeners: List[Callable[[str], None]] = []

    # -- partitions ------------------------------------------------------------
    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    @property
    def partition_tag(self) -> str:
        """Tag of the active partition ('' when healed)."""
        return self._partition_tag if self._partition is not None else ""

    def on_partition(self, callback: Callable[[str, Dict[int, int]], None]) -> None:
        """Subscribe ``callback(tag, node_id -> component)`` to cuts."""
        self._partition_listeners.append(callback)

    def on_heal(self, callback: Callable[[str], None]) -> None:
        """Subscribe ``callback(tag)`` to partition heals."""
        self._heal_listeners.append(callback)

    def remove_partition_listener(
        self, callback: Callable[[str, Dict[int, int]], None]
    ) -> None:
        """Unsubscribe from cuts (job teardown); unknown callbacks ignored."""
        try:
            self._partition_listeners.remove(callback)
        except ValueError:
            pass

    def remove_heal_listener(self, callback: Callable[[str], None]) -> None:
        """Unsubscribe from heals (job teardown); unknown callbacks ignored."""
        try:
            self._heal_listeners.remove(callback)
        except ValueError:
            pass

    def partition(self, groups: Iterable[Iterable[int]], tag: str = "") -> str:
        """Split the fabric into components; returns the partition tag.

        ``groups`` lists node ids per component; any node not listed
        joins component 0 (so a single group cleaves "these nodes" off
        from "everyone else").  Only one partition may be active --
        heal before imposing another.
        """
        if self._partition is not None:
            raise RuntimeError(
                f"fabric already partitioned ({self._partition_tag}); heal first"
            )
        # Explicit groups are numbered from 1: component 0 is reserved
        # for unlisted nodes, so a single group really is cleaved off
        # from the rest of the machine.
        component: Dict[int, int] = {}
        for idx, group in enumerate(groups, start=1):
            for nid in group:
                if nid in component:
                    raise ValueError(f"node {nid} appears in two partition groups")
                component[nid] = idx
        self._partition_count += 1
        self._partition = component
        self._partition_tag = tag or f"p{self._partition_count}"
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "net.partition", "failure", tag=self._partition_tag,
                components=max(component.values(), default=0) + 1,
                cut_nodes=sorted(n for n, c in component.items() if c != 0),
            )
        for callback in list(self._partition_listeners):
            callback(self._partition_tag, component)
        return self._partition_tag

    def heal(self) -> None:
        """Remove the active partition (no-op when fully connected)."""
        if self._partition is None:
            return
        tag = self._partition_tag
        self._partition = None
        self._partition_tag = ""
        if self.sim.tracer.enabled:
            self.sim.tracer.instant("net.heal", "failure", tag=tag)
        for callback in list(self._heal_listeners):
            callback(tag)

    def reachable(self, node_a: int, node_b: int) -> bool:
        """Can these two nodes currently exchange bytes?"""
        part = self._partition
        if part is None:
            return True
        return part.get(node_a, 0) == part.get(node_b, 0)

    def transfer_time(self, nbytes: float, sw_overhead: float) -> float:
        """Uncontended end-to-end time for one message (planning)."""
        return (
            2 * sw_overhead + self.spec.wire_latency + nbytes / self.spec.link_bw
        )

    def send(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        sw_overhead: Optional[float] = None,
        on_arrival: Optional[Callable[[Any], None]] = None,
        arg: Any = None,
    ) -> Optional[Event]:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns an event that fires (with ``None``) when the last byte
        has landed at ``dst``.  If ``dst`` crashes mid-flight the event
        still fires -- delivery filtering is the transport layer's job
        (a dead node's matching engine no longer exists, so the bytes
        simply vanish, as on real hardware).

        With ``on_arrival``, nothing is returned and ``on_arrival(arg)``
        runs in the queue slot that event would have fired in; a down
        source then raises :class:`ConnectionError` instead of failing
        the event.
        """
        if not src.alive:
            exc = ConnectionError(f"source node {src.id} is down")
            if on_arrival is not None:
                raise exc
            evt = Event(self.sim)
            evt.fail(exc)
            return evt
        overhead = self.spec.sw_overhead_fmi if sw_overhead is None else sw_overhead
        self.messages_sent += 1
        self.bytes_sent += nbytes

        if src is dst:
            # Shared-memory path: one pass through the memory bus, no NIC.
            return src.mem_bw.transfer(nbytes, 2 * overhead, on_arrival, arg)
        arrived = None
        if on_arrival is None:
            arrived = arg = Event(self.sim)
        msg = _InFlight(self, src, dst, nbytes, overhead, on_arrival, arg)
        # Sender-side software overhead before bytes hit the NIC.
        self.sim.schedule(overhead * src.limp_latency, _InFlight.start, msg)
        return arrived
