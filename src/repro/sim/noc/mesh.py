"""The mesh network: topology construction and packet transport.

Transport model: store-and-forward at packet granularity — a packet
occupies each link of its XY route in turn for the router hop latency
plus the payload serialization time. This is conservative relative to
wormhole cut-through (which pipelines serialization across hops) but
preserves the properties the evaluation depends on: parallel disjoint
flows, contention on shared links, and latency growing with distance —
which is what the distance-minimizing placement optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Tuple

from ...errors import ConfigurationError, SimulationError
from ...units import Clock
from ..component import Component
from ..engine import Engine
from .adapter import AdapterParams
from .packet import Packet
from .routing import torus_xy_route, xy_route
from .router import Link

Coord = Tuple[int, int]

#: The paper's router closes timing at 150 MHz (Table II).
DEFAULT_NOC_CLOCK = Clock(150_000_000, "noc@150MHz")


@dataclass(frozen=True, slots=True)
class NocParams:
    """Mesh/torus configuration."""

    width: int
    height: int
    link_width_bytes: int = 4
    hop_latency_cycles: int = 3
    max_packet_bytes: int = 4096
    adapters: AdapterParams = AdapterParams()
    #: "mesh" (open edges) or "torus" (wraparound links).
    topology: str = "mesh"
    #: "store_forward" (packets re-arbitrate per hop) or "wormhole"
    #: (a packet reserves its whole path while the body streams —
    #: lower latency, head-of-line blocking; the switching mode of the
    #: paper's router). Wormhole requires the mesh topology: on a torus
    #: it would need virtual channels to stay deadlock-free.
    transport: str = "store_forward"

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("mesh dimensions must be >= 1")
        if self.link_width_bytes < 1 or self.hop_latency_cycles < 0:
            raise ConfigurationError("invalid link parameters")
        if self.max_packet_bytes < self.link_width_bytes:
            raise ConfigurationError("max packet smaller than one flit")
        if self.topology not in ("mesh", "torus"):
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; use 'mesh' or 'torus'"
            )
        if self.transport not in ("store_forward", "wormhole"):
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; "
                "use 'store_forward' or 'wormhole'"
            )
        if self.transport == "wormhole" and self.topology == "torus":
            raise ConfigurationError(
                "wormhole switching on a torus needs virtual channels "
                "(not modelled); use the mesh topology"
            )


class NocMesh(Component):
    """A ``width × height`` mesh of WRR routers."""

    def __init__(
        self,
        engine: Engine,
        params: NocParams,
        clock: Clock = DEFAULT_NOC_CLOCK,
        name: str = "noc",
        trace: bool = False,
    ) -> None:
        super().__init__(engine, name, clock, trace=trace)
        self.params = params
        self._pid = count()
        self.links: Dict[Tuple[Coord, Coord], Link] = {}
        wrap = params.topology == "torus"
        for y in range(params.height):
            for x in range(params.width):
                neighbours = []
                if x + 1 < params.width:
                    neighbours.append((x + 1, y))
                elif wrap and params.width > 2:
                    neighbours.append((0, y))
                if y + 1 < params.height:
                    neighbours.append((x, y + 1))
                elif wrap and params.height > 2:
                    neighbours.append((x, 0))
                for n in neighbours:
                    a, b = (x, y), n
                    for src, dst in ((a, b), (b, a)):
                        self.links[(src, dst)] = Link(
                            engine, src, dst, clock,
                            params.link_width_bytes,
                        )
        self.packets_delivered = 0
        self.bytes_delivered = 0

    def route(self, src: Coord, dst: Coord):
        """The topology's dimension-ordered route."""
        if self.params.topology == "torus":
            return torus_xy_route(
                src, dst, self.params.width, self.params.height
            )
        return xy_route(src, dst)

    def _check_coord(self, c: Coord) -> None:
        if not (0 <= c[0] < self.params.width and 0 <= c[1] < self.params.height):
            raise SimulationError(f"coordinate {c} outside mesh")

    def _chunks(self, nbytes: int) -> list:
        out = []
        remaining = int(nbytes)
        while remaining > 0:
            chunk = min(remaining, self.params.max_packet_bytes)
            out.append(chunk)
            remaining -= chunk
        return out

    def send(self, src: Coord, dst: Coord, nbytes: int, flow: str = ""):
        """Process generator: deliver ``nbytes`` from ``src`` to ``dst``.

        Large transfers are segmented into packets of at most
        ``max_packet_bytes`` so a bulk flow cannot monopolize a link for
        its whole duration — WRR interleaves competing flows at packet
        granularity, as in the real router.

        Packets travel as independent processes: every packet of the
        message is enqueued at the first link immediately (the network
        adapter's output queue holds the whole message), and each packet
        re-queues at the next hop as soon as it finishes the previous
        one. A process never *waits while holding* a link — it acquires,
        transmits, releases, then requests the next hop — so the
        transport is deadlock-free by construction, while contended
        links see the real per-input backlog the WRR arbiter needs to
        differentiate flows by weight. Per-link FIFO order within one
        input key keeps each flow's packets in order. Injection and
        ejection latency is charged once per send (head/tail); the
        adapters packetize back-to-back.
        """
        self._check_coord(src)
        self._check_coord(dst)
        if nbytes <= 0:
            raise SimulationError(f"cannot send {nbytes} bytes")
        if self.params.transport == "wormhole":
            yield from self._send_wormhole(src, dst, nbytes, flow)
            return
        adapters = self.params.adapters
        chunks = self._chunks(nbytes)
        path = self.route(src, dst)
        rec = self.recorder
        engine = self.engine
        # Injection through the kernel-side network adapter (head).
        started = self.engine.now
        inject = self.cycles(adapters.kernel_inject_cycles)
        if not engine.try_advance(inject):
            yield inject
        if rec.enabled:
            rec.activity(
                "noc", f"{self.name}.adapter", started, self.engine.now,
                f"inject:{flow}",
            )

        def packet_proc(packet: Packet):
            prev: Coord = src
            for hop_src, hop_dst in path:
                link = self.links[(hop_src, hop_dst)]
                arbiter = link.arbiter
                hold = (
                    self.cycles(self.params.hop_latency_cycles)
                    + link.serialization_seconds(packet.nbytes)
                )
                if (
                    arbiter._in_use < arbiter.capacity
                    and engine.can_advance(hold)
                ):
                    # Fusion: a free link and an empty horizon — the
                    # hop's grant→traverse→release fuses synchronously.
                    arbiter._fused_acquire()
                    self.log(f"pkt{packet.pid} {hop_src}->{hop_dst}")
                    hop_started = engine.now
                    engine.advance(hold)
                    link.record(packet.nbytes)
                    if rec.enabled:
                        rec.activity(
                            "noc", f"noc{hop_src}->{hop_dst}",
                            hop_started, engine.now, packet.flow,
                        )
                    arbiter.release()
                    prev = hop_src
                    continue
                yield arbiter.request(key=prev)
                try:
                    self.log(f"pkt{packet.pid} {hop_src}->{hop_dst}")
                    hop_started = self.engine.now
                    yield hold
                    link.record(packet.nbytes)
                    if rec.enabled:
                        rec.activity(
                            "noc", f"noc{hop_src}->{hop_dst}",
                            hop_started, self.engine.now, packet.flow,
                        )
                finally:
                    arbiter.release()
                prev = hop_src
            self.packets_delivered += 1
            self.bytes_delivered += packet.nbytes

        procs = [
            self.engine.process(
                packet_proc(Packet(next(self._pid), src, dst, chunk, flow=flow)),
                name=f"pkt:{flow}",
            )
            for chunk in chunks
        ]
        if procs:
            yield procs
        # Ejection through the memory-side network adapter (tail).
        started = self.engine.now
        eject = self.cycles(adapters.memory_eject_cycles)
        if not engine.try_advance(eject):
            yield eject
        if rec.enabled:
            rec.activity(
                "noc", f"{self.name}.adapter", started, self.engine.now,
                f"eject:{flow}",
            )

    def _send_wormhole(self, src: Coord, dst: Coord, nbytes: int, flow: str):
        """Wormhole switching: each packet reserves its path end to end.

        The head flit advances hop by hop, acquiring links *while
        holding the upstream ones* — safe on the mesh because XY routing
        acquires links in a global dimension order (the classic
        wormhole deadlock-freedom argument). Once the head arrives, the
        body streams through the reserved path in one serialization
        time; the tail then releases every link. Lower latency than
        store-and-forward (serialization is paid once, not per hop) at
        the price of head-of-line blocking, which the fidelity bench
        demonstrates.
        """
        adapters = self.params.adapters
        path = self.route(src, dst)
        rec = self.recorder
        engine = self.engine
        started = self.engine.now
        inject = self.cycles(adapters.kernel_inject_cycles)
        if not engine.try_advance(inject):
            yield inject
        if rec.enabled:
            rec.activity(
                "noc", f"{self.name}.adapter", started, self.engine.now,
                f"inject:{flow}",
            )
        for chunk in self._chunks(nbytes):
            packet = Packet(next(self._pid), src, dst, chunk, flow=flow)
            held: list = []
            try:
                prev: Coord = src
                for hop_src, hop_dst in path:
                    link = self.links[(hop_src, hop_dst)]
                    yield link.arbiter.request(key=prev)
                    held.append(link)
                    self.log(f"worm{packet.pid} head {hop_src}->{hop_dst}")
                    hop_started = self.engine.now
                    # Fusion: the head-advance latency is a pure
                    # wait (links stay held either way).
                    hop = self.cycles(self.params.hop_latency_cycles)
                    if not engine.try_advance(hop):
                        yield hop
                    if rec.enabled:
                        rec.activity(
                            "noc", f"noc{hop_src}->{hop_dst}",
                            hop_started, self.engine.now, flow,
                        )
                    prev = hop_src
                if held:
                    ser_started = self.engine.now
                    ser = held[0].serialization_seconds(chunk)
                    if not engine.try_advance(ser):
                        yield ser
                    if rec.enabled and path:
                        ser_src, ser_dst = path[0]
                        rec.activity(
                            "noc", f"noc{ser_src}->{ser_dst}",
                            ser_started, self.engine.now, flow,
                        )
                for link in held:
                    link.record(chunk)
            finally:
                for link in reversed(held):
                    link.arbiter.release()
            self.packets_delivered += 1
            self.bytes_delivered += chunk
        started = self.engine.now
        eject = self.cycles(adapters.memory_eject_cycles)
        if not engine.try_advance(eject):
            yield eject
        if rec.enabled:
            rec.activity(
                "noc", f"{self.name}.adapter", started, self.engine.now,
                f"eject:{flow}",
            )

    def transfer_seconds(self, src: Coord, dst: Coord, nbytes: int) -> float:
        """Uncontended latency of one transfer (for model cross-checks).

        With packet pipelining on the first hop, packet ``i+1`` enters
        the route as soon as packet ``i`` leaves the first link, so the
        total is head + first-packet full traversal + one link slot per
        further packet + tail.
        """
        hops = len(self.route(src, dst))
        adapters = self.params.adapters
        chunks = self._chunks(nbytes)

        def ser(chunk: int) -> float:
            return self.cycles(-(-chunk // self.params.link_width_bytes))

        def slot(chunk: int) -> float:
            return self.cycles(self.params.hop_latency_cycles) + ser(chunk)

        total = self.cycles(
            adapters.kernel_inject_cycles + adapters.memory_eject_cycles
        )
        if not chunks:
            return total
        if self.params.transport == "wormhole":
            # Serialization is paid once per packet, not per hop.
            for chunk in chunks:
                total += hops * self.cycles(self.params.hop_latency_cycles)
                total += ser(chunk)
            return total
        total += hops * slot(chunks[0])
        for chunk in chunks[1:]:
            total += slot(chunk)
        return total
