"""PLB-like shared system bus.

The paper's communication infrastructure is the Xilinx PLB: a single
arbitrated bus carrying all host↔kernel traffic. The model charges each
transaction an arbitration + address phase and then moves data at the bus
width per cycle; only one transaction is in flight at a time, so
concurrent requesters queue — which is exactly why kernel-to-kernel
traffic routed through the host hurts in the baseline.

The design algorithm's ``θ`` (average seconds per byte) is exposed by
:meth:`PlbBus.theta_s_per_byte`; it folds the per-transaction overhead in
amortized over a typical transfer so the analytic model and the simulator
agree closely on bulk transfers.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from ..units import Clock
from .component import Component
from .engine import Engine, Resource

#: PLB on the ML510 runs at the kernel fabric clock in our model.
DEFAULT_BUS_CLOCK = Clock(100_000_000, "plb@100MHz")


class PlbBus(Component):
    """Arbitrated shared bus with per-byte throughput accounting."""

    def __init__(
        self,
        engine: Engine,
        clock: Clock = DEFAULT_BUS_CLOCK,
        width_bytes: int = 8,
        arbitration_cycles: int = 3,
        address_cycles: int = 2,
        typical_burst_bytes: int = 1024,
        name: str = "plb",
        trace: bool = False,
    ) -> None:
        super().__init__(engine, name, clock, trace=trace)
        if width_bytes < 1 or arbitration_cycles < 0 or address_cycles < 0:
            raise ConfigurationError("invalid bus parameters")
        if typical_burst_bytes < 1:
            raise ConfigurationError("typical_burst_bytes must be >= 1")
        self.width_bytes = width_bytes
        self.arbitration_cycles = arbitration_cycles
        self.address_cycles = address_cycles
        self.typical_burst_bytes = typical_burst_bytes
        self._resource = Resource(engine, capacity=1, name=f"{name}.arb")
        self.bytes_moved = 0
        self.transactions = 0

    # -- analytic-model interface -----------------------------------------
    @property
    def theta_s_per_byte(self) -> float:
        """``θ``: average per-byte bus time, overhead amortized.

        Uses the configured typical burst size, matching how the paper
        derives a single average ``θ`` from measured transfers.
        """
        cycles = (
            self.arbitration_cycles
            + self.address_cycles
            + math.ceil(self.typical_burst_bytes / self.width_bytes)
        )
        return self.cycles(cycles) / self.typical_burst_bytes

    def transfer_cycles(self, nbytes: int) -> int:
        """Bus cycles one transaction of ``nbytes`` occupies."""
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        if nbytes == 0:
            return 0
        return (
            self.arbitration_cycles
            + self.address_cycles
            + math.ceil(nbytes / self.width_bytes)
        )

    # -- simulation interface ------------------------------------------------
    def transfer(self, nbytes: int, requester: str = "?"):
        """Process generator: move ``nbytes`` over the bus.

        Transfers are split into bursts of ``typical_burst_bytes`` so a
        long DMA cannot starve other requesters forever (PLB arbitration
        re-runs between bursts).
        """
        remaining = int(nbytes)
        engine = self.engine
        res = self._resource
        while remaining > 0:
            burst = min(remaining, self.typical_burst_bytes)
            if res._in_use < res.capacity:
                # Fusion: the bus is free — if no queued event lands
                # within the burst either, the whole grant→hold→release
                # round trip fuses into straight-line code. Bookkeeping
                # (counters, busy window, recorder samples, trace log)
                # replays the slow path operation for operation.
                hold = self.cycles(self.transfer_cycles(burst))
                if engine.can_advance(hold):
                    started = engine.now
                    res._fused_acquire()
                    self.log(f"xfer {burst}B from {requester}")
                    engine.advance(hold)
                    self.bytes_moved += burst
                    self.transactions += 1
                    rec = self.recorder
                    if rec.enabled:
                        rec.activity(
                            "bus", self.name, started, engine.now, requester
                        )
                    res.release()
                    remaining -= burst
                    continue
            yield res.request(requester)
            try:
                self.log(f"xfer {burst}B from {requester}")
                started = engine.now
                yield self.cycles(self.transfer_cycles(burst))
                self.bytes_moved += burst
                self.transactions += 1
                rec = self.recorder
                if rec.enabled:
                    rec.activity(
                        "bus", self.name, started, engine.now, requester
                    )
            finally:
                res.release()
            remaining -= burst

    def utilization(self, total_time: float) -> float:
        """Busy fraction over ``total_time`` seconds."""
        return self._resource.utilization(total_time)
