"""DMA engine: bulk host↔local-memory transfers over the bus.

FPGA accelerator platforms move kernel data with a DMA block rather than
processor loads; the model wraps bus transfers with a fixed descriptor
setup latency per transfer, charged at the host clock (the host writes
the descriptor registers).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import HOST_CLOCK, Clock
from .bus import PlbBus
from .component import Component
from .engine import Engine


class DmaEngine(Component):
    """Descriptor-based DMA in front of the system bus."""

    def __init__(
        self,
        engine: Engine,
        bus: PlbBus,
        setup_cycles: int = 40,
        clock: Clock = HOST_CLOCK,
        name: str = "dma",
        trace: bool = False,
    ) -> None:
        super().__init__(engine, name, clock, trace=trace)
        if setup_cycles < 0:
            raise ConfigurationError("setup_cycles must be >= 0")
        self.bus = bus
        self.setup_cycles = setup_cycles
        self.transfers = 0
        # In-flight transfer depth: current and high-water mark (how many
        # descriptors were ever queued on the engine at once).
        self.pending = 0
        self.peak_pending = 0

    def transfer(self, nbytes: int, requester: str = "dma"):
        """Process generator: descriptor setup then the bus transfer."""
        if nbytes < 0:
            raise ConfigurationError(f"negative DMA size {nbytes}")
        if nbytes == 0:
            return
        self.pending += 1
        self.peak_pending = max(self.peak_pending, self.pending)
        rec = self.recorder
        if rec.enabled:
            rec.occupancy(self.name, self.engine.now, self.pending, 0)
        try:
            started = self.engine.now
            # Fusion: descriptor setup is a pure wait — fuse it when
            # no queued event interleaves.
            setup = self.cycles(self.setup_cycles)
            if not self.engine.try_advance(setup):
                yield setup
            if rec.enabled:
                rec.activity(
                    "dma", self.name, started, self.engine.now, requester
                )
            self.log(f"dma {nbytes}B for {requester}")
            yield from self.bus.transfer(nbytes, requester=requester)
            self.transfers += 1
        finally:
            self.pending -= 1
            if rec.enabled:
                rec.occupancy(self.name, self.engine.now, self.pending, 0)
