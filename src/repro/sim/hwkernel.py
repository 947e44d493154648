"""Simulated HW kernel: computation phases and synchronization events.

A kernel exposes three events the schedule wires together:

* ``compute_half`` — the first half of the computation finished (this is
  the hook pipelining case 2 and streamed outputs attach to);
* ``compute_done`` — all computation finished;
* ``outputs_done`` — every output (bus upload, NoC send, shared-memory
  hand-off) has been delivered.

The compute process itself runs ``τ`` split into two halves, optionally
gating the second half on extra events (e.g. the second segment of a
streamed host fetch, or the second half of a streamed producer result).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.kernel import KernelSpec
from ..errors import SimulationError
from ..units import KERNEL_CLOCK, Clock
from .component import Component
from .engine import Engine, Event


class HwKernelSim(Component):
    """One kernel instance inside a simulated system."""

    def __init__(
        self,
        engine: Engine,
        spec: KernelSpec,
        clock: Clock = KERNEL_CLOCK,
        trace: bool = False,
    ) -> None:
        super().__init__(engine, spec.name, clock, trace=trace)
        self.spec = spec
        self.compute_half: Event = engine.event()
        self.compute_done: Event = engine.event()
        self.outputs_done: Event = engine.event()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def tau_seconds(self) -> float:
        """The kernel's computation time in seconds."""
        return self.clock.cycles_to_seconds(self.spec.tau_cycles)

    def compute(self, second_half_gates: Optional[List[Event]] = None):
        """Process generator: run the two computation halves.

        ``second_half_gates`` are extra events the second half must wait
        for (beyond simply finishing the first half).
        """
        if self.started_at is not None:
            raise SimulationError(f"kernel {self.name!r} computed twice")
        self.started_at = self.engine.now
        half = self.tau_seconds / 2.0
        rec = self.recorder
        self.log("compute: first half")
        started = self.engine.now
        # Fusion: each half is a pure wait — fuse when no queued
        # event lands inside it.
        if not self.engine.try_advance(half):
            yield half
        if rec.enabled:
            rec.activity(
                "compute", self.name, started, self.engine.now, "first half"
            )
        self.compute_half.succeed()
        if second_half_gates:
            yield list(second_half_gates)
        self.log("compute: second half")
        started = self.engine.now
        if not self.engine.try_advance(half):
            yield half
        if rec.enabled:
            rec.activity(
                "compute", self.name, started, self.engine.now, "second half"
            )
        self.finished_at = self.engine.now
        self.compute_done.succeed()
