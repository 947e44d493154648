"""Engine conformance: event fusion vs the unfused oracle and the goldens.

Event fusion (:meth:`repro.sim.engine.Engine.try_advance`) is only
admissible because it is *provably indistinguishable* from queuing every
timed wait. This module is the proof machinery, and both of its checks
are byte-exact — no tolerances, no ``isclose``:

* **engine vs oracle** — :class:`UnfusedEngine` is the same engine with
  fusion switched off; :func:`conformance_check` runs a case on both;
* **engine vs goldens** — :func:`record_digests` digests every golden
  run (the four paper apps and the seed-2026 fuzz corpus, on the
  baseline, pipelined-baseline and proposed systems), and
  ``tests/goldens/sim_digests.json`` pins those digests as recorded
  before fusion became the only engine.

Each run is reduced by :func:`run_digest` to the full-precision ``repr``
of its :class:`~repro.sim.systems.SimulatedTimes`, a SHA-256 over the
in-order :class:`~repro.obs.profile.recorder.TimeseriesRecorder` sample
streams, and its :func:`~repro.sim.timeline.timeline_digest`, so a
one-ULP drift in any timestamp, counter or recorded sample is a reported
:class:`~repro.verify.invariants.Violation`.

Engine-implementation observability (``events_processed`` /
``fused_events`` on the engine object itself) is deliberately *outside*
the contract: fusing executes fewer discrete events by design — that
difference is the optimization, not a bug.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from ..core.commgraph import CommGraph
from ..core.designer import DesignConfig, design_interconnect
from ..core.plan import InterconnectPlan
from ..obs.profile.recorder import TimeseriesRecorder
from ..sim.engine import Engine
from ..sim.systems import (
    SimulatedTimes,
    SystemParams,
    simulate_baseline,
    simulate_pipelined_baseline,
    simulate_proposed,
)
from ..sim.timeline import timeline_digest
from .generate import FuzzSpec, GeneratedCase, generate_case
from .invariants import Violation

__all__ = [
    "CORPUS_SEED",
    "CORPUS_SIZE",
    "SYSTEMS",
    "UnfusedEngine",
    "conformance_check",
    "diff_digests",
    "golden_runs",
    "record_digests",
    "run_digest",
    "run_digests",
    "simulate_system",
]

#: The systems every conformance run exercises.
SYSTEMS: Tuple[str, ...] = ("baseline", "pipelined", "proposed")

#: The pinned fuzz corpus: same seed, same indices, forever. A digest
#: mismatch reproduces from ``generate_case(FuzzSpec(), CORPUS_SEED, i)``.
CORPUS_SEED = 2026
CORPUS_SIZE = 50

#: One golden run: (label, graph, plan, params).
GoldenRun = Tuple[str, CommGraph, InterconnectPlan, SystemParams]

#: Digests keyed ``<label>.<system>``.
Digests = Dict[str, Dict[str, str]]


class UnfusedEngine(Engine):
    """The differential oracle: every timed wait goes through the queue."""

    def can_advance(self, delay: float) -> bool:
        return False


def simulate_system(
    system: str,
    graph: CommGraph,
    plan: InterconnectPlan,
    params: SystemParams,
    recorder: Optional[TimeseriesRecorder] = None,
    engine: Optional[Engine] = None,
) -> SimulatedTimes:
    """Run one of :data:`SYSTEMS` (``host_other_s`` pinned to 0)."""
    if system == "baseline":
        return simulate_baseline(
            graph, 0.0, params, recorder=recorder, engine=engine
        )
    if system == "pipelined":
        return simulate_pipelined_baseline(
            graph, 0.0, params, recorder=recorder, engine=engine
        )
    return simulate_proposed(
        plan, 0.0, params, recorder=recorder, engine=engine
    )


def run_digest(
    times: SimulatedTimes, recorder: TimeseriesRecorder
) -> Dict[str, str]:
    """Everything observable about one run, as comparable strings.

    ``times`` is the full-precision ``repr`` of the result, ``recorder``
    a SHA-256 over the in-order sample streams, and ``timeline`` the
    :func:`~repro.sim.timeline.timeline_digest`.
    """
    h = hashlib.sha256()
    for stream in (
        recorder.activities, recorder.occupancy_samples, recorder.deliveries
    ):
        h.update(repr(stream).encode())
        h.update(b"\n")
    return {
        "times": repr(asdict(times)),
        "recorder": h.hexdigest(),
        "timeline": timeline_digest(times),
    }


def run_digests(
    runs: Iterable[GoldenRun], engine_type: Type[Engine] = Engine
) -> Digests:
    """Digest every run on every system, each on a fresh ``engine_type``."""
    out: Digests = {}
    for label, graph, plan, params in runs:
        for system in SYSTEMS:
            rec = TimeseriesRecorder()
            times = simulate_system(
                system, graph, plan, params, rec, engine_type()
            )
            out[f"{label}.{system}"] = run_digest(times, rec)
    return out


def diff_digests(expected: Digests, actual: Digests) -> List[Violation]:
    """One violation per missing, extra or differing digest field."""
    violations: List[Violation] = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if want is None or got is None:
            side = "expected" if want is None else "actual"
            violations.append(
                Violation("sim_digest", key, f"run missing from {side}")
            )
            continue
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                violations.append(
                    Violation(
                        "sim_digest",
                        f"{key}.{field}",
                        f"expected {want.get(field)} != {got.get(field)}",
                    )
                )
    return violations


def _case_run(
    case: GeneratedCase, plan: Optional[InterconnectPlan] = None
) -> GoldenRun:
    if plan is None:
        plan = design_interconnect(case.label(), case.graph, case.config())
    return case.label(), case.graph, plan, case.params


def golden_runs() -> Iterator[GoldenRun]:
    """The four paper apps, then the pinned fuzz corpus, each designed."""
    from ..apps import fit_application, get_application
    from ..apps.registry import APP_NAMES

    params = SystemParams()
    theta = params.theta_s_per_byte()
    for name in APP_NAMES:
        fitted = fit_application(get_application(name), theta)
        config = DesignConfig(
            theta_s_per_byte=theta,
            stream_overhead_s=fitted.stream_overhead_s,
        )
        plan = design_interconnect(name, fitted.graph, config)
        yield name, fitted.graph, plan, params
    for i in range(CORPUS_SIZE):
        yield _case_run(generate_case(FuzzSpec(), CORPUS_SEED, i))


def record_digests() -> Digests:
    """Digest every golden run on the engine (the goldens' content)."""
    return run_digests(golden_runs())


def conformance_check(
    case: GeneratedCase, plan: Optional[InterconnectPlan] = None
) -> List[Violation]:
    """Prove one case byte-identical with and without event fusion.

    Designs the case (unless a ``plan`` is passed in), runs all three
    systems on the engine and on :class:`UnfusedEngine`, and diffs the
    digests. An empty list is the proof for this case; any entry is a
    counterexample.
    """
    runs = [_case_run(case, plan)]
    return diff_digests(run_digests(runs, UnfusedEngine), run_digests(runs))
