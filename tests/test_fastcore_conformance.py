"""Engine conformance: event fusion vs the unfused oracle and the goldens.

Event fusion is only admissible because it is byte-for-byte
indistinguishable from queuing every timed wait. These tests are that
proof, at two scales:

* the four paper applications, across all three simulated systems, with
  full profiling recorders attached;
* a 50-case fixed-seed fuzz corpus (:mod:`repro.verify.generate`) far
  outside the paper's operating regime — torus NoCs, degenerate graphs,
  randomized hardware parameters;

each checked against :class:`~repro.verify.conformance.UnfusedEngine`
and against ``tests/goldens/sim_digests.json``.

Plus targeted regressions for the one interaction subtle enough to have
produced a real divergence during development: batched ``Event.succeed``
dispatch hiding sibling callbacks from the event queue, which let a
fused operation advance ``now`` mid-batch and serialize flows the
unfused engine runs concurrently.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict

import pytest

from repro.core.designer import DesignConfig, design_interconnect
from repro.obs.profile.recorder import TimeseriesRecorder
from repro.sim.engine import Engine
from repro.sim.systems import simulate_baseline, simulate_proposed
from repro.verify import (
    FuzzSpec,
    UnfusedEngine,
    conformance_check,
    diff_digests,
    generate_case,
)
from repro.verify.conformance import (
    CORPUS_SEED,
    CORPUS_SIZE,
    SYSTEMS,
    record_digests,
    run_digest,
    simulate_system,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "sim_digests.json"


def _digest(system, graph, plan, params, engine):
    rec = TimeseriesRecorder()
    times = simulate_system(system, graph, plan, params, rec, engine)
    return run_digest(times, rec)


class TestPaperApps:
    """All four paper applications, all three systems, byte-identical."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_app_conformance(self, system, fitted_apps, system_params, theta):
        for name, fitted in fitted_apps.items():
            config = DesignConfig(
                theta_s_per_byte=theta,
                stream_overhead_s=fitted.stream_overhead_s,
            )
            plan = design_interconnect(name, fitted.graph, config)
            args = (system, fitted.graph, plan, system_params)
            label = f"{name}.{system}"
            violations = diff_digests(
                {label: _digest(*args, UnfusedEngine())},
                {label: _digest(*args, Engine())},
            )
            assert violations == [], "\n".join(str(v) for v in violations)

    def test_fast_backend_is_deterministic(self, fitted_apps, system_params):
        # Two fused runs of the same input are byte-identical: fusion
        # introduces no run-to-run state.
        fitted = fitted_apps["fluid"]
        a = simulate_baseline(fitted.graph, 0.0, system_params)
        b = simulate_baseline(fitted.graph, 0.0, system_params)
        assert repr(asdict(a)) == repr(asdict(b))


class TestFuzzCorpus:
    """Fixed-seed corpus: 50 generated cases, zero tolerated violations."""

    def test_corpus_conformance(self):
        failures = []
        for i in range(CORPUS_SIZE):
            case = generate_case(FuzzSpec(), CORPUS_SEED, i)
            found = conformance_check(case)
            if found:
                failures.append((case.label(), found[0]))
        assert failures == [], (
            f"{len(failures)} non-conforming case(s); first: "
            f"{failures[0][0]}: {failures[0][1]}"
        )

    def test_single_case_check_reports_counterexamples(self):
        # The checker itself must produce actionable reports: a case
        # runs clean, and a drifted digest names the run and field.
        case = generate_case(FuzzSpec(), CORPUS_SEED, 0)
        assert conformance_check(case) == []
        expected = {"x.baseline": {"times": "a", "timeline": "t"}}
        actual = {"x.baseline": {"times": "b", "timeline": "t"}}
        (violation,) = diff_digests(expected, actual)
        assert violation.subject == "x.baseline.times"
        assert [v.subject for v in diff_digests(expected, {})] == [
            "x.baseline"
        ]


class TestGoldens:
    """Every golden run reproduces its recorded digests byte-for-byte."""

    def test_engine_matches_goldens(self):
        goldens = json.loads(GOLDEN_PATH.read_text())
        violations = diff_digests(goldens, record_digests())
        assert violations == [], (
            f"{len(violations)} drifted; first: {violations[0]}"
        )


class TestBatchedDispatchFusion:
    """Regressions for Event.succeed's batched dispatch under fusion.

    Multiple callbacks on one event are dispatched by a single queued
    closure. Mid-batch, pending sibling callbacks are due *now* but
    invisible to the queue — fusion must refuse exactly as the unfused
    engine's ``peek == now`` would.
    """

    def test_fusion_vetoed_while_siblings_pending(self):
        eng = Engine()
        ev = eng.event()
        observed = []

        def waiter(tag):
            def cb(_event):
                # can_advance must be False for every callback except
                # the last: siblings still inside the dispatch closure
                # correspond to same-time queued thunks.
                observed.append((tag, eng.can_advance(1.0)))
            return cb

        for tag in ("a", "b", "c"):
            ev.callbacks.append(waiter(tag))
        ev.succeed()
        eng.run()
        assert observed == [("a", False), ("b", False), ("c", True)]

    def test_callback_order_preserved(self):
        eng = Engine()
        ev = eng.event()
        order = []
        for tag in range(5):
            ev.callbacks.append(lambda _e, t=tag: order.append(t))
        ev.succeed()
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_wide_fanin_schedules_one_closure(self):
        # One queued dispatch closure per triggered event, not one thunk
        # per callback: a wide AllOf fan-in does not bloat the queue.
        for eng in (Engine(), UnfusedEngine()):
            ev = eng.event()
            fired = []
            for i in range(50):
                ev.callbacks.append(lambda _e, i=i: fired.append(i))
            ev.succeed()
            assert len(eng._queue) == 1
            eng.run()
            assert fired == list(range(50))

    def test_batch_guard_clears_after_dispatch(self):
        eng = Engine()
        ev = eng.event()
        ev.callbacks.append(lambda _e: None)
        ev.succeed()
        eng.run()
        assert eng._batch_remaining == 0
        # Fusion works again once the batch is fully dispatched.
        assert eng.try_advance(1.0)
        assert eng.now == 1.0

    def test_reference_engine_never_fuses(self):
        eng = UnfusedEngine()
        assert eng.can_advance(0.0) is False
        assert eng.try_advance(1.0) is False
        assert eng.now == 0.0

    def test_fusion_respects_the_run_horizon(self):
        eng = Engine()
        seen = []
        eng.schedule(0.0, lambda: seen.append(eng.can_advance(2.0)))
        eng.schedule(0.0, lambda: seen.append(eng.can_advance(0.5)))
        eng.run(until=1.0)
        assert seen == [False, True]
        assert eng.can_advance(2.0)  # the horizon ends with run()


class TestEquivalenceContractScope:
    """Engine-implementation counters stay outside the contract."""

    def test_fused_operations_skip_the_queue(self):
        # The optimization is visible only on the engine object: a
        # fused operation bumps fused_events, never events_processed.
        eng = Engine()
        assert eng.try_advance(1.0)
        assert eng.fused_events == 1
        assert eng.events_processed == 0
        assert eng.now == 1.0

    def test_engine_seam_selects_the_engine(self, fitted_apps, system_params):
        fitted = fitted_apps["canny"]
        plan = design_interconnect(
            "canny", fitted.graph,
            DesignConfig(theta_s_per_byte=system_params.theta_s_per_byte(),
                         stream_overhead_s=fitted.stream_overhead_s),
        )
        out = {}
        simulate_proposed(plan, 0.0, system_params, components_out=out)
        assert type(out["engine"]) is Engine
        assert out["engine"].fused_events > 0
        oracle = UnfusedEngine()
        simulate_proposed(plan, 0.0, system_params, components_out=out,
                          engine=oracle)
        assert out["engine"] is oracle and oracle.fused_events == 0
