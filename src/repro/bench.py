"""Continuous benchmark harness for the repo's hot paths.

``repro bench`` times the three CPU-bound cores — Algorithm 1
(:func:`repro.core.designer.design_interconnect`), the discrete-event
simulations, and the design-service batch path — and writes one
versioned ``bench-report`` JSON (the committed ``BENCH_repro.json``; CI
regenerates it on every push so timing drift is visible in review).

Methodology: every number is the **minimum** wall-clock over ``repeat``
runs. The minimum, not the mean, is the right estimator for a
deterministic CPU-bound workload — all variance is scheduler/cache
noise that only ever adds time. The profiler-overhead ratio divides two
such minima, so the ``--max-overhead`` CI gate fails only on real
slowdowns of the instrumented simulation path, not on a noisy run.

Every field of the report is described in its embedded ``schema`` map,
so the artifact is self-documenting.
"""

from __future__ import annotations

import math
import platform
import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence, Union

from .analyze import analyze_plan
from .apps import fit_application, get_application
from .apps.registry import APP_NAMES
from .core.designer import DesignConfig, design_interconnect
from .errors import ConfigurationError
from .io import FORMAT_VERSION, save_json
from .obs.flight import StackSampler
from .obs.profile.recorder import TimeseriesRecorder
from .obs.profile.report import build_profile
from .obs.trace import Tracer
from .sim.systems import SystemParams, simulate_baseline, simulate_proposed
from .static.fit import fit_static
from .verify.conformance import UnfusedEngine

#: Stack-sampling interval used by ``--profile-self`` measurements.
SELF_PROFILE_INTERVAL_S = 0.005

#: Document kind of the benchmark report artifact.
BENCH_KIND = "bench-report"

#: Field-by-field documentation embedded in every report.
BENCH_SCHEMA: Dict[str, str] = {
    "apps.<name>.design_s": (
        "best-of-repeat wall seconds for Algorithm 1 "
        "(design_interconnect) on the fitted communication graph"
    ),
    "apps.<name>.sim_baseline_s": (
        "best-of-repeat wall seconds for the baseline (shared-bus) "
        "discrete-event simulation, profiling disabled"
    ),
    "apps.<name>.sim_proposed_s": (
        "best-of-repeat wall seconds for the proposed-system "
        "discrete-event simulation, profiling disabled"
    ),
    "apps.<name>.sim_unfused_s": (
        "best-of-repeat wall seconds for the baseline simulation on the "
        "unfused oracle (repro.verify.conformance.UnfusedEngine: every "
        "timed wait goes through the event queue); byte-identical "
        "results to sim_baseline_s. The CI gate bounds "
        "sim_baseline_s / sim_unfused_s (--max-fusion-ratio)"
    ),
    "apps.<name>.sim_proposed_profiled_s": (
        "best-of-repeat wall seconds for the proposed-system simulation "
        "with a TimeseriesRecorder attached"
    ),
    "apps.<name>.profile_build_s": (
        "best-of-repeat wall seconds to fuse the recorder's samples into "
        "a SimulationProfile (timeseries + matrix + critical path)"
    ),
    "apps.<name>.profiler_overhead": (
        "sim_proposed_profiled_s / sim_proposed_s — the multiplicative "
        "cost of recording; the CI gate bounds this ratio"
    ),
    "apps.<name>.lint_s": (
        "best-of-repeat wall seconds for the full static-analysis rule "
        "pass (repro.analyze.analyze_plan) over the designed plan"
    ),
    "apps.<name>.trace_fit_s": (
        "best-of-repeat wall seconds for the traced calibration path: "
        "instantiate the app, execute it under the QUAD tracer, and fit "
        "(repro.apps.fit_application)"
    ),
    "apps.<name>.static_s": (
        "best-of-repeat wall seconds for the trace-free path: analyze "
        "the declarative task-graph description and fit "
        "(repro.static.fit_static) — no kernel executes"
    ),
    "apps.<name>.static_speedup": (
        "trace_fit_s / static_s — how much faster the static analyzer "
        "derives a design-ready graph than tracing an execution; a "
        "ratio, so the trend gate never times it"
    ),
    "service.batch_cold_s": (
        "wall seconds for DesignService.submit_many over all benched "
        "apps with an empty cache (serial, in-process)"
    ),
    "service.batch_warm_s": (
        "wall seconds for the identical batch served entirely from the "
        "in-memory result cache"
    ),
    "service.cache_speedup": "batch_cold_s / batch_warm_s",
    "apps.<name>.sim_sampled_s": (
        "per-pass wall seconds for the proposed-system simulation "
        "with the wall-clock stack sampler "
        "(repro.obs.flight.StackSampler) attached, amortized over a "
        "batch of passes sized to a >=50ms timing window; present only "
        "with --profile-self"
    ),
    "apps.<name>.sampler_overhead": (
        "min over interleaved rounds of sampled/plain wall time for "
        "the same calibrated batch of proposed-system simulation "
        "passes — the multiplicative cost of stack sampling; the CI "
        "gate bounds this ratio (--max-sampler-overhead)"
    ),
    "self_profile.interval_s": (
        "stack-sampling interval used for the phase-attribution pass"
    ),
    "self_profile.samples": (
        "total stack samples captured across the phase-attribution pass"
    ),
    "self_profile.phases.<phase>": (
        "fraction of samples attributed to each simulator phase "
        "(fusion, engine, other) by innermost-frame match"
    ),
    "self_profile.spans.<label>": (
        "samples attributed to each bench span (one sim:<app> span per "
        "benched application) by wall-clock overlap"
    ),
    "repeat": "timing repetitions; every *_s field is the minimum",
    "buckets": "utilization-timeseries bucket count used when profiling",
    "python": "interpreter version the numbers were measured on",
}


def _best_of(fn: Callable[[], Any], repeat: int) -> float:
    """Minimum wall-clock seconds of ``repeat`` calls to ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sampler_overhead(
    fn: Callable[[], Any],
    repeat: int,
    interval_s: float,
    min_window_s: float = 0.05,
) -> tuple[float, float]:
    """Paired (overhead ratio, sampled per-pass seconds) for ``fn``.

    A single pass of the simulators runs in well under a millisecond,
    where scheduler jitter dwarfs the sampler's true cost — the ratio
    of two independent sub-ms timings is noise. So both sides of the
    ratio time the *same* batch of passes, with the batch size
    calibrated so each timed window is at least ``min_window_s``. A
    fresh sampler per repeat keeps each run's aggregation cost
    identical; the minimum over repeats then measures steady-state
    sampling overhead, not a one-off warm-up.
    """
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    passes = max(1, math.ceil(min_window_s / max(once, 1e-9)))

    def window() -> float:
        t0 = time.perf_counter()
        for _ in range(passes):
            fn()
        return time.perf_counter() - t0

    # Each round pairs a plain window with an adjacent sampled window
    # and the gate takes the min of the per-round ratios: a load burst
    # on a shared runner pollutes one round, not the measurement, while
    # the true sampler cost floors *every* round's ratio and so cannot
    # be selected away.
    ratio = sampled = float("inf")
    for _ in range(max(repeat, 5)):
        plain = window()
        sampler = StackSampler(
            interval_s=interval_s, threads=[threading.get_ident()]
        )
        with sampler:
            with_sampler = window()
        sampled = min(sampled, with_sampler)
        if plain > 0:
            ratio = min(ratio, with_sampler / plain)
    if not math.isfinite(ratio):
        ratio = 1.0
    return ratio, sampled / passes


def bench_app(
    name: str,
    repeat: int = 3,
    buckets: int = 64,
    params: SystemParams = SystemParams(),
    profile_self: bool = False,
) -> Dict[str, float]:
    """Time one application's designer and simulator hot paths."""
    theta = params.theta_s_per_byte()
    fitted = fit_application(get_application(name), theta)
    config = DesignConfig(
        theta_s_per_byte=theta,
        stream_overhead_s=fitted.stream_overhead_s,
    )
    plan = design_interconnect(name, fitted.graph, config)

    design_s = _best_of(
        lambda: design_interconnect(name, fitted.graph, config), repeat
    )
    sim_baseline_s = _best_of(
        lambda: simulate_baseline(fitted.graph, fitted.host_other_s, params),
        repeat,
    )
    sim_proposed_s = _best_of(
        lambda: simulate_proposed(plan, fitted.host_other_s, params), repeat
    )
    sim_unfused_s = _best_of(
        lambda: simulate_baseline(
            fitted.graph, fitted.host_other_s, params, engine=UnfusedEngine()
        ),
        repeat,
    )

    # The profiled run rebuilds a fresh recorder each repeat so no run
    # pays for a predecessor's grown sample lists.
    profiled_best = float("inf")
    last_recorder = TimeseriesRecorder()
    last_times = simulate_proposed(
        plan, fitted.host_other_s, params, recorder=last_recorder
    )
    for _ in range(repeat):
        recorder = TimeseriesRecorder()
        start = time.perf_counter()
        times = simulate_proposed(
            plan, fitted.host_other_s, params, recorder=recorder
        )
        profiled_best = min(profiled_best, time.perf_counter() - start)
        last_recorder, last_times = recorder, times

    profile_build_s = _best_of(
        lambda: build_profile(
            name, last_times, last_recorder, plan.graph, buckets=buckets
        ),
        repeat,
    )
    lint_s = _best_of(lambda: analyze_plan(plan, params), repeat)
    # Both graph-derivation paths build a fresh Application each repeat:
    # the traced side re-executes the instrumented app every time anyway,
    # and giving the static side the same constructor cost keeps the
    # speedup an apples-to-apples end-to-end ratio.
    trace_fit_s = _best_of(
        lambda: fit_application(get_application(name), theta), repeat
    )
    static_s = _best_of(
        lambda: fit_static(get_application(name), theta), repeat
    )
    row: Dict[str, float] = {}
    if profile_self:
        overhead, sim_sampled_s = _sampler_overhead(
            lambda: simulate_proposed(plan, fitted.host_other_s, params),
            repeat,
            SELF_PROFILE_INTERVAL_S,
        )
        row["sim_sampled_s"] = sim_sampled_s
        row["sampler_overhead"] = overhead
    return {
        "design_s": design_s,
        "sim_baseline_s": sim_baseline_s,
        "sim_proposed_s": sim_proposed_s,
        "sim_unfused_s": sim_unfused_s,
        "sim_proposed_profiled_s": profiled_best,
        "profile_build_s": profile_build_s,
        "profiler_overhead": (
            profiled_best / sim_proposed_s if sim_proposed_s > 0 else 1.0
        ),
        "lint_s": lint_s,
        "trace_fit_s": trace_fit_s,
        "static_s": static_s,
        "static_speedup": (
            trace_fit_s / static_s if static_s > 0 else 1.0
        ),
        **row,
    }


def bench_self_profile(
    apps: Sequence[str],
    repeat: int = 3,
    params: SystemParams = SystemParams(),
    interval_s: float = 0.0005,
) -> "tuple[Dict[str, Any], StackSampler]":
    """Attribute simulation time to simulator phases.

    The attribution pass samples finer (0.5ms) than the overhead
    measurement (5ms) and loops each sim many times: here resolution
    matters and the cost is not being timed. One sampler observes the
    runs of every app, each wrapped in a ``sim:<app>`` span so samples
    can be folded both by code phase (fusion, engine) and by
    application. Returns the section for the report plus the stopped
    sampler, so callers can export the full speedscope document.
    """
    # Fit and design outside the sampled window: the question this
    # section answers is "where does *simulation* time go", and the
    # designer would otherwise dominate every profile.
    prepared = []
    theta = params.theta_s_per_byte()
    for name in apps:
        fitted = fit_application(get_application(name), theta)
        config = DesignConfig(
            theta_s_per_byte=theta,
            stream_overhead_s=fitted.stream_overhead_s,
        )
        plan = design_interconnect(name, fitted.graph, config)
        prepared.append((name, fitted, plan))

    sampler = StackSampler(
        interval_s=interval_s, threads=[threading.get_ident()]
    )
    tracer = Tracer()
    with sampler:
        for name, fitted, plan in prepared:
            with tracer.span(f"sim:{name}"):
                # The sims are sub-millisecond; loop well past `repeat`
                # so each span accumulates enough samples to attribute.
                for _ in range(max(repeat, 1) * 10):
                    simulate_proposed(plan, fitted.host_other_s, params)
                    simulate_baseline(fitted.graph, fitted.host_other_s, params)
    section: Dict[str, Any] = {
        "interval_s": interval_s,
        "samples": sampler.samples,
        "phases": sampler.phase_fractions(),
        "spans": sampler.fold_spans(tracer),
    }
    return section, sampler


def bench_service(apps: Sequence[str]) -> Dict[str, float]:
    """Time a cold vs warm service batch over ``apps`` (serial mode)."""
    from .service import DesignService
    from .service.jobs import DesignJob

    service = DesignService(jobs=1)
    jobs = [DesignJob(app=name) for name in apps]

    start = time.perf_counter()
    service.submit_many(jobs)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    service.submit_many(jobs)
    warm = time.perf_counter() - start
    return {
        "batch_cold_s": cold,
        "batch_warm_s": warm,
        "cache_speedup": cold / warm if warm > 0 else 1.0,
    }


def run_bench(
    apps: Sequence[str] = APP_NAMES,
    repeat: int = 3,
    buckets: int = 64,
    out: Optional[Union[str, "Any"]] = None,
    profile_self: bool = False,
    profile_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Benchmark every hot path; optionally write the JSON artifact.

    Unknown app names raise :class:`~repro.errors.ConfigurationError`
    before any timing.
    """
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
    unknown = set(apps) - set(APP_NAMES)
    if unknown:
        raise ConfigurationError(
            f"unknown applications: {sorted(unknown)} (have: {list(APP_NAMES)})"
        )
    report: Dict[str, Any] = {
        "kind": BENCH_KIND,
        "version": FORMAT_VERSION,
        "repeat": repeat,
        "buckets": buckets,
        "python": platform.python_version(),
        "apps": {
            name: bench_app(name, repeat, buckets, profile_self=profile_self)
            for name in apps
        },
        "service": bench_service(apps),
        "schema": BENCH_SCHEMA,
    }
    if profile_self:
        section, sampler = bench_self_profile(apps, repeat=repeat)
        report["self_profile"] = section
        if profile_out is not None:
            save_json(sampler.to_speedscope(name="repro-bench"), profile_out)
    if out is not None:
        save_json(report, out)
    return report


def render_bench(report: Dict[str, Any]) -> str:
    """Terminal table of one :func:`run_bench` report."""
    lines = [
        f"benchmark report (best of {report['repeat']}, "
        f"python {report['python']})",
        f"  {'app':<8}{'design':>10}{'sim base':>10}{'sim prop':>10}"
        f"{'unfused':>10}{'profiled':>10}{'build':>10}{'lint':>10}"
        f"{'static':>10}{'overhead':>10}{'static x':>9}",
    ]
    for name, row in report["apps"].items():
        lines.append(
            f"  {name:<8}"
            f"{row['design_s'] * 1e3:>8.2f}ms"
            f"{row['sim_baseline_s'] * 1e3:>8.2f}ms"
            f"{row['sim_proposed_s'] * 1e3:>8.2f}ms"
            f"{row.get('sim_unfused_s', 0.0) * 1e3:>8.2f}ms"
            f"{row['sim_proposed_profiled_s'] * 1e3:>8.2f}ms"
            f"{row['profile_build_s'] * 1e3:>8.2f}ms"
            f"{row.get('lint_s', 0.0) * 1e3:>8.2f}ms"
            f"{row.get('static_s', 0.0) * 1e3:>8.2f}ms"
            f"{row['profiler_overhead']:>9.2f}x"
            f"{row.get('static_speedup', 1.0):>8.2f}x"
        )
    profile = report.get("self_profile")
    if profile:
        phases = ", ".join(
            f"{phase} {fraction:.0%}"
            for phase, fraction in sorted(
                profile["phases"].items(), key=lambda kv: -kv[1]
            )
            if fraction > 0
        )
        overheads = [
            row["sampler_overhead"]
            for row in report["apps"].values()
            if "sampler_overhead" in row
        ]
        worst = max(overheads) if overheads else 1.0
        lines.append(
            f"  self-profile: {profile['samples']} samples "
            f"@ {profile['interval_s'] * 1e3:.0f}ms, sampler overhead "
            f"<= {worst:.2f}x; {phases or 'no simulator samples'}"
        )
    svc = report["service"]
    lines.append(
        f"  service: cold batch {svc['batch_cold_s'] * 1e3:.2f}ms, "
        f"warm {svc['batch_warm_s'] * 1e3:.2f}ms "
        f"({svc['cache_speedup']:.0f}x cached)"
    )
    return "\n".join(lines)
