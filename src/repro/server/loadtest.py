"""Closed-loop load harness for a running design server.

``repro loadtest`` drives N client threads against a server URL, each
issuing design requests round-robin over the paper's four applications,
and reports served latency percentiles plus error rates. The measured
phase runs against a *warm* cache (a warm-up pass primes every distinct
fingerprint first), so the numbers characterise the serving stack —
HTTP parse, admission, quota, batching, cache hit — rather than the
design pipeline the in-process benchmarks already cover.

The report is a versioned ``loadtest-report`` document;
:func:`merge_into_bench` folds its headline numbers into the committed
``BENCH_repro.json`` under a ``server`` section so CI tracks served
p50/p99 alongside the in-process timings. ``--max-error-rate`` turns
the harness into a gate: CI runs it at ``0``.
"""

from __future__ import annotations

import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import ConfigurationError, ServerError
from ..io import FORMAT_VERSION, load_json, save_json
from ..service.metrics import MetricsRegistry, percentile
from .client import DesignClient

DEFAULT_APPS = ("canny", "jpeg", "klt", "fluid")

#: Served-latency histogram bucket upper bounds (seconds). Tighter than
#: the service-side defaults: a warm-cache request is dominated by HTTP
#: parse + batching, so sub-millisecond resolution is where the signal is.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: Dotted-path descriptions merged into the bench report's ``schema``.
BENCH_SCHEMA = {
    "server.p50_ms": (
        "median served latency (milliseconds) of a warm-cache design "
        "request, measured end-to-end at the client"
    ),
    "server.p95_ms": (
        "95th-percentile served latency (milliseconds) of a warm-cache "
        "design request"
    ),
    "server.p99_ms": (
        "99th-percentile served latency (milliseconds) of a warm-cache "
        "design request"
    ),
    "server.mean_ms": "mean served latency (milliseconds)",
    "server.throughput_rps": (
        "completed requests per wall-clock second across all client "
        "threads"
    ),
    "server.error_rate": (
        "failed requests / total requests in the measured phase "
        "(429 rejections count as failures); CI gates this at 0"
    ),
    "server.requests": "total requests in the measured phase",
    "server.concurrency": "number of concurrent client threads",
}


@dataclass(frozen=True)
class LoadtestConfig:
    """Knobs for one load-test run."""

    url: str
    apps: Sequence[str] = DEFAULT_APPS
    requests: int = 200
    concurrency: int = 8
    tenant: Optional[str] = None
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigurationError("requests must be >= 1")
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        if not self.apps:
            raise ConfigurationError("apps must be non-empty")


@dataclass
class _Worker:
    """Per-thread tally; merged single-threaded after join."""

    latencies_s: List[float] = field(default_factory=list)
    ok: int = 0
    rejected: int = 0
    errors: int = 0
    first_error: str = ""


def _drive(
    config: LoadtestConfig, indices: Sequence[int], tally: _Worker
) -> None:
    client = DesignClient(
        config.url, tenant=config.tenant, timeout_s=config.timeout_s
    )
    apps = list(config.apps)
    for i in indices:
        app = apps[i % len(apps)]
        start = time.perf_counter()
        try:
            client.design(app)
        except ServerError as exc:
            if exc.status == 429:
                tally.rejected += 1
            else:
                tally.errors += 1
            if not tally.first_error:
                tally.first_error = f"{type(exc).__name__}: {exc}"
            continue
        tally.latencies_s.append(time.perf_counter() - start)
        tally.ok += 1


def run_loadtest(config: LoadtestConfig) -> Dict[str, Any]:
    """Warm the cache, run the measured phase, return the report doc."""
    warm_client = DesignClient(
        config.url, tenant=config.tenant, timeout_s=config.timeout_s
    )
    for app in config.apps:
        warm_client.design(app)  # prime every distinct fingerprint

    tallies = [_Worker() for _ in range(config.concurrency)]
    threads = []
    for w in range(config.concurrency):
        indices = range(w, config.requests, config.concurrency)
        thread = threading.Thread(
            target=_drive,
            args=(config, indices, tallies[w]),
            name=f"loadtest-{w}",
        )
        threads.append(thread)
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = max(time.perf_counter() - wall_start, 1e-9)

    latencies = sorted(
        lat for tally in tallies for lat in tally.latencies_s
    )
    # Bucketed view of the same observations, in Prometheus cumulative
    # ``le`` form — the registry is the single histogram implementation.
    registry = MetricsRegistry()
    for lat in latencies:
        registry.hist(
            "loadtest_latency_seconds", lat, buckets=LATENCY_BUCKETS
        )
    hist = registry.snapshot()["histograms"].get(
        "loadtest_latency_seconds",
        {"count": 0, "sum": 0.0, "buckets": {}},
    )
    ok = sum(t.ok for t in tallies)
    rejected = sum(t.rejected for t in tallies)
    errors = sum(t.errors for t in tallies)
    failed = rejected + errors
    first_error = next(
        (t.first_error for t in tallies if t.first_error), ""
    )
    return {
        "kind": "loadtest-report",
        "version": FORMAT_VERSION,
        "url": config.url,
        "apps": list(config.apps),
        "requests": config.requests,
        "concurrency": config.concurrency,
        "ok": ok,
        "rejected": rejected,
        "errors": errors,
        "error_rate": failed / config.requests,
        "first_error": first_error,
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "p95_ms": percentile(latencies, 95.0) * 1e3,
        "p99_ms": percentile(latencies, 99.0) * 1e3,
        "mean_ms": (
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0
        ),
        "throughput_rps": ok / wall_s,
        "wall_s": wall_s,
        "latency_hist": hist,
    }


def merge_into_bench(
    report: Dict[str, Any], bench_path: Union[str, pathlib.Path]
) -> Dict[str, Any]:
    """Fold headline loadtest numbers into an existing bench report.

    Returns the merged document (also written back to ``bench_path``).
    Missing bench file is an error — the loadtest annotates the
    committed benchmark, it does not replace it.
    """
    path = pathlib.Path(bench_path)
    doc = load_json(path)
    doc["server"] = {
        "p50_ms": report["p50_ms"],
        "p95_ms": report["p95_ms"],
        "p99_ms": report["p99_ms"],
        "mean_ms": report["mean_ms"],
        "throughput_rps": report["throughput_rps"],
        "error_rate": report["error_rate"],
        "requests": report["requests"],
        "concurrency": report["concurrency"],
    }
    schema = dict(doc.get("schema", {}))
    schema.update(BENCH_SCHEMA)
    doc["schema"] = schema
    save_json(doc, path)
    return doc


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable one-screen summary."""
    lines = [
        f"loadtest against {report['url']}",
        (
            f"  {report['requests']} requests x "
            f"{report['concurrency']} threads over "
            f"{report['apps']}"
        ),
        (
            f"  ok {report['ok']}, rejected {report['rejected']}, "
            f"errors {report['errors']} "
            f"(error rate {report['error_rate']:.3f})"
        ),
        (
            f"  latency p50 {report['p50_ms']:.2f}ms, "
            f"p95 {report.get('p95_ms', 0.0):.2f}ms, "
            f"p99 {report['p99_ms']:.2f}ms, "
            f"mean {report['mean_ms']:.2f}ms"
        ),
        f"  throughput {report['throughput_rps']:.1f} req/s",
    ]
    hist = report.get("latency_hist") or {}
    buckets = hist.get("buckets") or {}
    if hist.get("count"):
        lines.append("  latency histogram (cumulative):")
        total = hist["count"]
        for bound, cum in buckets.items():
            label = (
                "+Inf" if bound == "+Inf"
                else f"<= {float(bound) * 1e3:.1f}ms"
            )
            bar = "#" * round(20 * cum / total) if total else ""
            lines.append(f"    {label:>12} {cum:>6} {bar}")
    if report["first_error"]:
        lines.append(f"  first error: {report['first_error']}")
    return "\n".join(lines)
