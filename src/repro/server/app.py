"""The design server: routes, middleware, and streaming.

Request path for design work (the order is the architecture):

```
accept → parse → admission (bounded queue, 429 + Retry-After)
               → quota     (per-tenant token bucket, 429 + Retry-After)
               → batcher   (micro-batch into DesignService.submit_many)
               → service   (cache / coalesce / execute)
               → respond   (canonical JSON, byte-identical to in-process)
```

Routes:

* ``POST /v1/design`` — one job; responds with the flat result summary.
* ``POST /v1/sweep`` — a grid; all point records in one response.
* ``POST /v1/sweep?stream=1`` (or ``/v1/sweep/stream``) — SSE: one
  ``point`` event per completed grid point, a final ``done`` event.
* ``GET /v1/jobs/<fingerprint>`` — cache lookup by job fingerprint
  (side-effect-free: uses :meth:`ResultCache.peek`).
* ``GET /healthz`` — liveness (always 200 while the process runs).
* ``GET /readyz`` — readiness (503 once draining).
* ``GET /metrics`` — Prometheus text exposition: the server's own
  registry plus the wrapped service's, via :mod:`repro.obs.export`.

Every request runs inside a tracer span (``category="server"``) carrying
route/tenant/status, so one Chrome trace shows the HTTP layer and the
pipeline stages it triggered.
"""

from __future__ import annotations

import asyncio
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import (
    ConfigurationError,
    JobExecutionError,
    ProtocolError,
    ReproError,
)
from ..obs.export import escape_label_value, to_prometheus
from ..obs.flight import (
    FlightRecorder,
    RingTracer,
    StallWatchdog,
    build_flight_report,
    write_flight_dump,
)
from ..obs.runtime.events import EventLog
from ..obs.runtime.tracecontext import (
    TraceContext,
    new_trace_context,
    parse_traceparent,
)
from ..obs.trace import Tracer, active
from ..service.api import DesignService
from ..service.jobs import job_for_point
from ..service.metrics import MetricsRegistry
from . import protocol
from .admission import AdmissionController
from .batcher import RequestBatcher
from .http import HttpRequest, HttpResponse, SseStream, read_request, response_bytes
from .quota import QuotaManager, sanitize_tenant


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` lets you turn."""

    host: str = "127.0.0.1"
    port: int = 8014
    #: Service parallelism (worker processes; 1 = in-process serial).
    jobs: int = 1
    #: Optional on-disk result cache shared across restarts.
    cache_dir: Optional[str] = None
    #: Admission bounds: executing + queued requests.
    max_inflight: int = 8
    max_queue: int = 32
    #: Per-tenant token bucket (tokens/second, bucket capacity).
    quota_rate: float = 50.0
    quota_burst: float = 100.0
    #: Micro-batching window and size cap.
    batch_window_s: float = 0.002
    batch_max: int = 16
    #: Request-body and sweep-size ceilings.
    max_body_bytes: int = 1 << 20
    max_sweep_points: int = 4096
    #: Graceful-drain budget before the server stops waiting.
    drain_timeout_s: float = 10.0
    #: Runtime event-log ring size and optional JSONL sink path.
    event_capacity: int = 512
    event_log_path: Optional[str] = None
    #: Size cap for the JSONL sink in MB; crossing it rotates the file
    #: to ``<path>.1`` (0 = unbounded).
    event_log_max_mb: float = 0.0
    #: Events shown in the ``/v1/debug`` tail.
    debug_tail: int = 32
    #: Flight recorder: where post-mortem dumps land, span-ring size,
    #: metrics-snapshot ring size and cadence. The recorder itself is
    #: always on — these only bound what it remembers.
    flight_dir: str = "."
    flight_spans: int = 256
    flight_snapshots: int = 32
    flight_snapshot_interval_s: float = 5.0
    #: Stall watchdog: check cadence, the event loop's heartbeat budget,
    #: and how old a pending batch / in-flight flush may grow before the
    #: batcher (or the worker pool behind it) is declared wedged.
    #: ``watchdog_enabled=False`` skips the thread entirely (tests).
    watchdog_enabled: bool = True
    watchdog_interval_s: float = 0.25
    watchdog_loop_lag_s: float = 2.0
    watchdog_batch_stall_s: float = 30.0

    def __post_init__(self) -> None:
        if self.batch_window_s < 0:
            raise ConfigurationError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.event_log_max_mb < 0:
            raise ConfigurationError(
                f"event_log_max_mb must be >= 0, got {self.event_log_max_mb}"
            )
        if self.watchdog_interval_s <= 0 or self.watchdog_loop_lag_s <= 0 \
                or self.watchdog_batch_stall_s <= 0:
            raise ConfigurationError(
                "watchdog intervals/budgets must be > 0"
            )
        if self.max_body_bytes < 1:
            raise ConfigurationError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )


class DesignServer:
    """Asyncio HTTP front end over one :class:`DesignService`."""

    def __init__(
        self,
        service: DesignService,
        config: ServerConfig = ServerConfig(),
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        clock: Any = time.monotonic,
        events: Optional[EventLog] = None,
    ) -> None:
        self.service = service
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        # Span capture is always on: callers may inject their own
        # tracer, otherwise a bounded ring keeps the most recent spans
        # for flight dumps at a fixed memory cost. Tracing never touches
        # response payloads, so served summaries stay byte-identical.
        self.tracer = (
            active(tracer) if tracer is not None
            else RingTracer(capacity=config.flight_spans)
        )
        sink_cap = (
            int(config.event_log_max_mb * 1_000_000)
            if config.event_log_max_mb > 0 else None
        )
        self.events = events if events is not None else EventLog(
            capacity=config.event_capacity, sink=config.event_log_path,
            sink_max_bytes=sink_cap,
        )
        # The wrapped service reports into the same log unless it was
        # built with its own — cache hits/misses and pool recycles then
        # appear in this server's /v1/debug tail.
        if not service.events.enabled:
            service.attach_events(self.events)
        self.quotas = QuotaManager(
            rate=config.quota_rate, burst=config.quota_burst, clock=clock
        )
        self.admission = AdmissionController(
            max_inflight=config.max_inflight, max_queue=config.max_queue
        )
        self.batcher = RequestBatcher(
            service,
            window_s=config.batch_window_s,
            max_batch=config.batch_max,
            registry=self.registry,
            events=self.events,
        )
        self.flight = FlightRecorder(
            tracer=self.tracer,
            events=self.events,
            registry=self.registry,
            snapshot_capacity=config.flight_snapshots,
            snapshot_interval_s=config.flight_snapshot_interval_s,
        )
        self.watchdog = StallWatchdog(
            interval_s=config.watchdog_interval_s,
            events=self.events,
            on_trip=self._on_stall,
            on_clear=self._on_stall_cleared,
        )
        self._loop_heartbeat = self.watchdog.heartbeat(
            "event_loop", config.watchdog_loop_lag_s
        )
        self.watchdog.probe(
            "batcher",
            self.batcher.stall_probe(config.watchdog_batch_stall_s),
        )
        self._beat_task: Optional["asyncio.Task[None]"] = None
        #: ``"source: detail"`` while the watchdog says we are stalled;
        #: surfaced as a 503 on /readyz. Written from the watchdog
        #: thread, read on the event loop (atomic str/None store).
        self._stalled: Optional[str] = None
        self.last_flight_dump: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = time.monotonic()
        # In-flight request table for /v1/debug: request id -> live row.
        # Event-loop-thread-only, like the admission controller.
        self._active: Dict[int, Dict[str, Any]] = {}
        self._next_request_id = 0
        # Exemplar-style labels: route -> (trace id, latency seconds) of
        # the most recent request, exported as bounded-cardinality
        # gauges next to the latency summary.
        self._last_latency: Dict[str, tuple] = {}

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        if self.config.watchdog_enabled:
            self._beat_task = asyncio.get_running_loop().create_task(
                self._beat_loop()
            )
            self.watchdog.start()

    async def _beat_loop(self) -> None:
        """Heartbeat the watchdog from the event loop; feed the recorder.

        A blocked loop cannot run this task — which is exactly how the
        watchdog detects event-loop lag. Metrics snapshots piggyback on
        the same tick (rate-limited inside the recorder), keeping the
        request paths free of snapshot work.
        """
        while True:
            self._loop_heartbeat.beat()
            self.flight.maybe_snapshot()
            await asyncio.sleep(self.config.watchdog_interval_s)

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def drain(self) -> bool:
        """Graceful shutdown: refuse new work, wait out the in-flight.

        Returns ``True`` if the house emptied inside the configured
        drain budget. The listening socket closes immediately so new
        connections are refused at the TCP level; requests already
        admitted run to completion and are answered.
        """
        self.admission.start_drain()
        self.watchdog.stop()
        if self._beat_task is not None:
            self._beat_task.cancel()
            self._beat_task = None
        if self.events.enabled:
            self.events.emit("drain_begin")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout_s
        clean = True
        while not self.admission.drained():
            if time.monotonic() >= deadline:
                clean = False
                break
            await asyncio.sleep(0.01)
        if clean:
            await self.batcher.wait_idle()
            if self.events.enabled:
                self.events.emit("drain_idle")
        if self.events.enabled:
            self.events.emit("drain_done", clean=clean)
        self.events.close()
        return clean

    # -- flight recorder / watchdog ----------------------------------------
    def _on_stall(self, source: str, message: str) -> None:
        """Watchdog trip (watchdog thread): dump, then degrade readiness.

        The dump lands first so that anyone who sees "stalled" on
        ``/readyz`` also finds its post-mortem on disk.
        """
        try:
            self.flight_dump(f"watchdog:{source}")
        except OSError:
            pass  # a full disk must not take down the watchdog
        self._stalled = f"{source}: {message}"

    def _on_stall_cleared(self, source: str) -> None:
        if not self.watchdog.tripped:
            self._stalled = None

    def _flight_state(self) -> Dict[str, Any]:
        """Admission/batcher/pool counters for the dump's ``state``.

        Read lock-free from whatever thread triggers the dump — every
        field is an atomic attribute read, and a post-mortem prefers a
        near-consistent answer *now* over a consistent one never.
        """
        return {
            "admission": {
                "inflight": self.admission.inflight,
                "queue_depth": self.admission.queue_depth,
                "rejected": self.admission.rejected,
                "draining": self.admission.draining,
            },
            "batcher": {
                "pending": self.batcher.pending,
                "inflight_flushes": self.batcher.inflight_flushes,
                "oldest_pending_age_s": round(
                    self.batcher.oldest_pending_age_s(), 3
                ),
                "longest_flush_age_s": round(
                    self.batcher.longest_flush_age_s(), 3
                ),
            },
            "service": {
                "execution_mode": self.service.execution_mode,
                "jobs_submitted": self.service.metrics.counter(
                    "jobs_submitted"
                ),
                "jobs_completed": self.service.metrics.counter(
                    "jobs_completed"
                ),
                "jobs_failed": self.service.metrics.counter("jobs_failed"),
            },
            "active_requests": len(self._active),
        }

    def flight_dump(self, reason: str) -> "pathlib.Path":
        """Write a post-mortem ``flight-report`` now; returns its path.

        Callable from any thread (SIGQUIT handler, watchdog, crash
        path). The dump is assembled from the recorder's bounded rings
        plus live thread stacks, so it is cheap even mid-incident.
        """
        doc = build_flight_report(
            reason,
            recorder=self.flight,
            watchdog=self.watchdog,
            state=self._flight_state(),
        )
        path = write_flight_dump(doc, self.config.flight_dir)
        self.last_flight_dump = str(path)
        if self.events.enabled:
            self.events.emit("flight_dump", reason=reason, path=str(path))
        return path

    # -- connection handling -----------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(
                    reader, self.config.max_body_bytes
                )
            except ProtocolError as exc:
                await self._write(writer, self._error_response(exc))
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if request is None:
                return
            await self._serve_request(request, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        route = self._route_label(request)
        tenant = sanitize_tenant(request.header("x-tenant"))
        # Adopt the caller's W3C trace context, or mint one for clients
        # that sent none — every request has a trace id either way, and
        # it is echoed in the response envelope.
        ctx = parse_traceparent(request.header("traceparent"))
        if ctx is None:
            ctx = new_trace_context()
        request_id = self._next_request_id
        self._next_request_id += 1
        self._active[request_id] = {
            "trace_id": ctx.trace_id,
            "route": route,
            "tenant": tenant,
            "since": time.monotonic(),
        }
        if self.events.enabled:
            self.events.emit("request_start", trace_id=ctx.trace_id,
                             tenant=tenant, route=route)
        start = time.perf_counter()
        status = 500
        try:
            with self.tracer.span(
                "http_request", category="server",
                route=route, tenant=tenant, trace_id=ctx.trace_id,
            ):
                response = await self._dispatch(
                    request, writer, route, tenant, ctx
                )
            if response is None:  # handler streamed its own body
                status = 200
                return
            status = response.status
            await self._write(writer, response)
        except ProtocolError as exc:
            status = exc.status or 400
            await self._write(writer, self._error_response(exc, ctx))
        except JobExecutionError as exc:
            status = 500
            await self._write(
                writer, self._json_error(500, str(exc), ctx=ctx)
            )
        except ReproError as exc:
            status = 400
            await self._write(
                writer, self._json_error(400, str(exc), ctx=ctx)
            )
        finally:
            duration = time.perf_counter() - start
            self._active.pop(request_id, None)
            self._last_latency[route] = (ctx.trace_id, duration)
            # Tenant values are client-supplied: sanitize_tenant bounded
            # them and metric_key escapes them into the series name.
            self.registry.incr(
                "http_requests",
                labels={"route": route, "status": status, "tenant": tenant},
            )
            self.registry.observe(
                "http_request", duration, labels={"route": route}
            )
            if self.events.enabled:
                self.events.emit(
                    "request_finish", trace_id=ctx.trace_id, tenant=tenant,
                    route=route, status=status,
                    duration_ms=round(duration * 1e3, 3),
                )

    async def _write(
        self, writer: asyncio.StreamWriter, response: HttpResponse
    ) -> None:
        writer.write(response_bytes(response))
        await writer.drain()

    # -- routing -----------------------------------------------------------
    @staticmethod
    def _route_label(request: HttpRequest) -> str:
        """Bounded-cardinality route label for metrics."""
        path = request.path
        if path.startswith("/v1/jobs/"):
            return "/v1/jobs/{fingerprint}"
        known = {
            "/v1/design", "/v1/sweep", "/v1/sweep/stream", "/v1/debug",
            "/healthz", "/readyz", "/metrics",
        }
        return path if path in known else "<unknown>"

    async def _dispatch(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        route: str,
        tenant: str,
        ctx: TraceContext,
    ) -> Optional[HttpResponse]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return self._text(200, "ok\n")
        if path == "/readyz" and method == "GET":
            if self.admission.draining:
                return self._text(503, "draining\n")
            stalled = self._stalled
            if stalled is not None:
                return self._text(503, f"stalled: {stalled}\n")
            return self._text(200, "ready\n")
        if path == "/metrics" and method == "GET":
            return self._metrics_response()
        if path == "/v1/debug" and method == "GET":
            return self._debug_endpoint(ctx)
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._job_lookup(path[len("/v1/jobs/"):], ctx)
        if path == "/v1/design" and method == "POST":
            return await self._design(request, tenant, ctx)
        if path in ("/v1/sweep", "/v1/sweep/stream") and method == "POST":
            stream = (
                path.endswith("/stream")
                or request.query.get("stream") in ("1", "true")
            )
            return await self._sweep(request, writer, tenant, stream, ctx)
        if path in ("/healthz", "/readyz", "/metrics", "/v1/design",
                    "/v1/sweep", "/v1/sweep/stream", "/v1/debug") or \
                path.startswith("/v1/jobs/"):
            return self._json_error(
                405, f"{method} not allowed on {path}", ctx=ctx
            )
        return self._json_error(404, f"no route for {path}", ctx=ctx)

    # -- admission / quota middleware ---------------------------------------
    def _gate(
        self, tenant: str, route: str, ctx: TraceContext
    ) -> Optional[HttpResponse]:
        """Admission + quota; a response means 'rejected, send this'."""
        if self.admission.draining:
            return self._json_error(
                503, "server is draining", retry_after_s=5.0, ctx=ctx
            )
        admitted, retry_after = self.admission.try_acquire()
        if not admitted:
            self.registry.incr("admission_rejections")
            if self.events.enabled:
                self.events.emit(
                    "admission_reject", trace_id=ctx.trace_id,
                    tenant=tenant, route=route,
                    retry_after_s=retry_after,
                )
            return self._json_error(
                429, "server at capacity", retry_after_s=retry_after,
                ctx=ctx,
            )
        allowed, quota_retry = self.quotas.allow(tenant)
        if not allowed:
            # Undo the admission slot — this request will not execute.
            self.admission.release(-1.0)
            self.registry.incr(
                "quota_rejections", labels={"tenant": tenant}
            )
            retry = float(max(1, int(quota_retry) + 1))
            if self.events.enabled:
                self.events.emit(
                    "quota_reject", trace_id=ctx.trace_id,
                    tenant=tenant, route=route, retry_after_s=retry,
                )
            return self._json_error(
                429, f"tenant {tenant!r} over quota", retry_after_s=retry,
                ctx=ctx,
            )
        return None

    # -- handlers -----------------------------------------------------------
    async def _design(
        self, request: HttpRequest, tenant: str, ctx: TraceContext
    ) -> HttpResponse:
        rejection = self._gate(tenant, "/v1/design", ctx)
        if rejection is not None:
            return rejection
        start = time.perf_counter()
        try:
            job = protocol.parse_design_request(
                protocol.decode_body(request.body)
            )
            result = await self.batcher.submit(job, trace_id=ctx.trace_id)
            return self._json(
                200, protocol.design_response(result, trace_id=ctx.trace_id)
            )
        finally:
            self.admission.release(time.perf_counter() - start)

    async def _sweep(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        tenant: str,
        stream: bool,
        ctx: TraceContext,
    ) -> Optional[HttpResponse]:
        rejection = self._gate(
            tenant, "/v1/sweep/stream" if stream else "/v1/sweep", ctx
        )
        if rejection is not None:
            return rejection
        start = time.perf_counter()
        try:
            grid = protocol.parse_sweep_request(
                protocol.decode_body(request.body),
                max_points=self.config.max_sweep_points,
            )
            specs = [
                job_for_point(
                    app=coord["app"], scale=coord["scale"], seed=grid.seed,
                    params=coord["params"], simulate=grid.simulate,
                )
                for coord in grid.points()
            ]
            if not stream:
                loop = asyncio.get_running_loop()
                trace_ids = [ctx.trace_id] * len(specs)
                results = await loop.run_in_executor(
                    None, lambda: self.service.submit_many(
                        specs, trace_ids=trace_ids
                    )
                )
                return self._json(
                    200,
                    protocol.sweep_response(
                        grid, results, trace_id=ctx.trace_id
                    ),
                )
            sse = SseStream(writer)
            await sse.start()
            for spec in specs:
                result = await self.batcher.submit(
                    spec, trace_id=ctx.trace_id
                )
                record = protocol.point_record(grid, result)
                # Echo the request's trace id on every point event so a
                # client can join a partially consumed stream against
                # server-side spans/events (mirrors /v1/design).
                record["trace_id"] = ctx.trace_id
                await sse.event(
                    "point", protocol.encode(record).decode("utf-8")
                )
            await sse.event(
                "done",
                protocol.encode(
                    {"count": len(specs), "fingerprints": len(
                        {s.fingerprint() for s in specs}),
                     "trace_id": ctx.trace_id}
                ).decode("utf-8"),
            )
            await sse.close()
            self.registry.incr("sweep_streams")
            return None
        finally:
            self.admission.release(time.perf_counter() - start)

    def _job_lookup(
        self, fingerprint: str, ctx: TraceContext
    ) -> HttpResponse:
        summary = self.service.cache.peek(fingerprint)
        if summary is None:
            return self._json_error(
                404, f"no cached result for fingerprint {fingerprint!r}",
                ctx=ctx,
            )
        return self._json(
            200,
            protocol.job_response(fingerprint, summary,
                                  trace_id=ctx.trace_id),
        )

    def _metrics_response(self) -> HttpResponse:
        # Two registries, one exposition: server-side series (http_*,
        # quota_*, admission, batching) plus the wrapped service's
        # (jobs_*, cache) — names are disjoint by construction.
        #
        # Each registry's state is captured by dump() (one lock
        # acquisition per registry) and merged into a scratch registry
        # before rendering, so one scrape is a consistent cut: the old
        # per-registry to_prometheus calls re-read live state between
        # sections and could interleave a half-applied update from a
        # concurrent request into the same exposition.
        self.registry.gauge("inflight_requests", self.admission.inflight)
        self.registry.gauge("queue_depth", self.admission.queue_depth)
        for key, count in self.events.metric_counts().items():
            self.registry.gauge(key, float(count))
        merged = MetricsRegistry()
        merged.merge(self.registry.dump())
        merged.merge(self.service.metrics.dump())
        text = to_prometheus(merged.snapshot())
        cache = self.service.cache.stats
        hits, misses = cache.hits, cache.misses
        text += (
            f"# TYPE repro_cache_hits counter\n"
            f"repro_cache_hits {hits}\n"
            f"# TYPE repro_cache_misses counter\n"
            f"repro_cache_misses {misses}\n"
        )
        text += self._exemplar_lines()
        return HttpResponse(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _exemplar_lines(self) -> str:
        """Exemplar-style gauges: last latency + trace id per route.

        The classic exposition format has no exemplar syntax, so the
        trace id rides as a label on a dedicated last-value gauge next
        to the ``repro_http_request`` summary. Cardinality is bounded
        by the route set (one line per route, latest trace wins).
        """
        if not self._last_latency:
            return ""
        lines = ["# TYPE repro_http_request_last_seconds gauge"]
        for route in sorted(self._last_latency):
            trace_id, duration = self._last_latency[route]
            lines.append(
                f'repro_http_request_last_seconds'
                f'{{route="{escape_label_value(route)}",'
                f'trace_id="{escape_label_value(trace_id)}"}} '
                f"{duration:.9f}"
            )
        return "\n".join(lines) + "\n"

    def _debug_endpoint(self, ctx: TraceContext) -> HttpResponse:
        """``GET /v1/debug``: one consistent view of the live server.

        Assembled on the event-loop thread, so the admission counters,
        in-flight table, and batcher state are one coherent instant.
        """
        now = time.monotonic()
        inflight_rows = sorted(
            (
                {
                    "trace_id": row["trace_id"],
                    "route": row["route"],
                    "tenant": row["tenant"],
                    "age_s": round(now - row["since"], 6),
                }
                for row in self._active.values()
            ),
            key=lambda row: -float(row["age_s"]),
        )
        cache = self.service.cache.stats
        metrics = self.service.metrics
        debug: Dict[str, Any] = {
            "uptime_s": round(now - self._started, 3),
            "inflight_requests": inflight_rows,
            "admission": {
                "inflight": self.admission.inflight,
                "queue_depth": self.admission.queue_depth,
                "max_inflight": self.admission.max_inflight,
                "max_queue": self.admission.max_queue,
                "capacity": self.admission.capacity,
                "rejected": self.admission.rejected,
                "draining": self.admission.draining,
                "latency_ewma_s": self.admission.latency_ewma_s,
            },
            "batcher": {
                "pending": self.batcher.pending,
                "inflight_flushes": self.batcher.inflight_flushes,
                "window_s": self.batcher.window_s,
                "max_batch": self.batcher.max_batch,
            },
            "tenants": {
                tenant: {
                    "remaining": round(self.quotas.remaining(tenant), 3),
                    "burst": self.quotas.burst,
                    "rate": self.quotas.rate,
                }
                for tenant in self.quotas.tenants()
            },
            "cache": cache.as_dict(),
            "service": {
                "jobs_submitted": metrics.counter("jobs_submitted"),
                "jobs_completed": metrics.counter("jobs_completed"),
                "jobs_coalesced": metrics.counter("jobs_coalesced"),
                "jobs_joined": metrics.counter("jobs_joined"),
                "jobs_failed": metrics.counter("jobs_failed"),
                "last_mode": self.service.execution_mode,
            },
            "events": {
                "counts": self.events.counts(),
                "recent": [
                    event.as_dict()
                    for event in self.events.tail(self.config.debug_tail)
                ],
            },
            "flight": {
                "recorder": self.flight.state(),
                "watchdog": self.watchdog.status(),
                "stalled": self._stalled,
                "dir": self.config.flight_dir,
                "last_dump": self.last_flight_dump,
            },
        }
        return self._json(
            200, protocol.debug_response(debug, trace_id=ctx.trace_id)
        )

    # -- response helpers ----------------------------------------------------
    @staticmethod
    def _json(status: int, doc: Dict[str, Any]) -> HttpResponse:
        return HttpResponse(status=status, body=protocol.encode(doc))

    @staticmethod
    def _text(status: int, text: str) -> HttpResponse:
        return HttpResponse(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; charset=utf-8",
        )

    def _json_error(
        self,
        status: int,
        message: str,
        retry_after_s: Optional[float] = None,
        ctx: Optional[TraceContext] = None,
    ) -> HttpResponse:
        headers: Dict[str, str] = {}
        if retry_after_s is not None:
            headers["Retry-After"] = str(max(1, int(retry_after_s)))
        return HttpResponse(
            status=status,
            body=protocol.encode(
                protocol.error_body(
                    status, message, retry_after_s,
                    trace_id=ctx.trace_id if ctx is not None else "",
                )
            ),
            headers=headers,
        )

    def _error_response(
        self, exc: ProtocolError, ctx: Optional[TraceContext] = None
    ) -> HttpResponse:
        return self._json_error(exc.status or 400, str(exc), ctx=ctx)
