"""Tests for ``repro.server``: protocol, quota, admission, HTTP e2e.

The unit halves (protocol parsing, token-bucket math under a fake
clock, tenant sanitization, admission accounting) run with no sockets.
The e2e half boots one real server on an ephemeral port per test class
via :func:`repro.server.start_in_thread` and drives it with the
blocking :class:`repro.server.DesignClient` — the same path CI's smoke
job exercises externally.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError, ProtocolError, ServerError
from repro.flow import result_summary, run_experiment
from repro.io import canonical_json
from repro.obs.export import to_prometheus
from repro.server import (
    AdmissionController,
    DesignClient,
    QuotaManager,
    ServerConfig,
    sanitize_tenant,
    start_in_thread,
)
from repro.server import protocol
from repro.server.http import parse_sse_stream
from repro.server.quota import DEFAULT_TENANT, MAX_TENANT_CHARS
from repro.service.metrics import MetricsRegistry, metric_key


class TestProtocol:
    def test_design_request_roundtrip(self):
        job = protocol.parse_design_request({
            "app": "klt", "scale": 2, "seed": 7, "simulate": False,
            "params": {"bus_width_bytes": 4},
            "design": {"enable_sharing": False},
        })
        assert job.app == "klt" and job.scale == 2 and job.seed == 7
        assert not job.simulate
        assert job.params.bus_width_bytes == 4
        assert job.design_overrides == {"enable_sharing": False}

    def test_design_request_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_design_request({"app": "klt", "scle": 2})
        assert err.value.status == 400
        assert "scle" in str(err.value)

    def test_design_request_rejects_unknown_param(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_design_request(
                {"app": "klt", "params": {"no_such_knob": 1}}
            )
        assert err.value.status == 400

    def test_design_request_needs_app(self):
        with pytest.raises(ProtocolError):
            protocol.parse_design_request({"scale": 1})

    def test_sweep_request_builds_grid(self):
        grid = protocol.parse_sweep_request({
            "apps": ["canny", "jpeg"], "scales": [1, 2],
            "param_grid": {"bus_width_bytes": [4, 8]},
        })
        assert grid.size() == 2 * 2 * 2

    def test_sweep_request_caps_grid_size(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_sweep_request(
                {"apps": ["canny"], "scales": [1, 2]}, max_points=1
            )
        assert err.value.status == 413

    def test_decode_body_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.decode_body(b"[1, 2]")
        with pytest.raises(ProtocolError):
            protocol.decode_body(b"not json")

    def test_encode_is_canonical(self):
        doc = {"b": 1, "a": {"z": 0.1, "y": [1, 2]}}
        assert protocol.encode(doc) == canonical_json(doc).encode()

    def test_error_body_carries_retry_hint(self):
        doc = protocol.error_body(429, "slow down", retry_after_s=3.0)
        assert doc["status"] == 429
        assert doc["retry_after_s"] == 3.0
        assert "retry_after_s" not in protocol.error_body(400, "bad")


class TestSanitizeTenant:
    def test_passthrough(self):
        assert sanitize_tenant("team-a") == "team-a"

    def test_strips_control_characters(self):
        assert sanitize_tenant("evil\r\nSet-Cookie: x") == (
            "evilSet-Cookie: x"
        )
        assert sanitize_tenant("a\x00b\x1fc") == "abc"

    def test_empty_falls_back_to_default(self):
        assert sanitize_tenant("") == DEFAULT_TENANT
        assert sanitize_tenant("  \r\n ") == DEFAULT_TENANT

    def test_truncates(self):
        assert sanitize_tenant("x" * 500) == "x" * MAX_TENANT_CHARS

    def test_injection_cannot_forge_prometheus_series(self):
        """A hostile tenant id must not break exposition parsing.

        The two layers under test: ``sanitize_tenant`` drops newlines
        (no new exposition lines), and ``metric_key`` escapes quotes
        and backslashes (no label-value breakout). The forged sample
        must appear only as an escaped *value*, never as its own line.
        """
        hostile = 'a"} 1\nforged_metric{x="y'
        tenant = sanitize_tenant(hostile)
        assert "\n" not in tenant

        registry = MetricsRegistry()
        registry.incr("quota_rejections", labels={"tenant": tenant})
        text = to_prometheus(registry.snapshot())
        forged = [
            line for line in text.splitlines()
            if line.startswith("forged_metric")
        ]
        assert forged == [], text
        # The real series is present, with the payload safely quoted.
        assert 'quota_rejections{tenant="' in text
        key = metric_key("quota_rejections", {"tenant": tenant})
        assert '\\"' in key  # quote escaped, not terminating the value


class TestQuota:
    def test_burst_then_refusal(self):
        now = [0.0]
        quota = QuotaManager(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert quota.allow("t") == (True, 0.0)
        assert quota.allow("t") == (True, 0.0)
        ok, retry = quota.allow("t")
        assert not ok
        assert retry == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        now = [0.0]
        quota = QuotaManager(rate=2.0, burst=1.0, clock=lambda: now[0])
        assert quota.allow("t")[0]
        assert not quota.allow("t")[0]
        now[0] = 0.5  # 2 tokens/s * 0.5s = 1 token back
        assert quota.allow("t")[0]

    def test_tenants_are_isolated(self):
        now = [0.0]
        quota = QuotaManager(rate=0.0, burst=1.0, clock=lambda: now[0])
        assert quota.allow("a")[0]
        assert not quota.allow("a")[0]
        assert quota.allow("b")[0]  # b has its own bucket
        assert quota.tenants() == ("a", "b")

    def test_zero_rate_never_refills(self):
        now = [0.0]
        quota = QuotaManager(rate=0.0, burst=1.0, clock=lambda: now[0])
        assert quota.allow("t")[0]
        now[0] = 1e9
        ok, retry = quota.allow("t")
        assert not ok and math.isinf(retry)

    def test_burst_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            QuotaManager(rate=1.0, burst=0.5)

    def test_remaining(self):
        now = [0.0]
        quota = QuotaManager(rate=1.0, burst=3.0, clock=lambda: now[0])
        assert quota.remaining("t") == 3.0
        quota.allow("t")
        assert quota.remaining("t") == pytest.approx(2.0)


class TestAdmission:
    def test_capacity_bound(self):
        adm = AdmissionController(max_inflight=2, max_queue=1)
        assert adm.try_acquire()[0]
        assert adm.try_acquire()[0]
        assert adm.try_acquire()[0]  # queue slot
        ok, retry = adm.try_acquire()
        assert not ok and retry >= 1.0
        assert adm.rejected == 1

    def test_release_frees_slot(self):
        adm = AdmissionController(max_inflight=1, max_queue=0)
        assert adm.try_acquire()[0]
        assert not adm.try_acquire()[0]
        adm.release(0.01)
        assert adm.try_acquire()[0]

    def test_retry_after_tracks_latency_ewma(self):
        adm = AdmissionController(
            max_inflight=1, max_queue=4, initial_latency_s=0.05
        )
        for _ in range(5):
            adm.try_acquire()
        adm.release(10.0)  # one slow request drags the EWMA up
        assert adm.latency_ewma_s > 2.0
        assert adm.retry_after_s() >= math.ceil(adm.latency_ewma_s * 3)

    def test_negative_duration_skips_ewma(self):
        adm = AdmissionController(initial_latency_s=0.05)
        adm.try_acquire()
        adm.release(-1.0)
        assert adm.latency_ewma_s == 0.05

    def test_drain(self):
        adm = AdmissionController(max_inflight=2, max_queue=2)
        adm.try_acquire()
        adm.start_drain()
        assert not adm.try_acquire()[0]
        assert not adm.drained()
        adm.release(0.01)
        assert adm.drained()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=-1)


class TestSseParsing:
    def test_events_roundtrip(self):
        lines = [
            ": keep-alive\n",
            "event: point\n",
            'data: {"a": 1}\n',
            "\n",
            "event: done\n",
            'data: {"count": 1}\n',
            "\n",
        ]
        events = list(parse_sse_stream(lines))
        assert events == [
            ("point", '{"a": 1}'), ("done", '{"count": 1}')
        ]


@pytest.fixture(scope="module")
def server():
    """One shared server on an ephemeral port for the e2e tests."""
    config = ServerConfig(
        port=0, quota_rate=10_000.0, quota_burst=10_000.0,
        max_inflight=16, max_queue=64,
    )
    handle = start_in_thread(config)
    yield handle
    assert handle.stop() is True


class TestEndToEnd:
    def test_health_probes(self, server):
        client = DesignClient(server.url)
        assert client.healthz()
        assert client.readyz()

    def test_design_byte_identical_to_in_process(self, server):
        client = DesignClient(server.url, tenant="pytest")
        for app in ("canny", "jpeg", "klt", "fluid"):
            doc = client.design(app)
            assert doc["kind"] == "design-response"
            served = canonical_json(doc["summary"]).encode()
            local = canonical_json(
                result_summary(run_experiment(app))
            ).encode()
            assert served == local, app

    def test_design_rejects_unknown_app(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client.design("netflix")
        assert err.value.status == 400

    def test_design_static_graph_source(self, server):
        client = DesignClient(server.url, tenant="pytest")
        doc = client.design("canny", simulate=False, graph_source="static")
        local = result_summary(
            run_experiment("canny", simulate=False, graph_source="static")
        )
        assert canonical_json(doc["summary"]) == canonical_json(local)
        traced = client.design("canny", simulate=False)
        # Separate fingerprints (separate cache entries), same result on
        # a deterministic app.
        assert doc["fingerprint"] != traced["fingerprint"]
        assert doc["summary"] == traced["summary"]

    def test_design_rejects_unknown_graph_source(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client.design("canny", graph_source="psychic")
        assert err.value.status == 400

    def test_job_lookup_after_design(self, server):
        client = DesignClient(server.url, tenant="pytest")
        doc = client.design("klt")
        job = client.job(doc["fingerprint"])
        assert job is not None
        assert job["fingerprint"] == doc["fingerprint"]
        assert job["summary"] == doc["summary"]

    def test_job_lookup_unknown_is_none(self, server):
        client = DesignClient(server.url)
        assert client.job("0" * 64) is None

    def test_sweep_matches_designs(self, server):
        client = DesignClient(server.url, tenant="pytest")
        doc = client.sweep(["canny", "jpeg"], scales=[1])
        assert doc["count"] == 2
        apps = sorted(p["app"] for p in doc["points"])
        assert apps == ["canny", "jpeg"]

    def test_sweep_stream_is_incremental(self, server):
        client = DesignClient(server.url, tenant="pytest")
        events = list(client.sweep_stream(["klt", "fluid"], scales=[1]))
        names = [name for name, _ in events]
        assert names == ["point", "point", "done"]
        done = events[-1][1]
        assert done["count"] == 2
        point_doc = events[0][1]
        assert point_doc["app"] in ("klt", "fluid")

    def test_second_design_is_cache_hit(self, server):
        client = DesignClient(server.url, tenant="pytest")
        client.design("canny")
        doc = client.design("canny")
        assert doc["cached"] is True

    def test_metrics_exposition(self, server):
        client = DesignClient(server.url, tenant="pytest")
        client.design("canny")
        text = client.metrics()
        assert "# TYPE repro_http_requests counter" in text
        assert 'route="/v1/design"' in text
        assert "repro_cache_hits" in text
        assert "inflight_requests" in text

    def test_unknown_route_404(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v1/design")
        assert err.value.status == 405

    def test_malformed_json_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            client_host(server), client_port(server), timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/design", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert body["kind"] == "error-response"
        finally:
            conn.close()


def client_host(server) -> str:
    return DesignClient(server.url).host


def client_port(server) -> int:
    return DesignClient(server.url).port


class TestRequestTelemetry:
    def test_envelope_echoes_client_trace_id(self, server):
        client = DesignClient(server.url, tenant="pytest")
        doc = client.design("canny")
        assert doc["trace_id"] == client.last_trace_id
        assert len(doc["trace_id"]) == 32
        # a new request mints a new trace
        doc2 = client.design("jpeg")
        assert doc2["trace_id"] == client.last_trace_id
        assert doc2["trace_id"] != doc["trace_id"]

    def test_explicit_traceparent_header_is_adopted(self, server):
        import http.client

        trace_id = "ab" * 16
        conn = http.client.HTTPConnection(
            client_host(server), client_port(server), timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/design", body=json.dumps({"app": "canny"}),
                headers={"traceparent": f"00-{trace_id}-{'cd' * 8}-01"},
            )
            doc = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert doc["trace_id"] == trace_id

    def test_malformed_traceparent_gets_fresh_trace_not_an_error(
        self, server
    ):
        import http.client

        conn = http.client.HTTPConnection(
            client_host(server), client_port(server), timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/design", body=json.dumps({"app": "canny"}),
                headers={"traceparent": "not-a-traceparent"},
            )
            resp = conn.getresponse()
            doc = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 200
        assert len(doc["trace_id"]) == 32

    def test_error_body_carries_trace_id(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError):
            client.design("netflix")
        # the trace the client minted is the one the 400 came back on
        assert len(client.last_trace_id) == 32

    def test_sweep_stream_done_event_carries_trace_id(self, server):
        client = DesignClient(server.url, tenant="pytest")
        events = list(client.sweep_stream(["klt"], scales=[1]))
        assert events[-1][0] == "done"
        assert events[-1][1]["trace_id"] == client.last_trace_id

    def test_sweep_stream_points_carry_trace_id(self, server):
        """Every SSE ``point`` event echoes the request's trace id, so a
        consumer can correlate a partial stream with server telemetry
        even when the ``done`` event never arrives."""
        client = DesignClient(server.url, tenant="pytest")
        events = list(
            client.sweep_stream(["canny", "jpeg"], scales=[1])
        )
        points = [doc for name, doc in events if name == "point"]
        assert len(points) == 2
        for doc in points:
            assert doc["trace_id"] == client.last_trace_id
        # the non-stream path stays untouched: no trace_id per point
        batch = client.sweep(["canny", "jpeg"], scales=[1])
        assert all("trace_id" not in p for p in batch["points"])
        # and points are otherwise identical between the two paths
        strip = [
            {k: v for k, v in p.items() if k != "trace_id"}
            for p in points
        ]
        key = canonical_json
        assert sorted(map(key, strip)) == sorted(
            map(key, batch["points"])
        )

    def test_debug_endpoint_sections(self, server):
        client = DesignClient(server.url, tenant="pytest")
        client.design("canny")
        doc = client.debug()
        assert doc["kind"] == "debug-response"
        assert doc["trace_id"] == client.last_trace_id
        debug = doc["debug"]
        for section in ("uptime_s", "inflight_requests", "admission",
                        "batcher", "tenants", "cache", "service",
                        "events"):
            assert section in debug, section
        assert debug["uptime_s"] > 0
        assert debug["admission"]["max_inflight"] == 16
        assert debug["batcher"]["max_batch"] >= 1
        assert debug["service"]["last_mode"] in ("serial", "pool")
        # the debug request itself is in the in-flight table
        routes = [r["route"] for r in debug["inflight_requests"]]
        assert "/v1/debug" in routes
        counts = debug["events"]["counts"]
        assert counts.get("request_start", 0) > 0
        recent = debug["events"]["recent"]
        assert recent and all("kind" in e for e in recent)

    def test_metrics_carry_event_counts_and_exemplars(self, server):
        client = DesignClient(server.url, tenant="pytest")
        client.design("canny")
        text = client.metrics()
        assert 'runtime_events{kind="request_finish"}' in text
        lines = [
            l for l in text.splitlines()
            if l.startswith("repro_http_request_last_seconds{")
        ]
        assert any('route="/v1/design"' in l for l in lines), text
        # the exemplar label is a full 32-hex trace id
        label = next(l for l in lines if 'route="/v1/design"' in l)
        trace = label.split('trace_id="')[1].split('"')[0]
        assert len(trace) == 32

    def test_event_log_records_rejections(self):
        config = ServerConfig(port=0, quota_rate=0.001, quota_burst=1.0)
        with start_in_thread(config) as handle:
            client = DesignClient(handle.url, tenant="stingy")
            client.design("canny")
            with pytest.raises(ServerError):
                client.design("jpeg")
            doc = client.debug()
            counts = doc["debug"]["events"]["counts"]
            assert counts.get("quota_reject", 0) == 1
            kinds = [e["kind"] for e in doc["debug"]["events"]["recent"]]
            assert "quota_reject" in kinds
        assert handle.stop() is True

    def test_event_log_sink_written_on_drain(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        config = ServerConfig(port=0, event_log_path=str(sink))
        with start_in_thread(config) as handle:
            client = DesignClient(handle.url, tenant="pytest")
            client.design("canny")
        assert handle.stop() is True
        docs = [json.loads(l) for l in sink.read_text().splitlines()]
        kinds = [d["kind"] for d in docs]
        assert "request_start" in kinds
        assert "request_finish" in kinds
        assert "drain_begin" in kinds
        assert kinds[-1] == "drain_done"
        finish = next(d for d in docs if d["kind"] == "request_finish"
                      and d["fields"].get("route") == "/v1/design")
        assert finish["trace_id"]
        assert finish["fields"]["status"] == 200


def _stub_sse_server(send_events, finish):
    """One-shot raw-socket HTTP server for client transport tests.

    Reads the whole request (head plus ``Content-Length`` body, so the
    close below is never an accidental reset), answers with an SSE head
    and ``send_events``, then calls ``finish(conn)`` to end the stream.
    Returns ``(url, thread, listener)``.
    """
    import socket
    import threading

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    head = (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )

    def serve_once():
        conn, _ = listener.accept()
        request = b""
        while b"\r\n\r\n" not in request:
            request += conn.recv(65536)
        header, _, body = request.partition(b"\r\n\r\n")
        length = 0
        for line in header.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += conn.recv(65536)
        conn.sendall(head + send_events)
        finish(conn)

    thread = threading.Thread(target=serve_once, daemon=True)
    thread.start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}", thread, listener


_ONE_POINT = b'event: point\r\ndata: {"app": "klt"}\r\n\r\n'


class TestTruncatedStream:
    def test_stream_ending_without_done_raises(self):
        """A dropped connection mid-stream must not look like success."""
        # one point, then the server "dies" cleanly — no done event
        url, thread, listener = _stub_sse_server(
            _ONE_POINT, lambda conn: conn.close()
        )
        try:
            client = DesignClient(url)
            with pytest.raises(ServerError) as err:
                list(client.sweep_stream(["klt"]))
            assert "truncated" in str(err.value)
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_peer_reset_mid_stream_is_a_typed_error(self):
        """A TCP reset after the first event surfaces as ServerError."""
        import socket
        import struct
        import threading
        from http.client import HTTPException

        reset = threading.Event()

        def reset_after_first_point(conn):
            reset.wait(timeout=5)
            # SO_LINGER with a zero timeout turns close() into an RST.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            conn.close()

        url, thread, listener = _stub_sse_server(
            _ONE_POINT, reset_after_first_point
        )
        try:
            stream = DesignClient(url).sweep_stream(["klt"])
            assert next(stream) == ("point", {"app": "klt"})
            reset.set()
            with pytest.raises(ServerError) as err:
                next(stream)
            assert err.value.status == 0
            assert "truncated" in str(err.value)
            assert isinstance(err.value.__cause__, (OSError, HTTPException))
        finally:
            reset.set()
            thread.join(timeout=5)
            listener.close()

    def test_refused_connection_is_a_typed_error(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = DesignClient(f"http://127.0.0.1:{port}", timeout_s=5)
        with pytest.raises(ServerError) as err:
            client.design("klt")
        assert err.value.status == 0
        assert not client.readyz()

    def test_complete_stream_does_not_raise(self, server):
        client = DesignClient(server.url, tenant="pytest")
        events = list(client.sweep_stream(["canny"], scales=[1]))
        assert [name for name, _ in events][-1] == "done"


class TestQuotaOverHttp:
    def test_429_with_retry_after_and_metric_label(self):
        config = ServerConfig(port=0, quota_rate=0.001, quota_burst=1.0)
        with start_in_thread(config) as handle:
            client = DesignClient(handle.url, tenant="stingy")
            client.design("canny")
            with pytest.raises(ServerError) as err:
                client.design("jpeg")
            assert err.value.status == 429
            assert err.value.retry_after > 0
            text = client.metrics()
            assert 'repro_quota_rejections{tenant="stingy"} 1' in text
        assert handle.stop() is True

    def test_tenants_have_independent_buckets(self):
        config = ServerConfig(port=0, quota_rate=0.001, quota_burst=1.0)
        with start_in_thread(config) as handle:
            DesignClient(handle.url, tenant="a").design("canny")
            # tenant b still has its full (tiny) burst available
            doc = DesignClient(handle.url, tenant="b").design("canny")
            assert doc["cached"] is True  # same fingerprint, shared cache
        assert handle.stop() is True

    def test_hostile_tenant_header_cannot_forge_metrics(self):
        """Quote-breakout via X-Tenant stays inside the label value.

        (``http.client`` refuses to send raw newlines in a header, so
        the newline-stripping layer is covered by the
        ``sanitize_tenant`` unit tests; this exercises the
        quote/backslash escaping end to end.)
        """
        config = ServerConfig(port=0)
        with start_in_thread(config) as handle:
            hostile = 'x"} 1 forged_http_metric{t="y'
            client = DesignClient(handle.url, tenant=hostile)
            client.design("canny")
            text = client.metrics()
            assert not any(
                line.startswith("forged_http_metric")
                for line in text.splitlines()
            ), text
            # the payload survives only as an escaped label value
            assert 'tenant="x\\"} 1 forged_http_metric{t=\\"y"' in text
        assert handle.stop() is True


class TestDrain:
    def test_stop_reports_clean_drain_and_rejects_new_work(self):
        config = ServerConfig(port=0)
        handle = start_in_thread(config)
        client = DesignClient(handle.url)
        client.design("canny")
        assert handle.stop() is True
        # the socket is gone afterwards
        assert not client.healthz()
