"""Benchmark of the design path: three seeded workloads, one JSON line.

Usage::

    python3 perfbench/run.py --workload sweep-trace --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py`` and ``README.md`` for why each exists;
``BENCHMARK.json`` gates ``sweep-trace`` and ``served-mix``):

* ``sweep-trace`` — closed loop, 1 caller, ``DesignService.submit`` on a
  fresh in-process ``DesignService(jobs=1)``; traced-graph sweep points
  with simulation, no fingerprint repeats.
* ``static-sim`` — the same loop on static-graph points at scales 2-3.
* ``served-mix`` — a ``repro serve`` subprocess; two client threads each
  run a closed loop of ``DesignClient.design``, 8 of every 10 ops hitting
  a hot set warmed during setup and 2 missing with distinct params.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds of the same op sequence and prints the
per-layer ledger (``ledger.py``'s shims; inside the server for
served-mix) with the tracing overhead.

Every op's summary is checked against the committed references
(``refs.txt``); the last stdout line is the JSON result. The process
exits 2 without a result when the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Setup samples per run; setup_s is their median.
SETUP_REPEATS = 3
#: Blocks per served-mix round in traced runs (each client).
SERVED_ROUND_BLOCKS = 6


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def bootstrap() -> None:
    """Make the checkout's ``src`` importable, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no repro sources under {SRC}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a host-speed marker."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def percentile(values: Sequence[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# -- correctness -------------------------------------------------------------
class Checker:
    """Per-op reference check plus the generator self-checks."""

    def __init__(self, workload: str, seed: int) -> None:
        import refs
        import workloads

        self.refs, digests = refs.load()
        self.digest = refs.summary_digest
        self.key = refs.fp_key
        self.problems: List[str] = []
        first = workloads.sequence_digest(workload, seed)
        if workloads.sequence_digest(workload, seed) != first:
            self.problems.append("op-sequence digest differs for one seed")
        if workloads.sequence_digest(workload, 0) != digests.get(workload):
            self.problems.append("seed-0 op-sequence digest differs from refs")
        fps = [job.fingerprint() for job in workloads.universe(workload)]
        if len(set(fps)) != len(fps):
            self.problems.append("universe fingerprints are not distinct")
        log(f"perfbench: {workload} seed {seed} op-sequence digest {first}")

    def op_ok(self, fingerprint: str, summary: Any) -> bool:
        want = self.refs.get(self.key(fingerprint))
        return want is not None and self.digest(summary) == want


# -- in-process workloads ----------------------------------------------------
def in_process_setup(workload: str) -> float:
    """Import, build a service, warm every op class; seconds taken."""
    start = time.perf_counter()
    from repro.service import DesignService

    import workloads

    with DesignService(jobs=1) as service:
        for job in workloads.warmup_jobs(workload):
            service.submit(job)
    return time.perf_counter() - start


def setup_probe_main(workload: str) -> int:
    """Child-process entry of a setup sample: prints seconds taken."""
    bootstrap()
    print(repr(in_process_setup(workload)))
    return 0


def probe_setup_in_child(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


class InProcessRun:
    """Closed loop of one caller over complete mix blocks."""

    def __init__(self, workload: str, seed: int) -> None:
        import workloads
        from repro.service import DesignService

        self.new_service = lambda: DesignService(jobs=1)
        self.blocks = workloads.in_process_blocks(workload, seed)
        self.epoch = workloads.epoch_blocks(workload)
        self.served = 0
        self.service = self.new_service()
        #: (job, summary or None on error, cached) per op, checked
        #: after timing.
        self.results: List[Tuple[Any, Optional[Dict[str, Any]], bool]] = []

    def block(self) -> Tuple[List[float], float]:
        """Run the next block; returns op latencies and block time."""
        if self.served and self.served % self.epoch == 0:
            # A new pass over the universe repeats fingerprints; a new
            # service keeps every op a cold miss.
            self.service.close()
            self.service = self.new_service()
        self.served += 1
        latencies = []
        block_start = time.perf_counter()
        for op in next(self.blocks):
            start = time.perf_counter()
            try:
                result = self.service.submit(op.job)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                latencies.append(time.perf_counter() - start)
                log(f"perfbench: op failed: {exc!r}")
                self.results.append((op.job, None, False))
                continue
            latencies.append(time.perf_counter() - start)
            self.results.append((op.job, result.summary, result.cached))
        return latencies, time.perf_counter() - block_start

    def check(self, checker: Checker) -> int:
        """Ops that returned the reference result, uncached."""
        good = 0
        for job, summary, cached in self.results:
            if summary is not None and not cached \
                    and checker.op_ok(job.fingerprint(), summary):
                good += 1
        return good

    def hit_ratio(self) -> float:
        return sum(c for _, _, c in self.results) / len(self.results)

    def close(self) -> None:
        self.service.close()


def run_in_process(args: argparse.Namespace, checker: Checker) -> Dict[str, Any]:
    workload = args.workload
    # Set-up samples come from fresh interpreters: this process has
    # already imported repro, so its own warm-up is not timed.
    setup = [] if args.trace else [
        probe_setup_in_child(workload) for _ in range(SETUP_REPEATS)
    ]
    in_process_setup(workload)
    probe = host_probe_ms()
    run = InProcessRun(workload, args.seed)
    try:
        if not args.trace:
            latencies: List[float] = []
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                latencies += run.block()[0]
            window = time.perf_counter() - start
            probe = (probe + host_probe_ms()) / 2
            return finish_untraced(
                checker, run.check(checker), len(run.results), latencies,
                window, setup, probe,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
        return traced_in_process(args, run, checker, probe)
    finally:
        run.close()


def traced_in_process(
    args: argparse.Namespace, run: InProcessRun, checker: Checker,
    probe: float,
) -> Dict[str, Any]:
    import ledger as ledger_mod

    book = ledger_mod.Ledger()
    plain: List[float] = []
    traced: List[float] = []
    plain_s = traced_s = 0.0
    pair = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        # Pairs of one untraced and one traced block, alternating which
        # runs first, so host drift hits both sides alike.
        for on in ((False, True) if pair % 2 == 0 else (True, False)):
            uninstall = ledger_mod.install(book) if on else None
            try:
                lats, took = run.block()
            finally:
                if uninstall is not None:
                    uninstall()
            if on:
                traced += lats
                traced_s += took
            else:
                plain += lats
                plain_s += took
        pair += 1
    snap = book.snapshot()  # the shims record traced blocks only
    good = run.check(checker)
    n = len(traced)
    op_ms = sum(traced) * 1e3 / n
    layers = {k: v * 1e3 / n for k, v in snap["self_s"].items()}
    unattributed = op_ms - snap["root_s"] * 1e3 / n
    extra = {
        "service.cache.hit_ratio": metric(run.hit_ratio(), "ratio"),
        "server.client.ms": metric(0.0, "ms"),
        "server.job.ms": metric(0.0, "ms"),
        "server.overhead.ms": metric(0.0, "ms"),
        "server.hit.latency_p50_ms": metric(0.0, "ms"),
        "server.miss.latency_p50_ms": metric(0.0, "ms"),
        "server.batch.size_mean": metric(0.0, "requests"),
        "server.rejections": metric(0, "count"),
    }
    return finish_traced(
        checker, good, len(run.results), snap, n, op_ms, layers,
        unattributed, extra,
        overhead=(traced_s / len(traced)) / (plain_s / len(plain)),
        plain_tput=len(plain) / plain_s, traced_tput=len(traced) / traced_s,
        probe=(probe + host_probe_ms()) / 2,
    )


# -- served-mix --------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, tmp: pathlib.Path, name: str, traced: bool) -> None:
        from repro.server import DesignClient

        self.ledger_path = tmp / f"{name}.ledger.json"
        flight = tmp / f"{name}.flight"
        flight.mkdir(parents=True, exist_ok=True)
        serve_args = [
            "--port", "0", "--jobs", "1",
            "--quota-rate", "1000000", "--quota-burst", "1000000",
            "--flight-dir", str(flight),
        ]
        if traced:
            cmd = [sys.executable, str(HERE / "traced_server.py"),
                   str(self.ledger_path), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.stderr = open(tmp / f"{name}.stderr", "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.stderr, cwd=str(ROOT),
        )
        self.dumps = 0
        try:
            self.url = self._await_url(timeout_s=60.0)
            self.client = DesignClient(self.url, timeout_s=60.0)
            deadline = time.monotonic() + 30.0
            while not self.client.readyz():
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _await_url(self, timeout_s: float) -> str:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout_s):
                raise RuntimeError("server did not announce its URL")
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        for word in line.split():
            if word.startswith("http://"):
                return word
        raise RuntimeError(f"unexpected server banner: {line!r}")

    def counters(self) -> Dict[str, float]:
        """Selected /metrics series, summed over labels."""
        wanted = {
            "repro_cache_hits": "hits",
            "repro_cache_misses": "misses",
            "repro_admission_rejections": "admission_rejections",
            "repro_quota_rejections": "quota_rejections",
            "repro_server_batch_size_sum": "batch_size_sum",
            "repro_server_batch_size_count": "batches",
        }
        out = {v: 0.0 for v in wanted.values()}
        out["http_s"] = out["http_n"] = 0.0
        for line in self.client.metrics().splitlines():
            if line.startswith("#") or not line:
                continue
            name, _, value = line.rpartition(" ")
            base = name.split("{", 1)[0]
            if base in wanted:
                out[wanted[base]] += float(value)
            elif 'route="/v1/design"' in name:
                if base == "repro_http_request_seconds_sum":
                    out["http_s"] += float(value)
                elif base == "repro_http_request_seconds_count":
                    out["http_n"] += float(value)
        return out

    def ledger(self) -> Dict[str, Any]:
        """A fresh cumulative ledger snapshot from the traced server."""
        self.dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                doc = json.loads(self.ledger_path.read_text("utf-8"))
            except (OSError, ValueError):
                doc = None
            if doc is not None and doc["seq"] >= self.dumps:
                return doc
            time.sleep(0.005)
        raise RuntimeError("traced server wrote no ledger snapshot")

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.stderr.close()


def start_server(tmp: pathlib.Path, name: str, traced: bool,
                 plan: Any) -> Tuple[Server, float]:
    """Start a server and warm the hot set; returns it and seconds taken."""
    start = time.perf_counter()
    server = Server(tmp, name, traced)
    try:
        for job in plan.warm_jobs():
            design(server.client, job)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def design(client: Any, job: Any) -> Dict[str, Any]:
    return client.design(
        job.app, scale=job.scale, seed=job.seed, simulate=job.simulate,
        params=dataclasses.asdict(job.params),
        design=job.design_overrides or None, graph_source=job.graph_source,
    )


class ServedRun:
    """Two closed-loop clients; ops recorded per round label."""

    def __init__(self, plan: Any) -> None:
        from repro.server import DesignClient

        self.make_client = DesignClient
        self.streams = [plan.blocks(c) for c in range(len(plan.hot))]
        #: (label, kind, latency s, job, response or error); checked
        #: after timing.
        self.records: List[Tuple[str, str, float, Any, Any]] = []
        self._lock = threading.Lock()
        self.exhausted = False

    def round(self, server: Server, label: str, deadline: Optional[float],
              n_blocks: Optional[int]) -> float:
        """Both clients run blocks on ``server``; returns seconds taken."""
        def client_loop(stream: Any) -> None:
            client = self.make_client(server.url, timeout_s=60.0)
            done = 0
            local = []
            while True:
                if n_blocks is not None and done >= n_blocks:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                block = next(stream, None)
                if block is None:
                    self.exhausted = True
                    break
                for op in block:
                    start = time.perf_counter()
                    try:
                        doc: Any = design(client, op.job)
                    except Exception as exc:  # noqa: BLE001 - counted
                        doc = exc
                    local.append((label, op.kind,
                                  time.perf_counter() - start, op.job, doc))
                done += 1
            with self._lock:
                self.records.extend(local)

        threads = [threading.Thread(target=client_loop, args=(s,))
                   for s in self.streams]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start

    def check(self, checker: Checker) -> int:
        good = 0
        for _, kind, _, job, doc in self.records:
            fingerprint = job.fingerprint()
            if isinstance(doc, dict) and doc.get("fingerprint") == fingerprint \
                    and doc.get("cached") == (kind == "hit") \
                    and checker.op_ok(fingerprint, doc.get("summary")):
                good += 1
        return good

    def kinds(self, label: str) -> Dict[str, int]:
        out = {"hit": 0, "miss": 0}
        for rec in self.records:
            if rec[0] == label:
                out[rec[1]] += 1
        return out

    def latencies(self, label: str, kind: Optional[str] = None) -> List[float]:
        return [rec[2] for rec in self.records
                if rec[0] == label and (kind is None or rec[1] == kind)]


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def counters_match(run: ServedRun, label: str, d: Dict[str, float],
                   checker: Checker) -> None:
    kinds = run.kinds(label)
    if (d["hits"], d["misses"]) != (kinds["hit"], kinds["miss"]):
        checker.problems.append(
            f"{label}: designed hits/misses {kinds['hit']}/{kinds['miss']}"
            f" but the server counted {d['hits']:.0f}/{d['misses']:.0f}"
        )


def run_served(args: argparse.Namespace, checker: Checker) -> Dict[str, Any]:
    import workloads

    plan = workloads.served_plan(args.seed)
    tmp = TMP_ROOT / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    servers: List[Server] = []
    try:
        if not args.trace:
            setup = []
            for i in range(SETUP_REPEATS):
                server, took = start_server(tmp, f"plain{i}", False, plan)
                setup.append(took)
                if i < SETUP_REPEATS - 1:
                    server.stop()
            servers.append(server)
            probe = host_probe_ms()
            run = ServedRun(plan)
            before = server.counters()
            window = run.round(server, "plain",
                               time.perf_counter() + args.seconds, None)
            counters_match(run, "plain", delta(server.counters(), before),
                           checker)
            if run.exhausted:
                log("perfbench: served-mix miss stream exhausted early")
            probe = (probe + host_probe_ms()) / 2
            return finish_untraced(
                checker, run.check(checker), len(run.records),
                run.latencies("plain"), window, setup, probe,
                server.peak_rss_mb(),
            )
        plain, _ = start_server(tmp, "plain", False, plan)
        servers.append(plain)
        traced, _ = start_server(tmp, "traced", True, plan)
        servers.append(traced)
        probe = host_probe_ms()
        return traced_served(args, plan, plain, traced, checker, probe)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only when no other run still uses it
        except OSError:
            pass


def traced_served(
    args: argparse.Namespace, plan: Any, plain: Server,
    traced: Server, checker: Checker, probe: float,
) -> Dict[str, Any]:
    import ledger as ledger_mod

    run = ServedRun(plan)
    c_plain, c_traced = plain.counters(), traced.counters()
    l0 = traced.ledger()
    took = {"plain": 0.0, "traced": 0.0}
    pair = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds and not run.exhausted:
        for label in (("plain", "traced") if pair % 2 == 0
                      else ("traced", "plain")):
            server = plain if label == "plain" else traced
            took[label] += run.round(server, label, None, SERVED_ROUND_BLOCKS)
        pair += 1
    d_plain = delta(plain.counters(), c_plain)
    d_traced = delta(traced.counters(), c_traced)
    snap = ledger_mod.diff(traced.ledger(), l0)
    counters_match(run, "plain", d_plain, checker)
    counters_match(run, "traced", d_traced, checker)

    lats = run.latencies("traced")
    n = len(lats)
    if d_traced["http_n"] != n or snap["root_requests"] != n:
        checker.problems.append(
            f"traced server saw {d_traced['http_n']:.0f} design requests "
            f"and {snap['root_requests']} service requests for {n} ops"
        )
    op_ms = sum(lats) * 1e3 / n
    http_ms = d_traced["http_s"] * 1e3 / n
    job_ms = snap["root_s"] * 1e3 / n
    layers = {k: v * 1e3 / n for k, v in snap["self_s"].items()}
    layers["server.overhead"] = http_ms - job_ms
    lookups = d_traced["hits"] + d_traced["misses"]
    n_plain = len(run.latencies("plain"))
    extra = {
        "service.cache.hit_ratio": metric(
            d_traced["hits"] / lookups if lookups else 0.0, "ratio"),
        "server.client.ms": metric(op_ms, "ms"),
        "server.job.ms": metric(job_ms, "ms"),
        "server.overhead.ms": metric(http_ms - job_ms, "ms"),
        "server.hit.latency_p50_ms": metric(
            statistics.median(run.latencies("traced", "hit")) * 1e3, "ms"),
        "server.miss.latency_p50_ms": metric(
            statistics.median(run.latencies("traced", "miss")) * 1e3, "ms"),
        "server.batch.size_mean": metric(
            d_traced["batch_size_sum"] / d_traced["batches"]
            if d_traced["batches"] else 0.0, "requests"),
        "server.rejections": metric(
            int(d_traced["admission_rejections"] + d_traced["quota_rejections"]
                + d_plain["admission_rejections"]
                + d_plain["quota_rejections"]), "count"),
    }
    return finish_traced(
        checker, run.check(checker), len(run.records), snap, n, op_ms,
        layers, op_ms - http_ms, extra,
        overhead=(took["traced"] / n) / (took["plain"] / n_plain),
        plain_tput=n_plain / took["plain"], traced_tput=n / took["traced"],
        probe=(probe + host_probe_ms()) / 2,
    )


# -- results -----------------------------------------------------------------
def finish_untraced(
    checker: Checker, good: int, attempted: int, latencies: List[float],
    window: float, setup: List[float], probe: float, peak_rss_mb: float,
) -> Dict[str, Any]:
    ms = [x * 1e3 for x in latencies]
    for problem in checker.problems:
        log(f"perfbench: CHECK FAILED: {problem}")
    log(f"perfbench: {attempted} ops in {window:.3f} s, host.probe_ms "
        f"{probe:.3f}, setup samples " + ", ".join(f"{s:.3f}" for s in setup))
    return {
        "correct": good == attempted and not checker.problems,
        "attempted": attempted,
        "failed": attempted - good,
        "metrics": {
            "throughput_ops_s": metric(attempted / window, "1/s"),
            "latency_p50_ms": metric(percentile(ms, 50), "ms"),
            "latency_p90_ms": metric(percentile(ms, 90), "ms"),
            "latency_p99_ms": metric(percentile(ms, 99), "ms"),
            "success_ratio": metric(good / attempted, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(statistics.median(setup), "s"),
        },
    }


def finish_traced(
    checker: Checker, good: int, attempted: int, snap: Dict[str, Any],
    n: int, op_ms: float, layers: Dict[str, float], unattributed: float,
    extra: Dict[str, Any], overhead: float, plain_tput: float,
    traced_tput: float, probe: float,
) -> Dict[str, Any]:
    layer_sum = sum(layers.values())
    if any(v < -1e-9 for v in layers.values()) or unattributed < -1e-9:
        checker.problems.append(f"negative ledger entry: {layers}")
    if abs(layer_sum + unattributed - op_ms) > 1e-6 * max(op_ms, 1.0):
        checker.problems.append("ledger does not add up to the op total")
    for problem in checker.problems:
        log(f"perfbench: CHECK FAILED: {problem}")
    calls = {k: v / n for k, v in snap["calls"].items()}
    metrics = {
        "ledger.op.ms": metric(op_ms, "ms"),
        "ledger.layers.ms": metric(layer_sum, "ms"),
        "unattributed.ms": metric(unattributed, "ms"),
        "apps.profile.calls": metric(calls["apps.profile"], "calls/op"),
        "apps.profile.ms": metric(layers["apps.profile"], "ms"),
        "apps.fit.ms": metric(layers["apps.fit"], "ms"),
        "static.fit.calls": metric(calls["static.fit"], "calls/op"),
        "static.fit.ms": metric(layers["static.fit"], "ms"),
        "core.design.calls": metric(calls["core.design"], "calls/op"),
        "core.design.ms": metric(layers["core.design"], "ms"),
        "core.analytic.ms": metric(layers["core.analytic"], "ms"),
        "sim.calls": metric(
            sum(calls[k] for k in ("sim.software", "sim.baseline",
                                   "sim.proposed")), "calls/op"),
        "sim.software.ms": metric(layers["sim.software"], "ms"),
        "sim.baseline.ms": metric(layers["sim.baseline"], "ms"),
        "sim.proposed.ms": metric(layers["sim.proposed"], "ms"),
        "hw.ms": metric(layers["hw"], "ms"),
        "flow.unattributed.ms": metric(layers["flow.unattributed"], "ms"),
        "service.overhead.ms": metric(layers["service.overhead"], "ms"),
        **extra,
        "bench.traced.ops": metric(n, "count"),
        "bench.tracing_overhead": metric(overhead, "x"),
        "bench.untraced.throughput_ops_s": metric(plain_tput, "1/s"),
        "bench.traced.throughput_ops_s": metric(traced_tput, "1/s"),
        "host.probe_ms": metric(probe, "ms"),
    }
    return {
        "correct": good == attempted and not checker.problems,
        "attempted": attempted,
        "failed": attempted - good,
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-trace", "static-sim", "served-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe_main(args.workload)
    bootstrap()
    checker = Checker(args.workload, args.seed)
    runner: Callable[..., Dict[str, Any]] = (
        run_served if args.workload == "served-mix" else run_in_process
    )
    result = runner(args, checker)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
