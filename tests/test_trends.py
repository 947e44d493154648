"""Tests for ``repro.obs.runtime.trends``: bench history + regression gate.

Covers report flattening, the JSONL history file (append/load/corrupt
handling), the median-of-history comparison with noise floors, the
sparkline renderer, and the ``repro bench --compare`` CLI exit codes
with an injected 2x slowdown.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError, ReproError
from repro.obs.runtime.trends import (
    DEFAULT_THRESHOLD,
    HISTORY_KIND,
    MetricDelta,
    append_history,
    compare_bench,
    flatten_bench,
    history_entry,
    load_history,
    regressions,
    render_trend_table,
    sparkline,
    timing_suffix,
)

REPORT = {
    "kind": "bench-report",
    "version": 1,
    "apps": {
        "jpeg": {"design_s": 0.010, "profiler_overhead": 1.2,
                 "conservation_ok": True},
    },
    "service": {"batch_cold_s": 0.020, "cache_speedup": 90.0},
    "server": {"p99_ms": 4.0},
    "schema": {"apps.jpeg.design_s": "ignored prose"},
}


def _report(scale: float = 1.0) -> dict:
    doc = json.loads(json.dumps(REPORT))
    doc["apps"]["jpeg"]["design_s"] *= scale
    doc["service"]["batch_cold_s"] *= scale
    doc["server"]["p99_ms"] *= scale
    return doc


class TestFlatten:
    def test_flattens_measured_sections_only(self):
        flat = flatten_bench(REPORT)
        assert flat["apps.jpeg.design_s"] == 0.010
        assert flat["service.batch_cold_s"] == 0.020
        assert flat["server.p99_ms"] == 4.0
        # prose/metadata sections and bools are not metrics
        assert not any(k.startswith("schema") for k in flat)
        assert "apps.jpeg.conservation_ok" not in flat

    def test_timing_suffix(self):
        assert timing_suffix("apps.jpeg.design_s")
        assert timing_suffix("server.p99_ms")
        assert not timing_suffix("service.cache_speedup")
        assert not timing_suffix("apps.jpeg.profiler_overhead")


class TestHistoryFile:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(REPORT, path, ts=100.0)
        append_history(_report(2.0), path, ts=200.0)
        entries = load_history(path)
        assert len(entries) == 2
        assert all(e["kind"] == HISTORY_KIND for e in entries)
        assert entries[0]["ts"] == 100.0
        assert entries[1]["metrics"]["server.p99_ms"] == 8.0

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_corrupt_line_is_loud(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(REPORT, path, ts=1.0)
        with path.open("a") as f:
            f.write("{not json\n")
        with pytest.raises(ValueError):
            load_history(path)

    def test_wrong_kind_is_loud(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(ValueError):
            load_history(path)

    def test_history_entry_shape(self):
        entry = history_entry(REPORT, ts=5.0)
        assert entry["kind"] == HISTORY_KIND
        assert entry["ts"] == 5.0
        assert "python" in entry
        assert entry["metrics"] == flatten_bench(REPORT)


class TestCompare:
    def _history(self, *scales, tmp=None):
        return [history_entry(_report(s), ts=float(i))
                for i, s in enumerate(scales)]

    def test_no_regression_at_parity(self):
        deltas = compare_bench(_report(1.0), self._history(1.0, 1.0))
        assert regressions(deltas) == []

    def test_two_x_slowdown_is_caught(self):
        deltas = compare_bench(_report(2.0), self._history(1.0, 1.0, 1.0))
        names = {d.name for d in regressions(deltas)}
        assert "apps.jpeg.design_s" in names
        assert "service.batch_cold_s" in names
        assert "server.p99_ms" in names
        # non-timing metrics never gate, whatever their ratio
        assert "service.cache_speedup" not in names

    def test_baseline_is_median_not_mean(self):
        # one wild outlier run must not drag the baseline
        history = self._history(1.0, 1.0, 1.0, 100.0)
        deltas = compare_bench(_report(1.2), history)
        assert regressions(deltas) == []

    def test_speedup_never_regresses(self):
        deltas = compare_bench(_report(0.5), self._history(1.0, 1.0))
        assert regressions(deltas) == []

    def test_noise_floor_ungates_tiny_baselines(self):
        tiny = _report(1.0)
        tiny["apps"]["jpeg"]["design_s"] = 1e-6
        history = [history_entry(tiny, ts=0.0)]
        current = json.loads(json.dumps(tiny))
        current["apps"]["jpeg"]["design_s"] = 1e-5  # 10x but microseconds
        deltas = compare_bench(current, history)
        by_name = {d.name: d for d in deltas}
        assert not by_name["apps.jpeg.design_s"].gated
        assert regressions(deltas) == []

    def test_threshold_must_exceed_one(self):
        history = self._history(1.0)
        for bad in (1.0, 0.5, 0.0, -2.0):
            with pytest.raises((ConfigurationError, ValueError)):
                compare_bench(_report(1.0), history, threshold=bad)

    def test_metric_only_in_history_is_ignored(self):
        history = self._history(1.0)
        history[0]["metrics"]["gone.metric_s"] = 1.0
        deltas = compare_bench(_report(1.0), history)
        assert "gone.metric_s" not in {d.name for d in deltas}

    def test_delta_carries_history_series(self):
        deltas = compare_bench(_report(1.0), self._history(1.0, 2.0, 3.0))
        d = next(x for x in deltas if x.name == "server.p99_ms")
        assert isinstance(d, MetricDelta)
        assert list(d.history) == [4.0, 8.0, 12.0]


class TestRendering:
    def test_sparkline_shape(self):
        line = sparkline([1.0, 2.0, 3.0, 2.0])
        assert len(line) == 4
        assert line[0] != line[2]  # min and max get different blocks

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        flat = sparkline([5.0, 5.0, 5.0])
        assert len(flat) == 3 and len(set(flat)) == 1

    def test_trend_table_marks_regressions(self):
        deltas = compare_bench(_report(2.0), [history_entry(_report(1.0))])
        table = render_trend_table(deltas, DEFAULT_THRESHOLD)
        assert "REGRESSED" in table
        assert "apps.jpeg.design_s" in table

    def _ratio_report(self, speedup: float) -> dict:
        doc = _report(1.0)
        doc["apps"]["jpeg"]["static_speedup"] = speedup
        return doc

    def test_ratio_metrics_display_as_multipliers_not_info(self):
        """The satellite: throughput ratios are first-class rows —
        formatted as ``Nx`` with their own verdict — but never gate."""
        report = self._ratio_report(8.0)
        deltas = compare_bench(report, [history_entry(report)])
        table = render_trend_table(deltas, DEFAULT_THRESHOLD)
        row = next(l for l in table.splitlines()
                   if "static_speedup" in l)
        assert "8.00x" in row
        assert row.rstrip().endswith("ratio")
        assert regressions(deltas) == []

    def test_dropped_speedup_is_called_out_but_still_not_gated(self):
        history = [history_entry(self._ratio_report(8.0))]
        deltas = compare_bench(self._ratio_report(2.0), history)
        table = render_trend_table(deltas, DEFAULT_THRESHOLD)
        row = next(l for l in table.splitlines()
                   if "static_speedup" in l)
        assert "ratio (dropped)" in row
        assert regressions(deltas) == []

    def test_overhead_ratios_never_drop_flag(self):
        # "dropped" is a *speedup* notion; an overhead ratio falling is
        # good news and renders as a plain ratio row.
        report = _report(1.0)
        history = [history_entry(report)]
        shrunk = _report(1.0)
        shrunk["apps"]["jpeg"]["profiler_overhead"] = 0.1
        table = render_trend_table(
            compare_bench(shrunk, history), DEFAULT_THRESHOLD
        )
        row = next(l for l in table.splitlines()
                   if "profiler_overhead" in l)
        assert "dropped" not in row
        assert "0.10x" in row


class TestBenchCompareCli:
    """`repro bench --compare` end-to-end with a monkeypatched bench."""

    def _patch_bench(self, monkeypatch, scale):
        import repro.bench as bench_mod

        def fake_run_bench(apps, repeat, buckets, out=None, **kwargs):
            return _report(scale)

        monkeypatch.setattr(bench_mod, "run_bench", fake_run_bench)
        monkeypatch.setattr(bench_mod, "render_bench",
                            lambda report: "bench (fake)")

    def test_first_run_records_baseline_and_passes(
        self, tmp_path, monkeypatch, capsys
    ):
        self._patch_bench(monkeypatch, 1.0)
        hist = tmp_path / "hist.jsonl"
        rc = cli_main(["bench", "--history", str(hist), "--compare"])
        assert rc == 0
        assert "recording a baseline" in capsys.readouterr().out
        assert len(load_history(hist)) == 1

    def test_unchanged_run_passes_and_appends(
        self, tmp_path, monkeypatch, capsys
    ):
        hist = tmp_path / "hist.jsonl"
        append_history(_report(1.0), hist, ts=1.0)
        self._patch_bench(monkeypatch, 1.0)
        rc = cli_main(["bench", "--history", str(hist), "--compare"])
        assert rc == 0
        assert "bench trends" in capsys.readouterr().out
        assert len(load_history(hist)) == 2

    def test_injected_2x_slowdown_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        hist = tmp_path / "hist.jsonl"
        append_history(_report(1.0), hist, ts=1.0)
        self._patch_bench(monkeypatch, 2.0)
        rc = cli_main(["bench", "--history", str(hist), "--compare"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "regressed" in err
        # the regressed run is still recorded — history is the log,
        # the exit code is the gate
        assert len(load_history(hist)) == 2

    def test_generous_threshold_tolerates_the_same_run(
        self, tmp_path, monkeypatch
    ):
        hist = tmp_path / "hist.jsonl"
        append_history(_report(1.0), hist, ts=1.0)
        self._patch_bench(monkeypatch, 2.0)
        rc = cli_main(["bench", "--history", str(hist), "--compare",
                       "--threshold", "4.0"])
        assert rc == 0

    def test_compare_requires_history(self, monkeypatch):
        self._patch_bench(monkeypatch, 1.0)
        rc = cli_main(["bench", "--compare"])
        assert rc == 1  # ConfigurationError -> CLI error path

    def test_threshold_requires_compare(self, monkeypatch):
        self._patch_bench(monkeypatch, 1.0)
        rc = cli_main(["bench", "--threshold", "2.0"])
        assert rc == 1

    def test_corrupt_history_is_a_loud_failure(
        self, tmp_path, monkeypatch
    ):
        hist = tmp_path / "hist.jsonl"
        hist.write_text("{broken\n")
        self._patch_bench(monkeypatch, 1.0)
        with pytest.raises((ValueError, ReproError)):
            cli_main(["bench", "--history", str(hist), "--compare"])
