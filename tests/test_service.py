"""Tests for the service-layer building blocks: jobs, cache, metrics."""

from __future__ import annotations

import pytest

from repro.errors import CacheError, ConfigurationError
from repro.service import DesignJob, MetricsRegistry, ResultCache, percentile
from repro.sim.systems import SystemParams


class TestDesignJob:
    def test_fingerprint_is_stable(self):
        a = DesignJob("klt", scale=2, seed=7, simulate=False)
        b = DesignJob("klt", scale=2, seed=7, simulate=False)
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 64  # sha256 hex

    def test_fingerprint_sees_every_input(self):
        base = DesignJob("klt", simulate=False)
        variants = [
            DesignJob("jpeg", simulate=False),
            DesignJob("klt", scale=2, simulate=False),
            DesignJob("klt", seed=1, simulate=False),
            DesignJob("klt", simulate=True),
            DesignJob("klt", simulate=False,
                      params=SystemParams(bus_width_bytes=4)),
            DesignJob("klt", simulate=False,
                      design={"enable_sharing": False}),
        ]
        prints = {j.fingerprint() for j in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)

    def test_design_mapping_normalized(self):
        a = DesignJob("klt", design={"enable_noc": False, "enable_sharing": False})
        b = DesignJob("klt", design={"enable_sharing": False, "enable_noc": False})
        assert a == b
        assert a.design_overrides == {
            "enable_noc": False, "enable_sharing": False,
        }

    def test_dict_roundtrip(self):
        job = DesignJob(
            "fluid", scale=3, seed=11,
            params=SystemParams(noc_qos=True, noc_transport="wormhole"),
            simulate=True, design={"enable_pipelining": False},
        )
        clone = DesignJob.from_dict(job.to_dict())
        assert clone == job
        assert clone.fingerprint() == job.fingerprint()

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignJob("doom")

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignJob("klt", scale=0)

    def test_unknown_toggle_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignJob("klt", design={"warp_drive": True})

    def test_calibrated_fields_not_overridable(self):
        with pytest.raises(ConfigurationError):
            DesignJob("klt", design={"theta_s_per_byte": 1e-9})


class TestResultCacheMemory:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("fp1") is None
        cache.put("fp1", {"speedup_app": 1.5})
        assert cache.get("fp1") == {"speedup_app": 1.5}
        assert cache.stats.misses == 1
        assert cache.stats.hits_memory == 1
        assert cache.stats.hit_ratio == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh a → b is now least-recent
        cache.put("c", {"v": 3})
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}

    def test_bad_capacity_rejected(self):
        with pytest.raises(CacheError):
            ResultCache(capacity=0)


class TestResultCacheDisk:
    def test_survives_new_instance(self, tmp_path):
        ResultCache(cache_dir=tmp_path).put("fp", {"speedup_app": 2.25})
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("fp") == {"speedup_app": 2.25}
        assert fresh.stats.hits_disk == 1

    def test_float_roundtrip_is_exact(self, tmp_path):
        value = {"speedup_kernels": 3.0000000000000004, "luts": 12345}
        ResultCache(cache_dir=tmp_path).put("fp", value)
        assert ResultCache(cache_dir=tmp_path).get("fp") == value

    def test_format_version_bump_invalidates(self, tmp_path, monkeypatch):
        ResultCache(cache_dir=tmp_path).put("fp", {"v": 1})
        monkeypatch.setattr("repro.io.FORMAT_VERSION", 99)
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("fp") is None
        assert fresh.stats.invalidations == 1
        assert fresh.stats.misses == 1
        assert not (tmp_path / "fp.json").exists()

    def test_interrupted_write_keeps_the_previous_entry(
        self, tmp_path, monkeypatch
    ):
        ResultCache(cache_dir=tmp_path).put("fp", {"v": 1})

        def crash(fd):
            raise OSError("disk full")

        monkeypatch.setattr("repro.io.os.fsync", crash)
        with pytest.raises(OSError):
            ResultCache(cache_dir=tmp_path).put("fp", {"v": 2})
        # The old entry survives whole, and no partial file is visible.
        assert [p.name for p in tmp_path.iterdir()] == ["fp.json"]
        monkeypatch.undo()
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("fp") == {"v": 1}
        assert fresh.stats.invalidations == 0

    def test_corrupt_entry_invalidated(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        (tmp_path / "fp.json").write_text("{not json")
        assert cache.get("fp") is None
        assert cache.stats.invalidations == 1
        assert not (tmp_path / "fp.json").exists()

    def test_fingerprint_mismatch_invalidated(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("real", {"v": 1})
        (tmp_path / "real.json").rename(tmp_path / "other.json")
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("other") is None
        assert fresh.stats.invalidations == 1


class TestMetrics:
    def test_percentiles_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 95) == 7.0

    def test_counters_and_timers(self):
        m = MetricsRegistry()
        m.incr("jobs_submitted", 3)
        m.incr("jobs_submitted")
        m.observe("job_latency", 0.1)
        m.observe("job_latency", 0.3)
        snap = m.snapshot()
        assert snap["counters"]["jobs_submitted"] == 4
        stats = snap["timers"]["job_latency"]
        assert stats["count"] == 2
        assert stats["mean_s"] == pytest.approx(0.2)

    def test_render_includes_extras(self):
        m = MetricsRegistry()
        m.incr("jobs_completed", 2)
        text = m.render((("cache_hit_ratio", 1.0),))
        assert "jobs_completed" in text
        assert "cache_hit_ratio" in text
        assert "1.0000" in text


class TestCacheDeterminism:
    """Same seed + SystemParams twice must be bit-for-bit reproducible."""

    def test_repeat_submission_is_byte_identical_and_cached(self):
        from repro.io import canonical_json
        from repro.service import DesignService

        params = SystemParams(bus_width_bytes=4, dma_setup_cycles=60)
        service = DesignService()
        make = lambda: DesignJob("klt", scale=2, seed=11, simulate=True,
                                 params=params)

        first = service.submit(make())
        second = service.submit(make())

        assert not first.cached
        assert second.cached
        assert canonical_json(first.summary).encode() == \
            canonical_json(second.summary).encode()
        cache = service.stats()["cache"]
        assert cache["hits_memory"] + cache["hits_disk"] == 1
        assert cache["misses"] >= 1

    def test_two_services_same_disk_cache_agree(self, tmp_path):
        from repro.io import canonical_json
        from repro.service import DesignService

        job = DesignJob("canny", seed=3, simulate=True,
                        params=SystemParams(noc_link_width_bytes=2))
        summary_a = DesignService(cache_dir=tmp_path).submit(job).summary
        result_b = DesignService(cache_dir=tmp_path).submit(job)
        assert result_b.cached
        assert canonical_json(summary_a) == canonical_json(result_b.summary)
