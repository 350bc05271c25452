"""Tests for the scheme registry, runner, and statistics."""

import pytest

from repro.sim import runner
from repro.sim.config import MachineConfig
from repro.sim.runner import SCHEMES, run_workload
from repro.sim.stats import geometric_mean
from repro.workloads import get_workload, workload_names

FAST = dict(limit_refs=4000)


class TestRegistry:
    def test_all_paper_schemes_present(self):
        for scheme in ("none", "stride", "srp", "pointer",
                       "pointer-recursive", "grp", "grp-fix"):
            assert scheme in SCHEMES

    def test_adaptive_schemes_present(self):
        assert "srp-adaptive" in SCHEMES
        assert "grp-adaptive" in SCHEMES
        assert not SCHEMES["srp-adaptive"].hinted  # hint-free by design
        assert SCHEMES["grp-adaptive"].hinted

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            run_workload("swim", "bogus", **FAST)

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            run_workload("nonesuch", "none", **FAST)

    def test_workload_type_checked(self):
        with pytest.raises(TypeError):
            run_workload(42, "none", **FAST)

    def test_eighteen_benchmarks_registered(self):
        assert len(workload_names()) == 18

    def test_categories_and_languages(self):
        for name in workload_names():
            workload = get_workload(name)
            assert workload.category in ("int", "fp")
            assert workload.language in ("c", "fortran")
        fortran = [n for n in workload_names()
                   if get_workload(n).language == "fortran"]
        assert sorted(fortran) == ["applu", "apsi", "mgrid", "swim",
                                   "wupwise"]


class TestBuildCache:
    """A cached build serves every cell of its workload, so interpreting
    it must leave nothing behind that changes a later interpretation."""

    @staticmethod
    def trace(name, limit, cacheable):
        config = MachineConfig.scaled()
        _, _, _, build_interp = runner.prepare(
            get_workload(name), SCHEMES["grp"], config, "default", 1.0,
            12345, limit, cacheable=cacheable)
        return build_interp().run_columns(limit)

    @pytest.mark.parametrize("name", workload_names())
    def test_earlier_run_leaves_later_trace_unchanged(self, name,
                                                      monkeypatch):
        monkeypatch.setattr(runner, "_BUILD_CACHE", {})
        self.trace(name, 1500, cacheable=True)
        cached = self.trace(name, 6000, cacheable=True)
        fresh = self.trace(name, 6000, cacheable=False)
        for column in ("kinds", "f0", "f1", "f2", "ref_names",
                       "ref_count"):
            assert getattr(cached, column) == getattr(fresh, column), column


class TestRunResults:
    def test_stats_fields_populated(self):
        stats = run_workload("vpr", "grp", **FAST)
        assert stats.workload == "vpr"
        assert stats.scheme == "grp"
        assert stats.instructions > 0
        assert stats.cycles > 0
        assert 0 < stats.ipc <= 4.0
        assert stats.traffic_bytes > 0

    def test_deterministic_across_runs(self):
        a = run_workload("mcf", "srp", **FAST)
        b = run_workload("mcf", "srp", **FAST)
        assert a.cycles == b.cycles
        assert a.traffic_bytes == b.traffic_bytes

    def test_perfect_l2_bounds_real(self):
        real = run_workload("swim", "none", **FAST)
        perfect = run_workload("swim", "none", mode="perfect_l2", **FAST)
        assert perfect.ipc >= real.ipc

    def test_perfect_l1_bounds_perfect_l2(self):
        l2 = run_workload("swim", "none", mode="perfect_l2", **FAST)
        l1 = run_workload("swim", "none", mode="perfect_l1", **FAST)
        assert l1.ipc >= l2.ipc * 0.99

    def test_summary_roundtrip(self):
        stats = run_workload("gzip", "stride", **FAST)
        summary = stats.summary()
        assert summary["workload"] == "gzip"
        assert summary["ipc"] == pytest.approx(stats.ipc)

    def test_config_override_respected(self):
        big = run_workload("swim", "none",
                           config=MachineConfig.scaled(l2_size=1 << 20),
                           **FAST)
        small = run_workload("swim", "none",
                             config=MachineConfig.scaled(l2_size=1 << 15),
                             **FAST)
        assert big.l2_demand_misses <= small.l2_demand_misses

    def test_policy_passed_through(self):
        # Policies change hints, not correctness; all must run.
        for policy in ("conservative", "default", "aggressive"):
            stats = run_workload("swim", "grp", policy=policy, **FAST)
            assert stats.instructions > 0


class TestDerivedMetrics:
    def test_speedup_identity(self):
        base = run_workload("vpr", "none", **FAST)
        assert base.speedup_over(base) == pytest.approx(1.0)

    def test_traffic_ratio_identity(self):
        base = run_workload("vpr", "none", **FAST)
        assert base.traffic_ratio_over(base) == pytest.approx(1.0)

    def test_coverage_identity_is_zero(self):
        base = run_workload("vpr", "none", **FAST)
        assert base.coverage_over(base) == pytest.approx(0.0)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)


class TestSchemeSanity:
    """Cheap end-to-end invariants across every (workload, scheme)."""

    @pytest.mark.parametrize("scheme", ["stride", "srp", "grp"])
    def test_no_scheme_catastrophically_degrades(self, scheme):
        for name in ("vpr", "swim", "mcf"):
            base = run_workload(name, "none", **FAST)
            stats = run_workload(name, scheme, **FAST)
            assert stats.speedup_over(base) > 0.7

    def test_grp_traffic_at_most_srp(self):
        for name in ("vpr", "bzip2", "twolf"):
            srp = run_workload(name, "srp", limit_refs=8000)
            grp = run_workload(name, "grp", limit_refs=8000)
            assert grp.traffic_bytes <= srp.traffic_bytes * 1.05

    def test_accuracy_in_unit_range(self):
        for scheme in ("stride", "srp", "grp"):
            stats = run_workload("equake", scheme, **FAST)
            assert 0.0 <= stats.prefetch_accuracy <= 1.0
