"""Tests for the multi-core co-run substrate: the 1-core degenerate case
is byte-identical to the single-core engine, N-core replay is
deterministic, per-core attribution sums to the shared counters,
cross-core prefetch pollution is charged to the evicting core, and
CoRunSpec/CoRunResult survive every serialization boundary (JSON, the
result cache, the sweep supervisor's journal)."""

import json
import os

import pytest

from repro.mem.cache import Cache
from repro.sim.cache import ResultCache
from repro.sim.multicore import (
    CORE_BASE_STRIDE,
    InterferenceMatrix,
    execute_corun,
    jain_fairness,
)
from repro.sim.runner import execute
from repro.sim.spec import CoRunSpec, RunSpec
from repro.sim.stats import CoRunResult, result_from_dict
from repro.sim.supervisor import SweepSupervisor

REFS = 1500

DEGENERATE_BENCHMARKS = ["mcf", "swim", "vpr"]
DEGENERATE_SCHEMES = ["none", "srp", "grp", "srp-adaptive"]


def corun_spec(workloads, scheme, refs=REFS):
    return CoRunSpec.create(workloads, scheme, limit_refs=refs)


class TestDegenerateEquivalence:
    """A 1-core co-run IS the single-core engine, byte for byte."""

    @pytest.mark.parametrize("bench", DEGENERATE_BENCHMARKS)
    @pytest.mark.parametrize("scheme", DEGENERATE_SCHEMES)
    def test_one_core_matches_execute(self, bench, scheme):
        solo = execute(RunSpec.create(bench, scheme, limit_refs=REFS))
        corun = execute_corun(corun_spec([bench], scheme),
                              solo_baseline=False)
        assert corun.cores[0].to_dict() == solo.to_dict()

    def test_one_core_shared_summary_is_trivial(self):
        result = execute_corun(corun_spec(["mcf"], "srp"))
        assert result.shared["slowdowns"] == [1.0]
        assert result.shared["geomean_slowdown"] == 1.0
        assert result.shared["fairness"] == 1.0
        assert result.shared["cross_core_pollution"] == 0


class TestDeterminism:
    def test_two_runs_byte_identical(self):
        spec = corun_spec(["mcf", "swim"], "srp")
        first = execute_corun(spec)
        second = execute_corun(spec)
        assert first.to_dict() == second.to_dict()

    def test_heterogeneous_schemes_per_core(self):
        spec = CoRunSpec.create(["mcf", "swim"], ["srp", "grp"],
                                limit_refs=REFS)
        result = execute_corun(spec, solo_baseline=False)
        assert result.scheme == "srp+grp"
        assert result.cores[0].scheme == "srp"
        assert result.cores[1].scheme == "grp"


class TestAttribution:
    """Per-core counters sum to the shared-structure counters."""

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.sim.multicore import MultiCoreSimulator
        sim = MultiCoreSimulator(corun_spec(["mcf", "swim"], "grp"))
        sim.run()
        return sim

    def test_l2_counters_sum(self, pair):
        shared = pair.shared.l2.stats.snapshot()
        cores = [s.snapshot() for s in pair.shared.l2.core_stats]
        for key, value in shared.items():
            if key == "miss_rate":
                continue  # derived ratio, not a counter
            assert sum(c[key] for c in cores) == value, key

    def test_dram_counters_sum(self, pair):
        dram = pair.shared.dram
        for attr in ("demand_blocks", "prefetch_blocks",
                     "writeback_blocks", "row_hits", "row_misses"):
            shared = getattr(dram.stats, attr)
            assert sum(getattr(c, attr)
                       for c in dram.core_stats) == shared, attr
        assert sum(dram.core_busy_cycles) == \
            pytest.approx(sum(dram.channel_busy_cycles))

    def test_mshr_counters_sum(self, pair):
        mshrs = pair.shared.mshrs
        assert sum(c.stalls for c in mshrs.core_stats) == mshrs.stats.stalls
        assert sum(c.merges for c in mshrs.core_stats) == mshrs.stats.merges
        assert sum(c.allocations for c in mshrs.core_stats) == \
            mshrs.stats.allocations

    def test_address_spaces_disjoint(self, pair):
        bases = [cell.hierarchy.space.base for cell in pair.cells]
        assert bases == [0, CORE_BASE_STRIDE]


class TestCrossCorePollution:
    """Adversarial unit test: core 1's prefetches evict core 0's lines
    from a shared set; core 0's re-misses are charged to core 1."""

    def test_prefetch_eviction_charged_to_evicter(self):
        cache = Cache("l2", size=1024, assoc=2, block_size=64, latency=10,
                      prefetch_insert="mru")
        cache.enable_core_stats(2)
        matrix = InterferenceMatrix(2)
        cache.interference = matrix
        set_stride = cache.num_sets * cache.block_size

        # Core 0 demand-fills both ways of set 0.
        cache.active_core = 0
        for i in range(2):
            block = i * set_stride
            assert not cache.access_block(block)
            cache.fill(block)

        # Core 1 prefetch-fills two different blocks into the same set,
        # evicting both of core 0's lines.
        cache.active_core = 1
        for i in range(2, 4):
            cache.fill(i * set_stride, prefetched=True)
        assert matrix.prefetch_evictions[1][0] == 2

        # Core 0 touches its data again: pollution misses, charged to
        # the evicting core in the interference matrix.
        cache.active_core = 0
        for i in range(2):
            assert not cache.access_block(i * set_stride)
        assert cache.core_stats[0].pollution_misses == 2
        assert matrix.pollution[1][0] == 2
        assert matrix.cross_core_pollution() == 2
        # Self-inflicted pollution is not cross-core interference.
        assert matrix.pollution[0][0] == 0

    def test_same_core_pollution_not_cross_core(self):
        cache = Cache("l2", size=1024, assoc=2, block_size=64, latency=10,
                      prefetch_insert="mru")
        cache.enable_core_stats(1)
        matrix = InterferenceMatrix(1)
        cache.interference = matrix
        set_stride = cache.num_sets * cache.block_size
        for i in range(2):
            cache.access_block(i * set_stride)
            cache.fill(i * set_stride)
        for i in range(2, 4):
            cache.fill(i * set_stride, prefetched=True)
        for i in range(2):
            cache.access_block(i * set_stride)
        assert cache.stats.pollution_misses == 2
        assert matrix.cross_core_pollution() == 0


class TestSpecValidation:
    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            CoRunSpec.create([], "srp")

    def test_mismatched_scheme_list_rejected(self):
        with pytest.raises(ValueError):
            CoRunSpec.create(["mcf", "swim"], ["srp"])

    def test_digest_keys_on_content(self):
        a = corun_spec(["mcf", "swim"], "srp")
        b = corun_spec(["mcf", "swim"], "srp")
        c = corun_spec(["swim", "mcf"], "srp")
        assert a.digest("salt") == b.digest("salt")
        assert a.digest("salt") != c.digest("salt")
        assert a.digest("salt") != a.digest("other-salt")

    def test_labels(self):
        spec = corun_spec(["mcf", "swim"], "srp")
        assert spec.workload == "mcf+swim"
        assert spec.scheme == "srp"
        assert spec.label() == "mcf+swim/srp"


class TestRoundTrips:
    @pytest.fixture(scope="class")
    def spec(self):
        return corun_spec(["mcf", "swim"], "srp")

    @pytest.fixture(scope="class")
    def result(self, spec):
        return execute_corun(spec)

    def test_spec_json_round_trip(self, spec):
        rebuilt = CoRunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.digest("salt") == spec.digest("salt")

    def test_result_json_round_trip(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = result_from_dict(payload)
        assert isinstance(rebuilt, CoRunResult)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.n_cores == 2
        assert rebuilt.fairness == result.shared["fairness"]

    def test_result_cache_round_trip(self, spec, result, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(spec, result)
        cached = cache.get(spec)
        assert cached is not None
        assert cached.to_dict() == result.to_dict()

    def test_supervisor_journal_round_trip(self, spec, result, tmp_path):
        checkpoint = os.path.join(str(tmp_path), "sweep.ckpt")
        first = SweepSupervisor([spec], checkpoint=checkpoint).run()
        assert first[0].to_dict() == result.to_dict()
        # Resume from the journal alone: no cache, no recomputation.
        resumed = SweepSupervisor([spec], checkpoint=checkpoint,
                                  resume=True).run()
        assert resumed[0].to_dict() == result.to_dict()


class TestJainFairness:
    def test_equal_shares_are_fair(self):
        assert jain_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_unequal_shares_are_unfair(self):
        # (1 + 3)^2 / (2 * (1 + 9)) = 0.8
        assert jain_fairness([1.0, 3.0]) == pytest.approx(0.8)

    def test_empty_or_all_zero_is_zero(self):
        assert jain_fairness([]) == 0.0
        assert jain_fairness([0.0, 0.0]) == 0.0
