"""Differential tests for the fused multi-core co-run backend.

The fused skip-ahead scheduler must produce byte-identical
``CoRunResult.to_dict()`` output to the stepped reference loop for every
spec: all 15 pairs of the representative co-run mix under
every scheme family, and the 18-core rush-hour mix, on plain and
TLB-enabled configs.  Also covered: ``CoRunSpec.backend`` digest
sensitivity and serialization, and the backend resolution rules.
"""

import dataclasses
import itertools
import json

import pytest

from repro.experiments.corun import CORUN_BENCHMARKS
from repro.sim.config import MachineConfig
from repro.sim.multicore import (
    CORE_BASE_STRIDE, MultiCoreSimulator, execute_corun,
)
from repro.sim.multicore_fused import FusedMultiCoreSimulator
from repro.sim.runner import execute, resolve_corun_backend
from repro.sim.spec import CORUN_BACKENDS, CoRunSpec
from repro.trace import store as trace_store

#: Small per-core trace length: long enough to exercise shared-L2
#: contention, prefetch traffic, and cross-core pollution; short enough
#: that the 15x4 differential matrix stays in tier-1 budget.
REFS = 400

PAIRS = list(itertools.combinations(CORUN_BENCHMARKS, 2))
SCHEMES = ["none", "srp", "grp", "srp-adaptive"]

RUSH_HOUR = ["mcf", "swim", "art", "ammp", "equake", "mesa"] * 3


def both_backends(workloads, scheme, refs=REFS, config=None):
    """Stepped and fused results for one co-run, as plain dicts."""
    results = {}
    for backend in ("stepped", "fused"):
        spec = CoRunSpec.create(workloads, scheme, config=config,
                                limit_refs=refs, backend=backend)
        results[backend] = execute_corun(spec, solo_baseline=False).to_dict()
    return results


class TestDifferentialMatrix:
    """Fused vs stepped over every pair x scheme: byte-identical."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("pair", PAIRS,
                             ids=["+".join(p) for p in PAIRS])
    def test_pair_byte_identical(self, pair, scheme):
        results = both_backends(list(pair), scheme)
        assert json.dumps(results["stepped"], sort_keys=True) \
            == json.dumps(results["fused"], sort_keys=True)

    def test_rush_hour_byte_identical(self):
        results = both_backends(RUSH_HOUR, "srp", refs=250)
        assert json.dumps(results["stepped"], sort_keys=True) \
            == json.dumps(results["fused"], sort_keys=True)

    @pytest.mark.parametrize("scheme", ["none", "srp"])
    def test_all_ties_byte_identical(self, scheme):
        """Every core on the same trace: the cores tie at every
        arbitration until shared-level contention sets them apart, so
        the round-robin tie rule decides nearly every stretch."""
        results = both_backends(["swim"] * 4, scheme)
        assert json.dumps(results["stepped"], sort_keys=True) \
            == json.dumps(results["fused"], sort_keys=True)

    def test_mru_prefetch_insert_byte_identical(self):
        """Prefetch fills appended at MRU instead of recycled in place."""
        results = both_backends(
            ["ammp", "mcf"], "srp",
            config=MachineConfig.scaled(prefetch_insert="mru"))
        assert json.dumps(results["stepped"], sort_keys=True) \
            == json.dumps(results["fused"], sort_keys=True)

    def test_solo_baseline_summary_identical(self):
        """The fairness/slowdown summary block matches too."""
        outs = {}
        for backend in ("stepped", "fused"):
            spec = CoRunSpec.create(["mcf", "swim"], "srp",
                                    limit_refs=REFS, backend=backend)
            outs[backend] = execute_corun(spec).to_dict()
        assert outs["stepped"] == outs["fused"]


class TestFusedTLB:
    """TLB configs replay through the fused loop's out-of-line access
    path: byte-identical to stepped, with no fallback."""

    CONFIG = MachineConfig.scaled(tlb_entries=32)

    def test_mcf_swim_srp_byte_identical(self):
        results = both_backends(["mcf", "swim"], "srp", config=self.CONFIG)
        assert json.dumps(results["stepped"], sort_keys=True) \
            == json.dumps(results["fused"], sort_keys=True)

    def test_rush_hour_byte_identical(self):
        results = both_backends(RUSH_HOUR, "srp", refs=250,
                                config=self.CONFIG)
        assert json.dumps(results["stepped"], sort_keys=True) \
            == json.dumps(results["fused"], sort_keys=True)

    def test_execute_corun_builds_fused(self, monkeypatch):
        """A fused request on a TLB config really runs the fused
        scheduler (guards against a silent fallback)."""
        ran = []
        original = FusedMultiCoreSimulator.run

        def spy(self):
            ran.append(type(self))
            return original(self)

        monkeypatch.setattr(FusedMultiCoreSimulator, "run", spy)
        spec = CoRunSpec.create(["mcf", "swim"], "srp", limit_refs=REFS,
                                config=self.CONFIG, backend="fused")
        execute_corun(spec, solo_baseline=False)
        assert ran == [FusedMultiCoreSimulator]

    def test_fused_cells_are_compiled(self):
        spec = CoRunSpec.create(["mcf", "swim"], "none", limit_refs=REFS,
                                config=self.CONFIG, backend="fused")
        sim = FusedMultiCoreSimulator(spec)
        assert sim.COMPILED_CELLS
        for cell in sim.cells:
            assert cell.trace is not None
            assert cell.events is None
            assert cell.hierarchy.tlb is not None

    def test_stepped_cells_keep_event_streams(self):
        spec = CoRunSpec.create(["mcf", "swim"], "none",
                                limit_refs=REFS, backend="stepped")
        sim = MultiCoreSimulator(spec)
        for cell in sim.cells:
            assert cell.trace is None
            assert cell.events is not None


class TestBackendField:
    """CoRunSpec.backend: validation, serialization, digest."""

    def test_create_validates_backend(self):
        with pytest.raises(ValueError):
            CoRunSpec.create(["mcf"], "none", backend="warp")

    def test_round_trip_preserves_backend(self):
        for backend in CORUN_BACKENDS:
            spec = CoRunSpec.create(["mcf", "swim"], "srp",
                                    limit_refs=REFS, backend=backend)
            again = CoRunSpec.from_dict(spec.to_dict())
            assert again.backend == backend
            assert again == spec

    def test_from_dict_rejects_unknown_backend(self):
        payload = CoRunSpec.create(["mcf"], "none").to_dict()
        payload["backend"] = "warp"
        with pytest.raises(ValueError):
            CoRunSpec.from_dict(payload)

    def test_missing_backend_means_auto(self):
        payload = CoRunSpec.create(["mcf"], "none").to_dict()
        del payload["backend"]
        assert CoRunSpec.from_dict(payload).backend == "auto"

    def test_backend_rides_in_digest(self):
        digests = {
            CoRunSpec.create(["mcf", "swim"], "srp",
                             backend=backend).digest()
            for backend in CORUN_BACKENDS
        }
        assert len(digests) == len(CORUN_BACKENDS)


class TestBackendResolution:
    """resolve_corun_backend: pins and the auto default."""

    def test_auto_defaults_to_fused(self):
        assert resolve_corun_backend("auto") == "fused"
        assert resolve_corun_backend(None) == "fused"

    def test_explicit_pins_pass_through(self):
        assert resolve_corun_backend("fused") == "fused"
        assert resolve_corun_backend("stepped") == "stepped"

    def test_unknown_pin_raises(self):
        with pytest.raises(ValueError):
            resolve_corun_backend("warp")


class TestSharedTraceKeys:
    """Co-run cells and single-core runs share one set-up
    (``runner.prepare``), so they key the trace store alike."""

    def test_core_zero_shares_the_single_core_entry(self, monkeypatch):
        store = trace_store.TraceStore(disk_dir=False)
        monkeypatch.setattr(trace_store, "_default_store", store)
        keys = []
        get_or_build = store.get_or_build

        def recording(key, builder):
            keys.append(key)
            return get_or_build(key, builder)

        monkeypatch.setattr(store, "get_or_build", recording)
        # Two replicas of one hinted cell: the keys carry a hint
        # signature, and differ only where the cores differ.
        spec = CoRunSpec.create(["mcf", "mcf"], "grp", limit_refs=REFS)
        FusedMultiCoreSimulator(spec)
        assert (store.misses, store.memory_hits) == (2, 0)
        execute(spec.cells[0])
        assert (store.misses, store.memory_hits) == (2, 1)
        core0, core1, solo = keys
        assert solo == core0
        assert core0.base == 0 and core0.hint_sig is not None
        assert core1 == dataclasses.replace(core0, base=CORE_BASE_STRIDE)
