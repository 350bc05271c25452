"""The one-frame demand miss against the decomposed chain.

A hierarchy handles an L1 miss in one closure (``Hierarchy.demand_miss``):
the L2 probe, the engine hooks, the MSHR file, the DRAM transfer and
both fills run inline.  Single-core runs and the fused co-run loop call
it.  Reference, TLB, trace-sink and ``perfect_l2`` hierarchies keep
``Hierarchy.access_after_l1_miss``, the decomposed chain, which
``reference=True`` runs and the stepped co-run loop replays through;
it is the oracle here.

Each case below drives one branch of the frame hard, through
``MachineConfig.scaled`` overrides, checks the fast result against the
oracle's byte for byte, and checks from the fast result's own counters
that the branch ran.  The co-run cases also drive the frame's shared
branches: another core's line evicted, another core's prefetch
polluting, and per-core counting in the shared L2, MSHR file and DRAM.
"""

import collections
import json

import pytest

from repro.mem.cache import Cache
from repro.mem.space import AddressSpace
from repro.metrics.sink import TraceSink
from repro.sim.config import MachineConfig
from repro.sim.multicore import (
    CORE_BASE_STRIDE, MultiCoreSimulator, execute_corun,
)
from repro.sim.multicore_fused import FusedMultiCoreSimulator
from repro.sim.runner import SCHEMES, execute
from repro.sim.simulator import Simulator
from repro.sim.spec import CoRunSpec, RunSpec
from repro.workloads import workload_names

from tests.test_prefetch_work import corun_results, prepare

REFS = 2000

#: Tiny direct-mapped caches: a demand-fetched or prefetched block can
#: leave the L2 while its fill is still in flight, so a later miss to
#: it merges into the outstanding MSHR entry.
DIRECT_MAPPED = dict(l1_size=512, l1_assoc=1, l2_size=1024, l2_assoc=1,
                     region_size=512)


def mshr(stats):
    return stats["metrics"]["mshr"]


#: (case id, config overrides, workload, scheme, evidence the branch ran).
CASES = [
    ("stall-mshr1-none", dict(mshr_entries=1), "mcf", "none",
     lambda s: mshr(s)["demand_stalls"] > 0),
    ("stall-mshr1-srp", dict(mshr_entries=1), "applu", "srp",
     lambda s: mshr(s)["demand_stalls"] > 0),
    ("stall-mshr2-grp", dict(mshr_entries=2), "mcf", "grp",
     lambda s: mshr(s)["demand_stalls"] > 0),
    ("merge-none", DIRECT_MAPPED, "art", "none",
     lambda s: mshr(s)["merges"] > 0 and s["hier"]["mshr_merge_waits"] > 0),
    ("merge-grp", DIRECT_MAPPED, "mcf", "grp",
     lambda s: mshr(s)["merges"] > 0),
    ("merge-srp", DIRECT_MAPPED, "twolf", "srp",
     lambda s: mshr(s)["merges"] > 0),
    ("dirty-victim-none", dict(l1_size=1024, l2_size=16384), "applu", "none",
     lambda s: s["l1"]["writebacks"] > 0 and s["l2"]["writebacks"] > 0
     and s["dram_writeback_blocks"] > 0),
    ("dirty-victim-srp", dict(l1_size=1024), "ammp", "srp",
     lambda s: s["l1"]["writebacks"] > 0 and s["l2"]["writebacks"] > 0),
    ("dirty-victim-apsi", dict(l1_size=1024), "apsi", "srp",
     lambda s: s["l1"]["writebacks"] > 0),
    ("probe-stride-applu", {}, "applu", "stride",
     lambda s: s["prefetcher"]["private_useful"] > 0),
    ("probe-stride-tiny-l1", dict(l1_size=1024), "swim", "stride",
     lambda s: s["prefetcher"]["private_useful"] > 0),
    ("demand-fill-grp", {}, "mcf", "grp",
     lambda s: s["prefetcher"]["pointer_scans"] > 0),
    ("demand-fill-pointer", {}, "mcf", "pointer",
     lambda s: s["prefetcher"]["pointers_found"] > 0),
    ("l2-access-gaze", {}, "swim", "gaze",
     lambda s: s["prefetcher"]["generations_opened"] > 0),
    ("l2-access-chase", {}, "mcf", "chase",
     lambda s: s["prefetcher"]["pointer_loads"] > 0),
    ("late-prefetch-srp", {}, "crafty", "srp",
     lambda s: s["hier"]["late_prefetch_hits"] > 0
     and s["metrics"]["timeliness"]["late"] > 0
     and s["metrics"]["timeliness"]["timely"] > 0),
    ("pollution-srp", {}, "ammp", "srp",
     lambda s: s["l2"]["pollution_misses"] > 0),
]


def as_json(stats):
    return json.dumps(stats.to_dict(), sort_keys=True)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_frame_matches_decomposed_chain(case):
    _, overrides, workload, scheme, ran = case
    spec = RunSpec.create(workload, scheme,
                          config=MachineConfig.scaled(**overrides),
                          limit_refs=REFS)
    fast = execute(spec)
    assert as_json(fast) == as_json(execute(spec, reference=True))
    assert ran(fast.to_dict())


def count_cleared(hierarchy, cleared):
    """Wrap ``hierarchy``'s frame to count, in ``cleared[0]``, the misses
    that found the blocked-issue cache armed on their own block and left
    it disarmed."""
    controller = hierarchy.controller
    frame = hierarchy.demand_miss

    def counting(block, addr, now, is_store, ref_id, hint):
        armed = controller._blocked_until >= 0 \
            and controller._held_block == block
        ready = frame(block, addr, now, is_store, ref_id, hint)
        if armed and controller._blocked_until == -1.0:
            cleared[0] += 1
        return ready

    hierarchy.demand_miss = counting


def test_held_candidate_cleared_by_demand_fill():
    """A demand fill of the blocked-issue cache's held block disarms it;
    the run must still equal the reference run byte for byte."""
    spec = RunSpec.create("ammp", "srp", limit_refs=3000)
    sim, trace = prepare(spec)
    cleared = [0]
    count_cleared(sim.hierarchy, cleared)
    stats = sim.run_compiled(trace, workload="ammp", scheme="srp")
    assert cleared[0] > 0
    assert as_json(stats) == as_json(execute(spec, reference=True))


#: L1 counters that stay 0 because the L1 is demand-only.
L1_PREFETCH_COUNTERS = ("prefetch_fills", "useful_prefetches",
                        "useless_evicted_prefetches", "pollution_misses")


@pytest.mark.parametrize("workload", workload_names())
def test_l1_is_demand_only(workload):
    """The invariant the frame and the fused loop's L1 hit path rely on."""
    spec = RunSpec.create(workload, "srp", limit_refs=1500)
    for reference in (False, True):
        l1 = execute(spec, reference=reference).l1
        assert [l1[name] for name in L1_PREFETCH_COUNTERS] == [0, 0, 0, 0]
        assert l1["demand_accesses"] \
            == l1["demand_hits"] + l1["demand_misses"] > 0


def decomposed(hierarchy):
    return hierarchy.demand_miss == hierarchy.access_after_l1_miss


def simulator(config=None, **kwargs):
    return Simulator(config or MachineConfig.scaled(), AddressSpace(),
                     SCHEMES["srp"].factory(None), **kwargs)


def test_private_fast_hierarchy_binds_the_frame():
    spec = RunSpec.create("mcf", "none", limit_refs=200)
    sim, trace = prepare(spec)
    hierarchy = sim.hierarchy
    assert not decomposed(hierarchy)
    assert any(item is hierarchy.demand_miss
               for item in sim.core.bind_compiled(trace))
    assert not decomposed(simulator().hierarchy)


def test_oracle_hierarchies_bind_the_decomposed_chain(tmp_path):
    assert decomposed(simulator(reference=True).hierarchy)
    assert decomposed(simulator(MachineConfig.scaled(tlb_entries=32))
                      .hierarchy)
    assert decomposed(simulator(mode="perfect_l2").hierarchy)
    with TraceSink(str(tmp_path / "trace.jsonl")) as sink:
        assert decomposed(simulator(trace_sink=sink).hierarchy)


def test_corun_cores_bind_by_loop():
    """Fused co-run cores replay L1 misses through the frame; stepped
    cores through ``access`` (the chain); TLB co-runs through
    ``access`` in both loops."""
    spec = CoRunSpec.create(("mcf", "swim"), "srp", limit_refs=100)
    fused = FusedMultiCoreSimulator(spec)
    for cell in fused.cells:
        assert not decomposed(cell.hierarchy)
        ctx = cell.core.bind_compiled(cell.trace)
        assert any(item is cell.hierarchy.demand_miss for item in ctx)
    stepped = MultiCoreSimulator(spec)
    for cell in stepped.cells:
        cell.core.begin_stepping()
        assert cell.core._step_access == cell.hierarchy.access
    tlb = CoRunSpec.create(("mcf", "swim"), "srp",
                           config=MachineConfig.scaled(tlb_entries=32),
                           limit_refs=100)
    fused_tlb = FusedMultiCoreSimulator(tlb)
    for corun in (MultiCoreSimulator(tlb), fused_tlb):
        assert all(decomposed(cell.hierarchy) for cell in corun.cells)
    for cell in fused_tlb.cells:
        ctx = cell.core.bind_compiled(cell.trace)
        assert ctx[7] is True  # `general`: every reference takes access


# ----------------------------------------------------------------------
# Co-runs: the fused loop (the frame) against the stepped loop (the chain)
# ----------------------------------------------------------------------

CORUN_REFS = 1500


def off_diagonal(matrix):
    return sum(value for i, row in enumerate(matrix)
               for j, value in enumerate(row) if i != j)


def shared(result):
    return result["shared"]


#: (case id, config overrides, workloads, scheme, evidence the branch ran
#: from the fused result and the foreign evictions counted in it, keyed
#: (by a prefetch fill, the line an unreferenced prefetch)).
CORUN_CASES = [
    ("cross-core-demand-eviction", {}, ("mcf", "swim"), "none",
     lambda r, f: off_diagonal(
         shared(r)["interference"]["demand_evictions"]) > 0
     and f[(False, False)] > 0),
    ("cross-core-pollution", dict(l1_size=1024), ("applu", "ammp"), "srp",
     lambda r, f: shared(r)["cross_core_pollution"] > 0),
    ("foreign-useless-prefetch", {}, ("mcf", "ammp"), "srp",
     lambda r, f: f[(False, True)] > 0 and f[(True, True)] > 0
     and all(core["l2"]["useless_evicted_prefetches"] > 0
             for core in r["cores"])),
    ("stall-mshr1", dict(mshr_entries=1), ("mcf", "swim"), "none",
     lambda r, f: shared(r)["mshr"]["stalls"] > 0
     and all(mshr(core)["demand_stalls"] > 0 for core in r["cores"])),
    ("stall-mshr2", dict(mshr_entries=2), ("mcf", "ammp"), "srp",
     lambda r, f: shared(r)["mshr"]["stalls"] > 0),
    ("merge-none", DIRECT_MAPPED, ("art", "mcf"), "none",
     lambda r, f: shared(r)["mshr"]["merges"] > 0),
    ("merge-grp", DIRECT_MAPPED, ("mcf", "twolf"), "grp",
     lambda r, f: shared(r)["mshr"]["merges"] > 0
     and off_diagonal(shared(r)["interference"]["pollution"]) > 0),
    ("dirty-victim-tiny-l1", dict(l1_size=1024), ("applu", "ammp"), "srp",
     lambda r, f: all(core["l1"]["writebacks"] > 0 for core in r["cores"])),
    ("probe-stride", {}, ("applu", "swim"), "stride",
     lambda r, f: all(core["prefetcher"]["private_useful"] > 0
                      for core in r["cores"])),
]


@pytest.fixture
def foreign_evictions(monkeypatch):
    """Count ``Cache.evict_foreign`` calls while the fixture is live.

    Patched on the class, so hierarchies built afterwards bind the
    counting method into their frames and drains.
    """
    counts = collections.Counter()
    evict_foreign = Cache.evict_foreign

    def counting(self, line, core_id, by_prefetch):
        counts[(by_prefetch, line.prefetched and not line.referenced)] += 1
        return evict_foreign(self, line, core_id, by_prefetch)

    monkeypatch.setattr(Cache, "evict_foreign", counting)
    return counts


@pytest.mark.parametrize("case", CORUN_CASES,
                         ids=[case[0] for case in CORUN_CASES])
def test_corun_frame_matches_stepped(case, foreign_evictions):
    _, overrides, workloads, scheme, ran = case
    results = {}
    for backend in ("stepped", "fused"):
        foreign_evictions.clear()
        spec = CoRunSpec.create(workloads, scheme,
                                config=MachineConfig.scaled(**overrides),
                                limit_refs=CORUN_REFS, backend=backend)
        results[backend] = execute_corun(spec, solo_baseline=False).to_dict()
    assert json.dumps(results["fused"], sort_keys=True) \
        == json.dumps(results["stepped"], sort_keys=True)
    assert ran(results["fused"], foreign_evictions)


def test_corun_held_candidate_cleared_by_demand_fill():
    spec = CoRunSpec.create(("ammp", "art"), "srp", limit_refs=2000)
    fused = FusedMultiCoreSimulator(spec)
    cleared = [0]
    for cell in fused.cells:
        count_cleared(cell.hierarchy, cleared)
    fused.run()
    assert cleared[0] > 0
    stepped = MultiCoreSimulator(spec)
    stepped.run()
    assert corun_results(fused) == corun_results(stepped)


def test_corun_lines_belong_to_their_core():
    """What crediting useful prefetches to the accessing core rests on:
    every shared L2 line is owned by the core whose address range holds
    it."""
    spec = CoRunSpec.create(("mcf", "ammp", "swim"), "grp",
                            config=MachineConfig.scaled(l1_size=1024),
                            limit_refs=CORUN_REFS)
    fused = FusedMultiCoreSimulator(spec)
    fused.run()
    lines = [line for lines in fused.shared.l2._sets for line in lines]
    assert {line.owner for line in lines} == {0, 1, 2}
    assert all(line.owner == line.block // CORE_BASE_STRIDE
               for line in lines)


@pytest.mark.parametrize("overrides", [dict(mshr_entries=1),
                                       dict(l1_size=1024), DIRECT_MAPPED],
                         ids=["mshr1", "tiny-l1", "direct-mapped"])
def test_one_core_corun_frame_matches_execute(overrides):
    """The 1-core degenerate contract, with the frame counting into
    slice 0 of the shared levels."""
    config = MachineConfig.scaled(**overrides)
    solo = execute(RunSpec.create("ammp", "srp", config=config,
                                  limit_refs=CORUN_REFS))
    corun = execute_corun(CoRunSpec.create(["ammp"], "srp", config=config,
                                           limit_refs=CORUN_REFS),
                          solo_baseline=False)
    assert as_json(corun.cores[0]) == as_json(solo)
