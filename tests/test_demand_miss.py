"""The one-frame demand miss against the decomposed chain.

A private single-core hierarchy handles an L1 miss in one closure
(``Hierarchy.demand_miss``): the L2 probe, the engine hooks, the MSHR
file, the DRAM transfer and both fills run inline.  Everything else
keeps ``Hierarchy.access_after_l1_miss``, the decomposed chain, which
``reference=True`` runs and which is the oracle here.

Each case below drives one branch of the frame hard, through
``MachineConfig.scaled`` overrides, checks the fast result against the
reference result byte for byte, and checks from the fast result's own
counters that the branch ran.
"""

import json

import pytest

from repro.mem.space import AddressSpace
from repro.metrics.sink import TraceSink
from repro.sim.config import MachineConfig
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.multicore_fused import FusedMultiCoreSimulator
from repro.sim.runner import SCHEMES, execute
from repro.sim.simulator import Simulator
from repro.sim.spec import CoRunSpec, RunSpec
from repro.workloads import workload_names

from tests.test_prefetch_work import prepare

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


def test_held_candidate_cleared_by_demand_fill():
    """A demand fill of the blocked-issue cache's held block disarms it.

    Wraps the frame to count the misses that found the cache armed on
    their own block and left it disarmed; the run must still equal the
    reference run byte for byte.
    """
    spec = RunSpec.create("ammp", "srp", limit_refs=3000)
    sim, trace = prepare(spec)
    hierarchy = sim.hierarchy
    controller = hierarchy.controller
    frame = hierarchy.demand_miss
    cleared = [0]

    def counting(block, addr, now, is_store, ref_id, hint):
        armed = controller._blocked_until >= 0 \
            and controller._held_block == block
        ready = frame(block, addr, now, is_store, ref_id, hint)
        if armed and controller._blocked_until == -1.0:
            cleared[0] += 1
        return ready

    hierarchy.demand_miss = counting
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
    spec = CoRunSpec.create(("mcf", "swim"), "srp", limit_refs=100)
    for corun in (MultiCoreSimulator(spec), FusedMultiCoreSimulator(spec)):
        assert all(decomposed(cell.hierarchy) for cell in corun.cells)
