"""Unit tests for the memory controller / access prioritizer."""

import json

import pytest

from repro.mem.controller import MemoryController, PrefetchRequest
from repro.mem.dram import DRAMConfig, DRAMSystem
from repro.mem.hierarchy import Hierarchy
from repro.mem.mshr import MSHRFile
from repro.mem.space import AddressSpace
from repro.metrics.sink import TraceSink
from repro.prefetch.grp import GRPPrefetcher
from repro.prefetch.srp import SRPPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.sim import runner
from repro.sim.config import MachineConfig
from repro.sim.runner import SCHEMES, execute, resolve_backend
from repro.sim.simulator import Simulator
from repro.sim.spec import RunSpec
from repro.workloads import get_workload


class ListPrefetcher:
    """A minimal prefetch source for driving the controller directly."""

    def __init__(self, blocks, queued_at=0):
        self.pending = [PrefetchRequest(b, queued_at) for b in blocks]
        self.dropped = []

    def pop_candidate(self, now, dram):
        return self.pending.pop(0) if self.pending else None

    def push_back(self, request):
        self.pending.insert(0, request)

    def on_candidate_dropped(self, request):
        self.dropped.append(request.block)


def make(blocks, queued_at=0, resident=None, mshrs=None):
    dram = DRAMSystem(DRAMConfig())
    prefetcher = ListPrefetcher(blocks, queued_at)
    controller = MemoryController(dram, prefetcher)
    fills = []
    controller.fill_prefetch = lambda req, ready: fills.append(
        (req.block, ready))
    controller.is_resident = resident
    controller.mshrs = mshrs
    return controller, prefetcher, fills


class TestIdleIssue:
    def test_issues_into_idle_time(self):
        controller, _, fills = make([0x1000, 0x1040], queued_at=0)
        controller.issue_prefetches(now=100_000)
        assert [b for b, _ in fills] == [0x1000, 0x1040]

    def test_nothing_issues_at_queue_time(self):
        """A candidate queued at `now` has no idle time before `now`."""
        controller, prefetcher, fills = make([0x1000], queued_at=50)
        controller.issue_prefetches(now=50)
        assert fills == []
        assert len(prefetcher.pending) == 1  # pushed back

    def test_budget_bounds_work_per_call(self):
        blocks = [0x1000 + 64 * k for k in range(600)]
        controller, _, fills = make(blocks)
        controller.issue_prefetches(now=10_000_000, budget=100)
        assert len(fills) == 100


class TestDemandPriority:
    def test_demand_busy_blocks_prefetch(self):
        controller, prefetcher, fills = make([0x1000], queued_at=0)
        ready = controller.demand_fetch(0x9000, now=10)
        assert controller.demand_busy_until == ready
        # `now` inside the demand's flight window: nothing may issue.
        controller.issue_prefetches(now=ready - 1)
        assert fills == []

    def test_prefetch_issues_after_demand_returns(self):
        controller, prefetcher, fills = make([0x1000], queued_at=0)
        ready = controller.demand_fetch(0x9000, now=10)
        controller.issue_prefetches(now=ready + 10_000)
        assert len(fills) == 1
        # The prefetch issued no earlier than the demand's completion.
        assert fills[0][1] > ready

    def test_overlapping_demands_extend_watermark(self):
        controller, _, _ = make([])
        r1 = controller.demand_fetch(0x9000, now=0)
        r2 = controller.demand_fetch(0xA000, now=5)
        assert controller.demand_busy_until == max(r1, r2)


class TestResidencyDrop:
    def test_resident_candidate_dropped_and_reported(self):
        controller, prefetcher, fills = make(
            [0x1000, 0x2000], resident=lambda b: b == 0x1000)
        controller.issue_prefetches(now=1_000_000)
        assert prefetcher.dropped == [0x1000]
        assert [b for b, _ in fills] == [0x2000]
        assert controller.prefetches_dropped_resident == 1


class TestMSHRSharing:
    def test_prefetch_occupies_mshr(self):
        mshrs = MSHRFile(2)
        controller, _, fills = make([0x1000, 0x1040, 0x1080], mshrs=mshrs)
        controller.issue_prefetches(now=5)
        # Only as many prefetches as MSHRs can be in flight at once at
        # any instant; the third issues after one completes, which is
        # past `now`=5 -> held.
        assert len(fills) == 2
        assert mshrs.outstanding(5) == 2

    def test_blocked_counter_increments(self):
        mshrs = MSHRFile(1)
        controller, _, _ = make([0x1000, 0x1040], mshrs=mshrs)
        controller.issue_prefetches(now=10)
        assert controller.prefetches_blocked_mshr >= 1


class TestAccounting:
    def test_traffic_kinds(self):
        controller, _, _ = make([0x1000])
        controller.demand_fetch(0x9000, now=0)
        controller.writeback(0xA000, now=50)
        controller.issue_prefetches(now=1_000_000)
        stats = controller.dram.stats
        assert stats.demand_blocks == 1
        assert stats.writeback_blocks == 1
        assert stats.prefetch_blocks == 1
        assert controller.prefetches_issued == 1


class CountingQueue:
    """A head-stable region-queue stand-in that counts pops."""

    def __init__(self, blocks, queued_at=0):
        self.pending = [PrefetchRequest(b, queued_at) for b in blocks]
        self._held = None
        self.pops = 0

    def has_candidates(self):
        return self._held is not None or bool(self.pending)

    def pop_candidate(self, now, dram):
        self.pops += 1
        if self._held is not None:
            request, self._held = self._held, None
            return request
        return self.pending.pop(0) if self.pending else None

    def push_back(self, request):
        self._held = request


class QueuedPrefetcher:
    """Delegates issue to a region queue, like SRP/GRP engines."""

    def __init__(self, queue):
        self.queue = queue
        self.has_candidates = queue.has_candidates
        self.dropped = []

    def on_candidate_dropped(self, request):
        self.dropped.append(request.block)


class TestEarlyExit:
    def test_no_prefetcher_is_a_noop(self):
        controller = MemoryController(DRAMSystem(DRAMConfig()), None)
        controller.issue_prefetches(now=1_000)  # must not raise

    def test_empty_queue_skips_candidate_pop(self):
        queue = CountingQueue([])
        controller = MemoryController(
            DRAMSystem(DRAMConfig()), QueuedPrefetcher(queue))
        controller.issue_prefetches(now=1_000)
        assert queue.pops == 0


class TestBlockedIssueCache:
    def make_queued(self, blocks, queued_at=0):
        queue = CountingQueue(blocks, queued_at)
        controller = MemoryController(
            DRAMSystem(DRAMConfig()), QueuedPrefetcher(queue))
        fills = []
        controller.fill_prefetch = lambda req, ready: fills.append(
            (req.block, ready))
        return controller, queue, fills

    def test_held_candidate_skips_reprobe_until_bound(self):
        controller, queue, fills = self.make_queued([0x1000], queued_at=50)
        controller.issue_prefetches(now=50)  # no idle time yet: held
        assert fills == []
        assert queue.pops == 1
        assert controller._blocked_until == 50
        controller.issue_prefetches(now=50)  # gated: no pop
        assert queue.pops == 1
        # Bound expired: the probe issues the held candidate, then pops
        # once more and finds the queue empty.
        controller.issue_prefetches(now=51)
        assert queue.pops == 3
        assert [b for b, _ in fills] == [0x1000]
        assert controller._blocked_until == -1.0

    def test_reference_mode_probes_every_call(self):
        controller, queue, fills = self.make_queued([0x1000], queued_at=50)
        controller._cache_blocked = False
        controller.issue_prefetches(now=50)
        controller.issue_prefetches(now=50)
        assert queue.pops == 2
        assert fills == []

    def test_gate_not_armed_for_queueless_engines(self):
        controller, prefetcher, fills = make([0x1000], queued_at=50)
        controller.issue_prefetches(now=50)
        assert fills == []
        assert controller._blocked_until == -1.0


def build(workload_name, scheme, reference, config):
    """A fresh simulator for ``workload_name`` and its trace interpreter."""
    space, compiled, _, build_interp = runner.prepare(
        get_workload(workload_name), SCHEMES[scheme], config, "default",
        1.0, 12345, None, cacheable=False)
    sim = Simulator(config, space, SCHEMES[scheme].factory(compiled),
                    reference=reference)
    return sim, build_interp()


class TestDrainHooks:
    """The one-frame drain builds a PrefetchRequest only for a reader; the
    objects it builds for engine hooks must carry what the decomposed
    loop's popped requests carry, in the same order."""

    @pytest.mark.parametrize("workload,scheme,engine", [
        ("mcf", "grp", GRPPrefetcher), ("ammp", "srp", SRPPrefetcher)])
    def test_hook_requests_match_reference(self, workload, scheme, engine,
                                           monkeypatch):
        # mcf's pointer hints make GRP fills of depth > 0; ammp's SRP
        # regions overlap demand-filled blocks, so its candidates are
        # also dropped as resident.
        seen = []
        drop, fill = engine.on_candidate_dropped, engine.on_prefetch_fill

        def dropped(self, request):
            seen.append(("drop", request.block, request.queued_at,
                         request.depth, request.meta.base))
            drop(self, request)

        def filled(self, request, ready):
            seen.append(("fill", request.block, request.queued_at,
                         request.depth, request.meta.base, ready))
            fill(self, request, ready)

        monkeypatch.setattr(engine, "on_candidate_dropped", dropped)
        monkeypatch.setattr(engine, "on_prefetch_fill", filled)
        spec = RunSpec.create(workload, scheme, limit_refs=1500)
        fast = execute(spec).to_dict()
        fast_seen, seen[:] = list(seen), []
        slow = execute(spec, reference=True).to_dict()
        kinds = {event[0] for event in fast_seen}
        assert kinds == ({"drop", "fill"} if workload == "mcf"
                         else {"drop"})
        # The drain calls the fill hook only for depth > 0, the hook's
        # contract; the decomposed loop calls it for every fill.
        assert fast_seen == [event for event in seen
                             if event[0] == "drop" or event[3] > 0]
        assert json.dumps(fast, sort_keys=True) \
            == json.dumps(slow, sort_keys=True)

    @pytest.mark.parametrize("config", ["scaled", "tiny"])
    @pytest.mark.parametrize("workload", ["ammp", "mcf"])
    def test_final_state_matches_reference(self, workload, config):
        """State the run's stats leave out must match the oracle's too:
        the L2's sets and shadow-tag FIFO in order, the MSHR file, the
        in-flight prefetch map, the region queue, and the controller's
        counters.  The blocked-MSHR count checks its identity rule: the
        reference run re-probes a held candidate on every access, the
        drain only once its cached bound expires, and each counts the
        candidate once.  The tiny L2 keeps its shadow set overflowing."""
        states = []
        for reference in (False, True):
            sim, interp = build(workload, "srp", reference,
                                getattr(MachineConfig, config)())
            if reference:
                sim.run(interp.run(limit=3000))
            else:
                sim.run_compiled(interp.run_columns(3000),
                                 backend=resolve_backend("auto"))
            hier = sim.hierarchy
            controller = hier.controller
            queue = hier.prefetcher.queue
            states.append({
                "sets": [[(line.block, line.dirty, line.prefetched,
                           line.referenced, line.owner) for line in lines]
                         for lines in hier.l2._sets],
                "shadow": list(hier.l2._shadow.items()),
                "mshr": hier.l2_mshrs._inflight,
                "prefetch_ready": hier._prefetch_ready,
                "queue": [(e.base, e.bitvec, e.index, e.queued_at)
                          for e in queue._entries],
                "counters": (controller.prefetches_issued,
                             controller.prefetches_dropped_resident,
                             controller.prefetches_blocked_mshr),
            })
        assert states[0]["counters"][2] > 0
        assert len(states[0]["shadow"]) > 0
        assert states[0] == states[1]

    def test_drain_is_bound_only_off_the_oracle_paths(self, tmp_path):
        space = AddressSpace()
        config = MachineConfig.scaled()
        fast = Hierarchy(config, space, SRPPrefetcher())
        assert fast.controller._drain is not None
        assert Hierarchy(config, space, SRPPrefetcher(),
                         reference=True).controller._drain is None
        sink = TraceSink(str(tmp_path / "trace.jsonl"))
        try:
            assert Hierarchy(config, space, SRPPrefetcher(),
                             trace_sink=sink).controller._drain is None
        finally:
            sink.close()
        assert Hierarchy(config, space, StridePrefetcher()) \
            .controller._drain is None
