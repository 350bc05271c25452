"""The arena PR's test matrix: gaze/chase engines + the arena itself.

Covers, in order:

* registry integration — the new schemes and their adaptive variants are
  registered with engine/summary metadata, and the 1.8.x version salt
  separates their cache entries from pre-arena builds;
* the shared :class:`~repro.prefetch.pending.PendingQueue` contract the
  controller's blocked-issue cache relies on (head-stable pop after
  push_back, overflow, flush);
* Gaze footprint learn/replay and chase dependence-training /
  chained-descent mechanisms against a real tiny hierarchy;
* end-to-end behavior on the pointer workloads (mcf/ammp) and the
  spatial ones (swim);
* the differential byte-identity checks: a pinned ``vectorized`` spec
  (an alias of the fused loop) against the reference slow path across
  all 18 workloads for both engines, the adaptive variants on a
  pointer-heavy subset, and the stepped-vs-fused co-run backends;
* :func:`repro.experiments.arena.pareto_front` semantics and the arena
  golden-CSV round trip through the result cache, the sweep supervisor,
  and the HTTP serving layer.
"""

import json
import os

import pytest

from repro.experiments.arena import (
    ARENA_COLUMNS,
    arena_rows,
    pareto_front,
    read_arena_csv,
    write_arena_csv,
)
from repro.experiments.common import ExperimentContext
from repro.mem.controller import PrefetchRequest
from repro.mem.hierarchy import Hierarchy
from repro.mem.space import AddressSpace
from repro.prefetch.chase import ChasePrefetcher
from repro.prefetch.gaze import GazePrefetcher
from repro.prefetch.pending import PendingQueue
from repro.sim.cache import ResultCache, version_salt
from repro.sim.config import MachineConfig
from repro.sim.multicore import execute_corun
from repro.sim.runner import SCHEMES, run_workload
from repro.sim.spec import CoRunSpec, RunSpec
from repro.workloads import workload_names

LIMIT = 1200
NEW_SCHEMES = ("gaze", "chase", "gaze-adaptive", "chase-adaptive")


def result_json(workload, scheme, backend="fused", limit=LIMIT,
                reference=False):
    stats = run_workload(workload, scheme, limit_refs=limit,
                         backend=backend, reference=reference)
    return json.dumps(stats.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Registry and cache-salt integration
# ----------------------------------------------------------------------

class TestRegistry:
    def test_new_schemes_registered(self):
        for name in NEW_SCHEMES:
            assert name in SCHEMES

    def test_every_scheme_carries_docs_metadata(self):
        for name, spec in SCHEMES.items():
            assert spec.engine is not None, name
            assert spec.summary, name

    def test_new_schemes_are_unhinted(self):
        for name in NEW_SCHEMES:
            assert not SCHEMES[name].hinted

    def test_version_salt_isolates_prearena_entries(self):
        assert version_salt() == "repro-1.8.2"

    def test_new_scheme_digests_never_alias(self):
        digests = {RunSpec.create("mcf", s, limit_refs=LIMIT).digest()
                   for s in NEW_SCHEMES}
        assert len(digests) == len(NEW_SCHEMES)

    def test_cache_round_trips_gaze_result(self, tmp_path):
        spec = RunSpec.create("swim", "gaze", limit_refs=LIMIT)
        from repro.sim.runner import execute
        stats = execute(spec)
        cache = ResultCache(str(tmp_path))
        cache.put(spec, stats)
        cached = cache.get(spec)
        assert cached is not None
        assert cached.to_dict() == stats.to_dict()


# ----------------------------------------------------------------------
# PendingQueue contract
# ----------------------------------------------------------------------

def make_queue(capacity=4):
    return PendingQueue(capacity, region_size=512, block_size=64)


class TestPendingQueue:
    def test_fifo_order(self):
        q = make_queue()
        for block in (0, 64, 128):
            q.push(PrefetchRequest(block, 0.0))
        assert [q.pop_candidate(0.0, None).block for _ in range(3)] \
            == [0, 64, 128]

    def test_push_back_is_head_stable(self):
        """The controller's blocked-issue cache needs the held candidate
        returned verbatim on the next pop."""
        q = make_queue()
        q.push(PrefetchRequest(0, 0.0))
        q.push(PrefetchRequest(64, 0.0))
        head = q.pop_candidate(0.0, None)
        q.push_back(head)
        assert len(q) == 2
        assert q.pop_candidate(1.0, None) is head

    def test_overflow_drops_oldest(self):
        q = make_queue(capacity=2)
        for block in (0, 64, 128):
            q.push(PrefetchRequest(block, 0.0))
        assert q.dropped_overflow == 1
        assert q.pop_candidate(0.0, None).block == 64

    def test_len_includes_held_candidate(self):
        q = make_queue()
        q.push(PrefetchRequest(0, 0.0))
        held = q.pop_candidate(0.0, None)
        assert len(q) == 0
        q.push_back(held)
        assert len(q) == 1
        assert q.has_candidates()

    def test_flush_counts_held_and_queued(self):
        q = make_queue()
        for block in (0, 64, 128):
            q.push(PrefetchRequest(block, 0.0))
        q.push_back(q.pop_candidate(0.0, None))
        assert q.flush() == 3
        assert not q.has_candidates()
        assert len(q) == 0


# ----------------------------------------------------------------------
# Gaze mechanism: footprint learn / commit / replay
# ----------------------------------------------------------------------

def make_hier(prefetcher, **cfg):
    config = MachineConfig.tiny(**cfg)
    space = AddressSpace()
    return Hierarchy(config, space, prefetcher), space, config


class TestGazeMechanism:
    def region(self, space, config):
        return space.malloc(config.region_size, align=config.region_size)

    def test_first_access_opens_generation(self):
        gaze = GazePrefetcher()
        hier, space, config = make_hier(gaze)
        base = self.region(space, config)
        hier.access(base, now=0, ref_id="pc1")
        snap = gaze.stats_snapshot()
        assert snap["generations_opened"] == 1
        assert snap["patterns_committed"] == 0

    def test_agt_eviction_commits_footprint(self):
        gaze = GazePrefetcher(agt_entries=1)
        hier, space, config = make_hier(gaze)
        a = self.region(space, config)
        b = self.region(space, config)
        # Touch three blocks of region A (footprint {0, 2, 5}), then one
        # of region B: A's generation is LRU-evicted and committed.
        for index in (0, 2, 5):
            hier.access(a + index * config.block_size, now=index,
                        ref_id="pc1")
        hier.access(b, now=10, ref_id="pc2")
        snap = gaze.stats_snapshot()
        assert snap["patterns_committed"] == 1
        assert snap["patterns_live"] == 1

    def test_replay_rebases_pattern_onto_new_trigger(self):
        gaze = GazePrefetcher(agt_entries=1)
        hier, space, config = make_hier(gaze)
        bsize = config.block_size
        a = self.region(space, config)
        b = self.region(space, config)
        c = self.region(space, config)
        for index in (0, 2, 5):
            hier.access(a + index * bsize, now=index, ref_id="pc1")
        hier.access(b, now=10, ref_id="other")  # commit A's pattern
        # Fresh region, same trigger PC: the footprint replays, rebased.
        hier.access(c, now=20, ref_id="pc1")
        snap = gaze.stats_snapshot()
        assert snap["replays"] == 1
        assert snap["replayed_blocks"] == 2  # deltas {2, 5}
        queued = []
        while gaze.has_candidates():
            queued.append(gaze.pop_candidate(30, None).block)
        assert queued == [c + 2 * bsize, c + 5 * bsize]

    def test_replay_skips_resident_blocks(self):
        gaze = GazePrefetcher(agt_entries=1)
        hier, space, config = make_hier(gaze)
        bsize = config.block_size
        a = self.region(space, config)
        b = self.region(space, config)
        c = self.region(space, config)
        d = self.region(space, config)
        for index in (0, 2):
            hier.access(a + index * bsize, now=index, ref_id="pc1")
        hier.access(b, now=10, ref_id="other")  # commit A's pattern (2,)
        hier.access(c + 2 * bsize, now=20, ref_id="warm")  # make resident
        hier.access(d, now=30, ref_id="other2")  # evict C's generation
        hier.access(c, now=40, ref_id="pc1")  # fresh trigger in region C
        # Delta 2 rebases onto the (already resident) warmed block: the
        # replay queues nothing, but still counts as a replay.
        snap = gaze.stats_snapshot()
        assert snap["replays"] == 1
        assert not gaze.has_candidates()

    def test_replay_capped_by_region_size_knob(self):
        gaze = GazePrefetcher(agt_entries=1)
        hier, space, config = make_hier(gaze)
        bsize = config.block_size
        a = self.region(space, config)
        b = self.region(space, config)
        c = self.region(space, config)
        for index in range(8):  # full footprint
            hier.access(a + index * bsize, now=index, ref_id="pc1")
        hier.access(b, now=10, ref_id="other")
        gaze.queue.region_size = 2 * bsize  # adaptive throttle shrinks it
        hier.access(c, now=20, ref_id="pc1")
        assert gaze.stats_snapshot()["replayed_blocks"] <= 1


# ----------------------------------------------------------------------
# Chase mechanism: dependence training and chained descent
# ----------------------------------------------------------------------

def build_list(space, nodes, stride=256, link_offset=0):
    """A singly linked list of ``nodes`` heap records; returns their
    addresses.  ``stride`` spreads nodes across distinct blocks."""
    addrs = [space.malloc(stride, align=stride) for _ in range(nodes)]
    for here, there in zip(addrs, addrs[1:]):
        space.store_word(here + link_offset, there)
    return addrs


class TestChaseMechanism:
    def walk(self, hier, addrs, ref_id="walk", start=0, step=10_000):
        for i, addr in enumerate(addrs):
            hier.access(addr, now=start + i * step, ref_id=ref_id)

    def test_walk_trains_self_dependence(self):
        chase = ChasePrefetcher(confident=2)
        hier, space, config = make_hier(chase)
        addrs = build_list(space, 6)
        self.walk(hier, addrs)
        snap = chase.stats_snapshot()
        assert snap["pointer_loads"] >= 5
        assert snap["dependences_trained"] >= 2
        assert snap["dependences_live"] == 1

    def test_confident_walk_starts_chasing(self):
        chase = ChasePrefetcher(confident=2)
        hier, space, config = make_hier(chase)
        addrs = build_list(space, 8)
        # The first few node misses only train (below the confidence
        # bar); once p = p->next is confident, the walk's own misses
        # start chases ahead of the program.
        self.walk(hier, addrs[:2])
        assert chase.stats_snapshot()["chases_started"] == 0
        self.walk(hier, addrs[2:6], start=10**6)
        snap = chase.stats_snapshot()
        assert snap["chases_started"] >= 1
        assert snap["nodes_prefetched"] >= 1

    def test_chase_descends_multiple_levels(self):
        chase = ChasePrefetcher(confident=2)
        hier, space, config = make_hier(chase, recursive_depth=3)
        addrs = build_list(space, 12)
        self.walk(hier, addrs[:4])
        hier.access(addrs[4], now=10**6, ref_id="walk")
        hier.controller.drain(now=10**7)  # let continuations fill + follow
        snap = chase.stats_snapshot()
        assert snap["links_followed"] >= 2
        assert snap["nodes_prefetched"] >= 3

    def test_unconfident_pc_never_chases(self):
        chase = ChasePrefetcher(confident=2)
        hier, space, config = make_hier(chase)
        addrs = build_list(space, 6)
        self.walk(hier, addrs[:2])  # one training, below the bar
        hier.access(addrs[3], now=10**6, ref_id="never-seen")
        assert chase.stats_snapshot()["chases_started"] == 0


class TestChaseWorkloads:
    """End-to-end pointer-chase behavior on the paper's pointer codes."""

    def test_mcf_chases_with_depth(self):
        stats = run_workload("mcf", "chase", limit_refs=8000)
        pf = stats.prefetcher
        assert pf["chases_started"] > 0
        assert pf["links_followed"] > 0
        assert pf["nodes_prefetched"] > pf["chases_started"]

    def test_ammp_chase_is_accurate(self):
        base = run_workload("ammp", "none", limit_refs=8000)
        stats = run_workload("ammp", "chase", limit_refs=8000)
        assert stats.prefetcher["links_followed"] > 0
        assert stats.prefetch_accuracy > 0.5
        assert stats.coverage_over(base) > 0.2

    def test_gaze_covers_spatial_swim(self):
        # 20k refs: swim's streaming loads need a few region transitions
        # per PC before the PHT holds their footprints (each PC's first
        # region trains but cannot replay), so short horizons understate
        # coverage.
        base = run_workload("swim", "none", limit_refs=20000)
        stats = run_workload("swim", "gaze", limit_refs=20000)
        assert stats.prefetcher["replays"] > 0
        assert stats.prefetch_accuracy > 0.5
        assert stats.coverage_over(base) > 0.4
        assert stats.speedup_over(base) > 1.0


# ----------------------------------------------------------------------
# Differential byte-identity matrix
# ----------------------------------------------------------------------

class TestDifferentialMatrix:
    """The ``vectorized`` alias vs the oracle, all 18 workloads."""

    @pytest.mark.parametrize("scheme", ("gaze", "chase"))
    @pytest.mark.parametrize("workload", workload_names())
    def test_vectorized_byte_identical(self, workload, scheme):
        assert result_json(workload, scheme, "vectorized") \
            == result_json(workload, scheme, reference=True)


class TestReferencePath:
    """The unoptimized slow path agrees on a pointer-heavy subset."""

    @pytest.mark.parametrize("workload", ("mcf", "ammp", "swim", "twolf"))
    @pytest.mark.parametrize("scheme", ("gaze", "chase", "gaze-adaptive",
                                        "chase-adaptive"))
    def test_reference_byte_identical(self, workload, scheme):
        assert result_json(workload, scheme, reference=True) \
            == result_json(workload, scheme, "fused")


class TestCoRunBackends:
    @pytest.mark.parametrize("scheme", ("gaze", "chase"))
    def test_stepped_vs_fused_byte_identical(self, scheme):
        results = {}
        for backend in ("stepped", "fused"):
            spec = CoRunSpec.create(["mcf", "swim"], scheme,
                                    limit_refs=800, backend=backend)
            results[backend] = execute_corun(
                spec, solo_baseline=False).to_dict()
        assert json.dumps(results["stepped"], sort_keys=True) \
            == json.dumps(results["fused"], sort_keys=True)


# ----------------------------------------------------------------------
# Pareto frontier semantics
# ----------------------------------------------------------------------

class TestParetoFront:
    def test_dominated_point_excluded(self):
        assert pareto_front({"a": (1.0, 1.0), "b": (0.5, 0.5)}) == ["a"]

    def test_tradeoff_points_coexist(self):
        points = {"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (0.4, 0.4)}
        assert pareto_front(points) == ["a", "b", "c"]

    def test_weak_domination_on_one_axis(self):
        # b matches a on x but loses on y: dominated.
        assert pareto_front({"a": (1.0, 1.0), "b": (1.0, 0.5)}) == ["a"]

    def test_coincident_points_both_survive(self):
        assert pareto_front({"a": (1.0, 1.0), "b": (1.0, 1.0)}) \
            == ["a", "b"]

    def test_none_valued_points_ignored(self):
        points = {"a": (1.0, 1.0), "broken": (None, 2.0)}
        assert pareto_front(points) == ["a"]


# ----------------------------------------------------------------------
# Arena golden-CSV round trip: cache, supervisor, serving layer
# ----------------------------------------------------------------------

ARENA_BENCHMARKS = ["mcf", "swim"]
ARENA_TEST_SCHEMES = ["none", "gaze", "chase"]
ARENA_REFS = 2000


def arena_csv_bytes(tmp_path, name, **ctx_kwargs):
    ctx = ExperimentContext(limit_refs=ARENA_REFS, **ctx_kwargs)
    rows = arena_rows(ctx, benchmarks=ARENA_BENCHMARKS,
                      schemes=ARENA_TEST_SCHEMES)
    path = os.path.join(str(tmp_path), name)
    write_arena_csv(path, rows)
    with open(path, "rb") as handle:
        return path, handle.read()


class TestArenaGoldenCSV:
    def test_cold_and_cached_runs_are_byte_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        _, cold = arena_csv_bytes(tmp_path, "cold.csv", cache=cache)
        _, warm = arena_csv_bytes(tmp_path, "warm.csv", cache=cache)
        assert cold == warm

    def test_supervised_sweep_matches_direct(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        _, direct = arena_csv_bytes(tmp_path, "direct.csv", cache=cache)
        _, supervised = arena_csv_bytes(
            tmp_path, "supervised.csv", cache=cache,
            checkpoint=str(tmp_path / "sweep.ckpt"))
        assert direct == supervised

    def test_csv_reads_back_with_schema_columns(self, tmp_path):
        path, _ = arena_csv_bytes(tmp_path, "schema.csv")
        rows = read_arena_csv(path)
        assert len(rows) == len(ARENA_BENCHMARKS) * len(ARENA_TEST_SCHEMES)
        for row in rows:
            assert tuple(row) == ARENA_COLUMNS
        # 'none' anchors both frontiers in every workload.
        for row in rows:
            if row["scheme"] == "none":
                assert row["frontier_cov_traffic"] == "1"

    def test_served_cell_matches_direct_execution(self, tmp_path):
        """An arena cell run through the HTTP serving layer returns the
        byte-identical result the arena computed directly."""
        from repro.serve import JobManager, ServeClient, Server
        from repro.sim.runner import execute
        from repro.sim.stats import result_to_json

        spec = RunSpec.create("mcf", "gaze", limit_refs=ARENA_REFS)
        direct = result_to_json(execute(spec))
        manager = JobManager(cache=ResultCache(str(tmp_path / "cache")))
        server = Server(manager, port=0)
        port = server.start()
        try:
            client = ServeClient("http://127.0.0.1:%d" % port)
            submitted = client.submit([spec])
            client.wait(submitted["job"])
            _status, body, _etag = client.result_bytes(
                submitted["digests"][0])
            assert body.decode() == direct
        finally:
            server.stop()
