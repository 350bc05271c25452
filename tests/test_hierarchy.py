"""Integration tests for the full memory hierarchy."""

import pytest

from repro.mem.hierarchy import Hierarchy
from repro.mem.space import AddressSpace
from repro.prefetch.srp import SRPPrefetcher
from repro.sim.config import MachineConfig


def make(prefetcher=None, mode="real", **cfg):
    config = MachineConfig.tiny(**cfg)
    space = AddressSpace()
    return Hierarchy(config, space, prefetcher, mode), space, config


class TestBasicPath:
    def test_l1_hit_is_fast(self):
        hier, space, config = make()
        addr = space.malloc(64)
        hier.access(addr, now=0)
        t2 = hier.access(addr, now=1000)
        assert t2 == 1000 + config.l1_latency

    def test_l2_hit_after_l1_eviction(self):
        hier, space, config = make()
        base = space.malloc(1 << 16)
        hier.access(base, now=0)
        # Thrash the L1 set (1KB, 2-way, 8 sets -> same-set stride 512B)
        # without evicting the L2 copy.
        hier.access(base + 512, now=1000)
        hier.access(base + 1024, now=2000)
        t = hier.access(base, now=10_000)
        assert t == 10_000 + config.l1_latency + config.l2_latency
        assert hier.dram.stats.demand_blocks == 3

    def test_l2_miss_goes_to_dram(self):
        hier, space, config = make()
        addr = space.malloc(64)
        t = hier.access(addr, now=0)
        assert t > config.l1_latency + config.l2_latency
        assert hier.dram.stats.demand_blocks == 1

    def test_store_writeback_traffic(self):
        hier, space, config = make()
        base = space.malloc(1 << 16, align=4096)
        # Dirty a block, then evict it from L2 with same-set fills
        # (L2 4KB 4-way 16 sets -> same-set stride 1KB).
        hier.access(base, now=0, is_store=True)
        for k in range(1, 8):
            hier.access(base + k * 4096, now=k * 10_000)
        assert hier.dram.stats.writeback_blocks >= 1

    def test_mshr_merge_on_same_block(self):
        hier, space, config = make()
        addr = space.malloc(64)
        t1 = hier.access(addr, now=0)
        # Second access to the same block before the fill completes: it
        # hits the L2 (the fill is installed optimistically) or merges.
        t2 = hier.access(addr + 8, now=1)
        assert t2 <= t1 + config.l2_latency + config.l1_latency


class TestPerfectModes:
    def test_perfect_l1_constant_latency(self):
        hier, space, config = make(mode="perfect_l1")
        for k in range(50):
            t = hier.access(0x100000 + k * 4096, now=k * 10)
            assert t == k * 10 + config.l1_latency
        assert hier.dram.stats.demand_blocks == 0

    def test_perfect_l2_uses_real_l1(self):
        hier, space, config = make(mode="perfect_l2")
        addr = space.malloc(64)
        t1 = hier.access(addr, now=0)
        assert t1 == config.l1_latency + config.l2_latency
        t2 = hier.access(addr, now=100)
        assert t2 == 100 + config.l1_latency
        assert hier.dram.stats.demand_blocks == 0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            make(mode="bogus")


class TestPrefetchIntegration:
    def test_prefetches_tracked_in_traffic(self):
        hier, space, config = make(SRPPrefetcher())
        base = space.malloc(1 << 16, align=config.region_size)
        hier.access(base, now=0)
        hier.controller.drain(1_000_000)
        assert hier.traffic_bytes() > 2 * config.block_size

    def test_demand_priority_blocks_prefetch_during_misses(self):
        """While a demand miss is outstanding, no prefetch issues."""
        hier, space, config = make(SRPPrefetcher())
        base = space.malloc(1 << 20, align=config.region_size)
        # Back-to-back misses with tiny gaps: the demand-busy watermark
        # covers the whole stretch, so prefetch issue is locked out.
        now = 0.0
        for k in range(8):
            ready = hier.access(base + k * config.region_size, now=now)
            now = ready + 1  # re-miss immediately after data returns
        # Only the candidates issued into the 1-cycle gaps can exist.
        assert hier.dram.stats.prefetch_blocks <= 8

    def test_prefetch_issues_into_idle_gaps(self):
        hier, space, config = make(SRPPrefetcher())
        base = space.malloc(1 << 20, align=config.region_size)
        ready = hier.access(base, now=0)
        # A long idle stretch after the miss: the engine streams the rest
        # of the region.
        hier.access(base, now=ready + 100_000)
        assert hier.dram.stats.prefetch_blocks > 4

    def test_prefetch_accuracy_bounds(self):
        hier, space, config = make(SRPPrefetcher())
        base = space.malloc(1 << 18, align=config.region_size)
        now = 0.0
        for k in range(256):
            now = hier.access(base + k * 8, now=now) + 40
        assert 0.0 <= hier.prefetch_accuracy() <= 1.0

    def test_late_prefetch_waits_partial_latency(self):
        hier, space, config = make(SRPPrefetcher())
        base = space.malloc(1 << 16, align=config.region_size)
        ready = hier.access(base, now=0)
        # Touch the next block shortly after the miss returns: the
        # prefetch may be in flight -> completion between L2-hit latency
        # and a full miss.
        t = hier.access(base + config.block_size, now=ready + 5)
        full_miss = ready + 5 + 300
        assert t <= full_miss


class TestStatsConsistency:
    def test_traffic_equals_block_sum(self):
        hier, space, config = make(SRPPrefetcher())
        base = space.malloc(1 << 18)
        now = 0.0
        for k in range(300):
            now = hier.access(base + k * 32, now=now, is_store=(k % 3 == 0))
            now += 20
        hier.finish(now)
        stats = hier.dram.stats
        total = (stats.demand_blocks + stats.prefetch_blocks
                 + stats.writeback_blocks) * config.block_size
        assert hier.traffic_bytes() == total

    def test_monotonic_completion_times(self):
        hier, space, config = make(SRPPrefetcher())
        base = space.malloc(1 << 18)
        now = 0.0
        for k in range(200):
            ready = hier.access(base + k * 64, now=now)
            assert ready >= now
            now = ready + 1


class TestPruneReady:
    """The ready-time map drops the landed entries in place."""

    def test_prune_drops_only_landed_entries(self):
        hier, _, _ = make()
        hier._prefetch_ready.update({0x40: 100.0, 0x80: 200.0, 0xC0: 300.0})
        hier._prune_ready(200.0)
        assert hier._prefetch_ready == {0xC0: 300.0}

    def test_reprefetch_keeps_the_newer_ready_time(self):
        hier, _, _ = make()
        hier._prefetch_ready[0x40] = 100.0
        # A re-prefetch of the same block superseded the first fill.
        hier._prefetch_ready[0x40] = 500.0
        hier._prune_ready(200.0)
        assert hier._prefetch_ready == {0x40: 500.0}

    def test_prune_after_demand_touch_is_safe(self):
        hier, _, _ = make()
        hier._prefetch_ready.update({0x40: 100.0, 0x80: 400.0})
        del hier._prefetch_ready[0x40]  # demand touch popped it
        hier._prune_ready(300.0)
        assert hier._prefetch_ready == {0x80: 400.0}

    def test_late_prefetch_hit_survives_prune(self):
        """Regression: pruning must not drop in-flight ready times, or a
        late prefetch hit would stop waiting for its data."""
        hier, space, config = make()
        base = space.malloc(1 << 12, align=4096)
        block = base & hier._block_mask
        hier.l2.fill(block, prefetched=True)
        hier._prefetch_ready[block] = 5000.0
        hier._prune_ready(100.0)
        assert hier._prefetch_ready == {block: 5000.0}
        t = hier.access(block, now=200.0)
        assert hier.stats.late_prefetch_hits == 1
        assert t == 5000.0
        assert hier._prefetch_ready == {}

    def test_prune_matches_the_heap_prune(self):
        """Seeded: the in-place prune leaves the map exactly as a
        (ready, block) min-heap with lazy deletion, pushed per fill and
        popped to the prune time, leaves it, surviving order included."""
        import heapq
        import random

        rng = random.Random(2003)
        hier, _, _ = make()
        ready_map = hier._prefetch_ready
        shadow = {}
        heap = []
        now = 0.0
        for _ in range(20_000):
            op = rng.random()
            block = rng.randrange(64) * 64
            if op < 0.6:
                # A prefetch fill (or re-fill) in flight until `ready`;
                # ready times repeat so ties at the prune time occur.
                ready = now + rng.randrange(0, 400, 25)
                ready_map[block] = shadow[block] = ready
                heapq.heappush(heap, (ready, block))
            elif op < 0.8:
                # A demand touch or demand fill pops the block's entry.
                ready_map.pop(block, None)
                shadow.pop(block, None)
            else:
                prune_at = now + rng.randrange(0, 300, 25)
                hier._prune_ready(prune_at)
                while heap and heap[0][0] <= prune_at:
                    ready, block = heapq.heappop(heap)
                    if shadow.get(block) == ready:
                        del shadow[block]
                assert list(ready_map.items()) == list(shadow.items())
            now += rng.randrange(0, 60)
        assert list(ready_map.items()) == list(shadow.items())
