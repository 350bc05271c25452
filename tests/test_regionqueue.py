"""Unit tests for the SRP/GRP prefetch queue."""

import pytest

from repro.prefetch.regionqueue import RegionQueue


def make_queue(capacity=4, region=512, block=64, resident=None,
               policy="lifo"):
    return RegionQueue(capacity, region, block,
                       is_resident=resident, policy=policy)


class TestAllocation:
    def test_first_miss_excludes_miss_block(self):
        queue = make_queue()
        entry = queue.allocate_region(0x1040, now=0)
        assert entry.base == 0x1000
        assert entry.candidate_count() == 7  # 8 blocks minus the miss
        assert not (entry.bitvec >> 1) & 1  # bit of the miss block clear

    def test_index_points_after_miss(self):
        queue = make_queue()
        entry = queue.allocate_region(0x1040, now=0)
        assert entry.index == 2

    def test_resident_blocks_excluded(self):
        resident = {0x1000, 0x1080}
        queue = make_queue(resident=lambda b: b in resident)
        entry = queue.allocate_region(0x1040, now=0)
        assert entry.candidate_count() == 5

    def test_repeat_miss_clears_bit_and_moves_to_head(self):
        queue = make_queue()
        queue.allocate_region(0x1040, now=0)
        queue.allocate_region(0x2000, now=1)
        entry = queue.allocate_region(0x1080, now=2)
        assert entry.base == 0x1000
        assert not (entry.bitvec >> 2) & 1
        assert queue._entries[0] is entry
        assert len(queue) == 2  # no duplicate entry

    def test_capacity_drops_oldest(self):
        queue = make_queue(capacity=2)
        queue.allocate_region(0x1000, now=0)
        queue.allocate_region(0x2000, now=1)
        queue.allocate_region(0x3000, now=2)
        bases = [e.base for e in queue._entries]
        assert 0x1000 not in bases
        assert queue.regions_dropped == 1


class TestIssueOrder:
    def test_lifo_issues_newest_region_first(self):
        queue = make_queue()
        queue.allocate_region(0x1000, now=0)
        queue.allocate_region(0x2000, now=1)
        request = queue.pop_candidate(now=10)
        assert 0x2000 <= request.block < 0x2200

    def test_fifo_issues_oldest_region_first(self):
        queue = make_queue(policy="fifo")
        queue.allocate_region(0x1000, now=0)
        queue.allocate_region(0x2000, now=1)
        request = queue.pop_candidate(now=10)
        assert 0x1000 <= request.block < 0x1200

    def test_candidates_start_after_miss_and_wrap(self):
        queue = make_queue()
        queue.allocate_region(0x1080, now=0)  # miss on block 2 of 8
        blocks = []
        while True:
            req = queue.pop_candidate(now=10)
            if req is None:
                break
            blocks.append(req.block)
        expected = [0x1000 + 64 * i for i in (3, 4, 5, 6, 7, 0, 1)]
        assert blocks == expected

    def test_exhausted_entry_deallocates(self):
        queue = make_queue()
        queue.allocate_region(0x1000, now=0)
        while queue.pop_candidate(now=10) is not None:
            pass
        assert len(queue) == 0

    def test_push_back_returns_same_candidate(self):
        queue = make_queue()
        queue.allocate_region(0x1000, now=0)
        request = queue.pop_candidate(now=10)
        queue.push_back(request)
        again = queue.pop_candidate(now=10)
        assert again is request


class TestOpenPagePreference:
    class FakeDram:
        def __init__(self, open_blocks):
            self.open_blocks = open_blocks

        def row_is_open(self, block):
            return block in self.open_blocks

    def test_prefers_open_page_candidate(self):
        queue = make_queue()
        queue.allocate_region(0x1000, now=0)  # miss block 0, index 1
        dram = self.FakeDram({0x1140})  # block 5 has an open page
        request = queue.pop_candidate(now=10, dram=dram)
        assert request.block == 0x1140

    def test_falls_back_to_scan_order(self):
        queue = make_queue()
        queue.allocate_region(0x1000, now=0)
        dram = self.FakeDram(set())
        request = queue.pop_candidate(now=10, dram=dram)
        assert request.block == 0x1040


class TestExplicitBlocks:
    def test_allocate_blocks_sets_named_bits(self):
        queue = make_queue()
        entries = queue.allocate_blocks([0x1080, 0x10C0], now=0, depth=3)
        assert len(entries) == 1
        assert entries[0].candidate_count() == 2
        assert entries[0].depth == 3

    def test_blocks_straddling_regions_split_per_region(self):
        # Regression: cross-region blocks were silently dropped — only the
        # first block's aligned region got an entry.
        queue = make_queue()
        entries = queue.allocate_blocks([0x1080, 0x5000], now=0)
        assert len(entries) == 2
        assert sorted(e.base for e in entries) == [0x1000, 0x5000]
        assert all(e.candidate_count() == 1 for e in entries)
        assert queue.region_splits == 1

    def test_split_issues_every_named_block(self):
        queue = make_queue()
        queue.allocate_blocks([0x11C0, 0x1200], now=0)  # boundary straddle
        issued = set()
        while True:
            req = queue.pop_candidate(now=10)
            if req is None:
                break
            issued.add(req.block)
        assert issued == {0x11C0, 0x1200}

    def test_single_region_does_not_count_a_split(self):
        queue = make_queue()
        queue.allocate_blocks([0x1080, 0x10C0], now=0)
        assert queue.region_splits == 0

    def test_all_resident_returns_empty_list(self):
        queue = make_queue(resident=lambda b: True)
        assert queue.allocate_blocks([0x1080], now=0) == []

    def test_empty_list_returns_empty_list(self):
        queue = make_queue()
        assert queue.allocate_blocks([], now=0) == []

    def test_depth_rides_into_requests(self):
        queue = make_queue()
        queue.allocate_blocks([0x1080], now=0, depth=5)
        request = queue.pop_candidate(now=10)
        assert request.depth == 5


class TestVariableRegionSize:
    def test_small_region_allocates_fewer_blocks(self):
        queue = make_queue(region=512)
        entry = queue.allocate_region(0x1040, now=0, region_size=128)
        assert entry.nblocks == 2
        assert entry.base == 0x1000
        assert entry.candidate_count() == 1

    def test_repeat_miss_matches_small_entry_by_containment(self):
        # Regression: the repeat-miss path recomputed the region base with
        # the *caller's* region size, so a default-size repeat miss could
        # miss (or alias) an entry allocated with a different size and
        # clear the wrong bitvector bit.
        queue = make_queue(region=512)
        entry = queue.allocate_region(0x1040, now=0, region_size=128)
        same = queue.allocate_region(0x1000, now=1)  # default (512) size
        assert same is entry
        assert entry.candidate_count() == 0  # bit 0 cleared, not bit 2
        assert len(queue) == 1

    def test_repeat_index_derived_from_entry_geometry(self):
        queue = make_queue(region=512)
        entry = queue.allocate_region(0x1040, now=0, region_size=128)
        queue.allocate_region(0x1000, now=1)
        assert entry.index == 1  # (miss 0 + 1) % entry.nblocks, not % 8

    def test_miss_outside_small_entry_span_allocates_fresh(self):
        queue = make_queue(region=512)
        small = queue.allocate_region(0x1040, now=0, region_size=128)
        other = queue.allocate_region(0x1100, now=1)
        assert other is not small
        assert other.base == 0x1000
        assert other.nblocks == 8
        assert small.candidate_count() == 1  # untouched

    def test_repeat_miss_into_large_entry_with_small_size(self):
        queue = make_queue(region=512)
        entry = queue.allocate_region(0x1000, now=0)
        same = queue.allocate_region(0x1080, now=1, region_size=128)
        assert same is entry
        assert not (entry.bitvec >> 2) & 1

    def test_covering_search_matches_a_linear_scan(self):
        """Seeded: the keyed search finds the first entry whose span holds
        the miss, as a scan over the queue in order does, on queues of
        overlapping variable-size regions and duplicate block entries."""
        import random

        rng = random.Random(2003)
        for _ in range(300):
            queue = make_queue(capacity=12, region=1024)
            for _ in range(rng.randint(0, 12)):
                now = rng.random()
                miss = rng.randrange(0x100) * 64
                if rng.random() < 0.3:
                    queue.allocate_blocks([miss, miss + 64], now)
                else:
                    queue.allocate_region(
                        miss, now, region_size=rng.choice([128, 256, 1024]))
            for _ in range(20):
                miss = rng.randrange(0x100) * 64
                scan = next(
                    (pos for pos, e in enumerate(queue._entries)
                     if e.base <= miss < e.base + e.nblocks * 64), -1)
                assert queue._find_covering(miss) == scan
