"""Unit tests for the set-associative cache and its prefetch policy."""

import pytest

from repro.mem.cache import Cache


def make_cache(size=1024, assoc=4, block=64, latency=3):
    return Cache("test", size, assoc, block, latency)


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(1024, 4, 64)
        assert cache.num_sets == 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Cache("bad", 1000, 4, 64, 1)
        with pytest.raises(ValueError):
            Cache("bad", 1024, 4, 60, 1)


class TestBasicHitMiss:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access(0x1000)
        cache.fill(0x1000)
        assert cache.access(0x1000)

    def test_same_block_different_offsets_hit(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.access(0x103F)

    def test_adjacent_block_misses(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert not cache.access(0x1040)

    def test_stats_counters(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.fill(0x1000)
        cache.access(0x1000)
        assert cache.stats.demand_accesses == 2
        assert cache.stats.demand_misses == 1
        assert cache.stats.demand_hits == 1
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestLRUReplacement:
    def test_lru_victim_selected(self):
        cache = make_cache(1024, 4, 64)  # 4 sets; same-set stride = 256
        blocks = [0x0, 0x100, 0x200, 0x300, 0x400]  # all map to set 0
        for b in blocks[:4]:
            cache.fill(b)
        cache.access(blocks[0])  # make block 0 MRU
        cache.fill(blocks[4])  # evicts LRU = blocks[1]
        assert cache.contains(blocks[0])
        assert not cache.contains(blocks[1])

    def test_capacity_respected(self):
        cache = make_cache(1024, 4, 64)
        for k in range(64):
            cache.fill(k * 64)
        assert len(cache) <= 16  # 1024/64 lines total


class TestPrefetchPlacement:
    def test_prefetch_inserted_at_lru(self):
        cache = make_cache(1024, 4, 64)
        demand = [0x0, 0x100, 0x200]
        for b in demand:
            cache.fill(b)
        cache.fill(0x300, prefetched=True)  # goes to LRU position
        cache.fill(0x400)  # demand fill evicts the LRU = the prefetch
        assert not cache.contains(0x300)
        for b in demand:
            assert cache.contains(b)

    def test_referenced_prefetch_promotes_to_mru(self):
        cache = make_cache(1024, 4, 64)
        cache.fill(0x300, prefetched=True)
        cache.access(0x300)  # promote
        for b in (0x0, 0x100, 0x200, 0x400):
            cache.fill(b)
        # Three demand fills + one more: the promoted prefetch survives
        # longer than LRU insertion would allow.
        assert cache.contains(0x300) or cache.stats.useful_prefetches == 1

    def test_useful_prefetch_counted_once(self):
        cache = make_cache()
        cache.fill(0x1000, prefetched=True)
        cache.access(0x1000)
        cache.access(0x1000)
        assert cache.stats.useful_prefetches == 1

    def test_useless_evicted_prefetch_counted(self):
        cache = make_cache(1024, 4, 64)
        cache.fill(0x300, prefetched=True)
        for b in (0x0, 0x100, 0x200, 0x400):
            cache.fill(b)
        assert cache.stats.useless_evicted_prefetches == 1

    def test_redundant_prefetch_squashed(self):
        cache = make_cache()
        cache.fill(0x1000)
        cache.fill(0x1000, prefetched=True)
        assert cache.stats.prefetch_fills == 0
        assert cache.stats.prefetch_hits_squashed == 1

    def test_integer_depth_inserts_mid_stack(self):
        # Depth 2 in a 4-way set: two lines stay below the prefetch, so
        # it outlives LRU insertion by exactly two demand evictions.
        cache = Cache("test", 1024, 4, 64, 3, prefetch_insert=2)
        for b in (0x0, 0x100, 0x200):
            cache.fill(b)
        cache.fill(0x300, prefetched=True)
        cache.fill(0x400)  # evicts the true LRU (0x0), not the prefetch
        assert cache.contains(0x300)
        assert not cache.contains(0x0)
        cache.fill(0x500)  # prefetch is now the LRU...
        assert cache.contains(0x300)
        cache.fill(0x600)  # ...and the third eviction removes it
        assert not cache.contains(0x300)

    def test_depth_zero_matches_lru_alias(self):
        for insert in (0, "lru"):
            cache = Cache("test", 1024, 4, 64, 3,
                          prefetch_insert=insert)
            assert cache.prefetch_insert_depth == 0
            for b in (0x0, 0x100, 0x200):
                cache.fill(b)
            cache.fill(0x300, prefetched=True)
            cache.fill(0x400)
            assert not cache.contains(0x300)

    def test_mru_alias_maps_to_assoc_depth(self):
        cache = Cache("test", 1024, 4, 64, 3, prefetch_insert="mru")
        assert cache.prefetch_insert_depth == cache.assoc
        for b in (0x0, 0x100, 0x200):
            cache.fill(b)
        cache.fill(0x300, prefetched=True)
        cache.fill(0x400)  # MRU-inserted prefetch survives; 0x0 goes
        assert cache.contains(0x300)
        assert not cache.contains(0x0)

    def test_invalid_prefetch_insert_rejected(self):
        for bad in ("middle", -1, True, 1.5, None):
            with pytest.raises(ValueError):
                Cache("bad", 1024, 4, 64, 3, prefetch_insert=bad)

    def test_set_prefetch_insert_live_change(self):
        cache = make_cache(1024, 4, 64)
        assert cache.prefetch_insert_depth == 0
        cache.set_prefetch_insert(2)
        assert cache.prefetch_insert_depth == 2
        assert cache.prefetch_insert == 2
        cache.set_prefetch_insert("mru")
        assert cache.prefetch_insert_depth == cache.assoc
        with pytest.raises(ValueError):
            cache.set_prefetch_insert(-3)

    def test_pollution_bounded_to_one_way(self):
        """Back-to-back prefetches to one set displace at most one way."""
        cache = make_cache(1024, 4, 64)
        demand = [0x0, 0x100, 0x200]
        for b in demand:
            cache.fill(b)
            cache.access(b)
        for k in range(3, 20):
            cache.fill(k * 0x100, prefetched=True)
        # All three demand blocks survived the prefetch storm.
        for b in demand:
            assert cache.contains(b)


class TestShadowFIFO:
    """The pollution shadow set is a bounded FIFO of prefetch victims.

    One 4-way set (shadow capacity 4) with LRU prefetch insertion: once
    the set is full, each prefetch fill evicts the line it inserted last,
    so the victims are exactly the blocks filled one step earlier.
    """

    BLOCK = 64

    def fill(self, cache, k):
        cache.fill(k * self.BLOCK, prefetched=True)

    def shadowed(self, cache):
        return [block // self.BLOCK for block in cache._shadow]

    def test_oldest_victim_drops_first(self):
        cache = Cache("L2", 4 * self.BLOCK, 4, self.BLOCK, 12)
        for k in range(4):
            self.fill(cache, k)  # fills the set: no victims yet
        assert self.shadowed(cache) == []
        for k in range(4, 8):
            self.fill(cache, k)  # each evicts block k - 1 (k = 4 evicts 3)
        assert self.shadowed(cache) == [3, 4, 5, 6]
        self.fill(cache, 8)  # over capacity: the oldest victim (3) drops
        assert self.shadowed(cache) == [4, 5, 6, 7]
        assert cache.stats.prefetch_evictions == 5

    def test_mid_fifo_pop_keeps_order(self):
        cache = Cache("L2", 4 * self.BLOCK, 4, self.BLOCK, 12)
        for k in range(9):
            self.fill(cache, k)
        assert self.shadowed(cache) == [4, 5, 6, 7]
        # A demand miss to a shadowed block is a pollution miss and
        # removes it from the middle of the FIFO.
        assert not cache.access(6 * self.BLOCK)
        assert cache.stats.pollution_misses == 1
        assert self.shadowed(cache) == [4, 5, 7]
        self.fill(cache, 9)  # evicts 8; back at capacity, nothing drops
        assert self.shadowed(cache) == [4, 5, 7, 8]
        self.fill(cache, 10)  # evicts 9; the oldest (4) drops
        assert self.shadowed(cache) == [5, 7, 8, 9]

    def test_refilled_block_leaves_the_shadow(self):
        cache = Cache("L2", 4 * self.BLOCK, 4, self.BLOCK, 12)
        for k in range(8):
            self.fill(cache, k)
        assert self.shadowed(cache) == [3, 4, 5, 6]
        # Refilling 5 evicts 7: the victim joins and the oldest entry
        # (3) drops before 5, resident again, leaves the shadow.
        self.fill(cache, 5)
        assert self.shadowed(cache) == [4, 6, 7]

    def test_reshadowing_keeps_position(self):
        cache = Cache("L2", 4 * self.BLOCK, 4, self.BLOCK, 12)
        for k in range(8):
            self.fill(cache, k)
        assert self.shadowed(cache) == [3, 4, 5, 6]
        cache._shadow[3 * self.BLOCK] = 1  # re-shadow the oldest entry
        assert self.shadowed(cache) == [3, 4, 5, 6]
        assert cache._shadow[3 * self.BLOCK] == 1
        self.fill(cache, 8)  # it is still the first to drop
        assert self.shadowed(cache) == [4, 5, 6, 7]


class TestWriteback:
    def test_dirty_eviction_returns_victim(self):
        cache = make_cache(1024, 4, 64)
        cache.fill(0x0, is_store=True)
        for b in (0x100, 0x200, 0x300):
            cache.fill(b)
        victim = cache.fill(0x400)
        assert victim == 0x0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_returns_none(self):
        cache = make_cache(1024, 4, 64)
        for b in (0x0, 0x100, 0x200, 0x300):
            cache.fill(b)
        assert cache.fill(0x400) is None

    def test_store_hit_marks_dirty(self):
        cache = make_cache(1024, 4, 64)
        cache.fill(0x0)
        cache.access(0x0, is_store=True)
        for b in (0x100, 0x200, 0x300, 0x400):
            cache.fill(b)
        assert cache.stats.writebacks == 1


class TestInvalidate:
    def test_invalidate_removes_block(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.contains(0x1000)

    def test_invalidate_absent_returns_false(self):
        cache = make_cache()
        assert not cache.invalidate(0x1000)


class TestPrefetchAccuracy:
    def prime(self):
        """Three prefetch fills: one referenced, one evicted untouched,
        one still resident and untouched."""
        cache = make_cache(1024, 4, 64)  # 4 sets; same-set stride = 256
        cache.fill(0x000, prefetched=True)
        cache.fill(0x040, prefetched=True)
        cache.fill(0x080, prefetched=True)
        cache.access(0x000)  # useful
        for b in (0x140, 0x240, 0x340, 0x440):  # evict 0x040's whole set
            cache.fill(b)
        assert cache.stats.useful_prefetches == 1
        assert cache.stats.useless_evicted_prefetches == 1
        return cache

    def test_mid_run_reading_ignores_stragglers(self):
        cache = self.prime()
        # Decided prefetches only: 1 useful of 2 decided.
        assert cache.stats.prefetch_accuracy() == pytest.approx(0.5)

    def test_resident_unreferenced_folds_into_denominator(self):
        cache = self.prime()
        stragglers = cache.resident_unreferenced_prefetches()
        assert stragglers == 1
        assert cache.stats.prefetch_accuracy(
            resident_unreferenced=stragglers) == pytest.approx(1 / 3)

    def test_end_of_run_denominator_equals_fills(self):
        cache = self.prime()
        stats = cache.stats
        decided = stats.useful_prefetches + stats.useless_evicted_prefetches
        assert decided + cache.resident_unreferenced_prefetches() \
            == stats.prefetch_fills

    def test_no_prefetches_reads_zero(self):
        cache = make_cache()
        assert cache.stats.prefetch_accuracy() == 0.0
        assert cache.stats.prefetch_accuracy(resident_unreferenced=0) == 0.0
