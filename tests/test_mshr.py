"""Unit tests for the MSHR file."""

import heapq
import random

import pytest

from repro.mem.mshr import MSHRFile


class TestAllocation:
    def test_counts_outstanding(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0x1000, ready=100, now=0)
        mshrs.allocate(0x2000, ready=120, now=0)
        assert mshrs.outstanding(0) == 2

    def test_reclaims_completed(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0x1000, ready=100, now=0)
        assert mshrs.outstanding(101) == 0

    def test_overflow_raises(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x1000, ready=100, now=0)
        mshrs.allocate(0x2000, ready=100, now=0)
        with pytest.raises(RuntimeError):
            mshrs.allocate(0x3000, ready=100, now=0)

    def test_needs_positive_capacity(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


class TestMerging:
    def test_lookup_returns_inflight_completion(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0x1000, ready=250, now=0)
        assert mshrs.lookup(0x1000, now=10) == 250
        assert mshrs.stats.merges == 1

    def test_lookup_misses_other_blocks(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0x1000, ready=250, now=0)
        assert mshrs.lookup(0x2000, now=10) is None

    def test_lookup_after_completion_misses(self):
        mshrs = MSHRFile(4)
        mshrs.allocate(0x1000, ready=250, now=0)
        assert mshrs.lookup(0x1000, now=300) is None


class TestBackPressure:
    def test_free_when_space(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x1000, ready=500, now=0)
        assert mshrs.earliest_free(10) == 10

    def test_full_returns_earliest_completion(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x1000, ready=500, now=0)
        mshrs.allocate(0x2000, ready=300, now=0)
        assert mshrs.earliest_free(10, record_stall=True) == 300
        assert mshrs.stats.stalls == 1

    def test_probe_does_not_count_a_stall(self):
        # Regression: the prefetch controller probes earliest_free once
        # per issue opportunity; a single blocked prefetch used to inflate
        # the stall counter on every probe.
        mshrs = MSHRFile(2)
        mshrs.allocate(0x1000, ready=500, now=0)
        mshrs.allocate(0x2000, ready=300, now=0)
        for _ in range(5):
            assert mshrs.earliest_free(10) == 300
        assert mshrs.stats.stalls == 0

    def test_demand_path_counts_each_stall(self):
        mshrs = MSHRFile(1)
        mshrs.allocate(0x1000, ready=500, now=0)
        mshrs.earliest_free(10, record_stall=True)
        mshrs.earliest_free(20, record_stall=True)
        assert mshrs.stats.stalls == 2

    def test_no_stall_recorded_when_free(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x1000, ready=500, now=0)
        assert mshrs.earliest_free(10, record_stall=True) == 10
        assert mshrs.stats.stalls == 0

    def test_mlp_bounded_by_entries(self):
        """At most `entries` fills can be overlapping at any instant."""
        mshrs = MSHRFile(8)
        now = 0
        for k in range(20):
            free_at = mshrs.earliest_free(now)
            start = max(now, free_at)
            mshrs.allocate(0x1000 + k * 64, ready=start + 200, now=start)
            assert mshrs.outstanding(start) <= 8
            now = start + 10


class NaiveMSHR:
    """The reference model: a dict scanned on every reclaim and minimum."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.inflight = {}
        self.merges = self.allocations = self.stalls = 0

    def reclaim(self, now):
        for blk in [b for b, r in self.inflight.items() if r <= now]:
            del self.inflight[blk]

    def outstanding(self, now):
        self.reclaim(now)
        return len(self.inflight)

    def lookup(self, block, now):
        self.reclaim(now)
        ready = self.inflight.get(block)
        if ready is not None:
            self.merges += 1
        return ready

    def earliest_free(self, now, record_stall=False):
        self.reclaim(now)
        if len(self.inflight) < self.num_entries:
            return now
        if record_stall:
            self.stalls += 1
        return min(self.inflight.values())

    def allocate(self, block, ready, now):
        self.reclaim(now)
        if len(self.inflight) >= self.num_entries:
            raise RuntimeError("MSHR overflow")
        self.inflight[block] = ready
        self.allocations += 1


def demand_miss(mshrs, block, t):
    """``Hierarchy._l2_miss``'s inlined reads: merge, else stall start."""
    if t >= mshrs._min_ready:
        mshrs._reclaim(t)
    merged = mshrs._inflight.get(block)
    if merged is not None:
        return ("merge", merged)
    if len(mshrs._inflight) < mshrs.num_entries:
        return ("start", t)
    return ("start", max(t, mshrs.earliest_ready()))


def drain_reclaim(mshrs, now):
    """The drain's inlined ``_reclaim`` (guard, heap pops, new bound)."""
    if now >= mshrs._min_ready:
        heap = mshrs._heap
        inflight = mshrs._inflight
        while heap and heap[0][0] <= now:
            r, b = heapq.heappop(heap)
            if inflight.get(b) == r:
                del inflight[b]
        mshrs._min_ready = heap[0][0] if heap else float("inf")


def drain_probe(mshrs, earliest):
    """The drain's inlined ``earliest_free`` probe: the issue bound."""
    drain_reclaim(mshrs, earliest)
    inflight = mshrs._inflight
    if len(inflight) >= mshrs.num_entries:
        heap = mshrs._heap
        r, b = heap[0]
        while inflight.get(b) != r:
            heapq.heappop(heap)
            r, b = heap[0]
        free_at = inflight[b]
        if free_at > earliest:
            return free_at
    return earliest


def drain_allocate(mshrs, block, ready, earliest):
    """The drain's inlined ``allocate``."""
    drain_reclaim(mshrs, earliest)
    if len(mshrs._inflight) >= mshrs.num_entries:
        raise RuntimeError("MSHR overflow")
    mshrs._inflight[block] = ready
    heapq.heappush(mshrs._heap, (ready, block))
    if ready < mshrs._min_ready:
        mshrs._min_ready = ready
    mshrs.stats.allocations += 1


class TestHeapAgainstNaiveModel:
    """Seeded random operation streams: the heap-ordered file must agree
    with a dict-scan model on every return value, every counter and the
    live contents, through the public methods and through the inlined
    read patterns of the demand path and the prefetch drain."""

    OPS = ("allocate", "lookup", "earliest_free", "outstanding",
           "reclaim", "demand_miss", "drain_issue")

    def check(self, mshrs, model, got, want):
        assert got == want and type(got) is type(want)
        assert mshrs._inflight == model.inflight
        stats = mshrs.stats
        assert (stats.merges, stats.allocations, stats.stalls) \
            == (model.merges, model.allocations, model.stalls)
        if model.inflight:
            # A lower bound on the earliest completion, never above it.
            assert mshrs._min_ready <= min(model.inflight.values())

    @pytest.mark.parametrize("cycles", [int, float])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams(self, seed, cycles):
        rng = random.Random(seed)
        entries = rng.choice((1, 2, 4, 8))
        mshrs = MSHRFile(entries)
        model = NaiveMSHR(entries)
        blocks = [0x40 * k for k in range(rng.choice((3, 6, 12)))]
        now = cycles(0)
        for step in range(1500):
            # Mostly forward, sometimes backward (the drain's earliest
            # runs ahead of the demand clock); few distinct latencies,
            # so completions often tie.
            now = cycles(max(0, now + rng.choice((-7, 0, 1, 3, 5, 20))))
            op = rng.choice(self.OPS)
            block = rng.choice(blocks)
            context = (seed, cycles.__name__, step, op)
            if op == "allocate":
                # Re-allocating an in-flight block is allowed: the new
                # completion time replaces the old one.
                start = mshrs.earliest_free(now)
                assert start == model.earliest_free(now), context
                ready = start + cycles(rng.choice((0, 4, 10, 40)))
                mshrs.allocate(block, ready, start)
                model.allocate(block, ready, start)
                got = want = None
            elif op == "lookup":
                got = mshrs.lookup(block, now)
                want = model.lookup(block, now)
            elif op == "earliest_free":
                stall = rng.random() < 0.5
                got = mshrs.earliest_free(now, record_stall=stall)
                want = model.earliest_free(now, record_stall=stall)
            elif op == "outstanding":
                got = mshrs.outstanding(now)
                want = model.outstanding(now)
            elif op == "reclaim":
                mshrs._reclaim(now)
                model.reclaim(now)
                got = want = None
            elif op == "demand_miss":
                got = demand_miss(mshrs, block, now)
                model.reclaim(now)
                merged = model.inflight.get(block)
                if merged is not None:
                    want = ("merge", merged)
                elif len(model.inflight) < entries:
                    want = ("start", now)
                else:
                    want = ("start", max(now, min(model.inflight.values())))
            else:
                got = drain_probe(mshrs, now)
                want = model.earliest_free(now)
                if want < now:
                    want = now
                ready = got + cycles(rng.choice((0, 4, 10, 40)))
                drain_allocate(mshrs, block, ready, got)
                model.allocate(block, ready, got)
            self.check(mshrs, model, got, want)

    def test_stale_heap_entries_are_skipped(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x40, ready=100, now=0)
        mshrs.allocate(0x40, ready=300, now=0)  # re-allocated in flight
        mshrs.allocate(0x80, ready=200, now=0)
        assert len(mshrs._heap) == 3
        assert mshrs.earliest_ready() == 200  # stale (100, 0x40) skipped
        assert mshrs.outstanding(150) == 2  # the stale entry frees nothing
        assert mshrs.outstanding(250) == 1
        assert mshrs.lookup(0x40, 250) == 300
