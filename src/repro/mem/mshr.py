"""Miss status holding registers.

MSHRs bound how many misses a cache can have in flight (8 per cache in the
paper's configuration).  They serve two roles here:

* **Merging** — a second miss to a block already being fetched piggybacks on
  the outstanding fill instead of issuing a new memory access.
* **Back-pressure** — when all registers are busy, a new miss must wait for
  the earliest outstanding fill to complete, which is how limited MSHRs cap
  memory-level parallelism in the timing model.

The file is a mapping from block address to the cycle at which its fill
completes; entries whose completion time has passed are reclaimed lazily.
A ``(ready, block)`` min-heap orders the reclaim, so freeing completed
entries and finding the earliest completion cost O(log n) per entry
instead of a scan of the whole file.
"""

import heapq

_INF = float("inf")


class MSHRStats:
    """Counters for one MSHR file, or one core's slice of a shared one."""

    def __init__(self):
        self.merges = 0
        self.allocations = 0
        self.stalls = 0


class MSHRFile:
    """A fixed-size file of miss status holding registers."""

    def __init__(self, num_entries):
        if num_entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.num_entries = num_entries
        #: {block -> fill completion cycle}: the authoritative contents.
        self._inflight = {}
        #: Min-heap of ``(ready, block)`` mirroring ``_inflight`` with lazy
        #: deletion: every ``_inflight`` entry has a heap entry with its
        #: ready time, and a heap entry whose block is gone or now maps to
        #: another ready time (the block was re-allocated while in flight)
        #: is stale and skipped when it reaches the top.
        self._heap = []
        #: Lower bound on the earliest outstanding completion (the heap's
        #: top, or below it once stale tops are discarded); lets
        #: :meth:`_reclaim` (called on every lookup/allocate/probe) return
        #: at once while no fill can have completed yet.
        self._min_ready = _INF
        #: The counting target: this file's :class:`MSHRStats`, or, in a
        #: shared co-run file, the stepping core's slice.
        self.stats = MSHRStats()
        #: Per-core slices for a *shared* MSHR file, or None (the
        #: default); see :meth:`enable_core_stats`.
        self.core_stats = None

    def enable_core_stats(self, n_cores):
        """Allocate per-core counter slices (shared multi-core file).

        Each event is counted once, in one slice: the co-run points
        :attr:`stats` at the stepping core's slice
        (``SharedMemorySystem.set_active``), and each hierarchy's
        one-frame demand miss (``Hierarchy.demand_miss``) and prefetch
        drain (``MemoryController.issue_prefetches``) bind their own
        core's slice, since they only run while that core steps.  The
        file's totals are the slices' sums, taken when the co-run ends.
        """
        self.core_stats = [MSHRStats() for _ in range(n_cores)]
        self.stats = self.core_stats[0]
        return self.core_stats

    def _reclaim(self, now):
        """Free every register whose fill has completed by ``now``."""
        if now < self._min_ready:
            return
        inflight = self._inflight
        heap = self._heap
        while heap and heap[0][0] <= now:
            ready, blk = heapq.heappop(heap)
            if inflight.get(blk) == ready:
                del inflight[blk]
        self._min_ready = heap[0][0] if heap else _INF

    def earliest_ready(self):
        """The earliest completion cycle among in-flight fills.

        Equal to ``min(self._inflight.values())``; the file must not be
        empty.  Stale heap tops are discarded on the way.
        """
        inflight = self._inflight
        heap = self._heap
        ready, blk = heap[0]
        while inflight.get(blk) != ready:
            heapq.heappop(heap)
            ready, blk = heap[0]
        return inflight[blk]

    def outstanding(self, now):
        """Number of fills still in flight at cycle ``now``."""
        self._reclaim(now)
        return len(self._inflight)

    def lookup(self, block, now):
        """Return the completion cycle of an in-flight fill of ``block``.

        Returns None when the block is not being fetched.  A hit here is a
        miss *merge*: the requester waits on the existing fill.
        """
        self._reclaim(now)
        ready = self._inflight.get(block)
        if ready is not None:
            self.stats.merges += 1
        return ready

    def earliest_free(self, now, record_stall=False):
        """Cycle at which a register becomes available.

        ``now`` when one is already free; otherwise the earliest outstanding
        completion time.  The caller stalls the new miss until then.

        ``record_stall`` counts a full file against ``stalls``; only the
        demand-miss path sets it.  The prefetch controller *probes* this
        method speculatively (and pushes the candidate back when blocked),
        so counting every probe would inflate the stall counter many times
        for one blocked request.
        """
        self._reclaim(now)
        if len(self._inflight) < self.num_entries:
            return now
        if record_stall:
            self.stats.stalls += 1
        return self.earliest_ready()

    def allocate(self, block, ready, now):
        """Claim a register for ``block`` completing at cycle ``ready``.

        The caller must have ensured availability via :meth:`earliest_free`.
        """
        self._reclaim(now)
        if len(self._inflight) >= self.num_entries:
            raise RuntimeError("MSHR overflow: allocate without a free entry")
        self._inflight[block] = ready
        heapq.heappush(self._heap, (ready, block))
        if ready < self._min_ready:
            self._min_ready = ready
        self.stats.allocations += 1
