"""Predictor-directed stream buffers, stride predictor only (Sherwood et al.,
MICRO 2000) — the paper's pure-hardware stride baseline.

Configuration per Section 5.1 of the GRP paper: a 4-way set-associative
stride history table with 1K entries (indexed by the load's PC — in this
simulator, the static reference id), shared by 8 stream buffers of 8
entries each.  The Markov half of Sherwood's predictor is omitted, as in
the paper ("we compare to the strided stream buffers scheme only, since the
Markov predictor consumes too much state to be practical").

Mechanics:

* Every access that reaches the L2 trains the per-PC stride entry (a 2-bit
  confidence counter guards against noise).
* An L2 miss first probes the stream buffers; a hit supplies the block from
  buffer storage (waiting out any in-flight latency) and lets the buffer
  run further ahead.
* A miss that hits no buffer allocates one (LRU replacement) when the
  missing PC has a confident non-zero stride; the buffer then generates
  prefetches down the predicted stream, issued only into idle DRAM
  channels like every other prefetch in this system.
"""

from repro.mem.controller import PrefetchRequest
from repro.mem.layout import block_base
from repro.prefetch.base import Prefetcher


class StrideEntry:
    """One stride-history-table entry."""

    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, addr):
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0


class StrideTable:
    """4-way set-associative per-PC stride predictor."""

    def __init__(self, entries=1024, assoc=4, confident=2):
        self.num_sets = entries // assoc
        self.assoc = assoc
        self.confident = confident
        self._sets = [[] for _ in range(self.num_sets)]  # [(pc, entry)] LRU->MRU

    def _set_for(self, pc):
        return self._sets[hash(pc) % self.num_sets]

    def train(self, pc, addr):
        """Update the entry for ``pc`` with a new reference address."""
        ways = self._set_for(pc)
        for pos, (key, entry) in enumerate(ways):
            if key == pc:
                ways.append(ways.pop(pos))
                new_stride = addr - entry.last_addr
                if new_stride != 0 and new_stride == entry.stride:
                    entry.confidence = min(entry.confidence + 1, 3)
                elif entry.confidence > 0:
                    entry.confidence -= 1
                else:
                    entry.stride = new_stride
                entry.last_addr = addr
                return
        if len(ways) >= self.assoc:
            ways.pop(0)
        ways.append((pc, StrideEntry(addr)))

    def predict(self, pc):
        """Return the confident stride for ``pc``, or None."""
        for key, entry in self._set_for(pc):
            if key == pc:
                if entry.confidence >= self.confident and entry.stride != 0:
                    return entry.stride
                return None
        return None


class StreamBuffer:
    """One stream buffer: up to ``capacity`` prefetched blocks down a stride."""

    def __init__(self, capacity, block_size):
        self.capacity = capacity
        self.block_size = block_size
        self.active = False
        self.stride = 0
        self.next_addr = 0
        self.entries = {}  # block -> ready cycle (None while only queued)
        self.last_used = 0
        #: Allowed run-ahead depth: starts shallow and deepens by one per
        #: confirming hit, so a mispredicted stream wastes at most two
        #: fetches before its buffer is retargeted.
        self.ahead = 2

    def reset(self, addr, stride, now):
        """Retarget this buffer at the stream starting after ``addr``."""
        self.active = True
        self.stride = stride
        self.next_addr = addr + stride
        self.entries = {}
        self.last_used = now
        self.ahead = 2

    def confirm(self):
        """A hit confirms the stream: allow one more block of run-ahead."""
        if self.ahead < self.capacity:
            self.ahead += 1

    def next_block(self):
        """Advance down the stream; return the next new block to prefetch."""
        for _ in range(64):  # skip strides that stay within a block
            block = block_base(self.next_addr, self.block_size)
            self.next_addr += self.stride
            if block not in self.entries:
                return block
        return None

    def room(self):
        return len(self.entries) < self.ahead


class StridePrefetcher(Prefetcher):
    """The stride-predicted stream-buffer engine."""

    name = "stride"
    fills_l2 = False

    def __init__(self, table_entries=1024, table_assoc=4, num_buffers=8,
                 buffer_entries=8):
        super().__init__()
        self.table = StrideTable(table_entries, table_assoc)
        self.num_buffers = num_buffers
        self.buffer_entries = buffer_entries
        self.allocations = 0
        self._entries = []  # PrefetchRequests awaiting issue

    def attach(self, hierarchy, space, config):
        super().attach(hierarchy, space, config)
        self.buffers = [
            StreamBuffer(self.buffer_entries, config.block_size)
            for _ in range(self.num_buffers)
        ]

    # ------------------------------------------------------------------
    def on_l2_miss(self, block, addr, ref_id, hint, now):
        # The predictor is trained on the L2 miss address stream (as in
        # Sherwood et al.); hits never reach the prefetcher's tables.
        if ref_id is not None:
            self.table.train(ref_id, addr)
        # probe() is called by the hierarchy right after this hook; if the
        # block is in no buffer, try to start a new stream for this PC.
        for buf in self.buffers:
            if buf.active and block in buf.entries:
                return
        stride = self.table.predict(ref_id) if ref_id is not None else None
        if stride is None:
            return
        victim = min(self.buffers, key=lambda b: (b.active, b.last_used))
        victim.reset(addr, stride, now)
        self.allocations += 1
        self._refill(victim, now)

    def probe(self, block, now):
        for buf in self.buffers:
            if not buf.active or block not in buf.entries:
                continue
            ready = buf.entries.pop(block)
            buf.last_used = now
            buf.confirm()
            self._refill(buf, now)
            if ready is None:
                # Queued but never issued: no data was actually fetched, so
                # this is not a useful prefetch -- the caller falls through
                # to a normal demand miss.
                return None
            self.private_useful += 1
            return max(ready, now)
        return None

    def _refill(self, buf, now):
        """Queue prefetches until the buffer is at capacity."""
        while buf.room():
            block = buf.next_block()
            if block is None:
                break
            if self.hierarchy.l2.contains_block(block):
                continue
            buf.entries[block] = None
            self._entries.append(
                PrefetchRequest(block, now, meta=buf)
            )

    # ------------------------------------------------------------------
    def has_candidates(self):
        return bool(self._entries)

    def pop_candidate(self, now, dram):
        while self._entries:
            request = self._entries.pop(0)
            buf = request.meta
            if not buf.active or request.block not in buf.entries:
                continue  # buffer was retargeted; stale candidate
            return request
        return None

    def push_back(self, request):
        self._entries.insert(0, request)

    def on_candidate_dropped(self, request):
        # The target turned out to be resident: free the buffer slot so
        # the stream can keep running ahead instead of silting up with
        # entries that will never fill.
        buf = request.meta
        if buf.active and request.block in buf.entries and \
                buf.entries[request.block] is None:
            del buf.entries[request.block]

    def on_prefetch_fill(self, request, ready):
        buf = request.meta
        self.private_fills += 1
        if buf.active and request.block in buf.entries:
            buf.entries[request.block] = ready

    def stats_snapshot(self):
        snap = super().stats_snapshot()
        snap.update(buffer_allocations=self.allocations)
        return snap
