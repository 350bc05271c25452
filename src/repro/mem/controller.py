"""Memory controller with SRP's access prioritizer.

The prioritizer (Figure 2 of the paper) is the piece that lets SRP/GRP
prefetch aggressively without hurting demand traffic:

* Demand misses go to DRAM immediately; they contend only with transfers the
  controller already started, never with queued prefetch candidates.
* Prefetch candidates are forwarded **only when their memory channel is
  otherwise idle**.  In this event-driven model the controller "catches up"
  prefetch issue lazily: before each demand event at cycle ``now`` it issues
  queued candidates into the idle channel time that elapsed since they were
  queued, stopping at the first candidate whose channel is still busy
  (head-of-line, like the real queue) or whose issue time would be in the
  future.

The controller knows nothing about hint semantics; it just asks the attached
prefetcher for its next candidate.  Prefetch fills are delivered through a
callback installed by the hierarchy, which also records the data-ready cycle
so that a demand access arriving before the prefetch completes waits for it
(a *late* prefetch hides only part of the latency).
"""

from collections import deque
from heapq import heappop, heappush

from repro.mem.cache import CacheLine

_INF = float("inf")


class PrefetchRequest:
    """One prefetch candidate handed from a prefetcher to the controller."""

    __slots__ = ("block", "queued_at", "depth", "meta")

    def __init__(self, block, queued_at, depth=0, meta=None):
        self.block = block
        self.queued_at = queued_at
        self.depth = depth
        self.meta = meta

    def __repr__(self):
        return "PrefetchRequest(0x%x @%d depth=%d)" % (
            self.block,
            self.queued_at,
            self.depth,
        )


class MemoryController:
    """Glue between the L2, the prefetch engine, and the DRAM channels."""

    def __init__(self, dram, prefetcher=None):
        self.dram = dram
        self.prefetcher = prefetcher
        #: Installed by the hierarchy: fill_prefetch(request, ready_cycle).
        self.fill_prefetch = None
        #: Installed by the hierarchy: is_resident(block) -> bool.
        self.is_resident = None
        #: Optional live container of resident blocks (the L2's
        #: resident_map); when installed it replaces the is_resident call
        #: per candidate with an ``in`` test.
        self.resident_map = None
        #: Installed by the hierarchy: the shared L2 MSHR file.  The paper
        #: is explicit that "the MSHRs track all outstanding accesses,
        #: regardless of type" -- prefetches occupy MSHRs too, which is
        #: what bounds the prefetch engine's memory-level parallelism.
        self.mshrs = None
        #: End of the most recent interval with a demand miss in flight.
        #: The prioritizer "forwards prefetch requests only when there are
        #: no outstanding demand misses from the L2" -- during bursts of
        #: overlapping misses the prefetcher is locked out entirely, which
        #: is what keeps SRP's traffic bounded on miss-dense phases.
        self.demand_busy_until = 0
        #: Per-call issue budget for :meth:`issue_prefetches` when the
        #: caller passes none.  The adaptive throttle policy lowers this
        #: to rate-limit prefetch issue between epochs.
        self.prefetch_budget = 256
        self.prefetches_issued = 0
        self.prefetches_dropped_resident = 0
        self.prefetches_blocked_mshr = 0
        #: Installed by the hierarchy when structured tracing is on: the
        #: metrics collector, notified per issued/dropped candidate.
        self.metrics = None
        #: The candidate most recently counted as MSHR-blocked.  The issue
        #: loop probes a held candidate again on every later call, so the
        #: blocked counter only advances when a *different* request blocks.
        self._last_blocked_mshr = None
        #: Blocked-issue cache.  While a region queue's head candidate is
        #: push-back-held, its channel/demand earliest-issue bound is
        #: remembered so the per-access catch-up call skips the pop /
        #: residency / channel-probe / push-back cycle.  Every component
        #: of the cached bound (the request's queue time, its channel's
        #: free time, the demand-busy watermark) only moves later as the
        #: simulation advances, so no probe at ``now <= _blocked_until``
        #: can issue; the MSHR free-at bound is deliberately *excluded*
        #: because MSHR occupancy is not monotone (a lazy reclaim can
        #: free entries early).  -1.0 means inactive.  The hierarchy
        #: clears the cache when a demand fill makes ``_held_block``
        #: resident, since the next probe must then drop the candidate
        #: and look at the one behind it.  A skipped probe is not quite
        #: side-effect free: it would reclaim completed MSHR entries at
        #: the held candidate's (possibly future) earliest-issue time, so
        #: the gate replicates that reclaim from the held request's
        #: remembered queue time and channel.  Disabled (never armed) for
        #: reference runs.
        self._blocked_until = -1.0
        self._held_block = -1
        self._held_queued_at = 0.0
        self._held_ch = 0
        self._cache_blocked = True
        #: The one-frame drain's bindings (see :meth:`bind_drain`), or
        #: None: every call then takes :meth:`_issue_decomposed`.
        self._drain = None

    def bind_drain(self, hierarchy, queue):
        """Switch :meth:`issue_prefetches` to the one-frame drain.

        The drain pops ``queue`` (a ``RegionQueue`` or a ``PendingQueue``,
        told apart by the pending queue's ``_entries`` deque), runs the DRAM
        transfer and MSHR allocation, and fills ``hierarchy``'s L2, all in
        one loop.  It reaches into the L2, the MSHR file and the
        hierarchy's prefetch ready-time map, so the hierarchy binds it only
        where those are the only observers: no trace sink (the metrics
        collector installs its cache observers only with one), not a
        reference run, an engine that fills the L2.  Every container
        bound here lives as long as its owner; the insertion depth,
        which the adaptive policy changes during a run, is read per call.

        It also builds the per-channel bit masks of the open-row pick
        here, once per DRAM geometry: ``chan_masks[r][c]`` holds the bits
        ``i`` below one row span with ``(r + i) % channels == c``, the
        blocks on channel ``c`` of an entry whose first block is on
        channel ``r``.  Bits past an entry's size never meet its
        bitvector, so one mask serves every entry size.

        In a co-run the drain counts into the hierarchy's slices of the
        shared L2, MSHR file and DRAM (its stats views) and owns its
        fills as the hierarchy's core: a controller's drain only runs
        while its core steps.
        """
        l2 = hierarchy.l2
        mshrs = hierarchy.l2_mshrs
        dram = self.dram
        cfg = dram.config
        entries = queue._entries
        fifo = entries if isinstance(entries, deque) else None
        if fifo is None and queue.block_size != 1 << dram._block_shift:
            return  # the drain's block arithmetic assumes one block size
        n_channels = dram._channels
        row_span = n_channels * dram._blocks_per_row
        # lanes[k]: the bits i < row_span with i % n_channels == k.
        lanes = [sum(1 << i for i in range(k, row_span, n_channels))
                 for k in range(n_channels)]
        chan_masks = [[lanes[(c - r) % n_channels] for c in range(n_channels)]
                      for r in range(n_channels)]
        self._drain = (
            l2, queue, entries, fifo, getattr(queue, "_lifo", True),
            l2._sets, l2._index, l2._shadow, l2._shadow_capacity, l2._block_shift, l2._set_mask, l2.assoc,
            hierarchy.l2_stats_view(), hierarchy.mshr_stats_view(),
            hierarchy.core_id,
            mshrs, mshrs._inflight, mshrs._heap, mshrs.num_entries,
            hierarchy._prefetch_ready, chan_masks,
            hierarchy._prune_ready, hierarchy._pf_on_fill,
            hierarchy._pf_on_drop, dram, dram._channel_free, dram._open_rows,
            dram.channel_busy_cycles, dram._block_shift, n_channels,
            dram._banks, row_span,
            cfg.row_hit_latency, cfg.row_miss_latency, cfg.transfer_cycles,
            hierarchy.dram_stats_view(),
        )

    # ------------------------------------------------------------------
    def demand_fetch(self, block, now):
        """Fetch ``block`` for a demand miss; return the data-ready cycle.

        Prefetch catch-up happens at the top of ``Hierarchy.access`` (and
        must not happen here: the caller has already reserved an MSHR slot
        based on the occupancy at ``now``).
        """
        ready = self.dram.access(block, now, kind="demand")
        if ready > self.demand_busy_until:
            self.demand_busy_until = ready
        return ready

    def writeback(self, block, now):
        """Queue a dirty-block writeback.  Fire-and-forget for timing."""
        self.dram.access(block, now, kind="writeback")

    # ------------------------------------------------------------------
    def issue_prefetches(self, now, budget=None):
        """Issue queued prefetch candidates into idle channel time <= now.

        ``budget`` bounds work per call so a pathological queue cannot stall
        the simulator; any remainder issues on the next call.  It defaults
        to :attr:`prefetch_budget`, the adaptive throttle knob.

        Runs bound with :meth:`bind_drain` take the one-frame drain below;
        all others (reference runs, trace-sink runs, stream buffers, bare
        controllers) take :meth:`_issue_decomposed`, the oracle.  While
        the blocked-issue gate holds, a call only runs
        :meth:`gated_reclaim`; ``Core.run_span`` tests the gate before
        calling and inlines that reclaim.
        """
        prefetcher = self.prefetcher
        if prefetcher is None:
            return
        if budget is None:
            budget = self.prefetch_budget
        if now <= self._blocked_until:
            # The held head candidate cannot issue before the cached
            # bound (see __init__): the probe below would pop it, find
            # an earliest-issue time >= now, and push it straight back.
            self.gated_reclaim()
            return
        drain = self._drain
        if drain is None:
            self._issue_decomposed(now, budget)
            return
        (l2, queue, entries, fifo, lifo, sets, index, shadow, shadow_cap,
         l2_shift, set_mask, assoc, l2stats, mstats, core_id, mshrs,
         inflight, heap, capacity, prefetch_ready, chan_masks, prune_ready,
         on_fill, on_drop, dram, channel_free, open_rows, busy_cycles,
         blk_shift, n_channels, n_banks, row_span, row_hit_latency,
         row_miss_latency, transfer_cycles, dstats) = drain
        held = queue._held
        if held is None and not entries:
            return  # has_candidates(), inlined
        self._blocked_until = -1.0
        depth = l2.prefetch_insert_depth
        demand_busy = self.demand_busy_until
        min_ready = mshrs._min_ready
        last_blocked = self._last_blocked_mshr
        # Counters kept in locals and added back on exit.  Nothing that
        # runs inside the loop (engine hooks, writebacks, ready-map
        # pruning) reads them.
        n_dropped = n_popped = n_blocked = n_row_hits = n_evictions = 0
        n_useless = issued = 0
        # The region entry at the queue's head and its fields, kept across
        # candidates: only this loop and the engine hooks touch the queue
        # during a drain, so the head stays put until the entry runs dry
        # or a hook runs (GRP, pointer and chase enqueue from their fill
        # hooks), and either re-selects it.
        entry = None
        bitvec = 0
        # The per-channel masks of a masked entry (see below), else None.
        masks = None
        bsize = 1 << blk_shift  # the queue's block size too (bind_drain)
        try:
            while issued < budget:
                # -- Next candidate: RegionQueue / PendingQueue
                # pop_candidate, inlined.  ``request`` stays None for a
                # region candidate until something reads the object.
                if held is not None:
                    request = held
                    held = queue._held = None
                    block = request.block
                    queued_at = request.queued_at
                elif fifo is not None:
                    if not fifo:
                        break
                    n_popped += 1
                    request = fifo.popleft()
                    block = request.block
                    queued_at = request.queued_at
                else:
                    request = None
                    if entry is None or not bitvec:
                        # Prune exhausted head entries, as every pop does.
                        entry = None
                        while entries:
                            pos = 0 if lifo else len(entries) - 1
                            if entries[pos].bitvec:
                                entry = entries[pos]
                                break
                            entries.pop(pos)
                        if entry is None:
                            break
                        bitvec = entry.bitvec
                        base = entry.base
                        nblocks = entry.nblocks
                        first_nblk = base >> blk_shift
                        queued_at = entry.queued_at
                        per = first_nblk // row_span
                        if bitvec & (bitvec - 1) and per == (
                                first_nblk + nblocks - 1) // row_span:
                            # Two or more candidates inside one row span:
                            # every block shares one (bank, row), so
                            # whether its row is open depends only on its
                            # channel.  open_mask holds the blocks whose
                            # channel has that row open.
                            bank = per % n_banks
                            row = per // n_banks
                            masks = chan_masks[first_nblk % n_channels]
                            open_mask = 0
                            for bank_rows, mask in zip(open_rows, masks):
                                if bank_rows[bank] == row:
                                    open_mask |= mask
                        else:
                            masks = None
                            full_mask = (1 << nblocks) - 1
                    index_ = entry.index
                    if masks is not None:
                        # The first open candidate in the wrapped scan
                        # order from the entry's index, else the first
                        # candidate: the lowest set bit at or above the
                        # index, else the lowest set bit.
                        pick = bitvec & open_mask or bitvec
                        low = pick >> index_
                        if low:
                            i = index_ + (low & -low).bit_length() - 1
                        else:
                            i = (pick & -pick).bit_length() - 1
                    elif not bitvec & (bitvec - 1):
                        i = bitvec.bit_length() - 1  # the one candidate
                    else:
                        # Scan the set bits from the entry's index,
                        # wrapping (the bitvector rotated so the scan
                        # starts at bit 0), and take the first candidate
                        # whose DRAM row is open, else the first in scan
                        # order (see pop_candidate).  Block i of the entry
                        # is DRAM block first_nblk + i.
                        rot = ((bitvec >> index_)
                               | (bitvec << (nblocks - index_))) & full_mask
                        low = rot & -rot
                        first = index_ + low.bit_length() - 1
                        if first >= nblocks:
                            first -= nblocks
                        i = first
                        while True:
                            nblk = first_nblk + i
                            per = nblk // row_span
                            if open_rows[nblk % n_channels][per % n_banks] \
                                    == per // n_banks:
                                break
                            rot ^= low
                            if not rot:
                                i = first
                                break
                            low = rot & -rot
                            i = index_ + low.bit_length() - 1
                            if i >= nblocks:
                                i -= nblocks
                    block = base + i * bsize
                    bitvec ^= 1 << i
                    entry.bitvec = bitvec
                    entry.index = (i + 1) % nblocks
                    n_popped += 1
                if block in index:
                    # Already resident in the L2: drop the candidate.
                    n_dropped += 1
                    if on_drop is not None:
                        if request is None:
                            request = PrefetchRequest(
                                block, queued_at, entry.depth, entry)
                        mshrs._min_ready = min_ready
                        on_drop(request)
                        min_ready = mshrs._min_ready
                        entry = None
                    continue
                nblk = block >> blk_shift
                ch = nblk % n_channels
                # max(queued_at, channel_free_at): first argument wins ties.
                earliest = queued_at
                free = channel_free[ch]
                if free > earliest:
                    earliest = free
                # No prefetch while a demand miss is outstanding.
                if demand_busy > earliest:
                    earliest = demand_busy
                monotone_earliest = earliest
                # MSHRFile.earliest_free(earliest), inlined (no stall
                # recording on the speculative prefetch probe), with its
                # _reclaim: pop completed fills off the ready heap.
                if earliest >= min_ready:
                    while heap and heap[0][0] <= earliest:
                        r, b = heappop(heap)
                        if inflight.get(b) == r:
                            del inflight[b]
                    min_ready = heap[0][0] if heap else _INF
                counted = False
                if len(inflight) >= capacity:
                    # MSHRFile.earliest_ready(), inlined.
                    r, b = heap[0]
                    while inflight.get(b) != r:
                        heappop(heap)
                        r, b = heap[0]
                    free_at = inflight[b]
                    if free_at > earliest:
                        # A fresh region candidate (request None) is never
                        # the last blocked request; an issued one is never
                        # probed again, so None stands in for its object.
                        if request is None or request is not last_blocked:
                            n_blocked += 1
                            last_blocked = request
                            counted = True
                        earliest = free_at
                if earliest >= now:
                    # No idle issue slot before `now`: hold the candidate
                    # (push_back) and arm the blocked-issue cache.
                    if request is None:
                        request = PrefetchRequest(
                            block, queued_at, entry.depth, entry)
                        if counted:
                            last_blocked = request
                    queue._held = request
                    self._blocked_until = monotone_earliest
                    self._held_block = block
                    self._held_queued_at = queued_at
                    self._held_ch = ch
                    break
                # DRAMSystem.access(block, earliest, kind="prefetch"),
                # inlined.  A candidate of a masked entry has the entry's
                # bank and row; the transfer leaves that row open on its
                # channel.
                if masks is None:
                    per = nblk // row_span
                    bank = per % n_banks
                    row = per // n_banks
                start = channel_free[ch]
                if earliest >= start:
                    start = earliest
                bank_rows = open_rows[ch]
                if bank_rows[bank] == row:
                    latency = row_hit_latency
                    n_row_hits += 1
                else:
                    latency = row_miss_latency
                    bank_rows[bank] = row
                    if masks is not None:
                        open_mask |= masks[ch]
                channel_free[ch] = start + transfer_cycles
                busy_cycles[ch] += transfer_cycles
                ready = start + latency
                # MSHRFile.allocate(block, ready, earliest), inlined.
                if earliest >= min_ready:
                    while heap and heap[0][0] <= earliest:
                        r, b = heappop(heap)
                        if inflight.get(b) == r:
                            del inflight[b]
                    min_ready = heap[0][0] if heap else _INF
                if len(inflight) >= capacity:
                    raise RuntimeError(
                        "MSHR overflow: allocate without a free entry")
                inflight[block] = ready
                heappush(heap, (ready, block))
                if ready < min_ready:
                    min_ready = ready
                issued += 1
                # Cache.fill(block, prefetched=True), inlined.  The
                # residency test above rules out its squash branch.
                lines = sets[(block >> l2_shift) & set_mask]
                writeback = None
                if len(lines) >= assoc:
                    # Evict the LRU line and recycle its object for the
                    # new block; a depth-0 insert leaves it in place.
                    line = lines[0]
                    victim = line.block
                    del index[victim]
                    if line.owner != core_id:
                        l2.evict_foreign(line, core_id, True)
                    if line.prefetched and not line.referenced:
                        n_useless += 1
                    n_evictions += 1
                    shadow[victim] = core_id
                    if len(shadow) > shadow_cap:
                        shadow.popitem(last=False)  # FIFO: oldest entry
                    if line.dirty:
                        l2stats.writebacks += 1
                        writeback = victim
                        line.dirty = False
                    shadow.pop(block, None)
                    line.block = block
                    line.prefetched = True
                    line.referenced = False
                    if depth:
                        del lines[0]
                        if depth >= len(lines):
                            lines.append(line)  # MRU
                        else:
                            lines.insert(depth, line)
                else:
                    if shadow:
                        shadow.pop(block, None)
                    line = CacheLine(block, True, core_id)
                    if depth >= len(lines):
                        lines.append(line)  # MRU
                    else:
                        lines.insert(depth, line)  # 0 = LRU
                index[block] = line
                # The rest of Hierarchy._fill_prefetch.
                if writeback is not None:
                    dram.access(writeback, ready, "writeback")
                    if masks is not None:
                        # The writeback may have opened or closed the
                        # entry's row on its channel.
                        wch = (writeback >> blk_shift) % n_channels
                        if open_rows[wch][bank] == row:
                            open_mask |= masks[wch]
                        else:
                            open_mask &= ~masks[wch]
                prefetch_ready[block] = ready
                if len(prefetch_ready) > 4096:
                    prune_ready(ready)
                # The fill hook runs only for depth > 0 (its contract,
                # see Prefetcher.on_prefetch_fill): a depth-0 fill needs
                # no request object and leaves the queue head in place.
                if on_fill is not None and (
                        entry.depth if request is None
                        else request.depth) > 0:
                    if request is None:
                        request = PrefetchRequest(
                            block, queued_at, entry.depth, entry)
                    mshrs._min_ready = min_ready
                    on_fill(request, ready)
                    min_ready = mshrs._min_ready
                    entry = None
        finally:
            mshrs._min_ready = min_ready
            self._last_blocked_mshr = last_blocked
            self.prefetches_issued += issued
            self.prefetches_dropped_resident += n_dropped
            self.prefetches_blocked_mshr += n_blocked
            queue.candidates_issued += n_popped
            mstats.allocations += issued
            dstats.prefetch_blocks += issued
            dstats.row_hits += n_row_hits
            dstats.row_misses += issued - n_row_hits
            l2stats.prefetch_fills += issued
            l2stats.prefetch_evictions += n_evictions
            l2stats.useless_evicted_prefetches += n_useless

    def _issue_decomposed(self, now, budget):
        """The per-candidate issue loop: the oracle for the drain above.

        Pops each candidate through the engine's queue, hands it to the
        hierarchy's ``fill_prefetch`` callback, and reports it to the
        metrics collector when tracing.  Reference runs, trace-sink runs,
        engines without a region or pending queue (stream buffers) and
        bare controllers take this path.
        """
        prefetcher = self.prefetcher
        # Called before every demand access, but the queue is empty for
        # long stretches on most schemes: bail before any of the
        # candidate / channel-idle / MSHR bookkeeping below.  Sources
        # without the probe (duck-typed test doubles) are assumed ready.
        probe = getattr(prefetcher, "has_candidates", None)
        if probe is not None and not probe():
            return
        self._blocked_until = -1.0
        dram = self.dram
        mshrs = self.mshrs
        is_resident = self.is_resident
        resident_map = self.resident_map
        metrics = self.metrics
        fill_prefetch = self.fill_prefetch
        # Engines exposing a region ``queue`` delegate pop/push to it
        # verbatim; binding the queue's methods collapses the delegation
        # on the hottest call of the loop.
        queue = getattr(prefetcher, "queue", None)
        if queue is not None:
            pop_candidate = queue.pop_candidate
            push_back = queue.push_back
        else:
            pop_candidate = prefetcher.pop_candidate
            push_back = prefetcher.push_back
        # DRAM geometry and channel state, denormalized through the loop.
        # The transfer below replicates DRAMSystem.access(kind="prefetch")
        # operation-for-operation (including max() tie direction).
        dram_cfg = dram.config
        channel_free = dram._channel_free
        open_rows = dram._open_rows
        busy_cycles = dram.channel_busy_cycles
        blk_shift = dram._block_shift
        n_channels = dram._channels
        n_banks = dram._banks
        blocks_per_row = dram._blocks_per_row
        row_hit_latency = dram_cfg.row_hit_latency
        row_miss_latency = dram_cfg.row_miss_latency
        transfer_cycles = dram_cfg.transfer_cycles
        dstats = dram.stats
        if mshrs is not None:
            mshr_inflight = mshrs._inflight
            mshr_capacity = mshrs.num_entries
        # Loop-invariant reads and counters, hoisted to locals: nothing in
        # the issue loop writes ``demand_busy_until`` (only demand fetches
        # move it, and none can occur mid-loop), and the two hot counters
        # are written back once on every exit path.
        demand_busy = self.demand_busy_until
        n_issued = self.prefetches_issued
        n_dropped = self.prefetches_dropped_resident
        issued = 0
        try:
            while issued < budget:
                request = pop_candidate(now, dram)
                if request is None:
                    break
                block = request.block
                if (block in resident_map) if resident_map is not None \
                        else (is_resident is not None and is_resident(block)):
                    n_dropped += 1
                    if metrics is not None:
                        metrics.on_prefetch_dropped(request, now)
                    prefetcher.on_candidate_dropped(request)
                    continue
                nblk = block >> blk_shift
                ch = nblk % n_channels
                # max(queued_at, channel_free_at): first argument wins ties.
                earliest = request.queued_at
                free = channel_free[ch]
                if free > earliest:
                    earliest = free
                # No prefetch while a demand miss is outstanding.
                if demand_busy > earliest:
                    earliest = demand_busy
            # The bound so far is monotone in simulation state; the MSHR
            # adjustment below is not (see the blocked-issue cache notes).
                monotone_earliest = earliest
                if mshrs is not None:
                    # MSHRFile.earliest_free(earliest), inlined (no stall
                    # recording on the speculative prefetch probe).
                    if earliest >= mshrs._min_ready:
                        mshrs._reclaim(earliest)
                    if len(mshr_inflight) >= mshr_capacity:
                        free_at = min(mshr_inflight.values())
                        if free_at > earliest:
                            if request is not self._last_blocked_mshr:
                                self.prefetches_blocked_mshr += 1
                                self._last_blocked_mshr = request
                            earliest = free_at
                if earliest >= now:
                    # No idle issue slot (channel or MSHR) before `now`;
                    # hold the candidate (and everything behind it).
                    push_back(request)
                    if queue is not None and self._cache_blocked:
                        # Region queues return the held candidate verbatim
                        # on the next pop (head-stable), so the probe can
                        # be skipped outright until the monotone bound
                        # expires.  Engines without a region queue (stream
                        # buffers) may retire pending candidates behind
                        # the held one, so they are probed every time.
                        self._blocked_until = monotone_earliest
                        self._held_block = block
                        self._held_queued_at = request.queued_at
                        self._held_ch = ch
                    break
                # DRAMSystem.access(block, earliest, kind="prefetch"),
                # inlined.
                per = nblk // n_channels // blocks_per_row
                bank = per % n_banks
                row = per // n_banks
                start = channel_free[ch]
                if earliest >= start:
                    start = earliest
                bank_rows = open_rows[ch]
                if bank_rows[bank] == row:
                    latency = row_hit_latency
                    dstats.row_hits += 1
                else:
                    latency = row_miss_latency
                    dstats.row_misses += 1
                    bank_rows[bank] = row
                channel_free[ch] = start + transfer_cycles
                busy_cycles[ch] += transfer_cycles
                dstats.prefetch_blocks += 1
                ready = start + latency
                if mshrs is not None:
                    # MSHRFile.allocate(block, ready, earliest), inlined.
                    if earliest >= mshrs._min_ready:
                        mshrs._reclaim(earliest)
                    if len(mshr_inflight) >= mshr_capacity:
                        raise RuntimeError(
                            "MSHR overflow: allocate without a free entry")
                    mshr_inflight[block] = ready
                    heappush(mshrs._heap, (ready, block))
                    if ready < mshrs._min_ready:
                        mshrs._min_ready = ready
                    mshrs.stats.allocations += 1
                n_issued += 1
                issued += 1
                if metrics is not None:
                    metrics.on_prefetch_issue(request, earliest, ready)
                if fill_prefetch is not None:
                    fill_prefetch(request, ready)
        finally:
            self.prefetches_issued = n_issued
            self.prefetches_dropped_resident = n_dropped

    def gated_reclaim(self):
        """The blocked-issue gate's one side effect.

        A probe skipped by the gate would still have run the lazy MSHR
        reclaim at the held candidate's earliest-issue time, which can
        run ahead of ``now`` and free entries a later demand miss would
        otherwise stall on; this replays it from the remembered queue
        time and channel.  The bound is built from monotone state that a
        stretch of L1 hits never advances, so N gated calls during such
        a stretch equal one: the first reclaim removes every entry
        completed by the bound and the rest are no-ops.

        :meth:`issue_prefetches` calls it for callers that go through
        the gate there (``Hierarchy.access``, :meth:`drain`).
        ``Core.run_span`` tests the gate itself and runs this body
        inline, so a gated reference there makes no call.
        """
        mshrs = self.mshrs
        if mshrs is None:
            return
        earliest = self._held_queued_at
        free = self.dram._channel_free[self._held_ch]
        if free > earliest:
            earliest = free
        if self.demand_busy_until > earliest:
            earliest = self.demand_busy_until
        if earliest >= mshrs._min_ready:
            mshrs._reclaim(earliest)

    def drain(self, now):
        """Issue everything issuable by ``now`` (used at simulation end)."""
        self.issue_prefetches(now, budget=1 << 20)
