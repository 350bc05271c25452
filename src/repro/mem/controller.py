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
        #: Which core this controller front-ends (multi-core co-runs give
        #: each core a private controller over the shared DRAM/MSHRs).
        #: Selects the per-core slice mirrored by the inlined DRAM/MSHR
        #: operations in :meth:`issue_prefetches` when attribution is on.
        self.core_id = 0

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
        # Per-core mirrors (shared multi-core DRAM/MSHRs only; both stay
        # None in a single-core hierarchy).  The inlined transfer below
        # bypasses DRAMSystem.access, so it must mirror its attribution.
        core_id = self.core_id
        dstats_core = None
        core_busy = None
        if dram.core_stats is not None:
            dstats_core = dram.core_stats[core_id]
            core_busy = dram.core_busy_cycles
        mshr_core = None
        if mshrs is not None:
            mshr_inflight = mshrs._inflight
            mshr_capacity = mshrs.num_entries
            if mshrs.core_stats is not None:
                mshr_core = mshrs.core_stats[core_id]
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
                    if dstats_core is not None:
                        dstats_core.row_hits += 1
                else:
                    latency = row_miss_latency
                    dstats.row_misses += 1
                    if dstats_core is not None:
                        dstats_core.row_misses += 1
                    bank_rows[bank] = row
                channel_free[ch] = start + transfer_cycles
                busy_cycles[ch] += transfer_cycles
                dstats.prefetch_blocks += 1
                if dstats_core is not None:
                    dstats_core.prefetch_blocks += 1
                    core_busy[core_id] += transfer_cycles
                ready = start + latency
                if mshrs is not None:
                    # MSHRFile.allocate(block, ready, earliest), inlined.
                    if earliest >= mshrs._min_ready:
                        mshrs._reclaim(earliest)
                    if len(mshr_inflight) >= mshr_capacity:
                        raise RuntimeError(
                            "MSHR overflow: allocate without a free entry")
                    mshr_inflight[block] = ready
                    if ready < mshrs._min_ready:
                        mshrs._min_ready = ready
                    mshrs.allocations += 1
                    if mshr_core is not None:
                        mshr_core.allocations += 1
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
        completed by the bound and the rest are no-ops.  The vectorized
        backend relies on that to apply it once per batch.
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
