"""The full memory hierarchy: L1D, unified L2, MSHRs, controller, DRAM.

This is the component the CPU timing model talks to.  Each call to
:meth:`Hierarchy.access` simulates one memory reference arriving at cycle
``now`` and returns the cycle at which its data is available.

Modes
-----
``real``
    The full hierarchy (default).
``perfect_l1``
    Every reference completes in the L1 hit latency — the paper's
    "perfect L1" bar in Figure 1.
``perfect_l2``
    The L1 is real, but every L1 miss hits in the L2 — the "perfect L2"
    bar, which defines the performance gap all prefetchers chase.

Prefetch timing
---------------
Prefetched blocks are installed in the L2 when the controller issues them,
but their *data-ready* cycle is remembered.  A demand access that finds a
still-in-flight prefetched block waits for the remaining latency — a late
prefetch hides only part of the miss (these show up in
``stats.late_prefetch_hits``).
"""

import heapq

from repro.mem.cache import Cache, CacheLine
from repro.mem.controller import MemoryController
from repro.mem.dram import DRAMSystem
from repro.mem.mshr import MSHRFile
from repro.mem.tlb import TLB
from repro.metrics import MetricsCollector
from repro.prefetch.base import Prefetcher
from repro.prefetch.pending import PendingQueue
from repro.prefetch.regionqueue import RegionQueue


def _engine_hook(prefetcher, name):
    """The engine's bound ``name`` hook, or None for the base no-op."""
    if getattr(type(prefetcher), name, None) is getattr(Prefetcher, name):
        return None
    return getattr(prefetcher, name, None)


class HierarchyStats:
    """Aggregate counters across the hierarchy for one simulation."""

    def __init__(self):
        self.loads = 0
        self.stores = 0
        self.late_prefetch_hits = 0
        self.mshr_merge_waits = 0

    def snapshot(self):
        return {
            "loads": self.loads,
            "stores": self.stores,
            "late_prefetch_hits": self.late_prefetch_hits,
            "mshr_merge_waits": self.mshr_merge_waits,
        }


class Hierarchy:
    """L1 + L2 + MSHRs + memory controller + DRAM, with prefetcher hooks."""

    def __init__(self, config, space, prefetcher=None, mode="real",
                 trace_sink=None, reference=False, shared=None, core_id=0):
        if mode not in ("real", "perfect_l1", "perfect_l2"):
            raise ValueError("unknown hierarchy mode %r" % mode)
        self.config = config
        self.space = space
        self.mode = mode
        self.block_size = config.block_size
        self._block_mask = ~(config.block_size - 1)
        self._perfect_l1 = mode == "perfect_l1"
        self._perfect_l2 = mode == "perfect_l2"
        #: Multi-core wiring: ``shared`` is a duck-typed bundle (see
        #: ``repro.sim.multicore.SharedMemorySystem``) carrying the L2,
        #: MSHR file, DRAM, and in-flight prefetch ready-time structures
        #: that all cores contend for.  None (the default) builds the
        #: private single-core stack below, byte-identically to before.
        #: Cores must replay *disjoint* physical address ranges (the
        #: builders shift each core's AddressSpace base), so a block is
        #: only ever filled by its owning core.
        self._shared = shared
        self.core_id = core_id
        self.l1 = Cache(
            "L1D", config.l1_size, config.l1_assoc, config.block_size,
            config.l1_latency,
        )
        if shared is None:
            self.l2 = Cache(
                "L2", config.l2_size, config.l2_assoc, config.block_size,
                config.l2_latency, prefetch_insert=config.prefetch_insert,
            )
            # Every line of a private L2 is this core's.
            self.l2.active_core = core_id
            self.l2_mshrs = MSHRFile(config.mshr_entries)
            self.dram = DRAMSystem(config.dram)
            self._prefetch_ready = {}
        else:
            self.l2 = shared.l2
            self.l2_mshrs = shared.mshrs
            self.dram = shared.dram
            self._prefetch_ready = shared.prefetch_ready
        self.controller = MemoryController(self.dram, prefetcher)
        self.controller.fill_prefetch = self._fill_prefetch
        self.controller.is_resident = self.l2.contains_block
        self.controller.resident_map = self.l2.resident_map
        self.controller.mshrs = self.l2_mshrs
        self.prefetcher = prefetcher
        if prefetcher is not None:
            prefetcher.attach(self, space, config)
            # The candidate probe runs per demand access, as the state
            # read ``_held is not None or _entries`` on a region or
            # pending queue (the engine's has_candidates() delegates to
            # it), or else on the engine itself (``Prefetcher`` defines
            # both names, as its empty queue).
            queue = getattr(prefetcher, "queue", None)
            self._candidates = (
                queue if isinstance(queue, (RegionQueue, PendingQueue))
                else prefetcher
            )
            # Resolve the per-candidate hooks once: engines that inherit
            # the base no-op (SRP) skip the call, and the prefetch drain
            # skips building the request it would take.
            self._pf_on_fill = _engine_hook(prefetcher, "on_prefetch_fill")
            self._pf_on_drop = _engine_hook(prefetcher,
                                            "on_candidate_dropped")
            self._pf_fills_l2 = getattr(prefetcher, "fills_l2", True)
            #: Adaptive engines build their AdaptiveController during
            #: attach; the CPU replay loops pick it up from here and
            #: drive its per-reference epoch check.  None for static
            #: engines.
            self.adapt = getattr(prefetcher, "adapt", None)
        else:
            self._candidates = None
            self._pf_on_fill = None
            self._pf_on_drop = None
            self._pf_fills_l2 = True
            self.adapt = None
        self.tlb = (
            TLB(config.tlb_entries, config.tlb_assoc,
                config.tlb_page_size, config.tlb_miss_latency)
            if getattr(config, "tlb_entries", 0)
            else None
        )
        self.stats = HierarchyStats()
        # ``_prefetch_ready`` (set above, possibly shared): {block ->
        # data-ready cycle} for in-flight prefetch fills.  A demand touch
        # or demand fill pops a block's entry, a re-prefetch overwrites
        # it, and :meth:`_prune_ready` drops the landed ones once the map
        # passes 4,096 entries; the scan that costs is amortized over the
        # 4,096 fills that refilled the map.
        # Observability layer: always collects the summary metrics; the
        # per-event trace hooks are installed only when a sink is given.
        self.metrics = MetricsCollector(sink=trace_sink)
        self.metrics.attach(self)
        #: Fast-path gating (semantics-preserving, hence off for
        #: ``reference`` runs, whose stats the differential tests compare
        #: byte-for-byte against the optimized default):
        #: * prefetch catch-up is skipped while the engine's candidate
        #:   queue is verifiably empty (``Prefetcher.has_candidates``);
        #: * the metrics tick is skipped between sampling boundaries when
        #:   no trace sink needs per-access timestamps.
        self.reference = reference
        self._fast_prefetch = not reference
        self._fast_metrics = not reference and trace_sink is None
        # The controller's blocked-issue cache is an optimization too:
        # reference runs never arm it, so the differential tests exercise
        # the uncached probe sequence against the cached one.
        self.controller._cache_blocked = not reference
        # So is the one-frame prefetch drain (MemoryController.bind_drain),
        # for engines that fill the L2 from a region or pending queue.  A
        # trace sink needs the per-candidate events of the decomposed loop.
        queue = getattr(prefetcher, "queue", None)
        if not reference and trace_sink is None and self._pf_fills_l2 \
                and isinstance(queue, (RegionQueue, PendingQueue)):
            self.controller.bind_drain(self, queue)
        #: The L1-miss handler :meth:`Core.run_span` calls: the one-frame
        #: handler (:meth:`_build_demand_miss`), or
        #: :meth:`access_after_l1_miss`, the decomposed chain and its
        #: oracle.  Reference runs must take the oracle; TLB and
        #: trace-sink runs replay through :meth:`access` anyway; the
        #: frame has no ``perfect_l2`` branch.
        if reference or self.tlb is not None or trace_sink is not None \
                or self._perfect_l2:
            self.demand_miss = self.access_after_l1_miss
        else:
            self.demand_miss = self._build_demand_miss()

    # ------------------------------------------------------------------
    # Prefetch fill path (controller callback)
    # ------------------------------------------------------------------
    def _fill_prefetch(self, request, ready):
        block = request.block
        if self._pf_fills_l2:
            if not self._fast_metrics:
                # Stamp the collector's clock before the fill so any
                # eviction the fill causes is traced at the fill's ready
                # time.  Without a sink (and outside reference runs) the
                # stamp is unread — no observers are installed.
                self.metrics.on_prefetch_fill(request, ready)
            writeback = self.l2.fill(block, prefetched=True)
            if writeback is not None:
                self.controller.writeback(writeback, ready)
            self._prefetch_ready[block] = ready
            if len(self._prefetch_ready) > 4096:
                self._prune_ready(ready)
        if self._pf_on_fill is not None:
            self._pf_on_fill(request, ready)

    def _prune_ready(self, now):
        """Drop ready-time entries for prefetches whose data has landed.

        Drops every entry whose ready time is at or below ``now``, in
        place: the map is shared with the prefetch drain and the co-run's
        other cores.  The survivors are put back in their order, so the
        map reads as if exactly the landed entries had been deleted.
        """
        ready_map = self._prefetch_ready
        survivors = {b: r for b, r in ready_map.items() if r > now}
        ready_map.clear()
        ready_map.update(survivors)

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def access(self, addr, now, is_store=False, ref_id=None, hint=None):
        """Simulate one reference; return its data-ready cycle."""
        if is_store:
            self.stats.stores += 1
        else:
            self.stats.loads += 1
        if self._perfect_l1:
            return now + self.l1.latency
        if self.tlb is not None:
            # The page walk serializes before the cache lookup.
            now = now + self.tlb.lookup(addr)
        # Catch up on prefetch issue for the idle time that elapsed before
        # this access: prefetches queued earlier may have completed (or be
        # in flight) by now, turning this lookup into a (late) hit.
        if self._fast_prefetch:
            candidates = self._candidates
            if candidates is not None and (
                    candidates._held is not None or candidates._entries):
                self.controller.issue_prefetches(now)
        else:
            self.controller.issue_prefetches(now)
        metrics = self.metrics
        if not self._fast_metrics or now >= metrics.series._next:
            # Between sampling boundaries the tick is a no-op unless a
            # trace sink needs per-access timestamps; the boundary test
            # mirrors IntervalSeries.due exactly.
            metrics.tick(now)
        block = addr & self._block_mask
        if self.l1.access_block(block, is_store=is_store):
            return now + self.l1.latency
        return self.access_after_l1_miss(block, addr, now, is_store,
                                         ref_id, hint)

    def access_after_l1_miss(self, block, addr, now, is_store, ref_id, hint):
        """The L2-and-below half of :meth:`access`.

        The decomposed miss chain: L2 probe, engine hooks, MSHR file,
        DRAM and both fills, each in its own method.  :meth:`access`
        runs it, and :meth:`Core.run_span` falls into it wherever the
        hierarchy did not build the one-frame handler
        (:attr:`demand_miss`).  It is that handler's oracle.
        """
        # L1 miss: the L2 lookup starts after the L1 probe.
        t = now + self.l1.latency
        completion = self._l2_access(block, addr, t, is_store, ref_id, hint)
        # Fill L1; a dirty victim merges into the L2 copy when present.
        # The merge is a clean fill, so a clean resident copy stays
        # clean and the store is lost (a known deviation, DESIGN §3d).
        l1_victim = self.l1.fill(addr, is_store=is_store)
        if l1_victim is not None:
            self.l2.fill(l1_victim)
            controller = self.controller
            if l1_victim == controller._held_block:
                # The held prefetch candidate just became L2-resident:
                # the next probe must run (and drop it), not be skipped.
                controller._blocked_until = -1.0
        return completion

    def _l2_access(self, block, addr, t, is_store, ref_id, hint):
        if self._perfect_l2:
            return t + self.l2.latency
        useful_before = self.l2.stats.useful_prefetches
        hit = self.l2.access_block(block, is_store=is_store)
        if self.prefetcher is not None:
            self.prefetcher.on_l2_access(block, addr, ref_id, hint, t, hit)
        if hit:
            completion = t + self.l2.latency
            ready = self._prefetch_ready.pop(block, None)
            late = ready is not None and ready > completion
            if late:
                self.stats.late_prefetch_hits += 1
                completion = ready
            if self.l2.stats.useful_prefetches != useful_before:
                # First demand touch of a prefetched line: classify its
                # timeliness (did the prefetch hide the full miss latency?).
                self.metrics.on_prefetch_first_use(block, late, t)
            return completion
        return self._l2_miss(block, addr, t, is_store, ref_id, hint)

    def _l2_miss(self, block, addr, t, is_store, ref_id, hint):
        if self.prefetcher is not None:
            self.prefetcher.on_l2_miss(block, addr, ref_id, hint, t)
            # Stream-buffer schemes may hold the block privately.
            probe_ready = self.prefetcher.probe(block, t)
            if probe_ready is not None:
                completion = max(t + self.l2.latency, probe_ready)
                writeback = self.l2.fill(addr, is_store=is_store)
                if writeback is not None:
                    self.controller.writeback(writeback, completion)
                if block == self.controller._held_block:
                    self.controller._blocked_until = -1.0
                return completion
        mshrs = self.l2_mshrs
        # MSHRFile.lookup / earliest_free, with their lazy-reclaim guard
        # hoisted so the common no-completed-fill case pays no calls.
        if t >= mshrs._min_ready:
            mshrs._reclaim(t)
        merged = mshrs._inflight.get(block)
        if merged is not None:
            mshrs.stats.merges += 1
            self.stats.mshr_merge_waits += 1
            return max(merged, t + self.l2.latency)
        if len(mshrs._inflight) < mshrs.num_entries:
            start = t
        else:
            mshrs.stats.stalls += 1
            start = max(t, mshrs.earliest_ready())
        ready = self.controller.demand_fetch(block, start)
        mshrs.allocate(block, ready, start)
        writeback = self.l2.fill(addr, is_store=is_store)
        if writeback is not None:
            self.controller.writeback(writeback, ready)
        if block == self.controller._held_block:
            # A demand fetch beat the held prefetch candidate to its own
            # block; un-skip the probe so the drop happens on schedule.
            self.controller._blocked_until = -1.0
        self._prefetch_ready.pop(block, None)
        if self.prefetcher is not None:
            self.prefetcher.on_demand_fill(block, ref_id, hint, ready)
        return ready

    # ------------------------------------------------------------------
    # The one-frame demand miss
    # ------------------------------------------------------------------
    def _build_demand_miss(self):
        """Build :meth:`access_after_l1_miss` as one closure.

        The handler runs the L2 probe, the engine hooks, the MSHR file,
        the DRAM transfer and both fills inline, operation for operation
        as the decomposed chain does them, with the same arguments and
        return value.  It relies on what a hierarchy without a trace
        sink guarantees: no cache observer.  In a co-run it counts into
        this core's slices of the shared L2, MSHR file and DRAM (the
        stats views), which is where the decomposed chain counts too:
        the handler only runs while this core steps, and the co-run
        points each shared level's stats at the stepping core's slice.
        Work that depends on another core's line (a useless prefetch
        credited to its owner, interference notes) runs only when an
        eviction or a pollution miss finds one, so a single-core run,
        where every line is core 0's, only pays the comparison.  It also
        relies on three facts of the miss path:

        * the L1 is demand-only: its one fill site is this miss path, so
          every L1 line is unprefetched and referenced, and its shadow
          set stays empty;
        * the block just missed both the L1 and the L2, and no engine
          hook fills a cache (they queue candidates), so both fills
          install a new line, and the L2's shadow entry for the block
          was already dropped by the probe;
        * the prefetch drain is not running, so the MSHR file's
          ``_min_ready`` is current.

        An evicted line's object is reused for the new block.  Engine
        hooks that a scheme inherits as base no-ops are skipped.
        """
        l1 = self.l1
        l2 = self.l2
        mshrs = self.l2_mshrs
        dram = self.dram
        dcfg = dram.config
        controller = self.controller
        prefetcher = self.prefetcher
        hstats = self.stats
        metrics = self.metrics
        l1_latency = l1.latency
        l1_sets = l1._sets
        l1_index = l1._index
        l1_shift = l1._block_shift
        l1_set_mask = l1._set_mask
        l1_assoc = l1.assoc
        l1stats = l1.stats
        l2_latency = l2.latency
        l2_sets = l2._sets
        l2_index = l2._index
        l2_shadow = l2._shadow
        l2_shift = l2._block_shift
        l2_set_mask = l2._set_mask
        l2_assoc = l2.assoc
        l2stats = self.l2_stats_view()
        l2_fill = l2.fill
        evict_foreign = l2.evict_foreign
        core_id = self.core_id
        inflight = mshrs._inflight
        heap = mshrs._heap
        n_entries = mshrs.num_entries
        dram_access = dram.access
        channel_free = dram._channel_free
        open_rows = dram._open_rows
        busy_cycles = dram.channel_busy_cycles
        d_shift = dram._block_shift
        n_channels = dram._channels
        n_banks = dram._banks
        row_span = dram._channels * dram._blocks_per_row
        row_hit_latency = dcfg.row_hit_latency
        row_miss_latency = dcfg.row_miss_latency
        transfer_cycles = dcfg.transfer_cycles
        dstats = self.dram_stats_view()
        mstats = self.mshr_stats_view()
        prefetch_ready = self._prefetch_ready
        on_l2_access = _engine_hook(prefetcher, "on_l2_access")
        on_l2_miss = _engine_hook(prefetcher, "on_l2_miss")
        probe = _engine_hook(prefetcher, "probe")
        on_demand_fill = _engine_hook(prefetcher, "on_demand_fill")
        heappop = heapq.heappop
        heappush = heapq.heappush
        inf = float("inf")

        def demand_miss(block, addr, now, is_store, ref_id, hint):
            t = now + l1_latency
            # -- The L2 probe: Cache.access_block, inlined.
            l2stats.demand_accesses += 1
            line = l2_index.get(block)
            if line is not None:
                lines = l2_sets[(block >> l2_shift) & l2_set_mask]
                if lines[-1] is not line:
                    lines.remove(line)
                    lines.append(line)  # promote to MRU
                first_use = not line.referenced
                if first_use:
                    line.referenced = True
                    l2stats.useful_prefetches += 1
                if is_store:
                    line.dirty = True
                l2stats.demand_hits += 1
                if on_l2_access is not None:
                    on_l2_access(block, addr, ref_id, hint, t, True)
                completion = t + l2_latency
                # A still-in-flight prefetch makes the hit late; the
                # first touch of a prefetched line is classified
                # (MetricsCollector.on_prefetch_first_use, sink-free).
                ready = prefetch_ready.pop(block, None) \
                    if prefetch_ready else None
                if ready is not None and ready > completion:
                    hstats.late_prefetch_hits += 1
                    completion = ready
                    if first_use:
                        metrics.late_prefetch_uses += 1
                elif first_use:
                    metrics.timely_prefetch_uses += 1
            else:
                l2stats.demand_misses += 1
                if l2_shadow:
                    evicter = l2_shadow.pop(block, None)
                    if evicter is not None:
                        l2stats.pollution_misses += 1
                        if evicter != core_id:
                            l2.interference.note_pollution(evicter, core_id)
                if on_l2_access is not None:
                    on_l2_access(block, addr, ref_id, hint, t, False)
                # -- _l2_miss.
                if on_l2_miss is not None:
                    on_l2_miss(block, addr, ref_id, hint, t)
                if probe is not None \
                        and (probe_ready := probe(block, t)) is not None:
                    # A stream buffer holds the block (rare: stride
                    # schemes only), so the fill stays out of line.
                    completion = t + l2_latency
                    if probe_ready > completion:
                        completion = probe_ready
                    writeback = l2_fill(block, False, is_store)
                    if writeback is not None:
                        dram_access(writeback, completion, "writeback")
                    if block == controller._held_block:
                        controller._blocked_until = -1.0
                else:
                    # MSHRFile._reclaim(t), inlined.
                    min_ready = mshrs._min_ready
                    if t >= min_ready:
                        while heap and heap[0][0] <= t:
                            r, b = heappop(heap)
                            if inflight.get(b) == r:
                                del inflight[b]
                        min_ready = mshrs._min_ready = \
                            heap[0][0] if heap else inf
                    merged = inflight.get(block)
                    if merged is not None:
                        # Merge into the outstanding fill.
                        mstats.merges += 1
                        hstats.mshr_merge_waits += 1
                        completion = t + l2_latency
                        if merged >= completion:
                            completion = merged
                    else:
                        if len(inflight) < n_entries:
                            start = t
                        else:
                            # Stall until the earliest fill completes
                            # (MSHRFile.earliest_ready, inlined).
                            mstats.stalls += 1
                            r, b = heap[0]
                            while inflight.get(b) != r:
                                heappop(heap)
                                r, b = heap[0]
                            start = r if r > t else t
                        # DRAMSystem.access(block, start, "demand"),
                        # inlined (max() tie direction included).
                        nblk = block >> d_shift
                        ch = nblk % n_channels
                        per = nblk // row_span
                        bank = per % n_banks
                        row = per // n_banks
                        s = channel_free[ch]
                        if start >= s:
                            s = start
                        bank_rows = open_rows[ch]
                        if bank_rows[bank] == row:
                            latency = row_hit_latency
                            dstats.row_hits += 1
                        else:
                            latency = row_miss_latency
                            dstats.row_misses += 1
                            bank_rows[bank] = row
                        channel_free[ch] = s + transfer_cycles
                        busy_cycles[ch] += transfer_cycles
                        dstats.demand_blocks += 1
                        ready = s + latency
                        if ready > controller.demand_busy_until:
                            controller.demand_busy_until = ready
                        # MSHRFile.allocate(block, ready, start), inlined.
                        if start >= min_ready:
                            while heap and heap[0][0] <= start:
                                r, b = heappop(heap)
                                if inflight.get(b) == r:
                                    del inflight[b]
                            min_ready = heap[0][0] if heap else inf
                        if len(inflight) >= n_entries:
                            raise RuntimeError(
                                "MSHR overflow: allocate without a free "
                                "entry")
                        inflight[block] = ready
                        heappush(heap, (ready, block))
                        if ready < min_ready:
                            min_ready = ready
                        mshrs._min_ready = min_ready
                        mstats.allocations += 1
                        # The L2 demand fill: Cache.fill, inlined, with
                        # its dirty victim's writeback (at `ready`).
                        lines = l2_sets[(block >> l2_shift) & l2_set_mask]
                        if len(lines) >= l2_assoc:
                            line = lines.pop(0)  # LRU
                            del l2_index[line.block]
                            if line.owner != core_id:
                                evict_foreign(line, core_id, False)
                            if line.prefetched:
                                if not line.referenced:
                                    l2stats.useless_evicted_prefetches += 1
                                    line.referenced = True
                                line.prefetched = False
                            if line.dirty:
                                l2stats.writebacks += 1
                                dram_access(line.block, ready, "writeback")
                            line.block = block
                            line.dirty = is_store
                        else:
                            line = CacheLine(block, False, core_id)
                            if is_store:
                                line.dirty = True
                        lines.append(line)  # MRU
                        l2_index[block] = line
                        if block == controller._held_block:
                            # A demand fetch beat the held prefetch
                            # candidate to its own block.
                            controller._blocked_until = -1.0
                        if prefetch_ready:
                            prefetch_ready.pop(block, None)
                        if on_demand_fill is not None:
                            on_demand_fill(block, ref_id, hint, ready)
                        completion = ready
            # -- The L1 fill: Cache.fill, inlined.
            lines = l1_sets[(block >> l1_shift) & l1_set_mask]
            if len(lines) < l1_assoc:
                line = CacheLine(block)
                if is_store:
                    line.dirty = True
                lines.append(line)
                l1_index[block] = line
                return completion
            line = lines.pop(0)  # LRU
            victim = line.block
            del l1_index[victim]
            dirty = line.dirty
            line.block = block
            line.dirty = is_store
            lines.append(line)
            l1_index[block] = line
            if not dirty:
                return completion
            # The dirty L1 victim merges into the L2 (Cache.fill of a
            # clean demand line, inlined; its own writeback is dropped,
            # as the decomposed chain drops it).  A resident copy keeps
            # its dirty bit as it was, so a clean one loses the store:
            # the chain's known deviation (DESIGN §3d), kept here for
            # byte identity.
            l1stats.writebacks += 1
            line = l2_index.get(victim)
            lines = l2_sets[(victim >> l2_shift) & l2_set_mask]
            if line is not None:
                if lines[-1] is not line:
                    lines.remove(line)
                    lines.append(line)
            else:
                if len(lines) >= l2_assoc:
                    line = lines.pop(0)
                    del l2_index[line.block]
                    if line.owner != core_id:
                        evict_foreign(line, core_id, False)
                    if line.prefetched:
                        if not line.referenced:
                            l2stats.useless_evicted_prefetches += 1
                            line.referenced = True
                        line.prefetched = False
                    if line.dirty:
                        l2stats.writebacks += 1
                        line.dirty = False
                    line.block = victim
                else:
                    line = CacheLine(victim, False, core_id)
                if l2_shadow:
                    l2_shadow.pop(victim, None)
                lines.append(line)
                l2_index[victim] = line
            if victim == controller._held_block:
                # The held prefetch candidate just became L2-resident.
                controller._blocked_until = -1.0
            return completion

        return demand_miss

    # ------------------------------------------------------------------
    def directive(self, event, now):
        """Forward a software directive (loop bound / indirect prefetch)."""
        if self.prefetcher is not None:
            self.prefetcher.on_directive(event, now)

    def finish(self, now):
        """Flush prefetch issue at end of simulation (for traffic totals)."""
        self.controller.drain(now)
        self.metrics.finalize(self, now)

    # ------------------------------------------------------------------
    # Stats views: this core's slice of the (possibly shared) levels.
    # ------------------------------------------------------------------
    def l2_stats_view(self):
        """This core's L2 counters: the shared stats when private, the
        per-core attribution slice when the L2 is shared."""
        if self._shared is None:
            return self.l2.stats
        return self.l2.core_stats[self.core_id]

    def dram_stats_view(self):
        """This core's DRAM traffic counters (see :meth:`l2_stats_view`)."""
        if self._shared is None:
            return self.dram.stats
        return self.dram.core_stats[self.core_id]

    def mshr_stats_view(self):
        """This core's MSHR counters (see :meth:`l2_stats_view`)."""
        if self._shared is None:
            return self.l2_mshrs.stats
        return self.l2_mshrs.core_stats[self.core_id]

    def resident_unreferenced_view(self):
        """Resident never-referenced prefetch count owned by this core."""
        if self._shared is None:
            return self.l2.resident_unreferenced_prefetches()
        return self.l2.resident_unreferenced_prefetches(owner=self.core_id)

    def traffic_bytes(self):
        """This core's DRAM traffic (demand + prefetch + writeback), bytes."""
        return self.dram_stats_view().bytes_transferred(self.block_size)

    def prefetch_accuracy(self):
        """Fraction of prefetched blocks referenced before leaving the L2.

        Counts prefetches still resident-but-unreferenced as useless, plus
        any prefetcher-private fills (stream buffers) via the engine stats.
        """
        l2stats = self.l2_stats_view()
        fills = l2stats.prefetch_fills
        useful = l2stats.useful_prefetches
        if self.prefetcher is not None:
            fills += self.prefetcher.private_fills
            useful += self.prefetcher.private_useful
        if fills == 0:
            return 0.0
        return useful / fills
