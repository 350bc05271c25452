"""Set-associative cache with the SRP prefetch-placement policy.

The paper controls cache pollution by inserting prefetched blocks at the
**LRU** position of the target set and only promoting them to MRU when the
CPU references them explicitly (Section 3.1).  In an ``n``-way set, useless
prefetches can therefore displace at most ``1/n`` of the useful data.

Each set is an ordered list of :class:`CacheLine`, index 0 = LRU, last =
MRU.  A cache-wide tag index (``{block: CacheLine}``) makes membership
tests O(1) — the simulate loop probes residency far more often than it
hits — while the per-set lists, at most ``assoc`` (2 or 4) entries long,
keep the replacement order obvious.
"""

from collections import OrderedDict

from repro.mem.layout import is_power_of_two


def normalize_prefetch_insert(value, assoc):
    """Map a prefetch insertion spec to an integer depth.

    Depth 0 is the LRU position (the paper's pollution control), ``assoc``
    (or anything >= the set occupancy) is MRU.  The historical string
    policies remain as aliases: ``"lru"`` -> 0, ``"mru"`` -> ``assoc``.
    Raises ValueError for anything else — unknown strings, negative or
    non-integer depths.
    """
    if value == "lru":
        return 0
    if value == "mru":
        return assoc
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            "prefetch_insert must be 'lru', 'mru', or a non-negative "
            "integer insertion depth, not %r" % (value,))
    if value < 0:
        raise ValueError(
            "prefetch insertion depth must be >= 0, not %d" % value)
    return value


class CacheLine:
    """One resident block: tag plus the bookkeeping bits the policy needs.

    ``owner`` is the id of the core whose fill installed the line; it is
    always 0 in a single-core hierarchy.  An eviction compares it with
    the evicting core to find cross-core evictions in a shared cache
    (see :meth:`Cache.enable_core_stats`).
    """

    __slots__ = ("block", "dirty", "prefetched", "referenced", "owner")

    def __init__(self, block, prefetched=False, owner=0):
        self.block = block
        self.dirty = False
        self.prefetched = prefetched
        self.referenced = not prefetched
        self.owner = owner

    def __repr__(self):
        return "CacheLine(0x%x%s%s)" % (
            self.block,
            " pf" if self.prefetched else "",
            " dirty" if self.dirty else "",
        )


class CacheStats:
    """Counters for one cache level.

    Prefetch accuracy is defined as in the paper's Table 5: the fraction of
    prefetched blocks that the CPU references before they leave the cache.
    Blocks still resident-but-unreferenced at the end of simulation count as
    useless, which ``finalize`` folds in.
    """

    def __init__(self):
        self.demand_accesses = 0
        self.demand_hits = 0
        self.demand_misses = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0
        self.useless_evicted_prefetches = 0
        self.writebacks = 0
        self.prefetch_hits_squashed = 0
        #: Demand misses to blocks a prefetch fill evicted (shadow-tag
        #: attribution): the paper's cache-pollution cost, directly.
        self.pollution_misses = 0
        #: Evictions caused by prefetch fills (the shadow set's inflow).
        self.prefetch_evictions = 0

    @property
    def miss_rate(self):
        """Demand miss rate (misses / accesses); 0.0 when idle."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    def prefetch_accuracy(self, resident_unreferenced=0):
        """Fraction of prefetched blocks the CPU referenced.

        The denominator is the *decided* prefetches — useful plus evicted
        useless — plus ``resident_unreferenced``, the caller's count of
        prefetched lines still resident and untouched (see
        :meth:`Cache.resident_unreferenced_prefetches`).  Passing that
        count folds the stragglers in as useless, which is the paper's
        end-of-run definition; at that point the denominator equals
        ``prefetch_fills`` exactly.  With the default of 0, accuracy is
        over decided prefetches only — the mid-run reading, where
        still-resident lines haven't had their chance yet.
        """
        decided = self.useful_prefetches + self.useless_evicted_prefetches
        denominator = decided + resident_unreferenced
        if denominator == 0:
            return 0.0
        return self.useful_prefetches / denominator

    def snapshot(self):
        """Return a plain dict of the counters (for reports and tests)."""
        return {
            "demand_accesses": self.demand_accesses,
            "demand_hits": self.demand_hits,
            "demand_misses": self.demand_misses,
            "prefetch_fills": self.prefetch_fills,
            "useful_prefetches": self.useful_prefetches,
            "useless_evicted_prefetches": self.useless_evicted_prefetches,
            "writebacks": self.writebacks,
            "pollution_misses": self.pollution_misses,
            "prefetch_evictions": self.prefetch_evictions,
            "miss_rate": self.miss_rate,
        }


class Cache:
    """A write-back, write-allocate, LRU set-associative cache."""

    def __init__(self, name, size, assoc, block_size, latency,
                 prefetch_insert="lru"):
        if not is_power_of_two(block_size):
            raise ValueError("block size must be a power of two")
        if size % (assoc * block_size) != 0:
            raise ValueError(
                "cache size %d not divisible by assoc*block (%d*%d)"
                % (size, assoc, block_size)
            )
        self.name = name
        self.size = size
        self.prefetch_insert = prefetch_insert
        self.prefetch_insert_depth = normalize_prefetch_insert(
            prefetch_insert, assoc)
        self.assoc = assoc
        self.block_size = block_size
        self.latency = latency
        self.num_sets = size // (assoc * block_size)
        if not is_power_of_two(self.num_sets):
            raise ValueError("number of sets must be a power of two")
        self._sets = [[] for _ in range(self.num_sets)]
        self._set_mask = self.num_sets - 1
        self._block_shift = block_size.bit_length() - 1
        self._block_mask = ~(block_size - 1)
        #: Tag index: {resident block -> its CacheLine}.  Makes membership
        #: (the common case on the miss-heavy paths: ``contains``, fills,
        #: miss detection) one dict probe; the per-set LRU lists are only
        #: scanned on hits, where they hold at most ``assoc`` lines.
        self._index = {}
        self.stats = CacheStats()
        #: Shadow victim set for pollution attribution: blocks most
        #: recently evicted *by a prefetch fill*.  A demand miss that hits
        #: this set is a pollution miss — the prefetch displaced data the
        #: program still needed.  Bounded to one full tag array's worth of
        #: entries (FIFO), like a hardware shadow-tag structure.
        #: Re-shadowing a still-present block keeps its queue position,
        #: and ``popitem(last=False)`` drops the oldest entry in O(1).  A
        #: plain dict would have to find its oldest key by walking past
        #: every deleted slot at the front of its table.
        self._shadow = OrderedDict()
        self._shadow_capacity = self.num_sets * assoc
        #: Optional observer with ``on_fill(cache, block, prefetched)``,
        #: ``on_evict(cache, block, prefetched, referenced, by_prefetch)``,
        #: ``on_demand_hit(cache, block, first_use)`` and
        #: ``on_demand_miss(cache, block, polluted)`` hooks — the metrics
        #: layer's tracing tap.  None (the default) costs one comparison
        #: per event.
        self.observer = None
        #: Per-core attribution (multi-core shared caches only): a list
        #: of :class:`CacheStats`, one per core, or None (the default).
        #: See :meth:`enable_core_stats` for the attribution rules.
        self.core_stats = None
        #: The core whose fills install lines (their ``owner``) and whose
        #: prefetch fills the shadow set records as the evicter; 0 in a
        #: single-core hierarchy.
        self.active_core = 0
        #: Optional cross-core interference tap (duck-typed; see
        #: ``repro.sim.multicore.InterferenceMatrix``).  Only consulted
        #: on cross-core evictions and pollution misses.
        self.interference = None

    # ------------------------------------------------------------------
    def access(self, addr, is_store=False):
        """Demand access to the block containing ``addr``.

        Returns True on hit.  Hits promote the line to MRU; a first demand
        touch of a prefetched line records a useful prefetch.  Misses are
        counted but the fill is the caller's job (via :meth:`fill`), because
        fill timing depends on the memory system.
        """
        return self.access_block(addr & self._block_mask, is_store=is_store)

    def access_block(self, block, is_store=False):
        """:meth:`access` for callers that already hold the block base."""
        stats = self.stats
        stats.demand_accesses += 1
        line = self._index.get(block)
        if line is None:
            stats.demand_misses += 1
            # The shadow set stores the evicting core's id (0 in a
            # single-core hierarchy); presence alone marks pollution.
            evicter = self._shadow.pop(block, None)
            polluted = evicter is not None
            if polluted:
                stats.pollution_misses += 1
                active = self.active_core
                if evicter != active and self.interference is not None:
                    self.interference.note_pollution(evicter, active)
            if self.observer is not None:
                self.observer.on_demand_miss(self, block, polluted)
            return False
        lines = self._sets[(block >> self._block_shift) & self._set_mask]
        if lines[-1] is not line:
            lines.remove(line)
            lines.append(line)  # promote to MRU
        first_use = not line.referenced
        if first_use:
            # The accessing core owns the line: co-running cores touch
            # disjoint address ranges.
            line.referenced = True
            stats.useful_prefetches += 1
        if is_store:
            line.dirty = True
        stats.demand_hits += 1
        if self.observer is not None:
            self.observer.on_demand_hit(self, block, first_use)
        return True

    def contains(self, addr):
        """Return True when ``addr``'s block is resident.  No side effects."""
        return (addr & self._block_mask) in self._index

    def contains_block(self, block):
        """:meth:`contains` for callers that already hold the block base."""
        return block in self._index

    @property
    def resident_map(self):
        """Live mapping whose keys are the resident block addresses.

        Residency-probe-heavy callers use it instead of a
        :meth:`contains_block` call per block: the region queue
        intersects its keys with a new region's block range, and the
        explicit-block paths test ``block in resident_map``.  Callers
        must treat the mapping as read-only.
        """
        return self._index

    def fill(self, addr, prefetched=False, is_store=False):
        """Install the block containing ``addr``.

        Demand fills go to MRU; prefetch fills go to the configured
        insertion depth (LRU by default — the paper's pollution control).
        Returns the evicted block address when
        a dirty line was displaced (the caller issues the writeback), else
        None.  A prefetch fill of an already-resident block is squashed.
        """
        block = addr & self._block_mask
        index = self._index
        existing = index.get(block)
        if existing is not None:
            if prefetched:
                # Redundant prefetch: block already arrived (e.g. via a
                # demand miss that raced the prefetch).  Nothing to do.
                self.stats.prefetch_hits_squashed += 1
                return None
            lines = self._sets[(block >> self._block_shift) & self._set_mask]
            if lines[-1] is not existing:
                lines.remove(existing)
                lines.append(existing)
            if is_store:
                existing.dirty = True
            return None
        stats = self.stats
        active = self.active_core
        shadow = self._shadow
        lines = self._sets[(block >> self._block_shift) & self._set_mask]
        writeback = None
        if len(lines) >= self.assoc:
            victim = lines.pop(0)  # LRU
            del index[victim.block]
            if self.observer is not None:
                self.observer.on_evict(self, victim.block, victim.prefetched,
                                       victim.referenced, prefetched)
            if victim.owner != active:
                self.evict_foreign(victim, active, prefetched)
            if victim.prefetched and not victim.referenced:
                stats.useless_evicted_prefetches += 1
            if prefetched:
                # Shadow the victim: a later demand miss to it is cache
                # pollution chargeable to this prefetch fill.  The stored
                # value is the evicting core's id (0 single-core).
                stats.prefetch_evictions += 1
                shadow[victim.block] = active
                if len(shadow) > self._shadow_capacity:
                    shadow.popitem(last=False)  # FIFO: oldest entry
            if victim.dirty:
                stats.writebacks += 1
                writeback = victim.block
        # The block is resident again: any pending pollution attribution
        # against it is moot.
        shadow.pop(block, None)
        line = CacheLine(block, prefetched=prefetched, owner=active)
        if is_store:
            line.dirty = True
        if prefetched:
            depth = self.prefetch_insert_depth
            if depth >= len(lines):
                lines.append(line)  # MRU
            else:
                lines.insert(depth, line)  # 0 = LRU: pollution control
        else:
            lines.append(line)  # MRU
        index[block] = line
        if prefetched:
            stats.prefetch_fills += 1
        if self.observer is not None:
            self.observer.on_fill(self, block, prefetched)
        return writeback

    def evict_foreign(self, line, core_id, by_prefetch):
        """Charge another core's share of an eviction by ``core_id``.

        ``line`` was just evicted from a shared cache by a fill of core
        ``core_id`` but belongs to another core.  A never-referenced
        prefetch is its owner's useless prefetch, and the eviction is
        cross-core interference.  The line is then marked referenced and
        owned by ``core_id``, so the evicting core's own accounting skips
        it and a caller may recycle the object for its new block.
        """
        if line.prefetched and not line.referenced:
            self.core_stats[line.owner].useless_evicted_prefetches += 1
            line.referenced = True
        if self.interference is not None:
            self.interference.note_eviction(core_id, line.owner, by_prefetch)
        line.owner = core_id

    def set_prefetch_insert(self, value):
        """Change the prefetch insertion policy live.

        Accepts the same forms as the constructor (``"lru"``/``"mru"`` or
        an integer depth); resident lines keep their current positions —
        only future fills see the new depth.  This is the adaptive
        throttle policy's insertion-depth knob.
        """
        self.prefetch_insert_depth = normalize_prefetch_insert(
            value, self.assoc)
        self.prefetch_insert = value

    def invalidate(self, addr):
        """Drop ``addr``'s block if resident; returns True if it was."""
        block = addr & self._block_mask
        line = self._index.pop(block, None)
        if line is None:
            return False
        self._sets[(block >> self._block_shift) & self._set_mask].remove(line)
        return True

    def resident_blocks(self):
        """Yield all resident block addresses (for tests and invariants)."""
        for lines in self._sets:
            for line in lines:
                yield line.block

    def enable_core_stats(self, n_cores):
        """Switch on per-core attribution for a shared cache.

        Allocates one :class:`CacheStats` per core.  Each event is then
        counted once, in one slice.  The methods here count into
        :attr:`stats`, which the co-run points at the stepping core's
        slice together with :attr:`active_core`
        (``SharedMemorySystem.set_active``).  Each hierarchy's one-frame
        demand miss and prefetch drain bind their own core's slice, since
        they only run while that core steps.  The slices sum to the
        shared totals, which the co-run takes when it ends
        (``SharedMemorySystem.sum_slices``).  Who is charged:

        * demand accesses / hits / misses / pollution misses and useful
          prefetches — the **accessing** core, which also owns the line
          it hits (co-running cores touch disjoint address ranges);
        * prefetch fills, prefetch evictions, writebacks — the **active**
          core whose fill or eviction performed the work;
        * useless evicted prefetches — the line's **owner** (the core
          whose fill installed it).

        Cross-core events (a fill evicting another core's line, a demand
        miss to a block another core's prefetch displaced) are
        additionally reported to :attr:`interference` when set.
        """
        self.core_stats = [CacheStats() for _ in range(n_cores)]
        self.stats = self.core_stats[self.active_core]
        return self.core_stats

    def resident_unreferenced_prefetches(self, owner=None):
        """Count prefetched blocks never demanded (for final accuracy).

        With ``owner`` set, count only lines installed by that core —
        the per-core accuracy denominator in a shared cache.
        """
        count = 0
        for lines in self._sets:
            for line in lines:
                if line.prefetched and not line.referenced \
                        and (owner is None or line.owner == owner):
                    count += 1
        return count

    def __len__(self):
        return len(self._index)
