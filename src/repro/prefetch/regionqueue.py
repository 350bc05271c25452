"""The SRP/GRP prefetch queue.

The queue (Section 3.1 of the paper) holds *region entries*.  Each entry
describes one aligned memory region and carries:

* the region base address,
* a bitvector of candidate blocks still to prefetch (64 bits for the
  default 4 KB region / 64 B blocks),
* an index pointing at the next candidate after the most recent miss,
* a 3-bit pointer-chase depth counter (0 for plain spatial regions; 1 for
  ``pointer``-hinted prefetches; ``recursive_depth`` for recursive ones).

New entries go to the head; the queue is fixed-size and old entries fall
off the bottom.  Issue order is LIFO (most recent region first — the paper's
scheduling policy) with an open-DRAM-page preference among a head entry's
candidate blocks.
"""

from operator import attrgetter

from repro.mem.controller import PrefetchRequest
from repro.mem.layout import block_index_in_region, region_base


#: An entry's ``(base, nblocks)`` and its ``nblocks``, read in C by the
#: covering-entry search.
_geometry_of = attrgetter("base", "nblocks")
_nblocks_of = attrgetter("nblocks")


class RegionEntry:
    """One region being prefetched."""

    __slots__ = ("base", "bitvec", "nblocks", "index", "depth", "queued_at")

    def __init__(self, base, bitvec, nblocks, index, depth, queued_at):
        self.base = base
        self.bitvec = bitvec
        self.nblocks = nblocks
        self.index = index
        self.depth = depth
        self.queued_at = queued_at

    def candidate_count(self):
        return bin(self.bitvec).count("1")

    def __repr__(self):
        return "RegionEntry(0x%x %d blocks, %d pending)" % (
            self.base,
            self.nblocks,
            self.candidate_count(),
        )


class RegionQueue:
    """Fixed-size LIFO (or FIFO, for ablation) queue of region entries."""

    def __init__(
        self,
        capacity,
        region_size,
        block_size,
        is_resident=None,
        policy="lifo",
        resident_map=None,
    ):
        if policy not in ("lifo", "fifo"):
            raise ValueError("queue policy must be 'lifo' or 'fifo'")
        self.capacity = capacity
        self.region_size = region_size
        self.block_size = block_size
        self.is_resident = is_resident
        #: Optional live mapping keyed by the resident blocks (see
        #: :attr:`repro.mem.cache.Cache.resident_map`); when given it
        #: replaces an ``is_resident`` call per probed block with a key
        #: test or a key-set intersection on the region-allocation paths.
        self.resident_map = resident_map
        self.policy = policy
        self._lifo = policy == "lifo"
        self._entries = []  # index 0 = head (most recent)
        self._held = None  # candidate returned by push_back
        #: Denormalized row-probe geometry of the most recent ``dram``
        #: argument (see :meth:`pop_candidate`): the geometry fields are
        #: fixed at DRAMSystem construction, so one identity check
        #: replaces four attribute loads on every pop.
        self._geo_src = None
        self._geo = None
        self.regions_allocated = 0
        self.regions_dropped = 0
        self.candidates_issued = 0
        self.region_splits = 0

    def __len__(self):
        return len(self._entries)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _find_covering(self, miss_block):
        """Position of the entry whose span contains ``miss_block``, or -1.

        Entries may carry different region sizes (variable-size regions),
        so containment is tested against each entry's *own* span rather
        than a base address computed with the caller's region size —
        matching by recomputed base could alias a different entry and
        clear the wrong bitvector bit.

        Every entry is an aligned region of a power-of-two span (its base
        comes from ``region_base`` with that span), so an entry of
        ``nblocks`` blocks contains ``miss_block`` exactly when its
        ``(base, nblocks)`` is ``miss_block``'s aligned base for that span
        and ``nblocks``.  The search probes one such key per distinct
        entry size, with the queue's geometry listed and searched in C,
        and returns the first position any probe finds.
        """
        entries = self._entries
        if not entries:
            return -1
        geometry = list(map(_geometry_of, entries))
        found = -1
        for nblocks in set(map(_nblocks_of, entries)):
            key = (miss_block & ~(nblocks * self.block_size - 1), nblocks)
            if key in geometry:
                pos = geometry.index(key)
                if found < 0 or pos < found:
                    found = pos
        return found

    def allocate_region(self, miss_block, now, region_size=None, depth=0):
        """Allocate (or refresh) the region containing ``miss_block``.

        On the first miss to a region the bitvector is initialised to the
        blocks not already resident in the L2 (excluding the miss block
        itself, which the demand fetch brings in).  On a repeat miss the
        existing entry's miss bit is cleared, its index advances past the
        new miss, and the entry moves to the head; indices are re-derived
        from the entry's own geometry, which may differ from ``rsize``.
        """
        rsize = region_size or self.region_size
        pos = self._find_covering(miss_block)
        if pos >= 0:
            entry = self._entries.pop(pos)
            miss_index = (miss_block - entry.base) // self.block_size
            entry.bitvec &= ~(1 << miss_index)
            entry.index = (miss_index + 1) % entry.nblocks
            entry.queued_at = now
            self._entries.insert(0, entry)
            return entry
        base = region_base(miss_block, rsize)
        nblocks = rsize // self.block_size
        miss_index = block_index_in_region(miss_block, rsize, self.block_size)
        bsize = self.block_size
        bitvec = ((1 << nblocks) - 1) ^ (1 << miss_index)
        resident_map = self.resident_map
        if resident_map is not None:
            # The region's resident blocks, found by a set intersection
            # that runs in C; each clears its bit.
            for block in resident_map.keys() & range(
                    base, base + rsize, bsize):
                bitvec &= ~(1 << (block - base) // bsize)
        else:
            is_resident = self.is_resident
            if is_resident is not None:
                for i in range(nblocks):
                    if i != miss_index and is_resident(base + i * bsize):
                        bitvec ^= 1 << i
        entry = RegionEntry(
            base, bitvec, nblocks, (miss_index + 1) % nblocks, depth, now
        )
        self._insert(entry)
        return entry

    def allocate_blocks(self, blocks, now, depth=0):
        """Allocate entries for an explicit block list (pointer/indirect).

        Pointer and indirect prefetches are region-style entries with only
        the named blocks' bits set (typically the target block plus its
        successor).  A block list that straddles an aligned-region boundary
        — a pointer target in the last block of a region, say — is split
        into one entry per region, so no named block is ever silently
        dropped.  Returns the list of entries created (possibly empty when
        every block is already resident).
        """
        if not blocks:
            return []
        nblocks = self.region_size // self.block_size
        groups = {}
        for block in blocks:
            groups.setdefault(
                region_base(block, self.region_size), []
            ).append(block)
        if len(groups) > 1:
            self.region_splits += 1
        entries = []
        resident_map = self.resident_map
        for base, group in groups.items():
            bitvec = 0
            for block in group:
                if resident_map is not None:
                    if block in resident_map:
                        continue
                elif self.is_resident is not None and self.is_resident(block):
                    continue
                idx = block_index_in_region(
                    block, self.region_size, self.block_size
                )
                bitvec |= 1 << idx
            if bitvec == 0:
                continue
            first = block_index_in_region(
                group[0], self.region_size, self.block_size
            )
            entry = RegionEntry(base, bitvec, nblocks, first, depth, now)
            self._insert(entry)
            entries.append(entry)
        return entries

    def flush(self):
        """Drop every queued entry (and any held candidate).

        Returns the number of candidate blocks discarded.  Used by the
        adaptive throttle policy when it disables prefetching: stale
        candidates must not keep trickling out of the queue afterwards.
        """
        count = sum(entry.candidate_count() for entry in self._entries)
        self._entries.clear()
        if self._held is not None:
            count += 1
            self._held = None
        return count

    def _insert(self, entry):
        self.regions_allocated += 1
        self._entries.insert(0, entry)
        if len(self._entries) > self.capacity:
            self._entries.pop()  # old entries fall off the bottom
            self.regions_dropped += 1

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def has_candidates(self):
        """True when a pop could yield a request *or* prune an entry.

        Deliberately counts entries with exhausted bitvectors: popping
        prunes them, which changes the queue depth the metrics layer
        samples, so callers must not skip the pop while any entry exists.
        """
        return self._held is not None or bool(self._entries)

    def pop_candidate(self, now, dram=None):
        """Return the next :class:`PrefetchRequest`, or None when empty."""
        if self._held is not None:
            request, self._held = self._held, None
            return request
        entries = self._entries
        if not entries:
            return None
        lifo = self._lifo
        bsize = self.block_size
        if dram is not None:
            # Row-probe state, denormalized out of DRAMSystem: the open-row
            # preference scan below replicates row_is_open per candidate.
            # Duck-typed DRAM stands-ins (tests) keep the method call.
            # The geometry is immutable per DRAMSystem, so it is derived
            # once per distinct ``dram`` and replayed from ``_geo`` on
            # every later pop (the hottest call of the issue loop).
            if dram is not self._geo_src:
                open_rows = getattr(dram, "_open_rows", None)
                if open_rows is not None:
                    self._geo = (
                        open_rows, dram._block_shift, dram._channels,
                        dram._banks, dram._blocks_per_row,
                    )
                else:
                    self._geo = None
                self._geo_src = dram
            geo = self._geo
            if geo is not None:
                open_rows, blk_shift, n_channels, n_banks, \
                    blocks_per_row = geo
            else:
                open_rows = None
                row_is_open = dram.row_is_open
        while entries:
            pos = 0 if lifo else len(entries) - 1
            entry = entries[pos]
            # Pick (and clear) the entry's next candidate bit: scan the
            # set bits from the entry's index, wrapping, prefer the first
            # candidate whose DRAM row is open, and fall back to the first
            # candidate in scan order.  The bitvector is rotated so the
            # wrapped order starts at bit 0, and only the set bits are
            # walked (isolate lowest, clear, repeat).
            bitvec = entry.bitvec
            if bitvec == 0:
                entries.pop(pos)
                continue
            nblocks = entry.nblocks
            index = entry.index
            base = entry.base
            rot = ((bitvec >> index) | (bitvec << (nblocks - index))) \
                & ((1 << nblocks) - 1)
            first_index = None
            block = None
            if dram is not None:
                while rot:
                    i = index + (rot & -rot).bit_length() - 1
                    if i >= nblocks:
                        i -= nblocks
                    if first_index is None:
                        first_index = i
                    addr = base + i * bsize
                    if open_rows is not None:
                        nblk = addr >> blk_shift
                        per = nblk // n_channels // blocks_per_row
                        is_open = (
                            open_rows[nblk % n_channels][per % n_banks]
                            == per // n_banks
                        )
                    else:
                        is_open = row_is_open(addr)
                    if is_open:
                        block = addr
                        break
                    rot &= rot - 1
            else:
                first_index = index + (rot & -rot).bit_length() - 1
                if first_index >= nblocks:
                    first_index -= nblocks
            if block is None:
                i = first_index
                block = base + i * bsize
            entry.bitvec = bitvec & ~(1 << i)
            entry.index = (i + 1) % nblocks
            self.candidates_issued += 1
            return PrefetchRequest(
                block, entry.queued_at, depth=entry.depth, meta=entry
            )
        return None

    def push_back(self, request):
        """Hold an unissuable candidate; it is returned by the next pop."""
        self._held = request
