"""Multi-channel banked DRAM with open-page row buffers.

Models the paper's 4-channel Direct Rambus memory system at the fidelity the
prefetching results depend on:

* **Channel occupancy** — each 64-byte transfer occupies its channel for a
  fixed number of CPU cycles, so aggressive prefetching can saturate
  channels and the access prioritizer has real idle time to schedule into.
* **Open-page row buffers** — per-bank last-open row; accesses that hit the
  open row are substantially faster.  The SRP queue prefers candidates whose
  DRAM page is already open.
* **Bank conflicts** are folded into the row-miss penalty; finer-grained
  bank timing does not change who wins between the prefetch schemes.

All times are in CPU cycles (the paper's core is 1.6 GHz against an
effective 800 MHz memory system, hence latencies of a couple hundred
cycles for a row miss seen from the core).
"""


class DRAMConfig:
    """Timing and geometry parameters for the DRAM system."""

    def __init__(
        self,
        channels=4,
        banks_per_channel=8,
        row_size=2048,
        row_hit_latency=80,
        row_miss_latency=200,
        transfer_cycles=16,
        block_size=64,
    ):
        self.channels = channels
        self.banks_per_channel = banks_per_channel
        self.row_size = row_size
        self.row_hit_latency = row_hit_latency
        self.row_miss_latency = row_miss_latency
        self.transfer_cycles = transfer_cycles
        self.block_size = block_size

    def scaled(self, **overrides):
        """Return a copy with selected fields overridden."""
        params = dict(
            channels=self.channels,
            banks_per_channel=self.banks_per_channel,
            row_size=self.row_size,
            row_hit_latency=self.row_hit_latency,
            row_miss_latency=self.row_miss_latency,
            transfer_cycles=self.transfer_cycles,
            block_size=self.block_size,
        )
        params.update(overrides)
        return DRAMConfig(**params)


class DRAMStats:
    """Traffic and row-buffer counters for the DRAM system."""

    def __init__(self):
        self.demand_blocks = 0
        self.prefetch_blocks = 0
        self.writeback_blocks = 0
        self.row_hits = 0
        self.row_misses = 0

    def bytes_transferred(self, block_size):
        """Total DRAM traffic in bytes (demand + prefetch + writeback)."""
        blocks = self.demand_blocks + self.prefetch_blocks + self.writeback_blocks
        return blocks * block_size

    @property
    def row_hit_rate(self):
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class DRAMSystem:
    """The banked, channel-interleaved DRAM array."""

    def __init__(self, config=None):
        self.config = config or DRAMConfig()
        cfg = self.config
        self._channel_free = [0] * cfg.channels
        # open_rows[channel][bank] -> row id (or None)
        self._open_rows = [
            [None] * cfg.banks_per_channel for _ in range(cfg.channels)
        ]
        self._block_shift = cfg.block_size.bit_length() - 1
        # Geometry constants, denormalized out of the config: the address
        # decomposition runs per transfer and per row-open probe.
        self._channels = cfg.channels
        self._banks = cfg.banks_per_channel
        self._blocks_per_row = cfg.row_size // cfg.block_size
        #: Cumulative cycles each channel spent transferring data — the
        #: numerator of per-channel utilization (busy / elapsed cycles).
        self.channel_busy_cycles = [0] * cfg.channels
        #: The counting target: this system's :class:`DRAMStats`, or, in
        #: a shared co-run DRAM, the stepping core's slice.
        self.stats = DRAMStats()
        #: Per-core slices (shared multi-core DRAM only), or None (the
        #: default); see :meth:`enable_core_stats`.
        self.core_stats = None

    def enable_core_stats(self, n_cores):
        """Switch on per-core traffic attribution for a shared DRAM.

        Allocates one :class:`DRAMStats` per core.  Each transfer is
        counted once, in the slice of the core that issued it: the
        co-run points :attr:`stats` at the stepping core's slice, and a
        hierarchy's inlined transfers (the one-frame demand miss, the
        prefetch drain) bind their own core's slice.  The shared totals
        are the slices' sums, taken when the co-run ends.
        """
        self.core_stats = [DRAMStats() for _ in range(n_cores)]
        self.stats = self.core_stats[0]
        return self.core_stats

    @property
    def core_busy_cycles(self):
        """Channel cycles each core's transfers occupied, or None.

        Every transfer occupies its channel for ``transfer_cycles``, so a
        core's total is that times its slice's transfer count.  A
        non-integer ``transfer_cycles`` is summed transfer by transfer
        instead, the order a running total would have added it in.
        """
        if self.core_stats is None:
            return None
        cycles = self.config.transfer_cycles
        busy = []
        for stats in self.core_stats:
            transfers = (stats.demand_blocks + stats.prefetch_blocks
                         + stats.writeback_blocks)
            if isinstance(cycles, int):
                busy.append(cycles * transfers)
            else:
                total = 0
                for _ in range(transfers):
                    total += cycles
                busy.append(total)
        return busy

    # ------------------------------------------------------------------
    # Address mapping: blocks interleave across channels, then banks.
    # ------------------------------------------------------------------
    def channel_of(self, block_addr):
        """Channel serving ``block_addr`` (block-interleaved)."""
        return (block_addr >> self._block_shift) % self._channels

    def row_of(self, block_addr):
        """Row id of ``block_addr`` within its bank."""
        return (
            (block_addr >> self._block_shift) // self._channels
            // self._blocks_per_row // self._banks
        )

    def row_is_open(self, block_addr):
        """True when ``block_addr`` would hit its bank's open row buffer."""
        nblk = block_addr >> self._block_shift
        per = nblk // self._channels // self._blocks_per_row
        return (
            self._open_rows[nblk % self._channels][per % self._banks]
            == per // self._banks
        )

    def channel_free_at(self, block_addr):
        """Cycle at which the channel serving ``block_addr`` next frees up."""
        return self._channel_free[
            (block_addr >> self._block_shift) % self._channels]

    def channel_idle(self, block_addr, now):
        """True when ``block_addr``'s channel is idle at cycle ``now``."""
        return self.channel_free_at(block_addr) <= now

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, block_addr, now, kind="demand"):
        """Perform a block transfer; return the data-ready cycle.

        ``kind`` is one of ``demand``, ``prefetch``, ``writeback`` and only
        affects accounting.  The transfer starts when the channel is free,
        occupies it for ``transfer_cycles``, and completes after the row-hit
        or row-miss access latency.
        """
        cfg = self.config
        stats = self.stats
        nblk = block_addr >> self._block_shift
        ch = nblk % self._channels
        per = nblk // self._channels // self._blocks_per_row
        bank = per % self._banks
        row = per // self._banks
        # Ties replicate max(now, free) exactly (first argument wins), so
        # the int-vs-float type of the returned cycle never changes.
        start = self._channel_free[ch]
        if now >= start:
            start = now
        bank_rows = self._open_rows[ch]
        if bank_rows[bank] == row:
            latency = cfg.row_hit_latency
            stats.row_hits += 1
        else:
            latency = cfg.row_miss_latency
            stats.row_misses += 1
            bank_rows[bank] = row
        self._channel_free[ch] = start + cfg.transfer_cycles
        self.channel_busy_cycles[ch] += cfg.transfer_cycles
        if kind == "demand":
            stats.demand_blocks += 1
        elif kind == "prefetch":
            stats.prefetch_blocks += 1
        elif kind == "writeback":
            stats.writeback_blocks += 1
        else:
            raise ValueError("unknown access kind %r" % kind)
        return start + latency
