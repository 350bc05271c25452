"""Machine configuration.

Two presets are provided:

* :meth:`MachineConfig.paper` — the configuration from Section 5.1 of the
  paper: 1.6 GHz 4-wide out-of-order core, 64-entry RUU, 64 KB 2-way L1,
  1 MB 4-way unified L2, 8 MSHRs per cache, 4 KB prefetch regions, 32-entry
  LIFO prefetch queue, 4-channel Rambus memory.
* :meth:`MachineConfig.scaled` — the default for experiments: identical in
  every structural ratio, but with the caches (and, correspondingly, the
  workload working sets) shrunk ~8x so a pure-Python simulator can sweep 18
  benchmarks x 6 schemes in minutes.  DESIGN.md Section 5 discusses why this
  preserves the paper's qualitative results.
"""

from repro.mem.dram import DRAMConfig


class MachineConfig:
    """All hardware parameters for one simulated machine."""

    def __init__(
        self,
        l1_size=64 * 1024,
        l1_assoc=2,
        l1_latency=3,
        l2_size=1024 * 1024,
        l2_assoc=4,
        l2_latency=12,
        block_size=64,
        mshr_entries=8,
        region_size=4096,
        prefetch_queue_size=32,
        prefetch_queue_policy="lifo",
        recursive_depth=6,
        pointer_blocks=2,
        issue_width=4,
        window_size=64,
        prefetch_insert="lru",
        adapt_epoch_accesses=2048,
        tlb_entries=0,
        tlb_assoc=4,
        tlb_page_size=8192,
        tlb_miss_latency=30,
        dram=None,
    ):
        self.l1_size = l1_size
        self.l1_assoc = l1_assoc
        self.l1_latency = l1_latency
        self.l2_size = l2_size
        self.l2_assoc = l2_assoc
        self.l2_latency = l2_latency
        self.block_size = block_size
        self.mshr_entries = mshr_entries
        self.region_size = region_size
        self.prefetch_queue_size = prefetch_queue_size
        self.prefetch_queue_policy = prefetch_queue_policy
        self.recursive_depth = recursive_depth
        self.pointer_blocks = pointer_blocks
        self.issue_width = issue_width
        self.window_size = window_size
        self.prefetch_insert = prefetch_insert
        #: Epoch length, in memory references, for the adaptive schemes'
        #: feedback loop (see repro.adapt).  Ignored by static schemes.
        self.adapt_epoch_accesses = adapt_epoch_accesses
        self.tlb_entries = tlb_entries
        self.tlb_assoc = tlb_assoc
        self.tlb_page_size = tlb_page_size
        self.tlb_miss_latency = tlb_miss_latency
        self.dram = dram or DRAMConfig(block_size=block_size)

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides):
        """The configuration in Section 5.1 of the paper."""
        params = {}
        params.update(overrides)
        return cls(**params)

    @classmethod
    def scaled(cls, **overrides):
        """The default experiment configuration (~8x smaller caches)."""
        params = dict(
            l1_size=8 * 1024,
            l2_size=128 * 1024,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def tiny(cls, **overrides):
        """A miniature machine for unit tests (fast, easy to reason about)."""
        params = dict(
            l1_size=1024,
            l1_assoc=2,
            l2_size=4096,
            l2_assoc=4,
            region_size=512,
        )
        params.update(overrides)
        return cls(**params)

    def replace(self, **overrides):
        """Return a copy with selected fields overridden."""
        params = dict(
            l1_size=self.l1_size,
            l1_assoc=self.l1_assoc,
            l1_latency=self.l1_latency,
            l2_size=self.l2_size,
            l2_assoc=self.l2_assoc,
            l2_latency=self.l2_latency,
            block_size=self.block_size,
            mshr_entries=self.mshr_entries,
            region_size=self.region_size,
            prefetch_queue_size=self.prefetch_queue_size,
            prefetch_queue_policy=self.prefetch_queue_policy,
            recursive_depth=self.recursive_depth,
            pointer_blocks=self.pointer_blocks,
            issue_width=self.issue_width,
            window_size=self.window_size,
            prefetch_insert=self.prefetch_insert,
            adapt_epoch_accesses=self.adapt_epoch_accesses,
            tlb_entries=self.tlb_entries,
            tlb_assoc=self.tlb_assoc,
            tlb_page_size=self.tlb_page_size,
            tlb_miss_latency=self.tlb_miss_latency,
            dram=self.dram,
        )
        params.update(overrides)
        return MachineConfig(**params)

    def describe(self):
        """Human-readable one-line summary (for reports)."""
        return (
            "L1 %dKB/%d-way, L2 %dKB/%d-way, %dB blocks, region %dB, "
            "queue %d (%s), window %d, issue %d"
            % (
                self.l1_size // 1024,
                self.l1_assoc,
                self.l2_size // 1024,
                self.l2_assoc,
                self.block_size,
                self.region_size,
                self.prefetch_queue_size,
                self.prefetch_queue_policy,
                self.window_size,
                self.issue_width,
            )
        )
