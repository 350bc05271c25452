"""Unit tests for the DRAM channel/bank model."""

import pytest

from repro.mem.dram import DRAMConfig, DRAMSystem


def make_dram(**kw):
    params = dict(channels=2, banks_per_channel=2, row_size=256,
                  row_hit_latency=10, row_miss_latency=50,
                  transfer_cycles=4, block_size=64)
    params.update(kw)
    return DRAMSystem(DRAMConfig(**params))


class TestAddressMapping:
    def test_blocks_interleave_channels(self):
        dram = make_dram()
        assert dram.channel_of(0x000) != dram.channel_of(0x040)
        assert dram.channel_of(0x000) == dram.channel_of(0x080)

    def test_row_mapping_groups_blocks(self):
        dram = make_dram()
        # Blocks on the same channel within one row share a row id.
        assert dram.row_of(0x000) == dram.row_of(0x080)


class TestTiming:
    def test_row_miss_then_hit(self):
        dram = make_dram()
        first = dram.access(0x0, now=0)
        assert first == 50  # row miss
        second = dram.access(0x80, now=100)  # same row, now open
        assert second == 110  # row hit
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_channel_occupancy_serializes(self):
        dram = make_dram()
        a = dram.access(0x0, now=0)
        b = dram.access(0x80, now=0)  # same channel, must wait transfer
        assert b >= 4 + 10  # starts after the 4-cycle transfer slot

    def test_different_channels_independent(self):
        dram = make_dram()
        dram.access(0x0, now=0)
        other = dram.access(0x40, now=0)  # other channel
        assert other == 50  # no queueing

    def test_channel_idle_reporting(self):
        dram = make_dram()
        assert dram.channel_idle(0x0, 0)
        dram.access(0x0, now=0)
        assert not dram.channel_idle(0x0, 1)
        assert dram.channel_idle(0x0, 4)


class TestAccounting:
    def test_kinds_counted_separately(self):
        dram = make_dram()
        dram.access(0x0, 0, kind="demand")
        dram.access(0x40, 0, kind="prefetch")
        dram.access(0x80, 100, kind="writeback")
        assert dram.stats.demand_blocks == 1
        assert dram.stats.prefetch_blocks == 1
        assert dram.stats.writeback_blocks == 1
        assert dram.stats.bytes_transferred(64) == 3 * 64

    def test_unknown_kind_rejected(self):
        dram = make_dram()
        with pytest.raises(ValueError):
            dram.access(0x0, 0, kind="bogus")

    def test_row_hit_rate(self):
        dram = make_dram()
        dram.access(0x0, 0)
        dram.access(0x80, 50)
        assert dram.stats.row_hit_rate == pytest.approx(0.5)


class TestOpenPagePreference:
    def test_row_is_open_tracks_state(self):
        dram = make_dram()
        assert not dram.row_is_open(0x0)
        dram.access(0x0, 0)
        assert dram.row_is_open(0x0)
        assert dram.row_is_open(0x80)  # same row


class TestCoreSlices:
    """Per-core counting on a shared DRAM: one slice per transfer."""

    @pytest.mark.parametrize("transfer_cycles", [4, 0.1])
    def test_busy_cycles_follow_each_slices_transfers(self, transfer_cycles):
        dram = make_dram(transfer_cycles=transfer_cycles)
        slices = dram.enable_core_stats(2)
        kinds = ["demand", "prefetch", "writeback"]
        running = [0, 0]
        for i in range(13):
            core = 1 if i < 10 else 0
            dram.stats = slices[core]
            dram.access(i * 0x40, now=i * 10, kind=kinds[i % 3])
            running[core] += transfer_cycles
        assert [s.demand_blocks for s in slices] == [1, 4]
        assert [s.prefetch_blocks for s in slices] == [1, 3]
        assert [s.writeback_blocks for s in slices] == [1, 3]
        # Equal, not approximately: a non-integer transfer time is summed
        # in the order a running total adds it (0.1 added ten times is
        # not 0.1 * 10).
        assert dram.core_busy_cycles == running
