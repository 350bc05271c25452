"""The prefetch drain's open-row pick against the region queue's oracle.

The one-frame drain (``MemoryController.issue_prefetches``) picks a
region entry's next candidate in one of three ways: a mask pick for an
entry with two or more candidates inside one DRAM row span (every block
shares one bank and row, so only the channel decides whether the row is
open), the one candidate of a single-bit entry, and the per-bit scan for
an entry that straddles a row span.  ``RegionQueue.pop_candidate`` and
the decomposed issue loop are the oracle for all three.

The tests count which pick ran by tracing the drain's lines, so nothing
in the simulator keeps a counter for them.
"""

import inspect
import json
import random
import sys

import pytest

from repro.mem.controller import MemoryController
from repro.mem.dram import DRAMConfig
from repro.mem.hierarchy import Hierarchy
from repro.mem.space import AddressSpace
from repro.prefetch.regionqueue import RegionEntry
from repro.prefetch.srp import SRPPrefetcher
from repro.sim.config import MachineConfig
from repro.sim.runner import execute
from repro.sim.spec import RunSpec

#: Source text of the first line of each pick in the drain.
PICK_MARKERS = {
    "mask": "pick = bitvec & open_mask or bitvec",
    "one": "i = bitvec.bit_length() - 1",
    "scan": "rot = ((bitvec >> index_)",
}


def pick_lines():
    """{line number: pick name} for the drain's pick markers."""
    lines, first = inspect.getsourcelines(MemoryController.issue_prefetches)
    found = {}
    for offset, text in enumerate(lines):
        for name, marker in PICK_MARKERS.items():
            if marker in text:
                found[first + offset] = name
    assert sorted(found.values()) == sorted(PICK_MARKERS), found
    return found


def count_picks(run):
    """Call ``run()``; return its result and {pick name: times run}."""
    lines = pick_lines()
    code = MemoryController.issue_prefetches.__code__
    counts = dict.fromkeys(PICK_MARKERS, 0)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            counts[lines[frame.f_lineno]] += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is code else None

    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, counts


#: DRAM geometries: the default (4 channels, 2 KB rows: a row span of
#: 128 blocks), 2 channels with 1 KB rows (a 32-block span, which a 4 KB
#: region straddles), and the default with 2 banks, where writebacks
#: often land on the bank of the entry being drained.
GEOMETRIES = {
    "default": DRAMConfig(),
    "2ch-1k": DRAMConfig(channels=2, row_size=1024),
    "2banks": DRAMConfig(banks_per_channel=2),
}


def build(dram, reference):
    config = MachineConfig.tiny(dram=dram, region_size=4096)
    hier = Hierarchy(config, AddressSpace(), SRPPrefetcher(),
                     reference=reference)
    assert (hier.controller._drain is None) == reference
    return hier


def randomize(hier, rng):
    """Random entries, open rows, resident and dirty L2 lines."""
    dram = hier.dram
    n_channels, n_banks = dram._channels, dram._banks
    row_span = n_channels * dram._blocks_per_row
    bsize = hier.block_size
    # Entries sit in the first few rows of every bank, so the random
    # open rows below match them often.
    span_blocks = 4 * row_span * n_banks
    queue = hier.prefetcher.queue
    for _ in range(rng.randint(1, 4)):
        nblocks = rng.choice([2, 4, 16, 64, 64, 128, 256])
        base = rng.randrange(span_blocks // nblocks) * nblocks * bsize
        density = rng.choice([0.05, 0.3, 0.9])
        bitvec = 0
        for i in range(nblocks):
            if rng.random() < density:
                bitvec |= 1 << i
        bitvec = bitvec or 1 << rng.randrange(nblocks)
        queue._entries.append(RegionEntry(
            base, bitvec, nblocks, rng.randrange(nblocks), 0, 0))
    for bank_rows in dram._open_rows:
        for bank in range(n_banks):
            bank_rows[bank] = rng.choice([None, 0, 1, 2, 3])
    for _ in range(rng.randint(0, 40)):
        block = rng.randrange(2 * span_blocks) * bsize
        hier.l2.fill(block, is_store=rng.random() < 0.7)


def state(hier):
    controller = hier.controller
    dram = hier.dram
    return {
        "fills": list(hier._prefetch_ready.items()),
        "open_rows": dram._open_rows,
        "channel_free": dram._channel_free,
        "dram": vars(dram.stats),
        "l2": [[(line.block, line.dirty, line.prefetched) for line in lines]
               for lines in hier.l2._sets],
        "queue": [(e.base, e.bitvec, e.index)
                  for e in hier.prefetcher.queue._entries],
        "counters": (controller.prefetches_issued,
                     controller.prefetches_dropped_resident),
    }


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_drain_pick_matches_pop_candidate(geometry):
    """Seeded: the drain issues what the oracle loop issues, in order, on
    random bitvectors, indices, open rows and L2 contents."""
    dram = GEOMETRIES[geometry]
    picks = dict.fromkeys(PICK_MARKERS, 0)
    writebacks = 0
    for trial in range(150):
        states = []
        for reference in (False, True):
            rng = random.Random("%s/%d" % (geometry, trial))
            hier = build(dram, reference)
            randomize(hier, rng)
            budget = rng.randint(1, 120)
            if reference:
                hier.controller.issue_prefetches(10 ** 9, budget)
            else:
                _, counts = count_picks(lambda: hier.controller
                                        .issue_prefetches(10 ** 9, budget))
                for name, count in counts.items():
                    picks[name] += count
                writebacks += hier.dram.stats.writeback_blocks
            states.append(state(hier))
        assert states[0] == states[1], "trial %d" % trial
    # Every pick ran, and writebacks hit the drained entries' banks.
    assert all(picks.values()), picks
    assert writebacks > 0


#: (workload, scheme, DRAM geometry, the picks that must run).  applu's
#: 4 KB regions lie inside the default row span and straddle the 2 KB one;
#: sphinx's variable-size GRP regions are two blocks.
CELLS = [
    ("applu", "grp", "default", {"mask"}),
    ("applu", "grp", "2ch-1k", {"scan"}),
    ("sphinx", "grp", "default", {"one"}),
]


@pytest.mark.parametrize("workload,scheme,geometry,ran", CELLS,
                         ids=["%s/%s/%s" % cell[:3] for cell in CELLS])
def test_fused_matches_reference(workload, scheme, geometry, ran):
    config = MachineConfig.scaled(dram=GEOMETRIES[geometry])
    spec = RunSpec.create(workload, scheme, config=config, limit_refs=3000)
    fast, counts = count_picks(lambda: execute(spec))
    assert {name for name, count in counts.items() if count} >= ran, counts
    slow = execute(spec, reference=True)
    assert json.dumps(fast.to_dict(), sort_keys=True) \
        == json.dumps(slow.to_dict(), sort_keys=True)
