"""256.bzip2 — block-sorting compression (C, integer).

The Burrows-Wheeler inverse transform is the paper's flagship indirect
case: ``tt[ptr[i]]``-style accesses where the index values are a
*random permutation* of the block — no spatial clustering at all, so
region prefetching wastes nearly everything (SRP: 5.3% accuracy, 9.7x
traffic) while GRP's indirect prefetch instructions read a block of 16
indices and prefetch exactly the 16 targets (coverage 37.1% vs SRP's
27.2% at 15% of the traffic).  bzip2 is also one of the three
variable-region benchmarks (Table 4: 76.8% of regions are 2 blocks).
"""

import random

from repro.compiler.ir import (
    Affine,
    ArrayDecl,
    ArrayRef,
    Compute,
    ForLoop,
    IndexLoad,
    Program,
    Runtime,
    Var,
)
from repro.workloads.base import Built, Workload, register
from repro.workloads.common import materialize, store_index_array


@register
class Bzip2(Workload):
    """Synthetic stand-in for 256.bzip2 — block-sorting compression (C, integer)."""

    name = "bzip2"
    category = "int"
    language = "c"
    default_refs = 120_000
    ops_scale = 205.1

    def build(self, space, scale=1.0):
        # tt is ~1x the scaled L2 (the paper's ~900 KB BWT blocks sit
        # in the same ratio to its 1 MB L2): about half the random
        # indirect probes hit, and the region prefetches around the other
        # half are where SRP's ~10x traffic comes from.
        block = max(12_288, int(16_384 * scale))
        rng = random.Random(31)
        permutation = list(range(block))
        rng.shuffle(permutation)

        tt = ArrayDecl("tt", 8, [block], storage="heap")
        ptr = ArrayDecl("ptr", 4, [block], storage="heap")
        out = ArrayDecl("out", 8, [block], storage="heap")
        mtf = ArrayDecl("mtf", 8, [1 << 15], storage="heap")
        for arr in (tt, ptr, out, mtf):
            materialize(space, arr)
        store_index_array(space, ptr, permutation)

        i, s, t = Var("i"), Var("s"), Var("t")
        ai = Affine.of(i)
        # Inverse BWT: out[i] = tt[ptr[i]] with randomly permuted ptr.
        unbwt = ForLoop(i, 0, block, [
            ArrayRef(tt, [IndexLoad(ptr, ai)]),
            ArrayRef(out, [ai], is_store=True),
            Compute(4),
        ])

        # MTF/coding phase: short runs at data-dependent offsets in the
        # symbol tables, each run a singly nested loop in its own helper
        # (the source of bzip2's 2-block variable regions in Table 4).
        run_len = 10
        run_start = [0]

        def run_base(env, r):
            # One run per (t, s) call, drawn on the run loop's first trip.
            if env["i"] == 0:
                run_start[0] = r.randrange((1 << 15) - run_len)
            return run_start[0]

        mtf_fn = ForLoop(i, 0, run_len, [
            ArrayRef(mtf, [Affine({i: 1}, Runtime(run_base, "mtf run"))]),
            Compute(3),
        ])
        mtf_phase = ForLoop(s, 0, 1024, [mtf_fn], scope_boundary=True)
        body = ForLoop(t, 0, 6, [mtf_phase, unbwt])
        return Built(Program("bzip2", [body]))
