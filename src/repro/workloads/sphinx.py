"""sphinx — speech recognition (Lee, Hon, Reddy).

The paper adds sphinx for its sparse, irregular pointer behaviour.  The
dominant remaining miss source is **hash table lookup** (28.8%, Table
6): a probe lands in a random bucket and then touches "only a small
number of adjacent hash slots in a short loop" — prefetches arrive too
late to help.  The rest of the work is short unit-stride loops over
per-frame score vectors (senone evaluation), which makes sphinx the
third variable-region benchmark: Table 4 shows GRP/Var cutting traffic
82% (82.9% of regions at 2 blocks, 16.1% at 8) at a 5.8% performance
cost versus GRP/Fix — the compiler cannot prove the longer spatial runs,
so it sizes regions small and misses some opportunity.
"""

import random

from repro.compiler.ir import (
    Affine,
    ArrayDecl,
    ArrayRef,
    Compute,
    ForLoop,
    Opaque,
    PointerVar,
    Program,
    PtrChase,
    PtrRef,
    Runtime,
    Sym,
    Var,
    WhileLoop,
)
from repro.compiler.symbols import StructDecl
from repro.workloads.base import Built, Workload, register
from repro.workloads.common import build_linked_list, materialize


@register
class Sphinx(Workload):
    """Synthetic stand-in for sphinx — speech recognition (Lee, Hon, Reddy)."""

    name = "sphinx"
    category = "int"
    language = "c"
    default_refs = 150_000
    ops_scale = 36.8

    def build(self, space, scale=1.0):
        n_slots = max(1 << 14, int((1 << 15) * scale))
        probe_len = 4
        senone_len = 10
        n_senones = max(2048, int(3072 * scale))
        rng = random.Random(23)

        hashtab = ArrayDecl("hashtab", 8, [n_slots], storage="heap")
        scores = ArrayDecl("scores", 8, [n_senones * senone_len],
                           storage="heap")
        for arr in (hashtab, scores):
            materialize(space, arr)

        hmm = StructDecl("hmm_t")
        hmm.add_scalar("score", 8)
        hmm.add_scalar("history", 8)
        hmm.add_pointer("next", target="hmm_t")
        hmm_head = build_linked_list(space, hmm, 4096, layout="shuffled",
                                     rng=rng)

        i, s, f = Var("i"), Var("s"), Var("f")
        h = PointerVar("h", struct="hmm_t")

        # Hash lookup: random bucket + a few adjacent slots.  The base is
        # opaque, so the compiler cannot mark it and prefetches that do
        # happen (SRP) are too late to matter.  One bucket per (frame,
        # slot) call: drawn on the probe loop's first trip, kept for the
        # rest of it.
        start = [0]

        def slot(env, r):
            trip = env["i"]
            if trip == 0:
                start[0] = r.randrange(n_slots - probe_len)
            return start[0] + trip

        hash_lookup = ForLoop(i, 0, probe_len, [
            ArrayRef(hashtab, [Opaque(slot, "hash probe")]),
            Compute(5),
        ])

        # Senone scoring: each frame evaluates a random *active subset* of
        # senones; the per-senone loop is short, singly nested, and affine
        # in i with a runtime-constant base (a function argument) -- the
        # variable-region candidate (bound = senone_len).
        senone = [0]

        def senone_base(env, r):
            # Constant across the inner i loop: one active senone per
            # (frame, slot) call of the scoring function, drawn on its
            # first trip.
            if env["i"] == 0:
                senone[0] = r.randrange(n_senones) * senone_len
            return senone[0]

        senone_fn = ForLoop(i, 0, senone_len, [
            ArrayRef(scores, [Affine({i: 1},
                                     Runtime(senone_base, "active senone"))]),
            Compute(4),
        ])
        # Word-lattice HMM chain walk: the sparse pointer part.
        hmm_walk = WhileLoop(Sym("hmm_steps"), [
            PtrRef(h, field=hmm.field("score")),
            PtrChase(h, hmm.field("next")),
            Compute(6),
        ])
        frame = ForLoop(f, 0, 4000, [
            ForLoop(s, 0, 24, [hash_lookup], scope_boundary=True),
            ForLoop(s, 0, 96, [senone_fn], scope_boundary=True),
            hmm_walk,
        ])
        program = Program("sphinx", [frame],
                          bindings={"hmm_steps": 64})
        return Built(program, pointer_bindings={"h": hmm_head})
