"""Fused multi-core co-run replay: skip-ahead stretch scheduling.

The stepped reference loop (:class:`~repro.sim.multicore.MultiCoreSimulator`)
arbitrates before *every* trace event: scan all cores, pick the one whose
next instruction issues earliest, step it once through the out-of-line
``Hierarchy.access`` path.  That is obviously correct and cripplingly
slow — an 18-core rush-hour mix pays N comparisons plus a generator
resume plus the generic access path per event.

This module replaces the per-event dispatch with *stretches*:

1.  Arbitrate once with the **identical** round-robin rule (strict ``<``
    scanning from the core after the previous winner, so the previous
    winner is examined last and continues only on a strict minimum):
    the winner is the first core holding the minimum key at or after
    ``rr``, wrapping, found with ``min`` and ``list.index``.
2.  Compute the *frontier* — the minimum ``next_issue_at`` over every
    other live core.  Those values are frozen while the winner runs:
    ``next_issue_at = max(clock, ring[head])`` is a pure function of the
    owning core's private state, and only the stepping core's state
    moves.  (Shared-level traffic changes what a *future* access of
    another core will cost, but never that core's already-queued issue
    front — exactly the property the stepped arbiter relies on.  A TLB
    is per-core hierarchy state, so translation does not break it.)
3.  Run the winner through consecutive events while its next issue time
    stays strictly below the frontier.  The first event after an
    arbitration runs unconditionally (the arbiter already chose this
    core for it); each subsequent event re-checks against the frontier,
    which is precisely the condition under which the stepped arbiter
    would have picked this core again (on ties the scan starting at
    ``rr = winner + 1`` prefers any *other* core at the same key, hence
    strict ``<`` here).
4.  After the stretch, ``rr = winner + 1`` — the same value per-event
    stepping leaves, because every event in the stretch had the same
    winner.

A stretch is one :meth:`~repro.cpu.core.Core.run_span` call: the
single-core compiled replay body (columnar traces, the inlined L1 probe
and issue-ring arithmetic, the blocked-issue gate, the one-frame L1 miss
``Hierarchy.demand_miss``, the out-of-line ``access`` for TLB configs),
which the single-core differential suite pins against the event
interpreter, and ``tests/test_multicore_fused.py`` and
``tests/test_demand_miss.py`` against the stepped loop, which replays
every miss through the decomposed chain.

Two pieces of shared state are synchronized at stretch edges instead of
per event, each justified by monotonicity:

``shared.set_active(best)``
    Points each shared level's counters at the stepping core's slice,
    and makes it the L2's owner and evicter id.  Constant for a whole
    stretch (one winner), so setting it once at stretch start is
    identical to setting it before every event.  The winner's frame and
    prefetch drain count into slices they bound when built, their own
    core's: the same slices, since during the stretch only the winner's
    frame and drain run.  ``finish`` sets it per core before draining,
    and then sums the slices into the shared totals.

SRP demand-busy watermark
    The stepped loop folds every controller's ``demand_busy_until`` into
    a global watermark around each step.  During a stretch only the
    winner's controller can advance (other cores execute nothing), so
    syncing the watermark *in* at stretch start and *out* at stretch end
    reproduces the per-event exchange exactly.

The contract: for every :class:`~repro.sim.spec.CoRunSpec`,
``CoRunResult.to_dict()`` is byte-identical between fused and stepped.
``tests/test_multicore_fused.py`` enforces it over the full pair matrix,
the 18-core rush-hour mix, and TLB-enabled configs.
"""

from repro.sim.multicore import MultiCoreSimulator

_INF = float("inf")


class FusedMultiCoreSimulator(MultiCoreSimulator):
    """Skip-ahead replay of N compiled traces over shared memory.

    Subclasses the stepped simulator for construction (shared system,
    cells, results/summary plumbing) and replaces :meth:`run` with the
    stretch scheduler described in the module docstring.  Cells are
    built with compiled columnar traces instead of interpreter event
    streams.
    """

    COMPILED_CELLS = True

    def run(self):
        """Replay every core's trace to completion; finish the hierarchy.

        Byte-identical in every statistic to
        :meth:`MultiCoreSimulator.run` over the same spec.
        """
        cells = self.cells
        shared = self.shared
        n = len(cells)
        # Per core: (core, run_span context, controller, trace length).
        lanes = [
            (cell.core, cell.core.bind_compiled(cell.trace),
             cell.hierarchy.controller, len(cell.trace.kinds))
            for cell in cells
        ]
        # Finished cores sit at +inf, so min() only ever picks live ones.
        nias = [cell.core.next_issue_at() if lane[3] > 0 else _INF
                for cell, lane in zip(cells, lanes)]
        remaining = sum(1 for lane in lanes if lane[3] > 0)
        positions = [0] * n
        rr = 0
        watermark = 0
        while remaining:
            # Arbitration: the stepped loop's scan — strict < from rr,
            # so the previous winner (scanned last) continues only on a
            # strict minimum — is the first core at the minimum key at
            # or after rr, wrapping.  The *frontier* is the minimum
            # next_issue_at over the other live cores, frozen for the
            # stretch (their state cannot move).  A core tying the
            # winner's key makes the frontier the key itself, so ties
            # stop the stretch after one event, exactly where the
            # stepped arbiter would switch cores.  The sole survivor
            # sees an infinite frontier and runs to completion.
            key = min(nias)
            try:
                best = nias.index(key, rr)
            except ValueError:
                best = nias.index(key)
            if nias.count(key) > 1:
                frontier = key
            else:
                nias[best] = _INF  # overwritten after the stretch
                frontier = min(nias)
            core, ctx, controller, n_events = lanes[best]
            shared.set_active(best)
            if watermark > controller.demand_busy_until:
                controller.demand_busy_until = watermark
            pos = core.run_span(ctx, positions[best], frontier)
            positions[best] = pos
            if pos == n_events:
                nias[best] = _INF
                remaining -= 1
            else:
                # core.next_issue_at(), inlined.
                clock = core._clock
                e = core._ring[core._head]
                nias[best] = clock if clock >= e else e
            if controller.demand_busy_until > watermark:
                watermark = controller.demand_busy_until
            rr = best + 1
            if rr == n:
                rr = 0
        self.finish()
