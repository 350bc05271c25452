"""Multi-core co-run simulation: N replay cores over a shared memory system.

The GRP paper evaluates prefetching on one core, but its central tension
— prefetch traffic competing with demand traffic for L2 capacity, MSHRs,
and DRAM bandwidth — only fully materializes when several cores contend
for the shared levels.  This module steps N :class:`~repro.cpu.core.Core`
instances, each replaying its own workload trace and owning a private L1
and prefetch engine/controller, against **one** L2, MSHR file, and DRAM
system, on a unified clock:

Arbitration
    One trace event per step.  The arbiter picks the live core whose next
    instruction issues earliest (``max(clock, ring[head])``, the same
    expression the single-core loop computes); ties go to the first
    candidate scanning round-robin from the core after the previous
    winner.  The order is a pure function of the spec, so a co-run is
    deterministic — two runs of the same :class:`CoRunSpec` produce
    byte-identical results.

Address disjointness
    Core ``i``'s workload is built in an address space based at
    ``i << 36``, so co-running cores — even two replicas of the same
    workload — never share blocks.  Cross-core interference is therefore
    purely *structural* (set conflicts, MSHR occupancy, channel
    contention), and every cache line has exactly one owning core.

Attribution
    Each shared level counts every event once, in one core's slice
    (see :meth:`repro.mem.cache.Cache.enable_core_stats` for the rules):
    :meth:`SharedMemorySystem.set_active` points each level's ``stats``
    at the stepping core's slice, and each core's one-frame demand miss
    and prefetch drain bind their own core's slices, because they only
    run while that core steps.  When the co-run ends,
    :meth:`SharedMemorySystem.sum_slices` makes each level's ``stats``
    the sum of its slices, so the shared totals are the per-core columns
    summed by construction.  Cross-core events (a fill evicting another
    core's line; a demand miss to a block another core's prefetch
    displaced) land in the :class:`InterferenceMatrix`.

Degenerate case
    A 1-core co-run issues the identical operation sequence as the
    single-core engine: ``execute_corun(CoRunSpec.create([w], s))`` is
    byte-identical (``RunResult.to_dict()``) to
    ``execute(RunSpec.create(w, s))``.  Both are set up by
    :func:`repro.sim.runner.prepare`, and the stepped loop runs
    :meth:`~repro.cpu.core.Core.step`, the body the single-core
    reference path loops over.  The tests pin this contract.
"""

from repro.cpu.core import Core
from repro.mem.cache import Cache
from repro.mem.dram import DRAMSystem
from repro.mem.hierarchy import Hierarchy
from repro.mem.mshr import MSHRFile
from repro.sim.stats import CoRunResult, SimStats, geometric_mean
from repro.trace.store import default_store
from repro.workloads.base import get_workload

#: Stride between consecutive cores' address-space bases.  Large enough
#: that no workload's segments reach the next core's base, and a multiple
#: of every DRAM channel/bank/row geometry in use, so shifting a
#: workload's image preserves its channel interleaving and row alignment.
CORE_BASE_STRIDE = 1 << 36


def jain_fairness(values):
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``, in (0, 1].

    1.0 when all values are equal (perfectly fair); approaches ``1/n``
    when one value dominates.  0.0 for empty or all-zero input.
    """
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    total = sum(vals)
    squares = sum(v * v for v in vals)
    return (total * total) / (len(vals) * squares)


class InterferenceMatrix:
    """Cross-core interference counters for one co-run.

    All three matrices are indexed ``[evicter or polluter][victim]`` and
    only record events where the two cores differ — same-core pollution
    and evictions are ordinary single-core behavior, visible in the
    per-core cache stats.
    """

    def __init__(self, n_cores):
        self.n_cores = n_cores
        #: Demand misses core *victim* took on blocks core *evicter*'s
        #: prefetch fills displaced (shadow-tag attribution): the direct
        #: cross-core cost of someone else's prefetch aggression.
        self.pollution = [[0] * n_cores for _ in range(n_cores)]
        #: Evictions of *victim*-owned lines by *evicter*'s demand fills.
        self.demand_evictions = [[0] * n_cores for _ in range(n_cores)]
        #: Evictions of *victim*-owned lines by *evicter*'s prefetch fills.
        self.prefetch_evictions = [[0] * n_cores for _ in range(n_cores)]

    def note_pollution(self, evicter, sufferer):
        """Record a cross-core pollution miss (called by the shared L2)."""
        self.pollution[evicter][sufferer] += 1

    def note_eviction(self, evicter, owner, by_prefetch):
        """Record a cross-core eviction (called by the shared L2)."""
        if by_prefetch:
            self.prefetch_evictions[evicter][owner] += 1
        else:
            self.demand_evictions[evicter][owner] += 1

    def cross_core_pollution(self):
        """Total cross-core pollution misses (off-diagonal sum)."""
        return sum(sum(row) for row in self.pollution)

    def snapshot(self):
        """Plain-data form (nested lists; JSON-lossless)."""
        return {
            "pollution": [list(row) for row in self.pollution],
            "demand_evictions": [list(row)
                                 for row in self.demand_evictions],
            "prefetch_evictions": [list(row)
                                   for row in self.prefetch_evictions],
        }


class SharedMemorySystem:
    """The contended levels of a co-run: L2 + MSHR file + DRAM.

    Built once per :class:`MultiCoreSimulator` and handed to every core's
    :class:`~repro.mem.hierarchy.Hierarchy` (its ``shared`` parameter),
    which aliases these objects instead of building private ones.  Also
    carries the in-flight prefetch ready-time map, which belongs to
    the shared L2's contents.
    """

    def __init__(self, config, n_cores):
        self.n_cores = n_cores
        self.l2 = Cache(
            "L2", config.l2_size, config.l2_assoc, config.block_size,
            config.l2_latency, prefetch_insert=config.prefetch_insert,
        )
        self.mshrs = MSHRFile(config.mshr_entries)
        self.dram = DRAMSystem(config.dram)
        #: {block -> data-ready cycle} of in-flight prefetch fills (see
        #: Hierarchy); shared because the blocks live in the shared L2.
        self.prefetch_ready = {}
        self.interference = InterferenceMatrix(n_cores)
        self.l2.enable_core_stats(n_cores)
        self.l2.interference = self.interference
        self.mshrs.enable_core_stats(n_cores)
        self.dram.enable_core_stats(n_cores)

    def set_active(self, core_id):
        """Count subsequent shared-level events as core ``core_id``'s.

        Points the L2's, the DRAM's and the MSHR file's ``stats`` at the
        core's slice; the L2 also records the core as the owner of the
        lines it fills and the evicter in its shadow set.
        """
        self.l2.active_core = core_id
        self.l2.stats = self.l2.core_stats[core_id]
        self.dram.stats = self.dram.core_stats[core_id]
        self.mshrs.stats = self.mshrs.core_stats[core_id]

    def sum_slices(self):
        """Make each level's ``stats`` the sum of its per-core slices.

        Called once, when the co-run has finished; the slices stay as
        they are.
        """
        for level in (self.l2, self.dram, self.mshrs):
            total = type(level.stats)()
            for name in vars(total):
                setattr(total, name, sum(getattr(part, name)
                                         for part in level.core_stats))
            level.stats = total


class CoreCell:
    """One core's private machinery inside a co-run.

    Owns the core model, its private-L1 hierarchy bound to the shared
    levels, the workload's trace, and the labels its
    :class:`~repro.sim.stats.SimStats` will carry.  Set-up is the
    single-core run's, :func:`repro.sim.runner.prepare`, with the
    workload built at the cell's address-space ``base``.

    ``compiled`` selects the trace form: the default builds the
    interpreter's event-stream generator (``self.events``) the stepped
    reference loop consumes; ``compiled=True`` gets the columnar
    :class:`~repro.trace.compiled.CompiledTrace` (``self.trace``) the
    fused loop iterates, through the process-wide trace store.  The key
    carries ``base``, so core 0 shares its entry with the single-core
    run of the same cell and higher cores get their own.
    """

    def __init__(self, cell_spec, core_id, shared, config, compiled=False):
        # Late import: runner imports spec/stats, and the experiment layer
        # imports us — mirror RunSpec.create's cycle-breaking pattern.
        from repro.sim.runner import SCHEMES, prepare, scheme_label

        workload = get_workload(cell_spec.workload)
        scheme_spec = SCHEMES[cell_spec.scheme]
        space, result, key, build_interp = prepare(
            workload, scheme_spec, config, cell_spec.policy, cell_spec.scale,
            cell_spec.seed, cell_spec.limit_refs,
            base=core_id * CORE_BASE_STRIDE)
        self.core_id = core_id
        self.workload_name = workload.name
        self.scheme_label = scheme_label(cell_spec.scheme, cell_spec.mode)
        self.hierarchy = Hierarchy(
            config, space, scheme_spec.factory(result), mode=cell_spec.mode,
            shared=shared, core_id=core_id)
        self.core = Core(config, self.hierarchy,
                         result.hint_table if result is not None else None,
                         core_id=core_id)
        if compiled:
            self.trace = default_store().get_or_build(
                key, lambda: build_interp().run_columns(key.limit))
            self.events = None
        else:
            #: The cell's trace event stream (the interpreter enforces
            #: the reference limit, as the single-core reference loop).
            self.events = build_interp().run(limit=key.limit)
            self.trace = None


class MultiCoreSimulator:
    """Steps N cores against one shared memory system (reference loop).

    This is the slow, obviously-correct replay: one trace event per
    arbitration step, every core going through the out-of-line
    ``Hierarchy.access`` path.  It is the semantic reference the fused
    backend (:mod:`repro.sim.multicore_fused`) is pinned against —
    byte-identical ``CoRunResult.to_dict()`` for every spec.
    """

    #: Subclasses flip this to build cells with compiled columnar traces
    #: instead of interpreter event streams.
    COMPILED_CELLS = False

    def __init__(self, spec):
        config = spec.machine_config()
        self.spec = spec
        self.config = config
        self.shared = SharedMemorySystem(config, spec.n_cores)
        self.cells = [
            CoreCell(cell_spec, core_id, self.shared, config,
                     compiled=self.COMPILED_CELLS)
            for core_id, cell_spec in enumerate(spec.cells)
        ]

    def run(self):
        """Replay every core's trace to completion; finish the hierarchy.

        The shared demand-busy watermark is synchronized around each
        step: the SRP prioritizer forbids prefetch while *any* core's
        demand miss is outstanding at the shared DRAM, not just the
        stepping core's own.  At N=1 the watermark always equals the
        single controller's own value, so the sync never writes.
        """
        cells = self.cells
        shared = self.shared
        n = len(cells)
        for cell in cells:
            cell.core.begin_stepping()
        streams = [cell.events for cell in cells]
        pending = [next(stream, None) for stream in streams]
        remaining = sum(1 for event in pending if event is not None)
        rr = 0
        watermark = 0
        while remaining:
            best = -1
            best_key = None
            for step in range(n):
                i = rr + step
                if i >= n:
                    i -= n
                if pending[i] is None:
                    continue
                key = cells[i].core.next_issue_at()
                if best_key is None or key < best_key:
                    best = i
                    best_key = key
            cell = cells[best]
            shared.set_active(best)
            controller = cell.hierarchy.controller
            if watermark > controller.demand_busy_until:
                controller.demand_busy_until = watermark
            cell.core.step(pending[best])
            if controller.demand_busy_until > watermark:
                watermark = controller.demand_busy_until
            event = next(streams[best], None)
            pending[best] = event
            if event is None:
                remaining -= 1
            rr = best + 1
            if rr == n:
                rr = 0
        self.finish()

    def finish(self):
        """Finish every core, then total the shared levels' counters.

        Per-core finish in core-id order (deterministic): drain the
        controller's residual prefetch issue at that core's final cycle,
        then finalize its metrics — the single-core sequence.
        """
        shared = self.shared
        for core_id, cell in enumerate(self.cells):
            shared.set_active(core_id)
            cell.hierarchy.finish(cell.core.cycles)
        shared.sum_slices()

    def results(self):
        """Per-core :class:`SimStats`, each over its attribution slice."""
        return [
            SimStats(cell.workload_name, cell.scheme_label,
                     cell.core, cell.hierarchy)
            for cell in self.cells
        ]


def execute_corun(spec, solo_baseline=True):
    """Run the co-run a :class:`~repro.sim.spec.CoRunSpec` describes.

    The spec's ``backend`` field (resolved through
    :func:`repro.sim.runner.resolve_corun_backend`, so ``auto`` means
    fused) picks the replay loop: ``fused`` is the skip-ahead stretch
    scheduler, ``stepped`` the per-event reference.

    Returns a :class:`~repro.sim.stats.CoRunResult`: one SimStats per
    core plus the shared-level interference summary.  With
    ``solo_baseline`` (the default), each cell is additionally run alone
    through the single-core engine — those runs ride the trace store and
    fast path, so they are cheap relative to the co-run itself — to
    report per-core slowdown, its geometric mean, and Jain's fairness
    index over relative speeds.  ``solo_baseline=False`` skips them (the
    perf-bench smoke case measures stepping cost only).
    """
    # Late imports: runner imports spec, and multicore_fused imports us.
    from repro.sim.runner import execute, resolve_corun_backend

    backend = resolve_corun_backend(getattr(spec, "backend", "auto"))
    if backend == "fused":
        from repro.sim.multicore_fused import FusedMultiCoreSimulator

        simulator = FusedMultiCoreSimulator(spec)
    else:
        simulator = MultiCoreSimulator(spec)
    simulator.run()
    core_stats = simulator.results()
    shared = simulator.shared
    busy = shared.dram.core_busy_cycles
    total_busy = sum(busy)
    summary = {
        "n_cores": spec.n_cores,
        "bandwidth_share": [
            (cycles / total_busy) if total_busy else 0.0
            for cycles in busy
        ],
        "core_dram_busy_cycles": list(busy),
        "interference": shared.interference.snapshot(),
        "cross_core_pollution": shared.interference.cross_core_pollution(),
        "l2": shared.l2.stats.snapshot(),
        "dram_row_hit_rate": shared.dram.stats.row_hit_rate,
        "mshr": {
            "stalls": shared.mshrs.stats.stalls,
            "merges": shared.mshrs.stats.merges,
            "allocations": shared.mshrs.stats.allocations,
        },
    }
    if solo_baseline:
        solo_cycles = [execute(cell).cycles for cell in spec.cells]
        slowdowns = [
            (stats.cycles / solo) if solo else 0.0
            for stats, solo in zip(core_stats, solo_cycles)
        ]
        speeds = [(1.0 / s) if s > 0 else 0.0 for s in slowdowns]
        summary["solo_cycles"] = solo_cycles
        summary["slowdowns"] = slowdowns
        summary["geomean_slowdown"] = geometric_mean(slowdowns)
        summary["fairness"] = jain_fairness(speeds)
    return CoRunResult(core_stats, summary)
