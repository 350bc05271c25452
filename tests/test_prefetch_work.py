"""Work gates for the replay loop: repository calls and opcodes.

Region prefetchers make many prefetch fills per demand reference (ammp
under SRP makes ten), so the cost of one fill is the simulator's unit of
work on those cells.  The first gate replays fixed cells under
``sys.setprofile`` and counts the calls into ``repro`` functions per L2
prefetch fill.  The simulated work is deterministic, so the counts are
exact and the gate cannot flake: a change that adds a call per fill
fails it, and a change that removes calls re-records the budget.

Comprehension frames (``<listcomp>``, ``<genexpr>``, ...) are skipped,
because Python 3.12 inlines comprehensions (PEP 709) and would otherwise
count differently from 3.9 and 3.11.

The demand path makes few calls: the issue ring and the L1 hit probe are
inlined in :meth:`~repro.cpu.core.Core.run_span`, and an L1 miss runs in
one frame (``Hierarchy.demand_miss``): 998 of mcf's 2,646 calls without
prefetching are that frame, one per L1 miss.  A call added per miss
still fails the call budget; other regressions there add opcodes.
``run_span`` also tests the controller's blocked-issue gate itself, so
a reference that finds the held prefetch candidate still blocked makes
no call.  The fused co-run loop replays through the same span and the
same frame, and is gated on cells of the benchmark's ``corun`` workload.
The second gate replays fixed cells under ``sys.settrace`` with
``frame.f_trace_opcodes`` set on ``repro`` frames and counts the
bytecode instructions they execute: prefetch-free cells for the demand
path, and four prefetching cells for the one-frame prefetch drain, whose
blocked-issue cache and region-grain bookkeeping save work without
saving calls.  Opcode counts
depend on the interpreter's compiler, so those budgets are recorded
for, and run on, Python 3.11 only; the call budgets run everywhere.
"""

import json
import os
import sys
import types

import pytest

import repro
from repro.mem.controller import PrefetchRequest
from repro.prefetch.base import Prefetcher
from repro.sim import runner
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.multicore_fused import FusedMultiCoreSimulator
from repro.sim.runner import SCHEMES, execute, resolve_backend
from repro.sim.simulator import Simulator
from repro.sim.spec import CoRunSpec, RunSpec
from repro.workloads import get_workload

REFS = 2000

#: (workload, scheme) -> (prefetch fills, budget of repro calls).  The
#: decomposed per-candidate loop made 122,937 calls on ammp/srp (6.16 per
#: fill) and 56,699 on mcf/grp (31.4 per fill); the one-frame prefetch
#: drain cut them to 29,083 and 47,719, skipping the fill hook for
#: depth-0 candidates cut mcf/grp to 45,841, and replaying through the
#: fused loop instead of the deleted ring walker (which called into it
#: per event at every stretch boundary) cut both to 28,034 and 45,570.
#: The one-frame demand miss cut them to 14,756 and 36,742, and testing
#: the blocked-issue gate in ``run_span`` (no ``issue_prefetches`` or
#: ``gated_reclaim`` call while the held candidate stays blocked) to
#: 12,202 and 34,088.  Reading the queue's state in ``run_span``
#: instead of calling ``has_candidates()`` per reference cut 2,000 calls
#: from every prefetching cell, to the budgets below.  mcf/none gates
#: the demand miss alone: 11,406 calls through the decomposed chain (L2
#: probe, MSHR file, DRAM and fills each a call).  The arena engines
#: gaze and chase, which queue candidates from their L2 access and miss
#: hooks, are gated on one prefetching cell each (11,078 and 52,839
#: calls before the gate, 11,060 and 51,783 before the state read).
#: swim/stride gates the stride engine, which queues its own candidates
#: (its stream buffers fill no L2 line): reading ``_entries`` through a
#: property that called ``has_candidates()`` made 17,447 calls, and the
#: engine's own state read 13,447.
BUDGETS = {
    ("ammp", "srp"): (19944, 10202),
    ("mcf", "grp"): (1803, 32088),
    ("mcf", "none"): (0, 2646),
    ("applu", "gaze"): (632, 9060),
    ("mcf", "chase"): (3463, 49783),
    ("swim", "stride"): (0, 13447),
}

#: (workload, scheme) -> budget of opcodes executed in repro frames for
#: the fused replay at REFS references, on Python 3.11.  The first four
#: are ``demand-bound`` benchmark cells without prefetching: streaming
#: (swim, applu), L1-resident (art) and pointer-chasing (mcf).  Before
#: the one-frame demand miss they ran 720,508, 1,537,903, 616,573 and
#: 1,238,255 opcodes, and 610,493, 1,060,275, 534,221 and 920,599 after
#: it.  The other four gate the prefetch drain: disarming its
#: blocked-issue cache adds opcodes there (+8.9% on mcf/grp) but no
#: calls.  mcf/grp and ammp/srp ran 3,093,721 and 11,409,018 opcodes
#: before ``run_span`` tested the gate itself, and 3,036,161 and
#: 11,175,457 (mcf/srp 4,137,433, applu/grp 1,653,606) before the drain
#: picked open-row candidates by channel mask, the ready map lost its
#: heap, region allocation intersected the L2's keys in C, the
#: covering-entry search probed keys instead of scanning, and
#: ``run_span`` read the queue's state instead of calling
#: ``has_candidates()``.
OPCODE_BUDGETS = {
    ("swim", "none"): 610063,
    ("applu", "none"): 1057653,
    ("art", "none"): 533957,
    ("mcf", "none"): 919136,
    ("mcf", "grp"): 2983338,
    ("ammp", "srp"): 8451864,
    ("mcf", "srp"): 2817920,
    ("applu", "grp"): 1527320,
}

#: The ammp+art co-run under GRP (a cell of the benchmark's corun
#: workload): (per-core prefetch fills, budget of repro calls) for the
#: fused co-run loop at REFS references per core.  Through the
#: decomposed miss chain, with every gated reference calling
#: ``issue_prefetches``, it made 33,267 calls, and 16,403 before
#: ``run_span`` read the queue's state instead of calling
#: ``has_candidates()``.
CORUN = (("ammp", "art"), "grp")
CORUN_BUDGET = ((395, 94), 12403)

#: The mcf+swim co-run without prefetching, the same way: every L1 miss
#: is one call, where the decomposed chain made 14,688.
CORUN_DEMAND = (("mcf", "swim"), "none")
CORUN_DEMAND_BUDGET = ((0, 0), 3691)

#: The benchmark's rush-hour mix: 18 cores over the shared levels.
RUSH_HOUR = ("mcf", "swim", "art", "ammp", "equake", "mesa") * 3

#: (workloads, scheme, refs per core) -> budget of opcodes executed in
#: repro frames by the fused co-run loop, on Python 3.11.  Through the
#: decomposed chain, with a call per gated reference and a counter
#: flush after every span, they ran 2,777,057 and 13,334,586, and
#: 2,266,448 and 11,948,543 before the region-grain drain bookkeeping
#: (see OPCODE_BUDGETS).
CORUN_OPCODE_BUDGETS = {
    (("ammp", "art"), "grp", REFS): 2199248,
    (RUSH_HOUR, "srp", 500): 9189095,
}

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
COMPREHENSIONS = {"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"}


def prepare(spec):
    """Build, compile and trace ``spec`` outside the counted region."""
    config = spec.machine_config()
    scheme = SCHEMES[spec.scheme]
    space, compiled, key, build_interp = runner.prepare(
        get_workload(spec.workload), scheme, config, spec.policy,
        spec.scale, spec.seed, spec.limit_refs, cacheable=False)
    trace = build_interp().run_columns(key.limit)
    sim = Simulator(config, space, scheme.factory(compiled),
                    hint_table=compiled.hint_table if compiled else None)
    return sim, trace


def counted(run):
    """Call ``run()``; return its result and the repro calls it made."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE) \
                    and code.co_name not in COMPREHENSIONS:
                calls[0] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls[0]


def counted_replay(spec):
    """Replay ``spec``; return its stats and the repro calls it made."""
    sim, trace = prepare(spec)
    backend = resolve_backend(spec.backend)
    return counted(lambda: sim.run_compiled(
        trace, workload=spec.workload, scheme=spec.scheme, backend=backend))


@pytest.mark.parametrize("cell", sorted(BUDGETS), ids="/".join)
def test_calls_per_fill_within_budget(cell):
    workload, scheme = cell
    fills, budget = BUDGETS[cell]
    spec = RunSpec.create(workload, scheme, limit_refs=REFS)
    stats, calls = counted_replay(spec)
    assert stats.l2["prefetch_fills"] == fills
    assert calls <= budget, (
        "%s/%s: %d repro calls for %d prefetch fills, budget %d"
        % (workload, scheme, calls, fills, budget))
    # The counted replay is the default fast path; it must agree with
    # the decomposed oracle byte for byte.
    reference = execute(spec, reference=True)
    assert json.dumps(stats.to_dict(), sort_keys=True) \
        == json.dumps(reference.to_dict(), sort_keys=True)


def counted_opcodes(run):
    """Call ``run()``; return its result and the opcodes repro frames ran."""
    opcodes = [0]

    def count(frame, event, arg):
        if event == "opcode":
            opcodes[0] += 1
        return count

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return count
        return None

    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, opcodes[0]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="opcode budgets are recorded on Python 3.11")
@pytest.mark.parametrize("cell", sorted(OPCODE_BUDGETS), ids="/".join)
def test_demand_opcodes_within_budget(cell):
    workload, scheme = cell
    budget = OPCODE_BUDGETS[cell]
    spec = RunSpec.create(workload, scheme, limit_refs=REFS)
    sim, trace = prepare(spec)
    backend = resolve_backend(spec.backend)
    stats, opcodes = counted_opcodes(lambda: sim.run_compiled(
        trace, workload=workload, scheme=scheme, backend=backend))
    assert opcodes <= budget, (
        "%s/%s: %d opcodes in repro frames for %d refs, budget %d"
        % (workload, scheme, opcodes, REFS, budget))
    reference = execute(spec, reference=True)
    assert json.dumps(stats.to_dict(), sort_keys=True) \
        == json.dumps(reference.to_dict(), sort_keys=True)


def corun_results(simulator):
    """A finished co-run's per-core stats and shared summary, as JSON."""
    shared = simulator.shared
    return json.dumps({
        "cores": [stats.to_dict() for stats in simulator.results()],
        "l2": shared.l2.stats.snapshot(),
        "interference": shared.interference.snapshot(),
        "dram_busy": shared.dram.core_busy_cycles,
    }, sort_keys=True)


def check_corun_calls(workloads, scheme, fills, budget):
    spec = CoRunSpec.create(workloads, scheme, limit_refs=REFS)
    fused = FusedMultiCoreSimulator(spec)  # builds the traces uncounted
    _, calls = counted(fused.run)
    assert tuple(stats.l2["prefetch_fills"]
                 for stats in fused.results()) == fills
    assert calls <= budget, (
        "%s/%s: %d repro calls, budget %d"
        % ("+".join(workloads), scheme, calls, budget))
    # The counted co-run must agree with the stepped oracle byte for
    # byte.
    stepped = MultiCoreSimulator(spec)
    stepped.run()
    assert corun_results(fused) == corun_results(stepped)


def test_corun_calls_within_budget():
    check_corun_calls(*CORUN, *CORUN_BUDGET)


def test_corun_demand_calls_within_budget():
    check_corun_calls(*CORUN_DEMAND, *CORUN_DEMAND_BUDGET)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="opcode budgets are recorded on Python 3.11")
@pytest.mark.parametrize("cell", sorted(CORUN_OPCODE_BUDGETS, key=repr),
                         ids=lambda cell: "%s/%s" % (
                             "+".join(cell[0]) if len(cell[0]) <= 2
                             else "rush-hour%d" % len(cell[0]), cell[1]))
def test_corun_opcodes_within_budget(cell):
    workloads, scheme, refs = cell
    budget = CORUN_OPCODE_BUDGETS[cell]
    spec = CoRunSpec.create(workloads, scheme, limit_refs=refs)
    fused = FusedMultiCoreSimulator(spec)
    _, opcodes = counted_opcodes(fused.run)
    assert opcodes <= budget, (
        "%d cores under %s: %d opcodes in repro frames for %d refs per "
        "core, budget %d" % (len(workloads), scheme, opcodes, refs, budget))
    stepped = MultiCoreSimulator(spec)
    stepped.run()
    assert corun_results(fused) == corun_results(stepped)


#: Schemes whose engine fills the L2 and overrides the fill hook: the
#: engines the "depth > 0 only" contract of on_prefetch_fill covers.
HOOKED = sorted(
    name for name, scheme in SCHEMES.items()
    if scheme.engine is not None and getattr(scheme.engine, "fills_l2", True)
    and scheme.engine.on_prefetch_fill is not Prefetcher.on_prefetch_fill)


def engine_state(engine):
    """A structural dump of everything ``engine`` owns (not the
    hierarchy, address space or config it is attached to)."""
    seen = set()

    def dump(obj):
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, (types.FunctionType, types.MethodType,
                            types.BuiltinFunctionType)):
            return ("callable", getattr(obj, "__qualname__", repr(obj)))
        if id(obj) in seen:
            return ("seen", type(obj).__name__)
        seen.add(id(obj))
        if isinstance(obj, dict):
            return [(repr(key), dump(value)) for key, value in obj.items()]
        if isinstance(obj, (set, frozenset)):
            return sorted(map(repr, obj))
        if isinstance(obj, (list, tuple)) or hasattr(obj, "popleft"):
            return [dump(value) for value in obj]
        fields = dict(getattr(obj, "__dict__", {}))
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(obj, name):
                    fields[name] = getattr(obj, name)
        return (type(obj).__name__,
                [(name, dump(value)) for name, value in sorted(fields.items())
                 if name not in ("hierarchy", "space", "config")])

    return dump(engine)


def test_fill_hooked_schemes_are_the_pointer_followers():
    assert HOOKED == [
        "chase", "chase-adaptive", "grp", "grp-adaptive", "grp-fix",
        "grp-hintbit", "pointer", "pointer-recursive"]


@pytest.mark.parametrize("scheme", HOOKED)
def test_depth_zero_fill_hook_changes_nothing(scheme):
    """The drain skips on_prefetch_fill at depth 0; the oracle loop still
    calls it, so there it must be a no-op."""
    spec = RunSpec.create("mcf", scheme, limit_refs=REFS)
    sim, trace = prepare(spec)
    sim.run_compiled(trace, backend="fused")
    engine = sim.hierarchy.prefetcher
    now = sim.core.cycles
    blocks = list(sim.hierarchy.l2._index)[:8]
    assert blocks
    before = engine_state(engine)
    for block in blocks:
        for meta in (None, (None, 0)):
            engine.on_prefetch_fill(PrefetchRequest(block, now, 0, meta),
                                    now + 100)
    assert engine_state(engine) == before
