"""Work gate for the prefetch issue path: repository calls per fill.

Region prefetchers make many prefetch fills per demand reference (ammp
under SRP makes ten), so the cost of one fill is the simulator's unit of
work on those cells.  This gate replays fixed cells under
``sys.setprofile`` and counts the calls into ``repro`` functions per L2
prefetch fill.  The simulated work is deterministic, so the counts are
exact and the gate cannot flake: a change that adds a call per fill
fails it, and a change that removes calls re-records the budget.

Comprehension frames (``<listcomp>``, ``<genexpr>``, ...) are skipped,
because Python 3.12 inlines comprehensions (PEP 709) and would otherwise
count differently from 3.9 and 3.11.
"""

import json
import os
import sys

import pytest

import repro
from repro.compiler.driver import compile_hints
from repro.mem.space import AddressSpace
from repro.sim.runner import SCHEMES, execute, resolve_backend
from repro.sim.simulator import Simulator
from repro.sim.spec import RunSpec
from repro.trace.interp import Interpreter
from repro.workloads import get_workload

REFS = 2000

#: (workload, scheme) -> (prefetch fills, budget of repro calls).  The
#: budgets are the counts measured when the one-frame prefetch drain
#: landed; the decomposed per-candidate loop before it made 122,937 calls
#: on ammp/srp (6.16 per fill) and 56,699 on mcf/grp (31.4 per fill).
BUDGETS = {
    ("ammp", "srp"): (19944, 29083),
    ("mcf", "grp"): (1803, 47719),
}

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
COMPREHENSIONS = {"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"}


def prepare(spec):
    """Build, compile and trace ``spec`` outside the counted region."""
    config = spec.machine_config()
    workload = get_workload(spec.workload)
    scheme = SCHEMES[spec.scheme]
    space = AddressSpace()
    built = workload.build(space, scale=spec.scale)
    program = built.program.finalize()
    compiled = None
    if scheme.hinted:
        compiled = compile_hints(
            program, l2_size=config.l2_size, block_size=config.block_size,
            policy=spec.policy, variable_regions=scheme.variable_regions,
            indirect_mode=scheme.indirect_mode)
    interp = Interpreter(program, space, compiled, seed=spec.seed,
                         block_size=config.block_size,
                         ops_scale=workload.ops_scale)
    for name, addr in built.pointer_bindings.items():
        interp.bind_pointer(name, addr)
    trace = interp.run_columns(spec.limit_refs)
    sim = Simulator(config, space, scheme.factory(compiled),
                    hint_table=compiled.hint_table if compiled else None)
    return sim, trace


def counted_replay(spec):
    """Replay ``spec``; return its stats and the repro calls it made."""
    sim, trace = prepare(spec)
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE) \
                    and code.co_name not in COMPREHENSIONS:
                calls[0] += 1

    backend = resolve_backend(spec.backend)
    sys.setprofile(profile)
    try:
        stats = sim.run_compiled(trace, workload=spec.workload,
                                 scheme=spec.scheme, backend=backend)
    finally:
        sys.setprofile(None)
    return stats, calls[0]


@pytest.mark.parametrize("cell", sorted(BUDGETS), ids="/".join)
def test_calls_per_fill_within_budget(cell):
    workload, scheme = cell
    fills, budget = BUDGETS[cell]
    spec = RunSpec.create(workload, scheme, limit_refs=REFS)
    stats, calls = counted_replay(spec)
    assert stats.l2["prefetch_fills"] == fills
    assert calls <= budget, (
        "%s/%s: %d repro calls for %d prefetch fills (%.3f per fill), "
        "budget %d" % (workload, scheme, calls, fills, calls / fills,
                       budget))
    # The counted replay is the default fast path; it must agree with
    # the decomposed oracle byte for byte.
    reference = execute(spec, reference=True)
    assert json.dumps(stats.to_dict(), sort_keys=True) \
        == json.dumps(reference.to_dict(), sort_keys=True)

