"""The issue ring's refill memo: ``Core._fill`` and ``Core._since``.

``Core.run_span`` keeps, beside the ring, the value of the last
full-window refill and the number of ring writes since it, and the
closed form for a large ALU batch scans only the slots written since
(DESIGN.md §3h).  The invariant that makes this exact: while
``_since < window`` the head sits at slot ``_since`` and every slot
from there on still holds ``_fill``.

These tests check the invariant in place, before and after every span
and every co-run stretch, and compare the results against the oracle
loops, which do not use the memo: on all registered workloads, on
generated programs, and on a configuration whose timestamps are not
dyadic (an issue width of 3 and a non-integer L1 latency).
"""

import json

import pytest

from repro.cpu.core import Core
from repro.prefetch.srp import SRPPrefetcher
from repro.sim.config import MachineConfig
from repro.sim.multicore import execute_corun
from repro.sim.runner import execute
from repro.sim.simulator import Simulator
from repro.sim.spec import CoRunSpec, RunSpec
from repro.workloads.base import workload_names

from tests.test_trace_codegen import ProgramFuzzer

REFS = 1500


def assert_ring_memo(core):
    """The slots outside the last ``_since`` writes hold ``_fill``."""
    window = core.window
    since = core._since
    if since < window:
        assert core._head == since
        assert core._ring[since:] == [core._fill] * (window - since)
        return True
    return False


@pytest.fixture
def checked(monkeypatch):
    """Check the memo around every span (co-run stretches included).

    Returns counters: how many checks ran, and in how many the memo held
    (so a test can show it did not check a memo that never held).
    """
    counts = {"checks": 0, "held": 0}

    def check(core):
        counts["checks"] += 1
        counts["held"] += assert_ring_memo(core)

    span = Core.run_span

    def run_span(self, ctx, pos, frontier=float("inf"), limit_refs=None):
        check(self)
        pos = span(self, ctx, pos, frontier, limit_refs)
        check(self)
        return pos

    monkeypatch.setattr(Core, "run_span", run_span)
    return counts


def dump(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("workload", workload_names())
def test_workloads_keep_the_memo(workload, checked):
    reference = dump(execute(RunSpec.create(workload, "grp", limit_refs=REFS),
                             reference=True))
    spec = RunSpec.create(workload, "grp", limit_refs=REFS)
    assert dump(execute(spec)) == reference
    assert checked["held"] > 0


def test_width_3_and_fractional_l1_latency(checked):
    """The memo's exactness does not lean on dyadic timestamps."""
    config = MachineConfig.scaled(issue_width=3, l1_latency=1.5)
    for workload in ("mcf", "swim", "ammp"):
        spec = RunSpec.create(workload, "srp", config=config,
                              limit_refs=REFS, backend="fused")
        assert dump(execute(spec)) == dump(execute(spec, reference=True))
    assert checked["held"] > 0


def corun_dumps(workloads, scheme, refs):
    outs = []
    for backend in ("stepped", "fused"):
        spec = CoRunSpec.create(workloads, scheme, limit_refs=refs,
                                backend=backend)
        outs.append(json.dumps(execute_corun(spec, solo_baseline=False)
                               .to_dict(), sort_keys=True))
    return outs


@pytest.mark.parametrize("workloads,scheme", [
    (("ammp", "art"), "grp"),
    (("mcf", "swim", "twolf"), "srp"),
])
def test_corun_stretches_keep_the_memo(workloads, scheme, checked):
    stepped, fused = corun_dumps(workloads, scheme, 600)
    assert fused == stepped
    assert checked["held"] > 0


#: Generated programs, replayed under the default window, a short one
#: (where most ALU batches refill the whole ring), and with 16x the
#: ALU work (so most batches take the closed form): (config, ops factor).
FUZZ_SEEDS = range(0, 200, 4)
FUZZ_CONFIGS = {
    "window64": (MachineConfig.tiny(), 1),
    "window8": (MachineConfig.tiny(window_size=8), 1),
    "ops16": (MachineConfig.tiny(), 16),
}


@pytest.mark.parametrize("config", sorted(FUZZ_CONFIGS))
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_generated_programs_keep_the_memo(seed, config, checked):
    machine, ops_factor = FUZZ_CONFIGS[config]
    case = ProgramFuzzer(seed).case()
    case.ops_scale *= ops_factor
    try:
        trace = case.interpreter().run_columns(None)
    except Exception:  # the program raises; the trace contract covers it
        pytest.skip("generated program raises")
    hints = case.result.hint_table if case.result is not None else None

    def run(**kwargs):
        sim = Simulator(machine, case.space, SRPPrefetcher(),
                        hint_table=hints,
                        reference=kwargs.pop("reference", False))
        if "backend" in kwargs:
            return dump(sim.run_compiled(trace, **kwargs))
        return dump(sim.run(trace.events()))

    want = run(reference=True)
    assert run(backend="fused") == want
