"""Tests for the repository benchmark in ``run.py``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``; the
tier-1 suite does not collect them.
"""

import importlib.util
import io
import json
import pathlib
import re

import pytest

from repro.sim.multicore import execute_corun
from repro.sim.runner import execute
from repro.sim.spec import CoRunSpec, RunSpec
from repro.sim.stats import result_to_json
from repro.trace.store import reset_default_store

_SPEC = importlib.util.spec_from_file_location(
    "perf_run", pathlib.Path(__file__).resolve().parent / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)

DECLARED = json.loads(run.BENCHMARK_JSON.read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(autouse=True)
def memory_only_trace_store(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    reset_default_store()
    yield
    reset_default_store()


#: One cell from each workload: paper-sweep, prefetch-bound, demand-bound,
#: and core 0 of corun's ammp+art/grp.
STAGED_CELLS = [("swim", "grp-fix"), ("ammp", "srp"), ("gzip", "grp"),
                ("ammp", "grp")]


@pytest.mark.parametrize("workload,scheme", STAGED_CELLS)
def test_staged_pipeline_matches_execute(workload, scheme):
    spec = RunSpec.create(workload, scheme, limit_refs=2000)
    prepared = run.staged_prepare(spec)
    staged = run.staged_replay(prepared, run.resolve_backend("auto"))
    assert result_to_json(staged) == result_to_json(execute(spec))


def test_declared_metrics_match_the_runner():
    e2e = {m["name"]: (m["unit"], m["better"])
           for m in DECLARED["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert e2e == run.E2E_METRICS
    assert layers == run.PER_LAYER_METRICS
    assert len(e2e) <= 16 and len(layers) <= 128
    names = list(e2e) + list(layers)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_emitted_metrics_are_the_declared_ones(workload, trace):
    out = io.StringIO()
    result = run.run_workload(workload, seed=7, seconds=0, trace=trace,
                              smoke=True, out=out)
    assert out.getvalue().splitlines()[-1] == json.dumps(result)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def _timeliness(result):
    result.metrics["timeliness"]["timely"] += 1


def _lost_ref(result):
    result.hier["loads"] -= 1


def _core_slice(result):
    result.cores[0].l2["demand_misses"] += 1


@pytest.mark.parametrize("doctor,corun,problem", [
    (_timeliness, False, "timeliness partition"),
    (_lost_ref, False, "refs and"),
    (_core_slice, True, "does not sum"),
])
def test_doctored_result_counts_in_fail_rate(doctor, corun, problem):
    if corun:
        spec = CoRunSpec.create(["mcf", "swim"], "srp", limit_refs=500)
        result = execute_corun(spec, solo_baseline=False)
    else:
        spec = RunSpec.create("mcf", "srp", limit_refs=500)
        result = execute(spec)
    cells = [run.Cell("cell", spec, result, 0.1)]
    tally = run.Tally()
    run.check_pass(run.Pass(0.1, cells), tally, {})
    assert (tally.attempted, tally.failed) == (1, 0)
    doctor(result)
    run.check_pass(run.Pass(0.1, cells), tally, {})
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.fail_rate == 0.5
    assert any(problem in text for text in tally.problems)


def test_a_changed_digest_fails():
    spec = RunSpec.create("swim", "none", limit_refs=500)
    cells = [run.Cell("swim/none", spec, execute(spec), 0.1)]
    tally = run.Tally()
    run.check_pass(run.Pass(0.1, cells), tally, {"swim/none": "0" * 64})
    assert tally.failed == 1


def test_tail_percentile_picks_p94_for_the_sweep():
    matrix = run.make_workload("paper-sweep", 1).setup(run.NULL_TRACER)
    assert len(matrix) == 177
    assert run.tail_percentile(177) == 94
    assert run.tail_percentile(9) is None
    samples = list(range(177))
    p94 = run.percentile(samples, 94)
    assert sum(1 for s in samples if s > p94) == 10
