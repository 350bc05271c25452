"""Performance benchmark harness: sim-phase refs/sec per scheme.

Measures the fused replay loop against the ``reference=True`` slow path
on a small scheme x workload matrix, plus the multi-core co-run backends
(fused skip-ahead vs the stepped reference loop) on a 2-core pair and
the 18-core rush-hour mix, and records the results in
``BENCH_perf.json`` at the repository root.

Schema version 2 times the **simulation phase only**: the workload
build, hint compilation, and trace generation happen once per case
outside the timer, and each timed run replays the same prebuilt
compiled trace through a fresh simulator.  (Version 1 timed the whole
pipeline cold, which buried backend differences under trace-generation
cost and let a large replay regression hide inside the build noise.)
Each case row carries a ``backend`` column: ``fused`` for single-core
rows, the co-run backend for co-run rows.

Per case the file records CPU seconds, refs/sec, the speedup over the
reference path, and an absolute ``refs_per_s_floor`` (a quarter of the
measured rate).  CI's smoke mode gates on **both** signals: the
fast/slow ratio (host-independent; a >30% drop means a real fast-path
regression) and the conservative absolute floor (catches the failure
the ratio alone misses — the fast and slow paths regressing together).

Modes::

    PYTHONPATH=src python tools/bench_perf.py            # full matrix, rewrites BENCH_perf.json
    PYTHONPATH=src python tools/bench_perf.py --smoke    # tiny matrix, schema + regression gates
    PYTHONPATH=src python tools/bench_perf.py --check    # schema validation only, no measurement

``--smoke`` and ``--check`` never write the file; both exit nonzero on a
schema violation, ``--smoke`` also on a gate failure.

The full mode additionally re-measures the end-to-end table1 sweep
(``python -m repro.experiments table1 --refs 3000 --no-cache --jobs 1``)
and carries forward the recorded pre-optimization baseline for that
command (measured once on the revision named by ``baseline_rev``; pass
``--baseline-cpu``/``--baseline-rev`` to re-record it).
"""

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
os.environ.setdefault("REPRO_TRACE_CACHE", "off")

from repro.compiler.driver import compile_hints  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.sim.config import MachineConfig  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.trace.interp import Interpreter  # noqa: E402
from repro.trace.store import default_store  # noqa: E402
from repro.workloads.base import get_workload  # noqa: E402

SCHEMA_VERSION = 2
OUT_NAME = "BENCH_perf.json"
REGRESSION_TOLERANCE = 0.30
#: The committed absolute floor is this fraction of the measured rate —
#: loose enough for a CI host several times slower than the recording
#: host, tight enough to catch order-of-magnitude replay regressions.
FLOOR_FRACTION = 0.25

FULL_MATRIX = [
    ("ammp", "none"), ("ammp", "srp"), ("ammp", "grp"),
    ("ammp", "chase"),
    ("mcf", "none"), ("mcf", "srp"), ("mcf", "grp"),
    ("mcf", "srp-adaptive"), ("mcf", "gaze"), ("mcf", "chase"),
    ("swim", "none"), ("swim", "srp"), ("swim", "grp"),
    ("swim", "grp-adaptive"), ("swim", "gaze"),
]
SMOKE_MATRIX = [("mcf", "srp"), ("swim", "grp"), ("mcf", "srp-adaptive"),
                ("swim", "gaze"), ("mcf", "chase")]

#: Multi-core co-run cases: (workload list, scheme).  Each case rows
#: both co-run backends — ``stepped`` (the per-event reference loop)
#: and ``fused`` (skip-ahead stretch scheduling) — with the stepped
#: timing as every row's ``reference`` side, so the fused row's
#: ``speedup_vs_reference`` is the backend speedup on identical work.
#: Timing follows the schema-v2 convention: simulator construction
#: (workload build, hint compile, trace generation) happens outside the
#: timer; the stepped loop's timed region still includes trace
#: interpretation, because the generator-driven replay *is* that
#: backend's cost, exactly as the single-core reference rows.  The
#: ``none`` pair is the dispatch-bound case (the scheduling win shows
#: undiluted); the ``srp`` pair is Amdahl-limited by the prefetch
#: machinery both backends share.  The 18-core rush-hour mix smokes
#: arbitration at scale.
RUSH_HOUR = ["mcf", "swim", "art", "ammp", "equake", "mesa"] * 3
CORUN_MATRIX = [
    (["mcf", "swim"], "none"),
    (["mcf", "swim"], "srp"),
    (RUSH_HOUR, "srp"),
]
CORUN_SMOKE = [
    (["mcf", "swim"], "none"),
    (["mcf", "swim"], "srp"),
    (RUSH_HOUR, "srp"),
]
#: Rush-hour cases replay at most this many refs per core per timed
#: run — 18 cores at the full per-case ref count would dominate the
#: whole benchmark's wall-clock for no extra signal.
CORUN_BIG_REFS = 1000

TABLE1_CMD = [
    "-m", "repro.experiments", "table1",
    "--refs", "3000", "--no-cache", "--jobs", "1",
]


def _cold():
    """Drop every in-process cache so the next run pays full cost."""
    default_store().clear_memory()
    runner._BUILD_CACHE.clear()


def _prepare(workload_name, scheme, refs):
    """Build everything up to the replay, once: space, hints, trace.

    Returns the prebuilt pieces every timed run shares.  The address
    space is read-only during simulation and the compiled trace is
    immutable, so reuse across timed runs is safe.
    """
    workload = get_workload(workload_name)
    scheme_spec = runner.SCHEMES[scheme]
    config = MachineConfig.scaled()
    space, built, program = runner._built_workload(workload, 1.0, True)
    if scheme_spec.hinted:
        result = compile_hints(
            program, l2_size=config.l2_size, block_size=config.block_size,
            policy="default",
            variable_regions=scheme_spec.variable_regions,
            indirect_mode=scheme_spec.indirect_mode,
        )
        hint_table = result.hint_table
    else:
        result = None
        hint_table = None

    def build_interp():
        interp = Interpreter(program, space, result, seed=12345,
                             block_size=config.block_size,
                             ops_scale=workload.ops_scale)
        for name, addr in built.pointer_bindings.items():
            interp.bind_pointer(name, addr)
        return interp

    trace = build_interp().run_columns(refs)
    return {
        "scheme_spec": scheme_spec, "config": config, "space": space,
        "result": result, "hint_table": hint_table,
        "build_interp": build_interp, "trace": trace,
    }


def _fresh_sim(prep, reference=False):
    return Simulator(prep["config"], prep["space"],
                     prep["scheme_spec"].factory(prep["result"]),
                     hint_table=prep["hint_table"], reference=reference)


def _time_fused(prep, repeats):
    """Best-of-``repeats`` CPU seconds replaying the prebuilt trace."""
    best = float("inf")
    for _ in range(repeats):
        sim = _fresh_sim(prep)
        start = time.process_time()
        sim.run_compiled(prep["trace"])
        best = min(best, time.process_time() - start)
    return best


def _time_reference(prep, refs, repeats):
    """Best-of-``repeats`` CPU seconds for the slow path's replay.

    The reference path has no compiled trace — interpretation feeds the
    simulator directly — so its sim phase is the generator-driven run
    (interpretation included; that *is* the slow path's replay cost).
    """
    best = float("inf")
    for _ in range(repeats):
        sim = _fresh_sim(prep, reference=True)
        interp = prep["build_interp"]()
        start = time.process_time()
        sim.run(interp.run(limit=refs))
        best = min(best, time.process_time() - start)
    return best


def measure_case(workload, scheme, refs, repeats):
    """The fused loop's case row, with one shared build."""
    prep = _prepare(workload, scheme, refs)
    slow = _time_reference(prep, refs, repeats)
    fast = _time_fused(prep, repeats)
    rate = refs / fast
    return {
        "workload": workload,
        "scheme": scheme,
        "backend": "fused",
        "refs": refs,
        "sim": {"cpu_s": round(fast, 4),
                "refs_per_s": round(rate, 1)},
        "reference": {"cpu_s": round(slow, 4),
                      "refs_per_s": round(refs / slow, 1)},
        "speedup_vs_reference": round(slow / fast, 3),
        "refs_per_s_floor": int(rate * FLOOR_FRACTION),
    }


def measure_corun_case(workloads, scheme, refs, repeats):
    """One case row per co-run backend, stepped timing as the reference.

    Each timed run replays a freshly built simulator (construction —
    workload build, hint compile, and for the fused backend the
    compiled-trace generation through the warm in-process trace store —
    stays outside the timer; the stepped loop interprets its event
    stream inside the timed region, which is that backend's replay
    cost).  Byte-identity of the two backends' results is the test
    suite's job; this only times them.
    """
    from repro.sim.multicore import MultiCoreSimulator
    from repro.sim.multicore_fused import FusedMultiCoreSimulator
    from repro.sim.spec import CoRunSpec

    if len(workloads) > 2:
        refs = min(refs, CORUN_BIG_REFS)
    spec = CoRunSpec.create(workloads, scheme, limit_refs=refs)
    total_refs = refs * len(workloads)
    timings = {}
    for backend, sim_class in (("stepped", MultiCoreSimulator),
                               ("fused", FusedMultiCoreSimulator)):
        best = float("inf")
        for _ in range(repeats):
            sim = sim_class(spec)
            start = time.process_time()
            sim.run()
            best = min(best, time.process_time() - start)
        timings[backend] = best
    slow = timings["stepped"]
    reference = {"cpu_s": round(slow, 4),
                 "refs_per_s": round(total_refs / slow, 1)}
    cases = []
    for backend in ("stepped", "fused"):
        fast = timings[backend]
        rate = total_refs / fast
        cases.append({
            "workload": ("+".join(workloads) if len(workloads) <= 2
                         else "rushhour%d" % len(workloads)),
            "scheme": scheme,
            "backend": backend,
            "refs": refs,
            "cores": len(workloads),
            "sim": {"cpu_s": round(fast, 4),
                    "refs_per_s": round(rate, 1)},
            "reference": dict(reference),
            "speedup_vs_reference": round(slow / fast, 3),
            "refs_per_s_floor": int(rate * FLOOR_FRACTION),
        })
    return cases


def measure_table1():
    """CPU seconds for the end-to-end table1 sweep, in a child process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    subprocess.run(
        [sys.executable] + TABLE1_CMD, cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) \
        + (after.ru_stime - before.ru_stime)


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------

def validate(doc):
    """Return a list of schema violations (empty when the doc is valid)."""
    errors = []

    def need(obj, key, types, where):
        value = obj.get(key)
        if not isinstance(value, types) or (
                isinstance(value, (int, float))
                and not isinstance(value, bool) and value <= 0):
            errors.append("%s.%s missing or invalid: %r" % (where, key, value))
            return None
        return value

    if doc.get("kind") != "repro-bench-perf":
        errors.append("kind != repro-bench-perf")
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append("schema_version != %d" % SCHEMA_VERSION)
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        errors.append("cases missing or empty")
        cases = []
    for i, case in enumerate(cases):
        where = "cases[%d]" % i
        need(case, "workload", str, where)
        need(case, "scheme", str, where)
        need(case, "refs", int, where)
        need(case, "speedup_vs_reference", (int, float), where)
        need(case, "refs_per_s_floor", int, where)
        backend = need(case, "backend", str, where)
        if "cores" in case:  # optional: multi-core co-run cases only
            need(case, "cores", int, where)
            corun_backends = ("stepped", "fused")
            if backend is not None and backend not in corun_backends:
                errors.append("%s.backend unknown for co-run: %r"
                              % (where, backend))
        elif backend is not None and backend != "fused":
            errors.append("%s.backend unknown: %r" % (where, backend))
        for side in ("sim", "reference"):
            timing = case.get(side)
            if not isinstance(timing, dict):
                errors.append("%s.%s missing" % (where, side))
                continue
            need(timing, "cpu_s", (int, float), "%s.%s" % (where, side))
            need(timing, "refs_per_s", (int, float), "%s.%s" % (where, side))
    table1 = doc.get("table1")
    if table1 is not None:
        need(table1, "command", str, "table1")
        need(table1, "optimized_cpu_s", (int, float), "table1")
        if table1.get("baseline_cpu_s") is not None:
            need(table1, "baseline_cpu_s", (int, float), "table1")
            need(table1, "speedup", (int, float), "table1")
    return errors


def check_regressions(committed, measured):
    """Gate measured cases against the committed baselines.

    Two independent checks per (workload, scheme, backend): the fast/slow
    speedup ratio must stay within ``REGRESSION_TOLERANCE`` of the
    committed ratio, and the absolute sim-phase refs/sec must stay above
    the committed ``refs_per_s_floor``.  The ratio catches fast-path
    regressions independent of host speed; the floor catches the case
    the ratio is blind to — both paths slowing down together.
    """
    failures = []
    by_case = {(c["workload"], c["scheme"], c["backend"]): c
               for c in committed["cases"]}
    for case in measured:
        key = (case["workload"], case["scheme"], case["backend"])
        baseline = by_case.get(key)
        if baseline is None:
            continue
        tag = "%s/%s/%s" % key
        ratio_floor = (baseline["speedup_vs_reference"]
                       * (1 - REGRESSION_TOLERANCE))
        got_ratio = case["speedup_vs_reference"]
        abs_floor = baseline["refs_per_s_floor"]
        got_rate = case["sim"]["refs_per_s"]
        if got_ratio < ratio_floor:
            failures.append(
                "%s: speedup %.2fx below floor %.2fx (committed %.2fx)"
                % (tag, got_ratio, ratio_floor,
                   baseline["speedup_vs_reference"]))
        elif got_rate < abs_floor:
            failures.append(
                "%s: %.0f refs/s below the absolute floor %d"
                % (tag, got_rate, abs_floor))
        else:
            print("  %-24s %.2fx (committed %.2fx)  %8.0f refs/s"
                  " (floor %d) ok"
                  % (tag, got_ratio, baseline["speedup_vs_reference"],
                     got_rate, abs_floor))
    return failures


# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny matrix; gate against committed numbers, "
                             "do not rewrite the file")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed file's schema only")
    parser.add_argument("--refs", type=int, default=3000,
                        help="references per timed run (default 3000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per case; best is kept")
    parser.add_argument("--out", default=str(REPO_ROOT / OUT_NAME))
    parser.add_argument("--skip-table1", action="store_true",
                        help="skip the end-to-end table1 measurement")
    parser.add_argument("--baseline-cpu", type=float, default=None,
                        help="record this as the table1 pre-optimization "
                             "baseline CPU time (seconds)")
    parser.add_argument("--baseline-rev", default=None,
                        help="revision the table1 baseline was measured on")
    args = parser.parse_args(argv)

    out_path = pathlib.Path(args.out)
    committed = None
    if out_path.exists():
        try:
            committed = json.loads(out_path.read_text())
        except ValueError:
            print("error: %s is not valid JSON" % out_path)
            return 1

    if args.check or args.smoke:
        if committed is None:
            print("error: %s not found" % out_path)
            return 1
        errors = validate(committed)
        if errors:
            print("schema violations in %s:" % out_path)
            for error in errors:
                print("  - " + error)
            return 1
        print("%s: schema ok (%d cases)" % (out_path.name,
                                            len(committed["cases"])))
        if args.check:
            return 0

    matrix = SMOKE_MATRIX if args.smoke else FULL_MATRIX
    refs = min(args.refs, 1500) if args.smoke else args.refs
    repeats = 2 if args.smoke else args.repeats
    cases = []
    for workload, scheme in matrix:
        case = measure_case(workload, scheme, refs, repeats)
        print("%-6s %-13s sim %8.0f refs/s   reference %7.0f"
              " refs/s   speedup %.2fx"
              % (workload, scheme, case["sim"]["refs_per_s"],
                 case["reference"]["refs_per_s"],
                 case["speedup_vs_reference"]))
        cases.append(case)
    for workloads, scheme in (CORUN_SMOKE if args.smoke else CORUN_MATRIX):
        for case in measure_corun_case(workloads, scheme, refs, repeats):
            print("%-10s %-13s co-run/%-8s %8.0f refs/s   (%d cores, "
                  "speedup %.2fx)"
                  % (case["workload"], scheme, case["backend"],
                     case["sim"]["refs_per_s"], case["cores"],
                     case["speedup_vs_reference"]))
            cases.append(case)

    if args.smoke:
        failures = check_regressions(committed, cases)
        if failures:
            print("refs/sec regression gate FAILED:")
            for failure in failures:
                print("  - " + failure)
            return 1
        print("regression gates ok (ratio tolerance %d%%, absolute floors)"
              % int(REGRESSION_TOLERANCE * 100))
        return 0

    doc = {
        "kind": "repro-bench-perf",
        "schema_version": SCHEMA_VERSION,
        "cases": cases,
    }
    if not args.skip_table1:
        optimized_cpu = measure_table1()
        table1 = {
            "command": "python " + " ".join(TABLE1_CMD),
            "optimized_cpu_s": round(optimized_cpu, 3),
            "baseline_cpu_s": None,
            "baseline_rev": None,
            "speedup": None,
        }
        previous = (committed or {}).get("table1") or {}
        baseline_cpu = (args.baseline_cpu
                        if args.baseline_cpu is not None
                        else previous.get("baseline_cpu_s"))
        baseline_rev = args.baseline_rev or previous.get("baseline_rev")
        if baseline_cpu:
            table1["baseline_cpu_s"] = round(baseline_cpu, 3)
            table1["baseline_rev"] = baseline_rev
            table1["speedup"] = round(baseline_cpu / optimized_cpu, 2)
            print("table1: %.2fs vs %.2fs baseline (%s) -> %.2fx"
                  % (optimized_cpu, baseline_cpu, baseline_rev,
                     table1["speedup"]))
        else:
            print("table1: %.2fs (no recorded baseline)" % optimized_cpu)
        doc["table1"] = table1
    errors = validate(doc)
    if errors:
        print("internal error: generated document fails validation:")
        for error in errors:
            print("  - " + error)
        return 1
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print("wrote %s" % out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
