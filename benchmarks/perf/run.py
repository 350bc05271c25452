"""Repository benchmark: the simulator's host cost on four workloads.

Each workload runs in its own process, serially, with one job and no
extra threads.  The benchmark sets up several times (reporting the
median), then repeats timed passes for ``--seconds`` and reports
medians, checks every cell's output, and prints each metric as
``name value unit`` followed by one JSON line.  See README.md for the
workloads, the metrics and how to compare two commits.

Usage, from the repository root (no ``PYTHONPATH`` needed)::

    python3 benchmarks/perf/run.py --workload prefetch-bound --seed 7
    python3 benchmarks/perf/run.py --workload corun --trace 1
    python3 benchmarks/perf/run.py --all            # every workload
    python3 benchmarks/perf/run.py --smoke          # tiny sizes, with --trace
    python3 benchmarks/perf/run.py --regen-golden   # rewrite golden.json
    python3 benchmarks/perf/run.py --baseline       # rewrite baseline.json

Scratch files (result caches, span traces) go under ``.bench_build/perf``
in the repository root.
"""

import argparse
import cProfile
import gc
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
REPRO_DIR = str(SRC / "repro") + os.sep
SCRATCH = ROOT / ".bench_build" / "perf"
GOLDEN_PATH = HERE / "golden.json"
BASELINE_PATH = HERE / "baseline.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(SRC))

from repro.compiler.driver import compile_hints  # noqa: E402
from repro.experiments import table1  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentContext,
    format_table,
)
from repro.mem.space import AddressSpace  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.sim.cache import ResultCache  # noqa: E402
from repro.sim.multicore import execute_corun  # noqa: E402
from repro.sim.multicore_fused import FusedMultiCoreSimulator  # noqa: E402
from repro.sim.runner import (  # noqa: E402
    SCHEMES,
    execute,
    resolve_backend,
    resolve_corun_backend,
)
from repro.sim.simulator import Simulator  # noqa: E402
from repro.sim.spec import CoRunSpec, RunSpec  # noqa: E402
from repro.sim.stats import CoRunResult, result_to_json  # noqa: E402
from repro.trace.interp import Interpreter  # noqa: E402
from repro.trace.store import default_store, reset_default_store  # noqa: E402
from repro.workloads.base import get_workload  # noqa: E402

#: The default seed, and the one golden.json holds digests for; other
#: seeds get invariant checks only.
GOLDEN_SEED = 12345
SETUP_REPS = 3
MIN_PASSES = 3
#: Smoke runs divide every trace length by this.
SMOKE_DIVISOR = 20
#: What a fresh interpreter imports before any workload can run; timed
#: in a child process as part of every set-up.
IMPORT_PROBE = "import repro, repro.experiments.table1"

RUSH_HOUR = ("mcf", "swim", "art", "ammp", "equake", "mesa") * 3

#: Trace lengths are chosen so one pass takes 1.5 to 3.5 s on a 2-core
#: x86-64 host, which leaves several passes per measuring window.
SWEEP_REFS = 2000
PREFETCH_BOUND = (10000, [("ammp", "srp"), ("mcf", "srp"), ("mcf", "chase"),
                          ("mcf", "srp-adaptive"), ("equake", "grp"),
                          ("vpr", "srp")])
DEMAND_BOUND = (80000, [("swim", "none"), ("mcf", "none"), ("art", "none"),
                        ("applu", "none"), ("mgrid", "gaze"), ("gzip", "grp"),
                        ("twolf", "grp-adaptive")])
CORUN_CELLS = [(("mcf", "swim"), "none", 20000),
               (("mcf", "swim"), "srp", 20000),
               (("ammp", "art"), "grp", 20000),
               (("mcf", "twolf"), "srp-adaptive", 20000),
               (RUSH_HOUR, "srp", 2000)]

#: End-to-end metrics: name -> (unit, better).  BENCHMARK.json declares
#: the same names with their regression bounds.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "host_s": ("s", "lower"),
    "work_per_s": ("work/s", "higher"),
    "refs_per_s": ("refs/s", "higher"),
    "cell_p50_s": ("s", "lower"),
    "cell_p94_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_ipc_geomean": ("IPC", "higher"),
}

#: Exact counters from the untraced run, summed over one pass's cells.
COUNTER_METRICS = {
    "replay.demand_refs": "count",
    "replay.work": "count",
    "cpu.instructions": "count",
    "cpu.load_stall_cycles": "cycles",
    "mem.l1.demand_misses": "count",
    "mem.l2.demand_misses": "count",
    "mem.l2.prefetch_fills": "count",
    "mem.l2.useful_prefetches": "count",
    "mem.l2.pollution_misses": "count",
    "mem.dram.demand_blocks": "count",
    "mem.dram.prefetch_blocks": "count",
    "mem.dram.row_hit_rate": "ratio",
    "mem.mshr.demand_stalls": "count",
    "prefetch.candidates_issued": "count",
    "prefetch.regions_allocated": "count",
    "prefetch.accuracy": "ratio",
    "prefetch.timely_ratio": "ratio",
    "adapt.epochs": "count",
    "adapt.knob_changes": "count",
    "trace.store.hit_ratio": "ratio",
    "sim.cache.hit_ratio": "ratio",
    "corun.cross_core_pollution": "count",
    "corun.shared_mshr_stalls": "count",
}

#: Stage times: cumulative profiled seconds in each public entry point,
#: given as (path under src/repro/, function name).
STAGES = {
    "stage.build_s": [("workloads/", "build")],
    "stage.compile_s": [("compiler/driver.py", "compile_hints")],
    "stage.trace_s": [("trace/interp.py", "run_columns")],
    "stage.replay_s": [("sim/simulator.py", "run_compiled"),
                       ("sim/multicore.py", "execute_corun")],
    "stage.encode_s": [("sim/stats.py", "result_to_json")],
    "stage.cache_put_s": [("sim/cache.py", "put")],
    "stage.cache_get_s": [("sim/cache.py", "get")],
}

#: Self-time layers, first matching path prefix under src/repro/ wins.
#: ``replay`` spans every replay loop so the name holds while code moves
#: between them; adapt/ and metrics/ share ``feedback`` because the
#: paper sweep runs no adaptive scheme.  Time outside src/repro/ goes to
#: the repo function that called it, and to ``stdlib`` when no repo
#: function did (the harness itself included).
LAYERS = [
    ("workloads/", "workloads"),
    ("compiler/", "compiler"),
    ("trace/", "trace"),
    ("cpu/", "replay"),
    ("sim/simulator.py", "replay"),
    ("sim/vectorized.py", "replay"),
    ("sim/multicore.py", "replay"),
    ("sim/multicore_fused.py", "replay"),
    ("mem/probes.py", "replay"),
    ("mem/cache.py", "mem.cache"),
    ("mem/hierarchy.py", "mem.hierarchy"),
    ("mem/controller.py", "mem.controller"),
    ("mem/dram.py", "mem.dram"),
    ("mem/mshr.py", "mem.mshr"),
    ("mem/", "mem.other"),
    ("prefetch/regionqueue.py", "prefetch.regionqueue"),
    ("prefetch/pending.py", "prefetch.regionqueue"),
    ("prefetch/", "prefetch.engines"),
    ("adapt/", "feedback"),
    ("metrics/", "feedback"),
    ("sim/", "sim.results"),
    ("", "experiments"),  # experiments/, report/, serve/, package init
]
LAYER_NAMES = list(dict.fromkeys(group for _, group in LAYERS)) + ["stdlib"]
PREFETCH_PATH = ("prefetch.regionqueue", "prefetch.engines",
                 "mem.controller", "mem.mshr")

PER_LAYER_METRICS = dict(COUNTER_METRICS)
PER_LAYER_METRICS.update((name, "s") for name in STAGES)
PER_LAYER_METRICS.update(("%s.self_s" % name, "s") for name in LAYER_NAMES)
PER_LAYER_METRICS["prefetch_path.share"] = "fraction"
PER_LAYER_METRICS["trace_overhead"] = "ratio"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Tracer:
    """Spans (id, parent id, name, start, end) kept in memory until the end."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name):
        record = self.add(name, time.perf_counter(), None)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def add(self, name, start, end):
        """Record a span under the open one; times are perf_counter values."""
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": start - self._t0,
                  "end": None if end is None else end - self._t0}
        self.spans.append(record)
        return record


class NullTracer:
    """The untraced runs' tracer: records nothing."""

    def span(self, name):
        return nullcontext()

    def add(self, name, start, end):
        pass


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass
class Cell:
    """One cell's outcome in a pass: its spec, result and replay seconds."""

    label: str
    spec: object
    result: object
    seconds: float


@dataclass
class Pass:
    """One timed pass; ``checks`` holds (ok, what) pairs it verified."""

    host_s: float
    cells: list
    store_hit_ratio: float = 0.0
    cache_hit_ratio: float = 0.0
    table: str = ""
    checks: list = field(default_factory=list)


@dataclass
class Prepared:
    """Everything a replay needs, built once by the set-up stages."""

    spec: RunSpec
    config: object
    scheme: object
    space: object
    compiled: object
    trace: object


def cold_caches():
    """Drop the in-process trace store and workload-build memo."""
    reset_default_store()
    runner._BUILD_CACHE.clear()


def staged_prepare(spec, tracer=NULL_TRACER):
    """Build, compile and generate ``spec``'s trace stage by stage.

    The same stages :func:`repro.sim.runner.execute` runs, through their
    public entry points and without the trace store, so that set-up and
    replay can be timed apart.
    """
    config = spec.machine_config()
    workload = get_workload(spec.workload)
    scheme = SCHEMES[spec.scheme]
    with tracer.span("build " + spec.workload):
        space = AddressSpace()
        built = workload.build(space, scale=spec.scale)
        program = built.program.finalize()
    compiled = None
    if scheme.hinted:
        with tracer.span("compile " + spec.label()):
            compiled = compile_hints(
                program, l2_size=config.l2_size, block_size=config.block_size,
                policy=spec.policy, variable_regions=scheme.variable_regions,
                indirect_mode=scheme.indirect_mode)
    with tracer.span("trace " + spec.label()):
        interp = Interpreter(program, space, compiled, seed=spec.seed,
                             block_size=config.block_size,
                             ops_scale=workload.ops_scale)
        for name, addr in built.pointer_bindings.items():
            interp.bind_pointer(name, addr)
        trace = interp.run_columns(spec.limit_refs)
    return Prepared(spec, config, scheme, space, compiled, trace)


def staged_replay(prep, backend):
    """Replay a prepared cell through a fresh simulator."""
    hint_table = prep.compiled.hint_table if prep.compiled else None
    sim = Simulator(prep.config, prep.space, prep.scheme.factory(prep.compiled),
                    hint_table=hint_table)
    return sim.run_compiled(prep.trace, workload=prep.spec.workload,
                            scheme=prep.spec.scheme, backend=backend)


class ReplayWorkload:
    """Replay only: cells are built, compiled and traced during set-up."""

    def __init__(self, refs, cells, seed, divisor):
        self.specs = [RunSpec.create(w, s, limit_refs=refs // divisor,
                                     seed=seed) for w, s in cells]

    def setup(self, tracer):
        self.backend = resolve_backend("auto")
        return [staged_prepare(spec, tracer) for spec in self.specs]

    def run_pass(self, prepared, tracer):
        cells = []
        start = time.perf_counter()
        for prep in prepared:
            t0 = time.perf_counter()
            with tracer.span("replay " + prep.spec.label()):
                result = staged_replay(prep, self.backend)
            cells.append(Cell(prep.spec.label(), prep.spec, result,
                              time.perf_counter() - t0))
        return Pass(time.perf_counter() - start, cells)


class CorunWorkload:
    """Co-runs through ``execute_corun``, their traces built in set-up."""

    def __init__(self, seed, divisor):
        self.specs = []
        self.labels = []
        for workloads, scheme, refs in CORUN_CELLS:
            self.specs.append(CoRunSpec.create(
                workloads, scheme, limit_refs=refs // divisor, seed=seed))
            mix = ("+".join(workloads) if len(workloads) <= 2
                   else "rush-hour%d" % len(workloads))
            self.labels.append("%s/%s" % (mix, scheme))

    def setup(self, tracer):
        # Building the fused simulators puts every core's trace into the
        # trace store, which the timed passes then read.
        self.backend = resolve_corun_backend("auto")
        for label, spec in zip(self.labels, self.specs):
            with tracer.span("build cores " + label):
                FusedMultiCoreSimulator(spec)
        return self.specs

    def run_pass(self, specs, tracer):
        store = default_store()
        before = (store.memory_hits, store.disk_hits, store.misses)
        cells = []
        start = time.perf_counter()
        for label, spec in zip(self.labels, specs):
            t0 = time.perf_counter()
            with tracer.span("execute_corun " + label):
                result = execute_corun(spec, solo_baseline=False)
            cells.append(Cell(label, spec, result, time.perf_counter() - t0))
        host = time.perf_counter() - start
        hits = store.memory_hits + store.disk_hits - before[0] - before[1]
        lookups = hits + store.misses - before[2]
        return Pass(host, cells, store_hit_ratio=hits / lookups if lookups
                    else 0.0)


class SweepWorkload:
    """The user path: a cold ``prefetch_all`` into a fresh result cache,
    then Table 1; a second context then resolves the matrix warm."""

    def __init__(self, seed, divisor):
        self.seed = seed
        self.refs = SWEEP_REFS // divisor

    def context(self, cache):
        return ExperimentContext(limit_refs=self.refs, jobs=1, seed=self.seed,
                                 cache=cache)

    def setup(self, tracer):
        self.backend = resolve_backend("auto")
        with tracer.span("declare matrix"):
            return self.context(None).matrix()

    def run_pass(self, specs, tracer):
        cold_caches()
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=str(SCRATCH))
        try:
            return self._sweep(specs, tracer, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _sweep(self, specs, tracer, cache_dir):
        times = []
        last = [0.0]

        def progress(done, total, spec, cached):
            now = time.perf_counter()
            times.append(now - last[0])
            tracer.add("cell " + spec.label(), last[0], now)
            last[0] = now

        start = time.perf_counter()
        ctx = self.context(ResultCache(cache_dir))
        with tracer.span("prefetch_all"):
            last[0] = time.perf_counter()
            results = ctx.prefetch_all(progress=progress)
        with tracer.span("table1"):
            table = table1.run(ctx).render()
        host = time.perf_counter() - start
        store = default_store()
        lookups = store.memory_hits + store.disk_hits + store.misses
        store_ratio = ((store.memory_hits + store.disk_hits) / lookups
                       if lookups else 0.0)

        warm_cache = ResultCache(cache_dir)
        warm = self.context(warm_cache)
        with tracer.span("warm prefetch_all"):
            warm_results = warm.prefetch_all()
        with tracer.span("warm table1"):
            warm_table = table1.run(warm).render()
        gets = warm_cache.hits + warm_cache.misses
        checks = [(warm_table == table, "warm Table 1 differs from cold")]
        for spec, cold, hot in zip(specs, results, warm_results):
            checks.append((result_to_json(cold) == result_to_json(hot),
                           "%s: warm result differs from cold" % spec.label()))
        cells = [Cell(spec.label(), spec, result, seconds)
                 for spec, result, seconds in zip(specs, results, times)]
        return Pass(host, cells, store_hit_ratio=store_ratio,
                    cache_hit_ratio=warm_cache.hits / gets if gets else 0.0,
                    table=table, checks=checks)


def make_workload(name, seed, smoke=False):
    divisor = SMOKE_DIVISOR if smoke else 1
    if name == "paper-sweep":
        return SweepWorkload(seed, divisor)
    if name == "corun":
        return CorunWorkload(seed, divisor)
    refs, cells = {"prefetch-bound": PREFETCH_BOUND,
                   "demand-bound": DEMAND_BOUND}[name]
    return ReplayWorkload(refs, cells, seed, divisor)


WORKLOADS = ("paper-sweep", "prefetch-bound", "demand-bound", "corun")


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

class Tally:
    """Checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        """Count one checked operation; it fails if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def fail_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def digest(result):
    return hashlib.sha256(result_to_json(result).encode("utf-8")).hexdigest()


def core_stats(result):
    """The single-core SimStats a result holds (one per co-run core)."""
    return result.cores if isinstance(result, CoRunResult) else [result]


def cell_refs(spec):
    cells = spec.cells if isinstance(spec, CoRunSpec) else [spec]
    return [cell.limit_refs for cell in cells]


def demand_refs(stats):
    return stats.hier["loads"] + stats.hier["stores"]


def invariant_problems(label, spec, result):
    """Invariants every result must satisfy, at any seed."""
    problems = []
    # A perfect L1 answers every reference before the L1 model sees it.
    l1_refs = 0 if spec.mode == "perfect_l1" else None
    for i, (stats, refs) in enumerate(zip(core_stats(result),
                                          cell_refs(spec))):
        where = label if len(cell_refs(spec)) == 1 else "%s core %d" % (
            label, i)
        timeliness = stats.metrics.get("timeliness", {})
        parts = sum(timeliness.get(k, 0) for k in (
            "timely", "late", "useless_evicted", "never_referenced"))
        fills = stats.l2["prefetch_fills"]
        if parts != fills or timeliness.get("prefetch_fills", 0) != fills:
            problems.append("%s: timeliness partition %d != %d prefetch fills"
                            % (where, parts, fills))
        want = refs if l1_refs is None else l1_refs
        if demand_refs(stats) != refs or stats.l1["demand_accesses"] != want:
            problems.append("%s: %d refs and %d L1 demand accesses, want %d "
                            "and %d" % (where, demand_refs(stats),
                                        stats.l1["demand_accesses"], refs,
                                        want))
    if isinstance(result, CoRunResult):
        shared = result.shared["l2"]
        for key, total in shared.items():
            if isinstance(total, int) and sum(
                    core.l2[key] for core in result.cores) != total:
                problems.append("%s: per-core L2 %s does not sum to %d"
                                % (label, key, total))
    return problems


def check_pass(run_pass, tally, expected):
    """Check a pass's cells against ``expected`` ({label: digest}).

    ``expected`` starts as the golden digests (or empty) and takes each
    cell's first digest, so later passes must repeat the first exactly.
    """
    for cell in run_pass.cells:
        problems = invariant_problems(cell.label, cell.spec, cell.result)
        got = digest(cell.result)
        want = expected.setdefault(cell.label, got)
        if got != want:
            problems.append("%s: result digest %s.. != expected %s.."
                            % (cell.label, got[:12], want[:12]))
        tally.record(problems)
    for ok, what in run_pass.checks:
        tally.record([] if ok else [what])


def round_trip(run_pass, tally):
    """Store each result in a fresh result cache and read it back."""
    cache_dir = tempfile.mkdtemp(prefix="roundtrip-", dir=str(SCRATCH))
    try:
        cache = ResultCache(cache_dir)
        for cell in run_pass.cells:
            cache.put(cell.spec, cell.result)
            back = cache.get(cell.spec)
            same = back is not None and (
                result_to_json(back) == result_to_json(cell.result))
            tally.record([] if same else
                         ["%s: result changed through the result cache"
                          % cell.label])
        gets = cache.hits + cache.misses
        run_pass.cache_hit_ratio = cache.hits / gets if gets else 0.0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def finish(run_pass, tally):
    """The untimed tail of a run: cache round trip and a summary table.

    The sweep's warm pass has already round-tripped every result through
    the result cache, and its summary is the Table 1 it rendered.
    """
    if run_pass.table:
        return run_pass.table
    round_trip(run_pass, tally)
    rows = []
    for cell in run_pass.cells:
        stats = core_stats(cell.result)
        rows.append([cell.label, sum(demand_refs(s) for s in stats),
                     sum(s.l2["prefetch_fills"] for s in stats),
                     statistics.geometric_mean([s.ipc for s in stats]),
                     cell.seconds])
    return format_table(["cell", "refs", "fills", "ipc", "seconds"], rows)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values, pct):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n, beyond=10):
    """Highest whole percentile with at least ``beyond`` of ``n`` samples
    above it (94 for the sweep's 177 cells); None when none has."""
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100.0 * n) >= beyond:
            return pct
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def counters(run_pass):
    """The exact per-layer counters, summed over one pass's cells."""
    stats = [s for cell in run_pass.cells for s in core_stats(cell.result)]
    shared = [cell.result.shared for cell in run_pass.cells
              if isinstance(cell.result, CoRunResult)]

    def total(get):
        return sum(get(s) for s in stats)

    refs = total(demand_refs)
    fills = total(lambda s: s.l2["prefetch_fills"])
    useful = total(lambda s: s.l2["useful_prefetches"])
    timely = total(lambda s: s.metrics.get("timeliness", {}).get("timely", 0))
    return {
        "replay.demand_refs": refs,
        "replay.work": refs + fills,
        "cpu.instructions": total(lambda s: s.instructions),
        "cpu.load_stall_cycles": total(lambda s: s.load_stall_cycles),
        "mem.l1.demand_misses": total(lambda s: s.l1["demand_misses"]),
        "mem.l2.demand_misses": total(lambda s: s.l2["demand_misses"]),
        "mem.l2.prefetch_fills": fills,
        "mem.l2.useful_prefetches": useful,
        "mem.l2.pollution_misses": total(lambda s: s.l2["pollution_misses"]),
        "mem.dram.demand_blocks": total(lambda s: s.dram_demand_blocks),
        "mem.dram.prefetch_blocks": total(lambda s: s.dram_prefetch_blocks),
        "mem.dram.row_hit_rate": statistics.fmean(
            s.row_hit_rate for s in stats),
        "mem.mshr.demand_stalls": total(
            lambda s: s.metrics.get("mshr", {}).get("demand_stalls", 0)),
        "prefetch.candidates_issued": total(
            lambda s: s.prefetcher.get("candidates_issued", 0)),
        "prefetch.regions_allocated": total(
            lambda s: s.prefetcher.get("regions_allocated", 0)),
        "prefetch.accuracy": useful / fills if fills else 0.0,
        "prefetch.timely_ratio": timely / fills if fills else 0.0,
        "adapt.epochs": total(lambda s: s.adapt.get("epochs", 0)),
        "adapt.knob_changes": total(lambda s: s.adapt.get("knob_changes", 0)),
        "trace.store.hit_ratio": run_pass.store_hit_ratio,
        "sim.cache.hit_ratio": run_pass.cache_hit_ratio,
        "corun.cross_core_pollution": sum(
            s["cross_core_pollution"] for s in shared),
        "corun.shared_mshr_stalls": sum(s["mshr"]["stalls"] for s in shared),
    }


def layer_of(filename):
    """The self-time layer of a source file, or None outside src/repro/."""
    if not filename.startswith(REPRO_DIR):
        return None
    rel = filename[len(REPRO_DIR):].replace(os.sep, "/")
    for prefix, layer in LAYERS:
        if rel.startswith(prefix):
            return layer
    raise AssertionError("LAYERS ends with a catch-all")


def profile_metrics(profiler):
    """Stage times and per-layer self times from a cProfile run."""
    stats = pstats.Stats(profiler).stats
    owners = {}

    def owner(func, visiting):
        """{layer: share} of the time ``func`` spends outside src/repro/."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
            total = sum(weights.values())
        if not total or func in visiting:
            return {"stdlib": 1.0}
        visiting.add(func)
        shares = {}
        for caller, weight in weights.items():
            for layer, part in owner(caller, visiting).items():
                shares[layer] = shares.get(layer, 0.0) + part * weight / total
        visiting.discard(func)
        owners[func] = shares
        return shares

    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    for func, (_, _, tottime, _, _) in stats.items():
        for layer, part in owner(func, set()).items():
            self_s[layer] += tottime * part
    out = {"%s.self_s" % layer: seconds for layer, seconds in self_s.items()}
    for metric, entries in STAGES.items():
        out[metric] = sum(
            cumtime for (filename, _, name), (_, _, _, cumtime, _)
            in stats.items()
            if any(name == fn and filename.startswith(REPRO_DIR + path)
                   for path, fn in entries))
    # The prefetch path runs only inside replay, so its share is taken
    # of replay time; set-up layers would otherwise dilute it.
    replay = out["stage.replay_s"]
    out["prefetch_path.share"] = (
        sum(self_s[layer] for layer in PREFETCH_PATH) / replay if replay
        else 0.0)
    return out


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------

def import_seconds():
    """Start a fresh interpreter that imports the simulator; its wall time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                   cwd=str(ROOT), check=True)
    return time.perf_counter() - start


def run_workload(name, seed, seconds, trace=False, smoke=False,
                 trace_out=None, out=None):
    """Run one workload; print its metrics and return the result object."""
    out = out or sys.stdout
    os.environ["REPRO_TRACE_CACHE"] = "off"
    SCRATCH.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, smoke)
    golden = (None if smoke or seed != GOLDEN_SEED
              else json.loads(GOLDEN_PATH.read_text()))
    expected = dict(golden["cells"][name]) if golden else {}
    tally = Tally()

    setup_times = []
    for _ in range(1 if smoke or trace else SETUP_REPS):
        cold_caches()
        imports = import_seconds()
        start = time.perf_counter()
        state = workload.setup(NULL_TRACER)
        setup_times.append(imports + time.perf_counter() - start)

    # Each pass is checked as it ends and only the first is kept, so
    # memory does not grow with the number of passes.
    first = None
    host = []
    by_cell = {}
    start = time.perf_counter()
    while (len(host) < (1 if smoke else MIN_PASSES)
           or time.perf_counter() - start < seconds):
        gc.collect()  # every pass starts from the same heap state
        run_pass = workload.run_pass(state, NULL_TRACER)
        check_pass(run_pass, tally, expected)
        host.append(run_pass.host_s)
        for cell in run_pass.cells:
            by_cell.setdefault(cell.label, []).append(cell.seconds)
        first = first or run_pass
        del run_pass
    if golden and first.table:
        tally.record([] if first.table == golden["table1"] else
                     ["Table 1 differs from golden.json"])
    table = finish(first, tally)

    work = counters(first)
    cell_times = [statistics.median(times) for times in by_cell.values()]
    ipcs = [s.ipc for c in first.cells for s in core_stats(c.result)]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "host_s": statistics.median(host),
        "work_per_s": statistics.median(work["replay.work"] / h for h in host),
        "refs_per_s": statistics.median(
            work["replay.demand_refs"] / h for h in host),
        "cell_p50_s": percentile(cell_times, 50),
        "cell_p94_s": percentile(cell_times, 94),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ipc_geomean": statistics.geometric_mean(ipcs),
    }
    units = {k: unit for k, (unit, _) in E2E_METRICS.items()}
    notes = {
        "setup_s": "median of %d set-ups" % len(setup_times),
        "host_s": "median of %d passes, quartiles %.4g..%.4g"
                  % ((len(host),) + quartiles(host)[::2]),
        "cell_p50_s": "over %d cells, each the median of its passes"
                      % len(cell_times),
        "cell_p94_s": "%d cells above it"
                      % (len(cell_times) - math.ceil(0.94 * len(cell_times))),
    }
    tail = tail_percentile(len(cell_times))
    if tail is not None:
        notes["cell_p94_s"] += "; p%d is the highest with 10 above" % tail

    if trace:
        profiler = cProfile.Profile()
        tracer = Tracer()
        cold_caches()
        profiler.enable()
        try:
            with tracer.span("setup"):
                traced_state = workload.setup(tracer)
            with tracer.span("pass"):
                traced = workload.run_pass(traced_state, tracer)
            with tracer.span("finish"):
                finish(traced, tally)
        finally:
            profiler.disable()
        check_pass(traced, tally, expected)
        metrics = {**work, **profile_metrics(profiler),
                   "trace_overhead": traced.host_s / metrics["host_s"]}
        units = PER_LAYER_METRICS
        trace_out = pathlib.Path(trace_out or SCRATCH / (
            "trace-%s-%d.json" % (name, seed)))
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps({
            "workload": name, "seed": seed, "spans": tracer.spans,
            "metrics": metrics}, indent=1) + "\n")
        notes = {"trace_overhead": "spans in %s" % trace_out}

    print(table, file=out)
    print(file=out)
    print("workload %s seed %d backend %s passes %d"
          % (name, seed, workload.backend, len(host)), file=out)
    for problem in tally.problems[:20]:
        print("FAILED %s" % problem, file=out)
    for metric, value in metrics.items():
        line = "%s %r %s" % (metric, value, units[metric])
        if metric in notes:
            line += "  (%s)" % notes[metric]
        print(line, file=out)
    print("fail_rate %r fraction  (%d failed of %d checked)"
          % (tally.fail_rate, tally.failed, tally.attempted), file=out)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return result


# ----------------------------------------------------------------------
# Several workloads, goldens and the baseline
# ----------------------------------------------------------------------

def run_children(seed, seconds, trace, smoke=False):
    """Run every workload in its own process; return {name: result}."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "1" if trace else "0"]
        if smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print("[%s] %s" % (name, line))
        if proc.returncode != 0 or not lines:
            raise RuntimeError("%s exited with %d" % (name, proc.returncode))
        results[name] = json.loads(lines[-1])
    return results


def combined(results):
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def regen_golden():
    """Digest every cell at GOLDEN_SEED through the oracle paths.

    Single-core cells run ``execute(spec, reference=True)``; co-runs run
    the stepped arbiter.  Table 1 is rendered from the reference results
    through a result cache that holds only them.
    """
    os.environ["REPRO_TRACE_CACHE"] = "off"
    reset_default_store()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    cells = {}
    sweep = make_workload("paper-sweep", GOLDEN_SEED)
    cache_dir = tempfile.mkdtemp(prefix="golden-", dir=str(SCRATCH))
    try:
        cache = ResultCache(cache_dir)
        ctx = sweep.context(cache)
        cells["paper-sweep"] = {}
        for spec in ctx.matrix():
            result = execute(spec, reference=True)
            cache.put(spec, result)
            cells["paper-sweep"][spec.label()] = digest(result)
        ctx.prefetch_all()
        if cache.misses:
            raise RuntimeError("Table 1 re-simulated a cell")
        table = table1.run(ctx).render()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    for name in ("prefetch-bound", "demand-bound"):
        cells[name] = {
            spec.label(): digest(execute(spec, reference=True))
            for spec in make_workload(name, GOLDEN_SEED).specs}
    corun = make_workload("corun", GOLDEN_SEED)
    cells["corun"] = {}
    for label, spec in zip(corun.labels, corun.specs):
        stepped = CoRunSpec(cells=spec.cells, backend="stepped")
        cells["corun"][label] = digest(
            execute_corun(stepped, solo_baseline=False))
    GOLDEN_PATH.write_text(json.dumps({
        "seed": GOLDEN_SEED,
        "oracle": "execute(spec, reference=True); co-runs on the stepped "
                  "backend",
        "cells": cells,
        "table1": table,
    }, indent=1, sort_keys=True) + "\n")
    print("wrote %s (%d cells)" % (GOLDEN_PATH,
                                   sum(len(c) for c in cells.values())))
    return 0


def write_baseline(seconds):
    """Record two sets of five untraced ``--all`` runs, plus one traced
    run per set, with each set's medians and quartiles."""
    declared = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    out_sets = []
    for _ in range(2):
        samples = {}
        for _ in range(5):
            for name, result in run_children(GOLDEN_SEED, seconds,
                                             False).items():
                for metric, entry in result["metrics"].items():
                    samples.setdefault(name, {}).setdefault(
                        metric, []).append(entry["value"])
        traced = run_children(GOLDEN_SEED, seconds, True)
        summary = {}
        for name, metrics in samples.items():
            summary[name] = {}
            for metric, values in metrics.items():
                q1, median, q3 = quartiles(values)
                summary[name][metric] = {"median": median, "q1": q1,
                                         "q3": q3, "values": values}
        out_sets.append({
            "end_to_end": summary,
            "per_layer": {name: {m: e["value"] for m, e in r["metrics"].items()}
                          for name, r in traced.items()},
        })
    agreement = {}
    first, second = out_sets[0], out_sets[-1]
    for name, metrics in first["end_to_end"].items():
        agreement[name] = {}
        for metric, entry in metrics.items():
            other = second["end_to_end"][name][metric]["median"]
            change = abs(other - entry["median"]) / entry["median"]
            agreement[name][metric] = {"relative_change": change,
                                       "bound": bounds[metric],
                                       "within": change <= bounds[metric]}
    counters_equal = all(
        first["per_layer"][name][metric] == second["per_layer"][name][metric]
        for name in first["per_layer"] for metric in COUNTER_METRICS)
    BASELINE_PATH.write_text(json.dumps({
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.util.find_spec("numpy") is not None,
            "backend": resolve_backend("auto"),
        },
        "seed": GOLDEN_SEED,
        "run_seconds": seconds,
        "sets": out_sets,
        "agreement": agreement,
        "counters_identical": counters_equal,
    }, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % BASELINE_PATH)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run a traced pass and report the "
                             "per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="where the traced run writes its spans")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, invariant checks only; without "
                             "--workload runs every workload with and "
                             "without --trace")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    seconds = (args.seconds if args.seconds is not None else json.loads(
        BENCHMARK_JSON.read_text())["run_seconds"])

    if args.regen_golden:
        return regen_golden()
    if args.baseline:
        return write_baseline(seconds)
    if args.workload:
        result = run_workload(args.workload, args.seed,
                              0 if args.smoke else seconds, bool(args.trace),
                              args.smoke, args.trace_out)
        return 0 if result["correct"] or not args.smoke else 1
    if args.smoke:
        results = {}
        for trace in (False, True):
            for name, result in run_children(args.seed, 0, trace,
                                             smoke=True).items():
                results["%s%s" % (name, " traced" if trace else "")] = result
        summary = combined(results)
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    if args.all:
        summary = combined(run_children(args.seed, seconds, bool(args.trace)))
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    parser.error("give --workload, --all, --smoke, --regen-golden or "
                 "--baseline")


if __name__ == "__main__":
    sys.exit(main())
