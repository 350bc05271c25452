"""Parallel batch execution of RunSpecs.

:func:`run_batch` takes a list of :class:`~repro.sim.spec.RunSpec` and
returns their :class:`~repro.sim.stats.SimStats` **in the same order**,
regardless of how many worker processes ran them or which finished first
— parallelism never changes results, only wall-clock.

A :class:`CellPlan`, shared with
:class:`~repro.sim.supervisor.SweepSupervisor`, decides which specs run
and how a run's result reaches its specs.  Duplicate specs are
simulated once, and so are specs that share a replay identity
(:func:`repro.sim.runner.replay_key`): compiler policies whose compiles
coincide make the same run, so one trace generation and one replay
serve them all.  Each spec still gets its own result object and its own
cache entry.  Traced specs and co-runs run one by one.  With a
:class:`~repro.sim.cache.ResultCache`, hits skip simulation entirely and
fresh results are written back.  Specs and results cross the process
boundary in their ``to_dict`` forms, the same serialization the
persistent cache uses, so a parallel run exercises exactly the round-trip
the cache depends on.

:func:`run_batch` assumes infallible workers — a crashed or hung worker
takes the whole batch down.  For long sweeps that must survive crashes,
hangs, and interruptions, :class:`repro.sim.supervisor.SweepSupervisor`
runs the same plan (the same payload serialization, executed by
:func:`execute_payload`) with checkpointing, per-worker timeouts, and
bounded retries.
"""

import multiprocessing
import os

from repro.sim.spec import CoRunSpec, spec_from_dict
from repro.sim.stats import result_from_dict


def resolve_jobs(jobs):
    """Map a ``--jobs`` value to a worker count (0 or None = all cores)."""
    if not jobs:
        return os.cpu_count() or 1
    return max(1, jobs)


def simulate(spec, trace_path=None):
    """Run one spec of either kind in this process; return its result.

    Imports the engine lazily so forking/spawning a worker stays cheap.
    """
    if isinstance(spec, CoRunSpec):
        from repro.sim.multicore import execute_corun  # late, as below
        return execute_corun(spec)
    from repro.sim.runner import execute  # late: keep fork/spawn cheap
    return execute(spec, trace_path=trace_path)


def execute_payload(spec_data, trace_path=None):
    """Run one serialized cell: spec dict in, result dict out.

    The worker-side half of the process-boundary round trip, shared by
    the pool worker below and the supervisor's isolated cell workers.
    Dispatches on the ``corun`` marker, so multi-core co-runs ride the
    same pool/supervisor machinery as single-core cells.
    """
    return simulate(spec_from_dict(spec_data), trace_path).to_dict()


def _worker(payload):
    """Pool worker: (spec dict, trace path) in, dict out (separate process)."""
    spec_data, trace_path = payload
    return execute_payload(spec_data, trace_path)


def trace_path_for(trace_dir, spec):
    """The JSONL trace file a spec's run writes under ``trace_dir``."""
    return os.path.join(trace_dir, spec.label().replace("/", "__") + ".jsonl")


class CellPlan:
    """Which cells of a batch need a run, and how one run settles them.

    Duplicate specs resolve once; ``progress(done, total, spec, cached)``
    fires once per unique spec.  A traced run writes
    ``trace_path_fn(spec)``, else :func:`trace_path_for` under
    ``trace_dir``.
    """

    def __init__(self, specs, cache=None, progress=None, trace_dir=None,
                 trace_path_fn=None):
        self.specs = list(specs)
        self.uniques = list(dict.fromkeys(self.specs))
        self.cache = cache
        self.progress = progress
        self.trace_dir = trace_dir
        self.trace_path_fn = trace_path_fn
        self.resolved = {}  # spec -> result
        self.misses = []
        self._keys = {}
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)

    def trace_path(self, spec):
        """The JSONL trace file ``spec``'s run writes, or None."""
        if self.trace_path_fn is not None:
            return self.trace_path_fn(spec)
        if self.trace_dir is None:
            return None
        return trace_path_for(self.trace_dir, spec)

    def cache_hit(self, spec):
        """The cached result of an untraced spec, or None."""
        if self.cache is None or self.trace_path(spec) is not None:
            return None
        return self.cache.get(spec)

    def resolve_hits(self, lookup=None):
        """Settle the specs ``lookup`` answers, in order; return the misses."""
        lookup = lookup or self.cache_hit
        for spec in self.uniques:
            result = lookup(spec)
            if result is None:
                self.misses.append(spec)
            else:
                self._note(spec, result, True)
        return self.misses

    def identity(self, spec):
        """A spec's run key: itself if traced or a co-run, else replay_key."""
        key = self._keys.get(spec)
        if key is None:
            if isinstance(spec, CoRunSpec) \
                    or self.trace_path(spec) is not None:
                key = spec
            else:
                from repro.sim.runner import replay_key  # late, as in simulate
                key = replay_key(spec)
            self._keys[spec] = key
        return key

    def groups(self):
        """The misses grouped by identity, both in first-occurrence order."""
        groups = {}
        for spec in self.misses:
            groups.setdefault(self.identity(spec), []).append(spec)
        return list(groups.values())

    def run(self, replay):
        """Settle every miss in input order, one ``replay(spec)`` per key.

        Later specs of a key get copies.  A key :meth:`groups` did not
        compute is computed just before its spec settles, so a serial
        batch builds workloads in input order.
        """
        by_key = {}
        for spec in self.misses:
            key = self.identity(spec)
            shared = by_key.get(key)
            if shared is None:
                result = by_key[key] = replay(spec)
            else:
                result = result_from_dict(shared.to_dict())
            self.resolve(spec, result)

    def settle(self, members, data, record=None):
        """Settle one group's run from its result dict, a copy per member."""
        for spec in members:
            self.resolve(spec, result_from_dict(data), record)

    def resolve(self, spec, result, record=None):
        """Settle ``spec``: cache a result, call ``record``, then progress."""
        if result.ok and self.cache is not None:
            self.cache.put(spec, result)
        if record is not None:
            record(spec, result)
        self._note(spec, result, False)

    def _note(self, spec, result, cached):
        self.resolved[spec] = result
        if self.progress is not None:
            self.progress(len(self.resolved), len(self.uniques), spec,
                          cached)

    def results(self):
        """Every spec's result, aligned with the input order."""
        return [self.resolved[spec] for spec in self.specs]


def run_batch(specs, jobs=1, cache=None, progress=None, trace_dir=None):
    """Execute every spec; return results aligned with the input order.

    ``jobs``: worker processes (1 = in-process serial; 0/None = all
    cores).  ``cache``: optional ResultCache consulted before and updated
    after simulation.  ``progress``: optional callable invoked after each
    spec resolves as ``progress(done, total, spec, cached)``, in input
    order.  ``trace_dir``: when given, every run writes its JSONL event
    trace to ``<trace_dir>/<spec label>.jsonl``; traced runs skip cache
    *reads* (a cache hit would leave no trace behind) but still write
    results back, since tracing never changes the stats.
    """
    plan = CellPlan(specs, cache=cache, progress=progress,
                    trace_dir=trace_dir)
    misses = plan.resolve_hits()
    workers = resolve_jobs(jobs)
    if workers <= 1 or len(misses) <= 1:
        plan.run(lambda spec: simulate(spec, plan.trace_path(spec)))
        return plan.results()
    # The parent computes every key, so workers see only the runs, one
    # per replay identity, in first-occurrence order.
    runs = [(members[0].to_dict(), plan.trace_path(members[0]))
            for members in plan.groups()]
    with multiprocessing.get_context().Pool(min(workers, len(runs))) as pool:
        # imap preserves input order, so completion timing cannot
        # reorder results.
        outcomes = pool.imap(_worker, runs, chunksize=1)
        plan.run(lambda spec: result_from_dict(next(outcomes)))
    return plan.results()
