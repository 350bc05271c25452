"""Parallel batch execution of RunSpecs.

:func:`run_batch` takes a list of :class:`~repro.sim.spec.RunSpec` and
returns their :class:`~repro.sim.stats.SimStats` **in the same order**,
regardless of how many worker processes ran them or which finished first
— parallelism never changes results, only wall-clock.

Duplicate specs in the input are simulated once, and so are specs that
share a replay identity (:func:`repro.sim.runner.replay_key`): compiler
policies whose compiles coincide make the same run, so one trace
generation and one replay serve them all.  Each spec still gets its own
result object and its own cache entry.  Traced batches run every spec,
since each writes its own trace file.  With a
:class:`~repro.sim.cache.ResultCache`, hits skip simulation entirely and
fresh results are written back.  Specs and results cross the process
boundary in their ``to_dict`` forms, the same serialization the
persistent cache uses, so a parallel run exercises exactly the round-trip
the cache depends on.

:func:`run_batch` assumes infallible workers — a crashed or hung worker
takes the whole batch down.  For long sweeps that must survive crashes,
hangs, and interruptions, :class:`repro.sim.supervisor.SweepSupervisor`
wraps this module's cell model (the same payload serialization, executed
by :func:`execute_payload`) with checkpointing, per-worker timeouts, and
bounded retries.
"""

import multiprocessing
import os

from repro.sim.spec import CoRunSpec, RunSpec
from repro.sim.stats import result_from_dict


def resolve_jobs(jobs):
    """Map a ``--jobs`` value to a worker count (0 or None = all cores)."""
    if not jobs:
        return os.cpu_count() or 1
    return max(1, jobs)


def execute_payload(spec_data, trace_path=None):
    """Run one serialized cell: spec dict in, result dict out.

    The worker-side half of the process-boundary round trip, shared by
    the pool worker below and the supervisor's isolated cell workers.
    Dispatches on the ``corun`` marker, so multi-core co-runs ride the
    same pool/supervisor machinery as single-core cells.  Imports the
    engine lazily so forking/spawning a worker stays cheap.
    """
    if spec_data.get("corun"):
        from repro.sim.multicore import execute_corun  # late, as below
        return execute_corun(CoRunSpec.from_dict(spec_data)).to_dict()
    from repro.sim.runner import execute  # late: keep fork/spawn cheap
    return execute(RunSpec.from_dict(spec_data),
                   trace_path=trace_path).to_dict()


def _worker(payload):
    """Pool worker: (spec dict, trace path) in, dict out (separate process)."""
    spec_data, trace_path = payload
    return execute_payload(spec_data, trace_path)


def trace_path_for(trace_dir, spec):
    """The JSONL trace file a spec's run writes under ``trace_dir``."""
    return os.path.join(trace_dir, spec.label().replace("/", "__") + ".jsonl")


def run_batch(specs, jobs=1, cache=None, progress=None, trace_dir=None):
    """Execute every spec; return results aligned with the input order.

    ``jobs``: worker processes (1 = in-process serial; 0/None = all
    cores).  ``cache``: optional ResultCache consulted before and updated
    after simulation.  ``progress``: optional callable invoked after each
    spec resolves as ``progress(done, total, spec, cached)``.
    ``trace_dir``: when given, every run writes its JSONL event trace to
    ``<trace_dir>/<spec label>.jsonl``; traced runs skip cache *reads*
    (a cache hit would leave no trace behind) but still write results
    back, since tracing never changes the stats.
    """
    from repro.sim.runner import execute, replay_key

    specs = list(specs)
    uniques = list(dict.fromkeys(specs))
    total = len(uniques)
    resolved = {}  # spec -> SimStats
    done = 0

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    def note(spec, cached):
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, spec, cached)

    def trace_path(spec):
        if trace_dir is None:
            return None
        return trace_path_for(trace_dir, spec)

    # Unique work list (stable order), minus persistent-cache hits.
    pending = []
    for spec in uniques:
        stats = (cache.get(spec)
                 if cache is not None and trace_dir is None else None)
        if stats is not None:
            resolved[spec] = stats
            note(spec, True)
        else:
            pending.append(spec)

    def identity(spec):
        # Traced runs each write their own trace file, so they key as
        # themselves; so do co-runs.
        if trace_dir is None and not isinstance(spec, CoRunSpec):
            return replay_key(spec)
        return spec

    def simulate(spec):
        if isinstance(spec, CoRunSpec):
            from repro.sim.multicore import execute_corun
            return execute_corun(spec)
        return execute(spec, trace_path=trace_path(spec))

    workers = resolve_jobs(jobs)
    pool = None
    if workers <= 1 or len(pending) <= 1:
        # Serial: each key is computed just before its spec resolves, so
        # workloads build in input order.
        keys = map(identity, pending)
    else:
        # The parent computes every key, so workers see only the runs,
        # one per replay identity, in first-occurrence order.
        keys = [identity(spec) for spec in pending]
        first = {}
        for key, spec in zip(keys, pending):
            first.setdefault(key, spec)
        runs = list(first.values())
        pool = multiprocessing.get_context().Pool(
            processes=min(workers, len(runs)))
        payloads = [(spec.to_dict(), trace_path(spec)) for spec in runs]
        # imap preserves input order, so completion timing cannot
        # reorder results.
        outcomes = pool.imap(_worker, payloads, chunksize=1)
    try:
        by_key = {}
        for spec, key in zip(pending, keys):
            shared = by_key.get(key)
            if shared is not None:
                # Its own object, as if it had run.
                stats = result_from_dict(shared.to_dict())
            elif pool is None:
                stats = by_key[key] = simulate(spec)
            else:
                stats = by_key[key] = result_from_dict(next(outcomes))
            if cache is not None:
                cache.put(spec, stats)
            resolved[spec] = stats
            note(spec, False)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    return [resolved[spec] for spec in specs]
