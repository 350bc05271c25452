"""Resilient sweep execution: checkpointing, timeouts, retries.

:func:`~repro.sim.batch.run_batch` treats every worker as infallible —
one crashed or hung worker loses the whole matrix.  The
:class:`SweepSupervisor` runs the same cell plan
(:class:`~repro.sim.batch.CellPlan`: one run per replay identity, or
*group*) with failure isolation:

* **one process per group attempt** — a worker that segfaults, is
  OOM-killed, or hangs takes down only its own group;
* **per-worker timeouts** — a hung worker is killed at the deadline and
  the attempt counts as a failure;
* **bounded retries with exponential backoff** — transient failures
  (flaky I/O, injected faults) are retried up to ``retries`` times,
  waiting ``retry_base * 2**attempt`` (capped at :data:`RETRY_CAP`)
  between attempts;
* **a checkpoint journal** — ``running`` and ``retry`` are appended to
  a JSONL file once per group (under its first spec's digest, listing
  the ``members``), ``done`` and ``failed`` once per spec, as they
  happen.  A sweep interrupted by ``kill -9``, OOM, or Ctrl-C resumes
  with ``resume=True`` and re-runs every spec without its own ``done``
  record (which carries the full serialized result, so resume works
  even with no result cache);
* **a failure budget** — a group that exhausts its retries fails every
  member into a structured :class:`~repro.sim.stats.RunFailure` in its
  RunResult slot; when more than ``max_failures`` cells fail
  permanently the sweep aborts with :class:`SweepAborted`.

Results return in input order, exactly like ``run_batch``, and the
engine's determinism contract means a resumed sweep's results are
byte-identical to an uninterrupted one (CI enforces this with
``tools/check_resilience.py``).  Recovery paths are exercised
deterministically via :mod:`repro.sim.faults` (``REPRO_FAULT_PLAN``):
worker faults match the label of the group's first spec (the run the
worker makes), ``corrupt`` each spec's own label (its cache entry).
"""

import heapq
import json
import os
import time
from collections import deque
from functools import partial
from multiprocessing import connection as mpconnection
import multiprocessing

from repro.sim.batch import CellPlan, execute_payload, resolve_jobs
from repro.sim.cache import version_salt
from repro.sim.faults import FaultPlan, corrupt_file
from repro.sim.stats import RunFailure, result_from_dict

#: How long the supervisor waits on worker pipes per scheduling pass.
POLL_INTERVAL = 0.05

#: The longest backoff delay between two attempts of a group, seconds.
RETRY_CAP = 30.0


class SweepAborted(RuntimeError):
    """Raised when permanent failures exceed the sweep's budget.

    Carries the permanent failures so far in ``failures``; the checkpoint
    journal still holds every completed cell, so a fixed-up sweep can
    ``resume`` without repeating them.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)


def _cell_worker(conn, payload):
    """Isolated worker: run one cell attempt, ship the result dict back.

    Runs in its own process; ``payload`` carries the serialized spec,
    the trace path, the attempt index, and (when fault injection is on)
    the serialized fault plan.  Sends ``("ok", stats_dict)`` or
    ``("error", message)`` over the pipe; an unclean death (crash fault,
    real segfault, OOM kill) sends nothing — the supervisor sees EOF.
    """
    try:
        plan_data = payload.get("faults")
        if plan_data:
            FaultPlan.from_dict(plan_data).inject(
                payload["label"], payload["attempt"])
        data = execute_payload(payload["spec"], payload.get("trace_path"))
        conn.send(("ok", data))
    except BaseException as exc:  # ship *any* failure back, then die
        try:
            conn.send(("error", "%s: %s" % (type(exc).__name__, exc)))
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------

class Checkpoint:
    """Append-only JSONL journal of per-cell sweep state.

    One record per state transition, flushed immediately so the journal
    is current the instant the parent dies.  ``load`` keeps the *latest*
    record per cell digest and tolerates a torn final line (the one
    artifact a ``kill -9`` mid-write can leave).
    """

    def __init__(self, path, fresh=False):
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(self.path, "w" if fresh else "a")

    def record(self, kind, **fields):
        """Append one journal record and flush it to the OS."""
        fields["kind"] = kind
        fields["t"] = time.time()
        self._handle.write(json.dumps(fields, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self):
        """Close the underlying file handle."""
        self._handle.close()

    # ------------------------------------------------------------------
    @staticmethod
    def load(path):
        """Parse a journal into {cell digest: latest record}.

        One :meth:`JournalTailer.poll` of the whole file, so a torn tail
        is skipped and a cell that was ``running`` when the parent died
        — and therefore never reached ``done`` — reads as unfinished.
        """
        tailer = JournalTailer(path)
        tailer.poll()
        return tailer.cells


class JournalTailer:
    """Incrementally follow a checkpoint journal as it is appended.

    The streaming half of the journal contract: :class:`Checkpoint`
    appends one flushed JSONL record per cell-state transition, and a
    tailer turns that file into a live progress feed — each
    :meth:`poll` returns only the records appended since the previous
    poll, while :attr:`cells` accumulates the latest record per cell
    digest (the same reduction :meth:`Checkpoint.load` performs over a
    finished journal).  ``repro.serve`` builds both its ``GET
    /jobs/<id>`` snapshots and its chunked progress stream on this.

    Byte-offset based, so a poll costs one ``open``+``seek``+``read`` of
    just the new suffix.  A torn final line — the parent dying
    mid-``write`` — stays buffered until its newline arrives and is
    simply never surfaced if it never does; a *vanished* journal (file
    deleted or not yet created) is an empty poll, not an error.
    """

    def __init__(self, path):
        self.path = str(path)
        self.cells = {}   #: {cell digest: latest record}
        self.header = None  #: the sweep header record, once seen
        self._offset = 0
        self._partial = b""

    def poll(self):
        """Return the records appended since the last poll (maybe [])."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return []
        if not chunk:
            return []
        self._offset += len(chunk)
        lines = (self._partial + chunk).split(b"\n")
        self._partial = lines.pop()  # b"" on a newline-terminated read
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue  # torn or garbage line; skip it
            records.append(record)
            digest = record.get("digest")
            if digest:
                self.cells[digest] = record
            elif record.get("kind") == "sweep":
                self.header = record
        return records

    def progress(self):
        """Summarize the cells seen so far as state counts.

        Returns ``{"total", "done", "failed", "running", "retrying"}``;
        ``total`` comes from the sweep header when present (0 until
        then).  ``done`` counts only terminal successes, so
        ``done + failed == total`` is the finished condition.
        """
        counts = {"done": 0, "failed": 0, "running": 0, "retrying": 0}
        for record in self.cells.values():
            state = record.get("state")
            if state == "done":
                counts["done"] += 1
            elif state == "failed":
                counts["failed"] += 1
            elif state == "retry":
                counts["retrying"] += 1
            elif state == "running":
                counts["running"] += 1
        counts["total"] = (self.header or {}).get("total", 0)
        return counts


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------

class SweepSupervisor:
    """Checkpointed, fault-tolerant executor for a list of RunSpecs.

    Parameters mirror :func:`~repro.sim.batch.run_batch` (``jobs``,
    ``cache``, ``progress``, ``trace_dir``) plus the resilience knobs:
    ``checkpoint`` (journal path; None disables journaling), ``resume``
    (reuse an existing journal's ``done`` cells; failed and in-flight
    cells re-run with a fresh retry budget), ``retries`` (extra attempts
    per group), ``timeout`` (seconds per attempt; None = unbounded),
    ``max_failures`` (permanently failed cells tolerated before
    :class:`SweepAborted`; None = unlimited), ``retry_base`` (the first
    backoff delay, seconds; doubled per retry up to :data:`RETRY_CAP`),
    ``fault_plan`` (a :class:`~repro.sim.faults.FaultPlan`; defaults to
    the env-gated ``$REPRO_FAULT_PLAN``), and ``trace_path_fn``
    (overrides the per-spec trace file mapping when ``trace_dir`` alone
    is too rigid).
    """

    def __init__(self, specs, jobs=1, cache=None, progress=None,
                 trace_dir=None, checkpoint=None, resume=False, retries=2,
                 timeout=None, max_failures=None, retry_base=0.5,
                 fault_plan=None, trace_path_fn=None):
        self.specs = list(specs)
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.trace_dir = trace_dir
        self.checkpoint_path = checkpoint
        self.resume = resume
        self.retries = max(0, retries)
        self.timeout = timeout
        self.max_failures = max_failures
        self.retry_base = retry_base
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env())
        self.trace_path_fn = trace_path_fn
        #: Permanent RunFailure records from the last :meth:`run`.
        self.failures = []

    # ------------------------------------------------------------------
    def _backoff(self, attempt):
        """Delay before retry number ``attempt`` (1-based), in seconds."""
        if self.retry_base <= 0:
            return 0.0
        return min(RETRY_CAP, self.retry_base * (2 ** (attempt - 1)))

    # ------------------------------------------------------------------
    def run(self):
        """Execute the sweep; return results aligned with the input order.

        Each slot holds a :class:`~repro.sim.stats.SimStats` or, for a
        cell that failed permanently, a
        :class:`~repro.sim.stats.RunFailure`.
        """
        plan = CellPlan(self.specs, cache=self.cache, progress=self.progress,
                        trace_dir=self.trace_dir,
                        trace_path_fn=self.trace_path_fn)
        salt = version_salt()
        digests = {spec: spec.digest(salt) for spec in plan.uniques}

        journal = {}
        ckpt = None
        if self.checkpoint_path is not None:
            if self.resume:
                journal = Checkpoint.load(self.checkpoint_path)
            ckpt = Checkpoint(self.checkpoint_path, fresh=not self.resume)
            ckpt.record("sweep", total=len(plan.uniques),
                        resumed=bool(journal))
        self.failures = []

        def lookup(spec):
            # A spec is done on resume only with its own done record.
            entry = journal.get(digests[spec])
            if entry and entry.get("state") == "done" and "stats" in entry:
                return result_from_dict(entry["stats"])
            stats = plan.cache_hit(spec)
            if stats is not None and ckpt:
                ckpt.record("cell", state="done", digest=digests[spec],
                            label=spec.label(), attempts=0, cached=True,
                            stats=stats.to_dict())
            return stats

        plan.resolve_hits(lookup)
        # One work unit per replay identity, named by its first spec.
        groups = {members[0]: members for members in plan.groups()}
        attempts = dict.fromkeys(groups, 0)
        ready = deque(groups)
        waiting = []  # heap of (not_before, seq, first spec)
        seq = 0
        in_flight = {}
        workers = resolve_jobs(self.jobs)
        ctx = multiprocessing.get_context()

        def record_group(first, state, **fields):
            if ckpt:
                ckpt.record("cell", state=state, digest=digests[first],
                            label=first.label(),
                            members=[digests[s] for s in groups[first]],
                            **fields)

        def launch(first):
            attempt = attempts[first]
            record_group(first, "running", attempt=attempt)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            payload = {
                "spec": first.to_dict(),
                "trace_path": plan.trace_path(first),
                "attempt": attempt,
                "label": first.label(),
            }
            if self.fault_plan is not None and len(self.fault_plan):
                payload["faults"] = self.fault_plan.to_dict()
            process = ctx.Process(target=_cell_worker,
                                  args=(child_conn, payload), daemon=True)
            process.start()
            child_conn.close()
            deadline = (time.monotonic() + self.timeout
                        if self.timeout is not None else None)
            in_flight[first] = (process, parent_conn, deadline)

        def reap(first, kill=False):
            process, conn, _ = in_flight.pop(first)
            if kill:
                process.kill()
            process.join()
            conn.close()
            return process.exitcode

        def record_done(tries, spec, stats):
            if (self.cache is not None and self.fault_plan is not None
                    and self.fault_plan.corrupts(spec.label())):
                corrupt_file(str(self.cache.path_for(spec)))
            if ckpt:
                ckpt.record("cell", state="done", digest=digests[spec],
                            label=spec.label(), attempts=tries,
                            stats=stats.to_dict())

        def record_failed(spec, failure):
            self.failures.append(failure)
            if ckpt:
                ckpt.record("cell", state="failed", digest=digests[spec],
                            label=spec.label(), failure=failure.to_dict())

        def attempt_failed(first, kind, error):
            nonlocal seq
            attempts[first] += 1
            if attempts[first] <= self.retries:
                delay = self._backoff(attempts[first])
                record_group(first, "retry", attempt=attempts[first],
                             fail_kind=kind, error=error, delay=delay)
                seq += 1
                heapq.heappush(waiting,
                               (time.monotonic() + delay, seq, first))
                return
            for spec in groups[first]:
                plan.resolve(spec, RunFailure(
                    spec.workload, spec.scheme, label=spec.label(),
                    kind=kind, error=error, attempts=attempts[first]),
                    record_failed)
            if (self.max_failures is not None
                    and len(self.failures) > self.max_failures):
                self._abort(ckpt)

        # -- scheduling loop -------------------------------------------
        try:
            while ready or waiting or in_flight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    ready.append(heapq.heappop(waiting)[2])
                while ready and len(in_flight) < workers:
                    launch(ready.popleft())
                if not in_flight:
                    if waiting:
                        time.sleep(
                            min(POLL_INTERVAL,
                                max(0.0, waiting[0][0] - time.monotonic())))
                    continue

                readable = mpconnection.wait(
                    [conn for _, conn, _ in in_flight.values()],
                    timeout=POLL_INTERVAL)
                for first, (_, conn, deadline) in list(in_flight.items()):
                    if conn in readable:
                        try:
                            message = conn.recv()
                        except (EOFError, OSError):
                            message = None
                        exitcode = reap(first)
                        if message is not None and message[0] == "ok":
                            plan.settle(groups[first], message[1], partial(
                                record_done, attempts[first] + 1))
                        elif message is not None:
                            attempt_failed(first, "error", message[1])
                        else:
                            attempt_failed(
                                first, "crash",
                                "worker died without a result (exit code "
                                "%s)" % exitcode)
                    elif deadline is not None and time.monotonic() > deadline:
                        reap(first, kill=True)
                        attempt_failed(
                            first, "timeout",
                            "worker exceeded the %.1fs timeout"
                            % self.timeout)
        finally:
            for first in list(in_flight):
                reap(first, kill=True)
            if ckpt:
                ckpt.close()

        return plan.results()

    # ------------------------------------------------------------------
    def _abort(self, ckpt):
        if ckpt:
            ckpt.record("abort", failures=len(self.failures),
                        budget=self.max_failures)
        labels = ", ".join(f.label for f in self.failures)
        raise SweepAborted(
            "sweep aborted: %d cell(s) failed permanently (budget %d): %s"
            % (len(self.failures), self.max_failures, labels),
            failures=self.failures)
