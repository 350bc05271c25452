"""CI gate: the resilient sweep supervisor recovers, byte-for-byte.

Runs one small (benchmark x scheme) sweep three ways and asserts the
exported CSV is **byte-identical** every time:

1. **Baseline** — plain ``run_batch``, no faults, fresh cache.
2. **Fault recovery** — the same sweep through the supervisor under a
   deterministic fault plan (one cell crashes, one hangs into a timeout,
   one raises; each on its first attempt only), so every retry path must
   execute and still converge to the baseline results.
3. **Parent-kill resume** — the script re-invokes itself as a
   subprocess which SIGKILLs *its own supervisor process* mid-sweep
   (after two cells complete), then resumes from the checkpoint journal
   here; the resumed sweep's CSV must match the baseline.

A fourth check corrupts a cache entry via the ``corrupt`` fault and
asserts the cache quarantines it (logged miss, recompute) instead of
raising.

A fifth check runs a multi-core co-run sweep through the supervisor
twice — once under a crash+hang fault plan, once resumed purely from the
first run's checkpoint journal — and asserts both CSVs are
byte-identical to the uninterrupted ``run_batch`` baseline, so the
resilience machinery provably covers CoRunSpec cells too.

A sixth check kills the supervisor inside one replay identity: mcf/grp
under the conservative, default and aggressive policies compiles alike,
so the supervisor makes one run for the three specs.  The subprocess
SIGKILLs itself once the group's first member has its ``done`` record;
the resumed sweep must re-run only the other two, and its CSV must be
byte-identical to ``run_batch``'s.

Exit status is nonzero the moment any recovered result diverges from the
uninterrupted run.

Usage::

    PYTHONPATH=src python tools/check_resilience.py
"""

import os
import signal
import subprocess
import sys
import tempfile

from repro.report.export import runs_to_csv
from repro.sim.batch import run_batch
from repro.sim.cache import ResultCache, version_salt
from repro.sim.faults import FaultPlan
from repro.sim.runner import replay_key
from repro.sim.spec import CoRunSpec, RunSpec
from repro.sim.supervisor import JournalTailer, SweepSupervisor

REFS = 2000
SWEEP = [
    ("gzip", "none"),
    ("gzip", "stride"),
    ("gzip", "grp"),
    ("swim", "none"),
    ("swim", "srp"),
    ("swim", "grp"),
]

#: Every worker-side failure mode, each on its cell's first attempt only.
FAULT_PLAN = {
    "faults": [
        {"kind": "crash", "match": "gzip/stride", "attempts": [0]},
        {"kind": "hang", "match": "swim/srp", "attempts": [0],
         "seconds": 60.0},
        {"kind": "error", "match": "swim/grp", "attempts": [0]},
    ]
}

#: Cells completed before the self-kill subprocess dies.
KILL_AFTER = 2

#: Multi-core co-run cells: the supervisor must recover these too.
CORUN_SWEEP = [
    (["gzip", "swim"], "srp"),
    (["mcf", "vpr"], "grp"),
]

#: Crash one co-run cell and hang the other, first attempt each.
CORUN_FAULT_PLAN = {
    "faults": [
        {"kind": "crash", "match": "gzip+swim/srp", "attempts": [0]},
        {"kind": "hang", "match": "mcf+vpr/grp", "attempts": [0],
         "seconds": 60.0},
    ]
}


def fail(message):
    print("resilience check FAILED: %s" % message, file=sys.stderr)
    sys.exit(1)


def specs():
    return [RunSpec.create(bench, scheme, limit_refs=REFS)
            for bench, scheme in SWEEP]


def shared_specs():
    """mcf/grp under GRP's three compiler policies: one replay identity."""
    return [RunSpec.create("mcf", "grp", policy=policy, limit_refs=REFS)
            for policy in ("conservative", "default", "aggressive")]


def die_after(checkpoint, cache_dir, count, cells=None):
    """Subprocess mode: SIGKILL ourselves after ``count`` cells finish.

    ``jobs=1`` means no worker is in flight at the progress callback, so
    the journal holds exactly ``count`` done cells when the process dies
    — the hard-interruption case the checkpoint exists for.
    """
    def kill_self(done, total, spec, cached):
        if done >= count:
            os.kill(os.getpid(), signal.SIGKILL)

    SweepSupervisor(cells or specs(), jobs=1, cache=ResultCache(cache_dir),
                    checkpoint=checkpoint, progress=kill_self).run()
    fail("self-kill subprocess survived its own SIGKILL")


def check_fault_recovery(baseline_csv):
    plan = FaultPlan.from_dict(FAULT_PLAN)
    with tempfile.TemporaryDirectory() as tmp:
        supervisor = SweepSupervisor(
            specs(), jobs=2, cache=ResultCache(tmp),
            checkpoint=os.path.join(tmp, "sweep.ckpt"),
            retries=2, retry_base=0.01, timeout=20.0, fault_plan=plan)
        results = supervisor.run()
    if supervisor.failures:
        fail("faulted sweep failed permanently: %r" % supervisor.failures)
    if runs_to_csv(results) != baseline_csv:
        fail("faulted sweep's CSV diverged from the uninterrupted run")
    print("fault recovery: crash + hang + error all retried to the "
          "baseline results")


def check_parent_kill_resume(baseline_csv):
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = os.path.join(tmp, "sweep.ckpt")
        cache_dir = os.path.join(tmp, "cache")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--die-after",
             str(KILL_AFTER), "--checkpoint", checkpoint,
             "--cache-dir", cache_dir],
            env=dict(os.environ,
                     PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, timeout=600)
        if proc.returncode == 0:
            fail("self-kill subprocess exited cleanly:\n%s" % proc.stderr)
        # Resume against an *empty* cache: only the journal survives the
        # kill here, which is exactly the state it must carry alone.
        supervisor = SweepSupervisor(
            specs(), jobs=2, cache=None, checkpoint=checkpoint,
            resume=True)
        results = supervisor.run()
    if runs_to_csv(results) != baseline_csv:
        fail("resumed sweep's CSV diverged from the uninterrupted run")
    print("parent-kill resume: journal restored %d cells, resumed sweep "
          "matches byte-for-byte" % KILL_AFTER)


def check_shared_key_resume():
    cells = shared_specs()
    if len({replay_key(spec) for spec in cells}) != 1:
        fail("mcf/grp's three policies no longer share one replay key")
    digests = [spec.digest(version_salt()) for spec in cells]
    baseline_csv = runs_to_csv(run_batch(cells, jobs=1))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = os.path.join(tmp, "shared.ckpt")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--die-in-group",
             "1", "--checkpoint", checkpoint,
             "--cache-dir", os.path.join(tmp, "cache")],
            env=dict(os.environ,
                     PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, timeout=600)
        if proc.returncode == 0:
            fail("self-kill subprocess exited cleanly:\n%s" % proc.stderr)
        tailer = JournalTailer(checkpoint)
        done = [r["digest"] for r in tailer.poll()
                if r.get("state") == "done"]
        if done != digests[:1]:
            fail("the kill left done records %r, want the group's first "
                 "member's only" % done)
        # Resume with no cache: the journal carries the first member,
        # and the group re-runs for the other two.
        results = SweepSupervisor(cells, jobs=2, cache=None,
                                  checkpoint=checkpoint, resume=True).run()
        running = [r["members"] for r in tailer.poll()
                   if r.get("state") == "running"]
    if running != [digests[1:]]:
        fail("the resumed sweep ran %r, want one run for the two "
             "unfinished members" % running)
    if runs_to_csv(results) != baseline_csv:
        fail("resumed shared-key sweep's CSV diverged from run_batch's")
    print("shared-key resume: killed after 1 of %d members of one replay "
          "identity, resumed with one run, byte-identical" % len(cells))


def check_corun_recovery():
    # Pinned to the fused backend: the resume drill then also exercises
    # the skip-ahead loop's determinism through the supervisor/journal
    # (the stepped loop gets its coverage from the differential suite).
    corun_specs = [CoRunSpec.create(mix, scheme, limit_refs=REFS,
                                    backend="fused")
                   for mix, scheme in CORUN_SWEEP]
    baseline_csv = runs_to_csv(run_batch(corun_specs, jobs=1))
    plan = FaultPlan.from_dict(CORUN_FAULT_PLAN)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = os.path.join(tmp, "corun.ckpt")
        supervisor = SweepSupervisor(
            corun_specs, jobs=2, cache=ResultCache(tmp),
            checkpoint=checkpoint, retries=2, retry_base=0.01,
            timeout=60.0, fault_plan=plan)
        results = supervisor.run()
        if supervisor.failures:
            fail("faulted co-run sweep failed permanently: %r"
                 % supervisor.failures)
        if runs_to_csv(results) != baseline_csv:
            fail("faulted co-run sweep's CSV diverged from the "
                 "uninterrupted run")
        # Resume with no cache: the journal alone must reproduce every
        # co-run result byte-for-byte.
        resumed = SweepSupervisor(
            corun_specs, jobs=1, cache=None, checkpoint=checkpoint,
            resume=True).run()
    if runs_to_csv(resumed) != baseline_csv:
        fail("resumed co-run sweep's CSV diverged from the "
             "uninterrupted run")
    print("co-run recovery: crash + hang retried, then resumed from the "
          "journal, both byte-identical to the baseline")


def check_quarantine():
    spec = specs()[0]
    plan = FaultPlan.from_dict(
        [{"kind": "corrupt", "match": spec.label()}])
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        SweepSupervisor([spec], cache=cache, fault_plan=plan).run()
        if cache.get(spec) is not None:
            fail("corrupted cache entry was served as a hit")
        if cache.quarantined != 1:
            fail("corrupted entry was not quarantined (count=%d)"
                 % cache.quarantined)
        qdir = os.path.join(tmp, "quarantine")
        if not os.listdir(qdir):
            fail("quarantine directory is empty")
    print("quarantine: corrupted cache entry moved aside and recomputable")


def main(argv=None):
    # Hidden subprocess mode used by check_parent_kill_resume.
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("--die-after", "--die-in-group"):
        die_after(checkpoint=argv[3], cache_dir=argv[5],
                  count=int(argv[1]),
                  cells=shared_specs() if argv[0] == "--die-in-group"
                  else None)
        return

    baseline_csv = runs_to_csv(run_batch(specs(), jobs=2))
    check_fault_recovery(baseline_csv)
    check_parent_kill_resume(baseline_csv)
    check_quarantine()
    check_corun_recovery()
    check_shared_key_resume()
    print("resilience check passed: %d-cell sweep (+%d co-runs, +%d specs "
          "of one replay identity) recovered identically from worker "
          "faults and parent SIGKILLs"
          % (len(SWEEP), len(CORUN_SWEEP), len(shared_specs())))


if __name__ == "__main__":
    main()
