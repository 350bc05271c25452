"""Replay identity: one run for every spec whose compile coincides.

A run reads the compiler only through its ``CompileResult``, so
``run_batch`` and ``SweepSupervisor`` key specs by ``replay_key`` — the
spec with its policy replaced by the compile's fingerprint — and
simulate each key once.  These tests pin the sharing (which specs
merge, which do not, serial, ``jobs=2``, traced and supervised
batches, and how a supervised group journals, fails and resumes), the
fingerprint's field coverage, and the compile memo that lets a spec's
key and its replay share one compile.
"""

import json
import os

import pytest

from repro.compiler.driver import compile_hints
from repro.compiler.hints import HintTable, LoadHint
from repro.compiler.passes.indirect import IndirectInfo
from repro.sim import batch, runner
from repro.sim.batch import run_batch
from repro.sim.cache import ResultCache, version_salt
from repro.sim.faults import FaultPlan, FaultRule
from repro.sim.runner import execute, replay_key
from repro.sim.spec import RunSpec
from repro.sim.supervisor import JournalTailer, SweepSupervisor

REFS = 1500
POLICIES = ("conservative", "default", "aggressive")


def specs(workload, scheme="grp"):
    return [RunSpec.create(workload, scheme, policy=policy, limit_refs=REFS)
            for policy in POLICIES]


def dump(stats):
    return json.dumps(stats.to_dict(), sort_keys=True)


@pytest.fixture
def executions(monkeypatch):
    """Record the specs ``run_batch`` executes in-process."""
    seen = []
    real = runner.execute

    def counting(spec, **kwargs):
        seen.append(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(runner, "execute", counting)
    return seen


def counting_worker(payload):
    """Pool worker that logs each run it is handed to a file."""
    with open(os.environ["TEST_RUN_LOG"], "a") as log:
        log.write(payload[0]["policy"] + "\n")
    return batch.execute_payload(*payload)


class TestSharing:
    def test_coinciding_policies_run_once(self, executions, tmp_path):
        cells = specs("mcf")
        assert len({replay_key(spec) for spec in cells}) == 1
        cache = ResultCache(tmp_path)
        results = run_batch(cells, jobs=1, cache=cache)
        assert executions == [cells[0]]
        for spec, stats in zip(cells, results):
            assert dump(stats) == dump(execute(spec))
        # Each spec owns its result object and its cache entry.
        assert len({id(stats) for stats in results}) == 3
        assert len(cache) == 3
        for spec, stats in zip(cells, results):
            assert dump(cache.get(spec)) == dump(stats)

    def test_differing_compile_is_not_merged(self, executions):
        cells = specs("applu")  # conservative compiles differently
        keys = [replay_key(spec) for spec in cells]
        assert keys[0] != keys[1] == keys[2]
        results = run_batch(cells, jobs=1)
        assert executions == cells[:2]
        for spec, stats in zip(cells, results):
            assert dump(stats) == dump(execute(spec))

    def test_unhinted_spec_keys_as_itself(self):
        spec = RunSpec.create("mcf", "srp", limit_refs=REFS)
        assert replay_key(spec) is spec

    def test_progress_follows_input_order(self):
        cells = specs("mcf") + specs("applu")
        seen = []
        run_batch(cells, jobs=1,
                  progress=lambda done, total, spec, cached:
                  seen.append((done, total, spec, cached)))
        assert seen == [(i + 1, 6, spec, False)
                        for i, spec in enumerate(cells)]

    def test_parallel_batch_shares_runs(self, monkeypatch, tmp_path):
        log = tmp_path / "runs.log"
        monkeypatch.setenv("TEST_RUN_LOG", str(log))
        monkeypatch.setattr(batch, "_worker", counting_worker)
        cells = specs("mcf") + specs("applu")
        results = run_batch(cells, jobs=2)
        # mcf: one run for all three; applu: conservative plus default.
        assert sorted(log.read_text().split()) == \
            ["conservative", "conservative", "default"]
        serial = run_batch(cells, jobs=1)
        assert [dump(s) for s in results] == [dump(s) for s in serial]

    def test_traced_batch_runs_every_spec(self, executions, tmp_path):
        cells = specs("mcf")
        results = run_batch(cells, jobs=1, trace_dir=str(tmp_path))
        assert executions == cells
        for spec in cells:
            assert os.path.exists(batch.trace_path_for(str(tmp_path), spec))
        assert len({dump(stats) for stats in results}) == 1


def journal(path, state):
    """The records of one state in a checkpoint journal, in order."""
    return [record for record in JournalTailer(path).poll()
            if record.get("state") == state]


def digests(cells):
    return [spec.digest(version_salt()) for spec in cells]


class TestSupervisedSharing:
    """The supervisor makes one attempt per replay identity."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_group_runs_once_and_settles_every_member(self, jobs,
                                                      tmp_path):
        cells = specs("mcf")
        cache = ResultCache(tmp_path / "cache")
        ckpt = str(tmp_path / "sweep.ckpt")
        results = SweepSupervisor(cells, jobs=jobs, cache=cache,
                                  checkpoint=ckpt).run()
        assert [dump(stats) for stats in results] == \
            [dump(stats) for stats in run_batch(cells, jobs=1)]
        assert len({id(stats) for stats in results}) == 3
        running = journal(ckpt, "running")
        assert len(running) == 1
        assert running[0]["digest"] == digests(cells)[0]
        assert running[0]["members"] == digests(cells)
        assert [r["digest"] for r in journal(ckpt, "done")] == \
            digests(cells)
        assert len(cache) == 3
        for spec, stats in zip(cells, results):
            assert dump(cache.get(spec)) == dump(stats)

    def test_exhausted_group_fails_every_member(self, tmp_path):
        cells = specs("mcf")
        ckpt = str(tmp_path / "sweep.ckpt")
        plan = FaultPlan([FaultRule("error", match=cells[0].label())])
        supervisor = SweepSupervisor(cells, retries=0, checkpoint=ckpt,
                                     fault_plan=plan)
        results = supervisor.run()
        assert [(r.ok, r.kind, r.attempts) for r in results] == \
            [(False, "error", 1)] * 3
        assert [r.label for r in results] == [s.label() for s in cells]
        assert [r.label for r in supervisor.failures] == \
            [s.label() for s in cells]
        assert [r["digest"] for r in journal(ckpt, "failed")] == \
            digests(cells)

    def test_worker_faults_match_the_first_label(self):
        # The group's worker runs its first spec, so a worker fault
        # aimed at a later member's label never fires.
        cells = specs("mcf")
        plan = FaultPlan([FaultRule("error", match=cells[1].label())])
        supervisor = SweepSupervisor(cells, retries=0, fault_plan=plan)
        assert all(stats.ok for stats in supervisor.run())

    def test_resume_reruns_only_unfinished_members(self, tmp_path):
        cells = specs("mcf")
        ckpt = str(tmp_path / "sweep.ckpt")
        SweepSupervisor(cells, checkpoint=ckpt).run()
        # Cut the journal where a kill after the first member's done
        # record leaves it.
        with open(ckpt) as handle:
            lines = handle.readlines()
        first_done = next(i for i, line in enumerate(lines)
                          if '"state": "done"' in line)
        with open(ckpt, "w") as handle:
            handle.writelines(lines[:first_done + 1])
        seen = []
        results = SweepSupervisor(
            cells, checkpoint=ckpt, resume=True,
            progress=lambda done, total, spec, cached:
            seen.append((spec, cached))).run()
        assert seen == [(cells[0], True), (cells[1], False),
                        (cells[2], False)]
        assert journal(ckpt, "running")[-1]["members"] == \
            digests(cells[1:])
        assert [dump(stats) for stats in results] == \
            [dump(stats) for stats in run_batch(cells, jobs=1)]


class TestCompileMemo:
    """``replay_key`` and the replay it keys compile a spec once."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Record the policy of each hint compile, from an empty memo."""
        seen = []
        real = runner.compile_hints

        def counting(program, **kwargs):
            seen.append(kwargs["policy"])
            return real(program, **kwargs)

        monkeypatch.setattr(runner, "compile_hints", counting)
        monkeypatch.setattr(runner, "_COMPILE_CACHE", {})
        return seen

    def test_key_and_replay_share_one_compile(self, compiles):
        spec = RunSpec.create("mcf", "grp", limit_refs=REFS)
        key = replay_key(spec)
        fast = execute(spec)
        assert compiles == ["default"]
        # The replay left the shared compile as it found it.
        assert replay_key(spec) == key
        assert compiles == ["default"]
        # Reference runs compile their own fresh build.
        assert dump(execute(spec, reference=True)) == dump(fast)
        assert compiles == ["default", "default"]

    def test_rebuilt_program_compiles_afresh(self, compiles, monkeypatch):
        spec = RunSpec.create("mcf", "grp", limit_refs=REFS)
        fast = dump(execute(spec))
        monkeypatch.setattr(runner, "_BUILD_CACHE", {})
        assert dump(execute(spec)) == fast
        assert compiles == ["default", "default"]


class TestFingerprint:
    """The fingerprint covers every field a run reads from a compile."""

    @staticmethod
    def compile(workload="swim", **kwargs):
        from repro.sim.runner import _built_workload
        from repro.workloads.base import get_workload

        _, _, program = _built_workload(get_workload(workload), 1.0, True)
        return compile_hints(program, l2_size=128 * 1024, **kwargs)

    def test_fields_are_pinned(self):
        """A new field must be added to the fingerprint (or to the
        exclusions, with a reason) before this test passes again."""
        result = self.compile()
        assert set(vars(result)) == {
            # Covered by the fingerprint.
            "hint_table", "indirect_sites", "bound_loops", "indirect_mode",
            # Derived from indirect_sites and indirect_mode.
            "indirect_base_loops",
            # Excluded: fixed by the spec's workload and scale.
            "program",
            # Excluded: the request, not the output.
            "policy",
        }
        assert set(vars(HintTable())) == {
            "_hints", "indirect_directives", "total_refs"}
        assert LoadHint.__slots__ == (
            "spatial", "pointer", "recursive", "region_coeff", "indirect")
        assert IndirectInfo.__slots__ == (
            "target_array", "index_array", "index_load", "scale", "offset",
            "loop_id")

    def test_policy_is_excluded(self):
        result = self.compile()
        before = result.fingerprint()
        result.policy = "something else"
        assert result.fingerprint() == before

    @pytest.mark.parametrize("mutate", [
        lambda r: r.hint_table.mark("new-ref", spatial=True),
        lambda r: setattr(next(iter(r.hint_table._hints.values())),
                          "region_coeff", 3),
        lambda r: setattr(r.hint_table, "indirect_directives", 99),
        lambda r: setattr(r.hint_table, "total_refs", 99),
        lambda r: r.bound_loops.add(999),
        lambda r: setattr(r, "indirect_mode", "hintbit"),
    ], ids=["hint", "hint-bits", "directives", "total-refs", "bound-loops",
            "indirect-mode"])
    def test_covered_fields_change_it(self, mutate):
        result = self.compile()
        before = result.fingerprint()
        mutate(result)
        assert result.fingerprint() != before

    @pytest.mark.parametrize("field,value", [
        ("scale", 2), ("offset", 5), ("loop_id", "other#L1")])
    def test_indirect_sites_change_it(self, field, value):
        result = self.compile("vpr")
        assert result.indirect_sites
        before = result.fingerprint()
        info = next(iter(result.indirect_sites.values()))
        setattr(info, field, value)
        assert result.fingerprint() != before

    def test_indirect_site_arrays_change_it(self):
        result = self.compile("vpr")
        before = result.fingerprint()
        info = next(iter(result.indirect_sites.values()))
        info.target_array, info.index_array = \
            info.index_array, info.target_array
        assert result.fingerprint() != before

    def test_equal_compiles_fingerprint_alike(self):
        assert self.compile(policy="conservative").fingerprint() \
            == self.compile(policy="default").fingerprint()
        assert self.compile(policy="default").fingerprint() \
            != self.compile(policy="aggressive").fingerprint()
