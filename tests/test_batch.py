"""Tests for the RunSpec → engine → RunResult pipeline: batch runner
determinism (parallel == serial), serialization round-trips, and the
persistent result cache."""

import json

import pytest

from repro.sim.batch import resolve_jobs, run_batch
from repro.sim.cache import ResultCache, version_salt
from repro.sim.config import MachineConfig
from repro.sim.runner import execute, run_workload
from repro.sim.spec import RunSpec, config_from_dict, config_to_dict
from repro.sim.stats import SimStats

REFS = 2500

SPECS = [
    RunSpec.create("vpr", "none", limit_refs=REFS),
    RunSpec.create("vpr", "grp", limit_refs=REFS),
    RunSpec.create("swim", "stride", limit_refs=REFS),
    RunSpec.create("mcf", "srp", limit_refs=REFS),
    RunSpec.create("vpr", "none", mode="perfect_l2", limit_refs=REFS),
]


class TestRunSpec:
    def test_frozen_and_hashable(self):
        spec = RunSpec.create("vpr", "grp", limit_refs=REFS)
        assert spec == RunSpec.create("vpr", "grp", limit_refs=REFS)
        assert len({spec, RunSpec.create("vpr", "grp", limit_refs=REFS)}) == 1
        with pytest.raises(AttributeError):
            spec.workload = "swim"

    def test_dict_round_trip(self):
        for spec in SPECS:
            assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        for spec in SPECS:
            data = json.loads(json.dumps(spec.to_dict()))
            assert RunSpec.from_dict(data) == spec

    def test_digest_content_keyed(self):
        a = RunSpec.create("vpr", "grp", limit_refs=REFS)
        b = RunSpec.create("vpr", "grp", limit_refs=REFS)
        assert a.digest() == b.digest()
        assert a.digest("v1") != a.digest("v2")
        assert a.digest() != RunSpec.create("vpr", "srp",
                                            limit_refs=REFS).digest()

    def test_config_distinguishes_specs(self):
        small = RunSpec.create("vpr", "none",
                               config=MachineConfig.scaled(l2_size=1 << 15))
        big = RunSpec.create("vpr", "none",
                             config=MachineConfig.scaled(l2_size=1 << 20))
        assert small != big
        assert small.digest() != big.digest()

    def test_machine_config_round_trip(self):
        config = MachineConfig.scaled(l1_assoc=4, mshr_entries=16)
        rebuilt = config_from_dict(config_to_dict(config))
        assert config_to_dict(rebuilt) == config_to_dict(config)
        spec = RunSpec.create("vpr", "none", config=config)
        assert config_to_dict(spec.machine_config()) == \
            config_to_dict(config)

    def test_unhinted_policy_canonicalized(self):
        # The compiler's policy only reaches hinted schemes; unhinted
        # specs collapse onto policy="default" so the matrix and cache
        # never duplicate a baseline run.
        a = RunSpec.create("vpr", "none", policy="aggressive")
        b = RunSpec.create("vpr", "none")
        assert a == b
        hinted = RunSpec.create("vpr", "grp", policy="aggressive")
        assert hinted.policy == "aggressive"

    def test_validation(self):
        with pytest.raises(KeyError):
            RunSpec.create("nonesuch", "none")
        with pytest.raises(KeyError):
            RunSpec.create("vpr", "bogus")


class TestResultSerialization:
    def test_cache_round_trip_is_lossless(self):
        # to_dict -> JSON -> from_dict must reproduce every field,
        # including the int-keyed region-size histogram Table 4 reads.
        stats = execute(RunSpec.create("vpr", "grp", limit_refs=REFS))
        data = json.loads(json.dumps(stats.to_dict()))
        rebuilt = SimStats.from_dict(data)
        assert rebuilt.to_dict() == stats.to_dict()
        assert rebuilt.ipc == stats.ipc
        assert rebuilt.l2_miss_rate == stats.l2_miss_rate
        assert rebuilt.summary() == stats.summary()
        histogram = rebuilt.prefetcher["region_size_histogram"]
        assert all(isinstance(k, int) for k in histogram)

    def test_derived_metrics_survive_round_trip(self):
        base = execute(RunSpec.create("vpr", "none", limit_refs=REFS))
        grp = execute(RunSpec.create("vpr", "grp", limit_refs=REFS))
        rebuilt = SimStats.from_dict(json.loads(json.dumps(grp.to_dict())))
        assert rebuilt.speedup_over(base) == grp.speedup_over(base)
        assert rebuilt.traffic_ratio_over(base) == \
            grp.traffic_ratio_over(base)


class TestBatchDeterminism:
    def test_parallel_equals_serial(self):
        serial = run_batch(SPECS, jobs=1)
        parallel = run_batch(SPECS, jobs=2)
        assert [s.to_dict() for s in serial] == \
            [p.to_dict() for p in parallel]

    def test_batch_matches_direct_execution(self):
        results = run_batch(SPECS, jobs=2)
        for spec, stats in zip(SPECS, results):
            assert stats.to_dict() == execute(spec).to_dict()

    def test_duplicates_resolve_identically(self):
        specs = [SPECS[0], SPECS[1], SPECS[0]]
        results = run_batch(specs, jobs=1)
        assert results[0].to_dict() == results[2].to_dict()

    def test_result_order_follows_spec_order(self):
        results = run_batch(SPECS, jobs=2)
        for spec, stats in zip(SPECS, results):
            assert stats.workload == spec.workload

    def test_progress_callback(self):
        seen = []
        run_batch(SPECS[:3], jobs=1,
                  progress=lambda d, t, s, c: seen.append((d, t, c)))
        assert seen == [(1, 3, False), (2, 3, False), (3, 3, False)]

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1


class TestPersistentCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = SPECS[0]
        assert cache.get(spec) is None
        stats = execute(spec)
        cache.put(spec, stats)
        assert cache.get(spec).to_dict() == stats.to_dict()
        assert len(cache) == 1

    def test_entry_bytes_are_pinned(self, tmp_path):
        """Entries are sorted-key JSON with the default separators: the
        bytes the pure-Python encoder wrote before put switched to the
        C one."""

        class Stats:
            def to_dict(self):
                return {"b": 0.1 + 0.2, "a": [1, 2.0, "x\u00e9"],
                        "c": {"2": None, "10": True}}

        cache = ResultCache(tmp_path)
        spec = RunSpec.create("vpr", "none", limit_refs=100)
        cache.put(spec, Stats())
        written = cache.path_for(spec).read_text()
        assert written.startswith('{"spec": {"backend": "auto", "config": ')
        assert written.endswith(
            ', "stats": {"a": [1, 2.0, "x\\u00e9"], "b": '
            '0.30000000000000004, "c": {"10": true, "2": null}}, '
            '"version": %s}' % json.dumps(version_salt()))
        payload = {"version": version_salt(), "spec": spec.to_dict(),
                   "stats": Stats().to_dict()}
        python_encoder = json.JSONEncoder(sort_keys=True)
        assert written == "".join(python_encoder.iterencode(payload))

    def test_batch_reuses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_batch(SPECS, jobs=1, cache=cache)
        assert len(cache) == len(SPECS)
        flags = []
        second = run_batch(SPECS, jobs=1, cache=cache,
                           progress=lambda d, t, s, c: flags.append(c))
        assert all(flags), "second batch should be all cache hits"
        assert [a.to_dict() for a in first] == \
            [b.to_dict() for b in second]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = SPECS[0]
        cache.put(spec, execute(spec))
        cache.path_for(spec).write_text("{not json")
        assert cache.get(spec) is None

    def test_corrupt_entry_is_quarantined(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        spec = SPECS[0]
        stats = execute(spec)
        cache.put(spec, stats)
        cache.path_for(spec).write_text('{"version": "x", "sta')
        with caplog.at_level("WARNING", logger="repro.sim.cache"):
            assert cache.get(spec) is None
        assert cache.quarantined == 1
        assert "quarantin" in caplog.text
        # The bad file moved aside (inspectable), not deleted...
        parked = tmp_path / "quarantine" / cache.path_for(spec).name
        assert parked.exists()
        # ...and no longer counts as, or shadows, a live entry.
        assert len(cache) == 0
        cache.put(spec, stats)
        assert cache.get(spec).to_dict() == stats.to_dict()

    def test_truncated_json_payload_is_quarantined(self, tmp_path):
        # Valid JSON but not a result payload ("stats" missing) — the
        # KeyError path must quarantine too, not propagate.
        cache = ResultCache(tmp_path)
        spec = SPECS[0]
        cache.put(spec, execute(spec))
        cache.path_for(spec).write_text('{"version": "repro-x"}')
        assert cache.get(spec) is None
        assert cache.quarantined == 1

    def test_quarantine_survives_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = SPECS[0]
        cache.put(spec, execute(spec))
        cache.path_for(spec).write_text("garbage")
        cache.get(spec)
        cache.put(spec, execute(spec))
        cache.clear()
        assert len(cache) == 0
        parked = tmp_path / "quarantine" / cache.path_for(spec).name
        assert parked.exists(), "clear() must not touch quarantined files"

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(SPECS[0], execute(SPECS[0]))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(SPECS[0]) is None


def _hammer_cache(args):
    """Child-process body for the concurrency stress test: alternate
    put/get on one shared entry and report what the reads saw."""
    cache_dir, spec_data, stats_data, rounds = args
    from repro.sim.spec import spec_from_dict
    from repro.sim.stats import result_from_dict

    cache = ResultCache(cache_dir)
    spec = spec_from_dict(spec_data)
    stats = result_from_dict(stats_data)
    seen = []
    for _ in range(rounds):
        cache.put(spec, stats)
        got = cache.get(spec)
        seen.append(None if got is None else got.to_dict())
    return {"seen": seen, "quarantined": cache.quarantined}


class TestConcurrentCache:
    """Cross-process writer safety: atomic replace + the advisory lock.

    Many processes hammering one entry must never produce a torn read —
    every get() sees either a miss or one complete, correct payload,
    and nothing is ever spuriously quarantined."""

    def test_parallel_writers_never_tear(self, tmp_path):
        import multiprocessing

        spec = SPECS[0]
        stats = execute(spec)
        args = (str(tmp_path), spec.to_dict(), stats.to_dict(), 25)
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=4) as pool:
            reports = pool.map(_hammer_cache, [args] * 4)
        expected = stats.to_dict()
        for report in reports:
            assert report["quarantined"] == 0
            assert all(seen == expected for seen in report["seen"])
        # The entry on disk is intact and nothing was quarantined.
        cache = ResultCache(tmp_path)
        assert cache.get(spec).to_dict() == expected
        assert not (tmp_path / "quarantine").exists()

    def test_file_lock_excludes_other_processes(self, tmp_path):
        """While one process holds the lock, another's non-blocking
        flock attempt must fail (POSIX only; elsewhere the lock is a
        documented no-op and this test self-skips)."""
        import subprocess
        import sys

        fcntl = pytest.importorskip("fcntl")
        from repro.sim.cache import LOCK_FILE, FileLock

        lock = FileLock(tmp_path / LOCK_FILE)
        probe = (
            "import fcntl, sys\n"
            "handle = open(sys.argv[1], 'a+')\n"
            "try:\n"
            "    fcntl.flock(handle.fileno(),"
            " fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
            "except OSError:\n"
            "    print('LOCKED')\n"
            "else:\n"
            "    print('ACQUIRED')\n"
        )
        with lock:
            out = subprocess.run(
                [sys.executable, "-c", probe, str(tmp_path / LOCK_FILE)],
                capture_output=True, text=True)
        assert out.stdout.strip() == "LOCKED"
        # ...and released afterwards:
        out = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / LOCK_FILE)],
            capture_output=True, text=True)
        assert out.stdout.strip() == "ACQUIRED"

    def test_file_lock_is_reentrant(self, tmp_path):
        from repro.sim.cache import LOCK_FILE, FileLock

        lock = FileLock(tmp_path / LOCK_FILE)
        with lock:
            with lock:
                pass
        # Fully released: a fresh acquire works immediately.
        with lock:
            pass

    def test_quarantine_rechecks_under_lock(self, tmp_path):
        """A healthy entry is never quarantined: the corrupt-path
        re-parse inside the lock sees a concurrent writer's fresh
        bytes and returns them as a hit."""
        cache = ResultCache(tmp_path)
        spec = SPECS[0]
        stats = execute(spec)
        cache.put(spec, stats)
        # Simulate "corrupt at first read, healed before the lock":
        # _quarantine itself re-reads, so calling it against a healthy
        # file must return the result and move nothing.
        result = cache._quarantine(cache.path_for(spec),
                                   ValueError("simulated torn read"))
        assert result is not None and result.to_dict() == stats.to_dict()
        assert cache.quarantined == 0
        assert not (tmp_path / "quarantine").exists()
        assert cache.get(spec).to_dict() == stats.to_dict()
