"""Tests for the simulation service: HTTP API, job lifecycle,
byte-identical result serving, concurrent-client single-flight, ETag
revalidation, strict request validation, and graceful degradation of
crashing specs into ``failed:<kind>`` cells."""

import json
import threading

import pytest

from repro.serve import JobManager, QueueFull, ServeClient, ServeError, \
    Server
from repro.sim.cache import ResultCache, version_salt
from repro.sim.config import MachineConfig
from repro.sim.runner import execute
from repro.sim.spec import CoRunSpec, RunSpec, spec_from_dict
from repro.sim.stats import result_from_dict, result_to_json

REFS = 1500
SCHEMES = ("none", "srp", "grp", "srp-adaptive")
WORKLOADS = ("mcf", "swim", "vpr")


def tiny_spec(workload="swim", scheme="grp", refs=REFS, **kwargs):
    return RunSpec.create(workload, scheme, config=MachineConfig.tiny(),
                          limit_refs=refs, **kwargs)


def tiny_corun(workloads=("mcf", "swim"), scheme="srp", refs=800):
    return CoRunSpec.create(workloads, scheme,
                            config=MachineConfig.tiny(), limit_refs=refs)


class ServerFixture:
    """One running server + client over a private cache directory."""

    def __init__(self, cache_dir, **manager_kwargs):
        manager_kwargs.setdefault("workers", 4)
        self.manager = JobManager(cache_dir=str(cache_dir),
                                  **manager_kwargs)
        self.server = Server(self.manager, port=0)
        port = self.server.start()
        self.client = ServeClient("http://127.0.0.1:%d" % port)

    def close(self):
        self.server.stop()
        self.manager.shutdown()

    def run(self, spec, timeout=120.0):
        """Submit one spec, wait for the job, return its snapshot."""
        submitted = self.client.submit(spec)
        return submitted, self.client.wait(submitted["job"],
                                           timeout=timeout)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    fixture = ServerFixture(tmp_path_factory.mktemp("serve-cache"))
    yield fixture
    fixture.close()


class TestHealthAndStats:
    def test_healthz(self, served):
        data = served.client.healthz()
        assert data["status"] == "ok"
        assert data["version"] == version_salt()

    def test_stats_shape(self, served):
        stats = served.client.stats()
        assert stats["backlog"] > 0
        assert len(stats["workers"]) == 4
        assert {"hits", "misses", "hit_rate", "entries",
                "quarantined"} <= set(stats["cache"])
        assert set(stats["jobs"]) == {"queued", "running", "done",
                                      "failed"}


class TestByteIdenticalServing:
    """The acceptance bar: served JSON == direct execute(), per byte."""

    def test_runspec_matrix_byte_identical(self, served):
        specs = [tiny_spec(wl, sc) for wl in WORKLOADS for sc in SCHEMES]
        submitted, job = served.run(specs)
        assert job["state"] == "done"
        assert [cell["status"] for cell in job["cells"]] == \
            ["ok"] * len(specs)
        for spec, digest in zip(specs, submitted["digests"]):
            _status, body, etag = served.client.result_bytes(digest)
            assert body == result_to_json(execute(spec)).encode()
            assert etag == '"%s"' % digest

    def test_corunspec_matrix_byte_identical(self, served):
        from repro.sim.multicore import execute_corun

        specs = [tiny_corun(scheme=scheme) for scheme in SCHEMES]
        submitted, job = served.run(specs)
        assert job["state"] == "done"
        for spec, digest in zip(specs, submitted["digests"]):
            _status, body, _etag = served.client.result_bytes(digest)
            assert body == result_to_json(execute_corun(spec)).encode()

    def test_result_rehydrates(self, served):
        spec = tiny_spec("mcf", "none")
        submitted, _job = served.run(spec)
        stats = served.client.result(submitted["digests"][0])
        assert stats.workload == "mcf"
        assert stats.to_dict() == execute(spec).to_dict()


class TestCacheHitFastPath:
    def test_repeat_post_is_pure_cache_hit(self, served):
        spec = tiny_spec("swim", "srp")
        before = served.client.stats()["cells"]
        _sub1, job1 = served.run(spec)
        _sub2, job2 = served.run(spec)
        after = served.client.stats()["cells"]
        assert job1["state"] == job2["state"] == "done"
        # Exactly one simulation across both jobs; the repeat rode the
        # cache (first job may itself have been cached by an earlier
        # test, hence <=).
        assert after["computed"] - before["computed"] <= 1
        assert after["cached"] - before["cached"] >= 1

    def test_concurrent_identical_posts_compute_once(self, served):
        """N clients hammering one spec: one compute, N identical
        bodies."""
        spec = tiny_spec("vpr", "grp", refs=1700, seed=991)
        before = served.client.stats()["cells"]
        bodies, errors = [], []

        def hammer():
            try:
                submitted = served.client.submit(spec)
                served.client.wait(submitted["job"], timeout=120)
                _s, body, _e = served.client.result_bytes(
                    submitted["digests"][0])
                bodies.append(body)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors
        assert len(bodies) == 8
        assert len(set(bodies)) == 1
        after = served.client.stats()["cells"]
        assert after["computed"] - before["computed"] == 1
        assert bodies[0] == result_to_json(execute(spec)).encode()


class TestETagRevalidation:
    def test_if_none_match_yields_304(self, served):
        submitted, _job = served.run(tiny_spec("mcf", "srp"))
        digest = submitted["digests"][0]
        status, body, etag = served.client.result_bytes(digest)
        assert status == 200 and body
        status2, body2, _ = served.client.result_bytes(digest, etag=etag)
        assert status2 == 304
        assert body2 == b""

    def test_stale_etag_yields_fresh_body(self, served):
        submitted, _job = served.run(tiny_spec("mcf", "srp"))
        digest = submitted["digests"][0]
        status, body, _ = served.client.result_bytes(
            digest, etag='"%s"' % ("0" * 64))
        assert status == 200 and body


class TestRequestValidation:
    def test_malformed_json_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client._request("POST", "/runs", body=b"{nope")
        assert err.value.status == 400

    def test_unknown_workload_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client.submit({"workload": "nope", "scheme": "grp"})
        assert err.value.status == 400
        assert "workload" in err.value.reason

    def test_unknown_scheme_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client.submit({"workload": "swim", "scheme": "warp"})
        assert err.value.status == 400

    def test_unknown_field_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client.submit({"workload": "swim", "scheme": "none",
                                  "frobnicate": 1})
        assert err.value.status == 400
        assert "frobnicate" in err.value.reason

    def test_bad_types_are_400(self, served):
        for field, value in (("limit_refs", -5), ("limit_refs", "x"),
                             ("scale", 0), ("seed", "abc"),
                             ("backend", "warp"), ("mode", "dreamy"),
                             ("policy", "bogus"), ("scheme", ["none"])):
            with pytest.raises(ServeError) as err:
                served.client.submit({"workload": "swim",
                                      "scheme": "none", field: value})
            assert err.value.status == 400

    def test_bad_corun_cell_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client.submit({"corun": True, "cells": [
                {"workload": "swim", "scheme": "none"},
                {"workload": "bogus", "scheme": "none"},
            ]})
        assert err.value.status == 400
        assert "cell 1" in err.value.reason

    def test_empty_specs_list_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client._request("POST", "/runs",
                                   body=json.dumps({"specs": []}).encode())
        assert err.value.status == 400

    def test_unknown_digest_is_404(self, served):
        with pytest.raises(ServeError) as err:
            served.client.result_bytes("f" * 64)
        assert err.value.status == 404

    def test_traversal_digest_is_404(self, served):
        with pytest.raises(ServeError) as err:
            served.client._request("GET", "/results/..%2f..%2fetc")
        assert err.value.status == 404

    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServeError) as err:
            served.client.job("j999999")
        assert err.value.status == 404

    def test_unknown_endpoint_is_404(self, served):
        with pytest.raises(ServeError) as err:
            served.client._get_json("/frobnicate")
        assert err.value.status == 404

    def test_wrong_method_is_405(self, served):
        with pytest.raises(ServeError) as err:
            served.client._request("POST", "/healthz", body=b"{}")
        assert err.value.status == 405


class TestProgressStreaming:
    def test_stream_ends_with_job_snapshot(self, served):
        submitted = served.client.submit(tiny_spec("swim", "none"))
        records = list(served.client.stream_job(submitted["job"]))
        assert records, "stream must carry at least the terminal record"
        assert records[-1]["kind"] == "job"
        assert records[-1]["job"]["state"] == "done"
        kinds = {record["kind"] for record in records}
        assert "cell" in kinds or "sweep" in kinds

    def test_job_snapshot_reports_journal_progress(self, served):
        _submitted, job = served.run(tiny_spec("mcf", "grp"))
        journal = job["journal"]
        assert journal["done"] + journal["failed"] == journal["total"]
        assert journal["total"] == 1

    def test_snapshot_of_job_finishing_mid_read(self, served, tmp_path,
                                                monkeypatch):
        # A worker thread can fill job.cells after the snapshot's
        # to_dict() ran; the snapshot must stay the earlier view.
        from repro.serve.jobs import Job
        from repro.sim.supervisor import JournalTailer

        job = Job("j-race", [tiny_spec()], ["d0"], str(tmp_path / "j.ckpt"))
        poll = JournalTailer.poll

        def poll_while_job_finishes(tailer):
            job.cells = [{"digest": "d0", "label": "swim/grp",
                          "status": "ok"}]
            return poll(tailer)

        monkeypatch.setattr(JournalTailer, "poll", poll_while_job_finishes)
        snapshot = served.server._job_snapshot(job)
        assert "cells" not in snapshot
        assert snapshot["journal"]["total"] == 0


class TestGracefulDegradation:
    def test_crashing_spec_degrades_to_failed_cell(self, tmp_path,
                                                   monkeypatch):
        plan = {"faults": [{"kind": "crash", "match": "gzip/stride",
                            "attempts": [0, 1, 2]}]}
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        fixture = ServerFixture(tmp_path / "cache", workers=1)
        try:
            good = tiny_spec("swim", "none")
            bad = tiny_spec("gzip", "stride")
            submitted, job = fixture.run([bad, good], timeout=120)
            assert job["state"] == "done"
            statuses = {cell["label"]: cell["status"]
                        for cell in job["cells"]}
            assert statuses["gzip/stride"] == "failed:crash"
            assert statuses["swim/none"] == "ok"
            # The failed cell has no result; the good one serves fine.
            with pytest.raises(ServeError) as err:
                fixture.client.result_bytes(submitted["digests"][0])
            assert err.value.status == 404
            _s, body, _e = fixture.client.result_bytes(
                submitted["digests"][1])
            assert body == result_to_json(execute(good)).encode()
            assert fixture.client.stats()["cells"]["failed"] == 1
            failed_cell = job["cells"][0]
            assert failed_cell["result"] is None
        finally:
            fixture.close()


class TestBackpressure:
    def test_bounded_queue_rejects_overflow(self, tmp_path):
        manager = JobManager(cache_dir=str(tmp_path / "cache"),
                             backlog=2)  # workers never started
        manager.submit([tiny_spec("swim", "none")])
        manager.submit([tiny_spec("mcf", "none")])
        with pytest.raises(QueueFull):
            manager.submit([tiny_spec("vpr", "none")])
        # The rejected job leaves no record behind.
        assert len(manager.jobs()) == 2


class TestSpecValidationUnit:
    """spec_from_dict(strict=True) — the POST /runs deserializer."""

    def test_round_trips_both_kinds(self):
        run = tiny_spec("swim", "grp")
        corun = tiny_corun()
        assert spec_from_dict(run.to_dict(), strict=True) == run
        assert spec_from_dict(corun.to_dict(), strict=True) == corun

    def test_dispatches_on_corun_marker(self):
        assert isinstance(spec_from_dict(tiny_corun().to_dict()),
                          CoRunSpec)
        assert isinstance(spec_from_dict(tiny_spec().to_dict()), RunSpec)

    def test_lenient_mode_still_constructs(self):
        data = {"workload": "swim", "scheme": "grp"}
        assert spec_from_dict(data).workload == "swim"

    def test_strict_rejects_non_dict(self):
        with pytest.raises(ValueError):
            spec_from_dict([1, 2], strict=True)

    def test_strict_rejects_missing_required(self):
        with pytest.raises(ValueError, match="workload"):
            spec_from_dict({"scheme": "grp"}, strict=True)

    def test_strict_rejects_bool_refs(self):
        with pytest.raises(ValueError, match="limit_refs"):
            spec_from_dict({"workload": "swim", "scheme": "none",
                            "limit_refs": True}, strict=True)

    def test_strict_rejects_bad_config(self):
        with pytest.raises(ValueError, match="config"):
            spec_from_dict({"workload": "swim", "scheme": "none",
                            "config": {"l1_size": 1024,
                                       "warp_factor": 9}}, strict=True)

    def test_strict_accepts_full_config(self):
        data = tiny_spec().to_dict()
        spec = spec_from_dict(data, strict=True)
        assert spec.machine_config().l1_size == \
            MachineConfig.tiny().l1_size

    def test_strict_rejects_non_string_corun_scheme(self):
        with pytest.raises(ValueError, match="cell 1: 'scheme'"):
            spec_from_dict({"corun": True, "cells": [
                {"workload": "swim", "scheme": "none"},
                {"workload": "mcf", "scheme": {"name": "srp"}},
            ]}, strict=True)

    def test_strict_rejects_empty_corun_cells(self):
        with pytest.raises(ValueError, match="cells"):
            spec_from_dict({"corun": True, "cells": []}, strict=True)


class TestDigestAddressing:
    """ResultCache.get_digest — the /results lookup primitive."""

    def test_digest_lookup_matches_spec_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec("swim", "none")
        stats = execute(spec)
        cache.put(spec, stats)
        digest = spec.digest(version_salt())
        assert cache.get_digest(digest).to_dict() == stats.to_dict()

    def test_digest_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_digest("e" * 64) is None
        assert cache.misses == 1

    def test_corrupt_digest_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec("swim", "none")
        cache.put(spec, execute(spec))
        digest = spec.digest(version_salt())
        cache.path_for_digest(digest).write_text("{broken")
        assert cache.get_digest(digest) is None
        assert cache.quarantined == 1
