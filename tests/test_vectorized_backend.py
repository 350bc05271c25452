"""Vectorized replay backend: dispatch, equivalence, fallback, caching.

Four layers of guarantees for ``repro.sim.vectorized``:

* **dispatch** — ``resolve_backend`` honours the spec's pin, else
  picks the vectorized backend, and rejects unknown names;
* **equivalence** — the vectorized backend's ``RunResult.to_dict()`` is
  byte-identical to the fused loop's for every workload across the
  scheme families it batches differently (no prefetcher, hardware-only
  SRP, hint-guided GRP, and the adaptive gate machinery), plus seeded
  synthetic traces that drive the ring walker over long barrier-free
  stretches the real workloads' barrier density rarely exposes;
* **fallback** — on configurations :func:`~repro.sim.vectorized.supports`
  rejects (a TLB, a perfect-cache mode) a pinned ``backend="vectorized"``
  runs the fused loop itself, with identical results;
* **caching** — pinned backends are part of the RunSpec digest (results
  from different backends can never alias in the persistent cache) and
  the 1.6.0 version-salt bump invalidated every pre-backend entry
  (and each later bump — 1.7.0 added the co-run backend field — keeps
  older payloads from aliasing).
"""

import json

import pytest

from repro.mem.space import AddressSpace
from repro.sim.cache import version_salt
from repro.sim.config import MachineConfig
from repro.sim.runner import resolve_backend, run_workload
from repro.sim.simulator import Simulator
from repro.sim.spec import RunSpec
from repro.trace.compiled import CompiledTrace
from repro.trace.events import MemRef, Ops
from repro.workloads import workload_names

LIMIT = 1200

#: One scheme per batching regime: no prefetcher (pure walker),
#: hardware-only SRP (mode-B gated stretches), hint-guided GRP
#: (directive events break walks), and the adaptive throttle (epoch
#: ticks interleave with the gate machinery).
SCHEMES_UNDER_TEST = ("none", "srp", "grp", "srp-adaptive")

#: Configurations ``vectorized.supports`` rejects: a pinned vectorized
#: spec runs the fused loop there.
UNSUPPORTED = {
    "tlb": dict(config=MachineConfig.scaled(tlb_entries=8)),
    "perfect_l1": dict(mode="perfect_l1"),
}

MATRIX = [
    pytest.param(workload, scheme, {}, id="%s-%s" % (workload, scheme))
    for workload in workload_names() for scheme in SCHEMES_UNDER_TEST
] + [
    pytest.param("mcf", "srp", overrides, id="mcf-srp-" + name)
    for name, overrides in sorted(UNSUPPORTED.items())
]


def result_json(workload, scheme, backend, limit=LIMIT, **overrides):
    stats = run_workload(workload, scheme, limit_refs=limit, backend=backend,
                         **overrides)
    return json.dumps(stats.to_dict(), sort_keys=True)


class TestDispatch:
    def test_explicit_names_pass_through(self):
        assert resolve_backend("fused") == "fused"

    def test_auto_prefers_vectorized_when_available(self):
        assert resolve_backend("auto") == "vectorized"

    def test_spec_pin_beats_env_var(self, monkeypatch):
        # REPRO_BACKEND is no longer read: a stale value in the
        # environment must neither override a pin nor be validated.
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        assert resolve_backend("vectorized") == "vectorized"
        assert resolve_backend("fused") == "fused"
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        assert resolve_backend("vectorized") == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("turbo")
        with pytest.raises(ValueError):
            RunSpec.create("mcf", "none", backend="turbo")

    def test_simulator_rejects_unknown_backend(self):
        sim = Simulator(MachineConfig.scaled(), AddressSpace(), None)
        trace = CompiledTrace.from_events([MemRef("r", 1 << 20, 8)])
        with pytest.raises(ValueError):
            sim.run_compiled(trace, backend="turbo")


class TestDifferentialMatrix:
    """Byte-identical vectorized-vs-fused across the full workload set,
    plus the unsupported configurations the backend hands to fused."""

    @pytest.mark.parametrize("workload,scheme,overrides", MATRIX)
    def test_byte_identical(self, workload, scheme, overrides):
        assert result_json(workload, scheme, "vectorized", **overrides) \
            == result_json(workload, scheme, "fused", **overrides)


def synthetic_trace(seed, nrefs=4000, blocks=64, ops_every=3, ops_count=2,
                    barrier_every=None):
    """A seeded synthetic trace with long barrier-free hit stretches.

    After warming ``blocks`` lines the reference stream hits the same
    working set with a pseudo-random pattern, interleaving small ALU
    bursts, so the ring walker must carry the materialized pre-walk ring
    and its own writes across long runs of issues with no barrier to
    reset them.  ``barrier_every`` (refs) splices in window-sized Ops
    barriers to force the walker's uniform-fill closed form at seeded
    positions.
    """
    import random
    rng = random.Random(seed)
    base = 1 << 20
    events = [MemRef("warm", base + 64 * b, 8) for b in range(blocks)]
    for i in range(nrefs):
        block = rng.randrange(blocks)
        store = rng.random() < 0.25
        events.append(MemRef("r%d" % (i % 7), base + 64 * block, 8,
                             is_store=store))
        if ops_every and i % ops_every == 0:
            events.append(Ops(ops_count))
        if barrier_every and i % barrier_every == barrier_every - 1:
            events.append(Ops(256))
    return CompiledTrace.from_events(events)


def run_synthetic(trace, backend):
    sim = Simulator(MachineConfig.scaled(), AddressSpace(), None)
    result = sim.run_compiled(trace, backend=backend)
    return json.dumps(result.to_dict(), sort_keys=True)


class TestSyntheticFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_streams_byte_identical(self, seed):
        trace = synthetic_trace(seed)
        assert run_synthetic(trace, "vectorized") \
            == run_synthetic(trace, "fused")

    @pytest.mark.parametrize("seed", range(4))
    def test_barriered_streams_byte_identical(self, seed):
        trace = synthetic_trace(seed, nrefs=2500, barrier_every=97 + seed)
        assert run_synthetic(trace, "vectorized") \
            == run_synthetic(trace, "fused")


class TestDigestSensitivity:
    def spec(self, backend):
        return RunSpec.create("mcf", "srp", limit_refs=LIMIT,
                              backend=backend)

    def test_pinned_backends_never_alias(self):
        salt = version_salt()
        digests = {self.spec(b).digest(salt)
                   for b in ("auto", "fused", "vectorized")}
        assert len(digests) == 3

    def test_version_salt_invalidates_prebackend_entries(self):
        import repro
        assert repro.__version__ in version_salt()
        spec = self.spec("auto")
        assert spec.digest(version_salt()) != spec.digest("repro-1.5.0")

    def test_backend_round_trips_and_rejects_unknown(self):
        spec = self.spec("vectorized")
        assert RunSpec.from_dict(spec.to_dict()) == spec
        payload = dict(spec.to_dict())
        payload["backend"] = "turbo"
        with pytest.raises(ValueError):
            RunSpec.from_dict(payload)
