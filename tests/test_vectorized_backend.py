"""Single-core backend names: dispatch, aliases, digests, stress streams.

Single-core compiled replay has one fast loop, the fused
:meth:`~repro.cpu.core.Core.run_span`.  ``RunSpec.backend`` still
accepts ``auto``, ``fused`` and ``vectorized`` (the last named a
batch-replay backend that has since been deleted), because the backend
is part of the spec digest.  This file checks:

* **dispatch** — ``resolve_backend`` maps every valid name to
  ``fused`` and rejects unknown names;
* **aliases** — a pinned ``vectorized`` spec replays byte-identically
  to the ``reference=True`` oracle (so to the fused bytes) for every
  workload under four scheme families — no prefetcher, hardware-only
  SRP, hint-guided GRP and the adaptive throttle — and on a TLB and a
  perfect-L1 configuration;
* **stress streams** — seeded synthetic traces with long barrier-free
  L1-hit stretches, with and without window-sized ``Ops`` barriers,
  replay through the fused loop byte-identically to the
  ``reference=True`` oracle (the real workloads' barrier density rarely
  produces such stretches);
* **caching** — the backend name is part of the RunSpec digest, so
  results cached under different names never alias, and the 1.6.0
  version-salt bump invalidated every pre-backend entry.
"""

import json

import pytest

from repro.mem.space import AddressSpace
from repro.sim.cache import version_salt
from repro.sim.config import MachineConfig
from repro.sim.runner import resolve_backend, run_workload
from repro.sim.simulator import Simulator
from repro.sim.spec import BACKENDS, RunSpec
from repro.trace.compiled import CompiledTrace
from repro.trace.events import MemRef, Ops
from repro.workloads import workload_names

LIMIT = 1200

#: One scheme per prefetch regime: no prefetcher, hardware-only SRP,
#: hint-guided GRP (directive events) and the adaptive throttle (epoch
#: ticks interleave with the gate machinery).
SCHEMES_UNDER_TEST = ("none", "srp", "grp", "srp-adaptive")

#: Configurations off the default hierarchy: a TLB and a perfect L1.
OVERRIDES = {
    "tlb": dict(config=MachineConfig.scaled(tlb_entries=8)),
    "perfect_l1": dict(mode="perfect_l1"),
}

MATRIX = [
    pytest.param(workload, scheme, {}, id="%s-%s" % (workload, scheme))
    for workload in workload_names() for scheme in SCHEMES_UNDER_TEST
] + [
    pytest.param("mcf", "srp", overrides, id="mcf-srp-" + name)
    for name, overrides in sorted(OVERRIDES.items())
]


def result_json(workload, scheme, backend, limit=LIMIT, reference=False,
                **overrides):
    stats = run_workload(workload, scheme, limit_refs=limit, backend=backend,
                         reference=reference, **overrides)
    return json.dumps(stats.to_dict(), sort_keys=True)


class TestDispatch:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_every_spec_backend_resolves_to_fused(self, name):
        assert resolve_backend(name) == "fused"

    def test_spec_pin_beats_env_var(self, monkeypatch):
        # REPRO_BACKEND is not read: a stale value in the environment
        # must neither change the resolution nor be validated.
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        assert resolve_backend("vectorized") == "fused"
        assert resolve_backend("auto") == "fused"

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
    """A pinned ``vectorized`` spec against the oracle, every workload."""

    @pytest.mark.parametrize("workload,scheme,overrides", MATRIX)
    def test_byte_identical(self, workload, scheme, overrides):
        assert result_json(workload, scheme, "vectorized", **overrides) \
            == result_json(workload, scheme, "fused", reference=True,
                           **overrides)


def synthetic_trace(seed, nrefs=4000, blocks=64, ops_every=3, ops_count=2,
                    barrier_every=None):
    """A seeded synthetic trace with long barrier-free hit stretches.

    After warming ``blocks`` lines the reference stream hits the same
    working set with a pseudo-random pattern, interleaving small ALU
    bursts, so the issue ring carries partial writes across long runs of
    issues with no full refill to reset them.  ``barrier_every`` (refs)
    splices in window-sized ``Ops`` barriers at seeded positions, which
    exercise the refill memo's closed form.
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


def fused_and_reference(trace):
    """The trace's result bytes from the fused loop and from the oracle."""
    fused = Simulator(MachineConfig.scaled(), AddressSpace(), None)
    reference = Simulator(MachineConfig.scaled(), AddressSpace(), None,
                          reference=True)
    return (json.dumps(fused.run_compiled(trace).to_dict(), sort_keys=True),
            json.dumps(reference.run(trace.events()).to_dict(),
                       sort_keys=True))


class TestSyntheticFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_streams_byte_identical(self, seed):
        fused, reference = fused_and_reference(synthetic_trace(seed))
        assert fused == reference

    @pytest.mark.parametrize("seed", range(4))
    def test_barriered_streams_byte_identical(self, seed):
        trace = synthetic_trace(seed, nrefs=2500, barrier_every=97 + seed)
        fused, reference = fused_and_reference(trace)
        assert fused == reference


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
