"""Scheme registry and the simulation engine.

The engine entry point is :func:`execute`, which takes a frozen
:class:`~repro.sim.spec.RunSpec` and returns the run's
:class:`~repro.sim.stats.SimStats` (the pipeline's RunResult): it builds
the workload in a fresh address space, compiles hints when the scheme
uses them, generates the trace, and simulates it.

The set-up half of that — build, compile, trace key, interpreter — is
:func:`prepare`, which co-run cells
(:class:`~repro.sim.multicore.CoreCell`) call too, with their own
address-space base; one set-up serves both replay settings.

``run_workload("swim", "grp")`` remains as a thin convenience shim that
constructs the RunSpec and calls :func:`execute`.

Schemes
-------
The :data:`SCHEMES` registry below is the single source of truth for
which prefetch engines exist; every enumeration elsewhere — both CLIs'
``--scheme`` help, the experiment runners, and the generated
``docs/SCHEMES.md`` reference page (``tools/gen_scheme_docs.py``) — is
derived from it, so a newly registered scheme shows up everywhere
without further edits.
"""

import dataclasses

from repro.adapt.engines import (
    AdaptiveChasePrefetcher,
    AdaptiveGazePrefetcher,
    AdaptiveGRPPrefetcher,
    AdaptiveSRPPrefetcher,
)
from repro.compiler.driver import compile_hints
from repro.mem.space import AddressSpace
from repro.metrics import TraceSink
from repro.prefetch.base import NullPrefetcher
from repro.prefetch.chase import ChasePrefetcher
from repro.prefetch.gaze import GazePrefetcher
from repro.prefetch.grp import GRPPrefetcher
from repro.prefetch.pointer import PointerPrefetcher, RecursivePointerPrefetcher
from repro.prefetch.srp import SRPPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.sim.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.sim.spec import BACKENDS, CORUN_BACKENDS, RunSpec
from repro.trace.interp import Interpreter
from repro.trace.store import TraceKey, default_store, hint_signature
from repro.workloads.base import Workload, get_workload


class SchemeSpec:
    """How to build the prefetcher (and whether the binary carries hints).

    ``engine`` names the prefetcher class the factory instantiates (None
    for the no-prefetching baseline) and ``summary`` is the registry
    entry's one-line description; both exist so documentation —
    ``docs/SCHEMES.md`` via ``tools/gen_scheme_docs.py``, the CLI help
    epilogs — can be generated from the registry instead of drifting in
    prose.
    """

    def __init__(self, factory, hinted=False, variable_regions=True,
                 indirect_mode="instruction", engine=None, summary=""):
        self.factory = factory
        self.hinted = hinted
        self.variable_regions = variable_regions
        self.indirect_mode = indirect_mode
        self.engine = engine
        self.summary = summary


SCHEMES = {
    "none": SchemeSpec(
        lambda result: None,
        engine=NullPrefetcher,
        summary="no prefetching (baseline; also the perfect-L1/L2 modes)",
    ),
    "stride": SchemeSpec(
        lambda result: StridePrefetcher(),
        engine=StridePrefetcher,
        summary="predictor-directed stream buffers (Sherwood et al.)",
    ),
    "srp": SchemeSpec(
        lambda result: SRPPrefetcher(),
        engine=SRPPrefetcher,
        summary="scheduled region prefetching, hardware only (SRP)",
    ),
    "pointer": SchemeSpec(
        lambda result: PointerPrefetcher(),
        engine=PointerPrefetcher,
        summary="stateless content-directed pointer prefetching",
    ),
    "pointer-recursive": SchemeSpec(
        lambda result: RecursivePointerPrefetcher(),
        engine=RecursivePointerPrefetcher,
        summary="pointer prefetching chased recursive_depth levels deep",
    ),
    "grp": SchemeSpec(
        lambda result: GRPPrefetcher(result.hint_table, variable_regions=True),
        hinted=True,
        variable_regions=True,
        engine=GRPPrefetcher,
        summary="guided region prefetching, variable regions (GRP/Var)",
    ),
    "grp-fix": SchemeSpec(
        lambda result: GRPPrefetcher(result.hint_table,
                                     variable_regions=False),
        hinted=True,
        variable_regions=False,
        engine=GRPPrefetcher,
        summary="GRP with fixed-size regions only (GRP/Fix)",
    ),
    # Section 3.3.3's alternate indirect encoding: a base-setting
    # instruction per loop plus an indirect hint bit on the b[i] loads.
    "grp-hintbit": SchemeSpec(
        lambda result: GRPPrefetcher(result.hint_table,
                                     variable_regions=True),
        hinted=True,
        variable_regions=True,
        indirect_mode="hintbit",
        engine=GRPPrefetcher,
        summary="GRP with the hint-bit indirect encoding (Section 3.3.3)",
    ),
    # Literature-derived challengers (ROADMAP item 4): a Gaze-style
    # spatial-footprint engine and a dependence-based pointer chaser.
    "gaze": SchemeSpec(
        lambda result: GazePrefetcher(),
        engine=GazePrefetcher,
        summary="Gaze-style per-PC region footprints with temporal replay",
    ),
    "chase": SchemeSpec(
        lambda result: ChasePrefetcher(),
        engine=ChasePrefetcher,
        summary="dependence-based pointer chasing down linked structures",
    ),
    # Feedback-directed variants (repro.adapt): the static engines under
    # an epoch-based runtime throttle.  srp-adaptive needs no hints at
    # all — the point of comparison against hint-guided grp.
    "srp-adaptive": SchemeSpec(
        lambda result: AdaptiveSRPPrefetcher(),
        engine=AdaptiveSRPPrefetcher,
        summary="SRP under the runtime feedback throttle (repro.adapt)",
    ),
    "grp-adaptive": SchemeSpec(
        lambda result: AdaptiveGRPPrefetcher(result.hint_table,
                                             variable_regions=True),
        hinted=True,
        variable_regions=True,
        engine=AdaptiveGRPPrefetcher,
        summary="GRP with the feedback control plane layered on",
    ),
    "gaze-adaptive": SchemeSpec(
        lambda result: AdaptiveGazePrefetcher(),
        engine=AdaptiveGazePrefetcher,
        summary="Gaze under the feedback throttle (replay-length capped)",
    ),
    "chase-adaptive": SchemeSpec(
        lambda result: AdaptiveChasePrefetcher(),
        engine=AdaptiveChasePrefetcher,
        summary="pointer chasing under the feedback throttle",
    ),
}


def resolve_backend(requested="auto"):
    """Resolve a spec's replay-backend request to ``fused``.

    Single-core compiled replay has one fast loop, the fused
    :meth:`~repro.cpu.core.Core.run_span`.  ``"auto"`` (the default on
    every spec) and ``"vectorized"`` (a deleted batch-replay backend
    that gave the same bytes) stay valid spec values, because the
    backend is part of the spec digest, and both resolve to it.
    Unknown names are errors rather than silent fallbacks.
    """
    backend = requested or "auto"
    if backend not in BACKENDS:
        raise ValueError(
            "unknown replay backend %r (have: %s)"
            % (backend, ", ".join(BACKENDS)))
    return "fused"


def resolve_corun_backend(requested="auto"):
    """Resolve a co-run spec's backend request to ``stepped``/``fused``.

    The multi-core analogue of :func:`resolve_backend`: a pinned spec
    backend passes through, and ``"auto"`` (the default on every
    :class:`~repro.sim.spec.CoRunSpec`) is the fused skip-ahead loop —
    byte-identical to the stepped reference in every statistic (the
    differential matrix enforces it), so the choice only affects speed.
    """
    backend = requested or "auto"
    if backend == "auto":
        backend = "fused"
    if backend not in ("stepped", "fused"):
        raise ValueError(
            "unknown co-run backend %r (have: %s)"
            % (backend, ", ".join(CORUN_BACKENDS)))
    return backend


def execute(spec, trace_path=None, reference=False):
    """Run the simulation a :class:`RunSpec` describes; return its RunResult.

    This is the engine: RunSpec in, SimStats out.  Everything that
    influences the outcome is read from the spec, so two calls with equal
    specs produce identical results (the batch runner and the persistent
    cache both rely on this).  ``trace_path``, when given, streams the
    run's structured JSONL event trace there; it is a pure side channel —
    the returned stats are identical with or without it.

    ``reference=True`` runs the unoptimized paths end to end: the
    interpreter's event generator feeds the simulator directly (no
    compiled trace, no trace store) and the hierarchy's hot-path
    shortcuts are disabled.  The result must be byte-identical to the
    default fast path — the differential tests enforce this.
    """
    workload = get_workload(spec.workload)
    try:
        scheme_spec = SCHEMES[spec.scheme]
    except KeyError:
        raise KeyError(
            "unknown scheme %r (have: %s)" % (spec.scheme, ", ".join(SCHEMES))
        )
    return _simulate(workload, spec.scheme, scheme_spec,
                     spec.machine_config(), spec.mode, spec.policy,
                     spec.limit_refs, spec.scale, spec.seed,
                     trace_path=trace_path, reference=reference,
                     backend=spec.backend)


def run_workload(workload, scheme, config=None, mode="real", policy="default",
                 limit_refs=None, scale=1.0, seed=12345, trace_path=None,
                 reference=False, backend="auto"):
    """Run one (workload, scheme) simulation; return its SimStats.

    Thin shim over :func:`execute`.  ``workload`` may be a name or a
    :class:`Workload` instance (instances bypass RunSpec, which only
    carries registered names — their traces are built fresh, never
    cached, because the trace store keys by registered name).  ``mode``
    selects perfect-cache variants (``real``/``perfect_l1``/
    ``perfect_l2``).  ``policy`` is the compiler's spatial-marking policy
    (Section 5.4).
    """
    if isinstance(workload, str):
        return execute(RunSpec.create(
            workload, scheme, config=config, mode=mode, policy=policy,
            limit_refs=limit_refs, scale=scale, seed=seed, backend=backend,
        ), trace_path=trace_path, reference=reference)
    if not isinstance(workload, Workload):
        raise TypeError("workload must be a name or Workload instance")
    try:
        scheme_spec = SCHEMES[scheme]
    except KeyError:
        raise KeyError(
            "unknown scheme %r (have: %s)" % (scheme, ", ".join(SCHEMES))
        )
    return _simulate(workload, scheme, scheme_spec,
                     config or MachineConfig.scaled(), mode, policy,
                     limit_refs, scale, seed, trace_path=trace_path,
                     reference=reference, cacheable=False, backend=backend)


#: Built-workload cache: {(name, scale, base): (space, built, program)}.
#: Every registered workload's build is deterministic in (name, scale,
#: base) — the builders seed their own RNGs — and nothing written after
#: build time changes a later run: the interpreter and the prefetchers'
#: pointer scans only *read* the address space, and the program's
#: samplers keep nothing across interpretations (the ``Workload``
#: contract), so every interpretation of a cached build at any limit
#: gives the trace a fresh build gives.  Sharing the build across the
#: scheme × mode matrix saves re-running it (heap construction, shuffles)
#: per cell.
#: ``base`` shifts the address-space layout — multi-core co-runs build
#: core ``i``'s image at ``i << 36`` so cores never alias in the shared
#: L2 (base 0, the single-core default, is byte-compatible with before).
_BUILD_CACHE = {}
_BUILD_CACHE_MAX = 32


def _built_workload(workload, scale, cacheable, base=0):
    if not cacheable:
        space = AddressSpace(base=base)
        built = workload.build(space, scale=scale)
        return space, built, built.program.finalize()
    key = (workload.name, scale, base)
    entry = _BUILD_CACHE.get(key)
    if entry is None:
        space = AddressSpace(base=base)
        built = workload.build(space, scale=scale)
        entry = (space, built, built.program.finalize())
        if len(_BUILD_CACHE) >= _BUILD_CACHE_MAX:
            _BUILD_CACHE.clear()
        _BUILD_CACHE[key] = entry
    return entry


#: Hint-compile cache beside the build cache: {(build key, l2_size,
#: block_size, policy, variable_regions, indirect_mode): (program,
#: CompileResult)}.  A compile is deterministic in its program and
#: inputs, and nothing downstream writes to a ``CompileResult`` or its
#: hint table: the trace generator, the core and the prefetchers only
#: read them.  So :func:`replay_key`'s fingerprint compile and the run
#: it keys share one compile.  An entry serves only the program object
#: it was compiled from, so a rebuilt program (after the build cache is
#: cleared) compiles afresh.
_COMPILE_CACHE = {}


def _compile(program, scheme_spec, config, policy, build_key=None):
    """The hint compile a hinted scheme's run consumes.

    ``build_key`` is ``program``'s :data:`_BUILD_CACHE` key; builds
    outside the cache (reference runs, unregistered workloads) pass
    None and compile fresh.
    """
    key = None
    if build_key is not None:
        key = (build_key, config.l2_size, config.block_size, policy,
               scheme_spec.variable_regions, scheme_spec.indirect_mode)
        entry = _COMPILE_CACHE.get(key)
        if entry is not None and entry[0] is program:
            return entry[1]
    result = compile_hints(
        program,
        l2_size=config.l2_size,
        block_size=config.block_size,
        policy=policy,
        variable_regions=scheme_spec.variable_regions,
        indirect_mode=scheme_spec.indirect_mode,
    )
    if key is not None:
        if len(_COMPILE_CACHE) >= _BUILD_CACHE_MAX:
            _COMPILE_CACHE.clear()
        _COMPILE_CACHE[key] = (program, result)
    return result


def replay_key(spec):
    """A RunSpec's replay identity: specs with equal keys run alike.

    A run reads the compiler only through its
    :class:`~repro.compiler.driver.CompileResult`, so a hinted spec keys
    as itself with ``policy`` replaced by the compile's
    :meth:`~repro.compiler.driver.CompileResult.fingerprint`: policies
    whose compiles coincide share a key.  Unhinted specs (their policy
    is already canonical) key as themselves.
    """
    scheme_spec = SCHEMES[spec.scheme]
    if not scheme_spec.hinted:
        return spec
    _, result, _, _ = prepare(
        get_workload(spec.workload), scheme_spec, spec.machine_config(),
        spec.policy, spec.scale, spec.seed, spec.limit_refs)
    return dataclasses.replace(spec, policy=result.fingerprint())


def scheme_label(scheme, mode):
    """A run's scheme column: the scheme, tagged with a non-real mode."""
    return scheme if mode == "real" else "%s/%s" % (scheme, mode)


def prepare(workload, scheme_spec, config, policy, scale, seed, limit_refs,
            cacheable=True, base=0):
    """Set up one core's replay; return ``(space, result, key, build_interp)``.

    Builds ``workload`` in an address space based at ``base`` (through
    :data:`_BUILD_CACHE` when ``cacheable``), compiles hints when the
    scheme is hinted (``result`` is the
    :class:`~repro.compiler.driver.CompileResult`, else None), and names
    the trace in a :class:`~repro.trace.store.TraceKey` whose ``limit``
    is ``limit_refs`` or the workload's default.  ``build_interp()``
    makes a fresh :class:`~repro.trace.interp.Interpreter` for the
    trace, so a trace-store hit never builds one.  Single-core runs
    (base 0) and each co-run core share this set-up, so core 0 of a
    co-run keys the store exactly like the single-core run.
    """
    space, built, program = _built_workload(workload, scale, cacheable, base)
    # Only hinted schemes consume compiler output; skipping the compiler
    # for none/stride/srp/pointer saves all its pass time on runs that
    # would discard the result anyway.
    if scheme_spec.hinted:
        result = _compile(program, scheme_spec, config, policy,
                          build_key=(workload.name, scale, base) if cacheable
                          else None)
        hint_sig = hint_signature(policy, scheme_spec.variable_regions,
                                  scheme_spec.indirect_mode, config.l2_size)
    else:
        result = None
        hint_sig = None
    limit = limit_refs if limit_refs is not None else workload.default_refs
    key = TraceKey(workload.name, scale, seed, limit, config.block_size,
                   hint_sig, base=base)

    def build_interp():
        # The interpreter only *reads* the address space, so the trace can
        # be generated eagerly (or loaded from the store) without changing
        # the space state the prefetchers observe during simulation.
        interp = Interpreter(
            program, space, result, seed=seed,
            block_size=config.block_size, ops_scale=workload.ops_scale,
        )
        for name, addr in built.pointer_bindings.items():
            interp.bind_pointer(name, addr)
        return interp

    return space, result, key, build_interp


def _simulate(workload, scheme, scheme_spec, config, mode, policy,
              limit_refs, scale, seed, trace_path=None, reference=False,
              cacheable=True, backend="auto"):
    # Reference runs rebuild from scratch so a (hypothetical) mutation of
    # shared build state by the fast path could not escape the
    # differential comparison.
    cacheable = cacheable and not reference
    space, result, key, build_interp = prepare(
        workload, scheme_spec, config, policy, scale, seed, limit_refs,
        cacheable)
    prefetcher = scheme_spec.factory(result)
    label = scheme_label(scheme, mode)
    sink = TraceSink(trace_path) if trace_path is not None else None
    try:
        sim = Simulator(config, space, prefetcher, mode=mode,
                        hint_table=(result.hint_table if result is not None
                                    else None),
                        trace_sink=sink, reference=reference)
        if reference:
            return sim.run(build_interp().run(limit=key.limit),
                           workload=workload.name, scheme=label)
        if cacheable:
            # Schemes sharing a key — every unhinted one, plus hinted
            # schemes whose compiles coincide — share one trace
            # generation per process, and across processes via disk.
            trace = default_store().get_or_build(
                key, lambda: build_interp().run_columns(key.limit))
        else:
            trace = build_interp().run_columns(key.limit)
        return sim.run_compiled(trace, workload=workload.name, scheme=label,
                                backend=resolve_backend(backend))
    finally:
        if sink is not None:
            sink.close()
