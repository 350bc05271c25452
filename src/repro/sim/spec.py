"""RunSpec: a frozen, hashable, serializable description of one run.

A :class:`RunSpec` captures everything that determines a simulation's
outcome — workload, scheme, mode, compiler policy, machine configuration,
scale, seed, and trace length — as plain data.  Because it is immutable
and hashable it serves as a dictionary key (the in-memory memo in
:class:`~repro.experiments.common.ExperimentContext`), and because it
round-trips through :meth:`to_dict`/:meth:`from_dict` it crosses process
boundaries (the :mod:`repro.sim.batch` worker pool) and disk boundaries
(the :mod:`repro.sim.cache` persistent cache, which keys entries by
:meth:`digest`).

The machine configuration travels inside the spec as a canonical JSON
string (``config_json``) so the spec itself stays hashable; use
:meth:`machine_config` to rebuild the :class:`MachineConfig`.
"""

import hashlib
import json
from dataclasses import dataclass, field

from repro.compiler.passes.spatial import POLICIES
from repro.mem.dram import DRAMConfig
from repro.sim.config import MachineConfig
from repro.workloads.base import get_workload

#: Every MachineConfig scalar parameter, in declaration order.  ``dram``
#: is handled separately (it is itself a parameter object).
MACHINE_FIELDS = (
    "l1_size", "l1_assoc", "l1_latency",
    "l2_size", "l2_assoc", "l2_latency",
    "block_size", "mshr_entries", "region_size",
    "prefetch_queue_size", "prefetch_queue_policy",
    "recursive_depth", "pointer_blocks",
    "issue_width", "window_size", "prefetch_insert",
    "adapt_epoch_accesses",
    "tlb_entries", "tlb_assoc", "tlb_page_size", "tlb_miss_latency",
)

DRAM_FIELDS = (
    "channels", "banks_per_channel", "row_size",
    "row_hit_latency", "row_miss_latency", "transfer_cycles",
    "block_size",
)


def config_to_dict(config):
    """Flatten a :class:`MachineConfig` (and its DRAMConfig) to plain data."""
    out = {name: getattr(config, name) for name in MACHINE_FIELDS}
    out["dram"] = {name: getattr(config.dram, name) for name in DRAM_FIELDS}
    return out


def config_from_dict(data):
    """Rebuild a :class:`MachineConfig` from :func:`config_to_dict` output."""
    params = dict(data)
    dram = params.pop("dram", None)
    if dram is not None:
        params["dram"] = DRAMConfig(**dram)
    return MachineConfig(**params)


def _canonical_json(data):
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


#: Hierarchy modes a spec may name (``perfect_l1``/``perfect_l2`` are
#: the paper's idealized-cache ablations).
MODES = ("real", "perfect_l1", "perfect_l2")

#: Replay-backend names a spec may carry.  Every one runs the fused
#: loop (:func:`repro.sim.runner.resolve_backend`): ``"vectorized"``
#: named a batch-replay backend that has since been deleted, and stays
#: valid so that existing specs keep their digests.  The backend
#: participates in :meth:`RunSpec.to_dict` and therefore in
#: :meth:`RunSpec.digest`, so cache entries written under different
#: names never alias one another.
BACKENDS = ("auto", "fused", "vectorized")

#: Replay-backend names a *co-run* spec may carry.  The multi-core loop
#: has its own backend pair — ``"stepped"`` is the per-event reference
#: arbiter, ``"fused"`` the skip-ahead scheduler built on the compiled
#: fast path — and ``"auto"`` defers to the runner (fused).  Like the
#: single-core field, the choice rides in :meth:`CoRunSpec.to_dict` and
#: therefore in the digest, so pinned backends never alias in the
#: persistent cache.
CORUN_BACKENDS = ("auto", "stepped", "fused")


@dataclass(frozen=True)
class RunSpec:
    """One (workload, scheme, mode, policy, config, …) simulation cell."""

    workload: str
    scheme: str
    mode: str = "real"
    policy: str = "default"
    limit_refs: int = None
    scale: float = 1.0
    seed: int = 12345
    backend: str = "auto"
    config_json: str = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, workload, scheme, config=None, mode="real",
               policy="default", limit_refs=None, scale=1.0, seed=12345,
               backend="auto"):
        """Validate arguments and build a canonical spec.

        ``workload`` must be a registered workload name.  The compiler
        ``policy`` only influences hinted schemes (the hint table is the
        only compiler output a run consumes), so it is canonicalized to
        ``"default"`` for unhinted schemes — all policies then share one
        baseline run and one cache entry.
        """
        from repro.sim.runner import SCHEMES  # late: runner imports us

        get_workload(workload)  # raises KeyError for unknown names
        try:
            scheme_spec = SCHEMES[scheme]
        except KeyError:
            raise KeyError(
                "unknown scheme %r (have: %s)" % (scheme, ", ".join(SCHEMES))
            )
        if not scheme_spec.hinted:
            policy = "default"
        if backend not in BACKENDS:
            raise ValueError(
                "unknown backend %r (have: %s)"
                % (backend, ", ".join(BACKENDS)))
        config = config or MachineConfig.scaled()
        return cls(
            workload=workload,
            scheme=scheme,
            mode=mode,
            policy=policy,
            limit_refs=limit_refs,
            scale=scale,
            seed=seed,
            backend=backend,
            config_json=_canonical_json(config_to_dict(config)),
        )

    # ------------------------------------------------------------------
    def machine_config(self):
        """Rebuild the :class:`MachineConfig` this spec describes."""
        if self.config_json is None:
            return MachineConfig.scaled()
        return config_from_dict(json.loads(self.config_json))

    def to_dict(self):
        """Plain-data form (config expanded to a nested dict)."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "mode": self.mode,
            "policy": self.policy,
            "limit_refs": self.limit_refs,
            "scale": self.scale,
            "seed": self.seed,
            "backend": self.backend,
            "config": (json.loads(self.config_json)
                       if self.config_json is not None else None),
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`.

        Strict about the backend field: a payload naming a backend this
        build does not know describes a run it cannot reproduce, so it is
        an error rather than a silent fallback.  A payload with no
        backend field (pre-backend producers) means ``"auto"``.
        """
        config = data.get("config")
        backend = data.get("backend", "auto")
        if backend not in BACKENDS:
            raise ValueError(
                "unknown backend %r in spec payload (have: %s)"
                % (backend, ", ".join(BACKENDS)))
        return cls(
            workload=data["workload"],
            scheme=data["scheme"],
            mode=data.get("mode", "real"),
            policy=data.get("policy", "default"),
            limit_refs=data.get("limit_refs"),
            scale=data.get("scale", 1.0),
            seed=data.get("seed", 12345),
            backend=backend,
            config_json=(_canonical_json(config)
                         if config is not None else None),
        )

    def digest(self, salt=""):
        """Content hash of the spec (plus an optional salt, e.g. a
        package version) — the persistent cache's key."""
        payload = _canonical_json(self.to_dict()) + salt
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self):
        """Short human-readable name (progress lines, log messages)."""
        parts = [self.workload, self.scheme]
        if self.mode != "real":
            parts.append(self.mode)
        if self.policy != "default":
            parts.append(self.policy)
        return "/".join(parts)


@dataclass(frozen=True)
class CoRunSpec:
    """A multi-core co-run: N :class:`RunSpec` cells sharing one memory
    system.

    Cell ``i`` describes what core ``i`` replays (workload, scheme,
    policy, trace limit).  The shared L2/MSHR/DRAM geometry is taken from
    cell 0's machine configuration; :meth:`create` requires every cell to
    agree on it, so a co-run is unambiguous.  Frozen and hashable like
    :class:`RunSpec` — it drops into the experiment memo, the batch pool,
    the persistent cache, and the sweep supervisor unchanged.  The
    serialized form carries a ``"corun"`` marker so one payload field
    dispatches both spec kinds.
    """

    cells: tuple
    backend: str = "auto"

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, workloads, scheme="none", config=None, mode="real",
               policy="default", limit_refs=None, scale=1.0, seed=12345,
               backend="auto"):
        """Build a co-run over ``workloads`` (a sequence of names).

        ``scheme`` is either one name applied to every core or a sequence
        of per-core names (same length as ``workloads``).  The remaining
        parameters are applied to every cell.  ``backend`` selects the
        multi-core replay loop (see :data:`CORUN_BACKENDS`).
        """
        workloads = tuple(workloads)
        if not workloads:
            raise ValueError("a co-run needs at least one workload")
        if isinstance(scheme, str):
            schemes = (scheme,) * len(workloads)
        else:
            schemes = tuple(scheme)
            if len(schemes) != len(workloads):
                raise ValueError(
                    "%d schemes for %d workloads"
                    % (len(schemes), len(workloads)))
        cells = tuple(
            RunSpec.create(
                workload, s, config=config, mode=mode, policy=policy,
                limit_refs=limit_refs, scale=scale, seed=seed)
            for workload, s in zip(workloads, schemes)
        )
        return cls(cells=cells, backend=backend)

    def __post_init__(self):
        if not isinstance(self.cells, tuple) or not self.cells:
            raise ValueError("CoRunSpec.cells must be a non-empty tuple")
        if self.backend not in CORUN_BACKENDS:
            raise ValueError(
                "unknown co-run backend %r (have: %s)"
                % (self.backend, ", ".join(CORUN_BACKENDS)))
        first = self.cells[0]
        for cell in self.cells[1:]:
            if cell.config_json != first.config_json:
                raise ValueError(
                    "co-run cells disagree on the machine configuration")
            if cell.mode != first.mode:
                raise ValueError("co-run cells disagree on the mode")

    # ------------------------------------------------------------------
    @property
    def n_cores(self):
        """Number of cores (= cells) in the co-run."""
        return len(self.cells)

    @property
    def workload(self):
        """Combined workload label, e.g. ``"mcf+swim"``."""
        return "+".join(cell.workload for cell in self.cells)

    @property
    def scheme(self):
        """The shared scheme name, or the per-core join when they differ."""
        schemes = [cell.scheme for cell in self.cells]
        if all(s == schemes[0] for s in schemes):
            return schemes[0]
        return "+".join(schemes)

    @property
    def mode(self):
        """The cells' (shared) hierarchy mode."""
        return self.cells[0].mode

    def machine_config(self):
        """The shared :class:`MachineConfig` (cell 0's; all cells agree)."""
        return self.cells[0].machine_config()

    # ------------------------------------------------------------------
    def to_dict(self):
        """Plain-data form, tagged with the ``"corun"`` marker."""
        return {
            "corun": True,
            "backend": self.backend,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`.

        Strict about the backend field, like :meth:`RunSpec.from_dict`:
        an unknown name describes a run this build cannot reproduce.  A
        payload with no backend field (pre-backend producers) means
        ``"auto"``.
        """
        backend = data.get("backend", "auto")
        if backend not in CORUN_BACKENDS:
            raise ValueError(
                "unknown co-run backend %r in spec payload (have: %s)"
                % (backend, ", ".join(CORUN_BACKENDS)))
        return cls(cells=tuple(
            RunSpec.from_dict(cell) for cell in data["cells"]),
            backend=backend)

    def digest(self, salt=""):
        """Content hash (the persistent cache's key), as in RunSpec."""
        payload = _canonical_json(self.to_dict()) + salt
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self):
        """Short human-readable name (progress lines, log messages)."""
        parts = [self.workload, self.scheme]
        if self.mode != "real":
            parts.append(self.mode)
        return "/".join(parts)


# ----------------------------------------------------------------------
# Payload dispatch + strict validation (the repro.serve request path)
# ----------------------------------------------------------------------

#: Keys a serialized RunSpec payload may carry (``RunSpec.to_dict``).
RUNSPEC_KEYS = frozenset((
    "workload", "scheme", "mode", "policy", "limit_refs", "scale",
    "seed", "backend", "config",
))

#: Keys a serialized CoRunSpec payload may carry (``CoRunSpec.to_dict``).
CORUNSPEC_KEYS = frozenset(("corun", "backend", "cells"))


def _require(condition, message, *args):
    """Raise ValueError(message % args) unless ``condition`` holds."""
    if not condition:
        raise ValueError(message % args if args else message)


def _validate_run_payload(data):
    """Reject a malformed serialized RunSpec with a precise ValueError.

    Everything ``RunSpec.from_dict`` tolerates silently — unknown keys,
    unregistered workload/scheme names, wrong field types, an
    unconstructible machine config — is an error here, because a network
    client's typo must surface as a 400 with a reason, not as a worker
    crash (or a silently-default field) minutes later.
    """
    from repro.sim.runner import SCHEMES  # late: runner imports us

    _require(isinstance(data, dict), "spec payload must be an object, "
             "not %s", type(data).__name__)
    unknown = set(data) - RUNSPEC_KEYS
    _require(not unknown, "unknown spec field(s): %s",
             ", ".join(sorted(unknown)))
    _require("workload" in data and "scheme" in data,
             "spec payload needs 'workload' and 'scheme'")
    workload = data["workload"]
    _require(isinstance(workload, str), "'workload' must be a string")
    try:
        get_workload(workload)
    except KeyError:
        raise ValueError("unknown workload %r" % (workload,))
    scheme = data["scheme"]
    _require(isinstance(scheme, str), "'scheme' must be a string")
    _require(scheme in SCHEMES, "unknown scheme %r (have: %s)",
             scheme, ", ".join(sorted(SCHEMES)))
    mode = data.get("mode", "real")
    _require(mode in MODES, "unknown mode %r (have: %s)",
             mode, ", ".join(MODES))
    policy = data.get("policy", "default")
    _require(isinstance(policy, str), "'policy' must be a string")
    _require(policy in POLICIES, "unknown compiler policy %r (have: %s)",
             policy, ", ".join(POLICIES))
    limit = data.get("limit_refs")
    _require(limit is None or (isinstance(limit, int)
                               and not isinstance(limit, bool)
                               and limit > 0),
             "'limit_refs' must be a positive integer or null")
    scale = data.get("scale", 1.0)
    _require(isinstance(scale, (int, float)) and not isinstance(scale, bool)
             and scale > 0, "'scale' must be a positive number")
    seed = data.get("seed", 12345)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "'seed' must be an integer")
    backend = data.get("backend", "auto")
    _require(backend in BACKENDS, "unknown backend %r (have: %s)",
             backend, ", ".join(BACKENDS))
    config = data.get("config")
    if config is not None:
        _require(isinstance(config, dict), "'config' must be an object")
        try:
            config_from_dict(config)
        except (TypeError, ValueError) as exc:
            raise ValueError("bad machine config: %s" % exc)


def _validate_corun_payload(data):
    """Reject a malformed serialized CoRunSpec with a precise ValueError.

    Validates the envelope, then every cell with
    :func:`_validate_run_payload`; the cross-cell invariants (shared
    config, shared mode) are re-checked by ``CoRunSpec.__post_init__``
    during construction.
    """
    unknown = set(data) - CORUNSPEC_KEYS
    _require(not unknown, "unknown co-run field(s): %s",
             ", ".join(sorted(unknown)))
    backend = data.get("backend", "auto")
    _require(backend in CORUN_BACKENDS,
             "unknown co-run backend %r (have: %s)",
             backend, ", ".join(CORUN_BACKENDS))
    cells = data.get("cells")
    _require(isinstance(cells, list) and cells,
             "'cells' must be a non-empty list of spec objects")
    for i, cell in enumerate(cells):
        try:
            _validate_run_payload(cell)
        except ValueError as exc:
            raise ValueError("cell %d: %s" % (i, exc))


def spec_from_dict(data, strict=False):
    """Rehydrate a serialized spec of either kind.

    Dispatches on the ``"corun"`` marker :meth:`CoRunSpec.to_dict`
    plants: a payload carrying it becomes a :class:`CoRunSpec`,
    everything else a :class:`RunSpec`.  With ``strict=True`` the
    payload is validated field by field first — unknown keys,
    unregistered names, and type errors all raise ``ValueError`` with a
    human-readable reason.  This is the deserializer behind ``POST
    /runs`` in :mod:`repro.serve`: strict mode is what turns a
    malformed request body into a 400 instead of a worker-side crash.
    """
    _require(isinstance(data, dict), "spec payload must be an object, "
             "not %s", type(data).__name__)
    if data.get("corun"):
        if strict:
            _validate_corun_payload(data)
        return CoRunSpec.from_dict(data)
    if strict:
        _validate_run_payload(data)
    return RunSpec.from_dict(data)
