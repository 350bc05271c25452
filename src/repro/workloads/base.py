"""Workload protocol and registry.

A workload stands in for one of the paper's benchmarks.  Building it
materializes its data structures into a fresh :class:`AddressSpace`
(allocating arrays, linking lists/trees, storing pointer and index values
into the word content store) and returns the IR program plus the initial
pointer bindings the interpreter needs.

Workloads are written to match the paper's per-benchmark characterization:
the hint mix of Table 3, the miss causes of Table 6, and the
integer/floating-point split of Figures 10/11.
"""

_REGISTRY = {}


def register(cls):
    """Class decorator adding a workload to the global registry."""
    if cls.name in _REGISTRY:
        raise ValueError("duplicate workload name %r" % cls.name)
    _REGISTRY[cls.name] = cls
    return cls


def get_workload(name):
    """Instantiate the registered workload called ``name``."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            "unknown workload %r (have: %s)"
            % (name, ", ".join(sorted(_REGISTRY)))
        )


def workload_names():
    """All registered workload names, in registration order."""
    return list(_REGISTRY)


class Built:
    """The result of building a workload into an address space."""

    def __init__(self, program, pointer_bindings=None):
        self.program = program
        #: {pointer name: initial address} for the interpreter.
        self.pointer_bindings = dict(pointer_bindings or {})


class Workload:
    """Base class for benchmark workloads.

    :meth:`build` must be deterministic in ``(space base, scale)``: seed
    any RNG it uses.  One build serves every run of its workload in a
    process (``runner._BUILD_CACHE``), so the samplers it hands to
    ``Runtime``/``Opaque`` subscripts and ``PtrSelect`` choosers may read
    ``env`` and draw from ``rng``, but keep nothing across
    interpretations.  A value meant to stay constant over an inner loop
    is drawn on that loop's first trip (``env["i"] == 0``) and reused for
    the rest of it, never memoized by key: a memo filled by one run would
    skip the draws of the next, and shift every later draw of a longer
    run.
    """

    #: Benchmark name (e.g. "swim", matching the paper's tables).
    name = None
    #: "int" or "fp" — which of Figures 10/11 the benchmark appears in.
    category = "int"
    #: Source language the original benchmark was written in; Fortran
    #: codes have no pointer hints, as in Table 3.
    language = "c"
    #: Default trace length (memory references) for experiments.
    default_refs = 120_000
    #: Multiplier applied to every Compute() op count at trace time.
    #: Calibrated per benchmark so the baseline gap versus a perfect L2
    #: lands near the paper's Figure 1 (see EXPERIMENTS.md).
    ops_scale = 1.0

    def build(self, space, scale=1.0):
        """Materialize data structures; return a :class:`Built`."""
        raise NotImplementedError

    def __repr__(self):
        return "<workload %s (%s, %s)>" % (
            self.name, self.category, self.language,
        )
