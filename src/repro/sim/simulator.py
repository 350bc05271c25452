"""The top-level simulator: core + hierarchy + prefetcher over one trace."""

from repro.cpu.core import Core
from repro.mem.hierarchy import Hierarchy
from repro.sim.stats import SimStats


class Simulator:
    """Owns the simulated machine for one run.

    ``reference=True`` builds the hierarchy with its hot-path shortcuts
    disabled, so the run exercises the unoptimized code paths; the
    differential tests compare its statistics byte-for-byte against a
    default-configuration run.
    """

    def __init__(self, config, space, prefetcher=None, mode="real",
                 hint_table=None, trace_sink=None, reference=False):
        self.config = config
        self.space = space
        self.hierarchy = Hierarchy(config, space, prefetcher, mode,
                                   trace_sink=trace_sink, reference=reference)
        self.core = Core(config, self.hierarchy, hint_table)

    def run(self, events, workload="?", scheme="?", limit_refs=None):
        """Execute a trace event stream; return the run's :class:`SimStats`."""
        self.core.execute(events, limit_refs=limit_refs)
        self.hierarchy.finish(self.core.cycles)
        return SimStats(workload, scheme, self.core, self.hierarchy)

    def run_compiled(self, trace, workload="?", scheme="?", limit_refs=None,
                     backend="fused"):
        """Execute a :class:`~repro.trace.compiled.CompiledTrace`.

        Issues the identical machine behavior :meth:`run` would over the
        trace's event stream, through the fused loop
        (:meth:`~repro.cpu.core.Core.execute_compiled`).  ``backend``
        must be ``"fused"``, the one single-core fast loop; spec-level
        aliases resolve to it in :func:`repro.sim.runner.resolve_backend`.
        """
        if backend != "fused":
            raise ValueError(
                "unknown replay backend %r (have: fused)" % (backend,))
        self.core.execute_compiled(trace, limit_refs=limit_refs)
        self.hierarchy.finish(self.core.cycles)
        return SimStats(workload, scheme, self.core, self.hierarchy)
