"""repro — a full reproduction of Guided Region Prefetching (ISCA 2003).

Public API highlights:

* :class:`repro.sim.spec.RunSpec` / :func:`repro.sim.runner.execute` —
  describe any (benchmark, scheme) run as frozen data and execute it.
* :func:`repro.sim.runner.run_workload` — one-call convenience shim.
* :func:`repro.sim.batch.run_batch` — fan RunSpecs across cores.
* :class:`repro.sim.spec.CoRunSpec` /
  :func:`repro.sim.multicore.execute_corun` — multi-core co-runs over a
  shared L2/MSHR/DRAM with contention-aware per-core attribution.
* :class:`repro.sim.supervisor.SweepSupervisor` — resilient sweeps with
  checkpoint/resume, timeouts, retries, and a failure budget.
* :class:`repro.sim.cache.ResultCache` — persistent result cache.
* :class:`repro.sim.config.MachineConfig` — the simulated machine.
* :mod:`repro.compiler` — the hint-generating mini-compiler.
* :mod:`repro.prefetch` — GRP and every baseline engine.
* :mod:`repro.adapt` — feedback-directed adaptive prefetch control.
* :mod:`repro.workloads` — the 18 synthetic SPEC2000-like benchmarks.
* :mod:`repro.experiments` — regenerate every table and figure.
"""

from repro.sim.batch import run_batch
from repro.sim.cache import ResultCache
from repro.sim.config import MachineConfig
from repro.sim.faults import FaultPlan
from repro.sim.multicore import execute_corun
from repro.sim.runner import SCHEMES, execute, run_workload
from repro.sim.spec import CoRunSpec, RunSpec
from repro.sim.stats import (
    CoRunResult,
    RunFailure,
    RunResult,
    SimStats,
    result_from_dict,
)
from repro.sim.supervisor import SweepAborted, SweepSupervisor

# 1.6.0: a second replay backend (since deleted) + RunSpec.backend field + the
# little-endian trace format.  The bump salts ResultCache digests, so
# entries written by earlier builds (whose specs had no backend field)
# can never alias results produced under the new dispatch.
# 1.8.0: gaze/chase engines + the arena leaderboard.  The bump salts
# ResultCache digests so entries cached by pre-arena builds (which
# could not have simulated the new schemes, and whose scheme namespace
# was smaller) never alias results under the grown registry.
# 1.8.1: gaze end-of-generation fix (first-touch misses no longer
# spuriously recommit; same-PC region transitions commit the old
# generation).  Gaze results change, so cached 1.8.0 entries must not
# be served.
# 1.8.2: sphinx's and bzip2's samplers no longer memoize draws across
# interpretations of one cached build, so a run that followed a shorter
# run of the same build got a different trace than a fresh build gave.
# Fresh-build traces are unchanged; the bump keeps traces and results
# written by such history-dependent runs from being served.
__version__ = "1.8.2"

__all__ = [
    "CoRunResult", "CoRunSpec", "FaultPlan", "MachineConfig", "ResultCache",
    "RunFailure", "RunResult", "RunSpec", "SCHEMES", "SimStats",
    "SweepAborted", "SweepSupervisor", "execute", "execute_corun",
    "result_from_dict", "run_batch", "run_workload", "__version__",
]
