"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  They share
one :class:`ExperimentContext`, so each (benchmark, scheme) simulation
runs exactly once per session no matter how many tables slice it.

The context shares the same persistent result cache as
``python -m repro.experiments``, so tables regenerate from disk instead
of re-simulating when the specs match.

Environment knobs:

``REPRO_BENCH_REFS``
    Memory references simulated per run (default 40000).  Larger values
    sharpen the numbers at proportional cost; ``benchmarks/results/``
    and the EXPERIMENTS.md results were recorded at the default 40000,
    with ``REPRO_BENCH_NO_CACHE`` set.
``REPRO_BENCH_JOBS``
    Parallel simulation processes (default 1; 0 = all cores).
``REPRO_CACHE_DIR``
    Result cache directory (default ``.repro-cache``).
``REPRO_BENCH_NO_CACHE``
    Set to disable the persistent cache entirely.
"""

import os
import pathlib

import pytest

from repro.experiments.common import ExperimentContext
from repro.sim.cache import ResultCache

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx():
    limit = int(os.environ.get("REPRO_BENCH_REFS", "40000"))
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache = (None if os.environ.get("REPRO_BENCH_NO_CACHE")
             else ResultCache())
    return ExperimentContext(limit_refs=limit, jobs=jobs, cache=cache)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir, name, rendered):
    """Write a rendered table both to disk and to the terminal."""
    path = results_dir / ("%s.txt" % name)
    path.write_text(rendered + "\n")
    print()
    print(rendered)
