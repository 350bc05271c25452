"""The simulator is pure Python: no replay path may reach for numpy.

A child interpreter blocks numpy before anything else is imported, runs
an ``auto`` single-core spec (the fused loop) and a fused co-run,
and reports the canonical result bytes plus every attempt to import
numpy.  The bytes must equal the ones this process produces, and there
must be no attempts.  numpy is blocked only in the child: a ``None``
entry in this process's ``sys.modules`` would trip hypothesis, whose
entropy shim expects a real module under a name that is present.
"""

import json
import os
import subprocess
import sys

from repro.sim.multicore import execute_corun
from repro.sim.runner import execute
from repro.sim.spec import CoRunSpec, RunSpec
from repro.sim.stats import result_to_json

LIMIT = 600

CHILD = r'''
import builtins, json, sys
sys.modules["numpy"] = None  # any later "import numpy" raises ImportError
attempts = []
_import = builtins.__import__
def _recording_import(name, *args, **kwargs):
    if name == "numpy" or name.startswith("numpy."):
        attempts.append(name)
    return _import(name, *args, **kwargs)
builtins.__import__ = _recording_import

from repro.sim.multicore import execute_corun
from repro.sim.runner import execute
from repro.sim.spec import CoRunSpec, RunSpec
from repro.sim.stats import result_to_json

limit = int(sys.argv[1])
single = execute(RunSpec.create("mcf", "srp", limit_refs=limit))
corun = execute_corun(CoRunSpec.create(["mcf", "swim"], "srp",
                                       limit_refs=limit, backend="fused"),
                      solo_baseline=False)
print(json.dumps({
    "single": result_to_json(single),
    "corun": result_to_json(corun),
    "attempts": attempts,
}))
'''


def test_replay_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_TRACE_CACHE="off")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(LIMIT)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["attempts"] == []
    single = execute(RunSpec.create("mcf", "srp", limit_refs=LIMIT))
    corun = execute_corun(CoRunSpec.create(["mcf", "swim"], "srp",
                                           limit_refs=LIMIT,
                                           backend="fused"),
                          solo_baseline=False)
    assert child["single"] == result_to_json(single)
    assert child["corun"] == result_to_json(corun)
