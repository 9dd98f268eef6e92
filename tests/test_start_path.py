"""Pin what a process of this program loads before it does any work.

Every ``repro`` verb, every spawned ``--jobs N`` pool worker (it
unpickles its task from ``repro.analysis.sweep``) and the daemon pay
these imports before the first packet moves, so none of them may load
numpy, and the CLI may load neither the process-pool machinery, the
HTTP service, the fuzzer nor any CCA or path element until a verb
needs them (docs/ARCHITECTURE.md, "The start path"). Each case is one
fresh interpreter; keep the file to these three launches.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

THEORY = ["numpy", "repro.model", "repro.core.convergence"]

#: Every CCA module: the registry imports one when a run names it.
CCAS = sorted(f"repro.ccas.{name[:-3]}" for name in os.listdir(
    os.path.join(SRC, "repro", "ccas"))
    if name.endswith(".py") and name not in ("__init__.py", "base.py",
                                             "registry.py"))

#: What a verb compiles only when it runs it: the CCAs, the catalog's
#: jitter / loss / fault elements, the competition matrix, crash
#: bundles, and the pool's pickle check.
UNRUN = CCAS + ["repro.sim.faults", "repro.sim.jitter", "repro.sim.loss",
                "repro.analysis.competition", "repro.analysis.diagnostics",
                "pickle"]


def loaded_after(statements, names):
    """Which of ``names`` a fresh interpreter holds after ``statements``."""
    code = (f"{statements}\nimport json, sys\n"
            f"print(json.dumps([m for m in {names!r} if m in sys.modules]))")
    env = {**os.environ,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


@pytest.mark.parametrize("statements, names", [
    ("import repro.cli",
     THEORY + UNRUN + ["multiprocessing", "concurrent.futures",
                       "repro.service", "http.server", "repro.fuzz"]),
    # What a spawned pool worker imports to unpickle its task; the
    # names EXPERIMENTS.md teaches come from the same import.
    ("import repro.analysis.sweep\n"
     "from repro.analysis import RunBudget, sweep_rate_delay", THEORY),
    ("import repro.service", THEORY),
])
def test_start_path_loads_no_theory_or_pool_code(statements, names):
    assert loaded_after(statements, names) == []
