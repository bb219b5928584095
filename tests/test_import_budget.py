"""A process imports only the modules its configuration executes.

Each rank of a parallel run is one process, so every module a solver
imports without running it is paid once per rank.  A fresh interpreter
builds and steps the two step paths no workload leaves (a real-fluid
serial solver, an ideal-gas two-rank driver-stepped solver) and must
not have loaded the training stack, the modeled runtime and its
load-balance metrics, the I/O layer, the unused solvers, sparse formats
and the renumbering (nor scipy's graph library it runs on), the threaded
matrix construction or scipy's dense and sparse linear algebra.  The hybrid
chemistry is the positive control: it does load the inference engine,
and still not the training stack (a trained artifact is only evaluated).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules no plain serial or decomposed step executes
NOT_LOADED = ("scipy.linalg", "scipy.sparse.linalg", "repro.dnn",
              "repro.io", "repro.runtime.perf_model",
              "repro.runtime.machine", "repro.runtime.scaling",
              "repro.runtime.load_balance", "repro.solvers.gamg",
              "repro.sparse.gauss_seidel", "repro.sparse.block_csr",
              "repro.sparse.convert", "repro.mesh.renumber",
              "repro.fv.construction", "scipy.sparse.csgraph")

_SCRIPT = f"""
import json, sys
from repro.core.cases import build_tgv_case
from repro.core.properties import IdealGasProperties
from repro.core.settings import SolverSettings, build_chemistry, build_solver

serial = build_solver(build_tgv_case(n=6), SolverSettings())
serial.step(1e-8)
case = build_tgv_case(n=6)
ranks = build_solver(case, SolverSettings(ranks=2),
                     properties=IdealGasProperties(case.mech))
ranks.step(1e-6)
stepped = [m for m in {NOT_LOADED!r} if m in sys.modules]
build_chemistry(SolverSettings(chemistry="hybrid-trained"), case.mech)
print(json.dumps({{"stepped": stepped,
                  "hybrid": "repro.dnn.inference" in sys.modules,
                  "training": "repro.dnn.training" in sys.modules}}))
"""


def _loaded() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_a_step_loads_only_what_it_runs():
    loaded = _loaded()
    assert loaded["stepped"] == []
    assert loaded["hybrid"]
    assert not loaded["training"]
