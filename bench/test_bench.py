"""Smoke tests of the benchmark itself (not tier-1: ``pytest bench -q``).

Every workload runs once per mode with ``--windows 1``; the tests pin
the contract's output schema, that every count metric repeats exactly
across two runs of one seed, and that tracing leaves no wrapper behind.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:       # plain `pytest bench` has no cwd on path
    sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: metrics that count operations or bytes: exact across runs of a seed
EXACT_UNITS = ("count", "B")


def _contract(name: str, trace: int) -> dict:
    proc = subprocess.run(
        SPEC["command"] + ["--workload", name, "--seed", "0", "--seconds", "1",
                           "--windows", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(res: dict, metrics: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names)) and all(map(NAME.match, names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_contract(name):
    res = _contract(name, trace=0)
    _check_result(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_layer_contract_and_counts_repeat(name):
    first, second = _contract(name, trace=1), _contract(name, trace=1)
    _check_result(first, SPEC["per_layer"])
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert {"solvers.iterations", "runtime.messages", "runtime.allreduces",
            "chemistry.rhs_evals", "thermo.newton_sweeps"} <= set(exact)
    for metric in exact:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["attempted"] == second["attempted"]


@pytest.mark.parametrize("name", ["hotspot_hybrid", "hotspot_direct"])
def test_tracing_restores_every_wrapped_object(name):
    bench_run.bootstrap()
    from bench.measure import Session
    from bench.tracer import Tracer
    from repro.core.deepflame import DeepFlameSolver
    from repro.fv.operators import FVMatrix
    from repro.fv.workspace import EquationWorkspace
    from repro.solvers.preconditioners import JacobiPreconditioner
    from repro.sparse.ldu import LDUMatrix

    sess = Session(name, seed=0)
    sess.setup()
    solver = sess.solver
    watched = [solver, solver.properties, solver.properties.rf,
               solver.properties.rf.eos, solver.chemistry]
    if name == "hotspot_hybrid":
        watched.append(solver.chemistry.backend.surrogate)
    before = [dict(vars(obj)) for obj in watched]
    class_attrs = [(DeepFlameSolver, "step"), (FVMatrix, "solve"),
                   (EquationWorkspace, "transport"), (LDUMatrix, "to_csr"),
                   (JacobiPreconditioner, "apply_multi")]
    originals = [vars(cls)[attr] for cls, attr in class_attrs]

    tracer = Tracer()
    untraced = sess.window()
    traced = sess.window(tracer=tracer)

    assert len(tracer.spans) > 50 and tracer.counts["solvers.iterations"] > 0
    for obj, was in zip(watched, before):
        assert set(vars(obj)) == set(was)       # no wrapper left behind
    assert "step" not in vars(solver)
    for (cls, attr), orig in zip(class_attrs, originals):
        assert vars(cls)[attr] is orig
    if name == "hotspot_direct":    # the hybrid's audit sample moves on
        # tracing did not change what the program computed
        assert all((traced.fields[k] == untraced.fields[k]).all()
                   for k in ("y", "h", "p", "u"))
