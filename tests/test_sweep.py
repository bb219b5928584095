"""A parameter sweep is a loop over ``build_solver``: one case and one
property evaluator serve every run, each run overlays one settings
field on a base, and every run steps bitwise as the same settings
built alone.  Also drives ``examples/quickstart.py --sweep``."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core.cases import build_hotspot_tgv_case, build_tgv_case
from repro.core.deepflame import FIELDS
from repro.core.properties import DirectRealFluidProperties
from repro.core.settings import SolverSettings, build_solver

ROOT = Path(__file__).resolve().parents[1]
DT = 1e-8
STEPS = 2

#: one sweep per SolverSettings field: (base overrides, overlay key,
#: values); chemistry sweeps run on the hot spot so the backend works
SWEEPS = {
    "chemistry": ({}, "chemistry", ["none", "direct"]),
    "chemistry_options": ({"chemistry": "hybrid-trained"},
                          "chemistry_options.audit_fraction", [0.0, 0.2]),
    "trust_gate": ({"chemistry": "hybrid-trained"}, "trust_gate",
                   ["domain", "domain+audit"]),
    "n_correctors": ({}, "n_correctors", [1, 3]),
    "solve_momentum": ({}, "solve_momentum", [True, False]),
    "scalar_controls": ({}, "scalar_controls.tolerance",
                        [1e-6, 1e-9, 1e-12]),
    "pressure_controls": ({}, "pressure_controls.tolerance", [1e-6, 1e-10]),
    "ranks": ({}, "ranks", [0, 2, 3]),
    "partition_seed": ({"ranks": 2}, "partition_seed", [0, 1]),
    "execution": ({"ranks": 2}, "execution", ["serial", "parallel"]),
}


def test_every_field_has_a_sweep():
    assert sorted(SWEEPS) == sorted(f.name for f in fields(SolverSettings))


def _case(field, mech):
    if field in ("chemistry", "chemistry_options", "trust_gate"):
        return build_hotspot_tgv_case(n=6, t_hot=2000.0, mech=mech)
    return build_tgv_case(n=6, mech=mech)


def _close(solver):
    if solver.settings.is_decomposed:
        solver.close()


@pytest.mark.parametrize("field", list(SWEEPS))
def test_each_run_equals_its_standalone_solver(mech, field):
    """The runs step in lockstep over one shared case and one shared
    real-fluid evaluator (whose composition memo sees every run's Y in
    turn), and each run's fields equal a solver built alone from a
    fresh case and evaluator, bit for bit."""
    overrides, key, values = SWEEPS[field]
    base = SolverSettings(**overrides)
    case = _case(field, mech)
    props = DirectRealFluidProperties(case.mech)
    runs = [build_solver(case, base.overlay(**{key: v}), properties=props)
            for v in values]
    try:
        for _ in range(STEPS):
            for run in runs:
                run.step(DT)
        for run in runs:
            alone = build_solver(_case(field, mech), run.settings)
            try:
                alone.run(STEPS, DT)
                for name in FIELDS:
                    np.testing.assert_array_equal(
                        run.gather(name), alone.gather(name),
                        err_msg=f"{key}: {name}")
            finally:
                _close(alone)
    finally:
        for run in runs:
            _close(run)


def _quickstart_sweep(sweep: str, *flags: str) -> list[str]:
    """The run lines ``examples/quickstart.py --sweep`` prints, one per
    swept value."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "quickstart.py"), *flags,
         "--sweep", sweep, "--steps", "1", "--n", "4"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    key, _, raw = sweep.partition("=")
    lines = [ln for ln in out.stdout.splitlines()
             if ln.strip().startswith(f"{key}=")]
    assert len(lines) == len(raw.split(","))
    return lines


@pytest.mark.parametrize("sweep", ["scalar_controls.tolerance=1e-6,1e-9",
                                   "ranks=1,2"])
def test_quickstart_sweep_prints_each_run(sweep):
    """``examples/quickstart.py --sweep`` runs the loop and prints one
    diagnostics line per value."""
    lines = _quickstart_sweep(sweep)
    assert all("iters" in ln for ln in lines)


@pytest.mark.parametrize("flags, sweep, tags", [
    (("--chemistry", "hybrid-trained", "--trust-gate", "domain"),
     "n_correctors=1,2", ["(hybrid-trained, gate domain, ranks 0 serial)"] * 2),
    (("--ranks", "2"), "execution=serial,parallel",
     ["(none, gate domain+audit, ranks 2 serial)",
      "(none, gate domain+audit, ranks 2 parallel)"]),
], ids=["chemistry+gate", "ranks"])
def test_quickstart_sweep_keeps_the_other_flags(flags, sweep, tags):
    """The swept base is the settings the other flags select:
    ``--chemistry`` / ``--trust-gate`` reach every run, and ``--ranks
    2`` lets a sweep over ``execution`` build its parallel run."""
    lines = _quickstart_sweep(sweep, *flags)
    for line, tag in zip(lines, tags, strict=True):
        assert tag in line and "iters" in line, line
