"""Shared benchmark fixtures and result-table helpers.

Every bench prints a paper-style table AND appends it to
``benchmarks/results/summary.txt`` so the regenerated rows survive
pytest's output capture.
"""

from __future__ import annotations

import os
from pathlib import Path

# One BLAS thread, set before numpy loads (as ``bench/run.py`` does): the
# ratio gates price small-batch kernels, and an unpinned OpenBLAS on a
# shared host spreads e.g. the trained-hybrid speedup from 9x to 36x.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="shrink benchmark problem sizes for quick CI smoke runs",
    )
    parser.addoption(
        "--executed", action="store_true", default=False,
        help="also run the executed (domain-decomposed, in-process) "
             "communication benches next to the analytic models",
    )
    parser.addoption(
        "--parallel", action="store_true", default=False,
        help="also run the shared-memory parallel-execution benches "
             "(real worker processes; pair with --executed)",
    )


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    """True when the run was launched with ``--smoke``."""
    return bool(request.config.getoption("--smoke"))


@pytest.fixture(scope="session")
def executed(request) -> bool:
    """True when the run was launched with ``--executed``."""
    return bool(request.config.getoption("--executed"))


@pytest.fixture(scope="session")
def parallel(request) -> bool:
    """True when the run was launched with ``--parallel``."""
    return bool(request.config.getoption("--parallel"))


def emit(title: str, lines: list[str], dtype: str = "fp64") -> None:
    """Print a result table and persist it under benchmarks/results/.

    Every block records the dtype it was measured in, so regenerated
    ``summary.txt`` rows from different precisions stay
    distinguishable.
    """
    block = "\n".join([f"== {title} [dtype={dtype}] ==", *lines, ""])
    print("\n" + block)
    with open(RESULTS_DIR / "summary.txt", "a") as f:
        f.write(block + "\n")


@pytest.fixture(scope="session")
def mech():
    from repro.chemistry.mechanism import load_mechanism

    return load_mechanism()


@pytest.fixture(scope="session")
def flame_manifold(mech):
    """The Fig.-10-style 1-D profile: mixing line with a hot reacting
    core, plus matched training data for the surrogate."""
    from repro.chemistry.reactor import mixture_line

    n = 48
    pressure = 10e6
    t_mix, y_mix = mixture_line(mech, n, pressure)
    x = np.linspace(0.0, 1.0, n)
    # hot products core at x ~ 0.5 (diffusion-flame temperature peak)
    t_profile = t_mix + 3600.0 * np.exp(-((x - 0.5) / 0.16) ** 2)
    y = y_mix.copy()
    idx = mech.species_index
    burn = np.exp(-((x - 0.5) / 0.16) ** 2)
    for i in range(n):
        f, o = y[i, idx["CH4"]], y[i, idx["O2"]]
        wf = mech.molecular_weights[idx["CH4"]]
        wo = mech.molecular_weights[idx["O2"]]
        react = burn[i] * min(f / wf, o / (2 * wo))
        y[i, idx["CH4"]] -= react * wf
        y[i, idx["O2"]] -= 2 * react * wo
        y[i, idx["CO2"]] += react * mech.molecular_weights[idx["CO2"]]
        y[i, idx["H2O"]] += 2 * react * mech.molecular_weights[idx["H2O"]]
    y = np.clip(y, 0, None)
    y /= y.sum(axis=1, keepdims=True)
    return {"x": x, "T": t_profile, "Y": y, "p": pressure}


@pytest.fixture(scope="session")
def reference_advance(mech, flame_manifold):
    """Direct BDF advance of every profile state over one CFD step
    (the paper's 'Cantara' reference)."""
    from repro.chemistry.backends.percell import PerCellBDFBackend

    dt = 1e-6
    y_new, t_new, stats = PerCellBDFBackend(
        mech, rtol=1e-8, atol=1e-11).advance(
            flame_manifold["Y"], flame_manifold["T"], flame_manifold["p"], dt)
    return {"dt": dt, "T": t_new, "Y": y_new, "stats": stats}


@pytest.fixture(scope="session")
def trained_odenet(mech, flame_manifold, reference_advance):
    """ODENet trained on the flame-manifold neighbourhood (small
    architecture -- the accuracy experiment is architecture-insensitive
    at this scale; see DESIGN.md)."""
    from repro.chemistry.backends.percell import PerCellBDFBackend
    from repro.dnn.odenet import ODENet

    rng = np.random.default_rng(0)
    dt = reference_advance["dt"]
    base_t = flame_manifold["T"]
    base_y = flame_manifold["Y"]
    ts, ys = [base_t], [base_y]
    for _ in range(5):
        jitter_t = base_t * (1 + rng.normal(0, 0.02, base_t.shape))
        jitter_y = np.clip(base_y * (1 + rng.normal(0, 0.05, base_y.shape)),
                           0, None)
        jitter_y /= jitter_y.sum(axis=1, keepdims=True)
        ts.append(jitter_t)
        ys.append(jitter_y)
    t_all = np.concatenate(ts)
    y_all = np.concatenate(ys)
    y_adv, _, _ = PerCellBDFBackend(mech, rtol=1e-8, atol=1e-11).advance(
        y_all, t_all, flame_manifold["p"], dt)
    net = ODENet(mech, hidden=(96, 96), seed=0)
    net.fit(t_all, np.full(t_all.shape, flame_manifold["p"]), y_all,
            y_adv - y_all, dt=dt, epochs=400, lr=2e-3, batch_size=32)
    return net


@pytest.fixture(scope="session")
def trained_prnet(mech):
    from repro.dnn.prnet import PRNet
    from repro.thermo.real_fluid import RealFluidMixture

    rf = RealFluidMixture(mech)
    net = PRNet(mech, density_hidden=(64, 32), transport_hidden=(64, 32))
    net.fit_from_manifold(rf, 10e6, epochs=300)
    net._rf = rf
    return net
