"""Chemistry-backend throughput: cells/sec for every backend.

The paper's core performance story is the chemistry hot path: per-cell
stiff integration dominates reacting-flow wall time and is what the
DNN surrogate replaces.  This bench advances the *same* mixed batch
(cold mixing cells plus a thin hot flame front — the distribution that
produces the load imbalance of Sec. 2) through each backend and
reports cells/sec:

* ``percell``  — the per-cell BDF loop (CVODE-style baseline),
* ``direct``   — the vectorized Heun/RODAS3 batch integrator,
* ``surrogate``— batched ODENet inference,
* ``hybrid``   — temperature-split DNN + direct.

The per-cell baseline is timed on a stratified subsample (it would
take minutes at full batch size) and compared on cells/sec, which is
what the speedup criterion is defined over.  Accuracy gates: the
direct batch backend must agree with the per-cell reference within
integrator tolerance everywhere; surrogate and hybrid are checked on
the trained flame manifold.

Run:  pytest benchmarks/bench_chemistry_backends.py   (add --smoke
for the shrunken CI version)
"""

import numpy as np
import pytest

from repro.chemistry.backends.direct import DirectBatchBackend
from repro.chemistry.backends.hybrid import HybridBackend
from repro.chemistry.backends.percell import PerCellBDFBackend
from repro.chemistry.backends.surrogate import SurrogateBackend
from repro.chemistry.reactor import mixture_line
from repro.runtime.load_balance import chemistry_balance_report

from .conftest import emit

PRESSURE = 10e6
DT = 1e-7


@pytest.fixture(scope="module")
def mixed_batch(mech, smoke):
    """Mixing-line states with a thin hot flame front (~5 % of cells)."""
    n = 512 if smoke else 10_000
    t, y = mixture_line(mech, n, PRESSURE)
    x = np.linspace(0.0, 1.0, n)
    t = t + 2500.0 * np.exp(-(((x - 0.5) / 0.04) ** 2))
    return {"n": n, "T": t, "Y": y}


@pytest.fixture(scope="module")
def bench_odenet(request, mech, smoke, flame_manifold):
    """The trained surrogate: the full fixture normally, a quickly
    trained small net (labels from the batched direct backend) under
    --smoke."""
    if not smoke:
        return request.getfixturevalue("trained_odenet")
    from repro.dnn.odenet import ODENet

    rng = np.random.default_rng(0)
    dt = 1e-6
    base_t, base_y = flame_manifold["T"], flame_manifold["Y"]
    p = flame_manifold["p"]
    ts, ys = [base_t], [base_y]
    for _ in range(2):
        jt = base_t * (1 + rng.normal(0, 0.02, base_t.shape))
        jy = np.clip(base_y * (1 + rng.normal(0, 0.05, base_y.shape)), 0, None)
        jy /= jy.sum(axis=1, keepdims=True)
        ts.append(jt)
        ys.append(jy)
    t_all, y_all = np.concatenate(ts), np.concatenate(ys)
    y_adv, _, _ = DirectBatchBackend(mech).advance(y_all, t_all, p, dt)
    net = ODENet(mech, hidden=(64, 64), seed=0)
    net.fit(t_all, np.full(t_all.shape, p), y_all, y_adv - y_all, dt=dt,
            epochs=200, lr=2e-3, batch_size=32)
    return net


def test_direct_batch_speedup(mech, mixed_batch, smoke):
    """DirectBatchBackend must beat the per-cell loop >= 5x on
    cells/sec (>= 2x at smoke size, where fixed overheads weigh more)
    while agreeing within integrator tolerance."""
    n = mixed_batch["n"]
    t, y = mixed_batch["T"], mixed_batch["Y"]

    direct = DirectBatchBackend(mech)
    y_b, t_b, st_b = direct.advance(y, t, PRESSURE, DT)

    # Stratified subsample for the per-cell baseline (full batch would
    # take minutes); cells/sec is the comparison metric either way.
    stride = max(1, n // (64 if smoke else 190))
    sub = np.arange(0, n, stride)
    percell = PerCellBDFBackend(mech)
    y_p, t_p, st_p = percell.advance(y[sub], t[sub], PRESSURE, DT)

    speedup = st_b.cells_per_second / st_p.cells_per_second
    d_t = np.abs(t_b[sub] - t_p).max()
    d_y = np.abs(y_b[sub] - y_p).max()

    lines = [
        f"batch: {n} cells ({sub.size}-cell baseline subsample), "
        f"dt = {DT:.0e} s, p = {PRESSURE/1e6:.0f} MPa",
        "backend        cells/sec      wall [s]",
        f"  percell     {st_p.cells_per_second:10.1f} {st_p.wall_time:12.2f}",
        f"  direct      {st_b.cells_per_second:10.1f} {st_b.wall_time:12.2f}",
        f"speedup: {speedup:.1f}x   agreement: |dT| {d_t:.3g} K, "
        f"|dY| {d_y:.3g}",
        "sub-batches: " + ", ".join(
            f"{label}:{cells}" for label, cells, _ in st_b.sub_batches),
    ]
    emit("Chemistry backends: direct batch vs per-cell loop", lines)

    assert speedup >= (2.0 if smoke else 5.0)
    assert d_t < 1.0      # K; BDF reference is rtol 1e-6
    assert d_y < 5e-4


def test_all_backends_agree_on_manifold(mech, flame_manifold,
                                        reference_advance, bench_odenet,
                                        smoke):
    """Surrogate and hybrid track the per-cell reference on the
    trained manifold; direct tracks it everywhere."""
    flame = flame_manifold
    dt = reference_advance["dt"]
    t0, y0, p = flame["T"], flame["Y"], flame["p"]
    y_ref = reference_advance["Y"]

    surrogate = SurrogateBackend(bench_odenet)
    direct = DirectBatchBackend(mech)
    hybrid = HybridBackend(SurrogateBackend(bench_odenet),
                           DirectBatchBackend(mech),
                           t_window=(1000.0, 3500.0))

    rows = []
    results = {}
    for name, backend in [("direct", direct), ("surrogate", surrogate),
                          ("hybrid", hybrid)]:
        y_new, _, st = backend.advance(y0, t0, p, dt)
        err = np.abs(y_new - y_ref).max()
        results[name] = (err, st)
        rows.append(f"  {name:10s} max|dY| {err:9.2e}   "
                    f"cells/sec {st.cells_per_second:10.1f}")
    emit("Chemistry backends: agreement vs per-cell reference", rows)

    # Direct integration is tolerance-accurate; the surrogate carries
    # its training error (the paper's Fig. 10 regime); hybrid sits in
    # between because out-of-window cells are integrated directly.
    surrogate_tol = 0.2 if smoke else 0.05
    assert results["direct"][0] < 1e-3
    assert results["surrogate"][0] < surrogate_tol
    assert results["hybrid"][0] <= results["surrogate"][0] + 1e-9

    # Hybrid actually split the batch and accounted for the work.
    report = chemistry_balance_report(results["hybrid"][1])
    assert set(report["per_backend"]) == {"surrogate", "direct"}
    shares = [b["work_share"] for b in report["per_backend"].values()]
    assert abs(sum(shares) - 1.0) < 1e-9


def test_throughput_table(mech, mixed_batch, bench_odenet):
    """cells/sec for every backend on the same mixed batch."""
    t, y = mixed_batch["T"], mixed_batch["Y"]
    backends = {
        "direct": DirectBatchBackend(mech),
        "surrogate": SurrogateBackend(
            bench_odenet, engine=bench_odenet.make_engine(precision="fp32")),
        "hybrid": HybridBackend(SurrogateBackend(bench_odenet),
                                DirectBatchBackend(mech),
                                t_window=(1000.0, 3500.0)),
    }
    lines = ["backend        cells/sec     work imbalance"]
    rates = {}
    for name, backend in backends.items():
        _, _, st = backend.advance(y, t, PRESSURE, DT)
        rates[name] = st.cells_per_second
        lines.append(f"  {name:10s} {st.cells_per_second:10.1f}"
                     f" {st.load_imbalance:12.2f}")
    emit("Chemistry backends: throughput", lines)

    # The DNN path is the paper's headline: far faster than any direct
    # integration of the same batch.
    assert rates["surrogate"] > 5.0 * rates["direct"]
