"""Trained-hybrid chemistry: throughput, accuracy and trust gating.

The closed training loop (``repro.dnn.dataset`` -> ``ODENet.fit`` ->
``ModelRegistry``) produces a *committed* surrogate artifact
(``tgv-hotspot``).  This bench loads that artifact through the
``chemistry="hybrid-trained"`` settings path and holds it to the
paper's hybrid-throughput claim on **live solver states** — the
(T, p, Y) batches an actual hotspot-TGV run visits, not synthetic
manifold samples:

* **throughput**: the trust-gated trained hybrid must advance those
  states >= 20x faster (cells/sec) than the direct
  batch integrator,
* **accuracy**: max |dY| between the hybrid and direct results on the
  same states must stay <= 1e-6 (the hybrid gate's audit tolerance),
* **trust gate**: far-off-manifold states must be fully gated out —
  bit-identical direct results — and land in the OOD buffer that
  feeds :func:`repro.dnn.registry.retrain_incremental`,
* **audits**: spot-audited cells must adopt the direct result and its
  direct work price.

``--smoke`` shrinks the case and relaxes the numeric gates (CI
machines share cores) but exercises the identical code path,
including loading the committed registry artifact.

Run:  pytest benchmarks/bench_chemistry_training.py   (add --smoke
for the shrunken CI version)
"""

import time

import numpy as np
import pytest

from repro.core.cases import build_hotspot_tgv_case
from repro.core.deepflame import DeepFlameSolver
from repro.core.settings import SolverSettings, build_chemistry

from .conftest import emit

DT = 1e-8  # the paper's 10 ns chemistry step


def _hybrid_chemistry(mech, **overrides):
    """The hybrid-trained backend exactly as the settings path builds it."""
    settings = SolverSettings(chemistry="hybrid-trained",
                              trust_gate=overrides.pop("trust_gate",
                                                       "domain"),
                              chemistry_options=overrides)
    return build_chemistry(settings, mech)


@pytest.fixture(scope="module")
def live_states(mech, smoke):
    """Pre-step (T, p, Y) batches from a live hybrid-trained run.

    The hotspot case is advanced by the solver *with the trained
    hybrid in the loop*, so later batches sit on states the surrogate
    itself produced — accumulated drift counts against the gates.
    """
    n = 8 if smoke else 12
    steps = 2 if smoke else 3
    case = build_hotspot_tgv_case(n=n, mech=mech)
    solver = DeepFlameSolver(case, chemistry=_hybrid_chemistry(mech))
    batches = []
    for _ in range(steps):
        batches.append((solver.props.temperature.copy(),
                        solver.p.values.copy(), solver.y.copy()))
        solver.step(DT)
    return batches


class TestTrainedHybrid:
    def test_throughput_and_accuracy_gates(self, mech, live_states, smoke):
        """>= 20x direct cells/sec at max|dY| <= 1e-6 on live states."""
        from repro.chemistry.backends.direct import DirectBatchBackend

        direct = DirectBatchBackend(mech)
        hybrid = _hybrid_chemistry(mech)
        # warm both paths (BLAS threads, engine buffers, CSR caches)
        t0, p0, y0 = live_states[0]
        hybrid.advance(y0, t0, p0, DT)
        direct.advance(y0, t0, p0, DT)

        n_cells = 0
        t_direct = t_hybrid = 0.0
        max_err = 0.0
        surrogate_cells = 0
        for t, p, y in live_states:
            tic = time.perf_counter()
            y_d, _, _ = direct.advance(y, t, p, DT)
            t_direct += time.perf_counter() - tic
            tic = time.perf_counter()
            y_h, _, st = hybrid.advance(y, t, p, DT)
            t_hybrid += time.perf_counter() - tic
            n_cells += t.size
            surrogate_cells += st.gate["surrogate_cells"]
            max_err = max(max_err, float(np.abs(y_h - y_d).max()))

        cps_direct = n_cells / t_direct
        cps_hybrid = n_cells / t_hybrid
        speedup = cps_hybrid / cps_direct
        frac = surrogate_cells / n_cells
        emit("trained-hybrid chemistry (live hotspot solver states)", [
            f"{'backend':22s} {'cells/s':>12s}",
            f"{'direct (batch)':22s} {cps_direct:12.0f}",
            f"{'hybrid-trained':22s} {cps_hybrid:12.0f}",
            f"speedup {speedup:.1f}x   max|dY| vs direct {max_err:.2e}"
            f"   surrogate fraction {frac:.3f}",
            f"gate counters: {hybrid.counters}",
        ])
        # CI smoke shares cores and runs a smaller batch: relax the
        # wall-clock gate but keep the accuracy gate meaningful.
        min_speedup, max_dy = (3.0, 5e-6) if smoke else (20.0, 1e-6)
        assert frac > 0.95, "domain gate rejected the trained manifold"
        assert speedup >= min_speedup, (
            f"trained hybrid only {speedup:.1f}x over direct")
        assert max_err <= max_dy, (
            f"hybrid disagrees with direct by {max_err:.2e}")

    def test_ood_states_fully_gated_out(self, mech):
        """Far-off-manifold states: exact direct results + OOD buffer."""
        hybrid = _hybrid_chemistry(mech)
        rng = np.random.default_rng(11)
        n = 32
        y = rng.random((n, mech.n_species))
        y /= y.sum(axis=1, keepdims=True)
        t = rng.uniform(2600.0, 3000.0, n)
        p = np.full(n, 10e6)
        assert not hybrid.split_mask(y, t, p, DT).any()
        y_h, t_h, st = hybrid.advance(y, t, p, DT)
        y_d, t_d, _ = hybrid.direct.advance(y, t, p, DT)
        np.testing.assert_array_equal(y_h, y_d)
        np.testing.assert_array_equal(t_h, t_d)
        assert st.gate["gated_out_cells"] == n
        drained = hybrid.drain_ood()
        assert drained is not None and drained[0].size == n

    def test_audited_cells_adopt_direct(self, mech, live_states):
        """Spot audits re-run cells through direct and keep its answer."""
        hybrid = _hybrid_chemistry(mech, trust_gate="domain+audit",
                                   audit_fraction=0.05)
        t, p, y = live_states[0]
        y_h, _, st = hybrid.advance(y, t, p, DT)
        assert st.gate["audited_cells"] >= 1
        audited_work = st.work_per_cell[st.work_per_cell >= 1.0]
        assert audited_work.size >= st.gate["audited_cells"]
        # the audited cells: surrogate-side cells re-priced at direct work
        price = st.per_backend["surrogate"].work_per_cell[0]
        audited = hybrid.split_mask(y, t, p, DT) & (st.work_per_cell != price)
        assert audited.sum() == st.gate["audited_cells"]
        # every audited cell's result is bit-identical to direct's on the
        # batch the audit ran (a batch of another shape rounds the last
        # bit of a cell or two differently)
        y_d, _, _ = hybrid.direct.advance(y[audited], t[audited],
                                          p[audited], DT)
        adopted = np.abs(y_h[audited] - y_d).max(axis=1) == 0.0
        assert adopted.sum() >= st.gate["audited_cells"]
