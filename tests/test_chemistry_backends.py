"""The batched chemistry-backend subsystem: API contract, batched
vs. per-cell agreement, hybrid split correctness and work accounting."""

import inspect

import numpy as np
import pytest

from repro.chemistry.backends.direct import DirectBatchBackend
from repro.chemistry.backends.hybrid import HybridBackend
from repro.chemistry.backends.percell import PerCellBDFBackend
from repro.chemistry.backends.surrogate import SurrogateBackend
from repro.chemistry.jacobian import AnalyticJacobian
from repro.chemistry.kinetics import KineticsEvaluator
from repro.chemistry.mechanism import Mechanism
from repro.chemistry.rates import Arrhenius, Reaction
from repro.chemistry.reactor import (
    ConstantPressureReactor,
    ReactorKernel,
    ReactorState,
    mixture_line,
    premixed_state,
)
from repro.runtime.load_balance import (
    chemistry_balance_report,
    per_rank_imbalance,
    rank_imbalance,
    work_imbalance,
    workload_with_chemistry,
)

PRESSURE = 10e6


@pytest.fixture(scope="module")
def quick_odenet(mech):
    """A structurally valid (not accuracy-tuned) trained ODENet for
    routing/accounting tests -- trains in well under a second."""
    from repro.dnn.odenet import ODENet

    rng = np.random.default_rng(0)
    t = np.linspace(800.0, 2500.0, 12)
    y = rng.random((12, mech.n_species))
    y /= y.sum(axis=1, keepdims=True)
    dy = rng.normal(0.0, 1e-4, y.shape)
    net = ODENet(mech, hidden=(8, 8), seed=0)
    net.fit(t, np.full(12, PRESSURE), y, dy, dt=1e-7, epochs=2, lr=1e-3)
    return net


@pytest.fixture(scope="module")
def lox_ch4_batch(mech):
    """A 17-species LOX/CH4 batch spanning frozen, mild and reacting
    cells (mixing line plus a hot near-stoichiometric core)."""
    n = 12
    t, y = mixture_line(mech, n, PRESSURE)
    x = np.linspace(0.0, 1.0, n)
    t = t + 1400.0 * np.exp(-(((x - 0.5) / 0.2) ** 2))
    return t, y


@pytest.fixture(scope="module")
def graded_batch(mech):
    """16 premixed cells at 1600 K whose radical pool is scaled over
    five decades: at dt = 1e-8 their stiffness indicator spans 4e-3 to
    21 and their RODAS3 step counts 1 to 28."""
    n = 16
    y = np.tile(premixed_state(mech, 1400.0, PRESSURE).mass_fractions,
                (n, 1))
    scale = 10.0 ** np.linspace(-5.0, 0.0, n)
    for sp, val in [("OH", 1e-3), ("H", 1e-4), ("O", 1e-4),
                    ("CO", 2e-2), ("H2O", 5e-2), ("CO2", 3e-2)]:
        y[:, mech.species_index[sp]] = val * scale
    return np.full(n, 1600.0), y / y.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def half_order_mech(mech):
    """``H2 + 0.5 O2 => H2O``: a non-integer order, which the slot
    tables and the rate table cannot express."""
    species = [mech.species[mech.species_index[s]]
               for s in ("H2", "O2", "H2O")]
    rxn = Reaction("H2 + 0.5 O2 => H2O", {"H2": 1.0, "O2": 0.5},
                   {"H2O": 1.0}, Arrhenius(1e6, 0.0, 6e4), reversible=False)
    return Mechanism(species, [rxn], name="half-order")


def _backend(kind, mech, net):
    """One of the four batched backends over ``mech``."""
    if kind == "direct":
        return DirectBatchBackend(mech)
    if kind == "percell":
        return PerCellBDFBackend(mech)
    if kind == "surrogate":
        return SurrogateBackend(net)
    return HybridBackend(SurrogateBackend(net), DirectBatchBackend(mech),
                         t_window=(1000.0, 3000.0))


BACKENDS = ("direct", "percell", "surrogate", "hybrid")


class TestBatchContract:
    """Every backend checks ``dt`` and the batch shapes at entry, in
    :meth:`ChemistryBackend._as_batch`, and a zero step is the
    identity."""

    @pytest.fixture(params=BACKENDS)
    def backend(self, request, mech, quick_odenet):
        return _backend(request.param, mech, quick_odenet)

    @pytest.fixture(scope="class")
    def cells(self, mech):
        """Six mixing-line cells lifted by 1500 K: some react."""
        t, y = mixture_line(mech, 6, PRESSURE)
        return t + 1500.0, y

    @pytest.mark.parametrize("dt", [-1e-7, np.nan, np.inf])
    def test_bad_dt_raises(self, backend, cells, dt):
        t, y = cells
        with pytest.raises(ValueError, match=r"dt must be finite and >= 0"):
            backend.advance(y, t, PRESSURE, dt)

    def test_mismatched_rows_raise(self, backend, cells):
        t, y = cells
        with pytest.raises(ValueError, match=r"\(6, 17\).*\(5,\)"):
            backend.advance(y, t[:5], PRESSURE, 1e-7)
        with pytest.raises(ValueError, match=r"p \(4,\)"):
            backend.advance(y, t, np.full(4, PRESSURE), 1e-7)

    def test_zero_dt_returns_input(self, backend, cells):
        t, y = cells
        y_new, t_new, st = backend.advance(y, t, PRESSURE, 0.0)
        np.testing.assert_array_equal(y_new, y)
        np.testing.assert_array_equal(t_new, t)
        assert st.n_cells == t.size

    def test_advance_takes_the_batch_only(self, backend, cells):
        """``advance(y, t, p, dt)`` is the whole call: no backend takes
        per-row cell identities."""
        params = inspect.signature(backend.advance).parameters
        assert list(params) == ["y", "t", "p", "dt"]
        t, y = cells
        with pytest.raises(TypeError, match="cell_ids"):
            backend.advance(y, t, PRESSURE, 1e-7, cell_ids=np.arange(6))


class TestDirectBatch:
    def test_batch_composition_invariance(self, mech, lox_ch4_batch):
        """Advancing a cell inside a batch gives the same answer as
        advancing it alone: classification uses only per-cell state, so
        results agree to BLAS last-bit reproducibility."""
        t, y = lox_ch4_batch
        db = DirectBatchBackend(mech)
        dt = 1e-7
        y_b, t_b, _ = db.advance(y, t, PRESSURE, dt)
        for c in range(t.size):
            y_1, t_1, _ = db.advance(y[c:c + 1], t[c:c + 1], PRESSURE, dt)
            np.testing.assert_allclose(t_1[0], t_b[c], rtol=1e-10, atol=1e-7)
            np.testing.assert_allclose(y_1[0], y_b[c], rtol=0, atol=1e-10)

    def test_split_batch_matches_full_batch(self, mech, lox_ch4_batch):
        t, y = lox_ch4_batch
        db = DirectBatchBackend(mech)
        dt = 1e-7
        y_b, t_b, _ = db.advance(y, t, PRESSURE, dt)
        k = t.size // 2
        y_1, t_1, _ = db.advance(y[:k], t[:k], PRESSURE, dt)
        y_2, t_2, _ = db.advance(y[k:], t[k:], PRESSURE, dt)
        np.testing.assert_allclose(
            np.concatenate((t_1, t_2)), t_b, rtol=1e-10, atol=1e-7)
        np.testing.assert_allclose(
            np.vstack((y_1, y_2)), y_b, rtol=0, atol=1e-10)

    def test_agrees_with_percell_reference(self, mech, lox_ch4_batch):
        """Within integrator tolerance of the per-cell BDF loop."""
        t, y = lox_ch4_batch
        dt = 1e-7
        y_b, t_b, _ = DirectBatchBackend(mech).advance(y, t, PRESSURE, dt)
        y_p, t_p, _ = PerCellBDFBackend(mech).advance(y, t, PRESSURE, dt)
        np.testing.assert_allclose(t_b, t_p, atol=0.5)
        np.testing.assert_allclose(y_b, y_p, atol=5e-4)

    def test_rows_match_each_cell_alone(self, mech, graded_batch):
        """Every active cell advances as a row of one RODAS3 lockstep
        batch on its own step sizes; each ends where it ends when
        advanced alone."""
        t, y = graded_batch
        db = DirectBatchBackend(mech)
        dt = 1e-8
        y_b, t_b, st = db.advance(y, t, PRESSURE, dt)
        assert st.sub_batches[0][:2] == ("rodas3", t.size)
        assert len(np.unique(st.work_per_cell)) >= 8
        for c in range(t.size):
            y_1, t_1, st_1 = db.advance(y[c:c + 1], t[c:c + 1], PRESSURE, dt)
            assert st_1.work_per_cell[0] == st.work_per_cell[c]
            np.testing.assert_allclose(t_1[0], t_b[c], rtol=1e-12, atol=0)
            np.testing.assert_allclose(y_1[0], y_b[c], rtol=0, atol=1e-12)

    def test_step_budget_raises_naming_cells(self, mech, graded_batch):
        """Rows that cannot reach ``dt`` within ``MAX_STEPS`` attempts
        are an error naming their cells, never a silent fallback: they
        are exactly the rows the default budget finishes in more than
        10 attempts."""
        t, y = graded_batch
        dt = 1e-8
        _, _, st = DirectBatchBackend(mech).advance(y, t, PRESSURE, dt)
        steps = st.work_per_cell / DirectBatchBackend.RODAS3_STEP_WORK
        late = np.flatnonzero(steps > 10)
        assert 0 < late.size < t.size
        short = type("Short", (DirectBatchBackend,), {"MAX_STEPS": 10})
        first = ", ".join(str(c) for c in late[:5])
        with pytest.raises(FloatingPointError,
                           match=rf"{late.size} of 16 cells did not reach "
                                 rf"dt .* 10 RODAS3.*\[{first}\]"):
            short(mech).advance(y, t, PRESSURE, dt)

    @pytest.mark.parametrize("batch, dt, tol_t, tol_y", [
        ("graded_batch", 1e-8, 2.2e-3, 2.3e-6),
        ("lox_ch4_batch", 1e-7, 4.3e-6, 6.5e-9),
    ])
    def test_accuracy_vs_tight_reference(self, mech, request, batch, dt,
                                         tol_t, tol_y):
        """Against a tight per-cell BDF solve the batch is no less
        accurate than the graded fixed-step ROS2 bins it replaced (the
        bounds are their measured errors; RODAS3 measures 1.3e-4 K /
        5.6e-8 and 1.5e-7 K / 1.0e-9)."""
        t, y = request.getfixturevalue(batch)
        y_b, t_b, _ = DirectBatchBackend(mech).advance(y, t, PRESSURE, dt)
        y_r, t_r, _ = PerCellBDFBackend(mech, rtol=1e-10,
                                        atol=1e-15).advance(y, t, PRESSURE, dt)
        assert np.abs(t_b - t_r).max() <= tol_t
        assert np.abs(y_b - y_r).max() <= tol_y

    def test_non_finite_cell_raises_typed_error(self, mech, lox_ch4_batch):
        """A NaN state is refused at entry, naming the cell, instead of
        stalling inside the integrators."""
        t, y = lox_ch4_batch
        y = y.copy()
        y[3, 2] = np.nan
        db = DirectBatchBackend(mech)
        with pytest.raises(FloatingPointError, match=r"1 of 12 cells.*\[3\]"):
            db.advance(y, t, PRESSURE, 1e-7)

    def test_simplex_preserved(self, mech, lox_ch4_batch):
        t, y = lox_ch4_batch
        y_b, t_b, _ = DirectBatchBackend(mech).advance(y, t, PRESSURE, 1e-7)
        np.testing.assert_allclose(y_b.sum(axis=1), 1.0, atol=1e-12)
        assert y_b.min() >= 0.0
        assert np.all(t_b >= 200.0)

    def test_work_counters_and_sub_batches(self, mech, lox_ch4_batch):
        t, y = lox_ch4_batch
        db = DirectBatchBackend(mech)
        _, _, st = db.advance(y, t, PRESSURE, 1e-7)
        assert st.backend == "direct-batch"
        assert st.n_cells == t.size
        assert st.work_per_cell.shape == (t.size,)
        assert np.all(st.work_per_cell > 0)
        assert st.rhs_evals > 0
        assert sum(cells for _, cells, _ in st.sub_batches) == t.size
        # hot core works harder than frozen mixing cells
        assert st.load_imbalance > 0.0

    def test_one_error_chain_only(self, mech):
        """No fixed-step RK4, twin tolerances or BDF fallback remain in
        the direct backend or the ODE module."""
        from repro.chemistry import ode

        assert not hasattr(ode, "rk4_batch")
        assert "rk4_batch" not in ode.__all__
        db = DirectBatchBackend(mech)
        for name in ("RK4_STEPS", "VAL_TOL_T", "VAL_TOL_Y", "_fallback",
                     "rtol", "atol"):
            assert not hasattr(db, name), name

    def test_frozen_batch_is_all_heun(self, mech):
        """An inert batch takes only the frozen path, and every row's
        measured work is one Heun pair."""
        t, y = mixture_line(mech, 6, PRESSURE)  # 150-300 K: inert
        db = DirectBatchBackend(mech)
        _, _, st = db.advance(y, t, PRESSURE, 1e-7)
        labels = {label for label, cells, _ in st.sub_batches if cells}
        assert labels == {"heun"}
        np.testing.assert_array_equal(
            st.work_per_cell, np.full(6, DirectBatchBackend.HEUN_WORK))

    def test_frozen_cells_within_rodas3_weights(self, mech):
        """Frozen cells carrying trace radicals (non-zero rates, every
        ``z < Z_FROZEN``) end within RODAS3's own weights of a tight
        BDF solve, component by component.  Rows whose Heun - Euler
        difference exceeds the weights (the fast ``H + O2`` channel at
        this pressure) take RODAS3: accepting on the RMS of that
        difference instead would let 3.1e-9 through on HO2."""
        t, y = mixture_line(mech, 8, PRESSURE)
        t = t + 600.0
        for sp in ("OH", "H", "O", "HO2"):
            y[:, mech.species_index[sp]] = 1e-12 * np.linspace(0.1, 1.0, 8)
        y /= y.sum(axis=1, keepdims=True)
        db = DirectBatchBackend(mech)
        dt = 1e-7
        assert (db.stiffness_indicator(y, t, PRESSURE, dt)
                < db.Z_FROZEN).all()
        y_b, t_b, st = db.advance(y, t, PRESSURE, dt)
        y_r, t_r, _ = PerCellBDFBackend(mech, rtol=1e-10,
                                        atol=1e-15).advance(y, t, PRESSURE, dt)
        assert np.abs(t_r - t).max() > 0.0 and np.abs(y_r - y).max() > 0.0
        cells = dict((label, c) for label, c, _ in st.sub_batches)
        assert cells["heun"] > 0 and cells["rodas3"] > 0
        assert np.abs(t_b - t_r).max() <= db.ATOL_T
        assert (np.abs(y_b - y_r) <= db.ATOL_Y + db.RTOL_Y * np.abs(y_r)).all()

    def test_rejected_frozen_rows_take_rodas3(self, mech, graded_batch):
        """With every cell sent to the Heun check, the active ones fail
        it and end bitwise where the default backend's RODAS3 rows
        end."""
        t, y = graded_batch
        dt = 1e-8
        y_r, t_r, st_r = DirectBatchBackend(mech).advance(y, t, PRESSURE, dt)
        all_frozen = type("AllFrozen", (DirectBatchBackend,),
                          {"Z_FROZEN": np.inf})
        y_b, t_b, st = all_frozen(mech).advance(y, t, PRESSURE, dt)
        assert st.sub_batches == [("heun", 0, 0)] + st_r.sub_batches
        np.testing.assert_array_equal(t_b, t_r)
        np.testing.assert_array_equal(y_b, y_r)
        np.testing.assert_array_equal(st.work_per_cell, st_r.work_per_cell)

    @pytest.mark.slow
    def test_mid_interval_ignition_stays_in_rodas3(self, mech):
        """A cell whose runaway happens inside the step is invisible to
        the initial-rate classifier; RODAS3's error control carries it
        through ignition (259 step attempts) to the tight BDF answer
        within the bounds ``test_accuracy_vs_tight_reference`` puts on
        ``graded_batch``.  Measured: 1.9e-4 K / 4.5e-8; the per-cell BDF
        fallback that took this cell before measured 6.5e-6 K /
        1.6e-9."""
        y = np.zeros((2, mech.n_species))
        y[:, mech.species_index["CH4"]] = 0.2
        y[:, mech.species_index["O2"]] = 0.8
        t = np.array([300.0, 1500.0])
        dt = 2e-5
        y_b, t_b, st = DirectBatchBackend(mech).advance(y, t, PRESSURE, dt)
        y_r, t_r, _ = PerCellBDFBackend(mech, rtol=1e-10,
                                        atol=1e-15).advance(y, t, PRESSURE, dt)
        assert st.sub_batches[-1][:2] == ("rodas3", 1)
        assert t_b[1] > 3000.0
        assert np.abs(t_b - t_r).max() <= 2.2e-3
        assert np.abs(y_b - y_r).max() <= 2.3e-6


class TestNonIntegerOrders:
    """The path the *input* selects: a mechanism with a non-integer
    order takes the per-reaction reference loop and the
    finite-difference Jacobian."""

    def test_reference_loop_and_fd_jacobian_selected(self, half_order_mech):
        kin = KineticsEvaluator(half_order_mech)
        assert not kin._vector_ok
        t = np.array([900.0, 1500.0])
        conc = np.array([[300.0, 200.0, 50.0], [100.0, 0.0, 400.0]])
        for fast, ref in zip(kin.rates_of_progress(t, conc),
                             kin.rates_of_progress_reference(t, conc)):
            np.testing.assert_array_equal(fast, ref)
        assert DirectBatchBackend(half_order_mech).kernel._ajac is None
        assert PerCellBDFBackend(half_order_mech).kernel._ajac is None
        reactor = ConstantPressureReactor(half_order_mech)
        assert reactor.kernel._ajac is None
        _, temps, _ = reactor.advance(
            ReactorState(1500.0, PRESSURE, np.array([0.1, 0.8, 0.1])), 1e-6)
        assert np.isfinite(temps).all() and temps[-1] > 1500.0
        with pytest.raises(ValueError, match="integer reaction orders"):
            AnalyticJacobian(half_order_mech)

    def test_batch_agrees_with_percell(self, half_order_mech):
        n = 10
        t = np.linspace(600.0, 1800.0, n)
        y = np.tile([0.1, 0.8, 0.1], (n, 1))
        dt = 1e-6
        y_b, t_b, st = DirectBatchBackend(half_order_mech).advance(
            y, t, PRESSURE, dt)
        y_p, t_p, _ = PerCellBDFBackend(half_order_mech).advance(
            y, t, PRESSURE, dt)
        assert st.jac_evals > 0  # RODAS3 cells went through the FD sweep
        np.testing.assert_allclose(t_b, t_p, atol=0.5)
        np.testing.assert_allclose(y_b, y_p, atol=5e-4)

    def test_every_integrator_reaches_the_fd_sweep(self, half_order_mech,
                                                   monkeypatch):
        """The reactor, the per-cell loop and the batched backend take
        their Jacobians from the kernel's FD sweep because the mechanism
        does not vectorize -- no option selects it."""
        calls = []
        sweep = ReactorKernel.fd_jacobian

        def spy(kernel, states, p):
            calls.append(states.shape[0])
            return sweep(kernel, states, p)

        monkeypatch.setattr(ReactorKernel, "fd_jacobian", spy)
        y = np.array([[0.1, 0.8, 0.1]])
        t = np.array([1500.0])
        reactor = ConstantPressureReactor(half_order_mech)
        reactor.advance(ReactorState(1500.0, PRESSURE, y[0]), 1e-6)
        assert calls and reactor.last_work.jac_evals == len(calls)
        for backend in (PerCellBDFBackend(half_order_mech),
                        DirectBatchBackend(half_order_mech)):
            calls.clear()
            _, _, st = backend.advance(y, t, PRESSURE, 1e-6)
            assert calls and sum(calls) == st.jac_evals


class TestReactorKernel:
    """The one reactor RHS + Jacobian every chemistry integrator calls;
    a single cell is a batch of one."""

    def test_batch_rows_equal_batches_of_one(self, mech, graded_batch):
        """A k-row call gives each row what a one-row call gives it.
        The FD sweep is bitwise so; the RHS and the analytic Jacobian
        to BLAS rounding (a one-row product takes another BLAS kernel
        than a k-row one)."""
        t, y = graded_batch
        s = np.concatenate((t[:, None], y), axis=1)
        p = np.full(t.size, PRESSURE)
        kernel = ReactorKernel(mech, 200.0)
        assert kernel._ajac is not None
        for name, rtol in (("fd_jacobian", 0.0), ("rhs", 1e-13),
                           ("jacobian", 1e-13)):
            f = getattr(kernel, name)
            rows = f(s, p)
            ones = np.stack([f(s[i:i + 1], p[i:i + 1])[0]
                             for i in range(t.size)])
            if rtol == 0.0:
                np.testing.assert_array_equal(rows, ones)
            else:
                scale = np.abs(ones).reshape(t.size, -1).max(axis=1)
                err = np.abs(rows - ones).reshape(t.size, -1).max(axis=1)
                assert (err <= rtol * scale).all(), name

    def test_backends_integrate_the_kernel(self, mech, graded_batch,
                                           monkeypatch):
        """The vectorizable mechanism never takes the FD sweep, and the
        direct backend's counters are the rows it hands the kernel."""
        rows = {"rhs": 0, "jacobian": 0}
        for name in rows:
            body = getattr(ReactorKernel, name)

            def counted(kernel, states, p, _body=body, _name=name):
                rows[_name] += states.shape[0]
                return _body(kernel, states, p)

            monkeypatch.setattr(ReactorKernel, name, counted)
        monkeypatch.setattr(ReactorKernel, "fd_jacobian", None)
        t, y = graded_batch
        _, _, st = DirectBatchBackend(mech).advance(y, t, PRESSURE, 1e-8)
        assert rows == {"rhs": st.rhs_evals, "jacobian": st.jac_evals}


class TestSurrogateBackend:
    def test_untrained_rejected(self, mech):
        from repro.dnn.odenet import ODENet

        with pytest.raises(ValueError):
            SurrogateBackend(ODENet(mech))

    def test_uniform_work_and_simplex(self, mech, quick_odenet):
        t = np.linspace(900.0, 2400.0, 7)
        rng = np.random.default_rng(1)
        y = rng.random((7, mech.n_species))
        y /= y.sum(axis=1, keepdims=True)
        sb = SurrogateBackend(quick_odenet)
        y_new, t_new, st = sb.advance(y, t, PRESSURE, 1e-7)
        assert st.load_imbalance == pytest.approx(0.0, abs=1e-12)
        # work is uniform and FLOP-priced: far below one integrator step
        assert np.all(st.work_per_cell == st.work_per_cell[0])
        assert 0.0 < st.work_per_cell[0] < 1.0
        np.testing.assert_allclose(st.work_per_cell,
                                   sb.work_per_cell_estimate(), rtol=0.5)
        np.testing.assert_array_equal(t_new, t)  # T re-derived by solver
        np.testing.assert_allclose(y_new.sum(axis=1), 1.0, atol=1e-12)
        assert y_new.min() >= 0.0

    def test_rows_priced_at_the_estimate(self, mech, quick_odenet):
        """Without an engine counting FLOPs every row costs exactly
        ``work_per_cell_estimate()``: the price a hybrid charges its
        surrogate rows."""
        t, y = mixture_line(mech, 5, PRESSURE)
        sb = SurrogateBackend(quick_odenet)
        assert sb.engine is None
        _, _, st = sb.advance(y, t + 800.0, PRESSURE, 1e-7)
        np.testing.assert_array_equal(
            st.work_per_cell, np.full(5, sb.work_per_cell_estimate()))
        assert st.total_work == pytest.approx(5 * sb.work_per_cell_estimate())


class TestHybridBackend:
    def _hybrid(self, mech, quick_odenet, **kw):
        return HybridBackend(SurrogateBackend(quick_odenet),
                             DirectBatchBackend(mech), **kw)

    def test_split_mask_follows_temperature_window(self, mech, quick_odenet):
        hb = self._hybrid(mech, quick_odenet, t_window=(1000.0, 3000.0))
        t = np.array([300.0, 1500.0, 2500.0, 3500.0])
        y = np.tile(np.full(mech.n_species, 1.0 / mech.n_species), (4, 1))
        mask = hb.split_mask(y, t, PRESSURE, 1e-7)
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_routing_matches_children(self, mech, quick_odenet):
        """Hybrid output equals each child's output on its own cells."""
        hb = self._hybrid(mech, quick_odenet, t_window=(1000.0, 3000.0))
        t, y = mixture_line(mech, 8, PRESSURE)
        t = t + np.linspace(0.0, 2500.0, 8)  # spans both sides of the window
        dt = 1e-7
        mask = hb.split_mask(y, t, PRESSURE, dt)
        assert mask.any() and (~mask).any()
        y_h, t_h, st = hb.advance(y, t, PRESSURE, dt)
        y_s, t_s, _ = hb.surrogate.advance(y[mask], t[mask], PRESSURE, dt)
        y_d, t_d, _ = hb.direct.advance(y[~mask], t[~mask], PRESSURE, dt)
        np.testing.assert_allclose(y_h[mask], y_s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(y_h[~mask], y_d, rtol=0, atol=1e-10)
        np.testing.assert_allclose(t_h[~mask], t_d, rtol=1e-12)

    def test_work_counter_accounting(self, mech, quick_odenet):
        hb = self._hybrid(mech, quick_odenet, t_window=(1000.0, 3000.0))
        t, y = mixture_line(mech, 8, PRESSURE)
        t = t + np.linspace(0.0, 2500.0, 8)
        y_h, t_h, st = hb.advance(y, t, PRESSURE, 1e-7)
        mask = hb.split_mask(y, t, PRESSURE, 1e-7)
        assert set(st.per_backend) == {"surrogate", "direct"}
        assert st.per_backend["surrogate"].n_cells == int(mask.sum())
        assert st.per_backend["direct"].n_cells == int((~mask).sum())
        # surrogate cells are FLOP-priced under a frozen direct cell's
        # Heun step; direct cells keep their own measured work
        assert np.all(st.work_per_cell[mask] == st.work_per_cell[mask][0])
        assert np.all(st.work_per_cell[mask] < hb.direct.HEUN_WORK)
        np.testing.assert_array_equal(st.work_per_cell[~mask],
                                      st.per_backend["direct"].work_per_cell)
        assert np.all(st.work_per_cell[~mask] >= hb.direct.HEUN_WORK)
        assert st.total_work == pytest.approx(
            st.per_backend["surrogate"].total_work
            + st.per_backend["direct"].total_work)

    def test_audits_keyed_by_seed_call_and_row(self, mech, tiny_odenet):
        """The audited rows are a pure function of ``(audit_seed, call,
        row index)``: each call audits the surrogate rows whose
        :func:`hash_uniform` score falls under ``audit_fraction``, and
        a fresh backend with the same seed audits the same rows."""
        from repro.runtime.seeding import hash_uniform

        xs = tiny_odenet._train_x
        sel = np.random.default_rng(0).integers(0, xs.shape[0], size=24)
        t, p, y = xs[sel, 0], xs[sel, 1], xs[sel, 2:]
        dt = 1e-7

        def build():
            # the hotter half goes to the surrogate, so its rows are not
            # 0..k; a negative tolerance fails every audit, so the OOD
            # buffer holds exactly the audited rows
            return self._hybrid(mech, tiny_odenet,
                                t_window=(float(np.median(t)), 1e9),
                                trust_gate="domain+audit",
                                audit_fraction=0.4, audit_seed=11,
                                audit_tol=-1.0)

        a, b = build(), build()
        idx_s = np.flatnonzero(a.split_mask(y, t, p, dt))
        assert 0 < idx_s.size < t.size and idx_s[-1] >= idx_s.size
        for call in range(3):
            idx_a = idx_s[hash_uniform(11, call, idx_s) < 0.4]
            assert 0 < idx_a.size < idx_s.size
            y_a, t_a, st_a = a.advance(y, t, p, dt)
            y_b, t_b, st_b = b.advance(y, t, p, dt)
            assert st_a.gate == st_b.gate
            assert st_a.gate["audited_cells"] == idx_a.size
            np.testing.assert_array_equal(a.drain_ood()[0], t[idx_a])
            np.testing.assert_array_equal(b.drain_ood()[0], t[idx_a])
            np.testing.assert_array_equal(y_a, y_b)
            np.testing.assert_array_equal(t_a, t_b)

    def test_stiffness_override_routes_to_direct(self, mech, quick_odenet):
        """With z_max, a hot in-window reacting cell is re-routed."""
        hb = self._hybrid(mech, quick_odenet, t_window=(200.0, 5000.0),
                          z_max=1e-9)
        y = np.zeros((1, mech.n_species))
        y[0, mech.species_index["CH4"]] = 0.2
        y[0, mech.species_index["O2"]] = 0.8
        mask = hb.split_mask(y, np.array([2000.0]), PRESSURE, 1e-6)
        assert not mask[0]


class TestRegistryAndSolver:
    def test_solver_accepts_raw_backend(self, mech):
        """DeepFlameSolver wraps a bare ChemistryBackend on the fly."""
        from repro.core.cases import build_tgv_case
        from repro.core.deepflame import DeepFlameSolver
        from repro.core.properties import IdealGasProperties
        from repro.core.settings import SolverSettings
        from repro.solvers.controls import SolverControls

        case = build_tgv_case(n=6, mech=mech)
        s = DeepFlameSolver(
            case, SolverSettings(scalar_controls=SolverControls(
                tolerance=1e-10, rel_tol=1e-5, max_iterations=400)),
            properties=IdealGasProperties(mech),
            chemistry=DirectBatchBackend(mech))
        d = s.step(1e-8)
        assert np.isfinite(d.total_mass)
        st = s.chemistry.last_backend_stats
        assert st is not None and st.n_cells == case.mesh.n_cells
        assert s.chemistry.last_backend_stats.work_per_cell.shape == (216,)


class TestLoadBalanceMetrics:
    def test_work_imbalance(self):
        assert work_imbalance(np.ones(8)) == 0.0
        assert work_imbalance(np.array([1.0, 1.0, 4.0])) == pytest.approx(1.0)
        assert work_imbalance(np.zeros(3)) == 0.0
        assert work_imbalance(np.zeros(0)) == 0.0

    def test_rank_imbalance_blocks(self):
        # all heavy cells land on rank 1 of 2 under a block deal
        w = np.array([1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0])
        assert rank_imbalance(w, 2) == pytest.approx(36.0 / 20.0 - 1.0)
        # an owner map that interleaves them balances the work
        owner = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert rank_imbalance(w, 2, owner=owner) == 0.0

    def test_per_rank_imbalance_totals(self):
        """Executed per-rank totals score as max/mean - 1, and the
        totals of an ownership map score as :func:`rank_imbalance`
        predicts for it."""
        assert per_rank_imbalance([5.0, 5.0, 5.0]) == 0.0
        assert per_rank_imbalance([1.0, 1.0, 4.0]) == pytest.approx(1.0)
        assert per_rank_imbalance([]) == 0.0
        assert per_rank_imbalance(np.zeros(4)) == 0.0
        w = np.array([1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0])
        owner = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        totals = np.bincount(owner, weights=w)
        assert per_rank_imbalance(totals) == pytest.approx(
            rank_imbalance(w, 4, owner=owner))

    def test_balance_report_and_workload(self, mech, quick_odenet):
        hb = HybridBackend(SurrogateBackend(quick_odenet),
                           DirectBatchBackend(mech),
                           t_window=(1000.0, 3000.0))
        t, y = mixture_line(mech, 8, PRESSURE)
        t = t + np.linspace(0.0, 2500.0, 8)
        _, _, st = hb.advance(y, t, PRESSURE, 1e-7)
        report = chemistry_balance_report(st)
        assert report["n_cells"] == 8
        shares = [b["work_share"] for b in report["per_backend"].values()]
        assert sum(shares) == pytest.approx(1.0)

        from repro.runtime.perf_model import tgv_workload

        wl = workload_with_chemistry(tgv_workload(n_cells=1000.0), st)
        assert wl.load_imbalance == pytest.approx(st.load_imbalance)
