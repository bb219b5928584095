"""One flow state: every solver snapshots, restores and gathers through
the one field table (``repro.core.deepflame.FIELDS``), serial and
decomposed, driver-stepped and on worker processes."""

import contextlib

import numpy as np
import pytest

from repro.core.cases import build_hotspot_tgv_case, build_tgv_case
from repro.core.deepflame import FIELDS
from repro.core.properties import IdealGasProperties
from repro.core.settings import SolverSettings, build_solver
from repro.dist.decompose import Decomposition
from repro.dist.solver import DecomposedSolver

DT = 1e-6
#: the three ways to host a step: one serial solver, two ranks stepped
#: by the driver, two ranks on forked workers
MODES = {
    "serial": {},
    "ranks2": {"ranks": 2},
    "parallel": {"ranks": 2, "execution": "parallel"},
}


def _build(mech, mode, n=6, chemistry="none"):
    """The ideal-gas TGV, or with live chemistry its 2000 K hot spot."""
    case = build_tgv_case(n=n, mech=mech) if chemistry == "none" else \
        build_hotspot_tgv_case(n=n, t_hot=2000.0, mech=mech)
    settings = SolverSettings(chemistry=chemistry, **MODES[mode])
    return build_solver(case, settings, properties=IdealGasProperties(mech))


@contextlib.contextmanager
def _solver(mech, mode, **kwargs):
    """A built solver, closed (workers and shared memory) on exit."""
    solver = _build(mech, mode, **kwargs)
    try:
        yield solver
    finally:
        if hasattr(solver, "close"):
            solver.close()


def _fields(solver) -> dict:
    return {name: solver.gather(name) for name in FIELDS}


def _run(solver, steps: int, dt: float = DT) -> list:
    """``steps`` steps; returns each step's ledger delta (None serial)."""
    comms = []
    for _ in range(steps):
        solver.step(dt)
        comms.append(getattr(solver, "last_comm", None))
    return comms


def _rank_solvers(solver) -> list:
    """The rank solvers this process holds (none for a parallel run)."""
    return getattr(solver, "ranks", [solver])


@pytest.fixture(params=list(MODES))
def mode(request):
    return request.param


@pytest.fixture(params=["ranks2", "parallel"])
def decomposed(request):
    return request.param


class TestRestore:
    @pytest.mark.parametrize("chemistry, dt", [("none", DT),
                                               ("direct", 1e-8)])
    def test_restore_then_step_is_bitwise(self, mech, mode, chemistry, dt):
        """Snapshot after step 1, step 3 more, restore, step 3 again:
        the same fields and the same per-step ledgers (``direct``
        chemistry keeps no state between steps)."""
        with _solver(mech, mode, chemistry=chemistry) as solver:
            _run(solver, 1, dt)
            snap = solver.state_snapshot()
            comms = _run(solver, 3, dt)
            ref = _fields(solver)
            solver.restore_state(snap)
            assert solver.step_count == 1
            assert _run(solver, 3, dt) == comms
            got = _fields(solver)
            for name in FIELDS:
                np.testing.assert_array_equal(got[name], ref[name], name)
            assert solver.step_count == 4

    def test_one_snapshot_restores_twice(self, mech, mode):
        with _solver(mech, mode) as solver:
            snap = solver.state_snapshot()
            results = []
            for _ in range(2):
                _run(solver, 2)
                results.append(_fields(solver))
                solver.restore_state(snap)
            for name in FIELDS:
                np.testing.assert_array_equal(results[0][name],
                                              results[1][name], name)

    def test_restore_keeps_array_identity(self, mech, mode):
        with _solver(mech, mode) as solver:
            snap = solver.state_snapshot()
            _run(solver, 1)
            ranks = _rank_solvers(solver)
            live = [(r.phi.values, r.props.mu,
                     *(get(r) for get in FIELDS.values())) for r in ranks]
            solver.restore_state(snap)
            for r, arrays in zip(ranks, live):
                now = (r.phi.values, r.props.mu,
                       *(get(r) for get in FIELDS.values()))
                assert all(a is b for a, b in zip(arrays, now))

    def test_snapshot_and_restore_leave_the_ledger(self, mech, decomposed):
        with _solver(mech, decomposed) as solver:
            _run(solver, 1)
            before = solver.comm.ledger.totals()
            solver.restore_state(solver.state_snapshot())
            assert solver.comm.ledger.totals() == before

    def test_snapshot_is_a_dict_of_copies(self, mech):
        solver = _build(mech, "serial")
        snap = solver.state_snapshot()
        for name, get in FIELDS.items():
            assert not np.shares_memory(snap[name], get(solver))
        _run(solver, 1)
        assert not np.array_equal(snap["p"], solver.p.values)


class TestOwnState:
    def test_serial_solvers_of_one_case_start_alike(self, mech):
        """A serial solver copies its case's fields: stepping one of two
        solvers built from one case writes neither into the case nor
        into the other, whose first step is then bitwise the first's."""
        case = build_tgv_case(n=6, mech=mech)
        u0, p0 = case.velocity.values.copy(), case.pressure.values.copy()
        settings = SolverSettings()
        first, second = (
            build_solver(case, settings, properties=IdealGasProperties(mech))
            for _ in range(2))
        first.step(DT)
        np.testing.assert_array_equal(case.velocity.values, u0)
        np.testing.assert_array_equal(case.pressure.values, p0)
        second.step(DT)
        want = _fields(first)
        for name, got in _fields(second).items():
            np.testing.assert_array_equal(got, want[name], err_msg=name)


    def test_decomposed_solvers_of_one_case_start_alike(self, mech,
                                                         decomposed):
        """A decomposed solver copies its case's fields into its ranks
        too: a sweep may build every run from one case."""
        case = build_tgv_case(n=6, mech=mech)
        u0, p0 = case.velocity.values.copy(), case.pressure.values.copy()
        settings = SolverSettings(**MODES[decomposed])
        first, second = (
            build_solver(case, settings, properties=IdealGasProperties(mech))
            for _ in range(2))
        with first, second:
            first.step(DT)
            np.testing.assert_array_equal(case.velocity.values, u0)
            np.testing.assert_array_equal(case.pressure.values, p0)
            second.step(DT)
            want = _fields(first)
            for name, got in _fields(second).items():
                np.testing.assert_array_equal(got, want[name], err_msg=name)


class TestMismatch:
    def test_serial_other_mesh(self, mech):
        small, big = _build(mech, "serial"), _build(mech, "serial", n=8)
        snap = small.state_snapshot()
        before = big.state_snapshot()
        with pytest.raises(ValueError, match="does not fit"):
            big.restore_state(snap)
        for name in FIELDS:         # nothing was written
            np.testing.assert_array_equal(big.gather(name), before[name])

    @pytest.mark.parametrize("donor_parts", ["uneven", "three"])
    def test_decomposed_other_rank_layout(self, mech, decomposed,
                                          donor_parts):
        case = build_tgv_case(n=6, mech=mech)
        n = case.mesh.n_cells
        parts = (np.arange(n) >= n // 3).astype(int) \
            if donor_parts == "uneven" else np.arange(n) % 3
        donor = DecomposedSolver(
            case, SolverSettings(ranks=int(parts.max()) + 1),
            decomp=Decomposition.from_mesh(case.mesh, int(parts.max()) + 1,
                                           parts=parts),
            properties=IdealGasProperties(mech))
        with _solver(mech, decomposed) as solver:
            before = _fields(solver)
            with pytest.raises(ValueError, match="does not fit"):
                solver.restore_state(donor.state_snapshot())
            for name in FIELDS:         # no rank was written
                np.testing.assert_array_equal(solver.gather(name),
                                              before[name])
            _run(solver, 1)      # a parallel run's workers survive

    def test_serial_and_decomposed_snapshots_do_not_mix(self, mech,
                                                        decomposed):
        serial = _build(mech, "serial")
        with _solver(mech, decomposed) as solver:
            with pytest.raises(ValueError, match="does not fit"):
                solver.restore_state(serial.state_snapshot())
            with pytest.raises(ValueError, match="does not fit"):
                serial.restore_state(solver.state_snapshot())


class TestGather:
    def test_unknown_field(self, mech, mode):
        with _solver(mech, mode) as solver:
            with pytest.raises(KeyError):
                solver.gather("nope")
            _run(solver, 1)      # a parallel run's workers survive

    def test_gather_is_a_copy(self, mech, mode):
        """Writing into a gathered field leaves the solver's state (and
        its next step) untouched, in every hosting."""
        with _solver(mech, mode) as solver:
            _run(solver, 1)
            want = _fields(solver)
            for name in FIELDS:
                solver.gather(name)[...] = -1.0
            for name, got in _fields(solver).items():
                np.testing.assert_array_equal(got, want[name], err_msg=name)
            _run(solver, 1)
            assert solver.gather("y").min() >= 0.0

    def test_gather_into_out(self, mech, mode):
        with _solver(mech, mode) as solver:
            out = np.empty_like(solver.gather("y"))
            assert solver.gather("y", out=out) is out
            np.testing.assert_array_equal(out, solver.gather("y"))
