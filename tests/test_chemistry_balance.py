"""Chemistry load balancing: migration planning, ledgered execution,
and physics invariance of the balanced decomposed chemistry stage."""

import numpy as np
import pytest

from repro.chemistry import DirectBatchBackend, plan_migration
from repro.chemistry.redistribute import (
    pack_result,
    pack_state,
    unpack_result,
    unpack_state,
)
from repro.core import (
    DeepFlameSolver,
    IdealGasProperties,
    SolverSettings,
    build_hotspot_tgv_case,
    build_tgv_case,
)
from repro.dist import DecomposedSolver
from repro.runtime import per_rank_imbalance, price_balance_report
from repro.runtime.machine import SUNWAY
from repro.solvers import SolverControls

#: tight controls: serial and decomposed solves both converge far below
#: the 1e-8 agreement gates (matching tests/test_dist.py)
TIGHT = dict(
    scalar_controls=SolverControls(tolerance=1e-12, max_iterations=500),
    pressure_controls=SolverControls(tolerance=1e-12, max_iterations=1000),
)


def skewed_tgv_case(mech, n=6):
    """The stiffness-skewed workload whose chemistry cost a static
    decomposition cannot balance."""
    return build_hotspot_tgv_case(n=n, mech=mech)


# ----------------------------------------------------------------------
class TestMigrationPlan:
    def test_noop_when_balanced(self):
        work = [np.ones(50) for _ in range(4)]
        plan = plan_migration(work)
        assert plan.is_noop
        assert plan.n_migrated == 0

    def test_noop_below_tolerance(self):
        work = [np.ones(50), np.full(50, 1.01)]
        assert plan_migration(work, tolerance=0.05).is_noop

    def test_deterministic_given_fixed_work(self):
        rng = np.random.default_rng(7)
        work = [rng.uniform(1.0, 50.0, size=60) for _ in range(4)]
        a = plan_migration([w.copy() for w in work])
        b = plan_migration([w.copy() for w in work])
        assert sorted(a.moves) == sorted(b.moves)
        for pair in a.moves:
            np.testing.assert_array_equal(a.moves[pair], b.moves[pair])

    def test_single_donor_many_recipients(self):
        """One overloaded rank spreads its surplus over several
        underloaded ranks, and the planned imbalance drops."""
        work = [np.ones(40) for _ in range(4)]
        work[0] = np.full(40, 20.0)   # rank 0 is ~20x over
        plan = plan_migration(work, n_bins=8)
        srcs = {src for src, _ in plan.moves}
        dsts = {dst for _, dst in plan.moves}
        assert srcs == {0}
        assert len(dsts) >= 2
        # moved cells are valid, unique rank-0 cells
        moved = plan.moved_from(0)
        assert moved.size == plan.n_migrated > 0
        assert moved.min() >= 0 and moved.max() < 40
        # planned per-rank totals are better balanced than before
        after = np.array([w.sum() for w in work], dtype=float)
        for (src, dst), idx in plan.moves.items():
            delta = work[src][idx].sum()
            after[src] -= delta
            after[dst] += delta
        assert per_rank_imbalance(after) < 0.5 * per_rank_imbalance(
            np.array([w.sum() for w in work]))

    @pytest.mark.parametrize("cap", [0.15, 0.2, 0.5])
    def test_max_move_fraction_is_a_hard_cap(self, cap):
        """The cap bounds migrated work even when bin granularity is
        coarser than the budget (no 2x overshoot past the budget)."""
        work = [np.full(10, 100.0), np.ones(10)]
        plan = plan_migration(work, max_move_fraction=cap)
        moved_work = sum(work[src][idx].sum()
                         for (src, _), idx in plan.moves.items())
        assert moved_work <= cap * work[0].sum() + 1e-12

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(300, 2000, 12)
        p = rng.uniform(1e5, 1e7, 12)
        y = rng.random((12, 5))
        idx = np.array([1, 3, 8])
        t2, p2, y2 = unpack_state(pack_state(t, p, y, idx))
        np.testing.assert_array_equal(t2, t[idx])
        np.testing.assert_array_equal(p2, p[idx])
        np.testing.assert_array_equal(y2, y[idx])
        w = rng.random(3)
        y3, t3, w3 = unpack_result(pack_result(y[idx], t[idx], w))
        np.testing.assert_array_equal(y3, y[idx])
        np.testing.assert_array_equal(t3, t[idx])
        np.testing.assert_array_equal(w3, w)


# ----------------------------------------------------------------------
class TestBalancedExecution:
    def _solver(self, mech, case, mode, **kw):
        return DecomposedSolver(
            case, SolverSettings(ranks=4, balance_chemistry=mode,
                                 **TIGHT, **kw),
            properties=IdealGasProperties(mech),
            chemistry=DirectBatchBackend(mech))

    def test_rejects_unknown_mode(self, mech):
        with pytest.raises(ValueError, match="balance_chemistry"):
            self._solver(mech, build_tgv_case(n=6, mech=mech), "always")

    def test_rejects_non_backend_chemistry(self, mech):
        from repro.core import NoChemistry

        with pytest.raises(ValueError, match="batched chemistry"):
            DecomposedSolver(build_tgv_case(n=6, mech=mech),
                             SolverSettings(ranks=2,
                                            balance_chemistry="dynamic"),
                             properties=IdealGasProperties(mech),
                             chemistry=NoChemistry())

    def test_zero_imbalance_is_noop_no_messages(self, mech):
        """A uniformly cold case has uniform chemistry work: the
        balancer must not ship a single cell (only the work-total
        allreduce may appear in the ledger)."""
        solver = self._solver(mech, build_tgv_case(n=6, mech=mech),
                              "dynamic")
        led = solver.comm.ledger
        msgs0, bytes0 = led.messages, led.bytes_sent
        solver.balancer.advance(solver.ranks, 1e-8)
        rep = solver.balancer.last_report
        assert rep.plan.is_noop
        assert rep.n_migrated == 0
        assert rep.messages == 0 and rep.bytes_sent == 0
        # only the totals allreduce hit the ledger
        assert led.messages == msgs0 and led.bytes_sent == bytes0
        assert rep.allreduces == 1 and rep.allreduce_bytes > 0

    def test_migration_traffic_fully_ledgered(self, mech):
        """Every migration byte appears in the shared CommLedger."""
        solver = self._solver(mech, skewed_tgv_case(mech), "dynamic")
        led = solver.comm.ledger
        msgs0, bytes0 = led.messages, led.bytes_sent
        solver.balancer.advance(solver.ranks, 1e-7)
        rep = solver.balancer.last_report
        assert rep.n_migrated > 0
        assert rep.messages > 0 and rep.bytes_sent > 0
        assert led.messages - msgs0 == rep.messages
        assert led.bytes_sent - bytes0 == rep.bytes_sent
        # both legs: every (src, dst) pair sends state out and gets
        # results back
        assert rep.messages == 2 * len(rep.plan.moves)
        priced = price_balance_report(SUNWAY, rep, 4)
        assert priced["total_s"] > 0

    def test_executed_imbalance_drops(self, mech):
        """The acceptance gate: executed rank-level chemistry imbalance
        drops >= 2x with dynamic balancing on the skewed case at 4
        ranks."""
        solver = self._solver(mech, skewed_tgv_case(mech), "dynamic")
        solver.step(1e-7)
        rep = solver.last_balance
        assert rep.imbalance_static > 0.1
        assert rep.imbalance_executed <= rep.imbalance_static / 2.0
        # owner-attributed totals must be conserved by migration
        assert rep.owner_work.sum() == pytest.approx(
            rep.executed_work.sum())

    def test_balanced_physics_identical_to_unbalanced(self, mech):
        """Migration changes *where* cells integrate, never the
        physics: balanced and unbalanced decomposed runs agree to
        floating-point rounding (BLAS kernels may round differently
        for different batch shapes, so exact bit equality across batch
        compositions is not guaranteed -- but the difference is orders
        below the 1e-8 serial-agreement gate)."""
        plain = self._solver(mech, skewed_tgv_case(mech), "none")
        dyn = self._solver(mech, skewed_tgv_case(mech), "dynamic")
        plain.run(2, 1e-7)
        dyn.run(2, 1e-7)
        assert dyn.last_balance.n_migrated > 0
        assert np.abs(dyn.gather("y") - plain.gather("y")).max() < 1e-12
        assert np.abs(dyn.gather("u") - plain.gather("u")).max() < 1e-11
        assert np.abs((dyn.gather("p") - plain.gather("p"))
                      / plain.gather("p")).max() < 1e-12

    def test_static_mode_freezes_first_plan(self, mech):
        solver = self._solver(mech, skewed_tgv_case(mech), "static")
        solver.step(1e-7)
        first = solver.last_balance.plan
        assert first.n_migrated > 0
        assert solver.last_balance.allreduces == 1
        solver.step(1e-7)
        assert solver.last_balance.plan is first
        # reusing the frozen plan needs no collective
        assert solver.last_balance.allreduces == 0

    def test_matches_serial_dynamic_tgv(self, mech):
        """Decomposed-vs-serial agreement <= 1e-8 with
        balance_chemistry='dynamic' and live chemistry on the TGV."""
        serial = DeepFlameSolver(
            skewed_tgv_case(mech), SolverSettings(**TIGHT),
            properties=IdealGasProperties(mech),
            chemistry=DirectBatchBackend(mech))
        dyn = self._solver(mech, skewed_tgv_case(mech), "dynamic")
        serial.run(3, 1e-7)
        dyn.run(3, 1e-7)
        assert dyn.last_balance.n_migrated > 0
        diffs = {
            "y": np.abs(dyn.gather("y") - serial.y).max(),
            "T": np.abs(dyn.gather("T") - serial.props.temperature).max(),
            "p_rel": np.abs((dyn.gather("p") - serial.p.values)
                            / serial.p.values).max(),
            "u": np.abs(dyn.gather("u") - serial.u.values).max(),
        }
        assert all(d <= 1e-8 for d in diffs.values()), diffs

    def test_ema_updates_from_measurements(self, mech):
        solver = self._solver(mech, skewed_tgv_case(mech), "dynamic",
                              balance_options=dict(ema=1.0))
        solver.step(1e-7)
        est_after = [e.copy() for e in solver.balancer.work_est]
        # with ema=1.0 the estimate is exactly the measured work, whose
        # per-rank totals are the owner-attributed report numbers
        np.testing.assert_allclose(
            [e.sum() for e in est_after], solver.last_balance.owner_work)
