"""Domain-decomposed execution: decomposition invariants, halo
exchange, distributed Krylov, and decomposed-vs-serial agreement."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cases import build_rocket_case, build_tgv_case
from repro.core.chemistry_source import NoChemistry
from repro.core.deepflame import DeepFlameSolver
from repro.core.properties import IdealGasProperties
from repro.core.settings import SolverSettings, build_solver
from repro.dist import spmd
from repro.dist.decompose import Decomposition
from repro.dist.halo import HaloExchanger
from repro.dist.solver import DecomposedSolver
from repro.runtime.comm import SimulatedComm
from repro.solvers import blocked
from repro.solvers.controls import SolverControls

#: tight controls so serial and decomposed solves both converge far
#: below the 1e-8 agreement gates (they differ only in FP reduction
#: order: both are Jacobi-preconditioned)
TIGHT = dict(
    scalar_controls=SolverControls(tolerance=1e-12, max_iterations=500),
    pressure_controls=SolverControls(tolerance=1e-12, max_iterations=1000),
)


@pytest.fixture(scope="module")
def tgv_mesh(mech):
    return build_tgv_case(n=6, mech=mech).mesh


@pytest.fixture(scope="module", params=[2, 4])
def decomp(request, tgv_mesh):
    return Decomposition.from_mesh(tgv_mesh, request.param)


class TestDecomposition:
    def test_every_cell_in_exactly_one_part(self, decomp, tgv_mesh):
        owned = np.concatenate([s.owned_global for s in decomp.subdomains])
        assert owned.size == tgv_mesh.n_cells
        np.testing.assert_array_equal(np.sort(owned),
                                      np.arange(tgv_mesh.n_cells))

    def test_halo_cells_owned_elsewhere(self, decomp):
        for s in decomp.subdomains:
            assert np.all(decomp.parts[s.halo_global] != s.rank)
            np.testing.assert_array_equal(decomp.parts[s.halo_global],
                                          s.halo_owner_rank)

    def test_halo_maps_symmetric(self, decomp):
        """send[q] on rank r names the same global cells, in the same
        order, as recv[r] on rank q."""
        for s in decomp.subdomains:
            assert sorted(s.send) == sorted(s.recv)
            for q, sidx in s.send.items():
                other = decomp.subdomains[q]
                sent = s.owned_global[sidx]
                received = other.halo_global[other.recv[s.rank]
                                             - other.n_owned]
                np.testing.assert_array_equal(sent, received)

    def test_face_coverage_and_conservation(self, decomp, tgv_mesh):
        """Interior faces appear once, cut faces twice (once per side)
        with identical geometry, boundary faces once; so face area is
        conserved across part boundaries."""
        nif = tgv_mesh.n_internal_faces
        counts = np.zeros(tgv_mesh.n_faces, dtype=int)
        for s in decomp.subdomains:
            np.add.at(counts, s.internal_faces_global, 1)
            np.add.at(counts, s.boundary_faces_global, 1)
            # local geometry is the global geometry of those faces
            np.testing.assert_array_equal(
                s.mesh.face_areas,
                tgv_mesh.face_areas[np.concatenate(
                    [s.internal_faces_global, s.boundary_faces_global])])
        cut = np.zeros(tgv_mesh.n_faces, dtype=bool)
        for s in decomp.subdomains:
            cut[s.internal_faces_global[s.cut_mask]] = True
        assert np.all(counts[:nif][cut[:nif]] == 2)
        assert np.all(counts[:nif][~cut[:nif]] == 1)
        assert np.all(counts[nif:] == 1)
        # both sides of a cut face link the same global cell pair
        per_pair = {}
        for s in decomp.subdomains:
            gids = np.concatenate([s.owned_global, s.halo_global])
            lo = s.mesh.owner[:s.mesh.n_internal_faces]
            for f_local, f_global in enumerate(s.internal_faces_global):
                if s.cut_mask[f_local]:
                    pair = (gids[lo[f_local]],
                            gids[s.mesh.neighbour[f_local]])
                    per_pair.setdefault(int(f_global), []).append(pair)
        for pairs in per_pair.values():
            assert len(pairs) == 2 and pairs[0] == pairs[1]

    def test_empty_part_rejected(self, tgv_mesh):
        parts = np.zeros(tgv_mesh.n_cells, dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            Decomposition.from_mesh(tgv_mesh, 2, parts=parts)

    def test_gather_scatter_roundtrip(self, decomp, tgv_mesh):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(tgv_mesh.n_cells, 2))
        locs = decomp.scatter_cells(g)
        np.testing.assert_array_equal(decomp.gather_cells(locs), g)


class TestHaloExchange:
    def test_refresh_fills_ghosts_from_owners(self, tgv_mesh):
        dec = Decomposition.from_mesh(tgv_mesh, 4)
        comm = SimulatedComm(4)
        ex = HaloExchanger(dec, comm)
        rng = np.random.default_rng(0)
        g_scalar = rng.normal(size=tgv_mesh.n_cells)
        g_vec = rng.normal(size=(tgv_mesh.n_cells, 3))
        per = []
        for s in dec.subdomains:
            a = g_scalar[s.owned_global]
            b = g_vec[s.owned_global]
            # ghost rows start as garbage
            per.append([
                np.concatenate([a, np.full(s.n_halo, np.nan)]),
                np.concatenate([b, np.full((s.n_halo, 3), np.nan)]),
            ])
        ex.refresh(per)
        for s, (a, b) in zip(dec.subdomains, per):
            np.testing.assert_array_equal(a[s.n_owned:],
                                          g_scalar[s.halo_global])
            np.testing.assert_array_equal(b[s.n_owned:],
                                          g_vec[s.halo_global])
        # one packed message per neighbour pair
        expected = sum(len(s.send) for s in dec.subdomains)
        assert comm.ledger.messages == expected
        assert comm.ledger.bytes_sent > 0


class TestDecomposedSolver:
    def _max_diffs(self, dist, serial):
        return {
            "y": np.abs(dist.gather("y") - serial.y).max(),
            "T": np.abs(dist.gather("T")
                        - serial.props.temperature).max(),
            "p_rel": np.abs((dist.gather("p") - serial.p.values)
                            / serial.p.values).max(),
            "u": np.abs(dist.gather("u") - serial.u.values).max(),
            "h_rel": np.abs((dist.gather("h") - serial.h)
                            / serial.h).max(),
        }

    @pytest.mark.parametrize("nparts", [2, 4])
    def test_matches_serial_tgv(self, mech, nparts):
        """5 decomposed steps of the TGV agree with serial <= 1e-8."""
        serial = DeepFlameSolver(
            build_tgv_case(n=8, mech=mech), SolverSettings(**TIGHT),
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        dist = DecomposedSolver(
            build_tgv_case(n=8, mech=mech),
            SolverSettings(ranks=nparts, **TIGHT),
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        serial.run(5, 1e-8)
        dist.run(5, 1e-8)
        diffs = self._max_diffs(dist, serial)
        assert all(d <= 1e-8 for d in diffs.values()), diffs

    def test_matches_serial_real_fluid(self, mech):
        """The default (Peng-Robinson) property path, 4 ranks."""
        serial = DeepFlameSolver(build_tgv_case(n=8, mech=mech),
                                 SolverSettings(**TIGHT),
                                 chemistry=NoChemistry())
        dist = DecomposedSolver(build_tgv_case(n=8, mech=mech),
                                SolverSettings(ranks=4, **TIGHT),
                                chemistry=NoChemistry())
        serial.run(5, 1e-8)
        dist.run(5, 1e-8)
        diffs = self._max_diffs(dist, serial)
        assert all(d <= 1e-8 for d in diffs.values()), diffs

    def test_matches_serial_rocket(self, mech):
        """Non-periodic mesh with Dirichlet boundary patches."""
        kw = dict(n_sectors=1, nr=4, ntheta_per_sector=6, nz=10, mech=mech)
        serial = DeepFlameSolver(build_rocket_case(**kw),
                                 SolverSettings(**TIGHT),
                                 properties=IdealGasProperties(mech),
                                 chemistry=NoChemistry())
        dist = DecomposedSolver(build_rocket_case(**kw),
                                SolverSettings(ranks=3, **TIGHT),
                                properties=IdealGasProperties(mech),
                                chemistry=NoChemistry())
        serial.run(3, 1e-8)
        dist.run(3, 1e-8)
        diffs = self._max_diffs(dist, serial)
        assert all(d <= 1e-8 for d in diffs.values()), diffs

    def test_ledger_records_real_traffic(self, mech):
        dist = DecomposedSolver(build_tgv_case(n=6, mech=mech),
                                SolverSettings(ranks=2, **TIGHT),
                                properties=IdealGasProperties(mech),
                                chemistry=NoChemistry())
        dist.step(1e-8)
        comm = dist.last_comm
        assert comm["messages"] > 0 and comm["bytes"] > 0
        assert comm["allreduces"] > 0 and comm["allreduce_bytes"] > 0
        # matvec-triggered exchanges dominate: at least one per solver
        # iteration across the step's Krylov solves
        assert comm["messages"] >= dist.last_diag.solver_iterations

    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_by_src_accounts_for_every_message(self, mech, ranks):
        """Every exchange sends one message per neighbour pair, and the
        ledger charges each to its sender: rank ``r``'s row is the
        exchange count times its neighbour count, and the rows sum to
        the totals."""
        dist = DecomposedSolver(build_tgv_case(n=6, mech=mech),
                                SolverSettings(ranks=ranks),
                                properties=IdealGasProperties(mech))
        dist.step(1e-8)
        led = dist.comm.ledger
        assert sorted(led.by_src) == list(range(ranks))
        for sub in dist.decomp.subdomains:
            assert led.by_src[sub.rank][0] == led.exchanges * len(sub.send)
        assert sum(m for m, _ in led.by_src.values()) == led.messages
        assert sum(b for _, b in led.by_src.values()) == led.bytes_sent

    def test_diagnostics_match_serial(self, mech):
        serial = DeepFlameSolver(build_tgv_case(n=6, mech=mech),
                                 SolverSettings(**TIGHT),
                                 properties=IdealGasProperties(mech),
                                 chemistry=NoChemistry())
        dist = DecomposedSolver(build_tgv_case(n=6, mech=mech),
                                SolverSettings(ranks=2, **TIGHT),
                                properties=IdealGasProperties(mech),
                                chemistry=NoChemistry())
        d_ser = serial.step(1e-8)
        d_dec = dist.step(1e-8)
        assert d_dec.total_mass == pytest.approx(d_ser.total_mass,
                                                 rel=1e-12)
        assert d_dec.t_min == pytest.approx(d_ser.t_min, abs=1e-8)
        assert d_dec.t_max == pytest.approx(d_ser.t_max, abs=1e-8)
        assert d_dec.max_velocity == pytest.approx(d_ser.max_velocity,
                                                   abs=1e-8)

    def test_one_rank_matches_serial(self, mech):
        """Same stage sequence, different solve hook: one hosted rank
        through the distributed Krylov path vs the serial solver."""
        serial = DeepFlameSolver(build_tgv_case(n=6, mech=mech),
                                 SolverSettings(**TIGHT),
                                 properties=IdealGasProperties(mech),
                                 chemistry=NoChemistry())
        dist = DecomposedSolver(build_tgv_case(n=6, mech=mech),
                                SolverSettings(ranks=1, **TIGHT),
                                properties=IdealGasProperties(mech),
                                chemistry=NoChemistry())
        d_ser = serial.run(3, 1e-8)[-1]
        d_dec = dist.run(3, 1e-8)[-1]
        diffs = self._max_diffs(dist, serial)
        assert all(d <= 1e-10 for d in diffs.values()), diffs
        assert d_dec.solver_iterations == d_ser.solver_iterations
        assert d_dec.solver_unconverged == d_ser.solver_unconverged == 0

    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_injected_rank_count_must_match_settings(
            self, mech, monkeypatch, execution):
        """A decomposition or communicator injected with a rank count
        other than ``settings.ranks`` is refused before any worker
        forks -- also when the two agree with each other."""
        def forked(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(spmd, "ParallelExecutor", forked)
        case = build_tgv_case(n=4, mech=mech)
        three = Decomposition.from_mesh(case.mesh, 3)
        settings = SolverSettings(ranks=2, execution=execution)
        for injected in ({"decomp": three, "comm": SimulatedComm(3)},
                         {"decomp": three}, {"comm": SimulatedComm(3)}):
            with pytest.raises(ValueError, match="settings.ranks=2"):
                DecomposedSolver(case, settings,
                                 properties=IdealGasProperties(mech),
                                 **injected)

    @pytest.mark.parametrize("ranks", [0, 2])
    def test_unconverged_solves_counted_and_logged(self, mech, ranks,
                                                   caplog):
        """``max_iterations=1`` starves every solve: the step counts
        the unconverged columns and warns once, naming the worst."""
        starved = SolverControls(tolerance=1e-14, max_iterations=1)
        solver = build_solver(
            build_tgv_case(n=6, mech=mech),
            SolverSettings(ranks=ranks, scalar_controls=starved,
                           pressure_controls=starved),
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        with caplog.at_level("WARNING", logger="repro.solvers"):
            diag = solver.step(1e-6)
        assert diag.solver_unconverged > 0
        assert solver.last_diag.solver_unconverged == diag.solver_unconverged
        records = [r for r in caplog.records if r.name == "repro.solvers"]
        assert len(records) == 1
        msg = records[0].getMessage()
        assert f"{diag.solver_unconverged} linear-solve column(s)" in msg
        assert "after 1 iterations" in msg and "final residual" in msg

    @pytest.mark.parametrize("ranks", [0, 2])
    def test_unconverged_enthalpy_column_named_h(self, mech, ranks,
                                                 monkeypatch, caplog):
        """h is the last column of the (Y, h) solve but keeps its own
        label: an enthalpy column alone coming back unconverged is
        reported as the ``h`` equation."""
        solver = build_solver(
            build_tgv_case(n=6, mech=mech),
            SolverSettings(ranks=ranks, **TIGHT),
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        solve = solver._solve

        def h_fails(eqns, method, controls):
            xs, results = solve(eqns, method, controls)
            if len(results) == mech.n_species + 1:
                results = [*results[:-1],
                           replace(results[-1], converged=False)]
            return xs, results

        monkeypatch.setattr(solver, "_solve", h_fails)
        with caplog.at_level("WARNING", logger="repro.solvers"):
            diag = solver.step(1e-8)
        assert diag.solver_unconverged == 1
        records = [r for r in caplog.records if r.name == "repro.solvers"]
        assert len(records) == 1
        assert "worst: h equation" in records[0].getMessage()

    def test_converged_step_is_silent(self, mech, caplog):
        solver = DeepFlameSolver(build_tgv_case(n=6, mech=mech),
                                 SolverSettings(**TIGHT),
                                 properties=IdealGasProperties(mech),
                                 chemistry=NoChemistry())
        with caplog.at_level("DEBUG", logger="repro.solvers"):
            diag = solver.step(1e-8)
        assert diag.solver_unconverged == 0
        assert not [r for r in caplog.records if r.name == "repro.solvers"]

    @staticmethod
    def _pcg_run(mech, monkeypatch, ranks: int, n_steps: int = 3):
        """``n_steps`` (dt = 1e-6) of the default-settings n = 8
        ideal-gas TGV at ``ranks``: the solver and, per PCG solve, the
        iteration count of every column."""
        counts = []
        body = blocked.pcg_solve_multi

        def counting(*args, **kwargs):
            x, results = body(*args, **kwargs)
            counts.append([res.iterations for res in results])
            return x, results

        monkeypatch.setitem(blocked._KRYLOV, "PCG", counting)
        solver = build_solver(build_tgv_case(n=8, mech=mech),
                              SolverSettings(ranks=ranks),
                              properties=IdealGasProperties(mech),
                              chemistry=NoChemistry())
        solver.run(n_steps, 1e-6)
        return solver, counts

    def test_pcg_iterations_independent_of_rank_count(self, mech,
                                                      monkeypatch):
        """Serial and decomposed pressure solves run the same (Jacobi)
        preconditioner, so every PCG solve takes the same number of
        iterations at 0, 2 and 4 ranks."""
        serial = self._pcg_run(mech, monkeypatch, 0)[1]
        assert len(serial) == 6 and all(c[0] > 0 for c in serial)
        for ranks in (2, 4):
            assert self._pcg_run(mech, monkeypatch, ranks)[1] == serial

    @pytest.mark.parametrize("nparts", [2, 4])
    def test_decomposed_matches_serial_to_reduction_order(
            self, mech, monkeypatch, nparts):
        """With one preconditioner on both, decomposed and serial
        differ only by the order of their reductions: <= 1e-10
        relative max-norm on y, h, p and u after 3 default steps."""
        serial = self._pcg_run(mech, monkeypatch, 0)[0]
        dist = self._pcg_run(mech, monkeypatch, nparts)[0]
        for name, want in (("y", serial.y), ("h", serial.h),
                           ("p", serial.p.values), ("u", serial.u.values)):
            got = dist.gather(name)
            rel = np.abs(got - want).max() / np.abs(want).max()
            assert rel <= 1e-10, (name, rel)


class TestGhostRows:
    """A step exchanges only the ghost rows a later stage reads: the
    property set, ``[U, 1/A, grad p, psi]`` and per corrector ``p`` then
    ``[U, grad p]`` -- never the transported scalars Y and h."""

    @pytest.mark.parametrize("n_correctors", [1, 2])
    def test_refreshes_per_step(self, mech, monkeypatch, n_correctors):
        from repro.dist import solver as dist_solver

        step = dist_solver.advance_step
        per_step = []

        def counting_step(hosted, dt, *, refresh, **hooks):
            calls = []

            def counted(per_rank):
                calls.append(per_rank)
                refresh(per_rank)

            diag = step(hosted, dt, refresh=counted, **hooks)
            per_step.append(len(calls))
            return diag

        monkeypatch.setattr(dist_solver, "advance_step", counting_step)
        dist = DecomposedSolver(
            build_tgv_case(n=8, mech=mech),
            SolverSettings(ranks=2, n_correctors=n_correctors),
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        dist.run(3, 1e-8)
        assert per_step == [2 + 2 * n_correctors] * 3

    @staticmethod
    def _hotspot_run(mech, poison: bool) -> dict:
        from repro.core.cases import build_hotspot_tgv_case

        dist = DecomposedSolver(
            build_hotspot_tgv_case(n=6, t_hot=2000.0, mech=mech),
            SolverSettings(ranks=2, chemistry="direct"),
            properties=IdealGasProperties(mech))

        def nan_ghosts():
            for r, sub in zip(dist.ranks, dist.subs):
                r.y[sub.n_owned:] = np.nan
                r.h[sub.n_owned:] = np.nan

        def then_poison(method):
            def wrapped(*args, **kwargs):
                out = method(*args, **kwargs)
                nan_ghosts()
                return out
            return wrapped

        if poison:
            # wherever the owned rows of Y or h were just written
            for r in dist.ranks:
                r.stage_chemistry = then_poison(r.stage_chemistry)
                r.finish_species = then_poison(r.finish_species)
        for _ in range(3):
            if poison:
                nan_ghosts()
            dist.step(1e-7)
        return {f: dist.gather(f) for f in ("y", "h", "p", "u", "rho", "T")}

    def test_ghost_rows_of_y_and_h_are_never_read(self, mech):
        clean = self._hotspot_run(mech, poison=False)
        poisoned = self._hotspot_run(mech, poison=True)
        for name, want in clean.items():
            assert np.isfinite(want).all(), name
            assert np.array_equal(poisoned[name], want), name


class TestChemistryOnOwningRank:
    """Each rank advances the chemistry of the cells it owns: no cell
    migrates, no message is sent, and the stiffness skew of a hot spot
    is measured per rank rather than moved."""

    DT = 1e-7

    @staticmethod
    def _case(mech):
        from repro.core.cases import build_hotspot_tgv_case

        return build_hotspot_tgv_case(n=6, mech=mech)

    def _dist(self, mech, ranks, execution="serial"):
        return DecomposedSolver(
            self._case(mech),
            SolverSettings(ranks=ranks, chemistry="direct",
                           execution=execution, **TIGHT),
            properties=IdealGasProperties(mech))

    def _serial(self, mech):
        return DeepFlameSolver(
            self._case(mech), SolverSettings(chemistry="direct", **TIGHT),
            properties=IdealGasProperties(mech))

    @pytest.mark.parametrize("ranks, execution", [
        (2, "serial"), (4, "serial"), (2, "parallel")])
    def test_matches_serial_with_live_chemistry(self, mech, ranks,
                                                execution):
        """3 hot-spot steps with direct chemistry agree with the serial
        solver <= 1e-8, driver-stepped and on worker processes."""
        serial = self._serial(mech)
        serial.run(3, self.DT)
        with self._dist(mech, ranks, execution) as dist:
            dist.run(3, self.DT)
            diffs = TestDecomposedSolver()._max_diffs(dist, serial)
        assert all(d <= 1e-8 for d in diffs.values()), diffs

    @pytest.mark.parametrize("ranks, execution", [
        (2, "serial"), (4, "serial"), (2, "parallel")])
    def test_each_rank_advances_its_owned_cells(self, mech, ranks,
                                                execution):
        """Every rank's chemistry batch is exactly its owned rows."""
        with self._dist(mech, ranks, execution) as dist:
            dist.step(self.DT)
            stats = dist.last_backend_stats
            assert [st.n_cells for st in stats] \
                == [sub.n_owned for sub in dist.subs]
        assert sum(st.n_cells for st in stats) == 6 ** 3

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_chemistry_stage_sends_nothing(self, mech, ranks):
        """The chemistry stage adds no message, byte or allreduce to
        the ledger."""
        dist = self._dist(mech, ranks)
        led = dist.comm.ledger
        deltas = []

        def ledgered(method):
            def wrapped(*args, **kwargs):
                before = led.totals()
                out = method(*args, **kwargs)
                deltas.append(led.delta(before))
                return out
            return wrapped

        for r in dist.ranks:
            r.stage_chemistry = ledgered(r.stage_chemistry)
        dist.run(2, self.DT)
        assert len(deltas) == 2 * ranks
        assert all(not any(d.values()) for d in deltas), deltas

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_rank_work_is_its_cells_serial_work(self, mech, ranks):
        """Each rank's measured per-cell work is the serial step's work
        of the same cells, so the per-rank imbalance is the static
        decomposition's: measured, not corrected."""
        from repro.runtime.load_balance import (
            per_rank_imbalance,
            rank_imbalance,
        )

        serial = self._serial(mech)
        serial.step(self.DT)
        w = serial.chemistry.last_backend_stats.work_per_cell
        dist = self._dist(mech, ranks)
        dist.step(self.DT)
        owner = np.empty(w.size, dtype=int)
        for st, sub in zip(dist.last_backend_stats, dist.subs):
            np.testing.assert_array_equal(st.work_per_cell,
                                          w[sub.owned_global])
            owner[sub.owned_global] = sub.rank
        executed = per_rank_imbalance(
            [st.total_work for st in dist.last_backend_stats])
        assert executed == pytest.approx(rank_imbalance(w, ranks, owner))
        assert executed > 0.1

    def test_restore_then_step_is_bitwise(self, mech):
        """On 4 ranks whose chemistry work is skewed, a restored
        snapshot steps to bitwise the same fields and ledgers: the
        chemistry stage keeps no state between steps."""
        from repro.core.deepflame import FIELDS

        dist = self._dist(mech, 4)
        dist.step(self.DT)
        snap = dist.state_snapshot()
        comms = []
        for _ in range(2):
            dist.step(self.DT)
            comms.append(dist.last_comm)
        ref = {name: dist.gather(name) for name in FIELDS}
        dist.restore_state(snap)
        for comm in comms:
            dist.step(self.DT)
            assert dist.last_comm == comm
        for name in FIELDS:
            np.testing.assert_array_equal(dist.gather(name), ref[name], name)
