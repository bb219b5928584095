"""Distributed Krylov over a decomposition: the split matvec against
the global operator, rebinding a persistent system, ledger-exact
collective counts per iteration, PCG's rank-local precondition and the
zero-warm-allocation invariant of the decomposed driver."""

import numpy as np
import pytest

from repro.core.cases import build_tgv_case
from repro.core.chemistry_source import NoChemistry
from repro.core.properties import IdealGasProperties
from repro.core.settings import SolverSettings
from repro.dist.decompose import Decomposition
from repro.dist.krylov import DistributedSystem, solve_distributed
from repro.dist.solver import DecomposedSolver
from repro.runtime import alloc
from repro.runtime.comm import SimulatedComm
from repro.solvers.controls import SolverControls
from repro.solvers.workspace import KrylovWorkspace
from tests import face_oracle
from tests.conftest import (checkerboard_parts, make_laplacian_ldu,
                            make_random_spd_ldus)

#: converge far below the 1e-8 agreement gates
TIGHT = SolverControls(tolerance=1e-12, max_iterations=800)


def _make_system(mesh, nparts):
    """A DistributedSystem over per-rank Laplacians whose owned rows
    reproduce the global ``make_laplacian_ldu(mesh)`` exactly (owned
    cells carry all their internal faces locally)."""
    dec = Decomposition.from_mesh(mesh, nparts)
    comm = SimulatedComm(nparts)
    mats = [make_laplacian_ldu(s.mesh) for s in dec.subdomains]
    return DistributedSystem(dec, comm, mats)


def _stacked_reference(mesh, dec, x):
    """Global-operator product of a *stacked* ``(N, k)`` block,
    restacked."""
    owned = np.concatenate([s.owned_global for s in dec.subdomains])
    xg = np.empty_like(x)
    xg[owned] = x
    return make_laplacian_ldu(mesh).matvec_multi(xg)[owned]


class TestSplitMatvec:
    @pytest.mark.parametrize("nparts", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("mesh_name", ["box_mesh", "periodic_mesh"])
    def test_matvec_matches_global_operator(self, mesh_name, nparts,
                                            request):
        mesh = request.getfixturevalue(mesh_name)
        system = _make_system(mesh, nparts)
        x = np.random.default_rng(1).normal(size=(3, system.n))
        y = system.matvec_multi(x)
        ref = _stacked_reference(mesh, system.decomp, x.T)
        np.testing.assert_allclose(y, ref.T, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("nparts", [2, 3, 5])
    @pytest.mark.parametrize("mesh_name",
                             ["box_mesh", "periodic_mesh", "rocket_mesh"])
    def test_matvec_halves_match_bincount_spelling(self, mesh_name, nparts,
                                                   request):
        """The interior-block CSR and the cut-face CSR vs the parent's
        per-column ``np.bincount`` loops (``tests/face_oracle.py``), on
        asymmetric random coefficients: <= 1e-14 (the CSR rows add in
        column order, the bincounts upper triangle first)."""
        mesh = request.getfixturevalue(mesh_name)
        dec = Decomposition.from_mesh(mesh, nparts)
        rng = np.random.default_rng(5)
        mats = make_random_spd_ldus(dec, rng)
        for m in mats:
            m.lower[:] = -(0.5 + rng.random(m.lower.size))
        system = DistributedSystem(dec, SimulatedComm(nparts), mats)
        for op in system.ops:
            loc = rng.normal(size=(4, op.sub.n_local))
            interior = np.empty((4, op.sub.n_owned))
            op.apply_interior(loc, interior)
            total = interior.copy()
            op.apply_boundary(loc, total)
            ref_i, ref_b = face_oracle.rank_matvec_halves(op, loc.T)
            scale = np.abs(ref_i).max()
            assert np.abs(interior - ref_i.T).max() <= 1e-14 * scale
            assert np.abs(total - interior - ref_b.T).max() \
                <= 1e-14 * scale

    @pytest.mark.parametrize("nparts", [2, 3, 4, 8])
    def test_matvec_halo_ledger(self, box_mesh, nparts):
        """One matvec is one exchange: a message per neighbour pair
        and direction, no allreduce."""
        system = _make_system(box_mesh, nparts)
        expected = sum(len(s.send) for s in system.decomp.subdomains)
        before = system.comm.ledger.totals()
        system.matvec_multi(np.ones((1, system.n)))
        d = system.comm.ledger.delta(before)
        assert d["exchanges"] == 1
        assert d["messages"] == expected
        assert d["allreduces"] == 0

    @pytest.mark.parametrize("nparts", [2, 3])
    def test_rebinding_follows_the_coefficients(self, box_mesh, nparts):
        """``bind`` re-gathers the CSR values: the same system, re-bound
        to mutated matrices, multiplies with the new ones."""
        system = _make_system(box_mesh, nparts)
        x = np.random.default_rng(6).normal(size=(2, system.n))
        y = system.matvec_multi(x).copy()
        for m in system.mats:
            m.diag *= 2.0
            m.upper *= 2.0
            m.lower *= 2.0
        system.bind(system.mats)
        np.testing.assert_array_equal(system.matvec_multi(x), 2.0 * y)

    @pytest.mark.parametrize("nparts", [2, 3])
    @pytest.mark.parametrize("solver", ["PCG", "PBiCGStab"])
    def test_rebound_system_is_a_fresh_one_bitwise(self, box_mesh, solver,
                                                   nparts):
        """One persistent system re-bound to new matrices solves
        bitwise like a system freshly built on them, and -- once warm
        -- without a tracked allocation."""
        rng = np.random.default_rng(7)
        dec = Decomposition.from_mesh(box_mesh, nparts)
        comm = SimulatedComm(nparts)
        ws = KrylovWorkspace()
        kept = DistributedSystem(dec, comm, make_random_spd_ldus(dec, rng))
        b = rng.normal(size=(kept.n, 3))
        solve_distributed(kept, b, solver=solver, controls=TIGHT,
                          workspace=ws)   # sizes buffers
        for _ in range(2):
            mats = make_random_spd_ldus(dec, rng)
            before = alloc.snapshot()
            kept.bind(mats)
            x, results = solve_distributed(kept, b, solver=solver,
                                           controls=TIGHT, workspace=ws)
            assert alloc.snapshot() == before
            x_new, results_new = solve_distributed(
                DistributedSystem(dec, comm, mats), b, solver=solver,
                controls=TIGHT)
            np.testing.assert_array_equal(x, x_new)
            assert [r.iterations for r in results] \
                == [r.iterations for r in results_new]


class TestCollectiveCounts:
    """Ledger-exact allreduce/exchange counts per Krylov iteration.

    ``tolerance=0`` keeps every column running all ``N`` iterations,
    so the counts are deterministic: PCG makes 3 allreduces and one
    matvec per iteration, PBiCGStab 6 and two, plus the setup's
    ``r0 = b - A x0`` matvec, the ``|b|`` and ``|r0|`` norms and, for
    PCG, the first ``(r, z)``.
    """

    N = 5
    FIXED = SolverControls(tolerance=0.0, max_iterations=N)

    def _run(self, mesh, nparts, solver):
        system = _make_system(mesh, nparts)
        b = np.random.default_rng(3).normal(size=(system.n, 2))
        before = system.comm.ledger.totals()
        _, results = solve_distributed(system, b, solver=solver,
                                       controls=self.FIXED)
        assert all(r.iterations == self.N and not r.converged
                   for r in results)
        return system.comm.ledger.delta(before)

    @pytest.mark.parametrize("nparts", [2, 3, 4])
    @pytest.mark.parametrize("mesh_name", ["box_mesh", "periodic_mesh"])
    def test_pcg(self, mesh_name, nparts, request):
        d = self._run(request.getfixturevalue(mesh_name), nparts, "PCG")
        assert d["allreduces"] == 3 + 3 * self.N
        assert d["exchanges"] == 1 + self.N

    @pytest.mark.parametrize("nparts", [2, 3, 4])
    @pytest.mark.parametrize("mesh_name", ["box_mesh", "periodic_mesh"])
    def test_pbicgstab(self, mesh_name, nparts, request):
        d = self._run(request.getfixturevalue(mesh_name), nparts,
                      "PBiCGStab")
        assert d["allreduces"] == 2 + 6 * self.N
        assert d["exchanges"] == 1 + 2 * self.N


class TestWarmAllocations:
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_zero_warm_solve_allocations(self, mech, ranks):
        """After the first step sized every persistent buffer, warm
        distributed solves perform zero tracked allocations -- the
        Jacobi preconditioner's reciprocal diagonal included, which
        lives in the persistent system and is refilled in place."""
        solver = DecomposedSolver(
            build_tgv_case(n=6, mech=mech), SolverSettings(ranks=ranks),
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        solver.step(1e-8)   # sizes scratch buffers and the workspace
        r_diag = solver._system._bufs[("rdiag",)]
        for _ in range(3):
            solver.step(1e-8)
            assert solver.last_timings.alloc_solving == 0
        assert solver._system._bufs[("rdiag",)] is r_diag
        want = np.concatenate([op.mat.diag[:op.sub.n_owned]
                               for op in solver._system.ops])
        assert np.array_equal(r_diag, 1.0 / want)


class TestDistributedPCG:
    """PCG on a distributed system: the rank-local symmetry check and
    Jacobi preconditioning on any partition."""

    def test_asymmetric_block_rejected(self, box_mesh):
        """One rank's owned block is asymmetric, or symmetric with a
        NaN: PCG refuses before the first iteration, rank-locally --
        no allreduce and no halo message has been made."""
        system = _make_system(box_mesh, 2)
        face = system.ops[1].interior[0]
        m = system.mats[1]
        m.upper[face] *= 2.0
        with pytest.raises(ValueError, match="symmetric"):
            solve_distributed(system, np.ones((system.n, 1)), solver="PCG")
        m.upper[face] = m.lower[face] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            solve_distributed(system, np.ones((system.n, 1)), solver="PCG")
        assert system.comm.ledger.allreduces == 0
        assert system.comm.ledger.messages == 0

    def test_checkerboard_partition_pcg_converges(self, box_mesh):
        """Owned cells that share no face (every coupling is a cut
        face): PCG still converges to the global operator's solution."""
        dec = Decomposition.from_mesh(box_mesh, 2,
                                      parts=checkerboard_parts(box_mesh))
        mats = [make_laplacian_ldu(s.mesh) for s in dec.subdomains]
        system = DistributedSystem(dec, SimulatedComm(2), mats)
        assert all(op.interior.size == 0 for op in system.ops)
        rng = np.random.default_rng(0)
        b = rng.standard_normal((system.n, 2))
        x, results = solve_distributed(system, b, solver="PCG",
                                       controls=TIGHT)
        assert all(res.converged for res in results)
        assert np.abs(_stacked_reference(box_mesh, dec, x) - b).max() <= 1e-9
