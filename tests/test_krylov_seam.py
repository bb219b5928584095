"""The linear-solve seam: one ``krylov_solve`` over a *system* -- the
serial ``LocalSystem`` or a ``DistributedSystem`` -- with one
method table behind both, and PCG's symmetry requirement checked by
the seam itself."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.cases import build_tgv_case
from repro.dist.decompose import Decomposition
from repro.dist.krylov import DistributedSystem, solve_distributed
from repro.fv.fields import VolField
from repro.fv.operators import fvm_laplacian
from repro.runtime.comm import SimulatedComm
from repro.solvers import blocked
from repro.solvers.blocked import LocalSystem, krylov_solve
from repro.solvers.controls import SolverControls
from repro.sparse.ldu import LDUMatrix
from tests.conftest import make_laplacian_ldu

ROOT = Path(__file__).resolve().parents[1]

TIGHT = SolverControls(tolerance=1e-12, max_iterations=800)


def _convective(mesh):
    """An asymmetric (PBiCGStab) operator that is a function of the
    mesh alone, so the 1-rank local assembly reproduces the global one."""
    a = make_laplacian_ldu(mesh, shift=0.5)
    a.lower *= 0.7
    return a


class TestOneSeamTwoSystems:
    @pytest.mark.parametrize("solver, operator", [
        ("PBiCGStab", _convective), ("PCG", make_laplacian_ldu)],
        ids=["PBiCGStab", "PCG"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_local_matches_one_rank_distributed(self, box_mesh, k, solver,
                                                operator):
        """Jacobi-preconditioned PBiCGStab (asymmetric operator) and PCG
        (symmetric) through both systems of the same operator: same
        iteration counts, same solution."""
        dec = Decomposition.from_mesh(box_mesh, 1)
        sub, = dec.subdomains
        dist = DistributedSystem(dec, SimulatedComm(1),
                                 [operator(sub.mesh)])
        local = LocalSystem(operator(box_mesh))
        assert (dist.n, dist.nnz) == (local.n, local.nnz)
        b = np.random.default_rng(k).standard_normal((local.n, k))
        x_l, res_l = krylov_solve(local, b, solver=solver, controls=TIGHT)
        x_d, res_d = krylov_solve(dist, b[sub.owned_global], solver=solver,
                                  controls=TIGHT)
        assert all(r.converged for r in res_l)
        assert [r.iterations for r in res_d] == [r.iterations for r in res_l]
        assert np.abs(x_d - x_l[sub.owned_global]).max() \
            <= 1e-12 * np.abs(x_l).max()
        if np.array_equal(sub.owned_global, np.arange(local.n)):
            np.testing.assert_array_equal(x_d, x_l)   # identity numbering

    def test_unknown_names_raise_the_same_error_on_both_paths(self, box_mesh):
        dec = Decomposition.from_mesh(box_mesh, 2)
        system = DistributedSystem(
            dec, SimulatedComm(2),
            [make_laplacian_ldu(s.mesh) for s in dec.subdomains])
        eqn = fvm_laplacian(1.0, VolField("p", box_mesh,
                                          np.zeros(box_mesh.n_cells))) * -1.0
        with pytest.raises(ValueError) as serial:
            eqn.solve(solver="GMRES")
        with pytest.raises(ValueError) as decomposed:
            solve_distributed(system, np.ones((system.n, 1)), solver="GMRES")
        assert str(serial.value) == str(decomposed.value)
        assert repr("GMRES") in str(serial.value)


class TestPcgRequiresSymmetry:
    def test_refused_at_any_size_before_the_body_runs(self, monkeypatch):
        """The check belongs to PCG, not to a preconditioner: a
        50 000-row operator (no size rule picks anything) that is
        asymmetric, or symmetric but holding a NaN, raises before the
        PCG body is entered; PBiCGStab still takes the asymmetric one."""
        n = 50_000
        a = LDUMatrix(n, np.arange(n - 1), np.arange(1, n),
                      np.full(n, 2.5), -np.ones(n - 1), -np.ones(n - 1))
        b = np.ones((n, 1))
        _, (res,) = krylov_solve(LocalSystem(a), b, solver="PCG",
                                 controls=TIGHT)
        assert res.converged

        def entered(*args, **kwargs):
            raise AssertionError("PCG body entered")

        monkeypatch.setitem(blocked._KRYLOV, "PCG", entered)
        a.upper[7] *= 2.0
        with pytest.raises(ValueError, match="symmetric"):
            krylov_solve(LocalSystem(a), b, solver="PCG")
        _, (res,) = krylov_solve(LocalSystem(a), b, solver="PBiCGStab",
                                 controls=TIGHT)
        assert res.converged
        a.upper[7] = a.lower[7] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            krylov_solve(LocalSystem(a), b, solver="PCG")


class TestZeroRightHandSide:
    """A column whose ``b`` is exactly zero is solved by ``x = 0``: it
    gets that solution and retires converged at iteration 0 whatever its
    initial guess, decided from the ``|b|_1`` reduction every body
    already makes, so every rank decides alike and no collective is
    added.  Normalised by the ``1e-300`` floor, its residual would
    otherwise never meet a tolerance."""

    CONTROLS = SolverControls(tolerance=1e-10, max_iterations=200)

    @staticmethod
    def _system(mesh, ranks, operator):
        if ranks == 0:
            return LocalSystem(operator(mesh)), np.arange(mesh.n_cells)
        dec = Decomposition.from_mesh(mesh, ranks)
        system = DistributedSystem(
            dec, SimulatedComm(ranks), [operator(s.mesh) for s in dec.subdomains])
        return system, np.concatenate([s.owned_global for s in dec.subdomains])

    @staticmethod
    def _counted_solve(system, b, x0, solver, controls):
        """The solve and the number of per-column reductions it made
        (each one allreduce on a distributed system)."""
        calls = [0]
        for name in ("coldot", "colsum_abs"):
            inner = getattr(system, name)

            def counted(*args, inner=inner):
                calls[0] += 1
                return inner(*args)

            setattr(system, name, counted)
        try:
            x, res = krylov_solve(system, b, x0=x0, solver=solver,
                                  controls=controls)
        finally:
            for name in ("coldot", "colsum_abs"):
                delattr(system, name)
        return x.copy(), res, calls[0]

    @pytest.mark.parametrize("solver, operator", [
        ("PBiCGStab", _convective), ("PCG", make_laplacian_ldu)],
        ids=["PBiCGStab", "PCG"])
    @pytest.mark.parametrize("ranks", [0, 2], ids=["local", "2-rank"])
    def test_zero_column_is_solved_at_iteration_zero(self, ranks, solver,
                                                     operator):
        """Columns 0 and 2 against the same two solved without column
        1: the same iterates and residuals bit for bit (the ``|b|_1``
        that normalises them is a row sum of the ``(k, n)`` block, the
        same whatever the block width)."""
        mesh = build_tgv_case(n=8).mesh
        system, owned = self._system(mesh, ranks, operator)
        rng = np.random.default_rng(11)
        b = rng.standard_normal((mesh.n_cells, 3))[owned]
        b[:, 1] = 0.0
        x0 = np.full(b.shape, 0.5)
        ledger = system.comm.ledger if ranks else None
        before = ledger.allreduces if ranks else 0
        x, res, reductions = self._counted_solve(
            system, b, x0, solver, self.CONTROLS)
        allreduces = ledger.allreduces - before if ranks else None
        zero = res[1]
        assert (zero.iterations, zero.converged) == (0, True)
        assert zero.initial_residual == zero.final_residual == 0.0
        assert np.array_equal(x[:, 1], np.zeros(len(b)))
        assert not np.signbit(x[:, 1]).any()
        # the other columns are the same solve as without the zero column
        rest = [0, 2]
        before = ledger.allreduces if ranks else 0
        x_rest, res_rest, reductions_rest = self._counted_solve(
            system, b[:, rest], x0[:, rest], solver, self.CONTROLS)
        assert all(r.converged for r in res_rest)
        assert np.array_equal(x[:, rest], x_rest)
        for got, ref in zip((res[0], res[2]), res_rest):
            assert (got.iterations, got.converged, got.flops) == (
                ref.iterations, ref.converged, ref.flops)
            assert got.initial_residual == ref.initial_residual
            assert got.final_residual == ref.final_residual
        assert reductions == reductions_rest
        if ranks:
            assert allreduces == ledger.allreduces - before == reductions


class TestColumnsAreIndependent:
    """A column's solve does not depend on the columns it shares a block
    with: every block is column-major ``(k, n)``, each column one
    contiguous row, and every reduction (``|b|_1``, the residual norms,
    the dots) reduces each row on its own."""

    CONTROLS = SolverControls(tolerance=1e-10, max_iterations=400)

    @pytest.mark.parametrize("solver, operator", [
        ("PBiCGStab", _convective), ("PCG", make_laplacian_ldu)],
        ids=["PBiCGStab", "PCG"])
    @pytest.mark.parametrize("ranks", [0, 2], ids=["local", "2-rank"])
    def test_each_column_is_its_solve_alone(self, ranks, solver, operator):
        """k = 3 with a zero column and a column that retires early,
        on 13 824 cells (past numpy's 8192-element reduction buffer):
        each column equals the same column solved alone, bit for bit --
        ``x``, iterations, initial and final residual and flops."""
        mesh = build_tgv_case(n=24).mesh
        system, owned = TestZeroRightHandSide._system(mesh, ranks, operator)
        rng = np.random.default_rng(12)
        b = rng.standard_normal((mesh.n_cells, 3))[owned]
        b[:, 1] = 0.0
        b[:, 2] = system.matvec_multi(np.full((1, system.n), 0.37))[0]
        x0 = rng.standard_normal(b.shape) * 1e-3
        x, res = krylov_solve(system, b, x0=x0, solver=solver,
                              controls=self.CONTROLS)
        x = x.copy()
        assert all(r.converged for r in res)
        assert res[1].iterations == 0
        assert 0 < res[2].iterations < res[0].iterations
        for j in range(3):
            x_j, (alone,) = krylov_solve(
                system, b[:, j:j + 1], x0=x0[:, j:j + 1], solver=solver,
                controls=self.CONTROLS)
            assert np.array_equal(x[:, j], x_j[:, 0]), j
            got = res[j]
            assert (got.iterations, got.converged, got.flops) == (
                alone.iterations, alone.converged, alone.flops), j
            assert got.initial_residual == alone.initial_residual, j
            assert got.final_residual == alone.final_residual, j


_BLAS_SCRIPT = """
import hashlib
import numpy as np
from repro.dist.decompose import Decomposition
from repro.dist.krylov import DistributedSystem
from repro.mesh.structured import build_box_mesh
from repro.runtime.comm import SimulatedComm
from repro.solvers.blocked import LocalSystem, krylov_solve
from repro.solvers.controls import SolverControls
from tests.conftest import make_laplacian_ldu

mesh = build_box_mesh(35, 35, 35)
b = np.random.default_rng(3).standard_normal((mesh.n_cells, 3))
controls = SolverControls(tolerance=1e-10, max_iterations=400)
dec = Decomposition.from_mesh(mesh, 1)
for system in (LocalSystem(make_laplacian_ldu(mesh)),
               DistributedSystem(dec, SimulatedComm(1),
                                 [make_laplacian_ldu(dec.subdomains[0].mesh)])):
    x, res = krylov_solve(system, b, solver="PCG", controls=controls)
    print(hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest(),
          [r.iterations for r in res], [r.final_residual for r in res])
"""


class TestBlasThreads:
    """A solve's bits do not depend on the BLAS thread count: OpenBLAS
    threads a dot product over rows longer than ~10 000, and a threaded
    dot sums its partials in another order."""

    @staticmethod
    def _run(threads: str) -> str:
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run(
            [sys.executable, "-c", _BLAS_SCRIPT], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=300, check=True).stdout

    def test_solve_bits_do_not_depend_on_blas_threads(self):
        """PCG on a 35^3 = 42 875-cell Laplacian, three columns, serial
        and over a one-rank decomposition: x, iterations and residuals
        are equal bit for bit at one and at two BLAS threads."""
        one, two = self._run("1"), self._run("2")
        assert len(one.splitlines()) == 2
        assert one == two
