"""Unit tests: LDU/block-CSR formats, smoothers, Krylov + GAMG solvers."""

from functools import partial

import numpy as np
import pytest

from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.renumber import partition_renumbering
from repro.partition.partitioner import partition_graph
from repro.solvers.blocked import pbicgstab_solve_multi, pcg_solve_multi
from repro.solvers.controls import SolverControls
from repro.solvers.gamg import GAMGSolver, agglomerate
from repro.solvers.preconditioners import (
    DICPreconditioner,
    JacobiPreconditioner,
    SymGaussSeidelPreconditioner,
)
from repro.sparse.convert import build_block_converter
from repro.sparse.gauss_seidel import gauss_seidel_block, gauss_seidel_csr
from repro.sparse.ldu import LDUMatrix
from repro.sparse.spmv import spmv_cost, spmv_ldu, spmv_ldu_multi
from repro.sparse.pattern import CSRPattern
from tests.conftest import (
    EXACT_ATOL,
    EXACT_RTOL,
    LOOSE_SOLVE_ATOL,
    MATVEC_ATOL,
    MATVEC_RTOL,
    RESIDUAL_ATOL,
    SOLVE_ATOL,
    SWEEP_RTOL,
    make_laplacian_ldu,
)
from tests.krylov_oracle import solve_k1

# the scalar calling convention over the one Krylov family: k = 1
pcg_solve = partial(solve_k1, pcg_solve_multi)
pbicgstab_solve = partial(solve_k1, pbicgstab_solve_multi)


@pytest.fixture(scope="module")
def renumbered_setup(box_mesh):
    g = cell_graph_from_mesh(box_mesh)
    mem = partition_graph(g, 4)
    perm = partition_renumbering(g, mem)
    mesh2 = box_mesh.renumbered(perm)
    thread_of_row = mem[np.argsort(perm)]
    ldu = make_laplacian_ldu(mesh2)
    conv = build_block_converter(ldu, thread_of_row)
    return ldu, conv, conv.convert(ldu)


class TestLDU:
    def test_matvec_matches_csr(self, spd_ldu):
        x = np.random.default_rng(0).random(spd_ldu.n)
        np.testing.assert_allclose(spd_ldu.matvec(x), spd_ldu.to_csr() @ x,
                                   rtol=MATVEC_RTOL, atol=MATVEC_ATOL)

    def test_spmv_entry_points_are_one_kernel(self, spd_ldu):
        """``spmv_ldu`` / ``spmv_ldu_multi`` are ``matvec`` /
        ``matvec_multi`` bit for bit, and that kernel is the CSR
        product."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(spd_ldu.n)
        xm = rng.standard_normal((spd_ldu.n, 4))
        assert np.array_equal(spmv_ldu(spd_ldu, x), spd_ldu.matvec(x))
        assert np.array_equal(spmv_ldu_multi(spd_ldu, xm),
                              spd_ldu.matvec_multi(xm))
        np.testing.assert_allclose(spd_ldu.matvec_multi(xm),
                                   spd_ldu.to_csr() @ xm, rtol=EXACT_RTOL)

    def test_asymmetric_matvec(self, box_mesh):
        ldu = make_laplacian_ldu(box_mesh)
        ldu.lower[:] = -0.5  # asymmetric
        x = np.random.default_rng(1).random(ldu.n)
        np.testing.assert_allclose(ldu.matvec(x), ldu.to_csr() @ x,
                                   rtol=MATVEC_RTOL, atol=MATVEC_ATOL)

    def test_symmetry_detection(self, box_mesh):
        ldu = make_laplacian_ldu(box_mesh)
        assert ldu.is_symmetric()
        ldu.lower[0] += 1.0
        assert not ldu.is_symmetric()

    def test_addition(self, box_mesh):
        a = make_laplacian_ldu(box_mesh)
        b = make_laplacian_ldu(box_mesh)
        c = a + b
        x = np.random.default_rng(2).random(a.n)
        np.testing.assert_allclose(c.matvec(x), 2 * a.matvec(x),
                                   rtol=EXACT_RTOL)

    def test_residual(self, spd_ldu):
        x = np.ones(spd_ldu.n)
        b = spd_ldu.matvec(x)
        assert np.abs(spd_ldu.residual(x, b)).max() < RESIDUAL_ATOL

    def test_nnz(self, spd_ldu):
        assert spd_ldu.nnz == spd_ldu.n + 2 * spd_ldu.n_faces

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LDUMatrix(4, np.array([0, 1]), np.array([1]))


def _random_ldu(mesh, seed):
    """Asymmetric, diagonally dominant LDU with random coefficients."""
    rng = np.random.default_rng(seed)
    ldu = LDUMatrix.from_mesh(mesh)
    ldu.diag[:] = rng.uniform(4.0, 8.0, ldu.n)
    ldu.upper[:] = rng.uniform(-1.0, 0.0, ldu.n_faces)
    ldu.lower[:] = rng.uniform(-1.0, 0.0, ldu.n_faces)
    return ldu


def _in_float64(ldu, dtype):
    """``ldu`` with its coefficients rounded to ``dtype``, held in fp64:
    the operator a kernel computing in ``dtype`` applies."""
    out = LDUMatrix(ldu.n, ldu.owner, ldu.neighbour)
    for name in ("diag", "upper", "lower"):
        getattr(out, name)[:] = getattr(ldu, name).astype(dtype)
    return out


class TestSpmvAgainstCSR:
    @pytest.mark.parametrize("shape", ["vector", "one-column", "block"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_scipy_product(self, topology_mesh, dtype, shape):
        """The face loop in the dtype of ``x`` against scipy's fp64 CSR
        product of the same (rounded) operator, within the textbook
        dot-product bound ``row_nnz * eps * (|A| |x|)``; a block's
        columns are the vector kernel's results bit for bit."""
        ldu = _random_ldu(topology_mesh, seed=31)
        k = {"vector": None, "one-column": 1, "block": 4}[shape]
        x = np.random.default_rng(32).standard_normal(
            (ldu.n,) if k is None else (ldu.n, k)).astype(dtype)
        y = spmv_ldu(ldu, x)
        assert y.dtype == dtype and y.shape == x.shape
        a = _in_float64(ldu, dtype).to_csr()
        x64 = x.astype(np.float64)
        ref, mag = a @ x64, abs(a) @ np.abs(x64)
        row_nnz = np.diff(a.indptr).max()
        assert (np.abs(y - ref) <= row_nnz * np.finfo(dtype).eps * mag).all()
        if k is not None:
            for j in range(k):
                assert np.array_equal(
                    y[:, j], spmv_ldu(ldu, np.ascontiguousarray(x[:, j])))


class TestCSRPattern:
    @pytest.fixture(params=["plain", "periodic", "rocket"])
    def pattern_and_ldu(self, request, box_mesh, periodic_mesh, rocket_mesh):
        """Both fill paths: the inverse gather (no duplicate slots) and
        the accumulating scatter (periodic meshes produce duplicate
        (row, col) pairs); the rocket sector is the unstructured case."""
        mesh = {"plain": box_mesh, "periodic": periodic_mesh,
                "rocket": rocket_mesh}[request.param]
        return CSRPattern.from_mesh(mesh), make_laplacian_ldu(mesh)

    def test_patterned_csr_matches_fresh_conversion(self, pattern_and_ldu):
        """``to_csr(pattern=)`` is ``fill_values`` kept in the pattern's
        persistent buffer, and equals a fresh scipy conversion."""
        pattern, ldu = pattern_and_ldu
        csr = ldu.to_csr(pattern=pattern)
        data = pattern.fill_values(ldu.diag, ldu.upper, ldu.lower)
        assert np.array_equal(data, csr.data)
        assert np.shares_memory(csr.data, pattern.fill(ldu))
        ref = ldu.to_csr()
        ref.sort_indices()
        assert np.array_equal(csr.indices, ref.indices)
        np.testing.assert_allclose(csr.data, ref.data, rtol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fill_values_in_the_coefficients_dtype(self, pattern_and_ldu,
                                                   dtype):
        """Random asymmetric coefficients in ``dtype``: the values come
        back in that dtype, in the slots of a fresh fp64 scipy
        conversion, equal up to the rounding of summed duplicates."""
        pattern, ldu = pattern_and_ldu
        rng = np.random.default_rng(33)
        diag, upper, lower = (rng.standard_normal(m).astype(dtype)
                              for m in (ldu.n, ldu.n_faces, ldu.n_faces))
        data = pattern.fill_values(diag, upper, lower)
        assert data.dtype == dtype
        ref_ldu = LDUMatrix(ldu.n, ldu.owner, ldu.neighbour)
        ref_ldu.diag[:], ref_ldu.upper[:], ref_ldu.lower[:] = \
            diag, upper, lower
        ref = ref_ldu.to_csr()
        ref.sort_indices()
        assert np.array_equal(ldu.to_csr(pattern=pattern).indices,
                              ref.indices)
        scale = np.abs(ref.data).max()
        assert np.abs(data - ref.data).max() \
            <= 4 * np.finfo(dtype).eps * scale


class TestBlockCSR:
    def test_matvec_matches_global(self, renumbered_setup):
        ldu, conv, blk = renumbered_setup
        x = np.random.default_rng(3).random(ldu.n)
        np.testing.assert_allclose(blk.matvec(x), ldu.matvec(x),
                                   rtol=MATVEC_RTOL)

    def test_to_csr_roundtrip(self, renumbered_setup):
        ldu, _, blk = renumbered_setup
        assert np.abs((blk.to_csr() - ldu.to_csr())).max() < EXACT_ATOL

    def test_value_update_fast_path(self, renumbered_setup):
        ldu, conv, _ = renumbered_setup
        blk = conv.convert(ldu)  # local copy: update_values mutates it
        ldu2 = ldu.copy()
        ldu2.diag *= 2.0
        ldu2.upper *= 3.0
        ldu2.lower *= 3.0
        conv.update_values(blk, ldu2)
        x = np.random.default_rng(4).random(ldu.n)
        np.testing.assert_allclose(blk.matvec(x), ldu2.matvec(x),
                                   rtol=MATVEC_RTOL)

    def test_nnz_per_thread_balanced(self, renumbered_setup):
        """Sec. 3.2.3's load statistic: threads get similar nnz."""
        _, _, blk = renumbered_setup
        nnz = blk.nnz_per_thread()
        assert nnz.max() / nnz.mean() < 1.25

    def test_offdiag_fraction_small(self, renumbered_setup):
        _, _, blk = renumbered_setup
        assert blk.offdiag_nnz_fraction() < 0.20

    def test_requires_grouped_rows(self, box_mesh):
        ldu = make_laplacian_ldu(box_mesh)
        bad = np.zeros(ldu.n, dtype=int)
        bad[::2] = 1  # interleaved threads
        with pytest.raises(ValueError, match="grouped"):
            build_block_converter(ldu, bad)

    def test_total_nnz_preserved(self, renumbered_setup):
        ldu, _, blk = renumbered_setup
        assert int(blk.nnz_per_thread().sum()) == ldu.nnz

    def test_matvec_flops(self, renumbered_setup):
        ldu, _, blk = renumbered_setup
        assert blk.matvec_flops() == 2 * ldu.nnz


class TestGaussSeidel:
    def test_serial_gs_converges(self, spd_ldu):
        a = spd_ldu.to_csr()
        b = np.ones(spd_ldu.n)
        x1 = gauss_seidel_csr(a, b, np.zeros_like(b), sweeps=5)
        x = gauss_seidel_csr(a, b, np.zeros_like(b), sweeps=80)
        r1 = np.linalg.norm(b - a @ x1)
        r = np.linalg.norm(b - a @ x)
        assert r < 0.05 * np.linalg.norm(b)
        assert r < r1  # monotone contraction

    def test_block_gs_converges(self, renumbered_setup):
        ldu, _, blk = renumbered_setup
        a = ldu.to_csr()
        b = np.ones(ldu.n)
        x = gauss_seidel_block(blk, b, np.zeros_like(b), sweeps=80)
        assert np.linalg.norm(b - a @ x) < 0.05 * np.linalg.norm(b)

    def test_block_gs_penalty_small(self, renumbered_setup):
        """The paper's claim: neglecting cross-thread couplings costs
        <~ a fraction of a percent of residual reduction per sweep."""
        ldu, _, blk = renumbered_setup
        from repro.sparse.gauss_seidel import SmootherStats

        stats = SmootherStats(ldu, blk)
        b = np.random.default_rng(5).random(ldu.n)
        hs, hb = stats.residual_histories(b, np.zeros_like(b), 10)
        # block GS converges, and its per-sweep contraction is within
        # 10 % of the serial one on this strongly diagonal-block system
        rate_s = (hs[-1] / hs[0]) ** (1 / 9)
        rate_b = (hb[-1] / hb[0]) ** (1 / 9)
        assert rate_b < 1.0
        assert rate_b <= rate_s * 1.10

    def test_gs_exact_on_lower_triangular(self, box_mesh):
        ldu = make_laplacian_ldu(box_mesh)
        ldu.upper[:] = 0.0  # (D+L) only: one sweep is a direct solve
        a = ldu.to_csr()
        b = np.random.default_rng(6).random(ldu.n)
        x = gauss_seidel_csr(a, b, np.zeros_like(b), sweeps=1)
        np.testing.assert_allclose(a @ x, b, rtol=SWEEP_RTOL)


class TestKrylov:
    def test_pcg_solves_spd(self, spd_ldu):
        x_ref = np.random.default_rng(7).random(spd_ldu.n)
        b = spd_ldu.matvec(x_ref)
        x, res = pcg_solve(spd_ldu, b,
                           controls=SolverControls(tolerance=1e-12,
                                                   max_iterations=500))
        assert res.converged
        np.testing.assert_allclose(x, x_ref, atol=SOLVE_ATOL)

    def test_dic_beats_jacobi(self, spd_ldu):
        b = np.random.default_rng(8).random(spd_ldu.n)
        ctl = SolverControls(tolerance=1e-10, max_iterations=500)
        _, r_j = pcg_solve(spd_ldu, b,
                           preconditioner=JacobiPreconditioner(spd_ldu).apply,
                           controls=ctl)
        _, r_d = pcg_solve(spd_ldu, b,
                           preconditioner=DICPreconditioner(spd_ldu).apply,
                           controls=ctl)
        assert r_d.iterations < r_j.iterations

    def test_dic_rejects_asymmetric(self, box_mesh):
        ldu = make_laplacian_ldu(box_mesh)
        ldu.lower[:] = -0.3
        with pytest.raises(ValueError):
            DICPreconditioner(ldu)

    def test_sym_gs_preconditioner(self, renumbered_setup):
        ldu, _, blk = renumbered_setup
        b = np.random.default_rng(9).random(ldu.n)
        ctl = SolverControls(tolerance=1e-10, max_iterations=500)
        pre = SymGaussSeidelPreconditioner(ldu)
        _, res = pcg_solve(ldu, b, preconditioner=pre.apply, controls=ctl)
        assert res.converged
        pre_b = SymGaussSeidelPreconditioner(ldu, block=blk, mode="block")
        _, res_b = pcg_solve(ldu, b, preconditioner=pre_b.apply, controls=ctl)
        assert res_b.converged

    def test_pbicgstab_asymmetric(self, box_mesh):
        ldu = make_laplacian_ldu(box_mesh, shift=0.5)
        ldu.lower *= 0.7  # convection-like asymmetry
        x_ref = np.random.default_rng(10).random(ldu.n)
        b = ldu.matvec(x_ref)
        x, res = pbicgstab_solve(ldu, b,
                                 controls=SolverControls(tolerance=1e-12,
                                                         max_iterations=500))
        assert res.converged
        np.testing.assert_allclose(x, x_ref, atol=LOOSE_SOLVE_ATOL)

    def test_zero_rhs_immediate(self, spd_ldu):
        x, res = pcg_solve(spd_ldu, np.zeros(spd_ldu.n))
        assert res.iterations == 0
        assert np.abs(x).max() == 0.0

    def test_flops_counted(self, spd_ldu):
        b = np.ones(spd_ldu.n)
        _, res = pcg_solve(spd_ldu, b)
        assert res.flops > res.iterations * 2 * spd_ldu.nnz

    def test_matvec_override(self, renumbered_setup):
        """PCG through the block-CSR kernel gives the same answer."""
        ldu, _, blk = renumbered_setup
        b = np.random.default_rng(11).random(ldu.n)
        ctl = SolverControls(tolerance=1e-12, max_iterations=500)
        x1, _ = pcg_solve(ldu, b, controls=ctl)
        x2, _ = pcg_solve(ldu, b, controls=ctl, matvec=blk.matvec)
        np.testing.assert_allclose(x1, x2, atol=SOLVE_ATOL)


class TestGAMG:
    def test_agglomeration_halves(self, spd_ldu):
        mapping = agglomerate(spd_ldu.to_csr())
        nc = mapping.max() + 1
        assert spd_ldu.n * 0.45 < nc < spd_ldu.n * 0.7

    def test_gamg_converges_fast(self, box_mesh):
        ldu = make_laplacian_ldu(box_mesh, shift=0.05)
        x_ref = np.random.default_rng(12).random(ldu.n)
        b = ldu.matvec(x_ref)
        solver = GAMGSolver(ldu)
        x, res = solver.solve(b, controls=SolverControls(tolerance=1e-10,
                                                         max_iterations=50))
        assert res.converged
        assert res.iterations < 25
        np.testing.assert_allclose(x, x_ref, atol=LOOSE_SOLVE_ATOL)

    def test_gamg_has_multiple_levels(self, spd_ldu):
        solver = GAMGSolver(spd_ldu, n_coarsest=8)
        assert len(solver.levels) >= 3

    def test_gamg_with_block_smoother(self, renumbered_setup):
        ldu, _, blk = renumbered_setup
        b = np.random.default_rng(13).random(ldu.n)
        solver = GAMGSolver(ldu, block=blk)
        x, res = solver.solve(b, controls=SolverControls(tolerance=1e-9,
                                                         max_iterations=60))
        assert res.converged
        np.testing.assert_allclose(ldu.matvec(x), b, atol=LOOSE_SOLVE_ATOL)

    def test_gamg_mesh_independent_iterations(self):
        """Iteration count grows slowly with resolution (MG property)."""
        from repro.mesh.structured import build_box_mesh

        iters = []
        for n in (6, 12):
            mesh = build_box_mesh(n, n, n)
            ldu = make_laplacian_ldu(mesh, shift=0.01)
            b = np.ones(ldu.n)
            _, res = GAMGSolver(ldu).solve(
                b, controls=SolverControls(tolerance=1e-8, max_iterations=60))
            iters.append(res.iterations)
        assert iters[1] <= iters[0] + 6


class TestSpmvCost:
    def test_bandwidth_bound(self):
        cost = spmv_cost(nnz=7_000, n=1_000)
        assert cost.arithmetic_intensity < 0.2  # flops/byte

    def test_scaling(self):
        c1 = spmv_cost(7_000, 1_000)
        c2 = spmv_cost(14_000, 2_000)
        assert c2.flops == 2 * c1.flops
