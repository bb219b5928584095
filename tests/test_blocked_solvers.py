"""Blocked multi-RHS solver stack: multi-vector kernels, blocked
PBiCGStab/PCG vs column-by-column references (property-based),
MultiVolField and the shared-operator CoupledTransportEquation."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fv.boundary import FixedValue, ZeroGradient
from repro.fv.fields import MultiVolField, SurfaceField, VolField
from repro.fv.operators import (
    CoupledTransportEquation,
    fvm_ddt,
    fvm_div,
    fvm_laplacian,
)
from repro.mesh.structured import build_box_mesh
from repro.solvers.blocked import (
    LocalSystem,
    pbicgstab_solve_multi,
    pcg_solve_multi,
)
from repro.sparse.spmv import ROWWISE_MAX
from repro.solvers.controls import SolverControls
from repro.solvers.preconditioners import (
    CachedDICPreconditioner,
    DICPreconditioner,
    JacobiPreconditioner,
    SymGaussSeidelPreconditioner,
)
from repro.solvers.workspace import KrylovWorkspace
from repro.sparse.spmv import spmv_ldu_multi
from tests.conftest import SOLVE_ATOL, make_laplacian_ldu, make_random_spd_ldu
from tests.krylov_oracle import ldu_system
from tests.krylov_oracle import oracle_pbicgstab_solve as pbicgstab_solve
from tests.krylov_oracle import oracle_pcg_solve as pcg_solve

SETTINGS = dict(deadline=None, max_examples=20,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])
TIGHT = SolverControls(tolerance=1e-13, max_iterations=800)


def _rhs_block(n, k, seed, zero_col):
    """Random RHS block; optionally one all-zero column so the blocked
    solve exercises the converged-at-iteration-0 masking path."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, k))
    # spread the column scales; convergence is b-normalized, so this
    # checks the per-column normalization rather than difficulty
    b *= np.logspace(0.0, 1.0, k)
    if zero_col:
        b[:, 0] = 0.0
    return b


class TestMultiVectorKernels:
    def test_matvec_multi_matches_columns(self, spd_ldu):
        x = np.random.default_rng(0).random((spd_ldu.n, 5))
        y = spd_ldu.matvec_multi(x)
        for j in range(5):
            np.testing.assert_allclose(y[:, j], spd_ldu.matvec(x[:, j]),
                                       rtol=1e-13)

    def test_matvec_multi_1d_passthrough(self, spd_ldu):
        x = np.random.default_rng(1).random(spd_ldu.n)
        np.testing.assert_allclose(spd_ldu.matvec_multi(x),
                                   spd_ldu.matvec(x), rtol=1e-14)

    def test_spmv_ldu_multi(self, spd_ldu):
        x = np.random.default_rng(2).random((spd_ldu.n, 3))
        np.testing.assert_allclose(spmv_ldu_multi(spd_ldu, x),
                                   spd_ldu.matvec_multi(x), rtol=1e-14)

    def test_symmetry_cache(self, box_mesh):
        ldu = make_laplacian_ldu(box_mesh)
        assert ldu.is_symmetric_cached()
        ldu.lower[0] += 1.0
        # cached answer is stale by design until invalidated ...
        assert ldu.is_symmetric_cached()
        ldu.invalidate_symmetry_cache()
        assert not ldu.is_symmetric_cached()
        # ... while the plain check always recomputes
        assert not ldu.is_symmetric()


class TestLocalSystemReductions:
    def test_reductions_are_row_dot_and_l1(self, spd_ldu):
        """On ``(k, n)`` blocks: one dot and one L1 sum per row."""
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 5, 400))
        system = LocalSystem(spd_ldu)
        assert np.array_equal(system.coldot(a, b), np.vecdot(a, b))
        assert np.array_equal(system.colsum_abs(a), np.abs(a).sum(axis=1))

    @pytest.mark.parametrize("n", [400, 20_000])
    def test_a_row_reduces_alone(self, spd_ldu, n):
        """Row ``j`` of each reduction and of the product is that row
        reduced (multiplied) on its own, bit for bit, past numpy's
        8192-element buffer too -- where ``einsum("ij,ij->i")`` is not
        -- and on either side of the row-by-row / one-product switch."""
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, ROWWISE_MAX + 3, n))
        system = LocalSystem(spd_ldu)
        dot, l1 = system.coldot(a, b), system.colsum_abs(a)
        for j in range(a.shape[0]):
            one = slice(j, j + 1)
            assert dot[j] == system.coldot(a[one], b[one])[0]
            assert l1[j] == system.colsum_abs(a[one])[0]
        x = rng.standard_normal((ROWWISE_MAX + 3, spd_ldu.n))
        y = system.matvec_multi(x)
        for k in (1, ROWWISE_MAX, ROWWISE_MAX + 1):
            assert np.array_equal(system.matvec_multi(x[:k]), y[:k])

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_reductions_track_the_exact_sums(self, spd_ldu, dt, k):
        """In the operands' dtype, within the recursive-summation bound
        ``n eps sum|terms|`` of ``math.fsum``'s correctly rounded sums."""
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((2, k, 400)).astype(dt)
        system = LocalSystem(spd_ldu)
        dot, l1 = system.coldot(a, b), system.colsum_abs(a)
        assert dot.dtype == dt and l1.dtype == dt and dot.shape == (k,)
        gamma = a.shape[1] * np.finfo(dt).eps
        prods = a.astype(np.float64) * b.astype(np.float64)
        for j in range(k):
            mag = np.abs(prods[j]).sum()
            assert abs(dot[j] - math.fsum(prods[j])) <= gamma * mag
            exact = math.fsum(np.abs(a[j].astype(np.float64)))
            assert abs(l1[j] - exact) <= gamma * exact


class TestPreconditionersMulti:
    def test_jacobi_apply_multi(self, spd_ldu):
        r = np.random.default_rng(3).random((4, spd_ldu.n))
        pre = JacobiPreconditioner(spd_ldu)
        w = pre.apply_multi(r)
        for j in range(4):
            np.testing.assert_allclose(w[j], pre.apply(r[j]), rtol=1e-14)

    def test_dic_apply_multi(self, spd_ldu):
        r = np.random.default_rng(4).random((4, spd_ldu.n))
        pre = DICPreconditioner(spd_ldu)
        w = pre.apply_multi(r)
        for j in range(4):
            np.testing.assert_allclose(w[j], pre.apply(r[j].copy()),
                                       rtol=1e-12)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_jacobi_is_the_reciprocal_diagonal(self, spd_ldu, dt):
        rng = np.random.default_rng(6)
        pre = JacobiPreconditioner(spd_ldu)
        rd = (1.0 / spd_ldu.diag).astype(dt)
        for shape in ((spd_ldu.n,), (3, spd_ldu.n)):
            r = rng.standard_normal(shape).astype(dt)
            w = pre.apply_multi(r)
            assert w.dtype == dt, "silent dtype upcast"
            assert np.array_equal(w, r * rd)
            assert np.array_equal(pre.apply(r), w)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_cached_dic_matches_sequential(self, spd_ldu, dt):
        """The wavefront DIC is the sequential face-loop DIC bit for
        bit, in the residual's dtype."""
        rng = np.random.default_rng(7)
        pre = CachedDICPreconditioner(spd_ldu)
        oracle = DICPreconditioner(spd_ldu)
        for shape in ((spd_ldu.n,), (3, spd_ldu.n)):
            r = rng.standard_normal(shape).astype(dt)
            w = pre.apply_multi(r)
            assert w.dtype == dt, "silent dtype upcast"
            if dt is np.float64:
                assert np.array_equal(w, oracle.apply_multi(r))
                assert np.array_equal(pre.apply(r.copy()),
                                      oracle.apply_multi(r))

    def test_dic_apply_multi_writes_into_the_callers_view(self, spd_ldu):
        """``out`` may be one cell slice of a larger stacked block."""
        rng = np.random.default_rng(13)
        pre = CachedDICPreconditioner(spd_ldu)
        r = rng.standard_normal((3, spd_ldu.n))
        stacked = np.full((3, spd_ldu.n + 5), np.nan)
        view = stacked[:, 5:]
        w = pre.apply_multi(r, out=view)
        assert np.shares_memory(w, stacked)
        assert np.array_equal(view, pre.apply_multi(r))
        assert np.isnan(stacked[:, :5]).all()

    @pytest.mark.parametrize("shape", ["vector", "block"])
    def test_dic_inverts_its_incomplete_factor(self, topology_mesh, shape):
        """On every face topology the wavefront DIC is the sequential
        face loop bit for bit, and it applies ``M^-1`` for ``M = (D + L)
        D^-1 (D + L^T)``, whose diagonal is the operator's."""
        rng = np.random.default_rng(14)
        ldu = make_random_spd_ldu(topology_mesh, rng)
        oracle = DICPreconditioner(ldu)
        r = rng.standard_normal((ldu.n,) if shape == "vector"
                                else (3, ldu.n))
        w = CachedDICPreconditioner(ldu).apply_multi(r)
        assert np.array_equal(w, oracle.apply_multi(r.copy()))
        a = ldu.to_csr()
        d, lower = sp.diags(1.0 / oracle.r_d), sp.tril(a, k=-1)
        m = (d + lower) @ sp.diags(oracle.r_d) @ (d + lower.T)
        np.testing.assert_allclose(m.diagonal(), a.diagonal(), rtol=1e-13)
        assert np.abs(m @ w.T - r.T).max() <= 1e-12 * np.abs(r).max()

    def test_sym_gs_apply_multi(self, spd_ldu):
        r = np.random.default_rng(5).random((3, spd_ldu.n))
        pre = SymGaussSeidelPreconditioner(spd_ldu)
        w = pre.apply_multi(r)
        for j in range(3):
            np.testing.assert_allclose(w[j], pre.apply(r[j]), rtol=1e-12)


class TestBlockedMatchesColumns:
    """Property: a blocked solve is column-for-column the scalar solve."""

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8),
           zero_col=st.booleans())
    @settings(**SETTINGS)
    def test_pcg_blocked_property(self, spd_ldu, seed, k, zero_col):
        b = _rhs_block(spd_ldu.n, k, seed, zero_col)
        pre = DICPreconditioner(spd_ldu)
        x_blk, results = pcg_solve_multi(ldu_system(spd_ldu), b,
                                         preconditioner=pre.apply_multi,
                                         controls=TIGHT)
        assert len(results) == k
        for j in range(k):
            x_j, res_j = pcg_solve(spd_ldu, b[:, j],
                                   preconditioner=pre.apply, controls=TIGHT)
            assert results[j].converged and res_j.converged
            assert np.abs(x_blk[:, j] - x_j).max() <= 1e-10
        if zero_col:
            assert results[0].iterations == 0

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8),
           zero_col=st.booleans())
    @settings(**SETTINGS)
    def test_pbicgstab_blocked_property(self, box_mesh, seed, k, zero_col):
        ldu = make_laplacian_ldu(box_mesh, shift=0.5)
        ldu.lower *= 0.7  # convection-like asymmetry
        b = _rhs_block(ldu.n, k, seed, zero_col)
        pre = JacobiPreconditioner(ldu)
        x_blk, results = pbicgstab_solve_multi(ldu_system(ldu), b,
                                               preconditioner=pre.apply_multi,
                                               controls=TIGHT)
        assert len(results) == k
        for j in range(k):
            x_j, res_j = pbicgstab_solve(ldu, b[:, j],
                                         preconditioner=pre.apply,
                                         controls=TIGHT)
            assert results[j].converged and res_j.converged
            assert np.abs(x_blk[:, j] - x_j).max() <= 1e-10
        if zero_col:
            assert results[0].iterations == 0

    def test_early_converged_column_masking(self, spd_ldu):
        """A trivially easy column retires early; its solution must not
        be perturbed by the iterations the hard columns keep running."""
        rng = np.random.default_rng(6)
        b = rng.standard_normal((spd_ldu.n, 3))
        b[:, 1] = 0.0  # converged at iteration 0
        # an easy column: rhs = A @ (constant) is solved in few iters
        b[:, 2] = spd_ldu.matvec(np.full(spd_ldu.n, 0.37))
        x, results = pcg_solve_multi(ldu_system(spd_ldu), b, controls=TIGHT)
        iters = [r.iterations for r in results]
        assert iters[1] == 0
        assert iters[2] < iters[0]  # easy column retired before the hard one
        assert np.abs(x[:, 1]).max() == 0.0
        np.testing.assert_allclose(x[:, 2], 0.37, atol=1e-9)
        # per-column accounting is per-column, not the block total
        assert results[1].flops < results[0].flops

    def test_per_column_results_metadata(self, spd_ldu):
        b = np.random.default_rng(7).standard_normal((spd_ldu.n, 2))
        _, results = pcg_solve_multi(ldu_system(spd_ldu), b, controls=TIGHT)
        for r in results:
            assert r.solver == "PCG"
            assert r.details["reductions"] == 3 * r.iterations
        _, results = pbicgstab_solve_multi(ldu_system(spd_ldu), b,
                                           controls=TIGHT)
        assert all(r.solver == "PBiCGStab" for r in results)

    def test_x0_block(self, spd_ldu):
        b = np.random.default_rng(8).standard_normal((spd_ldu.n, 2))
        x0 = np.random.default_rng(9).standard_normal((spd_ldu.n, 2))
        x, results = pcg_solve_multi(ldu_system(spd_ldu), b, x0=x0,
                                     controls=TIGHT)
        assert all(r.converged for r in results)
        np.testing.assert_allclose(spd_ldu.matvec_multi(x), b, atol=1e-8)

    def test_1d_rhs_rejected(self, spd_ldu):
        with pytest.raises(ValueError):
            pcg_solve_multi(ldu_system(spd_ldu), np.ones(spd_ldu.n))

    @pytest.mark.parametrize("solve", [pcg_solve_multi,
                                       pbicgstab_solve_multi],
                             ids=["pcg", "pbicgstab"])
    def test_zero_max_iterations(self, spd_ldu, solve):
        """max_iterations=0 returns the initial guess, every column
        unconverged with its initial residual."""
        b = np.random.default_rng(12).standard_normal((spd_ldu.n, 2))
        loose = SolverControls(tolerance=1e-13, max_iterations=0)
        x, results = solve(ldu_system(spd_ldu), b, controls=loose)
        assert np.abs(x).max() == 0.0
        assert all(not r.converged and r.iterations == 0
                   and r.initial_residual == r.final_residual > 0.0
                   for r in results)


class TestSolvesMatchDirect:
    BODIES = {"pcg": pcg_solve_multi,
              "pbicgstab": pbicgstab_solve_multi}

    @pytest.mark.parametrize("precond", ["none", "jacobi", "dic"])
    @pytest.mark.parametrize("body", sorted(BODIES))
    def test_converges_to_the_direct_solution(self, topology_mesh, body,
                                              precond):
        """Every blocked body and preconditioner on every face topology,
        through ``LocalSystem``'s CSR product, against scipy's sparse
        LU of the same operator."""
        rng = np.random.default_rng(15)
        ldu = make_random_spd_ldu(topology_mesh, rng)
        b = _rhs_block(ldu.n, 3, seed=16, zero_col=False)
        pre = {"none": None,
               "jacobi": JacobiPreconditioner(ldu).apply_multi,
               "dic": CachedDICPreconditioner(ldu).apply_multi}[precond]
        x, results = self.BODIES[body](LocalSystem(ldu), b,
                                       preconditioner=pre,
                                       controls=TIGHT)
        assert len(results) == 3 and all(r.converged for r in results)
        ref = spla.spsolve(ldu.to_csr().tocsc(), b)
        assert np.abs(x - ref).max() <= SOLVE_ATOL * np.abs(ref).max()


class TestOneColumn:
    """A scalar equation is a block with k = 1: the blocked bodies on
    one column against the 1-D reference bodies, and what the one-column
    case asks of the preconditioner and the breakdown guards."""

    CTL = SolverControls(tolerance=1e-10, max_iterations=500)

    @staticmethod
    def _upwind_operator(mesh):
        """ddt + upwind div - laplacian: the asymmetric operator of a
        transported scalar."""
        rng = np.random.default_rng(31)
        f = VolField("c", mesh, rng.random(mesh.n_cells),
                     boundary={"xmin": FixedValue(0.3)})
        phi = SurfaceField("phi", mesh, rng.standard_normal(mesh.n_faces))
        eqn = (fvm_ddt(1.0 + rng.random(mesh.n_cells), f, 1e-3)
               + fvm_div(phi, f, scheme="upwind")
               - fvm_laplacian(0.1 + rng.random(mesh.n_cells), f))
        return eqn.a, eqn.source, f.values.copy()

    def _check(self, body, oracle, a, b, x0, pre, pooled):
        x_ref, res_ref = oracle(a, b, x0=x0, preconditioner=pre.apply,
                                controls=self.CTL)
        assert res_ref.converged and res_ref.iterations > 1
        ws = KrylovWorkspace() if pooled else None
        for _ in range(2 if pooled else 1):   # second pass: warm pool
            x, (res,) = body(ldu_system(a), b[:, None], x0=x0[:, None],
                             preconditioner=pre.apply_multi,
                             controls=self.CTL, workspace=ws)
            assert res.converged
            assert res.iterations == res_ref.iterations
            assert np.abs(x[:, 0] - x_ref).max() \
                <= 1e-12 * np.abs(x_ref).max()

    @pytest.mark.parametrize("pooled", [False, True], ids=["cold", "pooled"])
    def test_pcg_k1_matches_scalar_oracle(self, spd_ldu, pooled):
        rng = np.random.default_rng(32)
        b, x0 = rng.standard_normal((2, spd_ldu.n))
        self._check(pcg_solve_multi, pcg_solve, spd_ldu, b, x0,
                    CachedDICPreconditioner(spd_ldu), pooled)

    @pytest.mark.parametrize("pooled", [False, True], ids=["cold", "pooled"])
    def test_pbicgstab_k1_matches_scalar_oracle(self, box_mesh, pooled):
        a, b, x0 = self._upwind_operator(box_mesh)
        assert not a.is_symmetric(tol=1e-14)
        self._check(pbicgstab_solve_multi, pbicgstab_solve, a, b, x0,
                    JacobiPreconditioner(a), pooled)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dic_one_column_sweeps_its_1d_view(self, spd_ldu, dtype):
        """``(1, n)``, an ``out=`` cell slice and 1-D all run the same
        arithmetic, in the residual's dtype."""
        pre = CachedDICPreconditioner(spd_ldu)
        n = spd_ldu.n
        r = np.random.default_rng(33).standard_normal(n).astype(dtype)
        ref = pre.apply(r)
        assert ref.dtype == dtype
        col = pre.apply_multi(r[None])
        assert col.shape == (1, n) and col.dtype == dtype
        np.testing.assert_array_equal(col[0], ref)
        # a cell slice of one column (row) of a wider stacked block
        w = np.zeros((3, n + 5), dtype=dtype)
        out = pre.apply_multi(r[None], out=w[1:2, 2:n + 2])
        assert np.shares_memory(out, w)
        np.testing.assert_array_equal(w[1, 2:n + 2], ref)
        assert not w[[0, 2]].any() and not w[:, :2].any()
        # and k > 1 still sweeps the block, column for column
        blk = pre.apply_multi(np.stack([r, 2 * r]))
        np.testing.assert_array_equal(blk[0], ref)

    def test_pcg_breakdown_retires_the_column(self):
        """A right-hand side in the null space of the periodic
        Laplacian makes ``p.Ap`` vanish: that column retires
        unconverged with a finite ``x``; its healthy neighbour is
        unaffected."""
        mesh = build_box_mesh(4, 4, 4, periodic=(True, True, True))
        f = VolField("p", mesh, np.zeros(mesh.n_cells))
        a = (fvm_laplacian(1.0, f) * -1.0).a
        rng = np.random.default_rng(34)
        b = np.ones((mesh.n_cells, 2))
        b[:, 1] = a.matvec(rng.standard_normal(mesh.n_cells))
        ctl = SolverControls(tolerance=1e-10, max_iterations=50)
        with np.errstate(all="raise"):
            x, (dead, alive) = pcg_solve_multi(ldu_system(a), b, controls=ctl)
        assert not dead.converged and dead.iterations == 1
        assert np.isfinite(x).all() and not x[:, 0].any()
        assert alive.converged and 1 < alive.iterations < 50
        x_alone, (alone,) = pcg_solve_multi(ldu_system(a), b[:, 1:],
                                            controls=ctl)
        assert alive.iterations == alone.iterations
        np.testing.assert_array_equal(x[:, 1], x_alone[:, 0])
        with pytest.raises(ZeroDivisionError):   # the unguarded oracle
            pcg_solve(a, b[:, 0], controls=ctl)


class TestMultiVolField:
    def test_shape_and_names_validated(self, box_mesh):
        with pytest.raises(ValueError):
            MultiVolField(["a"], box_mesh, np.zeros(box_mesh.n_cells))
        with pytest.raises(ValueError):
            MultiVolField(["a"], box_mesh, np.zeros((box_mesh.n_cells, 2)))

    def test_unknown_patch_rejected(self, box_mesh):
        with pytest.raises(KeyError):
            MultiVolField(["a"], box_mesh, np.zeros((box_mesh.n_cells, 1)),
                          boundary=[{"nope": FixedValue(1.0)}])

    def test_values_are_referenced_not_copied(self, box_mesh):
        vals = np.zeros((box_mesh.n_cells, 2))
        f = MultiVolField(["a", "b"], box_mesh, vals)
        f.values[:, 0] = 3.0
        assert vals[0, 0] == 3.0

    def test_from_fields_and_column_roundtrip(self, box_mesh):
        f1 = VolField("a", box_mesh, np.full(box_mesh.n_cells, 1.0),
                      boundary={"xmin": FixedValue(2.0)})
        f2 = VolField("b", box_mesh, np.full(box_mesh.n_cells, 5.0))
        mf = MultiVolField.from_fields([f1, f2])
        assert mf.k == 2 and mf.names == ["a", "b"]
        col = mf.column(0)
        assert isinstance(col.boundary["xmin"], FixedValue)
        assert isinstance(mf.column(1).boundary["xmin"], ZeroGradient)
        np.testing.assert_allclose(col.values, 1.0)

    def test_from_vector_projects_bcs(self, box_mesh):
        u = VolField("U", box_mesh, np.zeros((box_mesh.n_cells, 3)),
                     boundary={"xmin": FixedValue(np.array([1.0, 2.0, 3.0]))})
        mf = MultiVolField.from_vector(u)
        assert mf.k == 3
        for c in range(3):
            bc = mf.column(c).boundary["xmin"]
            assert float(np.asarray(bc.value)) == pytest.approx(c + 1.0)

    def test_mismatched_implicit_coeffs_rejected(self, box_mesh):
        mf = MultiVolField(
            ["a", "b"], box_mesh, np.zeros((box_mesh.n_cells, 2)),
            boundary=[{"xmin": FixedValue(1.0)}, {"xmin": ZeroGradient()}])
        deltas = box_mesh.boundary_delta_coeffs()
        p = box_mesh.patch("xmin")
        nif = box_mesh.n_internal_faces
        sl = slice(p.start - nif, p.start - nif + p.size)
        with pytest.raises(ValueError, match="share an operator"):
            mf.patch_value_coeffs("xmin", deltas[sl])


class TestCoupledTransportEquation:
    @pytest.fixture()
    def setup(self, box_mesh):
        rng = np.random.default_rng(10)
        n = box_mesh.n_cells
        phi = SurfaceField("phi", box_mesh,
                           rng.standard_normal(box_mesh.n_faces))
        rho = 1.0 + rng.random(n)
        rho_old = 1.0 + rng.random(n)
        gamma = 0.1 + rng.random(n)
        vals = rng.random((n, 4))
        bnds = [{"xmin": FixedValue(0.1 * j)} for j in range(4)]
        return box_mesh, phi, rho, rho_old, gamma, vals, bnds

    def test_assembly_matches_per_field_operators(self, setup):
        mesh, phi, rho, rho_old, gamma, vals, bnds = setup
        mf = MultiVolField([f"c{j}" for j in range(4)], mesh, vals.copy(),
                           boundary=[dict(b) for b in bnds])
        eqn = CoupledTransportEquation.transport(
            mf, rho, 1e-3, phi=phi, gamma=gamma, rho_old=rho_old)
        for j in range(4):
            fj = VolField(f"c{j}", mesh, vals[:, j].copy(),
                          boundary=dict(bnds[j]))
            ref = (fvm_ddt(rho, fj, 1e-3, rho_old=rho_old)
                   + fvm_div(phi, fj, scheme="upwind")
                   - fvm_laplacian(gamma, fj))
            np.testing.assert_allclose(eqn.a.diag, ref.a.diag, rtol=1e-13)
            np.testing.assert_allclose(eqn.a.upper, ref.a.upper, rtol=1e-13)
            np.testing.assert_allclose(eqn.a.lower, ref.a.lower, rtol=1e-13)
            np.testing.assert_allclose(eqn.source[:, j], ref.source,
                                       rtol=1e-13, atol=1e-15)

    def test_blocked_solve_matches_per_field(self, setup):
        mesh, phi, rho, rho_old, gamma, vals, bnds = setup
        mf = MultiVolField([f"c{j}" for j in range(4)], mesh, vals.copy(),
                           boundary=[dict(b) for b in bnds])
        eqn = CoupledTransportEquation.transport(
            mf, rho, 1e-3, phi=phi, gamma=gamma, rho_old=rho_old)
        x, results = eqn.solve(solver="PBiCGStab", controls=TIGHT)
        assert all(r.converged for r in results)
        for j in range(4):
            fj = VolField(f"c{j}", mesh, vals[:, j].copy(),
                          boundary=dict(bnds[j]))
            ref = (fvm_ddt(rho, fj, 1e-3, rho_old=rho_old)
                   + fvm_div(phi, fj, scheme="upwind")
                   - fvm_laplacian(gamma, fj))
            x_j, _ = ref.solve(solver="PBiCGStab", controls=TIGHT)
            assert np.abs(x[:, j] - x_j).max() <= 1e-10
        # solve(update=True) wrote back into the packed field
        np.testing.assert_allclose(mf.values, x, rtol=1e-14)

    def test_auto_picks_pcg_for_symmetric(self, box_mesh):
        rng = np.random.default_rng(11)
        mf = MultiVolField(["a", "b"], box_mesh,
                           rng.random((box_mesh.n_cells, 2)))
        # pure ddt - laplacian (no convection) is symmetric
        eqn = CoupledTransportEquation.transport(mf, 1.0, 1e-3, gamma=0.3)
        assert eqn.a.is_symmetric()
        _, results = eqn.solve(solver="auto", controls=TIGHT)
        assert all(r.solver == "PCG" and r.converged for r in results)

    def test_source_shape_validated(self, box_mesh):
        mf = MultiVolField(["a"], box_mesh, np.zeros((box_mesh.n_cells, 1)))
        from repro.sparse.ldu import LDUMatrix

        with pytest.raises(ValueError):
            CoupledTransportEquation(mf, LDUMatrix.from_mesh(box_mesh),
                                     np.zeros(box_mesh.n_cells))
