"""Backend conformance suite: the kernel inventory on every backend.

The contract locked down here (see ``docs/ARCHITECTURE.md``):

* **NumPy is the validation reference.**  Every migrated kernel run
  through the ``"numpy"`` backend is bitwise-identical to the pre-shim
  legacy spelling (``backend=None``), and any other backend reproduces
  the numpy-backend result exactly -- except for *reductions* (column
  dots, L1 norms, matmul), whose generic ``sum``-based spellings may
  reassociate and carry the documented ulp budget
  (:data:`tests.conftest.REDUCTION_ULPS`).
* **No silent dtype upcasts.**  Kernels compute in the dtype of their
  array operand; fp32 in means fp32 out (property-tested below with
  hypothesis).
* **Missing capabilities take documented host fallbacks** that compute
  the same answer.  Two local backend variants drive those branches on
  every run: ``numpy-nocap`` (numpy namespace, every capability flag
  off -> host-fallback scatter path) and ``numpy-offload``
  (additionally reports itself non-numpy -> the device-offload
  reduction closures and assembly writeback paths execute, with numpy
  arithmetic underneath so results stay comparable).
* ``array-api-strict`` (the CI leg; skipped when not installed) proves
  the generic kernel bodies stay inside the portable Array API subset.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import ArrayBackend, get_backend
from repro.chemistry import KineticsEvaluator, load_mechanism
from repro.core import DeepFlameSolver, NoChemistry, build_tgv_case
from repro.dnn import GeLUTable
from repro.dnn.inference import InferenceEngine
from repro.dnn.layers import gelu_exact, gelu_fused
from repro.dnn.network import MLP
from repro.fv.fields import MultiVolField
from repro.fv.workspace import EquationWorkspace
from repro.solvers import SolverControls
from repro.solvers.blocked import (
    _coldot,
    _colsum_abs,
    backend_fused_reduce,
    backend_ifused_reduce,
    backend_reductions,
    pbicgstab_solve_multi,
    pcg_solve_multi,
)
from repro.solvers.preconditioners import (
    CachedDICPreconditioner,
    JacobiPreconditioner,
    jacobi_apply,
)
from repro.sparse.pattern import CSRPattern
from repro.sparse.spmv import spmv_faces, spmv_ldu, spmv_ldu_multi
from repro.thermo.cubic_eos import PengRobinson
from tests.conftest import (
    REDUCTION_ULPS,
    SOLVE_ATOL,
    assert_max_ulps,
    make_laplacian_ldu,
)

# ---------------------------------------------------------------------
# local backend variants driving the fallback / offload branches


class NocapNumpyBackend(ArrayBackend):
    """Numpy namespace with every capability flag off.

    Executes each kernel's documented host-fallback branch
    (scatter-add round-trip, wavefront-sweep fallback)
    on a host where the result can be compared against the reference.
    """

    name = "numpy-nocap"
    xp = np


class OffloadNumpyBackend(NocapNumpyBackend):
    """``numpy-nocap`` that reports itself non-numpy.

    Drives the code paths reserved for real devices -- the reduction
    offload closures, the assembly writeback, the engine's cast-once
    weight shipping -- with numpy arithmetic underneath.
    """

    name = "numpy-offload"

    @property
    def is_numpy(self):
        return False


#: the conformance matrix: reference, fallback, offload, CI-strict
BACKEND_NAMES = ("numpy", "numpy-nocap", "numpy-offload",
                 "array-api-strict")
_LOCAL_VARIANTS = {
    "numpy-nocap": NocapNumpyBackend(),
    "numpy-offload": OffloadNumpyBackend(),
}


def _resolve(name):
    if name in _LOCAL_VARIANTS:
        return _LOCAL_VARIANTS[name]
    try:
        return get_backend(name)
    except ValueError as exc:  # registered but not installed here
        pytest.skip(str(exc))


@pytest.fixture(params=BACKEND_NAMES)
def be(request):
    return _resolve(request.param)


@pytest.fixture(params=["fp32", "fp64"])
def dtype_name(request):
    return request.param


_NP_DTYPES = {"fp32": np.float32, "fp64": np.float64}


def _host(be, x):
    return np.asarray(be.from_device(x))


# ---------------------------------------------------------------------
class TestSpmv:
    def test_numpy_backend_anchored_to_legacy(self, spd_ldu):
        """The numpy-backend kernel IS the pre-shim matvec, bitwise."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(spd_ldu.n)
        xm = rng.standard_normal((spd_ldu.n, 4))
        assert np.array_equal(
            _host(get_backend("numpy"),
                  spmv_ldu(spd_ldu, x, backend="numpy")),
            spd_ldu.matvec(x))
        assert np.array_equal(
            _host(get_backend("numpy"),
                  spmv_ldu_multi(spd_ldu, xm, backend="numpy")),
            spd_ldu.matvec_multi(xm))
        # backend=None is literally the legacy path
        assert np.array_equal(spmv_ldu(spd_ldu, x), spd_ldu.matvec(x))

    def test_matches_reference_every_dtype(self, spd_ldu, be, dtype_name):
        rng = np.random.default_rng(1)
        dt = _NP_DTYPES[dtype_name]
        for shape in ((spd_ldu.n,), (spd_ldu.n, 3)):
            x = rng.standard_normal(shape).astype(dt)
            ref = _host(get_backend("numpy"),
                        spmv_faces(spd_ldu.diag, spd_ldu.lower,
                                   spd_ldu.upper, spd_ldu.owner,
                                   spd_ldu.neighbour, x, backend="numpy"))
            got = _host(be, spmv_faces(spd_ldu.diag, spd_ldu.lower,
                                       spd_ldu.upper, spd_ldu.owner,
                                       spd_ldu.neighbour, x, backend=be))
            assert got.dtype == dt, "silent dtype upcast"
            assert np.array_equal(got, ref)


class TestCSRPattern:
    @pytest.fixture(params=["plain", "periodic"])
    def pattern_and_ldu(self, request, box_mesh, periodic_mesh):
        """Both fill paths: inverse-gather (no duplicate slots) and
        scatter-add (periodic meshes produce duplicate (row, col)
        pairs)."""
        mesh = box_mesh if request.param == "plain" else periodic_mesh
        return CSRPattern.from_mesh(mesh), make_laplacian_ldu(mesh)

    def test_numpy_backend_anchored_to_legacy(self, pattern_and_ldu):
        pattern, ldu = pattern_and_ldu
        csr = ldu.to_csr(pattern=pattern)
        data = _host(get_backend("numpy"),
                     pattern.fill_values(ldu.diag, ldu.upper, ldu.lower,
                                         backend="numpy"))
        assert np.array_equal(data, csr.data)

    def test_matches_reference_every_dtype(self, pattern_and_ldu, be,
                                           dtype_name):
        pattern, ldu = pattern_and_ldu
        dt = _NP_DTYPES[dtype_name]
        rng = np.random.default_rng(2)
        diag = rng.standard_normal(ldu.n).astype(dt)
        upper = rng.standard_normal(ldu.n_faces).astype(dt)
        lower = rng.standard_normal(ldu.n_faces).astype(dt)
        ref = _host(get_backend("numpy"),
                    pattern.fill_values(diag, upper, lower,
                                        backend="numpy"))
        got = _host(be, pattern.fill_values(diag, upper, lower, backend=be))
        assert got.dtype == dt, "silent dtype upcast"
        assert np.array_equal(got, ref)


class TestBlockedReductions:
    def test_numpy_hooks_are_the_legacy_functions(self):
        cdot, csum = backend_reductions("numpy")
        assert cdot is _coldot and csum is _colsum_abs

    def test_reductions_within_ulp_budget(self, be, dtype_name):
        dt = _NP_DTYPES[dtype_name]
        rng = np.random.default_rng(3)
        a = rng.standard_normal((400, 5)).astype(dt)
        b = rng.standard_normal((400, 5)).astype(dt)
        cdot, csum = backend_reductions(be)
        got_dot, got_sum = cdot(a, b), csum(a)
        assert got_dot.dtype == dt and got_sum.dtype == dt
        # einsum vs generic sum(a*b): reassociation-only divergence
        assert_max_ulps(np.asarray(got_dot), _coldot(a, b), REDUCTION_ULPS)
        assert_max_ulps(np.asarray(got_sum), _colsum_abs(a), REDUCTION_ULPS)

    def test_fused_hooks_match_plain_hooks(self, be):
        rng = np.random.default_rng(4)
        mats = [rng.standard_normal((100, 3)) for _ in range(4)]
        dots = [(mats[0], mats[1]), (mats[2], mats[3])]
        sums = [mats[0], mats[3]]
        cdot, csum = backend_reductions(be)
        want = ([cdot(a, b) for a, b in dots], [csum(s) for s in sums])
        f_dots, f_sums = backend_fused_reduce(be)(dots, sums)
        i_dots, i_sums = backend_ifused_reduce(be)(dots, sums).wait()
        for got in ((f_dots, f_sums), (i_dots, i_sums)):
            for g, w in zip(got[0], want[0]):
                assert np.array_equal(np.asarray(g), np.asarray(w))
            for g, w in zip(got[1], want[1]):
                assert np.array_equal(np.asarray(g), np.asarray(w))

    def test_blocked_solves_agree(self, spd_ldu, be):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((spd_ldu.n, 3))
        ctl = SolverControls(tolerance=1e-12, max_iterations=400)
        pre = JacobiPreconditioner(spd_ldu)
        for solve in (pcg_solve_multi, pbicgstab_solve_multi):
            x_ref, res_ref = solve(spd_ldu, b, preconditioner=pre.apply_multi,
                                   controls=ctl)
            x_be, res_be = solve(spd_ldu, b, preconditioner=pre.apply_multi,
                                 controls=ctl, backend=be)
            assert all(r.converged for r in res_be)
            if be.is_numpy:
                # numpy hooks ARE the legacy hooks
                assert np.array_equal(x_be, x_ref)
            else:
                np.testing.assert_allclose(x_be, x_ref, atol=SOLVE_ATOL)


class TestPreconditioners:
    def test_jacobi_matches_legacy(self, spd_ldu, be, dtype_name):
        dt = _NP_DTYPES[dtype_name]
        rng = np.random.default_rng(6)
        pre = JacobiPreconditioner(spd_ldu)
        for shape in ((spd_ldu.n,), (spd_ldu.n, 3)):
            r = rng.standard_normal(shape).astype(dt)
            ref = _host(get_backend("numpy"),
                        jacobi_apply(pre.r_diag, r, backend="numpy"))
            got = _host(be, pre.apply_backend(r, backend=be))
            assert got.dtype == dt, "silent dtype upcast"
            assert np.array_equal(got, ref)
        # fp64 anchors to the pre-shim application
        r64 = rng.standard_normal((spd_ldu.n, 2))
        assert np.array_equal(
            _host(be, pre.apply_backend(r64, backend=be)),
            pre.apply_multi(r64))

    def test_dic_matches_legacy(self, spd_ldu, be, dtype_name):
        dt = _NP_DTYPES[dtype_name]
        rng = np.random.default_rng(7)
        pre = CachedDICPreconditioner(spd_ldu)
        for shape in ((spd_ldu.n,), (spd_ldu.n, 3)):
            r = rng.standard_normal(shape).astype(dt)
            ref = _host(get_backend("numpy"),
                        pre.apply_backend(r, backend="numpy"))
            got = _host(be, pre.apply_backend(r, backend=be))
            assert got.dtype == dt, "silent dtype upcast"
            assert np.array_equal(got, ref)
        r64 = rng.standard_normal((spd_ldu.n, 2))
        assert np.array_equal(
            _host(be, pre.apply_backend(r64, backend=be)),
            pre.apply_multi(r64))


class TestFusedAssembly:
    @pytest.fixture(scope="class")
    def solver(self):
        s = DeepFlameSolver(build_tgv_case(n=6), chemistry=NoChemistry())
        s.step(1e-8)
        return s

    def test_assembly_bitwise_on_every_backend(self, solver, be):
        s = solver
        rho_old = s.rho * 0.999
        yf = MultiVolField([f"Y{i}" for i in range(s.y.shape[1])],
                           s.mesh, s.y.copy())
        ref_ws = EquationWorkspace(s.mesh)
        ref = ref_ws.transport_multi(
            yf, s.rho, 1e-8, phi=s.phi, gamma=s.rho * s.props.alpha,
            rho_old=rho_old)
        ref_arrays = (ref.a.diag.copy(), ref.a.upper.copy(),
                      ref.a.lower.copy(), np.array(ref.source))
        ws = EquationWorkspace(s.mesh, backend=be)
        fused = ws.transport_multi(
            yf, s.rho, 1e-8, phi=s.phi, gamma=s.rho * s.props.alpha,
            rho_old=rho_old)
        # identical term order on every backend: bitwise, not just close
        assert np.array_equal(fused.a.diag, ref_arrays[0])
        assert np.array_equal(fused.a.upper, ref_arrays[1])
        assert np.array_equal(fused.a.lower, ref_arrays[2])
        assert np.array_equal(np.asarray(fused.source), ref_arrays[3])


class TestChemistryThermo:
    @pytest.fixture(scope="class")
    def chem_inputs(self, mech):
        rng = np.random.default_rng(8)
        n = 24
        t = rng.uniform(900.0, 2200.0, n)
        conc = np.abs(rng.normal(0.5, 0.3, (n, mech.n_species)))
        conc[rng.random(conc.shape) < 0.1] = 0.0
        return t, conc

    def test_rates_of_progress(self, mech, kin, chem_inputs, be):
        t, conc = chem_inputs
        qf_ref, qn_ref = kin.rates_of_progress(t, conc)
        qf, qn = kin.rates_of_progress_backend(t, conc, backend=be)
        assert np.array_equal(_host(be, qf), qf_ref)
        assert np.array_equal(_host(be, qn), qn_ref)

    @pytest.mark.parametrize("root", ["vapor", "liquid", "gibbs"])
    def test_compressibility(self, mech, be, root):
        eos = PengRobinson(mech.species)
        rng = np.random.default_rng(9)
        n = 24
        t = rng.uniform(250.0, 800.0, n)
        p = rng.uniform(1e5, 2e7, n)
        x = np.abs(rng.normal(0.5, 0.3, (n, len(mech.species))))
        # near-pure sub-critical rows: three roots > B, so "liquid" and
        # "gibbs" select among them (the draw above is mostly one-root)
        dense = ("O2", "CH4", "N2", "O2", "CH4", "N2", "O2", "CO")
        x_sub = np.full((len(dense), len(mech.species)), 1e-3)
        x_sub[np.arange(len(dense)),
              [mech.species_index[s] for s in dense]] = 1.0
        t = np.concatenate(
            (t, [100.0, 120.0, 90.0, 130.0, 150.0, 100.0, 140.0, 100.0]))
        p = np.concatenate((p, [1e6, 5e5, 8e5, 2e6, 1e6, 5e5, 3e6, 5e5]))
        x = np.concatenate((x, x_sub))
        x /= x.sum(axis=1, keepdims=True)
        z_ref = eos.compressibility(t, p, x, root=root)
        if root != "vapor":
            z_vapor = eos.compressibility(t, p, x, root="vapor")
            assert (z_ref[n:] < 0.2 * z_vapor[n:]).sum() >= 6
        z = _host(be, eos.compressibility_backend(t, p, x, root=root,
                                                  backend=be))
        if be.is_numpy:
            assert np.array_equal(z, z_ref)
        else:
            # one elementwise kernel on every namespace: nothing
            # reassociates, but budget a few ulps for namespace-level
            # differences in the transcendentals
            assert_max_ulps(z, z_ref, REDUCTION_ULPS)


class TestDNN:
    def test_gelu_matches_legacy(self, be, dtype_name):
        dt = _NP_DTYPES[dtype_name]
        x = np.linspace(-6.0, 6.0, 513).astype(dt)
        for fn in (gelu_exact, gelu_fused):
            ref = fn(x)
            got = _host(be, fn(x, backend=be))
            assert got.dtype == ref.dtype, "dtype drift vs legacy"
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16"])
    def test_gelu_table_matches_legacy(self, be, precision):
        table = GeLUTable(precision=precision)
        x = np.linspace(-4.0, 4.0, 257).astype(
            np.float32 if precision != "fp64" else np.float64)
        ref = table(x)
        got = _host(be, table.apply_backend(x, backend=be))
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    def test_gelu_variants_parity_under_shim(self, be):
        """gelu_fused, gelu_exact and the table agree through one
        backend: fused/exact are the same function up to pow-vs-multiply
        rounding, and the table tracks both within its max_error."""
        x = np.linspace(-3.5, 3.5, 1001)
        exact = _host(be, gelu_exact(x, backend=be))
        fused = _host(be, gelu_fused(x, backend=be))
        table = GeLUTable(precision="fp32")
        tabbed = _host(be, table.apply_backend(x.astype(np.float32),
                                               backend=be))
        # pow-vs-multiply cubes perturb the tanh argument by ~1 ulp;
        # near the x -> -inf tail GeLU itself is ~0, so the divergence
        # is absolute (1e-16), not relative
        np.testing.assert_allclose(fused, exact, rtol=1e-12, atol=1e-15)
        bound = table.max_error() + np.finfo(np.float32).eps * 4
        assert np.max(np.abs(tabbed.astype(np.float64) - exact)) <= bound

    @pytest.mark.parametrize("gelu", ["exact", "fused", "table"])
    def test_inference_engine(self, be, dtype_name, gelu):
        net = MLP((10, 32, 32, 4), seed=11)
        x = np.random.default_rng(12).standard_normal((120, 10))
        ref = InferenceEngine(net, precision=dtype_name, gelu=gelu).run(x)
        got = InferenceEngine(net, precision=dtype_name, gelu=gelu,
                              backend=be).run(x)
        if be.is_numpy:
            # cached transposed weights are the same views the legacy
            # expression builds: bitwise
            assert np.array_equal(got, ref)
        else:
            # matmul reduction order carries the documented ulp budget;
            # fp32 layers then round-trip to fp64 on output
            rtol = (REDUCTION_ULPS * 16) * np.finfo(
                _NP_DTYPES[dtype_name]).eps
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol)

    def test_fp16_engine_refuses_backend(self):
        net = MLP((4, 8, 2), seed=0)
        with pytest.raises(ValueError, match="fp16"):
            InferenceEngine(net, precision="fp16", backend="numpy")


# ---------------------------------------------------------------------
# hypothesis property tests: no silent dtype upcasts (satellite of the
# conformance suite; module-level globals avoid function-scoped
# fixtures inside @given)

_PROP_MESH_LDU = None


def _prop_ldu():
    global _PROP_MESH_LDU
    if _PROP_MESH_LDU is None:
        from repro.mesh import build_box_mesh

        _PROP_MESH_LDU = make_laplacian_ldu(build_box_mesh(4, 4, 4))
    return _PROP_MESH_LDU


_PROP_SETTINGS = dict(deadline=None, max_examples=20,
                      suppress_health_check=[HealthCheck.too_slow])
_FLOATS32 = st.floats(-1e3, 1e3, allow_nan=False, width=32)
_FLOATS64 = st.floats(-1e3, 1e3, allow_nan=False)


class TestDtypeProperties:
    @given(dt=st.sampled_from(["fp32", "fp64"]), k=st.integers(1, 4),
           seed=st.integers(0, 2**31 - 1))
    @settings(**_PROP_SETTINGS)
    def test_spmv_preserves_dtype(self, dt, k, seed):
        ldu = _prop_ldu()
        npdt = _NP_DTYPES[dt]
        x = np.random.default_rng(seed).standard_normal(
            (ldu.n, k)).astype(npdt)
        y = spmv_faces(ldu.diag, ldu.lower, ldu.upper, ldu.owner,
                       ldu.neighbour, x, backend="numpy")
        assert np.asarray(y).dtype == npdt
        # fp32 arithmetic tracks the fp64 computation to fp32 accuracy
        y64 = ldu.matvec_multi(x.astype(np.float64))
        scale = np.abs(y64).max() + 1.0
        assert np.abs(np.asarray(y, dtype=np.float64) - y64).max() \
            <= 64 * np.finfo(npdt).eps * scale

    @given(dt=st.sampled_from(["fp32", "fp64"]),
           seed=st.integers(0, 2**31 - 1))
    @settings(**_PROP_SETTINGS)
    def test_pattern_fill_preserves_dtype(self, dt, seed):
        ldu = _prop_ldu()
        pattern = CSRPattern.from_ldu(ldu)
        npdt = _NP_DTYPES[dt]
        rng = np.random.default_rng(seed)
        data = pattern.fill_values(
            rng.standard_normal(ldu.n).astype(npdt),
            rng.standard_normal(ldu.n_faces).astype(npdt),
            rng.standard_normal(ldu.n_faces).astype(npdt),
            backend="numpy")
        assert np.asarray(data).dtype == npdt

    @given(dt=st.sampled_from(["fp32", "fp64"]), k=st.integers(1, 5),
           seed=st.integers(0, 2**31 - 1))
    @settings(**_PROP_SETTINGS)
    def test_blocked_dot_preserves_dtype(self, dt, k, seed):
        npdt = _NP_DTYPES[dt]
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((64, k)).astype(npdt)
        b = rng.standard_normal((64, k)).astype(npdt)
        for backend in ("numpy", _LOCAL_VARIANTS["numpy-offload"]):
            cdot, csum = backend_reductions(backend)
            d, s = np.asarray(cdot(a, b)), np.asarray(csum(a))
            assert d.dtype == npdt and s.dtype == npdt
            # a signed dot can cancel, so an ulp budget at the result
            # magnitude is ill-conditioned: bound the reassociation
            # error by the term-magnitude sum instead.  colsum_abs has
            # all-positive terms and keeps the plain ulp budget.
            ref = _coldot(a, b)
            tol = REDUCTION_ULPS * np.finfo(npdt).eps \
                * np.abs(a * b).sum(axis=0) + np.finfo(npdt).tiny
            np.testing.assert_array_less(np.abs(d - ref), tol)
            assert_max_ulps(s, _colsum_abs(a), REDUCTION_ULPS)
