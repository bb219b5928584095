"""Backend conformance suite: the kernel inventory on every backend.

The contract locked down here (see ``docs/ARCHITECTURE.md``):

* **One body per kernel, NumPy is the validation reference.**  Every
  shimmed kernel has a single entry point; ``backend=None`` runs it on
  the ``"numpy"`` backend, and any other backend reproduces that run
  exactly -- except for *reductions* (column dots, L1 norms, matmul),
  whose generic ``sum``-based spellings may reassociate and carry the
  documented ulp budget (:data:`tests.conftest.REDUCTION_ULPS`).  The
  numpy body itself is anchored independently of this suite
  (``tests/step_oracle.py``, ``tests/kinetics_oracle.py``,
  ``tests/thermo_oracle.py``, ``DICPreconditioner``).
* **No silent dtype upcasts.**  Kernels compute in the dtype of their
  array operand; fp32 in means fp32 out (property-tested below with
  hypothesis).
* **Missing capabilities take documented host fallbacks** that compute
  the same answer.  Two local numpy doubles drive those branches on
  every run: ``numpy-nocap`` (numpy namespace, the capability flag and
  every native helper spelling off -> host-fallback scatter and sweep
  paths, generic reductions) and ``numpy-offload`` (additionally
  *copies* on every transfer, as device memory would -> a kernel that
  forgets to write a mirror back, or mutates a transferred operand
  expecting the host to see it, fails here).
* ``array-api-strict`` (the CI leg; skipped when not installed) proves
  the kernel bodies stay inside the portable Array API subset.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import (ArrayBackend, backend_names, get_backend,
                           register_backend)
from repro.backend import registry as backend_registry
from repro.core import (DeepFlameSolver, NoChemistry, SolverSettings,
                        build_tgv_case)
from repro.core.properties import IdealGasProperties
from repro.core.settings import build_solver
from repro.dnn import GeLUTable
from repro.dnn.inference import InferenceEngine
from repro.dnn.layers import gelu_exact, gelu_fused
from repro.dnn.network import MLP
from repro.fv.fields import MultiVolField
from repro.fv.workspace import EquationWorkspace
from repro.solvers import SolverControls
from repro.solvers.blocked import (
    LocalSystem,
    pbicgstab_solve_multi,
    pcg_solve_multi,
)
from repro.solvers.preconditioners import (
    CachedDICPreconditioner,
    DICPreconditioner,
    JacobiPreconditioner,
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
    """Numpy namespace with the capability flag off.

    Executes each kernel's documented host-fallback branch
    (scatter-add round-trip, wavefront-sweep fallback) and the generic
    helper spellings on a host where the result can be compared
    against the reference.
    """

    name = "numpy-nocap"
    xp = np


class OffloadNumpyBackend(NocapNumpyBackend):
    """``numpy-nocap`` whose transfers copy, as a real device's do.

    Drives what only shows when device memory is not host memory --
    the assembly writeback, the reduction hooks' round trips, the
    engine's per-batch weight shipping -- with numpy arithmetic
    underneath.
    """

    name = "numpy-offload"

    def to_device(self, x, dtype=None):
        return np.array(x, dtype=self.dtype_of(dtype), copy=True)

    def from_device(self, x):
        return np.array(x, copy=True)


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
        """Every entry point is the one kernel on the numpy backend:
        ``LDUMatrix.matvec`` / ``matvec_multi``, ``spmv_ldu*`` with
        ``backend="numpy"`` and with ``backend=None``.  (There is no
        legacy body any more -- the name is the test record's; the
        body's independent anchor is the CSR product below.)"""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(spd_ldu.n)
        xm = rng.standard_normal((spd_ldu.n, 4))
        assert np.array_equal(spmv_ldu(spd_ldu, x, backend="numpy"),
                              spd_ldu.matvec(x))
        assert np.array_equal(spmv_ldu_multi(spd_ldu, xm, backend="numpy"),
                              spd_ldu.matvec_multi(xm))
        assert np.array_equal(spmv_ldu(spd_ldu, x), spd_ldu.matvec(x))
        np.testing.assert_allclose(spd_ldu.matvec_multi(xm),
                                   spd_ldu.to_csr() @ xm, rtol=1e-13)

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


class TestStructuralProduct:
    """``ArrayBackend.sparse_matmul`` behind the mesh's face <-> cell
    operators: every backend takes the same compiled host product (a
    round trip where the arrays live off-host), so the result is
    bitwise the numpy backend's and carries the input's dtype."""

    @pytest.mark.parametrize("trailing", [(), (3,), (3, 3)])
    def test_matches_reference_every_dtype(self, box_mesh, be, dtype_name,
                                           trailing):
        ops = box_mesh.face_operators()
        dt = _NP_DTYPES[dtype_name]
        rng = np.random.default_rng(2)
        faces = rng.standard_normal((box_mesh.n_faces,) + trailing).astype(dt)
        cells = rng.standard_normal((box_mesh.n_cells,) + trailing).astype(dt)
        nif = box_mesh.n_internal_faces
        for method, host in [("surface_sum", faces), ("interpolate", cells),
                             ("owner_sum", faces[:nif]),
                             ("neighbour_sum", faces[:nif]),
                             ("boundary_sum", faces[nif:])]:
            ref = getattr(ops, method)(host)
            got = _host(be, getattr(ops, method)(
                be.to_device(host, dtype=dtype_name), be))
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
        """``to_csr(pattern=)`` is ``fill_values`` on the numpy backend,
        kept in the pattern's persistent buffer.  (No legacy scatter
        any more -- the name is the test record's; the independent
        anchor is the fresh scipy conversion below.)"""
        pattern, ldu = pattern_and_ldu
        csr = ldu.to_csr(pattern=pattern)
        data = pattern.fill_values(ldu.diag, ldu.upper, ldu.lower,
                                   backend="numpy")
        assert np.array_equal(data, csr.data)
        assert np.shares_memory(csr.data, pattern.fill(ldu))
        ref = ldu.to_csr()
        ref.sort_indices()
        assert np.array_equal(csr.indices, ref.indices)
        np.testing.assert_allclose(csr.data, ref.data, rtol=1e-15)

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
        """The numpy hooks are ``NumpyBackend.coldot`` / ``colsum_abs``
        -- the einsum and L1 spellings the blocked solvers used to
        state a second time as private functions."""
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 400, 5))
        system = LocalSystem(_prop_ldu())
        cdot, csum = system.coldot, system.colsum_abs
        assert np.array_equal(cdot(a, b), np.einsum("ij,ij->j", a, b))
        assert np.array_equal(csum(a), np.abs(a).sum(axis=0))

    def test_reductions_within_ulp_budget(self, be, dtype_name):
        dt = _NP_DTYPES[dtype_name]
        rng = np.random.default_rng(3)
        a = rng.standard_normal((400, 5)).astype(dt)
        b = rng.standard_normal((400, 5)).astype(dt)
        system = LocalSystem(_prop_ldu(), backend=be)
        got_dot, got_sum = system.coldot(a, b), system.colsum_abs(a)
        assert got_dot.dtype == dt and got_sum.dtype == dt
        # einsum vs generic sum(a*b): reassociation-only divergence
        ref = LocalSystem(_prop_ldu(), backend="numpy")
        assert_max_ulps(np.asarray(got_dot), ref.coldot(a, b),
                        REDUCTION_ULPS)
        assert_max_ulps(np.asarray(got_sum), ref.colsum_abs(a),
                        REDUCTION_ULPS)

    def test_fused_hooks_match_plain_hooks(self, be):
        rng = np.random.default_rng(4)
        mats = [rng.standard_normal((100, 3)) for _ in range(4)]
        dots = [(mats[0], mats[1]), (mats[2], mats[3])]
        sums = [mats[0], mats[3]]
        system = LocalSystem(_prop_ldu(), backend=be)
        cdot, csum = system.coldot, system.colsum_abs
        want = ([cdot(a, b) for a, b in dots], [csum(s) for s in sums])
        f_dots, f_sums = system.fused_reduce(dots, sums)
        i_dots, i_sums = system.ifused_reduce(dots, sums).wait()
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
            x_ref, res_ref = solve(LocalSystem(spd_ldu), b,
                                   preconditioner=pre.apply_multi,
                                   controls=ctl)
            x_be, res_be = solve(LocalSystem(spd_ldu, backend=be), b,
                                 preconditioner=pre.apply_multi,
                                 controls=ctl)
            assert all(r.converged for r in res_be)
            if be is get_backend("numpy"):
                # backend=None is the numpy backend
                assert np.array_equal(x_be, x_ref)
            else:
                np.testing.assert_allclose(x_be, x_ref, atol=SOLVE_ATOL)


class TestPreconditioners:
    def test_jacobi_matches_legacy(self, spd_ldu, be, dtype_name):
        """Every backend vs the numpy backend, through the one entry
        point (``legacy`` in the name is the test record's)."""
        dt = _NP_DTYPES[dtype_name]
        rng = np.random.default_rng(6)
        pre = JacobiPreconditioner(spd_ldu)
        for shape in ((spd_ldu.n,), (spd_ldu.n, 3)):
            r = rng.standard_normal(shape).astype(dt)
            ref = pre.apply_multi(r)
            got = _host(be, pre.apply_multi(r, backend=be))
            assert got.dtype == dt, "silent dtype upcast"
            assert np.array_equal(got, ref)
        # the numpy body is the reciprocal-diagonal product
        r64 = rng.standard_normal((spd_ldu.n, 2))
        assert np.array_equal(pre.apply_multi(r64),
                              r64 * (1.0 / spd_ldu.diag)[:, None])
        assert np.array_equal(_host(be, pre.apply(r64[:, 0], backend=be)),
                              pre.apply_multi(r64)[:, 0])

    def test_dic_matches_legacy(self, spd_ldu, be, dtype_name):
        """Every backend vs the numpy backend, and both vs the
        sequential ``DICPreconditioner`` (``legacy`` in the name is
        the test record's)."""
        dt = _NP_DTYPES[dtype_name]
        rng = np.random.default_rng(7)
        pre = CachedDICPreconditioner(spd_ldu)
        for shape in ((spd_ldu.n,), (spd_ldu.n, 3)):
            r = rng.standard_normal(shape).astype(dt)
            ref = pre.apply_multi(r)
            got = _host(be, pre.apply_multi(r, backend=be))
            assert got.dtype == dt, "silent dtype upcast"
            assert np.array_equal(got, ref)
        # fp64 anchors to the sequential face-loop DIC
        r64 = rng.standard_normal((spd_ldu.n, 2))
        oracle = DICPreconditioner(spd_ldu)
        assert np.array_equal(
            _host(be, pre.apply_multi(r64, backend=be)),
            oracle.apply_multi(r64))
        assert np.array_equal(
            _host(be, pre.apply(r64[:, 0].copy(), backend=be)),
            oracle.apply(r64[:, 0].copy()))

    def test_dic_apply_multi_writes_into_the_callers_view(self, spd_ldu):
        """The decomposed block preconditioner hands each rank's row
        slice of one stacked block as ``out``."""
        rng = np.random.default_rng(13)
        pre = CachedDICPreconditioner(spd_ldu)
        r = rng.standard_normal((spd_ldu.n, 3))
        stacked = np.full((spd_ldu.n + 5, 3), np.nan)
        view = stacked[5:]
        w = pre.apply_multi(r, out=view)
        assert np.shares_memory(w, stacked)
        assert np.array_equal(view, pre.apply_multi(r))
        assert np.isnan(stacked[:5]).all()


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
        qf, qn = kin.rates_of_progress(t, conc, backend=be)
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
        z = _host(be, eos.compressibility(t, p, x, root=root, backend=be))
        if be.xp is np:
            assert np.array_equal(z, z_ref)
        else:
            # one elementwise kernel on every namespace: nothing
            # reassociates, but budget a few ulps for namespace-level
            # differences in the transcendentals
            assert_max_ulps(z, z_ref, REDUCTION_ULPS)


class TestDNN:
    def test_gelu_matches_legacy(self, be, dtype_name):
        """Every backend vs the numpy backend (``legacy`` in the name
        is the test record's)."""
        dt = _NP_DTYPES[dtype_name]
        x = np.linspace(-6.0, 6.0, 513).astype(dt)
        for fn in (gelu_exact, gelu_fused):
            ref = fn(x)
            got = _host(be, fn(x, backend=be))
            assert got.dtype == ref.dtype, "dtype drift vs numpy"
            assert np.array_equal(got, ref)
        # the numpy bodies are the textbook tanh form: exact promotes
        # to fp64 through the constant, fused stays in the input dtype
        c = np.sqrt(2.0 / np.pi)
        assert np.array_equal(
            gelu_exact(x), 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3))))
        assert gelu_fused(x).dtype == dt

    @pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16"])
    def test_gelu_table_matches_legacy(self, be, precision):
        """Every backend vs the numpy backend (``legacy`` in the name
        is the test record's)."""
        table = GeLUTable(precision=precision)
        x = np.linspace(-4.0, 4.0, 257).astype(
            np.float32 if precision != "fp64" else np.float64)
        ref = table(x)
        got = _host(be, table(x, backend=be))
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        # the numpy body tracks exact GeLU within the table's own bound
        assert np.max(np.abs(ref.astype(np.float64) - gelu_exact(
            x.astype(np.float64)))) <= table.max_error() \
            + 4 * np.finfo(ref.dtype).eps

    def test_gelu_table_device_copies_are_per_backend_object(self):
        """Two backend instances sharing a name must not serve each
        other's device tables."""
        table = GeLUTable(precision="fp32")
        first, second = OffloadNumpyBackend(), OffloadNumpyBackend()
        x = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
        table(x, backend=first)
        table(x, backend=second)
        assert table._device_tables[first][0] \
            is not table._device_tables[second][0]

    def test_gelu_variants_parity_under_shim(self, be):
        """gelu_fused, gelu_exact and the table agree through one
        backend: fused/exact are the same function up to pow-vs-multiply
        rounding, and the table tracks both within its max_error."""
        x = np.linspace(-3.5, 3.5, 1001)
        exact = _host(be, gelu_exact(x, backend=be))
        fused = _host(be, gelu_fused(x, backend=be))
        table = GeLUTable(precision="fp32")
        tabbed = _host(be, table(x.astype(np.float32), backend=be))
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
        if be.xp is np:
            # same casts, same transposed views, same BLAS call: bitwise
            assert np.array_equal(got, ref)
        else:
            # matmul reduction order carries the documented ulp budget;
            # fp32 layers then round-trip to fp64 on output
            rtol = (REDUCTION_ULPS * 16) * np.finfo(
                _NP_DTYPES[dtype_name]).eps
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol)

    def test_fp16_engine_refuses_backend(self):
        """fp16 quantizes through numpy-specific machinery: any numpy
        namespace runs it (``backend=None`` is the numpy backend, not a
        different path), anything else is refused at construction."""
        net = MLP((4, 8, 2), seed=0)

        class Foreign(ArrayBackend):
            name = "foreign"
            xp = object()

        with pytest.raises(ValueError, match="fp16"):
            InferenceEngine(net, precision="fp16", backend=Foreign())
        x = np.random.default_rng(1).standard_normal((6, 4))
        assert np.array_equal(
            InferenceEngine(net, precision="fp16", backend="numpy").run(x),
            InferenceEngine(net, precision="fp16").run(x))


# ---------------------------------------------------------------------
# the registry, and solvers stepped through ``SolverSettings.backend``


@pytest.fixture
def scratch_registry():
    """Lets a test register backends; restores the registry after."""
    saved = (dict(backend_registry._FACTORIES),
             dict(backend_registry._INSTANCES))
    yield
    for live, old in zip((backend_registry._FACTORIES,
                          backend_registry._INSTANCES), saved):
        live.clear()
        live.update(old)


def _missing_dependency():
    raise ImportError("No module named 'nosuchaccelerator'")


class TestRegistry:
    def test_unknown_name_lists_the_registered_ones(self):
        with pytest.raises(ValueError, match="unknown array backend") as err:
            get_backend("no-such-backend")
        for name in backend_names():
            assert name in str(err.value)
        assert {"numpy", "array-api-strict"} <= set(backend_names())

    def test_import_error_in_a_factory_names_the_backend(
            self, scratch_registry):
        register_backend("needs-accelerator", _missing_dependency)
        assert "needs-accelerator" in backend_names()
        with pytest.raises(ValueError, match="'needs-accelerator' is "
                           "registered but unavailable.*nosuchaccelerator"):
            get_backend("needs-accelerator")

    def test_taken_name_needs_replace(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NocapNumpyBackend)
        assert get_backend("numpy").name == "numpy"

    def test_replace_drops_the_memoised_instance(self, scratch_registry):
        register_backend("double", NocapNumpyBackend)
        first = get_backend("double")
        assert get_backend("double") is first  # memoised
        register_backend("double", OffloadNumpyBackend, replace=True)
        second = get_backend("double")
        assert second is not first
        assert isinstance(second, OffloadNumpyBackend)

    def test_instances_and_none_pass_through(self):
        inst = NocapNumpyBackend()
        assert get_backend(inst) is inst
        assert get_backend(None) is get_backend("numpy") is get_backend()


def _stepped_fields(settings, n=8, steps=3):
    case = build_tgv_case(n=n)
    solver = build_solver(case, settings,
                          properties=IdealGasProperties(case.mech))
    for _ in range(steps):
        solver.step(1e-6)
    if settings.is_decomposed:
        fields = {k: solver.gather(k) for k in ("T", "p", "y")}
        solver.close()
        return fields
    return {"T": solver.temperature, "p": solver.p.values, "y": solver.y}


class TestSolverLevel:
    """What the fork hid: whole solvers stepped on a non-numpy backend
    selected through ``SolverSettings.backend``."""

    @pytest.fixture(scope="class")
    def numpy_fields(self):
        return {ranks: _stepped_fields(SolverSettings(ranks=ranks))
                for ranks in (0, 2)}

    @pytest.mark.parametrize("ranks", [0, 2])
    @pytest.mark.parametrize("double", [NocapNumpyBackend,
                                        OffloadNumpyBackend])
    def test_doubles_agree_with_numpy(self, scratch_registry, numpy_fields,
                                      double, ranks):
        register_backend(double.name, double)
        got = _stepped_fields(SolverSettings(backend=double.name,
                                             ranks=ranks))
        for key, ref in numpy_fields[ranks].items():
            err = np.abs(got[key] - ref).max() / np.abs(ref).max()
            assert err <= 1e-12, (key, err)

    @pytest.mark.parametrize("mode", [
        dict(), dict(ranks=2), dict(ranks=2, execution="parallel")],
        ids=["serial", "ranks2", "ranks2-parallel"])
    def test_unconstructible_backend_fails_at_construction(
            self, scratch_registry, monkeypatch, mode):
        """The registry's ``ValueError``, from the constructor, before
        a worker is forked or a segment mapped -- not a ``WorkerError``
        (or a ``ValueError`` out of the species assembly) on the first
        step."""
        import os

        register_backend("needs-accelerator", _missing_dependency)
        settings = SolverSettings(backend="needs-accelerator", **mode)
        # the settings themselves stay buildable and serialisable on a
        # host without the package
        assert settings.to_dict()["backend"] == "needs-accelerator"
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(
            os, "fork", lambda: forks.append(1) or real_fork())
        shm = sorted(f for f in os.listdir("/dev/shm")
                     if f.startswith("repro"))
        with pytest.raises(ValueError, match="registered but unavailable"):
            build_solver(build_tgv_case(n=6), settings)
        assert not forks
        assert sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("repro")) == shm


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
            system = LocalSystem(_prop_ldu(), backend=backend)
            d, s = (np.asarray(system.coldot(a, b)),
                    np.asarray(system.colsum_abs(a)))
            assert d.dtype == npdt and s.dtype == npdt
            # a signed dot can cancel, so an ulp budget at the result
            # magnitude is ill-conditioned: bound the reassociation
            # error by the term-magnitude sum instead.  colsum_abs has
            # all-positive terms and keeps the plain ulp budget.
            ref = np.einsum("ij,ij->j", a, b)
            tol = REDUCTION_ULPS * np.finfo(npdt).eps \
                * np.abs(a * b).sum(axis=0) + np.finfo(npdt).tiny
            np.testing.assert_array_less(np.abs(d - ref), tol)
            assert_max_ulps(s, np.abs(a).sum(axis=0), REDUCTION_ULPS)
