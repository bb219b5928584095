"""Property-based tests (hypothesis) on core data structures and
invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dist import Decomposition, DistributedSystem
from repro.dnn import BoxCoxTransform, GeLUTable, ZScoreScaler, gelu_exact
from repro.mesh import build_box_mesh, cell_graph_from_mesh, cuthill_mckee
from repro.partition import balance_stats, partition_graph
from repro.runtime import SimulatedComm
from repro.solvers import LocalSystem
from repro.sparse import LDUMatrix
from tests.conftest import make_laplacian_ldu

SETTINGS = dict(deadline=None, max_examples=25,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mass_fractions(draw, ns=17):
    raw = draw(arrays(np.float64, ns,
                      elements=st.floats(0.0, 1.0, allow_nan=False)))
    total = raw.sum()
    if total < 1e-12:
        raw = np.full(ns, 1.0 / ns)
        total = 1.0
    return raw / total


class TestThermoProperties:
    @given(y=mass_fractions(), t=st.floats(250.0, 3500.0))
    @settings(**SETTINGS)
    def test_mass_rates_conserve_mass(self, kin_global, y, t):
        rho = kin_global.density_ideal(np.array([t]), np.array([10e6]),
                                       y[None, :])
        rates = kin_global.mass_production_rates(np.array([t]), rho,
                                                 y[None, :])
        scale = np.abs(rates).max() + 1e-30
        assert abs(rates.sum()) < 1e-8 * scale

    @given(y=mass_fractions())
    @settings(**SETTINGS)
    def test_mole_mass_roundtrip(self, mech_global, y):
        x = mech_global.mole_fractions(y[None, :])
        back = mech_global.mass_fractions(x)
        np.testing.assert_allclose(back[0], y, atol=1e-10)

    @given(y=mass_fractions(), t=st.floats(150.0, 3000.0),
           p=st.floats(1e5, 3e7))
    @settings(**SETTINGS)
    def test_pr_density_pressure_roundtrip(self, pr_global, y, t, p):
        rho = pr_global.density([t], p, y[None, :])
        p_back = pr_global.pressure([t], rho, y[None, :])
        assert p_back[0] == pytest.approx(p, rel=1e-6)

    @given(y=mass_fractions(), t=st.floats(200.0, 3000.0))
    @settings(**SETTINGS)
    def test_real_cp_positive(self, rf_global, y, t):
        cp = rf_global.cp_mass([t], 10e6, y[None, :])
        assert cp[0] > 0

    @given(y=mass_fractions(), t=st.floats(100.0, 3000.0),
           p=st.floats(9e6, 2e7), miss=st.floats(0.6, 1.6))
    @settings(**SETTINGS)
    def test_temperature_from_h_inverts_h_mass(self, rf_global, mech_global,
                                               y, t, p, miss):
        # keep every draw at supercritical pressure, where the cubic has
        # one real root and h(T) is smooth: drop the three species whose
        # critical pressure (8-22 MPa) reaches into the sampled range
        y = y.copy()
        for name in ("H2O", "H2O2", "OH"):
            y[mech_global.species_index[name]] = 0.0
        y[mech_global.species_index["O2"]] += 1e-6
        y /= y.sum()
        h = rf_global.h_mass([t], p, y[None, :])
        t_back = rf_global.temperature_from_h(
            h, p, y[None, :], t_guess=np.array([t * miss]))
        assert t_back[0] == pytest.approx(t, rel=1e-5)


class TestPartitionProperties:
    @given(nparts=st.integers(2, 12), seed=st.integers(0, 5))
    @settings(**SETTINGS)
    def test_partition_is_balanced_total(self, graph_global, nparts, seed):
        mem = partition_graph(graph_global, nparts, seed=seed)
        assert mem.shape == (graph_global.n_vertices,)
        assert mem.min() >= 0 and mem.max() == nparts - 1
        stats = balance_stats(mem, nparts=nparts)
        assert stats.counts.sum() == graph_global.n_vertices
        assert stats.imbalance < 0.35

    @given(seed=st.integers(0, 20))
    @settings(**SETTINGS)
    def test_cm_always_permutation(self, graph_global, seed):
        # CM is deterministic; seed exercises different graphs via
        # random subsets
        rng = np.random.default_rng(seed)
        verts = np.sort(rng.choice(graph_global.n_vertices,
                                   size=60, replace=False))
        sub, _ = graph_global.subgraph(verts)
        perm = cuthill_mckee(sub)
        assert np.array_equal(np.sort(perm), np.arange(sub.n_vertices))


class TestSparseProperties:
    @given(data=arrays(np.float64, 64,
                       elements=st.floats(-5, 5, allow_nan=False)),
           diag_boost=st.floats(6.0, 20.0))
    @settings(**SETTINGS)
    def test_ldu_matvec_equals_csr(self, data, diag_boost):
        mesh = build_box_mesh(2, 3, 2)
        nif = mesh.n_internal_faces
        ldu = LDUMatrix(mesh.n_cells, mesh.owner[:nif], mesh.neighbour)
        ldu.upper[:] = data[:nif]
        ldu.lower[:] = data[nif:2 * nif]
        ldu.diag[:] = diag_boost
        x = data[:mesh.n_cells]
        np.testing.assert_allclose(ldu.matvec(x), ldu.to_csr() @ x,
                                   rtol=1e-9, atol=1e-9)

    @given(vals=arrays(np.float64, 12,
                       elements=st.floats(0.1, 10, allow_nan=False)))
    @settings(**SETTINGS)
    def test_block_conversion_any_values(self, vals, block_setup):
        ldu, conv, blk = block_setup
        ldu2 = ldu.copy()
        ldu2.diag[: vals.size] = vals + 10.0
        conv.update_values(blk, ldu2)
        x = np.linspace(0, 1, ldu.n)
        # atol covers near-cancelling rows, where the two accumulation
        # orders legitimately differ by an ulp of the summands
        np.testing.assert_allclose(blk.matvec(x), ldu2.matvec(x),
                                   rtol=1e-12, atol=1e-13)


class TestDnnProperties:
    @given(x=arrays(np.float64, (7, 3),
                    elements=st.floats(-100, 100, allow_nan=False)))
    @settings(**SETTINGS)
    def test_zscore_roundtrip(self, x):
        s = ZScoreScaler().fit(x)
        np.testing.assert_allclose(s.inverse(s.transform(x)), x,
                                   rtol=1e-9, atol=1e-9)

    @given(y=arrays(np.float64, 9,
                    elements=st.floats(1e-20, 1.0, allow_nan=False)))
    @settings(**SETTINGS)
    def test_boxcox_monotone(self, y):
        bc = BoxCoxTransform(0.1)
        ys = np.sort(y)
        z = bc.transform(ys)
        assert np.all(np.diff(z) >= -1e-12)

    @given(x=arrays(np.float64, 50,
                    elements=st.floats(-10, 10, allow_nan=False)))
    @settings(**SETTINGS)
    def test_gelu_table_close_everywhere(self, x):
        tab = GeLUTable(precision="fp64")
        err = np.abs(tab(x) - gelu_exact(x))
        assert err.max() < 5e-3  # bounded by the tail clamp

    @given(x=arrays(np.float64, 20,
                    elements=st.floats(-3, 3, allow_nan=False)))
    @settings(**SETTINGS)
    def test_fp16_quantization_relative_error(self, x):
        from repro.dnn import quantize_fp16

        q = quantize_fp16(x)
        err = np.abs(q - x)
        assert np.all(err <= np.maximum(np.abs(x) * 1e-3, 1e-6))


class TestMeshProperties:
    @given(nx=st.integers(2, 5), ny=st.integers(2, 5), nz=st.integers(2, 4))
    @settings(**SETTINGS)
    def test_box_volume_closure(self, nx, ny, nz):
        m = build_box_mesh(nx, ny, nz, lengths=(1.0, 2.0, 0.5))
        assert m.cell_volumes.sum() == pytest.approx(1.0)
        acc = np.zeros((m.n_cells, 3))
        np.add.at(acc, m.owner, m.face_areas)
        np.add.at(acc, m.neighbour, -m.face_areas[:m.n_internal_faces])
        assert np.abs(acc).max() < 1e-12

    @given(nx=st.integers(2, 4), periodic=st.booleans())
    @settings(**SETTINGS)
    def test_face_counts_formula(self, nx, periodic):
        m = build_box_mesh(nx, nx, nx, periodic=(periodic,) * 3)
        if periodic:
            assert m.n_internal_faces == 3 * nx**3
        else:
            assert m.n_internal_faces == 3 * nx**2 * (nx - 1)


class TestDistProperties:
    @given(nx=st.integers(2, 4), ny=st.integers(2, 3), nz=st.integers(1, 3),
           periodic=st.booleans(), nparts=st.integers(2, 4),
           seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_distributed_jacobi_equals_serial(
            self, nx, ny, nz, periodic, nparts, seed):
        """Any mesh x any partition (ragged, disconnected, faceless
        owned blocks included): the distributed preconditioner's
        stacked rows equal the serial Jacobi of the undecomposed
        operator bitwise -- it does not depend on the rank count."""
        mesh = build_box_mesh(nx, ny, nz, periodic=(periodic, False, False))
        rng = np.random.default_rng(seed)
        parts = rng.integers(0, nparts, mesh.n_cells)
        parts[:nparts] = np.arange(nparts)      # no empty part
        dec = Decomposition.from_mesh(mesh, nparts, parts=parts)
        mats = [make_laplacian_ldu(s.mesh) for s in dec.subdomains]
        apply = DistributedSystem(dec, SimulatedComm(nparts),
                                  mats).preconditioner()
        serial = LocalSystem(make_laplacian_ldu(mesh)).preconditioner()
        owned = np.concatenate([s.owned_global for s in dec.subdomains])
        r = rng.standard_normal((mesh.n_cells, 2))
        assert np.array_equal(apply(r[owned]), serial(r)[owned])


# -- module-scoped heavyweight fixtures for hypothesis classes ----------
@pytest.fixture(scope="module")
def mech_global(mech):
    return mech


@pytest.fixture(scope="module")
def kin_global(kin):
    return kin


@pytest.fixture(scope="module")
def pr_global(mech):
    from repro.thermo import PengRobinson

    return PengRobinson(mech.species)


@pytest.fixture(scope="module")
def rf_global(mech):
    from repro.thermo import RealFluidMixture

    return RealFluidMixture(mech)


@pytest.fixture(scope="module")
def graph_global():
    return cell_graph_from_mesh(build_box_mesh(8, 8, 5))


@pytest.fixture(scope="module")
def block_setup(box_mesh):
    from repro.mesh import cell_graph_from_mesh as cg
    from repro.mesh import partition_renumbering
    from repro.partition import partition_graph as pg
    from repro.sparse import build_block_converter

    g = cg(box_mesh)
    mem = pg(g, 4)
    perm = partition_renumbering(g, mem)
    mesh2 = box_mesh.renumbered(perm)
    ldu = make_laplacian_ldu(mesh2)
    conv = build_block_converter(ldu, mem[np.argsort(perm)])
    return ldu, conv, conv.convert(ldu)
