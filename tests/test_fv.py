"""Unit tests: FV fields, boundary conditions, operators, parallel
construction."""

import numpy as np
import pytest

from repro.fv.boundary import FixedGradient, FixedValue, ZeroGradient
from repro.fv.construction import classify_faces, two_phase_scatter
from repro.fv.fields import SurfaceField, VolField
from repro.fv.operators import (
    fvc_div,
    fvc_grad,
    fvc_laplacian,
    fvm_ddt,
    fvm_div,
    fvm_laplacian,
    fvm_sp,
)
from repro.core.cases import build_tgv_case
from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.structured import build_box_mesh
from repro.partition.partitioner import partition_graph
from repro.solvers.controls import SolverControls

CTL = SolverControls(tolerance=1e-12, max_iterations=800)


@pytest.fixture()
def mesh1d():
    return build_box_mesh(20, 1, 1, lengths=(1.0, 0.05, 0.05))


class TestFields:
    def test_shape_validation(self, box_mesh):
        with pytest.raises(ValueError):
            VolField("f", box_mesh, np.zeros(box_mesh.n_cells + 1))

    def test_unknown_patch_rejected(self, box_mesh):
        with pytest.raises(KeyError):
            VolField("f", box_mesh, np.zeros(box_mesh.n_cells),
                     boundary={"nope": FixedValue(1.0)})

    def test_default_zero_gradient(self, box_mesh):
        f = VolField("f", box_mesh, np.arange(box_mesh.n_cells, dtype=float))
        assert all(isinstance(bc, ZeroGradient) for bc in f.boundary.values())

    def test_face_values_uniform_field(self, box_mesh):
        f = VolField("f", box_mesh, np.full(box_mesh.n_cells, 3.0))
        np.testing.assert_allclose(f.face_values(), 3.0)

    def test_boundary_fixed_value(self, box_mesh):
        f = VolField("f", box_mesh, np.zeros(box_mesh.n_cells),
                     boundary={"xmin": FixedValue(7.0)})
        fv = f.face_values()
        p = box_mesh.patch("xmin")
        np.testing.assert_allclose(fv[p.slice], 7.0)

    def test_vector_component_extraction(self, box_mesh):
        vals = np.random.default_rng(0).random((box_mesh.n_cells, 3))
        u = VolField("U", box_mesh, vals,
                     boundary={"xmin": FixedValue(np.array([1.0, 2.0, 3.0]))})
        uy = u.component(1)
        np.testing.assert_array_equal(uy.values, vals[:, 1])
        assert uy.boundary["xmin"].value == pytest.approx(2.0)

    def test_volume_average(self, box_mesh):
        f = VolField("f", box_mesh, np.full(box_mesh.n_cells, 5.0))
        assert f.volume_average() == pytest.approx(5.0)

    def test_surface_field_split(self, box_mesh):
        phi = SurfaceField("phi", box_mesh, np.arange(box_mesh.n_faces,
                                                      dtype=float))
        assert phi.internal.size == box_mesh.n_internal_faces
        assert phi.boundary.size == box_mesh.n_boundary_faces


class TestBoundaryConditions:
    def test_fixed_value_coeffs(self):
        bc = FixedValue(4.0)
        delta = np.array([10.0, 10.0])
        vi, vb = bc.value_coeffs(delta)
        np.testing.assert_allclose(vi, 0.0)
        np.testing.assert_allclose(vb, 4.0)
        gi, gb = bc.gradient_coeffs(delta)
        np.testing.assert_allclose(gi, -10.0)
        np.testing.assert_allclose(gb, 40.0)

    def test_zero_gradient_coeffs(self):
        bc = ZeroGradient()
        delta = np.array([3.0])
        vi, vb = bc.value_coeffs(delta)
        assert vi[0] == 1.0 and vb[0] == 0.0
        gi, gb = bc.gradient_coeffs(delta)
        assert gi[0] == 0.0 and gb[0] == 0.0

    def test_fixed_gradient_face_value(self):
        bc = FixedGradient(2.0)
        delta = np.array([4.0])  # 1/|d|
        vi, vb = bc.value_coeffs(delta)
        assert vi[0] == 1.0
        assert vb[0] == pytest.approx(0.5)  # g/delta


class TestImplicitOperators:
    def test_steady_diffusion_linear_profile(self, mesh1d):
        u = VolField("u", mesh1d, np.zeros(mesh1d.n_cells),
                     boundary={"xmin": FixedValue(0.0),
                               "xmax": FixedValue(1.0)})
        for _ in range(200):
            (fvm_ddt(1.0, u, 0.01) - fvm_laplacian(1.0, u)).solve(controls=CTL)
        np.testing.assert_allclose(u.values, mesh1d.cell_centres[:, 0],
                                   atol=1e-6)

    def test_ddt_identity(self, box_mesh):
        f = VolField("f", box_mesh, np.full(box_mesh.n_cells, 2.0))
        eqn = fvm_ddt(1.0, f, 0.1)
        # A f = b at the old value (nothing else changes f)
        np.testing.assert_allclose(eqn.residual(), 0.0, atol=1e-12)

    def test_upwind_advection_conserves_mass(self, periodic_mesh):
        m = periodic_mesh
        vel = np.array([1.0, 0.0, 0.0])
        phi = SurfaceField("phi", m, m.face_areas @ vel)
        c0 = np.exp(-((m.cell_centres - 0.5) ** 2).sum(axis=1) / 0.02)
        c = VolField("c", m, c0.copy())
        total0 = c.volume_integral()
        for _ in range(10):
            (fvm_ddt(1.0, c, 0.01) + fvm_div(phi, c)).solve(controls=CTL)
        assert c.volume_integral() == pytest.approx(total0, rel=1e-10)

    def test_upwind_bounded(self, periodic_mesh):
        m = periodic_mesh
        phi = SurfaceField("phi", m, m.face_areas @ np.array([1.0, 0.5, 0.0]))
        c = VolField("c", m, (m.cell_centres[:, 0] > 0.5).astype(float))
        for _ in range(10):
            (fvm_ddt(1.0, c, 0.02) + fvm_div(phi, c)).solve(controls=CTL)
        assert c.min() > -1e-9
        assert c.max() < 1.0 + 1e-9

    def test_linear_div_scheme_runs(self, periodic_mesh):
        m = periodic_mesh
        phi = SurfaceField("phi", m, m.face_areas @ np.array([1.0, 0.0, 0.0]))
        c = VolField("c", m, np.sin(2 * np.pi * m.cell_centres[:, 0]))
        eqn = fvm_ddt(1.0, c, 0.001) + fvm_div(phi, c, scheme="linear")
        _, res = eqn.solve(controls=CTL)
        assert res.converged

    def test_fvm_sp(self, box_mesh):
        f = VolField("f", box_mesh, np.full(box_mesh.n_cells, 1.0))
        eqn = fvm_sp(2.0, f)
        np.testing.assert_allclose(eqn.a.diag, 2.0 * box_mesh.cell_volumes)

    def test_auto_solver_uses_the_pcg_symmetry_test(self, mech):
        """``solve()`` picks PCG only for an exactly symmetric operator
        (the test PCG applies): one ulp off goes to PBiCGStab instead
        of PCG refusing it."""
        mesh = build_tgv_case(n=4, mech=mech).mesh
        f = VolField("f", mesh, np.zeros(mesh.n_cells))
        x = np.random.default_rng(3).random(mesh.n_cells)
        picked = []
        for nudge in (False, True):
            eqn = fvm_sp(1.0, f) - fvm_laplacian(1e-3, f)
            if nudge:
                eqn.a.lower[0] = np.nextafter(eqn.a.lower[0], 0.0)
            eqn.source = eqn.a.matvec(x)
            f.values[:] = 0.0
            _, res = eqn.solve(controls=CTL)
            assert res.converged
            picked.append(res.solver)
        assert picked == ["PCG", "PBiCGStab"]

    def test_matrix_algebra(self, box_mesh):
        f = VolField("f", box_mesh, np.random.default_rng(1).random(
            box_mesh.n_cells))
        a = fvm_ddt(1.0, f, 0.1)
        b = fvm_laplacian(0.5, f)
        combo = a - b
        x = np.random.default_rng(2).random(box_mesh.n_cells)
        np.testing.assert_allclose(combo.a.matvec(x),
                                   a.a.matvec(x) - b.a.matvec(x), rtol=1e-12)

    def test_relaxation_fixed_point(self, box_mesh):
        f = VolField("f", box_mesh, np.full(box_mesh.n_cells, 3.0))
        eqn = fvm_ddt(1.0, f, 0.1)
        eqn.relax(0.7)
        # the current value stays a solution after relaxation
        np.testing.assert_allclose(eqn.residual(), 0.0, atol=1e-10)

    def test_mismatched_fields_raise(self, box_mesh):
        f = VolField("f", box_mesh, np.zeros(box_mesh.n_cells))
        g = VolField("g", box_mesh, np.zeros(box_mesh.n_cells))
        with pytest.raises(ValueError):
            fvm_ddt(1.0, f, 0.1) + fvm_ddt(1.0, g, 0.1)

    def test_laplacian_face_gamma(self, mesh1d):
        gamma_f = np.full(mesh1d.n_faces, 2.0)
        u = VolField("u", mesh1d, mesh1d.cell_centres[:, 0].copy(),
                     boundary={"xmin": FixedValue(0.0),
                               "xmax": FixedValue(1.0)})
        eqn = fvm_laplacian(gamma_f, u)
        # Laplacian of a linear profile vanishes
        np.testing.assert_allclose(eqn.a.matvec(u.values) - eqn.source,
                                   0.0, atol=1e-10)


class TestExplicitOperators:
    def test_grad_linear_exact(self, box_mesh):
        c = box_mesh.cell_centres
        f = VolField("f", box_mesh, 2.0 * c[:, 0] + 3.0 * c[:, 1],
                     boundary={p.name: FixedGradient(0.0)
                               for p in box_mesh.patches})
        # zero-gradient BCs pollute boundary cells; check interior only
        g = fvc_grad(VolField("f", box_mesh, 2.0 * c[:, 0] + 3.0 * c[:, 1]))
        interior = ((c > 1.0 / 6 + 1e-9) & (c < 1 - 1.0 / 6 - 1e-9)).all(axis=1)
        np.testing.assert_allclose(g[interior, 0], 2.0, atol=1e-9)
        np.testing.assert_allclose(g[interior, 1], 3.0, atol=1e-9)

    def test_grad_periodic_sinusoid(self, periodic_mesh):
        m = periodic_mesh
        x = m.cell_centres[:, 0]
        f = VolField("f", m, np.sin(2 * np.pi * x))
        g = fvc_grad(f)
        # Green-Gauss with linear face interpolation on a uniform
        # periodic grid is the central difference: the discrete-exact
        # result is cos(2 pi x) * sin(2 pi h) / h.
        h = 1.0 / 6.0
        expected = np.cos(2 * np.pi * x) * np.sin(2 * np.pi * h) / h
        np.testing.assert_allclose(g[:, 0], expected, atol=1e-10)

    def test_div_of_uniform_flux_zero(self, periodic_mesh):
        m = periodic_mesh
        phi = SurfaceField("phi", m, m.face_areas @ np.array([1.0, 2.0, 3.0]))
        div = fvc_div(phi)
        np.testing.assert_allclose(div, 0.0, atol=1e-9)

    def test_fvc_laplacian_of_linear_zero(self, box_mesh):
        f = VolField("f", box_mesh, box_mesh.cell_centres[:, 0].copy(),
                     boundary={"xmin": FixedValue(0.0),
                               "xmax": FixedValue(1.0)})
        lap = fvc_laplacian(1.0, f)
        interior = np.abs(box_mesh.cell_centres[:, 1] - 0.5) < 0.3
        np.testing.assert_allclose(lap[interior], 0.0, atol=1e-8)

    def test_vector_grad_shape(self, box_mesh):
        u = VolField("U", box_mesh, np.random.default_rng(3).random(
            (box_mesh.n_cells, 3)))
        g = fvc_grad(u)
        assert g.shape == (box_mesh.n_cells, 3, 3)


class TestParallelConstruction:
    def test_classification_covers_all_faces(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        mem = partition_graph(g, 4)
        cls = classify_faces(box_mesh, mem)
        assert cls.n_intra + cls.n_inter == box_mesh.n_internal_faces

    def test_two_phase_matches_serial(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        mem = partition_graph(g, 4)
        cls = classify_faces(box_mesh, mem)
        flux = np.random.default_rng(4).random(box_mesh.n_internal_faces)
        out = two_phase_scatter(box_mesh, cls, flux)
        ref = np.zeros(box_mesh.n_cells)
        nif = box_mesh.n_internal_faces
        np.add.at(ref, box_mesh.owner[:nif], flux)
        np.add.at(ref, box_mesh.neighbour, -flux)
        np.testing.assert_allclose(out, ref, rtol=1e-14)

    def test_intra_faces_disjoint_across_threads(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        mem = partition_graph(g, 4)
        cls = classify_faces(box_mesh, mem)
        nif = box_mesh.n_internal_faces
        for t, faces in enumerate(cls.intra_faces):
            cells = np.concatenate([box_mesh.owner[:nif][faces],
                                    box_mesh.neighbour[faces]])
            assert np.all(mem[cells] == t)

    def test_inter_fraction_reasonable(self, rocket_mesh):
        g = cell_graph_from_mesh(rocket_mesh)
        mem = partition_graph(g, 8)
        cls = classify_faces(rocket_mesh, mem)
        assert 0.0 < cls.inter_fraction < 0.35
