"""The mesh's structural face <-> cell operators against the
``np.add.at`` / fancy-gather oracle of ``tests/face_oracle.py``.

Contract (``docs/ARCHITECTURE.md``, "Face <-> cell transfers"): a
product with a structural operator agrees with the face loop it
replaced to <= 1e-14 relative (fp32: 1e-6), for any trailing shape, in
the dtype of its input.  The +-1 reductions add each cell's faces in
face-loop order and are, in fp64, bitwise-equal to the oracle (numpy's
fp32 ``add.at`` accumulates differently); the interpolation's
``w, 1 - w`` products may be contracted into an FMA by the compiled
kernel, hence the bound.
"""

import numpy as np
import pytest

from repro.dist.decompose import Decomposition
from repro.fv.boundary import FixedGradient, FixedValue
from repro.fv.fields import SurfaceField, VolField
from repro.fv.operators import (assemble_transport, fvc_div, fvc_grad,
                                fvc_laplacian, fvc_surface_integral)
from repro.mesh.rocket import build_rocket_mesh
from repro.mesh.structured import build_box_mesh
from repro.sparse.ldu import LDUMatrix
from tests import face_oracle

#: documented operator-vs-face-loop bound (relative to the result's scale)
OPERATOR_RTOL = 1e-14


def _meshes():
    periodic = build_box_mesh(5, 4, 3, periodic=(True, True, True))
    rng = np.random.default_rng(7)
    return {
        # six boundary patches, no wrap faces
        "box": build_box_mesh(4, 3, 5),
        # two faces join every cell pair
        "periodic-n2": build_box_mesh(2, 2, 2, periodic=(True, True, True)),
        "renumbered": periodic.renumbered(rng.permutation(periodic.n_cells)),
        # owned + ghost cells; ghosts own no face
        "submesh": Decomposition.from_mesh(periodic, 2).subdomains[1].mesh,
        # jittered polar sector: interpolation weights 0.32..0.78, not
        # the box meshes' uniform 1/2
        "rocket": build_rocket_mesh(nr=3, ntheta_per_sector=4, nz=4),
    }


MESHES = _meshes()
TRAILING = {"scalar": (), "vector": (3,), "tensor": (3, 3), "species": (17,)}


@pytest.fixture(params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]


def _close(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    scale = np.abs(ref).max() + np.finfo(ref.dtype).tiny
    tol = OPERATOR_RTOL if ref.dtype == np.float64 else 1e-6
    assert np.abs(got - ref).max() <= tol * scale


@pytest.mark.parametrize("trailing", sorted(TRAILING))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestOperatorsMatchFaceLoops:
    def _data(self, n, trailing, dtype, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n,) + TRAILING[trailing]).astype(dtype)

    def test_surface_sum(self, mesh, trailing, dtype):
        fv = self._data(mesh.n_faces, trailing, dtype)
        got = mesh.face_operators().surface_sum(fv)
        ref = face_oracle.surface_sum(mesh, fv)
        _close(got, ref)
        if dtype == np.float64:                     # same association order
            np.testing.assert_array_equal(got, ref)

    def test_owner_neighbour_boundary_sums(self, mesh, trailing, dtype):
        ops = mesh.face_operators()
        nif = mesh.n_internal_faces
        vi = self._data(nif, trailing, dtype, seed=1)
        vb = self._data(mesh.n_boundary_faces, trailing, dtype, seed=2)
        for got, cells, vals in [
                (ops.owner_sum(vi), mesh.owner[:nif], vi),
                (ops.neighbour_sum(vi), mesh.neighbour, vi),
                (ops.boundary_sum(vb), mesh.owner[nif:], vb)]:
            ref = face_oracle.index_sum(mesh, cells, vals)
            _close(got, ref)
            if dtype == np.float64:
                np.testing.assert_array_equal(got, ref)

    def test_interpolate(self, mesh, trailing, dtype):
        """Internal faces: the two-gather formula; boundary faces: the
        owner's value (what a zero-gradient patch reads)."""
        x = self._data(mesh.n_cells, trailing, dtype, seed=3)
        nif = mesh.n_internal_faces
        _close(mesh.face_operators().interpolate(x), np.concatenate(
            [face_oracle.interpolate(mesh, x), x[mesh.owner[nif:]]]))


class TestOperatorObject:
    def test_memoised_per_mesh(self, mesh):
        assert mesh.face_operators() is mesh.face_operators()

    def test_footprint(self):
        """Distinct arrays only: the interpolation shares the signed
        incidence's index arrays, the owner / neighbour / boundary
        halves share one ``ones`` and one ``arange`` -- 184 bytes per
        cell (6.0 MB) at the 32^3 benchmark size, 208 here.  Every MB
        is a MB of ``peak_rss_mb``, whose bound has little room."""
        mesh = build_box_mesh(16, 16, 16, periodic=(True,) * 3)
        arrays = {}
        for a in vars(mesh.face_operators()).values():
            for x in (a.data, a.indices, a.indptr):
                x = x if x.base is None else x.base
                arrays[id(x)] = x.nbytes
        assert sum(arrays.values()) < 220 * mesh.n_cells


class TestExplicitOperators:
    """fvc_* on a patched mesh with non-trivial BCs vs the face loops."""

    @pytest.fixture()
    def field(self):
        m = MESHES["box"]
        rng = np.random.default_rng(11)
        return VolField("f", m, rng.standard_normal(m.n_cells), boundary={
            "xmin": FixedValue(2.0), "ymax": FixedGradient(-0.5)})

    def test_surface_integral_and_grad(self, field):
        m = field.mesh
        rng = np.random.default_rng(12)
        for shape in [(), (3,), (3, 3)]:
            fv = rng.standard_normal((m.n_faces,) + shape)
            np.testing.assert_array_equal(
                fvc_surface_integral(m, fv), face_oracle.surface_sum(m, fv))
        face_f = np.concatenate([face_oracle.interpolate(m, field.values),
                                 field.boundary_face_values()])
        _close(field.face_values(), face_f)
        ref = face_oracle.surface_sum(m, m.face_areas * face_f[:, None]) \
            / m.cell_volumes[:, None]
        _close(fvc_grad(field), ref)

    def test_div_and_laplacian(self, field):
        m = field.mesh
        nif = m.n_internal_faces
        rng = np.random.default_rng(13)
        phi = SurfaceField("phi", m, rng.standard_normal(m.n_faces))
        face_f = np.concatenate([face_oracle.interpolate(m, field.values),
                                 field.boundary_face_values()])
        _close(fvc_div(phi, field),
               face_oracle.surface_sum(m, phi.values * face_f)
               / m.cell_volumes)
        # the parent's fvc_laplacian: per-patch boundary fluxes, then
        # three scatters (owner, neighbour, boundary owner)
        gamma = 0.3
        mag = np.linalg.norm(m.face_areas, axis=1)
        flux = np.zeros(m.n_faces)
        flux[:nif] = gamma * mag[:nif] * m.face_delta_coeffs() * (
            field.values[m.neighbour] - field.values[m.owner[:nif]])
        deltas = m.boundary_delta_coeffs()
        for p in m.patches:
            sl = slice(p.start - nif, p.start - nif + p.size)
            gi, gb = field.boundary[p.name].gradient_coeffs(deltas[sl])
            flux[p.slice] = gamma * mag[p.slice] * (
                gi * field.values[m.owner[p.slice]] + gb)
        _close(fvc_laplacian(gamma, field),
               face_oracle.surface_sum(m, flux) / m.cell_volumes)


class TestFusedAssemblyMatchesScatterSequence:
    @pytest.mark.parametrize("name", ["box", "periodic-n2", "submesh",
                                      "rocket"])
    def test_diag_and_source(self, name):
        """<= 1e-12: the patches' boundary products are now summed per
        face before one reduction (the parent scattered patch by
        patch), and a cell's internal faces are summed before they
        meet the ddt term."""
        m = MESHES[name]
        rng = np.random.default_rng(21)
        names = {p.name for p in m.patches}
        bcs = {k: v for k, v in {"xmin": FixedValue(1.5),
                                 "zmax": FixedGradient(0.25),
                                 "injector_plate": FixedValue(1.5),
                                 "outlet": FixedGradient(0.25)}.items()
               if k in names}
        field = VolField("f", m, rng.standard_normal(m.n_cells), boundary=bcs)
        phi = SurfaceField("phi", m, rng.standard_normal(m.n_faces))
        rho = rng.uniform(0.5, 2.0, m.n_cells)
        gamma_f = rng.uniform(0.1, 1.0, m.n_faces)
        a = LDUMatrix.from_mesh(m)
        b = np.zeros(m.n_cells)
        assemble_transport(a, b, field, rho, 1e-3, phi=phi, gamma=gamma_f)
        diag, src = face_oracle.assembled_diag_source(
            field, rho, 1e-3, phi, gamma_f)
        assert np.abs(a.diag - diag).max() <= 1e-12 * np.abs(diag).max()
        assert np.abs(b - src).max() <= 1e-12 * np.abs(src).max()
