"""Shared fixtures: mechanism, meshes, matrices, trained surrogates.

Also the shared numerical-tolerance vocabulary: every comparison
tolerance in the suite names one of the constants below instead of an
ad-hoc literal, so a tolerance carries its justification with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chemistry.kinetics import KineticsEvaluator
from repro.chemistry.mechanism import load_mechanism
from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.renumber import partition_renumbering
from repro.mesh.rocket import build_rocket_mesh
from repro.mesh.structured import build_box_mesh
from repro.sparse.convert import build_block_converter
from repro.sparse.ldu import LDUMatrix

# -- shared comparison tolerances --------------------------------------
#: one fp64 expression respelled (LDU vs CSR, a+a vs 2a): the only
#: divergence is reassociated rounding of a handful of terms
EXACT_RTOL = 1e-13
#: exact value shuffles (format conversions, permutations) admit ulp
#: dust at most
EXACT_ATOL = 1e-14
#: matrix-vector products accumulated in different orders over
#: O(row-length) fp64 terms
MATVEC_RTOL = 1e-12
#: absolute floor for matvec rows that nearly cancel
MATVEC_ATOL = 1e-12
#: residual of an exactly-consistent system (b built as A @ x): pure
#: accumulation rounding
RESIDUAL_ATOL = 1e-12
#: one triangular sweep is a direct forward substitution; its error
#: grows with the recurrence depth
SWEEP_RTOL = 1e-10
#: forward error of a Krylov solve converged to residual tol ~1e-12 on
#: the (mildly conditioned) test operators
SOLVE_ATOL = 1e-8
#: forward error at looser residual tolerances (1e-9..1e-10) and for
#: multigrid cycles
LOOSE_SOLVE_ATOL = 1e-6


@pytest.fixture(scope="session")
def mech():
    return load_mechanism()


@pytest.fixture(scope="session")
def kin(mech):
    return KineticsEvaluator(mech)


@pytest.fixture(scope="session")
def box_mesh():
    return build_box_mesh(6, 6, 6, lengths=(1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def periodic_mesh():
    return build_box_mesh(6, 6, 6, lengths=(1.0, 1.0, 1.0),
                          periodic=(True, True, True))


@pytest.fixture(scope="session")
def rocket_mesh():
    return build_rocket_mesh(nr=6, ntheta_per_sector=8, nz=16, n_sectors=1)


@pytest.fixture(scope="session")
def rocket_graph(rocket_mesh):
    return cell_graph_from_mesh(rocket_mesh)


def make_laplacian_ldu(mesh, shift: float = 0.2) -> LDUMatrix:
    """SPD graph-Laplacian-like LDU matrix on a mesh."""
    nif = mesh.n_internal_faces
    ldu = LDUMatrix(mesh.n_cells, mesh.owner[:nif], mesh.neighbour)
    ldu.upper[:] = -1.0
    ldu.lower[:] = -1.0
    deg = (np.bincount(mesh.owner[:nif], minlength=mesh.n_cells)
           + np.bincount(mesh.neighbour, minlength=mesh.n_cells))
    ldu.diag[:] = deg + shift
    return ldu


def partitioned_blocks(mesh, mem):
    """The ``t x t`` block matrix of :func:`make_laplacian_ldu` on
    ``mesh`` with the rows of each part of ``mem`` grouped and
    Cuthill-McKee ordered (Fig. 6's pipeline): its
    ``offdiag_nnz_fraction()`` and ``n_nonzero_blocks`` are the one
    definition of a partition's block statistics."""
    perm = partition_renumbering(cell_graph_from_mesh(mesh), mem)
    ldu = make_laplacian_ldu(mesh.renumbered(perm))
    return build_block_converter(ldu, mem[np.argsort(perm)]).convert(ldu)


def make_random_spd_ldu(mesh, rng) -> LDUMatrix:
    """SPD (strictly diagonally dominant) matrix on a mesh with random
    symmetric off-diagonals."""
    m = make_laplacian_ldu(mesh)
    m.upper[:] = m.lower[:] = -(0.5 + rng.random(m.upper.size))
    m.diag *= 1.5
    return m


def make_random_spd_ldus(dec, rng) -> list:
    """Per-rank SPD matrices with random symmetric off-diagonals."""
    return [make_random_spd_ldu(s.mesh, rng) for s in dec.subdomains]


def checkerboard_parts(mesh) -> np.ndarray:
    """2-part labels of a (non-periodic) box mesh under which no two
    cells of a part share a face: every owned block of the resulting
    decomposition has zero interior faces."""
    ijk = [np.unique(mesh.cell_centres[:, a].round(12), return_inverse=True)[1]
           for a in range(3)]
    return (ijk[0] + ijk[1] + ijk[2]) % 2


@pytest.fixture(scope="session", params=["box", "periodic", "rocket"])
def topology_mesh(request):
    """The three face topologies a kernel meets: a patched box, a fully
    periodic box (wrap faces with owner > neighbour in cell order) and
    the jittered rocket sector (non-uniform interpolation weights)."""
    return request.getfixturevalue(f"{request.param}_mesh")


@pytest.fixture(scope="session")
def spd_ldu(box_mesh):
    return make_laplacian_ldu(box_mesh)


@pytest.fixture(scope="session")
def pure_o2(mech):
    y = np.zeros(mech.n_species)
    y[mech.species_index["O2"]] = 1.0
    return y


@pytest.fixture(scope="session")
def pure_ch4(mech):
    y = np.zeros(mech.n_species)
    y[mech.species_index["CH4"]] = 1.0
    return y


@pytest.fixture(scope="session")
def stoich_mix(mech):
    from repro.chemistry.reactor import premixed_state

    return premixed_state(mech, 1400.0, 10e6)


@pytest.fixture(scope="session")
def tiny_odenet(mech):
    """A small ODENet trained on a synthetic-but-consistent dataset
    derived from one reactor trajectory (fast; accuracy bounds are
    checked by the dedicated accuracy tests, not here)."""
    from repro.chemistry.reactor import ConstantPressureReactor, premixed_state
    from repro.dnn.odenet import ODENet

    reactor = ConstantPressureReactor(mech, rtol=1e-6, atol=1e-9)
    st = premixed_state(mech, 1500.0, 10e6)
    xs, ys = reactor.sample_training_pairs([st], dt_cfd=1e-7, n_snapshots=40,
                                           horizon=5e-5)
    net = ODENet(mech, hidden=(48, 48), seed=0)
    net.fit(xs[:, 0], xs[:, 1], xs[:, 2:], ys, dt=1e-7, epochs=150, lr=3e-3)
    net._train_x = xs
    net._train_y = ys
    return net


@pytest.fixture(scope="session")
def tiny_prnet(mech):
    from repro.dnn.prnet import PRNet
    from repro.thermo.real_fluid import RealFluidMixture

    rf = RealFluidMixture(mech)
    net = PRNet(mech, density_hidden=(48, 24), transport_hidden=(48, 24))
    net.fit_from_manifold(rf, 10e6, epochs=250)
    net._rf = rf
    return net
