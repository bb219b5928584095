"""Reference spellings of the face <-> cell transfers.

These are the Python-level scatter / gather forms the structural CSR
operators of ``repro.mesh.face_operators`` (and the CSR products of
``repro.dist.rank_operator.RankOperator``) replaced, kept verbatim:
``np.add.at`` reductions in face-loop order, fancy-index gathers for
interpolation, per-column ``np.bincount`` for the rank-local matvec
halves.  Slow on purpose; the production kernels are compared against
them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["surface_sum", "index_sum", "interpolate", "assembled_diag_source",
           "rank_matvec_halves"]


def surface_sum(mesh, face_values):
    """``+`` into owners, ``-`` into neighbours (the parent's
    ``fvc_surface_integral``), in the dtype of the input."""
    nif = mesh.n_internal_faces
    out = np.zeros((mesh.n_cells,) + face_values.shape[1:],
                   dtype=face_values.dtype)
    np.add.at(out, mesh.owner, face_values)
    np.add.at(out, mesh.neighbour, -face_values[:nif])
    return out


def index_sum(mesh, cells, values):
    """``out[cells] += values`` with duplicate accumulation."""
    out = np.zeros((mesh.n_cells,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, cells, values)
    return out


def interpolate(mesh, cell_values):
    """``w owner + (1 - w) neighbour`` through two fancy gathers (the
    parent's ``VolField.face_values`` internal part)."""
    nif = mesh.n_internal_faces
    w = mesh.face_interpolation_weights().astype(cell_values.dtype)
    w = w.reshape((nif,) + (1,) * (cell_values.ndim - 1))
    return w * cell_values[mesh.owner[:nif]] \
        + (1 - w) * cell_values[mesh.neighbour]


def assembled_diag_source(field, rho, dt, phi, gamma_f):
    """``(diag, source)`` of scalar ``ddt + div(upwind) - laplacian``
    accumulated term by term with ``np.add.at`` (the parent's
    ``assemble_transport`` scatter sequence); ``gamma_f`` per face."""
    mesh = field.mesh
    nif = mesh.n_internal_faces
    own, nb = mesh.owner[:nif], mesh.neighbour
    v = mesh.cell_volumes
    diag = rho * v / dt
    src = rho * v / dt * field.values
    deltas = mesh.boundary_delta_coeffs()
    np.add.at(diag, own, np.maximum(phi.internal, 0.0))
    np.add.at(diag, nb, -np.minimum(phi.internal, 0.0))
    for p in mesh.patches:
        sl = slice(p.start - nif, p.start - nif + p.size)
        vi, vb = field.boundary[p.name].value_coeffs(deltas[sl])
        np.add.at(diag, mesh.owner[p.slice], phi.boundary[sl] * vi)
        np.add.at(src, mesh.owner[p.slice], -phi.boundary[sl] * vb)
    coeff = gamma_f[:nif] * mesh.face_area_mags()[:nif] \
        * mesh.face_delta_coeffs()
    np.add.at(diag, own, coeff)
    np.add.at(diag, nb, coeff)
    for p in mesh.patches:
        sl = slice(p.start - nif, p.start - nif + p.size)
        gi, gb = field.boundary[p.name].gradient_coeffs(deltas[sl])
        gsf = gamma_f[p.slice] * mesh.face_area_mags()[p.slice]
        np.add.at(diag, mesh.owner[p.slice], -gsf * gi)
        np.add.at(src, mesh.owner[p.slice], gsf * gb)
    return diag, src


def rank_matvec_halves(op, loc):
    """``(interior, boundary)`` halves of one rank's owned rows of
    ``A @ loc`` through the parent's per-column ``np.bincount`` loops."""
    m, no = op.mat, op.sub.n_owned
    own, nb = m.owner, m.neighbour
    interior = m.diag[:no, None] * loc[:no]
    boundary = np.zeros_like(interior)
    up = m.upper[op.interior, None] * loc[op.nb_i]
    lo = m.lower[op.interior, None] * loc[op.own_i]
    cut_own = np.nonzero((own < no) & (nb >= no))[0]
    cut_nb = np.nonzero((nb < no) & (own >= no))[0]
    w_up = m.upper[cut_own, None] * loc[nb[cut_own]]
    w_lo = m.lower[cut_nb, None] * loc[own[cut_nb]]
    for j in range(loc.shape[1]):
        interior[:, j] += np.bincount(op.own_i, weights=up[:, j], minlength=no)
        interior[:, j] += np.bincount(op.nb_i, weights=lo[:, j], minlength=no)
        boundary[:, j] += np.bincount(own[cut_own], weights=w_up[:, j],
                                      minlength=no)
        boundary[:, j] += np.bincount(nb[cut_nb], weights=w_lo[:, j],
                                      minlength=no)
    return interior, boundary
