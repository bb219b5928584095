"""Distributed Krylov solves over per-rank LDU blocks.

:class:`DistributedSystem` presents the locally-assembled operators of
the ranks its communicator endpoint hosts in the *stacked* layout
(owned rows of the first hosted rank, then the next, ...): all ``P``
ranks -- the whole global system -- when the driver steps them over a
``SimulatedComm``, one rank's block in each worker of a parallel run
over ``SharedMemComm``.  It is the distributed implementation of the
*system* the blocked Krylov bodies are handed (see
:class:`repro.solvers.blocked.LocalSystem` for the protocol), so they
run unmodified on that layout -- only what the system does changes.
Blocks are column-major as everywhere in the Krylov layer: a
C-contiguous ``(k, N)`` block whose row ``j`` is column ``j``, so a
hosted rank's part is the cell slice ``x[:, sl]``.

* ``matvec_multi`` -- scatter the stacked iterate to the ranks, **halo
  exchange** the ghost cells, apply each local LDU block, restack the
  owned cells (one packed message per neighbour pair per matvec);
* ``coldot`` / ``colsum_abs`` -- per-rank partial row reductions
  combined through ``comm.allreduce`` (one blocking collective per
  reduction, exactly the pattern whose ``log2(P) + beta*P`` cost drives
  the paper's strong-scaling decay).  A column's partials, and so its
  whole trajectory, do not depend on the other columns of its block.

Every matvec refreshes the ghost rows (blocking), then applies each
rank's owned rows in two halves: an **interior** part (faces with both
cells owned -- no halo dependency) and a **boundary tail** (cut-face
contributions that read ghost values).

Preconditioning is communication-free, as on a real machine: the one
preconditioner is Jacobi on the owned diagonal, which equals the serial
operator's entry for entry -- so a decomposed solve and a serial one
are preconditioned identically and differ only in the order of their
reductions.  PCG's symmetry requirement is checked rank-locally, on
each hosted rank's owned interior block
(:meth:`DistributedSystem.is_symmetric`), before the first iteration:
no collective.
"""

from __future__ import annotations

import numpy as np

from ..solvers.blocked import krylov_solve, row_dot
from .decompose import Decomposition
from .halo import HaloExchanger
from .rank_operator import RankOperator, scratch_buffer

__all__ = ["DistributedSystem", "solve_distributed"]

#: rotation depth of the matvec output pool -- results stay valid
#: across this many subsequent matvecs (the blocked solvers hold a
#: product across at most one further matvec)
_OUT_SLOTS = 3


class DistributedSystem:
    """The operator rows of the ranks a communicator endpoint hosts.

    The system of a distributed Krylov solve: every matvec goes through
    a halo exchange and every reduction through an allreduce.  Rows are
    the owned rows of ``comm.ranks`` stacked in rank order (see the
    module docstring); both fabrics reduce the per-rank partials in
    rank order, so the Krylov trajectory is bitwise the same either
    way.  ``nnz`` counts the stored entries of the hosted rows; over
    all ranks it is the undecomposed operator's count, so flop totals
    are comparable across execution modes.

    A system is persistent: it owns the work buffers, the stacked
    layout and one :class:`~repro.dist.rank_operator.RankOperator` per
    hosted rank (row split, local blocks), all fixed by the
    decomposition's sparsity.  A driver builds it once and re-binds it
    (:meth:`bind`) to each solve's matrices, so warm solves allocate
    nothing and never rebuild a structure.

    Parameters
    ----------
    mats:
        One locally assembled LDU matrix per hosted rank, in
        ``comm.ranks`` order.
    """

    def __init__(self, decomp: Decomposition, comm, mats: list,
                 exchanger: HaloExchanger | None = None):
        if len(mats) != len(comm.ranks):
            raise ValueError("need one local matrix per hosted rank")
        self.decomp = decomp
        self.comm = comm
        self.mats = mats
        self.exchanger = exchanger or HaloExchanger(decomp, comm)
        self._bufs: dict = {}
        self._out_rot = 0
        self.ops = [RankOperator(decomp.subdomains[r], m)
                    for r, m in zip(comm.ranks, mats)]
        ends = np.cumsum([op.sub.n_owned for op in self.ops]).tolist()
        #: row slice of each hosted rank, the row count, the entry count
        self.slices = [slice(a, b) for a, b in zip([0] + ends, ends)]
        self.n, self.nnz = ends[-1], sum(op.nnz for op in self.ops)

    def bind(self, mats: list) -> None:
        """Adopt the matrices of the next solve (same sparsity, the
        coefficients they hold *now*)."""
        self.mats = mats
        for op, m in zip(self.ops, mats):
            op.bind(m)

    def _buf(self, key: tuple, shape: tuple) -> np.ndarray:
        return scratch_buffer(self._bufs, key, shape)

    def _next_out(self, k: int) -> np.ndarray:
        """The next ``(k, n)`` slot of the rotating output pool: valid
        until ``_OUT_SLOTS - 1`` further matvecs, then reused."""
        # size the whole pool, not just this call's slot: later matvecs
        # of a solve see *compressed* blocks (converged columns retire),
        # so a slot first hit late in an iteration would otherwise grow
        # again when a wider solve lands on it steps later
        for slot in range(_OUT_SLOTS):
            self._buf(("out", slot), (k, self.n))
        out = self._buf(("out", self._out_rot), (k, self.n))
        self._out_rot = (self._out_rot + 1) % _OUT_SLOTS
        return out

    # -- product and reductions ----------------------------------------
    def matvec_multi(self, x: np.ndarray) -> np.ndarray:
        """Y = A X on the stacked ``(k, N)`` layout, with one ghost
        refresh (the exchanger sees each local block as its
        ``(n_local, k)`` transpose, a view).

        The returned block is a slot of the rotating output pool.
        """
        locs = [op.load(x[:, sl]) for op, sl in zip(self.ops, self.slices)]
        out = self._next_out(x.shape[0])
        self.exchanger.refresh([loc.T for loc in locs])
        for op, loc, sl in zip(self.ops, locs, self.slices):
            op.apply_interior(loc, out[:, sl])
            op.apply_boundary(loc, out[:, sl])
        return out

    def coldot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-column dot products via per-rank row partials +
        allreduce (``row_dot``: see :meth:`LocalSystem.coldot`)."""
        parts = self._buf(("red",), (len(self.slices), a.shape[0]))
        for part, sl in zip(parts, self.slices):
            row_dot(a[:, sl], b[:, sl], out=part)
        return np.atleast_1d(self.comm.allreduce(parts, op="sum"))

    def colsum_abs(self, r: np.ndarray) -> np.ndarray:
        """Per-column L1 norms via per-rank row partials + allreduce."""
        parts = self._buf(("red",), (len(self.slices), r.shape[0]))
        for part, sl in zip(parts, self.slices):
            np.abs(r[:, sl]).sum(axis=1, out=part)
        return np.atleast_1d(self.comm.allreduce(parts, op="sum"))

    # -- preconditioner and PCG's precondition ------------------------
    def preconditioner(self):
        """Jacobi on the stacked layout, communication-free.  The owned
        diagonal equals the serial operator's, so this matches
        :meth:`LocalSystem.preconditioner` entry for entry."""
        r_diag = self._buf(("rdiag",), (self.n,))
        np.concatenate([op.mat.diag[:op.sub.n_owned] for op in self.ops],
                       out=r_diag)
        np.reciprocal(r_diag, out=r_diag)

        def apply(r: np.ndarray) -> np.ndarray:
            """Scale a stacked residual (1-D or ``(k, N)``) by the
            inverse diagonal, along its last (cell) axis."""
            return r * r_diag

        return apply

    def is_symmetric(self) -> bool:
        """Whether every hosted rank's owned interior block is exactly
        symmetric -- a rank-local check, no collective."""
        return all(op.is_symmetric() for op in self.ops)


#: :func:`~repro.solvers.blocked.krylov_solve` on a distributed system,
#: under the name ``DecomposedSolver`` looks up in :mod:`.solver` (where
#: a tracer can wrap it); ``b`` / ``x0`` are stacked ``(N, k)`` blocks,
#: read in place when Fortran-ordered
solve_distributed = krylov_solve
