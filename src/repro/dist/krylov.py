"""Distributed Krylov solves over per-rank LDU blocks.

:class:`DistributedSystem` presents the locally-assembled operators of
the ranks its communicator endpoint hosts in the *stacked* layout
(owned rows of the first hosted rank, then the next, ...): all ``P``
ranks -- the whole global system -- when the driver steps them over a
``SimulatedComm``, one rank's block in each worker of a parallel run
over ``SharedMemComm``.  It is the distributed implementation of the
*system* the blocked Krylov bodies are handed (see
:class:`repro.solvers.blocked.LocalSystem` for the protocol), so they
run unmodified on that layout -- only what the system does changes:

* ``matvec_multi`` -- scatter the stacked iterate to the ranks, **halo
  exchange** the ghost rows, apply each local LDU block, restack the
  owned rows (one packed message per neighbour pair per matvec);
* ``coldot`` / ``colsum_abs`` -- per-rank partial reductions combined
  through ``comm.allreduce`` (one collective per reduction,
  exactly the pattern whose ``log2(P) + beta*P`` cost drives the
  paper's strong-scaling decay);
* ``fused_reduce`` / ``ifused_reduce`` -- the grouped spellings for
  the communication-avoiding solver variants: the whole group's
  per-rank partials are packed into **one** ``(hosted, n_items, k)``
  allreduce (posted nonblocking for the pipelined PCG, so the
  collective is in flight while the preconditioner and matvec run).

Every matvec splits each rank's owned rows into an **interior** part
(faces with both cells owned -- no halo dependency) and a **boundary
tail** (cut-face contributions that read ghost values).  With
``overlap_halo=True`` the ghost refresh is *posted*, the interior part
is computed while the messages are in flight, and only the tail waits
-- the cost model then prices the phase ``max(t_interior, t_exchange)
+ t_tail`` (:func:`~repro.runtime.comm.overlapped_phase_time`).  The
synchronous path runs the identical split after a blocking refresh, so
both orderings produce bitwise-equal products.

Preconditioning is communication-free, as on a real machine: Jacobi
uses the owned diagonal (identical to the serial operator's), and the
PCG path uses block-Jacobi DIC -- DIC factorized on each rank's owned
diagonal block, with the cut-face coupling dropped (each rank's
level-scheduled factor structure is built once per decomposition and
value-refreshed per solve, see :mod:`.rank_operator`).  Iterates there
differ from the serial DIC ones, but both converge to the same
solution within the requested tolerance.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..solvers.blocked import KRYLOV_VARIANTS, krylov_solve
from .decompose import Decomposition
from .halo import HaloExchanger
from .rank_operator import RankOperator, scratch_buffer

__all__ = ["KRYLOV_VARIANTS", "DistributedSystem", "solve_distributed"]

#: rotation depth of the matvec output pool -- results stay valid
#: across this many subsequent matvecs (the blocked solvers hold a
#: product across at most one further matvec)
_OUT_SLOTS = 3


def _unpack_group(reduced: np.ndarray, n_dots: int):
    """Split a reduced ``(n_items, k)`` group payload back into the
    ``(dot_results, sum_results)`` lists the blocked solvers consume."""
    return ([reduced[i] for i in range(n_dots)],
            [reduced[i] for i in range(n_dots, reduced.shape[0])])


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
    hosted rank (row split, local blocks, cached block-DIC structure),
    all fixed by the decomposition's sparsity.  A driver builds it once
    and re-binds it (:meth:`bind`) to each solve's matrices, so warm
    solves allocate nothing and never rebuild a structure.

    Parameters
    ----------
    mats:
        One locally assembled LDU matrix per hosted rank, in
        ``comm.ranks`` order.
    overlap_halo:
        Post the ghost refresh nonblocking and compute the interior
        rows while it is in flight (the messages are then tagged
        overlappable in the communication ledger).
    """

    def __init__(self, decomp: Decomposition, comm, mats: list,
                 exchanger: HaloExchanger | None = None,
                 overlap_halo: bool = False):
        if len(mats) != len(comm.ranks):
            raise ValueError("need one local matrix per hosted rank")
        self.decomp = decomp
        self.comm = comm
        self.mats = mats
        self.exchanger = exchanger or HaloExchanger(decomp, comm)
        self.overlap_halo = bool(overlap_halo)
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
        """The next ``(n, k)`` slot of the rotating output pool: valid
        until ``_OUT_SLOTS - 1`` further matvecs, then reused."""
        # size the whole pool, not just this call's slot: later matvecs
        # of a solve see *compressed* blocks (converged columns retire),
        # so a slot first hit late in an iteration would otherwise grow
        # again when a wider solve lands on it steps later
        for slot in range(_OUT_SLOTS):
            self._buf(("out", slot), (self.n, k))
        out = self._buf(("out", self._out_rot), (self.n, k))
        self._out_rot = (self._out_rot + 1) % _OUT_SLOTS
        return out

    # -- product and reductions ----------------------------------------
    def matvec_multi(self, x: np.ndarray) -> np.ndarray:
        """Y = A X on the stacked layout, with one ghost refresh.

        The returned block is a slot of the rotating output pool.
        With ``overlap_halo``, the refresh is posted, the interior rows
        (no ghost dependency) are computed while it is in flight, and
        only the cut-face tail runs after ``wait()``.
        """
        locs = [op.load(x[sl]) for op, sl in zip(self.ops, self.slices)]
        out = self._next_out(x.shape[1])
        outs = [out[sl] for sl in self.slices]
        if self.overlap_halo:
            handle = self.exchanger.post(locs)
            for op, loc, o in zip(self.ops, locs, outs):   # overlapped
                op.apply_interior(loc, o)
            handle.wait()
            for op, loc, o in zip(self.ops, locs, outs):   # ghost tail
                op.apply_boundary(loc, o)
        else:
            self.exchanger.refresh(locs)
            for op, loc, o in zip(self.ops, locs, outs):
                op.apply_interior(loc, o)
                op.apply_boundary(loc, o)
        return out

    def coldot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-column dot products via per-rank partials + allreduce."""
        parts = self._buf(("red",), (len(self.slices), a.shape[1]))
        for part, sl in zip(parts, self.slices):
            np.einsum("ij,ij->j", a[sl], b[sl], out=part)
        return np.atleast_1d(self.comm.allreduce(parts, op="sum"))

    def colsum_abs(self, r: np.ndarray) -> np.ndarray:
        """Per-column L1 norms via per-rank partials + allreduce."""
        parts = self._buf(("red",), (len(self.slices), r.shape[1]))
        for part, sl in zip(parts, self.slices):
            np.abs(r[sl]).sum(axis=0, out=part)
        return np.atleast_1d(self.comm.allreduce(parts, op="sum"))

    def _pack_group(self, dots, sums) -> np.ndarray:
        """Per-rank partials of a whole reduction group, packed into
        one ``(hosted, n_dots + n_sums, k)`` payload."""
        k = (dots[0][0] if dots else sums[0]).shape[1]
        nd = len(dots)
        parts = self._buf(("fused",),
                          (len(self.slices), nd + len(sums), k))
        for part, sl in zip(parts, self.slices):
            for i, (a, b) in enumerate(dots):
                np.einsum("ij,ij->j", a[sl], b[sl], out=part[i])
            for i, s in enumerate(sums):
                np.abs(s[sl]).sum(axis=0, out=part[nd + i])
        return parts

    def fused_reduce(self, dots, sums):
        """Grouped reduction: one allreduce for the whole group
        (the fused PBiCGStab's 2 collectives per iteration)."""
        return _unpack_group(
            self.comm.allreduce(self._pack_group(dots, sums), op="sum"),
            len(dots))

    def ifused_reduce(self, dots, sums):
        """Nonblocking grouped reduction: posts one ``iallreduce`` for
        the group (tagged overlappable; the shared-memory fabric stages
        it on the reduction channel, so the matvec's halo exchanges
        cannot clobber it) and returns a wait handle -- the pipelined
        PCG computes its preconditioner and matvec between post and
        wait."""
        pending = self.comm.iallreduce(self._pack_group(dots, sums),
                                       op="sum")
        return SimpleNamespace(
            wait=lambda: _unpack_group(pending.wait(), len(dots)))

    # -- preconditioners ------------------------------------------------
    def preconditioner(self, kind: str):
        """The stacked-block apply of the ``kind`` preconditioner:
        ``"DIC"`` is block-Jacobi DIC here, ``"Jacobi"`` the owned
        diagonal -- both communication-free."""
        return self.block_dic() if kind == "DIC" else self.jacobi()

    def jacobi(self):
        """Diagonal preconditioner on the stacked layout.  The owned
        diagonal equals the serial operator's, so this matches the
        serial Jacobi entry for entry."""
        r_diag = self._buf(("rdiag",), (self.n,))
        np.concatenate([op.mat.diag[:op.sub.n_owned] for op in self.ops],
                       out=r_diag)
        np.reciprocal(r_diag, out=r_diag)

        def apply(r: np.ndarray) -> np.ndarray:
            """Scale (stacked) residual columns by the inverse diagonal."""
            return r * (r_diag[:, None] if r.ndim == 2 else r_diag)

        return apply

    def block_dic(self):
        """Block-Jacobi DIC: each rank's cached DIC factor, value-
        refreshed from its owned diagonal block (processor-local
        preconditioning, no communication)."""
        blocks = [(op.block_dic(), sl)
                  for op, sl in zip(self.ops, self.slices)]

        def apply(r: np.ndarray) -> np.ndarray:
            """Scale and sweep each rank's row slice of ``r`` in place
            in one fresh stacked block."""
            w = np.empty_like(r)
            for pre, sl in blocks:
                pre.apply_multi(r[sl], out=w[sl])
            return w

        return apply


#: :func:`~repro.solvers.blocked.krylov_solve` on a distributed system,
#: under the name ``DecomposedSolver`` looks up in :mod:`.solver` (where
#: a tracer can wrap it); ``b`` / ``x0`` are stacked ``(N, k)`` blocks
solve_distributed = krylov_solve
