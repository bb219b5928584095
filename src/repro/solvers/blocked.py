"""Blocked (multi-RHS) Krylov solvers.

The transport stage of the paper's solver assembles one LDU operator
per transported scalar even though the species (and the three momentum
components) share the same left-hand side: identical ``ddt + div -
laplacian`` coefficients, different right-hand sides.  These solvers
exploit that: a single operator ``A`` is applied to a multi-vector of
k columns, so the matrix is streamed once per iteration for all k
systems, and every dot product / axpy is one array operation instead
of k Python-level loops.

Blocks are **column-major**: inside a body every block is a
C-contiguous ``(k, n)`` array whose row ``j`` is column ``j`` of the
multi-vector, and per-column scalars broadcast as ``[:, None]``.  Each
column is then one contiguous row -- numpy's inner loops run over the
``n`` cells, not over the ``k`` columns of each cell -- and every
reduction (``coldot``, ``colsum_abs``) is a row reduction whose bits
do not depend on how many columns share the block.  So each column of
a blocked solve equals that column solved alone, bit for bit: iterate,
iteration count, residuals and flops.  Callers keep the ``(n, k)``
convention: :func:`krylov_solve` and the bodies take ``b`` / ``x0`` as
``(n, k)`` blocks, compute on their transposes (a free view of a
Fortran-ordered block, one transposing copy of a C-ordered one) and
return the ``(k, n)`` solution block as its ``(n, k)`` transpose.

Each column iterates exactly the per-column algorithm (PBiCGStab or
PCG: the update formulas and convergence criteria a column solved
alone would see), with **per-column convergence masking**: columns
that converge are retired from the active block — their solution stops
being touched, their :class:`SolverResult` is finalized with their own
iteration count, and the remaining columns keep iterating on a
compacted block.  This is the only Krylov family in ``src/``: a scalar
equation is a block with ``k = 1`` (``b[:, None]``), whether it is
solved on one core or over a decomposition; the 1-D per-column
reference bodies live in ``tests/krylov_oracle.py``.

Every body is handed one *system* -- :class:`LocalSystem` here,
:class:`~repro.dist.krylov.DistributedSystem` over a decomposition --
and asks it for everything that touches the operator or spans ranks:
the ``(k, n)`` product and the per-column reductions.  The *same*
Krylov code therefore drives the serial and the domain-decomposed
solves, and every global reduction of the latter hits the
communication ledger.  :func:`krylov_solve` is the one dispatch: its
table maps a method to its one body, and every body is preconditioned
by the system's one ``preconditioner()`` -- Jacobi, the owned
diagonal, identical entry for entry on both systems.  Each reduction
(``coldot``, ``colsum_abs``) is one blocking collective.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..sparse.ldu import LDUMatrix
from ..sparse.spmv import csr_rows_product
from .controls import SolverControls, SolverResult
from .preconditioners import JacobiPreconditioner
from .workspace import KrylovWorkspace

__all__ = [
    "REDUCTIONS_PER_PCG_ITER",
    "LocalSystem",
    "krylov_solve",
    "pbicgstab_solve_multi",
    "pcg_solve_multi",
]


#: Global reductions per PCG iteration (two dot products + one norm) --
#: the allreduces that dominate strong-scaling communication (Sec. 5.3).
REDUCTIONS_PER_PCG_ITER = 3


class LocalSystem:
    """One process's whole operator as the *system* of a Krylov solve.

    The system protocol is everything a body asks of its operator:
    ``n`` / ``nnz``, ``matvec_multi`` on a C-contiguous ``(k, n)``
    block (row ``j`` is column ``j``), the per-column reductions
    ``coldot`` / ``colsum_abs`` of such blocks, ``preconditioner()``
    and ``is_symmetric()``.  This is the serial implementation: the
    product is the CSR of ``a``, converted once per solve, and the
    reductions are a row dot (``np.vecdot``) and a row L1 sum -- each
    row reduced on its own, so a column's bits do not depend on the
    block width.

    With ``workspace`` (an :class:`~repro.fv.workspace.EquationWorkspace`)
    the CSR pattern and the Jacobi preconditioner are its cached ones.
    """

    def __init__(self, a: LDUMatrix, workspace=None):
        self.a, self.n, self.nnz = a, a.n, a.nnz
        self.workspace = ws = workspace
        self._csr = a.to_csr(pattern=ws.pattern if ws else None)

    def matvec_multi(self, x: np.ndarray) -> np.ndarray:
        """``A X`` on a ``(k, n)`` block, column by column the CSR
        product of that column alone (:func:`csr_rows_product`)."""
        out = np.empty(x.shape)
        csr_rows_product(self._csr, x, out)
        return out

    def coldot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-column dot products: one dot per row (no temporary).
        ``np.einsum("ij,ij->i")`` would not do: its buffered reduction
        splits rows longer than 8192 at offsets set by the row's place
        in the block."""
        return np.vecdot(a, b)

    def colsum_abs(self, r: np.ndarray) -> np.ndarray:
        """Per-column L1 norms: one pairwise sum per contiguous row."""
        return np.abs(r).sum(axis=1)

    def preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """The ``(k, n)`` apply of the Jacobi preconditioner of ``a``:
        the workspace's cached one, value-refreshed, or a fresh one
        without a workspace."""
        a, ws = self.a, self.workspace
        return (ws.jacobi(a) if ws else JacobiPreconditioner(a)).apply_multi

    def is_symmetric(self) -> bool:
        """Whether ``a`` is exactly symmetric (a NaN coefficient is
        not) -- what PCG requires of its operator."""
        return self.a.is_symmetric(tol=0.0)


def _block_x(name: str, workspace: KrylovWorkspace | None,
             x0: np.ndarray | None, zero: np.ndarray, n: int) -> np.ndarray:
    """The ``(k, n)`` solution block: row ``j`` is column ``j`` of the
    ``(n, k)`` initial guess ``x0``, or zeros -- without ``x0``, and for
    every ``zero`` column (``b = 0``: its solution, whatever ``x0``
    holds; a row memset, no copy).  Pooled when a workspace is
    supplied, else the one (counted) buffer of a throwaway pool."""
    ws = workspace if workspace is not None else KrylovWorkspace()
    if x0 is None:
        return ws.zeros(name, (zero.size, n))
    x0 = np.asarray(x0, dtype=float)
    x = ws.get(name, (zero.size, n))
    for j, z in enumerate(zero.tolist()):
        x[j] = 0.0 if z else x0[:, j]
    return x


class _Columns:
    """The per-column bookkeeping of one blocked solve.

    Which columns still iterate -- ``act``, their indices in the
    caller's blocks (rows of the ``(k, n)`` blocks a body computes on),
    and ``cols``, the selector of the active rows of ``x``: the plain
    slice while every column iterates (an in-place update, no
    gather/scatter copy -- the only case a ``k = 1`` solve ever sees),
    the index array once a column has retired -- plus their ``|b|``
    normalisation ``nf``, initial and current residuals ``res0`` /
    ``res`` and flop counts ``fl``, all compacted to the active
    columns.  ``details(it)`` is the
    method-specific part of a column's :class:`SolverResult`.
    """

    def __init__(self, method: str, k: int, flops: int,
                 details: Callable[[int], dict] = lambda it: {}):
        self.method, self.k, self.details = method, k, details
        self.results: list[SolverResult | None] = [None] * k
        self.act = np.arange(k)
        self.cols: slice | np.ndarray = slice(None)
        self.fl = np.full(k, flops, dtype=np.int64)
        self.nf = self.res0 = self.res = None   # set by start()

    def start(self, b_norm: np.ndarray) -> None:
        """Adopt ``|b|_1`` (already reduced over every rank) as the
        normalisation.  A column with ``b = 0`` is solved by ``x = 0``
        exactly (:func:`_block_x` gives it that ``x``, whatever its
        initial guess): it retires converged at iteration 0, before the
        first product (its residual, normalised by the ``1e-300``
        floor, would otherwise never meet a tolerance)."""
        zero = b_norm == 0.0
        self.nf, self.res0 = b_norm + 1e-300, np.zeros(self.k)
        self.res = self.res0
        if zero.any():
            self.compress(self.retire(zero, 0, converged=True))

    def residual(self, res: np.ndarray) -> None:
        """Adopt the initial residuals of the active columns."""
        self.res0, self.res = res.copy(), res

    def converged(self, controls: SolverControls) -> np.ndarray:
        """Mask of the active columns that meet ``controls`` now."""
        mask = self.res <= controls.tolerance
        if controls.rel_tol > 0.0:
            mask = mask | (self.res <= controls.rel_tol * self.res0)
        return mask

    def retire(self, mask: np.ndarray, it: int, converged: bool) -> np.ndarray:
        """Finalize results for masked columns; return the keep mask."""
        for i in np.nonzero(mask)[0]:
            self.results[int(self.act[i])] = SolverResult(
                self.method, it, float(self.res0[i]), float(self.res[i]),
                converged, int(self.fl[i]), self.details(it))
        return ~mask

    def compress(self, keep: np.ndarray, *state: np.ndarray) -> list:
        """Drop retired columns from the bookkeeping and from the
        caller's recurrence ``state`` (``(k, n)`` blocks by row,
        per-column scalars by entry), returned compacted."""
        self.res0, self.res, self.nf, self.fl = (
            self.res0[keep], self.res[keep], self.nf[keep], self.fl[keep])
        self.act = self.act[keep]
        self.cols = slice(None) if self.act.size == self.k else self.act
        return [v[keep] for v in state]

    def finish(self, it: int) -> list[SolverResult]:
        """Retire what still iterates as unconverged; the results."""
        if self.act.size:
            self.retire(np.ones(self.act.size, bool), it, converged=False)
        return self.results  # type: ignore[return-value]


def _check_rhs(system, b: np.ndarray) -> np.ndarray:
    """The ``(n, k)`` right-hand side as the C-contiguous ``(k, n)``
    block a body computes on: a view of a Fortran-ordered ``b``, one
    transposing copy of any other."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("blocked solver needs b of shape (n, k); "
                         "pass a single right-hand side as b[:, None]")
    if b.shape[0] != system.n:
        raise ValueError(
            f"rhs has {b.shape[0]} rows for a {system.n}-row matrix")
    return np.ascontiguousarray(b.T)


def _initial_residual(col: _Columns, b: np.ndarray, x: np.ndarray, mv,
                      csum, controls: SolverControls) -> np.ndarray:
    """``b - A x`` over the columns :meth:`_Columns.start` left
    active, which retire converged at iteration 0 where it already
    meets ``controls``; the residual of the rest.  No product when no
    column is left."""
    if col.act.size == 0:
        return b[:0]
    cols = col.cols
    r = b[cols] - mv(x[cols])
    col.residual(csum(r) / col.nf)
    r, = col.compress(col.retire(col.converged(controls), 0, True), r)
    return r


def pbicgstab_solve_multi(
    system,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls = SolverControls(),
    workspace: KrylovWorkspace | None = None,
) -> tuple[np.ndarray, list[SolverResult]]:
    """Solve ``A X = B`` for k right-hand sides with blocked BiCGStab.

    Returns ``(X, results)`` where ``results[j]`` reports column j's
    own iteration count, residuals and flops (one
    :class:`SolverResult` per column, as if it had been solved alone).
    ``system`` supplies the product and the per-column reductions (see
    :class:`LocalSystem`).  ``b`` / ``x0`` are ``(n, k)`` blocks and so
    is ``X``, the transpose of the ``(k, n)`` block the body computes
    on; ``preconditioner`` takes and returns ``(k, n)`` blocks.  With
    ``workspace``, the solution block is a pooled buffer that the next
    pooled solve will overwrite.
    """
    b = _check_rhs(system, b)
    k, n = b.shape
    mv, cdot, csum = system.matvec_multi, system.coldot, system.colsum_abs
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    b_norm = csum(b)
    x = _block_x("bicgm.x", workspace, x0, b_norm == 0.0, n)

    col = _Columns("PBiCGStab", k, 2 * system.nnz + 2 * n)
    col.start(b_norm)
    r = _initial_residual(col, b, x, mv, csum, controls)
    r_hat = r.copy()
    rho_old, alpha, omega = (np.ones(col.act.size) for _ in range(3))
    v, p = np.zeros((col.act.size, n)), np.zeros((col.act.size, n))

    it = 0
    for it in range(1, controls.max_iterations + 1):
        if col.act.size == 0:
            break
        rho = cdot(r_hat, r)
        broke = np.abs(rho) < 1e-300
        if broke.any():
            r, r_hat, v, p, rho_old, alpha, omega, rho = col.compress(
                col.retire(broke, it, converged=False),
                r, r_hat, v, p, rho_old, alpha, omega, rho)
            if col.act.size == 0:
                break
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta[:, None] * (p - omega[:, None] * v)
        p_hat = precond(p)
        v = mv(p_hat)
        alpha = rho / cdot(r_hat, v)
        s = r - alpha[:, None] * v
        col.fl += 2 * system.nnz + 10 * n
        col.res = csum(s) / col.nf
        conv = col.converged(controls)
        if conv.any():
            x[col.act[conv]] += alpha[conv, None] * p_hat[conv]
            r, r_hat, v, p, rho_old, alpha, omega, s, p_hat, rho = \
                col.compress(col.retire(conv, it, converged=True), r, r_hat,
                             v, p, rho_old, alpha, omega, s, p_hat, rho)
            if col.act.size == 0:
                break
        s_hat = precond(s)
        t = mv(s_hat)
        tt = cdot(t, t)
        pos = tt > 0
        omega = np.where(pos, cdot(t, s) / np.where(pos, tt, 1.0), 0.0)
        x[col.cols] += alpha[:, None] * p_hat + omega[:, None] * s_hat
        r = s - omega[:, None] * t
        rho_old = rho
        col.fl += 2 * system.nnz + 10 * n
        col.res = csum(r) / col.nf
        conv = col.converged(controls)
        broke = (np.abs(omega) < 1e-300) & ~conv
        if conv.any() or broke.any():
            keep = col.retire(conv, it, converged=True)
            keep &= col.retire(broke, it, converged=False)
            r, r_hat, v, p, rho_old, alpha, omega = col.compress(
                keep, r, r_hat, v, p, rho_old, alpha, omega)

    return x.T, col.finish(it)


def pcg_solve_multi(
    system,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls = SolverControls(),
    workspace: KrylovWorkspace | None = None,
) -> tuple[np.ndarray, list[SolverResult]]:
    """Solve ``A X = B`` (A symmetric positive definite) for k
    right-hand sides with blocked preconditioned CG.

    One block SpMV and one preconditioner application per
    iteration serve every still-active column; converged columns are
    masked out, and a column whose search direction breaks down
    (``|p.Ap| < 1e-300``, e.g. a right-hand side in the operator's
    null space) is retired unconverged with its ``x`` untouched.
    Per-column reduction counts are reported in
    ``details["reductions"]``.  Blocks and ``workspace`` as in
    :func:`pbicgstab_solve_multi`.
    """
    b = _check_rhs(system, b)
    k, n = b.shape
    mv, cdot, csum = system.matvec_multi, system.coldot, system.colsum_abs
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    b_norm = csum(b)
    x = _block_x("pcgm.x", workspace, x0, b_norm == 0.0, n)

    col = _Columns(
        "PCG", k, 2 * system.nnz + 2 * n,
        details=lambda it: {"reductions": it * REDUCTIONS_PER_PCG_ITER})
    col.start(b_norm)
    r = _initial_residual(col, b, x, mv, csum, controls)
    if col.act.size == 0:   # converged on entry: no sweep over an empty block
        return x.T, col.finish(0)
    z = precond(r)
    p = z.copy()
    rz = cdot(r, z)

    it = 0
    for it in range(1, controls.max_iterations + 1):
        if col.act.size == 0:
            break
        ap = mv(p)
        pap = cdot(p, ap)
        broke = np.abs(pap) < 1e-300
        if broke.any():
            r, p, rz, ap, pap = col.compress(
                col.retire(broke, it, converged=False), r, p, rz, ap, pap)
            if col.act.size == 0:
                break
        alpha = rz / pap
        x[col.cols] += alpha[:, None] * p
        r -= alpha[:, None] * ap
        col.fl += 2 * system.nnz + 6 * n
        col.res = csum(r) / col.nf
        conv = col.converged(controls)
        if conv.any():
            r, p, rz = col.compress(
                col.retire(conv, it, converged=True), r, p, rz)
            if col.act.size == 0:
                break
        z = precond(r)
        rz_new = cdot(r, z)
        beta = rz_new / rz
        p = z + beta[:, None] * p
        rz = rz_new
        col.fl += 4 * n

    return x.T, col.finish(it)


#: The one dispatch table: method -> body.  Every body is handed
#: ``system.preconditioner()``, the owned-diagonal Jacobi on
#: :class:`LocalSystem` and on a
#: :class:`~repro.dist.krylov.DistributedSystem` alike.
_KRYLOV = {
    "PCG": pcg_solve_multi,
    "PBiCGStab": pbicgstab_solve_multi,
}


def krylov_solve(
    system,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    solver: str = "PBiCGStab",
    controls: SolverControls = SolverControls(),
    workspace: KrylovWorkspace | None = None,
) -> tuple[np.ndarray, list[SolverResult]]:
    """One blocked Krylov solve of ``system``, serial or distributed.

    ``b`` / ``x0`` are ``(n, k)`` blocks (``k = 1`` for a scalar
    equation; stacked in rank order on a distributed system), and so
    is the returned solution: the transpose of the ``(k, n)`` block the
    body computes on.  A Fortran-ordered ``b`` is read in place
    (``.T`` is the ``(k, n)`` view); a C-ordered one costs one
    transposing copy, as does any ``x0`` copied into the solution block.
    Dispatches on ``solver``; both methods are Jacobi-preconditioned
    (``system.preconditioner()``) and reduce one blocking collective
    at a time:

    * ``"PBiCGStab"`` -- 6 allreduces per iteration when distributed;
    * ``"PCG"`` -- 3 allreduces per iteration; requires an exactly
      symmetric operator (``system.is_symmetric()``; rank-local on a
      distributed system, so the check adds no collective) and raises
      ``ValueError`` before the first iteration otherwise, NaN
      coefficients included.

    ``workspace`` pools the ``(k, n)`` solution block across solves (the
    step drivers pass a persistent one, so warm solves perform zero
    tracked allocations).
    """
    if solver not in _KRYLOV:
        raise ValueError(f"unknown Krylov solver {solver!r}; "
                         f"use one of {sorted(_KRYLOV)}")
    if solver == "PCG" and not system.is_symmetric():
        raise ValueError("PCG requires a symmetric operator "
                         "(lower == upper exactly, no NaN)")
    return _KRYLOV[solver](
        system, b, x0=x0, preconditioner=system.preconditioner(),
        controls=controls, workspace=workspace)
