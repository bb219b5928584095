"""Blocked (multi-RHS) Krylov solvers.

The transport stage of the paper's solver assembles one LDU operator
per transported scalar even though the species (and the three momentum
components) share the same left-hand side: identical ``ddt + div -
laplacian`` coefficients, different right-hand sides.  These solvers
exploit that: a single operator ``A`` is applied to a multi-vector
``X`` of shape ``(n, k)`` so the matrix is streamed once per iteration
for all k systems, and every dot product / axpy is a fused ``(n, k)``
array operation instead of k Python-level loops.

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
the ``(n, k)`` product, the per-column reductions and their grouped
spellings.  The *same* Krylov code therefore drives the serial and the
domain-decomposed solves, and every global reduction of the latter
hits the communication ledger.  :func:`krylov_solve` is the one
dispatch: its table maps ``(method, variant)`` to a body, and every
body is preconditioned by the system's one ``preconditioner()`` --
Jacobi, the owned diagonal, identical entry for entry on both systems.
The synchronous bodies reduce one collective at a time (``coldot``,
``colsum_abs``); the communication-avoiding ones
(:func:`fused_pbicgstab_solve_multi`, :func:`pipelined_pcg_solve_multi`)
use the grouped spellings ``fused_reduce`` / ``ifused_reduce``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

import numpy as np

from ..backend import get_backend
from ..sparse.ldu import LDUMatrix
from .controls import SolverControls, SolverResult
from .preconditioners import JacobiPreconditioner
from .workspace import KrylovWorkspace

__all__ = [
    "KRYLOV_VARIANTS",
    "REDUCTIONS_PER_PCG_ITER",
    "LocalSystem",
    "fused_pbicgstab_solve_multi",
    "krylov_solve",
    "pbicgstab_solve_multi",
    "pcg_solve_multi",
    "pipelined_pcg_solve_multi",
]


#: Global reductions per PCG iteration (two dot products + one norm) --
#: the allreduces that dominate strong-scaling communication (Sec. 5.3).
REDUCTIONS_PER_PCG_ITER = 3


class LocalSystem:
    """One process's whole operator as the *system* of a Krylov solve.

    The system protocol is everything a body asks of its operator:
    ``n`` / ``nnz``, ``matvec_multi`` on an ``(n, k)`` block, the
    per-column reductions ``coldot`` / ``colsum_abs``, their grouped
    spellings ``fused_reduce`` / ``ifused_reduce``,
    ``preconditioner()`` and ``is_symmetric()``.  This is the serial
    implementation: the product is the CSR of ``a``, converted once per
    solve, and the reductions are the *kernels* of an array backend
    (:meth:`ArrayBackend.coldot` / ``colsum_abs``): blocks go to the
    device, ``(k,)`` results come back, and the bodies keep their
    control flow on the host.  On the NumPy backend both transfers are
    no-ops around the einsum / L1 spellings; other backends may differ
    from einsum by the conformance suite's documented ulps.

    With ``workspace`` (an :class:`~repro.fv.workspace.EquationWorkspace`)
    the CSR pattern, the Jacobi preconditioner and the backend are its
    cached ones; without, ``backend`` names the backend (``None`` =
    numpy).
    """

    def __init__(self, a: LDUMatrix, workspace=None, backend=None):
        self.a, self.n, self.nnz = a, a.n, a.nnz
        self.workspace = ws = workspace
        self.backend = ws.backend if ws else get_backend(backend)
        self._csr = a.to_csr(pattern=ws.pattern if ws else None)

    def matvec_multi(self, x: np.ndarray) -> np.ndarray:
        """``A X`` as a single sparse-times-dense product."""
        return self._csr @ x

    def coldot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-column dot products (host in, host out)."""
        be = self.backend
        return be.from_device(be.coldot(be.to_device(a), be.to_device(b)))

    def colsum_abs(self, r: np.ndarray) -> np.ndarray:
        """Per-column L1 norms (host in, host out)."""
        be = self.backend
        return be.from_device(be.colsum_abs(be.to_device(r)))

    def fused_reduce(self, dots, sums):
        """A whole reduction group -- ``dots``, a list of ``(a, b)``
        multi-vector pairs, and ``sums``, a list of multi-vectors -- as
        ``(dot_results, sum_results)``, one after the other (a
        distributed system packs the group into one allreduce)."""
        return ([self.coldot(a, b) for a, b in dots],
                [self.colsum_abs(s) for s in sums])

    def ifused_reduce(self, dots, sums):
        """The nonblocking spelling: compute now, ``wait()`` later."""
        done = self.fused_reduce(dots, sums)
        return SimpleNamespace(wait=lambda: done)

    def preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """The ``(n, k)`` apply of the Jacobi preconditioner of ``a``:
        the workspace's cached one, value-refreshed, or a fresh one
        without a workspace."""
        a, ws = self.a, self.workspace
        return (ws.jacobi(a) if ws else JacobiPreconditioner(a)).apply_multi

    def is_symmetric(self) -> bool:
        """Whether ``a`` is exactly symmetric (a NaN coefficient is
        not) -- what PCG requires of its operator."""
        return self.a.is_symmetric(tol=0.0)


def _block_x(name: str, workspace: KrylovWorkspace | None,
             x0: np.ndarray | None, n: int, k: int) -> np.ndarray:
    """The solution block: pooled when a workspace is supplied, else
    the one (counted) buffer of a throwaway pool."""
    ws = workspace if workspace is not None else KrylovWorkspace()
    return ws.zeros(name, (n, k)) if x0 is None else ws.copy_of(name, x0)


class _Columns:
    """The per-column bookkeeping of one blocked solve.

    Which columns still iterate -- ``act``, their indices in the
    caller's ``(n, k)`` blocks, and ``cols``, the selector of the
    active block inside ``x``: the plain slice while every column
    iterates (an in-place update, no gather/scatter copy -- the only
    case a ``k = 1`` solve ever sees), the index array once a column
    has retired -- plus their ``|b|`` normalisation ``nf``, initial and
    current residuals ``res0`` / ``res`` and flop counts ``fl``, all
    compacted to the active columns.  ``details(it)`` is the
    method-specific part of a column's :class:`SolverResult`.
    """

    def __init__(self, method: str, k: int, flops: int,
                 details: Callable[[int], dict] = lambda it: {}):
        self.method, self.k, self.details = method, k, details
        self.results: list[SolverResult | None] = [None] * k
        self.act = np.arange(k)
        self.cols: slice | np.ndarray = slice(None)
        self.fl = np.full(k, flops, dtype=np.int64)
        # set by start(): the overlapped bodies learn |b| and |r0| from
        # their first fused group
        self.nf = self.res0 = self.res = None

    def start(self, nf: np.ndarray, res: np.ndarray) -> None:
        """Adopt the normalisation and the initial residuals."""
        self.nf, self.res0, self.res = nf, res.copy(), res

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
        caller's recurrence ``state`` (``(n, k)`` blocks by column,
        per-column scalars by entry), returned compacted."""
        self.res0, self.res, self.nf, self.fl = (
            self.res0[keep], self.res[keep], self.nf[keep], self.fl[keep])
        self.act = self.act[keep]
        self.cols = slice(None) if self.act.size == self.k else self.act
        return [v[..., keep] for v in state]

    def finish(self, it: int) -> list[SolverResult]:
        """Retire what still iterates as unconverged; the results."""
        if self.res0 is None:   # max_iterations == 0: nothing ever reduced
            self.res0 = self.res = np.full(self.act.size, np.inf)
        if self.act.size:
            self.retire(np.ones(self.act.size, bool), it, converged=False)
        return self.results  # type: ignore[return-value]


def _check_rhs(system, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("blocked solver needs b of shape (n, k); "
                         "pass a single right-hand side as b[:, None]")
    if b.shape[0] != system.n:
        raise ValueError(
            f"rhs has {b.shape[0]} rows for a {system.n}-row matrix")
    return b


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
    :class:`LocalSystem`).  With ``workspace``, the ``(n, k)`` solution
    block is a pooled buffer that the next pooled solve will overwrite.
    """
    b = _check_rhs(system, b)
    n, k = b.shape
    mv, cdot, csum = system.matvec_multi, system.coldot, system.colsum_abs
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    x = _block_x("bicgm.x", workspace, x0, n, k)

    col = _Columns("PBiCGStab", k, 2 * system.nnz + 2 * n)
    nf = csum(b) + 1e-300
    r = b - mv(x)
    col.start(nf, csum(r) / nf)
    r, = col.compress(col.retire(col.converged(controls), 0, True), r)
    r_hat = r.copy()
    rho_old, alpha, omega = (np.ones(col.act.size) for _ in range(3))
    v, p = np.zeros((n, col.act.size)), np.zeros((n, col.act.size))

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
        p = r + beta * (p - omega * v)
        p_hat = precond(p)
        v = mv(p_hat)
        alpha = rho / cdot(r_hat, v)
        s = r - alpha * v
        col.fl += 2 * system.nnz + 10 * n
        col.res = csum(s) / col.nf
        conv = col.converged(controls)
        if conv.any():
            x[:, col.act[conv]] += alpha[conv] * p_hat[:, conv]
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
        x[:, col.cols] += alpha * p_hat + omega * s_hat
        r = s - omega * t
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

    return x, col.finish(it)


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

    One ``(n, k)`` SpMV and one preconditioner application per
    iteration serve every still-active column; converged columns are
    masked out, and a column whose search direction breaks down
    (``|p.Ap| < 1e-300``, e.g. a right-hand side in the operator's
    null space) is retired unconverged with its ``x`` untouched.
    Per-column reduction counts are reported in
    ``details["reductions"]``.
    With ``workspace``, the ``(n, k)`` solution block is a pooled
    buffer that the next pooled solve will overwrite.
    """
    b = _check_rhs(system, b)
    n, k = b.shape
    mv, cdot, csum = system.matvec_multi, system.coldot, system.colsum_abs
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    x = _block_x("pcgm.x", workspace, x0, n, k)

    col = _Columns(
        "PCG", k, 2 * system.nnz + 2 * n,
        details=lambda it: {"reductions": it * REDUCTIONS_PER_PCG_ITER})
    nf = csum(b) + 1e-300
    r = b - mv(x)
    col.start(nf, csum(r) / nf)
    r, = col.compress(col.retire(col.converged(controls), 0, True), r)
    if col.act.size == 0:   # converged on entry: no sweep over an empty block
        return x, col.finish(0)
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
        x[:, col.cols] += alpha * p
        r -= alpha * ap
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
        p = z + beta * p
        rz = rz_new
        col.fl += 4 * n

    return x, col.finish(it)


def fused_pbicgstab_solve_multi(
    system,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls = SolverControls(),
    workspace: KrylovWorkspace | None = None,
) -> tuple[np.ndarray, list[SolverResult]]:
    """Blocked BiCGStab with grouped reductions: 2 collectives per
    iteration instead of the synchronous variant's 6.

    Same Krylov recurrences as :func:`pbicgstab_solve_multi`; the
    communication restructuring is

    * **group 1** (after ``v = A M p``): ``(r_hat, v)`` fused with the
      residual norm ``|r|`` whose convergence check the synchronous
      variant performs at the *end* of the previous iteration (plus,
      on the first iteration only, ``rho_0``, ``|b|`` and ``|r_0|``);
    * **group 2** (after ``t = A M s``): ``(t, t)``, ``(t, s)`` and
      ``|s|`` fused with ``(r_hat, s)`` and ``(r_hat, t)``, from which
      the next iteration's ``rho = (r_hat, s) - omega (r_hat, t)`` is
      recovered *locally* -- eliminating the separate ``rho``
      reduction.

    Deferring the ``|r|`` check trades at most one extra (discarded)
    preconditioner + matvec per solve for the reduction count; the
    iterates themselves are unchanged, so results agree with the
    synchronous variant to solver tolerance.  Each group is one
    ``system.fused_reduce`` (see :meth:`LocalSystem.fused_reduce` for
    the serial reference; a distributed system packs it into a single
    allreduce).
    """
    b = _check_rhs(system, b)
    n, k = b.shape
    mv, freduce = system.matvec_multi, system.fused_reduce
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    x = _block_x("bicgf.x", workspace, x0, n, k)

    r = b - mv(x)
    r_hat = r.copy()
    p = r.copy()
    v = np.zeros((n, k))
    rho = np.ones(k)
    col = _Columns("PBiCGStab", k, 2 * system.nnz + 2 * n,
                   details=lambda it: {"reduction_groups": 2})

    first = True
    it = 0
    for it in range(1, controls.max_iterations + 1):
        if col.act.size == 0:
            break
        p_hat = precond(p)
        v = mv(p_hat)
        dots = [(r_hat, v)] + ([(r_hat, r)] if first else [])
        sums = [r] + ([b] if first else [])
        dres, sres = freduce(dots, sums)          # collective group 1
        sigma = dres[0]
        if first:   # |b| and |r0| ride along with the first group
            rho = dres[1]
            nf = sres[1] + 1e-300
            col.start(nf, sres[0] / nf)
            first = False
        else:
            col.res = sres[0] / col.nf
        col.fl += 2 * system.nnz + 10 * n
        # |r| check the synchronous variant ran at the end of the
        # previous iteration; x is unchanged since, so retiring here
        # yields the same solution with (it - 1) counted iterations.
        conv = col.converged(controls)
        broke = (np.abs(rho) < 1e-300) & ~conv
        if conv.any() or broke.any():
            keep = col.retire(conv, it - 1, converged=True)
            keep &= col.retire(broke, it - 1, converged=False)
            r, r_hat, p, v, rho, sigma, p_hat = col.compress(
                keep, r, r_hat, p, v, rho, sigma, p_hat)
            if col.act.size == 0:
                break
        alpha = rho / np.where(np.abs(sigma) > 0, sigma, 1e-300)
        s = r - alpha * v
        s_hat = precond(s)
        t = mv(s_hat)
        dres, sres = freduce(
            [(t, t), (t, s), (r_hat, s), (r_hat, t)], [s])  # group 2
        tt, ts, rhs, rht = dres
        col.res = sres[0] / col.nf
        col.fl += 2 * system.nnz + 10 * n
        conv = col.converged(controls)
        if conv.any():
            x[:, col.act[conv]] += alpha[conv] * p_hat[:, conv]
            (r, r_hat, p, v, rho, s, s_hat, t, p_hat, alpha, tt, ts, rhs,
             rht) = col.compress(
                col.retire(conv, it, converged=True), r, r_hat, p, v, rho,
                s, s_hat, t, p_hat, alpha, tt, ts, rhs, rht)
            if col.act.size == 0:
                break
        pos = tt > 0
        omega = np.where(pos, ts / np.where(pos, tt, 1.0), 0.0)
        x[:, col.cols] += alpha * p_hat + omega * s_hat
        r = s - omega * t
        # rho for the next iteration, recovered without a collective
        rho_new = rhs - omega * rht
        broke = np.abs(omega) < 1e-300
        omega_safe = np.where(broke, 1.0, omega)
        beta = (rho_new / np.where(np.abs(rho) > 0, rho, 1e-300)) \
            * (alpha / omega_safe)
        p = r + beta * (p - omega * v)
        rho = rho_new
        if broke.any():
            r, r_hat, p, v, rho = col.compress(
                col.retire(broke, it, converged=False), r, r_hat, p, v, rho)

    return x, col.finish(it)


def pipelined_pcg_solve_multi(
    system,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls = SolverControls(),
    workspace: KrylovWorkspace | None = None,
) -> tuple[np.ndarray, list[SolverResult]]:
    """Ghysels--Vanroose pipelined PCG: one fused collective per
    iteration, overlapped with the preconditioner and matvec.

    The classical PCG iteration needs 3 collectives (``(p, Ap)``,
    ``|r|``, ``(r, z)``) at 2 synchronization points; the pipelined
    recurrence fuses ``gamma = (r, u)``, ``delta = (w, u)`` and
    ``|r|`` into a single reduction that is *posted* (via
    ``system.ifused_reduce``, returning a wait handle) before the
    applications ``m = M w`` and ``n = A m`` -- so on a real machine
    the one remaining collective hides behind the dominant local work.
    Auxiliary vectors ``z = A M w``-chains (``z, q, s, p``) keep the
    search directions consistent without extra matvecs.

    Per-column convergence masking, flop accounting and the
    ``workspace`` pool behave as in :func:`pcg_solve_multi`; the
    iterates differ from classical PCG only by floating-point
    reassociation, so both converge to the same solution within the
    requested tolerance.
    """
    b = _check_rhs(system, b)
    n, k = b.shape
    mv, ifreduce = system.matvec_multi, system.ifused_reduce
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    x = _block_x("pcgp.x", workspace, x0, n, k)

    r = b - mv(x)
    u = precond(r)
    # w is recurrence state updated in place every iteration, but mv
    # may return a slot of a small rotating buffer pool (the
    # distributed matvec does) -- detach it from the pool.
    w = mv(u)
    w = workspace.copy_of("pcgp.w", w) if workspace is not None \
        else w.copy()
    z, q, s, p = (np.zeros((n, k)) for _ in range(4))
    gamma_old = np.ones(k)
    alpha_old = np.ones(k)
    col = _Columns("PCG", k, 4 * system.nnz + 2 * n,
                   details=lambda it: {"reduction_groups": 1})

    first = True
    it = 0
    for it in range(1, controls.max_iterations + 1):
        if col.act.size == 0:
            break
        handle = ifreduce([(r, u), (w, u)],
                          [r] + ([b] if first else []))  # posted ...
        m_ = precond(w)                                  # ... overlapped
        n_ = mv(m_)                                      # ... overlapped
        dres, sres = handle.wait()
        gamma, delta = dres
        if first:   # |b| rides along with the first reduction
            nf = sres[1] + 1e-300
            col.start(nf, sres[0] / nf)
        else:
            col.res = sres[0] / col.nf
        # the |r| in this group is the residual *entering* the
        # iteration (after it-1 updates): the same value the classical
        # variant checks at the end of iteration it-1.
        conv = col.converged(controls)
        if conv.any():
            (r, u, w, z, q, s, p, gamma_old, alpha_old, m_, n_, gamma,
             delta) = col.compress(
                col.retire(conv, it - 1, converged=True), r, u, w, z, q, s,
                p, gamma_old, alpha_old, m_, n_, gamma, delta)
            if col.act.size == 0:
                break
        if first:
            beta = np.zeros(col.act.size)
            alpha = gamma / np.where(np.abs(delta) > 0, delta, 1e-300)
            first = False
        else:
            beta = gamma / np.where(np.abs(gamma_old) > 0, gamma_old, 1e-300)
            denom = delta - beta * gamma / alpha_old
            alpha = gamma / np.where(np.abs(denom) > 0, denom, 1e-300)
        z = n_ + beta * z
        q = m_ + beta * q
        s = w + beta * s
        p = u + beta * p
        x[:, col.cols] += alpha * p
        r -= alpha * s
        u -= alpha * q
        w -= alpha * z
        gamma_old, alpha_old = gamma, alpha
        col.fl += 2 * system.nnz + 16 * n

    return x, col.finish(it)


#: The one dispatch table: ``(method, variant)`` -> body.  Every body
#: is handed ``system.preconditioner()``, the owned-diagonal Jacobi on
#: :class:`LocalSystem` and on a
#: :class:`~repro.dist.krylov.DistributedSystem` alike.
_KRYLOV = {
    ("PCG", "synchronous"): pcg_solve_multi,
    ("PCG", "overlapped"): pipelined_pcg_solve_multi,
    ("PBiCGStab", "synchronous"): pbicgstab_solve_multi,
    ("PBiCGStab", "overlapped"): fused_pbicgstab_solve_multi,
}
#: the table's variants: the accepted ``SolverSettings.krylov_variant``s
KRYLOV_VARIANTS = tuple(dict.fromkeys(v for _, v in _KRYLOV))


def krylov_solve(
    system,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    solver: str = "PBiCGStab",
    variant: str = "synchronous",
    controls: SolverControls = SolverControls(),
    workspace: KrylovWorkspace | None = None,
) -> tuple[np.ndarray, list[SolverResult]]:
    """One blocked Krylov solve of ``system``, serial or distributed.

    ``b`` / ``x0`` are ``(n, k)`` blocks (``k = 1`` for a scalar
    equation; stacked in rank order on a distributed system).
    Dispatches on ``solver`` and ``variant``; both methods are
    Jacobi-preconditioned (``system.preconditioner()``):

    * ``"PBiCGStab"`` -- ``"synchronous"`` runs the blocked solver with
      one reduction at a time (6 allreduces per iteration when
      distributed), ``"overlapped"`` the fused-reduction variant (2
      grouped collectives per iteration);
    * ``"PCG"`` -- requires an exactly symmetric operator
      (``system.is_symmetric()``; rank-local on a distributed system,
      so the check adds no collective) and raises ``ValueError``
      before the first iteration otherwise, NaN coefficients included;
      ``"synchronous"`` costs 3 allreduces per iteration,
      ``"overlapped"`` is the pipelined (Ghysels--Vanroose) variant
      with a single fused ``iallreduce`` per iteration, posted before
      the preconditioner and matvec it hides behind.

    Both variants of a method converge to the same solution within the
    requested tolerance (the agreement tests pin them at <= 1e-8).
    ``workspace`` pools the solution block across solves (the step
    drivers pass a persistent one, so warm solves perform zero tracked
    allocations).
    """
    if (solver, variant) not in _KRYLOV:
        raise ValueError(f"unknown Krylov (solver, variant) "
                         f"{(solver, variant)}; use one of {sorted(_KRYLOV)}")
    if solver == "PCG" and not system.is_symmetric():
        raise ValueError("PCG requires a symmetric operator "
                         "(lower == upper exactly, no NaN)")
    return _KRYLOV[solver, variant](
        system, b, x0=x0, preconditioner=system.preconditioner(),
        controls=controls, workspace=workspace)
