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

All solvers accept reduction hooks in addition to the ``matvec``
override: a distributed caller (the ``repro.dist`` subsystem) passes
hooks that compute per-rank partial reductions and combine them
through ``SimulatedComm.allreduce``, so the *same* Krylov code drives
the serial and the domain-decomposed solves and every global reduction
hits the communication ledger.  The synchronous solvers take
per-reduction hooks (``coldot``, ``colsum_abs`` -- one collective
each); the communication-avoiding variants take *fused* hooks:

* :func:`fused_pbicgstab_solve_multi` -- same update formulas as the
  synchronous blocked PBiCGStab, but the 6 reductions per iteration
  are grouped into 2 (one per half-iteration) via ``fused_reduce``,
  with the residual-norm check deferred by half an iteration and
  ``rho`` recovered locally from the fused ``(r_hat, s)`` /
  ``(r_hat, t)`` dot products;
* :func:`pipelined_pcg_solve_multi` -- Ghysels--Vanroose pipelined
  CG: one fused reduction per iteration, *posted* through
  ``ifused_reduce`` (returning a wait handle) so a distributed caller
  overlaps it with the preconditioner and matvec that follow.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..backend import get_backend
from ..runtime import alloc
from ..sparse.ldu import LDUMatrix
from .controls import SolverControls, SolverResult
from .workspace import KrylovWorkspace

__all__ = [
    "REDUCTIONS_PER_PCG_ITER",
    "backend_fused_reduce",
    "backend_ifused_reduce",
    "backend_reductions",
    "fused_pbicgstab_solve_multi",
    "pbicgstab_solve_multi",
    "pcg_solve_multi",
    "pipelined_pcg_solve_multi",
]


#: Global reductions per PCG iteration (two dot products + one norm) --
#: the allreduces that dominate strong-scaling communication (Sec. 5.3).
REDUCTIONS_PER_PCG_ITER = 3


def _block_x(name: str, workspace: KrylovWorkspace | None,
             x0: np.ndarray | None, n: int, k: int) -> np.ndarray:
    """The solution block, pooled when a workspace is supplied."""
    if workspace is None:
        alloc.count()
        return np.zeros((n, k)) if x0 is None else \
            np.array(x0, dtype=float, copy=True)
    return workspace.zeros(name, (n, k)) if x0 is None else \
        workspace.copy_of(name, x0)


class _ImmediateReduce:
    """Wait handle of the serial ``ifused_reduce`` hook (already done)."""

    def __init__(self, value):
        self._value = value

    def wait(self):
        """Return the (already computed) fused-reduction results."""
        return self._value


def backend_reductions(backend=None):
    """``(coldot, colsum_abs)`` hooks that execute on ``backend``.

    The blocked solvers keep their control flow (convergence masking,
    column compaction) on the host; the backend supplies the *reduction
    kernels* (:meth:`ArrayBackend.coldot` / ``colsum_abs``): the hooks
    transfer the ``(n, k)`` blocks, reduce on device, and return host
    ``(k,)`` results -- on the NumPy backend both transfers are no-ops
    around the einsum / L1 spellings.  Reduction order on other
    backends may differ from einsum by documented ulps (see the
    conformance suite's ulp budget).
    """
    be = get_backend(backend)

    def cdot(a, b):
        """Per-column dot products (host in, host out)."""
        return be.from_device(be.coldot(be.to_device(a), be.to_device(b)))

    def csum(r):
        """Per-column L1 norms (host in, host out)."""
        return be.from_device(be.colsum_abs(be.to_device(r)))

    return cdot, csum


def backend_fused_reduce(backend=None):
    """The serial ``fused_reduce`` hook, reducing on ``backend``.

    The hook takes ``dots``, a list of ``(a, b)`` multi-vector pairs,
    and ``sums``, a list of multi-vectors, and returns ``(dot_results,
    sum_results)`` -- per-column dot products and L1 norms.  A
    distributed caller replaces it with one packed allreduce for the
    whole group.
    """
    cdot, csum = backend_reductions(backend)

    def freduce(dots, sums):
        """Every reduction of the group, one after the other."""
        return ([cdot(a, b) for a, b in dots], [csum(s) for s in sums])

    return freduce


def backend_ifused_reduce(backend=None):
    """The serial nonblocking ``ifused_reduce`` hook on ``backend``:
    compute now, wait later."""
    freduce = backend_fused_reduce(backend)

    def ifreduce(dots, sums):
        """Immediate (already-computed) fused reduction."""
        return _ImmediateReduce(freduce(dots, sums))

    return ifreduce


def _converged_mask(controls: SolverControls, res: np.ndarray,
                    res0: np.ndarray) -> np.ndarray:
    mask = res <= controls.tolerance
    if controls.rel_tol > 0.0:
        mask = mask | (res <= controls.rel_tol * res0)
    return mask


def _active_columns(act: np.ndarray, k: int):
    """Column selector of the still-active block inside ``x``: the
    plain slice while every column iterates (an in-place update, no
    gather/scatter copy -- the only case a ``k = 1`` solve ever sees),
    the index array once a column has retired."""
    return slice(None) if act.size == k else act


def _check_rhs(a: LDUMatrix, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("blocked solver needs b of shape (n, k); "
                         "pass a single right-hand side as b[:, None]")
    if b.shape[0] != a.n:
        raise ValueError(f"rhs has {b.shape[0]} rows for a {a.n}-row matrix")
    return b


def pbicgstab_solve_multi(
    a: LDUMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls | None = None,
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
    coldot: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    colsum_abs: Callable[[np.ndarray], np.ndarray] | None = None,
    workspace: KrylovWorkspace | None = None,
    backend=None,
) -> tuple[np.ndarray, list[SolverResult]]:
    """Solve ``A X = B`` for k right-hand sides with blocked BiCGStab.

    Returns ``(X, results)`` where ``results[j]`` reports column j's
    own iteration count, residuals and flops (one
    :class:`SolverResult` per column, as if it had been solved alone).
    ``coldot``/``colsum_abs`` override the per-column reductions (for
    distributed execution, where they allreduce per-rank partials);
    ``backend`` picks their default implementations via
    :func:`backend_reductions` (``None`` = numpy).
    With ``workspace``, the ``(n, k)`` solution block is a pooled
    buffer that the next pooled solve will overwrite.
    """
    controls = controls if controls is not None else SolverControls()
    b = _check_rhs(a, b)
    n, k = b.shape
    mv = matvec if matvec is not None else a.matvec_multi
    be_cdot, be_csum = backend_reductions(backend)
    cdot = coldot if coldot is not None else be_cdot
    csum = colsum_abs if colsum_abs is not None else be_csum
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    x = _block_x("bicgm.x", workspace, x0, n, k)

    norm_factor = csum(b) + 1e-300
    r = b - mv(x)
    res0 = csum(r) / norm_factor
    res = res0.copy()
    fl = np.full(k, 2 * a.nnz + 2 * n, dtype=np.int64)
    results: list[SolverResult | None] = [None] * k

    conv = _converged_mask(controls, res, res0)
    for j in np.nonzero(conv)[0]:
        results[j] = SolverResult("PBiCGStab", 0, float(res0[j]),
                                  float(res[j]), True, int(fl[j]))
    act = np.nonzero(~conv)[0]

    # Compacted per-column state over the active columns.
    r = r[:, act]
    r_hat = r.copy()
    rho_old = np.ones(act.size)
    alpha = np.ones(act.size)
    omega = np.ones(act.size)
    v = np.zeros((n, act.size))
    p = np.zeros((n, act.size))
    res0_a = res0[act]
    res_a = res[act]
    nf = norm_factor[act]
    fl = fl[act]
    cols = _active_columns(act, k)

    def retire(mask: np.ndarray, it: int, converged: bool) -> np.ndarray:
        """Finalize results for masked columns; return the keep mask."""
        for i in np.nonzero(mask)[0]:
            j = int(act[i])
            results[j] = SolverResult("PBiCGStab", it, float(res0_a[i]),
                                      float(res_a[i]), converged, int(fl[i]))
        return ~mask

    def compress(keep: np.ndarray) -> None:
        """Drop retired columns from every recurrence vector."""
        nonlocal r, r_hat, rho_old, alpha, omega, v, p
        nonlocal res0_a, res_a, nf, fl, act, cols
        r, r_hat, v, p = r[:, keep], r_hat[:, keep], v[:, keep], p[:, keep]
        rho_old, alpha, omega = rho_old[keep], alpha[keep], omega[keep]
        res0_a, res_a, nf, fl = res0_a[keep], res_a[keep], nf[keep], fl[keep]
        cols = act = act[keep]

    it = 0
    for it in range(1, controls.max_iterations + 1):
        if act.size == 0:
            break
        rho = cdot(r_hat, r)
        broke = np.abs(rho) < 1e-300
        if broke.any():
            keep = retire(broke, it, converged=False)
            compress(keep)
            rho = rho[keep]
            if act.size == 0:
                break
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = precond(p)
        v = mv(p_hat)
        alpha = rho / cdot(r_hat, v)
        s = r - alpha * v
        fl += 2 * a.nnz + 10 * n
        res_a = csum(s) / nf
        conv = _converged_mask(controls, res_a, res0_a)
        if conv.any():
            x[:, act[conv]] += alpha[conv] * p_hat[:, conv]
            keep = retire(conv, it, converged=True)
            compress(keep)  # also compacts alpha/omega/rho_old
            s, p_hat, rho = s[:, keep], p_hat[:, keep], rho[keep]
            if act.size == 0:
                break
        s_hat = precond(s)
        t = mv(s_hat)
        tt = cdot(t, t)
        pos = tt > 0
        omega = np.where(pos, cdot(t, s) / np.where(pos, tt, 1.0), 0.0)
        x[:, cols] += alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho_old = rho
        fl += 2 * a.nnz + 10 * n
        res_a = csum(r) / nf
        conv = _converged_mask(controls, res_a, res0_a)
        broke = (np.abs(omega) < 1e-300) & ~conv
        if conv.any() or broke.any():
            keep = retire(conv, it, converged=True)
            keep &= retire(broke, it, converged=False)
            compress(keep)

    retire(np.ones(act.size, dtype=bool), it, converged=False)
    return x, results  # type: ignore[return-value]


def pcg_solve_multi(
    a: LDUMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls | None = None,
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
    coldot: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    colsum_abs: Callable[[np.ndarray], np.ndarray] | None = None,
    workspace: KrylovWorkspace | None = None,
    backend=None,
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
    ``backend`` selects the default reduction kernels through
    :func:`backend_reductions` (``None`` = numpy).
    With ``workspace``, the ``(n, k)`` solution block is a pooled
    buffer that the next pooled solve will overwrite.
    """
    controls = controls if controls is not None else SolverControls()
    b = _check_rhs(a, b)
    n, k = b.shape
    mv = matvec if matvec is not None else a.matvec_multi
    be_cdot, be_csum = backend_reductions(backend)
    cdot = coldot if coldot is not None else be_cdot
    csum = colsum_abs if colsum_abs is not None else be_csum
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    x = _block_x("pcgm.x", workspace, x0, n, k)

    norm_factor = csum(b) + 1e-300
    r = b - mv(x)
    res0 = csum(r) / norm_factor
    res = res0.copy()
    fl = np.full(k, 2 * a.nnz + 2 * n, dtype=np.int64)
    results: list[SolverResult | None] = [None] * k

    conv = _converged_mask(controls, res, res0)
    for j in np.nonzero(conv)[0]:
        results[j] = SolverResult("PCG", 0, float(res0[j]), float(res[j]),
                                  True, int(fl[j]))
    act = np.nonzero(~conv)[0]
    if act.size == 0:   # converged on entry: no sweep over an empty block
        return x, results  # type: ignore[return-value]

    r = r[:, act]
    res0_a = res0[act]
    res_a = res[act]
    nf = norm_factor[act]
    fl = fl[act]
    cols = _active_columns(act, k)

    z = precond(r)
    p = z.copy()
    rz = cdot(r, z)

    def retire(mask: np.ndarray, it: int, converged: bool) -> np.ndarray:
        """Record results for finished columns; returns the keep mask."""
        for i in np.nonzero(mask)[0]:
            j = int(act[i])
            results[j] = SolverResult(
                "PCG", it, float(res0_a[i]), float(res_a[i]), converged,
                int(fl[i]), {"reductions": it * REDUCTIONS_PER_PCG_ITER})
        return ~mask

    def compress(keep: np.ndarray) -> None:
        """Drop retired columns from every recurrence vector."""
        nonlocal r, p, rz, res0_a, res_a, nf, fl, act, cols
        r, p = r[:, keep], p[:, keep]
        rz = rz[keep]
        res0_a, res_a, nf, fl = res0_a[keep], res_a[keep], nf[keep], fl[keep]
        cols = act = act[keep]

    it = 0
    for it in range(1, controls.max_iterations + 1):
        if act.size == 0:
            break
        ap = mv(p)
        pap = cdot(p, ap)
        broke = np.abs(pap) < 1e-300
        if broke.any():
            keep = retire(broke, it, converged=False)
            compress(keep)
            ap, pap = ap[:, keep], pap[keep]
            if act.size == 0:
                break
        alpha = rz / pap
        x[:, cols] += alpha * p
        r -= alpha * ap
        fl += 2 * a.nnz + 6 * n
        res_a = csum(r) / nf
        conv = _converged_mask(controls, res_a, res0_a)
        if conv.any():
            keep = retire(conv, it, converged=True)
            compress(keep)
            if act.size == 0:
                break
        z = precond(r)
        rz_new = cdot(r, z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
        fl += 4 * n

    retire(np.ones(act.size, dtype=bool), it, converged=False)
    return x, results  # type: ignore[return-value]


def fused_pbicgstab_solve_multi(
    a: LDUMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls | None = None,
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
    fused_reduce: Callable | None = None,
    workspace: KrylovWorkspace | None = None,
    backend=None,
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
    synchronous variant to solver tolerance.  ``fused_reduce`` is the
    grouped-reduction hook (see :func:`backend_fused_reduce` for the
    serial reference; a distributed caller packs each group into a
    single allreduce).
    """
    controls = controls if controls is not None else SolverControls()
    b = _check_rhs(a, b)
    n, k = b.shape
    mv = matvec if matvec is not None else a.matvec_multi
    freduce = fused_reduce if fused_reduce is not None \
        else backend_fused_reduce(backend)
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    x = _block_x("bicgf.x", workspace, x0, n, k)

    r = b - mv(x)
    r_hat = r.copy()
    p = r.copy()
    v = np.zeros((n, k))
    rho = np.ones(k)
    fl = np.full(k, 2 * a.nnz + 2 * n, dtype=np.int64)
    results: list[SolverResult | None] = [None] * k
    act = np.arange(k)
    cols = _active_columns(act, k)
    # set on the first fused group (|b| and |r0| ride along with it)
    nf = res0_a = res_a = None

    def retire(mask: np.ndarray, it: int, converged: bool) -> np.ndarray:
        """Finalize results for masked columns; return the keep mask."""
        for i in np.nonzero(mask)[0]:
            j = int(act[i])
            results[j] = SolverResult(
                "PBiCGStab", it, float(res0_a[i]), float(res_a[i]),
                converged, int(fl[i]), {"reduction_groups": 2})
        return ~mask

    def compress(keep: np.ndarray) -> None:
        """Drop retired columns from every recurrence vector."""
        nonlocal r, r_hat, p, v, rho, res0_a, res_a, nf, fl, act, cols
        r, r_hat, p, v = r[:, keep], r_hat[:, keep], p[:, keep], v[:, keep]
        rho = rho[keep]
        res0_a, res_a, nf, fl = res0_a[keep], res_a[keep], nf[keep], fl[keep]
        cols = act = act[keep]

    first = True
    it = 0
    for it in range(1, controls.max_iterations + 1):
        if act.size == 0:
            break
        p_hat = precond(p)
        v = mv(p_hat)
        dots = [(r_hat, v)] + ([(r_hat, r)] if first else [])
        sums = [r] + ([b] if first else [])
        dres, sres = freduce(dots, sums)          # collective group 1
        sigma = dres[0]
        if first:
            rho = dres[1]
            nf = sres[1] + 1e-300
            res_a = sres[0] / nf
            res0_a = res_a.copy()
            first = False
        else:
            res_a = sres[0] / nf
        fl += 2 * a.nnz + 10 * n
        # |r| check the synchronous variant ran at the end of the
        # previous iteration; x is unchanged since, so retiring here
        # yields the same solution with (it - 1) counted iterations.
        conv = _converged_mask(controls, res_a, res0_a)
        broke = (np.abs(rho) < 1e-300) & ~conv
        if conv.any() or broke.any():
            keep = retire(conv, it - 1, converged=True)
            keep &= retire(broke, it - 1, converged=False)
            compress(keep)
            sigma, p_hat = sigma[keep], p_hat[:, keep]
            if act.size == 0:
                break
        alpha = rho / np.where(np.abs(sigma) > 0, sigma, 1e-300)
        s = r - alpha * v
        s_hat = precond(s)
        t = mv(s_hat)
        dres, sres = freduce(
            [(t, t), (t, s), (r_hat, s), (r_hat, t)], [s])  # group 2
        tt, ts, rhs, rht = dres
        res_a = sres[0] / nf
        fl += 2 * a.nnz + 10 * n
        conv = _converged_mask(controls, res_a, res0_a)
        if conv.any():
            x[:, act[conv]] += alpha[conv] * p_hat[:, conv]
            keep = retire(conv, it, converged=True)
            compress(keep)
            s, s_hat, t, p_hat = (s[:, keep], s_hat[:, keep], t[:, keep],
                                  p_hat[:, keep])
            alpha, tt, ts, rhs, rht = (alpha[keep], tt[keep], ts[keep],
                                       rhs[keep], rht[keep])
            if act.size == 0:
                break
        pos = tt > 0
        omega = np.where(pos, ts / np.where(pos, tt, 1.0), 0.0)
        x[:, cols] += alpha * p_hat + omega * s_hat
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
            keep = retire(broke, it, converged=False)
            compress(keep)

    if res0_a is None:  # max_iterations == 0: no group ever reduced
        nf = np.ones(act.size)
        res0_a = res_a = np.full(act.size, np.inf)
    retire(np.ones(act.size, dtype=bool), it, converged=False)
    return x, results  # type: ignore[return-value]


def pipelined_pcg_solve_multi(
    a: LDUMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls | None = None,
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
    ifused_reduce: Callable | None = None,
    workspace: KrylovWorkspace | None = None,
    backend=None,
) -> tuple[np.ndarray, list[SolverResult]]:
    """Ghysels--Vanroose pipelined PCG: one fused collective per
    iteration, overlapped with the preconditioner and matvec.

    The classical PCG iteration needs 3 collectives (``(p, Ap)``,
    ``|r|``, ``(r, z)``) at 2 synchronization points; the pipelined
    recurrence fuses ``gamma = (r, u)``, ``delta = (w, u)`` and
    ``|r|`` into a single reduction that is *posted* (via the
    ``ifused_reduce`` hook, returning a wait handle) before the
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
    controls = controls if controls is not None else SolverControls()
    b = _check_rhs(a, b)
    n, k = b.shape
    mv = matvec if matvec is not None else a.matvec_multi
    ifreduce = ifused_reduce if ifused_reduce is not None \
        else backend_ifused_reduce(backend)
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
    z = np.zeros((n, k))
    q = np.zeros((n, k))
    s = np.zeros((n, k))
    p = np.zeros((n, k))
    gamma_old = np.ones(k)
    alpha_old = np.ones(k)
    fl = np.full(k, 4 * a.nnz + 2 * n, dtype=np.int64)
    results: list[SolverResult | None] = [None] * k
    act = np.arange(k)
    cols = _active_columns(act, k)
    # set on the first fused reduction (|b| rides along with it)
    nf = res0_a = res_a = None

    def retire(mask: np.ndarray, it: int, converged: bool) -> np.ndarray:
        """Finalize results for masked columns; return the keep mask."""
        for i in np.nonzero(mask)[0]:
            j = int(act[i])
            results[j] = SolverResult(
                "PCG", it, float(res0_a[i]), float(res_a[i]), converged,
                int(fl[i]), {"reduction_groups": 1})
        return ~mask

    def compress(keep: np.ndarray) -> None:
        """Drop retired columns from every recurrence vector."""
        nonlocal r, u, w, z, q, s, p, gamma_old, alpha_old
        nonlocal res0_a, res_a, nf, fl, act, cols
        r, u, w = r[:, keep], u[:, keep], w[:, keep]
        z, q, s, p = z[:, keep], q[:, keep], s[:, keep], p[:, keep]
        gamma_old, alpha_old = gamma_old[keep], alpha_old[keep]
        res0_a, res_a, nf, fl = res0_a[keep], res_a[keep], nf[keep], fl[keep]
        cols = act = act[keep]

    first = True
    it = 0
    for it in range(1, controls.max_iterations + 1):
        if act.size == 0:
            break
        handle = ifreduce([(r, u), (w, u)],
                          [r] + ([b] if first else []))  # posted ...
        m_ = precond(w)                                  # ... overlapped
        n_ = mv(m_)                                      # ... overlapped
        dres, sres = handle.wait()
        gamma, delta = dres
        if first:
            nf = sres[1] + 1e-300
            res_a = sres[0] / nf
            res0_a = res_a.copy()
        else:
            res_a = sres[0] / nf
        # the |r| in this group is the residual *entering* the
        # iteration (after it-1 updates): the same value the classical
        # variant checks at the end of iteration it-1.
        conv = _converged_mask(controls, res_a, res0_a)
        if conv.any():
            keep = retire(conv, it - 1, converged=True)
            compress(keep)
            m_, n_ = m_[:, keep], n_[:, keep]
            gamma, delta = gamma[keep], delta[keep]
            if act.size == 0:
                break
        if first:
            beta = np.zeros(act.size)
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
        x[:, cols] += alpha * p
        r -= alpha * s
        u -= alpha * q
        w -= alpha * z
        gamma_old, alpha_old = gamma, alpha
        fl += 2 * a.nnz + 16 * n

    if res0_a is None:  # max_iterations == 0: nothing ever reduced
        nf = np.ones(act.size)
        res0_a = res_a = np.full(act.size, np.inf)
    retire(np.ones(act.size, dtype=bool), it, converged=False)
    return x, results  # type: ignore[return-value]
