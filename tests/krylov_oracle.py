"""Reference implementation of the Krylov solvers: the scalar bodies.

These are the single-right-hand-side PCG and PBiCGStab loops that
``repro.solvers`` carried beside the blocked family until every scalar
equation became a blocked solve with ``k = 1``, kept verbatim apart
from the vector-pool plumbing (a reference allocates): 1-D vectors,
BLAS ``dot`` reductions, Python-float recurrence scalars, one
:class:`~repro.solvers.controls.SolverResult` per call.  Each column of a
blocked solve iterates exactly this algorithm;
``tests/test_blocked_solvers.py`` compares the production bodies
against it column by column, and ``solve_k1`` below is the adapter
that runs a production body on one column through the scalar calling
convention.

One difference is deliberate: the scalar PCG divides by ``p.Ap``
unguarded (a right-hand side in the null space raises
``ZeroDivisionError``); the blocked body retires such a column as
unconverged instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.solvers.blocked import REDUCTIONS_PER_PCG_ITER, LocalSystem
from repro.solvers.controls import SolverControls, SolverResult
from repro.sparse.ldu import LDUMatrix

__all__ = ["ldu_system", "oracle_pcg_solve", "oracle_pbicgstab_solve",
           "solve_k1"]


def ldu_system(a: LDUMatrix, matvec=None) -> LocalSystem:
    """The serial system of ``a`` multiplying its ``(k, n)`` blocks
    with ``matvec`` -- by default the LDU face loop the oracles below
    multiply with (column ``j`` of ``a.matvec_multi`` is ``a.matvec``
    of that column bit for bit), so a production body on it and an
    oracle see the same products."""
    system = LocalSystem(a)
    system.matvec_multi = matvec if matvec is not None else (
        lambda x: np.ascontiguousarray(a.matvec_multi(x.T).T))
    return system


def oracle_pcg_solve(
    a: LDUMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls = SolverControls(),
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolverResult]:
    """Solve ``A x = b`` (A symmetric positive definite) with
    preconditioned CG on 1-D vectors."""
    n = a.n
    mv = matvec if matvec is not None else a.matvec
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    b = np.asarray(b, dtype=float)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    r, p, tmp = np.empty(n), np.empty(n), np.empty(n)

    norm_factor = np.sum(np.abs(b)) + 1e-300
    np.subtract(b, mv(x), out=r)
    res0 = float(np.sum(np.abs(r)) / norm_factor)
    res = res0
    flops = 2 * a.nnz + 2 * n

    if controls.converged(res, res0):
        return x, SolverResult("PCG", 0, res0, res, True, flops)

    z = precond(r)
    np.copyto(p, z)
    rz = float(r @ z)
    it = 0
    for it in range(1, controls.max_iterations + 1):
        ap = mv(p)
        alpha = rz / float(p @ ap)
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(ap, alpha, out=tmp)
        r -= tmp
        flops += 2 * a.nnz + 6 * n
        res = float(np.sum(np.abs(r)) / norm_factor)
        if controls.converged(res, res0):
            return x, SolverResult("PCG", it, res0, res, True, flops,
                                   {"reductions": it * REDUCTIONS_PER_PCG_ITER})
        z = precond(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        np.multiply(p, beta, out=p)
        np.add(p, z, out=p)
        rz = rz_new
        flops += 4 * n
    return x, SolverResult("PCG", it, res0, res, False, flops,
                           {"reductions": it * REDUCTIONS_PER_PCG_ITER})


def oracle_pbicgstab_solve(
    a: LDUMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    controls: SolverControls = SolverControls(),
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolverResult]:
    """Solve the (possibly asymmetric) system ``A x = b`` with
    preconditioned BiCGStab on 1-D vectors."""
    n = a.n
    mv = matvec if matvec is not None else a.matvec
    precond = preconditioner if preconditioner is not None else (lambda r: r)
    b = np.asarray(b, dtype=float)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    r, r_hat, s = np.empty(n), np.empty(n), np.empty(n)
    v, p = np.zeros(n), np.zeros(n)
    tmp, tmp2 = np.empty(n), np.empty(n)

    norm_factor = np.sum(np.abs(b)) + 1e-300
    np.subtract(b, mv(x), out=r)
    res0 = float(np.sum(np.abs(r)) / norm_factor)
    res = res0
    flops = 2 * a.nnz + 2 * n
    if controls.converged(res, res0):
        return x, SolverResult("PBiCGStab", 0, res0, res, True, flops)

    np.copyto(r_hat, r)
    rho_old = alpha = omega = 1.0
    it = 0
    for it in range(1, controls.max_iterations + 1):
        rho = float(r_hat @ r)
        if abs(rho) < 1e-300:
            break
        beta = (rho / rho_old) * (alpha / omega)
        # p = r + beta * (p - omega * v)
        np.multiply(v, omega, out=tmp)
        np.subtract(p, tmp, out=p)
        np.multiply(p, beta, out=p)
        np.add(p, r, out=p)
        p_hat = precond(p)
        v = mv(p_hat)
        alpha = rho / float(r_hat @ v)
        np.multiply(v, alpha, out=tmp)
        np.subtract(r, tmp, out=s)
        flops += 2 * a.nnz + 10 * n
        res = float(np.sum(np.abs(s)) / norm_factor)
        if controls.converged(res, res0):
            np.multiply(p_hat, alpha, out=tmp)
            x += tmp
            return x, SolverResult("PBiCGStab", it, res0, res, True, flops)
        s_hat = precond(s)
        t = mv(s_hat)
        tt = float(t @ t)
        omega = float(t @ s) / tt if tt > 0 else 0.0
        # x += alpha * p_hat + omega * s_hat
        np.multiply(p_hat, alpha, out=tmp)
        np.multiply(s_hat, omega, out=tmp2)
        np.add(tmp, tmp2, out=tmp)
        x += tmp
        # r = s - omega * t
        np.multiply(t, omega, out=tmp)
        np.subtract(s, tmp, out=r)
        rho_old = rho
        flops += 2 * a.nnz + 10 * n
        res = float(np.sum(np.abs(r)) / norm_factor)
        if controls.converged(res, res0):
            return x, SolverResult("PBiCGStab", it, res0, res, True, flops)
        if abs(omega) < 1e-300:
            break
    return x, SolverResult("PBiCGStab", it, res0, res, False, flops)


def solve_k1(body, a, b, x0=None, preconditioner=None, matvec=None, **kw):
    """A blocked production body on one column, called the scalar way.

    ``b`` / ``x0`` are 1-D and so are the vectors the ``preconditioner``
    and ``matvec`` hooks see; returns ``(x, result)`` with ``x`` 1-D.
    """
    def lift(hook):   # the body's (1, n) blocks are the 1-D vectors
        return None if hook is None else (lambda w: hook(w[0])[None])

    x, results = body(
        ldu_system(a, lift(matvec)), np.asarray(b, dtype=float)[:, None],
        x0=None if x0 is None else np.asarray(x0, dtype=float)[:, None],
        preconditioner=lift(preconditioner), **kw)
    return x[:, 0], results[0]
