"""Stiff and non-stiff ODE integrators for chemical kinetics.

Implements the integrator families used by the paper's Table-1 codes:

* :class:`BDFIntegrator` -- a variable-order (1-5), variable-step
  quasi-constant-step-size NDF/BDF method with modified-Newton
  iteration and dense LU, following the algorithm of Shampine &
  Reichelt (the same family as CVODE, which DeepFlame's baseline and
  the YALES2/NEK5000/PeleC comparison codes use).  Exposes per-solve
  work counters (steps, Newton iterations, LU factorizations, RHS
  evaluations) so that the chemistry load-imbalance phenomenology the
  paper describes can be measured directly.
* :func:`rodas3_batch` -- the stiffly accurate, L-stable 4-stage
  Rosenbrock method RODAS3 with embedded error control (CharlesX uses
  a semi-implicit Rosenbrock scheme, ROK4E), every row on its own
  adaptive step size.

The BDF solver integrates one cell's ``f(t, y)``; the Rosenbrock
scheme advances a batch of rows through a batched autonomous
``rhs(states, p)`` -- one cell is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["WorkCounters", "BDFIntegrator", "rodas3_batch"]

_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

# NDF modification coefficients (Shampine & Reichelt, MATLAB ode15s).
_KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
_GAMMA = np.hstack((0.0, np.cumsum(1.0 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1.0 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1.0 / np.arange(1, _MAX_ORDER + 2)


@dataclass
class WorkCounters:
    """Operation counts accumulated during a solve.

    The spatial variability of these counters across cells is exactly
    the chemistry load imbalance that motivates ODENet.
    """

    steps: int = 0
    rejected_steps: int = 0
    rhs_evals: int = 0
    jac_evals: int = 0
    lu_factorizations: int = 0
    newton_iters: int = 0

    def merge(self, other: "WorkCounters") -> None:
        for f in (
            "steps",
            "rejected_steps",
            "rhs_evals",
            "jac_evals",
            "lu_factorizations",
            "newton_iters",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))


def _norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x) / np.sqrt(x.size))


def _compute_r(order: int, factor: float) -> np.ndarray:
    """Step-size-change matrix for the backward-difference array."""
    i = np.arange(1, order + 1)[:, None]
    j = np.arange(1, order + 1)[None, :]
    m = np.zeros((order + 1, order + 1))
    m[1:, 1:] = (i - 1 - factor * j) / i
    m[0] = 1.0
    return np.cumprod(m, axis=0)


def _change_d(d_arr: np.ndarray, order: int, factor: float) -> None:
    """Rescale the difference array in place for a step-size change.

    The full transform is ``R(factor) @ R(1)`` (Shampine & Reichelt);
    ``R(1)`` is not the identity.
    """
    ru = _compute_r(order, factor) @ _compute_r(order, 1.0)
    d_arr[: order + 1] = ru.T @ d_arr[: order + 1]


class BDFIntegrator:
    """Variable-order NDF/BDF integrator with modified Newton iteration.

    Parameters
    ----------
    fun:
        Right-hand side ``f(t, y) -> dy/dt``.
    jac:
        Optional dense Jacobian ``J(t, y)``; finite differences are
        used when omitted.
    rtol, atol:
        Local error tolerances.
    max_step:
        Optional cap on the internal step size.
    """

    def __init__(
        self,
        fun: Callable[[float, np.ndarray], np.ndarray],
        jac: Callable[[float, np.ndarray], np.ndarray] | None = None,
        rtol: float = 1e-6,
        atol: float = 1e-10,
        max_step: float = np.inf,
    ):
        self.fun = fun
        self.jac = jac
        self.rtol = rtol
        self.atol = atol
        self.max_step = max_step
        self.work = WorkCounters()

    # ----------------------------------------------------------------
    def _eval_rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        self.work.rhs_evals += 1
        return np.asarray(self.fun(t, y), dtype=float)

    def _eval_jac(self, t: float, y: np.ndarray, f0: np.ndarray) -> np.ndarray:
        self.work.jac_evals += 1
        if self.jac is not None:
            return np.asarray(self.jac(t, y), dtype=float)
        n = y.size
        j = np.empty((n, n))
        eps = np.sqrt(np.finfo(float).eps)
        for i in range(n):
            dy = eps * max(abs(y[i]), 1e-8)
            yp = y.copy()
            yp[i] += dy
            j[:, i] = (self._eval_rhs(t, yp) - f0) / dy
        return j

    # ----------------------------------------------------------------
    def solve(
        self,
        t_span: tuple[float, float],
        y0: np.ndarray,
        first_step: float | None = None,
        dense_ts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate from ``t_span[0]`` to ``t_span[1]``.

        Returns ``(ts, ys)`` where ``ys[k]`` is the state at ``ts[k]``.
        If ``dense_ts`` is given, the solution is interpolated onto
        those times (via the backward-difference polynomial); otherwise
        every accepted internal step is returned.
        """
        # the one dense LU in the package: the batched integrators
        # never load scipy.linalg
        from scipy.linalg import lu_factor, lu_solve

        t0, tf = t_span
        y = np.array(y0, dtype=float)
        n = y.size
        f0 = self._eval_rhs(t0, y)

        if first_step is None:
            scale = self.atol + self.rtol * np.abs(y)
            d0 = _norm(y / scale)
            d1 = _norm(f0 / scale)
            h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6
            h = min(h, (tf - t0) / 10.0, self.max_step)
        else:
            h = float(first_step)
        h = max(h, 10.0 * np.abs(np.nextafter(t0, tf) - t0))

        d_arr = np.zeros((_MAX_ORDER + 3, n))
        d_arr[0] = y
        d_arr[1] = f0 * h
        order = 1
        n_equal_steps = 0
        t = t0

        lu = None
        current_jac = False
        j_mat = self._eval_jac(t0, y, f0)

        ts_out = [t0]
        ys_out = [y.copy()]

        while t < tf:
            if t + h > tf:
                factor = (tf - t) / h
                h = tf - t
                _change_d(d_arr, order, factor)
                n_equal_steps = 0
                lu = None
            h = min(h, self.max_step)

            step_accepted = False
            while not step_accepted:
                t_new = t + h
                y_predict = d_arr[: order + 1].sum(axis=0)
                scale = self.atol + self.rtol * np.abs(y_predict)
                psi = d_arr[1 : order + 1].T @ _GAMMA[1 : order + 1] / _ALPHA[order]
                c = h / _ALPHA[order]

                converged = False
                while not converged:
                    if lu is None:
                        self.work.lu_factorizations += 1
                        lu = lu_factor(np.eye(n) - c * j_mat)
                    y_new = y_predict.copy()
                    d = np.zeros(n)
                    dy_norm_old = None
                    rate = None
                    for _ in range(_NEWTON_MAXITER):
                        self.work.newton_iters += 1
                        f = self._eval_rhs(t_new, y_new)
                        if not np.all(np.isfinite(f)):
                            break
                        dy = lu_solve(lu, c * f - psi - d)
                        dy_norm = _norm(dy / scale)
                        if dy_norm_old is not None and dy_norm_old > 0:
                            rate = dy_norm / dy_norm_old
                            if rate >= 1.0:
                                break
                        y_new += dy
                        d += dy
                        if dy_norm == 0.0 or (
                            rate is not None
                            and rate / (1.0 - rate) * dy_norm < 1e-2
                        ):
                            converged = True
                            break
                        dy_norm_old = dy_norm
                    if converged:
                        break
                    if not current_jac:
                        j_mat = self._eval_jac(t, d_arr[0], self._eval_rhs(t, d_arr[0]))
                        current_jac = True
                        lu = None
                    else:
                        h *= 0.5
                        n_equal_steps = 0
                        _change_d(d_arr, order, 0.5)
                        lu = None
                        if h < 1e-14 * max(abs(t), 1.0):
                            raise RuntimeError("BDF step size underflow")
                        break
                if not converged:
                    continue

                safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (
                    2 * _NEWTON_MAXITER + self.work.newton_iters % _NEWTON_MAXITER + 1
                )
                error = _ERROR_CONST[order] * d
                error_norm = _norm(error / scale)
                if error_norm > 1.0:
                    self.work.rejected_steps += 1
                    factor = max(
                        _MIN_FACTOR, safety * error_norm ** (-1.0 / (order + 1))
                    )
                    _change_d(d_arr, order, factor)
                    h *= factor
                    n_equal_steps = 0
                    lu = None
                    continue
                step_accepted = True

            self.work.steps += 1
            n_equal_steps += 1
            t = t_new
            current_jac = False

            # Update the backward-difference array.
            d_arr[order + 2] = d - d_arr[order + 1]
            d_arr[order + 1] = d
            for i in reversed(range(order + 1)):
                d_arr[i] += d_arr[i + 1]

            ts_out.append(t)
            ys_out.append(d_arr[0].copy())

            if n_equal_steps < order + 1:
                continue

            # Consider changing the order.
            scale = self.atol + self.rtol * np.abs(d_arr[0])
            error_m_norm = (
                _norm(_ERROR_CONST[order - 1] * d_arr[order] / scale)
                if order > 1
                else np.inf
            )
            error_norm = _norm(_ERROR_CONST[order] * d_arr[order + 1] / scale)
            error_p_norm = (
                _norm(_ERROR_CONST[order + 1] * d_arr[order + 2] / scale)
                if order < _MAX_ORDER
                else np.inf
            )
            error_norms = np.array([error_m_norm, error_norm, error_p_norm])
            with np.errstate(divide="ignore", over="ignore"):
                factors = error_norms ** (-1.0 / np.arange(order, order + 3))
            delta_order = int(np.argmax(factors)) - 1
            order += delta_order
            factor = min(_MAX_FACTOR, 0.9 * factors[delta_order + 1])
            if not np.isfinite(factor) or factor <= 0:
                factor = 1.0
            if abs(factor - 1.0) > 1e-12 or delta_order != 0:
                _change_d(d_arr, order, factor)
                h *= factor
                n_equal_steps = 0
                lu = None

        ts = np.array(ts_out)
        ys = np.array(ys_out)
        if dense_ts is not None:
            out = np.empty((len(dense_ts), n))
            for k in range(n):
                out[:, k] = np.interp(dense_ts, ts, ys[:, k])
            return np.asarray(dense_ts), out
        return ts, ys


# --------------------------------------------------------------------
def rodas3_batch(rhs, jac, s, p, f0, dt, h0, rtol, atol, max_steps):
    """Error-controlled RODAS3 (Sandu et al. 1997, KPP's ``Rodas3``;
    Hairer & Wanner, *Solving ODEs II*, IV.7) over ``[0, dt]`` of every
    row of ``s``, each row on its own step size ``h``:

        (I/(gamma h) - J) K1 = f(y)                  gamma = 1/2
        (I/(gamma h) - J) K2 = f(y) + 4 K1 / h
        (I/(gamma h) - J) K3 = f(y + 2 K1) + (K1 - K2) / h
        (I/(gamma h) - J) K4 = f(y + 2 K1 + K3) + (K1 - K2 - 8/3 K3) / h
        y_new = y + 2 K1 + K3 + K4,   error estimate K4

    Rows advance in lockstep (the unfinished ones compacted by index),
    each iteration at the exact Jacobian.  A row accepts when the RMS
    of ``K4 / (atol + rtol max(|y|, |y_new|))`` is <= 1, rescales ``h``
    by ``clip(0.9 err^(-1/3), 0.2, 6)`` either way and clips its last
    step to land on ``dt``.  It stops at ``dt``, at ``h < 1e-12 dt`` or
    after ``max_steps`` attempts; a non-finite initial state or rate
    never starts.  ``rhs`` / ``jac`` are batched over rows, ``f0 =
    rhs(s, p)``, ``h0`` is the first trial step (scalar or per row)
    and ``rtol`` / ``atol`` broadcast against a row.

    Returns ``(s_new, steps, done)``: the advanced rows, each row's
    step attempts and whether it reached ``dt``.
    """
    s = np.array(s, dtype=float)
    f = np.array(f0, dtype=float)
    t = np.zeros(s.shape[0])
    h = np.array(np.broadcast_to(h0, t.shape), dtype=float)
    steps = np.zeros(t.shape, dtype=np.int64)
    done = np.zeros(t.shape, dtype=bool)
    live = np.flatnonzero(np.isfinite(s).all(axis=1)
                          & np.isfinite(f).all(axis=1))
    eye = np.eye(s.shape[1])
    while live.size:
        sl, pl, fl, rem = s[live], p[live], f[live], dt - t[live]
        last = h[live] >= rem
        hl = np.where(last, rem, h[live])[:, None]
        a_inv = np.linalg.inv(eye / (0.5 * hl[:, :, None]) - jac(sl, pl))

        def solve(b):
            return np.einsum("cij,cj->ci", a_inv, b)

        k1 = solve(fl)
        k2 = solve(fl + 4.0 * k1 / hl)
        k3 = solve(rhs(sl + 2.0 * k1, pl) + (k1 - k2) / hl)
        k4 = solve(rhs(sl + 2.0 * k1 + k3, pl)
                   + (k1 - k2 - (8.0 / 3.0) * k3) / hl)
        s_new = sl + 2.0 * k1 + k3 + k4
        scale = atol + rtol * np.maximum(np.abs(sl), np.abs(s_new))
        err = np.sqrt(np.mean((k4 / scale) ** 2, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.clip(0.9 * err ** (-1.0 / 3.0), 0.2, 6.0)
        fac[np.isnan(fac)] = 0.2  # a non-finite trial shrinks the step
        ok = (err <= 1.0) & np.isfinite(s_new).all(axis=1)
        h[live] = hl[:, 0] * fac
        steps[live] += 1
        s[live[ok]] = s_new[ok]
        t[live[ok]] += hl[ok, 0]
        done[live[ok & last]] = True
        go = ~(ok & last) & (steps[live] < max_steps) \
            & (h[live] >= 1e-12 * dt)
        moved = live[ok & go]
        if moved.size:
            f[moved] = rhs(s[moved], p[moved])
        live = live[go]
    return s, steps, done
