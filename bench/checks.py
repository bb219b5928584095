"""Correctness checks, run by the same command that measures.

Every check is one *operation* in ``failed_frac``: it counts as
attempted, and as failed when its value is outside its limit.  The
limits are the ones the issue fixed beforehand; none is fitted to a
measurement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Check", "at_most", "window_invariants", "state_hash",
           "diag_finite", "fields_close", "fields_bitwise",
           "hybrid_vs_direct", "direct_vs_bdf"]

SUM_Y_TOL = 1e-12
T_RANGE = (60.0, 5000.0)
MASS_DRIFT_TOL = 1e-9
#: decomposed vs undecomposed: the Krylov solves' ``rel_tol``
DECOMPOSED_TOL = 1e-4
HYBRID_DY_TOL = 1e-6
#: graded direct integration vs per-cell BDF, as asserted by
#: ``tests/test_chemistry_backends.py``
BDF_Y_TOL = 5e-4
BDF_T_TOL = 0.5
BDF_SAMPLE = 32


@dataclass
class Check:
    """One correctness check: ``value`` against ``limit``."""

    name: str
    ok: bool
    value: float
    limit: float


def at_most(name: str, value: float, limit: float) -> Check:
    value = float(value)
    return Check(name, bool(np.isfinite(value) and value <= limit), value,
                 limit)


def diag_finite(diag) -> bool:
    """Every numeric field of a ``StepDiagnostics`` is finite."""
    return all(np.isfinite(v) for v in vars(diag).values())


def window_invariants(fields: dict, masses: list[float],
                      mass0: float) -> list[Check]:
    """Physical invariants at the end of one window."""
    y, t = fields["y"], fields["T"]
    t_excess = max(T_RANGE[0] - float(t.min()), float(t.max()) - T_RANGE[1])
    drift = max(abs(m - mass0) for m in masses) / mass0
    return [
        at_most("sum_y", np.abs(y.sum(axis=1) - 1.0).max(), SUM_Y_TOL),
        at_most("t_range", t_excess, 0.0),
        at_most("mass_drift_rel", drift, MASS_DRIFT_TOL),
    ]


def state_hash(fields: dict) -> str:
    """SHA-256 over the bytes of the evolved fields."""
    h = hashlib.sha256()
    for name in ("y", "h", "p", "u"):
        h.update(np.ascontiguousarray(fields[name]).tobytes())
    return h.hexdigest()


def fields_close(prefix: str, got: dict, ref: dict,
                 tol: float = DECOMPOSED_TOL) -> list[Check]:
    """Relative max-norm agreement of y, h, p, u."""
    return [at_most(f"{prefix}.{name}",
                np.abs(got[name] - ref[name]).max() / np.abs(ref[name]).max(),
                tol)
            for name in ("y", "h", "p", "u")]


def fields_bitwise(name: str, got: dict, ref: dict) -> Check:
    """Bitwise equality of y, h, p, u (value = number of differing
    fields)."""
    differing = sum(not np.array_equal(got[k], ref[k])
                    for k in ("y", "h", "p", "u"))
    return at_most(name, differing, 0.0)


def hybrid_vs_direct(captured: list, mech, dt: float) -> Check:
    """``max|dY|`` of the hybrid backend against ``DirectBatchBackend``
    on the same pre-step states."""
    from repro.chemistry.backends import DirectBatchBackend

    direct = DirectBatchBackend(mech)
    worst = 0.0
    for t, p, y, y_out, _ in captured:
        y_ref, _, _ = direct.advance(y, t, p, dt)
        worst = max(worst, float(np.abs(y_out - y_ref).max()))
    return at_most("hybrid_vs_direct.max_dy", worst, HYBRID_DY_TOL)


def direct_vs_bdf(captured: list, mech, dt: float) -> list[Check]:
    """Graded direct integration against per-cell BDF on a fixed
    sample of the hot kernel (first captured step)."""
    from repro.chemistry.backends import PerCellBDFBackend

    t, p, y, y_out, t_out = captured[0]
    hot = np.flatnonzero(t > 1500.0)
    idx = hot[np.linspace(0, hot.size - 1, min(BDF_SAMPLE, hot.size))
              .astype(int)]
    y_ref, t_ref, _ = PerCellBDFBackend(mech).advance(y[idx], t[idx], p[idx],
                                                      dt)
    return [at_most("direct_vs_bdf.y", np.abs(y_out[idx] - y_ref).max(),
                BDF_Y_TOL),
            at_most("direct_vs_bdf.t", np.abs(t_out[idx] - t_ref).max(),
                BDF_T_TOL)]
