"""Hybrid DNN + ODE chemistry (the paper's mixed mode).

Each batch is split by a temperature-window criterion (optionally
sharpened by the direct backend's stiffness indicator) and — when the
surrogate carries trained-manifold metadata — a per-cell **trust
gate**:

* **domain gate**: every surrogate-eligible cell's scaled input
  features are checked against the
  :class:`~repro.dnn.registry.TrustRegion` recorded at training time;
  out-of-distribution cells are routed back to direct integration and
  accumulated in an OOD buffer for incremental retraining,
* **spot audits**: a deterministic sampled fraction of the surrogate
  cells is *also* advanced through the error-controlled direct
  backend; audited cells adopt the direct result, and cells whose
  surrogate prediction disagreed beyond ``audit_tol`` are counted as
  audit failures and buffered as OOD.

The returned stats carry a per-backend breakdown plus the gate
counters so the imbalance metrics in :mod:`repro.runtime` and the
quickstart can price and report the split.
"""

from __future__ import annotations

import time

import numpy as np

from ...runtime.seeding import hash_uniform
from .base import BackendStats, ChemistryBackend
from .direct import DirectBatchBackend
from .surrogate import SurrogateBackend

__all__ = ["HybridBackend", "TRUST_GATE_MODES"]

#: accepted ``trust_gate`` spellings
TRUST_GATE_MODES = ("off", "domain", "domain+audit")


class HybridBackend(ChemistryBackend):
    """Trust-gated surrogate + direct composite.

    Parameters
    ----------
    surrogate, direct:
        The two child backends.
    t_window:
        ``(t_lo, t_hi)``: cells with temperature inside the window are
        surrogate-eligible (the coarse trained-manifold proxy).
    z_max:
        Optional stiffness cutoff: when set, surrogate-eligible cells
        whose stiffness indicator exceeds it are re-routed to the
        direct backend (ignition fronts stay on exact integration).
    trust_gate:
        ``"off"`` reproduces the plain temperature/stiffness split;
        ``"domain"`` adds the scaled-feature domain check against the
        surrogate's trained :class:`~repro.dnn.registry.TrustRegion`;
        ``"domain+audit"`` additionally spot-audits a sampled fraction
        of surrogate cells through the direct backend.
    audit_fraction:
        Fraction of surrogate cells audited per call (at least one
        cell when any are eligible).
    audit_tol:
        Max |dY| discrepancy between surrogate and direct above which
        an audited cell counts as a failure (and is buffered as OOD).
    audit_seed:
        Seed of the audit sampling.  Audits are chosen by a stateless
        per-cell Bernoulli draw (:func:`repro.runtime.seeding.hash_uniform`
        keyed by ``(audit_seed, advance counter, row index)``), so the
        audited set depends only on the seed, the call count and the
        batch, not on any generator state.
    ood_capacity:
        Max buffered OOD states (oldest dropped first).
    """

    name = "hybrid"

    def __init__(
        self,
        surrogate: SurrogateBackend,
        direct: DirectBatchBackend,
        t_window: tuple[float, float] = (500.0, 3000.0),
        z_max: float | None = None,
        trust_gate: str = "off",
        audit_fraction: float = 0.02,
        audit_tol: float = 1e-6,
        audit_seed: int = 0,
        ood_capacity: int = 4096,
    ):
        if trust_gate not in TRUST_GATE_MODES:
            raise ValueError(f"unknown trust_gate {trust_gate!r}; "
                             f"use one of {TRUST_GATE_MODES}")
        if trust_gate != "off" and surrogate.odenet.domain is None:
            raise ValueError(
                "trust_gate needs a surrogate trained with a recorded "
                "TrustRegion (ODENet.fit records one)")
        if not 0.0 <= audit_fraction <= 1.0:
            raise ValueError("audit_fraction must be in [0, 1]")
        self.surrogate = surrogate
        self.direct = direct
        self.t_window = (float(t_window[0]), float(t_window[1]))
        self.z_max = z_max
        self.trust_gate = trust_gate
        self.audit_fraction = float(audit_fraction)
        self.audit_tol = float(audit_tol)
        self.audit_seed = int(audit_seed)
        #: advance-call counter: successive calls sample fresh audit
        #: sets (the hash's stream coordinate)
        self._audit_calls = 0
        self.ood_capacity = int(ood_capacity)
        self._ood: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._ood_size = 0
        #: cumulative trust-gate counters over the backend's lifetime
        self.counters: dict[str, int] = {
            "surrogate_cells": 0, "direct_cells": 0, "gated_out_cells": 0,
            "audited_cells": 0, "audit_failures": 0,
        }

    # ------------------------------------------------------------------
    def _split(self, y, t, p, dt) -> tuple[np.ndarray, np.ndarray]:
        """``(surrogate_mask, gated_out_mask)`` for one batch.

        ``gated_out_mask`` marks cells that passed the coarse
        temperature/stiffness criteria but were rejected by the domain
        gate — the out-of-distribution cells worth buffering.
        """
        t_lo, t_hi = self.t_window
        mask = (t >= t_lo) & (t <= t_hi)
        if self.z_max is not None and mask.any():
            z = self.direct.stiffness_indicator(y, t, p, dt)
            mask &= z <= self.z_max
        gated_out = np.zeros_like(mask)
        if self.trust_gate != "off" and mask.any():
            idx = np.flatnonzero(mask)
            feats = self.surrogate.odenet.scaled_features(
                t[idx], p[idx], y[idx], dt)
            ok = self.surrogate.odenet.domain.contains(feats)
            gated_out[idx[~ok]] = True
            mask[idx[~ok]] = False
        return mask, gated_out

    def split_mask(self, y, t, p, dt) -> np.ndarray:
        """Boolean mask of cells routed to the surrogate."""
        y, t, p = self._as_batch(y, t, p, dt)
        return self._split(y, t, p, dt)[0]

    # -- OOD accumulation ----------------------------------------------
    def _buffer_ood(self, t, p, y) -> None:
        """Append states to the OOD buffer, dropping oldest at capacity."""
        if t.size == 0:
            return
        self._ood.append((t.copy(), p.copy(), y.copy()))
        self._ood_size += t.size
        while self._ood and self._ood_size - self._ood[0][0].size \
                >= self.ood_capacity:
            self._ood_size -= self._ood.pop(0)[0].size

    @property
    def ood_size(self) -> int:
        """Number of buffered out-of-distribution states."""
        return self._ood_size

    def drain_ood(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Pop all buffered OOD states as ``(T, p, Y)`` (or ``None``).

        The feed for incremental retraining
        (:func:`repro.dnn.registry.retrain_incremental`): label these
        with the direct backend and fine-tune the surrogate.
        """
        if not self._ood:
            return None
        t = np.concatenate([b[0] for b in self._ood])
        p = np.concatenate([b[1] for b in self._ood])
        y = np.vstack([b[2] for b in self._ood])
        self._ood.clear()
        self._ood_size = 0
        return t, p, y

    def advance(self, y, t, p, dt):
        """Advance the batch through the trust-gated split.

        Returns ``(Y_new, T_new, stats)`` with a per-child
        ``stats.per_backend`` breakdown and the call's gate counters in
        ``stats.gate``; cumulative counters live on
        :attr:`counters`.
        """
        y, t, p = self._as_batch(y, t, p, dt)
        n = t.shape[0]
        audit_stream = self._audit_calls
        self._audit_calls += 1
        t0 = time.perf_counter()
        mask, gated_out = self._split(y, t, p, dt)
        idx_s = np.flatnonzero(mask)
        idx_d = np.flatnonzero(~mask)

        y_new = y.copy()
        t_new = t.copy()
        work = np.zeros(n)
        gate = {"surrogate_cells": int(idx_s.size),
                "direct_cells": int(idx_d.size),
                "gated_out_cells": int(gated_out.sum()),
                "audited_cells": 0, "audit_failures": 0}
        stats = BackendStats(backend=self.name, n_cells=n,
                             work_per_cell=work, gate=gate)
        if idx_s.size:
            ys, ts, st = self.surrogate.advance(y[idx_s], t[idx_s],
                                                p[idx_s], dt)
            y_new[idx_s], t_new[idx_s] = ys, ts
            work[idx_s] = st.work_per_cell
            stats.per_backend["surrogate"] = st
            stats.sub_batches.append(("surrogate", idx_s.size,
                                      int(st.total_work)))
            if self.trust_gate == "domain+audit" and self.audit_fraction > 0:
                self._audit(y, t, p, dt, idx_s, audit_stream,
                            y_new, t_new, work, gate, stats)
        if idx_d.size:
            yd, td, st = self.direct.advance(y[idx_d], t[idx_d], p[idx_d], dt)
            y_new[idx_d], t_new[idx_d] = yd, td
            work[idx_d] = st.work_per_cell
            stats.rhs_evals += st.rhs_evals
            stats.jac_evals += st.jac_evals
            stats.linear_solves += st.linear_solves
            stats.per_backend["direct"] = st
            stats.sub_batches.append(("direct", idx_d.size,
                                      int(st.total_work)))
        if gated_out.any():
            idx_g = np.flatnonzero(gated_out)
            self._buffer_ood(t[idx_g], p[idx_g], y[idx_g])
        for key, val in gate.items():
            self.counters[key] += val
        stats.wall_time = time.perf_counter() - t0
        return y_new, t_new, stats

    def _audit(self, y, t, p, dt, idx_s, audit_stream,
               y_new, t_new, work, gate, stats) -> None:
        """Spot-audit a sampled fraction of the surrogate cells.

        Cells are picked by an independent per-cell Bernoulli draw
        keyed by ``(audit_seed, advance counter, row index)`` — a pure
        function of those three, so a rank that makes the same calls
        audits the same rows however the run is scheduled.  When the
        draw selects nobody, the eligible cell with the smallest hash
        score is audited instead (the at-least-one-audit guarantee,
        per call).

        The audited cells re-run through the (error-controlled) direct
        backend; they adopt the direct result — and the direct
        work price — and any cell whose surrogate prediction deviated
        beyond ``audit_tol`` is counted and buffered as OOD.
        """
        scores = hash_uniform(self.audit_seed, audit_stream, idx_s)
        sel = scores < self.audit_fraction
        if not sel.any():
            sel[np.argmin(scores)] = True
        idx_a = idx_s[sel]
        yd, td, st = self.direct.advance(y[idx_a], t[idx_a], p[idx_a], dt)
        disagreement = np.abs(y_new[idx_a] - yd).max(axis=1)
        failures = disagreement > self.audit_tol
        y_new[idx_a], t_new[idx_a] = yd, td
        work[idx_a] = st.work_per_cell
        gate["audited_cells"] = int(idx_a.size)
        gate["audit_failures"] = int(failures.sum())
        stats.rhs_evals += st.rhs_evals
        stats.jac_evals += st.jac_evals
        stats.linear_solves += st.linear_solves
        stats.per_backend["audit"] = st
        stats.sub_batches.append(("audit", idx_a.size, int(st.total_work)))
        if failures.any():
            idx_f = idx_a[failures]
            self._buffer_ood(t[idx_f], p[idx_f], y[idx_f])
