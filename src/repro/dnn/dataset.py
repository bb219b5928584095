"""Training-data pipeline for the chemistry surrogates.

Samples ``(T, p, Y) -> dY`` pairs from the batched direct
backend (:class:`~repro.chemistry.backends.direct.DirectBatchBackend`) over
the regimes the solver actually visits: the supercritical TGV mixing
layer, the igniting hot-blob variant and the rocket-sector states.
Each regime contributes

* the case's own initial states (the exact manifold the solver starts
  from),
* short direct-integrated trajectories off those states (the states a
  few chemistry steps downstream),
* optionally, *transport-coupled* states collected from a real
  :class:`~repro.core.solver.DeepFlameSolver` run with direct
  chemistry in the loop (``transport_steps``) -- these carry the
  per-cell pressure variation and advective drift the chemistry-only
  trajectories cannot see, and
* multiplicative jitter (temperature, composition and pressure)
  around all of the above, covering drift between chemistry calls.

Sampling is deterministic given ``seed``; every sample carries the
direct backend's stiffness indicator ``z`` so the set's coverage can
be graded in decades of ``z``
(:meth:`TrainingSet.coverage`) and thinned per bin
(:meth:`TrainingSet.thin`) without losing the stiff tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..chemistry.backends.direct import DirectBatchBackend
from ..core import cases
from ..core.deepflame import DeepFlameSolver
from ..core.settings import SolverSettings
from ..runtime.seeding import hash_normal

__all__ = ["TrainingSet", "REGIMES", "sample_regime", "sample_solver_states",
           "build_training_set"]

#: regimes :func:`sample_regime` knows how to build
REGIMES = ("tgv", "hotspot", "rocket")

#: stiffness-bin upper bounds of :meth:`TrainingSet.coverage`: the
#: direct backend's frozen threshold, then decades of active stiffness
_COVERAGE_EDGES = (DirectBatchBackend.Z_FROZEN, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
                   500.0)


@dataclass
class TrainingSet:
    """One batch of supervised ``(state -> dY)`` pairs.

    Attributes
    ----------
    t, p, y:
        Input states: temperatures ``(n,)``, pressures ``(n,)`` and
        mass fractions ``(n, ns)``.
    delta_y:
        Direct-backend mass-fraction increments over ``dt``.
    dt:
        The chemistry step the labels were integrated over.
    z:
        Per-sample stiffness indicator (coverage metadata).
    regime:
        Per-sample regime label (one of :data:`REGIMES`).
    """

    t: np.ndarray
    p: np.ndarray
    y: np.ndarray
    delta_y: np.ndarray
    dt: float
    z: np.ndarray
    regime: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of (state, label) pairs in the set."""
        return int(self.t.shape[0])

    def subset(self, idx: np.ndarray) -> "TrainingSet":
        """The sub-set at integer/boolean index ``idx``."""
        return TrainingSet(self.t[idx], self.p[idx], self.y[idx],
                           self.delta_y[idx], self.dt, self.z[idx],
                           self.regime[idx])

    def merge(self, other: "TrainingSet") -> "TrainingSet":
        """Concatenation with ``other`` (same ``dt`` required)."""
        if other.dt != self.dt:
            raise ValueError(
                f"cannot merge training sets with dt {self.dt} and {other.dt}")
        return TrainingSet(
            np.concatenate([self.t, other.t]),
            np.concatenate([self.p, other.p]),
            np.vstack([self.y, other.y]),
            np.vstack([self.delta_y, other.delta_y]),
            self.dt,
            np.concatenate([self.z, other.z]),
            np.concatenate([self.regime, other.regime]),
        )

    def split(self, holdout_fraction: float, seed: int = 0
              ) -> tuple["TrainingSet", "TrainingSet"]:
        """Deterministic ``(train, holdout)`` split."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n_samples)
        n_hold = int(self.n_samples * holdout_fraction)
        return self.subset(perm[n_hold:]), self.subset(perm[:n_hold])

    # -- stiffness grading --------------------------------------------
    def _bin_index(self) -> np.ndarray:
        """Per-sample coverage-bin index (0 = frozen, last = stiffest)."""
        return np.searchsorted(np.asarray(_COVERAGE_EDGES), self.z,
                               side="right")

    def coverage(self) -> dict[str, int]:
        """Sample counts per stiffness bin.

        Keys are ``"z<1e-05"``-style upper bounds (the frozen threshold
        of :class:`DirectBatchBackend`, then decades of active
        stiffness) plus ``"bdf"`` for the tail beyond the last bound.
        """
        labels = [f"z<{e:g}" for e in _COVERAGE_EDGES] + ["bdf"]
        bins = self._bin_index()
        return {lab: int((bins == i).sum()) for i, lab in enumerate(labels)}

    def thin(self, max_per_bin: int, seed: int = 0) -> "TrainingSet":
        """Cap every stiffness bin at ``max_per_bin`` samples.

        Deterministic stratified thinning: the (huge) frozen bin is
        subsampled while the stiff tail is kept intact, so smaller
        training sets keep their stiffness-graded coverage.
        """
        rng = np.random.default_rng(seed)
        bins = self._bin_index()
        keep: list[np.ndarray] = []
        for b in np.unique(bins):
            idx = np.flatnonzero(bins == b)
            if idx.size > max_per_bin:
                idx = np.sort(rng.choice(idx, size=max_per_bin,
                                         replace=False))
            keep.append(idx)
        return self.subset(np.sort(np.concatenate(keep)))


def _build_case(regime: str, mech, n: int, case_kwargs: dict | None):
    """The named regime's case object."""
    kwargs = dict(case_kwargs or {})
    if regime == "tgv":
        return cases.build_tgv_case(n=n, mech=mech, **kwargs)
    elif regime == "hotspot":
        return cases.build_hotspot_tgv_case(n=n, mech=mech, **kwargs)
    elif regime == "rocket":
        # the sector mesh needs its default axial resolution to stay
        # well-formed; n only scales the azimuthal direction
        kwargs.setdefault("ntheta_per_sector", max(4, n - 4))
        return cases.build_rocket_case(mech=mech, **kwargs)
    raise ValueError(f"unknown regime {regime!r}; use one of {REGIMES}")


def _solver_run_states(case, dt: float, steps: int, chemistry=None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-step ``(T, p, Y)`` batches from a real solver run.

    Advances the case through a :class:`DeepFlameSolver` with the
    given chemistry adapter (default: the direct backend) in the loop
    and collects the state after each step -- exactly the batches the
    hybrid backend sees at runtime, including the per-cell pressure
    drift that chemistry-only trajectories (constant ``p``) cannot
    produce.
    """
    solver = DeepFlameSolver(case, SolverSettings(chemistry="direct"),
                             chemistry=chemistry)
    ts, ps, ys = [], [], []
    for _ in range(steps):
        # strongly transient cases (the hotspot's initial acoustic
        # wave) eventually blow the explicit pressure transient up;
        # keep only the physically sane prefix of the run
        try:
            solver.step(dt)
        except (FloatingPointError, np.linalg.LinAlgError):
            break
        t_s = solver.props.temperature.copy()
        p_s = solver.p.values.copy()
        y_s = solver.y.copy()
        healthy = (np.isfinite(t_s).all() and np.isfinite(p_s).all()
                   and np.isfinite(y_s).all()
                   and (t_s > 0).all() and (p_s > 0).all())
        if not healthy:
            break
        ts.append(t_s)
        ps.append(p_s)
        ys.append(y_s)
    if not ts:
        raise RuntimeError(
            "solver run produced no physically sane states to sample")
    return np.concatenate(ts), np.concatenate(ps), np.vstack(ys)


def sample_solver_states(
    mech,
    regime: str = "hotspot",
    dt: float = 1e-8,
    steps: int = 4,
    n: int = 12,
    chemistry=None,
    backend: DirectBatchBackend | None = None,
    case_kwargs: dict | None = None,
) -> TrainingSet:
    """Label the states a real solver run visits (closed-loop sampling).

    With ``chemistry`` left as the default direct adapter this covers
    the transport-coupled manifold; passing a *trained hybrid* adapter
    instead collects the states the surrogate itself steers the solver
    into -- the drifted manifold a deployed net must stay accurate on
    -- so its prediction errors can be trained away before they
    compound (the closing round of the surrogate training loop).
    Labels always come from the direct backend.
    """
    backend = backend or DirectBatchBackend(mech)
    case = _build_case(regime, mech, n, case_kwargs)
    t_in, p_in, y_in = _solver_run_states(case, dt, steps,
                                          chemistry=chemistry)
    z = backend.stiffness_indicator(y_in, t_in, p_in, dt)
    y_adv, _, _ = backend.advance(y_in, t_in, p_in, dt)
    return TrainingSet(
        t=t_in, p=p_in, y=y_in, delta_y=y_adv - y_in, dt=float(dt), z=z,
        regime=np.full(t_in.shape[0], regime, dtype=object),
    )


def sample_regime(
    mech,
    regime: str = "hotspot",
    dt: float = 1e-8,
    seed: int = 0,
    n: int = 12,
    trajectory_steps: int = 5,
    transport_steps: int = 0,
    jitter_copies: int = 1,
    jitter_t: float = 0.005,
    jitter_y: float = 0.005,
    jitter_p: float = 0.005,
    backend: DirectBatchBackend | None = None,
    case_kwargs: dict | None = None,
) -> TrainingSet:
    """Sample one regime into a labelled :class:`TrainingSet`.

    Builds the regime's case, integrates its states forward through
    the direct backend for ``trajectory_steps`` chemistry steps
    (collecting every intermediate state), optionally collects
    ``transport_steps`` batches from a real solver run with direct
    chemistry in the loop (per-cell pressure variation included), adds
    ``jitter_copies`` multiplicative-jitter replicas of the collected
    states, and labels everything with one direct-backend ``advance``
    over ``dt``.

    Deterministic given ``seed``: the jitter replicas are stateless
    hashes of ``(seed, copy, element id)``
    (:mod:`repro.runtime.seeding`), so they are invariant under any
    chunking of the collection; ``case_kwargs`` go to the regime's
    case builder (e.g. ``{"t_hot": 2000.0}`` for a hotter blob).
    """
    backend = backend or DirectBatchBackend(mech)
    case = _build_case(regime, mech, n, case_kwargs)
    t0 = case.temperature.copy()
    y0 = case.mass_fractions.copy()
    p = float(case.pressure.values[0])

    ts, ys = [], []
    tc, yc = t0, y0
    for _ in range(trajectory_steps + 1):
        ts.append(tc.copy())
        ys.append(yc.copy())
        yc, tc, _ = backend.advance(yc, tc, p, dt)
    t_all = np.concatenate(ts)
    y_all = np.vstack(ys)
    p_all = np.full(t_all.shape, p)
    if transport_steps > 0:
        t_tr, p_tr, y_tr = _solver_run_states(case, dt,
                                              transport_steps)
        t_all = np.concatenate([t_all, t_tr])
        p_all = np.concatenate([p_all, p_tr])
        y_all = np.vstack([y_all, y_tr])

    # jitter is keyed by (seed, copy stream, element id) -- stateless
    # hashes, not draw order -- so the replicas are identical no matter
    # how the collection is chunked or parallelized
    m = t_all.shape[0]
    row_ids = np.arange(m, dtype=np.int64)
    elem_ids = np.arange(y_all.size, dtype=np.int64).reshape(y_all.shape)
    t_parts, p_parts, y_parts = [t_all], [p_all], [y_all]
    for c in range(jitter_copies):
        jt = t_all * (1.0 + jitter_t * hash_normal(seed, 3 * c, row_ids))
        jp = p_all * (1.0 + jitter_p * hash_normal(seed, 3 * c + 1,
                                                   row_ids))
        jy = np.clip(
            y_all * (1.0 + jitter_y * hash_normal(seed, 3 * c + 2,
                                                  elem_ids)),
            0.0, None)
        jy /= jy.sum(axis=1, keepdims=True)
        t_parts.append(jt)
        p_parts.append(jp)
        y_parts.append(jy)
    t_in = np.concatenate(t_parts)
    y_in = np.vstack(y_parts)

    p_in = np.concatenate(p_parts)
    z = backend.stiffness_indicator(y_in, t_in, p_in, dt)
    y_adv, _, _ = backend.advance(y_in, t_in, p_in, dt)
    return TrainingSet(
        t=t_in, p=p_in, y=y_in, delta_y=y_adv - y_in, dt=float(dt), z=z,
        regime=np.full(t_in.shape[0], regime, dtype=object),
    )


def build_training_set(
    mech,
    regimes: tuple[str, ...] = ("hotspot",),
    dt: float = 1e-8,
    seed: int = 0,
    max_per_bin: int | None = None,
    **regime_kwargs,
) -> TrainingSet:
    """Merged training set over several regimes (tentpole entry point).

    One shared direct backend labels all regimes; per-regime seeds are
    derived from ``seed`` so the set is deterministic regardless of
    regime order.  ``max_per_bin`` applies stiffness-graded thinning
    (:meth:`TrainingSet.thin`) to the merged set.
    """
    backend = DirectBatchBackend(mech)
    parts = [
        sample_regime(mech, regime=r, dt=dt, seed=seed + 1000 * i,
                      backend=backend, **regime_kwargs)
        for i, r in enumerate(regimes)
    ]
    out = parts[0]
    for part in parts[1:]:
        out = out.merge(part)
    if max_per_bin is not None:
        out = out.thin(max_per_bin, seed=seed)
    return out
