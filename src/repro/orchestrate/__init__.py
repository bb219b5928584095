"""Ensemble orchestration: N solver instances in one process.

The layer above :mod:`repro.dist`: where the decomposed driver splits
*one* simulation across ranks, an :class:`Ensemble` runs *many*
configured simulations -- parameter sweeps, UQ ensembles, macro/micro
coupled models exchanging state through ports -- in lockstep inside a
single process, muscle3-style.  Per-instance configuration resolves
through :class:`SettingsManager` overlays on one base
:class:`~repro.core.settings.SolverSettings`; same-case instances
share mesh, mechanism, property evaluator and equation workspace
(:class:`SharedResources`); all coupling traffic flows through a
ledgered fabric and lands, with step timings and chemistry work, in
the :class:`EnsembleCostReport`.
"""

__all__ = []
