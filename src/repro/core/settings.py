"""Unified solver configuration: the :class:`SolverSettings` object.

:class:`SolverSettings` is the whole configuration surface of one
solver run (chemistry backend, corrector counts, two
:class:`~repro.solvers.controls.SolverControls`, rank count,
partition seed, ...) as one typed, validated, serializable
value object, so that

* a solver is constructed from one argument
  (``DeepFlameSolver(case, settings)`` /
  ``DecomposedSolver(case, settings)`` / :func:`build_solver`, which
  picks between the two from ``settings.ranks``),
* configurations compose: :meth:`SolverSettings.overlay` produces a
  derived settings object, which is what parameter sweeps, UQ
  ensembles and per-instance overrides in
  :mod:`repro.orchestrate` are built from (cf. muscle3's settings
  manager), and
* configurations round-trip through plain dicts
  (:meth:`SolverSettings.to_dict` / :meth:`SolverSettings.from_dict`)
  for files, CLIs and wire formats.

Resolution precedence is
``defaults < base settings < per-instance overlay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from ..chemistry.backends import (
    DirectBatchBackend,
    HybridBackend,
    PerCellBDFBackend,
    SurrogateBackend,
)
from ..solvers.blocked import KRYLOV_VARIANTS
from ..solvers.controls import SolverControls
from .chemistry_source import NoChemistry

__all__ = [
    "SolverSettings",
    "CHEMISTRY_MODES",
    "KRYLOV_VARIANTS",
    "TRUST_GATE_MODES",
    "EXECUTION_MODES",
    "build_chemistry",
    "build_solver",
]

#: accepted ``SolverSettings.chemistry`` values; ``"hybrid-trained"``
#: loads a registered surrogate artifact and trust-gates the split
CHEMISTRY_MODES = ("none", "percell", "direct", "surrogate", "hybrid",
                   "hybrid-trained")
#: accepted ``SolverSettings.trust_gate`` values (canonical enforcement
#: lives in :class:`repro.chemistry.backends.HybridBackend`)
TRUST_GATE_MODES = ("off", "domain", "domain+audit")
#: accepted ``SolverSettings.execution`` values: ``"serial"`` executes
#: decomposed ranks rank-by-rank in the driver process over
#: :class:`~repro.runtime.comm.SimulatedComm`; ``"parallel"`` runs one
#: worker process per rank over the shared-memory fabric
EXECUTION_MODES = ("serial", "parallel")


def _default_scalar_controls() -> SolverControls:
    return SolverControls(tolerance=1e-9, rel_tol=1e-4, max_iterations=300)


def _default_pressure_controls() -> SolverControls:
    return SolverControls(tolerance=1e-9, rel_tol=1e-4, max_iterations=500)


@dataclass(frozen=True)
class SolverSettings:
    """Everything that configures one solver instance.

    A frozen value object: derive variants with :meth:`overlay`
    (never mutate).  The two :class:`SolverControls` fields use
    per-instance ``default_factory`` construction: no two settings
    objects share a mutable default.

    Parameters
    ----------
    chemistry:
        Chemistry backend choice (one of :data:`CHEMISTRY_MODES`).
        ``"surrogate"``/``"hybrid"`` need a trained net supplied via
        ``chemistry_options["odenet"]``; ``"hybrid-trained"`` loads a
        registered artifact instead (``chemistry_options["model"]``
        names it, default ``"tgv-hotspot"``) and applies the
        :attr:`trust_gate` (see :func:`build_chemistry`).
    chemistry_options:
        Extra keyword arguments for the backend constructor
        (e.g. ``rtol``/``atol`` of ``"percell"``, ``t_window``,
        ``audit_fraction``).
    trust_gate:
        Per-cell trust-gate mode of the ``"hybrid-trained"`` backend
        (one of :data:`TRUST_GATE_MODES`): domain check of each cell
        against the artifact's trained manifold, optionally plus
        direct-backend spot audits.  Other chemistry modes ignore it.
    n_correctors:
        PISO pressure corrector count.
    solve_momentum:
        Solve the momentum + pressure system each step.
    scalar_controls, pressure_controls:
        Krylov convergence criteria for the scalar/blocked and
        pressure solves.
    ranks:
        ``0``/``1`` -> serial :class:`~repro.core.DeepFlameSolver`;
        ``>= 2`` -> domain-decomposed
        :class:`~repro.dist.DecomposedSolver` over that many ranks.
    partition_seed:
        Seed of the multilevel graph partitioner (decomposed path).
    krylov_variant:
        Krylov dispatch, serial and decomposed (one of
        :data:`repro.solvers.blocked.KRYLOV_VARIANTS`):
        ``"synchronous"`` runs the blocked solvers with one allreduce
        per reduction; ``"overlapped"`` the communication-avoiding
        variants (pipelined PCG for pressure, fused-reduction
        PBiCGStab for the scalar blocks); a decomposed solver under
        ``"overlapped"`` also posts the ghost refresh of every
        distributed matvec nonblocking and computes the interior rows
        while it is in flight.
    execution:
        Decomposed-path execution mode (one of
        :data:`EXECUTION_MODES`).  ``"serial"`` (default) advances
        ranks rank-by-rank in the driver process over the simulated
        fabric -- bitwise and allocation-identical to the historical
        behaviour; ``"parallel"`` forks one worker process per rank
        and runs the identical SPMD step over the shared-memory fabric
        (:mod:`repro.runtime.shm`) on real cores; it requires
        ``ranks >= 2``.  ``"parallel"`` is the one way chemistry uses
        more than one core: each rank advances the cells it owns.
    """

    chemistry: str = "none"
    chemistry_options: dict = field(default_factory=dict)
    trust_gate: str = "domain+audit"
    n_correctors: int = 2
    solve_momentum: bool = True
    scalar_controls: SolverControls = field(
        default_factory=_default_scalar_controls)
    pressure_controls: SolverControls = field(
        default_factory=_default_pressure_controls)
    ranks: int = 0
    partition_seed: int = 0
    krylov_variant: str = "synchronous"
    execution: str = "serial"

    def __post_init__(self):
        # Accept plain dicts for the controls (the from_dict/CLI path).
        for name in ("scalar_controls", "pressure_controls"):
            val = getattr(self, name)
            if isinstance(val, dict):
                object.__setattr__(self, name, SolverControls(**val))
        self.validate()

    # -- validation ----------------------------------------------------
    def validate(self) -> "SolverSettings":
        """Raise ``ValueError``/``TypeError`` on any invalid field."""
        _check_choice("chemistry", self.chemistry, CHEMISTRY_MODES)
        _check_choice("trust_gate", self.trust_gate, TRUST_GATE_MODES)
        _check_choice("krylov_variant", self.krylov_variant,
                      KRYLOV_VARIANTS)
        _check_choice("execution", self.execution, EXECUTION_MODES)
        _check_int("ranks", self.ranks, 0)
        _check_int("n_correctors", self.n_correctors, 1)
        _check_int("partition_seed", self.partition_seed)
        if self.execution == "parallel" and self.ranks < 2:
            raise ValueError(f"execution='parallel' requires ranks >= 2 "
                             f"(got ranks={self.ranks})")
        if not isinstance(self.solve_momentum, bool):
            raise ValueError(f"solve_momentum must be True or False "
                             f"(got {self.solve_momentum!r})")
        for name in ("scalar_controls", "pressure_controls"):
            if not isinstance(getattr(self, name), SolverControls):
                raise TypeError(f"{name} must be a SolverControls "
                                f"(got {getattr(self, name)!r})")
        if not isinstance(self.chemistry_options, dict):
            raise TypeError("chemistry_options must be a dict")
        return self

    @property
    def is_decomposed(self) -> bool:
        """True when these settings describe a multi-rank run."""
        return self.ranks >= 2

    # -- derivation ----------------------------------------------------
    def overlay(self, **overrides) -> "SolverSettings":
        """A new settings object with ``overrides`` applied.

        Keys are field names; dotted paths reach into the nested
        controls (``overlay(**{"scalar_controls.tolerance": 1e-12})``).
        Unknown keys raise ``KeyError`` -- silently ignored overrides
        are how ensemble sweeps go wrong.
        """
        if not overrides:
            return self
        flat: dict = {}
        nested: dict[str, dict] = {}
        names = {f.name for f in fields(self)}
        for key, value in overrides.items():
            head, _, rest = key.partition(".")
            if head not in names:
                raise KeyError(
                    f"unknown SolverSettings field {head!r} "
                    f"(from override {key!r})")
            if rest:
                nested.setdefault(head, {})[rest] = value
            else:
                flat[key] = value
        for head, sub in nested.items():
            if head in flat:
                raise KeyError(
                    f"override {head!r} given both whole and dotted")
            target = getattr(self, head)
            if isinstance(target, SolverControls):
                control_names = {f.name for f in fields(target)}
                for sub_key in sub:
                    if sub_key not in control_names:
                        raise KeyError(
                            f"unknown {head} field {sub_key!r} "
                            f"(from override {head}.{sub_key!r})")
                flat[head] = replace(target, **sub)
            elif isinstance(target, dict):
                merged = dict(target)
                merged.update(sub)
                flat[head] = merged
            else:
                raise KeyError(f"field {head!r} does not support dotted "
                               f"overrides")
        return replace(self, **flat)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """A plain-dict form that :meth:`from_dict` round-trips.

        Controls become nested dicts; option dicts are copied down
        through their nested ``dict``/``list`` containers, so editing
        the output never reaches this object.  Non-container option
        values (a trained ``odenet`` object, say) are carried through
        by reference.
        """
        out: dict = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, SolverControls):
                val = {"tolerance": val.tolerance, "rel_tol": val.rel_tol,
                       "max_iterations": val.max_iterations}
            elif isinstance(val, dict):
                val = _plain_copy(val)
            out[f.name] = val
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SolverSettings":
        """Build (and validate) settings from :meth:`to_dict` output."""
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise KeyError(
                f"unknown SolverSettings fields {sorted(unknown)!r}")
        return cls(**data)


def _check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; use one of {choices}")


def _check_int(name: str, value, minimum: int | None = None) -> None:
    """An ``int`` that is not a ``bool``, optionally bounded below."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an int{bound} (got {value!r})")


def _plain_copy(value):
    """Copy nested plain ``dict``/``list`` containers; anything else
    (a trained net, an engine) is carried by reference."""
    if isinstance(value, dict):
        return {k: _plain_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain_copy(v) for v in value]
    return value


# ----------------------------------------------------------------------
#: ``chemistry_options`` keys of the hybrid modes that configure the
#: :class:`~repro.chemistry.backends.HybridBackend` split itself; every
#: other key goes to its :class:`~repro.chemistry.backends.DirectBatchBackend`
_HYBRID_KEYS = ("t_window", "z_max", "trust_gate", "audit_fraction",
                "audit_tol", "audit_seed", "ood_capacity")


def build_chemistry(settings: SolverSettings, mech):
    """The chemistry a :class:`SolverSettings` describes: a raw
    :class:`~repro.chemistry.backends.ChemistryBackend`
    (:class:`~repro.core.NoChemistry` for ``"none"``), which the
    solver wraps in its own stats-holding
    :class:`~repro.core.BackendChemistry`.

    ``"none"``/``"percell"``/``"direct"`` need only the mechanism;
    ``"surrogate"``/``"hybrid"`` additionally require a trained
    :class:`~repro.dnn.ODENet` under ``chemistry_options["odenet"]``
    (nets are trained artifacts, not configuration -- see
    ``examples/train_surrogates.py``).  ``"hybrid-trained"`` instead
    loads a versioned artifact from the model registry --
    ``chemistry_options`` may name the ``model`` (default
    ``"tgv-hotspot"``), a ``model_version`` and a ``registry`` root --
    wires up the optimized fp32 fused-GeLU inference engine and
    applies ``settings.trust_gate`` (see
    ``examples/train_hybrid_model.py`` for producing artifacts).
    """
    opts = dict(settings.chemistry_options)
    kind = settings.chemistry
    if kind == "none":
        return NoChemistry()
    if kind == "percell":
        return PerCellBDFBackend(mech, **opts)
    if kind == "direct":
        return DirectBatchBackend(mech, **opts)
    odenet = opts.pop("odenet", None)
    if kind == "hybrid-trained":
        if odenet is None:
            from ..dnn import ModelRegistry

            registry = (ModelRegistry(opts.pop("registry"))
                        if "registry" in opts
                        else ModelRegistry.default())
            odenet = registry.load(opts.pop("model", "tgv-hotspot"),
                                   mech, opts.pop("model_version", None))
        if "engine" not in opts:
            # fused beats the paper's table on hosts with vectorized
            # transcendentals (the table targets machines without
            # them) and adds zero approximation error
            opts["engine"] = odenet.make_engine(precision="fp32",
                                                gelu="fused")
        # the domain gate replaces the coarse temperature proxy:
        # keep the window wide open unless the caller narrows it
        opts.setdefault("t_window", (0.0, 1e9))
        opts.setdefault("trust_gate", settings.trust_gate)
    elif odenet is None:
        raise ValueError(
            f"chemistry={kind!r} needs a trained net in "
            f"chemistry_options['odenet']")
    if kind == "surrogate":
        return SurrogateBackend(odenet, **opts)
    split = {k: opts.pop(k) for k in _HYBRID_KEYS if k in opts}
    return HybridBackend(
        SurrogateBackend(odenet, engine=opts.pop("engine", None)),
        DirectBatchBackend(mech, **opts), **split)


def build_solver(case, settings: SolverSettings, properties=None,
                 chemistry=None, comm=None, workspace=None):
    """Construct the solver a :class:`SolverSettings` describes.

    Dispatches on ``settings.ranks``: serial
    :class:`~repro.core.DeepFlameSolver` below 2, decomposed
    :class:`~repro.dist.DecomposedSolver` otherwise.  ``chemistry``
    overrides the settings' backend spec when given; ``workspace``
    (serial only) lets ensemble instances share one
    :class:`~repro.fv.workspace.EquationWorkspace`; ``comm``
    (decomposed only) supplies the rank fabric.
    """
    if settings.is_decomposed:
        from ..dist.solver import DecomposedSolver

        if workspace is not None:
            raise ValueError(
                "workspace sharing applies to serial solvers only")
        return DecomposedSolver(case, settings, comm=comm,
                                properties=properties, chemistry=chemistry)
    from .deepflame import DeepFlameSolver

    if comm is not None:
        raise ValueError("comm applies to decomposed solvers only")
    return DeepFlameSolver(case, settings, properties=properties,
                           chemistry=chemistry, workspace=workspace)
