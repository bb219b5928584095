"""Mechanism container: species + reactions + precomputed stoichiometry.

A :class:`Mechanism` is the static description of the chemistry; the
vectorized evaluation of production rates over many cells lives in
:mod:`repro.chemistry.kinetics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import P_REF, R_UNIVERSAL
from .rates import Reaction
from .species import Species

__all__ = ["Mechanism", "MixtureThermo", "load_mechanism", "present_species"]

#: rows of ``y`` OR-ed as one wide row by :func:`present_species`
_PRESENCE_ROWS = 64


def present_species(y: np.ndarray) -> np.ndarray:
    """Mask of the species (last axis of ``y``) that are non-zero (or
    NaN) in some row.

    ``y.any(axis=0)`` on an ``(n, 17)`` block pays numpy's inner-loop
    overhead once per 17-wide row (~0.2 ms at n = 8000); OR-ing groups
    of ``_PRESENCE_ROWS`` rows as one wide row first is ~6x cheaper.
    """
    ns = np.shape(y)[-1]
    y = np.reshape(y, (-1, ns))
    n = len(y) - len(y) % _PRESENCE_ROWS
    on = y[n:].any(axis=0)
    if n:
        wide = y[:n].reshape(-1, _PRESENCE_ROWS * ns) != 0
        on |= wide.any(axis=0).reshape(_PRESENCE_ROWS, ns).any(axis=0)
    return on


class MixtureThermo:
    """Ideal-gas ``cp(T)`` and ``h(T)`` per unit mass at one composition.

    Mixing is linear in the NASA-7 coefficients: with single-range
    polynomials the species sum is contracted **once** into six mixture
    coefficients per cell, and each later temperature (every sweep of a
    T(h) Newton) is an O(n) Horner pass, not ``(n, n_species)``
    temporaries.  Other thermo types keep the per-species sums.

    The contraction runs over the species present in some row of ``y``
    only.  An absent species adds an exact zero, and leaving it out
    changes no bit because the contraction is an un-optimised einsum
    whose species axis is strided: one fixed summation order per cell,
    from which a skipped term only drops out.  A BLAS product or a
    pairwise numpy reduction would re-associate with the species count.
    """

    def __init__(self, mech: "Mechanism", y: np.ndarray):
        self._mech, self._y = mech, y
        a = mech._thermo_coeffs
        if a is None:
            self._c = None
            return
        a = a[:, :6] * (R_UNIVERSAL / mech.molecular_weights)[:, None]
        on = present_species(y)
        if not on.all():
            y, a = y[..., on], a[on]
        # un-optimised einsum: one fixed loop over species per cell and
        # no (n, n_species) temporary.  A BLAS gemm picks its kernel by
        # batch size; a cell's coefficients must not depend on its batch.
        self._c = np.einsum("...j,jk->k...", y, a, optimize=False)

    def cp_mass(self, t: np.ndarray) -> np.ndarray:
        """Mixture specific heat [J/(kg K)] at temperature(s) ``t``."""
        c = self._c
        if c is None:
            return ((self._y / self._mech.molecular_weights)
                    * (self._mech.cp_r_all(t) * R_UNIVERSAL)).sum(axis=-1)
        return c[0] + t * (c[1] + t * (c[2] + t * (c[3] + t * c[4])))

    def h_mass(self, t: np.ndarray) -> np.ndarray:
        """Mixture specific enthalpy [J/kg] at temperature(s) ``t``."""
        c = self._c
        if c is None:
            return ((self._y / self._mech.molecular_weights) * (
                self._mech.h_rt_all(t) * R_UNIVERSAL
                * np.asarray(t)[..., None])).sum(axis=-1)
        return c[5] + t * (c[0] + t * (c[1] / 2.0 + t * (c[2] / 3.0 + t * (
            c[3] / 4.0 + t * c[4] / 5.0))))


@dataclass
class Mechanism:
    """An immutable chemical reaction mechanism.

    Precomputes the forward/reverse stoichiometric matrices, element
    matrix and third-body efficiency matrix used by the vectorized
    kinetics kernels.
    """

    species: list[Species]
    reactions: list[Reaction]
    name: str = "mechanism"

    def __post_init__(self) -> None:
        self.species_names = [s.name for s in self.species]
        self.species_index = {n: i for i, n in enumerate(self.species_names)}
        ns, nr = len(self.species), len(self.reactions)
        self.n_species = ns
        self.n_reactions = nr
        self.molecular_weights = np.array([s.molecular_weight for s in self.species])

        self.nu_forward = np.zeros((nr, ns))
        self.nu_reverse = np.zeros((nr, ns))
        for j, rxn in enumerate(self.reactions):
            for name, nu in rxn.reactants.items():
                self.nu_forward[j, self.species_index[name]] += nu
            for name, nu in rxn.products.items():
                self.nu_reverse[j, self.species_index[name]] += nu
        self.nu_net = self.nu_reverse - self.nu_forward

        # Third-body efficiency matrix: eff[j, i] applies to reactions
        # that use a third body (three-body or falloff); rows for other
        # reactions are zero and unused.
        self.efficiencies = np.zeros((nr, ns))
        for j, rxn in enumerate(self.reactions):
            if rxn.third_body or rxn.is_falloff:
                row = np.ones(ns)
                for name, eff in rxn.efficiencies.items():
                    row[self.species_index[name]] = eff
                self.efficiencies[j] = row

        elements = sorted({el for s in self.species for el in s.composition})
        self.elements = elements
        self.element_matrix = np.zeros((len(elements), ns))
        for i, sp in enumerate(self.species):
            for el, cnt in sp.composition.items():
                self.element_matrix[elements.index(el), i] = cnt

        self.reversible_mask = np.array([r.reversible for r in self.reactions])

        # Species-vectorized NASA-7 evaluation: when every species
        # carries a single-range polynomial (the built-in mechanisms
        # do), the whole-species-set thermo sweeps below run one
        # Horner pass on an (..., ns) block -- one log(T), no Python
        # loop over species -- instead of stacking 17 per-species
        # evaluations.  Agrees with the per-species path to ULP-level
        # rounding; mechanisms with other thermo types fall back.
        try:
            self._thermo_coeffs = np.array(
                [list(s.thermo.coeffs) for s in self.species], dtype=float)
            if self._thermo_coeffs.shape != (ns, 7):
                self._thermo_coeffs = None
        except (AttributeError, TypeError, ValueError):
            self._thermo_coeffs = None
        self._validate()

    # ----------------------------------------------------------------
    def _validate(self) -> None:
        """Every reaction must conserve elements exactly."""
        imbalance = self.element_matrix @ self.nu_net.T
        bad = np.argwhere(np.abs(imbalance) > 1e-10)
        if bad.size:
            el, j = bad[0]
            raise ValueError(
                f"reaction {self.reactions[j].equation!r} does not conserve "
                f"element {self.elements[el]!r}"
            )

    # Thermo over the whole species set -------------------------------
    def cp_r_all(self, t: np.ndarray) -> np.ndarray:
        """cp/R for all species: shape ``t.shape + (n_species,)``."""
        t = np.asarray(t)
        a = self._thermo_coeffs
        if a is None:
            return np.stack([s.thermo.cp_r(t) for s in self.species],
                            axis=-1)
        tb = np.asarray(t, dtype=float)[..., None]
        return a[:, 0] + tb * (a[:, 1] + tb * (a[:, 2] + tb * (
            a[:, 3] + tb * a[:, 4])))

    def cp_r_dt_all(self, t: np.ndarray) -> np.ndarray:
        """d(cp/R)/dT for all species (analytic Jacobian support)."""
        t = np.asarray(t)
        a = self._thermo_coeffs
        if a is None:
            return np.stack([s.thermo.cp_r_dt(t) for s in self.species],
                            axis=-1)
        tb = np.asarray(t, dtype=float)[..., None]
        return a[:, 1] + tb * (2.0 * a[:, 2] + tb * (
            3.0 * a[:, 3] + tb * 4.0 * a[:, 4]))

    def h_rt_all(self, t: np.ndarray) -> np.ndarray:
        """h/(RT) for all species."""
        t = np.asarray(t)
        a = self._thermo_coeffs
        if a is None:
            return np.stack([s.thermo.h_rt(t) for s in self.species],
                            axis=-1)
        tb = np.asarray(t, dtype=float)[..., None]
        poly = a[:, 0] + tb * (a[:, 1] / 2.0 + tb * (a[:, 2] / 3.0 + tb * (
            a[:, 3] / 4.0 + tb * a[:, 4] / 5.0)))
        return poly + a[:, 5] / tb

    def s_r_all(self, t: np.ndarray) -> np.ndarray:
        """s/R for all species at the reference pressure."""
        t = np.asarray(t)
        a = self._thermo_coeffs
        if a is None:
            return np.stack([s.thermo.s_r(t) for s in self.species],
                            axis=-1)
        tb = np.asarray(t, dtype=float)[..., None]
        return (a[:, 0] * np.log(tb)
                + tb * (a[:, 1] + tb * (a[:, 2] / 2.0 + tb * (
                    a[:, 3] / 3.0 + tb * a[:, 4] / 4.0)))
                + a[:, 6])

    def g_rt_all(self, t: np.ndarray) -> np.ndarray:
        """g/(RT) for all species."""
        return self.h_rt_all(t) - self.s_r_all(t)

    # ----------------------------------------------------------------
    def equilibrium_constants(self, t: np.ndarray) -> np.ndarray:
        """Concentration equilibrium constants Kc for every reaction.

        ``Kc_j = (p_ref / (R T))^(sum nu_j) * exp(-sum_i nu_ij g_i/(RT))``

        Returns shape ``t.shape + (n_reactions,)`` in SI concentration
        units (mol/m^3 per net order).
        """
        t = np.asarray(t, dtype=float)
        g_rt = self.g_rt_all(t)  # (..., ns)
        delta_g = g_rt @ self.nu_net.T  # (..., nr)
        dn = self.nu_net.sum(axis=1)  # (nr,)
        c_ref = P_REF / (R_UNIVERSAL * t)
        # Clip to keep irreversible-in-practice reactions finite.
        return np.exp(np.clip(-delta_g, -300.0, 300.0)) * np.power(
            c_ref[..., None], dn
        )

    def mean_molecular_weight(self, y: np.ndarray) -> np.ndarray:
        """Mixture molecular weight [kg/mol] from mass fractions.

        ``y`` has shape ``(..., n_species)``.
        """
        return 1.0 / np.maximum((y / self.molecular_weights).sum(axis=-1), 1e-300)

    def mole_fractions(self, y: np.ndarray) -> np.ndarray:
        """Convert mass fractions to mole fractions."""
        w = self.mean_molecular_weight(y)
        return y * w[..., None] / self.molecular_weights

    def mass_fractions(self, x: np.ndarray) -> np.ndarray:
        """Convert mole fractions to mass fractions."""
        num = x * self.molecular_weights
        return num / np.maximum(num.sum(axis=-1, keepdims=True), 1e-300)

    def mixture_thermo(self, y: np.ndarray) -> MixtureThermo:
        """``cp(T)`` / ``h(T)`` at mass fractions ``y`` ``(..., n_species)``."""
        return MixtureThermo(self, y)

    def cp_mass_mixture(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Ideal-gas mixture specific heat [J/(kg K)]."""
        return self.mixture_thermo(y).cp_mass(np.asarray(t, dtype=float))

    def h_mass_mixture(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Ideal-gas mixture specific enthalpy [J/kg]."""
        return self.mixture_thermo(y).h_mass(np.asarray(t, dtype=float))

    def element_mass_fractions(self, y: np.ndarray) -> np.ndarray:
        """Element mass fractions Z_e from species mass fractions."""
        from ..constants import ATOMIC_WEIGHTS

        zw = np.array([ATOMIC_WEIGHTS[el] for el in self.elements])
        moles = y / self.molecular_weights  # (..., ns) mol/kg
        el_moles = moles @ self.element_matrix.T  # (..., ne)
        return el_moles * zw


def load_mechanism(name: str = "lox_ch4_17sp") -> Mechanism:
    """Load a built-in mechanism by name."""
    if name in ("lox_ch4_17sp", "lox_ch4_17sp_44rxn"):
        # the data module builds on this one, so it loads on first use
        from .data.lox_ch4_17sp import build_mechanism

        return build_mechanism()
    raise KeyError(f"unknown mechanism {name!r}")
