"""Case builders: the supercritical TGV benchmark and the rocket sector.

The TGV follows the paper's Sec. 4.1 setup: cubic domain of edge
2 pi L (L = 0.48 mm), triply periodic, p = 10 MPa, O2 at 150 K / CH4 at
300 K separated by a smooth interface, Taylor-Green initial velocity
with u0 = 4 m/s, 17-species LOX/CH4 chemistry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..chemistry.mechanism import Mechanism, load_mechanism
from ..fv.boundary import FixedValue, ZeroGradient
from ..fv.fields import VolField
from ..mesh.rocket import build_rocket_mesh
from ..mesh.structured import build_box_mesh
from ..mesh.unstructured import UnstructuredMesh

__all__ = ["Case", "build_tgv_case", "build_hotspot_tgv_case",
           "build_rocket_case"]


@dataclass
class Case:
    """A ready-to-run flow case."""

    name: str
    mesh: UnstructuredMesh
    mech: Mechanism
    velocity: VolField
    pressure: VolField
    mass_fractions: np.ndarray  # (n_cells, ns)
    temperature: np.ndarray
    y_boundary: dict  # patch -> BC factory for species fields
    t_boundary: dict


def build_tgv_case(
    n: int = 16,
    length_l: float = 0.48e-3,
    pressure: float = 10e6,
    t_ox: float = 150.0,
    t_fuel: float = 300.0,
    u0: float = 4.0,
    interface_width: float = 0.1,
    mech: Mechanism | None = None,
) -> Case:
    """Supercritical reactive Taylor-Green vortex (Sec. 4.1)."""
    mech = mech or load_mechanism()
    side = 2.0 * np.pi * length_l
    mesh = build_box_mesh(n, n, n, lengths=(side, side, side),
                          periodic=(True, True, True))
    c = mesh.cell_centres
    x, y, z = c[:, 0] / length_l, c[:, 1] / length_l, c[:, 2] / length_l

    u = np.zeros((mesh.n_cells, 3))
    u[:, 0] = u0 * np.sin(x) * np.cos(y) * np.cos(z)
    u[:, 1] = -u0 * np.cos(x) * np.sin(y) * np.cos(z)

    # Fuel/oxidizer split: CH4 slab in the middle third of z, smooth
    # tanh interfaces (diffusion-flame configuration).
    zn = z / (2.0 * np.pi)  # 0..1
    mix = 0.5 * (np.tanh((zn - 1.0 / 3.0) / interface_width)
                 - np.tanh((zn - 2.0 / 3.0) / interface_width))
    mix = np.clip(mix, 0.0, 1.0)  # 1 = fuel
    yfr = np.zeros((mesh.n_cells, mech.n_species))
    yfr[:, mech.species_index["CH4"]] = mix
    yfr[:, mech.species_index["O2"]] = 1.0 - mix
    temp = t_ox + (t_fuel - t_ox) * mix

    vel = VolField("U", mesh, u)
    p = VolField("p", mesh, np.full(mesh.n_cells, pressure))
    return Case("tgv", mesh, mech, vel, p, yfr, temp, {}, {})


def build_hotspot_tgv_case(
    n: int = 16,
    t_hot: float = 1600.0,
    radius: float = 0.35,
    mech: Mechanism | None = None,
    **tgv_kwargs,
) -> Case:
    """TGV with an igniting hot blob near one corner.

    The stiffness-skewed chemistry workload (the ``hotspot_*``
    benchmarks, the imbalance tests): chemistry cost concentrates in
    the blob's cells (they take tens of RODAS3 steps while the cold
    bulk stays frozen), so a static domain decomposition cannot
    balance rank-level chemistry work.  ``radius`` is the blob size as
    a fraction of the normalized corner distance; remaining keywords
    go to :func:`build_tgv_case`.
    """
    case = build_tgv_case(n=n, mech=mech, **tgv_kwargs)
    c = case.mesh.cell_centres
    lo = c.min(axis=0)
    r = np.linalg.norm((c - lo) / (c.max(axis=0) - lo), axis=1)
    case.temperature[r < radius] = float(t_hot)
    return case


def build_rocket_case(
    n_sectors: int = 1,
    nr: int = 8,
    ntheta_per_sector: int = 10,
    nz: int = 24,
    pressure: float = 20e6,
    t_ox: float = 150.0,
    t_fuel: float = 300.0,
    inflow_velocity: float = 30.0,
    mech: Mechanism | None = None,
) -> Case:
    """Rocket-combustor sector at 20 MPa (Sec. 4.1 real-world case).

    Injector plate feeds alternating O2/CH4 by azimuthal position;
    chamber pre-filled with hot products to light the flame.
    """
    mech = mech or load_mechanism()
    mesh = build_rocket_mesh(nr=nr, ntheta_per_sector=ntheta_per_sector,
                             nz=nz, n_sectors=n_sectors)
    c = mesh.cell_centres
    theta = np.arctan2(c[:, 1], c[:, 0])
    zfrac = c[:, 2] / c[:, 2].max()

    # Alternating injector streams near the plate, hot core downstream.
    fuel_stream = (np.sin(theta * 127.0 / 16.0 * n_sectors) > 0).astype(float)
    near_plate = np.exp(-zfrac / 0.15)
    yfr = np.zeros((mesh.n_cells, mech.n_species))
    yfr[:, mech.species_index["CH4"]] = 0.25 * fuel_stream * near_plate
    yfr[:, mech.species_index["O2"]] = (1.0 - 0.25 * fuel_stream) * near_plate \
        + 0.2 * (1 - near_plate)
    yfr[:, mech.species_index["CO2"]] = 0.45 * (1.0 - near_plate)
    yfr[:, mech.species_index["H2O"]] = 0.35 * (1.0 - near_plate)
    yfr /= yfr.sum(axis=1, keepdims=True)
    temp = (t_ox + fuel_stream * (t_fuel - t_ox)) * near_plate \
        + 3200.0 * (1.0 - near_plate)

    u = np.zeros((mesh.n_cells, 3))
    u[:, 2] = inflow_velocity * (0.3 + 0.7 * zfrac)

    vel = VolField("U", mesh, u, boundary={
        "injector_plate": FixedValue(np.array([0.0, 0.0, inflow_velocity])),
        "outlet": ZeroGradient(),
    })
    p = VolField("p", mesh, np.full(mesh.n_cells, pressure), boundary={
        "outlet": FixedValue(pressure),
    })
    y_bc = {"injector_plate": "inflow", "outlet": "zerograd"}
    t_bc = {"injector_plate": "inflow", "outlet": "zerograd"}
    return Case(f"rocket_{n_sectors}sector", mesh, mech, vel, p, yfr, temp,
                y_bc, t_bc)
