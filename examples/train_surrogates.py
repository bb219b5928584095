"""Train the two surrogates (ODENet + PRNet) from scratch and verify
their accuracy against the direct paths -- the full DeepFlame model
pipeline at laptop scale.

* ODENet: trained on constant-pressure reactor trajectories of the
  built-in 17-species LOX/CH4 mechanism (the role Cantera plays in the
  paper),
* PRNet: trained on Peng-Robinson property evaluations over the flame
  manifold.

Run:  python examples/train_surrogates.py
"""

import numpy as np

from repro.chemistry.mechanism import load_mechanism
from repro.chemistry.reactor import ConstantPressureReactor, premixed_state
from repro.dnn.odenet import ODENet
from repro.dnn.prnet import PRNet
from repro.thermo.real_fluid import RealFluidMixture


def train_odenet(mech):
    print("== ODENet ==")
    reactor = ConstantPressureReactor(mech, rtol=1e-7, atol=1e-10)
    states = [premixed_state(mech, t0, 10e6) for t0 in (1400.0, 1600.0)]
    print("  sampling reactor trajectories (stiff BDF integration)...")
    xs, ys = reactor.sample_training_pairs(states, dt_cfd=1e-7,
                                           n_snapshots=60, horizon=5e-5)
    print(f"  {xs.shape[0]} training pairs")
    net = ODENet(mech, hidden=(64, 64), seed=0)
    hist = net.fit(xs[:, 0], xs[:, 1], xs[:, 2:], ys, dt=1e-7,
                   epochs=250, lr=3e-3)
    print(f"  training loss {hist.train_loss[0]:.3e} -> "
          f"{hist.train_loss[-1]:.3e} (val {hist.final_val:.3e})")

    pred = net.predict_delta_y(xs[:, 0], xs[:, 1], xs[:, 2:], 1e-7)
    ss_res = ((pred - ys) ** 2).sum()
    ss_tot = ((ys - ys.mean(axis=0)) ** 2).sum()
    print(f"  R^2 on training manifold: {1 - ss_res/ss_tot:.4f}")

    eng16 = net.make_engine(precision="fp16", gelu="table")
    pred16 = net.predict_delta_y(xs[:, 0], xs[:, 1], xs[:, 2:], 1e-7,
                                 engine=eng16)
    scale = np.abs(pred).max()
    print(f"  mixed-FP16 vs fp64 max deviation: "
          f"{np.abs(pred16 - pred).max()/scale:.2%} of range")
    return net


def train_prnet(mech):
    print("\n== PRNet ==")
    rf = RealFluidMixture(mech)
    net = PRNet(mech, density_hidden=(64, 32), transport_hidden=(64, 32))
    print("  sampling the Peng-Robinson property manifold...")
    h1, h2 = net.fit_from_manifold(rf, 10e6, epochs=300)
    print(f"  density net loss  {h1.train_loss[0]:.3e} -> "
          f"{h1.train_loss[-1]:.3e}")
    print(f"  transport net loss {h2.train_loss[0]:.3e} -> "
          f"{h2.train_loss[-1]:.3e}")

    # spot check: LOX at 180 K, 10 MPa
    y = np.zeros((1, mech.n_species))
    y[0, mech.species_index["O2"]] = 1.0
    h = rf.h_mass(np.array([180.0]), 10e6, y)
    rho_net, t_net, mu_net, alpha_net, cp_net = net.predict(h, 10e6, y)
    props = rf.properties_tp(np.array([180.0]), 10e6, y)
    print(f"  LOX @ 180 K: rho {rho_net[0]:.1f} (direct {props.rho[0]:.1f}) "
          f"kg/m^3, T {t_net[0]:.1f} K, cp {cp_net[0]:.0f} "
          f"(direct {props.cp_mass[0]:.0f}) J/kg/K")
    return net


def main() -> None:
    mech = load_mechanism()
    print(f"mechanism: {mech.name} ({mech.n_species} species / "
          f"{mech.n_reactions} reactions)\n")
    train_odenet(mech)
    train_prnet(mech)
    print("\nDone. Larger (paper-size) architectures: "
          "ODENet.paper_architecture(mech), PRNet.paper_architecture(mech).")


if __name__ == "__main__":
    main()
