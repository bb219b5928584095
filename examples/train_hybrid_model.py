"""Train and register the trust-gated hybrid chemistry surrogate.

Closes the surrogate training loop end-to-end at laptop scale:

1. sample the target regime(s) with the stiffness-graded pipeline
   (``repro.dnn.dataset``) -- chemistry-only trajectories plus
   transport-coupled solver states (per-cell pressure drift included),
   labels from the direct backend, thinned per stiffness bin,
2. train an ODENet on the sampled manifold (``repro.dnn.training``)
   and save it as the base version,
3. **close the loop**: run the solver with the freshly trained hybrid
   in the chemistry loop, collect the states the surrogate steers the
   flow into (its own prediction errors perturb trace species, so
   those states drift off the direct-sampled manifold), label them
   with the direct backend and fine-tune -- otherwise the drift
   compounds step over step and the deployed error is several times
   the training error,
4. evaluate max |dY| error against the direct backend and save the
   fine-tuned net as a child version (registry lineage records the
   parent) into the versioned model registry
   (``repro.dnn.registry.ModelRegistry``).

The committed ``tgv-hotspot`` artifact under ``src/repro/dnn/models/``
was produced by this script with the default arguments; benches and
the quickstart's ``--chemistry hybrid-trained`` mode load its latest
version.

Run:  python examples/train_hybrid_model.py [--epochs 900] [--name tgv-hotspot]
"""

import argparse
import time

import numpy as np

from repro.chemistry.mechanism import load_mechanism
from repro.core.settings import SolverSettings, build_chemistry
from repro.dnn.dataset import build_training_set, sample_solver_states
from repro.dnn.odenet import ODENet
from repro.dnn.registry import ModelRegistry
from repro.dnn.training import train_mlp


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--name", default="tgv-hotspot",
                    help="registry model name (default: tgv-hotspot)")
    ap.add_argument("--regimes", default="hotspot",
                    help="comma-separated sampling regimes "
                         "(default: hotspot)")
    ap.add_argument("--hidden", default="64,64",
                    help="hidden layer sizes (default: 64,64)")
    ap.add_argument("--epochs", type=int, default=900)
    ap.add_argument("--dt", type=float, default=1e-8,
                    help="chemistry step the labels integrate over")
    ap.add_argument("--transport-steps", type=int, default=4,
                    help="solver-in-the-loop sampling steps "
                         "(default: 4)")
    ap.add_argument("--max-per-bin", type=int, default=4000,
                    help="stiffness-graded thinning cap per bin "
                         "(default: 4000; the frozen bin dominates "
                         "raw sampling)")
    ap.add_argument("--loop-steps", type=int, default=4,
                    help="closed-loop solver steps sampled with the "
                         "trained hybrid in the loop (default: 4, the "
                         "hotspot case's stable acoustic window; 0 "
                         "skips the closing round)")
    ap.add_argument("--loop-epochs", type=int, default=400,
                    help="fine-tune epochs of the closing round "
                         "(default: 400)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--registry", default=None,
                    help="registry root (default: the in-package "
                         "src/repro/dnn/models)")
    args = ap.parse_args()

    mech = load_mechanism()
    regimes = tuple(args.regimes.split(","))
    hidden = tuple(int(h) for h in args.hidden.split(","))

    print(f"Sampling regimes {regimes} at dt={args.dt:.0e} ...")
    t0 = time.perf_counter()
    full = build_training_set(mech, regimes=regimes, dt=args.dt,
                              seed=args.seed,
                              transport_steps=args.transport_steps,
                              max_per_bin=args.max_per_bin)
    print(f"  {full.n_samples} pairs in {time.perf_counter()-t0:.1f} s; "
          f"coverage {full.coverage()}")

    net = ODENet(mech, hidden=hidden, seed=args.seed)
    print(f"Training ODENet hidden={hidden} for {args.epochs} epochs ...")
    t0 = time.perf_counter()
    hist = net.fit(full.t, full.p, full.y, full.delta_y, dt=full.dt,
                   epochs=args.epochs, lr=3e-3, batch_size=128,
                   seed=args.seed)
    train_secs = time.perf_counter() - t0
    print(f"  {train_secs:.0f} s; loss {hist.train_loss[0]:.3e} -> "
          f"{hist.final_train:.3e} (val {hist.final_val:.3e})")

    def max_err(ts):
        pred = net.predict_delta_y(ts.t, ts.p, ts.y, ts.dt)
        return float(np.abs(pred - ts.delta_y).max())

    err = max_err(full)
    baseline = float(np.abs(full.delta_y).max())
    print(f"  max|dY error| {err:.2e}  (predict-zero baseline "
          f"{baseline:.2e})")

    registry = (ModelRegistry(args.registry) if args.registry
                else ModelRegistry.default())
    replay = full.thin(max_per_bin=300, seed=args.seed)
    base_info = {
        "regimes": list(regimes), "dt": full.dt,
        "epochs": args.epochs, "seed": args.seed,
        "transport_steps": args.transport_steps,
        "max_per_bin": args.max_per_bin,
        "n_samples": full.n_samples,
        "final_train_loss": hist.final_train,
        "final_val_loss": hist.final_val,
        "max_abs_dy_error": err,
        "train_seconds": round(train_secs, 1),
    }
    version = registry.save(net, args.name, train_info=base_info,
                            replay=replay)
    print(f"Saved {args.name}/{version} to {registry.root} "
          f"(replay subset: {replay.n_samples} pairs)")

    if args.loop_steps <= 0:
        return
    # -- closing round: sample the manifold the *trained* hybrid
    # steers the solver into, and train its errors away before they
    # can compound step over step.
    print(f"Closing the loop: {args.loop_steps} solver steps with the "
          f"trained hybrid in the chemistry loop ...")
    t0 = time.perf_counter()
    loop_parts = []
    for r in regimes:
        chem = build_chemistry(
            SolverSettings(chemistry="hybrid-trained", trust_gate="domain",
                           chemistry_options={"odenet": net}), mech)
        loop_parts.append(sample_solver_states(
            mech, regime=r, dt=args.dt, steps=args.loop_steps,
            chemistry=chem))
    loop = loop_parts[0]
    for part in loop_parts[1:]:
        loop = loop.merge(part)
    err_loop_before = max_err(loop)

    # frozen scalers (the base feature geometry stays valid); the
    # trust region expands to cover the self-steered states
    combined = full.merge(loop)
    feats = net.scaled_features(combined.t, combined.p, combined.y,
                                combined.dt)
    targets = net.out_scaler.transform(combined.delta_y)
    train_mlp(net.net, feats, targets, epochs=args.loop_epochs, lr=1e-3,
              batch_size=128, seed=args.seed, lr_decay=0.995)
    net.domain = net.domain.expand(
        net.scaled_features(loop.t, loop.p, loop.y, loop.dt))

    err_loop_after = max_err(loop)
    err_full_after = max_err(full)
    print(f"  {time.perf_counter()-t0:.0f} s; self-steered states "
          f"max|dY error| {err_loop_before:.2e} -> {err_loop_after:.2e} "
          f"(base manifold now {err_full_after:.2e})")
    loop_info = dict(base_info)
    loop_info.update({
        "closed_loop": True, "loop_steps": args.loop_steps,
        "loop_epochs": args.loop_epochs,
        "loop_samples": loop.n_samples,
        "max_abs_dy_error": err_full_after,
        "loop_max_abs_dy_error_before": err_loop_before,
        "loop_max_abs_dy_error": err_loop_after,
    })
    version = registry.save(net, args.name, parent=version,
                            train_info=loop_info, replay=replay)
    print(f"Saved {args.name}/{version} to {registry.root} "
          f"(closed-loop child of {registry.lineage(args.name)[-1]})")


if __name__ == "__main__":
    main()
