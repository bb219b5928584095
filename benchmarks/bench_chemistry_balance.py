"""Executed chemistry load balancing across decomposed ranks.

The paper attributes the dominant strong-scaling loss to stiff
per-cell chemistry skewing rank-level work under a static domain
decomposition.  This bench *executes* the fix: a stiffness-skewed TGV
(igniting hot blob near one corner) runs domain-decomposed at 2-8
ranks with ``balance_chemistry="none"`` vs ``"dynamic"``, and the
table reports

* the executed rank-level chemistry imbalance (max/mean - 1) before
  and after migration -- the *acceptance gate* is a >= 2x drop at 4
  ranks,
* the measured migration traffic (cells, messages, bytes -- every byte
  from the shared ``CommLedger``), and
* the alpha-beta price of that traffic on Sunway's fabric
  (:func:`repro.runtime.price_balance_report`), next to what the
  imbalance would cost in straggler time.

Physics is invariant: the balanced and unbalanced runs integrate the
same cells and agree to floating-point rounding (asserted orders below
the 1e-8 serial-agreement gate) -- only *where* each cell integrates
changes.

Run:  pytest benchmarks/bench_chemistry_balance.py [--smoke]
"""

import numpy as np

from repro.chemistry import DirectBatchBackend
from repro.core import (
    IdealGasProperties,
    SolverSettings,
    build_hotspot_tgv_case,
)
from repro.dist import DecomposedSolver
from repro.runtime import SUNWAY, price_balance_report

from .conftest import emit


def _run(mech, n, nparts, mode, steps, dt):
    solver = DecomposedSolver(
        build_hotspot_tgv_case(n=n, mech=mech, radius=0.4),
        SolverSettings(ranks=nparts, balance_chemistry=mode),
        properties=IdealGasProperties(mech),
        chemistry=DirectBatchBackend(mech))
    for _ in range(steps):
        solver.step(dt)
    return solver


def test_chemistry_balance_executed(smoke, mech):
    """Executed imbalance before/after dynamic balancing, with the
    migration overhead priced by the alpha-beta model."""
    n = 8 if smoke else 10
    rank_counts = [2, 4] if smoke else [2, 4, 8]
    steps = 2          # step 1 seeds the EMA from estimates; step 2 is
    dt = 1e-7          # the measured, EMA-driven migration

    lines = [f"TGV {n}^3 + igniting hot blob, {steps} steps at "
             f"dt={dt:.0e}; imbalance = max/mean - 1 of executed "
             "chemistry work",
             "   P   imb none   imb dyn    drop  moved  mig msgs  "
             "mig KiB   t_mig [us]  t_allred [us]"]
    drops = {}
    for nparts in rank_counts:
        plain = _run(mech, n, nparts, "none", steps, dt)
        dyn = _run(mech, n, nparts, "dynamic", steps, dt)

        # unbalanced executed work == owner-attributed work
        work_none = np.array([r.chemistry.last_backend_stats.total_work
                              for r in plain.ranks])
        imb_none = work_none.max() / work_none.mean() - 1.0
        rep = dyn.last_balance
        imb_dyn = rep.imbalance_executed
        drop = imb_none / imb_dyn if imb_dyn > 0 else np.inf
        drops[nparts] = drop
        priced = price_balance_report(SUNWAY, rep, nparts)
        lines.append(
            f"  {nparts:2d}   {imb_none:8.3f}   {imb_dyn:7.3f} "
            f"{drop:7.1f}x  {rep.n_migrated:5d}  {rep.messages:8d}  "
            f"{rep.bytes_sent / 1024:7.1f}  "
            f"{priced['migration_s'] * 1e6:11.2f}  "
            f"{priced['allreduce_s'] * 1e6:13.2f}")

        # physics invariance: migration must not change the physics --
        # same cells integrated, results scattered back.  Agreement is
        # at rounding level (BLAS kernels round differently for
        # different batch shapes), orders below the 1e-8 serial gate.
        assert np.abs(dyn.gather("y") - plain.gather("y")).max() < 1e-12
        assert np.abs(dyn.gather("u") - plain.gather("u")).max() < 1e-11
        # the static skew is above the balancer's action threshold and
        # the traffic is all ledgered
        assert rep.imbalance_static > 0.05
        assert rep.n_migrated > 0 and rep.bytes_sent > 0

    # acceptance gate: >= 2x executed-imbalance drop at 4 ranks
    assert drops[4] >= 2.0, drops
    lines.append(f"  (gate: >= 2.0x drop at P=4; measured "
                 f"{drops[4]:.1f}x)")
    emit("Chemistry load balance (executed): imbalance before/after",
         lines)
