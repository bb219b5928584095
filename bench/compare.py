"""Compare two benchmark records, or two checkouts pair by pair.

Two records (written by ``bench/run.py``)::

    python3 bench/compare.py A.json B.json

prints one row per workload x end-to-end metric: each side's median and
quartiles, the ratio B/A (base: A), the metric's bound and a verdict --
``better`` / ``same`` / ``worse``, or ``unresolved`` when the spread of
either side is wider than the bound (unless every sample of one side
beats every sample of the other).

Two checkouts, the rule of the choosing-metrics guide for a sandbox::

    python3 bench/compare.py --pairs 10 PARENT_DIR CHANGE_DIR

runs the benchmark command in both directories, alternating which side
goes first, one seed per pair, and claims ``better`` only when the
change wins at least nine tenths of all pairs (ties count for neither)
*and* the medians differ by more than the parent's own inter-quartile
spread.  All metrics here are lower-is-better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float,
            wins: tuple[int, int] | None = None) -> tuple[str, float]:
    """``(verdict, B/A ratio of medians)`` for one lower-is-better
    metric; ``wins = (pairs won by B, pairs run)`` enables the
    nine-tenths rule, without it ``better`` only needs the bound."""
    qa, qb = _quartiles(a), _quartiles(b)
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a == 0:                       # failed_frac: absolute, bound 0
        return ("same" if med_b == 0 else "worse"), float("nan")
    ratio = med_b / med_a
    spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)
    if spread > bound and not (max(b) < min(a) or min(b) > max(a)):
        return "unresolved", ratio
    if ratio > 1.0 + bound:
        return "worse", ratio
    if wins is not None:
        won, pairs = wins
        gain = won >= 0.9 * pairs and (med_a - med_b) > (qa[2] - qa[0])
    else:
        gain = ratio < 1.0 - bound
    return ("better" if gain else "same"), ratio


def _row(workload: str, metric: str, a: list[float], b: list[float],
         bound: float, wins=None) -> bool:
    """Print one row; returns whether its verdict is ``worse``."""
    v, ratio = verdict(a, b, bound, wins)
    qa, qb = _quartiles(a), _quartiles(b)
    won = f"  (B won {wins[0]} of {wins[1]} pairs)" if wins else ""
    print(f"{workload:22s} {metric:12s} "
          f"A {statistics.median(a):10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
          f"B {statistics.median(b):10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
          f"B/A {ratio:6.3f} (base A)  bound {bound:.2f}  {v}{won}",
          flush=True)
    return v == "worse"


# -- two records -------------------------------------------------------------
def _samples(entry: dict, metric: str) -> list[float]:
    """The samples behind one end-to-end metric of a record."""
    if metric == "step_ms":
        return entry["samples_ms"]
    e = entry["end_to_end"][metric]
    return e.get("samples") or [e["median"]]


def compare_records(path_a: Path, path_b: Path) -> int:
    """Print the table for two records; exit code 1 on any ``worse``."""
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    bounds = {m["name"]: m["bound"] for m in a["end_to_end"]}
    print(f"A = {path_a} (seed {a['seed']}), B = {path_b} (seed {b['seed']})")
    bad = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:22s} missing from B")
            continue
        for metric, bound in bounds.items():
            bad |= _row(name, metric, _samples(a["workloads"][name], metric),
                        _samples(b["workloads"][name], metric), bound)
    return int(bad)


# -- alternating pairs ---------------------------------------------------------
def _run(root: Path, spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in res["metrics"].items()}
    values["failed_frac"] = res["failed"] / res["attempted"]
    return values


def compare_pairs(parent: Path, change: Path, pairs: int, seed: int,
                  workloads: list[str] | None) -> int:
    """Run alternating parent/change pairs and print the verdicts."""
    spec = json.loads((change / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds["failed_frac"] = 0.0
    names = workloads or [w["name"] for w in spec["workloads"]]
    print(f"A = parent {parent}, B = change {change}; {pairs} pairs, "
          f"seeds {seed}..{seed + pairs - 1}, first side alternates")
    bad = False
    for name in names:
        runs = {"A": [], "B": []}
        for i in range(pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                root = parent if side == "A" else change
                runs[side].append(_run(root, spec, name, seed + i))
        for metric, bound in bounds.items():
            a = [r[metric] for r in runs["A"]]
            b = [r[metric] for r in runs["B"]]
            won = sum(y < x for x, y in zip(a, b))
            bad |= _row(name, metric, a, b, bound, wins=(won, pairs))
    return int(bad)


def main(argv: list[str] | None = None) -> int:
    """Command line."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="record A, or the parent checkout")
    ap.add_argument("b", type=Path, help="record B, or the changed checkout")
    ap.add_argument("--pairs", type=int,
                    help="run this many alternating pairs of checkouts")
    ap.add_argument("--seed", type=int, default=0, help="first pair's seed")
    ap.add_argument("--workload", action="append",
                    help="restrict --pairs to these workloads")
    args = ap.parse_args(argv)
    if args.pairs:
        return compare_pairs(args.a, args.b, args.pairs, args.seed,
                             args.workload)
    return compare_records(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
