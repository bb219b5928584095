"""The benchmark's one command.

Human use (every workload, every metric, the checks, the record)::

    PYTHONPATH=src python -m bench.run [--seed S] [--workload NAME]

Driver use (one workload, one mode, one JSON object as the last line
of standard output -- the contract of ``BENCHMARK.json``)::

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Every workload runs in child processes of its own, so ``peak_rss_mb``
is per workload.  One measured run is ``CHILDREN`` fresh processes in a
row, each doing set-up and a share of the timed windows: ``setup_s``
and ``peak_rss_mb`` are medians over processes and ``step_ms`` is the
median over all their windows.  ``OMP_NUM_THREADS`` /
``OPENBLAS_NUM_THREADS`` / ``MKL_NUM_THREADS`` are pinned to 1 before
numpy is imported anywhere.  The parent never imports numpy or the
program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: measuring processes per run; each sets up once and times a share of
#: the windows
CHILDREN = 3
CHILD_TIMEOUT_S = 170


def bootstrap() -> None:
    """Pin BLAS threads and put the benchmark and the program on the
    import path.  Exits non-zero where there is no program to measure."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: no program to measure ({src / 'repro'} missing)")
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds are fixed."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- children ------------------------------------------------------------
def spawn(mode: str, name: str, seed: int, seconds: float,
          windows: int | None, reference: bool = False) -> dict:
    """Run one child and return the JSON record it printed last."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--reference", str(int(reference)),
           "--t0", repr(time.time())]
    if windows is not None:
        cmd += ["--windows", str(windows)]
    # the thread pins set by bootstrap() are inherited
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child of {name} exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float,
            windows: int | None) -> dict:
    """End-to-end metrics of one workload over ``CHILDREN`` processes;
    the first also runs the cross-implementation reference checks."""
    kids = [spawn("measure", name, seed, seconds / CHILDREN, windows,
                  reference=(k == 0)) for k in range(CHILDREN)]
    rec = kids[0]
    rec["samples_ms"] = [x for kid in kids for x in kid["samples_ms"]]
    rec["step_ms"] = summary(rec["samples_ms"])
    rec["setup_samples_s"] = [kid["setup_s"] for kid in kids]
    rec["setup_s"] = statistics.median(rec["setup_samples_s"])
    rec["peak_rss_samples_mb"] = [kid["peak_rss_mb"] for kid in kids]
    rec["peak_rss_mb"] = statistics.median(rec["peak_rss_samples_mb"])
    rec["attempted"] = sum(kid["attempted"] for kid in kids) + 1
    same = len({kid["state_hash"] for kid in kids}) == 1
    rec["failed"] = sum(kid["failed"] for kid in kids) + (not same)
    rec["checks"] = [row for kid in kids for row in kid["checks"]] + [
        {"name": "bitwise_repeat_processes", "ok": same,
         "value": float(not same), "limit": 0.0}]
    rec["errors"] = [err for kid in kids for err in kid["errors"]]
    return rec


def summary(samples: list[float]) -> dict:
    """Median, quartiles, min, max and count of a list of timings."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "max": max(samples), "n": len(samples)}


def trace(name: str, seed: int, windows: int | None) -> dict:
    """Per-layer metrics of one workload (one tracing child)."""
    rec = spawn("trace", name, seed, 0, windows)
    rec["step_ms"] = summary(rec["samples_ms"])
    return rec


def child_main(args) -> int:
    """Entry of a child process: run one mode, print its record."""
    bootstrap()
    from bench.measure import run_child

    rec = run_child(args.child, args.workload, args.seed, args.seconds,
                    args.windows, bool(args.reference), args.t0, RESULTS)
    print(json.dumps(rec))
    return 0


# -- driver contract -------------------------------------------------------
def contract_main(args) -> int:
    """One workload, one mode; the contract's JSON object last."""
    names = spec()
    if args.trace == 0:
        rec = measure(args.workload, args.seed, args.seconds, args.windows)
        values = {"step_ms": rec["step_ms"]["median"],
                  "setup_s": rec["setup_s"],
                  "peak_rss_mb": rec["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in names["end_to_end"]}
    else:
        rec = trace(args.workload, args.seed, args.windows)
        metrics = {m["name"]: {"value": rec["layers"][m["name"]],
                               "unit": m["unit"]}
                   for m in names["per_layer"]}
    for row in rec["checks"]:
        if not row["ok"]:
            print(f"bench: check failed: {row}", file=sys.stderr)
    for err in rec["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps({"correct": rec["failed"] == 0,
                      "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": metrics}))
    return 0


# -- human mode --------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, e2e: dict, lay: dict, names: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    s = e2e["step_ms"]
    print(f"\n== {name}  ({e2e['n_cells']} cells, dt {e2e['dt']:g}, "
          f"W={e2e['window_steps']}, R={s['n']}, seed {e2e['seed']})")
    print(f"   why: {e2e['why']}")
    print("   end to end")
    print(f"     step_ms      {_fmt(s['median'])} ms  (q1 {_fmt(s['q1'])}, "
          f"q3 {_fmt(s['q3'])}, min {_fmt(s['min'])}, max {_fmt(s['max'])}; "
          f"R={s['n']} windows: too few for a tail percentile, none given)")
    print(f"     setup_s      {_fmt(e2e['setup_s'])} s  (median of "
          f"{len(e2e['setup_samples_s'])} processes: "
          f"{', '.join(_fmt(v) for v in e2e['setup_samples_s'])})")
    print(f"     peak_rss_mb  {_fmt(e2e['peak_rss_mb'])} MiB  (median of: "
          f"{', '.join(_fmt(v) for v in e2e['peak_rss_samples_mb'])})")
    failed = e2e["failed"] + lay["failed"]
    attempted = e2e["attempted"] + lay["attempted"]
    print(f"     failed_frac  {_fmt(failed / attempted)}  "
          f"({failed} of {attempted} timed steps and checks)")
    print("   checks")
    for mode, rec in (("measured", e2e), ("traced", lay)):
        for row in rec["checks"]:
            print(f"     {'ok  ' if row['ok'] else 'FAIL'} "
                  f"{row['name']:34s} {_fmt(row['value'])} "
                  f"(limit {_fmt(row['limit'])}; {mode} run)")
    print(f"     state hash {e2e['state_hash']}")
    print("   per layer (one traced window, per step)")
    for m in names["per_layer"]:
        print(f"     {m['name']:30s} {_fmt(lay['layers'][m['name']]):>12s} "
              f"{m['unit']}")
    b = lay["breakdown"]
    total = sum(b["layer_self_ms"].values())
    print(f"   layer self times (sum {_fmt(total)} ms vs step span "
          f"{_fmt(b['step_span_ms'])} ms)")
    for layer, ms in sorted(b["layer_self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"     {layer:10s} {_fmt(ms):>10s} ms  "
              f"{100 * ms / b['step_span_ms']:5.1f} %")
    print(f"   trace: bench/results/{lay['trace_files'][1]}")


def human_main(args) -> int:
    """Every selected workload, both modes; print and write the record."""
    names = spec()
    selected = [args.workload] if args.workload else \
        [w["name"] for w in names["workloads"]]
    record = {
        "schema": 1, "claim": None, "seed": args.seed,
        "command": " ".join(names["command"]),
        "protocol": {"window_steps": None, "run_seconds": args.seconds,
                     "processes_per_run": CHILDREN, "closed_loop": True,
                     "driver_processes": 1},
        "end_to_end": names["end_to_end"] + [
            {"name": "failed_frac", "unit": "1", "better": "lower",
             "bound": 0.0}],
        "per_layer": names["per_layer"],
        "host": None, "workloads": {},
    }
    ok = True
    for name in selected:
        e2e = measure(name, args.seed, args.seconds, args.windows)
        lay = trace(name, args.seed, args.windows)
        report(name, e2e, lay, names)
        record["host"] = record["host"] or e2e["host"]
        record["protocol"]["window_steps"] = e2e["window_steps"]
        attempted = e2e["attempted"] + lay["attempted"]
        failed = e2e["failed"] + lay["failed"]
        ok = ok and failed == 0
        record["workloads"][name] = {
            "why": e2e["why"], "n_cells": e2e["n_cells"], "dt": e2e["dt"],
            "W": e2e["window_steps"], "R": e2e["step_ms"]["n"],
            "seed": args.seed, "drawn": e2e["drawn"],
            "settings": e2e["settings"],
            "end_to_end": {
                "step_ms": e2e["step_ms"],
                "setup_s": {"median": e2e["setup_s"],
                            "samples": e2e["setup_samples_s"]},
                "peak_rss_mb": {"median": e2e["peak_rss_mb"],
                                "samples": e2e["peak_rss_samples_mb"]},
                "failed_frac": {"median": failed / attempted,
                                "failed": failed, "attempted": attempted}},
            "samples_ms": e2e["samples_ms"],
            "per_layer": lay["layers"], "breakdown": lay["breakdown"],
            "checks": e2e["checks"] + lay["checks"],
            "state_hash": e2e["state_hash"],
        }
    RESULTS.mkdir(exist_ok=True)
    paths = [RESULTS / f"record_seed{args.seed}.json"]
    if args.record:
        paths.append(Path(args.record))
    for path in paths:
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nrecord written: {path}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and dispatch."""
    names = [w["name"] for w in spec()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=float(spec()["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="driver mode: print one JSON object")
    ap.add_argument("--windows", type=int,
                    help="fixed window count (smoke runs); overrides "
                         "--seconds")
    ap.add_argument("--record", help="also write the record here")
    ap.add_argument("--child", choices=("measure", "trace"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--reference", type=int, default=0,
                    help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    bootstrap()
    if args.trace is not None:
        if not args.workload:
            ap.error("--trace needs --workload")
        return contract_main(args)
    return human_main(args)


if __name__ == "__main__":
    sys.exit(main())
