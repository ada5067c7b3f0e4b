"""evograph benchmark: one workload per run, one JSON result on the last line.

Usage (from the repository root)::

    python3 bench/run.py --workload multi-n32 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  ``--workload all`` runs every workload in
its own process and prints a table.  Inputs are generated from ``--seed``;
work files go to ``.bench_work/`` and each result, with its run record, to
``.bench_work/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread (the cap is nproc).  On a shared 2-core machine two BLAS
# threads wait on each other whenever another process takes a core: a
# backward pass at N=32 went from 1.6 s to 18 s that way, while one thread
# stayed within 10%.  Children inherit this.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
WORKLOAD_NAMES = ("multi-n32", "single-p192-long", "cli-train-n8")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="evograph benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    rows, code = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        rows.append((name, "failed_ratio", ratio, "ratio"))
        rows += [(name, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:18s} {metric:40s} {value:14.4f} {unit}")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "evograph").is_dir():
        print(f"evograph sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wk
    import_s = time.perf_counter() - T_START

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    results = ROOT / ".bench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)

    ledger = wk.Ledger()
    wl = wk.WORKLOADS[args.workload]
    try:
        if isinstance(wl, wk.CliTrain):
            outcome = wk.run_cli(wl, ROOT, args.seed, bool(args.trace), work, ledger)
        else:
            outcome = wk.run_in_process(wl, args.seed, args.seconds, bool(args.trace),
                                        work, import_s, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(outcome.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(outcome.metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    record = run_record(args)
    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": float(outcome.metrics[k]), "unit": u}
                    for k, u in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"record": record, "notes": outcome.notes, "failures": ledger.failures,
         **result}, indent=2))
    if outcome.spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(outcome.spans))

    for k, v in result["metrics"].items():
        print(f"{k:40s} {v['value']:14.4f} {v['unit']}")
    print(f"failed_ratio {failed}/{result['attempted']}", *ledger.failures, sep="\n  ")
    print("notes", json.dumps(outcome.notes))
    print("record", json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
