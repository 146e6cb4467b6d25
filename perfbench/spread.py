"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads det-score --seeds 1-5 --out spread.json
    python3 perfbench/spread.py --workloads det-sweep --seeds 1,1,1,1,1,1,1,1,1,1

Each (workload, seed) is one run of run.py with the run length from
BENCHMARK.json.  Per workload and metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median.  A spread at or above a
third of the metric's bound is flagged.  A seed list that repeats one
seed measures run-to-run noise alone, apart from seed-driven work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int = 0,
             cwd: Path = None) -> dict:
    """One benchmark run; returns its JSON result (correct=False if none)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def machine() -> dict:
    """What the numbers were measured on; run.py caps BLAS threads at nproc."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": nproc}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    ok = True
    summary = {}
    for name in names:
        runs = [run_once(name, seed, bench["run_seconds"]) for seed in seeds]
        bad = [s for s, r in zip(seeds, runs) if not r["correct"] or r["failed"]]
        if bad:
            print(f"{name}: incorrect or failed runs for seeds {bad}")
            ok = False
            continue
        print(f"{name} ({len(seeds)} seeds)")
        summary[name] = {}
        for metric in bench["end_to_end"]:
            key = metric["name"]
            values = [r["metrics"][key]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            flag = ""
            if spread >= metric["bound"] / 3:
                flag = "  <-- at or above bound/3"
                ok = False
            print(f"  {key:14s} median {med:.6g} {metric['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f} "
                  f"(bound {metric['bound']}){flag}")
            summary[name][key] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "unit": metric["unit"],
                                  "values": values}
    if args.out:
        record = {"machine": machine(), "run_seconds": bench["run_seconds"],
                  "seeds": seeds, "workloads": summary}
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
