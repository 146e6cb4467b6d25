"""Paired comparison of two commits on the benchmark.

Run from the root of a checkout:

    python3 perfbench/compare.py BASE HEAD [--workloads det-score]

BASE and HEAD are checkout directories (each holding `src/`) or git
revisions of this repository, which are exported with `git archive`
into .perfbench/.  Both sides run this copy of the benchmark with the
run length from BENCHMARK.json.  Each workload gets ten pairs; pair i
uses seed i (1 to 10) on both sides, and the side that runs first
alternates between pairs.

Per workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

  improved                the change won at least 9 of 10 pairs and the
                          medians differ by more than the parent's
                          quartile distance
  worse                   the change's median is worse than the parent's
                          by more than the metric's bound; for mean_metric,
                          which is exact for a seed, the change reads worse
                          than the parent on any one seed by more than a
                          relative 1e-6
  unresolved              the run-to-run spread of either side is wider
                          than the bound, unless every run of the change
                          reads better than every run of the parent
  no worse within bound   otherwise

A gain does not count when the change fails more cells or checks than
the parent.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

from spread import quartiles, run_once

PAIRS = 10
SEEDS = range(1, PAIRS + 1)
WIN_SHARE = 0.9
# metrics that are the same on every run of one seed: compared pair by pair
EXACT = {"mean_metric"}
EXACT_TOLERANCE = 1e-6


def checkout(spec: str, work: Path) -> Path:
    """A directory to run from: `spec` itself, or a git revision exported."""
    path = Path(spec)
    if (path / "src").is_dir():
        return path.resolve()
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{spec}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    target = work / f"rev-{sha[:12]}"
    if not target.exists():
        tar = subprocess.run(["git", "archive", "--format=tar", sha],
                             capture_output=True, check=True).stdout
        target.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(target, filter="data")
    return target


def verdict(key: str, base: list[float], head: list[float], better: str,
            bound: float, more_failures: bool) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    share = wins / len(base)
    if key in EXACT and any(sign * (h - b) > EXACT_TOLERANCE * abs(b)
                            for b, h in zip(base, head)):
        return "worse", share
    q1b, med_b, q3b = quartiles(base)
    q1h, med_h, q3h = quartiles(head)
    head_better = sign * (med_b - med_h) > 0
    if (share >= WIN_SHARE and head_better and abs(med_h - med_b) > q3b - q1b
            and not more_failures):
        return "improved", share
    if sign * (med_h - med_b) / med_b > bound:
        return "worse", share
    spread = max((q3b - q1b) / med_b, (q3h - q1h) / med_h)
    all_better = (max(head) < min(base)) if better == "lower" else (min(head) > max(base))
    if spread > bound and not all_better:
        return "unresolved", share
    return "no worse within bound", share


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:<10.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="parent: checkout directory or git revision")
    parser.add_argument("head", help="change: checkout directory or git revision")
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: all in BENCHMARK.json)")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    work = Path(".perfbench")
    sides = {"base": checkout(args.base, work), "head": checkout(args.head, work)}
    print(f"base = {sides['base']}\nhead = {sides['head']}\n"
          f"{PAIRS} pairs per workload, {bench['run_seconds']} s per run")

    regressed = False
    for name in names:
        runs = {"base": [], "head": []}
        for i, seed in enumerate(SEEDS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(name, seed, bench["run_seconds"],
                                           cwd=sides[side]))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        incorrect = {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()}
        print(f"\n{name}: failed base {failed['base']} head {failed['head']}, "
              f"incorrect runs base {incorrect['base']} head {incorrect['head']}")
        if incorrect["base"] or incorrect["head"]:
            print("  metrics not compared: a side has incorrect runs")
            regressed |= incorrect["head"] > 0
            continue
        print(f"  {'metric':14s} {'base median [q1, q3]':34s} "
              f"{'head median [q1, q3]':34s} {'change':>8s} {'won':>5s}  verdict")

        for metric in bench["end_to_end"]:
            key = metric["name"]
            base = [r["metrics"][key]["value"] for r in runs["base"]]
            head = [r["metrics"][key]["value"] for r in runs["head"]]
            label, share = verdict(key, base, head, metric["better"],
                                   metric["bound"], failed["head"] > failed["base"])
            regressed |= label == "worse"
            qb, qh = quartiles(base), quartiles(head)
            change = (qh[1] - qb[1]) / qb[1]
            print(f"  {key:14s} {_fmt(qb):34s} {_fmt(qh):34s} "
                  f"{100 * change:+7.2f}% {100 * share:4.0f}%  {label}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
