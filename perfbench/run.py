"""Closed-loop benchmark of the sim2real-al package.

Run from the root of a checkout (the directory that holds `src/`):

    python3 perfbench/run.py --workload cls-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process and one client: each pass over the workload's cells starts
after the previous pass ends.  The package is driven only through
`cli.main` (`sweep`, `run` and `score`), with BLAS threads capped at
the number of usable cores.  Passes repeat until --seconds have passed
(at least enough for ten iteration samples beyond the workload's fixed
tail percentile, and four when traced); timings are medians over passes.

--trace 0 prints the end-to-end metrics.  Their times are scaled by the
host's speed, measured with a reference kernel at every mark of the
timeline (see calibrate.py), and read in seconds of the reference host.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see spans.py), plus the tracing overhead;
it runs no reference kernel, and its times are plain wall times.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from calibrate import Timeline  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "first_batch_s": "s",
    "iter_s_p50": "s",
    "iter_s_tail": "s",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
    "mean_metric": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run here (not a failure of the program)."""


# ---------------------------------------------------------------------------
# cell clock: cell starts and batch arrivals, seen from outside
# ---------------------------------------------------------------------------

class CellClock:
    """Wraps the experiment builders that the CLI calls once per cell.

    A cell starts when its builder is called.  The builder's oracle is
    wrapped so that each batch of exactly B ids puts a mark on the
    pass's timeline; the reference labeling of the whole pool is not a
    batch.
    """

    def __init__(self, batch_size: int, tracer):
        self.batch_size = batch_size
        self.tracer = tracer
        self.cells = 0
        self.timeline: Timeline | None = None

    def install(self, loop) -> None:
        for name in ("build_classification_experiment",
                     "build_detection_experiment"):
            setattr(loop, name, self._wrap(getattr(loop, name)))

    def _wrap(self, build):
        clock = self

        def timed_build(*args, **kwargs):
            cell = clock.cells
            clock.cells += 1
            clock.timeline.mark("cell", cell)
            if clock.tracer is not None:
                clock.tracer.cell = cell
            datasets, oracle, learner = build(*args, **kwargs)

            def timed_oracle(ids):
                if len(ids) == clock.batch_size:
                    clock.timeline.mark("batch", cell)
                return oracle(ids)

            return datasets, timed_oracle, learner

        return timed_build


@dataclass
class PassResult:
    pass_s: float             # scaled by the host's speed when calibrating
    traced: bool
    raw_s: float = math.nan   # wall time, less the reference kernel's
    ref_s: list[float] = field(default_factory=list)  # kernel times
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    mean_metric: float = math.nan
    first_batch: list[float] = field(default_factory=list)
    iter_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    outputs: list[tuple[int, str]] = field(default_factory=list)  # score only


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def timed_setups(w, seed: int, inputs: Path, src: Path, calibrating: bool):
    """Times of SETUP_REPEATS set-ups, each in a fresh interpreter
    (setup_probe.py), with a mark before and after each; the marks run
    the reference set-up."""
    env = dict(os.environ, PYTHONPATH=str(src))
    timeline = Timeline(calibrating, lambda: calibrate.reference_setup(env),
                        calibrate.SETUP_NOMINAL_S)
    timeline.mark()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               w.name, str(seed), str(inputs)],
                              env=env, capture_output=True, text=True, timeout=120)
        timeline.mark()
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
    return ([t for _, _, t in timeline.intervals()],
            [m.ref_s for m in timeline.marks if m.ref_s is not None])


def load_package(src: Path) -> SimpleNamespace:
    sys.path.insert(0, str(src))
    from sim2real_al import acquisition, cli, fusion, learner, loop, sampling
    return SimpleNamespace(acquisition=acquisition, cli=cli, fusion=fusion,
                           learner=learner, loop=loop, sampling=sampling)


# ---------------------------------------------------------------------------
# passes and output checks
# ---------------------------------------------------------------------------

def _call_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def timed_result(timeline: Timeline, traced: bool) -> PassResult:
    """A pass's result with its pass time, from the pass's timeline."""
    intervals = timeline.intervals()
    return PassResult(sum(t for _, _, t in intervals), traced,
                      raw_s=timeline.raw_s(),
                      ref_s=[m.ref_s for m in timeline.marks if m.ref_s is not None])


def sweep_pass(pkg, w, inputs, out: Path, clock: CellClock, traced, calibrating):
    argv = [w.command, "--config", str(inputs[0]), "--out", str(out)]
    clock.timeline = timeline = Timeline(calibrating)
    timeline.mark("pass")
    rc, _ = _call_cli(pkg.cli, argv)
    timeline.mark("pass")
    result = timed_result(timeline, traced)
    for a, b, t in timeline.intervals():
        if b.kind == "batch" and a.kind == "cell" and a.cell == b.cell:
            result.first_batch.append(t)
        elif b.kind == "batch" and a.kind == "batch" and a.cell == b.cell:
            result.iter_s.append(t)
    if rc != 0:
        result.errors.append(f"cli exited with {rc}")
    return result


def check_sweep(pkg, w, seed, out: Path, result: PassResult) -> None:
    cells = w.cells(seed)
    result.attempted = len(cells)
    digest = hashlib.sha256()
    means = []
    for strategy, run_seed in cells:
        cell_dir = out if w.command == "run" else out / f"{strategy}-s{run_seed}"
        errors = []
        try:
            curve = (cell_dir / "curve.csv").read_bytes()
            manifest = (cell_dir / "manifest.txt").read_bytes()
            digest.update(curve + b"\0" + manifest + b"\0")
            errors += _curve_errors(curve.decode(), w, run_seed)
            errors += _manifest_errors(manifest.decode(), w, run_seed)
            loop = pkg.loop
            means.append(loop.gap_report(loop.curve_from_artifacts(
                loop.read_manifest(cell_dir / "manifest.txt"),
                loop.read_curve_csv(cell_dir / "curve.csv"), run_seed)).mean_metric)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"unreadable artifacts: {exc!r}")
        if errors:
            result.failed += 1
            result.errors += [f"{strategy} seed {run_seed}: {e}" for e in errors]
    result.digest = digest.hexdigest()
    result.mean_metric = statistics.fmean(means) if means else math.nan


def _curve_errors(text: str, w, run_seed: int) -> list[str]:
    rows = [r for r in text.splitlines()[1:] if r.split(",")[0] == str(run_seed)]
    if len(rows) != w.iterations + 1:
        return [f"curve.csv has {len(rows)} rows, expected {w.iterations + 1}"]
    errors = []
    for k, row in enumerate(rows):
        fields = row.split(",")
        metric = float(fields[5])
        if int(fields[2]) != k:
            errors.append(f"curve.csv row {k} is iteration {fields[2]}")
        if not 0.0 <= metric <= 1.0:
            errors.append(f"curve.csv iteration {k} metric {metric} outside [0, 1]")
    return errors


def _manifest_errors(text: str, w, seed: int) -> list[str]:
    items = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    errors, seen = [], set()
    for it in range(1, w.iterations + 1):
        raw = items.get(f"run.{seed}.selected.{it}")
        if raw is None:
            errors.append(f"manifest lacks iteration {it}")
            continue
        ids = [int(v) for v in raw.split(",")] if raw else []
        if len(ids) != w.batch_size or len(set(ids)) != len(ids):
            errors.append(f"iteration {it}: {len(set(ids))} distinct of "
                          f"{len(ids)} ids, expected {w.batch_size}")
        if any(not 0 <= i < w.pool_size for i in ids):
            errors.append(f"iteration {it}: id outside [0, {w.pool_size})")
        if seen & set(ids):
            errors.append(f"iteration {it}: ids reused")
        seen |= set(ids)
    if f"run.{seed}.selected.{w.iterations + 1}" in items:
        errors.append(f"manifest has more than {w.iterations} iterations")
    return errors


def score_pass(pkg, inputs, tracer, traced, calibrating):
    outputs = []
    timeline = Timeline(calibrating)
    for k, path in enumerate(inputs):
        if tracer is not None:
            tracer.cell = k
        timeline.mark("request", k)
        outputs.append(_call_cli(pkg.cli, ["score", "--anchors", str(path)]))
    timeline.mark("pass")
    result = timed_result(timeline, traced)
    result.iter_s = [t for _, _, t in timeline.intervals()]
    result.first_batch = result.iter_s[:1]
    result.outputs = outputs
    return result


def check_score(result: PassResult) -> None:
    digest, scores = hashlib.sha256(), []
    result.attempted = len(result.outputs)
    for k, (rc, text) in enumerate(result.outputs):
        digest.update(text.encode() + b"\0")
        errors = [] if rc == 0 else [f"cli exited with {rc}"]
        lines = text.splitlines()
        expected = {f"img{k * workloads.SCORE_IMAGES + i:05d}"
                    for i in range(workloads.SCORE_IMAGES)}
        if not lines or lines[0] != "image_id,score,n_detections":
            errors.append("missing header")
        rows = [line.split(",") for line in lines[1:]]
        if sorted(r[0] for r in rows) != sorted(expected):
            errors.append("output rows are not one per image")
        for row in rows:
            try:
                score, n_det = float(row[1]), int(row[2])
            except (IndexError, ValueError):
                errors.append(f"malformed row {row!r}")
                continue
            if not math.isfinite(score) or n_det < 0:
                errors.append(f"bad row {row!r}")
            scores.append(score)
        if errors:
            result.failed += 1
            result.errors += [f"request {k}: {e}" for e in errors]
    result.digest = digest.hexdigest()
    result.mean_metric = statistics.fmean(scores) if scores else math.nan


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def offered_per_pass(w) -> int:
    """Images (pool items) offered to the acquisition step in one pass.

    On the sweeps this is a constant of the workload, so images_per_s
    there is pass_s rescaled; only det-score gives it a meaning of its own.
    """
    if w.kind == "score":
        return workloads.SCORE_FILES * workloads.SCORE_IMAGES
    return len(w.cells(0)) * sum(w.pool_size - k * w.batch_size
                                 for k in range(w.iterations))


def end_to_end(w, setups, results) -> tuple[dict, list[str]]:
    setup_times, setup_refs = setups
    firsts = [x for r in results for x in r.first_batch]
    iters = [x for r in results for x in r.iter_s]
    q = w.tail_percentile  # w.min_passes() leaves ten samples beyond it
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(r.pass_s for r in results),
        "first_batch_s": statistics.median(firsts),
        "iter_s_p50": float(np.percentile(iters, 50)),
        "iter_s_tail": float(np.percentile(iters, q)),
        "images_per_s": statistics.median(offered_per_pass(w) / r.pass_s for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_metric": results[0].mean_metric,
    }
    refs = [x for r in results for x in r.ref_s]
    notes = [f"passes = {len(results)}, cells or requests per pass = {results[0].attempted}",
             "pass_s per pass: " + ", ".join(f"{r.pass_s:.4f}" for r in results),
             "wall s per pass, less the reference kernel: "
             + ", ".join(f"{r.raw_s:.4f}" for r in results),
             f"reference kernel: median {1e3 * statistics.median(refs):.2f} ms of "
             f"{len(refs)} runs (nominal {1e3 * calibrate.REF_NOMINAL_S:.2f} ms); "
             "times are scaled by nominal / local median",
             f"iter_s_tail is p{q} of {len(iters)} samples; "
             f"first_batch_s is the median of {len(firsts)} samples",
             f"setup_s is the median of {len(setup_times)} set-ups: "
             + ", ".join(f"{t:.4f}" for t in setup_times)
             + (f"; reference set-up: median {statistics.median(setup_refs):.4f} s "
                f"(nominal {calibrate.SETUP_NOMINAL_S:.4f} s)" if setup_refs else "")]
    return values, notes


def per_layer(w, tracer, results) -> tuple[dict, list[str]]:
    traced = [r for r in results if r.traced]
    plain = [r for r in results if not r.traced]
    values = tracer.summary(len(traced))
    traced_s = statistics.median(r.pass_s for r in traced)
    plain_s = statistics.median(r.pass_s for r in plain)
    values["trace.pass_s"] = traced_s
    values["trace_overhead_frac"] = traced_s / plain_s - 1.0
    module_self = tracer.module_self_time()
    ranked = sorted(module_self, key=module_self.get, reverse=True)
    predicted = spans.TOP_MODULES[w.name]
    holds = set(ranked[:len(predicted)]) == set(predicted)
    notes = [f"traced passes = {len(traced)}, untraced passes = {len(plain)}",
             "self time by module per pass: " + ", ".join(
                 f"{m} {module_self[m] / len(traced):.3f} s" for m in ranked),
             f"predicted top module(s) {', '.join(predicted)}: "
             + ("holds" if holds else f"does not hold (top: {', '.join(ranked[:len(predicted)])})")]
    return values, notes


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def bench(w, args, root: Path, src: Path, work: Path) -> int:
    inputs_dir = work / "inputs"
    calibrating = not args.trace
    if calibrating:
        calibrate.warm_up()
    setups = timed_setups(w, args.seed, inputs_dir, src, calibrating)
    if w.kind == "sweep":
        inputs = [inputs_dir / f"{w.name}.cfg"]
    else:
        inputs = [inputs_dir / name for name in workloads.score_file_names()]

    pkg = load_package(src)
    tracer = spans.Tracer() if args.trace else None
    clock = CellClock(w.batch_size, tracer)
    clock.install(pkg.loop)
    min_passes = 4 if args.trace else w.min_passes()

    results: list[PassResult] = []
    begin = time.perf_counter()
    # stop when another pass would end further past --seconds than the
    # run would end short of it
    while len(results) < min_passes or ((elapsed := time.perf_counter() - begin)
                                        + 0.5 * elapsed / len(results) <= args.seconds):
        traced = bool(args.trace) and len(results) % 2 == 1
        out = work / f"pass-{len(results)}"
        if traced:
            tracer.install(pkg)
        try:
            if w.kind == "sweep":
                result = sweep_pass(pkg, w, inputs, out, clock, traced, calibrating)
            else:
                result = score_pass(pkg, inputs, tracer, traced, calibrating)
        except Exception:  # the program failed; report it and stop
            traceback.print_exc()
            result = PassResult(math.nan, traced, attempted=1, failed=1,
                                errors=["pass raised"])
            results.append(result)
            break
        finally:
            if traced:
                tracer.uninstall()
        if w.kind == "sweep":
            check_sweep(pkg, w, args.seed, out, result)
            shutil.rmtree(out, ignore_errors=True)
        else:
            check_score(result)
        results.append(result)
        if result.failed or result.errors:
            break

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = [e for r in results for e in r.errors]
    checked = [r for r in results if not r.errors]
    if len({r.digest for r in checked}) > 1:
        mismatched = sum(r.digest != checked[0].digest for r in checked)
        failed += mismatched
        errors.append(f"outputs differ between passes of seed {args.seed} "
                      f"({mismatched} of {len(checked)} passes)")
    correct = not errors and failed == 0

    print(f"workload = {w.name}, seed = {args.seed}, trace = {args.trace}")
    print(f"machine: nproc = {NPROC}, blas threads = {NPROC} "
          f"({', '.join(BLAS_VARS)}), python {sys.version.split()[0]}, "
          f"numpy {np.__version__}")
    metrics: dict[str, dict] = {}
    if correct:
        if args.trace:
            values, notes = per_layer(w, tracer, results)
            errors += [f"span missing: {m}" for m in tracer.missing]
            errors += spans.coverage_errors(w.name, tracer.totals()[0])
            trace_dir = root / ".perfbench"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"spans-{w.name}-s{args.seed}.tsv")
            correct = not errors
            units = {k: spans.unit(k) for k in values}
        else:
            values, notes = end_to_end(w, setups, results)
            units = E2E_UNITS
        for note in notes:
            print(note)
        for key, value in values.items():
            print(f"{key} = {value:.6g} {units[key]}")
            metrics[key] = {"value": value, "unit": units[key]}
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every workload's output."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            combined[f"{name}.{key}"] = metric
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "sim2real_al" / "cli.py").is_file():
        print(f"error: {src} holds no sim2real_al package; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    w = workloads.WORKLOADS[args.workload]
    work = root / ".perfbench" / f"{w.name}-s{args.seed}-{os.getpid()}"
    try:
        return bench(w, args, root, src, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
