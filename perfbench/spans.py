"""In-memory span tracing of the package's layers, from outside the package.

The tracer replaces public functions and methods with wrappers that
record one span per call: name, start, end, parent span and cell id.
Names are patched where the caller looks them up: `loop` imports
`bayesod_inference` and `synth_detector_outputs` by name, so those are
patched on `loop` as well as on their home module.  `iou_arrays`, also
imported by name, is left alone: no metric needs it and a span per IoU
would cost more than the IoU.

Spans stay in a list until the run ends.  A span's self time is its
duration minus the durations of its direct children (calls are
sequential, so children never overlap).
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import wraps

MODULES = ("learner", "sampling", "acquisition", "fusion", "synthdata",
           "loop", "cli")
SELECTORS = ("select_random", "select_topn", "select_subsample_topn",
             "select_coreset", "select_batchbald", "select_clue")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    cell: int


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else shape[0]


class Tracer:
    """Records spans and counts while installed; restores the originals
    on uninstall so untraced passes run the unmodified program."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.cell = -1
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._patches: list[tuple] = []
        self._detect_keys: set = set()

    # -- patching -------------------------------------------------------

    def _wrap(self, original, name, count):
        tracer = self

        @wraps(original)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent, parent_name = stack[-1] if stack else (-1, "")
            idx = len(spans)
            spans.append(None)
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, tracer.cell)
            if count is not None:
                count(tracer, args, kwargs, result, parent_name)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, pkg) -> None:
        """Wrap every layer boundary of the package `pkg` (a namespace
        with the modules cli, loop, learner, sampling, acquisition,
        fusion)."""
        cli, loop, learner = pkg.cli, pkg.loop, pkg.learner
        sampling, acquisition, fusion = pkg.sampling, pkg.acquisition, pkg.fusion
        clf = learner.MCDropoutClassifier
        self.patch(clf, "fit", "learner.fit", _count_fit)
        self.patch(clf, "predict_mean", "learner.predict_mean", _count_rows)
        self.patch(clf, "predict_samples", "learner.predict_samples")
        self.patch(clf, "features", "learner.features")
        for sel in SELECTORS:
            self.patch(sampling, sel, f"sampling.{sel}", _SELECTOR_COUNTS[sel])
        self.patch(acquisition, "categorical_entropy",
                   "acquisition.categorical_entropy")
        self.patch(acquisition, "score_image", "acquisition.score_image",
                   _count_detections)
        self.patch(fusion, "read_anchor_records", "fusion.read_anchor_records",
                   _count_records)
        for owner in (fusion, loop):
            self.patch(owner, "bayesod_inference", "fusion.bayesod_inference",
                       _count_clusters)
        self.patch(fusion, "cluster_anchors", "fusion.cluster_anchors")
        self.patch(fusion, "fuse_gaussian", "fusion.fuse_gaussian")
        self.patch(loop, "synth_detector_outputs",
                   "synthdata.synth_detector_outputs", _count_anchors)
        for build in ("build_classification_experiment", "build_detection_experiment"):
            self.patch(loop, build, "loop.build_experiment")
        for gen in ("generate_classification", "generate_detection_scenes"):
            self.patch(loop, gen, "synthdata.generate")
        self.patch(loop, "run_al", "loop.run_al")
        self.patch(loop.DetectionSurrogate, "detect", "loop.detect",
                   _count_detect)
        self.patch(loop, "evaluate_detection", "loop.evaluate_detection")
        self.patch(loop, "evaluate_classifier", "loop.evaluate_classifier")
        self.patch(loop, "write_curve_csv", "loop.artifacts")
        self.patch(loop, "write_manifest", "loop.artifacts")
        self.patch(cli, "execute_run", "cli.execute_run")
        self.patch(cli, "cmd_score", "cli.cmd_score")
        self.patch(cli, "main", "cli.main")

    # -- aggregation ----------------------------------------------------

    def totals(self) -> tuple[Counter, dict, dict]:
        """Calls, busy time and self time per span name."""
        calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
        for span in self.spans:
            d = span.end - span.start
            calls[span.name] += 1
            busy[span.name] += d
            self_s[span.name] += d
            if span.parent >= 0:
                self_s[self.spans[span.parent].name] -= d
        return calls, busy, self_s

    def module_self_time(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, seconds in self.totals()[2].items():
            out[name.split(".")[0]] += seconds
        return out

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each averaged per traced pass."""
        calls, busy, self_s = self.totals()
        c = self.counts
        per = 1.0 / max(passes, 1)
        m: dict[str, float] = {}

        def put(key, value):
            m[key] = value * per

        put("learner.fit.calls", calls["learner.fit"])
        put("learner.fit.busy_s", busy["learner.fit"])
        put("learner.fit.steps", c["learner.fit.steps"])
        m["learner.fit.us_per_step"] = (1e6 * busy["learner.fit"] / c["learner.fit.steps"]
                                        if c["learner.fit.steps"] else 0.0)
        put("learner.predict_mean.calls", calls["learner.predict_mean"])
        put("learner.predict_mean.rows", c["learner.predict_mean.rows"])
        put("learner.predict_mean.busy_s", busy["learner.predict_mean"])
        put("learner.predict_samples.busy_s", busy["learner.predict_samples"])
        put("learner.features.busy_s", busy["learner.features"])
        for sel in SELECTORS:
            key = f"sampling.{sel}"
            put(f"{key}.calls", calls[key])
            put(f"{key}.busy_s", busy[key])
            put(f"{key}.self_s", self_s[key])
        put("sampling.candidates_scored", c["sampling.candidates_scored"])
        put("sampling.select_batchbald.gflop", c["sampling.select_batchbald.flop"] / 1e9)
        for key in ("acquisition.categorical_entropy", "acquisition.score_image"):
            put(f"{key}.calls", calls[key])
            put(f"{key}.busy_s", busy[key])
        put("acquisition.score_image.detections", c["acquisition.score_image.detections"])
        put("fusion.read_anchor_records.busy_s", busy["fusion.read_anchor_records"])
        put("fusion.read_anchor_records.bytes", c["fusion.read_anchor_records.bytes"])
        put("fusion.read_anchor_records.anchors", c["fusion.read_anchor_records.anchors"])
        put("fusion.bayesod_inference.calls", calls["fusion.bayesod_inference"])
        put("fusion.bayesod_inference.busy_s", busy["fusion.bayesod_inference"])
        put("fusion.bayesod_inference.self_s", self_s["fusion.bayesod_inference"])
        put("fusion.cluster_anchors.busy_s", busy["fusion.cluster_anchors"])
        put("fusion.fuse_gaussian.calls", calls["fusion.fuse_gaussian"])
        put("fusion.fuse_gaussian.busy_s", busy["fusion.fuse_gaussian"])
        m["fusion.anchors_per_cluster"] = (c["fusion.anchors_in"] / c["fusion.clusters"]
                                           if c["fusion.clusters"] else 0.0)
        put("synthdata.synth_detector_outputs.calls", calls["synthdata.synth_detector_outputs"])
        put("synthdata.synth_detector_outputs.busy_s", busy["synthdata.synth_detector_outputs"])
        put("synthdata.anchors_generated", c["synthdata.anchors_generated"])
        put("loop.run_al.self_s", self_s["loop.run_al"])
        put("loop.detect.calls", calls["loop.detect"])
        m["loop.detect.unique_ratio"] = (len(self._detect_keys) / calls["loop.detect"]
                                         if calls["loop.detect"] else 0.0)
        put("loop.evaluate_detection.busy_s", busy["loop.evaluate_detection"])
        put("loop.evaluate_classifier.busy_s", busy["loop.evaluate_classifier"])
        put("loop.artifacts.busy_s", busy["loop.artifacts"])
        put("cli.execute_run.self_s", self_s["cli.execute_run"])
        put("cli.cmd_score.self_s", self_s["cli.cmd_score"])
        module_self = self.module_self_time()
        for mod in MODULES:
            put(f"module.{mod}.self_s", module_self[mod])
        return m

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tcell\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.cell}\n")


# -- counters taken from each call's arguments and result ---------------

def _count_fit(tracer, args, kwargs, result, parent):
    x, cfg = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 3, "cfg")
    tracer.counts["learner.fit.steps"] += cfg.epochs * math.ceil(_rows(x) / cfg.batch_size)


def _count_rows(tracer, args, kwargs, result, parent):
    tracer.counts["learner.predict_mean.rows"] += _rows(_arg(args, kwargs, 1, "x"))


def _candidates(counter):
    """Candidates a selector ranks; a selector called by another selector
    (topn inside subsample_topn) is already counted by its caller."""
    def count(tracer, args, kwargs, result, parent):
        if not parent.startswith("sampling."):
            tracer.counts["sampling.candidates_scored"] += counter(args, kwargs)
    return count


def _count_batchbald(tracer, args, kwargs, result, parent):
    probs = _arg(args, kwargs, 0, "prob_samples")
    b = _arg(args, kwargs, 1, "b")
    k = args[2] if len(args) > 2 else kwargs.get("mc_count", 100)
    n, t, c = probs.shape
    # the einsum of every pick after the first: 2*N*K*T*C flop
    tracer.counts["sampling.select_batchbald.flop"] += 2 * n * k * t * c * (b - 1)
    tracer.counts["sampling.candidates_scored"] += n


_SELECTOR_COUNTS = {
    "select_random": None,
    "select_topn": _candidates(lambda a, kw: len(_arg(a, kw, 0, "scores"))),
    "select_subsample_topn": _candidates(
        lambda a, kw: math.ceil(_arg(a, kw, 2, "p") * len(_arg(a, kw, 0, "pool_ids")))),
    "select_coreset": _candidates(lambda a, kw: _rows(_arg(a, kw, 0, "pool_features"))),
    "select_batchbald": _count_batchbald,
    "select_clue": _candidates(lambda a, kw: _rows(_arg(a, kw, 0, "pool_features"))),
}


def _count_detections(tracer, args, kwargs, result, parent):
    tracer.counts["acquisition.score_image.detections"] += len(_arg(args, kwargs, 0, "detections"))


def _count_records(tracer, args, kwargs, result, parent):
    tracer.counts["fusion.read_anchor_records.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    tracer.counts["fusion.read_anchor_records.anchors"] += sum(len(p) for _, p in result)


def _count_clusters(tracer, args, kwargs, result, parent):
    tracer.counts["fusion.anchors_in"] += len(_arg(args, kwargs, 0, "preds"))
    tracer.counts["fusion.clusters"] += len(result)


def _count_anchors(tracer, args, kwargs, result, parent):
    tracer.counts["synthdata.anchors_generated"] += len(result)


def _count_detect(tracer, args, kwargs, result, parent):
    seed = _arg(args, kwargs, 2, "seed")
    entropy = getattr(seed, "entropy", seed)
    key = tuple(entropy) if isinstance(entropy, (list, tuple)) else entropy
    tracer._detect_keys.add((tracer.cell, key, id(_arg(args, kwargs, 1, "scene"))))


# -- predictions the traced run checks ------------------------------------

CLS = ("cls-sweep", "cls-batchbald")
SWEEPS = CLS + ("det-sweep",)
ALL = SWEEPS + ("det-score",)

# span name -> workloads that must call it; every other workload must not.
COVERAGE = {
    "learner.fit": CLS,
    "learner.predict_mean": CLS,
    "learner.predict_samples": ("cls-batchbald",),
    "learner.features": ("cls-sweep",),
    **{f"sampling.{sel}": ("cls-sweep", "det-sweep")
       for sel in SELECTORS if sel != "select_batchbald"},
    "sampling.select_batchbald": ("cls-batchbald",),
    "acquisition.categorical_entropy": ("cls-sweep",),
    "acquisition.score_image": ("det-sweep", "det-score"),
    "fusion.read_anchor_records": ("det-score",),
    "fusion.bayesod_inference": ("det-sweep", "det-score"),
    "fusion.cluster_anchors": ("det-sweep", "det-score"),
    "fusion.fuse_gaussian": ("det-sweep", "det-score"),
    "synthdata.synth_detector_outputs": ("det-sweep",),
    "synthdata.generate": SWEEPS,
    "loop.build_experiment": SWEEPS,
    "loop.run_al": SWEEPS,
    "loop.detect": ("det-sweep",),
    "loop.evaluate_detection": ("det-sweep",),
    "loop.evaluate_classifier": CLS,
    "loop.artifacts": SWEEPS,
    "cli.execute_run": SWEEPS,
    "cli.cmd_score": ("det-score",),
    "cli.main": ALL,
}

# modules predicted to have the largest self time, in any order
TOP_MODULES = {
    "cls-sweep": ("learner",),
    "cls-batchbald": ("sampling",),
    "det-sweep": ("synthdata", "fusion"),
    "det-score": ("fusion",),
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("gflop"):
        return "Gflop"
    if metric.endswith("us_per_step"):
        return "us"
    if metric.endswith(("_ratio", "_frac", "anchors_per_cluster")):
        return "ratio"
    if metric.endswith("bytes"):
        return "B"
    return "count"


def coverage_errors(workload: str, calls: Counter) -> list[str]:
    """Spans whose call count contradicts COVERAGE on this workload."""
    errors = []
    for name, users in COVERAGE.items():
        if workload in users and calls[name] == 0:
            errors.append(f"{name}: predicted in use on {workload}, no calls")
        elif workload not in users and calls[name] > 0:
            errors.append(f"{name}: predicted bypassed on {workload}, "
                          f"{calls[name]} calls")
    return errors
