"""Workload definitions and input generation for the benchmark.

Every input is made here from the workload seed, without package code,
so that two commits under comparison read byte-identical configs and
interchange files.  The program only ever sees these files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STRATEGIES = "random,topn,subsample_topn,coreset,clue"

# The digits-analog preset, scaled so that one pass takes a few seconds
# on two cores: smaller pool, fewer epochs and iterations.  Everything
# else (dimensions, shift, skew, learner shape, B, p) is the preset's.
_CLASSIFICATION = """\
config_version = 1
track = classification
name = {name}
seeds = {seeds}
dataset.seed = {data_seed}
dataset.n_classes = 8
dataset.dim = 8
dataset.sim_size = 500
dataset.pool_size = {pool_size}
dataset.test_size = 1000
dataset.class_separation = 4.0
dataset.cov_scale = 1.0
dataset.mean_shift = 5.5
dataset.label_skew = 2.5
dataset.hidden_dim = 64
dataset.dropout_rate = 0.1
selection.strategy = {strategy}
selection.batch_size = 20
selection.subsample_fraction = 0.25
selection.mc_count = 100
selection.seed = 0
train.epochs = 40
train.learning_rate = 0.15
train.batch_size = 32
train.fine_tune = true
loop.iterations = {iterations}
loop.level = 0.95
loop.replay = true
loop.mc_passes = 10
strategies = {strategies}
"""

# The detection-analog preset with a smaller pool, test set and batch.
# The pool stays large enough that ceil(p * |pool|) >= B on every
# iteration, so subsample_topn never runs out of candidates.
_DETECTION = """\
config_version = 1
track = detection
name = {name}
seeds = {seeds}
dataset.seed = {data_seed}
dataset.n_classes = 3
dataset.width = 128
dataset.height = 128
dataset.objects_min = 1
dataset.objects_max = 3
dataset.box_min = 24
dataset.box_max = 48
dataset.anchors_per_object = 3
dataset.mc_samples = 10
dataset.sim_scenes = 100
dataset.pool_scenes = {pool_size}
dataset.test_scenes = 60
dataset.label_skew = 1.5
surrogate.kappa = 40.0
surrogate.sim_weight = 0.15
acquisition.comb = sum
acquisition.agg = avg
acquisition.w_cls = 1.0
acquisition.w_reg = 0.01
selection.strategy = subsample_topn
selection.batch_size = 20
selection.subsample_fraction = 0.5
selection.seed = 0
loop.iterations = {iterations}
loop.level = 0.95
loop.iou_threshold = 0.5
loop.cls_bayesian = false
strategies = {strategies}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep" or "score"
    template: str = ""
    command: str = ""         # cli subcommand for sweeps: "sweep" or "run"
    strategies: str = ""
    strategy: str = ""
    iterations: int = 0
    pool_size: int = 0
    batch_size: int = 0
    run_seeds: int = 1        # run seeds per pass, derived from the workload seed
    tail_percentile: int = 90  # iter_s_tail; fixed, min_passes() backs it

    def seeds(self, seed: int) -> list[int]:
        return [seed + 1000 * k for k in range(self.run_seeds)]

    def cells(self, seed: int) -> list[tuple[str, int]]:
        """(strategy, run seed) of every cell of one pass."""
        return [(s, r) for s in self.strategies.split(",") for r in self.seeds(seed)]

    def samples_per_pass(self) -> int:
        """iter_s samples of one pass: gaps between batches, or requests."""
        if self.kind == "score":
            return SCORE_FILES
        return len(self.cells(0)) * (self.iterations - 1)

    def min_passes(self) -> int:
        """Fewest passes whose samples leave ten beyond the tail percentile."""
        needed = math.ceil(1000 / (100 - self.tail_percentile))
        return max(2, math.ceil(needed / self.samples_per_pass()))


# det-score inputs: SCORE_FILES interchange files of SCORE_IMAGES images
# each; one `score` call per file is one request of the closed loop.
SCORE_FILES = 8
SCORE_IMAGES = 25
SCORE_CLASSES = 3
SCORE_T = 20
SCORE_ANCHORS_PER_OBJECT = 8
SCORE_OBJECTS = (6, 10)

WORKLOADS = {
    "cls-sweep": Workload("cls-sweep", "sweep", _CLASSIFICATION, "sweep",
                          STRATEGIES, "subsample_topn", iterations=6,
                          pool_size=400, batch_size=20, run_seeds=2,
                          tail_percentile=90),
    "cls-batchbald": Workload("cls-batchbald", "sweep", _CLASSIFICATION, "run",
                              "batchbald", "batchbald", iterations=10,
                              pool_size=400, batch_size=20, run_seeds=2,
                              tail_percentile=70),
    "det-sweep": Workload("det-sweep", "sweep", _DETECTION, "sweep",
                          STRATEGIES, "subsample_topn", iterations=5,
                          pool_size=160, batch_size=20, tail_percentile=75),
    "det-score": Workload("det-score", "score", tail_percentile=75),
}


def config_text(w: Workload, seed: int) -> str:
    seeds = ",".join(str(r) for r in w.seeds(seed))
    return w.template.format(name=w.name, seeds=seeds, data_seed=1000 + seed,
                             strategy=w.strategy, strategies=w.strategies,
                             iterations=w.iterations, pool_size=w.pool_size)


def score_file_names() -> list[str]:
    return [f"anchors-{i}.txt" for i in range(SCORE_FILES)]


def prepare(w: Workload, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's inputs into out_dir and return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if w.kind == "sweep":
        path = out_dir / f"{w.name}.cfg"
        path.write_text(config_text(w, seed))
        return [path]
    rng = np.random.default_rng([seed, 7])
    paths = []
    for fi, name in enumerate(score_file_names()):
        path = out_dir / name
        with open(path, "w") as fh:
            fh.write("# anchor-sample interchange v1\n")
            for ii in range(SCORE_IMAGES):
                fh.write(_image_block(rng, f"img{fi * SCORE_IMAGES + ii:05d}"))
        paths.append(path)
    return paths


def _image_block(rng: np.random.Generator, image_id: str) -> str:
    """One image of dense anchors: 8 jittered anchors per object, each
    with T score vectors and T boxes, written in the v1 text layout."""
    n_obj = int(rng.integers(SCORE_OBJECTS[0], SCORE_OBJECTS[1] + 1))
    a, t, c = SCORE_ANCHORS_PER_OBJECT, SCORE_T, SCORE_CLASSES
    wh = rng.uniform(24.0, 64.0, size=(n_obj, 2))
    x0 = rng.uniform(0.0, 512.0 - wh[:, 0])
    y0 = rng.uniform(0.0, 512.0 - wh[:, 1])
    gt = np.stack([x0, y0, x0 + wh[:, 0], y0 + wh[:, 1]], axis=1)
    classes = rng.integers(0, c, size=n_obj)
    # anchor means: ground truth shifted by a few pixels; samples jitter
    # around the anchor mean with a per-anchor spread
    anchor_mean = gt[:, None, :] + rng.normal(0.0, 3.0, size=(n_obj, a, 4))
    spread = rng.uniform(0.5, 4.0, size=(n_obj, a, 1, 1))
    boxes = anchor_mean[:, :, None, :] + spread * rng.standard_normal((n_obj, a, t, 4))
    lo = np.minimum(boxes[..., :2], boxes[..., 2:] - 1e-3)
    hi = np.maximum(boxes[..., 2:], boxes[..., :2] + 1e-3)
    boxes = np.concatenate([lo, hi], axis=-1)
    logits = np.full((n_obj, a, t, c), -3.0)
    logits[np.arange(n_obj), :, :, classes] = 2.0
    logits += rng.normal(0.0, 1.0, size=(n_obj, a, 1, 1)) * rng.standard_normal((n_obj, a, t, c))
    scores = np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-6, 1.0 - 1e-6)

    n_anchors = n_obj * a
    score_rows = scores.reshape(n_anchors, t, c)
    box_rows = boxes.reshape(n_anchors, t, 4)
    # fixed precision, as detector dumps are usually written
    score_fmt = " ".join(["%.6f"] * c) + "\n"
    box_fmt = " ".join(["%.3f"] * 4) + "\n"
    anchor_fmt = score_fmt * t + box_fmt * t
    parts = [f"image {image_id} {c} {t} {n_anchors}\n"]
    for s_rows, b_rows in zip(score_rows, box_rows):
        parts.append(anchor_fmt % tuple(s_rows.ravel().tolist() + b_rows.ravel().tolist()))
    return "".join(parts)
