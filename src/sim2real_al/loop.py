"""The active-learning loop: train on sim, score the pool, select,
oracle-label, fine-tune, evaluate; repeated until the budget runs out.

Holds the two desk-scale tracks (Gaussian-mixture classification with
the MC-dropout learner, synthetic detection with a skill-based
surrogate detector), the evaluation metrics (accuracy, greedy-matching
mAP, inter-class variation), gap bridging reports, and the on-disk run
artifacts (curve CSV + replayable manifest).

Determinism: every random decision derives from the run seed through
fixed SeedSequence streams, so a (config, seed) pair always reproduces
the same curve byte for byte.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from . import acquisition as acq
from . import rules, sampling
from .fusion import (DEFAULT_IOU_THRESHOLD, IOU_THRESHOLD, Detections, bayesod_inference,
                     iou_matrix)
from .learner import DROPOUT_RATE, MCDropoutClassifier, TrainConfig
from .rules import (RuleError, at_least, check, checked, finite, finite_nonneg,
                    finite_positive, in_interval, one_of)
from .synthdata import (ClassificationDomainSpec, DetectionSceneSpec, SceneGeometry, Scenes,
                        generate_classification, generate_detection_scenes,
                        grid_class_means, shifted_domain, skewed_priors,
                        synth_detector_outputs)

# seed stream tags (mixed into SeedSequence entropy)
_TRAIN, _SELECT, _EVAL, _REFERENCE, _SCORE, _PREDICT, _DATA = range(7)
# the one rule of every bridged gap fraction: the run config's and gap_report's
_LEVEL = in_interval(0, 1, "(]")
# the one rule of a run seed: the builders', run_al's and the CLI's
SEED = at_least(0)._replace(text="seed {value} is negative")


def _stream_seed(run_seed: int, stream: int, iteration: int = 0,
                 extra: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(run_seed), stream, iteration, extra])


# ---------------------------------------------------------------------------
# run configuration and curve containers
# ---------------------------------------------------------------------------

@dataclass
class ALRunConfig:
    iterations: int = checked(10, at_least(0))
    selection: sampling.SelectionConfig = field(default_factory=sampling.SelectionConfig)
    acquisition: acq.AcquisitionConfig = field(default_factory=acq.AcquisitionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    level: float = checked(0.95, _LEVEL)  # bridged gap fraction
    replay: bool = True            # fine-tune on sim + all labeled real
    mc_passes: int = checked(10, at_least(1))  # T predictive samples (batchbald scoring)
    iou_threshold: float = checked(DEFAULT_IOU_THRESHOLD, IOU_THRESHOLD)  # clustering, matching
    cls_bayesian: bool = False

    def __post_init__(self):
        check(self)
        if self.selection.strategy == "batchbald" and self.mc_passes < 2:
            raise RuleError("mc_passes", "mc_passes must be >= 2 for batchbald, "
                            "whose mutual information needs two samples")


@dataclass
class ALState:
    """Bookkeeping of one run: acquired ids never return to the pool."""

    pool_ids: list[int]
    labeled_ids: list[int] = field(default_factory=list)

    def acquire(self, ids) -> None:
        ids = list(ids)
        overlap = set(ids) - set(self.pool_ids)
        if overlap:
            raise ValueError(f"ids not in pool: {sorted(overlap)}")
        if len(set(ids)) < len(ids) or set(ids) & set(self.labeled_ids):
            raise ValueError("id acquired twice")
        self.labeled_ids.extend(ids)
        chosen = set(ids)
        self.pool_ids = [i for i in self.pool_ids if i not in chosen]


@dataclass(frozen=True)
class RunStart:
    """A run before its first selection: the sim-trained model, its metric
    and the reference performance; one start serves every strategy of a
    (config, seed), as no part depends on the strategy or is mutated."""

    model: object
    sim_perf: float
    real_perf: float


@dataclass
class CurvePoint:
    iteration: int
    labeled_count: int
    labeled_fraction: float
    metric: float
    icv: float


@dataclass
class LearningCurve:
    points: list[CurvePoint]
    sim_perf: float
    real_perf: float
    strategy: str
    seed: int
    level: float = 0.95
    truncated: bool = False
    selected_ids: list[list[int]] = field(default_factory=list)


@dataclass
class GapReport:
    gap: float
    bridged_fraction: float | None   # None when never bridged
    mean_metric: float
    level: float
    sim_perf: float
    real_perf: float
    inverted: bool = False


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def evaluate_classifier(model, x_test, y_test) -> float:
    """Argmax accuracy of predict_mean on finite (N, D) rows; ties go to the smaller class."""
    x_test = rules.shaped(x_test, "x_test", ("N", "D"))
    if len(x_test) == 0:
        raise ValueError("empty test set")
    probs = model.predict_mean(x_test)
    y_test = rules.labels(y_test, probs.shape[1], rows=len(x_test))
    return float((probs.argmax(axis=1) == y_test).mean())


def evaluate_detection(detections: Detections, scenes: Scenes,
                       iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> float:
    """Mean average precision with greedy confidence-ordered matching.

    Image i of the detections batch is scene i of `scenes`.  Each detection counts
    for its argmax class with its max score as confidence.  A match
    never crosses images, so each image matches on its own: its
    detections in stable descending-confidence order each take the
    unmatched ground-truth box of their class with the best IoU >=
    iou_threshold, the later box on ties.  Per ground-truth class, the
    all-point interpolated AP of its detections in (-confidence, batch
    index) order is then averaged over the classes present in the
    ground truth.
    """
    rules.hold(IOU_THRESHOLD, iou_threshold, "iou_threshold")
    classes, n_gt = np.unique(scenes.classes, return_counts=True)
    if not len(classes):
        raise ValueError("empty ground truth")
    if detections.n_images != scenes.n_images:
        raise ValueError(f"need one image of detections per scene, got "
                         f"{detections.n_images} for {scenes.n_images} scenes")
    labels, confidence = np.zeros(len(detections), dtype=int), np.zeros(len(detections))
    if len(detections):
        labels = detections.class_probs.argmax(axis=1)
        confidence = detections.class_probs.max(axis=1)
    tp = _greedy_matches(detections, labels, confidence, scenes, iou_threshold)
    order = np.argsort(-confidence, kind="stable")
    labels, tp = labels[order], tp[order]
    return float(np.mean([_average_precision(tp[labels == cls], n)
                          for cls, n in zip(classes.tolist(), n_gt.tolist())]))


def _greedy_matches(detections, labels, confidence, scenes, iou_threshold) -> np.ndarray:
    """The (K,) true-positive flags of evaluate_detection's matching.

    All images match together, in rounds: round r takes the r-th
    detection by confidence of every image that has one.  Each
    detection gets one row of IoUs against its image's GT boxes, padded
    to the most boxes any image has.
    """
    offsets = detections.offsets
    counts = np.diff(offsets)
    image = np.repeat(np.arange(len(counts)), counts)
    order = np.lexsort((-confidence, image))    # by image, then by confidence
    n_boxes = np.diff(scenes.offsets)
    scene_of = np.repeat(np.arange(scenes.n_images), n_boxes)
    slot = np.arange(len(scenes)) - scenes.offsets[scene_of]
    gt_boxes = np.zeros((scenes.n_images, n_boxes.max(), 4))
    gt_labels = np.zeros(gt_boxes.shape[:2], dtype=int)
    gt_boxes[scene_of, slot] = scenes.boxes
    gt_labels[scene_of, slot] = scenes.classes
    owner = image[order]
    overlaps = iou_matrix(detections.box_mean[order, None], gt_boxes[owner])[:, 0]
    # -inf marks a box the detection may not take: padding, another
    # class or too little overlap
    allowed = ((np.arange(gt_boxes.shape[1]) < n_boxes[owner, None])
               & (labels[order, None] == gt_labels[owner]) & (overlaps >= iou_threshold))
    overlaps[~allowed] = -np.inf
    taken = np.zeros(gt_labels.shape, dtype=bool)
    tp = np.zeros(len(detections))
    for rnd in range(counts.max()):
        images = np.flatnonzero(counts > rnd)
        rows = offsets[images] + rnd
        candidates = np.where(taken[images], -np.inf, overlaps[rows])
        best = candidates.shape[1] - 1 - candidates[:, ::-1].argmax(axis=1)  # later box on ties
        hit = candidates[np.arange(len(rows)), best] > -np.inf
        taken[images[hit], best[hit]] = True
        tp[order[rows[hit]]] = 1.0
    return tp


def _average_precision(tp: np.ndarray, n_gt: int) -> float:
    """All-point interpolated AP from confidence-ordered TP flags."""
    if len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.arange(1, len(tp) + 1)
    # precision envelope (monotone non-increasing from the right)
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    # the area under the envelope, summed in recall order: cumsum adds
    # one term at a time, where np.sum would add pairwise
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def inter_class_variation(labels, n_classes: int) -> float:
    """Population std of per-class instance counts times the class count.

    Zero-count classes are included; an empty selection scores 0.
    """
    n_classes = rules.count(n_classes, "n_classes")
    counts = np.bincount(rules.labels(labels, n_classes), minlength=n_classes)
    return float(np.std(counts) * n_classes)


def gap_report(curve: LearningCurve) -> GapReport:
    """Gap arithmetic of the curve's sim_perf, real_perf and level (checked,
    as a curve rebuilt from a damaged manifest may carry any): bridged when
    the curve first reaches sim_perf + level * (real_perf - sim_perf)."""
    sim_perf, real_perf = curve.sim_perf, curve.real_perf
    level = rules.hold(_LEVEL, curve.level, "level")
    inverted = real_perf < sim_perf
    gap = real_perf - sim_perf
    threshold = sim_perf + level * gap
    bridged = None
    for point in curve.points:
        if point.metric >= threshold:
            bridged = point.labeled_fraction
            break
    later = [p.metric for p in curve.points if p.iteration >= 1]
    mean_metric = float(np.mean(later)) if later else float("nan")
    return GapReport(gap=gap, bridged_fraction=bridged, mean_metric=mean_metric,
                     level=level, sim_perf=sim_perf, real_perf=real_perf,
                     inverted=inverted)


# ---------------------------------------------------------------------------
# dataset bundles; each track's oracle is its pool's `take`
# ---------------------------------------------------------------------------

@dataclass
class ClassificationDatasets:
    sim_x: np.ndarray
    sim_y: np.ndarray
    pool_x: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int


@dataclass
class DetectionDatasets:
    sim_scenes: Scenes
    pool_scenes: Scenes
    test_scenes: Scenes
    n_classes: int


# ---------------------------------------------------------------------------
# detection-track surrogate detector
# ---------------------------------------------------------------------------

@dataclass
class SurrogateParams:
    """How per-class skill maps labeled-instance counts to output noise.

    Skill s = e / (e + kappa) with e = sim_weight * n_sim + n_real
    counted per class; each noise knob interpolates linearly from its
    weak (s=0) to its strong (s=1) end.
    """

    kappa: float = checked(40.0, finite_positive)
    sim_weight: float = checked(0.15, finite, at_least(0))
    true_logit_weak: float = 0.3
    true_logit_strong: float = 3.0
    sigma_box_weak: float = 6.0
    sigma_box_strong: float = 0.8
    score_noise_weak: float = 1.5
    score_noise_strong: float = 0.3
    miss_weak: float = 0.5
    miss_strong: float = 0.02


class DetectionSurrogate:
    """Stand-in detector whose per-class output quality tracks how many
    labeled instances of that class it has seen (sim counts discounted).

    Immutable: with_sim / with_real return new snapshots, so each
    snapshot derives its output_spec once.
    """

    def __init__(self, scene_spec: DetectionSceneSpec, params: SurrogateParams,
                 sim_counts=None, real_counts=None):
        self.scene_spec = scene_spec
        self.params = params
        c = scene_spec.n_classes
        self.sim_counts = np.zeros(c) if sim_counts is None else np.asarray(sim_counts, dtype=float)
        self.real_counts = np.zeros(c) if real_counts is None else np.asarray(real_counts, dtype=float)
        self.output_spec = self._derive_output_spec()

    def _counted(self, scenes: Scenes) -> np.ndarray:
        n_classes = self.scene_spec.n_classes
        return np.bincount(rules.labels(scenes.classes, n_classes), minlength=n_classes)

    def with_sim(self, scenes: Scenes) -> "DetectionSurrogate":
        return DetectionSurrogate(self.scene_spec, self.params,
                                  self.sim_counts + self._counted(scenes),
                                  self.real_counts)

    def with_real(self, scenes: Scenes) -> "DetectionSurrogate":
        return DetectionSurrogate(self.scene_spec, self.params,
                                  self.sim_counts,
                                  self.real_counts + self._counted(scenes))

    def competence(self) -> np.ndarray:
        """The per-class skill; a sim_weight that overflows the weighted
        counts makes it NaN, which is a ValueError naming the key."""
        with np.errstate(over="ignore", invalid="ignore"):
            e = self.params.sim_weight * self.sim_counts + self.real_counts
            skill = e / (e + self.params.kappa)
        if not np.isfinite(skill).all():
            raise ValueError(f"surrogate.sim_weight {self.params.sim_weight!r} "
                             f"makes the skill non-finite")
        return skill

    def _derive_output_spec(self) -> DetectionSceneSpec:
        s = self.competence()
        p = self.params

        def interp(weak, strong):
            return weak + (strong - weak) * s

        return replace(self.scene_spec,
                       sigma_box=interp(p.sigma_box_weak, p.sigma_box_strong),
                       score_noise=interp(p.score_noise_weak, p.score_noise_strong),
                       true_logit=interp(p.true_logit_weak, p.true_logit_strong),
                       miss_prob=interp(p.miss_weak, p.miss_strong))

    def detect(self, scenes: Scenes, keys, iou_threshold: float = DEFAULT_IOU_THRESHOLD,
               cls_bayesian: bool = False, prefix=()) -> Detections:
        """Fused detections of a batch of scenes at the current skill
        level, one image per scene; scene i draws from the stream of
        SeedSequence([*prefix, keys[i]]) (synth_detector_outputs)."""
        anchors = synth_detector_outputs(scenes, self.output_spec, keys, prefix)
        return bayesod_inference(anchors, iou_threshold, cls_bayesian)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def _track(cfg: ALRunConfig, datasets, seed: int):
    if isinstance(datasets, ClassificationDatasets):
        return _ClassificationTrack(cfg, datasets, seed)
    if isinstance(datasets, DetectionDatasets):
        return _DetectionTrack(cfg, datasets, seed)
    raise TypeError(f"unsupported dataset bundle {type(datasets).__name__}")


# the strategies each track runs: batchbald needs per-item
# class-probability samples, which the detection surrogate does not produce
TRACK_STRATEGIES = {"classification": sampling.STRATEGIES,
                    "detection": tuple(s for s in sampling.STRATEGIES if s != "batchbald")}
# the one rule of each track's strategy: the track's own and the CLI's
TRACK_RULES = {track: one_of(names, f"strategy {{value!r}} is not available on the {track} track")
               for track, names in TRACK_STRATEGIES.items()}


def run_cells(cfg: ALRunConfig, build, strategies, seeds):
    """Yields each (strategy, seed, run) cell, strategy by strategy;
    run() builds the seed's experiment with build(seed) and returns the
    cell's curve.  The first cell of a seed to run computes its RunStart
    and the seed's later cells share it, so each curve equals a lone
    run_al's."""
    starts: dict[int, RunStart] = {}

    def run(cell_cfg, seed):
        datasets, oracle, learner = build(seed)
        if seed not in starts:
            starts[seed] = _run_start(cell_cfg, datasets, learner, oracle, seed)
        return run_al(cell_cfg, datasets, learner, oracle, seed, starts[seed])

    for strategy in strategies:
        cell_cfg = replace(cfg, selection=replace(cfg.selection, strategy=strategy))
        for seed in seeds:
            yield strategy, seed, functools.partial(run, cell_cfg, seed)


def _run_start(cfg: ALRunConfig, datasets, learner, oracle, seed: int) -> RunStart:
    """The fit on sim, the iteration-0 evaluation, then the reference,
    each from its own seed stream."""
    track = _track(cfg, datasets, seed)
    track.start(learner)
    sim_perf = track.evaluate(0)
    return RunStart(track.model, sim_perf, track.reference_perf(
        learner, oracle(list(range(track.pool_size)))))


def run_al(cfg: ALRunConfig, datasets, learner, oracle, seed: int = 0,
           start: RunStart | None = None) -> LearningCurve:
    """One full active-learning run; see module docstring for the steps.

    One skeleton serves both tracks: a track object holds the current
    model and supplies the track's own steps (start, evaluate, the
    reference performance, learning from a labeled batch, the batch's
    labels) and what each selection strategy needs from the model.
    The run begins at `start`, or when it is None computes its own.
    """
    rules.hold(SEED, seed, "seed")
    track = _track(cfg, datasets, seed)
    start = start or _run_start(cfg, datasets, learner, oracle, seed)
    track.model = start.model
    n_pool0 = track.pool_size
    state = ALState(pool_ids=list(range(n_pool0)))

    points = [CurvePoint(0, 0, 0.0, start.sim_perf, 0.0)]
    selected_log: list[list[int]] = []
    truncated = False
    for it in range(1, cfg.iterations + 1):
        if _cannot_fill_batch(cfg.selection, len(state.pool_ids)):
            truncated = True
            break
        ids = _select(cfg, track, state.pool_ids, seed, it)
        batch = oracle(ids)
        state.acquire(ids)
        track.learn(ids, batch, it)
        metric = track.evaluate(it)
        count = len(state.labeled_ids)
        icv = inter_class_variation(track.labels(batch), datasets.n_classes)
        points.append(CurvePoint(it, count, count / n_pool0, metric, icv))
        selected_log.append(list(ids))

    return LearningCurve(points=points, sim_perf=start.sim_perf, real_perf=start.real_perf,
                         strategy=cfg.selection.strategy, seed=seed,
                         level=cfg.level, truncated=truncated,
                         selected_ids=selected_log)


def _cannot_fill_batch(sel, pool_size: int) -> bool:
    """True once the pool, or for subsample_topn its sub-sample, holds
    fewer than batch_size candidates; the loop then truncates."""
    if sel.strategy == "subsample_topn":
        pool_size = sampling.subsample_size(sel.subsample_fraction, pool_size)
    return pool_size < sel.batch_size


def _select(cfg, track, pool_ids, seed, it) -> list:
    """B pool ids by the configured strategy, from the track's inputs:
    the scores of a list of ids, pool and labeled features, clue
    weights or MC samples of the current model."""
    sel = cfg.selection
    sel_seed = _stream_seed(seed, _SELECT, it, cfg.selection.seed)
    scores = functools.partial(track.scores, it=it)
    if sel.strategy == "random":
        return sampling.select_random(pool_ids, sel.batch_size, sel_seed)
    if sel.strategy == "topn":
        return sampling.select_topn(list(zip(pool_ids, scores(pool_ids))),
                                    sel.batch_size)
    if sel.strategy == "subsample_topn":
        return sampling.select_subsample_topn(pool_ids, scores,
                                              sel.subsample_fraction,
                                              sel.batch_size, sel_seed)
    if sel.strategy == "coreset":
        idx = sampling.select_coreset(track.pool_features(pool_ids, it),
                                      track.labeled_features(it), sel.batch_size)
    elif sel.strategy == "batchbald":
        idx = sampling.select_batchbald(track.mc_samples(pool_ids, it),
                                        sel.batch_size, sel.mc_count, sel_seed)
    else:   # clue, the last strategy a track's rule lets through
        idx = sampling.select_clue(track.pool_features(pool_ids, it),
                                   np.maximum(scores(pool_ids), 0.0),
                                   sel.batch_size, sel_seed)
    return [pool_ids[i] for i in idx]


class _ClassificationTrack:
    """The MC-dropout learner on sim arrays plus the labeled pool rows."""

    def __init__(self, cfg, data: ClassificationDatasets, seed: int):
        rules.hold(TRACK_RULES["classification"], cfg.selection.strategy, "selection.strategy")
        self.cfg, self.data, self.seed = cfg, data, seed
        self.x_sim = np.asarray(data.sim_x, dtype=float)
        self.y_sim = np.asarray(data.sim_y, dtype=int)
        self.pool_x = np.asarray(data.pool_x, dtype=float)
        self.pool_size = self.pool_x.shape[0]
        self.labeled_x = self.pool_x[:0]
        self.labeled_y = np.empty(0, dtype=int)

    def _train_cfg(self, stream, it, **fixed) -> TrainConfig:
        return replace(self.cfg.train, **fixed,
                       seed=_seed_int(_stream_seed(self.seed, stream, it)))

    def start(self, learner) -> None:
        self.model = learner.fit(self.x_sim, self.y_sim,
                                 self._train_cfg(_TRAIN, 0, fine_tune=False))

    def evaluate(self, it) -> float:
        return evaluate_classifier(self.model, self.data.test_x, self.data.test_y)

    def reference_perf(self, learner, pool_y) -> float:
        ref = learner.fit(self.pool_x, pool_y,
                          self._train_cfg(_REFERENCE, 0, fine_tune=False))
        return evaluate_classifier(ref, self.data.test_x, self.data.test_y)

    def learn(self, ids, batch, it) -> None:
        self.labeled_x = np.concatenate([self.labeled_x, self.pool_x[ids]])
        self.labeled_y = np.concatenate([self.labeled_y, self.labels(batch)])
        if self.cfg.replay:
            x = np.vstack([self.x_sim, self.labeled_x])
            y = np.concatenate([self.y_sim, self.labeled_y])
        else:
            x, y = self.labeled_x, self.labeled_y
        self.model = self.model.fit(x, y, self._train_cfg(_TRAIN, it))

    @staticmethod
    def labels(batch) -> np.ndarray:
        return np.asarray(batch, dtype=int)

    def scores(self, pool_ids, it) -> np.ndarray:
        return acq.categorical_entropy(self.model.predict_mean(self.pool_x[pool_ids]))

    def pool_features(self, pool_ids, it) -> np.ndarray:
        return self.model.features(self.pool_x[pool_ids])

    def labeled_features(self, it) -> np.ndarray:
        return self.model.features(np.vstack([self.x_sim, self.labeled_x]))

    def mc_samples(self, pool_ids, it) -> np.ndarray:
        return self.model.predict_samples(
            self.pool_x[pool_ids], self.cfg.mc_passes,
            seed=_seed_int(_stream_seed(self.seed, _PREDICT, it)))


class _DetectionTrack:
    """The skill surrogate on scenes; labeled scenes start with sim's.

    Each detection need is one batch: the test scenes of an evaluation,
    the pool ids a selection asks about, the labeled scenes for coreset.
    """

    def __init__(self, cfg, data: DetectionDatasets, seed: int):
        rules.hold(TRACK_RULES["detection"], cfg.selection.strategy, "selection.strategy")
        self.cfg, self.data, self.seed = cfg, data, seed
        self.pool_size = data.pool_scenes.n_images
        self.labeled_scenes = data.sim_scenes
        self._pool_dets = (None, None)   # (pool ids, their detections by the current model)

    def _detect(self, model, scenes, stream, it, extras) -> Detections:
        # scene i draws from the stream of _stream_seed(seed, stream, it, extras[i])
        return model.detect(scenes, list(extras), iou_threshold=self.cfg.iou_threshold,
                            cls_bayesian=self.cfg.cls_bayesian,
                            prefix=(int(self.seed), stream, it))

    def _mean_ap(self, model, stream, it) -> float:
        scenes = self.data.test_scenes
        detections = self._detect(model, scenes, stream, it, range(scenes.n_images))
        return evaluate_detection(detections, scenes, self.cfg.iou_threshold)

    def start(self, learner) -> None:
        self.model = learner.with_sim(self.data.sim_scenes)

    def evaluate(self, it) -> float:
        return self._mean_ap(self.model, _EVAL, it)

    def reference_perf(self, learner, pool_scenes) -> float:
        ref = DetectionSurrogate(learner.scene_spec, learner.params)
        return self._mean_ap(ref.with_real(pool_scenes), _REFERENCE, 0)

    def learn(self, ids, batch, it) -> None:
        self.model = self.model.with_real(batch)
        self.labeled_scenes = Scenes.concatenate([self.labeled_scenes, batch])
        self._pool_dets = (None, None)

    @staticmethod
    def labels(batch: Scenes) -> np.ndarray:
        return batch.classes

    def _pool_detections(self, pool_ids, it) -> Detections:
        # detect is a pure function of (model, scenes, seeds), and clue
        # asks twice about the same ids
        pool_ids = tuple(pool_ids)
        if self._pool_dets[0] != pool_ids:
            scenes = self.data.pool_scenes.take(pool_ids)
            self._pool_dets = (pool_ids, self._detect(self.model, scenes, _SCORE,
                                                      it, pool_ids))
        return self._pool_dets[1]

    def scores(self, pool_ids, it) -> np.ndarray:
        return acq.score_image(self._pool_detections(pool_ids, it), self.cfg.acquisition)

    def pool_features(self, pool_ids, it) -> np.ndarray:
        return _scene_features(self._pool_detections(pool_ids, it),
                               self.model.scene_spec.n_classes)

    def labeled_features(self, it) -> np.ndarray:
        scenes = self.labeled_scenes
        extras = range(self.pool_size, self.pool_size + scenes.n_images)
        return _scene_features(self._detect(self.model, scenes, _SCORE, it, extras),
                               self.model.scene_spec.n_classes)


def _scene_features(detections: Detections, n_classes: int) -> np.ndarray:
    """Image-level embeddings, one row per image: mean fused class scores
    (np.mean per image, so each row keeps its reduction order) plus the
    detection count."""
    bounds = detections.offsets.tolist()
    features = np.zeros((detections.n_images, n_classes + 1))
    for row, lo, hi in zip(features, bounds, bounds[1:]):
        if hi > lo:
            row[:-1] = np.mean(detections.class_probs[lo:hi], axis=0)
            row[-1] = hi - lo
    return features


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# experiment assembly (shared by the CLI, demos and acceptance suite)
# ---------------------------------------------------------------------------

@dataclass
class ClassificationExperimentSpec:
    """Digits-analog track: Gaussian mixtures with a sim->real shift.

    Defaults are calibrated so a sim-trained model lands well under a
    real-trained one and the pool's rare classes carry the signal that
    uncertainty selection must find.
    """

    n_classes: int = checked(8, at_least(1))
    dim: int = 8
    sim_size: int = checked(500, at_least(1))
    pool_size: int = checked(2000, at_least(1))
    test_size: int = checked(1000, at_least(1))
    class_separation: float = checked(4.0, finite)
    cov_scale: float = checked(1.0, finite_positive)
    mean_shift: float = checked(5.5, finite)    # translation magnitude (covariate shift)
    label_skew: float = checked(2.5, finite_nonneg)  # power-law pool priors (label shift)
    hidden_dim: int = checked(64, at_least(1))
    dropout_rate: float = checked(0.1, DROPOUT_RATE)
    seed: int = checked(100, at_least(0))  # dataset stream base, mixed with the run seed

    def __post_init__(self):
        check(self)
        if self.dim < self.n_classes:
            raise RuleError("dim", "dim must be >= n_classes")


def build_classification_experiment(spec: ClassificationExperimentSpec,
                                    run_seed: int):
    """Datasets, oracle and learner template for one run seed."""
    rules.hold(SEED, run_seed, "run_seed")
    data_ss = np.random.SeedSequence([spec.seed, _DATA, int(run_seed)])
    s_sim, s_pool, s_test, s_dir = data_ss.spawn(4)

    means = grid_class_means(spec.n_classes, spec.dim, spec.class_separation)
    sim_domain = ClassificationDomainSpec(class_means=means,
                                          cov_scale=spec.cov_scale)
    direction = np.random.default_rng(s_dir).standard_normal(spec.dim)
    direction /= np.linalg.norm(direction)
    real_domain = shifted_domain(
        sim_domain,
        translation=spec.mean_shift * direction,
        priors=skewed_priors(spec.n_classes, spec.label_skew))
    # real test set keeps the covariate shift but uniform labels
    test_domain = shifted_domain(sim_domain,
                                 translation=spec.mean_shift * direction)

    sim_x, sim_y = generate_classification(sim_domain, spec.sim_size, s_sim)
    pool_x, pool_y = generate_classification(real_domain, spec.pool_size, s_pool)
    test_x, test_y = generate_classification(test_domain, spec.test_size, s_test)

    datasets = ClassificationDatasets(sim_x=sim_x, sim_y=sim_y, pool_x=pool_x,
                                      test_x=test_x, test_y=test_y,
                                      n_classes=spec.n_classes)
    learner = MCDropoutClassifier(spec.dim, spec.hidden_dim, spec.n_classes,
                                  dropout_rate=spec.dropout_rate)
    return datasets, pool_y.take, learner


@dataclass
class DetectionExperimentSpec(SceneGeometry):
    """Detection-analog track: synthetic scenes plus the skill surrogate."""

    sim_scenes: int = checked(100, at_least(1))
    pool_scenes: int = checked(400, at_least(1))
    test_scenes: int = checked(160, at_least(1))
    label_skew: float = checked(1.5, finite_nonneg)
    surrogate: SurrogateParams = field(default_factory=SurrogateParams, metadata={"nested": True})
    seed: int = checked(100, at_least(0))


def build_detection_experiment(spec: DetectionExperimentSpec, run_seed: int):
    """Datasets, oracle and surrogate template for one run seed."""
    rules.hold(SEED, run_seed, "run_seed")
    data_ss = np.random.SeedSequence([spec.seed, _DATA, int(run_seed)])
    s_sim, s_pool, s_test = data_ss.spawn(3)

    base = DetectionSceneSpec(**{f.name: getattr(spec, f.name) for f in fields(SceneGeometry)})
    pool_spec = replace(base, class_priors=skewed_priors(spec.n_classes,
                                                         spec.label_skew))

    sim_scenes = generate_detection_scenes(base, spec.sim_scenes, s_sim)
    pool_scenes = generate_detection_scenes(pool_spec, spec.pool_scenes, s_pool)
    test_scenes = generate_detection_scenes(base, spec.test_scenes, s_test)

    datasets = DetectionDatasets(sim_scenes=sim_scenes, pool_scenes=pool_scenes,
                                 test_scenes=test_scenes,
                                 n_classes=spec.n_classes)
    learner = DetectionSurrogate(base, spec.surrogate)
    return datasets, pool_scenes.take, learner


# ---------------------------------------------------------------------------
# run artifacts: curve CSV and replayable manifest
# ---------------------------------------------------------------------------

CSV_HEADER = "run_seed,strategy,iteration,labeled_count,labeled_fraction,metric,icv"


def curve_csv_text(curves) -> str:
    lines = [CSV_HEADER]
    for curve in curves:
        for p in curve.points:
            lines.append(f"{curve.seed},{curve.strategy},{p.iteration},"
                         f"{p.labeled_count},{repr(p.labeled_fraction)},"
                         f"{repr(p.metric)},{repr(p.icv)}")
    return "\n".join(lines) + "\n"


def write_curve_csv(path, curves) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(curve_csv_text(curves))


def read_curve_csv(path) -> dict:
    """Rows grouped by run seed: {seed: list of CurvePoint}."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    by_seed: dict[int, list[CurvePoint]] = {}
    for ln in lines[1:]:
        seed, _, it, count, frac, metric, icv = ln.split(",")
        by_seed.setdefault(int(seed), []).append(
            CurvePoint(int(it), int(count), float(frac), float(metric), float(icv)))
    return by_seed


def manifest_text(config_items: dict, curves) -> str:
    """Replayable run record: versions, resolved config, per-run outcomes.

    Deliberately free of timestamps and filesystem paths so that
    reruns of the same (config, seed) are byte-identical.
    """
    lines = ["manifest_version = 1",
             f"package_version = {__version__}",
             f"numpy_version = {np.__version__}"]
    for key in sorted(config_items):
        lines.append(f"config.{key} = {config_items[key]}")
    for curve in curves:
        tag = f"run.{curve.seed}"
        lines.append(f"{tag}.strategy = {curve.strategy}")
        lines.append(f"{tag}.level = {repr(curve.level)}")
        lines.append(f"{tag}.sim_perf = {repr(curve.sim_perf)}")
        lines.append(f"{tag}.real_perf = {repr(curve.real_perf)}")
        lines.append(f"{tag}.truncated = {curve.truncated}")
        for it, ids in enumerate(curve.selected_ids, start=1):
            lines.append(f"{tag}.selected.{it} = " + ",".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"


def write_manifest(path, config_items: dict, curves) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest_text(config_items, curves))


def read_manifest(path) -> dict:
    """Flat key -> string value mapping of a manifest file; a value may
    be empty (`key = `)."""
    items = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = raw.partition(" = ")
            if not sep:
                raise ValueError(f"{path}:{lineno}: malformed manifest line {line!r}")
            items[key.strip()] = value.strip()
    if items.get("manifest_version") != "1":
        raise ValueError(f"{path}: unsupported or missing manifest_version")
    return items


def curve_from_artifacts(manifest: dict, points: dict, seed: int) -> LearningCurve:
    """Rebuild a LearningCurve from the manifest and read_curve_csv's points."""
    tag = f"run.{seed}"
    selected = []
    it = 1
    while f"{tag}.selected.{it}" in manifest:
        raw = manifest[f"{tag}.selected.{it}"]
        selected.append([int(v) for v in raw.split(",")] if raw else [])
        it += 1
    return LearningCurve(points=points[seed],
                         sim_perf=float(manifest[f"{tag}.sim_perf"]),
                         real_perf=float(manifest[f"{tag}.real_perf"]),
                         strategy=manifest[f"{tag}.strategy"],
                         seed=seed,
                         level=float(manifest[f"{tag}.level"]),
                         truncated=manifest[f"{tag}.truncated"] == "True",
                         selected_ids=selected)
