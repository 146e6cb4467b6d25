"""Synthetic paired sim/real data with controllable domain shift.

Classification track: Gaussian-mixture domains where the "real" domain
differs from the "sim" one by a mean translation (covariate shift)
and/or skewed class priors (label shift), independently switchable.

Detection track: random scenes of ground-truth boxes plus a generator
of anchor-level Monte-Carlo detector outputs (noisy box samples and
sigmoid score samples), standing in for a BNN detector head so the
fusion/acquisition stack can run without training an actual detector.

Everything is a pure function of (spec, seed).  Scene generation
draws scene i from the i-th child of SeedSequence(seed).spawn(n), one
scene after another; detector outputs take one seed per scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import Anchors


@dataclass
class ClassificationDomainSpec:
    """A Gaussian-mixture domain: one isotropic blob per class."""

    class_means: np.ndarray          # (C, d)
    cov_scale: float = 1.0
    class_priors: np.ndarray = None  # uniform when omitted

    def __post_init__(self):
        self.class_means = np.atleast_2d(np.asarray(self.class_means, dtype=float))
        if self.cov_scale <= 0:
            raise ValueError("cov_scale must be > 0")
        c = self.class_means.shape[0]
        if self.class_priors is None:
            self.class_priors = np.full(c, 1.0 / c)
        self.class_priors = np.asarray(self.class_priors, dtype=float)
        if abs(self.class_priors.sum() - 1.0) > 1e-9:
            raise ValueError("class_priors must sum to 1")

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]


def shifted_domain(spec: ClassificationDomainSpec, translation=None,
                   priors=None) -> ClassificationDomainSpec:
    """Derive a shifted domain: translate all class means and/or replace priors."""
    means = spec.class_means
    if translation is not None:
        means = means + np.asarray(translation, dtype=float)
    new_priors = spec.class_priors if priors is None else np.asarray(priors, dtype=float)
    return ClassificationDomainSpec(class_means=means, cov_scale=spec.cov_scale,
                                    class_priors=new_priors)


def skewed_priors(n_classes: int, skew: float) -> np.ndarray:
    """Power-law priors p_c proportional to (c+1)^-skew; skew 0 is uniform."""
    if skew < 0:
        raise ValueError("skew must be >= 0")
    raw = (np.arange(n_classes) + 1.0) ** (-skew)
    return raw / raw.sum()


def grid_class_means(n_classes: int, dim: int, separation: float) -> np.ndarray:
    """Well-separated means: one-hot directions scaled by `separation`."""
    if dim < n_classes:
        raise ValueError("dim must be >= n_classes for one-hot class means")
    means = np.zeros((n_classes, dim))
    means[np.arange(n_classes), np.arange(n_classes)] = separation
    return means


def generate_classification(spec: ClassificationDomainSpec, n: int,
                            seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw n labeled points: class from priors, point from its Gaussian.

    Returns the (n, d) points and their (n,) integer labels.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    labels = rng.choice(spec.n_classes, size=n, p=spec.class_priors)
    noise = rng.standard_normal((n, spec.dim)) * np.sqrt(spec.cov_scale)
    return spec.class_means[labels] + noise, labels


# ---------------------------------------------------------------------------
# detection track
# ---------------------------------------------------------------------------

@dataclass
class DetectionScene:
    """Ground truth for one image: class ids and boxes inside an extent."""

    width: float
    height: float
    gt_classes: np.ndarray    # (n_obj,)
    gt_boxes: np.ndarray      # (n_obj, 4)

    def __post_init__(self):
        self.gt_classes = np.asarray(self.gt_classes, dtype=int)
        self.gt_boxes = np.asarray(self.gt_boxes, dtype=float).reshape(-1, 4)

    @property
    def n_objects(self) -> int:
        return len(self.gt_classes)


@dataclass
class DetectionSceneSpec:
    """Scene geometry plus detector-output noise knobs.

    The noise fields accept scalars or per-class arrays of length
    n_classes, so a caller can degrade specific classes (the
    sim-to-real surrogate uses this to model per-class skill).
    """

    width: float = 128.0
    height: float = 128.0
    n_classes: int = 3
    objects_per_scene: tuple[int, int] = (1, 3)
    class_priors: np.ndarray = None
    box_size_range: tuple[float, float] = (24.0, 48.0)
    sigma_box: object = 1.0          # scalar or (C,) pixels
    score_noise: object = 0.5        # scalar or (C,) logit-space sigma
    true_logit: object = 2.0         # scalar or (C,) true-class logit mean
    off_logit: float = -4.0          # off-class logit mean (kept negative)
    miss_prob: object = 0.0          # scalar or (C,) chance an object yields no anchors
    anchors_per_object: int = 3
    mc_samples: int = 10

    def __post_init__(self):
        if self.class_priors is None:
            self.class_priors = np.full(self.n_classes, 1.0 / self.n_classes)
        self.class_priors = np.asarray(self.class_priors, dtype=float)
        if abs(self.class_priors.sum() - 1.0) > 1e-9:
            raise ValueError("class_priors must sum to 1")
        lo, hi = self.objects_per_scene
        if lo < 0 or hi < lo:
            raise ValueError("invalid objects_per_scene range")
        if self.anchors_per_object < 1 or self.mc_samples < 1:
            raise ValueError("need anchors_per_object >= 1 and mc_samples >= 1")
        smin, smax = self.box_size_range
        if smin <= 0 or smax < smin:
            raise ValueError("invalid box_size_range")
        if smax > self.width or smax > self.height:
            raise ValueError("box size range infeasible for scene extent")

    def per_class(self, value) -> np.ndarray:
        arr = np.broadcast_to(np.asarray(value, dtype=float), (self.n_classes,))
        return np.array(arr)


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def generate_detection_scenes(spec: DetectionSceneSpec, n: int,
                              seed) -> list[DetectionScene]:
    """n random scenes with object counts, classes and boxes from the spec."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seeds = _as_seed_sequence(seed).spawn(n)
    scenes = []
    lo, hi = spec.objects_per_scene
    smin, smax = spec.box_size_range
    for child in seeds:
        rng = np.random.default_rng(child)
        n_obj = int(rng.integers(lo, hi + 1))
        classes = rng.choice(spec.n_classes, size=n_obj, p=spec.class_priors)
        boxes = np.empty((n_obj, 4))
        for i in range(n_obj):
            w = rng.uniform(smin, smax)
            h = rng.uniform(smin, smax)
            x0 = rng.uniform(0.0, spec.width - w)
            y0 = rng.uniform(0.0, spec.height - h)
            boxes[i] = (x0, y0, x0 + w, y0 + h)
        scenes.append(DetectionScene(width=spec.width, height=spec.height,
                                     gt_classes=classes, gt_boxes=boxes))
    return scenes


def synth_detector_outputs(scenes, spec: DetectionSceneSpec, seeds) -> Anchors:
    """Anchor-level MC outputs of a batch of scenes, one image per scene.

    Scene i draws from its own generator, default_rng(seeds[i]), so its
    anchors do not depend on the rest of the batch.  Per ground-truth
    object, in order, it draws one uniform for the per-class miss
    probability (only where that is > 0; a missed object yields no
    anchors) and, for a surviving object, one standard_normal((m,
    T * (4 + C))) block: per anchor, T x 4 box jitter, then T x C score
    noise.  Then, once over every anchor of the batch, each anchor's T
    box samples are the ground-truth corners plus jitter (corners
    re-ordered if the jitter inverts them) and its T score vectors the
    sigmoid of the true-class / off-class logits plus noise.  Noisier
    spec values raise the downstream classification and regression
    entropies.  Returns one Anchors whose offsets mark the scenes.
    """
    scenes, seeds = list(scenes), list(seeds)
    if len(scenes) != len(seeds):
        raise ValueError(f"need one seed per scene, got {len(seeds)} seeds "
                         f"for {len(scenes)} scenes")
    sigma_box = spec.per_class(spec.sigma_box)
    score_noise = spec.per_class(spec.score_noise)
    true_logit = spec.per_class(spec.true_logit)
    miss_prob = spec.per_class(spec.miss_prob).tolist()
    t, m, c = spec.mc_samples, spec.anchors_per_object, spec.n_classes

    classes = np.concatenate([np.zeros(0, dtype=int)] + [s.gt_classes for s in scenes])
    gt_boxes = np.concatenate([np.zeros((0, 4))] + [s.gt_boxes for s in scenes])
    draws = np.empty((len(classes), m, t * (4 + c)))
    kept = np.zeros(len(classes), dtype=bool)
    obj = n_kept = 0
    for scene, seed in zip(scenes, seeds):
        rng = np.random.default_rng(seed)
        for cls in scene.gt_classes.tolist():
            if not (miss_prob[cls] > 0 and rng.random() < miss_prob[cls]):
                rng.standard_normal(out=draws[n_kept])
                kept[obj] = True
                n_kept += 1
            obj += 1
    draws, cls, box = draws[:n_kept], classes[kept], gt_boxes[kept]
    scene_of = np.repeat(np.arange(len(scenes)), [s.n_objects for s in scenes])
    per_scene = m * np.bincount(scene_of[kept], minlength=len(scenes))

    jitter = draws[..., :4 * t].reshape(n_kept, m, t, 4)
    samples = box[:, None, None, :] + jitter * sigma_box[cls][:, None, None, None]
    x_lo = np.minimum(samples[..., 0], samples[..., 2] - 1e-3)
    x_hi = np.maximum(samples[..., 2], samples[..., 0] + 1e-3)
    y_lo = np.minimum(samples[..., 1], samples[..., 3] - 1e-3)
    y_hi = np.maximum(samples[..., 3], samples[..., 1] + 1e-3)
    boxes = np.stack([x_lo, y_lo, x_hi, y_hi], axis=-1)
    logits = np.full((n_kept, c), spec.off_logit)
    logits[np.arange(n_kept), cls] = true_logit[cls]
    noise = draws[..., 4 * t:].reshape(n_kept, m, t, c)
    logits = logits[:, None, None, :] + noise * score_noise[cls][:, None, None, None]
    scores = 1.0 / (1.0 + np.exp(-logits))
    return Anchors(scores=scores.reshape(n_kept * m, t, c),
                   boxes=boxes.reshape(n_kept * m, t, 4),
                   offsets=np.concatenate(([0], np.cumsum(per_scene))))
