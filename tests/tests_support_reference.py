"""Reference versions of the detection and `score` paths, kept to pin
the array code.

`synthdata.generate_detection_scenes`,
`synthdata.synth_detector_outputs`, `fusion.cluster_anchors`,
`fusion.fuse_gaussian` / `fusion.fuse_categorical` /
`fusion.bayesod_inference`, `acquisition.score_image`,
`loop.evaluate_detection` and `fusion.read_anchor_records` work on
batches of images and on whole files.  The functions here are the
scene generator with one spawned SeedSequence and scalar draws per
object, the one-scene synthesis, the one-center-at-a-time clustering, the
one-cluster-at-a-time fusion, the one-detection-at-a-time scoring and
evaluation, the per-scene counts and labels of the ground truth, and
the line-by-line reader they replaced, kept as they were, so tests can
require the same records, the same bits and the same error messages.
`reference_select_batchbald` is the BatchBALD selector with one
configuration draw and one log per selected item and pick, which
`sampling.select_batchbald` replaced, and
`reference_select_batchbald_all_configs` the one that computed every
Monte-Carlo configuration, repeated ones too; `bald_scores` is the
exact BALD score of its first pick.  They work on `Detection` records, one per
detection, and on `Scene` records, one per image.  `detections_of`
packs per-image record lists into a `fusion.Detections` batch and
`records_of` splits one back; `scenes_of` and `per_scene` do the same
between `Scene` records and a `synthdata.Scenes` batch.
`dense_image_text` writes images shaped like detector dumps (many
anchors per object, fixed-precision values).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from sim2real_al.fusion import (COV_REGULARIZER, DEFAULT_IOU_THRESHOLD, Anchors,
                                Detections, iou_matrix, mc_statistics)
from sim2real_al.sampling import _entropy
from sim2real_al.synthdata import Scenes


@dataclass
class Detection:
    """One detection: class score vector plus Gaussian box."""

    class_probs: np.ndarray   # (n_classes,)
    box_mean: np.ndarray      # (4,)
    box_cov: np.ndarray       # (4, 4)
    cluster_size: int = 1

    @property
    def label(self) -> int:
        """argmax class, ties broken toward the smaller index."""
        return int(np.argmax(self.class_probs))

    @property
    def confidence(self) -> float:
        return float(self.class_probs[self.label])


@dataclass
class Scene:
    """Ground truth of one image: class ids and boxes."""

    gt_classes: np.ndarray    # (n_obj,)
    gt_boxes: np.ndarray      # (n_obj, 4)

    def __post_init__(self):
        self.gt_classes = np.asarray(self.gt_classes, dtype=int)
        self.gt_boxes = np.asarray(self.gt_boxes, dtype=float).reshape(-1, 4)


def scenes_of(scenes):
    """A synthdata.Scenes batch of a list of Scene records."""
    return Scenes(classes=np.concatenate([np.zeros(0, dtype=int)]
                                         + [s.gt_classes for s in scenes]),
                  boxes=np.concatenate([np.zeros((0, 4))] + [s.gt_boxes for s in scenes]),
                  offsets=np.cumsum([0] + [len(s.gt_classes) for s in scenes]))


def per_scene(scenes):
    """The Scene records of a synthdata.Scenes batch, one per image."""
    bounds = scenes.offsets.tolist()
    return [Scene(gt_classes=scenes.classes[lo:hi], gt_boxes=scenes.boxes[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]


# -- ground truth: one scene at a time --------------------------------------

def reference_counts(scenes, n_classes):
    """Per-class object counts of a list of Scene records, one bincount
    per scene (DetectionSurrogate's counts)."""
    counts = np.zeros(n_classes)
    for scene in scenes:
        counts += np.bincount(scene.gt_classes, minlength=n_classes)
    return counts


def reference_labels(batch):
    """The class ids of a list of Scene records, scene by scene (the
    detection track's labels of an oracle batch)."""
    if not batch:
        return np.empty(0, dtype=int)
    return np.concatenate([s.gt_classes for s in batch])


# -- synthesis: one scene, one generator ------------------------------------

def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def reference_generate_detection_scenes(spec, n, seed):
    """n random scenes with object counts, classes and boxes from the spec."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seeds = _as_seed_sequence(seed).spawn(n)
    scenes = []
    lo, hi = spec.objects_min, spec.objects_max
    smin, smax = spec.box_min, spec.box_max
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
        scenes.append(Scene(gt_classes=classes, gt_boxes=boxes))
    return scenes


def reference_synth_detector_outputs(scene, spec, seed):
    rng = np.random.default_rng(seed)
    sigma_box = spec.per_class(spec.sigma_box)
    score_noise = spec.per_class(spec.score_noise)
    true_logit = spec.per_class(spec.true_logit)
    miss_prob = spec.per_class(spec.miss_prob)
    t, m, c = spec.mc_samples, spec.anchors_per_object, spec.n_classes

    scores, boxes = [np.empty((0, t, c))], [np.empty((0, t, 4))]
    for cls, box in zip(scene.gt_classes, scene.gt_boxes):
        if miss_prob[cls] > 0 and rng.random() < miss_prob[cls]:
            continue
        # per anchor: t x 4 box jitter, then t x c score noise (fixes a seed's output)
        draws = rng.standard_normal((m, t * (4 + c)))
        samples = box + draws[:, :4 * t].reshape(m, t, 4) * sigma_box[cls]
        x_lo = np.minimum(samples[..., 0], samples[..., 2] - 1e-3)
        x_hi = np.maximum(samples[..., 2], samples[..., 0] + 1e-3)
        y_lo = np.minimum(samples[..., 1], samples[..., 3] - 1e-3)
        y_hi = np.maximum(samples[..., 3], samples[..., 1] + 1e-3)
        boxes.append(np.stack([x_lo, y_lo, x_hi, y_hi], axis=-1))
        logits = np.full((m, t, c), spec.off_logit)
        logits[..., cls] = true_logit[cls]
        logits = logits + draws[:, 4 * t:].reshape(m, t, c) * score_noise[cls]
        scores.append(1.0 / (1.0 + np.exp(-logits)))
    return Anchors(scores=np.concatenate(scores), boxes=np.concatenate(boxes))


def reference_detect(surrogate, scenes, seeds, iou_threshold=0.5, cls_bayesian=False):
    """`DetectionSurrogate.detect` on a list of Scene records, one scene
    at a time within each stage, and the stages in the batch's order, so
    the first error is the batch's: every scene's synthesis, then every
    image's clustering, then its fusion, then the finite fields that a
    Detections batch keeps.  Returns per-image lists of Detection records."""
    spec = surrogate.output_spec
    anchors = [reference_synth_detector_outputs(scene, spec, seed)
               for scene, seed in zip(scenes, seeds)]
    for image in anchors:
        reference_cluster_anchors(image, iou_threshold)
    images = [reference_bayesod_inference(image, iou_threshold, cls_bayesian)
              for image in anchors]
    detections_of(images)
    return images


# -- clustering: one center at a time ---------------------------------------

def reference_cluster_anchors(anchors, iou_threshold=DEFAULT_IOU_THRESHOLD):
    if not (0.0 <= iou_threshold <= 1.0):
        raise ValueError("iou_threshold must lie in [0, 1]")
    if len(anchors) == 0:
        return []
    top_scores = anchors.scores.mean(axis=1).max(axis=1)
    mean_boxes = anchors.boxes.mean(axis=1)
    overlaps = iou_matrix(mean_boxes, mean_boxes)
    order = np.argsort(-top_scores, kind="stable")

    assigned = np.zeros(len(anchors), dtype=bool)
    clusters = []
    for center in order:
        if assigned[center]:
            continue
        assigned[center] = True
        free = order[~assigned[order]]
        members = free[overlaps[center, free] >= iou_threshold]
        assigned[members] = True
        clusters.append(np.concatenate(([center], members)))
    return clusters


# -- fusion: one call per cluster -------------------------------------------

def reference_fuse_categorical(mean_scores):
    mean_scores = np.asarray(mean_scores, dtype=float)
    log_prod = np.zeros(mean_scores.shape[1])
    for scores in mean_scores:
        with np.errstate(divide="ignore"):
            log_prod += np.log(scores)
    return np.exp(log_prod)


def reference_fuse_gaussian(box_samples, regularizer=COV_REGULARIZER):
    means, covs = mc_statistics(box_samples)
    covs = covs + regularizer * np.eye(4)
    try:
        np.linalg.cholesky(covs)
        precisions = np.linalg.inv(covs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate covariance") from exc
    precision_sum = np.zeros((4, 4))
    weighted_mean_sum = np.zeros(4)
    for precision, mean in zip(precisions, means):
        precision_sum += precision
        weighted_mean_sum += precision @ mean
    try:
        fused_cov = np.linalg.inv(precision_sum)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate covariance") from exc
    fused_cov = 0.5 * (fused_cov + fused_cov.T)
    fused_mean = fused_cov @ weighted_mean_sum
    return fused_mean, fused_cov


def reference_bayesod_inference(anchors, iou_threshold=DEFAULT_IOU_THRESHOLD,
                                cls_bayesian=False, regularizer=COV_REGULARIZER):
    detections = []
    for members in reference_cluster_anchors(anchors, iou_threshold):
        box_mean, box_cov = reference_fuse_gaussian(anchors.boxes[members],
                                                    regularizer)
        mean_scores = anchors.scores[members].mean(axis=1)
        if cls_bayesian:
            class_probs = reference_fuse_categorical(mean_scores)
        else:
            class_probs = mean_scores[0]
        detections.append(Detection(class_probs=class_probs,
                                    box_mean=box_mean, box_cov=box_cov,
                                    cluster_size=len(members)))
    return detections


# -- scoring: one detection at a time ---------------------------------------

def reference_cls_entropy(probs):
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("class scores must lie in [0, 1]")
    return -math.fsum(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p))


def reference_reg_entropy(cov):
    c = np.asarray(cov, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.allclose(c, c.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    sign, logdet = np.linalg.slogdet(c)
    if sign <= 0:
        raise ValueError("degenerate covariance")
    k = c.shape[0]
    return 0.5 * k + 0.5 * k * np.log(2.0 * np.pi) + 0.5 * logdet


def reference_combine(u_cls, u_reg, cfg):
    if not (np.isfinite(u_cls) and np.isfinite(u_reg)):
        raise ValueError("uncertainties must be finite")
    if u_cls < 0:
        raise ValueError("classification entropy cannot be negative")
    wc = cfg.w_cls * u_cls
    wr = cfg.w_reg * u_reg
    if cfg.comb == "sum":
        return wc + wr
    return max(wc, wr)


def reference_score_image(detections, cfg):
    """The score of one image's list of Detection records."""
    if not detections:
        return cfg.empty_image_score
    values = []
    for det in detections:
        values.append(reference_combine(reference_cls_entropy(det.class_probs),
                                        reference_reg_entropy(det.box_cov), cfg))
    if cfg.agg == "max":
        score = max(values)
    elif cfg.agg == "sum":
        score = sum(values)
    else:
        score = sum(values) / len(values)
    if not np.isfinite(score):
        raise ValueError("image score must be finite")
    return float(score)


# -- evaluation: one detection at a time ------------------------------------

def reference_evaluate_detection(detections_per_image, scenes, iou_threshold=0.5):
    n_gt_per_class = {}
    for scene in scenes:
        for cls in scene.gt_classes:
            n_gt_per_class[int(cls)] = n_gt_per_class.get(int(cls), 0) + 1
    if not n_gt_per_class:
        raise ValueError("empty ground truth")

    by_class = {c: [] for c in n_gt_per_class}
    for img_idx, dets in enumerate(detections_per_image):
        for det_idx, det in enumerate(dets):
            label = det.label
            if label in by_class:
                by_class[label].append((det.confidence, img_idx, det_idx))

    overlaps = [iou_matrix([det.box_mean for det in dets], scene.gt_boxes)
                for dets, scene in zip(detections_per_image, scenes)]
    aps = []
    for cls in sorted(n_gt_per_class):
        dets = sorted(by_class[cls], key=lambda d: (-d[0], d[1], d[2]))
        matched = [np.zeros(len(s.gt_classes), dtype=bool) for s in scenes]
        tp = np.zeros(len(dets))
        for rank, (_, img_idx, det_idx) in enumerate(dets):
            best_iou, best_gt = iou_threshold, -1
            for gi, gcls in enumerate(scenes[img_idx].gt_classes):
                if int(gcls) != cls or matched[img_idx][gi]:
                    continue
                overlap = overlaps[img_idx][det_idx, gi]
                if overlap >= best_iou:
                    best_iou, best_gt = overlap, gi
            if best_gt >= 0:
                matched[img_idx][best_gt] = True
                tp[rank] = 1.0
        aps.append(reference_average_precision(tp, n_gt_per_class[cls]))
    return float(np.mean(aps))


def reference_average_precision(tp, n_gt):
    """All-point interpolated AP, the envelope and the area one step at
    a time in recall order."""
    if len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.arange(1, len(tp) + 1)
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, precision):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


# -- Detection records and Detections batches ---------------------------------

def detections_of(images):
    """A fusion.Detections batch of per-image lists of Detection records,
    for calling the batch kernels on hand-made detections."""
    dets = [det for image in images for det in image]
    return Detections(
        class_probs=np.array([d.class_probs for d in dets]) if dets else np.zeros((0, 0)),
        box_mean=np.array([d.box_mean for d in dets]) if dets else np.zeros((0, 4)),
        box_cov=np.array([d.box_cov for d in dets]) if dets else np.zeros((0, 4, 4)),
        cluster_size=np.array([d.cluster_size for d in dets], dtype=int),
        offsets=np.cumsum([0] + [len(image) for image in images]))


def records_of(detections):
    """The per-image lists of Detection records of a fusion.Detections
    batch, the inverse of detections_of."""
    bounds = detections.offsets.tolist()
    return [[Detection(detections.class_probs[k], detections.box_mean[k],
                       detections.box_cov[k], int(detections.cluster_size[k]))
             for k in range(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def assert_same_detections(got, expected):
    """The Detections batch got holds the per-image lists of Detection
    records expected: the same count per image, and every field of every
    detection bit for bit."""
    assert np.diff(got.offsets).tolist() == [len(image) for image in expected]
    rows = [det for image in expected for det in image]
    assert got.cluster_size.tolist() == [det.cluster_size for det in rows]
    for name in ("class_probs", "box_mean", "box_cov"):
        for k, det in enumerate(rows):
            assert np.array_equal(getattr(got, name)[k], getattr(det, name)), name


# -- interchange reader: a stripped-line list and one split per line --------

def reference_read_anchor_records(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.lstrip().startswith("#")]
    records = []
    seen = set()
    pos = 0
    while pos < len(lines):
        parts = lines[pos].split()
        if (parts[0] != "image" or len(parts) != 5
                or not all(v.isdecimal() for v in parts[2:])):
            raise ValueError(f"malformed image header: {lines[pos]!r}")
        image_id = parts[1]
        if "," in image_id:
            raise ValueError(f"image {image_id}: an image id cannot hold ','")
        if image_id in seen:
            raise ValueError(f"image {image_id}: duplicate image id")
        seen.add(image_id)
        n_classes, t, n_anchors = int(parts[2]), int(parts[3]), int(parts[4])
        rows = [ln.split() for ln in lines[pos + 1:pos + 1 + 2 * t * n_anchors]]
        pos += 1 + 2 * t * n_anchors
        widths = np.array([len(row) for row in rows], dtype=int)
        if (pos > len(lines)
                or np.any(widths.reshape(n_anchors, 2, t) != [[n_classes], [4]])):
            raise ValueError(f"image {image_id}: truncated or malformed anchor block")
        try:
            values = np.array([v for row in rows for v in row], dtype=float)
            values = values.reshape(n_anchors, t * (n_classes + 4))
            anchors = Anchors(
                scores=values[:, :t * n_classes].reshape(n_anchors, t, n_classes),
                boxes=values[:, t * n_classes:].reshape(n_anchors, t, 4))
        except ValueError as exc:
            raise ValueError(f"image {image_id}: {exc}") from None
        records.append((image_id, anchors))
    return records


def reference_score_stdout(path, iou_threshold=0.5, cls_bayesian=False,
                           cfg=None) -> str:
    """What `score` prints for a readable file, from the references."""
    scored = []
    for image_id, anchors in reference_read_anchor_records(path):
        dets = reference_bayesod_inference(anchors, iou_threshold, cls_bayesian)
        scored.append((image_id, reference_score_image(dets, cfg), len(dets)))
    scored.sort(key=lambda row: (-row[1], str(row[0])))
    return "".join(["image_id,score,n_detections\n"]
                   + [f"{image_id},{repr(score)},{n}\n" for image_id, score, n in scored])


# -- BatchBALD: per-item configuration draws ---------------------------------

def bald_scores(prob_samples) -> np.ndarray:
    """Mutual information H(mean_t p) - mean_t H(p) per item.

    prob_samples: (N, T, C) stochastic predictive distributions.
    """
    probs = np.asarray(prob_samples, dtype=float)
    return _entropy(probs.mean(axis=1)) - _entropy(probs).mean(axis=1)


def reference_select_batchbald(prob_samples, b, mc_count=100, seed=0):
    """Greedy batch selection by joint mutual information."""
    probs = np.asarray(prob_samples, dtype=float)
    if probs.ndim != 3:
        raise ValueError("prob_samples must be (N, T, C)")
    n, t, c = probs.shape
    if t < 2:
        raise ValueError("mutual information undefined")
    if b > n:
        raise ValueError(f"batch size {b} exceeds pool size {n}")

    h_cond = _entropy(probs).mean(axis=1)

    rng = np.random.default_rng(seed)
    selected: list[int] = []
    available = np.ones(n, dtype=bool)

    first = bald_scores(probs)
    first[~available] = -np.inf
    pick = int(np.argmax(first))
    selected.append(pick)
    available[pick] = False

    k = mc_count
    cond_probs = np.empty((n, k, c))
    while len(selected) < b:
        # sample mc_count label configurations of the selected batch from
        # the plug-in joint (1/T) sum_t prod_i p_it
        t_draws = rng.integers(0, t, size=k)
        log_w = np.zeros((k, t))
        for i in selected:
            cdf = probs[i, t_draws].cumsum(axis=1)  # (k, C)
            y = (cdf < rng.random(k)[:, None]).sum(axis=1)
            y = np.minimum(y, c - 1)
            with np.errstate(divide="ignore"):
                log_w += np.log(probs[i][:, y].T)  # (k, t)
        # posterior weights over t given each sampled configuration
        log_joint = np.logaddexp.reduce(log_w, axis=1) - np.log(t)
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        h_batch = float(-log_joint.mean())

        # candidate conditional entropy H(y_c | batch config), exact in y_c:
        # (k, t) @ (n, t, c) broadcasts to one BLAS product per candidate
        np.matmul(w, probs, out=cond_probs)
        h_c_given = _entropy(cond_probs).mean(axis=1)
        joint_mi = h_batch + h_c_given - (h_cond[selected].sum() + h_cond)
        joint_mi[~available] = -np.inf
        pick = int(np.argmax(joint_mi))
        selected.append(pick)
        available[pick] = False
    return selected


def reference_select_batchbald_all_configs(prob_samples, b, mc_count=100, seed=0):
    """The selector with one configuration draw per pick and every
    later quantity computed on all mc_count configurations, repeated
    ones included, which `sampling.select_batchbald` replaced; its
    inputs are taken as valid."""
    probs = np.asarray(prob_samples, dtype=float)
    n, t, c = probs.shape
    k = mc_count

    h_cond = _entropy(probs).mean(axis=1)
    pick = int(np.argmax(_entropy(probs.mean(axis=1)) - h_cond))  # BALD
    selected = [pick]
    available = np.ones(n, dtype=bool)
    available[pick] = False

    rng = np.random.default_rng(seed)
    cdfs = probs.cumsum(axis=2)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    samples = np.arange(t)
    cond_probs, log_cond = np.empty((n, k, c)), np.empty((n, k, c))
    while len(selected) < b:
        t_draws = rng.integers(0, t, size=k)
        items = np.array(selected)[:, None]
        u = rng.random((len(selected), k))
        y = (cdfs[items, t_draws] < u[:, :, None]).sum(axis=2)   # (picks, k)
        np.minimum(y, c - 1, out=y)
        log_w = np.add.reduce(log_probs[items[:, :, None], samples, y[:, :, None]],
                              axis=0)                            # (k, t)
        log_joint = np.logaddexp.reduce(log_w, axis=1) - np.log(t)
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        h_batch = float(-log_joint.mean())

        np.matmul(w, probs, out=cond_probs)
        if cond_probs.min() > 0:
            np.log(cond_probs, out=log_cond)
            h_c_given = -np.einsum("...c,...c->...", cond_probs, log_cond)
        else:
            h_c_given = _entropy(cond_probs)
        joint_mi = h_batch + h_c_given.mean(axis=1) - (h_cond[selected].sum() + h_cond)
        joint_mi[~available] = -np.inf
        pick = int(np.argmax(joint_mi))
        selected.append(pick)
        available[pick] = False
    return selected


# -- inputs ------------------------------------------------------------------

def dense_image_text(rng, image_id, n_objects=(1, 4), anchors_per_object=8,
                     t=20, n_classes=3, loose=False) -> str:
    """One image block of jittered anchors around a few objects, in
    fixed precision; `loose` adds comment and blank lines, tabs and
    repeated spaces."""
    n_obj = int(rng.integers(n_objects[0], n_objects[1] + 1))
    a = anchors_per_object
    corner = rng.uniform(0.0, 200.0, (n_obj, 2))
    gt = np.concatenate([corner, corner + rng.uniform(20.0, 60.0, (n_obj, 2))], axis=1)
    centers = gt[:, None, :] + rng.normal(0.0, 3.0, (n_obj, a, 4))
    spread = rng.uniform(0.5, 4.0, (n_obj, a, 1, 1))
    boxes = centers[:, :, None, :] + spread * rng.standard_normal((n_obj, a, t, 4))
    logits = np.full((n_obj, a, t, n_classes), -3.0)
    logits[np.arange(n_obj), :, :, rng.integers(0, n_classes, n_obj)] = 2.0
    logits += rng.normal(0.0, 1.0, (n_obj, a, 1, 1)) * rng.standard_normal(logits.shape)
    scores = np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-6, 1.0 - 1e-6)
    rows = []
    for s_rows, b_rows in zip(scores.reshape(-1, t, n_classes), boxes.reshape(-1, t, 4)):
        rows += [["%.6f" % v for v in row] for row in s_rows]
        rows += [["%.3f" % v for v in row] for row in b_rows]
    lines = [f"image {image_id} {n_classes} {t} {n_obj * a}"]
    for row in rows:
        if not loose:
            lines.append(" ".join(row))
            continue
        gaps = rng.choice([" ", "  ", "\t", " \t "], size=len(row) + 1)
        lines.append("".join(g + v for g, v in zip(gaps, row)) + gaps[-1])
        if rng.random() < 0.05:
            lines.append(str(rng.choice(["# comment", "  # indented", "", " \t"])))
    return "\n".join(lines) + "\n"
