"""Reference versions of the `score` path, kept to pin the array code.

`fusion.read_anchor_records`, `fusion.fuse_gaussian` /
`fusion.bayesod_inference` and `acquisition.score_image` work on whole
files, images and detection lists.  The functions here are the
line-by-line reader, the one-cluster-at-a-time fusion and the
one-detection-at-a-time scoring they replaced, kept as they were, so
tests can require the same records, the same bits and the same error
messages.  `dense_image_text` writes images shaped like detector dumps
(many anchors per object, fixed-precision values).
"""

import math

import numpy as np
from scipy.special import xlogy

from sim2real_al.acquisition import ImageScore
from sim2real_al.fusion import (COV_REGULARIZER, DEFAULT_IOU_THRESHOLD, Anchors,
                                FusedDetection, cluster_anchors,
                                fuse_categorical, mc_statistics)


# -- fusion: one call per cluster -------------------------------------------

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
    for members in cluster_anchors(anchors, iou_threshold):
        box_mean, box_cov = reference_fuse_gaussian(anchors.boxes[members],
                                                    regularizer)
        mean_scores = anchors.scores[members].mean(axis=1)
        if cls_bayesian:
            class_probs = fuse_categorical(mean_scores)
        else:
            class_probs = mean_scores[0]
        detections.append(FusedDetection(class_probs=class_probs,
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


def reference_score_image(detections, cfg, image_id=0):
    if not detections:
        return ImageScore(image_id=image_id, score=cfg.empty_image_score,
                          n_detections=0)
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
    return ImageScore(image_id=image_id, score=float(score),
                      n_detections=len(values))


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
    scored = [reference_score_image(
        reference_bayesod_inference(anchors, iou_threshold, cls_bayesian),
        cfg, image_id) for image_id, anchors in reference_read_anchor_records(path)]
    scored.sort(key=lambda s: (-s.score, str(s.image_id)))
    return "".join(["image_id,score,n_detections\n"]
                   + [f"{s.image_id},{repr(s.score)},{s.n_detections}\n"
                      for s in scored])


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
