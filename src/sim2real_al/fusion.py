"""Anchor-level clustering and Bayesian fusion of detector outputs.

Replaces hard NMS suppression: anchor predictions carrying Monte-Carlo
samples are grouped by spatial affinity (IoU of mean boxes) and every
cluster is fused into a single detection with a per-class score vector
and a Gaussian box distribution (mean + 4x4 covariance).

Fusion rules
------------
classification:  elementwise product of the member mean score vectors
                 (independent per-class Bernoullis; optional categorical
                 renormalization behind a flag)
regression:      product of Gaussians, i.e. precision-weighted fusion:
                 P = sum_i P_i,  mu = P^-1 sum_i P_i mu_i

Covariances get a small diagonal regularizer before inversion so that
noise-free synthetic samples do not produce singular matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COV_REGULARIZER = 1e-6
DEFAULT_IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class Anchors:
    """Monte-Carlo samples of one image's A anchors, T samples each.

    scores: (A, T, C) array, entries in [0, 1]
    boxes:  (A, T, 4) array of (x_min, y_min, x_max, y_max)

    The only place anchor samples are validated; len() is A.
    """

    scores: np.ndarray
    boxes: np.ndarray

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=float)
        boxes = np.ascontiguousarray(self.boxes, dtype=float)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "boxes", boxes)
        if (scores.ndim != 3 or boxes.ndim != 3 or boxes.shape[2] != 4
                or scores.shape[:2] != boxes.shape[:2]):
            raise ValueError(f"need (A, T, C) scores and (A, T, 4) boxes, got "
                             f"{scores.shape} and {boxes.shape}")
        if len(scores) and scores.shape[1] < 1:
            raise ValueError("need at least one Monte-Carlo sample")
        if not (np.isfinite(scores).all() and np.isfinite(boxes).all()):
            raise ValueError("anchor samples must be finite")
        if np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("scores must lie in [0, 1]")

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass
class FusedDetection:
    """One output detection: class score vector plus Gaussian box."""

    class_probs: np.ndarray   # (n_classes,)
    box_mean: np.ndarray      # (4,)
    box_cov: np.ndarray       # (4, 4), symmetric positive definite
    cluster_size: int = 1

    @property
    def label(self) -> int:
        """argmax class, ties broken toward the smaller index."""
        return int(np.argmax(self.class_probs))

    @property
    def confidence(self) -> float:
        return float(self.class_probs[self.label])


def iou_matrix(a, b) -> np.ndarray:
    """(N, M) IoU matrix of boxes a (N, 4) and b (M, 4); 0 where they do not overlap."""
    a = np.asarray(a, dtype=float).reshape(-1, 1, 4)
    b = np.asarray(b, dtype=float).reshape(1, -1, 4)
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((ix > 0) & (iy > 0), inter / (area_a + area_b - inter), 0.0)


def mc_statistics(samples) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased covariance of (..., T, 4) samples.

    Statistics run over the sample axis (second to last), so a stack
    of anchors yields stacked means and covariances.  A single sample
    yields a zero covariance matrix by convention.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("no samples")
    mean = samples.mean(axis=-2)
    t, k = samples.shape[-2:]
    if t == 1:
        return mean, np.zeros(samples.shape[:-2] + (k, k))
    centered = samples - mean[..., None, :]
    cov = np.swapaxes(centered, -1, -2) @ centered / (t - 1)
    return mean, cov


def cluster_anchors(anchors: Anchors,
                    iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> list[np.ndarray]:
    """Greedy score-descending clustering by mean-box IoU.

    The highest-scoring unassigned anchor becomes a cluster center and
    absorbs every unassigned anchor whose mean box overlaps it with
    IoU >= iou_threshold.  Score ties break toward the lower anchor
    index.  Every anchor ends up in exactly one cluster; each cluster
    is an array of anchor indices, center first, then the members in
    score order.
    """
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


def fuse_categorical(mean_scores, renormalize: bool = False) -> np.ndarray:
    """Per-class product of a cluster's (n, C) member mean score vectors.

    Default keeps the independent-Bernoulli form (no renormalization);
    renormalize=True divides by the sum to interpret the result as a
    categorical distribution.  Products run in log space.
    """
    mean_scores = np.asarray(mean_scores, dtype=float)
    log_prod = np.zeros(mean_scores.shape[1])
    for scores in mean_scores:
        with np.errstate(divide="ignore"):
            log_prod += np.log(scores)
    probs = np.exp(log_prod)
    if renormalize:
        total = probs.sum()
        if total <= 0:
            raise ValueError("all-zero class products cannot be renormalized")
        probs = probs / total
    return probs


def fuse_gaussian(box_samples,
                  regularizer: float = COV_REGULARIZER) -> tuple[np.ndarray, np.ndarray]:
    """Precision-weighted product-of-Gaussians fusion of a cluster.

    box_samples holds the cluster's (n, T, 4) box samples.  Each member
    is reduced to (mean, cov) via mc_statistics, the covariance
    regularized with `regularizer` on the diagonal, and the Gaussians
    multiplied: fused precision is the sum of member precisions, fused
    mean the precision-weighted mean.
    """
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


def bayesod_inference(anchors: Anchors,
                      iou_threshold: float = DEFAULT_IOU_THRESHOLD,
                      cls_bayesian: bool = False,
                      regularizer: float = COV_REGULARIZER) -> list[FusedDetection]:
    """Cluster anchors and fuse each cluster into one detection.

    The box samples always go through Gaussian fusion; class scores go
    through the categorical product only when cls_bayesian is set,
    otherwise the cluster center's mean scores are used (Bayesian
    inference on the regression head only).
    """
    detections = []
    for members in cluster_anchors(anchors, iou_threshold):
        box_mean, box_cov = fuse_gaussian(anchors.boxes[members], regularizer)
        mean_scores = anchors.scores[members].mean(axis=1)
        if cls_bayesian:
            class_probs = fuse_categorical(mean_scores)
        else:
            class_probs = mean_scores[0]
        detections.append(FusedDetection(class_probs=class_probs,
                                         box_mean=box_mean,
                                         box_cov=box_cov,
                                         cluster_size=len(members)))
    return detections


# ---------------------------------------------------------------------------
# anchor-sample interchange format
#
# One block per image, whitespace-separated, '#' starts a comment line:
#
#   image <image_id> <n_classes> <T> <n_anchors>
#   <for each anchor, in order:>
#       T lines of n_classes score values
#       T lines of 4 box values (x_min y_min x_max y_max)
#
# Field order is fixed; floats are written with repr so files round-trip
# exactly.
# ---------------------------------------------------------------------------

def write_anchor_records(path, records) -> None:
    """Write (image_id, Anchors) pairs to a text file."""
    with open(path, "w") as fh:
        fh.write("# anchor-sample interchange v1\n")
        for image_id, anchors in records:
            t, n_classes = anchors.scores.shape[1:] if len(anchors) else (0, 0)
            fh.write(f"image {image_id} {n_classes} {t} {len(anchors)}\n")
            for scores, boxes in zip(anchors.scores, anchors.boxes):
                for row in [*scores, *boxes]:
                    fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_anchor_records(path) -> list[tuple[str, Anchors]]:
    """Read back records written by write_anchor_records.

    Raises ValueError on a malformed header, and naming the image on a
    repeated image id, a truncated or ragged anchor block or samples
    that Anchors rejects.
    """
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
        if image_id in seen:
            raise ValueError(f"image {image_id}: duplicate image id")
        seen.add(image_id)
        n_classes, t, n_anchors = int(parts[2]), int(parts[3]), int(parts[4])
        rows = [ln.split() for ln in lines[pos + 1:pos + 1 + 2 * t * n_anchors]]
        pos += 1 + 2 * t * n_anchors
        widths = np.array([len(row) for row in rows], dtype=int)
        # per anchor: t score rows of n_classes values, then t box rows of 4
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
