"""Anchor-level clustering and Bayesian fusion of detector outputs.

Replaces hard NMS suppression: anchor predictions carrying Monte-Carlo
samples are grouped by spatial affinity (IoU of mean boxes) and every
cluster is fused into a single detection with a per-class score vector
and a Gaussian box distribution (mean + 4x4 covariance).

Fusion rules
------------
classification:  elementwise product of the member mean score vectors
                 (independent per-class Bernoullis, not renormalized)
regression:      product of Gaussians, i.e. precision-weighted fusion:
                 P = sum_i P_i,  mu = P^-1 sum_i P_i mu_i

Covariances get a small diagonal regularizer before inversion so that
noise-free synthetic samples do not produce singular matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .rules import (BLOCK_ENTRIES, finite_nonneg, hold, in_interval, indices, rising,
                    shaped, unit_interval, whole)

COV_REGULARIZER = 1e-6
# the one default and rule of every iou_threshold: clustering, matching, the run config
DEFAULT_IOU_THRESHOLD = 0.5
IOU_THRESHOLD = in_interval(0, 1, "[]")


class Ragged:
    """The layout of every ragged batch (Anchors, Detections and
    synthdata.Scenes): each dataclass field but `offsets` holds one row
    per item, and `offsets` (n_images + 1,) rises from 0 to the row count,
    so image i holds rows offsets[i]:offsets[i + 1], as each batch checks
    when built (rules.shaped, which also keeps every entry finite, and
    rules.rising).  len() counts all rows."""

    def __len__(self) -> int:
        return int(self.offsets[-1])

    @property
    def n_images(self) -> int:
        return len(self.offsets) - 1

    def _set(self, **checked):
        """Store a frozen batch's checked fields."""
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def take(self, ids):
        """The images `ids`, in that order; each id is an image index, once."""
        message = f"ids must be distinct image indices in [0, {self.n_images})"
        ids = indices(ids, self.n_images, message)
        if len(np.unique(ids)) < len(ids):
            raise ValueError(message)
        counts = np.diff(self.offsets)[ids]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        rows = np.arange(offsets[-1]) + np.repeat(self.offsets[ids] - offsets[:-1], counts)
        return type(self)(**{f.name: getattr(self, f.name)[rows] for f in fields(self)
                             if f.name != "offsets"}, offsets=offsets)

    @classmethod
    def concatenate(cls, parts):
        """One batch of the images of every part, in order; each field's
        rows have the same trailing shape in every part, and there is at
        least one part."""
        parts = list(parts)
        if not parts:
            raise ValueError(f"{cls.__name__}.concatenate needs at least one batch")
        counts = np.concatenate([np.diff(part.offsets) for part in parts])
        return cls(**{f.name: np.concatenate([getattr(part, f.name) for part in parts])
                      for f in fields(cls) if f.name != "offsets"},
                   offsets=np.concatenate(([0], np.cumsum(counts))))


@dataclass(frozen=True)
class Anchors(Ragged):
    """Monte-Carlo samples of the anchors of one or more images, T samples
    each, in the Ragged layout; offsets omitted, the A anchors are one image.

    scores:  (A, T, C) array, entries in [0, 1]
    boxes:   (A, T, 4) array of finite (x_min, y_min, x_max, y_max)

    T >= 1 when A > 0.  The only place anchor samples are validated;
    len() is A.
    """

    scores: np.ndarray
    boxes: np.ndarray
    offsets: np.ndarray = None

    def __post_init__(self):
        scores = np.ascontiguousarray(shaped(self.scores, "scores", ("A", "T", "C")))
        boxes = np.ascontiguousarray(shaped(self.boxes, "boxes", (*scores.shape[:2], 4)))
        if len(scores) and scores.shape[1] < 1:
            raise ValueError("need at least one Monte-Carlo sample")
        unit_interval(scores, "scores")
        offsets = [0, len(scores)] if self.offsets is None else self.offsets
        self._set(scores=scores, boxes=boxes, offsets=rising(offsets, len(scores), "anchor"))


@dataclass(frozen=True)
class Detections(Ragged):
    """Fused detections of one or more images, in the Ragged layout:
    class_probs (K, C), box_mean (K, 4) and box_cov (K, 4, 4), each
    finite, and cluster_size (K,) whole numbers >= 1 hold one row per
    detection.  len() is K.  Acquisition checks the ranges it scores."""

    class_probs: np.ndarray
    box_mean: np.ndarray
    box_cov: np.ndarray
    cluster_size: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        class_probs = shaped(self.class_probs, "class_probs", ("K", "C"))
        k = len(class_probs)
        box_mean = shaped(self.box_mean, "box_mean", (k, 4))
        box_cov = shaped(self.box_cov, "box_cov", (k, 4, 4))
        cluster_size = whole(self.cluster_size)
        if cluster_size is None or cluster_size.shape != (k,) or np.any(cluster_size < 1):
            raise ValueError("cluster_size must hold one whole number >= 1 per detection")
        self._set(class_probs=class_probs, box_mean=box_mean, box_cov=box_cov,
                  cluster_size=cluster_size, offsets=rising(self.offsets, k, "detection"))


def iou_matrix(a, b) -> np.ndarray:
    """(..., N, M) IoU matrix of boxes a (..., N, 4) and b (..., M, 4); 0
    where they do not overlap.  Leading axes broadcast, so a stack of
    images gives one IoU block per image."""
    a = shaped(a, "a", (..., "N", 4))[..., :, None, :]
    b = shaped(b, "b", (..., "M", 4))[..., None, :, :]
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
    samples = shaped(samples, "samples", (..., "T", 4))
    if samples.size == 0:
        raise ValueError("no samples")
    mean = samples.mean(axis=-2)
    t, k = samples.shape[-2:]
    if t == 1:
        return mean, np.zeros(samples.shape[:-2] + (k, k))
    centered = samples - mean[..., None, :]
    cov = np.swapaxes(centered, -1, -2) @ centered / (t - 1)
    return mean, cov


def cluster_anchors(anchors: Anchors, iou_threshold: float = DEFAULT_IOU_THRESHOLD
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Greedy score-descending clustering by mean-box IoU, per image.

    In each image the highest-scoring unassigned anchor becomes a
    cluster center and absorbs every unassigned anchor of that image
    whose mean box overlaps it with IoU >= iou_threshold.  Score ties
    break toward the lower anchor index.  Every anchor ends up in
    exactly one cluster.  Returns (members, offsets): members (A,)
    holds anchor indices into the batch, and cluster k is
    members[offsets[k]:offsets[k + 1]], center first, then the members
    in score order.  Clusters come image by image, each image's in the
    order they form.

    All images cluster together, in rounds: each round takes the top
    unassigned anchor of every image that still has one, so there are
    as many rounds as the most clusters any image has.  Images go in
    blocks of at most BLOCK_ENTRIES padded IoU entries (images x widest
    image squared), so a batch of wide images needs no more memory than
    a few of them.
    """
    hold(IOU_THRESHOLD, iou_threshold, "iou_threshold")
    if len(anchors) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp)
    top_scores = anchors.scores.mean(axis=1).max(axis=1)
    mean_boxes = anchors.boxes.mean(axis=1)
    offsets = anchors.offsets
    width = int(np.diff(offsets).max())
    step = max(1, BLOCK_ENTRIES // width ** 2)
    members, starts, placed = [], [], 0
    for first in range(0, anchors.n_images, step):
        block = offsets[first:first + step + 1]
        m, s = _cluster_rounds(top_scores, mean_boxes, block, iou_threshold)
        members.append(m)
        starts.append(s + placed)
        placed += len(m)
    return np.concatenate(members), np.append(np.concatenate(starts), placed)


def _cluster_rounds(top_scores, mean_boxes, offsets, iou_threshold):
    """cluster_anchors on the images of one block: anchor indices in
    cluster order, and the position where each cluster starts."""
    counts = np.diff(offsets)
    n, width = len(counts), int(counts.max())
    if width == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    valid = np.arange(width) < counts[:, None]
    index = np.where(valid, offsets[:-1, None] + np.arange(width), 0)
    # per image, anchors by descending score (stable), padding last
    order = np.argsort(np.where(valid, -top_scores[index], np.inf), axis=1,
                       kind="stable")
    index = np.take_along_axis(index, order, axis=1)
    boxes = np.where(valid[..., None], mean_boxes[index], 0.0)
    near = iou_matrix(boxes, boxes) >= iou_threshold   # rows and columns in score order
    near[:, np.arange(width), np.arange(width)] = True  # a center joins its own cluster
    free = valid.copy()                                # padding sorts last, so valid holds
    joined = np.full((n, width), width)                # round each anchor joins in
    rows = np.arange(n)
    for rnd in range(width):
        taken = free & near[rows, free.argmax(axis=1)]  # the top free anchor's cluster
        if not taken.any():
            break
        joined[taken] = rnd
        free ^= taken
    # per image by round, then by score: each cluster's center comes first
    by_round = np.argsort(joined, axis=1, kind="stable")
    members = np.take_along_axis(index, by_round, axis=1)[valid]
    rounds = np.take_along_axis(joined, by_round, axis=1)[valid]
    image = np.repeat(rows, counts)
    new = np.ones(len(members), dtype=bool)
    new[1:] = (rounds[1:] != rounds[:-1]) | (image[1:] != image[:-1])
    return members, np.flatnonzero(new)


def fuse_categorical(mean_scores, members, offsets) -> np.ndarray:
    """Per-class products of the (n, C) member mean score vectors of each
    of K clusters: cluster k is mean_scores[members[offsets[k]:offsets[k + 1]]]
    (as from cluster_anchors); every score is finite and lies in
    [0, 1], as Anchors' scores do.  offsets rise from 0 to len(members)
    (rules.rising), and members are row indices (rules.indices), so a
    -1 is rejected, not read as the last row.

    The products keep the independent-Bernoulli form: they are not
    renormalized into a categorical distribution.  Products run in log
    space, in member order.  Returns (K, C).
    """
    offsets = rising(offsets, len(members), "member")
    k = len(offsets) - 1
    owner = np.repeat(np.arange(k), np.diff(offsets))
    mean_scores = unit_interval(shaped(mean_scores, "mean_scores", ("N", "C")), "mean_scores")
    members = indices(members, len(mean_scores), "members must be rows of mean_scores")
    log_prod = np.zeros((k, mean_scores.shape[1]))
    with np.errstate(divide="ignore"):
        np.add.at(log_prod, owner, np.log(mean_scores[members]))
    return np.exp(log_prod)


def fuse_gaussian(box_samples, members, offsets,
                  regularizer: float = COV_REGULARIZER) -> tuple[np.ndarray, np.ndarray]:
    """Precision-weighted product-of-Gaussians fusion of K clusters.

    box_samples holds the batch's (A, T, 4) box samples; cluster k is
    box_samples[members[offsets[k]:offsets[k + 1]]] (as from cluster_anchors).
    Each member is reduced to (mean, cov) via mc_statistics, the
    covariance regularized with `regularizer` on the diagonal, and each
    cluster's Gaussians multiplied: fused precision is the sum of member
    precisions, fused mean the precision-weighted mean.  Sums run in
    member order.  Returns (K, 4) means and (K, 4, 4) covariances.
    members and offsets keep fuse_categorical's rules, and regularizer
    is finite and >= 0.
    """
    hold(finite_nonneg, regularizer, "regularizer")
    offsets = rising(offsets, len(members), "member")
    k = len(offsets) - 1
    owner = np.repeat(np.arange(k), np.diff(offsets))
    members = indices(members, len(box_samples), "members must be rows of box_samples")
    means, covs = mc_statistics(np.asarray(box_samples, dtype=float)[members])
    covs = covs + regularizer * np.eye(4)
    try:
        np.linalg.cholesky(covs)
        precisions = np.linalg.inv(covs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate covariance") from exc
    precision_sum = np.zeros((k, 4, 4))
    weighted_mean_sum = np.zeros((k, 4, 1))
    # ufunc.at adds in index order, so each cluster sums in member order
    np.add.at(precision_sum, owner, precisions)
    np.add.at(weighted_mean_sum, owner, precisions @ means[..., None])
    try:
        fused_cov = np.linalg.inv(precision_sum)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate covariance") from exc
    fused_cov = 0.5 * (fused_cov + np.swapaxes(fused_cov, -1, -2))
    fused_mean = (fused_cov @ weighted_mean_sum)[..., 0]
    return fused_mean, fused_cov


def bayesod_inference(anchors: Anchors,
                      iou_threshold: float = DEFAULT_IOU_THRESHOLD,
                      cls_bayesian: bool = False,
                      regularizer: float = COV_REGULARIZER) -> Detections:
    """Cluster every image's anchors and fuse each cluster into one detection.

    One cluster_anchors call covers the batch, and one fuse_gaussian
    call fuses every cluster's box samples; class scores go through the
    categorical product only when cls_bayesian is set, otherwise the
    cluster center's mean scores are used (Bayesian inference on the
    regression head only).  Returns one Detections batch, image by
    image, whose offsets mark the images of `anchors`.
    """
    members, offsets = cluster_anchors(anchors, iou_threshold)
    n_classes = anchors.scores.shape[2]
    if not len(members):
        return Detections(class_probs=np.zeros((0, n_classes)),
                          box_mean=np.zeros((0, 4)), box_cov=np.zeros((0, 4, 4)),
                          cluster_size=np.zeros(0, dtype=int),
                          offsets=np.zeros(anchors.n_images + 1, dtype=int))
    box_mean, box_cov = fuse_gaussian(anchors.boxes, members, offsets, regularizer)
    mean_scores = anchors.scores.mean(axis=1)
    centers = members[offsets[:-1]]
    if cls_bayesian:
        class_probs = fuse_categorical(mean_scores, members, offsets)
    else:
        class_probs = mean_scores[centers]
    image = np.searchsorted(anchors.offsets, centers, side="right") - 1
    per_image = np.bincount(image, minlength=anchors.n_images)
    return Detections(class_probs=class_probs, box_mean=box_mean, box_cov=box_cov,
                      cluster_size=np.diff(offsets),
                      offsets=np.concatenate(([0], np.cumsum(per_image))))


# ---------------------------------------------------------------------------
# anchor-sample interchange format
#
# One block per image, whitespace-separated, '#' starts a comment line,
# blank lines are ignored:
#
#   image <image_id> <n_classes> <T> <n_anchors>
#   <for each anchor, in order:>
#       T lines of n_classes score values
#       T lines of 4 box values (x_min y_min x_max y_max)
#
# Field order is fixed; a value is any literal Python's float() accepts,
# and an image id is a non-empty token with no ','.  Floats are written
# with repr so files round-trip exactly.
#
# The reader makes one table of the file's '\n'-terminated lines: each
# line's token count (str.split's), -1 for a comment line, and whether it
# holds a code point numpy's C float parser cannot take exactly.  Headers
# and row widths are then checked from the table, and each image's values
# are converted by one C parse, or by float() token by token when a row
# needs it or the C parser rejects a token.
# ---------------------------------------------------------------------------

# str.split()'s whitespace by code point: no code point above U+3000 is
# whitespace, so the last entry stands for all of them
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[[*range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
        0x2028, 0x2029, 0x202F, 0x205F, 0x3000]] = True
_TABLE_CHUNK = 1 << 16   # code points per slice when building the line table


def _line_table(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ends, widths, exact) of the '\n'-terminated lines of text.

    ends holds the offset of each line's '\n', widths its token count
    (str.split's) or -1 for a comment line (first token starting with
    '#'), and exact whether a line other than a comment holds anything
    but printable ASCII other than '_', ' ' and '\n'.  The table is built
    over slices of whole lines of about _TABLE_CHUNK code points each:
    ASCII bytes, or UTF-32 when the text is not ASCII.
    """
    wide = not text.isascii()
    parts = []
    start = 0
    while start < len(text):
        stop = (text.rfind("\n", start, start + _TABLE_CHUNK) + 1
                or text.index("\n", start + _TABLE_CHUNK) + 1)
        codes = (np.frombuffer(text[start:stop].encode("utf-32-le"), np.uint32) if wide
                 else np.frombuffer(text[start:stop].encode("ascii"), np.uint8))
        eol = np.flatnonzero(codes == ord("\n"))
        begins = np.concatenate(([0], eol[:-1] + 1))
        odd = (codes < ord(" ")) | (codes > ord("~")) | (codes == ord("_"))
        odd[eol] = False
        if odd.any():
            space = _SPACE[np.minimum(codes, np.uint32(len(_SPACE) - 1))]
            exact = np.diff(np.searchsorted(np.flatnonzero(odd), eol), prepend=0) > 0
        else:   # then ' ' and '\n' are the only whitespace
            space = (codes == ord(" ")) | (codes == ord("\n"))
            exact = np.zeros(len(eol), dtype=bool)
        heads = ~space                 # the first code point of each token
        heads[1:] &= space[:-1]        # (the slice starts after a '\n')
        widths = np.add.reduceat(heads, begins, dtype=np.int32)
        hashes = np.flatnonzero(heads & (codes == ord("#")))
        if len(hashes):
            # a '#' token makes a comment line when it is the line's first
            lines = np.searchsorted(eol, hashes)
            tokens = np.flatnonzero(heads)
            first = tokens[np.searchsorted(tokens, begins[lines])] == hashes
            widths[lines[first]] = -1
            exact[lines[first]] = False
        parts.append((eol + start, widths, exact))
        start = stop
    return tuple(np.concatenate(column) for column in zip(*parts))


def _parse_values(block: str, exact: bool) -> np.ndarray:
    """The values of block's tokens, with float()'s bits.

    numpy's C parser reads printable ASCII literals with the bits of
    float(), and rejects what float() rejects; joined onto one line, a
    block that it can take is one parse.  A block holding '_', non-ASCII
    digits or other whitespace (exact), or one that the C parser rejects,
    goes through float() token by token, which also words the error.
    """
    if block and not exact:
        try:
            return np.loadtxt([block.replace("\n", " ")], comments=None, ndmin=1)
        except ValueError:
            pass
    return np.array(block.split(), dtype=float)


def write_anchor_records(path, records) -> None:
    """Write (image_id, Anchors) pairs to a text file.

    Raises ValueError on an image id that read_anchor_records would not
    give back (empty, or holding whitespace or ',').
    """
    records = [(str(image_id), anchors) for image_id, anchors in records]
    for image_id, _ in records:  # before the file is touched
        if not image_id or "," in image_id or any(ch.isspace() for ch in image_id):
            raise ValueError(f"image id {image_id!r} cannot be read back: "
                             f"an id is non-empty, with no whitespace or ','")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# anchor-sample interchange v1\n")
        for image_id, anchors in records:
            t, n_classes = anchors.scores.shape[1:] if len(anchors) else (0, 0)
            fh.write(f"image {image_id} {n_classes} {t} {len(anchors)}\n")
            for scores, boxes in zip(anchors.scores, anchors.boxes):
                for row in [*scores, *boxes]:
                    fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_anchor_records(path) -> list[tuple[str, Anchors]]:
    """Read back records written by write_anchor_records.

    Each image's header and line widths are checked against one table of
    the file's lines, and its values converted in one call.  Raises
    ValueError on a malformed header, and naming the image on an id with
    a ',', a repeated image id, a truncated or ragged anchor block, a
    value float() rejects, or samples that Anchors rejects.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        text += "\n"
    ends, widths, exact = _line_table(text)
    kept = np.flatnonzero(widths > 0)   # lines other than blank and comment

    def begin(line):
        return int(ends[line - 1]) + 1 if line else 0

    records = []
    seen = set()
    pos = 0
    while pos < len(kept):
        header = text[begin(kept[pos]):ends[kept[pos]]].strip()
        parts = header.split()
        if (parts[0] != "image" or len(parts) != 5
                or not all(v.isdecimal() for v in parts[2:])):
            raise ValueError(f"malformed image header: {header!r}")
        image_id = parts[1]
        if "," in image_id:
            raise ValueError(f"image {image_id}: an image id cannot hold ','")
        if image_id in seen:
            raise ValueError(f"image {image_id}: duplicate image id")
        seen.add(image_id)
        n_classes, t, n_anchors = int(parts[2]), int(parts[3]), int(parts[4])
        rows = kept[pos + 1:pos + 1 + 2 * t * n_anchors]
        pos += 1 + 2 * t * n_anchors
        # per anchor: t score rows of n_classes values, then t box rows of 4
        if (pos > len(kept) or np.any(
                widths[rows].reshape(n_anchors, 2, t) != [[n_classes], [4]])):
            raise ValueError(f"image {image_id}: truncated or malformed anchor block")
        block, needs_float = "", False
        if len(rows):
            # the rows' text, less that of the comment lines between them
            first, last = int(rows[0]), int(rows[-1])
            comments = first + np.flatnonzero(widths[first:last] < 0)
            lo = [begin(first), *ends[comments].tolist()]
            hi = [*(ends[comments - 1] + 1).tolist(), int(ends[last])]
            block = "".join(text[a:b] for a, b in zip(lo, hi))
            needs_float = exact[first:last + 1].any()
        try:
            values = _parse_values(block, needs_float)
            values = values.reshape(n_anchors, t * (n_classes + 4))
            anchors = Anchors(
                scores=values[:, :t * n_classes].reshape(n_anchors, t, n_classes),
                boxes=values[:, t * n_classes:].reshape(n_anchors, t, 4))
        except ValueError as exc:
            raise ValueError(f"image {image_id}: {exc}") from None
        records.append((image_id, anchors))
    return records
