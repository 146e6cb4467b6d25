"""Informativeness scoring of detections and images.

Per detection, two uncertainty numbers are computed in nats:

* classification: sum of per-class Bernoulli entropies of the fused
  score vector (semantic uncertainty)
* regression: differential entropy of the fused box Gaussian
  k/2 + (k/2) ln(2 pi) + 1/2 ln|C|  (spatial uncertainty; may be
  negative for tight covariances, which is kept as-is)

detection_entropies computes both for a fusion.Detections batch;
score_image combines each pair (weighted sum or max) and aggregates
them per image (max, sum or avg) into one score per image.  Every
x ln x term takes its log from the C library (_xlogx), not from numpy's
vectorised log, whose last bits differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rules import _raise_first_failure, check, checked, finite, finite_nonneg, one_of, shaped

COMB_MODES = ("sum", "max")
AGG_MODES = ("max", "sum", "avg")


@dataclass
class AcquisitionConfig:
    """How detection uncertainties combine into one image score.

    Default weights follow the detection-track setting: classification
    weight 1, regression weight 0.01.  Images with no detections get
    empty_image_score.
    """

    comb: str = checked("sum", one_of(COMB_MODES))
    agg: str = checked("avg", one_of(AGG_MODES))
    w_cls: float = checked(1.0, finite_nonneg)
    w_reg: float = checked(0.01, finite_nonneg)
    empty_image_score: float = checked(0.0, finite)

    __post_init__ = check


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * log(x) with 0 log 0 = 0, and NaN for a negative or NaN x.

    The log is the C library's, through math.log: numpy's vectorised
    np.log differs from it by up to 2 ulp on a fraction of a percent of
    values, and one such bit can flip a TopN rank.
    """
    out = np.where(x == 0, 0.0, np.nan)
    positive = x > 0
    values = x[positive]
    out[positive] = values * np.fromiter(map(math.log, values.tolist()), float, len(values))
    return out


def _bernoulli_entropies(probs: np.ndarray):
    """Per-row sums of Bernoulli entropies of (N, C) class scores.

    Returns the (N,) entropies and the check that every score lies in
    [0, 1].  Each row sums via fsum, so its entropy does not depend on
    entry order.
    """
    out_of_range = ((probs < 0) | (probs > 1)).any(axis=1)
    terms = _xlogx(probs) + _xlogx(1.0 - probs)
    entropies = -np.array([math.fsum(row) for row in terms.tolist()])
    return entropies, [("class scores must lie in [0, 1]", out_of_range)]


def _gaussian_entropies(covs: np.ndarray):
    """Differential entropies of (N, k, k) Gaussian covariances.

    k/2 + (k/2) ln(2 pi) + 1/2 ln|cov|.  Returns the (N,) entropies and
    the checks that each covariance is symmetric and positive definite.
    """
    # np.allclose(cov, cov.T, atol=1e-10) per matrix
    asymmetric = ~np.isclose(covs, np.swapaxes(covs, 1, 2),
                             atol=1e-10).all(axis=(1, 2))
    sign, logdet = np.linalg.slogdet(covs)
    k = covs.shape[-1]
    entropies = 0.5 * k + 0.5 * k * np.log(2.0 * np.pi) + 0.5 * logdet
    return entropies, [("covariance must be symmetric", asymmetric),
                       ("degenerate covariance", sign <= 0)]


def _pair_checks(u_cls: np.ndarray, u_reg: np.ndarray):
    return [("uncertainties must be finite",
             ~(np.isfinite(u_cls) & np.isfinite(u_reg))),
            ("classification entropy cannot be negative", u_cls < 0)]


def _combined(u_cls, u_reg, cfg: AcquisitionConfig):
    """The comb rule on scalars or arrays; max keeps the classification
    term on ties, as Python's max(wc, wr) does."""
    wc = cfg.w_cls * u_cls
    wr = cfg.w_reg * u_reg
    if cfg.comb == "sum":
        return wc + wr
    return np.where(wr > wc, wr, wc)


def categorical_entropy(probs) -> np.ndarray:
    """(N,) Shannon entropies -sum p ln p of the rows of (N, C)
    categorical distributions.

    Each row sums via fsum, so its entropy is exactly permutation
    invariant.  A non-finite entry anywhere raises 'probs must be
    finite' (rules.shaped); among finite rows, those that cannot be
    scored raise the error the first such row would raise alone.
    """
    rows = shaped(probs, "probs", ("N", "C"))
    negative = (rows < 0).any(axis=1)
    # clipped to [0, 2], fsum does not overflow; a row with a negative
    # entry fails the first check, so its total is never read, and one
    # with an entry above 2 is off the sum either way
    totals = np.array([math.fsum(row) for row in np.clip(rows, 0.0, 2.0).tolist()])
    off_sum = np.abs(totals - 1.0) > 1e-9
    with np.errstate(over="ignore"):
        got = float(rows[np.argmax(off_sum)].sum()) if off_sum.any() else None
    _raise_first_failure([("probabilities must be nonnegative", negative),
                          (f"probabilities must sum to 1, got {got!r}", off_sum)])
    return -np.array([math.fsum(row) for row in _xlogx(rows).tolist()])


def detection_entropies(detections) -> tuple[np.ndarray, np.ndarray]:
    """(u_cls, u_reg): the (K,) classification and regression entropies
    of every detection of a fusion.Detections batch, in one pass.  A
    detection that cannot be scored raises the error the first such
    detection would raise alone."""
    u_cls, cls_checks = _bernoulli_entropies(detections.class_probs)
    u_reg, reg_checks = _gaussian_entropies(detections.box_cov)
    _raise_first_failure(cls_checks + reg_checks + _pair_checks(u_cls, u_reg))
    return u_cls, u_reg


def score_image(detections, cfg: AcquisitionConfig) -> np.ndarray:
    """The (n_images,) scores of the images of a fusion.Detections batch.

    Each image aggregates its detections' combined uncertainties, in
    order, with Python's max or sum; an image without detections scores
    cfg.empty_image_score.  Every score must be finite.
    """
    values = _combined(*detection_entropies(detections), cfg).tolist()
    bounds = detections.offsets.tolist()
    scores = []
    for lo, hi in zip(bounds, bounds[1:]):
        image_values = values[lo:hi]
        if not image_values:
            score = cfg.empty_image_score
        elif cfg.agg == "max":
            score = max(image_values)
        elif cfg.agg == "sum":
            score = sum(image_values)
        else:
            score = sum(image_values) / len(image_values)
        scores.append(score)
    scores = np.array(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise ValueError("image score must be finite")
    return scores
