"""Informativeness scoring of detections and images.

Per detection, two uncertainty numbers are computed in nats:

* classification: sum of per-class Bernoulli entropies of the fused
  score vector (semantic uncertainty)
* regression: differential entropy of the fused box Gaussian
  k/2 + (k/2) ln(2 pi) + 1/2 ln|C|  (spatial uncertainty; may be
  negative for tight covariances, which is kept as-is)

The pair is collapsed with a combination function (weighted sum or max)
and per-image scores aggregate over detections with max, sum or avg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

COMB_MODES = ("sum", "max")
AGG_MODES = ("max", "sum", "avg")


@dataclass(frozen=True)
class UncertaintyPair:
    """Classification and regression uncertainty of one detection (nats)."""

    u_cls: float
    u_reg: float

    def __post_init__(self):
        if not (np.isfinite(self.u_cls) and np.isfinite(self.u_reg)):
            raise ValueError("uncertainties must be finite")
        if self.u_cls < 0:
            raise ValueError("classification entropy cannot be negative")


@dataclass
class AcquisitionConfig:
    """How detection uncertainties combine into one image score.

    Default weights follow the detection-track setting: classification
    weight 1, regression weight 0.01.  Images with no detections get
    empty_image_score.
    """

    comb: str = "sum"
    agg: str = "avg"
    w_cls: float = 1.0
    w_reg: float = 0.01
    empty_image_score: float = 0.0

    def __post_init__(self):
        if self.comb not in COMB_MODES:
            raise ValueError(f"comb must be one of {COMB_MODES}, got {self.comb!r}")
        if self.agg not in AGG_MODES:
            raise ValueError(f"agg must be one of {AGG_MODES}, got {self.agg!r}")
        if not (np.isfinite(self.w_cls) and self.w_cls >= 0):
            raise ValueError("w_cls must be finite and >= 0")
        if not (np.isfinite(self.w_reg) and self.w_reg >= 0):
            raise ValueError("w_reg must be finite and >= 0")
        if not np.isfinite(self.empty_image_score):
            raise ValueError("empty_image_score must be finite")


@dataclass(frozen=True)
class ImageScore:
    image_id: object
    score: float
    n_detections: int

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError("image score must be finite")


def cls_entropy(probs) -> float:
    """Sum of per-class Bernoulli entropies, natural log.

    Each entry is treated as an independent foreground-class score;
    0 ln 0 evaluates to 0.  Summation via fsum, so the result does not
    depend on entry order.
    """
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("class scores must lie in [0, 1]")
    return -math.fsum(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p))


def categorical_entropy(probs) -> float:
    """Shannon entropy -sum p ln p of a categorical distribution.

    Exactly permutation invariant (fsum reduction).
    """
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(math.fsum(p) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
    return -math.fsum(xlogy(p, p))


def reg_entropy(cov) -> float:
    """Differential entropy of a Gaussian with covariance `cov`.

    k/2 + (k/2) ln(2 pi) + 1/2 ln|cov| for k = cov dimension (4 for
    fused boxes).  Raises on non-symmetric or non-positive-definite
    input.
    """
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


def combine(u: UncertaintyPair, cfg: AcquisitionConfig) -> float:
    """Collapse an uncertainty pair into one number per cfg.comb."""
    wc = cfg.w_cls * u.u_cls
    wr = cfg.w_reg * u.u_reg
    if cfg.comb == "sum":
        return wc + wr
    return max(wc, wr)


def score_image(detections, cfg: AcquisitionConfig, image_id=0) -> ImageScore:
    """Aggregate per-detection combined uncertainties into an image score."""
    if not detections:
        return ImageScore(image_id=image_id, score=cfg.empty_image_score,
                          n_detections=0)
    values = []
    for det in detections:
        pair = UncertaintyPair(u_cls=cls_entropy(det.class_probs),
                               u_reg=reg_entropy(det.box_cov))
        values.append(combine(pair, cfg))
    if cfg.agg == "max":
        score = max(values)
    elif cfg.agg == "sum":
        score = sum(values)
    else:
        score = sum(values) / len(values)
    return ImageScore(image_id=image_id, score=float(score),
                      n_detections=len(values))
