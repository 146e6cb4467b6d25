"""Batch selection strategies for pool-based active learning.

Implements the proposed uniform-subsample-then-TopN selection next to
the usual baselines: random, plain TopN, greedy k-center (coreset),
BALD/BatchBALD mutual information, and an uncertainty-weighted k-means
(CLUE-style) diversity selector.

All selectors are deterministic given their seed and return exactly B
distinct ids from the pool.  Ties break toward the smaller id.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rules import (BLOCK_ENTRIES, at_least, check, checked, count, hold, in_interval, one_of,
                    shaped, unit_interval)

STRATEGIES = ("random", "topn", "subsample_topn", "coreset", "batchbald", "clue")

_CLUE_MAX_ITER = 50   # weighted k-means rounds of select_clue
_FRACTION = in_interval(0, 1, "(]")   # subsample_fraction, and select_subsample_topn's p
# the one rule of a strategy name: SelectionConfig's and the CLI's
STRATEGY = one_of(STRATEGIES, f"unknown strategy {{value!r}}; expected one of {STRATEGIES}")


@dataclass
class SelectionConfig:
    strategy: str = checked("subsample_topn", STRATEGY)
    batch_size: int = checked(20, at_least(1))
    subsample_fraction: float = checked(0.5, _FRACTION)
    mc_count: int = checked(100, at_least(1))
    seed: int = checked(0, at_least(0))   # extra entropy mixed into selection draws

    __post_init__ = check


def _batch_size(b, n: int, too_big: str = None) -> int:
    """b as an int when 1 <= b <= n, the bound SelectionConfig gives
    batch_size; a b above n raises too_big, if given."""
    if count(b, "batch size") > n:
        raise ValueError(too_big or f"batch size {int(b)} exceeds pool size {n}")
    return int(b)


def select_random(pool_ids, b: int, seed) -> list:
    """Uniform sample of b pool ids without replacement."""
    pool_ids = list(pool_ids)
    b = _batch_size(b, len(pool_ids))
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pool_ids), size=b, replace=False)
    return [pool_ids[i] for i in picked]


def select_topn(scores, b: int) -> list:
    """Ids of the b largest scores, sorted by descending score.

    scores: iterable of (id, score) pairs, each score finite.  Equal
    scores break toward the smaller id.
    """
    scores = list(scores)
    b = _batch_size(b, len(scores))
    if not all(math.isfinite(score) for _, score in scores):
        raise ValueError("need one finite score per candidate")
    ranked = sorted(scores, key=lambda item: (-item[1], item[0]))
    return [item[0] for item in ranked[:b]]


def subsample_size(p: float, pool_size: int) -> int:
    return math.ceil(p * pool_size)


def select_subsample_topn(pool_ids, score_fn, p: float, b: int, seed) -> list:
    """Uniformly sub-sample ceil(p * |pool|) ids, then TopN among them.

    Only the sub-sampled ids are scored, in one call: score_fn(ids)
    returns one real per id, in order.  So the selected label
    distribution follows the pool distribution instead of concentrating
    on whatever the raw scores favor.  p lies in (0, 1], the rule of
    SelectionConfig.subsample_fraction, and b fits in the sub-sample.
    """
    hold(_FRACTION, p, "p")
    pool_ids = list(pool_ids)
    m = subsample_size(p, len(pool_ids))
    b = _batch_size(b, m, "sub-sample too small for batch")
    rng = np.random.default_rng(seed)
    drawn = [pool_ids[i] for i in rng.choice(len(pool_ids), size=m, replace=False)]
    scores = list(score_fn(drawn))
    if len(scores) != m:
        raise ValueError(f"score_fn returned {len(scores)} scores for {m} ids")
    return select_topn(list(zip(drawn, scores)), b)


def select_coreset(pool_features, labeled_features, b: int) -> list[int]:
    """Greedy k-center selection over Euclidean feature distances.

    Repeatedly picks the pool point farthest from its nearest
    already-covered point (labeled set plus picks so far).  With an
    empty labeled set the first pick maximizes distance to the pool
    centroid.  Returned ids are row indices into the (N, D) batch
    pool_features; labeled_features is an (L, D) one, [] 0 rows.  Both
    must be finite.  Distances to the labeled set are _nearest's, and
    to one point _distances'.
    """
    pool = shaped(pool_features, "pool_features", ("N", "D"))
    b = _batch_size(b, len(pool))
    labeled = shaped(labeled_features, "labeled_features", ("L", pool.shape[1]))
    cols = np.ascontiguousarray(pool.T)
    picked: list[int] = []
    if len(labeled):
        min_dist = _nearest(pool, labeled)[0]
    else:
        # no covered points yet: first pick is farthest from the pool centroid
        first = int(np.argmax(_distances(cols, pool.mean(axis=0))))
        picked.append(first)
        min_dist = _distances(cols, pool[first])
        min_dist[first] = -np.inf

    while len(picked) < b:
        idx = int(np.argmax(min_dist))  # first max = smallest id on ties
        picked.append(idx)
        min_dist = np.minimum(min_dist, _distances(cols, pool[idx]))
        min_dist[idx] = -np.inf
    return picked


# Both distance kernels give each distance as the root of its squared
# differences summed in feature order, so their bits are the same for
# every pair, whichever kernel computes it (the tests pin them to a
# reference cdist).  numpy sums in that order when it reduces axis 0 of
# a C-ordered (D, K) array with K >= 2; along a contiguous axis, as in a
# (D, 1) or an F-ordered array, it sums pairwise, with other bits.

def _squared_sums(diff: np.ndarray) -> np.ndarray:
    """The column sums of squares of a C-ordered (D, K) array of
    differences, each in row order; diff is squared in place, and a lone
    column is doubled."""
    if diff.shape[1] == 1:
        diff = np.repeat(diff, 2, axis=1)
    with np.errstate(over="ignore"):     # an inf distance, as cdist gives it
        np.multiply(diff, diff, out=diff)
        return np.add.reduce(diff, axis=0)


def _distances(cols: np.ndarray, row: np.ndarray) -> np.ndarray:
    """(N,) Euclidean distances from each column of the C-ordered (D, N)
    cols, a pool's rows transposed, to the (D,) row."""
    return np.sqrt(_squared_sums(cols - row[:, None]))[:cols.shape[1]]


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def _nearest(xa: np.ndarray, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the finite (N, D) xa, the Euclidean distance to its
    nearest row of the finite (M, D) xb, M >= 1, and the first index at
    that distance: cdist(xa, xb).min(1) and .argmin(1).

    One BLAS product, of [a, 1] and [-2 b, |b|^2], gives g, the squared
    distance less |a|^2, up to rounding.  A row of xb stays a candidate
    for a row of xa unless its g exceeds the row's least g by more than
    the slack, which bounds the rounding of g and of the exact sums (its
    subnormal term covers underflow); a NaN g keeps it.  Only the
    candidates' distances are summed, as _distances sums them.
    """
    n, d = xa.shape
    with np.errstate(over="ignore", invalid="ignore"):   # a NaN g keeps its row
        sq_b = np.einsum("ij,ij->i", xb, xb)
        g = np.column_stack([xa, np.ones(n)]) @ np.column_stack([-2.0 * xb, sq_b]).T
        slack = 16 * (d + 2) * (_EPS * (np.einsum("ij,ij->i", xa, xa) + sq_b.max()) + _TINY)
        far = g > (g.min(axis=1) + slack)[:, None]
    rows, cols = np.divmod(np.flatnonzero(~far), len(xb))
    diff = np.empty((d, len(rows)))
    np.subtract(xa[rows].T, xb[cols].T, out=diff)
    dist = np.sqrt(_squared_sums(diff))[:len(rows)]
    if len(rows) == n:          # each row keeps its least g, so one candidate each
        return dist, cols
    # row i's candidates start at starts[i]; sorted by distance, then
    # index, the first is the nearest
    per_row = np.bincount(rows, minlength=n)
    starts = np.cumsum(per_row) - per_row
    first = np.lexsort((cols, dist, rows))[starts]
    return dist[first], cols[first]


def _entropy(p: np.ndarray) -> np.ndarray:
    """-sum p log p over the last axis, with 0 log 0 = 0."""
    log_p = np.zeros_like(p)
    np.log(p, out=log_p, where=p > 0)
    return -np.einsum("...c,...c->...", p, log_p)


def select_batchbald(prob_samples, b: int, mc_count: int = 100, seed=0) -> list[int]:
    """Greedy batch selection by joint mutual information.

    prob_samples: per-id (N, T, C) finite predictive samples in [0, 1]
    sharing the same T posterior draws; mc_count is a whole number
    >= 1.  The first pick uses the exact BALD score; later picks
    estimate the joint entropy of the grown batch with mc_count
    Monte-Carlo configuration draws of the already-selected items and
    an exact sum over the candidate's classes.

    The per-sample class CDFs, log p and the per-item entropies are
    computed once per call; each pick gathers from them.  A pick draws
    its mc_count sample indices, then the configuration uniforms of
    all selected items in one (picks so far, mc_count) call, which
    Generator.random fills in C order from the stream per-item draws
    would take in turn.  Every later quantity of a configuration
    depends only on its labels, a column of the draw, and a few dozen
    of the mc_count columns are distinct: np.lexsort and a compare of
    neighbouring columns find them, and the log-weights (one
    np.add.reduce over the selected items, in pick order), the
    posterior weights, the candidates' conditional class probabilities
    and their entropies are computed once per distinct configuration.
    The candidates go in blocks, so no array grows with N x mc_count.
    Two buffers of max(BLOCK_ENTRIES, mc_count x C) entries are
    allocated once per call, and each pick fills them with as many
    candidates as fit: their probabilities in a C-contiguous
    (candidates, distinct, C) view of one, and their log in the other
    when none of the block's probabilities is 0.  A block with a 0
    takes _entropy's masked log, which has the same bits on the
    positive entries.  A lone
    distinct configuration is doubled when mc_count > 1, so its
    product stays a BLAS gemm (a one-row product goes to gemv, which
    rounds differently).  The per-configuration log joint and entropies
    are gathered back to mc_count columns in C order (np.take) before
    any mean, so every score keeps the bits of the product over all
    mc_count rows.
    """
    probs = unit_interval(shaped(prob_samples, "prob_samples", ("N", "T", "C")), "prob_samples")
    n, t, c = probs.shape
    if t < 2:
        raise ValueError("mutual information undefined")
    b = _batch_size(b, n)
    k = count(mc_count, "mc_count")

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
    entries = max(BLOCK_ENTRIES, k * c)     # one candidate's at least
    cond_buf, log_buf = np.empty(entries), np.empty(entries)
    h_c_given = np.empty(n)
    first = np.ones(k, dtype=bool)      # first column of each run of equal sorted ones
    config = np.empty(k, dtype=np.intp)
    while len(selected) < b:
        # sample mc_count label configurations of the selected batch from
        # the plug-in joint (1/T) sum_t prod_i p_it
        t_draws = rng.integers(0, t, size=k)
        items = np.array(selected)[:, None]
        u = rng.random((len(selected), k))
        y = (cdfs[items, t_draws] < u[:, :, None]).sum(axis=2)   # (picks, k)
        np.minimum(y, c - 1, out=y)
        # the distinct configurations, and config[j], the one of column j
        order = np.lexsort(y)
        y = y[:, order]
        np.any(y[:, 1:] != y[:, :-1], axis=0, out=first[1:])
        config[order] = np.cumsum(first) - 1
        y = y[:, first]                                          # (picks, distinct)
        log_w = np.add.reduce(log_probs[items[:, :, None], samples, y[:, :, None]],
                              axis=0)                            # (distinct, t)
        # posterior weights over t given each sampled configuration
        log_joint = np.logaddexp.reduce(log_w, axis=1) - np.log(t)
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        h_batch = float(-log_joint.take(config).mean())
        if len(w) == 1 < k:
            w = np.repeat(w, 2, axis=0)

        # candidate conditional entropy H(y_c | batch config), exact in y_c,
        # for as many candidates at a time as the buffers hold: (m, t) @
        # (candidates, t, c) broadcasts to one BLAS product per candidate
        m = len(w)
        step = entries // (m * c)
        for lo in range(0, n, step):
            block = probs[lo:lo + step]
            size = len(block) * m * c
            cond_probs = cond_buf[:size].reshape(len(block), m, c)
            np.matmul(w, block, out=cond_probs)
            if cond_probs.min() > 0:
                log_cond = log_buf[:size].reshape(cond_probs.shape)
                np.log(cond_probs, out=log_cond)
                h_block = -np.einsum("...c,...c->...", cond_probs, log_cond)
            else:
                h_block = _entropy(cond_probs)
            np.mean(h_block.take(config, axis=1), axis=1, out=h_c_given[lo:lo + step])
        joint_mi = h_batch + h_c_given - (h_cond[selected].sum() + h_cond)
        joint_mi[~available] = -np.inf
        pick = int(np.argmax(joint_mi))
        selected.append(pick)
        available[pick] = False
    return selected


def select_clue(pool_features, uncertainties, b: int, seed=0) -> list[int]:
    """Uncertainty-weighted k-means selection (diversity + uncertainty).

    Runs weighted k-means with k = b (k-means++-style seeding, weights
    given by the uncertainties) and returns the pool id nearest each
    final centroid, deduplicated by next-nearest.  All-zero weights
    fall back to unweighted k-means with a warning.  pool_features is
    a finite (N, D) batch, [] one of 0 rows, with one finite
    uncertainty >= 0 per row.  Each round assigns every point to its
    nearest centroid by _nearest; the seeding and the final picks take
    _distances to one centroid at a time.
    """
    pool = shaped(pool_features, "pool_features", ("N", "D"))
    weights = np.asarray(uncertainties, dtype=float)
    n = len(pool)
    if weights.shape != (n,) or not np.all(np.isfinite(weights)):
        raise ValueError("need one finite uncertainty per pool point")
    if np.any(weights < 0):
        raise ValueError("uncertainties must be >= 0")
    b = _batch_size(b, n)
    if weights.sum() == 0:
        warnings.warn("all-zero uncertainties; falling back to unweighted k-means")
        weights = np.ones(n)

    rng = np.random.default_rng(seed)
    cols = np.ascontiguousarray(pool.T)
    centroids = _kmeanspp_init(pool, cols, weights, b, rng)
    for _ in range(_CLUE_MAX_ITER):
        assign = _nearest(pool, centroids)[1]
        new_centroids = centroids.copy()
        for j in range(b):
            mask = assign == j
            if not mask.any():
                continue
            w = weights[mask]
            if w.sum() > 0:
                new_centroids[j] = (pool[mask] * w[:, None]).sum(axis=0) / w.sum()
            else:
                new_centroids[j] = pool[mask].mean(axis=0)
        if np.allclose(new_centroids, centroids):
            centroids = new_centroids
            break
        centroids = new_centroids

    picked: list[int] = []
    taken = np.zeros(n, dtype=bool)
    for j in range(b):
        dist = _distances(cols, centroids[j])
        dist[taken] = np.inf
        idx = int(np.argmin(dist))
        picked.append(idx)
        taken[idx] = True
    return picked


def _kmeanspp_init(pool, cols, weights, k, rng):
    """k-means++ seeding with sample weights; cols is pool.T, C-ordered."""
    n = pool.shape[0]
    centroids = np.empty((k, pool.shape[1]))
    p = weights / weights.sum()
    first = rng.choice(n, p=p)
    centroids[0] = pool[first]
    min_sq = _distances(cols, centroids[0]) ** 2
    for j in range(1, k):
        mass = weights * min_sq
        total = mass.sum()
        if total <= 0:
            # remaining points coincide with chosen centroids; spread by weight
            idx = rng.choice(n, p=p)
        else:
            idx = rng.choice(n, p=mass / total)
        centroids[j] = pool[idx]
        min_sq = np.minimum(min_sq, _distances(cols, centroids[j]) ** 2)
    return centroids
