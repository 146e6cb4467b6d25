"""Selection strategies: correctness, determinism and statistical behavior."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial.distance import cdist
from tests_support_oracles import covering_radius, raised_in_package
from tests_support_reference import (bald_scores, reference_select_batchbald,
                                     reference_select_batchbald_all_configs)

from sim2real_al import sampling
from sim2real_al.sampling import (SelectionConfig, select_batchbald, select_clue,
                                  select_coreset, select_random,
                                  select_subsample_topn, select_topn, subsample_size)


@pytest.fixture
def small_blocks(monkeypatch):
    """BatchBALD blocks of 64 entries: a hypothesis-sized pool spans
    several blocks, and blocks of one candidate occur."""
    monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 64)


def peak_mib(call) -> float:
    """The most memory, in MiB, that call() holds allocated at once."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestSelectionConfig:
    def test_defaults_valid(self):
        cfg = SelectionConfig()
        assert cfg.batch_size >= 1

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            SelectionConfig(strategy="magic")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SelectionConfig(batch_size=0)
        with pytest.raises(ValueError):
            SelectionConfig(subsample_fraction=0.0)
        with pytest.raises(ValueError):
            SelectionConfig(subsample_fraction=1.5)


class TestSelectRandom:
    def test_whole_pool(self):
        out = select_random([4, 7, 9], 3, seed=0)
        assert sorted(out) == [4, 7, 9]

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            select_random([1, 2], 3, seed=0)

    def test_deterministic(self):
        pool = list(range(50))
        assert select_random(pool, 10, seed=42) == select_random(pool, 10, seed=42)

    def test_uniformity_chi_square(self):
        pool = list(range(10))
        counts = np.zeros(10)
        for rep in range(10_000):
            counts[select_random(pool, 1, seed=rep)[0]] += 1
        assert stats.chisquare(counts).pvalue > 0.001


class TestSelectTopn:
    def test_basic(self):
        assert select_topn([("a", 3.0), ("b", 1.0), ("c", 2.0)], 2) == ["a", "c"]

    def test_ties_break_to_smaller_id(self):
        assert select_topn([(3, 1.0), (1, 1.0), (2, 1.0)], 2) == [1, 2]

    def test_full_pool_sorted_desc(self):
        out = select_topn([(0, 0.2), (1, 0.9), (2, 0.5)], 3)
        assert out == [1, 2, 0]

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            select_topn([(0, 1.0)], 2)


def scores_of(scores):
    """The batch scorer select_subsample_topn calls: ids -> their scores."""
    return lambda ids: [scores[i] for i in ids]


def six_selectors(n: int = 6, p: float = 1.0):
    """Each selector as a function of b alone, over one pool of n items;
    subsample_topn draws a fraction p of it."""
    rng = np.random.default_rng(n)
    ids = list(range(n))
    feats = rng.normal(size=(n, 2))
    scores = dict(zip(ids, rng.normal(size=n).tolist()))
    probs = rng.dirichlet(np.ones(3), size=(n, 4))
    weights = rng.uniform(0.1, 1.0, size=n)
    return {
        "random": lambda b: select_random(ids, b, seed=1),
        "topn": lambda b: select_topn(list(scores.items()), b),
        "subsample_topn": lambda b: select_subsample_topn(ids, scores_of(scores), p, b,
                                                          seed=1),
        "coreset": lambda b: select_coreset(feats, [], b),
        "batchbald": lambda b: select_batchbald(probs, b, mc_count=8, seed=1),
        "clue": lambda b: select_clue(feats, weights, b, seed=1),
    }


class TestBatchSize:
    """Every selector takes b under one rule: a whole number in [1, n]."""

    @pytest.mark.parametrize("b", [0, -1, 1.5])
    @pytest.mark.parametrize("name", sorted(six_selectors()))
    def test_b_below_one_or_fractional_rejected(self, name, b):
        # b = 0 used to return [] from three selectors and one id from
        # two; -1 and 1.5 ended in numpy's errors
        with pytest.raises(ValueError, match=r"^batch size must be a whole number >= 1, "
                                             rf"got {b}$") as excinfo:
            six_selectors()[name](b)
        assert raised_in_package(excinfo)

    def test_topn_b_above_the_candidates_is_a_batch_too_large(self):
        # topn had its own "exceeds candidate count" message
        with pytest.raises(ValueError, match="^batch size 7 exceeds pool size 6$"):
            six_selectors()["topn"](7)

    @pytest.mark.parametrize("name", ["random", "topn", "subsample_topn", "clue"])
    def test_whole_float_b_is_b(self, name):
        # numpy's TypeError before (coreset and batchbald took 3.0 already)
        assert six_selectors()[name](3.0) == six_selectors()[name](3)

    @pytest.mark.parametrize("select", [
        lambda: select_coreset(np.zeros((0, 2)), [], 1),
        lambda: select_clue(np.zeros((0, 2)), np.zeros(0), 1)], ids=["coreset", "clue"])
    def test_empty_pool_is_a_batch_too_large(self, select):
        with pytest.raises(ValueError, match="^batch size 1 exceeds pool size 0$"):
            select()


class TestSelectSubsampleTopn:
    def test_p_one_equals_topn(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(5, 40))
            ids = list(rng.choice(1000, size=n, replace=False))
            scores = {i: float(rng.normal()) for i in ids}
            b = int(rng.integers(1, n + 1))
            got = select_subsample_topn(ids, scores_of(scores), 1.0, b, seed=trial)
            want = select_topn([(i, scores[i]) for i in ids], b)
            assert got == want

    def test_output_within_subsample(self):
        pool = list(range(60))
        scores = {i: float(i) for i in pool}
        out = select_subsample_topn(pool, scores_of(scores), 0.4, 5, seed=9)
        assert len(out) == 5 and len(set(out)) == 5
        assert set(out) <= set(pool)

    def test_oracle_redraw(self):
        """Independent re-implementation of the sub-sample draw."""
        pool = list(range(100))
        scores = {i: float(i) for i in pool}
        seed = 1234
        out = select_subsample_topn(pool, scores_of(scores), 0.5, 5, seed=seed)
        rng = np.random.default_rng(seed)
        drawn = [pool[i] for i in rng.choice(100, size=50, replace=False)]
        expected = sorted(drawn, key=lambda i: (-scores[i], i))[:5]
        assert out == expected

    def test_one_score_per_drawn_id(self):
        with pytest.raises(ValueError, match="returned 2 scores for 5 ids"):
            select_subsample_topn(list(range(10)), lambda ids: [0.0, 1.0], 0.5, 3,
                                  seed=0)

    def test_too_small_subsample_rejected(self):
        with pytest.raises(ValueError, match="sub-sample too small"):
            select_subsample_topn(list(range(10)), float, 0.2, 3, seed=0)

    def test_subsample_size(self):
        assert subsample_size(0.5, 100) == 50
        assert subsample_size(0.011, 100) == 2
        assert subsample_size(1.0, 7) == 7

    def test_label_shift_mitigation(self):
        """Label-independent scores: selected labels follow pool labels."""
        rng = np.random.default_rng(0)
        n = 1000
        labels = rng.choice(4, size=n, p=[0.55, 0.25, 0.15, 0.05])
        pool = list(range(n))
        picked = np.zeros(4)
        for draw in range(300):
            # fresh scores per draw, independent of the labels
            scores = np.random.default_rng(10_000 + draw).normal(size=n)
            ids = select_subsample_topn(pool, scores_of(scores), 0.1, 10,
                                        seed=draw)
            for i in ids:
                picked[labels[i]] += 1
        expected = np.bincount(labels, minlength=4) / n * picked.sum()
        assert stats.chisquare(picked, expected).pvalue > 0.001


class TestSelectCoreset:
    def test_greedy_sequence(self):
        labeled = [(0.0, 0.0)]
        pool = [(10.0, 0.0), (0.0, 10.0), (1.0, 0.0)]
        assert select_coreset(pool, labeled, 2) == [0, 1]

    def test_empty_labeled_centroid_convention(self):
        pool = [(0.0, 0.0), (4.0, 0.0), (1.9, 0.0)]
        # centroid (1.966, 0): farthest is id 0 (dist 1.966 vs 2.033)...
        out = select_coreset(pool, [], 1)
        centroid = np.mean(pool, axis=0)
        dists = [np.linalg.norm(np.array(p) - centroid) for p in pool]
        assert out == [int(np.argmax(dists))]

    def test_identical_points_id_order(self):
        pool = [(1.0, 1.0)] * 5
        assert select_coreset(pool, [], 3) == [0, 1, 2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^labeled_features must be an array of shape "
                                             r"\(L, 2\), got shape \(1, 3\)$"):
            select_coreset([(1.0, 2.0)], [(1.0, 2.0, 3.0)], 1)

    def test_two_approximation_exhaustive(self):
        """Greedy radius <= 2x brute-force optimum, |pool| <= 12, B <= 3."""
        rng = np.random.default_rng(7)
        for trial in range(24):
            n = int(rng.integers(4, 13))
            b = int(rng.integers(1, 4))
            pool = rng.uniform(0, 10, size=(n, 2))
            labeled = rng.uniform(0, 10, size=(rng.integers(0, 3), 2))
            lab = labeled if labeled.size else []
            greedy = select_coreset(pool, lab, b)
            greedy_radius = covering_radius(pool, greedy, lab if len(lab) else None)
            best = min(covering_radius(pool, list(subset),
                                       lab if len(lab) else None)
                       for subset in itertools.combinations(range(n), b))
            assert greedy_radius <= 2.0 * best + 1e-9

    @pytest.mark.parametrize("pool, labeled", [
        ([[0.0, 0.0], [np.nan, 1.0], [5.0, 5.0]], [[0.0, 0.0]]),
        ([[0.0, 0.0], [np.inf, 1.0], [5.0, 5.0]], []),
        ([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]], [[0.0, -np.inf]]),
        ([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [3.0, 3.0]], [[np.nan, 0.0]]),
    ], ids=["nan pool row", "inf pool row", "inf labeled row", "nan labeled row"])
    def test_features_must_be_finite(self, pool, labeled):
        # a NaN pool row was picked first, [1], since argmax stops at NaN
        name = "pool_features" if not np.isfinite(pool).all() else "labeled_features"
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            select_coreset(pool, labeled, 1)


def features(seed, n, m, d, kind, exponent, layout):
    """(n, d) and (m, d) feature batches drawn from seed.  kind: normal
    draws, a rounded grid (ties and duplicate rows), rows of xa that
    repeat rows of xb, a 1e6 offset, or draws scaled by 10**exponent;
    layout: C-ordered, F-ordered or reversed rows."""
    rng = np.random.default_rng(seed)
    xa, xb = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    if kind == "grid":
        xa, xb = np.round(2 * xa) / 2, np.round(2 * xb) / 2
    elif kind == "repeats":
        xa[::2] = xb[rng.integers(0, m, len(xa[::2]))]
    elif kind == "offset":
        xa, xb = xa + 1e6, xb + 1e6
    elif kind == "scaled":
        xa, xb = xa * 10.0 ** exponent, xb * 10.0 ** exponent
    if layout == "F":
        return np.asfortranarray(xa), np.asfortranarray(xb)
    if layout == "reversed":
        return xa[::-1], xb[::-1]
    return xa, xb


FEATURES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), m=st.integers(1, 60),
                d=st.integers(1, 70),
                kind=st.sampled_from(["normal", "grid", "repeats", "offset", "scaled"]),
                # the second range is where squared distances underflow
                exponent=st.one_of(st.integers(-200, 170), st.integers(-164, -156)),
                layout=st.sampled_from(["C", "F", "reversed"]))


class TestDistanceBits:
    """The distance kernels of coreset and clue give the bits of scipy's
    cdist, which the tests keep as the reference."""

    @settings(max_examples=400, deadline=None)
    @given(**FEATURES)
    # without the slack's subnormal term, row 4's nearest was wrong here
    @example(seed=2550389550, n=5, m=8, d=5, kind="scaled", exponent=-162, layout="C")
    @example(seed=2, n=1, m=1, d=70, kind="normal", exponent=0, layout="F")
    def test_nearest_is_cdist_min_and_argmin(self, seed, n, m, d, kind, exponent, layout):
        xa, xb = features(seed, n, m, d, kind, exponent, layout)
        want = cdist(xa, xb)
        dist, index = sampling._nearest(xa, xb)
        assert dist.view(np.uint64).tolist() == want.min(axis=1).view(np.uint64).tolist()
        assert index.tolist() == want.argmin(axis=1).tolist()

    @settings(max_examples=200, deadline=None)
    @given(**FEATURES)
    @example(seed=3, n=1, m=2, d=70, kind="normal", exponent=0, layout="C")
    def test_distances_are_a_cdist_column(self, seed, n, m, d, kind, exponent, layout):
        xa, xb = features(seed, n, m, d, kind, exponent, layout)
        want = cdist(xa, xb)
        cols = np.ascontiguousarray(xa.T)     # as the selectors make it
        for j in range(m):
            got = sampling._distances(cols, xb[j])
            assert got.view(np.uint64).tolist() == want[:, j].view(np.uint64).tolist()


class TestBatchBald:
    def test_bald_opposite_one_hots(self):
        samples = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # one item, T=2
        assert bald_scores(samples)[0] == pytest.approx(math.log(2), abs=1e-9)
        assert select_batchbald(samples, 1, seed=0) == [0]

    def test_bald_identical_samples_zero(self):
        samples = np.tile([0.3, 0.7], (1, 5, 1))
        assert bald_scores(samples)[0] == pytest.approx(0.0, abs=1e-12)

    def test_bald_nonnegative(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(4), size=(30, 8))
        assert bald_scores(probs).min() >= -1e-12

    def test_t1_rejected(self):
        with pytest.raises(ValueError, match="mutual information undefined"):
            select_batchbald(np.ones((3, 1, 2)) * 0.5, 1)

    @pytest.mark.parametrize("item, value, message", [
        # an item of NaN samples was picked first: [3, 0, 1]
        (slice(None), math.nan, "prob_samples must be finite"),
        ((1, 0), math.inf, "prob_samples must be finite"),
        ((1, 0), -0.1, "prob_samples must lie in [0, 1]"),   # numpy's RuntimeWarning before
        ((1, 0), 1.5, "prob_samples must lie in [0, 1]"),
    ], ids=["nan-item", "inf", "negative", "above-1"])
    def test_invalid_probabilities_rejected(self, item, value, message):
        probs = np.random.default_rng(2).dirichlet(np.ones(2), size=(4, 3))
        probs[3][item] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
            select_batchbald(probs, 3)
        assert raised_in_package(excinfo)

    def test_greedy_avoids_correlated_pair(self):
        """Two perfectly correlated items; greedy must pick the independent one."""
        # items 0, 1 flip with the "first bit" of theta; item 2 with the second
        item_a = [[1, 0], [1, 0], [0, 1], [0, 1]]
        item_c = [[1, 0], [0, 1], [1, 0], [0, 1]]
        probs = np.array([item_a, item_a, item_c], dtype=float)
        got = select_batchbald(probs, 2, mc_count=100, seed=5)
        assert got == [0, 2]

        # brute-force joint-MI oracle over all pairs
        def joint_mi(i, j):
            joint = np.zeros((2, 2))
            for t in range(4):
                for yi in range(2):
                    for yj in range(2):
                        joint[yi, yj] += probs[i, t, yi] * probs[j, t, yj] / 4
            h_joint = -sum(p * math.log(p) for p in joint.ravel() if p > 0)
            h_cond = 0.0
            for t in range(4):
                for item in (i, j):
                    h_cond += -sum(p * math.log(p)
                                   for p in probs[item, t] if p > 0) / 4
            return h_joint - h_cond

        best_pair = max(itertools.combinations(range(3), 2), key=lambda ij: joint_mi(*ij))
        assert joint_mi(*best_pair) == pytest.approx(joint_mi(0, 2), abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        probs = rng.dirichlet(np.ones(3), size=(20, 6))
        a = select_batchbald(probs, 4, mc_count=50, seed=3)
        b = select_batchbald(probs, 4, mc_count=50, seed=3)
        assert a == b
        assert len(set(a)) == 4


def reference_entropy(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0, p * np.log(p), 0.0).sum(axis=-1)


def reference_batchbald(probs, b, mc_count, seed):
    """The einsum/np.where formulation select_batchbald replaced, kept as
    an oracle: same Monte-Carlo draws, plain-loop contraction."""
    n, t, c = probs.shape
    h_cond = reference_entropy(probs).mean(axis=1)
    rng = np.random.default_rng(seed)
    available = np.ones(n, dtype=bool)
    first = reference_entropy(probs.mean(axis=1)) - h_cond
    selected = [int(np.argmax(first))]
    available[selected[0]] = False
    while len(selected) < b:
        t_draws = rng.integers(0, t, size=mc_count)
        log_w = np.zeros((mc_count, t))
        for i in selected:
            cdf = probs[i, t_draws].cumsum(axis=1)
            y = np.minimum((cdf < rng.random(mc_count)[:, None]).sum(axis=1), c - 1)
            with np.errstate(divide="ignore"):
                log_w += np.log(probs[i][:, y].T)
        log_joint = np.logaddexp.reduce(log_w, axis=1) - np.log(t)
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        h_c_given = reference_entropy(np.einsum("kt,ntc->nkc", w, probs)).mean(axis=1)
        joint_mi = (float(-log_joint.mean()) + h_c_given
                    - (h_cond[selected].sum() + h_cond))
        joint_mi[~available] = -np.inf
        selected.append(int(np.argmax(joint_mi)))
        available[selected[-1]] = False
    return selected


def probs_with_zeros(rng, n, t, c):
    """(n, t, c) Dirichlet samples with exact zeros and two one-hot items."""
    probs = rng.dirichlet(np.ones(c), size=(n, t))
    probs[rng.random((n, t, c)) < 0.25] = 0.0
    probs[probs.sum(axis=-1) == 0, 0] = 1.0
    probs /= probs.sum(axis=-1, keepdims=True)
    probs[:2] = 0.0
    probs[0, :, 0] = 1.0
    probs[1, :, c - 1] = 1.0
    return probs


class TestBatchBaldReference:
    """select_batchbald picks what the einsum formulation picks."""

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_reference(self, trial):
        rng = np.random.default_rng(100 + trial)
        n, t, c = (int(v) for v in rng.integers([5, 2, 2], [60, 12, 9]))
        probs = (probs_with_zeros(rng, n, t, c) if trial % 2
                 else rng.dirichlet(np.ones(c), size=(n, t)))
        b = int(rng.integers(1, n + 1))
        mc_count = int(rng.integers(1, 80))
        # summation order differs: entropies of at most 9 classes agree
        # to a few ulps of log(9)
        want = (reference_entropy(probs.mean(axis=1))
                - reference_entropy(probs).mean(axis=1))
        np.testing.assert_allclose(bald_scores(probs), want, rtol=0, atol=1e-14)
        assert select_batchbald(probs, b, mc_count, seed=trial) == \
            reference_batchbald(probs, b, mc_count, seed=trial)

    def test_no_floating_point_errors_with_zeros(self):
        probs = probs_with_zeros(np.random.default_rng(4), 12, 6, 4)
        with np.errstate(all="raise"):
            scores = bald_scores(probs)
            picked = select_batchbald(probs, 12, mc_count=30, seed=2)
        assert np.all(np.isfinite(scores))
        assert scores[0] == scores[1] == 0.0
        assert sorted(picked) == list(range(12))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), t=st.integers(2, 6), c=st.integers(1, 5),
           data=st.data())
    def test_b_distinct_ids_deterministic(self, n, t, c, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = (probs_with_zeros(rng, n, t, c) if n >= 2
                 else rng.dirichlet(np.ones(c), size=(n, t)))
        b = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        picked = select_batchbald(probs, b, mc_count=16, seed=seed)
        assert len(picked) == len(set(picked)) == b
        assert set(picked) <= set(range(n))
        assert select_batchbald(probs, b, mc_count=16, seed=seed) == picked


class TestBatchBaldPerItemReference:
    """select_batchbald picks what the per-item selector it replaced
    picks, on the plain-log path (no conditional probability is 0) and
    on the masked-log path (some are)."""

    @staticmethod
    def dense_probs(rng, n, t, c):
        logits = rng.normal(size=(n, t, c)) * 2.0
        probs = np.exp(logits)
        return probs / probs.sum(axis=-1, keepdims=True)

    def test_same_picks_on_both_log_paths(self, monkeypatch):
        paths = {"plain": 0, "masked": 0}
        entropy, argmax = sampling._entropy, np.argmax
        # select_batchbald calls _entropy twice before its first pick, the
        # BALD one, and then once per block of a later pick that takes the
        # masked path; each pick ends with one np.argmax
        picks, masked_picks = [0], set()

        def counting_entropy(p):
            if picks[0]:
                masked_picks.add(picks[0])
            return entropy(p)

        def counting_argmax(a, *args, **kwargs):
            picks[0] += 1
            return argmax(a, *args, **kwargs)

        monkeypatch.setattr(sampling, "_entropy", counting_entropy)
        monkeypatch.setattr(np, "argmax", counting_argmax)

        @settings(max_examples=60, deadline=None)
        @given(n=st.integers(2, 40), t=st.integers(2, 12), c=st.integers(1, 8),
               mc_count=st.integers(1, 60), zeros=st.booleans(), data=st.data())
        def same_picks(n, t, c, mc_count, zeros, data):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            probs = (probs_with_zeros(rng, n, t, c) if zeros
                     else self.dense_probs(rng, n, t, c))
            b = data.draw(st.integers(1, n))
            seed = data.draw(st.integers(0, 2**32 - 1))
            picks[0] = 0
            masked_picks.clear()
            picked = select_batchbald(probs, b, mc_count, seed=seed)
            masked = len(masked_picks)
            paths["masked"] += masked
            paths["plain"] += b - 1 - masked
            assert picked == reference_select_batchbald(probs, b, mc_count, seed=seed)

        same_picks()
        assert paths["plain"] > 0 and paths["masked"] > 0, paths

    @pytest.mark.parametrize("seed", range(4))
    def test_benchmark_shape(self, seed):
        """The cls-batchbald shape: 400 candidates, 10 passes, 8 classes,
        B = 20 and 100 configurations."""
        probs = self.dense_probs(np.random.default_rng(seed), 400, 10, 8)
        assert select_batchbald(probs, 20, 100, seed=seed) == \
            reference_select_batchbald(probs, 20, 100, seed=seed)

    def test_same_picks_in_small_blocks(self, monkeypatch, small_blocks):
        self.test_same_picks_on_both_log_paths(monkeypatch)

    def test_benchmark_shape_in_small_blocks(self, small_blocks):
        self.test_benchmark_shape(0)


def near_one_hot(rng, n, t, c):
    """(n, t, c) samples that put 1 - eps on one class of each item in
    every pass, eps between 1e-12 and 1e-2, so the configurations of
    the first few picks are mostly one and the same."""
    eps = 10.0 ** rng.uniform(-12, -2, size=(n, 1, 1))
    probs = rng.dirichlet(np.ones(c), size=(n, t)) * eps
    probs[np.arange(n), :, rng.integers(0, c, size=n)] += 1 - eps[:, :, 0]
    return probs


class TestBatchBaldDistinctConfigs:
    """select_batchbald computes each distinct configuration once, and
    hands np.argmax, pick by pick, the very score arrays of the selector
    that computed all mc_count of them, bit for bit: near one-hot items
    (picks with one distinct configuration, whose product must stay a
    gemm), exact zeros (the masked log), mc_count = 1 and c = 1."""

    def test_same_scores_bit_for_bit(self, monkeypatch):
        scores, argmax = [], np.argmax

        def spy(a, *args, **kwargs):
            scores.append(np.array(a, copy=True))
            return argmax(a, *args, **kwargs)

        monkeypatch.setattr(np, "argmax", spy)

        def scored(select, probs, b, mc_count, seed):
            scores.clear()
            return select(probs, b, mc_count, seed=seed), list(scores)

        kinds = {"dense": TestBatchBaldPerItemReference.dense_probs,
                 "zeros": probs_with_zeros, "near one-hot": near_one_hot}

        @settings(max_examples=150, deadline=None)
        @given(kind=st.sampled_from(sorted(kinds)), n=st.integers(2, 30),
               t=st.integers(2, 10), c=st.integers(1, 8),
               mc_count=st.one_of(st.just(1), st.integers(1, 120)),
               b=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
        @example(kind="near one-hot", n=6, t=5, c=3, mc_count=100, b=6, seed=1)
        @example(kind="near one-hot", n=5, t=9, c=1, mc_count=27, b=5, seed=2)
        @example(kind="zeros", n=12, t=6, c=4, mc_count=1, b=12, seed=3)
        def same_scores(kind, n, t, c, mc_count, b, seed):
            probs = kinds[kind](np.random.default_rng(seed), n, t, c)
            b = min(b, n)
            got, got_scores = scored(select_batchbald, probs, b, mc_count, seed)
            want, want_scores = scored(reference_select_batchbald_all_configs,
                                       probs, b, mc_count, seed)
            assert got == want
            assert len(got_scores) == len(want_scores) == b
            for got_pick, want_pick in zip(got_scores, want_scores):
                np.testing.assert_array_equal(got_pick.view(np.uint64),
                                              want_pick.view(np.uint64))

        same_scores()

    def test_same_scores_in_small_blocks(self, monkeypatch, small_blocks):
        self.test_same_scores_bit_for_bit(monkeypatch)


class TestMaskedLog:
    """A block of candidates whose conditional probabilities hold a 0
    takes _entropy's masked log, any other the plain np.log; the two
    give the same bits on every positive entry, so the path a block
    takes does not change a score."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 300),
           zeros=st.sampled_from([0.0, 0.05, 0.5]), exponent=st.integers(-320, 0),
           start=st.integers(0, 3))
    def test_masked_log_is_the_plain_log(self, seed, size, zeros, exponent, start):
        rng = np.random.default_rng(seed)
        p = (rng.random(size + start) * 10.0 ** exponent)[start:]   # odd alignments too
        p[rng.random(size) < zeros] = 0.0
        positive = p > 0
        masked = np.zeros_like(p)
        np.log(p, out=masked, where=positive)
        plain = np.log(p[positive])
        assert masked[positive].view(np.uint64).tolist() == plain.view(np.uint64).tolist()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 20),
           m=st.integers(1, 20), c=st.integers(1, 8))
    def test_entropy_is_the_plain_entropy(self, seed, rows, m, c):
        p = np.random.default_rng(seed).dirichlet(np.ones(c), size=(rows, m))
        p = np.maximum(p, np.finfo(float).tiny)      # no 0, as on the plain path
        plain = -np.einsum("...c,...c->...", p, np.log(p))
        assert sampling._entropy(p).view(np.uint64).tolist() == \
            plain.view(np.uint64).tolist()


class TestWorkingSet:
    """select_batchbald works through the candidates in blocks, so a
    call's memory does not grow with the pool: at the digits-analog
    preset's scale the whole (N, mc_count, C) buffers took 28.6 MiB."""

    def test_batchbald(self):
        probs = TestBatchBaldPerItemReference.dense_probs(np.random.default_rng(0),
                                                          2000, 10, 8)
        assert peak_mib(lambda: select_batchbald(probs, 2, 100, seed=0)) < 8


class TestSelectClue:
    def test_whole_pool(self):
        pool = np.random.default_rng(0).normal(size=(6, 2))
        out = select_clue(pool, np.ones(6), 6, seed=1)
        assert sorted(out) == list(range(6))

    def test_weight_concentration(self):
        pool = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0], [2.0, 8.0]])
        weights = np.array([0.0, 1.0, 0.0, 0.0])
        assert select_clue(pool, weights, 1, seed=2) == [1]

    def test_two_blobs_one_each(self):
        rng = np.random.default_rng(3)
        blob_a = rng.normal([0, 0], 0.3, size=(8, 2))
        blob_b = rng.normal([10, 10], 0.3, size=(8, 2))
        pool = np.vstack([blob_a, blob_b])
        out = select_clue(pool, np.ones(16), 2, seed=4)
        assert len(out) == 2
        sides = {int(i >= 8) for i in out}
        assert sides == {0, 1}

    def test_two_blobs_brute_force_objective(self):
        """The blob split minimizes the weighted k-means objective over
        every 2-partition of a tiny instance, and clue recovers it."""
        pool = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 10.0], [10.5, 10.0]])
        weights = np.array([1.0, 2.0, 1.5, 1.0])

        def objective(groups):
            total = 0.0
            for members in groups:
                w = weights[members]
                centroid = (pool[members] * w[:, None]).sum(0) / w.sum()
                total += (w * ((pool[members] - centroid) ** 2).sum(1)).sum()
            return total

        partitions = [([0], [1, 2, 3]), ([1], [0, 2, 3]), ([2], [0, 1, 3]),
                      ([3], [0, 1, 2]), ([0, 1], [2, 3]), ([0, 2], [1, 3]),
                      ([0, 3], [1, 2])]
        best = min(partitions, key=objective)
        assert sorted(map(sorted, best)) == [[0, 1], [2, 3]]
        out = select_clue(pool, weights, 2, seed=5)
        assert {int(i >= 2) for i in out} == {0, 1}

    def test_all_zero_weights_warns(self):
        pool = np.random.default_rng(5).normal(size=(5, 2))
        with pytest.warns(UserWarning, match="all-zero"):
            out = select_clue(pool, np.zeros(5), 2, seed=6)
        assert len(set(out)) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        pool = rng.normal(size=(30, 3))
        w = rng.uniform(0, 1, size=30)
        assert select_clue(pool, w, 5, seed=9) == select_clue(pool, w, 5, seed=9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_features_must_be_finite(self, bad):
        pool = np.random.default_rng(2).normal(size=(6, 2))
        pool[3, 1] = bad
        with pytest.raises(ValueError, match="^pool_features must be finite$"):
            select_clue(pool, np.ones(6), 2, seed=0)

    @pytest.mark.parametrize("weights", [np.ones((6, 1)), [np.nan] * 6, [np.inf] + [1.0] * 5],
                             ids=["2-d", "nan", "inf"])
    def test_uncertainties_must_be_one_finite_value_per_point(self, weights):
        # numpy's "p must be 1-dimensional" and "Probabilities contain NaN" before
        pool = np.random.default_rng(2).normal(size=(6, 2))
        with pytest.raises(ValueError, match="^need one finite uncertainty per pool point$"):
            select_clue(pool, weights, 2, seed=0)


class TestAllStrategiesContract:
    """Every selector returns exactly B distinct pool ids, deterministically."""

    def test_b_distinct_ids_from_pool(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(8, 30))
            b = int(rng.integers(1, 6))
            ids = list(range(n))
            feats = rng.normal(size=(n, 3))
            scores = {i: float(rng.normal()) for i in ids}
            probs = rng.dirichlet(np.ones(3), size=(n, 4))
            outs = {
                "random": select_random(ids, b, seed=trial),
                "topn": select_topn(list(scores.items()), b),
                "subsample_topn": select_subsample_topn(
                    ids, scores_of(scores), 0.9, b, seed=trial),
                "coreset": select_coreset(feats, [], b),
                "batchbald": select_batchbald(probs, b, mc_count=20, seed=trial),
                "clue": select_clue(feats, np.abs(rng.normal(size=n)) + 0.1,
                                    b, seed=trial),
            }
            for name, out in outs.items():
                assert len(out) == b, name
                assert len(set(out)) == b, name
                assert set(out) <= set(ids), name

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.integers(0, 10**6), min_size=1, max_size=25, unique=True),
           data=st.data())
    def test_six_selectors_b_distinct_ids_deterministic(self, ids, data):
        """Each selector, given a pool of arbitrary ids as the loop gives
        it (row indices mapped back through the pool), returns B distinct
        pool ids, and the same ids on a rerun with the same inputs and
        seed.  Features, scores and weights sit on a coarse grid, so
        duplicate points, tied scores and zero weights occur."""
        n = len(ids)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="inputs"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = data.draw(st.floats(0.05, 1.0), label="subsample fraction")
        b = data.draw(st.integers(1, subsample_size(p, n)), label="b")
        feats = rng.integers(0, 3, size=(n, 2)).astype(float)
        labeled = rng.integers(0, 3, size=(int(rng.integers(0, 4)), 2)).astype(float)
        scores = dict(zip(ids, rng.integers(0, 3, size=n).astype(float)))
        weights = rng.integers(0, 3, size=n).astype(float)
        probs = (probs_with_zeros(rng, n, 4, 3) if n >= 2
                 else rng.dirichlet(np.ones(3), size=(n, 4)))
        selectors = {
            "random": lambda: select_random(ids, b, seed),
            "topn": lambda: select_topn(list(scores.items()), b),
            "subsample_topn": lambda: select_subsample_topn(ids, scores_of(scores),
                                                            p, b, seed),
            "coreset": lambda: [ids[i] for i in select_coreset(feats, labeled, b)],
            "batchbald": lambda: [ids[i] for i in select_batchbald(probs, b, mc_count=8,
                                                                   seed=seed)],
            "clue": lambda: [ids[i] for i in select_clue(feats, weights, b, seed=seed)],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # clue's all-zero weights fallback
            for name, select in selectors.items():
                picked = select()
                assert len(picked) == len(set(picked)) == b, name
                assert set(picked) <= set(ids), name
                assert select() == picked, name
