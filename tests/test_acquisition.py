"""Acquisition: entropies, combination and per-image aggregation."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy
from tests_support_reference import (Detection, detections_of, reference_cls_entropy,
                                     reference_combine,
                                     reference_reg_entropy,
                                     reference_score_image)

from sim2real_al.acquisition import (AcquisitionConfig, _combined, _pair_checks, _xlogx,
                                     categorical_entropy, detection_entropies, score_image)
from sim2real_al.rules import _raise_first_failure


# three Dirichlet rows, a one-hot row and the uniform row, with the
# float.hex of their categorical and Bernoulli-sum entropies as computed
# before the finite checks were added
VALID_ROWS = np.vstack([np.random.default_rng(11).dirichlet(np.ones(4), size=3),
                        [0.0, 1.0, 0.0, 0.0], [0.25] * 4])
CATEGORICAL_HEX = ["0x1.036b79182f4ddp+0", "0x1.9588ee81fa1b9p-2", "0x1.4c26bac1b429dp+0",
                   "-0x0.0p+0", "0x1.62e42fefa39efp+0"]
BERNOULLI_HEX = ["0x1.bf5c6c9a4d9d2p+0", "0x1.6778363c905b2p-1", "0x1.10d25db9f3d09p+1",
                 "-0x0.0p+0", "0x1.1fea645f0ef4ep+1"]


def entropies(probs=(0.5,), cov=np.eye(4)):
    """detection_entropies of a batch of one image with one detection."""
    det = Detection(class_probs=np.asarray(probs, dtype=float), box_mean=np.zeros(4),
                    box_cov=np.asarray(cov, dtype=float))
    return tuple(float(u[0]) for u in detection_entropies(detections_of([[det]])))


def cls_entropy_of(probs):
    return entropies(probs=probs)[0]


def reg_entropy_of(cov):
    return entropies(cov=cov)[1]


class TestXlogx:
    """_xlogx(x) gives the bits of scipy's xlogy(x, x), which the tests
    keep as the reference; numpy's np.log differs on about 0.3% of
    uniforms."""

    SMALLEST_NORMAL = np.finfo(float).smallest_normal

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 3000),
           special=st.lists(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.5e-310, SMALLEST_NORMAL]),
                            max_size=8))
    @example(seed=0, size=3000, special=[0.0, 1.0, 5e-324])
    def test_is_xlogy_bit_for_bit(self, seed, size, special):
        rng = np.random.default_rng(seed)
        # uniforms, the special values and subnormals
        x = np.concatenate([rng.random(size), special,
                            rng.random(size % 7) * self.SMALLEST_NORMAL])
        np.testing.assert_array_equal(_xlogx(x).view(np.uint64), xlogy(x, x).view(np.uint64))

    def test_zero_is_zero_and_out_of_range_is_nan(self):
        got = _xlogx(np.array([[0.0, -0.0, 1.0], [-0.5, np.nan, 2.0]]))
        assert [v.hex() for v in got[0]] == ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]
        assert np.isnan(got[1, :2]).all() and got[1, 2] == 2.0 * math.log(2.0)


class TestClsEntropy:
    @pytest.mark.parametrize("probs, message", [
        # a NaN score fails when its Detections batch is built, before
        # any range check; it passed the range check and failed the pair
        # check ("uncertainties must be finite") before
        ([np.nan, 0.5], "class_probs must be finite"),
        ([0.5, np.nan, 0.5], "class_probs must be finite"),
        ([np.nan, 1.5], "class_probs must be finite"),
    ])
    def test_nan_rejected(self, probs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls_entropy_of(probs)
        assert [cls_entropy_of(row).hex() for row in VALID_ROWS] == BERNOULLI_HEX

    def test_max_entropy_bernoulli(self):
        assert cls_entropy_of([0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic_classes(self):
        assert cls_entropy_of([1.0, 0.0]) == 0.0

    def test_hand_computed(self):
        # h(0.9) = 0.325083, h(0.2) = 0.500402
        assert cls_entropy_of([0.9, 0.2]) == pytest.approx(0.8254853969296361,
                                                           abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cls_entropy_of([0.5, 1.2])
        with pytest.raises(ValueError):
            cls_entropy_of([-0.1])

    def test_upper_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = rng.uniform(0, 1, size=rng.integers(1, 10))
            assert cls_entropy_of(p) <= len(p) * math.log(2) + 1e-12

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.uniform(0, 1, size=6)
            expected = sum(-pi * math.log(pi) - (1 - pi) * math.log(1 - pi)
                           for pi in p)
            assert cls_entropy_of(p) == pytest.approx(expected, abs=1e-12)


class TestCategoricalEntropy:
    def test_uniform_ten(self):
        assert categorical_entropy(np.full((1, 10), 0.1))[0] == pytest.approx(
            math.log(10), abs=1e-12)

    def test_one_hot(self):
        assert categorical_entropy([[0.0, 1.0, 0.0]])[0] == 0.0

    def test_hand_computed(self):
        assert categorical_entropy([[0.7, 0.3]])[0] == pytest.approx(
            0.6108643020548935, abs=1e-9)

    @pytest.mark.parametrize("bad, message", [
        ([[np.nan, 0.5, 0.25, 0.25]], "probs must be finite"),
        ([[0.5, 0.5, 0.0, np.nan], [-0.2, 0.4, 0.4, 0.4]], "probs must be finite"),
        ([[-0.2, 0.4, 0.4, 0.4], [0.5, 0.5, 0.0, np.nan]], "probs must be finite"),
        ([[np.nan, -0.5, 1.0, 0.5]], "probs must be finite"),
        ([[0.5, 0.5, -np.inf, np.inf]], "probs must be finite"),
    ], ids=["nan", "nan-then-negative", "negative-then-nan", "nan-and-negative", "inf"])
    def test_nan_rows_rejected(self, bad, message):
        """An (N, C) batch holding a non-finite entry raises 'probs must
        be finite' wherever its row sits, before any per-row check; valid
        rows keep their bits.  The per-row checks used to run first, so a
        negative entry in an earlier row or the same one raised
        "probabilities must be nonnegative"."""
        assert [v.hex() for v in categorical_entropy(VALID_ROWS).tolist()] == CATEGORICAL_HEX
        for at in range(len(VALID_ROWS) + 1):
            rows = np.insert(VALID_ROWS, at, bad, axis=0)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                categorical_entropy(rows)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            categorical_entropy(bad)

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError):
            categorical_entropy([[0.5, 0.6]])
        with pytest.raises(ValueError):
            categorical_entropy([[-0.2, 1.2]])

    @pytest.mark.parametrize("probs", [[[1e308, 1e308]],
                                       [[0.5, 0.5], [1e308, 1e308]]],
                             ids=["row", "after-valid-row"])
    def test_overflowing_sum_rejected(self, probs):
        with pytest.raises(ValueError, match=r"probabilities must sum to 1, got "):
            categorical_entropy(probs)

    @pytest.mark.parametrize("probs, got", [([[0.5, 0.6]], "1.1"),
                                            ([[0.5, 0.5], [0.25, 0.5]], "0.75"),
                                            ([[1e308, 1e308]], "inf")])
    def test_sum_message_prints_a_plain_float(self, probs, got):
        with pytest.raises(ValueError) as info:
            categorical_entropy(probs)
        assert str(info.value) == f"probabilities must sum to 1, got {got}"

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.dirichlet(np.ones(7))
            forward, backward = categorical_entropy([p, p[::-1]])
            assert forward == backward

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            expected = sum(-pi * math.log(pi) for pi in p if pi > 0)
            assert categorical_entropy([p])[0] == pytest.approx(expected, abs=1e-12)

    BAD_ROWS = {
        "negative": lambda p: np.concatenate(([-0.2], p[1:])),
        "off-sum": lambda p: 1.5 * p,
        "nan": lambda p: np.concatenate(([np.nan], p[1:])),
    }

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 6), c=st.integers(1, 5),
           kinds=st.lists(st.sampled_from(sorted(BAD_ROWS)), max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_one_row_calls(self, n, c, kinds, seed):
        """(N, C) finite rows give the bits of N calls on a batch of one
        row, and fail with the message of the first row that fails alone;
        a non-finite entry anywhere fails the batch as 'probs must be
        finite'."""
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(c), size=n)
        rows[rng.random(n) < 0.2] = np.eye(c)[rng.integers(0, c)]   # exact 0s and 1s
        for kind in kinds:
            if n:
                i = int(rng.integers(0, n))
                rows[i] = self.BAD_ROWS[kind](rows[i])

        def outcome(call):
            try:
                return call()
            except ValueError as exc:
                return ("error", str(exc))

        batch = outcome(lambda: [v.hex() for v in categorical_entropy(rows).tolist()])
        one_by_one = [outcome(lambda row=row: categorical_entropy(row[None])[0].hex())
                      for row in rows]
        errors = [e for e in one_by_one if isinstance(e, tuple)]
        if not np.isfinite(rows).all():
            assert batch == ("error", "probs must be finite")
        else:
            assert batch == (errors[0] if errors else one_by_one)


class TestRegEntropy:
    def test_identity(self):
        expected = 2.0 + 2.0 * math.log(2 * math.pi)
        assert reg_entropy_of(np.eye(4)) == pytest.approx(expected, abs=1e-12)

    def test_scaled_identity(self):
        expected = 2.0 + 2.0 * math.log(2 * math.pi) + 4.0
        assert reg_entropy_of(np.exp(2) * np.eye(4)) == pytest.approx(expected,
                                                                      abs=1e-9)

    def test_scaling_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            cov = a @ a.T + 0.5 * np.eye(4)
            for alpha in (2.0, 3.5, 10.0):
                diff = reg_entropy_of(alpha * cov) - reg_entropy_of(cov)
                assert diff == pytest.approx(2.0 * math.log(alpha), abs=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate covariance"):
            reg_entropy_of(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            reg_entropy_of(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric

    def test_monte_carlo_oracle(self):
        """-E[log pdf] over 1e6 draws matches the closed form (3 SE)."""
        rng = np.random.default_rng(5)
        for variances in ([1.0, 1.0, 1.0, 1.0], [0.5, 2.0, 1.5, 3.0]):
            var = np.array(variances)
            cov = np.diag(var)
            n = 1_000_000
            x = rng.standard_normal((n, 4)) * np.sqrt(var)
            log_pdf = (-0.5 * (x ** 2 / var).sum(axis=1)
                       - 0.5 * np.log(var).sum()
                       - 2.0 * np.log(2 * np.pi))
            estimate = -log_pdf.mean()
            se = log_pdf.std(ddof=1) / np.sqrt(n)
            assert abs(reg_entropy_of(cov) - estimate) <= 3 * se


def combine(u_cls, u_reg, cfg):
    """The comb rule on one detection's pair, after its checks."""
    _raise_first_failure(_pair_checks(np.array([u_cls]), np.array([u_reg])))
    return float(_combined(np.array([u_cls]), np.array([u_reg]), cfg)[0])


class TestCombine:
    def test_sum_with_default_weights(self):
        cfg = AcquisitionConfig(comb="sum", w_cls=1.0, w_reg=0.01)
        assert combine(0.5, 10.0, cfg) == pytest.approx(0.6)

    def test_max_unit_weights(self):
        cfg = AcquisitionConfig(comb="max", w_cls=1.0, w_reg=1.0)
        assert combine(0.5, 10.0, cfg) == 10.0

    def test_cls_only(self):
        cfg = AcquisitionConfig(comb="sum", w_cls=1.0, w_reg=0.0)
        assert combine(0.7, 123.0, cfg) == pytest.approx(0.7)

    def test_sum_linear_in_each_component(self):
        cfg = AcquisitionConfig(comb="sum", w_cls=2.0, w_reg=0.5)
        for a, b, c in [(0.1, 0.2, 0.3), (1.0, 2.0, 3.0)]:
            vals = [combine(v, 1.0, cfg) for v in (a, b, c)]
            assert vals[1] - vals[0] == pytest.approx(vals[2] - vals[1], abs=1e-12)
            vals = [combine(0.4, v, cfg) for v in (a, b, c)]
            assert vals[1] - vals[0] == pytest.approx(vals[2] - vals[1], abs=1e-12)

    def test_max_tie_keeps_classification_term(self):
        # as Python's max(wc, wr): the first operand wins a tie, which
        # shows in the sign of a zero
        cfg = AcquisitionConfig(comb="max", w_cls=1.0, w_reg=1.0)
        assert not math.copysign(1.0, combine(0.0, -0.0, cfg)) < 0
        assert math.copysign(1.0, combine(-0.0, 0.0, cfg)) < 0

    def test_arrays_match_reference(self):
        rng = np.random.default_rng(6)
        u_cls = np.concatenate([rng.uniform(0, 3, 50), [0.0, -0.0, 1.0]])
        u_reg = np.concatenate([rng.normal(0, 20, 50), [-0.0, 0.0, 100.0]])
        for comb in ("sum", "max"):
            for w_cls, w_reg in ((1.0, 0.01), (0.0, 1.0), (1.0, 0.0), (0.3, 2.5)):
                cfg = AcquisitionConfig(comb=comb, w_cls=w_cls, w_reg=w_reg)
                got = _combined(u_cls, u_reg, cfg).tolist()
                want = [reference_combine(c, r, cfg) for c, r in zip(u_cls, u_reg)]
                assert [v.hex() for v in got] == [float(v).hex() for v in want]

    @pytest.mark.parametrize("u_cls, u_reg, message", [
        (float("nan"), 1.0, "uncertainties must be finite"),
        (0.5, float("inf"), "uncertainties must be finite"),
        (-0.1, 1.0, "classification entropy cannot be negative"),
        (-0.1, float("nan"), "uncertainties must be finite"),
    ])
    def test_pair_checks(self, u_cls, u_reg, message):
        with pytest.raises(ValueError, match=message):
            combine(u_cls, u_reg, AcquisitionConfig())
        with pytest.raises(ValueError, match=message):
            reference_combine(u_cls, u_reg, AcquisitionConfig())

    def test_pair_checks_first_failing_row(self):
        u_cls = np.array([0.5, -0.1, float("nan")])
        u_reg = np.array([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="cannot be negative"):
            _raise_first_failure(_pair_checks(u_cls, u_reg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(comb="mean")
        with pytest.raises(ValueError):
            AcquisitionConfig(agg="median")
        with pytest.raises(ValueError):
            AcquisitionConfig(w_cls=-1.0)
        with pytest.raises(ValueError, match="empty_image_score"):
            AcquisitionConfig(empty_image_score=float("nan"))


def score_one(dets, cfg):
    """score_image on a batch of one image holding the detections dets."""
    return float(score_image(detections_of([dets]), cfg)[0])


def _det(probs, cov_scale=1.0):
    return Detection(class_probs=np.asarray(probs),
                     box_mean=np.array([0, 0, 10, 10]),
                     box_cov=cov_scale * np.eye(4))


class TestScoreImage:
    def test_agg_modes_on_known_values(self):
        # build detections whose combined score is exactly u_cls (w_reg=0)
        cfg_base = dict(comb="sum", w_cls=1.0, w_reg=0.0)
        dets = [_det([p]) for p in (0.5, 0.5, 0.5)]
        h = math.log(2)
        for agg, expected in (("max", h), ("sum", 3 * h), ("avg", h)):
            cfg = AcquisitionConfig(agg=agg, **cfg_base)
            assert score_one(dets, cfg) == pytest.approx(expected)

    def test_empty_default_zero(self):
        assert score_one([], AcquisitionConfig()) == 0.0

    def test_empty_custom_score(self):
        cfg = AcquisitionConfig(empty_image_score=-3.5)
        assert score_one([], cfg) == -3.5

    def test_singleton_agg_equivalence(self):
        det = _det([0.3, 0.6], cov_scale=2.0)
        scores = [score_one([det], AcquisitionConfig(agg=a))
                  for a in ("max", "sum", "avg")]
        assert scores[0] == scores[1] == scores[2]

    def test_one_score_per_image(self):
        images = [[_det([0.4])], [], [_det([0.5]), _det([0.2])]]
        scores = score_image(detections_of(images), AcquisitionConfig(agg="max"))
        assert scores.shape == (3,)
        assert scores[1] == 0.0
        assert scores[2] == score_one(images[2], AcquisitionConfig(agg="max"))

    @pytest.mark.parametrize("agg", ["sum", "avg"])
    def test_nonfinite_rejected(self, agg):
        # each detection combines to ln 2 * 1e308, finite; three of them
        # sum past the largest double
        cfg = AcquisitionConfig(comb="sum", agg=agg, w_cls=1e308, w_reg=0.0)
        dets = [_det([0.5])] * 3
        with pytest.raises(ValueError, match="^image score must be finite$"):
            score_one(dets, cfg)
        assert score_one(dets, replace(cfg, agg="max")) == 1e308 * math.log(2)


CONFIGS = [AcquisitionConfig(comb=comb, agg=agg, w_cls=w_cls, w_reg=w_reg)
           for comb in ("sum", "max") for agg in ("max", "sum", "avg")
           for w_cls, w_reg in ((1.0, 0.01), (0.0, 1.0), (1.0, 0.0), (0.3, 2.5))]


def random_detections(rng, n, n_classes):
    """n detections with scores that include exact 0s and 1s, and SPD
    covariances from tight (negative entropy) to wide."""
    dets = []
    for _ in range(n):
        probs = rng.uniform(0.0, 1.0, n_classes)
        probs[rng.random(n_classes) < 0.2] = rng.choice([0.0, 1.0])
        a = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3, 2)
        cov = a @ a.T + 1e-6 * np.eye(4)
        dets.append(Detection(class_probs=probs, box_mean=np.zeros(4),
                              box_cov=0.5 * (cov + cov.T)))
    return dets


def score_or_error(score, dets, cfg):
    """The float.hex of score(dets, cfg), or ("error", message)."""
    try:
        return float(score(dets, cfg)).hex()
    except ValueError as exc:
        return ("error", str(exc))


class TestScoreImageReference:
    """One scoring pass per image gives the bits, and the first error,
    of scoring one detection at a time
    (tests_support_reference.reference_score_image)."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.comb}-{c.agg}-{c.w_cls}-{c.w_reg}")
    def test_random_detections(self, cfg):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 40):
            for n_classes in (1, 3, 5):
                dets = random_detections(rng, n, n_classes)
                assert (score_or_error(score_one, dets, cfg)
                        == score_or_error(reference_score_image, dets, cfg))

    def test_tied_terms_under_max(self):
        # w_reg = 0 makes the regression term a signed zero, tied with a
        # zero classification entropy: max keeps the first operand
        det = Detection(class_probs=np.array([0.0, 1.0]), box_mean=np.zeros(4),
                        box_cov=1e-6 * np.eye(4))
        for w_reg in (0.0, 1.0):
            cfg = AcquisitionConfig(comb="max", agg="sum", w_reg=w_reg)
            assert (score_or_error(score_one, [det, det], cfg)
                    == score_or_error(reference_score_image, [det, det], cfg))

    BAD = {
        "score-range": lambda d: Detection(np.array([0.5, 1.5]), d.box_mean, d.box_cov),
        "asymmetric": lambda d: Detection(d.class_probs, d.box_mean,
                                          d.box_cov + np.triu(np.ones((4, 4)), 1)),
        "singular": lambda d: Detection(d.class_probs, d.box_mean, np.zeros((4, 4))),
        "negative-definite": lambda d: Detection(d.class_probs, d.box_mean,
                                                 -np.eye(4)),
        "not-square": lambda d: Detection(d.class_probs, d.box_mean, np.eye(4)[:3]),
    }

    # a not-square covariance fails when its Detections batch is built
    # (test_fusion.TestDetections), before scoring; so do non-finite
    # scores and covariances
    @settings(max_examples=80, deadline=None)
    @given(kinds=st.lists(st.sampled_from(sorted(set(BAD) - {"not-square"})),
                          min_size=1, max_size=3),
           n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_first_error_matches(self, kinds, n, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, n + len(kinds), 2)
        for kind, good in zip(kinds, dets[n:]):
            dets[int(rng.integers(0, n))] = self.BAD[kind](good)
        dets = dets[:n]
        assert (score_or_error(score_one, dets, CONFIGS[0])
                == score_or_error(reference_score_image, dets, CONFIGS[0]))

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(sorted(set(BAD) - {"not-square"})),
                          max_size=3),
           sizes=st.lists(st.integers(0, 4), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_image_by_image(self, kinds, sizes, seed):
        """A batch of images scores, and fails, as scoring its images one
        at a time, in order, does."""
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, sum(sizes) + len(kinds), 2)
        for kind, good in zip(kinds, dets[sum(sizes):]):
            if sum(sizes):
                dets[int(rng.integers(0, sum(sizes)))] = self.BAD[kind](good)
        bounds = np.cumsum([0, *sizes])
        images = [dets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

        def batch():
            return [v.hex() for v in score_image(detections_of(images), CONFIGS[0]).tolist()]

        def one_by_one():
            return [score_or_error(reference_score_image, image, CONFIGS[0])
                    for image in images]

        try:
            got = batch()
        except ValueError as exc:
            got = ("error", str(exc))
        expected = one_by_one()
        errors = [e for e in expected if isinstance(e, tuple)]
        if errors:
            assert got == errors[0]
        else:
            assert got == expected

    @pytest.mark.parametrize("comb", ["sum", "max"])
    @pytest.mark.parametrize("agg", ["max", "sum", "avg"])
    def test_signed_zero_ties_per_image(self, comb, agg):
        # exact 0/1 class scores give a -0.0 classification entropy, and
        # w_reg = 0 a regression term of the sign of the covariance's
        # entropy, so the combined values are zeros of either sign; max
        # keeps the first of tied zeros, as Python's max does
        tight = Detection(np.array([1.0, 0.0]), np.zeros(4), 1e-6 * np.eye(4))
        wide = Detection(np.array([1.0, 0.0]), np.zeros(4), np.eye(4))
        images = [[tight, wide], [wide, tight], [tight], [], [wide, wide, tight]]
        cfg = AcquisitionConfig(comb=comb, agg=agg, w_reg=0.0)
        got = [v.hex() for v in score_image(detections_of(images), cfg).tolist()]
        expected = [reference_score_image(image, cfg).hex() for image in images]
        assert got == expected

    def test_one_row_kernels(self):
        rng = np.random.default_rng(4)
        for det in random_detections(rng, 50, 4):
            assert (entropies(det.class_probs, det.box_cov)
                    == (reference_cls_entropy(det.class_probs),
                        reference_reg_entropy(det.box_cov)))
        for bad in ([0.5, 1.5], [-0.1]):
            with pytest.raises(ValueError, match=r"class scores must lie in \[0, 1\]"):
                cls_entropy_of(bad)
