"""Fusion: IoU, MC statistics, clustering, categorical/Gaussian products."""

import functools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_support_reference import (assert_same_detections, dense_image_text,
                                     reference_bayesod_inference,
                                     reference_cluster_anchors,
                                     reference_read_anchor_records)

from sim2real_al import fusion
from sim2real_al.fusion import (Anchors, Detections, bayesod_inference, cluster_anchors,
                                fuse_categorical, fuse_gaussian, iou_matrix,
                                mc_statistics, read_anchor_records,
                                write_anchor_records)
from sim2real_al.synthdata import (DetectionSceneSpec,
                                   generate_detection_scenes,
                                   synth_detector_outputs)


def anchors_const(score_rows, boxes, t=3):
    """Anchors whose T samples each repeat the given score vector and box."""
    scores = np.asarray(score_rows, dtype=float)
    boxes = np.asarray(boxes, dtype=float)
    return Anchors(scores=np.repeat(scores[:, None, :], t, axis=1),
                   boxes=np.repeat(boxes[:, None, :], t, axis=1))


def one_cluster(n):
    """(members, offsets) of one cluster of n anchors, in order."""
    return np.arange(n), np.array([0, n])


def fuse_scores(mean_scores):
    """fuse_categorical on one cluster of all the given (n, C) mean scores."""
    return fuse_categorical(mean_scores, *one_cluster(len(mean_scores)))[0]


def fuse_cluster(box_samples, **kwargs):
    """fuse_gaussian on one cluster of all the given (n, T, 4) samples."""
    return tuple(out[0] for out in fuse_gaussian(
        box_samples, *one_cluster(len(box_samples)), **kwargs))


class TestAnchors:
    def test_valid(self):
        a = Anchors(scores=np.full((2, 5, 3), 0.5), boxes=np.zeros((2, 5, 4)))
        assert len(a) == 2
        assert len(Anchors(scores=np.empty((0, 0, 0)), boxes=np.empty((0, 0, 4)))) == 0

    @pytest.mark.parametrize("scores, boxes", [
        (np.full((2, 3, 2), 0.5), np.zeros((2, 3, 3))),
        (np.full((2, 3, 2), 0.5), np.zeros((2, 4, 4))),
        (np.full((2, 3), 0.5), np.zeros((2, 3, 4))),
        (np.full((2, 0, 2), 0.5), np.zeros((2, 0, 4))),
        (np.full((1, 2, 2), np.nan), np.zeros((1, 2, 4))),
        (np.full((1, 2, 2), 0.5), np.array([[[0, 0, np.inf, 1]] * 2])),
        (np.full((1, 2, 2), 1.5), np.zeros((1, 2, 4))),
        (np.full((1, 2, 2), -0.1), np.zeros((1, 2, 4))),
    ], ids=["box-width", "sample-count", "score-rank", "no-samples", "nan-score",
            "inf-box", "score-above-one", "score-below-zero"])
    def test_invalid(self, scores, boxes):
        with pytest.raises(ValueError):
            Anchors(scores=scores, boxes=boxes)

    @pytest.mark.parametrize("offsets", [[0, 2.7, 4], [0, np.nan, 4], [0, np.inf, 4],
                                         [0, 2, 4, 4.5]],
                             ids=["fraction", "nan", "inf", "fraction-past-count"])
    def test_offsets_must_be_whole_numbers(self, offsets):
        # np.asarray(..., dtype=np.intp) used to truncate 2.7 to 2
        with pytest.raises(ValueError, match="^offsets must rise from 0 to the anchor count$"):
            Anchors(scores=np.full((4, 2, 3), 0.5), boxes=np.zeros((4, 2, 4)),
                    offsets=offsets)

    def test_whole_float_offsets_accepted(self):
        a = Anchors(scores=np.full((4, 2, 3), 0.5), boxes=np.zeros((4, 2, 4)),
                    offsets=[0.0, 2.0, 4.0])
        assert a.offsets.dtype == np.intp and a.offsets.tolist() == [0, 2, 4]

    def test_concatenate_needs_a_batch(self):
        # numpy's "need at least one array to concatenate" before
        with pytest.raises(ValueError, match="^Anchors.concatenate needs at least one batch$"):
            Anchors.concatenate([])


class TestDetections:
    ROWS = {"class_probs": [[0.5, 0.5]], "box_mean": [[0.0, 0.0, 1.0, 1.0]],
            "box_cov": [np.eye(4)]}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_non_finite_field_fails_when_built(self, name, bad):
        """A NaN class score read mAP 1.0 and scored 'uncertainties must
        be finite'; a NaN box mean scored as if finite."""
        rows = {field: np.array(value) for field, value in self.ROWS.items()}
        rows[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            Detections(**rows, cluster_size=[1], offsets=[0, 1])

    def test_not_square_covariance_fails_when_built(self):
        # scoring raised "covariance must be a square matrix" before
        with pytest.raises(ValueError, match=re.escape(
                "box_cov must be an array of shape (1, 4, 4), got shape (1, 3, 4)")):
            Detections(class_probs=[[0.5, 0.5]], box_mean=[[0, 0, 1, 1]],
                       box_cov=[np.eye(4)[:3]], cluster_size=[1], offsets=[0, 1])

    def test_built_batch_keeps_its_arrays(self):
        """Fields already in the layout are stored as given, not copied."""
        anchors = anchors_const([[0.9, 0.1], [0.8, 0.2]], [[0, 0, 10, 10], [0, 0, 10, 11]])
        detections = bayesod_inference(anchors)
        again = Detections(detections.class_probs, detections.box_mean, detections.box_cov,
                           detections.cluster_size, detections.offsets)
        assert all(getattr(again, f) is getattr(detections, f) for f in
                   ("class_probs", "box_mean", "box_cov", "cluster_size", "offsets"))


class TestIoU:
    def test_identical(self):
        b = [[3, 4, 10, 12]]
        assert iou_matrix(b, b)[0, 0] == 1.0

    def test_disjoint(self):
        assert iou_matrix([[0, 0, 1, 1]], [[5, 5, 6, 6]])[0, 0] == 0.0

    def test_hand_computed(self):
        # inter = 1, union = 4 + 4 - 1 = 7
        overlap = iou_matrix([[0, 0, 2, 2]], [[1, 1, 3, 3]])[0, 0]
        assert overlap == pytest.approx(1 / 7, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 50, size=(200, 4))
        boxes = np.concatenate([x[:, :2], x[:, :2] + x[:, 2:] + 0.1], axis=1)
        overlaps = iou_matrix(boxes, boxes)
        assert overlaps.shape == (200, 200)
        np.testing.assert_array_equal(overlaps, overlaps.T)
        assert np.all((0.0 <= overlaps) & (overlaps <= 1.0))

    def test_rectangular_shape(self):
        assert iou_matrix(np.zeros((0, 4)), [[0, 0, 1, 1]]).shape == (0, 1)
        assert iou_matrix([[0, 0, 1, 1]] * 3, [[0, 0, 1, 1]] * 2).shape == (3, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_boxes_must_be_finite(self, side, bad):
        """A non-finite corner read IoU 0.0 against every box."""
        boxes = {"a": [[0, 0, 2, 2], [1, 1, 3, 3]], "b": [[1, 1, 3, 3]]}
        boxes[side][0][2] = bad
        with pytest.raises(ValueError, match=f"^{side} must be finite$"):
            iou_matrix(boxes["a"], boxes["b"])


class TestMcStatistics:
    def test_identical_samples(self):
        mean, cov = mc_statistics(np.tile([1.0, 2.0, 3.0, 4.0], (5, 1)))
        np.testing.assert_array_equal(mean, [1, 2, 3, 4])
        np.testing.assert_array_equal(cov, np.zeros((4, 4)))

    def test_unbiased_two_samples(self):
        mean, cov = mc_statistics([[0, 0, 0, 0], [2, 0, 0, 0]])
        np.testing.assert_allclose(mean, [1, 0, 0, 0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 2.0  # ((-1)^2 + 1^2) / (2 - 1)
        np.testing.assert_allclose(cov, expected)

    def test_single_sample(self):
        mean, cov = mc_statistics([[3, 1, 4, 1]])
        np.testing.assert_array_equal(mean, [3, 1, 4, 1])
        np.testing.assert_array_equal(cov, np.zeros((4, 4)))

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no samples"):
            mc_statistics(np.empty((0, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_samples_must_be_finite(self, bad):
        """A non-finite sample gave a NaN or infinite mean and covariance."""
        samples = np.ones((2, 3, 4))
        samples[1, 2, 0] = bad
        with pytest.raises(ValueError, match="^samples must be finite$"):
            mc_statistics(samples)

    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(20, 4))
        _, cov = mc_statistics(samples)
        np.testing.assert_allclose(cov, np.cov(samples.T, ddof=1), atol=1e-12)

    def test_stacked_matches_per_anchor(self):
        rng = np.random.default_rng(4)
        for t in (1, 3, 10, 33):
            stack = rng.normal(size=(5, t, 4))
            means, covs = mc_statistics(stack)
            for samples, mean, cov in zip(stack, means, covs):
                m0, c0 = mc_statistics(samples)
                np.testing.assert_array_equal(mean, m0)
                np.testing.assert_array_equal(cov, c0)


class TestClusterAnchors:
    def test_singleton(self):
        members, offsets = cluster_anchors(anchors_const([[0.9]], [[0, 0, 10, 10]]), 0.5)
        np.testing.assert_array_equal(offsets, [0, 1])
        np.testing.assert_array_equal(members, [0])

    def test_full_overlap(self):
        anchors = anchors_const([[0.3], [0.8]], [[0, 0, 10, 10]] * 2)
        members, offsets = cluster_anchors(anchors, 0.5)
        np.testing.assert_array_equal(offsets, [0, 2])
        # the center (highest score) comes first
        np.testing.assert_array_equal(members, [1, 0])

    def test_three_anchor_partition(self):
        anchors = anchors_const([[0.9], [0.7], [0.5]],
                                [[0, 0, 10, 10],
                                 [0, 1, 10, 11],     # IoU with 0: 9/11 >= 0.5
                                 [50, 50, 60, 60]])
        clusters = split(*cluster_anchors(anchors, 0.5))
        assert sorted(len(cl) for cl in clusters) == [1, 2]
        assert [list(cl) for cl in clusters] == [[0, 1], [2]]

    def test_partition_property(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = rng.integers(1, 12)
            x0y0 = rng.uniform(0, 40, size=(n, 2))
            wh = rng.uniform(5, 25, size=(n, 2))
            boxes = np.concatenate([x0y0, x0y0 + wh], axis=1)
            anchors = Anchors(scores=rng.uniform(0, 1, size=(n, 4, 3)),
                              boxes=boxes[:, None, :] + rng.normal(0, 0.5, size=(n, 4, 4)))
            clusters = split(*cluster_anchors(anchors, rng.uniform(0.1, 0.9)))
            seen = np.concatenate(clusters)
            assert sorted(seen) == list(range(n))
            top = anchors.scores.mean(axis=1).max(axis=1)
            for cl in clusters:
                assert all(top[cl[0]] >= top[m] - 1e-12 for m in cl)

    def test_empty(self):
        empty = Anchors(scores=np.empty((0, 0, 0)), boxes=np.empty((0, 0, 4)))
        members, offsets = cluster_anchors(empty, 0.5)
        assert len(members) == 0
        np.testing.assert_array_equal(offsets, [0])

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            cluster_anchors(anchors_const([[0.9]], [[0, 0, 10, 10]]), 2.0)


def split(members, offsets):
    """The clusters of cluster_anchors as a list of anchor-index arrays."""
    return [members[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


def random_batch(rng, sizes, t=3, n_classes=2):
    """Anchors of len(sizes) images, sizes[i] anchors each, jittered
    around three shared objects so that clusters form."""
    corners = rng.uniform(0.0, 30.0, (3, 2))
    objects = np.concatenate([corners, corners + 15.0], axis=1)
    n = int(sum(sizes))
    picked = objects[rng.integers(0, 3, n)]
    return Anchors(scores=rng.uniform(0.0, 1.0, (n, t, n_classes)),
                   boxes=picked[:, None, :] + rng.normal(0.0, 2.0, (n, t, 4)),
                   offsets=np.cumsum([0, *sizes]))


def one_image(anchors, i):
    lo, hi = anchors.offsets[i], anchors.offsets[i + 1]
    return Anchors(scores=anchors.scores[lo:hi], boxes=anchors.boxes[lo:hi])


class TestBatchClustering:
    """A batch of images clusters and fuses as its images do one by one
    (tests_support_reference.reference_cluster_anchors,
    reference_bayesod_inference), with indices shifted by each image's
    offset."""

    @staticmethod
    def expected_clusters(anchors, threshold):
        expected = []
        for i in range(anchors.n_images):
            expected += [members + anchors.offsets[i] for members in
                         reference_cluster_anchors(one_image(anchors, i), threshold)]
        return [list(c) for c in expected]

    def check(self, anchors, threshold, cls_bayesian):
        clusters = split(*cluster_anchors(anchors, threshold))
        assert [list(c) for c in clusters] == self.expected_clusters(anchors, threshold)
        assert_same_detections(
            bayesod_inference(anchors, threshold, cls_bayesian),
            [reference_bayesod_inference(one_image(anchors, i), threshold, cls_bayesian)
             for i in range(anchors.n_images)])

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(0, 9), min_size=1, max_size=8),
           t=st.integers(1, 5), threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
           cls_bayesian=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_random_batches(self, sizes, t, threshold, cls_bayesian, seed):
        self.check(random_batch(np.random.default_rng(seed), sizes, t),
                   threshold, cls_bayesian)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(0, 9), min_size=1, max_size=8),
           threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_flat_clusters(self, sizes, threshold, seed):
        """members is a permutation of the anchors and offsets rise from 0
        to A; each cluster lies in one image, and splitting at offsets
        gives the reference clusters image by image."""
        anchors = random_batch(np.random.default_rng(seed), sizes)
        members, offsets = cluster_anchors(anchors, threshold)
        np.testing.assert_array_equal(np.sort(members), np.arange(len(anchors)))
        assert offsets[0] == 0 and offsets[-1] == len(anchors)
        assert np.all(np.diff(offsets) > 0)
        image = np.searchsorted(anchors.offsets, members, side="right") - 1
        for cluster in split(image, offsets):
            assert np.all(cluster == cluster[0])
        assert ([list(c) for c in split(members, offsets)]
                == self.expected_clusters(anchors, threshold))

    def test_blocks_of_images(self, monkeypatch):
        # blocks of one or two images give the clusters of one block
        rng = np.random.default_rng(8)
        anchors = random_batch(rng, [5, 0, 9, 1, 7, 3, 0, 8])
        for entries in (1, 2 * 81, 1 << 16):
            monkeypatch.setattr(fusion, "BLOCK_ENTRIES", entries)
            for cls_bayesian in (False, True):
                self.check(anchors, 0.5, cls_bayesian)

    def test_zero_area_boxes(self):
        # a zero-area mean box overlaps nothing, itself included, yet a
        # center still joins its own cluster
        rng = np.random.default_rng(3)
        anchors = random_batch(rng, [4, 3, 5])
        flat = anchors.boxes.copy()
        flat[::2, :, 2] = flat[::2, :, 0]
        anchors = Anchors(scores=anchors.scores, boxes=flat, offsets=anchors.offsets)
        for threshold in (0.0, 0.5, 1.0):
            self.check(anchors, threshold, False)

    def test_empty_images_keep_their_place(self):
        anchors = random_batch(np.random.default_rng(2), [0, 0])
        detections = bayesod_inference(anchors)
        assert len(detections) == 0
        np.testing.assert_array_equal(detections.offsets, [0, 0, 0])

    def test_offsets_checked(self):
        for offsets in ([0, 3, 2, 4], [1, 4], [0, 3], []):
            with pytest.raises(ValueError, match="offsets"):
                Anchors(scores=np.full((4, 2, 1), 0.5), boxes=np.zeros((4, 2, 4)),
                        offsets=offsets)


class TestFuseCategorical:
    def test_singleton_identity(self):
        np.testing.assert_allclose(fuse_scores([[0.6, 0.4]]), [0.6, 0.4], atol=1e-15)

    def test_two_members_bernoulli_default(self):
        fused = fuse_scores([[0.6, 0.4]] * 2)
        np.testing.assert_allclose(fused, [0.36, 0.16], atol=1e-12)

    def test_all_ones_member_is_identity(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 1, size=(2, 3))
        with_ones = np.concatenate([base, np.ones((1, 3))])
        np.testing.assert_array_equal(fuse_scores(base), fuse_scores(with_ones))

    def test_brute_force_products(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = rng.integers(1, 6)
            score_sets = rng.uniform(0, 1, size=(m, 4))
            expected = np.ones(4)
            for s in score_sets:
                expected = expected * s
            np.testing.assert_allclose(fuse_scores(score_sets), expected,
                                       atol=1e-12)
            assert np.all(fuse_scores(score_sets) <= 1.0 + 1e-15)

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "mean_scores must be finite"),
        (math.inf, "mean_scores must be finite"),
        (3.0, "mean_scores must lie in [0, 1]"),
        (-0.5, "mean_scores must lie in [0, 1]"),
    ], ids=["nan", "inf", "above-one", "below-zero"])
    def test_scores_must_be_finite_and_in_the_unit_interval(self, bad, message):
        """NaN fused to NaN, inf to inf and 3.0 to 0.6 without a word."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fuse_categorical([[bad, 0.5], [0.2, 0.3]], [0, 1], [0, 2])


class TestClusterPairChecked:
    """fuse_gaussian and fuse_categorical take members and offsets as two
    parameters, and reject offsets that do not split the members."""

    SAMPLES = np.random.default_rng(3).normal([0, 0, 20, 20], 2.0, size=(6, 10, 4))
    FUSERS = {"gaussian": functools.partial(fuse_gaussian, SAMPLES),
              "categorical": functools.partial(fuse_categorical, np.full((6, 3), 0.5))}

    @pytest.mark.parametrize("fuser", sorted(FUSERS))
    @pytest.mark.parametrize("offsets", [[0, 2, 5], [1, 3, 6], [0, 4, 2, 6], [], [[0, 6]]],
                             ids=["short-of-the-count", "not-from-0", "falling", "empty",
                                  "2-d"])
    def test_offsets_must_split_the_members(self, fuser, offsets):
        with pytest.raises(ValueError, match="^offsets must rise from 0 to the member count$"):
            self.FUSERS[fuser](np.arange(6), offsets)

    @pytest.mark.parametrize("fuse, values", [
        (fuse_categorical, np.full((4, 1), 0.5)), (fuse_gaussian, SAMPLES[:4])],
        ids=["categorical", "gaussian"])
    def test_fractional_offsets_rejected(self, fuse, values):
        # truncated to [0, 1, 4], these offsets fused clusters of 1 and 3 members
        with pytest.raises(ValueError, match="^offsets must rise from 0 to the member count$"):
            fuse(values, np.arange(4), [0, 1.5, 4])

    @pytest.mark.parametrize("fuser, rows", [("gaussian", "box_samples"),
                                             ("categorical", "mean_scores")])
    @pytest.mark.parametrize("members", [[-1, 1], [0, 6], [0, 9], [0.5, 1]],
                             ids=["negative", "one-past-the-rows", "far-past", "fraction"])
    def test_members_must_be_rows(self, fuser, rows, members):
        # -1 used to wrap around to the last row; 6 and 0.5 raised numpy's IndexError
        with pytest.raises(ValueError, match=f"^members must be rows of {rows}$"):
            self.FUSERS[fuser](members, [0, 2])

    @pytest.mark.parametrize("fuser", sorted(FUSERS))
    def test_whole_float_members_are_rows(self, fuser):
        np.testing.assert_equal(self.FUSERS[fuser]([5.0, 0.0, 2.0], [0, 1, 3]),
                                self.FUSERS[fuser]([5, 0, 2], [0, 1, 3]))

    @pytest.mark.parametrize("fuser", sorted(FUSERS))
    def test_list_of_cluster_arrays_is_a_type_error(self, fuser):
        # the old per-cluster list would read as members [0, 1, 2] and
        # offsets [0, 1, 3]: two wrong clusters
        with pytest.raises(TypeError):
            self.FUSERS[fuser]([np.array([0, 1, 2]), np.array([0, 1, 3])])


class TestFuseGaussian:
    def test_singleton_identity(self):
        rng = np.random.default_rng(2)
        samples = rng.normal([10, 10, 30, 30], 1.5, size=(40, 4))
        mean, cov = fuse_cluster(samples[None], regularizer=1e-6)
        m0, c0 = mc_statistics(samples)
        np.testing.assert_allclose(mean, m0, atol=1e-8)
        np.testing.assert_allclose(cov, c0 + 1e-6 * np.eye(4), atol=1e-8)

    def test_one_dim_embedded_product(self):
        # dim 0 carries N(0,1) vs N(2,1); other dims identical N(5,1)
        def member(mu0):
            mean = np.array([mu0, 5.0, 5.0, 5.0])
            t = 2000
            rng = np.random.default_rng(int(mu0 * 7 + 13))
            samples = rng.normal(mean, 1.0, size=(t, 4))
            # recenter/rescale so the sample stats are exact
            return (samples - samples.mean(0)) @ np.linalg.inv(
                np.linalg.cholesky(np.cov(samples.T, ddof=1)).T) + mean

        mean, cov = fuse_cluster(np.stack([member(0.0), member(2.0)]), regularizer=0.0)
        assert mean[0] == pytest.approx(1.0, abs=1e-9)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(mean[1:], [5, 5, 5], atol=1e-9)

    def test_identical_members_cov_shrinks(self):
        rng = np.random.default_rng(8)
        samples = rng.normal([5, 5, 20, 20], 2.0, size=(60, 4))
        for m in (2, 3, 5):
            mean, cov = fuse_cluster(np.tile(samples, (m, 1, 1)), regularizer=1e-6)
            m0, c0 = mc_statistics(samples)
            np.testing.assert_allclose(mean, m0, atol=1e-10)
            np.testing.assert_allclose(cov, (c0 + 1e-6 * np.eye(4)) / m,
                                       atol=1e-10)

    @pytest.mark.parametrize("regularizer", [math.nan, math.inf, -1e-6])
    def test_regularizer_must_be_finite_and_nonneg(self, regularizer):
        """A NaN regularizer got past the Cholesky check and fused NaN
        boxes and covariances."""
        samples = np.random.default_rng(2).normal([10, 10, 30, 30], 1.5, size=(1, 40, 4))
        with pytest.raises(ValueError, match="^regularizer must be finite and >= 0$"):
            fuse_cluster(samples, regularizer=regularizer)

    def test_information_never_decreases(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            members = rng.normal([0, 0, 20, 20], 2.0, size=(rng.integers(1, 5), 10, 4))
            _, fused_cov = fuse_cluster(members)
            fused_prec = np.linalg.inv(fused_cov)
            for member in members:
                _, c = mc_statistics(member)
                prec = np.linalg.inv(c + 1e-6 * np.eye(4))
                eigs = np.linalg.eigvalsh(fused_prec - prec)
                assert eigs.min() >= -1e-6 * max(1.0, abs(eigs).max())

    def test_member_order_invariance(self):
        rng = np.random.default_rng(22)
        members = rng.normal([0, 0, 20, 20], 2.0, size=(4, 12, 4))
        mean, cov = fuse_cluster(members)
        mean_r, cov_r = fuse_cluster(members[::-1])
        np.testing.assert_allclose(mean_r, mean, atol=1e-9)
        np.testing.assert_allclose(cov_r, cov, atol=1e-12)

    def test_density_product_grid_oracle(self):
        """1-D restriction: fused pdf equals the grid-normalized product."""
        def gauss(x, m, v):
            return np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2 * np.pi * v)

        cases = [((0.0, 1.0), (2.0, 1.0)), ((1.0, 0.5), (-1.0, 2.0)),
                 ((3.0, 1.5), (3.5, 0.7))]
        for (m1, v1), (m2, v2) in cases:
            # closed-form product of two 1-D Gaussians
            prec = 1 / v1 + 1 / v2
            fused_v = 1 / prec
            fused_m = fused_v * (m1 / v1 + m2 / v2)
            xs = np.linspace(min(m1, m2) - 8, max(m1, m2) + 8, 1000)
            prod = gauss(xs, m1, v1) * gauss(xs, m2, v2)
            prod /= np.trapezoid(prod, xs)
            np.testing.assert_allclose(prod, gauss(xs, fused_m, fused_v),
                                       atol=1e-6)
            # and the module agrees with the closed form on exact stats
            def member(m, v, seed):
                t = 400
                raw = np.random.default_rng(seed).standard_normal((t, 4))
                raw -= raw.mean(axis=0)
                white = raw @ np.linalg.inv(np.linalg.cholesky(
                    np.cov(raw.T, ddof=1))).T          # exact identity cov
                return white @ np.diag([np.sqrt(v), 1, 1, 1]) \
                    + np.array([m, 10.0, 10.0, 30.0])  # cov diag(v,1,1,1)

            mean, cov = fuse_cluster(
                np.stack([member(m1, v1, 17), member(m2, v2, 18)]),
                regularizer=0.0)
            assert mean[0] == pytest.approx(fused_m, abs=1e-9)
            assert cov[0, 0] == pytest.approx(fused_v, abs=1e-9)


class TestBayesodInference:
    def test_empty(self):
        empty = Anchors(scores=np.empty((0, 0, 0)), boxes=np.empty((0, 0, 4)))
        assert len(bayesod_inference(empty, 0.5)) == 0

    def test_single_anchor(self):
        rng = np.random.default_rng(4)
        samples = rng.normal([0, 0, 20, 20], 1.0, size=(25, 4))
        a = Anchors(scores=np.tile([0.7, 0.2], (1, 25, 1)), boxes=samples[None])
        for flag in (False, True):
            dets = bayesod_inference(a, cls_bayesian=flag)
            assert len(dets) == 1
            np.testing.assert_allclose(dets.class_probs[0], [0.7, 0.2], atol=1e-12)
            m0, _ = mc_statistics(samples)
            np.testing.assert_allclose(dets.box_mean[0], m0, atol=1e-6)
            assert dets.cluster_size[0] == 1

    def test_two_overlapping_cls_bayesian_off(self):
        anchors = anchors_const([[0.5, 0.2], [0.8, 0.3]], [[0, 0, 10, 10]] * 2, t=4)
        dets = bayesod_inference(anchors, cls_bayesian=False)
        assert len(dets) == 1
        np.testing.assert_allclose(dets.class_probs[0], [0.8, 0.3], atol=1e-12)
        assert dets.cluster_size[0] == 2
        # identical zero-variance boxes fuse back to the same corners
        np.testing.assert_allclose(dets.box_mean[0], [0, 0, 10, 10], atol=1e-9)

    def test_two_overlapping_cls_bayesian_on(self):
        anchors = anchors_const([[0.5, 0.2], [0.8, 0.3]], [[0, 0, 10, 10]] * 2, t=4)
        dets = bayesod_inference(anchors, cls_bayesian=True)
        np.testing.assert_allclose(dets.class_probs[0], [0.4, 0.06], atol=1e-12)

    def test_fused_cov_properties(self):
        rng = np.random.default_rng(14)
        anchors = Anchors(scores=rng.uniform(0, 1, (6, 8, 3)),
                          boxes=rng.normal([5, 5, 25, 25], 1.0, (6, 8, 4)))
        for cov in bayesod_inference(anchors, 0.3).box_cov:
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() >= 0

    def test_nan_regularizer_rejected(self):
        """It returned all-NaN boxes and covariances."""
        anchors = anchors_const([[0.9], [0.6]], [[0, 0, 10, 10]] * 2, t=4)
        with pytest.raises(ValueError, match="^regularizer must be finite and >= 0$"):
            bayesod_inference(anchors, regularizer=math.nan)

    def test_single_sample_anchors(self):
        anchors = anchors_const([[0.9], [0.6]], [[0, 0, 10, 10]] * 2, t=1)
        dets = bayesod_inference(anchors, 0.5)
        assert len(dets) == 1
        np.testing.assert_allclose(dets.box_cov[0], 0.5e-6 * np.eye(4), rtol=1e-12)


class TestInterchangeFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        records = []
        for i in range(3):
            n = rng.integers(0, 4)
            records.append((f"img{i}", Anchors(scores=rng.uniform(0, 1, (n, 4, 2)),
                                               boxes=rng.uniform(0, 30, (n, 4, 4)))))
        path = tmp_path / "anchors.txt"
        write_anchor_records(path, records)
        loaded = read_anchor_records(path)
        assert [r[0] for r in loaded] == [r[0] for r in records]
        for (_, orig), (_, back) in zip(records, loaded):
            assert len(orig) == len(back)
            if len(orig):
                np.testing.assert_array_equal(orig.scores, back.scores)
                np.testing.assert_array_equal(orig.boxes, back.boxes)

    def test_empty_image_header(self, tmp_path):
        path = tmp_path / "anchors.txt"
        empty = Anchors(scores=np.empty((0, 10, 3)), boxes=np.empty((0, 10, 4)))
        write_anchor_records(path, [("x", empty)])
        assert "image x 0 0 0\n" in path.read_text()
        assert len(read_anchor_records(path)[0][1]) == 0

    def test_comment_and_blank_lines_anywhere(self, tmp_path):
        path = tmp_path / "anchors.txt"
        path.write_text("# head\n\n  # indented\nimage a 1 1 2\n# after header\n"
                        "0.25\n \t\n0 0 1 1\n#\n0.5\n# mid-anchor\n0 0 2 2\n"
                        "\n# between images\nimage b 1 1 1\n0.75\n0 0 3 3\n# end")
        (id_a, a), (id_b, b) = read_anchor_records(path)
        assert (id_a, id_b) == ("a", "b")
        np.testing.assert_array_equal(a.scores.ravel(), [0.25, 0.5])
        np.testing.assert_array_equal(a.boxes[:, 0, 2], [1, 2])
        np.testing.assert_array_equal(b.boxes.ravel(), [0, 0, 3, 3])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-an-image-header 1 2 3\n")
        with pytest.raises(ValueError, match="malformed image header"):
            read_anchor_records(path)

    @pytest.mark.parametrize("text, match", [
        ("image a 1 2 1\n0.5\n0.5\n0 0 1 1\n", "image a: truncated or malformed anchor block"),
        ("image a 1 1 -1\n", "malformed image header: 'image a 1 1 -1'"),
        ("image a 1 1 1\nnan\n0 0 1 1\n", "image a: scores must be finite"),
        ("image a 1 1 1\n0.5\n0 0 inf 1\n", "image a: boxes must be finite"),
        ("image a 1 1 1\n1.5\n0 0 1 1\n", r"image a: scores must lie in \[0, 1\]"),
        ("image a 2 1 1\n0.5\n0 0 1 1\n", "image a: truncated or malformed anchor block"),
        ("image a 1 1 1\nx\n0 0 1 1\n", "image a: could not convert"),
        ("image a 1 0 2\n", "image a: need at least one Monte-Carlo sample"),
        ("image a 1 99999999999 1\n0.5\n0 0 1 1\n",
         "image a: truncated or malformed anchor block"),
        ("image a 99999999999 1 1\n0.5\n0 0 1 1\n",
         "image a: truncated or malformed anchor block"),
        ("image a 0 1 1\n\n0 0 1 1\n", "image a: truncated or malformed anchor block"),
        ("image a 1 1 1\n0.5 # note\n0 0 1 1\n",
         "image a: truncated or malformed anchor block"),
        ("image a 1 1 1 # note\n0.5\n0 0 1 1\n",
         "malformed image header: 'image a 1 1 1 # note'"),
    ], ids=["truncated", "negative-count", "nan-score", "inf-box", "score-range",
            "ragged-row", "not-a-number", "no-samples", "huge-count", "huge-width", "no-classes",
            "trailing-comment", "header-comment"])
    def test_bad_block_names_image(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_anchor_records(path)


class TestFusionReference:
    """One fuse_gaussian call per image gives the bits of one call per
    cluster (tests_support_reference.reference_bayesod_inference)."""

    THRESHOLDS = [0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0]

    @pytest.mark.parametrize("cls_bayesian", [False, True])
    @pytest.mark.parametrize("t, n_classes, anchors_per_object",
                             [(1, 3, 3), (10, 3, 3), (20, 1, 6), (130, 5, 2)])
    def test_synth_outputs(self, t, n_classes, anchors_per_object, cls_bayesian):
        spec = DetectionSceneSpec(n_classes=n_classes, objects_min=0, objects_max=8,
                                  anchors_per_object=anchors_per_object,
                                  mc_samples=t, sigma_box=3.0)
        scenes = generate_detection_scenes(spec, 12, seed=t)
        for i in range(scenes.n_images):
            anchors = synth_detector_outputs(scenes.take([i]), spec, [i])
            for threshold in self.THRESHOLDS:
                assert_same_detections(
                    bayesod_inference(anchors, threshold, cls_bayesian),
                    [reference_bayesod_inference(anchors, threshold, cls_bayesian)])

    @pytest.mark.parametrize("cls_bayesian", [False, True])
    def test_dense_images(self, tmp_path, cls_bayesian):
        rng = np.random.default_rng(5)
        path = tmp_path / "dense.txt"
        path.write_text("".join(dense_image_text(rng, f"im{i}", n_objects=(1, 8))
                                for i in range(10)))
        for _, anchors in read_anchor_records(path):
            for threshold in self.THRESHOLDS:
                assert_same_detections(
                    bayesod_inference(anchors, threshold, cls_bayesian),
                    [reference_bayesod_inference(anchors, threshold, cls_bayesian)])

    def test_empty_image(self):
        empty = Anchors(scores=np.empty((0, 5, 3)), boxes=np.empty((0, 5, 4)))
        assert len(bayesod_inference(empty)) == len(reference_bayesod_inference(empty)) == 0

    def test_degenerate_cluster_raises_alike(self):
        anchors = anchors_const([[0.9], [0.6]], [[0, 0, 10, 10], [50, 50, 60, 60]], t=1)
        for fuse in (bayesod_inference, reference_bayesod_inference):
            with pytest.raises(ValueError, match="degenerate covariance"):
                fuse(anchors, regularizer=0.0)

    @settings(max_examples=60, deadline=None)
    @given(n_anchors=st.integers(1, 14), t=st.integers(1, 6),
           n_classes=st.integers(1, 4), threshold=st.floats(0.0, 1.0),
           cls_bayesian=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_random_images(self, n_anchors, t, n_classes, threshold,
                           cls_bayesian, seed):
        rng = np.random.default_rng(seed)
        corners = rng.uniform(0.0, 30.0, (3, 2))
        objects = np.concatenate([corners, corners + 15.0], axis=1)
        picked = objects[rng.integers(0, 3, n_anchors)]
        anchors = Anchors(
            scores=rng.uniform(0.0, 1.0, (n_anchors, t, n_classes)),
            boxes=picked[:, None, :] + rng.normal(0.0, 2.0, (n_anchors, t, 4)))
        assert_same_detections(
            bayesod_inference(anchors, threshold, cls_bayesian),
            [reference_bayesod_inference(anchors, threshold, cls_bayesian)])


def read_either(reader, path):
    """(image ids, score and box bytes) of a file, or its ValueError message."""
    try:
        records = reader(path)
    except ValueError as exc:
        return str(exc)
    return [(image_id, a.scores.shape, a.scores.tobytes(), a.boxes.tobytes())
            for image_id, a in records]


# tokens a mutation may put in place of a value, and whitespace it may use
ODD_TOKENS = ["x", "nan", "-inf", "infinity", "1e999", "-0", "1_0", "1__0",
              "１２", "١", "0x1", "+.5", "5.", "#", "#3", ",",
              "image", "2.5", "1e-400", "0.5#"]
ODD_SPACES = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\xa0", "　", "\r"]


def mutate(text, rng):
    """Apply a few random edits that a hand-made or damaged file may hold."""
    lines = text.split("\n")
    for _ in range(int(rng.integers(1, 4))):
        lines = lines or [""]
        i = int(rng.integers(0, len(lines)))
        kind = int(rng.integers(0, 11))
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            lines.insert(i, str(rng.choice(["", "   ", "# note", "\t# x y",
                                            "　", "  #"])))
        elif kind in (3, 4):
            tokens = lines[i].split() or ["0.5"]
            j = int(rng.integers(0, len(tokens)))
            if kind == 3:
                tokens[j] = str(rng.choice(ODD_TOKENS))
            else:
                tokens.insert(j, str(rng.choice(ODD_TOKENS)))
            lines[i] = " ".join(tokens)
        elif kind == 5:
            lines[i] = str(rng.choice(ODD_SPACES)).join(lines[i].split(" "))
        elif kind == 6:
            lines[i] = " ".join(lines[i].split()[:-1])
        elif kind == 7:
            parts = lines[i].split()
            if parts[:1] == ["image"] and len(parts) == 5:
                k = int(rng.integers(1, 5))
                parts[k] = str(rng.choice(["0", "2", "-1", "２", "1.0",
                                           "99999999999", "a,b", "dup"]))
                lines[i] = " ".join(parts)
        elif kind == 8:
            lines[i] = str(rng.choice(ODD_SPACES)) + lines[i]
        elif kind == 9:
            lines = lines[:i]
        else:
            lines.insert(i, "image dup 1 1 1\n0.5\n0 0 1 1")
    out = "\n".join(lines)
    if rng.random() < 0.2:
        out = out.rstrip("\n")
    if rng.random() < 0.1:
        out = out.replace("\n", "\r\n")
    return out


class TestReaderReference:
    """The block reader gives the records, or the error message, of the
    line-by-line reader (tests_support_reference.reference_read_anchor_records)."""

    @pytest.mark.parametrize("loose", [False, True])
    def test_dense_files(self, tmp_path, loose):
        rng = np.random.default_rng(11)
        path = tmp_path / "dense.txt"
        path.write_text("# anchor-sample interchange v1\n" + "".join(
            dense_image_text(rng, f"img{i:05d}", n_objects=(0, 6), loose=loose)
            for i in range(12)))
        expected = read_either(reference_read_anchor_records, path)
        assert isinstance(expected, list) and len(expected) == 12
        assert read_either(read_anchor_records, path) == expected

    def test_written_files(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "repr.txt"
        scenes = generate_detection_scenes(DetectionSceneSpec(), 20,
                                           seed=rng.integers(1 << 30))
        write_anchor_records(path, [
            (f"r{i}", synth_detector_outputs(scenes.take([i]), DetectionSceneSpec(), [i]))
            for i in range(scenes.n_images)])
        expected = read_either(reference_read_anchor_records, path)
        assert isinstance(expected, list) and len(expected) == 20
        assert read_either(read_anchor_records, path) == expected

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mutated_files(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        blocks = []
        for i in range(int(rng.integers(1, 4))):
            t, c, n = (int(v) for v in rng.integers([1, 0, 0], [3, 3, 3],
                                                    endpoint=True))
            t = 0 if rng.random() < 0.1 else t
            if t * n == 0:
                blocks.append(f"image e{i} {c} {t} {n}\n")
                continue
            rows = [" ".join(str(v) for v in rng.uniform(0.0, 1.0, c).round(3))
                    for _ in range(t)] if c else []
            rows += [" ".join(str(v) for v in rng.uniform(0, 9, 4).round(2))
                     for _ in range(t)]
            blocks.append(f"image i{i} {c} {t} {n}\n" + "\n".join(rows * n) + "\n")
        text = mutate("# header\n" + "".join(blocks), rng)
        path = tmp_path_factory.mktemp("mutated") / "anchors.txt"
        path.write_text(text)
        assert (read_either(read_anchor_records, path)
                == read_either(reference_read_anchor_records, path)), repr(text)

    @pytest.mark.parametrize("text", [
        # too few data rows: a pattern that could also take a comment line
        # as a data row backtracks through 2**40 splits before failing
        "image a 4 41 1\n" + "# 1 2 3\n0.1 0.2 0.3 0.4\n" * 40 + "\n" * 100,
        # a ragged last row: taking a comment line as a row would match
        "image a 4 4 1\n" + "# 1 2 3\n0.1 0.2 0.3 0.4\n" * 7 + "# 1 2 3\n0 0 1\n",
        # the same, with a row that a comment cut short would hold
        "image a 4 4 1\n" + "# note 1 2 3 4\n0.1 0.2 0.3 0.4\n" * 7 + "# note 1 2 3 4\n0 0 1\n",
    ], ids=["too-few-rows", "ragged-last-row", "row-inside-comment"])
    def test_comment_lines_shaped_like_rows(self, tmp_path, text):
        path = tmp_path / "anchors.txt"
        path.write_text(text)
        expected = read_either(reference_read_anchor_records, path)
        assert expected == "image a: truncated or malformed anchor block"
        assert read_either(read_anchor_records, path) == expected

    @staticmethod
    def edited_dense_file(path, edit):
        """Three dense images, several line-table slices long, with `edit`
        applied to the lines of the middle image's first anchor, from its
        header on; returns the records or the message of both readers."""
        rng = np.random.default_rng(13)
        lines = ("# anchor-sample interchange v1\n" + "".join(
            dense_image_text(rng, f"img{i}", n_objects=(6, 10))
            for i in range(3))).split("\n")
        at = lines.index(next(ln for ln in lines if ln.startswith("image img1 ")))
        lines[at:at + 41] = edit(lines[at:at + 41])
        path.write_text("\n".join(lines))
        assert path.stat().st_size > 3 * fusion._TABLE_CHUNK
        expected = read_either(reference_read_anchor_records, path)
        assert read_either(read_anchor_records, path) == expected
        return expected

    @staticmethod
    def first_box_row(edit):
        """An edit of the first box row (header, then 20 score rows)."""
        return lambda anchor: [*anchor[:21], edit(anchor[21]), *anchor[22:]]

    @pytest.mark.parametrize("literal, value", [("1_0", 10.0), ("١", 1.0),
                                                ("１２", 12.0)])
    def test_literals_only_float_reads(self, tmp_path, literal, value):
        got = self.edited_dense_file(tmp_path / "a.txt", self.first_box_row(
            lambda row: " ".join([literal, *row.split()[1:]])))
        boxes = np.frombuffer(got[1][3]).reshape(-1, 20, 4)
        assert boxes[0, 0, 0] == value

    @pytest.mark.parametrize("sep", ["\xa0", "\u3000", "\x0b", "\x1c"])
    def test_separators_other_than_space(self, tmp_path, sep):
        plain = self.edited_dense_file(tmp_path / "plain.txt", lambda anchor: anchor)
        got = self.edited_dense_file(tmp_path / "a.txt", self.first_box_row(
            lambda row: sep.join(row.split(" "))))
        assert got == plain

    @pytest.mark.parametrize("token", ["x", "1__0", "1_"])
    def test_bad_token_in_plain_block(self, tmp_path, token):
        got = self.edited_dense_file(tmp_path / "a.txt", self.first_box_row(
            lambda row: " ".join([token, *row.split()[1:]])))
        assert got == f"image img1: could not convert string to float: {token!r}"

    def test_comment_line_inside_an_anchor(self, tmp_path):
        plain = self.edited_dense_file(tmp_path / "plain.txt", lambda anchor: anchor)
        got = self.edited_dense_file(tmp_path / "a.txt", lambda anchor: [
            *anchor[:6], "  # 0.1 0.2 0.3", *anchor[6:30], "#", *anchor[30:]])
        assert got == plain

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_line_table_slices(self, tmp_path, monkeypatch, chunk, seed):
        """Slices of any size, cut between any two lines, give the same table."""
        rng = np.random.default_rng(seed)
        text = "".join(dense_image_text(rng, f"i{i}", n_objects=(0, 2), t=3, loose=True)
                       for i in range(3))
        path = tmp_path / "a.txt"
        path.write_text(mutate(text, rng) + "\n# ü\n")
        expected = read_either(read_anchor_records, path)
        assert expected == read_either(reference_read_anchor_records, path)
        monkeypatch.setattr(fusion, "_TABLE_CHUNK", chunk)
        assert read_either(read_anchor_records, path) == expected

    def test_space_table_is_str_split_whitespace(self):
        assert fusion._SPACE.tolist()[:-1] == [chr(c).isspace() for c in range(0x3001)]
        assert not any(chr(c).isspace() for c in range(0x3001, sys.maxunicode + 1))


IMAGE_IDS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                                  blacklist_characters=","), min_size=1, max_size=8)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(IMAGE_IDS, min_size=1, max_size=4, unique=True),
           data=st.data())
    def test_write_read_exact(self, tmp_path_factory, ids, data):
        floats = st.floats(allow_nan=False, allow_infinity=False)
        unit = st.floats(0.0, 1.0)
        records = []
        for image_id in ids:
            n, t, c = (data.draw(st.integers(lo, 3)) for lo in (0, 1, 1))
            scores = np.array(data.draw(st.lists(unit, min_size=n * t * c,
                                                 max_size=n * t * c)), dtype=float)
            boxes = np.array(data.draw(st.lists(floats, min_size=n * t * 4,
                                                max_size=n * t * 4)), dtype=float)
            records.append((image_id, Anchors(scores=scores.reshape(n, t, c),
                                              boxes=boxes.reshape(n, t, 4))))
        path = tmp_path_factory.mktemp("round") / "anchors.txt"
        write_anchor_records(path, records)
        back = read_anchor_records(path)
        assert [image_id for image_id, _ in back] == ids
        for (_, a), (_, b) in zip(records, back):
            assert len(a) == len(b)
            if len(a):
                assert a.scores.shape == b.scores.shape
                assert a.scores.tobytes() == b.scores.tobytes()
                assert a.boxes.tobytes() == b.boxes.tobytes()


class TestImageIds:
    @pytest.mark.parametrize("image_id", ["a b", "", "a,b", "tab\there", "x　y", "n\n"])
    def test_writer_rejects_unreadable_id(self, tmp_path, image_id):
        empty = Anchors(scores=np.empty((0, 1, 1)), boxes=np.empty((0, 1, 4)))
        with pytest.raises(ValueError, match=re.escape(f"image id {image_id!r}")):
            write_anchor_records(tmp_path / "a.txt", [("ok", empty), (image_id, empty)])
        assert not (tmp_path / "a.txt").exists()

    def test_reader_rejects_comma(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("image a,b 1 1 1\n0.5\n0 0 1 1\n")
        with pytest.raises(ValueError, match="^image a,b: "):
            read_anchor_records(path)
