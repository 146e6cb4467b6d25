"""Fusion: IoU, MC statistics, clustering, categorical/Gaussian products."""

import numpy as np
import pytest

from sim2real_al.fusion import (Anchors, bayesod_inference, cluster_anchors,
                                fuse_categorical, fuse_gaussian, iou_matrix,
                                mc_statistics, read_anchor_records,
                                write_anchor_records)


def anchors_const(score_rows, boxes, t=3):
    """Anchors whose T samples each repeat the given score vector and box."""
    scores = np.asarray(score_rows, dtype=float)
    boxes = np.asarray(boxes, dtype=float)
    return Anchors(scores=np.repeat(scores[:, None, :], t, axis=1),
                   boxes=np.repeat(boxes[:, None, :], t, axis=1))


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
        clusters = cluster_anchors(anchors_const([[0.9]], [[0, 0, 10, 10]]), 0.5)
        assert len(clusters) == 1
        np.testing.assert_array_equal(clusters[0], [0])

    def test_full_overlap(self):
        anchors = anchors_const([[0.3], [0.8]], [[0, 0, 10, 10]] * 2)
        clusters = cluster_anchors(anchors, 0.5)
        assert len(clusters) == 1
        # the center (highest score) comes first
        np.testing.assert_array_equal(clusters[0], [1, 0])

    def test_three_anchor_partition(self):
        anchors = anchors_const([[0.9], [0.7], [0.5]],
                                [[0, 0, 10, 10],
                                 [0, 1, 10, 11],     # IoU with 0: 9/11 >= 0.5
                                 [50, 50, 60, 60]])
        clusters = cluster_anchors(anchors, 0.5)
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
            clusters = cluster_anchors(anchors, rng.uniform(0.1, 0.9))
            seen = np.concatenate(clusters)
            assert sorted(seen) == list(range(n))
            top = anchors.scores.mean(axis=1).max(axis=1)
            for cl in clusters:
                assert all(top[cl[0]] >= top[m] - 1e-12 for m in cl)

    def test_empty(self):
        empty = Anchors(scores=np.empty((0, 0, 0)), boxes=np.empty((0, 0, 4)))
        assert cluster_anchors(empty, 0.5) == []

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            cluster_anchors(anchors_const([[0.9]], [[0, 0, 10, 10]]), 2.0)


class TestFuseCategorical:
    def test_singleton_identity(self):
        np.testing.assert_allclose(fuse_categorical([[0.6, 0.4]]), [0.6, 0.4], atol=1e-15)

    def test_two_members_bernoulli_default(self):
        fused = fuse_categorical([[0.6, 0.4]] * 2)
        np.testing.assert_allclose(fused, [0.36, 0.16], atol=1e-12)

    def test_two_members_renormalized(self):
        fused = fuse_categorical([[0.6, 0.4]] * 2, renormalize=True)
        np.testing.assert_allclose(fused, [9 / 13, 4 / 13], atol=1e-12)

    def test_all_ones_member_is_identity(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 1, size=(2, 3))
        with_ones = np.concatenate([base, np.ones((1, 3))])
        np.testing.assert_array_equal(fuse_categorical(base), fuse_categorical(with_ones))

    def test_brute_force_products(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = rng.integers(1, 6)
            score_sets = rng.uniform(0, 1, size=(m, 4))
            expected = np.ones(4)
            for s in score_sets:
                expected = expected * s
            np.testing.assert_allclose(fuse_categorical(score_sets), expected,
                                       atol=1e-12)
            assert np.all(fuse_categorical(score_sets) <= 1.0 + 1e-15)


class TestFuseGaussian:
    def test_singleton_identity(self):
        rng = np.random.default_rng(2)
        samples = rng.normal([10, 10, 30, 30], 1.5, size=(40, 4))
        mean, cov = fuse_gaussian(samples[None], regularizer=1e-6)
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

        mean, cov = fuse_gaussian(np.stack([member(0.0), member(2.0)]), regularizer=0.0)
        assert mean[0] == pytest.approx(1.0, abs=1e-9)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(mean[1:], [5, 5, 5], atol=1e-9)

    def test_identical_members_cov_shrinks(self):
        rng = np.random.default_rng(8)
        samples = rng.normal([5, 5, 20, 20], 2.0, size=(60, 4))
        for m in (2, 3, 5):
            mean, cov = fuse_gaussian(np.tile(samples, (m, 1, 1)), regularizer=1e-6)
            m0, c0 = mc_statistics(samples)
            np.testing.assert_allclose(mean, m0, atol=1e-10)
            np.testing.assert_allclose(cov, (c0 + 1e-6 * np.eye(4)) / m,
                                       atol=1e-10)

    def test_information_never_decreases(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            members = rng.normal([0, 0, 20, 20], 2.0, size=(rng.integers(1, 5), 10, 4))
            _, fused_cov = fuse_gaussian(members)
            fused_prec = np.linalg.inv(fused_cov)
            for member in members:
                _, c = mc_statistics(member)
                prec = np.linalg.inv(c + 1e-6 * np.eye(4))
                eigs = np.linalg.eigvalsh(fused_prec - prec)
                assert eigs.min() >= -1e-6 * max(1.0, abs(eigs).max())

    def test_member_order_invariance(self):
        rng = np.random.default_rng(22)
        members = rng.normal([0, 0, 20, 20], 2.0, size=(4, 12, 4))
        mean, cov = fuse_gaussian(members)
        mean_r, cov_r = fuse_gaussian(members[::-1])
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

            mean, cov = fuse_gaussian(
                np.stack([member(m1, v1, 17), member(m2, v2, 18)]),
                regularizer=0.0)
            assert mean[0] == pytest.approx(fused_m, abs=1e-9)
            assert cov[0, 0] == pytest.approx(fused_v, abs=1e-9)


class TestBayesodInference:
    def test_empty(self):
        empty = Anchors(scores=np.empty((0, 0, 0)), boxes=np.empty((0, 0, 4)))
        assert bayesod_inference(empty, 0.5) == []

    def test_single_anchor(self):
        rng = np.random.default_rng(4)
        samples = rng.normal([0, 0, 20, 20], 1.0, size=(25, 4))
        a = Anchors(scores=np.tile([0.7, 0.2], (1, 25, 1)), boxes=samples[None])
        for flag in (False, True):
            dets = bayesod_inference(a, cls_bayesian=flag)
            assert len(dets) == 1
            np.testing.assert_allclose(dets[0].class_probs, [0.7, 0.2], atol=1e-12)
            m0, _ = mc_statistics(samples)
            np.testing.assert_allclose(dets[0].box_mean, m0, atol=1e-6)
            assert dets[0].cluster_size == 1

    def test_two_overlapping_cls_bayesian_off(self):
        anchors = anchors_const([[0.5, 0.2], [0.8, 0.3]], [[0, 0, 10, 10]] * 2, t=4)
        dets = bayesod_inference(anchors, cls_bayesian=False)
        assert len(dets) == 1
        np.testing.assert_allclose(dets[0].class_probs, [0.8, 0.3], atol=1e-12)
        assert dets[0].cluster_size == 2
        # identical zero-variance boxes fuse back to the same corners
        np.testing.assert_allclose(dets[0].box_mean, [0, 0, 10, 10], atol=1e-9)

    def test_two_overlapping_cls_bayesian_on(self):
        anchors = anchors_const([[0.5, 0.2], [0.8, 0.3]], [[0, 0, 10, 10]] * 2, t=4)
        dets = bayesod_inference(anchors, cls_bayesian=True)
        np.testing.assert_allclose(dets[0].class_probs, [0.4, 0.06], atol=1e-12)

    def test_fused_cov_properties(self):
        rng = np.random.default_rng(14)
        anchors = Anchors(scores=rng.uniform(0, 1, (6, 8, 3)),
                          boxes=rng.normal([5, 5, 25, 25], 1.0, (6, 8, 4)))
        for det in bayesod_inference(anchors, 0.3):
            np.testing.assert_allclose(det.box_cov, det.box_cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(det.box_cov).min() >= 0

    def test_single_sample_anchors(self):
        anchors = anchors_const([[0.9], [0.6]], [[0, 0, 10, 10]] * 2, t=1)
        dets = bayesod_inference(anchors, 0.5)
        assert len(dets) == 1
        np.testing.assert_allclose(dets[0].box_cov, 0.5e-6 * np.eye(4), rtol=1e-12)


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

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-an-image-header 1 2 3\n")
        with pytest.raises(ValueError, match="malformed image header"):
            read_anchor_records(path)

    @pytest.mark.parametrize("text, match", [
        ("image a 1 2 1\n0.5\n0.5\n0 0 1 1\n", "image a: truncated or malformed anchor block"),
        ("image a 1 1 -1\n", "malformed image header: 'image a 1 1 -1'"),
        ("image a 1 1 1\nnan\n0 0 1 1\n", "image a: anchor samples must be finite"),
        ("image a 1 1 1\n0.5\n0 0 inf 1\n", "image a: anchor samples must be finite"),
        ("image a 1 1 1\n1.5\n0 0 1 1\n", r"image a: scores must lie in \[0, 1\]"),
        ("image a 2 1 1\n0.5\n0 0 1 1\n", "image a: truncated or malformed anchor block"),
        ("image a 1 1 1\nx\n0 0 1 1\n", "image a: could not convert"),
        ("image a 1 0 2\n", "image a: need at least one Monte-Carlo sample"),
    ], ids=["truncated", "negative-count", "nan-score", "inf-box", "score-range",
            "ragged-row", "not-a-number", "no-samples"])
    def test_bad_block_names_image(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_anchor_records(path)
