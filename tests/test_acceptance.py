"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints one `[PASS] criterion N` / `[FAIL] criterion N` line
(run pytest with -s to see them as they happen).  The two loop-level
criteria (5 and 6) run the full 10-seed comparisons and assert their
stated wall-clock budgets.
"""

import contextlib
import functools
import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats
from tests_support_oracles import covering_radius, gradient_check
from tests_support_reference import Detection, bald_scores, detections_of

from sim2real_al import loop as al
from sim2real_al.acquisition import AcquisitionConfig, detection_entropies
from sim2real_al.fusion import fuse_categorical, fuse_gaussian, mc_statistics
from sim2real_al.learner import MCDropoutClassifier, TrainConfig
from sim2real_al.sampling import (SelectionConfig, select_coreset, select_subsample_topn,
                                  select_topn)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def fuse_cluster(box_samples, **kwargs):
    """fuse_gaussian on one cluster of all the given (n, T, 4) samples."""
    return tuple(out[0] for out in fuse_gaussian(
        box_samples, np.arange(len(box_samples)), [0, len(box_samples)], **kwargs))


def entropies(probs, cov):
    """detection_entropies of one image holding one detection."""
    det = Detection(class_probs=np.array(probs, dtype=float), box_mean=np.zeros(4),
                    box_cov=np.asarray(cov, dtype=float))
    return tuple(u[0] for u in detection_entropies(detections_of([[det]])))


def scores_of(scores):
    """The batch scorer select_subsample_topn calls: ids -> their scores."""
    return lambda ids: [scores[i] for i in ids]


def test_criterion_1_entropy_closed_forms():
    with criterion(1, "entropy closed forms and scaling identity"):
        u_cls, u_reg = entropies([0.5], np.eye(4))
        assert abs(u_cls - math.log(2)) < 1e-9
        assert abs(u_reg - (2 + 2 * math.log(2 * math.pi))) < 1e-9
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            cov = a @ a.T + 0.5 * np.eye(4)
            for alpha in (2.0, 5.0, 0.5):
                diff = entropies([0.5], alpha * cov)[1] - entropies([0.5], cov)[1]
                assert abs(diff - 2.0 * math.log(alpha)) < 1e-10


def _exact_cov_member(mean4, var0, seed, t=400):
    """(t, 4) box samples whose stats are exactly (mean4, diag(var0,1,1,1))."""
    raw = np.random.default_rng(seed).standard_normal((t, 4))
    raw -= raw.mean(axis=0)
    white = raw @ np.linalg.inv(np.linalg.cholesky(np.cov(raw.T, ddof=1))).T
    return white @ np.diag([np.sqrt(var0), 1, 1, 1]) + np.asarray(mean4)


def test_criterion_2_fusion_oracles():
    with criterion(2, "Gaussian product fusion vs grid oracle; "
                      "identical-member shrinkage; categorical products"):
        # 1-D grid-normalized density product oracle within 1e-6
        def gauss(x, m, v):
            return np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2 * np.pi * v)

        for (m1, v1), (m2, v2) in [((0.0, 1.0), (2.0, 1.0)),
                                   ((1.0, 0.5), (-1.5, 2.0)),
                                   ((4.0, 1.2), (4.5, 0.6))]:
            cluster = np.stack([
                _exact_cov_member([m1, 10, 10, 30], v1, seed=17),
                _exact_cov_member([m2, 10, 10, 30], v2, seed=18)])
            mean, cov = fuse_cluster(cluster, regularizer=0.0)
            xs = np.linspace(min(m1, m2) - 8, max(m1, m2) + 8, 1000)
            prod = gauss(xs, m1, v1) * gauss(xs, m2, v2)
            prod /= np.trapezoid(prod, xs)
            np.testing.assert_allclose(prod, gauss(xs, mean[0], cov[0, 0]),
                                       atol=1e-6)

        # M identical Gaussians fuse to Sigma / M within 1e-10
        member_samples = np.random.default_rng(8).normal(
            [5, 5, 20, 20], 2.0, size=(60, 4))
        m0, c0 = mc_statistics(member_samples)
        for m in (2, 4, 7):
            cluster = np.tile(member_samples, (m, 1, 1))
            mean, cov = fuse_cluster(cluster, regularizer=1e-6)
            np.testing.assert_allclose(cov, (c0 + 1e-6 * np.eye(4)) / m,
                                       atol=1e-10)
            np.testing.assert_allclose(mean, m0, atol=1e-10)

        # categorical fusion equals brute-force elementwise products
        rng = np.random.default_rng(9)
        for _ in range(100):
            score_sets = [rng.uniform(0, 1, size=5)
                          for _ in range(rng.integers(1, 6))]
            cluster = np.array(score_sets)
            expected = np.ones(5)
            for s in score_sets:
                expected = expected * s
            got = fuse_categorical(cluster, np.arange(len(cluster)), [0, len(cluster)])[0]
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_criterion_3_selection_correctness():
    with criterion(3, "subsample(p=1) == topn on 500 instances; greedy "
                      "k-center 2-approximation; BALD closed form"):
        rng = np.random.default_rng(3)
        for trial in range(500):
            n = int(rng.integers(3, 30))
            ids = [int(i) for i in rng.choice(10_000, size=n, replace=False)]
            scores = {i: float(rng.normal()) for i in ids}
            b = int(rng.integers(1, n + 1))
            assert select_subsample_topn(ids, scores_of(scores), 1.0, b,
                                         seed=trial) == \
                select_topn(list(scores.items()), b)

        for trial in range(20):
            rng2 = np.random.default_rng(100 + trial)
            n = int(rng2.integers(4, 13))
            b = int(rng2.integers(1, 4))
            pool = rng2.uniform(0, 10, size=(n, 2))
            greedy = select_coreset(pool, [], b)
            greedy_radius = covering_radius(pool, greedy)
            best = min(covering_radius(pool, list(subset))
                       for subset in itertools.combinations(range(n), b))
            assert greedy_radius <= 2.0 * best + 1e-9

        samples = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        assert abs(bald_scores(samples)[0] - math.log(2)) < 1e-9


def test_criterion_4_label_shift_mitigation():
    with criterion(4, "subsample keeps pool label frequencies; naive topn "
                      "concentrates on the score-favored label"):
        start = time.time()
        rng = np.random.default_rng(0)
        n = 1000
        pool_priors = np.array([0.55, 0.25, 0.15, 0.05])
        labels = rng.choice(4, size=n, p=pool_priors)
        pool = list(range(n))

        picked = np.zeros(4)
        for draw in range(1000):
            scores = np.random.default_rng(50_000 + draw).normal(size=n)
            ids = select_subsample_topn(pool, scores_of(scores), 0.1, 10,
                                        seed=draw)
            for i in ids:
                picked[labels[i]] += 1
        expected = np.bincount(labels, minlength=4) / n * picked.sum()
        assert stats.chisquare(picked, expected).pvalue > 0.001

        # label-correlated scores: topn concentrates on the rare label
        corr_scores = 10.0 * (labels == 3) + rng.normal(size=n)
        top = select_topn([(i, corr_scores[i]) for i in pool], 20)
        top_share = np.mean([labels[i] == 3 for i in top])
        pool_share = np.mean(labels == 3)
        assert top_share > 1.5 * pool_share
        assert time.time() - start < 30.0


# criteria 5 and 6 compare two strategies on the same ten seeds
STRATEGIES, SEEDS = ("subsample_topn", "random"), range(1, 11)


@pytest.mark.slow
def test_criterion_5_digits_analog_ordering():
    with criterion(5, "classification track: entropy+subsample beats random "
                      "on >= 8/10 seeds and bridges no later on average"):
        start = time.time()
        cfg = al.ALRunConfig(
            iterations=20,
            selection=SelectionConfig(batch_size=20, subsample_fraction=0.25),
            train=TrainConfig(epochs=60, learning_rate=0.15, batch_size=32))
        build = functools.partial(al.build_classification_experiment,
                                  al.ClassificationExperimentSpec())  # calibrated defaults
        metrics, bridged = {}, {"subsample_topn": [], "random": []}
        for strategy, seed, run in al.run_cells(cfg, build, STRATEGIES, SEEDS):
            report = al.gap_report(run())
            metrics[strategy, seed] = report.mean_metric
            bridged[strategy].append(
                report.bridged_fraction
                if report.bridged_fraction is not None else 1.0)
        wins = sum(metrics["subsample_topn", s] >= metrics["random", s] for s in SEEDS)
        elapsed = time.time() - start
        print(f"  criterion 5 detail: wins {wins}/10, mean bridged "
              f"subsample={np.mean(bridged['subsample_topn']):.3f} "
              f"random={np.mean(bridged['random']):.3f}, {elapsed:.0f}s")
        assert wins >= 8
        assert np.mean(bridged["subsample_topn"]) <= np.mean(bridged["random"])
        assert elapsed < 300.0


def test_criterion_6_detection_analog_gap_bridging():
    with criterion(6, "detection track: avg+sum acquisition with subsampling "
                      "bridges 95% of the gap no later than random on >= 7/10 seeds"):
        start = time.time()
        cfg = al.ALRunConfig(
            iterations=8,
            selection=SelectionConfig(batch_size=40, subsample_fraction=0.5),
            acquisition=AcquisitionConfig(comb="sum", agg="avg"))
        build = functools.partial(al.build_detection_experiment,
                                  al.DetectionExperimentSpec())  # calibrated defaults
        fractions = {}
        for strategy, seed, run in al.run_cells(cfg, build, STRATEGIES, SEEDS):
            report = al.gap_report(run())
            fractions[strategy, seed] = (report.bridged_fraction
                                         if report.bridged_fraction is not None
                                         else np.inf)
        # strict reading: subsampling must itself bridge, no later than random
        bridged_no_later = sum(fractions["subsample_topn", s] < np.inf
                               and fractions["subsample_topn", s] <= fractions["random", s]
                               for s in SEEDS)
        elapsed = time.time() - start
        print(f"  criterion 6 detail: bridged-no-later on "
              f"{bridged_no_later}/10 seeds, {elapsed:.0f}s")
        assert bridged_no_later >= 7
        assert elapsed < 600.0


def test_criterion_7_map_oracle_equivalence():
    with criterion(7, "greedy-matching mAP equals exhaustive matching on all "
                      "enumerated instances with <= 3 detections/GT boxes"):
        from tests_support_map import brute_force_map, build_instances
        from tests_support_reference import detections_of, scenes_of
        for dets, scenes in build_instances():
            got = al.evaluate_detection(detections_of(dets), scenes_of(scenes), 0.5)
            want = brute_force_map(dets, scenes, 0.5)
            assert abs(got - want) < 1e-12


def test_criterion_8_icv_exactness():
    with criterion(8, "inter-class variation exact values"):
        assert al.inter_class_variation([0, 1, 1, 1, 1, 1], 2) == 4.0
        assert al.inter_class_variation([0, 0, 1, 1, 2, 2], 3) == 0.0
        assert al.inter_class_variation([], 6) == 0.0


def test_criterion_9_run_determinism(tmp_path):
    with criterion(9, "same (config, seed) twice: byte-identical CSV and manifest"):
        from sim2real_al import cli
        cfg_text = """\
config_version = 1
track = classification
name = determinism
seeds = 11
dataset.n_classes = 4
dataset.dim = 4
dataset.sim_size = 100
dataset.pool_size = 200
dataset.test_size = 200
dataset.hidden_dim = 16
selection.strategy = subsample_topn
selection.batch_size = 10
selection.subsample_fraction = 0.5
train.epochs = 8
train.learning_rate = 0.2
loop.iterations = 4
"""
        cfg = tmp_path / "det.cfg"
        cfg.write_text(cfg_text)
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(((out / "curve.csv").read_bytes(),
                          (out / "manifest.txt").read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

        # the detection track has the same contract
        det_text = """\
config_version = 1
track = detection
seeds = 11
dataset.sim_scenes = 20
dataset.pool_scenes = 30
dataset.test_scenes = 15
selection.strategy = random
selection.batch_size = 5
loop.iterations = 2
"""
        cfg2 = tmp_path / "det2.cfg"
        cfg2.write_text(det_text)
        blobs = []
        for tag in ("da", "db"):
            out = tmp_path / tag
            assert cli.main(["run", "--config", str(cfg2), "--out", str(out)]) == 0
            blobs.append((out / "curve.csv").read_bytes())
        assert blobs[0] == blobs[1]


def test_criterion_10_gradient_check():
    with criterion(10, "analytic vs central-difference gradients, max "
                       "relative error < 1e-4"):
        rng = np.random.default_rng(1)
        for seed in range(8):
            model = MCDropoutClassifier(int(rng.integers(2, 9)),
                                        int(rng.integers(4, 33)),
                                        int(rng.integers(2, 6)), seed=seed)
            x = rng.normal(size=(10, model.input_dim))
            y = rng.integers(0, model.n_classes, size=10)
            assert gradient_check(model, x, y, n_checks=50, seed=seed) < 1e-4
