"""AL loop: metrics, gap reports, state conservation, artifacts."""

import collections
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_support_map import brute_force_map
from tests_support_map import make_det as det
from tests_support_map import make_scene as scene
from tests_support_reference import (Detection, assert_same_detections,
                                     detections_of, per_scene, records_of,
                                     reference_average_precision,
                                     reference_counts, reference_detect,
                                     reference_evaluate_detection,
                                     reference_labels, reference_score_image,
                                     scenes_of)

from sim2real_al import loop as al
from sim2real_al.acquisition import (AGG_MODES, COMB_MODES, AcquisitionConfig,
                                     score_image)
from sim2real_al.learner import MCDropoutClassifier, TrainConfig
from sim2real_al.rules import RuleError
from sim2real_al.sampling import SelectionConfig
from sim2real_al.synthdata import DetectionSceneSpec, Scenes, generate_detection_scenes


class TestEvaluateClassifier:
    class Uniform:
        def predict_mean(self, x):
            x = np.atleast_2d(x)
            return np.full((x.shape[0], 2), 0.5)

    class Oracle:
        """Predicts the label encoded in the first feature."""

        def predict_mean(self, x):
            x = np.atleast_2d(x)
            probs = np.zeros((x.shape[0], 2))
            probs[np.arange(x.shape[0]), x[:, 0].astype(int)] = 1.0
            return probs

    def test_uniform_model_tie_breaks_to_class_zero(self):
        x = np.zeros((10, 2))
        y = np.array([0] * 5 + [1] * 5)
        assert al.evaluate_classifier(self.Uniform(), x, y) == 0.5

    def test_perfect_model(self):
        y = np.array([0, 1, 1, 0, 1])
        x = np.stack([y, np.zeros(5)], axis=1).astype(float)
        assert al.evaluate_classifier(self.Oracle(), x, y) == 1.0

    def test_adversarially_permuted_labels(self):
        y = np.array([0, 1, 1, 0, 1])
        x = np.stack([y, np.zeros(5)], axis=1).astype(float)
        assert al.evaluate_classifier(self.Oracle(), x, 1 - y) == 0.0

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty test set"):
            al.evaluate_classifier(self.Uniform(), np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rows_must_be_finite(self, bad):
        x = np.zeros((4, 2))
        x[2, 0] = bad
        with pytest.raises(ValueError, match="^x_test must be finite$"):
            al.evaluate_classifier(self.Oracle(), x, np.zeros(4))

    @pytest.mark.parametrize("n_labels", [1, 2, 11])
    def test_label_count_must_match_rows(self, n_labels):
        # one label used to broadcast over all 10 rows, two raised numpy's
        # broadcast error
        with pytest.raises(ValueError,
                           match=f"^x has 10 rows, but y has {n_labels} labels$"):
            al.evaluate_classifier(self.Uniform(), np.zeros((10, 2)), np.zeros(n_labels))

    def test_labels_must_be_1d(self):
        with pytest.raises(ValueError, match=r"^y must be a 1-D array of labels, "
                                             r"got shape \(10, 1\)$"):
            al.evaluate_classifier(self.Uniform(), np.zeros((10, 2)), np.zeros((10, 1)))

    @pytest.mark.parametrize("y", [[0, 7], [0, -1], [0.5, 1], [2, 1]],
                             ids=["too-large", "negative", "fraction", "model-has-2"])
    def test_labels_outside_the_model_classes_rejected(self, y):
        # [0, 7] used to score 0.5: the 7 counted as one more miss
        with pytest.raises(ValueError, match=r"^labels outside \[0, n_classes\)$"):
            al.evaluate_classifier(self.Uniform(), np.zeros((2, 2)), y)


class TestEvaluateDetection:
    def test_perfect_detections(self):
        sc = scene([0, 1], [[0, 0, 10, 10], [20, 20, 30, 30]])
        dets = [det(0, 1.0, [0, 0, 10, 10]), det(1, 1.0, [20, 20, 30, 30])]
        assert al.evaluate_detection(detections_of([dets]), scenes_of([sc])) == 1.0

    def test_no_detections(self):
        sc = scene([0], [[0, 0, 10, 10]])
        assert al.evaluate_detection(detections_of([[]]), scenes_of([sc])) == 0.0

    def test_tp_then_fp_keeps_ap_one(self):
        sc = scene([0], [[0, 0, 10, 10]])
        dets = [det(0, 0.9, [0, 0, 10, 10]),
                det(0, 0.8, [50, 50, 60, 60])]
        assert al.evaluate_detection(detections_of([dets]), scenes_of([sc])) == 1.0

    def test_fp_before_tp_halves_ap(self):
        sc = scene([0], [[0, 0, 10, 10]])
        dets = [det(0, 0.9, [50, 50, 60, 60]),
                det(0, 0.8, [0, 0, 10, 10])]
        assert al.evaluate_detection(detections_of([dets]), scenes_of([sc])) == 0.5

    @pytest.mark.parametrize("threshold", [math.nan, 1.5, -3.0])
    def test_iou_threshold_must_lie_in_the_unit_interval(self, threshold):
        """NaN and 1.5 read mAP 0.0 and -3 read 1.0, without a word."""
        sc = scene([0], [[0, 0, 10, 10]])
        dets = detections_of([[det(0, 0.9, [50, 50, 60, 60])]])
        with pytest.raises(ValueError, match=r"^iou_threshold must lie in \[0, 1\]$"):
            al.evaluate_detection(dets, scenes_of([sc]), threshold)

    def test_empty_ground_truth_rejected(self):
        empty = scene(np.empty(0, int), np.empty((0, 4)))
        with pytest.raises(ValueError, match="empty ground truth"):
            al.evaluate_detection(detections_of([[]]), scenes_of([empty]))

    def test_brute_force_matching_oracle(self):
        """Greedy mAP equals exhaustive max-over-matchings on all
        enumerated instances with <= 3 detections and <= 3 GT boxes."""
        gt_boxes = [[0.0, 0, 10, 10], [20.0, 20, 30, 30], [40.0, 0, 50, 10]]
        confs = [0.9, 0.8, 0.7]
        checked = 0
        for n_gt in (1, 2, 3):
            sc = scene([0] * n_gt, gt_boxes[:n_gt])
            for n_det in (0, 1, 2, 3):
                # each detection targets one GT (1px offset) or empty space
                for targets in itertools.product(range(n_gt + 1), repeat=n_det):
                    dets = []
                    for d, tgt in enumerate(targets):
                        if tgt < n_gt:
                            box = np.asarray(gt_boxes[tgt]) + [1, 0, 1, 0]
                        else:
                            box = np.array([70.0 + 11 * d, 70, 80 + 11 * d, 80])
                        dets.append(det(0, confs[d], box))
                    got = al.evaluate_detection(detections_of([dets]), scenes_of([sc]))
                    want = brute_force_map([dets], [sc], 0.5)
                    assert got == pytest.approx(want, abs=1e-12), \
                        (n_gt, targets)
                    checked += 1
        assert checked > 80

    def test_brute_force_two_classes(self):
        sc = scene([0, 1], [[0, 0, 10, 10], [20, 20, 30, 30]])
        dets = [det(0, 0.9, [1, 0, 11, 10]),
                det(1, 0.8, [21, 20, 31, 30]),
                det(1, 0.7, [60, 60, 70, 70])]
        got = al.evaluate_detection(detections_of([dets]), scenes_of([sc]))
        assert got == pytest.approx(brute_force_map([dets], [sc], 0.5), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_brute_force_random_instances(self, data):
        """The build_instances family, drawn at random over several
        images and two classes: disjoint GT boxes, each detection on
        one GT box (1px offset) or in empty space."""
        gt_boxes = [[0.0, 0, 10, 10], [20.0, 20, 30, 30], [40.0, 0, 50, 10]]
        images, scenes = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            n_gt = data.draw(st.integers(1, 3))
            dets = []
            for d in range(data.draw(st.integers(0, 3))):
                tgt = data.draw(st.integers(0, n_gt))
                box = (np.asarray(gt_boxes[tgt]) + [1, 0, 1, 0] if tgt < n_gt
                       else np.array([70.0 + 11 * d, 70, 80 + 11 * d, 80]))
                dets.append(det(data.draw(st.integers(0, 1)),
                                data.draw(st.sampled_from([0.9, 0.8, 0.7])), box))
            images.append(dets)
            scenes.append(scene(data.draw(st.lists(st.integers(0, 1), min_size=n_gt,
                                                   max_size=n_gt)), gt_boxes[:n_gt]))
        got = al.evaluate_detection(detections_of(images), scenes_of(scenes))
        assert got == pytest.approx(brute_force_map(images, scenes, 0.5), abs=1e-12)

    # boxes with IoU ties: [2, 0, 12, 10] overlaps [0, 0, 10, 10] and
    # [4, 0, 14, 10] equally (2/3), and only [0, 0, 10, 10] tells them
    # apart at threshold 0.5; drawn with repeats, and a far box
    BOXES = [[0.0, 0, 10, 10], [2.0, 0, 12, 10], [4.0, 0, 14, 10], [70.0, 70, 80, 80]]

    def test_iou_tie_goes_to_later_box(self):
        # the first detection ties between both boxes and takes the later
        # one, so the second detection still finds its box
        sc = scene([0, 0], [self.BOXES[0], self.BOXES[2]])
        dets = [det(0, 0.9, self.BOXES[1]), det(0, 0.8, self.BOXES[0])]
        assert al.evaluate_detection(detections_of([dets]), scenes_of([sc])) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_images=st.integers(1, 6), n_classes=st.integers(1, 3),
           threshold=st.sampled_from([0.0, 0.5, 1.0]))
    def test_matches_per_object_reference(self, data, n_images, n_classes, threshold):
        """The batch evaluator gives the float, or the error, of the
        per-object evaluator it replaced
        (tests_support_reference.reference_evaluate_detection).  Class
        scores come from a few values, so confidences and argmax ties
        repeat; the last class never occurs in the ground truth."""
        score = st.sampled_from([0.0, 0.3, 0.5, 0.5, 0.9, 1.0])
        detection = st.tuples(st.lists(score, min_size=n_classes + 1,
                                       max_size=n_classes + 1),
                              st.sampled_from(self.BOXES))
        gt_box = st.tuples(st.integers(0, n_classes - 1), st.sampled_from(self.BOXES))
        images, scenes = [], []
        for _ in range(n_images):
            gt = data.draw(st.lists(gt_box, max_size=3))
            scenes.append(scene([c for c, _ in gt], [b for _, b in gt]))
            images.append([Detection(np.array(probs), np.array(box), np.eye(4))
                           for probs, box in data.draw(st.lists(detection, max_size=4))])

        def outcome(evaluate, detections, scenes):
            try:
                return evaluate(detections, scenes, threshold)
            except ValueError as exc:
                return str(exc)

        assert (outcome(al.evaluate_detection, detections_of(images), scenes_of(scenes))
                == outcome(reference_evaluate_detection, images, scenes))

    @settings(max_examples=300, deadline=None)
    @given(tp=st.lists(st.sampled_from([0.0, 1.0]), max_size=40),
           extra_gt=st.integers(0, 20))
    def test_average_precision_matches_the_loop(self, tp, extra_gt):
        """AP gives the bits of the loop that sums the area one recall
        step at a time (tests_support_reference.reference_average_precision),
        empty and all-zero flags included."""
        tp = np.array(tp)
        n_gt = max(1, int(tp.sum())) + extra_gt
        assert (float.hex(al._average_precision(tp, n_gt))
                == float.hex(reference_average_precision(tp, n_gt)))


class TestALState:
    def test_acquire_moves_ids(self):
        state = al.ALState(pool_ids=list(range(6)))
        state.acquire([1, 4])
        assert state.labeled_ids == [1, 4]
        assert state.pool_ids == [0, 2, 3, 5]
        assert not set(state.labeled_ids) & set(state.pool_ids)

    def test_id_never_returns(self):
        state = al.ALState(pool_ids=[0, 1, 2])
        state.acquire([1])
        with pytest.raises(ValueError, match="not in pool"):
            state.acquire([1])

    def test_unknown_id_rejected(self):
        state = al.ALState(pool_ids=[0, 1])
        with pytest.raises(ValueError, match="not in pool"):
            state.acquire([7])

    def test_id_repeated_within_one_call_rejected(self):
        state = al.ALState(pool_ids=list(range(6)))
        with pytest.raises(ValueError, match="^id acquired twice$"):
            state.acquire([3, 1, 3])
        assert state.labeled_ids == []
        assert state.pool_ids == list(range(6))


class TestInterClassVariation:
    def test_balanced_counts(self):
        assert al.inter_class_variation([0, 1, 2, 0, 1, 2, 0, 1, 2], 3) == 0.0

    def test_hand_computed(self):
        # counts [1, 5]: population std 2, times |C| = 2 -> 4
        assert al.inter_class_variation([0, 1, 1, 1, 1, 1], 2) == 4.0

    def test_empty_selection(self):
        assert al.inter_class_variation([], 5) == 0.0

    def test_zero_count_classes_included(self):
        # counts [2, 0]: mean 1, std 1, times 2 -> 2
        assert al.inter_class_variation([0, 0], 2) == 2.0

    def test_fractional_labels_rejected(self):
        # [0.5, 1.7] used to count as [0, 1] and score 1.414
        with pytest.raises(ValueError, match=r"^labels outside \[0, n_classes\)$"):
            al.inter_class_variation([0.5, 1.7], 3)

    def test_labels_must_be_1d(self):
        # numpy's bincount error before
        with pytest.raises(ValueError, match=r"^y must be a 1-D array of labels, "
                                             r"got shape \(1, 2\)$"):
            al.inter_class_variation([[0, 1]], 3)


class TestSurrogateCounts:
    @pytest.mark.parametrize("add", ["with_sim", "with_real"])
    def test_class_ids_beyond_the_spec_rejected(self, add):
        # numpy's broadcast error before: counts of 6 classes added to 3
        surrogate = al.DetectionSurrogate(DetectionSceneSpec(n_classes=3), al.SurrogateParams())
        scenes = Scenes(classes=[0, 5], boxes=[[0, 0, 10, 10]] * 2, offsets=[0, 1, 2])
        with pytest.raises(ValueError, match=r"^labels outside \[0, n_classes\)$"):
            getattr(surrogate, add)(scenes)

    def test_every_snapshot_checks_its_output_spec(self):
        """A skill whose miss chance leaves [0, 1] fails when the snapshot
        derives its output spec; it dropped every object before."""
        params = al.SurrogateParams(miss_weak=0.5, miss_strong=1.5)   # kappa 40
        surrogate = al.DetectionSurrogate(DetectionSceneSpec(n_classes=2), params,
                                          real_counts=[40, 40])   # skill 0.5, miss 1.0
        scenes = Scenes(classes=[0, 1], boxes=[[0, 0, 10, 10]] * 2, offsets=[0, 2])
        with pytest.raises(RuleError, match=r"^miss_prob must lie in \[0, 1\]$"):
            surrogate.with_real(scenes)

    def test_overflowing_sim_weight_names_the_key(self):
        """A sim_weight that overflows the weighted sim counts makes the
        skill NaN, which names the config key."""
        surrogate = al.DetectionSurrogate(DetectionSceneSpec(n_classes=2),
                                          al.SurrogateParams(sim_weight=1e308))
        scenes = Scenes(classes=[0, 0, 1], boxes=[[0, 0, 10, 10]] * 3, offsets=[0, 3])
        with pytest.raises(ValueError, match=r"^surrogate\.sim_weight 1e\+308 makes the "
                                             r"skill non-finite$"):
            surrogate.with_sim(scenes)   # 2 sim objects of class 0 weigh 2e308

    def test_infinite_box_sigma_fails_when_built(self):
        """An infinite weak box sigma (NaN at skill 0, from inf - inf in
        the skill interpolation) fails when the surrogate derives its
        first output spec; before, every anchor sample was inf."""
        params = al.SurrogateParams(sigma_box_weak=np.inf, sigma_box_strong=0.2)
        with np.errstate(invalid="ignore"), pytest.raises(
                RuleError, match="^sigma_box must be one finite number or n_classes of them$"):
            al.DetectionSurrogate(DetectionSceneSpec(), params)


def curve_with(metrics, fractions=None, sim=0.5, real=0.9, level=0.95):
    fractions = fractions or [i / 10 for i in range(len(metrics))]
    points = [al.CurvePoint(i, i * 10, fractions[i], m, 0.0)
              for i, m in enumerate(metrics)]
    return al.LearningCurve(points=points, sim_perf=sim, real_perf=real,
                            strategy="topn", seed=0, level=level)


class TestGapReport:
    def test_threshold_arithmetic(self):
        curve = curve_with([0.50, 0.70, 0.92])
        report = al.gap_report(replace(curve, sim_perf=0.50, real_perf=0.90, level=0.95))
        assert report.gap == pytest.approx(0.40)
        # threshold 0.88 first reached at iteration 2 (fraction 0.2)
        assert report.bridged_fraction == pytest.approx(0.2)
        assert report.mean_metric == pytest.approx((0.70 + 0.92) / 2)

    def test_never_bridged(self):
        report = al.gap_report(replace(curve_with([0.50, 0.60, 0.70]), sim_perf=0.50,
                                       real_perf=0.90, level=0.95))
        assert report.bridged_fraction is None

    def test_level_one_touching_real(self):
        curve = curve_with([0.50, 0.90, 0.85])
        report = al.gap_report(replace(curve, sim_perf=0.50, real_perf=0.90, level=1.0))
        assert report.bridged_fraction == pytest.approx(0.1)

    def test_inverted_gap_flagged(self):
        report = al.gap_report(replace(curve_with([0.5, 0.6]), sim_perf=0.8, real_perf=0.6,
                                       level=0.95))
        assert report.inverted

    def test_defaults_from_curve(self):
        curve = curve_with([0.5, 0.89], sim=0.5, real=0.9, level=0.5)
        report = al.gap_report(curve)
        assert report.level == 0.5
        assert report.bridged_fraction == pytest.approx(0.1)


def tiny_classification(run_seed=1, strategy="random", iterations=3, pool=120,
                        batch=10, p=0.5):
    spec = al.ClassificationExperimentSpec(
        n_classes=4, dim=4, sim_size=120, pool_size=pool, test_size=200,
        hidden_dim=16)
    datasets, oracle, learner = al.build_classification_experiment(spec, run_seed)
    cfg = al.ALRunConfig(
        iterations=iterations,
        selection=SelectionConfig(strategy=strategy, batch_size=batch,
                                  subsample_fraction=p),
        train=TrainConfig(epochs=8, learning_rate=0.2, batch_size=32))
    return cfg, datasets, oracle, learner


class TestRunAlClassification:
    def test_zero_iterations(self):
        cfg, datasets, oracle, learner = tiny_classification(iterations=0)
        curve = al.run_al(cfg, datasets, learner, oracle, seed=3)
        assert len(curve.points) == 1
        assert curve.points[0].iteration == 0
        assert curve.points[0].labeled_fraction == 0.0

    def test_deterministic_runs(self):
        cfg, datasets, oracle, learner = tiny_classification(strategy="random")
        c1 = al.run_al(cfg, datasets, learner, oracle, seed=5)
        c2 = al.run_al(cfg, datasets, learner, oracle, seed=5)
        assert c1.points == c2.points
        assert c1.selected_ids == c2.selected_ids

    def test_iteration0_strategy_independent(self):
        metrics = []
        for strategy in ("random", "topn", "coreset"):
            cfg, datasets, oracle, learner = tiny_classification(strategy=strategy,
                                                                 iterations=1)
            curve = al.run_al(cfg, datasets, learner, oracle, seed=7)
            metrics.append((curve.points[0].metric, curve.sim_perf))
        assert len(set(metrics)) == 1

    def test_conservation_and_no_duplicates(self):
        cfg, datasets, oracle, learner = tiny_classification(strategy="topn",
                                                             iterations=4)
        curve = al.run_al(cfg, datasets, learner, oracle, seed=2)
        all_ids = [i for ids in curve.selected_ids for i in ids]
        assert len(all_ids) == len(set(all_ids)) == 40
        assert set(all_ids) <= set(range(120))
        assert [p.labeled_count for p in curve.points] == [0, 10, 20, 30, 40]

    def test_oracle_fidelity(self):
        spec = al.ClassificationExperimentSpec(n_classes=4, dim=4, sim_size=80,
                                               pool_size=100, test_size=100,
                                               hidden_dim=16)
        datasets, oracle, learner = al.build_classification_experiment(spec, 1)
        seen = {}
        true_labels = {i: int(oracle([i])[0]) for i in range(100)}

        def recording_oracle(ids):
            out = oracle(ids)
            for i, y in zip(ids, out):
                seen[i] = int(y)
            return out

        cfg = al.ALRunConfig(iterations=2,
                             selection=SelectionConfig(strategy="random",
                                                       batch_size=10),
                             train=TrainConfig(epochs=5, learning_rate=0.2))
        al.run_al(cfg, datasets, learner, recording_oracle, seed=1)
        assert all(true_labels[i] == y for i, y in seen.items() if i in seen)

    def test_subsample_p1_reproduces_topn_curves(self):
        cfg_t, d1, o1, l1 = tiny_classification(strategy="topn", iterations=3)
        curve_t = al.run_al(cfg_t, d1, l1, o1, seed=11)
        cfg_s, d2, o2, l2 = tiny_classification(strategy="subsample_topn",
                                                iterations=3, p=1.0)
        curve_s = al.run_al(cfg_s, d2, l2, o2, seed=11)
        assert curve_t.selected_ids == curve_s.selected_ids
        assert [p.metric for p in curve_t.points] == \
            [p.metric for p in curve_s.points]

    def test_pool_exhaustion_truncates(self):
        cfg, datasets, oracle, learner = tiny_classification(
            pool=25, batch=10, iterations=5)
        curve = al.run_al(cfg, datasets, learner, oracle, seed=4)
        assert curve.truncated
        assert len(curve.points) == 3  # iterations 0..2; 5 remaining < 10

    def test_short_subsample_truncates(self):
        # pool 100 -> 80 -> 60: ceil(0.25 * 60) = 15 < 20 stops iteration 3
        cfg, datasets, oracle, learner = tiny_classification(
            strategy="subsample_topn", pool=100, batch=20, p=0.25,
            iterations=5)
        curve = al.run_al(cfg, datasets, learner, oracle, seed=4)
        assert curve.truncated
        assert [p.labeled_count for p in curve.points] == [0, 20, 40]

    def test_fine_tune_without_replay_fits_the_labeled_rows(self, monkeypatch):
        """loop.replay = false: fine-tune it fits the it * B labeled pool
        rows and their labels, and no sim row."""
        cfg, datasets, oracle, learner = tiny_classification(strategy="topn")
        no_replay = replace(cfg, replay=False)
        fine_tunes = []
        fit = MCDropoutClassifier.fit

        def spy(model, x, y, train):
            if train.fine_tune:
                fine_tunes.append((np.array(x), np.array(y)))
            return fit(model, x, y, train)

        monkeypatch.setattr(MCDropoutClassifier, "fit", spy)
        curve = al.run_al(no_replay, datasets, learner, oracle, seed=5)
        assert len(fine_tunes) == 3
        for it, (x, y) in enumerate(fine_tunes, start=1):
            ids = np.concatenate(curve.selected_ids[:it])
            assert len(ids) == it * 10
            np.testing.assert_array_equal(x, datasets.pool_x[ids])
            np.testing.assert_array_equal(y, oracle(ids))
        text = al.curve_csv_text([curve])
        assert al.curve_csv_text([al.run_al(no_replay, datasets, learner, oracle,
                                            seed=5)]) == text
        assert al.curve_csv_text([al.run_al(cfg, datasets, learner, oracle,
                                            seed=5)]) != text

    def test_unsupported_datasets_rejected(self):
        with pytest.raises(TypeError, match="^unsupported dataset bundle tuple$"):
            al.run_al(al.ALRunConfig(), (), learner=None, oracle=None)

    def test_all_strategies_run(self):
        for strategy in ("random", "topn", "subsample_topn", "coreset",
                         "batchbald", "clue"):
            cfg, datasets, oracle, learner = tiny_classification(
                strategy=strategy, iterations=1, pool=60, batch=5)
            curve = al.run_al(cfg, datasets, learner, oracle, seed=9)
            assert len(curve.points) == 2
            assert len(curve.selected_ids[0]) == 5


def tiny_detection(strategy="random", iterations=2, pool=40, batch=8, p=0.5):
    spec = al.DetectionExperimentSpec(sim_scenes=30, pool_scenes=pool,
                                      test_scenes=25)
    datasets, oracle, learner = al.build_detection_experiment(spec, 1)
    cfg = al.ALRunConfig(
        iterations=iterations,
        selection=SelectionConfig(strategy=strategy, batch_size=batch,
                                  subsample_fraction=p),
        acquisition=AcquisitionConfig(comb="sum", agg="avg"))
    return cfg, datasets, oracle, learner


class TestRunAlDetection:
    def test_deterministic(self):
        cfg, datasets, oracle, learner = tiny_detection()
        c1 = al.run_al(cfg, datasets, learner, oracle, seed=3)
        c2 = al.run_al(cfg, datasets, learner, oracle, seed=3)
        assert c1.points == c2.points

    def test_conservation(self):
        cfg, datasets, oracle, learner = tiny_detection(strategy="subsample_topn",
                                                        iterations=3)
        curve = al.run_al(cfg, datasets, learner, oracle, seed=5)
        all_ids = [i for ids in curve.selected_ids for i in ids]
        assert len(all_ids) == len(set(all_ids)) == 24

    def test_metric_improves_with_labels(self):
        cfg, datasets, oracle, learner = tiny_detection(strategy="random",
                                                        iterations=4, pool=60,
                                                        batch=12)
        curve = al.run_al(cfg, datasets, learner, oracle, seed=6)
        assert curve.points[-1].metric > curve.points[0].metric

    def test_short_subsample_truncates(self):
        # pool 40 -> 32: ceil(0.2 * 32) = 7 < 8 stops iteration 2
        cfg, datasets, oracle, learner = tiny_detection(
            strategy="subsample_topn", iterations=4, p=0.2)
        curve = al.run_al(cfg, datasets, learner, oracle, seed=5)
        assert curve.truncated
        assert [p.labeled_count for p in curve.points] == [0, 8]

    def test_batchbald_rejected(self):
        cfg, datasets, oracle, learner = tiny_detection(strategy="batchbald")
        with pytest.raises(RuleError, match="^strategy 'batchbald' is not available on the "
                                            "detection track$"):
            al.run_al(cfg, datasets, learner, oracle, seed=1)

    def test_batchbald_rejected_before_any_detection(self):
        cfg, datasets, oracle, _ = tiny_detection(strategy="batchbald")

        class FailingSurrogate:
            def with_sim(self, scenes):
                return self

            with_real = with_sim

            def detect(self, *args, **kwargs):
                raise AssertionError("detect ran before the strategy check")

        with pytest.raises(RuleError, match="^strategy 'batchbald' is not available on the "
                                            "detection track$"):
            al.run_al(cfg, datasets, FailingSurrogate(), oracle, seed=1)

    def test_strategies_run(self):
        for strategy in ("topn", "subsample_topn", "coreset", "clue"):
            cfg, datasets, oracle, learner = tiny_detection(strategy=strategy,
                                                            iterations=1)
            curve = al.run_al(cfg, datasets, learner, oracle, seed=2)
            assert len(curve.selected_ids[0]) == 8


class TestRunSeeds:
    """Both builders and run_al check a run seed by one rule, loop.SEED,
    whose message the CLI prints too."""

    def test_classification_builder(self):
        with pytest.raises(RuleError, match="^seed -1 is negative$"):
            al.build_classification_experiment(al.ClassificationExperimentSpec(), -1)

    def test_detection_builder(self):
        with pytest.raises(RuleError, match="^seed -2 is negative$"):
            al.build_detection_experiment(al.DetectionExperimentSpec(), -2)

    @pytest.mark.parametrize("tiny", [tiny_classification, tiny_detection])
    def test_run_al(self, tiny):
        cfg, datasets, oracle, learner = tiny(iterations=1)
        with pytest.raises(RuleError, match="^seed -1 is negative$"):
            al.run_al(cfg, datasets, learner, oracle, seed=-1)


class TestRunCells:
    STRATEGIES, SEEDS = ("random", "topn", "coreset"), [3, 1]
    TRACKS = {
        "classification": (
            al.ClassificationExperimentSpec(n_classes=4, dim=4, sim_size=60, pool_size=60,
                                            test_size=60, hidden_dim=8),
            al.build_classification_experiment,
            al.ALRunConfig(iterations=2, selection=SelectionConfig(batch_size=5),
                           train=TrainConfig(epochs=2))),
        "detection": (
            al.DetectionExperimentSpec(sim_scenes=10, pool_scenes=20, test_scenes=10),
            al.build_detection_experiment,
            al.ALRunConfig(iterations=2, selection=SelectionConfig(batch_size=4))),
    }

    @pytest.mark.parametrize("track", TRACKS)
    def test_cells_share_one_start_per_seed(self, tmp_path, monkeypatch, track):
        """Cells come strategy by strategy and build their experiment
        once each; a seed's start (one sim fit and one reference fit, or
        one with_sim) is computed once; each curve equals a lone run_al
        that computes its own start.  A fresh fit appends a line to a
        file, which the reference worker reaches too."""
        spec, build_experiment, cfg = self.TRACKS[track]
        builds, counts = [], {"fresh_fits": 0, "with_sim": 0}
        fit, with_sim = MCDropoutClassifier.fit, al.DetectionSurrogate.with_sim
        fresh_fits = tmp_path / "fresh_fits"
        fresh_fits.touch()

        def build(seed):
            builds.append(seed)
            return build_experiment(spec, seed)

        def counting_fit(model, x, y, cfg):
            if not cfg.fine_tune:
                with open(fresh_fits, "a") as fh:
                    fh.write("fit\n")
            return fit(model, x, y, cfg)

        def counting_with_sim(surrogate, scenes):
            counts["with_sim"] += 1
            return with_sim(surrogate, scenes)

        monkeypatch.setattr(MCDropoutClassifier, "fit", counting_fit)
        monkeypatch.setattr(al.DetectionSurrogate, "with_sim", counting_with_sim)
        cells = list(al.run_cells(cfg, build, self.STRATEGIES, self.SEEDS))
        order = [(s, n) for s in self.STRATEGIES for n in self.SEEDS]
        assert [cell[:2] for cell in cells] == order
        assert builds == []
        curves = [run() for _, _, run in cells]
        assert builds == [n for _, n in order]
        counts["fresh_fits"] = len(fresh_fits.read_text().splitlines())
        n_seeds = len(self.SEEDS)
        assert counts == ({"fresh_fits": 2 * n_seeds, "with_sim": 0}
                          if track == "classification"
                          else {"fresh_fits": 0, "with_sim": n_seeds})
        monkeypatch.undo()
        for (strategy, seed), curve in zip(order, curves):
            datasets, oracle, learner = build_experiment(spec, seed)
            cell_cfg = replace(cfg, selection=replace(cfg.selection, strategy=strategy))
            assert curve.strategy == strategy
            assert curve == al.run_al(cell_cfg, datasets, learner, oracle, seed, start=None)


class TestBatchDetectionReference:
    """One batch step, DetectionSurrogate.detect on every scene and one
    score_image call, gives the bits of the per-scene chain it replaced,
    and its first error when each stage runs over every scene in turn:
    synthesis, clustering, fusion, the Detections batch's finite fields,
    then scoring (tests_support_reference.reference_detect,
    reference_score_image)."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_scenes=st.integers(1, 10),
           objects=st.tuples(st.integers(0, 3), st.integers(0, 4)),
           n_classes=st.integers(1, 4), t=st.integers(1, 6), m=st.integers(1, 4),
           miss=st.sampled_from([0.0, 0.3, 1.0]),
           true_logit=st.sampled_from([2.0, 800.0]),
           sigma_weak=st.sampled_from([6.0, 6.0, 6.0, 1e308]),
           seen=st.sampled_from([0.0, 30.0, 1e4]),
           threshold=st.sampled_from([0.0, 0.5, 1.0]), cls_bayesian=st.booleans(),
           comb=st.sampled_from(COMB_MODES), agg=st.sampled_from(AGG_MODES),
           weights=st.sampled_from([(1.0, 0.01), (1.0, 0.0), (0.0, 0.0), (0.3, 2.5)]))
    def test_batch_matches_per_scene_chain(self, seed, n_scenes, objects, n_classes,
                                           t, m, miss, true_logit, sigma_weak, seen,
                                           threshold, cls_bayesian, comb, agg,
                                           weights):
        # objects_min = 0 gives empty scenes and miss = 1 misses every
        # object; a huge true-class logit with one class scores exactly 1,
        # a -0.0 classification entropy, so w_reg = 0 ties signed zeros;
        # a box sigma of 1e308 overflows box samples, their means or the
        # fused box means to inf, so a scene fails in synthesis
        # ('boxes must be finite'), clustering or the Detections batch
        spec = DetectionSceneSpec(n_classes=n_classes,
                                  objects_min=min(objects), objects_max=max(objects),
                                  anchors_per_object=m, mc_samples=t)
        params = al.SurrogateParams(miss_weak=miss, miss_strong=miss,
                                    true_logit_weak=true_logit,
                                    true_logit_strong=true_logit,
                                    sigma_box_weak=sigma_weak, sigma_box_strong=0.2)
        surrogate = al.DetectionSurrogate(spec, params, sim_counts=np.full(n_classes, seen))
        scenes = generate_detection_scenes(spec, n_scenes, seed)
        keys = list(range(n_scenes))
        cfg = AcquisitionConfig(comb=comb, agg=agg, w_cls=weights[0], w_reg=weights[1])

        with np.errstate(over="ignore", invalid="ignore"):
            try:
                detections = surrogate.detect(scenes, keys, threshold, cls_bayesian,
                                              prefix=(seed,))
                got = (detections, score_image(detections, cfg))
            except ValueError as exc:
                got = str(exc)
            try:
                images = reference_detect(surrogate, per_scene(scenes),
                                          [np.random.SeedSequence([seed, key]) for key in keys],
                                          threshold, cls_bayesian)
                expected = (images, [reference_score_image(image, cfg) for image in images])
            except ValueError as exc:
                expected = str(exc)

        if isinstance(expected, str):
            assert got == expected
            return
        assert not isinstance(got, str), got
        assert_same_detections(got[0], expected[0])
        assert np.diff(got[0].offsets).tolist() == [len(image) for image in expected[0]]
        assert [v.hex() for v in got[1].tolist()] == [v.hex() for v in expected[1]]

    def test_seed_count_checked(self):
        spec = DetectionSceneSpec()
        surrogate = al.DetectionSurrogate(spec, al.SurrogateParams())
        scenes = generate_detection_scenes(spec, 3, seed=1)
        with pytest.raises(ValueError, match="one seed per scene"):
            surrogate.detect(scenes, [1, 2])

    def test_key_out_of_word_rejected(self):
        spec = DetectionSceneSpec()
        surrogate = al.DetectionSurrogate(spec, al.SurrogateParams())
        scenes = generate_detection_scenes(spec, 2, seed=1)
        with pytest.raises(ValueError, match=f"scene key {2**32} "):
            surrogate.detect(scenes, [0, 2**32], prefix=(1,))


class TestGroundTruthBatches:
    """The consumers of a Scenes batch give what the per-scene code they
    replaced gave, on batches with empty scenes (objects_min = 0):
    the surrogate's counts, the track's labels and mAP
    (tests_support_reference.reference_counts, reference_labels,
    reference_evaluate_detection)."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_scenes=st.integers(1, 8),
           objects_max=st.integers(0, 3), n_classes=st.integers(1, 4),
           threshold=st.sampled_from([0.0, 0.5, 1.0]), data=st.data())
    def test_counts_labels_and_map(self, seed, n_scenes, objects_max, n_classes,
                                   threshold, data):
        spec = DetectionSceneSpec(n_classes=n_classes, objects_min=0, objects_max=objects_max)
        scenes = generate_detection_scenes(spec, n_scenes, seed)
        records = per_scene(scenes)
        surrogate = al.DetectionSurrogate(spec, al.SurrogateParams())
        counted = surrogate.with_real(scenes).with_sim(scenes)
        expected = reference_counts(records, n_classes)
        assert counted.real_counts.tobytes() == expected.tobytes()
        assert counted.sim_counts.tobytes() == expected.tobytes()

        ids = data.draw(st.lists(st.integers(0, n_scenes - 1), unique=True))
        labels = al._DetectionTrack.labels(scenes.take(ids))
        assert labels.dtype.kind == "i"
        assert labels.tolist() == reference_labels([records[i] for i in ids]).tolist()

        detections = surrogate.detect(scenes, range(n_scenes), threshold, prefix=(seed,))

        def outcome(evaluate, detections, scenes):
            try:
                return evaluate(detections, scenes, threshold)
            except ValueError as exc:
                return str(exc)

        assert (outcome(al.evaluate_detection, detections, scenes)
                == outcome(reference_evaluate_detection, records_of(detections), records))

    def test_oracle_takes_pool_scenes(self):
        spec = al.DetectionExperimentSpec(sim_scenes=5, pool_scenes=12, test_scenes=5,
                                          objects_min=0, objects_max=2)
        datasets, oracle, _ = al.build_detection_experiment(spec, 3)
        pool = per_scene(datasets.pool_scenes)
        batch = per_scene(oracle([7, 0, 11]))
        for got, want in zip(batch, [pool[7], pool[0], pool[11]], strict=True):
            assert got.gt_classes.tolist() == want.gt_classes.tolist()
            assert got.gt_boxes.tobytes() == want.gt_boxes.tobytes()


class TestDetectionSeeding:
    @staticmethod
    def constructions(monkeypatch, pool, test_scenes, iterations):
        """numpy seeding objects the package builds in one detection run_al:
        SeedSequence, default_rng and PCG64 constructions."""
        spec = al.DetectionExperimentSpec(sim_scenes=30, pool_scenes=pool,
                                          test_scenes=test_scenes)
        datasets, oracle, learner = al.build_detection_experiment(spec, 1)
        cfg = al.ALRunConfig(iterations=iterations,
                             selection=SelectionConfig(strategy="clue", batch_size=4))
        counts = collections.Counter()
        with monkeypatch.context() as patch:
            for name in ("SeedSequence", "default_rng", "PCG64"):
                def counting(*args, _original=getattr(np.random, name), _name=name,
                             **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)
                patch.setattr(np.random, name, counting)
            al.run_al(cfg, datasets, learner, oracle, seed=2)
        return counts

    def test_constructions_grow_with_iterations_not_scenes(self, monkeypatch):
        # clue detects the pool, the labeled scenes and the test scenes
        # each iteration; per-scene seeding would build thousands here
        small = self.constructions(monkeypatch, pool=20, test_scenes=10, iterations=2)
        large = self.constructions(monkeypatch, pool=120, test_scenes=80, iterations=2)
        assert small == large
        longer = self.constructions(monkeypatch, pool=120, test_scenes=80, iterations=4)
        assert sum(longer.values()) <= 5 * (4 + 1)


class TestRunAlSelectionProperty:
    @pytest.mark.parametrize("track, strategy", [
        (track, strategy) for track, names in al.TRACK_STRATEGIES.items()
        for strategy in names])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), pool=st.integers(6, 20),
           batch=st.integers(1, 5), p=st.sampled_from([0.3, 0.5, 1.0]),
           iterations=st.integers(1, 3))
    def test_batches_are_distinct_pool_ids_and_repeat(self, track, strategy,
                                                      seed, pool, batch, p,
                                                      iterations):
        """Each batch holds B distinct ids of the pool at its iteration,
        the oracle labels exactly the batches after the reference run,
        and a rerun with the same seed selects the same ids."""
        build = tiny_classification if track == "classification" else tiny_detection
        runs = []
        for _ in range(2):
            cfg, datasets, oracle, learner = build(
                strategy=strategy, iterations=iterations, pool=pool,
                batch=batch, p=p)
            asked = []

            def recording_oracle(ids, oracle=oracle, asked=asked):
                asked.append(list(ids))
                return oracle(ids)

            curve = al.run_al(cfg, datasets, learner, recording_oracle, seed)
            assert asked == [list(range(pool))] + curve.selected_ids
            runs.append(curve.selected_ids)
        selected = runs[0]
        assert runs[1] == selected
        assert len(selected) == iterations or curve.truncated
        remaining = set(range(pool))
        for ids in selected:
            assert len(ids) == len(set(ids)) == batch
            assert set(ids) <= remaining
            remaining -= set(ids)


class TestArtifacts:
    def test_csv_round_trip_and_gap_recompute(self, tmp_path):
        cfg, datasets, oracle, learner = tiny_classification(strategy="topn",
                                                             iterations=3)
        curve = al.run_al(cfg, datasets, learner, oracle, seed=13)
        csv_path = tmp_path / "curve.csv"
        man_path = tmp_path / "manifest.txt"
        al.write_curve_csv(csv_path, [curve])
        al.write_manifest(man_path, {"track": "classification"}, [curve])

        manifest = al.read_manifest(man_path)
        points = al.read_curve_csv(csv_path)
        rebuilt = al.curve_from_artifacts(manifest, points, seed=13)
        assert rebuilt.points == curve.points
        assert al.gap_report(rebuilt) == al.gap_report(curve)

    def test_csv_byte_identical_reruns(self, tmp_path):
        texts = []
        for _ in range(2):
            cfg, datasets, oracle, learner = tiny_classification(
                strategy="subsample_topn", iterations=2)
            curve = al.run_al(cfg, datasets, learner, oracle, seed=17)
            texts.append(al.curve_csv_text([curve]))
        assert texts[0] == texts[1]

    def test_manifest_skips_comment_and_blank_lines(self, tmp_path):
        first, *rest = al.manifest_text({"track": "classification"}, []).splitlines(keepends=True)
        plain, noted = tmp_path / "plain.txt", tmp_path / "noted.txt"
        plain.write_text("".join([first, *rest]), encoding="utf-8")
        noted.write_text("".join(["# written by hand\n", first, "\n  # indented\n", *rest]),
                         encoding="utf-8")
        assert al.read_manifest(noted) == al.read_manifest(plain)

    def test_manifest_rejects_garbage(self, tmp_path):
        bad = tmp_path / "m.txt"
        bad.write_text("not a manifest\n")
        with pytest.raises(ValueError):
            al.read_manifest(bad)
