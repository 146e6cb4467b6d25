"""Synthetic data generators: determinism, shift knobs, detector outputs."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from tests_support_oracles import raised_in_package
from tests_support_reference import per_scene, reference_generate_detection_scenes

from sim2real_al.acquisition import detection_entropies
from sim2real_al.fusion import bayesod_inference, iou_matrix
from sim2real_al.learner import MCDropoutClassifier, TrainConfig
from sim2real_al.rules import RuleError
from sim2real_al.synthdata import (ClassificationDomainSpec,
                                   DetectionSceneSpec, Scenes, generate_classification,
                                   generate_detection_scenes, grid_class_means,
                                   shifted_domain, skewed_priors,
                                   synth_detector_outputs)
from sim2real_al.synthdata import _child_generators, _keyed_generators, _words


def small_domain(n_classes=3, dim=3, sep=3.0):
    return ClassificationDomainSpec(class_means=grid_class_means(n_classes, dim, sep))


class TestGenerateClassification:
    def test_deterministic(self):
        spec = small_domain()
        x_a, y_a = generate_classification(spec, 50, seed=7)
        x_b, y_b = generate_classification(spec, 50, seed=7)
        np.testing.assert_array_equal(x_a, x_b)
        np.testing.assert_array_equal(y_a, y_b)

    def test_n_one(self):
        x, y = generate_classification(small_domain(), 1, seed=0)
        assert x.shape == (1, 3) and y.shape == (1,)
        assert y.dtype.kind == "i"

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            generate_classification(small_domain(), 0, seed=0)

    @pytest.mark.parametrize("generate", [
        lambda n: generate_classification(small_domain(), n, seed=0),
        lambda n: generate_detection_scenes(DetectionSceneSpec(), n, seed=0)],
        ids=["classification", "detection"])
    def test_n_must_be_a_whole_number(self, generate):
        # numpy's TypeError before
        with pytest.raises(ValueError, match=r"^n must be a whole number >= 1, got 2\.5$"):
            generate(2.5)

    def test_prior_skew_histogram(self):
        priors = np.array([0.9, 0.1, 0.0])
        spec = ClassificationDomainSpec(
            class_means=grid_class_means(3, 3, 3.0), class_priors=priors)
        _, y = generate_classification(spec, 10_000, seed=1)
        counts = np.bincount(y, minlength=3)
        assert counts[2] == 0
        assert stats.chisquare(counts[:2], priors[:2] * 10_000).pvalue > 0.001

    def test_zero_shift_means_no_gap(self):
        """Identical domains: train-on-A accuracy equal on A-test and B-test."""
        gaps = []
        for seed in range(10):
            spec = small_domain()
            ss = np.random.SeedSequence(seed).spawn(3)
            x_tr, y_tr = generate_classification(spec, 300, ss[0])
            x_a, y_a = generate_classification(spec, 500, ss[1])
            x_b, y_b = generate_classification(spec, 500, ss[2])
            model = MCDropoutClassifier(3, 32, 3, seed=seed)
            model = model.fit(x_tr, y_tr,
                              TrainConfig(epochs=15, learning_rate=0.2, seed=seed))
            acc_a = (model.predict_mean(x_a).argmax(1) == y_a).mean()
            acc_b = (model.predict_mean(x_b).argmax(1) == y_b).mean()
            gaps.append(acc_a - acc_b)
        assert abs(np.mean(gaps)) < 0.02

    def test_shift_monotonicity(self):
        """Sim-trained accuracy drop grows with the translation magnitude."""
        drops = {0.0: [], 1.0: [], 3.0: []}
        for seed in range(10):
            spec = small_domain()
            ss = np.random.SeedSequence(100 + seed).spawn(3)
            x_tr, y_tr = generate_classification(spec, 300, ss[0])
            model = MCDropoutClassifier(3, 32, 3, seed=seed)
            model = model.fit(x_tr, y_tr,
                              TrainConfig(epochs=15, learning_rate=0.2, seed=seed))
            direction = np.random.default_rng(ss[1]).standard_normal(3)
            direction /= np.linalg.norm(direction)
            base_acc = None
            for mag in (0.0, 1.0, 3.0):
                shifted = shifted_domain(spec, translation=mag * direction)
                x_t, y_t = generate_classification(shifted, 500, ss[2])
                acc = (model.predict_mean(x_t).argmax(1) == y_t).mean()
                if mag == 0.0:
                    base_acc = acc
                drops[mag].append(base_acc - acc)
        means = [np.mean(drops[m]) for m in (0.0, 1.0, 3.0)]
        assert means[0] <= means[1] <= means[2]
        assert means[2] > means[0]

    def test_label_shift_knob(self):
        """Pool histogram follows skewed priors; sim stays balanced."""
        priors = skewed_priors(4, 1.5)
        spec = ClassificationDomainSpec(class_means=grid_class_means(4, 4, 3.0))
        pool_spec = shifted_domain(spec, priors=priors)
        _, y_pool = generate_classification(pool_spec, 5000, 3)
        _, y_sim = generate_classification(spec, 5000, 4)
        assert stats.chisquare(np.bincount(y_pool, minlength=4),
                               priors * 5000).pvalue > 0.001
        assert stats.chisquare(np.bincount(y_sim, minlength=4)).pvalue > 0.001

    def test_skewed_priors_properties(self):
        p = skewed_priors(5, 0.0)
        np.testing.assert_allclose(p, 0.2)
        p = skewed_priors(5, 2.0)
        assert np.all(np.diff(p) < 0)
        assert p.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n_classes", [2.5, 0, -1])
    def test_grid_means_need_a_class_count(self, n_classes):
        with pytest.raises(ValueError, match=re.escape(
                f"n_classes must be a whole number >= 1, got {n_classes!r}")):
            grid_class_means(n_classes, 3, 1.0)

    def test_grid_means_take_a_whole_float_count(self):
        np.testing.assert_array_equal(grid_class_means(2.0, 3, 1.5),
                                      [[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]])


class TestGenerateDetectionScenes:
    def spec(self, **kw):
        defaults = dict(width=100.0, height=100.0, n_classes=3,
                        objects_min=1, objects_max=3, box_min=16.0, box_max=32.0)
        defaults.update(kw)
        return DetectionSceneSpec(**defaults)

    def test_deterministic(self):
        spec = self.spec()
        a = generate_detection_scenes(spec, 20, seed=5)
        b = generate_detection_scenes(spec, 20, seed=5)
        for sa, sb in zip(per_scene(a), per_scene(b)):
            np.testing.assert_array_equal(sa.gt_boxes, sb.gt_boxes)
            np.testing.assert_array_equal(sa.gt_classes, sb.gt_classes)

    def test_fixed_object_count(self):
        scenes = generate_detection_scenes(self.spec(objects_min=1, objects_max=1),
                                           50, seed=0)
        assert np.diff(scenes.offsets).tolist() == [1] * 50

    def test_boxes_inside_extent(self):
        for scene in per_scene(generate_detection_scenes(self.spec(), 200, seed=1)):
            b = scene.gt_boxes
            assert np.all(b[:, 0] >= 0) and np.all(b[:, 1] >= 0)
            assert np.all(b[:, 2] <= 100) and np.all(b[:, 3] <= 100)
            assert np.all(b[:, 0] < b[:, 2]) and np.all(b[:, 1] < b[:, 3])

    def test_class_histogram(self):
        priors = np.array([0.6, 0.3, 0.1])
        scenes = generate_detection_scenes(self.spec(class_priors=priors),
                                           1000, seed=2)
        counts = np.bincount(scenes.classes, minlength=3)
        assert stats.chisquare(counts, priors * counts.sum()).pvalue > 0.001

    def test_infeasible_box_range_rejected(self):
        with pytest.raises(ValueError, match=re.escape("box_max must be <= min(width, height)")):
            self.spec(box_min=16.0, box_max=200.0)

    @pytest.mark.parametrize("priors", [[0.5, 0.5], [1.2, -0.1, -0.1],
                                        [np.nan, 0.5, 0.5], [[0.5, 0.2, 0.3]]])
    def test_bad_priors_rejected(self, priors):
        # Generator.choice rejected these at generation; the spec now does
        with pytest.raises(ValueError, match="class_priors"):
            self.spec(class_priors=priors)

    @pytest.mark.parametrize("field, message", [
        (dict(width=np.inf, height=np.inf), "width must be finite and > 0"),
        (dict(height=np.nan), "height must be finite and > 0"),
        (dict(box_min=16.0, box_max=np.nan), "box_max must be > 0")],
        ids=["inf-extent", "nan-height", "nan-box-max"])
    def test_non_finite_geometry_rejected(self, field, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.spec(**field)

    def test_pure_in_its_seed_sequence(self):
        """The seed is read, not advanced: two calls on one SeedSequence
        give the same scenes, those of its next children."""
        ss = np.random.SeedSequence(11, spawn_key=(2,))
        ss.spawn(3)
        a = generate_detection_scenes(self.spec(), 15, ss)
        b = generate_detection_scenes(self.spec(), 15, ss)
        assert ss.n_children_spawned == 3
        assert scene_bytes(per_scene(a)) == scene_bytes(per_scene(b))
        assert scene_bytes(per_scene(a)) == scene_bytes(
            reference_generate_detection_scenes(self.spec(), 15, ss))
        assert ss.n_children_spawned == 18


def scene_bytes(scenes):
    return [(s.gt_classes.dtype.str, s.gt_classes.tobytes(),
             s.gt_boxes.shape, s.gt_boxes.tobytes()) for s in scenes]


@st.composite
def scene_seeds(draw):
    """An int, or a SeedSequence with a spawn key and spawned children."""
    if draw(st.booleans()):
        return draw(st.integers(0, 2**64))
    ss = np.random.SeedSequence(draw(st.integers(0, 2**128 - 1)),
                                spawn_key=draw(st.lists(st.integers(0, 2**40),
                                                        max_size=3)))
    ss.spawn(draw(st.integers(0, 4)))
    return ss


class TestSceneGeneratorReference:
    """generate_detection_scenes gives the scene bytes of the generator it
    replaced, one spawned child, one choice and four scalar uniforms per
    object (tests_support_reference.reference_generate_detection_scenes)."""

    @settings(max_examples=150, deadline=None)
    @given(seed=scene_seeds(), n=st.integers(1, 12), n_classes=st.integers(1, 5),
           skew=st.sampled_from([None, 0.0, 0.5, 3.0, 40.0]),
           objects=st.tuples(st.integers(0, 3), st.integers(0, 4)),
           sizes=st.sampled_from([(24.0, 48.0), (5.0, 5.0), (1.0, 64.0)]),
           extent=st.sampled_from([(64.0, 64.0), (100.0, 70.0), (64, 128)]))
    @example(seed=3, n=5, n_classes=1, skew=None, objects=(0, 0),
             sizes=(24.0, 48.0), extent=(64.0, 64.0))
    def test_same_scene_bytes(self, seed, n, n_classes, skew, objects, sizes, extent):
        if skew is None:   # a class that never occurs
            priors = np.eye(n_classes)[-1] if n_classes > 1 else None
        else:
            priors = skewed_priors(n_classes, skew)
        spec = DetectionSceneSpec(width=extent[0], height=extent[1],
                                  n_classes=n_classes, class_priors=priors,
                                  objects_min=min(objects), objects_max=max(objects),
                                  box_min=sizes[0], box_max=sizes[1])
        got = scene_bytes(per_scene(generate_detection_scenes(spec, n, seed)))
        assert got == scene_bytes(reference_generate_detection_scenes(spec, n, seed))


@st.composite
def scene_batches(draw):
    """A generated Scenes batch of 1-8 scenes; objects_min = 0, so some
    scenes, or all, may be empty."""
    spec = DetectionSceneSpec(n_classes=draw(st.integers(1, 4)),
                              objects_min=0, objects_max=draw(st.integers(0, 3)))
    return generate_detection_scenes(spec, draw(st.integers(1, 8)),
                                     draw(st.integers(0, 2**32)))


def same_arrays(a: Scenes, b: Scenes) -> bool:
    return all(getattr(a, name).dtype == getattr(b, name).dtype
               and np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("classes", "boxes", "offsets"))


class TestScenes:
    """Scenes holds ground truth as flat rows plus the offsets rule of
    Anchors; take and concatenate keep each scene's rows."""

    @settings(max_examples=150, deadline=None)
    @given(scenes=scene_batches(), data=st.data())
    def test_take_then_concatenate_is_one_take(self, scenes, data):
        ids = data.draw(st.lists(st.integers(0, scenes.n_images - 1), unique=True))
        cut = data.draw(st.integers(0, len(ids)))
        a, b = ids[:cut], ids[cut:]
        taken = scenes.take(a + b)
        assert same_arrays(Scenes.concatenate([scenes.take(a), scenes.take(b)]), taken)
        # scene by scene, take keeps each scene's bytes
        assert (scene_bytes(per_scene(taken))
                == scene_bytes([per_scene(scenes)[i] for i in ids]))
        assert len(taken) == len(taken.classes) and taken.n_images == len(ids)

    def test_empty_scenes_keep_their_place(self):
        scenes = Scenes(classes=[2, 0, 1], boxes=np.arange(12.0).reshape(3, 4),
                        offsets=[0, 0, 2, 2, 3])
        taken = scenes.take([3, 0, 1])
        assert taken.offsets.tolist() == [0, 1, 1, 3]
        assert taken.classes.tolist() == [1, 2, 0]
        assert taken.boxes[0].tolist() == [8.0, 9.0, 10.0, 11.0]
        assert len(scenes.take([])) == 0 and scenes.take([]).n_images == 0

    @settings(max_examples=100, deadline=None)
    @given(scenes=scene_batches(), data=st.data())
    def test_repeated_or_out_of_range_ids_raise(self, scenes, data):
        n = scenes.n_images
        ids = data.draw(st.one_of(
            st.lists(st.integers(0, n - 1), min_size=1).map(lambda v: v + v[:1]),
            st.lists(st.one_of(st.integers(n, n + 3), st.integers(-3, -1)), min_size=1)
            .flatmap(lambda bad: st.permutations(bad + list(range(n)))),
            st.just([0.5]), st.just([[0]])))
        with pytest.raises(ValueError, match=r"^ids must be distinct image indices "
                                             rf"in \[0, {n}\)$") as excinfo:
            scenes.take(ids)
        assert raised_in_package(excinfo)

    @settings(max_examples=100, deadline=None)
    @given(scenes=scene_batches(), data=st.data())
    def test_malformed_offsets_raise(self, scenes, data):
        offsets = scenes.offsets.astype(float)
        n = len(scenes)
        kind = data.draw(st.sampled_from(["not-from-0", "short", "long", "falling",
                                          "fraction", "2-d", "empty"]))
        if kind == "not-from-0":
            offsets[0] = data.draw(st.sampled_from([-1, 1]))
        elif kind in ("short", "long"):
            offsets[-1] = n - 1 if kind == "short" else n + 1
        elif kind == "falling":
            offsets = np.append(offsets, [n + 1, n])
        elif kind == "fraction":
            offsets = np.append(offsets[:-1], [n - 0.5, n]) if n else [0, 0.5, 0]
        elif kind == "2-d":
            offsets = offsets[None]
        else:
            offsets = []
        with pytest.raises(ValueError, match="^offsets must rise from 0 to the "
                                             "object count$") as excinfo:
            Scenes(scenes.classes, scenes.boxes, offsets)
        assert raised_in_package(excinfo)

    def test_concatenate_needs_a_batch(self):
        # numpy's "need at least one array to concatenate" before
        with pytest.raises(ValueError, match="^Scenes.concatenate needs at least one batch$"):
            Scenes.concatenate([])

    CLASSES = r"^classes must be \(n,\) class ids >= 0$"
    BOXES = r"^boxes must be an array of shape \(2, 4\), got shape "

    @pytest.mark.parametrize("classes, boxes, message", [
        ([0, 1], np.zeros((3, 4)), BOXES + r"\(3, 4\)$"),
        ([0, 1], np.zeros((2, 3)), BOXES + r"\(2, 3\)$"),
        ([0.5, 1], np.zeros((2, 4)), CLASSES), ([-1, 1], np.zeros((2, 4)), CLASSES),
        ([-1], [[0, 0, 1, 1]], CLASSES), ([[0, 1]], np.zeros((2, 4)), CLASSES),
        ([0, 1], [[0, 0, 1, 1], [0, 0, np.nan, 1]], r"^boxes must be finite$")],
        ids=["rows", "box-width", "fraction", "negative", "lone-negative", "2-d", "nan-box"])
    def test_malformed_rows_raise(self, classes, boxes, message):
        """A bad class id names the classes alone; box errors keep
        rules.shaped's messages."""
        with pytest.raises(ValueError, match=message) as excinfo:
            Scenes(classes, boxes, [0, np.size(classes)])
        assert raised_in_package(excinfo)


def numpy_draws(rng):
    return (rng.random(3).tobytes(), rng.standard_normal(3).tobytes(),
            rng.integers(0, 2**40, 3).tobytes(), rng.integers(-5, 5))


class TestKeyedGenerators:
    """Each yielded generator holds numpy's own stream for its SeedSequence."""

    words = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                      st.integers(2**32, 2**160))
    keys = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))

    @settings(max_examples=150, deadline=None)
    @given(prefix=st.lists(words, max_size=7), keys=st.lists(keys, max_size=6))
    @example(prefix=[], keys=[0, 2**32 - 1])
    @example(prefix=[0, 0, 0, 0, 0], keys=[0])
    @example(prefix=[2**32 - 1, 5, 2**40], keys=[2**32 - 1])    # one scene
    @example(prefix=[1, 2, 3, 4, 5, 6, 7], keys=[9])             # key past the pool
    def test_streams_match_seed_sequence(self, prefix, keys):
        got = [numpy_draws(rng) for rng in _keyed_generators(_words(prefix), keys)]
        assert got == [numpy_draws(np.random.default_rng(
            np.random.SeedSequence([*prefix, key]))) for key in keys]

    @settings(max_examples=100, deadline=None)
    @given(entropy=st.integers(0, 2**128 - 1),
           spawn_key=st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
           before=st.integers(1, 5), n=st.integers(1, 6),
           pool_size=st.sampled_from([4, 4, 5, 8]))
    def test_children_match_spawn(self, entropy, spawn_key, before, n, pool_size):
        ss = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        ss.spawn(before)
        got = [numpy_draws(rng) for rng in _child_generators(ss, n)]
        assert ss.n_children_spawned == before
        assert got == [numpy_draws(np.random.default_rng(child))
                       for child in ss.spawn(n)]

    def test_children_of_fresh_entropy(self):
        # SeedSequence() draws 128 bits from the OS
        ss = np.random.SeedSequence(spawn_key=(7,))
        ss.spawn(2)
        got = [numpy_draws(rng) for rng in _child_generators(ss, 4)]
        assert got == [numpy_draws(np.random.default_rng(child))
                       for child in ss.spawn(4)]

    def test_empty_prefix_is_default_rng_of_key(self):
        rng = next(_keyed_generators([], [12345]))
        assert numpy_draws(rng) == numpy_draws(np.random.default_rng(12345))

    @pytest.mark.parametrize("key", [-1, 2**32, 2**64])
    def test_key_must_fit_one_word(self, key):
        spec = DetectionSceneSpec()
        scenes = generate_detection_scenes(spec, 2, seed=1)
        with pytest.raises(ValueError, match=f"scene key {key} "):
            synth_detector_outputs(scenes, spec, [3, key], prefix=(1, 2))

    def test_one_key_per_scene(self):
        spec = DetectionSceneSpec()
        scenes = generate_detection_scenes(spec, 2, seed=1)
        with pytest.raises(ValueError, match="one seed per scene"):
            synth_detector_outputs(scenes, spec, [3])


class TestSynthDetectorOutputs:
    def spec(self, **kw):
        defaults = dict(width=100.0, height=100.0, n_classes=3,
                        objects_min=1, objects_max=2, box_min=30.0, box_max=34.0,
                        anchors_per_object=3, mc_samples=10)
        defaults.update(kw)
        return DetectionSceneSpec(**defaults)

    NOISE = "must be one finite number or n_classes of them"

    @pytest.mark.parametrize("field, value, message", [
        # never missed an object: nan > 0 is false
        ("miss_prob", np.nan, f"miss_prob {NOISE}"),
        # dropped every object, 0 anchors
        ("miss_prob", 2.0, "miss_prob must lie in [0, 1]"),
        ("miss_prob", [0.1, -0.1, 0.0], "miss_prob must lie in [0, 1]"),
        # numpy's unanchored broadcast error from per_class
        ("sigma_box", [1.0, 2.0], f"sigma_box {NOISE}"),
        ("score_noise", np.inf, f"score_noise {NOISE}"),
        ("true_logit", [2.0, np.nan, 2.0], f"true_logit {NOISE}"),
        ("off_logit", -np.inf, f"off_logit {NOISE}"),
        ("off_logit", [[-4.0, -4.0, -4.0]], f"off_logit {NOISE}"),
        ("sigma_box", "wide", f"sigma_box {NOISE}"),
    ], ids=["nan-miss", "miss-above-one", "negative-class-miss", "sigma-length-2",
            "inf-score-noise", "nan-class-logit", "inf-off-logit", "2-d-off-logit",
            "string-sigma"])
    def test_noise_fields_checked(self, field, value, message):
        with pytest.raises(RuleError, match=f"^{re.escape(message)}$") as info:
            self.spec(**{field: value})
        assert info.value.field == field

    def test_per_class_noise_accepted(self):
        spec = self.spec(sigma_box=[0.5, 1.0, 2.0], miss_prob=[0.0, 0.5, 1.0], off_logit=-3.0)
        np.testing.assert_array_equal(spec.per_class(spec.miss_prob), [0.0, 0.5, 1.0])

    def test_class_ids_beyond_the_spec_rejected(self):
        # a bare IndexError before
        scenes = Scenes(classes=[0, 5], boxes=[[0, 0, 10, 10]] * 2, offsets=[0, 1, 2])
        with pytest.raises(ValueError, match=r"^labels outside \[0, n_classes\)$"):
            synth_detector_outputs(scenes, self.spec(), [0, 1])

    def test_noiseless_limit_exact(self):
        spec = self.spec(sigma_box=0.0, score_noise=0.0)
        scene = generate_detection_scenes(spec, 1, seed=3)
        anchors = synth_detector_outputs(scene, spec, [4])
        assert len(anchors) == len(scene) * 3
        dets = bayesod_inference(anchors, 0.5)
        assert len(dets) == len(scene)
        for mean, cov, size in zip(dets.box_mean, dets.box_cov, dets.cluster_size):
            gt_idx = int(np.argmin([np.abs(mean - g).max()
                                    for g in scene.boxes]))
            np.testing.assert_allclose(mean, scene.boxes[gt_idx], atol=1e-9)
            # member covariances are eps*I; M members fuse to eps/M * I
            np.testing.assert_allclose(cov, 1e-6 / size * np.eye(4), atol=1e-12)

    def test_reg_entropy_grows_with_box_noise(self):
        entropies = {}
        for sigma in (1.0, 4.0):
            spec = self.spec(sigma_box=sigma)
            scenes = generate_detection_scenes(spec, 100, seed=5)
            values = []
            for i in range(scenes.n_images):
                detections = bayesod_inference(
                    synth_detector_outputs(scenes.take([i]), spec, [1000 + i]), 0.5)
                values.extend(detection_entropies(detections)[1].tolist())
            entropies[sigma] = np.mean(values)
        assert entropies[4.0] > entropies[1.0]

    def test_anchor_iou_coverage(self):
        """Anchor mean boxes cover GT with IoU >= 0.5 in >= 95% of draws."""
        spec = self.spec(sigma_box=2.0, box_min=32.0, box_max=32.0,
                         objects_min=1, objects_max=1)
        hits = total = 0
        draws = 0
        i = 0
        while draws < 10_000:
            scene = generate_detection_scenes(spec, 1, seed=7000 + i)
            anchors = synth_detector_outputs(scene, spec, [8000 + i])
            overlaps = iou_matrix(anchors.boxes.mean(axis=1), scene.boxes[:1])
            hits += int((overlaps >= 0.5).sum())
            total += len(anchors)
            draws += len(anchors)
            i += 1
        assert hits / total >= 0.95

    def test_score_samples_in_range_and_class_structure(self):
        spec = self.spec(score_noise=1.0, true_logit=2.0)
        scene = generate_detection_scenes(spec, 1, seed=9)
        scores = synth_detector_outputs(scene, spec, [10]).scores
        assert np.all(scores >= 0)
        assert np.all(scores <= 1)
        # noiseless scores: true class sigmoid(2), off classes sigmoid(-4)
        quiet = self.spec(score_noise=0.0, sigma_box=0.0)
        mean_scores = synth_detector_outputs(scene, quiet, [11]).scores[0].mean(axis=0)
        top = mean_scores.argmax()
        assert mean_scores[top] == pytest.approx(1 / (1 + np.exp(-2)))

    def test_per_class_noise_arrays(self):
        spec = self.spec(sigma_box=np.array([0.0, 5.0, 0.0]),
                         objects_min=1, objects_max=1)
        assert spec.per_class(spec.sigma_box)[1] == 5.0
        np.testing.assert_array_equal(spec.per_class(2.0), [2.0, 2.0, 2.0])

    def test_deterministic(self):
        spec = self.spec()
        scene = generate_detection_scenes(spec, 1, seed=14)
        a = synth_detector_outputs(scene, spec, [15])
        b = synth_detector_outputs(scene, spec, [15])
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.boxes, b.boxes)

    def test_miss_probability_drops_objects(self):
        spec = self.spec(miss_prob=1.0)
        scene = generate_detection_scenes(spec, 1, seed=12)
        assert len(synth_detector_outputs(scene, spec, [13])) == 0
