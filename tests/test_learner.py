"""MC-dropout classifier: training, prediction, gradients, snapshots."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests_support_oracles import analytic_gradients, gradient_check

from sim2real_al.learner import MCDropoutClassifier, TrainConfig, _softmax

ROOT = Path(__file__).resolve().parent.parent


def two_blobs(n=200, sep=6.0, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([rng.normal([0, 0], 1.0, size=(half, 2)),
                   rng.normal([sep, sep], 1.0, size=(n - half, 2))])
    y = np.array([0] * half + [1] * (n - half))
    return x, y


class TestForwardPasses:
    def test_predict_mean_is_simplex(self):
        model = MCDropoutClassifier(4, 16, 3, seed=1)
        probs = model.predict_mean(np.random.default_rng(0).normal(size=(10, 4)))
        assert probs.shape == (10, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_samples_simplexes(self):
        model = MCDropoutClassifier(4, 16, 3, dropout_rate=0.3, seed=1)
        x = np.random.default_rng(0).normal(size=(1, 4))
        samples = model.predict_samples(x, t=25, seed=2)
        assert samples.shape == (1, 25, 3)
        np.testing.assert_allclose(samples.sum(axis=2), 1.0, atol=1e-9)

    def test_no_dropout_means_identical_samples(self):
        model = MCDropoutClassifier(4, 16, 3, dropout_rate=0.0, seed=1)
        samples = model.predict_samples(np.ones((1, 4)), t=10, seed=3)
        assert np.ptp(samples, axis=1).max() == 0.0

    def test_variance_grows_with_dropout_rate(self):
        x = np.random.default_rng(5).normal(size=(1, 4))
        variances = []
        for rate in (0.0, 0.1, 0.5):
            model = MCDropoutClassifier(4, 32, 3, dropout_rate=rate, seed=7)
            samples = model.predict_samples(x, t=1000, seed=11)[0]
            variances.append(samples.var(axis=0).mean())
        assert variances[0] < variances[1] < variances[2]

    def test_predict_mean_matches_sample_average(self):
        """Law of large numbers: 1e4 dropout passes within 2e-2 per class."""
        x, y = two_blobs(seed=3)
        model = MCDropoutClassifier(2, 32, 2, dropout_rate=0.1, seed=2)
        model = model.fit(x, y, TrainConfig(epochs=20, learning_rate=0.2, seed=5))
        probe = np.array([[1.5, 1.5]])
        samples = model.predict_samples(probe, t=10_000, seed=13)
        np.testing.assert_allclose(model.predict_mean(probe),
                                   samples.mean(axis=1), atol=2e-2)

    def test_features_dimension_is_class_count(self):
        model = MCDropoutClassifier(6, 24, 4, seed=0)
        assert model.features(np.ones((1, 6))).shape == (1, 4)
        assert model.features(np.ones((7, 6))).shape == (7, 4)

    def test_batch_shapes(self):
        model = MCDropoutClassifier(3, 8, 2, dropout_rate=0.2, seed=0)
        batch = np.random.default_rng(1).normal(size=(5, 3))
        assert model.predict_samples(batch, t=6, seed=1).shape == (5, 6, 2)


class TestFit:
    def test_separable_blobs_high_accuracy(self):
        x, y = two_blobs(n=200, sep=6.0, seed=1)
        model = MCDropoutClassifier(2, 32, 2, dropout_rate=0.1, seed=1)
        model = model.fit(x, y, TrainConfig(epochs=30, learning_rate=0.2, seed=1))
        acc = (model.predict_mean(x).argmax(axis=1) == y).mean()
        assert acc >= 0.99

    def test_bitwise_deterministic(self):
        x, y = two_blobs(seed=2)
        cfg = TrainConfig(epochs=5, learning_rate=0.1, seed=9)
        base = MCDropoutClassifier(2, 16, 2, seed=4)
        m1, m2 = base.fit(x, y, cfg), base.fit(x, y, cfg)
        for a, b in zip((m1.w1, m1.b1, m1.w2, m1.b2),
                        (m2.w1, m2.b1, m2.w2, m2.b2)):
            np.testing.assert_array_equal(a, b)

    def test_zero_learning_rate_keeps_weights(self):
        x, y = two_blobs(seed=3)
        base = MCDropoutClassifier(2, 16, 2, seed=4)
        trained = base.fit(x, y, TrainConfig(epochs=3, learning_rate=0.0, seed=1))
        np.testing.assert_array_equal(base.w1, trained.w1)
        np.testing.assert_array_equal(base.b2, trained.b2)

    def test_fit_returns_new_model(self):
        x, y = two_blobs(seed=4)
        base = MCDropoutClassifier(2, 16, 2, seed=4)
        w1_before = base.w1.copy()
        base.fit(x, y, TrainConfig(epochs=2, learning_rate=0.3, seed=0))
        np.testing.assert_array_equal(base.w1, w1_before)

    def test_fresh_fit_independent_of_prior_state(self):
        x, y = two_blobs(seed=5)
        cfg = TrainConfig(epochs=4, learning_rate=0.1, seed=21, fine_tune=False)
        a = MCDropoutClassifier(2, 16, 2, seed=1).fit(x, y, cfg)
        warm = MCDropoutClassifier(2, 16, 2, seed=99).fit(
            x, y, TrainConfig(epochs=3, learning_rate=0.5, seed=3))
        b = warm.fit(x, y, cfg)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_fine_tune_continues_from_snapshot(self):
        x, y = two_blobs(seed=6)
        cfg = TrainConfig(epochs=2, learning_rate=0.1, seed=2, fine_tune=True)
        a = MCDropoutClassifier(2, 16, 2, seed=1).fit(x, y, cfg)
        b = MCDropoutClassifier(2, 16, 2, seed=8).fit(x, y, cfg)
        assert not np.array_equal(a.w1, b.w1)

    def test_empty_training_set_rejected(self):
        model = MCDropoutClassifier(2, 8, 2, seed=0)
        with pytest.raises(ValueError, match="empty training set"):
            model.fit(np.empty((0, 2)), np.empty(0, dtype=int),
                      TrainConfig(epochs=1, learning_rate=0.1))

    def test_bad_labels_rejected(self):
        model = MCDropoutClassifier(2, 8, 2, seed=0)
        with pytest.raises(ValueError, match="labels outside"):
            model.fit(np.ones((3, 2)), np.array([0, 1, 2]),
                      TrainConfig(epochs=1, learning_rate=0.1))

    @pytest.mark.parametrize("n_labels", [7, 12])
    def test_label_count_must_match_rows(self, n_labels):
        model = MCDropoutClassifier(2, 8, 2, seed=0)
        x = np.random.default_rng(1).normal(size=(10, 2))
        y = np.arange(n_labels) % 2
        with pytest.raises(ValueError,
                           match=f"^x has 10 rows, but y has {n_labels} labels$"):
            model.fit(x, y, TrainConfig(epochs=1, learning_rate=0.1))

    def test_labels_must_be_one_dimensional(self):
        model = MCDropoutClassifier(2, 8, 2, seed=0)
        with pytest.raises(ValueError, match=r"^y must be a 1-D array of labels, "
                                             r"got shape \(3, 1\)$"):
            model.fit(np.ones((3, 2)), np.zeros((3, 1), dtype=int),
                      TrainConfig(epochs=1, learning_rate=0.1))

    @pytest.mark.parametrize("y", [[0.5, 1.7, 1], [0, 1, 1.5]], ids=["fractions", "one-fraction"])
    def test_fractional_labels_rejected(self, y):
        # truncated to whole labels, these used to train silently
        model = MCDropoutClassifier(2, 8, 2, seed=0)
        with pytest.raises(ValueError, match=r"^labels outside \[0, n_classes\)$"):
            model.fit(np.ones((3, 2)), y, TrainConfig(epochs=1, learning_rate=0.1))

    @pytest.mark.parametrize("t", [2.5, 0, -1, True, [2]])
    def test_pass_count_must_be_a_whole_number(self, t):
        model = MCDropoutClassifier(2, 8, 2, dropout_rate=0.2, seed=0)
        with pytest.raises(ValueError, match=r"^t must be a whole number >= 1, got "):
            model.predict_samples(np.ones((3, 2)), t)

    def test_whole_float_pass_count_accepted(self):
        model = MCDropoutClassifier(2, 8, 2, dropout_rate=0.2, seed=0)
        np.testing.assert_array_equal(model.predict_samples(np.ones((3, 2)), 4.0, seed=1),
                                      model.predict_samples(np.ones((3, 2)), 4, seed=1))

    @pytest.mark.parametrize("call", ["fit", "predict_mean", "predict_samples",
                                      "features"])
    @pytest.mark.parametrize("shape", [(6, 3), (3,), (2,)])
    def test_column_count_must_match_input_dim(self, call, shape):
        """x is one (N, input_dim) batch; a single 1-D row is not one."""
        model = MCDropoutClassifier(2, 8, 2, dropout_rate=0.2, seed=0)
        x = np.ones(shape)
        run = {"fit": lambda: model.fit(x, np.zeros(len(x), dtype=int),
                                        TrainConfig(epochs=1, learning_rate=0.1)),
               "predict_mean": lambda: model.predict_mean(x),
               "predict_samples": lambda: model.predict_samples(x, t=3),
               "features": lambda: model.features(x)}[call]
        with pytest.raises(ValueError, match=rf"^x must be an array of shape \(N, 2\), "
                                             rf"got shape {re.escape(str(shape))}$"):
            run()

    def test_x_of_more_than_two_dimensions_rejected(self):
        model = MCDropoutClassifier(2, 8, 2, seed=0)
        with pytest.raises(ValueError, match=r"^x must be an array of shape \(N, 2\), "
                                             r"got shape \(2, 3, 2\)$"):
            model.predict_mean(np.ones((2, 3, 2)))

    @pytest.mark.parametrize("call", ["fit", "predict_mean", "predict_samples",
                                      "features"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rows_must_be_finite(self, call, bad):
        """A non-finite entry is rejected before any pass: it gave NaN
        scores, or a fit that trained an epoch and then raised on its
        weights."""
        model = MCDropoutClassifier(2, 8, 2, dropout_rate=0.2, seed=0)
        x = np.ones((4, 2))
        x[2, 1] = bad
        run = {"fit": lambda: model.fit(x, np.zeros(len(x), dtype=int),
                                        TrainConfig(epochs=1, learning_rate=0.1)),
               "predict_mean": lambda: model.predict_mean(x),
               "predict_samples": lambda: model.predict_samples(x, t=3),
               "features": lambda: model.features(x)}[call]
        with pytest.raises(ValueError, match="^x must be finite$"):
            run()

    def test_fits_share_no_memory(self):
        """Two fits from one snapshot give equal weights, and neither
        model, nor the snapshot, holds a view of another model's weights
        or of a fit's buffers: each weight array owns its memory."""
        x, y = two_blobs(seed=10)
        cfg = TrainConfig(epochs=3, learning_rate=0.2, batch_size=16, seed=4)
        base = MCDropoutClassifier(2, 16, 2, dropout_rate=0.2, seed=6)
        before = [p.copy() for p in (base.w1, base.b1, base.w2, base.b2)]
        first = base.fit(x, y, cfg)
        kept = [p.copy() for p in (first.w1, first.b1, first.w2, first.b2)]
        second = base.fit(x, y, cfg)
        models = (base, first, second)
        weights = [p for m in models for p in (m.w1, m.b1, m.w2, m.b2)]
        assert all(p.flags.owndata for p in weights)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(weights) for b in weights[i + 1:])
        assert_same_weights(first, second)
        for got, want in zip((first.w1, first.b1, first.w2, first.b2), kept):
            assert np.array_equal(got, want)
        for got, want in zip((base.w1, base.b1, base.w2, base.b2), before):
            assert np.array_equal(got, want)

    def test_non_finite_weights_raise(self):
        x, y = two_blobs(seed=9)
        model = MCDropoutClassifier(2, 16, 2, seed=3)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite weights"):
            model.fit(x, y, TrainConfig(epochs=2, learning_rate=1e308, seed=1))

    def test_weights_stay_finite(self):
        x, y = two_blobs(seed=7)
        model = MCDropoutClassifier(2, 16, 2, seed=3)
        model = model.fit(x, y, TrainConfig(epochs=10, learning_rate=0.5, seed=1))
        for p in (model.w1, model.b1, model.w2, model.b2):
            assert np.all(np.isfinite(p))


def reference_fit(model, x, y, cfg):
    """The per-batch training loop that fit replaced: one fancy-indexed
    gather and one (batch, H) dropout draw per mini-batch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    if cfg.fine_tune:
        model = MCDropoutClassifier(model.input_dim, model.hidden_dim,
                                    model.n_classes, model.dropout_rate,
                                    params=(model.w1, model.b1, model.w2, model.b2))
    else:
        model = MCDropoutClassifier(model.input_dim, model.hidden_dim,
                                    model.n_classes, model.dropout_rate,
                                    seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    keep = 1.0 - model.dropout_rate
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            a1 = np.tanh(xb @ model.w1 + model.b1)
            if model.dropout_rate > 0:
                mask = (rng.random(a1.shape) >= model.dropout_rate) / keep
            else:
                mask = 1.0
            a1d = a1 * mask
            probs = _softmax(a1d @ model.w2 + model.b2)
            dz2 = probs.copy()
            dz2[np.arange(len(yb)), yb] -= 1.0
            dz2 /= len(yb)
            dw2 = a1d.T @ dz2
            db2 = dz2.sum(axis=0)
            da1 = (dz2 @ model.w2.T) * mask * (1.0 - a1 ** 2)
            dw1 = xb.T @ da1
            db1 = da1.sum(axis=0)
            model.w1 -= cfg.learning_rate * dw1
            model.b1 -= cfg.learning_rate * db1
            model.w2 -= cfg.learning_rate * dw2
            model.b2 -= cfg.learning_rate * db2
    return model


def assert_same_weights(a, b):
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFitReference:
    """fit equals the per-batch loop bit for bit: same RNG stream, same
    float operations in the same order."""

    @staticmethod
    def case(n, dim, hidden, n_classes, rate, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim)) * 2.0
        y = rng.integers(0, n_classes, size=n)
        model = MCDropoutClassifier(dim, hidden, n_classes, dropout_rate=rate,
                                    seed=seed + 1)
        return model, x, y

    @pytest.mark.parametrize("fine_tune", [True, False])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("batch_size", [1, 16, 32, "n+5"])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 40, 333])
    def test_matches_per_batch_loop(self, n, batch_size, rate, fine_tune):
        if batch_size == "n+5":
            batch_size = n + 5
        model, x, y = self.case(n, 5, 12, 4, rate, seed=n)
        cfg = TrainConfig(epochs=3, learning_rate=0.3,
                          batch_size=batch_size, seed=7, fine_tune=fine_tune)
        assert_same_weights(model.fit(x, y, cfg),
                            reference_fit(model, x, y, cfg))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 70), dim=st.integers(1, 9),
           hidden=st.integers(1, 20), n_classes=st.integers(1, 6),
           batch_size=st.integers(1, 80), epochs=st.integers(1, 3),
           rate=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
           fine_tune=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_batch_loop_on_random_shapes(
            self, n, dim, hidden, n_classes, batch_size, epochs, rate,
            fine_tune, seed):
        model, x, y = self.case(n, dim, hidden, n_classes, rate, seed)
        cfg = TrainConfig(epochs=epochs, learning_rate=0.2,
                          batch_size=batch_size, seed=seed, fine_tune=fine_tune)
        assert_same_weights(model.fit(x, y, cfg),
                            reference_fit(model, x, y, cfg))

    @pytest.mark.parametrize("fine_tune", [True, False])
    @pytest.mark.parametrize("n", [500, 516, 620])
    def test_matches_per_batch_loop_at_the_sweep_shapes(self, n, fine_tune):
        """d=8, H=64, C=8, batch 32 and rate 0.1, the digits-analog
        shapes; the last batch holds 20, 4 or 12 rows."""
        model, x, y = self.case(n, 8, 64, 8, 0.1, seed=n)
        cfg = TrainConfig(epochs=2, batch_size=32, seed=7, fine_tune=fine_tune)
        assert_same_weights(model.fit(x, y, cfg),
                            reference_fit(model, x, y, cfg))


# One fit at the digits-analog shapes; prints the sha256 of its weights.
FIT_DIGEST = """\
import hashlib
import numpy as np
from sim2real_al.learner import MCDropoutClassifier, TrainConfig
rng = np.random.default_rng(620)
x = rng.normal(size=(620, 8)) * 2.0
y = rng.integers(0, 8, size=620)
model = MCDropoutClassifier(8, 64, 8, dropout_rate=0.1, seed=621)
fitted = model.fit(x, y, TrainConfig(epochs=3, batch_size=32, seed=7))
digest = hashlib.sha256()
for p in (fitted.w1, fitted.b1, fitted.w2, fitted.b2):
    digest.update(p.tobytes())
print(digest.hexdigest())
"""


def test_fit_weights_do_not_depend_on_the_blas_thread_count():
    """The same weights with one BLAS thread and with two."""
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", FIT_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests[threads] = proc.stdout.split()[-1]
    assert digests["1"] == digests["2"], digests


class TestGradients:
    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            model = MCDropoutClassifier(5, 12, 3, seed=seed)
            x = rng.normal(size=(8, 5))
            y = rng.integers(0, 3, size=8)
            assert gradient_check(model, x, y, n_checks=40, seed=seed) < 1e-4

    def test_hand_computed_softmax_gradient(self):
        """dL/dW2 = outer(a1, p - onehot) for a single example."""
        model = MCDropoutClassifier(3, 4, 2, seed=11)
        x = np.array([0.3, -1.2, 0.8])
        y = np.array([1])
        a1 = np.tanh(x @ model.w1 + model.b1)
        logits = a1 @ model.w2 + model.b2
        p = np.exp(logits - logits.max())
        p /= p.sum()
        expected_dw2 = np.outer(a1, p - np.array([0.0, 1.0]))
        grads = analytic_gradients(model, x[None, :], y)
        np.testing.assert_allclose(grads["w2"], expected_dw2, atol=1e-8)

    def test_stationary_point_gradient_near_zero(self):
        # symmetric inputs and balanced labels at a symmetric model
        model = MCDropoutClassifier(2, 4, 2, seed=3)
        model.w2 = np.zeros_like(model.w2)  # uniform outputs everywhere
        model.b2 = np.zeros_like(model.b2)
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([0, 1])  # targets average to the uniform output
        grads = analytic_gradients(model, x, y)
        assert np.abs(grads["w2"]).max() < 1e-12
        assert np.abs(grads["b2"]).max() < 1e-12


class TestSnapshot:
    def test_params_rebuild_bit_exact(self):
        """A model rebuilt from a trained snapshot's sizes and weights
        holds the same weights bit for bit."""
        x, y = two_blobs(seed=8)
        model = MCDropoutClassifier(2, 16, 2, dropout_rate=0.25, seed=5)
        model = model.fit(x, y, TrainConfig(epochs=3, learning_rate=0.2, seed=7))
        rebuilt = MCDropoutClassifier(
            model.input_dim, model.hidden_dim, model.n_classes,
            dropout_rate=model.dropout_rate,
            params=(model.w1, model.b1, model.w2, model.b2))
        assert (rebuilt.input_dim, rebuilt.hidden_dim, rebuilt.n_classes) == (2, 16, 2)
        assert rebuilt.dropout_rate == 0.25
        for a, b in zip((model.w1, model.b1, model.w2, model.b2),
                        (rebuilt.w1, rebuilt.b1, rebuilt.w2, rebuilt.b2)):
            np.testing.assert_array_equal(a, b)
