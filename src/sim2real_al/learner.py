"""Desk-scale MC-dropout classifier and its training loop.

A single-hidden-layer tanh network trained with plain mini-batch
gradient descent on cross-entropy.  Dropout (fresh Bernoulli masks on
the hidden activations, inverted scaling) stays active during training
and during the stochastic predictive passes, which approximate the
Bayesian predictive distribution by Monte-Carlo integration.

Models are treated as immutable snapshots: fit returns a new instance,
so a snapshot can be scored concurrently while the next one trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import at_least, check, checked, count, finite, hold, in_interval, labels, shaped

# the one rule of every dropout_rate: the learner's and the experiment config's
DROPOUT_RATE = in_interval(0, 1, "[)")


@dataclass
class TrainConfig:
    epochs: int = checked(60, at_least(1))
    learning_rate: float = checked(0.15, finite)
    batch_size: int = checked(32, at_least(1))
    seed: int = 0
    fine_tune: bool = True

    __post_init__ = check


class MCDropoutClassifier:
    """input_dim -> hidden_dim (tanh, dropout) -> n_classes (softmax)."""

    def __init__(self, input_dim: int, hidden_dim: int = 64, n_classes: int = 2,
                 dropout_rate: float = 0.1, seed: int = 0, params=None):
        hold(DROPOUT_RATE, dropout_rate, "dropout_rate")
        self.input_dim = count(input_dim, "input_dim")
        self.hidden_dim = count(hidden_dim, "hidden_dim")
        self.n_classes = count(n_classes, "n_classes")
        self.dropout_rate = dropout_rate
        if params is not None:
            d, h, c = self.input_dim, self.hidden_dim, self.n_classes
            dims = {"w1": (d, h), "b1": (h,), "w2": (h, c), "b2": (c,)}
            if len(params) != len(dims):
                raise ValueError("params must hold w1, b1, w2 and b2")
            self.w1, self.b1, self.w2, self.b2 = [
                np.array(shaped(p, name, shape)) for p, (name, shape) in zip(params, dims.items())]
        else:
            rng = np.random.default_rng(seed)
            s1 = 1.0 / np.sqrt(input_dim)
            s2 = 1.0 / np.sqrt(hidden_dim)
            self.w1 = rng.uniform(-s1, s1, size=(input_dim, hidden_dim))
            self.b1 = rng.uniform(-s1, s1, size=hidden_dim)
            self.w2 = rng.uniform(-s2, s2, size=(hidden_dim, n_classes))
            self.b2 = rng.uniform(-s2, s2, size=n_classes)

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------

    def _hidden(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self.w1 + self.b1)

    def _inputs(self, x) -> np.ndarray:
        """x as a float (N, input_dim) array: a batch of N rows, each
        entry finite ('x must be finite')."""
        return shaped(x, "x", ("N", self.input_dim))

    def features(self, x) -> np.ndarray:
        """(N, C) pre-softmax logits (dropout off); the selection feature space."""
        return self._hidden(self._inputs(x)) @ self.w2 + self.b2

    def predict_mean(self, x) -> np.ndarray:
        """(N, C) deterministic softmax outputs with dropout disabled."""
        return _softmax(self._hidden(self._inputs(x)) @ self.w2 + self.b2)

    def predict_samples(self, x, t: int, seed: int = 0) -> np.ndarray:
        """(N, T, C): T stochastic softmax passes with fresh dropout masks.

        The same T masks apply to every input row, i.e. the passes play
        the role of T shared posterior weight samples.
        """
        t = count(t, "t")
        x2 = self._inputs(x)
        if self.dropout_rate == 0:
            # no stochasticity: every pass equals the deterministic one
            one = _softmax(self._hidden(x2) @ self.w2 + self.b2)
            return np.repeat(one[:, None, :], t, axis=1)
        hidden = self._hidden(x2)                       # (N, H)
        rng = np.random.default_rng(seed)
        masks = (rng.random((t, self.hidden_dim)) >= self.dropout_rate)
        masks = masks / (1.0 - self.dropout_rate)       # (T, H)
        dropped = hidden[:, None, :] * masks[None, :, :]  # (N, T, H)
        return _softmax(dropped @ self.w2 + self.b2)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def fit(self, x, y, cfg: TrainConfig) -> "MCDropoutClassifier":
        """Mini-batch gradient descent on cross-entropy, dropout active.

        fine_tune continues from this snapshot's weights; otherwise the
        weights reinitialize from cfg.seed, making the result
        independent of the incoming state.  Returns a new model.

        Each epoch draws one permutation and then, in one call, the
        dropout uniforms of all its batches: Generator.random fills an
        (n, H) array from the same stream, one double per output, that
        per-batch (batch, H) draws would take in turn.

        A step runs the float operations of the textbook step in the
        same order, so the weights are the same bit for bit, but it
        allocates nothing.  Buffers made once per fit hold the epoch's
        permuted rows and one-hot targets (gathered with np.take), its
        dropout masks, and each step's activations, softmax and
        gradients; every batch's slices of them, and the transposes its
        gradients need, are views made once per fit too.  The softmax
        row max and row sum go to one (rows, 1) column, and the bias
        gradients are np.add.reduce over the batch, the reduction
        np.sum would run.  The weights and their gradients are views of
        one flat vector each, so an update is two calls.

        The five products of a step go through np.dot, not np.matmul:
        on 2-D operands both make the same BLAS call with the same
        transpose flags, and np.dot skips the gufunc dispatch, about
        1 us a product at (batch 32, H 64).  The masks are built in
        place: the uniforms become keep flags (1.0 or 0.0) and are
        then scaled by 1/(1 - rate), the double that dividing a keep
        flag by (1 - rate) gives.
        """
        x = self._inputs(x)
        n = x.shape[0]
        y = labels(y, self.n_classes, rows=n)
        if n == 0:
            raise ValueError("empty training set")

        start = self if cfg.fine_tune else MCDropoutClassifier(
            self.input_dim, self.hidden_dim, self.n_classes, self.dropout_rate,
            seed=cfg.seed)
        shapes = [p.shape for p in (start.w1, start.b1, start.w2, start.b2)]
        params = np.concatenate([start.w1.ravel(), start.b1,
                                 start.w2.ravel(), start.b2])
        grads = np.empty_like(params)
        w1, b1, w2, b2 = _unflatten(params, shapes)
        dw1, db1, dw2, db2 = _unflatten(grads, shapes)
        w2t = w2.T

        rng = np.random.default_rng(cfg.seed)
        h = self.hidden_dim
        rate, lr = self.dropout_rate, cfg.learning_rate
        scale = 1.0 / (1.0 - rate)
        targets = np.eye(self.n_classes)[y]
        rows = min(cfg.batch_size, n)
        xe, te = np.empty_like(x), np.empty_like(targets)
        masks = np.empty((n, h))
        hidden = np.empty((rows, h))
        dropped = np.empty_like(hidden) if rate > 0 else hidden  # a1 * 1.0 == a1
        grad_hidden = np.empty_like(hidden)
        probs = np.empty((rows, self.n_classes))
        column = np.empty((rows, 1))
        steps = []
        for lo in range(0, n, cfg.batch_size):
            hi = min(lo + cfg.batch_size, n)
            m = hi - lo
            xb, a1, a1d = xe[lo:hi], hidden[:m], dropped[:m]
            steps.append((m, xb, xb.T, te[lo:hi], masks[lo:hi], a1, a1d, a1d.T,
                          probs[:m], grad_hidden[:m], column[:m]))
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            np.take(x, order, axis=0, out=xe)
            np.take(targets, order, axis=0, out=te)
            if rate > 0:
                rng.random((n, h), out=masks)
                np.greater_equal(masks, rate, out=masks)
                masks *= scale
            for m, xb, xbt, tb, mask, a1, a1d, a1dt, dz2, da1, col in steps:
                np.dot(xb, w1, out=a1)
                a1 += b1
                np.tanh(a1, out=a1)
                if rate > 0:
                    np.multiply(a1, mask, out=a1d)
                # softmax, then dz2 = softmax - one_hot (p - 0.0 == p)
                np.dot(a1d, w2, out=dz2)
                dz2 += b2
                np.maximum.reduce(dz2, axis=1, keepdims=True, out=col)
                dz2 -= col
                np.exp(dz2, out=dz2)
                np.add.reduce(dz2, axis=1, keepdims=True, out=col)
                dz2 /= col
                dz2 -= tb
                dz2 /= m
                np.dot(a1dt, dz2, out=dw2)
                np.add.reduce(dz2, axis=0, out=db2)
                np.dot(dz2, w2t, out=da1)
                if rate > 0:
                    da1 *= mask
                np.multiply(a1, a1, out=a1)      # a1d is no longer read
                np.subtract(1.0, a1, out=a1)
                da1 *= a1
                np.dot(xbt, da1, out=dw1)
                np.add.reduce(da1, axis=0, out=db1)
                grads *= lr
                params -= grads
            if not np.all(np.isfinite(params)):
                raise FloatingPointError("training produced non-finite weights")
        return MCDropoutClassifier(self.input_dim, self.hidden_dim,
                                   self.n_classes, self.dropout_rate,
                                   params=(w1, b1, w2, b2))


def _unflatten(flat: np.ndarray, shapes) -> list:
    """Consecutive views of a flat vector in the given shapes."""
    views, at = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)

