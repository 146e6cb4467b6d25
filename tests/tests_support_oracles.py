"""Test oracles that the package itself does not need.

`covering_radius` is the k-center objective that greedy `coreset`
selection approximates within a factor of two.  `analytic_gradients`
and `gradient_check` compare the classifier's backward pass with
central finite differences of `cross_entropy_loss`.  `raised_in_package`
tells an error the package raised from one numpy raised.
"""

from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from sim2real_al.learner import MCDropoutClassifier, _softmax


def covering_radius(pool_features, center_ids, labeled_features=None) -> float:
    """Max over pool points of the distance to its nearest center.

    Used as the k-center objective; centers are pool rows given by id
    plus any labeled features.
    """
    pool = np.atleast_2d(np.asarray(pool_features, dtype=float))
    centers = [pool[list(center_ids)]] if len(center_ids) else []
    if labeled_features is not None and np.asarray(labeled_features).size:
        centers.append(np.atleast_2d(np.asarray(labeled_features, dtype=float)))
    if not centers:
        raise ValueError("need at least one center")
    stacked = np.vstack(centers)
    return float(cdist(pool, stacked).min(axis=1).max())


def cross_entropy_loss(model: MCDropoutClassifier, x, y) -> float:
    """Mean cross-entropy with dropout off (for gradient checking)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    probs = model.predict_mean(x)
    probs = np.atleast_2d(probs)
    return float(-np.log(probs[np.arange(len(y)), y] + 1e-300).mean())


def analytic_gradients(model: MCDropoutClassifier, x, y):
    """Full-batch cross-entropy gradients with dropout off."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    a1 = np.tanh(x @ model.w1 + model.b1)
    probs = _softmax(a1 @ model.w2 + model.b2)
    dz2 = probs.copy()
    dz2[np.arange(len(y)), y] -= 1.0
    dz2 /= len(y)
    dw2 = a1.T @ dz2
    db2 = dz2.sum(axis=0)
    da1 = (dz2 @ model.w2.T) * (1.0 - a1 ** 2)
    dw1 = x.T @ da1
    db1 = da1.sum(axis=0)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def gradient_check(model: MCDropoutClassifier, x, y, n_checks: int = 40,
                   step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error of analytic vs central finite-difference grads.

    Dropout is disabled for the check; a random subset of weight
    coordinates across all four parameter tensors is probed.
    """
    grads = analytic_gradients(model, x, y)
    rng = np.random.default_rng(seed)
    names = ["w1", "b1", "w2", "b2"]
    worst = 0.0
    for _ in range(n_checks):
        name = names[rng.integers(len(names))]
        param = getattr(model, name)
        flat_idx = rng.integers(param.size)
        idx = np.unravel_index(flat_idx, param.shape)
        orig = param[idx]
        param[idx] = orig + step
        loss_plus = cross_entropy_loss(model, x, y)
        param[idx] = orig - step
        loss_minus = cross_entropy_loss(model, x, y)
        param[idx] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = grads[name][idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-5)
        worst = max(worst, rel)
    return worst


def raised_in_package(excinfo) -> bool:
    """The exception was raised by the package's own code, not by numpy."""
    tb = excinfo.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return "sim2real_al" in Path(tb.tb_frame.f_code.co_filename).parts
