"""Synthetic paired sim/real data with controllable domain shift.

Classification track: Gaussian-mixture domains where the "real" domain
differs from the "sim" one by a mean translation (covariate shift)
and/or skewed class priors (label shift), independently switchable.

Detection track: random scenes of ground-truth boxes plus a generator
of anchor-level Monte-Carlo detector outputs (noisy box samples and
sigmoid score samples), standing in for a BNN detector head so the
fusion/acquisition stack can run without training an actual detector.
A batch of scenes is one Scenes value: every object's class and box in
flat arrays, with offsets that mark the scenes, as Anchors marks images.

Everything is a pure function of (spec, seed).  Each detection scene
draws from its own numpy stream: scene i of generate_detection_scenes
has the stream of default_rng of the i-th child SeedSequence(seed)
would spawn next, and scene i of synth_detector_outputs that of
default_rng(SeedSequence([*prefix, keys[i]])).  Neither builds those
objects: _keyed_generators computes SeedSequence's hash and PCG64's
seeding for a whole batch at once and loads each scene's state into one
reused Generator, so the draws are numpy's own, bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .fusion import Anchors, Ragged
from .rules import (RuleError, at_least, check, checked, count, finite_nonneg,
                    finite_positive, hold, labels, positive, rising, shaped, unit_interval,
                    whole)


def _class_priors(priors, n_classes: int) -> np.ndarray:
    """priors as n_classes floats >= 0 that sum to 1; uniform for None."""
    if priors is None:
        return np.full(n_classes, 1.0 / n_classes)
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (n_classes,) or not np.all(priors >= 0):
        raise ValueError("class_priors must be n_classes values >= 0")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError("class_priors must sum to 1")
    return priors


@dataclass
class ClassificationDomainSpec:
    """A Gaussian-mixture domain: one isotropic blob per class."""

    class_means: np.ndarray          # (C, d)
    cov_scale: float = checked(1.0, finite_positive)
    class_priors: np.ndarray = None  # uniform when omitted

    def __post_init__(self):
        self.class_means = np.atleast_2d(np.asarray(self.class_means, dtype=float))
        if not self.class_means.size:
            raise RuleError("class_means", "class_means must be a non-empty "
                            "(n_classes, dim) array")
        check(self)
        self.class_priors = _class_priors(self.class_priors, self.class_means.shape[0])

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]


def shifted_domain(spec: ClassificationDomainSpec, translation=None,
                   priors=None) -> ClassificationDomainSpec:
    """Derive a shifted domain: translate all class means and/or replace priors."""
    means = spec.class_means
    if translation is not None:
        means = means + np.asarray(translation, dtype=float)
    new_priors = spec.class_priors if priors is None else np.asarray(priors, dtype=float)
    return ClassificationDomainSpec(class_means=means, cov_scale=spec.cov_scale,
                                    class_priors=new_priors)


def skewed_priors(n_classes: int, skew: float) -> np.ndarray:
    """Power-law priors p_c proportional to (c+1)^-skew; skew 0 is uniform."""
    n_classes = count(n_classes, "n_classes")
    hold(finite_nonneg, skew, "skew")
    raw = (np.arange(n_classes) + 1.0) ** (-skew)
    return raw / raw.sum()


def grid_class_means(n_classes: int, dim: int, separation: float) -> np.ndarray:
    """Well-separated means: one-hot directions scaled by `separation`."""
    if dim < n_classes:
        raise ValueError("dim must be >= n_classes for one-hot class means")
    means = np.zeros((n_classes, dim))
    means[np.arange(n_classes), np.arange(n_classes)] = separation
    return means


def generate_classification(spec: ClassificationDomainSpec, n: int,
                            seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw n labeled points: class from priors, point from its Gaussian.

    Returns the (n, d) points and their (n,) integer labels.
    """
    n = count(n, "n")
    rng = np.random.default_rng(seed)
    y = rng.choice(spec.n_classes, size=n, p=spec.class_priors)
    noise = rng.standard_normal((n, spec.dim)) * np.sqrt(spec.cov_scale)
    return spec.class_means[y] + noise, y


# ---------------------------------------------------------------------------
# detection track
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenes(Ragged):
    """Ground truth of one or more scenes, in the Ragged layout: classes
    (n,) ids >= 0 and boxes (n, 4), each finite (rules.shaped), hold one
    row per object, and scene i holds objects offsets[i]:offsets[i + 1].
    len() is n."""

    classes: np.ndarray
    boxes: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        classes = whole(self.classes)
        if classes is None or classes.ndim != 1 or np.any(classes < 0):
            raise ValueError("classes must be (n,) class ids >= 0")
        boxes = shaped(self.boxes, "boxes", (len(classes), 4))
        self._set(classes=classes, boxes=boxes, offsets=rising(self.offsets, len(classes), "object"))


@dataclass
class SceneGeometry:
    """What a valid detection scene is: n_classes classes in a width x
    height extent, objects_min..objects_max objects per scene, box sides
    in [box_min, box_max], and anchors_per_object anchors of mc_samples
    samples each per detected object.

    Each field keeps its declared rules; then objects_min must lie in
    [0, objects_max], box_max must fit the extent, and box_min must lie
    in (0, box_max].  Every failure is a RuleError naming its field.
    """

    n_classes: int = checked(3, at_least(1))
    width: float = checked(128.0, finite_positive)
    height: float = checked(128.0, finite_positive)
    objects_min: int = 1
    objects_max: int = checked(3, at_least(0))
    box_min: float = 24.0
    box_max: float = checked(48.0, positive)
    anchors_per_object: int = checked(3, at_least(1))
    mc_samples: int = checked(10, at_least(1))

    def __post_init__(self):
        check(self)
        if not (0 <= self.objects_min <= self.objects_max):
            raise RuleError("objects_min", "objects_min must lie in [0, objects_max]")
        if not self.box_max <= min(self.width, self.height):
            raise RuleError("box_max", "box_max must be <= min(width, height)")
        if not (0 < self.box_min <= self.box_max):
            raise RuleError("box_min", "box_min must lie in (0, box_max]")


@dataclass
class DetectionSceneSpec(SceneGeometry):
    """Scene geometry plus class priors and detector-output noise knobs.

    class_priors defaults to uniform.  Each noise field is one finite
    number or n_classes of them, so a caller can degrade specific
    classes (the sim-to-real surrogate uses this to model per-class
    skill); miss_prob lies in [0, 1].  Every failure is a RuleError
    naming its field.
    """

    class_priors: np.ndarray = None
    sigma_box: object = 1.0          # scalar or (C,) pixels
    score_noise: object = 0.5        # scalar or (C,) logit-space sigma
    true_logit: object = 2.0         # scalar or (C,) true-class logit mean
    off_logit: float = -4.0          # off-class logit mean (kept negative)
    miss_prob: object = 0.0          # scalar or (C,) chance an object yields no anchors

    def __post_init__(self):
        super().__post_init__()
        self.class_priors = _class_priors(self.class_priors, self.n_classes)
        for name in ("sigma_box", "score_noise", "true_logit", "off_logit", "miss_prob"):
            try:
                value = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError, OverflowError):
                value = None
            if (value is None or value.shape not in ((), (self.n_classes,))
                    or not all(map(math.isfinite, value.ravel().tolist()))):
                raise RuleError(name, f"{name} must be one finite number or n_classes of them")
        unit_interval(np.asarray(self.miss_prob, dtype=float), "miss_prob")

    def per_class(self, value) -> np.ndarray:
        arr = np.broadcast_to(np.asarray(value, dtype=float), (self.n_classes,))
        return np.array(arr)


# SeedSequence's hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding (pcg64.h), both fixed by NEP 19
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG_MULT = 0x2360ed051fc65da44385df649fccf645


def _words(values) -> list[int]:
    """The 32-bit words SeedSequence makes of a sequence of non-negative
    ints: each one little-endian, 0 as one zero word."""
    words = []
    for value in values:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"seed entropy {value} is negative")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words


def _keyed_generators(words, keys, pool_size: int = 4):
    """Yield one Generator per key: for key k, the stream of
    default_rng(SeedSequence(entropy)) where entropy is the 32-bit
    `words` followed by k.

    SeedSequence's mix_entropy and generate_state(4, uint64) run once
    per batch: the hash constants do not depend on the data, so a value
    that the key does not reach yet is one Python int, and only values
    the key has reached are (n,) uint32 columns.  The 8 output words
    are one (8, n) product.  Each state then becomes PCG64's seeded
    (state, inc) and is loaded into the same Generator, which is only
    valid until the next one is yielded.
    """
    keys = [operator.index(k) for k in keys]
    for key in keys:
        if not 0 <= key <= _MASK32:
            raise ValueError(f"scene key {key} does not fit one 32-bit word")
    entropy = [*words, np.array(keys, dtype=np.uint32)]
    entropy += [0] * (pool_size - len(entropy))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = _word(value * hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _word(_word(_MIX_MULT_L * x) - _word(_MIX_MULT_R * y))
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:pool_size]]
    for i_src in range(pool_size):
        for i_dst in range(pool_size):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[pool_size:]:
        for i_dst in range(pool_size):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # every pool word has mixed in the key, so each is an (n,) column
    state = np.stack(pool)[np.arange(8) % pool_size]
    state ^= _STATE_XOR
    state *= _STATE_MULT
    state ^= state >> 16
    rng = np.random.Generator(np.random.PCG64())
    for s0, s1, q0, q1 in np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128,
                      "inc": inc}}
        yield rng


def _word(value):
    """value mod 2**32: uint32 columns wrap by themselves, Python ints do not."""
    return value & _MASK32 if isinstance(value, int) else value


def _state_constants():
    """generate_state's per-word xor and multiplier, as (8, 1) columns."""
    xor, mult, hash_const = [], [], _INIT_B
    for _ in range(8):
        xor.append(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        mult.append(hash_const)
    return (np.array(xor, dtype=np.uint32)[:, None],
            np.array(mult, dtype=np.uint32)[:, None])


_STATE_XOR, _STATE_MULT = _state_constants()


def _child_generators(seed, n: int):
    """_keyed_generators for the next n children that SeedSequence(seed),
    or `seed` itself when it is one, would spawn; `seed` is not advanced.

    A child's entropy is its parent's entropy words, zero-padded to the
    pool size, then the words of its spawn_key: the parent's spawn_key
    and the child's index.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    entropy = ss.entropy
    words = _words([entropy] if isinstance(entropy, (int, np.integer)) else entropy)
    words += [0] * (ss.pool_size - len(words))
    first = ss.n_children_spawned
    return _keyed_generators(words + _words(ss.spawn_key), range(first, first + n),
                             ss.pool_size)


def generate_detection_scenes(spec: DetectionSceneSpec, n: int, seed) -> Scenes:
    """n random scenes with object counts, classes and boxes from the spec.

    A scene holds objects_min..objects_max objects, each of a class
    drawn from class_priors and with a width and height uniform in
    [box_min, box_max], placed wholly inside the width x height extent.
    Scene i draws from the stream of the i-th child that
    SeedSequence(seed) (or `seed` itself, when it is one) would spawn
    next; `seed` is read, not advanced.  Per scene: the object count,
    one uniform per object for its class, then per object the width,
    height and both lower corners, as Generator.integers, .choice and
    .uniform would draw them.
    """
    n = count(n, "n")
    counts, draws = [], []
    for rng in _child_generators(seed, n):
        n_obj = int(rng.integers(spec.objects_min, spec.objects_max + 1))
        counts.append(n_obj)
        # one uniform per object's class, then per object w, h, x0, y0
        draws.append(rng.random(5 * n_obj))
    cdf = spec.class_priors.cumsum()
    cdf /= cdf[-1]
    classes = cdf.searchsorted(np.concatenate([d[:k] for d, k in zip(draws, counts)]),
                               side="right")
    u = np.concatenate([d[k:] for d, k in zip(draws, counts)]).reshape(-1, 2, 2)
    smin, smax = spec.box_min, spec.box_max
    size = smin + (smax - smin) * u[:, 0]                            # uniform(smin, smax)
    corner = (np.array([spec.width, spec.height]) - size) * u[:, 1]  # uniform(0, extent - size)
    return Scenes(classes=classes, boxes=np.concatenate([corner, corner + size], axis=1),
                  offsets=np.cumsum([0] + counts))


def synth_detector_outputs(scenes: Scenes, spec: DetectionSceneSpec, keys,
                           prefix=()) -> Anchors:
    """Anchor-level MC outputs of a batch of scenes, one image per scene.

    Scene i draws from its own stream, that of
    default_rng(SeedSequence([*prefix, keys[i]])): the prefix (any
    non-negative ints) is shared by the batch, and each key is one
    32-bit word, so a scene's anchors depend on its key and not on the
    rest of the batch.  With the default empty prefix, key k gives the
    stream of default_rng(k).  Per ground-truth
    object, in order, it draws one uniform for the per-class miss
    probability (only where that is > 0; a missed object yields no
    anchors) and, for a surviving object, one standard_normal((m,
    T * (4 + C))) block: per anchor, T x 4 box jitter, then T x C score
    noise.  Then, once over every anchor of the batch, each anchor's T
    box samples are the ground-truth corners plus jitter (corners
    re-ordered if the jitter inverts them) and its T score vectors the
    sigmoid of the true-class / off-class logits plus noise.  Noisier
    spec values raise the downstream classification and regression
    entropies.  Returns one Anchors whose offsets mark the scenes.
    """
    keys = list(keys)
    if scenes.n_images != len(keys):
        raise ValueError(f"need one seed per scene, got {len(keys)} seeds "
                         f"for {scenes.n_images} scenes")
    sigma_box = spec.per_class(spec.sigma_box)
    score_noise = spec.per_class(spec.score_noise)
    true_logit = spec.per_class(spec.true_logit)
    miss_prob = spec.per_class(spec.miss_prob).tolist()
    t, m, c = spec.mc_samples, spec.anchors_per_object, spec.n_classes

    classes, bounds = labels(scenes.classes, c).tolist(), scenes.offsets.tolist()
    draws = np.empty((len(scenes), m, t * (4 + c)))
    kept = np.zeros(len(scenes), dtype=bool)
    n_kept = 0
    for lo, hi, rng in zip(bounds, bounds[1:], _keyed_generators(_words(prefix), keys)):
        for obj in range(lo, hi):
            cls = classes[obj]
            if not (miss_prob[cls] > 0 and rng.random() < miss_prob[cls]):
                rng.standard_normal(out=draws[n_kept])
                kept[obj] = True
                n_kept += 1
    draws, cls, box = draws[:n_kept], scenes.classes[kept], scenes.boxes[kept]

    jitter = draws[..., :4 * t].reshape(n_kept, m, t, 4)
    samples = box[:, None, None, :] + jitter * sigma_box[cls][:, None, None, None]
    x_lo = np.minimum(samples[..., 0], samples[..., 2] - 1e-3)
    x_hi = np.maximum(samples[..., 2], samples[..., 0] + 1e-3)
    y_lo = np.minimum(samples[..., 1], samples[..., 3] - 1e-3)
    y_hi = np.maximum(samples[..., 3], samples[..., 1] + 1e-3)
    boxes = np.stack([x_lo, y_lo, x_hi, y_hi], axis=-1)
    logits = np.full((n_kept, c), spec.off_logit)
    logits[np.arange(n_kept), cls] = true_logit[cls]
    noise = draws[..., 4 * t:].reshape(n_kept, m, t, c)
    logits = logits[:, None, None, :] + noise * score_noise[cls][:, None, None, None]
    scores = 1.0 / (1.0 + np.exp(-logits))
    return Anchors(scores=scores.reshape(n_kept * m, t, c),
                   boxes=boxes.reshape(n_kept * m, t, 4),
                   offsets=m * np.concatenate(([0], np.cumsum(kept)))[scenes.offsets])
