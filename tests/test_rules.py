"""Declared value rules: the library's error contract, an out-of-range
config property derived from the rule table, and byte damage to config
files under `run`."""

import importlib
import inspect
import itertools
import math
import pkgutil
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import SMALL_CLS, SMALL_DET, damaged
from test_sampling import six_selectors
from tests_support_oracles import raised_in_package

import sim2real_al
from sim2real_al import cli, fusion
from sim2real_al import loop as al
from sim2real_al.acquisition import AcquisitionConfig, categorical_entropy, score_image
from sim2real_al.fusion import (Detections, fuse_categorical, fuse_gaussian, iou_matrix,
                                mc_statistics)
from sim2real_al.learner import MCDropoutClassifier, TrainConfig
from sim2real_al.rules import RuleError
from sim2real_al.sampling import (SelectionConfig, select_batchbald, select_clue,
                                  select_coreset, select_subsample_topn, select_topn)
from sim2real_al.synthdata import (ClassificationDomainSpec, DetectionSceneSpec, Scenes,
                                   generate_classification, grid_class_means,
                                   shifted_domain, skewed_priors, synth_detector_outputs)

BASES = {"classification": SMALL_CLS, "detection": SMALL_DET}

# the classes whose fields carry rules, each with a constructor that
# fills any field without a default
CHECKED = {
    AcquisitionConfig: AcquisitionConfig,
    TrainConfig: TrainConfig,
    SelectionConfig: SelectionConfig,
    al.ALRunConfig: al.ALRunConfig,
    al.ClassificationExperimentSpec: al.ClassificationExperimentSpec,
    al.DetectionExperimentSpec: al.DetectionExperimentSpec,
    # SurrogateParams alone is permissive: its rules are checked as
    # `surrogate.<field>` by the detection spec that holds it
    al.SurrogateParams: lambda **kw: al.DetectionExperimentSpec(
        surrogate=al.SurrogateParams(**kw)),
    ClassificationDomainSpec: lambda **kw: ClassificationDomainSpec(
        class_means=np.eye(2), **kw),
    DetectionSceneSpec: DetectionSceneSpec,
}
NESTED = {f.name for f in fields(al.DetectionExperimentSpec) if f.metadata.get("nested")}

# the rules that compare two fields: a value breaking only that rule,
# the section and field it blames, and its message
CROSS_FIELD = [
    (lambda: al.ClassificationExperimentSpec(n_classes=4, dim=3), "dataset.dim",
     "dim must be >= n_classes"),
    (lambda: al.DetectionExperimentSpec(objects_min=4), "dataset.objects_min",
     "objects_min must lie in [0, objects_max]"),
    (lambda: al.DetectionExperimentSpec(width=40.0), "dataset.box_max",
     "box_max must be <= min(width, height)"),
    (lambda: al.DetectionExperimentSpec(box_min=60.0), "dataset.box_min",
     "box_min must lie in (0, box_max]"),
    (lambda: al.ALRunConfig(selection=SelectionConfig(strategy="batchbald"), mc_passes=1),
     "loop.mc_passes",
     "mc_passes must be >= 2 for batchbald, whose mutual information needs two samples"),
]
CROSS_BLAMED = {key for _, key, _ in CROSS_FIELD}

# a scene geometry value outside a field rule or a cross-field rule
BAD_GEOMETRY = [
    dict(n_classes=0), dict(width=0.0), dict(width=math.nan), dict(height=math.inf),
    dict(height=-1.0), dict(objects_min=-1), dict(objects_min=4), dict(objects_max=-1),
    dict(box_min=0.0), dict(box_min=math.nan), dict(box_min=60.0), dict(box_max=0.0),
    dict(box_max=math.nan), dict(box_max=math.inf), dict(box_max=200.0), dict(width=40.0),
    dict(anchors_per_object=0), dict(mc_samples=0),
]


def rules_of(cls) -> list:
    return [(f.name, rule) for f in fields(cls) for rule in f.metadata.get("rules", ())]


# rule kind -> (*rule args) -> one value outside the rule
ONE_BAD_VALUE = {
    "at_least": lambda n: n - 1,
    "positive": lambda: 0,
    "finite": lambda: math.nan,
    "finite_positive": lambda: 0.0,
    "finite_nonneg": lambda: -1.0,
    "in_interval": lambda lo, hi, ends: hi + 1,
    "one_of": lambda options: "wobble",
}


SINGLE_FIELD = [(cls, name, rule) for cls in CHECKED for name, rule in rules_of(cls)]


class TestErrorContract:
    @pytest.mark.parametrize("cls, name, rule", SINGLE_FIELD,
                             ids=[f"{c.__name__}.{n}-{r.kind}" for c, n, r in SINGLE_FIELD])
    def test_single_field_rule_names_its_field(self, cls, name, rule):
        """A value outside one field's rule raises RuleError, a ValueError
        carrying the field, with the rule's message."""
        value = ONE_BAD_VALUE[rule.kind](*rule.args)
        field = f"surrogate.{name}" if cls is al.SurrogateParams else name
        message = rule.text.format(name=field, value=value)
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            CHECKED[cls](**{name: value})
        assert type(info.value) is RuleError
        assert (info.value.field, str(info.value)) == (field, message)

    @pytest.mark.parametrize("build, key, message", CROSS_FIELD,
                             ids=[key for _, key, _ in CROSS_FIELD])
    def test_cross_field_rule_names_the_blamed_field(self, build, key, message):
        with pytest.raises(RuleError) as info:
            build()
        assert (info.value.field, str(info.value)) == (key.split(".")[1], message)

    @pytest.mark.parametrize("bad", BAD_GEOMETRY, ids=[",".join(f"{k}={v}" for k, v in bad.items())
                                                      for bad in BAD_GEOMETRY])
    def test_both_detection_specs_share_the_geometry_rules(self, bad):
        """The library's scene spec and the config's experiment spec
        raise the same RuleError, field and message, for bad geometry."""
        errors = []
        for spec in (DetectionSceneSpec, al.DetectionExperimentSpec):
            with pytest.raises(RuleError) as info:
                spec(**bad)
            errors.append((info.value.field, str(info.value)))
        assert errors[0] == errors[1]

    CURVE = al.LearningCurve(points=[], sim_perf=0.5, real_perf=0.9, strategy="topn",
                             seed=0, level=0.95)
    SHARED = {
        "dropout_rate": (lambda v: MCDropoutClassifier(2, dropout_rate=v),
                         lambda v: al.ClassificationExperimentSpec(dropout_rate=v),
                         (-0.1, 1.0, math.nan)),
        "level": (lambda v: al.gap_report(replace(TestErrorContract.CURVE, level=v)),
                  lambda v: al.ALRunConfig(level=v), (0.0, 1.5, math.nan)),
    }

    @pytest.mark.parametrize("name", sorted(SHARED))
    def test_function_and_config_share_one_rule(self, name):
        """The learner and gap_report raise the RuleError of the config
        field that declares the same condition."""
        function, config, values = self.SHARED[name]
        for value in values:
            errors = []
            for build in (function, config):
                with pytest.raises(RuleError) as info:
                    build(value)
                errors.append((info.value.field, str(info.value)))
            assert errors[0] == errors[1]

    def test_every_iou_threshold_default_is_the_fusion_default(self):
        """Each iou_threshold default in the package is the object
        fusion.DEFAULT_IOU_THRESHOLD, not a literal of its own."""
        found = {}
        for info in pkgutil.iter_modules(sim2real_al.__path__):
            module = importlib.import_module(f"sim2real_al.{info.name}")
            for owner in vars(module).values():
                if getattr(owner, "__module__", None) != module.__name__:
                    continue
                members = vars(owner).values() if inspect.isclass(owner) else [owner]
                for function in filter(inspect.isfunction, members):
                    parameter = inspect.signature(function).parameters.get("iou_threshold")
                    if parameter is not None and parameter.default is not parameter.empty:
                        found[function.__qualname__] = parameter.default
        assert {"cluster_anchors", "bayesod_inference", "evaluate_detection",
                "DetectionSurrogate.detect", "ALRunConfig.__init__"} <= found.keys()
        assert all(default is fusion.DEFAULT_IOU_THRESHOLD for default in found.values()), found
        field, = (f for f in fields(al.ALRunConfig) if f.name == "iou_threshold")
        assert field.default is fusion.DEFAULT_IOU_THRESHOLD

    def test_surrogate_rules_carry_the_full_key(self):
        with pytest.raises(ValueError, match=r"^surrogate\.kappa must be finite and > 0$") as info:
            al.DetectionExperimentSpec(surrogate=al.SurrogateParams(kappa=0))
        assert info.value.field == "surrogate.kappa"
        al.SurrogateParams(kappa=0, sim_weight=-1.0)   # alone, it checks nothing


class TestDomainSpecs:
    """Both domain specs share the priors check; cov_scale is finite and
    > 0 (a NaN cov_scale once gave all-NaN points)."""

    @pytest.mark.parametrize("cov_scale", [math.nan, math.inf, 0.0, -1.0])
    def test_cov_scale_must_be_finite_and_positive(self, cov_scale):
        with pytest.raises(ValueError, match=r"^cov_scale must be finite and > 0$"):
            ClassificationDomainSpec(class_means=np.eye(2), cov_scale=cov_scale)

    @pytest.mark.parametrize("spec", [
        lambda priors: ClassificationDomainSpec(class_means=np.eye(2), class_priors=priors),
        lambda priors: DetectionSceneSpec(n_classes=2, class_priors=priors)],
        ids=["classification", "detection"])
    @pytest.mark.parametrize("priors, message", [
        ([-0.5, 1.5], "class_priors must be n_classes values >= 0"),
        ([math.nan, 1.0], "class_priors must be n_classes values >= 0"),
        ([0.5, 0.25, 0.25], "class_priors must be n_classes values >= 0"),
        ([[0.5, 0.5]], "class_priors must be n_classes values >= 0"),
        ([0.3, 0.3], "class_priors must sum to 1"),
    ])
    def test_bad_priors_rejected_by_the_spec(self, spec, priors, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec(priors)

    def test_no_classes_rejected(self):
        with pytest.raises(RuleError, match=r"^n_classes must be >= 1$"):
            DetectionSceneSpec(n_classes=0)

    @pytest.mark.parametrize("means", [np.empty((0, 2)), []], ids=["no-classes", "empty"])
    def test_no_class_means_rejected(self, means):
        with pytest.raises(RuleError, match=r"^class_means must be a non-empty "
                                            r"\(n_classes, dim\) array$") as info:
            ClassificationDomainSpec(class_means=means)
        assert info.value.field == "class_means"


def section_keys(track) -> list:
    return [key for key in cli.config_keys(track) if "." in key]


def key_field(track, key):
    """The field a section key feeds and the name its messages use."""
    section, name = key.split(".")
    cls = cli._section_fields(section, track)[0]
    return next(f for f in fields(cls) if f.name == name), \
        key if section in NESTED else name


NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])


def up_to(kind, n):
    """Config texts of values of `kind` up to n."""
    if kind is int:
        return st.integers(max_value=n).map(str)
    return st.floats(max_value=n, allow_nan=False).map(repr)


def from_(kind, n):
    """Config texts of values of `kind` from n up."""
    if kind is int:
        return st.integers(min_value=n).map(str)
    return st.floats(min_value=n, allow_nan=False).map(repr)


# rule kind -> (key type, *rule args) -> config texts around the rule's
# bounds; the property keeps those that break the rule
OUTSIDE = {
    "at_least": lambda kind, n: up_to(kind, n),
    "positive": lambda kind: up_to(kind, 0),
    "finite": lambda kind: NON_FINITE,
    "finite_positive": lambda kind: NON_FINITE | up_to(kind, 0),
    "finite_nonneg": lambda kind: NON_FINITE | up_to(kind, 0),
    "in_interval": lambda kind, lo, hi, ends: NON_FINITE | up_to(kind, lo) | from_(kind, hi),
    "one_of": lambda kind, options: st.from_regex(r"[a-z_]{1,12}", fullmatch=True),
}

RULED_KEYS = [(track, key) for track in cli.TRACKS for key in section_keys(track)
              if key_field(track, key)[0].metadata.get("rules")]


class TestOutOfRangeConfig:
    def test_every_numeric_key_is_checked(self):
        """Each int or float key has a rule or is blamed by a cross-field
        rule, and each field with a rule is a key on every track that
        lists it and on at least one track, so its error has a line."""
        for track in cli.TRACKS:
            keys = cli.config_keys(track)
            for key in section_keys(track):
                if keys[key][0] in (int, float):
                    assert key_field(track, key)[0].metadata.get("rules") \
                        or key in CROSS_BLAMED, key
        for section, readers in cli.SECTIONS.items():
            tracks = {t: readers[t] for t in cli.TRACKS if t in readers}
            for cls in {cls for cls, _ in tracks.values()}:
                for name, _ in rules_of(cls):
                    listing = [t for t, (c, names) in tracks.items()
                               if c is cls and (names is None or name in names)]
                    assert listing, f"{section}.{name}"
                    for track in listing:
                        assert f"{section}.{name}" in cli.config_keys(track)
        assert CROSS_BLAMED <= set(cli.config_keys("classification")) \
            | set(cli.config_keys("detection"))

    def test_anchor_comes_from_the_error_not_its_text(self, tmp_path, capsys, monkeypatch):
        """The CLI blames the key the RuleError names, whatever its
        message says."""
        def reworded(self):
            raise RuleError("batch_size", "a batch needs an item")

        monkeypatch.setattr(SelectionConfig, "__post_init__", reworded)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CLS)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        line = SMALL_CLS.splitlines().index("selection.batch_size = 10") + 1
        assert capsys.readouterr().err == (f"error: {cfg}:{line}: 'selection.batch_size': "
                                           f"a batch needs an item\n")

    @pytest.mark.parametrize("track, key", RULED_KEYS,
                             ids=[f"{t[:3]}-{k}" for t, k in RULED_KEYS])
    def test_value_outside_the_rule_is_one_error_line(self, tmp_path, capsys, track, key):
        """A value outside a key's rule, of the key's type, makes `run`
        return 2 with the rule's message at the key's line, and writes
        nothing."""
        field, name = key_field(track, key)
        kind = cli.config_keys(track)[key][0]
        rules = field.metadata["rules"]
        broken = lambda text: [r for r in rules if not r.holds(kind(text))]
        lines = [ln for ln in BASES[track].splitlines() if not ln.startswith(f"{key} =")]
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"

        @settings(max_examples=10, deadline=None)
        @given(text=st.one_of([OUTSIDE[r.kind](kind, *r.args) for r in rules]).filter(broken))
        def rejected(text):
            cfg.write_text("\n".join([*lines, f"{key} = {text}"]) + "\n")
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            message = broken(text)[0].text.format(name=name, value=kind(text))
            assert captured.out == ""
            assert captured.err == f"error: {cfg}:{len(lines) + 1}: {key!r}: {message}\n"
            assert not out.exists()

        rejected()


# each rule of a `score` flag's field, with the flag
SCORE_RULES = [(key, rule) for key in cli._section_keys("score")
               for rule in key_field("score", key)[0].metadata.get("rules", ())]


class TestScoreFlags:
    @pytest.mark.parametrize("key, rule", SCORE_RULES,
                             ids=[f"{key}-{rule.kind}" for key, rule in SCORE_RULES])
    def test_flag_outside_its_rule_is_one_error_line(self, tmp_path, capsys, key, rule):
        """A `score` flag's value outside its field's rule makes `score`
        return 2 with the rule's message at the flag, before the anchor
        file is read."""
        name = key.split(".")[1]
        flag, value = "--" + name.replace("_", "-"), ONE_BAD_VALUE[rule.kind](*rule.args)
        assert cli.main(["score", "--anchors", str(tmp_path / "missing.txt"),
                         flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}: {rule.text.format(name=name, value=value)}\n"

    def test_every_ruled_flag_is_covered(self):
        assert {key for key, _ in SCORE_RULES} == {
            "acquisition.comb", "acquisition.agg", "acquisition.w_cls",
            "acquisition.w_reg", "acquisition.empty_image_score", "loop.iou_threshold"}


class TestConfigDamage:
    @pytest.mark.parametrize("track", cli.TRACKS)
    def test_damaged_config_is_0_or_one_error_line(self, tmp_path, capsys, track):
        """Byte-level damage to a config never makes `run` raise: it
        returns 0 with its artifacts written, or 2 with exactly one
        `error:` line on stderr and nothing on stdout."""
        cfg = tmp_path / "exp.cfg"
        outs = (tmp_path / f"out{i}" for i in itertools.count())

        @settings(max_examples=200, deadline=None)
        @given(data=damaged(BASES[track].encode()))
        def survives(data):
            cfg.write_bytes(data)
            out = next(outs)
            rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
            captured = capsys.readouterr()
            if rc == 0:
                assert captured.out.endswith(f"artifacts written to {out}\n")
                assert (out / "curve.csv").exists() and (out / "manifest.txt").exists()
            else:
                assert rc == 2
                assert captured.out == ""
                assert re.fullmatch(r"error: [^\n]*\n", captured.err)
                assert not out.exists()

        survives()


# ---------------------------------------------------------------------------
# array inputs: class labels, item indices, batch sizes and batch shapes
#
# Each strategy draws (value, plain): plain is the int or float array an
# accepted value must give the result of, and None for a value the
# consumer rejects.
# ---------------------------------------------------------------------------

@st.composite
def id_arrays(draw, n: int, size: int, empty_ok: bool = True):
    """`size` ids in [0, n), each an int or a whole float, which the
    consumer accepts; that list with one fractional, negative or
    too-large entry, or reshaped to 2-D, which it rejects; or the empty
    list, accepted when empty_ok."""
    ids = st.integers(0, n - 1).flatmap(lambda i: st.sampled_from([i, float(i)]))
    values = draw(st.lists(ids, min_size=size, max_size=size))
    damage = draw(st.sampled_from(["none", "none", "entry", "2-d", "empty"]))
    if damage == "entry":
        values[draw(st.integers(0, size - 1))] = draw(
            st.sampled_from([-1, -0.5, 0.5, n - 0.5, n, n + 3]))
    elif damage == "2-d":
        values = np.reshape(values, draw(st.sampled_from([(1, -1), (-1, 1)]))).tolist()
    elif damage == "empty":
        values = []
    accepted = damage == "none" or (damage == "empty" and empty_ok)
    return values, np.asarray(values, dtype=int) if accepted else None


def batch_sizes(n: int, most: int):
    """b for a pool of n whose batches hold at most `most`."""
    return st.one_of(st.integers(1, n), st.integers(1, n).map(float),
                     st.sampled_from([0, -1, 1.5, n + 1])
                     ).map(lambda b: (b, int(b) if float(b).is_integer() and 1 <= b <= most
                                      else None))


@st.composite
def member_counts(draw, size: int):
    """`size` whole numbers >= 1, each an int or a whole float, which the
    consumer accepts; rejected, that list with one 0, negative or
    fractional entry, one entry short, or reshaped to 2-D."""
    counts = st.integers(1, 9).flatmap(lambda i: st.sampled_from([i, float(i)]))
    values = draw(st.lists(counts, min_size=size, max_size=size))
    damage = draw(st.sampled_from(["none", "none", "entry", "short", "2-d"]))
    if damage == "entry":
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from([0, -1, 0.5, 2.5]))
    elif damage == "short":
        values = values[1:]
    elif damage == "2-d":
        values = [values]
    return values, np.asarray(values, dtype=int) if damage == "none" else None


@st.composite
def offset_arrays(draw, total: int):
    """Offsets rising from 0 to total, each an int or a whole float, which
    the consumer accepts; rejected, with a fractional entry, a falling
    step or a last entry other than total, reshaped to 2-D, or []."""
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=3)))
    values = [draw(st.sampled_from([v, float(v)])) for v in [0, *cuts, total]]
    damage = draw(st.sampled_from(["none", "none", "fraction", "falling", "end", "2-d",
                                   "empty"]))
    if damage == "fraction":
        values.insert(1, 0.5)
    elif damage == "falling":
        values.insert(-1, total + 1)
    elif damage == "end":
        values[-1] = total + draw(st.sampled_from([-1, 1]))
    elif damage == "2-d":
        values = [values]
    elif damage == "empty":
        values = []
    return values, np.asarray(values, dtype=int) if damage == "none" else None


class Raises(str):
    """The exact message a consumer must raise for a drawn value."""


@st.composite
def batches(draw, rows: np.ndarray, name: str, last_fixed: bool = True,
            empty_ok: bool = True):
    """The first 1 to len(rows) rows as nested lists, which the consumer
    accepts; rejected, a single row, a scalar, the batch with one more
    (trailing) axis, a ragged batch of two or more rows whose first row
    is a column short, the batch with an int beyond float range as its
    first entry, or, when the consumer fixes the size of the last axis,
    the batch one column short; or [], a batch of 0 rows, which gives
    what a (0, *rows.shape[1:]) array gives, accepted when empty_ok.
    NaN, inf or -inf in one entry must raise Raises('<name> must be
    finite'), where name is the consumer's name for the batch."""
    batch = rows[:draw(st.integers(1, len(rows)))]
    damage = draw(st.sampled_from(["none", "none", "single", "scalar", "axis", "ragged",
                                   "huge", "empty", "nan", "inf", "-inf"]
                                  + ["column"] * last_fixed))
    if damage in ("nan", "inf", "-inf"):
        value = batch.astype(float)
        value.flat[draw(st.integers(0, value.size - 1))] = float(damage)
        return value.tolist(), Raises(f"{name} must be finite")
    if damage == "empty":
        return [], np.zeros((0, *rows.shape[1:])) if empty_ok else None
    if damage == "huge":
        value = batch.tolist()
        row = value
        while isinstance(row[0], list):
            row = row[0]
        row[0] = 10**400
        return value, None
    if damage == "ragged":
        batch = rows[:max(len(batch), 2)]
        return [batch[0][..., :-1].tolist(), *batch[1:].tolist()], None
    value = {"none": batch, "single": batch[0], "scalar": batch.flat[0],
             "axis": batch[..., None], "column": batch[..., :-1]}[damage]
    return value.tolist(), batch if damage == "none" else None


@st.composite
def vectors(draw, row: np.ndarray, name: str):
    """row as a list, which the consumer accepts; rejected, one entry
    short or one more, a scalar, or the row as a batch of one.  NaN, inf
    or -inf in one entry must raise Raises('<name> must be finite')."""
    damage = draw(st.sampled_from(["none", "none", "short", "long", "scalar", "2-d",
                                   "nan", "inf", "-inf"]))
    if damage in ("nan", "inf", "-inf"):
        value = row.astype(float)
        value[draw(st.integers(0, len(row) - 1))] = float(damage)
        return value.tolist(), Raises(f"{name} must be finite")
    value = {"none": row, "short": row[:-1], "long": np.append(row, row[0]),
             "scalar": row[0], "2-d": row[None]}[damage]
    return value.tolist(), row if damage == "none" else None


X_ROWS = np.random.default_rng(0).normal(size=(5, 2))
MODEL = MCDropoutClassifier(2, 4, 3, seed=0)
MODEL_PARAMS = (MODEL.w1, MODEL.b1, MODEL.w2, MODEL.b2)
SPEC = DetectionSceneSpec(n_classes=3)
SAMPLES = np.random.default_rng(1).normal([0, 0, 20, 20], 2.0, size=(6, 5, 4))
MEAN_SCORES = np.random.default_rng(2).uniform(0.1, 0.9, size=(6, 3))
BOXES = np.random.default_rng(3).uniform(0, 10, size=(5, 4)) + [0, 0, 10, 10]
PROBS = np.random.default_rng(4).dirichlet(np.ones(3), size=(6, 4))   # (N, T, C)
WEIGHTS = np.random.default_rng(5).uniform(0.1, 1.0, size=5)
# four detections' fields, apart from offsets
DETECTION_ROWS = {"class_probs": PROBS[:4, 0], "box_mean": BOXES[:4],
                  "box_cov": np.eye(4) * np.arange(1.0, 5.0)[:, None, None],
                  "cluster_size": np.array([1, 3, 2, 1])}


def rows_of(batch) -> int:
    """The row count of a drawn batch; a scalar has none."""
    return len(batch) if isinstance(batch, (list, np.ndarray)) else 0


def one_scene(classes) -> Scenes:
    return Scenes(classes=classes, boxes=np.tile([0.0, 0.0, 10.0, 10.0], (np.size(classes), 1)),
                  offsets=[0, np.size(classes)])


def anchor_arrays(anchors) -> tuple:
    return anchors.scores, anchors.boxes, anchors.offsets


def scored(name: str, value, k: int):
    """score_image of k detections in one image, with field `name` set to
    value and every other field the first k rows of DETECTION_ROWS."""
    rows = {field: v[:k] for field, v in DETECTION_ROWS.items()}
    return score_image(Detections(**{**rows, "offsets": [0, k], name: value}),
                       AcquisitionConfig())


# name: (strategy of (value, plain), the call); the labels are fit's
# and evaluate_classifier's 5 rows, so an empty y is rejected, and one
# cluster of no members has no covariance to fuse.  A batch of 0 rows
# holds no samples, is no test set, and is a pool too small for b = 1.
ARRAY_CONSUMERS = {
    "fit": (id_arrays(3, 5, empty_ok=False), lambda y: [
        getattr(MODEL.fit(X_ROWS, y, TrainConfig(epochs=1, batch_size=4)), w)
        for w in ("w1", "b1", "w2", "b2")]),
    "evaluate_classifier": (id_arrays(3, 5, empty_ok=False),
                            lambda y: al.evaluate_classifier(MODEL, X_ROWS, y)),
    "inter_class_variation": (id_arrays(3, 4), lambda y: al.inter_class_variation(y, 3)),
    "with_real": (id_arrays(3, 3), lambda y: al.DetectionSurrogate(
        SPEC, al.SurrogateParams()).with_real(one_scene(y)).competence()),
    "synth_detector_outputs": (id_arrays(3, 3), lambda y: anchor_arrays(
        synth_detector_outputs(one_scene(y), SPEC, [7]))),
    "fuse_categorical": (id_arrays(6, 4),
                         lambda m: fuse_categorical(MEAN_SCORES, m, [0, len(m)])),
    "fuse_gaussian": (id_arrays(6, 4, empty_ok=False),
                      lambda m: fuse_gaussian(SAMPLES, m, [0, len(m)])),
    **{name: (batch_sizes(6, 3 if name == "subsample_topn" else 6), select)
       for name, select in six_selectors(6, p=0.5).items()},
    "features": (batches(X_ROWS, "x"), MODEL.features),
    "predict_mean": (batches(X_ROWS, "x"), MODEL.predict_mean),
    "predict_samples": (batches(X_ROWS, "x"), lambda x: MODEL.predict_samples(x, 3, seed=1)),
    "evaluate_classifier x": (batches(X_ROWS, "x_test", last_fixed=False, empty_ok=False),
                              lambda x: al.evaluate_classifier(MODEL, x,
                                                               [0, 1, 2, 0, 1][:rows_of(x)])),
    "categorical_entropy": (batches(PROBS[:, 0], "probs", last_fixed=False),
                            categorical_entropy),
    "iou_matrix": (batches(BOXES, "a"), lambda a: iou_matrix(a, a)),
    "mc_statistics": (batches(SAMPLES[0], "samples", empty_ok=False), mc_statistics),
    "coreset pool": (batches(X_ROWS, "pool_features", last_fixed=False, empty_ok=False),
                     lambda pool: select_coreset(pool, [], 1)),
    "coreset labeled": (batches(X_ROWS, "labeled_features"),
                        lambda labeled: select_coreset(X_ROWS, labeled, 2)),
    "clue pool": (batches(X_ROWS, "pool_features", last_fixed=False, empty_ok=False),
                  lambda pool: select_clue(pool, WEIGHTS[:rows_of(pool)], 1, seed=1)),
    "batchbald": (batches(PROBS, "prob_samples", last_fixed=False, empty_ok=False),
                  lambda probs: select_batchbald(probs, 1, mc_count=4, seed=1)),
    **{f"detections {name}": (batches(DETECTION_ROWS[name], name,
                                      last_fixed=name != "class_probs"),
                              lambda v, name=name: scored(name, v, rows_of(v)))
       for name in ("class_probs", "box_mean", "box_cov")},
    "detections cluster_size": (member_counts(3), lambda v: scored("cluster_size", v, 3)),
    "detections offsets": (offset_arrays(3), lambda v: scored("offsets", v, 3)),
    "class_means": (batches(X_ROWS, "class_means", last_fixed=False, empty_ok=False),
                    lambda means: generate_classification(
                        ClassificationDomainSpec(class_means=means), 5, seed=1)),
    "translation": (vectors(X_ROWS[0], "translation"), lambda t: shifted_domain(
        ClassificationDomainSpec(class_means=np.eye(2)), translation=t).class_means),
}


class TestArrayInputs:
    """Every consumer of class labels, item indices, a batch size or a
    batch of rows keeps its input's one rule: a value that breaks it
    raises ValueError from the package, never numpy's error or a result,
    with the exact message when the drawn value names one (Raises), and
    a value that keeps it returns what its plain int or float array
    gives."""

    @settings(max_examples=600, deadline=None)
    @given(name=st.sampled_from(sorted(ARRAY_CONSUMERS)), data=st.data())
    def test_one_rule_per_input(self, name, data):
        inputs, call = ARRAY_CONSUMERS[name]
        value, plain = data.draw(inputs, label="value")
        rejected = plain is None or isinstance(plain, Raises)
        try:
            got = call(value)
        except ValueError as error:
            assert raised_in_package(pytest.ExceptionInfo.from_current())
            assert rejected, f"{name} rejected {value!r}"
            assert plain is None or str(error) == plain
            return
        assert not rejected, f"{name} accepted {value!r}"
        np.testing.assert_equal(got, call(plain))

    @pytest.mark.parametrize("call, message", [
        # an empty pool was one row of no features: coreset returned [0]
        (lambda: select_coreset([], [], 1), "batch size 1 exceeds pool size 0"),
        (lambda: select_clue([], [], 1), "batch size 1 exceeds pool size 0"),
        # scipy's, numpy's or a TypeError before
        (lambda: select_coreset(np.ones((2, 3, 2)), [], 1),
         "pool_features must be an array of shape (N, D), got shape (2, 3, 2)"),
        (lambda: iou_matrix(np.ones((2, 3)), BOXES),
         "a must be an array of shape (..., N, 4), got shape (2, 3)"),
        (lambda: categorical_entropy(np.full((1, 2, 2), 0.5)),
         "probs must be an array of shape (N, C), got shape (1, 2, 2)"),
        (lambda: select_subsample_topn(list(range(6)), lambda ids: np.zeros(len(ids)), 2, 1, 0),
         "p must lie in (0, 1]"),
        (lambda: select_batchbald(PROBS, 2, mc_count=0),
         "mc_count must be a whole number >= 1, got 0"),
        # the result depended on the order of the pairs
        (lambda: select_topn([(0, math.nan), (1, 1.0), (2, 0.5)], 2),
         "need one finite score per candidate"),
        (lambda: select_topn([(1, 1.0), (0, math.nan), (2, 0.5)], 2),
         "need one finite score per candidate"),
        # built without a check, and scored as another layout or not at all
        *[(lambda offsets=offsets: scored("offsets", offsets, 3),
           "offsets must rise from 0 to the detection count")
          for offsets in ([0, 1], [0, 2, 5], [0, 1.5, 3])],
        (lambda: scored("box_cov", np.ones((3, 3, 3)), 3),
         "box_cov must be an array of shape (3, 4, 4), got shape (3, 3, 3)"),
        (lambda: scored("box_mean", np.zeros((2, 4)), 3),
         "box_mean must be an array of shape (3, 4), got shape (2, 4)"),
        (lambda: scored("class_probs", [0.5, 0.5, 0.5], 3),
         "class_probs must be an array of shape (K, C), got shape (3,)"),
        # numpy's inhomogeneous-shape or string-conversion errors before
        (lambda: iou_matrix([[0, 0, 1, 1], [0, 0, 1]], BOXES),
         "a must be an array of shape (..., N, 4), got a ragged or non-numeric value"),
        (lambda: select_coreset([[0, 1], [1]], [], 1),
         "pool_features must be an array of shape (N, D), got a ragged or non-numeric value"),
        (lambda: iou_matrix([[0, 0, 1, "x"]], BOXES),
         "a must be an array of shape (..., N, 4), got a ragged or non-numeric value"),
        # a divide-by-zero warning and numpy's OverflowError before
        (lambda: MCDropoutClassifier(2, 0, 2), "hidden_dim must be a whole number >= 1, got 0"),
        # [nan, nan, nan] before
        (lambda: skewed_priors(3, math.nan), "skew must be finite and >= 0"),
        # [] and three priors before
        (lambda: skewed_priors(0, 1.0), "n_classes must be a whole number >= 1, got 0"),
        (lambda: skewed_priors(2.5, 1.0), "n_classes must be a whole number >= 1, got 2.5"),
        # numpy's matmul core-dimension mismatch at the first prediction before
        (lambda: MCDropoutClassifier(2, 4, 3, params=[np.zeros((3, 4)), np.zeros(4),
                                                      np.zeros((4, 3)), np.zeros(3)]),
         "w1 must be an array of shape (2, 4), got shape (3, 4)"),
        (lambda: MCDropoutClassifier(2, 4, 3, params=[np.zeros((2, 4)), np.zeros(4),
                                                      np.zeros((4, 3)), np.zeros(2)]),
         "b2 must be an array of shape (3), got shape (2,)"),
        (lambda: MCDropoutClassifier(2, 4, 3, params=MODEL_PARAMS + (np.zeros(3),)),
         "params must hold w1, b1, w2 and b2"),
        # accepted, and every prediction NaN, before
        (lambda: MCDropoutClassifier(2, 4, 3, params=[np.where(MODEL.w1 > 0, math.nan, 0.0),
                                                      *MODEL_PARAMS[1:]]),
         "w1 must be finite"),
        # a bare OverflowError before
        (lambda: iou_matrix([[0, 0, 1, 10**400]], BOXES),
         "a must be an array of shape (..., N, 4), got a number beyond float range"),
        # an item of NaN samples was picked first, a negative one warned
        (lambda: select_batchbald(np.where(np.arange(6)[:, None, None] == 3, math.nan, PROBS),
                                  3), "prob_samples must be finite"),
        (lambda: select_batchbald(PROBS - 0.5, 3), "prob_samples must lie in [0, 1]"),
        # the NaN row was picked first, [1]
        (lambda: select_coreset([[0, 0], [math.nan, 1], [5, 5]], [[0, 0]], 1),
         "pool_features must be finite"),
        (lambda: select_coreset([[0, 0], [1, 1], [5, 5]], [[math.inf, 0]], 1),
         "labeled_features must be finite"),
        (lambda: select_clue([[0, 0], [1, -math.inf], [5, 5]], [1, 1, 1], 2),
         "pool_features must be finite"),
        # the NaN row scored as class 0, 0.5
        (lambda: al.evaluate_classifier(MCDropoutClassifier(2, 4, 2), [[math.nan, 0.0],
                                                                       [1.0, 1.0]], [0, 0]),
         "x_test must be finite"),
        # checked, but reached by no test before
        (lambda: select_clue(X_ROWS, [1.0, -0.5, 1.0, 1.0, 1.0], 1),
         "uncertainties must be >= 0"),
        (lambda: grid_class_means(3, 2, 1.0), "dim must be >= n_classes for one-hot class means"),
        (lambda: al.evaluate_detection(Detections(**DETECTION_ROWS, offsets=[0, 2, 4]),
                                       one_scene([0, 1])),
         "need one image of detections per scene, got 2 for 1 scenes"),
    ], ids=["coreset-empty", "clue-empty", "coreset-3d", "iou-3-columns", "entropy-3d",
            "subsample-p-2", "batchbald-mc-0", "topn-nan-first", "topn-nan-second",
            "detections-offsets-short", "detections-offsets-long", "detections-offsets-fraction",
            "detections-cov-3x3", "detections-mean-rows", "detections-probs-1d",
            "iou-ragged", "coreset-ragged", "iou-string", "classifier-hidden-0", "skew-nan",
            "priors-classes-0", "priors-classes-fraction", "classifier-w1-rows",
            "classifier-b2-size", "classifier-params-5", "classifier-w1-nan",
            "iou-beyond-float", "batchbald-nan-item",
            "batchbald-negative", "coreset-nan-pool", "coreset-inf-labeled", "clue-inf-pool",
            "evaluate-classifier-nan", "clue-negative-uncertainty", "grid-means-dim",
            "evaluate-detection-images"])
    def test_inputs_that_reached_numpy_raise_the_rule(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
            call()
        assert raised_in_package(excinfo)
