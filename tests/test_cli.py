"""CLI: config parsing, run/sweep/report subcommands, artifact contracts."""

import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tests_support_reference import dense_image_text, reference_score_stdout

from sim2real_al import cli
from sim2real_al import loop as al
from sim2real_al.acquisition import AcquisitionConfig
from sim2real_al.learner import MCDropoutClassifier, TrainConfig

ROOT = Path(__file__).resolve().parent.parent

SMALL_CLS = """\
config_version = 1
track = classification
name = smoke
seeds = 1,2
dataset.seed = 7
dataset.n_classes = 4
dataset.dim = 4
dataset.sim_size = 80
dataset.pool_size = 120
dataset.test_size = 150
dataset.hidden_dim = 16
selection.strategy = subsample_topn
selection.batch_size = 10
selection.subsample_fraction = 0.5
train.epochs = 6
train.learning_rate = 0.2
loop.iterations = 3
strategies = random,subsample_topn
"""

SMALL_DET = """\
config_version = 1
track = detection
name = det-smoke
seeds = 1
dataset.sim_scenes = 25
dataset.pool_scenes = 40
dataset.test_scenes = 20
selection.strategy = subsample_topn
selection.batch_size = 8
loop.iterations = 2
strategies = random,topn
"""


FIVE_STRATEGIES = ("random", "topn", "subsample_topn", "coreset", "clue")

TINY_CLS_SWEEP = f"""\
config_version = 1
track = classification
seeds = 1,2
dataset.n_classes = 4
dataset.dim = 4
dataset.sim_size = 30
dataset.pool_size = 40
dataset.test_size = 30
dataset.hidden_dim = 8
selection.batch_size = 4
train.epochs = 2
loop.iterations = 2
strategies = {",".join(FIVE_STRATEGIES)}
"""

TINY_DET_SWEEP = f"""\
config_version = 1
track = detection
seeds = 1,2
dataset.sim_scenes = 6
dataset.pool_scenes = 16
dataset.test_scenes = 6
selection.batch_size = 3
loop.iterations = 2
strategies = {",".join(FIVE_STRATEGIES)}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# the C locale without UTF-8 mode: files and stdout default to ASCII
ASCII_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C"}


def python_process(*args, **env):
    """`python *args` in a fresh interpreter that imports this tree's
    package, with env added to its environment; output read as UTF-8."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          encoding="utf-8", timeout=300)


# tokens of the text formats, so that damage also makes near-valid lines
_TOKENS = st.sampled_from([b"\n", b" ", b"\t", b",", b" = ", b"#", b"image ", b"0",
                           b"-1", b"1e400", b"nan", b"run.1.", b"\xff", b"\xc3"])


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """data after one to three byte-level edits: a truncation, a flipped
    byte, inserted bytes (non-UTF-8 included) or a deleted run."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["truncate", "flip", "insert", "delete"]))
        if edit == "truncate":
            data = data[:at]
        elif edit == "insert":
            data = data[:at] + draw(st.binary(min_size=1, max_size=8) | _TOKENS) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 16)):]
        elif at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data


class TestConfigParsing:
    def test_small_config_loads(self, tmp_path):
        excfg = cli.load_config(write_cfg(tmp_path, SMALL_CLS))
        assert excfg.track == "classification"
        assert excfg.seeds == [1, 2]
        assert excfg.al.selection.batch_size == 10
        assert excfg.dataset_spec.pool_size == 120

    def test_presets_resolve_and_parse(self):
        for preset in ("digits-analog", "detection-analog"):
            excfg = cli.load_config(preset)
            assert excfg.name == preset
            assert len(excfg.strategies) >= 2

    def test_unknown_key_named(self, tmp_path):
        bad = SMALL_CLS + "dataset.wobble = 3\n"
        with pytest.raises(cli.ConfigError, match=r"dataset.wobble"):
            cli.load_config(write_cfg(tmp_path, bad))

    def test_unknown_strategy_named(self, tmp_path):
        bad = SMALL_CLS.replace("selection.strategy = subsample_topn",
                                "selection.strategy = entropy_magic")
        with pytest.raises(cli.ConfigError, match="entropy_magic"):
            cli.load_config(write_cfg(tmp_path, bad))

    def test_malformed_line_number(self, tmp_path):
        bad = "config_version = 1\ntrack = classification\nnonsense line\n"
        with pytest.raises(cli.ConfigError, match=r":3:"):
            cli.load_config(write_cfg(tmp_path, bad))

    def test_config_not_utf8_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(SMALL_CLS.encode() + b"# caf\xe9\n")
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: config is not UTF-8 text "
            f"(invalid continuation byte at byte {len(SMALL_CLS) + 5})\n")
        assert not (tmp_path / "out").exists()

    def test_config_directory_is_one_error_line(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {str(tmp_path)!r}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_version_required(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="config_version"):
            cli.load_config(write_cfg(tmp_path, "track = classification\n"))

    def test_wrong_version_rejected(self, tmp_path):
        bad = SMALL_CLS.replace("config_version = 1", "config_version = 9")
        with pytest.raises(cli.ConfigError, match="unsupported config_version"):
            cli.load_config(write_cfg(tmp_path, bad))

    def test_duplicate_key_rejected(self, tmp_path):
        bad = SMALL_CLS + "loop.iterations = 5\n"
        with pytest.raises(cli.ConfigError, match="duplicate key"):
            cli.load_config(write_cfg(tmp_path, bad))

    def test_duplicate_seed_rejected(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 1,2,1"))
        with pytest.raises(cli.ConfigError, match=r":4: duplicate seed 1"):
            cli.load_config(bad)
        assert cli.main(["run", "--config", bad, "--out",
                         str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, args, message", [
        (SMALL_CLS.replace("strategies = random,subsample_topn",
                           "strategies = random,wobble"), [],
         r"exp\.cfg:18: 'strategies': unknown strategy 'wobble'"),
        (SMALL_CLS.replace("strategies = random,subsample_topn",
                           "strategies = random,random"), [],
         r"exp\.cfg:18: 'strategies': repeated strategy 'random'"),
        (SMALL_CLS, ["--strategy", "random,wobble"],
         r"--strategy: unknown strategy 'wobble'"),
        (SMALL_CLS, ["--strategy", "random,clue,random"],
         r"--strategy: repeated strategy 'random'"),
        (SMALL_DET.replace("strategies = random,topn",
                           "strategies = random,batchbald"), [],
         r"exp\.cfg:11: 'strategies': strategy 'batchbald' is not available "
         r"on the detection track"),
        (SMALL_DET.replace("selection.strategy = subsample_topn",
                           "selection.strategy = batchbald"), [],
         r"exp\.cfg:8: 'selection.strategy': strategy 'batchbald' is not"),
        (SMALL_DET, ["--strategy", "random,batchbald"],
         r"--strategy: strategy 'batchbald' is not available"),
    ], ids=["unknown", "repeated", "unknown-flag", "repeated-flag",
            "detection-batchbald", "detection-batchbald-selection",
            "detection-batchbald-flag"])
    def test_bad_strategies_rejected_before_any_cell(self, tmp_path, capsys,
                                                     text, args, message):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert re.search(message, err), err
        assert not out.exists()

    @pytest.mark.parametrize("text, strategy", [
        (SMALL_CLS, "wobble"), (SMALL_DET, "batchbald")])
    def test_run_strategy_flag_checked(self, tmp_path, capsys, text, strategy):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_cfg(tmp_path, text),
                         "--strategy", strategy, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --strategy: ")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("train.epochs", "0", "epochs must be >= 1"),
        ("train.batch_size", "0", "batch_size must be >= 1"),
        ("train.learning_rate", "nan", "learning_rate must be finite"),
        ("loop.level", "2", "level must lie in (0, 1]"),
        ("loop.level", "nan", "level must lie in (0, 1]"),
        ("loop.iterations", "-3", "iterations must be >= 0"),
        ("seeds", "-1", "seed -1 is negative"),
        ("seeds", "2,-5", "seed -5 is negative"),
        ("dataset.n_classes", "0", "n_classes must be >= 1"),
        ("dataset.dim", "3", "dim must be >= n_classes"),
        ("dataset.sim_size", "0", "sim_size must be >= 1"),
        ("dataset.pool_size", "0", "pool_size must be >= 1"),
        ("dataset.test_size", "0", "test_size must be >= 1"),
        ("dataset.hidden_dim", "0", "hidden_dim must be >= 1"),
        ("dataset.dropout_rate", "1", "dropout_rate must lie in [0, 1)"),
        ("dataset.dropout_rate", "-0.1", "dropout_rate must lie in [0, 1)"),
        ("selection.batch_size", "0", "batch_size must be >= 1"),
        ("acquisition.w_reg", "-1", "w_reg must be finite and >= 0"),
        ("dataset.cov_scale", "0", "cov_scale must be finite and > 0"),
        ("dataset.label_skew", "-1", "label_skew must be finite and >= 0"),
        ("dataset.label_skew", "nan", "label_skew must be finite and >= 0"),
        ("loop.mc_passes", "0", "mc_passes must be >= 1"),
        ("loop.iou_threshold", "1.5", "iou_threshold must lie in [0, 1]"),
        ("loop.iou_threshold", "-0.1", "iou_threshold must lie in [0, 1]"),
        ("dataset.objects_min", "4", "objects_min must lie in [0, objects_max]"),
        ("dataset.objects_min", "-1", "objects_min must lie in [0, objects_max]"),
        ("dataset.box_max", "200", "box_max must be <= min(width, height)"),
        ("dataset.box_max", "-inf", "box_max must be > 0"),
        ("dataset.box_max", "0", "box_max must be > 0"),
        ("dataset.box_min", "0", "box_min must lie in (0, box_max]"),
        ("dataset.box_min", "60", "box_min must lie in (0, box_max]"),
        ("dataset.anchors_per_object", "0", "anchors_per_object must be >= 1"),
        ("dataset.mc_samples", "0", "mc_samples must be >= 1"),
        ("dataset.width", "0", "width must be finite and > 0"),
        ("dataset.height", "nan", "height must be finite and > 0"),
        ("dataset.sim_scenes", "0", "sim_scenes must be >= 1"),
        ("dataset.pool_scenes", "0", "pool_scenes must be >= 1"),
        ("dataset.test_scenes", "0", "test_scenes must be >= 1"),
        ("surrogate.sim_weight", "nan", "surrogate.sim_weight must be finite"),
        ("surrogate.sim_weight", "-0.5", "surrogate.sim_weight must be >= 0"),
        ("surrogate.kappa", "0", "surrogate.kappa must be finite and > 0"),
        ("surrogate.kappa", "inf", "surrogate.kappa must be finite and > 0"),
        ("dataset.mean_shift", "inf", "mean_shift must be finite"),
        ("dataset.class_separation", "nan", "class_separation must be finite"),
        ("seeds", "", "need at least one seed"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, key, value,
                                        message):
        """One bad value, set alone, is one error line at its key's
        line, before any output is written; a key of both tracks fails
        on both."""
        bases = [text for text, track in ((SMALL_CLS, "classification"),
                                          (SMALL_DET, "detection"))
                 if key in cli.config_keys(track)]
        assert bases
        for base in bases:
            lines = [ln for ln in base.splitlines()
                     if not ln.startswith(f"{key} =")] + [f"{key} = {value}"]
            cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
            out = tmp_path / "out"
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {cfg}:{len(lines)}: {key!r}: {message}\n"
            assert not out.exists()

    BATCHBALD_PASSES = "mc_passes must be >= 2 for batchbald, whose mutual " \
                       "information needs two samples"

    @pytest.mark.parametrize("command, edit, args", [
        ("run", ("selection.strategy = subsample_topn",
                 "selection.strategy = batchbald"), []),
        ("sweep", ("strategies = random,subsample_topn",
                   "strategies = random,batchbald"), []),
        ("run", None, ["--strategy", "batchbald"]),
        ("sweep", None, ["--strategy", "random,batchbald"]),
    ], ids=["selection", "strategies", "run-flag", "sweep-flag"])
    def test_one_mc_pass_with_batchbald_exits_2(self, tmp_path, capsys, command,
                                                edit, args):
        text = SMALL_CLS if edit is None else SMALL_CLS.replace(*edit)
        cfg = write_cfg(tmp_path, text + "loop.mc_passes = 1\n")
        n_lines = len(text.splitlines()) + 1
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {cfg}:{n_lines}: 'loop.mc_passes': "
                                f"{self.BATCHBALD_PASSES}\n")
        assert not out.exists()

    def test_one_mc_pass_without_batchbald_loads(self, tmp_path):
        excfg = cli.load_config(write_cfg(tmp_path, SMALL_CLS + "loop.mc_passes = 1\n"))
        assert excfg.al.mc_passes == 1
        with pytest.raises(ValueError, match="mc_passes must be >= 2"):
            replace(excfg.al, selection=replace(excfg.al.selection,
                                                strategy="batchbald"))

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert cli.main([command, "--config", write_cfg(tmp_path, SMALL_CLS),
                         "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed: seed -1 is negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, named, message", [
        ("dataset.width", "7", "'dataset.box_max' (not set, default 48.0)",
         "box_max must be <= min(width, height)"),
        ("dataset.objects_max", "0", "'dataset.objects_min' (not set, default 1)",
         "objects_min must lie in [0, objects_max]"),
    ])
    def test_error_on_an_unset_key_says_so(self, tmp_path, capsys, key, value,
                                           named, message):
        """A rule that a set key breaks, but that names a key the file
        does not set, says that key is not set and gives its default."""
        cfg = write_cfg(tmp_path, SMALL_DET + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: {named}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, kind", [
        ("loop.iterations", "soon", "int"), ("loop.level", "high", "float"),
        ("loop.replay", "maybe", "bool"), ("train.fine_tune", "2", "bool"),
        ("seeds", "1,x", "int_list")])
    def test_type_error_names_the_expected_type(self, tmp_path, key, value, kind):
        lines = [ln for ln in SMALL_CLS.splitlines()
                 if not ln.startswith(f"{key} =")] + [f"{key} = {value}"]
        cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(cli.ConfigError) as info:
            cli.load_config(cfg)
        assert str(info.value) == (f"{cfg}:{len(lines)}: key {key!r} expects "
                                   f"{kind}, got {value!r}")

    @pytest.mark.parametrize("track", cli.TRACKS)
    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path, track):
        """A config of only the required keys builds every section's
        dataclass with its own defaults."""
        excfg = cli.load_config(write_cfg(
            tmp_path, f"config_version = 1\ntrack = {track}\n"))
        spec_cls = (al.ClassificationExperimentSpec if track == "classification"
                    else al.DetectionExperimentSpec)
        assert excfg.dataset_spec == spec_cls()
        assert excfg.al == al.ALRunConfig(train=excfg.al.train)
        if track == "classification":
            assert excfg.al.train == TrainConfig()
        assert (excfg.name, excfg.seeds, excfg.strategies) == ("", [0], [])
        assert len(cli.config_keys(track)) == {"classification": 30, "detection": 34}[track]

    # the keys only the other track's run reads, each with a value that
    # track accepts
    UNREAD = [("classification", key, value) for key, value in (
        ("acquisition.comb", "max"), ("acquisition.agg", "sum"),
        ("acquisition.w_cls", "2.0"), ("acquisition.w_reg", "0.5"),
        ("acquisition.empty_image_score", "1.0"), ("loop.iou_threshold", "0.3"),
        ("loop.cls_bayesian", "true"))] + [("detection", key, value) for key, value in (
            ("selection.mc_count", "50"), ("loop.mc_passes", "5"), ("loop.replay", "false"))]

    @pytest.mark.parametrize("track, key, value", UNREAD,
                             ids=[f"{t[:3]}-{k}" for t, k, _ in UNREAD])
    def test_key_the_track_does_not_read_exits_2(self, tmp_path, capsys, track, key,
                                                 value):
        """A key that only the other track's run reads is unknown: `run`
        returns 2 with one error line at its line and writes nothing,
        while the other track loads the same line into its dataclass."""
        bases = {"classification": SMALL_CLS, "detection": SMALL_DET}
        text = bases[track] + f"{key} = {value}\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {cfg}:{len(text.splitlines())}: unknown key "
                                f"{key!r} on the {track} track\n")
        assert not out.exists()
        other, = set(cli.TRACKS) - {track}
        excfg = cli.load_config(write_cfg(tmp_path, bases[other] + f"{key} = {value}\n",
                                          "other.cfg"))
        section, name = key.split(".")
        built = excfg.al if section == "loop" else getattr(excfg.al, section)
        assert str(getattr(built, name)).lower() == value

    def test_score_flags_are_the_keys_it_reads(self):
        args = vars(cli.build_parser().parse_args(["score", "--anchors", "a.txt"]))
        assert {k: v for k, v in args.items() if k not in ("command", "func")} == {
            "anchors": "a.txt", "comb": "sum", "agg": "avg", "w_cls": 1.0,
            "w_reg": 0.01, "empty_image_score": 0.0, "iou_threshold": 0.5,
            "cls_bayesian": False}

    def test_score_flag_defaults_are_the_acquisition_defaults(self):
        args = cli.build_parser().parse_args(["score", "--anchors", "a.txt"])
        assert AcquisitionConfig(comb=args.comb, agg=args.agg, w_cls=args.w_cls,
                                 w_reg=args.w_reg,
                                 empty_image_score=args.empty_image_score) \
            == AcquisitionConfig()

    @pytest.mark.parametrize("track", cli.TRACKS)
    def test_readme_key_table_is_the_track_keys(self, track):
        """README's key table of a track lists exactly its config keys."""
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        table = text.split(f"Keys of the {track} track", 1)[1].split("\n\n")[1]
        listed = [key for row in table.splitlines()[2:]
                  for key in re.findall(r"`([^`]+)`", row.split("|")[2])]
        assert sorted(listed) == sorted(cli.config_keys(track))

    def test_type_errors_are_line_anchored(self, tmp_path):
        bad = SMALL_CLS.replace("loop.iterations = 3", "loop.iterations = soon")
        with pytest.raises(cli.ConfigError, match="loop.iterations"):
            cli.load_config(write_cfg(tmp_path, bad))

    def test_track_flag_must_be_known(self, tmp_path):
        bad = SMALL_CLS.replace("track = classification", "track = regression")
        with pytest.raises(cli.ConfigError, match="track must be one of"):
            cli.load_config(write_cfg(tmp_path, bad))


# values no key of the kind accepts at load: not a number of the
# kind, not finite, or empty; letters without i and n spell no nan or inf
_WORDS = st.from_regex(r"[a-hj-mo-z]{1,8}", fullmatch=True)
_UNREADABLE = st.sampled_from(["", "nan", "NaN", "-nan", "inf", "-inf",
                               "+Infinity", "1,2", "[1]"])
BAD_VALUES = {
    int: _UNREADABLE | _WORDS | st.floats(allow_nan=False, allow_infinity=False).map(repr),
    float: _UNREADABLE | _WORDS,
    bool: _UNREADABLE | _WORDS.filter(lambda w: w not in ("true", "false", "yes"))
          | st.integers().filter(lambda v: v not in (0, 1)).map(str)
          | st.floats(allow_nan=False, allow_infinity=False).map(repr),
}
SCALAR_KEYS = [(track, key) for track in cli.TRACKS
               for key, (kind, _) in cli.config_keys(track).items() if kind in BAD_VALUES]


class TestConfigFuzz:
    def test_every_scalar_key_is_covered(self):
        kinds = {kind for track in cli.TRACKS
                 for kind, _ in cli.config_keys(track).values()}
        assert kinds - set(BAD_VALUES) == {str, list[int], list[str]}

    @pytest.mark.parametrize("track, key", SCALAR_KEYS,
                             ids=[f"{t[:3]}-{k}" for t, k in SCALAR_KEYS])
    def test_bad_scalar_is_one_error_line(self, tmp_path, capsys, track, key):
        """A value of the wrong type, non-finite or empty, for any int,
        float or bool key of either track, fails at load: `run` returns
        2, prints one `error:` line anchored at the key's line and
        writes nothing."""
        base = SMALL_CLS if track == "classification" else SMALL_DET
        lines = [ln for ln in base.splitlines() if not ln.startswith(f"{key} =")]
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"

        @settings(max_examples=12, deadline=None)
        @given(value=BAD_VALUES[cli.config_keys(track)[key][0]])
        def rejected(value):
            cfg.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(f"error: {re.escape(str(cfg))}:{len(lines) + 1}: "
                                f"[^\n]*{re.escape(repr(key))}[^\n]*\n", captured.err)
            assert not out.exists()

        rejected()

    @pytest.mark.parametrize("track", cli.TRACKS)
    @pytest.mark.parametrize("key", ["dataset.seed", "selection.seed"])
    def test_negative_seed_key_is_one_error_line(self, tmp_path, capsys, track, key):
        """A negative dataset or selection seed fails at load, anchored at
        its key's line, and not in the middle of the first run."""
        base = SMALL_CLS if track == "classification" else SMALL_DET
        lines = [ln for ln in base.splitlines() if not ln.startswith(f"{key} =")]
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"

        @settings(max_examples=6, deadline=None)
        @given(value=st.integers(max_value=-1))
        @example(value=-1)
        def rejected(value):
            cfg.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {cfg}:{len(lines) + 1}: {key!r}: "
                                    f"seed must be >= 0\n")
            assert not out.exists()

        rejected()


class TestCmdRun:
    def test_run_writes_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CLS)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "curve.csv").exists()
        assert (out / "manifest.txt").exists()
        csv = (out / "curve.csv").read_text().strip().splitlines()
        assert csv[0] == al.CSV_HEADER
        assert len(csv) == 1 + 2 * 4  # 2 seeds x (iterations + 1)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CLS)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli.main(["run", "--config", cfg, "--seed", "3",
                             "--out", str(out)]) == 0
            outs.append(((out / "curve.csv").read_bytes(),
                         (out / "manifest.txt").read_bytes()))
        assert outs[0] == outs[1]

    def test_artifacts_are_utf8_under_an_ascii_locale(self, tmp_path):
        """A non-ASCII name reaches the manifest as UTF-8 whatever the
        locale: under an ASCII one, run writes the bytes a UTF-8-mode run
        writes, and report reads them."""
        cfg = write_cfg(tmp_path, SMALL_DET.replace("name = det-smoke", "name = café"))
        manifests = []
        for tag, env in (("ascii", ASCII_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
            out = tmp_path / tag
            proc = python_process("-m", "sim2real_al.cli", "run", "--config", cfg,
                                  "--out", str(out), **env)
            assert proc.returncode == 0, proc.stderr
            manifests.append((out / "manifest.txt").read_bytes())
        assert manifests[0] == manifests[1]
        assert "config.name = café\n".encode() in manifests[0]
        proc = python_process("-m", "sim2real_al.cli", "report", str(tmp_path / "ascii"),
                              **ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert "mean_metric=" in proc.stdout

    def test_occupied_directory_fails_fast(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CLS)
        out = tmp_path / "busy"
        out.mkdir()
        (out / "curve.csv").write_text("old artifact")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert (out / "curve.csv").read_text() == "old artifact"

    @pytest.mark.parametrize("below", ["", "cell"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_naming_a_file_is_one_error_line(self, tmp_path, capsys, command,
                                                 below):
        cfg = write_cfg(tmp_path, SMALL_CLS)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = taken / below if below else taken
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: output path {out}: {taken} exists and is not a directory\n")
        assert taken.read_text() == "not a directory"

    def test_strategy_override(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CLS)
        out = tmp_path / "ovr"
        assert cli.main(["run", "--config", cfg, "--seed", "1",
                         "--strategy", "random", "--out", str(out)]) == 0
        manifest = al.read_manifest(out / "manifest.txt")
        assert manifest["run.1.strategy"] == "random"

    def test_malformed_config_nonzero_exit(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "garbage\n")
        assert cli.main(["run", "--config", bad, "--out",
                         str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err

    def test_short_subsample_writes_truncated_artifacts(self, tmp_path):
        # pool 100, B = 20, p = 0.25: the third sub-sample holds 15 < 20 ids
        text = (SMALL_CLS.replace("seeds = 1,2", "seeds = 1")
                .replace("pool_size = 120", "pool_size = 100")
                .replace("batch_size = 10", "batch_size = 20")
                .replace("subsample_fraction = 0.5", "subsample_fraction = 0.25")
                .replace("loop.iterations = 3", "loop.iterations = 5"))
        out = tmp_path / "short"
        assert cli.main(["run", "--config", write_cfg(tmp_path, text),
                         "--out", str(out)]) == 0
        manifest = al.read_manifest(out / "manifest.txt")
        assert manifest["run.1.truncated"] == "True"
        assert len(al.read_curve_csv(out / "curve.csv")[1]) == 3

    def test_detection_track_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_DET)
        out = tmp_path / "det"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert len(al.read_curve_csv(out / "curve.csv")[1]) == 3

    @pytest.mark.parametrize("command, text, args, message", [
        ("run", SMALL_CLS.replace("seeds = 1,2", "seeds = 1")
         .replace("learning_rate = 0.2", "learning_rate = 1e308"), [],
         "strategy 'subsample_topn', seed 1: training produced non-finite weights"),
        ("sweep", SMALL_CLS.replace("seeds = 1,2", "seeds = 1")
         .replace("learning_rate = 0.2", "learning_rate = 1e308"), [],
         "strategy 'random', seed 1: training produced non-finite weights"),
        ("run", SMALL_DET + "acquisition.w_cls = 1e308\n", ["--strategy", "topn"],
         "strategy 'topn', seed 1: image score must be finite"),
        # the weighted sim counts overflow, so the skill is NaN
        ("run", SMALL_DET + "surrogate.sim_weight = 1e308\n", [],
         "strategy 'subsample_topn', seed 1: surrogate.sim_weight 1e+308 makes the "
         "skill non-finite"),
    ], ids=["learning-rate", "learning-rate-sweep", "w-cls", "sim-weight"])
    def test_run_time_failure_is_one_error_line(self, tmp_path, command, text,
                                                args, message):
        """A cell whose values make the run fail exits 2 with one line
        naming its strategy and seed, writes no artifact and leaves no
        directory for the failed cell."""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        proc = python_process("-m", "sim2real_al.cli", command, "--config", cfg,
                              "--out", str(out), *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"
        assert not list(out.rglob("curve.csv")) and not list(out.rglob("manifest.txt"))
        strategy, seed = re.match(r"strategy '(\w+)', seed (\d+)", message).groups()
        assert not (out / f"{strategy}-s{seed}" if command == "sweep" else out).exists()

    @pytest.mark.parametrize("raised, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                     "(400, 1000000000000, 2) and data type float64"),
         "Unable to allocate 7.28 TiB for an array with shape "
         "(400, 1000000000000, 2) and data type float64"),
        (MemoryError(), "MemoryError")], ids=["numpy-message", "bare"])
    def test_memory_error_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                            raised, message):
        """A buffer the config asks for but the machine cannot hold, such
        as BatchBALD's (mc_count, C) buffers for a huge mc_count, ends
        in one error line and exit 2; here the selector raises as numpy
        would, so no large buffer is allocated."""
        def out_of_memory(*args, **kwargs):
            raise raised

        monkeypatch.setattr(al.sampling, "select_batchbald", out_of_memory)
        cfg = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 1")
                        + "selection.mc_count = 1000000000000\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--strategy", "batchbald"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: strategy 'batchbald', seed 1: {message}\n"
        assert not out.exists()

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        cfg = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 1"))
        assert cli.main(["run", "--config", cfg]) == 0
        assert (tmp_path / "root" / "smoke" / "curve.csv").exists()


class TestCmdSweep:
    def test_sweep_cells_and_report(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CLS)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        cells = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert cells == ["random-s1", "random-s2",
                         "subsample_topn-s1", "subsample_topn-s2"]
        for cell in cells:
            assert (out / cell / "manifest.txt").exists()
        assert (out / "sweep_report.txt").exists()
        report = (out / "sweep_report.txt").read_text()
        assert "random" in report and "subsample_topn" in report

    def test_one_reference_run_per_seed(self, tmp_path, monkeypatch):
        """Later cells of a seed reuse its run start, reference
        performance included, and each cell still writes the bytes of a
        lone `run`."""
        given = []

        def recording_run_al(cfg, datasets, learner, oracle, seed, start=None):
            given.append((cfg.selection.strategy, seed, start))
            return run_al(cfg, datasets, learner, oracle, seed, start)

        run_al = al.run_al
        monkeypatch.setattr(al, "run_al", recording_run_al)
        cfg = write_cfg(tmp_path, SMALL_CLS)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert [g[:2] for g in given] == [("random", 1), ("random", 2),
                                          ("subsample_topn", 1),
                                          ("subsample_topn", 2)]
        for seed in (1, 2):
            manifest = al.read_manifest(out / f"random-s{seed}" / "manifest.txt")
            assert given[seed + 1][2] is given[seed - 1][2]
            assert given[seed + 1][2].real_perf == float(manifest[f"run.{seed}.real_perf"])
        single = tmp_path / "single"
        assert cli.main(["run", "--config", cfg, "--seed", "2", "--out",
                         str(single)]) == 0
        for name in ("curve.csv", "manifest.txt"):
            assert ((out / "subsample_topn-s2" / name).read_bytes()
                    == (single / name).read_bytes())

    @pytest.mark.parametrize("text", [TINY_CLS_SWEEP, TINY_DET_SWEEP],
                             ids=["classification", "detection"])
    def test_cells_match_lone_runs_and_start_once_per_seed(self, tmp_path, monkeypatch,
                                                           capsys, text):
        """Every cell of a five-strategy sweep writes the bytes of the
        same lone `run --strategy s --seed n`, and the sweep computes
        each seed's start once: on classification one sim fit and one
        reference fit per seed (the fits that do not fine-tune), on
        detection one with_sim per seed."""
        counts = {"fresh_fits": 0, "with_sim": 0}
        fit, with_sim = MCDropoutClassifier.fit, al.DetectionSurrogate.with_sim

        def counting_fit(model, x, y, cfg):
            counts["fresh_fits"] += not cfg.fine_tune
            return fit(model, x, y, cfg)

        def counting_with_sim(surrogate, scenes):
            counts["with_sim"] += 1
            return with_sim(surrogate, scenes)

        monkeypatch.setattr(MCDropoutClassifier, "fit", counting_fit)
        monkeypatch.setattr(al.DetectionSurrogate, "with_sim", counting_with_sim)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        if "classification" in text:
            assert counts == {"fresh_fits": 2 * 2, "with_sim": 0}
        else:
            assert counts == {"fresh_fits": 0, "with_sim": 2}
        for strategy in FIVE_STRATEGIES:
            for seed in (1, 2):
                single = tmp_path / f"single-{strategy}-{seed}"
                assert cli.main(["run", "--config", cfg, "--strategy", strategy,
                                 "--seed", str(seed), "--out", str(single)]) == 0
                for name in ("curve.csv", "manifest.txt"):
                    assert ((out / f"{strategy}-s{seed}" / name).read_bytes()
                            == (single / name).read_bytes()), (strategy, seed, name)
        capsys.readouterr()

    def test_single_strategy_rejected(self, tmp_path):
        text = SMALL_CLS.replace("strategies = random,subsample_topn",
                                 "strategies = random")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "s")]) == 2

    def test_shared_seeds_share_datasets(self, tmp_path):
        """Iteration-0 metric agrees across strategies: same data draw."""
        cfg = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 5"))
        out = tmp_path / "sweep2"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        firsts = []
        for cell in ("random-s5", "subsample_topn-s5"):
            firsts.append(al.read_curve_csv(out / cell / "curve.csv")[5][0].metric)
        assert firsts[0] == firsts[1]


class TestCmdReport:
    def test_round_trip_exact(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2",
                                                         "seeds = 4"))
        out = tmp_path / "run"
        excfg = cli.load_config(cfg_path)
        curves = cli.execute_run(excfg, cli._cells(excfg, ["subsample_topn"], [4]), out)
        in_process = al.gap_report(curves[0])
        manifest = al.read_manifest(out / "manifest.txt")
        points = al.read_curve_csv(out / "curve.csv")
        rebuilt = al.gap_report(al.curve_from_artifacts(manifest, points, 4))
        assert rebuilt == in_process

    def test_groups_by_dataset_config(self, tmp_path, capsys):
        cfg_a = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 1"),
                          "a.cfg")
        cfg_b = write_cfg(tmp_path,
                          SMALL_CLS.replace("seeds = 1,2", "seeds = 1")
                          .replace("dataset.pool_size = 120",
                                   "dataset.pool_size = 140"),
                          "b.cfg")
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert cli.main(["run", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg_b, "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out_a), str(out_b)]) == 0
        report = capsys.readouterr().out
        assert "group 1" in report and "group 2" in report

    @pytest.mark.parametrize("edit, groups", [
        (("train.epochs = 6", "train.epochs = 2"), 2),
        (("selection.strategy = subsample_topn", "selection.strategy = random"), 1),
    ], ids=["epochs", "strategy"])
    def test_groups_by_every_value_but_name_seeds_and_strategy(self, tmp_path, capsys,
                                                               edit, groups):
        """Runs that differ in a value their track reads are not compared;
        runs that differ only in their strategy are."""
        text = SMALL_CLS.replace("seeds = 1,2", "seeds = 1")
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        for out, cfg_text, name in ((out_a, text, "a.cfg"),
                                    (out_b, text.replace(*edit), "b.cfg")):
            assert cli.main(["run", "--config", write_cfg(tmp_path, cfg_text, name),
                             "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out_a), str(out_b)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([ln for ln in lines if ln.startswith("group")]) == groups

    def test_corrupt_manifest_skipped_with_warning(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 1"))
        good = tmp_path / "good"
        assert cli.main(["run", "--config", cfg, "--out", str(good)]) == 0
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.txt").write_text("broken\n")
        capsys.readouterr()
        assert cli.main(["report", str(bad), str(good)]) == 0
        err = capsys.readouterr().err
        assert "skipping" in err

    @pytest.mark.parametrize("edit", [
        ("strategies = random,subsample_topn\n", ""),
        ("name = smoke\n", "name =\n"),
    ], ids=["no-strategies", "empty-name"])
    def test_report_reads_empty_values(self, tmp_path, capsys, edit):
        """`config.strategies = ` and `config.name = ` are read back."""
        text = SMALL_CLS.replace("seeds = 1,2", "seeds = 1").replace(*edit)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", write_cfg(tmp_path, text),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("group 1 (1 runs)\n")

    def test_report_reads_a_manifest_with_keys_the_track_does_not_read(self, tmp_path,
                                                                        capsys):
        """Manifests of classification runs once recorded the acquisition
        keys and the detection loop keys; `report` still reads them."""
        cfg = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 1"))
        new, old = tmp_path / "new", tmp_path / "old"
        assert cli.main(["run", "--config", cfg, "--out", str(new)]) == 0
        shutil.copytree(new, old)
        lines = (old / "manifest.txt").read_text().splitlines()
        config = [ln for ln in lines if ln.startswith("config.")] + [
            "config.acquisition.agg = avg", "config.acquisition.comb = sum",
            "config.acquisition.empty_image_score = 0.0",
            "config.acquisition.w_cls = 1.0", "config.acquisition.w_reg = 0.01",
            "config.loop.cls_bayesian = False", "config.loop.iou_threshold = 0.5"]
        lines = ([ln for ln in lines if not ln.startswith(("config.", "run."))]
                 + sorted(config) + [ln for ln in lines if ln.startswith("run.")])
        (old / "manifest.txt").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["report", str(old), str(new)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = dict(ln.split(maxsplit=1) for ln in captured.out.splitlines()
                    if ln.startswith("  "))
        assert rows.keys() == {str(old), str(new)}
        assert rows[str(old)] == rows[str(new)]
        groups = [ln for ln in captured.out.splitlines() if ln.startswith("group")]
        assert groups == ["group 1 (2 runs)"]

    @pytest.mark.parametrize("line, track", [("config.track = wobble\n", "'wobble'"),
                                             ("", "None")], ids=["unknown", "absent"])
    def test_manifest_without_a_known_track_skipped_with_warning(self, tmp_path, capsys,
                                                                 line, track):
        cfg = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 1"))
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert cli.main(["run", "--config", cfg, "--out", str(good)]) == 0
        shutil.copytree(good, bad)
        manifest = (bad / "manifest.txt").read_text()
        assert "\nconfig.track = classification\n" in manifest
        (bad / "manifest.txt").write_text(
            manifest.replace("config.track = classification\n", line))
        capsys.readouterr()
        assert cli.main(["report", str(bad), str(good)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"warning: skipping {bad}: unknown track {track}\n"
                                "(1 unreadable run(s) skipped)\n")
        assert captured.out.startswith("group 1 (1 runs)\n")

    @pytest.mark.parametrize("level", ["2.0", "nan", "-0.5"])
    def test_out_of_range_level_skipped_with_warning(self, tmp_path, capsys,
                                                     level):
        cfg = write_cfg(tmp_path, SMALL_CLS.replace("seeds = 1,2", "seeds = 1"))
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert cli.main(["run", "--config", cfg, "--out", str(good)]) == 0
        shutil.copytree(good, bad)
        manifest = (bad / "manifest.txt").read_text()
        assert "\nrun.1.level = 0.95\n" in manifest
        (bad / "manifest.txt").write_text(
            manifest.replace("run.1.level = 0.95", f"run.1.level = {level}"))
        capsys.readouterr()
        assert cli.main(["report", str(bad), str(good)]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith(f"warning: skipping {bad}")
        assert captured.out.startswith("group 1 (1 runs)\n")
        assert str(bad) not in captured.out
        assert cli.main(["report", str(bad)]) == 2

    def test_all_corrupt_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.txt").write_text("broken\n")
        capsys.readouterr()
        assert cli.main(["report", str(bad)]) == 2
        assert capsys.readouterr().err.endswith("error: no readable run directories\n")

    def test_damaged_artifacts_are_0_or_one_error_line(self, tmp_path, capsys):
        """Byte-level damage to a run's curve.csv, its manifest.txt or
        both never makes `report` raise: it returns 0, or 2 with one
        `error:` line and nothing on stdout."""
        good = tmp_path / "good"
        assert cli.main(["run", "--config", write_cfg(tmp_path, TINY_CLS_SWEEP),
                         "--strategy", "random", "--out", str(good)]) == 0
        files = {name: (good / name).read_bytes() for name in ("curve.csv", "manifest.txt")}
        bad = tmp_path / "bad"
        bad.mkdir()
        capsys.readouterr()

        @settings(max_examples=150, deadline=None)
        @given(data=st.data())
        def survives(data):
            hit = data.draw(st.sampled_from([["curve.csv"], ["manifest.txt"],
                                             ["curve.csv", "manifest.txt"]]))
            for name, text in files.items():
                (bad / name).write_bytes(data.draw(damaged(text)) if name in hit
                                         else text)
            rc = cli.main(["report", str(bad)])
            captured = capsys.readouterr()
            errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
            if rc == 0:
                assert captured.out.startswith("group 1 (")
                assert errors == []
            else:
                assert rc == 2
                assert captured.out == ""
                assert errors == ["error: no readable run directories"]

        survives()

    def test_not_bridged_rendered_as_greater_than(self, tmp_path, capsys):
        curve = al.LearningCurve(
            points=[al.CurvePoint(0, 0, 0.0, 0.5, 0.0),
                    al.CurvePoint(1, 10, 0.4, 0.6, 0.0)],
            sim_perf=0.5, real_perf=0.99, strategy="random", seed=0)
        report = al.gap_report(curve)
        assert cli._fmt_bridged([(report, curve)]) == "> 40.0%"
        # a sweep's strategy mean shares the rule, with no space after >
        bridged = replace(curve, real_perf=0.5)    # bridged at fraction 0.0
        runs = [(report, curve), (al.gap_report(bridged), bridged)]
        assert cli._fmt_bridged(runs, space="") == ">20.0%"
        assert cli._fmt_bridged(runs[1:] * 2, space="") == "0.0%"


class TestCmdScore:
    def test_score_ranks_noisier_image_higher(self, tmp_path, capsys):
        from sim2real_al.fusion import write_anchor_records
        from sim2real_al.synthdata import (DetectionSceneSpec,
                                           generate_detection_scenes,
                                           synth_detector_outputs)
        quiet = DetectionSceneSpec(n_classes=2, objects_min=1, objects_max=1,
                                   box_min=24.0, box_max=32.0,
                                   sigma_box=0.5, score_noise=0.1,
                                   true_logit=3.0)
        noisy = DetectionSceneSpec(n_classes=2, objects_min=1, objects_max=1,
                                   box_min=24.0, box_max=32.0,
                                   sigma_box=5.0, score_noise=2.0,
                                   true_logit=0.5)
        sc = generate_detection_scenes(quiet, 1, seed=1)
        records = [("calm", synth_detector_outputs(sc, quiet, [2])),
                   ("loud", synth_detector_outputs(sc, noisy, [3]))]
        path = tmp_path / "anchors.txt"
        write_anchor_records(path, records)
        assert cli.main(["score", "--anchors", str(path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "image_id,score,n_detections"
        assert out[1].startswith("loud,")

    def test_score_missing_file_errors(self, capsys):
        assert cli.main(["score", "--anchors", "/nonexistent/a.txt"]) == 2
        assert "cannot read" in capsys.readouterr().err

    GOOD_IMAGE = "image ok 2 2 1\n0.5 0.5\n0.5 0.5\n0 0 9 9\n1 1 10 10\n"

    @pytest.mark.parametrize("text, flags, named", [
        (GOOD_IMAGE + "image cut 2 2 1\n0.5 0.5\n0.5 0.5\n0 0 9 9\n", [], "image cut"),
        (GOOD_IMAGE + "image nan 2 1 1\nnan 0.5\n0 0 9 9\n", [], "image nan"),
        (GOOD_IMAGE + "image nan 2 1 1\nnan 0.5\n0 0 9 9\n",
         ["--cls-bayesian"], "image nan"),
        (GOOD_IMAGE + "image inf 2 1 1\n0.5 0.5\n0 0 inf 9\n", [], "image inf"),
        ("image neg 2 2 -1\n" + GOOD_IMAGE, [], "image neg"),
        (GOOD_IMAGE, ["--iou-threshold", "2"], "--iou-threshold"),
        (GOOD_IMAGE + GOOD_IMAGE.replace("ok", "dup") * 2, [], "image dup"),
        (GOOD_IMAGE, ["--empty-image-score", "nan"], "empty_image_score"),
    ], ids=["truncated", "nan-score", "nan-score-cls-bayesian", "inf-box",
            "negative-anchor-count", "iou-threshold-out-of-range",
            "duplicate-image-id", "nan-empty-image-score"])
    def test_score_bad_input_exits_2(self, tmp_path, capsys, text, flags, named):
        path = tmp_path / "anchors.txt"
        path.write_text(text)
        assert cli.main(["score", "--anchors", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert named in captured.err


    @pytest.mark.parametrize("flags, row", [
        ([], "e,0.0,0"),
        (["--empty-image-score", "-1.5"], "e,-1.5,0"),
    ])
    def test_score_empty_image_score(self, tmp_path, capsys, flags, row):
        path = tmp_path / "anchors.txt"
        path.write_text("image e 0 0 0\n")
        assert cli.main(["score", "--anchors", str(path), *flags]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "image_id,score,n_detections", row]

    def test_score_comma_in_image_id_exits_2(self, tmp_path, capsys):
        # a ',' in an id would add a field to the CSV row
        path = tmp_path / "anchors.txt"
        path.write_text(self.GOOD_IMAGE + "image a,b 1 1 1\n0.5\n0 0 1 1\n")
        assert cli.main(["score", "--anchors", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read anchor records: image a,b: ")

    @pytest.mark.parametrize("flags", [
        [], ["--cls-bayesian"], ["--comb", "max", "--agg", "sum"],
        ["--agg", "max", "--iou-threshold", "0.3", "--w-reg", "0.5"],
        ["--cls-bayesian", "--comb", "max", "--iou-threshold", "0.8"],
        ["--iou-threshold", "0", "--w-cls", "0"], ["--iou-threshold", "1"],
    ], ids=lambda flags: " ".join(flags) or "default")
    def test_score_stdout_matches_reference(self, tmp_path, capsys, flags):
        """`score` prints the bytes of the line-by-line reader, per-cluster
        fusion and per-detection scoring (tests_support_reference)."""
        rng = np.random.default_rng(len(flags))
        path = tmp_path / "anchors.txt"
        path.write_text("# dump\n" + "".join(
            dense_image_text(rng, f"img{i:03d}", n_objects=(0, 5), t=int(t),
                             loose=bool(i % 2))
            for i, t in enumerate(rng.choice([1, 3, 20], size=16))))
        assert cli.main(["score", "--anchors", str(path), *flags]) == 0
        args = cli.build_parser().parse_args(["score", "--anchors", str(path), *flags])
        cfg = AcquisitionConfig(comb=args.comb, agg=args.agg, w_cls=args.w_cls,
                                w_reg=args.w_reg)
        assert capsys.readouterr().out == reference_score_stdout(
            path, args.iou_threshold, args.cls_bayesian, cfg)

    def test_score_names_first_failing_image_in_file_order(self, tmp_path, capsys):
        # images are scored in one batch per sample shape, so 'late'
        # (T=2, like 'ok') runs before 'early' (T=1); the error still
        # names the first image of the file that fails on its own
        huge = "1e200 1e200 3e200 3e200\n"
        path = tmp_path / "anchors.txt"
        path.write_text(self.GOOD_IMAGE
                        + "image early 2 1 1\n0.5 0.5\n" + huge
                        + "image late 2 2 1\n0.5 0.5\n0.5 0.5\n" + huge * 2)
        assert cli.main(["score", "--anchors", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: image early: overflow")

    def test_damaged_file_is_0_or_one_error_line(self, tmp_path, capsys):
        """Byte-level damage to an interchange file never makes `score`
        raise: it returns 0 with the CSV on stdout, or 2 with exactly one
        `error:` line on stderr and nothing on stdout."""
        rng = np.random.default_rng(5)
        text = "# dump\n" + "".join(
            dense_image_text(rng, f"img{i}", n_objects=(0, 2), anchors_per_object=2,
                             t=2, loose=bool(i % 2)) for i in range(3))
        path = tmp_path / "anchors.txt"

        @settings(max_examples=200, deadline=None)
        @given(data=damaged(text.encode()))
        def survives(data):
            path.write_bytes(data)
            rc = cli.main(["score", "--anchors", str(path)])
            captured = capsys.readouterr()
            if rc == 0:
                assert captured.out.startswith("image_id,score,n_detections\n")
                assert captured.err == ""
            else:
                assert rc == 2
                assert captured.out == ""
                assert re.fullmatch(r"error: [^\n]*\n", captured.err)

        survives()

    def test_anchor_records_are_utf8_under_an_ascii_locale(self, tmp_path):
        """Under an ASCII locale, an image id outside ASCII is written,
        read back and printed by score as UTF-8."""
        path = tmp_path / "anchors.txt"
        write = ("import sys; from sim2real_al.fusion import read_anchor_records as read, "
                 "write_anchor_records as write; write(sys.argv[1], read(sys.argv[2]))")
        source = tmp_path / "source.txt"
        source.write_text(self.GOOD_IMAGE.replace("image ok", "image café"), encoding="utf-8")
        proc = python_process("-c", write, str(path), str(source), **ASCII_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "image café 2 2 1\n" in path.read_text(encoding="utf-8")
        proc = python_process("-m", "sim2real_al.cli", "score", "--anchors", str(path),
                              **ASCII_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1].startswith("café,")

    def test_score_overflow_is_one_error_line(self, tmp_path):
        # finite boxes whose areas overflow: stderr carries no numpy warnings
        big = "1e200 1e200 3e200 3e200\n2e200 2e200 5e200 5e200\n"
        path = tmp_path / "anchors.txt"
        path.write_text(self.GOOD_IMAGE + "image big 2 2 2\n"
                        + ("0.5 0.5\n0.5 0.5\n" + big) * 2)
        proc = python_process("-m", "sim2real_al.cli", "score", "--anchors", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: image big: ")


class TestPresetRuntime:
    def test_digits_preset_single_seed_fast(self, tmp_path):
        import time
        start = time.time()
        out = tmp_path / "preset"
        assert cli.main(["run", "--config", "digits-analog", "--seed", "1",
                         "--out", str(out)]) == 0
        assert time.time() - start < 300.0
        rows = (out / "curve.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 21  # header + (iterations + 1) rows per seed
