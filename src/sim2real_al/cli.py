"""Command-line entry point: run experiments, sweep strategies, report.

Subcommands
-----------
run     execute one experiment config (one strategy, one or more seeds)
        and write curve.csv + manifest.txt into a fresh directory
sweep   run >= 2 strategies on identical seeds and dataset draws, one
        run directory per (strategy, seed) cell, plus a comparison
        report of mean metrics and gap bridging
report  recompute gap reports from stored run directories
score   ingest an anchor-sample interchange file, run cluster-and-fuse
        plus entropy acquisition, and print ranked image scores

Config files are flat `key = value` text with dotted section prefixes;
`config_version = 1` is required.  A track accepts the `section.field`
keys of the fields its run reads, each with the type and default of its
field; `score` takes some detection keys as flags (see SECTIONS below).
Two presets ship with the package: digits-analog and detection-analog.
The default output root comes from $SIM2REAL_AL_OUTPUT_ROOT.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import typing
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

# cmd_score calls through the modules, where perfbench's tracer patches them
from . import acquisition, fusion
from . import loop as al
from .acquisition import AcquisitionConfig
from .learner import TrainConfig
from .rules import RuleError, hold
from .sampling import STRATEGY, SelectionConfig

OUTPUT_ROOT_ENV = "SIM2REAL_AL_OUTPUT_ROOT"

TRACKS = ("classification", "detection")


@functools.cache
def _field_kinds(cls) -> dict:
    """name -> (type, default) of each field of cls with a plain default."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)
            if f.default is not MISSING}


# A section feeds one dataclass on each reader of its keys: a track's run,
# or `score`, which takes them as flags.  A reader names the fields it reads
# (None: all with a plain default); the others keep their defaults there.
SECTIONS = {
    "dataset": {"classification": (al.ClassificationExperimentSpec, None),
                "detection": (al.DetectionExperimentSpec, None)},
    "surrogate": {"detection": (al.SurrogateParams, ("kappa", "sim_weight"))},
    "acquisition": dict.fromkeys(("detection", "score"), (AcquisitionConfig, None)),
    "selection": {"classification": (SelectionConfig, None),
                  "detection": (SelectionConfig, ("strategy", "batch_size",
                                                   "subsample_fraction", "seed"))},
    "train": {"classification": (TrainConfig, ("epochs", "learning_rate",
                                               "batch_size", "fine_tune"))},
    "loop": {"classification": (al.ALRunConfig, ("iterations", "level", "replay",
                                                 "mc_passes")),
             "detection": (al.ALRunConfig, ("iterations", "level", "iou_threshold",
                                            "cls_bayesian")),
             "score": (al.ALRunConfig, ("iou_threshold", "cls_bayesian"))},
}

# the keys listed by hand: key -> (type, default); config_version and
# track are checked before any other key
OTHER_KEYS = {
    "config_version": (int, None),
    "track": (str, None),
    "name": (str, ""),
    "seeds": (list[int], [0]),
    "strategies": (list[str], []),
}


class ConfigError(Exception):
    """Config problem with a file/line anchor where available, or a run
    that its config's values make fail; `main` prints it as one
    `error:` line and exits 2."""


def _section_fields(section: str, reader: str) -> tuple:
    """The dataclass a section feeds on a reader, and name -> (type,
    default) of each field the reader reads."""
    cls, names = SECTIONS[section][reader]
    kinds = _field_kinds(cls)
    return cls, {n: kinds[n] for n in names or kinds}


def _section_keys(reader: str) -> dict:
    """key -> (type, default) of every `section.field` key of a reader."""
    return {f"{section}.{n}": kind for section in SECTIONS if reader in SECTIONS[section]
            for n, kind in _section_fields(section, reader)[1].items()}


def config_keys(track: str) -> dict:
    """key -> (type, default) of every key a config of `track` may set."""
    return {**OTHER_KEYS, **_section_keys(track)}


def _built(section: str, reader: str, values: dict, anchor, **fixed):
    """A section's dataclass on a reader, from its keys' values.  A
    RuleError (see rules.py) names the failing field, or a nested key such
    as `surrogate.kappa`; it is re-raised after anchor(key), where it is set."""
    cls, exposed = _section_fields(section, reader)
    try:
        return cls(**{n: values[f"{section}.{n}"] for n in exposed}, **fixed)
    except RuleError as exc:
        key = exc.field if "." in exc.field else f"{section}.{exc.field}"
        raise ConfigError(f"{anchor(key)}: {exc}") from None


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


_PARSERS = {int: int, float: float, bool: _parse_bool, str: str}


def _convert(kind, raw, key, lineno, path):
    """raw as a value of kind: int, float, bool, str or a comma list of
    one of them (list[int], list[str]); empty list items are dropped."""
    item = typing.get_args(kind)[0] if typing.get_origin(kind) is list else None
    try:
        if item is None:
            return _PARSERS[kind](raw)
        return [_PARSERS[item](v.strip()) for v in raw.split(",") if v.strip()]
    except ValueError:
        name = kind.__name__ if item is None else f"{item.__name__}_list"
        raise ConfigError(f"{path}:{lineno}: key {key!r} expects {name}, "
                          f"got {raw!r}") from None


def _hold(rule, value, where: str):
    """value when it keeps rule (rules.hold), else a ConfigError of the
    rule's message after `where`, its anchor (file:line, or the flag)."""
    try:
        return hold(rule, value, where)
    except RuleError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _check_strategies(names, track: str, where: str) -> None:
    """Reject an unknown, repeated or track-incompatible strategy name;
    `where` anchors the message (file:line, or the flag)."""
    for i, name in enumerate(names):
        _hold(STRATEGY, name, where)
        _hold(al.TRACK_RULES[track], name, where)
        if name in names[:i]:
            raise ConfigError(f"{where}: repeated strategy {name!r}")


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Flat key = value lines into a raw {key: (value, lineno)} mapping."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)
    return raw


@dataclass
class ExperimentConfig:
    track: str
    name: str
    seeds: list[int]
    strategies: list[str]
    dataset_spec: object           # ClassificationExperimentSpec | DetectionExperimentSpec
    al: al.ALRunConfig
    resolved: dict                 # every config key -> final value (for manifests)


def load_config(path_or_preset: str, track_override: str = None,
                strategy_flag: list[str] = None) -> ExperimentConfig:
    text, label = resolve_config_text(path_or_preset)
    raw = parse_config_text(text, label)
    return build_experiment_config(raw, label, track_override, strategy_flag)


def resolve_config_text(path_or_preset: str) -> tuple[str, str]:
    """Config text plus a display label, from a file or a shipped preset."""
    p = Path(path_or_preset)
    if p.exists():
        try:
            return p.read_text(encoding="utf-8"), str(p)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{p}: config is not UTF-8 text ({exc.reason} "
                              f"at byte {exc.start})") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config {str(p)!r}: "
                              f"{exc.strerror}") from None
    name = path_or_preset if path_or_preset.endswith(".cfg") else path_or_preset + ".cfg"
    packaged = resources.files("sim2real_al").joinpath("presets").joinpath(name)
    if packaged.is_file():
        return packaged.read_text(encoding="utf-8"), f"preset:{path_or_preset}"
    raise ConfigError(f"config {path_or_preset!r} is neither a file nor a "
                      f"shipped preset")


def build_experiment_config(raw: dict, path: str, track_override: str = None,
                            strategy_flag: list[str] = None) -> ExperimentConfig:
    """Check and build every spec of a parsed config.  strategy_flag is
    the --strategy list, which is checked like the config's own
    strategies (and anchored at the flag)."""
    version_entry = raw.get("config_version")
    if version_entry is None:
        raise ConfigError(f"{path}:1: missing required key 'config_version'")
    if _convert(int, version_entry[0], "config_version",
                version_entry[1], path) != 1:
        raise ConfigError(f"{path}:{version_entry[1]}: unsupported "
                          f"config_version {version_entry[0]!r}")

    track = track_override or (raw.get("track", ("", 0))[0])
    if track not in TRACKS:
        lineno = raw.get("track", ("", 1))[1]
        raise ConfigError(f"{path}:{lineno}: track must be one of {TRACKS}, "
                          f"got {track!r}")

    keys = config_keys(track)
    values = {"track": track}
    for key, (value, lineno) in raw.items():
        if key == "track":
            continue
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} on the "
                              f"{track} track")
        values[key] = _convert(keys[key][0], value, key, lineno, path)
    for key, (_, default) in keys.items():
        values.setdefault(key, default)

    seeds = values["seeds"]
    where = f"{path}:{raw['seeds'][1]}" if "seeds" in raw else path
    if not seeds:
        raise ConfigError(f"{where}: 'seeds': need at least one seed")
    if len(set(seeds)) != len(seeds):
        repeated = next(s for i, s in enumerate(seeds) if s in seeds[:i])
        raise ConfigError(f"{where}: duplicate seed {repeated} in 'seeds'")
    _hold(al.SEED, min(seeds), f"{where}: 'seeds'")
    for key in ("selection.strategy", "strategies"):
        names = values[key] if key == "strategies" else [values[key]]
        where = f"{path}:{raw[key][1]}" if key in raw else path
        _check_strategies(names, track, f"{where}: {key!r}")
    if strategy_flag is not None:
        _check_strategies(strategy_flag, track, "--strategy")

    def anchor(key):   # a key's line, or the file when the key is not set
        return (f"{path}:{raw[key][1]}: {key!r}" if key in raw
                else f"{path}: {key!r} (not set, default {values[key]})")

    built = functools.partial(_built, reader=track, values=values, anchor=anchor)
    selection = built("selection")
    # a section the track does not read keeps its dataclass defaults
    parts = {s: built(s) for s in ("acquisition", "train") if track in SECTIONS[s]}
    extra = {"surrogate": built("surrogate")} if track == "detection" else {}
    dataset_spec = built("dataset", **extra)

    def run_config(strategy):
        return built("loop", selection=replace(selection, strategy=strategy), **parts)

    run_cfg = run_config(selection.strategy)
    for name in [*values["strategies"], *(strategy_flag or [])]:
        run_config(name)   # each strategy that may run must pass the loop rules

    return ExperimentConfig(track=track, name=values["name"], seeds=list(values["seeds"]),
                            strategies=list(values["strategies"]),
                            dataset_spec=dataset_spec, al=run_cfg, resolved=values)


# ---------------------------------------------------------------------------
# run execution
# ---------------------------------------------------------------------------

def _cells(excfg: ExperimentConfig, strategies, seeds):
    """loop.run_cells of the config, with the loop module's builder."""
    build = (al.build_classification_experiment if excfg.track == "classification"
             else al.build_detection_experiment)
    return al.run_cells(excfg.al, functools.partial(build, excfg.dataset_spec),
                        strategies, seeds)


def _check_fresh(path: Path) -> None:
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output path {path}: {existing} exists and is "
                          f"not a directory")
    if path.exists() and any(path.iterdir()):
        raise ConfigError(f"output directory {path} already contains run "
                          f"artifacts; refusing to overwrite")


def execute_run(excfg: ExperimentConfig, cells, out_dir: Path) -> list[al.LearningCurve]:
    """Run the (strategy, seed, run) cells of one strategy (see
    loop.run_cells) and write their artifacts.  A failing cell raises
    ConfigError naming its strategy and seed; out_dir is created only
    once every cell has run."""
    _check_fresh(out_dir)
    curves = []
    for strategy, seed, run in cells:
        # a config's values can make the run itself fail, such as a
        # learning rate that drives the weights to overflow or an
        # mc_count whose buffer cannot be allocated; the error line then
        # replaces the numpy warnings that led up to it
        with warnings.catch_warnings(record=True) as caught:
            try:
                curves.append(run())
            except (ValueError, ArithmeticError, MemoryError) as exc:
                raise ConfigError(f"strategy {strategy!r}, seed {seed}: "
                                  f"{str(exc) or type(exc).__name__}") from None
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    out_dir.mkdir(parents=True, exist_ok=True)
    al.write_curve_csv(out_dir / "curve.csv", curves)
    items = {**excfg.resolved, "selection.strategy": curves[0].strategy,
             "seeds": ",".join(str(c.seed) for c in curves),
             "strategies": ",".join(excfg.strategies)}
    al.write_manifest(out_dir / "manifest.txt", items, curves)
    return curves


def _default_out(excfg: ExperimentConfig, config_arg: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    name = excfg.name or Path(config_arg).stem
    return Path(root) / name


def _seeds(args, excfg: ExperimentConfig) -> list[int]:
    """The config's seeds, or the one --seed overriding them."""
    if args.seed is None:
        return excfg.seeds
    return [_hold(al.SEED, args.seed, "--seed")]


def cmd_run(args) -> int:
    excfg = load_config(args.config, args.track,
                        [args.strategy] if args.strategy else None)
    seeds = _seeds(args, excfg)
    strategy = args.strategy or excfg.al.selection.strategy
    out_dir = Path(args.out) if args.out else _default_out(excfg, args.config)
    curves = execute_run(excfg, _cells(excfg, [strategy], seeds), out_dir)
    for curve in curves:
        report = al.gap_report(curve)
        print(f"seed {curve.seed}: strategy={curve.strategy} "
              f"mean_metric={report.mean_metric:.4f} "
              f"bridged={_fmt_bridged([(report, curve)])}")
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    flag = None
    if args.strategy:
        flag = [s.strip() for s in args.strategy.split(",") if s.strip()]
    excfg = load_config(args.config, args.track, flag)
    strategies = excfg.strategies if flag is None else flag
    if len(strategies) < 2:
        raise ConfigError("sweep needs at least 2 strategies "
                          "(set 'strategies = a,b,...' in the config)")
    seeds = _seeds(args, excfg)
    out_root = Path(args.out) if args.out else _default_out(excfg, args.config)
    _check_fresh(out_root)

    rows = []
    for cell in _cells(excfg, strategies, seeds):
        strategy, seed, _ = cell
        curve, = execute_run(excfg, [cell], out_root / f"{strategy}-s{seed}")
        rows.append((strategy, seed, al.gap_report(curve), curve))

    text = _sweep_report_text(rows)
    (out_root / "sweep_report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    print(f"sweep artifacts written to {out_root}")
    return 0


def _fmt_bridged(runs, space: str = " ") -> str:
    """The mean bridged fraction of (GapReport, curve) runs, in percent: an
    unbridged run counts its largest labeled fraction and puts > in front."""
    fracs = [max(p.labeled_fraction for p in c.points) if r.bridged_fraction is None
             else r.bridged_fraction for r, c in runs]
    bridged = all(r.bridged_fraction is not None for r, _ in runs)
    return f"{'' if bridged else '>' + space}{100 * sum(fracs) / len(fracs):.1f}%"


def _sweep_report_text(rows) -> str:
    lines = ["strategy, seed, bridged_fraction, mean_metric"]
    for strategy, seed, report, curve in rows:
        lines.append(f"{strategy}, {seed}, {_fmt_bridged([(report, curve)])}, "
                     f"{report.mean_metric:.6f}")
    lines.append("")
    by_strategy: dict[str, list] = {}
    for strategy, _, report, curve in rows:
        by_strategy.setdefault(strategy, []).append((report, curve))
    lines.append("strategy means:")
    for strategy, items in by_strategy.items():
        mean_metric = sum(r.mean_metric for r, _ in items) / len(items)
        lines.append(f"  {strategy}: mean_metric={mean_metric:.6f} "
                     f"mean_bridged={_fmt_bridged(items, space='')}")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    groups: dict[tuple, list] = {}
    skipped = 0
    for raw_dir in args.run_dirs:
        run_dir = Path(raw_dir)
        try:
            manifest = al.read_manifest(run_dir / "manifest.txt")
            points = al.read_curve_csv(run_dir / "curve.csv")
            track = manifest.get("config.track")
            if track not in TRACKS:
                raise ValueError(f"unknown track {track!r}")
        except (OSError, ValueError, KeyError) as exc:
            print(f"warning: skipping {run_dir}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        # a group shares every value its track reads but the config's name
        # and the seeds and strategies that the runs of one comparison vary;
        # a manifest line for a key the track does not read changes nothing
        read = {f"config.{k}" for k in config_keys(track).keys()
                - {"name", "seeds", "strategies", "selection.strategy"}}
        key = tuple(sorted((k, v) for k, v in manifest.items() if k in read))
        for seed in sorted(points):
            try:
                curve = al.curve_from_artifacts(manifest, points, seed)
                report = al.gap_report(curve)
            except (KeyError, ValueError) as exc:
                print(f"warning: skipping {run_dir} seed {seed}: {exc}",
                      file=sys.stderr)
                skipped += 1
                continue
            groups.setdefault(key, []).append((str(run_dir), curve, report))
    if not groups:
        raise ConfigError("no readable run directories")

    for gi, (key, entries) in enumerate(sorted(groups.items()), start=1):
        print(f"group {gi} ({len(entries)} runs)")
        for run_dir, curve, report in entries:
            print(f"  {run_dir} seed={curve.seed} strategy={curve.strategy} "
                  f"gap={report.gap:.4f} bridged={_fmt_bridged([(report, curve)])} "
                  f"mean_metric={report.mean_metric:.6f}")
    if skipped:
        print(f"({skipped} unreadable run(s) skipped)", file=sys.stderr)
    return 0


def _flag(key: str) -> str:   # the `score` flag of a `section.field` key
    return "--" + key.split(".")[1].replace("_", "-")


def cmd_score(args) -> int:
    values = {k: getattr(args, k.split(".")[1]) for k in _section_keys("score")}
    built = functools.partial(_built, reader="score", values=values, anchor=_flag)
    cfg = built("loop", acquisition=built("acquisition"))
    try:
        records = fusion.read_anchor_records(args.anchors)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read anchor records: {exc}") from None

    def score_all(records):
        """(image_id, score, n_detections) rows, one batch per shape (T, C)."""
        batches = {}
        for image_id, anchors in records:
            batches.setdefault(anchors.scores.shape[1:], []).append((image_id, anchors))
        rows = []
        # finite samples so large that fusion overflows cannot be scored
        with np.errstate(over="raise"):
            for batch in batches.values():
                ids, parts = zip(*batch)
                detections = fusion.bayesod_inference(fusion.Anchors.concatenate(parts),
                                                      cfg.iou_threshold,
                                                      cfg.cls_bayesian)
                scores = acquisition.score_image(detections, cfg.acquisition)
                # tolist: Python floats, whose repr is the plain literal
                rows += zip(ids, scores.tolist(), np.diff(detections.offsets).tolist())
        return rows

    try:
        scored = score_all(records)
    except (ValueError, FloatingPointError) as batch_exc:
        # name the first image, in file order, that fails on its own
        for image_id, anchors in records:
            try:
                score_all([(image_id, anchors)])
            except (ValueError, FloatingPointError) as exc:
                raise ConfigError(f"image {image_id}: {exc}") from None
        raise ConfigError(str(batch_exc)) from None
    scored.sort(key=lambda row: (-row[1], str(row[0])))
    print("image_id,score,n_detections")
    for image_id, score, n_detections in scored:
        print(f"{image_id},{score!r},{n_detections}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim2real-al",
        description="Bayesian active learning over a simulated sim-to-real gap")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True,
                       help="config file path or preset name")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seeds with one seed")
    run_p.add_argument("--out", default=None, help="output run directory")
    run_p.add_argument("--strategy", default=None,
                       help="override selection.strategy")
    run_p.add_argument("--track", choices=TRACKS, default=None)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="compare strategies on shared seeds")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default=None, help="output root directory")
    sweep_p.add_argument("--strategy", default=None,
                         help="comma list overriding 'strategies'")
    sweep_p.add_argument("--track", choices=TRACKS, default=None)
    sweep_p.set_defaults(func=cmd_sweep)

    report_p = sub.add_parser("report", help="summarize stored run directories")
    report_p.add_argument("run_dirs", nargs="+")
    report_p.set_defaults(func=cmd_report)

    score_p = sub.add_parser("score",
                             help="score an anchor-sample interchange file")
    score_p.add_argument("--anchors", required=True,
                         help="anchor records file (interchange format)")
    flag_help = {"acquisition.empty_image_score": "score of an image with no detections",
                 "loop.cls_bayesian": "fuse class scores too, not only boxes"}
    for key, (kind, default) in _section_keys("score").items():
        parse = {"action": "store_true"} if kind is bool else {"type": _PARSERS[kind]}
        score_p.add_argument(_flag(key), default=default, help=flag_help.get(key), **parse)
    score_p.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    # stdout carries score's table, whose image ids come from a UTF-8
    # file: it is UTF-8 too, as every artifact is, whatever the locale
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
