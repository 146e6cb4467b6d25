"""What a fresh interpreter loads: numpy is the one run-time dependency.
No command loads any scipy module, and every command that runs a
selection or scores an image works with scipy blocked from import.

Each check runs in a subprocess, since the test process itself has long
loaded scipy.  The scripts print what they found as one Python literal
on the last line of stdout.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

TINY_CLS = """\
config_version = 1
track = classification
seeds = 1
dataset.n_classes = 3
dataset.dim = 3
dataset.sim_size = 30
dataset.pool_size = 30
dataset.test_size = 30
dataset.hidden_dim = 8
selection.batch_size = 4
train.epochs = 2
loop.iterations = 2
"""

TINY_DET = """\
config_version = 1
track = detection
seeds = 1
dataset.sim_scenes = 6
dataset.pool_scenes = 12
dataset.test_scenes = 6
selection.batch_size = 3
loop.iterations = 2
"""

PRELUDE = """\
import sys

def loaded():
    return sorted(m for m, module in sys.modules.items()
                  if module is not None and m.partition(".")[0] == "scipy")

from sim2real_al import acquisition, cli, fusion, learner, loop, sampling
assert loaded() == [], loaded()
"""

# `main(argv)` runs one command with its output captured and returns its
# exit status
MAIN = """\
import contextlib, io

def main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
"""


def write_inputs(tmp_path) -> None:
    (tmp_path / "cls.cfg").write_text(TINY_CLS)
    (tmp_path / "det.cfg").write_text(TINY_DET)
    (tmp_path / "bad.cfg").write_text(TINY_CLS + "train.epochs = 0\n")
    rng = np.random.default_rng(5)
    lines = ["image a 2 3 2"]
    for _ in range(2):
        lines += [" ".join(repr(float(v)) for v in row)
                  for row in [*rng.uniform(0.0, 1.0, (3, 2)),
                              *(np.array([10.0, 10.0, 30.0, 30.0])
                                + rng.normal(0.0, 1.0, (3, 4)))]]
    (tmp_path / "anchors.txt").write_text("\n".join(lines) + "\n")


def run_script(tmp_path, body: str, prelude: str = PRELUDE):
    """Runs prelude + MAIN + body in a fresh interpreter, in tmp_path, and
    returns the literal on its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", prelude + MAIN + body], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_no_command_loads_scipy(tmp_path):
    """`--help`, a config error, `run` of every strategy of either track,
    `sweep`, `score` and `report` each exit as expected and leave every
    scipy module unloaded."""
    write_inputs(tmp_path)
    found = run_script(tmp_path, """\
steps = {"--help": (main(["--help"]), loaded()),
         "config error": (main(["run", "--config", "bad.cfg"]), loaded())}
runs = []
for track, cfg in [("classification", "cls.cfg"), ("detection", "det.cfg")]:
    for strategy in loop.TRACK_STRATEGIES[track]:
        name = f"{track}-{strategy}"
        steps[name] = (main(["run", "--config", cfg, "--strategy", strategy,
                             "--out", name]), loaded())
        runs.append(name)
steps["sweep"] = (main(["sweep", "--config", "det.cfg", "--strategy", "random,coreset",
                        "--out", "sweep"]), loaded())
steps["score"] = (main(["score", "--anchors", "anchors.txt"]), loaded())
steps["score --cls-bayesian"] = (main(["score", "--anchors", "anchors.txt",
                                       "--cls-bayesian"]), loaded())
steps["report"] = (main(["report", *runs]), loaded())
print(steps)
""")
    codes = {"--help": 0, "config error": 2}
    assert found == {step: (codes.get(step, 0), []) for step in found}
    assert len(found) == 2 + 6 + 5 + 4


def test_commands_run_with_scipy_blocked(tmp_path):
    """With sys.modules["scipy"] = None, importing any scipy module
    raises; tiny coreset, clue and topn runs on both tracks and a
    `score` still exit 0."""
    write_inputs(tmp_path)
    found = run_script(tmp_path, """\
steps = {}
for cfg in ["cls.cfg", "det.cfg"]:
    for strategy in ["coreset", "clue", "topn"]:
        steps[f"{cfg} {strategy}"] = main(["run", "--config", cfg, "--strategy",
                                           strategy, "--out", f"{cfg}-{strategy}"])
steps["score"] = main(["score", "--anchors", "anchors.txt"])
try:
    import scipy.spatial  # noqa: F401
    steps["blocked"] = False
except ImportError:
    steps["blocked"] = True
print(steps)
""", prelude='import sys\nsys.modules["scipy"] = None\n' + PRELUDE)
    assert found == {"cls.cfg coreset": 0, "cls.cfg clue": 0, "cls.cfg topn": 0,
                     "det.cfg coreset": 0, "det.cfg clue": 0, "det.cfg topn": 0,
                     "score": 0, "blocked": True}
