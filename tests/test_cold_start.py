"""What a fresh interpreter loads: scipy.special and scipy.spatial only
where a strategy calls them, and before a run's first cell.

Each check runs in a subprocess, since the test process itself has long
loaded scipy.  The scripts print what they found as one Python literal
on the last line of stdout.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
SCIPY = ("scipy.special", "scipy.spatial")

def loaded():
    return [m for m in SCIPY if m in sys.modules]

from sim2real_al import acquisition, cli, fusion, learner, loop, sampling
assert loaded() == [], loaded()
"""


def run_script(tmp_path, body: str):
    """Runs PRELUDE + body in a fresh interpreter, in tmp_path, and
    returns the literal on its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_runs_without_scipy_strategies_never_load_it(tmp_path):
    """Importing the six modules, `--help`, a config error, `run` with
    batchbald or random on either track, and `report` leave
    scipy.special and scipy.spatial unloaded."""
    (tmp_path / "cls.cfg").write_text(TINY_CLS)
    (tmp_path / "det.cfg").write_text(TINY_DET)
    (tmp_path / "bad.cfg").write_text(TINY_CLS + "train.epochs = 0\n")
    found = run_script(tmp_path, """\
import contextlib, io
steps = {}
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        steps["--help"] = (exc.code, loaded())
    steps["config error"] = (cli.main(["run", "--config", "bad.cfg"]), loaded())
    for name, cfg, strategy in [("cls-batchbald", "cls.cfg", "batchbald"),
                                ("cls-random", "cls.cfg", "random"),
                                ("det-random", "det.cfg", "random")]:
        steps[name] = (cli.main(["run", "--config", cfg, "--strategy", strategy,
                                 "--out", name]), loaded())
    steps["report"] = (cli.main(["report", "cls-batchbald", "cls-random",
                                 "det-random"]), loaded())
print(steps)
""")
    assert found == {"--help": (0, []), "config error": (2, []),
                     "cls-batchbald": (0, []), "cls-random": (0, []),
                     "det-random": (0, []), "report": (0, [])}


@pytest.mark.parametrize("strategies", [["topn"], ["coreset"], ["random", "clue"]])
def test_run_cells_loads_scipy_before_the_first_build(tmp_path, strategies):
    """When one of its strategies calls scipy, run_cells has loaded both
    modules by its first build call, so no cell pays for the import."""
    found = run_script(tmp_path, f"""\
class Built(Exception):
    pass

seen = []

def build(seed):
    seen.append(loaded())
    raise Built

cells = loop.run_cells(loop.ALRunConfig(), build, {strategies!r}, [1])
assert loaded() == [], loaded()
_, _, run = next(cells)
try:
    run()
except Built:
    pass
print(seen)
""")
    assert found == [["scipy.special", "scipy.spatial"]]
