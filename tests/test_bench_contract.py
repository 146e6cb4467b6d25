"""The benchmark's span contract, checked in the unit suite.

perfbench/spans.py wraps the package's layer boundaries by name and
predicts, per workload, which of them a run calls (spans.COVERAGE).  A
refactor that renames, moves or bypasses one of those names makes a
traced benchmark run report `correct: false`.  These tests catch that
without a benchmark run: a tiny classification sweep, a tiny
detection sweep and a small `score` run under the tracer, every name
the tracer patches must exist, the calls must match the cls-sweep,
det-sweep and det-score predictions, and uninstalling the tracer must
restore the originals.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from tests_support_reference import dense_image_text

from sim2real_al import acquisition, cli, fusion, learner, loop, sampling

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

PKG = SimpleNamespace(acquisition=acquisition, cli=cli, fusion=fusion,
                      learner=learner, loop=loop, sampling=sampling)

# the benchmark's sweep strategies, on pools small enough for tier-1
TINY_CLS_SWEEP = f"""\
config_version = 1
track = classification
name = contract-cls
seeds = 1
dataset.n_classes = 4
dataset.dim = 4
dataset.sim_size = 30
dataset.pool_size = 40
dataset.test_size = 30
dataset.hidden_dim = 8
selection.batch_size = 4
train.epochs = 2
loop.iterations = 2
strategies = {workloads.STRATEGIES}
"""

TINY_DET_SWEEP = f"""\
config_version = 1
track = detection
name = contract-det
seeds = 1
dataset.sim_scenes = 6
dataset.pool_scenes = 16
dataset.test_scenes = 6
selection.batch_size = 3
loop.iterations = 2
strategies = {workloads.STRATEGIES}
"""


def attributes():
    """Every attribute of the traced modules and classes, by owner."""
    owners = [*vars(PKG).values(), learner.MCDropoutClassifier,
              loop.DetectionSurrogate]
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


@pytest.mark.parametrize("workload, text", [("cls-sweep", TINY_CLS_SWEEP),
                                            ("det-sweep", TINY_DET_SWEEP)])
def test_sweep_calls_match_span_contract(tmp_path, capsys, workload, text):
    config = tmp_path / "sweep.cfg"
    config.write_text(text)
    before = attributes()
    tracer = spans.Tracer()
    tracer.install(PKG)
    try:
        assert tracer.missing == []
        assert cli.main is not before[("sim2real_al.cli", "main")]
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    calls = tracer.totals()[0]
    assert spans.coverage_errors(workload, calls) == []
    # the benchmark's cell clock starts a cell at its builder call, so
    # each of the five cells builds once, runs once and is executed once
    assert (calls["loop.build_experiment"] == calls["loop.run_al"]
            == calls["cli.execute_run"] == 5)
    if workload == "cls-sweep":
        # one scoring call per topn, subsample_topn (whose TopN is a
        # select_topn call) or clue selection, never one per pool id
        selections = calls["sampling.select_topn"] + calls["sampling.select_clue"]
        assert calls["acquisition.categorical_entropy"] == selections == 6
    if workload == "det-sweep":
        # one detect per detection batch, not per scene: an evaluation's
        # test scenes, a scored or clue pool, and coreset's pool plus
        # labeled scenes; each runs the detection chain once.  The seed's
        # start (iteration 0 and the reference) is evaluated once for all
        # five strategies: 2 + 5 * 2 evaluations, 6 scored pools, 2 * 2
        # coreset batches
        batches = (calls["loop.evaluate_detection"] + calls["acquisition.score_image"]
                   + 2 * calls["sampling.select_coreset"])
        assert calls["loop.detect"] == batches == 22
        for name in ("synthdata.synth_detector_outputs", "fusion.bayesod_inference",
                     "fusion.cluster_anchors", "fusion.fuse_gaussian"):
            assert calls[name] == batches, name


def test_score_calls_match_span_contract(tmp_path, capsys):
    """`score` calls the reader, fusion and scoring through their home
    modules, where the tracer patches them."""
    rng = np.random.default_rng(3)
    path = tmp_path / "anchors.txt"
    path.write_text("".join(dense_image_text(rng, f"img{i}") for i in range(3)))
    tracer = spans.Tracer()
    tracer.install(PKG)
    try:
        assert tracer.missing == []
        assert cli.main(["score", "--anchors", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert spans.coverage_errors("det-score", tracer.totals()[0]) == []
