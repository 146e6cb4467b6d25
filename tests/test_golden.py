"""Golden artifact digests: the (config, seed) -> bytes contract.

Each cell runs one tiny config through the CLI and compares the sha256
of curve.csv and manifest.txt with a recorded digest; the `score` cells
do the same for the stdout of `sim2real-al score` on an interchange
file written here.  A `sweep` over every strategy of a track must give
each of its cells the digests of the matching `run` cell, although the
sweep computes each seed's reference performance only once.  A
refactor that keeps behaviour passes unchanged; a deliberate numerics
change regenerates the digests in the same change and says so in
CHANGES.md.

Floating-point results depend on the numpy build, so the digests are
only checked with the numpy version they were recorded with.

To regenerate: python tests/test_golden.py (prints the digest tables).
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from sim2real_al import cli

RECORDED_WITH_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_WITH_NUMPY,
    reason=f"golden digests were recorded with numpy {RECORDED_WITH_NUMPY}; "
           f"installed numpy {np.__version__}")

TINY_CLS = """\
config_version = 1
track = classification
name = golden-cls
seeds = 1
dataset.seed = 3
dataset.n_classes = 4
dataset.dim = 4
dataset.sim_size = 40
dataset.pool_size = 60
dataset.test_size = 60
dataset.hidden_dim = 8
selection.batch_size = 6
selection.subsample_fraction = 0.5
selection.mc_count = 16
train.epochs = 3
train.batch_size = 16
loop.iterations = 2
loop.mc_passes = 4
strategies = random,topn
"""

TINY_DET = """\
config_version = 1
track = detection
name = golden-det
seeds = 1
dataset.seed = 3
dataset.objects_max = 4
dataset.sim_scenes = 12
dataset.pool_scenes = 30
dataset.test_scenes = 15
selection.batch_size = 6
loop.iterations = 2
strategies = random,topn
"""

TINY_DET_CLS_BAYESIAN = TINY_DET + "loop.cls_bayesian = true\nacquisition.agg = max\n"

RUN_CELLS = {
    "cls-random": (TINY_CLS, "random"),
    "cls-topn": (TINY_CLS, "topn"),
    "cls-subsample_topn": (TINY_CLS, "subsample_topn"),
    "cls-coreset": (TINY_CLS, "coreset"),
    "cls-clue": (TINY_CLS, "clue"),
    "cls-batchbald": (TINY_CLS, "batchbald"),
    "det-random": (TINY_DET, "random"),
    "det-topn": (TINY_DET, "topn"),
    "det-subsample_topn": (TINY_DET, "subsample_topn"),
    "det-coreset": (TINY_DET, "coreset"),
    "det-clue": (TINY_DET, "clue"),
    "det-clue-cls_bayesian-max": (TINY_DET_CLS_BAYESIAN, "clue"),
}

# track prefix -> (config, strategies of one `sweep` over the track)
SWEEPS = {
    "cls": (TINY_CLS, "random,topn,subsample_topn,coreset,clue,batchbald"),
    "det": (TINY_DET, "random,topn,subsample_topn,coreset,clue"),
}

# cell -> (sha256 of curve.csv, sha256 of manifest.txt)
RUN_DIGESTS = {
    "cls-batchbald": (
        "582fa9ce2edfddc8133e600b89463abf1b792bbb6a6cdc481952615a4c54561e",
        "7cbe24dced9ab3a74e6c532af9ad54b10a708d1dc096fd5f38806051f9941254"),
    "cls-clue": (
        "ce04b08adb6c5e629593b8338832e68e15827f25425af6ac5f945fd6c4b6a6b3",
        "92e855aeb46109f6e73ff130d75a1eedd68f9163b6bebbd7f330d4ab0fd28e90"),
    "cls-coreset": (
        "214c8e6363bccd574d13be145fbeabf1acfd83f89965583b4d865e471902cc22",
        "ff4fbee11dd4fe8007d76341065f2d3b3cfbb39c073dad6c7bf59c6d8061fae5"),
    "cls-random": (
        "ac489426ea2ac2b4f392fd0b46a32cf61daf11739d65cc83470fe23ec5076c0f",
        "745a9090806f4dd3d2effb1aa7dd8966c43e2304b559d08d373ee3656addda46"),
    "cls-subsample_topn": (
        "6b995c943ba795b165df0008624276e244ff4865e813c309b5d8ef72d8fe9436",
        "087e2f23da6e5bf329cc7d7878dc16c4bca3eb192182a0efccabad572b10ff3b"),
    "cls-topn": (
        "4f617703d9604e28273e331d9fb048199ef5d2025e4f8f3eb77d7c45837b6773",
        "c4fdf8b9bb2bb0988cc8171791f853477ddc65577457315afae5e9b983fed667"),
    "det-clue": (
        "49c4462541029b8fad818f2d866cb8a55867558752c520a8e7b9665659d9f563",
        "7369c60607a8738cc90e018c0a77805246d4cff37618a7c9b4b08a019606c7e9"),
    "det-clue-cls_bayesian-max": (
        "e7ff8cf674cd88da8f79d3c3e82e85c02f5709c2a1e7af811f8da484f2508bfe",
        "3b768387b480f94b6bce33eb1e2eece214da7b7b30892beea8d811eb3f84dad5"),
    "det-coreset": (
        "9b5f0cc757720bead31ceb6f601f95554c0455089ea99f9b0e16c0b08a1b1fa1",
        "ce95cb548b93d7b714f96e3a6751e427004760179d1ab7b2ac226081466e9b78"),
    "det-random": (
        "1cc1d27999018260a3e14b5079f7f4c40b1ed65e49735b0af21dc25fdd3f7711",
        "7761ba7de7d862b64d75cd6ff3142b1de4e2515bbd920fadaf5a82c743574d00"),
    "det-subsample_topn": (
        "5a88803129781edeeeede2322071967fba9e00d8b0d4a72a2479f92bcccc61b9",
        "ad470972dfe876210243456706d61865bbdd68fe2a45a47a4badba3fbf941d15"),
    "det-topn": (
        "362bcb6733889dfdef380b44fc09e6ca19d7ee95f943c08a53928cb794bafc15",
        "58586cd291eceb17e7b744dccd0b65e0b49f3a2adc9b84670e4a96a3b9b5fb36"),
}

# extra `score` flags -> sha256 of stdout; a leading "dense" scores the
# file of write_dense_interchange instead of write_interchange
SCORE_DIGESTS = {
    "": "f059f4f1ef9b773b75218a97cc4b5e88ab27da533ad6b71c1167e163b14402c4",
    "--cls-bayesian": "4fd4b9efc112abcd45239c832627e92e32d383fc064db1cc076e9d9b21e5a7b4",
    "dense --comb max --agg sum": "52e030f64565f4713e00b39b8058a69aebe1fdee83f3a524d2cf3ba8cc44d53d",
    "dense --cls-bayesian": "700986726acf4be8d2c144e12749bde36abee9f74091acccc5dff5d764d1fce6",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cell(tmp_path, cell):
    text, strategy = RUN_CELLS[cell]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(cfg), "--strategy", strategy,
                         "--out", str(out)]) == 0
    return (_sha((out / "curve.csv").read_bytes()),
            _sha((out / "manifest.txt").read_bytes()))


def sweep_cells(tmp_path, track):
    """{run cell name: digests} of every cell of one tiny sweep."""
    text, strategies = SWEEPS[track]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(text)
    out = tmp_path / "sweep"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--config", str(cfg), "--strategy",
                         strategies, "--out", str(out)]) == 0
    return {f"{track}-{strategy}":
            tuple(_sha((out / f"{strategy}-s1" / name).read_bytes())
                  for name in ("curve.csv", "manifest.txt"))
            for strategy in strategies.split(",")}


def write_interchange(path) -> None:
    """Six images in the interchange format, written as text so the file
    does not depend on the package's writer: clustered multi-object
    images, one T=1 image and one image with no anchors."""
    rng = np.random.default_rng(2024)
    lines = ["# golden interchange file"]
    layout = [("a", 3, 4, 2), ("b", 2, 6, 3), ("t1", 3, 1, 2),
              ("empty", 0, 0, 0), ("c", 4, 3, 1), ("d", 1, 5, 4)]
    for image_id, n_classes, t, n_objects in layout:
        anchors = []
        for _ in range(n_objects):
            corner = rng.uniform(0.0, 60.0, 2)
            box = np.concatenate([corner, corner + rng.uniform(10.0, 30.0, 2)])
            for _ in range(int(rng.integers(1, 4))):
                scores = rng.uniform(0.0, 1.0, (t, n_classes))
                boxes = box + rng.normal(0.0, 1.5, (t, 4))
                anchors.append((scores, boxes))
        lines.append(f"image {image_id} {n_classes} {t} {len(anchors)}")
        for scores, boxes in anchors:
            lines += [" ".join(repr(float(v)) for v in row)
                      for row in [*scores, *boxes]]
    path.write_text("\n".join(lines) + "\n")


def write_dense_interchange(path) -> None:
    """Eight images shaped like detector dumps: 8 anchors per object,
    T=20 samples, 3 classes, fixed-precision values, with comment and
    blank lines inside the blocks and tabs or repeated spaces between
    and around the values."""
    rng = np.random.default_rng(77)
    seps = [" ", "  ", "\t", " \t ", "\t\t"]
    junk = ["# detector dump", "   # indented comment", "", "   ", "\t"]

    def row(values, fmt):
        gaps = rng.choice(seps, size=len(values) + 1)
        text = "".join(g + fmt % v for g, v in zip(gaps, values))
        return text + (gaps[-1] if rng.random() < 0.2 else "")

    lines = ["# dense interchange file", ""]
    for i in range(8):
        n_obj = int(rng.integers(1, 5))
        wh = rng.uniform(20.0, 60.0, (n_obj, 2))
        corner = rng.uniform(0.0, 100.0, (n_obj, 2))
        gt = np.concatenate([corner, corner + wh], axis=1)
        lines.append(f"image dense{i} 3 20 {8 * n_obj}")
        for box in gt:
            cls = int(rng.integers(0, 3))
            for _ in range(8):
                center = box + rng.normal(0.0, 3.0, 4)
                spread = rng.uniform(0.5, 4.0)
                logits = np.full((20, 3), -3.0)
                logits[:, cls] = 2.0
                logits += rng.normal(0.0, 1.0) * rng.standard_normal((20, 3))
                scores = np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-6, 1 - 1e-6)
                boxes = center + spread * rng.standard_normal((20, 4))
                rows = ([row(s, "%.6f") for s in scores]
                        + [row(b, "%.3f") for b in boxes])
                for text in rows:
                    lines.append(text)
                    if rng.random() < 0.03:
                        lines.append(str(rng.choice(junk)))
    path.write_text("\n".join(lines) + "\n")


def score_stdout(tmp_path, flags) -> bytes:
    path = tmp_path / "anchors.txt"
    if flags[:1] == ["dense"]:
        write_dense_interchange(path)
        flags = flags[1:]
    else:
        write_interchange(path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["score", "--anchors", str(path), *flags]) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("cell", sorted(RUN_CELLS))
def test_run_artifacts_match_golden(tmp_path, cell):
    assert run_cell(tmp_path, cell) == RUN_DIGESTS[cell]


@pytest.mark.parametrize("track", sorted(SWEEPS))
def test_sweep_cells_match_run_cells(tmp_path, track):
    cells = sweep_cells(tmp_path, track)
    assert cells == {name: RUN_DIGESTS[name] for name in cells}


@pytest.mark.parametrize("flags", sorted(SCORE_DIGESTS),
                         ids=lambda flags: flags or "default")
def test_score_output_matches_golden(tmp_path, flags):
    assert _sha(score_stdout(tmp_path, flags.split())) == SCORE_DIGESTS[flags]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    run_digests = {}
    print("RUN_DIGESTS = {")
    for name in sorted(RUN_CELLS):
        with tempfile.TemporaryDirectory() as tmp:
            run_digests[name] = run_cell(Path(tmp), name)
            print(f"    {name!r}: {run_digests[name]!r},")
    print("}")
    for track in sorted(SWEEPS):
        with tempfile.TemporaryDirectory() as tmp:
            cells = sweep_cells(Path(tmp), track)
        differ = sorted(n for n in cells if cells[n] != run_digests[n])
        print(f"# {track} sweep cells differ from their run cells: "
              f"{', '.join(differ) or 'none'}")
    print("SCORE_DIGESTS = {")
    for flags in SCORE_DIGESTS:
        with tempfile.TemporaryDirectory() as tmp:
            digest = _sha(score_stdout(Path(tmp), flags.split()))
            print(f"    {flags!r}: {digest!r},")
    print("}")
