"""One set-up of a workload in a fresh interpreter; run.py times it.

Usage: setup_probe.py <workload> <seed> <input-dir>, with the package's
`src` directory on PYTHONPATH.  It imports the package, writes the
workload's inputs into <input-dir> and loads the workload's config.
"""

import sys
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    name, seed, out_dir = argv[1], int(argv[2]), Path(argv[3])
    from sim2real_al import acquisition, cli, fusion, learner, loop, sampling  # noqa: F401
    w = workloads.WORKLOADS[name]
    paths = workloads.prepare(w, seed, out_dir)
    if w.kind == "sweep":
        cli.load_config(str(paths[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
