"""Machine-speed calibration: a fixed reference kernel timed beside the program.

The benchmark's host is shared, and its speed drifts by up to a factor
of two over tens of seconds as other tenants come and go.  A drift of
that size swamps any bound worth having on a raw wall time.  So the
benchmark times this kernel at every mark (each pass start and end,
each cell start, each batch reaching the oracle, each `score` request)
and scales the program's wall time between two marks by the kernel's
speed around them:

    scaled = wall * REF_NOMINAL_S / local median of the kernel's times

A scaled time reads in seconds on a host where the kernel takes
REF_NOMINAL_S.  The kernel mixes what the package spends its time on:
small-minibatch numpy of the learner, the BatchBALD einsum, and text
parsing like the interchange reader.  It never touches package code, so
a parent and a change under comparison are scaled by the same yardstick;
the kernel's own time is left out of every interval.

Set-up is mostly starting an interpreter and importing numpy and scipy:
page faults, dynamic loading and unmarshalling, which drift apart from
the in-process kernel.  Set-ups are therefore scaled the same way by a
reference set-up, a fresh interpreter that imports numpy and
scipy.special and nothing of the package (reference_setup).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# median times on the reference host (2 vCPUs, Xeon, 2 GHz) of the
# kernel and of the reference set-up
REF_NOMINAL_S = 0.012
SETUP_NOMINAL_S = 0.54
SETUP_REFERENCE = "import numpy, scipy.special"
# marks on each side whose kernel times make an interval's local speed
WINDOW = 2
# how long the kernel runs before the first mark
WARM_UP_S = 0.3

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((32, 8))
_W1 = _rng.standard_normal((8, 64)) * 0.3
_W2 = _rng.standard_normal((64, 8)) * 0.3
_Y = np.eye(8)[_rng.integers(0, 8, size=32)]
_W = _rng.random((100, 10))
_P = _rng.dirichlet(np.ones(8), size=(300, 10))
_TEXT = "\n".join(" ".join(f"{v:.6f}" for v in row)
                  for row in _rng.random((900, 4))) + "\n"


def reference() -> float:
    """Run the kernel once; returns a checksum so no work is skipped."""
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(60):
        a1 = np.tanh(_X @ w1)
        logits = a1 @ w2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        dz = e / e.sum(axis=1, keepdims=True) - _Y
        da1 = (dz @ w2.T) * (1.0 - a1 ** 2)
        w2 -= 0.01 * (a1.T @ dz)
        w1 -= 0.01 * (_X.T @ da1)
    joint = np.einsum("kt,ntc->nkc", _W, _P)
    parsed = [float(v) for line in _TEXT.splitlines() for v in line.split()]
    return float(w1.sum() + joint.sum() + sum(parsed))


def reference_setup(env: dict) -> None:
    """Start a fresh interpreter that runs SETUP_REFERENCE, and wait."""
    subprocess.run([sys.executable, "-c", SETUP_REFERENCE], env=env,
                   capture_output=True, check=True, timeout=120)


@dataclass(slots=True)
class Mark:
    """A point on the timeline: wall time just before and just after the
    kernel ran there, and the kernel's time (None when not calibrating)."""
    before: float
    after: float
    ref_s: float | None
    kind: str = ""
    cell: int = -1


class Timeline:
    """Ordered marks of one pass; intervals between them exclude the
    kernel and, when calibrating, are scaled by its local speed."""

    def __init__(self, calibrate: bool, kernel=reference,
                 nominal_s: float = REF_NOMINAL_S):
        self.calibrate = calibrate
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.marks: list[Mark] = []

    def mark(self, kind: str = "", cell: int = -1) -> Mark:
        before = time.perf_counter()
        ref_s = None
        if self.calibrate:
            self.kernel()
            ref_s = time.perf_counter() - before
        m = Mark(before, time.perf_counter(), ref_s, kind, cell)
        self.marks.append(m)
        return m

    def scales(self) -> list[float]:
        """Per mark: the nominal time over the median kernel time of the
        marks within WINDOW of it (1.0 when not calibrating)."""
        if not self.calibrate:
            return [1.0] * len(self.marks)
        refs = [m.ref_s for m in self.marks]
        return [self.nominal_s / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
                for i in range(len(refs))]

    def intervals(self) -> list[tuple[Mark, Mark, float]]:
        """(start mark, end mark, scaled seconds) of consecutive marks."""
        s = self.scales()
        return [(a, b, (b.before - a.after) * 0.5 * (s[i] + s[i + 1]))
                for i, (a, b) in enumerate(zip(self.marks, self.marks[1:]))]

    def raw_s(self) -> float:
        """Wall time from the first to the last mark, less the kernel's."""
        return sum(b.before - a.after for a, b in zip(self.marks, self.marks[1:]))


def warm_up() -> None:
    """Run the kernel until numpy and BLAS are past their first-call costs."""
    end = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < end:
        reference()
