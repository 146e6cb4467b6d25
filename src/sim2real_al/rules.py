"""Value rules of the config dataclasses: `checked(default, *rules)`
declares a field with its rules, and `check(obj)` runs them in field
order, recursing into a field whose metadata sets `nested`, and
`hold(rule, value, name)` checks one argument of a function.  Cross-field
rules stay as code; all raise RuleError, which names the field as data.
Array inputs have one rule each: `whole`, `count`, `labels`, `indices`,
`rising`, `shaped` (which also rejects a non-finite entry), `unit_interval`;
`_raise_first_failure` raises the error of the first row to fail checks run on whole arrays.
`BLOCK_ENTRIES` sizes the blocks of the kernels that work in blocks."""

import math
from collections import namedtuple
from dataclasses import field, fields

import numpy as np

# Kernels whose working set would grow with a batch work through it in
# blocks of at most this many entries, so a large batch needs no more
# memory than a few blocks of it: fusion.cluster_anchors (images by the
# widest image squared) and sampling.select_batchbald (candidates by
# mc_count x classes).
BLOCK_ENTRIES = 1 << 16


class RuleError(ValueError):
    """A value that breaks a rule; `field` names its field, dotted below
    the checked object for a nested one (`surrogate.kappa`)."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


# holds(value) decides; text, formatted with the field's name and the
# value, is the message; kind and args say what the rule is
Rule = namedtuple("Rule", "kind args holds text")

finite = Rule("finite", (), math.isfinite, "{name} must be finite")
finite_positive = Rule("finite_positive", (), lambda v: math.isfinite(v) and v > 0,
                       "{name} must be finite and > 0")
finite_nonneg = Rule("finite_nonneg", (), lambda v: math.isfinite(v) and v >= 0,
                     "{name} must be finite and >= 0")
positive = Rule("positive", (), lambda v: v > 0, "{name} must be > 0")


def at_least(n) -> Rule:
    return Rule("at_least", (n,), lambda v: v >= n, f"{{name}} must be >= {n}")


def in_interval(lo, hi, ends: str) -> Rule:
    """lo..hi, each end open `(`/`)` or closed `[`/`]` as `ends` says."""
    return Rule("in_interval", (lo, hi, ends),
                lambda v: ((lo < v) if ends[0] == "(" else (lo <= v))
                and ((v < hi) if ends[1] == ")" else (v <= hi)),
                f"{{name}} must lie in {ends[0]}{lo}, {hi}{ends[1]}")


def one_of(options: tuple, text: str = None) -> Rule:
    return Rule("one_of", (options,), lambda v: v in options,
                text or f"{{name}} must be one of {options}, got {{value!r}}")


def checked(default, *rules):
    """A dataclass field with a default and the rules its values keep."""
    return field(default=default, metadata={"rules": rules})


def hold(rule: Rule, value, name: str):
    """value when it keeps rule, else a RuleError naming it `name`."""
    if not rule.holds(value):
        raise RuleError(name, rule.text.format(name=name, value=value))
    return value


def check(obj, prefix: str = "") -> None:
    """Raise RuleError for obj's first field, in field order, that breaks a rule."""
    for f in fields(obj):
        value, name = getattr(obj, f.name), prefix + f.name
        if f.metadata.get("nested"):
            check(value, name + ".")
        for rule in f.metadata.get("rules", ()):
            hold(rule, value, name)


def whole(values) -> np.ndarray | None:
    """values as an intp array when each is a whole number that fits one
    (an int, or a float without a fraction), else None."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):     # NaN, inf and huge floats cast to junk
        as_int = values.astype(np.intp, copy=False) if values.dtype.kind in "iuf" else None
    return as_int if as_int is not None and np.array_equal(as_int, values) else None


def count(value, name: str) -> int:
    """value as an int when it is one whole number >= 1, else a ValueError."""
    if whole(value) is None or np.ndim(value) or value < 1:
        raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")
    return int(value)


def labels(y, n_classes: int, rows: int = None) -> np.ndarray:
    """y as 1-D intp class ids in [0, n_classes), one per row when rows is given."""
    if np.ndim(y) != 1:
        raise ValueError(f"y must be a 1-D array of labels, got shape {np.shape(y)}")
    if rows is not None and len(y) != rows:
        raise ValueError(f"x has {rows} rows, but y has {len(y)} labels")
    return indices(y, n_classes, "labels outside [0, n_classes)")


def indices(ids, n: int, message: str) -> np.ndarray:
    """ids as a 1-D intp array of whole numbers in [0, n), else ValueError(message)."""
    ids = whole(ids)
    if ids is None or ids.ndim != 1 or len(ids) and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(message)
    return ids


def shaped(values, name: str, dims: tuple) -> np.ndarray:
    """values as a float array of shape dims and finite entries, else a
    ValueError naming name and the shape it got, or '<name> must be
    finite'.  In dims an int is the size its axis must
    have, a letter any size, and a leading ... any number of leading
    axes, as in (..., "N", 4).  An empty sequence is a batch of 0 rows;
    a ragged or non-numeric nested sequence, or an int beyond float
    range, is a ValueError too."""
    text = ", ".join("..." if d is ... else str(d) for d in dims)
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as error:
        got = ("a number beyond float range" if isinstance(error, OverflowError)
               else "a ragged or non-numeric value")
        raise ValueError(f"{name} must be an array of shape ({text}), got {got}") from None
    sizes = dims[1:] if dims[0] is ... else dims
    if values.shape == (0,) and len(sizes) > 1:
        values = values.reshape(0, *[0 if isinstance(d, str) else d for d in sizes[1:]])
    lead = values.ndim - len(sizes)        # leading axes, which only ... allows
    if lead < 0 or lead > 0 and dims[0] is not ... or any(
            got != d for got, d in zip(values.shape[lead:], sizes) if not isinstance(d, str)):
        raise ValueError(f"{name} must be an array of shape ({text}), got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def unit_interval(values: np.ndarray, name: str) -> np.ndarray:
    """values, a float array, when every entry lies in [0, 1], else a
    RuleError naming name."""
    if values.size and not (values.min() >= 0 and values.max() <= 1):   # NaN fails too
        raise RuleError(name, f"{name} must lie in [0, 1]")
    return values


def rising(offsets, total: int, what: str) -> np.ndarray:
    """offsets as a 1-D intp array of whole numbers that rises (not
    strictly) from 0 to total: image or cluster i of a ragged batch holds
    rows offsets[i]:offsets[i + 1].  Anything else is a ValueError."""
    offsets = whole(offsets)
    if (offsets is None or offsets.ndim != 1 or len(offsets) < 1 or offsets[0] != 0
            or offsets[-1] != total or np.any(np.diff(offsets) < 0)):
        raise ValueError(f"offsets must rise from 0 to the {what} count")
    return offsets


def _raise_first_failure(checks) -> None:
    """Raise the ValueError a loop over rows would raise first.

    checks lists (message, (N,) failure mask) pairs in the order one
    row's checks run; rows are checked in order.
    """
    failed = np.column_stack([mask for _, mask in checks])
    rows = np.flatnonzero(failed.any(axis=1))
    if len(rows):
        raise ValueError(checks[int(np.argmax(failed[rows[0]]))][0])
