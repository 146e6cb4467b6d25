"""Value rules of the config dataclasses: `checked(default, *rules)`
declares a field with its rules, and `check(obj)` runs them in field
order, recursing into a field whose metadata sets `nested`.  Cross-field
rules stay as code; all raise RuleError, which names the field as data."""

import math
from collections import namedtuple
from dataclasses import field, fields


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


def check(obj, prefix: str = "") -> None:
    """Raise RuleError for obj's first field, in field order, that breaks a rule."""
    for f in fields(obj):
        value, name = getattr(obj, f.name), prefix + f.name
        if f.metadata.get("nested"):
            check(value, name + ".")
        for rule in f.metadata.get("rules", ()):
            if not rule.holds(value):
                raise RuleError(name, rule.text.format(name=name, value=value))
