"""README.md names only what exists: every backquoted `<module>.<name>`
of the package resolves, and the demo table lists the demo scripts, so
a rename fails here instead of leaving the README stale."""

import importlib
import re
from pathlib import Path

from sim2real_al import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sim2real_al"
MODULES = ("acquisition", "cli", "fusion", "learner", "loop", "rules", "sampling", "synthdata")
TEXT = (ROOT / "README.md").read_text(encoding="utf-8")
PROSE = re.sub(r"^```.*?^```", "", TEXT, flags=re.M | re.S)   # without the code blocks
NAMES = sorted({span for span in re.findall(r"`([^`\n]+)`", PROSE)
                if re.fullmatch(rf"(?:{'|'.join(MODULES)})(?:\.\w+)+", span)})
CONFIG_KEYS = {key for track in cli.TRACKS for key in cli.config_keys(track)}


def resolves(name: str) -> bool:
    """name is a file of the package, a config key of some track, or an
    attribute path of its module."""
    if (PACKAGE / name).is_file() or name in CONFIG_KEYS:
        return True
    module, *path = name.split(".")
    value = importlib.import_module(f"sim2real_al.{module}")
    for attr in path:
        if not hasattr(value, attr):
            return False
        value = getattr(value, attr)
    return True


def test_every_module_name_resolves():
    assert NAMES
    assert [name for name in NAMES if not resolves(name)] == []


def test_demo_table_lists_the_demos():
    listed = re.findall(r"^(demos/\S+\.py)\s", TEXT, flags=re.M)
    assert listed == sorted(f"demos/{path.name}" for path in (ROOT / "demos").glob("*.py"))
