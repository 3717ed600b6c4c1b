"""Smoke test of ``tools/srclines.py``, the split of the library's lines
into docstring, comment-only, blank and code lines."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRCLINES = ROOT / "tools" / "srclines.py"

TOY = '''"""Module docstring,

over three lines."""

# a comment


def f(x):
    """One line."""
    y = x + 1  # a trailing comment is code
    return y
'''


def _tool():
    spec = importlib.util.spec_from_file_location("srclines", SRCLINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_srclines_splits_a_toy_module():
    assert _tool().split(TOY) == {"docstring": 4, "comment": 1, "blank": 3, "code": 3}


def test_srclines_columns_add_up_to_the_line_counts(tmp_path):
    package = tmp_path / "src" / "mpjacobi"
    package.mkdir(parents=True)
    (package / "toy.py").write_text(TOY)
    rows = _tool().table(package)
    assert rows["toy.py"] == rows["total"] and sum(rows["total"].values()) == 11
    real = _tool().table()
    for name, row in real.items():
        if name != "total":
            assert sum(row.values()) == len((ROOT / "src" / "mpjacobi" / name)
                                            .read_text().splitlines())
    out = subprocess.run([sys.executable, str(SRCLINES), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0].split() == ["module", "docstring", "comment", "blank", "code", "lines"]
    assert out[1].split() == ["toy.py", "4", "1", "3", "3", "11"]
    assert out[-1].split() == ["total", "4", "1", "3", "3", "11"]
