"""Split the lines of the library's modules by kind.

    python3 tools/srclines.py
    python3 tools/srclines.py ../parent

Reads every ``src/mpjacobi/*.py`` of this checkout, or of the checkout
given, and counts per module and in total its docstring lines (the
docstrings of the module and of every class and function, found with
``ast``, blank lines inside them included), comment-only lines, blank
lines and code lines (all others). The four columns add up to ``wc -l``.
Prints one table row per module, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpjacobi"
KINDS = ("docstring", "comment", "blank", "code")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The 1-based numbers of the lines that docstrings span in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(source):
    """{kind: line count} of one module's ``source``."""
    doc = docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if number in doc:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def table(package=PACKAGE):
    """{module file name: {kind: count}} of every module, and "total"."""
    rows = {path.name: split(path.read_text()) for path in sorted(package.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    rows = table(Path(argv[0]) / "src" / "mpjacobi" if argv else PACKAGE)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS) + f"{'lines':>11}")
    for name, row in rows.items():
        print(f"{name:<16}" + "".join(f"{row[kind]:>11}" for kind in KINDS)
              + f"{sum(row.values()):>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
