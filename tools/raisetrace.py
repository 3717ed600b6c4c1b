"""Report which ``raise`` statements of the library a pytest run reaches.

    python3 tools/raisetrace.py -q
    python3 tools/raisetrace.py -q tests/test_splitting.py

Every ``raise`` statement in ``src/mpjacobi/*.py`` except ``cli.py`` is
found with ``ast``. Pytest then runs in this process, with the given
arguments, under a ``sys.settrace`` line tracer that traces only the
library's files. A raise counts as reached when its first line runs, so it
must start a line of its own, as every raise of the library does.
Subprocesses that the tests start (the CLI test) are not traced. The
library is imported from this checkout's ``src``.

Prints reached/total per module and overall, then each unreached raise as
``module.py:line exception``; exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpjacobi"


def raise_lines():
    """{module file name: {line: exception source}} of every raise outside
    cli.py."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = {node.lineno: ast.unparse(getattr(node.exc, "func", node.exc))
                 if node.exc is not None else "(re-raise)"
                 for node in ast.walk(tree) if isinstance(node, ast.Raise)}
        if lines:
            found[path.name] = lines
    return found


def traced_run(found, pytest_args):
    """Run pytest under a line tracer of the raises ``found``; (pytest's
    status, {module: set of reached raise lines})."""
    import pytest

    targets = {os.path.realpath(PACKAGE / name): lines
               for name, lines in found.items()}
    reached = {os.path.basename(path): set() for path in targets}
    by_filename = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_filename:
            by_filename[name] = targets.get(os.path.realpath(name))
        lines = by_filename[name]
        if lines is None:
            return None
        hits = reached[os.path.basename(name)]

        def on_line(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                hits.add(frame.f_lineno)
            return on_line
        return on_line

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), reached


def report(found, reached):
    """Lines of the reached/total table and the unreached raises."""
    out = []
    for name, lines in found.items():
        out.append(f"{name:<20} {len(reached[name])}/{len(lines)}")
    total = sum(len(lines) for lines in found.values())
    out.append(f"{'total':<20} {sum(map(len, reached.values()))}/{total}")
    out.append("unreached:")
    out += [f"  {name}:{line} {exc}" for name, lines in found.items()
            for line, exc in sorted(lines.items()) if line not in reached[name]]
    return out


def main():
    found = raise_lines()
    status, reached = traced_run(found, sys.argv[1:])
    print("\n".join(report(found, reached)))
    return status


if __name__ == "__main__":
    sys.exit(main())
