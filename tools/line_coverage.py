#!/usr/bin/env python3
"""Line coverage of `src/trunclap` under a pytest run, on the standard
library alone.

    python3 tools/line_coverage.py [PYTEST_ARG ...]

Runs pytest in this process (by default on the Tier-1 suite, the `tests`
directory beside this one, `-q --continue-on-collection-errors`) under a
`sys.settrace`/`threading.settrace` tracer.  The tracer is installed before
`trunclap` is imported, so module bodies are traced too, and follows only
frames of files under the `src/trunclap` beside this directory, which it
puts first on `sys.path`.

A line is executable if it appears in `co_lines()` of the module's code
objects (the compiled module and every code object nested in it), and
executed if the tracer saw a frame of the module on it.  The report is
printed as JSON on stdout (pytest's own output goes to stderr): pytest's
exit code and, for each module by its path under `src`, its executable and
executed line counts and its unexecuted lines with their text.

Tracing slows the Tier-1 run about 3x (about 67 s against 20 s on a
2-vCPU host); a subprocess a test starts is not traced.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "trunclap"


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from `path`."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on `args`, and the lines executed in each file
    under PACKAGE."""
    if "trunclap" in sys.modules:
        raise RuntimeError("trunclap was imported before the tracer was installed")
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        lines = hits.get(path)
        if lines is None:
            if not path.startswith(prefix):
                return None
            lines = hits[path] = set()
        lines.add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def report(code: int, hits: dict[str, set[int]]) -> dict:
    """The JSON report of a traced run: pytest's exit code and each module's
    line counts and unexecuted lines."""
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        modules[str(path.relative_to(SRC))] = {
            "executable": len(lines),
            "executed": len(lines) - len(missed),
            "unexecuted": [{"line": n, "text": text[n - 1].strip()} for n in missed],
        }
    return {"pytest_exit": code, "modules": modules}


def main(argv: list[str]) -> int:
    args = argv or [str(ROOT / "tests"), "-q", "--continue-on-collection-errors"]
    print(json.dumps(report(*traced_run(args)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
