"""The stdlib line-coverage pass, tools/line_coverage.py, on a tiny test file."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = """
import pytest

from trunclap.grids import GridError, GridSpec, quantize


def test_tiny():
    assert quantize(1.3, 2) == 1.25
    with pytest.raises(GridError):
        GridSpec(p=-1, B=1.0)
"""


def test_an_unexecuted_refusal_is_reported(tmp_path):
    # quantize's refusal of p < 0 never runs, GridSpec's does: the two
    # raise the same line of text, so only the line numbers tell them apart
    test = tmp_path / "test_tiny.py"
    test.write_text(TINY)
    r = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_coverage.py"), str(test), "-q",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["pytest_exit"] == 0 and "1 passed" in r.stderr
    grids = report["modules"]["trunclap/grids.py"]
    refusal = 'raise GridError("precision exponent p must be >= 0")'
    source = (ROOT / "src" / "trunclap" / "grids.py").read_text().splitlines()
    in_quantize, in_gridspec = [i + 1 for i, line in enumerate(source) if line.strip() == refusal]
    missed = {u["line"]: u["text"] for u in grids["unexecuted"]}
    assert missed[in_quantize] == refusal and in_gridspec not in missed
    assert grids["executed"] == grids["executable"] - len(missed)
    # `import trunclap` leaves the simulator unimported: nothing of it ran
    core = report["modules"]["trunclap/mpc/core.py"]
    assert core["executed"] == 0 < core["executable"]
