"""README.md's code runs: its three `python` blocks, in order, in one
namespace, give the values their comments state, so a name the docs use
that the package renames or deletes fails the suite."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_the_readme_blocks_run_and_give_the_stated_values():
    blocks = python_blocks()
    assert len(blocks) == 3
    ns: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), ns)
        if i == 0:
            assert "# 49.23" in block and round(ns["sigma"], 2) == 49.23
            assert "# (-25.747, 870.752)" in block
            assert (round(ns["mean"], 3), round(ns["mse"], 3)) == (-25.747, 870.752)
    values, params = ns["values"], ns["params"]
    # the last block runs on the params of the one before it
    assert params.E == 4.0 and len(values) == 100_000
    assert np.isin(values, params.output_grid("tdl").values()).all()
