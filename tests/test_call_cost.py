"""The in-process call-cost harness, tools/call_cost.py, at k = 1 and tiny n."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_alternation_reports_every_metric_of_every_case(tmp_path):
    out = tmp_path / "cost.json"
    r = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "call_cost.py"), "--parent", str(ROOT),
         "--k", "1", "--calls", "2", "8", "--blocks", "3", "--reps", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report == json.loads(out.read_text())
    assert (report["k"], report["reps"]) == (1, 2)
    metrics = ["run_batch_us.2", "run_batch_us.8", "block_us.3", "loop_us.3",
               "pool_block_us", "pool_loop_us", "online_us"]
    assert sorted(report["cases"]) == ["tcl.small", "tcl.wide", "tdl.small", "tdl.wide"]
    for case in report["cases"].values():
        assert list(case) == metrics
        for m in case.values():
            assert m["parent"] > 0 and m["change"] > 0
            assert m["change_over_parent"] == round(m["change"] / m["parent"], 4)


def test_counts_must_be_positive():
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "call_cost.py"), "--k", "0"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2 and "positive counts" in r.stderr
