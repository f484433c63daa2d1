"""The alternating pair runner, tools/bench_pairs.py, on stubbed runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "tcl_outputs_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "call_tail_us", "better": "lower", "bound": 0.25}


def test_a_clear_gain_meets_the_claim():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [150.0 + k for k in range(10)]
    r = bench_pairs.compare(HIGHER, parent, change)
    assert r["change_wins"] == "10/10"
    assert r["claim_met"] and r["within_bound"]
    assert r["parent"]["median"] == 100.0
    assert r["change_over_parent"] == pytest.approx(154.5 / 100.0, abs=1e-4)


def test_ties_count_for_neither_side_and_a_small_gap_is_no_claim():
    parent = [96.0, 104.0, 90.0, 110.0, 95.0, 105.0, 100.0, 98.0, 102.0, 100.0]
    change = [v + 1 for v in parent[:9]] + [100.0]
    r = bench_pairs.compare(HIGHER, parent, change)
    assert r["change_wins"] == "9/10"
    # 9/10 wins, but the medians are 0.5 apart and the parent's IQR is 7
    assert r["parent"]["q3"] - r["parent"]["q1"] == 7.0
    assert not r["claim_met"]


def test_within_bound_reads_the_direction():
    parent = [10.0] * 4
    assert bench_pairs.compare(LOWER, parent, [12.5] * 4)["within_bound"]
    assert not bench_pairs.compare(LOWER, parent, [12.6] * 4)["within_bound"]
    assert bench_pairs.compare(HIGHER, parent, [7.5] * 4)["within_bound"]
    assert not bench_pairs.compare(HIGHER, parent, [7.4] * 4)["within_bound"]


def test_a_spread_past_the_bound_is_unresolved():
    # the parent's IQR is 45% of its median, past the 25% bound: a change
    # within the bound is not "unchanged" unless it beats every parent run
    parent = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 100.0, 100.0]
    r = bench_pairs.compare(HIGHER, parent, [98.0, 102.0] * 4)
    assert r["parent_iqr_over_median"] == 0.45
    assert r["within_bound"] and not r["resolved"]
    assert bench_pairs.compare(HIGHER, parent, [141.0] * 8)["resolved"]
    assert not bench_pairs.compare(HIGHER, parent, [141.0] * 7 + [139.0])["resolved"]
    # a narrow spread resolves whichever way the change reads
    assert bench_pairs.compare(LOWER, [10.0] * 4, [12.0] * 4)["resolved"]


def test_pairs_alternate_the_side_that_runs_first(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [HIGHER, LOWER]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        value = 2.0 if checkout.name == "change" else 1.0
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": {
            m["name"]: {"value": value, "unit": ""} for m in spec["end_to_end"]},
            "wall_clock": {m["name"]: value for m in spec["end_to_end"]}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "3", "--seconds", "1",
            "--claim", "tcl_outputs_per_s", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", 11), ("change", 11), ("change", 12), ("parent", 12),
                     ("parent", 13), ("change", 13)]
    report = json.loads(out.read_text())["workloads"]["w"]
    assert report["claim"] == {"metric": "tcl_outputs_per_s", "met": True, "wall_clock_met": True}
    assert "claim_met" not in report["metrics"]["call_tail_us"]
    assert not report["metrics"]["call_tail_us"]["within_bound"]  # 2.0 us against 1.0
    assert json.loads(capsys.readouterr().out)["seeds"] == [11, 12, 13]


def test_wall_clock_quartiles_sit_beside_the_scaled_ones(tmp_path, monkeypatch):
    # each stubbed run prints its result line and writes its results file,
    # as perfbench/run.py does; the change's host probe runs 2% faster, so
    # its scaled rate reads 2% higher on the same unscaled rate
    spec = {"end_to_end": [HIGHER]}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench" / "out").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))

    def run(cmd, cwd, **kw):
        seed = int(cmd[cmd.index("--seed") + 1])
        raw = 100.0 + seed
        scaled = raw * (1.02 if cwd.name == "change" else 1.0)
        doc = {"wall_clock": {"raw": {"tcl_outputs_per_s": raw}}}
        (cwd / "perfbench" / "out" / f"w-s{seed}-t0.json").write_text(json.dumps(doc))
        line = {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"tcl_outputs_per_s": {"value": scaled, "unit": "1/s"}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=f"table\n{json.dumps(line)}\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "4", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    metric = json.loads(out.read_text())["workloads"]["w"]["metrics"]["tcl_outputs_per_s"]
    assert metric["change_over_parent"] == 1.02
    wall = metric["wall_clock"]
    assert wall["change_over_parent"] == 1.0
    assert wall["parent"] == wall["change"] == {"q1": 111.75, "median": 112.5, "q3": 113.25}


def test_the_claim_is_checked_on_the_wall_clock_values_too(tmp_path, monkeypatch):
    # the change's host probe runs 30% faster, so its scaled rate meets the
    # claim while its unscaled rate, the parent's, does not
    spec = {"end_to_end": [HIGHER]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(checkout, workload, seed, seconds):
        raw = 100.0 + seed % 3
        scaled = raw * (1.3 if checkout.name == "change" else 1.0)
        return {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"tcl_outputs_per_s": {"value": scaled, "unit": "1/s"}},
                "wall_clock": {"tcl_outputs_per_s": raw}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "10", "--seconds", "1",
            "--claim", "tcl_outputs_per_s", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())["workloads"]["w"]
    assert report["claim"] == {"metric": "tcl_outputs_per_s", "met": True,
                               "wall_clock_met": False}
    assert report["metrics"]["tcl_outputs_per_s"]["wall_clock"]["change_over_parent"] == 1.0
