"""The alternating pair runner, tools/bench_pairs.py, on stubbed runs."""

import importlib.util
import json
import os
import subprocess
import sys
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


def test_a_claim_needs_ten_pairs():
    # every change run beats every parent run by far, but nine pairs are
    # too few to meet the claim; ten are enough
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    change = [200.0 + k for k in range(10)]
    nine = bench_pairs.compare(HIGHER, parent[:9], change[:9])
    assert nine["change_wins"] == "9/9" and not nine["claim_met"]
    assert bench_pairs.compare(HIGHER, parent, change)["claim_met"]


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
    # three pairs are too few to meet a claim, however clear the gain
    assert report["claim"] == {"metric": "tcl_outputs_per_s", "met": False,
                               "wall_clock_met": False}
    assert "claim_met" not in report["metrics"]["call_tail_us"]
    assert not report["metrics"]["call_tail_us"]["within_bound"]  # 2.0 us against 1.0
    assert json.loads(capsys.readouterr().out)["seeds"] == [11, 12, 13]
    # one host reading per pair: the steal share while it ran, and the load
    assert len(report["host"]) == 3
    for host in report["host"]:
        assert set(host) == {"steal_share", "load_1m"}
        assert host["steal_share"] is None or 0.0 <= host["steal_share"] <= 1.0


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


def test_each_runs_child_faults_sit_beside_the_host(tmp_path, monkeypatch):
    # each stubbed run waits for a child that fills 40 MB on the change's
    # side and nothing on the parent's: the change's run faults at least
    # once per 2 MB more (once per 4 KB page where no huge page backs it)
    spec = {"end_to_end": [HIGHER]}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench" / "out").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    real_run = subprocess.run

    def run(cmd, cwd, **kw):
        fill = 40 << 20 if cwd.name == "change" else 0
        real_run([sys.executable, "-c", f"b'x' * {fill}"], check=True)
        seed = int(cmd[cmd.index("--seed") + 1])
        doc = {"wall_clock": {"raw": {"tcl_outputs_per_s": 1.0}}}
        (cwd / "perfbench" / "out" / f"w-s{seed}-t0.json").write_text(json.dumps(doc))
        line = {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"tcl_outputs_per_s": {"value": 1.0, "unit": "1/s"}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{json.dumps(line)}\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "2", "--seconds", "1",
            "--out", str(tmp_path / "bench.json")]
    assert bench_pairs.main(argv) == 0
    report = json.loads((tmp_path / "bench.json").read_text())["workloads"]["w"]
    assert len(report["minor_faults"]) == len(report["host"]) == 2
    for pair in report["minor_faults"]:
        assert set(pair) == {"parent", "change"} and pair["parent"] > 0
        assert pair["change"] - pair["parent"] >= 20
    assert "minor_faults" in json.loads((tmp_path / "bench.json").read_text())["method"]


@pytest.mark.parametrize("output, counts", [
    ("....\n596 passed in 15.12s\n", (596, 0)),
    ("F...\nFAILED tests/test_x.py::test_y - assert 1 == 2\n"
     "1 failed, 583 passed, 2 warnings in 35.10s\n", (583, 1)),
    ("2 failed, 190 passed, 1 error in 250.31s (0:04:10)", (190, 3)),
    ("5 passed, 3 skipped, 1 xfailed, 2 errors in 1.00s", (5, 2)),
    ("===== 12 passed in 0.50s =====\n", (12, 0)),
], ids=["passed", "failed", "errors-and-minutes", "skips-and-xfails", "banner"])
def test_the_tier1_summary_line_is_parsed(output, counts):
    assert bench_pairs.tier1_summary(output) == dict(zip(("passed", "failed"), counts))


def test_output_without_a_summary_line_is_refused():
    for output in ("", "collected 0 items\n\nno tests ran in 0.01s\n", "596 passed\n"):
        with pytest.raises(ValueError, match="summary"):
            bench_pairs.tier1_summary(output)


def test_tier1_runs_once_in_each_checkout(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    calls = []

    def run(cmd, cwd, env, **kw):
        calls.append((cwd.name, cmd[1:], env["PYTHONPATH"].split(":")[0]))
        line = "584 passed in 9.0s" if cwd.name == "parent" else "1 failed, 595 passed in 9.5s"
        return subprocess.CompletedProcess(cmd, 0, stdout=f"....\n{line}\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"w": {}}}))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--tier1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    tier1_argv = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert calls == [("parent", tier1_argv, "src"), ("change", tier1_argv, "src")]
    doc = json.loads(out.read_text())
    assert doc["workloads"] == {"w": {}}  # other keys are kept
    tier1 = doc["tier1"]
    assert tier1["command"] == "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
    assert {k: v for k, v in tier1["parent"].items() if k != "wall_s"} == {"passed": 584, "failed": 0}
    assert {k: v for k, v in tier1["change"].items() if k != "wall_s"} == {"passed": 595, "failed": 1}
    assert all(tier1[side]["wall_s"] >= 0 for side in ("parent", "change"))


def test_a_run_needs_a_workload_or_tier1(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.parse(["--parent", str(tmp_path), "--change", str(tmp_path)])
    with pytest.raises(SystemExit):
        bench_pairs.parse(["--parent", str(tmp_path), "--change", str(tmp_path),
                           "--workload", "w"])


LAYERS = [{"name": "mechanisms.pmf_tdl_us", "better": "lower"},
          {"name": "validation.tv_us", "better": "lower"},
          {"name": "sampling.tdl_batch_per_s", "better": "higher"}]

# the result line of a `--trace 1` run: per-layer metrics, one of them NaN
# (a span the run never entered), one not in LAYERS
TRACED_LINE = json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": {
    "mechanisms.pmf_tdl_us": {"value": 5.25, "unit": "us"},
    "validation.tv_us": {"value": float("nan"), "unit": "us"},
    "sampling.tdl_batch_per_s": {"value": 2.5e6, "unit": "1/s"},
    "trace.spans": {"value": 1287.0, "unit": "count"}}})


def test_the_layer_values_of_a_traced_result_line():
    result = json.loads(f"table\n{TRACED_LINE}\n".strip().splitlines()[-1])
    assert bench_pairs.layer_values(result, LAYERS) == {
        "mechanisms.pmf_tdl_us": 5.25, "sampling.tdl_batch_per_s": 2.5e6}


def test_trace_runs_each_side_once_per_pair_from_the_first_seed(tmp_path, monkeypatch, capsys):
    # the change's pmf reads half the parent's and its batch rate a tenth
    # lower; the NaN layer is in no pair, so it is not reported
    spec = {"end_to_end": [HIGHER], "per_layer": LAYERS}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench" / "out").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run(cmd, cwd, **kw):
        seed, trace = int(cmd[cmd.index("--seed") + 1]), cmd[cmd.index("--trace") + 1]
        calls.append((cwd.name, seed, trace))
        if trace == "1":
            line = json.loads(TRACED_LINE)
            if cwd.name == "change":
                line["metrics"]["mechanisms.pmf_tdl_us"]["value"] = 2.625
                line["metrics"]["sampling.tdl_batch_per_s"]["value"] = 2.25e6
            return subprocess.CompletedProcess(cmd, 0, stdout=f"table\n{json.dumps(line)}\n")
        doc = {"wall_clock": {"raw": {"tcl_outputs_per_s": 100.0}}}
        (cwd / "perfbench" / "out" / f"w-s{seed}-t0.json").write_text(json.dumps(doc))
        line = {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"tcl_outputs_per_s": {"value": 100.0, "unit": "1/s"}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{json.dumps(line)}\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "2", "--seconds", "1", "--first-seed", "40",
            "--trace"]
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", 40, "0"), ("change", 40, "0"), ("parent", 40, "1"),
                     ("change", 40, "1"), ("change", 41, "0"), ("parent", 41, "0"),
                     ("change", 41, "1"), ("parent", 41, "1")]
    report = json.loads(capsys.readouterr().out)
    assert report["seeds"] == [40, 41]
    assert report["layers"] == {
        "mechanisms.pmf_tdl_us": {"better": "lower", "parent_median": 5.25,
                                  "change_median": 2.625, "change_over_parent": 0.5,
                                  "change_wins": "2/2"},
        "sampling.tdl_batch_per_s": {"better": "higher", "parent_median": 2.5e6,
                                     "change_median": 2.25e6, "change_over_parent": 0.9,
                                     "change_wins": "0/2"},
    }


def test_without_trace_no_traced_run_is_made(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [HIGHER], "per_layer": LAYERS}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(checkout, workload, seed, seconds):
        return {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {"tcl_outputs_per_s": {"value": 1.0, "unit": "1/s"}},
                "wall_clock": {"tcl_outputs_per_s": 1.0}}

    def run_result(*args):
        raise AssertionError("a traced run without --trace")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "run_result", run_result)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "2", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert "layers" not in report and report["seeds"] == [11, 12]


def test_the_steal_share_is_read_from_the_cpu_line(tmp_path, monkeypatch):
    stat = tmp_path / "stat"
    # user nice system idle iowait irq softirq steal guest guest_nice
    stat.write_text("cpu  100 0 50 800 0 0 0 50 7 0\ncpu0 1 2 3\n")
    before = bench_pairs.cpu_ticks(str(stat))
    assert before == (50, 1000)
    stat.write_text("cpu  160 0 70 1080 0 0 0 90 9 0\n")
    after = bench_pairs.cpu_ticks(str(stat))
    assert bench_pairs.host_load(before, after)["steal_share"] == 0.1  # 40 of 400 ticks
    assert bench_pairs.host_load(after, after)["steal_share"] == 0.0
    # where /proc/stat is absent the share is None
    absent = bench_pairs.cpu_ticks(str(tmp_path / "missing"))
    assert absent is None and bench_pairs.host_load(absent, after)["steal_share"] is None

    def no_load():
        raise OSError("no load average")

    monkeypatch.setattr(os, "getloadavg", no_load)
    assert bench_pairs.host_load(before, after) == {"steal_share": 0.1, "load_1m": None}
