"""Tests of the benchmark itself.  Run with `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness  # noqa: E402
from perfbench.harness import LawCheck, judge, reference  # noqa: E402
from perfbench.workloads import SETS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_byte_for_byte(name):
    first = canonical(WORKLOADS[name](5).counts(4))
    harness.clear_library_caches()
    again = canonical(WORKLOADS[name](5).counts(4))
    assert first == again
    assert json.loads(first)["problems"] == []


def test_counts_and_work_repeat_across_processes():
    sections, work = [], []
    for _ in range(2):
        r = bench(["--workload", "mpc-online", "--seed", 4, "--seconds", 1])
        assert r.returncode == 0, r.stderr
        doc = json.loads((harness.OUT_DIR / "mpc-online-s4-t0.json").read_text())
        sections.append(canonical(doc["counts"]))
        line = json.loads(r.stdout.strip().splitlines()[-1])
        work.append((line["attempted"], line["failed"]))
    assert sections[0] == sections[1]
    assert work[0] == work[1]


def test_host_clock_reads_times_at_the_reference_speed():
    clock = harness.HostClock()
    clock.probes = [2 * harness.PROBE_REF_S] * 3
    assert clock.seconds({0: 1.0, 2: 3.0}) == pytest.approx(2.0)
    assert clock.times([4.0, 6.0], [1, 2]) == pytest.approx([2.0, 3.0])
    assert harness.tail_pct(10_000) == 99.0
    assert harness.tail_pct(60) == pytest.approx(100 * (1 - 10 / 60))


def test_tv_bound_covers_faithful_draws():
    rng = np.random.default_rng(0)
    m = rng.dirichlet(np.ones(200))
    for n in (100, 10_000):
        for _ in range(50):
            tv = 0.5 * np.abs(rng.multinomial(n, m) / n - m).sum()
            assert tv <= harness.tv_bound(m, n)


def test_law_gate_rejects_wrong_law_and_off_grid_outputs():
    from trunclap import sample_tdl_batch

    P = SETS["small"]
    faithful, shifted = LawCheck("tdl", "small", P), LawCheck("tdl", "small", P)
    values = sample_tdl_batch(1.0, P, 20000, 3)
    faithful.add(1, values)
    shifted.add(1, np.minimum(values + 1.0, P.E + P.L))
    table = reference(faithful)
    assert judge(faithful, table, 8)["law_ok"]
    assert not judge(shifted, table, 8)["law_ok"]
    assert faithful.add(0, [0.5, P.E + P.L + 1, 1.0]) == 2


def test_tcl_approximation_term_is_small_and_positive():
    for label in ("small", "wide"):
        assert 0 < harness.tcl_inner_tv(SETS[label], 8) < 0.01


def test_spec_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric_with_its_unit(trace, key):
    r = bench(["--workload", "mpc-online", "--seed", 2, "--seconds", 1, "--trace", trace])
    assert r.returncode == 0, r.stderr
    line = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]
    }


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    r = bench(["--workload", "mpc-batch", "--seed", 1, "--seconds", 1], cwd=tmp_path)
    assert r.returncode != 0
    assert r.stdout.strip() == ""
