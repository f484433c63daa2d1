"""The in-process call-cost harness, tools/call_cost.py, at k = 1 and tiny n."""

import importlib.util
import json
import subprocess
import sys
from itertools import count
from pathlib import Path
from unittest import mock

import pytest

from trunclap import tape
from trunclap.mechanisms import MechanismParams, lookup_mechanism
from trunclap.mpc import mechanism_field
from trunclap.sampling import noise_plan

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("call_cost", ROOT / "tools" / "call_cost.py")
call_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_cost)


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
    # one host reading for the one alternation
    [host] = report["host"]
    assert set(host) == {"steal_share", "load_1m"}
    assert host["steal_share"] is None or 0.0 <= host["steal_share"] <= 1.0
    metrics = ["run_batch_us.2", "run_batch_us.8", "block_us.3", "loop_us.3",
               "pool_block_us", "pool_loop_us", "online_us"]
    assert sorted(report["cases"]) == ["tcl.small", "tcl.wide", "tdl.small", "tdl.wide"]
    for case in report["cases"].values():
        assert list(case) == metrics
        for m in case.values():
            assert m["parent"] > 0 and m["change"] > 0
            assert m["change_over_parent"] == round(m["change"] / m["parent"], 4)
    # the untimed counts of one run_batch call at the largest n: the same
    # tree on both sides gives the same words, each party tape reading
    # its plan's words per execution
    assert sorted(report["counts"]) == sorted(report["cases"])
    for case, counts in report["counts"].items():
        assert list(counts) == ["n", "dealer_words_per_execution", "party_words_per_execution"]
        assert counts["n"] == {"parent": 8, "change": 8}
        mech, label = case.split(".")
        words = noise_plan(lookup_mechanism(mech), MechanismParams(**call_cost.SETS[label])).words_per_draw
        assert counts["party_words_per_execution"] == {"parent": words, "change": words,
                                                       "change_over_parent": 1.0}
        dealer = counts["dealer_words_per_execution"]
        assert dealer["parent"] == dealer["change"] > 0 and dealer["change_over_parent"] == 1.0


def test_counts_must_be_positive():
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "call_cost.py"), "--k", "0"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2 and "positive counts" in r.stderr


@pytest.mark.parametrize("n", [3, 8])
def test_a_block_case_evaluates_a_block_and_a_loop_case_none(n):
    # below BATCH_MIN_SESSIONS and at it: each case is forced onto its
    # path, counted in party-tape block reads, and the count restored
    P, before = MechanismParams(**call_cost.SETS["small"]), tape.BATCH_MIN_SESSIONS
    calls = call_cost.fresh_calls(mechanism_field(P, "tdl"), lookup_mechanism("tdl"), P, n,
                                  count(1, 2))
    for metric, (call, min_sessions) in calls.items():
        with mock.patch.object(tape.RandomTape, "peek_block", autospec=True,
                               side_effect=tape.RandomTape.peek_block) as peeks:
            assert call_cost.forced_us(call, min_sessions, 2) > 0
        assert peeks.call_count == (4 if metric.startswith("block_us") else 0), metric
        assert tape.BATCH_MIN_SESSIONS == before
