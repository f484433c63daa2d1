"""The in-process call-cost harness, tools/call_cost.py, at k = 1 and tiny n."""

import ast
import importlib.util
import json
import subprocess
import sys
from itertools import count
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from trunclap import tape
from trunclap.mechanisms import MechanismParams, lookup_mechanism
from trunclap.mpc import Session, mechanism_field, pi_noise, protocols
from trunclap.sampling import noise_plan, sample_tcl, sample_tdl
from trunclap.tape import RandomTape

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("call_cost", ROOT / "tools" / "call_cost.py")
call_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_cost)
POOL = call_cost.POOL_BLOCK


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
    # every timing but online_us with its floor right after it
    metrics = ["run_batch_us.2", "run_batch_floor_us.2", "run_batch_us.8",
               "run_batch_floor_us.8", "block_us.3", "block_floor_us.3", "loop_us.3",
               "loop_floor_us.3", "pool_block_us", "pool_block_floor_us", "pool_loop_us",
               "pool_loop_floor_us", "sample_us", "sample_floor_us", "online_us"]
    assert sorted(report["cases"]) == ["tcl.segmented", "tcl.small", "tcl.wide",
                                       "tdl.segmented", "tdl.small", "tdl.wide"]
    for case in report["cases"].values():
        assert list(case) == metrics
        for m in case.values():
            assert m["parent"] > 0 and m["change"] > 0
            assert m["change_over_parent"] == round(m["change"] / m["parent"], 4)
    # beside each timing, its minor page faults per timed call on each side
    assert sorted(report["faults"]) == sorted(report["cases"])
    for case in report["faults"].values():
        assert list(case) == metrics
        for m in case.values():
            assert set(m) == {"parent", "change"} and min(m.values()) >= 0
    # beside each timing with a floor, its ratio to the floor, a median
    # over the runs of the ratio each worker timed
    assert sorted(report["floor_ratios"]) == sorted(report["cases"])
    for ratios in report["floor_ratios"].values():
        assert list(ratios) == [m.replace("_floor_us", "_floor_ratio") for m in metrics
                                if "_floor_us" in m]
        for m in ratios.values():
            assert m["parent"] > 0 and m["change"] > 0
            assert m["change_over_parent"] == round(m["change"] / m["parent"], 4)
    # each worker's import footprint, taken before its first timed call;
    # the same tree on both sides tracks the same objects
    footprint = report["footprint"]
    assert list(footprint) == ["import_s", "import_rss_mb", "gc_tracked", "gc_full_ms"]
    for m in footprint.values():
        assert m["parent"] > 0 and m["change"] > 0
        assert m["change_over_parent"] == round(m["change"] / m["parent"], 4)
    assert footprint["gc_tracked"]["change_over_parent"] == 1.0
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


def test_the_floor_reads_every_word_of_the_call(monkeypatch):
    # each floor draws the words of the call it stands beside: for
    # run_batch_us.<n>, its dealer tape's and both party tapes', n times
    # one execution's; the other calls' are `words_read`'s
    P, n = MechanismParams(**call_cost.SETS["wide"]), 8
    mech = lookup_mechanism("tcl")
    dealer, party0, party1 = call_cost.call_words(mechanism_field(P, "tcl"), mech, P, n)
    assert party0 == party1 == n * noise_plan(mech, P).words_per_draw and dealer > 0
    drawn, real = [], call_cost.floor
    monkeypatch.setattr(call_cost, "floor",
                        lambda words, seed: drawn.append(words) or real(words, seed))
    report = call_cost.measure("wide", "tcl", [n], [2], 1)
    timings, ratios = report["timings"], report["floor_ratios"]
    floored = ["run_batch_us.8", "block_us.2", "loop_us.2", "pool_block_us", "pool_loop_us",
               "sample_us"]
    assert list(ratios) == [m.replace("_us", "_floor_ratio") for m in floored]
    for metric in floored:
        floor_us = timings[metric.replace("_us", "_floor_us")]
        assert ratios[metric.replace("_us", "_floor_ratio")] == round(timings[metric] / floor_us, 4)
    assert len(drawn) == len(floored) and drawn[0] == dealer + party0 + party1
    assert drawn[-1] == noise_plan(mech, P).words_per_draw  # one sequential draw's words


def test_words_read_counts_each_word_a_call_reads_once():
    # a fresh call's reads are all consumed (a block is committed whole);
    # the pooled block also reads the 7 pairs it hands out later
    P = MechanismParams(**call_cost.SETS["wide"])
    mech = lookup_mechanism("tcl")
    field, words = mechanism_field(P, "tcl"), noise_plan(mech, P).words_per_draw

    def consumed(s):
        return s.dealer.words_consumed + s.tape0.words_consumed + s.tape1.words_consumed

    sessions, real = [], protocols.run_sessions
    with mock.patch.object(protocols, "run_sessions",
                           lambda s, *a: sessions.append(s) or real(s, *a)):
        calls = call_cost.fresh_calls(field, mech, P, 3, count(1, 2))
    for call, min_sessions in calls.values():
        with call_cost.forced(min_sessions):
            read = call_cost.words_read(call)
        assert read == consumed(sessions[-1]) > 2 * 3 * words
    pool = call_cost.pool_calls(field, mech, P, count(1, 2))
    call, setup = pool["pool_block_us"]
    session = setup()
    before = session.dealer.words_consumed
    read = call_cost.words_read(call, session)
    assert read == 2 * POOL * words + session.dealer.words_consumed - before
    # 8 pairs drawn now, as on the loop call's session
    session = Session(field, tape0=RandomTape(5), tape1=RandomTape(6))
    for _ in range(POOL):
        pi_noise(session, mech, P)
    assert call_cost.words_read(pool["pool_loop_us"][0]) == consumed(session)


@pytest.mark.parametrize("name", ["tdl", "tcl"])
def test_the_sample_call_is_one_sequential_draw(name):
    # each call draws the value the sampler gives on the next words of
    # one tape, and reads one plan's words
    P = MechanismParams(**call_cost.SETS["wide"])
    plan = noise_plan(lookup_mechanism(name), P)
    call, ref = call_cost.sample_call(name, P, 9), RandomTape(9)
    sample = sample_tdl if name == "tdl" else sample_tcl
    for _ in range(40):
        assert call_cost.words_read(call) == plan.words_per_draw
    assert [call() for _ in range(200)] == [sample(0.0, P, ref) for _ in range(240)][40:]


def test_the_segmented_set_times_every_segment_pick():
    # its tail count 6 = 4 + 2 and inner count 3 = 2 + 1: the sample call
    # picks the tail's and the magnitude's segments in plaintext, and a
    # session's pair the tail's in `pi_uni` and the magnitude's
    from trunclap import sampling
    from trunclap.mpc import core

    P = MechanismParams(**call_cost.SETS["segmented"])
    for name in call_cost.MECHS:
        mech = lookup_mechanism(name)
        plan = noise_plan(mech, P)
        picked, real = {}, tape.pick_segment

        def spy(where):
            def recorded(segments, *a):
                picked.setdefault(where, set()).add(segments)
                return real(segments, *a)
            return recorded

        with mock.patch.object(sampling, "pick_segment", spy("sampling")), \
                mock.patch.object(core, "pick_segment", spy("pi_uni")), \
                mock.patch.object(tape, "pick_segment", spy("magnitude")):
            call_cost.sample_call(name, P, 9)()
            pool = call_cost.pool_calls(mechanism_field(P, name), mech, P, count(1, 2))
            pool["pool_loop_us"][0]()
        assert picked == {"sampling": {plan.tail}, "pi_uni": {plan.tail},
                          "magnitude": {plan.inner.magnitude}}
        assert plan.tail.picks and plan.inner.magnitude.picks


def test_faults_are_counted_per_timed_call():
    # a call that fills 40 MB, past glibc's largest mmap threshold, maps
    # fresh pages each time: it faults at least once per 2 MB even where
    # huge pages back it, and once per 4 KB page where none do
    _, faults = call_cost.median_us(lambda: b"x" * (40 << 20), 3)
    assert faults >= 20
    _, idle = call_cost.median_us(lambda: None, 3)
    assert idle < 20


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
            with call_cost.forced(min_sessions):
                us, faults = call_cost.median_us(call, 2)
            assert us > 0 and faults >= 0
        assert peeks.call_count == (4 if metric.startswith("block_us") else 0), metric
        assert tape.BATCH_MIN_SESSIONS == before


def test_the_floor_is_seeded_before_its_timer(monkeypatch):
    # at n = 8 seeding a PCG64 was about 11 of the floor's 12 us: the timed
    # call draws the words alone, from a generator seeded when it was made
    seeded, real = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: seeded.append(seed) or real(seed))
    call = call_cost.floor(240, 7)
    assert seeded == [7]
    words = call()
    assert seeded == [7] and np.array_equal(words, real(7).random_raw(240))


def test_the_pool_calls_time_one_block_and_one_loop():
    # public calls only: the block call is the pi_noise call that evaluates
    # one block of 8 pairs on a fresh seeded Session, after the 8 pairs its
    # untimed setup drew one by one; the loop call draws 8 pairs now
    P = MechanismParams(**call_cost.SETS["small"])
    mech = lookup_mechanism("tdl")
    words = noise_plan(mech, P).words_per_draw
    calls = call_cost.pool_calls(mechanism_field(P, "tdl"), mech, P, count(1, 2))
    sizes = []
    real = tape.RandomTape.peek_block

    def peek(t, n):
        sizes.append(n)
        return real(t, n)

    with mock.patch.object(tape.RandomTape, "peek_block", peek):
        call, setup = calls["pool_block_us"]
        session = setup()
        assert sizes == [] and session.tape0.words_consumed == 8 * words
        call(session)
        assert sizes == [8 * words, 8 * words]  # both party tapes, one block
        assert session.tape0.words_consumed == 9 * words
        call, setup = calls["pool_loop_us"]
        assert setup is None
        call()
        assert sizes == [8 * words, 8 * words]  # no block


def test_the_worker_imports_public_names_only():
    # a worker runs on the parent's checkout too, whose private names may
    # be gone: an import of one failed there with ImportError
    tree = ast.parse((ROOT / "tools" / "call_cost.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert any(module.startswith("trunclap") for module, _ in imported)
    assert not [name for module, name in imported
                if module.startswith("trunclap") and name.startswith("_")]


def test_each_case_runs_in_a_fresh_worker(monkeypatch):
    # one worker process per case, so that no case meets an allocator an
    # earlier case shaped; their sections merge under each case's name
    started = []

    def worker(cmd, **kw):
        case = cmd[cmd.index("--worker") + 1]
        started.append(case)
        part = {"footprint": {"gc_tracked": 1}, "timings": case, "faults": case,
                "floor_ratios": case, "counts": case}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(part), "")

    monkeypatch.setattr(call_cost.subprocess, "run", worker)
    merged = call_cost.run_worker(ROOT, call_cost.parse(["--calls", "8"]))
    cases = [f"{name}.{label}" for label in call_cost.SETS for name in call_cost.MECHS]
    assert started == cases
    assert merged["footprint"] == [{"gc_tracked": 1}] * len(cases)
    for section in ("timings", "faults", "floor_ratios", "counts"):
        assert merged[section] == {case: case for case in cases}
