#!/usr/bin/env python3
"""In-process per-call cost of the batch simulator, as JSON.

    python3 tools/call_cost.py [--change .] [--parent ../parent] [--k 5] \\
        [--calls 8 1000] [--blocks 8] [--reps 200] [--out FILE]

For every case, the small and wide sets (perfbench's) x TDL/TCL, a
worker process on a checkout times these metrics, each the median of
--reps calls:

* `run_batch_us.<n>`: one `run_batch` call of n sessions, for each n of
  --calls (a fresh Session, the input shared once, its blocks);
* `block_us.<n>`: a fresh `run_sessions` call of n executions run as one
  block, forced even below `BATCH_MIN_SESSIONS`, for each n of --blocks;
* `loop_us.<n>`: the same call run sequentially, forced even at or above
  `BATCH_MIN_SESSIONS` (its session on tapes passed in, which draws every
  noise pair now, not from a pool);
* `pool_block_us` and `pool_loop_us`: one block of 8 noise pairs on a warm
  long-lived session (`Session.offline`'s block: evaluated, then
  committed), and 8 pairs drawn one by one on the same kind of session;
* `online_us`: one online call on that warm session, share -> `pi_perturb`
  -> `open` of one input, on a pair it pooled beforehand (`pi_noise`):
  the `Session`'s own integer path.

Beside the timings, each case reports deterministic counts of one
`run_batch` call at the largest n of --calls (`counts`, untimed): the
words its dealer tape and each party tape consumed, per execution.

The run is k alternations.  Each alternation runs one worker on each
checkout, --parent first on even alternations and --change first on odd
ones, so that neither side always runs on a warmer host.  The report gives
each side's median over the k alternations of every timing (`cases`) and
each side's counts (`counts`), and with --parent the change's value over
the parent's.  `host` gives each alternation's host load (`host_load.py`):
the share of CPU time the hypervisor stole while it ran, and the
1-minute load average at its end.  Each checkout is a tree holding
`src/trunclap`; the worker imports it from there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from host_load import cpu_ticks, host_load  # noqa: E402

# perfbench's mpc-batch sets, named as there
SETS = {"small": dict(E=4.0, L=2.0, sigma=1.0, p=0),
        "wide": dict(E=64.0, L=32.0, sigma=8.0, p=2)}
MECHS = ("tdl", "tcl")
POOL_BLOCK = 8


def median_us(call, reps: int) -> float:
    """Median wall time of `reps` calls of `call()`, in microseconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e6, 2)


def forced_us(call, min_sessions: int, reps: int) -> float:
    """`median_us` of `call` with `tape.BATCH_MIN_SESSIONS` set to
    `min_sessions`, restored after: 1 runs a call of n as one block, n + 1
    runs it sequentially."""
    from trunclap import tape

    saved, tape.BATCH_MIN_SESSIONS = tape.BATCH_MIN_SESSIONS, min_sessions
    try:
        return median_us(call, reps)
    finally:
        tape.BATCH_MIN_SESSIONS = saved


def fresh_calls(field, mech, P, n: int, seeds) -> dict:
    """The fresh `run_sessions` calls of n executions that `block_us.<n>`
    and `loop_us.<n>` time, each with the BATCH_MIN_SESSIONS that forces
    its path (`forced_us`); every call takes the next seeds."""
    from trunclap.mpc import Session
    from trunclap.mpc.protocols import run_sessions
    from trunclap.tape import RandomTape

    def block():
        s = next(seeds)
        run_sessions(Session(field, s, s + 1), mech, P, 0, n)

    def loop():
        s = next(seeds)
        run_sessions(Session(field, tape0=RandomTape(s), tape1=RandomTape(s + 1)), mech, P, 0, n)

    return {f"block_us.{n}": (block, 1), f"loop_us.{n}": (loop, n + 1)}


def measure(calls: list[int], blocks: list[int], reps: int) -> dict:
    """Every timing of every case, timed in this process, and its counts."""
    from trunclap.mechanisms import MechanismParams, lookup_mechanism
    from trunclap.mpc import (BatchSession, Session, mechanism_field, pi_noise, pi_perturb,
                              run_batch)
    from trunclap.mpc.protocols import _noise_pair, _noise_rows, run_sessions
    from trunclap.sampling import noise_plan

    out, counts = {}, {}
    for label, kw in SETS.items():
        P = MechanismParams(**kw)
        for name in MECHS:
            mech = lookup_mechanism(name)
            field = mechanism_field(P, name)
            plan = noise_plan(mech, P)
            seeds = iter(range(1, 1 << 30, 2))
            case = {}
            run_batch(name, P, 0.0, max(calls), 0, 1)  # fill the lazy caches
            for n in calls:
                case[f"run_batch_us.{n}"] = median_us(
                    lambda: run_batch(name, P, 0.0, n, (s := next(seeds)), s + 1), reps)
            for path in ("block_us", "loop_us"):
                for n in blocks:
                    metric = f"{path}.{n}"
                    case[metric] = forced_us(*fresh_calls(field, mech, P, n, seeds)[metric], reps)
            warm = Session(field, 3, 4)
            _noise_pair(warm, plan)  # a warm-up draw

            def pool_block():
                # one BatchSession a block, as a session's pool builds them
                commit = BatchSession(warm)._evaluate(lambda b: _noise_rows(b, plan),
                                                      plan.words_per_draw, POOL_BLOCK)[1]
                commit(POOL_BLOCK)

            pool_block()
            case["pool_block_us"] = median_us(pool_block, reps)
            case["pool_loop_us"] = median_us(
                lambda: [_noise_pair(warm, plan) for _ in range(POOL_BLOCK)], reps)
            pairs = iter([pi_noise(warm, mech, P) for _ in range(reps + 1)])

            def online():
                warm.open(pi_perturb(warm, mech, warm.share(0), next(pairs), P))

            online()
            case["online_us"] = median_us(online, reps)
            out[f"{name}.{label}"] = case
            # run_batch's session, at the largest n
            n = max(calls)
            session = Session(field, 0, 1)
            run_sessions(session, mech, P, 0, n)
            counts[f"{name}.{label}"] = {
                "n": n,
                "dealer_words_per_execution": session.dealer.words_consumed / n,
                "party_words_per_execution": session.tape0.words_consumed / n,
            }
    return {"timings": out, "counts": counts}


def run_worker(checkout: Path, args) -> dict:
    """One worker process on `checkout`: its metrics, parsed from JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--reps", str(args.reps),
           "--calls", *map(str, args.calls), "--blocks", *map(str, args.blocks)]
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if r.returncode:
        raise RuntimeError(f"{checkout}: worker exited {r.returncode}: {r.stderr[-2000:]}")
    return json.loads(r.stdout)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--parent", type=Path, default=None)
    ap.add_argument("--k", type=int, default=5, help="alternations")
    ap.add_argument("--calls", type=int, nargs="+", default=[8, 1000],
                    help="sessions per timed run_batch call")
    ap.add_argument("--blocks", type=int, nargs="+", default=[8],
                    help="executions of a forced block and of its sequential loop")
    ap.add_argument("--reps", type=int, default=200, help="timed calls per metric")
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if min(args.k, args.reps, *args.calls, *args.blocks) < 1:
        ap.error("--k, --reps, --calls and --blocks take positive counts")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if args.worker:
        print(json.dumps(measure(args.calls, args.blocks, args.reps)))
        return 0
    sides = {"change": args.change} if args.parent is None else {"parent": args.parent,
                                                                "change": args.change}
    runs = {side: [] for side in sides}
    host = []
    for i in range(args.k):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        before = cpu_ticks()
        for side in order:
            runs[side].append(run_worker(sides[side], args))
        host.append(host_load(before, cpu_ticks()))
        print(f"alternation {i} done", file=sys.stderr)
    report = {"k": args.k, "reps": args.reps, "python": sys.version.split()[0],
              "host_cpus": os.cpu_count(), "host": host, "cases": {}, "counts": {}}
    first = runs["change"][0]
    for case, metrics in first["timings"].items():
        out = report["cases"][case] = {}
        for metric in metrics:
            med = {side: round(statistics.median(r["timings"][case][metric] for r in rs), 2)
                   for side, rs in runs.items()}
            if args.parent is not None:
                med["change_over_parent"] = round(med["change"] / med["parent"], 4)
            out[metric] = med
        # deterministic: every run of a side gives the same counts
        out = report["counts"][case] = {}
        for metric in first["counts"][case]:
            val = {side: rs[0]["counts"][case][metric] for side, rs in runs.items()}
            if args.parent is not None and metric != "n":
                val["change_over_parent"] = round(val["change"] / val["parent"], 4)
            out[metric] = val
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
