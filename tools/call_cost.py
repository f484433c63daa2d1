#!/usr/bin/env python3
"""In-process per-call cost of the batch simulator, as JSON.

    python3 tools/call_cost.py [--change .] [--parent ../parent] [--k 5] \\
        [--calls 8 1000] [--blocks 8] [--reps 200] [--out FILE]

For every case, the small and wide sets (perfbench's) and the segmented
set x TDL/TCL, a worker process of its own on a checkout times these
metrics, each the median of --reps calls (the segmented set's tail count
6 = 4 + 2 and inner count 3 = 2 + 1 are not powers of two, so its calls run every
segment pick: the tail's in `pi_uni` and the plaintext draw, the
magnitude's in both; no perfbench workload draws one):

* `run_batch_us.<n>`: one `run_batch` call of n sessions, for each n of
  --calls (a fresh Session, the input shared once, its blocks);
* `block_us.<n>`: a fresh `run_sessions` call of n executions run as one
  block, forced even below `BATCH_MIN_SESSIONS`, for each n of --blocks;
* `loop_us.<n>`: the same call run sequentially, forced even at or above
  `BATCH_MIN_SESSIONS` (its session on tapes passed in, which draws every
  noise pair now, not from a pool);
* `pool_block_us` and `pool_loop_us` (`pool_calls`): the `pi_noise` call
  that evaluates a block of 8 noise pairs on a fresh seeded Session,
  after its 8 sequential pairs (drawn untimed), and 8 `pi_noise` calls on
  a session built on tapes passed in, which draws every pair now;
* `sample_us` (`sample_call`): one sequential plaintext draw,
  `sample_tdl` or `sample_tcl` at x = 0, on a tape seeded before the
  timer: the sampler whose draw `pi_noise` and `pi_perturb` realize,
  without a session;
* `online_us`: one online call on that warm session, share -> `pi_perturb`
  -> `open` of one input, on a pair it pooled beforehand (`pi_noise`):
  the `Session`'s own integer path.

Beside every timing but `online_us`, `<name>_floor_us` (for
`run_batch_us.8`, `run_batch_floor_us.8`) is the randomness floor of
that call (`floor`): one `random_raw(k)` of the k words the call reads
off its dealer and party tapes (`words_read`, counted on an untimed
call), on a `np.random.PCG64` seeded before the timer starts, timed right
after it in the same worker.  `online_us` reads no party word, its pair
being pooled beforehand, and one dealer word, so it has no floor.

Every timed call is a public one, so a worker runs on any checkout.
Each case runs in a fresh worker, so every case meets a fresh allocator:
in one process, every case after the first would meet one that earlier
calls had shaped (glibc raises its mmap threshold when a large block is
freed, after which large-n calls fault far less).

Before any timed call, each worker reports its import footprint
(`footprint`): `import_s`, the wall time of importing `trunclap`,
`trunclap.mpc` and `trunclap.cli` (numpy, which the worker itself
imports, is loaded already); `import_rss_mb`, `ru_maxrss` right after
that import; `gc_tracked`, the objects the garbage collector then tracks
(`len(gc.get_objects())`, a count, which the host's load cannot move);
and `gc_full_ms`, the time of one full `gc.collect()` after it.

Beside each timing, `faults` gives the metric's minor page faults per
timed call: the worker's own `ru_minflt` (`resource.getrusage`) read
before and after each timed call, summed over its --reps calls, over
--reps.  Each case also reports
deterministic counts of one `run_batch` call at the largest n of --calls
(`counts`, untimed): the words its dealer tape and each party tape
consumed, per execution.  `<name>_floor_ratio` (`run_batch_floor_ratio.8`)
is a timing over its floor in one worker: a cost in units of the host's
word rate, which carries across sessions where an absolute time does not.

The run is k alternations.  Each alternation runs every case's worker on
each checkout, --parent first on even alternations and --change first on
odd ones, so that neither side always runs on a warmer host.  The report
gives each side's median over the k alternations of every timing
(`cases`), of every fault count (`faults`) and floor ratio
(`floor_ratios`), and over all its workers of every footprint metric
(`footprint`), and each side's counts (`counts`), and with --parent the
change's timing, floor ratio, footprint and counts over the parent's.
`host` gives each alternation's host load (`host_load.py`): the share of CPU
time the hypervisor stole while it ran, and the 1-minute load average at
its end.  Each checkout is a tree holding
`src/trunclap`; the worker imports it from there.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from host_load import cpu_ticks, host_load  # noqa: E402

# perfbench's mpc-batch sets, named as there, and a set whose tail and
# inner counts are segmented
SETS = {"small": dict(E=4.0, L=2.0, sigma=1.0, p=0),
        "wide": dict(E=64.0, L=32.0, sigma=8.0, p=2),
        "segmented": dict(E=3.0, L=3.0, sigma=1.0, p=0)}
MECHS = ("tdl", "tcl")
POOL_BLOCK = 8


def median_us(call, reps: int, setup=None) -> tuple[float, float]:
    """Median wall time of `reps` calls of `call()`, in microseconds, and
    the minor page faults per call.  With `setup`, each call is
    `call(setup())`, and neither the time nor the faults of `setup()`
    count."""
    times, faults = [], 0
    for _ in range(reps):
        args = () if setup is None else (setup(),)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - t0)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return round(statistics.median(times) * 1e6, 2), round(faults / reps, 2)


@contextlib.contextmanager
def forced(min_sessions: int | None):
    """`tape.BATCH_MIN_SESSIONS` set to `min_sessions` (None leaves it),
    restored after: 1 runs a call of n as one block, n + 1 runs it
    sequentially."""
    from trunclap import tape

    saved = tape.BATCH_MIN_SESSIONS
    tape.BATCH_MIN_SESSIONS = saved if min_sessions is None else min_sessions
    try:
        yield
    finally:
        tape.BATCH_MIN_SESSIONS = saved


def fresh_calls(field, mech, P, n: int, seeds) -> dict:
    """The fresh `run_sessions` calls of n executions that `block_us.<n>`
    and `loop_us.<n>` time, each with the BATCH_MIN_SESSIONS that forces
    its path (`forced`); every call takes the next seeds."""
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


def words_read(call, *args) -> int:
    """The words one `call(*args)` reads off every tape it meets, dealer
    and parties: each read's words (`word`, `words`, `field_array`) and
    each block's peeked words (`peek_block`), which the `skip`s that later
    consume them do not count again."""
    from trunclap.tape import RandomTape

    read = 0

    def counting(name):
        method = getattr(RandomTape, name)

        def counted(tape, *a):
            nonlocal read
            before = tape.words_consumed
            out = method(tape, *a)
            read += a[0] if name == "peek_block" else tape.words_consumed - before
            return out

        return counted

    names = ("word", "words", "field_array", "peek_block")
    with mock.patch.multiple(RandomTape, **{name: counting(name) for name in names}):
        call(*args)
    return read


def floor(words: int, seed: int):
    """The randomness floor of a call that reads `words` words: a call that
    draws as many straight from a PCG64, the bit generator under every
    tape, seeded now, so that its seeding is not timed."""
    return functools.partial(np.random.PCG64(seed).random_raw, words)


def pool_calls(field, mech, P, seeds) -> dict:
    """The calls `pool_block_us` and `pool_loop_us` time, as (call, setup)
    for `median_us`.  A Session hands out BATCH_MIN_SESSIONS = 8 = POOL_BLOCK
    pairs one by one, then evaluates a block of 8 on the next `pi_noise`
    call: the block call runs that call on a fresh seeded Session whose 8
    sequential pairs its setup drew.  The loop call is 8 `pi_noise` calls on
    a session built on tapes passed in, which draws every pair now."""
    from trunclap.mpc import Session, pi_noise
    from trunclap.tape import RandomTape

    def after_sequential_pairs():
        s = next(seeds)
        session = Session(field, s, s + 1)
        for _ in range(POOL_BLOCK):
            pi_noise(session, mech, P)
        return session

    s = next(seeds)
    loop = Session(field, tape0=RandomTape(s), tape1=RandomTape(s + 1))
    return {"pool_block_us": (lambda session: pi_noise(session, mech, P), after_sequential_pairs),
            "pool_loop_us": (lambda: [pi_noise(loop, mech, P) for _ in range(POOL_BLOCK)],
                             None)}


def sample_call(name: str, P, seed: int):
    """The call `sample_us` times: one `sample_tdl`/`sample_tcl` draw at
    x = 0 on a tape seeded now, so that its seeding is not timed."""
    from trunclap import RandomTape, sample_tcl, sample_tdl

    sample = sample_tdl if name == "tdl" else sample_tcl
    return functools.partial(sample, 0.0, P, RandomTape(seed))


def call_words(field, mech, P, n: int) -> tuple[int, int, int]:
    """The words a `run_batch` call of n executions reads (untimed): its
    dealer tape's and each party tape's."""
    from trunclap.mpc import Session
    from trunclap.mpc.protocols import run_sessions

    session = Session(field, 0, 1)
    run_sessions(session, mech, P, 0, n)
    return (session.dealer.words_consumed, session.tape0.words_consumed,
            session.tape1.words_consumed)


def footprint() -> dict:
    """The cost of importing the package in this fresh process: wall
    seconds, peak resident MB after it, the objects the collector tracks
    and one full collection's milliseconds."""
    t0 = time.perf_counter()
    import trunclap.cli  # noqa: F401
    import trunclap.mpc  # noqa: F401
    import_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracked = len(gc.get_objects())
    t0 = time.perf_counter()
    gc.collect()
    return {"import_s": round(import_s, 4), "import_rss_mb": round(rss_mb, 1),
            "gc_tracked": tracked, "gc_full_ms": round((time.perf_counter() - t0) * 1e3, 2)}


def measure(label: str, name: str, calls: list[int], blocks: list[int], reps: int) -> dict:
    """Every timing of one case, mechanism `name` on set `label`, timed in
    this process, its floor, its faults per call, its floor ratio and the
    case's counts."""
    from trunclap.mechanisms import MechanismParams, lookup_mechanism
    from trunclap.mpc import Session, mechanism_field, pi_noise, pi_perturb, run_batch

    P = MechanismParams(**SETS[label])
    mech = lookup_mechanism(name)
    field = mechanism_field(P, name)
    seeds = iter(range(1, 1 << 30, 2))

    def batch(n):
        s = next(seeds)
        run_batch(name, P, 0.0, n, s, s + 1)

    # metric -> (call, setup, the BATCH_MIN_SESSIONS it is timed at)
    timed = {f"run_batch_us.{n}": (functools.partial(batch, n), None, None) for n in calls}
    for path in ("block_us", "loop_us"):
        for n in blocks:
            call, min_sessions = fresh_calls(field, mech, P, n, seeds)[f"{path}.{n}"]
            timed[f"{path}.{n}"] = (call, None, min_sessions)
    for metric, (call, setup) in pool_calls(field, mech, P, seeds).items():
        timed[metric] = (call, setup, None)
    timed["sample_us"] = (sample_call(name, P, next(seeds)), None, None)
    case, ratio = {}, {}
    run_batch(name, P, 0.0, max(calls), 0, 1)  # fill the lazy caches
    for metric, (call, setup, min_sessions) in timed.items():
        with forced(min_sessions):
            # counted on a call of its own, which warms the timed ones
            words = words_read(call, *(() if setup is None else (setup(),)))
            case[metric] = median_us(call, reps, setup)
        floor_metric = metric.replace("_us", "_floor_us")
        case[floor_metric] = median_us(floor(words, next(seeds)), reps)
        ratio[metric.replace("_us", "_floor_ratio")] = round(
            case[metric][0] / case[floor_metric][0], 4)
    warm = Session(field, 3, 4)
    pairs = iter([pi_noise(warm, mech, P) for _ in range(reps + 1)])

    def online():
        warm.open(pi_perturb(warm, mech, warm.share(0), next(pairs), P))

    online()
    case["online_us"] = median_us(online, reps)
    # run_batch's session, at the largest n
    n = max(calls)
    dealer, party, _ = call_words(field, mech, P, n)
    return {"timings": {metric: us for metric, (us, _) in case.items()},
            "faults": {metric: f for metric, (_, f) in case.items()},
            "floor_ratios": ratio,
            "counts": {"n": n, "dealer_words_per_execution": dealer / n,
                       "party_words_per_execution": party / n}}


def run_worker(checkout: Path, args) -> dict:
    """One fresh worker process per case on `checkout`: their metrics,
    parsed from JSON and merged, each section keyed by case, with every
    worker's footprint."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    merged = {"footprint": [], "timings": {}, "faults": {}, "floor_ratios": {}, "counts": {}}
    for label in SETS:
        for name in MECHS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", f"{name}.{label}",
                   "--reps", str(args.reps), "--calls", *map(str, args.calls),
                   "--blocks", *map(str, args.blocks)]
            r = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if r.returncode:
                raise RuntimeError(f"{checkout}: worker {name}.{label} exited {r.returncode}: "
                                   f"{r.stderr[-2000:]}")
            part = json.loads(r.stdout)
            merged["footprint"].append(part.pop("footprint"))
            for section, values in part.items():
                merged[section][f"{name}.{label}"] = values
    return merged


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
    ap.add_argument("--worker", metavar="CASE", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if min(args.k, args.reps, *args.calls, *args.blocks) < 1:
        ap.error("--k, --reps, --calls and --blocks take positive counts")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if args.worker is not None:
        name, label = args.worker.split(".")
        print(json.dumps({"footprint": footprint(),
                          **measure(label, name, args.calls, args.blocks, args.reps)}))
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
              "host_cpus": os.cpu_count(), "host": host, "cases": {}, "faults": {},
              "floor_ratios": {}, "footprint": {}, "counts": {}}
    first = runs["change"][0]
    for metric in first["footprint"][0]:
        med = {side: round(statistics.median(f[metric] for r in rs for f in r["footprint"]), 4)
               for side, rs in runs.items()}
        if args.parent is not None:
            med["change_over_parent"] = round(med["change"] / med["parent"], 4)
        report["footprint"][metric] = med
    for case, metrics in first["timings"].items():
        # each side's median over its runs: of the timings and the floor ratios
        for key, section, digits in (("cases", "timings", 2), ("floor_ratios", "floor_ratios", 4)):
            out = report[key][case] = {}
            for metric in first[section][case]:
                med = {side: round(statistics.median(r[section][case][metric] for r in rs),
                                   digits)
                       for side, rs in runs.items()}
                if args.parent is not None:
                    med["change_over_parent"] = round(med["change"] / med["parent"], 4)
                out[metric] = med
        report["faults"][case] = {
            metric: {side: round(statistics.median(r["faults"][case][metric] for r in rs), 2)
                     for side, rs in runs.items()}
            for metric in metrics}
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
