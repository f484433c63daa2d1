#!/usr/bin/env python3
"""trunclap benchmark entry point.

    python3 perfbench/run.py --workload mpc-batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One workload runs in this process, with
one thread and no process pool, against the trunclap source in the same
checkout's `src/`.  The run

1. runs the workload's deterministic counts pass, which also holds the
   ledger and sampler-equivalence gates;
2. sets up from cold library caches five times, then once more every two
   seconds of the loop; the median is `setup_s`;
3. with --trace 0, runs the closed loop for a fixed number of cycles,
   --seconds times the workload's `cycles_per_s`, and reports the
   end-to-end metrics at the reference host speed (harness.HostClock);
   with --trace 1, runs a fixed share of those cycles through the traced
   driver without spans and then with them (the difference is the tracing
   overhead), then the layer pass, and reports the per-layer metrics;
4. checks every output: on the output grid, and the pooled law within a
   TV bound derived from the multinomial floor at the run's own draw count.

It writes perfbench/out/<workload>-s<seed>-t<trace>.json (host facts,
counts, wall clock, gate) and, when traced, the spans beside it, then
prints one JSON line {"correct", "attempted", "failed", "metrics"}.
Exit 0 if the gate passes, 1 if it fails, 2 if the checkout has no
trunclap source.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5    # before the loop; then one more every SETUP_EVERY seconds
SETUP_EVERY = 2.0
COUNT_SIZE = 24
OVERHEAD_SHARE = 0.3  # of the cycles, for each of the untraced and traced passes


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_setup(wl):
    """One set-up from cold library caches: (seconds, state)."""
    from perfbench.harness import clear_library_caches, perf

    clear_library_caches()
    t0 = perf()
    state = wl.setup()
    return perf() - t0, state


def timed_loop(wl, state, inputs, tally, checks, cycles, setups=None, T=None):
    """Runs `cycles` cycles.  With a `setups` list, a throwaway set-up is
    timed every SETUP_EVERY seconds, with its host-clock bucket, so that
    set-up time samples the host over the same stretch as the loop."""
    from perfbench.harness import perf

    due = perf() + SETUP_EVERY
    for _ in range(cycles):
        wl.cycle(state, inputs, tally, checks, T)
        if setups is not None and perf() >= due:
            tally.tick()
            setups.append((timed_setup(wl)[0], tally.clock.bucket))
            due = perf() + SETUP_EVERY


def traced(wl, args, tally, checks):
    """The traced driver over the same inputs without and with spans (their
    difference is the tracing overhead), then the layer pass."""
    from perfbench.harness import Tracer, perf
    from perfbench.layers import layer_pass
    from perfbench.workloads import NULL, Inputs, Tally

    cycles = max(1, round(args.seconds * wl.cycles_per_s * OVERHEAD_SHARE))
    state = wl.setup()
    t0 = perf()
    timed_loop(wl, state, Inputs(args.seed, 3), Tally(), wl.checks(), cycles, T=NULL)
    untraced_s = perf() - t0
    state = wl.setup()
    W = Tracer(wl.name)
    inputs = Inputs(args.seed, 3)
    t0 = perf()
    for _ in range(cycles):
        wl.cycle(state, inputs, tally, checks, W)
    traced_s = perf() - t0
    metrics, L = layer_pass(args.seed)
    own = W.self_times()
    roots = [i for i, s in enumerate(W.spans) if s[4] < 0]
    root_total = sum(W.spans[i][6] - W.spans[i][5] for i in roots)
    metrics.update({
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
        "trace.spans": (len(W.spans), "count"),
        "trace.root_self_share": (float(own[roots].sum()) / root_total, "ratio"),
    })
    info = {
        "cycles": cycles, "untraced_s": untraced_s, "traced_s": traced_s,
        "self_times": {"workload": W.summary(), "layers": L.summary()},
    }
    return metrics, info, {"workload": W.dump(), "layers": L.dump()}


def end_to_end(tally, setups, clock):
    """The end-to-end metrics, at the reference speed of `clock`, or in raw
    wall time when it is None; and the latency sample count and tail
    percentile of each call class."""
    import numpy as np

    from perfbench import harness

    def per(a, b):  # a gate failure can leave nothing completed
        return a / b if b else 0.0

    def seconds(by_bucket):
        return clock.seconds(by_bucket) if clock else sum(by_bucket.values())

    def times(t, b):
        return clock.times(t, b) if clock else np.asarray(t)

    lat = {k: times(t, b) for k, (t, b) in tally.latency.items()}
    tails = {k: harness.tail_pct(len(v)) for k, v in lat.items()}
    sets = [float(clock.times([t], [b])[0]) if clock else t for t, b in setups]
    metrics = {
        "setup_s": (harness.pct(sets, 50), "s"),
        "tdl_outputs_per_s": (per(tally.outputs["tdl"], seconds(tally.busy["tdl"])), "1/s"),
        "tcl_outputs_per_s": (per(tally.outputs["tcl"], seconds(tally.busy["tcl"])), "1/s"),
        # means over the call classes, so that the share of calls that fail
        # (which varies with the seed) cannot move them between classes
        "call_p50_us": (per(sum(harness.pct(v, 50) for v in lat.values()), len(lat))
                        * 1e6, "us"),
        "call_tail_us": (per(sum(harness.pct(v, tails[k]) for k, v in lat.items()), len(lat))
                         * 1e6, "us"),
        "exact_evals_per_s": (per(tally.evals, seconds(tally.eval_s)), "1/s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    classes = {k: {"calls": len(v), "tail_pct": tails[k]} for k, v in lat.items()}
    return metrics, classes


def main(argv=None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "trunclap" / "__init__.py").is_file():
        print(f"no trunclap source under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench import harness
    from perfbench.harness import judge, reference
    from perfbench.workloads import GAMMA, WORKLOADS, Inputs, Tally

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    # the counts pass runs first, so set-up is timed on a warm interpreter
    counts = wl.counts(COUNT_SIZE)
    tally, checks = Tally(), wl.checks()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, state = timed_setup(wl)
        setups.append((seconds, tally.clock.bucket))

    wall: dict = {}
    spans = None
    if args.trace:
        metrics, wall["trace"], spans = traced(wl, args, tally, checks)
    else:
        wall["cycles"] = max(1, round(args.seconds * wl.cycles_per_s))
        timed_loop(wl, state, Inputs(args.seed, 1), tally, checks, wall["cycles"], setups)

    # gate: exact laws at every input of [-E, E], TV of the pooled outputs
    law = [judge(chk, reference(chk), GAMMA) for chk in checks.values()]
    broken = {p.split(":")[0] for p in counts["problems"]}
    broken |= {f"{r['mechanism']}.{r['set']}" for r in law if not r["law_ok"]}
    # a failed check fails every output of its case (off-grid ones are already counted)
    for (m, s), c in checks.items():
        if f"{m}.{s}" in broken:
            tally.failed += c.n
            tally.outputs[m] -= c.n
    correct = not broken and tally.bad_ledger == 0 and all(r["off_grid"] == 0 for r in law)

    if not args.trace:
        metrics, wall["call_classes"] = end_to_end(tally, setups, tally.clock)
        raw = end_to_end(tally, setups, None)[0]
        wall.update(
            raw={k: v for k, (v, _) in raw.items()},
            host_clock=tally.clock.summary(),
            setup_s_each=[s for s, _ in setups],
            offline_pairs=tally.offline_pairs,
            offline_s=tally.clock.seconds(tally.offline_s),
        )

    doc = {
        "workload": wl.name, "seconds": args.seconds, "trace": args.trace,
        "host": harness.host_facts(args.seed),
        "counts": counts,
        "wall_clock": wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "gate": {"correct": correct, "law": law, "bad_ledger": tally.bad_ledger},
        "failures": {"attempted": tally.attempted, "failed": tally.failed,
                     "failed_share": tally.failed / max(1, tally.attempted)},
    }
    stem = f"{wl.name}-s{args.seed}-t{args.trace}"
    path = harness.write_results(stem + ".json", doc)
    if spans is not None:
        harness.write_results(stem + "-spans.json", spans)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    print(f"failed {tally.failed} of {tally.attempted}; gate {'ok' if correct else 'FAILED'}; "
          f"results in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
