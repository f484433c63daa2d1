#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload mpc-online --pairs 10 --seconds 30 [--claim tcl_outputs_per_s] \\
        [--out BENCH_N.json]

Each of --parent and --change is a checkout holding `perfbench/run.py`,
`BENCHMARK.json` and `src/trunclap`.  Pair i runs
`perfbench/run.py --workload W --seed 11+i --seconds S --trace 0` once on
each side, one run at a time: the parent first on even i, the change first
on odd i, so that neither side always runs second on a warmer host.

For every end-to-end metric in the parent's BENCHMARK.json it reports each
side's quartiles (numpy percentiles 25/50/75), the change's median over the
parent's, the pairs the change reads better in (ties count for neither),
the parent's IQR over its median, and `within_bound`: the change's median
is worse than the parent's by no more than the metric's bound.  A metric
is `resolved` unless the parent's IQR over its median exceeds the bound:
its runs then spread too widely to call a change within the bound
unchanged, unless every run of the change reads better than every run of
the parent.  Beside these host-scaled values, `wall_clock` gives each
side's quartiles of the unscaled ones (`wall_clock.raw` in the run's
`perfbench/out/<W>-s<seed>-t0.json`) and their medians' ratio, so a drift
of the host probe between the two sides shows as a gap between the two
ratios.  With
--claim METRIC it also reports whether that metric meets the gain rule: the
change better in at least nine tenths of the pairs, and the medians apart
by more than the parent's IQR; `wall_clock_met` applies the same rule to
the unscaled values.

The report is printed as JSON.  With --out it is also stored under
`workloads.<W>` of that file, next to a `method` note, keeping the file's
other keys, so one file collects every workload of a comparison.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

FIRST_SEED = 11
METHOD = {
    "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds <S> --trace 0",
    "runner": "tools/bench_pairs.py",
    "order": "alternating: even-numbered pairs (from 0) run the parent first, "
             "odd-numbered pairs the change first; one run at a time",
    "seeds_note": f"pair i uses seed {FIRST_SEED} + i",
    "statistics": "median and quartiles (numpy percentile 25/50/75) of each side's runs; "
                  "change_wins counts pairs in which the change reads better (ties count "
                  "for neither); within_bound compares the medians with the metric's bound "
                  "in BENCHMARK.json; resolved is false when the parent's IQR over its "
                  "median exceeds the bound, unless every change run reads better than "
                  "every parent run; claim_met needs >= 9/10 wins and a median gap wider "
                  "than the parent's IQR; wall_clock holds the same quartiles of the "
                  "unscaled values each run writes under wall_clock.raw, and "
                  "claim.wall_clock_met applies the claim rule to them",
}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--claim", default=None, help="end-to-end metric the change claims")
    ap.add_argument("--out", type=Path, default=None)
    return ap.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its last stdout line, the JSON result, with the
    unscaled end-to-end values of its results file as `wall_clock`."""
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py exited {r.returncode}: {r.stderr[-2000:]}")
    result = json.loads(lines[-1])
    doc = checkout / "perfbench" / "out" / f"{workload}-s{seed}-t0.json"
    result["wall_clock"] = json.loads(doc.read_text())["wall_clock"]["raw"]
    return result


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 6), "median": round(float(med), 6), "q3": round(float(q3), 6)}


def ratio(change: dict, parent: dict):
    """The change's median over the parent's."""
    return round(change["median"] / parent["median"], 4) if parent["median"] else None


def better(a: float, b: float, direction: str) -> bool:
    """a reads better than b."""
    return a < b if direction == "lower" else a > b


def compare(spec: dict, parent: list, change: list) -> dict:
    """The report of one metric over paired runs (parent[i], change[i])."""
    p, c = quartiles(parent), quartiles(change)
    direction, bound = spec["better"], spec["bound"]
    iqr = p["q3"] - p["q1"]
    wins = sum(better(ci, pi, direction) for pi, ci in zip(parent, change))
    limit = p["median"] * (1 + bound if direction == "lower" else 1 - bound)
    spread = iqr / p["median"] if p["median"] else None
    worst_change = max(change) if direction == "lower" else min(change)
    best_parent = min(parent) if direction == "lower" else max(parent)
    return {
        "better": direction,
        "bound": bound,
        "parent": p,
        "change": c,
        "change_over_parent": ratio(c, p),
        "change_wins": f"{wins}/{len(parent)}",
        "parent_iqr_over_median": round(spread, 4) if spread is not None else None,
        "within_bound": not better(limit, c["median"], direction),
        "resolved": (spread is not None and spread <= bound)
        or better(worst_change, best_parent, direction),
        "claim_met": (10 * wins >= 9 * len(parent)
                      and abs(c["median"] - p["median"]) > iqr
                      and better(c["median"], p["median"], direction)),
        "parent_runs": [round(v, 6) for v in parent],
        "change_runs": [round(v, 6) for v in change],
    }


def main(argv=None) -> int:
    args = parse(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim and args.claim not in {m["name"] for m in spec}:
        print(f"--claim {args.claim!r} is not an end-to-end metric", file=sys.stderr)
        return 2
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
        print(f"pair {i} (seed {seed}) done", file=sys.stderr)
    metrics = {}
    for m in spec:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        metrics[name] = compare(m, parent, change)
        p, c = (quartiles([r["wall_clock"][name] for r in runs[side]]) for side in runs)
        metrics[name]["wall_clock"] = {"parent": p, "change": c, "change_over_parent": ratio(c, p)}
        if name != args.claim:
            del metrics[name]["claim_met"]
    report = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [FIRST_SEED + i for i in range(args.pairs)],
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "metrics": metrics,
    }
    if args.claim:
        # the same rule on the unscaled values: a change in allocations moves
        # the host probe, and with it every scaled value
        m = next(m for m in spec if m["name"] == args.claim)
        parent, change = ([r["wall_clock"][args.claim] for r in runs[side]] for side in runs)
        report["claim"] = {"metric": args.claim, "met": metrics[args.claim]["claim_met"],
                           "wall_clock_met": compare(m, parent, change)["claim_met"]}
    print(json.dumps(report, indent=1))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["method"] = METHOD
        doc.setdefault("workloads", {})[args.workload] = report
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
