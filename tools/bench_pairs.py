#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload mpc-online --pairs 10 --seconds 30 [--claim tcl_outputs_per_s] \\
        [--first-seed 11] [--trace] [--tier1] [--out BENCH_N.json]

Each of --parent and --change is a checkout holding `perfbench/run.py`,
`BENCHMARK.json` and `src/trunclap`.  Pair i runs
`perfbench/run.py --workload W --seed F+i --seconds S --trace 0` once on
each side, one run at a time: the parent first on even i, the change first
on odd i, so that neither side always runs second on a warmer host.  F is
--first-seed (default 11); a claim written against seeds 11.. is confirmed
on fresh ones by starting past them.

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
--claim METRIC it also reports whether that metric meets the gain rule: at
least MIN_CLAIM_PAIRS pairs, the change better in at least nine tenths of
them, and the medians apart by more than the parent's IQR;
`wall_clock_met` applies the same rule to the unscaled values.  `host`
gives each pair's host load (`host_load.py`): the share of CPU time the
hypervisor stole while the pair ran, and the 1-minute load average at
its end, so a noisy pair shows beside a real change.

With --trace each pair also runs `--trace 1` once on each side, in the
same order and on the same seed, and `layers` reports, for every per-layer
metric of the parent's BENCHMARK.json that both traced runs report, each
side's median, their ratio and the pairs the change reads better in: where
a gain lands.

With --tier1 it runs the Tier-1 suite (TIER1, the command ROADMAP.md
names) once in each checkout, the parent first, and reports the passed and
failed counts of pytest's summary line (errors count as failed) and the
wall seconds of each run; --tier1 runs with or without --workload.

The report is printed as JSON.  With --out it is also stored under
`workloads.<W>` (and the Tier-1 runs under `tier1`) of that file, next to
a `method` note, keeping the file's other keys, so one file collects every
workload of a comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from host_load import cpu_ticks, host_load  # noqa: E402

FIRST_SEED = 11
# the Tier-1 suite, run in a checkout with its src/ first on PYTHONPATH
TIER1 = ("python", "-m", "pytest", "-q", "--continue-on-collection-errors")
# fewer pairs than this meet no claim: five have misjudged the wall clock
MIN_CLAIM_PAIRS = 10
METHOD = {
    "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds <S> --trace 0",
    "runner": "tools/bench_pairs.py",
    "order": "alternating: even-numbered pairs (from 0) run the parent first, "
             "odd-numbered pairs the change first; one run at a time",
    "seeds_note": "pair i uses seed <first-seed> + i (--first-seed, default "
                  f"{FIRST_SEED})",
    "statistics": "median and quartiles (numpy percentile 25/50/75) of each side's runs; "
                  "change_wins counts pairs in which the change reads better (ties count "
                  "for neither); within_bound compares the medians with the metric's bound "
                  "in BENCHMARK.json; resolved is false when the parent's IQR over its "
                  "median exceeds the bound, unless every change run reads better than "
                  f"every parent run; claim_met needs >= {MIN_CLAIM_PAIRS} pairs, >= 9/10 "
                  "wins and a median gap wider than the parent's IQR; wall_clock holds "
                  "the same quartiles of the unscaled values each run writes under "
                  "wall_clock.raw, and claim.wall_clock_met applies the claim rule to them",
    "layers": "with --trace, one --trace 1 run per side per pair on the pair's seed; each "
              "per-layer metric's medians, their ratio and the change's wins",
    "host": "per pair, the share of CPU time the hypervisor stole while it ran (the "
            "steal column of /proc/stat's cpu line, before and after) and the 1-minute "
            "load average at its end; null where /proc/stat is absent",
    "tier1": "the Tier-1 command once in each checkout, the parent first; passed and "
             "failed from pytest's summary line (errors count as failed), wall_s timed "
             "around the run",
}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--pairs", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--claim", default=None, help="end-to-end metric the change claims")
    ap.add_argument("--first-seed", type=int, default=FIRST_SEED,
                    help="seed of pair 0; pair i runs on first-seed + i")
    ap.add_argument("--trace", action="store_true",
                    help="also run --trace 1 once per side per pair and report the layers")
    ap.add_argument("--tier1", action="store_true", help="run the Tier-1 suite on each side")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.workload is None and not args.tier1:
        ap.error("give --workload, --tier1 or both")
    if args.workload is not None and (args.pairs is None or args.seconds is None):
        ap.error("--workload needs --pairs and --seconds")
    return args


def tier1_summary(output: str) -> dict:
    """Passed and failed counts of pytest's last summary line, such as
    "1 failed, 583 passed, 2 warnings in 35.10s"; errors count as failed."""
    for line in reversed(output.strip().splitlines()):
        counts = dict.fromkeys(("passed", "failed", "error"), 0)
        for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", line):
            counts[word.rstrip("s")] += int(n)
        if any(counts.values()) and re.search(r" in [\d.]+s", line):
            return {"passed": counts["passed"], "failed": counts["failed"] + counts["error"]}
    raise ValueError("no pytest summary line in the output")


def run_tier1(checkout: Path) -> dict:
    """One Tier-1 run in `checkout`: its summary counts and wall seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, *TIER1[1:]], cwd=checkout, env=env,
                       capture_output=True, text=True)
    return {**tier1_summary(r.stdout), "wall_s": round(time.perf_counter() - t0, 2)}


def run_result(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of perfbench/run.py: its last stdout line, the JSON result."""
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: run.py exited {r.returncode}: {r.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its result, with the unscaled end-to-end values of
    its results file as `wall_clock`."""
    result = run_result(checkout, workload, seed, seconds, 0)
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
        "claim_met": (len(parent) >= MIN_CLAIM_PAIRS
                      and 10 * wins >= 9 * len(parent)
                      and abs(c["median"] - p["median"]) > iqr
                      and better(c["median"], p["median"], direction)),
        "parent_runs": [round(v, 6) for v in parent],
        "change_runs": [round(v, 6) for v in change],
    }


def layer_values(result: dict, layers: list) -> dict:
    """The per-layer values of one traced run's result line, by name: each
    metric of `layers` (BENCHMARK.json's per_layer) that the run reports
    with a finite value."""
    metrics = result["metrics"]
    values = {}
    for m in layers:
        v = metrics.get(m["name"], {}).get("value")
        if isinstance(v, (int, float)) and np.isfinite(v):
            values[m["name"]] = v
    return values


def layer_report(layers: list, parent: list, change: list) -> dict:
    """Medians, their ratio and the change's wins of each per-layer metric
    over paired traced runs (parent[i], change[i]: `layer_values` dicts);
    a metric missing from a run is left out of its pair."""
    out = {}
    for m in layers:
        name, direction = m["name"], m["better"]
        pairs = [(p[name], c[name]) for p, c in zip(parent, change) if name in p and name in c]
        if not pairs:
            continue
        pm, cm = (float(np.median(side)) for side in zip(*pairs))
        wins = sum(better(c, p, direction) for p, c in pairs)
        out[name] = {"better": direction, "parent_median": round(pm, 6),
                     "change_median": round(cm, 6),
                     "change_over_parent": round(cm / pm, 4) if pm else None,
                     "change_wins": f"{wins}/{len(pairs)}"}
    return out


def pair_report(args, spec: list, layers: list) -> dict:
    """The report of --pairs alternating runs of --workload on each side,
    with the traced runs' `layers` under --trace."""
    runs = {"parent": [], "change": []}
    traced = {"parent": [], "change": []}
    host = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        before = cpu_ticks()
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
        if args.trace:
            for side in order:
                result = run_result(getattr(args, side), args.workload, seed, args.seconds, 1)
                traced[side].append(layer_values(result, layers))
        host.append(host_load(before, cpu_ticks()))
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
        "seeds": [args.first_seed + i for i in range(args.pairs)],
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "host": host,
        "metrics": metrics,
    }
    if args.claim:
        # the same rule on the unscaled values: a change in allocations moves
        # the host probe, and with it every scaled value
        m = next(m for m in spec if m["name"] == args.claim)
        parent, change = ([r["wall_clock"][args.claim] for r in runs[side]] for side in runs)
        report["claim"] = {"metric": args.claim, "met": metrics[args.claim]["claim_met"],
                           "wall_clock_met": compare(m, parent, change)["claim_met"]}
    if args.trace:
        report["layers"] = layer_report(layers, traced["parent"], traced["change"])
    return report


def main(argv=None) -> int:
    args = parse(argv)
    report = tier1 = None
    if args.workload:
        bench = json.loads((args.parent / "BENCHMARK.json").read_text())
        spec = bench["end_to_end"]
        if args.claim and args.claim not in {m["name"] for m in spec}:
            print(f"--claim {args.claim!r} is not an end-to-end metric", file=sys.stderr)
            return 2
        report = pair_report(args, spec, bench.get("per_layer", []))
        print(json.dumps(report, indent=1))
    if args.tier1:
        tier1 = {"command": "PYTHONPATH=src " + " ".join(TIER1),
                 **{side: run_tier1(getattr(args, side)) for side in ("parent", "change")}}
        print(json.dumps({"tier1": tier1}, indent=1))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["method"] = METHOD
        if report is not None:
            doc.setdefault("workloads", {})[args.workload] = report
        if tier1 is not None:
            doc["tier1"] = tier1
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
