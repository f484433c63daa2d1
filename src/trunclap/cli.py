"""Operator command line: calibrate, evaluate, sample, run secure batches,
validate, and benchmark.

Every run is fully seeded (no ambient entropy), so identical arguments
produce byte-identical artifacts.  Exit codes: 0 success, 1 usage error,
2 failed validation check.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .mechanisms import (
    DISCRETE_MECHANISMS,
    Mechanism,
    MechanismParams,
    calibrate,
    kstar_calibration,
    lookup_mechanism,
    max_privacy_ratio,
    moments_lap,
    moments_lap_exact,
)
from .mpc import make_session, run_batch, run_once
from .sampling import noise_plan, sample_batch
from .thresholds import THRESHOLDS
from .validation import Histogram, overlay_check, table1_report

USAGE_ERROR = 1
CHECK_FAILED = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _dump_json(obj, out):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_csv(rows, header, out):
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    finally:
        if out:
            fh.close()


def _resolve_params(args) -> MechanismParams:
    """Build MechanismParams from either --sigma or --epsilon/--regime."""
    have_sigma = args.sigma is not None
    have_eps = args.epsilon is not None
    if have_sigma == have_eps:
        raise UsageError("provide exactly one of --sigma or --epsilon (with --regime)")
    if have_sigma:
        sigma = args.sigma
    else:
        sigma = calibrate(args.epsilon, args.mechanism, args.regime, L=args.L, p=args.p).sigma
    return MechanismParams(E=args.E, L=args.L, sigma=sigma, p=args.p)


def _discrete(args, refusal: str) -> Mechanism:
    """The record of --mechanism; `refusal` is the usage error for lap."""
    if args.mechanism == "lap":
        raise UsageError(refusal)
    return lookup_mechanism(args.mechanism)


def _add_param_flags(sp, with_x=True):
    sp.add_argument("--mechanism", choices=("lap", "tdl", "tcl"), default="tdl")
    sp.add_argument("--E", type=float, required=True, help="input bound")
    sp.add_argument("--L", type=float, required=True, help="noise bound")
    sp.add_argument("--sigma", type=float, default=None, help="noise scale")
    sp.add_argument("--epsilon", type=float, default=None, help="privacy budget")
    sp.add_argument("--regime", choices=("eps", "dchi"), default="eps")
    sp.add_argument("--p", type=int, default=0, help="precision exponent")
    if with_x:
        sp.add_argument("--x", type=float, default=0.0, help="input value")


def _apply_config(argv: list[str]) -> list[str]:
    """Expand `--config file.json` (a JSON object) into defaults that explicit
    flags override; a true value is the bare flag, a false one is left out."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise UsageError("--config needs a file path") from None
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError(f"--config {path} must hold a JSON object")
    out = argv[: i] + argv[i + 2 :]
    explicit = {arg.split("=", 1)[0] for arg in out}
    for key, val in cfg.items():
        flag = f"--{key}"
        if flag not in explicit and val is not False:
            out += [flag] if val is True else [flag, str(val)]
    return out


def cmd_calibrate(args) -> int:
    if args.regime == "kstar":
        if args.E is None:
            raise UsageError("kstar calibration needs --E")
        res = kstar_calibration(args.epsilon, args.E)
    else:
        res = calibrate(args.epsilon, args.mechanism, args.regime, L=args.L, p=args.p)
    _dump_json(res.as_dict(), args.out)
    return 0


def cmd_pmf(args) -> int:
    params = _resolve_params(args)
    mech = _discrete(args, "pmf is defined for the discrete mechanisms (tdl, tcl)")
    pmf = mech.pmf(args.x, params)
    if args.format == "json":
        _dump_json(pmf.as_dict(), args.out)
    else:
        rows = [(repr(float(y)), repr(float(m))) for y, m in zip(pmf.support(), pmf.masses)]
        _dump_csv(rows, ["y", "mass"], args.out)
    return 0


def cmd_moments(args) -> int:
    params = _resolve_params(args)
    fn = moments_lap if args.mechanism == "lap" else lookup_mechanism(args.mechanism).moments
    mean, mse = fn(args.x, params)
    out = {
        "mechanism": args.mechanism,
        "params": params.as_dict(),
        "x": args.x,
        "mean": mean,
        "mse": mse,
        "max_privacy_ratio": max_privacy_ratio(args.mechanism, params),
    }
    if args.mechanism == "lap":
        # the closed-form display bounds the MSE only in the k* scale
        # regime; report the exact value alongside it, and whether it does
        out["mse_exact"] = moments_lap_exact(args.x, params)[1]
        out["mse_is_upper_bound"] = bool(mse >= out["mse_exact"])
    _dump_json(out, args.out)
    return 0


def cmd_sample(args) -> int:
    params = _resolve_params(args)
    mech = _discrete(args, "sampling is defined for the discrete mechanisms")
    meta = {
        "mechanism": args.mechanism,
        "params": params.as_dict(),
        "x": args.x,
        "seed": args.seed,
        "inner_sampler": noise_plan(mech, params).inner.method,
    }
    values = sample_batch(mech, args.x, params, args.n, args.seed)
    if args.format == "json":
        _dump_json({**meta, "values": [float(v) for v in values]}, args.out)
    else:
        _dump_csv([(repr(float(v)),) for v in values], ["value"], args.out)
    return 0


def cmd_mpc(args) -> int:
    params = _resolve_params(args)
    mech = _discrete(args, "the secure protocols realize the discrete mechanisms")
    seeds = (args.seed, args.seed + 1)
    spec = params.output_grid(args.mechanism)
    # the plan's refusals and a grid too large to count come before any session
    noise_plan(mech, params)
    Histogram.from_samples((), spec)
    values = run_batch(mech.name, params, args.x, args.n, *seeds)
    session = make_session(params, seed0=seeds[0], seed1=seeds[1],
                           record_transcript=args.transcript)
    _, ledger = run_once(session, mech, args.x, params)
    hist = Histogram.from_samples(values, spec)
    payload = {
        "mechanism": args.mechanism,
        "params": params.as_dict(),
        "x": args.x,
        "sessions": args.n,
        "seeds": list(seeds),
        "histogram": hist.as_dict(),
        "ledger_per_run": ledger,
    }
    if args.transcript:
        payload["transcript"] = session.transcript_dump()
    _dump_json(payload, args.out)
    return 0


def cmd_validate(args) -> int:
    """Reproduce the accuracy table and the distribution overlay, with checks."""
    n = args.n
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    th = THRESHOLDS
    failures = []
    params0 = MechanismParams(E=64, L=32, sigma=8, p=0)
    params2 = MechanismParams(E=64, L=32, sigma=8, p=2)
    report = {"n": n, "cells": [], "overlays": []}
    for params in (params0, params2):
        tab = table1_report(params, (0.0, -32.0, 64.0), n, seed=args.seed)
        for row in tab["rows"]:
            ok_mean = abs(row["mean_empirical"] - row["mean_theory"]) <= th["table1_mean_abs"]
            ok_mse = abs(row["mse_empirical"] - row["mse_theory"]) <= th["table1_mse_rel"] * row["mse_theory"]
            report["cells"].append({**row, "p": params.p, "pass": ok_mean and ok_mse})
            if not (ok_mean and ok_mse):
                failures.append(f"moments cell p={params.p} x={row['x']}")
    for j, x in enumerate((64.0, -32.0)):
        check = overlay_check(x, params2, args.seed + 17 + j)
        report["overlays"].append(
            {"x": x, "tv": check.tv, "n": th["overlay_n"], "pass": check.passed}
        )
        if not check.passed:
            failures.append(f"overlay x={x} tv={check.tv:.4f}")
        if args.out:
            stem = os.path.splitext(args.out)[0]
            columns = (check.pmf.support(), check.pmf.masses, check.hist.frequencies())
            _dump_csv([tuple(repr(float(v)) for v in row) for row in zip(*columns)],
                      ["y", "theoretical", "empirical"], f"{stem}_overlay_x{int(x)}.csv")
    report["failures"] = failures
    report["pass"] = not failures
    _dump_json(report, args.out)
    if args.out:
        _print_validate_summary(report)
    return 0 if not failures else CHECK_FAILED


def _print_validate_summary(report: dict) -> None:
    print(f"{'p':>2} {'x':>7} {'mean(th)':>10} {'mean(emp)':>10} "
          f"{'mse(th)':>10} {'mse(emp)':>10}  ok")
    for c in report["cells"]:
        print(
            f"{c['p']:>2} {c['x']:>7.1f} {c['mean_theory']:>10.3f} "
            f"{c['mean_empirical']:>10.3f} {c['mse_theory']:>10.2f} "
            f"{c['mse_empirical']:>10.2f}  {'yes' if c['pass'] else 'NO'}"
        )
    for o in report["overlays"]:
        print(f"overlay x={o['x']:.0f}: tv={o['tv']:.5f} "
              f"{'ok' if o['pass'] else 'EXCEEDS BOUND'}")


def cmd_bench(args) -> int:
    """Emit the abstract cost ledger of one noise+perturb run per setting."""
    rows = []
    for p in (0, 2):
        params = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=p)
        for mech in DISCRETE_MECHANISMS.values():
            session = make_session(params, seed0=args.seed, seed1=args.seed + 1)
            _, ledger = run_once(session, mech, args.x, params)
            rows.append({"mechanism": mech.name, "p": p, **ledger})
    if args.format == "csv":
        header = list(rows[0].keys())
        _dump_csv([[r[k] for k in header] for r in rows], header, args.out)
    else:
        _dump_json({"ledgers": rows}, args.out)
    return 0


def build_parser() -> _Parser:
    ap = _Parser(prog="trunclap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("calibrate", help="minimal sigma for a privacy target")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--regime", choices=("eps", "dchi", "kstar"), default="eps")
    sp.add_argument("--mechanism", choices=("lap", "tdl", "tcl"), default="tdl")
    sp.add_argument("--L", type=float, default=None)
    sp.add_argument("--E", type=float, default=None)
    sp.add_argument("--p", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("pmf", help="tabulate an exact distribution")
    _add_param_flags(sp)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.set_defaults(fn=cmd_pmf)

    sp = sub.add_parser("moments", help="analytic mean and mse")
    _add_param_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("sample", help="draw plaintext samples")
    _add_param_flags(sp)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("mpc", help="run secure two-party sessions")
    _add_param_flags(sp)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--transcript", action="store_true",
                    help="include a hex transcript dump of one audited run")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_mpc)

    sp = sub.add_parser("validate", help="accuracy-table and overlay checks")
    sp.add_argument("--n", type=int, default=THRESHOLDS["table1_empirical_n"],
                    help="draws per accuracy-table cell (the overlays always "
                         f"draw {THRESHOLDS['overlay_n']})")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("bench", help="cost-ledger table for the protocols")
    sp.add_argument("--x", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(list(argv if argv is not None else sys.argv[1:])))
        return args.fn(args)
    except (UsageError, ValueError, OSError, MemoryError) as exc:
        # a MemoryError raised bare carries no text: name what ran out
        detail = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"usage error: {detail}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
