"""The command line's admission contract, fuzzed.

A call of `calibrate`, `pmf`, `moments`, `sample` or `mpc` whose numeric
flags come from an edge lattice (0, negatives, NaN, +-inf, 1e+-300,
2^-1074, the powers of two near 2^53, p up to 1,100) either answers or is
refused: exit 0 with strict JSON (no NaN or Infinity token) or a CSV of
finite numbers, or exit 1 with `usage error:` on stderr.  No call raises.

The fuzz is derandomized with a fixed example count, so every run tries
the same calls.  `pmf` and `mpc`, which hold the whole output grid, draw
only sets of at most 2^16 points or sets the parameters refuse before a
grid exists, and `sample` and `mpc` draw n <= 3, so no call allocates a
large array.  The CLI's second party seed is --seed + 1, so equal party
seeds cannot arrive through it; `Session` refuses them
(tests/test_mpc_core.py).
"""

import csv
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from trunclap import cli

REAL_EDGES = ("0", "-1", "-0.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
              repr(2.0**-1074), repr(2.0**52), repr(2.0**53), repr(2.0**53 + 2), repr(2.0**54))
EDGES = {
    "E": REAL_EDGES, "L": REAL_EDGES, "x": REAL_EDGES, "sigma": REAL_EDGES,
    "epsilon": REAL_EDGES,
    "p": ("-1", "52", "53", "60", "200", "1022", "1023", "1024", "1074", "1100"),
    "n": ("-1", "0"),
    "seed": ("-1", str(2**63), str(2**64 - 1), str(2**64)),
}
# each call starts from an ordinary set and takes up to two flags from the
# edge lattice, so that most calls reach the arithmetic behind the checks
ORDINARY = {
    "E": ("1", "4", "64"), "L": ("1", "2", "32"), "sigma": ("0.5", "1", "8"),
    "epsilon": ("0.5", "1", "4"), "p": ("0", "1", "2"), "n": ("1", "3"), "seed": ("0", "7"),
}
# a quarter of the calls start from a tiny grid instead: E = L tiny and p
# large, three correlated flags that two edge flags never reach together
TINY = {"bound": (repr(2.0**-60), repr(2.0**-1074)), "p": ("62", "63", "1074", "1076", "1100")}


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def check(argv: list[str]) -> int:
    """Run one call in process and assert the contract; its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), (argv, code)
    if code == 1:
        assert err.getvalue().startswith("usage error:"), (argv, err.getvalue())
    elif argv[0] in ("pmf", "sample") and "--format=json" not in argv:
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row), argv
    else:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    return code


def grid_points(E: str, L: str, p: str) -> float:
    """2^p (E + L), the step count of a set's output grid: inf where it
    leaves a double, as the parameters then refuse it, and NaN for a NaN
    bound."""
    try:
        return math.ldexp(float(E) + float(L), int(p))
    except OverflowError:
        return math.inf


@st.composite
def calls(draw) -> list[str]:
    """One call, its flags as --flag=value so that a negative value parses."""
    command = draw(st.sampled_from(("calibrate", "pmf", "moments", "sample", "mpc")))
    flags = {name: draw(st.sampled_from(values)) for name, values in ORDINARY.items()}
    if draw(st.integers(0, 3)) == 0:
        flags["E"] = flags["L"] = draw(st.sampled_from(TINY["bound"]))
        flags["p"] = draw(st.sampled_from(TINY["p"]))
    flags["x"] = draw(st.sampled_from(("0", "1", flags["E"], f"-{flags['E']}")))
    for name in draw(st.lists(st.sampled_from(sorted(EDGES)), max_size=2, unique=True)):
        flags[name] = draw(st.sampled_from(EDGES[name]))
    # lap is refused by every command here but `calibrate` and `moments`
    mechanism = draw(st.sampled_from(("tdl", "tcl", "lap")))
    if command == "calibrate":
        regime = draw(st.sampled_from(("eps", "dchi", "kstar")))
        names = ("epsilon", "L", "E", "p")
    else:
        regime = draw(st.sampled_from(("eps", "dchi")))
        names = ("E", "L", "p", "x", draw(st.sampled_from(("sigma", "epsilon"))))
        names += ("n", "seed") if command in ("sample", "mpc") else ()
    argv = [command, f"--mechanism={mechanism}", f"--regime={regime}"]
    argv += [f"--{name}={flags[name]}" for name in names]
    if command in ("pmf", "sample"):
        argv.append(f"--format={draw(st.sampled_from(('csv', 'json')))}")
    if command in ("pmf", "mpc"):
        assume(not 2**15 <= grid_points(flags["E"], flags["L"], flags["p"]) < math.inf)
    return argv


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(calls())
def test_every_call_answers_or_is_refused(argv):
    check(argv)


# calls that ended in a traceback or printed a non-JSON token
FOUND = [
    # u^3 in the TDL/TCL moments' window sums overflowed
    ["moments", "--mechanism", "tdl", "--E", "1e15", "--L", "0.25", "--p", "60", "--x", "0.5",
     "--sigma", "1e110"],
    ["moments", "--mechanism", "tcl", "--E", "1e300", "--L", "1e15", "--p", "0", "--x", "1",
     "--epsilon", "1e-300", "--regime", "dchi"],
    # sigma**2 in the continuous moments overflowed
    ["moments", "--mechanism", "lap", "--E", "3", "--L", "64", "--x", "0.5", "--sigma", "1e200"],
    # the MSE bound printed Infinity, the exact MSE 0.0 for 4/3
    ["moments", "--mechanism", "lap", "--E", "1", "--L", "1", "--x", "0", "--sigma", "1e110"],
    # e^eps past a double printed max_privacy_ratio: Infinity
    ["moments", "--mechanism", "lap", "--E", "4", "--L", "1e15", "--sigma", "8"],
    ["moments", "--mechanism", "tdl", "--E", "4", "--L", "1e3", "--p", "1", "--epsilon", "700",
     "--regime", "dchi"],
    # the kernel's exponent -dist / sigma overflowed with a RuntimeWarning
    ["pmf", "--mechanism", "tdl", "--E", "4", "--L", "32", "--p", "2", "--x", "4",
     "--sigma", repr(2.0**-1074)],
    # sigma = L / epsilon and 1 / epsilon past a double printed sigma: Infinity
    ["calibrate", "--epsilon", "1e-300", "--L", "1e300"],
    ["calibrate", "--epsilon", repr(2.0**-1074), "--regime", "dchi"],
    # 2.0**p in the draw plan and in the histogram overflowed from p = 1024
    ["sample", "--E", "5e-324", "--L", "5e-324", "--sigma", "1", "--p", "1074", "--n", "2"],
    ["mpc", "--E", "5e-324", "--L", "5e-324", "--sigma", "1", "--p", "1074", "--n", "2"],
]


@pytest.mark.parametrize("argv", FOUND, ids=range(len(FOUND)))
def test_the_calls_found_are_answered_or_refused(argv):
    check(argv)


# the continuous moments where their closed forms switch or leave the
# doubles: eps = L/sigma at 2^-30 (the two-term series), at 3 and 4 (P(2,
# eps)'s and P(3, eps)'s series against 1 - Q), past e^(-eps)'s normal
# doubles and ln(DBL_MAX), past which the privacy ratio refuses, and at
# 10^6; sigma = 1e200, whose MSE bound leaves the doubles; and E/sigma past
# a double where the tail weight is not
LAP_EDGES = {
    "eps-2^-30": (["--E", "1", "--L", "1", "--x", "1", "--sigma", repr(2.0**30)], 0),
    "eps-2^-30-below": (["--E", "1", "--L", "1", "--x", "1",
                         "--sigma", repr(math.nextafter(2.0**30, math.inf))], 0),
    "eps-2^-30-above": (["--E", "1", "--L", "1", "--x", "1",
                         "--sigma", repr(math.nextafter(2.0**30, 0))], 0),
    "eps-3": (["--E", "4", "--L", "3", "--x", "1", "--sigma", "1"], 0),
    "eps-3-below": (["--E", "4", "--L", "3", "--x", "1", "--sigma", repr(math.nextafter(1, 2))], 0),
    "eps-4": (["--E", "4", "--L", "4", "--x", "1", "--sigma", "1"], 0),
    "eps-4-below": (["--E", "4", "--L", "4", "--x", "1", "--sigma", repr(math.nextafter(1, 2))], 0),
    "eps-709.78": (["--E", "4", "--L", "1", "--x", "4", "--sigma", repr(1 / 709.78)], 0),
    "eps-ln-max": (["--E", "4", "--L", "1", "--x", "4",
                    "--sigma", repr(1 / math.log(sys.float_info.max))], 0),
    "eps-745.2": (["--E", "1e300", "--L", "1", "--x", "1", "--sigma", repr(1 / 745.2)], 1),
    "eps-1e6": (["--E", "4", "--L", "1", "--x", "4", "--sigma", "1e-6"], 1),
    "sigma-1e200": (["--E", "1", "--L", "1", "--x", "1", "--sigma", "1e200"], 1),
    "k-overflows": (["--E", "1e150", "--L", repr(2.0**-525), "--sigma", "1e-160", "--p", "525",
                     "--x", "1"], 0),
    "k-overflows-e-underflows": (["--E", "1e300", "--L", "1", "--sigma", "1e-10", "--x", "0.5"], 1),
}


@pytest.mark.parametrize("argv, code", LAP_EDGES.values(), ids=LAP_EDGES.keys())
def test_the_continuous_moments_at_their_edges(argv, code):
    assert check(["moments", "--mechanism", "lap", *argv]) == code


@pytest.mark.parametrize("p, code", [(1074, 0), (1076, 1), (1100, 1)])
@pytest.mark.parametrize("command", [["sample", "--n", "2"], ["mpc", "--n", "2"],
                                     ["pmf", "--mechanism", "tcl"], ["moments"]])
def test_the_finest_grid_is_answered_and_a_finer_one_refused(command, p, code):
    # E = L = 2^-1074 is aligned at every p to 2097, but past p = 1074 the
    # step 2^-p is no double: pmf_tcl wrote 16 masses of 0.0 at p = 1076
    argv = [*command, "--E", "5e-324", "--L", "5e-324", "--sigma", "1", "--p", str(p)]
    assert check(argv) == code


def test_a_sub_unit_set_past_p_62_runs_the_protocols():
    # the sign test reaches 24 steps, but the 2^p floor of the ring sized
    # q = 2^65, which the dealer refused where `sample` ran the set
    tiny = repr(2.0**-60)
    assert check(["mpc", "--E", tiny, "--L", tiny, "--sigma", "1", "--p", "63", "--n", "2"]) == 0


def test_a_finite_tcl_privacy_ratio_is_answered(capsys):
    # e^eps is past a double at eps = 710, but TCL's ratio e^eps (1 - e^-a)
    # / a, a = 355, is about 6.29e305: answered; TDL's e^eps is refused
    argv = ["moments", "--mechanism", "tcl", "--E", "2", "--L", "2",
            "--sigma", "0.0028169014084507044", "--p", "0"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert out["max_privacy_ratio"] == pytest.approx(6.2929e305, rel=1e-4)
    argv[2] = "tdl"
    assert check(argv) == 1


@pytest.mark.parametrize("command", [["sample", "--n", "2"], ["mpc", "--n", "2"]])
def test_the_2_to_the_53_refusal_is_one_short_line(command, capsys):
    # 2^p (E + L) = 2^1015 steps, which the refusal printed as a 306-digit
    # integer; it names p (in the set) and the count's power of two
    tiny = repr(2.0**-60)
    argv = [*command, "--E", tiny, "--L", tiny, "--sigma", "1", "--p", "1074"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "p=1074" in err and "2^1015 output steps, past the 2^53" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_a_bare_memory_error_names_what_ran_out(monkeypatch, capsys):
    # numpy's MemoryError names the allocation; a bare one has no text,
    # and the refusal read "usage error: " with nothing after it
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_pmf", out_of_memory)
    assert cli.main(["pmf", "--E", "4", "--L", "2", "--sigma", "1"]) == 1
    assert capsys.readouterr().err == "usage error: out of memory\n"


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 22: the TDL/TCL moments lose "
                   "digits as L/sigma falls; at sigma = 1e8 the MSE reads about -1.4")
@pytest.mark.parametrize("mechanism", ["tdl", "tcl"])
def test_the_mse_is_not_negative(mechanism, capsys):
    argv = ["moments", "--mechanism", mechanism, "--E", "0.5", "--L", "0.5", "--p", "2",
            "--sigma", "1e8"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["mse"] >= 0
