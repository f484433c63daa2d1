"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` for the line-per-criterion report,
or execute this file directly.  Thresholds live in trunclap.thresholds.

A3 (distribution-overlay TV below 0.01 on the 769-point p=2 support) draws
THRESHOLDS["overlay_n"] = 2M samples per input.  The count is sized for the
bound: a faithful multinomial sample there has expected TV 0.0060 at 2M,
0.0083 with the McDiarmid term for failure probability 1e-9 added, while
at 500k it is 0.0119, above the bound for any faithful sampler.
`test_a3_draw_count_is_sized_for_its_bound` keeps the two from drifting
apart, and `test_a3_rejects_a_shifted_law` shows the check can still fail.
"""

import itertools
import math
import time
from itertools import product

import numpy as np

from conftest import multinomial_tv_mean
from trunclap import (
    TCL,
    TDL,
    MechanismParams,
    RandomTape,
    calibrate,
    centered_clap_pmf,
    centered_dlap_pmf,
    moments_tdl,
    pmf_tcl,
    pmf_tdl,
    sample_tdl_batch,
)
from trunclap.grids import steps_of
from trunclap.mechanisms import branch_probability_c, branch_probability_d, outer_count
from trunclap.mpc import (
    make_session,
    pi_c_noise,
    pi_c_perturb,
    pi_d_noise,
    pi_d_perturb,
    pi_noise,
    pi_perturb,
    run_batch,
)
from trunclap.sampling import centered_dlap_config, dlap_zero_mass, noise, perturb
from trunclap.thresholds import THRESHOLDS as TH
from trunclap.validation import Histogram, empirical_moments, overlay_check, tv_distance

TABLE_CELLS = {
    (0, 0.0): (0.00, 670.66),
    (0, -32.0): (-25.75, 870.75),
    (0, 64.0): (51.49, 1471.04),
    (2, 0.0): (0.00, 664.86),
    (2, -32.0): (-25.76, 864.54),
    (2, 64.0): (51.52, 1463.58),
}


def report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_a1_accuracy_table_theoretical():
    t0 = time.time()
    worst = 0.0
    for (p, x), (mean_ref, mse_ref) in TABLE_CELLS.items():
        params = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=p)
        mean, mse = moments_tdl(x, params)
        worst = max(worst, abs(mean - mean_ref), abs(mse - mse_ref))
    elapsed = time.time() - t0
    ok = worst <= TH["table1_theory_abs"] and elapsed < 1.0
    report("A1 accuracy-table theory", ok, f"worst dev {worst:.4f}, {elapsed:.3f}s")
    assert worst <= TH["table1_theory_abs"]
    assert elapsed < 1.0


def test_a2_accuracy_table_empirical():
    n = TH["table1_empirical_n"]
    worst_mean, worst_mse = 0.0, 0.0
    for j, ((p, x), (mean_ref, mse_ref)) in enumerate(TABLE_CELLS.items()):
        params = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=p)
        vals = sample_tdl_batch(x, params, n, 1234 + j)
        h = Histogram.from_samples(vals, params.output_grid("tdl"))
        mean, mse = empirical_moments(h, x)
        worst_mean = max(worst_mean, abs(mean - mean_ref))
        worst_mse = max(worst_mse, abs(mse - mse_ref) / mse_ref)
    ok = worst_mean <= TH["table1_mean_abs"] and worst_mse <= TH["table1_mse_rel"]
    report(
        "A2 accuracy-table empirical",
        ok,
        f"worst |mean dev| {worst_mean:.3f} (<= {TH['table1_mean_abs']}), "
        f"worst mse rel dev {worst_mse:.4f} (<= {TH['table1_mse_rel']})",
    )
    assert ok


A3_PARAMS = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
A3_XS = (64.0, -32.0)


def test_a3_distribution_overlay():
    n = TH["overlay_n"]
    checks = {x: overlay_check(x, A3_PARAMS, 4321 + j) for j, x in enumerate(A3_XS)}
    tvs = {x: c.tv for x, c in checks.items()}
    ok = all(c.passed for c in checks.values())
    report("A3 distribution overlay", ok, f"TVs {tvs} vs bound {TH['overlay_tv']} at N={n}")
    assert ok, (
        f"overlay TVs {tvs} not below {TH['overlay_tv']} at N={n}; a faithful "
        f"sampler's expected TV on this support is about 0.0060"
    )


def test_a3_draw_count_is_sized_for_its_bound():
    n, bound = TH["overlay_n"], TH["overlay_tv"]
    mcdiarmid = math.sqrt(math.log(1e9) / (2 * n))
    for x in A3_XS:
        masses = pmf_tdl(x, A3_PARAMS).masses
        assert multinomial_tv_mean(masses, n) + mcdiarmid < bound
        # the draw count A3 used to have: no faithful sampler meets the bound
        assert multinomial_tv_mean(masses, 500_000) > bound


def test_a3_rejects_a_shifted_law():
    # A3's draws and seeds, but made at x - 2^-p and compared with the law at x
    step = 2.0 ** -A3_PARAMS.p
    for j, x in enumerate(A3_XS):
        vals = sample_tdl_batch(x - step, A3_PARAMS, TH["overlay_n"], 4321 + j)
        h = Histogram.from_samples(vals, A3_PARAMS.output_grid("tdl"))
        tv = tv_distance(h, pmf_tdl(x, A3_PARAMS))
        assert tv >= TH["overlay_tv"], f"draws at x-{step} pass against x={x}: TV {tv}"


def test_a4_calibration_reference_point():
    res = calibrate(1.3, "tdl", "eps", L=64.0)
    ok = TH["calibration_sigma_lo"] <= res.sigma <= TH["calibration_sigma_hi"]
    report("A4 calibration sigma=L/eps", ok, f"sigma {res.sigma:.6f}")
    assert ok


def test_a5_exact_privacy_certificates():
    t0 = time.time()
    tol = TH["ratio_tol"]
    ok = True
    notes = []
    for p in (0, 1):
        for eps in (1.0, 2.0):
            params = MechanismParams(E=4.0, L=2.0, sigma=2.0 / eps, p=p)
            xs = [float(v) for v in params.input_grid().values()]
            pd = {x: pmf_tdl(x, params).masses for x in xs}
            pc = {x: pmf_tcl(x, params).masses for x in xs}
            bd = max(float(np.max(pd[a] / pd[b])) for a in xs for b in xs)
            bc = max(float(np.max(pc[a] / pc[b])) for a in xs for b in xs)
            ok &= abs(bd - math.exp(eps)) <= tol
            ok &= bc <= math.exp(eps) + tol
            notes.append(f"p={p} eps={eps}: tdl {bd:.6f} tcl {bc:.6f}")
    # distance-based certificates under their own calibrations
    for mech in ("tdl", "tcl"):
        for eps in (0.5, 2.0):
            for p in (0, 1):
                sigma = calibrate(eps, mech, "dchi", p=p).sigma
                params = MechanismParams(E=4.0, L=2.0, sigma=sigma, p=p)
                xs = [float(v) for v in params.input_grid().values()]
                fn = pmf_tdl if mech == "tdl" else pmf_tcl
                pmfs = {x: fn(x, params).masses for x in xs}
                for a in xs:
                    for b in xs:
                        bound = math.exp(eps * abs(a - b))
                        ok &= bool(np.all(pmfs[a] <= bound * pmfs[b] + tol))
    elapsed = time.time() - t0
    report("A5 exact privacy certificates", ok, f"{'; '.join(notes[:2])}..., {elapsed:.2f}s")
    assert ok and elapsed < 60


def test_a6_three_step_sampler_exactness():
    tol = TH["enum_pointwise_tol"]
    worst = 0.0
    for L, sigma, p in [(2.0, 1.0, 0), (2.0, 1.0, 1), (4.0, 1.5, 2), (8.0, 3.0, 3), (1.0, 0.7, 5), (2.0, 0.9, 5)]:
        cfg = centered_dlap_config(L, sigma, p)
        assert cfg.method == "bitwise" and cfg.kappa <= 6
        kappa = cfg.kappa
        c0 = dlap_zero_mass(L, sigma, p)
        rho = math.exp(-1.0 / (2.0**p * sigma))
        bitp = [rho ** (2**i) / (1 + rho ** (2**i)) for i in range(kappa)]
        steps = int(round(L * 2**p))
        law = np.zeros(2 * steps + 1)
        law[steps] += c0
        for bits in product((0, 1), repeat=kappa):
            pb = 1.0
            mag = 0
            for i, b in enumerate(bits):
                pb *= bitp[i] if b else 1 - bitp[i]
                mag |= b << i
            for sgn in (1, -1):
                law[steps + sgn * (mag + 1)] += (1 - c0) * pb * 0.5
        worst = max(worst, float(np.max(np.abs(law - centered_dlap_pmf(L, sigma, p).masses))))
    ok = worst < tol
    report("A6 three-step sampler exactness", ok, f"worst pointwise dev {worst:.2e}")
    assert ok


def test_a7_composite_law_exactness():
    tol = TH["enum_pointwise_tol"]
    worst = 0.0
    for E, L, sigma, p in [(4.0, 2.0, 1.0, 0), (2.0, 2.0, 0.5, 1)]:
        params = MechanismParams(E=E, L=L, sigma=sigma, p=p)
        m = outer_count(params)
        inner_d = centered_dlap_pmf(L, sigma, p)
        inner_c = centered_clap_pmf(L, sigma, p)
        pb_d = branch_probability_d(params)
        pb_c = branch_probability_c(params)
        for x in params.input_grid().values():
            x = float(x)
            law_d, law_c = {}, {}
            for y in range(m):
                z = perturb(TDL, x, _pair(0, y), params)
                law_d[z] = law_d.get(z, 0.0) + (1 - pb_d) / m
                z = perturb(TCL, x, _pair(0, y), params)
                law_c[z] = law_c.get(z, 0.0) + (1 - pb_c) / m
            for v, mass in zip(inner_d.support(), inner_d.masses):
                z = perturb(TDL, x, _pair(1, float(v)), params)
                law_d[z] = law_d.get(z, 0.0) + pb_d * float(mass)
            for v, mass in zip(inner_c.support(), inner_c.masses):
                z = perturb(TCL, x, _pair(1, float(v)), params)
                law_c[z] = law_c.get(z, 0.0) + pb_c * float(mass)
            fd = pmf_tdl(x, params)
            fc = pmf_tcl(x, params)
            for y, mass in zip(fd.support(), fd.masses):
                worst = max(worst, abs(law_d.get(float(y), 0.0) - float(mass)))
            for y, mass in zip(fc.support(), fc.masses):
                worst = max(worst, abs(law_c.get(float(y), 0.0) - float(mass)))
    ok = worst < tol
    report("A7 composite-law exactness", ok, f"worst pointwise dev {worst:.2e}")
    assert ok


def _pair(branch, payload):
    from trunclap import NoisePair

    return NoisePair(branch, payload)


def test_a8_mpc_plaintext_equivalence():
    params = A8_PARAMS
    n_eq = TH["mpc_equiv_sessions"]

    # --- injected identical randomness: bit-for-bit ---
    tape = RandomTape(2024)
    plain_d = []
    for _ in range(n_eq):
        pair = noise(TDL, params, tape)
        plain_d.append((pair.branch, pair.payload, perturb(TDL, 1.0, pair, params)))
    s = _replay(RandomTape(2024).words(tape.words_consumed), params, "tdl")
    xs = s.share(steps_of(1.0, params.p) % s.q)
    bit_ok = True
    for branch, payload, z_ref in plain_d:
        pair = pi_d_noise(s, params)
        i, y = s.open(pair.branch), s.open(pair.payload)
        z = s.open(pi_d_perturb(s, xs, pair, params))
        bit_ok &= i == branch
        bit_ok &= y == (steps_of(payload, params.p) if branch else int(payload))
        bit_ok &= z == steps_of(z_ref, params.p)

    tape_c = RandomTape(2025)
    plain_c = []
    for _ in range(n_eq):
        pair = noise(TCL, params, tape_c)
        plain_c.append((pair.branch, pair.payload, perturb(TCL, -3.0, pair, params)))
    s = _replay(RandomTape(2025).words(tape_c.words_consumed), params, "tcl")
    xs = s.share(steps_of(-3.0, params.p) % s.q)
    for branch, payload, z_ref in plain_c:
        pair = pi_c_noise(s, params)
        i, y = s.open(pair.branch), s.open(pair.payload)
        z = s.open(pi_c_perturb(s, xs, pair, params))
        bit_ok &= i == branch
        bit_ok &= y == (steps_of(payload, params.p) if branch else int(payload))
        bit_ok &= z == steps_of(z_ref, params.p)

    # --- free randomness: opened-output laws ---
    tv_d, tv_c = (a8_opened_tv(mech, 1.0) for mech in A8_RUNS)
    ok = bit_ok and tv_d < TH["mpc_tv_d"] and tv_c < TH["mpc_tv_c"]
    report(
        "A8 secure/plaintext equivalence",
        ok,
        f"bit-for-bit over 2x{n_eq} runs: {bit_ok}; TV(D) {tv_d:.4f} < {TH['mpc_tv_d']} "
        f"at {TH['mpc_tv_sessions_d']} sessions, TV(C) {tv_c:.4f} < {TH['mpc_tv_c']} "
        f"at {TH['mpc_tv_sessions_c']} sessions",
    )
    assert bit_ok
    assert tv_d < TH["mpc_tv_d"]
    assert tv_c < TH["mpc_tv_c"]


A8_PARAMS = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)
# mechanism: (sessions, TV bound, seeds)
A8_RUNS = {
    "tdl": (TH["mpc_tv_sessions_d"], TH["mpc_tv_d"], (31337, 31338)),
    "tcl": (TH["mpc_tv_sessions_c"], TH["mpc_tv_c"], (31339, 31340)),
}


def a8_opened_tv(mech: str, x: float, law_at: float = 1.0) -> float:
    """TV of A8's run_batch outputs at input x from the exact law at law_at."""
    n, _, seeds = A8_RUNS[mech]
    vals = run_batch(mech, A8_PARAMS, x, n, *seeds)
    h = Histogram.from_samples(vals, A8_PARAMS.output_grid(mech))
    return tv_distance(h, (pmf_tdl if mech == "tdl" else pmf_tcl)(law_at, A8_PARAMS))


def test_a8_session_counts_are_sized_for_their_bounds():
    # a faithful sampler's expected TV plus the McDiarmid term (failure
    # probability 1e-9); both mechanisms sample their pmf exactly
    laws = {"tdl": pmf_tdl(1.0, A8_PARAMS).masses, "tcl": pmf_tcl(1.0, A8_PARAMS).masses}
    for mech, law in laws.items():
        n, bound, _ = A8_RUNS[mech]

        def reads(count):
            mcdiarmid = math.sqrt(math.log(1e9) / (2 * count))
            return multinomial_tv_mean(law, count) + mcdiarmid

        assert reads(n) < bound, mech
        # the count A8 used to have: no faithful sampler meets the bound
        assert reads(100_000) > bound, mech


def test_a8_rejects_a_shifted_law():
    # A8's sessions and seeds, but run at x - 2^-p and compared with the law at x
    for mech in A8_RUNS:
        tv = a8_opened_tv(mech, 1.0 - A8_PARAMS.step, law_at=1.0)
        assert tv >= A8_RUNS[mech][1], f"{mech} runs at x-{A8_PARAMS.step} pass: TV {tv}"


def _replay(words, params, mechanism):
    t0 = RandomTape(words=iter(words))
    t1 = RandomTape(words=itertools.repeat(0))
    return make_session(params, mechanism, tape0=t0, tape1=t1)


def test_a9_offline_online_split():
    import inspect

    # the noise protocols cannot receive the shared input at all
    api_ok = all(
        "x" not in inspect.signature(fn).parameters
        for fn in (pi_noise, pi_d_noise, pi_c_noise)
    )
    cost_ok = True
    for params, x in (
        (MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0), 1.0),
        (MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2), -32.0),
        (MechanismParams(E=2.0, L=1.0, sigma=0.5, p=1), 1.5),
    ):
        for mech in (TDL, TCL):
            s = make_session(params, mech.name, seed0=11, seed1=12)
            xs = s.share(steps_of(x, params.p) % s.q)
            pair = pi_noise(s, mech, params)
            before = s.ledger.as_dict()
            pi_perturb(s, mech, xs, pair, params)
            d = s.ledger.delta(before)
            cost_ok &= d["comparisons"] == 1 and d["multiplications"] == 2
            cost_ok &= d["bernoulli_draws"] == 0 and d["uniform_draws"] == 0
    # transcript audit: the noise phase is byte-identical across inputs
    transcripts = []
    for x in (-4.0, 4.0):
        s = make_session(
            MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0), "tdl",
            seed0=21, seed1=22, record_transcript=True,
        )
        s.share(steps_of(x, 0) % s.q)
        pi_d_noise(s, MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0))
        transcripts.append((tuple(s.transcript[0]), tuple(s.transcript[1])))
    audit_ok = transcripts[0] == transcripts[1]
    ok = api_ok and cost_ok and audit_ok
    report(
        "A9 offline/online split",
        ok,
        f"API {api_ok}, online cost = 1 cmp + 2 mults across params {cost_ok}, "
        f"noise transcript input-independent {audit_ok}",
    )
    assert ok


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_a") and callable(fn):
            try:
                fn()
            except AssertionError:
                pass
