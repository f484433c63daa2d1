import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from conftest import executed_law, mechanism_law_oracle

from trunclap import (
    TCL,
    TDL,
    MechanismParams,
    RandomTape,
    centered_clap_pmf,
    centered_dlap_pmf,
    pmf_tcl,
    pmf_tdl,
)
from trunclap import sampling
from trunclap import tape as tape_module
from trunclap.grids import GridError, steps_of
from trunclap.mechanisms import (
    branch_probability_c,
    branch_probability_d,
    lookup_mechanism,
    outer_count,
)
from trunclap.mpc import (
    BatchSession,
    Session,
    SharedNoisePair,
    core,
    make_session,
    mechanism_field,
    pi_c_noise,
    pi_c_perturb,
    pi_cl,
    pi_d_noise,
    pi_d_perturb,
    pi_dl,
    pi_dl_for,
    pi_noise,
    pi_perturb,
    run_batch,
    run_once,
)
from trunclap.mpc import protocols
from trunclap.mpc.protocols import _dealer_material, run_sessions
from trunclap.sampling import (
    _clap_steps,
    _dlap_steps,
    _sample_steps,
    sample_clap_centered,
    centered_dlap_config,
    dlap_zero_mass,
    noise,
    noise_plan,
    perturb,
    sample_dlap_centered,
)
from trunclap.thresholds import THRESHOLDS

PARAMS = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)


def tv(counts, masses):
    return 0.5 * float(np.sum(np.abs(counts / counts.sum() - masses)))


def opened_in_batch(program, n, seeds, mechanism="tdl", outer_words=0):
    """Opened results of n runs of `program` in blocks on a Session over
    PARAMS: the values a sequential loop with the same seeds opens, since
    both read the party tapes alone.  `outer_words` counts the joint words
    drawn before the inner draw (2 for a noise protocol)."""
    session = Session(mechanism_field(PARAMS, mechanism), *seeds)
    plan = noise_plan(lookup_mechanism(mechanism), PARAMS).inner
    return session.run(program, n, outer_words + plan.words_per_draw)


def fresh_pair(session, mech, params, branch, payload):
    """A noise pair of `mech` at `params` with the given shares, and fresh
    dealer material for its one perturbation, drawn as pi_noise draws it."""
    plan = noise_plan(mech, params)
    return SharedNoisePair(branch, payload, plan, _dealer_material(session, payload))


def replay_session(words, params, mechanism="tdl", **kw):
    """Session whose joint coins replay an injected plaintext word stream."""
    t0 = RandomTape(words=iter(words))
    t1 = RandomTape(words=itertools.repeat(0))
    return make_session(params, mechanism, tape0=t0, tape1=t1, **kw)


def inner_ledger(params, mechanism):
    """The ledger of one inner draw (pi_dl, or pi_cl for TCL) at `params`."""
    session = make_session(params, mechanism, seed0=1, seed1=2)
    (pi_cl if mechanism == "tcl" else pi_dl_for)(session, params)
    return session.ledger.as_dict()


def ledger_plus_picks(ledger, picks):
    """`ledger` with `picks` segment picks more: a comparison (a Bernoulli
    draw) and a multiplication each."""
    return {**ledger,
            "comparisons": ledger["comparisons"] + picks,
            "bernoulli_draws": ledger["bernoulli_draws"] + picks,
            "multiplications": ledger["multiplications"] + picks,
            "rounds": ledger["rounds"] + picks * (core.CMP_ROUNDS + core.MUL_ROUNDS),
            "elements_exchanged": ledger["elements_exchanged"]
            + picks * (core.CMP_ELEMENTS + core.MUL_ELEMENTS)}


class TestPiDl:
    def test_opened_law(self):
        n = 100_000
        vals = opened_in_batch(lambda s: s.open(pi_dl_for(s, PARAMS)), n, (51, 52))
        counts = np.bincount(vals + 2, minlength=5)
        exact = centered_dlap_pmf(2.0, 1.0, 0).masses
        assert tv(counts, exact) < 0.005
        c0 = dlap_zero_mass(2.0, 1.0, 0)
        freq0 = counts[2] / n
        assert abs(freq0 - c0) < 3 * math.sqrt(c0 * (1 - c0) / n)

    def test_ledger_contract(self):
        session = make_session(PARAMS, "tdl", seed0=1, seed1=2)
        kappa = centered_dlap_config(PARAMS.L, PARAMS.sigma, PARAMS.p).kappa
        before = session.ledger.as_dict()
        pi_dl_for(session, PARAMS)
        d = session.ledger.delta(before)
        assert d["bernoulli_draws"] == kappa + 2
        assert d["comparisons"] == kappa + 2
        assert d["multiplications"] == 2
        assert d["uniform_draws"] == 0

    def test_matches_plaintext_bitwise(self):
        tape = RandomTape(53)
        plain = [sample_dlap_centered(2.0, 1.0, 0, tape) for _ in range(2000)]
        session = replay_session(RandomTape(53).words(tape.words_consumed), PARAMS)
        for v in plain:
            opened = session.open(pi_dl_for(session, PARAMS))
            assert opened == steps_of(v, PARAMS.p)

    def test_draws_follow_the_plan(self):
        # thresholds come from the plan alone: a plan whose zero flag never
        # fires and whose bits and sign always do opens +(2^kappa)
        plan = centered_dlap_config(2.0, 1.0, 0)
        forced = dataclasses.replace(
            plan, zero_threshold=0, sign_threshold=1 << 64, bit_thresholds=(1 << 64,) * plan.kappa
        )
        session = make_session(PARAMS, "tdl", seed0=3, seed1=4)
        assert session.open(pi_dl(session, forced)) == 2**plan.kappa

    def test_non_pow2_step_count_opens_dlap_steps(self):
        # 3 = 2 + 1 steps: each draw's joint words, fed to both, open what
        # the plaintext map computes on every value of [-L, L]; the segment
        # pick costs one comparison and one multiplication more
        params = MechanismParams(E=4.0, L=3.0, sigma=1.0, p=0)
        plan = centered_dlap_config(3.0, 1.0, 0)
        k = plan.words_per_draw
        words = RandomTape(54).words(400 * k)
        session = replay_session(words, params)
        opened = [session.open(pi_dl_for(session, params)) for _ in range(400)]
        assert opened == [_dlap_steps(plan, words[i : i + k]) for i in range(0, len(words), k)]
        assert set(opened) == set(range(-3, 4))
        assert inner_ledger(params, "tdl") == ledger_plus_picks(inner_ledger(PARAMS, "tdl"), 1)


class TestPiCl:
    def test_opens_clap_steps_on_the_same_words(self):
        # each draw's joint words, fed to both: the protocol opens what the
        # plaintext map computes, on every value of [-L, L)
        plan = noise_plan(TCL, PARAMS).inner
        k = plan.words_per_draw
        words = RandomTape(64).words(400 * k)
        session = replay_session(words, PARAMS, "tcl")
        opened = [session.open(pi_cl(session, PARAMS)) for _ in range(400)]
        assert opened == [_clap_steps(plan, words[i : i + k]) for i in range(0, len(words), k)]
        assert set(opened) == {-2, -1, 0, 1}

    def test_opened_law_gamma6(self):
        # the gamma the benchmark passes changes nothing: the law is exact
        n = 100_000
        vals = opened_in_batch(lambda s: s.open(pi_cl(s, PARAMS, 6)), n, (61, 62), "tcl")
        counts = np.bincount(vals + 2, minlength=4)
        exact = centered_clap_pmf(2.0, 1.0, 0).masses
        assert vals.max() < 2
        assert tv(counts, exact) < 0.01

    def test_matches_plaintext_on_a_fine_grid(self):
        # the opened value is the plaintext draw on the same words, here on
        # the 2^-4 grid
        params = dataclasses.replace(PARAMS, p=4)
        tape = RandomTape(63)
        plain = [sample_clap_centered(2.0, 1.0, 4, tape) for _ in range(1000)]
        session = replay_session(RandomTape(63).words(tape.words_consumed), params, "tcl")
        for v in plain:
            assert session.open(pi_cl(session, params)) == steps_of(v, params.p)

    def test_ledger_contract(self):
        # kappa + 1 comparisons and one multiplication: no zero flag, no
        # sign test and no truncation
        session = make_session(PARAMS, "tcl", seed0=1, seed1=2)
        kappa = noise_plan(TCL, PARAMS).inner.kappa
        before = session.ledger.as_dict()
        with mock.patch.object(Session, "trunc_pow2", side_effect=AssertionError("truncated")):
            pi_cl(session, PARAMS)
        d = session.ledger.delta(before)
        assert (d["bernoulli_draws"], d["comparisons"], d["multiplications"]) == (
            kappa + 1, kappa + 1, 1)
        assert d["rounds"] == (kappa + 1) * core.CMP_ROUNDS + core.MUL_ROUNDS

    def test_non_pow2_step_count_opens_clap_steps(self):
        # as for pi_dl: 3 steps open _clap_steps on every value of [-L, L),
        # for one comparison and one multiplication more
        params = MechanismParams(E=4.0, L=3.0, sigma=1.0, p=0)
        plan = noise_plan(TCL, params).inner
        k = plan.words_per_draw
        words = RandomTape(65).words(400 * k)
        session = replay_session(words, params, "tcl")
        opened = [session.open(pi_cl(session, params)) for _ in range(400)]
        assert opened == [_clap_steps(plan, words[i : i + k]) for i in range(0, len(words), k)]
        assert set(opened) == set(range(-3, 3))
        assert inner_ledger(params, "tcl") == ledger_plus_picks(inner_ledger(PARAMS, "tcl"), 1)


def test_tcl_wide_ledger_is_ten_comparisons_and_four_multiplications():
    # one execution on the wide set: 9 comparisons + 2 multiplications
    # offline and 1 + 2 online, with no truncation; offline, TDL's ledger
    # less its zero flag (one comparison) and its blend (one multiplication)
    def phases(mech):
        s = make_session(WIDE, mech.name, seed0=3, seed1=4)
        xs = s.share(0)
        before = s.ledger.as_dict()
        pair = pi_noise(s, mech, WIDE)
        offline = s.ledger.delta(before)
        before = s.ledger.as_dict()
        pi_perturb(s, mech, xs, pair, WIDE)
        return offline, s.ledger.delta(before)

    with mock.patch.object(Session, "trunc_pow2", side_effect=AssertionError("truncated")):
        (tcl_off, tcl_on), (tdl_off, tdl_on) = phases(TCL), phases(TDL)
    assert (tcl_off["comparisons"], tcl_off["multiplications"]) == (9, 2)
    assert (tcl_on["comparisons"], tcl_on["multiplications"]) == (1, 2)
    assert tcl_off["rounds"] == 9 * core.CMP_ROUNDS + core.UNI_ROUNDS + 2 * core.MUL_ROUNDS
    flag_and_blend = {
        "comparisons": 1, "bernoulli_draws": 1, "multiplications": 1, "uniform_draws": 0,
        "rounds": core.CMP_ROUNDS + core.MUL_ROUNDS,
        "elements_exchanged": core.CMP_ELEMENTS + core.MUL_ELEMENTS,
    }
    assert {k: tdl_off[k] - tcl_off[k] for k in tdl_off} == flag_and_blend
    assert tcl_on == tdl_on


class TestNoiseProtocols:
    def test_joint_law_matches_plaintext_d(self):
        n = 100_000
        session = make_session(PARAMS, "tdl", seed0=71, seed1=72)
        m = outer_count(PARAMS)
        pb = branch_probability_d(PARAMS)
        inner = centered_dlap_pmf(PARAMS.L, PARAMS.sigma, PARAMS.p)
        # exact joint law over (i, y): index 0..m-1 for i=0, steps for i=1
        law = np.concatenate([(1 - pb) / m * np.ones(m), pb * inner.masses])
        counts = np.zeros(len(law))
        for _ in range(n):
            pair = pi_d_noise(session, PARAMS)
            i = session.open(pair.branch)
            y = session.open(pair.payload)
            counts[m + y + 2 if i else y] += 1
        assert tv(counts, law) < 0.005

    def test_forced_outer_branch_uniform(self):
        # the pairs whose branch opens 0 carry the tail index, which comes
        # from its own word: uniform on them; branch 1 opens as -1
        n = 100_000
        m = outer_count(PARAMS)

        def tail_or_minus_one(s):
            pair = pi_d_noise(s, PARAMS)
            i, y = s.open(pair.branch), s.open(pair.payload)
            return y - i * (y + 1)

        draws = opened_in_batch(tail_or_minus_one, n, (73, 74), outer_words=2)
        tails = draws[draws >= 0]
        assert len(tails) > n // 4
        _, p = chisquare(np.bincount(tails, minlength=m))
        assert p > 0.01

    def test_c_branch_probability(self):
        n = 100_000
        pb = branch_probability_c(PARAMS)
        hits = opened_in_batch(
            lambda s: s.open(pi_c_noise(s, PARAMS).branch), n, (75, 76), "tcl", outer_words=2,
        ).sum()
        se = math.sqrt(pb * (1 - pb) / n)
        assert abs(hits / n - pb) < 3 * se

    def test_noise_ledger_composition(self):
        session = make_session(PARAMS, "tdl", seed0=77, seed1=78)
        kappa = centered_dlap_config(PARAMS.L, PARAMS.sigma, PARAMS.p).kappa
        before = session.ledger.as_dict()
        pi_d_noise(session, PARAMS)
        d = session.ledger.delta(before)
        assert d["bernoulli_draws"] == 1 + kappa + 2
        assert d["uniform_draws"] == 1
        assert d["multiplications"] == 2 + 1  # pi_dl blend + final mux

    def test_noise_never_reads_input(self):
        # byte-identical noise-phase transcripts whatever the shared input is
        transcripts = []
        for x in (-4.0, 4.0):
            session = make_session(
                PARAMS, "tdl", seed0=79, seed1=80, record_transcript=True
            )
            session.share(steps_of(x, PARAMS.p) % session.q)
            pi_d_noise(session, PARAMS)
            transcripts.append((list(session.transcript[0]), list(session.transcript[1])))
        assert transcripts[0] == transcripts[1]


class TestPerturbProtocols:
    def _pair(self, session, branch, payload, mech=TDL):
        return fresh_pair(
            session, mech, PARAMS, session.share_public(branch),
            session.share_public(payload % session.q),
        )

    def test_inner_branch_adds_exhaustive(self):
        session = make_session(PARAMS, "tdl", seed0=81, seed1=82)
        for x in (-4, -1, 0, 3, 4):
            xs = session.share(x % session.q)
            for y in range(-2, 3):
                z = session.open(pi_d_perturb(session, xs, self._pair(session, 1, y), PARAMS))
                assert z == x + y
                z = session.open(pi_c_perturb(session, xs, self._pair(session, 1, y, TCL), PARAMS))
                assert z == x + y

    def test_outer_branch_boundaries(self):
        session = make_session(PARAMS, "tdl", seed0=83, seed1=84)
        E, L = 4, 2
        for x in (-3, 0, 1, 3):
            xs = session.share(x % session.q)
            # top of the low tail (needs a non-empty low tail, x > -E)
            pair = self._pair(session, 0, E + x - 1)
            assert session.open(pi_d_perturb(session, xs, pair, PARAMS)) == x - L - 1
            # first index of the high tail (needs x < E)
            pair = self._pair(session, 0, E + x)
            assert session.open(pi_d_perturb(session, xs, pair, PARAMS)) == x + L + 1
            pair = self._pair(session, 0, E + x, TCL)
            assert session.open(pi_c_perturb(session, xs, pair, PARAMS)) == x + L
            # bottom of the support
            pair = self._pair(session, 0, 0)
            assert session.open(pi_d_perturb(session, xs, pair, PARAMS)) == -L - E

    def test_empty_low_tail_at_minus_E(self):
        # at x = -E every uniform index belongs to the high tail
        session = make_session(PARAMS, "tdl", seed0=87, seed1=88)
        xs = session.share(-4 % session.q)
        for y in range(8):
            pair = self._pair(session, 0, y)
            assert session.open(pi_d_perturb(session, xs, pair, PARAMS)) == y - 1

    def test_online_cost_parameter_independent(self):
        cases = [
            (MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0), 0.0),
            (MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2), -32.0),
            (MechanismParams(E=2.0, L=1.0, sigma=0.5, p=1), 1.5),
        ]
        for params, x in cases:
            for mech, noise_fn, perturb_fn in (
                ("tdl", pi_d_noise, pi_d_perturb),
                ("tcl", pi_c_noise, pi_c_perturb),
            ):
                session = make_session(params, mech, seed0=85, seed1=86)
                xs = session.share(steps_of(x, params.p) % session.q)
                pair = (
                    noise_fn(session, params)
                    if mech == "tdl"
                    else noise_fn(session, params, 4)
                )
                before = session.ledger.as_dict()
                perturb_fn(session, xs, pair, params)
                d = session.ledger.delta(before)
                assert d["comparisons"] == 1
                assert d["multiplications"] == 2
                assert d["bernoulli_draws"] == 0
                assert d["uniform_draws"] == 0


class TestBitForBitEquivalence:
    def test_tdl_pipeline(self):
        n = 10_000
        x = 1.0
        tape = RandomTape(90)
        plain = []
        for _ in range(n):
            pair = noise(TDL, PARAMS, tape)
            plain.append((pair, perturb(TDL, x, pair, PARAMS)))
        session = replay_session(RandomTape(90).words(tape.words_consumed), PARAMS)
        xs = session.share(steps_of(x, PARAMS.p) % session.q)
        for pair_ref, z_ref in plain:
            pair = pi_d_noise(session, PARAMS)
            i = session.open(pair.branch)
            y = session.open(pair.payload)
            assert i == pair_ref.branch
            expected_y = (
                steps_of(pair_ref.payload, PARAMS.p) if i else int(pair_ref.payload)
            )
            assert y == expected_y
            z = session.open(pi_d_perturb(session, xs, pair, PARAMS))
            assert z == steps_of(z_ref, PARAMS.p)

    def test_tcl_pipeline(self):
        n = 10_000
        x = -3.0
        tape = RandomTape(91)
        plain = []
        for _ in range(n):
            pair = noise(TCL, PARAMS, tape)
            plain.append((pair, perturb(TCL, x, pair, PARAMS)))
        session = replay_session(RandomTape(91).words(tape.words_consumed), PARAMS, "tcl")
        xs = session.share(steps_of(x, PARAMS.p) % session.q)
        for pair_ref, z_ref in plain:
            pair = pi_c_noise(session, PARAMS)
            i = session.open(pair.branch)
            y = session.open(pair.payload)
            assert i == pair_ref.branch
            expected_y = (
                steps_of(pair_ref.payload, PARAMS.p) if i else int(pair_ref.payload)
            )
            assert y == expected_y
            z = session.open(pi_c_perturb(session, xs, pair, PARAMS))
            assert z == steps_of(z_ref, PARAMS.p)


class TestEndToEndLaws:
    def test_tdl_all_centers(self):
        for x in PARAMS.input_grid().values():
            counts = _e2e_counts("tdl", float(x), 100_000)
            assert tv(counts, pmf_tdl(float(x), PARAMS).masses) < 0.005, f"x={x}"

    def test_tcl_selected_centers(self):
        for x in (-4.0, 1.0, 4.0):
            counts = _e2e_counts("tcl", x, 100_000)
            assert tv(counts, pmf_tcl(x, PARAMS).masses) < 0.01, f"x={x}"


def _e2e_counts(mechanism, x, n):
    seed = int(x * 16) + 4096
    vals = run_batch(mechanism, PARAMS, x, n, seed, seed + 1)
    spec = PARAMS.output_grid(mechanism)
    idx = np.round((vals + spec.B) * 2**spec.p).astype(int)
    return np.bincount(idx, minlength=spec.count)


def _dp_cert_counts(x, n, seed):
    params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)  # sigma = L / eps, eps = 2
    vals = run_batch("tdl", params, x, n, seed, seed + 1)
    return np.bincount(np.round(vals + 6).astype(int), minlength=13)


class TestDifferentialPrivacyCertificate:
    def test_empirical_ratio_bound_extreme_inputs(self):
        # dp_cert_sessions (10^6) opened outputs per extreme input; every bin
        # with dp_cert_min_count draws on both sides must respect the e^eps
        # ratio bound within dp_cert_rel_se (3) relative SEs
        eps = 2.0
        n_total = THRESHOLDS["dp_cert_sessions"]
        chunks = 4
        per = n_total // chunks
        counts = {}
        for x in (-4.0, 4.0):
            results = [_dp_cert_counts(x, per, 10_000 + i * 7 + int(x)) for i in range(chunks)]
            counts[x] = np.sum(results, axis=0)
        c1, c2 = counts[-4.0], counts[4.0]
        min_count = THRESHOLDS["dp_cert_min_count"]
        mask = (c1 >= min_count) & (c2 >= min_count)
        assert mask.all()  # this support is fully populated at 10^6 draws
        f1 = c1 / c1.sum()
        f2 = c2 / c2.sum()
        for a, b in ((f1, f2), (f2, f1)):
            ratio = a[mask] / b[mask]
            rel_se = np.sqrt(1 / c1[mask] + 1 / c2[mask])
            assert np.all(ratio <= math.exp(eps) * (1 + THRESHOLDS["dp_cert_rel_se"] * rel_se))


WIDE = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
# outer count 2 * 2^p * E = 6 is not a power of two: pi_uni picks one of
# its two segments (4 + 2) with a second joint word
ODD = MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0)
# ODD with 3 = 2 + 1 inner steps: the tail and the inner draw each pick a
# segment
SEGMENTED = MechanismParams(E=3.0, L=3.0, sigma=1.0, p=0)


def loop_reference(mechanism, params, x_steps, n, seed0, seed1, gamma):
    """The session-by-session loop run_batch used to run, kept as the oracle
    (a recording session draws every pair sequentially)."""
    session = make_session(params, mechanism, gamma, seed0, seed1, record_transcript=True)
    xs = session.share(x_steps % session.q)
    out = []
    for _ in range(n):
        if mechanism == "tdl":
            z = pi_d_perturb(session, xs, pi_d_noise(session, params), params)
        else:
            z = pi_c_perturb(session, xs, pi_c_noise(session, params, gamma), params)
        out.append(session.open(z) * params.step)
    return np.array(out, dtype=float), session


# (mechanism, params, gamma); ODD's outer count 6 splits into two segments,
# for TDL and TCL alike, and SEGMENTED's inner draw does too.  gamma is what
# the benchmark passes make_session, pi_c_noise and run_batch; it changes
# nothing
BATCH_CASES = [
    ("tdl", PARAMS, 8),
    ("tcl", PARAMS, 8),
    ("tdl", WIDE, 8),
    ("tcl", WIDE, 8),
    ("tcl", PARAMS, 0),
    ("tdl", ODD, 8),
    ("tcl", ODD, 0),
    ("tdl", SEGMENTED, 8),
    ("tcl", SEGMENTED, 0),
]
BE = tape_module.BATCH_MIN_SESSIONS
SMALL_BLOCK = 32


def batch_case_id(case):
    """mechanism-E-gamma, with L where the inner draw is segmented."""
    mechanism, params, gamma = case
    inner = noise_plan(lookup_mechanism(mechanism), params).inner
    L = f"-L{params.L:g}" if inner.method == "segmented" else ""
    return f"{mechanism}-E{params.E:g}{L}-g{gamma}"


class TestBatchSimulator:
    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(BATCH_CASES),
        n=st.sampled_from([0, 1, BE - 1, BE, BE + 1, 24, 3 * SMALL_BLOCK + 5]),
        data=st.data(),
    )
    def test_run_batch_equals_session_loop(self, case, n, data):
        mechanism, params, gamma = case
        Es = steps_of(params.E, params.p)
        x_steps = data.draw(st.integers(-Es, Es), label="x_steps")
        seed0, seed1 = data.draw(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)))
        expected, _ = loop_reference(mechanism, params, x_steps, n, seed0, seed1, gamma)
        # a small block size makes n > block size cheap to test
        with mock.patch.object(tape_module, "BATCH_BLOCK", SMALL_BLOCK):
            got = run_batch(mechanism, params, x_steps * params.step, n, seed0, seed1, gamma)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_more_sessions_than_one_block(self):
        n = tape_module.BATCH_BLOCK + 3
        expected, _ = loop_reference("tdl", PARAMS, -3, n, 17, 18, 8)
        assert np.array_equal(run_batch("tdl", PARAMS, -3.0, n, 17, 18), expected)

    @pytest.mark.parametrize("case", BATCH_CASES, ids=batch_case_id)
    def test_ledger_is_sum_of_session_ledgers(self, case):
        mechanism, params, gamma = case
        n = 600
        _, seq = loop_reference(mechanism, params, 1, n, 41, 42, gamma)
        batch = Session(mechanism_field(params, mechanism, gamma), 41, 42)
        with mock.patch.object(tape_module, "BATCH_BLOCK", 128):
            run_sessions(batch, lookup_mechanism(mechanism), params, 1, n)
        assert batch.ledger.as_dict() == seq.ledger.as_dict()
        assert batch.tape0.words_consumed == seq.tape0.words_consumed
        assert batch.tape1.words_consumed == seq.tape1.words_consumed

    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    def test_a_non_pow2_set_costs_the_same_every_execution(self, mech):
        # the tail index never rejects: every execution of the E=3 set
        # costs one ledger and reads words_per_draw words from each party
        field, n = mechanism_field(ODD, mech.name), 300
        words = noise_plan(mech, ODD).words_per_draw
        shared, one = Session(field, 5, 6), Session(field, 5, 6)
        shared.share(1)
        run_sessions(one, mech, ODD, 1, 1)
        unit = core.CostLedger(**one.ledger.delta(shared.ledger.as_dict()))
        for record in (True, False):  # every execution sequential, or in blocks
            s = Session(field, 41, 42, record_transcript=record)
            run_sessions(s, mech, ODD, 1, n)
            total = core.CostLedger(**shared.ledger.as_dict())
            total.add(unit, n)
            assert s.ledger == total
            assert s.tape0.words_consumed == s.tape1.words_consumed == n * words

    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    @pytest.mark.parametrize("params", [SEGMENTED, MechanismParams(E=64.0, L=24.0, sigma=8.0, p=0)],
                             ids=["E3-L3", "E64-L24"])
    def test_a_segmented_set_opens_sample_steps(self, mech, params):
        # runs on the plaintext draw's words open what it samples, in
        # blocks and in the recording loop; run_batch (in blocks) equals
        # the recording loop, and one execution costs the bitwise set of
        # the same tail and kappa (L = 2, or 16) one inner pick more
        plan = noise_plan(mech, params)
        assert plan.inner.method == "segmented" and len(plan.inner.segments) == 2
        n, xs = 300, steps_of(1.0, params.p)
        words = RandomTape(92).words(n * plan.words_per_draw)
        plain = RandomTape(words=words)
        expected = [_sample_steps(plan, xs, plain) for _ in range(n)]
        for record in (False, True):
            session = replay_session(words, params, mech.name, record_transcript=record)
            assert (run_sessions(session, mech, params, xs, n) / params.step).tolist() == expected
        got = run_batch(mech.name, params, 1.0, n, 5, 6)
        assert np.array_equal(got, loop_reference(mech.name, params, xs, n, 5, 6, 0)[0])

        def one(params):
            s = make_session(params, mech.name, seed0=3, seed1=4)
            run_sessions(s, mech, params, steps_of(1.0, params.p), 1)
            return s.ledger.as_dict()

        bitwise = dataclasses.replace(params, L=2.0 if params.L == 3.0 else 16.0)
        assert noise_plan(mech, bitwise).inner.method == "bitwise"
        assert one(params) == ledger_plus_picks(one(bitwise), 1)

    @pytest.mark.parametrize("mech,params", [(TDL, SEGMENTED), (TCL, WIDE)], ids=["tdl-E3-L3", "tcl-wide"])
    def test_blocks_on_injected_words_open_sample_steps(self, mech, params):
        # a block reads an injected tape as a seeded one: a run on the
        # plaintext draw's words (party 1 contributing zeros) evaluates
        # one block of all n, which opens what the plaintext draw samples
        # and reads no word past the replay's last
        plan = noise_plan(mech, params)
        n, xs = 300, steps_of(1.0, params.p)
        words = RandomTape(93).words(n * plan.words_per_draw)
        plain = RandomTape(words=words)
        expected = [_sample_steps(plan, xs, plain) for _ in range(n)]
        session = replay_session(words, params, mech.name)
        sizes = []
        with peeks(sizes):
            got = run_sessions(session, mech, params, xs, n) / params.step
        assert got.tolist() == expected
        assert sizes == [len(words), len(words)]
        assert session.tape0.words_consumed == session.tape1.words_consumed == len(words)

    def test_wide_set_at_the_input_bound(self):
        # the sign test on the inner branch reaches -2^p(2E+L) at x = E
        for mechanism in ("tdl", "tcl"):
            for x in (WIDE.E, -WIDE.E):
                vals = run_batch(mechanism, WIDE, x, 2000, 5, 6)
                spec = WIDE.output_grid(mechanism)
                assert all(spec.contains(v) for v in vals)
        assert mechanism_field(WIDE, "tdl").q == 2**12
        assert mechanism_field(PARAMS, "tdl").q == 2**6

    @pytest.mark.parametrize("params", [PARAMS, WIDE], ids=["small", "wide"])
    def test_sign_test_stays_in_safe_range(self, params):
        # every grid x against every inner payload, and every outer index,
        # through the real perturbation on the field run_batch uses
        Es, Ls = steps_of(params.E, params.p), steps_of(params.L, params.p)
        for mechanism, perturb in (("tdl", pi_d_perturb), ("tcl", pi_c_perturb)):
            s = BatchSession(Session(mechanism_field(params, mechanism), 1, 2))
            assert s.safe_magnitude >= 2 * Es + Ls
            x, y = (a.ravel() for a in np.meshgrid(np.arange(-Es, Es + 1), np.arange(-Ls, Ls + 1)))
            xs = s.share(x % s.q)
            mech = lookup_mechanism(mechanism)
            pair = fresh_pair(s, mech, params, s.share_public(1), s.share(y % s.q))
            assert np.array_equal(s.open(perturb(s, xs, pair, params)), x + y)
            x, y = (a.ravel() for a in np.meshgrid(np.arange(-Es, Es + 1), np.arange(2 * Es)))
            pair = fresh_pair(s, mech, params, s.share_public(0), s.share(y))
            s.open(perturb(s, s.share(x % s.q), pair, params))

    def test_rejects_bad_input_before_work(self):
        with pytest.raises(ValueError, match="outside"):
            run_batch("tdl", PARAMS, 6.0, 10, 1, 2)  # support is +/-6; x must be in [-4, 4]
        with pytest.raises(GridError):
            run_batch("tdl", PARAMS, 0.5, 10, 1, 2)
        with pytest.raises(ValueError, match="n must be"):
            run_batch("tcl", PARAMS, 0.0, -1, 1, 2)
        with pytest.raises(ValueError, match="unknown mechanism"):
            run_batch("lap", PARAMS, 0.0, 10, 1, 2)
        for x in (float("nan"), float("inf")):
            with pytest.raises(GridError):
                run_batch("tdl", PARAMS, x, 10, 1, 2)

    def test_run_once_rejects_input_outside_the_bound(self):
        # it returned a value for x = 40 on E = 4
        session = make_session(PARAMS, "tdl", 1, 2)
        for x in (5.0, -9.0, 40.0):
            with pytest.raises(GridError, match="outside"):
                run_once(session, TDL, x, PARAMS)
        assert session.tape0.words_consumed == 0

    # p + e + headroom = 27, and the two sets at 63 (q = 2^64) that a word
    # still holds (WORD_EDGES in test_sampling.py)
    @pytest.mark.parametrize("mechanism, params, gamma", [
        ("tdl", MechanismParams(E=4.0, L=2.0, sigma=1.0, p=27), 8),
        ("tdl", MechanismParams(E=0.5, L=4.0, sigma=1.0, p=59), 8),
        ("tcl", MechanismParams(E=0.5, L=4.0, sigma=1.0, p=59), 0),
    ], ids=["p27", "tdl-k64", "tcl-k64"])
    def test_large_fields_run_in_blocks(self, mechanism, params, gamma):
        field = mechanism_field(params, mechanism, gamma)
        assert field.q == 2 ** (field.p + field.e + field.headroom + 1)
        assert field.q == (2**64 if params.p == 59 else 2**33)
        x_steps = steps_of(params.E, params.p)
        expected, _ = loop_reference(mechanism, params, x_steps, BE + 2, 3, 4, gamma)
        with mock.patch.object(
            BatchSession, "_evaluate", autospec=True, side_effect=BatchSession._evaluate
        ) as evaluate:
            got = run_batch(mechanism, params, params.E, BE + 2, 3, 4, gamma)
        assert evaluate.call_count > 0
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    def test_an_input_share_near_2_64_runs_in_blocks(self, mech):
        # q = 2^64, and party 0's residue of the input share, Python ints
        # made on the Session, within Es of 2^64: in a block it meets only
        # rows, so no sum of Python ints passes 2^64, whatever the seeds
        params = MechanismParams(E=0.5, L=4.0, sigma=1.0, p=59)
        plan = noise_plan(mech, params)
        field = mechanism_field(params, mech.name)
        q, x_steps = field.q, plan.Es
        assert q == 2**64
        xs = (q - 1, (x_steps + 1) % q)
        assert xs[0] + plan.Es > q and sum(xs) % q == x_steps

        def once(s):
            return s.open(pi_perturb(s, mech, xs, pi_noise(s, mech, params), params))

        want = Session(field, 3, 4, record_transcript=True).run(once, BE + 2, plan.words_per_draw)
        with mock.patch.object(
            BatchSession, "_evaluate", autospec=True, side_effect=BatchSession._evaluate
        ) as evaluate:
            got = Session(field, 3, 4).run(once, BE + 2, plan.words_per_draw)
        assert evaluate.call_count > 0
        assert np.array_equal(got, want)


def test_mechanism_field_is_cached():
    # a FieldConfig is frozen, so sessions share one; its sizing runs once
    # per set
    protocols._ring.cache_clear()
    with mock.patch(
        "trunclap.mpc.protocols.field_for_mechanism", wraps=protocols.field_for_mechanism
    ) as search:
        fields = [make_session(WIDE, "tcl", seed0=k, seed1=k + 1).field for k in range(3)]
        run_batch("tcl", WIDE, 0.0, 2, 1, 2)
    assert search.call_count == 1
    assert fields[0] is fields[1] is fields[2] is mechanism_field(WIDE, "tcl", 8)
    protocols._ring.cache_clear()
    assert mechanism_field(WIDE, "tcl", 8) is not fields[0]


PHASE_CASES = [(m, params) for params in (PARAMS, WIDE) for m in (TDL, TCL)]
PHASE_IDS = [f"{m.name}-{label}" for label in ("small", "wide") for m in (TDL, TCL)]


def grid_inputs(params, n):
    """n inputs in grid steps, cycling through all of [-E, E]."""
    Es = steps_of(params.E, params.p)
    return [k % (2 * Es + 1) - Es for k in range(n)]


def handed_out(store) -> int:
    """Dealer residues a session's pool has handed out as masks or triples."""
    return core.RESIDUES_PER_REFILL * store.refills - len(store._pool)


def online_call(session, mech, params, x_steps, pair):
    """share -> perturb -> open of one input on a drawn pair."""
    xs = session.share(x_steps % session.q)
    return session.open(pi_perturb(session, mech, xs, pair, params))


class TestPhaseSplit:
    """The noise phase draws every dealer residue its pair's perturbation
    uses, so an online call takes only the pooled mask that shares its input."""

    K = 200

    @pytest.mark.parametrize("mech, params", PHASE_CASES, ids=PHASE_IDS)
    def test_pooled_online_calls_draw_only_their_input_masks(self, mech, params):
        session = make_session(params, mech.name, seed0=61, seed1=62)
        pairs = [pi_noise(session, mech, params) for _ in range(self.K)]
        store = session.triples
        words = session.tape0.words_consumed, session.tape1.words_consumed
        with mock.patch.object(store, "mask", wraps=store.mask) as take:
            for x, pair in zip(grid_inputs(params, self.K), pairs):
                calls, used = take.call_count, handed_out(store)
                online_call(session, mech, params, x, pair)
                # one pooled mask per call, the input's sharing mask, and
                # no triple: one residue in all
                assert take.call_count == calls + 1
                assert handed_out(store) == used + 1
        # and no party word
        assert (session.tape0.words_consumed, session.tape1.words_consumed) == words

    @pytest.mark.parametrize("mech, params", PHASE_CASES, ids=PHASE_IDS)
    def test_pooled_and_interleaved_orders_open_the_same(self, mech, params):
        xs = grid_inputs(params, self.K)
        pooled = make_session(params, mech.name, seed0=67, seed1=68)
        pairs = [pi_noise(pooled, mech, params) for _ in xs]
        got = [online_call(pooled, mech, params, x, pair) for x, pair in zip(xs, pairs)]
        interleaved = make_session(params, mech.name, seed0=67, seed1=68)
        want = [online_call(interleaved, mech, params, x, pi_noise(interleaved, mech, params))
                for x in xs]
        assert got == want
        assert pooled.ledger.as_dict() == interleaved.ledger.as_dict()

    @pytest.mark.parametrize("mech, params", PHASE_CASES, ids=PHASE_IDS)
    def test_batch_perturbation_takes_no_dealer_rows(self, mech, params):
        n, seeds = 3 * SMALL_BLOCK + 5, (69, 70)
        plan, x_steps = noise_plan(mech, params), 1
        batch = Session(mechanism_field(params, mech.name), *seeds)
        xs = batch.share(x_steps % batch.q)
        rows = AssertionError("pi_perturb drew dealer rows")

        def once(s):
            pair = pi_noise(s, mech, params)
            with mock.patch.object(BatchSession, "_masks", side_effect=rows):
                return s.open(pi_perturb(s, mech, xs, pair, params))

        with mock.patch.object(tape_module, "BATCH_BLOCK", SMALL_BLOCK):
            got = batch.run(once, n, plan.words_per_draw)
        expected, _ = loop_reference(mech.name, params, x_steps, n, *seeds, 8)
        assert np.array_equal(np.asarray(got) * params.step, expected)

    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    def test_a_pair_is_perturbed_once(self, mech):
        session = make_session(PARAMS, mech.name, seed0=65, seed1=66)
        xs = session.share(1)
        pair = pi_noise(session, mech, PARAMS)
        pi_perturb(session, mech, xs, pair, PARAMS)
        tapes = (session.tape0, session.tape1, session.dealer)
        before = session.ledger.as_dict(), [t.words_consumed for t in tapes]
        with pytest.raises(ValueError, match="already perturbed"):
            pi_perturb(session, mech, xs, pair, PARAMS)
        # refused before any gadget ran: nothing charged, nothing drawn
        assert (session.ledger.as_dict(), [t.words_consumed for t in tapes]) == before


    @pytest.mark.parametrize("pooled", [False, True], ids=["sequential", "pooled"])
    def test_a_pair_of_another_mechanism_or_set_is_refused(self, pooled):
        # a TCL pair perturbed as TDL opened -4 at x = 1, and a pair drawn
        # at E = 4 ran at E = 8
        session = make_session(PARAMS, "tcl", seed0=71, seed1=72, record_transcript=not pooled)
        with mock.patch.object(
            BatchSession, "_evaluate", autospec=True, side_effect=BatchSession._evaluate
        ) as evaluate:
            pair = [pi_noise(session, TCL, PARAMS) for _ in range(BE + 1)][-1]
        assert (evaluate.call_count > 0) == pooled
        xs = session.share(1)
        for mech, params in ((TDL, PARAMS), (TCL, dataclasses.replace(PARAMS, E=8.0))):
            with pytest.raises(ValueError, match="drawn for tcl"):
                pi_perturb(session, mech, xs, pair, params)
        # refused before anything was spent; equal params need not be the same object
        z = session.open(pi_perturb(session, TCL, xs, pair, dataclasses.replace(PARAMS)))
        assert -5 <= z < 7


def peeks(sizes: list):
    """Patch RandomTape.peek_block to log the size of every block read."""
    real = RandomTape.peek_block

    def peek(tape, n):
        sizes.append(n)
        return real(tape, n)

    return mock.patch.object(RandomTape, "peek_block", peek)


def opened_pairs(session, mech, params, n):
    return [(session.open(p.branch), session.open(p.payload))
            for p in (pi_noise(session, mech, params) for _ in range(n))]


class TestOfflinePool:
    """A long-lived Session's noise pairs, evaluated in blocks and handed
    out one per call (`Session.offline`)."""

    @pytest.mark.parametrize("mech, params", PHASE_CASES, ids=PHASE_IDS)
    def test_the_first_pairs_of_a_run_are_sequential(self, mech, params):
        session = make_session(params, mech.name, seed0=11, seed1=12)
        sizes = []
        with peeks(sizes):
            for _ in range(BE):
                pi_noise(session, mech, params)
            assert sizes == []
            pi_noise(session, mech, params)
        words = noise_plan(mech, params).words_per_draw
        assert sizes == [BE * words, BE * words]  # one block of BE, on each tape

    @pytest.mark.parametrize("mech, params", PHASE_CASES, ids=PHASE_IDS)
    def test_a_party_tape_read_drops_the_block(self, mech, params):
        def run(session):
            out = []
            for k in range(6):
                out += opened_pairs(session, mech, params, 3 * BE + k)
                out.append(session.open(session.pi_bersample(0.5)))  # a joint word
            return out, session.ledger.as_dict(), session.tape0.words_consumed

        sizes = []
        with peeks(sizes):
            got = run(make_session(params, mech.name, seed0=13, seed1=14))
        assert got == run(make_session(params, mech.name, seed0=13, seed1=14, record_transcript=True))
        # each read ended the run: every run of 3*BE + k pairs started with
        # BE sequential ones, then blocks of BE and 2*BE
        words = noise_plan(mech, params).words_per_draw
        assert sorted(set(sizes)) == [BE * words, 2 * BE * words]

    @pytest.mark.parametrize("cap", [16, core.POOL_BLOCK_MAX])
    def test_a_block_never_exceeds_the_cap(self, cap):
        n = 3 * cap + 50
        words = noise_plan(TDL, PARAMS).words_per_draw
        sizes = []
        with peeks(sizes), mock.patch.object(core, "POOL_BLOCK_MAX", cap):
            session = make_session(PARAMS, "tdl", seed0=15, seed1=16)
            got = opened_pairs(session, TDL, PARAMS, n)
        assert max(sizes) == cap * words
        assert got == opened_pairs(make_session(PARAMS, "tdl", seed0=15, seed1=16, record_transcript=True),
                                   TDL, PARAMS, n)

    def test_the_dealer_counts_every_pooled_draw(self):
        # pooled pairs draw their masks and triples from the session's own
        # dealer tape: every residue they use is one it drew, and its word
        # count is that of its draws, four 16-bit lanes a word at q = 2^12
        ref = make_session(WIDE, "tcl", seed0=17, seed1=18, record_transcript=True)
        opened_pairs(ref, TCL, WIDE, 300)
        used = handed_out(ref.triples)
        assert used == 300 * 25  # 5 masks, 2 triples and the material's 11 a pair
        session = make_session(WIDE, "tcl", seed0=17, seed1=18)
        dealer = session.dealer
        assert session.q == 2**12
        with mock.patch.object(dealer, "field_array", wraps=dealer.field_array) as draws, \
                mock.patch.object(BatchSession, "_evaluate", autospec=True,
                                  side_effect=BatchSession._evaluate) as blocks:
            got = opened_pairs(session, TCL, WIDE, 300)
        assert got == opened_pairs(
            make_session(WIDE, "tcl", seed0=17, seed1=18, record_transcript=True), TCL, WIDE, 300
        )
        assert blocks.call_count and all(c.args[0].dealer is dealer for c in blocks.call_args_list)
        # the first BE pairs, drawn one by one, take theirs from the pool;
        # a block draws 25 residues for each pair it evaluates, the last
        # one's reaching past the 300th
        drawn = [c.args[1] for c in draws.call_args_list]
        sizes = [c.args[3] for c in blocks.call_args_list]
        pooled = core.RESIDUES_PER_REFILL * session.triples.refills
        assert handed_out(session.triples) == 25 * BE
        assert sum(drawn) - pooled == 25 * sum(sizes) and sum(sizes) >= 300 - BE
        assert dealer.words_consumed == sum(-(-n // 4) for n in drawn)

    def test_these_sessions_stay_sequential(self):
        field = mechanism_field(PARAMS, "tdl")
        sessions = [
            make_session(PARAMS, "tdl", seed0=1, seed1=2, record_transcript=True),
            Session(field, tape0=RandomTape(1), tape1=RandomTape(2)),
        ]
        sizes = []
        with peeks(sizes):
            for session in sessions:
                for _ in range(4 * BE):
                    pi_noise(session, TDL, PARAMS)
        assert sizes == []
        # the counterpart: a run never reads past the executions it
        # commits, so on tapes passed in it runs them as one block, read
        # on both party tapes
        with peeks(sizes):
            run_sessions(sessions[1], TDL, PARAMS, 1, 4 * BE)
        assert sizes == [4 * BE * noise_plan(TDL, PARAMS).words_per_draw] * 2

    @pytest.mark.parametrize("mech, params", PHASE_CASES, ids=PHASE_IDS)
    def test_a_short_run_after_pooled_pairs_opens_the_loops_values(self, mech, params):
        # a run of fewer than BE executions loops, and its noise pairs come
        # out of the block the pool evaluated before it: the opened values,
        # the ledger and the party words are the recording loop's
        def run(session):
            pairs = opened_pairs(session, mech, params, BE + 1)  # a block of BE, one taken
            return pairs, list(run_sessions(session, mech, params, 1, BE - 1))

        session = make_session(params, mech.name, seed0=19, seed1=20)
        got = run(session)
        assert session._offline[1]._at == BE  # the run took the rest of the block
        ref = make_session(params, mech.name, seed0=19, seed1=20, record_transcript=True)
        assert got == run(ref)
        assert session.ledger == ref.ledger
        assert (session.tape0.words_consumed, session.tape1.words_consumed) == (
            ref.tape0.words_consumed, ref.tape1.words_consumed)


def magnitude_at_or_below(cfg, w, first: int):
    """`tape._magnitude` off by one: a bit word at its threshold sets the
    bit (`<=` for `<`)."""
    m, weights = 0, cfg.bit_weights
    for i, threshold in enumerate(cfg.bit_thresholds):
        m += (w[first + i] <= threshold) * weights[i]
    if cfg.segment_thresholds:
        m = tape_module.pick_segment(cfg.segments, cfg.segment_thresholds,
                                     w[first + cfg.kappa :], m)
    return m


class TestExecutedLaw:
    """The exact law of the code the parties run, by enumeration: every
    class of a draw's words (`conftest.executed_law`), run through the
    plaintext draw, a replayed session's blocks and its recording loop,
    against `mechanism_law_oracle`."""

    SETS = [MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),
            MechanismParams(E=3.0, L=3.0, sigma=1.0, p=0),
            MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),
            MechanismParams(E=5.0, L=3.0, sigma=1.0, p=1)]
    SET_IDS = ["E3-L2", "E3-L3", "E4-L2", "E5-L3-p1"]
    PATHS = ["sample_steps", "blocks", "loop"]

    @staticmethod
    def opened(plan, path):
        """`opened(xs, words, n)` of `executed_law` on `path`; the session
        paths check that they ran blocks, or none."""
        mech, params = plan.mech, plan.params

        def sample_steps(xs, words, n):
            tape = RandomTape(words=words)
            return [_sample_steps(plan, xs, tape) for _ in range(n)]

        def replayed(xs, words, n):
            session = replay_session(words, params, mech.name, record_transcript=path == "loop")
            sizes = []
            with peeks(sizes):
                values = run_sessions(session, mech, params, xs, n) / params.step
            assert bool(sizes) == (path == "blocks")
            return values

        return sample_steps if path == "sample_steps" else replayed

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("params", SETS, ids=SET_IDS)
    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    def test_the_executed_law_is_the_oracles(self, mech, params, path):
        plan = noise_plan(mech, params)
        for x in (-params.E, 0.0, params.E):
            xs = params.input_steps(x)
            oracle = {z: m for z, m in mechanism_law_oracle(plan, xs).items() if m}
            assert executed_law(plan, xs, self.opened(plan, path)) == oracle, f"x={x}"

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    def test_an_off_by_one_magnitude_breaks_it(self, mech, path):
        # the control: the enumeration sees a bit word at its threshold
        plan = noise_plan(mech, self.SETS[1])
        xs = plan.params.input_steps(1.0)
        with mock.patch.object(sampling, "_magnitude", magnitude_at_or_below), \
                mock.patch.object(core, "_magnitude", magnitude_at_or_below):
            law = executed_law(plan, xs, self.opened(plan, path))
        assert sum(law.values()) == 1
        assert law != {z: m for z, m in mechanism_law_oracle(plan, xs).items() if m}
