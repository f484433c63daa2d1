import dataclasses
import math
from fractions import Fraction
from itertools import product

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    centered_law_oracle,
    clap_law_oracle,
    closed_grid,
    mechanism_law_oracle,
    mirrored_sized_for,
    sized_for,
    tail_law_oracle,
    tcl_masses_oracle,
    tdl_masses_oracle,
)
from trunclap import sampling
from trunclap import tape as tape_module
from trunclap import (
    TCL,
    TDL,
    MechanismParams,
    NoisePair,
    RandomTape,
    centered_clap_pmf,
    centered_dlap_pmf,
    max_privacy_ratio,
    noise,
    perturb,
    pmf_tcl,
    sample_batch,
    sample_clap_centered,
    sample_dlap_centered,
    sample_tcl,
    sample_tdl,
    sample_tdl_batch,
)
from trunclap.grids import GridError, steps_of
from trunclap.tape import _magnitude
from trunclap.thresholds import THRESHOLDS
from trunclap.mechanisms import (
    branch_probability_c,
    branch_probability_d,
    lookup_mechanism,
    outer_count,
)
from trunclap.mpc import make_session, mechanism_field, pi_c_noise, pi_cl, run_batch
from trunclap.sampling import (
    _clap_steps,
    _dlap_steps,
    _perturb_steps,
    centered_clap_config,
    centered_dlap_config,
    dlap_zero_mass,
    noise_plan,
)
from trunclap.tape import bernoulli_threshold, segment_plan


def tv(counts, masses):
    freq = counts / counts.sum()
    return 0.5 * float(np.sum(np.abs(freq - masses)))


def mirrored_tv(counts) -> float:
    """0.5 * sum_k |K_k - K_-k| / n: counts against reversed counts."""
    return 0.5 * float(np.sum(np.abs(counts - counts[::-1]))) / counts.sum()


def block_draws(steps, cfg, tape, n: int, chunk: int = 1_000_000):
    """n draws of `steps` (`_dlap_steps` or `_clap_steps` on `cfg`), in
    2^-p steps, on block rows of `tape` (`peek_block`, row j word j of
    every draw), in chunks of at most `chunk` draws: the draws sequential
    calls on the tape give."""
    words = cfg.words_per_draw
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        yield steps(cfg, tape.peek_block(m * words).reshape(m, words).T)
        tape.skip(m * words)


def law_of_the_words(cfg, draw) -> dict:
    """The law of `draw(words)` over every outcome of one draw's words of
    plan `cfg`, each word one below its threshold or at it, in `Fraction`s:
    the law the code computes from the thresholds."""
    thresholds = word_thresholds(cfg)
    law = {}
    for below in product((True, False), repeat=len(thresholds)):
        mass = math.prod(Fraction(t, 2**64) if b else 1 - Fraction(t, 2**64)
                         for t, b in zip(thresholds, below))
        if mass:
            v = draw([t - b for t, b in zip(thresholds, below)])
            law[v] = law.get(v, 0) + mass
    return law


def word_thresholds(cfg) -> list:
    """The threshold of each word of one draw of `cfg`, in draw order."""
    flag = [] if cfg.zero_threshold is None else [cfg.zero_threshold]
    thresholds = [*flag, *cfg.bit_thresholds, *cfg.segment_thresholds, cfg.sign_threshold]
    assert len(thresholds) == cfg.words_per_draw
    return thresholds


def magnitude_bits(cfg):
    """P[bit i = 1] of the bitwise magnitude, read off the config's thresholds."""
    return [t / 2.0**64 for t in cfg.bit_thresholds]


class TestGeometricBitwise:
    """The magnitude x' in [0, 2^kappa) of the bitwise sampler: kappa
    independent Bernoulli(rho^(2^i) / (1 + rho^(2^i))) bits, rho = e^(-1/t),
    t = 2^p * sigma, so that P[x'] is proportional to rho^x'."""

    # (L, sigma, p): 2^p * L = 8 steps at t = 4, so kappa = 3, rho = e^(-1/4)
    GEO = (8.0, 4.0, 0)

    def test_bit_marginals(self):
        cfg = centered_dlap_config(*self.GEO)
        rho = math.exp(-0.25)
        probs = [rho ** (2**i) / (1 + rho ** (2**i)) for i in range(3)]
        assert magnitude_bits(cfg) == pytest.approx(probs, abs=2.0**-63)
        # the sampler reads the bits: |v| = x' + 1 on every nonzero draw
        tape = RandomTape(11)
        draws = np.array([sample_dlap_centered(*self.GEO, tape) for _ in range(100_000)])
        mags = np.abs(draws[draws != 0]).astype(int) - 1
        for i, p in enumerate(probs):
            freq = np.mean((mags >> i) & 1)
            assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / len(mags))

    def test_pmf_against_direct_normalization(self):
        # the magnitude law the thresholds encode, against rho^x' normalized
        bits = magnitude_bits(centered_dlap_config(*self.GEO))
        law = np.array([
            math.prod(p if x >> i & 1 else 1 - p for i, p in enumerate(bits)) for x in range(8)
        ])
        exact = math.exp(-0.25) ** np.arange(8)
        assert np.max(np.abs(law - exact / exact.sum())) < 1e-12

    def test_tiny_rho_collapses_to_zero(self):
        # rho = 1e-6 (t = 1/ln 1e6), kappa = 4: every magnitude bit is almost
        # surely 0; with the zero flag switched off each draw is +/-(x'+1)
        cfg = centered_dlap_config(16.0, 1.0 / math.log(1e6), 0)
        assert cfg.kappa == 4 and sum(magnitude_bits(cfg)) < 1.1e-6
        never_zero = dataclasses.replace(cfg, zero_threshold=0)
        tape = RandomTape(13)
        draws = np.array([_dlap_steps(never_zero, tape.words(6)) for _ in range(20_000)])
        assert np.mean(np.abs(draws) == 1.0) > 0.9999 - 3e-3


class TestCenteredDlap:
    def test_exhaustive_enumeration_matches_pmf(self):
        # all (zero flag, bits, sign) outcomes with their exact probabilities
        for L, sigma, p in [(2.0, 1.0, 0), (2.0, 1.0, 1), (8.0, 3.0, 2), (1.0, 0.7, 3)]:
            cfg = centered_dlap_config(L, sigma, p)
            assert cfg.method == "bitwise"
            kappa = cfg.kappa
            assert kappa <= 6
            c0 = dlap_zero_mass(L, sigma, p)
            t = 2.0**p * sigma
            rho = math.exp(-1.0 / t)
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
            exact = centered_dlap_pmf(L, sigma, p).masses
            assert np.max(np.abs(law - exact)) < 1e-12

    def test_symmetry_and_tv(self):
        # 8M draws on block rows, the body `sample_dlap_centered` runs: the
        # TV check needs 2M, the mirrored check about 5.8M
        n, bound = 8_000_000, THRESHOLDS["sampler_tv_1e6"]
        exact = centered_dlap_pmf(2.0, 1.0, 0).masses
        assert sized_for(bound, exact, n) and mirrored_sized_for(bound, exact, n)
        assert not mirrored_sized_for(bound, exact, 5_000_000)
        counts = np.zeros(5, dtype=np.int64)
        for i, chunk in enumerate(block_draws(sampling._dlap_steps,
                                              sampling.centered_dlap_config(2.0, 1.0, 0),
                                              RandomTape(21), n)):
            if i == 0:
                seq = RandomTape(21)
                assert chunk[:10_000].tolist() == [
                    sample_dlap_centered(2.0, 1.0, 0, seq) for _ in range(10_000)]
            counts += np.bincount(chunk + 2, minlength=5)
        assert counts.sum() == n
        assert tv(counts, exact) < bound
        assert mirrored_tv(counts) < bound
        # negative controls: the law one step over (on [-1, 3]) fails the TV
        # check, and the centred cumulative law on [-2, 2), which is not
        # symmetric, the mirrored one
        assert tv(np.append(counts, 0), np.append(0.0, exact)) > bound
        clap = np.zeros(5, dtype=np.int64)
        for chunk in block_draws(sampling._clap_steps,
                                 sampling.centered_clap_config(2.0, 1.0, 0), RandomTape(21), n):
            clap += np.bincount(chunk + 2, minlength=5)
        assert tv(clap[:4], centered_clap_pmf(2.0, 1.0, 0).masses) < bound
        assert mirrored_tv(clap) > bound

    def test_zero_mass_frequency(self):
        n = 200_000
        c0 = dlap_zero_mass(2.0, 1.0, 0)
        tape = RandomTape(22)
        hits = sum(sample_dlap_centered(2.0, 1.0, 0, tape) == 0.0 for _ in range(n))
        se = math.sqrt(c0 * (1 - c0) / n)
        assert abs(hits / n - c0) < 3 * se

    def test_table_fallback_for_non_pow2(self):
        # 3 = 0b11 steps: a segment of 2 magnitudes, then one of 1
        cfg = centered_dlap_config(3.0, 1.0, 0)
        assert cfg.method == "segmented" and cfg.segments == ((0, 1), (2, 0))
        n = 200_000
        tape = RandomTape(23)
        draws = np.array([sample_dlap_centered(3.0, 1.0, 0, tape) for _ in range(n)])
        counts = np.bincount((draws + 3).astype(int), minlength=7)
        exact = centered_dlap_pmf(3.0, 1.0, 0).masses
        assert tv(counts, exact) < 0.006
        assert cfg.words_per_draw == cfg.kappa + 1 + len(cfg.segments) == 4
        assert tape.words_consumed == n * cfg.words_per_draw

    def test_zero_steps_are_refused(self):
        with pytest.raises(ValueError, match="L must be positive"):
            sample_dlap_centered(0.0, 1.0, 0, RandomTape(1))

    @pytest.mark.parametrize("sample", [sample_dlap_centered, sample_clap_centered])
    @pytest.mark.parametrize("sigma", [-1.0, 0.0, math.inf, math.nan])
    def test_invalid_sigma_is_refused(self, sample, sigma):
        # a negative sigma drew from a non-law (rho > 1); 0 and inf divided
        # by zero
        tape = RandomTape(1)
        with pytest.raises(ValueError, match="sigma must be positive"):
            sample(2.0, sigma, 0, tape)
        assert tape.words_consumed == 0

    @pytest.mark.parametrize("sample", [sample_dlap_centered, sample_clap_centered])
    def test_negative_precision_is_refused(self, sample):
        # p = -1 used to fail on a negative shift count
        with pytest.raises(GridError, match="p must be >= 0"):
            sample(2.0, 1.0, -1, RandomTape(1))

    def test_word_budget(self):
        cfg = centered_dlap_config(2.0, 1.0, 0)
        tape = RandomTape(24)
        sample_dlap_centered(2.0, 1.0, 0, tape)
        assert tape.words_consumed == cfg.words_per_draw == cfg.kappa + 2

    def test_single_step_bound(self):
        # L of one grid step: no magnitude bits, support {-L, 0, L}
        cfg = centered_dlap_config(1.0, 0.7, 0)
        assert cfg.method == "bitwise" and cfg.kappa == 0
        tape = RandomTape(25)
        draws = np.array([sample_dlap_centered(1.0, 0.7, 0, tape) for _ in range(100_000)])
        assert set(draws.tolist()) == {-1.0, 0.0, 1.0}
        counts = np.bincount((draws + 1).astype(int), minlength=3)
        assert tv(counts, centered_dlap_pmf(1.0, 0.7, 0).masses) < 0.01


def matches_pmf(cfg, L, sigma, p) -> bool:
    """The law `cfg` implements against `centered_dlap_pmf`: the same
    support, every mass within 1e-12 relative."""
    law = centered_law_oracle(cfg)
    n = cfg.steps
    if sorted(law) != list(range(-n, n + 1)):
        return False
    exact = centered_dlap_pmf(L, sigma, p).masses
    return all(abs(float(law[y]) - m) <= 1e-12 * m for y, m in zip(range(-n, n + 1), exact))


class TestExactLaw:
    """The centred law the integer thresholds implement, in `Fraction`s."""

    # (L, sigma, p) with 1, 2 and 3 segments, on grids up to 2^-8
    LATTICE = [
        (2.0, 1.0, 0), (32.0, 8.0, 2), (24.0, 8.0, 0), (3.0, 1.0, 0), (24.0, 8.0, 4),
        (6.0, 0.5, 0), (5.0, 3.0, 1), (7.0, 100.0, 0), (24.0, 8.0, 8),
    ]

    def test_lattice_has_one_to_three_segments(self):
        assert {len(centered_dlap_config(*c).segments) for c in self.LATTICE} == {1, 2, 3}

    @pytest.mark.parametrize("L, sigma, p", LATTICE)
    def test_law_sums_to_one_and_matches_the_pmf(self, L, sigma, p):
        cfg = centered_dlap_config(L, sigma, p)
        assert sum(centered_law_oracle(cfg).values()) == 1
        assert matches_pmf(cfg, L, sigma, p)

    @settings(max_examples=100, deadline=None)
    @given(steps=st.integers(1, 200), p=st.integers(0, 2), scale=st.floats(0.1, 10.0))
    def test_law_on_every_step_count(self, steps, p, scale):
        # sigma = scale * L keeps every Bernoulli probability above e^-10 / 2,
        # so a threshold's rounding (2^-65) stays far below 1e-12 of it.  The
        # zero flag rounds c0 itself, so below scale 0.1 the nonzero mass
        # 1 - c0 of one-step plans drifts past 1e-12 (1.6e-8 at scale 0.05)
        L = steps / 2**p
        cfg = centered_dlap_config(L, scale * L, p)
        assert cfg.words_per_draw == cfg.kappa + 1 + len(cfg.segments)
        assert sum(centered_law_oracle(cfg).values()) == 1
        assert matches_pmf(cfg, L, scale * L, p)

    def test_swapped_segment_starts_fail(self):
        cfg = centered_dlap_config(24.0, 8.0, 0)
        (s0, m0), (s1, m1) = cfg.segments
        swapped = dataclasses.replace(cfg, segments=((s1, m0), (s0, m1)))
        assert matches_pmf(cfg, 24.0, 8.0, 0)
        assert not matches_pmf(swapped, 24.0, 8.0, 0)

    @pytest.mark.parametrize("L, sigma, p", [(2.0, 1.0, 0), (3.0, 1.0, 0), (24.0, 8.0, 0),
                                             (5.0, 3.0, 1), (7.0, 100.0, 0)])
    def test_draws_realise_the_oracle_law(self, L, sigma, p):
        cfg = centered_dlap_config(L, sigma, p)
        law = law_of_the_words(cfg, lambda w: _dlap_steps(cfg, w))
        assert law == {y: m for y, m in centered_law_oracle(cfg).items() if m}


class TestTableLookup:
    """A draw's lookups in its plan's thresholds: uint64 rows and Python
    ints read the same values at every threshold's edge."""

    # TDL table set (2 segments), that set on the 2^-8 grid (2 segments),
    # 3 segments, and three smaller plans
    PLANS = [(24.0, 8.0, 0), (24.0, 8.0, 8), (3.0, 1.0, 0), (7.0, 100.0, 0)]

    @staticmethod
    def edge_columns(cfg):
        """Columns of one draw's words: each threshold +- 1 in every word,
        and at each segment word of random columns, then 0 and 2^64 - 1."""
        k = cfg.words_per_draw
        edges = sorted({t + d for t in word_thresholds(cfg) for d in (-1, 0, 1)}
                       - {-1, 2**64, 2**64 + 1})
        cols = [[w] * k for w in edges]
        tape = RandomTape(7)
        first = k - 1 - len(cfg.segment_thresholds)  # the first segment word
        for t, threshold in enumerate(cfg.segment_thresholds):
            for d in (-1, 0, 1):
                col = tape.words(k)
                col[first + t] = min(max(threshold + d, 0), 2**64 - 1)
                cols.append(col)
        return cols + [[0] * k, [2**64 - 1] * k]

    @pytest.mark.parametrize("L, sigma, p", PLANS + [(32.0, 8.0, 0), (2.0, 1.0, 0)])
    def test_rows_equal_scalar_draws(self, L, sigma, p):
        cfg = centered_dlap_config(L, sigma, p)
        k = cfg.words_per_draw
        cols = self.edge_columns(cfg) + [RandomTape(5).words(k) for _ in range(2000)]
        rows = np.array(cols, dtype=np.uint64).T
        assert _dlap_steps(cfg, rows).tolist() == [_dlap_steps(cfg, c) for c in cols]

    @pytest.mark.parametrize("L, sigma, p", PLANS + [(32.0, 8.0, 2), (1.0, 1.0, 0)])
    def test_clap_rows_equal_scalar_draws(self, L, sigma, p):
        cfg = centered_clap_config(L, sigma, p)
        k = cfg.words_per_draw
        cols = self.edge_columns(cfg) + [RandomTape(6).words(k) for _ in range(2000)]
        rows = np.array(cols, dtype=np.uint64).T
        assert _clap_steps(cfg, rows).tolist() == [_clap_steps(cfg, c) for c in cols]

    @pytest.mark.parametrize("L, sigma, p", PLANS + [(32.0, 8.0, 2)])
    def test_magnitude_rows_take_the_dtype_of_the_plans_weights(self, L, sigma, p):
        # bit i weighs 2^i: an int in the plan, so the rows `sample_batch`
        # reads give an int64 magnitude, and a read-only 0-d uint64 in its
        # row form, so a BatchSession's give a uint64 one; the same values
        cfg = centered_dlap_config(L, sigma, p)
        k = cfg.words_per_draw
        cols = self.edge_columns(cfg) + [RandomTape(8).words(k) for _ in range(500)]
        rows = np.array(cols, dtype=np.uint64).T
        ints, words = _magnitude(cfg, rows, 1), _magnitude(cfg.rows, rows, 1)
        assert ints.dtype == np.int64 and words.dtype == np.uint64
        assert ints.tolist() == words.tolist() == [_magnitude(cfg, c, 1) for c in cols]
        assert cfg.bit_weights == tuple(2**i for i in range(cfg.kappa))
        for weight, r in zip(cfg.bit_weights, cfg.rows.bit_weights, strict=True):
            assert r.dtype == np.uint64 and r.shape == () and int(r) == weight
            assert not r.flags.writeable

    def test_config_keeps_steps_and_step(self):
        for L, sigma, p in self.PLANS + [(32.0, 8.0, 2)]:
            cfg = centered_dlap_config(L, sigma, p)
            assert (cfg.steps, cfg.step) == (round(L * 2**p), 2.0**-p)


class TestCenteredClap:
    def test_floor_map(self):
        # fine points in [y, y + 2^-p) all land on y
        h = 0.25
        for y in (-2.0, -0.25, 0.0, 1.75):
            for frac in (0.0, 0.0625, 0.1875):
                assert math.floor((y + frac) / h) * h == y

    def test_tv_at_1e6_draws(self):
        n = 1_000_000
        tape = RandomTape(31)
        draws = np.array([sample_clap_centered(2.0, 1.0, 0, tape) for _ in range(n)])
        counts = np.bincount((draws + 2).astype(int), minlength=4)
        exact = centered_clap_pmf(2.0, 1.0, 0).masses
        assert tv(counts, exact) < THRESHOLDS["clap_tv_1e6"]
        assert draws.max() < 2.0  # half-open support

    def test_exact_pushforward_tv_decreases_in_gamma(self):
        # no sampling: the paper's lattice construction (the fine discrete
        # Laplace, +L rejected, floored) only approaches the law as gamma
        # grows, which is why the sampler draws on the 2^-p grid instead
        exact = centered_clap_pmf(2.0, 1.0, 0).masses
        tvs = []
        for gamma in (1, 3, 6, 10):
            fine = centered_dlap_pmf(2.0, 1.0, gamma)
            steps = fine.spec.bound_steps
            pm = fine.masses.copy()
            pm = pm[:-1] / pm[:-1].sum()  # top fine point +L rejected
            coarse_idx = (np.arange(-steps, steps) >> gamma) + 2
            law = np.zeros(4)
            np.add.at(law, coarse_idx, pm)
            tvs.append(0.5 * float(np.sum(np.abs(law - exact))))
        assert all(a > b for a, b in zip(tvs, tvs[1:]))


def clap_tv(law, L, sigma, p) -> float:
    """TV between a coarse law in `Fraction`s and `centered_clap_pmf`; a
    nonzero mass off [-L, L) fails at once."""
    exact = centered_clap_pmf(L, sigma, p)
    B = exact.spec.bound_steps
    assert all(-B <= k < B for k, m in law.items() if m)
    return 0.5 * sum(abs(float(law.get(i - B, 0)) - m) for i, m in enumerate(exact.masses))


class TestClapExactLaw:
    """TCL's inner draw, the magnitude m and then m or -m - 1 by the sign,
    is `centered_clap_pmf` exactly (up to the 64-bit thresholds), on every
    grid and at every sigma."""

    # (L, sigma, p, g): the draw on the 2^-p grid and on the grid 2^g times
    # finer; sigma = 1/300 is below one step of the 2^-8 grid
    LATTICE = [
        (2.0, 1.0, 0, 0), (2.0, 1.0, 0, 8), (2.0, 1 / 30, 0, 8), (2.0, 1 / 300, 0, 8),
        (3.0, 1.0, 0, 0), (5.0, 3.0, 1, 2), (24.0, 8.0, 0, 8), (32.0, 8.0, 2, 8),
    ]

    @pytest.mark.parametrize("L, sigma, p, g", LATTICE)
    def test_law_is_the_exact_pmf(self, L, sigma, p, g):
        for q in {p, p + g}:
            law = clap_law_oracle(centered_clap_config(L, sigma, q))
            assert sum(law.values()) == 1
            assert clap_tv(law, L, sigma, q) <= 1e-12

    @pytest.mark.parametrize("L, sigma, p, g", [(2.0, 1.0, 0, 0), (5.0, 3.0, 1, 2),
                                                (24.0, 8.0, 0, 8)])
    def test_dropping_the_shift_fails(self, L, sigma, p, g):
        # mass on +L, off the support, or away from the pmf
        for q in {p, p + g}:
            cfg = centered_clap_config(L, sigma, q)
            with pytest.raises(AssertionError):
                assert clap_tv(clap_law_oracle(cfg, shift=0), L, sigma, q) <= 1e-12

    @pytest.mark.parametrize("L, sigma, p, g", [(2.0, 1.0, 0, 0), (2.0, 1.0, 0, 2),
                                                (3.0, 1.0, 0, 0), (3.0, 0.5, 0, 1)])
    def test_draws_realise_the_oracle_law(self, L, sigma, p, g):
        for q in {p, p + g}:
            cfg = centered_clap_config(L, sigma, q)
            law = law_of_the_words(cfg, lambda w: _clap_steps(cfg, w))
            assert law == {k: m for k, m in clap_law_oracle(cfg).items() if m}

    @pytest.mark.parametrize("sigma", [1 / 30, 1 / 300])
    def test_small_sigma_splits_the_inner_mass_evenly(self, sigma):
        # x - 1 and x each carry half the mass (the tails e^-60 or less);
        # n = 10^5 keeps the draw within sqrt(ln(2e9) / 2n) = 0.0103 of 1/2
        n = 100_000
        params = MechanismParams(E=4.0, L=2.0, sigma=sigma, p=0)
        assert pmf_tcl(1.0, params).mass_at(0.0) == pytest.approx(0.5, abs=1e-12)
        out = sample_batch(TCL, 1.0, params, n, 23)
        assert abs(np.mean(out == 0.0) - 0.5) < math.sqrt(math.log(2e9) / (2 * n))


class TestNoise:
    def test_branch_probability_value(self, table_params_p0):
        # 1 - 128 e^-4 / lambda for the reference parameters
        assert branch_probability_d(table_params_p0) == pytest.approx(0.8704, abs=5e-5)

    def test_branch_probability_empirical(self, table_params_p0):
        n = 100_000
        tape = RandomTape(41)
        hits = sum(noise(TDL, table_params_p0, tape).branch for _ in range(n))
        pb = branch_probability_d(table_params_p0)
        se = math.sqrt(pb * (1 - pb) / n)
        assert abs(hits / n - pb) < 3 * se

    def test_branch_vanishes_for_huge_L(self):
        params = MechanismParams(E=4.0, L=1024.0, sigma=1.0, p=0)
        assert branch_probability_d(params) == pytest.approx(1.0, abs=1e-12)
        assert branch_probability_c(params) == pytest.approx(1.0, abs=1e-12)

    def test_branch0_payload_uniform(self, small_params):
        # TDL outputs outside [x - L, x + L] are exactly the branch-0 draws,
        # one grid point per tail index; at branch probability 0.65 a block
        # run of 2.9M draws holds at least 10^6 of them
        from scipy.stats import chisquare

        x, m = 0.0, outer_count(small_params)
        out = sample_batch(TDL, x, small_params, 2_900_000, 42)
        tail = out[np.abs(out - x) > small_params.L]
        assert len(tail) >= 1_000_000
        points, counts = np.unique(tail, return_counts=True)
        assert points.tolist() == sorted(
            perturb(TDL, x, NoisePair(0, a), small_params) for a in range(m)
        )
        _, pvalue = chisquare(counts)
        assert pvalue > 0.01

    def test_payload_ranges(self, small_params):
        tape = RandomTape(43)
        for _ in range(2000):
            pair = noise(TDL, small_params, tape)
            if pair.branch:
                assert -2.0 <= pair.payload <= 2.0
            else:
                assert pair.payload in range(8)
        for _ in range(500):
            pair = noise(TCL, small_params, tape)
            if pair.branch:
                assert -2.0 <= pair.payload < 2.0


class TestNoisePlan:
    SETS = [
        MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),
        MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2),
        MechanismParams(E=64.0, L=24.0, sigma=8.0, p=0),
        MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),
    ]

    @pytest.mark.parametrize("g", [0, 3, 8])
    def test_fields_equal_the_formulas(self, g):
        # each set on its grid, or on the grid 2^g times finer
        for params, mech in product(self.SETS, (TDL, TCL)):
            params = dataclasses.replace(params, p=params.p + g)
            plan = noise_plan(mech, params)
            assert plan.branch_threshold == bernoulli_threshold(mech.branch_probability(params))
            assert plan.outer_count == outer_count(params)
            assert (plan.Es, plan.Ls) == (round(params.E * 2**params.p), round(params.L * 2**params.p))
            inner = centered_dlap_config(params.L, params.sigma, params.p)
            # TCL's inner draw: the same plan without its zero flag's word
            if mech is TCL:
                inner = dataclasses.replace(inner, zero_threshold=None,
                                            words_per_draw=inner.words_per_draw - 1)
            assert plan.inner == inner
            assert plan.inner.words_per_draw == inner.kappa + len(inner.segments) + (mech is TDL)
            assert noise_plan(mech, params) is plan  # cached

    def test_words_per_draw_is_the_draw_layout(self):
        # branch word, the tail's P words, inner draw: what every draw
        # reads, whether the tail count is a power of two (P = 1) or not
        for params, mech in product(self.SETS, (TDL, TCL)):
            plan = noise_plan(mech, params)
            P = bin(plan.outer_count).count("1")
            assert plan.tail is segment_plan(plan.outer_count) and plan.tail.words == P
            assert plan.words_per_draw == 1 + P + plan.inner.words_per_draw
            tape = RandomTape(5)
            for _ in range(50):
                noise(mech, params, tape)
            assert tape.words_consumed == 50 * plan.words_per_draw
            # set when the plan is built, with its inner plan
            assert {"inner", "words_per_draw"} <= {f.name for f in dataclasses.fields(plan)}

    def test_row_form_holds_the_thresholds_as_uint64_constants(self):
        # every threshold of the plan and its inner plan, as a read-only 0-d
        # uint64 array of the same value; 2^64 (probability 1) stays an int
        sure = MechanismParams(E=3.0, L=2.0, sigma=1e-3, p=0)  # zero mass 1
        for params, mech in product(self.SETS + [sure], (TDL, TCL)):
            plan = noise_plan(mech, params)
            rows = plan.rows
            assert plan.rows is rows and rows.inner is plan.inner.rows  # cached
            a, b = plan.inner, rows.inner
            pairs = [(plan.branch_threshold, rows.branch_threshold),
                     (a.sign_threshold, b.sign_threshold),
                     *zip(a.bit_thresholds, b.bit_thresholds),
                     *zip(a.segment_thresholds, b.segment_thresholds)]
            if a.zero_threshold is not None:
                pairs.append((a.zero_threshold, b.zero_threshold))
            assert (b.kappa, b.segments, b.words_per_draw) == (a.kappa, a.segments,
                                                              a.words_per_draw)
            for t, r in pairs:
                if t == 2**64:
                    assert type(r) is int and r == t
                else:
                    assert r.dtype == np.uint64 and r.shape == () and int(r) == t
                    assert not r.flags.writeable
            assert (rows.outer_count, rows.words_per_draw) == (plan.outer_count,
                                                               plan.words_per_draw)
        assert noise_plan(TDL, sure).inner.zero_threshold == 2**64

    def test_negative_gamma_is_refused_for_tcl(self, small_params):
        # the six calls that still take the benchmark's gamma
        session = make_session(small_params, seed0=1, seed1=2)
        for call in (
            lambda: mechanism_field(small_params, "tcl", -1),
            lambda: make_session(small_params, "tcl", -1),
            lambda: run_batch("tcl", small_params, 0.0, 1, 0, 1, gamma=-1),
            lambda: pi_c_noise(session, small_params, -1),
            lambda: pi_cl(session, small_params, -1),
            lambda: sample_tcl(0.0, small_params, RandomTape(0), -1),
        ):
            with pytest.raises(ValueError, match="gamma"):
                call()
        assert session.tape0.words_consumed == 0

    def test_any_other_gamma_changes_nothing(self, small_params):
        # TCL draws on the 2^-p grid whatever gamma the benchmark passes
        wide = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
        for params in (small_params, wide):
            tapes = RandomTape(17), RandomTape(17)
            with_gamma = [sample_tcl(1.0, params, tapes[0], 8) for _ in range(200)]
            assert with_gamma == [sample_tcl(1.0, params, tapes[1]) for _ in range(200)]
            assert tapes[0].words_consumed == tapes[1].words_consumed
            assert make_session(params, "tcl", 8).field is mechanism_field(params, "tdl")
            assert np.array_equal(run_batch("tcl", params, 1.0, 300, 3, 4, gamma=8),
                                  run_batch("tcl", params, 1.0, 300, 3, 4))
            opened = []
            for gamma in (8, 0):
                s = make_session(params, "tcl", gamma, 5, 6)
                pair = pi_c_noise(s, params, gamma)
                opened.append([s.open(pi_cl(s, params, gamma)), s.open(pair.branch),
                               s.open(pair.payload), s.ledger.as_dict()])
            assert opened[0] == opened[1]

    # (mech, E, L, p, gamma, accepted) on each side of the three limits a
    # block's int64 words set: the tail index (2 * 2^p * E <= 2^63), the
    # upper tail's shift (2 * 2^p * L, plus 1 for TDL, < 2^63) and the inner
    # magnitude (2^p * L < 2^62).  gamma is what sample_tcl and run_batch
    # are passed; it moves no limit
    WORD_EDGES = [
        ("tdl", 4.0, 2.0, 60, 8, True),
        ("tdl", 4.0, 2.0, 61, 8, False),
        ("tdl", 4.0, 0.5, 60, 8, True),
        ("tdl", 4.0, 0.5, 61, 8, False),
        ("tcl", 4.0, 2.0, 53, 8, True),
        ("tcl", 4.0, 2.0, 61, 8, False),
        ("tcl", 4.0, 2.0, 54, 0, True),
        ("tdl", 0.5, 4.0, 59, 8, True),
        ("tdl", 0.5, 4.0, 60, 8, False),
        ("tcl", 0.5, 4.0, 59, 0, True),
        ("tcl", 0.5, 4.0, 60, 0, False),
    ]

    @pytest.mark.parametrize("name, E, L, p, gamma, accepted", WORD_EDGES)
    def test_sets_past_a_word_are_refused(self, name, E, L, p, gamma, accepted):
        mech = lookup_mechanism(name)
        params = MechanismParams(E=E, L=L, sigma=1.0, p=p)
        tape = RandomTape(5)
        if mech.cumulative:
            draw = lambda: sample_tcl(E, params, tape, gamma)
        else:
            draw = lambda: sample_tdl(E, params, tape)
        if accepted:
            seq = [draw() for _ in range(300)]
            assert sample_batch(mech, E, params, 300, 5).tolist() == seq
            # a perturbation reads the coarse plan only
            assert perturb(mech, E, NoisePair(0, 0), params) == -E - L
            # the protocol takes the same plans, and runs where its ring fits a word
            if mechanism_field(params, name, gamma).q <= 1 << 64:
                z = run_batch(name, params, E, 3, 0, 1, gamma)
                assert np.all(np.abs(z) <= E + L)
            return
        for call in (
            lambda: noise_plan(mech, params),
            lambda: sample_batch(mech, E, params, 300, 5),
            draw,
            lambda: run_batch(mech.name, params, E, 1, 0, 1, gamma),
        ):
            with pytest.raises(ValueError, match="63 bits"):
                call()

    def test_outputs_unchanged_after_cache_clear(self, small_params):
        table_set = MechanismParams(E=64.0, L=24.0, sigma=8.0, p=0)

        def draws():
            tape = RandomTape(91)
            out = []
            for params in (small_params, table_set):
                out += [sample_tdl(0.0, params, tape) for _ in range(50)]
                out += [sample_tcl(0.0, params, tape) for _ in range(50)]
            return out, tape.words_consumed

        before = draws()
        plan = noise_plan(TCL, small_params)
        noise_plan.cache_clear()
        centered_dlap_config.cache_clear()
        centered_clap_config.cache_clear()
        assert noise_plan(TCL, small_params) is not plan
        assert draws() == before


class TestPerturb:
    def test_branch0_boundaries(self, small_params):
        params = small_params
        # lowest index lands on the bottom of the support
        assert perturb(TDL, 0.0, NoisePair(0, 0), params) == -6.0
        # first high index lands just above x + L
        x = 1.0
        y = int(2**params.p * (params.E + x))
        assert perturb(TDL, x, NoisePair(0, y), params) == x + params.L + params.step
        # cumulative variant: upper tail starts at x + L inclusive
        assert perturb(TCL, x, NoisePair(0, y), params) == x + params.L

    def test_top_of_low_tail(self, small_params):
        x = 1.0
        y = int(2**small_params.p * (small_params.E + x)) - 1
        low_top = x - small_params.L - small_params.step
        assert perturb(TDL, x, NoisePair(0, y), small_params) == low_top

    def test_branch1_adds(self, small_params):
        assert perturb(TDL, 1.0, NoisePair(1, -2.0), small_params) == -1.0
        assert perturb(TCL, -3.0, NoisePair(1, 1.0), small_params) == -2.0

    def test_composite_law_exact_d(self, small_params):
        # enumerate (branch, payload) with exact probabilities and push
        # through the deterministic perturb map
        params = small_params
        pb = branch_probability_d(params)
        m = outer_count(params)
        inner = centered_dlap_pmf(params.L, params.sigma, params.p)
        for x in params.input_grid().values():
            x = float(x)
            law = {}
            for y in range(m):
                z = perturb(TDL, x, NoisePair(0, y), params)
                law[z] = law.get(z, 0.0) + (1 - pb) / m
            for v, mass in zip(inner.support(), inner.masses):
                z = perturb(TDL, x, NoisePair(1, float(v)), params)
                law[z] = law.get(z, 0.0) + pb * float(mass)
            oracle = tdl_masses_oracle(x, 4, 2, 1, 0)
            ys = closed_grid(6, 0)
            assert set(law) == set(ys.tolist())
            for y, mref in zip(ys, oracle):
                assert abs(law[float(y)] - mref) < 1e-12

    def test_composite_law_exact_c(self, small_params):
        # same enumeration with the exact inner table standing in for the
        # sampler, on the 2^-0 and the 2^-2 grid
        for params in (small_params, dataclasses.replace(small_params, p=2)):
            pb = branch_probability_c(params)
            m = outer_count(params)
            inner = centered_clap_pmf(params.L, params.sigma, params.p)
            for x in params.input_grid().values():
                x = float(x)
                law = {}
                for y in range(m):
                    z = perturb(TCL, x, NoisePair(0, y), params)
                    law[z] = law.get(z, 0.0) + (1 - pb) / m
                for v, mass in zip(inner.support(), inner.masses):
                    z = perturb(TCL, x, NoisePair(1, float(v)), params)
                    law[z] = law.get(z, 0.0) + pb * float(mass)
                oracle = tcl_masses_oracle(x, 4, 2, 1, params.p)
                ys = closed_grid(6, params.p)[:-1]
                assert set(law) == set(ys.tolist())
                for y, mref in zip(ys, oracle):
                    assert abs(law[float(y)] - mref) < 1e-12

    def test_end_to_end_tv_all_centers(self, small_params):
        # 3M draws an input: at 1M a faithful sampler reads 0.0013 + 0.0032
        # = 0.0045 on the 13-point support (`sized_for`), above the bound.
        # The same draws against the law one step over read about 0.28
        params, n, bound = small_params, 3_000_000, THRESHOLDS["sampler_tv_1e6"]
        for i, x in enumerate(params.input_grid().values()):
            x = float(x)
            law = tdl_masses_oracle(x, 4, 2, 1, 0)
            assert sized_for(bound, law, n)
            vals = sample_tdl_batch(x, params, n, 100 + i)
            counts = np.bincount((vals + 6).astype(int), minlength=13)
            assert tv(counts, law) < bound
            shifted = tdl_masses_oracle(x + 1 if x < params.E else x - 1, 4, 2, 1, 0)
            assert tv(counts, shifted) > 0.27

    def test_errors(self, small_params):
        with pytest.raises(ValueError):
            perturb(TDL, 5.0, NoisePair(0, 0), small_params)
        with pytest.raises(ValueError):
            perturb(TDL, 0.0, NoisePair(0, 99), small_params)
        with pytest.raises(ValueError):
            NoisePair(2, 0)

    @pytest.mark.parametrize(
        "mech, pair",
        [
            (TDL, NoisePair(1, 999.0)),  # was 1000.0, off the output grid
            (TDL, NoisePair(1, -3.0)),  # below -L
            (TCL, NoisePair(1, 2.0)),  # was 3.0: +L is outside TCL's [-L, L)
            (TDL, NoisePair(1, 0.5)),  # off the 2^-p grid
            (TDL, NoisePair(0, 3.5)),  # was -3.0: int() truncated the index
            (TCL, NoisePair(0, -1)),
            (TDL, NoisePair(0, float("nan"))),
        ],
        ids=["tdl-far", "tdl-below", "tcl-top", "off-grid", "half-index", "neg-index", "nan"],
    )
    def test_refuses_a_pair_noise_cannot_draw(self, small_params, mech, pair):
        with pytest.raises(ValueError):
            perturb(mech, 1.0, pair, small_params)

    def test_accepts_the_ends_of_each_support(self, small_params):
        L = small_params.L
        assert perturb(TDL, 1.0, NoisePair(1, L), small_params) == 1.0 + L
        assert perturb(TDL, 1.0, NoisePair(1, -L), small_params) == 1.0 - L
        assert perturb(TCL, 1.0, NoisePair(1, L - 1), small_params) == L
        assert perturb(TCL, 1.0, NoisePair(1, -L), small_params) == 1.0 - L
        assert perturb(TDL, 1.0, NoisePair(0, 7.0), small_params) == 6.0


class TestMechanismLaw:
    """The whole mechanism's law, from the integer thresholds of its noise
    plan and the perturbation map, against `pmf_tdl`/`pmf_tcl` at every x."""

    # bitwise and segmented inner draws, outer counts a power of two and
    # not, and sigma well below the grid step
    LATTICE = [
        MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),
        MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),
        MechanismParams(E=5.0, L=3.0, sigma=1.0, p=1),
        MechanismParams(E=8.0, L=4.0, sigma=4.0, p=0),
        MechanismParams(E=4.0, L=2.0, sigma=1 / 30, p=0),
    ]

    @staticmethod
    def worst_relative_error(plan, x, place=None) -> float:
        """Largest relative error of the oracle law on the pmf's masses
        above 1e-12; a nonzero mass off the output grid fails at once."""
        law = mechanism_law_oracle(plan, plan.params.input_steps(x), place)
        assert sum(law.values()) == 1
        exact = plan.mech.pmf(x, plan.params)
        B = exact.spec.bound_steps
        assert all(0 <= k + B < len(exact.masses) for k, m in law.items() if m)
        return max(abs(float(law.get(i - B, 0)) - m) / m
                   for i, m in enumerate(exact.masses) if m > 1e-12)

    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    @pytest.mark.parametrize("params", LATTICE, ids=["E4", "E3", "E5-p1", "E8", "E4-small-sigma"])
    def test_law_is_the_pmf_at_every_x(self, mech, params):
        plan = noise_plan(mech, params)
        for x in params.input_grid().values():
            assert self.worst_relative_error(plan, float(x)) <= 1e-13

    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    def test_a_swapped_branch_or_a_shifted_map_fails(self, mech):
        plan = noise_plan(mech, MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0))
        assert self.worst_relative_error(plan, 1.0) <= 1e-13
        swapped = lambda plan, xs, branch, a, b: _perturb_steps(plan, xs, 1 - branch, a, b)
        assert self.worst_relative_error(plan, 1.0, swapped) > 1.0
        shifted = lambda plan, xs, branch, a, b: _perturb_steps(plan, xs, branch, a, b) + 1
        with pytest.raises(AssertionError):  # the top of the support moves off the grid
            self.worst_relative_error(plan, 1.0, shifted)

    # tail counts 2 * 2^p * E of P = 2 and 3 segments: 6, 20, 14, 22 and 800
    TAIL_SETS = [
        MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),
        MechanismParams(E=5.0, L=3.0, sigma=1.0, p=1),
        MechanismParams(E=7.0, L=2.0, sigma=1.0, p=0),
        MechanismParams(E=11.0, L=2.0, sigma=1.0, p=0),
        MechanismParams(E=100.0, L=32.0, sigma=8.0, p=2),
    ]

    @pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
    @pytest.mark.parametrize("params", TAIL_SETS, ids=["E3", "E5-p1", "E7", "E11", "E100-p2"])
    def test_segmented_tail_law_is_the_pmf(self, mech, params):
        plan = noise_plan(mech, params)
        assert plan.tail.words in (2, 3)
        xs = params.input_grid().values()
        if len(xs) > 50:  # the ends, the middle and a few steps between
            xs = [-params.E, -1.0, 0.0, params.step, 37.5, params.E]
        for x in xs:
            assert self.worst_relative_error(plan, float(x)) <= 1e-12

    @pytest.mark.parametrize("params, swap", [
        (TAIL_SETS[0], lambda picks: tuple(2**64 - t for t in picks)),  # P = 2: complemented
        (TAIL_SETS[3], lambda picks: picks[::-1]),                       # P = 3: exchanged
    ], ids=["E3-complemented", "E11-exchanged"])
    def test_swapped_picks_fail(self, params, swap):
        plan = noise_plan(TDL, params)
        swapped = dataclasses.replace(plan, tail=dataclasses.replace(plan.tail, picks=swap(plan.tail.picks)))
        assert self.worst_relative_error(swapped, 1.0) > 1e-3

    @pytest.mark.parametrize("N", [6, 10, 14, 22, 200, 800, 16386])
    def test_each_tail_index_is_within_2_to_the_minus_52(self, N):
        # the integer picks round each segment's mass; 2^14 + 2 reaches
        # the worst error of the even counts below 70,000, exactly 2^-52
        law = tail_law_oracle(segment_plan(N))
        assert sum(law) == 1
        assert max(abs(m * N - 1) for m in set(law)) <= Fraction(1, 2**52)

    @pytest.mark.parametrize("params", [LATTICE[0], LATTICE[1], LATTICE[3]],
                             ids=["E4", "E3", "E8"])
    def test_tcl_worst_ratio_is_the_certified_one(self, params):
        # the sampled law's max over (x, x', z) of mass(z | x) / mass(z | x')
        # is the ratio `max_privacy_ratio` certifies for pmf_tcl
        plan = noise_plan(TCL, params)
        laws = [mechanism_law_oracle(plan, params.input_steps(float(x)))
                for x in params.input_grid().values()]
        worst = max(max(law[z] for law in laws) / min(law[z] for law in laws) for z in laws[0])
        assert float(worst) == pytest.approx(max_privacy_ratio("tcl", params), rel=1e-12, abs=0)


class TestDeterminism:
    def test_same_seed_same_stream(self, small_params):
        a = RandomTape(77)
        b = RandomTape(77)
        va = [sample_tdl(0.0, small_params, a) for _ in range(500)]
        vb = [sample_tdl(0.0, small_params, b) for _ in range(500)]
        assert va == vb
        assert a.words_consumed == b.words_consumed
        assert a.word() == b.word()

    def test_batch_equals_sequential(self, small_params):
        tape = RandomTape(78)
        seq = np.array([sample_tdl(1.0, small_params, tape) for _ in range(3000)])
        batch = sample_tdl_batch(1.0, small_params, 3000, 78)
        assert np.array_equal(seq, batch)

    def test_batch_equals_sequential_p2(self):
        params = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
        tape = RandomTape(79)
        seq = np.array([sample_tdl(-32.0, params, tape) for _ in range(1000)])
        batch = sample_tdl_batch(-32.0, params, 1000, 79)
        assert np.array_equal(seq, batch)

    def test_injected_words(self):
        # an injected stream replays exactly
        base = RandomTape(80)
        v1 = sample_dlap_centered(2.0, 1.0, 0, base)
        replay = RandomTape(words=RandomTape(80).words(base.words_consumed))
        assert sample_dlap_centered(2.0, 1.0, 0, replay) == v1


# (E, L, sigma, p): bitwise and segmented inner draws, outer counts
# 2 * 2^p * E a power of two and not
BATCH_SETS = [
    MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),   # bitwise, outer 8
    MechanismParams(E=4.0, L=3.0, sigma=1.0, p=0),   # segmented, outer 8
    MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),   # bitwise, outer 6
    MechanismParams(E=3.0, L=3.0, sigma=1.0, p=0),   # segmented, outer 6
    MechanismParams(E=1.5, L=1.0, sigma=0.5, p=1),   # bitwise, outer 6, p = 1
    MechanismParams(E=1.0, L=64.0, sigma=1.0, p=0),  # branch threshold 2^64
]


@st.composite
def batch_cases(draw):
    """(mechanism, params, gamma, x, n, seed, block size or None); gamma is
    what sample_tcl is passed, and changes nothing."""
    params = draw(st.sampled_from(BATCH_SETS))
    Es = steps_of(params.E, params.p)
    return (
        draw(st.sampled_from([TDL, TCL])),
        params,
        draw(st.integers(0, 8)),
        draw(st.integers(-Es, Es)) * params.step,
        draw(st.integers(0, 200)),
        draw(st.integers(0, 2**32)),
        draw(st.sampled_from([4, 32, None])),
    )


class TestSampleBatch:
    """sample_batch runs every mechanism and parameter shape in blocks and
    equals the sequential sampler on the same seed: values and words."""

    @settings(max_examples=80, deadline=None)
    @given(case=batch_cases())
    def test_batch_equals_sequential(self, case):
        mech, params, gamma, x, n, seed, block = case
        tapes = []

        class Recorded(RandomTape):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tapes.append(self)

        # a small block size makes several blocks per call cheap to test
        with mock.patch.object(sampling, "RandomTape", Recorded), mock.patch.object(
            tape_module, "BATCH_BLOCK", block or tape_module.BATCH_BLOCK
        ):
            batch = sample_batch(mech, x, params, n, seed)
        tape = RandomTape(seed)
        if mech.cumulative:
            seq = [sample_tcl(x, params, tape, gamma) for _ in range(n)]
        else:
            seq = [sample_tdl(x, params, tape) for _ in range(n)]
        assert batch.dtype == np.float64 and batch.tolist() == seq
        assert [t.words_consumed for t in tapes] == [tape.words_consumed]

    def test_branch_threshold_of_two_to_the_64(self):
        # the branch probability rounds to 1.0, so its threshold is 2^64,
        # one past the largest uint64
        params = MechanismParams(E=1.0, L=64.0, sigma=1.0, p=0)
        assert noise_plan(TDL, params).branch_threshold == 2**64
        tape = RandomTape(3)
        seq = [sample_tdl(1.0, params, tape) for _ in range(500)]
        assert sample_tdl_batch(1.0, params, 500, 3).tolist() == seq

    def test_bad_input(self, small_params):
        with pytest.raises(ValueError, match="n must be"):
            sample_batch(TCL, 0.0, small_params, -1, 0)
        with pytest.raises(ValueError, match="outside"):
            sample_batch(TCL, 5.0, small_params, 0, 0)
