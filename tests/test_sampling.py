import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import product

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_grid, tcl_masses_oracle, tdl_masses_oracle
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
    noise,
    perturb,
    sample_batch,
    sample_clap_centered,
    sample_dlap_centered,
    sample_tcl,
    sample_tdl,
    sample_tdl_batch,
)
from trunclap.grids import steps_of
from trunclap.mechanisms import (
    branch_probability_c,
    branch_probability_d,
    lookup_mechanism,
    outer_count,
)
from trunclap.mpc import mechanism_field, run_batch
from trunclap.sampling import (
    MAX_TABLE_CELLS,
    _dlap_steps,
    _noise_plan,
    centered_dlap_config,
    dlap_zero_mass,
    noise_plan,
)
from trunclap.tape import bernoulli_threshold


def tv(counts, masses):
    freq = counts / counts.sum()
    return 0.5 * float(np.sum(np.abs(freq - masses)))


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
        n = 1_000_000
        tape = RandomTape(21)
        draws = np.array([sample_dlap_centered(2.0, 1.0, 0, tape) for _ in range(n)])
        counts = np.bincount((draws + 2).astype(int), minlength=5)
        exact = centered_dlap_pmf(2.0, 1.0, 0).masses
        assert tv(counts, exact) < 0.003
        mirrored = counts[::-1]
        assert 0.5 * np.sum(np.abs(counts / n - mirrored / n)) < 0.003

    def test_zero_mass_frequency(self):
        n = 200_000
        c0 = dlap_zero_mass(2.0, 1.0, 0)
        tape = RandomTape(22)
        hits = sum(sample_dlap_centered(2.0, 1.0, 0, tape) == 0.0 for _ in range(n))
        se = math.sqrt(c0 * (1 - c0) / n)
        assert abs(hits / n - c0) < 3 * se

    def test_table_fallback_for_non_pow2(self):
        cfg = centered_dlap_config(3.0, 1.0, 0)
        assert cfg.method == "table"
        n = 200_000
        tape = RandomTape(23)
        draws = np.array([sample_dlap_centered(3.0, 1.0, 0, tape) for _ in range(n)])
        counts = np.bincount((draws + 3).astype(int), minlength=7)
        exact = centered_dlap_pmf(3.0, 1.0, 0).masses
        assert tv(counts, exact) < 0.006
        assert tape.words_consumed == n  # one word per table draw

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


class TestTableLookup:
    """The table path's lookup is np.searchsorted(cdf, u, side="right")
    clamped into the last cell, at every CDF boundary."""

    # TDL table set (49 cells), the TCL fine table of that set at gamma=8
    # (12,289 cells), and the smallest table
    TABLES = [(24.0, 8.0, 0), (24.0, 8.0, 8), (3.0, 1.0, 0)]

    @staticmethod
    def boundary_words(cdf):
        """Words at floor/ceil(cdf_i * 2^64) +- 1 for every boundary, and
        words near 2^64, where u = word / 2^64 rounds to 1.0."""
        words = set()
        for c in cdf:
            scaled = Fraction(c) * 2**64
            for edge in (math.floor(scaled), math.ceil(scaled)):
                words.update((edge - 1, edge, edge + 1))
        top = 2**64
        words.update(top - k for k in (1, 2, 2**10, 2**10 + 1, 2**11 - 1, 2**11, 2**11 + 1))
        return sorted(w for w in words if 0 <= w < top)

    @pytest.mark.parametrize("L, sigma, p", TABLES)
    def test_lookup_equals_searchsorted(self, L, sigma, p):
        cfg = centered_dlap_config(L, sigma, p)
        assert cfg.method == "table" and len(cfg.cdf) == 2 * cfg.steps + 1
        words = self.boundary_words(cfg.cdf)
        u = np.array([w / 2.0**64 for w in words])
        assert u.max() == 1.0  # the clamp is exercised
        want = np.minimum(np.searchsorted(np.asarray(cfg.cdf), u, side="right"), len(cfg.cdf) - 1)
        tape = RandomTape(words=words)
        got = [_dlap_steps(cfg, tape.words(1)) + cfg.steps for _ in words]
        assert got == want.tolist()
        assert tape.words_consumed == len(words)

    @pytest.mark.parametrize("L, sigma, p", TABLES + [(32.0, 8.0, 0), (2.0, 1.0, 0)])
    def test_rows_equal_scalar_draws(self, L, sigma, p):
        # the block path reads uint64 rows, one entry per execution; the
        # table path's boundary words and 0, 2^64 - 1 in every row included
        cfg = centered_dlap_config(L, sigma, p)
        k = cfg.words_per_draw
        cols = [[w] * k for w in self.boundary_words(cfg.cdf)] if cfg.cdf else []
        cols += [[0] * k, [2**64 - 1] * k] + [RandomTape(5).words(k) for _ in range(2000)]
        rows = np.array(cols, dtype=np.uint64).T
        assert _dlap_steps(cfg, rows).tolist() == [_dlap_steps(cfg, c) for c in cols]

    def test_config_keeps_steps_and_step(self):
        for L, sigma, p in self.TABLES + [(32.0, 8.0, 2)]:
            cfg = centered_dlap_config(L, sigma, p)
            assert (cfg.steps, cfg.step) == (round(L * 2**p), 2.0**-p)


class TestTableCap:
    def test_oversized_table_raises_before_allocating(self):
        # L = 3 at p = 24 (TCL gamma = 24 on p = 0): 2 * 3 * 2^24 + 1 cells
        assert 2 * 3 * 2**24 + 1 > MAX_TABLE_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cells"):
                centered_dlap_config(3.0, 1.0, 24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_is_far_above_the_tables_in_use(self):
        assert MAX_TABLE_CELLS >= 64 * len(centered_dlap_config(24.0, 8.0, 8).cdf)

    def test_cap_bounds_the_table(self, monkeypatch):
        monkeypatch.setattr("trunclap.sampling.MAX_TABLE_CELLS", 7)
        centered_dlap_config.cache_clear()
        try:
            assert len(centered_dlap_config(3.0, 1.25, 0).cdf) == 7
            with pytest.raises(ValueError):
                centered_dlap_config(5.0, 1.25, 0)
            assert centered_dlap_config(8.0, 1.25, 0).method == "bitwise"
        finally:
            centered_dlap_config.cache_clear()


class TestCenteredClap:
    def test_floor_map(self):
        # fine points in [y, y + 2^-p) all land on y
        h = 0.25
        for y in (-2.0, -0.25, 0.0, 1.75):
            for frac in (0.0, 0.0625, 0.1875):
                assert math.floor((y + frac) / h) * h == y

    def test_tv_at_gamma6(self):
        n = 1_000_000
        tape = RandomTape(31)
        draws = np.array(
            [sample_clap_centered(2.0, 1.0, 0, 6, tape) for _ in range(n)]
        )
        counts = np.bincount((draws + 2).astype(int), minlength=4)
        exact = centered_clap_pmf(2.0, 1.0, 0).masses
        assert tv(counts, exact) < 0.01
        assert draws.max() < 2.0  # half-open support

    def test_exact_pushforward_tv_decreases_in_gamma(self):
        # no sampling: push the fine-lattice law through the floor map
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
        from scipy.stats import chisquare

        n = 1_000_000
        tape = RandomTape(42)
        m = outer_count(small_params)
        draws = np.array(
            [noise(TDL, small_params, tape, branch_prob=0.0).payload for _ in range(n)]
        ).astype(int)
        counts = np.bincount(draws, minlength=m)
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
            pair = noise(TCL, small_params, tape, gamma=4)
            if pair.branch:
                assert -2.0 <= pair.payload < 2.0


class TestNoisePlan:
    SETS = [
        MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),
        MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2),
        MechanismParams(E=64.0, L=24.0, sigma=8.0, p=0),
        MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),
    ]

    @pytest.mark.parametrize("gamma", [0, 3, 8])
    def test_fields_equal_the_formulas(self, gamma):
        for params, mech in product(self.SETS, (TDL, TCL)):
            plan = noise_plan(mech, params, gamma)
            assert plan.branch_threshold == bernoulli_threshold(mech.branch_probability(params))
            assert plan.outer_count == outer_count(params)
            assert (plan.Es, plan.Ls) == (round(params.E * 2**params.p), round(params.L * 2**params.p))
            fine = params.p + mech.fine_bits(gamma)
            assert plan.inner == centered_dlap_config(params.L, params.sigma, fine)
            assert noise_plan(mech, params, gamma) is plan  # cached
            # TDL's inner draw has no fine lattice: one plan for every gamma
            if mech is TDL:
                assert noise_plan(mech, params, gamma + 1) is plan

    def test_words_per_draw_is_the_draw_layout(self):
        # branch word, tail word, inner draw: what one draw reads when no
        # attempt is rejected (a power-of-two tail count and TDL never reject)
        for params, mech in product(self.SETS, (TDL, TCL)):
            plan = noise_plan(mech, params)
            assert plan.words_per_draw == 2 + plan.inner.words_per_draw
            if plan.tail_mask + 1 == plan.outer_count and mech is TDL:
                tape = RandomTape(5)
                noise(mech, params, tape)
                assert tape.words_consumed == plan.words_per_draw

    def test_negative_gamma_is_refused_for_tcl(self, small_params):
        with pytest.raises(ValueError, match="gamma"):
            noise_plan(TCL, small_params, -1)

    def test_branch_prob_bypasses_the_plan(self, small_params):
        # a branch word below the plan's threshold: branch 1 from the plan,
        # branch 0 when branch_prob=0 overrides it
        for mech in (TDL, TCL):
            words = [noise_plan(mech, small_params).branch_threshold - 1] + [0] * 40
            assert noise(mech, small_params, RandomTape(words=words)).branch == 1
            stubbed = noise(mech, small_params, RandomTape(words=words), branch_prob=0.0)
            assert stubbed.branch == 0

    # (mech, E, L, p, gamma, accepted) on each side of the three limits a
    # block's int64 words set: the tail index (2 * 2^p * E <= 2^63), the
    # upper tail's shift (2 * 2^p * L, plus 1 for TDL, < 2^63) and the inner
    # magnitude (2^(p + gamma) * L <= 2^62)
    WORD_EDGES = [
        ("tdl", 4.0, 2.0, 60, 8, True),
        ("tdl", 4.0, 2.0, 61, 8, False),
        ("tdl", 4.0, 0.5, 60, 8, True),
        ("tdl", 4.0, 0.5, 61, 8, False),
        ("tcl", 4.0, 2.0, 53, 8, True),
        ("tcl", 4.0, 2.0, 54, 8, False),
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
            assert sample_batch(mech, E, params, 300, 5, gamma).tolist() == seq
            # a perturbation reads the coarse plan only
            assert perturb(mech, E, NoisePair(0, 0), params) == -E - L
            # the protocol takes the same plans, and runs where its field fits a word
            if mechanism_field(params, name, gamma).q < 1 << 64:
                z = run_batch(name, params, E, 3, 0, 1, gamma)
                assert np.all(np.abs(z) <= E + L)
            return
        for call in (
            lambda: noise_plan(mech, params, gamma),
            lambda: sample_batch(mech, E, params, 300, 5, gamma),
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
                out += [sample_tcl(0.0, params, tape, 5) for _ in range(50)]
            return out, tape.words_consumed

        before = draws()
        plan = noise_plan(TCL, small_params, 5)
        _noise_plan.cache_clear()
        centered_dlap_config.cache_clear()
        assert noise_plan(TCL, small_params, 5) is not plan
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
        # gamma-approximate sampler, on the 2^-0 and the 2^-2 grid
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
        params = small_params
        for i, x in enumerate(params.input_grid().values()):
            x = float(x)
            vals = sample_tdl_batch(x, params, 1_000_000, 100 + i)
            counts = np.bincount((vals + 6).astype(int), minlength=13)
            assert tv(counts, tdl_masses_oracle(x, 4, 2, 1, 0)) < 0.003

    def test_errors(self, small_params):
        with pytest.raises(ValueError):
            perturb(TDL, 5.0, NoisePair(0, 0), small_params)
        with pytest.raises(ValueError):
            perturb(TDL, 0.0, NoisePair(0, 99), small_params)
        with pytest.raises(ValueError):
            NoisePair(2, 0)


class TestDeterminism:
    def test_same_seed_same_stream(self, small_params):
        a = RandomTape(77, record=True)
        b = RandomTape(77, record=True)
        va = [sample_tdl(0.0, small_params, a) for _ in range(500)]
        vb = [sample_tdl(0.0, small_params, b) for _ in range(500)]
        assert va == vb
        assert a.draw_log == b.draw_log

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
        base = RandomTape(80, record=True)
        v1 = sample_dlap_centered(2.0, 1.0, 0, base)
        replay = RandomTape(words=base.draw_log)
        assert sample_dlap_centered(2.0, 1.0, 0, replay) == v1


# (E, L, sigma, p): bitwise and table inner draws (at TCL's fine lattice
# 2^p L * 2^gamma too), outer counts 2 * 2^p * E a power of two and not
BATCH_SETS = [
    MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),   # bitwise, outer 8
    MechanismParams(E=4.0, L=3.0, sigma=1.0, p=0),   # table, outer 8
    MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),   # bitwise, outer 6
    MechanismParams(E=3.0, L=3.0, sigma=1.0, p=0),   # table, outer 6
    MechanismParams(E=1.5, L=1.0, sigma=0.5, p=1),   # bitwise, outer 6, p = 1
    MechanismParams(E=1.0, L=64.0, sigma=1.0, p=0),  # branch threshold 2^64
]


@st.composite
def batch_cases(draw):
    """(mechanism, params, gamma, x, n, seed, block size or None)."""
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
            batch = sample_batch(mech, x, params, n, seed, gamma)
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
