import dataclasses
import decimal
import json
import math
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.stats import chi2

from conftest import (
    branch_probability_formulas,
    closed_grid,
    kernel_pmf_oracle,
    lap_lambda_oracle,
    lap_moments_oracle,
    normalizer_formulas,
    tcl_cell_oracle,
    tcl_masses_oracle,
    tdl_masses_oracle,
)
from trunclap import (
    MechanismParams,
    calibrate,
    centered_clap_pmf,
    centered_dlap_pmf,
    find_kstar,
    kstar_calibration,
    lambda_dlap,
    lambda_lap,
    max_privacy_ratio,
    moments_lap,
    moments_lap_exact,
    moments_tcl,
    moments_tdl,
    pmf_tcl,
    pmf_tdl,
)
from trunclap.mechanisms import (
    TCL,
    TDL,
    _centered_law,
    _mechanism_law,
    _normalizer,
    kstar_polynomial,
    lookup_mechanism,
    regularized_gamma,
)
from trunclap import cli
from trunclap.grids import GridError, GridSpec, steps_of
from trunclap.mpc import run_batch
from trunclap.sampling import sample_batch, sample_tdl
from trunclap.tape import RandomTape
from trunclap.thresholds import THRESHOLDS

LAMBDA_TOL = THRESHOLDS["lambda_rel_tol"]  # normalizers against their oracles
NORM_TOL = THRESHOLDS["normalization_tol"]  # a pmf's total mass against 1
MOMENT_TOL = THRESHOLDS["moment_oracle_rel_tol"]  # moment formulas against their oracles

# every (E, L, sigma, p) combination used by the normalization sweeps
LATTICE = [
    (E, L, s, p)
    for E in (2.0, 4.0, 64.0)
    for L in (1.0, 2.0, 32.0)
    for s in (0.5, 1.0, 8.0)
    for p in (0, 1, 2)
]


class TestLambdas:
    def test_lambda_lap_reference_value(self):
        val = lambda_lap(64, 32, 8)
        assert val == pytest.approx(18.05135155553823, abs=1e-10)
        # numeric integration must agree and be independent of the center
        assert val == pytest.approx(lap_lambda_oracle(64, 32, 8, 0.0), rel=LAMBDA_TOL)
        assert val == pytest.approx(lap_lambda_oracle(64, 32, 8, 40.0), rel=LAMBDA_TOL)

    def test_lambda_lap_degenerate_cases(self):
        # E = sigma kills the second term
        assert lambda_lap(8, 5, 8) == pytest.approx(16.0, abs=1e-12)
        # enormous L: the exponential term vanishes
        assert lambda_lap(64, 800, 8) == pytest.approx(16.0, rel=1e-9)

    def test_lambda_dlap_reference_value(self):
        val = lambda_dlap(64, 32, 8, 0)
        ys = closed_grid(96, 0)
        for x in (-64.0, 0.0, 17.0):
            direct = float(np.sum(np.exp(-np.minimum(np.abs(ys - x), 32) / 8)))
            assert val == pytest.approx(direct, rel=1e-12)
        assert len(ys) == 193
        assert val == pytest.approx(18.0901, abs=5e-5)

    def test_lambda_dlap_p2(self):
        ys = closed_grid(96, 2)
        assert len(ys) == 769
        direct = float(np.sum(np.exp(-np.minimum(np.abs(ys), 32) / 8)))
        assert lambda_dlap(64, 32, 8, 2) == pytest.approx(direct, rel=1e-12)

    def test_lambda_dlap_huge_sigma_is_point_count(self):
        for p in (0, 2):
            count = 2 * 2**p * 96 + 1
            assert lambda_dlap(64, 32, 1e6, p) == pytest.approx(count, rel=1e-4)

    def test_lambda_clap_reference_and_identity(self):
        # lambda_lap is also the cumulative mechanism's normalizer
        val = lambda_lap(64, 32, 8)
        assert val == pytest.approx(18.05135155553823, abs=1e-10)
        # piecewise closed-form integration over the half-open support
        cells = sum(tcl_cell_oracle(y, 0.0, 32, 8, 1.0) for y in closed_grid(96, 0)[:-1])
        assert val == pytest.approx(cells, rel=1e-9)
        assert lambda_lap(64, 800, 8) == pytest.approx(16.0, rel=1e-9)

    def test_lambda_clap_equals_lambda_lap(self):
        # the expm1 form lambda_lap evaluates equals the paper's
        # 2*(sigma + (E - sigma)*e^(-L/sigma))
        rng = np.random.default_rng(7)
        for _ in range(100):
            E, L, s = rng.uniform(0.5, 100, size=3)
            paper = 2.0 * (s + (E - s) * math.exp(-L / s))
            assert lambda_lap(E, L, s) == pytest.approx(paper, rel=1e-12)

    def test_domain_errors(self):
        for bad in ((0, 1, 1), (1, -2, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                lambda_lap(*bad)
            with pytest.raises(ValueError):
                lambda_dlap(*bad, 0)

    def test_lambda_dlap_refuses_a_negative_precision(self):
        with pytest.raises(ValueError, match="p must be >= 0"):
            lambda_dlap(4, 2, 1, -1)

    def test_lambda_independent_of_center_sweep(self):
        for E, L, s, p in LATTICE:
            ys = closed_grid(L + E, p)
            lam = lambda_dlap(E, L, s, p)
            lamc = lambda_lap(E, L, s)
            h = 2.0**-p
            for x in (-E, 0.0, E):
                direct = float(np.sum(np.exp(-np.minimum(np.abs(ys - x), L) / s)))
                assert lam == pytest.approx(direct, rel=LAMBDA_TOL)
                cells = sum(
                    _cell_closed_form(float(y), x, L, s, h) for y in ys[:-1]
                )
                assert lamc == pytest.approx(cells, rel=LAMBDA_TOL)


def mass_at(f, y):
    """The mass of grid value y under the pmf f: point i of the grid is
    (i - bound_steps) 2^-p."""
    return f.masses[steps_of(y, f.spec.p) + f.spec.bound_steps]


def _cell_closed_form(y, x, L, s, h):
    # independent re-derivation of the cell integral (not the library's)
    import math as m
    hi, lo = y + h, y
    if lo >= x:
        a, b = lo - x, hi - x
        if a >= L:
            return h * m.exp(-L / s)
        return s * (m.exp(-a / s) - m.exp(-b / s))
    a, b = x - hi, x - lo
    if a >= L:
        return h * m.exp(-L / s)
    return s * (m.exp(-a / s) - m.exp(-b / s))


@st.composite
def normalizer_sets(draw):
    """(E, L, sigma, p) on the grid, with E up to 2^40 and sigma from past
    the point where e^(2^-p/sigma) overflows a double (2^-p/sigma > 709.78)
    up to 200."""
    p = draw(st.integers(0, 30))
    h = 2.0**-p
    E = draw(st.just(2.0**40) | st.integers(1, 4096).map(lambda k: k * h))
    L = draw(st.integers(1, 4096)) * h
    sigma = draw(st.floats(1e-3, 200.0)
                 | st.sampled_from([300.0, 709.0, 710.5, 5000.0]).map(lambda t: h / t))
    return E, L, sigma, p


class TestOneNormalizer:
    """`_normalizer` serves lambda_lap, lambda_dlap, the centred laws and
    both branch probabilities; each value is the formula it replaced
    (`conftest.normalizer_formulas`, `branch_probability_formulas`), bit
    for bit, so every seeded threshold drawn from them is unchanged."""

    @given(normalizer_sets())
    @settings(max_examples=300, deadline=None)
    def test_every_normalizer_is_its_formula(self, tup):
        E, L, s, p = tup
        want = normalizer_formulas(E, L, s, p)
        assert lambda_lap(E, L, s) == _normalizer(E, L, s, p, True) == want["lap"]
        assert lambda_dlap(E, L, s, p) == _normalizer(E, L, s, p, False) == want["dlap"]
        assert _normalizer(0.0, L, s, p, False) == want["centered_dlap"]
        # c0, the zero flag's mass, is the centred law's mass at 0
        assert centered_dlap_pmf(L, s, p).masses[steps_of(L, p)] == 1.0 / want["centered_dlap"]
        assert _normalizer(0.0, L, s, p, True) == want["centered_clap"]
        P = MechanismParams(E=E, L=L, sigma=s, p=p)
        assert (TDL.branch_probability(P), TCL.branch_probability(P)) == (
            branch_probability_formulas(P))

    def test_a_tail_term_past_the_double_range_is_refused(self):
        # 2^(p+1) E: 2^1023 at p = 1020 on E = 4, the last finite one;
        # 2.0 ** (p + 1) raised OverflowError from p = 1023, and at p = 1021
        # the product was inf
        assert lambda_dlap(4.0, 2.0, 1.0, 1020) == normalizer_formulas(4.0, 2.0, 1.0, 1020)["dlap"]
        for p in (1021, 1023, 5000):
            with pytest.raises(ValueError, match=f"normaliser at p = {p} leaves the double range"):
                lambda_dlap(4.0, 2.0, 1.0, p)


@st.composite
def moment_sets(draw):
    """(params, x): grids of at most 20,000 points, E and L up to 5,000
    steps, p up to 6, epsilon = L/sigma from 1/400 to 100 and x anywhere
    on the input grid."""
    p = draw(st.integers(0, 6))
    h = 2.0**-p
    es = draw(st.integers(1, 5000))
    ls = draw(st.integers(1, 10_000 - es))
    eps = draw(st.floats(1 / 400, 100.0))
    params = MechanismParams(E=es * h, L=ls * h, sigma=ls * h / eps, p=p)
    return params, draw(st.integers(-es, es)) * h


class TestOneMomentDerivation:
    """TDL's and TCL's moments come from one derivation (`_moment_terms`):
    the tail mass on each output point and the centred window.  Below
    epsilon = 1/400 the window sums cancel and lose digits (ROADMAP
    direction 22)."""

    @given(moment_sets())
    @settings(max_examples=60, deadline=None)
    def test_moments_are_the_sums_over_the_pmfs(self, case):
        params, x = case
        for pmf, moments in ((pmf_tdl, moments_tdl), (pmf_tcl, moments_tcl)):
            f = pmf(x, params)
            ys = f.support()
            mean = math.fsum(ys * f.masses)
            mse = math.fsum((ys - x) ** 2 * f.masses)
            got_mean, got_mse = moments(x, params)
            assert got_mean == pytest.approx(mean, abs=MOMENT_TOL * max(1, abs(mean)))
            assert got_mse == pytest.approx(mse, rel=MOMENT_TOL)

    @pytest.mark.parametrize("p", [60, 200, 520, 1000])
    @pytest.mark.parametrize("E, L, s", [(4.0, 2.0, 1.0), (64.0, 32.0, 8.0)])
    def test_a_fine_grid_has_the_continuous_moments(self, E, L, s, p):
        params = MechanismParams(E=E, L=L, sigma=s, p=p)
        for x in (-E, 0.0, E / 2):
            mean, mse = moments_lap_exact(x, params)
            for moments in (moments_tdl, moments_tcl):
                got_mean, got_mse = moments(x, params)
                # TCL's mean is 2^-p / 2 below the continuous one
                assert got_mean == pytest.approx(mean, rel=1e-12, abs=2.0**-p)
                assert got_mse == pytest.approx(mse, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--mechanism", "tdl", "--E", "1e15", "--L", "0.25", "--p", "60", "--x", "0.5",
         "--sigma", "1e110"],
        ["--mechanism", "tcl", "--E", "1e300", "--L", "1e15", "--p", "0", "--x", "1",
         "--epsilon", "1e-300", "--regime", "dchi"],
    ], ids=["tdl", "tcl"])
    def test_a_window_cube_past_the_double_range_is_refused(self, argv, capsys):
        # u^3, u ~ sigma, raised a bare OverflowError through the CLI
        assert cli.main(["moments", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: the closed-form moments need u^3 < 2^1024")
        assert "Traceback" not in err

    def test_an_infinite_normalizer_gives_no_moments(self):
        # E + L < 2 admits p = 1023, and there 2^1024 E is finite at E =
        # 1/4 but the flanks' 2 (1 - e^(-L/sigma)) / (e^(2^-p/sigma) - 1)
        # is not: lambda_dlap is inf, every tail mass would read 0 and the
        # mse 0, so the moments are refused; TCL's lambda is finite
        params = MechanismParams(E=0.25, L=1.5, sigma=100.0, p=1023)
        assert lambda_dlap(0.25, 1.5, 100.0, 1023) == math.inf
        with pytest.raises(ValueError, match="moments at p = 1023 leave the double range"):
            moments_tdl(0.25, params)
        assert all(map(math.isfinite, moments_tcl(0.25, params)))


class TestPmfTdl:
    def test_normalization_sweep(self, small_params):
        for E, L, s, p in LATTICE:
            params = MechanismParams(E=E, L=L, sigma=s, p=p)
            for x in (-E, 0.0, E):
                assert pmf_tdl(x, params).total() == pytest.approx(1.0, abs=NORM_TOL)

    def test_max_min_ratio(self, small_params):
        f = pmf_tdl(1.0, small_params)
        for y in (-6.0, -2.0, 3.0, 6.0):
            assert abs(y - 1.0) >= small_params.L
            ratio = mass_at(f, 1.0) / mass_at(f, y)
            assert ratio == pytest.approx(math.exp(small_params.epsilon), rel=1e-12)

    def test_masses_match_oracle_p2(self, table_params_p2):
        f = pmf_tdl(-32.0, table_params_p2)
        oracle = tdl_masses_oracle(-32.0, 64, 32, 8, 2)
        assert np.allclose(f.masses, oracle, rtol=1e-12, atol=0)

    def test_rejects_bad_center(self, small_params):
        with pytest.raises(GridError):
            pmf_tdl(4.5, small_params)
        with pytest.raises(GridError):
            pmf_tdl(0.3, small_params)


class TestPmfTcl:
    def test_flank_pairing(self):
        params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=2)
        x = 1.25
        f = pmf_tcl(x, params)
        h = params.step
        for i in range(1, int(2**params.p * params.L) + 1):
            assert mass_at(f, x - i * h) == pytest.approx(
                mass_at(f, x + (i - 1) * h), rel=1e-12
            )

    def test_normalization_sweep(self):
        params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=1)
        for x in GridSpec(p=params.p, B=params.E).values():
            assert pmf_tcl(float(x), params).total() == pytest.approx(1.0, abs=NORM_TOL)

    def test_masses_match_quadrature(self):
        # (x, E, L, sigma, p): every case has a flat cell at x+L or at
        # -E-L and a flank cell at x-L; x = +/-E at p = 3 puts x+L on the
        # dropped top point and x-L on the bottom cell; at sigma = 0.001
        # the flank cells one step from x underflow to 0 (and
        # e^(2^-p/sigma) overflows a float)
        for x, E, L, sigma, p in [
            (0.0, 4, 2, 1, 0),
            (1.0, 4, 2, 1, 0),
            (4.0, 4, 2, 1, 3),
            (-4.0, 4, 2, 1, 3),
            (-1.25, 4, 2, 8, 2),
            (1.0, 4, 2, 0.001, 0),
            (0.5, 4, 2, 0.002, 3),
        ]:
            params = MechanismParams(E=float(E), L=float(L), sigma=sigma, p=p)
            f = pmf_tcl(x, params)
            oracle = tcl_masses_oracle(x, E, L, sigma, p)
            assert np.allclose(f.masses, oracle, rtol=1e-11, atol=1e-15)
            assert np.all(np.isfinite(f.masses))

    def test_top_point_excluded(self, small_params):
        f = pmf_tcl(0.0, small_params)
        assert f.spec.half_open
        assert f.support()[-1] == 5.0  # 6.0 dropped


# the sets the cached kernel tables are held bit-identical on
KERNEL_ES = (1.0, 3.0, 4.0, 8.0, 64.0)
KERNEL_LS = (1.0, 2.0, 3.0, 24.0, 32.0)
KERNEL_SIGMAS = (0.001, 0.3, 1.0, 2.5, 8.0)


class TestKernelTable:
    """Every exact law comes from a window cached per parameter set
    (`_mechanism_law`, `_centered_law`); its masses and lambda are the
    float construction's (`kernel_pmf_oracle`) bit for bit."""

    @pytest.mark.parametrize("p", range(4))
    def test_mechanism_pmfs_equal_the_float_construction(self, p):
        for E, L, s in product(KERNEL_ES, KERNEL_LS, KERNEL_SIGMAS):
            params = MechanismParams(E=E, L=L, sigma=s, p=p)
            for pmf, lam in ((pmf_tdl, lambda_dlap(E, L, s, p)), (pmf_tcl, lambda_lap(E, L, s))):
                for x in GridSpec(p=params.p, B=params.E).values():
                    f = pmf(float(x), params)
                    assert f.lam == lam
                    oracle = kernel_pmf_oracle(f.spec, float(x), L, s, lam)
                    assert np.array_equal(f.masses, oracle), (E, L, s, p, x, pmf.__name__)

    def test_centered_pmfs_equal_the_float_construction(self):
        for L, s, p in product(KERNEL_LS, KERNEL_SIGMAS, range(4)):
            lam = normalizer_formulas(0.0, L, s, p)
            cases = (
                (centered_dlap_pmf, GridSpec(p=p, B=L), lam["centered_dlap"]),
                (centered_clap_pmf, GridSpec(p=p, B=L, half_open=True), lam["centered_clap"]),
            )
            for pmf, spec, lam in cases:
                f = pmf(L, s, p)
                assert f.spec == spec and f.lam == lam and f.center == 0.0
                assert np.array_equal(f.masses, kernel_pmf_oracle(spec, 0.0, L, s, lam))

    def test_editing_returned_masses_leaves_the_next_call_unchanged(self, table_params_p2):
        P = table_params_p2
        calls = (lambda: pmf_tdl(-13.25, P), lambda: pmf_tcl(64.0, P),
                 lambda: centered_dlap_pmf(P.L, P.sigma, P.p),
                 lambda: centered_clap_pmf(P.L, P.sigma, P.p))
        for call in calls:
            before = call().masses.copy()
            call().masses[:] = 7.0
            assert np.array_equal(call().masses, before)

    def test_the_cached_window_is_read_only(self, table_params_p2):
        P = table_params_p2
        laws = (_mechanism_law(P, False), _mechanism_law(P, True),
                _centered_law(P.L, P.sigma, P.p, False), _centered_law(P.L, P.sigma, P.p, True))
        for law in laws:
            assert not law.window.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                law.window[0] = 1.0

    def test_the_window_is_cached_per_set(self, table_params_p2):
        P = table_params_p2
        assert _mechanism_law(P, True) is _mechanism_law(dataclasses.replace(P), True)
        assert _mechanism_law(P, True) is not _mechanism_law(P, False)
        # the pmf's grid is the caller's own, so a histogram on it shares it
        assert pmf_tdl(0.0, P).spec is P.output_grid("tdl")


# inputs each entry point must refuse on E = 4, p = 2: off the grid, not a
# number, and one step past either end of [-E, E]
BAD_INPUTS = [4.1, float("nan"), float("inf"), float("-inf"), 4.25, -4.25]
INPUT_PARAMS = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=2)


class TestInputSteps:
    @pytest.mark.parametrize("kw, message", [
        ({"p": -1}, "precision exponent"),
        ({"L": 1.5}, "L=1.5 must be"),
    ], ids=["negative-p", "L-off-grid"])
    def test_params_are_refused(self, kw, message):
        with pytest.raises(GridError, match=message):
            MechanismParams(**{"E": 4.0, "L": 2.0, "sigma": 1.0, "p": 0, **kw})

    def test_on_grid_inputs_in_steps(self):
        assert [INPUT_PARAMS.input_steps(x) for x in (-4.0, -0.25, 0, 1.5, 4.0)] == [
            -16, -1, 0, 6, 16]

    def test_messages(self):
        with pytest.raises(GridError, match=r"outside \[-E, E\]"):
            INPUT_PARAMS.input_steps(4.25)
        with pytest.raises(GridError, match="not a multiple"):
            INPUT_PARAMS.input_steps(0.1)

    @pytest.mark.parametrize("entry", [
        pmf_tdl,
        pmf_tcl,
        moments_tdl,
        moments_tcl,
        lambda x, P: sample_tdl(x, P, RandomTape(1)),
        lambda x, P: sample_batch(TCL, x, P, 10, 1),
        lambda x, P: run_batch("tdl", P, x, 10, 1, 2),
    ], ids=["pmf_tdl", "pmf_tcl", "moments_tdl", "moments_tcl", "sample_tdl",
            "sample_batch", "run_batch"])
    @pytest.mark.parametrize("x", BAD_INPUTS, ids=["off-grid", "nan", "inf", "-inf",
                                                    "above", "below"])
    def test_every_entry_point_refuses(self, entry, x):
        with pytest.raises(GridError):
            entry(x, INPUT_PARAMS)


class TestCenteredPmfs:
    def test_centered_dlap_matches_shifted_kernel(self):
        f = centered_dlap_pmf(2.0, 1.0, 1)
        ys = f.support()
        w = np.exp(-np.abs(ys) / 1.0)
        assert np.allclose(f.masses, w / w.sum(), rtol=1e-12)

    def test_centered_clap_normalizes(self):
        f = centered_clap_pmf(2.0, 1.0, 2)
        assert f.total() == pytest.approx(1.0, abs=NORM_TOL)
        assert f.support()[-1] == 2.0 - 0.25


def lap_moments_decimal(x, E, L, sigma, prec=80):
    """(mean, MSE bound, exact MSE) of the continuous mechanism: the closed
    forms as `moments_lap` once wrote them, in `prec`-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        x, E, L, sigma = map(Decimal, (x, E, L, sigma))
        eps, k = L / sigma, E / sigma
        e = (-eps).exp()
        den = 1 - (1 - k) * e
        bound = (2 * sigma**2 + x * x * e * (eps + k)) / den
        cubic = k**3 / 3 + eps * k * k + eps * eps * k - (eps * eps + 2 * eps + 2)
        return (float(x * (1 - (1 + eps) * e) / den), float(bound),
                float(bound + sigma**2 * e * cubic / den))


class TestMomentsLap:
    def test_zero_center_zero_mean(self, table_params_p0):
        mean, _ = moments_lap(0.0, table_params_p0)
        assert mean == 0.0

    def test_mean_matches_quadrature(self, table_params_p0):
        for x in (32.0, -17.0, 64.0):
            mean, _ = moments_lap(x, table_params_p0)
            omean, _ = lap_moments_oracle(x, 64, 32, 8)
            assert mean == pytest.approx(omean, rel=MOMENT_TOL)

    def test_exact_mse_matches_quadrature(self, table_params_p0):
        for x in (0.0, 32.0, -17.0):
            mean, mse = moments_lap_exact(x, table_params_p0)
            omean, omse = lap_moments_oracle(x, 64, 32, 8)
            assert mean == pytest.approx(omean, rel=MOMENT_TOL)
            assert mse == pytest.approx(omse, rel=MOMENT_TOL)

    def test_bound_holds_in_kstar_regime(self):
        # the display is an upper bound when E = k*sigma with the cubic
        # margin negative, i.e. under the kstar scale recipe
        for eps in (0.5, 1.0, 1.3, 4.0):
            res = kstar_calibration(eps, 64.0)
            sigma = res.sigma
            L = sigma * eps
            E = 64.0
            for x in (0.0, 32.0, 64.0):
                e = math.exp(-eps)
                den = 1 - (1 - E / sigma) * e
                bound = (2 * sigma**2 + x * x * e * (eps + E / sigma)) / den
                _, omse = lap_moments_oracle(x, E, L, sigma)
                assert bound >= omse - 1e-9

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 64.5])
    def test_x_outside_the_input_range_is_refused(self, x, table_params_p0):
        # a NaN x used to pass the range check and give NaN moments
        for moments in (moments_lap, moments_lap_exact):
            with pytest.raises(ValueError, match=r"outside \[-E, E\]"):
                moments(x, table_params_p0)

    def test_large_epsilon_mean_approaches_x(self):
        params = MechanismParams(E=64.0, L=400.0, sigma=8.0, p=0)  # eps = 50
        mean, _ = moments_lap(32.0, params)
        assert mean == pytest.approx(32.0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [1.0, 1e4, 1e8, 1e12, 1e17])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_moments_match_the_closed_form_in_decimal(self, sigma, x):
        # the mean's 1 - (1 + eps) e^(-eps), the exact MSE's
        # 2 - e^(-eps)(eps^2 + 2 eps + 2) and the divisor cancelled as
        # sigma grew: at sigma = 1e12 the exact MSE read -1.3e20 for 2.33,
        # and at 1e17 the divisor 2e-17 rounded to 0 and was refused
        params = MechanismParams(E=1.0, L=1.0, sigma=sigma, p=0)
        mean, bound = moments_lap(x, params)
        got = (mean, bound, moments_lap_exact(x, params)[1])
        assert got == pytest.approx(lap_moments_decimal(x, 1.0, 1.0, sigma), rel=1e-12, abs=0)
        if sigma == 1e17 and x == 0.0:
            assert got[2] == pytest.approx(4 / 3, rel=1e-12)

    @pytest.mark.parametrize("sigma", [1e110, 1e200, 1e300])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_exact_moments_where_the_cubic_terms_underflow(self, sigma, x):
        # past sigma ~ 1e103 the cubic terms underflowed (E = L = 1 read an
        # exact MSE of 0.0 at 1e110, where it is 4/3) and past 1.3e154
        # sigma**2 raised OverflowError; 980 digits hold den's cancellation
        # at 1e300.  The bound, about sigma^3, is past a double: refused
        params = MechanismParams(E=1.0, L=1.0, sigma=sigma, p=0)
        mean, _, mse = lap_moments_decimal(x, 1.0, 1.0, sigma, prec=980)
        assert moments_lap_exact(x, params) == pytest.approx((mean, mse), rel=1e-12, abs=0)
        with pytest.raises(ValueError, match=r"MSE bound at E = 1.0, L = 1.0, sigma = .* is inf"):
            moments_lap(x, params)

    def test_a_divisor_that_rounds_to_zero_is_refused(self, capsys):
        # 1 - (1 - E/sigma) e^(-L/sigma) is 0 in a double only where L/sigma
        # and E/sigma both underflow: this raised ZeroDivisionError through
        # the CLI
        tiny = repr(2.0**-1000)
        argv = ["moments", "--mechanism", "lap", "--E", tiny, "--L", tiny, "--p", "1000",
                "--sigma", "1e300"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: the continuous moments at E = {tiny}")
        assert err.rstrip().endswith("divide by 0.0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("x, E, L, sigma, p, want", [
        (1.0, 1e150, 2.0**-525, 1e-160, 525, (3.47e-271, 1.0, 3.33e299)),
        (0.5, 1e300, 1.0, 1e-10, 0, (0.5, 2e-20, 2e-20)),
    ], ids=["k-overflows", "k-overflows-e-underflows"])
    def test_moments_where_only_k_leaves_the_double_range(self, x, E, L, sigma, p, want):
        # k = E/sigma overflows where the tail weight k e^(-eps) does not:
        # the tail weight read inf (den = inf) and inf * 0 (den = NaN), and
        # both sets were refused, where each answer is a double
        params = MechanismParams(E=E, L=L, sigma=sigma, p=p)
        mean, bound = moments_lap(x, params)
        got = (mean, bound, moments_lap_exact(x, params)[1])
        assert got == pytest.approx(lap_moments_decimal(x, E, L, sigma), rel=1e-12, abs=0)
        assert got == pytest.approx(want, rel=1e-2)

    @pytest.mark.parametrize("L", [700.0, 708.0, 720.0, 740.0, 745.0])
    def test_moments_where_e_to_the_minus_eps_is_subnormal(self, L):
        # from eps = 708.4 e^(-eps) keeps fewer digits: E e^(-eps) / sigma
        # read the exact MSE 2.9e-12 off at eps = 720 and 0.26% at 740
        params = MechanismParams(E=1e150, L=L, sigma=1.0, p=0)
        got = (*moments_lap(1.0, params), moments_lap_exact(1.0, params)[1])
        assert got == pytest.approx(lap_moments_decimal(1.0, 1e150, L, 1.0, prec=120),
                                    rel=1e-12, abs=0)


def lap_moments_scipy(x, E, L, sigma):
    """(mean, MSE bound, exact MSE) of the continuous mechanism: the closed
    forms with scipy's `gammainc` for P(2, eps) and P(3, eps)."""
    eps = L / sigma
    e, c = math.exp(-eps), -math.expm1(-eps)
    ke = E * e / sigma
    den = c + ke
    w = ke / den
    tails = w * x * (x + x / E * L)
    m = sigma * (2.0 * float(gammainc(3, eps)) / c) * sigma
    return (x * float(gammainc(2, eps)) / den, 2.0 * sigma * (sigma / den) + tails,
            c / den * m + w * L * (L + E) + w * E * E / 3.0 + tails)


# eps = L/sigma from 2^-40 to 10^6, dense at the switches: the two-term
# series below 2^-30, P's series below a + 1 (3 for P(2), 4 for P(3)) and
# 1 - Q from there, the tail weight in log space from 708, and e^(-eps)
# subnormal from 708.4 and 0 from 745.2
SWITCHES = (2.0**-30, 3.0, 4.0, 708.0, 708.4, 745.1)
EPS_LATTICE = sorted({*np.geomspace(2.0**-40, 1e6, 400).tolist(),
                      *(t * (1 + d) for t in SWITCHES for d in (-1e-9, -2.0**-52, 0, 2.0**-52, 1e-9))})


class TestRegularizedGamma:
    """`regularized_gamma` against scipy, kept as a test oracle: the
    chi-square p-value Q(k/2, x/2) and P(2|3, eps) of the continuous
    moments, within 1e-12 relative wherever scipy reads above 1e-300.  k
    stops at 800: against 40-digit mpmath, scipy's own error read up to 5e-13
    near k = 800 and 1.1e-12 at k = 1552, this function's 1.1e-13."""

    @pytest.mark.parametrize("k", [*range(1, 801, 7), 799, 800])
    def test_chi_square_tails_match_scipy(self, k):
        # x from 10^-3 k (P tiny, the series) to past the point where the
        # survival function falls below 1e-300 (Q tiny, the finite sum)
        xs = np.concatenate([k * np.geomspace(1e-3, 1, 12), k * np.linspace(1, 4, 12)[1:],
                             4 * k + np.geomspace(1, 4000, 24)])
        for x, sf, cdf in zip(xs, chi2.sf(xs, k), chi2.cdf(xs, k)):
            P, Q = regularized_gamma(k / 2, float(x) / 2)
            for got, want in ((Q, sf), (P, cdf)):
                if want > 1e-300:
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (k, x)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 800), st.floats(1e-3, 40.0))
    def test_chi_square_p_values_match_scipy(self, k, t):
        x = k * t
        for got, want in zip(regularized_gamma(k / 2, x / 2), (chi2.cdf(x, k), chi2.sf(x, k))):
            if want > 1e-300:
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_moments_orders_match_scipy(self, n):
        for eps in EPS_LATTICE:
            P, Q = regularized_gamma(n, eps)
            assert P == pytest.approx(gammainc(n, eps), rel=1e-12, abs=0), eps
            assert P + Q == pytest.approx(1.0, abs=2**-52)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_moments_lap_match_scipy(self, x):
        # E = 1, L = 1, sigma = 1 / eps: the two-term series below 2^-30
        # is held to gammainc as well
        for eps in EPS_LATTICE:
            params = MechanismParams(E=1.0, L=1.0, sigma=1.0 / eps, p=0)
            got = (*moments_lap(x, params), moments_lap_exact(x, params)[1])
            want = lap_moments_scipy(x, 1.0, 1.0, 1.0 / eps)
            assert got == pytest.approx(want, rel=1e-12, abs=0), eps

    @settings(max_examples=200, deadline=None)
    @given(st.floats(2.0**-40, 1e6), st.sampled_from([0.25, 1.0, 4.0]),
           st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0))
    def test_moments_lap_match_scipy_at_any_eps(self, eps, E, t):
        # x away from the subnormals, where the mean keeps fewer digits
        sigma = 1.0 / eps
        params = MechanismParams(E=E, L=1.0, sigma=sigma, p=2)
        x = E * t
        got = (*moments_lap(x, params), moments_lap_exact(x, params)[1])
        assert got == pytest.approx(lap_moments_scipy(x, E, 1.0, sigma), rel=1e-12, abs=0)

    def test_the_edges(self):
        assert regularized_gamma(0.5, 0.0) == (0.0, 1.0)
        assert regularized_gamma(3, math.inf) == (1.0, 0.0)
        assert regularized_gamma(1, 2.0)[1] == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert regularized_gamma(0.5, 2.0)[1] == pytest.approx(math.erfc(math.sqrt(2.0)), rel=1e-15)
        for a, y in ((0, 1.0), (-0.5, 1.0), (1.25, 1.0), (1, -1.0), (1, math.nan)):
            with pytest.raises(ValueError, match="integer or half-integer"):
                regularized_gamma(a, y)


class TestMomentsTdl:
    # the twelve reference cells: sigma=8, E=64, L=32
    TABLE = {
        (0, 0.0): (0.00, 670.66),
        (0, -32.0): (-25.75, 870.75),
        (0, 64.0): (51.49, 1471.04),
        (2, 0.0): (0.00, 664.86),
        (2, -32.0): (-25.76, 864.54),
        (2, 64.0): (51.52, 1463.58),
    }

    def test_reference_table(self):
        for (p, x), (mean_ref, mse_ref) in self.TABLE.items():
            params = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=p)
            mean, mse = moments_tdl(x, params)
            assert mean == pytest.approx(mean_ref, abs=0.01)
            assert mse == pytest.approx(mse_ref, abs=0.01)

    def test_matches_pmf_oracle(self):
        for E, L, s, p in [(4, 2, 1, 0), (4, 2, 1, 1), (64, 32, 8, 2), (2, 1, 0.5, 0)]:
            params = MechanismParams(E=float(E), L=float(L), sigma=float(s), p=p)
            ys = closed_grid(L + E, p)
            for x in (-E / 2, 0.0, float(E)):
                m = tdl_masses_oracle(x, E, L, s, p)
                omean = float(np.dot(ys, m))
                omse = float(np.dot((ys - x) ** 2, m))
                mean, mse = moments_tdl(x, params)
                assert mean == pytest.approx(omean, abs=MOMENT_TOL * max(1, abs(omean)))
                assert mse == pytest.approx(omse, rel=MOMENT_TOL)

    def test_scale_quadratic_in_sigma(self):
        # with sigma = L/eps and L = E, the mse tracks sigma^2
        ratios = []
        for sigma in (4.0, 8.0, 16.0, 32.0):
            L = E = sigma  # eps = 1
            params = MechanismParams(E=E, L=L, sigma=sigma, p=0)
            _, mse = moments_tdl(E, params)
            ratios.append(mse / sigma**2)
        assert max(ratios) / min(ratios) < 1.5


class TestMomentsTcl:
    def test_zero_center_half_cell_offset(self):
        for p in (0, 1, 3):
            params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=p)
            mean, _ = moments_tcl(0.0, params)
            assert mean == pytest.approx(-(2.0**-p) / 2, abs=1e-15)

    def test_matches_pmf_oracle(self, small_params):
        m = tcl_masses_oracle(1.0, 4, 2, 1, 0)
        ys = closed_grid(6, 0)[:-1]
        omean = float(np.dot(ys, m))
        omse = float(np.dot((ys - 1.0) ** 2, m))
        mean, mse = moments_tcl(1.0, small_params)
        assert mean == pytest.approx(omean, rel=MOMENT_TOL)
        assert mse == pytest.approx(omse, rel=MOMENT_TOL)

    def test_oracle_sweep(self):
        for E, L, s, p in [(4, 2, 1, 1), (64, 32, 8, 2), (2, 1, 0.5, 0), (4, 2, 8, 2)]:
            params = MechanismParams(E=float(E), L=float(L), sigma=float(s), p=p)
            ys = closed_grid(L + E, p)[:-1]
            for x in (0.0, -E / 2, float(E)):
                f = pmf_tcl(x, params)
                omean, omse = f.mean(), f.mse()
                mean, mse = moments_tcl(x, params)
                assert mean == pytest.approx(omean, abs=MOMENT_TOL * max(1, abs(omean)))
                assert mse == pytest.approx(omse, rel=MOMENT_TOL)

    def test_fine_grid_approaches_continuous_mean(self):
        params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=20)
        mean_c, _ = moments_lap(1.0, params)
        mean_d, _ = moments_tcl(1.0, params)
        assert mean_d == pytest.approx(mean_c, abs=1e-4)


class TestSmallSigma:
    """sigma = 2^-p/t on both sides of t = 709.78, where e^(2^-p/sigma)
    overflows a double, and at t = 300, where its cube would: TDL is a
    point mass at x, TCL halves its mass between x - 2^-p and x, and
    nothing raises."""

    RATIOS = (300.0, 709.0, 710.5, 5000.0)

    @staticmethod
    def params(p, t):
        return MechanismParams(E=4.0, L=2.0, sigma=2.0**-p / t, p=p)

    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("t", RATIOS)
    def test_pmf_and_moments(self, p, t):
        params, h = self.params(p, t), 2.0**-p
        for x in (-4.0, 1.0):
            tdl = pmf_tdl(x, params)
            assert mass_at(tdl, x) == 1.0 and tdl.total() == 1.0
            assert moments_tdl(x, params) == pytest.approx(
                (tdl.mean(), tdl.mse()), rel=MOMENT_TOL, abs=1e-300
            )
            assert moments_tdl(x, params)[0] == x
            tcl = pmf_tcl(x, params)
            below, at = mass_at(tcl, x - h), mass_at(tcl, x)
            assert below == at == pytest.approx(0.5, rel=1e-12)
            assert moments_tcl(x, params) == pytest.approx((tcl.mean(), tcl.mse()), rel=MOMENT_TOL)
            assert moments_tcl(x, params) == pytest.approx((x - h / 2, h * h / 2), rel=1e-12)

    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("t", RATIOS)
    def test_sample(self, p, t):
        params, h = self.params(p, t), 2.0**-p
        for x in (-4.0, 1.0):
            assert set(sample_batch(TDL, x, params, 200, 5).tolist()) == {x}
            assert set(sample_batch(TCL, x, params, 200, 5).tolist()) <= {x - h, x}

    @pytest.mark.parametrize("p", [0, 2])
    def test_normalisers_unchanged_below_the_overflow(self, p):
        # the branch and zero thresholds of every seeded draw come from these
        E, L, h = 4.0, 2.0, 2.0**-p
        for t in (0.01, 1.0, 300.0, 709.0):
            s = h / t
            flank = 2.0 * (-math.expm1(-L / s)) / math.expm1(h / s)
            assert lambda_dlap(E, L, s, p) == 2.0 ** (p + 1) * E * math.exp(-L / s) + 1.0 + flank
            assert centered_dlap_pmf(L, s, p).masses[steps_of(L, p)] == 1.0 / (1.0 + flank)

    def test_privacy_ratio_past_the_double_range_is_refused(self):
        # e^eps past the double range read inf, which `trunclap moments`
        # printed as the non-JSON token Infinity; eps = L/sigma = 2t here
        for mech in ("lap", "tdl", "tcl"):
            assert max_privacy_ratio(mech, self.params(0, 354.5)) < math.inf
        for mech in ("lap", "tdl"):
            for t in (355.0, 710.5):
                with pytest.raises(ValueError, match=r"eps = L/sigma <= ln\(DBL_MAX\) = 709.78"):
                    max_privacy_ratio(mech, self.params(0, t))
        # TCL's ratio e^eps (1 - e^-a) / a, a = t, is finite at eps = 710
        # (e^710 / 355), and past a double at eps = 1421
        assert max_privacy_ratio("tcl", self.params(0, 355.0)) == pytest.approx(
            math.exp(710.0 - math.log(355.0)), rel=1e-12)
        with pytest.raises(ValueError, match="ratio .* of tcl is past a double at eps = L/sigma = 1421"):
            max_privacy_ratio("tcl", self.params(0, 710.5))

    def test_tcl_privacy_ratio_where_only_e_eps_overflows(self):
        # E = L = 2, sigma = 2/710: e^710 is past a double, the ratio
        # e^710 (1 - e^-355) / 355 about 6.29e305 is not.  It equals a
        # 60-digit evaluation and the worst mass ratio of pmf_tcl there
        params = MechanismParams(E=2.0, L=2.0, sigma=2 / 710, p=0)
        ratio = max_privacy_ratio("tcl", params)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            eps, a = Decimal(2) / Decimal(params.sigma), 1 / Decimal(params.sigma)
            exact = eps.exp() * (1 - (-a).exp()) / a
        assert abs(Decimal(ratio) - exact) <= Decimal("1e-12") * exact
        lo, hi = pmf_tcl(-2.0, params).masses, pmf_tcl(2.0, params).masses
        assert float(np.max(lo / hi)) == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("p", [1074, 1062])
    def test_tcl_privacy_ratio_where_sigma_and_the_step_are_subnormal(self, p):
        # E = L = sigma = 2^-p, so a = eps = 1 and the ratio is e - 1; the
        # product e^eps * sigma * (1 - e^-a) / 2^-p passed through a
        # subnormal and read 2.0 at p = 1074
        params = MechanismParams(E=2.0**-p, L=2.0**-p, sigma=2.0**-p, p=p)
        assert max_privacy_ratio("tcl", params) == pytest.approx(math.e - 1, rel=1e-15)


class TestCalibration:
    def test_eps_dp(self):
        assert calibrate(4.0, "tdl", "eps", L=32.0).sigma == 8.0
        res = calibrate(1.3, "tdl", "eps", L=64.0)
        assert 49.2 <= res.sigma <= 49.3
        assert res.regime == "eps-tdl"

    def test_dchi(self):
        assert calibrate(2.0, "tdl", "dchi").sigma == 0.5
        assert calibrate(1.0, "tcl", "dchi", p=2).sigma == 2.0
        assert calibrate(32.0, "tcl", "dchi", p=2).sigma == 0.25  # grid-step floor

    def test_errors(self):
        with pytest.raises(ValueError):
            calibrate(-1.0, "tdl", "eps", L=1.0)
        with pytest.raises(ValueError):
            calibrate(1.0, "tdl", "eps")  # missing L
        with pytest.raises(ValueError):
            calibrate(1.0, "lap", "dchi")

    @pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
    def test_eps_needs_a_positive_finite_L(self, L):
        # a NaN or infinite L used to return that sigma
        for mech in ("lap", "tdl", "tcl"):
            with pytest.raises(ValueError, match="L must be positive and finite"):
                calibrate(1.0, mech, "eps", L=L)

    @pytest.mark.parametrize("args, kw", [
        ((1.0, "tcl", "dchi"), {"p": -3}),  # used to return sigma = 8
        ((1.0, "tdl", "dchi"), {"p": -1}),
        ((1.0, "tdl", "eps"), {"L": 2.0, "p": -1}),
    ], ids=["dchi-tcl", "dchi-tdl", "eps"])
    def test_a_negative_p_is_refused(self, args, kw):
        with pytest.raises(GridError, match="p must be >= 0"):
            calibrate(*args, **kw)

    @pytest.mark.parametrize("args, kw", [
        ((1e-300, "tdl", "eps"), {"L": 1e300}),  # L / epsilon = 1e600
        ((2.0**-1074, "tcl", "dchi"), {"p": 0}),  # 2 / epsilon
        ((1e300, "lap", "eps"), {"L": 1e-300}),  # 1e-600
    ], ids=["eps", "dchi", "underflow"])
    def test_a_sigma_past_the_double_range_is_refused(self, args, kw):
        # an infinite sigma was returned, and `trunclap calibrate` printed
        # the non-JSON token Infinity
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            calibrate(*args, **kw)

    @pytest.mark.parametrize("args, kw, match", [
        ((1.0, "foo"), {"L": 1.0}, "unknown mechanism"),
        ((1.0, "tdl", "renyi"), {"L": 1.0}, "unknown privacy notion"),
        ((1.0, "tcl", "dchi"), {}, "needs the precision p"),
    ], ids=["mechanism", "notion", "dchi-tcl-without-p"])
    def test_refusals(self, args, kw, match):
        with pytest.raises(ValueError, match=match):
            calibrate(*args, **kw)

    def test_find_kstar_closed_form(self):
        # at eps=1 the cubic root is 16^(1/3) - 1
        root = 16 ** (1 / 3) - 1
        ks = find_kstar(1.0)
        assert ks == pytest.approx(root, abs=1e-5)
        assert kstar_polynomial(ks, 1.0) < 0

    def test_kstar_polynomial_endpoints(self):
        for eps in (0.1, 0.7, 1.0, 3.0, 10.0):
            assert kstar_polynomial(1.0, eps) == pytest.approx(-eps - 5 / 3, rel=1e-12)
            assert kstar_polynomial(2.0, eps) == pytest.approx(
                eps * eps + 2 * eps + 2 / 3, rel=1e-12
            )
            ks = find_kstar(eps)
            assert 1.0 < ks < 2.0
            assert kstar_polynomial(ks, eps) < 0

    @pytest.mark.parametrize("eps", [1e6, 1e9, 1e12, 1e200])
    def test_find_kstar_keeps_the_margin_negative_at_large_epsilon(self, eps):
        # f evaluated exactly: the 1 + 1e-6 floor lies past the root from
        # eps = 1e6 (f(1 + 1e-6) = 0.33 there), and past eps = 1.3e154 f is
        # NaN in floats; k* never passes the bisection's lower end
        def f(k):
            k, e = Fraction(k), Fraction(eps)
            return k**3 / 3 + e * k * k + e * e * k - (e * e + 2 * e + 2)

        ks = find_kstar(eps)
        assert 1.0 <= ks < 2.0 and f(ks) < 0
        assert f(1.0 + 1e-6) > 0

    def test_kstar_calibration_result(self):
        res = kstar_calibration(1.0, 64.0)
        assert res.kstar is not None
        assert res.sigma == pytest.approx(64.0 / res.kstar)


class TestPrivacyRatios:
    def test_unknown_name_is_refused(self, small_params):
        with pytest.raises(ValueError, match="unknown mechanism"):
            max_privacy_ratio("gauss", small_params)
        with pytest.raises(ValueError, match="unknown discrete mechanism"):
            small_params.output_grid("lap")

    def test_tdl_closed_form(self, table_params_p0):
        assert max_privacy_ratio("tdl", table_params_p0) == pytest.approx(
            math.exp(4.0), rel=1e-12
        )

    def test_tdl_exhaustive_scan(self, small_params):
        params = small_params
        xs = GridSpec(p=params.p, B=params.E).values()
        pmfs = {float(x): pmf_tdl(float(x), params).masses for x in xs}
        best = max(
            float(np.max(pmfs[float(a)] / pmfs[float(b)])) for a in xs for b in xs
        )
        assert best == pytest.approx(math.exp(2.0), abs=1e-10)
        assert best == pytest.approx(max_privacy_ratio("tdl", params), abs=1e-10)

    def test_tcl_exhaustive_scan(self, small_params):
        params = small_params
        xs = GridSpec(p=params.p, B=params.E).values()
        pmfs = {float(x): pmf_tcl(float(x), params).masses for x in xs}
        best = max(
            float(np.max(pmfs[float(a)] / pmfs[float(b)])) for a in xs for b in xs
        )
        assert best <= math.exp(2.0) + 1e-10
        assert best == pytest.approx(max_privacy_ratio("tcl", params), abs=1e-10)

    def test_eps_dp_certificate_with_calibration(self):
        for p in (0, 1):
            for eps in (1.0, 2.0):
                params = MechanismParams(E=4.0, L=2.0, sigma=2.0 / eps, p=p)
                xs = GridSpec(p=params.p, B=params.E).values()
                pd = {float(x): pmf_tdl(float(x), params).masses for x in xs}
                pc = {float(x): pmf_tcl(float(x), params).masses for x in xs}
                bd = max(float(np.max(pd[float(a)] / pd[float(b)])) for a in xs for b in xs)
                bc = max(float(np.max(pc[float(a)] / pc[float(b)])) for a in xs for b in xs)
                assert bd == pytest.approx(math.exp(eps), abs=1e-10)
                assert bc <= math.exp(eps) + 1e-10

    def test_dchi_certificates(self):
        for mech in ("tdl", "tcl"):
            for eps in (0.5, 2.0):
                for p in (0, 1):
                    sigma = calibrate(eps, mech, "dchi", p=p).sigma
                    params = MechanismParams(E=4.0, L=2.0, sigma=sigma, p=p)
                    xs = GridSpec(p=params.p, B=params.E).values()
                    fn = pmf_tdl if mech == "tdl" else pmf_tcl
                    pmfs = {float(x): fn(float(x), params).masses for x in xs}
                    for a in xs:
                        for b in xs:
                            bound = math.exp(eps * abs(a - b))
                            assert np.all(
                                pmfs[float(a)] <= bound * pmfs[float(b)] + 1e-12
                            )


class TestProperties:
    """Invariants over randomly drawn, grid-aligned parameter tuples."""

    aligned = st.tuples(
        st.integers(1, 24),   # E in steps of 2^-p
        st.integers(1, 24),   # L in steps
        st.floats(0.3, 20.0),
        st.integers(0, 3),
    )

    @given(aligned, st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_pmf_normalization_and_ratio_bound(self, tup, salt):
        es, ls, sigma, p = tup
        h = 2.0**-p
        params = MechanismParams(E=es * h, L=ls * h, sigma=sigma, p=p)
        grid = GridSpec(p=params.p, B=params.E).values()
        x = float(grid[salt % len(grid)])
        fd = pmf_tdl(x, params)
        fc = pmf_tcl(x, params)
        assert fd.total() == pytest.approx(1.0, abs=NORM_TOL)
        assert fc.total() == pytest.approx(1.0, abs=NORM_TOL)
        bound = math.exp(params.L / params.sigma)
        assert float(np.max(fd.masses) / np.min(fd.masses)) <= bound * (1 + 1e-12)
        assert float(np.max(fc.masses) / np.min(fc.masses)) <= bound * (1 + 1e-12)

    @given(aligned)
    @settings(max_examples=60, deadline=None)
    def test_moment_formulas_track_oracle(self, tup):
        es, ls, sigma, p = tup
        h = 2.0**-p
        params = MechanismParams(E=es * h, L=ls * h, sigma=sigma, p=p)
        x = params.E
        fd = pmf_tdl(x, params)
        mean, mse = moments_tdl(x, params)
        assert mean == pytest.approx(fd.mean(), abs=MOMENT_TOL * max(1, abs(fd.mean())))
        assert mse == pytest.approx(fd.mse(), rel=MOMENT_TOL)
        fc = pmf_tcl(x, params)
        mean, mse = moments_tcl(x, params)
        assert mean == pytest.approx(fc.mean(), abs=MOMENT_TOL * max(1, abs(fc.mean())))
        assert mse == pytest.approx(fc.mse(), rel=MOMENT_TOL)


class TestMechanismRecord:
    def test_records_hold_each_mechanisms_functions(self):
        assert (TDL.pmf, TDL.moments) == (pmf_tdl, moments_tdl)
        assert (TCL.pmf, TCL.moments) == (pmf_tcl, moments_tcl)
        P = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
        assert (TDL.branch_probability(P), TCL.branch_probability(P)) == (
            branch_probability_formulas(P))
        # TDL's upper tail starts one step past x+L, TCL's at x+L
        assert (TDL.high_offset, TCL.high_offset) == (1, 0)
        assert (TDL.cumulative, TCL.cumulative) == (False, True)

    def test_lookup_by_name(self):
        assert lookup_mechanism("tdl") is TDL and lookup_mechanism("tcl") is TCL
        for bad in ("lap", "TDL", ""):
            with pytest.raises(ValueError, match="unknown mechanism"):
                lookup_mechanism(bad)


class TestParamsHash:
    def test_hash_agrees_with_equality(self):
        P = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)
        assert hash(P) == hash((4.0, 2.0, 1.0, 0))
        assert P == MechanismParams(4, 2, 1, 0) and hash(P) == hash(MechanismParams(4, 2, 1, 0))
        assert {P: 1}[MechanismParams(4, 2, 1, 0)] == 1

    def test_replace_and_as_dict_unchanged(self):
        P = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)
        Q = dataclasses.replace(P, sigma=2.0)
        assert Q != P and hash(Q) == hash((4.0, 2.0, 2.0, 0))
        assert Q.as_dict() == {"E": 4.0, "L": 2.0, "sigma": 2.0, "p": 0}
        assert [f.name for f in dataclasses.fields(Q)] == ["E", "L", "sigma", "p"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            Q.sigma = 3.0


class TestPrecisionPastTheDoubleRange:
    """A precision exponent whose grid or normaliser leaves the double
    range is a usage error through `cli.main`, with no traceback; short of
    it the moments have a value, the continuous mechanism's."""

    SET = ["--E", "4", "--L", "2", "--sigma", "1"]

    @pytest.mark.parametrize("p", ["1023", "1024", "2000"])
    @pytest.mark.parametrize("command", [["moments"], ["pmf"], ["sample", "--n", "3"],
                                         ["mpc", "--n", "3"]])
    def test_a_grid_past_the_double_range(self, command, p, capsys):
        # 4 * 2^p overflows from p = 1023: it raised OverflowError from p =
        # 1024, and at 1023 called E = 4.0 off the grid
        assert cli.main([*command, *self.SET, "--p", p]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and f"at p = {p}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mech", ["tdl", "tcl"])
    def test_moments_past_the_double_range(self, mech, capsys):
        # p = 1000 was refused (TDL's closed form overflowed from p = 511,
        # TCL's underflowed to a zero divisor from p = 538); the law has
        # moments there, the continuous mechanism's to a double
        assert cli.main(["moments", *self.SET, "--p", "1000", "--mechanism", mech]) == 0
        out = json.loads(capsys.readouterr().out)
        mean, mse = moments_lap_exact(0.0, MechanismParams(E=4.0, L=2.0, sigma=1.0, p=1000))
        assert out["mean"] == pytest.approx(mean, abs=2.0**-1000)
        assert out["mse"] == pytest.approx(mse, rel=1e-12)

    @pytest.mark.parametrize("mech, mean", [("tdl", 0.0), ("tcl", -3.111507638930571e-61)])
    def test_moments_at_p_200_are_unchanged(self, mech, mean, capsys):
        # re-pinned when one derivation replaced both closed forms: the mse
        # moved one ulp, from 7.133607213731666
        assert cli.main(["moments", *self.SET, "--p", "200", "--mechanism", mech]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["mean"], out["mse"]) == (mean, 7.133607213731665)

    @pytest.mark.parametrize("p, tdl, tcl", [(510, True, True), (511, True, True),
                                             (537, True, True), (538, True, True),
                                             (1020, True, True), (1021, False, True)])
    def test_the_first_p_each_closed_form_refuses(self, p, tdl, tcl):
        # on this set TDL's moments were refused from p = 511 and TCL's from
        # p = 538; now only where lambda_dlap is, from 2^(p+1) E = 2^1024
        # at p = 1021, and TCL's never where the grid is admitted
        params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=p)
        for moments, finite in ((moments_tdl, tdl), (moments_tcl, tcl)):
            if finite:
                assert all(map(math.isfinite, moments(4.0, params)))
            else:
                with pytest.raises(ValueError, match=f"at p = {p} leaves the double range"):
                    moments(4.0, params)

    # E + L < 2 admits p = 1023, where lambda_dlap's 2.0 ** 1024 raised
    # OverflowError through the TDL commands
    SET_1023 = ["--L", "0.5", "--sigma", "1", "--p", "1023"]

    @pytest.mark.parametrize("command", ["moments", "pmf"])
    def test_a_normalizer_past_the_double_range(self, command, capsys):
        # 2^1024 E leaves the double range at E = 1
        assert cli.main([command, "--E", "1", *self.SET_1023]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: the normaliser at p = 1023 leaves the double range")
        assert "Traceback" not in err

    def test_a_step_that_underflows_against_sigma(self, capsys):
        # 2^-1023 / 1e16 underflows to 0, so the normaliser's e^(2^-p/sigma)
        # - 1 is 0: this raised ZeroDivisionError through the CLI
        argv = ["moments", "--E", "0.5", "--L", "0.5", "--sigma", "1e16", "--p", "1023"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: the normaliser at p = 1023, sigma = 1e+16 leaves")
        assert "Traceback" not in err

    @pytest.mark.parametrize("p", ["1023", "1000"])
    def test_tcl_ratio_where_the_step_is_subnormal_against_sigma(self, p, capsys):
        # a = 2^-p / 1e16 is 0 at p = 1023 and subnormal at p = 1000: the
        # ratio read 0.0 and 1.0000002153857306 (above e^eps = 1.0 here);
        # sigma (1 - e^-a) / 2^-p is -expm1(-a)/a, whose limit is 1
        argv = ["moments", "--mechanism", "tcl", "--E", "0.5", "--L", "0.5",
                "--sigma", "1e16", "--p", p]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["max_privacy_ratio"] == 1.0

    @pytest.mark.parametrize("E", ["0.5", "1"])
    @pytest.mark.parametrize("mech", ["tdl", "tcl"])
    def test_the_largest_p_of_a_small_set(self, mech, E, capsys):
        # where lambda is finite the moments are the continuous limit's; a
        # pmf of 2^1024 points is refused as an allocation
        argv = ["--E", E, *self.SET_1023, "--mechanism", mech]
        if mech == "tdl" and E == "1":
            assert cli.main(["moments", *argv]) == 1
        else:
            assert cli.main(["moments", *argv]) == 0
            out = json.loads(capsys.readouterr().out)
            params = MechanismParams(E=float(E), L=0.5, sigma=1.0, p=1023)
            mean, mse = moments_lap_exact(0.0, params)
            assert out["mean"] == pytest.approx(mean, abs=2.0**-1000)
            assert out["mse"] == pytest.approx(mse, rel=1e-12)
        assert cli.main(["pmf", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err
