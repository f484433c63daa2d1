import dataclasses
import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closed_grid,
    kernel_pmf_oracle,
    lap_lambda_oracle,
    lap_moments_oracle,
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
    _lambda_centered_dlap,
    _mechanism_law,
    branch_probability_c,
    branch_probability_d,
    dlap_zero_mass,
    kstar_polynomial,
    lookup_mechanism,
)
from trunclap import cli
from trunclap.grids import GridError, GridSpec
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
            ratio = f.mass_at(1.0) / f.mass_at(y)
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
            assert f.mass_at(x - i * h) == pytest.approx(
                f.mass_at(x + (i - 1) * h), rel=1e-12
            )

    def test_normalization_sweep(self):
        params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=1)
        for x in params.input_grid().values():
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
                for x in params.input_grid().values():
                    f = pmf(float(x), params)
                    assert f.lam == lam
                    oracle = kernel_pmf_oracle(f.spec, float(x), L, s, lam)
                    assert np.array_equal(f.masses, oracle), (E, L, s, p, x, pmf.__name__)

    def test_centered_pmfs_equal_the_float_construction(self):
        for L, s, p in product(KERNEL_LS, KERNEL_SIGMAS, range(4)):
            cases = (
                (centered_dlap_pmf, GridSpec(p=p, B=L), _lambda_centered_dlap(L, s, p)),
                (centered_clap_pmf, GridSpec(p=p, B=L, half_open=True),
                 2.0 * s * (-math.expm1(-L / s))),
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
            assert tdl.mass_at(x) == 1.0 and tdl.total() == 1.0
            assert moments_tdl(x, params) == pytest.approx(
                (tdl.mean(), tdl.mse()), rel=MOMENT_TOL, abs=1e-300
            )
            assert moments_tdl(x, params)[0] == x
            tcl = pmf_tcl(x, params)
            assert tcl.mass_at(x - h) == tcl.mass_at(x) == pytest.approx(0.5, rel=1e-12)
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
            assert dlap_zero_mass(L, s, p) == 1.0 / (1.0 + flank)

    def test_privacy_ratio_past_the_double_range_is_inf(self):
        params = self.params(0, 710.5)
        for mech in ("lap", "tdl", "tcl"):
            assert max_privacy_ratio(mech, params) == math.inf


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
        xs = params.input_grid().values()
        pmfs = {float(x): pmf_tdl(float(x), params).masses for x in xs}
        best = max(
            float(np.max(pmfs[float(a)] / pmfs[float(b)])) for a in xs for b in xs
        )
        assert best == pytest.approx(math.exp(2.0), abs=1e-10)
        assert best == pytest.approx(max_privacy_ratio("tdl", params), abs=1e-10)

    def test_tcl_exhaustive_scan(self, small_params):
        params = small_params
        xs = params.input_grid().values()
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
                xs = params.input_grid().values()
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
                    xs = params.input_grid().values()
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
        grid = params.input_grid().values()
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
        assert (TDL.pmf, TDL.moments, TDL.branch_probability) == (
            pmf_tdl, moments_tdl, branch_probability_d)
        assert (TCL.pmf, TCL.moments, TCL.branch_probability) == (
            pmf_tcl, moments_tcl, branch_probability_c)
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
    """A precision exponent whose grid or closed-form moments leave the
    double range is a usage error through `cli.main`, with no traceback."""

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
        # TDL printed "mse": -Infinity, TCL raised ZeroDivisionError
        assert cli.main(["moments", *self.SET, "--p", "1000", "--mechanism", mech]) == 1
        assert capsys.readouterr().err.startswith(
            "usage error: the closed-form moments at p = 1000 leave the double range")

    @pytest.mark.parametrize("mech, mean", [("tdl", 0.0), ("tcl", -3.111507638930571e-61)])
    def test_moments_at_p_200_are_unchanged(self, mech, mean, capsys):
        assert cli.main(["moments", *self.SET, "--p", "200", "--mechanism", mech]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["mean"], out["mse"]) == (mean, 7.133607213731666)

    @pytest.mark.parametrize("p, tdl, tcl", [(510, True, True), (511, False, True),
                                             (537, False, True), (538, False, False)])
    def test_the_first_p_each_closed_form_refuses(self, p, tdl, tcl):
        # on this set TDL's terms overflow from p = 511, and TCL's u * u
        # underflows to 0 from p = 538
        params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=p)
        for moments, finite in ((moments_tdl, tdl), (moments_tcl, tcl)):
            if finite:
                assert all(map(math.isfinite, moments(4.0, params)))
            else:
                with pytest.raises(ValueError, match="leave the double range"):
                    moments(4.0, params)
