import math

import numpy as np
import pytest

from trunclap import (
    GridSpec,
    Histogram,
    MechanismParams,
    empirical_moments,
    empirical_privacy_ratio,
    fit_report,
    moments_tdl,
    pmf_tdl,
    sample_tdl_batch,
    table1_report,
    tv_distance,
)
from trunclap.mechanisms import ExactPmf
from trunclap.validation import chi_square, overlay_data


def exact_histogram(pmf, n=10**15):
    """Counts proportional to the masses; rounding error ~1e-15 relative."""
    return Histogram(pmf.spec, np.round(pmf.masses * n).astype(np.int64))


class TestTvDistance:
    def test_self_sampled(self, small_params):
        vals = sample_tdl_batch(0.0, small_params, 1_000_000, 7)
        h = Histogram.from_samples(vals, small_params.output_grid("tdl"))
        assert tv_distance(h, pmf_tdl(0.0, small_params)) < 0.003

    def test_exact_masses_give_zero(self, small_params):
        f = pmf_tdl(1.0, small_params)
        assert tv_distance(exact_histogram(f), f) < 1e-12

    def test_disjoint_supports(self):
        spec = GridSpec(p=0, B=2.0)
        masses = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        f = ExactPmf(spec=spec, masses=masses, lam=1.0, center=0.0)
        h = Histogram(spec, np.array([0, 0, 0, 40, 60]))
        assert tv_distance(h, f) == pytest.approx(1.0)

    def test_support_mismatch_raises(self, small_params):
        f = pmf_tdl(0.0, small_params)
        h = Histogram(GridSpec(p=0, B=2.0), np.ones(5, dtype=int))
        with pytest.raises(ValueError):
            tv_distance(h, f)


class TestPrivacyRatio:
    def test_identity(self, small_params):
        f = pmf_tdl(0.0, small_params)
        h = exact_histogram(f)
        assert empirical_privacy_ratio(h, h, min_count=1) == pytest.approx(1.0)

    def test_exact_pmf_ratio(self, small_params):
        h1 = exact_histogram(pmf_tdl(4.0, small_params))
        h2 = exact_histogram(pmf_tdl(-4.0, small_params))
        ratio = empirical_privacy_ratio(h1, h2, min_count=1)
        assert ratio == pytest.approx(math.exp(2.0), rel=1e-9)

    def test_sampled_ratio_within_tolerance(self, small_params):
        eps = small_params.epsilon
        spec = small_params.output_grid("tdl")
        h1 = Histogram.from_samples(sample_tdl_batch(4.0, small_params, 1_000_000, 31), spec)
        h2 = Histogram.from_samples(sample_tdl_batch(-4.0, small_params, 1_000_000, 37), spec)
        assert empirical_privacy_ratio(h1, h2) <= math.exp(eps) * 1.05

    def test_no_qualifying_bins(self, small_params):
        spec = small_params.output_grid("tdl")
        h = Histogram(spec, np.ones(spec.count, dtype=int))
        with pytest.raises(ValueError):
            empirical_privacy_ratio(h, h, min_count=10)


class TestEmpiricalMoments:
    def test_exact_weighted_moments_match_formula(self, table_params_p0):
        for x in (0.0, -32.0, 64.0):
            h = exact_histogram(pmf_tdl(x, table_params_p0))
            mean, mse = empirical_moments(h, x)
            fmean, fmse = moments_tdl(x, table_params_p0)
            assert mean == pytest.approx(fmean, abs=1e-9)
            assert mse == pytest.approx(fmse, rel=1e-9)

    def test_sampled_reference_cell(self, table_params_p0):
        vals = sample_tdl_batch(0.0, table_params_p0, 500_000, 11)
        h = Histogram.from_samples(vals, table_params_p0.output_grid("tdl"))
        mean, mse = empirical_moments(h, 0.0)
        assert abs(mean - 0.0) < 0.5
        assert abs(mse - 670.66) < 0.02 * 670.66

    def test_sampled_p2_cell(self, table_params_p2):
        vals = sample_tdl_batch(-32.0, table_params_p2, 500_000, 12)
        h = Histogram.from_samples(vals, table_params_p2.output_grid("tdl"))
        mean, mse = empirical_moments(h, -32.0)
        assert abs(mean - (-25.76)) < 0.5
        assert abs(mse - 864.54) < 0.02 * 864.54


class TestChiSquareAndReports:
    def test_chi_square_self_sampled_sane(self, small_params):
        vals = sample_tdl_batch(1.0, small_params, 200_000, 13)
        h = Histogram.from_samples(vals, small_params.output_grid("tdl"))
        stat, p = chi_square(h, pmf_tdl(1.0, small_params))
        assert p > 1e-4

    def test_small_bins_merged(self):
        # a pmf with tiny tail masses still yields a valid test
        params = MechanismParams(E=64.0, L=32.0, sigma=2.0, p=0)
        vals = sample_tdl_batch(0.0, params, 50_000, 14)
        h = Histogram.from_samples(vals, params.output_grid("tdl"))
        stat, p = chi_square(h, pmf_tdl(0.0, params))
        assert np.isfinite(stat) and 0.0 <= p <= 1.0

    def test_fit_report_fields(self, small_params):
        vals = sample_tdl_batch(0.0, small_params, 100_000, 15)
        h = Histogram.from_samples(vals, small_params.output_grid("tdl"))
        rep = fit_report(h, pmf_tdl(0.0, small_params))
        assert 0.0 <= rep.tv <= 1.0
        assert rep.n == 100_000
        assert rep.max_rel_dev < 0.1

    def test_flakiness_budget(self, small_params):
        # self-sampled fits across 100 seeds; the 1e6-draw TV budget is
        # rescaled to n=1e5 by the binomial sqrt(10) factor
        bound = 0.003 * math.sqrt(10)
        f = pmf_tdl(1.0, small_params)
        spec = small_params.output_grid("tdl")
        fails = 0
        for seed in range(100):
            vals = sample_tdl_batch(1.0, small_params, 100_000, 900 + seed)
            h = Histogram.from_samples(vals, spec)
            if tv_distance(h, f) >= bound:
                fails += 1
        assert fails <= 1

    def test_table1_report_structure(self, table_params_p0):
        rep = table1_report(table_params_p0, (0.0, -32.0, 64.0), 20_000, seed=3)
        assert len(rep["rows"]) == 3
        for row in rep["rows"]:
            assert abs(row["mean_empirical"] - row["mean_theory"]) < 2.0
            assert row["n"] == 20_000

    def test_overlay_rows(self, small_params):
        f = pmf_tdl(0.0, small_params)
        h = exact_histogram(f)
        rows = overlay_data(f, h)
        assert len(rows) == 13
        assert rows[0]["y"] == -6.0
        for r in rows:
            assert r["empirical"] == pytest.approx(r["theoretical"], abs=1e-9)


class TestHistogram:
    def test_from_samples_counts(self):
        spec = GridSpec(p=1, B=1.0)
        h = Histogram.from_samples(np.array([-1.0, -0.5, -0.5, 1.0]), spec)
        assert h.counts.tolist() == [1, 2, 0, 0, 1]
        assert h.n == 4

    def test_rejects_off_grid(self):
        # outside the grid, between its points, and NaN
        spec = GridSpec(p=0, B=2.0)
        for values in ([3.0], [0.3, 1.4, -0.49, 2.0], [0.0, np.nan]):
            with pytest.raises(ValueError, match="off or outside"):
                Histogram.from_samples(np.array(values), spec)

    def test_length_check(self):
        with pytest.raises(ValueError):
            Histogram(GridSpec(p=0, B=2.0), np.zeros(3, dtype=int))
