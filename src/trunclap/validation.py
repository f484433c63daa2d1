"""Statistical validation harness: goodness of fit, empirical privacy
ratios, and empirical-vs-analytic moment comparisons.

Chi-square tests merge bins whose expected count falls below 5 into their
neighbors (the usual validity rule) before computing the statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .grids import GridSpec
from .mechanisms import TDL, ExactPmf, MechanismParams, moments_tdl, pmf_tdl
from .sampling import sample_batch
from .thresholds import THRESHOLDS


@dataclass(frozen=True)
class Histogram:
    """Counts over the points of a grid; bins are exactly the grid points."""

    spec: GridSpec
    counts: np.ndarray

    def __post_init__(self):
        if len(self.counts) != self.spec.count:
            raise ValueError("counts length must equal the grid point count")

    @property
    def n(self) -> int:
        return int(np.sum(self.counts))

    @classmethod
    def from_samples(cls, values: np.ndarray, spec: GridSpec) -> "Histogram":
        """Counts per grid point; ValueError for a sample off or outside the grid, or NaN."""
        values = np.asarray(values, dtype=float)
        scaled = (values + spec.B) * 2**spec.p
        idx = np.round(scaled)
        bad = (idx != scaled) | (idx < 0) | (idx >= spec.count)
        if bad.any():
            raise ValueError(f"samples off or outside the grid, e.g. {values[bad][:3]}")
        return cls(spec=spec, counts=np.bincount(idx.astype(np.int64), minlength=spec.count))

    def frequencies(self) -> np.ndarray:
        return self.counts / max(1, self.n)

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "counts": [int(c) for c in self.counts],
            "n": self.n,
        }

    def bin_counts(self) -> list[dict]:
        """{bin, count} rows, one per grid point."""
        return [
            {"bin": float(y), "count": int(c)}
            for y, c in zip(self.spec.values(), self.counts)
        ]


@dataclass(frozen=True)
class FitReport:
    """Goodness-of-fit summary of a histogram against an exact pmf."""

    tv: float
    chi2_stat: float
    chi2_pvalue: float
    max_rel_dev: float
    n: int

    def as_dict(self) -> dict:
        return {
            "tv": self.tv,
            "chi2_stat": self.chi2_stat,
            "chi2_pvalue": self.chi2_pvalue,
            "max_rel_dev": self.max_rel_dev,
            "n": self.n,
        }


def _check_support(h: Histogram, f: ExactPmf) -> None:
    if h.spec != f.spec:
        raise ValueError(f"support mismatch: {h.spec} vs {f.spec}")


def tv_distance(h: Histogram, f: ExactPmf) -> float:
    """Total variation distance (1/2) sum |count/N - mass|."""
    _check_support(h, f)
    return 0.5 * float(np.sum(np.abs(h.frequencies() - f.masses)))


def chi_square(h: Histogram, f: ExactPmf, min_expected: float = 5.0):
    """Chi-square statistic and p-value with small-bin merging.

    Bins are scanned in order and accumulated until the expected count
    reaches `min_expected`; a trailing underfull group is merged into the
    previous one.
    """
    _check_support(h, f)
    n = h.n
    exp_groups, obs_groups = [], []
    acc_e = acc_o = 0.0
    for o, m in zip(h.counts, f.masses):
        acc_e += m * n
        acc_o += o
        if acc_e >= min_expected:
            exp_groups.append(acc_e)
            obs_groups.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e > 0 and exp_groups:
        exp_groups[-1] += acc_e
        obs_groups[-1] += acc_o
    elif acc_e > 0:
        exp_groups.append(acc_e)
        obs_groups.append(acc_o)
    if len(exp_groups) < 2:
        raise ValueError("not enough mass to form two chi-square bins")
    obs = np.array(obs_groups)
    exp = np.array(exp_groups)
    exp *= obs.sum() / exp.sum()   # remove rounding drift in the constraint
    stat, p = stats.chisquare(obs, exp)
    return float(stat), float(p)


def fit_report(h: Histogram, f: ExactPmf) -> FitReport:
    freq = h.frequencies()
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(freq - f.masses) / f.masses
    stat, p = chi_square(h, f)
    return FitReport(
        tv=tv_distance(h, f),
        chi2_stat=stat,
        chi2_pvalue=p,
        max_rel_dev=float(np.nanmax(rel)),
        n=h.n,
    )


def empirical_privacy_ratio(h1: Histogram, h2: Histogram, min_count: int = 100) -> float:
    """Max over qualifying bins of the frequency ratio between two histograms.

    Only bins where both histograms have at least `min_count` observations
    qualify; raises if none do.
    """
    if h1.spec != h2.spec:
        raise ValueError("histograms must share a support")
    mask = (h1.counts >= min_count) & (h2.counts >= min_count)
    if not np.any(mask):
        raise ValueError(f"no bins with at least {min_count} counts on both sides")
    f1 = h1.counts[mask] / h1.n
    f2 = h2.counts[mask] / h2.n
    return float(np.max(f1 / f2))


def empirical_moments(h: Histogram, x: float) -> tuple[float, float]:
    """Sample mean and mean squared error against the reference input x."""
    ys = h.spec.values()
    freq = h.frequencies()
    mean = float(np.dot(ys, freq))
    mse = float(np.dot((ys - x) ** 2, freq))
    return mean, mse


def table1_report(
    params: MechanismParams, xs: tuple[float, ...], n: int, seed: int = 0
) -> dict:
    """Analytic-vs-empirical moment table for the discrete mechanism.

    For each input x the report pairs the closed-form mean/MSE with the
    sample statistics of n fresh perturbations.
    """
    spec = params.output_grid("tdl")
    rows = []
    for j, x in enumerate(xs):
        t_mean, t_mse = moments_tdl(x, params)
        values = sample_batch(TDL, x, params, n, seed + j)
        h = Histogram.from_samples(values, spec)
        e_mean, e_mse = empirical_moments(h, x)
        rows.append(
            {
                "x": x,
                "mean_theory": t_mean,
                "mean_empirical": e_mean,
                "mse_theory": t_mse,
                "mse_empirical": e_mse,
                "n": n,
            }
        )
    return {"params": params.as_dict(), "rows": rows}


@dataclass(frozen=True)
class OverlayCheck:
    """One distribution overlay: a histogram of draws against an exact pmf."""

    pmf: ExactPmf
    hist: Histogram
    tv: float

    @property
    def passed(self) -> bool:
        return self.tv < THRESHOLDS["overlay_tv"]


def overlay_check(x: float, params: MechanismParams, seed: int) -> OverlayCheck:
    """Distribution-overlay check of the TDL sampler at input x.

    Draws THRESHOLDS["overlay_n"] samples with `sample_batch`, bins them
    on the output grid and measures their total variation against
    `pmf_tdl(x)`; the check passes when that TV is below
    THRESHOLDS["overlay_tv"].
    """
    pmf = pmf_tdl(x, params)
    values = sample_batch(TDL, x, params, THRESHOLDS["overlay_n"], seed)
    hist = Histogram.from_samples(values, params.output_grid("tdl"))
    return OverlayCheck(pmf=pmf, hist=hist, tv=tv_distance(hist, pmf))


def overlay_data(pmf: ExactPmf, h: Histogram) -> list[dict]:
    """Per-point theoretical vs empirical masses (distribution overlay)."""
    _check_support(h, pmf)
    freq = h.frequencies()
    return [
        {"y": float(y), "theoretical": float(m), "empirical": float(fq)}
        for y, m, fq in zip(pmf.support(), pmf.masses, freq)
    ]
