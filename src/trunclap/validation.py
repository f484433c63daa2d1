"""Statistical validation harness: goodness of fit, distribution overlays
and empirical-vs-analytic moment comparisons.

Chi-square tests merge grid points into groups until each group's expected
count reaches 5 (the usual validity rule) before computing the statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec
from .mechanisms import TDL, ExactPmf, MechanismParams, moments_tdl, pmf_tdl, regularized_gamma
from .sampling import sample_batch
from .thresholds import THRESHOLDS


@dataclass(frozen=True)
class Histogram:
    """Counts over the points of a grid, one per point in index order."""

    spec: GridSpec
    counts: np.ndarray

    def __post_init__(self):
        if len(self.counts) != self.spec.count:
            raise ValueError("counts length must equal the grid point count")

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_samples(cls, values: np.ndarray, spec: GridSpec) -> "Histogram":
        """Counts per grid point; ValueError for a sample off or outside the grid, or NaN."""
        values = np.asarray(values, dtype=float)
        scaled = (values + spec.B) / spec.step
        idx = np.round(scaled)
        bad = (idx != scaled) | (idx < 0) | (idx >= spec.count)
        if bad.any():
            raise ValueError(f"samples off or outside the grid, e.g. {values[bad][:3]}")
        return cls(spec=spec, counts=np.bincount(idx.astype(np.int64), minlength=spec.count))

    def frequencies(self) -> np.ndarray:
        """counts / n; ValueError for an empty histogram, which estimates no law."""
        n = self.n
        if n == 0:
            raise ValueError("an empty histogram has no frequencies")
        return self.counts / n

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "counts": [int(c) for c in self.counts],
            "n": self.n,
        }


@dataclass(frozen=True)
class FitReport:
    """Goodness-of-fit summary of a histogram against an exact pmf."""

    tv: float
    chi2_stat: float
    chi2_pvalue: float
    max_rel_dev: float
    n: int


def _check_support(h: Histogram, f: ExactPmf) -> None:
    if h.spec != f.spec:
        raise ValueError(f"support mismatch: {h.spec} vs {f.spec}")


def tv_distance(h: Histogram, f: ExactPmf) -> float:
    """Total variation distance (1/2) sum |count/N - mass|."""
    if h.spec is not f.spec:  # a pmf and a histogram of its params share one spec
        _check_support(h, f)
    return 0.5 * float(np.abs(h.frequencies() - f.masses).sum())


def chi_square(h: Histogram, f: ExactPmf):
    """Chi-square statistic and p-value over merged grid points.

    Points are scanned in order and accumulated until the expected count
    reaches 5; a trailing underfull group is merged into the previous one.
    The p-value is the chi-square survival function at groups - 1 degrees
    of freedom, Q((groups - 1) / 2, stat / 2).
    """
    _check_support(h, f)
    n = h.n
    exp_groups, obs_groups = [], []
    acc_e = acc_o = 0.0
    for o, m in zip(h.counts, f.masses):
        acc_e += m * n
        acc_o += o
        if acc_e >= 5.0:
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
        raise ValueError("not enough mass to form two chi-square groups")
    obs = np.array(obs_groups)
    exp = np.array(exp_groups)
    exp *= obs.sum() / exp.sum()   # remove rounding drift in the constraint
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, regularized_gamma((len(obs) - 1) / 2, stat / 2)[1]


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

    Draws THRESHOLDS["overlay_n"] samples with `sample_batch`, counts them
    per output grid point and measures their total variation against
    `pmf_tdl(x)`; the check passes when that TV is below
    THRESHOLDS["overlay_tv"].
    """
    pmf = pmf_tdl(x, params)
    values = sample_batch(TDL, x, params, THRESHOLDS["overlay_n"], seed)
    hist = Histogram.from_samples(values, params.output_grid("tdl"))
    return OverlayCheck(pmf=pmf, hist=hist, tv=tv_distance(hist, pmf))
