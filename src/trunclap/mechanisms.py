"""Exact distributions, calibration, and utility predictors.

Three mechanism families share the truncated Laplace kernel
exp(-min(|y - x|, L) / sigma):

* ``lap`` -- the continuous mechanism on [-E-L, E+L];
* ``tdl`` -- the truncated discrete Laplace, point masses of the kernel on
  the closed grid [-E-L, E+L] (grid step 2^-p);
* ``tcl`` -- the truncated cumulative Laplace, whose mass at y is the
  kernel's integral over the cell [y, y + 2^-p), supported on the
  half-open grid (the top point carries zero mass and is dropped).

All normalization constants and moments are closed forms; every one of
them is cross-checked against summation/quadrature oracles in the test
suite.  Evaluation is plain float64: kernel values underflow to 0 once
the exponent drops below roughly -745, which only ever discards mass
that is far beyond representable tolerances.

A mass depends on x only through the grid distance min(|y - x|, L), so
what a law's evaluation needs is computed once per parameter set and
cached (as the samplers' draw plans are), never per input: the kernel
times its cell width at each distance 0 .. 2^p L, divided by lambda and
laid out over the inner support around x, and the moments' x-free
terms.  A call checks x (`MechanismParams.input_steps`) and places that
window on a fill of the tail mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .grids import GridError, GridSpec, is_aligned, steps_of

MECHANISMS = ("lap", "tdl", "tcl")


@dataclass(frozen=True)
class MechanismParams:
    """The tuple (E, L, sigma, p) governing a mechanism instance.

    E bounds the input, L bounds the distance-sensitive part of the noise,
    sigma is the scale, and 2^-p the grid step.  E and L must be positive
    multiples of 2^-p so that no rounding error enters the arithmetic.
    """

    E: float
    L: float
    sigma: float
    p: int

    def __post_init__(self):
        if self.p < 0:
            raise GridError("precision exponent p must be >= 0")
        if self.E <= 0 or not is_aligned(self.E, self.p):
            raise GridError(f"E={self.E} must be a positive multiple of 2^-{self.p}")
        if self.L <= 0 or not is_aligned(self.L, self.p):
            raise GridError(f"L={self.L} must be a positive multiple of 2^-{self.p}")
        _check_positive(sigma=self.sigma)
        # the instance keys cached plans; hash its fields once, not per lookup
        object.__setattr__(self, "_hash", hash((self.E, self.L, self.sigma, self.p)))
        object.__setattr__(self, "_Es", steps_of(self.E, self.p))
        # one output grid per mechanism, so a pmf and a histogram share it
        B = self.L + self.E
        object.__setattr__(self, "_grids", {"tdl": GridSpec(p=self.p, B=B),
                                            "tcl": GridSpec(p=self.p, B=B, half_open=True)})

    def __hash__(self) -> int:
        return self._hash

    @property
    def epsilon(self) -> float:
        """Privacy budget of the epsilon-DP reading, L / sigma."""
        return self.L / self.sigma

    @property
    def step(self) -> float:
        return 2.0 ** -self.p

    def input_grid(self) -> GridSpec:
        return GridSpec(p=self.p, B=self.E)

    def input_steps(self, x: float) -> int:
        """x in 2^-p steps; GridError if x is off the grid or outside [-E, E]."""
        xs = steps_of(x, self.p)
        if abs(xs) > self._Es:
            raise GridError(f"x={x} outside [-E, E] = [{-self.E}, {self.E}]")
        return xs

    def output_grid(self, mechanism: str = "tdl") -> GridSpec:
        """The output grid, one instance per (params, mechanism)."""
        try:
            return self._grids[mechanism]
        except KeyError:
            raise ValueError(f"unknown discrete mechanism {mechanism!r}") from None

    def as_dict(self) -> dict:
        return {"E": self.E, "L": self.L, "sigma": self.sigma, "p": self.p}


def _check_positive(**kw):
    for name, v in kw.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")


def _or_inf(f: Callable[[float], float], t: float) -> float:
    """f(t) for math.exp or math.expm1, inf past the double range (t > 709.78):
    a quotient by it is then 0, its limit, and the discrete kernel a point mass."""
    try:
        return f(t)
    except OverflowError:
        return math.inf


def lambda_lap(E: float, L: float, sigma: float) -> float:
    """Normalizer of the continuous and the cumulative mechanism.

    2*(sigma + (E-sigma)*e^(-L/sigma)), evaluated as
    2*(sigma*(1-e^(-L/sigma)) + E*e^(-L/sigma)) with expm1.  It is the
    integral of the kernel over [-E-L, E+L] for every center x in [-E, E]
    (independence from x is what makes the constant usable), and so also
    the sum of the TCL cell integrals.
    """
    _check_positive(E=E, L=L, sigma=sigma)
    return 2.0 * (sigma * (-math.expm1(-L / sigma)) + math.exp(-L / sigma) * E)


def lambda_dlap(E: float, L: float, sigma: float, p: int) -> float:
    """Normalizer of the discrete mechanism over the closed grid.

    2^(p+1)*E*e^(-L/sigma) + 1 + 2*(1-e^(-L/sigma)) / (e^(2^-p/sigma) - 1),
    the kernel sum over [-E-L, E+L] grid points for any on-grid center.
    """
    _check_positive(E=E, L=L, sigma=sigma)
    if p < 0:
        raise ValueError("p must be >= 0")
    h = 2.0 ** -p
    return (
        2.0 ** (p + 1) * E * math.exp(-L / sigma)
        + 1.0
        + 2.0 * (-math.expm1(-L / sigma)) / _or_inf(math.expm1, h / sigma)
    )


@dataclass(frozen=True)
class ExactPmf:
    """A tabulated exact probability mass function over a grid.

    `masses[i]` is the probability of `spec.value_of(i)`; `lam` is the
    normalization constant that divided the raw kernel; `center` is the
    input x the distribution is conditioned on.
    """

    spec: GridSpec
    masses: np.ndarray
    lam: float
    center: float

    def support(self) -> np.ndarray:
        return self.spec.values()

    def mass_at(self, y: float) -> float:
        return float(self.masses[self.spec.index_of(y)])

    def mean(self) -> float:
        return float(np.dot(self.support(), self.masses))

    def mse(self, x: float | None = None) -> float:
        """E[(y - x)^2] with x defaulting to the center."""
        ref = self.center if x is None else x
        return float(np.dot((self.support() - ref) ** 2, self.masses))

    def total(self) -> float:
        return float(np.sum(self.masses))

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "center": self.center,
            "lambda": self.lam,
            "masses": [float(m) for m in self.masses],
        }


@dataclass(frozen=True, eq=False)
class _KernelLaw:
    """What evaluating one exact law needs, computed once per parameter set.

    `window` holds the masses at y - x = -2^p L, ..., 2^p L in steps (the
    last one dropped on a half-open grid): the inner support around x,
    which lies inside the output grid for every x in [-E, E].  Every other
    point is at distance 2^p L or more and carries `tail`.
    """

    lam: float
    window: np.ndarray  # read-only
    tail: float
    Es: int             # the window of x starts at index xs + Es
    count: int          # points of the output grid

    def pmf(self, spec: GridSpec, x: float, xs: int) -> ExactPmf:
        masses = np.full(self.count, self.tail)
        start = xs + self.Es
        masses[start:start + self.window.size] = self.window
        return ExactPmf(spec=spec, masses=masses, lam=self.lam, center=x)


def _kernel_law(L: float, sigma: float, p: int, half_open: bool, lam: float,
                Es: int) -> _KernelLaw:
    """The kernel exp(-min(|y-x|, L)/sigma) over lam: at each point y of a
    closed grid, integrated over each cell [y, y+h) of a half-open one.  No
    cell straddles x or x +/- L (all on the grid), so a cell's integral is
    the kernel at its end nearest x times h (flat tails) or sigma*(1 -
    e^(-h/sigma)) (flanks); no factor exceeds 1 or h, so nothing overflows.

    The table holds kernel times width at each grid distance d = 0 .. 2^p L
    from x (to the cell's nearest end on a half-open grid), each divided by
    lam; the window gathers it at d = |j|, or max(j, -1 - j) on a half-open
    grid, for each step j = y - x of the inner support.
    """
    h, Ls = 2.0 ** -p, steps_of(L, p)
    dist = np.arange(Ls + 1) * h
    if half_open:
        width = np.where(dist >= L, h, sigma * -math.expm1(-h / sigma))
        j = np.arange(-Ls, Ls)
        d = np.maximum(j, -1 - j)
    else:
        width = 1.0
        d = np.abs(np.arange(-Ls, Ls + 1))
    table = np.exp(-dist / sigma) * width / lam
    window = table[d]
    window.flags.writeable = False
    count = 2 * (Es + Ls) + (0 if half_open else 1)
    return _KernelLaw(lam=lam, window=window, tail=table[Ls], Es=Es, count=count)


@lru_cache(maxsize=128)
def _mechanism_law(params: MechanismParams, cumulative: bool) -> _KernelLaw:
    E, L, sigma, p = params.E, params.L, params.sigma, params.p
    lam = lambda_lap(E, L, sigma) if cumulative else lambda_dlap(E, L, sigma, p)
    return _kernel_law(L, sigma, p, cumulative, lam, params._Es)


def pmf_tdl(x: float, params: MechanismParams) -> ExactPmf:
    """Exact TDL mass function conditioned on input x.

    mass(y) = exp(-min(|y-x|, L)/sigma) / lambda_dlap over the closed grid
    [-E-L, E+L]; the mass depends on x only through min(|y-x|, L).
    """
    xs = params.input_steps(x)
    return _mechanism_law(params, False).pmf(params.output_grid("tdl"), x, xs)


def pmf_tcl(x: float, params: MechanismParams) -> ExactPmf:
    """Exact TCL mass function conditioned on input x.

    mass(y) integrates the kernel over [y, y+2^-p) and divides by
    lambda_lap; the support is half-open (the top point has zero mass).
    """
    xs = params.input_steps(x)
    return _mechanism_law(params, True).pmf(params.output_grid("tcl"), x, xs)


def _lambda_centered_dlap(L: float, sigma: float, p: int) -> float:
    """1 + 2(1-e^(-L/sigma)) / (e^(2^-p/sigma)-1), the kernel's sum on [-L, L] at 0."""
    return 1.0 + 2.0 * (-math.expm1(-L / sigma)) / _or_inf(math.expm1, 2.0 ** -p / sigma)


def dlap_zero_mass(L: float, sigma: float, p: int) -> float:
    """c0 = P[0] of the centered discrete Laplace on [-L, L] at step 2^-p.

    Computed from the closed-form normalizer, not by floating summation.
    """
    return 1.0 / _lambda_centered_dlap(L, sigma, p)


@lru_cache(maxsize=128)
def _centered_law(L: float, sigma: float, p: int, cumulative: bool) -> _KernelLaw:
    if cumulative:
        lam = 2.0 * sigma * (-math.expm1(-L / sigma))
    else:
        lam = _lambda_centered_dlap(L, sigma, p)
    return _kernel_law(L, sigma, p, cumulative, lam, 0)


def centered_dlap_pmf(L: float, sigma: float, p: int) -> ExactPmf:
    """Centered discrete Laplace on [-L, L]: mass(y) proportional to e^(-|y|/sigma)."""
    _check_positive(L=L, sigma=sigma)
    spec = GridSpec(p=p, B=L)
    return _centered_law(L, sigma, p, False).pmf(spec, 0.0, 0)


def centered_clap_pmf(L: float, sigma: float, p: int) -> ExactPmf:
    """Centered cumulative Laplace on the half-open grid [-L, L)."""
    _check_positive(L=L, sigma=sigma)
    spec = GridSpec(p=p, B=L, half_open=True)
    return _centered_law(L, sigma, p, True).pmf(spec, 0.0, 0)


# --- moments ---------------------------------------------------------------

def moments_lap(x: float, params: MechanismParams) -> tuple[float, float]:
    """Mean and mean-squared-error bound of the continuous mechanism.

    Computed with epsilon = L/sigma substituted into the calibrated forms.
    The mean is exact.  The second value is an upper bound on the MSE that
    is only valid in the scale regime E/sigma = k with k^3/3 + eps*k^2 +
    eps^2*k - (eps^2+2*eps+2) <= 0 (as produced by kstar_calibration); use
    moments_lap_exact for the unconditional value.
    """
    return _moments_lap(x, params, cubic=False)


def moments_lap_exact(x: float, params: MechanismParams) -> tuple[float, float]:
    """Exact mean and MSE of the continuous mechanism (closed form).

    Retains the cubic term that moments_lap drops when bounding, so the
    result matches quadrature for arbitrary (E, L, sigma).
    """
    return _moments_lap(x, params, cubic=True)


def _moments_lap(x: float, params: MechanismParams, cubic: bool) -> tuple[float, float]:
    """Mean and MSE; the cubic term sigma^2 e^(-eps) f(E/sigma) only if `cubic`."""
    E, L, sigma = params.E, params.L, params.sigma
    if not abs(x) <= E:  # a NaN x fails it too
        raise ValueError(f"x={x} lies outside [-E, E], E={E}")
    eps = L / sigma
    k = E / sigma
    e = math.exp(-eps)
    den = 1.0 - (1.0 - k) * e
    fk = kstar_polynomial(k, eps) if cubic else 0.0
    mean = x * (1.0 - (1.0 + eps) * e) / den
    mse = (2.0 * sigma**2 + sigma**2 * e * fk + x * x * e * (eps + k)) / den
    return mean, mse


def moments_tdl(x: float, params: MechanismParams) -> tuple[float, float]:
    """Exact mean and MSE of the TDL estimator y for input x (closed form)."""
    params.input_steps(x)
    slope, eL, quad, c0, c1, lam = _tdl_moment_terms(params)
    return x * slope / lam, (x * x * eL * quad + c0 + c1) / lam


@lru_cache(maxsize=128)
def _tdl_moment_terms(params: MechanismParams) -> tuple[float, ...]:
    """The x-free terms of `moments_tdl`: mean = x * slope / lam and
    mse = (x^2 * eL * quad + c0 + c1) / lam."""
    E, L, sigma, p = params.E, params.L, params.sigma, params.p
    h = params.step
    eL = math.exp(-L / sigma)
    one_m_eL = -math.expm1(-L / sigma)
    # w = 1/(e^(h/sigma) - 1) and e^(h/sigma) w = 1 + w: no power overflows
    w = 1.0 / _or_inf(math.expm1, h / sigma)
    lam = lambda_dlap(E, L, sigma, p)
    slope = one_m_eL * (1.0 + 2.0 * w) - 2.0 * 2.0**p * L * eL
    quad = 1.0 + 2.0 * 2.0**p * (E + L)
    c0 = eL * (
        2.0 * 2.0**p * (L * L * E + L * E * E + E**3 / 3.0)
        + (E * E + 2.0 * L * E - 2.0 * L * L * w)
        + h * (E / 3.0 - 4.0 * L * (1.0 + w) * w)
    )
    c1 = 2.0 * h * h * one_m_eL * (1.0 + w) * (1.0 + 2.0 * w) * w
    # |mean| and mse peak at x = +/-E, the mse's other end at x = 0
    _finite_moments(params, E * slope / lam, (E * E * eL * quad + c0 + c1) / lam, (c0 + c1) / lam)
    return slope, eL, quad, c0, c1, lam


def moments_tcl(x: float, params: MechanismParams) -> tuple[float, float]:
    """Exact mean and MSE of the TCL estimator y for input x (closed form).

    The mean carries the systematic half-cell offset -2^-p / 2.  The MSE
    closed form is a re-derivation verified against the exact-PMF oracle;
    see the test suite for the parameter lattice it is checked on.
    """
    params.input_steps(x)
    h = params.step
    slope, eL, EL, H, const = _tcl_moment_terms(params)
    return x * slope / H - h / 2.0, (x * x + h * x) * eL * EL / H + const


@lru_cache(maxsize=128)
def _tcl_moment_terms(params: MechanismParams) -> tuple[float, ...]:
    """The x-free terms of `moments_tcl`: mean = x * slope / H - h/2 and
    mse = (x^2 + h x) * eL * EL / H + const, with H = lambda_lap / 2."""
    E, L, sigma = params.E, params.L, params.sigma
    h = params.step
    eL = math.exp(-L / sigma)
    one_m_eL = -math.expm1(-L / sigma)
    u = _or_inf(math.expm1, h / sigma)
    H = sigma * one_m_eL + E * eL
    try:
        const = (
            eL * (2.0 * L * L * E + 2.0 * E * E * L + (2.0 / 3.0) * E**3
                  - 2.0 * sigma * L * L - 2.0 * sigma * h * L + h * h * E / 3.0)
            + sigma * h * h * one_m_eL
            + (4.0 * sigma * h / u) * (h * one_m_eL - L * eL)
            + 4.0 * sigma * h * h * one_m_eL / (u * u)
        ) / (2.0 * H)
    except ZeroDivisionError:  # u * u underflows to 0
        const = math.nan
    slope = sigma * one_m_eL - eL * L
    # the mean and mse peak at x = E, x^2 + h x dips to -h^2/4 near x = 0
    _finite_moments(params, E * slope / H - h / 2.0, (E * E + h * E) * eL * (E + L) / H + const,
                    const)
    return slope, eL, E + L, H, const


def _finite_moments(params: MechanismParams, *values: float) -> None:
    """ValueError unless the closed-form moments' extreme values over
    [-E, E] are finite doubles: at a large p their terms overflow, or
    underflow to a zero divisor, and the closed form has no value."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"the closed-form moments at p = {params.p} leave the double range")


# --- the discrete mechanisms as one construction ----------------------------

def outer_count(params: MechanismParams) -> int:
    """Number of outer (uniform-tail) outcomes, 2 * 2^p * E."""
    return 2 * steps_of(params.E, params.p)


def branch_probability_d(params: MechanismParams) -> float:
    """P[inner branch] for the discrete variant: 1 - 2*2^p*E*e^(-L/s)/lambda."""
    lam = lambda_dlap(params.E, params.L, params.sigma, params.p)
    return 1.0 - outer_count(params) * math.exp(-params.L / params.sigma) / lam


def branch_probability_c(params: MechanismParams) -> float:
    """P[inner branch] for the cumulative variant: 1 - 2*E*e^(-L/s)/lambda."""
    lam = lambda_lap(params.E, params.L, params.sigma)
    return 1.0 - 2.0 * params.E * math.exp(-params.L / params.sigma) / lam


@dataclass(frozen=True, eq=False)
class Mechanism:
    """One discrete mechanism: TDL or TCL.

    Both are one construction: an input-independent noise pair (branch
    bit, uniform tail index, centred inner draw), then a perturbation of
    1 comparison + 2 multiplications.  They differ only where this record
    says: TCL (`cumulative`) draws its inner noise on [-L, L) without a
    zero flag, and its upper tail starts at x+L, not at x+L+2^-p.  The
    two records are singletons, compared and hashed by identity (they key
    the cached noise plans).
    """

    name: str
    cumulative: bool
    pmf: Callable[[float, MechanismParams], ExactPmf]
    moments: Callable[[float, MechanismParams], tuple[float, float]]
    branch_probability: Callable[[MechanismParams], float]

    @property
    def high_offset(self) -> int:
        """Grid steps the upper tail map adds: z = L - E + 2^-p (y + offset)."""
        return 0 if self.cumulative else 1


TDL = Mechanism("tdl", False, pmf_tdl, moments_tdl, branch_probability_d)
TCL = Mechanism("tcl", True, pmf_tcl, moments_tcl, branch_probability_c)
DISCRETE_MECHANISMS = {m.name: m for m in (TDL, TCL)}


def lookup_mechanism(name: str) -> Mechanism:
    """The record of a discrete mechanism, by its name."""
    try:
        return DISCRETE_MECHANISMS[name]
    except KeyError:
        raise ValueError(f"unknown mechanism {name!r} (discrete: tdl, tcl)") from None


# --- calibration -----------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    """A chosen scale sigma, the privacy regime it satisfies, and (for the
    continuous scale recipe) the margin root k*."""

    sigma: float
    regime: str
    kstar: float | None = None

    def as_dict(self) -> dict:
        d = {"sigma": self.sigma, "regime": self.regime}
        if self.kstar is not None:
            d["kstar"] = self.kstar
        return d


def kstar_polynomial(k: float, epsilon: float) -> float:
    """f(k) = k^3/3 + eps*k^2 + eps^2*k - (eps^2 + 2*eps + 2).

    f(1) = -eps - 5/3 < 0 and f(2) = eps^2 + 2*eps + 2/3 > 0, so f has a
    single root in (1, 2) for every eps > 0.
    """
    return k**3 / 3.0 + epsilon * k * k + epsilon * epsilon * k - (
        epsilon * epsilon + 2.0 * epsilon + 2.0
    )


def find_kstar(epsilon: float) -> float:
    """Margin value k* in (1, 2) with f(k*) strictly negative.

    Bisects f on (1, 2) to 1e-10 for the root a, then backs off slightly
    (k* = max(1 + 1e-6, a * (1 - 1e-6))) so the defining inequality holds
    strictly rather than at the boundary.
    """
    _check_positive(epsilon=epsilon)
    lo, hi = 1.0, 2.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if kstar_polynomial(mid, epsilon) < 0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    return max(1.0 + 1e-6, a * (1.0 - 1e-6))


def calibrate(
    epsilon: float,
    mechanism: str,
    notion: str = "eps",
    *,
    L: float | None = None,
    p: int | None = None,
) -> CalibrationResult:
    """Minimal sigma meeting the requested privacy guarantee.

    notion "eps" needs the noise bound L and returns sigma = L / epsilon
    for any mechanism.  notion "dchi" (distance-based privacy) returns
    sigma = 1/epsilon for tdl and sigma = max(2/epsilon, 2^-p) for tcl.
    A p, when given, must be >= 0 (GridError).
    """
    _check_positive(epsilon=epsilon)
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if p is not None and p < 0:
        raise GridError("precision exponent p must be >= 0")
    if notion == "eps":
        if L is None:
            raise ValueError("eps-DP calibration needs the noise bound L > 0")
        _check_positive(L=L)
        return CalibrationResult(sigma=L / epsilon, regime=f"eps-{mechanism}")
    if notion == "dchi":
        if mechanism == "tdl":
            return CalibrationResult(sigma=1.0 / epsilon, regime="dchi-tdl")
        if mechanism == "tcl":
            if p is None:
                raise ValueError("dchi calibration for tcl needs the precision p")
            return CalibrationResult(
                sigma=max(2.0 / epsilon, 2.0 ** -p), regime="dchi-tcl"
            )
        raise ValueError("dchi calibration is defined for tdl and tcl only")
    raise ValueError(f"unknown privacy notion {notion!r}")


def kstar_calibration(epsilon: float, E: float) -> CalibrationResult:
    """Continuous-mechanism scale recipe: sigma = E/k*, L = sigma * epsilon.

    In this regime the moments_lap MSE expression is a genuine upper bound.
    The implied L is sigma * epsilon; callers assemble params from it.
    """
    _check_positive(E=E)
    ks = find_kstar(epsilon)
    return CalibrationResult(sigma=E / ks, regime="eps-lap-kstar", kstar=ks)


def max_privacy_ratio(mechanism: str, params: MechanismParams) -> float:
    """The attained sup over (x1, x2, y) of mass ratios between two inputs.

    For lap and tdl this is exactly e^(L/sigma).  For tcl the max-to-min
    mass ratio is e^(L/sigma) * sigma * (1 - e^(-2^-p/sigma)) / 2^-p, which
    never exceeds e^(L/sigma).
    """
    ratio = _or_inf(math.exp, params.L / params.sigma)
    if mechanism in ("lap", "tdl"):
        return ratio
    if mechanism == "tcl":
        h = params.step
        return ratio * params.sigma * (-math.expm1(-h / params.sigma)) / h
    raise ValueError(f"unknown mechanism {mechanism!r}")
