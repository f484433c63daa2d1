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

TDL and TCL are the two `Mechanism` records; their methods `pmf`,
`moments` and `centered_pmf` are the exact law, and `pmf_tdl`,
`moments_tcl`, ... are those methods bound to each record.
"""

from __future__ import annotations

import math
import sys
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


def _normalizer(E: float, L: float, sigma: float, p: int, cumulative: bool) -> float:
    """The kernel's total over the output grid, for every on-grid center.

    Cumulative: 2*(sigma*(1-e^(-L/sigma)) + E*e^(-L/sigma)), the kernel's
    integral over [-E-L, E+L].  Discrete: 2^(p+1)*E*e^(-L/sigma) + 1 +
    2*(1-e^(-L/sigma)) / (e^(2^-p/sigma) - 1), its sum over the closed
    grid's points.  At E = 0 each is the centred law's on [-L, L].
    ValueError where 2^(p+1)*E leaves the double range, or 2^-p/sigma
    underflows to 0.
    """
    r, c = math.exp(-L / sigma), -math.expm1(-L / sigma)
    if cumulative:
        return 2.0 * (sigma * c + r * E)
    try:
        tail = math.ldexp(E, p + 1) * r
    except OverflowError:
        raise ValueError(f"the normaliser at p = {p} leaves the double range") from None
    a = _or_inf(math.expm1, 2.0 ** -p / sigma)
    if not a:
        raise ValueError(f"the normaliser at p = {p}, sigma = {sigma} leaves the double range")
    return tail + 1.0 + 2.0 * c / a


def lambda_lap(E: float, L: float, sigma: float) -> float:
    """Normalizer of the continuous and the cumulative mechanism.

    2*(sigma + (E-sigma)*e^(-L/sigma)), evaluated with expm1.  It is the
    integral of the kernel over [-E-L, E+L] for every center x in [-E, E]
    (independence from x is what makes the constant usable), and so also
    the sum of the TCL cell integrals.
    """
    _check_positive(E=E, L=L, sigma=sigma)
    return _normalizer(E, L, sigma, 0, True)


def lambda_dlap(E: float, L: float, sigma: float, p: int) -> float:
    """Normalizer of the discrete mechanism over the closed grid: the
    kernel sum over [-E-L, E+L] grid points for any on-grid center."""
    _check_positive(E=E, L=L, sigma=sigma)
    if p < 0:
        raise ValueError("p must be >= 0")
    return _normalizer(E, L, sigma, p, False)


@dataclass(frozen=True)
class ExactPmf:
    """A tabulated exact probability mass function over a grid.

    `masses[i]` is the probability of `spec.values()[i]`; `lam` is the
    normalization constant that divided the raw kernel; `center` is the
    input x the distribution is conditioned on.
    """

    spec: GridSpec
    masses: np.ndarray
    lam: float
    center: float

    def support(self) -> np.ndarray:
        return self.spec.values()

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
    with np.errstate(over="ignore"):  # dist / sigma is inf past a subnormal sigma: mass 0
        table = np.exp(-dist / sigma) * width / lam
    window = table[d]
    window.flags.writeable = False
    count = 2 * (Es + Ls) + (0 if half_open else 1)
    return _KernelLaw(lam=lam, window=window, tail=table[Ls], Es=Es, count=count)


@lru_cache(maxsize=128)
def _mechanism_law(params: MechanismParams, cumulative: bool) -> _KernelLaw:
    lam = _normalizer(params.E, params.L, params.sigma, params.p, cumulative)
    return _kernel_law(params.L, params.sigma, params.p, cumulative, lam, params._Es)


@lru_cache(maxsize=128)
def _centered_law(L: float, sigma: float, p: int, cumulative: bool) -> _KernelLaw:
    return _kernel_law(L, sigma, p, cumulative, _normalizer(0.0, L, sigma, p, cumulative), 0)


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
    """Mean and MSE; the MSE's cubic terms only if `cubic`.

    With eps = L/sigma, k = E/sigma and c = 1 - e^(-eps), the law is a
    mixture: the part |y - x| < L, of share c / den, and the flat tails, of
    share w = k e^(-eps) / den, den = c + k e^(-eps).  The mean is x P(2,
    eps) / den and the MSE (c / den) m + w (L (L + E) + E^2/3 + x^2 (1 +
    L/E)), where m = sigma^2 2 P(3, eps) / c is the inner part's second
    moment and P(n, eps) the regularized incomplete gamma
    (`regularized_gamma`).  The bound takes 2 sigma^2 / den for the inner
    part and drops the tails' x-free terms.  k e^(-eps) is formed as E
    e^(-eps) / sigma, since k alone leaves the double range first, and in
    log space from eps = 708, where e^(-eps) turns subnormal.  P(n, eps) ~
    eps^n / n! underflows long before eps does, so below eps = 2^-30 P(2,
    eps) / eps and m / L^2 are their two-term series, eps (1/2 - eps/3) and
    1/3 - eps/12, whose next terms are below 2^-60 there.  A divisor
    that is 0 or not finite (L/sigma and E/sigma both underflow), or an MSE
    that is not a positive double, is refused.
    """
    E, L, sigma = params.E, params.L, params.sigma
    if not abs(x) <= E:  # a NaN x fails it too
        raise ValueError(f"x={x} lies outside [-E, E], E={E}")
    eps = L / sigma
    c = -math.expm1(-eps)
    if eps < 708.0:
        ke = E * math.exp(-eps) / sigma
    else:
        ke = math.exp(math.log(E) - math.log(sigma) - eps)
    den = c + ke
    if not 0.0 < den < math.inf:
        raise ValueError(f"the continuous moments at E = {E}, L = {L}, sigma = {sigma} divide by {den}")
    small = eps < 2.0**-30
    mean = x * (eps / den * eps * (0.5 - eps / 3.0) if small else regularized_gamma(2, eps)[0] / den)
    w = ke / den
    tails = w * x * (x + x / E * L)  # w x^2 (1 + L/E), in an order that cannot overflow
    if cubic:
        if small:
            m = L * L * (1.0 / 3.0 - eps / 12.0)
        else:
            m = sigma * (2.0 * regularized_gamma(3, eps)[0] / c) * sigma
        mse = c / den * m + w * L * (L + E) + w * E * E / 3.0 + tails
    else:
        mse = 2.0 * sigma * (sigma / den) + tails
    if not 0.0 < mse < math.inf:
        name = "MSE" if cubic else "MSE bound"
        raise ValueError(f"the continuous {name} at E = {E}, L = {L}, sigma = {sigma} is {mse}, "
                         "not a positive double")
    return mean, mse


def regularized_gamma(a: float, y: float) -> tuple[float, float]:
    """(P(a, y), Q(a, y)), the regularized incomplete gamma functions, for
    an order a > 0 that is an integer or a half-integer and y >= 0.

    With d(s) = e^(-y) y^s / Gamma(s + 1), P is the series of d(s) over s =
    a, a + 1, ... (DLMF 8.7) and Q the finite sum over s = a - 1, a - 2, ...
    >= 0, plus erfc(sqrt(y)) where a is a half-integer (DLMF 8.4).
    Every term is positive.  Below y = a + 1 the series is summed and Q = 1
    - P, from there the finite sum and P = 1 - Q: either way the first term
    is the largest and each next one the last times y / s or s / y, down to
    2^-60 of the first.  The first term is formed in log space: below s =
    30 as s ln y - y - ln Gamma(s + 1), from there as s ln(y/s) + s - y less
    Stirling's remainder of ln Gamma(s + 1), which keeps the rounding of
    terms in the thousands out of the exponent.
    """
    if not (a > 0 and 2 * a % 1 == 0 and y >= 0):
        raise ValueError(f"regularized_gamma needs a > 0 an integer or half-integer and y >= 0, "
                         f"got a = {a}, y = {y}")
    if y == 0.0:
        return 0.0, 1.0
    if y == math.inf:
        return 1.0, 0.0
    series = y < a + 1
    s = a if series else a - 1  # -1/2 at a = 1/2, whose Q is erfc alone
    if s < 30:
        term = math.exp(s * math.log(y) - y - math.lgamma(s + 1))
    else:
        s2 = s * s
        stirling = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * s2)) / s2) / s2) / s
        log_term = math.fsum([s * math.log(y / s), s - y, -stirling])
        term = math.exp(log_term) / math.sqrt(2 * math.pi * s)
    floor, terms = term * 2.0**-60, []
    while term > floor and s >= 0:
        terms.append(term)
        if series:
            s += 1
            term *= y / s
        else:
            term *= s / y
            s -= 1
    if not series and a % 1:
        terms.append(math.erfc(math.sqrt(y)))
    total = math.fsum(terms)
    return (total, 1.0 - total) if series else (1.0 - total, total)


@lru_cache(maxsize=128)
def _moment_terms(params: MechanismParams, cumulative: bool) -> tuple[float, ...]:
    """The x-free terms of the moments: mean = x * slope + offset and
    mse = q2 x^2 + q1 x + const.

    Every one of the `count` output points at distance L or more from x
    carries the tail mass t; the window of points nearer x is the centred
    law, symmetric about x (about x - h/2 on TCL's half-open grid), less t
    at each of its points.  So with q2 = count * t the mean is x (1 - q2),
    less h/2 on TCL, whose grid sums to -count h / 2; the mse is q2 x^2
    (+ h q2 x on TCL) plus the tail fill's x-free sum, less the window's
    flat part, plus the window's second moment.  The window sums
    h^(k+1) sum_{d<N} d^k rho^d (rho = e^(-h/sigma), N = 2^p L) are
    written in u = h / (1 - rho), about sigma, and L = N h: no term
    overflows or underflows as p grows.  ValueError where u^3, lambda, or
    the mse at x = E, where each of its terms peaks, is not a finite double.
    """
    E, L, sigma, p, h = params.E, params.L, params.sigma, params.p, params.step
    a = h / sigma  # u as sigma a / (1 - e^-a) keeps its digits where a is subnormal
    r, rho, c = math.exp(-L / sigma), math.exp(-a), -math.expm1(-L / sigma)
    u = sigma * (a / -math.expm1(-a)) if a else sigma
    try:
        u3 = u**3
    except OverflowError:
        raise ValueError(f"the closed-form moments need u^3 < 2^1024, u = 2^-p / "
                         f"(1 - e^(-2^-p/sigma)) >= sigma; at sigma = {sigma}, p = {p}, "
                         f"u = {u}") from None
    s0, s1 = c * u, c * rho * u * u - r * L * u
    s2 = c * rho * (1.0 + rho) * u3 - r * (2.0 * L * rho * u * u + L * L * u)

    def tri(z):  # h^3 * sum of k^2 over k = -z/h .. z/h
        return z * (z + h) * (2.0 * z + h) / 3.0

    B = E + L
    lam = _normalizer(E, L, sigma, p, cumulative)
    if cumulative:  # t = r h / lam on each of 2 B / h points
        q2 = 2.0 * B * r / lam
        window = sigma / u * (2.0 * s2 + 2.0 * h * s1 + h * h * s0)
        const = (r * (tri(B) - h * B * B - tri(L) + h * L * L) + window) / lam
        q1, offset = h * q2, -h / 2.0
    else:  # t = r / lam on each of 2 B / h + 1 points
        lam *= h
        q2 = (2.0 * B + h) * r / lam
        const = (r * (tri(B) - tri(L)) + 2.0 * (s2 + h * L * L * r)) / lam
        q1, offset = 0.0, 0.0
    if not (math.isfinite(lam) and math.isfinite((q2 * E + q1) * E + const)):
        raise ValueError(f"the closed-form moments at p = {p} leave the double range")
    return 1.0 - q2, offset, q2, q1, const


# --- the discrete mechanisms as one construction ----------------------------

@dataclass(frozen=True, eq=False)
class Mechanism:
    """One discrete mechanism, TDL or TCL, and its exact law.

    Both are one construction: an input-independent noise pair (branch
    bit, uniform tail index, centred inner draw), then a perturbation of
    1 comparison + 2 multiplications.  They differ only where this record
    says: TCL (`cumulative`) integrates the kernel over the cells [y, y +
    2^-p) of the half-open grid where TDL takes its point masses, so it
    draws its inner noise on [-L, L) without a zero flag, and its upper
    tail starts at x+L, not at x+L+2^-p.  The methods are the law, one
    body for both; the module's `pmf_tdl`, `moments_tcl`, ... name them.
    The two records are singletons, compared and hashed by identity (they
    key the cached noise plans).
    """

    name: str
    cumulative: bool

    def pmf(self, x: float, params: MechanismParams) -> ExactPmf:
        """Exact mass function conditioned on input x, on the output grid.

        TDL: mass(y) = exp(-min(|y-x|, L)/sigma) / lambda_dlap over the
        closed grid [-E-L, E+L].  TCL: the kernel's integral over [y,
        y+2^-p) over lambda_lap, on the half-open grid (the top point has
        zero mass).  The mass depends on x only through min(|y-x|, L).
        """
        xs = params.input_steps(x)
        return _mechanism_law(params, self.cumulative).pmf(params.output_grid(self.name), x, xs)

    def moments(self, x: float, params: MechanismParams) -> tuple[float, float]:
        """Exact mean and MSE of the estimator y for input x (closed form,
        `_moment_terms`); TCL's mean carries the half-cell offset -2^-p / 2."""
        params.input_steps(x)
        slope, offset, q2, q1, const = _moment_terms(params, self.cumulative)
        return x * slope + offset, (q2 * x + q1) * x + const

    def centered_pmf(self, L: float, sigma: float, p: int) -> ExactPmf:
        """The centred law the inner draw samples: e^(-|y|/sigma) at the
        points of [-L, L] (TDL), integrated over the cells of [-L, L) (TCL)."""
        _check_positive(L=L, sigma=sigma)
        spec = GridSpec(p=p, B=L, half_open=self.cumulative)
        return _centered_law(L, sigma, p, self.cumulative).pmf(spec, 0.0, 0)

    def branch_probability(self, params: MechanismParams) -> float:
        """P[inner branch]: 1 - 2 * 2^p * E * t, t the tail mass of one
        point, e^(-L/sigma) / lambda on TDL's grid and 2^-p times that on
        TCL's (so there 1 - 2 * E * e^(-L/sigma) / lambda)."""
        lam = _normalizer(params.E, params.L, params.sigma, params.p, self.cumulative)
        outer = math.ldexp(2.0 * params.E, 0 if self.cumulative else params.p)
        return 1.0 - outer * math.exp(-params.L / params.sigma) / lam

    @property
    def high_offset(self) -> int:
        """Grid steps the upper tail map adds: z = L - E + 2^-p (y + offset)."""
        return 0 if self.cumulative else 1


TDL = Mechanism("tdl", False)
TCL = Mechanism("tcl", True)
pmf_tdl = TDL.pmf
pmf_tcl = TCL.pmf
moments_tdl = TDL.moments
moments_tcl = TCL.moments
centered_dlap_pmf = TDL.centered_pmf
centered_clap_pmf = TCL.centered_pmf
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

    def __post_init__(self):
        # L / epsilon or 1 / epsilon can leave the double range
        _check_positive(sigma=self.sigma)

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
    """Margin value k* in [1, 2) with f(k*) strictly negative.

    Bisects f on (1, 2) to 1e-10 for the root a, then backs off slightly
    (max(1 + 1e-6, a * (1 - 1e-6))) so the defining inequality holds
    strictly rather than at the boundary, but never past the bisection's
    lower end lo, where f(lo) < 0 (f(1) = -eps - 5/3): at eps >= 1e6 the
    root lies below 1 + 1e-6, and past eps = 1.3e154 f is NaN in floats.
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
    return min(max(1.0 + 1e-6, a * (1.0 - 1e-6)), lo)


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
    A p, when given, must be >= 0 (GridError).  A sigma that is not a
    positive finite double (L / epsilon or 1 / epsilon past the range)
    is refused.
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
    """The attained sup over (x1, x2, y) of mass ratios between two inputs,
    for the ideal law (`pmf_tdl`, `pmf_tcl`).

    For lap and tdl this is exactly e^(L/sigma).  For tcl the max-to-min
    mass ratio is e^(L/sigma) * (1 - e^(-a)) / a, a = 2^-p/sigma, which
    never exceeds e^(L/sigma), formed as e^(eps/2) * (f * e^(eps/2)), f =
    (1 - e^(-a)) / a: no factor is subnormal, and none overflows where the
    ratio is a double (a <= eps, as L >= 2^-p, so then eps < 717).  The law
    the samplers draw, through 64-bit Bernoulli thresholds, can exceed
    e^(L/sigma) on tdl by a few 1e-16 relative.  ValueError where the ratio
    is not a double: on lap and tdl past L/sigma = ln(DBL_MAX) = 709.78.
    """
    eps = params.L / params.sigma
    if mechanism == "tcl":
        a = params.step / params.sigma
        # below 2^-1022, the least normal double, the factor -expm1(-a)/a is 1
        factor = 1.0 if a < 2.0**-1022 else -math.expm1(-a) / a
        half = _or_inf(math.exp, eps / 2)
        ratio = half * (factor * half)
        if not ratio < math.inf:  # a NaN where eps and a are inf
            raise ValueError(f"the privacy ratio e^eps (1 - e^(-a)) / a of tcl is past a double "
                             f"at eps = L/sigma = {eps}, a = 2^-p/sigma = {a}")
        return ratio
    if mechanism not in ("lap", "tdl"):
        raise ValueError(f"unknown mechanism {mechanism!r}")
    ratio = _or_inf(math.exp, eps)
    if ratio == math.inf:
        raise ValueError(f"the privacy ratio e^eps needs eps = L/sigma <= ln(DBL_MAX) = "
                         f"{math.log(sys.float_info.max)}, got {eps}")
    return ratio
