"""Shared independent oracles for the test suite.

These deliberately avoid the package's closed forms: normalizers come
from quadrature or direct summation, discrete masses from the raw kernel,
and cumulative masses from adaptive quadrature on each cell.  Tests
compare the library's closed-form fast paths against these.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom

from trunclap import MechanismParams


def closed_grid(B: float, p: int) -> np.ndarray:
    n = int(round(2 * B * 2**p))
    return (np.arange(n + 1) - n // 2) * 2.0**-p


def half_open_grid(B: float, p: int) -> np.ndarray:
    return closed_grid(B, p)[:-1]


def kernel(y, x, L, sigma):
    return np.exp(-np.minimum(np.abs(y - x), L) / sigma)


def lap_lambda_oracle(E, L, sigma, x) -> float:
    f = lambda y: math.exp(-min(abs(y - x), L) / sigma)
    val, _ = quad(f, -E - L, E + L, limit=500, points=[x - L, x, x + L])
    return val


def tdl_masses_oracle(x, E, L, sigma, p) -> np.ndarray:
    ys = closed_grid(L + E, p)
    w = kernel(ys, x, L, sigma)
    return w / np.sum(w)


def tcl_cell_oracle(y, x, L, sigma, h) -> float:
    f = lambda r: math.exp(-min(abs(r - x), L) / sigma)
    val, _ = quad(f, y, y + h, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def tcl_masses_oracle(x, E, L, sigma, p) -> np.ndarray:
    h = 2.0**-p
    ys = half_open_grid(L + E, p)
    w = np.array([tcl_cell_oracle(y, x, L, sigma, h) for y in ys])
    return w / np.sum(w)


def lap_moments_oracle(x, E, L, sigma):
    lam = lap_lambda_oracle(E, L, sigma, x)
    pts = [x - L, x, x + L]
    mean, _ = quad(
        lambda y: y * math.exp(-min(abs(y - x), L) / sigma) / lam,
        -E - L, E + L, limit=500, points=pts,
    )
    mse, _ = quad(
        lambda y: (y - x) ** 2 * math.exp(-min(abs(y - x), L) / sigma) / lam,
        -E - L, E + L, limit=500, points=pts,
    )
    return mean, mse


def multinomial_tv_mean(masses, n: int) -> float:
    """Expected TV between an n-draw histogram of a law and the law itself.

    Sums de Moivre's exact binomial mean absolute deviation per point,
    E|K - nq| = 2k(1-q) P(K=k) with k = floor(nq) + 1.
    """
    q = np.asarray(masses, dtype=float)
    k = np.floor(n * q) + 1
    mad = 2 * k * (1 - q) * binom.pmf(k, n, q)
    return 0.5 * float(np.sum(mad)) / n


def centered_law_oracle(cfg) -> dict:
    """Exact law, in 2^-p steps, of the centred draw a `CenteredDlapConfig`
    defines, in `Fraction`s from its integer thresholds alone.

    P[word < t] = t / 2^64 for each word: the zero flag (a word below it
    draws 0; a plan without one never draws 0), the kappa magnitude bits, the segment choices (the first
    segment whose word falls below its threshold, else the last) and the
    sign (below it: +).  Segment t puts the low k_t bits of the kappa-bit
    value r on magnitude 1 + start_t + (r mod 2^k_t).
    """
    def below(t):
        return Fraction(t, 2**64)

    lows = [[Fraction(1)]]  # law of the low k bits of r, for k = 0 .. kappa
    for t in cfg.bit_thresholds:
        q = below(t)
        lows.append([m * (1 - q) for m in lows[-1]] + [m * q for m in lows[-1]])
    zero, plus = below(cfg.zero_threshold or 0), below(cfg.sign_threshold)
    law = {0: zero}
    reach = 1 - zero  # nonzero, and no earlier segment picked
    picks = [below(t) for t in cfg.segment_thresholds] + [Fraction(1)]
    for (start, mask), pick in zip(cfg.segments, picks):
        for r, m in enumerate(lows[mask.bit_length()]):
            x = 1 + start + r
            law[x] = law.get(x, 0) + reach * pick * m * plus
            law[-x] = law.get(-x, 0) + reach * pick * m * (1 - plus)
        reach *= 1 - pick
    return law


def clap_law_oracle(cfg, shift: int = 1) -> dict:
    """Exact law, in 2^-p steps, of TCL's inner draw on `cfg` (a
    `centered_clap_config` plan): `centered_law_oracle`, every draw
    +-(m + 1), pushed through v - shift * (v > 0) (+x moves down one step)."""
    law = {}
    for v, m in centered_law_oracle(cfg).items():
        k = v - shift * (v > 0)
        law[k] = law.get(k, 0) + m
    return law


def mechanism_law_oracle(plan, xs: int, place=None) -> dict:
    """Exact law, in output grid steps, of a `NoisePlan`'s noise draw
    perturbed at input xs (grid steps), in `Fraction`s from its integer
    thresholds: the branch threshold / 2^64 times the inner law (TCL's
    through `clap_law_oracle`), and the complement times 1/N on each of the
    N tail indices, each placed by `place(plan, xs, branch, a, b)`
    (`sampling._perturb_steps` unless given)."""
    from trunclap.sampling import _perturb_steps

    place = place or _perturb_steps
    branch = Fraction(plan.branch_threshold, 2**64)
    if plan.mech.cumulative:
        inner = clap_law_oracle(plan.inner)
    else:
        inner = centered_law_oracle(plan.inner)
    law = {}
    for b, m in inner.items():
        z = place(plan, xs, 1, 0, b)
        law[z] = law.get(z, 0) + branch * m
    tail = (1 - branch) / plan.outer_count
    for a in range(plan.outer_count):
        z = place(plan, xs, 0, a, 0)
        law[z] = law.get(z, 0) + tail
    return law


class ReferenceTape:
    """The seeded word tape as it was before its window of Python ints:
    every word is read off the uint64 buffer one at a time.  The oracle
    for `RandomTape`'s word stream and word counts."""

    BUF = 256  # the words a seeded tape draws at a time

    def __init__(self, seed):
        self.words_consumed = 0
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0

    def word(self) -> int:
        if self._pos >= len(self._buf):
            self._buf = self._gen.integers(0, 1 << 64, size=self.BUF, dtype=np.uint64)
            self._pos = 0
        w = int(self._buf[self._pos])
        self._pos += 1
        self.words_consumed += 1
        return w

    def peek_block(self, n: int) -> np.ndarray:
        have = len(self._buf) - self._pos
        if have < n:
            fresh = self._gen.integers(0, 1 << 64, size=max(n - have, self.BUF), dtype=np.uint64)
            self._buf = np.concatenate([self._buf[self._pos :], fresh])
            self._pos = 0
        return self._buf[self._pos : self._pos + n]

    def skip(self, n: int) -> None:
        self._pos += n
        self.words_consumed += n

    def field_array(self, q: int, n: int) -> np.ndarray:
        # straight from the generator, past the buffered words: the low k
        # bits of each word for q = 2^k
        self.words_consumed += n
        words = self._gen.integers(0, 1 << 64, size=n, dtype=np.uint64).tolist()
        return np.array([w % q for w in words], dtype=np.uint64)


def mux_composition(s, i, a, b, triple=None):
    """The mux as it was composed of wire calls, [a] + [i]*([b] - [a]): the
    oracle for `mux`, which computes the same shares in place around its
    one `mul` (and checks its selector first)."""
    return s.add(a, s.mul(i, s.sub(b, a), triple))


@pytest.fixture
def small_params() -> MechanismParams:
    return MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)


@pytest.fixture
def table_params_p0() -> MechanismParams:
    return MechanismParams(E=64.0, L=32.0, sigma=8.0, p=0)


@pytest.fixture
def table_params_p2() -> MechanismParams:
    return MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
