"""Shared independent oracles for the test suite.

These deliberately avoid the package's closed forms: normalizers come
from quadrature or direct summation, discrete masses from the raw kernel,
and cumulative masses from adaptive quadrature on each cell.  Tests
compare the library's closed-form fast paths against these.
"""

import math

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
