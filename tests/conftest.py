"""Shared independent oracles for the test suite.

These deliberately avoid the package's closed forms: normalizers come
from quadrature or direct summation, discrete masses from the raw kernel,
and cumulative masses from adaptive quadrature on each cell.  Tests
compare the library's closed-form fast paths against these;
`executed_law` checks `sampling.implemented_law` against the code that runs.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom

from trunclap import TCL, MechanismParams


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


def _expm1_or_inf(t):
    try:
        return math.expm1(t)
    except OverflowError:
        return math.inf


def normalizer_formulas(E, L, sigma, p) -> dict:
    """Each normaliser as the package wrote it out before one function
    served them all: the oracles the shared one must equal bit for bit.
    The centred laws' are the kernel's total on [-L, L] at 0."""
    return {
        "lap": 2.0 * (sigma * (-math.expm1(-L / sigma)) + math.exp(-L / sigma) * E),
        "dlap": (2.0 ** (p + 1) * E * math.exp(-L / sigma) + 1.0
                 + 2.0 * (-math.expm1(-L / sigma)) / _expm1_or_inf(2.0 ** -p / sigma)),
        "centered_dlap": 1.0 + 2.0 * (-math.expm1(-L / sigma)) / _expm1_or_inf(2.0 ** -p / sigma),
        "centered_clap": 2.0 * sigma * (-math.expm1(-L / sigma)),
    }


def branch_probability_formulas(params) -> tuple:
    """P[inner branch] of TDL and of TCL as the package wrote each out:
    1 - 2 * 2^p * E * e^(-L/sigma) / lambda_dlap and 1 - 2 * E *
    e^(-L/sigma) / lambda_lap."""
    E, L, sigma, p = params.E, params.L, params.sigma, params.p
    lam = normalizer_formulas(E, L, sigma, p)
    outer = 2 * int(E * 2**p)
    return (1.0 - outer * math.exp(-L / sigma) / lam["dlap"],
            1.0 - 2.0 * E * math.exp(-L / sigma) / lam["lap"])


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


def kernel_pmf_oracle(spec, x, L, sigma, lam) -> np.ndarray:
    """The masses of `pmf_tdl`/`pmf_tcl` and the centred pmfs as the library
    built them on every call before it cached a kernel table per set: the
    kernel exp(-min(|y-x|, L)/sigma) over lam, evaluated in floats at each
    point y of a closed grid and, on a half-open one, times the width of
    the cell [y, y+h) (h on the flat tails, sigma*(1 - e^(-h/sigma)) on
    the flanks).  The reference the cached evaluation must equal bit for
    bit."""
    ys, h = spec.values(), spec.step
    if spec.half_open:
        dist = np.maximum(ys - x, x - h - ys)  # from x to the nearest point of [y, y+h]
        width = np.where(dist >= L, h, sigma * -math.expm1(-h / sigma))
    else:
        dist, width = np.abs(ys - x), 1.0
    return np.exp(-np.minimum(dist, L) / sigma) * width / lam


def multinomial_tv_mean(masses, n: int) -> float:
    """Expected TV between an n-draw histogram of a law and the law itself.

    Sums de Moivre's exact binomial mean absolute deviation per point,
    E|K - nq| = 2k(1-q) P(K=k) with k = floor(nq) + 1.
    """
    q = np.asarray(masses, dtype=float)
    k = np.floor(n * q) + 1
    mad = 2 * k * (1 - q) * binom.pmf(k, n, q)
    return 0.5 * float(np.sum(mad)) / n


def clap_plan(L: float, sigma: float, p: int):
    """TCL's inner draw plan at (L, sigma, p): `noise_plan(TCL, params).inner`
    on a set with E = L (the inner plan does not read E)."""
    from trunclap.sampling import noise_plan

    return noise_plan(TCL, MechanismParams(E=L, L=L, sigma=sigma, p=p)).inner


def assert_law(counts, law, bound: float) -> None:
    """TV check of the counts of an index drawn on [0, len(law)) against its
    exact law: the draw count is sized for `bound` (`sized_for`), the counts
    read below it, and, as a negative control, above it against that law
    with `bound` of mass taken from its lowest indices, index 0 first, and
    moved onto the next one: a law at TV `bound` from the exact one is told
    apart, the check's resolution.  (A law at 2 * bound or more reads above
    the bound by the triangle inequality alone.)"""
    law = np.asarray(law, dtype=float)
    n = int(np.sum(counts))
    assert len(counts) == len(law) and sized_for(bound, law, n)
    freq = np.asarray(counts) / n
    assert 0.5 * float(np.sum(np.abs(freq - law))) < bound
    control, left, i = law.copy(), bound, 0
    while left > 0:
        take = min(left, control[i])
        control[i] -= take
        left -= take
        i += 1
    control[i] += bound
    assert 0.5 * float(np.sum(np.abs(freq - control))) > bound


def assert_index_law(counts, m: int, bound: float) -> None:
    """`assert_law` of the counts of an index drawn on [0, m) against the
    exact law the picks of `segment_plan(m)` give on a uniform word
    (`sampling._segment_law`, the tail index's law)."""
    from trunclap.sampling import _segment_law, _uniform_bits
    from trunclap.tape import segment_plan

    plan = segment_plan(m)
    law = _segment_law(plan, _uniform_bits)
    assert_law(counts, [law[i] / (1 << 64 * plan.words) for i in range(m)], bound)


def as_fractions(law: dict, words: int) -> dict:
    """A law of numerators over 2^(64 * words) (`sampling.implemented_law`)
    as `Fraction`s without its zero masses, as `executed_law` gives one."""
    return {z: Fraction(m, 1 << 64 * words) for z, m in law.items() if m}


def word_classes(plan) -> list:
    """The classes of each word of one draw of a `NoisePlan`, in the order
    the draw reads them, as (representative, weight) lists: a word read
    only against a threshold t falls below it (t - 1, weight t / 2^64) or
    not (t, weight 1 - t / 2^64), and the tail word only through its low
    bits (each of its `tail.low + 1` values, equally likely).  A class of
    weight 0 is dropped."""
    def threshold(t):
        return [(w, m) for w, m in ((t - 1, Fraction(t, 2**64)), (t, 1 - Fraction(t, 2**64))) if m]

    inner, tail = plan.inner, plan.tail
    lows = [(v, Fraction(1, tail.low + 1)) for v in range(tail.low + 1)]
    zero = [] if inner.zero_threshold is None else [inner.zero_threshold]
    thresholds = [*zero, *inner.bit_thresholds, *inner.magnitude.picks, inner.sign_threshold]
    return ([threshold(plan.branch_threshold), lows, *map(threshold, tail.picks)]
            + list(map(threshold, thresholds)))


def executed_law(plan, xs: int, opened) -> dict:
    """Exact law, in output grid steps, of what the code behind `opened`
    opens at input xs (grid steps), in `Fraction`s: every combination of
    one draw's word classes (`word_classes`), laid out execution by
    execution on one stream of words, goes through `opened(xs, words, n)`,
    which returns the n values that stream opens, and each value sums the
    weights of its combinations."""
    combos = list(itertools.product(*word_classes(plan)))
    words = [w for combo in combos for w, _ in combo]
    law = {}
    for z, combo in zip(opened(xs, words, len(combos)), combos):
        z = int(z)
        law[z] = law.get(z, 0) + math.prod(m for _, m in combo)
    return law


def sized_for(bound: float, masses, n: int, delta: float = 1e-9) -> bool:
    """Whether n draws suffice for a TV check against `bound`: a faithful
    n-draw histogram of `masses` reads below it but for probability delta,
    its expected TV (`multinomial_tv_mean`) plus McDiarmid's term
    sqrt(ln(1/delta) / 2n) (one draw moves the TV by at most 1/n) staying
    under the bound."""
    mcdiarmid = math.sqrt(math.log(1.0 / delta) / (2 * n))
    return multinomial_tv_mean(masses, n) + mcdiarmid < bound


def mirrored_sized_for(bound: float, masses, n: int, delta: float = 1e-9) -> bool:
    """Whether n draws suffice for the mirrored check of a symmetric law,
    0.5 * sum_k |K_k - K_-k| / n (counts against reversed counts) below
    `bound` but for probability delta.  K_k - K_-k has mean 0 and variance
    2nq_k, so each pair of points adds about sqrt(4nq_k / pi) to the
    mean; one draw moves the statistic by at most 2/n, so McDiarmid's
    term is sqrt(2 ln(1/delta) / n)."""
    q = np.asarray(masses, dtype=float)
    mean = float(np.sum(np.sqrt(4 * n * q[len(q) // 2 + 1 :] / math.pi))) / n
    return mean + math.sqrt(2 * math.log(1.0 / delta) / n) < bound


class ReferenceTape:
    """The seeded word tape as one flat stream: the words
    Generator(PCG64(seed)).integers(0, 2^64, dtype=uint64) gives, read at
    one position, every read (words, blocks, residues) taking the next
    ones; a residue draw takes whole words and slices its residues out of
    them (`lane_residues`).  The oracle for `RandomTape`'s word stream and
    word counts."""

    def __init__(self, seed):
        self.words_consumed = 0  # the read position
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._stream = []  # the words drawn so far, as ints

    def _next(self, n: int) -> list:
        pos = self.words_consumed
        short = pos + n - len(self._stream)
        if short > 0:
            self._stream += self._gen.integers(0, 1 << 64, size=short, dtype=np.uint64).tolist()
        return self._stream[pos : pos + n]

    def word(self) -> int:
        (w,) = self._next(1)
        self.words_consumed += 1
        return w

    def peek_block(self, n: int) -> np.ndarray:
        return np.array(self._next(n), dtype=np.uint64)

    def skip(self, n: int) -> None:
        self.words_consumed += n

    def field_array(self, q: int, n: int) -> np.ndarray:
        words = self._next(-(-n // (64 // lane_bits(q))))
        self.words_consumed += len(words)
        return np.array(lane_residues(words, q, n), dtype=np.uint64)


def lane_bits(q: int) -> int:
    """The lane width of residues mod q = 2^k: the smallest of 8, 16, 32
    and 64 bits that holds q - 1."""
    return next(w for w in (8, 16, 32, 64) if (q - 1).bit_length() <= w)


def lane_residues(words, q: int, n: int) -> list:
    """The first n residues mod q that `words` hold, sliced out of Python
    ints: residue j is the low k bits of lane j, lane j being bits
    [w * (j mod l), w * (j mod l) + w) of word j // l, for the lane width
    w and the l = 64 / w lanes a word holds."""
    w = lane_bits(q)
    per = 64 // w
    return [words[j // per] >> (j % per * w) & (q - 1) for j in range(n)]


def reference_field_array(tape, q: int, n: int) -> np.ndarray:
    """`RandomTape.field_array` by `lane_residues`, on the whole words
    `tape.words` reads: what a dealer tape should hand out."""
    return np.array(lane_residues(tape.words(-(-n // (64 // lane_bits(q)))), q, n),
                    dtype=np.uint64)


def mux_composition(s, i, a, b, triple=None):
    """The mux as it was composed of wire calls, [a] + [i]*([b] - [a]): the
    oracle for `mux`, which runs the same Beaver step inline on the
    reconstructions (and checks its selector first)."""
    return s.add(a, s.mul(i, s.sub(b, a), triple))


def _loop_bits(E: float, L: float) -> tuple:
    """(e, headroom) by the loops that sized a ring's integer bits before
    `grids.ring_covering`: the smallest e >= 1 with 2^(e-1) > E, then the
    smallest headroom with 2^(e+headroom-1) > E + L, all in floats."""
    e = 1
    while 2.0 ** (e - 1) <= E:
        e += 1
    headroom = 0
    while 2.0 ** (e + headroom - 1) <= E + L:
        headroom += 1
    return e, headroom


def loop_field_q(E: float, L: float, p: int) -> int:
    """q of `field_for_mechanism(E, L, p)` as its two loops sized it:
    2^(p+e+headroom+1)."""
    return 1 << (p + sum(_loop_bits(E, L)) + 1)


def loop_mechanism_q(params) -> int:
    """q of `mechanism_field(params)` as its loop sized it: the headroom of
    `_loop_bits`, widened until the safe bound 2^(e+headroom-1) covers
    2E + L, the reach of the perturbation's sign test (a float sum)."""
    e, headroom = _loop_bits(params.E, params.L)
    while 2.0 ** (e + headroom - 1) < 2 * params.E + params.L:
        headroom += 1
    return 1 << (params.p + e + headroom + 1)


def ledger_delta(ledger, before: dict) -> dict:
    """A CostLedger's counts less an earlier `as_dict()` of it, by field."""
    return {k: v - before[k] for k, v in ledger.as_dict().items()}


@pytest.fixture
def small_params() -> MechanismParams:
    return MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)


@pytest.fixture
def table_params_p0() -> MechanismParams:
    return MechanismParams(E=64.0, L=32.0, sigma=8.0, p=0)


@pytest.fixture
def table_params_p2() -> MechanismParams:
    return MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
