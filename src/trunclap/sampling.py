"""Trusted (non-MPC) reference samplers for the two mechanisms.

The centered discrete Laplace is drawn with a three-step procedure: a
Bernoulli(c0) zero flag, a bitwise-sampled truncated geometric for the
magnitude, and a fair sign.  Each binary digit of the geometric value is
an independent Bernoulli(rho^(2^i) / (1 + rho^(2^i))) draw, which makes
the whole construction a fixed sequence of word-level Bernoulli draws --
the same sequence the secure protocol evaluates obliviously.  For that
reason the samplers here consume their random words in a fixed order
regardless of which branch the outcome takes (no early exit, and the
unused branch of the noise pair is still drawn).

The centered cumulative Laplace is approximated by sampling the discrete
Laplace on a 2^-(p+gamma) lattice and flooring to the coarse grid; the
single fine point at +L is rejected and redrawn, which realizes the
half-open support exactly.

Noise bounds whose step count 2^p * L is not a power of two cannot use
the bitwise path; they fall back to a table path (one word per draw): a
float64 cumsum of the centered pmf, probed at u = word / 2^64.  u has
53-bit resolution, and words close enough to 2^64 that u rounds to 1.0
are clamped into the last cell, so the table path samples the float
CDF's law, not the exact one (an integer-threshold CDF is ROADMAP
direction 4).  The configuration flags which method is active.

Every draw plan is computed once and cached: `centered_dlap_config` per
(L, sigma, p) and `noise_plan` per (mechanism, params, inner lattice),
so a draw reads precomputed integers only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grids import steps_of
from .mechanisms import (
    TCL,
    TDL,
    Mechanism,
    MechanismParams,
    centered_dlap_pmf,
    outer_count,
)
from .tape import RandomTape, bernoulli_threshold

# cells a table-path CDF may hold (2 * 2^p * L + 1); far above the 12,289
# of the largest table in use (TCL at gamma=8 on L=24, p=0)
MAX_TABLE_CELLS = 1 << 20


def dlap_zero_mass(L: float, sigma: float, p: int) -> float:
    """c0 = P[0] of the centered discrete Laplace on [-L, L] at step 2^-p.

    Computed from the closed-form normalizer, not by floating summation.
    """
    h = 2.0 ** -p
    lam = 1.0 + 2.0 * (-math.expm1(-L / sigma)) / math.expm1(h / sigma)
    return 1.0 / lam


@dataclass(frozen=True)
class CenteredDlapConfig:
    """Precomputed draw plan for the centered discrete Laplace sampler."""

    L: float
    sigma: float
    p: int
    method: str                      # "bitwise" | "table"
    zero_threshold: int
    sign_threshold: int
    bit_thresholds: tuple[int, ...]  # empty in table mode
    cdf: tuple[float, ...]           # empty in bitwise mode
    steps: int                       # L in 2^-p steps
    step: float                      # 2^-p
    words_per_draw: int              # 1 in table mode, else kappa + 2

    @property
    def kappa(self) -> int:
        return len(self.bit_thresholds)


@lru_cache(maxsize=128)
def centered_dlap_config(L: float, sigma: float, p: int) -> CenteredDlapConfig:
    steps = steps_of(L, p)
    if steps <= 0:
        raise ValueError("L must be positive on the grid")
    bitwise = steps & (steps - 1) == 0
    bits: tuple[int, ...] = ()
    cdf: tuple[float, ...] = ()
    if bitwise:
        # 2^p*L = 2^kappa, so the magnitude x' in [0, 2^kappa) takes kappa
        # bits; its law rho^x' (rho = e^(-1/(2^p sigma))) makes bit i an
        # independent Bernoulli(rho^(2^i) / (1 + rho^(2^i)))
        rho = math.exp(-1.0 / (2.0**p * sigma))
        powers = (rho ** (2**i) for i in range(steps.bit_length() - 1))
        bits = tuple(bernoulli_threshold(r / (1.0 + r)) for r in powers)
    elif 2 * steps + 1 > MAX_TABLE_CELLS:
        raise ValueError(
            f"the table sampler for 2^p * L = {steps} steps needs {2 * steps + 1} "
            f"cells, more than {MAX_TABLE_CELLS}; pick L so that 2^p * L is a "
            "power of two, or a smaller p (or gamma)"
        )
    else:
        cdf = tuple(np.cumsum(centered_dlap_pmf(L, sigma, p).masses).tolist())
    return CenteredDlapConfig(
        L=L,
        sigma=sigma,
        p=p,
        method="bitwise" if bitwise else "table",
        zero_threshold=bernoulli_threshold(dlap_zero_mass(L, sigma, p)),
        sign_threshold=bernoulli_threshold(0.5),
        bit_thresholds=bits,
        cdf=cdf,
        steps=steps,
        step=2.0**-p,
        words_per_draw=len(bits) + 2 if bitwise else 1,
    )


def sample_dlap_centered(L: float, sigma: float, p: int, tape: RandomTape) -> float:
    """Draw from the centered discrete Laplace on [-L, L] at step 2^-p.

    Bitwise path: (1) Bernoulli(c0) zero flag, (2) geometric magnitude
    x' in [0, 2^p*L) giving x = x'+1, (3) fair sign.  All kappa+2 words
    are consumed whatever the outcome.  If 2^p*L is not a power of two
    the float inverse-CDF table is used instead (one word).
    """
    cfg = centered_dlap_config(L, sigma, p)
    return _dlap_steps(cfg, tape) * cfg.step


def _dlap_steps(cfg: CenteredDlapConfig, tape: RandomTape) -> int:
    """One centered discrete Laplace draw, in 2^-p steps."""
    if cfg.method == "table":
        # bisect_right on the non-decreasing float CDF is searchsorted's
        # side="right"; u == 1.0 lands past the end and is clamped
        i = bisect_right(cfg.cdf, tape.word() / 2.0**64)
        return min(i, len(cfg.cdf) - 1) - cfg.steps
    w = tape.words(cfg.words_per_draw)  # zero flag, magnitude bits, sign
    x = 1
    for i, threshold in enumerate(cfg.bit_thresholds):
        if w[i + 1] < threshold:
            x += 1 << i
    if w[0] < cfg.zero_threshold:
        return 0
    return x if w[-1] < cfg.sign_threshold else -x


def _clap_steps(cfg: CenteredDlapConfig, gamma: int, tape: RandomTape) -> int:
    """One centered cumulative draw, in coarse 2^-(p_fine - gamma) steps.

    `cfg` is the fine lattice's plan: fine draws are redrawn while they
    hit +L, then floored by 2^gamma.
    """
    while True:
        v = _dlap_steps(cfg, tape)
        if v != cfg.steps:
            return v >> gamma


def sample_clap_centered(
    L: float, sigma: float, p: int, gamma: int, tape: RandomTape
) -> float:
    """Approximate draw from the centered cumulative Laplace on [-L, L).

    Samples the discrete Laplace on the fine lattice 2^-(p+gamma), rejects
    the single fine point +L (the half-open support), and floors to the
    coarse grid.  Larger gamma tightens the approximation.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return _clap_steps(centered_dlap_config(L, sigma, p + gamma), gamma, tape) * 2.0**-p


@dataclass(frozen=True)
class NoisePair:
    """Branch bit and payload from the two-phase noise draw.

    branch 0 carries a uniform index in [0, 2*2^p*E); branch 1 carries the
    centered noise value ([-L, L] for the discrete variant, [-L, L) for
    the cumulative one).
    """

    branch: int
    payload: float

    def __post_init__(self):
        if self.branch not in (0, 1):
            raise ValueError("branch must be 0 or 1")


@dataclass(frozen=True)
class NoisePlan:
    """What the noise draw and the perturbation of a mechanism read.

    One per (mechanism, params, fine bits), from `noise_plan`: the branch
    bit's threshold, the uniform tail's size and the grid step counts.
    `inner`, the centered sampler's plan on the 2^-(p + fine_bits)
    lattice, is built on first use, so a perturbation alone builds no
    table.
    """

    mech: Mechanism
    params: MechanismParams
    fine_bits: int         # inner lattice bits below 2^-p: TCL's gamma, 0 for TDL
    branch_threshold: int  # Bernoulli threshold of the inner branch
    outer_count: int       # uniform tail indices, 2 * 2^p * E
    Es: int                # E in 2^-p steps
    Ls: int                # L in 2^-p steps

    @cached_property
    def inner(self) -> CenteredDlapConfig:
        P = self.params
        return centered_dlap_config(P.L, P.sigma, P.p + self.fine_bits)


def noise_plan(mech: Mechanism, params: MechanismParams, gamma: int = 8) -> NoisePlan:
    """The cached `NoisePlan` of a mechanism instance.

    Keyed on the inner lattice, so every gamma shares TDL's plan and a
    perturbation (which reads no gamma) shares the default-gamma one.
    """
    return _noise_plan(mech, params, mech.fine_bits(gamma))


@lru_cache(maxsize=128)
def _noise_plan(mech: Mechanism, params: MechanismParams, fine_bits: int) -> NoisePlan:
    if fine_bits < 0:
        raise ValueError("gamma must be >= 0")
    return NoisePlan(
        mech=mech,
        params=params,
        fine_bits=fine_bits,
        branch_threshold=bernoulli_threshold(mech.branch_probability(params)),
        outer_count=outer_count(params),
        Es=steps_of(params.E, params.p),
        Ls=steps_of(params.L, params.p),
    )


def noise(
    mech: Mechanism,
    params: MechanismParams,
    tape: RandomTape,
    gamma: int = 8,
    *,
    branch_prob: float | None = None,
) -> NoisePair:
    """Input-independent noise draw of a discrete mechanism.

    Draw order is fixed (branch word, uniform word(s), inner draw) and the
    unused branch is still consumed, mirroring the oblivious protocol.
    The inner draw is the centered discrete Laplace, or for TCL the
    cumulative one at fine precision gamma.  `branch_prob` overrides the
    Bernoulli parameter (test stub injection).
    """
    plan = noise_plan(mech, params, gamma)
    threshold = plan.branch_threshold if branch_prob is None else bernoulli_threshold(branch_prob)
    return _noise(plan, tape, threshold)


def _noise(plan: NoisePlan, tape: RandomTape, branch_threshold: int) -> NoisePair:
    branch = tape.bernoulli_thresholded(branch_threshold)
    a = tape.uniform(plan.outer_count)
    if plan.mech.cumulative:
        b = _clap_steps(plan.inner, plan.fine_bits, tape)
    else:
        b = _dlap_steps(plan.inner, tape)
    return NoisePair(branch=branch, payload=b * plan.params.step if branch else a)


def perturb(mech: Mechanism, x: float, pair: NoisePair, params: MechanismParams) -> float:
    """Map a noise pair and input x to the perturbed value.

    Branch 0 splits the uniform index at 2^p*(E+x)-1 into the two flat
    tails (the upper one starts at x+L+2^-p for TDL, at x+L for TCL);
    branch 1 adds the centered noise to x.  The composite law of
    perturb(noise()) is exactly the mechanism's mass function.
    """
    return _perturb(noise_plan(mech, params), x, pair)


def _perturb(plan: NoisePlan, x: float, pair: NoisePair) -> float:
    xs = steps_of(x, plan.params.p)
    Es, Ls = plan.Es, plan.Ls
    if abs(xs) > Es:
        raise ValueError(f"x={x} outside [-E, E]")
    h = plan.params.step
    if pair.branch:
        return x + pair.payload
    y = int(pair.payload)
    if not 0 <= y < 2 * Es:
        raise ValueError(f"uniform index {y} out of range")
    if y <= Es + xs - 1:
        return (-Ls - Es + y) * h
    return (Ls - Es + y + plan.mech.high_offset) * h


def sample_tdl(x: float, params: MechanismParams, tape: RandomTape) -> float:
    plan = noise_plan(TDL, params)
    return _perturb(plan, x, _noise(plan, tape, plan.branch_threshold))


def sample_tcl(
    x: float, params: MechanismParams, tape: RandomTape, gamma: int = 8
) -> float:
    plan = noise_plan(TCL, params, gamma)
    return _perturb(plan, x, _noise(plan, tape, plan.branch_threshold))


def sample_batch(
    mech: Mechanism, x: float, params: MechanismParams, n: int, seed: int, gamma: int = 8
) -> np.ndarray:
    """n draws at input x from one seeded tape.

    TDL runs `sample_tdl_batch`; TCL, whose +L redraws give its draws
    varying word counts, runs the sequential sampler.
    """
    if not mech.cumulative:
        return sample_tdl_batch(x, params, n, seed)
    if n < 0:
        raise ValueError("n must be >= 0")
    tape = RandomTape(seed)
    return np.array([sample_tcl(x, params, tape, gamma) for _ in range(n)])


def sample_tdl_batch(
    x: float, params: MechanismParams, n: int, seed: int
) -> np.ndarray:
    """Vectorized TDL sampling, word-for-word equal to the sequential path.

    Requires the bitwise inner sampler and a power-of-two outer count so
    that every sample consumes a fixed number of words; other parameter
    shapes fall back to the sequential loop.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    plan = noise_plan(TDL, params)
    cfg, M = plan.inner, plan.outer_count
    if cfg.method != "bitwise" or M & (M - 1) != 0:
        tape = RandomTape(seed)
        return np.array([sample_tdl(x, params, tape) for _ in range(n)])
    if n == 0:
        return np.empty(0)
    xs = steps_of(x, params.p)
    Es, Ls = plan.Es, plan.Ls
    kappa = cfg.kappa
    gen = np.random.Generator(np.random.PCG64(seed))
    w = gen.integers(0, 1 << 64, size=(n, kappa + 4), dtype=np.uint64)
    branch = w[:, 0] < np.uint64(plan.branch_threshold)
    a = (w[:, 1] & np.uint64(M - 1)).astype(np.int64)
    zero = w[:, 2] < np.uint64(cfg.zero_threshold)
    mag = np.zeros(n, dtype=np.int64)
    for i, thr in enumerate(cfg.bit_thresholds):
        mag |= (w[:, 3 + i] < np.uint64(thr)).astype(np.int64) << i
    sign = np.where(w[:, 3 + kappa] < np.uint64(cfg.sign_threshold), 1, -1)
    inner = np.where(zero, 0, sign * (mag + 1))
    outer = np.where(a <= Es + xs - 1, -Ls - Es + a, Ls - Es + a + 1)
    z_steps = np.where(branch, xs + inner, outer)
    return z_steps * params.step
