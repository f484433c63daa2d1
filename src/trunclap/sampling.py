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
direction 1).  The configuration flags which method is active.

Every draw plan is computed once and cached: `centered_dlap_config` per
(L, sigma, p) and `noise_plan` per (mechanism, params, inner lattice),
so a draw reads precomputed integers only.

The draw body (`_dlap_steps`, `_tail`, `_inner`, `_perturb_steps`) reads
its words as Python ints (one sequential draw) or as uint64 rows (one
word of every execution of a block, for `sample_batch`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grids import GridError, steps_of
from .mechanisms import (
    TCL,
    TDL,
    Mechanism,
    MechanismParams,
    centered_dlap_pmf,
    dlap_zero_mass,
    outer_count,
)
from .tape import RandomTape, bernoulli_threshold, pow2_at_least, run_in_blocks

# cells a table-path CDF may hold (2 * 2^p * L + 1); far above the 12,289
# of the largest table in use (TCL at gamma=8 on L=24, p=0)
MAX_TABLE_CELLS = 1 << 20


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

    @cached_property
    def cdf_array(self) -> np.ndarray:
        return np.array(self.cdf)


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
    return _dlap_steps(cfg, tape.words(cfg.words_per_draw)) * cfg.step


def _dlap_steps(cfg: CenteredDlapConfig, w) -> int:
    """One centered discrete Laplace draw, in 2^-p steps, from its words:
    zero flag, magnitude bits and sign, or the table path's one word."""
    if cfg.method == "table":
        u = w[0] / 2.0**64
        # bisect_right on the non-decreasing float CDF is searchsorted's
        # side="right"; u == 1.0 lands past the end and is clamped
        scalar = isinstance(u, float)
        i = bisect_right(cfg.cdf, u) if scalar else np.searchsorted(cfg.cdf_array, u, "right")
        return i - (i == len(cfg.cdf)) - cfg.steps
    x = 1
    for i, threshold in enumerate(cfg.bit_thresholds):
        x += (w[i + 1] < threshold) << i
    return (w[0] >= cfg.zero_threshold) * (2 * (w[-1] < cfg.sign_threshold) - 1) * x


def _clap_attempt(cfg: CenteredDlapConfig, gamma: int, w):
    """(coarse steps, rejected) of a fine-lattice draw: +L is rejected
    (the half-open support), any other value floored by 2^gamma."""
    v = _dlap_steps(cfg, w)
    return v >> gamma, v == cfg.steps


def _redraw(tape: RandomTape, words: int, attempt, *args):
    """The first `attempt(*args, w)` not rejected, each on `words` fresh words."""
    while True:
        v, rejected = attempt(*args, tape.words(words))
        if not rejected:
            return v


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
    cfg = centered_dlap_config(L, sigma, p + gamma)
    return _redraw(tape, cfg.words_per_draw, _clap_attempt, cfg, gamma) * 2.0**-p


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
    tail_mask: int         # a uniform attempt keeps these bits of its word
    Es: int                # E in 2^-p steps
    Ls: int                # L in 2^-p steps

    @cached_property
    def inner(self) -> CenteredDlapConfig:
        P = self.params
        return centered_dlap_config(P.L, P.sigma, P.p + self.fine_bits)

    @property
    def words_per_draw(self) -> int:
        """Words of one noise draw without rejections, in this order: the
        branch word, the tail word, then the inner draw's words."""
        return 2 + self.inner.words_per_draw

    def input_steps(self, x: float) -> int:
        """x in 2^-p steps; GridError if x is off the grid or outside [-E, E]."""
        xs = steps_of(x, self.params.p)
        if abs(xs) > self.Es:
            raise GridError(f"x={x} outside [-E, E] = [{-self.params.E}, {self.params.E}]")
        return xs


def noise_plan(mech: Mechanism, params: MechanismParams, gamma: int = 8) -> NoisePlan:
    """The cached `NoisePlan` of a mechanism instance.

    Keyed on the inner lattice, so every gamma shares TDL's plan and a
    perturbation (which reads no inner lattice) takes the coarse one,
    gamma 0.
    """
    return _noise_plan(mech, params, mech.fine_bits(gamma))


@lru_cache(maxsize=128)
def _noise_plan(mech: Mechanism, params: MechanismParams, fine_bits: int) -> NoisePlan:
    if fine_bits < 0:
        raise ValueError("gamma must be >= 0")
    Ls = steps_of(params.L, params.p)
    tail_mask = pow2_at_least(outer_count(params)) - 1
    # a block of sample_batch holds in int64 the tail index (masking an
    # int64 row), the upper tail's shift 2Ls + high_offset and the inner
    # magnitude (up to Ls << fine_bits); every path reads this plan, so all
    # accept the same sets
    if tail_mask >= 1 << 63 or Ls >= 1 << 62 or Ls << fine_bits > 1 << 62:
        raise ValueError(f"{params} at {fine_bits} fine bits needs a tail index, inner "
                         "draw or output shift past 63 bits; pick a smaller p (or gamma)")
    return NoisePlan(
        mech=mech,
        params=params,
        fine_bits=fine_bits,
        branch_threshold=bernoulli_threshold(mech.branch_probability(params)),
        outer_count=outer_count(params),
        tail_mask=tail_mask,
        Es=steps_of(params.E, params.p),
        Ls=Ls,
    )


def _tail(plan: NoisePlan, w):
    """One uniform attempt at a tail index on the next power of two:
    (index, rejected).  Rows are int64 views; the mask clears the sign."""
    a = w[0] & plan.tail_mask
    return a, a >= plan.outer_count


def _inner(plan: NoisePlan, w):
    """One attempt of the inner draw, in 2^-p steps: (steps, rejected)."""
    if plan.mech.cumulative:
        return _clap_attempt(plan.inner, plan.fine_bits, w)
    return _dlap_steps(plan.inner, w), False


def _perturb_steps(plan: NoisePlan, xs, branch, a, b):
    """`perturb` in 2^-p steps, of the tail index a and the inner draw b."""
    Es, Ls, hi = plan.Es, plan.Ls, plan.mech.high_offset
    outer = a - Es + Ls + hi - (a < Es + xs) * (2 * Ls + hi)
    return outer + branch * (xs + b - outer)


def _noise_steps(plan: NoisePlan, tape: RandomTape, branch_threshold: int):
    """The sequential noise draw: (branch, tail index, inner steps)."""
    branch = tape.word() < branch_threshold
    a = _redraw(tape, 1, _tail, plan)
    return branch, a, _redraw(tape, plan.inner.words_per_draw, _inner, plan)


def _sample_steps(plan: NoisePlan, xs: int, tape: RandomTape) -> int:
    return _perturb_steps(plan, xs, *_noise_steps(plan, tape, plan.branch_threshold))


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
    branch, a, b = _noise_steps(plan, tape, threshold)
    return NoisePair(branch=int(branch), payload=b * params.step if branch else a)


def perturb(mech: Mechanism, x: float, pair: NoisePair, params: MechanismParams) -> float:
    """Map a noise pair and input x to the perturbed value.

    Branch 0 splits the uniform index at 2^p*(E+x)-1 into the two flat
    tails (the upper one starts at x+L+2^-p for TDL, at x+L for TCL);
    branch 1 adds the centered noise to x.  The composite law of
    perturb(noise()) is exactly the mechanism's mass function.
    """
    plan = noise_plan(mech, params, 0)
    xs = plan.input_steps(x)
    a, b = (0, steps_of(pair.payload, params.p)) if pair.branch else (int(pair.payload), 0)
    if not 0 <= a < plan.outer_count:
        raise ValueError(f"uniform index {a} out of range")
    return _perturb_steps(plan, xs, pair.branch, a, b) * params.step


def sample_tdl(x: float, params: MechanismParams, tape: RandomTape) -> float:
    plan = noise_plan(TDL, params)
    return _sample_steps(plan, plan.input_steps(x), tape) * params.step


def sample_tcl(
    x: float, params: MechanismParams, tape: RandomTape, gamma: int = 8
) -> float:
    plan = noise_plan(TCL, params, gamma)
    return _sample_steps(plan, plan.input_steps(x), tape) * params.step


def sample_batch(
    mech: Mechanism, x: float, params: MechanismParams, n: int, seed: int, gamma: int = 8
) -> np.ndarray:
    """n draws at input x from one seeded tape, in blocks (`run_in_blocks`)
    whose row j holds word j of every execution; values and the tape's word
    count equal those of n `sample_tdl`/`sample_tcl` calls."""
    if n < 0:
        raise ValueError("n must be >= 0")
    plan = noise_plan(mech, params, gamma)
    xs = plan.input_steps(x)
    tape = RandomTape(seed)
    words = plan.words_per_draw

    def block(size: int) -> tuple[int, np.ndarray]:
        rows = tape.peek_block(size * words).reshape(size, words).T
        a, tail_rejected = _tail(plan, rows[1:2].view(np.int64))
        b, inner_rejected = _inner(plan, rows[2:])
        rejected = tail_rejected | inner_rejected
        kept = int(np.argmax(rejected)) if rejected.any() else size
        tape.skip(kept * words)
        return kept, _perturb_steps(plan, xs, rows[0] < plan.branch_threshold, a, b)

    return run_in_blocks(n, block, lambda: _sample_steps(plan, xs, tape)) * params.step


def sample_tdl_batch(x: float, params: MechanismParams, n: int, seed: int) -> np.ndarray:
    """`sample_batch` of TDL."""
    return sample_batch(TDL, x, params, n, seed)
