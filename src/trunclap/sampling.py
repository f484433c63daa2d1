"""Trusted (non-MPC) reference samplers for the two mechanisms.

The centered discrete Laplace is drawn with a fixed sequence of
word-level Bernoulli draws -- the sequence the secure protocol evaluates
obliviously: a Bernoulli(c0) zero flag, a truncated geometric magnitude
and a fair sign.  The magnitude x' in [0, N), N = 2^p * L, has law
proportional to rho^x'.  Its kappa = floor(log2 N) binary digits are
independent Bernoulli(rho^(2^i) / (1 + rho^(2^i))) draws, which is the
whole magnitude when N is a power of two ("bitwise").  Otherwise [0, N)
splits into the P power-of-two segments of N's binary expansion
("segmented"): P - 1 Bernoulli draws pick a segment, each given that no
earlier one was picked, and the magnitude is the segment's start plus
the low bits of the same kappa-bit value.  Every threshold is a 64-bit
integer, so no float probe or table enters a draw.  The samplers consume
their words in a fixed order whatever the outcome (no early exit, and
the unused branch of the noise pair is still drawn).

The centered cumulative Laplace is the same magnitude m and sign on the
2^-p grid, without the zero flag: m if the sign is set, else -m - 1.
Step k carries rho^k (k >= 0) or rho^(-k-1), so the law is exactly
`centered_clap_pmf`.

Every draw plan is computed once and cached: `centered_dlap_config` and
`centered_clap_config` per (L, sigma, p) and `noise_plan` per (mechanism,
params), so a draw reads precomputed integers only.

The draw body (`_magnitude`, `_dlap_steps`, `_clap_steps`, `_inner`,
`_perturb_steps`) reads its words as Python ints (one sequential draw) or
as uint64 rows (one word of every execution of a block, for
`sample_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import tape as tape_module
from .grids import GridError, steps_of
from .mechanisms import (
    TCL,
    TDL,
    Mechanism,
    MechanismParams,
    dlap_zero_mass,
    outer_count,
)
from .tape import BlockScheduler, RandomTape, bernoulli_threshold, pow2_at_least


@dataclass(frozen=True)
class CenteredDlapConfig:
    """Precomputed draw plan for the centered discrete Laplace sampler.

    Words of one draw: the zero flag (none in TCL's plan), kappa magnitude
    bits, P - 1 segment choices, the sign.  Segment t covers x' in
    [start, start + 2^k_t) and keeps the low k_t bits (its mask) of the
    kappa-bit value.
    """

    L: float
    sigma: float
    p: int
    zero_threshold: int | None             # None: no zero flag (TCL's plan)
    sign_threshold: int
    bit_thresholds: tuple[int, ...]
    segment_thresholds: tuple[int, ...]    # P - 1; empty when steps is 2^kappa
    segments: tuple[tuple[int, int], ...]  # (start, mask) of each of the P segments
    steps: int                             # L in 2^-p steps
    step: float                            # 2^-p
    words_per_draw: int                    # kappa + P, plus 1 for the zero flag

    @property
    def kappa(self) -> int:
        return len(self.bit_thresholds)

    @property
    def method(self) -> str:
        return "segmented" if self.segment_thresholds else "bitwise"


@lru_cache(maxsize=128)
def centered_dlap_config(L: float, sigma: float, p: int) -> CenteredDlapConfig:
    steps = steps_of(L, p)
    if steps <= 0:
        raise ValueError("L must be positive on the grid")
    kappa = steps.bit_length() - 1
    # rho = e^(-a): bit i of the magnitude is Bernoulli(rho^(2^i) / (1 + rho^(2^i)))
    a = 1.0 / (2.0**p * sigma)
    rho = math.exp(-a)
    powers = (rho ** (2**i) for i in range(kappa))
    bits = tuple(bernoulli_threshold(r / (1.0 + r)) for r in powers)
    # the set bits k of steps, highest first; segment t starts at steps with
    # its bits up to k_t cleared, and is picked, given no earlier one was,
    # with its share of the mass left: (1 - rho^(2^k_t)) / (1 - rho^(steps - start)).
    # Past 1/2 the threshold comes from the complement, so that the less
    # likely side keeps its relative precision
    segments = tuple(
        ((steps >> (k + 1)) << (k + 1), (1 << k) - 1) for k in range(kappa, -1, -1) if steps >> k & 1
    )
    choices = []
    for start, mask in segments[:-1]:
        size, left = mask + 1, math.expm1(-a * (steps - start))
        pick = math.expm1(-a * size) / left
        skip = math.exp(-a * size) * math.expm1(-a * (steps - start - size)) / left
        choices.append(bernoulli_threshold(pick) if pick <= 0.5 else 2**64 - bernoulli_threshold(skip))
    return CenteredDlapConfig(
        L=L,
        sigma=sigma,
        p=p,
        zero_threshold=bernoulli_threshold(dlap_zero_mass(L, sigma, p)),
        sign_threshold=bernoulli_threshold(0.5),
        bit_thresholds=bits,
        segment_thresholds=tuple(choices),
        segments=segments,
        steps=steps,
        step=2.0**-p,
        words_per_draw=kappa + 1 + len(segments),
    )


def sample_dlap_centered(L: float, sigma: float, p: int, tape: RandomTape) -> float:
    """Draw from the centered discrete Laplace on [-L, L] at step 2^-p.

    (1) Bernoulli(c0) zero flag, (2) truncated geometric magnitude x' in
    [0, 2^p*L) giving x = x'+1, from kappa bits and, unless 2^p*L is a
    power of two, a segment choice, (3) fair sign.  All kappa + 1 + P
    words are consumed whatever the outcome.
    """
    cfg = centered_dlap_config(L, sigma, p)
    return _dlap_steps(cfg, tape.words(cfg.words_per_draw)) * cfg.step


def _magnitude(cfg: CenteredDlapConfig, w, first: int):
    """The truncated geometric magnitude in [0, 2^p L) of one draw, from its
    kappa bit words w[first:] and the P - 1 segment words after them."""
    m = 0
    for i, threshold in enumerate(cfg.bit_thresholds):
        m += (w[first + i] < threshold) << i
    if cfg.segment_thresholds:
        # the first segment whose word falls below its threshold, else the
        # last; blended from the last back, so rows need no index
        start, mask = cfg.segments[-1]
        for t in range(len(cfg.segment_thresholds) - 1, -1, -1):
            chosen = w[first + cfg.kappa + t] < cfg.segment_thresholds[t]
            s, k = cfg.segments[t]
            start, mask = start + chosen * (s - start), mask + chosen * (k - mask)
        m = start + (m & mask)
    return m


def _dlap_steps(cfg: CenteredDlapConfig, w) -> int:
    """One centered discrete Laplace draw, in 2^-p steps, from its words:
    zero flag, magnitude bits, segment choices and sign."""
    x = _magnitude(cfg, w, 1) + 1
    return (w[0] >= cfg.zero_threshold) * (2 * (w[-1] < cfg.sign_threshold) - 1) * x


@lru_cache(maxsize=128)
def centered_clap_config(L: float, sigma: float, p: int) -> CenteredDlapConfig:
    """TCL's inner plan: the centred discrete Laplace plan without its zero
    flag, so a draw reads kappa + P words."""
    cfg = centered_dlap_config(L, sigma, p)
    return replace(cfg, zero_threshold=None, words_per_draw=cfg.words_per_draw - 1)


def _clap_steps(cfg: CenteredDlapConfig, w):
    """One centered cumulative Laplace draw, in 2^-p steps, from the words
    of a `centered_clap_config` plan: the magnitude m if the sign word falls
    below its threshold, else -m - 1."""
    m = _magnitude(cfg, w, 0)
    return (w[-1] < cfg.sign_threshold) * (2 * m + 1) - m - 1


def sample_clap_centered(L: float, sigma: float, p: int, tape: RandomTape) -> float:
    """Draw from the centered cumulative Laplace on [-L, L) at step 2^-p,
    exactly `centered_clap_pmf` (see the module docstring)."""
    cfg = centered_clap_config(L, sigma, p)
    return _clap_steps(cfg, tape.words(cfg.words_per_draw)) * cfg.step


def retired_gamma(gamma: int) -> None:
    """Check the inner-lattice precision that `sample_tcl`, `pi_cl`,
    `pi_c_noise`, `run_batch`, `make_session` and `mechanism_field` still
    take for the benchmark's calls.  TCL draws on the 2^-p grid, so gamma
    changes nothing; only gamma < 0 is refused.  Direction 5 deletes it."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")


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

    One per (mechanism, params), from `noise_plan`: the branch bit's
    threshold, the uniform tail's size and the grid step counts.  `inner`,
    the centered sampler's plan (`centered_clap_config` for TCL), is built
    on first use, so a perturbation alone builds none.
    """

    mech: Mechanism
    params: MechanismParams
    branch_threshold: int  # Bernoulli threshold of the inner branch
    outer_count: int       # uniform tail indices, 2 * 2^p * E
    tail_mask: int         # a uniform attempt keeps these bits of its word
    Es: int                # E in 2^-p steps
    Ls: int                # L in 2^-p steps

    @cached_property
    def inner(self) -> CenteredDlapConfig:
        P = self.params
        config = centered_clap_config if self.mech.cumulative else centered_dlap_config
        return config(P.L, P.sigma, P.p)

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


@lru_cache(maxsize=128)
def noise_plan(mech: Mechanism, params: MechanismParams) -> NoisePlan:
    """The cached `NoisePlan` of a mechanism instance."""
    Ls = steps_of(params.L, params.p)
    tail_mask = pow2_at_least(outer_count(params)) - 1
    # a block of sample_batch holds in int64 the tail index (masking an
    # int64 row), the upper tail's shift 2Ls + high_offset and the inner
    # draw (TCL's 2m + 1 < 2Ls); every path reads this plan, so all accept
    # the same sets
    if tail_mask >= 1 << 63 or Ls >= 1 << 62:
        raise ValueError(f"{params} needs a tail index, inner draw or output shift "
                         "past 63 bits; pick a smaller p")
    return NoisePlan(
        mech=mech,
        params=params,
        branch_threshold=bernoulli_threshold(mech.branch_probability(params)),
        outer_count=outer_count(params),
        tail_mask=tail_mask,
        Es=steps_of(params.E, params.p),
        Ls=Ls,
    )


def _inner(plan: NoisePlan, w):
    """The inner draw, in 2^-p steps."""
    return (_clap_steps if plan.mech.cumulative else _dlap_steps)(plan.inner, w)


def _perturb_steps(plan: NoisePlan, xs, branch, a, b):
    """`perturb` in 2^-p steps, of the tail index a and the inner draw b."""
    Es, Ls, hi = plan.Es, plan.Ls, plan.mech.high_offset
    outer = a - Es + Ls + hi - (a < Es + xs) * (2 * Ls + hi)
    return outer + branch * (xs + b - outer)


def _noise_steps(plan: NoisePlan, tape: RandomTape):
    """The sequential noise draw: (branch, tail index, inner steps)."""
    branch = tape.word() < plan.branch_threshold
    a = plan.outer_count
    while a >= plan.outer_count:  # uniform attempts on the next power of two
        a = tape.word() & plan.tail_mask
    return branch, a, _inner(plan, tape.words(plan.inner.words_per_draw))


def _sample_steps(plan: NoisePlan, xs: int, tape: RandomTape) -> int:
    return _perturb_steps(plan, xs, *_noise_steps(plan, tape))


def noise(mech: Mechanism, params: MechanismParams, tape: RandomTape) -> NoisePair:
    """Input-independent noise draw of a discrete mechanism.

    Draw order is fixed (branch word, uniform word(s), inner draw) and the
    unused branch is still consumed, mirroring the oblivious protocol.
    The inner draw is the centered discrete Laplace, or for TCL the
    cumulative one.
    """
    plan = noise_plan(mech, params)
    branch, a, b = _noise_steps(plan, tape)
    return NoisePair(branch=int(branch), payload=b * params.step if branch else a)


def perturb(mech: Mechanism, x: float, pair: NoisePair, params: MechanismParams) -> float:
    """Map a noise pair and input x to the perturbed value.

    Branch 0 splits the uniform index at 2^p*(E+x)-1 into the two flat
    tails (the upper one starts at x+L+2^-p for TDL, at x+L for TCL);
    branch 1 adds the centered noise to x.  The composite law of
    perturb(noise()) is exactly the mechanism's mass function.  A pair
    `noise` cannot draw raises ValueError: a tail index that is not an
    integer in [0, 2*2^p*E), or centred noise off the 2^-p grid or
    outside the inner support ([-L, L] for TDL, [-L, L) for TCL).
    """
    plan = noise_plan(mech, params)
    xs = plan.input_steps(x)
    if pair.branch:
        a, b = 0, steps_of(pair.payload, params.p)
        top = plan.Ls - 1 if mech.cumulative else plan.Ls
        if not -plan.Ls <= b <= top:
            raise ValueError(
                f"centred noise {pair.payload} outside the inner support of {mech.name}"
            )
    else:
        a, b = pair.payload, 0
        if not (float(a).is_integer() and 0 <= a < plan.outer_count):
            raise ValueError(f"uniform index {a} is not an integer in [0, {plan.outer_count})")
        a = int(a)
    return _perturb_steps(plan, xs, pair.branch, a, b) * params.step


def sample_tdl(x: float, params: MechanismParams, tape: RandomTape) -> float:
    plan = noise_plan(TDL, params)
    return _sample_steps(plan, plan.input_steps(x), tape) * params.step


def sample_tcl(x: float, params: MechanismParams, tape: RandomTape, gamma: int = 0) -> float:
    """One TCL draw at input x; `gamma` changes nothing (`retired_gamma`)."""
    retired_gamma(gamma)
    plan = noise_plan(TCL, params)
    return _sample_steps(plan, plan.input_steps(x), tape) * params.step


def sample_batch(mech: Mechanism, x: float, params: MechanismParams, n: int, seed: int) -> np.ndarray:
    """n draws at input x from one seeded tape, in blocks (`BlockScheduler`)
    whose row j holds word j of every execution; values and the tape's word
    count equal those of n `sample_tdl`/`sample_tcl` calls."""
    if n < 0:
        raise ValueError("n must be >= 0")
    plan = noise_plan(mech, params)
    xs = plan.input_steps(x)
    tape = RandomTape(seed)
    words = plan.words_per_draw

    def commit(k: int) -> None:
        tape.skip(k * words)

    def evaluate(size: int):
        rows = tape.peek_block(size * words).reshape(size, words).T
        a = rows[1].view(np.int64) & plan.tail_mask  # the mask clears the sign
        rejected = a >= plan.outer_count
        kept = int(np.argmax(rejected)) if rejected.any() else size
        b = _inner(plan, rows[2:])
        return kept, _perturb_steps(plan, xs, rows[0] < plan.branch_threshold, a, b), commit

    blocks = BlockScheduler(evaluate, lambda: _sample_steps(plan, xs, tape), tape_module.BATCH_BLOCK)
    return blocks.take(n) * params.step


def sample_tdl_batch(x: float, params: MechanismParams, n: int, seed: int) -> np.ndarray:
    """`sample_batch` of TDL."""
    return sample_batch(TDL, x, params, n, seed)
