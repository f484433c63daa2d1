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

Every draw plan is computed once and cached: `centered_dlap_config` per
(L, sigma, p) and `noise_plan`, TCL's inner plan included, per (mechanism,
params), so a draw reads precomputed integers only.

The tail index on [0, 2*2^p*E) is drawn the same way, without rejection
(`tape.segment_plan`): each segment choice, the magnitude's and the tail
index's, is a `tape.SegmentPlan` that `tape.pick_segment` reads.  The
draw body (`_noise_steps`, `_dlap_steps`, `_clap_steps`, `_perturb_steps`,
and the magnitude `tape._magnitude`, which the secure protocols share)
reads its words as Python ints (one sequential draw) or as uint64 rows
(one word of every execution of a block, for `sample_batch`).
`implemented_law` gives the exact law a plan's thresholds implement.
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
    _check_positive,
    _normalizer,
)
from .tape import (_WORD_MOD, BlockScheduler, RandomTape, SegmentPlan, _magnitude,
                   bernoulli_threshold, pick_segment, row_constant, segment_plan)


@dataclass(frozen=True)
class CenteredDlapConfig:
    """Precomputed draw plan for the centered discrete Laplace sampler.

    Words of one draw: the zero flag (none in TCL's plan), kappa magnitude
    bits, P - 1 segment choices (`magnitude`), the sign.  Segment t covers
    x' in [start, start + 2^k_t) and keeps the low k_t bits (its mask) of
    the kappa-bit value.  It holds only what a draw reads: N is where the
    last segment ends, and a sampler scales its steps by 2^-p.
    """

    zero_threshold: int | None   # None: no zero flag (TCL's plan)
    sign_threshold: int
    bit_thresholds: tuple[int, ...]
    bit_weights: tuple[int, ...]  # 2^i, the weight of magnitude bit i
    magnitude: SegmentPlan       # P segments, P - 1 rho-weighted picks
    words_per_draw: int          # kappa + P, plus 1 for the zero flag

    @property
    def kappa(self) -> int:
        return len(self.bit_thresholds)

    @property
    def method(self) -> str:
        return "segmented" if self.magnitude.picks else "bitwise"

    @cached_property
    def rows(self) -> CenteredDlapConfig:
        """This plan with its thresholds and bit weights as `row_constant`s,
        the form a BatchSession compares its uint64 rows of joint words
        with: a bool row times a uint64 weight is a uint64 row."""
        zero = self.zero_threshold
        return replace(
            self,
            zero_threshold=None if zero is None else row_constant(zero),
            sign_threshold=row_constant(self.sign_threshold),
            bit_thresholds=tuple(map(row_constant, self.bit_thresholds)),
            bit_weights=tuple(map(row_constant, self.bit_weights)),
            magnitude=replace(self.magnitude, picks=tuple(map(row_constant, self.magnitude.picks))),
        )


@lru_cache(maxsize=128)
def centered_dlap_config(L: float, sigma: float, p: int) -> CenteredDlapConfig:
    # the centred pmfs' checks: a sigma < 0 gives rho > 1, no law
    _check_positive(L=L, sigma=sigma)
    if p < 0:
        raise GridError("precision exponent p must be >= 0")
    steps = steps_of(L, p)
    kappa = steps.bit_length() - 1
    # rho = e^(-a): bit i of the magnitude is Bernoulli(rho^(2^i) / (1 + rho^(2^i)))
    a = 2.0**-p / sigma
    rho = math.exp(-a)
    powers = (rho ** (2**i) for i in range(kappa))
    bits = tuple(bernoulli_threshold(r / (1.0 + r)) for r in powers)
    # the segments of `segment_plan(steps)`; segment t is picked, given no
    # earlier one was, with its share of the mass left:
    # (1 - rho^(2^k_t)) / (1 - rho^(steps - start)).  Past 1/2 the threshold
    # comes from the complement, so that the less likely side keeps its
    # relative precision
    uniform = segment_plan(steps)
    choices = []
    for start, mask in uniform.segments[:-1]:
        size, left = mask + 1, math.expm1(-a * (steps - start))
        pick = math.expm1(-a * size) / left
        skip = math.exp(-a * size) * math.expm1(-a * (steps - start - size)) / left
        choices.append(bernoulli_threshold(pick) if pick <= 0.5 else 2**64 - bernoulli_threshold(skip))
    return CenteredDlapConfig(
        zero_threshold=bernoulli_threshold(1.0 / _normalizer(0.0, L, sigma, p, False)),
        sign_threshold=bernoulli_threshold(0.5),
        bit_thresholds=bits,
        bit_weights=tuple(1 << i for i in range(kappa)),
        magnitude=replace(uniform, picks=tuple(choices)),
        words_per_draw=kappa + 1 + uniform.words,
    )


def sample_dlap_centered(L: float, sigma: float, p: int, tape: RandomTape) -> float:
    """Draw from the centered discrete Laplace on [-L, L] at step 2^-p.

    (1) Bernoulli(c0) zero flag, (2) truncated geometric magnitude x' in
    [0, 2^p*L) giving x = x'+1, from kappa bits and, unless 2^p*L is a
    power of two, a segment choice, (3) fair sign.  All kappa + 1 + P
    words are consumed whatever the outcome.
    """
    cfg = centered_dlap_config(L, sigma, p)
    return _dlap_steps(cfg, tape.words(cfg.words_per_draw)) * 2.0**-p


def _dlap_steps(cfg: CenteredDlapConfig, w) -> int:
    """One centered discrete Laplace draw, in 2^-p steps, from its words:
    zero flag, magnitude bits, segment choices and sign."""
    x = _magnitude(cfg, w, 1) + 1
    return (w[0] >= cfg.zero_threshold) * (2 * (w[-1] < cfg.sign_threshold) - 1) * x


def _clap_steps(cfg: CenteredDlapConfig, w):
    """One centered cumulative Laplace draw, in 2^-p steps, from the words
    of TCL's inner plan: the magnitude m if the sign word falls below its
    threshold, else -m - 1."""
    m = _magnitude(cfg, w, 0)
    return (w[-1] < cfg.sign_threshold) * (2 * m + 1) - m - 1


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
    threshold, the uniform tail's size and segment plan, the grid step
    counts, `inner`, the centered sampler's plan (without the zero flag
    for TCL), and the words of one draw.
    """

    mech: Mechanism
    params: MechanismParams
    branch_threshold: int  # Bernoulli threshold of the inner branch
    outer_count: int       # uniform tail indices, 2 * 2^p * E
    tail: SegmentPlan      # the tail index's draw: P words
    Es: int                # E in 2^-p steps
    Ls: int                # L in 2^-p steps
    inner: CenteredDlapConfig
    words_per_draw: int    # in order: the branch word, the tail's P words, the inner draw's

    @cached_property
    def rows(self) -> NoisePlan:
        """This plan with its thresholds, its inner plan's included, as
        `row_constant`s: what a BatchSession draws on (`offline`)."""
        return replace(self, branch_threshold=row_constant(self.branch_threshold),
                       inner=self.inner.rows)


@lru_cache(maxsize=128)
def noise_plan(mech: Mechanism, params: MechanismParams) -> NoisePlan:
    """The cached `NoisePlan` of a mechanism instance."""
    Es, Ls = steps_of(params.E, params.p), steps_of(params.L, params.p)
    # outputs are float64 steps, exact to 2^53; so a block of sample_batch
    # holds its tail index, upper tail shift and inner draw in int64
    if Es + Ls > 1 << 53:
        raise GridError(f"{params} reaches 2^p(E+L) >= 2^{(Es + Ls).bit_length() - 1} output "
                        "steps, past the 2^53 a float64 holds exactly; pick a smaller p")
    tail = segment_plan(2 * Es)
    inner = centered_dlap_config(params.L, params.sigma, params.p)
    if mech.cumulative:  # TCL's inner plan: no zero flag, so kappa + P words
        inner = replace(inner, zero_threshold=None, words_per_draw=inner.words_per_draw - 1)
    return NoisePlan(
        mech=mech,
        params=params,
        branch_threshold=bernoulli_threshold(mech.branch_probability(params)),
        outer_count=2 * Es,
        tail=tail,
        Es=Es,
        Ls=Ls,
        inner=inner,
        words_per_draw=1 + tail.words + inner.words_per_draw,
    )


def _perturb_steps(plan: NoisePlan, xs, branch, a, b):
    """`perturb` in 2^-p steps, of the tail index a and the inner draw b."""
    Es, Ls, hi = plan.Es, plan.Ls, plan.mech.high_offset
    outer = a - Es + Ls + hi - (a < Es + xs) * (2 * Ls + hi)
    return outer + branch * (xs + b - outer)


def implemented_law(plan: NoisePlan, xs: int) -> dict[int, int]:
    """The exact law `plan`'s integer thresholds implement at input xs, in
    grid steps: each output step the draw can place, its mass an integer
    over 2^(64 * plan.words_per_draw), as a word falls below a threshold t
    with mass t / 2^64 and its low k bits take each value with mass 2^-k.
    `_perturb_steps` places the inner law and the tail's, each weighed by
    its side of the branch word."""
    B, inner, tail = plan.branch_threshold, _inner_law(plan.inner), _segment_law(plan.tail, _uniform_bits)
    law = {}
    for z, m in zip(_perturb_steps(plan, xs, 1, 0, np.array(list(inner))).tolist(), inner.values()):
        law[z] = law.get(z, 0) + (B * m << 64 * plan.tail.words)
    for z, m in zip(_perturb_steps(plan, xs, 0, np.array(list(tail)), 0).tolist(), tail.values()):
        law[z] = law.get(z, 0) + ((_WORD_MOD - B) * m << 64 * plan.inner.words_per_draw)
    return law


def _inner_law(cfg: CenteredDlapConfig) -> dict[int, int]:
    """The law of one draw of `cfg`, in 2^-p steps, as numerators over
    2^(64 * cfg.words_per_draw): with a zero flag (TDL's), 0 or +-(m + 1)
    by the sign; without one (TCL's), m or -m - 1."""
    lows = [[1]]  # the law of the low k magnitude bits, over 2^(64k)
    for t in cfg.bit_thresholds:
        lows.append([m * (_WORD_MOD - t) for m in lows[-1]] + [m * t for m in lows[-1]])
    magnitude = _segment_law(cfg.magnitude, lambda k: [m << 64 * (cfg.kappa - k) for m in lows[k]])
    zero, plus = cfg.zero_threshold, cfg.sign_threshold
    law, nonzero, up = {}, 1, 0  # TCL's plan: no zero flag
    if zero is not None:
        law, nonzero, up = {0: zero << 64 * (cfg.words_per_draw - 1)}, _WORD_MOD - zero, 1
    for m, n in magnitude.items():
        law[m + up] = nonzero * n * plus
        law[-m - 1] = nonzero * n * (_WORD_MOD - plus)
    return law


def _segment_law(seg: SegmentPlan, low_bits) -> dict[int, int]:
    """The law of the index `seg` draws, index by index, as numerators
    over D * 2^(64 * len(seg.picks)), where `low_bits(k)` lists the law of
    the offset's low k bits over D: segment t is picked, given that no
    earlier one was, by a pick word below its threshold (the last takes
    what is left), and puts its low-bit law on start_t + r."""
    picks, chosen, reach = seg.picks, [], 1  # reach: no earlier pick, over 2^(64t)
    for t, pick in enumerate(picks):
        chosen.append(reach * pick << 64 * (len(picks) - 1 - t))
        reach *= _WORD_MOD - pick
    law = {}
    for (start, mask), weight in zip(seg.segments, chosen + [reach]):
        for r, m in enumerate(low_bits(mask.bit_length())):
            law[start + r] = law.get(start + r, 0) + weight * m
    return law


def _uniform_bits(k: int) -> list[int]:
    """The law of a word's low k bits over 2^64: 2^(64-k) words each."""
    return [1 << (64 - k)] * (1 << k)


def _noise_steps(plan: NoisePlan, w, tail_word):
    """(branch, tail index, inner steps) of one noise draw's words, or of a
    block's rows; `tail_word` is w[1], as int64 in rows.  The tail index is
    the low floor(log2 N) bits of its word, placed in the segment its
    P - 1 pick words choose unless the tail count N is a power of two.  The
    inner draw is TDL's centred discrete Laplace or TCL's cumulative one."""
    tail = plan.tail
    a = tail_word & tail.low  # in rows, the mask clears the sign
    if tail.picks:
        a = pick_segment(tail, w[2 : 1 + tail.words], a)
    inner = _clap_steps if plan.mech.cumulative else _dlap_steps
    return w[0] < plan.branch_threshold, a, inner(plan.inner, w[1 + tail.words :])


def _sample_steps(plan: NoisePlan, xs: int, tape: RandomTape) -> int:
    w = tape.words(plan.words_per_draw)
    return _perturb_steps(plan, xs, *_noise_steps(plan, w, w[1]))


def noise(mech: Mechanism, params: MechanismParams, tape: RandomTape) -> NoisePair:
    """Input-independent noise draw of a discrete mechanism.

    Draw order is fixed (branch word, the tail index's words, inner draw)
    and the unused branch is still consumed, mirroring the oblivious
    protocol.  The inner draw is the centered discrete Laplace, or for TCL
    the cumulative one.
    """
    plan = noise_plan(mech, params)
    w = tape.words(plan.words_per_draw)
    branch, a, b = _noise_steps(plan, w, w[1])
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
    xs = params.input_steps(x)
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
    return _sample_steps(plan, params.input_steps(x), tape) * params.step


def sample_tcl(x: float, params: MechanismParams, tape: RandomTape, gamma: int = 0) -> float:
    """One TCL draw at input x; `gamma` changes nothing (`retired_gamma`)."""
    retired_gamma(gamma)
    plan = noise_plan(TCL, params)
    return _sample_steps(plan, params.input_steps(x), tape) * params.step


def sample_batch(mech: Mechanism, x: float, params: MechanismParams, n: int, seed: int) -> np.ndarray:
    """n draws at input x from one seeded tape, in blocks (`BlockScheduler`)
    whose row j holds word j of every execution; values and the tape's word
    count equal those of n `sample_tdl`/`sample_tcl` calls."""
    if n < 0:
        raise ValueError("n must be >= 0")
    plan = noise_plan(mech, params)
    xs = params.input_steps(x)
    tape = RandomTape(seed)
    words = plan.words_per_draw

    def commit(k: int) -> None:
        tape.skip(k * words)

    def evaluate(size: int):
        rows = tape.peek_block(size * words).reshape(size, words).T
        branch, a, b = _noise_steps(plan, rows, rows[1].view(np.int64))
        return _perturb_steps(plan, xs, branch, a, b), commit

    blocks = BlockScheduler(evaluate, lambda: _sample_steps(plan, xs, tape), tape_module.BATCH_BLOCK)
    return blocks.take(n) * params.step


def sample_tdl_batch(x: float, params: MechanismParams, n: int, seed: int) -> np.ndarray:
    """`sample_batch` of TDL."""
    return sample_batch(TDL, x, params, n, seed)
