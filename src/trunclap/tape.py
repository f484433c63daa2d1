"""Seeded randomness tapes with word-level draw semantics.

Every random decision in this package is derived from 64-bit words pulled
off a tape.  A Bernoulli(prob) draw consumes one word and compares it to a
64-bit fixed-point threshold (bias at most 2^-64); a uniform draw over a
power of two masks one word.  A uniform draw over [0, N) for any other N
never rejects: N splits into the P power-of-two segments of its binary
expansion (`segment_plan`), and P - 1 integer Bernoulli picks choose one
(`pick_segment`), so it reads exactly P words; the magnitude of a
discrete Laplace draw picks its segment the same way (`_magnitude`).
Keeping the semantics at the word level lets the two-party simulator
replay exactly the same decisions as the plaintext samplers when fed the
same word stream.

Every read takes the next words of a tape off one buffer at one
position, seeded or injected: words (`word`, `words`), blocks
(`peek_block`, then `skip`) and the MPC dealer's residues (`field_array`,
`field_elements`).  A residue mod a power of two q is one masked lane of
a word, w bits wide for the smallest w of 8, 16, 32 and 64 that holds
q - 1, so one word holds 64/w residues (`_lanes`).

Blocks of executions evaluated ahead on peeked words (`sample_batch`,
and a `Session`'s runs and offline pairs) are scheduled by one policy,
`BlockScheduler`: when a block runs and how large it is.  A block is
committed whole; one that meets a range fault raises before any of it is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable

import numpy as np

WORD_BITS = 64
_WORD_MOD = 1 << WORD_BITS
# words a tape draws at a time, or more for a longer read (see RandomTape)
_BUFFER_WORDS = 256
# executions per block of a call that takes n at once (`sample_batch`,
# `Session.run`): bounds a block's memory (its words and the arrays of its
# live values) whatever n is
BATCH_BLOCK = 1 << 14
# below this many executions the sequential path is faster than a block
# (measured; see README "Batch simulator")
BATCH_MIN_SESSIONS = 8


def bernoulli_threshold(prob: float) -> int:
    """64-bit fixed-point threshold t so that P[word < t] = prob up to 2^-64."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability {prob} outside [0, 1]")
    return min(_WORD_MOD, max(0, round(prob * _WORD_MOD)))


def row_constant(c: int, dtype=np.uint64):
    """A constant that meets uint64 rows, as a read-only 0-d array of
    `dtype`: a uint64 row meets it on numpy's fast path, and a Python int
    on the slower weak-scalar path (NEP 50).  A c of 2^64 or more does not
    fit and stays an int, which numpy 2 compares with a row exactly."""
    if c >> WORD_BITS:
        return c
    a = np.array(c, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SegmentPlan:
    """A segment choice on [0, N), drawn without rejection.

    [0, N) splits into the P power-of-two segments of N's binary expansion,
    highest first: segment t covers [start, start + 2^k_t), bit k_t being
    N's t-th highest set bit, and keeps the low k_t bits (its mask) of the
    offset bits.  It is picked, given that no earlier one was, when its
    pick word falls below its 64-bit threshold; the last takes what is
    left (`pick_segment`).  `segment_plan(N)`'s picks make the index
    uniform, probability 2^k_t / (N - start) > 1/2 by the threshold
    round(2^64 * 2^k_t / (N - start)) set in integers, the offset being an
    index word's low floor(log2 N) bits (the tail index, `pi_uni`).  A
    discrete Laplace magnitude's (`sampling.centered_dlap_config`) weigh
    each by its share of the mass rho^x left, the offset being the kappa
    magnitude bits.  For N a power of two, P = 1: no picks.
    """

    segments: tuple[tuple[int, int], ...]  # (start, mask) of each segment
    picks: tuple[int, ...]                 # P - 1 thresholds
    # segments[0]'s mask and P, stored for the tail index's draw (`_noise_steps`,
    # `pi_uni`): the bits it keeps of its index word, and the words it reads
    low: int
    words: int


@lru_cache(maxsize=128)
def segment_plan(n: int) -> SegmentPlan:
    """The cached `SegmentPlan` of a count n >= 1."""
    segments = tuple(
        ((n >> (k + 1)) << (k + 1), (1 << k) - 1) for k in range(n.bit_length() - 1, -1, -1) if n >> k & 1
    )
    # 2^64 * size / left, rounded half up (left has two set bits or more,
    # so it never ties)
    picks = tuple(((mask + 1) << 65) // (n - start) + 1 >> 1 for start, mask in segments[:-1])
    return SegmentPlan(segments=segments, picks=picks, low=segments[0][1], words=len(segments))


# the words as little-endian uint64: a residue draw views them as lanes
_LE_WORDS = np.dtype("<u8")


@lru_cache(maxsize=None)  # only the 65 valid moduli are cached
def _lanes(q: int) -> tuple:
    """(lane dtype, lanes per word, lane mask) of a residue draw mod q, a
    power of two up to 2^64: a lane is w bits, the smallest w of 8, 16, 32
    and 64 that holds q - 1, read little-endian whatever the host's byte
    order; its mask q - 1 is a read-only 0-d array of the lane dtype."""
    if not 0 < q <= _WORD_MOD or q & (q - 1):
        raise ValueError(
            f"a 64-bit word cannot draw a residue mod {q}: need a power of two <= 2^64"
        )
    width = next(w for w in (8, 16, 32, 64) if (q - 1).bit_length() <= w)
    lane = np.dtype(f"<u{width // 8}")
    return lane, WORD_BITS // width, row_constant(q - 1, lane)


def pick_segment(plan: SegmentPlan, words, bits):
    """start + (bits & mask) of the first segment of `plan` whose pick
    word falls below its pick, else of the last.  `words` holds the P - 1
    pick words and `bits` the offset bits, as ints or as rows (one entry
    per execution); rows gather the segments in the dtype of `bits`, so a
    start past 2^63 needs uint64 bits."""
    picks = plan.picks
    j = len(picks)
    for t in range(j - 1, -1, -1):  # from the last back, so rows need no branch
        j += (words[t] < picks[t]) * (t - j)
    if isinstance(j, np.ndarray):
        start, mask = np.array(plan.segments, dtype=bits.dtype)[j].T
    else:
        start, mask = plan.segments[j]
    return start + (bits & mask)


def _magnitude(cfg, w, first: int):
    """The truncated geometric magnitude in [0, N) of one draw of a
    `sampling.CenteredDlapConfig` plan: its kappa bit words w[first:] and,
    unless N is a power of two, the P - 1 segment words after them, as
    ints or as uint64 rows (a threshold of 2^64 meets a row under numpy 2's
    promotion).  Bit i weighs 2^i: an int in the int form of the plan, so
    rows give an int64 magnitude (`sample_batch`), and a 0-d uint64 in its
    row form, so they give a uint64 one (a BatchSession's).  The one body
    of the plaintext samplers and the secure protocols' `pi_magnitude`."""
    m, weights = 0, cfg.bit_weights
    for i, threshold in enumerate(cfg.bit_thresholds):
        m += (w[first + i] < threshold) * weights[i]
    if cfg.magnitude.picks:
        m = pick_segment(cfg.magnitude, w[first + cfg.kappa :], m)
    return m


class RandomTape:
    """A reproducible stream of 64-bit words, seedable or injected.

    Identical seeds yield identical streams, and a seeded tape needs a
    seed: None, which would draw one from OS entropy, is refused.  The
    words a seeded tape has handed out are
    ``RandomTape(seed).words(tape.words_consumed)``, so a replay test
    rebuilds them from the seed.  An explicit ``words`` iterable replaces
    the generator (to inject randomness for replay tests); a read that
    draws a non-word from it raises ValueError, and one past its last word
    raises StopIteration and consumes nothing.

    Every read takes the next words off one uint64 buffer at one position:
    `_buf[_pos:]` holds the drawn words not yet consumed.  A read that runs
    short draws max(short, `_BUFFER_WORDS`) more (`_fill`).
    """

    def __init__(self, seed: int | None = 0, *, words: Iterable[int] | None = None):
        self.seed = seed
        self.words_consumed = 0
        self._buf, self._pos = np.empty(0, dtype=np.uint64), 0
        if words is not None:
            injected = iter(words)
            # operator.index refuses a float or a string, which the uint64
            # conversion would truncate or parse
            self._raw = lambda k: np.fromiter(map(operator.index, islice(injected, k)),
                                              dtype=np.uint64)
        elif seed is None:
            raise ValueError("a seeded tape needs a seed (None would draw one from OS entropy)")
        else:
            # the words of Generator(PCG64(seed)).integers(0, 2^64, dtype=uint64)
            self._raw = np.random.PCG64(seed).random_raw

    def word(self) -> int:
        """Next raw 64-bit word."""
        pos = self._pos
        if pos == len(self._buf):
            self._fill(1)
            pos = 0
        self._pos = pos + 1
        self.words_consumed += 1
        return self._buf.item(pos)

    def words(self, n: int) -> list[int]:
        """The next n words, as n calls of `word` return them."""
        pos = self._pos
        if n < 0 or pos + n > len(self._buf):
            self._fill(n)
            pos = 0
        self._pos = pos + n
        self.words_consumed += n
        return self._buf[pos : pos + n].tolist()

    def peek_block(self, n: int) -> np.ndarray:
        """The next n words as a uint64 array, without consuming them.

        `skip` then consumes a prefix of them and `word` reads on from
        there, so a caller can evaluate a block of draws and keep only the
        part it commits.
        """
        if n < 0 or self._pos + n > len(self._buf):
            self._fill(n)
        return self._buf[self._pos : self._pos + n]

    def _fill(self, n: int) -> None:
        """Buffer the next n words: draw max(short, _BUFFER_WORDS) past the
        buffered ones, short being those of the n not yet drawn, and move
        the read position to the buffer's start.  An injected tape keeps
        what it could draw, and raises StopIteration if that falls short."""
        if n < 0:
            # it would move the read position back over used words
            raise ValueError(f"cannot read {n} words")
        buf, pos = self._buf, self._pos
        short = n - (len(buf) - pos)
        try:
            fresh = self._raw(short if short > _BUFFER_WORDS else _BUFFER_WORDS)
        except (OverflowError, TypeError) as exc:
            raise ValueError(f"an injected word must be an integer in [0, 2^64): {exc}") from None
        self._buf, self._pos = np.concatenate([buf[pos:], fresh]) if pos < len(buf) else fresh, 0
        if len(fresh) < short:
            raise StopIteration

    def skip(self, n: int) -> None:
        """Consume n words already returned by `peek_block`: the read
        position moves past them.  Words the tape has not drawn are
        refused: counted as used, they would be handed out later."""
        # the two refusals inline: a pooled noise pair skips its words on
        # both party tapes at every handout
        if n < 0:
            raise ValueError(f"cannot read {n} words")
        have = len(self._buf) - self._pos
        if n > have:
            raise ValueError(f"cannot skip {n} words: {have} are drawn past the read position")
        self._pos += n
        self.words_consumed += n

    def field_elements(self, q: int, n: int) -> list[int]:
        """`field_array` as a list of Python ints."""
        return self.field_array(q, n).tolist()

    def field_array(self, q: int, n: int) -> np.ndarray:
        """n uniform residues mod q, a power of two up to 2^64, as a uint64
        array: the first n lanes (`_lanes`) of the next ceil(n / lanes)
        words, masked to q - 1.  The unused lanes of the last word are
        dropped, and a q past 2^32 takes one whole word a residue."""
        lane, per, mask = _lanes(q)
        if n < 0:
            raise ValueError(f"cannot read {n} residues")
        k = -(-n // per)
        pos = self._pos
        if pos + k > len(self._buf):
            self._fill(k)
            pos = 0
        self._pos = pos + k
        self.words_consumed += k
        lanes = self._buf[pos : pos + k].astype(_LE_WORDS, copy=False).view(lane)[:n]
        return (lanes & mask).astype(np.uint64, copy=False)


class BlockScheduler:
    """The executions of one program in order, evaluated ahead in blocks
    where that pays: the one block policy of `sample_batch`, `Session.run`
    and `Session.offline`.

    `evaluate(size)` evaluates the next `size` executions without
    consuming anything and returns (values, commit): their values and a
    callable that consumes the first k of them, which the scheduler calls
    as it hands them out.  A block that meets a range fault raises in
    `evaluate`, so none of it is consumed.  `step()` runs the next
    execution on the sequential path.

    `take(n)` runs blocks of min(left, cap), each committed whole, and
    loops once fewer than BATCH_MIN_SESSIONS are left.  `take_one()` runs
    sequentially until BATCH_MIN_SESSIONS executions were taken, then
    blocks of min(taken, cap), so a block never outgrows the run that
    asked for it.
    """

    def __init__(self, evaluate, step, cap: int):
        self._evaluate, self._step = evaluate, step
        self.cap = cap
        self.run = 0  # executions taken by `take_one`
        self._values = ()  # values of `take_one`'s block; _at is the next
        self._at = 0
        self._commit = None  # consumes executions of that block

    def take(self, n: int) -> np.ndarray:
        """The values of the next n executions, as int64; a block never
        reaches past them."""
        out = np.empty(n, dtype=np.int64)
        done = 0
        while n - done >= BATCH_MIN_SESSIONS:
            size = min(n - done, self.cap)
            values, commit = self._evaluate(size)
            commit(size)
            out[done : done + size] = values  # a value common to the block broadcasts
            done += size
        for i in range(done, n):  # the rest of a short call
            out[i] = self._step()
        return out

    def take_one(self):
        """The value of the next execution; a block may reach past it, and
        the rest of it is handed out by the next calls."""
        at, run = self._at, self.run
        self.run = run + 1
        if at == len(self._values):
            size = min(run, self.cap)
            if size < BATCH_MIN_SESSIONS:  # a short run
                return self._step()
            self._values, self._commit = self._evaluate(size)
            at = 0
        self._commit(1)
        self._at = at + 1
        return self._values[at]
