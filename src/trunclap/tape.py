"""Seeded randomness tapes with word-level draw semantics.

Every random decision in this package is derived from 64-bit words pulled
off a tape.  A Bernoulli(prob) draw consumes one word and compares it to a
64-bit fixed-point threshold (bias at most 2^-64); a uniform draw over a
power of two masks one word; other ranges reject on the next power of two.
Keeping the semantics at the word level lets the two-party simulator
replay exactly the same decisions as the plaintext samplers when fed the
same word stream.

Each tape is read one way.  Party and plaintext tapes are read by words
(`word`, `words`, and `peek_block` with `skip` for blocks); the MPC
dealer tapes are read by residue arrays (`field_array`, `field_elements`):
raw words masked to a power-of-two modulus, drawn straight from the
generator past the buffered words, so they never mix with a word read.

Blocks of executions evaluated ahead on peeked words (`sample_batch`,
and a `Session`'s runs and offline pairs) are scheduled by one policy,
`BlockScheduler`: when a block runs, how large it is, and the sequential
execution of what a block could not keep.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

WORD_BITS = 64
_WORD_MOD = 1 << WORD_BITS
# words a seeded tape converts to Python ints at a time (see RandomTape);
# it draws _WINDOW_MAX words at a time, or a longer block at once
_WINDOW_MIN = 8
_WINDOW_MAX = 256
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


def pow2_at_least(m: int) -> int:
    """Smallest power of two >= m."""
    return 1 << (m - 1).bit_length() if m > 1 else 1


class RandomTape:
    """A reproducible stream of 64-bit words, seedable or injected.

    Identical seeds yield identical streams.  An explicit ``words``
    iterable overrides the generator entirely (used to inject randomness
    for replay tests); the tape raises StopIteration when it runs dry.
    The words a seeded tape has handed out are
    ``RandomTape(seed).words(tape.words_consumed)``, so a replay test
    rebuilds them from the seed.

    A seeded tape draws its words in uint64 buffers of `_WINDOW_MAX` (a
    `peek_block` all it needs) and hands them out from a short window of
    Python ints converted from the buffer; the window starts at
    `_WINDOW_MIN` words and doubles up to `_WINDOW_MAX` while the tape is
    read word by word, and starts again after `peek_block`.
    An injected tape hands out one word at a time.
    """

    def __init__(self, seed: int | None = 0, *, words: Iterable[int] | None = None):
        self.seed = seed
        self.words_consumed = 0
        self._injected: Iterator[int] | None = iter(words) if words is not None else None
        # _win holds the words _buf[_pos:_pos + len(_win)]; _wi is the next
        # one to hand out, so the read position in _buf is _pos + _wi
        self._win: list[int] = []
        self._wi = 0
        self._grow = _WINDOW_MIN
        if self._injected is None:
            # the words of Generator(PCG64(seed)).integers(0, 2^64, dtype=uint64)
            self._raw = np.random.PCG64(seed).random_raw
            self._buf = np.empty(0, dtype=np.uint64)
            self._pos = 0

    def word(self) -> int:
        """Next raw 64-bit word."""
        i = self._wi
        win = self._win
        if i < len(win):
            self._wi = i + 1
            self.words_consumed += 1
            return win[i]
        return self._next_word()

    def words(self, n: int) -> list[int]:
        """The next n words, as n calls of `word` return them."""
        _require_count(n)
        i = self._wi
        if i + n > len(self._win):
            if self._injected is None:
                self._load_window(n)
            if len(self._win) < n:  # word by word: injected, or past the buffer's end
                return [self.word() for _ in range(n)]
            i = 0
        self._wi = i + n
        self.words_consumed += n
        return self._win[i : i + n]

    def _next_word(self) -> int:
        """`word` past the window's end."""
        if self._injected is not None:
            w = int(next(self._injected))
        else:
            self._load_window(1)
            self._wi = 1
            w = self._win[0]
        self.words_consumed += 1
        return w

    def _load_window(self, n: int) -> None:
        """Convert the window afresh at the read position: max(n, _grow)
        words, fewer where the buffer ends."""
        self._pos += self._wi
        if self._pos >= len(self._buf):
            self._buf = self._raw(_WINDOW_MAX)
            self._pos = 0
        self._win = self._buf[self._pos : self._pos + max(n, self._grow)].tolist()
        self._wi = 0
        self._grow = min(2 * self._grow, _WINDOW_MAX)

    def _sync(self) -> None:
        """Drop the window; _pos becomes the read position."""
        if self._win:  # an empty window has nothing to drop (and _wi is 0)
            self._pos += self._wi
            self._win, self._wi, self._grow = [], 0, _WINDOW_MIN

    def peek_block(self, n: int) -> np.ndarray:
        """The next n words as a uint64 array, without consuming them.

        `skip` then consumes a prefix of them and `word` reads on from
        there, so a caller can evaluate a block of draws and keep only the
        part it commits.  Seeded tapes only.
        """
        _require_count(n)
        self._require_generator("peek_block")
        self._sync()
        have = len(self._buf) - self._pos
        if have < n:
            fresh = self._raw(max(n - have, _WINDOW_MAX))
            self._buf = np.concatenate([self._buf[self._pos :], fresh]) if have else fresh
            self._pos = 0
        return self._buf[self._pos : self._pos + n]

    def skip(self, n: int) -> None:
        """Consume n words already returned by `peek_block`.  Words the
        tape has not drawn are refused: counted as used, they would be
        handed out later."""
        # the two refusals inline, and _sync only with a window loaded: a pooled
        # noise pair skips its words on both party tapes at every handout
        if n < 0:
            raise ValueError(f"cannot read {n} words")
        if self._injected is not None:
            raise ValueError("skip needs a seeded tape")
        if self._win:
            self._sync()
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
        array (seeded tapes only): the generator's next n words, past any
        buffered words, masked to q - 1."""
        _require_count(n)
        self._require_generator("field_array")
        if not 0 < q <= _WORD_MOD or q & (q - 1):
            raise ValueError(
                f"a 64-bit word cannot draw a residue mod {q}: need a power of two <= 2^64"
            )
        self.words_consumed += n
        return self._raw(n) & np.uint64(q - 1)

    def _require_generator(self, what: str) -> None:
        # block draws bypass injection
        if self._injected is not None:
            raise ValueError(f"{what} needs a seeded tape")


def _require_count(n: int) -> None:
    # a negative count would move the read position back over used words
    if n < 0:
        raise ValueError(f"cannot read {n} words")


class BlockScheduler:
    """The executions of one program in order, evaluated ahead in blocks
    where that pays: the one block policy of `sample_batch`, `Session.run`
    and `Session.offline`.

    `evaluate(size)` evaluates the next `size` executions without
    consuming anything and returns (kept, values, commit): how many come
    before the first rejected or faulting one, their values, and a
    callable that consumes the first k of them, which the scheduler calls
    as it hands them out.  `step()` runs the next execution on the
    sequential path; the execution a block stopped at runs there, and
    draws again or raises as the loop does.

    A block waits for a run of `need` executions taken back to back and
    holds as many as the run, at most `span` and `cap`.  One that stops
    early restarts the run at what it kept and sets `span` to twice that;
    one that keeps fewer than BATCH_MIN_SESSIONS cost more than the loop
    and quadruples `need`, so frequent rejections make blocks rare and
    small; one kept whole doubles `span`.  `run` starts at `cap`, so a
    call taking n at once first runs a block of min(n, cap) (or loops,
    below BATCH_MIN_SESSIONS); one taking an execution at a time passes
    run=0, so its first block follows BATCH_MIN_SESSIONS sequential ones.
    """

    def __init__(self, evaluate, step, cap: int, *, run: int | None = None):
        self._evaluate, self._step = evaluate, step
        self.cap = cap
        # executions taken back to back, counted from what the last block
        # that stopped early kept
        self.run = cap if run is None else run
        self.need = BATCH_MIN_SESSIONS  # the run the next block waits for
        self.span = cap  # the largest next block
        self._kept = ()  # values of evaluated executions not yet handed out
        self._at = 0
        self._commit = None  # consumes executions of the current block
        self._stopped = False  # the next execution is the one a block stopped at

    def take(self, n: int) -> np.ndarray:
        """The values of the next n executions, as int64; a block never
        reaches past them."""
        out = np.empty(n, dtype=np.int64)
        done = 0
        while done < n:
            left = n - done
            part = self._handout(left, left)
            if part is not None:
                out[done : done + len(part)] = part
                done += len(part)
                continue
            # sequential until a block could run: the execution a block
            # stopped at, the rest of a call too short for a block, or the
            # rest of the run the next block waits for
            if self._stopped:
                k = 1
            else:
                k = left if left < BATCH_MIN_SESSIONS else min(left, self.need - self.run)
            self._stopped = False
            for i in range(done, done + k):
                out[i] = self._step()
            self.run += k
            done += k
        return out

    def take_one(self):
        """The value of the next execution; a block may reach past it, and
        the rest of it is handed out by the next calls."""
        at = self._at
        if at < len(self._kept):  # the next value of the current block
            self._commit(1)
            self._at, self.run = at + 1, self.run + 1
            return self._kept[at]
        part = self._handout(1, self.cap)
        if part is None:
            self._stopped = False
            self.run += 1
            return self._step()
        return part[0]

    def _handout(self, count: int, limit: int):
        """Up to `count` committed values of the current block, or of a new
        block of at most `limit` executions; None when the next execution
        runs sequentially."""
        if self._at == len(self._kept):
            if self._stopped or self.run < self.need or limit < BATCH_MIN_SESSIONS:
                return None
            self._block(min(self.span, self.run, limit))
            if not len(self._kept):
                return None
        k = min(count, len(self._kept) - self._at)
        self._commit(k)
        self.run += k
        self._at += k
        return self._kept[self._at - k : self._at]

    def _block(self, size: int) -> None:
        kept, values, self._commit = self._evaluate(size)
        self._kept, self._at, self._stopped = values[:kept], 0, kept < size
        if kept == size:
            self.span = min(2 * self.span, self.cap)
            return
        self.run, self.span = kept, min(max(2 * kept, BATCH_MIN_SESSIONS), self.cap)
        if kept < BATCH_MIN_SESSIONS:
            self.need *= 4
