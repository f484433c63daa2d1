"""The word tape: its stream, its word counts and its block reads.

A seeded `RandomTape` hands out words from a window of Python ints; the
`ReferenceTape` oracle in conftest reads them off the uint64 buffer one
at a time, as the tape did before.  Both must give the same values and
the same `words_consumed` under any interleaving of the tape's calls.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceTape
from trunclap import RandomTape
from trunclap.tape import _WINDOW_MAX, _WINDOW_MIN, BATCH_MIN_SESSIONS, BlockScheduler

# the ring moduli are powers of two, up to 2^64
MODULI = (2, 2**6, 2**12, 2**31, 2**32, 2**63, 2**64)

OPS = st.one_of(
    st.tuples(st.just("word")),
    st.tuples(st.just("words"), st.integers(0, 40)),
    # long reads carry the stream across one or more buffer refills
    st.tuples(st.just("words"), st.integers(_WINDOW_MAX // 2, _WINDOW_MAX + 300)),
    st.tuples(st.just("peek_skip"), st.integers(0, 600), st.floats(0, 1)),
    st.tuples(
        st.just("peek_skip"), st.integers(_WINDOW_MAX - 50, _WINDOW_MAX + 50), st.floats(0, 1)
    ),
    st.tuples(st.just("field_array"), st.sampled_from(MODULI), st.integers(0, 50)),
)


def apply(tape, op):
    """One call on `tape`; words(n) on the oracle is n word() calls."""
    name, *args = op
    if name == "word":
        return tape.word()
    if name == "words":
        (n,) = args
        if isinstance(tape, ReferenceTape):
            return [tape.word() for _ in range(n)]
        return tape.words(n)
    if name == "peek_skip":
        n, share = args
        block = tape.peek_block(n).tolist()
        tape.skip(int(n * share))
        return block
    return tape.field_array(*args).tolist()


class TestWordStream:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), ops=st.lists(OPS, max_size=40))
    def test_interleavings_match_the_reference(self, seed, ops):
        tape, ref = RandomTape(seed), ReferenceTape(seed)
        for op in ops:
            assert apply(tape, op) == apply(ref, op), op
            assert tape.words_consumed == ref.words_consumed, op
        # and the stream reads on identically from wherever the ops left it
        assert tape.words(300) == [ref.word() for _ in range(300)]

    @pytest.mark.parametrize("seed", [0, 1234, [7, 1]])
    def test_seeded_words_are_the_generators_integers(self, seed):
        # the word stream's definition: a seeded tape hands out the words
        # Generator(PCG64(seed)).integers(0, 2^64, dtype=uint64) gives, in
        # order; field_array draws the next ones, past the buffered words
        B = _WINDOW_MAX
        ref = np.random.Generator(np.random.PCG64(seed)).integers(
            0, 2**64, size=5 * B, dtype=np.uint64
        ).tolist()
        tape = RandomTape(seed)
        # word and words, across the first buffer's end
        assert [tape.word() for _ in range(B - 3)] + tape.words(10) == ref[: B + 7]
        # a block read across the second buffer's end; skip keeps part of it
        assert tape.peek_block(B).tolist() == ref[B + 7 : 2 * B + 7]
        tape.skip(B - 5)
        assert tape.word() == ref[2 * B + 2]
        # field_array draws n words after the 3B the buffers hold, and keeps
        # the low 31 bits of each
        q, n = 2**31, 100
        assert tape.field_array(q, n).tolist() == [w % q for w in ref[3 * B : 3 * B + n]]
        assert tape.words_consumed == 2 * B + 3 + n
        after = 3 * B + n
        # the buffer reads on, then refills past field_array's words
        assert tape.words(B) == ref[2 * B + 3 : 3 * B] + ref[after : after + 3]

    def test_window_stays_short(self):
        # the window doubles from _WINDOW_MIN to _WINDOW_MAX words, and a
        # block read restarts it at the read position
        tape = RandomTape(5)
        sizes = []
        for _ in range(2000):
            tape.word()
            sizes.append(len(tape._win))
        assert sizes[0] == _WINDOW_MIN and max(sizes) == _WINDOW_MAX
        assert set(sizes) == {_WINDOW_MIN << k for k in range(6)}
        tape.peek_block(1000)
        tape.skip(600)
        assert tape._win == []
        tape.word()
        assert len(tape._win) == _WINDOW_MIN

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_words_on_injected_tapes(self, n):
        stream = [(i * 0x9E3779B97F4A7C15) % 2**64 for i in range(400)]
        a, b = RandomTape(words=stream), RandomTape(words=stream)
        assert a.words(n) == [b.word() for _ in range(n)] == stream[:n]
        assert a.words_consumed == b.words_consumed == n
        assert a.word() == b.word()

    def test_injected_tape_runs_dry_on_words(self):
        tape = RandomTape(words=[1, 2, 3])
        with pytest.raises(StopIteration):
            tape.words(4)

    def test_block_reads_refuse_injected_tapes(self):
        tape = RandomTape(words=[1, 2])
        with pytest.raises(ValueError):
            tape.peek_block(1)
        with pytest.raises(ValueError):
            tape.field_array(64, 1)
        with pytest.raises(ValueError):
            tape.skip(1)

    def test_words_are_python_ints(self):
        tape = RandomTape(2)
        assert all(type(w) is int for w in tape.words(50) + [tape.word()])

    @pytest.mark.parametrize("read", ["words", "skip", "peek_block"])
    def test_negative_counts_are_refused(self, read):
        # a negative count used to move the read position back, so the next
        # reads handed out words already used
        tape, ref = RandomTape(6), ReferenceTape(6)
        assert tape.words(5) == [ref.word() for _ in range(5)]
        with pytest.raises(ValueError, match="cannot read -2 words"):
            getattr(tape, read)(-2)
        assert tape.words_consumed == 5
        assert tape.words(3) == [ref.word() for _ in range(3)]

    def test_skip_past_the_drawn_words_is_refused(self):
        # a fresh tape's skip(5) used to count five words it never drew,
        # and its next word was the generator's first
        tape, ref = RandomTape(6), ReferenceTape(6)
        with pytest.raises(ValueError, match="cannot skip 5 words"):
            tape.skip(5)
        assert tape.words_consumed == 0
        # words(3) draws a buffer of _WINDOW_MAX words: all but 3 lie past the read position
        assert tape.words(3) == [ref.word() for _ in range(3)]
        with pytest.raises(ValueError, match="cannot skip"):
            tape.skip(_WINDOW_MAX - 2)
        assert tape.words_consumed == 3
        tape.skip(_WINDOW_MAX - 3)
        ref.skip(_WINDOW_MAX - 3)
        assert tape.words_consumed == ref.words_consumed == _WINDOW_MAX
        assert tape.words(5) == [ref.word() for _ in range(5)]


class TestResidues:
    """`field_array`'s residue draws: masked words and refused moduli."""

    @pytest.mark.parametrize("q", [1, 2**20, 2**64])
    def test_residues_are_masked_words(self, q):
        # one word a residue, nothing rejected
        a, b = RandomTape(8), ReferenceTape(8)
        assert a.field_array(q, 50).tolist() == b.field_array(q, 50).tolist()
        assert a.words_consumed == b.words_consumed == 50
        assert a.field_elements(q, 50) == b.field_array(q, 50).tolist()
        assert a.words_consumed == 100

    @pytest.mark.parametrize("q", [3, 37, 2**61 - 1, 2**64 - 1])
    def test_other_moduli_are_refused(self, q):
        # a masked word is uniform mod q only for a power of two
        tape = RandomTape(9)
        with pytest.raises(ValueError, match="power of two"):
            tape.field_array(q, 3)
        assert tape.words_consumed == 0

    @pytest.mark.parametrize("q", [0, 2**64 + 13])
    def test_modulus_past_a_word_is_refused(self, q):
        # no word lies below a limit of 0, so the draw used to loop forever
        tape = RandomTape(9)
        for draw in (tape.field_array, tape.field_elements):
            with pytest.raises(ValueError, match="cannot draw"):
                draw(q, 3)
        assert tape.words_consumed == 0


class ToyFault(RuntimeError):
    """A toy execution met a fault."""


class ToyProgram:
    """A toy execution over a seeded word list: two words an attempt, the
    first rejecting one attempt in `reject_every`, the second faulting one
    execution in `fault_every` (naming its position) and giving the value.

    `step` runs the next execution sequentially, `evaluate` a block of them
    without consuming words, and `commit` consumes what a block kept;
    `pos` is the words consumed.  `sizes` logs every block evaluated.
    """

    def __init__(self, seed: int, fault_every: int = 0, reject_every: int = 4):
        self.words = RandomTape(seed).words(20_000)
        self.fault_every, self.reject_every = fault_every, reject_every
        self.pos = 0
        self.sizes = []

    def _hits(self, w, every: int):
        return w % every == 0 if every else w != w

    def step(self) -> int:
        while True:
            w0, w1 = self.words[self.pos : self.pos + 2]
            self.pos += 2
            if not self._hits(w0, self.reject_every):
                break
        if self._hits(w1, self.fault_every):
            raise ToyFault(f"fault at word {self.pos}")
        return w1 % 1000

    def evaluate(self, size: int):
        self.sizes.append(size)
        w = np.array(self.words[self.pos : self.pos + 2 * size], dtype=np.uint64).reshape(size, 2)
        stop = self._hits(w[:, 0], self.reject_every) | self._hits(w[:, 1], self.fault_every)
        kept = int(np.argmax(stop)) if stop.any() else size
        return kept, (w[:, 1] % 1000).astype(np.int64), self.commit

    def commit(self, k: int) -> None:
        self.pos += 2 * k

    def scheduler(self, cap: int, **kw) -> BlockScheduler:
        return BlockScheduler(self.evaluate, self.step, cap, **kw)


def sequential(program: ToyProgram, n: int):
    """(values, words consumed, fault message or None) of the loop."""
    values = []
    try:
        for _ in range(n):
            values.append(program.step())
    except ToyFault as exc:
        return values, program.pos, str(exc)
    return values, program.pos, None


class TestBlockScheduler:
    """The one block policy, driven by a toy program with frequent
    rejections and rare faults, against the sequential loop."""

    CAP = 16

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 3 * CAP + 5])
    @pytest.mark.parametrize("seed", range(12))
    def test_eager_take_equals_the_loop(self, n, seed):
        want = sequential(ToyProgram(seed, fault_every=61), n)
        toy = ToyProgram(seed, fault_every=61)
        try:
            got = (toy.scheduler(self.CAP).take(n).tolist(), toy.pos, None)
        except ToyFault as exc:
            # a take that raises returns nothing: compare where and how
            got = (want[0], toy.pos, str(exc))
        assert got == want
        # a call's first block holds min(n, cap); shorter calls loop
        assert toy.sizes[:1] == ([min(n, self.CAP)] if n >= BATCH_MIN_SESSIONS else [])

    def test_eager_takes_raise_where_the_loop_does(self):
        raised = 0
        for seed in range(40):
            want = sequential(ToyProgram(seed, fault_every=29), 3 * self.CAP + 5)
            toy = ToyProgram(seed, fault_every=29)
            with pytest.raises(ToyFault) if want[2] else contextlib.nullcontext() as exc:
                toy.scheduler(self.CAP).take(3 * self.CAP + 5)
            assert (toy.pos, exc and str(exc.value)) == (want[1], want[2])
            raised += want[2] is not None
        assert 0 < raised < 40

    @pytest.mark.parametrize("seed", range(6))
    def test_one_at_a_time_with_outside_reads(self, seed):
        # a caller taking one execution per call starts a new scheduler when
        # the words moved between calls, as Session.offline does
        def outcomes(toy, take):
            out, last = [], None
            for k in range(900):
                if k % 150 == 149:
                    toy.pos += 3  # an outside read
                try:
                    out.append(take(last))
                except ToyFault as exc:
                    out.append(str(exc))
                last = toy.pos
            return out, toy.pos

        ref = ToyProgram(seed, fault_every=211)
        toy = ToyProgram(seed, fault_every=211)
        blocks = []

        def pooled(last):
            if toy.pos != last:
                blocks.append(toy.scheduler(self.CAP, run=0))
            return blocks[-1].take_one()

        want = outcomes(ref, lambda last: ref.step())
        assert outcomes(toy, pooled) == want
        assert any(isinstance(o, str) for o in want[0])
        assert toy.sizes and max(toy.sizes) <= self.CAP
        assert len(blocks) > 6  # the outside reads and the faults

    def test_first_blocks_of_one_at_a_time_takes(self):
        # no rejection: BATCH_MIN_SESSIONS sequential executions, then
        # blocks as long as the run, up to the cap
        toy = ToyProgram(1, reject_every=0)
        blocks = toy.scheduler(64, run=0)
        values = [blocks.take_one() for _ in range(300)]
        be = BATCH_MIN_SESSIONS
        assert toy.sizes == [be, 2 * be, 4 * be, 64, 64, 64, 64]
        assert values == sequential(ToyProgram(1, reject_every=0), 300)[0]

    def test_frequent_rejections_back_off_from_blocks(self):
        # a block keeps about three executions, less than the loop would
        # run in its time, so each short block quadruples the run the next
        # one waits for, and the blocks that do run stay small
        for take in ("eager", "one at a time"):
            toy, ref = ToyProgram(6), ToyProgram(6)
            if take == "eager":
                got = toy.scheduler(1024).take(3000).tolist()
            else:
                blocks = toy.scheduler(1024, run=0)
                got = [blocks.take_one() for _ in range(3000)]
            assert got == sequential(ref, 3000)[0] and toy.pos == ref.pos
            assert 0 < len(toy.sizes) <= 6
            assert max(toy.sizes[1:], default=0) <= 2 * BATCH_MIN_SESSIONS
