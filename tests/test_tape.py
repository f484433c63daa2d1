"""The word tape: its stream, its word counts and its block reads.

A `RandomTape` reads its words off one uint64 buffer at one position, a
slice at a time, whether it is seeded or injected; the `ReferenceTape`
oracle in conftest reads them off one flat stream.  Both must give the
same values and the same `words_consumed` under any interleaving of the
tape's calls.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceTape, lane_bits, lane_residues
from trunclap import RandomTape
from trunclap.tape import _BUFFER_WORDS, BATCH_MIN_SESSIONS, BlockScheduler

# the ring moduli are powers of two, up to 2^64: lanes of 8, 16, 32 and
# 64 bits, full and partly masked
MODULI = (1, 2, 2**6, 2**9, 2**12, 2**17, 2**31, 2**32, 2**33, 2**63, 2**64)

OPS = st.one_of(
    st.tuples(st.just("word")),
    st.tuples(st.just("words"), st.integers(0, 40)),
    # long reads carry the stream across one or more buffer refills
    st.tuples(st.just("words"), st.integers(_BUFFER_WORDS // 2, _BUFFER_WORDS + 300)),
    st.tuples(st.just("peek_skip"), st.integers(0, 600), st.floats(0, 1)),
    st.tuples(
        st.just("peek_skip"), st.integers(_BUFFER_WORDS - 50, _BUFFER_WORDS + 50), st.floats(0, 1)
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
        # a seeded tape, and a tape injected with the same stream off an
        # oracle of its own, read alike
        tapes = RandomTape(seed), RandomTape(words=iter(ReferenceTape(seed).word, None))
        ref = ReferenceTape(seed)
        for op in ops:
            want = apply(ref, op)
            for tape in tapes:
                assert apply(tape, op) == want, op
                assert tape.words_consumed == ref.words_consumed, op
        # and the stream reads on identically from wherever the ops left it
        want = [ref.word() for _ in range(300)]
        assert [tape.words(300) for tape in tapes] == [want, want]

    @pytest.mark.parametrize("seed", [0, 1234, [7, 1]])
    def test_seeded_words_are_the_generators_integers(self, seed):
        # the word stream's definition: a seeded tape hands out the words
        # Generator(PCG64(seed)).integers(0, 2^64, dtype=uint64) gives, in
        # order, every read taking the next ones, whatever it draws at once
        B = _BUFFER_WORDS
        ref = np.random.Generator(np.random.PCG64(seed)).integers(
            0, 2**64, size=4 * B, dtype=np.uint64
        ).tolist()
        tape = RandomTape(seed)
        # word and words, across the first buffer's end
        assert [tape.word() for _ in range(B - 3)] + tape.words(10) == ref[: B + 7]
        # a block read across the second buffer's end; skip keeps part of it
        assert tape.peek_block(B).tolist() == ref[B + 7 : 2 * B + 7]
        tape.skip(B - 5)
        assert tape.word() == ref[2 * B + 2]
        # field_array takes the next n / 2 words, and keeps the low 31 bits
        # of each of their two 32-bit lanes, the low lane first
        q, n, at = 2**31, 100, 2 * B + 3
        assert tape.field_array(q, n).tolist() == [
            w >> shift & (q - 1) for w in ref[at : at + n // 2] for shift in (0, 32)
        ]
        at += n // 2
        # a read longer than a buffer, then residues across its end
        assert tape.words(B + 10) == ref[at : at + B + 10]
        at += B + 10
        assert tape.field_elements(q, n) == lane_residues(ref[at : at + n // 2], q, n)
        at += n // 2
        assert tape.word() == ref[at]
        assert tape.words_consumed == at + 1

    def test_a_seed_of_none_is_refused(self):
        # None used to seed the generator from OS entropy, so two such
        # tapes handed out different words
        with pytest.raises(ValueError, match="needs a seed"):
            RandomTape(None)
        assert RandomTape(None, words=[5]).word() == 5

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_words_on_injected_tapes(self, n):
        stream = [(i * 0x9E3779B97F4A7C15) % 2**64 for i in range(400)]
        a, b = RandomTape(words=stream), RandomTape(words=stream)
        assert a.words(n) == [b.word() for _ in range(n)] == stream[:n]
        assert a.words_consumed == b.words_consumed == n
        assert a.word() == b.word()

    def test_injected_tape_runs_dry_on_words(self):
        # a read past the last word, of any kind, consumes nothing
        tape = RandomTape(words=[1, 2, 3])
        with pytest.raises(StopIteration):
            tape.words(4)
        with pytest.raises(StopIteration):
            tape.peek_block(4)
        with pytest.raises(StopIteration):
            tape.field_array(2**64, 4)
        assert tape.words_consumed == 0
        assert tape.words(3) == [1, 2, 3]
        with pytest.raises(StopIteration):
            tape.word()
        assert tape.words_consumed == 3

    def test_block_and_residue_reads_return_the_injected_words(self):
        # they used to refuse an injected tape
        stream = [(i * 0x9E3779B97F4A7C15) % 2**64 for i in range(400)]
        tape = RandomTape(words=stream)
        assert tape.peek_block(300).tolist() == stream[:300]
        tape.skip(100)
        # 50 residues mod 2^12 are the 16-bit lanes of 13 words, the last
        # word's two unused lanes dropped
        assert tape.field_array(2**12, 50).tolist() == lane_residues(stream[100:113], 2**12, 50)
        assert tape.word() == stream[113]
        assert tape.field_elements(2**64, 9) == stream[114:123]
        assert tape.peek_block(240).tolist() == stream[123:363]
        assert tape.words_consumed == 123

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "3"])
    def test_injected_non_words_are_refused(self, bad):
        # a non-word used to be handed out as it was: a float truncated, a
        # numeric string parsed
        with pytest.raises(ValueError, match="injected word"):
            RandomTape(words=[5, bad]).word()

    def test_injected_numpy_integers_are_words(self):
        words = [np.uint64(2**64 - 1), np.int64(3), True, 7]
        assert RandomTape(words=words).words(4) == [2**64 - 1, 3, 1, 7]

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
        # words(3) draws a buffer of _BUFFER_WORDS words: all but 3 lie past the read position
        assert tape.words(3) == [ref.word() for _ in range(3)]
        with pytest.raises(ValueError, match="cannot skip"):
            tape.skip(_BUFFER_WORDS - 2)
        assert tape.words_consumed == 3
        tape.skip(_BUFFER_WORDS - 3)
        ref.skip(_BUFFER_WORDS - 3)
        assert tape.words_consumed == ref.words_consumed == _BUFFER_WORDS
        assert tape.words(5) == [ref.word() for _ in range(5)]


class TestResidues:
    """`field_array`'s residue draws: masked lanes of whole words, and
    refused moduli."""

    @pytest.mark.parametrize("q", [1, 2**20, 2**64])
    def test_residues_are_masked_words(self, q):
        # one lane a residue, nothing rejected: 8 lanes of a word at q = 1,
        # 2 at 2^20 and 1 at 2^64, so 50 residues take 7, 25 and 50 words
        a, b = RandomTape(8), ReferenceTape(8)
        words = {1: 7, 2**20: 25, 2**64: 50}[q]
        assert a.field_array(q, 50).tolist() == b.field_array(q, 50).tolist()
        assert a.words_consumed == b.words_consumed == words
        assert a.field_elements(q, 50) == b.field_array(q, 50).tolist()
        assert a.words_consumed == 2 * words

    # q, its lane width, and the lanes one word holds
    LANES = [(1, 8, 8), (2, 8, 8), (2**6, 8, 8), (2**8, 8, 8), (2**9, 16, 4), (2**16, 16, 4),
             (2**17, 32, 2), (2**32, 32, 2), (2**33, 64, 1), (2**64, 64, 1)]

    @pytest.mark.parametrize("injected", [False, True], ids=["seeded", "injected"])
    @pytest.mark.parametrize("q, width, lanes", LANES)
    def test_lane_draws_match_the_reference(self, q, width, lanes, injected):
        # every count around a word's edge, each draw followed by a word
        # read: a draw takes ceil(n / lanes) whole words, and the next word
        # read is the one after them
        assert lane_bits(q) == width
        ref = ReferenceTape(21)
        tape = RandomTape(words=iter(ReferenceTape(21).word, None)) if injected else RandomTape(21)
        for n in (0, 1, lanes - 1, lanes, lanes + 1, 320):
            before = tape.words_consumed
            got = tape.field_array(q, n)
            assert got.dtype == np.uint64 and got.shape == (n,)
            assert got.tolist() == ref.field_array(q, n).tolist()
            assert tape.words_consumed == ref.words_consumed == before + -(-n // lanes)
            assert tape.field_elements(q, n) == ref.field_array(q, n).tolist()
            assert tape.word() == ref.word()

    def test_lanes_are_little_endian(self):
        # lane j of a word is its bits [w*j, w*j + w), whatever the host's
        # byte order
        word = 0x8877665544332211

        def draw(q, n):
            return RandomTape(words=[word, 0]).field_array(q, n).tolist()

        assert draw(2**8, 8) == [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]
        assert draw(2**6, 8) == [0x11, 0x22, 0x33, 0x04, 0x15, 0x26, 0x37, 0x08]
        assert draw(2**16, 4) == [0x2211, 0x4433, 0x6655, 0x8877]
        assert draw(2**9, 4) == [0x011, 0x033, 0x055, 0x077]
        assert draw(2**32, 2) == [0x44332211, 0x88776655]
        assert draw(2**33, 1) == [word & (2**33 - 1)]
        assert draw(2**64, 1) == [word]

    @pytest.mark.parametrize("q", [2**33, 2**40, 2**63, 2**64])
    def test_moduli_past_2_32_take_a_word_a_residue(self, q):
        # one 64-bit lane a word, so each residue is its word masked to
        # q - 1: the stream these moduli drew before lanes
        tape, words = RandomTape(31), RandomTape(31).words(300)
        assert tape.field_array(q, 300).tolist() == [w & (q - 1) for w in words]
        assert tape.words_consumed == 300

    def test_negative_counts_are_refused(self):
        tape = RandomTape(9)
        with pytest.raises(ValueError, match="cannot read -1 residues"):
            tape.field_array(2**12, -1)
        assert tape.words_consumed == 0

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
    """A toy execution over a seeded word list: one word an execution,
    faulting one execution in `fault_every` (naming its position) and
    otherwise giving the value.

    `step` runs the next execution sequentially, `evaluate` a block of them
    without consuming words (raising at once, as the loop would at the
    block's first fault, if it holds one), and `commit` consumes the first
    k of a block; `pos` is the words consumed.  `sizes` logs every block
    evaluated.
    """

    def __init__(self, seed: int, fault_every: int = 0):
        self.words = RandomTape(seed).words(20_000)
        self.fault_every = fault_every
        self.pos = 0
        self.sizes = []

    def _hits(self, w):
        return w % self.fault_every == 0 if self.fault_every else w != w

    def step(self) -> int:
        w = self.words[self.pos]
        self.pos += 1
        if self._hits(w):
            raise ToyFault(f"fault at word {self.pos}")
        return w % 1000

    def evaluate(self, size: int):
        self.sizes.append(size)
        w = np.array(self.words[self.pos : self.pos + size], dtype=np.uint64)
        hits = self._hits(w)
        if hits.any():
            raise ToyFault(f"fault at word {self.pos + int(np.argmax(hits)) + 1}")
        return (w % 1000).astype(np.int64), self.commit

    def commit(self, k: int) -> None:
        self.pos += k

    def scheduler(self, cap: int) -> BlockScheduler:
        return BlockScheduler(self.evaluate, self.step, cap)


def sequential(program: ToyProgram, n: int):
    """(values, words consumed, fault message or None) of the loop."""
    values = []
    try:
        for _ in range(n):
            values.append(program.step())
    except ToyFault as exc:
        return values, program.pos, str(exc)
    return values, program.pos, None


def raised_at(sizes: list, pos: int) -> int:
    """The words a scheduler consumed before raising for the fault at word
    `pos` (1-based): the start of the block that holds it, which commits
    nothing, or `pos` when the loop ran it."""
    start = 0
    for size in sizes:
        if pos <= start + size:
            return start
        start += size
    return pos


class TestBlockScheduler:
    """The one block policy, driven by a toy program with rare faults,
    against the sequential loop: equal values, and on a fault the same
    error, raised by a block before any of it is consumed."""

    CAP = 16

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 3 * CAP + 5])
    @pytest.mark.parametrize("seed", range(12))
    def test_eager_take_equals_the_loop(self, n, seed):
        want = sequential(ToyProgram(seed, fault_every=61), n)
        toy = ToyProgram(seed, fault_every=61)
        try:
            got = (toy.scheduler(self.CAP).take(n).tolist(), toy.pos, None)
        except ToyFault as exc:
            # a take that raises returns nothing, and a block that raises
            # consumes none of its words: compare how, and where it stopped
            assert toy.pos == raised_at(toy.sizes, want[1])
            got = (want[0], want[1], str(exc))
        assert got == want
        # a call's first block holds min(n, cap); shorter calls loop
        assert toy.sizes[:1] == ([min(n, self.CAP)] if n >= BATCH_MIN_SESSIONS else [])
        # blocks of min(left, cap), then the loop below BATCH_MIN_SESSIONS;
        # a take that raises stops at its faulting block
        whole, rest = divmod(n, self.CAP)
        blocks = [self.CAP] * whole + [rest] * (rest >= BATCH_MIN_SESSIONS)
        assert toy.sizes == (blocks if want[2] is None else blocks[: len(toy.sizes)])

    def test_eager_takes_raise_as_the_loop_does(self):
        raised = in_block = 0
        for seed in range(40):
            want = sequential(ToyProgram(seed, fault_every=29), 3 * self.CAP + 5)
            toy = ToyProgram(seed, fault_every=29)
            with pytest.raises(ToyFault) if want[2] else contextlib.nullcontext() as exc:
                toy.scheduler(self.CAP).take(3 * self.CAP + 5)
            if want[2] is None:
                assert toy.pos == want[1]
                continue
            assert str(exc.value) == want[2]
            assert toy.pos == raised_at(toy.sizes, want[1])
            raised += 1
            in_block += toy.pos < want[1]
        assert 0 < in_block <= raised < 40

    @pytest.mark.parametrize("seed", range(6))
    def test_one_at_a_time_with_outside_reads(self, seed):
        # a caller taking one execution per call starts a new scheduler when
        # the words moved between calls, as Session.offline does
        def outcomes(toy, take):
            out, last = [], None
            for k in range(900):
                if k % 150 == 149:
                    toy.pos += 3  # an outside read
                out.append(take(last))
                last = toy.pos
            return out, toy.pos

        ref = ToyProgram(seed)
        toy = ToyProgram(seed)
        blocks = []

        def pooled(last):
            if toy.pos != last:
                blocks.append(toy.scheduler(self.CAP))
            return blocks[-1].take_one()

        assert outcomes(toy, pooled) == outcomes(ref, lambda last: ref.step())
        assert toy.sizes and max(toy.sizes) <= self.CAP
        assert len(blocks) > 6  # the outside reads

    @pytest.mark.parametrize("seed", range(6))
    def test_one_at_a_time_raises_as_the_loop_does(self, seed):
        # the call that evaluates a faulting block raises the loop's first
        # error, at or before the loop's faulting call, and consumes nothing
        # of the block
        def outcomes(take):
            for k in range(900):
                try:
                    take()
                except ToyFault as exc:
                    return k, str(exc)
            return None

        ref, toy = ToyProgram(seed, fault_every=211), ToyProgram(seed, fault_every=211)
        want = outcomes(ref.step)
        got = outcomes(toy.scheduler(self.CAP).take_one)
        assert want is not None  # a fault was met
        assert got[1] == want[1] and got[0] <= want[0]
        assert toy.sizes  # it raised in a block
        assert toy.pos == got[0]  # one word a call before it, none of the block
    def test_first_blocks_of_one_at_a_time_takes(self):
        # BATCH_MIN_SESSIONS sequential executions, then blocks as long as
        # the run, up to the cap
        toy = ToyProgram(1)
        blocks = toy.scheduler(64)
        values = [blocks.take_one() for _ in range(300)]
        be = BATCH_MIN_SESSIONS
        assert toy.sizes == [be, 2 * be, 4 * be, 64, 64, 64, 64]
        assert values == sequential(ToyProgram(1), 300)[0]
