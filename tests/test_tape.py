"""The word tape: its stream, its word counts and its block reads.

A seeded `RandomTape` hands out words from a window of Python ints; the
`ReferenceTape` oracle in conftest reads them off the uint64 buffer one
at a time, as the tape did before.  Both must give the same values and
the same `words_consumed` under any interleaving of the tape's calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceTape
from trunclap import RandomTape
from trunclap.tape import _BUF, _WINDOW_MAX, _WINDOW_MIN

# the field moduli are odd primes
PRIMES = (3, 37, 1031, 2053, 2**31 - 1, 2**61 - 1)
# a prime above 2^63: its rejection limit is q itself, so about half the
# words are rejected
BIG_PRIME = 2**63 + 29

OPS = st.one_of(
    st.tuples(st.just("word")),
    st.tuples(st.just("words"), st.integers(0, 40)),
    # long reads carry the stream across the 4096-word buffer refills
    st.tuples(st.just("words"), st.integers(_BUF - 300, _BUF + 300)),
    st.tuples(st.just("peek_skip"), st.integers(0, 600), st.floats(0, 1)),
    st.tuples(st.just("peek_skip"), st.integers(_BUF - 50, _BUF + 50), st.floats(0, 1)),
    st.tuples(st.just("field_element"), st.sampled_from(PRIMES)),
    st.tuples(st.just("field_array"), st.sampled_from(PRIMES), st.integers(0, 50)),
    st.tuples(st.just("residues"), st.sampled_from(PRIMES + (BIG_PRIME,)), st.integers(0, 40)),
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
    if name == "field_element":
        return tape.field_element(*args)
    if name == "residues":
        q, n = args
        if isinstance(tape, ReferenceTape):
            return [tape.field_element(q) for _ in range(n)]
        return tape.residues(q, n)
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
        B = _BUF
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
        # field_array draws n + 8 words after the 3B the buffers hold; at
        # q = 2^31 - 1 a word is rejected with probability about 2^-33,
        # and none of these is
        q, n = 2**31 - 1, 100
        assert tape.field_array(q, n).tolist() == [w % q for w in ref[3 * B : 3 * B + n]]
        assert tape.words_consumed == 2 * B + 3 + n + 8
        after = 3 * B + n + 8
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

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_words_on_recording_tapes(self, n):
        a, b = RandomTape(31, record=True), RandomTape(31, record=True)
        assert a.words(n) == [b.word() for _ in range(n)]
        assert a.draw_log == b.draw_log and len(a.draw_log) == n
        assert a.words_consumed == b.words_consumed == n
        ref = ReferenceTape(31)
        assert a.draw_log == [ref.word() for _ in range(n)]

    def test_injected_tape_runs_dry_on_words(self):
        tape = RandomTape(words=[1, 2, 3])
        with pytest.raises(StopIteration):
            tape.words(4)

    def test_block_reads_refuse_injected_and_recording_tapes(self):
        for tape in (RandomTape(words=[1, 2]), RandomTape(1, record=True)):
            with pytest.raises(ValueError):
                tape.peek_block(1)
            with pytest.raises(ValueError):
                tape.field_array(37, 1)

    def test_words_are_python_ints(self):
        tape = RandomTape(2)
        assert all(type(w) is int for w in tape.words(50) + [tape.word()])


class TestResidues:
    """`residues(q, n)` is n `field_element(q)` calls: the same values, the
    same words_consumed and the same draw log, on every kind of tape."""

    Q = 521
    LIMIT = (2**64 // 521) * 521

    def pair(self, kind):
        if kind == "seeded":
            return RandomTape(7), RandomTape(7)
        if kind == "recording":
            return RandomTape(7, record=True), RandomTape(7, record=True)
        # words at or above the limit are rejected, so the read tops up
        lim = self.LIMIT
        stream = [lim, 5, 2**64 - 1, lim + 1, lim - 1, 6, lim, lim, 7] + list(range(100))
        return RandomTape(words=stream), RandomTape(words=stream)

    @pytest.mark.parametrize("kind", ["seeded", "recording", "injected"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 15])
    def test_equals_field_element_calls(self, kind, n):
        a, b = self.pair(kind)
        for _ in range(3):
            assert a.residues(self.Q, n) == [b.field_element(self.Q) for _ in range(n)]
            assert a.words_consumed == b.words_consumed
        assert a.draw_log == b.draw_log
        assert a.word() == b.word()

    def test_injected_rejections_top_up(self):
        a, _ = self.pair("injected")
        assert a.residues(self.Q, 4) == [5, (self.LIMIT - 1) % self.Q, 6, 7]
        assert a.words_consumed == 9

    def test_seeded_rejections_top_up(self):
        a, b = RandomTape(8), ReferenceTape(8)
        assert a.residues(BIG_PRIME, 50) == [b.field_element(BIG_PRIME) for _ in range(50)]
        assert a.words_consumed == b.words_consumed > 50

    @pytest.mark.parametrize("q", [0, 2**64 + 13])
    def test_modulus_past_a_word_is_refused(self, q):
        # no word lies below a limit of 0, so the draw used to loop forever
        tape = RandomTape(9)
        for draw in (tape.field_element, lambda q: tape.residues(q, 3)):
            with pytest.raises(ValueError, match="cannot draw"):
                draw(q)

    def test_limit_is_computed_once_per_modulus(self):
        tape = RandomTape(9)
        for q in (521, 37, 521):
            tape.field_element(q)
        assert tape._limits == {521: self.LIMIT, 37: (2**64 // 37) * 37}
