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
    st.tuples(st.just("field_array"), st.sampled_from(PRIMES + (BIG_PRIME,)), st.integers(0, 50)),
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

    def test_injected_tape_runs_dry_on_words(self):
        tape = RandomTape(words=[1, 2, 3])
        with pytest.raises(StopIteration):
            tape.words(4)

    def test_block_reads_refuse_injected_tapes(self):
        tape = RandomTape(words=[1, 2])
        with pytest.raises(ValueError):
            tape.peek_block(1)
        with pytest.raises(ValueError):
            tape.field_array(37, 1)
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
        # words(3) draws a buffer of _BUF words: _BUF - 3 lie past the read position
        assert tape.words(3) == [ref.word() for _ in range(3)]
        with pytest.raises(ValueError, match="cannot skip"):
            tape.skip(_BUF - 2)
        assert tape.words_consumed == 3
        tape.skip(_BUF - 3)
        ref.skip(_BUF - 3)
        assert tape.words_consumed == ref.words_consumed == _BUF
        assert tape.words(5) == [ref.word() for _ in range(5)]


class TestResidues:
    """`field_array`'s residue draws: rejection top-ups and refused moduli."""

    def test_seeded_rejections_top_up(self):
        # about half the words are rejected at BIG_PRIME, so the draw tops
        # up past its first n + 8 words
        a, b = RandomTape(8), ReferenceTape(8)
        assert a.field_array(BIG_PRIME, 50).tolist() == b.field_array(BIG_PRIME, 50).tolist()
        assert a.words_consumed == b.words_consumed > 58
        assert a.field_elements(BIG_PRIME, 50) == b.field_array(BIG_PRIME, 50).tolist()

    @pytest.mark.parametrize("q", [0, 2**64 + 13])
    def test_modulus_past_a_word_is_refused(self, q):
        # no word lies below a limit of 0, so the draw used to loop forever
        tape = RandomTape(9)
        for draw in (tape.field_array, tape.field_elements):
            with pytest.raises(ValueError, match="cannot draw"):
                draw(q, 3)
        assert tape.words_consumed == 0
