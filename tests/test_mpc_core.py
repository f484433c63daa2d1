import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

from conftest import mux_composition
from trunclap.grids import FieldConfig, field_for_mechanism
from trunclap.mechanisms import TCL, MechanismParams, branch_probability_d
from trunclap.mpc import BatchSession, ContractViolation, Session, mechanism_field
from trunclap.mpc.core import (
    CMP_ELEMENTS,
    CMP_ROUNDS,
    RESIDUES_PER_REFILL,
    CostLedger,
    TripleStore,
)
from trunclap.mpc.protocols import run_sessions
from trunclap.sampling import centered_dlap_config
from trunclap.tape import RandomTape


# q = 2^9, safe magnitude 2^7
SMALL = FieldConfig(e=3, p=2, headroom=3)


def small_session(seed0=1, seed1=2, **kw) -> Session:
    return Session(SMALL, seed0, seed1, **kw)


class TestShareOpen:
    def test_reconstruction_random(self):
        s = small_session()
        rng = np.random.default_rng(0)
        for v in rng.integers(0, s.q, size=10_000):
            assert s.open(s.share(int(v))) == s.field.lift(int(v))

    def test_zero(self):
        s = small_session()
        assert s.open(s.share(0)) == 0

    def test_share_is_masked_uniformly(self):
        s = small_session()
        shares = [s.share(123)[0] for _ in range(10_000)]
        counts, _ = np.histogram(shares, bins=16, range=(0, s.q))
        _, p = chisquare(counts)
        assert p > 0.01

    def test_grid_value_round_trip(self):
        s = small_session()
        v = s.field.encode(1.25)
        assert s.field.decode(s.open(s.share(v))) == 1.25

    def test_ledger_open_costs(self):
        s = small_session()
        before = s.ledger.as_dict()
        s.open(s.share(5))
        d = s.ledger.delta(before)
        assert d["rounds"] == 2 and d["elements_exchanged"] == 3


class TestWires:
    """share, open, peek, mul and the transcript hook, written once for both
    substrates: exhaustive reconstruction and each wire's transcript."""

    CFG = SMALL

    def test_substrates_supply_only_randomness_and_policy(self):
        for cls in (Session, BatchSession):
            assert not {"share", "open", "peek", "mul", "_recv"} & set(vars(cls))

    def test_session_reconstructs_every_residue(self):
        s = Session(self.CFG, 1, 2)
        q = s.q
        for r in range(q):
            # share sums below q and at or above q both lift to lift(r)
            for sv in ((r, 0), (q - 1, (r + 1) % q)):
                assert s.peek(sv) == self.CFG.lift(r)
                assert s.open(sv) == self.CFG.lift(r)
            assert s.open(s.share(r)) == self.CFG.lift(r)
        assert s.peek(((q - 1) // 2, 0)) == (q - 1) // 2
        assert s.peek(((q + 1) // 2, 0)) == -(q - 1) // 2

    def test_batch_reconstructs_every_residue(self):
        s = BatchSession(Session(self.CFG, 1, 2))
        q = s.q
        r = np.arange(q)
        lifted = np.array([self.CFG.lift(int(v)) for v in r])
        for sv in ((r, 0), (q - 1, (r + 1) % q), s.share(r)):
            assert np.array_equal(s.peek(sv), lifted)
            assert np.array_equal(s.open(sv), lifted)
        assert lifted[(q - 1) // 2] == (q - 1) // 2 and lifted[(q + 1) // 2] == -(q - 1) // 2

    def test_triple_algebra_on_ints_and_arrays(self, monkeypatch):
        # mul opens to x*y mod q for random triples and random shares, and
        # a Session gives each execution's shares of a BatchSession
        q = self.CFG.q
        rng = np.random.default_rng(4)
        triples = rng.integers(0, q, size=(5, 200))
        a0, a1, b0, b1 = rng.integers(0, q, size=(4, 200))
        batch = BatchSession(Session(self.CFG, 1, 2))
        monkeypatch.setattr(batch, "_triple", lambda *_: triples)
        z = batch.mul((a0, a1), (b0, b1))
        assert np.array_equal(batch.peek(z), [self.CFG.lift(v) for v in (a0 + a1) * (b0 + b1)])
        s = Session(self.CFG, 1, 2)
        for j in range(triples.shape[1]):
            monkeypatch.setattr(s, "_triple", lambda *_: tuple(int(t) for t in triples[:, j]))
            zj = s.mul((int(a0[j]), int(a1[j])), (int(b0[j]), int(b1[j])))
            assert zj == (z[0][j], z[1][j])

    @pytest.mark.parametrize("k", [5, 31, 32, 63, 64])
    def test_wires_at_the_ring_edges(self, k, monkeypatch):
        # q = 2^k: every share and triple residue at 0 or q-1, the extremes
        # of each product and sum, which a uint64 wraps mod 2^64
        cfg = FieldConfig(e=k - 1, p=0)
        q, h = cfg.q, cfg.half
        assert q == 2**k
        ends = np.array([0, q - 1], dtype=np.uint64)
        grid = np.array(np.meshgrid(*[ends] * 9, indexing="ij"))
        shares, triples = grid.reshape(9, -1)[:4], grid.reshape(9, -1)[4:]
        batch = BatchSession(Session(cfg, 1, 2))
        monkeypatch.setattr(batch, "_triple", lambda *_: triples)
        z = batch.mul(tuple(shares[:2]), tuple(shares[2:]))
        opened = batch.peek(z)
        s = Session(cfg, 1, 2)
        for j in range(shares.shape[1]):
            monkeypatch.setattr(s, "_triple", lambda *_: tuple(int(t) for t in triples[:, j]))
            a0, a1, b0, b1 = (int(v) for v in shares[:, j])
            zj = s.mul((a0, a1), (b0, b1))
            assert zj == (int(z[0][j]), int(z[1][j]))
            assert all(0 <= v < q for v in zj)
            assert s.peek(zj) == opened[j] == cfg.lift((a0 + a1) * (b0 + b1))
        # share and open at the ends of the balanced range [-q/2, q/2)
        edges = [0, 1, h - 1, h, q - 1]
        lifted = [cfg.lift(v) for v in edges]
        assert lifted[2:] == [h - 1, -h, -1]
        s, batch = Session(cfg, 3, 4), BatchSession(Session(cfg, 3, 4))
        assert [s.open(s.share(v)) for v in edges] == lifted
        assert [s.peek((v, q - 1)) for v in edges] == [cfg.lift(v - 1) for v in edges]
        assert batch.open(batch.share(np.array(edges, dtype=np.uint64))).tolist() == lifted
        # a product of two values each about q/4 in size opens to lift(x*y)
        x, y = 2 ** (k - 2) + 3, -(2 ** (k - 2)) - 7
        assert s.open(s.mul(s.share(x), s.share(y))) == cfg.lift(x * y)
        xy = batch.mul(batch.share(np.array([x])), batch.share(np.array([y])))
        assert batch.open(xy).tolist() == [cfg.lift(x * y)]
        # a common value (plain ints, whose share sum can pass 2^64) times
        # a common value and times an array
        cx = batch.share(x)
        assert batch.open(batch.mul(cx, batch.share(y))) == cfg.lift(x * y)
        assert batch.open(batch.mul(cx, batch.share(np.array([y])))).tolist() == [cfg.lift(x * y)]

    def test_transcript_per_wire(self, monkeypatch):
        s = Session(self.CFG, 1, 2, record_transcript=True)
        t0, t1 = s.transcript
        x = s.share(3)  # party 1 receives the dealer's mask: its own share
        assert (t0, t1) == ([], [x[1]])
        y = s.share(5)
        s.open(x)  # each party receives the other's share
        assert (t0, t1[2:]) == ([x[1]], [x[0]])
        # mul: each party receives the other's shares of d = x - a and e = y - b
        a, b, q = 100, 200, s.q
        # the dealer's five residues (ta, tb, ta0, tb0, tc0)
        monkeypatch.setattr(s, "_triple", lambda *_: (a, b, 7, 9, 11))
        z = s.mul(x, y)
        assert (len(t0), len(t1)) == (3, 5)
        assert (t0[-2] + t1[-2]) % q == (3 - a) % q
        assert (t0[-1] + t1[-1]) % q == (5 - b) % q
        assert s.peek(z) == 15

    def test_batch_records_no_transcript(self):
        s = BatchSession(Session(self.CFG, 1, 2))
        x, y = s.share(np.arange(4)), s.share(3)
        s.open(s.mul(x, y))
        s.open(s.add(x, y))
        assert not s.record_transcript and s.transcript == ([], [])


class TestArithmetic:
    def test_add_linearity(self):
        s = small_session()
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, y = (int(v) for v in rng.integers(0, s.q, size=2))
            a, b = s.share(x), s.share(y)
            assert s.open(s.add(a, b)) == s.field.lift(x + y)

    def test_mul_correctness(self):
        s = small_session()
        assert s.open(s.mul(s.share(3), s.share(5))) == 15
        rng = np.random.default_rng(2)
        for _ in range(300):
            x, y = (int(v) for v in rng.integers(0, s.q, size=2))
            assert s.open(s.mul(s.share(x), s.share(y))) == s.field.lift(x * y)

    def test_mul_ledger_contract(self):
        s = small_session()
        a, b = s.share(3), s.share(5)
        before = s.ledger.as_dict()
        s.mul(a, b)
        d = s.ledger.delta(before)
        assert d["multiplications"] == 1
        assert d["rounds"] == 1
        assert d["elements_exchanged"] == 4

    def test_public_ops_are_free(self):
        s = small_session()
        a = s.share(7)
        before = s.ledger.as_dict()
        s.add_public(s.affine(a, 3, 0), 11)
        assert s.ledger.delta(before) == {k: 0 for k in before}

    def test_triple_sanity(self):
        s = small_session()
        q = s.q
        for _ in range(200):
            triple = ta, tb, ta0, tb0, tc0 = s.triples.take()
            assert all(0 <= t < q for t in triple)
            # party 1's shares are implied: ta - ta0, tb - tb0, ta*tb - tc0
            ta1, tb1, tc1 = (ta - ta0) % q, (tb - tb0) % q, (ta * tb - tc0) % q
            assert (ta0 + ta1) % q == ta and (tb0 + tb1) % q == tb
            assert (tc0 + tc1) % q == (ta0 + ta1) * (tb0 + tb1) % q


class TestMux:
    def test_endpoints(self):
        s = small_session()
        a, b = s.share(10), s.share(20)
        assert s.open(s.mux(s.share(0), a, b)) == 10
        assert s.open(s.mux(s.share(1), a, b)) == 20

    def test_identical_branches(self):
        s = small_session()
        a = s.share(42)
        for bit in (0, 1):
            assert s.open(s.mux(s.share(bit), a, a)) == 42

    def test_ledger_exactly_one_mul(self):
        s = small_session()
        i, a, b = s.share(1), s.share(10), s.share(20)
        before = s.ledger.as_dict()
        s.mux(i, a, b)
        assert s.ledger.delta(before)["multiplications"] == 1

    def test_non_bit_selector_raises(self):
        s = small_session()
        with pytest.raises(ContractViolation, match="selector 2"):
            s.mux(s.share(2), s.share(0), s.share(1))

    def test_non_bit_selector_raises_in_batch(self):
        s = BatchSession(Session(SMALL, 1, 2))
        sel = s.share(np.array([0, 1, 2, 1]))
        with pytest.raises(ContractViolation, match="selector 2"):
            s.mux(sel, s.share(np.zeros(4, dtype=np.int64)), s.share(np.ones(4, dtype=np.int64)))

    @pytest.mark.parametrize("bit", [0, 1])
    def test_equals_the_composition_on_a_recording_session(self, bit):
        # the same seeds give both sessions the same shares and triple
        outs = []
        for mux in (Session.mux, mux_composition):
            s = small_session(record_transcript=True)
            i, a, b = s.share(bit), s.share(10), s.share(20)
            outs.append((mux(s, i, a, b, s.triples.take()), s.ledger.as_dict(), s.transcript))
        assert outs[0] == outs[1]
        assert all(type(v) is int for v in outs[0][0])
        assert small_session().peek(outs[0][0]) == (10, 20)[bit]

    @pytest.mark.parametrize("bit", [0, 1])
    def test_equals_the_composition_on_a_batch(self, bit):
        outs = []
        for mux in (BatchSession.mux, mux_composition):
            s = BatchSession(Session(SMALL, 1, 2))
            i = s.share(np.full(6, bit))
            a, b = s.share(np.arange(6)), s.share(np.arange(6) + 100)
            outs.append((mux(s, i, a, b, s._masks((5, 6))), s.ledger.as_dict(), s.transcript))
        (got, led, seen), (want, want_led, want_seen) = outs
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert (led, seen) == (want_led, want_seen)
        assert np.array_equal(s.peek(got), np.arange(6) + 100 * bit)

    def test_non_bit_selector_marks_the_execution_in_a_block(self):
        # inside a block a non-bit selector raises nothing: it ends the block
        # before the first execution it reaches, which the session then runs
        # and fails on
        def program(b):
            sel = b.pi_uni(4)
            b.mux(sel, b.share_public(0), b.share_public(1))
            return b.peek(sel)

        batch = BatchSession(Session(SMALL, 1, 2))
        kept, sels, _ = batch._evaluate(program, 1, 64)
        bad = (sels != 0) & (sels != 1)
        assert bad.any() and np.array_equal(batch._rejected, bad)
        assert kept == int(np.argmax(bad))
        with pytest.raises(ContractViolation, match="mux selector"):
            Session(SMALL, 1, 2).run(program, 64, 1)


class TestCostLedger:
    def test_add_covers_every_field(self):
        # distinct counts on each side: a field that `add` misses or mixes
        # up with another reads wrong
        names = [f.name for f in dataclasses.fields(CostLedger)]
        total = CostLedger(**{n: 1 + k for k, n in enumerate(names)})
        unit = CostLedger(**{n: 10 ** (k + 1) for k, n in enumerate(names)})
        total.add(unit, 3)
        assert total.as_dict() == {n: 1 + k + 3 * 10 ** (k + 1) for k, n in enumerate(names)}
        total.add(unit)
        assert total.as_dict() == {n: 1 + k + 4 * 10 ** (k + 1) for k, n in enumerate(names)}

    def test_as_dict_keys_and_order(self):
        assert list(CostLedger().as_dict()) == [
            "multiplications", "comparisons", "bernoulli_draws", "uniform_draws",
            "rounds", "elements_exchanged",
        ]


class TestDealerPool:
    """A Session's one pool of dealer residues, `TripleStore`: masks and
    triples alike come from it."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), takes=st.lists(st.booleans(), min_size=1, max_size=40),
           extra=st.integers(0, RESIDUES_PER_REFILL))
    def test_masks_and_triples_are_distinct_draws_of_the_dealer(self, seed, takes, extra):
        # `takes` repeated, True a triple and False a mask, past two refills
        store = TripleStore(2**64, RandomTape(seed))
        handed = []
        for take in itertools.cycle(takes):
            if len(handed) > 2 * RESIDUES_PER_REFILL + extra:
                break
            handed += store.take() if take else [store.mask()]
        assert store.refills >= 3
        assert store._dealer.words_consumed == RESIDUES_PER_REFILL * store.refills
        drawn = RandomTape(seed).field_elements(2**64, RESIDUES_PER_REFILL * store.refills)
        # every drawn residue is handed out once or still pooled: none serves
        # twice, as a mask and in a triple or as two of either
        assert len(set(handed)) == len(handed)
        assert sorted(handed + store._pool) == sorted(drawn)


class TestBersample:
    def test_endpoints(self):
        s = small_session()
        assert all(s.open(s.pi_bersample(0.0)) == 0 for _ in range(50))
        assert all(s.open(s.pi_bersample(1.0)) == 1 for _ in range(50))

    def test_fair_bit(self):
        s = small_session()
        n = 100_000
        hits = sum(s.open(s.pi_bersample(0.5)) for _ in range(n))
        assert abs(hits / n - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_mechanism_branch_probability(self):
        params = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=0)
        pb = branch_probability_d(params)
        s = small_session()
        n = 100_000
        hits = sum(s.open(s.pi_bersample(pb)) for _ in range(n))
        se = math.sqrt(pb * (1 - pb) / n)
        assert abs(hits / n - pb) < 3 * se
        assert pb == pytest.approx(0.8704, abs=5e-5)

    def test_out_of_range_probability(self):
        s = small_session()
        with pytest.raises(ValueError):
            s.pi_bersample(1.5)

    def test_ledger(self):
        s = small_session()
        before = s.ledger.as_dict()
        s.pi_bersample(0.3)
        d = s.ledger.delta(before)
        assert d["bernoulli_draws"] == 1 and d["comparisons"] == 1
        assert d["multiplications"] == 0


def bit_loop(s, thresholds):
    """The per-bit sequence pi_bersample_sum replaces: k Bernoulli draws,
    each scaled by 2^i and added to [0]."""
    u = s.share_public(0)
    for i, t in enumerate(thresholds):
        u = s.add(u, s.affine(s.pi_bersample_thresholded(t), 1 << i, 0))
    return u


# k = 0, 1, 7 and 15, with thresholds 0 and 2^64 (probability 0 and 1);
# the 15 are the wide set's magnitude bits on the 2^-10 grid
WIDE_BITS = centered_dlap_config(32.0, 8.0, 10).bit_thresholds
THRESHOLDS = [
    (),
    (0,),
    (2**64,),
    (2**64, 0, 2**63, 1, 2**64 - 1, 3 << 61, 2**64),
    WIDE_BITS[:5] + (2**64, 0) + WIDE_BITS[7:],
]


class TestBersampleSum:
    """pi_bersample_sum against the loop it replaces, on both substrates:
    opened values, ledger and the party tapes' words_consumed.  The sum is
    shared with one dealer mask, so its shares are not the loop's."""

    CFG = SMALL

    @staticmethod
    def words(s):
        return [s.tape0.words_consumed, s.tape1.words_consumed]

    @pytest.mark.parametrize("tapes", ["seeded", "injected"])
    @pytest.mark.parametrize("ts", THRESHOLDS)
    def test_session_equals_the_loop(self, ts, tapes):
        def session():
            kw = {}
            if tapes == "injected":
                stream = RandomTape(5).words(400)
                kw = dict(tape0=RandomTape(words=stream), tape1=RandomTape(words=stream[::-1]))
            return Session(self.CFG, 3, 4, **kw)

        a, b = session(), session()
        for _ in range(3):
            u, v = a.pi_bersample_sum(ts), bit_loop(b, ts)
            assert a.peek(u) == b.peek(v)
            assert all(type(x) is int for x in u)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert self.words(a) == self.words(b)
        assert a.joint_word() == b.joint_word()  # both read on from one place

    def batch_run(self, gadget, ts):
        """300 executions of `gadget` in one block: the session and the
        opened values."""
        s = Session(self.CFG, 3, 4)
        return s, s.run(lambda s: s.peek(gadget(s, ts)), 300, len(ts))

    @pytest.mark.parametrize("ts", THRESHOLDS)
    def test_batch_equals_the_loop(self, ts):
        a, got = self.batch_run(BatchSession.pi_bersample_sum, ts)
        b, expected = self.batch_run(bit_loop, ts)
        assert np.array_equal(got, expected)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert self.words(a) == self.words(b)

    def test_one_dealer_mask_per_sum(self):
        # however many bits: one pooled mask on a Session, one mask row on
        # a BatchSession
        s = Session(self.CFG, 3, 4)
        with mock.patch.object(s.triples, "mask", wraps=s.triples.mask) as take:
            s.pi_bersample_sum(WIDE_BITS)
        assert take.call_count == 1
        s = Session(self.CFG, 3, 4)
        with mock.patch.object(BatchSession, "_masks", autospec=True,
                               side_effect=BatchSession._masks) as take:
            s.run(lambda b: b.peek(b.pi_bersample_sum(WIDE_BITS)), 300, len(WIDE_BITS))
        assert [c.args[1:] for c in take.call_args_list] == [((300,),)]

    # "Session" records its transcript and runs every draw sequentially;
    # "BatchSession" runs them in blocks on its attached BatchSession
    @pytest.mark.parametrize("substrate", ["Session", "BatchSession"])
    def test_share_of_a_forced_sum_is_uniform(self, substrate):
        # every bit forced to 1, so the value is 2^15 - 1 in every draw;
        # party 1's share must still be uniform mod q
        n, ts = 40_000, (2**64,) * 15
        s = Session(self.CFG, 3, 4, record_transcript=substrate == "Session")
        shares = []

        def program(s):
            shares.append(s.pi_bersample_sum(ts)[1])
            return 0

        s.run(program, n, len(ts))
        counts = np.bincount(np.hstack(shares), minlength=self.CFG.q)
        assert counts.sum() == n
        _, p = chisquare(counts)
        assert p > 0.01

    def test_batch_probability_one_bit(self, monkeypatch):
        # 2^64 does not fit a uint64 compare; the top joint word 2^64 - 1
        # must still draw 1 under it, and 0 under 2^64 - 1
        s = Session(self.CFG, 3, 4)
        monkeypatch.setattr(s.tape0, "_raw", lambda n: np.full(n, 2**64 - 1, np.uint64))
        monkeypatch.setattr(s.tape1, "_raw", lambda n: np.zeros(n, np.uint64))
        got = s.run(lambda s: s.peek(s.pi_bersample_sum((0, 2**64, 2**64 - 1, 2**64))), 50, 4)
        assert np.array_equal(got, np.full(50, 2 + 8))

    def test_ledger(self):
        s = small_session()
        s.pi_bersample_sum((1, 2, 3))
        assert s.ledger.as_dict() == dict(
            multiplications=0,
            comparisons=3,
            bernoulli_draws=3,
            uniform_draws=0,
            rounds=3 * CMP_ROUNDS,
            elements_exchanged=3 * CMP_ELEMENTS,
        )

    def test_wide_tcl_dealer_words_at_300(self):
        # 300 executions on a Session that runs them in blocks: the
        # dealer's one stream serves its pool and its blocks, which draw
        # what they use
        params = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
        s = Session(mechanism_field(params, "tcl"), 0, 1)
        run_sessions(s, TCL, params, 0, 300)
        assert s.dealer.words_consumed == 7_820

    def test_parties_need_tapes_of_their_own(self):
        tape = RandomTape(1)
        with pytest.raises(ValueError, match="tape of its own"):
            Session(self.CFG, tape0=tape, tape1=tape)


class TestUniform:
    def test_singleton(self):
        s = small_session()
        assert all(s.open(s.pi_uni(1)) == 0 for _ in range(20))

    def test_pow2_uniformity(self):
        s = small_session()
        n = 300_000
        draws = np.array([s.peek(s.pi_uni(128)) for _ in range(n)])
        counts = np.bincount(draws, minlength=128)
        _, p = chisquare(counts)
        assert p > 0.01

    def test_rejection_uniformity_and_rate(self):
        s = small_session()
        n = 200_000
        before = s.ledger.as_dict()
        draws = np.array([s.peek(s.pi_uni(12)) for _ in range(n)])
        attempts = s.ledger.delta(before)["comparisons"]
        counts = np.bincount(draws, minlength=12)
        _, p = chisquare(counts)
        assert p > 0.01
        rate = n / attempts
        se = math.sqrt(0.75 * 0.25 / attempts)
        assert abs(rate - 12 / 16) < 3 * se

    def test_one_word_bounds_the_modulus(self):
        # one joint word draws 2^64 values; past that the top ones never come
        s = small_session()
        s.pi_uni(1 << 64)
        for m in (0, (1 << 64) + 1):
            with pytest.raises(ValueError, match="2\\^64"):
                s.pi_uni(m)

    def test_ledger_atomic(self):
        s = small_session()
        before = s.ledger.as_dict()
        s.pi_uni(128)
        d = s.ledger.delta(before)
        assert d["uniform_draws"] == 1 and d["multiplications"] == 0


class TestGe:
    def test_boundary_zero_is_one(self):
        s = small_session()
        assert s.open(s.pi_ge(s.share(0))) == 1

    def test_smallest_negative(self):
        s = small_session()
        # -1 step in the field is the encoding of -2^-p
        assert s.open(s.pi_ge(s.share(-1 % s.q))) == 0

    def test_exhaustive_grid(self):
        # every encoding of [-4, 4] at p=1 agrees with the plaintext sign
        cfg = field_for_mechanism(4.0, 4.0, 1)
        s = Session(cfg, 3, 4)
        for k in range(-8, 9):
            bit = s.open(s.pi_ge(s.share(k % cfg.q)))
            assert bit == (1 if k >= 0 else 0)

    def test_contract_violation(self):
        s = small_session()
        huge = s.safe_magnitude + 1
        with pytest.raises(ContractViolation):
            s.pi_ge(s.share(huge))

    def test_ledger(self):
        s = small_session()
        a = s.share(3)
        before = s.ledger.as_dict()
        s.pi_ge(a)
        d = s.ledger.delta(before)
        assert d["comparisons"] == 1 and d["multiplications"] == 0


class TestTrunc:
    def test_floor_semantics_exhaustive(self):
        cfg = field_for_mechanism(4.0, 4.0, 3)
        s = Session(cfg, 5, 6)
        for k in range(-64, 65):
            got = s.open(s.trunc_pow2(s.share(k % cfg.q), 3))
            assert got == (k >> 3)

    def test_gamma_zero_identity(self):
        s = small_session()
        a = s.share(7)
        assert s.trunc_pow2(a, 0) is a

    def test_negative_gamma_is_refused(self):
        s = small_session()
        with pytest.raises(ValueError, match="gamma"):
            s.trunc_pow2(s.share(7), -1)


class TestTransparencyAndPrivacy:
    def test_functional_transparency_exhaustive(self):
        cfg = FieldConfig(e=2, p=2)
        s = Session(cfg, 7, 8)
        for x in range(-6, 7):
            for y in range(-6, 7):
                a, b = s.share(x % cfg.q), s.share(y % cfg.q)
                assert s.open(s.add(a, b)) == cfg.lift(x + y)
                assert s.open(s.mul(a, b)) == cfg.lift(x * y)

    def test_transcript_distribution_input_independent(self):
        # party-1 views of share+mul+mux on a 1-bit input, for the two
        # possible inputs; the received-element distributions must agree
        def views(bit, n):
            out = []
            for k in range(n):
                s = small_session(1000 + k, 2000 + k, record_transcript=True)
                x = s.share(bit)
                y = s.share(1)
                z = s.mul(x, y)
                s.mux(y, x, z)
                out.extend(s.transcript[1])
            return np.array(out)

    # pool into coarse bins and compare with a two-sample chi-square
        n = 10_000
        v0 = views(0, n)
        v1 = views(1, n)
        c0, _ = np.histogram(v0, bins=8, range=(0, SMALL.q))
        c1, _ = np.histogram(v1, bins=8, range=(0, SMALL.q))
        _, p, _, _ = chi2_contingency(np.vstack([c0, c1]))
        assert p > 0.01

    def test_determinism(self):
        def run(seed0, seed1):
            s = Session(SMALL, seed0, seed1, record_transcript=True)
            x = s.share(17)
            y = s.pi_bersample(0.4)
            z = s.mul(x, s.pi_uni(8))
            w = s.mux(y, x, z)
            return s.open(w), s.ledger.as_dict(), tuple(s.transcript[1])

        assert run(9, 10) == run(9, 10)
        # other seeds: the opened value is 17 w.p. 0.6, else 17 * uniform(8),
        # so 20 pairs all opening one value has probability about 0.6^20
        runs = [run(9 + 2 * j, 10 + 2 * j) for j in range(20)]
        assert len({opened for opened, _, _ in runs}) > 1
        assert len({view for _, _, view in runs}) == len(runs)

    def test_ledger_monotone(self):
        s = small_session(record_transcript=True)
        prev = s.ledger.as_dict()
        for _ in range(20):
            s.mux(s.pi_bersample(0.5), s.pi_uni(8), s.share(3))
            cur = s.ledger.as_dict()
            assert all(cur[k] >= prev[k] for k in cur)
            prev = cur

    def test_transcript_dump_hex(self):
        s = small_session(record_transcript=True)
        s.open(s.share(7))
        dump = s.transcript_dump()
        assert set(dump) == {"party0", "party1"}
        for msgs in dump.values():
            for m in msgs:
                int(m, 16)

    def test_injected_tapes(self):
        words = RandomTape(55).words(64)
        t0 = RandomTape(words=words)
        t1 = RandomTape(words=[0] * 64)
        s = Session(SMALL, 0, 0, tape0=t0, tape1=t1)
        # joint coins equal party 0's words when party 1 contributes zeros
        ref = RandomTape(words=words)
        for _ in range(5):
            assert s.joint_word() == ref.word()


class TestBatchSession:
    """The array substrate against the scalar one, gadget by gadget."""

    def batch(self, seed0=1, seed1=2) -> BatchSession:
        return BatchSession(Session(SMALL, seed0, seed1))

    def test_arithmetic_matches_plaintext(self):
        s = self.batch()
        rng = np.random.default_rng(3)
        x, y = rng.integers(0, s.q, size=(2, 2000))
        a, b = s.share(x), s.share(y)
        lift = np.vectorize(s.field.lift)
        assert np.array_equal(s.open(s.mul(a, b)), lift(x * y))
        assert np.array_equal(s.open(s.add(a, b)), lift(x + y))
        assert np.array_equal(s.open(s.affine(a, 3, 7)), lift(3 * x + 7))
        bits = rng.integers(0, 2, size=2000)
        assert np.array_equal(s.open(s.mux(s.share(bits), a, b)), lift(np.where(bits, y, x)))

    def test_common_value_broadcasts(self):
        s = self.batch()
        x = s.share(17)  # one value shared for every execution
        assert isinstance(x[0], int) and isinstance(x[1], int)
        y = s.share(np.arange(5))
        assert np.array_equal(s.open(s.mul(x, y)), 17 * np.arange(5))

    def test_sign_test_and_trunc_exhaustive(self):
        cfg = field_for_mechanism(4.0, 4.0, 3)
        s = BatchSession(Session(cfg, 5, 6))
        k = np.arange(-64, 65)
        sv = s.share(k % cfg.q)
        assert np.array_equal(s.open(s.pi_ge(sv)), (k >= 0).astype(int))
        assert np.array_equal(s.open(s.trunc_pow2(sv, 3)), k >> 3)

    def test_contract_violation_outside_run(self):
        s = self.batch()
        huge = np.array([0, s.safe_magnitude + 1, 3])
        with pytest.raises(ContractViolation, match=f"input {s.safe_magnitude + 1}"):
            s.pi_ge(s.share(huge))

    def test_joint_words_only_inside_run(self):
        with pytest.raises(RuntimeError, match="inside a block"):
            self.batch().pi_bersample(0.5)

    def test_run_matches_sequential_gadgets(self):
        # Bernoulli, power-of-two uniform, sign test and mux per execution,
        # session by session on the same tapes; the ledger is n times one
        def program(s):
            v = s.mul(s.pi_bersample(0.3), s.pi_uni(8))
            return s.open(s.mux(s.pi_ge(s.add_public(v, -4)), v, s.pi_uni(4)))

        seq = Session(SMALL, 7, 8, record_transcript=True)
        batch = Session(SMALL, 7, 8)
        expected = seq.run(program, 300, 3)
        assert np.array_equal(batch.run(program, 300, 3), expected)
        assert batch.ledger.as_dict() == seq.ledger.as_dict()
        assert batch.tape0.words_consumed == seq.tape0.words_consumed == 900

    def test_rejected_uniform_finishes_sequentially(self):
        # m = 12 rejects a quarter of the first attempts; those executions
        # draw extra words and must still line up with the loop
        def program(s):
            return s.open(s.pi_uni(12))

        seq = Session(SMALL, 9, 10, record_transcript=True)
        batch = Session(SMALL, 9, 10)
        expected = seq.run(program, 500, 1)
        assert np.array_equal(batch.run(program, 500, 1), expected)
        assert batch.ledger.as_dict() == seq.ledger.as_dict()
        assert batch.tape1.words_consumed == seq.tape1.words_consumed > 500

    def test_contract_violation_matches_loop(self):
        # a rare fault among frequent rejections: the batch raises exactly
        # when, and with the message that, the sequential loop does, even
        # for faults in executions that follow a rejection in their block
        def program(s):
            v = s.pi_uni(15)  # rejects 1 first attempt in 16
            tag = s.pi_uni(1 << 20)  # names the faulting execution in the message
            fault = s.pi_bersample(0.05)
            s.pi_ge(s.mul(fault, s.add_public(tag, s.safe_magnitude + 1)))
            return s.open(v)

        def outcome(session):
            try:
                return list(session.run(program, 40, 3))
            except ContractViolation as exc:
                return str(exc)

        cfg = FieldConfig(e=20, p=2)
        outcomes = [
            (outcome(Session(cfg, seed, seed + 1, record_transcript=True)),
             outcome(Session(cfg, seed, seed + 1)))
            for seed in range(200)
        ]
        assert all(seq == batch for seq, batch in outcomes)
        raised = sum(isinstance(seq, str) for seq, _ in outcomes)
        assert 0 < raised < len(outcomes)

    def test_planned_words_are_checked(self):
        with pytest.raises(RuntimeError, match="drew 1 joint words, planned 2"):
            Session(SMALL, 1, 2).run(
                lambda s: s.open(s.pi_bersample(0.5)), 10, 2
            )


def peeks(sizes: list):
    """Patch RandomTape.peek_block to log the size of every block read."""
    real = RandomTape.peek_block

    def peek(tape, n):
        sizes.append(n)
        return real(tape, n)

    return mock.patch.object(RandomTape, "peek_block", peek)


class TestOfflinePool:
    """`Session.offline`: executions handed out of blocks evaluated ahead
    equal the sequential path's, call by call."""

    CFG = FieldConfig(e=20, p=2)

    @staticmethod
    def program(s):
        v = s.pi_uni(15)  # rejects 1 first attempt in 16
        tag = s.pi_uni(1 << 20)
        fault = s.pi_bersample(0.01)
        s.pi_ge(s.mul(fault, s.add_public(tag, s.safe_magnitude + 1)))
        return s.open(v), s.open(tag)

    def draw(self, s):
        """One offline execution of `program` (3 joint words unless rejected)."""
        return s.offline(
            "toy", 3,
            lambda b, key: np.column_stack(np.broadcast_arrays(*self.program(b))),
            lambda s, key: self.program(s),
            lambda row, key: tuple(row),
        )

    def outcomes(self, s, n):
        out = []
        for _ in range(n):
            try:
                out.append(tuple(self.draw(s)))
            except ContractViolation as exc:
                out.append(str(exc))
        return out, s.ledger.as_dict(), s.tape0.words_consumed, s.tape1.words_consumed

    def test_rejections_and_faults_match_the_sequential_path(self):
        sizes = []
        for seed in range(3):
            want = self.outcomes(Session(self.CFG, seed, seed + 9, record_transcript=True), 600)
            with peeks(sizes):
                got = self.outcomes(Session(self.CFG, seed, seed + 9), 600)
            assert got == want
            assert any(isinstance(o, str) for o in want[0])  # faults were met
            assert want[2] > 3 * 600  # and rejections
        assert sizes  # blocks were evaluated
