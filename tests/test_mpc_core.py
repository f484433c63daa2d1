import dataclasses
import itertools
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from conftest import assert_index_law, assert_law, ledger_delta, mux_composition, reference_field_array
from trunclap.grids import FieldConfig, field_for_mechanism
from trunclap.mechanisms import TCL, TDL, MechanismParams
from trunclap.mpc import BatchSession, ContractViolation, Session, mechanism_field
from trunclap.mpc.core import (
    CMP_ELEMENTS,
    CMP_ROUNDS,
    MUL_ELEMENTS,
    MUL_ROUNDS,
    OPEN_ELEMENTS,
    OPEN_ROUNDS,
    RESIDUES_PER_REFILL,
    UNI_ROUNDS,
    CostLedger,
    TripleStore,
)
from trunclap.mpc.protocols import SharedNoisePair, make_session, run_batch, run_sessions
from trunclap.sampling import centered_dlap_config, noise_plan
from trunclap.tape import BATCH_BLOCK, BATCH_MIN_SESSIONS, RandomTape, _magnitude, segment_plan


# q = 2^9, safe magnitude 2^7
SMALL = FieldConfig(9)
# q = 2^64: an opened draw is its value mod 2^64
WORD_RING = FieldConfig(64)
# the plan a noise pair built from dealer residues alone carries, unread
PAIR_PLAN = noise_plan(TDL, MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0))


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
        # 16 classes of 32 residues: 10k shares are sized for TV 0.05
        s = small_session()
        shares = [s.share(123)[0] for _ in range(10_000)]
        counts, _ = np.histogram(shares, bins=16, range=(0, s.q))
        assert_law(counts, np.full(16, 1 / 16), 0.05)

    def test_grid_value_round_trip(self):
        # the one way a grid value enters the ring and leaves it: its step
        # count (`input_steps`), shared, then opened and scaled by 2^-p
        params = MechanismParams(E=1.5, L=2.0, sigma=1.0, p=2)
        s = small_session()
        for x in (1.25, -1.5, 0.0):
            assert s.open(s.share(params.input_steps(x))) * params.step == x

    def test_ledger_open_costs(self):
        s = small_session()
        before = s.ledger.as_dict()
        s.open(s.share(5))
        d = ledger_delta(s.ledger, before)
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
        r = np.arange(q, dtype=np.uint64)  # share rows are uint64
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
        # a BatchSession's rows are uint64 arrays
        u0, u1, v0, v1 = (x.astype(np.uint64) for x in (a0, a1, b0, b1))
        monkeypatch.setattr(batch, "_residues", lambda *_: triples.astype(np.uint64))
        z = batch.mul((u0, u1), (v0, v1))
        assert np.array_equal(batch.peek(z), [self.CFG.lift(v) for v in (a0 + a1) * (b0 + b1)])
        s = Session(self.CFG, 1, 2)
        for j in range(triples.shape[1]):
            monkeypatch.setattr(s, "_residues", lambda *_: [int(t) for t in triples[:, j]])
            zj = s.mul((int(a0[j]), int(a1[j])), (int(b0[j]), int(b1[j])))
            assert zj == (z[0][j], z[1][j])

    def test_signed_rows_are_refused(self):
        # share rows are uint64 (`share` casts); a hand-built int64 row is
        # refused where it meets the ring constants, by name
        batch = BatchSession(Session(self.CFG, 1, 2))
        signed = (np.arange(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        row = batch.share(np.arange(4))
        assert row[0].dtype == row[1].dtype == np.uint64
        gadgets = {
            "mul": lambda: batch.mul(signed, row),
            "mux": lambda: batch.mux(row, signed, row),
            "pi_ge": lambda: batch.pi_ge(signed),
            "open": lambda: batch.open(signed),
        }
        for name, call in gadgets.items():
            with pytest.raises(TypeError, match="share rows are uint64 arrays, not int64"):
                call()

    @pytest.mark.parametrize("k", [5, 31, 32, 63, 64])
    def test_wires_at_the_ring_edges(self, k):
        # q = 2^k: every share and triple residue at 0 or q-1, the extremes
        # of each product and sum, which a uint64 wraps mod 2^64
        cfg = FieldConfig(k)
        q, h = cfg.q, cfg.half
        assert q == 2**k
        ends = [(0, 0), (0, q - 1), (q - 1, 0), (q - 1, q - 1)]
        # a selector's shares at the ends, summing to 0 or 1 mod q
        bits = [(0, 0), (0, 1), (q - 1, 1), (q - 1, 2), (2, q - 1)]
        triples = list(itertools.product([0, q - 1], repeat=5))
        s = Session(cfg, 1, 2)
        for gadget, operands, want in (
            ("mul", [ends, ends], lambda a, b: a * b),
            ("mux", [bits, ends, ends], lambda i, a, b: a + i % q * (b - a)),
        ):
            executions = list(itertools.product(*operands, triples))
            # each operand is a row (one entry per execution) or common to a
            # call (a row of one, which broadcasts)
            for rows in itertools.product((False, True), repeat=len(operands)):
                calls = {}
                for ex in executions:
                    calls.setdefault(tuple(v for v, row in zip(ex, rows) if not row), []).append(ex)
                for call in calls.values():
                    batch = BatchSession(Session(cfg, 1, 2))
                    cols = list(zip(*call))
                    args = [tuple(np.array(side if row else side[:1], dtype=np.uint64)
                                  for side in zip(*col)) for col, row in zip(cols, rows)]
                    z = getattr(batch, gadget)(*args, np.array(cols[-1], dtype=np.uint64).T)
                    assert all(v.dtype == np.uint64 and v.shape == (len(call),) for v in z)
                    for j, ex in enumerate(call):
                        zj = (int(z[0][j]), int(z[1][j]))
                        assert getattr(s, gadget)(*ex) == zj
                        assert all(0 <= v < q for v in zj)
                        assert s.peek(zj) == cfg.lift(want(*(sum(v) for v in ex[:-1])))
        # the linear ops on a Python-int share (the input a block meets,
        # shared on its Session) and a row, both ways round, and on a row
        # and a public constant at the ends of its range, as `pi_perturb`
        # meets them
        batch = BatchSession(Session(cfg, 1, 2))
        row = tuple(np.array(side, dtype=np.uint64) for side in zip(*ends))

        def entries(z):
            assert all(v.dtype == np.uint64 and v.shape == (len(ends),) for v in z)
            return [(int(z[0][j]), int(z[1][j])) for j in range(len(ends))]

        for x in ends:
            for op in ("add", "sub"):
                f, g = getattr(batch, op), getattr(s, op)
                assert entries(f(x, row)) == [g(x, y) for y in ends]
                assert entries(f(row, x)) == [g(y, x) for y in ends]
            for c in (0, 1, q - 1, q, -1, 1 - q, -q, 2 * q + 3):
                assert entries(batch.add_public(row, c)) == [s.add_public(y, c) for y in ends]
                assert entries(batch.sub(batch.add_public(row, c), x)) == [
                    s.sub(s.add_public(y, c), x) for y in ends]
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
        # a common value (a row of one) times a common value and times a row
        cx = batch.share(x)
        assert batch.open(batch.mul(cx, batch.share(y))).tolist() == [cfg.lift(x * y)]
        ys = batch.share(np.array([y, 1]))
        assert batch.open(batch.mul(cx, ys)).tolist() == [cfg.lift(x * y), cfg.lift(x)]

    @pytest.mark.parametrize("k", [5, 63, 64])
    def test_batch_ops_on_common_values_return_rows(self, k):
        # a value common to every execution is a uint64 row of one through
        # every op (never a Python int or a numpy scalar), and opens to what
        # a Session opens; share sums pass 2^64 at k = 64
        cfg = FieldConfig(k)
        q = cfg.q

        def ops(s):
            x, y, bit = s.share(q - 1), s.share(q // 2 + 3), s.share(1)
            return {
                "share": (x, q - 1),
                "share_public": (s.share_public(q - 1), q - 1),
                "add": (s.add(x, y), q - 1 + q // 2 + 3),
                "sub": (s.sub(x, y), q - 1 - q // 2 - 3),
                "add_public": (s.add_public(x, -5), q - 6),
                "affine": (s.affine(x, -3, 7), 3 * (1 - q) + 7),
                "mul": (s.mul(x, y), (q - 1) * (q // 2 + 3)),
                "mux": (s.mux(bit, x, y), q // 2 + 3),
                "pi_ge": (s.pi_ge(s.share(3)), 1),
                "trunc_pow2": (s.trunc_pow2(s.share(q - 8), 2), -2),
            }

        s, batch = Session(cfg, 1, 2), BatchSession(Session(cfg, 1, 2))
        for (name, (sv, want)), (_, (ints, _)) in zip(ops(batch).items(), ops(s).items()):
            for v in sv:
                assert type(v) is np.ndarray and v.dtype == np.uint64 and v.shape == (1,), name
                assert 0 <= int(v[0]) < q, name
            opened = batch.open(sv)
            assert type(opened) is np.ndarray and opened.dtype == np.int64, name
            assert opened.tolist() == [s.open(ints)] == [cfg.lift(want)], name
        x = batch.share(q - 1)
        assert type(batch.peek(x)) is np.ndarray and batch.peek(x).tolist() == [-1]

    @pytest.mark.parametrize("value", [2.7, np.float64(2.0), np.array([1.5, 2.7]),
                                       np.array([-1.9])], ids=["float", "float64", "row", "neg"])
    def test_float_values_are_refused(self, value):
        # a float is not truncated to a share: both substrates refuse it
        with pytest.raises(TypeError):
            Session(self.CFG, 1, 2).share(value)
        batch = BatchSession(Session(self.CFG, 1, 2))
        with pytest.raises(TypeError, match="bool or integer values, not float64"):
            batch.share(value)
        assert batch.dealer.words_consumed == 0

    @pytest.mark.parametrize("cfg", [SMALL, WORD_RING], ids=["q=2^9", "q=2^64"])
    @pytest.mark.parametrize("value", [2**64 + 3, -2**63 - 1, 2**200, -2**200 - 5])
    def test_ints_past_a_word_are_reduced(self, cfg, value):
        # a BatchSession used to refuse them (an object array); both
        # substrates reduce any int mod q
        s = Session(cfg, 1, 2)
        batch = BatchSession(Session(cfg, 1, 2))
        sv = batch.share(value)
        assert all(v.dtype == np.uint64 and v.shape == (1,) for v in sv)
        assert batch.open(sv).tolist() == [s.open(s.share(value))] == [cfg.lift(value % cfg.q)]

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
        monkeypatch.setattr(s, "_residues", lambda *_: [a, b, 7, 9, 11])
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
        d = ledger_delta(s.ledger, before)
        assert d["multiplications"] == 1
        assert d["rounds"] == 1
        assert d["elements_exchanged"] == 4

    def test_public_ops_are_free(self):
        s = small_session()
        a = s.share(7)
        before = s.ledger.as_dict()
        s.add_public(s.affine(a, 3, 0), 11)
        assert ledger_delta(s.ledger, before) == {k: 0 for k in before}

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
        assert ledger_delta(s.ledger, before)["multiplications"] == 1

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

    def test_non_bit_selector_in_a_block_raises(self):
        # a block raises at once, with the loop's message (the first
        # execution's selector, balanced: -1 for the residue q - 1), and
        # commits nothing
        for sign, faults in ((1, "[23]"), (-1, "-[123]")):
            def program(b):
                sel = b.affine(b.pi_uni(4), sign, 0)
                b.mux(sel, b.share_public(0), b.share_public(1))
                return b.peek(sel)

            batch = BatchSession(Session(SMALL, 1, 2))
            with pytest.raises(ContractViolation, match=f"mux selector {faults} is not"):
                batch._evaluate(program, 1, 64)
            assert batch.tape0.words_consumed == batch.tape1.words_consumed == 0

            def outcome(session):
                with pytest.raises(ContractViolation, match=f"mux selector {faults} is not") as exc:
                    session.run(program, 64, 1)
                return str(exc.value)

            assert outcome(Session(SMALL, 1, 2)) == outcome(
                Session(SMALL, 1, 2, record_transcript=True))


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

    @pytest.mark.parametrize("left", range(13))
    def test_a_perturbation_draw_is_a_mask_and_two_triples(self, left):
        # on a Session, a noise pair's one `take(11)`, as `SharedNoisePair`
        # splits it, hands out the residues that `mask(), take(), take()`
        # do, with every count left from 0 to 12 before the draw, so the
        # draw crosses a refill
        one, three = small_session(), small_session()
        for s in (one, three):
            s.triples.take(RESIDUES_PER_REFILL - left)
            assert len(s.triples._pool) == left
        pair = SharedNoisePair((0, 0, 0, 0, *one._residues(11, (0, 0))), PAIR_PLAN)
        got, pool = pair.spend(), three.triples
        assert got == (pool.mask(), tuple(pool.take()), tuple(pool.take()))
        assert one.triples.refills == pool.refills == 1 + (left < 11)
        assert one.triples._pool == pool._pool

    @pytest.mark.parametrize("k", [0, 5, 11, RESIDUES_PER_REFILL + 7])
    def test_take_hands_out_exactly_k(self, k):
        store = TripleStore(2**9, RandomTape(32))
        assert len(store.take(k)) == k
        assert store.refills == -(-k // RESIDUES_PER_REFILL)


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
        pb = TDL.branch_probability(params)
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
        d = ledger_delta(s.ledger, before)
        assert d["bernoulli_draws"] == 1 and d["comparisons"] == 1
        assert d["multiplications"] == 0


def bit_loop(s, thresholds):
    """The per-bit sequence a bitwise plan's pi_magnitude replaces: k
    Bernoulli draws, each scaled by 2^i and added to [0]."""
    u = s.share_public(0)
    for i, t in enumerate(thresholds):
        u = s.add(u, s.affine(s.pi_bersample_thresholded(t), 1 << i, 0))
    return u


def bits_plan(thresholds):
    """A bitwise draw plan (2^k steps) whose k magnitude bits have the
    given thresholds."""
    k = len(thresholds)
    return dataclasses.replace(centered_dlap_config(2.0, 1.0, 0), bit_thresholds=tuple(thresholds),
                               bit_weights=tuple(1 << i for i in range(k)),
                               magnitude=segment_plan(1 << k), words_per_draw=k + 2)


def magnitude_loop(s, thresholds):
    """pi_magnitude on `bits_plan(thresholds)`."""
    return s.pi_magnitude(bits_plan(thresholds))


# k = 0, 1, 7 and 15, with thresholds 0 and 2^64 (probability 0 and 1);
# the 15 are the wide set's magnitude bits on the 2^-10 grid
WIDE_PLAN = centered_dlap_config(32.0, 8.0, 10)
WIDE_BITS = WIDE_PLAN.bit_thresholds
THRESHOLDS = [
    (),
    (0,),
    (2**64,),
    (2**64, 0, 2**63, 1, 2**64 - 1, 3 << 61, 2**64),
    WIDE_BITS[:5] + (2**64, 0) + WIDE_BITS[7:],
]
# segmented plans: 3 = 2 + 1, 7 = 4 + 2 + 1 (two picks), 24 = 16 + 8,
# 3 * 2^24 fine steps, and 7 with its picks forced to the middle segment
SEVEN = centered_dlap_config(7.0, 2.0, 0)
SEGMENTED = [
    centered_dlap_config(3.0, 1.0, 0),
    SEVEN,
    centered_dlap_config(24.0, 8.0, 0),
    centered_dlap_config(3.0, 1.0, 24),
    dataclasses.replace(SEVEN, magnitude=dataclasses.replace(SEVEN.magnitude, picks=(0, 2**64))),
]


def plan_steps(plan):
    """N, the magnitude's step count: where the plan's last segment ends."""
    start, mask = plan.magnitude.segments[-1]
    return start + mask + 1


class TestBersampleSum:
    """pi_magnitude, the magnitude of a draw plan: on a bitwise plan against
    the loop of Bernoulli draws it replaces, on a segmented one against
    `tape._magnitude` on the same joint words, on both substrates: opened
    values, ledger and the party tapes' words_consumed.  The magnitude is
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
            u, v = magnitude_loop(a, ts), bit_loop(b, ts)
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
        a, got = self.batch_run(magnitude_loop, ts)
        b, expected = self.batch_run(bit_loop, ts)
        assert np.array_equal(got, expected)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert self.words(a) == self.words(b)

    @pytest.mark.parametrize("plan", SEGMENTED, ids=lambda c: f"{plan_steps(c)}-{c.magnitude.picks}")
    def test_segmented_plan_opens_the_magnitude_of_its_words(self, plan):
        # kappa + P - 1 joint words a draw, sequentially and in blocks: the
        # value the plaintext body computes on them, kappa + P - 1
        # comparisons and the P - 1 multiplications of the picks' mux chain
        picks = len(plan.magnitude.picks)
        k, n = plan.kappa + picks, 300
        joint = [a ^ b for a, b in zip(RandomTape(3).words(n * k), RandomTape(4).words(n * k))]
        expected = [_magnitude(plan, joint[i : i + k], 0) for i in range(0, n * k, k)]
        unit = CostLedger(multiplications=picks, comparisons=k, bernoulli_draws=k,
                          rounds=k * CMP_ROUNDS + picks * MUL_ROUNDS,
                          elements_exchanged=k * CMP_ELEMENTS + picks * MUL_ELEMENTS)
        total = CostLedger()
        total.add(unit, n)
        for record in (True, False):
            s = Session(WORD_RING, 3, 4, record_transcript=record)
            got = s.run(lambda s: s.peek(s.pi_magnitude(plan)), n, k)
            assert got.tolist() == expected
            assert s.ledger == total
            assert self.words(s) == [n * k, n * k]
        assert 0 <= min(expected) and max(expected) < plan_steps(plan)

    def test_one_dealer_mask_per_sum(self):
        # however many bits and picks: one pooled mask on a Session, one
        # mask row on a BatchSession
        for plan in (WIDE_PLAN, SEVEN):
            k = plan.words_per_draw - 2
            s = Session(self.CFG, 3, 4)
            with mock.patch.object(s.triples, "mask", wraps=s.triples.mask) as take:
                s.pi_magnitude(plan)
            assert take.call_count == 1
            s = Session(self.CFG, 3, 4)
            with mock.patch.object(BatchSession, "_masks", autospec=True,
                                   side_effect=BatchSession._masks) as take:
                s.run(lambda b: b.peek(b.pi_magnitude(plan)), 300, k)
            assert [c.args[1:] for c in take.call_args_list] == [((300,),)]

    # "Session" records its transcript and runs every draw sequentially;
    # "BatchSession" runs them in blocks, each on a BatchSession of its own
    @pytest.mark.parametrize("substrate", ["Session", "BatchSession"])
    def test_share_of_a_forced_sum_is_uniform(self, substrate):
        # every bit forced to 1, so the value is 2^15 - 1 in every draw;
        # party 1's share must still be uniform mod q
        n, ts = 40_000, (2**64,) * 15
        s = Session(self.CFG, 3, 4, record_transcript=substrate == "Session")
        shares = []

        def program(s):
            shares.append(magnitude_loop(s, ts)[1])
            return 0

        s.run(program, n, len(ts))
        counts = np.bincount(np.hstack(shares), minlength=self.CFG.q)
        assert counts.sum() == n
        # 40k draws over the 512 residues are sized for TV 0.065
        assert_law(counts, np.full(self.CFG.q, 1 / self.CFG.q), 0.065)

    def test_batch_probability_one_bit(self, monkeypatch):
        # 2^64 does not fit in a uint64; the top joint word 2^64 - 1 must
        # still draw 1 under it, and 0 under 2^64 - 1
        s = Session(self.CFG, 3, 4)
        monkeypatch.setattr(s.tape0, "_raw", lambda n: np.full(n, 2**64 - 1, np.uint64))
        monkeypatch.setattr(s.tape1, "_raw", lambda n: np.zeros(n, np.uint64))
        got = s.run(lambda s: s.peek(magnitude_loop(s, (0, 2**64, 2**64 - 1, 2**64))), 50, 4)
        assert np.array_equal(got, np.full(50, 2 + 8))

    def test_ledger(self):
        s = small_session()
        magnitude_loop(s, (1, 2, 3))
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
        # what they use, four 16-bit lanes a word at q = 2^12.  The pool's
        # 320 residues (the input's mask) take 80 words, and the block's
        # 25 residues an execution, drawn in rows of 300 (75 words each)
        # for the branch, tail, magnitude and sign masks, and of 1,500 and
        # 3,300 (375 and 825 words) for the mul and mux triples and the
        # perturbation material, take 1,875
        params = MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2)
        s = Session(mechanism_field(params, "tcl"), 0, 1)
        assert s.q == 2**12
        run_sessions(s, TCL, params, 0, 300)
        assert s.dealer.words_consumed == 80 + 4 * 75 + 2 * 375 + 825 == 1_955

    def test_parties_need_tapes_of_their_own(self):
        tape = RandomTape(1)
        with pytest.raises(ValueError, match="tape of its own"):
            Session(self.CFG, tape0=tape, tape1=tape)

    def test_parties_need_seeds_of_their_own(self):
        # equal seeds gave both parties one stream, so every joint word was
        # 0: TDL at (E, L, sigma, p) = (4, 2, 1, 0) returned x unperturbed
        params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)
        for refuse in (lambda: Session(self.CFG, 5, 5),
                       lambda: make_session(params, "tcl", 0, 7, 7),
                       lambda: run_batch("tdl", params, 1.0, 1000, 5, 5)):
            with pytest.raises(ValueError, match="seeds must differ"):
                refuse()
        # a replay on tapes of its own keeps any seeds
        stream = RandomTape(5).words(400)
        s = Session(self.CFG, 5, 5, tape0=RandomTape(words=stream), tape1=RandomTape(words=stream[::-1]))
        assert s.open(s.share(3)) == 3 and s.open(s.pi_bersample(0.5)) in (0, 1)


class TestUniform:
    def test_singleton(self):
        s = small_session()
        assert all(s.open(s.pi_uni(1)) == 0 for _ in range(20))

    def test_pow2_uniformity(self):
        # 1.2M draws in blocks: `sized_for` reads about 0.0070 against the
        # bound 0.0075, below the TV 1/128 of index 0 moved onto index 1
        s = small_session()
        draws = s.run(lambda b: b.peek(b.pi_uni(128)), 1_200_000, 1)
        assert_index_law(np.bincount(draws, minlength=128), 128, 0.0075)

    def test_segmented_uniformity_and_cost(self):
        # 12 = 8 + 4: one pick word chooses the segment, so every draw
        # reads two joint words and costs one comparison and one
        # multiplication; none is rejected.  200k draws read about 0.0102
        # (`sized_for`) against the bound 0.011
        s = small_session()
        n = 200_000
        before = s.ledger.as_dict()
        draws = np.array([s.peek(s.pi_uni(12)) for _ in range(n)])
        d = ledger_delta(s.ledger, before)
        assert_index_law(np.bincount(draws, minlength=12), 12, 0.011)
        assert d["comparisons"] == d["multiplications"] == n
        assert s.tape0.words_consumed == s.tape1.words_consumed == 2 * n

    @pytest.mark.parametrize(
        "m", [1, 2, 3, 6, 7, 12, 15, 100, 2**63 + 1, 2**64 - 1, 2**64],
        ids=lambda m: f"{m:#x}" if m > 1000 else str(m),
    )
    def test_every_count_on_both_substrates(self, m):
        # P joint words a draw (P the set bits of m), the same opened values
        # and ledger sequentially and in a block (starts past 2^63 included),
        # and a ledger that m alone fixes
        P, k, n = bin(m).count("1"), m.bit_length() - 1, 40

        def program(s):
            return s.open(s.pi_uni(m))

        seq = Session(WORD_RING, 3, 4, record_transcript=True)
        want = seq.run(program, n, P)
        batch, sizes = Session(WORD_RING, 3, 4), []
        with peeks(sizes):
            assert np.array_equal(batch.run(program, n, P), want)
        assert sizes == [n * P] * 2  # the draws ran in one block, read from both tapes
        assert batch.ledger.as_dict() == seq.ledger.as_dict()
        assert [t.words_consumed for t in (seq.tape0, seq.tape1, batch.tape0, batch.tape1)] == [n * P] * 4
        assert all(v % 2**64 < m for v in want.tolist())
        unit = CostLedger(
            multiplications=P - 1, comparisons=P - 1, bernoulli_draws=P - 1, uniform_draws=1,
            rounds=UNI_ROUNDS + (P - 1) * (CMP_ROUNDS + MUL_ROUNDS) + OPEN_ROUNDS,
            elements_exchanged=2 * k + (P - 1) * (CMP_ELEMENTS + MUL_ELEMENTS) + OPEN_ELEMENTS,
        )
        total = CostLedger()
        total.add(unit, n)
        assert seq.ledger == total
        other = Session(WORD_RING, 5, 6)
        program(other)
        assert other.ledger == unit

    @pytest.mark.parametrize("m", [2.0, 12.5, "12", None])
    def test_a_count_that_is_not_an_integer_is_refused(self, m):
        s = small_session()
        with pytest.raises(TypeError):
            s.pi_uni(m)
        assert s.tape0.words_consumed == 0 and s.ledger == CostLedger()

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
        d = ledger_delta(s.ledger, before)
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

    @given(st.integers(2, 64))
    @settings(max_examples=60, deadline=None)
    def test_twice_the_safe_bound_is_half_the_ring(self, bits):
        # pi_ge tests (u + safe) mod q against q/2 (`_half`) as 2 * safe
        cfg = FieldConfig(bits)
        assert 2 * Session(cfg).safe_magnitude == cfg.q // 2 == cfg.half

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
        d = ledger_delta(s.ledger, before)
        assert d["comparisons"] == 1 and d["multiplications"] == 0


class TestFaultMessages:
    """A range fault names the balanced value of the faulting input, so a
    residue past q/2 reads as negative: on a Session, on a BatchSession
    (rows and a common value) and inside a block."""

    # (gadget, residue of the input as a function of q, the value reported)
    CASES = {
        "mux-q-1": ("mux", lambda q: q - 1, "-1"),
        "mux-q-2": ("mux", lambda q: q - 2, "-2"),
        "mux-2": ("mux", lambda q: 2, "2"),
        "ge-above": ("ge", lambda q: q // 4 + 1, "{safe1}"),
        "ge-below": ("ge", lambda q: q - q // 4 - 1, "-{safe1}"),
        "ge-half": ("ge", lambda q: q // 2, "-{half}"),
    }
    GADGETS = {
        "mux": (lambda s, v: s.mux(v, s.share_public(0), s.share_public(1)),
                "mux selector {} is not a shared bit"),
        "ge": (lambda s, v: s.pi_ge(v), "pi_ge input {} outside safe range"),
    }

    @pytest.mark.parametrize("cfg", [SMALL, WORD_RING], ids=["q=2^9", "q=2^64"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_fault_names_the_balanced_value(self, case, cfg):
        gadget, residue, shown = self.CASES[case]
        run, message = self.GADGETS[gadget]
        q = cfg.q
        r = residue(q)
        safe = Session(cfg).safe_magnitude
        assert safe == q // 4
        want = message.format(shown.format(safe1=safe + 1, half=q // 2))
        s = Session(cfg, 1, 2)
        with pytest.raises(ContractViolation, match=want):
            run(s, s.share(r))
        batch = BatchSession(Session(cfg, 1, 2))
        with pytest.raises(ContractViolation, match=want):
            run(batch, batch.share(np.array([0, 1, r, 2], dtype=np.uint64)))
        with pytest.raises(ContractViolation, match=want):
            run(batch, batch.share(r))

        # in a block: every execution's input is r
        def program(b):
            run(b, b.affine(b.pi_bersample(1.0), r, 0))
            return 0

        for session in (Session(cfg, 1, 2), Session(cfg, 1, 2, record_transcript=True)):
            with pytest.raises(ContractViolation, match=want):
                session.run(program, 16, 1)

    # (gadget, residues of six executions' inputs, the first fault's report):
    # three executions fault, and the first is reported
    SEVERAL = {
        "ge": (lambda q: [0, 1, q - q // 4 - 3, q - 1, q // 4 + 5, q // 2], "-{safe3}"),
        "mux": (lambda q: [0, 1, 1, q - 1, 2, q // 2], "-1"),
    }

    @pytest.mark.parametrize("cfg", [SMALL, WORD_RING], ids=["q=2^9", "q=2^64"])
    @pytest.mark.parametrize("gadget", sorted(SEVERAL))
    def test_a_block_reports_its_first_fault(self, gadget, cfg):
        # a block of six executions, three faulting: its range check counts
        # the faults (np.count_nonzero) and names the first faulting
        # execution's balanced value; nothing of the block is consumed
        residues, shown = self.SEVERAL[gadget]
        run, message = self.GADGETS[gadget]
        q = cfg.q
        rows = np.array(residues(q), dtype=np.uint64)

        def program(b):
            b.pi_bersample(0.5)  # the block's one joint word
            run(b, b.share(rows))
            return 0

        s = Session(cfg, 1, 2)
        want = message.format(shown.format(safe3=q // 4 + 3))
        with mock.patch.object(np, "count_nonzero", wraps=np.count_nonzero) as counts:
            with pytest.raises(ContractViolation, match=want):
                BatchSession(s)._evaluate(program, 1, len(rows))
        assert counts.call_count >= 1
        assert s.tape0.words_consumed == s.tape1.words_consumed == 0

    @pytest.mark.parametrize("cfg", [SMALL, WORD_RING], ids=["q=2^9", "q=2^64"])
    def test_the_safe_range_ends_pass(self, cfg):
        # the sign test at -safe, -1, 0 and safe, the ends of the safe range
        # and of the sign, on both substrates
        q = cfg.q
        safe = q // 4
        values = [-safe, -1, 0, safe]
        s, batch = Session(cfg, 1, 2), BatchSession(Session(cfg, 1, 2))
        assert [s.open(s.pi_ge(s.share(v % q))) for v in values] == [0, 0, 1, 1]
        rows = batch.share(np.array([v % q for v in values], dtype=np.uint64))
        assert batch.open(batch.pi_ge(rows)).tolist() == [0, 0, 1, 1]


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
        cfg = FieldConfig(5)
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
        x = s.share(17)  # one value shared for every execution: a row of one
        assert all(v.dtype == np.uint64 and v.shape == (1,) for v in x)
        y = s.share(np.arange(5))
        assert np.array_equal(s.open(s.mul(x, y)), 17 * np.arange(5))
        assert np.array_equal(s.open(s.add(s.share_public(3), y)), 3 + np.arange(5))

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

    @pytest.mark.parametrize("cfg", [SMALL, WORD_RING], ids=["q=2^9", "q=2^64"])
    def test_perturbation_material_is_one_read(self, cfg):
        # the noise protocol's perturbation material (`_noise_values`) is
        # one `_masks` read of 11 rows, the residues of one dealer draw of
        # 11n: rows r, which `SharedNoisePair` splits as the mask r[10],
        # the selection triple r[5:10] and the blend triple r[:5], row by
        # row.  At q = 2^9 a word
        # holds four 16-bit lanes, so the read takes ceil(66 / 4) = 17
        # words where three reads (the mask, then two triples) would take
        # 2 + 8 + 8; at q = 2^64, 66 words either way
        n = 6
        lanes = {SMALL: 4, WORD_RING: 1}[cfg]
        one, three = (BatchSession(Session(cfg, 5, 6)) for _ in range(2))
        payload = one.share(np.arange(n, dtype=np.uint64))
        three.share(np.arange(n, dtype=np.uint64))
        ref = RandomTape(one.dealer.seed)
        ref.field_array(cfg.q, n)  # the payload's mask
        with mock.patch.object(BatchSession, "_masks", autospec=True,
                               side_effect=BatchSession._masks) as reads:
            residues = one._residues(11, payload)
        assert [c.args[1:] for c in reads.call_args_list] == [((11, n),)]
        mask, select, blend = SharedNoisePair((*payload, *payload, *residues), PAIR_PLAN).spend()
        rows = reference_field_array(ref, cfg.q, 11 * n).reshape(11, n)
        assert len(select) == len(blend) == 5
        for g, w in zip((mask, *select, *blend), (rows[10], *rows[5:10], *rows[:5])):
            assert g.dtype == np.uint64 and g.shape == (n,) and np.array_equal(g, w)
        assert one.dealer.words_consumed == ref.words_consumed == {4: 2 + 17, 1: 6 + 66}[lanes]
        three._masks((n,)), three._masks((5, n)), three._masks((5, n))
        assert three.dealer.words_consumed == {4: 2 + 2 + 8 + 8, 1: 6 + 66}[lanes]

    @pytest.mark.parametrize("plan", [WIDE_PLAN, SEVEN], ids=["bitwise", "segmented"])
    def test_row_form_magnitude_is_shared_as_it_is(self, plan):
        # the row form's uint64 bit weights make the magnitude a uint64
        # row, which `_reshare` masks as it is handed, with no cast
        batch = BatchSession(Session(WORD_RING, 3, 4))
        k, n = plan.kappa + len(plan.magnitude.picks), 50
        handed, reshare = [], BatchSession._reshare

        def spy(self, value, mask=None):
            handed.append(value)
            return reshare(self, value, mask)

        with mock.patch.object(BatchSession, "_reshare", spy):
            values, _ = batch._evaluate(lambda b: b.peek(b.pi_magnitude(plan.rows)), k, n)
        (m,) = handed
        assert m.dtype == np.uint64 and m.shape == (n,) and values.tolist() == m.tolist()

    def test_joint_words_only_inside_run(self):
        with pytest.raises(RuntimeError, match="inside a block"):
            self.batch().pi_bersample(0.5)

    def test_an_instance_evaluates_one_block(self):
        def program(b):
            return b.open(b.pi_bersample(0.5))

        batch = self.batch()
        batch._evaluate(program, 1, 8)
        with pytest.raises(RuntimeError, match="evaluates one block"):
            batch._evaluate(program, 1, 8)

    def test_a_commit_adds_its_block_ledger_per_execution(self):
        # a block's ledger is its own, one execution's cost: committing k
        # executions adds it k times to the session's, and ops outside a
        # block charge the instance alone
        def program(s):
            return s.open(s.mul(s.pi_bersample(0.3), s.pi_uni(8)))

        session = Session(SMALL, 7, 8)
        outside = BatchSession(session)
        outside.open(outside.mul(outside.share(np.arange(4)), outside.share(3)))
        assert outside.ledger.multiplications == 1 and session.ledger == CostLedger()
        one = Session(SMALL, 7, 8)
        program(one)
        batch = BatchSession(session)
        _, commit = batch._evaluate(program, 2, 16)
        assert batch.ledger == one.ledger and session.ledger == CostLedger()
        for k, done in ((5, 5), (3, 8)):
            commit(k)
            total = CostLedger()
            total.add(one.ledger, done)
            assert session.ledger == total
            assert session.tape0.words_consumed == session.tape1.words_consumed == 2 * done

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

    def test_non_pow2_uniform_runs_in_one_block(self):
        # m = 12 = 8 + 4 reads two joint words a draw, its index word and
        # one pick: 500 executions are one block, equal to the loop
        def program(s):
            return s.open(s.pi_uni(12))

        seq = Session(SMALL, 9, 10, record_transcript=True)
        batch = Session(SMALL, 9, 10)
        expected = seq.run(program, 500, 2)
        sizes = []
        with peeks(sizes):
            assert np.array_equal(batch.run(program, 500, 2), expected)
        assert sizes == [1000, 1000]  # one block, on each party tape
        assert batch.ledger.as_dict() == seq.ledger.as_dict()
        assert batch.tape1.words_consumed == seq.tape1.words_consumed == 1000

    def test_contract_violation_matches_loop(self):
        # a rare fault: the batch raises exactly when, and with the message
        # that, the sequential loop does
        def program(s):
            v = s.pi_uni(15)  # four segments: four joint words
            tag = s.pi_uni(1 << 20)  # names the faulting execution in the message
            fault = s.pi_bersample(0.05)
            s.pi_ge(s.mul(fault, s.add_public(tag, s.safe_magnitude + 1)))
            return s.open(v)

        def outcome(session):
            try:
                return list(session.run(program, 40, 6))
            except ContractViolation as exc:
                return str(exc)

        cfg = FieldConfig(23)
        outcomes = [
            (outcome(Session(cfg, seed, seed + 1, record_transcript=True)),
             outcome(Session(cfg, seed, seed + 1)))
            for seed in range(200)
        ]
        assert all(seq == batch for seq, batch in outcomes)
        raised = sum(isinstance(seq, str) for seq, _ in outcomes)
        assert 0 < raised < len(outcomes)

    # a range check on a value that faults in about half of the executions
    FAULTS = {
        "pi_ge input": lambda s, v: s.pi_ge(v),
        "trunc input": lambda s, v: s.trunc_pow2(v, 1),
        "mux selector": lambda s, v: s.mux(v, s.share_public(0), s.share_public(1)),
    }

    @pytest.mark.parametrize("n", [BATCH_MIN_SESSIONS, 40, BATCH_BLOCK])
    @pytest.mark.parametrize("check", sorted(FAULTS))
    def test_a_faulting_block_commits_nothing(self, check, n):
        # every range check runs on a block, and a block that faults raises
        # ContractViolation before any of it is committed: no party word is
        # consumed and no cost is charged
        def program(s):
            fault = s.pi_bersample(0.5)
            self.FAULTS[check](s, s.mul(fault, s.share_public(s.safe_magnitude + 1)))
            return s.open(fault)

        s = Session(FieldConfig(23), 3, 4)
        with pytest.raises(ContractViolation, match=check):
            s.run(program, n, 1)
        assert s.tape0.words_consumed == s.tape1.words_consumed == 0
        assert s.ledger == CostLedger()

    @pytest.mark.parametrize("record", [True, False], ids=["sequential", "blocks"])
    def test_negative_n_is_refused(self, record):
        s = Session(SMALL, 1, 2, record_transcript=record)
        with pytest.raises(ValueError, match="n must be >= 0"):
            s.run(lambda s: s.open(s.pi_uni(4)), -1, 1)
        assert s.tape0.words_consumed == 0 and s.ledger == CostLedger()

    def test_planned_words_are_checked(self):
        with pytest.raises(RuntimeError, match="drew 1 joint words, planned 2"):
            Session(SMALL, 1, 2).run(
                lambda s: s.open(s.pi_bersample(0.5)), 10, 2
            )

    def test_a_block_reading_past_its_words_is_refused(self):
        # refused at the read, before the rows run out
        batch = BatchSession(Session(SMALL, 1, 2))
        with pytest.raises(RuntimeError, match="drew more joint words than planned"):
            batch._evaluate(lambda b: b.open(b.pi_uni(4)) + b.open(b.pi_uni(4)), 1, 10)


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

    CFG = FieldConfig(23)

    @staticmethod
    def program(s):
        v = s.pi_uni(15)  # four segments: four joint words
        tag = s.pi_uni(1 << 20)
        fault = s.pi_bersample(0.01)
        s.pi_ge(s.mul(fault, s.add_public(tag, s.safe_magnitude + 1)))
        return s.open(v), s.open(tag)

    # the program's key: 6 joint words an execution, and no row form of
    # its own
    KEY = types.SimpleNamespace(words_per_draw=6)
    KEY.rows = KEY

    def draw(self, s):
        """One offline execution of `program`: 6 joint words."""
        return s.offline(self.KEY, lambda s, key: self.program(s))

    def outcomes(self, s, n):
        """The values of up to n calls, ending at the first error's message,
        and the party words read by then."""
        out = []
        for _ in range(n):
            try:
                out.append(tuple(self.draw(s)))
            except ContractViolation as exc:
                out.append(str(exc))
                break
        return out, s.tape0.words_consumed, s.tape1.words_consumed

    def test_faults_match_the_sequential_path(self):
        # the call that evaluates a faulting block raises the loop's first
        # error, at or before the loop's faulting call; the calls before it
        # hand out the loop's values, and the block commits nothing
        sizes = []
        for seed in range(3):
            want, words, _ = self.outcomes(Session(self.CFG, seed, seed + 9, record_transcript=True), 600)
            with peeks(sizes):
                got, words0, words1 = self.outcomes(Session(self.CFG, seed, seed + 9), 600)
            assert isinstance(want[-1], str)  # a fault was met
            assert words == 6 * len(want)  # the faulting execution read its words too
            assert got[-1] == want[-1] and len(got) <= len(want)
            assert got[:-1] == want[: len(got) - 1]
            assert words0 == words1 == 6 * (len(got) - 1)
        assert sizes  # blocks were evaluated
