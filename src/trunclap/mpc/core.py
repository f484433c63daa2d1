"""Simulated semi-honest two-party computation substrate.

Additive secret sharing over the ring Z_q, q = 2^k, Beaver-triple
multiplication, and the gadgets the noise protocols rely on: a shared
Bernoulli draw, a weighted sum of k shared Bernoulli draws (the magnitude
bits of a discrete Laplace draw), a shared uniform draw, a shared sign
test, and a mux.  No gadget takes a modular inverse, so the modulus is a
power of two (the ring `FieldConfig` sizes): one mask reduces every share
operation, and a dealer residue is one masked word.

The simulator holds both parties' shares, so gadget innards (comparison
circuits, bit decompositions) are evaluated directly on the reconstructed
value and the result is re-shared with a fresh dealer mask.  What remains
faithful to a real deployment is (a) the data flow -- which values are
opened, which stay shared, and what each party's view contains -- and
(b) the cost accounting, which uses the documented constants below so
ledgers are reproducible.

Randomness discipline: the two party tapes feed only the joint public
coins (XOR-combined 64-bit words for Bernoulli and uniform draws) and are
read word by word, while all masks, triples, and re-sharing randomness
come from a dealer tape derived deterministically from the two party
seeds, read only in arrays of residues: a Session takes every mask and
triple from one pool of them (its `TripleStore`), a BatchSession draws
each gadget's in one array.  Opened protocol outputs therefore depend on
the party tapes alone, which is what lets a plaintext functionality run
on the same word stream reproduce them bit for bit, and what lets the
dealer stream change without moving any of them.

Cost model (abstract operation counts, not wall-clock):

* open: 1 round, 2 field elements.
* input sharing (party 0's input): 1 round, 1 element (party 1's share).
* Beaver mul: 1 multiplication, 1 round, 4 elements, 1 triple.
* comparison (sign test / threshold test): 1 comparison; internally a
  64-bit bit-decomposition with log-depth prefix evaluation, costed as
  8 rounds (ceil(log2 64) + 2) and 128 elements.  Its boolean-domain
  gates are not counted as field multiplications.
* Bernoulli draw: 1 comparison against the public threshold.  The sum
  of k draws weighted by 2^i (`pi_bersample_sum`) is k draws: k
  comparisons, 8k rounds, 128k elements; the sum is shared with one mask.
* uniform draw over 2^k: 1 round, 2k elements (each party shares its k
  bit contributions); non-powers of two add one comparison plus one
  opened accept bit per rejection attempt.
* power-of-two truncation by g bits (`trunc_pow2`): 2 rounds, 2g
  elements.  No protocol truncates: both mechanisms draw on the 2^-p grid.

Two substrates run the same protocol code.  `Session` runs one
execution at a time on Python integers and drives every batch: where it
may (its own seeded tapes, no transcript) it evaluates blocks of
executions ahead on an attached `BatchSession`, which holds each value
as uint64 share arrays (one entry per execution), as a
`BlockScheduler` decides: n at once in `Session.run`, one per call in
`Session.offline`.  A block reads the party tapes execution by execution
and keeps the executions before its first rejected draw or range fault,
so opened values, ledgers and party words are the sequential path's.
Every wire (share, open, peek, Beaver mul) and gadget is written once, in
`_CommonOps`; a substrate supplies only its randomness (joint words,
dealer masks, Beaver triples of five dealer residues each, the k bits
of a Bernoulli sum in one read, and the dealer material of one
perturbation drawn ahead of it), what a range fault or a rejected draw
does, and how a sum of shares lifts to the balanced range.

Dealer material can be drawn ahead of the gadget that uses it: `pi_ge`
takes its resharing mask and `mul`/`mux` their triple as arguments, and
draw their own when none is given.  The noise protocol draws its pair's
perturbation material this way (`perturbation_material`), so the online
phase draws nothing but the input-sharing mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

import numpy as np

from .. import tape as tape_module
from ..grids import FieldConfig
from ..tape import BlockScheduler, RandomTape, bernoulli_threshold, pow2_at_least

OPEN_ROUNDS, OPEN_ELEMENTS = 1, 2
SHARE_ROUNDS, SHARE_ELEMENTS = 1, 1
MUL_ROUNDS, MUL_ELEMENTS = 1, 4
CMP_ROUNDS, CMP_ELEMENTS = 8, 128
UNI_ROUNDS = 1
TRUNC_ROUNDS = 2

_MIX0 = 0x9E3779B97F4A7C15
_MIX1 = 0xC2B2AE3D27D4EB4F

# dealer residues a Session's pool draws at once: 64 triples' worth
RESIDUES_PER_REFILL = 320
# executions a Session's offline pool evaluates at most in one block: bounds
# its memory (a block of 1,024 noise pairs is one 1,024 x 15 uint64 array)
POOL_BLOCK_MAX = 1 << 10
_WORD_MAX = (1 << 64) - 1


class ContractViolation(RuntimeError):
    """A shared value left the range a gadget is specified for."""


# both parties' shares (s0, s1) of one ring element, as a plain tuple: the
# simulator holds both, and a tuple is the cheapest pair to build
SharedValue = tuple


@dataclass
class CostLedger:
    """Abstract complexity counts for one session; monotone within a session."""

    multiplications: int = 0
    comparisons: int = 0
    bernoulli_draws: int = 0
    uniform_draws: int = 0
    rounds: int = 0
    elements_exchanged: int = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _LEDGER_FIELDS}

    def add(self, other: "CostLedger", times: int = 1) -> None:
        """Add `times` copies of another ledger's counts."""
        # field by field: a pooled handout charges one pair's ledger per call
        self.multiplications += times * other.multiplications
        self.comparisons += times * other.comparisons
        self.bernoulli_draws += times * other.bernoulli_draws
        self.uniform_draws += times * other.uniform_draws
        self.rounds += times * other.rounds
        self.elements_exchanged += times * other.elements_exchanged

    def delta(self, before: dict) -> dict:
        return {k: v - before[k] for k, v in self.as_dict().items()}


_LEDGER_FIELDS = tuple(f.name for f in fields(CostLedger))


class TripleStore:
    """A Session's one pool of dealer residues, drawn RESIDUES_PER_REFILL
    at a time (`refills` counts the draws): `mask()` hands out one, `take()`
    five as a Beaver triple (ta, tb, ta0, tb0, tc0), party 0's shares and
    the pair; party 1's are ta - ta0, tb - tb0, ta*tb - tc0.  The name, the
    triple queue's it replaced, waits for ROADMAP direction 10."""

    def __init__(self, q: int, dealer: RandomTape):
        self.q = q
        self._dealer = dealer
        self._pool: list[int] = []  # residues not yet handed out, the next last
        self.refills = 0

    def _refill(self) -> list[int]:
        # the residues left go first
        self._pool = self._dealer.field_elements(self.q, RESIDUES_PER_REFILL) + self._pool
        self.refills += 1
        return self._pool

    def mask(self) -> int:
        return (self._pool or self._refill()).pop()

    def take(self) -> list[int]:
        pool = self._pool if len(self._pool) >= 5 else self._refill()
        triple = pool[-5:]
        del pool[-5:]
        return triple


def dealer_seed(seed0: int, seed1: int) -> int:
    """Deterministic dealer seed from the two party seeds (splitmix-style)."""
    return ((seed0 * _MIX0) ^ (seed1 * _MIX1) ^ 0xDEA1) % (1 << 63)


class _CommonOps:
    """The wires (share, open, peek, Beaver mul, the transcript hook), the
    local linear algebra and every gadget, written once for both substrates,
    each with its one ledger charge.

    A shared value is the plain tuple (s0, s1) of both parties' shares,
    residues in [0, q): Python ints in a Session, uint64 arrays (or ints
    that broadcast against them) in a BatchSession.  q is a power of two,
    so one mask reduces every operation, and uint64 arithmetic, which
    wraps mod 2^64, reduces consistently.  A substrate supplies its
    randomness (`joint_word`, `_reshare`, `_triple`, `_bit_sum`) and its
    policy for faults and rejected draws (`_check`, `_retry`).
    """

    def __init__(self, fieldcfg: FieldConfig, record_transcript: bool = False):
        self.field = fieldcfg
        self.q = fieldcfg.q
        self._m = fieldcfg.q - 1
        self._half = fieldcfg.half
        self.ledger = CostLedger()
        # sign tests are only sound while |value| stays below this bound
        self.safe_magnitude = 2 ** (fieldcfg.p + fieldcfg.e + fieldcfg.headroom - 1)
        self.record_transcript = record_transcript
        # transcript[p] = field elements received by party p, in order
        self.transcript: tuple[list, list] = ([], [])

    def _recv(self, party: int, *values) -> None:
        """Transcript hook: `party` received `values`, in order; called only
        under `record_transcript`."""
        self.transcript[party].extend(values)

    def share(self, v) -> SharedValue:
        """Share a value party 0 holds; party 1 receives the dealer's mask,
        one sent element.  In a BatchSession v is one value per execution
        or one common to all (shared as plain ints)."""
        sv = self._reshare(v)
        led = self.ledger
        led.rounds += SHARE_ROUNDS
        led.elements_exchanged += SHARE_ELEMENTS
        if self.record_transcript:
            self._recv(1, sv[1])
        return sv

    def open(self, sv: SharedValue):
        """Exchange shares and return the balanced reconstruction."""
        led = self.ledger
        led.rounds += OPEN_ROUNDS
        led.elements_exchanged += OPEN_ELEMENTS
        s0, s1 = sv
        if self.record_transcript:
            self._recv(0, s1)
            self._recv(1, s0)
        return self._lift(s0 + s1)

    def peek(self, sv: SharedValue):
        """Simulator-only balanced reconstruction, in [-q/2, q/2); no
        communication, no ledger."""
        return self._lift(sv[0] + sv[1])

    def _lift(self, v):
        """The balanced representative of v mod q."""
        return ((v + self._half) & self._m) - self._half

    def mul(self, a: SharedValue, b: SharedValue, triple=None) -> SharedValue:
        """Beaver multiplication: one triple of five dealer residues, one
        round, four elements.  `triple` is one drawn ahead
        (`perturbation_material`); without it the dealer draws one now."""
        m = self._m
        a0, a1 = a
        b0, b1 = b
        ta, tb, ta0, tb0, tc0 = self._triple(a, b) if triple is None else triple
        # each party sends its shares of d = a - ta and e = b - tb (a common
        # share meets the triple first: the sum of two could pass a uint64)
        d = (a0 - ta + a1) & m
        e = (b0 - tb + b1) & m
        led = self.ledger
        led.multiplications += 1
        led.rounds += MUL_ROUNDS
        led.elements_exchanged += MUL_ELEMENTS
        if self.record_transcript:
            self._recv(0, (a1 - ta + ta0) & m, (b1 - tb + tb0) & m)
            self._recv(1, (a0 - ta0) & m, (b0 - tb0) & m)
        s0 = (d * tb0 + e * ta0 + d * e + tc0) & m
        s1 = (d * (tb - tb0) + e * (ta - ta0) + ta * tb - tc0) & m
        return (s0, s1)

    def share_public(self, v) -> SharedValue:
        """Zero-cost sharing of a publicly known constant."""
        return (v & self._m, 0)

    def add(self, a: SharedValue, b: SharedValue) -> SharedValue:
        m = self._m
        return ((a[0] + b[0]) & m, (a[1] + b[1]) & m)

    def sub(self, a: SharedValue, b: SharedValue) -> SharedValue:
        m = self._m
        return ((a[0] - b[0]) & m, (a[1] - b[1]) & m)

    # public constants enter as residues: a negative int does not meet a
    # uint64 array
    def add_public(self, a: SharedValue, c: int) -> SharedValue:
        m = self._m
        return ((a[0] + (c & m)) & m, a[1])

    def affine(self, a: SharedValue, scale: int, offset: int) -> SharedValue:
        m = self._m
        scale &= m
        return ((a[0] * scale + (offset & m)) & m, a[1] * scale & m)

    def pi_bersample(self, prob: float) -> SharedValue:
        """Shared Bernoulli bit with the given public success probability.

        Each party contributes one fresh 64-bit word; the XOR-combined
        word is compared to the 64-bit threshold inside a shared
        comparison, so neither party learns the bit.  Bias <= 2^-64.
        """
        return self.pi_bersample_thresholded(bernoulli_threshold(prob))

    def pi_bersample_thresholded(self, threshold: int) -> SharedValue:
        bit = self.joint_word() < threshold
        self._charge_bernoulli(1)
        return self._reshare(bit)

    def pi_bersample_sum(self, thresholds: tuple[int, ...]) -> SharedValue:
        """Shared sum of 2^i * [joint word i < thresholds[i]] over i < k.

        The k Bernoulli draws of `pi_bersample_thresholded`, weighted and
        added in one call: the same joint words, opened sum and ledger as
        k such draws each scaled by 2^i and added to [0].  The sum is
        shared with one dealer mask, so its shares are uniform as theirs.
        """
        if not thresholds:
            return self.share_public(0)
        self._charge_bernoulli(len(thresholds))
        return self._reshare(self._bit_sum(thresholds))

    def _charge_bernoulli(self, k: int) -> None:
        """k Bernoulli draws, each one shared comparison."""
        led = self.ledger
        led.bernoulli_draws += k
        led.comparisons += k
        led.rounds += k * CMP_ROUNDS
        led.elements_exchanged += k * CMP_ELEMENTS

    def mux(self, i: SharedValue, a: SharedValue, b: SharedValue, triple=None) -> SharedValue:
        """[a] + [i]*([b] - [a]): a when i=0, b when i=1; one multiplication
        (on `triple`, as `mul`)."""
        sel = self.peek(i)
        self._check((sel != 0) & (sel != 1), sel, "mux selector {} is not a shared bit")
        m = self._m
        d0, d1 = self.mul(i, ((b[0] - a[0]) & m, (b[1] - a[1]) & m), triple)
        return ((a[0] + d0) & m, (a[1] + d1) & m)

    def pi_uni(self, m: int) -> SharedValue:
        """Shared uniform draw over {0, ..., m-1}.

        Powers of two combine party-contributed bits with zero bias; other
        moduli reject on the next power of two, revealing only the
        accept/reject bit of each attempt (independent of all secrets).
        """
        if not 1 <= m <= 1 << 64:
            raise ValueError(f"m must be in [1, 2^64], what one 64-bit word can draw; got {m}")
        led = self.ledger
        led.uniform_draws += 1
        if m == 1:
            return self.share_public(0)
        cap = pow2_at_least(m)
        k = cap.bit_length() - 1
        while True:
            v = self.joint_word() & (cap - 1)
            if cap == m:
                led.rounds += UNI_ROUNDS
                led.elements_exchanged += 2 * k
                return self._reshare(v)
            led.rounds += UNI_ROUNDS + CMP_ROUNDS + OPEN_ROUNDS
            led.elements_exchanged += 2 * k + CMP_ELEMENTS + OPEN_ELEMENTS
            led.comparisons += 1
            if not self._retry(v >= m):
                return self._reshare(v)

    def pi_ge(self, sv: SharedValue, mask=None) -> SharedValue:
        """Shared sign test: [1] if the balanced value is >= 0, else [0].

        The value must stay within the configured safe magnitude so the
        balanced lift is unambiguous.  `mask` is the resharing mask, drawn
        ahead (`perturbation_material`); without it the dealer draws one now.
        """
        val = self.peek(sv)
        self._check(
            abs(val) > self.safe_magnitude, val, "pi_ge input {} outside safe range +/-{safe}"
        )
        led = self.ledger
        led.comparisons += 1
        led.rounds += CMP_ROUNDS
        led.elements_exchanged += CMP_ELEMENTS
        return self._reshare(val >= 0, mask)

    def trunc_pow2(self, sv: SharedValue, gamma: int) -> SharedValue:
        """Shared floor division by 2^gamma (drop the low gamma bits)."""
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        if gamma == 0:
            return sv
        val = self.peek(sv)
        self._check(
            abs(val) > self.safe_magnitude, val, "trunc input {} outside safe range +/-{safe}"
        )
        self.ledger.rounds += TRUNC_ROUNDS
        self.ledger.elements_exchanged += 2 * gamma
        return self._reshare(val >> gamma)

    def offline(self, key, words: int, block, step, unpack):
        """One execution of an input-independent program: `step(self, key)`.
        A Session may hand it out of a block evaluated ahead instead (see
        `Session.offline`)."""
        return step(self, key)


class Session(_CommonOps):
    """One deterministic two-party computation session.

    All public parameters (field, thresholds) are common to both logical
    parties; every output and the ledger are a pure function of
    (seed0, seed1, inputs).  A session is single-threaded; run independent
    sessions for parallel batches.
    """

    def __init__(
        self,
        fieldcfg: FieldConfig,
        seed0: int = 0,
        seed1: int = 1,
        *,
        tape0: RandomTape | None = None,
        tape1: RandomTape | None = None,
        record_transcript: bool = False,
    ):
        super().__init__(fieldcfg, record_transcript)
        if tape0 is not None and tape0 is tape1:
            # pi_bersample_sum reads one party's words, then the other's
            raise ValueError("each party needs a tape of its own")
        self.tape0 = tape0 if tape0 is not None else RandomTape(seed0)
        self.tape1 = tape1 if tape1 is not None else RandomTape(seed1)
        self.dealer = RandomTape(dealer_seed(seed0, seed1))
        self.triples = TripleStore(self.q, self.dealer)  # every mask and triple
        # blocks run only on the session's own seeded tapes, and never while
        # it records its transcript (checked at each call)
        self._batches = tape0 is None and tape1 is None
        self._batch: BatchSession | None = None
        self._running = False  # inside `run`, whose scheduler evaluates ahead
        # (key, its BlockScheduler, party words read after the last call)
        self._offline: tuple = (None, None, None)

    def _scheduler(self, program, words: int, step, cap: int, **kw) -> BlockScheduler:
        """A BlockScheduler of `program` on the attached BatchSession, which
        is built at the first block."""

        def evaluate(size: int):
            if self._batch is None:
                self._batch = BatchSession(self)
            return self._batch._evaluate(program, words, size)

        return BlockScheduler(evaluate, step, cap, **kw)

    # -- randomness --------------------------------------------------------

    def joint_word(self) -> int:
        """XOR of one fresh 64-bit word from each party's tape."""
        return self.tape0.word() ^ self.tape1.word()

    def _reshare(self, value: int, mask: int | None = None) -> SharedValue:
        """Fresh additive sharing of a value using a dealer mask (`mask`, or
        one taken from the pool now)."""
        r = self.triples.mask() if mask is None else mask
        return ((value - r) & self._m, r)

    def _bit_sum(self, thresholds: tuple[int, ...]) -> int:
        """Sum of 2^i * bit i of k Bernoulli draws: k words from each party
        tape, each in one read, the words k `pi_bersample_thresholded`
        calls take."""
        k = len(thresholds)
        words = zip(self.tape0.words(k), self.tape1.words(k), thresholds)
        return sum(1 << i for i, (w0, w1, t) in enumerate(words) if w0 ^ w1 < t)

    def _triple(self, a: SharedValue, b: SharedValue) -> tuple:
        return self.triples.take()

    def perturbation_material(self, payload: SharedValue) -> tuple:
        """The dealer material of one perturbation of `payload`, in the order
        it uses it: the sign test's mask, then the two muxes' triples."""
        pool = self.triples
        return pool.mask(), pool.take(), pool.take()

    def offline(self, key, words: int, block, step, unpack):
        """One execution of an input-independent program, drawn now by
        `step(self, key)` or handed out of a block evaluated ahead.

        `key` names the program (the noise protocol's cached plan) and
        `words` is one execution's joint words without rejections.
        `block(batch, key)` returns one uint64 row per execution of a block,
        and `unpack(row, key)` turns a row, as a list of Python ints, into
        what `step` returns.  A BlockScheduler with blocks of at most
        POOL_BLOCK_MAX is started afresh when the key changes or a party
        tape was read since the last call: the block's words are then not
        the next ones.
        """
        if self._running or not self._batches or self.record_transcript:
            return step(self, key)
        t0, t1 = self.tape0, self.tape1
        last_key, blocks, read = self._offline
        # word counts only grow, so their sum moves with any read of either
        if key is not last_key or read != t0.words_consumed + t1.words_consumed:
            blocks = self._scheduler(
                lambda b: block(b, key), words, lambda: step(self, key), POOL_BLOCK_MAX, run=0
            )
        out = blocks.take_one()
        self._offline = (key, blocks, t0.words_consumed + t1.words_consumed)
        return unpack(out.tolist(), key) if type(out) is np.ndarray else out

    # -- faults and rejections ---------------------------------------------

    def _check(self, bad: bool, value: int, message: str) -> None:
        """ContractViolation at once if `bad`."""
        if bad:
            raise ContractViolation(message.format(value, safe=self.safe_magnitude))

    def _retry(self, rejected: bool) -> bool:
        """A rejected attempt draws again."""
        return bool(rejected)

    def run(self, program: Callable[["Session"], int], n: int, words: int) -> np.ndarray:
        """The opened results of n executions of `program` in sequence, as
        int64; `words` is one execution's joint words without rejections.
        Blocks of at most BATCH_BLOCK run on the attached BatchSession; the
        executions run here draw their offline material now.
        """
        if not self._batches or self.record_transcript:
            return np.array([program(self) for _ in range(n)], dtype=np.int64)

        def per_execution(b: BatchSession) -> np.ndarray:
            # a value common to every execution of the block is one int
            return np.broadcast_to(program(b), b._rejected.shape)

        blocks = self._scheduler(per_execution, words, lambda: program(self), tape_module.BATCH_BLOCK)
        self._running = True
        try:
            return blocks.take(n)
        finally:
            self._running = False

    def transcript_dump(self) -> dict:
        """Audit dump of both parties' received elements, hex-encoded."""
        return {
            f"party{p}": [format(v, "x") for v in self.transcript[p]]
            for p in (0, 1)
        }


class BatchSession(_CommonOps):
    """Many independent executions of one program at once, evaluated for
    the Session it is attached to: both parties' shares of each value as
    uint64 arrays, one entry per execution, on the session's party tapes,
    dealer and ledger.  `_evaluate` runs a program over the next
    executions without consuming their words, laid out execution by
    execution (`peek_block`), and `_commit` consumes the ones kept.

    Masks and Beaver triples are drawn from the session's dealer as the
    gadgets need them, each call's residues in one array; opened values
    never depend on them.  Inside a block every gadget costs its
    per-execution amount once per committed execution; outside it
    (sharing a value) once.
    """

    def __init__(self, session: Session):
        super().__init__(session.field)
        # a uint64 shifted left by this many bits keeps the ring's k bits on top
        self._shift = 65 - self.q.bit_length()
        self.tape0, self.tape1 = session.tape0, session.tape1
        self.dealer, self.ledger = session.dealer, session.ledger
        self._rows: np.ndarray | None = None  # joint word j of each execution in row j
        self._col = 0
        self._rejected = np.zeros(0, dtype=bool)

    # -- blocks ------------------------------------------------------------

    def _evaluate(self, program, words: int, size: int):
        """`program` over the next `size` executions, without consuming
        their words: (kept, values, commit).  The `kept` executions before
        the first that draws a rejected attempt or meets a range fault are
        the sequential loop's, and `commit(k)` consumes the first k."""
        joint = self.tape0.peek_block(size * words) ^ self.tape1.peek_block(size * words)
        self._rows = joint.reshape(size, words).T.copy()
        self._col = 0
        self._rejected = np.zeros(size, dtype=bool)
        # gadgets charge self.ledger: one execution's cost, while in the block
        total, unit = self.ledger, CostLedger()
        self.ledger = unit
        try:
            values = program(self)
        finally:
            self.ledger, self._rows = total, None
        if self._col != words:
            raise RuntimeError(f"an execution drew {self._col} joint words, planned {words}")
        kept = int(np.argmax(self._rejected)) if self._rejected.any() else size
        return kept, values, partial(self._commit, words, unit)

    def _commit(self, words: int, unit: CostLedger, kept: int) -> None:
        """Consume the words of the first `kept` executions of a block, each
        of `words` joint words and one `unit` ledger."""
        self.tape0.skip(kept * words)
        self.tape1.skip(kept * words)
        self.ledger.add(unit, kept)

    def _check(self, bad: np.ndarray, values: np.ndarray, message: str) -> None:
        """ContractViolation for the first flagged execution outside a
        block; inside one, the flagged executions are marked as rejected
        ones are, so the block ends before the first, which the session
        then runs and fails on."""
        if self._rows is not None:
            self._rejected |= bad
            return
        bad = np.ravel(bad)
        if bad.any():
            i = int(np.argmax(bad))
            raise ContractViolation(
                message.format(int(np.ravel(values)[i]), safe=self.safe_magnitude)
            )

    def _retry(self, rejected: np.ndarray) -> bool:
        """Mark the executions whose attempt was rejected; never draw again.

        The block ends before the first marked execution.
        """
        self._rejected |= rejected
        return False

    def _lift(self, v) -> np.ndarray:
        """The balanced representative of each v mod q, as int64: the low k
        bits of its uint64, sign-extended."""
        u = np.asarray(v & self._m, dtype=np.uint64)
        return (u << self._shift).view(np.int64) >> self._shift

    # -- randomness ----------------------------------------------------------

    def joint_word(self) -> np.ndarray:
        """The next joint word of every execution in the block (uint64)."""
        return self._joint_rows(1)[0]

    def _joint_rows(self, k: int) -> np.ndarray:
        """The next k joint words of every execution, one row each."""
        if self._rows is None:
            raise RuntimeError("joint words are drawn inside a block (_evaluate)")
        if self._col + k > len(self._rows):
            raise RuntimeError("an execution drew more joint words than planned")
        self._col += k
        return self._rows[self._col - k : self._col]

    def _masks(self, shape: tuple) -> np.ndarray:
        """Fresh dealer residues, drawn now."""
        return self.dealer.field_array(self.q, math.prod(shape)).reshape(shape)

    def _reshare(self, value, mask: np.ndarray | None = None) -> SharedValue:
        """Fresh additive sharing of one value per execution (or one common),
        on `mask` or on masks drawn now."""
        value = np.asarray(value).astype(np.uint64, copy=False)
        r = self._masks(value.shape) if mask is None else mask
        masked = (value - r) & self._m
        if masked.ndim == 0:  # a common value: plain ints, usable by Session too
            return (int(masked), int(r))
        return (masked, r)

    def _bit_sum(self, thresholds: tuple[int, ...]) -> np.ndarray:
        """Sum of 2^i * bit i per execution: the next k rows of the block in
        one compare."""
        k = len(thresholds)
        rows = self._joint_rows(k)
        # a threshold of 2^64 (probability 1) does not fit in uint64
        capped = np.array([min(t, _WORD_MAX) for t in thresholds], dtype=np.uint64)
        certain = np.array([t > _WORD_MAX for t in thresholds])
        bits = (rows < capped[:, None]) | certain[:, None]
        weights = np.array([1 << i for i in range(k)], dtype=np.uint64)[:, None]
        return (bits * weights).sum(axis=0)

    def _triple(self, a: SharedValue, b: SharedValue):
        """A fresh triple per execution: five dealer residue rows (five ints
        for a product of common values, which numpy scalars would not wrap
        silently)."""
        shape = np.broadcast(*a, *b).shape
        rows = self._masks((5,) + shape)
        return rows if shape else rows.tolist()

    def perturbation_material(self, payload: SharedValue) -> tuple:
        """As `Session.perturbation_material`, one entry per execution: a
        mask row at the payload's shape, then two triples of five rows."""
        shape = np.broadcast(*payload).shape
        return self._masks(shape), self._masks((5,) + shape), self._masks((5,) + shape)
