"""Simulated semi-honest two-party computation substrate.

Additive secret sharing over an odd prime field, Beaver-triple
multiplication, and the gadgets the noise protocols rely on: a shared
Bernoulli draw, a weighted sum of k shared Bernoulli draws (the magnitude
bits of a discrete Laplace draw), a shared uniform draw, a shared sign
test, and a mux.

The simulator holds both parties' shares, so gadget innards (comparison
circuits, bit decompositions) are evaluated directly on the reconstructed
value and the result is re-shared with a fresh dealer mask.  What remains
faithful to a real deployment is (a) the data flow -- which values are
opened, which stay shared, and what each party's view contains -- and
(b) the cost accounting, which uses the documented constants below so
ledgers are reproducible.

Randomness discipline: the two party tapes feed only the joint public
coins (XOR-combined 64-bit words for Bernoulli and uniform draws), while
all masks, triples, and re-sharing randomness come from a dealer tape
derived deterministically from the two party seeds.  Opened protocol
outputs therefore depend on the party tapes alone, which is what lets a
plaintext functionality run on the same word stream reproduce them
bit for bit.

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
  comparisons, 8k rounds, 128k elements; weighting and adding shares is
  local and free.
* uniform draw over 2^k: 1 round, 2k elements (each party shares its k
  bit contributions); non-powers of two add one comparison plus one
  opened accept bit per rejection attempt.
* power-of-two truncation by gamma bits: 2 rounds, 2*gamma elements.

Two substrates run the same protocol code.  `Session` is one execution
on Python integers.  `BatchSession` runs many independent executions at
once, each value held as a pair of int64 share arrays (one entry per
execution); its `run` lays the party tapes out session by session, so
every execution reads exactly the words the sequential loop gives it.
Every wire (share, open, peek, Beaver mul) and gadget is written once, in
`_CommonOps`; a substrate supplies only its randomness (joint words,
dealer masks, Beaver triples built by `beaver_shares`, and the k words
and masks of a Bernoulli sum in one read) and what a range fault or a
rejected draw does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

import numpy as np

from ..grids import FieldConfig
from ..tape import RandomTape, bernoulli_threshold, pow2_at_least, run_in_blocks

OPEN_ROUNDS, OPEN_ELEMENTS = 1, 2
SHARE_ROUNDS, SHARE_ELEMENTS = 1, 1
MUL_ROUNDS, MUL_ELEMENTS = 1, 4
CMP_ROUNDS, CMP_ELEMENTS = 8, 128
UNI_ROUNDS = 1
TRUNC_ROUNDS = 2

_MIX0 = 0x9E3779B97F4A7C15
_MIX1 = 0xC2B2AE3D27D4EB4F

# BatchSession multiplies residues in int64, so q must stay below 2^31;
# larger fields run on the sequential Session.
BATCH_MAX_Q = 1 << 31
# dealer residues a BatchSession draws at least at once; a whole call of a
# few executions takes one draw
DEALER_CHUNK = 1 << 12
# Beaver triples a Session's TripleStore draws at once
TRIPLES_PER_REFILL = 64
_WORD_MAX = (1 << 64) - 1


class ContractViolation(RuntimeError):
    """A shared value left the range a gadget is specified for."""


class SharedValue:
    """Both parties' shares of one field element (simulator-side handle)."""

    __slots__ = ("s0", "s1")

    def __init__(self, s0: int, s1: int):
        self.s0 = s0
        self.s1 = s1

    def __repr__(self):
        return f"SharedValue({self.s0}, {self.s1})"


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add(self, other: "CostLedger", times: int = 1) -> None:
        """Add `times` copies of another ledger's counts."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + times * getattr(other, f.name))

    def delta(self, before: dict) -> dict:
        return {k: v - before[k] for k, v in self.as_dict().items()}


def beaver_shares(q: int, a, b, a0, b0, c0) -> tuple:
    """Both parties' shares (a0, a1, b0, b1, c0, c1) of the Beaver triple
    (a, b, ab mod q), from five dealer residues: ints or int64 arrays."""
    return a0, (a - a0) % q, b0, (b - b0) % q, c0, (a * b - c0) % q


class TripleStore:
    """Queue of Beaver triples produced by the simulated trusted dealer."""

    def __init__(self, q: int, dealer: RandomTape):
        self.q = q
        self._dealer = dealer
        self._queue: list[tuple[int, int, int, int, int, int]] = []
        self.refills = 0

    def _refill(self) -> None:
        d = self._dealer.field_elements(self.q, 5 * TRIPLES_PER_REFILL)
        shares = partial(beaver_shares, self.q)
        self._queue.extend(map(shares, d[0::5], d[1::5], d[2::5], d[3::5], d[4::5]))
        self.refills += 1

    def take(self) -> tuple[int, int, int, int, int, int]:
        if not self._queue:
            self._refill()
        return self._queue.pop()


def dealer_seed(seed0: int, seed1: int) -> int:
    """Deterministic dealer seed from the two party seeds (splitmix-style)."""
    return ((seed0 * _MIX0) ^ (seed1 * _MIX1) ^ 0xDEA1) % (1 << 63)


class _CommonOps:
    """The wires (share, open, peek, Beaver mul, the transcript hook), the
    local linear algebra and every gadget, written once for both substrates,
    each with its one ledger charge.

    Shares are Python ints in a Session and int64 arrays (or ints that
    broadcast against them) in a BatchSession.  A substrate supplies its
    randomness (`joint_word`, `_reshare`, `_triple`, `_bit_sum`) and its
    policy for faults and rejected draws (`_check`, `_retry`, `run`).
    """

    def __init__(self, fieldcfg: FieldConfig, record_transcript: bool = False):
        self.field = fieldcfg
        self.q = fieldcfg.q
        self._half = fieldcfg.half
        self.ledger = CostLedger()
        # sign tests are only sound while |value| stays below this bound
        self.safe_magnitude = 2 ** (fieldcfg.p + fieldcfg.e + fieldcfg.headroom - 1)
        self.record_transcript = record_transcript
        # transcript[p] = field elements received by party p, in order
        self.transcript: tuple[list, list] = ([], [])

    def _recv(self, party: int, *values) -> None:
        """Transcript hook: `party` received `values`, in order."""
        if self.record_transcript:
            self.transcript[party].extend(values)

    def share(self, v) -> SharedValue:
        """Share a value party 0 holds; party 1 receives the dealer's mask,
        one sent element.  In a BatchSession v is one value per execution
        or one common to all (shared as plain ints)."""
        sv = self._reshare(v)
        self.ledger.rounds += SHARE_ROUNDS
        self.ledger.elements_exchanged += SHARE_ELEMENTS
        self._recv(1, sv.s1)
        return sv

    def open(self, sv: SharedValue):
        """Exchange shares and return the balanced reconstruction."""
        self.ledger.rounds += OPEN_ROUNDS
        self.ledger.elements_exchanged += OPEN_ELEMENTS
        self._recv(0, sv.s1)
        self._recv(1, sv.s0)
        return self.peek(sv)

    def peek(self, sv: SharedValue):
        """Simulator-only balanced reconstruction, in [-(q-1)/2, (q-1)/2];
        no communication, no ledger."""
        return (sv.s0 + sv.s1 + self._half) % self.q - self._half

    def mul(self, a: SharedValue, b: SharedValue) -> SharedValue:
        """Beaver multiplication: one triple, one round, four elements."""
        q = self.q
        ta0, ta1, tb0, tb1, tc0, tc1 = self._triple(a, b)
        # each party sends its shares of d = a - ta and e = b - tb
        d = (a.s0 - ta0 + a.s1 - ta1) % q
        e = (b.s0 - tb0 + b.s1 - tb1) % q
        led = self.ledger
        led.multiplications += 1
        led.rounds += MUL_ROUNDS
        led.elements_exchanged += MUL_ELEMENTS
        if self.record_transcript:
            self._recv(0, (a.s1 - ta1) % q, (b.s1 - tb1) % q)
            self._recv(1, (a.s0 - ta0) % q, (b.s0 - tb0) % q)
        # a product of two residues is below 2^62, a sum of two below 2^63:
        # int64 shares reduce after every second product
        s0 = ((d * tb0 + e * ta0) % q + d * e + tc0) % q
        s1 = ((d * tb1 + e * ta1) % q + tc1) % q
        return SharedValue(s0, s1)

    def share_public(self, v) -> SharedValue:
        """Zero-cost sharing of a publicly known constant."""
        return SharedValue(v % self.q, 0)

    def add(self, a: SharedValue, b: SharedValue) -> SharedValue:
        return SharedValue((a.s0 + b.s0) % self.q, (a.s1 + b.s1) % self.q)

    def sub(self, a: SharedValue, b: SharedValue) -> SharedValue:
        return SharedValue((a.s0 - b.s0) % self.q, (a.s1 - b.s1) % self.q)

    def add_public(self, a: SharedValue, c: int) -> SharedValue:
        return SharedValue((a.s0 + c) % self.q, a.s1)

    def affine(self, a: SharedValue, scale: int, offset: int) -> SharedValue:
        return SharedValue((a.s0 * scale + offset) % self.q, a.s1 * scale % self.q)

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
        added in one call: the same joint words, dealer masks, shares and
        ledger as k such draws each scaled by 2^i and added to [0].
        """
        if not thresholds:
            return self.share_public(0)
        self._charge_bernoulli(len(thresholds))
        value, mask = self._bit_sum(thresholds)
        return SharedValue((value - mask) % self.q, mask)

    def _charge_bernoulli(self, k: int) -> None:
        """k Bernoulli draws, each one shared comparison."""
        led = self.ledger
        led.bernoulli_draws += k
        led.comparisons += k
        led.rounds += k * CMP_ROUNDS
        led.elements_exchanged += k * CMP_ELEMENTS

    def mux(self, i: SharedValue, a: SharedValue, b: SharedValue) -> SharedValue:
        """[a] + [i]*([b] - [a]): a when i=0, b when i=1; one multiplication."""
        sel = self.peek(i)
        self._check((sel != 0) & (sel != 1), sel, "mux selector {} is not a shared bit")
        return self.add(a, self.mul(i, self.sub(b, a)))

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

    def pi_ge(self, sv: SharedValue) -> SharedValue:
        """Shared sign test: [1] if the balanced value is >= 0, else [0].

        The value must stay within the configured safe magnitude so the
        balanced lift is unambiguous.
        """
        val = self.peek(sv)
        self._check(
            abs(val) > self.safe_magnitude, val, "pi_ge input {} outside safe range +/-{safe}"
        )
        led = self.ledger
        led.comparisons += 1
        led.rounds += CMP_ROUNDS
        led.elements_exchanged += CMP_ELEMENTS
        return self._reshare(val >= 0)

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

    def redraw(self, flag: SharedValue) -> bool:
        """Open the public reject bit of one attempt of a rejection loop.

        True asks the caller to draw again.  The bit is independent of
        every secret, so opening it reveals nothing.
        """
        return self._retry(self.open(flag) != 0)


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
        self.triples = TripleStore(self.q, self.dealer)

    # -- randomness --------------------------------------------------------

    def joint_word(self) -> int:
        """XOR of one fresh 64-bit word from each party's tape."""
        return self.tape0.word() ^ self.tape1.word()

    def _reshare(self, value: int) -> SharedValue:
        """Fresh additive sharing of a value using a dealer mask."""
        r = self.dealer.field_element(self.q)
        return SharedValue((value - r) % self.q, r)

    def _bit_sum(self, thresholds: tuple[int, ...]) -> tuple[int, int]:
        """(sum of 2^i * bit i, sum of 2^i * mask i mod q) of k Bernoulli
        draws: k words from each party tape and k dealer masks, each in one
        read, the words and masks k `pi_bersample_thresholded` calls take."""
        k = len(thresholds)
        words = zip(self.tape0.words(k), self.tape1.words(k), thresholds)
        value = sum(1 << i for i, (w0, w1, t) in enumerate(words) if w0 ^ w1 < t)
        masks = self.dealer.residues(self.q, k)
        return value, sum(r << i for i, r in enumerate(masks)) % self.q

    def _triple(self, a: SharedValue, b: SharedValue) -> tuple:
        return self.triples.take()

    # -- faults and rejections ---------------------------------------------

    def _check(self, bad: bool, value: int, message: str) -> None:
        """ContractViolation at once if `bad`."""
        if bad:
            raise ContractViolation(message.format(value, safe=self.safe_magnitude))

    def _retry(self, rejected: bool) -> bool:
        """A rejected attempt draws again."""
        return bool(rejected)

    def run(self, program: Callable[["Session"], int], n: int, words: int) -> list[int]:
        """n executions of `program` in sequence, on this session's tapes.

        `words` (joint words per execution without rejections) sizes the
        blocks of BatchSession.run; the sequential loop does not need it.
        """
        return [program(self) for _ in range(n)]

    def transcript_dump(self) -> dict:
        """Audit dump of both parties' received elements, hex-encoded."""
        return {
            f"party{p}": [format(v, "x") for v in self.transcript[p]]
            for p in (0, 1)
        }


class BatchSession(_CommonOps):
    """Many independent executions of one protocol, as int64 share arrays.

    Holds both parties' shares of each value as arrays with one entry per
    execution.  `run(program, n, words)` returns exactly what `n`
    sequential runs of `program` on a Session with the same seeds return:
    the party tapes are read in blocks laid out execution by execution,
    so each execution sees the words the sequential loop would give it.
    An execution that needs more words than `words` (a rejected draw)
    finishes on a sequential Session reading the same tapes, and the next
    block starts after it (`run_in_blocks`, shared with `sample_batch`).

    Masks and Beaver triples come from one vectorized dealer draw per
    gadget call, on a dealer stream of its own; opened values never depend
    on it.  Inside `run` every gadget costs its per-execution amount once
    per committed execution; outside it (sharing the common input) once.
    """

    def __init__(self, fieldcfg: FieldConfig, seed0: int = 0, seed1: int = 1):
        if fieldcfg.q >= BATCH_MAX_Q:
            raise ValueError(f"q={fieldcfg.q} is too large for int64 share arithmetic")
        super().__init__(fieldcfg)
        self.seeds = (seed0, seed1)
        self.tape0 = RandomTape(seed0)
        self.tape1 = RandomTape(seed1)
        self.dealer = RandomTape([dealer_seed(seed0, seed1), 1])
        self._rows: np.ndarray | None = None  # joint word j of each execution in row j
        self._col = 0
        self._rejected = np.zeros(0, dtype=bool)
        self._fault: tuple[int, str] = (0, "")
        self._sequential: Session | None = None
        self._pool = np.empty(0, dtype=np.int64)  # dealer residues not yet used
        self._pool_at = 0

    # -- blocks ------------------------------------------------------------

    def run(self, program: Callable[["BatchSession"], np.ndarray], n: int, words: int) -> np.ndarray:
        """Opened results of n executions of `program`, in sequential order;
        one execution draws `words` joint words when nothing is rejected."""
        block = partial(self._block, program, words)
        return run_in_blocks(n, block, lambda: program(self._sequential_session()))

    def _block(self, program, words: int, size: int) -> tuple[int, np.ndarray]:
        """Run `size` executions; commit those before the first rejection."""
        joint = self.tape0.peek_block(size * words) ^ self.tape1.peek_block(size * words)
        self._rows = joint.reshape(size, words).T.copy()
        self._col = 0
        self._rejected = np.zeros(size, dtype=bool)
        self._fault = (size, "")
        # gadgets charge self.ledger: one execution's cost, while in the block
        total, unit = self.ledger, CostLedger()
        self.ledger = unit
        try:
            values = np.broadcast_to(program(self), (size,))
        finally:
            self.ledger, self._rows = total, None
        if self._col != words:
            raise RuntimeError(f"an execution drew {self._col} joint words, planned {words}")
        kept = int(np.argmax(self._rejected)) if self._rejected.any() else size
        # executions from the first rejection on read shifted words; only a
        # fault before it is one the sequential loop meets
        if self._fault[0] < kept:
            raise ContractViolation(self._fault[1])
        self.tape0.skip(kept * words)
        self.tape1.skip(kept * words)
        self.ledger.add(unit, kept)
        return kept, values

    def _sequential_session(self) -> Session:
        if self._sequential is None:
            s = Session(self.field, *self.seeds, tape0=self.tape0, tape1=self.tape1)
            s.ledger = self.ledger
            self._sequential = s
        return self._sequential

    def _check(self, bad: np.ndarray, values: np.ndarray, message: str) -> None:
        """ContractViolation for the first flagged execution.

        Outside `run` it is raised at once; inside, the block raises it
        only if the execution comes before the block's first rejection.
        """
        bad = np.ravel(bad)
        if not bad.any():
            return
        i = int(np.argmax(bad))
        msg = message.format(int(np.ravel(values)[i]), safe=self.safe_magnitude)
        if self._rows is None:
            raise ContractViolation(msg)
        if i < self._fault[0]:
            self._fault = (i, msg)

    def _retry(self, rejected: np.ndarray) -> bool:
        """Mark the executions whose attempt was rejected; never draw again.

        `run` finishes the marked executions on the sequential path.
        """
        self._rejected |= rejected
        return False

    # -- randomness ----------------------------------------------------------

    def joint_word(self) -> np.ndarray:
        """The next joint word of every execution in the block (uint64)."""
        return self._joint_rows(1)[0]

    def _joint_rows(self, k: int) -> np.ndarray:
        """The next k joint words of every execution, one row each."""
        if self._rows is None:
            raise RuntimeError("joint words are drawn inside run()")
        if self._col + k > len(self._rows):
            raise RuntimeError("an execution drew more joint words than planned")
        self._col += k
        return self._rows[self._col - k : self._col]

    def _masks(self, shape: tuple) -> np.ndarray:
        """Fresh dealer residues; drawn DEALER_CHUNK or more at a time."""
        size = math.prod(shape)
        if self._pool_at + size > len(self._pool):
            fresh = self.dealer.field_array(self.q, max(size, DEALER_CHUNK)).astype(np.int64)
            self._pool = np.concatenate([self._pool[self._pool_at :], fresh])
            self._pool_at = 0
        self._pool_at += size
        return self._pool[self._pool_at - size : self._pool_at].reshape(shape)

    def _reshare(self, value) -> SharedValue:
        """Fresh additive sharing of one value per execution (or one common)."""
        value = np.asarray(value, dtype=np.int64)
        r = self._masks(value.shape)
        masked = (value - r) % self.q
        if masked.ndim == 0:  # a common value: plain ints, usable by Session too
            return SharedValue(int(masked), int(r))
        return SharedValue(masked, r)

    def _bit_sum(self, thresholds: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(sum of 2^i * bit i, sum of 2^i * mask i mod q) per execution: the
        next k rows of the block in one compare, and k dealer mask rows."""
        k, q = len(thresholds), self.q
        rows = self._joint_rows(k)
        # a threshold of 2^64 (probability 1) does not fit in uint64
        capped = np.array([min(t, _WORD_MAX) for t in thresholds], dtype=np.uint64)
        certain = np.array([t > _WORD_MAX for t in thresholds])
        bits = (rows < capped[:, None]) | certain[:, None]
        # one _masks call per bit: the dealer chunks of k separate draws
        masks = np.stack([self._masks(rows.shape[1:]) for _ in range(k)])
        weights = np.array([pow(2, i, q) for i in range(k)], dtype=np.int64)[:, None]
        # a weight times a residue is below 2^62; reduced, k of them sum
        # far below 2^63
        value = (bits * weights).sum(axis=0)
        return value, (masks * weights % q).sum(axis=0) % q

    def _triple(self, a: SharedValue, b: SharedValue) -> tuple:
        """A fresh triple per execution, from one dealer draw."""
        shape = np.broadcast(a.s0, a.s1, b.s0, b.s1).shape
        return beaver_shares(self.q, *self._masks((5,) + shape))
