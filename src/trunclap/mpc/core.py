"""Simulated semi-honest two-party computation substrate.

Additive secret sharing over the ring Z_q, q = 2^k, Beaver-triple
multiplication, and the gadgets the noise protocols rely on: a shared
Bernoulli draw, the shared magnitude of a discrete Laplace draw (its
Bernoulli bits and segment picks), a shared uniform draw, a shared sign
test, and a mux.  No gadget takes a modular inverse, so the modulus is a
power of two (`grids.ring_covering` sizes it): one mask reduces every share
operation, and a dealer residue is one masked lane of a word, so a word
holds 64/w of them for the ring's lane width w (`RandomTape.field_array`).

The simulator holds both parties' shares, so gadget innards (comparison
circuits, bit decompositions) are evaluated directly on the reconstructed
value and the result is re-shared with a fresh dealer mask.  What remains
faithful to a real deployment is (a) the data flow -- which values are
opened, which stay shared, and what each party's view contains -- and
(b) the cost accounting, which uses the documented constants below so
ledgers are reproducible.

Randomness discipline: the two party tapes feed only the joint public
coins (XOR-combined 64-bit words for Bernoulli and uniform draws) and are
read by words and blocks of words, while all masks, triples, and
re-sharing randomness come from a dealer tape derived deterministically
from the two party seeds, read in arrays of residues (masked lanes): a
Session takes every mask and triple from one pool of them (its
`TripleStore`), a BatchSession draws each gadget's in one array.  Opened
protocol outputs therefore depend on the party tapes alone, which is what
lets a plaintext functionality run on the same word stream reproduce them
bit for bit, and what lets the dealer stream change without moving any of
them.

Cost model (abstract operation counts, not wall-clock):

* open: 1 round, 2 field elements.
* input sharing (party 0's input): 1 round, 1 element (party 1's share).
* Beaver mul: 1 multiplication, 1 round, 4 elements, 1 triple.
* comparison (sign test / threshold test): 1 comparison; internally a
  64-bit bit-decomposition with log-depth prefix evaluation, costed as
  8 rounds (ceil(log2 64) + 2) and 128 elements.  Its boolean-domain
  gates are not counted as field multiplications.
* Bernoulli draw: 1 comparison against the public threshold.
* segment pick: when a count N is not a power of two, its P power-of-two
  segments (`tape.segment_plan`) cost P - 1 Bernoulli draws that pick one
  and P - 1 multiplications, the mux chain blending the picked segment's
  start and mask.
* magnitude of a draw plan on [0, N) (`pi_magnitude`): kappa Bernoulli
  draws, kappa = floor(log2 N), plus N's segment picks; kappa + P - 1
  comparisons, 8 rounds and 128 elements each, and P - 1 multiplications.
  It is shared with one mask.
* uniform draw over [0, m): 1 round, 2k elements, k = floor(log2 m) (each
  party shares its k bit contributions), plus m's segment picks.  Nothing
  is opened.
* power-of-two truncation by g bits (`trunc_pow2`): 2 rounds, 2g
  elements.  No protocol truncates: both mechanisms draw on the 2^-p grid.

Two substrates run the same protocol code.  `Session` runs one
execution at a time on Python integers and drives every batch: unless it
records its transcript, it evaluates blocks of executions, each on a
`BatchSession` of its own holding each value as uint64 share arrays (one
entry per execution), as a `BlockScheduler` decides: n at once in
`Session.run`, on any tapes, and one per call in `Session.offline`, whose
blocks run ahead of the calls and so only on the session's own seeded
tapes (a finite replay passed in has no words past its end), each
execution's values one uint64 row, handed out as the loop's.  A block
reads the party tapes execution by execution (no draw rejects, so each
reads the same words) and charges its own ledger one execution's cost,
added to the session's per execution committed, so opened values, ledgers
and party words are the sequential path's; a range fault in a block
raises `ContractViolation` at once, and the block is dropped.
Every wire (share, open, peek, Beaver mul) and gadget is written once, in
`_CommonOps`; a substrate supplies only its randomness (the next joint
word, or the next k in one read, a resharing mask, and k fresh dealer
residues at the shape of the values in `like`, `_residues(k, like)`),
the ring constants its values meet, how a range check finds the first
fault, and how a sum of shares lifts to the balanced range.  Each
substrate holds one kind of value: a Session's shares are Python ints
and meet int constants; a BatchSession's are uint64 rows and meet 0-d
uint64 constants, numpy's fast path (a Python int takes the slower
weak-scalar one, NEP 50), and draw on the row form of the noise plan.  A value common to every execution of a block is a row of one,
which broadcasts.

Dealer material can be drawn ahead of the gadget that uses it: `pi_ge`
takes its resharing mask and `mul`/`mux` their triple as arguments, and
draw their own (`_residues(5, ...)`) when none is given.  What to draw
ahead is the protocol's to say: the noise protocol draws its pair's
perturbation material in one `_residues` call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .. import tape as tape_module
from ..grids import FieldConfig
from ..tape import (BlockScheduler, RandomTape, _magnitude, bernoulli_threshold, pick_segment,
                    row_constant, segment_plan)

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


_LEDGER_FIELDS = tuple(f.name for f in fields(CostLedger))


class TripleStore:
    """A Session's one pool of dealer residues, drawn RESIDUES_PER_REFILL
    at a time (`refills` counts the draws): `mask()` hands out one, `take(k)`
    the next k, by default a Beaver triple (ta, tb, ta0, tb0, tc0), party
    0's shares and the pair; party 1's are ta - ta0, tb - tb0, ta*tb - tc0.
    The name, the triple queue's it replaced, waits for ROADMAP direction 10."""

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

    def take(self, k: int = 5) -> list[int]:
        pool = self._pool
        while len(pool) < k:
            pool = self._refill()
        cut = len(pool) - k
        residues = pool[cut:]
        del pool[cut:]
        return residues


def dealer_seed(seed0: int, seed1: int) -> int:
    """Deterministic dealer seed from the two party seeds (splitmix-style)."""
    return ((seed0 * _MIX0) ^ (seed1 * _MIX1) ^ 0xDEA1) % (1 << 63)


class _CommonOps:
    """The wires (share, open, peek, Beaver mul, the transcript hook), the
    local linear algebra and every gadget, written once for both substrates,
    each with its one ledger charge.

    A shared value is the plain tuple (s0, s1) of both parties' shares,
    residues in [0, q), of one kind per substrate: Python ints in a
    Session, uint64 rows in a BatchSession, where a value common to every
    execution is a row of one.  q is a power of two, so one mask reduces
    every operation, and uint64 arithmetic, which wraps mod 2^64, reduces
    consistently: sums and differences stay unreduced until a result is.
    A substrate supplies its randomness (`joint_word`, `_joint_words`,
    `_reshare`, `_residues`), its range check (`_check`) and the ring
    constants its values meet under one set of names (`_m`, `_high`,
    `_half`, `_safe`): Python ints in a Session, 0-d uint64
    arrays in a BatchSession; and the share of 0, `_zero`, that
    `share_public` builds on.  A public constant is reduced as a Python
    int (`% q`) before it meets a value, since a negative int does not
    meet a uint64 row.  The one Python-int share a block meets, the input
    shared on its Session before the block, meets only rows
    (`pi_perturb`), so every sum it enters is a row.
    """

    def __init__(self, fieldcfg: FieldConfig, record_transcript: bool = False):
        self.field = fieldcfg
        self.q = q = fieldcfg.q
        self.ledger = CostLedger()
        # the ring constants values meet: Python ints here, 0-d uint64
        # arrays in a BatchSession; q - 1 reduces, q - 2 tests a bit
        self._m, self._high, self._half = q - 1, q - 2, fieldcfg.half
        # sign tests are sound while |value| stays within q/4: 2·safe is `_half`
        self._safe = self.safe_magnitude = q >> 2
        self._zero = (0, 0)  # the share of 0 that public constants build on
        # a BatchSession refuses share rows that are not uint64 (`_uint64_rows`)
        self._rows_only = False
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
        or one common to all (shared as a row of one)."""
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
        round, four elements.  `triple` is one drawn ahead (the noise
        protocol's perturbation material); without it the dealer draws one now.

        Each party sends its shares of d = a - ta and e = b - tb.  The
        simulator holds both shares, so it reconstructs a and b once.
        Party 0's share is d(e + tb0) + e·ta0 + tc0.  Party 1's is a·b less
        it, the residue of its protocol share d(tb - tb0) + e(ta - ta0) +
        ta·tb - tc0, since the two sum to (d + ta)(e + tb) = a·b."""
        a0, a1 = a
        b0, b1 = b
        # a, b, d and e unreduced: the result is reduced, and q divides 2^64
        a, b = a0 + a1, b0 + b1
        if self._rows_only:
            _uint64_rows(a, b)
        ta, tb, ta0, tb0, tc0 = self._residues(5, (a, b)) if triple is None else triple
        d = a - ta
        e = b - tb
        led = self.ledger
        led.multiplications += 1
        led.rounds += MUL_ROUNDS
        led.elements_exchanged += MUL_ELEMENTS
        m = self._m
        if self.record_transcript:
            self._recv(0, (a1 - ta + ta0) & m, (b1 - tb + tb0) & m)
            self._recv(1, (a0 - ta0) & m, (b0 - tb0) & m)
        s0 = (d * (e + tb0) + e * ta0 + tc0) & m
        return (s0, (a * b - s0) & m)

    def share_public(self, v: int) -> SharedValue:
        """Zero-cost sharing of a publicly known constant."""
        return self.add_public(self._zero, v)

    def add(self, a: SharedValue, b: SharedValue) -> SharedValue:
        m = self._m
        return ((a[0] + b[0]) & m, (a[1] + b[1]) & m)

    def sub(self, a: SharedValue, b: SharedValue) -> SharedValue:
        m = self._m
        return ((a[0] - b[0]) & m, (a[1] - b[1]) & m)

    # public constants enter as residues, reduced as Python ints: a
    # negative int does not meet a uint64 row
    def add_public(self, a: SharedValue, c: int) -> SharedValue:
        return ((a[0] + c % self.q) & self._m, a[1])

    def affine(self, a: SharedValue, scale: int, offset: int) -> SharedValue:
        q, m = self.q, self._m
        scale %= q
        return ((a[0] * scale + offset % q) & m, a[1] * scale & m)

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

    def pi_magnitude(self, plan) -> SharedValue:
        """Shared magnitude of a draw plan (`sampling.CenteredDlapConfig`):
        `tape._magnitude`, the plaintext samplers' body, on the plan's next
        kappa + P - 1 joint words.  Each word is one Bernoulli draw, and the
        P - 1 segment picks add their mux chain's multiplications.  The
        value is shared with one dealer mask (none for kappa = 0, where it
        is 0), so its shares are uniform.
        """
        kappa, picks = plan.kappa, len(plan.magnitude.picks)
        if not kappa:
            return self.share_public(0)
        self._charge_bernoulli(kappa + picks)
        self._charge_mul(picks)
        return self._reshare(_magnitude(plan, self._joint_words(kappa + picks), 0))

    def _charge_bernoulli(self, k: int) -> None:
        """k Bernoulli draws, each one shared comparison."""
        led = self.ledger
        led.bernoulli_draws += k
        led.comparisons += k
        led.rounds += k * CMP_ROUNDS
        led.elements_exchanged += k * CMP_ELEMENTS

    def _charge_mul(self, k: int) -> None:
        """k multiplications: the mux chain of k segment picks."""
        led = self.ledger
        led.multiplications += k
        led.rounds += k * MUL_ROUNDS
        led.elements_exchanged += k * MUL_ELEMENTS

    def mux(self, i: SharedValue, a: SharedValue, b: SharedValue, triple=None) -> SharedValue:
        """[a] + [i]*([b] - [a]): a when i=0, b when i=1, for a selector that
        opens to 0 or 1; one multiplication (on `triple`, as `mul`).

        Its Beaver step runs here, on the reconstructions i and c = b - a.
        With d = i - ta, e = c - tb and t0 = d(e + tb0) + e·ta0 + tc0, party
        0's share of i·c, the result is (t0 + a0, i·c - t0 + a1): residue
        for residue, `mul(i, b - a)` plus a."""
        i0, i1 = i
        a0, a1 = a
        b0, b1 = b
        # unreduced, as in `mul`
        sel, a, b = i0 + i1, a0 + a1, b0 + b1
        if self._rows_only:
            _uint64_rows(sel, a, b)
        c = b - a
        # a bit's residue sets no bit but the lowest
        self._check(sel & self._high, sel, "mux selector {} is not a shared bit")
        ta, tb, ta0, tb0, tc0 = self._residues(5, (sel, c)) if triple is None else triple
        m = self._m
        led = self.ledger
        led.multiplications += 1
        led.rounds += MUL_ROUNDS
        led.elements_exchanged += MUL_ELEMENTS
        if self.record_transcript:
            # what `mul(i, b - a)` records, on the shares b0 - a0, b1 - a1
            self._recv(0, (i1 - ta + ta0) & m, (b1 - a1 - tb + tb0) & m)
            self._recv(1, (i0 - ta0) & m, (b0 - a0 - tb0) & m)
        d = sel - ta
        e = c - tb
        t0 = d * (e + tb0) + e * ta0 + tc0
        return ((t0 + a0) & m, (sel * c - t0 + a1) & m)

    def pi_uni(self, m: int) -> SharedValue:
        """Shared uniform draw over {0, ..., m-1}, on m's `segment_plan`:
        the low floor(log2 m) bits of one joint word (zero bias) and, unless
        m is a power of two, the segment P - 1 more joint words pick (bias
        <= 2^-64 a pick).  Nothing is rejected or opened, so the cost is
        m's alone (module docstring); the index is shared with one mask.
        """
        m = operator.index(m)  # TypeError for a float
        if not 1 <= m <= 1 << 64:
            raise ValueError(f"m must be in [1, 2^64], what one 64-bit word can draw; got {m}")
        plan = segment_plan(m)
        v = self.joint_word() & plan.low
        led = self.ledger
        led.uniform_draws += 1
        led.rounds += UNI_ROUNDS
        led.elements_exchanged += 2 * plan.low.bit_length()
        picks = len(plan.picks)
        if picks:
            v = pick_segment(plan, self._joint_words(picks), v)
            self._charge_bernoulli(picks)
            self._charge_mul(picks)
        return self._reshare(v)

    def pi_ge(self, sv: SharedValue, mask=None) -> SharedValue:
        """Shared sign test: [1] if the balanced value is >= 0, else [0].

        The value must stay within the configured safe magnitude so the
        balanced lift is unambiguous.  Both tests run on the residue u in
        [0, q): |lift(u)| > safe is (u + safe) mod q > 2·safe = q/2, and
        lift(u) >= 0 is u < q/2.  `mask` is the resharing mask, drawn ahead
        (perturbation material); without it the dealer draws one now.
        """
        u = sv[0] + sv[1]
        if self._rows_only:
            _uint64_rows(u)
        m = self._m
        u &= m
        self._check((u + self._safe) & m > self._half, u,
                    "pi_ge input {} outside safe range +/-{safe}")
        led = self.ledger
        led.comparisons += 1
        led.rounds += CMP_ROUNDS
        led.elements_exchanged += CMP_ELEMENTS
        return self._reshare(u < self._half, mask)

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


class Session(_CommonOps):
    """One deterministic two-party computation session.

    All public parameters (field, thresholds) are common to both logical
    parties; every output and the ledger are a pure function of
    (seed0, seed1, inputs).  The two seeds must differ: equal seeds give
    both parties one stream, and every joint word, their XOR, would be 0;
    tapes passed in are taken as they are.  A session is single-threaded;
    run independent sessions for parallel batches; each block it evaluates
    runs on a BatchSession of its own (`_scheduler`).
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
            # _joint_words reads one party's words, then the other's
            raise ValueError("each party needs a tape of its own")
        if tape0 is None and tape1 is None and seed0 == seed1:
            raise ValueError(f"the two party seeds must differ, got {seed0} twice")
        self.tape0 = tape0 if tape0 is not None else RandomTape(seed0)
        self.tape1 = tape1 if tape1 is not None else RandomTape(seed1)
        self.dealer = RandomTape(dealer_seed(seed0, seed1))
        self.triples = TripleStore(self.q, self.dealer)  # every mask and triple
        # `offline` pools only on the session's own seeded tapes: its blocks
        # read words ahead of the pairs they hand out, past the end of a
        # finite replay passed in.  `run`'s blocks never reach past the
        # executions they commit, so they run on any tapes
        self._pools = tape0 is None and tape1 is None
        # (key, its BlockScheduler, party words read after the last call)
        self._offline: tuple = (None, None, None)

    def _scheduler(self, program, words: int, step, cap: int) -> BlockScheduler:
        """A BlockScheduler of `program`, each block on a new BatchSession."""
        return BlockScheduler(
            lambda size: BatchSession(self)._evaluate(program, words, size), step, cap
        )

    # -- randomness --------------------------------------------------------

    def joint_word(self) -> int:
        """XOR of one fresh 64-bit word from each party's tape."""
        return self.tape0.word() ^ self.tape1.word()

    def _reshare(self, value: int, mask: int | None = None) -> SharedValue:
        """Fresh additive sharing of a value using a dealer mask (`mask`, or
        one taken from the pool now)."""
        r = self.triples.mask() if mask is None else mask
        return ((value - r) & self._m, r)

    def _joint_words(self, k: int) -> list[int]:
        """The next k joint words: k words from each party tape, each in one
        read, the words k `joint_word` calls take."""
        return [w0 ^ w1 for w0, w1 in zip(self.tape0.words(k), self.tape1.words(k))]

    def _residues(self, k: int, like) -> list[int]:
        return self.triples.take(k)

    def offline(self, key, step):
        """The values of one execution of an input-independent program,
        `step(self, key)`, drawn now or handed out of a block evaluated
        ahead.

        `key` names the program (the noise protocol's cached plan): a
        BatchSession runs it on the key's row form (`BatchSession.offline`),
        and `key.words_per_draw` is one execution's joint words.  A block
        stacks each execution's values into one uint64 row, handed out as
        a list of Python ints.  A BlockScheduler with blocks of at most
        POOL_BLOCK_MAX is started afresh when the key changes or a party
        tape was read since the last call: the block's words are then not
        the next ones.  A session on tapes passed in, or recording its
        transcript, draws every execution now.
        """
        if not self._pools or self.record_transcript:
            return step(self, key)
        t0, t1 = self.tape0, self.tape1
        last_key, blocks, read = self._offline
        # word counts only grow, so their sum moves with any read of either
        if key is not last_key or read != t0.words_consumed + t1.words_consumed:
            blocks = self._scheduler(
                lambda b: np.column_stack(b.offline(key, step)),
                key.words_per_draw, lambda: step(self, key), POOL_BLOCK_MAX)
        values = blocks.take_one()
        self._offline = (key, blocks, t0.words_consumed + t1.words_consumed)
        return values.tolist() if type(values) is np.ndarray else values

    # -- faults ------------------------------------------------------------

    def _check(self, bad, value: int, message: str) -> None:
        """ContractViolation at once if `bad` (a bool or an int, nonzero
        for a fault), reporting the balanced lift of `value` (any
        representative of the ring element)."""
        if bad:
            raise ContractViolation(message.format(self._lift(value), safe=self.safe_magnitude))

    def run(self, program: Callable[["Session"], int], n: int, words: int) -> np.ndarray:
        """The opened results of n executions of `program` in sequence, as
        int64; `words` is one execution's joint words.  Blocks of at most
        BATCH_BLOCK run each on a BatchSession, on seeded or injected
        tapes alike; a session that records its transcript, which a
        BatchSession does not, runs every execution here.  An execution
        run here (the rest of a call, fewer than BATCH_MIN_SESSIONS) draws
        its offline material through `offline`, and may take a pair pooled
        before the call: the same opened value, ledger and party words.
        n < 0 raises ValueError.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if self.record_transcript:
            return np.array([program(self) for _ in range(n)], dtype=np.int64)
        return self._scheduler(program, words, lambda: program(self),
                               tape_module.BATCH_BLOCK).take(n)

    def transcript_dump(self) -> dict:
        """Audit dump of both parties' received elements, hex-encoded."""
        return {
            f"party{p}": [format(v, "x") for v in self.transcript[p]]
            for p in (0, 1)
        }


@lru_cache(maxsize=128)
def _row_constants(q: int) -> tuple:
    """The ring constants a BatchSession's rows meet, as `row_constant`s:
    q - 1, q - 2, q/2 and the safe bound q/4, then the shift of the balanced
    lift as a uint64 and as an int64: a uint64 shifted left by it keeps
    the ring's k bits on top, and shifted back as an int64 it is
    sign-extended.  Last, the share of 0 as read-only rows of one."""
    shift = 65 - q.bit_length()
    zero = np.zeros(1, dtype=np.uint64)
    zero.flags.writeable = False
    return (*map(row_constant, (q - 1, q - 2, q >> 1, q >> 2, shift)),
            row_constant(shift, np.int64), (zero, zero))


_UINT64 = np.dtype(np.uint64)


def _uint64_rows(*values) -> None:
    """TypeError for a share sum that is not a uint64 row.  A BatchSession's
    shares are uint64 rows (`share` casts its input); a signed row would
    meet the uint64 ring constants as float64, which no bitwise op takes,
    and a sum of Python ints could pass 2^64."""
    for v in values:
        if type(v) is not np.ndarray or v.dtype != _UINT64:
            raise TypeError("a BatchSession's share rows are uint64 arrays, not "
                            f"{getattr(v, 'dtype', type(v).__name__)}")


class BatchSession(_CommonOps):
    """One block of many independent executions of one program, evaluated
    at once for a Session: both parties' shares of each value as uint64
    arrays, one entry per execution, on the session's party tapes and
    dealer.  `_evaluate` runs a program over the next executions without
    consuming their words, laid out execution by execution (`peek_block`),
    and `_commit` consumes them as they are handed out.  An instance
    evaluates one block (`Session._scheduler` builds one per block).

    Its ledger is its own, not the session's: inside the block it is one
    execution's cost, which `_commit(k)` adds k times to the session's.  A
    standalone instance used outside a block (sharing a value) charges its
    own ledger alone; nothing in the package does so.

    Masks and Beaver triples are drawn from the session's dealer as the
    gadgets need them, each call's residues in one array; opened values
    never depend on them.  Every share is a uint64 row, a value common to
    every execution a row of one; rows meet the ring constants as 0-d
    uint64 arrays (`_row_constants`), and the noise protocol runs on its
    plan's row form (`offline`).  A share row that is not uint64 is
    refused (`_uint64_rows`), and so is a value to share that is not bool
    or integer (`_reshare`).
    """

    def __init__(self, session: Session):
        super().__init__(session.field)
        (self._m, self._high, self._half, self._safe,
         self._shl, self._shr, self._zero) = _row_constants(self.q)
        self._rows_only = True
        self.session = session
        self.tape0, self.tape1, self.dealer = session.tape0, session.tape1, session.dealer
        self._rows: np.ndarray | None = None  # joint word j of each execution in row j
        self._col: int | None = None  # joint words each execution read, once a block starts

    # -- blocks ------------------------------------------------------------

    def _evaluate(self, program, words: int, size: int):
        """`program` over the next `size` executions, without consuming
        their words: (values, commit), the sequential loop's values, and
        `commit(k)` (`_commit`) consumes the first k.  A range fault raises
        ContractViolation here, before anything of the block is consumed.
        The two party tapes' words, laid out execution by execution, XOR
        as they lie, and one transposing copy makes the block's (words,
        size) rows: joint word j of every execution is row j, freed once
        the program ran.  A second call raises RuntimeError: an instance
        is one block."""
        if self._col is not None:
            raise RuntimeError("a BatchSession evaluates one block")
        n = size * words
        joint = self.tape0.peek_block(n) ^ self.tape1.peek_block(n)
        self._rows, self._col = joint.reshape(size, words).T.copy(), 0
        values = program(self)
        if self._col != words:
            raise RuntimeError(f"an execution drew {self._col} joint words, planned {words}")
        self._rows = None
        return values, self._commit

    def _commit(self, k: int) -> None:
        """Consume the words of the first k executions of the block, and
        add k times its one-execution ledger to the session's."""
        words = k * self._col
        self.tape0.skip(words)
        self.tape1.skip(words)
        self.session.ledger.add(self.ledger, k)

    def _check(self, bad, values, message: str) -> None:
        """ContractViolation at once for the first flagged execution,
        reporting the balanced lift of its value; inside a block,
        `_evaluate` then commits nothing of it.  `bad` holds one bool or
        integer per execution (nonzero for a fault), or one for a common
        value (a row of one)."""
        if np.count_nonzero(bad):
            i = np.flatnonzero(bad)[0]
            raise ContractViolation(
                message.format(self.field.lift(int(np.ravel(values)[i])), safe=self.safe_magnitude)
            )

    def _lift(self, v):
        """The balanced representative of each v mod q, as int64: the low k
        bits of its uint64, sign-extended."""
        _uint64_rows(v)
        return (v << self._shl).view(np.int64) >> self._shr

    def offline(self, key, step):
        """The values of one execution of an input-independent program for
        every execution of the block: `step(self, key.rows)`, on its key's
        row form (`NoisePlan.rows`).  The one place a program meets
        the row form: a program run in a block and `Session.offline`'s
        blocks both draw through here."""
        return step(self, key.rows)

    # -- randomness ----------------------------------------------------------

    def joint_word(self) -> np.ndarray:
        """The next joint word of every execution in the block (uint64)."""
        return self._joint_words(1)[0]

    def _joint_words(self, k: int) -> np.ndarray:
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
        """Fresh additive sharing of one value per execution (or one common,
        a row of one), on `mask` or on masks drawn now."""
        # a uint64 or bool row meets the uint64 mask as it is; anything else
        # becomes a uint64 row (a scalar a row of one), but a float, which
        # the cast would truncate, is refused.  A Python int is reduced
        # first, as a Session reduces it: past the int64/uint64 range it
        # would make an object array
        if type(value) is not np.ndarray or value.dtype.kind not in "ub":
            if type(value) is int:
                value %= self.q
            value = np.array(value, copy=None, ndmin=1)
            if value.dtype.kind not in "biu":
                raise TypeError(f"a BatchSession shares bool or integer values, not {value.dtype}")
            value = value.astype(np.uint64, copy=False)
        r = self._masks(value.shape) if mask is None else mask
        return ((value - r) & self._m, r)

    def _residues(self, k: int, like) -> np.ndarray:
        """k rows of fresh dealer residues at the shape of the rows in `like`."""
        return self._masks((k,) + np.broadcast(*like).shape)
