"""Bit-identity gate for the two-party simulator.

Two sha256 pins over what a seeded `run_sessions` call leaves behind, on
a recording `Session` (every execution sequential) and on a `Session`
that runs blocks, each on a `BatchSession` of its own:

* the outputs pin: opened values, the ledger and the words each party
  tape consumed.  Opened outputs depend on the party tapes alone, so a
  change to any draw, ledger charge or party word moves it, and a change
  to the dealer does not;
* the dealer pin: the words each session's dealer tape consumed (a
  batching Session's blocks draw from it too) and both parties'
  transcripts of the recording Session, which carry the dealer's masks
  and triples.

A change that means to alter the word stream or the law must re-pin the
outputs pin and say why; one that changes only the dealer's draws re-pins
the dealer pin alone.
"""

import hashlib
import itertools
import json
from unittest import mock

import numpy as np
import pytest

from conftest import reference_field_array
from trunclap import TCL, TDL, MechanismParams
from trunclap import RandomTape
from trunclap.mpc import BatchSession, Session, mechanism_field, pi_noise, pi_perturb
from trunclap.mpc.core import TripleStore
from trunclap.mpc.protocols import run_sessions

SETS = {
    "small": MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),
    "wide": MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2),
    "E3": MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),
    # last, so the cases above keep their index, seeds and x: a segmented
    # inner draw (2^p * L = 3 steps) and a tail that is not a power of two
    "E3L3": MechanismParams(E=3.0, L=3.0, sigma=1.0, p=0),
}
SIZES = (1, 5, 300)

OUTPUTS_DIGEST = "bd53af95a487303cda15d05d53e28d27a8114d7974b324f18b2a0dd03fe0f5d5"
DEALER_DIGEST = "1bd9848fc6c6d7b21522905797de3055305a2f5aa5ec4029490a315b5d0500b1"


def _outputs(session, mech, params, n, x) -> dict:
    x_steps = params.input_steps(x)
    values = run_sessions(session, mech, params, x_steps, n)
    return {
        "values": [float(v) for v in values],
        "ledger": session.ledger.as_dict(),
        "words": [session.tape0.words_consumed, session.tape1.words_consumed],
    }


def cases():
    combos = itertools.product(SETS, (TDL, TCL), SIZES)
    for i, (name, mech, n) in enumerate(combos):
        params = SETS[name]
        x = (-params.E, 1.0, params.E)[i % 3]
        yield i, name, mech, n, x


def gate_records() -> list:
    records = []
    for i, name, mech, n, x in cases():
        params = SETS[name]
        field = mechanism_field(params, mech.name)
        seeds = (1000 + i, 2000 + i)
        seq = Session(field, *seeds, record_transcript=True)
        batch = Session(field, *seeds)
        outputs = {
            "session": _outputs(seq, mech, params, n, x),
            "batch": _outputs(batch, mech, params, n, x),
        }
        dealer = {
            "session": [seq.dealer.words_consumed],
            "batch": [batch.dealer.words_consumed],
            "transcript": seq.transcript_dump(),
        }
        records.append({"case": [name, mech.name, n, x], "outputs": outputs,
                        "dealer": dealer})
    return records


def digest(records: list, part: str) -> str:
    """sha256 of one part ("outputs" or "dealer") of every case."""
    pinned = [[r["case"], r[part]] for r in records]
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def records():
    return gate_records()


def test_substrates_agree_with_each_other(records):
    for r in records:
        seq, batch = r["outputs"]["session"], r["outputs"]["batch"]
        assert seq == batch, r["case"]


def test_seeded_runs_are_pinned(records):
    assert digest(records, "outputs") == OUTPUTS_DIGEST


def test_dealer_draws_are_pinned(records):
    assert digest(records, "dealer") == DEALER_DIGEST


def test_dealer_draws_are_the_lane_reference(records):
    # every dealer draw made again by `reference_field_array`, which slices
    # the residues out of whole words as Python ints, leaves the same
    # records: the pinned dealer stream is the lanes of the dealer's words
    with mock.patch.object(RandomTape, "field_array", reference_field_array):
        assert gate_records() == records


def _redeal(session, seed: int) -> None:
    """Give `session` a dealer tape of another seed, and the triples on it
    (before its first block: each block's BatchSession shares the tape)."""
    session.dealer = RandomTape(seed)
    session.triples = TripleStore(session.q, session.dealer)


# "Session" records its transcript and runs every execution sequentially;
# "BatchSession" runs blocks, each on a BatchSession of its own
@pytest.mark.parametrize("substrate", ["Session", "BatchSession"])
@pytest.mark.parametrize("mech", [TDL, TCL], ids=["tdl", "tcl"])
@pytest.mark.parametrize("name", sorted(SETS))
def test_outputs_do_not_depend_on_the_dealer(name, mech, substrate):
    params = SETS[name]
    field = mechanism_field(params, mech.name)
    runs, transcripts = [], []
    for dealer in (None, 4242):
        s = Session(field, 77, 78, record_transcript=substrate == "Session")
        if dealer is not None:
            _redeal(s, dealer)
        with mock.patch.object(
            BatchSession, "_evaluate", autospec=True, side_effect=BatchSession._evaluate
        ) as blocks:
            runs.append(_outputs(s, mech, params, 300, 1.0))
        transcripts.append(s.transcript)
        if substrate == "BatchSession":
            assert blocks.call_count and all(c.args[0].dealer is s.dealer
                                             for c in blocks.call_args_list)
    assert runs[0] == runs[1]
    if substrate == "Session":  # the dealer's masks did change what the parties saw
        assert transcripts[0] != transcripts[1]


def _pooled_outputs(session, mech, params, n, x) -> dict:
    """`_outputs` with each execution written out, so that its noise pair
    comes through `Session.offline` (a long-lived session's calls)."""
    xs = session.share(params.input_steps(x) % session.q)
    opened = [
        session.open(pi_perturb(session, mech, xs, pi_noise(session, mech, params), params))
        for _ in range(n)
    ]
    return {
        "values": [float(v) for v in np.asarray(opened, dtype=np.int64) * params.step],
        "ledger": session.ledger.as_dict(),
        "words": [session.tape0.words_consumed, session.tape1.words_consumed],
    }


def test_a_pooled_session_equals_a_recording_session():
    # a recording Session draws every noise pair sequentially; a seeded one
    # that records nothing hands its pairs out of blocks once a run is long
    # enough, with the same opened values, ledger and party words
    pooled = set()
    for i, name, mech, n, x in cases():
        params = SETS[name]
        field = mechanism_field(params, mech.name)
        seeds = (1000 + i, 2000 + i)
        ref = Session(field, *seeds, record_transcript=True)
        session = Session(field, *seeds)
        with mock.patch.object(
            BatchSession, "_evaluate", autospec=True, side_effect=BatchSession._evaluate
        ) as evaluate:
            got = _pooled_outputs(session, mech, params, n, x)
        assert got == _outputs(ref, mech, params, n, x), (name, mech.name, n)
        if evaluate.call_count:
            pooled.add((name, mech.name, n))
    # every run of 300 pairs evaluated blocks, the E=3 sets too (their tail
    # index picks one of two segments)
    assert {(name, mech.name, 300) for name in SETS for mech in (TDL, TCL)} <= pooled


if __name__ == "__main__":
    records = gate_records()
    print("outputs", digest(records, "outputs"))
    print("dealer ", digest(records, "dealer"))
