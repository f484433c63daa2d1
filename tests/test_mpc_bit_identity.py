"""Bit-identity gate for the two-party simulator.

One sha256 over everything a seeded `run_sessions` call leaves behind, on
both substrates: opened values, the ledger, and the words each party tape
and the dealer tape consumed; the `Session` run also records both parties'
transcripts.  A change to any draw, mask, ledger charge or transcript
element changes the digest.  A change that means to alter the word stream
or the law must re-pin it and say why.
"""

import hashlib
import itertools
import json

import pytest

from trunclap import TCL, TDL, MechanismParams
from trunclap.mpc import BatchSession, Session, mechanism_field
from trunclap.mpc.protocols import run_sessions
from trunclap.sampling import noise_plan

SETS = {
    "small": MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),
    "wide": MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2),
    "E3": MechanismParams(E=3.0, L=2.0, sigma=1.0, p=0),
}
GAMMAS = (0, 3, 8)
SIZES = (1, 5, 300)

DIGEST = "5bff583d9717194b105f5dd3489a557f6723baa28e276f27164bdc4a5ea89e70"


def _tapes(session) -> list[int]:
    tapes = [session.tape0, session.tape1, session.dealer]
    sequential = getattr(session, "_sequential", None)
    if sequential is not None:  # a BatchSession's sequential path has its own dealer
        tapes.append(sequential.dealer)
    return [t.words_consumed for t in tapes]


def _record(session, mech, params, gamma, n, x) -> dict:
    x_steps = noise_plan(mech, params, gamma).input_steps(x)
    values = run_sessions(session, mech, params, x_steps, n, gamma)
    return {
        "values": [float(v) for v in values],
        "ledger": session.ledger.as_dict(),
        "words": _tapes(session),
    }


def cases():
    combos = itertools.product(SETS, (TDL, TCL), GAMMAS, SIZES)
    for i, (name, mech, gamma, n) in enumerate(combos):
        params = SETS[name]
        x = (-params.E, 1.0, params.E)[i % 3]
        yield i, name, mech, gamma, n, x


def gate_records() -> list:
    records = []
    for i, name, mech, gamma, n, x in cases():
        params = SETS[name]
        field = mechanism_field(params, mech.name, gamma)
        seeds = (1000 + i, 2000 + i)
        seq = Session(field, *seeds, record_transcript=True)
        batch = BatchSession(field, *seeds)
        records.append(
            {
                "case": [name, mech.name, gamma, n, x],
                "session": _record(seq, mech, params, gamma, n, x),
                "transcript": seq.transcript_dump(),
                "batch": _record(batch, mech, params, gamma, n, x),
            }
        )
    return records


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def records():
    return gate_records()


def test_substrates_agree_with_each_other(records):
    for r in records:
        assert r["session"]["values"] == r["batch"]["values"], r["case"]
        assert r["session"]["ledger"] == r["batch"]["ledger"], r["case"]
        assert r["session"]["words"][:2] == r["batch"]["words"][:2], r["case"]


def test_seeded_runs_are_pinned(records):
    assert digest(records) == DIGEST


if __name__ == "__main__":
    print(digest(gate_records()))
