"""The layer pass: per-layer metrics from spans around direct calls.

Every traced run makes this same pass, whatever its workload, so each
per-layer metric has one definition.  Sizes are fixed, so the count
metrics depend on the seed alone.  perfbench/README.md names the
end-to-end metric, and the workload, each one should move.
"""

from __future__ import annotations

import tempfile

import numpy as np

from trunclap import (
    Histogram,
    RandomTape,
    calibrate,
    field_for_mechanism,
    max_privacy_ratio,
    moments_tcl,
    moments_tdl,
    pmf_tcl,
    pmf_tdl,
    sample_dlap_centered,
    sample_tcl,
    sample_tdl,
    sample_tdl_batch,
    tv_distance,
)
from trunclap import cli
from trunclap.mpc import make_session, pi_cl, pi_dl_for, run_batch
from trunclap.mpc.core import TripleStore
from trunclap.validation import chi_square

from .harness import OUT_DIR, Tracer, median_us, rate
from .workloads import (
    GAMMA, SETS, Inputs, MpcBatch, drive_online, fine_kappa, ledger_summary,
)

MPC_CASES = (("tdl", "small"), ("tcl", "small"), ("tdl", "wide"), ("tcl", "wide"))
DRIVE_N = 513        # online calls per case: every input of the wide grid once
GADGET_SESSIONS = 48  # sessions' worth of gadget calls per case


def _loop(T: Tracer, name: str, k: int, fn, tag: str = "") -> None:
    """One span around k calls, with k as its request id for rate()."""
    with T.span(name, k, tag):
        for _ in range(k):
            fn()


def tape_layer(T: Tracer, inputs: Inputs) -> dict:
    tape = RandomTape(inputs.seed())
    for _ in range(5):
        _loop(T, "tape.word", 20000, tape.word)
    q = field_for_mechanism(64.0, 32.0, 2 + GAMMA).q
    for _ in range(10):
        with T.span("tape.field_elements", 10000):
            tape.field_elements(q, 10000)
    return {
        "tape.words_per_s": (rate(T, "tape.word"), "1/s"),
        "tape.field_elements_per_s": (rate(T, "tape.field_elements"), "1/s"),
    }


def sampling_layer(T: Tracer, inputs: Inputs) -> dict:
    P, Pt = SETS["wide"], SETS["table"]
    x = inputs.x_steps(P) * P.step
    for _ in range(5):
        with T.span("sampling.sample_tdl_batch", 50000):
            sample_tdl_batch(x, P, 50000, inputs.seed())
    tape = RandomTape(inputs.seed())
    for _ in range(5):
        _loop(T, "sampling.sample_tdl", 1000, lambda: sample_tdl(x, P, tape))
        _loop(T, "sampling.sample_dlap_centered", 1000,
              lambda: sample_dlap_centered(Pt.L, Pt.sigma, Pt.p, tape), "table")
        _loop(T, "sampling.sample_tcl", 500, lambda: sample_tcl(x, P, tape, GAMMA))
    # words a TCL sample consumes: branch, tail index, then kappa+2 per inner attempt
    tape, n = RandomTape(inputs.seed()), 2000
    for _ in range(n):
        sample_tcl(x, P, tape, GAMMA)
    attempts = (tape.words_consumed - 2 * n) // (fine_kappa("tcl", P) + 2)
    return {
        "sampling.clap_accept_ratio": (n / attempts, "ratio"),
        "sampling.tdl_batch_per_s": (rate(T, "sampling.sample_tdl_batch"), "1/s"),
        "sampling.tdl_seq_per_s": (rate(T, "sampling.sample_tdl"), "1/s"),
        "sampling.dlap_table_per_s": (rate(T, "sampling.sample_dlap_centered"), "1/s"),
        "sampling.tcl_seq_per_s": (rate(T, "sampling.sample_tcl"), "1/s"),
    }


def exact_layer(T: Tracer, inputs: Inputs) -> dict:
    P = SETS["wide"]
    for _ in range(60):
        x = inputs.x_steps(P) * P.step
        with T.span("mechanisms.calibrate"):
            calibrate(P.L / P.sigma, "tdl", L=P.L)
        with T.span("mechanisms.pmf_tdl"):
            fd = pmf_tdl(x, P)
        with T.span("mechanisms.pmf_tcl"):
            pmf_tcl(x, P)
        with T.span("mechanisms.moments_tdl"):
            moments_tdl(x, P)
        with T.span("mechanisms.moments_tcl"):
            moments_tcl(x, P)
        with T.span("mechanisms.max_privacy_ratio"):
            max_privacy_ratio("tcl", P)
    values = sample_tdl_batch(x, P, 100000, inputs.seed())
    for _ in range(20):
        with T.span("validation.histogram", len(values)):
            h = Histogram.from_samples(values, P.output_grid("tdl"))
        with T.span("validation.tv_distance"):
            tv_distance(h, fd)
        with T.span("validation.chi_square"):
            chi_square(h, fd)
    for mech, label in MPC_CASES:
        Q = SETS[label]
        p = Q.p + (GAMMA if mech == "tcl" else 0)
        _loop(T, "grids.field_for_mechanism", 50, lambda: field_for_mechanism(Q.E, Q.L, p))
    m = {f"mechanisms.{n}_us": (median_us(T, f"mechanisms.{n}"), "us") for n in (
        "pmf_tdl", "pmf_tcl", "moments_tdl", "moments_tcl", "calibrate", "max_privacy_ratio")}
    m["validation.histogram_per_s"] = (rate(T, "validation.histogram"), "1/s")
    m["validation.tv_us"] = (median_us(T, "validation.tv_distance"), "us")
    m["validation.chi_square_us"] = (median_us(T, "validation.chi_square"), "us")
    m["grids.field_for_mechanism_us"] = (
        1e6 / rate(T, "grids.field_for_mechanism"), "us")
    return m


def mpc_layer(T: Tracer, inputs: Inputs) -> dict:
    m: dict = {}
    words = dealer = refills = outputs = violations = 0
    tail = []
    pairs_s = pairs = 0
    tcl_outputs = tcl_attempts = 0
    for mech, label in MPC_CASES:
        P = SETS[label]
        tag = f"{mech}.{label}"
        with T.span("mpc.protocols.make_session", -1, tag):
            s = make_session(P, mech, GAMMA, inputs.seed(), inputs.seed())
        Es = round(P.E * 2**P.p)
        xs = [k % (2 * Es + 1) - Es for k in range(DRIVE_N)]
        recs, pool_s = drive_online(s, P, mech, xs, T, tag)
        done = [r for r in recs if r[1] is not None]
        violations += len(recs) - len(done)
        led = ledger_summary([r[2] for r in done], [r[3] for r in done])
        for f in ("rounds", "elements", "mults", "cmps"):
            for phase in ("offline", "online"):
                m[f"mpc.core.{tag}.{phase}_{f}"] = (led["per_output"][f"{phase}_{f}"], "count")
        words += s.tape0.words_consumed + s.tape1.words_consumed
        dealer += s.dealer.words_consumed
        refills += s.triples.refills
        outputs += len(done)
        if mech == "tcl":
            tcl_outputs += len(done)
            tcl_attempts += (led["offline_bernoulli"] - len(done)) // (fine_kappa(mech, P) + 2)
        tail += [(r[5], r[4]) for r in done]
        pairs += len(recs)
        pairs_s += pool_s
        _gadgets(T, s, mech, label, led["per_output"])
        for _ in range(60 if mech == "tdl" else 20):
            with T.span(f"mpc.protocols.pi_{mech[1]}l", -1, label):
                (pi_dl_for(s, P) if mech == "tdl" else pi_cl(s, P, GAMMA))
        with T.span("mpc.protocols.run_batch", MpcBatch.N_CALL, tag):
            run_batch(mech, P, 0.0, MpcBatch.N_CALL, inputs.seed(), inputs.seed(), gamma=GAMMA)
    for label in ("small", "wide"):
        for n in ("pi_d_noise", "pi_c_noise", "pi_dl", "pi_cl", "pi_d_perturb", "pi_c_perturb"):
            tags = [f"{mech}.{label}" for mech in ("tdl", "tcl")] + [label]
            d = np.concatenate([T.durations(f"mpc.protocols.{n}", t) for t in tags])
            m[f"mpc.protocols.{label}.{n}_us"] = (float(np.median(d)) * 1e6, "us")
    # the slowest 1% of online calls, and how many of them refilled triples
    tail.sort(reverse=True)
    top = tail[: max(1, len(tail) // 100)]
    m["mpc.core.refill_tail_share"] = (sum(r for _, r in top) / len(top), "ratio")
    m["mpc.core.triple_refills_per_output"] = (refills / outputs, "count")
    m["tape.party_words_per_output"] = (words / outputs, "count")
    m["tape.dealer_words_per_output"] = (dealer / outputs, "count")
    m["mpc.protocols.offline_pairs_per_s"] = (pairs / pairs_s, "1/s")
    m["mpc.protocols.contract_violations"] = (violations, "count")
    m["mpc.protocols.pi_cl_accept_ratio"] = (tcl_outputs / tcl_attempts, "ratio")
    m["mpc.protocols.run_batch_per_s"] = (rate(T, "mpc.protocols.run_batch"), "1/s")
    m["mpc.protocols.make_session_us"] = (median_us(T, "mpc.protocols.make_session"), "us")
    for g in ("pi_bersample", "pi_uni", "pi_uni_reject", "pi_ge", "mul", "mux",
              "share", "open", "trunc_pow2"):
        m[f"mpc.core.{g}_per_s"] = (rate(T, f"gadget.{g}"), "1/s")
    q = s.q
    for k in range(300):
        store = TripleStore(q, RandomTape(k))
        with T.span("mpc.core.triple_refill", k):
            store.take()
    m["mpc.core.triple_refill_us"] = (median_us(T, "mpc.core.triple_refill"), "us")
    return m


def _gadgets(T: Tracer, s, mech: str, label: str, per_output: dict) -> None:
    """Each mpc.core gadget called directly, GADGET_SESSIONS times as often
    as one session of the drive calls it by its ledger (three of the
    multiplications are muxes), in one span per gadget."""
    bern = round(per_output["offline_bernoulli"])
    uni = round(per_output["offline_uniform"])
    mults = round(per_output["offline_mults"] + per_output["online_mults"])
    ge = round(per_output["offline_cmps"] + per_output["online_cmps"]) - bern
    attempts = ge - 1  # TCL: one +L test per attempt, plus the online sign test
    m = 2 * round(SETS[label].E * 2**SETS[label].p)  # the tail count, a power of two
    bit, val = s.pi_bersample(0.5), s.share_public(5)
    opens = 1 + (attempts if mech == "tcl" else 0)
    shift = GAMMA if mech == "tcl" else 1
    k = GADGET_SESSIONS
    _loop(T, "gadget.pi_bersample", k * bern, lambda: s.pi_bersample(0.3), label)
    _loop(T, "gadget.pi_uni", k * uni, lambda: s.pi_uni(m), label)
    _loop(T, "gadget.pi_uni_reject", k, lambda: s.pi_uni(3 * m // 4 + 1), label)
    _loop(T, "gadget.pi_ge", k * ge, lambda: s.pi_ge(val), label)
    _loop(T, "gadget.mul", k * (mults - 3), lambda: s.mul(bit, val), label)
    _loop(T, "gadget.mux", k * 3, lambda: s.mux(bit, val, val), label)
    _loop(T, "gadget.share", k, lambda: s.share(7), label)
    _loop(T, "gadget.open", k * opens, lambda: s.open(val), label)
    _loop(T, "gadget.trunc_pow2", k, lambda: s.trunc_pow2(val, shift), label)


def cli_layer(T: Tracer, inputs: Inputs) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for k in range(3):
            seed = str(inputs.seed() % 10**6)
            runs = {
                "mpc": ["mpc", "--E", "4", "--L", "2", "--sigma", "1", "--x", "1",
                        "--n", "400", "--seed", seed],
                "sample": ["sample", "--mechanism", "tcl", "--E", "64", "--L", "32",
                           "--sigma", "8", "--p", "2", "--x", "-32", "--n", "2000",
                           "--seed", seed],
                "pmf": ["pmf", "--mechanism", "tcl", "--E", "64", "--L", "32",
                        "--sigma", "8", "--p", "2", "--x", "-32"],
            }
            for name, argv in runs.items():
                with T.span(f"cli.{name}", k):
                    code = cli.main(argv + ["--out", f"{tmp}/{name}{k}.out"])
                if code != 0:
                    raise RuntimeError(f"trunclap {name} exited with {code}")
    return {f"cli.{n}_s": (median_us(T, f"cli.{n}") / 1e6, "s") for n in ("mpc", "sample", "pmf")}


def layer_pass(seed: int) -> tuple[dict, Tracer]:
    T = Tracer("layers")
    inputs = Inputs(seed, 4)
    metrics = {}
    for layer in (tape_layer, sampling_layer, exact_layer, mpc_layer, cli_layer):
        with T.span(f"layer.{layer.__name__}"):
            metrics.update(layer(T, inputs))
    return metrics, T
