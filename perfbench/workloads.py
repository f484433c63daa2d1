"""The three benchmark workloads.  Each is a closed loop driven by one caller.

* mpc-batch -- repeated `run_batch` calls, alternating TDL and TCL, at the
  small set (A8's) and the wide set (`validate`'s p=2 set).  Tier-1 spends
  most of its time here and the offline noise phase dominates each session,
  so a batched two-party simulator acts here first.
* mpc-online -- one long-lived session per (mechanism, set).  An offline
  phase fills a pool of noise pairs; each arriving x then runs share ->
  perturb -> open as one timed call.  This times the paper's online claim
  (1 comparison + 2 multiplications) per call, and the triple-store refills
  that set its tail.  A change that speeds up batches but slows single
  calls shows here.
* plaintext-exact -- the curator's path, with no MPC: calibration, exact
  pmfs, moments and certificates, plaintext sampling and a release check.
  The mpc layers do no work here, so a batched simulator must leave it
  unchanged, while a TCL batch sampler, a vectorized pmf_tcl or a table
  sampler show only here.

Inputs x are drawn by the seed from the whole grid [-E, E], endpoints
included.  With the wide set, TDL perturbation raises ContractViolation
for some x > 32 (the sign test on the inner branch leaves the field's safe
range); both mpc workloads keep these inputs and count the outputs as
failed.
"""

from __future__ import annotations

from array import array

import numpy as np

from trunclap import (
    Histogram,
    MechanismParams,
    RandomTape,
    calibrate,
    max_privacy_ratio,
    moments_tcl,
    moments_tdl,
    pmf_tcl,
    pmf_tdl,
    sample_tcl,
    sample_tdl,
    sample_tdl_batch,
    tv_distance,
)
from trunclap.mpc import (
    ContractViolation,
    make_session,
    mechanism_field,
    pi_c_noise,
    pi_c_perturb,
    pi_d_noise,
    pi_d_perturb,
    run_batch,
    run_tcl,
    run_tdl,
)
from trunclap.mpc import core

from .harness import HostClock, LawCheck, perf

GAMMA = 8
SETS = {
    "small": MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0),      # 2 magnitude bits
    "wide": MechanismParams(E=64.0, L=32.0, sigma=8.0, p=2),     # 7 bits, 15 fine
    "wide-p0": MechanismParams(E=64.0, L=32.0, sigma=8.0, p=0),  # 5 bits, 13 fine
    "table": MechanismParams(E=64.0, L=24.0, sigma=8.0, p=0),    # 2^p*L = 24: table path
}
MECHS = ("tdl", "tcl")
LEDGER_FIELDS = ("rounds", "elements", "mults", "cmps", "bernoulli", "uniform")
# online call: input sharing, one sign test, two muxes, one opening
ONLINE_DELTA = (
    core.SHARE_ROUNDS + core.CMP_ROUNDS + 2 * core.MUL_ROUNDS + core.OPEN_ROUNDS,
    core.SHARE_ELEMENTS + core.CMP_ELEMENTS + 2 * core.MUL_ELEMENTS + core.OPEN_ELEMENTS,
    2, 1, 0, 0,
)


class Inputs:
    """Seeded stream of grid inputs and session seeds; one stream per pass."""

    def __init__(self, seed: int, stream: int):
        self.rng = np.random.Generator(np.random.PCG64([seed, stream]))

    def x_steps(self, P: MechanismParams) -> int:
        Es = round(P.E * 2**P.p)
        return int(self.rng.integers(-Es, Es + 1))

    def seed(self) -> int:
        return int(self.rng.integers(0, 1 << 62))


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stand-in for Tracer: the traced driver with no spans recorded.

    Passing `T=None` to a workload instead runs its end-to-end path, which
    is the library's own entry point (mpc-batch) or keeps span blocks out
    of the timed call (mpc-online)."""

    _none = _NoSpan()

    def span(self, name, rid=-1, tag=""):
        return self._none


NULL = NullTracer()


class Tally:
    """Outputs, failures and wall time of one pass.

    Every time is filed under the host clock's current bucket, so that it
    can be read at the reference speed (see `HostClock`); `tick()` between
    pieces of work lets the clock probe the host."""

    def __init__(self):
        self.clock = HostClock()
        self.outputs = {m: 0 for m in MECHS}
        self.busy = {m: {} for m in MECHS}   # bucket -> seconds
        self.attempted = 0
        self.failed = 0
        # per call class: seconds and bucket of each completed call; 12 bytes
        # a call, so a faster library barely moves peak RSS
        self.latency: dict[str, tuple[array, array]] = {}
        self.evals = 0
        self.eval_s: dict[int, float] = {}
        self.bad_ledger = 0
        self.offline_pairs = 0
        self.offline_s: dict[int, float] = {}

    def tick(self) -> None:
        self.clock.tick()

    def spend(self, where: dict, seconds: float) -> None:
        b = self.clock.bucket
        where[b] = where.get(b, 0.0) + seconds

    def settle(self, mech: str, check: LawCheck, x_steps, values) -> int:
        bad = check.add(x_steps, values)
        self.failed += bad
        self.outputs[mech] += np.size(values) - bad
        return bad

    def call(self, cls: str, seconds: float) -> None:
        times, buckets = self.latency.setdefault(cls, (array("d"), array("i")))
        times.append(seconds)
        buckets.append(self.clock.bucket)

    def release_check(self, mech: str, P, x_steps: int, values) -> None:
        """The caller's check before releasing outputs of input x: exact law,
        moments, certificate and the TV of the outputs against the law."""
        pmf, moments = (pmf_tdl, moments_tdl) if mech == "tdl" else (pmf_tcl, moments_tcl)
        x = x_steps * P.step
        t0 = perf()
        law = pmf(x, P)
        moments(x, P)
        max_privacy_ratio(mech, P)
        tv_distance(Histogram.from_samples(np.asarray(values), law.spec), law)
        self.spend(self.eval_s, perf() - t0)
        self.evals += 4


def ledger_of(led) -> tuple:
    return (led.rounds, led.elements_exchanged, led.multiplications,
            led.comparisons, led.bernoulli_draws, led.uniform_draws)


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def noise_fn(mech: str):
    if mech == "tdl":
        return pi_d_noise
    return lambda s, P: pi_c_noise(s, P, GAMMA)


def perturb_fn(mech: str):
    return pi_d_perturb if mech == "tdl" else pi_c_perturb


def fine_kappa(mech: str, P: MechanismParams) -> int:
    """Magnitude bits of the inner sampler (on the fine lattice for TCL)."""
    steps = round(P.L * 2 ** (P.p + (GAMMA if mech == "tcl" else 0)))
    return steps.bit_length() - 1


def reject_cost(kappa: int) -> tuple:
    """Ledger of one rejected TCL attempt: a fine pi_dl, the +L test, its opening."""
    return (
        (kappa + 3) * core.CMP_ROUNDS + 2 * core.MUL_ROUNDS + core.OPEN_ROUNDS,
        (kappa + 3) * core.CMP_ELEMENTS + 2 * core.MUL_ELEMENTS + core.OPEN_ELEMENTS,
        2, kappa + 3, kappa + 2, 0,
    )


# --- session drivers (used by the counts, traced and layer passes) -----------------

def drive_batch(session, P, mech, x_steps, n, T=NULL, tag="", rid0=0):
    """n outputs in one session the way run_batch does: share x once, then
    noise -> perturb -> open per output.  Returns (values, per-output
    offline ledgers, per-output online ledgers); values is None if a
    ContractViolation ended the batch."""
    noise, perturb = noise_fn(mech), perturb_fn(mech)
    nname, pname = f"mpc.protocols.pi_{mech[1]}_noise", f"mpc.protocols.pi_{mech[1]}_perturb"
    with T.span("mpc.core.share", rid0, tag):
        xs = session.share(x_steps % session.q)
    out, d_off, d_on = [], [], []
    try:
        for k in range(n):
            a = ledger_of(session.ledger)
            with T.span(nname, rid0 + k, tag):
                pair = noise(session, P)
            b = ledger_of(session.ledger)
            with T.span(pname, rid0 + k, tag):
                z = perturb(session, xs, pair, P)
            with T.span("mpc.core.open", rid0 + k, tag):
                out.append(session.open(z) * P.step)
            d_off.append(_sub(b, a))
            d_on.append(_sub(ledger_of(session.ledger), b))
    except ContractViolation:
        return None, d_off, d_on
    return out, d_off, d_on


def _online_call(session, perturb, xsteps, pair, P):
    """share -> perturb -> open of one input; None if the call raised."""
    try:
        xs = session.share(xsteps % session.q)
        return session.open(perturb(session, xs, pair, P)) * P.step
    except ContractViolation:
        return None


def _traced_online_call(session, perturb, xsteps, pair, P, T, pname, rid, tag):
    try:
        with T.span("mpc.core.share", rid, tag):
            xs = session.share(xsteps % session.q)
        with T.span(pname, rid, tag):
            z = perturb(session, xs, pair, P)
        with T.span("mpc.core.open", rid, tag):
            return session.open(z) * P.step
    except ContractViolation:
        return None


def drive_online(session, P, mech, xs_list, T=None, tag="", rid0=0):
    """Offline pool of len(xs_list) noise pairs, then share -> perturb -> open
    per input.  With T=None the timed call holds no span blocks.  Returns
    (records, seconds spent drawing the pool), with one record per input:
    (x_steps, value or None, offline ledger, online ledger, refilled, seconds)."""
    noise, perturb = noise_fn(mech), perturb_fn(mech)
    nname, pname = f"mpc.protocols.pi_{mech[1]}_noise", f"mpc.protocols.pi_{mech[1]}_perturb"
    led, store = session.ledger, session.triples
    S = NULL if T is None else T
    pool, pool_s = [], 0.0
    with S.span("mpc.offline_fill", rid0, tag):
        for k in range(len(xs_list)):
            a = ledger_of(led)
            with S.span(nname, rid0 + k, tag):
                t0 = perf()
                pair = noise(session, P)
                pool_s += perf() - t0
            pool.append((pair, _sub(ledger_of(led), a)))
    recs = []
    for k, (xsteps, (pair, d_off)) in enumerate(zip(xs_list, pool)):
        a, r0 = ledger_of(led), store.refills
        if T is None:
            t0 = perf()
            v = _online_call(session, perturb, xsteps, pair, P)
            dt = perf() - t0
        else:
            with T.span("mpc.online_call", rid0 + k, tag):
                t0 = perf()
                v = _traced_online_call(session, perturb, xsteps, pair, P, T, pname,
                                        rid0 + k, tag)
                dt = perf() - t0
        recs.append((xsteps, v, d_off, _sub(ledger_of(led), a), store.refills > r0, dt))
    return recs, pool_s


def ledger_summary(offline: list, online: list) -> dict:
    n = max(1, len(offline))
    off = np.sum(offline, axis=0) if offline else np.zeros(6, dtype=int)
    on = np.sum(online, axis=0) if online else np.zeros(6, dtype=int)
    out = {f"offline_{f}": int(v) for f, v in zip(LEDGER_FIELDS, off)}
    out.update({f"online_{f}": int(v) for f, v in zip(LEDGER_FIELDS, on)})
    out["outputs"] = len(offline)
    out["per_output"] = {k: v / n for k, v in out.items() if k != "outputs"}
    return out


# --- workloads ------------------------------------------------------------------

class Workload:
    name = ""
    cases: tuple = ()
    # cycles a run makes per second of --seconds: about what the reference
    # host (see harness.PROBE_REF_S) fits in a second.  The work of a run is
    # fixed by its seed and --seconds, so its outputs, attempts and failures
    # repeat exactly; only its wall time depends on the host.
    cycles_per_s: float

    def __init__(self, seed: int):
        self.seed = seed

    def checks(self) -> dict:
        return {(m, s): LawCheck(m, s, SETS[s]) for m, s in self.cases}

    def setup(self):
        """Build what the first output needs, from cold caches; returns the
        state `cycle` runs on (sessions, for mpc-online)."""

    def cycle(self, state, inputs: Inputs, tally: Tally, checks: dict, T=None) -> None:
        """One round over the cases.  T=None is the end-to-end path; a
        Tracer (or NULL, for the same driver without spans) the traced one."""
        raise NotImplementedError

    def counts(self, size: int) -> dict:
        """Deterministic counts at a fixed size; also the ledger gates."""
        raise NotImplementedError


class MpcBatch(Workload):
    name = "mpc-batch"
    cases = (("tdl", "small"), ("tcl", "small"), ("tdl", "wide"), ("tcl", "wide"))
    # sessions per run_batch call: the default of `trunclap mpc --n`, the
    # one caller that sizes a call for a user (README: "Call sizes")
    N_CALL = 1000
    cycles_per_s = 1.8

    def setup(self):
        for mech, label in self.cases:
            P = SETS[label]
            mechanism_field(P, mech, GAMMA)
            try:
                run_batch(mech, P, 0.0, 1, 0, 1, gamma=GAMMA)
            except ContractViolation:
                pass

    def cycle(self, state, inputs, tally, checks, T=None) -> None:
        n = self.N_CALL
        S = NULL if T is None else T
        for mech, label in self.cases:
            tally.tick()
            P = SETS[label]
            xs, s0, s1 = inputs.x_steps(P), inputs.seed(), inputs.seed()
            rid = tally.attempted
            with S.span("mpc.run_batch_call", rid, f"{mech}.{label}"):
                t0 = perf()
                if T is None:
                    try:
                        out = run_batch(mech, P, xs * P.step, n, s0, s1, gamma=GAMMA)
                    except ContractViolation:
                        out = None
                else:
                    with T.span("mpc.protocols.make_session", rid, label):
                        session = make_session(P, mech, GAMMA, s0, s1)
                    out = drive_batch(session, P, mech, xs, n, T, f"{mech}.{label}", rid)[0]
                dt = perf() - t0
            tally.spend(tally.busy[mech], dt)
            tally.attempted += n
            if out is None:
                tally.failed += n
                continue
            tally.call(f"{mech}.{label}", dt)
            if tally.settle(mech, checks[(mech, label)], xs, out) == 0:
                tally.release_check(mech, P, xs, out)

    def counts(self, size: int) -> dict:
        """Four calls of `size` sessions per case, replayed session by session.

        Gates: each replayed batch equals run_batch bit for bit, every online
        step costs exactly the online ledger, and the batch ledger equals the
        input sharing plus n times the single-session ledger without its
        sharing, plus the cost of each TCL rejection redraw.
        """
        inputs = Inputs(self.seed, 2)
        n = size
        share = (core.SHARE_ROUNDS, core.SHARE_ELEMENTS, 0, 0, 0, 0)
        out, problems = {}, []
        for mech, label in self.cases:
            P = SETS[label]
            Es = round(P.E * 2**P.p)
            kappa = fine_kappa(mech, P)
            cost = np.array(reject_cost(kappa))
            single = make_session(P, mech, GAMMA, inputs.seed(), inputs.seed())
            one = ledger_of(single.ledger)
            (run_tdl if mech == "tdl" else run_tcl)(single, 0.0, P)
            one = np.array(_sub(ledger_of(single.ledger), one)) - share
            one -= ((one[4] - 1) // (kappa + 2) - 1) * cost
            offs, ons, violations, words, dealer, refills = [], [], 0, 0, 0, 0
            for c in range(4):
                # the first and last calls sit on the grid's endpoints
                xs = (-Es, Es)[c % 2] if c in (0, 3) else inputs.x_steps(P)
                s0, s1 = inputs.seed(), inputs.seed()
                try:
                    ref = list(run_batch(mech, P, xs * P.step, n, s0, s1, gamma=GAMMA))
                except ContractViolation:
                    ref = None
                session = make_session(P, mech, GAMMA, s0, s1)
                vals, d_off, d_on = drive_batch(session, P, mech, xs, n)
                if vals != ref:
                    problems.append(f"{mech}.{label}: replay differs from run_batch")
                if vals is None:
                    violations += 1
                    continue
                redraws = np.array([(d[4] - 1) // (kappa + 2) - 1 for d in d_off])
                total = np.array(share) + n * one + redraws.sum() * cost
                if tuple(total) != ledger_of(session.ledger):
                    problems.append(f"{mech}.{label}: batch ledger != n x single")
                if any(d != _sub(ONLINE_DELTA, share) for d in d_on):
                    problems.append(f"{mech}.{label}: online step ledger")
                offs += d_off
                ons += d_on
                words += session.tape0.words_consumed + session.tape1.words_consumed
                dealer += session.dealer.words_consumed
                refills += session.triples.refills
            m = max(1, len(offs))
            out[f"{mech}.{label}"] = {
                "ledger": ledger_summary(offs, ons),
                "contract_violations": violations,
                "party_words_per_output": words / m,
                "dealer_words_per_output": dealer / m,
                "triple_refills_per_output": refills / m,
            }
        return {"cases": out, "problems": problems}


class MpcOnline(Workload):
    name = "mpc-online"
    cases = MpcBatch.cases
    # pairs drawn offline, then calls served, per case and cycle: one CLI
    # batch's worth (`trunclap mpc --n` default), as for mpc-batch
    POOL = MpcBatch.N_CALL
    cycles_per_s = 1.8

    def setup(self) -> dict:
        inputs = Inputs(self.seed, 0)
        sessions = {}
        for mech, label in self.cases:
            P = SETS[label]
            s = make_session(P, mech, GAMMA, inputs.seed(), inputs.seed())
            # first pair and first call fill lazy caches
            pair = noise_fn(mech)(s, P)
            s.open(perturb_fn(mech)(s, s.share(0), pair, P))
            sessions[(mech, label)] = s
        return sessions

    def cycle(self, state, inputs, tally, checks, T=None) -> None:
        for mech, label in self.cases:
            tally.tick()
            P, tag = SETS[label], f"{mech}.{label}"
            xs_list = [inputs.x_steps(P) for _ in range(self.POOL)]
            recs, pool_s = drive_online(state[(mech, label)], P, mech, xs_list, T, tag,
                                        tally.attempted)
            tally.spend(tally.busy[mech], pool_s + sum(r[5] for r in recs))
            tally.spend(tally.offline_s, pool_s)
            tally.offline_pairs += self.POOL
            tally.attempted += len(recs)
            done = []
            for r in recs:
                if r[1] is not None and r[3] == ONLINE_DELTA:
                    tally.call(tag, r[5])
                    done.append(r)
                else:
                    tally.failed += 1
                    tally.bad_ledger += r[1] is not None
            values = [r[1] for r in done]
            if done and tally.settle(mech, checks[(mech, label)],
                                     np.array([r[0] for r in done]), values) == 0:
                tally.release_check(mech, P, done[0][0], values)

    def counts(self, size: int) -> dict:
        """One fresh session per case: a pool of `size` pairs, then `size` calls.

        Gate: every completed online call costs exactly 1 comparison and
        2 multiplications and draws nothing.
        """
        inputs = Inputs(self.seed, 2)
        out, problems = {}, []
        for mech, label in self.cases:
            P = SETS[label]
            Es = round(P.E * 2**P.p)
            session = make_session(P, mech, GAMMA, inputs.seed(), inputs.seed())
            xs_list = [-Es, Es] + [inputs.x_steps(P) for _ in range(size - 2)]
            recs = drive_online(session, P, mech, xs_list)[0]
            done = [r for r in recs if r[1] is not None]
            if any(r[3] != ONLINE_DELTA for r in done):
                problems.append(f"{mech}.{label}: online call ledger")
            m = max(1, len(done))
            out[f"{mech}.{label}"] = {
                "ledger": ledger_summary([r[2] for r in done], [r[3] for r in done]),
                "contract_violations": len(recs) - len(done),
                "party_words_per_output":
                    (session.tape0.words_consumed + session.tape1.words_consumed) / m,
                "dealer_words_per_output": session.dealer.words_consumed / m,
                "triple_refills_per_output": session.triples.refills / m,
            }
        return {"cases": out, "problems": problems}


class PlaintextExact(Workload):
    name = "plaintext-exact"
    cases = tuple((m, s) for s in ("wide-p0", "wide", "table") for m in MECHS)
    # outputs per request, sized so each set's request takes similar time
    N_TDL = {"wide-p0": 8192, "wide": 8192, "table": 128}
    N_TCL = {"wide-p0": 96, "wide": 96, "table": 3}
    cycles_per_s = 55.0

    def setup(self):
        for label in ("wide-p0", "wide", "table"):
            P = SETS[label]
            sample_tdl_batch(0.0, P, 1, 0)
            sample_tcl(0.0, P, RandomTape(0), GAMMA)
            pmf_tcl(0.0, P)

    def cycle(self, state, inputs, tally, checks, T=None) -> None:
        # the NULL span blocks cost about 0.1 us each, against 5 ms a request
        T = NULL if T is None else T
        for label in ("wide-p0", "wide", "table"):
            tally.tick()
            P = SETS[label]
            xs, sd, sc = inputs.x_steps(P), inputs.seed(), inputs.seed()
            x = xs * P.step
            rid = tally.attempted
            with T.span("plain.request", rid, label):
                t0 = perf()
                with T.span("mechanisms.calibrate", rid, label):
                    calibrate(P.L / P.sigma, "tdl", L=P.L)
                with T.span("mechanisms.pmf_tdl", rid, label):
                    fd = pmf_tdl(x, P)
                with T.span("mechanisms.pmf_tcl", rid, label):
                    fc = pmf_tcl(x, P)
                with T.span("mechanisms.moments_tdl", rid, label):
                    moments_tdl(x, P)
                with T.span("mechanisms.moments_tcl", rid, label):
                    moments_tcl(x, P)
                with T.span("mechanisms.max_privacy_ratio", rid, label):
                    max_privacy_ratio("tdl", P)
                    max_privacy_ratio("tcl", P)
                t1 = perf()
                with T.span("sampling.sample_tdl_batch", rid, label):
                    vd = sample_tdl_batch(x, P, self.N_TDL[label], sd)
                t2 = perf()
                with T.span("sampling.sample_tcl", rid, label):
                    tape = RandomTape(sc)
                    vc = np.array([sample_tcl(x, P, tape, GAMMA)
                                   for _ in range(self.N_TCL[label])])
                t3 = perf()
                try:
                    with T.span("validation.histogram", rid, label):
                        hd = Histogram.from_samples(vd, P.output_grid("tdl"))
                    t4 = perf()
                    with T.span("validation.tv_distance", rid, label):
                        tv_distance(hd, fd)
                    t5 = perf()
                    with T.span("validation.histogram", rid, label):
                        hc = Histogram.from_samples(vc, P.output_grid("tcl"))
                    t6 = perf()
                    with T.span("validation.tv_distance", rid, label):
                        tv_distance(hc, fc)
                    t7 = perf()
                    tally.spend(tally.eval_s, (t1 - t0) + (t5 - t4) + (t7 - t6))
                    tally.evals += 9
                    tally.call(label, t7 - t0)
                except ValueError:
                    pass  # off-grid samples: the law check counts them
            tally.spend(tally.busy["tdl"], t2 - t1)
            tally.spend(tally.busy["tcl"], t3 - t2)
            tally.attempted += len(vd) + len(vc)
            tally.settle("tdl", checks[("tdl", label)], xs, vd)
            tally.settle("tcl", checks[("tcl", label)], xs, vc)

    def counts(self, size: int) -> dict:
        """Words per output and the TCL accept ratio, per set.

        Gate: a prefix of sample_tdl_batch equals sequential sample_tdl.
        """
        inputs = Inputs(self.seed, 2)
        out, problems = {}, []
        for label in ("wide-p0", "wide", "table"):
            P = SETS[label]
            x, sd = inputs.x_steps(P) * P.step, inputs.seed()
            batch = sample_tdl_batch(x, P, size, sd)
            tape = RandomTape(sd)
            seq = [sample_tdl(x, P, tape) for _ in range(size)]
            if list(batch) != seq:
                problems.append(f"tdl.{label}: sample_tdl_batch prefix != sample_tdl")
            tdl_words = tape.words_consumed
            tape = RandomTape(inputs.seed())
            for _ in range(size):
                sample_tcl(x, P, tape, GAMMA)
            kappa = fine_kappa("tcl", P)
            steps = round(P.L * 2 ** (P.p + GAMMA))
            per_draw = kappa + 2 if steps == 1 << kappa else 1
            # each sample: one branch word, one tail word, then inner attempts
            attempts = (tape.words_consumed - 2 * size) // per_draw
            out[label] = {
                "tdl_words_per_output": tdl_words / size,
                "tcl_words_per_output": tape.words_consumed / size,
                "clap_attempts": attempts,
                "clap_accept_ratio": size / attempts,
            }
        return {"cases": out, "problems": problems}


WORKLOADS = {w.name: w for w in (MpcBatch, MpcOnline, PlaintextExact)}
