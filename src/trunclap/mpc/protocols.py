"""Two-phase secure noise generation and perturbation protocols.

Everything in-protocol is carried in integer grid steps (values scaled by
2^p), so the affine maps of the perturbation phase are exact field
arithmetic and no truncation is ever needed online; the final 2^-p
rescale happens at decode time.  Shared bits are plain 0/1 field
elements.

The noise phase never sees the shared input: it draws the branch bit, a
uniform tail index, and the centered noise, then blends the two payloads
with one mux.  The perturbation phase costs exactly one shared comparison
and two multiplications (the tail-map selection and the branch blend),
independent of every distribution parameter.

The inner sampler's public constants (its Bernoulli thresholds) are the
draw plan `CenteredDlapConfig` the plaintext samplers use, so both
parties -- and the plaintext functionalities used as oracles -- read the
same integers.

TDL and TCL run the same protocols, parameterized by their `Mechanism`
record (`pi_noise`, `pi_perturb`, `run_once`, `run_sessions`); the
`pi_d_*`/`pi_c_*`/`run_tdl`/`run_tcl` names are those calls with the
record filled in.  Every protocol here is written against the gadget
methods alone, so it runs unchanged on a `Session` (one execution) and on
a `BatchSession` (many executions as share arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grids import FieldConfig, field_for_mechanism, next_prime
from ..mechanisms import TCL, TDL, Mechanism, MechanismParams, lookup_mechanism
from ..sampling import CenteredDlapConfig, NoisePlan, centered_dlap_config, noise_plan
from ..tape import BATCH_MIN_SESSIONS, bernoulli_threshold
from .core import BATCH_MAX_Q, BatchSession, Session, SharedValue


@dataclass(frozen=True)
class SharedNoisePair:
    """Shared branch bit [i] and blended payload [y] from a noise protocol."""

    branch: SharedValue
    payload: SharedValue


def mechanism_field(
    params: MechanismParams, mechanism: str = "tdl", gamma: int = 8
) -> FieldConfig:
    """Field sized for a mechanism run.

    The cumulative variant samples on the 2^-(p+gamma) lattice first, so
    its field must hold the fine step counts without wraparound.  Either
    way the perturbation's sign test reads y - x - 2^p*E, which reaches
    -2^p*(2E+L) on the inner branch; the headroom is widened until the
    safe range 2^(p+e+headroom-1) covers it, in coarse steps.
    """
    fine = lookup_mechanism(mechanism).fine_bits(gamma)
    base = field_for_mechanism(params.E, params.L, params.p + fine)
    headroom = base.headroom
    while 2.0 ** (base.e + headroom - 1 + fine) < 2 * params.E + params.L:
        headroom += 1
    if headroom == base.headroom:
        return base
    q = next_prime(2 ** (base.p + base.e + headroom))
    return FieldConfig(q=q, e=base.e, p=base.p, headroom=headroom)


def make_session(
    params: MechanismParams,
    mechanism: str = "tdl",
    gamma: int = 8,
    seed0: int = 0,
    seed1: int = 1,
    **kw,
) -> Session:
    return Session(mechanism_field(params, mechanism, gamma), seed0, seed1, **kw)


def pi_dl(session: Session, plan: CenteredDlapConfig) -> SharedValue:
    """Shared centered discrete Laplace draw over [-2^kappa, 2^kappa] steps.

    Lines of the bitwise procedure, on the thresholds of the bitwise
    `plan`: a Bernoulli(c0) zero flag, kappa Bernoulli bits with
    probabilities rho^(2^i)/(1+rho^(2^i)), a fair sign s = 2d-1, then
    z = s*(sum 2^i z_i + 1) and the final blend (1-b)*z.  The kappa bits
    and their weighted sum are one `pi_bersample_sum` call (kappa
    comparisons); the sum is local.  Two protocol multiplications.
    """
    _require_bitwise(plan)
    b = session.pi_bersample_thresholded(plan.zero_threshold)
    u = session.add_public(session.pi_bersample_sum(plan.bit_thresholds), 1)
    d = session.pi_bersample_thresholded(plan.sign_threshold)
    s = session.affine(d, 2, -1)
    z = session.mul(s, u)
    one_minus_b = session.affine(b, -1, 1)
    return session.mul(one_minus_b, z)


def _require_bitwise(plan: CenteredDlapConfig) -> None:
    if plan.method != "bitwise":
        raise ValueError(
            f"secure sampling needs 2^p * L to be a power of two (got {plan.steps} steps)"
        )


def pi_dl_for(session: Session, params: MechanismParams) -> SharedValue:
    """pi_dl on the draw plan of the mechanism's inner sampler at 2^-p."""
    return pi_dl(session, centered_dlap_config(params.L, params.sigma, params.p))


def pi_cl(session: Session, params: MechanismParams, gamma: int) -> SharedValue:
    """Shared approximate centered cumulative Laplace draw, coarse steps.

    Runs pi_dl on the 2^-(p+gamma) lattice, rejects the single top point
    +L (only the accept bit is revealed; it is independent of all
    secrets), then floors to the coarse grid by truncating the low gamma
    bits.  gamma=0 degenerates to the pi_dl law conditioned off +L.
    """
    return _pi_cl(session, noise_plan(TCL, params, gamma))


def _pi_cl(session: Session, plan: NoisePlan) -> SharedValue:
    fine = plan.inner
    while True:
        zf = pi_dl(session, fine)
        if not session.redraw(session.pi_ge(session.add_public(zf, -fine.steps))):
            return session.trunc_pow2(zf, plan.fine_bits)


def pi_noise(
    session: Session,
    mech: Mechanism,
    params: MechanismParams,
    gamma: int = 8,
    *,
    branch_prob: float | None = None,
) -> SharedNoisePair:
    """Offline noise protocol (never reads [x]).

    Draws [i] with the mechanism's inner-branch probability (for TDL
    1 - 2*2^p*E*e^(-L/sigma)/lambda), [a] uniform over the tail indices,
    [b] from the centered inner law (pi_dl; pi_cl at fine precision gamma
    for TCL), and blends with one mux.  `branch_prob` overrides the
    Bernoulli parameter (test stub injection).
    """
    plan = noise_plan(mech, params, gamma)
    threshold = plan.branch_threshold if branch_prob is None else bernoulli_threshold(branch_prob)
    i = session.pi_bersample_thresholded(threshold)
    a = session.pi_uni(plan.outer_count)
    b = _pi_cl(session, plan) if mech.cumulative else pi_dl(session, plan.inner)
    return SharedNoisePair(branch=i, payload=session.mux(i, a, b))


def pi_d_noise(
    session: Session, params: MechanismParams, *, branch_prob: float | None = None
) -> SharedNoisePair:
    """pi_noise of the discrete mechanism."""
    return pi_noise(session, TDL, params, branch_prob=branch_prob)


def pi_c_noise(
    session: Session,
    params: MechanismParams,
    gamma: int = 8,
    *,
    branch_prob: float | None = None,
) -> SharedNoisePair:
    """pi_noise of the cumulative mechanism."""
    return pi_noise(session, TCL, params, gamma, branch_prob=branch_prob)


def pi_perturb(
    session: Session,
    mech: Mechanism,
    x: SharedValue,
    pair: SharedNoisePair,
    params: MechanismParams,
) -> SharedValue:
    """Online perturbation of the shared input x (in grid steps).

    Cost: exactly 1 comparison + 2 multiplications, whatever the
    parameters.  The upper tail map is z = L - E + 2^-p (y + high_offset):
    TDL's upper tail starts at x+L+2^-p, TCL's at x+L inclusive.
    """
    plan = noise_plan(mech, params, 0)
    Es, Ls = plan.Es, plan.Ls
    y = pair.payload
    # b = 1 iff the uniform index falls in the upper tail: y >= 2^p(E+x)
    b = session.pi_ge(session.sub(y, session.add_public(x, Es)))
    low = session.add_public(y, -Ls - Es)
    high = session.add_public(y, Ls - Es + mech.high_offset)
    z0 = session.mux(b, low, high)
    z1 = session.add(x, y)
    return session.mux(pair.branch, z0, z1)


def pi_d_perturb(
    session: Session, x: SharedValue, pair: SharedNoisePair, params: MechanismParams
) -> SharedValue:
    """pi_perturb of the discrete mechanism."""
    return pi_perturb(session, TDL, x, pair, params)


def pi_c_perturb(
    session: Session, x: SharedValue, pair: SharedNoisePair, params: MechanismParams
) -> SharedValue:
    """pi_perturb of the cumulative mechanism."""
    return pi_perturb(session, TCL, x, pair, params)


def run_once(
    session: Session, mech: Mechanism, x: float, params: MechanismParams, gamma: int = 8
) -> tuple[float, dict]:
    """One share -> noise -> perturb -> open round trip (run_sessions at
    n=1); returns the decoded value and the session's ledger."""
    z = run_sessions(session, mech, params, noise_plan(mech, params, gamma).input_steps(x), 1, gamma)
    return float(z[0]), session.ledger.as_dict()


def run_tdl(session: Session, x: float, params: MechanismParams) -> tuple[float, dict]:
    """run_once of the discrete mechanism."""
    return run_once(session, TDL, x, params)


def run_tcl(
    session: Session, x: float, params: MechanismParams, gamma: int = 8
) -> tuple[float, dict]:
    """run_once of the cumulative mechanism."""
    return run_once(session, TCL, x, params, gamma)


def run_batch(
    mechanism: str,
    params: MechanismParams,
    x: float,
    n: int,
    seed0: int,
    seed1: int,
    gamma: int = 8,
) -> np.ndarray:
    """n independent protocol executions on one pair of party tapes.

    Each execution draws fresh noise and perturbs the same shared input;
    the outputs are i.i.d. by construction of the tapes.  The input is
    checked before any work: an unknown mechanism, n < 0, or an x off the
    2^-p grid or outside [-E, E] raises ValueError (GridError for x).
    Calls of BATCH_MIN_SESSIONS or more executions run on a BatchSession
    when the field allows it; the outputs are the same either way.
    """
    mech = lookup_mechanism(mechanism)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x_steps = noise_plan(mech, params, gamma).input_steps(x)
    field = mechanism_field(params, mechanism, gamma)
    batched = n >= BATCH_MIN_SESSIONS and field.q < BATCH_MAX_Q
    session = (BatchSession if batched else Session)(field, seed0, seed1)
    return run_sessions(session, mech, params, x_steps, n, gamma)


def run_sessions(
    session: Session | BatchSession,
    mech: Mechanism,
    params: MechanismParams,
    x_steps: int,
    n: int,
    gamma: int = 8,
) -> np.ndarray:
    """Share x (in grid steps) once, then n noise -> perturb -> open runs.

    Returns the decoded outputs.  Inputs are taken as run_batch checks them.
    """
    plan = noise_plan(mech, params, gamma)
    _require_bitwise(plan.inner)
    xs = session.share(x_steps % session.q)

    def once(s):
        return s.open(pi_perturb(s, mech, xs, pi_noise(s, mech, params, gamma), params))

    z = session.run(once, n, plan.words_per_draw)
    return np.asarray(z, dtype=np.int64) * params.step
