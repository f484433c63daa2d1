"""Two-phase secure noise generation and perturbation protocols.

Everything in-protocol is carried in integer grid steps (values scaled by
2^p), so the affine maps of the perturbation phase are exact ring
arithmetic and no truncation is ever needed online; the final 2^-p
rescale happens at decode time.  Shared bits are plain 0/1 ring
elements.

The noise phase never sees the shared input: it draws the branch bit, a
uniform tail index, and the centered noise, then blends the two payloads
with one mux.  It also draws the dealer material its pair's perturbation
will use, the sign test's mask and two Beaver triples in one draw
(`_dealer_material`), so the online phase takes nothing from the dealer
but the input-sharing mask.  The perturbation phase costs exactly one
shared comparison and two multiplications (the tail-map selection and
the branch blend), independent of every distribution parameter.

The inner sampler's public constants (its Bernoulli thresholds) are the
draw plan `CenteredDlapConfig` the plaintext samplers use, so both
parties -- and the plaintext functionalities used as oracles -- read the
same integers, and the magnitude is one body for both (`pi_magnitude`
on `tape._magnitude`).  TDL's inner draw (`pi_dl`) costs kappa + 2
comparisons and 2 multiplications, TCL's (`pi_cl`) kappa + 1 comparisons
and 1 multiplication; a segmented plan (2^p * L not a power of two, P
segments) adds its P - 1 picks, P - 1 comparisons and P - 1
multiplications.  No protocol truncates.

On a long-lived `Session`, `pi_noise` draws its pairs through
`Session.offline`, which may hand them out of a block evaluated ahead on
a `BatchSession` of its own (`_noise_rows`: one uint64 row of 15 per pair,
unpacked by `_unpack_pair`) with the sequential path's opened values,
ledger and party words.

TDL and TCL run the same protocols, parameterized by their `Mechanism`
record (`pi_noise`, `pi_perturb`, `run_once`, `run_sessions`); the
`pi_d_*`/`pi_c_*`/`run_tdl`/`run_tcl` names are those calls with the
record filled in.  Every protocol here is written against the gadget
methods alone, so it runs unchanged on a `Session` (one execution) and on
a `BatchSession` (many executions as share arrays).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..grids import FieldConfig, field_for_mechanism
from ..mechanisms import TCL, TDL, Mechanism, MechanismParams, lookup_mechanism
from ..sampling import (CenteredDlapConfig, NoisePlan, centered_dlap_config, noise_plan,
                        retired_gamma)
from .core import BatchSession, Session, SharedValue


class SharedNoisePair:
    """Shared branch bit [i] and blended payload [y] from a noise protocol,
    the `NoisePlan` they were drawn on, and the dealer material of their one
    perturbation: the sign test's resharing mask and the two muxes' Beaver
    triples, drawn in one call and split (`_dealer_material`).

    A pair is perturbed once.  `spend` hands the material out and marks the
    pair spent; a second perturbation would reuse its noise and triples,
    which leaks in a real deployment, so it raises ValueError.
    """

    __slots__ = ("branch", "payload", "plan", "_material")

    def __init__(self, branch: SharedValue, payload: SharedValue, plan: NoisePlan,
                 material: tuple):
        self.branch = branch
        self.payload = payload
        self.plan = plan
        self._material = material

    def spend(self) -> tuple:
        """(mask, selection triple, blend triple); once per pair."""
        material, self._material = self._material, None
        if material is None:
            raise ValueError("noise pair already perturbed; each pair is used once")
        return material


def mechanism_field(
    params: MechanismParams, mechanism: str = "tdl", gamma: int = 0
) -> FieldConfig:
    """Ring sized for a run of either mechanism on `params`.

    The perturbation's sign test reads y - x - 2^p*E, which reaches
    -2^p*(2E+L) on the inner branch; the headroom is widened until the
    safe range 2^(p+e+headroom-1) covers it.  The ring is cached per set
    (a FieldConfig is frozen, so every session of a set shares one).
    `mechanism` must name a mechanism, and `gamma` changes nothing
    (`retired_gamma`).
    """
    lookup_mechanism(mechanism)
    retired_gamma(gamma)
    return _ring(params)


@lru_cache(maxsize=128)
def _ring(params: MechanismParams) -> FieldConfig:
    base = field_for_mechanism(params.E, params.L, params.p)
    headroom = base.headroom
    while 2.0 ** (base.e + headroom - 1) < 2 * params.E + params.L:
        headroom += 1
    return FieldConfig(e=base.e, p=base.p, headroom=headroom)


def make_session(
    params: MechanismParams,
    mechanism: str = "tdl",
    gamma: int = 0,
    seed0: int = 0,
    seed1: int = 1,
    **kw,
) -> Session:
    """A Session on `mechanism_field(params, mechanism, gamma)`."""
    return Session(mechanism_field(params, mechanism, gamma), seed0, seed1, **kw)


def pi_dl(session: Session, plan: CenteredDlapConfig) -> SharedValue:
    """Shared centered discrete Laplace draw over [-2^p L, 2^p L] steps.

    The plaintext draw's lines, on the thresholds of `plan`: a
    Bernoulli(c0) zero flag, the magnitude m in [0, 2^p L) (`pi_magnitude`:
    kappa Bernoulli bits with probabilities rho^(2^i)/(1+rho^(2^i)) and,
    for a segmented plan, its segment picks), a fair sign s = 2d-1, then
    z = s*(m + 1) and the final blend (1-b)*z.  Two protocol
    multiplications besides the picks'.
    """
    b = session.pi_bersample_thresholded(plan.zero_threshold)
    u = session.add_public(session.pi_magnitude(plan), 1)
    d = session.pi_bersample_thresholded(plan.sign_threshold)
    s = session.affine(d, 2, -1)
    z = session.mul(s, u)
    one_minus_b = session.affine(b, -1, 1)
    return session.mul(one_minus_b, z)


def pi_dl_for(session: Session, params: MechanismParams) -> SharedValue:
    """pi_dl on the draw plan of the mechanism's inner sampler at 2^-p."""
    return pi_dl(session, centered_dlap_config(params.L, params.sigma, params.p))


def pi_cl(session: Session, params: MechanismParams, gamma: int = 0) -> SharedValue:
    """`_pi_cl` on TCL's inner plan of `params`; `gamma` changes nothing
    (`retired_gamma`)."""
    retired_gamma(gamma)
    return _pi_cl(session, noise_plan(TCL, params).inner)


def _pi_cl(session: Session, plan: CenteredDlapConfig) -> SharedValue:
    """Shared centered cumulative Laplace draw in 2^-p steps, exactly
    `centered_clap_pmf`, on the `centered_clap_config` plan: the magnitude
    u (`pi_magnitude`), a fair sign d, then v = d*(2u + 1) - u - 1 (u if d,
    else -u - 1).  kappa + 1 comparisons and one multiplication besides
    the picks'; nothing is rejected, opened or truncated."""
    u = session.pi_magnitude(plan)
    d = session.pi_bersample_thresholded(plan.sign_threshold)
    return session.sub(session.mul(d, session.affine(u, 2, 1)), session.add_public(u, 1))


def pi_noise(session: Session, mech: Mechanism, params: MechanismParams) -> SharedNoisePair:
    """Offline noise protocol (never reads [x]).

    Draws [i] with the mechanism's inner-branch probability (for TDL
    1 - 2*2^p*E*e^(-L/sigma)/lambda), [a] uniform over the tail indices,
    [b] from the centered inner law (pi_dl; pi_cl for TCL), and blends
    with one mux, then the pair's perturbation material (`_dealer_material`).
    A long-lived Session may hand the pair out of a block evaluated ahead
    (`Session.offline`; see the module docstring), with the same opened
    values, ledger and party words.
    """
    plan = noise_plan(mech, params)
    return session.offline(plan, plan.words_per_draw, _noise_rows, _noise_pair, _unpack_pair)


def _noise_pair(session: Session, plan: NoisePlan) -> SharedNoisePair:
    """One pair, drawn now."""
    i = session.pi_bersample_thresholded(plan.branch_threshold)
    a = session.pi_uni(plan.outer_count)
    b = (_pi_cl if plan.mech.cumulative else pi_dl)(session, plan.inner)
    y = session.mux(i, a, b)
    return SharedNoisePair(i, y, plan, _dealer_material(session, y))


def _dealer_material(session: Session, payload: SharedValue) -> tuple:
    """One perturbation's dealer material, as `spend` hands it out: of 11
    residues r in one draw, the sign test's mask r[10] and the muxes'
    triples r[5:10] and r[:5] (on a Session, `mask()`, `take()`, `take()`)."""
    r = session._residues(11, payload)
    return r[10], r[5:10], r[:5]


def _noise_rows(batch: BatchSession, plan: NoisePlan) -> np.ndarray:
    """A block of pairs, one uint64 row each: the branch and payload shares,
    the sign test's mask and the two triples' five residues each, drawn
    on the plan's row form (`BatchSession.offline`)."""
    pair = pi_noise(batch, plan.mech, plan.params)
    mask, select, blend = pair.spend()
    return np.column_stack((*pair.branch, *pair.payload, mask, *select, *blend))


def _unpack_pair(row: list[int], plan: NoisePlan) -> SharedNoisePair:
    """The pair of one row of `_noise_rows` on `plan`."""
    return SharedNoisePair((row[0], row[1]), (row[2], row[3]), plan,
                           (row[4], row[5:10], row[10:]))


def pi_d_noise(session: Session, params: MechanismParams) -> SharedNoisePair:
    """pi_noise of the discrete mechanism."""
    return pi_noise(session, TDL, params)


def pi_c_noise(session: Session, params: MechanismParams, gamma: int = 0) -> SharedNoisePair:
    """pi_noise of the cumulative mechanism; `gamma` changes nothing
    (`retired_gamma`)."""
    retired_gamma(gamma)
    return pi_noise(session, TCL, params)


def pi_perturb(
    session: Session,
    mech: Mechanism,
    x: SharedValue,
    pair: SharedNoisePair,
    params: MechanismParams,
) -> SharedValue:
    """Online perturbation of the shared input x (in grid steps).

    Cost: exactly 1 comparison + 2 multiplications, whatever the
    parameters, on the dealer material the pair carries; it draws none.
    The pair is spent (see SharedNoisePair).  The upper tail map is
    z = L - E + 2^-p (y + high_offset): TDL's upper tail starts at
    x+L+2^-p, TCL's at x+L inclusive.  A pair drawn for another mechanism
    or parameter set raises ValueError, before anything is spent.
    """
    plan = pair.plan
    if plan.mech is not mech or (plan.params is not params and plan.params != params):
        raise ValueError(f"noise pair drawn for {plan.mech.name} at {plan.params}, "
                         f"perturbed as {mech.name} at {params}")
    Es, Ls = plan.Es, plan.Ls
    mask, select, blend = pair.spend()
    y = pair.payload
    # b = 1 iff the uniform index falls in the upper tail: y >= 2^p(E+x).
    # x, shared outside a block, meets only rows there (`_CommonOps`)
    b = session.pi_ge(session.sub(session.add_public(y, -Es), x), mask)
    low = session.add_public(y, -Ls - Es)
    high = session.add_public(y, Ls - Es + plan.mech.high_offset)
    z0 = session.mux(b, low, high, select)
    z1 = session.add(x, y)
    return session.mux(pair.branch, z0, z1, blend)


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
    session: Session, mech: Mechanism, x: float, params: MechanismParams
) -> tuple[float, dict]:
    """One share -> noise -> perturb -> open round trip (run_sessions at
    n=1); returns the decoded value and the session's ledger."""
    z = run_sessions(session, mech, params, params.input_steps(x), 1)
    return float(z[0]), session.ledger.as_dict()


def run_tdl(session: Session, x: float, params: MechanismParams) -> tuple[float, dict]:
    """run_once of the discrete mechanism."""
    return run_once(session, TDL, x, params)


def run_tcl(session: Session, x: float, params: MechanismParams) -> tuple[float, dict]:
    """run_once of the cumulative mechanism."""
    return run_once(session, TCL, x, params)


def run_batch(
    mechanism: str,
    params: MechanismParams,
    x: float,
    n: int,
    seed0: int,
    seed1: int,
    gamma: int = 0,
) -> np.ndarray:
    """n independent protocol executions on one pair of party tapes.

    Each execution draws fresh noise and perturbs the same shared input;
    the outputs are i.i.d. by construction of the tapes.  The input is
    checked before any work: an unknown mechanism, n < 0, or an x off the
    2^-p grid or outside [-E, E] raises ValueError (GridError for x).
    The executions run on one Session, in blocks where it batches
    (`Session.run`); the outputs are the same either way.  `gamma` changes
    nothing (`retired_gamma`).
    """
    mech = lookup_mechanism(mechanism)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x_steps = params.input_steps(x)
    session = Session(mechanism_field(params, mechanism, gamma), seed0, seed1)
    return run_sessions(session, mech, params, x_steps, n)


def run_sessions(
    session: Session,
    mech: Mechanism,
    params: MechanismParams,
    x_steps: int,
    n: int,
) -> np.ndarray:
    """Share x (in grid steps) once, then n noise -> perturb -> open runs.

    Returns the decoded outputs.  Inputs are taken as run_batch checks them.
    """
    plan = noise_plan(mech, params)
    xs = session.share(x_steps)

    def once(s):
        return s.open(pi_perturb(s, mech, xs, pi_noise(s, mech, params), params))

    return session.run(once, n, plan.words_per_draw) * params.step
