"""Simulated semi-honest two-party computation of the noise protocols."""

from .core import (
    BatchSession,
    ContractViolation,
    CostLedger,
    Session,
    Share,
    SharedValue,
    TripleStore,
)
from .protocols import (
    SharedNoisePair,
    make_session,
    mechanism_field,
    pi_c_noise,
    pi_c_perturb,
    pi_cl,
    pi_d_noise,
    pi_d_perturb,
    pi_dl,
    pi_dl_for,
    run_batch,
    run_tcl,
    run_tdl,
)

__all__ = [
    "BatchSession",
    "ContractViolation",
    "CostLedger",
    "Session",
    "Share",
    "SharedNoisePair",
    "SharedValue",
    "TripleStore",
    "make_session",
    "mechanism_field",
    "pi_c_noise",
    "pi_c_perturb",
    "pi_cl",
    "pi_d_noise",
    "pi_d_perturb",
    "pi_dl",
    "pi_dl_for",
    "run_batch",
    "run_tcl",
    "run_tdl",
]
