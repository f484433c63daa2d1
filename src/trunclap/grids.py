"""Fixed-point grids and the ring that carries them.

Values live on the dyadic lattice 2^-p * Z.  A bounded grid is either the
closed interval [-B, B] intersected with the lattice, or its half-open
variant that drops the top point B.  A grid value v enters the ring Z_q,
q = 2^bits (`FieldConfig`), one way: as its step count 2^p * v
(`MechanismParams.input_steps`), then a session's `share`; it leaves by
`open`, the balanced lift in [-q/2, q/2), times 2^-p.  A v whose 2^p * v
is not a finite double is refused, as past p = 1023 every v >= 1 is; a
grid past p = 1074, whose step 2^-p is no double, is refused (`GridSpec`).
One rule sizes every ring (`ring_covering`): q/4 covers every step a sign test reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """A value is off-grid, out of range, or a grid parameter is invalid."""


def _scaled(x: float, p: int) -> float:
    """x * 2^p, exact; GridError, naming p, unless it is a finite double."""
    try:
        scaled = math.ldexp(x, p)
    except OverflowError:
        scaled = math.inf
    if not math.isfinite(scaled):
        raise GridError(f"{x!r} * 2^{p} is not a finite value at p = {p}")
    return scaled


def is_aligned(x: float, p: int) -> bool:
    """True if x is an exact multiple of 2^-p (GridError as `_scaled`)."""
    return _scaled(x, p).is_integer()


def steps_of(x: float, p: int) -> int:
    """x expressed as an integer count of 2^-p steps. Raises if off-grid."""
    scaled = _scaled(x, p)
    if not scaled.is_integer():
        raise GridError(f"{x!r} is not a multiple of 2^-{p}")
    return int(scaled)


def quantize(x: float, p: int) -> float:
    """Round x down to the grid 2^-p * Z, i.e. 2^-p * floor(x * 2^p).

    Rounding is toward -infinity (plain floor), not half-even.  An x whose
    x * 2^p is not a finite double is rejected (GridError, as `_scaled`).
    """
    if p < 0:
        raise GridError("precision exponent p must be >= 0")
    return math.floor(_scaled(x, p)) / (1 << p)


@dataclass(frozen=True)
class GridSpec:
    """A bounded dyadic grid: [-B, B] (closed) or [-B, B) (half_open).

    B must be a positive multiple of the step 2^-p.  Points are indexed
    0..count-1 from -B upward; the closed grid has 2*B*2^p + 1 points and
    the half-open one drops the top point.
    """

    p: int
    B: float
    half_open: bool = False

    def __post_init__(self):
        if self.p < 0:
            raise GridError("precision exponent p must be >= 0")
        if self.B <= 0:
            raise GridError("bound B must be positive")
        if not is_aligned(self.B, self.p):
            raise GridError(f"bound {self.B} is not a multiple of 2^-{self.p}")
        if self.p > 1074:
            raise GridError(f"precision exponent p = {self.p} is past 1074: the step "
                            f"2^-{self.p} is below the smallest double")

    @property
    def step(self) -> float:
        return 2.0 ** -self.p

    @property
    def bound_steps(self) -> int:
        return steps_of(self.B, self.p)

    @property
    def count(self) -> int:
        n = 2 * self.bound_steps
        return n if self.half_open else n + 1

    def values(self) -> np.ndarray:
        """All grid points in index order."""
        return (np.arange(self.count) - self.bound_steps) * self.step

    def as_dict(self) -> dict:
        return {"p": self.p, "B": self.B, "half_open": self.half_open}


@dataclass(frozen=True)
class FieldConfig:
    """The ring Z_q, q = 2^bits (an integer bits >= 2), of grid values'
    step counts (module docstring): `lift` recovers each below q/2 in size."""

    bits: int

    def __post_init__(self):
        if type(self.bits) is not int or self.bits < 2:
            raise GridError(f"a ring needs an integer bits >= 2, got {self.bits!r}")

    @property
    def q(self) -> int:
        return 1 << self.bits

    @property
    def half(self) -> int:
        return self.q >> 1

    def lift(self, v: int) -> int:
        """Balanced representative of v mod q, in [-q/2, q/2)."""
        return ((v + self.half) & (self.q - 1)) - self.half


def ring_covering(n: int) -> FieldConfig:
    """The smallest ring whose q/4, the bound of a sound sign test
    (`Session.safe_magnitude`), holds n >= 1 grid steps."""
    return FieldConfig((n - 1).bit_length() + 2)


def field_for_mechanism(E: float, L: float, p: int) -> FieldConfig:
    """The ring whose q/4 exceeds 2^p * (E + L), the steps of the perturbed
    range [-E-L, E+L] on or off the 2^-p grid, and is at least 2^p."""
    if not (0 < E < math.inf and 0 < L < math.inf):
        raise GridError("E and L must be positive and finite")
    if p < 0:
        raise GridError(f"need p >= 0, got {p}")
    return ring_covering((math.floor(E + L) + 1) << p)
