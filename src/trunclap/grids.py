"""Fixed-point grids and the ring that carries them.

Values live on the dyadic lattice 2^-p * Z.  A bounded grid is either the
closed interval [-B, B] intersected with the lattice, or its half-open
variant that drops the top point B.  A grid value v enters the ring Z_q,
q a power of two (`FieldConfig`), one way: as its step count 2^p * v
(`MechanismParams.input_steps`), then a session's `share`; it leaves by
`open`, the balanced lift in [-q/2, q/2), times 2^-p.  A v whose 2^p * v
is not a finite double is refused, as past p = 1023 every nonzero v is.
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


def quantize(x: float, p: int, e: int | None = None) -> float:
    """Round x down to the grid 2^-p * Z, i.e. 2^-p * floor(x * 2^p).

    Rounding is toward -infinity (plain floor), not half-even.  If the
    integer-part bound e is given, inputs with |x| >= 2^(e-1) are rejected.
    An x whose x * 2^p is not a finite double is rejected.
    """
    if p < 0:
        raise GridError("precision exponent p must be >= 0")
    scaled = _scaled(x, p)
    if e is not None and abs(x) >= 2.0 ** (e - 1):
        raise GridError(f"|{x}| exceeds the representable bound 2^{e - 1}")
    return math.floor(scaled) / (1 << p)


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

    def contains(self, y: float) -> bool:
        try:
            k = steps_of(y, self.p)
        except GridError:
            return False
        top = self.bound_steps
        return -top <= k < top or (not self.half_open and k == top)

    def index_of(self, y: float) -> int:
        """Index of grid point y. Raises for off-grid or out-of-range values."""
        k = steps_of(y, self.p)
        i = k + self.bound_steps
        if not 0 <= i < self.count:
            raise GridError(f"{y} lies outside the grid of {self}")
        return i

    def value_of(self, i: int) -> float:
        if not 0 <= i < self.count:
            raise GridError(f"index {i} out of range for {self.count} points")
        return (i - self.bound_steps) * self.step

    def as_dict(self) -> dict:
        return {"p": self.p, "B": self.B, "half_open": self.half_open}


@dataclass(frozen=True)
class FieldConfig:
    """The ring of grid values' step counts (module docstring): integer
    bound e, precision p, plus output headroom.

    The shares live in Z_q with q = 2^(p+e+headroom+1), the smallest power
    of two exceeding 2^(p+e+headroom), so `lift` returns the step count of
    every value in the output range |x| < 2^(e+headroom-1), inputs
    (|x| < 2^(e-1)) included.  `headroom` is the extra integer bits the
    perturbed output may occupy beyond the input bound; it defaults to 0.
    """

    e: int
    p: int
    headroom: int = 0

    def __post_init__(self):
        if self.e < 1 or self.p < 0 or self.headroom < 0:
            raise GridError("need e >= 1, p >= 0, headroom >= 0")

    @property
    def q(self) -> int:
        return 1 << (self.p + self.e + self.headroom + 1)

    @property
    def half(self) -> int:
        return self.q >> 1

    def lift(self, v: int) -> int:
        """Balanced representative of v mod q, in [-q/2, q/2)."""
        return ((v + self.half) & (self.q - 1)) - self.half


def field_for_mechanism(E: float, L: float, p: int) -> FieldConfig:
    """Default field for a mechanism with input bound E and noise bound L.

    e is the smallest integer-part bound admitting inputs up to E, and the
    headroom is the smallest making the perturbed range [-E-L, E+L] lift
    back without wraparound; q follows from them.
    """
    if E <= 0 or L <= 0:
        raise GridError("E and L must be positive")
    e = 1
    while 2.0 ** (e - 1) <= E:
        e += 1
    headroom = 0
    while 2.0 ** (e + headroom - 1) <= E + L:
        headroom += 1
    return FieldConfig(e=e, p=p, headroom=headroom)
