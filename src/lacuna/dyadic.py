"""Exact dyadic rationals at the package's public edges.

Scalars are integer pairs ``mantissa * 2**exponent`` kept in canonical form
(mantissa odd or zero; zero fixes exponent 0).  Inside the package a scale is
an integer exponent (:func:`lacuna.lacunary.interval_arrays`,
:func:`lacuna.spectral.band_log2`).  These scalars are the exact values public
functions take and return: ``lac_tau``'s points, the ends and anchors of
``lambda_tau``'s intervals, the windows of ``band_indices`` and ``project_*``,
and the bounds the command line parses, so that interval identities (tilings,
dilations, anchors) on them are exact set statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _canonical(mantissa: int, exponent: int) -> tuple[int, int]:
    if mantissa == 0:
        return 0, 0
    # the lowest set bit, also of a negative mantissa
    shift = (mantissa & -mantissa).bit_length() - 1
    return mantissa >> shift, exponent + shift


@dataclass(frozen=True, order=False)
class DyadicScalar:
    """Exact value ``mantissa * 2**exponent`` with odd-or-zero mantissa."""

    mantissa: int
    exponent: int

    def __post_init__(self) -> None:
        m, e = _canonical(self.mantissa, self.exponent)
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_float(x: float) -> "DyadicScalar":
        # binary floats are dyadic rationals, so this is exact
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError("not a finite value")
        num, den = float(x).as_integer_ratio()
        return DyadicScalar(num, -(den.bit_length() - 1))

    @staticmethod
    def pow2(k: int) -> "DyadicScalar":
        return DyadicScalar(1, k)

    # -- conversions --------------------------------------------------
    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa * (1 << self.exponent))
        return Fraction(self.mantissa, 1 << (-self.exponent))

    def __float__(self) -> float:
        # integer true division rounds correctly, also where the mantissa alone
        # is past the float range or 2^exponent alone is below it
        m, e = self.mantissa, self.exponent
        top = abs(m).bit_length() + e
        if -1076 <= top <= 1024:
            try:
                return float(m << e) if e >= 0 else m / (1 << -e)
            except OverflowError:  # rounded up past the largest float
                pass
        return (0.0 if top < 0 else math.inf) * (-1 if m < 0 else 1)

    def log2(self) -> int:
        """Exponent k with self == 2**k; requires a (positive) power of two."""
        if self.mantissa != 1:
            raise ValueError(f"{self} is not a power of two")
        return self.exponent

    # -- arithmetic ----------------------------------------------------
    def __abs__(self) -> "DyadicScalar":
        return DyadicScalar(abs(self.mantissa), self.exponent)

    def _aligned(self, other: "DyadicScalar") -> tuple[int, int, int]:
        e = min(self.exponent, other.exponent)
        return self.mantissa << (self.exponent - e), other.mantissa << (other.exponent - e), e

    def __sub__(self, other: "DyadicScalar") -> "DyadicScalar":
        a, b, e = self._aligned(other)
        return DyadicScalar(a - b, e)

    def scale_pow2(self, k: int) -> "DyadicScalar":
        """Exact multiplication by 2**k."""
        return DyadicScalar(self.mantissa, self.exponent + k)

    # -- ordering: ``>`` and ``>=`` are these, reflected ----------------
    def __lt__(self, other: "DyadicScalar") -> bool:
        a, b, _ = self._aligned(other)
        return a < b

    def __le__(self, other: "DyadicScalar") -> bool:
        a, b, _ = self._aligned(other)
        return a <= b

    def __repr__(self) -> str:
        return f"Dyadic({self.mantissa}*2^{self.exponent})"


ZERO = DyadicScalar(0, 0)
