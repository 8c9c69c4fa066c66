"""Exact dyadic rational numbers p / 2**k.

Breakpoint coordinates of the piecewise linear maps in this package are
always dyadic, and Dyadic is their type at the API boundary: PLMap's public
constructor takes Dyadic pairs and `PLMap.breakpoints` returns them.  Inside,
a map keeps one exponent and integer numerators over that power of two, so
no floating point is involved anywhere: the constructor validates those
numerators, and the package's closed forms are built from integers without
a Dyadic.  Dyadic itself only normalizes, converts and prints, and it prints
through _format; `PLMap.breakpoint_texts` writes a map's numerators the same
way, so no Dyadic is built to print a breakpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Dyadic:
    """A rational with a power-of-two denominator, normalized on construction.

    The value is numerator / 2**exponent with exponent >= 0.  Normalization
    makes the exponent minimal, so equal values have equal field pairs and
    instances can be compared and hashed structurally.
    """

    numerator: int
    exponent: int = 0

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {self.exponent}")
        fields = self.__dict__  # where the frozen dataclass keeps them, as in _reduced
        fields["numerator"], fields["exponent"] = _lowest(self.numerator, self.exponent)

    @classmethod
    def _reduced(cls, n: int, e: int) -> "Dyadic":
        """n / 2**e normalized like the constructor, for e >= 0 known to hold.

        The fields go straight into the instance dict, which is where the
        frozen dataclass keeps them; __post_init__ is not run.
        """
        d = object.__new__(cls)
        d.__dict__["numerator"], d.__dict__["exponent"] = _lowest(n, e)
        return d

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "Dyadic":
        fr = Fraction(value)
        den = fr.denominator
        if den & (den - 1) != 0:
            raise ValueError(f"{fr} is not dyadic (denominator {den})")
        return cls(fr.numerator, den.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __str__(self) -> str:
        return _format(self.numerator, self.exponent)


def _lowest(n: int, e: int) -> tuple[int, int]:
    """The numerator and the least exponent of n / 2**e (e >= 0): its trailing zero bits shifted out."""
    k = min((n & -n).bit_length() - 1, e) if n else e
    return n >> k, e - k


def _format(n: int, e: int) -> str:
    """n / 2**e (e >= 0) in lowest terms, as str prints a Fraction: "p/q", or the integer alone."""
    n, e = _lowest(n, e)
    return f"{n}/{1 << e}" if e else str(n)

