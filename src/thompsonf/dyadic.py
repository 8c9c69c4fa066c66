"""Exact dyadic rational numbers p / 2**k.

Breakpoint coordinates of the piecewise linear maps in this package are
always dyadic, and Dyadic is their type at the API boundary: PLMap's public
constructor takes Dyadic pairs and `PLMap.breakpoints` returns them.  Inside,
a map is a tree-pair diagram, the depths of the standard dyadic intervals
that it sends one onto another, so no floating point is involved anywhere:
the constructor validates the breakpoints as integer numerators over one
power of two and turns them into depths, and a breakpoint is read back as a
running sum of powers of two over the deepest leaf.  Dyadic itself only
normalizes, converts and prints, and it prints through _format;
`PLMap.breakpoint_texts` writes a map's running sums in the same form, so no
Dyadic is built to print a breakpoint.
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    """A rational with a power-of-two denominator, normalized on construction.

    The value is numerator / 2**exponent with exponent >= 0.  Normalization
    makes the exponent minimal, so equal values have equal field pairs and
    instances can be compared and hashed structurally.  A Dyadic is frozen:
    its two fields are written once, into the instance dict, and assigning
    or deleting an attribute raises AttributeError.
    """

    def __init__(self, numerator: int, exponent: int = 0) -> None:
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        fields = self.__dict__  # past __setattr__, which refuses every assignment
        fields["numerator"], fields["exponent"] = _lowest(numerator, exponent)

    @classmethod
    def _reduced(cls, n: int, e: int) -> "Dyadic":
        """n / 2**e normalized like the constructor, for e >= 0 known to hold.

        The fields go straight into the instance dict, as in __init__, and
        the sign of the exponent is not checked.
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

    def __repr__(self) -> str:
        return f"Dyadic(numerator={self.numerator!r}, exponent={self.exponent!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.numerator == other.numerator and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.numerator, self.exponent))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _lowest(n: int, e: int) -> tuple[int, int]:
    """The numerator and the least exponent of n / 2**e (e >= 0): its trailing zero bits shifted out."""
    k = min((n & -n).bit_length() - 1, e) if n else e
    return n >> k, e - k


def _format(n: int, e: int) -> str:
    """n / 2**e (e >= 0) in lowest terms, as str prints a Fraction: "p/q", or the integer alone."""
    n, e = _lowest(n, e)
    return f"{n}/{1 << e}" if e else str(n)

