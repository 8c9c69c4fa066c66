"""Seeded random generators shared by the property tests."""

from __future__ import annotations

from thompsonf.cantor import RationalPoint, canonicalize
from thompsonf.rng import SplitMix64
from thompsonf.words import Word

LETTERS = "aAbB"


def random_word(rng: SplitMix64, max_len: int) -> Word:
    return "".join([rng.choice(LETTERS) for _ in range(rng.below(max_len + 1))])


def random_point(rng: SplitMix64, max_preperiod: int, max_period: int) -> RationalPoint:
    v = "".join("01"[rng.below(2)] for _ in range(rng.below(max_preperiod + 1)))
    w = "".join("01"[rng.below(2)] for _ in range(1 + rng.below(max_period)))
    return canonicalize(v, w)
