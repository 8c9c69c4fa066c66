"""Reproducible 64-bit generator for verification sampling.

This is the splitmix64 mixer: state advances by the golden-ratio increment
0x9E3779B97F4A7C15 and the output is the mixed state.  It is deterministic
across platforms and Python versions, which keeps sampled verification
reports bit-for-bit reproducible for a given seed.
"""

from __future__ import annotations

from collections.abc import Sequence

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so no modulo bias.

        One 64-bit draw gives at most 2^64 values, so n must be at most 2^64;
        a larger n raises ValueError.
        """
        if n <= 0:
            raise ValueError(f"need a positive bound, got {n}")
        if n > 1 << 64:
            raise ValueError(f"need a bound of at most 2^64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def choice(self, items: Sequence):
        """One of items, each with the same chance."""
        return items[self.below(len(items))]
