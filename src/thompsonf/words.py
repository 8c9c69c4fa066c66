"""Formal words in the generators x0, x1 of Thompson's group F.

A word is a tuple of letters read left to right in action order: the word
(g, h) sends a point t to h(g(t)).  Letters print as one-character symbols
a = x0, A = x0^-1, b = x1, B = x1^-1, and the empty word prints as "1".
"""

from __future__ import annotations

from enum import Enum


class WordSyntaxError(ValueError):
    """Raised for text that is not a valid a/A/b/B word."""

    def __init__(self, text: str, position: int):
        self.position = position
        super().__init__(f"invalid letter {text[position]!r} at position {position} in {text!r}")


class Letter(Enum):
    X0 = "a"
    X0_INV = "A"
    X1 = "b"
    X1_INV = "B"

    # Members are singletons compared by identity, so the identity hash is
    # sound, and it runs in C where Enum's own hashes the member's name.
    __hash__ = object.__hash__

    @property
    def inverse(self) -> "Letter":
        return _INVERSE[self]

    def __repr__(self) -> str:
        return f"Letter.{self.name}"


_INVERSE = {
    Letter.X0: Letter.X0_INV,
    Letter.X0_INV: Letter.X0,
    Letter.X1: Letter.X1_INV,
    Letter.X1_INV: Letter.X1,
}

_BY_SYMBOL = {letter.value: letter for letter in Letter}

Word = tuple[Letter, ...]

EMPTY: Word = ()


def parse_word(text: str) -> Word:
    """Parse a/A/b/B syntax; "" and "1" both denote the identity word."""
    if text in ("", "1"):
        return EMPTY
    try:
        return tuple([_BY_SYMBOL[ch] for ch in text])
    except KeyError:
        raise WordSyntaxError(text, next(pos for pos, ch in enumerate(text) if ch not in _BY_SYMBOL)) from None


def format_word(word: Word) -> str:
    return "".join(letter.value for letter in word) or "1"


def invert_word(word: Word) -> Word:
    return tuple(letter.inverse for letter in reversed(word))


def conjugate(word: Word, by: Word) -> Word:
    """Word for the conjugate by^-1-action: by ++ word ++ by^-1.

    Under the right-action product this represents by * word * by^-1, so if
    word fixes the image of a point under by, the conjugate fixes the point.
    """
    return by + word + invert_word(by)


def commutator(u: Word, v: Word) -> Word:
    return u + v + invert_word(u) + invert_word(v)


def xn_word(n: int) -> Word:
    """Word for the n-th standard generator: x0 for n = 0, else x0^(n-1) x1 x0^-(n-1)."""
    if n < 0:
        raise ValueError(f"generator index must be >= 0, got {n}")
    if n == 0:
        return (Letter.X0,)
    return (Letter.X0,) * (n - 1) + (Letter.X1,) + (Letter.X0_INV,) * (n - 1)


def yn_word(n: int) -> Word:
    """Word x0^-(n+1) x1 x0^n, the mirror of xn_word under the flip automorphism."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return (Letter.X0_INV,) * (n + 1) + (Letter.X1,) + (Letter.X0,) * n


def relator_words(g0: Word, g1: Word) -> tuple[Word, Word]:
    """The two defining relators of F with x0 -> g0 and x1 -> g1.

    They are [x1^-1 x0, x0 x1 x0^-1] and [x1^-1 x0, x0^2 x1 x0^-2].
    """
    u = invert_word(g1) + g0
    return commutator(u, conjugate(g1, g0)), commutator(u, conjugate(g1, g0 + g0))


_A_WORD: Word = (Letter.X0_INV, Letter.X1)
_B_WORD: Word = (Letter.X1,)


def _substitute(text: str, images: dict[str, Word], what: str) -> Word:
    letters: list[Letter] = []
    for ch in text:
        image = images.get(ch)
        if image is None:
            raise ValueError(f"{what} letters must be {' or '.join(images)}, got {ch!r}")
        letters.extend(image)
    return tuple(letters)


def address_word(address: str) -> Word:
    """Expand an A/B vertex address: A -> x0^-1 x1, B -> x1."""
    return _substitute(address, {"A": _A_WORD, "B": _B_WORD}, "address")


def period_loop_word(period: str) -> Word:
    """Word closing the period loop: substitute 0 -> x1, 1 -> x0^-1 x1 into the reversed period."""
    return _substitute(period[::-1], {"0": _B_WORD, "1": _A_WORD}, "period")


def stabilizer_period_word(period: str) -> Word:
    """Inverse of the period loop word: substitute 0 -> x1^-1, 1 -> x1^-1 x0 into the period."""
    return invert_word(period_loop_word(period))
