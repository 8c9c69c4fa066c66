"""Formal words in the generators x0, x1 of Thompson's group F.

A word is its text: a string over LETTERS, read left to right in action
order, so the word gh sends a point t to h(g(t)).  The letters are
a = x0, A = x0^-1, b = x1 and B = x1^-1; a letter's inverse is the same
letter in the other case.  The empty word is "", and prints as "1".
"""

from __future__ import annotations

LETTERS = "aAbB"

Word = str


class WordSyntaxError(ValueError):
    """Raised for text that is not a valid a/A/b/B word."""

    def __init__(self, text: str, position: int):
        self.position = position
        super().__init__(f"invalid letter {text[position]!r} at position {position} in {text!r}")


def parse_word(text: str) -> Word:
    """Check a/A/b/B syntax and return the word; "" and "1" both denote the identity word."""
    if text == "1":
        return ""
    bad = len(text) - len(text.lstrip(LETTERS))
    if bad < len(text):
        raise WordSyntaxError(text, bad)
    return text


def format_word(word: Word) -> str:
    return word or "1"


def invert_word(word: Word) -> Word:
    return word[::-1].swapcase()


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
        return "a"
    return "a" * (n - 1) + "b" + "A" * (n - 1)


def yn_word(n: int) -> Word:
    """Word x0^-(n+1) x1 x0^n, the mirror of xn_word under the flip automorphism."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return "A" * (n + 1) + "b" + "a" * n


def relator_words(g0: Word, g1: Word) -> tuple[Word, Word]:
    """The two defining relators of F with x0 -> g0 and x1 -> g1.

    They are [x1^-1 x0, x0 x1 x0^-1] and [x1^-1 x0, x0^2 x1 x0^-2].
    """
    u = invert_word(g1) + g0
    return commutator(u, conjugate(g1, g0)), commutator(u, conjugate(g1, g0 + g0))


def _substitute(text: str, images: dict[str, Word], what: str) -> Word:
    try:
        return "".join([images[ch] for ch in text])
    except KeyError as exc:
        raise ValueError(f"{what} letters must be {' or '.join(images)}, got {exc.args[0]!r}") from None


def address_word(address: str) -> Word:
    """Expand an A/B vertex address: A -> x0^-1 x1, B -> x1."""
    return _substitute(address, {"A": "Ab", "B": "b"}, "address")


def period_loop_word(period: str) -> Word:
    """Word closing the period loop: substitute 0 -> x1, 1 -> x0^-1 x1 into the reversed period."""
    return _substitute(period[::-1], {"0": "b", "1": "Ab"}, "period")


def stabilizer_period_word(period: str) -> Word:
    """Inverse of the period loop word: substitute 0 -> x1^-1, 1 -> x1^-1 x0 into the period."""
    return invert_word(period_loop_word(period))
