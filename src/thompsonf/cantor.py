"""Rational points of the Cantor set {0,1}^omega and the action of F on them.

A rational point is an eventually periodic binary sequence v w w w ..., kept
in canonical form: the period w is primitive and letters of v are absorbed
into the period until the last letter of v differs from the last letter of w.
Canonical forms are unique, so structural equality decides point equality.

The generators of F act by rewriting a short prefix of the sequence.  The
rules of each letter, in _RULES, form a complete prefix code of words of at
most three letters, so the first three letters of a sequence pick its rule.
At import time they become the one rule table of the package, _HEADS: from
those three letters to the length and the replacement of the matching rule
of each of the four letters, in the order of LETTERS, with the rules that
rewrite their left side to itself marked.  Two kernels read that table.
_step applies the letter in a slot to v (w[r:] + w[:r])^inf, given as a
canonical preperiod v and a rotation r of a primitive period w: it moves r
by the letters the rule read past v and absorbs the trailing letters of the
replacement by stepping r back, so no period is copied.  act_letter calls it
at r = 0, and rotates the period once.  _fold, behind act_word, folds a
word two letters per lookup.  The front of the sequence is a window, a
small int with letter i at bit i; behind it are the rest of the preperiod,
in chunks of a few dozen letters, and a read offset into the unrotated
period.  Each pair of letters rewrites the window by one lookup of its
first six letters in that pair's table, a shift and an or.  The window is
refilled from the chunks or the period when it runs short and spills to
the chunks when it grows long, so a letter costs O(1) at any preperiod or
period length, and _absorbed makes the pair canonical once.  _fold takes
one shared prefix and several tails: it folds the prefix once, and each
tail from a copy of the state the prefix left, so stabgen's verification
folds a conjugator once for all five generators; act_word passes one tail.
The tables are derived from _HEADS on first use, and again when _HEADS is
replaced.
The breadth-first balls in schreier inline _step on plans that they derive
from _HEADS at import, one per discovering letter and head, which leave out
the letters whose image is known without a step: the way back, the _LOOP
rules and the later of two letters whose rules give the same point on every
sequence with that head.  act_word and a ball build a RationalPoint only for
the points they return.

Periods and preperiods are bounded: parse_point and value_to_point refuse a
point whose period or preperiod would be longer than MAX_PERIOD letters with
PeriodCapacityError, before they build it.  The period of p/q has as many
letters as the order of 2 modulo the odd part m of q.  Trial division of m
by the odd primes below 2^10 gives the order modulo its small prime powers.
The cofactor r left is 1 or a prime when r < 2^20, and its order comes from
the factors of r - 1; only a larger r is searched, by baby-step giant-step
in O(sqrt(e)) steps for the factor e of the order that r adds.  So m is
refused as soon as the orders of its parts pass MAX_PERIOD, and at once
when it has more than MAX_PERIOD bits.  A p/q with more digits than
2^(2 MAX_PERIOD) is refused the same way, before its digits are read.
A point made from a fraction keeps that fraction as its value.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from math import isqrt, lcm, log10

from .words import LETTERS, Word

MAX_PERIOD = 1 << 20


class PeriodCapacityError(RuntimeError):
    """Raised for a point whose period or preperiod is longer than MAX_PERIOD letters."""


class PointSyntaxError(ValueError):
    """Raised for text that parses as neither v(w) form nor a fraction p/q."""

    def __init__(self, text: str, position: int, message: str):
        self.position = position
        super().__init__(f"{message} at position {position} in {text!r}")


def _check_binary(name: str, s: str) -> None:
    if s.strip("01"):
        raise ValueError(f"{name} must be a binary string, got {s!r}")


def primitive_root(w: str) -> str:
    """Shortest u with w = u repeated; w itself when w is primitive.

    w is a proper power u^k exactly when it occurs in w + w at the offset
    |u| < |w|, so the first occurrence after offset 0 is the root's length.
    """
    return w[:(w + w).find(w, 1)]


def _absorbed(preperiod: str, period: str) -> tuple[str, str]:
    """Absorb the trailing preperiod letters that continue the period.

    The k last letters of the preperiod that agree with the k last letters
    of ...www are dropped, and the period is rotated right by k letters.
    Those k letters are the trailing zero bits of the XOR of the preperiod
    with the equally long tail of ...www.
    """
    if not preperiod or preperiod[-1] != period[-1]:
        return preperiod, period
    n = len(preperiod)
    tail = (period * -(-n // len(period)))[-n:]
    diff = int(preperiod, 2) ^ int(tail, 2)
    k = (diff & -diff).bit_length() - 1 if diff else n
    s = k % len(period)
    return preperiod[:n - k], period[len(period) - s:] + period[:len(period) - s]


class RationalPoint:
    """Canonical eventually periodic sequence preperiod (period)^infinity.

    A point is frozen: its two fields are written once, into the instance
    dict, equality and hashing go by the pair, and assigning or deleting an
    attribute raises AttributeError.
    """

    def __init__(self, preperiod: str, period: str) -> None:
        fields = self.__dict__  # past __setattr__, which refuses every assignment
        fields["preperiod"] = preperiod
        fields["period"] = period
        self.__post_init__()

    def __post_init__(self) -> None:
        """Refuse a pair that is not binary, primitive and canonical with ValueError."""
        _check_binary("preperiod", self.preperiod)
        _check_binary("period", self.period)
        if not self.period:
            raise ValueError("period must be nonempty")
        if primitive_root(self.period) != self.period:
            raise ValueError(f"period {self.period!r} is a proper power; use canonicalize()")
        if self.preperiod and self.preperiod[-1] == self.period[-1]:
            raise ValueError(
                f"({self.preperiod!r}, {self.period!r}) is not canonical; use canonicalize()"
            )

    @classmethod
    def _trusted(cls, preperiod: str, period: str) -> RationalPoint:
        """Point from a binary preperiod and a primitive binary period.

        Only absorbs trailing preperiod letters.  The other checks of the
        public constructor are skipped: callers pass a validated primitive
        root, a rotation of the period of an existing point (still
        primitive), or a period that is primitive by arithmetic.
        """
        return cls._canonical(*_absorbed(preperiod, period))

    @classmethod
    def _canonical(cls, preperiod: str, period: str) -> RationalPoint:
        """Point from a pair that is canonical already; nothing is checked.

        The fields go straight into the instance dict, as in __init__,
        and __post_init__ is not run.
        """
        point = object.__new__(cls)
        fields = point.__dict__
        fields["preperiod"] = preperiod
        fields["period"] = period
        return point

    def prefix(self, n: int) -> str:
        """The first n letters of the sequence."""
        if n <= len(self.preperiod):
            return self.preperiod[:n]
        reps = -(-(n - len(self.preperiod)) // len(self.period))
        return (self.preperiod + self.period * reps)[:n]

    def value(self) -> Fraction:
        """The rational number with this binary expansion.

        A point made by value_to_point keeps the fraction it was made from
        in its instance dict, beside the two fields, and returns it;
        any other point builds its value from the bits.
        """
        kept = self.__dict__.get("_value")
        return kept if kept is not None else Fraction(*self._ratio())

    def _ratio(self) -> tuple[int, int]:
        """A numerator and a denominator of value(), not reduced by their gcd.

        The kept fraction's, or head (2^|w| - 1) + w and 2^|v| (2^|w| - 1),
        v and w read as binary ints: the odd part of that denominator is
        2^|w| - 1, and reducing the pair would take a gcd on ints of
        |v| + |w| bits.
        """
        kept = self.__dict__.get("_value")
        if kept is not None:
            return kept.numerator, kept.denominator
        v, w = self.preperiod, self.period
        top = (1 << len(w)) - 1
        head = int(v, 2) if v else 0
        return head * top + int(w, 2), (1 << len(v)) * top

    def is_endpoint(self) -> bool:
        """True for the two globally fixed sequences 0^inf and 1^inf."""
        return self.preperiod == "" and self.period in ("0", "1")

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"

    def __repr__(self) -> str:
        return f"RationalPoint(preperiod={self.preperiod!r}, period={self.period!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.preperiod, self.period))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def canonicalize(preperiod: str, period: str) -> RationalPoint:
    """Canonical form of the sequence preperiod + period^infinity.

    Replaces the period by its primitive root, counts the k trailing letters
    of the preperiod that match the period cyclically, then drops them from
    the preperiod and rotates the period right by k letters, once each.
    """
    _check_binary("preperiod", preperiod)
    _check_binary("period", period)
    if not period:
        raise ValueError("period must be nonempty")
    return RationalPoint._trusted(preperiod, primitive_root(period))


ZERO_POINT = RationalPoint("", "0")
ONE_POINT = RationalPoint("", "1")

# Prefix rewriting rules for the four letters, in the order of LETTERS; the
# rule sets are complete prefix codes, so exactly one rule matches any binary
# sequence.
_RULES: dict[str, tuple[tuple[str, str], ...]] = {
    "a": (("0", "00"), ("10", "01"), ("11", "1")),
    "A": (("00", "0"), ("01", "10"), ("1", "11")),
    "b": (("0", "0"), ("10", "100"), ("110", "101"), ("111", "11")),
    "B": (("0", "0"), ("100", "10"), ("101", "110"), ("11", "111")),
}
_SLOT = {letter: s for s, letter in enumerate(LETTERS)}

# (lhs length, rhs) of the rule of each letter, one slot per letter of
# LETTERS, by the first three letters of the sequence.  Slots 2k and 2k + 1
# hold inverse letters, so the slot that undoes slot s is s ^ 1.  A rule that
# rewrites its left side to itself (x1 and x1^-1 on a leading 0) has the lhs
# length _LOOP instead: the letter fixes every sequence with that head.
_LOOP = -1
_HEADS = {
    head: tuple(
        next((_LOOP if lhs == rhs else len(lhs), rhs) for lhs, rhs in _RULES[letter] if head.startswith(lhs))
        for letter in LETTERS
    )
    for head in (format(bits, "03b") for bits in range(8))
}


def _absorb(rhs: str, q: int, w: str) -> tuple[str, int]:
    """rhs before w rotated left by q, made canonical: each trailing letter of rhs that continues w steps q back."""
    while rhs and rhs[-1] == w[q - 1]:
        rhs, q = rhs[:-1], (q - 1) % len(w)
    return rhs, q


def _step(v: str, r: int, w: str, s: int) -> tuple[str, int]:
    """Canonical preperiod and rotation of the image of v (w[r:] + w[:r])^inf under the letter in slot s.

    A _LOOP rule fixes the pair.  A rule shorter than v keeps its last
    letter, so that image is canonical as it stands.  A rule that reads
    c >= 0 letters past v moves r to r + c behind its replacement, whose
    trailing letters _absorb may then drop.
    """
    nv = len(v)
    n, rhs = _HEADS[v[:3] if nv > 2 else (v + w[r : r + 3] + w[:3] * 3)[:3]][s]
    if n < nv:  # _LOOP is below every preperiod length
        return (v, r) if n == _LOOP else (rhs + v[n:], r)
    return _absorb(rhs, (r + n - nv) % len(w), w)


def act_letter(point: RationalPoint, letter: str) -> RationalPoint:
    """Image of the point under one generator letter; an unrotated period, w[0:] + w[:0], is w, not a copy."""
    w = point.period
    v, q = _step(point.preperiod, 0, w, _SLOT[letter])
    return RationalPoint._canonical(v, w[q:] + w[:q])


_CHUNK = 24  # letters that _fold loads behind its window at once
_KEEP = 16  # letters that _fold keeps in its window when it spills
_FULL = 1 << 30  # a window this large holds 30 letters: _fold spills
_PAD = "1"  # the identity word, paired with the last letter of a word of odd length

_Images = tuple[tuple[int, int], ...]  # per head, as an int with letter i at bit i: the length and letters of its image


def _fold(v: str, w: str, prefix: Word, tails: Sequence[Word]) -> list[tuple[str, str]]:
    """Canonical pairs of the images of the canonical pair (v, w) under prefix + tail, for each tail in turn.

    The front of the sequence is a window: an int below 2^30 with letter i
    at bit i and a 1 bit above the last letter held.  Behind it are the
    rest of the preperiod, as a list of such ints of at most _CHUNK letters
    with the next one last, and the period from a read offset r.
    _fold_window folds the letters through it.  The tables are fetched and
    the start is read once, the prefix is folded once, and each tail from a
    copy of the state it left; an odd last letter of the prefix is carried
    into each tail, to pair with its first.  At the end of a tail the
    window and the list precede the period from r, and _absorbed gives back
    to it every trailing letter that continues it, the loaded period
    letters that no rule touched among them.
    """
    pairs = _fold_tables()
    n = len(w)
    cycle = w * (_CHUNK // n + 2) if n < _CHUNK else w + w[:_CHUNK]  # cycle[r:r + _CHUNK] for every r < n
    backwards = v[::-1]
    front = (len(v) - 1) // _CHUNK * _CHUNK  # where the chunk of v's first letters starts in backwards; -_CHUNK for v = ""
    x, r = int("1" + backwards[front:], 2), 0
    rest = [int("1" + backwards[i:i + _CHUNK], 2) for i in range(0, front, _CHUNK)] if front > 0 else []
    cut = len(prefix) & -2  # the letters of the prefix that pair among themselves
    if cut:  # the single-word callers pass no prefix
        x, r = _fold_window(pairs, cycle, n, prefix[:cut], x, rest, r)
    carry = prefix[cut:]
    images = []
    for tail in tails:
        held = rest.copy()
        y, q = _fold_window(pairs, cycle, n, carry + tail + _PAD, x, held, r)
        preperiod = format(y, "b")[:0:-1] + "".join([format(chunk, "b")[:0:-1] for chunk in reversed(held)])
        images.append(_absorbed(preperiod, w[q:] + w[:q]))
    return images


def _fold_window(pairs: dict[str, dict[str, _Images]], cycle: str, n: int, word: str, x: int, rest: list[int], r: int) -> tuple[int, int]:
    """The window x and read offset r of _fold after the letters of word, two at a time; rest is changed in place.

    Each step folds two letters, and the last letter of an odd word is
    dropped: _fold ends each word with _PAD.  One lookup of the window's
    first six letters in that pair's table, a shift and an or.  Before a
    step, a window of fewer than six letters is refilled from rest, or with
    _CHUNK letters of the period from r, read off cycle, and one that has
    grown to 30 letters spills all but its first _KEEP to rest.  So a
    letter costs O(1) however long the preperiod and the period n are.
    """
    letters = iter(word)
    for first, second in zip(letters, letters):
        while x < 64:
            if rest:
                chunk = rest.pop()
            else:
                chunk = int("1" + cycle[r:r + _CHUNK][::-1], 2)
                r = (r + _CHUNK) % n
            top = x.bit_length() - 1
            x = x ^ 1 << top | chunk << top
        if x >= _FULL:
            rest.append(x >> _KEEP)
            x = x & (1 << _KEEP) - 1 | 1 << _KEEP
        k, image = pairs[first][second][x & 63]
        x = x >> 6 << k | image
    return x, r


_FOLD_TABLES: list = [None, None]  # the _HEADS that _fold's tables were derived from, and the tables


def _fold_tables() -> dict[str, dict[str, _Images]]:
    """_fold's tables, derived from _HEADS on first use and whenever _HEADS is replaced.

    A table maps the first three letters of a window, as an int with
    letter i at bit i, to the length and the letters of their image; that
    of a pair of letters maps the first six.  The table of a letter is read
    off _HEADS, and _PAD's keeps every head.  That of a pair applies its
    first letter's table to the low three letters, then its second
    letter's table to the low three of the result.
    """
    heads = _HEADS
    if _FOLD_TABLES[0] is heads:
        return _FOLD_TABLES[1]
    single: dict[str, _Images] = {_PAD: tuple((3, bits) for bits in range(8))}
    for s, letter in enumerate(LETTERS):
        images = []
        for bits in range(8):
            head = format(bits | 8, "b")[:0:-1]
            k, rhs = heads[head][s]
            image = head if k == _LOOP else rhs + head[k:]
            images.append((len(image), int(image[::-1], 2)))
        single[letter] = tuple(images)
    pairs: dict[str, dict[str, _Images]] = {}
    for first in LETTERS:
        pairs[first] = row = {}
        for second, two in single.items():
            images = []
            for bits in range(64):
                k, image = single[first][bits & 7]
                y = bits >> 3 << k | image
                j, image = two[y & 7]
                images.append((k + j, y >> 3 << j | image))
            row[second] = tuple(images)
    _FOLD_TABLES[:] = heads, pairs
    return pairs


def act_word(point: RationalPoint, word: Word) -> RationalPoint:
    """Fold the letter action left to right over the word."""
    return RationalPoint._canonical(*_fold(point.preperiod, point.period, "", (word,))[0])


def shift(point: RationalPoint) -> RationalPoint:
    """Drop the first letter of the sequence."""
    if point.preperiod:
        return RationalPoint._trusted(point.preperiod[1:], point.period)
    w = point.period
    return RationalPoint._trusted("", w[1:] + w[0])


_TRIAL_BOUND = 1 << 10  # _order_of_two divides out every odd prime below it
_PRIME_ORDERS: dict[int, int] = {}  # p -> the order of 2 mod p, for the odd primes p < _TRIAL_BOUND


@cache
def _primes() -> tuple[int, ...]:
    """The primes below _TRIAL_BOUND, sieved on first use."""
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_TRIAL_BOUND) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _TRIAL_BOUND, p)))
    return tuple(p for p in range(_TRIAL_BOUND) if sieve[p])


def _prime_order(p: int) -> int:
    """The order of 2 modulo an odd prime p < _TRIAL_BOUND^2.

    It divides p - 1, whose prime factors all lie below _TRIAL_BOUND but for
    at most one: it is p - 1 with each of them removed while 2 to the
    quotient is still 1.
    """
    n = t = p - 1
    for f in _primes():
        if f * f > t:
            break
        if t % f == 0:
            while t % f == 0:
                t //= f
            while n % f == 0 and pow(2, n // f, p) == 1:
                n //= f
    if t > 1 and pow(2, n // t, p) == 1:  # t is prime, once in p - 1
        n //= t
    return n


def _order_of_two(m: int) -> int | None:
    """Least n >= 1 with 2^n = 1 (mod m) for odd m; None when n > MAX_PERIOD.

    The order modulo m is the lcm of the orders modulo the prime powers of m.
    Trial division by the odd primes below _TRIAL_BOUND finds the small ones:
    modulo p^k the order is ord_p(2) p^j for the least j that makes 2 to it
    1, and ord_p(2) is kept per p.  The cofactor r left has no factor below
    _TRIAL_BOUND, so it is 1 or a prime when r < _TRIAL_BOUND^2, with its
    order read from the factors of r - 1.  A larger r is searched: with n
    the order so far, the full order is n e for the order e of 2^n modulo r,
    which _order_by_search finds up to MAX_PERIOD // n.  The running lcm
    divides the order, so None comes as soon as it passes MAX_PERIOD.  As m
    divides 2^n - 1 < 2^n, n is at least the bit length of m, so an m of
    more than MAX_PERIOD bits is refused before any step.
    """
    cap = MAX_PERIOD
    if m.bit_length() > cap:
        return None
    n = 1
    for p in _primes():
        if p * p > m:
            break
        if m % p:
            continue
        q = p
        m //= p
        while m % p == 0:
            m //= p
            q *= p
        d = _PRIME_ORDERS.get(p) or _PRIME_ORDERS.setdefault(p, _prime_order(p))
        t = pow(2, d, q)
        while t != 1:
            d *= p
            if d > cap:
                return None
            t = pow(t, p, q)
        n = lcm(n, d)
        if n > cap:
            return None
    if m < _TRIAL_BOUND * _TRIAL_BOUND:
        if m > 1:
            n = lcm(n, _prime_order(m))
        return n if n <= cap else None
    e = _order_by_search(pow(2, n, m), m, cap // n)
    return None if e is None else n * e


def _order_by_search(g: int, m: int, cap: int) -> int | None:
    """Least e >= 1 with g^e = 1 (mod m) for g prime to m; None when e > cap.

    Shanks' baby-step giant-step.  The baby steps put g^j mod m -> j in a
    table for j < s, returning the first j >= 1 with g^j = 1.  Past them,
    the order e exceeds s and is i*s - j for i = ceil(e / s) and some j < s,
    so the first giant step g^(i*s) found in the table gives e = i*s - j
    (the table's entries are distinct, as s < e).  Giant steps cover orders
    up to s^2; s doubles from 32, the table growing with it, until s^2
    reaches cap.  Each round starts at the first i whose orders the earlier
    rounds have not ruled out, so no order is tested twice.  An order e
    costs O(sqrt(e)) steps, a value past the bound O(sqrt(cap)).
    """
    one = 1 % m
    table: dict[int, int] = {}
    j, power, s, covered = 0, one, 32, 0
    while True:
        while j < s:
            table[power] = j
            j += 1
            power = power * g % m
            if power == one:
                return j if j <= cap else None
        steps = min(s, -(-cap // s))
        giant = power  # g^s mod m, where the next round's baby steps go on
        start = covered // s + 1
        leap = pow(giant, start, m)
        for i in range(start, steps + 1):
            k = table.get(leap)
            if k is not None:
                e = i * s - k
                return e if e <= cap else None
            leap = leap * giant % m
        covered = steps * s
        if covered >= cap:
            return None
        s *= 2


def value_to_point(value: Fraction | int) -> RationalPoint:
    """Binary expansion of a rational in [0, 1].

    With the denominator written 2^a * m for odd m, the value is
    (q + r/m) / 2^a with q, r = divmod(numerator, m).  The a binary digits of
    q are the preperiod, and r/m = P / (2^n - 1) for the order n of 2 mod m,
    so the n binary digits of P are the period; it is primitive because r/m
    is in lowest terms.  Terminating expansions come out with the 0^inf tail,
    so dyadic rationals map to their 0-tail representative (the 1-tail twin
    is reachable by point syntax only).  Raises PeriodCapacityError when a
    or n exceeds MAX_PERIOD, before any digit is formatted; _order_of_two
    finds n, or rules it out, by trial division of m, with a baby-step
    giant-step search only on a cofactor of at least 2^20 with no factor
    below 2^10.  The point keeps the fraction as its value(), so it is not
    rebuilt from the bits; the shared ONE_POINT keeps none.
    """
    if isinstance(value, float):
        raise TypeError("refusing float input; pass Fraction for exactness")
    fr = value if isinstance(value, Fraction) else Fraction(value)
    num, den = fr.numerator, fr.denominator
    if num < 0 or num > den:
        raise ValueError(f"value {fr} outside [0, 1]")
    if num == den:
        return ONE_POINT
    a = (den & -den).bit_length() - 1
    if a > MAX_PERIOD:
        raise PeriodCapacityError(
            f"the denominator is divisible by 2^{a}, so the binary preperiod has {a} letters,"
            f" more than {MAX_PERIOD} (capacity exceeded)"
        )
    m = den >> a
    n = _order_of_two(m)
    if n is None:
        raise PeriodCapacityError(
            f"the binary period of a value whose denominator has an odd part of"
            f" {m.bit_length()} bits is longer than {MAX_PERIOD} letters (capacity exceeded)"
        )
    q, r = divmod(num, m)
    preperiod = format(q, f"0{a}b") if a else ""
    point = RationalPoint._trusted(preperiod, format(r * ((1 << n) - 1) // m, f"0{n}b"))
    point.__dict__["_value"] = fr
    return point


def parse_point(text: str) -> RationalPoint:
    """Parse v(w) point syntax or an exact fraction p/q.

    Every point within MAX_PERIOD has a lowest-terms value p / (2^a (2^n - 1))
    with a, n <= MAX_PERIOD, so a p or q with more digits than 2^(2 MAX_PERIOD)
    is refused before it is read.  _read_digits reads the others.
    """
    if "/" in text:
        slash = text.index("/")
        num_part, den_part = text[:slash], text[slash + 1:]
        if not _is_ascii_digits(num_part):
            raise PointSyntaxError(text, 0, "expected an integer numerator")
        if not _is_ascii_digits(den_part):
            raise PointSyntaxError(text, slash + 1, "expected an integer denominator")
        cap = int(2 * MAX_PERIOD * log10(2)) + 1  # the digits of 2^(2 MAX_PERIOD)
        for name, part in (("numerator", num_part), ("denominator", den_part)):
            if len(part) > cap:
                raise PeriodCapacityError(f"{name} of {len(part)} digits is longer than {cap} (capacity exceeded)")
        num, den = _read_digits(num_part), _read_digits(den_part)
        if den == 0:
            raise PointSyntaxError(text, slash + 1, "denominator must be nonzero")
        if num > den:
            raise PointSyntaxError(text, 0, f"fraction {num}/{den} outside [0, 1]")
        return value_to_point(Fraction(num, den))
    open_at = text.find("(")
    if open_at < 0:
        raise PointSyntaxError(text, 0, "expected v(w) form or a fraction p/q")
    preperiod = text[:open_at]
    bad = _first_non_binary(preperiod)
    if bad is not None:
        raise PointSyntaxError(text, bad, "preperiod letters must be 0 or 1")
    if not text.endswith(")") or text.count("(") != 1 or text.count(")") != 1:
        raise PointSyntaxError(text, len(text) - 1, "expected a single (w) group at the end")
    period = text[open_at + 1:-1]
    if not period:
        raise PointSyntaxError(text, open_at + 1, "period must be nonempty")
    bad = _first_non_binary(period)
    if bad is not None:
        raise PointSyntaxError(text, open_at + 1 + bad, "period letters must be 0 or 1")
    for name, letters in (("preperiod", preperiod), ("period", period)):
        if len(letters) > MAX_PERIOD:
            raise PeriodCapacityError(
                f"{name} of {len(letters)} letters is longer than {MAX_PERIOD} (capacity exceeded)"
            )
    return RationalPoint._trusted(preperiod, primitive_root(period))


_PLAIN_DIGITS = 4000  # the longest numeral that int() reads whole: below its default limit of 4300 digits


def _read_digits(digits: str) -> int:
    """int(digits) for a run of ASCII digits, in time below quadratic past _PLAIN_DIGITS digits.

    int() of a decimal numeral is quadratic in its length on Python 3.11.
    A longer numeral is read as its high digits and its low k digits, each
    read the same way, joined with the cached 10^k, where k is the greatest
    of _PLAIN_DIGITS, 2 _PLAIN_DIGITS, 4 _PLAIN_DIGITS, ... below the length.
    The 631,306 digits that parse_point allows need at most 8 such powers.  On
    631,307 digits this took 0.37 s against 3.0 s for int() (2-vCPU Xeon,
    Python 3.11).
    """
    n = len(digits)
    if n <= _PLAIN_DIGITS:
        return int(digits)
    k = _PLAIN_DIGITS
    while 2 * k < n:
        k *= 2
    return _read_digits(digits[: n - k]) * _power_of_ten(k) + _read_digits(digits[n - k :])


@cache
def _power_of_ten(k: int) -> int:
    return 10**k


def _is_ascii_digits(s: str) -> bool:
    """True for a nonempty run of 0-9; str.isdigit alone also takes "²" and "٣"."""
    return s.isascii() and s.isdigit()


def _first_non_binary(s: str) -> int | None:
    """Index of the first letter of s that is neither 0 nor 1, or None."""
    i = len(s) - len(s.lstrip("01"))
    return i if i < len(s) else None
