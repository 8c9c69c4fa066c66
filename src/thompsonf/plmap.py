"""Elements of Thompson's group F as piecewise linear homeomorphisms of [0, 1].

A PLMap is an increasing piecewise linear bijection of the unit interval
whose breakpoints have dyadic coordinates and whose slopes are integer powers
of two.  Breakpoint lists are normalized (no collinear interior points), so
two maps represent the same group element iff their breakpoint tuples are
equal; that exact comparison is how the word problem is decided throughout
the package.

Dyadic pairs are the API boundary.  Inside, a map keeps one exponent e and
two tuples of integer numerators over 2^e, with e minimal, so all arithmetic
is on ints; evaluate and preimage take and return Fractions.  Only the public
constructor validates, on the numerators; compose, inverse, flip and the
closed forms of x0, x1, x_n and y_n, built from integers, skip it.

Products follow the right-action convention: (f * g)(t) = g(f(t)), matching
the left-to-right reading of words.

A word becomes a map in three exact steps.  A stack pass cancels every
adjacent x x^-1, so the reduced word has no factor that the maps would only
undo.  The reduced word is cut into pieces of six letters (the last may be
shorter), and the product of each piece is looked up in a memo keyed by its
text.  A piece is a freely reduced word of at most six letters, so the memo
holds at most 4 (1 + 3 + ... + 3^5) = 1456 maps; a piece not in it yet is
built from its two halves, themselves memoized.  The pieces are multiplied
by splitting the word at the piece boundary nearest its middle and each half
likewise, so a word of n letters costs about n/6 composes, and none of them
redoes one of the small products that words share.  Maps are normalized, so
any bracketing gives the same breakpoints as the left fold.  A product has
at most as many breakpoints as its two factors together, and the split keeps
the tree balanced, so the operands of one level of it add up to at most the
breakpoints of the pieces, and a reduced word of n letters costs O(n log n)
breakpoint steps.  A left fold composes letter k into a map that may already
have O(k) breakpoints, which is quadratic when they grow with the length, as
they do for (x0 x1)^k.

To evaluate a word at one point, evaluate_word builds no map.  Every piece
of a letter map sends a standard dyadic interval onto another, so on binary
digits it replaces one prefix by another and keeps the rest.  Tables of
these rules, for each letter and each pair of letters, are derived from
the letter maps on first use, and again when a letter map is replaced.
The value's digits are folded through them two letters per lookup: the
front digits are a small int, with digit i at bit i, that each pair of
letters rewrites by one lookup, a shift and an or, so a letter costs O(1)
at any length of the value.  The digits behind the window are read in
chunks, from the dyadic part's digits and then from a tail r/d with d
odd, one division per chunk.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache, reduce
from math import gcd
from operator import is_, or_

from .dyadic import Dyadic
from .report import Check, Report
from .words import Word, relator_words

MAX_DEPTH = 64
_PIECE_LETTERS = 6  # the longest word whose map word_to_plmap memoizes


class InvalidPLMapError(ValueError):
    """Raised when breakpoint data does not describe a valid element of F."""


class PLMap:
    """Immutable piecewise linear homeomorphism given by its breakpoints."""

    __slots__ = ("_e", "_ts", "_ys")

    def __init__(self, breakpoints: Iterable[tuple[Dyadic, Dyadic]]):
        points = tuple((t, y) for t, y in breakpoints)
        e = max((max(t.exponent, y.exponent) for t, y in points), default=0)
        ts = [t.numerator << (e - t.exponent) for t, _ in points]
        ys = [y.numerator << (e - y.exponent) for _, y in points]
        _validate(points, ts, ys, 1 << e)
        normal = _trusted(e, ts, ys, range(1, len(ts) - 1))
        self._e, self._ts, self._ys = normal._e, normal._ts, normal._ys

    @classmethod
    def from_fractions(cls, pairs: Iterable[tuple[Fraction, Fraction]]) -> "PLMap":
        return cls((Dyadic.from_fraction(t), Dyadic.from_fraction(y)) for t, y in pairs)

    @property
    def breakpoints(self) -> tuple[tuple[Dyadic, Dyadic], ...]:
        e, reduced = self._e, Dyadic._reduced
        return tuple([(reduced(t, e), reduced(y, e)) for t, y in zip(self._ts, self._ys)])

    def breakpoint_texts(self) -> list[tuple[str, str]]:
        """The breakpoints as str prints their Dyadics, written from the numerators without building one.

        Each denominator 2^j is written once per call, the first time a
        breakpoint needs it: a map can have a handful of breakpoints and a
        large exponent, as x_n has, so the denominators are not all written
        up front.
        """
        e = self._e
        denominators = [""] + [None] * e  # j -> "/2^j" in decimal, once written

        def texts(numerators: tuple[int, ...]) -> list[str]:
            out = []
            for n in numerators:
                j = e - min((n & -n).bit_length() - 1, e) if n else 0  # exponent left once n's trailing zeros go
                d = denominators[j]
                if d is None:
                    d = denominators[j] = f"/{1 << j}"
                out.append(f"{n >> (e - j)}{d}")
            return out

        return list(zip(texts(self._ts), texts(self._ys)))

    def evaluate(self, t: Fraction | int) -> Fraction:
        """Exact value at t for any rational t in [0, 1]."""
        if isinstance(t, float):
            raise TypeError("refusing float input; pass Fraction or Dyadic for exactness")
        fr = t.as_fraction() if isinstance(t, Dyadic) else Fraction(t)
        if fr < 0 or fr > 1:
            raise ValueError(f"argument {fr} outside [0, 1]")
        return _interpolate(self._e, self._ts, self._ys, fr)

    def preimage(self, y: Fraction) -> Fraction:
        """Exact t with self(t) = y (the map is a bijection of [0, 1])."""
        if y < 0 or y > 1:
            raise ValueError(f"value {y} outside [0, 1]")
        return _interpolate(self._e, self._ys, self._ts, Fraction(y))

    def compose(self, other: "PLMap") -> "PLMap":
        """Right-action product t -> other(self(t)): one pass over self._ys merged with other._ts.

        The pass works on numerators over 2^e with e = 2 max(ea, eb), which
        holds every new point exactly, so each division below is exact.  A new
        t is self^-1 at a breakpoint of other: its exponent is at most
        max(ea, eb) plus the log of self's slope there, and self's slopes lie
        between 2^-ea and 2^ea.  A new y is the same with the roles swapped.
        ea + eb is not enough: a map of exponent 5 with slope 8 over y = 1/2,
        composed with x0, has a breakpoint at 65/256.
        """
        ea, eb = self._e, other._e
        e = 2 * max(ea, eb)
        ats = [t << (e - ea) for t in self._ts]
        ays = [y << (e - ea) for y in self._ys]
        bts = [t << (e - eb) for t in other._ts]
        bys = [y << (e - eb) for y in other._ys]
        ts = [0]
        ys = [0]
        shared = []  # where a breakpoint of self meets one of other: the only places slopes can cancel
        i = j = 1
        n = len(ays)
        while i < n:  # both lists end at 1 << e, so the last step advances both
            u, v = ays[i], bts[j]
            if u < v:  # bts[j - 1] < u
                ts.append(ats[i])
                ys.append(bys[j - 1] + (u - bts[j - 1]) * (bys[j] - bys[j - 1]) // (v - bts[j - 1]))
                i += 1
            elif v < u:  # ays[i - 1] < v
                ts.append(ats[i - 1] + (v - ays[i - 1]) * (ats[i] - ats[i - 1]) // (u - ays[i - 1]))
                ys.append(bys[j])
                j += 1
            else:
                shared.append(len(ts))
                ts.append(ats[i])
                ys.append(bys[j])
                i += 1
                j += 1
        shared.pop()  # the endpoint (1, 1)
        return _trusted(e, ts, ys, shared)

    def inverse(self) -> "PLMap":
        return _from_ints(self._e, self._ys, self._ts)

    def __mul__(self, other: "PLMap") -> "PLMap":
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.compose(other)

    def __pow__(self, n: int) -> "PLMap":
        """By repeated squaring: the powers of one map commute, so any bracketing gives the same map."""
        base = self.inverse() if n < 0 else self
        power = _IDENTITY
        for bit in format(abs(n), "b"):
            power = power.compose(power)
            if bit == "1":
                power = power.compose(base)
        return power

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        return self._e == other._e and self._ts == other._ts and self._ys == other._ys

    def __hash__(self) -> int:
        return hash((self._e, self._ts, self._ys))

    def __repr__(self) -> str:
        pts = ", ".join(f"({t}, {y})" for t, y in self.breakpoint_texts())
        return f"PLMap[{pts}]"


def _validate(points: Sequence[tuple[Dyadic, Dyadic]], ts: list[int], ys: list[int], one: int) -> None:
    """Check breakpoints given as numerators ts, ys over one = 2^e; points, the same as Dyadics, name them."""
    if len(points) < 2:
        raise InvalidPLMapError("need at least the two endpoint breakpoints")
    for i, (t, y) in enumerate(points):
        if not (0 <= ts[i] <= one and 0 <= ys[i] <= one):
            raise InvalidPLMapError(f"breakpoint ({t}, {y}) outside the unit square")
    if (ts[0], ys[0], ts[-1], ys[-1]) != (0, 0, one, one):
        raise InvalidPLMapError("endpoints must be fixed: (0, 0) and (1, 1)")
    for i in range(1, len(points)):
        (t0, _), (t1, y1) = points[i - 1], points[i]
        dt, dy = ts[i] - ts[i - 1], ys[i] - ys[i - 1]
        if dt <= 0 or dy <= 0:
            raise InvalidPLMapError(f"breakpoints not strictly increasing near ({t1}, {y1})")
        g = gcd(dt, dy)
        p, q = dy // g, dt // g
        if p & (p - 1) or q & (q - 1):
            raise InvalidPLMapError(f"slope {Fraction(dy, dt)} on [{t0}, {t1}] is not a power of two")


def _from_ints(e: int, ts: tuple[int, ...], ys: tuple[int, ...]) -> PLMap:
    m = object.__new__(PLMap)
    m._e, m._ts, m._ys = e, ts, ys
    return m


def _trusted(e: int, ts: list[int], ys: list[int], maybe_collinear: Iterable[int]) -> PLMap:
    """A map from numerators over 2^e that are valid by construction.

    Of the interior points listed in maybe_collinear, those collinear with
    their neighbours are dropped; then the common trailing zero bits of the
    numerators are shifted out, so the exponent comes out minimal.
    """
    drop = [
        i
        for i in maybe_collinear
        if (ys[i] - ys[i - 1]) * (ts[i + 1] - ts[i]) == (ys[i + 1] - ys[i]) * (ts[i] - ts[i - 1])
    ]
    for i in reversed(drop):
        del ts[i], ys[i]
    bits = reduce(or_, ts, reduce(or_, ys))
    k = (bits & -bits).bit_length() - 1  # at most e: the last t is 1 << e
    return _from_ints(e - k, tuple([t >> k for t in ts]), tuple([y >> k for y in ys]))


def _interpolate(e: int, xs: Sequence[int], vs: Sequence[int], x: Fraction) -> Fraction:
    """Value at x of the piecewise linear function through the points (xs[k], vs[k]) / 2^e."""
    p, q = x.numerator, x.denominator
    scaled = p << e  # x * 2^e * q
    i = max(min(bisect_right(xs, scaled // q) - 1, len(xs) - 2), 0)
    dx = xs[i + 1] - xs[i]
    return Fraction(vs[i] * q * dx + (scaled - xs[i] * q) * (vs[i + 1] - vs[i]), (q * dx) << e)


def identity() -> PLMap:
    return _IDENTITY


def generator_x0() -> PLMap:
    """The generator x0: t/2 on [0,1/2], t-1/4 on [1/2,3/4], 2t-1 on [3/4,1]."""
    return _GEN_X0


def generator_x1() -> PLMap:
    """The generator x1: identity on [0,1/2], then a scaled copy of x0 on [1/2,1]."""
    return _GEN_X1


def letter_map(letter: str) -> PLMap:
    return _LETTER_MAPS[letter]


def word_to_plmap(word: Word) -> PLMap:
    """Left-to-right product of the letter maps; the empty word is the identity.

    The word is freely reduced first.  Then it is split at the multiple of
    _PIECE_LETTERS letters nearest its middle, each half likewise, down to
    pieces of at most _PIECE_LETTERS letters, which come from the memo of
    _piece.  The tree is balanced, so the operands of each level have at most
    as many breakpoints together as the pieces, and the work is O(n log n)
    breakpoint steps where a left fold can need O(n^2).
    """
    reduced: list[str] = []
    for letter in word:
        if reduced and reduced[-1] == letter.swapcase():
            reduced.pop()
        else:
            reduced.append(letter)
    return _split("".join(reduced)) if reduced else _IDENTITY


def _split(text: str) -> PLMap:
    """Product of a nonempty freely reduced word, split at the multiple of _PIECE_LETTERS nearest its middle."""
    n = len(text)
    if n <= _PIECE_LETTERS:
        return _piece(text)
    mid = (n + _PIECE_LETTERS) // (2 * _PIECE_LETTERS) * _PIECE_LETTERS  # strictly inside, as n > _PIECE_LETTERS
    return _split(text[:mid]).compose(_split(text[mid:]))


@cache
def _piece(text: str) -> PLMap:
    """Product of a freely reduced word of 1 to _PIECE_LETTERS letters, built from its two halves."""
    if len(text) == 1:
        return _LETTER_MAPS[text]
    mid = len(text) // 2
    return _piece(text[:mid]).compose(_piece(text[mid:]))


def evaluate_word(word: Word, t: Fraction | int) -> Fraction:
    """Exact image of t under the map of the word, without building that map.

    _image_digits folds t's binary digits through the prefix rules of the
    letter maps at O(1) per letter, and one Fraction is built at the end,
    where word_to_plmap builds a map that can have O(n) breakpoints over
    2^n for a word of n letters.
    """
    if isinstance(t, float):
        raise TypeError("refusing float input; pass Fraction for exactness")
    fr = t if isinstance(t, Fraction) else Fraction(t)
    num, den = fr.numerator, fr.denominator
    if num < 0 or num > den:
        raise ValueError(f"argument {fr} outside [0, 1]")
    n, length = _image_digits(word, fr)
    return Fraction(n, den // (den & -den) << length)


_CHUNK = 24  # digits that _image_digits loads behind its window at once
_KEEP = 16  # digits that _image_digits keeps in its window when it spills
_FULL = 1 << 30  # a window this large holds 30 digits: _image_digits spills
_PAD = "1"  # the identity word, paired with the last letter of a word of odd length
_TAIL_DIGITS = f"0{_CHUNK + 1}b"  # _CHUNK digits of the tail and a 1 after them

_Images = tuple[tuple[int, int], ...]  # per head, as an int with digit i at bit i: the length and digits of its image


def _image_digits(word: Word, t: Fraction) -> tuple[int, int]:
    """N and L with N / (d 2^L) the image of t in [0, 1] under the word, for the odd part d of t's denominator.

    Each piece of a letter map sends a standard dyadic interval onto
    another, so on binary digits it is a prefix rule: it replaces the
    address of its domain by that of its image and keeps the digits after
    it.  t = (q + r/d) / 2^k is held as the k digits of q and a tail r/d
    with 0 <= r < d, whose digits are read only when a rule needs them.
    The front digits are a window: an int below 2^30 with digit i at bit i
    and a 1 bit above the last digit held.  Behind it are the other digits
    of q, as a list of such ints of at most _CHUNK digits with the next one
    last, and then the tail.  Each step folds two letters of the word, the
    last letter of an odd word with _PAD: one lookup of the window's first
    six digits in that pair's table, a shift and an or.  Before a step, a
    window of fewer than six digits is refilled from the list, or with
    _CHUNK digits of the tail by one shift and one division of r, and one
    that has grown to 30 digits spills all but its first _KEEP to the list.
    The L digits held at the end and the tail give N; the image keeps t's
    odd part d, so N / (d 2^L) is in lowest terms but for powers of two.
    0 and 1, which every element fixes, return at once.
    """
    num, den = t.numerator, t.denominator
    if num == 0 or num == den:
        return num, 0
    pairs = _digit_tables()
    k = (den & -den).bit_length() - 1
    d = den >> k
    q, r = divmod(num, d)
    backwards = format(q | 1 << k, "b")[:0:-1]  # the k digits of q, the last one first
    front = (k - 1) // _CHUNK * _CHUNK  # where the chunk of the first digits starts in backwards; -_CHUNK for k = 0
    x = int("1" + backwards[front:], 2)
    rest = [int("1" + backwards[i:i + _CHUNK], 2) for i in range(0, front, _CHUNK)] if front > 0 else []
    letters = iter(word + _PAD)
    for first, second in zip(letters, letters):
        while x < 64:
            if rest:
                chunk = rest.pop()
            else:
                q, r = divmod(r << _CHUNK, d)
                chunk = int(format(q << 1 | 1, _TAIL_DIGITS)[::-1], 2)
            top = x.bit_length() - 1
            x = x ^ 1 << top | chunk << top
        if x >= _FULL:
            rest.append(x >> _KEEP)
            x = x & (1 << _KEEP) - 1 | 1 << _KEEP
        j, image = pairs[first][second][x & 63]
        x = x >> 6 << j | image
    digits = format(x, "b")[:0:-1] + "".join([format(chunk, "b")[:0:-1] for chunk in reversed(rest)])
    return int(digits or "0", 2) * d + r, len(digits)


_DIGIT_TABLES: list = [None, None]  # the letter maps that _image_digits' tables were derived from, and the tables


def _digit_tables() -> dict[str, dict[str, _Images]]:
    """_image_digits' tables, derived from the letter maps on first use and whenever one of them is replaced.

    A table maps the first three digits of a window, as an int with digit
    i at bit i, to the length and the digits of their image; that of a pair
    of letters maps the first six.  The table of a letter comes from the
    prefix rules of its map, which read at most three digits, and _PAD's
    keeps every head.  That of a pair applies its first letter's table to
    the low three digits, then its second letter's table to the low three
    of the result.  The maps are compared by identity, so a call costs no
    hash of a map.
    """
    maps = tuple(_LETTER_MAPS.values())
    derived_from = _DIGIT_TABLES[0]
    if derived_from is not None and all(map(is_, maps, derived_from)):
        return _DIGIT_TABLES[1]
    single: dict[str, _Images] = {_PAD: tuple((3, bits) for bits in range(8))}
    for letter, m in _LETTER_MAPS.items():
        rules = _prefix_rules(m)
        images = []
        for bits in range(8):
            head = format(bits | 8, "b")[:0:-1]
            image = next(rhs + head[len(lhs):] for lhs, rhs in rules if head.startswith(lhs))
            images.append((len(image), int(image[::-1], 2)))
        single[letter] = tuple(images)
    pairs: dict[str, dict[str, _Images]] = {}
    for first in _LETTER_MAPS:
        pairs[first] = row = {}
        for second, two in single.items():
            images = []
            for bits in range(64):
                k, image = single[first][bits & 7]
                y = bits >> 3 << k | image
                j, image = two[y & 7]
                images.append((k + j, y >> 3 << j | image))
            row[second] = tuple(images)
    _DIGIT_TABLES[:] = maps, pairs
    return pairs


def _prefix_rules(m: PLMap) -> tuple[tuple[str, str], ...]:
    """The prefix rule of each piece of m, in order: the binary addresses of its domain and of its image.

    Raises ValueError for a piece whose domain or image is not a standard
    dyadic interval [j / 2^n, (j + 1) / 2^n].
    """
    e, ts, ys = m._e, m._ts, m._ys

    def address(lo: int, hi: int) -> str:
        width = hi - lo
        if width & (width - 1) or lo % width:
            raise ValueError(f"[{lo}/2^{e}, {hi}/2^{e}] is not a standard dyadic interval")
        return format(lo // width | 1 << (e - width.bit_length() + 1), "b")[1:]

    return tuple((address(ts[i], ts[i + 1]), address(ys[i], ys[i + 1])) for i in range(len(ts) - 1))


def xn(n: int) -> PLMap:
    """The generator x_n (n >= 1) in closed form.

    Identity up to 1 - 1/2^n, then slopes 1/2, 1, 2; equals the word
    x0^(n-1) x1 x0^-(n-1), and xn(1) is exactly generator_x1().
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    one = 4 << n  # numerators over 2^(n + 2); one - 1 is odd, so the exponent is minimal
    return _from_ints(n + 2, (0, one - 4, one - 2, one - 1, one), (0, one - 4, one - 3, one - 2, one))


def yn(n: int) -> PLMap:
    """The element y_n = x0^-(n+1) x1 x0^n: the image of xn(n) under the flip automorphism.

    Supported on [0, 1/2^n] with slopes 2, 1, 1/2.
    """
    return flip(xn(n))


def flip(f: PLMap) -> PLMap:
    """The flip automorphism t -> 1 - f(1 - t), central symmetry of the graph."""
    one = 1 << f._e
    return _from_ints(f._e, tuple(one - t for t in reversed(f._ts)), tuple(one - y for y in reversed(f._ys)))


def validate_depth(depth: int) -> None:
    """Refuse a check_relators depth outside 2..MAX_DEPTH with ValueError."""
    if depth < 2:
        raise ValueError(f"depth must be >= 2, got {depth}")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth must be <= {MAX_DEPTH}, got {depth}")


def check_relators(depth: int = 8) -> Report:
    """Verify the defining relators of F as exact map identities.

    Covers the two finite-presentation relators, the shift relations
    x_k x_n x_k^-1 = x_{n+1} and y_k y_n y_k^-1 = y_{n+1} for indices up to
    depth, and commutation of every x_i with every y_j up to depth.  The
    checks grow as depth^2, so depth is at most MAX_DEPTH.  They do not
    depend on anything but the depth, so each depth is proved once per
    process.
    """
    validate_depth(depth)
    return Report("relators", list(_relator_checks(depth)))


@cache
def _relator_checks(depth: int) -> tuple[Check, ...]:
    ident = identity()
    first, second = relator_words("a", "b")
    checks = [
        Check("[x1^-1 x0, x0 x1 x0^-1] == 1", word_to_plmap(first) == ident),
        Check("[x1^-1 x0, x0^2 x1 x0^-2] == 1", word_to_plmap(second) == ident),
    ]
    xs = {k: xn(k) if k else _GEN_X0 for k in range(depth + 2)}
    ys = {k: yn(k) for k in range(1, depth + 2)}
    for k in range(depth + 1):
        for n in range(k + 1, depth + 1):
            ok = xs[k] * xs[n] * xs[k].inverse() == xs[n + 1]
            checks.append(Check(f"x{k} x{n} x{k}^-1 == x{n + 1}", ok))
    for k in range(1, depth + 1):
        for n in range(k + 1, depth + 1):
            ok = ys[k] * ys[n] * ys[k].inverse() == ys[n + 1]
            checks.append(Check(f"y{k} y{n} y{k}^-1 == y{n + 1}", ok))
    for i in range(1, depth + 1):
        for j in range(1, depth + 1):
            ok = xs[i] * ys[j] == ys[j] * xs[i]
            checks.append(Check(f"[x{i}, y{j}] == 1", ok))
    return tuple(checks)


_IDENTITY = _from_ints(0, (0, 1), (0, 1))
_GEN_X0 = _from_ints(2, (0, 2, 3, 4), (0, 1, 2, 4))  # numerators over 4
_GEN_X1 = xn(1)

_LETTER_MAPS = {"a": _GEN_X0, "A": _GEN_X0.inverse(), "b": _GEN_X1, "B": _GEN_X1.inverse()}
