"""Elements of Thompson's group F as piecewise linear homeomorphisms of [0, 1].

A PLMap is an increasing piecewise linear bijection of the unit interval
whose breakpoints have dyadic coordinates and whose slopes are integer powers
of two.  Breakpoints are read at the slope changes only, so equal maps have
equal breakpoint lists.

Dyadic pairs are the API boundary.  Inside, a map is a tree-pair diagram
(Cannon, Floyd and Parry, Introductory notes on Richard Thompson's groups,
section 2): two subdivisions of [0, 1] into standard dyadic intervals
[j / 2^n, (j + 1) / 2^n], with the same number of leaves, the k-th leaf of
the domain sent linearly onto the k-th leaf of the range.  Each subdivision
is kept as the tuple of its leaves' depths n, left to right, so x0 is
((1, 2, 2), (2, 2, 1)) and every operation but reading a breakpoint works
on small ints: inverse swaps the two tuples, flip reverses both, and
compose walks the leaves of both factors once.  A product is not reduced.
A caret exposed in both trees, two sibling leaves whose images are
siblings, adds no breakpoint, and one stack pass merges every such caret
into one leaf; the reduced diagram of an element is unique, so == and hash
compare reduced diagrams.  The pass runs only when a map is compared or
hashed, and the reduced diagram then replaces the map's own.  Only the
public constructor validates; it turns the breakpoints into leaves once.

Products follow the right-action convention: (f * g)(t) = g(f(t)), matching
the left-to-right reading of words.

A word becomes a map in three exact steps.  A stack pass cancels every
adjacent x x^-1, so the reduced word has no factor that the maps would only
undo.  The reduced word is cut into pieces of six letters (the last may be
shorter), and the product of each piece is looked up in a memo keyed by its
text.  A piece is a freely reduced word of at most six letters, so the memo
holds at most 4 (1 + 3 + ... + 3^5) = 1456 maps, all reduced; a piece not
in it yet is built from its two halves, themselves memoized.  The pieces
are multiplied by splitting the word at the piece boundary nearest its
middle and each half likewise, so a word of n letters costs about n/6
composes, and none of them redoes one of the small products that words
share.  A product has at most as many leaves as its two factors together,
and the split keeps the tree balanced, so the operands of one level of it
add up to at most the leaves of the pieces, and a reduced word of n
letters costs O(n log n) steps on small ints.  A left fold composes letter
k into a map that may already have O(k) leaves, which is quadratic when
they grow with the length, as they do for (x0 x1)^k.

To evaluate a word at one point, evaluate_word builds no map.  Every leaf
pair of a letter map sends a standard dyadic interval onto another, so on
binary digits it replaces one prefix by another and keeps the rest.  Tables
of these rules, for each letter and each pair of letters, are derived from
the letter maps on first use, and again when a letter map is replaced.
The value's digits are folded through them two letters per lookup: the
front digits are a small int, with digit i at bit i, that each pair of
letters rewrites by one lookup, a shift and an or, so a letter costs O(1)
at any length of the value.  The digits behind the window are read in
chunks, from the dyadic part's digits and then from a tail r/d with d
odd, one chunk per division.  The kernel, _image_digits, folds one shared
prefix once and several tails from copies of its state, as cantor._fold
does; evaluate_word passes one tail.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache
from itertools import pairwise
from math import gcd
from operator import is_

from .dyadic import Dyadic
from .report import Check, Report
from .words import Word, relator_words

MAX_DEPTH = 64
MAX_TEXT_BITS = 400_000_000  # most numerator bits that breakpoint_texts writes: about 120 MB of decimal text
_PIECE_LETTERS = 6  # the longest word whose map word_to_plmap memoizes

_Depths = tuple[int, ...]  # the depths of a subdivision's leaves, left to right


class InvalidPLMapError(ValueError):
    """Raised when breakpoint data does not describe a valid element of F."""


class TextCapacityError(RuntimeError):
    """Raised for a map whose breakpoints' numerators have more than MAX_TEXT_BITS bits in all."""


class PLMap:
    """Immutable element of F, kept as a tree-pair diagram: the leaf depths of its domain and of its range."""

    __slots__ = ("_d", "_r", "_is_reduced")

    def __init__(self, breakpoints: Iterable[tuple[Dyadic, Dyadic]]):
        points = tuple((t, y) for t, y in breakpoints)
        e = max((max(t.exponent, y.exponent) for t, y in points), default=0)
        ts = [t.numerator << (e - t.exponent) for t, _ in points]
        ys = [y.numerator << (e - y.exponent) for _, y in points]
        _validate(points, ts, ys, 1 << e)
        self._d, self._r = _leaves(ts, ys, e)
        self._is_reduced = False

    @classmethod
    def from_fractions(cls, pairs: Iterable[tuple[Fraction, Fraction]]) -> "PLMap":
        return cls((Dyadic.from_fraction(t), Dyadic.from_fraction(y)) for t, y in pairs)

    @property
    def breakpoints(self) -> tuple[tuple[Dyadic, Dyadic], ...]:
        dom, ran = self._d, self._r
        e, f, reduced = max(dom), max(ran), Dyadic._reduced
        return tuple([(reduced(t, e), reduced(y, f)) for t, y in _corners(dom, ran, e, f)])

    def breakpoint_texts(self) -> list[tuple[str, str]]:
        """The breakpoints as str prints their Dyadics, written from the numerators of _corners without building one.

        Before any corner is built, _text_bits sums the numerators' bit
        lengths from the leaf depths, and past MAX_TEXT_BITS the map is
        refused with TextCapacityError: printing one costs time quadratic in
        its length, and holding the corners of a refused map costs memory
        quadratic in its leaves.  The ends are written as 0 and 1, and
        every other corner has 0 < t < 2^e, so its numerator loses its
        trailing zeros, counted once, and the rest is over 2^j with
        0 < j <= e.  Each denominator's text is written once per call, the
        first time a corner needs it: a map can have a handful of
        breakpoints and deep leaves, as x_n has, so the denominators are
        not all written up front.
        """
        dom, ran = self._d, self._r
        e, f = max(dom), max(ran)
        if (len(dom) + 1) * (e + f + 2) > MAX_TEXT_BITS:  # at most one corner per leaf and one more, of e + 1 and f + 1 bits
            count, bits = _text_bits(dom, ran, e, f)
            if bits > MAX_TEXT_BITS:
                raise TextCapacityError(
                    f"the {count} breakpoints of the map have numerators of {bits} bits in all,"
                    f" more than {MAX_TEXT_BITS} (capacity exceeded)"
                )
        corners = _corners(dom, ran, e, f)
        denominators = [None] * (max(e, f) + 1)  # j -> "/2^j" in decimal, once written
        texts = corners  # each corner's texts replace its numerators, so the two are not held at once
        for i in range(1, len(texts) - 1):
            t, y = texts[i]
            z = (t & -t).bit_length() - 1
            d = denominators[e - z]
            if d is None:
                d = denominators[e - z] = f"/{1 << (e - z)}"
            w = (y & -y).bit_length() - 1
            g = denominators[f - w]
            if g is None:
                g = denominators[f - w] = f"/{1 << (f - w)}"
            texts[i] = (f"{t >> z}{d}", f"{y >> w}{g}")
        texts[0] = ("0", "0")
        texts[-1] = ("1", "1")
        return texts

    def evaluate(self, t: Fraction | int) -> Fraction:
        """Exact value at t for any rational t in [0, 1]."""
        if isinstance(t, float):
            raise TypeError("refusing float input; pass Fraction or Dyadic for exactness")
        fr = t.as_fraction() if isinstance(t, Dyadic) else Fraction(t)
        if fr < 0 or fr > 1:
            raise ValueError(f"argument {fr} outside [0, 1]")
        return _interpolate(self._d, self._r, fr)

    def preimage(self, y: Fraction) -> Fraction:
        """Exact t with self(t) = y (the map is a bijection of [0, 1])."""
        if y < 0 or y > 1:
            raise ValueError(f"value {y} outside [0, 1]")
        return _interpolate(self._r, self._d, Fraction(y))

    def compose(self, other: "PLMap") -> "PLMap":
        """Right-action product t -> other(self(t)): one walk over self's range leaves and other's domain leaves.

        Both are subdivisions of [0, 1], so the walk holds one leaf of each,
        which start at the same point.  While their depths differ, the
        shallower leaf is halved, along with its partner in the other tree
        of its diagram; the left halves go on, and the right halves wait on
        a stack.  When the depths agree the two leaves are the same
        interval, and the product gets a leaf pair: self's domain leaf and
        other's range leaf.  So the walk costs O(leaves of the product), all
        on small ints, and the product has at most leaves(self) +
        leaves(other) - 1 leaves.  It is not reduced.
        """
        fd, fr, gd, gr = self._d, self._r, other._d, other._r
        dom: list[int] = []
        ran: list[int] = []
        f_halves: list[tuple[int, int]] = []  # right halves of self's leaf pairs still to walk, the next one last
        g_halves: list[tuple[int, int]] = []
        p, q, u, v = fd[0], fr[0], gd[0], gr[0]  # self's pair p -> q and other's u -> v, q and u the same interval when q == u
        i = j = 1
        n = len(fd)
        while True:
            if q == u:
                dom.append(p)
                ran.append(v)
                if f_halves:
                    p, q = f_halves.pop()
                elif i < n:
                    p, q = fd[i], fr[i]
                    i += 1
                else:  # self's range is walked to 1, and so is other's domain
                    break
                if g_halves:
                    u, v = g_halves.pop()
                else:
                    u, v = gd[j], gr[j]
                    j += 1
            elif q < u:
                p += 1
                q += 1
                f_halves.append((p, q))
            else:
                u += 1
                v += 1
                g_halves.append((u, v))
        return _tree_pair(tuple(dom), tuple(ran), False)

    def inverse(self) -> "PLMap":
        return _tree_pair(self._r, self._d, self._is_reduced)

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

    def _reduce(self) -> "PLMap":
        """Replace the diagram by its reduced one, the unique diagram of the element with no caret exposed in both trees.

        One stack pass: a leaf pair goes on the stack, and while the pair
        below it has the same two depths and is a left child in both trees,
        the two merge into their parent pair, which goes through the same
        test.  A leaf of depth n is a left child when its start is a
        multiple of 2^-(n-1), and the start is known from the binary digits
        of the leaves before it: they are held as the depths of their one
        bits, deepest last, and adding a leaf carries like a binary counter.
        """
        if self._is_reduced:
            return self
        dom: list[int] = []  # the stack: depths of the pairs, and the depths of the last one bits of their starts
        ran: list[int] = []
        dom_starts: list[int] = []
        ran_starts: list[int] = []
        d_bits = [-1]  # the one bits of the domain leaves walked so far, deepest last; -1 for none
        r_bits = [-1]
        for d, r in zip(self._d, self._r):
            a, b = d_bits[-1], r_bits[-1]
            n = d
            while d_bits[-1] == n:
                d_bits.pop()
                n -= 1
            d_bits.append(n)
            n = r
            while r_bits[-1] == n:
                r_bits.pop()
                n -= 1
            r_bits.append(n)
            while dom and dom[-1] == d and ran[-1] == r and dom_starts[-1] < d and ran_starts[-1] < r:
                dom.pop()
                ran.pop()
                a, b = dom_starts.pop(), ran_starts.pop()
                d -= 1
                r -= 1
            dom.append(d)
            ran.append(r)
            dom_starts.append(a)
            ran_starts.append(b)
        self._d, self._r, self._is_reduced = tuple(dom), tuple(ran), True
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        self._reduce()
        other._reduce()
        return self._d == other._d and self._r == other._r

    def __hash__(self) -> int:
        self._reduce()
        return hash((self._d, self._r))

    def __repr__(self) -> str:
        pts = ", ".join(f"({t}, {y})" for t, y in self.breakpoint_texts())
        return f"PLMap[{pts}]"


def _tree_pair(dom: _Depths, ran: _Depths, reduced: bool) -> PLMap:
    """A map from the leaf depths of a diagram that is valid by construction; reduced says it has no common caret."""
    m = object.__new__(PLMap)
    m._d, m._r, m._is_reduced = dom, ran, reduced
    return m


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


def _leaves(ts: list[int], ys: list[int], e: int) -> tuple[_Depths, _Depths]:
    """The leaf depths of a diagram of the map with validated breakpoints ts, ys over 2^e.

    Each piece of slope 2^s is cut greedily into the longest standard dyadic
    intervals whose images are standard too.  A leaf can be finer than 2^-e
    where the slope is not 1, so the cuts are made on the grid of 2^-(e + x),
    x the largest |s|, where both ends of every leaf fall.
    """
    slopes = [(y1 - y0).bit_length() - (t1 - t0).bit_length() for (t0, t1), (y0, y1) in zip(pairwise(ts), pairwise(ys))]
    x = max(map(abs, slopes))
    unit = e + x  # the depth of a leaf one grid step wide
    dom: list[int] = []
    ran: list[int] = []
    for s, t, y, end in zip(slopes, ts, ys, ts[1:]):
        t, y, end = t << x, y << x, end << x
        while t < end:
            k = min(
                (t & -t).bit_length() - 1 if t else unit,
                ((y & -y).bit_length() - 1 if y else unit) - s,
                (end - t).bit_length() - 1,
            )  # the leaf is 2^k steps wide
            dom.append(unit - k)
            ran.append(unit - k - s)
            t += 1 << k
            y += 1 << (k + s)
    return tuple(dom), tuple(ran)


def _corners(dom: _Depths, ran: _Depths, e: int, f: int) -> list[tuple[int, int]]:
    """The breakpoints, as numerators over 2^e and 2^f for the deepest leaves e and f of the two trees.

    Both ends, and the start of each leaf whose slope differs from that of
    the leaf before it, from one running sum per coordinate.  This is the
    one walk over a map's leaf pairs that breakpoints, breakpoint_texts and
    evaluation read.
    """
    t = y = 0
    corners = [(0, 0)]
    slope = dom[0] - ran[0]
    for d, r in zip(dom, ran):
        if d - r != slope:
            slope = d - r
            corners.append((t, y))
        t += 1 << (e - d)
        y += 1 << (f - r)
    corners.append((t, y))
    return corners


def _text_bits(dom: _Depths, ran: _Depths, e: int, f: int) -> tuple[int, int]:
    """The number of corners that _corners gives, and their numerators' bit lengths summed, on small ints only.

    A leaf whose address has its first 1 at depth p starts at a numerator
    of e + 1 - p bits over 2^e.  The depths of the one bits of each start,
    deepest last, are kept as _reduce keeps them: adding a leaf carries like
    a binary counter, so the walk is linear in the leaves.  The end 0 has no
    bits, and the end 1 is 2^e / 2^e and 2^f / 2^f.
    """
    count, bits = 2, e + f + 2
    d_ones = [-1]  # the one bits of the domain leaves walked so far, deepest last, after a -1 for none
    r_ones = [-1]
    slope = dom[0] - ran[0]
    for d, r in zip(dom, ran):
        if d - r != slope:
            slope = d - r
            count += 1
            bits += e + f + 2 - d_ones[1] - r_ones[1]
        while d_ones[-1] == d:
            d_ones.pop()
            d -= 1
        d_ones.append(d)
        while r_ones[-1] == r:
            r_ones.pop()
            r -= 1
        r_ones.append(r)
    return count, bits


def _interpolate(dom: _Depths, ran: _Depths, x: Fraction) -> Fraction:
    """Value at x in [0, 1] of the map that sends the leaves of depths dom onto those of depths ran."""
    p, q = x.numerator, x.denominator
    e, f = max(dom), max(ran)
    scaled = p << e  # x * q * 2^e
    corners = _corners(dom, ran, e, f)
    t0, y0 = corners[0]
    for t1, y1 in corners[1:]:
        if t1 * q >= scaled:
            break
        t0, y0 = t1, y1
    dt = t1 - t0
    return Fraction(y0 * q * dt + (scaled - t0 * q) * (y1 - y0), (q * dt) << f)


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
    as many leaves together as the pieces, and the work is O(n log n) steps
    where a left fold can need O(n^2).
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
    """Reduced product of a freely reduced word of 1 to _PIECE_LETTERS letters, built from its two halves."""
    if len(text) == 1:
        return _LETTER_MAPS[text]
    mid = len(text) // 2
    return _piece(text[:mid]).compose(_piece(text[mid:]))._reduce()


def evaluate_word(word: Word, t: Fraction | int) -> Fraction:
    """Exact image of t under the map of the word, without building that map.

    _image_digits folds t's binary digits through the prefix rules of the
    letter maps at O(1) per letter, and one Fraction is built at the end,
    where word_to_plmap builds a map that can have O(n) leaves for a word
    of n letters.
    """
    if isinstance(t, float):
        raise TypeError("refusing float input; pass Fraction for exactness")
    fr = t if isinstance(t, Fraction) else Fraction(t)
    num, den = fr.numerator, fr.denominator
    if num < 0 or num > den:
        raise ValueError(f"argument {fr} outside [0, 1]")
    n, length = _image_digits("", (word,), fr)[0]
    return Fraction(n, den // (den & -den) << length)


_CHUNK = 24  # digits that _image_digits loads behind its window at once
_KEEP = 16  # digits that _image_digits keeps in its window when it spills
_FULL = 1 << 30  # a window this large holds 30 digits: _image_digits spills
_PAD = "1"  # the identity word, paired with the last letter of a word of odd length

_Images = tuple[tuple[int, int], ...]  # per head, as an int with digit i at bit i: the length and digits of its image


def _image_digits(prefix: Word, tails: Sequence[Word], t: Fraction) -> list[tuple[int, int]]:
    """N and L with N / (d 2^L) the image of t in [0, 1] under prefix + tail, for each tail in turn; d is the odd part of t's denominator.

    Each leaf pair of a letter map sends a standard dyadic interval onto
    another, so on binary digits it is a prefix rule: it replaces the
    address of its domain by that of its image and keeps the digits after
    it.  t = (q + r/d) / 2^k is held as the k digits of q and a tail r/d
    with 0 <= r < d, whose digits are read only when a rule needs them.
    The front digits are a window: an int below 2^30 with digit i at bit i
    and a 1 bit above the last digit held.  Behind it are the other digits
    of q, as a list of such ints of at most _CHUNK digits with the next one
    last, and then the tail.  _fold_window folds the letters through it.
    The tables are fetched and t's digits are read once, the prefix is
    folded once, and each tail from a copy of the state it left; an odd
    last letter of the prefix is carried into each tail, to pair with its
    first.  The L digits held at the end of a tail and the rest of t's tail
    give N; the image keeps t's odd part d, so N / (d 2^L) is in lowest
    terms but for powers of two.  0 and 1, which every element fixes, give
    (t's numerator, 0) at once.
    """
    num, den = t.numerator, t.denominator
    if num == 0 or num == den:
        return [(num, 0)] * len(tails)
    pairs = _digit_tables()
    k = (den & -den).bit_length() - 1
    d = den >> k
    q, r = divmod(num, d)
    backwards = format(q | 1 << k, "b")[:0:-1]  # the k digits of q, the last one first
    front = (k - 1) // _CHUNK * _CHUNK  # where the chunk of the first digits starts in backwards; -_CHUNK for k = 0
    x = int("1" + backwards[front:], 2)
    rest = [int("1" + backwards[i:i + _CHUNK], 2) for i in range(0, front, _CHUNK)] if front > 0 else []
    cut = len(prefix) & -2  # the letters of the prefix that pair among themselves
    if cut:  # the single-word callers pass no prefix
        x, r = _fold_window(pairs, d, prefix[:cut], x, rest, r)
    carry = prefix[cut:]
    images = []
    for tail in tails:
        held = rest.copy()
        y, s = _fold_window(pairs, d, carry + tail + _PAD, x, held, r)
        digits = format(y, "b")[:0:-1] + "".join([format(chunk, "b")[:0:-1] for chunk in reversed(held)])
        images.append((int(digits or "0", 2) * d + s, len(digits)))
    return images


_ENDS = 2 << _CHUNK | 1  # a 1 on either side of a chunk of the tail


def _fold_window(pairs: dict[str, dict[str, _Images]], d: int, word: str, x: int, rest: list[int], r: int) -> tuple[int, int]:
    """The window x and tail remainder r of _image_digits after the letters of word, two at a time; rest is changed in place.

    Each step folds two letters, and the last letter of an odd word is
    dropped: _image_digits ends each word with _PAD.  One lookup of the
    window's first six digits in that pair's table, a shift and an or.
    Before a step, a window of fewer than six digits is refilled from rest,
    or with the next _CHUNK digits of the tail r/d by one shift and one
    division of r, and one that has grown to 30 digits spills all but its
    first _KEEP to rest.  So a letter costs O(1) at any length of the value.
    """
    letters = iter(word)
    for first, second in zip(letters, letters):
        while x < 64:
            if rest:
                chunk = rest.pop()
            else:
                q, r = divmod(r << _CHUNK, d)
                chunk = int(format(q << 1 | _ENDS, "b")[:0:-1], 2)
            top = x.bit_length() - 1
            x = x ^ 1 << top | chunk << top
        if x >= _FULL:
            rest.append(x >> _KEEP)
            x = x & (1 << _KEEP) - 1 | 1 << _KEEP
        j, image = pairs[first][second][x & 63]
        x = x >> 6 << j | image
    return x, r


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
    """The prefix rule of each leaf pair of m, in order: the binary addresses of its domain leaf and of its range leaf."""
    return tuple(zip(_addresses(m._d), _addresses(m._r)))


def _addresses(depths: _Depths) -> Iterator[str]:
    """The binary addresses of the leaves of a subdivision, left to right: a leaf's start as n digits, n its depth."""
    address = ""
    for n in depths:
        address = address.ljust(n, "0")
        yield address
        address = address.rstrip("1")[:-1] + "1"  # where the next leaf starts: this one's end, one more in its last digit


def xn(n: int) -> PLMap:
    """The generator x_n (n >= 1) in closed form.

    Identity up to 1 - 1/2^n, then slopes 1/2, 1, 2: leaves of depths 1 to
    n sent to themselves, then n + 1, n + 2, n + 2 onto n + 2, n + 2, n + 1.
    Equals the word x0^(n-1) x1 x0^-(n-1), and xn(1) is exactly
    generator_x1().
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    left = tuple(range(1, n + 1))
    return _tree_pair(left + (n + 1, n + 2, n + 2), left + (n + 2, n + 2, n + 1), True)


def yn(n: int) -> PLMap:
    """The element y_n = x0^-(n+1) x1 x0^n: the image of xn(n) under the flip automorphism.

    Supported on [0, 1/2^n] with slopes 2, 1, 1/2.
    """
    return flip(xn(n))


def flip(f: PLMap) -> PLMap:
    """The flip automorphism t -> 1 - f(1 - t), central symmetry of the graph: both subdivisions mirrored."""
    return _tree_pair(f._d[::-1], f._r[::-1], f._is_reduced)


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


_IDENTITY = _tree_pair((0,), (0,), True)
_GEN_X0 = _tree_pair((1, 2, 2), (2, 2, 1), True)
_GEN_X1 = xn(1)

_LETTER_MAPS = {"a": _GEN_X0, "A": _GEN_X0.inverse(), "b": _GEN_X1, "B": _GEN_X1.inverse()}
