"""Finite generating sets for stabilizers of rational points in F.

The stabilizer of the base point 10 w^inf (w primitive) is generated by the
five elements x2, x3, y1, y2 and the substitution of 0 -> x1^-1, 1 -> x1^-1 x0
into w.  For an arbitrary rational point b the set is conjugated by a word h
moving b to 10 w^inf, a closed form in the binary expansion of b: powers of
x0^-1 or x0 by the first run of the sequence, the same substitution of the
rest of the preperiod, and the shorter arc of the period cycle that the
fifth generator closes.  That is schreier's path to the base point: the
orbital Schreier graph of b is one cycle, the period cycle, with trees
hanging off it.  schreier's lemma proves the trees, and the tests check
that the cycle is the only one.  h moves b to the base point by
construction either way, and on every point the tests compare, it is a
least geodesic of the Schreier graph.

Verification checks that each generator fixes the point under each of two
independent oracles (the symbolic sequence action and exact evaluation of
the PL map at the point's rational value), plus reproducible random
products of generators and their inverses, which are built and drawn only
when some generator moves the point.  Each oracle makes one call of its
kernel for all the generators: it reads the point once, folds it through
the conjugator h once when every generator reads h m h^-1, and through
each m from there, so a set with a long conjugator costs |h| + sum |m|
letters per oracle, not 2 |h| per generator.  p h m = p h exactly when
p (h m h^-1) = p, so nothing of the construction is trusted; a set of
any other form is folded word by word from the point.  Neither oracle
builds the map of a word, and both fold it the same way, two letters per
lookup, at O(1) per letter: the front of the sequence, or of the value's
binary digits, is a small int, and each pair of letters rewrites it by one
lookup in that pair's table, a shift and an or.  The sequence is folded by
cantor._fold, with tables derived from cantor's rule table, over the rest
of the preperiod and a read offset into the period; the value by
plmap._image_digits, with tables derived from the prefix rules of the
letter maps themselves, over its dyadic digits and a tail r/d.  So the two
oracles share no table.  Two images N / (d 2^L) and N' / (d 2^L') that
_image_digits returns for one value, d odd, are equal when
N 2^L' = N' 2^L, which compares by shifts and builds no Fraction.  Since
that only needs both images to share d, the value goes in as the point's
unreduced pair, RationalPoint._ratio, and no gcd is taken either.

The suites that do not depend on a point, check_reduction,
check_twin_points, check_stabilizer_relators and the index identities of
verify_generators, are proved once per process for each argument, and each
call reports them in a fresh Report.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .cantor import ONE_POINT, RationalPoint, ZERO_POINT, _fold, act_word, canonicalize
from .plmap import PLMap, _image_digits, identity, word_to_plmap, xn, yn
from .report import Check, Report
from .rng import SplitMix64
from .schreier import MAX_LABEL_LEN, _cycle_arc, _landing, _way_down
from .words import (
    Word,
    address_word,
    commutator,
    conjugate,
    format_word,
    invert_word,
    relator_words,
    stabilizer_period_word,
    xn_word,
    yn_word,
)

MAX_SAMPLES = 100_000
MAX_FACTORS = 12  # most generators in one seeded random product of verify_generators


class StabilizerGens(namedtuple("StabilizerGens", "point conjugator generators period")):
    """Generating set for the stabilizer of a rational point.

    Five words for a generic point, two (x0, x1) for the globally fixed
    endpoints, as a tuple of words.  The conjugator, a word, moves the point
    to the base point 10 period^inf and is empty when the point already has
    that form; the period field records the rotation of the period used in
    the fifth generator.
    """

    __slots__ = ()


def schreier_x_word(label: str, n: int) -> Word:
    """Generator for the n-th loop on the black ray below the labelled vertex."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return conjugate(xn_word(n + 1), address_word(label))


def schreier_y_word(label: str, n: int) -> Word:
    """Generator for the n-th bottom edge of the white ray below the labelled vertex."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return conjugate(yn_word(n), address_word(label))


def validate_reduction_bounds(max_label_len: int, max_n: int) -> None:
    """Refuse check_reduction bounds below 1 or a label length over MAX_LABEL_LEN with ValueError."""
    if max_label_len < 1 or max_n < 1:
        raise ValueError("bounds must be >= 1")
    if max_label_len > MAX_LABEL_LEN:
        raise ValueError(f"label length must be <= {MAX_LABEL_LEN}, got {max_label_len}")


def check_reduction(max_label_len: int = 5, max_n: int = 4) -> Report:
    """Verify that conjugation by an address only shifts generator indices.

    For every A/B label W and every n, the x-type generator collapses to
    x_{n+1+#B(W)} and the y-type one to y_{n+#A(W)}, as exact map identities.
    They do not depend on the point, so each pair of bounds is proved once
    per process; every call gets a fresh Report.
    """
    validate_reduction_bounds(max_label_len, max_n)
    return Report("index reduction", list(_reduction_checks(max_label_len, max_n)))


@functools.cache
def _reduction_checks(max_label_len: int, max_n: int) -> tuple[Check, ...]:
    """The checks of check_reduction.

    The labels are walked as a trie grown at the front.  The address word
    of cW is that of the letter c followed by that of W, so with S_c the
    map of c's word, associativity gives the conjugate of a core by cW's
    prefix as S_c C S_c^-1, where C is its conjugate by W's prefix: each
    label's 2 max_n maps come from those of W = label[1:] by one letter.
    Within the call, that conjugation is memoised on (c, C), so each
    distinct pair costs two composes once.  In a sound run C is always one
    of the targets, which leaves 2 (max_label_len + max_n - 1) pairs per
    family, where conjugating by each label's prefix anew takes four
    composes per label and n.  Every line still compares the exact map
    P(W) core P(W)^-1 with its target, so a wrong identity fails on the
    same lines as before.
    """
    checks = []
    x_maps = {k: xn(k) for k in range(2, max_n + max_label_len + 2)}
    y_maps = {k: yn(k) for k in range(1, max_n + max_label_len + 1)}
    ns = range(1, max_n + 1)
    # the conjugates of a label: x core, then y core, for each n in turn
    level = {"": tuple(m for n in ns for m in (word_to_plmap(xn_word(n + 1)), word_to_plmap(yn_word(n))))}
    letters = {c: word_to_plmap(address_word(c)) for c in "AB"}
    memo: dict[tuple[str, PLMap], PLMap] = {}

    def conjugated(c: str, core: PLMap) -> PLMap:
        image = memo.get((c, core))
        if image is None:
            s = letters[c]
            image = memo[c, core] = s * core * s.inverse()
        return image

    for length in range(max_label_len + 1):
        if length:  # product order: the first letter varies slowest
            level = {c + label: tuple([conjugated(c, m) for m in maps]) for c in "AB" for label, maps in level.items()}
        for label, maps in level.items():
            count_a = label.count("A")
            count_b = label.count("B")
            shown = label or "e"
            for n in ns:
                x, y = n + 1 + count_b, n + count_a
                checks.append(Check(f"x[{shown},{n}] == x{x}", maps[2 * n - 2] == x_maps[x]))
                checks.append(Check(f"y[{shown},{n}] == y{y}", maps[2 * n - 1] == y_maps[y]))
    return tuple(checks)


def base_generator_words(period: str) -> tuple[Word, ...]:
    """The five generator words for the stabilizer of 10 period^inf."""
    return (
        xn_word(2),
        xn_word(3),
        yn_word(1),
        yn_word(2),
        stabilizer_period_word(period),
    )


def base_rotation(point: RationalPoint) -> str | None:
    """The rotation u of the period with point == 10 u^inf, or None if there is none.

    u is where _landing lands when its word is empty, and unique because the
    period is primitive.  The endpoints, which _landing does not read, get None.
    stabilizer_generators makes the same test on the _landing it keeps.
    """
    if point.is_endpoint():
        return None
    word, j = _landing(point)
    return None if word else point.period[j:] + point.period[:j]


def stabilizer_generators(point: RationalPoint) -> StabilizerGens:
    """Explicit generating set for the stabilizer of a rational point.

    The endpoints 0^inf and 1^inf are fixed by all of F, so they get {x0, x1}.
    If the point is 10 u^inf for some rotation u of its period, the base set
    for u is returned directly; otherwise the base set is conjugated by the
    word h with h(point) = 10 period^inf that _conjugator builds.  Both
    read the one _landing of the point.
    """
    if point in (ZERO_POINT, ONE_POINT):
        return StabilizerGens(point, "", ("a", "b"), point.period)
    w = point.period
    landing = _landing(point)
    word, j = landing
    if not word:
        rotation = w[j:] + w[:j]
        return StabilizerGens(point, "", base_generator_words(rotation), rotation)
    h = _conjugator(w, landing)
    h_inverse = invert_word(h)
    generators = tuple(h + g + h_inverse for g in base_generator_words(w))
    return StabilizerGens(point, h, generators, w)


def _conjugator(w: str, landing: tuple[Word, int]) -> Word:
    """A word moving a point of period w to 10(w), from the point's _landing: its way down to the period cycle, then the arc to 10(w).

    _way_down's word lands on the period cycle that the fifth generator
    closes, and _cycle_arc takes the shorter of its two arcs from there to
    10(W), at place 0.  The word has at most 2|v| + 2|W| letters.  It is
    schreier.find_path's word to 10(W), whose way down is empty; find_path
    itself would also canonicalize 10(W), test the orbit and walk that empty
    way, which raised the stabilizers benchmark's p50 latency by about a
    sixth on a 2-vCPU Xeon.

    The word is the least geodesic of the Schreier graph, the least in
    LETTERS order among the shortest, on every point the tests compare:
    preperiods of at most 12 letters with periods of at most 4, seeded
    preperiods of up to 24 letters, non-base points with preperiods of at
    most 2 letters and periods of at most 10, and 10(W[j:] + W[:j]) for
    |W| <= 10.  Beyond that it is a hypothesis, in line with the one cycle
    with hanging trees of schreier's docstring; it moves the point to the
    base point either way.
    """
    word, place = _way_down(landing, w, 0)
    return word + _cycle_arc(w, place, 0)


def validate_samples(samples: int) -> None:
    """Refuse a verify_generators sample count outside 1..MAX_SAMPLES with ValueError."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {samples}")


def verify_generators(gens: StabilizerGens, samples: int = 100, seed: int = 1) -> Report:
    """Soundness checks for a generating set.

    Every generator must fix the point under both the sequence action and
    exact PL-map evaluation at the point's rational value; seeded random
    products of 1 to MAX_FACTORS generators and their inverses must fix the
    point as well.  The map of a generator is never built: _image_digits
    folds the value's binary digits through the prefix rules of the letter
    maps, so the cost is linear in the word, where the map of a word of n
    letters can have O(n) breakpoints over 2^n, and the image is compared
    by shifts of the numerators.
    Also reports the index reduction identities that collapse the infinite
    Schreier generating set to x2, x3, y1, y2; they do not depend on the
    point, so they are proved once per process.

    When every generator's text is h + m + h^-1 for h = gens.conjugator,
    each oracle folds the point through h once, and then through each m
    from there: p h m = p h exactly when p (h m h^-1) = p, in any action of
    the group, so this trusts nothing of the construction.  Otherwise each
    oracle folds the point through each whole generator, and compares each
    image with the point itself.  Either way it is one call of each
    oracle's kernel.  A word fixes
    the point exactly when its inverse does, so when every generator fixes
    it, so does every product, and the products line passes with no draw:
    for a sound set it is implied by the sequence-action lines, and stays so
    until products are also checked against a generation certificate.
    Only when a generator moves the point are the inverses built and the
    seeded products drawn, each folded factor by factor from the point.
    samples is at most MAX_SAMPLES.
    """
    validate_samples(samples)
    point = gens.point
    text = str(point)
    report = Report(f"stabilizer generators for {text}")
    start = point.preperiod, point.period
    num, den = value = point._ratio()
    h, cores = _split_conjugator(gens)
    tails = ("", *cores) if h else cores
    images = _fold(*start, h, tails)
    values = _image_digits(h, tails, value)
    if h:  # p h m is compared with p h, the image under the empty tail
        reference, (n0, length0) = images.pop(0), values.pop(0)
    else:  # each image is compared with the point itself, value = n0 / (d 2^length0) for d odd
        reference, (n0, length0) = start, (num, (den & -den).bit_length() - 1)
    for k, (image, (n, length)) in enumerate(zip(images, values), start=1):
        report.add(f"generator {k} fixes {text} (sequence action)", image == reference)
        report.add(f"generator {k} fixes {text} (map evaluation)", n << length0 == n0 << length)
    bad = 0
    if any(image != reference for image in images):
        pool = gens.generators + tuple(invert_word(g) for g in gens.generators)
        rng = SplitMix64(seed)
        for _ in range(samples):
            image = start
            for _ in range(1 + rng.below(MAX_FACTORS)):
                image = _fold(*image, "", (pool[rng.below(len(pool))],))[0]
            if image != start:
                bad += 1
    report.add(f"{samples} seeded random products (seed {seed}) fix {text}", bad == 0)
    report.checks.extend(_index_identities())
    return report


def _split_conjugator(gens: StabilizerGens) -> tuple[Word, tuple[Word, ...]]:
    """(h, the words m) when every generator's text is h + m + h^-1 for h = gens.conjugator; ("", the generators) otherwise."""
    h, generators = gens.conjugator, gens.generators
    if not h:
        return "", generators
    k, h_inverse = len(h), invert_word(h)
    if all(len(g) >= 2 * k and g.startswith(h) and g.endswith(h_inverse) for g in generators):
        return h, tuple(g[k : len(g) - k] for g in generators)
    return "", generators


@functools.cache
def _index_identities() -> tuple[Check, ...]:
    """The x_n and y_n identities of verify_generators."""
    checks = []
    x2, x3 = xn(2), xn(3)
    for n in range(4, 9):
        k = n - 3
        checks.append(Check(f"x{n} == x2^{k} x3 x2^-{k}", (x2 ** k) * x3 * (x2 ** -k) == xn(n)))
    y1, y2 = yn(1), yn(2)
    for n in range(3, 9):
        k = n - 2
        checks.append(Check(f"y{n} == y1^{k} y2 y1^-{k}", (y1 ** k) * y2 * (y1 ** -k) == yn(n)))
    return tuple(checks)


def check_stabilizer_relators() -> Report:
    """The eight relators that present the stabilizer of a base point.

    Both defining relators of F transported to <x2, x3> and to <y1, y2>,
    plus the four commutators [x_i, y_j] for i in {2, 3}, j in {1, 2}.
    They do not depend on the point, so they are proved once per process.
    """
    return Report("stabilizer relators", list(_stabilizer_relators()))


@functools.cache
def _stabilizer_relators() -> tuple[Check, ...]:
    checks = []
    ident = identity()
    for tag, g0, g1 in (("x2,x3", xn_word(2), xn_word(3)), ("y1,y2", yn_word(1), yn_word(2))):
        first, second = relator_words(g0, g1)
        checks.append(Check(f"first relator of F transported to <{tag}>", word_to_plmap(first) == ident))
        checks.append(Check(f"second relator of F transported to <{tag}>", word_to_plmap(second) == ident))
    for i in (2, 3):
        for j in (1, 2):
            checks.append(Check(f"[x{i}, y{j}] == 1", word_to_plmap(commutator(xn_word(i), yn_word(j))) == ident))
    return tuple(checks)


def check_twin_points(prefix: str) -> Report:
    """Stabilizers of the twin sequences prefix10^inf and prefix01^inf agree.

    The two sequences denote the same number in [0, 1], so each point's
    generating set must fix the other point as well.  The checks depend on
    the prefix only, so each prefix is proved once per process; every call
    gets a fresh Report.
    """
    p = canonicalize(prefix + "1", "0")
    q = canonicalize(prefix + "0", "1")
    return Report(f"twin stabilizers of {p} and {q}", list(_twin_checks(p, q)))


@functools.cache
def _twin_checks(p: RationalPoint, q: RationalPoint) -> tuple[Check, ...]:
    """The checks of check_twin_points for the twin points p and q."""
    checks = []
    for this, twin in ((p, q), (q, p)):
        for k, word in enumerate(stabilizer_generators(this).generators, start=1):
            checks.append(Check(f"generator {k} of {this} fixes twin {twin}", act_word(twin, word) == twin))
    return tuple(checks)


def format_generators(gens: StabilizerGens) -> str:
    """Text form: a header line, then one generator word per line."""
    lines = [f"# point={gens.point} h={format_word(gens.conjugator)} w={gens.period}"]
    lines.extend(format_word(word) for word in gens.generators)
    return "\n".join(lines) + "\n"


def generators_to_json(gens: StabilizerGens) -> str:
    import json  # here, not at the top: no other command pays for loading it

    payload = {
        "point": str(gens.point),
        "h": format_word(gens.conjugator),
        "w": gens.period,
        "generators": [format_word(word) for word in gens.generators],
    }
    return json.dumps(payload)
