import functools
from fractions import Fraction
from itertools import chain, product

import pytest

from oracles import LETTER_BREAKPOINTS, fraction_breakpoints, fraction_compose, fraction_image, fraction_to_vw, naive_act
from sampling import LETTERS, random_word
from thompsonf import cantor, plmap
from thompsonf.dyadic import Dyadic
from thompsonf.plmap import (
    MAX_DEPTH,
    InvalidPLMapError,
    PLMap,
    TextCapacityError,
    check_relators,
    evaluate_word,
    flip,
    generator_x0,
    generator_x1,
    identity,
    letter_map,
    word_to_plmap,
    xn,
    yn,
)
from thompsonf.rng import SplitMix64
from thompsonf.words import commutator, conjugate, invert_word, parse_word, relator_words, xn_word, yn_word

F = Fraction


def frs(m: PLMap) -> list[tuple[Fraction, Fraction]]:
    return [(t.as_fraction(), y.as_fraction()) for t, y in m.breakpoints]


def test_generator_breakpoint_tables():
    assert frs(generator_x0()) == [(F(0), F(0)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2)), (F(1), F(1))]
    assert frs(generator_x1()) == [
        (F(0), F(0)),
        (F(1, 2), F(1, 2)),
        (F(3, 4), F(5, 8)),
        (F(7, 8), F(3, 4)),
        (F(1), F(1)),
    ]


def test_generator_evaluation():
    x0, x1 = generator_x0(), generator_x1()
    assert x0.evaluate(F(1, 2)) == F(1, 4)
    assert x0.evaluate(F(3, 4)) == F(1, 2)
    assert x1.evaluate(F(1, 2)) == F(1, 2)
    assert x1.evaluate(F(7, 8)) == F(3, 4)


def test_evaluation_at_general_rationals():
    assert generator_x0().evaluate(F(17, 30)) == F(19, 60)
    assert generator_x1().evaluate(F(4, 15)) == F(4, 15)


def test_endpoints_always_fixed():
    for word in ("a", "b", "AbaB", "aabAA"):
        m = word_to_plmap(parse_word(word))
        assert m.evaluate(0) == 0
        assert m.evaluate(1) == 1


def test_evaluate_rejects_out_of_range_and_floats():
    with pytest.raises(ValueError):
        generator_x0().evaluate(F(3, 2))
    with pytest.raises(ValueError):
        generator_x0().evaluate(-1)
    with pytest.raises(TypeError):
        generator_x0().evaluate(0.5)


def test_evaluate_word_matches_the_built_map():
    # the digit fold through the prefix rules of the letter maps against evaluating the whole map
    rng = SplitMix64(67)
    special = [F(0), F(1), F(1, 2), F(3, 4), F(7, 8), F(1, 4), F(5, 8)]
    seen = {"empty word": 0, "special t": 0, "dyadic t": 0, "non-dyadic t": 0, "long word": 0}
    for case in range(2400):
        word = "" if case % 40 == 0 else random_word(rng, 200 if case % 4 == 0 else 12)
        kind = case % 3
        if kind == 0:
            t = special[rng.below(len(special))]
            seen["special t"] += 1
        elif kind == 1:
            e = rng.below(40)
            t = F(rng.below((1 << e) + 1), 1 << e)
            seen["dyadic t"] += t.denominator > 8
        else:
            q = (3 + 2 * rng.below(5000)) << rng.below(12)
            t = F(rng.below(q + 1), q)
            seen["non-dyadic t"] += t.denominator & (t.denominator - 1) != 0
        seen["empty word"] += word == ""
        seen["long word"] += len(word) > 100
        m = word_to_plmap(word)
        assert evaluate_word(word, t) == m.evaluate(t), (word, t)
        if case % 10 == 0:  # the word's own breakpoints, where two pieces of some letter meet
            for b, y in m.breakpoints:
                assert evaluate_word(word, b.as_fraction()) == y.as_fraction()
    assert min(seen.values()) >= 50, seen


def test_evaluate_word_on_values_wider_than_its_low_bits():
    # denominators of 2^64 to 2^300 times an odd part: 64 to 300 leading
    # digits in the list, and a tail of at most 11 bits
    rng = SplitMix64(71)
    for case in range(300):
        word = random_word(rng, 60)
        a = 64 + rng.below(237)
        bits = int("".join("01"[rng.below(2)] for _ in range(a)), 2)  # below(n) takes n < 2^64 only
        t = F(bits | (case % 2), (1 + 2 * rng.below(1000)) << a)
        assert evaluate_word(word, t) == word_to_plmap(word).evaluate(t), (word, t)


def test_evaluate_word_reads_the_tail_in_chunks():
    # odd parts of 2 to 300 bits: a run of x0^-1 reads the tail a chunk of
    # 24 digits at a time, and the run of x0 after it puts the digits back
    rng = SplitMix64(73)
    for _ in range(80):
        bits = 2 + rng.below(299)
        d = int("1" + "".join("01"[rng.below(2)] for _ in range(bits - 2)) + "1", 2)
        t = F(1 + rng.below(min(d - 1, 1 << 63)), d << rng.below(4))
        n = rng.below(300)
        word = "A" * n + random_word(rng, 20) + "a" * n
        assert evaluate_word(word, t) == word_to_plmap(word).evaluate(t), (word, t)


def _random_int(rng: SplitMix64, bits: int) -> int:
    return int("".join(format(rng.next_u64(), "064b") for _ in range(-(-bits // 64)))[:bits] or "0", 2)


def test_evaluate_word_reads_deep_into_long_tails():
    # odd parts of 3, 1000 and 131,072 bits, against the built map.  A value
    # r / d below 2^-(bits - 40) starts with that many zeros, which a run of
    # x0^-1 reads a digit per letter, deep into the tail, one division of r
    # per 24 digits.
    rng = SplitMix64(101)
    for bits in (3, 1000, 131_072):
        d = _random_int(rng, bits) | 1 << (bits - 1) | 1
        for case in range(12):
            r = 1 + _random_int(rng, min(40, bits - 1)) if case % 2 else 1 + _random_int(rng, bits) % (d - 1)
            t = F(r, d << rng.below(3))
            n = rng.below(min(bits, 2000))
            word = "A" * n + random_word(rng, 30) + "a" * rng.below(n + 1)
            assert evaluate_word(word, t) == word_to_plmap(word).evaluate(t), (bits, case, word)


def test_evaluate_word_matches_the_built_map_past_the_window():
    # values p / (d 2^k) with k of 61 to 120 and an odd d of 65 to 164 bits:
    # the k digits of the dyadic part start as several chunks of 24 behind
    # the window, which holds fewer than 30, and each chunk of the tail
    # takes a division by d.  Below 1 / 2^k the dyadic digits are all 0, and
    # a run of more than k x0^-1 drains the window through them into the
    # tail; a run of more than 32 x0 on a leading 0 spills the window.
    rng = SplitMix64(89)
    kinds = dict.fromkeys(("into the tail", "spilled", "odd word", "even word", "empty word"), 0)
    for case in range(20_000):
        k = 61 + rng.below(60)
        d = _random_int(rng, 64 + rng.below(100)) | 1 << 64 | 1
        den = d << k
        if case % 4 == 0:  # below 1 / 2^k
            t = F(_random_int(rng, 200) % d, den)
        else:
            t = F(_random_int(rng, den.bit_length()) % (den + 1), den)
        if case % 50 == 0:
            word = ""
        elif case % 20 == 4:
            word = "A" * (k + 1 + rng.below(40)) + random_word(rng, 3)
            kinds["into the tail"] += 1
        elif case % 20 == 1:
            word = "a" * (33 + rng.below(8)) + random_word(rng, 3)
            kinds["spilled"] += t < F(1, 2)
        else:
            word = random_word(rng, 10)
        assert evaluate_word(word, t) == word_to_plmap(word).evaluate(t), (word, t)
        kinds["odd word" if len(word) % 2 else "even word" if word else "empty word"] += 1
    assert min(kinds.values()) >= 300, kinds


def test_image_digits_of_a_prefix_and_tails_match_each_whole_word():
    # _image_digits folds the prefix once and each tail from a copy of its
    # state, with an odd last letter of the prefix carried into each tail;
    # every image must be that of the whole word, folded letter by letter
    # on Fractions, also where the prefix drains the window into t's tail,
    # and with t given in lowest terms or not
    rng = SplitMix64(103)
    kinds = dict.fromkeys(("odd prefix", "even prefix", "empty prefix", "empty tail", "long prefix", "endpoint"), 0)
    for case in range(2000):
        k = rng.below(40)
        d = (1, 3, 5, 7, 11, 13, 1023, 65537)[rng.below(8)]
        t = F(rng.below((d << k) + 1), d << k)
        if case % 10 == 0:
            prefix = ""
        elif case % 10 == 1:
            prefix = rng.choice("aA") * (30 + rng.below(40)) + random_word(rng, 3)
        else:
            prefix = random_word(rng, 12)
        tails = [random_word(rng, 8) if rng.below(4) else "" for _ in range(1 + rng.below(4))]
        tails.append(tails[0])
        c = (1, 3, 4, 21)[case % 4]  # t in lowest terms, or not: by an odd factor, a power of two or both
        den = t.denominator * c
        odd = den // (den & -den)
        expected = [fraction_image(prefix + tail, t) for tail in tails]
        images = plmap._image_digits(prefix, tails, (t.numerator * c, den))
        assert [F(n, odd << length) for n, length in images] == expected, (t, c, prefix, tails)
        kinds["empty prefix" if not prefix else "odd prefix" if len(prefix) % 2 else "even prefix"] += 1
        kinds["empty tail"] += "" in tails
        kinds["long prefix"] += len(prefix) > 32
        kinds["endpoint"] += t in (0, 1)
    assert min(kinds.values()) >= 25, kinds


def test_prefix_rules_of_the_letter_maps_are_the_sequence_rules():
    # read off the maps at run time, and equal to the table the sequence action keeps on its own
    assert {letter: plmap._prefix_rules(m) for letter, m in plmap._LETTER_MAPS.items()} == cantor._RULES


def test_prefix_rules_tile_the_interval_and_are_what_the_map_does():
    # the rules of any map, reduced or not: the left sides, read in order,
    # are consecutive standard dyadic intervals from 0 to 1, so they form a
    # complete prefix code, and so are the right sides; the map sends each
    # left side's ends and midpoint onto those of its right side
    def interval(address: str) -> tuple[Fraction, Fraction]:
        lo = F(int(address or "0", 2), 1 << len(address))
        return lo, lo + F(1, 1 << len(address))

    rng = SplitMix64(107)
    maps = [word_to_plmap(random_word(rng, 12)) for _ in range(500)]
    maps += [xn(n) for n in range(2, 7)] + [yn(n) for n in range(1, 6)]
    for m in maps:
        rules = plmap._prefix_rules(m)
        for side in (0, 1):
            ends = [interval(rule[side]) for rule in rules]
            assert ends[0][0] == 0 and ends[-1][1] == 1 and all(a[1] == b[0] for a, b in zip(ends, ends[1:])), m
        for lhs, rhs in rules:
            (t0, t1), (y0, y1) = interval(lhs), interval(rhs)
            assert [m.evaluate(t) for t in (t0, (t0 + t1) / 2, t1)] == [y0, (y0 + y1) / 2, y1], (m, lhs, rhs)


def test_evaluate_word_refuses_what_evaluate_refuses():
    assert evaluate_word("ab", 1) == 1 and evaluate_word("ab", 0) == 0
    with pytest.raises(ValueError):
        evaluate_word("a", F(3, 2))
    with pytest.raises(ValueError):
        evaluate_word("a", -1)
    with pytest.raises(TypeError):
        evaluate_word("a", 0.5)


def test_compose_inverse_and_identity_laws():
    x0, x1 = generator_x0(), generator_x1()
    assert x0 * x0.inverse() == identity()
    assert identity() * x1 == x1
    assert (x0 * x1).evaluate(F(7, 8)) == F(5, 8)


def test_inverse_swaps_breakpoints():
    x0 = generator_x0()
    assert x0.inverse().evaluate(F(1, 4)) == F(1, 2)
    assert x0.inverse().inverse() == x0
    assert identity().inverse() == identity()
    assert generator_x1().inverse().inverse() == generator_x1()


def test_equality_is_exact_breakpoint_equality():
    assert generator_x0() == generator_x0()
    assert generator_x0() != generator_x1()


def test_defining_relator_gives_identity_map():
    # [x1^-1 x0, x0 x1 x0^-1] reduces to the identity homeomorphism
    relator = commutator(parse_word("Ba"), parse_word("abA"))
    assert word_to_plmap(relator) == identity()


def test_word_to_plmap_basics():
    assert word_to_plmap("") == identity()
    assert word_to_plmap(parse_word("aA")) == identity()
    assert word_to_plmap(parse_word("abA")) == xn(2)


def test_conjugated_word_matches_map_product():
    word = conjugate("b", "a")
    assert word_to_plmap(word) == xn(2)
    h = word_to_plmap("a")
    assert word_to_plmap(word) == h * generator_x1() * h.inverse()


def test_letter_map_inverses():
    for letter in LETTERS:
        assert letter_map(letter) * letter_map(invert_word(letter)) == identity()


def test_validation_rejects_bad_data():
    d = Dyadic
    with pytest.raises(InvalidPLMapError):
        PLMap(((d(0), d(0)), (d(1, 1), d(1, 1))))  # missing (1, 1) endpoint
    with pytest.raises(InvalidPLMapError):
        PLMap(((d(0), d(0)), (d(1, 1), d(3, 2)), (d(3, 2), d(1, 1)), (d(1), d(1))))  # not increasing
    with pytest.raises(InvalidPLMapError):
        # slope 3 on the first segment
        PLMap(((d(0), d(0)), (d(1, 2), d(3, 2)), (d(1), d(1))))
    with pytest.raises(InvalidPLMapError):
        PLMap(((d(0), d(0)), (d(1, 1), d(5, 2)), (d(1), d(1))))  # range above 1? value 5/4
    with pytest.raises(ValueError):
        PLMap.from_fractions([(F(0), F(0)), (F(1, 3), F(1, 3)), (F(1), F(1))])  # non-dyadic cut


def _reference_validate(points):
    """The validator as it was before the integer one: Fractions from each Dyadic."""
    if len(points) < 2:
        raise InvalidPLMapError("need at least the two endpoint breakpoints")
    for t, y in points:
        if not (0 <= t.as_fraction() <= 1 and 0 <= y.as_fraction() <= 1):
            raise InvalidPLMapError(f"breakpoint ({t}, {y}) outside the unit square")
    if points[0] != (Dyadic(0), Dyadic(0)) or points[-1] != (Dyadic(1), Dyadic(1)):
        raise InvalidPLMapError("endpoints must be fixed: (0, 0) and (1, 1)")
    for (t0, y0), (t1, y1) in zip(points, points[1:]):
        if not (t0.as_fraction() < t1.as_fraction() and y0.as_fraction() < y1.as_fraction()):
            raise InvalidPLMapError(f"breakpoints not strictly increasing near ({t1}, {y1})")
        slope = (y1.as_fraction() - y0.as_fraction()) / (t1.as_fraction() - t0.as_fraction())
        if slope.numerator & (slope.numerator - 1) or slope.denominator & (slope.denominator - 1):
            raise InvalidPLMapError(f"slope {slope} on [{t0}, {t1}] is not a power of two")


def _verdict(check, points):
    """None when check accepts points, else the text of its InvalidPLMapError."""
    try:
        check(points)
    except InvalidPLMapError as exc:
        return str(exc)
    return None


def _corruptions(rng, points):
    """Seeded broken copies of a valid breakpoint list, one of each kind, by name."""
    d = Dyadic.from_fraction
    pts = [(t.as_fraction(), y.as_fraction()) for t, y in points]
    i = 1 + rng.below(len(pts) - 3)  # pts[i] and pts[i + 1] are interior
    k = rng.below(len(pts) - 1)  # a segment
    (t0, y0), (t1, _) = pts[k], pts[k + 1]
    step = min(t1 - t0, 1 - y0) / 4
    cases = {
        "swapped": pts[:i] + [pts[i + 1], pts[i]] + pts[i + 2:],
        "slope 3": pts[:k + 1] + [(t0 + step, y0 + 3 * step)] + pts[k + 1:],
        "missing endpoint": pts[1:] if rng.below(2) else pts[:-1],
        "outside": pts[:i] + [(pts[i][0], F(5, 4) if rng.below(2) else F(-1, 8))] + pts[i + 1:],
        "equal t": pts[:i] + [(pts[i - 1][0], pts[i][1])] + pts[i + 1:],
    }
    return {name: tuple((d(t), d(y)) for t, y in c) for name, c in cases.items()}


def test_integer_validator_agrees_with_the_fraction_reference():
    rng = SplitMix64(43)
    d = Dyadic
    valid = [m.breakpoints for m in (identity(), generator_x0(), generator_x1(), xn(5), yn(3))]
    for _ in range(60):
        m = word_to_plmap(random_word(rng, 1 + rng.below(30)))
        valid += [m.breakpoints, m.inverse().breakpoints, flip(m).breakpoints]
    # collinear points are valid input too: the constructor drops them
    valid.append(((d(0), d(0)), (d(1, 3), d(1, 3)), (d(1, 1), d(1, 1)), (d(1), d(1))))
    messages = {}
    for points in valid:
        assert _verdict(_reference_validate, points) is None
        assert _verdict(PLMap, points) is None
        if len(points) < 4:
            continue
        for name, broken in _corruptions(rng, points).items():
            expected = _verdict(_reference_validate, broken)
            assert expected is not None, (name, broken)
            assert _verdict(PLMap, broken) == expected, (name, broken)
            messages.setdefault(name, set()).add(expected.split(" ")[0])
    for points in ((), ((d(0), d(0)),), ((d(1), d(1)), (d(0), d(0)))):
        assert _verdict(PLMap, points) == _verdict(_reference_validate, points) is not None
    assert set(messages) == {"swapped", "slope 3", "missing endpoint", "outside", "equal t"}
    assert messages["slope 3"] == {"slope"} and messages["outside"] == {"breakpoint"}
    assert messages["missing endpoint"] == {"endpoints"}
    assert messages["equal t"] == {"breakpoints"}
    assert messages["swapped"] == {"breakpoints", "slope"}  # the point before the pair can go either way


def test_closed_forms_equal_their_validated_and_word_forms():
    maps = [identity(), generator_x0(), generator_x1()] + [letter_map(letter) for letter in LETTERS]
    for n in range(1, 41):
        assert xn(n) == word_to_plmap(xn_word(n))
        assert yn(n) == word_to_plmap(yn_word(n))
        maps += [xn(n), yn(n)]
    for m in maps:
        leaves = (m._d, m._r)
        rebuilt = PLMap(m.breakpoints)
        assert rebuilt == m and hash(rebuilt) == hash(m)
        # built reduced: the constructor's diagram, once reduced, is the closed form's leaf for leaf
        assert (rebuilt._d, rebuilt._r) == (m._d, m._r) == leaves
        assert _common_carets(m) == []


def test_collinear_interior_points_are_dropped():
    d = Dyadic
    m = PLMap(((d(0), d(0)), (d(1, 1), d(1, 1)), (d(1), d(1))))
    assert m == identity()
    assert len(m.breakpoints) == 2


def test_every_operation_produces_valid_breakpoints():
    # products, inverses and flips are built without validation, so the
    # validating constructor must accept their breakpoints unchanged; spot
    # invariant: all coordinates dyadic in [0, 1], slopes powers of two
    rng = SplitMix64(11)
    words = [random_word(rng, 14) for _ in range(40)] + [parse_word("ab" * 30)]
    for word in words:
        product = word_to_plmap(word)
        for m in (product, product.inverse(), flip(product)):
            rebuilt = PLMap(m.breakpoints)
            assert rebuilt == m
            assert hash(rebuilt) == hash(m)
            assert len(rebuilt.breakpoints) == len(m.breakpoints)
            pts = frs(m)
            for t, y in pts:
                assert 0 <= t <= 1 and 0 <= y <= 1
                assert t.denominator & (t.denominator - 1) == 0 and y.denominator & (y.denominator - 1) == 0
            slopes = set()
            for (t0, y0), (t1, y1) in zip(pts, pts[1:]):
                slopes.add((y1 - y0) / (t1 - t0))
            for s in slopes:
                assert s.numerator & (s.numerator - 1) == 0
                assert s.denominator & (s.denominator - 1) == 0
    assert len(word_to_plmap(words[-1]).breakpoints) == 64


def test_composition_is_associative_on_random_words():
    rng = SplitMix64(17)
    for _ in range(60):
        f = word_to_plmap(random_word(rng, 10))
        g = word_to_plmap(random_word(rng, 10))
        h = word_to_plmap(random_word(rng, 10))
        assert (f * g) * h == f * (g * h)


def test_word_inverse_matches_map_inverse():
    rng = SplitMix64(23)
    for _ in range(60):
        word = random_word(rng, 30)
        assert word_to_plmap(invert_word(word)) == word_to_plmap(word).inverse()


def test_powers():
    x0 = generator_x0()
    assert x0 ** 0 == identity()
    assert x0 ** 3 == x0 * x0 * x0
    assert x0 ** -2 == (x0.inverse()) * (x0.inverse())
    rng = SplitMix64(29)
    maps = [generator_x0(), generator_x1()] + [word_to_plmap(random_word(rng, 8)) for _ in range(6)]
    for m in maps:
        for k in range(-9, 10):
            expected = identity()
            for _ in range(abs(k)):
                expected = expected.compose(m if k >= 0 else m.inverse())
            assert m ** k == expected


def test_xn_closed_form_tables():
    assert xn(1) == generator_x1()
    assert frs(xn(2)) == [
        (F(0), F(0)),
        (F(3, 4), F(3, 4)),
        (F(7, 8), F(13, 16)),
        (F(15, 16), F(7, 8)),
        (F(1), F(1)),
    ]
    assert xn(2).evaluate(F(3, 4)) == F(3, 4)
    assert xn(2).evaluate(F(7, 8)) == F(13, 16)
    with pytest.raises(ValueError):
        xn(0)


def test_xn_matches_its_defining_word():
    for n in range(1, 9):
        assert xn(n) == word_to_plmap(xn_word(n))


def test_yn_closed_form_tables():
    assert frs(yn(1)) == [
        (F(0), F(0)),
        (F(1, 8), F(1, 4)),
        (F(1, 4), F(3, 8)),
        (F(1, 2), F(1, 2)),
        (F(1), F(1)),
    ]
    assert yn(1).evaluate(F(1, 8)) == F(1, 4)
    assert yn(1).evaluate(F(1, 4)) == F(3, 8)
    assert yn(2).evaluate(F(3, 4)) == F(3, 4)
    with pytest.raises(ValueError):
        yn(0)


def test_yn_matches_its_defining_word():
    for n in range(1, 9):
        assert yn(n) == word_to_plmap(yn_word(n))


def test_flip_is_an_involution():
    rng = SplitMix64(31)
    for _ in range(40):
        m = word_to_plmap(random_word(rng, 12))
        assert flip(flip(m)) == m


def test_flip_is_a_homomorphism():
    rng = SplitMix64(37)
    for _ in range(40):
        f = word_to_plmap(random_word(rng, 12))
        g = word_to_plmap(random_word(rng, 12))
        assert flip(f * g) == flip(f) * flip(g)


def test_flip_swaps_generator_families():
    assert flip(identity()) == identity()
    assert flip(generator_x0()) == generator_x0().inverse()
    for n in range(1, 9):
        assert flip(xn(n)) == yn(n)


def test_check_relators_all_pass_at_depth_eight():
    report = check_relators(8)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "[x1^-1 x0, x0 x1 x0^-1] == 1" in names
    assert "x1 x2 x1^-1 == x3" in names
    assert "[x2, y1] == 1" in names
    with pytest.raises(ValueError):
        check_relators(1)
    with pytest.raises(ValueError, match="depth must be <= 64, got 65"):
        check_relators(65)


def _relator_lines(depth):
    """The report lines of check_relators, each identity proved afresh in the same order."""
    first, second = relator_words("a", "b")
    checks = [
        ("[x1^-1 x0, x0 x1 x0^-1] == 1", word_to_plmap(first) == identity()),
        ("[x1^-1 x0, x0^2 x1 x0^-2] == 1", word_to_plmap(second) == identity()),
    ]
    xs = [generator_x0()] + [xn(k) for k in range(1, depth + 2)]
    checks += [
        (f"x{k} x{n} x{k}^-1 == x{n + 1}", xs[k] * xs[n] * xs[k].inverse() == xs[n + 1])
        for k in range(depth + 1)
        for n in range(k + 1, depth + 1)
    ]
    checks += [
        (f"y{k} y{n} y{k}^-1 == y{n + 1}", yn(k) * yn(n) * yn(k).inverse() == yn(n + 1))
        for k in range(1, depth + 1)
        for n in range(k + 1, depth + 1)
    ]
    checks += [(f"[x{i}, y{j}] == 1", xn(i) * yn(j) == yn(j) * xn(i)) for i in range(1, depth + 1) for j in range(1, depth + 1)]
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    return lines + [f"relators: {len(checks)} checks, all passed"]


def test_check_relators_proves_each_depth_once(monkeypatch):
    expected = {depth: _relator_lines(depth) for depth in range(2, 9)}
    for depth, lines in expected.items():
        assert check_relators(depth).lines() == lines
    calls = []
    compose = PLMap.compose
    monkeypatch.setattr(PLMap, "compose", lambda self, other: calls.append(1) or compose(self, other))
    for depth, lines in expected.items():
        report = check_relators(depth)
        assert report.lines() == lines
        report.add("extra", False)  # a caller's report is its own: the cached checks stay as they were
        assert check_relators(depth).lines() == lines
    assert calls == []


def _string_oracle_image(word, t):
    """Image of t: prefix rewriting on its binary expansion, read back as a number."""
    prefix, period = fraction_to_vw(t)
    for letter in word:
        prefix, period = naive_act(prefix, period, letter)
    top = (1 << len(period)) - 1
    return F(int("0" + prefix, 2) * top + int(period, 2), top << len(prefix))


def _common_carets(m):
    """Indices k where leaves k and k + 1 are siblings in both trees of m's diagram, from Fraction positions."""

    def siblings(depths):
        starts = [F(0)]
        for d in depths:
            starts.append(starts[-1] + F(1, 2 ** d))
        return {k for k in range(len(depths) - 1) if depths[k] == depths[k + 1] and (starts[k] * 2 ** (depths[k] - 1)).denominator == 1}

    return sorted(siblings(m._d) & siblings(m._r))


def test_integer_kernel_agrees_with_evaluation_and_the_oracles():
    # slope 8 on [1/4, 9/32], over y = 1/2: composed with x0, a breakpoint at
    # 65/256, where the leaves of the product are finer than those of both factors
    steep = PLMap.from_fractions(
        [(F(0), F(0)), (F(7, 32), F(7, 16)), (F(1, 4), F(15, 32)), (F(9, 32), F(23, 32)),
         (F(19, 32), F(7, 8)), (F(31, 32), F(31, 32)), (F(1), F(1))]
    )
    x0 = generator_x0()
    assert F(65, 256) in {t.as_fraction() for t, _ in (steep * x0).breakpoints}
    rng = SplitMix64(41)
    words = [commutator(random_word(rng, 15), random_word(rng, 15)) for _ in range(4)]
    words += [random_word(rng, 200) for _ in range(10)] + [parse_word("ab" * 100)]
    # small cases first, so that a kernel whose leaves run away fails before it stalls
    pairs = chain(
        [(None, steep, x0), (None, x0, steep.inverse()), (None, steep, steep)],
        ((u + v, word_to_plmap(u), word_to_plmap(v)) for u, v in zip(words, words[1:])),
    )
    reduced_somewhere = 0
    for word, f, g in pairs:
        h = f * g
        assert len(h._d) <= len(f._d) + len(g._d) - 1
        unreduced = len(h._d)
        for m in (f, g, h):
            rebuilt = PLMap(m.breakpoints)
            assert rebuilt == m and hash(rebuilt) == hash(m)
            # the reduced diagram is unique: the constructor's and the product's agree leaf for leaf, with no common caret
            assert (rebuilt._d, rebuilt._r) == (m._d, m._r)
            assert _common_carets(m) == []
        reduced_somewhere += len(h._d) < unreduced
        if word is not None:
            other = word_to_plmap(word)
            assert other == h and (other._d, other._r) == (h._d, h._r)
        probes = {t.as_fraction() for m in (f, g) for t, _ in m.breakpoints}
        probes |= {f.preimage(t) for t in set(probes)}
        for _ in range(20):
            q = 3 + 2 * rng.below(500)
            probes.add(F(1 + rng.below(q - 1), q))
        for t in probes:
            assert h.evaluate(t) == g.evaluate(f.evaluate(t))
        if word is not None:
            for t, y in h.breakpoints:
                assert _string_oracle_image(word, t.as_fraction()) == y.as_fraction()
    assert reduced_somewhere >= 5


def _left_fold(word):
    """Reference product: the letter maps composed one at a time, left to right, without the piece memo or the split."""
    return functools.reduce(PLMap.compose, map(letter_map, word), identity())


def _reduced_length(word):
    stack = []
    for letter in word:
        if stack and stack[-1] == invert_word(letter):
            stack.pop()
        else:
            stack.append(letter)
    return len(stack)


def test_product_tree_matches_the_left_fold():
    rng = SplitMix64(53)
    words = ["".join([rng.choice(LETTERS) for _ in range(n)]) for n in range(0, 301, 2)]
    words += [(x + y) * k for x in LETTERS for y in LETTERS for k in (1, 2, 7, 40, 75)]
    words += [commutator(random_word(rng, 40), random_word(rng, 40)) for _ in range(30)]
    for _ in range(30):  # long cancelling runs inside, and words that reduce to nothing
        u, v, w = random_word(rng, 30), random_word(rng, 30), random_word(rng, 100)
        words.append(u + w + invert_word(w) + v)
        words.append(w + u + invert_word(u) + invert_word(w))
    words += ["b" * 150 + "B" * 150, "aA" * 60]
    assert len(words) >= 300
    assert max(map(len, words)) == 300
    assert {_reduced_length(w) % 2 for w in words} == {0, 1}
    assert sum(_reduced_length(w) == 0 for w in words) >= 30
    for word in words:
        m = word_to_plmap(word)
        assert m == _left_fold(word)
        assert PLMap(m.breakpoints) == m


def test_product_tree_work_is_n_log_n(monkeypatch):
    compose = PLMap.compose
    work = {"calls": 0, "leaves": 0}

    def counted(self, other):
        work["calls"] += 1
        work["leaves"] += len(self._d) + len(other._d)
        return compose(self, other)

    monkeypatch.setattr(PLMap, "compose", counted)
    rng = SplitMix64(61)
    for word in (parse_word("ab" * 512), "".join([rng.choice(LETTERS) for _ in range(1024)])):
        work.update(calls=0, leaves=0)
        word_to_plmap(word)
        assert work["calls"] > 0
        assert work["leaves"] <= 2 * 1024 * 10  # 2 n log2 n for n = 1024
    work.update(calls=0, leaves=0)
    assert word_to_plmap(parse_word("abBA" * 100 + "aBbA")) == identity()
    assert work["calls"] == 0


def _planted_words(rng, count, max_len):
    """Random words with x x^-1 pairs planted at every offset mod 6, so that cancellations cross piece boundaries."""
    words = []
    for k in range(count):
        planted = 1 + rng.below(4)
        word = "".join([rng.choice(LETTERS) for _ in range(rng.below(max_len - 2 * planted + 1))])
        for j in range(planted):
            at = min(6 * rng.below(len(word) // 6 + 1) + (k + j) % 6, len(word))
            x = rng.choice(LETTERS)
            word = word[:at] + x + x.swapcase() + word[at:]
        words.append(word)
    return words


def test_word_to_plmap_matches_the_left_fold_on_every_short_word():
    words = ["".join(letters) for n in range(1, 7) for letters in product(LETTERS, repeat=n)]
    assert len(words) == 5460
    for word in words:
        assert word_to_plmap(word) == _left_fold(word)


def test_word_to_plmap_matches_the_left_fold_across_piece_boundaries():
    rng = SplitMix64(67)
    words = _planted_words(rng, 300, 400)
    assert max(map(len, words)) <= 400
    assert {len(w) % 6 for w in words} == set(range(6))
    assert {_reduced_length(w) % 6 for w in words} == set(range(6))
    for word in words:
        assert word_to_plmap(word) == _left_fold(word)


def test_piece_memo_holds_only_short_reduced_words(monkeypatch):
    keys = []

    def recorded(text):
        keys.append(text)
        return build(text)

    build = plmap._piece.__wrapped__
    monkeypatch.setattr(plmap, "_piece", functools.cache(recorded))
    rng = SplitMix64(73)
    for word in _planted_words(rng, 2000, 120):
        word_to_plmap(word)
    assert len(keys) == len(set(keys)) == plmap._piece.cache_info().currsize
    assert 1000 < len(keys) <= 4 * (1 + 3 + 9 + 27 + 81 + 243) == 1456
    assert all(0 < len(key) <= 6 and _reduced_length(key) == len(key) for key in keys)


def _fractions(m):
    return tuple((t.as_fraction(), y.as_fraction()) for t, y in m.breakpoints)


def _prefixes_agree(word):
    """Compare the map of every prefix of the word with the Fraction fold, which passes through each prefix."""
    points = fraction_breakpoints("")
    assert _fractions(word_to_plmap("")) == points
    for k, letter in enumerate(word, start=1):
        points = fraction_compose(points, LETTER_BREAKPOINTS[letter])
        assert _fractions(word_to_plmap(word[:k])) == points, word[:k]
    return len(word) + 1


def test_breakpoints_match_the_fraction_fold():
    rng = SplitMix64(83)
    kinds = dict.fromkeys(("prefix of a 300-letter word", "(xy)^k", "commutator", "planted"), 0)
    for _ in range(8):
        kinds["prefix of a 300-letter word"] += _prefixes_agree("".join([rng.choice(LETTERS) for _ in range(300)]))
    for x, y in product(LETTERS, repeat=2):
        if x.lower() != y.lower():  # both generators: the breakpoints grow with k
            kinds["(xy)^k"] += _prefixes_agree((x + y) * 40) // 2
    for _ in range(150):
        word = commutator(random_word(rng, 30), random_word(rng, 30))
        assert _fractions(word_to_plmap(word)) == fraction_breakpoints(word), word
        kinds["commutator"] += 1
    for word in _planted_words(rng, 150, 120):
        assert _fractions(word_to_plmap(word)) == fraction_breakpoints(word), word
        kinds["planted"] += 1
    assert sum(kinds.values()) >= 3000 and min(kinds.values()) >= 150, kinds


def _fraction_conjugates(outer: str, k: int):
    """Breakpoints of outer^i x1 outer^-i for i = 0 to k, by fraction_compose, one conjugation at a time from x1 out."""
    points = LETTER_BREAKPOINTS["b"]
    yield points
    for _ in range(k):
        points = fraction_compose(fraction_compose(LETTER_BREAKPOINTS[outer], points), LETTER_BREAKPOINTS[outer.swapcase()])
        yield points


def test_breakpoint_texts_of_deep_maps_print_the_fraction_fold():
    # deep leaves and few breakpoints: the maps that breakpoint_texts writes each denominator lazily for
    cases = []
    for i, points in enumerate(_fraction_conjugates("a", MAX_DEPTH - 1)):
        cases.append((xn(i + 1), points))  # x_n = x0^(n-1) x1 x0^-(n-1)
    for i, points in enumerate(_fraction_conjugates("A", 1000)):
        if 1 <= i <= MAX_DEPTH:
            cases.append((yn(i), fraction_compose(LETTER_BREAKPOINTS["A"], points)))  # y_n = x0^-1 (x0^-n x1 x0^n)
        if i in (1, 2, 64, 1000):
            cases.append((word_to_plmap("A" * i + "b" + "a" * i), points))
    assert len(cases) == 2 * MAX_DEPTH + 4
    for m, points in cases:
        assert m.breakpoint_texts() == [(str(t), str(y)) for t, y in points]


def test_text_bits_read_off_the_leaves_match_the_corners():
    # breakpoint_texts sums the numerators' bits from the leaf depths, so it
    # can refuse a map before _corners holds numerators of e + 1 bits each
    rng = SplitMix64(101)
    for case in range(2000):
        word = "ab" * (1 + rng.below(300)) if case % 7 == 0 else random_word(rng, (5, 30, 200)[case % 3])
        m = word_to_plmap(word)
        if case % 2:
            m._reduce()
        e, f = max(m._d), max(m._r)
        corners = plmap._corners(m._d, m._r, e, f)
        bits = sum(t.bit_length() + y.bit_length() for t, y in corners)
        assert plmap._text_bits(m._d, m._r, e, f) == (len(corners), bits), word


def test_a_map_past_the_text_bound_is_refused_before_its_corners_are_built(monkeypatch):
    def no_corners(*args):
        raise AssertionError("corners built")

    m = word_to_plmap("ab" * 8943)
    monkeypatch.setattr(plmap, "_corners", no_corners)
    with pytest.raises(TextCapacityError, match="the 17890 breakpoints of the map have numerators of 400020401 bits in all"):
        m.breakpoint_texts()


def _equal_pair(rng):
    """Two words for the same element: the second has a conjugate of a relator of F planted in it."""
    i, n = 1 + rng.below(4), 5 + rng.below(4)
    relators = [
        *relator_words("a", "b"),
        "aabAA" + invert_word("babAB"),
        xn_word(i) + xn_word(n) + invert_word(xn_word(i)) + invert_word(xn_word(n + 1)),
        commutator(xn_word(i), yn_word(n)),
    ]
    u = random_word(rng, 40)
    w = random_word(rng, 8)
    at = rng.below(len(u) + 1)
    return u, u[:at] + w + rng.choice(relators) + invert_word(w) + u[at:]


def _unequal_pair(rng):
    """Two words that may or may not give the same element: random, or one letter apart in an equal pair."""
    if rng.below(2):
        return random_word(rng, 12), random_word(rng, 12)
    u, v = _equal_pair(rng)
    at = rng.below(len(v))
    return u, v[:at] + rng.choice(LETTERS) + v[at + 1:]


def test_equality_and_hash_match_the_fraction_fold():
    rng = SplitMix64(97)
    counts = {True: 0, False: 0}
    for case in range(2000):
        u, v = _equal_pair(rng) if case % 2 == 0 else _unequal_pair(rng)
        f, g = word_to_plmap(u), _left_fold(v)  # two product shapes, so two unreduced diagrams
        equal = case % 2 == 0 or fraction_breakpoints(u) == fraction_breakpoints(v)
        assert (f == g) is equal and (g == f) is equal, (u, v)
        if equal:
            assert hash(f) == hash(g), (u, v)
        counts[equal] += 1
    assert counts[True] >= 1000 and counts[False] >= 500, counts


def test_aabAA_equals_babAB():
    # x0^2 x1 x0^-2 = x3 = x1 x2 x1^-1
    assert word_to_plmap("aabAA") == word_to_plmap("babAB") == xn(3)
    assert _fractions(word_to_plmap("aabAA")) == fraction_breakpoints("babAB")


def test_conjugates_of_x1_by_powers_of_x0_have_their_closed_form():
    for k in range(4, 41):
        word = "A" * k + "b" + "a" * k
        expected = (
            (F(0), F(0)),
            (F(1, 2 ** (k + 1)), F(1, 2 ** (k + 1))),
            (F(1, 2 ** k), F(3, 2 ** (k + 2))),
            (F(1, 2 ** (k - 1)), F(1, 2 ** k)),
            (F(1, 2), F(1, 4)),
            (F(3, 4), F(1, 2)),
            (F(1), F(1)),
        )
        assert _fractions(word_to_plmap(word)) == expected, k
        assert fraction_breakpoints(word) == expected, k
