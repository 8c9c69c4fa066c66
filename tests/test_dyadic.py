import sys
import time
from fractions import Fraction

import pytest

from oracles import fraction_breakpoints
from sampling import random_word
from thompsonf import plmap
from thompsonf.dyadic import Dyadic, _format
from thompsonf.plmap import PLMap, word_to_plmap
from thompsonf.rng import SplitMix64


def test_common_factors_of_two_cancel():
    d = Dyadic(2, 2)
    assert (d.numerator, d.exponent) == (1, 1)
    assert d.as_fraction() == Fraction(1, 2)


def test_zero_normalizes_to_exponent_zero():
    assert (Dyadic(0, 5).numerator, Dyadic(0, 5).exponent) == (0, 0)


def test_odd_numerator_is_already_normal():
    d = Dyadic(17, 5)
    assert (d.numerator, d.exponent) == (17, 5)
    assert d.as_fraction() == Fraction(17, 32)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(3, -1)


def test_a_dyadic_is_a_frozen_value():
    d = Dyadic(numerator=12, exponent=4)
    assert repr(d) == "Dyadic(numerator=3, exponent=2)"
    assert repr(Dyadic(-5)) == "Dyadic(numerator=-5, exponent=0)"
    assert d == Dyadic(3, 2) == Dyadic._reduced(24, 5)
    assert hash(d) == hash(Dyadic(3, 2)) == hash((3, 2))
    assert d != Dyadic(3, 3) and d != (3, 2) and d != Fraction(3, 4)
    for name in ("numerator", "exponent", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(d, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(d, name)
    assert (d.numerator, d.exponent) == (3, 2)


def test_equal_values_compare_and_hash_equal():
    assert Dyadic(4, 3) == Dyadic(1, 1)
    assert hash(Dyadic(4, 3)) == hash(Dyadic(1, 1))
    assert Dyadic(1, 2) != Dyadic(1, 3)


def test_fraction_round_trip():
    for num, exp in [(0, 0), (1, 0), (5, 4), (17, 5), (-3, 2)]:
        d = Dyadic(num, exp)
        assert Dyadic.from_fraction(d.as_fraction()) == d


def test_from_fraction_rejects_odd_denominators():
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(4, 15))


def test_str_is_lowest_terms_fraction():
    assert str(Dyadic(2, 3)) == "1/4"
    assert str(Dyadic(0)) == "0"
    assert str(Dyadic(1)) == "1"


def test_format_prints_what_str_prints_for_the_fraction():
    for e in range(201):
        one = 1 << e
        for n in {0, 1, one - 1, one, 2, 6, one - 2, 3 << max(e - 3, 0), one + 2, -one // 2}:
            assert _format(n, e) == str(Fraction(n, one)) == str(Dyadic(n, e))


def test_breakpoint_texts_and_repr_print_the_breakpoints():
    rng = SplitMix64(79)
    for _ in range(30):
        m = word_to_plmap(random_word(rng, 40))
        texts = [(str(t), str(y)) for t, y in m.breakpoints]
        assert m.breakpoint_texts() == texts
        assert repr(m) == "PLMap[" + ", ".join(f"({t}, {y})" for t, y in texts) + "]"


def test_breakpoint_texts_write_only_the_denominators_the_breakpoints_need():
    # x_n for n = 29,998: five breakpoints over 2^30000; writing all 30,000 powers of two takes seconds
    e = 30_000
    one = 1 << e
    m = PLMap((Dyadic(t, e), Dyadic(y, e)) for t, y in ((0, 0), (one - 4, one - 4), (one - 2, one - 3), (one - 1, one - 2), (one, one)))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        texts = m.breakpoint_texts()
        seconds = time.perf_counter() - start
        assert texts == [(str(t), str(y)) for t, y in m.breakpoints]
        assert texts[2] == (f"{(one >> 1) - 1}/{one >> 1}", f"{one - 3}/{one}")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert seconds < 2


def test_trusted_constructor_matches_the_validating_one():
    # PLMap.breakpoints builds its Dyadics through Dyadic._reduced, from the running sums of the leaves
    rng = SplitMix64(71)
    seen = 0
    for _ in range(30):
        word = random_word(rng, 40)
        m = word_to_plmap(word)
        e, f = max(m._d), max(m._r)  # the deepest leaves: the sums are numerators over 2^e and 2^f
        corners = list(plmap._corners(m._d, m._r, e, f))
        for t, y in corners + [(0, 0), (6, 3), (12, 1)]:
            for n, top in ((t, e), (y, f)):
                for k in (0, 1, top):
                    fast, checked = Dyadic._reduced(n, k), Dyadic(n, k)
                    assert (fast.numerator, fast.exponent) == (checked.numerator, checked.exponent)
                    assert fast == checked and hash(fast) == hash(checked)
                    seen += 1
        assert m.breakpoints == tuple((Dyadic(t, e), Dyadic(y, f)) for t, y in corners)
        assert m.breakpoints == tuple((Dyadic.from_fraction(t), Dyadic.from_fraction(y)) for t, y in fraction_breakpoints(word))
    assert seen > 1000
