import sys
import time
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from oracles import fraction_to_vw, naive_act, unroll
from sampling import LETTERS, random_point, random_word
from thompsonf import cantor
from thompsonf.cantor import (
    _RULES,
    MAX_PERIOD,
    ONE_POINT,
    PeriodCapacityError,
    PointSyntaxError,
    RationalPoint,
    ZERO_POINT,
    _PLAIN_DIGITS,
    _fold,
    _order_of_two,
    _read_digits,
    _step,
    act_letter,
    act_word,
    canonicalize,
    parse_point,
    primitive_root,
    shift,
    value_to_point,
)
from thompsonf.plmap import word_to_plmap
from thompsonf.rng import SplitMix64
from thompsonf.schreier import ball
from thompsonf.words import invert_word, parse_word

F = Fraction


def test_primitive_root():
    assert primitive_root("0101") == "01"
    assert primitive_root("0100") == "0100"
    assert primitive_root("111") == "1"
    for n in range(1, 13):
        for bits in range(1 << n):
            w = format(bits, f"0{n}b")
            d = min(d for d in range(1, n + 1) if n % d == 0 and w[:d] * (n // d) == w)
            assert primitive_root(w) == w[:d]


def test_canonicalize_absorbs_preperiod_letters():
    assert canonicalize("0", "1000") == RationalPoint("", "0100")
    assert canonicalize("", "0101") == RationalPoint("", "01")
    assert canonicalize("1", "1") == ONE_POINT
    assert canonicalize("10", "0100") == RationalPoint("1", "0010")
    assert canonicalize("", "0") == ZERO_POINT


def test_canonicalize_validates_input():
    with pytest.raises(ValueError):
        canonicalize("01", "")
    with pytest.raises(ValueError):
        canonicalize("02", "1")


def test_constructor_rejects_non_canonical_pairs():
    with pytest.raises(ValueError):
        RationalPoint("10", "0100")  # preperiod and period end alike
    with pytest.raises(ValueError):
        RationalPoint("", "0101")  # period is a proper power


def test_a_point_is_a_frozen_value():
    point = RationalPoint(preperiod="01", period="0100")
    assert repr(point) == "RationalPoint(preperiod='01', period='0100')"
    assert point == RationalPoint("01", "0100") == canonicalize("0101", "0001")
    assert hash(point) == hash(canonicalize("0101", "0001")) == hash(("01", "0100"))
    assert point != RationalPoint("01", "1000") and point != ("01", "0100") and point != "01(0100)"
    for name in ("preperiod", "period", "_value"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(point, name, "1")
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(point, name)
    assert (point.preperiod, point.period) == ("01", "0100")


def test_canonicalize_is_idempotent():
    rng = SplitMix64(5)
    for _ in range(200):
        p = random_point(rng, 8, 6)
        assert canonicalize(p.preperiod, p.period) == p


def test_canonical_form_denotes_the_same_sequence():
    rng = SplitMix64(9)
    for _ in range(200):
        v = "".join("01"[rng.below(2)] for _ in range(rng.below(9)))
        w = "".join("01"[rng.below(2)] for _ in range(1 + rng.below(6)))
        p = canonicalize(v, w)
        n = len(v) + 3 * len(w)
        assert p.prefix(n) == unroll(v, w, n)


def test_point_equality_distinguishes_twin_tails():
    assert canonicalize("", "0100") == canonicalize("0", "1000")
    # 10^inf and 01^inf denote the same number but different sequences
    assert canonicalize("1", "0") != canonicalize("0", "1")
    p = canonicalize("10", "0100")
    assert p == p


def test_equality_agrees_with_prefix_comparison():
    rng = SplitMix64(13)
    points = [random_point(rng, 5, 4) for _ in range(80)]
    for p in points:
        for q in points:
            n = len(p.preperiod) + len(q.preperiod) + 2 * lcm(len(p.period), len(q.period))
            assert (p == q) == (p.prefix(n) == q.prefix(n))


def test_letter_action_rewrites_prefixes():
    p = canonicalize("10", "0100")
    assert act_letter(p, "a") == canonicalize("01", "0100")
    assert act_letter(canonicalize("", "01"), "b") == canonicalize("", "01")
    assert act_letter(ONE_POINT, "a") == ONE_POINT
    assert act_letter(ZERO_POINT, "a") == ZERO_POINT
    assert act_letter(ZERO_POINT, "b") == ZERO_POINT
    assert act_letter(ONE_POINT, "b") == ONE_POINT


def test_word_action_folds_letters():
    p = canonicalize("10", "0100")
    assert act_word(p, "") == p
    assert act_word(p, "aA") == p
    half = canonicalize("1", "0")
    assert act_word(half, "b") == half


def test_action_matches_rule_oracle_on_random_points():
    rng = SplitMix64(21)
    for _ in range(300):
        p = random_point(rng, 8, 6)
        letter = rng.choice(LETTERS)
        image = act_letter(p, letter)
        raw_prefix, raw_period = naive_act(p.preperiod, p.period, letter)
        n = len(raw_prefix) + 3 * len(raw_period) + 8
        assert image.prefix(n) == unroll(raw_prefix, raw_period, n)


def test_each_letter_acts_bijectively():
    rng = SplitMix64(27)
    for _ in range(150):
        p = random_point(rng, 8, 6)
        for letter in LETTERS:
            assert act_letter(act_letter(p, letter), invert_word(letter)) == p


def test_point_values():
    assert canonicalize("", "0100").value() == F(4, 15)
    assert canonicalize("1", "0").value() == F(1, 2)
    assert canonicalize("10", "0100").value() == F(17, 30)
    assert ZERO_POINT.value() == 0
    assert ONE_POINT.value() == 1


def test_value_to_point():
    assert value_to_point(F(4, 15)) == canonicalize("", "0100")
    assert value_to_point(F(1, 2)) == canonicalize("1", "0")
    assert value_to_point(F(17, 30)) == canonicalize("10", "0100")
    assert value_to_point(0) == ZERO_POINT
    assert value_to_point(1) == ONE_POINT
    with pytest.raises(ValueError):
        value_to_point(F(3, 2))
    with pytest.raises(TypeError):
        value_to_point(0.5)
    for q in range(1, 301):
        for p in range(q + 1):
            if gcd(p, q) == 1:
                assert value_to_point(F(p, q)) == canonicalize(*fraction_to_vw(F(p, q)))


class _Rebuilt(Exception):
    pass


def test_a_point_made_from_a_fraction_keeps_it_as_its_value(monkeypatch):
    points = {
        F(5, 11): parse_point("5/11"),
        F(3, 11): parse_point("6/22"),
        F(17, 30): value_to_point(F(17, 30)),
        F(3, 1 << 40): value_to_point(F(3, 1 << 40)),
        F(0): value_to_point(0),
    }

    def rebuilt(*args):
        raise _Rebuilt(args)

    monkeypatch.setattr(cantor, "Fraction", rebuilt)
    for value, point in points.items():
        assert point.value() == value
    with pytest.raises(_Rebuilt):  # a point made from bits still builds its value
        canonicalize("", "0100").value()


def test_a_point_made_from_a_fraction_matches_the_one_made_from_its_bits():
    rng = SplitMix64(22)
    for i in range(1000):
        kind, q = i % 5, rng.below(200) + 1  # kind 4 keeps any p/q
        if kind == 0:
            q = 1 << rng.below(12)  # dyadic
        p = rng.below(q + 1)
        if kind == 1:  # a common factor, as in 6/22
            c = rng.below(9) + 2
            p, q = p * c, q * c
        elif kind == 2:
            p = 0
        elif kind == 3:
            p = q
        twin = canonicalize(*fraction_to_vw(F(p, q)))
        for point in (value_to_point(F(p, q)), parse_point(f"{p}/{q}")):
            assert point == twin and hash(point) == hash(twin) and repr(point) == repr(twin), (p, q)
            assert point.value() == twin.value() == F(p, q), (p, q)


def test_the_shared_points_keep_no_value():
    assert value_to_point(1) is ONE_POINT
    assert value_to_point(F(7, 7)) is ONE_POINT
    assert parse_point("7/7") is ONE_POINT
    value_to_point(0)
    assert "_value" not in ONE_POINT.__dict__
    assert "_value" not in ZERO_POINT.__dict__


@pytest.mark.parametrize(
    "value,error,message",
    [
        (0.5, TypeError, "refusing float input; pass Fraction for exactness"),
        (F(-1, 3), ValueError, "value -1/3 outside [0, 1]"),
        (-1, ValueError, "value -1 outside [0, 1]"),
        (F(3, 2), ValueError, "value 3/2 outside [0, 1]"),
        (2, ValueError, "value 2 outside [0, 1]"),
    ],
)
def test_value_to_point_refuses_floats_and_values_outside_the_interval(value, error, message):
    with pytest.raises(error) as err:
        value_to_point(value)
    assert str(err.value) == message


def test_period_bound():
    # the order of 2 modulo the prime 1048589 is 1048588 > MAX_PERIOD = 2^20
    with pytest.raises(PeriodCapacityError):
        value_to_point(F(1, 1048589))
    with pytest.raises(PeriodCapacityError):
        parse_point("1(" + "0" * MAX_PERIOD + "1)")
    assert len(value_to_point(F(1, 1000003)).period) == 1000002


def _reference_order(m, cap):
    """Least n <= cap with 2^n = 1 (mod m), one doubling per step; None past cap."""
    power = 2 % m
    for n in range(1, cap + 1):
        if power == 1 % m:
            return n
        power = power * 2 % m
    return None


def _factorization(n):
    """{p: e} for the prime powers p^e of n, by trial division."""
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _order_by_factoring(m, cap):
    """The reference loop's answer without its up to cap steps, for large m.

    2^lambda(m) = 1 for Carmichael's lambda(m), the lcm of p^(e-1) (p - 1)
    over the prime powers p^e of m, so the order divides it: it is lambda(m)
    with every prime factor removed while 2 to the quotient is still 1.
    """
    n = lcm(*(p ** (e - 1) * (p - 1) for p, e in _factorization(m).items()))
    for p in _factorization(n):
        while n % p == 0 and pow(2, n // p, m) == 1 % m:
            n //= p
    return n if n <= cap else None


def test_order_of_two_matches_the_reference_loop():
    for m in range(1, 4096, 2):
        expected = _reference_order(m, MAX_PERIOD)
        assert _order_of_two(m) == expected, m
        assert _order_by_factoring(m, MAX_PERIOD) == expected, m


@pytest.mark.parametrize(
    "m,order",
    [(1000003, 1000002), (1048583, 524291), (1048589, None), (3**13, None)],
)
def test_order_of_two_on_moduli_near_the_bound(m, order):
    # 3^13 = 1594323 has order 1062882, and the prime 1048589 has 1048588
    assert _order_of_two(m) == order
    assert _reference_order(m, MAX_PERIOD) == order


def test_order_of_two_on_seeded_large_moduli():
    # the reference loop would run up to 2^20 steps for each of these, so the
    # factored order, which agrees with it on every odd m < 4096, stands in
    rng = SplitMix64(24)
    moduli = [2 * rng.below(1 << 23) + 1 for _ in range(500)]
    outcomes = [_order_of_two(m) for m in moduli]
    assert outcomes == [_order_by_factoring(m, MAX_PERIOD) for m in moduli]
    assert None in outcomes and any(n is not None and n > 1 << 12 for n in outcomes)


@pytest.mark.parametrize("cap", [1, 2, 5, 16, 31, 32, 33, 64, 1000])
def test_order_of_two_applies_a_lowered_bound(monkeypatch, cap):
    monkeypatch.setattr(cantor, "MAX_PERIOD", cap)
    for m in range(1, 600, 2):
        order = _reference_order(m, m)
        got = _order_of_two(m)
        assert got == _reference_order(m, cap), (m, cap)
        assert (got is None) == (order > cap), (m, cap)


# the giant-step rounds rule out orders up to 1024, 4096, 16384 and 65536
_ROUND_EDGES = (1024, 1025, 4096, 4097, 16384, 16385, 65536, 65537)


@pytest.mark.parametrize("k", _ROUND_EDGES)
def test_order_of_two_at_the_giant_step_round_edges(k):
    # 2 has order k modulo 2^k - 1.  _order_of_two divides out its small factors first and
    # searches the rest over a shorter range, so the search is called here on its own
    assert cantor._order_by_search(2, (1 << k) - 1, MAX_PERIOD) == k


def test_order_of_two_refuses_a_modulus_longer_than_the_bound_before_any_step():
    # m divides 2^n - 1 < 2^n, so the order n is at least the bit length of m: 2^MAX_PERIOD - 1,
    # of MAX_PERIOD bits, still has order MAX_PERIOD, and one bit more is refused
    start = time.perf_counter()
    assert _order_of_two((1 << MAX_PERIOD) - 1) == MAX_PERIOD
    assert time.perf_counter() - start < 0.3
    assert _order_of_two((1 << (MAX_PERIOD + 1)) - 1) is None
    nines = 10**631306 - 1  # 2,097,154 bits, where the giant steps took about 1.1 s to refuse it
    start = time.perf_counter()
    assert _order_of_two(nines) is None
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("k", [20_000, 100_000])
def test_order_of_two_refuses_nines_within_the_bit_bound_fast(k):
    # 10^k - 1 has fewer than MAX_PERIOD bits, but its prime factors below 2^10 alone give an
    # order past the bound, so it is refused before any search over the whole modulus
    nines = 10**k - 1
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert _order_of_two(nines) is None
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1, times


@pytest.mark.parametrize("cap", [1024, 1025, 4096])
def test_order_of_two_at_the_round_edges_under_a_lowered_bound(cap):
    for k in sorted({*_ROUND_EDGES, cap + 1}):
        assert cantor._order_by_search(2, (1 << k) - 1, cap) == (k if k <= cap else None), (k, cap)


# (m, whether trial division leaves a cofactor of at least 2^20 for the search)
_ORDER_PATHS = (
    (1093**2, True),  # Wieferich squares: the order modulo p^2 is the order modulo p
    (3511**2, True),
    (1093 * 3511**2, True),
    (7**7, False),  # 3 * 7^6: powers of small primes, ord_p(2) p^j
    (31**4, False),  # 5 * 31^3
    (3**12, False),
    (3**13, False),  # 2 * 3^12, past the bound
    (7**7 * 31**4, False),  # the lcm passes the bound
    (1031, False),  # a prime cofactor between 2^10 and 2^20
    (3 * 5 * 1031, False),
    (1048573, False),
    (1031 * 1033, True),  # a cofactor of at least 2^20 with no factor below 2^10
    (9 * 1031 * 1033, True),
    (3**5 * 7 * 1031 * 1033, True),
)


@pytest.mark.parametrize("m,searched", _ORDER_PATHS)
def test_order_of_two_by_trial_division_then_search(monkeypatch, m, searched):
    searches = []
    search = cantor._order_by_search

    def counted(g, r, cap):
        searches.append(r)
        return search(g, r, cap)

    monkeypatch.setattr(cantor, "_order_by_search", counted)
    order = _order_by_factoring(m, m)
    caps = {MAX_PERIOD, 1, 31, 32, 33, 1000, order - 1, order, order + 1}
    for cap in sorted(c for c in caps if 0 < c <= MAX_PERIOD):
        monkeypatch.setattr(cantor, "MAX_PERIOD", cap)
        assert _order_of_two(m) == (order if order <= cap else None), (m, cap)
    assert bool(searches) == searched
    assert all(r >= 1 << 20 and r % 2 and all(r % p for p in range(3, 1 << 10, 2)) for r in searches)


def test_periods_near_the_bound_convert_fast():
    def best_of_3(value):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            try:
                point = value_to_point(value)
            except PeriodCapacityError as err:
                point = err
            times.append(time.perf_counter() - start)
        return point, min(times)

    error, elapsed = best_of_3(F(1, 3**13))
    assert str(error) == (
        f"the binary period of a value whose denominator has an odd part of 21 bits"
        f" is longer than {MAX_PERIOD} letters (capacity exceeded)"
    )
    assert elapsed < 0.03, f"best of 3 took {elapsed:.3f}s, budget is 0.03s"
    point, elapsed = best_of_3(F(1, 1000003))
    assert len(point.period) == 1000002
    assert elapsed < 0.03, f"best of 3 took {elapsed:.3f}s, budget is 0.03s"


def test_period_bound_message_states_the_size_of_the_denominator(monkeypatch):
    # a Fraction whose denominator has more than 4300 digits cannot be
    # formatted under the interpreter's int-to-str digit limit, so the message
    # gives the bit length of the denominator's odd part instead
    monkeypatch.setattr(cantor, "MAX_PERIOD", 16)
    odd_bits = (3 ** 9100).bit_length()
    with pytest.raises(PeriodCapacityError, match=f"odd part of {odd_bits} bits is longer than 16 letters"):
        value_to_point(F(1, 3 ** 9100))


def test_preperiod_bound():
    # a value whose denominator is 2^a * m has a preperiod of exactly a letters
    assert len(value_to_point(F(3, 1 << MAX_PERIOD)).preperiod) == MAX_PERIOD
    with pytest.raises(PeriodCapacityError, match="preperiod"):
        value_to_point(F(1, 1 << (MAX_PERIOD + 1)))
    with pytest.raises(PeriodCapacityError, match="preperiod"):
        value_to_point(F(1, 3 << (MAX_PERIOD + 1)))
    assert len(parse_point("0" * MAX_PERIOD + "(1)").preperiod) == MAX_PERIOD
    with pytest.raises(PeriodCapacityError, match="preperiod"):
        parse_point("0" * (MAX_PERIOD + 1) + "(1)")
    # the bound is on the preperiod text, before any letter is absorbed
    with pytest.raises(PeriodCapacityError, match="preperiod"):
        parse_point("1" * (MAX_PERIOD + 1) + "(1)")


def test_value_round_trip():
    rng = SplitMix64(33)
    for _ in range(200):
        p = random_point(rng, 8, 6)
        if p.period == "1" and p != ONE_POINT:
            # 1-tail twin of a dyadic: value_to_point picks the 0-tail form
            twin = value_to_point(p.value())
            assert twin.value() == p.value()
            assert twin.period == "0" or twin == ONE_POINT
        else:
            assert value_to_point(p.value()) == p


def test_shift():
    assert shift(canonicalize("10", "0100")) == canonicalize("0", "0100")
    assert shift(canonicalize("", "01")) == canonicalize("", "10")
    assert shift(ZERO_POINT) == ZERO_POINT
    assert shift(canonicalize("1", "0")) == ZERO_POINT


def test_action_and_evaluation_agree_on_values():
    # the central consistency check between the two faces of the action
    rng = SplitMix64(41)
    for _ in range(250):
        p = random_point(rng, 8, 6)
        word = random_word(rng, 20)
        image = act_word(p, word)
        assert image.value() == word_to_plmap(word).evaluate(p.value())
        fold = p
        for letter in word:
            fold = act_letter(fold, letter)
        assert image == fold
        assert RationalPoint(image.preperiod, image.period) == image


def _random_bits(rng: SplitMix64, n: int) -> str:
    return "".join(format(rng.next_u64(), "064b") for _ in range(-(-n // 64)))[:n]


def _rule_loop_act_letter(point: RationalPoint, letter: str) -> RationalPoint:
    """The sequence action as a loop over the rules of _RULES, canonicalised afterwards."""
    v, w = point.preperiod, point.period
    head = (v[:3] + w[:3] * 3)[:3]
    for lhs, rhs in _RULES[letter]:
        if head.startswith(lhs):
            consumed = len(lhs) - len(v)
            if consumed <= 0:
                return canonicalize(rhs + v[len(lhs):], w)
            c = consumed % len(w)
            return canonicalize(rhs, w[c:] + w[:c])
    raise AssertionError("the rules of a letter cover every binary sequence")


def _assert_kernel_matches_rule_loop(p: RationalPoint, letter: str) -> RationalPoint:
    image = act_letter(p, letter)
    assert image == _rule_loop_act_letter(p, letter), (str(p), letter)
    # the image is built unchecked, so it must pass every check of the public constructor
    assert RationalPoint(image.preperiod, image.period) == image
    return image


def test_long_period_action_matches_map_evaluation():
    rng = SplitMix64(47)
    for _ in range(12):
        p = canonicalize(_random_bits(rng, rng.below(9)), _random_bits(rng, 1000 + rng.below(9001)))
        word = "".join([rng.choice(LETTERS) for _ in range(20 + rng.below(41))])
        image = p
        for letter in word:
            image = _assert_kernel_matches_rule_loop(image, letter)
        assert image == act_word(p, word)
        assert image.value() == word_to_plmap(word).evaluate(p.value())
        assert value_to_point(p.value()) == p


def _short_points() -> set[RationalPoint]:
    """Every canonical point with a preperiod of at most 6 letters and a period of at most 5."""
    return {
        canonicalize("".join(v), "".join(w))
        for pre_len in range(7)
        for per_len in range(1, 6)
        for v in product("01", repeat=pre_len)
        for w in product("01", repeat=per_len)
    }


def test_head_table_kernel_matches_the_rule_loop_on_all_short_points():
    points = _short_points()
    assert len(points) > 2000
    for p in points:
        for letter in LETTERS:
            _assert_kernel_matches_rule_loop(p, letter)


def test_step_and_short_folds_match_the_rule_loop_at_every_rotation():
    # act_letter reaches _step at rotation 0 only; find_path and ball step
    # on rotations of one shared period
    rotated = 0
    words = list(LETTERS) + ["".join(pair) for pair in product(LETTERS, repeat=2)]
    for p in _short_points():
        v, w = p.preperiod, p.period
        for r in range(len(w)):
            if v and v[-1] == w[r - 1]:  # v (w[r:] + w[:r])^inf is not canonical
                continue
            point = RationalPoint(v, w[r:] + w[:r])
            rotated += r > 0
            for s, letter in enumerate(LETTERS):
                u, q = _step(v, r, w, s)
                assert 0 <= q < len(w)
                assert RationalPoint(u, w[q:] + w[:q]) == _rule_loop_act_letter(point, letter), (str(point), letter)
        for word in words:
            assert _fold(v, w, "", (word,)) == [_stepwise_fold(v, w, word)[0]], (str(p), word)
    assert rotated > 2000


def test_loop_rules_return_the_pair_untouched():
    # x1 and x1^-1 fix every sequence that starts with 0: the kernel hands the
    # canonical pair back as it is, with no rotation of a long period
    rng = SplitMix64(59)
    for v in ("", "0", "01", "0110"):
        w = "1" + _random_bits(rng, 5000) if v else "0" + _random_bits(rng, 5000) + "1"
        p = canonicalize(v, w)
        assert p.prefix(1) == "0"
        for s, letter in ((2, "b"), (3, "B")):
            image = _step(p.preperiod, 0, p.period, s)
            assert image[0] is p.preperiod and image[1] == 0
            assert act_letter(p, letter).period is p.period
            assert act_letter(p, letter) == p == _rule_loop_act_letter(p, letter)


def _stepwise_fold(v: str, w: str, word: str) -> tuple[tuple[str, str], int]:
    """_fold's reference: the rule loop one letter at a time; also how often an inner letter leaves no preperiod."""
    p = RationalPoint(v, w)
    empties = 0
    for k, letter in enumerate(word, start=1):
        p = _rule_loop_act_letter(p, letter)
        empties += p.preperiod == "" and k < len(word)
    return (p.preperiod, p.period), empties


def _runs_word(rng: SplitMix64, runs: int) -> str:
    """Runs of one letter each, 1-8 long: x0^-1 runs eat a preperiod that x0 runs built up, and back."""
    return "".join([rng.choice(LETTERS) * (1 + rng.below(8)) for _ in range(runs)])


def test_fold_matches_the_per_letter_kernel():
    # the fold keeps the preperiod reversed and an offset into the unrotated
    # period, and canonicalises only at the end
    rng = SplitMix64(61)
    kinds = {"one-letter period": 0, "long period": 0, "emptied twice": 0, "long word": 0}
    for case in range(2400):
        if case % 4 == 0:
            w = "01"[rng.below(2)]
            kinds["one-letter period"] += 1
        elif case % 4 == 1:
            w = _random_bits(rng, 1000 + rng.below(1001))
            kinds["long period"] += 1
        else:
            w = _random_bits(rng, 2 + rng.below(11))
        p = canonicalize(_random_bits(rng, rng.below(3)), w)
        v, w = p.preperiod, p.period
        if case % 3 == 0:
            word = _runs_word(rng, 1 + rng.below(12))
        elif case % 3 == 1:
            word = random_word(rng, 30)
        else:
            word = "".join([rng.choice(LETTERS) for _ in range(100 + rng.below(101))])
            kinds["long word"] += 1
        [image] = _fold(v, w, "", (word,))
        reference, empties = _stepwise_fold(v, w, word)
        assert image == reference, (str(p), word)
        assert RationalPoint(*image) == act_word(p, word)
        kinds["emptied twice"] += empties >= 2 and len(word) > 2
    assert min(kinds.values()) >= 300, kinds


def _reach(v: str, w: str, word: str) -> tuple[int, int]:
    """How far a fold of the word over v w^inf reaches, by the rules of _RULES on a string.

    Returns the most letters that the rules have written ahead of the
    letters not yet read, and the letters of v w^inf read.  Each letter
    reads at most three letters, so 3|word| + 3 letters past v are enough.
    """
    sequence = unroll(v, w, len(v) + 3 * len(word) + 3)
    written = read = most = 0
    for letter in word:
        lhs, rhs = next(rule for rule in _RULES[letter] if sequence.startswith(rule[0]))
        sequence = rhs + sequence[len(lhs):]
        read += max(len(lhs) - written, 0)
        written = len(rhs) + max(written - len(lhs), 0)
        most = max(most, written)
    return most, read


def test_fold_matches_the_per_letter_kernel_at_the_window_edges():
    # _fold holds the front of the sequence in a window of fewer than 30
    # letters, loads 24 at a time behind it when fewer than 6 are left, and
    # spills the letters past the first 16 when it reaches 30.  A fold
    # that wrote 32 letters ahead of those it read has spilled, and one
    # that read more than 48 letters has refilled at least twice: its first
    # window held at most 24.  Preperiods of 61 to 130 letters start as
    # several chunks.  x0 writes one letter more than it reads on a leading
    # 0, which stays, and one less on 11; x0^-1 the same with 0 and 1
    # swapped.  So a run of x0 on 0... fills the window, and one on
    # 1^j 0... drains it of j - 1 letters.
    rng = SplitMix64(83)
    kinds = dict.fromkeys(
        ("one-letter period", "two-letter period", "preperiod over 60", "spilled", "refilled twice", "odd word", "even word", "empty word"),
        0,
    )
    for case in range(20_000):
        shape = case % 5
        if case % 20 == 5:  # a run of the letter that drains bit^j, the other bit, bit^inf; j < 131
            letter, bit = ("a", "1") if rng.below(2) else ("A", "0")
            j = rng.below(131)
            v, w = bit * j + ("10"[int(bit)] if j else ""), bit
            word = letter * (50 + rng.below(31)) + random_word(rng, 3)
        else:
            if shape == 0:
                w = "01"[rng.below(2)]
            elif shape == 1:
                w = ("01", "10")[rng.below(2)]
            else:
                w = _random_bits(rng, 2 + rng.below(11 if shape < 4 else 300))
            v = _random_bits(rng, (rng.below(3), 3 + rng.below(28), 61 + rng.below(70))[case % 3])
            if case % 50 == 0:
                word = ""
            elif case % 20 == 1:
                word = rng.choice("aA") * (34 + rng.below(8)) + random_word(rng, 3)
            elif case % 10 == 2:
                word = _runs_word(rng, 1 + rng.below(3))
            else:
                word = random_word(rng, 10)
        p = canonicalize(v, w)
        v, w = p.preperiod, p.period
        assert _fold(v, w, "", (word,)) == [_stepwise_fold(v, w, word)[0]], (str(p), word)
        most, read = _reach(v, w, word)
        kinds["one-letter period"] += len(w) == 1
        kinds["two-letter period"] += len(w) == 2
        kinds["preperiod over 60"] += len(v) > 60
        kinds["spilled"] += most >= 32
        kinds["refilled twice"] += read > 48
        kinds["odd word" if len(word) % 2 else "even word" if word else "empty word"] += 1
    assert min(kinds.values()) >= 300, kinds


def test_fold_of_a_prefix_and_tails_matches_each_whole_word():
    # _fold folds the prefix once and each tail from a copy of its state,
    # with an odd last letter of the prefix carried into each tail; every
    # image must be that of the whole word prefix + tail, also where the
    # prefix ends at a refill or a spill of the window and where a tail is
    # empty or repeats another
    rng = SplitMix64(89)
    kinds = dict.fromkeys(("odd prefix", "even prefix", "empty prefix", "empty tail", "preperiod over 60", "long prefix"), 0)
    for case in range(3000):
        w = _random_bits(rng, 1 + rng.below(12 if case % 3 else 300))
        p = canonicalize(_random_bits(rng, (rng.below(3), 3 + rng.below(28), 61 + rng.below(70))[case % 3]), w)
        v, w = p.preperiod, p.period
        if case % 10 == 0:
            prefix = ""
        elif case % 10 == 1:
            prefix = rng.choice("aA") * (30 + rng.below(40)) + random_word(rng, 3)
        else:
            prefix = random_word(rng, 12)
        tails = [random_word(rng, 8) if rng.below(4) else "" for _ in range(1 + rng.below(4))]
        tails.append(tails[0])
        images = _fold(v, w, prefix, tails)
        assert images == [_stepwise_fold(v, w, prefix + tail)[0] for tail in tails], (str(p), prefix, tails)
        kinds["empty prefix" if not prefix else "odd prefix" if len(prefix) % 2 else "even prefix"] += 1
        kinds["empty tail"] += "" in tails
        kinds["preperiod over 60"] += len(v) > 60
        kinds["long prefix"] += len(prefix) > 32
    assert min(kinds.values()) >= 250, kinds


def test_twin_sequences_have_disjoint_orbits():
    start = canonicalize("1", "0")
    other = canonicalize("0", "1")
    assert other not in ball(start, 8).vertices


def test_str_and_parse_point():
    assert str(canonicalize("10", "0100")) == "1(0010)"
    assert parse_point("10(0100)") == canonicalize("10", "0100")
    assert parse_point("(01)") == canonicalize("", "01")
    assert parse_point("4/15") == canonicalize("", "0100")
    assert parse_point("0(1000)") == canonicalize("", "0100")
    assert parse_point("1/2") == canonicalize("1", "0")


@pytest.mark.parametrize(
    "text,position",
    [
        ("10", 0),  # no period group, no slash
        ("10()", 3),  # empty period
        ("1(01", 3),  # unclosed group
        ("2(01)", 0),  # bad preperiod letter
        ("1(02)", 3),  # bad period letter
        ("3/2", 0),  # outside [0, 1]
        ("a/2", 0),  # bad numerator
        ("1/q", 2),  # bad denominator
        ("1/0", 2),  # zero denominator
        ("\u00b2/3", 0),  # superscript two: str.isdigit, but not int()
        ("\u0661/\u0663", 0),  # Arabic-Indic digits, which int() reads as 1/3
        ("1/\u0663", 2),
    ],
)
def test_parse_point_errors_carry_positions(text, position):
    with pytest.raises(PointSyntaxError) as err:
        parse_point(text)
    assert err.value.position == position


def test_long_numerals_read_by_halves_equal_int():
    rng = SplitMix64(41)

    def numeral(n: int) -> str:
        return "".join(format(rng.next_u64(), "020d") for _ in range(n // 20 + 1))[:n]

    edge = [1, 2, _PLAIN_DIGITS - 1, _PLAIN_DIGITS, _PLAIN_DIGITS + 1, 2 * _PLAIN_DIGITS, 2 * _PLAIN_DIGITS + 1, 20_000]
    texts = [numeral(n) for n in edge + [1 + rng.below(20_000) for _ in range(40)]]
    texts += ["0" * (1 + rng.below(6000)) + text for text in texts[::3]]  # leading zeros
    # zeros across the joins: every low part starts with a run of zeros, and a numeral of zeros only
    texts += ["7" + "0" * (n - 2) + "3" for n in edge[2:]] + ["0" * 20_000]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for text in texts:
            assert _read_digits(text) == int(text), len(text)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert parse_point("1/" + "0" * 9000 + "3") == parse_point("1/3")


def test_prefix_unrolls_the_period():
    p = canonicalize("10", "0100")
    assert p.prefix(9) == "100100010"[:9]
    assert ZERO_POINT.prefix(4) == "0000"


def test_word_action_parses_cli_syntax():
    p = parse_point("10(0100)")
    assert act_word(p, parse_word("a")) == parse_point("01(0100)")
    assert act_word(p, parse_word("aA")) == p
