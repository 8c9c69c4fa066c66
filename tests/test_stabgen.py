import time
from fractions import Fraction
from itertools import product

import pytest

from thompsonf.cantor import ONE_POINT, ZERO_POINT, act_word, canonicalize, value_to_point
from thompsonf.plmap import identity, word_to_plmap, xn, yn
from thompsonf.stabgen import (
    StabilizerGens,
    base_generator_words,
    base_rotation,
    check_reduction,
    check_stabilizer_relators,
    check_twin_points,
    default_search_radius,
    format_generators,
    generators_to_json,
    schreier_x_word,
    schreier_y_word,
    stabilizer_generators,
    verify_generators,
)
from thompsonf.words import (
    Letter,
    conjugate,
    format_word,
    invert_word,
    parse_word,
    period_loop_word,
    stabilizer_period_word,
    xn_word,
    yn_word,
)

F = Fraction


def test_schreier_x_word_with_empty_label_is_a_shifted_generator():
    assert schreier_x_word("", 1) == (Letter.X0, Letter.X1, Letter.X0_INV)
    assert word_to_plmap(schreier_x_word("", 1)) == xn(2)
    assert word_to_plmap(schreier_x_word("", 3)) == xn(4)


def test_schreier_y_word_reduces_by_a_count():
    assert word_to_plmap(schreier_y_word("B", 1)) == yn(1)
    assert word_to_plmap(schreier_y_word("A", 2)) == yn(3)
    assert word_to_plmap(schreier_y_word("", 2)) == yn(2)


def test_schreier_words_reject_bad_indices():
    with pytest.raises(ValueError):
        schreier_x_word("A", 0)
    with pytest.raises(ValueError):
        schreier_y_word("B", -1)


def test_reduction_identities_hold():
    report = check_reduction(5, 4)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "x[B,1] == x3" in names
    assert "y[A,2] == y3" in names
    assert "x[e,1] == x2" in names
    assert len(report.checks) == 2 * 4 * (2 ** 6 - 1)


def test_reduction_bounds_validated():
    with pytest.raises(ValueError):
        check_reduction(0, 4)


def test_endpoint_stabilizer_is_the_whole_group():
    for point in (ZERO_POINT, ONE_POINT):
        gens = stabilizer_generators(point)
        assert gens.conjugator == ()
        assert gens.generators == ((Letter.X0,), (Letter.X1,))


def test_generators_for_one_half():
    gens = stabilizer_generators(canonicalize("1", "0"))
    assert gens.conjugator == ()
    assert gens.period == "0"
    assert gens.generators == (
        xn_word(2),
        xn_word(3),
        yn_word(1),
        yn_word(2),
        (Letter.X1_INV,),
    )
    assert verify_generators(gens).passed


def test_base_point_detection_uses_the_matching_rotation():
    # 10(0100)^inf stores as 1(0010); the generating set still uses the
    # rotation 0100 that exhibits it as a base point, with no conjugator
    point = canonicalize("10", "0100")
    gens = stabilizer_generators(point)
    assert gens.conjugator == ()
    assert gens.period == "0100"
    assert gens.generators[4] == stabilizer_period_word("0100")
    assert gens.generators[4] == tuple(parse_word("BBaBB"))
    assert verify_generators(gens).passed


def _rotation_by_search(point):
    """Reference for base_rotation: try every rotation of the period."""
    w = point.period
    for i in range(len(w)):
        rotation = w[i:] + w[:i]
        if canonicalize("10", rotation) == point:
            return rotation
    return None


def test_base_rotation_matches_the_rotation_search():
    # every non-endpoint point with a preperiod of <= 6 letters and a period of <= 7
    def strings(max_len):
        return ["".join(bits) for n in range(max_len + 1) for bits in product("01", repeat=n)]

    pairs = [(v, w) for v in strings(6) for w in strings(7) if w]
    points = {canonicalize(v, w) for v, w in pairs} - {ZERO_POINT, ONE_POINT}
    found = 0
    for point in points:
        rotation = base_rotation(point)
        assert rotation == _rotation_by_search(point), point
        found += rotation is not None
    assert len(points) == 14846
    assert found == 232  # one base point 10 u^inf per primitive period u of <= 7 letters


def test_gens_for_a_long_period_takes_linear_time():
    # 1/8009 has a 4004-letter period and no base rotation.  Trying every
    # rotation took 0.8-1.0 s; what remains, the BFS for the conjugator,
    # takes about 0.1 s on a 2-vCPU Xeon, so the budget leaves room for load
    point = value_to_point(F(1, 8009))
    assert len(point.period) == 4004 and base_rotation(point) is None
    times = []
    for _ in range(5):
        start = time.perf_counter()
        gens = stabilizer_generators(point)
        times.append(time.perf_counter() - start)
    assert act_word(point, gens.conjugator) == canonicalize("10", gens.period)
    assert min(times) < 0.25, f"best of 5 took {min(times):.3f}s, budget is 0.25s"


def test_conjugated_generators_for_a_non_base_point():
    point = value_to_point(F(4, 15))
    gens = stabilizer_generators(point)
    assert gens.conjugator != ()
    assert act_word(point, gens.conjugator) == canonicalize("10", gens.period)
    for word in gens.generators:
        assert act_word(point, word) == point
    assert verify_generators(gens).passed


def test_conjugation_matches_map_products():
    point = value_to_point(F(4, 15))
    gens = stabilizer_generators(point)
    h = word_to_plmap(gens.conjugator)
    for base, word in zip(base_generator_words(gens.period), gens.generators):
        assert word == conjugate(base, gens.conjugator)
        assert word_to_plmap(word) == h * word_to_plmap(base) * h.inverse()


def test_fifth_generator_inverts_the_period_loop():
    for w in ("0", "1", "01", "10", "0100", "011", "0011"):
        lhs = word_to_plmap(stabilizer_period_word(w))
        rhs = word_to_plmap(period_loop_word(w)).inverse()
        assert lhs == rhs


def test_verify_generators_checks_both_oracles_and_products():
    gens = stabilizer_generators(canonicalize("1", "10"))
    report = verify_generators(gens, samples=60, max_factors=10, seed=99)
    assert report.passed
    names = [c.name for c in report.checks]
    assert any("sequence action" in n for n in names)
    assert any("map evaluation" in n for n in names)
    assert any("random products" in n for n in names)
    assert "x5 == x2^2 x3 x2^-2" in names
    assert "y4 == y1^2 y2 y1^-2" in names
    with pytest.raises(ValueError):
        verify_generators(gens, samples=0)
    with pytest.raises(ValueError):
        verify_generators(gens, max_factors=0)


def test_verify_reports_are_reproducible():
    gens = stabilizer_generators(value_to_point(F(4, 15)))
    first = verify_generators(gens, samples=40, seed=7)
    second = verify_generators(gens, samples=40, seed=7)
    assert [c.name for c in first.checks] == [c.name for c in second.checks]
    assert [c.passed for c in first.checks] == [c.passed for c in second.checks]


def test_verify_catches_a_wrong_generator():
    point = canonicalize("1", "0")
    broken = StabilizerGens(point, (), ((Letter.X0,),), "0")
    report = verify_generators(broken, samples=10)
    assert not report.passed


def test_stabilizer_relators_all_hold():
    report = check_stabilizer_relators()
    assert report.passed
    assert len(report.checks) == 8


def test_point_independent_checks_are_proved_once_and_reported_every_time():
    first = check_stabilizer_relators()
    first.add("a check added by the caller", False)
    second = check_stabilizer_relators()
    assert second.passed and len(second.checks) == 8
    reports = [
        verify_generators(stabilizer_generators(point), samples=5)
        for point in (value_to_point(F(4, 15)), canonicalize("1", "10"))
    ]
    tails = [report.checks[-11:] for report in reports]
    assert tails[0] == tails[1]
    assert [c.name for c in tails[0]][:2] == ["x4 == x2^1 x3 x2^-1", "x5 == x2^2 x3 x2^-2"]
    assert all(c.passed for c in tails[0])


def test_stabilizer_relator_sample_words():
    # the transported copies of the defining relators, written out
    from thompsonf.words import commutator

    u = invert_word(xn_word(3)) + xn_word(2)
    v = xn_word(2) + xn_word(3) + invert_word(xn_word(2))
    assert word_to_plmap(commutator(u, v)) == identity()
    u = invert_word(yn_word(2)) + yn_word(1)
    v = yn_word(1) + yn_word(1) + yn_word(2) + invert_word(yn_word(1)) + invert_word(yn_word(1))
    assert word_to_plmap(commutator(u, v)) == identity()
    assert word_to_plmap(commutator(xn_word(2), yn_word(1))) == identity()


def test_twin_points_share_stabilizers():
    for prefix in ("", "1", "01"):
        report = check_twin_points(prefix)
        assert report.passed, f"failed for prefix {prefix!r}: {report.failures()}"


def test_degenerate_period_reduces_to_the_product_form():
    # for 10^inf the five generators amount to {x1, x2, y1, y2}
    gens = stabilizer_generators(canonicalize("1", "0"))
    assert word_to_plmap(gens.generators[4]) == xn(1).inverse()
    assert xn(3) == xn(1) * xn(2) * xn(1).inverse()
    point = gens.point
    for extra in (xn_word(1), xn_word(2), yn_word(1), yn_word(2)):
        assert act_word(point, extra) == point


def test_default_search_radius_formula():
    assert default_search_radius(canonicalize("", "0100")) == 0 + 4 * 4 + 8
    assert default_search_radius(canonicalize("1", "10")) == 1 + 4 * 2 + 8


def test_generator_text_format():
    gens = stabilizer_generators(canonicalize("1", "0"))
    text = format_generators(gens)
    lines = text.splitlines()
    assert lines[0] == "# point=1(0) h=1 w=0"
    assert lines[1:] == ["abA", "aabAA", "AAba", "AAAbaa", "B"]
    assert text.endswith("\n")


def test_generator_json_format():
    import json

    gens = stabilizer_generators(value_to_point(F(4, 15)))
    payload = json.loads(generators_to_json(gens))
    assert payload["point"] == "(0100)"
    assert payload["w"] == "0100"
    assert payload["h"] == format_word(gens.conjugator)
    assert len(payload["generators"]) == 5
