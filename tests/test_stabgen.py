import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oracles import ball_views, fraction_image, naive_fixes, search_path
from sampling import LETTERS, random_point, random_word
from thompsonf import cantor, plmap, schreier, stabgen, words
from thompsonf.cantor import (
    ONE_POINT,
    ZERO_POINT,
    RationalPoint,
    act_letter,
    act_word,
    canonicalize,
    parse_point,
    primitive_root,
    value_to_point,
)
from thompsonf.plmap import PLMap, identity, word_to_plmap, xn, yn
from thompsonf.report import Check, Report
from thompsonf.rng import SplitMix64
from thompsonf.schreier import BFS_LETTERS, _landing, ball, find_path
from thompsonf.stabgen import (
    MAX_FACTORS,
    MAX_SAMPLES,
    StabilizerGens,
    base_generator_words,
    base_rotation,
    check_reduction,
    check_stabilizer_relators,
    check_twin_points,
    format_generators,
    generators_to_json,
    schreier_x_word,
    schreier_y_word,
    stabilizer_generators,
    verify_generators,
)
from thompsonf.words import (
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

FIXTURES = Path(__file__).parent / "fixtures"


def _conjugator(point):
    """stabgen._conjugator of a point, from its _landing."""
    return stabgen._conjugator(point.period, _landing(point))


def test_schreier_x_word_with_empty_label_is_a_shifted_generator():
    assert schreier_x_word("", 1) == "abA"
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
    with pytest.raises(ValueError, match="label length must be <= 12, got 13"):
        check_reduction(13, 4)


def _reference_check_reduction(max_label_len, max_n):
    """check_reduction with every label's prefix map built from its whole address word."""
    report = Report("index reduction")
    for length in range(max_label_len + 1):
        for bits in product("AB", repeat=length):
            label = "".join(bits)
            count_a, count_b = label.count("A"), label.count("B")
            shown = label or "e"
            prefix = word_to_plmap(stabgen.address_word(label))
            prefix_inv = prefix.inverse()
            for n in range(1, max_n + 1):
                ok_x = prefix * word_to_plmap(xn_word(n + 1)) * prefix_inv == xn(n + 1 + count_b)
                report.add(f"x[{shown},{n}] == x{n + 1 + count_b}", ok_x)
                ok_y = prefix * word_to_plmap(yn_word(n)) * prefix_inv == yn(n + count_a)
                report.add(f"y[{shown},{n}] == y{n + count_a}", ok_y)
    return report


def test_reduction_along_the_label_trie_matches_the_per_label_reference():
    for max_label_len in range(1, 8):
        for max_n in range(1, 5):
            report = check_reduction(max_label_len, max_n)
            assert report.lines() == _reference_check_reduction(max_label_len, max_n).lines()


def test_reduction_memo_hides_no_failure(monkeypatch):
    # A -> x0^-1 alone breaks the x identities below every A and shifts the y ones
    expand = {"A": "A", "B": "b"}
    monkeypatch.setattr(stabgen, "address_word", lambda label: "".join(expand[ch] for ch in label))
    for max_label_len, max_n in ((1, 1), (4, 2), (6, 4)):
        report = check_reduction(max_label_len, max_n)
        reference = _reference_check_reduction(max_label_len, max_n)
        assert report.lines() == reference.lines()
        assert report.failures() and report.failures() == reference.failures()
    assert "FAIL  x[A,1] == x2" in check_reduction(1, 1).lines()


def test_reduction_composes_once_per_distinct_letter_and_map(monkeypatch):
    compose = PLMap.compose
    calls = [0]

    def counted(self, other):
        calls[0] += 1
        return compose(self, other)

    monkeypatch.setattr(PLMap, "compose", counted)
    assert check_reduction(12, 4).passed
    assert calls[0] <= 200  # a prefix map per label and four composes per label and n take 192,519


def test_generator_sets_checks_and_reports_keep_their_value_semantics():
    gens = stabilizer_generators(parse_point("5/11"))
    assert repr(gens) == (
        "StabilizerGens(point=RationalPoint(preperiod='', period='0111010001'), conjugator='AAbb', "
        "generators=('AAbbabABBaa', 'AAbbaabAABBaa', 'AAbbAAbaBBaa', 'AAbbAAAbaaBBaa', "
        "'AAbbBBaBaBaBBaBBBBaBBaa'), period='0111010001')"
    )
    endpoint = StabilizerGens(point=ZERO_POINT, conjugator="", generators=("a", "b"), period="0")
    assert stabilizer_generators(ZERO_POINT) == endpoint
    assert hash(endpoint) == hash(stabilizer_generators(ZERO_POINT)) == hash((ZERO_POINT, "", ("a", "b"), "0"))
    assert endpoint != StabilizerGens(ZERO_POINT, "", ("a", "B"), "0")
    check = Check(name="x", passed=True)
    assert repr(check) == "Check(name='x', passed=True)"
    assert check == Check("x", True) and check != Check("x", False)
    assert hash(check) == hash(("x", True))
    for frozen, name in ((gens, "conjugator"), (gens, "other"), (check, "passed"), (check, "other")):
        with pytest.raises(AttributeError):
            setattr(frozen, name, "y")
    report = Report("t", [check])
    assert repr(report) == "Report(title='t', checks=[Check(name='x', passed=True)])"
    assert repr(Report("t")) == "Report(title='t', checks=[])"
    assert report == Report(title="t", checks=[Check("x", True)])
    assert report != Report("t") and report != Report("u", [check])
    assert Report("t").checks is not Report("t").checks
    with pytest.raises(TypeError):
        hash(report)
    report.title = "u"  # not frozen: verify and selftest retitle the report they print
    assert report == Report("u", [check])


def test_endpoint_stabilizer_is_the_whole_group():
    for point in (ZERO_POINT, ONE_POINT):
        gens = stabilizer_generators(point)
        assert gens.conjugator == ""
        assert gens.generators == ("a", "b")


def test_generators_for_one_half():
    gens = stabilizer_generators(canonicalize("1", "0"))
    assert gens.conjugator == ""
    assert gens.period == "0"
    assert gens.generators == (
        xn_word(2),
        xn_word(3),
        yn_word(1),
        yn_word(2),
        "B",
    )
    assert verify_generators(gens).passed


def test_base_point_detection_uses_the_matching_rotation():
    # 10(0100)^inf stores as 1(0010); the generating set still uses the
    # rotation 0100 that exhibits it as a base point, with no conjugator
    point = canonicalize("10", "0100")
    gens = stabilizer_generators(point)
    assert gens.conjugator == ""
    assert gens.period == "0100"
    assert gens.generators[4] == stabilizer_period_word("0100")
    assert gens.generators[4] == parse_word("BBaBB") == "BBaBB"
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


def test_base_rotation_at_its_edges():
    # its three base cases, a preperiod of 10, of 1 and an empty one; points that start with 11 or 0;
    # and the endpoints, on which the run of the landing is not defined: without the guard, (0) and
    # (1) would read as the base points 10(0) and 10(1)
    cases = {"10(0100)": "0100", "1(0010)": "0100", "(1000)": "0010", "11(0100)": None, "0(1)": None}
    for text, rotation in cases.items():
        assert base_rotation(parse_point(text)) == rotation, text
    assert base_rotation(ZERO_POINT) is None and base_rotation(ONE_POINT) is None


def test_gens_for_a_long_period_takes_linear_time():
    # 1/8009 has a 4004-letter period and no base rotation.  Trying every
    # rotation took 0.8-1.0 s; the conjugator, a 26-letter first run and arc,
    # takes under 1 ms on a 2-vCPU Xeon, so the budget leaves room for load
    point = value_to_point(F(1, 8009))
    assert len(point.period) == 4004 and base_rotation(point) is None
    times = []
    for _ in range(5):
        start = time.perf_counter()
        gens = stabilizer_generators(point)
        times.append(time.perf_counter() - start)
    assert act_word(point, gens.conjugator) == canonicalize("10", gens.period)
    assert min(times) < 0.25, f"best of 5 took {min(times):.3f}s, budget is 0.25s"


def test_gens_for_a_nineteen_letter_preperiod():
    # the one-sided search exceeded its vertex cap here; the conjugator is
    # checked by its properties: it moves the point to 10(0011), and it is
    # the least geodesic that the bidirectional search finds
    point = parse_point("0110110110110110110(0011)")
    target = canonicalize("10", "0011")
    times = []
    for _ in range(3):
        start = time.perf_counter()
        gens = stabilizer_generators(point)
        times.append(time.perf_counter() - start)
    h = gens.conjugator
    assert gens.period == "0011"
    assert act_word(point, h) == target
    assert len(h) == 29
    assert search_path(point, target) == h
    assert verify_generators(gens, samples=20).passed
    # about 0.06 s on a 2-vCPU Xeon; the budget leaves room for load
    assert min(times) < 0.5, f"best of 3 took {min(times):.3f}s, budget is 0.5s"


def test_gens_inverts_the_conjugator_once_per_call(monkeypatch):
    # the five generators are h g h^-1 for the base words g; h^-1 is built once, not once for
    # each generator
    inverted = []

    def counted(word):
        inverted.append(word)
        return invert_word(word)

    monkeypatch.setattr(words, "invert_word", counted)
    monkeypatch.setattr(stabgen, "invert_word", counted)
    point = parse_point("0110110110110110110(0011)")
    gens = stabilizer_generators(point)
    h = gens.conjugator
    assert len(h) == 29 and inverted.count(h) == 1
    monkeypatch.undo()
    assert gens.generators == tuple(conjugate(g, h) for g in base_generator_words("0011"))


def test_gens_text_of_long_searches_matches_the_frozen_fixture():
    # Points whose conjugators take 16-29 letters, frozen when a search read
    # the least geodesic off two search trees; the text is frozen, one header
    # line and five generator lines per point.
    lines = (FIXTURES / "gens_long_search.txt").read_text().splitlines(keepends=True)
    blocks = ["".join(lines[k : k + 6]) for k in range(0, len(lines), 6)]
    lengths = []
    for block in blocks:
        point = parse_point(block.split()[1].removeprefix("point="))
        gens = stabilizer_generators(point)
        assert format_generators(gens) == block
        lengths.append(len(gens.conjugator))
    assert len(blocks) >= 5 and min(lengths) >= 16 and max(lengths) == 29


def _least_geodesics(target, radius):
    """search_path(point, target) for many points, from one BFS ball of the radius around the target.

    Inside the ball the least geodesic takes, at each vertex, the least
    letter that lowers the distance to the target by one.  From a point
    outside it, a plain BFS over act_letter, letters in BFS_LETTERS order,
    grows from the point until a layer meets the ball; every vertex of that
    layer in the ball is at the full radius, so the least geodesic runs
    through the one discovered first.  Only a ball's vertices, its distances
    as ball_views reads them, and act_letter are used; points are keyed by
    their (preperiod, period) fields, which hash faster than the points.
    """
    around = ball(target, radius)
    index = {(p.preperiod, p.period): i for i, p in enumerate(around.vertices)}
    distances = ball_views(around)[1]
    memo = {(target.preperiod, target.period): ""}

    def descend(point):
        path = []
        key = (point.preperiod, point.period)
        while key not in memo:
            d = distances[index[key]]
            for letter in BFS_LETTERS:
                image = act_letter(point, letter)
                after = (image.preperiod, image.period)
                if after in index and distances[index[after]] == d - 1:
                    break
            path.append((key, letter))
            point, key = image, after
        word = memo[key]
        for key, letter in reversed(path):
            word = memo[key] = letter + word
        return word

    def least(point):
        layer, seen = [(point, "")], {(point.preperiod, point.period)}
        while True:
            met = [(p, word) for p, word in layer if (p.preperiod, p.period) in index]
            if met:
                return met[0][1] + descend(met[0][0])
            after = []
            for p, word in layer:
                for letter in BFS_LETTERS:
                    image = act_letter(p, letter)
                    key = (image.preperiod, image.period)
                    if key not in seen:
                        seen.add(key)
                        after.append((image, word + letter))
            layer = after

    return least


def test_least_geodesic_reference_is_find_path():
    for text in ("0110110(0011)", "0111(0)", "(0100)", "0101100(01)", "11101(001)", "110(1)"):
        point = parse_point(text)
        target = canonicalize("10", point.period)
        expected = search_path(point, target)
        assert len(expected) > 0 and find_path(point, target) == expected
        for radius in (0, 3, 8):
            assert _least_geodesics(target, radius)(point) == expected, (text, radius)


def test_greedy_conjugator_is_the_least_geodesic_on_every_short_point():
    # every canonical point but the endpoints with a preperiod of at most 12
    # letters and a period of at most 4; a bidirectional search on each takes
    # about 50 s, the reference about 2 s
    periods = [w for n in range(1, 5) for w in map("".join, product("01", repeat=n)) if primitive_root(w) == w]
    compared = 0
    for w in periods:
        least = _least_geodesics(canonicalize("10", w), 14)
        for n in range(13):
            for bits in product("01", repeat=n):
                v = "".join(bits)
                if v[-1:] != w[-1] and (v or len(w) > 1):
                    point = RationalPoint(v, w)
                    assert _conjugator(point) == least(point), point
                    compared += 1
    assert len(periods) == 22 and compared == 22 * 4096 - 2


def test_greedy_conjugator_is_find_paths_word_on_seeded_points():
    # preperiods of up to 24 letters, the shorter ones more often, since a
    # search takes about 1.9 times longer per letter, and periods of 1 to 7
    rng = SplitMix64(20_241)
    lengths = []
    while len(lengths) < 2000:
        v = "".join("01"[rng.below(2)] for _ in range(min(rng.below(25), rng.below(25))))
        point = canonicalize(v, "".join("01"[rng.below(2)] for _ in range(1 + rng.below(7))))
        if point.is_endpoint() or base_rotation(point) is not None:
            continue
        h = stabilizer_generators(point).conjugator
        base = canonicalize("10", point.period)
        assert h == find_path(point, base) == search_path(point, base), point
        lengths.append((len(point.preperiod), len(point.period)))
    assert max(lengths)[0] == 24 and {n for _, n in lengths} == set(range(1, 8))
    assert sum(n == 1 for _, n in lengths) > 200  # dyadic points


def _forbid_search(monkeypatch):
    """Make growing any Schreier ball fail, so that no search can run."""

    def no_search(*args):
        raise AssertionError(f"a ball grew on {args}")

    monkeypatch.setattr(schreier.SchreierBall, "grow", no_search)


def test_no_search_runs_when_shortening_lands_on_the_base_point(monkeypatch):
    # the conjugator's word takes 10100(0111) to 10(0111) itself, and 101(10) by B to 1(10), then by a
    # to (10), the canonical form of 10(10); on 11(0100) its a lands on 1(0100), which is
    # 10(1000), and the arc b of the period cycle ends at 1(0010); on 01(0100), whose period ends
    # in 0, its A lands on 1(0010), the canonical form of 10(0100), and the arc is empty
    points = [canonicalize(v, w) for v, w in (("10100", "0111"), ("1011", "01"), ("11", "0100"), ("01", "0100"))]
    words = [search_path(point, canonicalize("10", point.period)) for point in points]
    assert words == ["BaBB", "Ba", "ab", "A"]
    _forbid_search(monkeypatch)
    assert [stabilizer_generators(point).conjugator for point in points] == words


def test_descent_and_search_give_find_paths_word_on_every_short_tail():
    # every canonical non-base point with a preperiod of at most 2 letters and a primitive period of at
    # most 10: no preperiod letter follows the first run there, so the word is the first run's letters,
    # then the arc of the period cycle from where they land, equal to the search's word
    compared = 0
    for n in range(1, 11):
        for w in map("".join, product("01", repeat=n)):
            if primitive_root(w) != w:
                continue
            for v in ("", "0", "1", "00", "01", "10", "11"):
                if v[-1:] == w[-1] or (not v and n == 1):
                    continue
                point = RationalPoint(v, w)
                if base_rotation(point) is None:
                    base = canonicalize("10", w)
                    assert _conjugator(point) == find_path(point, base) == search_path(point, base), point
                    compared += 1
    assert compared == 5896


def _next_letter(head, long):
    """The letter rule's letter on a sequence that starts with head, or None where it stops.

    long says that the canonical preperiod has more than two letters.  The
    conjugator's closed form is the word of this rule's walk, and the tests
    compare the two.
    """
    if head[0] == "0":
        return "A"  # 00 -> 0, or 01 -> 10
    if head[1] == "1":
        return "a"  # 11 -> 1
    return "B" if long else None  # 100 -> 10, or 101 -> 110


def _letter_rule_walk(point):
    """The letters of the rule walked with act_letter from the point, and the point where it stops.

    The walk is bounded, so a rule that did not stop fails here rather than hangs.
    """
    walk = []
    for _ in range(3 * len(point.preperiod) + len(point.period) + 2):
        letter = _next_letter(point.prefix(2), len(point.preperiod) > 2)
        if letter is None:
            return "".join(walk), point
        point = act_letter(point, letter)
        walk.append(letter)
    pytest.fail(f"the rule did not stop on {point}")


def test_letter_rule_shortens_a_long_preperiod_within_three_letters():
    # the rule's termination argument: while the canonical preperiod has more than two letters, no
    # letter makes it longer and one of every three makes it shorter; each point takes at most three
    # letters per preperiod letter, so the test stays bounded even under a wrong rule
    periods = [w for n in range(1, 4) for w in map("".join, product("01", repeat=n)) if primitive_root(w) == w]
    heads = set()
    for n in range(3, 7):
        for v in map("".join, product("01", repeat=n)):
            for w in periods:
                point = canonicalize(v, w)
                if len(point.preperiod) > 2:
                    heads.add(point.preperiod[:3])
                while len(point.preperiod) > 2:
                    before = point
                    for _ in range(3):
                        letter = _next_letter(point.prefix(2), len(point.preperiod) > 2)
                        assert letter is not None, (v, w, point)
                        point = act_letter(point, letter)
                        assert len(point.preperiod) <= len(before.preperiod), (v, w, before, point)
                        if len(point.preperiod) < len(before.preperiod):
                            break
                    assert len(point.preperiod) < len(before.preperiod), (v, w, before)
    assert heads == set(map("".join, product("01", repeat=3)))


@pytest.mark.parametrize("n", [2, 3, 17, 4096])
def test_descent_reaches_the_base_point_of_one_run_periods_without_a_search(monkeypatch, n):
    # (0^(n-1) 1) takes A^(n-1) and (1^(n-1) 0) takes a^(n-2), (10) being a base point; the search
    # alone needs about 2 GB at n = 2^16, so it is compared only where it is quick
    cases = [
        (RationalPoint("", "0" * (n - 1) + "1"), "A" * (n - 1)),
        (RationalPoint("", "1" * (n - 1) + "0"), "a" * (n - 2)),
    ]
    if n <= 17:
        assert [search_path(point, canonicalize("10", point.period)) for point, _ in cases] == [h for _, h in cases]
    _forbid_search(monkeypatch)
    for point, h in cases:
        assert stabilizer_generators(point).conjugator == h
        assert act_word(point, h) == canonicalize("10", point.period)


def _shorter_arc(w, j):
    """The shorter word moving 10(w[j:] + w[:j]) to 10(w) along the period cycle, the loop arc on a tie."""
    loop, rest = period_loop_word(w[:j]), stabilizer_period_word(w[j:])
    return loop if len(loop) <= len(rest) else rest


def test_arc_is_find_paths_word_between_every_pair_of_base_points():
    # every primitive W of 2-10 letters and every rotation W' = W[j:] + W[:j] other than W: both
    # arcs of the period cycle move 10(W') to 10(W), and the shorter, the loop arc on a tie, is
    # the least geodesic that the bidirectional search finds; the two arcs tie on 618 of the 15,818 pairs
    pairs = ties = 0
    for n in range(2, 11):
        for w in map("".join, product("01", repeat=n)):
            if primitive_root(w) != w:
                continue
            target = canonicalize("10", w)
            for j in range(1, n):
                source = canonicalize("10", w[j:] + w[:j])
                loop, rest = period_loop_word(w[:j]), stabilizer_period_word(w[j:])
                assert act_word(source, loop) == target and act_word(source, rest) == target, (w, j)
                assert find_path(source, target) == _shorter_arc(w, j) == search_path(source, target), (w, j)
                pairs += 1
                ties += len(loop) == len(rest)
    assert (pairs, ties) == (15818, 618)


def test_letter_rule_lands_on_a_base_point():
    # every non-endpoint point with a preperiod of at most 6 letters and a period of at most 5, 7,804
    # pairs (v, w) in all: the rule, walked with act_letter, stops on a point that base_rotation
    # reads as 10(W[j:] + W[:j]), and the conjugator is the walk followed by the arc from there
    def strings(max_len):
        return ["".join(bits) for n in range(max_len + 1) for bits in product("01", repeat=n)]

    points = {canonicalize(v, w) for v in strings(6) for w in strings(5) if w} - {ZERO_POINT, ONE_POINT}
    for point in points:
        walk, landing = _letter_rule_walk(point)
        u = base_rotation(landing)
        assert u is not None, (point, landing)
        w = point.period
        assert _conjugator(point) == walk + _shorter_arc(w, (w + w).find(u)), point
    assert len(points) == 3326


def test_conjugator_is_the_letter_rule_walk_then_the_arc_on_long_preperiods_and_runs():
    # the closed form against the letter rule, on seeded preperiods of up to 2,000 letters with
    # periods of up to 12, and on the two-run periods below for k up to 200; the landing's rotation
    # is found by trying every rotation, not by base_rotation, which reads the closed form's landing
    rng = SplitMix64(2_000)
    points = []
    for _ in range(100):
        v = "".join("01"[rng.below(2)] for _ in range(rng.below(2_001)))
        points.append(canonicalize(v, "".join("01"[rng.below(2)] for _ in range(1 + rng.below(12)))))
    for k in (1, 2, 3, 5, 8, 13, 64, 200):
        for w in ("0" * k + "1" * k, "0" * k + "1" + "0" * (k + 1) + "1", "1" * k + "0" + "1" * k + "00"):
            points.append(RationalPoint("", w))
    longest = 0
    for point in points:
        if point.is_endpoint():
            continue
        walk, landing = _letter_rule_walk(point)
        w = point.period
        u = _rotation_by_search(landing)
        assert u is not None, (point, landing)
        assert _conjugator(point) == walk + _shorter_arc(w, (w + w).find(u)), point
        longest = max(longest, len(point.preperiod))
    assert longest > 1_900


def test_conjugators_of_long_runs_reach_the_base_point():
    # (0^k 1^k), (0^k 1 0^(k+1) 1) and (1^k 0 1^k 00) for every k up to 12, compared with the
    # search, and seeded k up to 64; the search alone exceeded its vertex cap at k = 40, 40 and 24
    rng = SplitMix64(64)
    for k in sorted(set(range(1, 13)) | {13 + rng.below(52) for _ in range(12)} | {64}):
        for w in ("0" * k + "1" * k, "0" * k + "1" + "0" * (k + 1) + "1", "1" * k + "0" + "1" * k + "00"):
            point = RationalPoint("", w)
            gens = stabilizer_generators(point)
            target = canonicalize("10", gens.period)
            assert act_word(point, gens.conjugator) == target, w
            assert len(gens.conjugator) <= 3 * k + 2, w
            if k <= 12:
                assert gens.conjugator == search_path(point, target), w


@pytest.mark.parametrize("length", [50, 200, 1000])
def test_gens_and_verify_are_fast_on_long_preperiods(length):
    # the search from the point exceeded its vertex cap from about 32
    # letters; on a 2-vCPU Xeon, 1000 letters take about 2 ms for gens and
    # 20 ms for verify, so the budget leaves room for load
    rng = SplitMix64(length)
    v = "".join("01"[rng.below(2)] for _ in range(length - 1)) + "0"
    point = canonicalize(v, "0011")
    start = time.perf_counter()
    gens = stabilizer_generators(point)
    made = time.perf_counter()
    report = verify_generators(gens)
    checked = time.perf_counter()
    assert len(point.preperiod) == length
    assert act_word(point, gens.conjugator) == canonicalize("10", "0011")
    assert report.passed
    assert made - start < 1 and checked - made < 1, (made - start, checked - made)


def test_conjugated_generators_for_a_non_base_point():
    point = value_to_point(F(4, 15))
    gens = stabilizer_generators(point)
    assert gens.conjugator != ""
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
    report = verify_generators(gens, samples=60, seed=99)
    assert report.passed
    names = [c.name for c in report.checks]
    assert any("sequence action" in n for n in names)
    assert any("map evaluation" in n for n in names)
    assert any("random products" in n for n in names)
    assert "x5 == x2^2 x3 x2^-2" in names
    assert "y4 == y1^2 y2 y1^-2" in names
    with pytest.raises(ValueError):
        verify_generators(gens, samples=0)
    with pytest.raises(ValueError, match="samples must be <= 100000, got 100001"):
        verify_generators(gens, samples=100_001)


def _reference_verify(gens, samples, seed):
    """verify_generators with each random product spelled out and folded whole."""
    point = gens.point
    value = point.value()
    report = Report(f"stabilizer generators for {point}")
    for k, word in enumerate(gens.generators, start=1):
        report.add(f"generator {k} fixes {point} (sequence action)", act_word(point, word) == point)
        report.add(f"generator {k} fixes {point} (map evaluation)", word_to_plmap(word).evaluate(value) == value)
    pool = gens.generators + tuple(invert_word(g) for g in gens.generators)
    rng = SplitMix64(seed)
    bad = 0
    for _ in range(samples):
        word = ""
        for _ in range(1 + rng.below(MAX_FACTORS)):
            word += rng.choice(pool)
        bad += act_word(point, word) != point
    report.add(f"{samples} seeded random products (seed {seed}) fix {point}", bad == 0)
    return report


def _whole_word_lines(gens, samples, seed):
    """verify_generators' PASS/FAIL lines, from each whole word folded by the references of tests/oracles.py."""
    point = gens.point
    v, w, value = point.preperiod, point.period, point.value()
    lines, moved = [], False
    for k, word in enumerate(gens.generators, start=1):
        fixed = naive_fixes(v, w, word)
        moved |= not fixed
        lines.append((f"generator {k} fixes {point} (sequence action)", fixed))
        lines.append((f"generator {k} fixes {point} (map evaluation)", fraction_image(word, value) == value))
    bad = 0
    if moved:  # a sound set's products all fix the point, so verify draws none
        pool = gens.generators + tuple(word[::-1].swapcase() for word in gens.generators)
        rng = SplitMix64(seed)
        for _ in range(samples):
            product_word = "".join([pool[rng.below(len(pool))] for _ in range(1 + rng.below(MAX_FACTORS))])
            bad += not naive_fixes(v, w, product_word)
    lines.append((f"{samples} seeded random products (seed {seed}) fix {point}", bad == 0))
    return lines


def _mutated(rng, word):
    """The word with one letter replaced, inserted or deleted at a seeded place."""
    i = rng.below(len(word) + 1)
    op = rng.below(3) if word else 1
    if op == 1:
        return word[:i] + rng.choice(LETTERS) + word[i:]
    i = min(i, len(word) - 1)
    if op == 0:
        return word[:i] + rng.choice(LETTERS.replace(word[i], "")) + word[i + 1:]
    return word[:i] + word[i + 1:]


def test_verify_lines_match_folds_of_each_whole_word():
    # verify folds the conjugator h once when every generator reads h m h^-1,
    # and whole words otherwise; on every kind of set its lines must be those
    # of the whole words folded letter by letter by the independent
    # references.  Half the sets with a wrong conjugator field also have a
    # mutated generator, so the lines fail on both ways through verify
    rng = SplitMix64(97)
    kinds = dict.fromkeys(
        ("sound", "mutated", "squared fifth", "wrong conjugator", "empty conjugator", "conjugator over half a word", "random h m h^-1"),
        0,
    )
    split = refused = failing = 0
    for case in range(2800):
        point = random_point(rng, 7, 5)
        sound = stabilizer_generators(point)
        h, generators = sound.conjugator, sound.generators
        kind = tuple(kinds)[case % len(kinds)]
        if kind == "squared fifth":
            generators = generators[:-1] + (generators[-1] * 2,)
        elif kind == "wrong conjugator":
            h = _mutated(rng, h)
        elif kind == "empty conjugator":
            h = ""
        elif kind == "conjugator over half a word":
            word = generators[rng.below(len(generators))]
            h = word[: len(word) // 2 + 1]
        elif kind == "random h m h^-1":
            h = random_word(rng, 10)
            cores = [rng.choice((g, random_word(rng, 6))) for g in base_generator_words(point.period)]
            generators = tuple(h + m + invert_word(h) for m in cores)
        if kind == "mutated" or "conjugator" in kind and rng.below(2):
            k = rng.below(len(generators))
            generators = generators[:k] + (_mutated(rng, generators[k]),) + generators[k + 1:]
        gens = StabilizerGens(point, h, generators, sound.period)
        kinds[kind] += 1
        samples, seed = 1 + rng.below(3), rng.below(1 << 16)
        report = verify_generators(gens, samples, seed)
        lines = [(c.name, c.passed) for c in report.checks[: 2 * len(generators) + 1]]
        assert lines == _whole_word_lines(gens, samples, seed), (str(point), h, generators)
        if stabgen._split_conjugator(gens)[0]:
            split += 1
        elif h:
            refused += 1
        failing += not all(passed for _, passed in lines)
    assert min(kinds.values()) == 400, kinds
    assert split >= 800 and refused >= 800 and failing >= 1000, (split, refused, failing)


def test_verify_generators_matches_the_unmemoised_fold():
    cases = [stabilizer_generators(value_to_point(F(p, q))) for p, q in ((4, 15), (5, 6), (1, 3), (7, 24))]
    cases.append(stabilizer_generators(parse_point("0110(011)")))
    # one generator of 4/15's set replaced by a word that moves the point:
    # every product that uses it, and only those, must be folded in full
    sound = cases[0]
    broken = StabilizerGens(sound.point, sound.conjugator, sound.generators[:2] + ("a",) + sound.generators[3:], sound.period)
    cases.append(broken)
    # a conjugated set whose fifth word h a h^-1 moves h's image of the point: its map-evaluation line must fail
    long = stabilizer_generators(parse_point("0110110110(0011)"))
    h = long.conjugator
    moved = StabilizerGens(long.point, h, long.generators[:4] + (h + "a" + invert_word(h),), long.period)
    cases.append(moved)
    cases.append(StabilizerGens(sound.point, "", ("a", "A"), sound.period))
    for gens in cases:
        for samples, seed in ((100, 1), (40, 7), (1, 5)):
            report = verify_generators(gens, samples, seed)
            reference = _reference_verify(gens, samples, seed)
            assert report.title == reference.title
            assert report.checks[:len(reference.checks)] == reference.checks
    fifth = verify_generators(moved).checks[9]
    assert fifth.name == f"generator 5 fixes {moved.point} (map evaluation)" and not fifth.passed
    products = verify_generators(broken).checks[10]
    assert products.name == f"100 seeded random products (seed 1) fix {broken.point}"
    assert not products.passed
    # one short product of x0 and x0^-1 per seed: it returns to the point for
    # some seeds only, so folding from a wrong image so far changes the verdict
    letters = cases[-1]
    verdicts = []
    for seed in range(200):
        report = verify_generators(letters, 1, seed)
        assert report.checks[:5] == _reference_verify(letters, 1, seed).checks
        verdicts.append(report.checks[4].passed)
    assert 20 <= sum(verdicts) <= 180


def test_verify_draws_only_when_a_pool_word_moves_the_point(monkeypatch):
    next_u64 = SplitMix64.next_u64
    draws = [0]

    def counted(self):
        draws[0] += 1
        return next_u64(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    sound = stabilizer_generators(value_to_point(F(4, 15)))
    assert verify_generators(sound, samples=MAX_SAMPLES).passed
    assert draws[0] == 0
    broken = StabilizerGens(sound.point, sound.conjugator, sound.generators[:2] + ("a",) + sound.generators[3:], sound.period)
    letters = StabilizerGens(sound.point, "", ("a", "A"), sound.period)
    for gens in (broken, letters):
        for samples, seed in ((100, 1), (40, 7), (1, 5)):
            draws[0] = 0
            verify_generators(gens, samples, seed)
            drawn = draws[0]
            draws[0] = 0
            _reference_verify(gens, samples, seed)
            assert drawn == draws[0] > 0


def test_verify_folds_each_generator_once_and_inverts_none_of_a_sound_set(monkeypatch):
    # each oracle's kernel is called once, with the conjugator h as the prefix
    # and the empty word and each generator's core as the tails; a sound set
    # draws no product, so nothing but h is inverted, and nothing at all
    # when there is no conjugator
    calls = {"fold": [], "image_digits": [], "invert": []}
    fold, image_digits, invert = stabgen._fold, stabgen._image_digits, stabgen.invert_word

    def counted_fold(v, w, prefix, tails):
        calls["fold"].append((prefix, tuple(tails)))
        return fold(v, w, prefix, tails)

    def counted_image_digits(prefix, tails, t):
        calls["image_digits"].append((prefix, tuple(tails)))
        return image_digits(prefix, tails, t)

    def counted_invert(word):
        calls["invert"].append(word)
        return invert(word)

    monkeypatch.setattr(stabgen, "_fold", counted_fold)
    monkeypatch.setattr(stabgen, "_image_digits", counted_image_digits)
    monkeypatch.setattr(stabgen, "invert_word", counted_invert)
    points = (value_to_point(F(4, 15)), parse_point("0110110110110110110(0011)"), ZERO_POINT)
    for gens in map(stabilizer_generators, points):
        h = gens.conjugator
        for calls_of_one in calls.values():
            calls_of_one.clear()
        assert verify_generators(gens, samples=MAX_SAMPLES).passed
        cores = tuple(g[len(h) : len(g) - len(h)] for g in gens.generators)
        tails = ("",) + cores if h else cores  # with no conjugator, each image is compared with the point
        assert calls["fold"] == calls["image_digits"] == [(h, tails)]
        assert calls["invert"] == ([h] if h else [])


def test_verify_reports_are_reproducible():
    gens = stabilizer_generators(value_to_point(F(4, 15)))
    first = verify_generators(gens, samples=40, seed=7)
    second = verify_generators(gens, samples=40, seed=7)
    assert [c.name for c in first.checks] == [c.name for c in second.checks]
    assert [c.passed for c in first.checks] == [c.passed for c in second.checks]


def test_verify_catches_a_wrong_generator():
    point = canonicalize("1", "0")
    broken = StabilizerGens(point, "", ("a",), "0")
    report = verify_generators(broken, samples=10)
    assert not report.passed


def test_map_evaluation_does_not_lean_on_the_sequence_action(monkeypatch):
    # with x0's map wrong, only the map-evaluation lines can notice
    gens = stabilizer_generators(value_to_point(F(4, 15)))
    assert verify_generators(gens).passed
    monkeypatch.setitem(plmap._LETTER_MAPS, "a", plmap._LETTER_MAPS["A"])
    lines = {c.name: c.passed for c in verify_generators(gens).checks}
    for k in range(1, 6):
        assert lines[f"generator {k} fixes {gens.point} (sequence action)"]
        assert not lines[f"generator {k} fixes {gens.point} (map evaluation)"]


def test_sequence_action_does_not_lean_on_the_map_evaluation(monkeypatch):
    # with x0's rule in the sequence action's table wrong, only the sequence-action lines can notice
    gens = stabilizer_generators(value_to_point(F(4, 15)))
    wrong = {head: (rules[1],) + rules[1:] for head, rules in cantor._HEADS.items()}
    monkeypatch.setattr(cantor, "_HEADS", wrong)
    lines = {c.name: c.passed for c in verify_generators(gens).checks}
    for k in range(1, 6):
        assert not lines[f"generator {k} fixes {gens.point} (sequence action)"]
        assert lines[f"generator {k} fixes {gens.point} (map evaluation)"]


def test_verify_builds_no_map_once_the_point_independent_suites_are_cached(monkeypatch):
    sound = stabilizer_generators(value_to_point(F(4, 15)))
    cases = [sound, StabilizerGens(sound.point, "", ("a", "A"), sound.period)]
    cases += [stabilizer_generators(parse_point(text)) for text in ("0110(011)", "1/20011", "7/24")]
    verify_generators(sound, samples=5)
    compose = PLMap.compose
    calls = [0]

    def counted(self, other):
        calls[0] += 1
        return compose(self, other)

    monkeypatch.setattr(PLMap, "compose", counted)
    for gens in cases:
        report = verify_generators(gens, samples=40)
        assert len([c for c in report.checks if "(map evaluation)" in c.name]) == len(gens.generators)
    assert calls[0] == 0
    plmap._piece.cache_clear()
    word_to_plmap("abA")  # the counter sees a piece built from its halves: b A, then a (b A)
    assert calls[0] == 2


def test_verify_for_a_long_period_takes_linear_time():
    # 1/20011 has a 6670-letter period and a fifth generator of 10,065
    # letters.  Building its map took about 2.4 s; folding b's value through
    # the letter maps and the sequence through a read offset takes about
    # 0.05 s on a 2-vCPU Xeon, so the budget leaves room for load
    gens = stabilizer_generators(value_to_point(F(1, 20011)))
    assert len(gens.period) == 6670 and len(gens.generators[4]) == 10065
    times = []
    for _ in range(3):
        start = time.perf_counter()
        report = verify_generators(gens)
        times.append(time.perf_counter() - start)
    assert report.passed and len(report.checks) == 22
    assert min(times) < 0.5, f"best of 3 took {min(times):.3f}s, budget is 0.5s"
    # on seeded preperiods of 25,000 and 100,000 letters with period 0011 the
    # conjugator has about 1.5 times as many letters, and four times the
    # letters take about four times the CPU time; a value fold whose letters
    # cost time linear in the value's bits took about eight times as long.
    # The two sizes alternate, so a stretch of load on the host slows both
    sets = []
    for length in (25_000, 100_000):
        rng = SplitMix64(length)
        sets.append(stabilizer_generators(canonicalize("".join("01"[rng.below(2)] for _ in range(length - 1)) + "0", "0011")))
    best = [float("inf")] * 2
    for _ in range(2):
        for i, gens in enumerate(sets):
            start = time.process_time()
            assert verify_generators(gens).passed
            best[i] = min(best[i], time.process_time() - start)
    assert best[1] <= 6 * best[0], f"best of 2: {best[0]:.3f}s at 25,000 letters, {best[1]:.3f}s at 100,000"


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


def test_one_generator_of_a_dyadic_point_is_a_conjugate_of_another():
    # at a dyadic point with w = 0, generator 2 is g5^-1 g1 g5 as a map (aabAA and babAB at 1/2), and with
    # w = 1 generator 4 is g5^-1 g3 g5, so four of the five generate; gens prints all five all the same
    assert invert_word("B") + "abA" + "B" == "babAB"
    assert word_to_plmap("aabAA") == word_to_plmap("babAB")
    rng = SplitMix64(1_025)
    periods = []
    for _ in range(40):
        prefix = "".join("01"[rng.below(2)] for _ in range(rng.below(12)))
        for point in (canonicalize(prefix + "1", "0"), canonicalize(prefix + "0", "1")):  # the twin forms
            gens = stabilizer_generators(point)
            g = gens.generators
            twin, first = (1, 0) if gens.period == "0" else (3, 2)
            assert word_to_plmap(g[twin]) == word_to_plmap(invert_word(g[4]) + g[first] + g[4]), point
            periods.append(gens.period)
    assert periods.count("0") == periods.count("1") == 40


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
