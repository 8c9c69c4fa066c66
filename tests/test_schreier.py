import hashlib
import json
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oracles import ball_views, fraction_ball_dot, search_path, string_ball_size
from sampling import random_point, random_word
from thompsonf.cantor import (
    _HEADS,
    _LOOP,
    _RULES,
    ONE_POINT,
    ZERO_POINT,
    RationalPoint,
    act_letter,
    act_word,
    canonicalize,
    parse_point,
    primitive_root,
)
from thompsonf.schreier import (
    _PARENT,
    _PLANS,
    _SELF,
    BFS_LETTERS,
    MAX_BALL_VERTICES,
    BallCapacityError,
    PathNotFoundError,
    SchreierBall,
    ball,
    check_addresses,
    export_dot,
    export_json,
    find_path,
    forbidden_prefix,
    same_orbit,
    vertex_at_address,
)
from thompsonf import cli, schreier
from thompsonf.report import Report
from thompsonf.rng import SplitMix64
from thompsonf.words import LETTERS, address_word, period_loop_word, stabilizer_period_word

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

# Vertex counts frozen from the raw rule-application oracle (see oracles.py).
BALL_SIZES = {
    ("1", "0"): [1, 3, 6, 11, 19, 32, 53],
    ("", "0100"): [1, 3, 7, 16, 31, 55, 94],
    ("1", "0010"): [1, 5, 14, 28, 51, 88, 148],
    ("10", "1"): [1, 4, 9, 17, 30, 51, 85],
    ("", "10"): [1, 5, 11, 21, 37, 63, 105],
    ("1", "10"): [1, 4, 11, 22, 40, 69, 116],
}


def test_fixed_point_ball_is_a_single_vertex_with_self_loops():
    b = ball(ZERO_POINT, 5)
    assert len(b) == 1
    assert ball_views(b)[2] == ((0, "x0", 0), (0, "x1", 0))
    assert len(ball(ONE_POINT, 4)) == 1


def test_radius_zero_ball_has_no_edges():
    b = ball(canonicalize("10", "0100"), 0)
    assert len(b) == 1
    assert ball_views(b)[2] == ()


def test_radius_one_ball_around_one_half():
    # hand application of the rewriting rules: x0 gives 010^inf, x0^-1 gives
    # 110^inf, x1 and x1^-1 fix the seed
    b = ball(canonicalize("1", "0"), 1)
    assert [str(v) for v in b.vertices] == ["1(0)", "01(0)", "11(0)"]
    assert ball_views(b)[1:] == ((0, 1, 1), ((0, "x0", 1), (0, "x1", 0), (1, "x1", 1), (2, "x0", 0)))


def test_ball_sizes_match_frozen_counts():
    for (v, w), sizes in BALL_SIZES.items():
        seed = canonicalize(v, w)
        assert [len(ball(seed, r)) for r in range(7)] == sizes


def test_ball_sizes_match_rule_oracle():
    for v, w in [("1", "0"), ("", "0100"), ("10", "1")]:
        seed = canonicalize(v, w)
        for r in range(6):
            assert string_ball_size(seed.preperiod, seed.period, r) == len(ball(seed, r))


def test_vertex_cap_is_enforced_and_named():
    with pytest.raises(BallCapacityError) as err:
        ball(canonicalize("1", "0"), 4, vertex_cap=5)
    assert err.value.cap == 5
    assert "5" in str(err.value)


def test_interior_vertices_have_unique_successors():
    b = ball(canonicalize("", "0100"), 4)
    _, distances, edges = ball_views(b)
    for label in ("x0", "x1"):
        out = {}
        for src, lab, dst in edges:
            if lab == label:
                assert src not in out, "two outgoing edges with one label"
                out[src] = dst
        for i, d in enumerate(distances):
            if d < b.radius:
                assert i in out, "interior vertex missing a successor"


def test_letter_action_is_injective_on_ball_vertices():
    b = ball(canonicalize("", "0100"), 4)
    for letter in "ab":
        images = [act_letter(p, letter) for p in b.vertices]
        assert len(set(images)) == len(images)


def test_self_loop_characterization():
    # x1 fixes exactly the 0-started sequences plus 10^inf and 1^inf;
    # x0 fixes only the two endpoint sequences; a ball has a self-loop
    # exactly where a letter fixes the vertex
    ten = canonicalize("1", "0")
    for seed in (ten, canonicalize("", "0100"), canonicalize("10", "1")):
        b = ball(seed, 4)
        loops = {(i, label) for i, label, j in ball_views(b)[2] if i == j}
        for i, p in enumerate(b.vertices):
            expect_x1 = p.prefix(1) == "0" or p in (ten, ONE_POINT)
            assert (act_letter(p, "b") == p) == expect_x1
            assert ((i, "x1") in loops) == expect_x1
            expect_x0 = p in (ZERO_POINT, ONE_POINT)
            assert (act_letter(p, "a") == p) == expect_x0
            assert ((i, "x0") in loops) == expect_x0


def test_loop_marks_are_exactly_the_identity_rules():
    identities = {
        (head, s)
        for head in _HEADS
        for s, letter in enumerate(BFS_LETTERS)
        for lhs, rhs in _RULES[letter]
        if head.startswith(lhs) and lhs == rhs
    }
    marked = {(head, s) for head, rules in _HEADS.items() for s, (n, _) in enumerate(rules) if n == _LOOP}
    assert marked == identities == {(head, s) for head in _HEADS if head[0] == "0" for s in (2, 3)}
    assert BFS_LETTERS == LETTERS == "".join(_RULES)
    assert sorted(_HEADS) == ["".join(bits) for bits in product("01", repeat=3)]
    for head, rules in _HEADS.items():
        assert len(rules) == 4
        for s, letter in enumerate(BFS_LETTERS):
            matching = [(len(lhs), rhs) for lhs, rhs in _RULES[letter] if head.startswith(lhs)]
            assert len(matching) == 1, (head, letter)
            if (head, s) not in marked:
                assert rules[s] == matching[0]
            else:
                assert rules[s] == (_LOOP, matching[0][1])


def test_each_plan_names_the_image_of_every_letter_it_leaves_out():
    # Every sequence with a preperiod of at most 5 letters and a primitive
    # period of at most 3, as a vertex discovered by each letter and as a root
    periods = [w for n in range(1, 4) for w in map("".join, product("01", repeat=n)) if primitive_root(w) == w]
    points = {canonicalize("".join(v), w) for n in range(6) for v in product("01", repeat=n) for w in periods}
    heads = set()
    for x in sorted(points, key=str):
        head = x.prefix(3)
        heads.add(head)
        for found_by, plans in zip((0, 1, 2, 3, -1), _PLANS):
            steps, where = plans[head]
            slots = [s for s, _, _ in steps]
            assert slots == sorted(slots)
            assert all((n, rhs) == _HEADS[head][s] for s, n, rhs in steps)
            parent = act_letter(x, BFS_LETTERS[found_by ^ 1]) if found_by >= 0 else None
            images = [parent, x] + [act_letter(x, BFS_LETTERS[s]) for s in slots]
            for s, letter in enumerate(BFS_LETTERS):
                k = where[s]
                if s in slots:
                    assert k == 2 + slots.index(s)
                else:  # the parent, the vertex itself or the image of an earlier step
                    assert k in (_PARENT, _SELF) or slots[k - 2] < s, (x, found_by, s)
                    assert found_by >= 0 or k != _PARENT
                assert act_letter(x, letter) == images[k], (x, found_by, letter)
    assert heads == set(_HEADS)
    # the twins a root's plan finds: x0^-1 and x1^-1 on 110, and both pairs on 111
    twins = {
        (head, steps[where[s] - 2][0], s)
        for head, (steps, where) in _PLANS[-1].items()
        for s in range(4)
        if where[s] >= 2 and steps[where[s] - 2][0] != s
    }
    assert twins == {("110", 1, 3), ("111", 0, 2), ("111", 1, 3)}


def test_on_four_or_more_letters_the_length_keeping_letters_split_the_heads_into_trees_with_one_way_down():
    # The premise of the lemma in schreier's docstring, read off the rule
    # table: on a preperiod of 4 or more letters a rule rewrites its head
    # inside the preperiod and changes the length by -1, 0 or +1.  Under the
    # letters that keep the length, each component of the eight heads is a
    # tree, and it has exactly one distinct edge that shortens the preperiod,
    # so no cycle passes through such a preperiod.  Loops and parallel edges
    # are set aside: edges are sets of two distinct ends.
    keeping, lowering = set(), set()
    for head, rules in _HEADS.items():
        for n, rhs in rules:
            if n == _LOOP:
                continue
            assert 1 <= n <= 3 and len(rhs) - n in (-1, 0, 1), (head, n, rhs)
            image = rhs + head[n:]  # the first letters of the image; those from the fourth on are kept
            if len(rhs) == n:
                keeping.add(frozenset((head, image)))
            elif len(rhs) < n:
                lowering.add((head, image))
    components, left = [], set(_HEADS)
    while left:
        component, todo = set(), [left.pop()]
        while todo:
            head = todo.pop()
            component.add(head)
            todo += [other for edge in keeping if head in edge for other in edge - component]
        left -= component
        components.append(component)
    for component in components:
        edges = [edge for edge in keeping if edge <= component]
        assert len(edges) == len(component) - 1, component  # connected, so a tree
        assert len([(head, image) for head, image in lowering if head in component]) == 1, component
    assert sorted(map(sorted, components)) == [["000"], ["001"], ["010", "100"], ["011", "101", "110"], ["111"]]
    assert lowering == {("000", "00"), ("001", "01"), ("100", "10"), ("110", "10"), ("111", "11")}


def test_a_tree_that_hangs_from_a_lengthening_step_never_shortens_up_to_the_bound():
    # The corollary that lets a ball append a hanging tree a generation at a time, read off the plans: a
    # step that lengthens a preperiod of 3 or more letters leads to one of five states (discovering slot,
    # head).  Closed under the plans' steps, which read the head only, those states hold no step that
    # shortens, so every vertex below such a root is a prefix of 3 or more letters before the root's
    # tail, and every generation is fixed by the root's state.  Walked generation by generation up to the
    # bound, no step shortens either, and the walk is the templates that balls append.
    roots = {(s, (rhs + head[n:])[:3]) for plans in _PLANS for head, (steps, _) in plans.items() for s, n, rhs in steps if len(rhs) > n}
    assert roots == {(0, "000"), (0, "001"), (1, "110"), (1, "111"), (2, "100")}
    states, todo = set(), list(roots)
    while todo:
        state = todo.pop()
        if state not in states:
            states.add(state)
            found_by, head = state
            for s, n, rhs in _PLANS[found_by][head][0]:
                assert len(rhs) >= n, (state, s)
                todo.append((s, (rhs + head[n:])[:3]))
    assert len(states) == 8
    for found_by, head in sorted(roots):
        generations = schreier._tree(found_by, head)
        level = [(head, 0, found_by)]  # the prefix, parent and discovering slot of each entry
        for k in range(40):
            if k == len(generations):
                schreier._derive(generations)
            if generations[k] is None:
                assert len(level) > schreier._GENERATION_BOUND
                break
            assert list(zip(*generations[k][:3])) == level, (found_by, head, k)
            steps = [(p, j, _PLANS[s][p[:3]][0]) for j, (p, _, s) in enumerate(level)]
            assert all(len(rhs) >= n for _, _, plan in steps for _, n, rhs in plan)
            level = [(rhs + p[n:], j, s) for p, j, plan in steps for s, n, rhs in plan]
        else:  # a chain of one entry a generation
            assert len(level) == 1


def test_a_radius_24_ball_keeps_no_generation_past_the_bound(monkeypatch):
    # nothing is derived at import; a large ball keeps each tree's generations up to the first that
    # holds more than _GENERATION_BOUND entries, and those of the three chains of one entry a generation
    code = "import sys; sys.path.insert(0, sys.argv[1]); from thompsonf import cli, schreier; print(schreier._TREES)"
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[None, {}]\n", "")
    monkeypatch.setattr(schreier, "_TREES", [None, {}])
    assert len(ball(parse_point("10(011)"), 24, 1_000_000)) == 907_056
    bound, trees = schreier._TREES
    kept = {state: [len(g[0]) for g in generations if g is not None] for state, generations in trees.items()}
    assert bound == schreier._GENERATION_BOUND and all(max(sizes) <= bound for sizes in kept.values())
    assert sorted(generations[-1] is None for generations in trees.values()) == [False, False, False, True, True]
    assert all(len(sizes) <= 25 for sizes in kept.values())  # no generation below the radius
    assert sum(map(sum, kept.values())) == 13_542  # of at most 5 * 25 * bound


def _reference_bfs(seed, radius, hits=None):
    """Plain BFS over the public act_letter: vertices, parents, distances, and
    the slot (0-3 in BFS_LETTERS) of the letter that discovered each vertex.

    Given a list, it appends to it the (vertex, image) pair of every lookup
    that found a known image other than the vertex itself, its parent and an
    image it discovered: the edges that close a cycle with the BFS tree."""
    vertices, parents, distances, slots = [seed], [None], [0], [None]
    index = {seed: 0}

    def parent(k):
        return parents[k][0] if parents[k] else None

    i = 0
    while i < len(vertices) and distances[i] < radius:
        for slot, letter in enumerate(BFS_LETTERS):
            image = act_letter(vertices[i], letter)
            j = index.get(image)
            if j is None:
                index[image] = len(vertices)
                vertices.append(image)
                parents.append((i, letter))
                distances.append(distances[i] + 1)
                slots.append(slot)
            elif hits is not None and j not in (i, parent(i)) and parent(j) != i:
                hits.append((vertices[i], image))
        i += 1
    return vertices, parents, distances, slots


def _reference_word(parents, vertex):
    letters = []
    while parents[vertex] is not None:
        vertex, letter = parents[vertex]
        letters.append(letter)
    return "".join(reversed(letters))


def _reference_edges(vertices):
    """x0 and x1 edges between the given vertices, recomputed with act_letter."""
    index = {p: i for i, p in enumerate(vertices)}
    edges = []
    for i, p in enumerate(vertices):
        for letter, label in (("a", "x0"), ("b", "x1")):
            j = index.get(act_letter(p, letter))
            if j is not None:
                edges.append((i, label, j))
    return tuple(edges)


def _assert_ball_matches_reference(seed, radius, vertex_cap=100_000, hits=None):
    b = ball(seed, radius, vertex_cap)
    hits = [] if hits is None else hits
    vertices, parents, distances, _ = _reference_bfs(seed, radius, hits)
    assert b.vertices == tuple(vertices)
    assert ball_views(b) == (tuple(parents), tuple(distances), _reference_edges(vertices))
    for p in b.vertices:
        assert RationalPoint(p.preperiod, p.period) == p
    # the lemma that lets a ball skip lookups: an edge that closes a cycle joins two vertices of at most 3 letters
    for p, q in hits:
        assert len(p.preperiod) <= 3 and len(q.preperiod) <= 3, (seed, p, q)
    return b


def test_ball_edges_match_the_letter_action_on_every_vertex():
    for seed in (canonicalize("10", "0100"), canonicalize("1", "0"), ZERO_POINT, ONE_POINT):
        for radius in (0, 1, 3):
            _assert_ball_matches_reference(seed, radius)
    # the self-loops of an endpoint are edges of its boundary layer at radius 0
    assert ball_views(ball(ZERO_POINT, 0))[2] == ball_views(ball(ONE_POINT, 3))[2] == ((0, "x0", 0), (0, "x1", 0))
    for radius, seed in WIDE_SEEDS:
        _assert_ball_matches_reference(parse_point(seed), radius)


# balls of radius 8 to 12, whose hanging trees grow for several generations
WIDE_SEEDS = tuple(zip(range(8, 13), ("0110(011)", "10101(01101)", "(0100)", "001(0110)", "1(10)")))
# Roots of 5 to 8 letters, periods of 5, 6 and 50 letters, both tails of a dyadic point and the endpoints
LONG_PERIOD = "(" + "".join(str(bin(k).count("1") % 2) for k in range(50)) + ")"
LONG_SEEDS = (
    "10110(01)",
    "011010(0011)",
    "1100100(011)",
    "10010110(001)",
    "(01101)",
    "0(001011)",
    "1(01101)",
    LONG_PERIOD,
    "10" + LONG_PERIOD,
    "1110(1)",
    "1(0)",
    "(0)",
    "(1)",
)
# Every canonical point with a preperiod and a period of at most 4 letters
SHORT_SEEDS = sorted(
    {
        canonicalize("".join(v), "".join(w))
        for nv in range(5)
        for nw in range(1, 5)
        for v in product("01", repeat=nv)
        for w in product("01", repeat=nw)
    },
    key=str,
)


def test_ball_matches_the_reference_on_long_preperiods_long_periods_dyadic_points_and_endpoints():
    # every skipped lookup is checked against the reference's full one
    points = [parse_point(seed) for seed in LONG_SEEDS]
    assert [len(p.preperiod) for p in points[:4]] == [5, 6, 7, 8]
    assert len(points[7].period) == 50 and str(points[7]) == LONG_PERIOD
    hits = []
    for point in points:
        for radius in (5, 8):
            _assert_ball_matches_reference(point, radius, hits=hits)
    assert len({p for p, _ in hits}) >= 8  # four of the balls close a cycle, each edge seen from both ends


def test_ball_matches_the_reference_on_every_short_point():
    # every vertex is reached both through the inline rule and through a
    # rotation, and expanded with the letter back to its parent skipped
    assert ZERO_POINT in SHORT_SEEDS and ONE_POINT in SHORT_SEEDS and len(SHORT_SEEDS) == 352
    for seed in SHORT_SEEDS:
        _assert_ball_matches_reference(seed, 4)


@pytest.mark.parametrize("bound", [0, 1, 8])
def test_ball_matches_the_reference_when_hanging_trees_go_on_vertex_by_vertex_past_small_bounds(monkeypatch, bound):
    # With at most 0, 1 or 8 entries kept a generation, a hanging tree goes on one vertex at a time from
    # its root, after its first generation or after a few: the balls are those of the reference all the same
    monkeypatch.setattr(schreier, "_GENERATION_BOUND", bound)
    for radius, seed in WIDE_SEEDS:
        _assert_ball_matches_reference(parse_point(seed), radius)
    for seed in LONG_SEEDS:
        for radius in (5, 8):
            _assert_ball_matches_reference(parse_point(seed), radius)
    for seed in SHORT_SEEDS:
        _assert_ball_matches_reference(seed, 4)
    kept, trees = schreier._TREES
    assert kept == bound and len(trees) == 5
    lengths = sorted((len(generations), generations[-1] is None) for generations in trees.values())
    if bound == 0:  # every tree goes on vertex by vertex from its root
        assert lengths == [(2, True)] * 5
    else:  # two trees outgrow the bound; the three chains of one entry a generation never do
        assert [stopped for _, stopped in lengths] == [True, True, False, False, False] and lengths[-1][0] > 10


def test_ball_views_are_built_once():
    b = ball(canonicalize("1", "0010"), 5)
    assert b.vertices is b.vertices


def test_graph_builds_no_point_per_vertex(capsys, monkeypatch):
    built = []
    canonical, post_init = RationalPoint._canonical, RationalPoint.__post_init__

    def counted_canonical(cls, preperiod, period):
        built.append((preperiod, period))
        return canonical(preperiod, period)

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RationalPoint, "_canonical", classmethod(counted_canonical))
    monkeypatch.setattr(RationalPoint, "__post_init__", counted_post_init)
    for fmt in ("json", "dot"):
        built.clear()
        assert cli.main(["graph", "0110(011)", "--radius", "10", "--format", fmt]) == 0
        assert capsys.readouterr().out.count("0110(011)") > 1
        assert built == [("0110", "011")], fmt


# sha256 of `graph POINT --radius 13 --format FORMAT`, frozen from the output
# before balls became views of flat arrays.
RADIUS_13_SHA256 = {
    ("0110(011)", "json"): "ce0923c373e060fac6e3ae8be73202329ee4fc29ec47506047b6cc4c6d5dbb55",
    ("0110(011)", "dot"): "e4f8107e9c54c5d8e7ad412a1464f61426b72db616cbbe0683fc92997e513db3",
    ("10101(01101)", "json"): "d314838e0ef390553090f449a65118944b4de9a473157ed715eede8f258af88f",
    ("10101(01101)", "dot"): "3dfc802958b7802da3069a08857759939c60a3702ef88aad35f5931ba99adb8d",
    ("001(0110)", "json"): "859cbb192d6dc617481787ecf0ebcf3a7d3dcd7560b3114d41bd40da3e7f793e",
    ("001(0110)", "dot"): "c748dde891969538444ece39fa20b97c9f0344239fc17901513949f52413281e",
}


def test_radius_13_graphs_match_their_frozen_digests(capsys):
    for (point, fmt), digest in RADIUS_13_SHA256.items():
        assert cli.main(["graph", point, "--radius", "13", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (point, fmt)


def test_vertex_cap_tripped_inside_a_layer_names_the_complete_radius(capsys):
    # radius 10 holds fewer than 1000 vertices and radius 11 more
    message = "ball exploration exceeded the vertex cap of 1000; the ball was complete to radius 10"
    with pytest.raises(BallCapacityError, match=f"^{re.escape(message)}$"):
        ball(parse_point("0110(011)"), 13, vertex_cap=1000)
    assert cli.main(["graph", "0110(011)", "--radius", "13", "--cap", "1000"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_ball_that_fills_the_vertex_cap_exactly():
    seed = canonicalize("1", "0010")
    size = len(ball(seed, 6))
    b = _assert_ball_matches_reference(seed, 6, vertex_cap=size)
    assert len(b) == size
    assert export_json(b) == _dumped(b)
    with pytest.raises(BallCapacityError):
        ball(seed, 6, vertex_cap=size - 1)


def test_find_path_stops_on_a_target_found_mid_expansion():
    seed = canonicalize("1", "0010")
    vertices, parents, _, slots = _reference_bfs(seed, 5)
    for slot in (1, 2, 3):
        targets = [j for j, s in enumerate(slots) if s == slot]
        assert targets, f"no vertex discovered by letter {slot} of an expansion"
        for j in targets[:5] + targets[-5:]:
            word = find_path(seed, vertices[j], 5)
            assert word == _reference_word(parents, j)
            assert act_word(seed, word) == vertices[j]


def _geodesic_counts(vertices, distances):
    """Number of shortest words from vertices[0] to each vertex of a reference ball."""
    index = {p: i for i, p in enumerate(vertices)}
    counts = [1] + [0] * (len(vertices) - 1)
    for i, p in enumerate(vertices):
        for letter in BFS_LETTERS:
            j = index.get(act_letter(p, letter))
            if j is not None and distances[j] == distances[i] + 1:
                counts[j] += counts[i]
    return counts


def test_find_path_matches_the_reference_bfs_on_seeded_pairs():
    # One reference ball of radius 12 per source gives the word of the BFS
    # tree to each target: the base point 10(w) of the source's period, and
    # images u(p) of the source under words of at most 12 letters.
    rng = SplitMix64(2024)
    pairs = several = 0
    for _ in range(32):
        base = canonicalize("10", random_point(rng, 0, 4).period)
        source = act_word(base, random_word(rng, 10))
        vertices, parents, distances, _ = _reference_bfs(source, 12)
        index = {p: i for i, p in enumerate(vertices)}
        counts = _geodesic_counts(vertices, distances)
        for target in [base] + [act_word(source, random_word(rng, 12)) for _ in range(31)]:
            j = index[target]
            assert find_path(source, target) == _reference_word(parents, j), (source, target)
            pairs += 1
            several += counts[j] > 1
    assert pairs == 1024
    assert several >= 100, "too few pairs with more than one geodesic"


def test_same_orbit_holds_on_ball_vertices_and_cross_orbit_pairs_fail_at_once():
    rng = SplitMix64(31)
    for k in range(60):
        seed = random_point(rng, 8, 5)
        for p in ball(seed, k % 7).vertices:
            assert same_orbit(seed, p) and same_orbit(p, seed), (seed, p)
    pairs = [
        (parse_point("1/3"), parse_point("1/5")),
        (canonicalize("1", "0"), canonicalize("0", "1")),
        (ZERO_POINT, canonicalize("1", "0")),
        (canonicalize("1", "0"), ONE_POINT),
        (ZERO_POINT, ONE_POINT),
    ]
    while len(pairs) < 25:
        p, q = random_point(rng, 8, 5), random_point(rng, 8, 5)
        if len(p.period) != len(q.period) or q.period not in p.period + p.period:
            pairs.append((p, q))
    for source, target in pairs:
        assert not same_orbit(source, target)
        start = time.perf_counter()
        with pytest.raises(PathNotFoundError, match=r"^no path from .* different orbits") as err:
            find_path(source, target, 40)
        assert time.perf_counter() - start < 0.05
        assert err.value.explored_radius == 40


def test_find_path_trivial_and_one_step():
    p = canonicalize("", "0100")
    assert find_path(p, p, 5) == ""
    src = canonicalize("01", "0100")
    dst = canonicalize("10", "0100")
    assert find_path(src, dst, 5) == "A"


def test_find_path_words_verify_and_are_shortest():
    src = canonicalize("", "0100")
    dst = canonicalize("10", "0100")
    word = find_path(src, dst, 24)
    assert act_word(src, word) == dst
    assert word == search_path(src, dst)
    with pytest.raises(PathNotFoundError):
        find_path(src, dst, len(word) - 1)


def test_find_path_failure_reports_radius():
    with pytest.raises(PathNotFoundError) as err:
        find_path(canonicalize("1", "0"), canonicalize("0", "1"), 6)
    assert err.value.explored_radius == 6


def test_capped_ball_says_how_many_vertices_it_held_and_the_radius_it_completed():
    seed = parse_point("0110(011)")
    with pytest.raises(BallCapacityError) as err:
        ball(seed, 13, vertex_cap=1000)
    assert (err.value.cap, err.value.vertices, err.value.radius) == (1000, 1000, 10)
    assert len(ball(seed, 10)) < 1000 < len(ball(seed, 11))


def test_caps_that_trip_inside_a_layer_of_long_preperiods_pin_what_was_held():
    # Each cap trips while a vertex of 4 or more letters is expanded, where
    # the ball adds images with no lookup; the figures are those of the
    # ball that looked up every image
    seed = parse_point("0110(011)")
    full = ball(seed, 10)
    assert full.starts[-2:] == [491, 805]
    for cap in (804, 648):  # the ball's size - 1, and the middle of its last layer
        assert len(full.pre[full.parent[cap]]) >= 4
        with pytest.raises(BallCapacityError) as err:
            ball(seed, 10, vertex_cap=cap)
        assert (err.value.vertices, err.value.radius) == (cap, 9)


def test_caps_that_trip_inside_a_generation_of_a_hanging_tree_pin_what_was_held(monkeypatch):
    # A ball appends a generation of a hanging tree at once; where the cap trips inside one, the
    # ball holds what a ball grown one vertex at a time holds, as the figures above pin them
    seed = parse_point("0110(011)")
    for radius, caps in ((10, (648, 804)), (11, (1000,))):  # the first vertex past each cap is in a generation
        blocks = [run for run in ball(seed, radius).runs if len(run) > 3]
        for cap in caps:
            assert any(first <= cap < first + len(trees[k][0]) for trees, k, _, first, _, _ in blocks), cap
    default, figures = schreier._GENERATION_BOUND, {}
    for bound in (default, 0):  # in blocks, and one vertex at a time
        monkeypatch.setattr(schreier, "_GENERATION_BOUND", bound)
        for cap, radius in ((1000, 13), (804, 10), (648, 10), (491, 10), (2, 10)):
            with pytest.raises(BallCapacityError) as err:
                ball(seed, radius, vertex_cap=cap)
            figures.setdefault(bound, []).append((err.value.cap, err.value.vertices, err.value.radius))
    assert figures[default] == figures[0] == [(1000, 1000, 10), (804, 804, 9), (648, 648, 9), (491, 491, 9), (2, 2, 0)]


def test_find_path_bounded_by_radius_says_the_radius():
    src, dst = canonicalize("", "0100"), canonicalize("10", "0100")
    radius = len(find_path(src, dst)) - 1
    with pytest.raises(PathNotFoundError, match=f" within radius {radius}$") as err:
        find_path(src, dst, radius)
    assert err.value.explored_radius == radius


def test_long_period_path_holds_its_period_once():
    # the path from (0^8191 1) to 10(0^8191 1) is a^-8191; a tree that copied
    # the period at each vertex on it peaked near 100 MB
    period = "0" * 8191 + "1"
    tracemalloc.start()
    try:
        word = find_path(RationalPoint("", period), RationalPoint("10", period))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == "A" * 8191
    assert peak < 60 * 2**20


def _orbits(max_preperiod, max_period):
    """Every canonical point but the endpoints with a preperiod and a period of at most these lengths, by orbit."""
    strings = ["".join(bits) for n in range(max(max_preperiod, max_period) + 1) for bits in product("01", repeat=n)]
    points = {canonicalize(v, w) for v in strings if len(v) <= max_preperiod for w in strings if 0 < len(w) <= max_period}
    orbits = {}
    for p in sorted(points - {ZERO_POINT, ONE_POINT}, key=str):
        w = p.period
        orbits.setdefault(min(w[i:] + w[:i] for i in range(len(w))), []).append(p)
    return list(orbits.values())


def test_find_path_is_the_searched_least_geodesic_on_sampled_pairs():
    # seeded pairs of one orbit among the points with a preperiod of at most 6 letters and a period of at most 5
    rng = SplitMix64(37)
    orbits = _orbits(6, 5)
    assert len(orbits) == 14 and sum(map(len, orbits)) == 3326
    pairs = around = 0
    for _ in range(10_000):
        orbit = orbits[rng.below(len(orbits))]
        source, target = orbit[rng.below(len(orbit))], orbit[rng.below(len(orbit))]
        word = find_path(source, target)
        assert word == search_path(source, target), (source, target)
        pairs += 1
        around += len(word) > len(source.preperiod) + len(target.preperiod) + 2
    assert pairs == 10_000 and around > 1000


def test_find_path_is_the_searched_least_geodesic_on_long_preperiods():
    # seeded pairs with periods of at most 8 letters and preperiods of at most 20, the shorter more often;
    # where the search holds more than 3,000 vertices the word is checked to move the source to the target
    rng = SplitMix64(2_026)
    compared = capped = 0
    while compared + capped < 2000:
        w = "".join("01"[rng.below(2)] for _ in range(1 + rng.below(8)))
        r = rng.below(len(w))
        v1, v2 = ("".join("01"[rng.below(2)] for _ in range(min(rng.below(21), rng.below(21)))) for _ in range(2))
        source, target = canonicalize(v1, w), canonicalize(v2, w[r:] + w[:r])
        if source.is_endpoint() or target.is_endpoint():
            continue
        word = find_path(source, target)
        searched = search_path(source, target, cap=3_000)
        if searched is None:
            assert act_word(source, word) == target, (source, target)
            capped += 1
        else:
            assert word == searched, (source, target)
            compared += 1
    assert compared > 1600 and capped > 0


def test_find_path_is_the_searched_least_geodesic_between_rotations_of_two_run_periods():
    # (0^k 1^k), (0^k 1 0^(k+1) 1) and (1^k 0 1^k 00) to each rotation of theirs, and to its base point
    pairs = 0
    for k in range(1, 8):
        for w in ("0" * k + "1" * k, "0" * k + "1" + "0" * (k + 1) + "1", "1" * k + "0" + "1" * k + "00"):
            source = RationalPoint("", w)
            for j in range(len(w)):
                u = w[j:] + w[:j]
                for target in (canonicalize("", u), canonicalize("10", u)):
                    assert find_path(source, target) == search_path(source, target), (source, target)
                    pairs += 1
    assert pairs == 2 * sum(6 * k + 6 for k in range(1, 8))


def test_the_points_of_at_most_3_letters_hold_one_cycle_the_period_cycle():
    # With the lemma, this makes each orbit's graph one cycle with trees hanging off it.  On every primitive
    # period W of at most 7 letters, the simple graph of the canonical points with periods rotations of W
    # and preperiods of at most 3 letters, loops and parallel edges dropped, is connected and has one edge
    # more than a tree: one cycle.  Pruning its leaves again and again leaves exactly the places of the
    # period cycle, the points that stabilizer_period_word(W) visits from 10(W).
    periods = [w for n in range(1, 8) for w in map("".join, product("01", repeat=n)) if primitive_root(w) == w]
    for w in periods[2:]:  # (0) and (1) are the endpoints
        core = {
            p
            for j in range(len(w))
            for n in range(4)
            for bits in product("01", repeat=n)
            if len((p := canonicalize("".join(bits), w[j:] + w[:j])).preperiod) <= 3
        }
        edges = {frozenset((p, act_letter(p, letter))) for p in core for letter in "ab"} - {frozenset([p]) for p in core}
        edges = {e for e in edges if e <= core}
        assert len(edges) == len(core), w
        neighbours = {p: set() for p in core}
        for p, q in edges:
            neighbours[p].add(q)
            neighbours[q].add(p)
        seen, todo = set(), [canonicalize("10", w)]
        while todo:
            p = todo.pop()
            if p not in seen:
                seen.add(p)
                todo += neighbours[p]
        assert seen == core, w
        leaves = [p for p in core if len(neighbours[p]) == 1]
        while leaves:
            p = leaves.pop()
            for q in neighbours.pop(p):
                neighbours[q].discard(p)
                if len(neighbours[q]) == 1:
                    leaves.append(q)
        cycle, p = [], canonicalize("10", w)
        for letter in stabilizer_period_word(w):
            p = act_letter(p, letter)
            cycle.append(p)
        assert len(set(cycle)) == len(cycle) == w.count("0") + 2 * w.count("1"), w
        assert set(neighbours) == set(cycle), w


def test_path_moves_a_long_two_run_period_to_its_rotation_without_a_search():
    # the search held 1.1 GB before it gave up here; the closed form writes the arc of 98,304 letters
    k = 32768
    source, target = RationalPoint("", "0" * k + "1" * k), RationalPoint("", "1" * k + "0" * k)
    start = time.perf_counter()
    word = find_path(source, target, 1_000_000)
    seconds = time.perf_counter() - start
    assert len(word) == 98_304 and act_word(source, word) == target
    assert seconds < 1, seconds


def test_path_of_the_pair_past_the_old_search_cap():
    source, target = parse_point("(0011)"), parse_point("01101001100101101001011010010110(0011)")
    word = find_path(source, target, 99)
    assert word == "AABabAbAbbAbbbAbbAbAbbAbbbAbbAbAbbAbbbAbAbbbAbbAba"
    assert act_word(source, word) == target


def test_parent_words_reconstruct_bfs_paths():
    b = ball(canonicalize("1", "10"), 3)
    distances = ball_views(b)[1]
    for i, p in enumerate(b.vertices):
        word = b.path_word(i)
        assert len(word) == distances[i]
        assert act_word(b.seed, word) == p


def test_vertex_addresses():
    root = canonicalize("10", "0100")
    assert vertex_at_address(root, "") == root
    assert vertex_at_address(root, "BBA") == canonicalize("10100", "0100")
    assert vertex_at_address(root, "B") == canonicalize("100", "0100")
    other = canonicalize("10", "01")
    assert vertex_at_address(other, "AB") != vertex_at_address(other, "BA")
    with pytest.raises(ValueError):
        vertex_at_address(root, "AX")


def test_address_word_expansion_used_by_addresses():
    assert address_word("BBA") == "bbAb"


def test_vertex_addresses_agree_with_map_evaluation():
    from itertools import product as iter_product

    from thompsonf.plmap import word_to_plmap

    root = canonicalize("10", "0100")
    value = root.value()
    for length in range(4):
        for bits in iter_product("AB", repeat=length):
            label = "".join(bits)
            point = vertex_at_address(root, label)
            assert point.value() == word_to_plmap(address_word(label)).evaluate(value)


def test_forbidden_prefix_reverses_and_swaps():
    assert forbidden_prefix("0") == "B"
    assert forbidden_prefix("01") == "AB"
    assert forbidden_prefix("0100") == "BBAB"
    assert forbidden_prefix("011") == "AAB"


def test_check_addresses_passes_for_standard_periods():
    for period in ("0", "1", "01", "10", "0100", "011"):
        report = check_addresses(period, 5)
        assert report.passed, f"failed for period {period}: {report.failures()}"


def test_check_addresses_counts_pruned_labels():
    report = check_addresses("0", 4)
    # all A/B labels of length <= 4 except those starting with B: 16 of 31
    assert "16 addresses" in report.checks[0].name


def test_check_addresses_rejects_non_primitive_period():
    with pytest.raises(ValueError):
        check_addresses("0101", 4)
    with pytest.raises(ValueError, match="label length must be <= 12, got 13"):
        check_addresses("01", 13)
    for max_len in (0, -2):
        with pytest.raises(ValueError, match=f"label length must be >= 1, got {max_len}"):
            check_addresses("01", max_len)


def _reference_check_addresses(period, max_len):
    """check_addresses with every label's vertex found from the root by its whole address."""
    root = canonicalize("10", period)
    banned = forbidden_prefix(period)
    labels = [
        "".join(bits)
        for length in range(max_len + 1)
        for bits in product("AB", repeat=length)
        if not "".join(bits).startswith(banned)
    ]
    seen = {}
    collisions = []
    for label in labels:
        image = vertex_at_address(root, label)
        if image in seen:
            collisions.append((seen[image], label))
        else:
            seen[image] = label
    report = Report(f"addresses for period {period}")
    report.add(
        f"{len(labels)} addresses up to length {max_len} reach distinct points (period {period})",
        not collisions,
    )
    report.add(f"period loop word fixes 10({period})^inf", act_word(root, period_loop_word(period)) == root)
    return report


def test_check_addresses_along_the_label_trie_matches_the_per_label_reference():
    for period in cli.SELFTEST_PERIODS:
        for max_len in range(1, 9):
            assert check_addresses(period, max_len).lines() == _reference_check_addresses(period, max_len).lines()


def test_check_addresses_reports_collisions_as_the_reference_does(monkeypatch):
    # with A -> x1, as B, every A/B swap of a label collides
    monkeypatch.setattr(schreier, "address_word", lambda label: "b" * len(label))
    for period in ("01", "0100"):
        report = check_addresses(period, 3)
        assert report.lines() == _reference_check_addresses(period, 3).lines()
        assert not report.checks[0].passed


def test_check_addresses_takes_at_most_two_letter_steps_per_label(monkeypatch):
    step = schreier._step
    steps = [0]

    def counted(v, r, w, s):
        steps[0] += 1
        return step(v, r, w, s)

    monkeypatch.setattr(schreier, "_step", counted)
    assert check_addresses("0100", 12).passed
    assert 0 < steps[0] <= 2 * (2 ** 13 - 1)  # folding every address from the root takes 127,242


def test_dot_export_matches_frozen_fixture():
    b = ball(canonicalize("1", "0"), 4)
    fixture = (FIXTURES / "ball_half_r4.dot").read_text()
    assert export_dot(b) == fixture


def test_dot_export_matches_map_evaluation_oracle():
    assert fraction_ball_dot(Fraction(1, 2), 4) == export_dot(ball(canonicalize("1", "0"), 4))


def test_dot_export_is_deterministic_and_structural():
    seed = canonicalize("", "0100")
    first = export_dot(ball(seed, 2))
    second = export_dot(ball(seed, 2))
    assert first == second
    b = ball(ZERO_POINT, 1)
    dot = export_dot(b)
    assert dot.count("->") == len(ball_views(b)[2]) == 2
    assert dot.count("peripheries=2") == 1
    assert '"(0)" [peripheries=2];' in dot


def test_json_export_round_trips():
    b = ball(canonicalize("1", "0"), 2)
    payload = json.loads(export_json(b))
    assert payload["seed"] == "1(0)"
    assert payload["radius"] == 2
    assert payload["vertices"][0] == "1(0)"
    assert len(payload["vertices"]) == len(b)
    assert payload["edges"] == [[s, l, d] for s, l, d in ball_views(b)[2]]
    assert export_json(b) == export_json(ball(canonicalize("1", "0"), 2))


def _dumped(b):
    """export_json's text as json.dumps gives it, from the ball's vertices and the edges of ball_views."""
    return json.dumps(
        {"seed": str(b.seed), "radius": b.radius, "vertices": [str(p) for p in b.vertices], "edges": ball_views(b)[2]}
    )


def test_json_export_matches_json_dumps_on_every_short_point():
    seeds = {
        canonicalize("".join(v), "".join(w))
        for nv in range(4)
        for nw in range(1, 4)
        for v in product("01", repeat=nv)
        for w in product("01", repeat=nw)
    }
    assert {ZERO_POINT, ONE_POINT, canonicalize("1", "0")} <= seeds
    for seed in sorted(seeds, key=str):
        for radius in range(5):
            b = ball(seed, radius)
            assert export_json(b) == _dumped(b), (seed, radius)


@pytest.mark.parametrize("chunk", [2, 3])
def test_json_writer_pieces_join_to_json_dumps_at_every_chunk_boundary(monkeypatch, chunk):
    monkeypatch.setattr(schreier, "_CHUNK", chunk)
    balls = [ball(ZERO_POINT, 0), ball(ONE_POINT, 0), ball(ZERO_POINT, 2), ball(ONE_POINT, 2)]
    balls += [ball(canonicalize(v, w), radius) for v, w in BALL_SIZES for radius in range(5)]
    # the labels go out _CHUNK vertices a piece, the quads _CHUNK expanded vertices and the triples _CHUNK edges
    seen = {"vertices": set(), "expanded": set(), "boundary edges": set()}
    for b in balls:
        assert export_json(b) == _dumped(b), (b.seed, b.radius)
        seen["vertices"].add(len(b) % chunk)
        seen["expanded"].add(len(b.edges) // 4 % chunk)
        seen["boundary edges"].add(len(b.boundary) // 3 % chunk)
    assert all(residues == set(range(chunk)) for residues in seen.values()), seen


def test_graph_json_goes_out_in_pieces(monkeypatch):
    monkeypatch.setattr(schreier, "_CHUNK", 3)
    pieces = []

    class Out:
        def write(self, text):
            pieces.append(text)

    monkeypatch.setattr("sys.stdout", Out())
    assert cli.main(["graph", "0110(011)", "--radius", "5", "--format", "json"]) == 0
    text = export_json(ball(parse_point("0110(011)"), 5)) + "\n"
    assert "".join(pieces) == text
    assert len(pieces) > 20 and max(map(len, pieces)) < 200


def _dot(b):
    """export_dot's text as one list of lines makes it, from the ball's vertices and the edges of ball_views."""
    names = [str(p) for p in b.vertices]
    lines = ["digraph schreier {", f'  "{names[0]}" [peripheries=2];'] + [f'  "{name}";' for name in names[1:]]
    lines += [f'  "{names[src]}" -> "{names[dst]}" [label={label}];' for src, label, dst in ball_views(b)[2]]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("chunk", [2, 3])
def test_dot_writer_pieces_join_to_the_whole_text_at_every_chunk_boundary(monkeypatch, chunk):
    monkeypatch.setattr(schreier, "_CHUNK", chunk)
    balls = [ball(ZERO_POINT, 0), ball(ONE_POINT, 0), ball(ZERO_POINT, 2), ball(ONE_POINT, 2)]
    balls += [ball(canonicalize(v, w), radius) for v, w in BALL_SIZES for radius in range(5)]
    # the lines go out _CHUNK vertices a piece, the quads _CHUNK expanded vertices and the triples _CHUNK edges
    seen = {"vertices": set(), "expanded": set(), "boundary edges": set()}
    for b in balls:
        pieces = []
        schreier.write_dot(b, pieces.append)
        assert "".join(pieces) == export_dot(b) == _dot(b), (b.seed, b.radius)
        assert max(piece.count("\n") for piece in pieces) <= 2 * chunk, (b.seed, b.radius)
        seen["vertices"].add(len(b) % chunk)
        seen["expanded"].add(len(b.edges) // 4 % chunk)
        seen["boundary edges"].add(len(b.boundary) // 3 % chunk)
    assert all(residues == set(range(chunk)) for residues in seen.values()), seen


def test_graph_dot_goes_out_in_pieces(monkeypatch):
    monkeypatch.setattr(schreier, "_CHUNK", 3)
    pieces = []

    class Out:
        def write(self, text):
            pieces.append(text)

    monkeypatch.setattr("sys.stdout", Out())
    assert cli.main(["graph", "0110(011)", "--radius", "5", "--format", "dot"]) == 0
    assert "".join(pieces) == _dot(ball(parse_point("0110(011)"), 5))
    assert len(pieces) > 20 and max(map(len, pieces)) < 400


def test_graph_cap_past_its_bound_is_refused_before_any_search(capsys, monkeypatch):
    def grow(self, limit):
        raise AssertionError("a layer was grown")

    monkeypatch.setattr(SchreierBall, "grow", grow)
    message = f"vertex cap must be <= {MAX_BALL_VERTICES}, got {MAX_BALL_VERTICES + 1}"
    assert MAX_BALL_VERTICES == 1_000_000
    assert cli.main(["graph", "0110(011)", "--radius", "40", "--cap", "1000001"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ball(ZERO_POINT, 1, vertex_cap=MAX_BALL_VERTICES + 1)
    monkeypatch.undo()
    seed = parse_point("0110(011)")
    assert export_json(ball(seed, 3, vertex_cap=MAX_BALL_VERTICES)) == export_json(ball(seed, 3))


def test_ball_argument_validation():
    with pytest.raises(ValueError):
        ball(ZERO_POINT, -1)
    with pytest.raises(ValueError):
        ball(ZERO_POINT, 1, vertex_cap=0)
