"""Independent reference implementations used to freeze expected values.

Nothing here goes through the canonical-form machinery of the package: the
string oracle applies the prefix rewriting rules to raw (prefix, period)
pairs and compares long unrolled prefixes, and the fraction oracle walks the
orbit of a dyadic number by exact PL-map evaluation.  Agreement between
these and the package is what the regression fixtures pin down.
naive_fixes and fraction_image fold a whole word letter by letter, each on
its own side, as references for the two oracles of
stabgen.verify_generators.  ball_views reads a ball's tree as the tuples
that the references return.  search_path
is the reference for schreier.find_path's closed form: a bidirectional
breadth-first search over (preperiod, rotation) pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import product

from thompsonf.cantor import RationalPoint
from thompsonf.plmap import generator_x0, generator_x1
from thompsonf.schreier import BFS_LETTERS, SchreierBall

# Prefix rewriting rules keyed by letter symbol.
RULES = {
    "a": (("0", "00"), ("10", "01"), ("11", "1")),
    "A": (("00", "0"), ("01", "10"), ("1", "11")),
    "b": (("0", "0"), ("10", "100"), ("110", "101"), ("111", "11")),
    "B": (("0", "0"), ("100", "10"), ("101", "110"), ("11", "111")),
}


def ball_views(b: SchreierBall) -> tuple[tuple, tuple[int, ...], tuple[tuple[int, str, int], ...]]:
    """The parents, distances and edges of a ball, read off its tree.

    None for the seed and (parent, letter) for each other vertex, the depth
    of each vertex, and the (source, "x0" | "x1", target) edges: those of
    the expanded vertices from their quads, then the boundary triples.
    """
    starts = b.starts
    parents = (None,) + tuple((b.parent[i], BFS_LETTERS[b.slot[i]]) for i in range(1, len(b)))
    distances = tuple(d for d in range(len(starts) - 1) for _ in range(starts[d], starts[d + 1]))
    it = iter(b.edges)
    interior = tuple(edge for src, x0, _, x1 in zip(it, it, it, it) for edge in ((src, "x0", x0), (src, "x1", x1)))
    it = iter(b.boundary)
    return parents, distances, interior + tuple(zip(it, it, it))


Breakpoints = tuple[tuple[Fraction, Fraction], ...]

# The letter maps' breakpoints, from their definitions: x0 is t/2, t - 1/4 and
# 2t - 1 on [0, 1/2], [1/2, 3/4] and [3/4, 1]; x1 is the identity on [0, 1/2]
# and x0 scaled into [1/2, 1].  An inverse swaps the two coordinates.
_X0 = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 2)), (Fraction(1), Fraction(1)))
_X1 = (
    (Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(3, 4), Fraction(5, 8)),
    (Fraction(7, 8), Fraction(3, 4)),
    (Fraction(1), Fraction(1)),
)
LETTER_BREAKPOINTS = {
    "a": _X0,
    "A": tuple((y, t) for t, y in _X0),
    "b": _X1,
    "B": tuple((y, t) for t, y in _X1),
}


def _pieces(points: Breakpoints) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """(start, slope, offset) of each piece of the piecewise linear function through the points, the last piece first."""
    return tuple(
        (x0, (v1 - v0) / (x1 - x0), v0 - x0 * (v1 - v0) / (x1 - x0))
        for (x0, v0), (x1, v1) in reversed(list(zip(points, points[1:])))
    )


def _through(pieces: tuple[tuple[Fraction, Fraction, Fraction], ...], x: Fraction) -> Fraction:
    """Value at x in [0, 1] of the function with these pieces, by interpolation on the piece that holds x."""
    for x0, slope, offset in pieces:
        if x >= x0:
            return slope * x + offset
    raise AssertionError(f"{x} is below 0")


_LETTER_PIECES = {letter: _pieces(points) for letter, points in LETTER_BREAKPOINTS.items()}


def fraction_image(word: str, x: Fraction) -> Fraction:
    """Image of x in [0, 1] under the word: each letter's map in turn, by interpolation on its pieces."""
    for letter in word:
        x = _through(_LETTER_PIECES[letter], x)
    return x


def fraction_compose(f: Breakpoints, g: Breakpoints) -> Breakpoints:
    """Breakpoints of t -> g(f(t)) for breakpoint lists f and g.

    The candidates are f's breakpoints and the preimages under f of g's;
    each is sent through g by interpolation, and a point on the line through
    the point kept before it and the one after it is dropped.
    """
    ys = [y for _, y in f]
    images = dict(f)
    for s, _ in g[1:-1]:
        i = bisect_right(ys, s)  # f(t_{i-1}) <= s < f(t_i)
        (t0, y0), (t1, y1) = f[i - 1], f[i]
        images.setdefault(t0 + (s - y0) * (t1 - t0) / (y1 - y0), s)
    pieces = _pieces(g)
    points = [(t, _through(pieces, images[t])) for t in sorted(images)]
    kept = [points[0]]
    for (t, y), (t1, y1) in zip(points[1:], points[2:]):
        t0, y0 = kept[-1]
        if (y - y0) * (t1 - t) != (y1 - y) * (t - t0):
            kept.append((t, y))
    kept.append(points[-1])
    return tuple(kept)


def fraction_breakpoints(word: str) -> Breakpoints:
    """Breakpoints of the map of a word: its letter maps composed one at a time, left to right, from the identity."""
    points: Breakpoints = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    for letter in word:
        points = fraction_compose(points, LETTER_BREAKPOINTS[letter])
    return points


# Plenty for the bounded preperiods/periods exercised in tests: two sequences
# u1 w^inf and u2 w^inf with |u| <= 40 and the same w of length <= 8 agree
# everywhere iff they agree on the first 64 letters.
KEY_LENGTH = 64


def unroll(prefix: str, period: str, n: int) -> str:
    reps = -(-max(n - len(prefix), 1) // len(period))
    return (prefix + period * reps)[:n]


def naive_act(prefix: str, period: str, letter: str) -> tuple[str, str]:
    """Apply one rewriting rule to a raw (prefix, period) pair.

    The period is never touched; the prefix is padded from the period until
    a rule matches.  No canonicalization of any kind.
    """
    while len(prefix) < 3:
        prefix += period
    for lhs, rhs in RULES[letter]:
        if prefix.startswith(lhs):
            return rhs + prefix[len(lhs):], period
    raise AssertionError(f"no rule matched {prefix!r}")


def naive_fixes(prefix: str, period: str, word: str) -> bool:
    """True when the word fixes prefix period^inf: naive_act letter by letter, then the two sequences compared.

    Both are u period^inf for some u, so they agree everywhere iff they
    agree on the first max(|u|) + |period| letters.
    """
    image = prefix
    for letter in word:
        image, _ = naive_act(image, period, letter)
    n = max(len(prefix), len(image)) + len(period)
    return unroll(prefix, period, n) == unroll(image, period, n)


def string_ball_size(seed_prefix: str, seed_period: str, radius: int) -> int:
    """Vertex count of the BFS ball, deduplicating by unrolled prefix."""
    seed = (seed_prefix, seed_period)
    seen = {unroll(*seed, KEY_LENGTH)}
    frontier = deque([(seed, 0)])
    while frontier:
        (state, dist) = frontier.popleft()
        if dist >= radius:
            continue
        for letter in "aAbB":
            image = naive_act(state[0], state[1], letter)
            key = unroll(*image, KEY_LENGTH)
            if key not in seen:
                seen.add(key)
                frontier.append(((image, dist + 1)))
    return len(seen)


def fraction_to_vw(value: Fraction) -> tuple[str, str]:
    """Binary expansion of a rational in [0, 1] by plain long division."""
    digits: list[str] = []
    seen: dict[int, int] = {}
    num, den = value.numerator, value.denominator
    r = num
    while r not in seen:
        seen[r] = len(digits)
        r *= 2
        if r >= den:
            digits.append("1")
            r -= den
        else:
            digits.append("0")
    start = seen[r]
    return "".join(digits[:start]), "".join(digits[start:])


def dyadic_name(value: Fraction) -> str:
    """Canonical v(w) display of a dyadic rational with the 0-tail convention."""
    v, w = fraction_to_vw(value)
    assert w == "0", f"{value} is not dyadic"
    # trailing zeros of the preperiod get absorbed into the 0-tail
    return f"{v.rstrip('0')}(0)"


def fraction_ball_dot(seed: Fraction, radius: int) -> str:
    """DOT text of a ball in the dyadic orbit, computed by PL-map evaluation.

    Walks the orbit with exact evaluation of the generator maps (no sequence
    rewriting at all) and renders the same deterministic DOT contract as the
    package: vertices in BFS discovery order with letters ordered
    x0, x0^-1, x1, x1^-1, then edges in (source, label) order.
    """
    x0, x1 = generator_x0(), generator_x1()
    moves = [x0, x0.inverse(), x1, x1.inverse()]
    vertices = [seed]
    index = {seed: 0}
    dist = [0]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        if dist[i] >= radius:
            continue
        for move in moves:
            image = move.evaluate(vertices[i])
            if image not in index:
                index[image] = len(vertices)
                vertices.append(image)
                dist.append(dist[i] + 1)
                queue.append(index[image])
    lines = ["digraph schreier {"]
    for i, value in enumerate(vertices):
        marker = " [peripheries=2]" if i == 0 else ""
        lines.append(f'  "{dyadic_name(value)}"{marker};')
    for i, value in enumerate(vertices):
        for move, label in ((x0, "x0"), (x1, "x1")):
            j = index.get(move.evaluate(value))
            if j is not None:
                lines.append(f'  "{dyadic_name(value)}" -> "{dyadic_name(vertices[j])}" [label={label}];')
    lines.append("}")
    return "\n".join(lines) + "\n"

# The moves of each head, the first three letters of a sequence: (slot in "aAbB",
# length of the left side, right side) of each letter whose rule on that head
# does not rewrite its left side to itself, in slot order.
_MOVES = {
    head: tuple(
        (s, len(lhs), rhs)
        for s, letter in enumerate("aAbB")
        for lhs, rhs in RULES[letter]
        if head.startswith(lhs) and lhs != rhs
    )
    for head in map("".join, product("01", repeat=3))
}


def search_path(source: RationalPoint, target: RationalPoint, cap: int = 500_000) -> str | None:
    """The least shortest word moving source to target, letters in the order a, A, b, B; None past cap vertices.

    A forward BFS tree from the source and a backward one from the target
    (every letter's inverse is among the four) grow by whole layers, the
    one with the smaller outermost layer first, the forward one on a tie,
    until a new layer meets the other tree.  The meeting vertices then lie
    in the forward tree's outermost layer, and within a layer discovery
    order is the order of the least words, so the least geodesic starts
    with the forward tree's path to the meeting vertex it discovered first.
    From there it takes, at each step, the least letter that lowers the
    depth in the backward tree by one.  A vertex v (w[r:] + w[:r])^inf, w
    the source's period, is the pair (v, r), v canonical: not ending in the
    letter before w[r:].  The target must lie in the source's orbit.  A tree
    maps each vertex to its parent, the slot of the letter that found it
    and its depth, and the trees stop growing once they hold more than cap
    vertices.
    """
    w = source.period
    m, pad = len(w), w + (w * 3)[:3]

    def images(v: str, r: int) -> list[tuple[int, tuple[str, int]]]:
        """(slot, image) of each letter that moves the vertex (v, r), in slot order."""
        nv = len(v)
        out = []
        for s, n, rhs in _MOVES[v[:3] if nv > 2 else (v + pad[r : r + 3])[:3]]:
            if n < nv:  # the rule keeps v's last letter
                out.append((s, (rhs + v[n:], r)))
                continue
            q = (r + n - nv) % m  # the rule read n - nv letters of the period
            while rhs and rhs[-1] == w[q - 1]:
                rhs, q = rhs[:-1], (q - 1) % m
            out.append((s, (rhs, q)))
        return out

    def grow(tree: dict, layer: list, depth: int) -> list:
        after = []
        for x in layer:
            back = tree[x][1] ^ 1  # the letter back to x's parent
            v, r = x
            if len(v) > 3:  # every rule keeps v's last letter: images, inlined for speed
                for s, n, rhs in _MOVES[v[:3]]:
                    u = (rhs + v[n:], r)
                    if s != back and u not in tree:
                        tree[u] = (x, s, depth)
                        after.append(u)
                continue
            for s, u in images(v, r):
                if s != back and u not in tree:
                    tree[u] = (x, s, depth)
                    after.append(u)
        return after

    start, goal = (source.preperiod, 0), (target.preperiod, (w + w).find(target.period))
    forward, backward = {start: (None, -1, 0)}, {goal: (None, -1, 0)}
    ahead, behind = [start], [goal]
    met = start if start == goal else None
    while met is None:
        if len(forward) + len(backward) > cap:
            return None
        if len(ahead) <= len(behind):
            ahead = grow(forward, ahead, forward[ahead[0]][2] + 1)
            met = next((u for u in ahead if u in backward), None)
        else:
            behind = grow(backward, behind, backward[behind[0]][2] + 1)
            hits = {u for u in behind if u in forward}
            met = next((u for u in ahead if u in hits), None)
    word = []
    v = met
    while forward[v][0] is not None:
        v, s, _ = forward[v]
        word.append("aAbB"[s])
    word.reverse()
    v = met
    for k in range(backward[met][2] - 1, -1, -1):
        s, v = next((s, u) for s, u in images(*v) if u in backward and backward[u][2] == k)
        word.append("aAbB"[s])
    return "".join(word)
