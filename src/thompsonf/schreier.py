"""Breadth-first balls of the orbital Schreier graph of F on rational points.

Vertices are canonical rational points, edges are the x0/x1 arrows of the
Schreier graph (inverse arrows are implicit).  Exploration order is fixed:
vertices are numbered in BFS discovery order with letters tried in the order
x0, x0^-1, x1, x1^-1, so ball construction, DOT output and JSON output are
bit-for-bit reproducible.

The search works on (preperiod, period) string pairs, which hash and compare
at C speed.  Balls and shortest paths grow the same BFS tree, one whole
layer at a time, kept in flat lists: the keys in discovery order and, per
vertex, the number of its parent and the slot in BFS_LETTERS of the letter
that discovered it.  The rules come from cantor's one rule table, _HEADS,
whose slots follow BFS_LETTERS: one lookup gives the rules of all four
letters at a vertex.  Two kinds of image are known without looking a key
up: the letter that undoes the discovering one leads back to the parent,
and a rule marked _LOOP, one that rewrites its left side to itself (x1 and
x1^-1 on a sequence that starts with 0), fixes the vertex.  A ball's tree
also records the x0 and x1 edges of every vertex it expands, as a flat
list; only the boundary layer, the vertices at the full radius, has its
images computed afterwards, through the same table and with the same two
skips.  A ball is that tree: its RationalPoint vertices, parents,
distances and edge tuples are views built on first access.  The DOT and JSON
exports write their text from the keys and the flat edge list without them.

Shortest paths come from a bidirectional search: two trees, one from each
end, grow a layer at a time until they meet, so a path of length L costs
about two balls of radius L/2 instead of one of radius L.  The word returned
is the least geodesic in the letter order above: the forward tree's parent
path to the meeting vertex it discovered first, then the least letters
that descend the backward tree.
"""

from __future__ import annotations

from functools import cache, cached_property

from .cantor import _HEADS, _LOOP, _absorbed, _fold, _step, RationalPoint, act_word, canonicalize, primitive_root
from .report import Check, Report
from .words import LETTERS, Word, address_word, period_loop_word

BFS_LETTERS = LETTERS
MAX_LABEL_LEN = 12  # longest A/B label that check_addresses and check_reduction enumerate, of 2^(n + 1)
MAX_BALL_VERTICES = 1_000_000  # greatest vertex cap of a ball

_Key = tuple[str, str]
_Parent = tuple[int, str] | None
_Edge = tuple[int, str, int]


class BallCapacityError(RuntimeError):
    def __init__(self, cap: int, searched: str):
        self.cap = cap
        super().__init__(f"ball exploration exceeded the vertex cap of {cap}{searched}")


class PathNotFoundError(RuntimeError):
    def __init__(self, source: RationalPoint, target: RationalPoint, radius: int | None, why: str):
        self.explored_radius = radius
        super().__init__(f"no path from {source} to {target}{why}")


class _Tree:
    """BFS tree over the four letters, grown one whole layer at a time.

    Vertices are (preperiod, period) keys numbered in discovery order, and
    keys[starts[d]:starts[d + 1]] is the layer at depth d.  parent[i] is the
    number of the vertex that discovered vertex i and slot[i] the place in
    BFS_LETTERS of the letter it took, both -1 for the root.  Growing expands
    the outermost layer in vertex order, letters in BFS_LETTERS order.  It
    skips the letter slot[i] ^ 1, whose image is parent[i], and the letters
    whose rule at vertex i is marked _LOOP, whose image is i.  Given a list,
    it also appends the x0 and x1 edges of every expanded vertex to it, in
    vertex order and flat: source, "x0", target, source, "x1", target.
    Balls pass one as flat_edges, shortest-path searches do not.
    """

    def __init__(self, root: _Key, flat_edges: list[int | str] | None = None):
        self.keys = [root]
        self.index = {root: 0}
        self.parent = [-1]
        self.slot = [-1]
        self.flat_edges = flat_edges
        self.starts = [0, 1]

    @property
    def depth(self) -> int:
        return len(self.starts) - 2

    @property
    def width(self) -> int:
        return self.starts[-1] - self.starts[-2]

    def grow(self, limit: int) -> bool:
        """Add the next layer; False, and no layer, when it would hold more than limit vertices in all.

        The image back to the parent and the image under a _LOOP rule, the
        vertex itself, are set without building or looking up a key.
        """
        keys, index, parent, slot, edges = self.keys, self.index, self.parent, self.slot, self.flat_edges
        for i in range(self.starts[-2], self.starts[-1]):
            v, w = keys[i]
            nv = len(v)
            back = slot[i] ^ 1
            images = []
            for s, (n, rhs) in enumerate(_HEADS[v[:3] if nv > 2 else (v + w[:3] * 3)[:3]]):
                if s == back:
                    images.append(parent[i])
                    continue
                if n < nv:  # the rule keeps the preperiod's last letter: canonical as it stands
                    if n == _LOOP:  # below every nv: the letter fixes the vertex
                        images.append(i)
                        continue
                    key = (rhs + v[n:], w)
                else:
                    c = (n - nv) % len(w)
                    key = _absorbed(rhs, w[c:] + w[:c])
                j = index.get(key)
                if j is None:
                    j = len(keys)
                    if j >= limit:
                        return False
                    index[key] = j
                    keys.append(key)
                    parent.append(i)
                    slot.append(s)
                images.append(j)
            if edges is not None:
                # x0 and x1 are the first and the third of BFS_LETTERS
                edges += (i, "x0", images[0], i, "x1", images[2])
        self.starts.append(len(keys))
        return True

    def path_word(self, vertex: int) -> Word:
        """The letters of the tree path from the root to the vertex."""
        parent, slot = self.parent, self.slot
        letters = []
        while vertex:
            letters.append(BFS_LETTERS[slot[vertex]])
            vertex = parent[vertex]
        return "".join(reversed(letters))


class SchreierBall(_Tree):
    """BFS-explored portion of the Schreier graph around a seed point.

    The BFS tree that grew it, with the seed point and the radius.  vertices,
    parents, distances and edges are tuples built on first access and kept:
    the RationalPoint of each vertex, None for the seed and (parent, letter)
    for the others, the depth of each vertex, and the (source, "x0" | "x1",
    target) edges.  path_word(vertex) is the shortest word u with
    act_word(seed, u) = vertices[vertex].
    """

    seed: RationalPoint
    radius: int

    @cached_property
    def vertices(self) -> tuple[RationalPoint, ...]:
        return tuple(RationalPoint._canonical(v, w) for v, w in self.keys)

    @cached_property
    def parents(self) -> tuple[_Parent, ...]:
        parent, slot = self.parent, self.slot
        return (None,) + tuple((parent[i], BFS_LETTERS[slot[i]]) for i in range(1, len(self.keys)))

    @cached_property
    def distances(self) -> tuple[int, ...]:
        starts = self.starts
        return tuple(d for d in range(len(starts) - 1) for _ in range(starts[d], starts[d + 1]))

    @cached_property
    def edges(self) -> tuple[_Edge, ...]:
        it = iter(self.flat_edges)
        return tuple(zip(it, it, it))

    def __len__(self) -> int:
        return len(self.keys)


def ball(seed: RationalPoint, radius: int, vertex_cap: int = 100_000) -> SchreierBall:
    """Closure of the seed under the four letters, truncated at the radius.

    Edges are recorded for the positive letters only and only between
    discovered vertices, so every vertex strictly inside the ball carries
    exactly one outgoing x0 edge and one outgoing x1 edge.  The BFS tree
    gives those of the vertices it expanded; only the boundary layer, the
    vertices at the full radius, has its images computed here.  Each of its
    vertices takes one _HEADS lookup for both letters, and an image that
    is the vertex's parent or, by a _LOOP rule, the vertex itself is not
    looked up.  vertex_cap is at most MAX_BALL_VERTICES, checked before the
    search starts.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if vertex_cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {vertex_cap}")
    if vertex_cap > MAX_BALL_VERTICES:
        raise ValueError(f"vertex cap must be <= {MAX_BALL_VERTICES}, got {vertex_cap}")
    edges: list[int | str] = []
    b = SchreierBall((seed.preperiod, seed.period), edges)
    b.seed, b.radius = seed, radius
    while b.depth < radius and b.width:
        if not b.grow(vertex_cap):
            raise BallCapacityError(vertex_cap, f"; the ball was complete to radius {b.depth}")
    keys, index, parent, slot = b.keys, b.index, b.parent, b.slot
    for i in range(b.starts[-2], len(keys)):
        v, w = keys[i]
        nv = len(v)
        back = slot[i] ^ 1
        rules = _HEADS[v[:3] if nv > 2 else (v + w[:3] * 3)[:3]]
        for s, label in ((0, "x0"), (2, "x1")):
            if s == back:
                j = parent[i]
            else:
                n, rhs = rules[s]
                if n < nv:
                    j = i if n == _LOOP else index.get((rhs + v[n:], w))
                else:
                    c = (n - nv) % len(w)
                    j = index.get(_absorbed(rhs, w[c:] + w[:c]))
                if j is None:
                    continue
            edges += (i, label, j)
    return b


def same_orbit(p: RationalPoint, q: RationalPoint) -> bool:
    """True when some element of F moves p to q.

    The endpoints (0) and (1) are fixed by all of F.  A letter rewrites a
    prefix and keeps the tail, so the primitive period of every other point
    is kept up to rotation; and F moves such a point to every point whose
    period is a rotation of its own.
    """
    if p == q:
        return True
    if p.is_endpoint() or q.is_endpoint():
        return False
    return len(p.period) == len(q.period) and q.period in p.period + p.period


def find_path(
    source: RationalPoint,
    target: RationalPoint,
    max_radius: int | None = None,
    vertex_cap: int = 500_000,
) -> Word:
    """Least shortest word moving source to target, letters ordered as in BFS_LETTERS.

    A forward BFS tree from the source and a backward one from the target
    (the graph is symmetric: every letter has its inverse among the four)
    grow by whole layers, the one with the smaller outermost layer first,
    until a new layer meets the other tree.  At that point the trees have
    depths df and db, the distance is L = df + db, and the meeting vertices
    are the vertices at distance df from the source on a geodesic.  Within a
    layer, discovery order is the order of the least words, so the least
    geodesic starts with the forward tree's path to the meeting vertex of
    least number; from there on it takes the least letter that lowers the
    distance to the target by one.

    max_radius bounds L (None: unbounded) and vertex_cap bounds the two
    trees together.  A pair in different orbits fails at once.
    """
    if max_radius is not None and max_radius < 0:
        raise ValueError(f"radius must be >= 0, got {max_radius}")
    if vertex_cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {vertex_cap}")
    if not same_orbit(source, target):
        raise PathNotFoundError(source, target, max_radius, ": the points lie in different orbits of F")
    forward = _Tree((source.preperiod, source.period))
    backward = _Tree((target.preperiod, target.period))
    meet = [0] if source == target else []
    while not meet:
        df, db = forward.depth, backward.depth
        if df + db == max_radius:
            raise PathNotFoundError(source, target, max_radius, f" within radius {max_radius}")
        tree, other = (forward, backward) if forward.width <= backward.width else (backward, forward)
        if not tree.grow(vertex_cap - len(other.keys)):
            raise BallCapacityError(
                vertex_cap,
                f"; the search from {source} to {target} held {vertex_cap} vertices,"
                f" complete to depth {df} from the source and {db} from the target",
            )
        if not tree.width:  # a closed, finite orbit: only an endpoint's, which same_orbit rules out
            raise PathNotFoundError(source, target, df + db, ": the search closed an orbit without meeting")
        meet = [forward.index[key] for key in tree.keys[tree.starts[-2] :] if key in other.index]
    vertex = min(meet)
    word = [forward.path_word(vertex)]
    v, w = forward.keys[vertex]
    starts = backward.starts
    for k in range(backward.depth - 1, -1, -1):
        for s, letter in enumerate(BFS_LETTERS):
            key = _step(v, w, s)
            if starts[k] <= backward.index.get(key, -1) < starts[k + 1]:
                break
        word.append(letter)
        v, w = key
    return "".join(word)


def vertex_at_address(root: RationalPoint, address: str) -> RationalPoint:
    """Vertex reached from the root by an A/B address (A -> x0^-1 x1, B -> x1)."""
    return act_word(root, address_word(address))


def forbidden_prefix(period: str) -> str:
    """Address prefix excluded from unique labels: reversed period, 1 -> A, 0 -> B."""
    return "".join("A" if ch == "1" else "B" for ch in reversed(period))


def check_addresses(period: str, max_len: int) -> Report:
    """Verify unique A/B addressing of the vertices below 10 period^inf.

    Enumerates all addresses of 1 to max_len letters that avoid the
    forbidden prefix, with the empty one, checks that they reach pairwise
    distinct points, and checks that the period loop word fixes the root.
    The checks depend on the arguments only, so each pair is proved once
    per process; every call gets a fresh Report.
    """
    if max_len < 1:
        raise ValueError(f"label length must be >= 1, got {max_len}")
    if max_len > MAX_LABEL_LEN:
        raise ValueError(f"label length must be <= {MAX_LABEL_LEN}, got {max_len}")
    if primitive_root(period) != period:
        raise ValueError(f"period {period!r} is a proper power")
    return Report(f"addresses for period {period}", list(_address_checks(period, max_len)))


@cache
def _address_checks(period: str, max_len: int) -> tuple[Check, Check]:
    """The two checks of check_addresses.

    The addresses are walked as a trie grown at the end: the image of a
    label is its parent's, label[:-1], folded through the 1 or 2 letters of
    the last address letter, so each label costs at most two letter steps.
    The parent of a kept label is kept, since a label that starts with the
    forbidden prefix makes every label below it start with it too.
    """
    root = canonicalize("10", period)
    banned = forbidden_prefix(period)
    steps = {c: address_word(c) for c in "AB"}
    level = {"": (root.preperiod, root.period)}
    images = set(level.values())
    count = 1
    for _ in range(max_len):
        level = {
            label + c: _fold(*image, steps[c])
            for label, image in level.items()
            for c in "AB"
            if not (label + c).startswith(banned)
        }
        images.update(level.values())
        count += len(level)
    return (
        Check(
            f"{count} addresses up to length {max_len} reach distinct points (period {period})",
            len(images) == count,
        ),
        Check(f"period loop word fixes 10({period})^inf", act_word(root, period_loop_word(period)) == root),
    )


def _labels(b: SchreierBall) -> list[str]:
    """The v(w) text of every vertex of the ball, in vertex order, from its keys."""
    return [f"{v}({w})" for v, w in b.keys]


def export_dot(b: SchreierBall) -> str:
    """Deterministic DOT text: vertices in index order, edges in (source, label) order."""
    names = _labels(b)
    lines = ["digraph schreier {", f'  "{names[0]}" [peripheries=2];']
    lines += [f'  "{name}";' for name in names[1:]]
    it = iter(b.flat_edges)
    lines += [f'  "{names[src]}" -> "{names[dst]}" [label={label}];' for src, label, dst in zip(it, it, it)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(b: SchreierBall) -> str:
    """The text json.dumps gives for the seed, radius, vertex labels and edge triples, written directly.

    No label needs escaping: vertices are made of 0, 1, ( and ), and edges
    are labelled x0 or x1.  The edge list goes through one format call.
    """
    flat = b.flat_edges
    return '{"seed": "%s", "radius": %d, "vertices": ["%s"], "edges": [%s]}' % (
        b.seed,
        b.radius,
        '", "'.join(_labels(b)),
        ", ".join(['[%d, "%s", %d]'] * (len(flat) // 3)) % tuple(flat),
    )
