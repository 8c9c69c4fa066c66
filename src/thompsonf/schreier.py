"""Breadth-first balls of the orbital Schreier graph of F on rational points.

Vertices are canonical rational points, edges are the x0/x1 arrows of the
Schreier graph (inverse arrows are implicit).  Exploration order is fixed:
vertices are numbered in BFS discovery order with letters tried in the order
x0, x0^-1, x1, x1^-1, so ball construction, DOT output and JSON output are
bit-for-bit reproducible.

The search works on (preperiod, period) string pairs, which hash and compare
at C speed, and steps them with the head-table kernel of cantor.  Balls and
shortest paths grow the same BFS tree, one whole layer at a time, recording
the parent of every vertex.  A ball's tree also records the x0 and x1 edges
of every vertex it expands; a ball builds the RationalPoint of each vertex
once, at the end, and computes the images of its boundary layer only, the
vertices at the full radius.

Shortest paths come from a bidirectional search: two trees, one from each
end, grow a layer at a time until they meet, so a path of length L costs
about two balls of radius L/2 instead of one of radius L.  The word returned
is the least geodesic in the letter order above: the forward tree's parent
path to the meeting vertex it discovered first, then the least letters
that descend the backward tree.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

from .cantor import _TABLES, _step, RationalPoint, act_word, canonicalize, primitive_root
from .report import Report
from .words import Letter, Word, address_word, period_loop_word

BFS_LETTERS = (Letter.X0, Letter.X0_INV, Letter.X1, Letter.X1_INV)
MAX_LABEL_LEN = 12  # longest A/B label that check_addresses and check_reduction enumerate, of 2^(n + 1)

# Letters with their head tables, so a BFS step does no per-letter lookup.
_BFS_STEPS = tuple((letter, _TABLES[letter]) for letter in BFS_LETTERS)
_EDGE_STEPS = (("x0", _TABLES[Letter.X0]), ("x1", _TABLES[Letter.X1]))

_Key = tuple[str, str]
_Parent = tuple[int, Letter] | None
_Edge = tuple[int, str, int]


class BallCapacityError(RuntimeError):
    def __init__(self, cap: int, searched: str):
        self.cap = cap
        super().__init__(f"ball exploration exceeded the vertex cap of {cap}{searched}")


class PathNotFoundError(RuntimeError):
    def __init__(self, source: RationalPoint, target: RationalPoint, radius: int | None, why: str):
        self.explored_radius = radius
        super().__init__(f"no path from {source} to {target}{why}")


@dataclass
class SchreierBall:
    """BFS-explored portion of the Schreier graph around a seed point."""

    seed: RationalPoint
    radius: int
    vertices: tuple[RationalPoint, ...]
    edges: tuple[_Edge, ...]
    parents: tuple[_Parent, ...]
    distances: tuple[int, ...]

    def path_word(self, vertex: int) -> Word:
        """Shortest word u with act_word(seed, u) = vertices[vertex]."""
        return _path_word(self.parents, vertex)

    def __len__(self) -> int:
        return len(self.vertices)


def _path_word(parents: Sequence[_Parent], vertex: int) -> Word:
    letters: list[Letter] = []
    while vertex != 0:
        parent = parents[vertex]
        assert parent is not None
        vertex, letter = parent
        letters.append(letter)
    return tuple(reversed(letters))


class _Tree:
    """BFS tree over the four letters, grown one whole layer at a time.

    Vertices are (preperiod, period) keys numbered in discovery order, and
    keys[starts[d]:starts[d + 1]] is the layer at depth d.  Growing expands
    the outermost layer in vertex order, letters in BFS_LETTERS order, and
    records the parent of every new vertex.  Given an edge list, it also
    appends the x0 and x1 edges of every expanded vertex to it, in vertex
    order; balls pass one, shortest-path searches do not.
    """

    def __init__(self, root: _Key, edges: list[_Edge] | None = None):
        self.keys = [root]
        self.index = {root: 0}
        self.parents: list[_Parent] = [None]
        self.edges = edges
        self.starts = [0, 1]

    @property
    def depth(self) -> int:
        return len(self.starts) - 2

    @property
    def width(self) -> int:
        return self.starts[-1] - self.starts[-2]

    def grow(self, limit: int) -> bool:
        """Add the next layer; False, and no layer, when it would hold more than limit vertices in all."""
        keys, index, parents, edges = self.keys, self.index, self.parents, self.edges
        for i in range(self.starts[-2], self.starts[-1]):
            v, w = keys[i]
            images = []
            for letter, table in _BFS_STEPS:
                key = _step(v, w, table)
                j = index.get(key)
                if j is None:
                    j = len(keys)
                    if j >= limit:
                        return False
                    index[key] = j
                    keys.append(key)
                    parents.append((i, letter))
                images.append(j)
            if edges is not None:
                # x0 and x1 are the first and the third of BFS_LETTERS
                edges += ((i, "x0", images[0]), (i, "x1", images[2]))
        self.starts.append(len(keys))
        return True


def ball(seed: RationalPoint, radius: int, vertex_cap: int = 100_000) -> SchreierBall:
    """Closure of the seed under the four letters, truncated at the radius.

    Edges are recorded for the positive letters only and only between
    discovered vertices, so every vertex strictly inside the ball carries
    exactly one outgoing x0 edge and one outgoing x1 edge.  The BFS tree
    gives those of the vertices it expanded; only the boundary layer, the
    vertices at the full radius, has its images computed here.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if vertex_cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {vertex_cap}")
    edges: list[_Edge] = []
    tree = _Tree((seed.preperiod, seed.period), edges)
    while tree.depth < radius and tree.width:
        if not tree.grow(vertex_cap):
            raise BallCapacityError(vertex_cap, f"; the ball was complete to radius {tree.depth}")
    keys, index, starts = tree.keys, tree.index, tree.starts
    for i in range(starts[-2], len(keys)):
        v, w = keys[i]
        for label, table in _EDGE_STEPS:
            j = index.get(_step(v, w, table))
            if j is not None:
                edges.append((i, label, j))
    vertices = tuple(RationalPoint._canonical(v, w) for v, w in keys)
    distances = tuple(d for d in range(len(starts) - 1) for _ in range(starts[d], starts[d + 1]))
    return SchreierBall(seed, radius, vertices, tuple(edges), tuple(tree.parents), distances)


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
    word = list(_path_word(forward.parents, vertex))
    v, w = forward.keys[vertex]
    starts = backward.starts
    for k in range(backward.depth - 1, -1, -1):
        for letter, table in _BFS_STEPS:
            key = _step(v, w, table)
            if starts[k] <= backward.index.get(key, -1) < starts[k + 1]:
                break
        word.append(letter)
        v, w = key
    return tuple(word)


def vertex_at_address(root: RationalPoint, address: str) -> RationalPoint:
    """Vertex reached from the root by an A/B address (A -> x0^-1 x1, B -> x1)."""
    return act_word(root, address_word(address))


def forbidden_prefix(period: str) -> str:
    """Address prefix excluded from unique labels: reversed period, 1 -> A, 0 -> B."""
    return "".join("A" if ch == "1" else "B" for ch in reversed(period))


def check_addresses(period: str, max_len: int) -> Report:
    """Verify unique A/B addressing of the vertices below 10 period^inf.

    Enumerates all addresses up to max_len that avoid the forbidden prefix,
    checks that they reach pairwise distinct points, and checks that the
    period loop word fixes the root.
    """
    if max_len > MAX_LABEL_LEN:
        raise ValueError(f"label length must be <= {MAX_LABEL_LEN}, got {max_len}")
    if primitive_root(period) != period:
        raise ValueError(f"period {period!r} is a proper power")
    root = canonicalize("10", period)
    banned = forbidden_prefix(period)
    labels = [
        "".join(bits)
        for length in range(max_len + 1)
        for bits in product("AB", repeat=length)
        if not "".join(bits).startswith(banned)
    ]
    seen: dict[RationalPoint, str] = {}
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
    report.add(
        f"period loop word fixes 10({period})^inf",
        act_word(root, period_loop_word(period)) == root,
    )
    return report


def export_dot(b: SchreierBall) -> str:
    """Deterministic DOT text: vertices in index order, edges in (source, label) order."""
    lines = ["digraph schreier {"]
    for i, point in enumerate(b.vertices):
        marker = " [peripheries=2]" if i == 0 else ""
        lines.append(f'  "{point}"{marker};')
    for src, label, dst in b.edges:
        lines.append(f'  "{b.vertices[src]}" -> "{b.vertices[dst]}" [label={label}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(b: SchreierBall) -> str:
    payload = {
        "seed": str(b.seed),
        "radius": b.radius,
        "vertices": [str(p) for p in b.vertices],
        "edges": b.edges,
    }
    return json.dumps(payload)
