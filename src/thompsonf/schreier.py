"""Breadth-first balls of the orbital Schreier graph of F on rational points.

Vertices are canonical rational points, edges are the x0/x1 arrows of the
Schreier graph (inverse arrows are implicit).  Exploration order is fixed:
vertices are numbered in BFS discovery order with letters tried in the order
x0, x0^-1, x1, x1^-1, so ball construction, DOT output and JSON output are
bit-for-bit reproducible.

The search works on (preperiod, period) string pairs, which hash and compare
at C speed, and steps them with the head-table kernel of cantor; a ball
builds the RationalPoint of each vertex once, at the end.  The x0 and x1
edges of every vertex the search expands come out of the search itself, so
only the boundary layer, the vertices at the full radius, has its images
computed again.

Shortest paths come from a bidirectional search: two balls, one around each
end, grow a layer at a time until they meet, so a path of length L costs
about two balls of radius L/2 instead of one of radius L.  The word returned
is the least geodesic in the letter order above, which is the word the BFS
tree of a ball around the source spells.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

from .cantor import _TABLES, _step, RationalPoint, act_word, canonicalize, primitive_root
from .report import Report
from .words import Letter, Word, address_word, period_loop_word

BFS_LETTERS = (Letter.X0, Letter.X0_INV, Letter.X1, Letter.X1_INV)

# Letters with their head tables, so a BFS step does no per-letter lookup.
_BFS_STEPS = tuple((letter, _TABLES[letter]) for letter in BFS_LETTERS)
_BFS_TABLES = tuple(table for _, table in _BFS_STEPS)
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

    def index_of(self, point: RationalPoint) -> int | None:
        try:
            return self.vertices.index(point)
        except ValueError:
            return None

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


def _bfs(
    seed: RationalPoint, radius: int, vertex_cap: int
) -> tuple[list[_Key], dict[_Key, int], list[int], list[_Parent], list[_Edge]]:
    """BFS over the four letters up to the radius.

    Returns the vertices as (preperiod, period) keys in discovery order,
    their index, distances and parents, and the x0 and x1 edges of the
    expanded vertices.  The key list is the queue: vertices are expanded in
    discovery order until the first one at the full radius, so the expanded
    vertices, and their edges, come first and in vertex order.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if vertex_cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {vertex_cap}")
    keys = [(seed.preperiod, seed.period)]
    index = {keys[0]: 0}
    distances = [0]
    parents: list[_Parent] = [None]
    edges: list[_Edge] = []
    i = 0
    while i < len(keys) and distances[i] < radius:
        v, w = keys[i]
        d = distances[i] + 1
        images = []
        for letter, table in _BFS_STEPS:
            key = _step(v, w, table)
            j = index.get(key)
            if j is None:
                j = len(keys)
                if j >= vertex_cap:
                    raise BallCapacityError(vertex_cap, f"; the ball was complete to radius {d - 1}")
                index[key] = j
                keys.append(key)
                distances.append(d)
                parents.append((i, letter))
            images.append(j)
        # x0 and x1 are the first and the third of BFS_LETTERS
        edges += ((i, "x0", images[0]), (i, "x1", images[2]))
        i += 1
    return keys, index, distances, parents, edges


def ball(seed: RationalPoint, radius: int, vertex_cap: int = 100_000) -> SchreierBall:
    """Closure of the seed under the four letters, truncated at the radius.

    Edges are recorded for the positive letters only and only between
    discovered vertices, so every vertex strictly inside the ball carries
    exactly one outgoing x0 edge and one outgoing x1 edge.  The BFS gives
    those of the vertices it expanded; only the boundary layer, the vertices
    at the full radius, has its images computed here.
    """
    keys, index, distances, parents, edges = _bfs(seed, radius, vertex_cap)
    for i in range(bisect_left(distances, radius), len(keys)):
        v, w = keys[i]
        for label, table in _EDGE_STEPS:
            j = index.get(_step(v, w, table))
            if j is not None:
                edges.append((i, label, j))
    vertices = tuple(RationalPoint._canonical(v, w) for v, w in keys)
    return SchreierBall(seed, radius, vertices, tuple(edges), tuple(parents), tuple(distances))


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

    A forward ball around the source and a backward ball around the target
    (the graph is symmetric: every letter has its inverse among the four)
    grow by whole layers, the smaller frontier first, until they meet at
    depths df and db; the distance is then L = df + db, and the meeting
    vertices are those at distance df from the source on a geodesic.  A
    sweep back from them marks the geodesic vertices of the forward ball.
    The word is then read greedily: from the source the least letter that
    stays on a marked vertex one layer further, and from the meeting vertex
    on the least letter that lowers the distance to the target by one.

    max_radius bounds L (None: unbounded) and vertex_cap bounds the two
    balls together.  A pair in different orbits fails at once.
    """
    if max_radius is not None and max_radius < 0:
        raise ValueError(f"radius must be >= 0, got {max_radius}")
    if vertex_cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {vertex_cap}")
    if not same_orbit(source, target):
        raise PathNotFoundError(source, target, max_radius, ": the points lie in different orbits of F")
    start = (source.preperiod, source.period)
    goal = (target.preperiod, target.period)
    fdist, bdist = {start: 0}, {goal: 0}
    ffront, bfront = [start], [goal]
    df = db = 0
    meet = [start] if start == goal else []
    while not meet:
        if df + db == max_radius:
            raise PathNotFoundError(source, target, max_radius, f" within radius {max_radius}")
        forward = len(ffront) <= len(bfront)
        front, dist, other = (ffront, fdist, bdist) if forward else (bfront, bdist, fdist)
        depth = (df if forward else db) + 1
        room = vertex_cap - len(fdist) - len(bdist)
        layer = []
        for v, w in front:
            for table in _BFS_TABLES:
                key = _step(v, w, table)
                if key not in dist:
                    if len(layer) == room:
                        raise BallCapacityError(
                            vertex_cap,
                            f"; the search from {source} to {target} held {vertex_cap} vertices,"
                            f" complete to depth {df} from the source and {db} from the target",
                        )
                    dist[key] = depth
                    layer.append(key)
        if not layer:  # a closed, finite orbit: only an endpoint's, which same_orbit rules out
            raise PathNotFoundError(source, target, df + db, ": the search closed an orbit without meeting")
        meet = [key for key in layer if key in other]
        if forward:
            ffront, df = layer, depth
        else:
            bfront, db = layer, depth
    # on_path[k]: the vertices at distance k from the source on a geodesic
    on_path = [set(meet)]
    for k in range(df - 1, -1, -1):
        below = set()
        for v, w in on_path[-1]:
            for table in _BFS_TABLES:
                key = _step(v, w, table)
                if fdist.get(key) == k:
                    below.add(key)
        on_path.append(below)
    on_path.reverse()
    word = []
    v, w = start
    for k in range(1, df + db + 1):
        for letter, table in _BFS_STEPS:
            key = _step(v, w, table)
            if (key in on_path[k]) if k <= df else (bdist.get(key) == df + db - k):
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
