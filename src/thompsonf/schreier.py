"""Breadth-first balls of the orbital Schreier graph of F on rational points.

Vertices are canonical rational points, edges are the x0/x1 arrows of the
Schreier graph (inverse arrows are implicit).  Exploration order is fixed:
vertices are numbered in BFS discovery order with letters tried in the order
x0, x0^-1, x1, x1^-1, so ball construction, DOT output and JSON output are
bit-for-bit reproducible.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import product

from .cantor import RationalPoint, act_letter, act_word, canonicalize, primitive_root
from .report import Report
from .words import Letter, Word, address_word, period_loop_word

BFS_LETTERS = (Letter.X0, Letter.X0_INV, Letter.X1, Letter.X1_INV)

_EDGE_LABELS = ((Letter.X0, "x0"), (Letter.X1, "x1"))


class BallCapacityError(RuntimeError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"ball exploration exceeded the vertex cap of {cap}")


class PathNotFoundError(RuntimeError):
    def __init__(self, source: RationalPoint, target: RationalPoint, radius: int):
        self.explored_radius = radius
        super().__init__(f"no path from {source} to {target} within radius {radius}")


@dataclass
class SchreierBall:
    """BFS-explored portion of the Schreier graph around a seed point."""

    seed: RationalPoint
    radius: int
    vertices: tuple[RationalPoint, ...]
    edges: tuple[tuple[int, str, int], ...]
    parents: tuple[tuple[int, Letter] | None, ...]
    distances: tuple[int, ...]

    def index_of(self, point: RationalPoint) -> int | None:
        try:
            return self.vertices.index(point)
        except ValueError:
            return None

    def path_word(self, vertex: int) -> Word:
        """Shortest word u with act_word(seed, u) = vertices[vertex]."""
        letters: list[Letter] = []
        while vertex != 0:
            parent = self.parents[vertex]
            assert parent is not None
            vertex, letter = parent
            letters.append(letter)
        return tuple(reversed(letters))

    def __len__(self) -> int:
        return len(self.vertices)


def _bfs(
    seed: RationalPoint, radius: int, vertex_cap: int, target: RationalPoint | None = None
) -> tuple[SchreierBall, dict[RationalPoint, int]]:
    """BFS over the four letters up to the radius, stopping once target is discovered.

    Returns the explored ball, without edges, and the index of its vertices.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if vertex_cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {vertex_cap}")
    vertices = [seed]
    index = {seed: 0}
    distances = [0]
    parents: list[tuple[int, Letter] | None] = [None]
    queue: deque[int] = deque([] if seed == target else [0])
    while queue:
        i = queue.popleft()
        if distances[i] >= radius:
            continue
        for letter in BFS_LETTERS:
            image = act_letter(vertices[i], letter)
            if image in index:
                continue
            if len(vertices) >= vertex_cap:
                raise BallCapacityError(vertex_cap)
            index[image] = len(vertices)
            vertices.append(image)
            distances.append(distances[i] + 1)
            parents.append((i, letter))
            if image == target:
                queue.clear()
                break
            queue.append(index[image])
    b = SchreierBall(seed, radius, tuple(vertices), (), tuple(parents), tuple(distances))
    return b, index


def ball(seed: RationalPoint, radius: int, vertex_cap: int = 100_000) -> SchreierBall:
    """Closure of the seed under the four letters, truncated at the radius.

    Edges are recorded for the positive letters only and only between
    discovered vertices, so every vertex strictly inside the ball carries
    exactly one outgoing x0 edge and one outgoing x1 edge.
    """
    b, index = _bfs(seed, radius, vertex_cap)
    edges: list[tuple[int, str, int]] = []
    for i, point in enumerate(b.vertices):
        for letter, label in _EDGE_LABELS:
            j = index.get(act_letter(point, letter))
            if j is not None:
                edges.append((i, label, j))
    b.edges = tuple(edges)
    return b


def find_path(
    source: RationalPoint,
    target: RationalPoint,
    max_radius: int,
    vertex_cap: int = 500_000,
) -> Word:
    """Shortest word moving source to target, by BFS over the four letters."""
    b, _ = _bfs(source, max_radius, vertex_cap, target)
    if b.vertices[-1] != target:
        raise PathNotFoundError(source, target, min(b.distances[-1] + 1, max_radius))
    return b.path_word(len(b) - 1)


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
        "edges": [[src, label, dst] for src, label, dst in b.edges],
    }
    return json.dumps(payload)
