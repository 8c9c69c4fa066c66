"""Breadth-first balls and least geodesics of the orbital Schreier graph of F on rational points.

Vertices are canonical rational points, edges are the x0/x1 arrows of the
Schreier graph (inverse arrows are implicit).  Exploration order is fixed:
vertices are numbered in BFS discovery order with letters tried in the order
x0, x0^-1, x1, x1^-1, so ball construction, DOT output and JSON output are
bit-for-bit reproducible.

A letter rewrites a prefix and keeps the tail, so every vertex of an orbit
has a rotation of one primitive period W.  A ball holds W once, and each
vertex only as its preperiod string and a rotation offset r: its period is
W[r:] + W[:r].  The index is one dict per rotation, from preperiod to
vertex number, so no key tuple is built and no period is copied per vertex.
A ball grows its BFS tree one whole layer at a time, kept in flat lists:
the preperiods and the rotations in discovery order and, per vertex, the
number of its parent and the slot in BFS_LETTERS of the letter that
discovered it.  The ball inlines cantor._step on its rule table, _HEADS,
whose slots follow BFS_LETTERS.  Which letters it applies is settled at
import, in one plan per discovering letter and head, the first three
letters of the sequence: _PLANS, derived from _HEADS.  Three kinds of
image are known without building or looking up a key.  The letter that
undoes the discovering one leads back to the parent.  A rule marked _LOOP,
one that rewrites its left side to itself (x1 and x1^-1 on a sequence that
starts with 0), fixes the vertex.  And two twin letters give the same point
on every sequence with the head: x0^-1 and x1^-1 on 11, x0 and x1 on 111,
the parallel edges of the Schreier graph.  The later twin shares the earlier
one's image, and a twin of the letter back leads to the parent too.  A plan
lists the other letters as its steps, with their rules, and says where the
x0 and x1 images are.

Lemma: set loops and parallel edges aside; then every cycle of the graph
passes only through points whose canonical preperiod has at most 3 letters.
Proof: every rule's left side has at most 3 letters, so on a preperiod of
M >= 4 letters a rule rewrites inside it and changes its length by -1, 0 or
+1, and the image is canonical.  The letters that keep the length keep
every letter from the fourth on, and split the eight heads into five
components: {000}, {001}, {111}, {010, 100} and {011, 101, 110}.  Each is a
tree, and each has exactly one edge that shortens the preperiod: 000 -> 00,
001 -> 01, 111 -> 11 (by x0 and x1 alike), 100 -> 10 and 110 -> 10.  On a
cycle, take a vertex whose preperiod is longest, M >= 4 letters.  The run
of the cycle's vertices of M letters through it keeps their letters from
the fourth on, so it is a path in one component's tree.  A tree holds no
cycle, so the run ends on both sides in an edge that shortens, and a cycle
uses no edge twice: the component would have two such edges.

So a ball looks up an image only where a cycle can close.  A step's image
that is already known is the parent, the vertex itself, an earlier step's
image, or the far end of an edge that closes a cycle with the tree.  At a
vertex of 4 or more letters the lemma rules out the last, and the plan
leaves out the others: there every rule reads only the head, so a loop or a
parallel edge is a _LOOP rule or a pair of twins on the head.  Hence every
step's image at such a vertex is new, and only a vertex of at most 3
letters looks its images up.

Corollary: call a vertex of 4 or more letters that a step found by
lengthening its parent's preperiod a hanging root.  The letter back to the
parent is the one edge of its head's component that shortens, and the
plan leaves it out, with its twins.  So each step below the root keeps the
length and moves the head along the component's tree, away from the
root's head, or lengthens, to another such root.  No vertex below a
hanging root shortens, looks up or reads past the root's first 3 letters:
each is a prefix of 3 or more letters before the root's tail, the letters
from its fourth on, and only its prefix's head picks its plan.  So
generation k of the tree below the root, the prefixes of its vertices,
their parents and their discovering slots, is fixed by the root's state,
its discovering slot and head, whatever its tail and rotation.  Five
states occur: x0 on 000 and on 001, x0^-1 on 110 and on 111, x1 on 100.
The three of them that append a 0 or a 1 at the front grow chains of one
vertex a generation; the other two grow by about 1.6 a generation.

A ball grows a layer as runs in vertex order.  A run of single vertices is
expanded one vertex at a time, as above; it holds the core, the vertices
of at most 3 letters, and the root's way down.  A block is one generation
of a hanging tree, and it appends its next generation to the new layer at
once, from its state's template, with list operations only: the prefixes
joined to the tail, the parents shifted by the generation's start, the
rotation repeated, the slots, and the x0 and x1 quads of the generation as
offsets added to the starts of three generations.  A single vertex that
finds a hanging root starts a block.  The templates are derived from
_PLANS on first use, never at import, one generation at a time, and kept
while a generation holds at most _GENERATION_BOUND entries.  Past it, the
block goes on as a run of single vertices that starts no blocks: a tree
that grows keeps no generation past the bound, and a chain one entry for
each generation of the deepest ball.  A ball's index holds its root and the images of
its single vertices of at most 4 letters, and nothing of a block.  They
take in every vertex of at most 3 letters, since a step changes the length
of a longer preperiod by 1 at most and no block shortens, and every
rotation, since a rule that reads past the preperiod leaves at most 3
letters.

A ball's tree also records the x0 and x1 edges of every vertex it expands,
as four ints in one flat list: source, x0 target, source, x1 target, the
labels implied by the place.  Only the boundary layer, the vertices at the
full radius, has its images computed afterwards, from the same plans and
templates, into a second flat list of (source, label, target) triples, and
a boundary vertex of 4 or more letters none: its only edges inside the
ball go to its parent and to itself.  A ball's tuple of RationalPoint
vertices is built on first access, with each rotation's period text built
once.  The exports write
their text from the preperiods, the rotation texts and the two edge lists
without it: write_json and write_dot hand their text to a write function
in pieces of at most _CHUNK vertices or edge records, so a ball's text is
never held whole.

The orbital graph of a point other than the endpoints is one cycle with
trees hanging off it, as Savchuk describes these Schreier graphs (Geom.
Dedicata 2015).  The lemma proves the trees: loops and parallel edges
aside, no cycle reaches a vertex of 4 or more letters.  The tests check,
on every primitive period of at most 7 letters, that the vertices of at
most 3 letters hold one cycle: the period cycle that
stabilizer_period_word(W) walks from 10(W), B for each 0 of W and Ba for
each 1.  Its |W|_0 + 2|W|_1 places hold the base point 10(W[i:] + W[:i])
at place i + #1(W[:i]) and, where W[i] is 1, 110(W[i+1:] + W[:i+1]) at
the next.  So find_path searches nothing.  A point's way down to the
cycle is _landing's word, cut one letter short where it reaches the
cycle a letter early, at 110(u) before 10(u).  Two ways down to one
place meet at their longest common suffix, and the word goes up the
source's way to there and down the target's; otherwise it is the
source's way down, the shorter arc between the two places, and the
target's way up.  The word moves the source to the target by
construction; that it is the least geodesic in BFS_LETTERS order is
what the tests check, against a bidirectional search.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cache, cached_property
from itertools import islice, repeat
from operator import add, itemgetter

from .cantor import _HEADS, _LOOP, _SLOT, RationalPoint, _absorb, _step, act_word, canonicalize, primitive_root
from .report import Check, Report
from .words import LETTERS, Word, address_word, invert_word, period_loop_word, stabilizer_period_word

BFS_LETTERS = LETTERS
MAX_LABEL_LEN = 12  # longest A/B label that check_addresses and check_reduction enumerate, of 2^(n + 1)
MAX_BALL_VERTICES = 1_000_000  # greatest vertex cap of a ball

_Step = tuple[int, int, str]
_Plan = tuple[tuple[_Step, ...], tuple[int, ...]]

# where a plan finds an image: in [parent, vertex, image of steps[0], image of steps[1], ...]
_PARENT, _SELF = 0, 1


def _plan(found_by: int, head: str) -> _Plan:
    """The letters to apply to a vertex whose sequence starts with head, discovered by the letter in slot found_by.

    found_by is -1 for a root.  Returns steps, the (slot, lhs length, rhs)
    of each letter whose image can be a new vertex, in BFS_LETTERS order,
    and where, whose entry s says where the image of the letter in slot s
    is: _PARENT, _SELF, or 2 + k for the image of steps[k].  Two letters are
    twins on the head when their rules (n1, r1) and (n2, r2), n1 <= n2,
    satisfy r2 == r1 + head[n1:n2]: on every sequence with that head they
    give the same point, as x0^-1 and x1^-1 do on 11 and x0 and x1 on 111.
    A _LOOP rule leads to the vertex itself, the letter that undoes the
    discovering one and its twins to the parent, and a twin of an earlier
    letter to that letter's image.  A skipped letter's image is known before
    it comes up in BFS order, so skipping it numbers no vertex differently.
    """
    rules = _HEADS[head]

    def twins(s: int, t: int) -> bool:
        (n1, r1), (n2, r2) = sorted((rules[s], rules[t]))
        return n1 != _LOOP and r2 == r1 + head[n1:n2]

    back = found_by ^ 1  # the slot of the inverse letter; -2 for a root, which has no parent
    steps: list[_Step] = []
    where: list[int] = []
    for s, (n, rhs) in enumerate(rules):
        if n == _LOOP:
            where.append(_SELF)
        elif back >= 0 and (s == back or twins(s, back)):
            where.append(_PARENT)
        else:
            twin = next((t for t in range(s) if twins(s, t)), None)
            if twin is None:
                steps.append((s, n, rhs))
                where.append(1 + len(steps))
            else:
                where.append(where[twin])
    return tuple(steps), tuple(where)


# _PLANS[found_by][head] is _plan(found_by, head); the root's plan, found_by -1, is the last entry
_PLANS = tuple({head: _plan(found_by, head) for head in _HEADS} for found_by in (*range(len(BFS_LETTERS)), -1))


_GENERATION_BOUND = 4096  # most entries of a generation of a hanging tree that is kept as a template
_TREES: list = [None, {}]  # the bound the generations were derived under, and those of each state of a hanging root

_Generation = tuple[list[str], list[int], list[int], list[int], Callable | None, list, Callable | None]


def _tree(found_by: int, head: str) -> list[_Generation | None]:
    """The generations derived so far of the tree that hangs from a root with this discovering slot and head.

    A generation is (prefixes, parents, slots, quads, pick, triples,
    pick).  Entry j is the vertex prefixes[j] + tail, tail the root's
    preperiod past its head, found from entry parents[j] of the generation
    before by the letter in slots[j]; generation 0 is the root, whose one
    entry has parent 0, the root's own parent.  quads are the x0 and x1
    quads of the generation before, as offsets, and pick, an itemgetter,
    takes the base of each offset from the starts of the generations two
    before, one before and this one.  triples are this generation's
    boundary triples, its edges to the parent and to the entry itself, and
    their pick takes from the start of the generation before, this one's
    start and "", which a label takes.  The generations are derived from
    _PLANS on first use, by _derive, and again when _GENERATION_BOUND is
    changed.
    """
    bound, trees = _TREES
    if bound != _GENERATION_BOUND:
        _TREES[:] = bound, trees = _GENERATION_BOUND, {}
    generations = trees.get((found_by, head))
    if generations is None:
        generations = trees[found_by, head] = [([head], [0], [found_by], [], None, *_triples([head], [0], [found_by]))]
    return generations


def _derive(generations: list[_Generation | None]) -> None:
    """Append the generation after the last one of a hanging tree, or None when it holds more than _GENERATION_BOUND entries."""
    prefixes, parents, slots = generations[-1][:3]
    nxt, up, by, quads, bases = [], [], [], [], []
    for j, (p, s) in enumerate(zip(prefixes, slots)):
        steps, where = _PLANS[s][p[:3]]
        images = [(0, parents[j]), (1, j), *((2, len(nxt) + e) for e in range(len(steps)))]
        for t, n, rhs in steps:
            nxt.append(rhs + p[n:])
            up.append(j)
            by.append(t)
        (b0, x0), (b1, x1) = images[where[0]], images[where[2]]  # x0 and x1 are the first and the third of BFS_LETTERS
        quads += (j, x0, j, x1)
        bases += (1, b0, 1, b1)
    fits = len(nxt) <= _GENERATION_BOUND
    generations.append((nxt, up, by, quads, _picker(bases), *_triples(nxt, up, by)) if fits else None)


def _triples(prefixes: list[str], parents: list[int], slots: list[int]) -> tuple[list, Callable | None]:
    """The boundary triples of a generation's entries, their edges to the parent and to themselves: offsets and pick."""
    triples: list[int | str] = []
    bases: list[int] = []
    for j, (p, s) in enumerate(zip(prefixes, slots)):
        where = _PLANS[s][p[:3]][1]
        images = ((0, parents[j]), (1, j))
        for label, x in (("x0", where[0]), ("x1", where[2])):
            if x in (_PARENT, _SELF):
                base, offset = images[x]
                triples += (j, label, offset)
                bases += (1, 2, base)
    return triples, _picker(bases)


def _picker(bases: list[int]) -> Callable | None:
    """The itemgetter of these places, None for none; a generation has no entry or at least three places."""
    return itemgetter(*bases) if bases else None


class BallCapacityError(RuntimeError):
    """A ball reached its vertex cap; vertices is the number it held, and radius the depth it had completed."""

    def __init__(self, cap: int, vertices: int, radius: int):
        self.cap = cap
        self.vertices = vertices
        self.radius = radius
        super().__init__(f"ball exploration exceeded the vertex cap of {cap}; the ball was complete to radius {radius}")


class PathNotFoundError(RuntimeError):
    """No path within the bound: the points lie in different orbits, or every path is longer than the radius."""

    def __init__(self, source: RationalPoint, target: RationalPoint, radius: int | None, why: str):
        self.explored_radius = radius
        super().__init__(f"no path from {source} to {target}{why}")


class SchreierBall:
    """BFS-explored portion of the Schreier graph around a seed point, grown one whole layer at a time.

    All vertices have a rotation of the seed's primitive period W, held
    once.  Vertex i is the preperiod pre[i] followed by
    (W[rot[i]:] + W[:rot[i]])^inf, vertices are numbered in discovery
    order, and index[r][v] is the number of the vertex with preperiod v and
    rotation r, for the root and the images of single vertices of at most
    4 letters, which take in every vertex that a lookup can find.
    pre[starts[d]:starts[d + 1]] is the layer at depth d, and runs the
    outermost layer in vertex order, as runs of single vertices,
    (first, end, whether a hanging root found there starts a block), and
    blocks, (the generations of the tree's state, k, the start of
    generation k - 1, or the root's parent for k = 0, the start of
    generation k, tail, rotation).  parent[i] is the
    number of the vertex that discovered vertex i and slot[i] the place in
    BFS_LETTERS of the letter it took, both -1 for the root.  Growing
    expands the outermost layer in vertex order, letters in BFS_LETTERS
    order.  At vertex i it applies only the steps of _PLANS[slot[i]][head],
    head the first three letters of the sequence: the letters whose image
    can be a new vertex.  Each other letter leads to parent[i], to i by a
    _LOOP rule, or to the image of an earlier twin letter.  By the module's
    lemma only a vertex of at most 3 letters looks its images up.  edges
    holds the x0 and x1 edges of every expanded vertex, in vertex order and
    flat, as four ints: source, x0 target, source, x1 target; boundary the
    flat (source, label, target) triples of the edges of the boundary layer.
    vertices, the RationalPoint of each vertex, whose periods share one
    string per rotation, is a tuple built on first access and kept.
    path_word(vertex) is the shortest word u with
    act_word(seed, u) = vertices[vertex].  Outside grow and ball, one
    letter's image is cantor._step's on period.
    """

    def __init__(self, seed: RationalPoint, radius: int):
        self.seed = seed
        self.radius = radius
        self.period = period = seed.period
        self.ahead = period + (period * 3)[:3]  # ahead[r:r + 3] starts W rotated left by r, even for |W| < 3
        self.pre = [seed.preperiod]
        self.rot = [0]
        self.index = {0: {seed.preperiod: 0}}
        self.parent = [-1]
        self.slot = [-1]
        self.edges: list[int] = []
        self.boundary: list[int | str] = []
        self.starts = [0, 1]
        self.runs: list[tuple] = [(0, 1, True)]

    @property
    def depth(self) -> int:
        return len(self.starts) - 2

    @property
    def width(self) -> int:
        return self.starts[-1] - self.starts[-2]

    def grow(self, limit: int) -> bool:
        """Add the next layer; False, and no layer, when it would hold more than limit vertices in all.

        A block appends its tree's next generation from the template, or,
        past the bound, is expanded as a run of single vertices.  Each
        single vertex applies only the steps of its plan.  By the module's
        lemma no cycle passes through a vertex of 4 or more letters, so each
        of its steps gives a new vertex, with no lookup, indexed only when
        the vertex has exactly 4 letters.  A vertex of at most 3 letters
        looks all its images up, and indexes the new ones.  A step that
        lengthens to 4 or more letters from a run that may start blocks
        finds a hanging root, which starts one.  The cap is checked before
        each new single vertex and each generation; where it trips inside
        a generation, pre holds what a ball grown one vertex at a time
        would, limit vertices.  The images of a vertex are kept after its
        parent and itself, and the plan's where gives the places of x0 and
        x1 among them.
        """
        # cantor._step is inlined here and in ball's boundary pass: calling it per
        # image made 40 seeded radius-13 balls 31% and 12% slower (2-vCPU Xeon, Python 3.11)
        pre, rot, index, parent, slot, edges = self.pre, self.rot, self.index, self.parent, self.slot, self.edges
        period, ahead, m = self.period, self.ahead, len(self.period)
        count = len(pre)
        runs: list[tuple] = []  # the runs of the new layer
        for run in self.runs:
            if len(run) > 3:  # generation k of a hanging tree, from first on, that of k - 1 from before on
                generations, k, before, first, tail, r = run
                k += 1
                if k == len(generations):
                    _derive(generations)
                generation = generations[k]
                if generation is not None:
                    prefixes, parents, slots, quads, pick, _, _ = generation
                    n = len(prefixes)
                    if count + n > limit:  # the refused ball is dropped: hold as many vertices as one at a time would
                        pre += [p + tail for p in prefixes[: limit - count]]
                        return False
                    pre += [p + tail for p in prefixes]
                    rot += [r] * n
                    parent += map(add, parents, repeat(first))
                    slot += slots
                    edges += map(add, quads, pick((before, first, count)))
                    if n:
                        runs.append((generations, k, first, count, tail, r))
                    count += n
                    continue
                run = (first, first + len(generations[k - 1][0]), False)  # past the bound: vertex by vertex
            begin, end, roots = run
            single = count  # the first vertex of the open run of single vertices of the new layer
            for i in range(begin, end):
                v = pre[i]
                r = rot[i]
                own = index[r]
                nv = len(v)
                steps, where = _PLANS[slot[i]][v[:3] if nv > 2 else (v + ahead[r : r + 3])[:3]]
                if nv > 3:  # every rule rewrites inside the preperiod, and every image is new
                    first = count
                    for s, n, rhs in steps:
                        if count >= limit:
                            return False
                        u = rhs + v[n:]
                        if nv == 4:
                            own[u] = count
                        if roots and len(rhs) > n:  # a hanging root
                            if single < count:
                                runs.append((single, count, roots))
                            runs.append((_tree(s, u[:3]), 0, i, count, u[3:], r))
                            single = count + 1
                        count += 1
                        pre.append(u)
                        rot.append(r)
                        parent.append(i)
                        slot.append(s)
                    # a root's plan has at most 4 steps
                    images = (parent[i], i, first, first + 1, first + 2, first + 3)
                else:
                    images = [parent[i], i]
                    for s, n, rhs in steps:
                        if n < nv:  # the rule keeps the preperiod's last letter: canonical as it stands
                            u, q, at = rhs + v[n:], r, own
                        else:  # the rule reads n - nv letters of the period
                            u, q = _absorb(rhs, (r + n - nv) % m, period)
                            at = index.setdefault(q, {})
                        j = at.get(u)
                        if j is None:
                            if count >= limit:
                                return False
                            j = at[u] = count
                            if len(u) > 3:  # a hanging root, found by a step from 3 letters to 4
                                if single < count:
                                    runs.append((single, count, roots))
                                runs.append((_tree(s, u[:3]), 0, i, count, u[3:], q))
                                single = count + 1
                            count += 1
                            pre.append(u)
                            rot.append(q)
                            parent.append(i)
                            slot.append(s)
                        images.append(j)
                # x0 and x1 are the first and the third of BFS_LETTERS
                edges += (i, images[where[0]], i, images[where[2]])
            if single < count:
                runs.append((single, count, roots))
        self.starts.append(count)
        self.runs = runs
        return True

    def periods(self) -> dict[int, str]:
        """The period text W[r:] + W[:r] of every rotation r the ball holds, each built once."""
        w = self.period
        return {r: w[r:] + w[:r] for r in self.index}

    def path_word(self, vertex: int) -> Word:
        """The letters of the tree path from the root to the vertex."""
        parent, slot = self.parent, self.slot
        letters = []
        while vertex:
            letters.append(BFS_LETTERS[slot[vertex]])
            vertex = parent[vertex]
        return "".join(reversed(letters))

    @cached_property
    def vertices(self) -> tuple[RationalPoint, ...]:
        periods = self.periods()
        return tuple(map(RationalPoint._canonical, self.pre, map(periods.__getitem__, self.rot)))

    def __len__(self) -> int:
        return len(self.pre)


def ball(seed: RationalPoint, radius: int, vertex_cap: int = 100_000) -> SchreierBall:
    """Closure of the seed under the four letters, truncated at the radius.

    Edges are recorded for the positive letters only and only between
    discovered vertices, so every vertex strictly inside the ball carries
    exactly one outgoing x0 edge and one outgoing x1 edge.  The BFS tree
    gives those of the vertices it expanded, as four ints each in edges;
    only the boundary layer, the vertices at the full radius, has its images
    computed here, and its edges go to boundary as flat triples.  A block
    adds those of its generation from its template.  Each single vertex
    reads its plan once for both letters, and only an image that
    the plan gives as a step is looked up; the parent and, by a _LOOP rule,
    the vertex itself are not.  A vertex of 4 or more letters computes no
    image: by the module's lemma each step's image is new, so outside the
    ball, and its only edges inside it go to the parent and to itself.
    vertex_cap is at most MAX_BALL_VERTICES, checked before the ball grows.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if vertex_cap < 1:
        raise ValueError(f"vertex cap must be >= 1, got {vertex_cap}")
    if vertex_cap > MAX_BALL_VERTICES:
        raise ValueError(f"vertex cap must be <= {MAX_BALL_VERTICES}, got {vertex_cap}")
    b = SchreierBall(seed, radius)
    while b.depth < radius and b.width:
        if not b.grow(vertex_cap):
            raise BallCapacityError(vertex_cap, len(b), b.depth)
    pre, rot, index, parent, slot, edges = b.pre, b.rot, b.index, b.parent, b.slot, b.boundary
    period, ahead, m = b.period, b.ahead, len(b.period)
    for run in b.runs:
        if len(run) > 3:  # a generation of a hanging tree: its triples are in its template
            generations, k, before, first = run[:4]
            triples, pick = generations[k][5:]
            if triples:
                edges += map(add, triples, pick((before, first, "")))
            continue
        for i in range(run[0], run[1]):
            v = pre[i]
            r = rot[i]
            nv = len(v)
            steps, where = _PLANS[slot[i]][v[:3] if nv > 2 else (v + ahead[r : r + 3])[:3]]
            if nv > 3:  # each step's image is new, so outside the ball; a root's plan has at most 4 steps
                images = (parent[i], i, None, None, None, None)
            else:
                images = [parent[i], i]
                for _, n, rhs in steps:
                    u, q = (rhs + v[n:], r) if n < nv else _absorb(rhs, (r + n - nv) % m, period)
                    images.append(index[q].get(u) if q in index else None)
            j = images[where[0]]
            if j is not None:
                edges += (i, "x0", j)
            j = images[where[2]]
            if j is not None:
                edges += (i, "x1", j)
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


def _landing(point: RationalPoint) -> tuple[Word, int]:
    """A word moving a point other than the endpoints to 10(W[j:] + W[:j]), and j.

    Of the sequence s = v W W ..., s = 0^k 1 ... takes A^k (00 -> 0, then
    01 -> 10) and s = 1^k 0 ... takes a^(k-1) (11 -> 1), each leaving
    10 s[k+1:].  Then stabilizer_period_word of the rest of v, 0 -> B
    (100 -> 10) and 1 -> Ba (101 -> 110 -> 10), deletes it.  v ends unlike
    W, or W holds both letters, so the run ends within v + W, and no letter
    of v[k+1:] continues the period.  The word is empty exactly on a base point.
    """
    v, w = point.preperiod, point.period
    s = v + w
    k = s.find("1" if s[0] == "0" else "0")  # the first run, s[:k]
    run = "A" * k if s[0] == "0" else "a" * (k - 1)
    return run + stabilizer_period_word(v[k + 1 :]), max(k + 1 - len(v), 0) % len(w)


def _way_down(landing: tuple[Word, int], w: str, offset: int) -> tuple[Word, int]:
    """The way from a point other than the endpoints down to the period cycle of w, and the place where it ends.

    landing is the point's _landing, and its period is w[offset:] +
    w[:offset].  _landing's word lands on 10(u), u = w[j:] + w[:j], at place
    j + #1(w[:j]); when it ends in x0 and u ends in 1, it comes from
    110(u), the place before, and stops there.
    """
    word, j = landing
    j = (j + offset) % len(w)
    place = j + w.count("1", 0, j)
    if word[-1:] != "a" or w[j - 1] != "1":
        return word, place
    return word[:-1], (place or len(w) + w.count("1")) - 1


def _cycle_arc(w: str, p: int, q: int) -> Word:
    """The shorter word from place p to place q of the period cycle of w; on a tie, the first in BFS_LETTERS order.

    The cycle's word is stabilizer_period_word(w).  The arc ahead from p
    starts with its letter at p, a or B, and the arc back with the inverse
    of the letter before, A or b, so on a tie the arc ahead comes first
    exactly when it starts with a.
    """
    cycle = stabilizer_period_word(w)
    n = len(cycle)
    ahead = (q - p) % n
    if 2 * ahead < n or (2 * ahead == n and cycle[p] == "a"):
        return cycle[p:q] if p <= q else cycle[p:] + cycle[:q]
    return invert_word(cycle[q:p] if q <= p else cycle[q:] + cycle[:p])


def find_path(source: RationalPoint, target: RationalPoint, max_radius: int | None = None) -> Word:
    """Least shortest word moving source to target, letters ordered as in BFS_LETTERS: the module's closed form.

    The cycle is that of the source's period W; the target's period is W
    rotated by its one offset in W + W, since W is primitive.  Two ways
    down share exactly the vertices of their longest common suffix, since
    the way down from a vertex is always the same.  max_radius bounds the
    word's length (None: unbounded).  A pair in different orbits fails at once.
    """
    if max_radius is not None and max_radius < 0:
        raise ValueError(f"radius must be >= 0, got {max_radius}")
    if not same_orbit(source, target):
        raise PathNotFoundError(source, target, max_radius, ": the points lie in different orbits of F")
    if source == target:
        return ""
    w = source.period
    down, p = _way_down(_landing(source), w, 0)
    up, q = _way_down(_landing(target), w, (w + w).find(target.period))
    if p == q:
        k, most = 0, min(len(down), len(up))
        while k < most and down[-1 - k] == up[-1 - k]:
            k += 1
        word = down[: len(down) - k] + invert_word(up[: len(up) - k])
    else:
        word = down + _cycle_arc(w, p, q) + invert_word(up)
    if max_radius is not None and len(word) > max_radius:
        raise PathNotFoundError(source, target, max_radius, f" within radius {max_radius}")
    return word


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

    The addresses are walked as a trie grown at the end, on _step's
    (preperiod, rotation) pairs: the image of a label is its parent's,
    label[:-1], stepped through the 1 or 2 letters of its last address
    letter (through _fold, the walk took 1.9 times as long).  The parent of
    a kept label is kept, since a label that starts with the forbidden
    prefix makes every label below it start with it too.
    """
    root = canonicalize("10", period)
    w = root.period
    banned = forbidden_prefix(period)
    slots = {c: [_SLOT[letter] for letter in address_word(c)] for c in "AB"}

    def image(v: str, r: int, c: str) -> tuple[str, int]:
        for s in slots[c]:
            v, r = _step(v, r, w, s)
        return v, r

    level = {"": (root.preperiod, 0)}
    images = set(level.values())
    count = 1
    for _ in range(max_len):
        level = {
            label + c: image(*pair, c)
            for label, pair in level.items()
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


_CHUNK = 1024  # vertices or edge records per piece that write_json and write_dot write
_QUAD = ', [%d, "x0", %d], [%d, "x1", %d]'  # the two edges of an expanded vertex, from its quad
_TRIPLE = ', [%d, "%s", %d]'  # a boundary edge, from its triple
_QUADS = _QUAD * _CHUNK
_TRIPLES = _TRIPLE * _CHUNK
_DOT_QUAD = '  "%s" -> "%s" [label=x0];\n  "%s" -> "%s" [label=x1];\n'  # the two edges of an expanded vertex, as DOT


def _period_texts(b: SchreierBall) -> dict[int, str]:
    """The "(w)" text of each rotation that the ball holds, built once."""
    return {r: f"({w})" for r, w in b.periods().items()}


def _labels(b: SchreierBall) -> Iterator[str]:
    """The v(w) text of every vertex of the ball, in vertex order."""
    texts = _period_texts(b)
    return map(add, b.pre, map(texts.__getitem__, b.rot))


def write_dot(b: SchreierBall, write: Callable[[str], object]) -> None:
    """Write, by calls of write, deterministic DOT text: vertices in index order, edges in (source, label) order.

    The text goes out in pieces: the lines of _CHUNK vertices, then the
    edges of _CHUNK expanded vertices, formatted from their quads by one
    template, then those of _CHUNK boundary triples.  So no piece is longer
    than _CHUNK records, and the whole text is never held.  An edge's ends
    are named from pre and the rotation texts, one piece at a time, so no
    list of every vertex's name is held either.
    """
    pre, rot, texts = b.pre, b.rot, _period_texts(b)
    labels = _labels(b)
    write('digraph schreier {\n  "%s" [peripheries=2];\n' % next(labels))
    for _ in range(1, len(b), _CHUNK):
        write("".join([f'  "{name}";\n' for name in islice(labels, _CHUNK)]))
    for start in range(0, len(b.edges), 4 * _CHUNK):
        piece = b.edges[start : start + 4 * _CHUNK]
        names = map(add, map(pre.__getitem__, piece), map(texts.__getitem__, map(rot.__getitem__, piece)))
        write(_DOT_QUAD * (len(piece) // 4) % tuple(names))
    for start in range(0, len(b.boundary), 3 * _CHUNK):
        it = iter(b.boundary[start : start + 3 * _CHUNK])
        write("".join([f'  "{pre[src]}{texts[rot[src]]}" -> "{pre[dst]}{texts[rot[dst]]}" [label={label}];\n' for src, label, dst in zip(it, it, it)]))
    write("}\n")


def export_dot(b: SchreierBall) -> str:
    """The text that write_dot writes, joined."""
    pieces: list[str] = []
    write_dot(b, pieces.append)
    return "".join(pieces)


def write_json(b: SchreierBall, write: Callable[[str], object]) -> None:
    """Write, by calls of write, the text json.dumps gives for the seed, radius, vertex labels and edge triples.

    No label needs escaping: vertices are made of 0, 1, ( and ), and edges
    are labelled x0 or x1.  The text goes out in pieces: the labels of
    _CHUNK vertices joined, then the edges of _CHUNK expanded vertices,
    formatted from their quads by one template sliced to the piece's
    length, then the boundary triples likewise.  So no piece is longer than
    _CHUNK records, and the whole text is never held.
    """
    labels = _labels(b)
    write('{"seed": "%s", "radius": %d, "vertices": ["%s' % (b.seed, b.radius, '", "'.join(islice(labels, _CHUNK))))
    for _ in range(_CHUNK, len(b), _CHUNK):
        write('", "' + '", "'.join(islice(labels, _CHUNK)))
    write('"], "edges": [')
    separator = 2  # the length of the ", " that the first edge written drops
    for records, template, unit, width in ((b.edges, _QUADS, len(_QUAD), 4), (b.boundary, _TRIPLES, len(_TRIPLE), 3)):
        step = width * _CHUNK
        for start in range(0, len(records), step):
            piece = records[start : start + step]
            write(template[separator : len(piece) // width * unit] % tuple(piece))
            separator = 0
    write("]}")


def export_json(b: SchreierBall) -> str:
    """The text that write_json writes, joined."""
    pieces: list[str] = []
    write_json(b, pieces.append)
    return "".join(pieces)
