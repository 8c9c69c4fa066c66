"""Seeded request streams for the benchmark's four workloads.

A workload is an endless stream of CLI argument lists.  Request i of a
workload is drawn from its own generator seeded with (workload, seed, i), so
the same seed gives the same stream and no request depends on how many ran
before it.  Each workload cycles through a fixed schedule of slots.  A slot
fixes the kind of command and the band of its input sizes; where in the band
a request's sizes fall is set by a low-discrepancy sequence over the cycles,
and the seed picks only the contents.  Any run of whole cycles therefore
covers every band evenly, and the mix of request sizes is the same from seed
to seed, so the percentiles of one run compare with those of another.

Slot 0 of every schedule is the request a fresh interpreter runs to measure
set-up time.  Every request carries its own output check from `oracles`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable

import oracles

LETTERS = "aAbB"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, str], "str | None"]


# A slot makes a request from a content generator and a point (u1, u2) of
# the unit square that places the request's sizes within their bands.
Slot = Callable[[random.Random, tuple[float, float]], Request]

# Additive recurrence of the plastic number: consecutive points spread
# evenly over the unit square.
_R2 = (0.7548776662466927, 0.5698402909980532)
# Offsets the slots of one cycle from each other.
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Workload:
    """A named request stream; why each workload exists is recorded in BENCHMARK.json."""

    name: str
    schedule: tuple[Slot, ...]
    # Requests replayed by the traced run: a whole number of schedules, so
    # every slot is traced equally often.
    trace_batch: int

    def request(self, seed: int, index: int) -> Request:
        cycle, slot = divmod(index, len(self.schedule))
        rng = random.Random(f"{self.name}/{seed}/{index}")
        offset = 0.5 + slot * _GOLDEN
        u = ((offset + cycle * _R2[0]) % 1.0, (offset + cycle * _R2[1]) % 1.0)
        return self.schedule[slot](rng, u)


def pick(u: float, lo: int, hi: int) -> int:
    """The integer at position u in [0, 1) of the range lo..hi."""
    return lo + int(u * (hi - lo + 1))


def random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(length))


def random_bits(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def random_point(rng: random.Random, preperiod: int, period: int) -> str:
    """A v(w) point other than the two endpoints, which every element fixes.

    With no preperiod and a one-letter period only the endpoints exist, so
    that shape gets a preperiod of one letter.
    """
    preperiod = max(preperiod, 2 - period)
    while True:
        v, w = random_bits(rng, preperiod), random_bits(rng, period)
        if len(set(v + w)) > 1:
            return f"{v}({w})"


# --- words: eval of uniform and of structured words -------------------------


def _eval(rng: random.Random, word: str) -> Request:
    probes = []
    for _ in range(3):
        q = rng.randrange(3, 100, 2)
        probes.append(Fraction(rng.randrange(1, q), q))
    return Request(("eval", word), partial(oracles.check_eval, word, probes))


def uniform_eval(lo: int, hi: int) -> Slot:
    """A uniform a/A/b/B word of lo..hi letters."""
    return lambda rng, u: _eval(rng, random_word(rng, pick(u[0], lo, hi)))


def power_eval(lo: int, hi: int) -> Slot:
    """(xy)^k for a two-letter word xy mixing both generators: breakpoints grow with k."""

    def make(rng: random.Random, u: tuple[float, float]) -> Request:
        base = rng.choice("aA") + rng.choice("bB")
        if rng.random() < 0.5:
            base = base[::-1]
        return _eval(rng, base * pick(u[0], lo, hi))

    return make


def commutator_eval(lo: int, hi: int) -> Slot:
    """[u, v] for random u, v of lo..hi letters each."""

    def make(rng: random.Random, u: tuple[float, float]) -> Request:
        n = pick(u[0], lo, hi)
        x, y = random_word(rng, n), random_word(rng, n)
        return _eval(rng, x + y + oracles.invert(x) + oracles.invert(y))

    return make


# --- orbits: Schreier balls and shortest paths -------------------------------


def orbit_point(rng: random.Random, u: tuple[float, float]) -> str:
    """A point with a preperiod of 0..8 letters and a period of 1..6."""
    return random_point(rng, pick(u[0], 0, 8), pick(u[1], 1, 6))


def graph(lo: int, hi: int) -> Slot:
    """A ball of radius lo..hi, as JSON."""

    def make(rng: random.Random, u: tuple[float, float]) -> Request:
        point, radius = orbit_point(rng, u), pick((u[0] + u[1]) % 1.0, lo, hi)
        argv = ("graph", point, "--radius", str(radius), "--format", "json")
        return Request(argv, partial(oracles.check_graph, point, radius))

    return make


def path(rng: random.Random, u: tuple[float, float]) -> Request:
    """A path to the image of a point under a random word of 4..10 letters."""
    source = orbit_point(rng, u)
    word = random_word(rng, pick((u[0] + u[1]) % 1.0, 4, 10))
    v, w = oracles.act(oracles.parse_seq(source), word)
    target = f"{v}({w})"
    return Request(("path", source, target), partial(oracles.check_path, source, target, len(word)))


# --- long-period: act and canon on points with periods of 500..16000 --------

# Per stratum: least and greatest period length, then least and greatest
# length of the act word.  Longer periods get shorter words, which keeps the
# slowest act requests to a few tenths of a second.
PERIOD_STRATA = (
    (500, 1000, 160, 200),
    (1000, 2000, 120, 159),
    (2000, 4000, 80, 119),
    (4000, 8000, 60, 79),
    (8000, 16000, 50, 59),
)


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def period_of(q: int) -> int:
    """Period length of the binary expansion of p/q for odd q > 1 and gcd(p, q) = 1.

    It is the multiplicative order of 2 modulo q, found by dividing Euler's
    totient by each of its prime factors while 2 stays a root of unity.
    """
    order = 1
    for p, k in _factorize(q).items():
        order *= p ** (k - 1) * (p - 1)
    for p in _factorize(order):
        while order % p == 0 and pow(2, order // p, q) == 1:
            order //= p
    return order


def fraction_with_period(rng: random.Random, period: int) -> tuple[str, int]:
    """A fraction p/q in lowest terms whose binary period is within 5% of the given length."""
    while True:
        q = rng.randrange((period + 1) | 1, 2 * period + 3, 2)
        found = period_of(q)
        if abs(found - period) * 20 <= period:
            while True:
                p = rng.randrange(1, q)
                if gcd(p, q) == 1:
                    return f"{p}/{q}", found


def _long_period(stratum: int, u: float) -> int:
    lo, hi = PERIOD_STRATA[stratum][:2]
    return round(lo * (hi / lo) ** u)


def act_long(rng: random.Random, u: tuple[float, float]) -> Request:
    """act on a period from any stratum; u[0] places both the stratum and the period in it."""
    stratum, within = divmod(u[0] * len(PERIOD_STRATA), 1.0)
    min_letters, max_letters = PERIOD_STRATA[int(stratum)][2:]
    point, period = fraction_with_period(rng, _long_period(int(stratum), within))
    word = random_word(rng, pick(u[1], min_letters, max_letters))
    return Request(("act", point, word), partial(oracles.check_act, point, word, period))


def canon_long(stratum: int) -> Slot:
    def make(rng: random.Random, u: tuple[float, float]) -> Request:
        point, period = fraction_with_period(rng, _long_period(stratum, u[0]))
        return Request(("canon", point), partial(oracles.check_canon, point, period))

    return make


# --- stabilizers: gens, verify and selftest ----------------------------------

PointMaker = Callable[[random.Random, tuple[float, float]], str]


def fraction_point(rng: random.Random, u: tuple[float, float]) -> str:
    """p/q with q = 3..60."""
    q = pick(u[0], 3, 60)
    return f"{rng.randrange(1, q)}/{q}"


def vw_point(rng: random.Random, u: tuple[float, float]) -> str:
    """v(w) with a preperiod of 0..10 letters and a period of 1..6."""
    return random_point(rng, pick(u[0], 0, 10), pick(u[1], 1, 6))


def base_point(rng: random.Random, u: tuple[float, float]) -> str:
    """10(w) for a primitive period w of three letters: no conjugator search."""
    return f"10({rng.choice(('001', '010', '011', '100', '101', '110'))})"


def gens(make_point: PointMaker) -> Slot:
    def make(rng: random.Random, u: tuple[float, float]) -> Request:
        point = make_point(rng, u)
        return Request(("gens", point), partial(oracles.check_gens, point))

    return make


def verify(make_point: PointMaker) -> Slot:
    def make(rng: random.Random, u: tuple[float, float]) -> Request:
        point = make_point(rng, u)
        return Request(("verify", point), partial(oracles.check_verify, point))

    return make


def selftest(rng: random.Random, u: tuple[float, float]) -> Request:
    """selftest with a depth of 2..8 and labels of 1..5 letters."""
    argv = ("selftest", "--depth", str(pick(u[0], 2, 8)), "--label-len", str(pick(u[1], 1, 5)))
    return Request(argv, partial(oracles.check_report, "selftest"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "words",
            (
                uniform_eval(40, 50),
                power_eval(10, 20),
                uniform_eval(20, 39),
                commutator_eval(10, 14),
                uniform_eval(80, 99),
                power_eval(30, 40),
                uniform_eval(60, 79),
                commutator_eval(5, 9),
                uniform_eval(100, 120),
                commutator_eval(15, 19),
            ),
            trace_batch=20,
        ),
        Workload(
            "orbits",
            (
                path,
                graph(8, 12),
                path,
                path,
                graph(13, 13),
                path,
                graph(8, 12),
                path,
                path,
                graph(13, 13),
            ),
            trace_batch=40,
        ),
        Workload(
            "long-period",
            (
                canon_long(2),
                canon_long(0),
                canon_long(3),
                act_long,
                canon_long(1),
                canon_long(4),
                canon_long(2),
                act_long,
                canon_long(0),
                canon_long(3),
                canon_long(1),
                canon_long(4),
                act_long,
                canon_long(2),
                canon_long(0),
                canon_long(3),
                canon_long(1),
                canon_long(4),
                act_long,
                canon_long(2),
            ),
            trace_batch=20,
        ),
        Workload(
            "stabilizers",
            (
                verify(base_point),
                gens(fraction_point),
                gens(vw_point),
                gens(fraction_point),
                gens(vw_point),
                gens(fraction_point),
                verify(vw_point),
                gens(vw_point),
                gens(fraction_point),
                gens(vw_point),
                gens(fraction_point),
                gens(vw_point),
                selftest,
                gens(fraction_point),
                gens(vw_point),
                gens(fraction_point),
                gens(vw_point),
                verify(fraction_point),
                gens(fraction_point),
                gens(vw_point),
            ),
            trace_batch=20,
        ),
    )
}
