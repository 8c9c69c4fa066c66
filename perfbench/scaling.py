"""Layer timings at fixed input sizes, run untraced after the traced batch.

Each point is the median over a few seeded inputs of the same size, so a
layer's growth with word length, period length, radius and preperiod shows
as a short series that a later change can be compared against.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from thompsonf import cantor, plmap, schreier, stabgen, words
from workloads import random_bits, random_point, random_word


def _timed(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def _point_with_period(rng: random.Random, period_len: int) -> cantor.RationalPoint:
    while True:
        point = cantor.canonicalize(random_bits(rng, 8), random_bits(rng, period_len))
        if len(point.period) == period_len:
            return point


def scaling_metrics(seed: int) -> dict[str, float]:
    def rng(*key: object) -> random.Random:
        return random.Random("/".join(map(str, ("scaling", seed, *key))))

    metrics: dict[str, float] = {}
    for n, samples in ((50, 5), (200, 3)):
        per_letter = []
        for k in range(samples):
            word = words.parse_word(random_word(rng("word", n, k), n))
            per_letter.append(_timed(plmap.word_to_plmap, word) / n)
        metrics[f"scaling.word_to_plmap.ms_per_letter.n{n}"] = statistics.median(per_letter) * 1e3

    for period_len, letters in ((16, 200), (1000, 60), (16000, 12)):
        r = rng("act", period_len)
        point = _point_with_period(r, period_len)
        times = []
        for letter in words.parse_word(random_word(r, letters)):
            t0 = perf_counter()
            point = cantor.act_letter(point, letter)
            times.append(perf_counter() - t0)
        metrics[f"scaling.act_letter.us.p{period_len}"] = statistics.median(times) * 1e6

    for radius in (8, 12):
        times = []
        for k in range(3):
            point = cantor.parse_point(random_point(rng("ball", radius, k), 8, 6))
            times.append(_timed(schreier.ball, point, radius))
        metrics[f"scaling.ball.ms.r{radius}"] = statistics.median(times) * 1e3

    for preperiod, samples in ((4, 5), (13, 3)):
        times = []
        for k in range(samples):
            r = rng("gens", preperiod, k)
            w = r.choice(("001", "010", "011", "100", "101", "110"))
            # The preperiod's last letter differs from the period's, so the
            # canonical form keeps all of its letters.
            v = random_bits(r, preperiod - 1) + ("1" if w[-1] == "0" else "0")
            times.append(_timed(stabgen.stabilizer_generators, cantor.canonicalize(v, w)))
        metrics[f"scaling.gens.ms.pre{preperiod}"] = statistics.median(times) * 1e3
    return metrics
