"""Acceptance suite: one test per criterion, all equalities exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion; every assertion is integer arithmetic with zero tolerance.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from sampling import random_point, random_word
from thompsonf.cantor import act_word, canonicalize, value_to_point
from thompsonf.plmap import flip, identity, word_to_plmap, xn, yn
from thompsonf.rng import SplitMix64
from thompsonf.schreier import check_addresses
from thompsonf.stabgen import (
    check_reduction,
    check_stabilizer_relators,
    check_twin_points,
    stabilizer_generators,
    verify_generators,
)
from thompsonf.words import commutator, invert_word, parse_word, xn_word, yn_word

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def test_01_presentation_relations():
    with criterion(1, "defining relators and index-shift relations up to 8"):
        start = time.perf_counter()
        ident = identity()
        assert word_to_plmap(commutator(parse_word("Ba"), parse_word("abA"))) == ident
        assert word_to_plmap(commutator(parse_word("Ba"), parse_word("aabAA"))) == ident
        maps = {k: (word_to_plmap(xn_word(0)) if k == 0 else xn(k)) for k in range(10)}
        for k in range(9):
            for n in range(k + 1, 9):
                assert maps[k] * maps[n] * maps[k].inverse() == maps[n + 1]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"


def test_02_yn_closed_form_equals_its_word():
    with criterion(2, "closed form of y_n equals x0^-(n+1) x1 x0^n for n <= 8"):
        for n in range(1, 9):
            assert yn(n) == word_to_plmap(yn_word(n))


def test_03_flip_automorphism_suite():
    with criterion(3, "flip is an involutive homomorphism exchanging x_n and y_n"):
        rng = SplitMix64(2024)
        for _ in range(200):
            f = word_to_plmap(random_word(rng, 20))
            g = word_to_plmap(random_word(rng, 20))
            assert flip(flip(f)) == f
            assert flip(f * g) == flip(f) * flip(g)
        for n in range(1, 9):
            assert flip(xn(n)) == yn(n)


def test_04_commutation_and_y_relations():
    with criterion(4, "[x_i, y_j] == 1 for i, j <= 6 and y-index shifts up to 8"):
        xs = {i: xn(i) for i in range(1, 7)}
        ys = {j: yn(j) for j in range(1, 10)}
        for i in range(1, 7):
            for j in range(1, 7):
                assert xs[i] * ys[j] == ys[j] * xs[i]
        for k in range(1, 9):
            for n in range(k + 1, 9):
                assert ys[k] * ys[n] * ys[k].inverse() == ys[n + 1]


def test_05_sequence_action_matches_map_evaluation():
    with criterion(5, "500 random (point, word) pairs agree under both actions"):
        start = time.perf_counter()
        rng = SplitMix64(517)
        for _ in range(500):
            point = random_point(rng, 8, 6)
            word = random_word(rng, 20)
            lhs = act_word(point, word).value()
            rhs = word_to_plmap(word).evaluate(point.value())
            assert lhs == rhs
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"


def test_06_index_reduction_identities():
    with criterion(6, "address conjugation only shifts generator indices (|W| <= 5, n <= 4)"):
        report = check_reduction(5, 4)
        assert report.passed, report.failures()


def test_07_base_point_generating_sets():
    with criterion(7, "five generators fix 10w^inf under both oracles, plus 100 products"):
        for w in ("0", "1", "01", "10", "0100", "011", "0011"):
            point = canonicalize("10", w)
            gens = stabilizer_generators(point)
            assert len(gens.generators) == 5
            assert gens.conjugator == ""
            value = point.value()
            for word in gens.generators:
                assert act_word(point, word) == point
                assert word_to_plmap(word).evaluate(value) == value
            report = verify_generators(gens, samples=100, seed=7)
            assert report.passed, (w, report.failures())


def test_08_conjugated_generating_sets():
    with criterion(8, "conjugator sends the point to a base point and generators fix it"):
        points = [
            value_to_point(F(4, 15)),
            canonicalize("11", "01"),
            canonicalize("1", "0011"),
            value_to_point(F(5, 6)),
        ]
        for point in points:
            gens = stabilizer_generators(point)
            assert act_word(point, gens.conjugator) == canonicalize("10", gens.period)
            value = point.value()
            for word in gens.generators:
                assert act_word(point, word) == point
                assert word_to_plmap(word).evaluate(value) == value


def test_09_product_structure_over_one_half():
    with criterion(9, "the 1/2 stabilizer behaves as a direct product of two copies"):
        gens = stabilizer_generators(canonicalize("1", "0"))
        assert verify_generators(gens, samples=100, seed=9).passed
        x1m, x2m = xn(1), xn(2)
        assert xn(3) == x1m * x2m * x1m.inverse()
        rng = SplitMix64(1871)
        x_pool = (xn_word(1), xn_word(2), invert_word(xn_word(1)), invert_word(xn_word(2)))
        y_pool = (yn_word(1), yn_word(2), invert_word(yn_word(1)), invert_word(yn_word(2)))
        for _ in range(50):
            u = ""
            for _ in range(1 + rng.below(6)):
                u += rng.choice(x_pool)
            v = ""
            for _ in range(1 + rng.below(6)):
                v += rng.choice(y_pool)
            fu, fv = word_to_plmap(u), word_to_plmap(v)
            assert fu * fv == fv * fu


def test_10_twin_sequences_share_stabilizers():
    with criterion(10, "stabilizers of v10^inf and v01^inf fix each other's point"):
        for prefix in ("", "1", "01"):
            report = check_twin_points(prefix)
            assert report.passed, (prefix, report.failures())


def test_11_stabilizer_relators():
    with criterion(11, "the eight presenting relators hold as exact map identities"):
        report = check_stabilizer_relators()
        assert len(report.checks) == 8
        assert report.passed, report.failures()


def test_12_address_uniqueness():
    with criterion(12, "A/B addresses up to length 5 are unique for the six periods"):
        for period in ("0", "1", "01", "10", "0100", "011"):
            report = check_addresses(period, 5)
            assert report.passed, (period, report.failures())


def test_13_graph_output_reproducibility():
    with criterion(13, "graph 1/2 --radius 4 is byte-identical and matches the fixture"):
        cmd = [sys.executable, "-m", "thompsonf.cli", "graph", "1/2", "--radius", "4", "--format", "dot"]
        # the child process runs this checkout's package, as the test process does
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        assert first.stdout.decode() == (FIXTURES / "ball_half_r4.dot").read_text()
