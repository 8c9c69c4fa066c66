import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from thompsonf import cantor, cli, plmap, schreier, stabgen
from thompsonf.cantor import MAX_PERIOD, act_word, parse_point
from thompsonf.plmap import PLMap
from thompsonf.report import Check, Report
from thompsonf.rng import SplitMix64
from thompsonf.words import commutator

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canon_prints_canonical_form_and_value(capsys):
    code, out, _ = run(capsys, "canon", "10(0100)")
    assert code == 0
    assert out == "1(0010) = 17/30\n"


def test_canon_accepts_fractions(capsys):
    code, out, _ = run(capsys, "canon", "4/15")
    assert code == 0
    assert out == "(0100) = 4/15\n"


def test_act_applies_a_word(capsys):
    code, out, _ = run(capsys, "act", "10(0100)", "a")
    assert code == 0
    assert out == "01(0100)\n"


def test_eval_prints_breakpoints(capsys):
    code, out, _ = run(capsys, "eval", "abA")
    assert code == 0
    assert out.splitlines() == ["0 -> 0", "3/4 -> 3/4", "7/8 -> 13/16", "15/16 -> 7/8", "1 -> 1"]


# sha256 of the stdout of every eval on _eval_corpus(), in order, as printed
# when eval still built a Dyadic per coordinate and multiplied the word as a
# product tree over the sixteen two-letter maps
EVAL_CORPUS_SHA256 = "b991ff3b4992069b510b2cad5a601ada1f9d04e2b3c7f5ac0cf76f2887230a19"


def _eval_corpus() -> list[str]:
    """304 words: the uniform, power and commutator shapes of the words benchmark, and edge cases."""
    rng = SplitMix64(19)

    def word(lo: int, hi: int) -> str:
        return "".join([rng.choice("aAbB") for _ in range(lo + rng.below(hi - lo + 1))])

    words = ["1", "aA", "abBA", "ab" * 2048]
    for _ in range(100):
        words.append(word(20, 120))
        base = rng.choice("aA") + rng.choice("bB")
        words.append((base[::-1] if rng.below(2) else base) * (10 + rng.below(31)))
        n = 5 + rng.below(15)
        words.append(commutator(word(n, n), word(n, n)))
    return words


def test_eval_output_matches_the_pinned_digest(capsys):
    digest = hashlib.sha256()
    for word in _eval_corpus():
        code, out, err = run(capsys, "eval", word)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == EVAL_CORPUS_SHA256


def _numerator_bits(word: str) -> tuple[int, int]:
    """The breakpoints of the word's map and the bit lengths of their numerators over 2^e and 2^f, summed."""
    m = plmap.word_to_plmap(word)
    corners = plmap._corners(m._d, m._r, max(m._d), max(m._r))
    return len(corners), sum(t.bit_length() + y.bit_length() for t, y in corners)


def _text_refusal(word: str) -> str:
    count, bits = _numerator_bits(word)
    message = f"the {count} breakpoints of the map have numerators of {bits} bits in all, more than {plmap.MAX_TEXT_BITS}"
    return f"error: {message} (capacity exceeded)\n"


def test_eval_refuses_a_map_past_the_text_bound_before_writing_a_digit(capsys, monkeypatch):
    # (ab)^8192 has 16,388 breakpoints and 335,667,211 numerator bits and prints 101 MB in about 5 s
    assert _numerator_bits("ab" * 8192) == (16388, 335_667_211) and 335_667_211 <= plmap.MAX_TEXT_BITS
    assert _numerator_bits("ab" * 8942)[1] <= plmap.MAX_TEXT_BITS < _numerator_bits("ab" * 8943)[1]
    for k in (8943, 16384):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "ab" * k)
        seconds = time.perf_counter() - start
        assert (code, out, err) == (1, "", _text_refusal("ab" * k))
        assert seconds < 2, (k, seconds)  # 0.07 and 0.22 s on a 2-vCPU Xeon with Python 3.11
    # the bound is inclusive: a map with exactly MAX_TEXT_BITS bits prints
    monkeypatch.setattr(plmap, "MAX_TEXT_BITS", _numerator_bits("ab" * 64)[1])
    code, out, err = run(capsys, "eval", "ab" * 64)
    assert (code, err) == (0, "") and len(out.splitlines()) == 132
    assert run(capsys, "eval", "ab" * 65) == (1, "", _text_refusal("ab" * 65))


# sha256 of the exit code, stdout and stderr of every invocation of
# _sequence_corpus(), in order, as printed when act_letter, act_word's words
# of one or two letters, find_path's descent and check_addresses each had a
# letter step of their own
SEQUENCE_CORPUS_SHA256 = "0f34fdc0187bee6cf2124b379cb550708f069e21af4e43bca18ba1f29d4cb3b6"


def _bits(rng: SplitMix64, n: int) -> str:
    return "".join("01"[rng.below(2)] for _ in range(n))


def _sequence_corpus() -> list[list[str]]:
    """About 300 invocations of the commands on the sequence action: act, path, gens, verify and selftest."""
    rng = SplitMix64(23)

    def word(n: int, letters: str = "aAbB") -> str:
        return "".join([rng.choice(letters) for _ in range(n)])

    def point(max_pre: int, lo: int, hi: int) -> str:
        return f"{_bits(rng, rng.below(max_pre + 1))}({_bits(rng, lo + rng.below(hi - lo + 1))})"

    calls = []
    for k in range(160):
        n = (1, 2, 3, 50 + rng.below(151))[k % 4]
        if k % 8 < 4:
            calls.append(["act", point(8, 1, 6), word(n)])
        elif k % 16 < 12:
            calls.append(["act", point(8, 1000, 16000), word(n)])
        else:  # x1 and x1^-1 fix a sequence that starts with 0 by a loop rule
            calls.append(["act", "0" + point(3, 1000, 16000), word(n, "bB")])
    for _ in range(40):
        source = point(6, 1, 5)
        calls.append(["path", source, str(act_word(parse_point(source), word(rng.below(9))))])
    for k in range(60):
        source = point(14, 1, 5) if k % 3 else point(2, 20, 200)
        calls.append(["gens", source] + (["--format", "json"] if k % 2 else []))
    for k in range(28):
        source = ("(0)", "(1)")[k] if k < 2 else point(10, 1, 6)
        calls.append(["verify", source, "--samples", "8", "--seed", str(k)])
    calls += [["selftest", "--depth", "3", "--label-len", str(n)] for n in range(1, 13)]
    return calls


def test_sequence_commands_match_the_pinned_digest(capsys):
    digest = hashlib.sha256()
    for argv in _sequence_corpus():
        code, out, err = run(capsys, *argv)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == SEQUENCE_CORPUS_SHA256


# sha256 of the exit code, stdout and stderr of gens on every point of
# _long_preperiod_points(), in order, as printed when the conjugator shortened
# a preperiod greedily by the least word of at most three letters, read from a
# table of 5-letter heads; a search from such a point exceeds its vertex cap,
# so only a pinned digest compares the conjugators there
LONG_PREPERIOD_SHA256 = "024a6315a273bdd2a9a02d45482447c68f9bb3d7b60a2229353d7a1bca2bd2f6"


def _long_preperiod_points() -> list[str]:
    """200 seeded points with preperiods of 25 to 5000 letters and periods of 1 to 64."""
    rng = SplitMix64(24)
    return [f"{_bits(rng, 25 + rng.below(4976))}({_bits(rng, 1 + rng.below(64))})" for _ in range(200)]


def test_gens_on_long_preperiods_matches_the_pinned_digest(capsys):
    digest = hashlib.sha256()
    for point in _long_preperiod_points():
        code, out, err = run(capsys, "gens", point)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == LONG_PREPERIOD_SHA256


def _numeral(n: int) -> str:
    """The decimal numeral of n, past the interpreter's int-to-str digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _outcome(capsys, call, argv: list[str]) -> tuple[object, str, str]:
    """What call returns for argv, or the status it exits with when argparse ends it, and what it prints."""
    try:
        result = call(list(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


# sha256 of the exit code, stdout and stderr of every invocation of
# _values_corpus(), in order, as printed when main ran both of argparse's
# passes on the full parser for every request, but for the path from (0011)
# to 0110...0110(0011): it printed its 50-letter word once the closed form on
# the period cycle replaced a search that gave up at 500,000 vertices
VALUES_CORPUS_SHA256 = "a98c551d09410355ac4f10b4b485ad90a0e7715325a5ccc6e5ba0cdf9a914e44"


def _values_corpus() -> list[list[str]]:
    """About 300 invocations: canon and value, graph as DOT and as JSON at radius 1-10, and every usage and capacity error."""
    rng = SplitMix64(29)

    def point(max_pre: int, lo: int, hi: int) -> str:
        return f"{_bits(rng, rng.below(max_pre + 1))}({_bits(rng, lo + rng.below(hi - lo + 1))})"

    calls = []
    for k in range(80):  # short points, some not canonical: a period that is a proper power, or a 1-tail
        preperiod, period = _bits(rng, rng.below(9)), _bits(rng, 1 + rng.below(6))
        calls.append([("canon", "value")[k % 2], f"{preperiod}({(period, period, period * 2, '1')[k % 4]})"])
    for k in range(20):
        calls.append([("canon", "value")[k % 2], point(2000, 500, 3500)])
    for k in range(80):  # fractions, dyadic ones and ones not in lowest terms among them
        den = (1 + rng.below(64), 1 + rng.below(5000), (1 + 2 * rng.below(50)) << rng.below(60))[k % 3]
        scale = 1 + rng.below(3) if k % 5 == 0 else 1
        calls.append([("canon", "value")[k % 2], f"{rng.below(den + 1) * scale}/{den * scale}"])
    for radius in range(1, 11):
        for source in ("(0)", "1/2", point(6, 1, 4), point(3, 1, 8)):
            for fmt in ("dot", "json"):
                calls.append(["graph", source, "--radius", str(radius), "--format", fmt])
    # usage errors, exit 2: argparse's first, then the program's own.  An invalid
    # choice is left out: how argparse quotes the choices differs between
    # patch releases of one Python version (3.13.0 and 3.13.13)
    calls += [
        [],
        ["canon"],
        ["act", "1/3"],
        ["path", "1/3"],
        ["canon", "1/3", "extra"],
        ["graph", "1/3", "--radius", "x"],
        ["gens", "1/3", "--radius", "5"],
        ["verify", "1/3", "--samples", "many"],
        ["selftest", "--depth", "2.5"],
        ["selftest", "4"],
        ["canon", "x/3"],
        ["value", "1/y"],
        ["canon", "1/0"],
        ["value", "4/3"],
        ["canon", "0101"],
        ["value", "012(01)"],
        ["canon", "(01)1"],
        ["canon", "(0)(1)"],
        ["value", "1()"],
        ["canon", "(012)"],
        ["act", "1/3", "abX"],
        ["eval", "ab c"],
        ["graph", "1/3", "--radius", "-1"],
        ["graph", "1/3", "--cap", "0"],
        ["graph", "1/3", "--cap", "1000001"],
        ["path", "1/3", "2/3", "--radius", "-1"],
        ["selftest", "--depth", "1"],
        ["selftest", "--depth", "65"],
        ["selftest", "--label-len", "0"],
        ["selftest", "--label-len", "13"],
        ["verify", "1/3", "--samples", "0"],
        ["verify", "1/3", "--samples", "100001"],
        ["path", "-", "-"],
        ["act", "-", "-"],
    ]
    calls += [  # capacity and radius errors, exit 1, and a path that a vertex-capped search gave up on, exit 0
        ["canon", "1" * 631307 + "/3"],
        ["value", "1/" + "3" * 631307],
        ["canon", "1/1048589"],
        ["value", "1/" + _numeral(1 << MAX_PERIOD + 1)],
        ["act", "0" * (MAX_PERIOD + 1) + "(1)", "a"],
        ["canon", "(" + "0" * MAX_PERIOD + "1)"],
        ["graph", "1/2", "--radius", "6", "--cap", "10"],
        ["path", "(0011)", "01101001100101101001011010010110(0011)", "--radius", "99"],
        ["path", "(01)", "101010101010101010101010(01)"],
        ["path", "1/3", "1/5"],
    ]
    return calls


def test_values_graphs_and_errors_match_the_pinned_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal's width
    digest = hashlib.sha256()
    for argv in _values_corpus():
        code, out, err = _outcome(capsys, cli.main, argv)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == VALUES_CORPUS_SHA256


# sha256 of the exit code, stdout and stderr of every invocation of
# _radius_corpus(), in order, as printed when the search looked up the image
# of every letter but the one back to the parent and the _LOOP rules
RADIUS_CORPUS_SHA256 = "8000883d1854599e24c9fc1706c9d899bdf197690a05e5d6d60a2709bdd67823"


def _radius_corpus() -> list[list[str]]:
    """graph as DOT and JSON at radius 11-13, path on seeded pairs and capped radius-13 balls: the orbits workload's sizes."""
    rng = SplitMix64(31)

    def point() -> str:  # a preperiod of 0-8 letters and a period of 1-6, as the orbits workload draws them
        return f"{_bits(rng, rng.below(9))}({_bits(rng, 1 + rng.below(6))})"

    sources = ["1/2", "1/3", "(0)", "(01)"] + [point() for _ in range(20)]
    calls = [
        ["graph", source, "--radius", str(radius), "--format", fmt]
        for source in sources
        for radius in (11, 12, 13)
        for fmt in ("dot", "json")
    ]
    for _ in range(100):
        source = point()
        word = "".join([rng.choice("aAbB") for _ in range(4 + rng.below(7))])
        calls.append(["path", source, str(act_word(parse_point(source), word))])
    calls += [
        ["graph", "0110(011)", "--radius", "13", "--cap", "3000"],
        ["graph", "1/2", "--radius", "13", "--cap", "700"],
    ]
    return calls


def test_graphs_and_paths_at_the_benchmark_radius_match_the_pinned_digest(capsys):
    digest = hashlib.sha256()
    for argv in _radius_corpus():
        code, out, err = run(capsys, *argv)
        digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == RADIUS_CORPUS_SHA256


def test_value_prints_exact_fraction(capsys):
    code, out, _ = run(capsys, "value", "1(0)")
    assert code == 0
    assert out == "1/2\n"


def _decimal(text: str) -> int:
    """The value of a decimal numeral of any length, read in chunks short
    enough for the interpreter's int-from-str digit limit."""
    n = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def test_long_period_values_print_in_full(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    # 1(0^14999 1) = (1 0^14999)^inf = 2^14999 / (2^15000 - 1): 4516 decimal digits
    period = "0" * 14999 + "1"
    expected = Fraction(1 << 14999, (1 << 15000) - 1)
    code, out, _ = run(capsys, "canon", f"1({period})")
    assert code == 0
    shown, sep, value = out.rstrip("\n").partition(" = ")
    assert (shown, sep) == (f"(1{'0' * 14999})", " = ")
    num, den = value.split("/")
    assert (_decimal(num), _decimal(den)) == (expected.numerator, expected.denominator)
    code, out, _ = run(capsys, "value", f"1({period})")
    assert code == 0
    assert out == f"{value}\n"
    assert get_limit() == limit  # the digit limit is restored after printing


def test_long_values_read_back_in(capsys):
    # 9033 characters, more than the int-from-str limit set here; main lifts it and puts it back
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    limit = get_limit()
    set_limit(4321)
    try:
        code, value, _ = run(capsys, "value", "1(" + "0" * 14999 + "1)")
        assert code == 0 and len(value) == 9034
        code, out, err = run(capsys, "canon", value.strip())
        assert (code, err) == (0, "")
        assert out == f"(1{'0' * 14999}) = {value}"
        code, out, _ = run(capsys, "value", value.strip())
        assert (code, out) == (0, value)
        assert run(capsys, "canon", "7/3")[0] == 2
        assert get_limit() == (None if limit is None else 4321)  # restored after every command, failed ones too
    finally:
        set_limit(limit)


def test_fractions_longer_than_the_bound_exit_one_before_parsing(capsys, monkeypatch):
    # 2^(2 MAX_PERIOD) has 631306 digits; int() would take seconds on one more
    for argv in (["canon", "1" * 631307 + "/3"], ["value", "1/" + "3" * 631307]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (1, "")
        assert "of 631307 digits is longer than 631306 (capacity exceeded)" in err
    # with smaller bounds: the point whose value has the largest denominator reads back in,
    # and one more digit than 2^(2 MAX_PERIOD) has is refused
    for bound in (2, 3, 5, 16, 33):
        monkeypatch.setattr(cantor, "MAX_PERIOD", bound)
        digits = len(str(1 << 2 * bound))
        point = "1" + "0" * (bound - 1) + "(" + "0" * (bound - 1) + "1)"
        code, value, _ = run(capsys, "value", point)
        assert code == 0
        assert len(value.strip().split("/")[1]) <= digits
        assert run(capsys, "canon", value.strip())[:2] == (0, f"{point} = {value}")
        assert run(capsys, "canon", "0" * (digits - 1) + "1/1")[:2] == (0, "(1) = 1\n")
        assert run(capsys, "canon", "0" * digits + "1/1")[0] == 1
        assert run(capsys, "canon", "1/" + "0" * digits + "1")[0] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["selftest", "--label-len", "40"], "label length must be <= 12, got 40"),
        (["selftest", "--label-len", "13"], "label length must be <= 12, got 13"),
        (["selftest", "--depth", "1000"], "depth must be <= 64, got 1000"),
        (["selftest", "--depth", "65"], "depth must be <= 64, got 65"),
        (["verify", "4/15", "--samples", str(10 ** 12)], f"samples must be <= 100000, got {10 ** 12}"),
        (["verify", "4/15", "--samples", "100001"], "samples must be <= 100000, got 100001"),
    ],
)
def test_arguments_past_their_bounds_exit_two_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert (code, out, err) == (2, "", f"error: {message}\n")


WORKERS = (
    "check_relators",
    "check_reduction",
    "check_addresses",
    "check_twin_points",
    "stabilizer_generators",
    "verify_generators",
    "check_stabilizer_relators",
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["selftest", "--depth", "64", "--label-len", "40"], "label length must be <= 12, got 40"),
        (["selftest", "--label-len", "0"], "bounds must be >= 1"),
        (["selftest", "--depth", "65", "--label-len", "40"], "depth must be <= 64, got 65"),
        (["selftest", "--depth", "1"], "depth must be >= 2, got 1"),
        (["verify", "4/15", "--samples", "100001"], "samples must be <= 100000, got 100001"),
        (["verify", "0110110110110110110(0011)", "--samples", "0"], "samples must be >= 1, got 0"),
    ],
)
def test_bounds_are_checked_before_any_worker_runs(capsys, monkeypatch, argv, message):
    called = []
    for name in WORKERS:
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: called.append(name))
    code, out, err = run(capsys, *argv)
    assert (code, out, err, called) == (2, "", f"error: {message}\n", [])


def test_period_longer_than_the_bound_exits_one(capsys):
    code, out, err = run(capsys, "canon", "1/1048589")
    assert code == 1
    assert out == ""
    assert "capacity" in err


def test_preperiod_longer_than_the_bound_exits_one(capsys):
    code, out, err = run(capsys, "act", "0" * (MAX_PERIOD + 1) + "(1)", "a")
    assert code == 1
    assert out == ""
    assert "preperiod" in err and "capacity" in err


def test_graph_dot_matches_fixture_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "graph", "1/2", "--radius", "4", "--format", "dot")
    assert code == 0
    code, second, _ = run(capsys, "graph", "1/2", "--radius", "4", "--format", "dot")
    assert code == 0
    assert first == second
    assert first == (FIXTURES / "ball_half_r4.dot").read_text()


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "(0)", "--radius", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "seed": "(0)",
        "radius": 2,
        "vertices": ["(0)"],
        "edges": [[0, "x0", 0], [0, "x1", 0]],
    }


def test_graph_capacity_error_exits_one(capsys):
    code, out, err = run(capsys, "graph", "1/2", "--radius", "6", "--cap", "10")
    assert code == 1
    assert "vertex cap of 10" in err


def test_path_finds_a_conjugating_word(capsys):
    code, out, _ = run(capsys, "path", "01(0100)", "10(0100)", "--radius", "4")
    assert code == 0
    assert out == "A\n"


def test_path_not_found_exits_one(capsys):
    code, out, err = run(capsys, "path", "1(0)", "0(1)", "--radius", "6")
    assert code == 1
    assert "no path" in err


def test_path_between_orbits_exits_one_at_once(capsys):
    code, out, err = run(capsys, "path", "1/3", "1/5")
    assert code == 1
    assert out == ""
    assert err == "error: no path from (01) to (0011): the points lie in different orbits of F\n"


def test_path_negative_radius_is_a_usage_error(capsys):
    code, out, err = run(capsys, "path", "1(0)", "0(1)", "--radius", "-1")
    assert code == 2
    assert out == ""
    assert "radius must be >= 0" in err


def test_gens_text_output(capsys):
    code, out, _ = run(capsys, "gens", "1/2")
    assert code == 0
    assert out.splitlines() == ["# point=1(0) h=1 w=0", "abA", "aabAA", "AAba", "AAAbaa", "B"]


def test_gens_json_output(capsys):
    code, out, _ = run(capsys, "gens", "4/15", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == "(0100)"
    assert payload["w"] == "0100"
    assert len(payload["generators"]) == 5


def test_gens_on_a_nineteen_letter_preperiod(capsys):
    code, out, _ = run(capsys, "gens", "0110110110110110110(0011)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# point=0110110110110110110(0011) h=ABaBBaBaBBaBaBBaBaBBaBaBBaBaB w=0011"
    assert len(lines) == 6


def test_every_gens_output_passes_verify(capsys):
    for point in ("1/2", "4/15", "10(0011)", "5/6"):
        code, out, _ = run(capsys, "gens", point)
        assert code == 0
        code, out, _ = run(capsys, "verify", point, "--samples", "40")
        assert code == 0, out


def test_verify_reports_and_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "4/15", "--samples", "30", "--seed", "5")
    assert code == 0
    assert "all passed" in out
    assert "FAIL" not in out.replace("FAILED", "")
    for samples in ("0", "-5"):
        code, out, err = run(capsys, "verify", "4/15", "--samples", samples)
        assert code == 2
        assert out == ""
        assert "samples must be >= 1" in err


def test_verify_output_is_reproducible(capsys):
    code, first, _ = run(capsys, "verify", "5/6", "--samples", "25", "--seed", "11")
    assert code == 0
    code, second, _ = run(capsys, "verify", "5/6", "--samples", "25", "--seed", "11")
    assert code == 0
    assert first == second


def test_selftest_small_run(capsys):
    code, out, _ = run(capsys, "selftest", "--depth", "3", "--label-len", "2")
    assert code == 0
    assert "selftest" in out.splitlines()[-1]
    assert "all passed" in out.splitlines()[-1]


def test_a_repeated_selftest_proves_nothing_again(capsys, monkeypatch):
    argv = ("selftest", "--depth", "6", "--label-len", "4")
    first = run(capsys, *argv)
    calls = {"fold": 0, "step": 0, "compose": 0}
    fold, step, compose = cantor._fold, cantor._step, PLMap.compose

    def counted_fold(*args):
        calls["fold"] += 1
        return fold(*args)

    def counted_step(*args):
        calls["step"] += 1
        return step(*args)

    def counted_compose(self, other):
        calls["compose"] += 1
        return compose(self, other)

    for module in (cantor, stabgen):
        monkeypatch.setattr(module, "_fold", counted_fold)
    for module in (cantor, schreier):
        monkeypatch.setattr(module, "_step", counted_step)
    monkeypatch.setattr(PLMap, "compose", counted_compose)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0
    assert calls == {"fold": 0, "step": 0, "compose": 0}
    assert run(capsys, "verify", "4/15")[0] == 0  # the counters see the work of a new point
    assert calls["fold"] > 0
    assert run(capsys, "selftest", "--depth", "6", "--label-len", "5")[0] == 0  # and of a new address length
    assert calls["step"] > 0


class _CountedCheck:
    """A check that counts how often its verdict is read."""

    reads = 0

    def __init__(self, name, passed):
        self.name, self._passed = name, passed

    @property
    def passed(self):
        _CountedCheck.reads += 1
        return self._passed


@pytest.mark.parametrize("verdicts", [(True, True, True), (True, False, True, False)])
def test_a_printed_report_reads_each_verdict_once(capsys, monkeypatch, verdicts):
    report = Report("suite", [_CountedCheck(f"check {k}", passed) for k, passed in enumerate(verdicts)])
    expected = str(Report("suite", [Check(c.name, c._passed) for c in report.checks]))
    monkeypatch.setattr(_CountedCheck, "reads", 0)
    assert cli._print_report(report) == (0 if all(verdicts) else 1)
    assert _CountedCheck.reads == len(verdicts)
    assert capsys.readouterr().out == expected + "\n"
    assert expected.endswith("4 checks, 2 FAILED" if len(verdicts) == 4 else "3 checks, all passed")


def test_malformed_point_exits_two(capsys):
    code, out, err = run(capsys, "canon", "10(01")
    assert code == 2
    assert "error" in err


def test_fraction_with_non_ascii_digits_exits_two(capsys):
    # str.isdigit takes both; int() rejects the superscript and reads the
    # Arabic-Indic digits as 1/3
    code, out, err = run(capsys, "canon", "\u00b2/3")
    assert (code, out) == (2, "")
    assert "expected an integer numerator at position 0" in err
    code, out, err = run(capsys, "canon", "\u0661/\u0663")
    assert (code, out) == (2, "")
    assert "expected an integer numerator at position 0" in err
    code, out, err = run(capsys, "act", "1/\u0663", "a")
    assert (code, out) == (2, "")
    assert "expected an integer denominator at position 2" in err


def test_malformed_word_exits_two(capsys):
    code, out, err = run(capsys, "act", "1(0)", "xyz")
    assert code == 2
    assert "position 0" in err


def test_fraction_outside_unit_interval_exits_two(capsys):
    code, out, err = run(capsys, "value", "7/3")
    assert code == 2
    assert "outside" in err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


# argv that main parses, each compared with what a fresh full parser makes of it
PARSER_CASES = (
    [],
    ["--help"],
    ["-h", "gens"],
    ["gens", "--help"],
    ["frobnicate"],
    ["act", "1/3"],
    ["act", "--", "1/3", "ab"],
    ["path", "1/3", "2/3", "--rad", "3"],
    ["graph", "1/3", "--radius", "x"],
    ["graph", "1/3", "--radius", "x", "extra"],
    ["gens", "1/3", "--format", "xml"],
    ["gens", "1/3", "--radius", "5"],
    ["verify", "1/3", "--radius", "5"],
    ["graph", "1/3", "--radius", "2", "--radius", "3"],
    ["graph", "1/3", "--radius=2", "--format=json"],
    ["graph", "1/3", "--radius", "-2"],
    ["canon", "-1/3"],
    # plain: read from COMMANDS without a parser
    ["gens", "1/3"],
    ["canon", "-"],
    ["path", "1/3", "2/3", "--radius", "3"],
    ["graph", "1/3", "--format", "json", "--cap", "50", "--radius", "+2"],
    ["verify", "1/3", "--seed", "٣", "--samples", "5_0"],
    ["selftest", "--label-len", " 2"],
)


def test_reused_parser_prints_the_same_usage_errors_and_help(capsys):
    # main builds the full parser once; every later call must print what a fresh one prints
    assert cli._build_parser() is cli._build_parser()
    assert run(capsys, "canon", "1/3")[0] == 0
    for argv in PARSER_CASES:
        parsers = (cli._parse_args, cli._build_parser.__wrapped__().parse_args, cli._parse_args)
        outputs = [_outcome(capsys, parse, argv) for parse in parsers]
        assert outputs[0] == outputs[1] == outputs[2], argv
        if isinstance(outputs[0][0], int):  # an exit: main takes it too, with the same output
            assert _outcome(capsys, cli.main, argv) == outputs[0], argv
            assert outputs[0][1] or outputs[0][2]


def _plain_corpus() -> list[list[str]]:
    """Plain argv of every command: each order of each subset of its options, with seeded values."""
    rng = SplitMix64(37)
    texts = ("1/3", "10(0100)", "abAB", "-", "", " 7", "a b")
    numerals = ("0", "7", "+5", "٣", "5_0", " 7", "12", "007")
    calls = []
    for name, (_, positionals, options, _) in cli.COMMANDS.items():
        for size in range(len(options) + 1):
            for chosen in itertools.permutations(options, size):
                for _ in range(6):
                    argv = [name] + [rng.choice(texts) for _ in positionals]
                    for flag, type_, _, choices, _ in chosen:
                        argv += [flag, rng.choice(choices if choices else numerals)]
                    calls.append(argv)
    return calls


def test_a_plain_argv_reads_as_the_full_parser_parses_it():
    full = cli._build_parser.__wrapped__()
    corpus = _plain_corpus()
    # canon, act, eval, value: 1 each; graph: 16 orders; path and gens: 2; verify and selftest: 5
    assert len(corpus) == 6 * (4 + 16 + 2 + 2 + 5 + 5)
    accepted = 0
    for argv in corpus:
        args = cli._read_plain(argv)
        assert args == full.parse_args(argv), argv
        assert cli._parse_args(argv) == args, argv
        accepted += args is not None
    assert accepted == len(corpus)
    formats = {(argv[0], argv[argv.index("--format") + 1]) for argv in corpus if "--format" in argv}
    assert formats == {("graph", "dot"), ("graph", "json"), ("gens", "text"), ("gens", "json")}
    assert all(any(value in argv[1:] for argv in corpus) for value in ("-", "", " 7", "+5", "٣", "5_0"))


def test_the_plain_reader_declines_what_it_would_read_otherwise_than_the_full_parser(capsys):
    full = cli._build_parser.__wrapped__()
    accepted = declined = 0
    for argv in [*PARSER_CASES, *_values_corpus()]:
        args = cli._read_plain(argv)
        outcome = _outcome(capsys, full.parse_args, argv)
        if args is None:
            declined += 1
        else:
            assert outcome[0] == args, argv[:4]
            accepted += 1
    # declined: 17 PARSER_CASES and the corpus's 10 usage errors of argparse and 2 negative radii
    assert (accepted, declined) == (298, 29)


def test_a_command_that_prints_no_json_does_not_load_it():
    # a fresh interpreter without site, which would load modules of its own
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); assert 'json' not in sys.modules; "
        "from thompsonf import cli; assert 'json' not in sys.modules, 'json loaded by the import'; "
        "assert cli.main(['gens', '5/11']) == 0; assert 'json' not in sys.modules, 'json loaded by gens'; "
        "assert cli._build_parser.cache_info().currsize == 0, 'full parser built for a plain argv'"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("# point=(0111010001) h=AAbb w=0111010001\n")


# Run in a fresh interpreter without site, whose own imports would count: a
# plain command loads none of the modules in HEAVY, and help loads argparse.
FOOTPRINT_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
HEAVY = {"dataclasses", "inspect", "argparse", "typing"}
assert not HEAVY & set(sys.modules)
from thompsonf import cli
assert not HEAVY & set(sys.modules), sorted(HEAVY & set(sys.modules))
for argv in (["gens", "5/11"], ["verify", "1/3"], ["eval", "ab"], ["graph", "1/3", "--radius", "3", "--format", "json"]):
    assert cli.main(argv) == 0, argv
    assert not HEAVY & set(sys.modules), (argv, sorted(HEAVY & set(sys.modules)))
try:
    cli.main(["graph", "--help"])
except SystemExit as exc:
    assert exc.code == 0 and "argparse" in sys.modules
else:
    raise AssertionError("graph --help did not exit")
"""


def test_a_plain_command_loads_neither_dataclasses_nor_argparse_nor_typing():
    done = subprocess.run([sys.executable, "-I", "-S", "-c", FOOTPRINT_CODE, str(SRC)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("# point=(0111010001) h=AAbb w=0111010001\n")
    assert "verification of (01): " in done.stdout and "\nusage: thompsonf graph [-h]" in done.stdout


def test_running_out_of_memory_is_one_error_line_and_exit_one(capsys, monkeypatch):
    def exhausted(point):
        raise MemoryError

    monkeypatch.setattr(cli, "stabilizer_generators", exhausted)
    code, out, err = run(capsys, "gens", "(0001)")
    assert (code, out) == (1, "")
    assert err == "error: out of memory: the input needs more than this process can allocate\n"


def test_a_point_or_word_is_read_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("10(0100)\n"))
    assert run(capsys, "canon", "-") == (0, "1(0010) = 17/30\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO(" abAB\n"))
    assert run(capsys, "act", "1/3", "-") == (0, "(01)\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("10(0100)"))
    assert run(capsys, "path", "(0100)", "-") == (0, "ABB\n", "")


def test_two_stdin_arguments_are_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(0100)"))
    code, out, err = run(capsys, "path", "-", "-")
    assert (code, out) == (2, "")
    assert "only one argument may be '-'" in err and "source and target" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("(0100)"))
    assert run(capsys, "act", "-", "-")[0] == 2
    assert sys.stdin.read() == "(0100)"  # refused before it is read


def test_points_past_the_argument_limit_go_through_stdin():
    # Linux refuses a single argument of more than 131,072 bytes before the program starts
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    preperiod = "1" + "0" * 200_000
    point = f"{preperiod}(011)"
    assert len(point) > 200_000

    def thompsonf(*argv):
        cmd = [sys.executable, "-m", "thompsonf.cli", *argv]
        return subprocess.run(cmd, input=point, capture_output=True, text=True, env=env, timeout=120)

    canon = thompsonf("canon", "-")
    assert (canon.returncode, canon.stderr) == (0, "")
    shown, value = canon.stdout.rstrip("\n").split(" = ")
    assert shown == point
    num, den = value.split("/")
    assert (_decimal(num), _decimal(den)) == (int(preperiod, 2) * 7 + 3, 7 << len(preperiod))
    act = thompsonf("act", "-", "abAB")
    assert (act.returncode, act.stderr) == (0, "")
    expected = cantor.act_word(cantor.parse_point(point), "abAB")
    assert act.stdout == f"{expected}\n"


def test_a_closed_pipe_ends_the_script_quietly():
    # the read end is closed before the child writes, so its first write breaks the pipe
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "thompsonf.cli", "selftest", "--label-len", "12"]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == cli.CLOSED_PIPE_STATUS == 141
    assert err == b""
