"""Independent output checks for the benchmark's requests.

Nothing here imports thompsonf.  Points are raw (prefix, period) string
pairs that are never canonicalised; the sequence action is plain prefix
rewriting, and maps are evaluated either by interpolating the breakpoints a
command printed or by applying the generators' closed forms letter by letter.
Each check returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

# Prefix rewriting rules of the four letters (a = x0, A = x0^-1, b = x1,
# B = x1^-1); each rule set is a complete prefix code.
RULES = {
    "a": (("0", "00"), ("10", "01"), ("11", "1")),
    "A": (("00", "0"), ("01", "10"), ("1", "11")),
    "b": (("0", "0"), ("10", "100"), ("110", "101"), ("111", "11")),
    "B": (("0", "0"), ("100", "10"), ("101", "110"), ("11", "111")),
}

INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}

Seq = tuple[str, str]

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)
_THREE_QUARTERS = Fraction(3, 4)


def invert(word: str) -> str:
    return "".join(INVERSE[ch] for ch in reversed(word))


def expansion(num: int, den: int) -> Seq:
    """Binary expansion of num/den in [0, 1] by long division: (preperiod, period)."""
    digits: list[str] = []
    seen: dict[int, int] = {}
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


def parse_seq(text: str) -> Seq:
    """Raw (preperiod, period) of v(w) syntax, or of a fraction p/q."""
    if "/" in text:
        num, den = text.split("/")
        return expansion(int(num), int(den))
    open_at = text.index("(")
    if not text.endswith(")"):
        raise ValueError(f"not a v(w) point: {text!r}")
    prefix, period = text[:open_at], text[open_at + 1:-1]
    if not period or set(prefix + period) - {"0", "1"}:
        raise ValueError(f"not a v(w) point: {text!r}")
    return prefix, period


def act(seq: Seq, word: str) -> Seq:
    """Apply a word letter by letter by raw prefix rewriting."""
    prefix, period = seq
    for letter in word:
        while len(prefix) < 3:
            prefix += period
        for lhs, rhs in RULES[letter]:
            if prefix.startswith(lhs):
                prefix = rhs + prefix[len(lhs):]
                break
    return prefix, period


def _unroll(seq: Seq, n: int) -> str:
    prefix, period = seq
    reps = -(-max(n - len(prefix), 0) // len(period))
    return (prefix + period * reps)[:n]


def same(x: Seq, y: Seq) -> bool:
    """Whether two eventually periodic sequences are equal letter for letter.

    They are iff they agree on the longer preperiod plus the lcm of the periods.
    """
    px, py = len(x[1]), len(y[1])
    n = max(len(x[0]), len(y[0])) + px * py // gcd(px, py)
    return _unroll(x, n) == _unroll(y, n)


def value(seq: Seq) -> Fraction:
    """The rational number whose binary expansion is the sequence."""
    prefix, period = seq
    top = (1 << len(period)) - 1
    head = int(prefix, 2) if prefix else 0
    return Fraction(head * top + int(period, 2), (1 << len(prefix)) * top)


def _x0(t: Fraction) -> Fraction:
    if t <= _HALF:
        return t / 2
    if t <= _THREE_QUARTERS:
        return t - _QUARTER
    return 2 * t - 1


def _x0_inv(t: Fraction) -> Fraction:
    if t <= _QUARTER:
        return 2 * t
    if t <= _HALF:
        return t + _QUARTER
    return (t + 1) / 2


def _on_right_half(f):
    return lambda t: t if t <= _HALF else _HALF + f(2 * t - 1) / 2


_CLOSED_FORMS = {"a": _x0, "A": _x0_inv, "b": _on_right_half(_x0), "B": _on_right_half(_x0_inv)}


def map_value(word: str, t: Fraction) -> Fraction:
    """Value at t of the map of a word, from the generators' closed forms."""
    for letter in word:
        t = _CLOSED_FORMS[letter](t)
    return t


def _is_power_of_two(fr: Fraction) -> bool:
    n, d = fr.numerator, fr.denominator
    return n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0


def check_eval(word: str, probes: list[Fraction], rc: int, out: str) -> str | None:
    """`eval <word>`: a normalised element of F whose values are the sequence action's."""
    if rc != 0:
        return f"exit status {rc}"
    points = []
    for line in out.splitlines():
        t, arrow, y = line.partition(" -> ")
        if not arrow:
            return f"malformed breakpoint line {line!r}"
        points.append((Fraction(t), Fraction(y)))
    if len(points) < 2 or points[0] != (0, 0) or points[-1] != (1, 1):
        return "endpoints are not (0, 0) and (1, 1)"
    slopes = []
    for (t0, y0), (t1, y1) in zip(points, points[1:]):
        if t1 <= t0 or y1 <= y0:
            return f"breakpoints not increasing at {t1}"
        slope = (y1 - y0) / (t1 - t0)
        if not _is_power_of_two(slope):
            return f"slope {slope} at {t0} is not a power of two"
        slopes.append(slope)
    if any(s == s_next for s, s_next in zip(slopes, slopes[1:])):
        return "breakpoint list is not normalised"
    for t, y in points:
        if t.denominator & (t.denominator - 1) or y.denominator & (y.denominator - 1):
            return f"breakpoint ({t}, {y}) is not dyadic"
        if value(act(expansion(t.numerator, t.denominator), word)) != y:
            return f"value at breakpoint {t} disagrees with the sequence action"
    for t in probes:
        i = max(k for k, (tk, _) in enumerate(points) if tk <= t and k < len(points) - 1)
        (t0, y0), (t1, y1) = points[i], points[i + 1]
        y = y0 + (t - t0) * (y1 - y0) / (t1 - t0)
        if value(act(expansion(t.numerator, t.denominator), word)) != y:
            return f"value at {t} disagrees with the sequence action"
    return None


def check_graph(point: str, radius: int, rc: int, out: str) -> str | None:
    """`graph --format json`: distinct vertices whose every edge is a generator step."""
    if rc != 0:
        return f"exit status {rc}"
    payload = json.loads(out)
    vertices = payload["vertices"]
    if payload["radius"] != radius or payload["seed"] != vertices[0]:
        return "header does not match the request"
    if len(set(vertices)) != len(vertices):
        return "repeated vertex"
    seqs = [parse_seq(v) for v in vertices]
    if not same(seqs[0], parse_seq(point)):
        return f"seed {vertices[0]} is not {point}"
    letters = {"x0": "a", "x1": "b"}
    for src, label, dst in payload["edges"]:
        if not same(act(seqs[src], letters[label]), seqs[dst]):
            return f"edge {src} -{label}-> {dst} is not a generator step"
    return None


def check_path(source: str, target: str, max_len: int, rc: int, out: str) -> str | None:
    """`path`: a word of at most max_len letters moving source to target."""
    if rc != 0:
        return f"exit status {rc}"
    word = out.strip()
    if word == "1":
        word = ""
    if len(word) > max_len or set(word) - set(RULES):
        return f"path {out.strip()!r} is not a word of at most {max_len} letters"
    if not same(act(parse_seq(source), word), parse_seq(target)):
        return "path does not move source to target"
    return None


def _check_canonical(text: str, period_len: int) -> str | None:
    prefix, period = parse_seq(text)
    if len(period) != period_len:
        return f"period has {len(period)} letters, expected {period_len}"
    if prefix and prefix[-1] == period[-1]:
        return "preperiod not absorbed into the period"
    return None


def check_act(point: str, word: str, period_len: int, rc: int, out: str) -> str | None:
    """`act`: canonical result with the value of the raw prefix rewrite."""
    if rc != 0:
        return f"exit status {rc}"
    text = out.strip()
    problem = _check_canonical(text, period_len)
    if problem:
        return problem
    if value(parse_seq(text)) != value(act(parse_seq(point), word)):
        return "value differs from the raw prefix rewrite"
    return None


def check_canon(point: str, period_len: int, rc: int, out: str) -> str | None:
    """`canon p/q`: canonical form and value of the fraction."""
    if rc != 0:
        return f"exit status {rc}"
    text, eq, shown = out.strip().partition(" = ")
    if not eq:
        return "missing ' = '"
    problem = _check_canonical(text, period_len)
    if problem:
        return problem
    num, den = point.split("/")
    expected = Fraction(int(num), int(den))
    if shown != str(expected) or value(parse_seq(text)) != expected:
        return f"value is not {expected}"
    return None


def check_gens(point: str, rc: int, out: str) -> str | None:
    """`gens`: every generator fixes the point under both actions."""
    if rc != 0:
        return f"exit status {rc}"
    header, *generators = out.splitlines()
    fields = dict(item.split("=", 1) for item in header.removeprefix("# ").split())
    seq = parse_seq(point)
    if not same(parse_seq(fields["point"]), seq):
        return f"header point {fields['point']} is not {point}"
    endpoint = set(_unroll(seq, len(seq[0]) + len(seq[1]))) in ({"0"}, {"1"})
    if len(generators) != (2 if endpoint else 5):
        return f"{len(generators)} generators"
    conjugator = "" if fields["h"] == "1" else fields["h"]
    if not endpoint and not same(act(seq, conjugator), ("10", fields["w"])):
        return "conjugator does not reach the base point"
    t = value(seq)
    for word in generators:
        letters = "" if word == "1" else word
        if not same(act(seq, letters), seq):
            return f"generator {word} moves the point (sequence action)"
        if map_value(letters, t) != t:
            return f"generator {word} moves the point (map evaluation)"
    return None


def check_report(title: str, rc: int, out: str) -> str | None:
    """`verify` and `selftest`: exit 0, no FAIL line, the title's summary says all passed."""
    if rc != 0:
        return f"exit status {rc}"
    lines = out.splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return "a check failed"
    last = lines[-1] if lines else ""
    if not (last.startswith(title + ": ") and last.endswith("all passed")):
        return f"summary line {last!r}"
    return None


def check_verify(point: str, rc: int, out: str) -> str | None:
    """`verify`: the report passes and its title names the requested point."""
    if rc != 0:
        return f"exit status {rc}"
    last = out.splitlines()[-1] if out else ""
    shown = last.removeprefix("verification of ").split(":", 1)[0]
    if not last.startswith("verification of ") or not same(parse_seq(shown), parse_seq(point)):
        return f"summary line {last!r} is not about {point}"
    return check_report(f"verification of {shown}", rc, out)
