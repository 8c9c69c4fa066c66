"""Command line front end: the `thompsonf` script, whose help text is DESCRIPTION.

COMMANDS is the one table of the commands: for each, its help text, its
positional names, its options as (flag, type, default, choices, help) and
the handler that runs it.  A plain argv (the command, its positionals, then
"--flag value" pairs of its own options, as _read_plain defines it) is read
straight from the table into a namespace equal to the one argparse would
return, and argparse is neither imported nor built.  Every other argv
(help, "--", an abbreviated flag, "--flag=value", a negative number, a
repeated flag, a missing or extra argument, a bad value) goes to argparse,
which is built from the same table, so each error and each help text is
argparse's, byte for byte.
"""

from __future__ import annotations

import functools
import os
import sys

from .cantor import PeriodCapacityError, PointSyntaxError, act_word, parse_point
from .plmap import MAX_DEPTH, TextCapacityError, check_relators, validate_depth, word_to_plmap
from .report import Report
from .schreier import (
    MAX_BALL_VERTICES,
    MAX_LABEL_LEN,
    BallCapacityError,
    PathNotFoundError,
    ball,
    check_addresses,
    find_path,
    write_dot,
    write_json,
)
from .stabgen import (
    MAX_SAMPLES,
    check_reduction,
    check_stabilizer_relators,
    check_twin_points,
    format_generators,
    generators_to_json,
    stabilizer_generators,
    validate_reduction_bounds,
    validate_samples,
    verify_generators,
)
from .words import WordSyntaxError, format_word, parse_word

SELFTEST_PERIODS = ("0", "1", "01", "10", "0100", "011")
TWIN_PREFIXES = ("", "1", "01")
SELFTEST_MAX_N = 4  # greatest generator index of the reduction checks
CLOSED_PIPE_STATUS = 141  # what a shell reports for a process that SIGPIPE ended
STDIN = "-"  # a point or word argument that is read from standard input


# the help text of the program as a whole
DESCRIPTION = """Command line front end.

Subcommands: canon, act, eval, value, graph, path, gens, verify, selftest.
Points are written as v(w), e.g. 10(0100) or (01), or as exact fractions
p/q; words use the letters a = x0, A = x0^-1, b = x1, B = x1^-1 and "1" for
the identity.  All output is exact; fractions are printed in lowest terms.
A point or word given as - is read from standard input, without its
surrounding whitespace, so that one longer than the system's limit on a
single argument (131,072 bytes on Linux) can be passed, as in
`thompsonf act - abAB < point.txt`; at most one argument of a
command may be -.

Exit status: 0 when everything passed, 1 on a verification failure, a
`path` with no word within --radius, a period or preperiod longer than
MAX_PERIOD letters, an `eval` whose breakpoints' numerators have more than
MAX_TEXT_BITS bits or a command that runs out of memory, each with one
`error: ...` line on stderr, 2 on a usage error, and 141 (128 + SIGPIPE),
with nothing on stderr, when stdout is closed before all of the output is
written, as in `selftest | head -n 1`.
"""


def _print_report(report: Report) -> int:
    text, passed = report.render()
    print(text)
    return 0 if passed else 1


def _canon(args: argparse.Namespace) -> int:
    point = parse_point(args.point)
    print(f"{point} = {point.value()}")
    return 0


def _act(args: argparse.Namespace) -> int:
    point = parse_point(args.point)
    print(act_word(point, parse_word(args.word)))
    return 0


def _eval(args: argparse.Namespace) -> int:
    texts = word_to_plmap(parse_word(args.word)).breakpoint_texts()
    sys.stdout.write("".join([f"{t} -> {y}\n" for t, y in texts]))
    return 0


def _value(args: argparse.Namespace) -> int:
    print(parse_point(args.point).value())
    return 0


def _graph(args: argparse.Namespace) -> int:
    b = ball(parse_point(args.point), args.radius, args.cap)
    if args.format == "dot":
        write_dot(b, sys.stdout.write)
    else:
        write_json(b, sys.stdout.write)
        sys.stdout.write("\n")
    return 0


def _path(args: argparse.Namespace) -> int:
    word = find_path(parse_point(args.source), parse_point(args.target), args.radius)
    print(format_word(word))
    return 0


def _gens(args: argparse.Namespace) -> int:
    gens = stabilizer_generators(parse_point(args.point))
    if args.format == "json":
        print(generators_to_json(gens))
    else:
        sys.stdout.write(format_generators(gens))
    return 0


def _verify(args: argparse.Namespace) -> int:
    point = parse_point(args.point)
    validate_samples(args.samples)  # before any generator is built
    gens = stabilizer_generators(point)
    report = verify_generators(gens, samples=args.samples, seed=args.seed)
    report.merge(check_stabilizer_relators())
    report.title = f"verification of {gens.point}"
    return _print_report(report)


def _selftest(args: argparse.Namespace) -> int:
    # every bound is checked before the first suite runs
    validate_depth(args.depth)
    validate_reduction_bounds(args.label_len, SELFTEST_MAX_N)
    report = check_relators(args.depth)
    report.merge(check_reduction(args.label_len, SELFTEST_MAX_N))
    for period in SELFTEST_PERIODS:
        report.merge(check_addresses(period, args.label_len))
    for prefix in TWIN_PREFIXES:
        report.merge(check_twin_points(prefix))
    report.title = "selftest"
    return _print_report(report)


# name -> (help text, positional names, options, handler), each option as
# (flag, type, default, choices, help); argparse adds them in this order
COMMANDS = {
    "canon": ("print the canonical form and exact value of a point", ("point",), (), _canon),
    "act": ("apply a word to a point", ("point", "word"), (), _act),
    "eval": ("print the breakpoints of the map of a word", ("word",), (), _eval),
    "value": ("print the exact rational value of a point", ("point",), (), _value),
    "graph": (
        "emit a Schreier-graph ball around a point",
        ("point",),
        (
            ("--radius", int, 3, None, None),
            ("--cap", int, 100_000, None, f"vertex cap of the ball, at most {MAX_BALL_VERTICES}"),
            ("--format", str, "dot", ("dot", "json"), None),
        ),
        _graph,
    ),
    "path": (
        "shortest word moving one point to another",
        ("source", "target"),
        (("--radius", int, 32, None, None),),
        _path,
    ),
    "gens": (
        "stabilizer generating set for a point",
        ("point",),
        (("--format", str, "text", ("text", "json"), None),),
        _gens,
    ),
    "verify": (
        "verify the stabilizer generating set for a point",
        ("point",),
        (
            ("--samples", int, 100, None, f"random products to check, at most {MAX_SAMPLES}"),
            ("--seed", int, 1, None, None),
        ),
        _verify,
    ),
    "selftest": (
        "run the full identity and uniqueness suites",
        (),
        (
            ("--depth", int, 8, None, f"index bound of the relator checks, 2 to {MAX_DEPTH}"),
            ("--label-len", int, 5, None, f"longest A/B address checked, 1 to {MAX_LABEL_LEN}"),
        ),
        _selftest,
    ),
}


@functools.cache  # parse_args leaves a parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser, for the usage, help and errors of the program as a whole."""
    import argparse  # here, not at the top: a plain argv needs no parser

    parser = argparse.ArgumentParser(prog="thompsonf", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, options, _) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for positional in positionals:
            command.add_argument(positional)
        for flag, type_, default, choices, help_text in options:
            command.add_argument(flag, type=type_, default=default, choices=choices, help=help_text)
    return parser


class _Args:
    """The arguments of a plain argv as attributes, equal to an argparse.Namespace that holds the same."""

    def __init__(self, **values: object) -> None:
        self.__dict__.update(values)

    def __eq__(self, other: object) -> bool:
        fields = getattr(other, "__dict__", None)
        return NotImplemented if fields is None else vars(self) == fields


def _read_plain(argv: list[str]) -> _Args | None:
    """What the full parser returns for argv when argv is plain, or None when it is not.

    A plain argv is a command, then exactly its positionals, none starting
    with "-" but STDIN itself, then "--flag value" pairs of the command's
    own options: each flag exact and given at most once, no value starting
    with "-", and each value read by the option's type into its choices.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, positionals, options, _ = command
    n = len(positionals) + 1
    if len(argv) < n or (len(argv) - n) % 2:
        return None
    values = {"command": argv[0]}
    for name, text in zip(positionals, argv[1:n]):
        if text.startswith("-") and text != STDIN:
            return None
        values[name] = text
    given = dict(zip(argv[n::2], argv[n + 1 :: 2]))
    if 2 * len(given) != len(argv) - n:  # a flag given twice
        return None
    for flag, type_, default, choices, _ in options:
        text = given.pop(flag, None)
        if text is None:
            value = default
        elif text.startswith("-"):
            return None
        else:
            try:
                value = type_(text)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        values[flag[2:].replace("-", "_")] = value
    return None if given else _Args(**values)


def _parse_args(argv: list[str]) -> argparse.Namespace | _Args:
    """argv read straight from COMMANDS when it is plain, and otherwise parsed by the full parser."""
    args = _read_plain(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    """Run one command with the int-to-str digit limit lifted, as long-period values need.

    parse_point bounds the digits it reads; interpreters without the limit need nothing lifted.
    """
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        _read_stdin_argument(args)
        return COMMANDS[args.command][3](args)
    except (PointSyntaxError, WordSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PathNotFoundError, BallCapacityError, PeriodCapacityError, TextCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input needs more than this process can allocate", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _read_stdin_argument(args: argparse.Namespace) -> None:
    """Replace the one point or word argument given as STDIN by standard input, stripped."""
    named = [name for name in ("point", "word", "source", "target") if getattr(args, name, None) == STDIN]
    if len(named) > 1:
        raise ValueError(f"only one argument may be {STDIN!r}, read from standard input; got {' and '.join(named)}")
    if named:
        setattr(args, named[0], sys.stdin.read().strip())


def run() -> None:
    """The console script: main(), ended quietly with CLOSED_PIPE_STATUS when standard output is closed."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:  # what is still buffered goes to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_PIPE_STATUS
    sys.exit(code)


if __name__ == "__main__":
    run()
