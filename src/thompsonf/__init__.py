"""Exact toolkit for Thompson's group F.

Elements are exact piecewise linear homeomorphisms of [0, 1] with dyadic
breakpoints and power-of-two slopes; the group also acts on eventually
periodic binary sequences by prefix rewriting.  On top of the two actions
the package builds Schreier-graph balls of point stabilizers and explicit
five-element generating sets for the stabilizers of rational points, with
exact verification suites for all of it.
"""

from .cantor import (
    MAX_PERIOD,
    ONE_POINT,
    PeriodCapacityError,
    PointSyntaxError,
    RationalPoint,
    ZERO_POINT,
    act_letter,
    act_word,
    canonicalize,
    parse_point,
    primitive_root,
    shift,
    value_to_point,
)
from .dyadic import Dyadic
from .plmap import (
    InvalidPLMapError,
    PLMap,
    TextCapacityError,
    check_relators,
    evaluate_word,
    flip,
    generator_x0,
    generator_x1,
    identity,
    letter_map,
    word_to_plmap,
    xn,
    yn,
)
from .report import Check, Report
from .rng import SplitMix64
from .schreier import (
    BallCapacityError,
    PathNotFoundError,
    SchreierBall,
    ball,
    check_addresses,
    export_dot,
    export_json,
    find_path,
    forbidden_prefix,
    vertex_at_address,
    write_dot,
    write_json,
)
from .stabgen import (
    StabilizerGens,
    base_generator_words,
    check_reduction,
    check_stabilizer_relators,
    check_twin_points,
    schreier_x_word,
    schreier_y_word,
    stabilizer_generators,
    verify_generators,
)
from .words import (
    LETTERS,
    Word,
    WordSyntaxError,
    address_word,
    commutator,
    conjugate,
    format_word,
    invert_word,
    parse_word,
    period_loop_word,
    stabilizer_period_word,
    xn_word,
    yn_word,
)

__version__ = "0.1.0"
