from itertools import product

import pytest

from thompsonf.schreier import forbidden_prefix
from thompsonf.words import (
    Letter,
    WordSyntaxError,
    address_word,
    commutator,
    conjugate,
    format_word,
    invert_word,
    parse_word,
    period_loop_word,
    relator_words,
    stabilizer_period_word,
    xn_word,
    yn_word,
)

A, AI, B, BI = Letter.X0, Letter.X0_INV, Letter.X1, Letter.X1_INV


def test_parse_and_format_round_trip():
    for text in ("a", "abAB", "AAbaa", "1"):
        assert format_word(parse_word(text)) == text
    assert parse_word("") == ()
    assert parse_word("1") == ()
    assert format_word(()) == "1"


def test_parse_reports_position_of_bad_letter():
    for text, position in (("abX", 2), ("xab", 0), ("abXba", 2), ("abab?", 4), ("a1", 1), ("1a", 0)):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text)
        assert err.value.position == position
        assert str(err.value) == f"invalid letter {text[position]!r} at position {position} in {text!r}"
    assert parse_word("aAbB") == (A, AI, B, BI)


def test_inverse_reverses_and_inverts():
    assert invert_word((A, B)) == (BI, AI)
    assert invert_word(()) == ()
    assert invert_word(invert_word((A, B, AI))) == (A, B, AI)


def test_conjugate_by_empty_word_is_identity_operation():
    assert conjugate((B,), ()) == (B,)
    assert conjugate((B,), (A,)) == (A, B, AI)


def test_commutator_shape():
    assert commutator((A,), (B,)) == (A, B, AI, BI)


def test_xn_words():
    assert xn_word(0) == (A,)
    assert xn_word(1) == (B,)
    assert xn_word(2) == (A, B, AI)
    assert xn_word(4) == (A, A, A, B, AI, AI, AI)
    with pytest.raises(ValueError):
        xn_word(-1)


def test_yn_words():
    assert yn_word(1) == (AI, AI, B, A)
    assert yn_word(2) == (AI, AI, AI, B, A, A)
    with pytest.raises(ValueError):
        yn_word(0)


def test_address_word_substitution():
    assert address_word("") == ()
    assert address_word("A") == (AI, B)
    assert address_word("BBA") == (B, B, AI, B)
    with pytest.raises(ValueError, match=r"^address letters must be A or B, got 'C'$"):
        address_word("AC")


def test_period_loop_word_reads_reversed_period():
    assert period_loop_word("0") == (B,)
    assert period_loop_word("1") == (AI, B)
    assert period_loop_word("0100") == (B, B, AI, B, B)
    for word in (period_loop_word, stabilizer_period_word):
        with pytest.raises(ValueError, match=r"^period letters must be 0 or 1, got '2'$"):
            word("012")


def test_stabilizer_period_word_is_loop_word_inverse():
    # on every period of up to 10 letters, where the loop word is also the
    # address word of the forbidden prefix
    for length in range(1, 11):
        for bits in product("01", repeat=length):
            w = "".join(bits)
            loop = period_loop_word(w)
            assert loop == address_word(forbidden_prefix(w)), w
            assert stabilizer_period_word(w) == invert_word(loop), w
    assert stabilizer_period_word("0100") == (BI, BI, A, BI, BI)


def test_relator_words_of_the_generators_are_the_defining_relators():
    first, second = relator_words((A,), (B,))
    assert first == commutator((BI, A), (A, B, AI))
    assert second == commutator((BI, A), (A, A, B, AI, AI))
    g0, g1 = (A, B), (AI,)
    assert relator_words(g0, g1) == (
        commutator(invert_word(g1) + g0, g0 + g1 + invert_word(g0)),
        commutator(invert_word(g1) + g0, g0 + g0 + g1 + invert_word(g0) + invert_word(g0)),
    )


def test_letters_hash_by_identity():
    # dict lookups keyed by letters are on the hot paths of both actions, so
    # the hash is object's C-level identity hash, not Enum's hash of the name
    assert Letter.__hash__ is object.__hash__
    for letter in Letter:
        assert hash(letter) == object.__hash__(letter)
        assert {letter: 1}[Letter(letter.value)] == 1
