from itertools import product

import pytest

from sampling import random_point, random_word
from thompsonf.cantor import act_word
from thompsonf.plmap import identity, word_to_plmap
from thompsonf.rng import SplitMix64
from thompsonf.schreier import ball, find_path, forbidden_prefix
from thompsonf.stabgen import stabilizer_generators
from thompsonf.words import (
    LETTERS,
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


def test_parse_and_format_round_trip():
    for text in ("a", "abAB", "AAbaa", "1"):
        assert format_word(parse_word(text)) == text
    assert parse_word("") == ""
    assert parse_word("1") == ""
    assert format_word("") == "1"


def test_parse_reports_position_of_bad_letter():
    for text, position in (("abX", 2), ("xab", 0), ("abXba", 2), ("abab?", 4), ("a1", 1), ("1a", 0)):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text)
        assert err.value.position == position
        assert str(err.value) == f"invalid letter {text[position]!r} at position {position} in {text!r}"
    assert parse_word("aAbB") == "aAbB" == LETTERS


def test_inverse_reverses_and_inverts():
    assert invert_word("ab") == "BA"
    assert invert_word("") == ""
    assert invert_word(invert_word("abA")) == "abA"


def test_inverse_is_an_involution_that_cancels_in_the_map():
    rng = SplitMix64(14)
    words = [""] + [random_word(rng, 40) for _ in range(299)]
    assert len(set(words)) > 250
    for word in words:
        assert invert_word(invert_word(word)) == word
        assert word_to_plmap(word + invert_word(word)) == identity()


def test_conjugate_by_empty_word_is_identity_operation():
    assert conjugate("b", "") == "b"
    assert conjugate("b", "a") == "abA"


def test_commutator_shape():
    assert commutator("a", "b") == "abAB"


def test_xn_words():
    assert xn_word(0) == "a"
    assert xn_word(1) == "b"
    assert xn_word(2) == "abA"
    assert xn_word(4) == "aaabAAA"
    with pytest.raises(ValueError):
        xn_word(-1)


def test_yn_words():
    assert yn_word(1) == "AAba"
    assert yn_word(2) == "AAAbaa"
    with pytest.raises(ValueError):
        yn_word(0)


def test_address_word_substitution():
    assert address_word("") == ""
    assert address_word("A") == "Ab"
    assert address_word("BBA") == "bbAb"
    with pytest.raises(ValueError, match=r"^address letters must be A or B, got 'C'$"):
        address_word("AC")


def test_period_loop_word_reads_reversed_period():
    assert period_loop_word("0") == "b"
    assert period_loop_word("1") == "Ab"
    assert period_loop_word("0100") == "bbAbb"
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
    assert stabilizer_period_word("0100") == "BBaBB"


def test_relator_words_of_the_generators_are_the_defining_relators():
    first, second = relator_words("a", "b")
    assert first == commutator("Ba", "abA")
    assert second == commutator("Ba", "aabAA")
    g0, g1 = "ab", "A"
    assert relator_words(g0, g1) == (
        commutator(invert_word(g1) + g0, g0 + g1 + invert_word(g0)),
        commutator(invert_word(g1) + g0, g0 + g0 + g1 + invert_word(g0) + invert_word(g0)),
    )


def test_every_word_returned_is_text_that_round_trips():
    rng = SplitMix64(41)
    returned = []
    for _ in range(20):
        p = random_point(rng, 5, 4)
        q = act_word(p, random_word(rng, 6))
        returned.append(find_path(p, q))
        b = ball(p, 3)
        returned += [b.path_word(i) for i in range(len(b))]
        gens = stabilizer_generators(p)
        returned += [gens.conjugator, *gens.generators]
    returned += [address_word(label) for label in ("", "A", "B", "ABBA")]
    returned += [period_loop_word(w) for w in ("0", "1", "0100", "011")]
    returned += relator_words(xn_word(2), yn_word(1))
    assert "" in returned and len(set(returned)) > 100
    for word in returned:
        assert type(word) is str
        assert parse_word(format_word(word)) == word
