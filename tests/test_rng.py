import pytest

from thompsonf.rng import SplitMix64


def test_below_refuses_a_bound_past_two_to_the_64_without_drawing():
    rng = SplitMix64(7)
    for n in (2**64 + 1, 2**65, 2**300):
        with pytest.raises(ValueError, match=r"^need a bound of at most 2\^64, got \d+$"):
            rng.below(n)
    # no draw was spent on the refused calls
    assert rng.next_u64() == SplitMix64(7).next_u64()


def test_below_two_to_the_64_returns_the_draw_itself():
    rng, twin = SplitMix64(11), SplitMix64(11)
    values = [rng.below(2**64) for _ in range(100)]
    assert values == [twin.next_u64() for _ in range(100)]
    assert all(0 <= value < 2**64 for value in values)


def test_below_stays_in_range_on_small_and_wide_bounds():
    rng = SplitMix64(3)
    for n in (1, 2, 3, 5, 1000, 2**63 + 1, 2**64 - 1):
        assert all(0 <= rng.below(n) < n for _ in range(50))
    with pytest.raises(ValueError, match="positive"):
        rng.below(0)
