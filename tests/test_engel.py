import random
from fractions import Fraction as F

import pytest

from engeldim import (
    DigitWord,
    DomainError,
    InvalidWordError,
    RatInterval,
    cylinder_interval,
    cylinder_length,
    engel_digits,
    is_admissible,
    reconstruct,
)


# -- the digit map -------------------------------------------------------


def test_engel_map_known_values():
    # worked by hand: T(x) = x * ceil(1/x) - 1 is the remainder after one digit
    for x, image in ((F(2, 3), F(1, 3)), (F(3, 7), F(2, 7)),
                     (F(5, 17), F(3, 17)), (F(1, 2), 0)):
        assert engel_digits(x, 1).remainder == image


def test_engel_map_keeps_orbit_inside_unit_interval():
    rng = random.Random(1181)
    for _ in range(200):
        q = rng.randint(2, 10**4)
        x = start = F(rng.randint(1, q - 1), q)
        for k in range(1, 31):
            x = engel_digits(x, 1).remainder
            assert 0 <= x < 1
            assert x == engel_digits(start, k).remainder
            if x == 0:
                break
        assert x == 0  # a rational orbit dies within numerator steps


# -- digit extraction -----------------------------------------------------


def test_known_expansions():
    # hand-checked: 1/3 + 1/12 + 1/84 = 3/7, 1/2 + 1/6 = 2/3,
    # 1/4 + 1/24 + 1/408 = 5/17
    assert list(engel_digits(F(3, 7)).digits) == [3, 4, 7]
    assert list(engel_digits(F(2, 3)).digits) == [2, 3]
    assert list(engel_digits(F(5, 17)).digits) == [4, 6, 17]
    assert list(engel_digits(F(1, 2)).digits) == [2]
    assert engel_digits(F(3, 7)).terminated
    assert engel_digits(F(3, 7)).remainder == 0


def test_max_depth_truncates_and_reports_remainder():
    result = engel_digits(F(3, 7), max_depth=2)
    assert list(result.digits) == [3, 4]
    assert not result.terminated
    assert result.remainder == F(1, 7)  # T(T(3/7)) = T(2/7)


def test_max_depth_beyond_termination_is_harmless():
    result = engel_digits(F(3, 7), max_depth=50)
    assert list(result.digits) == [3, 4, 7]
    assert result.terminated


def test_domain_validation():
    for bad in (F(0), F(1), F(-1, 3), F(7, 5)):
        with pytest.raises(DomainError):
            engel_digits(bad)
    with pytest.raises(DomainError):
        engel_digits(F(1, 2), max_depth=0)


def test_roundtrip_on_random_rationals():
    rng = random.Random(97)
    for _ in range(300):
        q = rng.randint(2, 5000)
        p = rng.randint(1, q - 1)
        x = F(p, q)
        result = engel_digits(x)
        assert result.terminated
        assert reconstruct(result.digits) == x
        # the numerator over a fixed denominator strictly decreases,
        # so p bounds the digit count
        assert len(result.digits) <= p


def test_digits_are_nondecreasing_and_at_least_two():
    rng = random.Random(431)
    for _ in range(200):
        q = rng.randint(2, 10**6)
        x = F(rng.randint(1, q - 1), q)
        digits = engel_digits(x).digits
        assert is_admissible(digits)


def test_partial_sums_plus_scaled_remainder_recover_the_input():
    # after n digits: x = reconstruct(prefix) + remainder / (d_1 ... d_n)
    rng = random.Random(777)
    for _ in range(100):
        q = rng.randint(50, 10**5)
        x = F(rng.randint(1, q - 1), q)
        full = engel_digits(x)
        for n in range(1, len(full.digits) + 1):
            part = engel_digits(x, max_depth=n)
            prod = 1
            for d in part.digits:
                prod *= d
            assert reconstruct(part.digits) + part.remainder / prod == x


# -- admissibility and words ----------------------------------------------


def test_is_admissible_cases():
    assert is_admissible([2])
    assert is_admissible([2, 2])
    assert is_admissible([2, 3, 3, 7])
    assert not is_admissible([])
    assert not is_admissible([1])
    assert not is_admissible([3, 2])
    assert not is_admissible([2, 5, 4])
    assert not is_admissible([2.0, 3])
    assert not is_admissible([2, "3"])
    assert not is_admissible([True, 2])  # bools are not digits


def test_digit_word_accepts_and_behaves_like_a_tuple():
    w = DigitWord([2, 5, 5])
    assert w == (2, 5, 5)
    assert w[1] == 5
    assert repr(w) == "DigitWord([2, 5, 5])"


def test_digit_word_rejects_bad_input():
    for bad in ([], [1], [3, 2], [2, 1, 5]):
        with pytest.raises(InvalidWordError):
            DigitWord(bad)


def test_a_digit_word_is_checked_once():
    w = DigitWord([2, 5, 5])
    assert DigitWord(w) is w
    # a tuple or list is still checked, even one equal to a word
    assert DigitWord((2, 5, 5)) == w and DigitWord((2, 5, 5)) is not w
    with pytest.raises(InvalidWordError):
        DigitWord([5, 2])


# -- intervals --------------------------------------------------------------


def test_interval_membership_respects_closure_flags():
    half_open = RatInterval(F(1, 3), F(1, 2))
    assert F(1, 3) in half_open
    assert F(2, 5) in half_open
    assert F(1, 2) not in half_open
    closed = RatInterval(F(1, 3), F(1, 2), hi_closed=True)
    assert F(1, 2) in closed
    open_left = RatInterval(F(1, 3), F(1, 2), lo_closed=False)
    assert F(1, 3) not in open_left


def test_interval_validation_and_length():
    with pytest.raises(DomainError):
        RatInterval(F(1, 2), F(1, 3))
    with pytest.raises(DomainError):
        RatInterval(F(1, 2), F(1, 2))  # degenerate must be closed
    with pytest.raises(DomainError, match="interval endpoint is not a rational"):
        RatInterval("abc", 1)
    with pytest.raises(DomainError, match="interval endpoint is not a rational"):
        RatInterval(0, float("inf"))
    with pytest.raises(DomainError, match="point is not a rational"):
        RatInterval(0, 1).contains(None)
    point = RatInterval(F(1, 2), F(1, 2), hi_closed=True)
    assert point.length == 0
    assert RatInterval(F(1, 4), F(1, 3)).length == F(1, 12)


def test_interval_endpoints_become_exact_fractions():
    class FractionSubclass(F):
        pass

    lo, hi = F(1, 3), FractionSubclass(1, 2)
    interval = RatInterval(lo, hi)
    assert interval.lo is lo
    assert type(interval.hi) is F and interval.hi == F(1, 2)
    unit = RatInterval(0, 1)
    assert (type(unit.lo), type(unit.hi)) == (F, F)
    assert str(unit) == "[0, 1)"


def test_interval_encloses():
    outer = RatInterval(F(0), F(1), hi_closed=True)
    assert outer.encloses(RatInterval(F(1, 3), F(1, 2)))
    assert outer.encloses(outer)
    half_open = RatInterval(F(0), F(1))
    assert not half_open.encloses(outer)  # closed right end sticks out
    assert not RatInterval(F(1, 4), F(1, 2)).encloses(RatInterval(F(1, 8), F(1, 3)))


def test_interval_str():
    assert str(RatInterval(F(2, 3), F(3, 4))) == "[2/3, 3/4)"
    assert str(RatInterval(F(0), F(1), hi_closed=True)) == "[0, 1]"


# -- cylinders ---------------------------------------------------------------


def test_cylinder_known_intervals():
    # endpoints worked out by hand from the digit-prefix identity
    assert cylinder_interval([2]) == RatInterval(F(1, 2), F(1))
    assert cylinder_interval([2, 3]) == RatInterval(F(2, 3), F(3, 4))
    assert cylinder_interval([3, 4, 7]) == RatInterval(F(3, 7), F(31, 72))


def test_cylinder_known_lengths():
    assert cylinder_length([2, 3]) == F(1, 12)
    assert cylinder_length([5, 17]) == F(1, 1360)
    assert cylinder_length([2]) == F(1, 2)


def test_cylinder_length_equals_endpoint_difference():
    # two independent routes to the same quantity
    rng = random.Random(5150)
    for _ in range(200):
        length = rng.randint(1, 5)
        digits = []
        d = 2
        for _ in range(length):
            d += rng.randint(0, 6)
            digits.append(d)
        word = DigitWord(digits)
        assert cylinder_length(word) == cylinder_interval(word).length


def test_cylinder_starts_at_reconstruction():
    for word in ([2], [2, 3], [3, 4, 7], [4, 6, 17]):
        interval = cylinder_interval(word)
        assert interval.lo == reconstruct(word)
        assert interval.lo in interval


def test_cylinder_membership_matches_digit_prefix():
    # points inside must expand to the word, points outside must not
    words = [[2], [3], [2, 3], [5, 17], [3, 4, 7], [2, 2, 2]]
    for digits in words:
        word = DigitWord(digits)
        interval = cylinder_interval(word)
        n = len(word)
        step = interval.length / 7
        inside = [interval.lo + step * j for j in range(7)]
        for x in inside:
            assert tuple(engel_digits(x, n).digits) == word
        outside = [interval.lo / 2, interval.hi]
        if interval.hi < 1:
            outside.append(interval.hi + (1 - interval.hi) / 3)
        for x in outside:
            if 0 < x < 1:
                assert tuple(engel_digits(x, n).digits) != word


def test_longer_prefixes_nest_inside_shorter_ones():
    rng = random.Random(314)
    for _ in range(100):
        digits = [rng.randint(2, 9)]
        for _ in range(3):
            digits.append(rng.randint(digits[-1], digits[-1] + 5))
        child = cylinder_interval(digits)
        parent = cylinder_interval(digits[:-1])
        assert parent.encloses(child)


def test_reconstruct_known_values():
    assert reconstruct([2]) == F(1, 2)
    assert reconstruct([2, 3]) == F(2, 3)
    assert reconstruct([3, 4, 7]) == F(3, 7)


def test_reconstruct_rejects_inadmissible_words():
    with pytest.raises(InvalidWordError):
        reconstruct([4, 3])
    with pytest.raises(InvalidWordError):
        cylinder_interval([])
