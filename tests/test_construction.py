import collections
import gc
import inspect
import itertools
import math
import random
import tracemalloc
import types
import weakref
from fractions import Fraction as F
from math import floor

import pytest

from engeldim import (
    ConditionError,
    DomainError,
    EvaluationError,
    InternalError,
    InvalidWordError,
    RatInterval,
    SequenceFamily,
    SizeLimitError,
    cylinder_interval,
    empirical_cover_fit,
    estimate_dimension,
    formula_quotient,
    is_admissible,
)
from engeldim import construction, dimension


def random_valid_table(rng: random.Random, depth: int, t_max: int = 8):
    """Random (s, t) table satisfying the window conditions by build.

    t is capped at t_max so the level counts stay enumerable in a test run.
    """
    pairs = []
    s = F(rng.randint(2, 12))
    for _ in range(depth):
        t = F(rng.randint(2, min(int(s), t_max)))
        pairs.append((s, t))
        s = s + t + F(rng.randint(0, 5))
    return pairs


# -- constructors ------------------------------------------------------------


def test_geometric_rejects_nonpositive_parameters():
    for args in ((0, 2), (4, 0), (-2, 2), (4, 2, -1, 1), (4, 2, 1, 0)):
        with pytest.raises(DomainError):
            SequenceFamily.geometric(*args)


@pytest.mark.parametrize("build, message", [
    (lambda: SequenceFamily.geometric("x", 2), "s_ratio is not a rational: 'x'"),
    (lambda: SequenceFamily.geometric(None, 2), "s_ratio is not a rational: None"),
    (lambda: SequenceFamily.geometric(4, "2/0"), "t_ratio is not a rational: '2/0'"),
    (lambda: SequenceFamily.geometric(4, 2, [1], 1), "s_coef is not a rational: [1]"),
    (lambda: SequenceFamily.geometric(4, 2, 1, float("nan")),
     "t_coef is not a rational: nan"),
    (lambda: SequenceFamily.power_geometric("1/0", 1), "base is not a rational: '1/0'"),
    (lambda: SequenceFamily.power_geometric(4, float("inf")),
     "theta is not a rational: inf"),
    (lambda: SequenceFamily.from_pairs([(float("inf"), 2)]),
     "pair 1 is not a rational pair: (inf, 2)"),
], ids=["text", "none", "zero-denominator", "list", "nan", "power-base",
        "power-theta-inf", "pair-inf"])
def test_constructors_name_a_non_rational_parameter(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def test_power_geometric_evaluates_exactly():
    fam = SequenceFamily.power_geometric(4, F(1, 2))
    assert fam.s(3) == 64
    assert fam.t(3) == 8  # 4**(3/2)
    fam = SequenceFamily.power_geometric(F(9, 4), F(1, 2))
    assert fam.t(2) == F(9, 4)  # (3/2)**2
    fam = SequenceFamily.power_geometric(8, F(2, 3))
    assert fam.t(2) == 16  # 8**(4/3)


def test_power_geometric_rejects_irrational_values():
    with pytest.raises(DomainError):
        SequenceFamily.power_geometric(2, F(1, 2))
    with pytest.raises(DomainError):
        SequenceFamily.power_geometric(F(3, 2), F(2, 5))


def test_power_geometric_rejects_nonpositive_parameters():
    with pytest.raises(DomainError):
        SequenceFamily.power_geometric(0, F(1, 2))
    with pytest.raises(DomainError):
        SequenceFamily.power_geometric(4, 0)


def test_from_pairs_matches_geometric_prefix(fam42):
    table = SequenceFamily.from_pairs([(4, 2), (16, 4), (64, 8), (256, 16)])
    for n in range(1, 4):
        assert table.digit_range(n) == fam42.digit_range(n)
        assert table.level_quantities(n) == fam42.level_quantities(n)


def test_from_pairs_fails_beyond_the_table():
    table = SequenceFamily.from_pairs([(4, 2), (16, 4)])
    assert table.s(2) == 16
    with pytest.raises(EvaluationError):
        table.s(3)


def test_from_pairs_validation():
    with pytest.raises(DomainError):
        SequenceFamily.from_pairs([])
    with pytest.raises(DomainError):
        SequenceFamily.from_pairs([(4, 0)])
    with pytest.raises(DomainError):
        SequenceFamily.from_pairs([(4,)])


@pytest.mark.parametrize("bad", [(16, -1), (F(16), F(-1)), ("16", "-1")],
                         ids=["ints", "fractions", "strings"])
def test_from_pairs_names_a_non_positive_pair_by_its_values(bad):
    with pytest.raises(DomainError) as info:
        SequenceFamily.from_pairs([(4, 2), bad])
    assert str(info.value) == "pair 2 must be positive, got (16, -1)"


def test_from_function_wraps_generator_failures():
    fam = SequenceFamily.from_function(
        lambda n: 4**n, lambda n: 2**n if n < 3 else 1 / 0
    )
    assert fam.t(2) == 4
    with pytest.raises(EvaluationError):
        fam.t(3)
    negative = SequenceFamily.from_function(lambda n: 4**n, lambda n: -(2**n))
    with pytest.raises(EvaluationError):
        negative.t(1)


def test_sequence_index_must_be_positive(fam42):
    with pytest.raises(DomainError):
        fam42.s(0)


# -- condition checking --------------------------------------------------------


def test_check_conditions_accepts_the_reference_families(test_families):
    for fam in test_families:
        report = fam.check_conditions(50)
        assert report.all_ok
        assert report.bounds_violation is None
        assert report.growth_violation is None
        assert report.divergence == "certified"


def test_check_conditions_holds_with_growth_equality(fam22):
    # s_{n+1} = s_n + t_n exactly at every n
    report = fam22.check_conditions(50)
    assert report.growth_ok
    for n in range(1, 51):
        assert fam22.s(n + 1) == fam22.s(n) + fam22.t(n)


def test_check_conditions_flags_bounds_failure():
    fam = SequenceFamily.from_function(lambda n: 2**n, lambda n: 2**n + 1)
    report = fam.check_conditions(10)
    assert not report.bounds_ok
    assert report.bounds_violation == 1
    assert not report.all_ok
    assert report.divergence == "asserted"


def test_check_conditions_flags_growth_failure():
    # constant s cannot climb by t each step
    fam = SequenceFamily.geometric(1, 1, s_coef=5, t_coef=2)
    report = fam.check_conditions(10)
    assert report.bounds_ok
    assert not report.growth_ok
    assert report.growth_violation == 1
    assert report.divergence == "violated-at-depth"
    assert not report.all_ok


def test_check_conditions_reports_first_violating_index():
    pairs = [(4, 2), (16, 4), (64, 70), (100, 2), (400, 2)]
    fam = SequenceFamily.from_pairs(pairs)
    report = fam.check_conditions(4)
    assert report.bounds_violation == 3  # t_3 > s_3
    assert report.growth_violation == 3  # s_4 = 100 < 64 + 70


def test_check_conditions_depth_validation(fam42):
    with pytest.raises(DomainError):
        fam42.check_conditions(0)


def test_operations_raise_on_violated_conditions():
    fam = SequenceFamily.from_function(lambda n: 4**n, lambda n: 5**n)
    with pytest.raises(ConditionError) as info:
        fam.digit_range(2)
    assert info.value.condition == 1
    assert info.value.index == 1
    slow = SequenceFamily.from_pairs([(4, 2), (5, 2), (6, 2)])
    with pytest.raises(ConditionError) as info:
        slow.digit_range(2)
    assert info.value.condition == 2


# -- digit windows ---------------------------------------------------------------


def test_digit_range_known_values(fam42):
    assert fam42.digit_range(1) == (5, 6)
    assert fam42.digit_range(2) == (17, 20)


def test_digit_range_floors_rational_values():
    fam = SequenceFamily.from_pairs([(F(9, 2), 2), (F(27, 2), F(5, 2))])
    assert fam.digit_range(1) == (5, 6)
    fam = SequenceFamily.from_pairs([(F(9, 2), F(5, 2)), (F(27, 2), F(5, 2))])
    assert fam.digit_range(1) == (5, 7)  # floor(7) - floor(9/2) = 3 digits


def test_branch_and_word_counts(fam42):
    assert [fam42.level_quantities(n).m_n for n in (1, 2, 3)] == [2, 4, 8]
    assert fam42.word_count(3) == 64
    assert fam42.word_count(1) == 2


def test_count_identity_and_bounds(test_families):
    for fam in test_families:
        for n in range(1, 7):
            quantities = fam.level_quantities(n)
            product = 1
            for k in range(1, n + 1):
                lo, hi = fam.digit_range(k)
                product *= hi - lo + 1
            assert quantities.count == product
            # exact rational comparisons, not floating ones
            cap = F(2) ** n
            for k in range(1, n + 1):
                cap *= fam.t(k)
            assert quantities.count <= cap
            m_n = quantities.m_n
            t_n = fam.t(n)
            assert t_n / 2 < m_n < 2 * t_n
            assert m_n >= 2


def test_iter_words_order_count_and_admissibility(fam42):
    level1 = list(fam42.iter_words(1))
    assert level1 == [(5,), (6,)]
    level2 = list(fam42.iter_words(2))
    assert len(level2) == 8
    assert level2[0] == (5, 17)
    assert level2[-1] == (6, 20)
    assert level2 == sorted(level2)
    assert all(is_admissible(w) for w in level2)


def per_window_draws(fam, n, count, rng):
    """count level-n words, each one rng.randint(lo, hi) per window in
    level order: the draw contract of sample_level."""
    windows = [fam.digit_range(k) for k in range(1, n + 1)]
    return [tuple(rng.randint(lo, hi) for lo, hi in windows) for _ in range(count)]


def test_sample_words_is_seeded_and_in_range(fam42):
    _, words_a, _ = fam42.sample_level(3, 20, random.Random(11))
    _, words_b, _ = fam42.sample_level(3, 20, random.Random(11))
    assert words_a == words_b
    assert words_a == per_window_draws(fam42, 3, 20, random.Random(11))
    assert len(set(words_a)) > 1
    ranges = [fam42.digit_range(k) for k in (1, 2, 3)]
    for word in words_a:
        assert len(word) == 3
        for digit, (j_min, j_max) in zip(word, ranges):
            assert j_min <= digit <= j_max


# -- basic intervals ----------------------------------------------------------------


def test_basic_interval_known_endpoints(fam42):
    # summed the four child cylinders by hand
    assert fam42.basic_interval([5]) == RatInterval(
        F(21, 100), F(17, 80), lo_closed=True, hi_closed=True
    )
    assert fam42.basic_interval([6]) == RatInterval(
        F(7, 40), F(17, 96), lo_closed=True, hi_closed=True
    )


def test_basic_interval_rejects_words_outside_the_windows(fam42):
    with pytest.raises(InvalidWordError):
        fam42.basic_interval([7])
    with pytest.raises(InvalidWordError):
        fam42.basic_interval([5, 16])


def test_basic_interval_equals_union_of_child_cylinders(test_families):
    # brute-force oracle: children tile the interval with no gaps
    for fam in test_families:
        for n in range(1, 4):
            j_min, j_max = fam.digit_range(n + 1)
            for word in fam.iter_words(n):
                children = sorted(
                    (cylinder_interval(word + (j,)) for j in range(j_min, j_max + 1)),
                    key=lambda iv: iv.lo,
                )
                for left, right in zip(children, children[1:]):
                    assert left.hi == right.lo  # closures tile with no gap
                interval = fam.basic_interval(word)
                assert interval.lo == children[0].lo
                assert interval.hi == children[-1].hi


def test_basic_interval_length_closed_form(test_families):
    for fam in test_families:
        for n in range(1, 4):
            j_min, j_max = fam.digit_range(n + 1)
            for word in fam.iter_words(n):
                prod = 1
                for d in word:
                    prod *= d
                expected = F(1, prod) * (F(1, j_min - 1) - F(1, j_max))
                assert fam.basic_interval(word).length == expected


def test_max_interval_length_matches_enumeration(test_families):
    for fam in test_families:
        for n in range(1, 5):
            enumerated = max(iv.length for iv in fam.level_intervals(n))
            assert fam.level_quantities(n).max_length == enumerated


# -- level sets -------------------------------------------------------------------


def test_level_zero_is_the_unit_interval(fam42):
    intervals = fam42.level_intervals(0)
    assert intervals == [RatInterval(F(0), F(1), lo_closed=True, hi_closed=True)]
    assert fam42.min_gap(0) is None


def test_level_one_is_sorted_and_disjoint(fam42):
    intervals = fam42.level_intervals(1)
    assert intervals == [fam42.basic_interval([6]), fam42.basic_interval([5])]
    assert intervals[0].hi < intervals[1].lo


def test_levels_are_sorted_disjoint_and_nested(test_families):
    for fam in test_families:
        previous = fam.level_intervals(0)
        for n in range(1, 5):
            intervals = fam.level_intervals(n)
            assert len(intervals) == fam.word_count(n)
            for left, right in zip(intervals, intervals[1:]):
                assert left.hi < right.lo  # strictly positive gaps
            for interval in intervals:
                parents = [p for p in previous if p.encloses(interval)]
                assert len(parents) == 1
            previous = intervals


def test_level_size_limit_reports_exact_count(fam22):
    with pytest.raises(SizeLimitError) as info:
        fam22.level_intervals(10, limit=100)
    assert info.value.count == 2**55  # product of 2^k for k <= 10
    assert info.value.limit == 100
    with pytest.raises(SizeLimitError):
        fam22.min_gap(10, limit=100)


def brute_force_level(fam, n):
    """Every level-n word's basic interval, sorted by left endpoint."""
    if n == 0:
        return fam.level_intervals(0)
    return sorted((fam.basic_interval(w) for w in fam.iter_words(n)),
                  key=lambda iv: iv.lo)


def enumeration_families():
    # the three acceptance families, a family with non-integer s_n and t_n,
    # and 20 seeded tables of branch counts 2 or 3
    rng = random.Random(20261018)
    return [
        SequenceFamily.geometric(4, 2),
        SequenceFamily.geometric(2, 2),
        SequenceFamily.geometric(2, 1, t_coef=2),
        SequenceFamily.geometric(F(5, 2), F(5, 4), s_coef=4, t_coef=2),
    ] + [SequenceFamily.from_pairs(random_valid_table(rng, 6, t_max=3))
         for _ in range(20)]


def test_level_intervals_equal_the_sorted_brute_force_level():
    # levels over 4096 words are left out: through basic_interval the two
    # 32768-word levels of (4^n, 2^n) and (2^n, 2^n) take seconds each
    for fam in enumeration_families():
        for n in range(6):
            if fam.word_count(n) > 4096:
                continue
            intervals = fam.level_intervals(n)
            assert intervals == brute_force_level(fam, n), (fam.description, n)
            longest = max(iv.length for iv in intervals)
            assert intervals[-1].length == longest
            if n >= 1:
                assert fam.level_quantities(n).max_length == longest


def test_level_intervals_leave_no_reference_cycle(fam21):
    # a cycle through the builder would keep the level alive until the
    # cyclic collector runs
    gc.disable()
    try:
        intervals = fam21.level_intervals(12)
        ref = weakref.ref(intervals[len(intervals) // 2])
        del intervals
        assert ref() is None
    finally:
        gc.enable()


def test_level_enumeration_memory_stays_small(fam21):
    # 8192 intervals hold about 3.1 MB and the build peaks near 3.6 MB;
    # holding the level-n prefix states as well peaks near 4.3 MB
    tracemalloc.start()
    try:
        fam21.level_intervals(13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_sample_level_matches_the_per_word_operations(test_families):
    for fam in test_families:
        for n in (1, 3, 6):
            count, words, intervals = fam.sample_level(n, 12, random.Random(n))
            expected = per_window_draws(fam, n, 12, random.Random(n))
            assert words == expected
            assert intervals == [fam.basic_interval(w) for w in expected]
            assert count == fam.word_count(n)
    with pytest.raises(DomainError):
        test_families[0].sample_level(0, 3, random.Random(0))
    with pytest.raises(DomainError):
        test_families[0].sample_level(2, 0, random.Random(0))


def test_min_gap_known_value(fam42):
    # 21/100 - 17/96, endpoints of the two level-1 intervals
    assert fam42.min_gap(1) == F(79, 2400)


# -- the two exact bounds ------------------------------------------------------------


def test_diameter_bound_known_values(fam42, fam22):
    assert fam42.level_quantities(1).diameter_bound == F(1, 64)
    assert fam42.level_quantities(2).diameter_bound == F(1, 8192)
    assert fam22.level_quantities(1).diameter_bound == F(1, 2)


def test_gap_bound_known_values(fam42):
    assert fam42.level_quantities(1).gap_bound == F(1, 256)
    assert fam42.level_quantities(2).gap_bound == F(1, 32768)


def test_diameter_bound_dominates_every_interval(test_families):
    for fam in test_families:
        for n in range(1, 5):
            bound = fam.level_quantities(n).diameter_bound
            assert all(iv.length <= bound for iv in fam.level_intervals(n))


def test_gap_bound_is_below_every_gap(test_families):
    for fam in test_families:
        for n in range(1, 5):
            assert fam.min_gap(n) >= fam.level_quantities(n).gap_bound


def test_gap_bound_strictly_decreases(test_families):
    for fam in test_families:
        for n in range(2, 21):
            assert (fam.level_quantities(n - 1).gap_bound
                    > fam.level_quantities(n).gap_bound)


def level_error(call):
    """(class, condition, index, message) of the error a call raises."""
    with pytest.raises((ConditionError, EvaluationError)) as info:
        call()
    exc = info.value
    return (type(exc), getattr(exc, "condition", None),
            getattr(exc, "index", None), str(exc))


@pytest.mark.parametrize("pairs, n", [
    ([(4, 2), (16, 4), (17, 8), (200, 8)], 2),  # s_3 = 17 < s_2 + t_2 = 20
    ([(4, 2), (16, 4), (64, 8)], 3),  # window 4 lies past the table
])
def test_level_bounds_fail_where_the_level_intervals_do(pairs, n):
    # the level-n intervals are built from window n + 1, so every level-n
    # quantity needs the conditions and the terms up to level n + 1
    fam = SequenceFamily.from_pairs(pairs)
    errors = [level_error(call) for call in (
        lambda: fam.min_gap(n), lambda: fam.level_quantities(n).diameter_bound,
        lambda: fam.level_quantities(n), lambda: fam.level_quantities(n).gap_bound)]
    assert errors == [errors[0]] * 4


def test_level_quantities_consistency(fam42):
    swept = list(fam42.iter_level_quantities(5))
    for n in range(1, 6):
        quantities = fam42.level_quantities(n)
        assert quantities.n == n
        assert quantities.count == fam42.word_count(n)
        j_min, j_max = fam42.digit_range(n)
        assert quantities.m_n == j_max - j_min + 1
        assert quantities.diameter_bound == swept[n - 1].diameter_bound
        assert quantities.gap_bound == swept[n - 1].gap_bound


def test_iter_level_quantities_matches_single_level_calls(fam21):
    swept = list(fam21.iter_level_quantities(6))
    assert [q.n for q in swept] == list(range(1, 7))
    for quantities in swept:
        assert quantities == fam21.level_quantities(quantities.n)


def test_records_held_from_one_sweep_keep_their_own_window_starts(fam42):
    # every record of a sweep reads its starts from the one list the sweep
    # appends to, so a record held while the sweep goes on must still see
    # only the starts of its own levels
    swept = list(fam42.iter_level_quantities(50))
    for lq in swept:
        windows = fam42._windows(lq.n + 1)
        starts = tuple(lo for lo, _ in windows[:-1])
        assert lq.window_starts == starts
        j_min, j_max = windows[-1]
        assert lq.max_length == F(j_max - j_min + 1,
                                  math.prod(starts) * (j_min - 1) * j_max)
        # as a record with its own tuple of starts: equal, with equal hash
        # and text
        own = lq._replace(starts=starts)
        assert lq == own and hash(lq) == hash(own) and repr(lq) == repr(own)


def rational_table_family() -> SequenceFamily:
    """Valid 11-level table whose terms are not integers."""
    pairs, s = [], F(9, 2)
    for k in range(11):
        t = F(5, 2) + F(k, 3)
        pairs.append((s, t))
        s += t + F(1, 7)
    return SequenceFamily.from_pairs(pairs)


def test_level_sweep_matches_the_paper_formulas(test_families):
    # N_n, delta_n, epsilon_n and the longest level-n length from s(k),
    # t(k) and floor alone, sharing no code with the sweep
    for fam in [*test_families, rational_table_family()]:
        s, t = fam.s, fam.t
        for lq in fam.iter_level_quantities(10):
            n = lq.n
            prod_s = math.prod((s(k) for k in range(1, n + 1)), start=F(1))
            count = math.prod(floor(s(k) + t(k)) - floor(s(k))
                              for k in range(1, n + 1))
            corner = math.prod(floor(s(k)) + 1 for k in range(1, n + 1))
            j_min, j_max = floor(s(n + 1)) + 1, floor(s(n + 1) + t(n + 1))
            assert lq.count == count
            assert lq.window_starts == tuple(floor(s(k)) + 1 for k in range(1, n + 1))
            assert lq.diameter_bound == 4 * t(n + 1) / (prod_s * s(n + 1) ** 2)
            assert lq.gap_bound == 1 / (2 ** (n + 3) * prod_s * s(n))
            assert lq.max_length == (F(1, corner * (j_min - 1))
                                     - F(1, corner * j_max))


def test_balanced_product_equals_the_sequential_product():
    assert construction._balanced_prod([]) == math.prod([]) == 1
    assert construction._balanced_prod([7]) == 7
    rng = random.Random(2024)
    for size in (2, 3, 5, 8, 33, 100):
        for bits in (3, 64, 5000):
            factors = [rng.getrandbits(bits) + 2 for _ in range(size)]
            assert construction._balanced_prod(factors) == math.prod(factors)
        mixed = [rng.choice((rng.randint(2, 9), rng.getrandbits(3000)))
                 for _ in range(size)]
        assert construction._balanced_prod(iter(mixed)) == math.prod(mixed)


def test_a_single_level_read_builds_only_its_own_fractions(monkeypatch, fam42):
    built = []

    def counting_fraction(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(construction, "Fraction", counting_fraction)
    quantities = fam42.level_quantities(300)
    assert built == []
    assert quantities.diameter_bound > 0
    assert len(built) == 1
    built.clear()
    assert quantities.max_length > 0
    assert len(built) == 1
    built.clear()
    empirical_cover_fit(fam42, [2, 40], limit=None)
    assert len(built) == 2


# -- randomized table families -------------------------------------------------------


def test_random_valid_tables_satisfy_all_structural_properties():
    rng = random.Random(20260816)
    for _ in range(15):
        depth = rng.randint(2, 5)
        fam = SequenceFamily.from_pairs(random_valid_table(rng, depth + 2))
        report = fam.check_conditions(depth + 1)
        assert report.bounds_ok and report.growth_ok
        assert report.divergence == "asserted"
        n = depth
        quantities = fam.level_quantities(n)
        assert quantities.count == fam.word_count(n)
        intervals = fam.level_intervals(n)
        assert len(intervals) == quantities.count
        for left, right in zip(intervals, intervals[1:]):
            assert left.hi < right.lo
        assert max(iv.length for iv in intervals) <= quantities.diameter_bound
        gap = fam.min_gap(n)
        assert gap is None or gap >= quantities.gap_bound
        for word in itertools.islice(fam.iter_words(n), 50):
            assert is_admissible(word)


# -- the level walker ------------------------------------------------------------


def test_levels_yields_values_and_windows(fam42):
    assert list(fam42.levels(3)) == [
        (4, 2, 5, 6),
        (16, 4, 17, 20),
        (64, 8, 65, 72),
    ]
    assert list(fam42.levels(0)) == []


def test_levels_yields_the_good_prefix_before_raising():
    walk = SequenceFamily.from_pairs([(4, 2), (16, 4), (18, 4)]).levels(3)
    assert next(walk)[:2] == (4, 2)
    assert next(walk)[:2] == (16, 4)
    with pytest.raises(ConditionError) as info:
        next(walk)
    assert (info.value.condition, info.value.index) == (2, 2)


def counting_family():
    """Valid (4^n, 2^n) family whose closures count every evaluation."""
    calls = collections.Counter()

    def s(n):
        calls["s", n] += 1
        return 4**n

    def t(n):
        calls["t", n] += 1
        return 2**n

    return SequenceFamily.from_function(s, t), calls


def read_level_6(family):
    """One level's quantities, with both bounds and the longest length read."""
    quantities = family.level_quantities(6)
    return quantities.diameter_bound, quantities.gap_bound, quantities.max_length


SINGLE_PASS_OPERATIONS = {
    "levels": lambda f: list(f.levels(6)),
    "digit_range": lambda f: f.digit_range(4),
    "word_count": lambda f: f.word_count(4),
    "iter_words": lambda f: list(f.iter_words(3)),
    "sample_level": lambda f: f.sample_level(4, 5, random.Random(1)),
    "basic_interval": lambda f: f.basic_interval([5, 17, 65]),
    "level_intervals": lambda f: f.level_intervals(3),
    "min_gap": lambda f: f.min_gap(3),
    "iter_level_quantities": lambda f: list(f.iter_level_quantities(6)),
    "level_quantities": read_level_6,
    "check_conditions": lambda f: f.check_conditions(6),
    "estimate_dimension": lambda f: estimate_dimension(f, 12),
    "formula_quotient": lambda f: formula_quotient(f, 6),
    "empirical_cover_fit": lambda f: empirical_cover_fit(f, [2, 3, 4, 5, 6]),
}


@pytest.mark.parametrize("name", sorted(SINGLE_PASS_OPERATIONS))
def test_each_operation_evaluates_each_index_at_most_once(name):
    fam, calls = counting_family()
    SINGLE_PASS_OPERATIONS[name](fam)
    assert calls, "the operation evaluated no sequence value"
    repeated = {key: count for key, count in calls.items() if count > 1}
    assert repeated == {}


# public names that walk no levels, each with the reason
NOT_LEVEL_READERS = {
    "geometric": "constructor",
    "power_geometric": "constructor",
    "from_pairs": "constructor",
    "from_function": "constructor",
    "s": "evaluates one term",
    "t": "evaluates one term",
}


def test_every_public_reader_is_in_the_single_pass_registry():
    methods = {name for name, value in vars(SequenceFamily).items()
               if not name.startswith("_")
               and isinstance(value, (types.FunctionType, classmethod))}
    functions = {name for name, value in vars(dimension).items()
                 if not name.startswith("_") and inspect.isfunction(value)
                 and value.__module__ == dimension.__name__}
    assert methods | functions == set(SINGLE_PASS_OPERATIONS) | set(NOT_LEVEL_READERS)
    assert set(SINGLE_PASS_OPERATIONS) & set(NOT_LEVEL_READERS) == set()


WINDOW_READERS = {
    "digit_range": lambda f: f.digit_range(2),
    "word_count": lambda f: f.word_count(2),
    "iter_words": lambda f: list(f.iter_words(2)),
    "basic_interval": lambda f: f.basic_interval([5]),
    "sample_level": lambda f: f.sample_level(1, 3, random.Random(1)),
    "level_intervals": lambda f: f.level_intervals(1),
}


@pytest.mark.parametrize("name", sorted(WINDOW_READERS))
def test_every_window_reader_checks_the_window_order(name, fam42, monkeypatch):
    # overlapping windows, which the walked conditions rule out, so only
    # the window-order check can stop a reader from building on them
    overlapping = [(4, 4, 5, 8), (6, 4, 7, 10)]
    monkeypatch.setattr(SequenceFamily, "levels",
                        lambda self, depth: iter(overlapping[:depth]))
    with pytest.raises(InternalError, match="level 2 starts below 8"):
        WINDOW_READERS[name](fam42)


def require_conditions_oracle(fam, depth):
    # the validation loop that every operation once ran before reading
    # its values, kept verbatim as the oracle of the walker's errors
    s_prev = t_prev = None
    for n in range(1, depth + 1):
        s_n, t_n = fam.s(n), fam.t(n)
        if not s_n >= t_n >= 2:
            raise ConditionError(
                1, n, f"s_{n} >= t_{n} >= 2 fails: s={s_n}, t={t_n}"
            )
        if s_prev is not None and s_n < s_prev + t_prev:
            raise ConditionError(
                2, n - 1,
                f"s_{n} >= s_{n-1} + t_{n-1} fails: {s_n} < {s_prev + t_prev}",
            )
        s_prev, t_prev = s_n, t_n


def condition_outcome(call):
    """(condition, index, message) of the ConditionError raised, or None."""
    try:
        call()
    except ConditionError as exc:
        return exc.condition, exc.index, str(exc)
    except (SizeLimitError, InvalidWordError):
        pass
    return None


def first_reported(report, depth):
    """First violation of a report in the walk's order, as (condition, index).

    The walk checks the bounds at level n before the growth at n - 1, and
    growth at depth needs level depth + 1, past a walk to depth.
    """
    found = []
    if report.bounds_violation is not None:
        found.append((report.bounds_violation, 0, 1, report.bounds_violation))
    if report.growth_violation is not None and report.growth_violation < depth:
        found.append((report.growth_violation + 1, 1, 2, report.growth_violation))
    return min(found)[2:] if found else None


def inject_violation(rng, pairs):
    """Break one condition at a random level of a valid table."""
    pairs = list(pairs)
    k = rng.randrange(len(pairs) - 1)
    s_k, t_k = pairs[k]
    if rng.random() < 0.5:  # bounds: t_k above s_k, or below 2
        pairs[k] = (s_k, rng.choice([s_k + 1, 2 * s_k, F(3, 2)]))
    else:  # growth: s_{k+1} falls short of s_k + t_k
        pairs[k + 1] = (s_k + t_k - rng.choice([F(1, 2), 1, t_k]), pairs[k + 1][1])
    return pairs


def test_walker_errors_agree_with_the_validation_loop():
    rng = random.Random(20261017)
    for _ in range(40):
        pairs = inject_violation(rng, random_valid_table(rng, rng.randint(3, 6)))
        fam = SequenceFamily.from_pairs(pairs)
        word = []
        for s_k, _ in pairs:
            word.append(max(floor(s_k) + 1, word[-1] if word else 2))
        for depth in range(1, len(pairs) + 1):
            expected = condition_outcome(lambda: require_conditions_oracle(fam, depth))
            calls = [lambda: fam.digit_range(depth), lambda: fam.word_count(depth)]
            if depth >= 2:
                calls += [
                    lambda: fam.basic_interval(word[:depth - 1]),
                    lambda: fam.level_intervals(depth - 1, limit=1),
                    lambda: estimate_dimension(fam, depth - 1),
                    lambda: fam.sample_level(depth - 1, 3, random.Random(depth)),
                    lambda: empirical_cover_fit(fam, [1, depth - 1]),
                ]
            for call in calls:
                assert condition_outcome(call) == expected, (pairs, depth)
            if depth < len(pairs):
                reported = first_reported(fam.check_conditions(depth), depth)
                assert reported == (expected[:2] if expected else None), (pairs, depth)


# -- the stepping walker of closed-form families ---------------------------------


STEP_RATIOS = (F(2), F(3), F(4), F(7), F(4, 3), F(3, 2), F(5, 2), F(7, 3), F(10, 3))
STEP_COEFS = (F(1), F(2), F(3), F(9), F(3, 2), F(9, 2), F(5, 4), F(8, 3))


def stepped_families(count: int = 12):
    """(family, s stream integral, t stream integral) for seeded geometric
    families whose conditions hold through level 61, then power-geometric
    ones, and two whose coefficient cancels against the ratio's denominator."""
    rng = random.Random(20261018)
    found = []
    while len(found) < count:
        s_ratio, t_ratio = rng.choice(STEP_RATIOS), rng.choice(STEP_RATIOS)
        s_coef, t_coef = rng.choice(STEP_COEFS), rng.choice(STEP_COEFS)
        fam = SequenceFamily.geometric(s_ratio, t_ratio, s_coef, t_coef)
        if fam.check_conditions(60).all_ok:
            found.append((fam, s_ratio.denominator == s_coef.denominator == 1,
                          t_ratio.denominator == t_coef.denominator == 1))
    assert any(s_int for _, s_int, _ in found)
    assert not all(s_int for _, s_int, _ in found)
    found += [
        (SequenceFamily.power_geometric(8, F(1, 3)), True, True),
        (SequenceFamily.power_geometric(F(125, 8), F(1, 3)), False, False),
        (SequenceFamily.power_geometric(F(27, 8), F(2, 3)), False, False),
        # 9 * (4/3)^n: s_1 = 12 and s_2 = 16 are integers, s_3 = 64/3
        (SequenceFamily.geometric(F(4, 3), 1, s_coef=9, t_coef=2), False, True),
        (SequenceFamily.geometric(F(4, 3), F(4, 3), F(9, 2), F(3, 2)), False, False),
    ]
    return found


def test_stepped_levels_equal_and_print_as_the_evaluated_terms():
    for fam, s_int, t_int in stepped_families():
        rows = list(fam.levels(60))
        assert len(rows) == 60
        for k, (s_k, t_k, j_min, j_max) in enumerate(rows, start=1):
            s, t = fam.s(k), fam.t(k)
            assert (s_k, t_k) == (s, t), (fam.description, k)
            assert (str(s_k), str(t_k)) == (str(s), str(t)), (fam.description, k)
            assert (j_min, j_max) == (floor(s) + 1, floor(s + t)), (fam.description, k)
            assert (type(s_k) is int, type(t_k) is int) == (s_int, t_int)


GEOMETRIC_VIOLATIONS = [
    # (s_ratio, t_ratio, s_coef, t_coef)
    (3, 2, 1, 2),  # t_1 = 4 above s_1 = 3
    (3, 2, 1, 3),
    (2, 3, 1, 1),
    (2, F(1, 2), 8, 8),  # t_3 = 1 below 2
    (F(2, 3), 1, 9, 2),  # s_2 = 4 < s_1 + t_1 = 8; s_2 steps from 6 * 2/3
    (F(3, 2), F(3, 2), 4, 4),  # s_2 = 9 < s_1 + t_1 = 12
    (2, 3, 100, 1),  # t_n overtakes s_n near level 12
    (F(5, 4), F(3, 2), 16, 3),
]


def test_stepped_walker_errors_agree_with_the_validation_loop():
    seen = set()
    for params in GEOMETRIC_VIOLATIONS:
        fam = SequenceFamily.geometric(*params)
        for depth in range(1, 17):
            expected = condition_outcome(lambda: require_conditions_oracle(fam, depth))
            calls = [lambda: list(fam.levels(depth)), lambda: fam.word_count(depth)]
            if depth >= 2:
                calls += [
                    lambda: estimate_dimension(fam, depth - 1),
                    lambda: list(fam.iter_level_quantities(depth - 1)),
                    lambda: fam.level_quantities(depth - 1).diameter_bound,
                    lambda: empirical_cover_fit(fam, [1, depth - 1]),
                ]
            for call in calls:
                assert condition_outcome(call) == expected, (params, depth)
            reported = first_reported(fam.check_conditions(depth), depth)
            assert reported == (expected[:2] if expected else None), (params, depth)
            if expected:
                seen.add(expected)
    assert {condition for condition, _, _ in seen} == {1, 2}
    assert any(index > 10 for _, index, _ in seen)
    # the stepped s_2 of 9 * (2/3)^n prints reduced
    assert (2, 1, "s_2 >= s_1 + t_1 fails: 4 < 8") in seen


def test_closed_form_walks_evaluate_no_sequence_value(monkeypatch):
    calls = collections.Counter()
    for name in ("s", "t"):
        evaluate = getattr(SequenceFamily, name)

        def counted(self, n, name=name, evaluate=evaluate):
            calls[name] += 1
            return evaluate(self, n)

        monkeypatch.setattr(SequenceFamily, name, counted)
    for fam in (SequenceFamily.geometric(4, 2),
                SequenceFamily.geometric(F(10, 3), F(7, 3), 3, 2),
                SequenceFamily.power_geometric(8, F(1, 3))):
        estimate_dimension(fam, 40)
        list(fam.iter_level_quantities(40))
        fam.check_conditions(40)
    assert calls == {}
    # the counter does see the evaluations of a table family
    list(SequenceFamily.from_pairs([(4, 2)]).levels(1))
    assert calls == {"s": 1, "t": 1}
