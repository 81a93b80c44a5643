import math
import tracemalloc
from fractions import Fraction as F

import pytest

from engeldim import (
    DomainError,
    EvaluationError,
    SequenceFamily,
    SizeLimitError,
    empirical_cover_fit,
    estimate_dimension,
    formula_quotient,
    log_rational,
)

# sampled levels for closed-form comparisons; the acceptance suite sweeps
# the full range
SAMPLE_LEVELS = (1, 2, 3, 5, 10, 50, 100, 500, 1000)


def closed_form_42(n: int) -> float:
    return n / (2 * (n + 3))


def closed_form_22(n: int) -> float:
    return n / (n + 2)


def closed_form_21(n: int) -> float:
    return n / ((n + 1) * (n + 2) / 2 + n)


# The covering and separation quotients of one level, from s(n) and t(n)
# alone: O(n) evaluations per level, sharing nothing with the level walker
# that estimate_dimension reads.


def oracle_branch_count(f: SequenceFamily, k: int) -> int:
    return math.floor(f.s(k) + f.t(k)) - math.floor(f.s(k))


def oracle_prod_s(f: SequenceFamily, n: int) -> F:
    return math.prod((f.s(k) for k in range(1, n + 1)), start=F(1))


def upper_bound_quotient(f: SequenceFamily, n: int) -> float:
    """log N_n over -log delta_n, both quantities exact."""
    count = math.prod(oracle_branch_count(f, k) for k in range(1, n + 1))
    delta = 4 * f.t(n + 1) / (oracle_prod_s(f, n) * f.s(n + 1) ** 2)
    return log_rational(count) / -log_rational(delta)


def lower_bound_quotient(f: SequenceFamily, n: int) -> float:
    """log(m_1...m_{n-1}) over -log(m_n * epsilon_n); needs n >= 2.

    At n = 1 the numerator product is empty and the quotient is undefined.
    """
    if n < 2:
        raise ValueError(f"lower quotient needs level >= 2, got {n}")
    num = 0.0
    for k in range(1, n):
        num += log_rational(oracle_branch_count(f, k))
    eps = 1 / (2 ** (n + 3) * oracle_prod_s(f, n) * f.s(n))
    return num / -log_rational(oracle_branch_count(f, n) * eps)


# -- formula quotient ------------------------------------------------------


def test_formula_quotient_known_values(fam42, fam22):
    assert formula_quotient(fam42, 1) == pytest.approx(0.125, abs=1e-14)
    assert formula_quotient(fam42, 10) == pytest.approx(10 / 26, abs=1e-14)
    assert formula_quotient(fam22, 2) == pytest.approx(0.5, abs=1e-14)


def test_formula_quotient_matches_closed_forms(fam42, fam22, fam21):
    for fam, closed in ((fam42, closed_form_42), (fam22, closed_form_22),
                        (fam21, closed_form_21)):
        for n in SAMPLE_LEVELS:
            assert formula_quotient(fam, n) == pytest.approx(
                closed(n), rel=1e-12
            )


@pytest.mark.parametrize("fam", [
    SequenceFamily.geometric(4, 2),
    SequenceFamily.geometric(2, 2),
    SequenceFamily.power_geometric(4, F(1, 2)),
    SequenceFamily.geometric(2, 1, t_coef=2),
    SequenceFamily.geometric(3, 2),
], ids=["4n-2n", "2n-2n", "power-geometric-4-half", "2n-2", "3n-2n"])
def test_formula_quotient_is_the_reported_value_to_the_bit(fam):
    report = estimate_dimension(fam, 300)
    for n in range(1, 301):
        assert formula_quotient(fam, n) == report.formula[n - 1], n


def independent_fold(f: SequenceFamily, n_max: int):
    """formula, upper and lower of levels 1..n_max from s(k), t(k) and
    their floors, summed in the order the report sums them."""
    logs = [(log_rational(f.s(k)), log_rational(f.t(k)),
             log_rational(oracle_branch_count(f, k))) for k in range(1, n_max + 2)]
    formula, upper, lower = [], [], []
    sum_s = sum_t = sum_m = 0.0
    for n in range(1, n_max + 1):
        (log_s, log_t, log_m), (log_s_next, log_t_next, _) = logs[n - 1], logs[n]
        sum_s += log_s
        sum_t += log_t
        lower.append(None if n == 1 else sum_m / (
            (n + 3) * math.log(2) + sum_s + log_s - log_m))
        sum_m += log_m
        den = sum_s + 2 * log_s_next - log_t_next
        formula.append(sum_t / den)
        upper.append(sum_m / (den - math.log(4)))
    return tuple(formula), tuple(upper), tuple(lower)


def rational_table(entries: int) -> SequenceFamily:
    """Valid table whose s_k are never and whose t_k are sometimes integral."""
    pairs, s = [], F(9, 2)
    for k in range(entries):
        t = F(5, 2) + F(k, 2)
        pairs.append((s, t))
        s += t + F(k % 3, 7)
    return SequenceFamily.from_pairs(pairs)


@pytest.mark.parametrize("fam", [
    SequenceFamily.geometric(4, 2),
    SequenceFamily.geometric(2, 2),
    SequenceFamily.geometric(2, 1, t_coef=2),
    SequenceFamily.geometric(3, 2),
    SequenceFamily.power_geometric(4, F(1, 2)),
    SequenceFamily.geometric(F(10, 3), F(7, 3), 3, 2),
    rational_table(301),
], ids=["4n-2n", "2n-2n", "2n-2", "3n-2n", "power-geometric-4-half",
        "fraction-terms", "rational-table"])
def test_report_equals_an_independent_fold_to_the_bit(fam):
    formula, upper, lower = independent_fold(fam, 300)
    for n_max in range(1, 301):
        report = estimate_dimension(fam, n_max)
        assert report.formula == formula[:n_max], n_max
        assert report.upper == upper[:n_max], n_max
        assert report.lower == lower[:n_max], n_max


def test_fold_families_take_both_branch_count_paths():
    # the fraction-terms family has no integral t_k, so no window holds
    # t_k digits; the table has windows of both kinds
    fam = SequenceFamily.geometric(F(10, 3), F(7, 3), 3, 2)
    assert all(fam.t(k).denominator > 1 for k in range(1, 302))
    table = rational_table(301)
    assert {table.t(k) == oracle_branch_count(table, k) for k in range(1, 302)} == {
        True, False}


def test_formula_quotient_validates_level(fam42):
    with pytest.raises(DomainError):
        formula_quotient(fam42, 0)


# -- covering quotient ------------------------------------------------------


def test_upper_bound_quotient_known_values(fam42, fam22):
    # by hand: log 2 / log 64 and log 2 / log 2
    assert upper_bound_quotient(fam42, 1) == pytest.approx(1 / 6, abs=1e-12)
    assert upper_bound_quotient(fam22, 1) == pytest.approx(1.0, abs=1e-12)


def test_upper_bound_approaches_the_formula(fam42):
    diff = abs(upper_bound_quotient(fam42, 1000) - formula_quotient(fam42, 1000))
    assert diff < 0.01


# -- separation quotient -------------------------------------------------------


def test_lower_bound_quotient_known_values(fam42, fam22):
    # by hand: log 2 / log 8192 and log 2 / log 256
    assert lower_bound_quotient(fam42, 2) == pytest.approx(1 / 13, abs=1e-12)
    assert lower_bound_quotient(fam22, 2) == pytest.approx(1 / 8, abs=1e-12)


def test_lower_bound_quotient_undefined_at_level_one(fam42):
    assert estimate_dimension(fam42, 1).lower == (None,)
    with pytest.raises(ValueError):
        lower_bound_quotient(fam42, 1)


def test_lower_bound_is_nonnegative(test_families):
    for fam in test_families:
        for n in (2, 3, 7, 20):
            assert lower_bound_quotient(fam, n) >= 0


# -- the three sequences together -----------------------------------------------


def test_report_matches_per_level_operations(fam42):
    # the sweep and the standalone evaluations share nothing but formulas
    report = estimate_dimension(fam42, 30)
    for n in range(1, 31):
        assert report.formula[n - 1] == pytest.approx(
            formula_quotient(fam42, n), abs=1e-12
        )
        assert report.upper[n - 1] == pytest.approx(
            upper_bound_quotient(fam42, n), abs=1e-12
        )
        if n == 1:
            assert report.lower[0] is None
        else:
            assert report.lower[n - 1] == pytest.approx(
                lower_bound_quotient(fam42, n), abs=1e-12
            )


def test_quotients_stay_in_the_unit_interval(test_families):
    for fam in test_families:
        report = estimate_dimension(fam, 200)
        values = list(report.formula) + list(report.upper) + [
            v for v in report.lower if v is not None
        ]
        assert all(-1e-12 <= v <= 1 + 1e-12 for v in values)


def test_covering_denominator_identity(test_families):
    # -log delta_n equals the formula denominator minus log 4; both sides
    # arrive by different exact routes
    for fam in test_families:
        for n in range(1, 41):
            den = sum(log_rational(fam.s(k)) for k in range(1, n + 2))
            den += log_rational(fam.s(n + 1)) - log_rational(fam.t(n + 1))
            lhs = -log_rational(fam.level_quantities(n).diameter_bound)
            assert lhs == pytest.approx(den - math.log(4), abs=1e-9)


def test_covering_count_log_is_bounded_by_window_budget(test_families):
    # sum log m_k <= n log 2 + sum log t_k, since m_k < 2 t_k
    for fam in test_families:
        for n in (1, 5, 20, 40):
            lhs = sum(log_rational(oracle_branch_count(fam, k)) for k in range(1, n + 1))
            rhs = n * math.log(2) + sum(
                log_rational(fam.t(k)) for k in range(1, n + 1)
            )
            assert lhs <= rhs + 1e-9


# -- the report -------------------------------------------------------------------


def test_estimate_dimension_report_shape(fam42):
    report = estimate_dimension(fam42, 50, tail_window=5)
    assert report.n_max == 50
    assert report.tail_window == 5
    assert len(report.formula) == 50
    assert len(report.upper) == 50
    assert len(report.lower) == 50
    assert report.lower[0] is None
    assert report.estimated_dim == report.tail_min_formula
    assert report.estimated_dim == min(report.formula[-5:])
    assert "proxy" in report.caveat


def test_estimate_dimension_default_tail_window(fam42):
    assert estimate_dimension(fam42, 200).tail_window == 20
    assert estimate_dimension(fam42, 5).tail_window == 1


def test_estimate_dimension_flags_non_monotone_tails(fam42, fam21):
    # the formula quotient rises for one family and falls for the other
    assert estimate_dimension(fam42, 100).monotone_tail
    assert not estimate_dimension(fam21, 100).monotone_tail


def test_estimate_dimension_validation(fam42):
    with pytest.raises(DomainError):
        estimate_dimension(fam42, 0)
    with pytest.raises(DomainError):
        estimate_dimension(fam42, 10, tail_window=11)
    with pytest.raises(DomainError):
        estimate_dimension(fam42, 10, tail_window=0)


def test_estimated_dimension_hits_known_limits(fam42, fam22, fam21):
    assert estimate_dimension(fam42, 2000).estimated_dim == pytest.approx(
        0.5, abs=0.002
    )
    assert estimate_dimension(fam22, 2000).estimated_dim == pytest.approx(
        1.0, abs=0.002
    )
    assert estimate_dimension(fam21, 2000).estimated_dim < 0.01


# -- empirical cover fit ------------------------------------------------------------


def test_cover_fit_tracks_the_formula_quotient(fam42, fam22, fam21):
    # slope within 0.1 of the mean quotient over the fitted depths
    cases = (
        (fam22, range(2, 7), 2**22),
        (fam42, range(2, 7), 2**22),
        (fam21, range(8, 13), None),
    )
    for fam, depths, limit in cases:
        fit = empirical_cover_fit(fam, list(depths), limit=limit)
        mean = sum(formula_quotient(fam, n) for n in depths) / len(list(depths))
        assert abs(fit.slope - mean) < 0.1


def test_cover_fit_slope_for_the_full_window_family(fam22):
    fit = empirical_cover_fit(fam22, [2, 3, 4, 5, 6], limit=2**22)
    assert 0.5 < fit.slope <= 1.0
    assert fit.depths == (2, 3, 4, 5, 6)
    assert len(fit.log_counts) == 5
    # y values are exact log counts
    assert fit.log_counts[0] == pytest.approx(math.log(8), abs=1e-12)


def test_cover_fit_needs_two_depths(fam42):
    with pytest.raises(DomainError):
        empirical_cover_fit(fam42, [3])
    with pytest.raises(DomainError):
        empirical_cover_fit(fam42, [0, 2])


@pytest.mark.parametrize("depths", [[2.7, 3], ["2", "3"], [2, 3.0], [2, None]])
def test_cover_fit_refuses_depths_that_are_not_integers(fam42, depths):
    # int() would truncate 2.7 to 2 and parse "2", so the fit would run on
    # depths nobody asked for
    with pytest.raises(DomainError, match="depths must be integers"):
        empirical_cover_fit(fam42, depths)


def test_cover_fit_respects_the_level_limit(fam22):
    with pytest.raises(SizeLimitError) as info:
        empirical_cover_fit(fam22, [2, 6], limit=1000)
    assert info.value.count == 2**21


def _outcome(call):
    try:
        call()
    except (SizeLimitError, EvaluationError) as exc:
        return type(exc), str(exc)
    return None


def _full_sweep_refusal(f: SequenceFamily, depths, limit: int) -> None:
    # a walk of every level to the deepest depth that checks the count
    # at the wanted depths only
    for lq in f.iter_level_quantities(max(depths)):
        if lq.n in depths and lq.count > limit:
            raise SizeLimitError(lq.count, limit, f"depth {lq.n}")


def test_cover_fit_refusals_agree_with_a_full_sweep():
    # tables that end before, at and past the level the refused depth
    # reads: an EvaluationError up to level refused + 1 still comes first
    pairs = [(2**k, 2**k) for k in range(1, 14)]
    seen = set()
    for entries in range(2, 14):
        fam = SequenceFamily.from_pairs(pairs[:entries])
        for deepest in range(3, 15):
            for depths in ([2, deepest], [deepest, 2], [1, 3, deepest, 5]):
                expected = _outcome(lambda: _full_sweep_refusal(fam, depths, 1000))
                got = _outcome(lambda: empirical_cover_fit(fam, depths, 1000))
                assert got == expected, (entries, depths)
                seen.add(None if expected is None else expected[0])
    assert seen == {None, SizeLimitError, EvaluationError}


def test_cover_fit_is_scale_free_in_the_point_order(fam22):
    forward = empirical_cover_fit(fam22, [2, 3, 4, 5, 6], limit=2**22)
    shuffled = empirical_cover_fit(fam22, [5, 2, 6, 3, 4], limit=2**22)
    assert forward.slope == pytest.approx(shuffled.slope, abs=1e-15)


def test_deep_sweep_memory_stays_small(fam42):
    # the sweep keeps floats per level and no exact per-level table; a
    # table of s_k and t_k alone would hold about 22 MB at this depth
    tracemalloc.start()
    try:
        estimate_dimension(fam42, 10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
