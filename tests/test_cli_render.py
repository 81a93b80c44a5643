"""The exact N_n, delta_n and epsilon_n cells, rendered through chains of
exact Decimals, against str()."""

import decimal
import sys
from fractions import Fraction as F

import pytest

from engeldim import SequenceFamily, cli, construction

BIG = 3**130_000  # 206,046 bits

INT_COLUMNS = {
    "rising": [1, 3, 3**10, 3**10 * 7**40, BIG * 7**40],
    "falling": [BIG * 7**40, 3**10 * 7**40, 3**10, 3, 1],
    "repeats": [5**1000, 5**1000, 5**1000, 2 * 5**1000, 2 * 5**1000],
    "breaks": [6, 35, 70, 10, BIG, 3 * BIG, 2, 1, 7, 7 * BIG],
    "tiny and huge": [2, 2 * BIG, 2, 7, 7 * BIG * 3**10_000, 1, BIG + 1],
    "signs and zero": [0, 5, 0, -10, 20, -5, 0, 0, 3, -BIG, 3],
}

FRACTION_COLUMN = [
    F(1), F(3), F(5, 2), F(5, 4), F(7), F(BIG, 2), F(3 * BIG), F(1, BIG),
    F(2, 3 * BIG), F(2), F(7, 1), F(-BIG, 5), F(0),
]


@pytest.fixture(autouse=True)
def unlimited_int_strings():
    # str() of the reference values passes the interpreter's default cap
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("name", sorted(INT_COLUMNS))
def test_decimal_column_matches_str(name):
    render = cli._decimal_column()
    values = INT_COLUMNS[name]
    assert [render(x) for x in values] == [str(x) for x in values]


def test_fraction_column_matches_str():
    render = cli._fraction_column()
    assert [render(q.numerator, q.denominator) for q in FRACTION_COLUMN] == [
        str(q) for q in FRACTION_COLUMN
    ]


def test_columns_are_independent():
    first, second = cli._decimal_column(), cli._decimal_column()
    assert first(6) == "6"
    assert second(35) == "35"
    assert first(12) == "12"
    assert second(7) == "7"


def test_exact_cells_match_str_on_a_rational_family():
    fam = SequenceFamily.geometric(F(10, 3), F(7, 3), s_coef=3, t_coef=2)
    levels = fam.iter_level_quantities(40)
    assert list(cli._exact_rows(fam, 40, lambda lq: {})) == [
        {"n": lq.n, "N_n": str(lq.count), "delta_n": str(lq.diameter_bound),
         "epsilon_n": str(lq.gap_bound)} for lq in levels
    ]


def test_rendering_leaves_the_thread_context_alone():
    ctx = decimal.getcontext()
    before = (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
    render = cli._fraction_column()
    for q in FRACTION_COLUMN:
        render(q.numerator, q.denominator)
    assert decimal.getcontext() is ctx
    assert (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)) == before


def counting_decimal(monkeypatch):
    """Record every full int-to-Decimal conversion the renderer makes."""
    converted = []

    def convert(x):
        converted.append(x)
        return decimal.Decimal(x)

    monkeypatch.setattr(cli, "Decimal", convert)
    return converted


def test_full_conversions_happen_only_where_the_chain_breaks(monkeypatch):
    converted = counting_decimal(monkeypatch)
    render = cli._decimal_column()
    values = [3**500, 3**900, 3**700, 5**400, 5**600, 5**600, 2 * 5**600, 7**300, 1]
    assert [render(x) for x in values] == [str(x) for x in values]
    assert converted == [3**500, 5**400, 7**300]


def test_integer_families_convert_only_their_first_level(monkeypatch):
    converted = counting_decimal(monkeypatch)
    first = SequenceFamily.geometric(4, 2).level_quantities(1)
    for _ in cli._exact_rows(SequenceFamily.geometric(4, 2), 60, lambda lq: {}):
        pass
    assert sorted(converted) == sorted([
        first.count,
        first.diameter_bound.numerator,
        first.diameter_bound.denominator,
        first.gap_bound.numerator,
        first.gap_bound.denominator,
    ])


def test_exact_rows_build_no_fraction(monkeypatch):
    # the bounds are rendered from their reduced integer pairs
    fam = SequenceFamily.geometric(4, 2)
    built = []

    def counting_fraction(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(construction, "Fraction", counting_fraction)
    monkeypatch.setattr(cli, "Fraction", counting_fraction)
    rows = list(cli._exact_rows(fam, 60, lambda lq: {}))
    assert [row["n"] for row in rows] == list(range(1, 61))
    assert built == []
