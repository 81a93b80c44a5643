"""The exact N_n, delta_n and epsilon_n cells, rendered from running exact
Decimals or through chains of them, against str(); and the JSON writer,
against json.dumps, with the rule it relies on: every str cell of a row
stream is number text.
"""

import collections
import decimal
import io
import json
import json.encoder
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engeldim import DomainError, SequenceFamily, cli, construction
from engeldim.cli import main

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


def table(pairs):
    return SequenceFamily.from_pairs(pair.split(":") for pair in pairs.split(","))


# a table keeps its terms as Fractions, here all with denominator 1
TWO_K_TABLE = SequenceFamily.from_pairs((2**k + 1, 2) for k in range(1, 63))

# (family, depth): integral and rational terms, and tables that mix them
EXACT_FAMILIES = {
    # s_1...s_n is integral again from n = 2, after a non-integral s_1
    "table turning integral": (table("5/2:2,24/5:2,7:2,10:2,13:2"), 4),
    # g2 = gcd(4*t_2/g1, s_1) = 3 at level 1
    "table with g2 = 3": (table("3:2,7:3,12:2,16:2"), 3),
    # no bound's denominator is a multiple or a divisor of the one above
    "table 2^k + 1": (TWO_K_TABLE, 60),
    "power-geometric": (SequenceFamily.power_geometric(8, F(1, 3)), 60),
    "rational geometric": (SequenceFamily.geometric(F(10, 3), F(7, 3), s_coef=3,
                                                    t_coef=2), 40),
    # v = 4*t_{n+1}/g1 = 2^(n+3) > 1, yet g2 = 1 on every row
    "geometric (3^n, 2^n)": (SequenceFamily.geometric(3, 2), 60),
    # g2 = 3, 4, 4, 2 and 8 at levels 1 to 5
    "table with g2 > 1": (table("6:2,10:3,15:3,21:6,30:6,45:10,60:2"), 6),
    # only t_2 is not integral: row 1 leaves the integral path, row 2 is back
    "table with a non-integral t": (table("3:2,7:5/2,12:2,16:2,20:2"), 4),
    # s_5 is not integral: the rows leave the integral path at level 4
    "table leaving at level 4": (table("3:2,7:3,12:2,16:2,41/2:2,30:2,40:2"), 6),
}


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_exact_cells_match_str(name):
    fam, depth = EXACT_FAMILIES[name]
    levels = fam.iter_level_quantities(depth)
    assert list(cli._exact_rows(fam, fam._sweep(depth), lambda n, m_n: {})) == [
        {"n": lq.n, "N_n": str(lq.count), "delta_n": str(lq.diameter_bound),
         "epsilon_n": str(lq.gap_bound)} for lq in levels
    ]


def test_rendering_leaves_the_thread_context_alone():
    ctx = decimal.getcontext()
    before = (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
    render = cli._fraction_column()
    for q in FRACTION_COLUMN:
        render(q.numerator, q.denominator)
    for fam, depth in EXACT_FAMILIES.values():
        for _ in cli._exact_rows(fam, fam._sweep(depth), lambda n, m_n: {}):
            pass
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
    # a value that is no multiple of the one above breaks the chain
    assert converted == [3**500, 3**700, 5**400, 7**300, 1]


@pytest.mark.parametrize("fam", [
    SequenceFamily.geometric(4, 2),
    SequenceFamily.power_geometric(8, F(1, 3)),
    TWO_K_TABLE,
], ids=["geometric", "power-geometric", "table 2^k + 1"])
def test_integral_families_convert_no_long_int_in_full(fam, monkeypatch):
    # every cell is stepped from the running Decimals by short factors;
    # the ratio chains would convert the 2^k + 1 table's cells in full
    converted = counting_decimal(monkeypatch)
    rows = list(cli._exact_rows(fam, fam._sweep(60), lambda n, m_n: {}))
    assert [row["n"] for row in rows] == list(range(1, 61))
    assert [x for x in converted if x.bit_length() > 64] == []


class _CountingContext:
    """A decimal context that counts the calls of each of its methods."""

    def __init__(self, context):
        self.context, self.calls = context, collections.Counter()

    def __getattr__(self, name):
        method = getattr(self.context, name)

        def counted(*args):
            self.calls[name] += 1
            return method(*args)

        return counted


@pytest.mark.parametrize("fam, remainders", [
    (SequenceFamily.geometric(4, 2), 0),  # v = 1 on every row
    (SequenceFamily.geometric(3, 2), 60),  # v = 2^(n+3), g2 = 1 on every row
], ids=["(4^n, 2^n)", "(3^n, 2^n)"])
def test_integral_rows_form_no_int_product_and_divide_by_no_one(fam, remainders,
                                                                 monkeypatch):
    # the rows read the private sweep, never an int record of the terms,
    # take g2 from P_n's remainder only where v > 1, and divide by no g2 = 1
    expected = list(cli._exact_rows(fam, fam._sweep(60), lambda n, m_n: {}))

    def refuse(*args):
        raise AssertionError("an int record of the level was formed")

    monkeypatch.setattr(SequenceFamily, "iter_level_quantities", refuse)
    monkeypatch.setattr(SequenceFamily, "level_quantities", refuse)
    monkeypatch.setattr(cli, "_running", refuse, raising=False)
    exact = _CountingContext(cli._EXACT)
    monkeypatch.setattr(cli, "_EXACT", exact)
    assert list(cli._exact_rows(fam, fam._sweep(60), lambda n, m_n: {})) == expected
    assert exact.calls["divide_int"] == 0
    assert exact.calls["remainder"] == remainders
    assert exact.calls["multiply"] > 0


def test_exact_rows_build_no_fraction(monkeypatch):
    # the bounds are rendered from their reduced integer pairs
    fam = SequenceFamily.geometric(4, 2)
    built = []

    def counting_fraction(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(construction, "Fraction", counting_fraction)
    monkeypatch.setattr(cli, "Fraction", counting_fraction)
    rows = list(cli._exact_rows(fam, fam._sweep(60), lambda n, m_n: {}))
    assert [row["n"] for row in rows] == list(range(1, 61))
    assert built == []


@pytest.mark.parametrize("output", ["text", "csv", "json"])
def test_quantities_walks_its_levels_once(output, monkeypatch, capsys):
    # the walk that checks the levels before any row is written also
    # gives the rows their terms
    walks, levels = [], SequenceFamily.levels

    def counted(self, depth):
        walks.append(depth)
        return levels(self, depth)

    monkeypatch.setattr(SequenceFamily, "levels", counted)
    assert main(["quantities", "--family", "geometric", "--s", "4", "--t", "2",
                 "--depth", "30", "--output", output]) == 0
    assert capsys.readouterr().out
    assert walks == [31]


# -- the JSON writer ---------------------------------------------------------

# fixed examples, no example database: the suite stays deterministic
SEEDED = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# text json must escape: quotes, backslashes, control and non-ASCII characters
texts = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'),
                          st.characters()), max_size=6)
heads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
number_texts = st.one_of(
    st.integers().map(str),
    st.fractions().map(str),
    st.decimals().map(str),
    st.floats().map(repr),
)
rows = st.dictionaries(texts, number_texts | st.integers() | st.none() | st.booleans(),
                       min_size=1, max_size=4)
# each field of a document: (False, a head value) or (True, a stream's rows)
fields = (st.tuples(st.just(False), heads)
          | st.tuples(st.just(True), st.lists(rows, max_size=4)))


@SEEDED
@given(st.dictionaries(texts, fields, min_size=1, max_size=5))
@example({"levels": (True, [])})  # an empty stream is an empty list
# int cells are written by str; bools, None and long ints still read as json's
@example({"levels": (True, [{"t": True, "f": False, "none": None, "zero": 0,
                             "big": 2**70, "negative": -2**70}])})
def test_write_json_is_json_dumps(doc):
    out = io.StringIO()
    cli._write_json({key: iter(value) if streamed else value
                     for key, (streamed, value) in doc.items()}, out)
    materialized = {key: value for key, (_, value) in doc.items()}
    assert out.getvalue() == json.dumps(materialized, indent=2) + "\n"


JSON_FAMILIES = {
    "integral": ["--family", "geometric", "--s", "4", "--t", "2"],
    "rational": ["--family", "geometric", "--s", "10/3", "--t", "7/3",
                 "--s-coef", "3", "--t-coef", "2"],
    "power-geometric": ["--family", "power-geometric", "--s", "4", "--theta", "1/2"],
    "table": ["--family", "explicit-pair",
              "--pairs", "7:3,12:4,20:2,25:2,31:3,40:2,47:2"],
}
# every command that writes a row stream as JSON: its name, then its flags
JSON_STREAMS = {
    "quantities": ["quantities", "--depth", "5"],
    "dim": ["dim", "--n-max", "5"],
    "level": ["level", "--depth", "3"],
    "level zero": ["level", "--depth", "0"],
    "level --sample": ["level", "--depth", "4", "--sample", "6", "--seed", "3"],
}
JSON_RUNS = {
    f"{command}, {family}": [
        JSON_STREAMS[command][0], *JSON_FAMILIES[family],
        *JSON_STREAMS[command][1:], "--output", "json",
    ]
    for command in JSON_STREAMS for family in JSON_FAMILIES
}


def is_number_text(text: str) -> bool:
    """Whether text is str() of an int, a Fraction or a Decimal, or
    repr() of a float."""
    for parse, show in ((F, str), (Decimal, str), (float, repr)):
        try:
            if show(parse(text)) == text:
                return True
        except (ValueError, ArithmeticError):
            pass
    return False


@pytest.mark.parametrize("number", [
    "0", "-12", "3/7", "-5/2", "1.5", "Infinity", "NaN", "-0", "1E+2",
    "1e-07", "inf", "nan", "0.6897279940277872",
])
def test_number_text_is_recognized(number):
    assert is_number_text(number)


@pytest.mark.parametrize("text", ["", "1 ", "+1", "3/6", "1/0", "0x10", '"1"', "1\\2"])
def test_other_text_is_not_number_text(text):
    assert not is_number_text(text)


@pytest.mark.parametrize("argv", JSON_RUNS.values(), ids=JSON_RUNS)
def test_streamed_cells_are_number_text(argv, monkeypatch, capsys):
    streamed, write_rows = [], cli._write_rows

    def recording(rows, out):
        rows = list(rows)
        streamed.extend(rows)
        write_rows(iter(rows), out)

    monkeypatch.setattr(cli, "_write_rows", recording)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert streamed
    cells = [value for row in streamed for value in row.values()]
    assert {type(value) for value in cells} <= {str, int, bool, type(None)}
    assert [text for text in cells
            if isinstance(text, str) and not is_number_text(text)] == []
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _Cell(str):
    """A streamed cell, told apart from the document's other text by its type."""


def _marked(source):
    # the row source, with each str cell of its rows made a _Cell
    def marked(*args):
        for row in source(*args):
            yield {key: _Cell(value) if isinstance(value, str) else value
                   for key, value in row.items()}

    return marked


@pytest.mark.parametrize("argv", JSON_RUNS.values(), ids=JSON_RUNS)
def test_streamed_cells_skip_the_escape_scan(argv, monkeypatch, capsys):
    escaped, escape = [], json.encoder.encode_basestring_ascii

    def recording(text):
        escaped.append(text)
        return escape(text)

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", recording)
    monkeypatch.setattr(cli, "_exact_rows", _marked(cli._exact_rows))
    monkeypatch.setattr(cli, "_endpoints", _marked(cli._endpoints))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)
    # the keys and the head are still escaped; no streamed cell is
    assert escaped
    assert [text for text in escaped if type(text) is _Cell] == []


def _fails_at_once(*args):
    raise DomainError("no rows")
    yield


@pytest.mark.parametrize("source, argv", [
    ("_exact_rows", JSON_RUNS["quantities, integral"]),
    ("_exact_rows", JSON_RUNS["dim, rational"]),
    ("_lowest_ends", JSON_RUNS["level, table"]),
])
def test_a_stream_that_fails_on_its_first_row_writes_nothing(
        source, argv, monkeypatch, capsys):
    # the exact rows are streamed by the CLI, a level's ends by its builder
    monkeypatch.setattr(cli if hasattr(cli, source) else construction, source,
                        _fails_at_once)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: no rows\n")
