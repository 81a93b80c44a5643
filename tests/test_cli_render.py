"""The exact N_n, delta_n and epsilon_n cells, rendered from running exact
Decimals, against str() of the paper's formulas in Fractions; and the JSON
writer, against json.dumps, with the rule it relies on: every str cell of a
row stream is number text.
"""

import collections
import decimal
import io
import json
import json.encoder
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engeldim import DomainError, EvaluationError, SequenceFamily, cli, construction
from engeldim.cli import main

@pytest.fixture(autouse=True)
def unlimited_int_strings():
    # str() of the reference values passes the interpreter's default cap
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def table(pairs):
    return SequenceFamily.from_pairs(pair.split(":") for pair in pairs.split(","))


# a table keeps its terms as Fractions, here all with denominator 1
TWO_K_TABLE = SequenceFamily.from_pairs((2**k + 1, 2) for k in range(1, 63))

RATIONAL = SequenceFamily.geometric(F(10, 3), F(7, 3), s_coef=3, t_coef=2)

# integral from level 1 to 3, then rational: with s_1...s_n = A/B in lowest
# terms and a bound x*B/(y*A) for short x and y, gcd(x, A) > 1 on most rows
# and gcd(y, B) > 1 on rows 9 and 15, and the step by s_n = a/b has
# gcd(A, b) > 1 from row 4 and gcd(a, B) > 1 on row 10
REDUCED_TABLE = table("6:2,10:3,14:2,35/2:2,45/2:12,211/6:2,239/6:2,257/6:2,"
                      "1351/30:11/2,776/15:9,926/15:2,956/15:9,1121/15:2,"
                      "1166/15:2,1196/15:2,247/3:12/5")


def lookahead_table(seed):
    """(table, depth): a seeded pair table of exactly depth + 1 entries,
    depth 1 to 8, whose terms t_k have denominators 1 to 6 and whose first
    non-integral s_k is s_{depth+1}, so the product of the rows, read one
    level ahead, first has B > 1 on the last row."""
    rng = random.Random(seed)
    depth, s, pairs = rng.randint(1, 8), F(rng.randint(3, 12)), []
    for k in range(1, depth + 2):
        q = rng.choice((1, 2, 3, 4, 6))
        t = min(s, F(rng.randint(2 * q, 12 * q), q))
        pairs.append((s, t))
        s = F(math.floor(s + t) + rng.randint(1, 6))
        if k == depth:
            q = rng.choice((2, 3, 4, 6))
            s += F(rng.randint(1, q - 1), q)
    return SequenceFamily.from_pairs(pairs), depth


# (family, depth): integral and rational terms, and tables that mix them.
# A/B is a product of the s_k, and x, y are the short factors of a bound
# x*B/(y*A): epsilon_n reads s_1...s_n, delta_n s_1...s_{n+1}
EXACT_FAMILIES = {
    # s_1...s_n is integral again from n = 2, after a non-integral s_1
    "table turning integral": (table("5/2:2,24/5:2,7:2,10:2,13:2"), 4),
    # gcd(x, A) = 3 for delta_1
    "table with g2 = 3": (table("3:2,7:3,12:2,16:2"), 3),
    # no bound's denominator is a multiple or a divisor of the one above
    "table 2^k + 1": (TWO_K_TABLE, 60),
    "power-geometric": (SequenceFamily.power_geometric(8, F(1, 3)), 60),
    "rational geometric": (RATIONAL, 40),
    # x = 2^(n+3) > 1 for delta_n, yet gcd(x, A) = 1 on every row
    "geometric (3^n, 2^n)": (SequenceFamily.geometric(3, 2), 60),
    # gcd(x, A) = 3, 4, 4, 2 and 8 for delta_1 to delta_5
    "table with g2 > 1": (table("6:2,10:3,15:3,21:6,30:6,45:10,60:2"), 6),
    # only t_2 is not integral: B = 1 on every row, yet delta_1 has y > 1
    "table with a non-integral t": (table("3:2,7:5/2,12:2,16:2,20:2"), 4),
    # s_5 is not integral: B > 1 from level 5, and delta_4 reads s_5
    "table leaving at level 4": (table("3:2,7:3,12:2,16:2,41/2:2,30:2,40:2"), 6),
    "table with gcd(x, A) > 1 and gcd(y, B) > 1": (REDUCED_TABLE, 15),
    # s_5 is not integral and the table ends there: s_1...s_{n+1} = A/B
    # first has B > 1 on the last row, for delta_4
    "table leaving at its last level": (table("3:2,7:3,12:2,16:2,41/2:2"), 4),
    # s_n = (25/4)^n, t_n = (5/2)^n: B > 1 from level 1
    "power-geometric base 25/4": (SequenceFamily.power_geometric(F(25, 4), F(1, 2)), 60),
    **{f"table leaving at its last level, seed {seed}": lookahead_table(seed)
       for seed in range(20)},
}


def rows_of(fam, depth):
    """The exact rows of levels 1..depth, with no column of a command."""
    return list(cli._exact_rows(fam._levels(range(1, depth + 1)), lambda n, m_n: {}))


def fraction_rows(fam, depth):
    """The rows of levels 1..depth by the paper's formulas, in Fractions of
    fam.s(k) and fam.t(k): m_k = floor(s_k + t_k) - floor(s_k), N_n the
    product of the m_k, delta_n = 4*t_{n+1}/(s_1...s_n * s_{n+1}**2) and
    epsilon_n = 1/(2**(n+3) * s_1...s_n * s_n)."""
    s, t = fam.s, fam.t
    rows, count, prod_s = [], 1, F(1)
    for n in range(1, depth + 1):
        count *= math.floor(s(n) + t(n)) - math.floor(s(n))
        prod_s *= s(n)
        delta = 4 * t(n + 1) / (prod_s * s(n + 1) ** 2)
        epsilon = 1 / (2 ** (n + 3) * prod_s * s(n))
        rows.append({"n": n, "N_n": str(count), "delta_n": str(delta),
                     "epsilon_n": str(epsilon)})
    return rows


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_exact_cells_match_str(name):
    fam, depth = EXACT_FAMILIES[name]
    assert rows_of(fam, depth) == fraction_rows(fam, depth)


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_diameter_bound_is_the_squared_form(name):
    # level_quantities reads delta_n's terms against s_1...s_n, not one
    # level ahead as the rows do: against 4*t_{n+1}/(s_1...s_n * s_{n+1}**2)
    fam, depth = EXACT_FAMILIES[name]
    prod_s = F(1)
    for n in range(1, depth + 1):
        prod_s *= fam.s(n)
        expected = 4 * fam.t(n + 1) / (prod_s * fam.s(n + 1) ** 2)
        assert fam.level_quantities(n).diameter_bound == expected


def test_lookahead_tables_leave_integral_terms_at_their_last_level():
    for seed in range(20):
        fam, depth = lookahead_table(seed)
        terms = [fam.s(k) for k in range(1, depth + 2)]
        assert [s.denominator > 1 for s in terms] == [False] * depth + [True]
        with pytest.raises(EvaluationError):
            fam.s(depth + 2)


def test_rendering_leaves_the_thread_context_alone():
    ctx = decimal.getcontext()
    before = (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
    for fam, depth in EXACT_FAMILIES.values():
        rows_of(fam, depth)
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


@pytest.mark.parametrize("fam", [
    SequenceFamily.geometric(4, 2),
    SequenceFamily.power_geometric(8, F(1, 3)),
    TWO_K_TABLE,
], ids=["geometric", "power-geometric", "table 2^k + 1"])
def test_integral_families_convert_no_long_int_in_full(fam, monkeypatch):
    # every cell is stepped from the running Decimals by short factors,
    # including the 2^k + 1 table's, which are no multiples of the cells above
    converted = counting_decimal(monkeypatch)
    rows = rows_of(fam, 60)
    assert [row["n"] for row in rows] == list(range(1, 61))
    assert [x for x in converted if x.bit_length() > 64] == []


class _CountingContext:
    """A decimal context that counts the calls of each of its methods, and
    sums the bit lengths of the int operands of its multiplications."""

    def __init__(self, context):
        self.context, self.calls, self.multiplier_bits = context, collections.Counter(), 0

    def __getattr__(self, name):
        method = getattr(self.context, name)

        def counted(*args):
            self.calls[name] += 1
            if name == "multiply":
                self.multiplier_bits += sum(arg.bit_length() for arg in args
                                            if type(arg) is int)
            return method(*args)

        return counted


@pytest.mark.parametrize("fam, depth, calls", [
    # x = 1 for every step and bound
    (SequenceFamily.geometric(4, 2), 60, {"remainder": 0, "divide_int": 0}),
    # x = 2^(n+3) for delta_n, gcd(x, A) = 1 on every row
    (SequenceFamily.geometric(3, 2), 60, {"remainder": 60, "divide_int": 0}),
    (RATIONAL, 60, None),
    (REDUCED_TABLE, 15, None),
], ids=["(4^n, 2^n)", "(3^n, 2^n)", "rational geometric", "rational table"])
def test_integral_rows_form_no_int_product_and_divide_by_no_one(fam, depth, calls,
                                                                 monkeypatch):
    # the rows of every family read the level records' terms, never a
    # product the records carry, such as the int s_1...s_n; an integral
    # family's rows take a remainder of A only where x > 1, and divide by
    # no gcd of 1
    expected = rows_of(fam, depth)

    def refuse(*args):
        raise AssertionError("an int record of the level was formed")

    monkeypatch.setattr(SequenceFamily, "iter_level_quantities", refuse)
    monkeypatch.setattr(SequenceFamily, "level_quantities", refuse)
    monkeypatch.setattr(construction._Level, "_product", refuse)
    monkeypatch.setattr(construction, "_s_product", refuse)
    exact = _CountingContext(cli._EXACT)
    monkeypatch.setattr(cli, "_EXACT", exact)
    assert rows_of(fam, depth) == expected
    if calls is not None:
        assert {name: exact.calls[name] for name in calls} == calls
    assert exact.calls["multiply"] > 0


# the int operands of the rows' multiplications over levels 1..60 sum to
# 16,950 bits on (4^n, 2^n), 15,784 on (3^n, 2^n), 9,570 on (2^n, 2) and
# 42,768 on the rational geometric family where delta_n is read against
# s_1...s_n, with s_{n+1}**2 in its factor y
@pytest.mark.parametrize("fam, squared_bits", [
    (SequenceFamily.geometric(4, 2), 16_950),
    (SequenceFamily.geometric(3, 2), 15_784),
    (SequenceFamily.geometric(2, 1, t_coef=2), 9_570),
    (RATIONAL, 42_768),
], ids=["(4^n, 2^n)", "(3^n, 2^n)", "(2^n, 2)", "rational geometric"])
def test_rows_read_delta_one_level_ahead(fam, squared_bits, monkeypatch):
    # read against s_1...s_{n+1}, delta_n's y holds s_{n+1} once: a
    # multiplication's cost grows with its short factor's length
    exact = _CountingContext(cli._EXACT)
    monkeypatch.setattr(cli, "_EXACT", exact)
    rows = rows_of(fam, 60)
    monkeypatch.undo()
    assert rows == fraction_rows(fam, 60)
    assert exact.multiplier_bits <= 0.85 * squared_bits


def test_exact_rows_build_no_fraction(monkeypatch):
    # the bounds are rendered from their short factors, for integral and
    # rational terms alike; the level records are drawn first, as a table
    # family's terms are Fractions
    built = []

    def counting_fraction(*args):
        built.append(args)
        return F(*args)

    for fam, depth in [(SequenceFamily.geometric(4, 2), 60), (RATIONAL, 60),
                       (REDUCED_TABLE, 15)]:
        records = list(fam._levels(range(1, depth + 1)))
        with monkeypatch.context() as patch:
            patch.setattr(construction, "Fraction", counting_fraction)
            patch.setattr(cli, "Fraction", counting_fraction)
            rows = list(cli._exact_rows(records, lambda n, m_n: {}))
        assert [row["n"] for row in rows] == list(range(1, depth + 1))
    assert built == []


def test_rational_rows_take_gcds_of_short_ints_only(monkeypatch):
    # s_1...s_n = A/B is read only through remainders by short ints, so
    # every gcd is of short ints: the longest at row 60 is t_den*s_num**2
    # of level 61, 502 bits, where A has over 6,000
    records = list(RATIONAL._levels(range(1, 61)))
    operands, gcd = [], math.gcd

    def counting_gcd(*args):
        operands.extend(args)
        return gcd(*args)

    for module in (math, construction, cli):
        monkeypatch.setattr(module, "gcd", counting_gcd)
    rows = list(cli._exact_rows(records, lambda n, m_n: {}))
    monkeypatch.undo()
    assert rows == fraction_rows(RATIONAL, 60)
    assert operands
    assert max(x.bit_length() for x in operands) < 1024
    assert math.prod(RATIONAL.s(k) for k in range(1, 61)).numerator.bit_length() > 6000


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

# a 10,000-digit cell, an empty one, and a null in the last column, as
# dim writes lower_n at n = 1
EDGE_ROWS = [
    {"n": 1, "F_n": "0.5", "N_n": "9" * 10_000, "lower_n": "0.25"},
    {"n": 2, "F_n": "", "N_n": "12", "lower_n": "0.25"},
    {"n": 3, "F_n": "0.5", "N_n": "12", "lower_n": None},
]


def test_write_csv_joins_each_row_once():
    out = io.StringIO()
    cli._write_csv(cli._csv_of(EDGE_ROWS), out)
    assert out.getvalue() == "".join(",".join(row) + "\n" for row in cli._csv_of(EDGE_ROWS))
    assert out.getvalue().splitlines()[1:] == [
        f"1,0.5,{'9' * 10_000},0.25", "2,,12,0.25", "3,0.5,12,"]


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
@example({"head": (False, 1), "levels": (True, EDGE_ROWS)})
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
