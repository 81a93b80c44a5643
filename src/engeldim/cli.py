"""Command-line front end.

Seven commands: digits, cylinder, check, level, quantities, dim, cover-fit.
Families are specified by --family plus kind-specific flags; numeric flag
values accept exact rationals written as "p/q" or plain integers.  A config
file (--config) supplies defaults as flat key = value lines whose keys are
the flag names without leading dashes; explicit flags win.  The option
tables below state each flag once, with its converter and its default; a
value that was given is always converted, so an empty one is an error.

The argument list is read in one pass, with argparse's grammar and messages
but without argparse: the command first, then --flag value or --flag=value
pairs in any order, each flag named in full; a repeated flag keeps its last
value.  A token that starts with "-" is a value only if it is "-", a
negative number such as -5 or -.5, or has a space in it, so "--x -1/3"
fails as a flag without its value.  A flag that is not the command's, a
stray token and everything from a bare "--" on are reported together as
unrecognized.  -h or --help, before the command or after it, prints the
help of the program or of the command, drawn from the option tables, and
exits 0.

Output formats: text for reading, csv and json for machines.  Exact values
are serialized as "p/q" strings and quotient values as shortest round-trip
decimal strings, so identical configurations produce byte-identical output.
The exact N_n, delta_n and epsilon_n columns of quantities and dim reach
tens of thousands of digits, and CPython 3.11 converts an int to decimal in
quadratic time.  So the row loop reads the family's sweep of terms and
keeps N_n, and s_1...s_n as A/B in lowest terms, as exact Decimals stepped
by m_n and s_n.  Each bound is x*B/(y*A) for short ints x and y, put in
lowest terms by gcds of short ints alone, as A and B are read through
their remainders by short ints; so each cell is A or B times a short
factor, in time linear in its length, with no int product of the terms,
no long gcd and no Fraction, whether the terms are integral or not.  A
full level is printed as a stream of its endpoint ints, built in lowest
terms and never held, and each text line is one f-string.

A command is one row of _COMMANDS, which names its flags and its runner.
The runner returns a Report, one row source per format, and one writer per
format writes the chosen source to stdout row by row, so memory does not
grow with the size of the output.  JSON is written by the package itself,
byte for byte as json.dumps(doc, indent=2): the long lists of a document
are row streams whose cells are number text, which holds nothing json
escapes, so each cell is quoted as it is instead of passing through json's
escape scan, which costs as much as rendering its digits, and an int cell
is written by str, which is what json writes for it.  A command
finishes every step that can fail before its first row is written: when it
fails, nothing reaches stdout.
Exit codes: 0 success, 1 usage problem, 2 violated window conditions.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import json
import os
import random
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from decimal import Decimal
from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from typing import NamedTuple, TextIO

from .construction import (
    DEFAULT_LEVEL_LIMIT,
    SequenceFamily,
    _diameter_terms,
    _gap_terms,
    _lowest,
)
from .dimension import DEFAULT_FIT_LIMIT, empirical_cover_fit, estimate_dimension
from .engel import DigitWord, _interval_str, cylinder_interval, engel_digits
from .errors import (
    ConditionError,
    DomainError,
    EvaluationError,
    InvalidWordError,
    SizeLimitError,
    UsageError,
)
from .ratmath import parse_rational

_OUTPUTS = ("text", "csv", "json")

_OPTION_HELP = {
    "x": "rational in (0, 1) to expand, written p/q",
    "depth": "digit cap, check depth, or level, depending on the command",
    "word": "comma-separated digit word, e.g. 3,4,7",
    "family": "family kind: geometric, power-geometric, explicit-pair",
    "s": "s-sequence ratio (geometric) or base (power-geometric)",
    "t": "t-sequence ratio (geometric)",
    "s-coef": "coefficient of the geometric s sequence",
    "t-coef": "coefficient of the geometric t sequence",
    "theta": "exponent for t_n = s^(theta*n) (power-geometric)",
    "pairs": "explicit (s, t) table, e.g. 4:2,16:4,64:8",
    "n-max": "last level to evaluate",
    "tail-window": "levels in the tail summary (default n-max/10)",
    "depths": "comma-separated fit depths",
    "limit": "cap on materialized intervals",
    "sample": "sample this many words instead of enumerating the level",
    "seed": "seed for sampling",
    "output": "text, csv, or json",
    "config": "file of key = value defaults, keys are flag names",
}


# -- the option tables, their converters and the argv reader ------------------


# each converter takes a flag's value and the flag's name
def _integer(minimum: int | None = None) -> Callable[[str, str], int]:
    def convert(value: str, flag: str) -> int:
        try:
            number = int(value.strip())
        except ValueError:
            raise UsageError(f"--{flag} expects an integer, got {value!r}") from None
        if minimum is not None and number < minimum:
            raise UsageError(f"--{flag} must be >= {minimum}, got {number}")
        return number

    return convert


def _integers(minimum: int) -> Callable[[str, str], tuple[int, ...]]:
    def convert(value: str, flag: str) -> tuple[int, ...]:
        parts = list(filter(None, map(str.strip, value.split(","))))
        if not parts:
            raise UsageError(f"--{flag} expects comma-separated integers")
        return tuple(_integer(minimum)(part, flag) for part in parts)

    return convert


def _rational(value: str, flag: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise UsageError(f"--{flag}: {exc}") from None


def _pairs(value: str, flag: str) -> tuple[tuple[Fraction, Fraction], ...]:
    pairs = []
    for chunk in filter(None, map(str.strip, value.split(","))):
        left, sep, right = chunk.partition(":")
        if not sep:
            raise UsageError(
                f"--{flag} expects s:t pairs separated by commas, got {chunk!r}"
            )
        pairs.append((_rational(left, flag), _rational(right, flag)))
    if not pairs:
        raise UsageError(f"--{flag} supplied no pairs")
    return tuple(pairs)


def _output(value: str, flag: str) -> str:
    if value not in _OUTPUTS:
        raise UsageError(f"--output must be one of {', '.join(_OUTPUTS)}")
    return value


# each table maps a flag to its converter and its default, in the order the
# flags are checked; a flag whose default is _REQUIRED must be given
_REQUIRED = object()

_OUTPUT_FLAG = {"output": (_output, "text")}

# each family kind's constructor and its flags, in argument order
_KINDS = {
    "geometric": (SequenceFamily.geometric, {
        "s": (_rational, _REQUIRED), "t": (_rational, _REQUIRED),
        "s-coef": (_rational, Fraction(1)), "t-coef": (_rational, Fraction(1)),
    }),
    "power-geometric": (SequenceFamily.power_geometric, {
        "s": (_rational, _REQUIRED), "theta": (_rational, _REQUIRED),
    }),
    "explicit-pair": (SequenceFamily.from_pairs, {"pairs": (_pairs, _REQUIRED)}),
}

# every kind's flags, each once, in first-seen order
_FAMILY_FLAGS = {flag: entry for _, flags in _KINDS.values()
                 for flag, entry in flags.items()}
_FAMILY_OPTIONS = ("family", *_FAMILY_FLAGS)


# argparse's pattern of a negative number, which is a value although it
# starts with "-"
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_value(token: str, names: tuple[str, ...]) -> bool:
    """Whether argparse reads token as a value rather than as a flag, where
    the flags of names are accepted: any token that does not start with
    "-", "-" itself, and a negative number or a token with a space in it,
    unless it is --name=... for one of names."""
    if token[:1] != "-" or token == "-":
        return True
    if token[:2] == "--" and token[2:].partition("=")[0] in names:
        return False
    return " " in token or _NEGATIVE.match(token) is not None


def _read_argv(argv: Sequence[str]) -> tuple[str, dict[str, str]]:
    """The command and the value of each flag given, read in one pass by
    the grammar that the module docstring states.  As in argparse, an
    unknown command, a flag without its value and -h fail or exit at once,
    and the unrecognized tokens are reported after the pass."""
    command, names, given, extras = None, ("help",), {}, []
    tokens = iter(argv)
    for token in tokens:
        if command is None and (token == "--" or _is_value(token, names)):
            if token in _COMMANDS:
                command, names = token, (*_COMMAND_OPTIONS[token], "help")
                continue
            # a bare "--" is taken for the command only if a token follows it
            if token != "--" or next(tokens, None) is not None:
                raise UsageError(
                    f"argument command: invalid choice: {token!r} (choose from "
                    + ", ".join(map(repr, _COMMANDS)) + ")")
        if token == "--":
            extras += [token, *tokens]
            break
        name, eq, value = token[2:].partition("=") if token[:2] == "--" else ("", "", "")
        if token == "-h" or name == "help":
            if eq:
                raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            print(_help(command))
            raise SystemExit(0)
        if name not in names:
            extras.append(token)
            continue
        if not eq:
            # a missing value reads as "--", which is no value
            value = next(tokens, "--")
            if not _is_value(value, names):
                raise UsageError(f"argument --{name}: expected one argument")
        given[name] = value
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    if command is None:
        raise UsageError("missing command; choose from " + ", ".join(_COMMANDS))
    return command, given


def _help(command: str | None) -> str:
    """The help of a command, from the option tables, or of the program."""
    sections = {"commands": [], "options": [("-h, --help", "show this help message and exit")]}
    if command is None:
        usage, about = "engeldim [-h] command ...", __doc__.splitlines()[0]
        sections["commands"] = [(name, row[0]) for name, row in _COMMANDS.items()]
    else:
        about, _, flags, _ = _COMMANDS[command]
        usage = f"engeldim {command} [-h] [--FLAG VALUE | --FLAG=VALUE]..."
        tables = {**_FAMILY_FLAGS, **flags, **_OUTPUT_FLAG}
        sections["options"] += [
            (f"--{name} {name.upper().replace('-', '_')}",
             _OPTION_HELP[name] + _default_note(tables.get(name, (None, None))[1]))
            for name in _COMMAND_OPTIONS[command]]
    width = max(len(term) for rows in sections.values() for term, _ in rows)
    lines = [f"usage: {usage}", "", about]
    for title, rows in sections.items():
        if rows:
            lines += ["", f"{title}:", *(f"  {term:<{width}}  {text}" for term, text in rows)]
    return "\n".join(lines)


def _default_note(default) -> str:
    # what a flag's help says of its table default: nothing for a required
    # flag, or for one whose default is worked out later (None)
    if default is None or default is _REQUIRED:
        return ""
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    return f" (default {default})"


def _read_config_file(path: str, command: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments are skipped."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    allowed = set(_COMMAND_OPTIONS[command]) - {"config"}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise UsageError(
                f"{path}:{lineno}: unknown config key {key!r} for {command}"
            )
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = value
    return values


def _convert(opts: dict, flags: dict, command: str) -> dict:
    """Each flag's value in table order, converted if given, else its
    default, keyed by its field name: the flag with "_" for "-"."""
    values = {}
    for flag, (convert, default) in flags.items():
        if flag in opts:
            values[flag] = convert(opts[flag], flag)
        elif default is _REQUIRED:
            raise UsageError(f"{command} requires --{flag}")
        else:
            values[flag] = default
    return {flag.replace("-", "_"): value for flag, value in values.items()}


def _build_family(opts: dict, command: str) -> SequenceFamily:
    if "family" not in opts:
        raise UsageError(f"{command} requires --family")
    kind = opts["family"]
    if kind not in _KINDS:
        raise UsageError(
            f"unknown family {kind!r}; choose from " + ", ".join(sorted(_KINDS))
        )
    build, flags = _KINDS[kind]
    for flag in _FAMILY_OPTIONS[1:]:
        if flag in opts and flag not in flags:
            raise UsageError(f"--{flag} does not apply to a {kind} family")
    # the first window needs s_1 >= 2; cheaper to reject here than to fail
    # deep inside every command
    try:
        family = build(*_convert(opts, flags, command).values())
        s_1 = family.s(1)
    except (DomainError, EvaluationError) as exc:
        raise UsageError(str(exc)) from exc
    if s_1 < 2:
        raise UsageError(f"s_1 = {s_1} violates the window conditions (s_1 >= 2)")
    return family


def parse_config(argv: Sequence[str]) -> SimpleNamespace:
    """Read the flags, merge the optional config file, convert and validate.

    The namespace holds command, output and family (None for a command
    that reads none), and the command's own flags by field name."""
    command, given = _read_argv(argv)
    # the flags given, over the config file's values
    config = _read_config_file(given["config"], command) if "config" in given else {}
    opts = {**config, **given}
    # the output first, then the family, then the command's own flags
    output = _convert(opts, _OUTPUT_FLAG, command)["output"]
    _, reads_family, flags, _ = _COMMANDS[command]
    family = _build_family(opts, command) if reads_family else None
    return SimpleNamespace(command=command, output=output, family=family,
                           **_convert(opts, flags, command))


# -- rendering helpers ---------------------------------------------------


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _fmt_quot(value: float | None) -> str:
    return "" if value is None else repr(value)


# a private context with every digit kept: a step that would round raises,
# no flag of it is read, and the thread's own context is never touched
_EXACT = decimal.Context(decimal.MAX_PREC, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded])


def _scaled(value: Decimal, divisor: int, factor: int) -> Decimal:
    # value/divisor*factor, exact, for a divisor of value: no division by
    # a divisor of 1 and no multiplication by a factor of 1
    if divisor > 1:
        value = _EXACT.divide_int(value, divisor)
    return value if factor == 1 else _EXACT.multiply(value, factor)


def _exact_rows(sweep: Iterable, columns: Callable[[int, int], dict]
                ) -> Iterator[dict]:
    """One flat row per level record: n, the command's own columns for
    level n and its branch count m_n, then its exact N_n, delta_n and
    epsilon_n cells.

    sweep is family._levels(range(1, depth + 1)), or a list of the level
    records it yielded, whose n, m_n, s_n and next terms alone are read:
    no int product of the terms and no Fraction is formed.  N_n, and
    s_1...s_n as A/B in lowest terms, are exact Decimals stepped by one
    short multiplication per row, B absent while it is 1.  Each step, and
    each bound x*B/(y*A) with short x and y, is put in lowest terms by
    construction._lowest, whose gcds are of short ints only: A and B are
    read through their remainders by short ints, and divided only by a
    gcd above 1.

    The rows are a json row stream (see _write_rows): every str in them,
    the command's own columns included, must be number text."""
    count, a, b = Decimal(1), Decimal(1), None

    def a_mod(v: int) -> int:
        return int(_EXACT.remainder(a, v))

    def b_mod(v: int) -> int:
        return int(_EXACT.remainder(b, v))

    def lowest(x: int, y: int) -> tuple[int, int, int, int]:
        return _lowest(x, y, a_mod, None if b is None else b_mod)

    def cell(terms: tuple[int, int]) -> str:
        x, g, y, h = lowest(*terms)
        return f"{x if b is None else _scaled(b, h, x)}/{_scaled(a, g, y)}"

    for level in sweep:
        n, m, s_n = level.n, level.m_n, level.s_n
        count = _EXACT.multiply(count, m)
        # s_1...s_n = (A/B)*(num/den): 1/(s_1...s_n) = den*B/(num*A)
        den, g, num, h = lowest(s_n.denominator, s_n.numerator)
        a = _scaled(a, g, num)
        if b is not None:
            b = _scaled(b, h, den)
            b = None if b == 1 else b
        elif den > 1:
            b = Decimal(den)
        yield {"n": n, **columns(n, m), "N_n": str(count),
               "delta_n": cell(_diameter_terms(level.next_level)),
               "epsilon_n": cell(_gap_terms(n, s_n))}


# -- reports and their writers ---------------------------------------------


# a NamedTuple, not a frozen dataclass, which costs a millisecond more to
# create on every start of the program
class Report(NamedTuple):
    """What a command found, before any of it is written: the exit code
    and one row source per output format.

    Only the chosen format's source is called, so the others are never
    built.  text yields lines, csv yields rows of cells with the header
    first, and json returns the document, whose long lists are iterators
    of rows that _write_json draws as it writes them.
    """

    code: int
    text: Callable[[], Iterable[str]]
    csv: Callable[[], Iterable[Sequence[str]]]
    json: Callable[[], dict]


def _write_text(lines: Iterable[str], out: TextIO) -> None:
    for line in lines:
        out.write(line + "\n")


def _write_csv(rows: Iterable[Sequence[str]], out: TextIO) -> None:
    for row in rows:
        out.write(",".join(row) + "\n")


def _write_json(doc: dict, out: TextIO) -> None:
    """Write json.dumps(doc, indent=2) and a newline to out, for a doc
    with at least one key.

    A value of doc that is an iterator is a row stream, written row by row
    as it is drawn; any other value is written by json.dumps.  The first
    row of every stream is drawn before anything is written, so a command
    whose rows fail from the start writes nothing."""
    fields = [(json.dumps(key), _json_field(value)) for key, value in doc.items()]
    out.write("{")
    for index, (key, value) in enumerate(fields):
        out.write(f"{',' if index else ''}\n  {key}: ")
        if isinstance(value, str):
            out.write(value)
        else:
            _write_rows(value, out)
    out.write("\n}\n")


def _json_field(value) -> str | Iterator[dict]:
    # a top-level value as its text, indented to its depth, or a row
    # stream with its first row drawn.  json.dumps escapes every newline
    # in a string, so each line break of its text is one between two
    # lines of the value
    if not isinstance(value, Iterator):
        return json.dumps(value, indent=2).replace("\n", "\n  ")
    first = list(itertools.islice(value, 1))
    return itertools.chain(first, value) if first else "[]"


def _write_rows(rows: Iterator[dict], out: TextIO) -> None:
    # a non-empty stream of non-empty flat rows whose values are ints,
    # None, bools and number text: a str made by str(), repr() or an
    # f-string of an int, a Fraction, a Decimal or a float.  Number text
    # holds no character that json escapes, so it is quoted as it is; a
    # cell whose type is exactly int is written by str, as json writes it,
    # and a bool, None or anything else by json.dumps.  Each key is
    # escaped once per stream
    keys: dict[str, str] = {}
    separator = "["
    for row in rows:
        cells = []
        for key, value in row.items():
            if key not in keys:
                keys[key] = f"\n      {json.dumps(key)}: "
            cells.append(keys[key] + (f'"{value}"' if isinstance(value, str)
                                      else str(value) if type(value) is int
                                      else json.dumps(value)))
        out.write(f"{separator}\n    {{{','.join(cells)}\n    }}")
        separator = ","
    out.write("\n  ]")


_WRITERS = {"text": _write_text, "csv": _write_csv, "json": _write_json}


def _csv_of(rows: Iterable[dict]) -> Iterator[list[str]]:
    """csv rows of flat json rows: the first row's keys as the header, then
    each row's values, null as an empty cell and booleans as in json."""
    for index, row in enumerate(rows):
        if index == 0:
            yield list(row)
        yield [
            "" if v is None else _fmt_bool(v) if isinstance(v, bool) else str(v)
            for v in row.values()
        ]


def _endpoints(texts: Iterable[tuple[str, str]]) -> Iterator[dict]:
    # a json row stream: each text is an endpoint's number text
    return ({"lo": lo, "hi": hi} for lo, hi in texts)


def _report(cfg: SimpleNamespace, text, csv, json, code: int = 0) -> Report:
    """The Report of cfg's command from its own sources: the json document
    is opened by the command and the family, the text by the family line."""
    head, lines = {"command": cfg.command}, []
    if cfg.family is not None:
        kind, description = cfg.family.kind, cfg.family.description
        head["family"] = {"kind": kind, "description": description}
        lines.append(f"family: {description} ({kind})")
    return Report(
        code,
        text=lambda: itertools.chain(lines, text()),
        csv=csv,
        json=lambda: {**head, **json()},
    )


# -- command runners -----------------------------------------------------


def _run_digits(cfg: SimpleNamespace) -> Report:
    result = engel_digits(cfg.x, cfg.depth)
    digits = list(result.digits)
    return _report(
        cfg,
        text=lambda: [
            f"x: {cfg.x}",
            f"digits: {digits}",
            f"count: {len(digits)}",
            f"terminated: {_fmt_bool(result.terminated)}",
            f"remainder: {result.remainder}",
        ],
        csv=lambda: _csv_of({"k": k, "digit": d} for k, d in enumerate(digits, 1)),
        json=lambda: {
            "x": str(cfg.x),
            "depth": cfg.depth,
            "digits": digits,
            "terminated": result.terminated,
            "remainder": str(result.remainder),
        },
    )


def _run_cylinder(cfg: SimpleNamespace) -> Report:
    word = DigitWord(cfg.word)
    # the word's reconstruction is the left end of its cylinder
    interval = cylinder_interval(word)
    return _report(
        cfg,
        text=lambda: [
            f"word: {list(word)}",
            f"interval: {interval}",
            f"length: {interval.length}",
            f"reconstruction: {interval.lo}",
        ],
        csv=lambda: _csv_of([{
            "word": " ".join(str(d) for d in word),
            "lo": interval.lo,
            "hi": interval.hi,
            "length": interval.length,
            "reconstruction": interval.lo,
        }]),
        json=lambda: {
            "word": list(word),
            "lo": str(interval.lo),
            "hi": str(interval.hi),
            "lo_closed": interval.lo_closed,
            "hi_closed": interval.hi_closed,
            "length": str(interval.length),
            "reconstruction": str(interval.lo),
        },
    )


def _run_check(cfg: SimpleNamespace) -> Report:
    report = cfg.family.check_conditions(cfg.depth)
    fields = {
        "depth": report.depth,
        "bounds_ok": report.bounds_ok,
        "bounds_violation": report.bounds_violation,
        "growth_ok": report.growth_ok,
        "growth_violation": report.growth_violation,
        "divergence": report.divergence,
    }

    def verdict(ok: bool, index: int | None) -> str:
        return "ok" if ok else f"FAIL at n = {index}"

    return _report(
        cfg,
        text=lambda: [
            f"depth checked: {report.depth}",
            "bounds s_n >= t_n >= 2: "
            + verdict(report.bounds_ok, report.bounds_violation),
            "growth s_{n+1} >= s_n + t_n: "
            + verdict(report.growth_ok, report.growth_violation),
            f"divergence of s_n: {report.divergence}",
            f"all conditions: {'ok' if report.all_ok else 'FAIL'}",
        ],
        csv=lambda: _csv_of([fields]),
        json=lambda: {**fields, "all_ok": report.all_ok},
        code=0 if report.all_ok else 2,
    )


def _run_level(cfg: SimpleNamespace) -> Report:
    n = cfg.depth
    if cfg.sample is not None:
        # each drawn word materializes one interval
        if cfg.sample > cfg.limit:
            raise SizeLimitError(cfg.sample, cfg.limit, f"sample of level {n}")
        rng = random.Random(cfg.seed)
        count, words, intervals = cfg.family.sample_level(n, cfg.sample, rng)
        return _report(
            cfg,
            text=lambda: [
                f"level: {n}",
                f"count: {count}",
                f"sample: {cfg.sample} (seed {cfg.seed})",
            ] + [
                f"  {','.join(str(d) for d in w)} -> {iv}"
                for w, iv in zip(words, intervals)
            ],
            csv=lambda: _csv_of(
                {
                    "index": idx,
                    "word": " ".join(str(d) for d in w),
                    "lo": iv.lo,
                    "hi": iv.hi,
                    "length": iv.length,
                }
                for idx, (w, iv) in enumerate(zip(words, intervals), start=1)
            ),
            json=lambda: {
                "n": n,
                "count": str(count),
                "sample": cfg.sample,
                "seed": cfg.seed,
                "words": [list(w) for w in words],
                "intervals": _endpoints((str(iv.lo), str(iv.hi)) for iv in intervals),
            },
        )

    # the level as a stream of endpoint ints in lowest terms: no Fraction
    # or RatInterval is built for an endpoint.  A level n >= 1 lies inside
    # (0, 1/2], so every endpoint and reduced length of it prints as
    # "p/q".  Level 0 is the one interval [0, 1], whose ends are the only
    # whole numbers, printed by str(Fraction)
    level = cfg.family._level(n, cfg.limit)
    whole, fractional = [], level.ends
    if n == 0:
        whole = [(str(Fraction(a, b)), str(Fraction(c, d))) for a, b, c, d in fractional]
        fractional = ()

    def text() -> Iterator[str]:
        yield f"level: {n}"
        yield f"count: {level.count}"
        yield f"min gap: {'none' if level.gap is None else level.gap}"
        yield f"max length: {level.longest}"
        yield "intervals:"
        for lo, hi in whole:
            yield f"  {_interval_str(lo, hi)}"
        for a, b, c, d in fractional:
            yield f"  [{a}/{b}, {c}/{d}]"

    def csv() -> Iterator[list[str]]:
        yield ["index", "lo", "hi", "length"]
        for lo, hi in whole:
            yield ["1", lo, hi, str(level.longest)]
        for idx, (a, b, c, d) in enumerate(fractional, start=1):
            num, den = c * b - a * d, b * d
            g = gcd(num, den)
            yield [str(idx), f"{a}/{b}", f"{c}/{d}", f"{num // g}/{den // g}"]

    return _report(
        cfg,
        text=text,
        csv=csv,
        json=lambda: {
            "n": n,
            "count": level.count,
            "min_gap": None if level.gap is None else str(level.gap),
            "max_length": str(level.longest),
            "intervals": _endpoints(itertools.chain(
                whole,
                ((f"{a}/{b}", f"{c}/{d}") for a, b, c, d in fractional),
            )),
        },
    )


def _run_quantities(cfg: SimpleNamespace) -> Report:
    # the last row reads level depth + 1; walking the levels first makes a
    # violation or a short table raise before anything is written, and the
    # rows read the records of that walk
    sweep = list(cfg.family._levels(range(1, cfg.depth + 1)))
    levels = functools.partial(_exact_rows, sweep, lambda n, m_n: {"m_n": m_n})

    def text() -> Iterator[str]:
        # each column is right-justified to its widest cell, which is known
        # only after the last row, so the rows are held
        rows = list(_csv_of(levels()))
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        for row in rows:
            yield "  ".join(cell.rjust(w) for cell, w in zip(row, widths))

    return _report(
        cfg,
        text=text,
        csv=lambda: _csv_of(levels()),
        json=lambda: {"depth": cfg.depth, "levels": levels()},
    )


def _run_dim(cfg: SimpleNamespace) -> Report:
    report = estimate_dimension(cfg.family, cfg.n_max, cfg.tail_window)

    def text() -> Iterator[str]:
        yield f"n_max: {report.n_max}"
        yield f"tail window: {report.tail_window}"
        yield f"estimated dim: {_fmt_quot(report.estimated_dim)}"
        yield f"tail min formula quotient: {_fmt_quot(report.tail_min_formula)}"
        yield f"monotone tail: {_fmt_bool(report.monotone_tail)}"
        yield f"note: {report.caveat}"
        shown = min(10, report.n_max)
        yield f"last {shown} levels (n, formula, upper, lower):"
        for n in range(report.n_max - shown + 1, report.n_max + 1):
            yield (
                f"  {n}  {_fmt_quot(report.formula[n - 1])}"
                f"  {_fmt_quot(report.upper[n - 1])}"
                f"  {_fmt_quot(report.lower[n - 1]) or 'none'}"
            )

    # machine formats carry the exact per-level quantities next to the
    # floating quotients; these strings grow quickly with n
    def quotients(n: int, m_n: int) -> dict:
        i = n - 1
        return {
            "F_n": _fmt_quot(report.formula[i]),
            "upper_n": _fmt_quot(report.upper[i]),
            "lower_n": _fmt_quot(report.lower[i]) or None,
        }

    return _report(
        cfg,
        text=text,
        csv=lambda: _csv_of(_exact_rows(cfg.family._levels(range(1, cfg.n_max + 1)), quotients)),
        json=lambda: {
            "n_max": report.n_max,
            "tail_window": report.tail_window,
            "estimated_dim": _fmt_quot(report.estimated_dim),
            "tail_min_formula": _fmt_quot(report.tail_min_formula),
            "monotone_tail": report.monotone_tail,
            "caveat": report.caveat,
            "levels": _exact_rows(cfg.family._levels(range(1, cfg.n_max + 1)), quotients),
        },
    )


def _run_cover_fit(cfg: SimpleNamespace) -> Report:
    result = empirical_cover_fit(cfg.family, cfg.depths, cfg.limit)
    slope = _fmt_quot(result.slope)
    points = [
        {"depth": d, "log_count": _fmt_quot(y), "log_inv_diameter": _fmt_quot(x)}
        for d, y, x in zip(result.depths, result.log_counts, result.log_inv_diameters)
    ]
    return _report(
        cfg,
        text=lambda: [
            f"depths: {', '.join(str(d) for d in result.depths)}",
            f"slope: {slope}",
            "points (depth, log count, log 1/diameter):",
        ] + ["  " + "  ".join(map(str, point.values())) for point in points],
        csv=lambda: _csv_of({**point, "slope": slope} for point in points),
        json=lambda: {
            "depths": list(result.depths),
            "slope": slope,
            "points": points,
        },
    )


# each command's help, whether it reads --family and the kind's flags
# (checked before its own), its own flags, and its runner
_COMMANDS = {
    "digits": ("expand a rational into its digit sequence", False, {
        "x": (_rational, _REQUIRED), "depth": (_integer(1), None),
    }, _run_digits),
    "cylinder": ("exact interval of points sharing a digit prefix", False,
                 {"word": (_integers(2), _REQUIRED)}, _run_cylinder),
    "check": ("verify the window conditions of a family to a depth", True,
              {"depth": (_integer(1), 50)}, _run_check),
    "level": ("enumerate or sample the basic intervals of one level", True, {
        "depth": (_integer(0), _REQUIRED),
        "limit": (_integer(1), DEFAULT_LEVEL_LIMIT),
        "sample": (_integer(1), None),
        "seed": (_integer(), 0),
    }, _run_level),
    "quantities": ("exact per-level counts and bounds of a family", True,
                   {"depth": (_integer(1), _REQUIRED)}, _run_quantities),
    "dim": ("evaluate the dimension quotient sequences", True, {
        "n-max": (_integer(1), _REQUIRED), "tail-window": (_integer(1), None),
    }, _run_dim),
    "cover-fit": ("fit log count against log inverse diameter", True, {
        "depths": (_integers(1), (2, 3, 4, 5, 6)),
        "limit": (_integer(1), DEFAULT_FIT_LIMIT),
    }, _run_cover_fit),
}

# which --flags each command accepts, in help order; config keys too
_COMMAND_OPTIONS = {
    command: (_FAMILY_OPTIONS if reads_family else ())
    + (*flags, *_OUTPUT_FLAG, "config")
    for command, (_, reads_family, flags, _) in _COMMANDS.items()
}


def run(cfg: SimpleNamespace, out: TextIO) -> int:
    """Execute a validated config and write its report to out in the
    chosen format, each row as it comes; returns the exit code."""
    report = _COMMANDS[cfg.command][-1](cfg)
    _WRITERS[cfg.output](getattr(report, cfg.output)(), out)
    return report.code


def main(argv: Sequence[str] | None = None) -> int:
    # exact counts and bounds overflow the interpreter's default cap on
    # int-to-string conversion; lift it before any rendering
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        code = run(cfg, sys.stdout)
        sys.stdout.flush()
    except ConditionError as exc:
        print(f"condition violation: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InvalidWordError, SizeLimitError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so the flush
        # at interpreter exit does not report the broken pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
