"""Independent output checks for every request kind the workloads send.

Nothing here imports the program.  Dimension quotients are recomputed in
plain float logs from the closed forms s_n = a*r^n; exact quantities
(N_n, delta_n, epsilon_n) are rebuilt as integers and Fractions from the
same closed forms; level intervals are re-enumerated from their windows as
S + 1/(P*j); Engel digits are checked by reconstructing the input.

check(request, code, out, err) returns a Verdict.  Outputs too large to
parse in full get cheap checks on every row (row shape, float columns,
digit count and last digits of every exact value) and a full exact parse on
a seeded subset of rows.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from workloads import Family, Request

# the dimension report's fixed note line
CAVEAT = ("finite-prefix proxy: the minimum of the formula quotient over the "
          "tail window, not a certified limit")
REL_TOL = 1e-9
# rows of an exact table parsed in full; larger tables get a sampled parse
FULL_ROWS = 80
SAMPLED_ROWS = 6


class Mismatch(Exception):
    """Raised inside a check at the first difference from the oracle."""


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    full: bool = True  # every exact value was parsed and compared
    info: dict = field(default_factory=dict)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def check(req: Request, code: int, out: str, err: str) -> Verdict:
    verdict = Verdict(True)
    try:
        _expect(code == req.expect_code,
                f"exit code {code}, expected {req.expect_code}: {err.strip()[:200]}")
        if code == 1:
            _check_refusal(req, out, err)
        else:
            _CHECKS[req.kind](req, out, verdict)
    except Mismatch as exc:
        return Verdict(False, str(exc), verdict.full)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError,
            json.JSONDecodeError) as exc:
        return Verdict(False, f"unparseable output: {type(exc).__name__}: {exc}",
                       verdict.full)
    return verdict


def _lines(out: str) -> list[str]:
    _expect(out.endswith("\n"), "output does not end with a newline")
    return out[:-1].split("\n")


def _header(family: Family) -> str:
    return f"family: {family.description} ({family.kind})"


# -- closed forms ------------------------------------------------------------


class Closed:
    """Float-log closed forms of the three quotients for a geometric family."""

    def __init__(self, family: Family):
        self.ls = (math.log(family.s_coef), math.log(family.s_ratio))
        self.lt = (math.log(family.t_coef), math.log(family.t_ratio))

    def _log(self, coef_ratio, n):
        return coef_ratio[0] + n * coef_ratio[1]

    def _sum(self, coef_ratio, n):
        return n * coef_ratio[0] + n * (n + 1) / 2 * coef_ratio[1]

    def formula(self, n: int) -> float:
        den = (self._sum(self.ls, n) + 2 * self._log(self.ls, n + 1)
               - self._log(self.lt, n + 1))
        return self._sum(self.lt, n) / den

    # integer sequences make m_n = t_n, so log m_n is the t closed form
    def upper(self, n: int) -> float:
        neg_log_delta = (self._sum(self.ls, n) + 2 * self._log(self.ls, n + 1)
                         - self._log(self.lt, n + 1) - math.log(4))
        return self._sum(self.lt, n) / neg_log_delta

    def lower(self, n: int) -> float | None:
        if n == 1:
            return None
        neg_log_gap = ((n + 3) * math.log(2) + self._sum(self.ls, n)
                       + self._log(self.ls, n) - self._log(self.lt, n))
        return self._sum(self.lt, n - 1) / neg_log_gap


def _close(text: str, expected: float, what: str) -> None:
    value = float(text)
    _expect(abs(value - expected) <= REL_TOL * abs(expected),
            f"{what} = {text}, closed form {expected!r}")


def _window(family: Family, k: int) -> tuple[int, int]:
    s, t = family.s(k), family.t(k)
    return s + 1, s + t


class Exact:
    """Exact N_n, delta_n and epsilon_n for levels 1..depth."""

    def __init__(self, family: Family, depth: int):
        self.family = family
        self.prod_s = [1]
        self.count = [1]
        for k in range(1, depth + 1):
            self.prod_s.append(self.prod_s[-1] * family.s(k))
            self.count.append(self.count[-1] * family.t(k))

    def delta(self, n: int) -> Fraction:
        s_next = self.family.s(n + 1)
        return Fraction(4 * self.family.t(n + 1), self.prod_s[n] * s_next * s_next)

    def epsilon(self, n: int) -> Fraction:
        return Fraction(1, 2 ** (n + 3) * self.prod_s[n] * self.family.s(n))


def _digit_shape(value: int) -> tuple[int, int]:
    """Decimal digit count and last nine digits, without a full conversion."""
    shift = max(0, value.bit_length() - 64)
    log10 = (math.log2(value >> shift) + shift) * math.log10(2)
    digits = math.floor(log10) + 1
    if abs(log10 - round(log10)) < 1e-6:  # too close to call in floats
        digits = len(str(value))
    return digits, value % 10**9


def _same_int(token: str, value: int, full: bool, what: str) -> None:
    if full:
        _expect(token.isdigit() and int(token) == value, f"{what} = {token[:40]}")
        return
    digits, tail = _digit_shape(value)
    _expect(token.isdigit() and len(token) == digits and int(token[-9:]) == tail,
            f"{what}: digit count or last digits differ")


def _same_fraction(token: str, value: Fraction, full: bool, what: str) -> None:
    num, sep, den = token.partition("/")
    _expect(sep == "/" or value.denominator == 1, f"{what} is not p/q")
    _same_int(num, value.numerator, full, what + " numerator")
    if sep:
        _same_int(den, value.denominator, full, what + " denominator")


def _full_rows(n_rows: int, req: Request, verdict: Verdict) -> set[int]:
    if n_rows <= FULL_ROWS:
        return set(range(1, n_rows + 1))
    verdict.full = False
    rng = random.Random(" ".join(req.argv))
    return {1, n_rows, *rng.sample(range(2, n_rows), SAMPLED_ROWS)}


def _check_exact_row(exact: Exact, n: int, full: bool, n_tok: str, count_tok: str,
                     delta_tok: str, eps_tok: str) -> None:
    _expect(n_tok == str(n), f"row {n} labelled {n_tok}")
    _same_int(count_tok, exact.count[n], full, f"N_{n}")
    _same_fraction(delta_tok, exact.delta(n), full, f"delta_{n}")
    _same_fraction(eps_tok, exact.epsilon(n), full, f"epsilon_{n}")


# -- dim ---------------------------------------------------------------------


def _check_dim_text(req: Request, out: str, verdict: Verdict) -> None:
    n_max, closed = req.size, Closed(req.family)
    tail = max(1, n_max // 10)
    shown = min(10, n_max)
    lines = _lines(out)
    _expect(len(lines) == 8 + shown, f"{len(lines)} lines")
    _expect(lines[0] == _header(req.family), f"header {lines[0]!r}")
    _expect(lines[1] == f"n_max: {n_max}", lines[1])
    _expect(lines[2] == f"tail window: {tail}", lines[2])
    formulas = [closed.formula(n) for n in range(n_max - tail + 1, n_max + 1)]
    key, est = lines[3].split(": ")
    _expect(key == "estimated dim", lines[3])
    _close(est, min(formulas), "estimated dim")
    _expect(lines[4] == f"tail min formula quotient: {est}", lines[4])
    steps = [b - a for a, b in zip(formulas, formulas[1:])]
    if all(abs(d) > 1e-12 * abs(f) for d, f in zip(steps, formulas)):
        monotone = "true" if all(d > 0 for d in steps) else "false"
        _expect(lines[5] == f"monotone tail: {monotone}", lines[5])
    else:
        _expect(lines[5] in ("monotone tail: true", "monotone tail: false"), lines[5])
    _expect(lines[6] == f"note: {CAVEAT}", lines[6])
    _expect(lines[7] == f"last {shown} levels (n, formula, upper, lower):", lines[7])
    for n, line in zip(range(n_max - shown + 1, n_max + 1), lines[8:]):
        _expect(line.startswith("  "), line)
        label, f_n, upper, lower = line[2:].split("  ")
        _expect(label == str(n), line)
        _close(f_n, closed.formula(n), f"F_{n}")
        _close(upper, closed.upper(n), f"upper_{n}")
        if n == 1:
            _expect(lower == "none", line)
        else:
            _close(lower, closed.lower(n), f"lower_{n}")


def _check_dim_csv(req: Request, out: str, verdict: Verdict) -> None:
    n_max, closed = req.size, Closed(req.family)
    lines = _lines(out)
    _expect(lines[0] == "n,F_n,upper_n,lower_n,N_n,delta_n,epsilon_n", lines[0])
    _expect(len(lines) == n_max + 1, f"{len(lines) - 1} rows for n_max {n_max}")
    exact = Exact(req.family, n_max + 1)
    full = _full_rows(n_max, req, verdict)
    for n, line in enumerate(lines[1:], start=1):
        n_tok, f_n, upper, lower, count, delta, eps = line.split(",")
        _close(f_n, closed.formula(n), f"F_{n}")
        _close(upper, closed.upper(n), f"upper_{n}")
        if n == 1:
            _expect(lower == "", f"lower_1 = {lower!r}")
        else:
            _close(lower, closed.lower(n), f"lower_{n}")
        _check_exact_row(exact, n, n in full, n_tok, count, delta, eps)


def _check_dim_json(req: Request, out: str, verdict: Verdict) -> None:
    n_max, closed = req.size, Closed(req.family)
    tail = max(1, n_max // 10)
    doc = json.loads(out)
    _expect(out.endswith("}\n"), "json document does not end the output")
    _expect(list(doc) == ["command", "family", "n_max", "tail_window", "estimated_dim",
                          "tail_min_formula", "monotone_tail", "caveat", "levels"],
            f"keys {list(doc)}")
    _expect(doc["command"] == "dim" and doc["n_max"] == n_max
            and doc["tail_window"] == tail and doc["caveat"] == CAVEAT,
            "dim document header")
    _expect(doc["family"] == {"kind": req.family.kind,
                              "description": req.family.description}, "family")
    _close(doc["estimated_dim"],
           min(closed.formula(n) for n in range(n_max - tail + 1, n_max + 1)),
           "estimated_dim")
    _expect(doc["tail_min_formula"] == doc["estimated_dim"], "tail_min_formula")
    _expect(isinstance(doc["monotone_tail"], bool), "monotone_tail")
    levels = doc["levels"]
    _expect(len(levels) == n_max, f"{len(levels)} levels")
    exact = Exact(req.family, n_max + 1)
    full = _full_rows(n_max, req, verdict)
    for n, level in enumerate(levels, start=1):
        _expect(list(level) == ["n", "F_n", "upper_n", "lower_n", "N_n", "delta_n",
                                "epsilon_n"], f"level {n} keys")
        _expect(level["n"] == n, f"level {n} labelled {level['n']}")
        _close(level["F_n"], closed.formula(n), f"F_{n}")
        _close(level["upper_n"], closed.upper(n), f"upper_{n}")
        if n == 1:
            _expect(level["lower_n"] is None, "lower_1")
        else:
            _close(level["lower_n"], closed.lower(n), f"lower_{n}")
        _check_exact_row(exact, n, n in full, str(n), level["N_n"], level["delta_n"],
                         level["epsilon_n"])


# -- quantities --------------------------------------------------------------


def _check_quantities_csv(req: Request, out: str, verdict: Verdict) -> None:
    depth = req.size
    lines = _lines(out)
    _expect(lines[0] == "n,m_n,N_n,delta_n,epsilon_n", lines[0])
    _expect(len(lines) == depth + 1, f"{len(lines) - 1} rows for depth {depth}")
    exact = Exact(req.family, depth + 1)
    full = _full_rows(depth, req, verdict)
    for n, line in enumerate(lines[1:], start=1):
        n_tok, m_n, count, delta, eps = line.split(",")
        _expect(m_n == str(req.family.t(n)), f"m_{n} = {m_n}")
        _check_exact_row(exact, n, n in full, n_tok, count, delta, eps)


def _check_quantities_json(req: Request, out: str, verdict: Verdict) -> None:
    depth = req.size
    doc = json.loads(out)
    _expect(out.endswith("}\n"), "json document does not end the output")
    _expect(list(doc) == ["command", "family", "depth", "levels"], f"keys {list(doc)}")
    _expect(doc["command"] == "quantities" and doc["depth"] == depth, "header")
    _expect(doc["family"] == {"kind": req.family.kind,
                              "description": req.family.description}, "family")
    levels = doc["levels"]
    _expect(len(levels) == depth, f"{len(levels)} levels")
    exact = Exact(req.family, depth + 1)
    full = _full_rows(depth, req, verdict)
    for n, level in enumerate(levels, start=1):
        _expect(list(level) == ["n", "m_n", "N_n", "delta_n", "epsilon_n"],
                f"level {n} keys")
        _expect(level["m_n"] == req.family.t(n), f"m_{n}")
        _check_exact_row(exact, n, n in full, str(level["n"]), level["N_n"],
                         level["delta_n"], level["epsilon_n"])


# -- check -------------------------------------------------------------------


def _check_check_text(req: Request, out: str, verdict: Verdict) -> None:
    family, depth = req.family, req.size
    s, t = family.s, family.t
    bounds = next((n for n in range(1, depth + 1) if not s(n) >= t(n) >= 2), None)
    growth = next((n for n in range(1, depth + 1) if s(n + 1) < s(n) + t(n)), None)

    def verdict_text(index):
        return "ok" if index is None else f"FAIL at n = {index}"

    diverges = "certified" if family.s_ratio > 1 else "violated-at-depth"
    all_ok = bounds is None and growth is None and family.s_ratio > 1
    expected = [
        _header(family),
        f"depth checked: {depth}",
        f"bounds s_n >= t_n >= 2: {verdict_text(bounds)}",
        f"growth s_{{n+1}} >= s_n + t_n: {verdict_text(growth)}",
        f"divergence of s_n: {diverges}",
        f"all conditions: {'ok' if all_ok else 'FAIL'}",
    ]
    lines = _lines(out)
    _expect(lines == expected, f"check report differs: {lines}")


# -- level -------------------------------------------------------------------


def _interval(text: str) -> tuple[Fraction, Fraction]:
    _expect(text.startswith("[") and text.endswith("]"), f"interval {text[:40]}")
    lo, hi = text[1:-1].split(", ")
    return Fraction(lo), Fraction(hi)


def _word_interval(word, window) -> tuple[Fraction, Fraction]:
    # [S + 1/(P*j_max), S + 1/(P*(j_min - 1))] for the level-(n+1) window
    total, prod = Fraction(0), 1
    for d in word:
        prod *= d
        total += Fraction(1, prod)
    return total + Fraction(1, prod * window[1]), total + Fraction(1, prod * (window[0] - 1))


def _level_intervals(family: Family, depth: int) -> list[tuple[Fraction, Fraction]]:
    """Every level interval, by a prefix-sharing walk over the windows."""
    j_min, j_max = _window(family, depth + 1)
    ranges = [range(lo, hi + 1) for lo, hi in (_window(family, k)
                                               for k in range(1, depth + 1))]
    found = []

    def walk(k, total, prod):
        if k == depth:
            found.append((total + Fraction(1, prod * j_max),
                          total + Fraction(1, prod * (j_min - 1))))
            return
        for d in ranges[k]:
            walk(k + 1, total + Fraction(1, prod * d), prod * d)

    walk(0, Fraction(0), 1)
    found.sort()
    return found


def _check_level_head(req: Request, lines: list[str], count: int) -> None:
    _expect(lines[0] == _header(req.family), f"header {lines[0]!r}")
    _expect(lines[1] == f"level: {req.size}", lines[1])
    _expect(lines[2] == f"count: {count}", lines[2])


def _check_level_full(req: Request, out: str, verdict: Verdict) -> None:
    family, n = req.family, req.size
    exact = Exact(family, n + 1)
    lines = _lines(out)
    _check_level_head(req, lines, exact.count[n])
    _expect(lines[5] == "intervals:", lines[5])
    body = lines[6:]
    _expect(len(body) == exact.count[n], f"{len(body)} interval lines")
    got = [_interval(line[2:]) for line in body]
    for (lo, hi), (lo2, _) in zip(got, got[1:]):
        _expect(lo < lo2, "intervals not sorted by left endpoint")
        _expect(hi < lo2, "intervals overlap")
    _expect(got == _level_intervals(family, n), "endpoints differ from S + 1/(P*j)")
    gap = min(lo2 - hi for (_, hi), (lo2, _) in zip(got, got[1:]))
    _expect(gap >= exact.epsilon(n), "min gap below epsilon_n")
    _expect(lines[3] == f"min gap: {gap}", lines[3])
    longest = max(hi - lo for lo, hi in got)
    _expect(longest <= exact.delta(n), "interval longer than delta_n")
    _expect(lines[4] == f"max length: {longest}", lines[4])
    verdict.info["intervals"] = len(got)


def _check_level_sample(req: Request, out: str, verdict: Verdict) -> None:
    family, n = req.family, req.size
    sample, seed = req.params["sample"], req.params["seed"]
    lines = _lines(out)
    _check_level_head(req, lines, Exact(family, n).count[n])
    _expect(lines[3] == f"sample: {sample} (seed {seed})", lines[3])
    body = lines[4:]
    _expect(len(body) == sample, f"{len(body)} sampled words")
    windows = [_window(family, k) for k in range(1, n + 2)]
    for line in body:
        word_text, arrow, interval = line[2:].partition(" -> ")
        _expect(line.startswith("  ") and arrow, line[:60])
        word = [int(d) for d in word_text.split(",")]
        _expect(len(word) == n, f"word of length {len(word)}")
        _expect(all(lo <= d <= hi for d, (lo, hi) in zip(word, windows)),
                "sampled digit outside its window")
        _expect(_interval(interval) == _word_interval(word, windows[n]),
                "sampled endpoints differ from S + 1/(P*j)")
    verdict.info["intervals"] = sample


def _check_refusal(req: Request, out: str, err: str) -> None:
    count = math.prod(req.family.t(k) for k in range(1, req.size + 1))
    limit = req.params.get("limit", 10**6)
    _expect(out == "", "refused request wrote to stdout")
    _expect(err == f"error: level {req.size} holds {count} intervals, limit {limit}\n",
            f"refusal message {err[:120]!r}")


# -- digits and cylinder -----------------------------------------------------


def _int_list(text: str) -> list[int]:
    _expect(text.startswith("[") and text.endswith("]"), f"list {text[:40]}")
    return [int(d) for d in text[1:-1].split(", ")] if text != "[]" else []


def _check_digits(req: Request, out: str, verdict: Verdict) -> None:
    x, depth = req.params["x"], req.size
    lines = _lines(out)
    _expect(len(lines) == 5, f"{len(lines)} lines")
    _expect(lines[0] == f"x: {x}", lines[0])
    _expect(lines[1].startswith("digits: "), lines[1])
    digits = _int_list(lines[1][len("digits: "):])
    _expect(lines[2] == f"count: {len(digits)}", lines[2])
    _expect(lines[4].startswith("remainder: "), lines[4])
    remainder = Fraction(lines[4][len("remainder: "):])
    done = remainder == 0
    _expect(lines[3] == f"terminated: {'true' if done else 'false'}", lines[3])
    _expect(digits and digits[0] >= 2 and digits == sorted(digits), "digits not admissible")
    _expect(done or len(digits) == depth, "stopped before the requested depth")
    _expect(depth is None or len(digits) <= depth, "more digits than requested")
    # x = sum 1/(d_1...d_k) + r/(d_1...d_n) with 0 <= r < 1/(d_n - 1) places
    # x in the cylinder of the digits, which identifies them uniquely
    total, prod = Fraction(0), 1
    for d in digits:
        prod *= d
        total += Fraction(1, prod)
    _expect(0 <= remainder < Fraction(1, digits[-1] - 1), "remainder out of range")
    _expect(total + remainder / prod == x, "digits do not reconstruct x")


def _check_cylinder(req: Request, out: str, verdict: Verdict) -> None:
    word = req.params["word"]
    prod = math.prod(word)
    value = sum(Fraction(1, math.prod(word[:k])) for k in range(1, len(word) + 1))
    lo, hi = value, value + Fraction(1, prod * (word[-1] - 1))
    expected = [
        f"word: {list(word)}",
        f"interval: [{lo}, {hi})",
        f"length: {hi - lo}",
        f"reconstruction: {value}",
    ]
    _expect(_lines(out) == expected, "cylinder report differs")


_CHECKS = {
    "dim/text": _check_dim_text,
    "dim/csv": _check_dim_csv,
    "dim/json": _check_dim_json,
    "quantities/csv": _check_quantities_csv,
    "quantities/json": _check_quantities_json,
    "check/text": _check_check_text,
    "level/full": _check_level_full,
    "level/sample": _check_level_sample,
    "digits/text": _check_digits,
    "cylinder/text": _check_cylinder,
}


# -- negative self-test --------------------------------------------------------

_NUMBER = re.compile(r"[0-9][0-9.eE+-]*")


def corrupt(out: str, rng: random.Random) -> str:
    """Replace one digit that is not part of a float with another digit.

    Floats are compared to a tolerance, so a change in their last place is
    legitimately invisible; every other digit is checked exactly.
    """
    positions = [m.start() + i for m in _NUMBER.finditer(out)
                 if not set(m.group()) & set(".eE")
                 for i in range(len(m.group())) if m.group()[i].isdigit()]
    pos = rng.choice(positions)
    digit = rng.choice([d for d in "0123456789" if d != out[pos]])
    return out[:pos] + digit + out[pos + 1:]
