"""End-to-end acceptance checks.

Each criterion is one test that prints a single verdict line (visible with
pytest -s, and in the failure report otherwise) and then asserts it.  The
tolerances and time budgets are part of the verdicts, not incidental.
"""

import itertools
import json
import time
from fractions import Fraction as F

from engeldim import (
    SequenceFamily,
    cylinder_interval,
    cylinder_length,
    empirical_cover_fit,
    engel_digits,
    estimate_dimension,
    formula_quotient,
    is_admissible,
    reconstruct,
)
from engeldim.cli import main

import random

FAMILIES = {
    "(4^n, 2^n)": SequenceFamily.geometric(4, 2),
    "(2^n, 2^n)": SequenceFamily.geometric(2, 2),
    "(2^n, 2)": SequenceFamily.geometric(2, 1, t_coef=2),
}


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {name}: {status} ({detail})")
    assert ok, f"acceptance criterion {number} ({name}): {detail}"


def test_criterion_1_engel_round_trip():
    rng = random.Random(106)
    started = time.perf_counter()
    failures = 0
    for _ in range(1000):
        q = rng.randint(2, 10**6)
        p = rng.randint(1, q - 1)
        x = F(p, q)
        result = engel_digits(x)
        if not (
            result.terminated
            and is_admissible(result.digits)
            and reconstruct(result.digits) == x
        ):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    _verdict(
        1,
        "engel round-trip",
        ok,
        f"1000 rationals, {failures} failures, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_cylinder_oracle():
    started = time.perf_counter()
    words = [
        word
        for length in range(1, 5)
        for word in itertools.combinations_with_replacement(range(2, 13), length)
    ]
    mismatches = 0
    length_errors = 0
    samples_per_word = None
    for word in words:
        interval = cylinder_interval(word)
        if cylinder_length(word) != interval.length:
            length_errors += 1
        n = len(word)
        lo, hi = interval.lo, interval.hi
        span = interval.length
        above = 20 if hi < 1 else 0
        inside = 100 - 20 - above
        points = [lo + span * j / inside for j in range(inside)]
        points += [lo * j / 21 for j in range(1, 21)]
        points += [hi + (1 - hi) * j / 21 for j in range(above)]
        samples_per_word = len(points)
        for x in points:
            by_interval = interval.contains(x)
            by_digits = tuple(engel_digits(x, n).digits) == word
            if by_interval != by_digits:
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = (
        len(words) == 1364
        and samples_per_word >= 100
        and mismatches == 0
        and length_errors == 0
        and elapsed < 60.0
    )
    _verdict(
        2,
        "cylinder oracle",
        ok,
        f"{len(words)} words x {samples_per_word} samples, "
        f"{mismatches} membership mismatches, {length_errors} length errors, "
        f"{elapsed:.2f}s < 60s",
    )


def test_criterion_3_construction_geometry():
    violations = []
    for label, fam in FAMILIES.items():
        parents = fam.level_intervals(0)
        for n in range(1, 5):
            intervals = fam.level_intervals(n)
            quantities = fam.level_quantities(n)
            if any(
                left.hi >= right.lo
                for left, right in zip(intervals, intervals[1:])
            ):
                violations.append(f"{label} n={n}: overlap")
            for interval in intervals:
                if sum(1 for p in parents if p.encloses(interval)) != 1:
                    violations.append(f"{label} n={n}: nesting")
                    break
            if max(iv.length for iv in intervals) > quantities.diameter_bound:
                violations.append(f"{label} n={n}: diameter bound")
            # the gaps of the enumerated level, not the closed-form min_gap
            gap = min((right.lo - left.hi
                       for left, right in zip(intervals, intervals[1:])), default=None)
            if gap is not None and gap < quantities.gap_bound:
                violations.append(f"{label} n={n}: gap bound")
            product = 1
            for k in range(1, n + 1):
                lo, hi = fam.digit_range(k)
                product *= hi - lo + 1
            if quantities.count != product or quantities.count != len(intervals):
                violations.append(f"{label} n={n}: count identity")
            cap = F(2) ** n
            for k in range(1, n + 1):
                cap *= fam.t(k)
            if quantities.count > cap:
                violations.append(f"{label} n={n}: count cap")
            m_n, t_n = quantities.m_n, fam.t(n)
            if not (t_n / 2 < m_n < 2 * t_n):
                violations.append(f"{label} n={n}: branch bracket")
            parents = intervals
    ok = not violations
    _verdict(
        3,
        "construction geometry",
        ok,
        f"3 families, levels 1..4, violations: {violations or 'none'}",
    )


def test_criterion_4_closed_form_dimension_values():
    closed_forms = {
        "(4^n, 2^n)": lambda n: n / (2 * (n + 3)),
        "(2^n, 2^n)": lambda n: n / (n + 2),
    }
    targets = {"(4^n, 2^n)": 0.5, "(2^n, 2^n)": 1.0}
    details = []
    ok = True
    for label, closed in closed_forms.items():
        fam = FAMILIES[label]
        started = time.perf_counter()
        report = estimate_dimension(fam, 1000)
        worst = max(
            abs(report.formula[n - 1] - closed(n)) / closed(n)
            for n in range(1, 1001)
        )
        deep = estimate_dimension(fam, 10**4)
        gap = abs(deep.estimated_dim - targets[label])
        elapsed = time.perf_counter() - started
        ok = ok and worst <= 1e-12 and gap <= 1e-3 and elapsed < 5.0
        details.append(f"{label}: rel {worst:.1e}, |est-lim| {gap:.1e}, {elapsed:.2f}s")
    started = time.perf_counter()
    vanishing = estimate_dimension(FAMILIES["(2^n, 2)"], 10**4).estimated_dim
    elapsed = time.perf_counter() - started
    ok = ok and vanishing < 0.01 and elapsed < 5.0
    details.append(f"(2^n, 2): est {vanishing:.1e} < 0.01, {elapsed:.2f}s")
    _verdict(4, "closed-form dimension values", ok, "; ".join(details))


def test_criterion_5_three_sequence_consistency():
    started = time.perf_counter()
    details = []
    worst = 0.0
    for label, fam in FAMILIES.items():
        report = estimate_dimension(fam, 10**4)
        f_n = report.formula[-1]
        upper = report.upper[-1]
        lower = report.lower[-1]
        spread = max(abs(f_n - upper), abs(f_n - lower), abs(upper - lower))
        worst = max(worst, spread)
        details.append(f"{label}: spread {spread:.1e}")
    elapsed = time.perf_counter() - started
    ok = worst < 0.01 and elapsed < 10.0
    _verdict(
        5,
        "three-sequence consistency",
        ok,
        f"{'; '.join(details)}; {elapsed:.2f}s < 10s",
    )


def test_criterion_6_brute_force_interval_equivalence():
    mismatches = 0
    checked = 0
    for fam in FAMILIES.values():
        for n in range(1, 4):
            j_min, j_max = fam.digit_range(n + 1)
            for word in fam.iter_words(n):
                children = sorted(
                    (cylinder_interval(word + (j,)) for j in range(j_min, j_max + 1)),
                    key=lambda iv: iv.lo,
                )
                tiled = all(
                    left.hi == right.lo
                    for left, right in zip(children, children[1:])
                )
                interval = fam.basic_interval(word)
                checked += 1
                if not (
                    tiled
                    and interval.lo == children[0].lo
                    and interval.hi == children[-1].hi
                ):
                    mismatches += 1
    ok = mismatches == 0
    _verdict(
        6,
        "brute-force interval equivalence",
        ok,
        f"{checked} words at levels 1..3, {mismatches} mismatches",
    )


def test_criterion_7_empirical_cover_fit():
    fam = FAMILIES["(2^n, 2^n)"]
    depths = [2, 3, 4, 5, 6]
    fit = empirical_cover_fit(fam, depths)
    mean = sum(formula_quotient(fam, n) for n in depths) / len(depths)
    in_range = 0.5 < fit.slope <= 1.0
    near_mean = abs(fit.slope - mean) < 0.1
    ok = in_range and near_mean
    _verdict(
        7,
        "empirical cover fit",
        ok,
        f"slope {fit.slope:.4f} in (0.5, 1.0], mean quotient {mean:.4f}, "
        f"|diff| {abs(fit.slope - mean):.4f} < 0.1",
    )


def test_criterion_8_cli_determinism_and_format(capsys):
    def capture(*args):
        code = main(list(args))
        out = capsys.readouterr().out
        return code, out

    stable = True
    for args in (
        ("dim", "--family", "geometric", "--s", "4", "--t", "2",
         "--n-max", "20", "--output", "csv"),
        ("dim", "--family", "geometric", "--s", "2", "--t", "2",
         "--n-max", "12", "--output", "json"),
        ("level", "--family", "geometric", "--s", "4", "--t", "2",
         "--depth", "3", "--sample", "6", "--seed", "3", "--output", "json"),
        ("cylinder", "--word", "3,4,7", "--output", "json"),
    ):
        code_a, out_a = capture(*args)
        code_b, out_b = capture(*args)
        stable = stable and code_a == code_b == 0 and out_a == out_b

    code, out = capture(
        "dim", "--family", "geometric", "--s", "4", "--t", "2",
        "--n-max", "10", "--output", "json",
    )
    fam = FAMILIES["(4^n, 2^n)"]
    doc = json.loads(out)
    round_trip = code == 0
    for level in doc["levels"]:
        n = level["n"]
        round_trip = round_trip and int(level["N_n"]) == fam.word_count(n)
        quantities = fam.level_quantities(n)
        round_trip = round_trip and F(level["delta_n"]) == quantities.diameter_bound
        round_trip = round_trip and F(level["epsilon_n"]) == quantities.gap_bound
    code, out = capture("cylinder", "--word", "5,17", "--output", "json")
    doc = json.loads(out)
    word_interval = cylinder_interval([5, 17])
    round_trip = (
        round_trip
        and code == 0
        and F(doc["lo"]) == word_interval.lo
        and F(doc["hi"]) == word_interval.hi
        and F(doc["length"]) == cylinder_length([5, 17])
    )
    ok = stable and round_trip
    _verdict(
        8,
        "cli determinism and format",
        ok,
        f"byte-identical reruns: {stable}, exact json round-trip: {round_trip}",
    )
