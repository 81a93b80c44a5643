"""Seeded request generation for the three benchmark workloads.

Every workload is a fixed design matrix (families x size strata x request
kinds) whose cells are filled from the seed: sizes get a small jitter,
rationals, words and pair tables are drawn, and the order is shuffled.  The
matrix keeps the total work of a pass nearly independent of the seed, so
runs on different seeds can be compared; where a jitter would move a pass's
cost at first order, two requests of one cell get mirrored jitters
(c*(1+j), c*(1-j)), which cancels it.

Only the generated argv lists reach the program.  The family and size
parameters travel alongside each request so that the oracles in oracle.py
can recompute the expected output from closed forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

@dataclass(frozen=True)
class Family:
    """A digit-window family with integer-valued s_n and t_n.

    Geometric-like families carry s_n = s_coef * s_ratio**n and
    t_n = t_coef * t_ratio**n; table families carry their (s, t) pairs.
    """

    kind: str
    description: str
    flags: tuple[str, ...]
    s_coef: int = 1
    s_ratio: int = 1
    t_coef: int = 1
    t_ratio: int = 1
    pairs: tuple[tuple[int, int], ...] | None = None

    def s(self, n: int) -> int:
        if self.pairs is not None:
            return self.pairs[n - 1][0]
        return self.s_coef * self.s_ratio**n

    def t(self, n: int) -> int:
        if self.pairs is not None:
            return self.pairs[n - 1][1]
        return self.t_coef * self.t_ratio**n


def geometric(s_ratio: int, t_ratio: int, t_coef: int = 1) -> Family:
    t_part = f"t_n = {t_coef}*{t_ratio}^n" if t_coef != 1 else f"t_n = {t_ratio}^n"
    flags = ("--family", "geometric", "--s", str(s_ratio), "--t", str(t_ratio))
    if t_coef != 1:
        flags += ("--t-coef", str(t_coef))
    return Family("geometric", f"s_n = {s_ratio}^n, {t_part}", flags,
                  s_ratio=s_ratio, t_coef=t_coef, t_ratio=t_ratio)


def power_geometric_4_half() -> Family:
    # s_n = 4^n, t_n = 4^(n/2) = 2^n
    return Family("power-geometric", "s_n = 4^n, t_n = 4^(1/2*n)",
                  ("--family", "power-geometric", "--s", "4", "--theta", "1/2"),
                  s_ratio=4, t_ratio=2)


def pair_table(pairs: list[tuple[int, int]]) -> Family:
    text = ",".join(f"{s}:{t}" for s, t in pairs)
    return Family("explicit-pair", f"table of {len(pairs)} (s, t) pairs",
                  ("--family", "explicit-pair", "--pairs", text),
                  pairs=tuple(pairs))


# the three acceptance families, (3^n, 2^n) and power-geometric 4, 1/2
FAMILIES = (
    geometric(4, 2),
    geometric(2, 2),
    geometric(2, 1, t_coef=2),
    geometric(3, 2),
    power_geometric_4_half(),
)


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the oracle needs to check it."""

    argv: tuple[str, ...]
    command: str
    expect_code: int
    output: str = "text"
    family: Family | None = None
    size: int | None = None  # n_max, depth or level
    params: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def kind(self) -> str:
        """Command and output format, e.g. "dim/csv" or "level/sample"."""
        if self.command == "level":
            if self.expect_code != 0:
                return "level/refused"
            return "level/sample" if "sample" in self.params else "level/full"
        return f"{self.command}/{self.output}"


def generate(workload: str, seed: int) -> list[Request]:
    """The request list of one pass of a workload, fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    requests = _BUILDERS[workload](rng)
    rng.shuffle(requests)
    return requests


def _mirrored(rng: random.Random, center: float, spread: float) -> tuple[int, int]:
    j = rng.uniform(0.0, spread)
    return max(1, round(center * (1 + j))), max(1, round(center * (1 - j)))


def _ladder(low: float, high: float, steps: int, skew: float, slot: float) -> list[float]:
    """Log-spaced centers, bunched towards low when skew > 1.

    slot in (0, 1) offsets the ladder inside each step, so that families
    given different slots interleave into one evenly spread set of sizes
    and the latency quantiles do not jump between steps.
    """
    return [low * (high / low) ** (((k + slot) / steps) ** skew) for k in range(steps)]


def _slot(index: int) -> float:
    return (index + 0.5) / len(FAMILIES)


# -- dim-sweep -------------------------------------------------------------


def _dim_request(family: Family, n_max: int, output: str = "text") -> Request:
    argv = ("dim", *family.flags, "--n-max", str(n_max))
    if output != "text":
        argv += ("--output", output)
    return Request(argv, "dim", 0, output, family, n_max)


def _check_request(family: Family, depth: int) -> Request:
    return Request(("check", *family.flags, "--depth", str(depth)), "check",
                   0 if _conditions_hold(family, depth) else 2, "text", family, depth)


def _conditions_hold(family: Family, depth: int) -> bool:
    return all(family.s(n) >= family.t(n) >= 2 for n in range(1, depth + 1)) and all(
        family.s(n + 1) >= family.s(n) + family.t(n) for n in range(1, depth + 1)
    )


def _dim_sweep(rng: random.Random) -> list[Request]:
    requests = []
    for index, family in enumerate(FAMILIES):
        # ten strata from 8 to 1800 levels, two mirrored requests each
        for center in _ladder(8, 1800, 10, 1.0, _slot(index)):
            for n_max in _mirrored(rng, center, 0.03):
                requests.append(_dim_request(family, max(2, n_max)))
        # checks to depth 60..180 stay below the median latency, so their
        # random depths do not move req_p50_s
        for depth in _mirrored(rng, 120, 0.5):
            requests.append(_check_request(family, depth))
    # one family whose bounds condition fails, checked to a random depth:
    # t_1 = 2 * t_ratio exceeds s_1 = 3, so check must exit 2
    bad = geometric(3, 2, t_coef=rng.choice((2, 3)))
    requests.append(_check_request(bad, rng.randint(5, 60)))
    return requests


# -- geometry --------------------------------------------------------------


def _level_request(family: Family, depth: int, **params) -> Request:
    argv = ["level", *family.flags, "--depth", str(depth)]
    expect = 0
    if "limit" in params:
        argv += ["--limit", str(params["limit"])]
    if "sample" in params:
        argv += ["--sample", str(params["sample"]), "--seed", str(params["seed"])]
    else:
        count = math.prod(family.t(k) for k in range(1, depth + 1))
        if count > params.get("limit", 10**6):
            expect = 1
    return Request(tuple(argv), "level", expect, "text", family, depth, params)


def _random_pairs(rng: random.Random, branches: list[int]) -> Family:
    """Pair table whose level-k window holds branches[k-1] digits.

    t_k equals the branch count, and s_k grows by at least s_{k-1} + t_{k-1}
    so the window conditions hold; one extra entry closes the last level.
    """
    pairs = []
    s = rng.randint(max(branches), 3 * max(branches))
    for t in branches + [rng.randint(2, 4)]:
        pairs.append((s, t))
        s = s + t + rng.randint(0, 2 * t)
    return pair_table(pairs)


def _engel_length(x: Fraction) -> int:
    n = 0
    while x:
        d = -((-x.denominator) // x.numerator)
        x = x * d - 1
        n += 1
    return n


def _digits_request(rng: random.Random) -> Request:
    while True:
        q = round(10 ** rng.uniform(3, 9))
        x = Fraction(rng.randint(1, q - 1), q)
        if _engel_length(x) <= 40:
            break
    depth = rng.randint(1, 8) if rng.random() < 0.25 else None
    argv = ("digits", "--x", f"{x.numerator}/{x.denominator}")
    if depth is not None:
        argv += ("--depth", str(depth))
    return Request(argv, "digits", 0, "text", None, depth, {"x": x})


def _cylinder_request(rng: random.Random) -> Request:
    word = [rng.randint(2, 9)]
    for _ in range(rng.randint(0, 11)):
        word.append(word[-1] + rng.choice((0, 0, 1, 2, 5, word[-1])))
    argv = ("cylinder", "--word", ",".join(map(str, word)))
    return Request(argv, "cylinder", 0, "text", None, len(word), {"word": tuple(word)})


def _geometry(rng: random.Random) -> list[Request]:
    requests = [_digits_request(rng) for _ in range(40)]
    requests += [_cylinder_request(rng) for _ in range(30)]
    # sampled levels: ten depth strata over 10..40, two mirrored requests
    # each, with mirrored sample sizes and every family used four times
    families = list(FAMILIES) * 4
    rng.shuffle(families)
    for center in _ladder(10, 40, 10, 1.0, 0.5):
        for depth, sample in zip(_mirrored(rng, center, 0.08), _mirrored(rng, 15, 0.33)):
            requests.append(_level_request(families.pop(), depth, sample=sample,
                                           seed=rng.randint(0, 10**6)))
    # full enumerations, fixed sizes so the slow tail does not depend on the
    # seed: 1024 intervals on every family, then 2^11..2^13 on (2^n, 2)
    flat = FAMILIES[2]
    for family in FAMILIES:
        requests.append(_level_request(family, 10 if family is flat else 4))
    requests.append(_level_request(flat, 10))
    for depth in (11, 12, 13):
        requests.append(_level_request(flat, depth))
    # three seeded pair tables of 1536 intervals with mixed branching
    for _ in range(3):
        branches = list(rng.choice(([2] * 9 + [3], [4] + [2] * 7 + [3],
                                    [2] * 8 + [6], [3, 4] + [2] * 7)))
        rng.shuffle(branches)
        requests.append(_level_request(_random_pairs(rng, branches), len(branches)))
    # requests over --limit, refused with exit 1 before anything is built
    for family, depth, limit in ((flat, 20, 10**5), (FAMILIES[0], 7, None),
                                 (FAMILIES[3], 6, 5000), (FAMILIES[4], 6, 10**4)):
        params = {} if limit is None else {"limit": limit}
        requests.append(_level_request(family, depth + rng.randint(0, 2), **params))
    return requests


# -- exact-export ----------------------------------------------------------


def _exact_export(rng: random.Random) -> list[Request]:
    requests = []
    for index, family in enumerate(FAMILIES):
        # ten strata from 60 to 200, bunched low; each cell is one
        # quantities and one dim request with mirrored sizes
        for center in _ladder(60, 200, 10, 1.6, _slot(index)):
            q_size, d_size = _mirrored(rng, center, 0.04)
            q_out, d_out = rng.choice(("csv", "json")), rng.choice(("csv", "json"))
            requests.append(Request(
                ("quantities", *family.flags, "--depth", str(q_size), "--output", q_out),
                "quantities", 0, q_out, family, q_size))
            requests.append(_dim_request(family, d_size, d_out))
    return requests


_BUILDERS = {"dim-sweep": _dim_sweep, "geometry": _geometry, "exact-export": _exact_export}
WORKLOADS = tuple(_BUILDERS)
