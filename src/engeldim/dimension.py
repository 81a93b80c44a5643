"""Dimension estimates for the digit-window constructions.

Three quotient sequences are evaluated from exact level data.  The formula
quotient F_n compares accumulated log t against accumulated log s.  The
upper quotient comes from covering a level by its own intervals: count
N_n against the diameter bound delta_n.  The lower quotient comes from the
separation of a level: counts through n-1 against the gap quantity
m_n * epsilon_n.  Under the window conditions all three converge to the
same limit; at finite depth they differ, which is why the report carries
all of them.

Counts, floors, and bounds stay exact; only the final logarithm of each
exact quantity is floated, to within a few ulp relative (see
ratmath.log_rational), so quotient values carry ordinary double precision.
The quotients are ratios of logarithms and therefore base-independent;
natural base is used.
"""

from __future__ import annotations

from math import log
from typing import NamedTuple, Sequence

from .construction import SequenceFamily, _balanced_prod
from .errors import DomainError, SizeLimitError
from .ratmath import log_rational

# how the headline number of a report must be read
PROXY_CAVEAT = (
    "finite-prefix proxy: the minimum of the formula quotient over the "
    "tail window, not a certified limit"
)

# cover fits use closed forms, never enumeration, so their cap can sit
# well above the level-enumeration default and still only guard absurdity
DEFAULT_FIT_LIMIT = 2**24

LOG2 = log(2)
LOG4 = log(4)


class DimensionReport(NamedTuple):
    """All three quotient sequences up to n_max, plus the tail summary.

    Entry k of each list is the value at level k+1; the lower sequence is
    undefined at level 1 and holds None there.  estimated_dim equals
    tail_min_formula and is only a proxy for the limiting value, as the
    caveat field states.  monotone_tail reports whether the formula
    quotient was non-decreasing across the tail window; a False value
    means the tail minimum may sit well below the eventual limit.
    """

    n_max: int
    tail_window: int
    formula: tuple[float, ...]
    upper: tuple[float, ...]
    lower: tuple[float | None, ...]
    tail_min_formula: float
    monotone_tail: bool
    estimated_dim: float
    caveat: str = PROXY_CAVEAT


class CoverFitResult(NamedTuple):
    """Proportional fit of log count against log inverse diameter."""

    slope: float
    depths: tuple[int, ...]
    log_counts: tuple[float, ...]
    log_inv_diameters: tuple[float, ...]


def formula_quotient(f: SequenceFamily, n: int) -> float:
    """F_n = (sum of log t_k, k <= n) over
    (sum of log s_k, k <= n+1) + log s_{n+1} - log t_{n+1}."""
    if n < 1:
        raise DomainError(f"level must be >= 1, got {n}")
    # the value the dimension report holds at level n, to the last bit
    return estimate_dimension(f, n).formula[-1]


def estimate_dimension(f: SequenceFamily, n_max: int,
                       tail_window: int | None = None) -> DimensionReport:
    """Evaluate all three sequences up to n_max in one pass.

    tail_window defaults to a tenth of n_max (at least 1).  The estimate
    is the minimum of the formula quotient over the final tail_window
    levels; it proxies a limit infimum and the report says so.  The
    window conditions are verified in the same pass that takes the logs:
    a violation raises ConditionError when the walk reaches its level,
    and no report is returned.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if tail_window is None:
        tail_window = max(1, n_max // 10)
    if not 1 <= tail_window <= n_max:
        raise DomainError(
            f"tail_window must lie in [1, {n_max}], got {tail_window}"
        )

    # one shared sweep: prefix sums of the floated logs.  Each pass takes
    # the logs of the level it reaches, n + 1, and completes level n's
    # quotients.  Every branch count is computed exactly, from the walker's
    # window; a window over an integral t_k holds t_k digits, so the log of
    # t_k serves for both
    formula: list[float] = []
    upper: list[float] = []
    lower: list[float | None] = []
    sum_log_s = sum_log_t = sum_log_m = 0.0
    n = 0
    for s_k, t_k, j_min, j_max in f.levels(n_max + 1):
        log_s_next = log_rational(s_k)
        log_t_next = log_rational(t_k)
        m = j_max - j_min + 1
        log_m_next = log_t_next if m == t_k else log_rational(m)
        if n:
            sum_log_s += log_s
            sum_log_t += log_t
            # -log(m_n * epsilon_n), epsilon_n = 2^-(n+3) / (s_1...s_n * s_n);
            # the numerator sums log m_k over k < n, none at n = 1
            lower.append(None if n == 1 else sum_log_m / (
                (n + 3) * LOG2 + sum_log_s + log_s - log_m))
            sum_log_m += log_m
            den_formula = sum_log_s + 2 * log_s_next - log_t_next
            formula.append(sum_log_t / den_formula)
            # -log delta_n with delta_n = (1/(s_1...s_n)) * 4 t_{n+1} / s_{n+1}^2
            upper.append(sum_log_m / (den_formula - LOG4))
        n += 1
        log_s, log_t, log_m = log_s_next, log_t_next, log_m_next

    tail = formula[-tail_window:]
    tail_min = min(tail)
    monotone = all(a <= b for a, b in zip(tail, tail[1:]))
    return DimensionReport(
        n_max=n_max,
        tail_window=tail_window,
        formula=tuple(formula),
        upper=tuple(upper),
        lower=tuple(lower),
        tail_min_formula=tail_min,
        monotone_tail=monotone,
        estimated_dim=tail_min,
    )


def empirical_cover_fit(f: SequenceFamily, depths: Sequence[int],
                        limit: int | None = DEFAULT_FIT_LIMIT) -> CoverFitResult:
    """Slope of log N_n against -log(max level-n interval length).

    The relation has no additive offset (one interval of unit diameter
    would contribute the origin), so the least-squares line is constrained
    through the origin and its slope is directly comparable to the
    quotient sequences at the same depths.
    """
    depth_list = tuple(int(d) for d in depths)
    if len(depth_list) < 2:
        raise DomainError("cover fit needs at least two depths")
    if any(d < 1 for d in depth_list):
        raise DomainError(f"depths must be >= 1, got {list(depth_list)}")
    # one walk serves every depth, and the count is checked against the
    # limit at every level.  Every window holds at least 2 digits, so counts
    # rise strictly: once one passes the limit, the smallest wanted depth
    # at or past its level is the one refused, and the walk stops there
    wanted = set(depth_list)
    points: dict[int, tuple[float, float]] = {}
    for lq in f.iter_level_quantities(max(depth_list)):
        if limit is not None and lq.count > limit:
            refused = min(d for d in wanted if d >= lq.n)
            # its count from the windows of the walk that would reach it,
            # to level refused + 1, so an error up to there still comes first
            *windows, _ = f._windows(refused + 1)
            count = _balanced_prod(hi - lo + 1 for lo, hi in windows)
            raise SizeLimitError(count, limit, f"depth {refused}")
        if lq.n in wanted:
            points[lq.n] = (-log_rational(lq.max_length), log_rational(lq.count))
    xs = [points[d][0] for d in depth_list]
    ys = [points[d][1] for d in depth_list]
    # plain left-to-right sums: sum() of floats is compensated from
    # Python 3.12 on, which would make the slope depend on the interpreter
    sxx = sxy = 0.0
    for x, y in zip(xs, ys):
        sxx += x * x
        sxy += x * y
    return CoverFitResult(
        slope=sxy / sxx,
        depths=depth_list,
        log_counts=tuple(ys),
        log_inv_diameters=tuple(xs),
    )
