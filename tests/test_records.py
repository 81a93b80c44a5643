"""The behaviour of the package's records that callers can see: text,
defaults, equality, immutability, weak references and copies."""

import copy
import pickle
import weakref
from fractions import Fraction as F

import pytest

from engeldim import (
    PROXY_CAVEAT,
    DimensionReport,
    RatInterval,
    SequenceFamily,
    empirical_cover_fit,
    engel_digits,
    estimate_dimension,
)


def test_records_print_default_compare_and_refuse_assignment():
    interval = RatInterval(F(1, 3), F(1, 2))
    fam = SequenceFamily.geometric(4, 2)
    report = fam.check_conditions(5)
    expansion = engel_digits(F(3, 7))
    lq = fam.level_quantities(3)
    dim = estimate_dimension(fam, 3)
    fit = empirical_cover_fit(fam, [2, 3])

    assert repr(interval) == ("RatInterval(lo=Fraction(1, 3), hi=Fraction(1, 2), "
                              "lo_closed=True, hi_closed=False)")
    assert repr(expansion) == ("ExpansionResult(digits=DigitWord([3, 4, 7]), "
                               "terminated=True, remainder=Fraction(0, 1))")
    assert repr(report) == (
        "ConditionReport(depth=5, bounds_ok=True, bounds_violation=None, "
        "growth_ok=True, growth_violation=None, divergence='certified')")
    assert repr(lq).startswith("LevelQuantities(n=3, count=64, m_n=8, prod_s=4096, ")
    assert repr(lq).endswith(", s_n=64, next_level=(256, 16, 257, 272))")
    assert repr(dim).startswith("DimensionReport(n_max=3, tail_window=1, formula=(")
    assert repr(dim).endswith(f", caveat={PROXY_CAVEAT!r})")
    assert repr(fit).startswith("CoverFitResult(slope=")
    assert repr(fam).startswith("SequenceFamily(kind='geometric', "
                                "description='s_n = 4^n, t_n = 2^n', _s_fn=<function ")

    # defaults
    assert (interval.lo_closed, interval.hi_closed) == (True, False)
    assert DimensionReport(1, 1, (0.5,), (0.5,), (None,), 0.5, True, 0.5).caveat \
        == PROXY_CAVEAT == dim.caveat

    # equal intervals, built from equal values of other types, hash alike
    same = RatInterval(F(2, 6), "1/2")
    assert same == interval and hash(same) == hash(interval) and same is not interval
    assert RatInterval(F(1, 3), F(1, 2), hi_closed=True) != interval

    for record, field in [(interval, "lo"), (interval, "hi_closed"),
                          (expansion, "digits"), (report, "bounds_ok"),
                          (lq, "count"), (dim, "estimated_dim"), (fit, "slope"),
                          (fam, "kind")]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    ref = weakref.ref(interval)
    assert ref() is interval
    assert copy.copy(interval) == pickle.loads(pickle.dumps(interval)) == interval

    # a family equals only itself
    twin = SequenceFamily.geometric(4, 2)
    assert fam == fam and fam != twin and len({fam, twin}) == 2

    power = SequenceFamily.power_geometric(4, F(1, 2))
    assert (power.kind, power.description) == (
        "power-geometric", "s_n = 4^n, t_n = 4^(1/2*n)")
