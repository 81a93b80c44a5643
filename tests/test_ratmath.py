import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import engeldim
from engeldim import DomainError, engel_digits, log_rational, parse_rational
from engeldim.ratmath import exact_kth_root

# a few ulp, relative
REL_BOUND = 4 * 2.0**-53


def _rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


def test_log_rational_near_one_does_not_cancel():
    # log(1 + y) = y - y^2/2 + ...; at these y the y^2 term lies far below
    # double precision, so the correctly rounded y is the reference
    for num, den in ((10**30 + 1, 10**30), (3 * 10**25 + 1, 3 * 10**25)):
        got = log_rational(F(num, den))
        assert _rel_err(got, (num - den) / den) <= REL_BOUND
    got = log_rational(F(10**30 - 1, 10**30))
    assert _rel_err(got, -1 / 10**30) <= REL_BOUND


def test_log_rational_known_values():
    assert log_rational(1) == 0.0
    assert log_rational(F(1)) == 0.0
    for value, expected in ((2, math.log(2)), (F(1, 2), -math.log(2)),
                            (F(3, 2), math.log(1.5)), (F(1, 3), -math.log(3))):
        assert _rel_err(log_rational(value), expected) <= REL_BOUND
    # 2^5000 / 3 overflows a double; its log does not
    expected = 5000 * math.log(2) - math.log(3)
    assert _rel_err(log_rational(F(2**5000, 3)), expected) <= REL_BOUND
    assert _rel_err(log_rational(F(3, 2**5000)), -expected) <= REL_BOUND
    assert _rel_err(log_rational(10**400), 400 * math.log(10)) <= REL_BOUND
    # a positive int is logged by math.log itself, to the bit
    for value in (2, 10**400, 2**5000):
        assert log_rational(value) == math.log(value)
    assert log_rational(True) == 0.0


def test_log_rational_rejects_nonpositive_values():
    for bad in (0, -3, F(-1, 2), F(0)):
        with pytest.raises(DomainError):
            log_rational(bad)


@pytest.mark.parametrize("call", [
    lambda: parse_rational("x"),
    lambda: parse_rational("1/0"),
    lambda: exact_kth_root(-1, 2),
    lambda: exact_kth_root(8, 0),
    lambda: log_rational(0.5),
    lambda: engel_digits("abc"),
    lambda: engel_digits(None),
], ids=["parse-text", "parse-zero-denominator", "root-negative", "root-order-zero",
        "log-float", "digits-text", "digits-none"])
def test_ratmath_rejects_bad_input_with_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_import_leaves_mpmath_unloaded():
    # a fresh interpreter, since this suite's own oracles may load mpmath
    src = str(Path(engeldim.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    probe = "import sys, engeldim; print('mpmath' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"
