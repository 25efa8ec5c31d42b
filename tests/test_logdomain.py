import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwckit.logdomain import NEG_INF, LogReal, log_add, log_sum, log_sum_array


def test_log_add_known_values():
    assert log_add(0.0, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert log_add(math.log(3.0), math.log(5.0)) == pytest.approx(
        math.log(8.0), abs=1e-15
    )


def test_log_add_zero_operands():
    assert log_add(NEG_INF, 1.25) == 1.25
    assert log_add(1.25, NEG_INF) == 1.25
    assert log_add(NEG_INF, NEG_INF) == NEG_INF


def test_log_add_extreme_spread():
    # The small term is lost to rounding but nothing overflows.
    assert log_add(1000.0, -1000.0) == 1000.0


def test_log_sum_matches_direct():
    vals = [math.log(x) for x in (1.0, 2.0, 3.5, 0.25)]
    assert log_sum(vals) == pytest.approx(math.log(6.75), abs=1e-14)


def test_log_sum_empty_is_zero():
    assert log_sum([]) == NEG_INF
    assert log_sum([NEG_INF, NEG_INF]) == NEG_INF


def test_log_sum_array_axis():
    arr = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
    by_row = log_sum_array(arr, axis=1)
    assert by_row == pytest.approx([math.log(3.0), math.log(7.0)], abs=1e-14)
    assert log_sum_array(arr) == pytest.approx(math.log(10.0), abs=1e-14)


def test_log_sum_array_with_zeros():
    arr = np.array([NEG_INF, 0.0, NEG_INF])
    assert log_sum_array(arr) == pytest.approx(0.0, abs=1e-15)


def test_logreal_zero_and_one():
    assert LogReal(NEG_INF).value == 0.0
    assert LogReal(0.0).value == 1.0
    assert LogReal(math.log(0.7)).value == pytest.approx(0.7, rel=1e-15)
    assert LogReal(1e6).value == math.inf


positive = st.floats(min_value=1e-300, max_value=1e300)


@given(positive, positive)
def test_log_add_commutes(x, y):
    a, b = math.log(x), math.log(y)
    assert log_add(a, b) == pytest.approx(log_add(b, a), rel=1e-15)


@given(positive, positive, positive)
def test_log_add_associates(x, y, z):
    a, b, c = math.log(x), math.log(y), math.log(z)
    left = log_add(log_add(a, b), c)
    right = log_add(a, log_add(b, c))
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


@given(st.lists(positive, min_size=1, max_size=30))
def test_log_sum_bounds(xs):
    logs = [math.log(x) for x in xs]
    total = log_sum(logs)
    assert total >= max(logs) - 1e-12
    assert total <= max(logs) + math.log(len(xs)) + 1e-12
