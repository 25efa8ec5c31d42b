"""Log-domain arithmetic for nonnegative reals.

Partition functions here routinely exceed exp(1e6), so every sum of weights
is carried as a logarithm. The one awkward point is exact zero, whose
logarithm is -inf; the helpers below accept it as an operand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")


def log_add(a, b):
    """log(e^a + e^b) with the max factored out; tolerates -inf operands."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_sum(values):
    """log sum of exp over an iterable of log-values.

    Uses a single max shift and compensated (fsum) accumulation in the
    linear domain, which keeps the relative error near machine precision
    even for tens of thousands of terms.
    """
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    hi = max(vals)
    if hi == float("inf"):
        return hi
    return hi + math.log(math.fsum(math.exp(v - hi) for v in vals))


def log_sum_array(arr, axis=None):
    """Vectorized log-sum-exp with per-slice max shift (numpy arrays)."""
    arr = np.asarray(arr, dtype=float)
    hi = np.max(arr, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    out = np.log(np.sum(np.exp(arr - hi), axis=axis)) + np.squeeze(hi, axis=axis)
    if axis is None:
        return float(out)
    return out


@dataclass(frozen=True, slots=True)
class LogReal:
    """A nonnegative real number stored as its natural logarithm.

    ``ln`` is -inf for exact zero. ``dp_Z`` and ``enum_Z`` return one, so a
    partition function far beyond float range still has a readable ``ln``.
    """

    ln: float

    @property
    def value(self):
        """The represented number as a float; may overflow to inf."""
        try:
            return math.exp(self.ln)
        except OverflowError:
            return float("inf")
