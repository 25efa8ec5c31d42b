"""Log-domain dynamic programs over subtree levels.

Grand partition function at depth n, coupling J, clustering weights h:

    Z = sum_A exp(J |A| - Phi(A)),   zeta_n(J) = 2^-n ln Z.

The recursions exploit that a nonempty leaf set inside a depth-d subtree
either lives entirely in one child (two choices) or splits across both, in
which case the subtree root is a branching point of age d. Its weight
depends on that age and, in second order, on the age a of its direct
branching ancestor outside the subtree:

    F_0(a) = e^{J - h[a][0]},
    F_d(a) = 2 F_{d-1}(a) + e^{-h[a][d]} F_{d-1}(d)^2,
    Z = 1 + e^{-h} F_n(n+1)   (virtual top ancestor n + 1).

First order is the ancestor-free case h[a][d] = h_d: F_d no longer depends
on a, and a single row carries the whole recursion. One level kernel runs
it for every family, vectorised over a and over a batch of J values, so
``zeta`` and ``dp_density`` accept a J array as well as a number.

Size-resolved variants replace the scalar square by a size convolution and
produce the canonical table W(a0) = sum_{|A| = a0} e^{-Phi(A)}; these are the
inputs to free-energy curves and to exact sampling. Convolutions stay in the
log domain with a per-entry max shift (no transform tricks, which would
destroy relative precision across the huge dynamic range), so dp_W costs
O(4^n) and is guarded at moderate depth.

The max-plus table (``dp_W_maxterm``) computes ln max over admissible
first-order profiles of N(b) e^{-Phi(b)} by a max-plus pass over the
level-population chain a_{k-1} = a_k + b_k. Running the subset recursion
itself in max-plus would instead maximize over embedded tree shapes, which
drops the positional binomial C(a_k, b_k); the chain form matches the
profile-level quantity exactly. No second-order analogue is provided: the
per-level multinomials couple every ancestor-descendant pair, and no
polynomial-state exact recursion is known to us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import SpecConfigError, UnsupportedVariant
from .logdomain import LogReal, NEG_INF

LN2 = math.log(2.0)

#: default depth guards for the size-resolved tables (O(4^n) work)
W_FIRST_MAX_DEPTH = 12
W_SECOND_MAX_DEPTH = 10


@dataclass(frozen=True)
class CanonicalTable:
    """Size-indexed log table ln W(a0), a0 = 0 .. m_max.

    ``kind`` is "sum" for the canonical partition function and "max" for the
    dominant-profile table. ``omega`` rescales to the canonical free energy
    omega_n(eps) = 2^-n ln W(eps 2^n) on the dyadic grid.
    """

    depth: int
    ln_w: np.ndarray
    kind: str = "sum"
    source: str = "dp"

    @property
    def m_max(self):
        return len(self.ln_w) - 1

    @property
    def is_full(self):
        return self.m_max == 1 << self.depth

    def omega(self, a0):
        return self.ln_w[a0] / (1 << self.depth)

    def eps_grid(self):
        return np.arange(self.m_max + 1) / (1 << self.depth)

    def omega_values(self):
        return self.ln_w / (1 << self.depth)


def _weights(spec, n):
    """Branching weights ``(H, const)`` of a dp family at depth n.

    H[a, d] weighs a branching point of age d whose branching ancestor has
    age a. Second order has rows a = 0 .. n+1; first order and zero have a
    single row, because their weights do not depend on a. Every dynamic
    program and the sampler enter here, so bad depths and weight lists that
    stop short of the depth are rejected here, naming their key.
    """
    if spec.variant not in ("zero", "first", "second"):
        raise UnsupportedVariant(
            "variant %r has no subtree recursion; use the enumeration oracle "
            "at small depth" % (spec.variant,)
        )
    if n < 0:
        raise SpecConfigError("depth", "must be nonnegative, got %d" % (n,))
    try:
        H = spec.h.array(n)
        const = spec.h_const_at(n)
    except IndexError as exc:
        raise SpecConfigError("h.values", "too short for depth %d: %s" % (n, exc))
    return (H if spec.variant == "second" else H[None, :]), const


def _levels(H, j, n, ratio=False):
    """Yield ``(ln F_d, r_d)`` for d = 0 .. n, one column per J of ``j``.

    Row a of ln F_d is the subtree sum for ancestor age a (the rows of H);
    the square term reads row min(d, last), the split point's own age, and
    the last row after level n is the root's. With ``ratio`` the log
    derivative r_d = F_d' / F_d is carried along (None otherwise); it starts
    at 1 and at most doubles per level, so it stays within float range.
    """
    j = np.atleast_1d(np.asarray(j, dtype=float))
    if not np.isfinite(j).all():
        raise SpecConfigError(
            "j", "J must be finite, got %r" % (float(j[~np.isfinite(j)][0]),)
        )
    last = len(H) - 1
    neg = -H
    f = j - H[:, :1]
    r = np.ones_like(f) if ratio else None
    yield f, r
    for d in range(1, n + 1):
        s = min(d, last)
        u = LN2 + f
        v = neg[:, d : d + 1] + 2.0 * f[s : s + 1]
        new = np.logaddexp(u, v)
        if ratio:
            r = np.exp(u - new) * r + 2.0 * np.exp(v - new) * r[s : s + 1]
        f = new
        yield f, r


def _ln_z(H, const, n, j):
    """ln Z_n at each J of ``j`` from prepared weights."""
    for f, _ in _levels(H, j, n):
        pass
    return np.logaddexp(0.0, -const + f[-1])


def _per_j(j, values):
    """A float for a scalar J, the array for an array of J."""
    return float(values[0]) if np.ndim(j) == 0 else values


def dp_Z(spec, n, j):
    """Grand partition function at one J as a LogReal; dispatches on the family."""
    return (dp_Z_second if spec.variant == "second" else dp_Z_first)(spec, n, j)


def _dp_Z(spec, n, j):
    H, const = _weights(spec, n)
    return LogReal(float(_ln_z(H, const, n, j)[0]))


# One recursion serves every family, so each _first/_second pair below is one
# function under two names. dp_Z and dp_W still call through the family's
# name, so a wrapper installed on either name (as bench/tracing.py does)
# sees the calls of that family.
dp_Z_first = dp_Z_second = _dp_Z


def zeta(spec, n, j):
    """Finite-depth free energy zeta_n(J) = 2^-n ln Z_n(J); J may be an array."""
    H, const = _weights(spec, n)
    return _per_j(j, _ln_z(H, const, n, j) / (1 << n))


def dp_density(spec, n, j):
    """Mean occupied fraction rho_n(J) = 2^-n d ln Z / dJ; J may be an array.

    Carries the log derivative of every level table through the recursion
    analytically instead of differencing ln Z.
    """
    H, const = _weights(spec, n)
    for f, r in _levels(H, j, n, ratio=True):
        pass
    occupied = -const + f[-1]
    ln_z = np.logaddexp(0.0, occupied)
    return _per_j(j, np.exp(occupied - ln_z) * r[-1] / (1 << n))


def _log_self_convolve(y, out_len):
    """c[m] = ln sum_{i+j=m} exp(y[i] + y[j]) for m = 0 .. out_len.

    ``y`` is indexed by size with y[0] = -inf. Direct O(out_len * len(y))
    accumulation with a per-entry max shift.
    """
    top = len(y) - 1
    c = np.full(out_len + 1, NEG_INF)
    for m in range(2, out_len + 1):
        lo = max(1, m - top)
        hi = min(top, m - 1)
        if lo > hi:
            continue
        t = y[lo : hi + 1] + y[m - hi : m - lo + 1][::-1]
        mx = t.max()
        if mx == NEG_INF:
            continue
        c[m] = mx + math.log(np.exp(t - mx).sum())
    return c


def dp_W(spec, n, m_max=None, allow_large=False):
    """Canonical table ln W(a0); dispatches on the family.

    ``m_max`` truncates the table to sizes <= m_max, which is exact (sizes
    only add in the convolution) and turns the cost into O(n * m_max^2);
    without it the full table costs O(4^n) and depth is guarded.
    """
    kernel = dp_W_second if spec.variant == "second" else dp_W_first
    return kernel(spec, n, m_max=m_max, allow_large=allow_large)


def _check_guard(n, m_max, limit, allow_large, label):
    if m_max is not None and m_max < 0:
        raise SpecConfigError("m_max", "must be nonnegative, got %d" % (m_max,))
    if m_max is None and n > limit and not allow_large:
        raise ValueError(
            "%s at depth %d exceeds the default cost guard (%d); pass "
            "allow_large=True or truncate with m_max" % (label, n, limit)
        )


def _dp_W(spec, n, m_max=None, allow_large=False):
    """The recursion of ``_levels`` resolved by size.

    Row a of f holds ln F_d(a) split by leaf count, and the square becomes a
    size self-convolution of row min(d, last).
    """
    H, const = _weights(spec, n)
    limit = W_SECOND_MAX_DEPTH if spec.variant == "second" else W_FIRST_MAX_DEPTH
    _check_guard(n, m_max, limit, allow_large, "dp_W")
    full = 1 << n
    cap = full if m_max is None else min(int(m_max), full)

    last = len(H) - 1
    f = np.full((last + 1, min(1, cap) + 1), NEG_INF)
    if cap >= 1:
        f[:, 1] = -H[:, 0]
    for d in range(1, n + 1):
        size = min(1 << d, cap)
        conv = _log_self_convolve(f[min(d, last)], size)
        keep = np.full((last + 1, size + 1), NEG_INF)
        keep[:, 1 : f.shape[1]] = LN2 + f[:, 1:]
        f = np.logaddexp(keep, -H[:, d : d + 1] + conv)
    ln_w = np.full(cap + 1, NEG_INF)
    ln_w[0] = 0.0
    ln_w[1:] = -const + f[-1, 1:]
    return CanonicalTable(n, ln_w, kind="sum", source="dp")


dp_W_first = dp_W_second = _dp_W


def dp_W_maxterm(spec, n, m_max=None, allow_large=False):
    """ln max over admissible first-order profiles of N(b) e^{-Phi(b)}.

    Max-plus pass over the level chain: starting from population 1 at the
    top age, choosing b_k branching points at age k multiplies the count by
    C(a_k, b_k) 2^{a_k - b_k} and costs h_k b_k, and grows the population to
    a_{k-1} = a_k + b_k. The canonical table dominates this entrywise, and
    the gap is at most ln of the number of admissible profiles.
    """
    if spec.variant == "second":
        raise UnsupportedVariant("dp_W_maxterm is first order only")
    H, const = _weights(spec, n)
    h = H[0]
    _check_guard(n, m_max, W_FIRST_MAX_DEPTH, allow_large, "dp_W_maxterm")
    full = 1 << n
    cap = full if m_max is None else min(int(m_max), full)

    lg = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, full + 1)))))

    best = np.full(2, NEG_INF)
    best[1] = 0.0  # population 1 above the deepest branching age
    for k in range(n, 0, -1):
        reach = min(1 << (n - k + 1), cap)
        new = np.full(reach + 1, NEG_INF)
        top_a = min(len(best) - 1, reach)
        for a in range(1, top_a + 1):
            if best[a] == NEG_INF:
                continue
            bmax = min(a, reach - a)
            if bmax < 0:
                continue
            b = np.arange(bmax + 1)
            gain = (
                lg[a] - lg[b] - lg[a - b[::-1]][::-1]
                + (a - b) * LN2
                - h[k] * b
            )
            seg = slice(a, a + bmax + 1)
            new[seg] = np.maximum(new[seg], best[a] + gain)
        best = new
    ln_w = np.full(cap + 1, NEG_INF)
    ln_w[0] = 0.0
    top = min(len(best) - 1, cap)
    ln_w[1 : top + 1] = best[1 : top + 1] - h[0] * np.arange(1, top + 1) - const
    return CanonicalTable(n, ln_w, kind="max", source="dp")
