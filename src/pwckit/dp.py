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

In second order the rows form a triangle. Row d of F_{d-1} is read once,
by the square term at level d, and a row a <= d is never read after level
d; row 0 is never read at all. So level d keeps only the ancestor ages
a = d+1 .. n+1, n + 1 - d rows, in order: the first row held is the next
level's split row, and the last is the root's. Levels 1 .. n update
n(n+1)/2 rows in all, where updating every row would take n(n+2), and
each row kept is formed by the same floating-point operations either way.
First order keeps its single row at every level.

Rows that equal the root's are shared. F_d(a) depends on a only through
h[a][0 .. d], so a row whose weights on columns 0 .. d have the same bits
as the root row's goes through the same operations on equal-bit operands
up to level d, and its ln F_d has the same bits as the root's. A row plan
(``_row_plan``) gives each level d the smallest held row s_d from which
every row agrees so; level d then holds rows d+1 .. s_d, and row s_d
stands for all rows above it. When s_d grows, the shared row is copied
into the rows that split off, which then take their own weights. So every
float is the one the full rows give. In the dgff triangle every row
a >= 2d agrees with the root on columns 0 .. d, and at depth 60 the plan
updates 931 rows instead of 1891. The plan costs a pass over H and a copy
per level, so a level pass takes it only past a work rule
(``_level_ends``); a one-point J grid never does.

A first-order pass at one J runs as a chain of Python floats instead
(``_chain``), because numpy's cost per call on one-entry arrays is most of
such a pass: at depth 60 it takes 14 us for ln Z instead of 190 us, and
31 us for the density instead of 440 us, on one core of a shared 2-core
host. Every float is the one ``_levels`` gives. +, - and * round alike in
Python and numpy. numpy's float64 logaddexp is the formula
x == y ? x + ln2 : max + log1p(exp(-|x - y|)) on libm's exp and log1p,
which ``math`` calls too (``_logaddexp``). numpy's exp is vector code that
differs from ``math.exp`` in the last place on a few percent of arguments,
so the density's exponentials stay in ``np.exp``, one call over all levels
per term. The chain costs its full time per J: at depth 60, 13 J take
180 us as chains against 237 us in one numpy pass, and 20 J take 277 us
against 236 us. So the rule is one J, not a tuned width. Second order
stays on numpy: at one J it updates 1891 rows at depth 60, 31 times first
order's 61, in one numpy pass of 240 us.

Size-resolved variants replace the scalar square by a size convolution and
produce the canonical table W(a0) = sum_{|A| = a0} e^{-Phi(A)}; these are the
inputs to free-energy curves and to exact sampling. Convolutions stay in the
log domain with a per-entry max shift (no transform tricks, which would
destroy relative precision across the huge dynamic range), so dp_W costs
O(4^n) and guards the size it holds. The convolution sums only the half
anti-diagonal i <= j of each output size, counting the terms off the
diagonal twice, and reads its rows as sliding windows of the input and of
the input reversed; rows go in blocks of at most ``_BLOCK`` entries (512 KB
of float64), so no (size, size) matrix is ever built. Its sums run in another
order than a term-by-term loop, so results agree with one to a few ulps.

The max-plus table (``dp_W_maxterm``) computes ln max over admissible
first-order profiles of N(b) e^{-Phi(b)} by a max-plus pass over the
level-population chain a_{k-1} = a_k + b_k. Running the subset recursion
itself in max-plus would instead maximize over embedded tree shapes, which
drops the positional binomial C(a_k, b_k); the chain form matches the
profile-level quantity exactly. Each level takes a max over a skewed block
of (population, branching count) pairs, read as windows the same way; every
entry is formed by the same floating-point operations in the same order as a
one-population-at-a-time loop, and max does not round, so the table is exact
to the bit whatever the blocking. No second-order analogue is provided: the
per-level multinomials couple every ancestor-descendant pair, and no
polynomial-state exact recursion is known to us.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clustering import SpecConfigError, check_family

LN2 = math.log(2.0)
NEG_INF = float("-inf")

#: default guards for the size-resolved tables: sizes up to the full table
#: at these depths (``_table_size``)
W_FIRST_MAX_DEPTH = 12
W_SECOND_MAX_DEPTH = 10

#: ln Z_n grows like 2^n (it is 2^n ln 2 for the zero preset at J = 0), so
#: past this depth the recursion leaves float range at every J
MAX_DEPTH = 1022

#: 2^-(d+2) for d = 0 .. ``MAX_DEPTH``: the weight of |h_d| in ``_weights``'s
#: range rule
_AGE_SCALE = np.ldexp(1.0, -np.arange(MAX_DEPTH + 1) - 2)

#: entries per temporary block of the level tables, the size convolution
#: and the max-plus chain (512 KB of float64)
_BLOCK = 1 << 16

#: work rule of the shared-row level pass (``_level_ends``): a pass over w > 1
#: J values at depth n shares rows only when w n >= _SHARE_WORK
_SHARE_WORK = 1 << 10

#: floor of the shifted convolution terms; numpy's exp slows down sharply
#: below about -708, where its results turn subnormal
_EXP_FLOOR = -700.0


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


@dataclass(frozen=True)
class CanonicalTable:
    """Size-indexed log table ln W(a0), a0 = 0 .. m_max.

    ``kind`` is "sum" for the canonical partition function and "max" for the
    dominant-profile table. ``omega_values`` rescales to the canonical free
    energy omega_n(eps) = 2^-n ln W(eps 2^n) at eps = a0 / 2^n.
    """

    depth: int
    ln_w: np.ndarray
    kind: str = "sum"

    @property
    def m_max(self):
        return len(self.ln_w) - 1

    def omega_values(self):
        return self.ln_w / (1 << self.depth)


def _range_bound(n):
    """Bound at depth n on |J| and on the weights (see ``_weights``).

    J enters ln F_n with factor 2^n, so below this bound it adds at most a
    quarter of the float maximum to ln F_n.
    """
    return math.ldexp(sys.float_info.max, -(n + 2))


def _integer(value, key):
    """``value`` as an int, read through ``operator.index``; a bool, a float
    (8.0 too) or anything else that is not an integer is refused naming
    ``key``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise SpecConfigError(key, "must be an integer, got %r" % (value,))


def _depth(n):
    """The depth ``n`` as an int (``_integer``), refused naming ``depth``
    unless 0 <= n <= ``MAX_DEPTH``. The dynamic programs and the sampler
    read their depth here, so a numpy integer computes at its value."""
    n = _integer(n, "depth")
    if n < 0:
        raise SpecConfigError("depth", "must be nonnegative, got %d" % (n,))
    if n > MAX_DEPTH:
        raise SpecConfigError(
            "depth", "ln Z_n leaves float range past depth %d, got %d" % (MAX_DEPTH, n)
        )
    return n


def _weights(spec, n):
    """Branching weights ``(H, const)`` of a dp family at depth n.

    H[a, d] weighs a branching point of age d whose branching ancestor has
    age a. Second order has rows a = 0 .. n+1; first order has a single
    row, because its weights do not depend on a. Every dynamic program and
    the sampler enter here, so bad depths, weight lists that stop short of
    the depth and weights that carry ln Z out of float range are rejected
    here, naming their key.

    Negative weights raise ln F. With P_d = max(ln F_d, 0) the recursion
    gives P_d <= 2 P_{d-1} + max(0, -h_d) + 2 ln2, so h_d enters ln F_n with
    factor 2^(n-d), and the constant enters ln Z once. Positive weights lower
    ln F instead, and unbounded they overflow 2 ln F_{d-1} or
    ln F_n - h_const to -inf on the way (a right value, with a numpy
    warning). So weighted by 2^-d (2^-n for the constant), the magnitudes
    must sum below ``_range_bound(n)``, as |J| must: then ln Z_n stays below
    half the float maximum plus (2^(n+1) + 1) ln2, and every intermediate
    stays finite from below, as ln F_d >= J - h_0 + d ln2.
    """
    check_family(spec, ("first", "second"), "the subtree recursion")
    n = _depth(n)
    try:
        with np.errstate(over="ignore"):  # an inf weight is refused below
            H = spec.h.array(n)
            const = spec.h_const_at(n)
    except IndexError as exc:
        raise SpecConfigError("h.values", "too short for depth %d: %s" % (n, exc))
    if spec.variant != "second":
        H = H[None, :]
    # both sides scaled by 1/4, so that the sums cannot overflow
    limit = _range_bound(n + 2)
    size = np.abs(H[:, : n + 1]).max(axis=0)
    weights = (size * _AGE_SCALE[: n + 1]).sum()
    if not weights + math.ldexp(abs(const), -(n + 2)) < limit:
        raise SpecConfigError(
            "h.values" if not weights < limit else "h_const",
            "weights carry ln Z_%d out of float range: "
            "sum_d 2^-d |h_d| + 2^-%d |h_const| must stay below %g"
            % (n, n, _range_bound(n)),
        )
    return H, const


def _row_plan(H, n):
    """The shared-row plan of second-order weights H at depth n (see the
    module docstring): the end row in H of each level.

    Row a agrees with the root row n + 1 on columns 0 .. d when its entries
    there have the same bits, compared as int64, so that -0.0 never stands
    for 0.0. With c_a the first column where row a differs from the root's
    (n + 1 if none) and m_a = min(c_a, c_{a+1}, ..., c_{n+1}), s_d is the
    larger of d + 1 and the first a with m_a > d. Level d holds H rows
    d+1 .. s_d, and its end is s_d + 1.
    """
    bits = H[1:, : n + 1].view(np.int64)
    differ = bits != bits[-1]
    first = np.where(differ.any(axis=1), differ.argmax(axis=1), n + 1)
    agree = np.minimum.accumulate(first[::-1])[::-1]
    d = np.arange(n + 1)
    top = np.maximum(d + 1, np.searchsorted(agree, d, side="right") + 1)
    return (top + 1).tolist()


def _level_ends(H, n, width):
    """End row in H of each level of a pass over ``width`` J values.

    Every row (``len(H)``) unless a second-order pass over more than one J
    value has width * n >= ``_SHARE_WORK``; then the row plan's ends. A
    one-point grid keeps every row at any depth, as the sampler's tables
    need.
    """
    if len(H) > 1 and width > 1 and width * n >= _SHARE_WORK:
        return _row_plan(H, n)
    return [len(H)] * (n + 1)


def _check_j(j, n):
    """``j`` as a one-dimensional float array, refused naming ``j`` if it is
    not an array of numbers, has more dimensions, or unless every J is finite
    with |J| below ``_range_bound(n)``."""
    try:
        j = np.atleast_1d(np.asarray(j, dtype=float))
    except (TypeError, ValueError):
        raise SpecConfigError(
            "j", "takes a number or a grid of numbers, got %r" % (j,)
        ) from None
    if j.ndim > 1:
        raise SpecConfigError(
            "j", "takes a number or a one-dimensional grid, got an array of shape %s"
            % (j.shape,)
        )
    bound = _range_bound(n)
    ok = np.abs(j) < bound
    if not ok.all():
        raise SpecConfigError(
            "j", "J must be finite with |J| < %g at depth %d, got %r"
            % (bound, n, float(j[~ok][0]))
        )
    return j


def _levels(H, j, n, ratio=False):
    """Yield ``(ln F_d, r_d)`` for d = 0 .. n, one column per J of ``j``.

    Level d holds only the rows that a later level reads (see the module
    docstring): ancestor ages a = d+1 .. n+1 in second order, first order's
    single row throughout. So the square term at level d reads the first
    row held at level d - 1, and the row left after level n is the root's.
    Past the work rule of ``_level_ends`` a second-order pass follows the
    row plan instead, holding ages d+1 .. s_d, the last standing for the
    root's; each level first copies the shared row into the rows that split
    off it. Below the rule, as on every one-point grid, the rows are full.
    With ``ratio`` the log derivative r_d = F_d' / F_d is carried along
    (None otherwise); it starts at 1 and at most doubles per level, so it
    stays within float range. ln F_n grows like 2^n |J|, so |J| must lie
    within ``_range_bound(n)`` to keep 2 ln F finite (``_check_j``).
    """
    drop = min(1, len(H) - 1)  # second order leaves each split row behind
    ends = _level_ends(H, n, len(j))
    neg = -H
    f = j - H[drop : ends[0], :1]
    r = np.ones_like(f) if ratio else None
    yield f, r
    for d in range(1, n + 1):
        end = ends[d]
        split = end - ends[d - 1]  # rows that leave the shared row
        if split:
            f = np.concatenate((f, np.repeat(f[-1:], split, axis=0)))
            if ratio:
                r = np.concatenate((r, np.repeat(r[-1:], split, axis=0)))
        u = LN2 + f[drop:]
        v = neg[(d + 1) * drop : end, d : d + 1] + 2.0 * f[:1]
        new = np.logaddexp(u, v)
        if ratio:
            r = np.exp(u - new) * r[drop:] + 2.0 * np.exp(v - new) * r[:1]
        f = new
        yield f, r


def _logaddexp(x, y):
    """``np.logaddexp`` of two floats, to the bit. numpy's float64 kernel is
    this formula on libm's ``exp`` and ``log1p``, which ``math`` calls too:
    it takes x + log1p(exp(-(x - y))) for x > y, and -(x - y) is y - x
    exactly; ties, equal infinities among them, give x + ln 2."""
    if x > y:
        return x + math.log1p(math.exp(y - x))
    if x < y:
        return y + math.log1p(math.exp(x - y))
    return x + LN2


def _chain(h, const, n, j, ratio=False):
    """``_root`` at one J of first-order weights ``h``: the level recursion
    of ``_levels`` run on Python floats, every float the same (see the
    module docstring).

    ln F_d takes the same operations in the same order, with ``_logaddexp``
    for ``np.logaddexp``. The ratio's exponentials stay numpy's, whose
    vector exp rounds unlike ``math.exp``: one ``np.exp`` over all levels
    for each of the two terms, then r_d = a_d r_{d-1} + c_d r_{d-1} with
    c_d = 2 exp(v_d - ln F_d), in the order ``_levels`` takes.
    """
    h0, *rest = h[: n + 1].tolist()
    x = j - h0
    f = [x]
    for w in rest:
        x = _logaddexp(LN2 + x, -w + 2.0 * x)
        f.append(x)
    occupied = -const + x
    ln_z = _logaddexp(0.0, occupied)
    if not ratio:
        return np.array([ln_z]), None
    old, new = np.array(f[:-1]), np.array(f[1:])
    keep = np.exp(LN2 + old - new).tolist()
    split = (2.0 * np.exp(-h[1 : n + 1] + 2.0 * old - new)).tolist()
    r = 1.0
    for a, c in zip(keep, split):
        r = a * r + c * r
    return np.array([ln_z]), np.array([float(np.exp(occupied - ln_z)) * r / (1 << n)])


def _root(H, const, n, j, ratio=False):
    """``(ln Z_n, rho_n)`` at each J of ``j`` from prepared weights; rho_n is
    None without ``ratio``.

    A first-order pass at one J runs as a float chain (``_chain``); every
    other pass, second order or a grid of two or more J, runs ``_levels``.
    The chain costs its full time per J, and past about 15 J at depth 60
    one numpy pass is cheaper, so the rule is one J, not a tuned width.
    Its floats are ``_levels``'s: numpy's float64 logaddexp is a formula on
    libm's exp and log1p, which ``math`` calls too, and the density keeps
    numpy's exp, which rounds unlike libm's (see the module docstring).

    ``_levels`` runs over at most ``_BLOCK // len(H)`` J values at a time, so
    its tables stay within ``_BLOCK`` entries whatever the grid. Each J is
    computed on its own, so the chunks change no float. A chunk's pass
    takes the row plan where the work rule of ``_level_ends`` says it pays,
    and builds it for itself. Either way the last row held is the root's,
    and every float is the same.
    """
    j = _check_j(j, n)
    if len(H) == 1 and len(j) == 1:
        return _chain(H[0], const, n, j.item(), ratio)
    ln_z = np.empty(len(j))
    rho = np.empty(len(j)) if ratio else None
    step = max(1, _BLOCK // len(H))
    for lo in range(0, len(j), step):
        part = slice(lo, lo + step)
        for f, r in _levels(H, j[part], n, ratio):
            pass
        occupied = -const + f[-1]
        ln_z[part] = np.logaddexp(0.0, occupied)
        if ratio:
            rho[part] = np.exp(occupied - ln_z[part]) * r[-1] / (1 << n)
    return ln_z, rho


def _ln_z(H, const, n, j):
    """ln Z_n at each J of ``j`` from prepared weights."""
    return _root(H, const, n, j)[0]


def _per_j(j, values):
    """A float for a scalar J, the array for an array of J."""
    return float(values[0]) if np.ndim(j) == 0 else values


def _one_j(j):
    """``j`` itself if it is a single J; an array, even of one, is refused
    naming ``j``."""
    try:
        shape = np.shape(j)
    except ValueError:  # nested lists of unequal lengths
        shape = "(ragged)"
    if shape != ():
        raise SpecConfigError(
            "j", "takes one J, got an array of shape %s; zeta and the density "
            "take a grid" % (shape,)
        )
    return j


def dp_Z(spec, n, j):
    """Grand partition function at one J as a LogReal; dispatches on the family."""
    return (dp_Z_second if spec.variant == "second" else dp_Z_first)(spec, n, j)


def _dp_Z(spec, n, j):
    j = _one_j(j)
    n = _depth(n)
    H, const = _weights(spec, n)
    return LogReal(float(_ln_z(H, const, n, j)[0]))


# One recursion serves every family, so each _first/_second pair below is one
# function under two names. dp_Z and dp_W still call through the family's
# name, so a wrapper installed on either name (as bench/tracing.py does)
# sees the calls of that family.
dp_Z_first = dp_Z_second = _dp_Z


def zeta(spec, n, j):
    """Finite-depth free energy zeta_n(J) = 2^-n ln Z_n(J); J may be an array."""
    n = _depth(n)
    H, const = _weights(spec, n)
    return _per_j(j, _ln_z(H, const, n, j) / (1 << n))


def dp_density(spec, n, j):
    """Mean occupied fraction rho_n(J) = 2^-n d ln Z / dJ; J may be an array.

    Carries the log derivative of every level table through the recursion
    analytically instead of differencing ln Z.
    """
    n = _depth(n)
    H, const = _weights(spec, n)
    return _per_j(j, _root(H, const, n, j, ratio=True)[1])


def _log_self_convolve(y, out_len):
    """c[m] = ln sum_{i+j=m} exp(y[i] + y[j]) over i, j >= 1, for m = 0 .. out_len.

    ``y`` is indexed by size and y[0] (the empty set) takes no part. Only
    sizes lo .. hi between the first and last finite entry of y are read,
    so c is computed for m = 2 lo .. min(out_len, 2 hi) and stays -inf
    elsewhere. By symmetry only the half anti-diagonal i <= j is summed:
    with m = 2 lo + 2p + e (e = 0, 1) the row pairs i = lo + p - k with
    j = lo + p + e + k, k = 0, 1, ..., so row p reads a window of y forward
    from lo + p + e and a window of y backward from lo + p. Both are views
    of one -inf padded buffer, and an index past either end reads -inf.
    Each term off the diagonal stands for two, so a row sums to 2S minus its
    diagonal term (k = 0, e = 0), which is at most S: no cancellation.

    Rows are taken in blocks of at most ``_BLOCK`` entries, each with a
    per-row max shift; a row with no finite term is shifted by 0 and gives
    -inf without forming -inf - -inf. Shifted terms are floored at
    ``_EXP_FLOOR`` before ``exp``: a row's largest term is 1, so its sum is
    at least 1, and its floored terms, each below 1e-304, move it by far less
    than half an ulp. A row with no finite term has its sum reset to 0.
    """
    c = np.full(out_len + 1, NEG_INF)
    live = np.flatnonzero(y[1:] > NEG_INF) + 1
    if live.size == 0:
        return c
    lo, hi = int(live[0]), int(live[-1])
    top = hi - lo
    last = min(out_len - 2 * lo, 2 * top)
    if last < 0:
        return c
    rows = last // 2 + 1
    width = min(rows - 1, top) + 1
    step = max(1, _BLOCK // (2 * width))
    buf = np.full((2, top + 1 + width), NEG_INF)
    buf[0, : top + 1] = y[lo : hi + 1]
    buf[1, : top + 1] = y[lo : hi + 1][::-1]
    # row p of either view starts at entry p of its buffer row: the windows
    # of sliding_window_view, made directly (it costs ~15 us per call)
    stride = (buf.strides[1],) * 2
    fwd = np.ndarray((top + 1, width + 1), float, buf, 0, stride)
    back = np.ndarray((top + 1, width), float, buf, buf.strides[0], stride)
    out = c[2 * lo : 2 * lo + last + 1]
    for p0 in range(0, rows, step):
        p1 = min(p0 + step, rows)
        k = min(p1 - 1, top - p0) + 1
        b = back[top - p1 + 1 : top - p0 + 1, :k][::-1]
        t = np.empty((p1 - p0, 2, k))
        np.add(fwd[p0:p1, :k], b, out=t[:, 0])
        np.add(fwd[p0:p1, 1 : k + 1], b, out=t[:, 1])
        mx = t.max(axis=2)
        live = mx > NEG_INF
        shift = np.where(live, mx, 0.0)
        t -= shift[:, :, None]
        np.maximum(t, _EXP_FLOOR, out=t)
        np.exp(t, out=t)
        s = t.sum(axis=2)
        s *= 2.0
        s[:, 0] -= t[:, 0, 0]
        s[~live] = 0.0
        with np.errstate(divide="ignore"):
            vals = (shift + np.log(s)).reshape(-1)
        seg = out[2 * p0 : 2 * p1]
        seg[:] = vals[: len(seg)]
    return c


def dp_W(spec, n, m_max=None, allow_large=False):
    """Canonical table ln W(a0); dispatches on the family.

    ``m_max`` truncates the table to sizes <= m_max, which is exact (sizes
    only add in the convolution) and turns the cost into O(n * m_max^2);
    without it the full table costs O(4^n). Either way the size is guarded
    (``_table_size``).
    """
    kernel = dp_W_second if spec.variant == "second" else dp_W_first
    return kernel(spec, n, m_max=m_max, allow_large=allow_large)


def _size_cap(spec):
    """The size of the full table at depth ``W_FIRST_MAX_DEPTH``
    (``W_SECOND_MAX_DEPTH`` in second order): larger tables need ``allow_large``."""
    return 1 << (W_SECOND_MAX_DEPTH if spec.variant == "second" else W_FIRST_MAX_DEPTH)


def _table_size(spec, n, m_max, allow_large, label):
    """min(m_max, 2^n), the largest size a table at depth n holds (2^n for
    m_max None). Past ``_size_cap`` it needs ``allow_large``."""
    if m_max is not None:
        m_max = _integer(m_max, "m_max")
        if m_max < 0:
            raise SpecConfigError("m_max", "must be nonnegative, got %d" % (m_max,))
    size = 1 << n if m_max is None else min(m_max, 1 << n)
    cap = _size_cap(spec)
    if size > cap and not allow_large:
        raise SpecConfigError(
            "depth" if m_max is None else "m_max", "%s at depth %d holds sizes up to %d, "
            "past the default cost guard of %d; pass --allow-large (allow_large=True) or "
            "truncate with --m-max (m_max) at most %d" % (label, n, size, cap, cap))
    return size


def _dp_W(spec, n, m_max=None, allow_large=False):
    """The recursion of ``_levels`` resolved by size.

    Each row of f holds ln F_d(a) split by leaf count, for the same rows as
    ``_levels`` keeps, and the square becomes a size self-convolution of the
    first row held, the split row.
    """
    n = _depth(n)
    H, const = _weights(spec, n)
    cap = _table_size(spec, n, m_max, allow_large, "dp_W")

    drop = min(1, len(H) - 1)
    f = np.full((len(H) - drop, min(1, cap) + 1), NEG_INF)
    if cap >= 1:
        f[:, 1] = -H[drop:, 0]
    for d in range(1, n + 1):
        size = min(1 << d, cap)
        conv = _log_self_convolve(f[0], size)
        keep = np.full((len(f) - drop, size + 1), NEG_INF)
        keep[:, 1 : f.shape[1]] = LN2 + f[drop:, 1:]
        f = np.logaddexp(keep, -H[(d + 1) * drop :, d : d + 1] + conv)
    ln_w = np.full(cap + 1, NEG_INF)
    ln_w[0] = 0.0
    ln_w[1:] = -const + f[-1, 1:]
    return CanonicalTable(n, ln_w, kind="sum")


dp_W_first = dp_W_second = _dp_W


def dp_W_maxterm(spec, n, m_max=None, allow_large=False):
    """ln max over admissible first-order profiles of N(b) e^{-Phi(b)}.

    Max-plus pass over the level chain: starting from population 1 at the
    top age, choosing b_k branching points at age k multiplies the count by
    C(a_k, b_k) 2^{a_k - b_k} and costs h_k b_k, and grows the population to
    a_{k-1} = a_k + b_k. The canonical table dominates this entrywise, and
    the gap is at most ln of the number of admissible profiles.
    """
    check_family(spec, ("first",), "dp_W_maxterm")
    n = _depth(n)
    H, const = _weights(spec, n)
    h = H[0]
    cap = _table_size(spec, n, m_max, allow_large, "dp_W_maxterm")

    lg = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cap + 1)))))

    # Level k moves population a to t = a + b with gain(a, b) =
    # lg[a] - lg[b] - lg[a - b] + (a - b) ln2 - h_k b, so row t of a block
    # holds best[a] + gain(a, t - a) for a window of a and takes its max.
    # Row t reads lg and x ln2 at x = 2a - t (a stride-2 window forward) and
    # lg and h_k x at x = t - a (a window backward); lg is +inf at x < 0, so
    # the out-of-range b < 0 and b > a come out -inf. The windows are views
    # made once; each level only rewrites the h_k x row under them.
    pad = cap + 1
    x = np.arange(-pad, 2 * cap + 3)
    lgx = np.full(len(x), np.inf)
    lgx[pad : pad + cap + 1] = lg
    by_2a_t = sliding_window_view(np.stack((lgx, x * LN2)), 2 * cap + 1, axis=1)
    by_2a_t = by_2a_t[:, :, ::2]
    back = np.empty((2, len(x)))
    back[0] = lgx
    by_t_a = sliding_window_view(back[:, ::-1], cap + 1, axis=1)
    end = len(x) - 1 - pad
    best = np.full(2, NEG_INF)
    best[1] = 0.0  # population 1 above the deepest branching age
    for k in range(n, 0, -1):
        reach = min(1 << (n - k + 1), cap)
        top_a = min(len(best) - 1, reach)
        new = np.full(reach + 1, NEG_INF)
        np.multiply(h[k], x, out=back[1])
        step = max(1, _BLOCK // (top_a + 1))
        for t0 in range(1, reach + 1, step):
            t1 = min(t0 + step, reach + 1)
            a0 = (t0 + 1) // 2
            a1 = min(t1 - 1, top_a) + 1
            f = by_2a_t[:, pad + 2 * a0 - t1 + 1 : pad + 2 * a0 - t0 + 1]
            r = by_t_a[:, end - t1 + 1 + a0 : end - t0 + 1 + a0]
            f, r = f[:, ::-1, : a1 - a0], r[:, ::-1, : a1 - a0]
            g = lg[a0:a1] - r[0]
            g -= f[0]
            g += f[1]
            g -= r[1]
            g += best[a0:a1]
            new[t0:t1] = g.max(axis=1)
        best = new
    ln_w = np.full(cap + 1, NEG_INF)
    ln_w[0] = 0.0
    top = min(len(best) - 1, cap)
    ln_w[1 : top + 1] = best[1 : top + 1] - h[0] * np.arange(1, top + 1) - const
    return CanonicalTable(n, ln_w, kind="max")
