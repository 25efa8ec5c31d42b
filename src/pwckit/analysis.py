"""Wetting diagnostics built on top of the dynamic programs.

The objects here answer the asymptotic questions: does the free energy
zeta(J) leave zero at a finite threshold J*, and what do the summability
criteria say about it. Everything is finite-depth or finite-sum numerics;
verdicts are deliberately three-valued (transition-supported,
no-transition-supported, inconclusive) because a numeric trend is evidence,
not a proof.

Conventions shared across the module, with h the clustering weights:

    g_k       = h_k - (ln2) k                 (first order)
    g_{l,d}   = h_{l+d, l} - (ln2) l, d >= 1  (second order; 0 at d = 0)

kappa_1 = sum_k 2^k e^{-h_k} and kappa_2 = sup_k sum_l 2^l e^{-h_{k,l}}
certify a transition when finite, with analytic lower bounds on J*. The
Laplace and Tauberian diagnostics point the other way: growth of
ln(1/s) - s ghat+(s) (or its second-order variant) and of
(ln2)k + ln k - h_k support the absence of a transition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .clustering import SpecConfigError, _flag, _integer, _real, _reals, check_family
from .dp import NEG_INF

LN2 = math.log(2.0)

#: kappa_1 sums to relative tolerance _KAPPA_TOL over at most _KAPPA_CAP
#: ages; it, and a Laplace sum, is called divergent past _BLOW_UP. A k_max
#: lies in 1 .. _K_MAX_CAP, as kappa_2 holds k_max floats in one buffer
#: (32 MB at the cap); K_MAX_DEFAULT is the default of every k_max, the
#: command-line flags' included
_KAPPA_TOL = 1e-15
_KAPPA_CAP = 200000
_K_MAX_CAP = 1 << 22
K_MAX_DEFAULT = 100000
_BLOW_UP = 1e15

#: tail_bound sums to relative tolerance _TAIL_TOL over at most _TAIL_CAP
#: ages
_TAIL_TOL = 1e-18
_TAIL_CAP = 20000

#: a Laplace block contributing less than this ends its sum
_LAPLACE_TOL = 1e-12

#: per order, the Laplace diagnostic refuses s below 2^-exponent without
#: allow_large: (exponent, its cost in s)
_COST_S = {"first-order": (20, "1/s"), "second-order": (8, "1/s^2")}

#: numeric-trend thresholds for divergence verdicts: the sequence value at
#: k_max must clear _DIVERGE_VALUE and gain at least _DIVERGE_GAIN over the
#: value at k_max/2 (a doubling adds ln2 ~ 0.69 even for log growth)
_DIVERGE_VALUE = 5.0
_DIVERGE_GAIN = 0.4


# ---------------------------------------------------------------------------
# summability criteria


@dataclass(frozen=True)
class Kappa1Report:
    value: float
    lower_bound: float
    terms_used: int
    converged: bool


def _blocks(first, last):
    """Ages first .. last (last may be inf) as consecutive arrays of 4096:
    memory stays bounded and a sum stops at the block where it converges."""
    while first <= last:
        yield np.arange(first, min(first + 4096, last + 1))
        first += 4096


def _series(terms, first, last, tol, blow_up):
    """Sum ``terms(ks)`` over the ages first .. last in order: ``(total, k, stopped)``.

    ``terms`` returns a new array. The running sum of the blocks before is
    added into its first term, and a cumsum adds the rest as a loop would.
    It stops at the first age k from which the terms, to the end of their
    block, lie below tol * max(partial, 1) and do not grow in size, up to
    the first term past the block (``stopped``); or at the first partial
    sum past ``blow_up`` or not finite, as one with an infinite term is.
    k is the last age summed. Tiny terms that still grow do not stop it.
    Blocks hold 64 ages and double up to 4096, so a sum that stops early
    stays cheap, and a block is scanned for either stop only where its
    last age shows one can fire: a small last term, or a last partial sum
    past ``blow_up`` or not finite (a cumsum stays so once it is).
    """
    total, k, size = 0.0, first - 1, 64
    while first <= last:
        # one age past the block, if there is one, to see whether terms grow
        ks = np.arange(first, min(first + size, last) + 1)
        t = terms(ks)
        mag = np.abs(t)
        ks, t = ks[:size], t[:size]
        t[0] += total
        partial = np.cumsum(t)
        settle = over = len(t)
        if mag[len(t) - 1] < tol * np.maximum(partial[-1], 1.0):
            small = mag[: len(t)] < tol * np.maximum(partial, 1.0)
            small[: len(mag) - 1] &= mag[1:] <= mag[:-1]
            # settled from the age after the last term that is not small
            r = int(np.argmin(small[::-1]))
            settle = 0 if small[-1 - r] else len(t) - r
        if not np.isfinite(partial[-1]) or partial.max() > blow_up:
            over = int(np.argmax((partial > blow_up) | ~np.isfinite(partial)))
        i = min(settle, over)
        if i < len(t):
            return float(partial[i]), int(ks[i]), i == settle
        total, k = float(partial[-1]), int(ks[-1])
        first, size = k + 1, min(2 * size, 4096)
    return total, k, False


def _exp2(e):
    """2^e as exp(e ln2) by ``math.exp`` per entry: bit for bit what a loop
    of scalar terms computes, where ``np.exp`` can differ in the last ulp."""
    return np.fromiter(map(math.exp, e * LN2), float, len(e))


def _quiet_overflow(fn):
    """``fn`` without numpy's overflow and invalid-value warnings, for the
    functions that read weights over a range of ages. A closed-form weight
    past float range reads as inf, and its terms as inf or, times a damping
    that underflowed, NaN: a sum that is not finite is divergent, a trend
    that is not a number is inconclusive. Weights past range at a depth are
    refused, naming their key, where the dynamic programs read them."""
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    return quiet


#: the families each criterion serves
_FIRST = ("first",)
_SECOND = ("second",)


@_quiet_overflow
def kappa1(spec):
    """kappa_1 = sum_{k>=1} 2^k e^{-h_k}, or inf when it will not converge.

    Finite-list sequences are summed over their whole range, and flagged
    converged only if the sum settles by the last age. Closed-form
    sequences are summed until the terms settle below ``_KAPPA_TOL`` times
    the total (see ``_series``); if that has not happened by ``_KAPPA_CAP``
    terms, or the partial sum exceeds ``_BLOW_UP``, the series is reported
    divergent.

    Terms whose logarithms k ln2 - h_k lie below -700 at each of the first
    64 ages are summed divided by the largest of them, e^c, so that they
    neither underflow to a zero sum that looks settled nor lose the bound,
    which comes from ln kappa_1 = c + ln(scaled sum). Such a scaled sum is
    divergent past _BLOW_UP e^min(-c, 600), the largest threshold floats hold.
    An empty sum (a list with no age past 0) certifies nothing: divergent.
    """
    check_family(spec, _FIRST, "kappa1")
    h = spec.h
    closed = h.max_age == math.inf
    last = _KAPPA_CAP if closed else h.max_age
    if last < 1:
        return Kappa1Report(math.inf, -math.inf, 0, False)
    head = np.arange(1, min(last, 64) + 1)
    top = float(np.max(head * LN2 - h(head), initial=-math.inf))
    c = top if -math.inf < top < -700.0 else 0.0
    blow_up = _BLOW_UP * math.exp(min(-c, 600.0))
    total, k, converged = _series(
        lambda ks: np.exp(np.minimum(ks * LN2 - h(ks) - c, 700.0)),
        1, last, _KAPPA_TOL, blow_up,
    )
    if total > blow_up or (closed and not converged):
        return Kappa1Report(math.inf, -math.inf, k, False)
    ln_total = math.log(total) + c if total > 0.0 else -math.inf
    bound = 2 * LN2 + h(0) - ln_total
    return Kappa1Report(total * math.exp(c), bound, k, converged)


@dataclass(frozen=True)
class Kappa2Report:
    value: float
    lower_bound: float
    at_cutoff: bool
    grid: tuple


@_quiet_overflow
def kappa2(spec, k_max=K_MAX_DEFAULT):
    """kappa_2 = sup_k sum_{l<k} 2^l e^{-h_{k,l}} over k <= k_max.

    Inner sums are evaluated exactly; the sup is taken over a geometric
    grid of k (1, 2, 4, ..., k_max), which keeps the cost linear in k_max.
    Each inner sum forms its terms over ``_blocks`` in place in one buffer
    of k_max floats (32 MB at the cap) and sums them as one contiguous
    array.
    ``at_cutoff`` flags a sup attained at the largest evaluated k, where
    the true sup may lie beyond the cutoff. An empty sum (a table with no
    age past 0) certifies nothing: divergent.
    """
    k_max = _integer(k_max, "k_max", 1, _K_MAX_CAP)
    check_family(spec, _SECOND, "kappa2")
    h = spec.h
    k_max = min(k_max, h.max_age)
    if k_max < 1:
        return Kappa2Report(math.inf, -math.inf, False, ())
    grid = [1 << i for i in range(int(k_max).bit_length()) if 1 << i < k_max] + [k_max]
    buf = np.empty(k_max)
    best = 0.0
    attained = grid[0]
    for k in grid:
        for ls in _blocks(0, k - 1):
            # ls * LN2 - h(k, ls), capped at 700, exponentiated, in place
            t = buf[ls[0] : ls[-1] + 1]
            np.multiply(ls, LN2, out=t)
            np.subtract(t, h(k, ls), out=t)
            np.minimum(t, 700.0, out=t)
            np.exp(t, out=t)
        s = float(buf[:k].sum())
        if s > best:
            best, attained = s, k
        if best > _BLOW_UP:
            return Kappa2Report(math.inf, -math.inf, True, tuple(grid))
    bound = 2 * LN2 - 2 * math.exp(-1.0) * best
    return Kappa2Report(best, bound, attained == grid[-1], tuple(grid))


# ---------------------------------------------------------------------------
# Laplace and Tauberian diagnostics


@dataclass(frozen=True)
class DiagnosticCurve:
    kind: str
    s: np.ndarray
    diag: np.ndarray
    divergent: tuple


def _s_grid(s_values, order, allow_large):
    """The s grid as an array. Empty grids and points outside (0, 1] name
    's-grid', as do points below ``_COST_S[order]`` without ``allow_large``."""
    s_arr, allow_large = _reals(s_values, "s-grid").copy(), _flag(allow_large, "allow_large")
    if not s_arr.size or not np.all((s_arr > 0) & (s_arr <= 1)):
        raise SpecConfigError(
            "s-grid", "need one or more points in (0, 1], got %r" % (s_arr.tolist(),)
        )
    exponent, cost = _COST_S[order]
    if np.any(s_arr < 2.0**-exponent) and not allow_large:
        raise SpecConfigError(
            "s-grid",
            "the %s Laplace diagnostic below s = 2^-%d costs O(%s); "
            "pass --allow-large (allow_large=True) to proceed" % (order, exponent, cost),
        )
    return s_arr


def _damped_sum(g, s, first, last, scale=1.0):
    """sum_{k = first .. last} e^{-sk} g+(k) over ``_blocks``: ``(sum, divergent)``.

    The sum ends at a block where scale times both its contribution and its
    last damping e^{-sk} lie below ``_LAPLACE_TOL`` (a run of ages with
    g+ = 0 does not end it), and is divergent once scale times it passes
    ``_BLOW_UP`` or is not a number.
    """
    total = 0.0
    for ks in _blocks(first, last):
        damp = np.exp(-s * ks)
        contrib = float((damp * np.maximum(g(ks), 0.0)).sum())
        total += contrib
        if not scale * total <= _BLOW_UP:
            return total, True
        if scale * max(contrib, damp[-1]) < _LAPLACE_TOL:
            break
    return total, False


@_quiet_overflow
def laplace_first(spec, s_values, allow_large=False):
    """ln(1/s) - s ghat+(s) on the grid, ghat+(s) = sum e^{-sk} g+_k.

    The series is a ``_damped_sum``; a divergent point reports -inf (the
    diagnostic is then conclusively negative). It runs to about 28/s ages;
    grids reaching below 2^-20 are refused without ``allow_large``.
    """
    check_family(spec, _FIRST, "laplace_first")
    h = spec.h
    s_arr = _s_grid(s_values, "first-order", allow_large)
    diag = np.empty_like(s_arr)
    divergent = []
    for i, s in enumerate(s_arr):
        total, bad = _damped_sum(lambda ks: h(ks) - LN2 * ks, s, 1, h.max_age)
        divergent.append(bad)
        diag[i] = NEG_INF if bad else math.log(1.0 / s) - s * total
    return DiagnosticCurve("laplace-first", s_arr, diag, tuple(divergent))


@_quiet_overflow
def laplace_second(spec, s_values, allow_large=False):
    """ln(1/s) - 2 s^2 ghat+(s, 2s) with the double Laplace transform
    ghat+(s, u) = sum_{l>=0, d>=1} e^{-s l - u d} g+_{l,d}.

    Each row d is a ``_damped_sum`` over l scaled by e^{-2sd}, and the rows
    do not end before e^{-2sd} has fallen below ``_LAPLACE_TOL``. Cost grows
    like (1/s)^2; grids reaching below 2^-8 are refused without
    ``allow_large``.
    """
    check_family(spec, _SECOND, "laplace_second")
    h = spec.h
    s_arr = _s_grid(s_values, "second-order", allow_large)
    diag = np.empty_like(s_arr)
    divergent = []
    for i, s in enumerate(s_arr):
        total = 0.0
        bad = False
        small_rows = 0
        d = 1
        while d <= h.max_age:
            damp = math.exp(-2.0 * s * d)
            row, bad = _damped_sum(
                lambda ls: h(ls + d, ls) - LN2 * ls, s, 0, h.max_age - d, damp
            )
            total += damp * row
            if bad or total > _BLOW_UP:
                bad = True
                break
            small_rows = small_rows + 1 if damp * row < _LAPLACE_TOL else 0
            if small_rows >= 3 and d > 8 and damp < _LAPLACE_TOL:
                break
            d += 1
        divergent.append(bad)
        diag[i] = NEG_INF if bad else math.log(1.0 / s) - 2.0 * s * s * total
    return DiagnosticCurve("laplace-second", s_arr, diag, tuple(divergent))


@dataclass(frozen=True)
class TauberianReport:
    """u_k at the ages k = 1, 2, 4, ... <= k_max that ``diagnose`` prints;
    the verdict reads u at k_max // 2 + 1 and k_max."""
    k: np.ndarray
    u: np.ndarray
    verdict: str


@_quiet_overflow
def _trend_verdict(u, k_max):
    """The verdict from the sequence ``u`` (a callable on age arrays) at the
    ages k_max // 2 + 1 and k_max; inconclusive for k_max = 0."""
    if k_max == 0:
        return "inconclusive"
    mid, last = u(np.array([k_max // 2 + 1, k_max]))
    if last > _DIVERGE_VALUE and last - mid > _DIVERGE_GAIN:
        return "no-transition-supported"
    if last < -_DIVERGE_VALUE and mid - last > _DIVERGE_GAIN:
        return "inconclusive-for-this-test"
    return "inconclusive"


@_quiet_overflow
def tauberian_first(spec, k_max=K_MAX_DEFAULT):
    """u_k = (ln2) k + ln k - h_k at the powers of two k <= k_max, with a
    monotone-trend verdict.

    u_k -> +inf is the certified no-transition regime; u_k -> -inf means
    this test says nothing (h may still be too small elsewhere), reported
    as inconclusive-for-this-test. The verdict compares u at k_max and at
    k_max // 2 + 1; k_max is cut to a finite list's last age, and a list
    with no age past 0 has no age to report and is inconclusive.
    """
    k_max = _integer(k_max, "k_max", 1, _K_MAX_CAP)
    check_family(spec, _FIRST, "tauberian_first")
    h = spec.h
    k_max = min(k_max, h.max_age)
    u = lambda ks: LN2 * ks + np.log(ks) - h(ks)
    ks = 2 ** np.arange(int(k_max).bit_length())
    return TauberianReport(ks, u(ks), _trend_verdict(u, k_max))


# ---------------------------------------------------------------------------
# threshold estimation


class BracketError(SpecConfigError):
    """zeta_n(J) - tail > delta is not false then true along a J grid;
    ``top_false`` if it is false at the top bracket end, J = 2^23, and
    ``bottom_true`` if it holds at the bottom one. It names ``delta``, or
    ``key`` where the weights decide it."""

    def __init__(self, message, top_false=False, key="delta", bottom_true=False):
        super().__init__(key, message)
        self.top_false = top_false
        self.bottom_true = bottom_true


#: where the root search starts: -2^23 .. -1 and 1 .. 2^23
_POWERS = np.ldexp(1.0, np.arange(24))
_BRACKET_ENDS = np.concatenate((-_POWERS[::-1], _POWERS))

#: in ``_aimed_grid``, the inner points of the uniform sub-grid as fractions
#: of the cell, and the exponents that space the offsets around the
#: interpolated root geometrically, 16 on each side
_SIXTEENTHS = np.arange(1, 16) / 16
_AIM_STEPS = np.linspace(0.0, 1.0, 16)


@_quiet_overflow
def tail_bound(spec, n):
    """Finite-size tail 2 sum_{k>n} gamma_k 2^{-k}.

    gamma_k = h_k for first-order specs and 2 h_{k+1,k} for second order.
    The terms are summed to ``_TAIL_TOL`` (see ``_series``) over the ages
    the weights define, at most ``_TAIL_CAP`` of them; past about 1100 ages
    2^-k is 0, so the cap only bounds the work. Weights past float range
    give a tail that is not finite.
    """
    check_family(spec, _FIRST + _SECOND, "tail_bound")
    h = spec.h
    if spec.variant == "second":
        gamma, last = (lambda k: 2.0 * h(k + 1, k)), h.max_age - 1
    else:
        gamma, last = h, h.max_age
    return _series(
        lambda ks: 2.0 * gamma(ks) * _exp2(-ks),
        n + 1, min(last, _TAIL_CAP), _TAIL_TOL, math.inf,
    )[0]


def _aimed_grid(a, b, ga, gb):
    """Next grid in the cell [a, b] where g = zeta_n - tail - delta turns
    positive (ga <= 0 < gb): its ends, 15 uniform points between them, and
    the root x of the line through (a, ga) and (b, gb), offset both ways by
    16 amounts shrinking geometrically from the uniform spacing to one ulp
    of x."""
    t = ga / (ga - gb)
    x = a + t * (b - a) if 0.0 <= t <= 1.0 else 0.5 * (a + b)
    ulp = math.ulp(x)
    w = max((b - a) / 16, ulp)
    off = w * (ulp / w) ** _AIM_STEPS
    inner = a + (b - a) * _SIXTEENTHS
    points = np.concatenate(((a, b, x), inner, x - off, x + off))
    return np.unique(np.clip(points, a, b, out=points))


def bisect_upper(spec, n, delta, tail):
    """Smallest J with zeta_n(J) - tail > delta, by multisection.

    zeta_n is nondecreasing in J, so along any J grid the condition is false
    and then true. One batched evaluation over the bracket ends (those with
    |J| inside the range bound at depth n) finds the cell where it turns
    true. Each later round evaluates one grid in the current cell and moves
    to the cell where the condition turns true on it, until the cell is two
    adjacent floats, and returns the upper one: the float bisection would
    return. Where the condition is monotone in J, that float is the only
    one where it holds and fails at the float below, so every such search
    returns it, wherever its grid points fall.

    The grid (``_aimed_grid``) holds 17 uniform points, the cell's ends
    included, so the cell shrinks at least 16-fold per round. It also holds
    points clustered around the root of the line through
    g = zeta_n - tail - delta at the two ends, the values just computed:
    offsets from the uniform spacing down to one ulp, so that once the line
    is close the next cell is narrow, and a few rounds reach two adjacent
    floats.

    Rounding can make the condition flicker within a few ulps of the root,
    and a grid dense there may see it. A grid that is not false then true
    restarts the search once from its first cell, re-gridded with 65
    uniform points per round, which returns the float, or raises the
    BracketError, of a search that only ever grids uniformly. A first grid
    that is not false then true raises BracketError at once, or names
    ``depths`` when the range bound at depth n cut the bracket ends and
    left none, or none where the condition is false.
    """
    n = dp._depth(n)
    H, const = dp._weights(spec, n)
    bound = dp._range_bound(n)
    grid = _BRACKET_ENDS[np.abs(_BRACKET_ENDS) < bound]
    first = None  # the first cell, where a restart begins
    uniform = False
    while True:
        z = dp._ln_z(H, const, n, grid) / (1 << n) - tail
        ok = z > delta
        cut = first is None and len(grid) < len(_BRACKET_ENDS)
        if cut and (len(ok) < 2 or ok[0]):
            raise SpecConfigError(
                "depths",
                "depth %d bounds |J| below %.17g; none of the %d start points of "
                "the root search there has zeta_%d(J) - tail <= %g"
                % (n, bound, len(grid), n, delta),
            )
        if len(ok) < 2 or ok[0] or not ok[-1] or (ok[:-1] > ok[1:]).any():
            if first is None or uniform:
                raise BracketError(
                    "zeta_%d(J) - tail > %g is not false then true on %d points "
                    "of J in [%g, %g]"
                    % (n, delta, len(grid), grid.min(initial=0), grid.max(initial=0)),
                    top_false=first is None and not cut and not ok[-1],
                    bottom_true=first is None and bool(ok[0]),
                )
            grid, uniform = np.unique(np.linspace(*first, 65)), True
            continue
        k = int(np.argmax(ok))
        a, b = grid[k - 1], grid[k]
        if first is None:
            first = a, b
        if uniform:
            grid = np.unique(np.linspace(a, b, 65))
        else:
            grid = _aimed_grid(a, b, z[k - 1] - delta, z[k] - delta)
        if len(grid) == 2:
            return float(grid[1])


def slope_a0(spec, n):
    """Table size for the small-eps slope estimator.

    -ln W_n(a0)/a0 approaches -omega'(0) = J* only once a0 dominates the
    additive offsets (the constant h term and the ~n ln2 of positional
    entropy), so a0 scales with them, capped by the grid and by the size
    guard (``dp._size_cap``).
    """
    a0 = max(32, math.ceil(6.0 * (spec.h_const_at(n) + n * LN2)))
    return int(min(1 << n, dp._size_cap(spec), a0))


def slope_estimate(spec, n):
    """Second J* estimator: -omega_n(eps)/eps at small eps = a0/2^n, with
    a0 from ``slope_a0``."""
    a0 = slope_a0(spec, n)
    table = dp.dp_W(spec, n, m_max=a0)
    return -float(table.ln_w[a0]) / a0, a0


@dataclass(frozen=True)
class WettingReport:
    """The threshold report; each field is its key in the report document."""
    variant: str
    depths: tuple
    jstar_upper: tuple
    tails: tuple
    deltas: tuple
    slope_estimates: tuple
    slope_sizes: tuple
    kappa_kind: str
    kappa_value: float
    kappa_at_cutoff: bool
    lower_bound: float
    tauberian_verdict: str
    verdict: str

    def rows(self):
        """One row per depth: (n, upper, slope, tail, delta)."""
        return list(zip(self.depths, self.jstar_upper, self.slope_estimates,
                        self.tails, self.deltas))

    def to_document(self):
        """The report document: each field under its own name."""
        return dict(vars(self))


def estimate_jstar(spec, depths, delta=None, k_max=K_MAX_DEFAULT):
    """Bracket the wetting threshold from finite-depth free energies.

    For each depth the root search finds where zeta_n provably exceeds its
    finite-size error budget (tail_n plus delta); the kappa criterion
    supplies the analytic lower bound, and the Tauberian trend covers the
    no-transition direction. ``delta=None`` applies the default policy
    max(1e-6, tail_n + n ln2 / 2^n) per depth; passing a number fixes delta
    across depths, which makes the upper estimates comparable between n.
    Under the default delta a bracket failure the weights decide names
    ``h.values``: a delta no J reaches, or a tail below -delta. One where
    the condition already holds at the bottom bracket end names ``h_const``
    when the spec sets the constant, and ``h.values`` otherwise.
    """
    check_family(spec, _FIRST + _SECOND, "threshold estimation")
    try:
        depths = [_integer(n, "depths", 0, dp.MAX_DEPTH) for n in depths]
    except TypeError:  # not a sequence
        depths = []
    if not depths:
        raise SpecConfigError("depths", "takes a list of one or more depths")
    delta = None if delta is None else _real(delta, "delta", positive=True)
    k_max = _integer(k_max, "k_max", 1, _K_MAX_CAP)
    uppers, tails, deltas, slopes, sizes = [], [], [], [], []
    for n in depths:
        tail = tail_bound(spec, n)
        if not math.isfinite(tail):
            raise SpecConfigError(
                "h.values", "the tail past depth %d is %r: the weights leave "
                "float range" % (n, tail)
            )
        d = max(1e-6, tail + n * LN2 / (1 << n)) if delta is None else delta
        try:
            uppers.append(bisect_upper(spec, n, d, tail))
        except BracketError as exc:
            # the weights set the default delta, or their tail alone makes the
            # condition hold at every J, as zeta_n >= 0, or it holds already
            # at the bottom end, where the constant dominates ln Z_n
            if delta is None and exc.top_false:
                raise BracketError("the tail past depth %d, %g, sets a delta no J up "
                                   "to 2^23 reaches" % (n, tail), key="h.values") from None
            if delta is None and tail < -d:
                raise BracketError("the tail past depth %d, %g, lies below -delta, so "
                                   "zeta_%d(J) - tail > %g at every J" % (n, tail, n, d),
                                   key="h.values") from None
            if delta is None and exc.bottom_true:
                key = "h.values" if spec.h_const is None else "h_const"
                raise BracketError("zeta_%d(J) - tail > %g holds already at the bottom "
                                   "end of the root search" % (n, d), key=key) from None
            raise
        tails.append(tail)
        deltas.append(d)
        sl, a0 = slope_estimate(spec, n)
        slopes.append(sl)
        sizes.append(a0)

    if spec.variant == "second":
        k2 = kappa2(spec, k_max=k_max)
        kind, value, at_cut, lower = "kappa2", k2.value, k2.at_cutoff, k2.lower_bound
        t_verdict = "not-run"
    else:
        k1 = kappa1(spec)
        kind, value, at_cut, lower = "kappa1", k1.value, False, k1.lower_bound
        t_verdict = tauberian_first(spec, k_max).verdict

    if math.isfinite(value) and all(math.isfinite(u) for u in uppers):
        verdict = "transition-supported"
    elif t_verdict == "no-transition-supported":
        verdict = "no-transition-supported"
    else:
        verdict = "inconclusive"
    return WettingReport(spec.variant, tuple(depths), tuple(uppers), tuple(tails),
                         tuple(deltas), tuple(slopes), tuple(sizes), kind, value, at_cut,
                         lower, t_verdict, verdict)
