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

Certificate patterns reproduce the explicit profiles from the
necessary-condition proofs: t_k = t up to a cutoff generation j, then full
branching. Their normalized entropy-energy value A_n (or B_n) lower-bounds
-J* up to an unknown additive constant, so only differences of certificate
values are meaningful; the acceptance checks use exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dp
from .clustering import SpecConfigError, UnsupportedVariant
from .dp import NEG_INF

LN2 = math.log(2.0)

#: kappa_1 sums to relative tolerance _KAPPA_TOL over at most _KAPPA_CAP
#: ages; it, and a Laplace sum, is called divergent past _BLOW_UP
_KAPPA_TOL = 1e-15
_KAPPA_CAP = 200000
_BLOW_UP = 1e15

#: tail_bound and the certificate tails sum to relative tolerance _TAIL_TOL,
#: tail_bound over at most _TAIL_CAP ages
_TAIL_TOL = 1e-18
_TAIL_CAP = 20000

#: a Laplace block contributing less than this ends its sum
_LAPLACE_TOL = 1e-12

#: Legendre grid values within this of the maximum count as ties
_TIE_TOL = 1e-9

#: largest mismatch tauberian_second accepts in the additive decomposition
_DECOMPOSITION_TOL = 1e-9

#: numeric-trend thresholds for divergence verdicts: the sequence value at
#: k_max must clear _DIVERGE_VALUE and gain at least _DIVERGE_GAIN over the
#: value at k_max/2 (a doubling adds ln2 ~ 0.69 even for log growth)
_DIVERGE_VALUE = 5.0
_DIVERGE_GAIN = 0.4


def binary_entropy(eps):
    """-eps ln eps - (1-eps) ln(1-eps), elementwise, 0 at the endpoints."""
    e = np.asarray(eps, dtype=float)
    out = np.zeros_like(e)
    inner = (e > 0) & (e < 1)
    ei = e[inner]
    out[inner] = -ei * np.log(ei) - (1 - ei) * np.log(1 - ei)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Legendre transform of the canonical table


@dataclass(frozen=True)
class OmegaCurve:
    """Canonical free energy on the dyadic grid eps = a0 / 2^n."""

    depth: int
    eps: np.ndarray
    omega: np.ndarray
    label: str = ""

    @classmethod
    def from_table(cls, table, label=""):
        return cls(table.depth, table.eps_grid(), table.omega_values(), label)


@dataclass(frozen=True)
class LegendreResult:
    zeta: float
    eps_star: float
    unique: bool
    ties: tuple


def legendre(curve, j):
    """max over the grid of J eps + omega(eps), with near-tie reporting.

    Grid points within ``_TIE_TOL`` of the maximum count as ties; the
    reported eps_star is the smallest of them and ``unique`` is False when
    there is more than one (the free energy is then non-differentiable at J
    to grid resolution, and no single density is meaningful).
    """
    if len(curve.eps) == 0:
        raise ValueError("empty omega grid")
    values = j * curve.eps + curve.omega
    best = float(np.max(values))
    tie_idx = np.nonzero(values >= best - _TIE_TOL)[0]
    ties = tuple(float(curve.eps[i]) for i in tie_idx)
    return LegendreResult(best, ties[0], len(ties) == 1, ties)


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

    The running sum is a cumsum, so it adds the terms as a loop would. It
    stops at the first age k from which the terms, to the end of their
    block, lie below tol * max(partial, 1) and do not grow in size, up to
    the first term past the block (``stopped``); or at the first partial
    sum past ``blow_up``. k is the last age summed. Tiny terms that still
    grow do not stop it. Blocks hold 64 ages and double up to 4096, so a sum
    that stops early stays cheap.
    """
    total, k, size = 0.0, first - 1, 64
    while first <= last:
        # one age past the block, if there is one, to see whether terms grow
        ks = np.arange(first, min(first + size, last) + 1)
        t = terms(ks)
        mag = np.abs(t)
        ks, t = ks[:size], t[:size]
        partial = np.cumsum(np.concatenate(([total], t)))[1:]
        small = mag[: len(t)] < tol * np.maximum(partial, 1.0)
        settle = len(t)
        if small[-1]:
            small[: len(mag) - 1] &= mag[1:] <= mag[:-1]
            # settled from the age after the last term that is not small
            r = int(np.argmin(small[::-1]))
            settle = 0 if small[-1 - r] else len(t) - r
        over = np.flatnonzero(partial > blow_up)
        i = min(settle, int(over[0]) if over.size else len(t))
        if i < len(t):
            return float(partial[i]), int(ks[i]), i == settle
        total, k = float(partial[-1]), int(ks[-1])
        first, size = k + 1, min(2 * size, 4096)
    return total, k, False


def _exp2(e):
    """2^e as exp(e ln2) by ``math.exp`` per entry: bit for bit what a loop
    of scalar terms computes, where ``np.exp`` can differ in the last ulp."""
    return np.fromiter(map(math.exp, e * LN2), float, len(e))


def _check_k_max(k_max):
    if k_max < 1:
        raise SpecConfigError("k_max", "must be at least 1, got %d" % (k_max,))


#: the families each criterion serves
_FIRST = ("zero", "first")
_SECOND = ("second",)


def _check_family(spec, families, what):
    """Refuse a spec whose family is not one of ``families``."""
    if spec.variant not in families:
        raise UnsupportedVariant(
            "%s serves %s specs, not %r" % (what, "/".join(families), spec.variant)
        )


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
    _check_family(spec, _FIRST, "kappa1")
    h = spec.h
    last = h.max_age if not h.has_tail else _KAPPA_CAP
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
    if total > blow_up or (h.has_tail and not converged):
        return Kappa1Report(math.inf, -math.inf, k, False)
    ln_total = math.log(total) + c if total > 0.0 else -math.inf
    bound = 2 * LN2 + h(0) - ln_total
    return Kappa1Report(total * math.exp(c), bound, k, converged)


@dataclass(frozen=True)
class Kappa2Report:
    value: float
    lower_bound: float
    k_max: int
    attained_at: int
    at_cutoff: bool
    grid: tuple


def kappa2(spec, k_max=100000):
    """kappa_2 = sup_k sum_{l<k} 2^l e^{-h_{k,l}} over k <= k_max.

    Inner sums are evaluated exactly; the sup is taken over a geometric
    grid of k (1, 2, 4, ..., k_max), which keeps the cost linear in k_max.
    ``at_cutoff`` flags a sup attained at the largest evaluated k, where
    the true sup may lie beyond the cutoff.
    """
    _check_k_max(k_max)
    _check_family(spec, _SECOND, "kappa2")
    h = spec.h
    if not h.has_tail:
        k_max = min(k_max, h.max_ancestor_age)
    grid = []
    k = 1
    while k < k_max:
        grid.append(k)
        k *= 2
    grid.append(k_max)
    best = 0.0
    attained = grid[0]
    for k in grid:
        ell = np.arange(k)
        s = float(np.exp(np.minimum(ell * LN2 - h(k, ell), 700.0)).sum())
        if s > best:
            best, attained = s, k
        if best > _BLOW_UP:
            return Kappa2Report(
                math.inf, -math.inf, k_max, k, True, tuple(grid)
            )
    bound = 2 * LN2 - 2 * math.exp(-1.0) * best
    return Kappa2Report(
        best, bound, k_max, attained, attained == grid[-1], tuple(grid)
    )


# ---------------------------------------------------------------------------
# Laplace and Tauberian diagnostics


@dataclass(frozen=True)
class DiagnosticCurve:
    kind: str
    s: np.ndarray
    diag: np.ndarray
    divergent: tuple


def _s_grid(s_values):
    """The s grid as an array; empty grids and points outside (0, 1] name 's-grid'."""
    s_arr = np.asarray(list(s_values), dtype=float)
    if not s_arr.size or not np.all((s_arr > 0) & (s_arr <= 1)):
        raise SpecConfigError(
            "s-grid", "need one or more points in (0, 1], got %r" % (s_arr.tolist(),)
        )
    return s_arr


def _damped_sum(g, s, first, last, scale=1.0):
    """sum_{k = first .. last} e^{-sk} g+(k) over ``_blocks``: ``(sum, divergent)``.

    The sum ends at a block where scale times both its contribution and its
    last damping e^{-sk} lie below ``_LAPLACE_TOL`` (a run of ages with
    g+ = 0 does not end it), and is divergent once scale times it passes
    ``_BLOW_UP``.
    """
    total = 0.0
    for ks in _blocks(first, last):
        damp = np.exp(-s * ks)
        contrib = float((damp * np.maximum(g(ks), 0.0)).sum())
        total += contrib
        if scale * total > _BLOW_UP:
            return total, True
        if scale * max(contrib, damp[-1]) < _LAPLACE_TOL:
            break
    return total, False


def laplace_first(spec, s_values):
    """ln(1/s) - s ghat+(s) on the grid, ghat+(s) = sum e^{-sk} g+_k.

    The series is a ``_damped_sum``; a divergent point reports -inf (the
    diagnostic is then conclusively negative).
    """
    _check_family(spec, _FIRST, "laplace_first")
    h = spec.h
    k_limit = math.inf if h.has_tail else h.max_age
    s_arr = _s_grid(s_values)
    diag = np.empty_like(s_arr)
    divergent = []
    for i, s in enumerate(s_arr):
        total, bad = _damped_sum(lambda ks: h(ks) - LN2 * ks, s, 1, k_limit)
        divergent.append(bad)
        diag[i] = NEG_INF if bad else math.log(1.0 / s) - s * total
    return DiagnosticCurve("laplace-first", s_arr, diag, tuple(divergent))


def laplace_second(spec, s_values, allow_large=False):
    """ln(1/s) - 2 s^2 ghat+(s, 2s) with the double Laplace transform
    ghat+(s, u) = sum_{l>=0, d>=1} e^{-s l - u d} g+_{l,d}.

    Each row d is a ``_damped_sum`` over l scaled by e^{-2sd}, and the rows
    do not end before e^{-2sd} has fallen below ``_LAPLACE_TOL``. Cost grows
    like (1/s)^2; grids reaching below 2^-8 are refused without
    ``allow_large``.
    """
    _check_family(spec, _SECOND, "laplace_second")
    h = spec.h
    k_limit = math.inf if h.has_tail else h.max_ancestor_age
    s_arr = _s_grid(s_values)
    if np.any(s_arr < 1.0 / 256) and not allow_large:
        raise SpecConfigError(
            "s-grid",
            "the second-order Laplace diagnostic below s = 2^-8 costs O(1/s^2); "
            "pass --allow-large (allow_large=True) to proceed",
        )
    diag = np.empty_like(s_arr)
    divergent = []
    for i, s in enumerate(s_arr):
        total = 0.0
        bad = False
        small_rows = 0
        d = 1
        while d <= k_limit:
            damp = math.exp(-2.0 * s * d)
            row, bad = _damped_sum(
                lambda ls: h(ls + d, ls) - LN2 * ls, s, 0, k_limit - d, damp
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
    k: np.ndarray
    u: np.ndarray
    verdict: str


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


def _first_u(spec, k_max):
    """u_k = (ln2) k + ln k - h_k as a callable, and k_max cut to a finite
    list's last age."""
    _check_k_max(k_max)
    _check_family(spec, _FIRST, "tauberian_first")
    h = spec.h
    if not h.has_tail:
        k_max = min(k_max, h.max_age)
    return lambda ks: LN2 * ks + np.log(ks) - h(ks), k_max


def tauberian_first(spec, k_max=100000):
    """u_k = (ln2) k + ln k - h_k with a monotone-trend verdict.

    u_k -> +inf is the certified no-transition regime; u_k -> -inf means
    this test says nothing (h may still be too small elsewhere), reported
    as inconclusive-for-this-test. The verdict compares u at k_max and at
    k_max // 2 + 1; a list with no age past 0 is inconclusive.
    """
    u, k_max = _first_u(spec, k_max)
    ks = np.arange(1, k_max + 1)
    return TauberianReport(ks, u(ks), _trend_verdict(u, k_max))


def tauberian_second(spec, h1, h2, k_max=100000):
    """Additive-decomposition variant: u_k = (ln2)k + ln k - h1_k - h2_{k//2}.

    The caller supplies h_{l+d, l} = h1(l) + h2(d); the decomposition is
    spot-checked against the array on a grid of indices before use.
    """
    _check_k_max(k_max)
    _check_family(spec, _SECOND, "tauberian_second")
    h = spec.h
    samples = (1, 2, 3, 5, 8, 13, 21, 55, 144)
    if not h.has_tail:
        samples = tuple(k for k in samples if k <= h.max_ancestor_age)
    for k in samples:
        l = np.arange(0, k, max(1, k // 4))
        got, want = h(k, l), h1(l) + h2(k - l)
        bad = np.flatnonzero(np.abs(got - want) > _DECOMPOSITION_TOL)
        if bad.size:
            i = bad[0]
            raise ValueError(
                "additive decomposition mismatch at (k=%d, l=%d): "
                "array %.17g vs h1+h2 %.17g" % (k, l[i], got[i], want[i])
            )
    u = lambda ks: LN2 * ks + np.log(ks) - (h1(ks) + h2(ks // 2))
    ks = np.arange(1, k_max + 1)
    return TauberianReport(ks, u(ks), _trend_verdict(u, k_max))


# ---------------------------------------------------------------------------
# threshold estimation


class BracketError(SpecConfigError):
    """zeta_n(J) - tail > delta is not false then true along a J grid."""

    def __init__(self, message):
        super().__init__("delta", message)


#: where the root search starts: -2^23 .. -1 and 1 .. 2^23
_POWERS = np.ldexp(1.0, np.arange(24))
_BRACKET_ENDS = np.concatenate((-_POWERS[::-1], _POWERS))

#: in ``_aimed_grid``, the inner points of the uniform sub-grid as fractions
#: of the cell, and the exponents that space the offsets around the
#: interpolated root geometrically, 16 on each side
_SIXTEENTHS = np.arange(1, 16) / 16
_AIM_STEPS = np.linspace(0.0, 1.0, 16)


def tail_bound(spec, n):
    """Finite-size tail 2 sum_{k>n} gamma_k 2^{-k}.

    gamma_k = h_k for first-order specs and 2 h_{k+1,k} for second order;
    the zero spec has no tail. Finite-list specs contribute only the ages
    they define; closed forms are summed to ``_TAIL_TOL`` (see ``_series``)
    over at most ``_TAIL_CAP`` ages.
    """
    _check_family(spec, _FIRST + _SECOND, "tail_bound")
    h = spec.h
    if spec.variant == "second":
        gamma = lambda k: 2.0 * h(k + 1, k)
        last = _TAIL_CAP if h.has_tail else h.max_ancestor_age - 1
    else:
        gamma = h
        last = _TAIL_CAP if h.has_tail else h.max_age
    return _series(
        lambda ks: 2.0 * gamma(ks) * _exp2(-ks),
        n + 1, last, _TAIL_TOL, math.inf,
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
    return np.unique(np.clip(points, a, b))


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
    that is not false then true raises BracketError at once.
    """
    H, const = dp._weights(spec, n)
    grid = _BRACKET_ENDS[np.abs(_BRACKET_ENDS) < dp._range_bound(n)]
    first = None  # the first cell, where a restart begins
    uniform = False
    while True:
        z = dp._ln_z(H, const, n, grid) / (1 << n) - tail
        ok = z > delta
        if len(ok) < 2 or ok[0] or not ok[-1] or (ok[:-1] > ok[1:]).any():
            if first is None or uniform:
                raise BracketError(
                    "zeta_%d(J) - tail > %g is not false then true on %d points "
                    "of J in [%g, %g]"
                    % (n, delta, len(grid), grid.min(initial=0), grid.max(initial=0))
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
    entropy), so a0 scales with them, capped by the grid.
    """
    return int(min(1 << n, max(32, math.ceil(6.0 * (spec.h_const_at(n) + n * LN2)))))


def slope_estimate(spec, n):
    """Second J* estimator: -omega_n(eps)/eps at small eps = a0/2^n, with
    a0 from ``slope_a0``."""
    a0 = slope_a0(spec, n)
    table = dp.dp_W(spec, n, m_max=a0)
    return -float(table.ln_w[a0]) / a0, a0


@dataclass(frozen=True)
class WettingReport:
    label: str
    variant: str
    depths: tuple
    upper: tuple
    tails: tuple
    deltas: tuple
    slopes: tuple
    slope_sizes: tuple
    kappa_kind: str
    kappa_value: float
    kappa_at_cutoff: bool
    lower_bound: float
    tauberian_verdict: str
    verdict: str

    def rows(self):
        """One row per depth: (n, upper, slope, tail, delta)."""
        return list(
            zip(self.depths, self.upper, self.slopes, self.tails, self.deltas)
        )

    def to_document(self):
        return {
            "label": self.label,
            "variant": self.variant,
            "depths": list(self.depths),
            "jstar_upper": list(self.upper),
            "slope_estimates": list(self.slopes),
            "slope_sizes": list(self.slope_sizes),
            "tails": list(self.tails),
            "deltas": list(self.deltas),
            "kappa_kind": self.kappa_kind,
            "kappa_value": self.kappa_value,
            "kappa_at_cutoff": self.kappa_at_cutoff,
            "lower_bound": self.lower_bound,
            "tauberian_verdict": self.tauberian_verdict,
            "verdict": self.verdict,
        }


def estimate_jstar(spec, depths, delta=None, k_max=100000, label=""):
    """Bracket the wetting threshold from finite-depth free energies.

    For each depth the root search finds where zeta_n provably exceeds its
    finite-size error budget (tail_n plus delta); the kappa criterion
    supplies the analytic lower bound, and the Tauberian trend covers the
    no-transition direction. ``delta=None`` applies the default policy
    max(1e-6, tail_n + n ln2 / 2^n) per depth; passing a number fixes delta
    across depths, which makes the upper estimates comparable between n.
    """
    _check_family(spec, _FIRST + _SECOND, "threshold estimation")
    if not depths or min(depths) < 0:
        raise SpecConfigError(
            "depths", "need one or more nonnegative depths, got %r" % (list(depths),)
        )
    if delta is not None and not 0.0 < delta < math.inf:
        raise SpecConfigError("delta", "must be finite and positive, got %r" % (delta,))
    uppers, tails, deltas, slopes, sizes = [], [], [], [], []
    for n in depths:
        tail = tail_bound(spec, n)
        d = max(1e-6, tail + n * LN2 / (1 << n)) if delta is None else delta
        uppers.append(bisect_upper(spec, n, d, tail))
        tails.append(tail)
        deltas.append(d)
        sl, a0 = slope_estimate(spec, n)
        slopes.append(sl)
        sizes.append(a0)

    if spec.variant == "second":
        k2 = kappa2(spec, k_max=k_max)
        kind, k_value, at_cut, lower = (
            "kappa2", k2.value, k2.at_cutoff, k2.lower_bound,
        )
        t_verdict = "not-run"
    else:
        k1 = kappa1(spec)
        kind, k_value, at_cut, lower = (
            "kappa1", k1.value, False, k1.lower_bound,
        )
        t_verdict = _trend_verdict(*_first_u(spec, min(k_max, 100000)))

    if math.isfinite(k_value) and all(math.isfinite(u) for u in uppers):
        verdict = "transition-supported"
    elif t_verdict == "no-transition-supported":
        verdict = "no-transition-supported"
    else:
        verdict = "inconclusive"
    return WettingReport(
        label=label,
        variant=spec.variant,
        depths=tuple(depths),
        upper=tuple(uppers),
        tails=tuple(tails),
        deltas=tuple(deltas),
        slopes=tuple(slopes),
        slope_sizes=tuple(sizes),
        kappa_kind=kind,
        kappa_value=k_value,
        kappa_at_cutoff=at_cut,
        lower_bound=lower,
        tauberian_verdict=t_verdict,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# certificate patterns

#: largest a0 evaluated with exact binomials; past it lgamma arguments
#: overflow or lose all precision anyway
_EXACT_A0_MAX = 1 << 40


def _as_dyadic(t):
    frac = Fraction(t)
    if not 0 < frac <= 1:
        raise ValueError("t must lie in (0, 1]")
    den = frac.denominator
    if den & (den - 1):
        raise ValueError("t must be dyadic, got %s" % (frac,))
    return frac


@dataclass(frozen=True)
class _Certificate:
    """What both certificate orders hold: the profile parameters (t, j, n),
    the value and log2 a0, and whether exact binomials gave the value."""

    t: Fraction
    j: int
    n: int
    value: float
    a0_log2: float
    exact_evaluation: bool

    @classmethod
    def _of(cls, t, j, n, value, exact):
        a0_log2 = j * math.log2(1 + float(t)) + (n - j)
        return cls(t, j, n, value, a0_log2, exact)


@dataclass(frozen=True)
class CertificateFirst(_Certificate):
    """The explicit first-order profile t_k = t (k <= j), then 1.

    ``value`` is A_n(b) = a0^{-1} sum_k (ln C(a_k, b_k) - g_k b_k); it
    certifies -J* >= value - C for the unknown constant C, so only
    differences between certificates are quantitative.
    """

    def populations(self):
        """Exact integer (a_k, b_k) chains, top age down to 0."""
        return _first_chain(self.t, self.j, self.n)

    def pattern(self):
        from .patterns import Pattern1

        _, b = _first_chain(self.t, self.j, self.n)
        return Pattern1(self.n, tuple(b))


def _first_chain(t, j, n):
    """a_k and b_k as exact integers, index k = 0 .. n."""
    p, twoq = t.numerator, t.denominator
    a = [0] * (n + 1)
    b = [0] * (n + 1)
    for k in range(n, j, -1):
        a[k] = 1 << (n - k)
        b[k] = a[k]
    for k in range(j, 0, -1):
        num = (twoq + p) ** (j - k) << (n - j)
        den = twoq ** (j - k)
        if num % den:
            raise ValueError("population a_%d not integer at n = %d" % (k, n))
        a[k] = num // den
        if (a[k] * p) % twoq:
            raise ValueError("count b_%d not integer at n = %d" % (k, n))
        b[k] = a[k] * p // twoq
    a[0] = 1 + sum(b[1:])
    b[0] = a[0]
    expect = (twoq + p) ** j << (n - j) if n >= j else None
    if n >= j and a[0] * twoq ** j != expect:
        raise AssertionError("population chain inconsistent")
    return a, b


def minimal_certificate_depth(t, j):
    """Smallest n making every a_k, b_k an integer."""
    t = _as_dyadic(t)
    q = t.denominator.bit_length() - 1
    return j * (q + 1)


def _certificate_depth(t, j, n, n_default):
    """Dyadic ``t`` and the certificate depth: ``n``, or with none the larger
    of ``n_default`` and the minimal depth with integer populations."""
    t = _as_dyadic(t)
    if j < 0:
        raise ValueError("j must be nonnegative")
    n_min = minimal_certificate_depth(t, j)
    if n is None:
        n = max(n_min, n_default)
    if n < n_min:
        raise ValueError(
            "integrality unattainable at depth %d; minimal depth is %d"
            % (n, n_min)
        )
    return t, n


def certificate_first(spec, t, j, n=None):
    """Build and exactly validate the profile, then evaluate A_n.

    With no ``n`` the minimal depth with integer populations is used. Small
    instances are evaluated with exact binomials; once a0 exceeds 2^40 the
    per-level Stirling form (a_k phi(t) for ln C) takes over, whose dropped
    corrections are O(n ln a0 / a0) and far below double precision there.
    """
    _check_family(spec, _FIRST, "certificate_first")
    t, n = _certificate_depth(t, j, n, j + 1)
    a, b = _first_chain(t, j, n)  # raises if integrality fails
    for k in range(1, n + 1):
        if not 0 <= b[k] <= a[k]:
            raise AssertionError("inadmissible certificate chain")

    h = spec.h
    tf = float(t)
    g = lambda k: h(k) - LN2 * k
    exact = a[0] <= _EXACT_A0_MAX
    if exact:
        total = 0.0
        for k in range(1, n + 1):
            lnc = (
                math.lgamma(a[k] + 1)
                - math.lgamma(b[k] + 1)
                - math.lgamma(a[k] - b[k] + 1)
            )
            total += lnc - g(k) * b[k]
        value = total / a[0]
    else:
        phi = binary_entropy(tf)
        value = 0.0
        for k in range(1, j + 1):
            value += (1 + tf) ** (-k) * (phi - tf * g(k))
        # k > j: full branching, ln C = 0, b_k/a0 = 2^{j-k} (1+t)^{-j}
        scale = (1 + tf) ** (-j)
        value -= _series(
            lambda ks: scale * g(ks) * _exp2(j - ks),
            j + 1, n, _TAIL_TOL, math.inf,
        )[0]
    return CertificateFirst._of(t, j, n, value, exact)


@dataclass(frozen=True)
class CertificateSecond(_Certificate):
    """Second-order analog: geometric spread of own ages below each row.

    ``value`` is B_n(b) = a0^{-1} sum_k [ln multinomial(2b_k; row_k)
    - sum_d g_{k-d,d} b_{k,k-d}].
    """

    def entries(self):
        """Sparse exact table {(ancestor age, own age): count}."""
        _, b = _first_chain(self.t, self.j, self.n)
        return _second_entries(self.t, self.j, self.n, b)

    def pattern(self):
        from .patterns import Pattern2

        if self.n > 64:
            raise ValueError(
                "dense pattern table at depth %d refused; use entries()"
                % (self.n,)
            )
        return Pattern2.from_counts(self.n, self.entries())


def _second_row_counts(t, n, k, bk):
    """Exact row k entries {own age: count} for a spread row (k <= j+1)."""
    p, twoq = t.numerator, t.denominator
    row = {}
    for d in range(1, k):
        num = 2 * bk * p * (twoq - p) ** (d - 1)
        den = twoq**d
        if num % den:
            raise ValueError(
                "row %d entry d=%d not integer at n = %d" % (k, d, n)
            )
        row[k - d] = num // den
    num = 2 * bk * (twoq - p) ** (k - 1)
    den = twoq ** (k - 1)
    if num % den:
        raise ValueError("row %d entry d=%d not integer at n = %d" % (k, k, n))
    row[0] = row.get(0, 0) + num // den
    return row


def _second_entries(t, j, n, b):
    """Sparse table {(k, l): count} of the profile, from the b_k chain."""
    entries = {}
    for k in range(1, min(j + 1, n) + 1):
        for l, c in _second_row_counts(t, n, k, b[k]).items():
            if c:
                entries[(k, l)] = c
    for k in range(j + 2, n + 1):
        entries[(k, k - 1)] = 2 * b[k]
    entries[(n + 1, n)] = 1
    return entries


def _second_validate(t, j, n, a, b):
    """The sparse table, after exact checks of its row and column identities."""
    entries = _second_entries(t, j, n, b)
    rows = {}
    cols = {}
    for (k, l), c in entries.items():
        if c < 0 or not 0 <= l < k <= n + 1:
            raise AssertionError("entry out of the triangular region")
        rows[k] = rows.get(k, 0) + c
        cols[l] = cols.get(l, 0) + c
    for k in range(1, n + 1):
        if rows.get(k, 0) != 2 * b[k]:
            raise AssertionError("row %d sums to %d, want 2 b_k = %d"
                                 % (k, rows.get(k, 0), 2 * b[k]))
    if rows.get(n + 1, 0) != 1:
        raise AssertionError("top row must hold a single count")
    for l in range(0, n + 1):
        want = b[l] if l >= 1 else a[0]
        if cols.get(l, 0) != want:
            raise AssertionError("column %d sums to %d, want %d"
                                 % (l, cols.get(l, 0), want))
    return entries


def certificate_second(spec, t, j, n=None):
    """Second-order certificate with exact validation and B_n evaluation.

    The spread rows put a fraction t(1-t)^{d-1} of each row's 2 b_k
    children d generations down (remainder at own age 0); rows past the
    cutoff are fully concentrated one generation down. The row at j+1 is
    spread as well, which is exactly what the column identities require.
    """
    _check_family(spec, _SECOND, "certificate_second")
    t, n = _certificate_depth(t, j, n, j + 2)
    a, b = _first_chain(t, j, n)
    entries = _second_validate(t, j, n, a, b)

    h = spec.h
    tf = float(t)
    g = lambda l, d: h(l + d, l) - LN2 * l
    exact = a[0] <= _EXACT_A0_MAX
    if exact:
        rows = {}
        for (k, l), c in entries.items():
            rows.setdefault(k, {})[l] = c
        total = 0.0
        for k in range(1, n + 1):
            row = rows.get(k, {})
            lnm = math.lgamma(2 * b[k] + 1)
            for l, c in row.items():
                lnm -= math.lgamma(c + 1)
                total -= g(l, k - l) * c
            total += lnm
        value = total / a[0]
    else:
        value = 0.0
        for k in range(1, min(j + 1, n) + 1):
            # weights q_d over d = 1..k; row share 2 b_k / a0
            share = (
                2 * tf * (1 + tf) ** (-k)
                if k <= j
                else (1 + tf) ** (-j) * math.exp((j + 1 - k) * LN2)
            )
            entropy = 0.0
            energy = 0.0
            for d in range(1, k + 1):
                qd = (
                    tf * (1 - tf) ** (d - 1)
                    if d < k
                    else (1 - tf) ** (k - 1)
                )
                if qd > 0:
                    entropy -= qd * math.log(qd)
                energy += qd * g(k - d, d)
            value += share * (entropy - energy)
        scale = (1 + tf) ** (-j)
        value -= _series(
            lambda ks: scale * _exp2(j + 1 - ks) * g(ks - 1, 1),
            j + 2, n, _TAIL_TOL, math.inf,
        )[0]
    return CertificateSecond._of(t, j, n, value, exact)
