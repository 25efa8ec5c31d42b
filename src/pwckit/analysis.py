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
from .clustering import (
    FirstOrderClustering,
    SecondOrderClustering,
    UnsupportedVariant,
    ZeroClustering,
)
from .logdomain import NEG_INF

LN2 = math.log(2.0)

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


def legendre(curve, j, tie_tol=1e-9):
    """max over the grid of J eps + omega(eps), with near-tie reporting.

    Grid points within ``tie_tol`` of the maximum count as ties; the
    reported eps_star is the smallest of them and ``unique`` is False when
    there is more than one (the free energy is then non-differentiable at J
    to grid resolution, and no single density is meaningful).
    """
    if len(curve.eps) == 0:
        raise ValueError("empty omega grid")
    values = j * curve.eps + curve.omega
    best = float(np.max(values))
    tie_idx = np.nonzero(values >= best - tie_tol)[0]
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


def _first_h(spec_or_h):
    if isinstance(spec_or_h, (ZeroClustering, FirstOrderClustering)):
        return spec_or_h.h
    return spec_or_h


def _second_h(spec_or_h):
    if isinstance(spec_or_h, SecondOrderClustering):
        return spec_or_h.h
    return spec_or_h


def kappa1(spec_or_h, tol=1e-15, k_cap=200000):
    """kappa_1 = sum_{k>=1} 2^k e^{-h_k}, or inf when it will not converge.

    Finite-list sequences are summed over their whole range and flagged
    converged only if the final term is already below ``tol``. Closed-form
    sequences are summed until the running tail drops below ``tol`` times
    the total; if that has not happened by ``k_cap`` terms, or the partial
    sum exceeds 1e15, the series is reported divergent.
    """
    h = _first_h(spec_or_h)
    h0 = h(0)
    total = 0.0
    k_last = h.max_age if not h.has_tail else k_cap
    converged = False
    k = 0
    for ks in _blocks(1, k_last):
        terms = np.exp(np.minimum(ks * LN2 - h(ks), 700.0))
        # running totals accumulated term by term, as a loop would
        partial = np.cumsum(np.concatenate(([total], terms)))[1:]
        stop = np.flatnonzero(
            (partial > 1e15) | (terms < tol * np.maximum(partial, 1.0))
        )
        i = stop[0] if stop.size else -1
        k, total = int(ks[i]), float(partial[i])
        if total > 1e15:
            return Kappa1Report(math.inf, -math.inf, k, False)
        if stop.size:
            converged = True
            break
    if h.has_tail and not converged:
        return Kappa1Report(math.inf, -math.inf, k, False)
    if total == 0.0:
        return Kappa1Report(0.0, math.inf, k, converged)
    bound = 2 * LN2 + h0 - math.log(total)
    return Kappa1Report(total, bound, k, converged)


@dataclass(frozen=True)
class Kappa2Report:
    value: float
    lower_bound: float
    k_max: int
    attained_at: int
    at_cutoff: bool
    grid: tuple


def kappa2(spec_or_h, k_max=100000):
    """kappa_2 = sup_k sum_{l<k} 2^l e^{-h_{k,l}} over k <= k_max.

    Inner sums are evaluated exactly; the sup is taken over a geometric
    grid of k (1, 2, 4, ..., k_max), which keeps the cost linear in k_max.
    ``at_cutoff`` flags a sup attained at the largest evaluated k, where
    the true sup may lie beyond the cutoff.
    """
    h = _second_h(spec_or_h)
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
        if best > 1e15:
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


def laplace_first(spec_or_h, s_values, tol=1e-12, blow_up=1e15):
    """ln(1/s) - s ghat+(s) on the grid, ghat+(s) = sum e^{-sk} g+_k.

    The series is summed in blocks until a block contributes less than
    ``tol``; a partial sum past ``blow_up`` marks the point divergent and
    reports -inf there (the diagnostic is then conclusively negative).
    """
    h = _first_h(spec_or_h)
    k_limit = math.inf if h.has_tail else h.max_age
    s_arr = np.asarray(list(s_values), dtype=float)
    if np.any(s_arr <= 0) or np.any(s_arr > 1):
        raise ValueError("s grid must lie in (0, 1]")
    diag = np.empty_like(s_arr)
    divergent = []
    for i, s in enumerate(s_arr):
        total = 0.0
        bad = False
        for ks in _blocks(1, k_limit):
            g = h(ks) - LN2 * ks
            contrib = float((np.exp(-s * ks) * np.maximum(g, 0.0)).sum())
            total += contrib
            if total > blow_up:
                bad = True
                break
            if contrib < tol:
                break
        divergent.append(bad)
        diag[i] = NEG_INF if bad else math.log(1.0 / s) - s * total
    return DiagnosticCurve("laplace-first", s_arr, diag, tuple(divergent))


def laplace_second(spec_or_h, s_values, tol=1e-12, blow_up=1e15,
                   allow_large=False):
    """ln(1/s) - 2 s^2 ghat+(s, 2s) with the double Laplace transform
    ghat+(s, u) = sum_{l>=0, d>=1} e^{-s l - u d} g+_{l,d}.

    Cost grows like (1/s)^2; grids reaching below 2^-8 are refused without
    ``allow_large``.
    """
    h = _second_h(spec_or_h)
    k_limit = math.inf if h.has_tail else h.max_ancestor_age
    s_arr = np.asarray(list(s_values), dtype=float)
    if np.any(s_arr <= 0) or np.any(s_arr > 1):
        raise ValueError("s grid must lie in (0, 1]")
    if np.any(s_arr < 1.0 / 256) and not allow_large:
        raise ValueError(
            "second-order Laplace diagnostic below s = 2^-8 costs O(1/s^2); "
            "pass allow_large=True to proceed"
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
            row = 0.0
            for ls in _blocks(0, k_limit - d):
                g = h(ls + d, ls) - LN2 * ls
                contrib = float((np.exp(-s * ls) * np.maximum(g, 0.0)).sum())
                row += contrib
                if damp * row > blow_up:
                    bad = True
                    break
                if damp * contrib < tol:
                    break
            total += damp * row
            if bad or total > blow_up:
                bad = True
                break
            small_rows = small_rows + 1 if damp * row < tol else 0
            if small_rows >= 3 and d > 8:
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


def _trend_verdict(u):
    last = u[-1]
    mid = u[len(u) // 2]
    if last > _DIVERGE_VALUE and last - mid > _DIVERGE_GAIN:
        return "no-transition-supported"
    if last < -_DIVERGE_VALUE and mid - last > _DIVERGE_GAIN:
        return "inconclusive-for-this-test"
    return "inconclusive"


def tauberian_first(spec_or_h, k_max=100000):
    """u_k = (ln2) k + ln k - h_k with a monotone-trend verdict.

    u_k -> +inf is the certified no-transition regime; u_k -> -inf means
    this test says nothing (h may still be too small elsewhere), reported
    as inconclusive-for-this-test.
    """
    h = _first_h(spec_or_h)
    if not h.has_tail:
        k_max = min(k_max, h.max_age)
    ks = np.arange(1, k_max + 1)
    u = LN2 * ks + np.log(ks) - h(ks)
    return TauberianReport(ks, u, _trend_verdict(u))


def tauberian_second(spec_or_h, h1, h2, k_max=100000, check_tol=1e-9):
    """Additive-decomposition variant: u_k = (ln2)k + ln k - h1_k - h2_{k//2}.

    The caller supplies h_{l+d, l} = h1(l) + h2(d); the decomposition is
    spot-checked against the array on a grid of indices before use.
    """
    h = _second_h(spec_or_h)
    samples = (1, 2, 3, 5, 8, 13, 21, 55, 144)
    if not h.has_tail:
        samples = tuple(k for k in samples if k <= h.max_ancestor_age)
    for k in samples:
        l = np.arange(0, k, max(1, k // 4))
        got, want = h(k, l), h1(l) + h2(k - l)
        bad = np.flatnonzero(np.abs(got - want) > check_tol)
        if bad.size:
            i = bad[0]
            raise ValueError(
                "additive decomposition mismatch at (k=%d, l=%d): "
                "array %.17g vs h1+h2 %.17g" % (k, l[i], got[i], want[i])
            )
    ks = np.arange(1, k_max + 1)
    u = LN2 * ks + np.log(ks) - (h1(ks) + h2(ks // 2))
    return TauberianReport(ks, u, _trend_verdict(u))


# ---------------------------------------------------------------------------
# threshold estimation


class BracketError(RuntimeError):
    """Bisection bracket did not behave monotonically."""


def tail_bound(spec, n, tol=1e-18, k_cap=20000):
    """Finite-size tail 2 sum_{k>n} gamma_k 2^{-k}.

    gamma_k = h_k for first-order specs and 2 h_{k+1,k} for second order;
    the zero spec has no tail. Finite-list specs contribute only the ages
    they define.
    """
    if spec.variant in ("zero", "first"):
        gamma = lambda k: spec.h(k)
        has_tail = spec.h.has_tail
        last = k_cap if has_tail else spec.h.max_age
    elif spec.variant == "second":
        gamma = lambda k: 2.0 * spec.h(k + 1, k)
        has_tail = spec.h.has_tail
        last = k_cap if has_tail else spec.h.max_ancestor_age - 1
    else:
        raise UnsupportedVariant(
            "no tail bound for variant %r" % (spec.variant,)
        )
    total = 0.0
    for k in range(n + 1, last + 1):
        term = 2.0 * gamma(k) * math.exp(-k * LN2)
        total += term
        if abs(term) < tol * max(total, 1.0):
            break
    return total


def bisect_upper(spec, n, delta, tail, iters=80):
    """Smallest J with zeta_n(J) - tail > delta, by bisection.

    zeta_n is nondecreasing in J, so the crossing is unique; the bracket is
    verified and a violation raises BracketError rather than being patched.
    """
    H, const = dp._weights(spec, n)
    cond = lambda j: dp._ln_z(H, const, n, j)[0] / (1 << n) - tail > delta
    hi = 1.0
    while not cond(hi):
        hi *= 2
        if hi > 1e7:
            raise BracketError("condition never satisfied up to J = 1e7")
    lo = -1.0
    while cond(lo):
        lo *= 2
        if lo < -1e7:
            raise BracketError("condition holds down to J = -1e7")
    if cond(lo) or not cond(hi):
        raise BracketError("non-monotone bracket at [%g, %g]" % (lo, hi))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: later steps would change nothing
        if cond(mid):
            hi = mid
        else:
            lo = mid
    return hi


def slope_a0(spec, n):
    """Table size for the small-eps slope estimator.

    -ln W_n(a0)/a0 approaches -omega'(0) = J* only once a0 dominates the
    additive offsets (the constant h term and the ~n ln2 of positional
    entropy), so a0 scales with them, capped by the grid.
    """
    const = 0.0 if spec.variant == "zero" else spec.h_const_at(n)
    return int(min(1 << n, max(32, math.ceil(6.0 * (const + n * LN2)))))


def slope_estimate(spec, n, a0=None):
    """Second J* estimator: -omega_n(eps)/eps at small eps = a0/2^n."""
    if a0 is None:
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

    For each depth the bisection finds where zeta_n provably exceeds its
    finite-size error budget (tail_n plus delta); the kappa criterion
    supplies the analytic lower bound, and the Tauberian trend covers the
    no-transition direction. ``delta=None`` applies the default policy
    max(1e-6, tail_n + n ln2 / 2^n) per depth; passing a number fixes delta
    across depths, which makes the upper estimates comparable between n.
    """
    if spec.variant not in ("zero", "first", "second"):
        raise UnsupportedVariant(
            "threshold estimation needs a dp-engine variant, got %r"
            % (spec.variant,)
        )
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
        t_verdict = tauberian_first(spec, k_max=min(k_max, 100000)).verdict

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


def _as_dyadic(t):
    frac = Fraction(t)
    if not 0 < frac <= 1:
        raise ValueError("t must lie in (0, 1]")
    den = frac.denominator
    if den & (den - 1):
        raise ValueError("t must be dyadic, got %s" % (frac,))
    return frac


def _stirling_needed(a0):
    # past this size lgamma arguments overflow or lose all precision anyway
    return a0 > 1 << 40


@dataclass(frozen=True)
class CertificateFirst:
    """The explicit first-order profile t_k = t (k <= j), then 1.

    ``value`` is A_n(b) = a0^{-1} sum_k (ln C(a_k, b_k) - g_k b_k); it
    certifies -J* >= value - C for the unknown constant C, so only
    differences between certificates are quantitative.
    """

    t: Fraction
    j: int
    n: int
    value: float
    a0_log2: float
    exact_evaluation: bool

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
    q = twoq.bit_length() - 1
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


def certificate_first(spec_or_h, t, j, n=None):
    """Build and exactly validate the profile, then evaluate A_n.

    With no ``n`` the minimal depth with integer populations is used. Small
    instances are evaluated with exact binomials; once a0 exceeds 2^40 the
    per-level Stirling form (a_k phi(t) for ln C) takes over, whose dropped
    corrections are O(n ln a0 / a0) and far below double precision there.
    """
    h = _first_h(spec_or_h)
    t = _as_dyadic(t)
    if j < 0:
        raise ValueError("j must be nonnegative")
    n_min = minimal_certificate_depth(t, j)
    if n is None:
        n = max(n_min, j + 1, 1)
    if n < n_min:
        raise ValueError(
            "integrality unattainable at depth %d; minimal depth is %d"
            % (n, n_min)
        )
    a, b = _first_chain(t, j, n)  # raises if integrality fails
    for k in range(1, n + 1):
        if not 0 <= b[k] <= a[k]:
            raise AssertionError("inadmissible certificate chain")

    tf = float(t)
    g = lambda k: h(k) - LN2 * k
    a0_log2 = j * math.log2(1 + tf) + (n - j)
    if not _stirling_needed(a[0]):
        total = 0.0
        for k in range(1, n + 1):
            lnc = (
                math.lgamma(a[k] + 1)
                - math.lgamma(b[k] + 1)
                - math.lgamma(a[k] - b[k] + 1)
            )
            total += lnc - g(k) * b[k]
        value = total / a[0]
        exact = True
    else:
        phi = binary_entropy(tf)
        value = 0.0
        for k in range(1, j + 1):
            value += (1 + tf) ** (-k) * (phi - tf * g(k))
        # k > j: full branching, ln C = 0, b_k/a0 = 2^{j-k} (1+t)^{-j}
        scale = (1 + tf) ** (-j)
        for k in range(j + 1, n + 1):
            term = scale * g(k) * math.exp((j - k) * LN2)
            value -= term
            if abs(term) < 1e-18 * max(1.0, abs(value)):
                break
        exact = False
    return CertificateFirst(
        t=t, j=j, n=n, value=value, a0_log2=a0_log2, exact_evaluation=exact
    )


@dataclass(frozen=True)
class CertificateSecond:
    """Second-order analog: geometric spread of own ages below each row.

    ``value`` is B_n(b) = a0^{-1} sum_k [ln multinomial(2b_k; row_k)
    - sum_d g_{k-d,d} b_{k,k-d}].
    """

    t: Fraction
    j: int
    n: int
    value: float
    a0_log2: float
    exact_evaluation: bool

    def entries(self):
        """Sparse exact table {(ancestor age, own age): count}."""
        return _second_entries(self.t, self.j, self.n)

    def pattern(self):
        from .patterns import Pattern2

        if self.n > 64:
            raise ValueError(
                "dense pattern table at depth %d refused; use entries()"
                % (self.n,)
            )
        return Pattern2.from_counts(self.n, _second_entries(self.t, self.j, self.n))


def _second_row_counts(t, j, n, k, bk):
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


def _second_entries(t, j, n):
    a, b = _first_chain(t, j, n)
    entries = {}
    for k in range(1, min(j + 1, n) + 1):
        for l, c in _second_row_counts(t, j, n, k, b[k]).items():
            if c:
                entries[(k, l)] = c
    for k in range(j + 2, n + 1):
        entries[(k, k - 1)] = 2 * b[k]
    entries[(n + 1, n)] = 1
    return entries


def _second_validate(t, j, n):
    """Exact consistency of the sparse table: row and column identities."""
    a, b = _first_chain(t, j, n)
    entries = _second_entries(t, j, n)
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


def certificate_second(spec_or_h, t, j, n=None):
    """Second-order certificate with exact validation and B_n evaluation.

    The spread rows put a fraction t(1-t)^{d-1} of each row's 2 b_k
    children d generations down (remainder at own age 0); rows past the
    cutoff are fully concentrated one generation down. The row at j+1 is
    spread as well, which is exactly what the column identities require.
    """
    h = _second_h(spec_or_h)
    t = _as_dyadic(t)
    if j < 0:
        raise ValueError("j must be nonnegative")
    n_min = minimal_certificate_depth(t, j)
    if n is None:
        n = max(n_min, j + 2)
    if n < n_min:
        raise ValueError(
            "integrality unattainable at depth %d; minimal depth is %d"
            % (n, n_min)
        )
    _second_validate(t, j, n)
    a, b = _first_chain(t, j, n)

    tf = float(t)
    g = lambda l, d: h(l + d, l) - LN2 * l
    a0_log2 = j * math.log2(1 + tf) + (n - j)
    if not _stirling_needed(a[0]):
        entries = _second_entries(t, j, n)
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
        exact = True
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
        for k in range(j + 2, n + 1):
            term = scale * math.exp((j + 1 - k) * LN2) * g(k - 1, 1)
            value -= term
            if abs(term) < 1e-18 * max(1.0, abs(value)):
                break
        exact = False
    return CertificateSecond(
        t=t, j=j, n=n, value=value, a0_log2=a0_log2, exact_evaluation=exact
    )
