"""The paper's proof devices, for the tests that reproduce its theorems.

No command computes these objects; the tests use them to check what the
commands compute against the paper's combinatorics:

* meet ages and the clustering order on leaf sets;
* branching profiles and their exact subset counts (the ``patterns``
  calculus), and Phi assembled from them by ``phi``;
* the exhaustive monotonicity check on clustering functions;
* the flow-energy dual of the capacity;
* the Legendre transform of a canonical table, the additive-decomposition
  Tauberian test and the certificate profiles of the necessary-condition
  proofs;
* Monte Carlo density estimates and the exact law over subsets.

``phi`` and the profiles walk consecutive meets and never read the
enumeration oracle, so the oracle's profile merge can be checked against
them.

First-order profile: ``b_k`` counts branching points of age k. Writing
``a_k = 1 + sum_{j>k} b_j`` for the population of the induced subtree at age
k, a nonnegative integer vector is realizable by some leaf set if and only if

    b_0 = a_0 = 1 + sum_{j>=1} b_j   and   b_k <= a_k  for k = 1 .. n,

and the number of leaf sets realizing it is

    N(b) = prod_{k=1..n} C(a_k, b_k) * 2^(a_k - b_k).

Second-order profile: ``b[k][l]`` counts branching points of age l whose
closest strictly older branching point has age k; the single oldest
branching point is assigned the virtual ancestor age n + 1. Consistency
(each point of age >= 1 has exactly two direct branching descendants, each
point has one direct branching ancestor, exactly one top point) reads

    sum_{l<k} b[k][l] = 2 * b_k  (1 <= k <= n),
    sum_{k>l} b[k][l] = b_l      (0 <= l <= n),
    sum_l b[n+1][l] = 1,

with b_l the first-order counts, and the subset count refines to

    N(b) = prod_{j=1..n} multinomial(2 b_j; b[j][j-1], ..., b[j][0])
           * 2^(a_j - b_j).

The flow-energy bound: for a probability measure mu on A,
E(mu) = sum_{u,v} mu(u) mu(v) alpha_{age(meet(u,v))} with
alpha_l = sum_{j=l}^{n-1} R_j (and alpha_n = 0) satisfies
CAP(A) = 1 / min_mu E(mu), so 1 / E(mu) <= CAP(A) for every mu.

Certificate patterns reproduce the explicit profiles from the
necessary-condition proofs: t_k = t up to a cutoff generation j, then full
branching. Their normalized entropy-energy value A_n (or B_n) lower-bounds
-J* up to an unknown additive constant, so only differences of certificate
values are meaningful; the acceptance checks use exactly that.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

import numpy as np

from pwckit import capacity as cap_mod, oracle
from pwckit.analysis import (
    LN2,
    TauberianReport,
    _FIRST,
    _SECOND,
    _K_MAX_CAP,
    _TAIL_TOL,
    _exp2,
    _series,
    _trend_verdict,
)
from pwckit.clustering import HArray, _integer, check_family
from pwckit.sampler import Sampler
from pwckit.tree import LeafSet, shape_table

#: ages probed when checking monotonicity of closed-form weights
_PROBE_LIMIT = 4096

#: slack of the exhaustive monotonicity check, and violations it keeps
_MONOTONE_TOL = 1e-9
_MAX_WITNESSES = 20

#: Legendre grid values within this of the maximum count as ties
_TIE_TOL = 1e-9

#: largest mismatch tauberian_second accepts in the additive decomposition
_DECOMPOSITION_TOL = 1e-9

#: largest a0 evaluated with exact binomials; past it lgamma arguments
#: overflow or lose all precision anyway
_EXACT_A0_MAX = 1 << 40


# ---------------------------------------------------------------------------
# meets and the clustering order


def leaf_meet_age(x, y):
    """Age of the closest common ancestor of leaves x and y."""
    return (x ^ y).bit_length()


def joint_ages(ls):
    """Ages of the internal branching points of ``ls``.

    These are the meets of consecutive leaves in sorted order; in a binary
    tree those m - 1 meets are pairwise distinct vertices and exhaust the
    internal branching points.
    """
    xs = ls.leaves
    return [leaf_meet_age(xs[i], xs[i + 1]) for i in range(len(xs) - 1)]


class Clustered(enum.Enum):
    """Ternary outcome of the clustering comparison."""

    YES = "yes"
    NO = "no"
    TOO_LARGE = "too-large"


def is_more_clustered(a, b, size_limit=6):
    """Decide whether ``a`` is at least as clustered as ``b``.

    True when some bijection sigma from ``a`` to ``b`` satisfies
    age(meet(u, v)) <= age(meet(sigma u, sigma v)) for all pairs. Decided by
    exhaustive backtracking over bijections; sets larger than ``size_limit``
    return ``Clustered.TOO_LARGE`` instead of an answer.
    """
    if len(a) != len(b):
        return Clustered.NO
    m = len(a)
    if m > size_limit:
        return Clustered.TOO_LARGE
    if m <= 1:
        return Clustered.YES
    xs, ys = a.leaves, b.leaves
    ages_a = [[leaf_meet_age(u, v) for v in xs] for u in xs]
    ages_b = [[leaf_meet_age(u, v) for v in ys] for u in ys]
    assigned = [-1] * m
    used = [False] * m

    def extend(i):
        if i == m:
            return True
        for j in range(m):
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if ages_a[i][k] > ages_b[j][assigned[k]]:
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return Clustered.YES if extend(0) else Clustered.NO


# ---------------------------------------------------------------------------
# branching profiles and their exact counts


@dataclass(frozen=True, slots=True)
class Pattern1:
    """First-order branching profile: ``b[k]`` for ages k = 0 .. depth."""

    depth: int
    b: tuple

    def __post_init__(self):
        if len(self.b) != self.depth + 1:
            raise ValueError("profile must have depth + 1 entries")
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))

    @property
    def size(self):
        return self.b[0]

    def populations(self):
        """a_k = 1 + sum_{j>k} b_j, the induced-subtree population at age k."""
        a = [0] * (self.depth + 1)
        acc = 1
        for k in range(self.depth, 0, -1):
            a[k] = acc
            acc += self.b[k]
        a[0] = acc
        return tuple(a)

    def is_admissible(self):
        if any(x < 0 for x in self.b):
            return False
        a = self.populations()
        if self.b[0] != a[0]:
            return False
        return all(self.b[k] <= a[k] for k in range(1, self.depth + 1))


def pattern1_of(ls):
    """First-order profile of a nonempty leaf set."""
    if len(ls) == 0:
        raise ValueError("profiles are defined for nonempty leaf sets")
    b = [0] * (ls.depth + 1)
    b[0] = len(ls)
    for age in joint_ages(ls):
        b[age] += 1
    return Pattern1(ls.depth, tuple(b))


def entropy1(p):
    """Exact number of leaf sets realizing the first-order profile ``p``."""
    if not p.is_admissible():
        raise ValueError("profile is not admissible: %r" % (p,))
    a = p.populations()
    count = 1
    for k in range(1, p.depth + 1):
        count *= math.comb(a[k], p.b[k]) << (a[k] - p.b[k])
    return count


def log_entropy1(p):
    """ln of ``entropy1`` through lgamma, usable at large populations."""
    if not p.is_admissible():
        raise ValueError("profile is not admissible: %r" % (p,))
    a = p.populations()
    total = 0.0
    for k in range(1, p.depth + 1):
        total += _log_comb(a[k], p.b[k]) + (a[k] - p.b[k]) * math.log(2.0)
    return total


def _log_comb(a, b):
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def enumerate_patterns1(depth, size):
    """Yield every admissible first-order profile with ``b_0 == size``.

    Walks ages from the top down, tracking the running population; at age k
    the population can at most double per remaining level, which prunes the
    search.
    """
    if size <= 0:
        return
    b = [0] * (depth + 1)
    b[0] = size

    def descend(k, a):
        # a is the population at age k; levels k .. 1 remain to be chosen.
        if k == 0:
            if a == size:
                yield Pattern1(depth, tuple(b))
            return
        if not (a <= size <= a << k):
            return
        for bk in range(0, a + 1):
            b[k] = bk
            yield from descend(k - 1, a + bk)
        b[k] = 0

    yield from descend(depth, 1)


def branching_identity_residual(p):
    """Residual of the telescoped population identity; zero when admissible.

    sum_{k=1..n} (a_k - b_k) = (n + 2) - 2 a_0 + sum_{k=1..n} k b_k.
    """
    a = p.populations()
    lhs = sum(a[k] - p.b[k] for k in range(1, p.depth + 1))
    rhs = (p.depth + 2) - 2 * a[0] + sum(k * p.b[k] for k in range(1, p.depth + 1))
    return lhs - rhs


@dataclass(frozen=True, slots=True)
class Pattern2:
    """Second-order branching profile.

    ``counts`` is the sorted tuple of nonzero entries ``((k, l), c)``: c
    branching points of age l with direct branching ancestor of age k, for
    0 <= l < k <= depth + 1 (k = depth + 1 is the virtual top). Two profiles
    are equal exactly when their depths and nonzero entries are.
    """

    depth: int
    counts: tuple

    @classmethod
    def from_counts(cls, depth, counts):
        """Build from a {(ancestor_age, age): count} mapping."""
        for k, l in counts:
            if not (0 <= l < k <= depth + 1):
                raise ValueError("invalid ancestor pair (%d, %d)" % (k, l))
        return cls(depth, tuple(sorted((kl, int(c)) for kl, c in counts.items() if c)))

    def count(self, k, l):
        return self.nonzero().get((k, l), 0)

    def nonzero(self):
        return dict(self.counts)

    def level_counts(self):
        """b_l for l = 0 .. depth: branching points per age (column sums)."""
        b = [0] * (self.depth + 1)
        for (_, l), c in self.counts:
            b[l] += c
        return tuple(b)

    def first_order(self):
        return Pattern1(self.depth, self.level_counts())

    @property
    def size(self):
        return self.level_counts()[0]

    def is_consistent(self):
        n = self.depth
        rows = [0] * (n + 2)
        for (k, _), c in self.counts:
            if c < 0:
                return False
            rows[k] += c
        b = self.level_counts()
        return (
            rows[n + 1] == 1
            and all(rows[j] == 2 * b[j] for j in range(1, n + 1))
            and b[0] >= 1
        )


def pattern2_of(ls):
    """Second-order profile of a nonempty leaf set.

    The branching points form a full binary tree (leaves of the set at the
    bottom, joints above, one top point). In sorted order joint i sits
    between leaves i and i + 1, and each part has a fixed direct ancestor:
    a leaf answers to the younger of its two neighbouring joints, a joint to
    the younger of the nearest strictly older joints on either side, and
    the top joint to the virtual age n + 1. Two equal ages always have an
    older joint between them, so these ancestors are well defined.
    """
    if len(ls) == 0:
        raise ValueError("profiles are defined for nonempty leaf sets")
    n = ls.depth
    ages = joint_ages(ls)

    def older(seq):
        # Age of the nearest strictly older joint before each one, n + 1 if none.
        out, stack = [], [n + 1]
        for a in seq:
            while stack[-1] <= a:
                stack.pop()
            out.append(stack[-1])
            stack.append(a)
        return out

    sides = [n + 1] + ages + [n + 1]  # leaf i lies between sides i and i + 1
    counts = Counter((min(a, b), 0) for a, b in zip(sides, sides[1:]))
    counts.update(zip(map(min, older(ages), older(ages[::-1])[::-1]), ages))
    return Pattern2.from_counts(n, counts)


def entropy2(p):
    """Exact number of leaf sets realizing the second-order profile ``p``."""
    if not p.is_consistent():
        raise ValueError("profile is not consistent: %r" % (p,))
    first = p.first_order()
    if not first.is_admissible():
        raise ValueError("level counts are not admissible: %r" % (first,))
    a = first.populations()
    b = first.b
    rows = {k: [c for _, c in row] for k, row in groupby(p.counts, lambda e: e[0][0])}
    count = 1
    for j in range(1, p.depth + 1):
        count *= _multinomial(rows.get(j, ())) << (a[j] - b[j])
    return count


def _multinomial(parts):
    total = sum(parts)
    out = 1
    for x in parts:
        out *= math.comb(total, x)
        total -= x
    return out


# ---------------------------------------------------------------------------
# the clustering penalty and its monotonicity


def phi(spec, ls):
    """Clustering penalty of a leaf set under the given family."""
    check_family(spec, ("first", "second", "capacity"), "phi")
    if len(ls) == 0:
        return 0.0
    if spec.variant == "first":
        p = pattern1_of(ls)
        h = spec.h
        return sum(h(k) * p.b[k] for k in range(ls.depth + 1) if p.b[k]) \
            + spec.h_const_at(ls.depth)
    if spec.variant == "second":
        p = pattern2_of(ls)
        h = spec.h
        return sum(h(k, l) * c for (k, l), c in p.nonzero().items()) \
            + spec.h_const_at(ls.depth)
    return cap_mod.cap_reduce(ls, spec.profile(ls.depth))


def is_nondecreasing(h, kmax=None):
    """Whether the weights ``h`` never decrease.

    An ``HSequence`` list is checked exactly, a closed form on a dense probe
    up to ``kmax``. An ``HArray`` is nondecreasing when h[k][l] <= h[k'][l']
    whenever k <= k' and l <= l'; equivalently every step in k and every
    step in l (within the l < k region) does not decrease. It is read row by
    row on a probe grid, so the probe never holds the whole triangle.
    """
    if isinstance(h, HArray):
        if kmax is None:
            kmax = _PROBE_LIMIT if h.max_age == math.inf else h.max_age
        prev = np.empty(0)
        for k in range(1, kmax + 1):
            row = h(k, np.arange(k))
            if np.any(row[1:] < row[:-1] - 1e-12) or np.any(row[:-1] < prev - 1e-12):
                return False
            prev = row
        return True
    if h.max_age < math.inf:
        values = h.array(h.max_age)
        return bool(np.all(values[:-1] <= values[1:]))
    values = h.array(_PROBE_LIMIT if kmax is None else kmax)
    return bool(np.all(values[1:] >= values[:-1] - 1e-12))


@dataclass
class MonotoneReport:
    """Outcome of the exhaustive monotonicity check at small depth."""

    depth: int
    size_limit: int
    order_pairs: int = 0
    subadditive_pairs: int = 0
    order_violations: list = field(default_factory=list)
    subadditive_violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.order_violations and not self.subadditive_violations


def check_monotone(spec, depth, size_limit=4):
    """Exhaustively test both monotonicity conditions at the given depth.

    Order condition: for every pair of equal-size sets with A at least as
    clustered as B (decided by bijection search, never by the profile
    filter), Phi(A) <= Phi(B). Subadditivity: for every pair of disjoint
    nonempty sets, Phi(A union B) <= Phi(A) + Phi(B). Sizes are capped at
    ``size_limit`` on each side. Up to ``_MAX_WITNESSES`` violations of each
    kind are kept.
    """
    nleaves = 1 << depth
    report = MonotoneReport(depth, size_limit)
    phis = {}
    sets_by_size = {}
    for mask in range(1, 1 << nleaves):
        m = mask.bit_count()
        if m > 2 * size_limit:
            continue
        ls = LeafSet.from_mask(depth, mask)
        phis[mask] = phi(spec, ls)
        if m <= size_limit:
            sets_by_size.setdefault(m, []).append(ls)

    for m, group in sorted(sets_by_size.items()):
        for a in group:
            for b in group:
                if a is b:
                    continue
                if is_more_clustered(a, b, size_limit=size_limit) is Clustered.YES:
                    report.order_pairs += 1
                    if phis[a.mask] > phis[b.mask] + _MONOTONE_TOL:
                        if len(report.order_violations) < _MAX_WITNESSES:
                            report.order_violations.append(
                                (a.leaves, b.leaves, phis[a.mask], phis[b.mask])
                            )

    for mask_a in range(1, 1 << nleaves):
        if mask_a.bit_count() > size_limit:
            continue
        complement = ((1 << nleaves) - 1) ^ mask_a
        # enumerate nonempty submasks of the complement, each once per ordered pair
        sub = complement
        while sub:
            if sub.bit_count() <= size_limit:
                report.subadditive_pairs += 1
                total = phis[mask_a | sub]
                if total > phis[mask_a] + phis[sub] + _MONOTONE_TOL:
                    if len(report.subadditive_violations) < _MAX_WITNESSES:
                        report.subadditive_violations.append(
                            (
                                LeafSet.from_mask(depth, mask_a).leaves,
                                LeafSet.from_mask(depth, sub).leaves,
                                total,
                                phis[mask_a] + phis[sub],
                            )
                        )
            sub = (sub - 1) & complement
    return report


# ---------------------------------------------------------------------------
# the flow-energy dual of the capacity


def resistances(profile):
    """1 / C_l for each edge level l, as the reference solvers use them."""
    return tuple(1.0 / c for c in profile.values)


def alpha_profile(profile):
    """alpha_l = resistance from level l up to the root along one path,
    for l = 0 .. depth (alpha_depth = 0)."""
    res = resistances(profile)
    n = profile.depth
    alpha = [0.0] * (n + 1)
    for l in range(n - 1, -1, -1):
        alpha[l] = alpha[l + 1] + res[l]
    return tuple(alpha)


@dataclass(frozen=True)
class LeafMeasure:
    """A probability measure on a set of leaves."""

    depth: int
    weights: tuple  # ((leaf, weight), ...) sorted by leaf

    def __post_init__(self):
        items = tuple(sorted((int(x), float(w)) for x, w in self.weights))
        if not items:
            raise ValueError("measure needs nonempty support")
        if any(w < 0 for _, w in items):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(w for _, w in items)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1, got %r" % (total,))
        object.__setattr__(self, "weights", items)

    @classmethod
    def uniform_on(cls, ls):
        m = len(ls)
        if m == 0:
            raise ValueError("measure needs nonempty support")
        return cls(ls.depth, tuple((x, 1.0 / m) for x in ls.leaves))


def flow_energy(mu, profile):
    """E(mu) = sum_{u,v} mu(u) mu(v) alpha_{age(meet(u,v))}.

    1 / E(mu) lower-bounds the capacity of the support for any mu, with
    equality at the harmonic measure.
    """
    if profile.depth != mu.depth:
        raise ValueError("profile depth mismatch")
    alpha = alpha_profile(profile)
    items = mu.weights
    total = 0.0
    for i, (u, wu) in enumerate(items):
        total += wu * wu * alpha[0]
        for v, wv in items[i + 1 :]:
            total += 2.0 * wu * wv * alpha[leaf_meet_age(u, v)]
    return total


# ---------------------------------------------------------------------------
# Legendre transform and the second-order Tauberian test


def binary_entropy(eps):
    """-eps ln eps - (1-eps) ln(1-eps), elementwise, 0 at the endpoints."""
    e = np.asarray(eps, dtype=float)
    out = np.zeros_like(e)
    inner = (e > 0) & (e < 1)
    ei = e[inner]
    out[inner] = -ei * np.log(ei) - (1 - ei) * np.log(1 - ei)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LegendreResult:
    zeta: float
    eps_star: float
    unique: bool
    ties: tuple


def legendre(table, j):
    """max over the table's grid of J eps + omega_n(eps), with near-tie reporting.

    Grid points within ``_TIE_TOL`` of the maximum count as ties; the
    reported eps_star is the smallest of them and ``unique`` is False when
    there is more than one (the free energy is then non-differentiable at J
    to grid resolution, and no single density is meaningful).
    """
    eps = np.arange(table.m_max + 1) / (1 << table.depth)
    if len(eps) == 0:
        raise ValueError("empty omega grid")
    values = j * eps + table.omega_values()
    best = float(np.max(values))
    tie_idx = np.nonzero(values >= best - _TIE_TOL)[0]
    ties = tuple(float(eps[i]) for i in tie_idx)
    return LegendreResult(best, ties[0], len(ties) == 1, ties)


def tauberian_second(spec, h1, h2, k_max=100000):
    """Additive-decomposition variant: u_k = (ln2)k + ln k - h1_k - h2_{k//2}.

    The caller supplies h_{l+d, l} = h1(l) + h2(d); the decomposition is
    spot-checked against the array on a grid of indices before use.
    """
    _integer(k_max, "k_max", 1, _K_MAX_CAP)
    check_family(spec, _SECOND, "tauberian_second")
    h = spec.h
    samples = (1, 2, 3, 5, 8, 13, 21, 55, 144)
    samples = tuple(k for k in samples if k <= h.max_age)
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
    ks = 2 ** np.arange(int(k_max).bit_length())
    return TauberianReport(ks, u(ks), _trend_verdict(u, k_max))


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


@dataclass(frozen=True)
class _Certificate:
    """What both certificate orders hold: the profile parameters (t, j, n),
    the value and log2 a0, and whether exact binomials gave the value."""

    t: Fraction
    j: int
    n: int
    value: float
    exact_evaluation: bool

    @property
    def a0_log2(self):
        return self.j * math.log2(1 + float(self.t)) + (self.n - self.j)


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
        _, b = _first_chain(self.t, self.j, self.n)
        return Pattern1(self.n, tuple(b))


def _first_chain(t, j, n):
    """a_k and b_k as exact integers, index k = 0 .. n, top down from a_n = 1
    by a_{k-1} = a_k + b_k: b_k = a_k above age j, t a_k at and below it."""
    p, twoq = t.numerator, t.denominator
    b = [0] * (n + 1)
    a_k = 1
    for k in range(n, 0, -1):
        if k > j:
            b[k] = a_k
        else:
            b[k], r = divmod(a_k * p, twoq)
            if r:
                raise ValueError("count b_%d not integer at n = %d" % (k, n))
        a_k += b[k]
    b[0] = a_k
    return list(Pattern1(n, b).populations()), b


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
    check_family(spec, _FIRST, "certificate_first")
    t, n = _certificate_depth(t, j, n, j + 1)
    a, b = _first_chain(t, j, n)  # raises if integrality fails
    if not Pattern1(n, b).is_admissible():
        raise AssertionError("inadmissible certificate chain")

    h = spec.h
    tf = float(t)
    g = lambda k: h(k) - LN2 * k
    exact = a[0] <= _EXACT_A0_MAX
    if exact:
        total = 0.0
        for k in range(1, n + 1):
            total += _log_comb(a[k], b[k]) - g(k) * b[k]
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
    return CertificateFirst(t, j, n, value, exact)


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
        return Pattern2.from_counts(self.n, self.entries())


def _second_entries(t, j, n, b):
    """Sparse table {(k, l): count} of the profile, from the b_k chain. A
    spread row k <= j+1 puts t of its 2 b_k children not yet placed d = 1 ..
    k-1 generations down, 2 b_k t (1-t)^{d-1} at own age k - d, and the
    rest at own age 0; zero counts are left out."""
    p, twoq = t.numerator, t.denominator
    entries = {}
    for k in range(1, min(j + 1, n) + 1):
        rest = 2 * b[k]
        for d in range(1, k):
            c, r = divmod(rest * p, twoq)
            if r:
                raise ValueError("row %d entry d=%d not integer at n = %d" % (k, d, n))
            rest -= c
            if c:
                entries[(k, k - d)] = c
        if rest:
            entries[(k, 0)] = rest
    for k in range(j + 2, n + 1):
        entries[(k, k - 1)] = 2 * b[k]
    entries[(n + 1, n)] = 1
    return entries


def certificate_second(spec, t, j, n=None):
    """Second-order certificate with exact validation and B_n evaluation.

    The spread rows put a fraction t(1-t)^{d-1} of each row's 2 b_k
    children d generations down (remainder at own age 0); rows past the
    cutoff are fully concentrated one generation down. The row at j+1 is
    spread as well, which is exactly what the column identities require.
    """
    check_family(spec, _SECOND, "certificate_second")
    t, n = _certificate_depth(t, j, n, j + 2)
    a, b = _first_chain(t, j, n)
    entries = _second_entries(t, j, n, b)
    p = Pattern2.from_counts(n, entries)
    if not (p.is_consistent() and p.level_counts() == (a[0], *b[1:])):
        raise AssertionError("certificate table breaks its row or column identities")

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
    return CertificateSecond(t, j, n, value, exact)


# ---------------------------------------------------------------------------
# sampled and exact laws over subsets


@dataclass(frozen=True)
class DensityEstimate:
    mean: float
    stderr: float
    num_samples: int

    def interval(self, z=3.0):
        return (self.mean - z * self.stderr, self.mean + z * self.stderr)


def empirical_density(spec, n, j, num_samples, seed):
    """Monte Carlo mean of |A| / 2^n with a normal-approximation error."""
    sampler = Sampler(spec, n, j)
    sizes = np.array(
        [len(s) for s in sampler.sample_many(num_samples, seed)], dtype=float
    )
    fractions = sizes / (1 << n)
    mean = float(fractions.mean())
    stderr = float(fractions.std(ddof=1) / math.sqrt(num_samples))
    return DensityEstimate(mean, stderr, num_samples)


def ln_terms_by_mask(spec, n, j):
    """ln of every subset's Boltzmann term J |A| - Phi(A), by bitmask, from
    the oracle's Phi by bitmask."""
    shapes = shape_table(n)
    return j * shapes.sizes[shapes.index] - oracle.phi_vector(spec, n)


@dataclass(frozen=True)
class ExactDistribution:
    """The full law over subsets at small depth, for sampler validation,
    from the enumeration oracle's Boltzmann terms and exact sums."""

    depth: int
    j: float
    log_probs: np.ndarray

    @classmethod
    def compute(cls, spec, n, j):
        ln_terms = ln_terms_by_mask(spec, n, j)
        log_probs = ln_terms - oracle.enum_Z(spec, n, j).ln
        total = oracle._exact_sums(np.exp(log_probs))[0]
        if abs(total - 1.0) > 1e-12:
            raise AssertionError(
                "distribution normalizes to %.17g" % (total,)
            )
        return cls(n, j, log_probs)

    def prob(self, subset):
        if isinstance(subset, LeafSet):
            subset = subset.mask
        return math.exp(self.log_probs[subset])

    def probs(self):
        return np.exp(self.log_probs)

    def tv_distance(self, counts):
        """Total variation between the law and empirical mask counts.

        ``counts`` maps bitmask to a draw count (or is a dense array).
        """
        emp = np.zeros(1 << (1 << self.depth))
        if isinstance(counts, dict):
            for mask, c in counts.items():
                emp[mask] = c
        else:
            emp[: len(counts)] = counts
        emp /= emp.sum()
        return 0.5 * float(np.abs(emp - self.probs()).sum())
