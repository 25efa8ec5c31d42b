"""Electrical capacity between the root and a leaf set.

Every edge of the depth-n tree is indexed by the age of its lower endpoint,
so a conductance profile assigns C_l to all edges at level l = 0 .. n-1.
The capacity of a leaf set A is the energy of the harmonic potential with
f(root) = 1 and f = 0 on A,

    CAP(A) = min { sum_u C_{level(u)} (f(u) - f(parent u))^2 :
                   f(root) = 1, f = 0 on A },

equivalently the inverse of the effective resistance from the root to A.
Two independent evaluation routes are provided: series-parallel reduction
along the induced subtree (``cap_reduce``) and a direct solve of the
harmonic system on the full tree (``cap_quadratic``).

The dual form used by the flow-energy bound: for a probability measure mu
on A, E(mu) = sum_{u,v} mu(u) mu(v) alpha_{age(meet(u,v))} with
alpha_l = sum_{j=l}^{n-1} R_j (and alpha_n = 0) satisfies
CAP(A) = 1 / min_mu E(mu), so 1 / E(mu) <= CAP(A) for every mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import leaf_meet_age


@dataclass(frozen=True, slots=True)
class ConductanceProfile:
    """Positive conductances per edge level 0 .. depth-1."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v <= 0 or not math.isfinite(v) for v in vals):
            raise ValueError("conductances must be positive and finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, depth, c=1.0):
        return cls((c,) * depth)

    @property
    def depth(self):
        return len(self.values)

    def resistances(self):
        return tuple(1.0 / c for c in self.values)


def cap_reduce(ls, profile):
    """CAP(A) by series-parallel reduction of the induced subtree.

    Within the subtree spanned by A and the root, a maximal unary chain of
    edges adds resistances in series and a branching vertex combines its two
    child branches in parallel.
    """
    if profile.depth != ls.depth:
        raise ValueError("profile depth %d != leaf set depth %d" % (profile.depth, ls.depth))
    if len(ls) == 0:
        return 0.0
    res = profile.resistances()

    def subtree_resistance(leaves, d):
        # Resistance from the age-d subtree root down to the given leaves.
        if d == 0:
            return 0.0
        base = (leaves[0] >> d) << d
        half = 1 << (d - 1)
        split = 0
        while split < len(leaves) and leaves[split] - base < half:
            split += 1
        left, right = leaves[:split], leaves[split:]
        r_edge = res[d - 1]
        if not right:
            return r_edge + subtree_resistance(left, d - 1)
        if not left:
            return r_edge + subtree_resistance(right, d - 1)
        rl = r_edge + subtree_resistance(left, d - 1)
        rr = r_edge + subtree_resistance(right, d - 1)
        return rl * rr / (rl + rr)

    r = subtree_resistance(list(ls.leaves), ls.depth)
    # At depth 0 the grounded leaf is the root itself: zero resistance, and
    # infinite capacity, as in cap_table.
    return math.inf if r == 0.0 else 1.0 / r


def cap_quadratic(ls, profile):
    """CAP(A) by solving the harmonic system on the full tree.

    Independent of the reduction route: assembles the discrete Laplace
    equations for the potential at every free vertex (everything except the
    root and the grounded leaves) and evaluates the Dirichlet energy.
    """
    n = ls.depth
    if profile.depth != n:
        raise ValueError("profile depth %d != leaf set depth %d" % (profile.depth, n))
    if len(ls) == 0:
        return 0.0
    if n == 0:
        return math.inf  # the grounded leaf is the root, as in cap_reduce
    grounded = set(ls.leaves)
    c = profile.values

    # vertex ids: (age, index) for age 0..n; root is (n, 0)
    ids = {}
    for age in range(n + 1):
        for index in range(1 << (n - age)):
            ids[(age, index)] = len(ids)
    fixed = {ids[(n, 0)]: 1.0}
    for x in grounded:
        fixed[ids[(0, x)]] = 0.0
    free = [v for v in range(len(ids)) if v not in fixed]
    pos = {v: i for i, v in enumerate(free)}

    edges = []  # (child id, parent id, conductance)
    for age in range(n):
        for index in range(1 << (n - age)):
            child = ids[(age, index)]
            parent = ids[(age + 1, index >> 1)]
            edges.append((child, parent, c[age]))

    m = len(free)
    mat = np.zeros((m, m))
    rhs = np.zeros(m)
    for u, v, cond in edges:
        for a, b in ((u, v), (v, u)):
            if a in pos:
                i = pos[a]
                mat[i, i] += cond
                if b in pos:
                    mat[i, pos[b]] -= cond
                else:
                    rhs[i] += cond * fixed[b]
    f = np.zeros(len(ids))
    for v, val in fixed.items():
        f[v] = val
    if m:
        sol = np.linalg.solve(mat, rhs)
        for v, i in pos.items():
            f[v] = sol[i]
    return float(sum(cond * (f[u] - f[v]) ** 2 for u, v, cond in edges))


def cap_table(depth, profile):
    """CAP for every leaf subset of the depth-``depth`` tree, as an array
    indexed by bitmask. Level-by-level merge over subtree halves; used by the
    enumeration oracle, cost O(4^depth) floats.
    """
    if profile.depth != depth:
        raise ValueError("profile depth mismatch")
    res = profile.resistances()
    r = np.array([np.inf, 0.0])
    for d in range(1, depth + 1):
        with np.errstate(divide="ignore"):
            g = 1.0 / (res[d - 1] + r)
            gsum = np.add.outer(g, g)  # [hi, lo]
            r = (1.0 / gsum).reshape(-1)
    with np.errstate(divide="ignore"):
        cap = 1.0 / r
    cap[0] = 0.0
    return cap


def alpha_profile(profile):
    """alpha_l = resistance from level l up to the root along one path,
    for l = 0 .. depth (alpha_depth = 0)."""
    res = profile.resistances()
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
