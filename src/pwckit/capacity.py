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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import shape_table

#: conductances of one profile may differ by a factor of at most 2^this, which
#: keeps every scaled solve below (``ConductanceProfile.scaled_resistances``)
#: inside the float range
SPREAD_MAX_LOG2 = 256


@dataclass(frozen=True, slots=True)
class ConductanceProfile:
    """Positive conductances per edge level 0 .. depth-1."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v <= 0 or not math.isfinite(v) for v in vals):
            raise ValueError("conductances must be positive and finite")
        if vals and math.log2(max(vals)) - math.log2(min(vals)) > SPREAD_MAX_LOG2:
            raise ValueError("conductances must lie within a factor 2^%d of each other"
                             % (SPREAD_MAX_LOG2,))
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, depth, c=1.0):
        return cls((c,) * depth)

    @property
    def depth(self):
        return len(self.values)

    def scaled_resistances(self):
        """The resistances times 2^k, and k, for the power of two that brings
        the largest conductance into [1/2, 1).

        CAP is homogeneous of degree one in the conductances, so a solve on
        the scaled resistances gives CAP times 2^-k. Its subtree resistances
        stay within [1/2, depth 2^(SPREAD_MAX_LOG2 + 1)], far inside the
        float range whatever the profile's scale; and where the unscaled
        solve stays among normal floats too, scaling by a power of two
        changes no rounding, so both give the same floats.
        """
        k = math.frexp(max(self.values))[1] if self.values else 0
        return tuple(1.0 / math.ldexp(c, -k) for c in self.values), k


def cap_reduce(ls, profile):
    """CAP(A) by series-parallel reduction of the induced subtree.

    Within the subtree spanned by A and the root, a maximal unary chain of
    edges adds resistances in series and a branching vertex combines its two
    child branches in parallel. The reduction runs bottom-up, one level at a
    time, so its cost is linear in depth times |A| and it needs no recursion.
    """
    if profile.depth != ls.depth:
        raise ValueError("profile depth %d != leaf set depth %d" % (profile.depth, ls.depth))
    if len(ls) == 0:
        return 0.0
    res, k = profile.scaled_resistances()
    # occupied vertices of age d, by index, with their resistance down to A
    level = dict.fromkeys(ls.leaves, 0.0)
    for d in range(1, ls.depth + 1):
        up = {}
        for v, r in level.items():
            r += res[d - 1]
            rl = up.get(v >> 1)
            # indices ascend, so a parent already present holds the left child
            up[v >> 1] = r if rl is None else rl * r / (rl + r)
        level = up
    r = level[0]
    # At depth 0 the grounded leaf is the root itself: zero resistance, and
    # infinite capacity, as in cap_table.
    if r == 0.0:
        return math.inf
    try:
        return math.ldexp(1.0 / r, k)
    except OverflowError:  # past the float range: inf, as in cap_classes
        return math.inf


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


def cap_classes(depth, profile):
    """CAP of every shape of ``tree.shape_table(depth)``, as an array by
    class: the series-parallel merge of each class's child pair, level by
    level. An empty half has infinite resistance; a depth-0 leaf, zero.
    """
    if profile.depth != depth:
        raise ValueError("profile depth mismatch")
    res, k = profile.scaled_resistances()
    r = np.array([np.inf, 0.0])
    with np.errstate(divide="ignore", over="ignore"):
        for d in range(1, depth + 1):
            a, b = shape_table(d).children.T
            g = 1.0 / (res[d - 1] + r)
            r = 1.0 / (g[a] + g[b])
        cap = np.ldexp(1.0 / r, k)
    cap[0] = 0.0
    return cap


def cap_table(depth, profile):
    """CAP for every leaf subset of the depth-``depth`` tree, as an array
    indexed by bitmask: ``cap_classes`` gathered through the shape index.
    """
    return cap_classes(depth, profile)[shape_table(depth).index]
