"""Branching profiles of leaf sets and their exact subset counts.

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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

from .tree import LeafSet, joint_ages


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
