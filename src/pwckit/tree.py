"""Rooted binary tree of depth n, with ages counted upward from the leaves.

Leaves sit at age 0 and are labeled 0 .. 2^n - 1 left to right; the root
sits at age n. A vertex at age ``a`` covers the leaf interval
``[index * 2^a, (index+1) * 2^a)``, so meets (closest common ancestors)
reduce to arithmetic on leaf labels: the age of the meet of two leaves is
the bit length of the XOR of their labels.

Branching points of a leaf set A are the pairwise meets {u ^ v : u, v in A}.
Each leaf of A is its own meet, so A is contained in its branching points,
and a set of size m has exactly 2m - 1 of them (m leaves plus m - 1 internal
joints, the meets of consecutive leaves in sorted order).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


def leaf_meet_age(x, y):
    """Age of the closest common ancestor of leaves x and y."""
    return (x ^ y).bit_length()


@dataclass(frozen=True, slots=True)
class LeafSet:
    """An immutable set of leaves of the depth-``depth`` tree.

    Stored as a sorted tuple of leaf labels. Serialized externally as the
    sorted list of integers.
    """

    depth: int
    leaves: tuple

    def __post_init__(self):
        labels = tuple(sorted(set(int(x) for x in self.leaves)))
        if labels and not (0 <= labels[0] and labels[-1] < (1 << self.depth)):
            raise ValueError(
                "leaf labels must lie in [0, 2^depth); got %r at depth %d"
                % (labels, self.depth)
            )
        object.__setattr__(self, "leaves", labels)

    @classmethod
    def of(cls, depth, leaves):
        return cls(depth, tuple(leaves))

    @classmethod
    def from_mask(cls, depth, mask):
        labels = []
        x = int(mask)
        while x:
            low = x & -x
            labels.append(low.bit_length() - 1)
            x ^= low
        return cls(depth, tuple(labels))

    @property
    def mask(self):
        m = 0
        for x in self.leaves:
            m |= 1 << x
        return m

    def __len__(self):
        return len(self.leaves)

    def __iter__(self):
        return iter(self.leaves)

    def __contains__(self, x):
        return x in set(self.leaves)


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
