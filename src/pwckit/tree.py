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

from dataclasses import dataclass


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
