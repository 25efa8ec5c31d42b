"""Leaf sets of the rooted binary tree of depth n.

Leaves sit at age 0 and are labeled 0 .. 2^n - 1 left to right; the root
sits at age n, and a vertex at age ``a`` covers the leaf interval
``[index * 2^a, (index+1) * 2^a)``. Meets and branching points, which the
tests use, are in ``tests/paper.py``.
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
