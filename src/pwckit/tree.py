"""Leaf sets of the rooted binary tree of depth n.

Leaves sit at age 0 and are labeled 0 .. 2^n - 1 left to right; the root
sits at age n, and a vertex at age ``a`` covers the leaf interval
``[index * 2^a, (index+1) * 2^a)``. Meets and branching points, which the
tests use, are in ``tests/paper.py``.

``shape_table`` groups the subsets at depth <= 4 by shape, for the
enumeration oracle and the capacity table: every automorphism-invariant
quantity, such as Phi, is one number per shape.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, slots=True)
class LeafSet:
    """An immutable set of leaves of the depth-``depth`` tree.

    Stored as a sorted tuple of leaf labels. Serialized externally as the
    sorted list of integers. Any iterable of integer-valued labels is
    converted, sorted and de-duplicated; a tuple of ``int`` labels that is
    already strictly increasing, as the sampler's descent emits, is only
    checked, in O(n).
    """

    depth: int
    leaves: tuple

    def __post_init__(self):
        labels = self.leaves
        if not (type(labels) is tuple and {int}.issuperset(map(type, labels))
                and all(map(operator.lt, labels, labels[1:]))):
            labels = tuple(sorted(set(int(x) for x in labels)))
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


class ShapeTable(NamedTuple):
    """The shapes of the leaf subsets at depth n: their classes under the
    tree's automorphisms, which swap the two halves below any vertex.

    The classes at depth d are the unordered pairs a <= b of classes at
    depth d - 1, numbered b (b + 1) / 2 + a, so class 0 is the empty set.
    There are 2, 3, 6, 21 and 231 of them at depths 0 .. 4. Per class:

    - ``second``: the second-order branching profile, as floats, one
      column per (ancestor age k, own age l) pair; ``columns`` holds the k
      and the l of each, in the order of ``np.tril_indices(n + 2, -1)``
      (column k(k-1)/2 + l)
    - ``first``: its sum over k, the first-order profile b_0 .. b_n
    - ``sizes``: b_0, the number of leaves
    - ``children``: the pair (a, b) of classes at depth n - 1 (at depth 0,
      none: shape (2, 0))
    - ``mult``: the number of masks in the class, m_a^2 if a = b and
      2 m_a m_b otherwise; they sum to 2^(2^n)

    ``index`` maps each bitmask to its class; the mask of a depth-d subtree
    is hi 2^(2^(d-1)) + lo for its two half masks.
    """

    second: np.ndarray
    columns: tuple
    first: np.ndarray
    sizes: np.ndarray
    children: np.ndarray
    mult: np.ndarray
    index: np.ndarray


@lru_cache(maxsize=None)
def _merged(d):
    """The depth-d classes before the virtual ancestor: profile counts with
    columns for ancestor ages k <= d, the age of each class's top branching
    point (-1 when empty), children, multiplicities and the mask index.

    Where both halves are nonempty the age-d root becomes a branching point,
    the ancestor of both half tops; otherwise the nonempty half's top
    carries over. A leaf is its own top, at age 0.
    """
    if d == 0:
        return (np.zeros((2, 0)), np.array([-1, 0]), np.zeros((2, 0), dtype=np.intp),
                np.array([1, 1]), np.array([0, 1]))
    counts, top, _, mult, index = _merged(d - 1)
    b, a = np.tril_indices(len(top))
    merged = np.zeros((len(a), d * (d + 1) // 2))
    merged[:, :counts.shape[1]] = counts[a] + counts[b]
    both = np.flatnonzero((top[a] >= 0) & (top[b] >= 0))
    merged[both, d * (d - 1) // 2 + top[a[both]]] += 1
    merged[both, d * (d - 1) // 2 + top[b[both]]] += 1
    top = np.maximum(top[a], top[b])
    top[both] = d
    mult = np.where(a == b, mult[a] * mult[a], 2 * mult[a] * mult[b])
    hi, lo = np.maximum.outer(index, index), np.minimum.outer(index, index)
    index = (hi * (hi + 1) // 2 + lo).reshape(-1)
    return merged, top, np.stack((a, b), axis=1), mult, index


#: deepest shape table: its mask index has 2^(2^n) entries, 65,536 at n = 4
SHAPE_MAX_DEPTH = 4


@lru_cache(maxsize=None)
def shape_table(n):
    """The shape table at depth n, by merging class pairs level by level.

    At the end the top point of every nonempty class gets the virtual
    ancestor n + 1. This bottom-up merge is independent of the
    consecutive-meet walk of the tests' branching profiles, which they
    compare it against.
    """
    if not 0 <= n <= SHAPE_MAX_DEPTH:
        raise ValueError("shape tables exist for depths 0 .. %d, not %d"
                         % (SHAPE_MAX_DEPTH, n))
    counts, top, children, mult, index = _merged(n)
    second = np.zeros((len(top), (n + 2) * (n + 1) // 2))
    second[:, :counts.shape[1]] = counts
    nonempty = np.flatnonzero(top >= 0)
    second[nonempty, (n + 1) * n // 2 + top[nonempty]] += 1
    columns = np.tril_indices(n + 2, -1)
    first = np.zeros((len(top), n + 1))
    for col, l in enumerate(columns[1]):
        first[:, l] += second[:, col]
    table = ShapeTable(second, columns, first, first[:, 0].astype(np.int64),
                       children, mult, index)
    for rows in (second, *columns, first, *table[3:]):
        rows.flags.writeable = False  # shared by every caller through the cache
    return table
