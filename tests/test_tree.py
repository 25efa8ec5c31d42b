import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwckit.tree import LeafSet

from paper import (
    Clustered,
    is_more_clustered,
    joint_ages,
    leaf_meet_age,
    pattern1_of,
)


@dataclass(frozen=True)
class TreeAutomorphism:
    """A symmetry of the binary tree: an independent left/right swap at
    each internal vertex, encoded as the set of (age, index) pairs that swap.

    Every quantity defined through meets and levels must be invariant under
    these relabelings.
    """

    depth: int
    swaps: frozenset

    @classmethod
    def identity(cls, depth):
        return cls(depth, frozenset())

    @classmethod
    def random(cls, depth, rng):
        swaps = set()
        for age in range(1, depth + 1):
            for index in range(1 << (depth - age)):
                if rng.random() < 0.5:
                    swaps.add((age, index))
        return cls(depth, frozenset(swaps))

    def apply_leaf(self, leaf):
        out = 0
        for age in range(self.depth, 0, -1):
            bit = (leaf >> (age - 1)) & 1
            if (age, leaf >> age) in self.swaps:
                bit ^= 1
            out = (out << 1) | bit
        # Swap decisions are keyed by the *original* labels of internal
        # vertices, so the walk above reads original bits and emits new ones.
        return out

    def apply(self, ls):
        return LeafSet(ls.depth, tuple(self.apply_leaf(x) for x in ls.leaves))


def beta(ls):
    """beta_k = number of branching points of age <= k, for k = 0 .. depth."""
    return tuple(itertools.accumulate(pattern1_of(ls).b))


def test_leaf_meet_age_small_cases():
    assert leaf_meet_age(0, 0) == 0
    assert leaf_meet_age(0, 1) == 1
    assert leaf_meet_age(2, 3) == 1
    assert leaf_meet_age(0, 2) == 2
    assert leaf_meet_age(0, 3) == 2
    assert leaf_meet_age(3, 4) == 3
    assert leaf_meet_age(0, 7) == 3


def test_leafset_normalizes_and_validates():
    ls = LeafSet(3, (5, 1, 5, 0))
    assert ls.leaves == (0, 1, 5)
    assert len(ls) == 3
    assert 5 in ls and 2 not in ls
    assert ls.mask == 0b100011
    assert LeafSet.from_mask(3, 0b100011) == ls
    with pytest.raises(ValueError):
        LeafSet(2, (4,))


def _normalized(depth, leaves):
    """The constructor's rule written out: int labels, distinct, sorted and
    in [0, 2^depth), whatever the order, type or container of the input."""
    labels = tuple(sorted(set(int(x) for x in leaves)))
    if labels and not (0 <= labels[0] and labels[-1] < (1 << depth)):
        raise ValueError(labels)
    return labels


@pytest.mark.parametrize(
    "depth,leaves,want",
    [
        (3, (6, 2), (2, 6)),
        (3, (1, 1, 2), (1, 2)),
        (3, (np.int64(5), np.int64(2)), (2, 5)),
        (3, (np.int64(2), np.int64(5)), (2, 5)),
        (3, (False, True), (0, 1)),
        (3, (True, 3), (1, 3)),
        (3, [6, 4, 6], (4, 6)),
        (3, [4, 6], (4, 6)),
        (3, np.array([7, 0]), (0, 7)),
        (3, (), ()),
        (0, (0,), (0,)),
        (3, (0, 8), ValueError),
        (3, (8, 0), ValueError),
        (3, (-1, 2), ValueError),
        (3, [8], ValueError),
        (3, (np.int64(8),), ValueError),
        (0, (1,), ValueError),
    ],
    ids=["unsorted", "duplicate", "int64-unsorted", "int64-sorted", "bool",
         "bool-and-int", "list-duplicate", "list-sorted", "array", "empty",
         "depth-zero", "past-end-sorted", "past-end-unsorted", "negative",
         "list-past-end", "int64-past-end", "depth-zero-past-end"],
)
def test_leafset_rows(depth, leaves, want):
    # Tuples of increasing ints are only checked; every other input is
    # converted, sorted and de-duplicated. Both give int labels.
    if want is ValueError:
        with pytest.raises(ValueError, match="leaf labels must lie in"):
            LeafSet(depth, leaves)
        return
    ls = LeafSet(depth, leaves)
    assert ls.leaves == want == _normalized(depth, leaves)
    assert type(ls.leaves) is tuple
    assert all(type(x) is int for x in ls.leaves)


@given(st.lists(st.integers(min_value=-2, max_value=9), max_size=10),
       st.sampled_from([tuple, list, sorted, np.array]))
def test_leafset_matches_normalized(labels, container):
    leaves = container(labels)
    try:
        want = _normalized(3, leaves)
    except ValueError:
        with pytest.raises(ValueError):
            LeafSet(3, leaves)
        return
    assert LeafSet(3, leaves).leaves == want


def test_joint_ages_examples():
    assert joint_ages(LeafSet(2, (0, 1))) == [1]
    assert joint_ages(LeafSet(2, (0, 3))) == [2]
    assert joint_ages(LeafSet(2, (0, 1, 2))) == [1, 2]
    assert joint_ages(LeafSet(3, (0, 1, 2, 3))) == [1, 2, 1]


def test_is_more_clustered_sibling_vs_split():
    ls = LeafSet(2, (0, 1))  # meet at age 1
    far = LeafSet(2, (0, 3))  # meet at age 2
    assert is_more_clustered(ls, far) is Clustered.YES
    assert is_more_clustered(far, ls) is Clustered.NO


def test_is_more_clustered_reflexive_and_size_rules():
    a = LeafSet(3, (0, 2, 5))
    assert is_more_clustered(a, a) is Clustered.YES
    assert is_more_clustered(a, LeafSet(3, (0, 1))) is Clustered.NO
    big = LeafSet(3, tuple(range(7)))
    assert is_more_clustered(big, big, size_limit=6) is Clustered.TOO_LARGE


def test_is_more_clustered_needs_real_bijection():
    # Same beta profile can still fail the pairwise condition; dominance is
    # necessary, not sufficient, so YES must imply dominance but not back.
    a = LeafSet(3, (0, 1, 4, 6))
    b = LeafSet(3, (0, 2, 4, 5))
    if is_more_clustered(a, b) is Clustered.YES:
        assert all(x >= y for x, y in zip(beta(a), beta(b)))


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_meet_age_symmetry(x, y):
    assert leaf_meet_age(x, y) == leaf_meet_age(y, x)


@given(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
)
def test_meet_age_ultrametric(x, y, z):
    assert leaf_meet_age(x, z) <= max(leaf_meet_age(x, y), leaf_meet_age(y, z))


leaf_sets = st.builds(
    lambda leaves: LeafSet(3, tuple(leaves)),
    st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
)


@given(leaf_sets, st.integers(min_value=0, max_value=2**31 - 1))
def test_automorphism_preserves_meets(ls, seed):
    rng = np.random.default_rng(seed)
    auto = TreeAutomorphism.random(3, rng)
    mapped = auto.apply(ls)
    assert len(mapped) == len(ls)
    assert sorted(joint_ages(mapped)) == sorted(joint_ages(ls))
    assert beta(mapped) == beta(ls)


@given(leaf_sets)
def test_identity_automorphism(ls):
    assert TreeAutomorphism.identity(3).apply(ls) == ls
