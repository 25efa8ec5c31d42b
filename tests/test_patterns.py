import math

import pytest
from hypothesis import given, settings, strategies as st

from pwckit.clustering import dgff_spec
from pwckit.tree import LeafSet

from paper import (
    Pattern1,
    Pattern2,
    branching_identity_residual,
    entropy1,
    entropy2,
    enumerate_patterns1,
    joint_ages,
    log_entropy1,
    pattern1_of,
    pattern2_of,
    phi,
)


def test_pattern1_sibling_pair():
    p = pattern1_of(LeafSet(2, (0, 1)))
    assert p.b == (2, 1, 0)
    assert p.populations() == (2, 1, 1)
    assert entropy1(p) == 2  # {0,1} and {2,3}


def test_pattern1_split_pair():
    p = pattern1_of(LeafSet(2, (0, 3)))
    assert p.b == (2, 0, 1)
    assert p.populations() == (2, 2, 1)
    assert entropy1(p) == 4  # one leaf from each half


def test_pattern1_singleton():
    p = pattern1_of(LeafSet(3, (5,)))
    assert p.b == (1, 0, 0, 0)
    assert entropy1(p) == 8


def test_pattern1_rejects_empty():
    with pytest.raises(ValueError):
        pattern1_of(LeafSet(2, ()))


def test_pattern1_admissibility():
    assert Pattern1(2, (2, 1, 0)).is_admissible()
    # b_1 exceeds the age-1 population.
    assert not Pattern1(2, (3, 2, 0)).is_admissible()
    # b_0 inconsistent with the branching counts.
    assert not Pattern1(2, (3, 1, 0)).is_admissible()
    with pytest.raises(ValueError):
        entropy1(Pattern1(2, (3, 1, 0)))


def test_log_entropy1_matches_exact():
    for leaves in [(0, 1), (0, 3), (0, 1, 2), (0, 1, 2, 3)]:
        p = pattern1_of(LeafSet(2, leaves))
        assert log_entropy1(p) == pytest.approx(math.log(entropy1(p)), abs=1e-12)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_entropy1_completeness(depth):
    # Summing N(b) over admissible profiles of each size recovers the
    # total number of subsets of that size, exactly as integers.
    for size in range(1, (1 << depth) + 1):
        total = sum(entropy1(p) for p in enumerate_patterns1(depth, size))
        assert total == math.comb(1 << depth, size)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_enumerate_matches_classification(depth):
    # Group all subsets by their profile; the groups must hit exactly the
    # admissible profiles, each with its predicted cardinality.
    by_profile = {}
    for mask in range(1, 1 << (1 << depth)):
        p = pattern1_of(LeafSet.from_mask(depth, mask))
        by_profile[p] = by_profile.get(p, 0) + 1
    enumerated = {
        p
        for size in range(1, (1 << depth) + 1)
        for p in enumerate_patterns1(depth, size)
    }
    assert set(by_profile) == enumerated
    for p, count in by_profile.items():
        assert count == entropy1(p)


def test_pattern2_three_leaves():
    p = pattern2_of(LeafSet(2, (0, 1, 2)))
    assert p.nonzero() == {(1, 0): 2, (2, 0): 1, (2, 1): 1, (3, 2): 1}
    assert p.level_counts() == (3, 1, 1)
    assert entropy2(p) == 4


def test_pattern2_singleton():
    for depth in (1, 2, 3, 4):
        p = pattern2_of(LeafSet(depth, (0,)))
        assert p.nonzero() == {(depth + 1, 0): 1}
        assert entropy2(p) == 1 << depth


def test_pattern2_sibling_pair():
    p = pattern2_of(LeafSet(2, (0, 1)))
    assert p.nonzero() == {(1, 0): 2, (3, 1): 1}
    assert entropy2(p) == 2


def test_pattern2_consistency_gates():
    q = Pattern2.from_counts(2, {(1, 0): 2, (3, 1): 1})
    assert q.is_consistent()
    # Top row must have exactly one entry.
    assert not Pattern2.from_counts(2, {(1, 0): 2}).is_consistent()
    # Row sums must match twice the level counts.
    assert not Pattern2.from_counts(
        2, {(1, 0): 1, (3, 1): 1}
    ).is_consistent()
    with pytest.raises(ValueError):
        Pattern2.from_counts(2, {(1, 2): 1})


def test_pattern2_refines_pattern1():
    for leaves in [(0,), (0, 1), (0, 3), (0, 1, 2), (0, 1, 2, 3)]:
        ls = LeafSet(2, leaves)
        assert pattern2_of(ls).first_order() == pattern1_of(ls)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_entropy2_completeness(depth):
    # Classify every nonempty subset by its second-order profile and check
    # the groups against the refined product formula, exactly.
    by_profile = {}
    for mask in range(1, 1 << (1 << depth)):
        p = pattern2_of(LeafSet.from_mask(depth, mask))
        by_profile[p] = by_profile.get(p, 0) + 1
    for p, count in by_profile.items():
        assert entropy2(p) == count
    # The refinement partitions each first-order class.
    totals = {}
    for p, count in by_profile.items():
        key = p.first_order()
        totals[key] = totals.get(key, 0) + count
    for q, count in totals.items():
        assert count == entropy1(q)


leaf_sets = st.builds(
    lambda leaves: LeafSet(3, tuple(leaves)),
    st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
)


@given(leaf_sets)
@settings(max_examples=200)
def test_profiles_of_real_sets_are_valid(ls):
    p = pattern1_of(ls)
    assert p.is_admissible()
    assert p.size == len(ls)
    assert branching_identity_residual(p) == 0
    q = pattern2_of(ls)
    assert q.is_consistent()
    assert q.first_order() == p


def _pattern2_recursive(ls):
    # Reference construction: split the sorted leaves at the oldest joint,
    # recursively; within any block that joint is unique.
    n = ls.depth
    ages = joint_ages(ls)
    counts = {}

    def bump(k, l):
        counts[(k, l)] = counts.get((k, l), 0) + 1

    def build(lo, hi):
        if lo == hi:
            return 0
        i = max(range(lo, hi), key=lambda t: ages[t])
        top = ages[i]
        bump(top, build(lo, i))
        bump(top, build(i + 1, hi))
        return top

    bump(n + 1, build(0, len(ls) - 1))
    return Pattern2.from_counts(n, counts)


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_pattern2_matches_recursive_split_exhaustively(depth):
    for mask in range(1, 1 << (1 << depth)):
        ls = LeafSet.from_mask(depth, mask)
        assert pattern2_of(ls) == _pattern2_recursive(ls)


@st.composite
def deep_leaf_sets(draw):
    depth = draw(st.integers(min_value=0, max_value=40))
    leaves = draw(st.sets(st.integers(0, (1 << depth) - 1), min_size=1, max_size=40))
    return LeafSet(depth, tuple(leaves))


@given(deep_leaf_sets())
@settings(max_examples=300)
def test_pattern2_matches_recursive_split_deep(ls):
    p = pattern2_of(ls)
    assert p == _pattern2_recursive(ls)
    assert hash(p) == hash(_pattern2_recursive(ls))
    assert p.is_consistent() and p.first_order() == pattern1_of(ls)


def test_pattern2_deep_chain_needs_no_recursion():
    # {0} and every 2^i: joint i + 1 sits over leaf 2^i and joint i, so the
    # oldest-joint split nests 1200 deep, past the default recursion limit.
    n = 1200
    ls = LeafSet(n, (0,) + tuple(1 << i for i in range(n)))
    want = {(1, 0): 2}
    want.update({(k, 0): 1 for k in range(2, n + 1)})
    want.update({(k + 1, k): 1 for k in range(1, n + 1)})
    p = pattern2_of(ls)
    assert p.nonzero() == want
    assert p.level_counts() == (n + 1,) + (1,) * n
    spec = dgff_spec()
    assert phi(spec, ls) == sum(
        spec.h(k, l) * c for (k, l), c in sorted(want.items())
    ) + spec.h(n + 1, n)


def test_pattern2_is_sparse_and_canonical():
    # Zero counts are dropped, so equal nonzero entries mean equal profiles
    # whatever mapping built them; the entries stay sorted.
    p = Pattern2.from_counts(2, {(3, 1): 1, (1, 0): 2, (2, 0): 0})
    q = Pattern2.from_counts(2, {(1, 0): 2, (3, 1): 1})
    assert p == q and hash(p) == hash(q)
    assert p.counts == (((1, 0), 2), ((3, 1), 1))
    assert p.count(1, 0) == 2 and p.count(2, 0) == 0
    assert p != Pattern2.from_counts(3, {(1, 0): 2, (3, 1): 1})
    with pytest.raises(ValueError):
        Pattern2.from_counts(2, {(4, 1): 1})
