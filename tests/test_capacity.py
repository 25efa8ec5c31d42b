import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwckit.capacity import (
    SPREAD_MAX_LOG2,
    ConductanceProfile,
    cap_quadratic,
    cap_reduce,
    cap_table,
)
from pwckit.tree import LeafSet

from paper import LeafMeasure, alpha_profile, flow_energy, resistances


def test_profile_validation():
    with pytest.raises(ValueError):
        ConductanceProfile((1.0, 0.0))
    with pytest.raises(ValueError):
        ConductanceProfile((1.0, -2.0))
    p = ConductanceProfile.uniform(3, 2.0)
    assert p.values == (2.0, 2.0, 2.0)
    assert resistances(p) == (0.5, 0.5, 0.5)


def test_profile_spread_is_bounded():
    ConductanceProfile((1.0, 2.0**SPREAD_MAX_LOG2))
    with pytest.raises(ValueError):
        ConductanceProfile((1.0, 2.0 ** (SPREAD_MAX_LOG2 + 1)))


@pytest.mark.parametrize("c", [5e-324, 1e-300, 1e300, 8e307])
def test_solvers_agree_at_extreme_conductances(c):
    # Two leaf edges in parallel: CAP = 2c, also where 1/c overflows or
    # a product of two resistances leaves the float range.
    profile = ConductanceProfile.uniform(1, c)
    pair = LeafSet(1, (0, 1))
    caps = [cap_reduce(pair, profile), cap_table(1, profile)[3], cap_quadratic(pair, profile)]
    assert caps == pytest.approx([2.0 * c] * 3, rel=1e-15, abs=0)


def test_scaling_by_a_power_of_two_keeps_the_floats():
    # CAP is homogeneous in the conductances, and both series-parallel
    # solvers scale the largest into [1/2, 1) first, so CAP(2^k C) is
    # CAP(C) times 2^k, rounded once where it is subnormal. Conductances of
    # a few bits stay exact times 2^-1070.
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        profile = ConductanceProfile(tuple(rng.choice([0.5, 0.75, 1.0, 1.25, 3.0], n)))
        table = cap_table(n, profile)
        for k in (-1070, -1040, -500, -1, 1, 500, 1000):
            scaled = ConductanceProfile(tuple(math.ldexp(c, k) for c in profile.values))
            want = np.ldexp(table, k)
            assert cap_table(n, scaled).tobytes() == want.tobytes()
            for mask in range(1, 1 << (1 << n)):
                ls = LeafSet.from_mask(n, mask)
                assert cap_reduce(ls, scaled) == math.ldexp(cap_reduce(ls, profile), k)


def test_singleton_capacity_is_series():
    # One leaf sees n unit resistors in series.
    for n in (1, 2, 3, 5):
        ls = LeafSet(n, (0,))
        assert cap_reduce(ls, ConductanceProfile.uniform(n)) == pytest.approx(
            1.0 / n, abs=1e-15
        )


def test_depth1_pair_doubles():
    # Two conductance-2 edges in parallel.
    ls = LeafSet(1, (0, 1))
    assert cap_reduce(ls, ConductanceProfile.uniform(1, 2.0)) == pytest.approx(
        4.0, abs=1e-15
    )


def test_sibling_pair_uniform():
    ls = LeafSet(2, (0, 1))
    # Parallel pair (1/2 ohm) in series with the top edge (1 ohm).
    assert cap_reduce(ls, ConductanceProfile.uniform(2)) == pytest.approx(
        2.0 / 3.0, abs=1e-15
    )


def test_all_leaves_closed_form():
    # Uniform conductance c: CAP(full tree) = c / (1 - 2^-n).
    for n in (1, 2, 3, 4, 5, 6):
        full = LeafSet(n, tuple(range(1 << n)))
        for c in (0.5, 1.0, 2.5):
            got = cap_reduce(full, ConductanceProfile.uniform(n, c))
            assert got == pytest.approx(c / (1.0 - 2.0**-n), rel=1e-14)


def test_depth_zero_leaf_agrees_with_table():
    profile = ConductanceProfile.uniform(0)
    leaf = LeafSet(0, (0,))
    assert cap_reduce(leaf, profile) == cap_table(0, profile)[1] == math.inf
    assert cap_quadratic(leaf, profile) == math.inf


def test_empty_set_capacity_zero():
    assert cap_reduce(LeafSet(2, ()), ConductanceProfile.uniform(2)) == 0.0


def test_depth_mismatch_rejected():
    with pytest.raises(ValueError):
        cap_reduce(LeafSet(2, (0,)), ConductanceProfile.uniform(3))


def _cap_reduce_recursive(ls, profile):
    # Reference: top-down series-parallel reduction, left branch first.
    res = resistances(profile)

    def resistance(leaves, d):
        if d == 0:
            return 0.0
        half = ((leaves[0] >> d) << d) + (1 << (d - 1))
        left = [x for x in leaves if x < half]
        right = [x for x in leaves if x >= half]
        branches = [res[d - 1] + resistance(side, d - 1) for side in (left, right) if side]
        if len(branches) == 1:
            return branches[0]
        rl, rr = branches
        return rl * rr / (rl + rr)

    r = resistance(list(ls.leaves), ls.depth)
    return math.inf if r == 0.0 else 1.0 / r


def test_reduce_matches_recursive_reference_exactly():
    rng = np.random.default_rng(17)
    for _ in range(600):
        n = int(rng.integers(0, 9))
        profile = ConductanceProfile(tuple(np.exp(rng.normal(0, 1.0, size=n))))
        leaves = rng.integers(0, 1 << n, size=int(rng.integers(1, (1 << n) + 1)))
        ls = LeafSet(n, tuple(leaves.tolist()))
        assert cap_reduce(ls, profile) == _cap_reduce_recursive(ls, profile)


def test_reduce_deep_chains():
    # 1500 levels, past the default recursion limit: one leaf sees 1500 unit
    # resistors in series. In the chain {0} and every 2^i, the age-d vertex
    # over leaf 0 joins the branch below it to the lone leaf 2^(d-1), whose
    # branch is d unit resistors in series.
    n = 1500
    profile = ConductanceProfile.uniform(n)
    assert cap_reduce(LeafSet(n, (0,)), profile) == 1.0 / 1500
    r = 0.0
    for d in range(1, n + 1):
        rl, rr = r + 1.0, float(d)
        r = rl * rr / (rl + rr)
    chain = LeafSet(n, (0,) + tuple(1 << i for i in range(n)))
    assert cap_reduce(chain, profile) == 1.0 / r


def test_alpha_profile_uniform():
    assert alpha_profile(ConductanceProfile.uniform(3)) == (3.0, 2.0, 1.0, 0.0)


def test_alpha_profile_general():
    p = ConductanceProfile((1.0, 0.5, 0.25))
    assert alpha_profile(p) == (7.0, 6.0, 4.0, 0.0)


def test_flow_energy_sibling_pair():
    # Unit flow splits evenly over the two leaf edges, then rejoins.
    ls = LeafSet(1, (0, 1))
    mu = LeafMeasure.uniform_on(ls)
    assert flow_energy(mu, ConductanceProfile.uniform(1)) == pytest.approx(
        0.5, abs=1e-15
    )


def test_flow_energy_inverse_of_capacity_at_optimum():
    # The equilibrium (uniform) split on the full tree realizes 1/CAP.
    n = 3
    full = LeafSet(n, tuple(range(1 << n)))
    profile = ConductanceProfile.uniform(n)
    mu = LeafMeasure.uniform_on(full)
    assert flow_energy(mu, profile) == pytest.approx(
        1.0 / cap_reduce(full, profile), rel=1e-14
    )


def test_flow_energy_upper_bounds_inverse_capacity():
    rng = np.random.default_rng(5)
    profile = ConductanceProfile(tuple(np.exp(rng.normal(0, 0.5, size=3))))
    for _ in range(50):
        mask = int(rng.integers(1, 1 << 8))
        ls = LeafSet.from_mask(3, mask)
        weights = rng.exponential(1.0, size=len(ls))
        mu = LeafMeasure(3, tuple(zip(ls.leaves, weights / weights.sum())))
        inv_cap = 1.0 / cap_reduce(ls, profile)
        assert flow_energy(mu, profile) >= inv_cap - 1e-12


def test_cap_table_matches_reduce():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        profile = ConductanceProfile(tuple(np.exp(rng.normal(0, 0.7, size=n))))
        table = cap_table(n, profile)
        assert table[0] == 0.0
        for mask in range(1, 1 << (1 << n)):
            ls = LeafSet.from_mask(n, mask)
            assert table[mask] == pytest.approx(
                cap_reduce(ls, profile), rel=1e-12
            )


def test_quadratic_route_agrees():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        profile = ConductanceProfile(tuple(np.exp(rng.normal(0, 0.7, size=n))))
        for _ in range(25):
            mask = int(rng.integers(1, 1 << (1 << n)))
            ls = LeafSet.from_mask(n, mask)
            a = cap_reduce(ls, profile)
            b = cap_quadratic(ls, profile)
            assert b == pytest.approx(a, rel=1e-9)


def test_capacity_monotone_in_conductances():
    ls = LeafSet(3, (0, 3, 5))
    lo = cap_reduce(ls, ConductanceProfile.uniform(3, 1.0))
    hi = cap_reduce(ls, ConductanceProfile.uniform(3, 2.0))
    assert hi == pytest.approx(2.0 * lo, rel=1e-14)  # scale covariance
    assert hi > lo


masks = st.integers(min_value=1, max_value=(1 << 8) - 1)


@given(masks, masks)
@settings(max_examples=200)
def test_capacity_monotone_and_subadditive(mask_a, mask_b):
    profile = ConductanceProfile.uniform(3)
    a = LeafSet.from_mask(3, mask_a)
    b = LeafSet.from_mask(3, mask_b)
    union = LeafSet.from_mask(3, mask_a | mask_b)
    ca = cap_reduce(a, profile)
    cb = cap_reduce(b, profile)
    cu = cap_reduce(union, profile)
    assert cu >= max(ca, cb) - 1e-12
    assert cu <= ca + cb + 1e-12


@given(masks)
@settings(max_examples=200)
def test_capacity_linear_upper_bound(mask):
    # CAP(A) <= C_0 |A|: each leaf contributes at most its bottom edge.
    profile = ConductanceProfile((0.8, 1.7, 0.9))
    ls = LeafSet.from_mask(3, mask)
    assert cap_reduce(ls, profile) <= 0.8 * len(ls) + 1e-12
