import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwckit.clustering import (
    FirstOrderClustering,
    HSequence,
    UnsupportedVariant,
    capacity_uniform,
    dgff_spec,
    parse_preset,
    random_capacity,
    random_first_order,
    random_second_order,
    zero_spec,
)
from pwckit.oracle import (
    ORACLE_MAX_DEPTH,
    _exact_sums,
    enum_W,
    enum_Z,
    enum_density,
    enum_maxterm,
    enum_phi,
    enum_zeta,
    phi_vector,
    profile_table,
)
from pwckit.tree import LeafSet

from paper import ExactDistribution, entropy1, enumerate_patterns1, pattern1_of, phi


def tiny_first():
    return FirstOrderClustering(HSequence.from_values([0.0, 1.0, 2.0, 3.0]), 1.0)


def test_depth_cap_enforced():
    with pytest.raises(ValueError):
        enum_Z(zero_spec(), ORACLE_MAX_DEPTH + 1, 0.0)


def test_phi_vector_agrees_with_phi():
    rng = np.random.default_rng(1)
    specs = [
        zero_spec(),
        tiny_first(),
        dgff_spec(),
        random_second_order(3, rng),
        capacity_uniform(1.3),
        random_capacity(3, rng),
    ]
    for spec in specs:
        for n in (1, 2, 3):
            vec = phi_vector(spec, n)
            assert vec[0] == 0.0
            for mask in range(1 << (1 << n)):
                ls = LeafSet.from_mask(n, mask)
                assert vec[mask] == pytest.approx(phi(spec, ls), abs=1e-12), (
                    spec.variant,
                    n,
                    mask,
                )
    # depth 4 (the rows verify uses) on a seeded sample of the 65536 masks
    masks = np.random.default_rng(4).integers(0, 1 << 16, size=2000)
    for spec in (random_first_order(4, rng), random_second_order(4, rng), dgff_spec()):
        vec = phi_vector(spec, 4)
        for mask in masks.tolist():
            ls = LeafSet.from_mask(4, mask)
            assert vec[mask] == pytest.approx(phi(spec, ls), abs=1e-12), (
                spec.variant,
                mask,
            )


def test_enum_phi_single_set():
    ls = LeafSet(2, (0, 1))
    assert enum_phi(tiny_first(), ls) == pytest.approx(2.0)


def test_enum_z_by_hand():
    z = enum_Z(tiny_first(), 1, 0.0)
    want = 1.0 + 2.0 * math.exp(-1.0) + math.exp(-2.0)
    assert z.value == pytest.approx(want, rel=1e-14)
    assert enum_zeta(tiny_first(), 1, 0.0) == pytest.approx(
        math.log(want) / 2.0, rel=1e-14
    )


def test_enum_w_by_hand():
    table = enum_W(tiny_first(), 1)
    assert table.source == "enum"
    want = [0.0, math.log(2.0) - 1.0, -2.0]
    assert np.allclose(table.ln_w, want, atol=1e-14)


def test_enum_w_zero_is_binomial():
    for n in (1, 2, 3, 4):
        table = enum_W(zero_spec(), n)
        for a0 in range(table.m_max + 1):
            assert table.ln_w[a0] == pytest.approx(
                math.log(math.comb(1 << n, a0)), rel=1e-13
            )


def test_enum_density_by_hand():
    # Depth 1, J = 0: mean size = (2 e^-1 + 2 e^-2) / Z, fraction halves it.
    z = 1.0 + 2.0 * math.exp(-1.0) + math.exp(-2.0)
    want = (2.0 * math.exp(-1.0) + 2.0 * math.exp(-2.0)) / z / 2.0
    assert enum_density(tiny_first(), 1, 0.0) == pytest.approx(want, rel=1e-13)


def test_enum_maxterm_over_profiles():
    # The max-term table must equal the best profile value, computed
    # independently from the profile enumeration.
    spec = tiny_first()
    h = [0.0, 1.0]
    table = enum_maxterm(spec, 1)
    for a0 in (1, 2):
        best = max(
            math.log(entropy1(p))
            - sum(h[k] * p.b[k] for k in range(1, 2))
            - 1.0
            for p in enumerate_patterns1(1, a0)
        )
        assert table.ln_w[a0] == pytest.approx(best, abs=1e-13)


def test_enum_maxterm_rejects_second_order():
    with pytest.raises(UnsupportedVariant):
        enum_maxterm(dgff_spec(), 2)


def test_exact_distribution_normalizes():
    dist = ExactDistribution.compute(tiny_first(), 2, 0.7)
    assert math.fsum(dist.probs()) == pytest.approx(1.0, abs=1e-12)
    assert dist.prob(LeafSet(2, ())) == pytest.approx(
        dist.prob(0), abs=1e-15
    )
    assert dist.prob(LeafSet(2, (0, 1))) == pytest.approx(
        dist.prob(0b11), abs=1e-15
    )


def test_exact_distribution_tv():
    dist = ExactDistribution.compute(zero_spec(), 1, 0.0)
    # Exact proportions give zero distance; a point mass gives 1 - p.
    counts = {mask: 25 for mask in range(4)}
    assert dist.tv_distance(counts) == pytest.approx(0.0, abs=1e-15)
    assert dist.tv_distance({0: 100}) == pytest.approx(0.75, abs=1e-12)
    dense = np.array([25, 25, 25, 25])
    assert dist.tv_distance(dense) == pytest.approx(0.0, abs=1e-15)


def test_profiles_consistent_with_matrix():
    # The cached profile matrix used by phi_vector must agree with the
    # per-set profile computation.
    spec = FirstOrderClustering(HSequence.from_values([0.0, 2.0, 5.0]), 7.0)
    vec = phi_vector(spec, 2)
    for mask in range(1, 16):
        ls = LeafSet.from_mask(2, mask)
        p = pattern1_of(ls)
        want = sum(2.0 * (k == 1) * p.b[k] + 5.0 * (k == 2) * p.b[k] for k in (1, 2)) + 7.0
        assert vec[mask] == pytest.approx(want, abs=1e-12)
    sizes = profile_table(4).sizes
    assert sizes.tolist() == [mask.bit_count() for mask in range(1 << 16)]


def test_enum_w_depth_zero_capacity():
    # The single leaf is the root, so Phi = cap = inf and size 1 has no weight.
    assert enum_W(capacity_uniform(1.3), 0).ln_w.tolist() == [0.0, -math.inf]


# The fsum versions of the oracle sums, kept as references: the numpy sums
# must return the same floats, bit for bit.


def ref_log_sum(ln_terms):
    mx = ln_terms.max()
    return mx + math.log(math.fsum(np.exp(ln_terms - mx)))


def ref_enum_w(spec, n):
    sizes = profile_table(n).sizes
    neg_phi = -phi_vector(spec, n)
    return np.array([ref_log_sum(neg_phi[sizes == a0]) for a0 in range((1 << n) + 1)])


def ref_ln_terms(spec, n, j):
    return j * profile_table(n).sizes - phi_vector(spec, n)


def ref_enum_density(spec, n, j):
    ln_terms = ref_ln_terms(spec, n, j)
    w = np.exp(ln_terms - ln_terms.max())
    return math.fsum(w * profile_table(n).sizes) / math.fsum(w) / (1 << n)


REF_PRESETS = ("zero", "first:linear:2", "first:linear:3ln2", "first:logcorrected",
               "dgff", "capacity:uniform:1.3")
REF_JS = (-40.0, -2.5, 0.0, 0.7, 35.0)


def hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.parametrize("n", range(ORACLE_MAX_DEPTH + 1))
def test_oracle_sums_match_fsum_references(n):
    rng = np.random.default_rng(100 + n)
    makers = (random_first_order, random_second_order, random_capacity)
    specs = [parse_preset(p) for p in REF_PRESETS]
    specs += [makers[i % 3](n, rng) for i in range(20)]
    for spec in specs:
        if not (n == 0 and spec.variant == "capacity"):  # ref: nan, new: -inf
            assert hexes(enum_W(spec, n).ln_w) == hexes(ref_enum_w(spec, n))
        for j in REF_JS:
            ln_terms = ref_ln_terms(spec, n, j)
            ln_z = ref_log_sum(ln_terms)
            assert hexes(enum_Z(spec, n, j).ln) == hexes(ln_z)
            assert hexes(enum_density(spec, n, j)) == hexes(ref_enum_density(spec, n, j))
            dist = ExactDistribution.compute(spec, n, j)
            assert dist.log_probs.tobytes() == (ln_terms - ln_z).tobytes()


# Values whose sums round on a tie, or sit among subnormals and zeros.
TIE_POOL = np.array([0.0, 5e-324, 7 * 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022,
                     1.0, 2.0**-53, 2.0**-52, 3 * 2.0**-53, 1.0 + 2.0**-52, 2.0**53])


def _draw_values(kind, rng, size):
    if kind == "exp":  # like the oracle's exp(ln term - max)
        return np.exp(-rng.exponential(rng.uniform(0.1, 200.0), size))
    if kind == "weighted":  # like the density's occupied weights
        return np.exp(-rng.exponential(5.0, size)) * rng.integers(0, 17, size)
    if kind == "wide":  # every binade, subnormals included
        return np.ldexp(rng.random(size), rng.integers(-1100, 1000, size))
    return rng.choice(TIE_POOL, size)


@settings(max_examples=60)
@given(
    size=st.integers(1, 70_000),
    count=st.integers(1, 17),
    kind=st.sampled_from(["exp", "weighted", "wide", "ties"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=70_000, count=17, kind="exp", seed=0)
@example(size=70_000, count=1, kind="ties", seed=1)
@example(size=50_000, count=3, kind="wide", seed=2)
def test_exact_sums_equal_fsum(size, count, kind, seed):
    rng = np.random.default_rng(seed)
    values = _draw_values(kind, rng, size)
    groups = rng.integers(0, count, size)
    want = [math.fsum(values[groups == g]) for g in range(count)]
    assert hexes(_exact_sums(values, groups, count)) == hexes(want)
    assert hexes(_exact_sums(values)) == hexes([math.fsum(values)])


@given(st.lists(st.sampled_from(TIE_POOL.tolist())
                | st.floats(0.0, 1e300, allow_subnormal=True), min_size=1, max_size=40))
@example([1.0, 2.0**-53])
@example([1.0, 2.0**-53, 5e-324])
@example([1.0 + 2.0**-52, 2.0**-53])
@example([5e-324])
@example([0.0, 0.0])
def test_exact_sums_equal_fsum_on_lists(values):
    assert hexes(_exact_sums(np.array(values))) == hexes([math.fsum(values)])


def ref_enum_maxterm(spec, n):
    """enum_maxterm with the profile grouping redone on every call."""
    table = profile_table(n)
    neg_phi = -phi_vector(spec, n)
    key = table.first[1:].astype(np.int64) @ 32 ** np.arange(n + 1)
    _, rep, count = np.unique(key, return_index=True, return_counts=True)
    rep += 1
    ln_w = np.full((1 << n) + 1, -np.inf)
    np.maximum.at(ln_w, table.sizes[rep],
                  [math.log(c) for c in count] + neg_phi[rep])
    ln_w[0] = 0.0
    return ln_w


def test_enum_maxterm_grouping_cached_per_depth():
    rng = np.random.default_rng(31)
    for n in range(ORACLE_MAX_DEPTH + 1):
        specs = [zero_spec(), parse_preset("first:linear:2")]
        specs += [random_first_order(n, rng) for _ in range(5)]
        for spec in specs:
            got = enum_maxterm(spec, n).ln_w
            assert got.tobytes() == ref_enum_maxterm(spec, n).tobytes()
