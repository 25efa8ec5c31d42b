import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwckit import oracle
from pwckit.capacity import cap_table
from pwckit.cli import main
from pwckit.dp import dp_W
from pwckit.clustering import (
    FirstOrderClustering,
    HArray,
    HSequence,
    SecondOrderClustering,
    SpecConfigError,
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
)
from pwckit.tree import LeafSet, shape_table

from paper import (
    ExactDistribution,
    entropy1,
    enumerate_patterns1,
    pattern1_of,
    phi,
    resistances,
)


def tiny_first():
    return FirstOrderClustering(HSequence([0.0, 1.0, 2.0, 3.0]), 1.0)


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
    spec = FirstOrderClustering(HSequence([0.0, 2.0, 5.0]), 7.0)
    vec = phi_vector(spec, 2)
    for mask in range(1, 16):
        ls = LeafSet.from_mask(2, mask)
        p = pattern1_of(ls)
        want = sum(2.0 * (k == 1) * p.b[k] + 5.0 * (k == 2) * p.b[k] for k in (1, 2)) + 7.0
        assert vec[mask] == pytest.approx(want, abs=1e-12)
    sizes = mask_sizes(4)
    assert sizes.tolist() == [mask.bit_count() for mask in range(1 << 16)]


def test_enum_w_depth_zero_capacity():
    # The single leaf is the root, so Phi = cap = inf and size 1 has no weight.
    assert enum_W(capacity_uniform(1.3), 0).ln_w.tolist() == [0.0, -math.inf]


# The fsum versions of the oracle sums over every mask, kept as references:
# the numpy sums over shapes must return the same floats, bit for bit.


def mask_sizes(n):
    """|A| for every bitmask at depth n, gathered through the shape index."""
    shapes = shape_table(n)
    return shapes.sizes[shapes.index]


def ref_log_sum(ln_terms):
    mx = ln_terms.max()
    return mx + math.log(math.fsum(np.exp(ln_terms - mx)))


def ref_enum_w(spec, n):
    sizes = mask_sizes(n)
    neg_phi = -phi_vector(spec, n)
    return np.array([ref_log_sum(neg_phi[sizes == a0]) for a0 in range((1 << n) + 1)])


def ref_ln_terms(spec, n, j):
    return j * mask_sizes(n) - phi_vector(spec, n)


def ref_enum_density(spec, n, j):
    ln_terms = ref_ln_terms(spec, n, j)
    w = np.exp(ln_terms - ln_terms.max())
    return math.fsum(w * mask_sizes(n)) / math.fsum(w) / (1 << n)


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
    """enum_maxterm by grouping every mask by its first-order profile."""
    shapes = shape_table(n)
    first, sizes = shapes.first[shapes.index], mask_sizes(n)
    neg_phi = -phi_vector(spec, n)
    key = first[1:].astype(np.int64) @ 32 ** np.arange(n + 1)
    _, rep, count = np.unique(key, return_index=True, return_counts=True)
    rep += 1
    ln_w = np.full((1 << n) + 1, -np.inf)
    np.maximum.at(ln_w, sizes[rep],
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


@settings(max_examples=60)
@given(
    size=st.integers(1, 2000),
    count=st.integers(1, 17),
    kind=st.sampled_from(["exp", "weighted", "wide", "ties"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=1, count=1, kind="ties", seed=1)
@example(size=231, count=17, kind="exp", seed=0)
@example(size=2000, count=2, kind="wide", seed=2)
def test_exact_sums_with_multiplicities_equal_fsum(size, count, kind, seed):
    # Each value counts its multiplicity times; a group's multiplicities
    # sum to at most 2^16, as the shapes' do at depth 4.
    rng = np.random.default_rng(seed)
    values = _draw_values(kind, rng, size)
    groups = rng.integers(0, count, size)
    largest = np.bincount(groups).max()
    mult = rng.integers(1, (1 << 16) // largest + 1, size)
    want = [math.fsum(np.repeat(values[groups == g], mult[groups == g]))
            for g in range(count)]
    assert hexes(_exact_sums(values, groups, count, mult)) == hexes(want)
    assert hexes(_exact_sums(values[:1], mult=[1 << 16])) == hexes(
        [math.fsum([values[0]] * (1 << 16))])


def test_exact_sums_with_multiplicities_below_2_26():
    # Full-mantissa values, each counted just under 2^26 times, against
    # their exact sum as a Fraction, which float() rounds once.
    rng = np.random.default_rng(26)
    full = [np.nextafter(1.0, 0.0), 5e-324, 2.0**-1022 * (2 - 2.0**-52)]
    for _ in range(50):
        values = np.concatenate((full, np.ldexp(rng.random(5), rng.integers(-1100, 990, 5))))
        groups = rng.integers(0, 3, len(values))
        mult = rng.integers((1 << 26) - 64, 1 << 26, len(values))
        exact = [Fraction(v) * int(m) for v, m in zip(values.tolist(), mult)]
        want = [float(sum(x for x, g in zip(exact, groups) if g == k)) for k in range(3)]
        assert hexes(_exact_sums(values, groups, 3, mult)) == hexes(want)
        assert hexes(_exact_sums(values, mult=mult)) == hexes([float(sum(exact))])


# The per-mask profile table and capacity table that the shape table
# replaced, kept as references for it.


def ref_profile_table(n):
    """Second-order rows, first-order rows and sizes of every mask, by
    merging the mask pair [hi, lo] of the two halves level by level."""
    cols = (n + 2) * (n + 1) // 2
    counts = np.zeros((2, cols), dtype=np.uint8)
    top = np.array([-1, 0])  # age of the top branching point, -1 when empty
    for d in range(1, n + 1):
        m = len(top)
        counts = counts[:, None] + counts[None, :]  # [hi, lo]
        hi, lo = np.nonzero(np.outer(top >= 0, top >= 0))
        counts[hi, lo, d * (d - 1) // 2 + top[hi]] += 1
        counts[hi, lo, d * (d - 1) // 2 + top[lo]] += 1
        top = np.maximum.outer(top, top)
        top[hi, lo] = d
        counts, top = counts.reshape(m * m, cols), top.reshape(-1)
    nonempty = np.flatnonzero(top >= 0)
    counts[nonempty, (n + 1) * n // 2 + top[nonempty]] += 1
    first = np.zeros((len(counts), n + 1), dtype=np.uint8)
    for col, l in enumerate(np.tril_indices(n + 2, -1)[1]):
        first[:, l] += counts[:, col]
    return counts, first, first[:, 0].astype(np.int64)


def ref_cap_table(depth, profile):
    """CAP of every mask by merging the two halves' conductances."""
    res = resistances(profile)
    r = np.array([np.inf, 0.0])
    for d in range(1, depth + 1):
        with np.errstate(divide="ignore"):
            g = 1.0 / (res[d - 1] + r)
            gsum = np.add.outer(g, g)  # [hi, lo]
            r = (1.0 / gsum).reshape(-1)
    with np.errstate(divide="ignore"):
        cap = 1.0 / r
    cap[0] = 0.0
    return cap


@pytest.mark.parametrize("n", range(ORACLE_MAX_DEPTH + 1))
def test_shape_table_invariants(n):
    shapes = shape_table(n)
    assert len(shapes.sizes) == [2, 3, 6, 21, 231][n]
    assert int(shapes.mult.sum()) == 1 << (1 << n)
    per_size = np.bincount(shapes.sizes, shapes.mult, (1 << n) + 1)
    assert per_size.tolist() == [math.comb(1 << n, a) for a in range((1 << n) + 1)]
    assert np.bincount(shapes.index).tolist() == shapes.mult.tolist()
    second, first, sizes = ref_profile_table(n)
    assert np.array_equal(shapes.second[shapes.index], second)
    assert np.array_equal(shapes.first[shapes.index], first)
    assert np.array_equal(shapes.sizes[shapes.index], sizes)
    rng = np.random.default_rng(40 + n)
    for spec in (capacity_uniform(1.3), random_capacity(n, rng), random_capacity(n, rng)):
        profile = spec.profile(n)
        assert cap_table(n, profile).tobytes() == ref_cap_table(n, profile).tobytes()


def test_phi_by_shape_is_the_per_mask_product():
    # Each shape's Phi is, bit for bit, what its masks get from the matrix
    # product over the per-mask profile rows.
    rng = np.random.default_rng(12)
    for n in range(ORACLE_MAX_DEPTH + 1):
        second, first, _ = ref_profile_table(n)
        for _ in range(20):
            for spec in (random_first_order(n, rng), random_second_order(n, rng)):
                if spec.variant == "first":
                    want = first @ spec.h.array(n)
                else:
                    want = second @ spec.h.array(n)[np.tril_indices(n + 2, -1)]
                want += spec.h_const_at(n)
                want[0] = 0.0
                assert phi_vector(spec, n).tobytes() == want.tobytes()


def test_enum_sums_stay_per_shape_in_memory(traced_peak):
    # No per-mask float array: a depth-4 one is 512 KB, and the uint8 to
    # float copy of a per-mask profile matrix was 7.8 MB.
    rng = np.random.default_rng(8)
    specs = (random_first_order(4, rng), random_second_order(4, rng),
             random_capacity(4, rng))

    def run():
        for spec in specs:
            enum_Z(spec, 4, 0.3)
            enum_W(spec, 4)
            enum_density(spec, 4, 0.3)

    run()  # builds the shape tables
    assert traced_peak(run) < 1 << 20


def test_grid_calls_equal_per_j_calls():
    # One call over a J list returns, bit for bit, what a call per J does.
    rng = np.random.default_rng(21)
    js = [-3.0, -0.25, 0.0, 0.7, 2.5]
    for n in range(ORACLE_MAX_DEPTH + 1):
        for spec in (random_first_order(n, rng), random_second_order(n, rng),
                     random_capacity(n, rng), capacity_uniform(0.5)):
            for fn in (enum_zeta, enum_density):
                grid = fn(spec, n, js)
                assert isinstance(grid, np.ndarray)
                assert hexes(grid) == hexes([fn(spec, n, j) for j in js])
                assert type(fn(spec, n, 0.7)) is float


@pytest.mark.parametrize("command", ["zeta", "density"])
def test_grid_call_forms_phi_once(monkeypatch, capsys, command):
    # Phi is formed once per grid, by the library call and by the command.
    calls = []
    real = oracle._class_phi
    monkeypatch.setattr(oracle, "_class_phi", lambda *a: calls.append(a) or real(*a))
    fn = enum_zeta if command == "zeta" else enum_density
    fn(capacity_uniform(), 3, np.linspace(-3.0, 3.0, 121))
    assert len(calls) == 1
    argv = [command, "--preset", "capacity:uniform", "--depth", "3", "--j-grid=-3:3:0.05"]
    assert main(argv) == 0 and len(calls) == 2
    capsys.readouterr()


def test_enum_z_refuses_j_array():
    # One J only: a list, even of one, is refused naming j, and so are a
    # ragged list and text.
    for j in ([0.5, 3.0], [0.5], np.array([0.5]), [[0.5], [1.0, 2.0]], "abc"):
        with pytest.raises(SpecConfigError, match="'j'"):
            enum_Z(tiny_first(), 3, j)


@pytest.mark.parametrize(
    "spec,n",
    [(FirstOrderClustering(HSequence([0.0, 1.0]), 2.0), 3),
     (SecondOrderClustering(HArray([[], [0.0], [0.5, 1.0]])), 2)],
    ids=["first", "second"],
)
def test_short_weights_name_h_values(spec, n):
    for call in (lambda: enum_Z(spec, n, 0.5), lambda: enum_W(spec, n),
                 lambda: enum_density(spec, n, 0.5), lambda: phi_vector(spec, n)):
        with pytest.raises(SpecConfigError, match="'h.values'.*too short for depth %d" % n):
            call()


PIN_PRESETS = ("zero", "first:linear:3ln2", "first:logcorrected", "dgff",
               "capacity:uniform", "capacity:uniform:0.5", "capacity:uniform:3")


def pin_specs(n):
    """68 specs at depth n: seven presets, 30 random first-order, 30 random
    second-order and one random capacity spec."""
    rng = np.random.default_rng(300 + n)
    specs = [parse_preset(p) for p in PIN_PRESETS]
    specs += [random_first_order(n, rng) for _ in range(30)]
    specs += [random_second_order(n, rng) for _ in range(30)]
    return specs + [random_capacity(n, rng)]


def test_oracle_floats_pinned():
    # Phi by class, ln Z at two J and the full canonical table of 340 specs
    # at depths 0 .. 4, hashed as bytes.
    digest = hashlib.sha256()
    for n in range(ORACLE_MAX_DEPTH + 1):
        for spec in pin_specs(n):
            digest.update(oracle._class_phi(spec, n).tobytes())
            digest.update(np.array([enum_Z(spec, n, j).ln for j in (-2.5, 0.7)]).tobytes())
            digest.update(enum_W(spec, n).ln_w.tobytes())
    assert digest.hexdigest() == (
        "12188d91141e4aea816529cd64c07d6d538d250ef453b3a30929b7cb96e97a0b")


def test_weights_past_the_range_rule_name_h_values():
    # The oracle refuses what the dynamic programs refuse, with their key,
    # instead of summing overflowed weights into NaN.
    spec = FirstOrderClustering(HSequence([-9e307, 0.0, 0.0, 0.0, 0.0]), 0.0)
    for call in (lambda: enum_zeta(spec, 4, 0.0), lambda: enum_W(spec, 4),
                 lambda: phi_vector(spec, 4)):
        with pytest.raises(SpecConfigError, match="'h.values'.*float range"):
            call()


def test_enum_w_is_sized_as_dp_w():
    # enum_W takes dp_W's m_max and allow_large and cuts its table to the
    # same size; a negative m_max is refused naming m_max.
    spec = tiny_first()
    full = enum_W(spec, 3).ln_w
    for m_max in (0, 1, 5, 8, 100):
        table = enum_W(spec, 3, m_max=m_max, allow_large=False)
        assert table.m_max == dp_W(spec, 3, m_max=m_max).m_max
        assert hexes(table.ln_w) == hexes(full[: table.m_max + 1])
    with pytest.raises(SpecConfigError, match="'m_max'"):
        enum_W(spec, 3, m_max=-1)
