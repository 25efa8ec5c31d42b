import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwckit import dp, sampler as sampler_mod
from pwckit.cli import _nodes, main
from pwckit.clustering import (
    FirstOrderClustering,
    HSequence,
    SpecConfigError,
    UnsupportedVariant,
    capacity_uniform,
    dgff_spec,
    first_linear,
    parse_preset,
    save_spec_file,
    zero_spec,
)
from pwckit.sampler import Sampler, sample
from pwckit.tree import LeafSet

from paper import DensityEstimate, ExactDistribution, empirical_density


def tiny_first():
    return FirstOrderClustering(
        HSequence([0.0, 1.0, 2.0, 3.0]), h_const=1.0
    )


def test_sampler_rejects_capacity():
    with pytest.raises(UnsupportedVariant):
        Sampler(capacity_uniform(), 2, 0.0)


def test_ln_z_matches_dp():
    for spec in (zero_spec(), tiny_first(), dgff_spec()):
        for n in (1, 3):
            for j in (-1.0, 0.0, 2.0):
                s = Sampler(spec, n, j)
                assert s.ln_z == pytest.approx(
                    dp.dp_Z(spec, n, j).ln, rel=1e-12
                )


def test_same_seed_reproduces_draws():
    a = sample(tiny_first(), 3, 0.5, seed=42, num_samples=50)
    b = sample(tiny_first(), 3, 0.5, seed=42, num_samples=50)
    assert [s.leaves for s in a] == [s.leaves for s in b]


def test_prefix_stability_across_batch_sizes():
    # Per-sample spawned streams: the first k draws do not depend on how
    # many more were requested.
    short = sample(tiny_first(), 3, 0.5, seed=7, num_samples=10)
    long = sample(tiny_first(), 3, 0.5, seed=7, num_samples=40)
    assert [s.leaves for s in short] == [s.leaves for s in long[:10]]


def test_different_seeds_differ():
    a = sample(zero_spec(), 3, 0.0, seed=1, num_samples=30)
    b = sample(zero_spec(), 3, 0.0, seed=2, num_samples=30)
    assert [s.leaves for s in a] != [s.leaves for s in b]


def test_draws_are_valid_leafsets():
    for s in sample(dgff_spec(), 4, 1.0, seed=5, num_samples=30):
        assert s.depth == 4
        assert all(0 <= leaf < 16 for leaf in s.leaves)
        assert len(set(s.leaves)) == len(s.leaves)


@pytest.mark.parametrize(
    "spec_name,j",
    [("zero", 0.0), ("first", 0.7), ("second", -0.5), ("second", 1.5)],
)
def test_tv_against_exact_distribution(spec_name, j):
    spec = {
        "zero": zero_spec(),
        "first": tiny_first(),
        "second": dgff_spec(),
    }[spec_name]
    n = 2
    dist = ExactDistribution.compute(spec, n, j)
    draws = sample(spec, n, j, seed=123, num_samples=20000)
    counts = Counter(s.mask for s in draws)
    empirical = {m: c / 20000.0 for m, c in counts.items()}
    assert dist.tv_distance(empirical) < 0.02


def test_empty_set_frequency():
    # P(empty) = 1/Z; check the zero spec at J = 0, n = 1 where Z = 4.
    draws = sample(zero_spec(), 1, 0.0, seed=9, num_samples=20000)
    frac = sum(1 for s in draws if len(s) == 0) / 20000.0
    assert abs(frac - 0.25) < 0.02


def test_empirical_density_matches_dp():
    spec = tiny_first()
    for j in (-1.0, 1.0):
        est = empirical_density(spec, 3, j, num_samples=4000, seed=11)
        lo, hi = est.interval(z=3.0)
        rho = dp.dp_density(spec, 3, j)
        assert lo <= rho <= hi
        assert est.num_samples == 4000


def test_density_estimate_interval():
    est = DensityEstimate(0.5, 0.01, 100)
    assert est.interval(z=2.0) == (0.48, 0.52)


def test_large_j_saturates():
    draws = sample(zero_spec(), 3, 30.0, seed=3, num_samples=20)
    assert all(len(s) == 8 for s in draws)


def test_very_negative_j_empties():
    draws = sample(tiny_first(), 3, -30.0, seed=3, num_samples=20)
    assert all(len(s) == 0 for s in draws)


def test_draws_pinned():
    # Pinned masks: a given seed must keep giving the same leaf sets, so
    # changes to the tables or the descent cannot alter draws unnoticed.
    first = FirstOrderClustering(
        HSequence([0.0, 0.5, 1.5, 2.0, 3.0]), h_const=3.0
    )
    pinned = {
        ("zero", 3): [87, 231, 20, 254, 247, 173, 244, 188],
        ("zero", 4): [34853, 40334, 24775, 58983, 47419, 63384, 64791, 64156],
        ("first", 3): [0, 231, 16, 170, 244, 160, 0, 0],
        ("first", 4): [32, 38958, 260, 50244, 47408, 50176, 43268, 2],
        ("dgff", 3): [3, 231, 16, 170, 244, 96, 0, 1],
        ("dgff", 4): [32, 38958, 260, 50244, 47392, 50321, 43268, 51712],
    }
    specs = {"zero": zero_spec(), "first": first, "dgff": dgff_spec()}
    for (name, n), masks in pinned.items():
        draws = sample(specs[name], n, 0.5, seed=2024, num_samples=8)
        assert [s.mask for s in draws] == masks, (name, n)


@pytest.mark.parametrize(
    "preset,depth,j,digest",
    [
        ("zero", "10", "0.0",
         "4faf387f2db3f0596f227630f1a35f0149a23cc1677a8b582857f7eabc3cfa06"),
        ("first:logcorrected", "8", "1.0",
         "3eecd9134f153b681ba1e0ae0d908b733cbd1482ec5c4a0da0a8a8838b8d9524"),
        ("dgff", "10", "0.5",
         "deb720cd90893f65a97a8b50df3a7d648cce8f0da48554f4f135d36e8a22760e"),
        ("first:linear:3ln2", "10", "0.5",
         "4ffca2c668d0b762a2e19d2b60339491857730ec9ef4b6987ec618436f3fcb92"),
        ("dgff", "8", "0.5",
         "85dbc4f2e213adf1c1c03ec2786a63de9a33aaa3fb52bcfb60a6a81493936da8"),
    ],
)
def test_sample_output_pinned(capsys, preset, depth, j, digest):
    # Pinned stdout of dense, medium, all-empty and second-order draws, with
    # splits deep in the tree and (dgff) second-order rows read.
    code = main(["sample", "--preset", preset, "--depth", depth, "--j", j,
                 "--num", "20", "--seed", "2024"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "preset,depth,j,num,table",
    [
        ("zero", 0, 0.0, 12, True),  # 4 leaves, 8 empty draws
        ("zero", 2, 50.0, 4, True),  # exactly 16 = 4 * 2^2 leaves
        ("zero", 2, 50.0, 3, False),  # 12 leaves
        ("zero", 3, 0.0, 2000, True),  # two batches of keys
        ("zero", 10, 0.0, 10, True),
        ("first:logcorrected", 8, 1.0, 10, False),
        ("first:linear:3ln2", 10, 0.5, 20, False),  # every draw empty
        ("dgff", 6, -1.0, 40, False),  # empty draws among the others
        ("zero", 64, -44.0, 3, False),  # labels of two words
        ("zero", 100, -60.0, 2, False),
    ],
)
def test_sample_text_matches_per_leaf_rendering(capsys, preset, depth, j, num, table):
    # Printed through the table of leaf names (at least 4 leaves per tree
    # leaf) or through str per leaf, each line is the draw's leaves as str
    # renders them.
    draws = sample(parse_preset(preset), depth, j, seed=7, num_samples=num)
    assert (sum(map(len, draws)) >= 4 << depth) == table
    code = main(["sample", "--preset", preset, "--depth", str(depth), "--j", repr(j),
                 "--num", str(num), "--seed", "7"])
    assert code == 0
    assert capsys.readouterr().out == "".join(
        " ".join(map(str, d.leaves)) + "\n" for d in draws)


def test_saturated_deep_draw():
    # Every node splits: 65535 nodes per draw through the explicit stack.
    for s in sample(zero_spec(), 16, 30.0, seed=3, num_samples=2):
        assert s.leaves == tuple(range(1 << 16))


MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix(z):
    """The splitmix64 finaliser on Python ints mod 2^64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def child_key(key, bit):
    return splitmix((key + (bit + 1) * GAMMA) & MASK)


def uniform(key):
    return (key >> 11) / 2.0 ** 53


def seed_keys(seed, num):
    """Draw keys 0 .. num - 1 of ``seed``: splitmix64's outputs from the
    SeedSequence state of the seed."""
    state = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    return [splitmix((state + (i + 1) * GAMMA) & MASK) for i in range(num)]


def walk(s, key, seen=None):
    """Reference walker: the draw keyed ``key`` and its visited nodes, one
    node at a time, recursively, on the sampler's probability tables. Each
    visited node's (level, ancestor age, top 53 key bits) goes on ``seen``."""
    leaves, nodes = [], [0]
    scale = 2.0 ** 53

    def visit(d, a, key, label):
        if d == 0:
            leaves.append(label)
            return
        nodes[0] += 1
        if seen is not None:
            seen.append((d, a, key >> 11))
        u = uniform(key)
        if u < s._left[d][a] / scale:
            visit(d - 1, a, child_key(key, 0), 2 * label)
        elif u < s._either[d][a] / scale:
            visit(d - 1, a, child_key(key, 1), 2 * label + 1)
        else:
            a = min(d, s._last)
            visit(d - 1, a, child_key(key, 0), 2 * label)
            visit(d - 1, a, child_key(key, 1), 2 * label + 1)

    if uniform(key) < s._nonempty / scale:  # the virtual top ancestor; root is child 0
        visit(s.depth, s._last, child_key(key, 0), 0)
    return tuple(leaves), nodes[0]


def _j_for_leaves(spec, n, leaves):
    """A J whose draws hold about ``leaves`` leaves on average (bisection)."""
    lo, hi = -1000.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dp.dp_density(spec, n, mid) * (1 << n) < leaves else (lo, mid)
    return lo


@pytest.mark.parametrize("name", ["zero", "first", "dgff"])
def test_draws_match_reference_walker(name):
    # Draw for draw, at every depth 0 .. 12 and one past the 63 bits of a
    # label word, and through Sampler.sample on a key read from a generator.
    spec = {"zero": zero_spec(), "first": first_linear(1.0), "dgff": dgff_spec()}[name]
    for n in list(range(13)) + [70]:
        j = 0.5 if n <= 12 else _j_for_leaves(spec, n, 16.0)
        s = Sampler(spec, n, j)
        got = [d.leaves for d in s.sample_many(6, seed=n)]
        assert got == [walk(s, k)[0] for k in seed_keys(n, 6)], n
        key = int(np.random.default_rng(n).integers(1 << 64, dtype=np.uint64))
        assert s.sample(np.random.default_rng(n)).leaves == walk(s, key)[0]


def test_deep_labels_join_their_words():
    # Labels past the 63 bits of one word: two words at depth 80 against the
    # walker, and about 11k leaves per draw near 2^100 at depth 100.
    s = Sampler(zero_spec(), 80, _j_for_leaves(zero_spec(), 80, 200.0))
    got = [d.leaves for d in s.sample_many(4, seed=80)]
    assert got == [walk(s, k)[0] for k in seed_keys(80, 4)]
    assert all(max(d) >> 63 for d in got)
    draws = sample(zero_spec(), 100, -60.0, seed=3, num_samples=5)
    assert all(5000 < len(d) < 20000 and max(d.leaves) >> 90 for d in draws)


def test_uniform_on_a_threshold_goes_past_it():
    # u < P(left) keeps the left child, u < P(left or right) the right one,
    # and a u exactly on either threshold goes to the next choice; the empty
    # check reads u < P(nonempty) alike.
    key = seed_keys(5, 1)[0]
    root = child_key(key, 0)
    s = Sampler(zero_spec(), 1, 0.0)
    top = float(root >> 11)
    for left, either, want in ((top, 2.0 ** 53, (1,)), (np.nextafter(top, 0), top, (0, 1)),
                               (np.nextafter(top, np.inf), 2.0 ** 53, (0,)),
                               (0.0, np.nextafter(top, np.inf), (1,))):
        s._left[1, 0], s._either[1, 0] = left, either
        assert s.sample_many(1, seed=5)[0].leaves == walk(s, key)[0] == want
    s._nonempty = float(key >> 11)
    assert s.sample_many(1, seed=5)[0].leaves == walk(s, key)[0] == ()
    s._nonempty = np.nextafter(s._nonempty, np.inf)
    assert s.sample_many(1, seed=5)[0].leaves == walk(s, key)[0] == (1,)


@pytest.mark.parametrize("spec_name,n,j", [("zero", 6, 0.0), ("dgff", 6, 0.5)])
def test_ties_follow_argmax(spec_name, n, j):
    # Ties on every table entry a draw visits: each (level, age) entry of
    # P(left), or of P(left or right), set to the top key bits of a node that
    # reads it, keeping P(left) <= P(left or right). Sampler.sample on a
    # generator breaks every tie as the walker does.
    spec = {"zero": zero_spec(), "dgff": dgff_spec()}[spec_name]
    ties = 0
    for seed in range(40):
        s = Sampler(spec, n, j)
        key = int(np.random.default_rng(seed).integers(1 << 64, dtype=np.uint64))
        seen = []
        walk(s, key, seen)
        for d, a, top in seen:
            on_left = top < s._either[d, a] and (seed % 2 or top < s._left[d, a])
            (s._left if on_left else s._either)[d, a] = top
        seen = []
        want = walk(s, key, seen)[0]
        assert s.sample(np.random.default_rng(seed)).leaves == want
        ties += sum(top in (s._left[d, a], s._either[d, a]) for d, a, top in seen)
    assert ties >= 80


@pytest.mark.parametrize("width", [1, 5, 64])
def test_cut_blocks_give_the_same_draws(monkeypatch, width):
    # Blocks of nodes cut onto the stack, and draws keyed a few at a time,
    # change no draw and no order.
    for spec, n, j in ((zero_spec(), 7, 0.0), (dgff_spec(), 6, 0.5)):
        want = [d.leaves for d in sample(spec, n, j, seed=11, num_samples=20)]
        monkeypatch.setattr(sampler_mod, "_WIDTH", width)
        assert [d.leaves for d in sample(spec, n, j, seed=11, num_samples=20)] == want
        monkeypatch.undo()


@pytest.mark.parametrize("spec,n,j,num", [(zero_spec(), 16, 30.0, 2),
                                          (first_linear(3.0 * math.log(2.0)), 10, 0.5,
                                           100000)],
                         ids=["saturated", "sparse-many"])
def test_descent_memory_stays_bounded(spec, n, j, num):
    # Near the output cap (131072 leaves) and over many empty draws, the
    # traced peak exceeds what the returned draws hold by under 3 MB: the
    # live nodes are cut into blocks of _WIDTH.
    s = Sampler(spec, n, j)
    s.sample_many(1, seed=0)
    tracemalloc.start()
    try:
        draws = s.sample_many(num, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(draws) == num
    assert peak - held < 3e6, (held, peak)


def _summary(tmp_path, capsys, argv):
    """stdout and the --summary document of ``pwckit sample``."""
    path = tmp_path / "run.json"
    assert main(["sample", *argv, "--summary", str(path)]) == 0
    return capsys.readouterr().out, json.loads(path.read_text())


def test_node_counts_match_reference_walker(tmp_path, capsys):
    # The summary's nodes, counted from the draws, against the nodes the
    # reference walker visits on the same keys; per draw as well.
    save_spec_file(tiny_first(), tmp_path / "tiny.json")
    for flags, spec, n, j in ((["--preset", "zero"], zero_spec(), 6, 0.0),
                              (["--preset", "dgff"], dgff_spec(), 6, 0.5),
                              (["--spec-file", str(tmp_path / "tiny.json")],
                               tiny_first(), 3, -1.0),
                              (["--preset", "zero"], zero_spec(), 0, 1.0)):
        s = Sampler(spec, n, j)
        walks = [walk(s, k) for k in seed_keys(17, 30)]
        out, doc = _summary(tmp_path, capsys, flags + [
            "--depth", str(n), "--j", repr(j), "--num", "30", "--seed", "17"])
        assert out == "".join(" ".join(map(str, w)) + "\n" for w, _ in walks)
        assert [_nodes(LeafSet(n, w)) for w, _ in walks] == [c for _, c in walks]
        assert doc["nodes"] == sum(c for _, c in walks)
    # a saturated draw visits every internal node once, across cut blocks
    _, doc = _summary(tmp_path, capsys, ["--preset", "zero", "--depth", "16",
                                         "--j", "30", "--num", "2", "--seed", "3"])
    assert doc["nodes"] == 2 * ((1 << 16) - 1)


@pytest.mark.parametrize("preset,spec,n,j", [("dgff", dgff_spec(), 6, 0.5),
                                             ("dgff", dgff_spec(), 6, -1.0)])
def test_sample_summary_counts(tmp_path, capsys, preset, spec, n, j):
    # The summary's leaves, empty draws and nodes against the reference
    # walker on the same keys; stdout is the draws alone. At J = -1 about
    # half of the draws are empty.
    path = tmp_path / "run.json"
    code = main(["sample", "--preset", preset, "--depth", str(n), "--j", repr(j),
                 "--num", "40", "--seed", "5", "--summary", str(path)])
    out = capsys.readouterr().out

    def reject(name):
        raise ValueError("not strict JSON: %s" % (name,))

    doc = json.loads(path.read_text(), parse_constant=reject)
    s = Sampler(spec, n, j)
    walks = [walk(s, k) for k in seed_keys(5, 40)]
    assert code == 0
    assert out == "".join(" ".join(map(str, w)) + "\n" for w, _ in walks)
    assert doc["leaves"] == sum(len(w) for w, _ in walks)
    assert doc["empty_draws"] == sum(1 for w, _ in walks if not w)
    assert doc["nodes"] == sum(nodes for _, nodes in walks)
    assert doc["mean_fraction"] == doc["leaves"] / (40 * (1 << n))


def test_sample_size_rule(monkeypatch, capsys):
    # One entry per leaf and one per draw: 9 per saturated draw at depth 3,
    # about 1 per nearly empty one. rho_n is read only when num (2^n + 1)
    # passes the cap, and the refusal names what to shrink.
    monkeypatch.setattr(sampler_mod, "SAMPLE_MAX_ENTRIES", 36)
    density = dp.dp_density

    def sample_cli(n, j, num):
        code = main(["sample", "--preset", "zero", "--depth", str(n), "--j", str(j),
                     "--num", str(num), "--seed", "3"])
        out, err = capsys.readouterr()
        return code, len(out.splitlines()), err.split(":")[1].strip() if err else None

    monkeypatch.setattr(dp, "dp_density", None)
    assert sample_cli(3, 30, 4) == (0, 4, None)
    monkeypatch.setattr(dp, "dp_density", density)
    assert sample_cli(3, 30, 5) == (2, 0, "key 'num'")
    assert sample_cli(3, -30, 35) == (0, 35, None)
    assert sample_cli(3, -30, 37) == (2, 0, "key 'num'")
    assert sample_cli(6, 30, 1) == (2, 0, "key 'depth'")
    assert sample_cli(6, -30, 30) == (0, 30, None)


@given(st.sampled_from(["zero", "first", "dgff"]), st.integers(0, 7),
       st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_draws_equal_their_normalized_leafset(name, n, j, seed):
    spec = {"zero": zero_spec(), "first": first_linear(1.0), "dgff": dgff_spec()}[name]
    for draw in sample(spec, n, j, seed, num_samples=4):
        assert draw == LeafSet(n, list(draw.leaves))
        assert all(type(x) is int for x in draw.leaves)


@pytest.mark.parametrize(
    "spec,j",
    [(first_linear(1.0), [0.5, 3.0]), (first_linear(1.0), [0.5]),
     (dgff_spec(), np.full(200, 0.5)), (first_linear(1.0), [[0.5], [1.0, 2.0]]),
     (first_linear(1.0), "abc")],
    ids=["first-two", "first-one", "dgff-200", "first-ragged", "first-text"],
)
def test_sampler_refuses_j_array(spec, j):
    # One J only: an array, even of one, is refused naming j, by the
    # Sampler and by sample, as by dp_Z and enum_Z.
    with pytest.raises(SpecConfigError, match="'j'"):
        Sampler(spec, 10, j)
    with pytest.raises(SpecConfigError, match="'j'"):
        sample(spec, 10, j, seed=0)


def test_negative_seed_names_seed():
    # The seed is checked before the draw count and the output guard.
    with pytest.raises(SpecConfigError, match="'seed'"):
        sample(zero_spec(), 3, 0.5, seed=-1)
    with pytest.raises(SpecConfigError, match="'seed'"):
        Sampler(zero_spec(), 3, 0.5).sample_many(0, -1)
