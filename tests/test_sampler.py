import hashlib
import json
import math
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
        ("zero", 3): [243, 40, 174, 233, 93, 119, 118, 249],
        ("zero", 4): [27551, 30608, 45711, 58850, 45907, 22237, 52701, 62582],
        ("first", 3): [19, 0, 174, 9, 93, 0, 118, 0],
        ("first", 4): [33285, 4160, 8364, 226, 13139, 0, 59252, 16946],
        ("dgff", 3): [19, 40, 174, 1, 93, 0, 118, 0],
        ("dgff", 4): [33285, 4160, 37548, 8674, 13139, 0, 59252, 16946],
    }
    specs = {"zero": zero_spec(), "first": first, "dgff": dgff_spec()}
    for (name, n), masks in pinned.items():
        draws = sample(specs[name], n, 0.5, seed=2024, num_samples=8)
        assert [s.mask for s in draws] == masks, (name, n)


@pytest.mark.parametrize(
    "preset,depth,j,digest",
    [
        ("zero", "10", "0.0",
         "5632065a40d4e9dd1080de2b03ccfd720009ae58b78ce7683cd95aef99dfadeb"),
        ("first:logcorrected", "8", "1.0",
         "7954b1a6cec5b0955bc13434374804f3c513261ad82d09dc0a5d74c8900e79bd"),
        ("dgff", "10", "0.5",
         "95e11b7d332df23988b06eb85cbc9adb158dabf20d22815d1970ed46593a771f"),
        ("first:linear:3ln2", "10", "0.5",
         "4ffca2c668d0b762a2e19d2b60339491857730ec9ef4b6987ec618436f3fcb92"),
        ("dgff", "8", "0.5",
         "546d6581e2cdf3df47c9e40bc21c49926fdcbcd013913d887bb02de90d623d27"),
    ],
)
def test_sample_output_pinned(capsys, preset, depth, j, digest):
    # Pinned stdout at sizes where the descent refills its variate buffer,
    # splits deep in the tree and (dgff) reads second-order rows.
    code = main(["sample", "--preset", preset, "--depth", depth, "--j", j,
                 "--num", "20", "--seed", "2024"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_saturated_deep_draw():
    # Every node splits: 65535 nodes per draw through the explicit stack.
    for s in sample(zero_spec(), 16, 30.0, seed=3, num_samples=2):
        assert s.leaves == tuple(range(1 << 16))


class _RoundedGumbel:
    """Gumbel variates rounded to integers, so that choices often tie."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def gumbel(self, size):
        return np.round(self._rng.gumbel(size=size))


def _argmax_draw(s, rng):
    # reference descent: one gumbel(3) read and one np.argmax per node
    g = rng.gumbel(size=2)
    if g[0] + 0.0 > g[1] + s._ln_occupied:
        return ()
    out = []

    def descend(d, a, base):
        while d > 0:
            keep = s._keep[d][a]
            pick = int(np.argmax(rng.gumbel(size=3) + (keep, keep, s._split[d][a])))
            if pick == 2:
                a = min(d, s._last)
                descend(d - 1, a, base)
            base += (1 << (d - 1)) * (pick > 0)
            d -= 1
        out.append(base)

    descend(s.depth, s._last, 0)
    return tuple(out)


@pytest.mark.parametrize("spec_name,n,j", [("zero", 6, 0.0), ("dgff", 6, 0.5)])
def test_ties_follow_argmax(spec_name, n, j):
    s = Sampler({"zero": zero_spec(), "dgff": dgff_spec()}[spec_name], n, j)
    for seed in range(40):
        draw = s.sample(_RoundedGumbel(seed)).leaves
        assert draw == _argmax_draw(s, _RoundedGumbel(seed))


class _CountingGumbel:
    """A generator's Gumbel variates, counting how many are read."""

    def __init__(self, rng):
        self._rng, self.read = rng, 0

    def gumbel(self, size):
        self.read += size
        return self._rng.gumbel(size=size)


def _reference_walk(s, child):
    """The argmax walker's draw on one child stream, and its node count:
    3 variates per node past the 2 of the empty check."""
    rng = _CountingGumbel(np.random.default_rng(child))
    leaves = _argmax_draw(s, rng)
    return leaves, (rng.read - 2) // 3


def _summary(tmp_path, capsys, argv):
    """stdout and the --summary document of ``pwckit sample``."""
    path = tmp_path / "run.json"
    assert main(["sample", *argv, "--summary", str(path)]) == 0
    return capsys.readouterr().out, json.loads(path.read_text())


def test_node_counts_match_reference_walker(tmp_path, capsys):
    # The summary's nodes, counted from the draws, against the variates the
    # reference walker reads on the same child streams; per draw as well.
    save_spec_file(tiny_first(), tmp_path / "tiny.json")
    for flags, spec, n, j in ((["--preset", "zero"], zero_spec(), 6, 0.0),
                              (["--preset", "dgff"], dgff_spec(), 6, 0.5),
                              (["--spec-file", str(tmp_path / "tiny.json")],
                               tiny_first(), 3, -1.0),
                              (["--preset", "zero"], zero_spec(), 0, 1.0)):
        s = Sampler(spec, n, j)
        walks = [_reference_walk(s, c) for c in np.random.SeedSequence(17).spawn(30)]
        out, doc = _summary(tmp_path, capsys, flags + [
            "--depth", str(n), "--j", repr(j), "--num", "30", "--seed", "17"])
        assert out == "".join(" ".join(map(str, w)) + "\n" for w, _ in walks)
        assert [_nodes(LeafSet(n, w)) for w, _ in walks] == [c for _, c in walks]
        assert doc["nodes"] == sum(c for _, c in walks)
    # a saturated draw visits every internal node once, across buffer refills
    _, doc = _summary(tmp_path, capsys, ["--preset", "zero", "--depth", "16",
                                         "--j", "30", "--num", "2", "--seed", "3"])
    assert doc["nodes"] == 2 * ((1 << 16) - 1)


@pytest.mark.parametrize("preset,spec,n,j", [("dgff", dgff_spec(), 6, 0.5),
                                             ("dgff", dgff_spec(), 6, -1.0)])
def test_sample_summary_counts(tmp_path, capsys, preset, spec, n, j):
    # The summary's leaves, empty draws and nodes against the reference
    # walker on the same child streams; stdout is the draws alone. At
    # J = -1 about half of the draws are empty.
    path = tmp_path / "run.json"
    code = main(["sample", "--preset", preset, "--depth", str(n), "--j", repr(j),
                 "--num", "40", "--seed", "5", "--summary", str(path)])
    out = capsys.readouterr().out

    def reject(name):
        raise ValueError("not strict JSON: %s" % (name,))

    doc = json.loads(path.read_text(), parse_constant=reject)
    s = Sampler(spec, n, j)
    walks = [_reference_walk(s, c) for c in np.random.SeedSequence(5).spawn(40)]
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
