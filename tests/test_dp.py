import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwckit import dp, oracle, parse_preset
from pwckit.analysis import bisect_upper
from pwckit.clustering import (
    FirstOrderClustering,
    HArray,
    HSequence,
    SecondOrderClustering,
    SpecConfigError,
    UnsupportedVariant,
    capacity_uniform,
    dgff_spec,
    first_linear,
    random_first_order,
    random_second_order,
    zero_spec,
)
from pwckit.dp import (
    NEG_INF,
    CanonicalTable,
    LogReal,
    _log_self_convolve,
    _range_bound,
    dp_W,
    dp_W_maxterm,
    dp_Z,
    dp_density,
    zeta,
)
from pwckit.sampler import Sampler

LN2 = math.log(2.0)


def tiny_first():
    return FirstOrderClustering(HSequence([0.0, 1.0, 2.0, 3.0]), 1.0)


def test_dp_z_first_by_hand():
    # Depth 1, h = (0, 1), constant 1, J = 0: the four subsets weigh
    # 1, e^-1, e^-1, e^-2.
    z = dp_Z(tiny_first(), 1, 0.0)
    want = 1.0 + 2.0 * math.exp(-1.0) + math.exp(-2.0)
    assert z.value == pytest.approx(want, rel=1e-14)


def test_dp_z_second_by_hand():
    h = HArray(lambda k, l: 10.0 * k + l)
    spec = SecondOrderClustering(h, 3.0)
    j = 0.4
    z = dp_Z(spec, 1, j)
    # {0} and {1} pay h(2,0) + const; {0,1} pays 2 h(1,0) + h(2,1) + const.
    want = (
        1.0
        + 2.0 * math.exp(j - 20.0 - 3.0)
        + math.exp(2 * j - 2 * 10.0 - 21.0 - 3.0)
    )
    assert z.value == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n", [1, 4, 10, 16])
@pytest.mark.parametrize("j", [-2.0, 0.0, 1.5])
def test_zero_spec_closed_forms(n, j):
    assert zeta(zero_spec(), n, j) == pytest.approx(
        math.log1p(math.exp(j)), abs=1e-12
    )
    assert dp_density(zero_spec(), n, j) == pytest.approx(
        1.0 / (1.0 + math.exp(-j)), abs=1e-12
    )


def test_dp_w_first_by_hand():
    table = dp_W(tiny_first(), 1)
    assert table.m_max == 1 << 1 and table.kind == "sum"
    want = [0.0, math.log(2.0) - 1.0, -2.0]
    assert np.allclose(table.ln_w, want, atol=1e-14)


def test_dp_w_consistent_with_dp_z():
    # Z(J) = sum_a0 e^{J a0} W(a0) must tie the two programs together.
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        for spec in (random_first_order(n, rng), random_second_order(n, rng)):
            table = dp_W(spec, n)
            for j in (-1.0, 0.3, 2.0):
                via_w = np.logaddexp.reduce(
                    j * np.arange(table.m_max + 1) + table.ln_w
                )
                assert dp_Z(spec, n, j).ln == pytest.approx(
                    float(via_w), rel=1e-12, abs=1e-12
                )


def test_dp_w_truncation_matches_prefix():
    rng = np.random.default_rng(3)
    spec = random_first_order(5, rng)
    full = dp_W(spec, 5)
    part = dp_W(spec, 5, m_max=7)
    assert part.m_max == 7
    assert part.m_max < 1 << 5
    assert np.allclose(part.ln_w, full.ln_w[:8], rtol=1e-12)
    spec2 = random_second_order(4, rng)
    full2 = dp_W(spec2, 4)
    part2 = dp_W(spec2, 4, m_max=5)
    assert np.allclose(part2.ln_w, full2.ln_w[:6], rtol=1e-12)


def test_density_matches_log_derivative():
    # rho = 2^-n dJ ln Z, checked by central differences.
    rng = np.random.default_rng(4)
    eps = 1e-5
    for n in (2, 5):
        for spec in (random_first_order(n, rng), random_second_order(n, rng)):
            for j in (-0.5, 1.0):
                um = dp_Z(spec, n, j - eps).ln
                up = dp_Z(spec, n, j + eps).ln
                want = (up - um) / (2 * eps) / (1 << n)
                assert dp_density(spec, n, j) == pytest.approx(want, abs=1e-8)


def test_density_range_and_monotonicity():
    spec = tiny_first()
    grid = np.linspace(-4.0, 4.0, 17)
    vals = [dp_density(spec, 3, j) for j in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_maxterm_zero_spec_by_hand():
    # Depth 2, size 3: one admissible profile, realized by 4 subsets, so the
    # dominant term carries the full multiplicity (a plain max-plus subset
    # recursion would report 2 here).
    table = dp_W_maxterm(zero_spec(), 2)
    assert table.kind == "max"
    assert table.ln_w[0] == 0.0
    assert table.ln_w[3] == pytest.approx(math.log(4.0), abs=1e-13)
    # Size 1: 4 singletons share one profile.
    assert table.ln_w[1] == pytest.approx(math.log(4.0), abs=1e-13)


def test_maxterm_below_sum():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        spec = random_first_order(n, rng)
        full = dp_W(spec, n)
        mx = dp_W_maxterm(spec, n)
        gaps = full.ln_w - mx.ln_w
        assert gaps[0] == 0.0
        assert np.all(gaps >= -1e-10)


def test_depth_guards():
    spec = FirstOrderClustering(HSequence(lambda k: 0.1 * k))
    with pytest.raises(ValueError):
        dp_W(spec, 13)
    spec2 = SecondOrderClustering(HArray(lambda k, l: 0.1 * k))
    with pytest.raises(ValueError):
        dp_W(spec2, 11)
    # dp_Z has no such guard; moderate depth is cheap.
    assert math.isfinite(dp_Z(spec, 16, 0.0).ln)


def test_logreal_zero_and_one():
    assert LogReal(NEG_INF).value == 0.0
    assert LogReal(0.0).value == 1.0
    assert LogReal(math.log(0.7)).value == pytest.approx(0.7, rel=1e-15)
    assert LogReal(1e6).value == math.inf


def test_negative_weights_bounded_by_float_range():
    # h_1 enters ln F_10 with factor 2^9: -1e306 would overflow ln Z to inf.
    spec = FirstOrderClustering(HSequence([0.0, -1e306] + [0.0] * 9))
    for fn in (zeta, dp_density):
        with pytest.raises(SpecConfigError, match="'h.values'"):
            fn(spec, 10, 0.0)
    spec = FirstOrderClustering(HSequence([0.0] * 11), h_const=-1e308)
    with pytest.raises(SpecConfigError, match="'h_const'"):
        zeta(spec, 10, 0.0)
    # Just inside the bound, with J at it too, every output stays finite.
    bound = _range_bound(10)
    h = [0.0, -1.9 * bound] + [0.0] * 9
    spec = FirstOrderClustering(HSequence(h), h_const=0.0)
    j = np.array([-0.99, 0.0, 0.99]) * bound
    assert np.isfinite(zeta(spec, 10, j)).all()
    rho = dp_density(spec, 10, j)
    assert np.isfinite(rho).all() and (rho >= 0).all() and (rho <= 1).all()
    # Large positive weights are harmless and stay accepted.
    spec = FirstOrderClustering(HSequence([1e300] * 11), h_const=1e300)
    assert zeta(spec, 10, 0.0) == 0.0 and dp_density(spec, 10, 0.0) == 0.0


def test_dp_z_refuses_j_array():
    # dp_Z takes one J; a list, even of one, is refused naming j instead of
    # being read at its first entry, and so are a ragged list and text.
    for j in ([0.5, 3.0], [0.5], np.array([0.5]), [[0.5], [1.0, 2.0]], "abc"):
        with pytest.raises(SpecConfigError, match="'j'"):
            dp_Z(dgff_spec(), 8, j)
        with pytest.raises(SpecConfigError, match="'j'"):
            dp_Z(first_linear(1.0), 3, j)


def test_capacity_has_no_dp():
    with pytest.raises(UnsupportedVariant):
        dp_Z(capacity_uniform(), 3, 0.0)
    with pytest.raises(UnsupportedVariant):
        dp_W(capacity_uniform(), 3)


def test_canonical_table_views():
    table = CanonicalTable(2, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert table.m_max == 4
    assert table.m_max == 1 << table.depth
    assert table.omega_values()[2] == pytest.approx(0.5)
    assert np.allclose(table.omega_values(), table.ln_w / 4.0)


def test_second_reduces_to_first_when_ancestor_free():
    # h[k][l] depending only on l collapses the ancestor state.
    h1 = HSequence(lambda k: 0.4 * k + 0.1)
    first = FirstOrderClustering(h1, 2.0)
    second = SecondOrderClustering(
        HArray(lambda k, l: 0.4 * l + 0.1), 2.0
    )
    for n in (1, 3, 7):
        for j in (-1.0, 0.6):
            a = dp_Z(first, n, j).ln
            b = dp_Z(second, n, j).ln
            assert b == pytest.approx(a, rel=1e-12)


def test_batched_j_matches_per_point():
    # One kernel call over a J array must reproduce the per-point results:
    # zeta bit for bit, the density to rounding.
    grid = np.array([-3.0 + 0.05 * i for i in range(121)])
    rng = np.random.default_rng(6)
    specs = (zero_spec(), first_linear(3 * LN2), dgff_spec(),
             random_first_order(8, rng), random_second_order(8, rng))
    for spec in specs:
        for n in (0, 1, 3, 8):
            assert zeta(spec, n, grid).tolist() == [zeta(spec, n, j) for j in grid]
            single = [dp_density(spec, n, j) for j in grid]
            assert np.allclose(dp_density(spec, n, grid), single, rtol=1e-13, atol=0.0)


_specs = st.tuples(
    st.sampled_from([random_first_order, random_second_order]),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
    st.floats(-50.0, 50.0),
)


@given(_specs)
@settings(max_examples=60, deadline=None)
def test_dp_matches_oracle_and_difference(case):
    maker, n, seed, j = case
    spec = maker(n, np.random.default_rng(seed))
    lz = dp_Z(spec, n, j).ln
    assert lz == pytest.approx(oracle.enum_Z(spec, n, j).ln, rel=1e-10, abs=1e-12)
    eps = 1e-5
    diff = (zeta(spec, n, j + eps) - zeta(spec, n, j - eps)) / (2 * eps)
    assert dp_density(spec, n, j) == pytest.approx(diff, abs=1e-6)


# Reference kernels: the direct per-entry loops that the blocked kernels in
# dp replace, kept here to pin them.


def ref_log_self_convolve(y, out_len):
    """c[m] = ln sum_{i+j=m, i,j>=1} exp(y[i] + y[j]), one row at a time."""
    top = len(y) - 1
    c = np.full(out_len + 1, -np.inf)
    for m in range(2, out_len + 1):
        lo = max(1, m - top)
        hi = min(top, m - 1)
        if lo > hi:
            continue
        t = y[lo : hi + 1] + y[m - hi : m - lo + 1][::-1]
        mx = t.max()
        if mx == -np.inf:
            continue
        c[m] = mx + math.log(np.exp(t - mx).sum())
    return c


def ref_maxterm(spec, n, m_max=None):
    """ln W of dp_W_maxterm, one population a at a time."""
    h = spec.h.array(n)
    const = spec.h_const_at(n)
    full = 1 << n
    cap = full if m_max is None else min(int(m_max), full)
    lg = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, full + 1)))))
    best = np.full(2, -np.inf)
    best[1] = 0.0
    for k in range(n, 0, -1):
        reach = min(1 << (n - k + 1), cap)
        new = np.full(reach + 1, -np.inf)
        for a in range(1, min(len(best) - 1, reach) + 1):
            if best[a] == -np.inf:
                continue
            b = np.arange(min(a, reach - a) + 1)
            gain = (
                lg[a] - lg[b] - lg[a - b[::-1]][::-1]
                + (a - b) * LN2
                - h[k] * b
            )
            seg = slice(a, a + len(b))
            new[seg] = np.maximum(new[seg], best[a] + gain)
        best = new
    ln_w = np.full(cap + 1, -np.inf)
    ln_w[0] = 0.0
    top = min(len(best) - 1, cap)
    ln_w[1 : top + 1] = best[1 : top + 1] - h[0] * np.arange(1, top + 1) - const
    return ln_w


@st.composite
def _conv_inputs(draw):
    size = draw(st.integers(1, 300))
    scale = draw(st.sampled_from([1.0, 50.0, 1e6, 1e300]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, size) * scale
    y[0] = -np.inf
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, size - 1))
        y[start : start + draw(st.integers(1, size))] = -np.inf
    out_len = draw(st.integers(0, 2 * size + 2))
    return y, out_len


def assert_conv_close(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    live = ~np.isneginf(want)
    assert np.isfinite(got[live]).all()
    assert np.all(
        np.abs(got[live] - want[live]) <= 1e-14 * np.maximum(1.0, np.abs(want[live]))
    )


@given(_conv_inputs())
@settings(max_examples=300, deadline=None)
def test_blocked_convolution_matches_reference(case):
    y, out_len = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_self_convolve(y, out_len)
    assert_conv_close(got, ref_log_self_convolve(y, out_len))


def test_blocked_convolution_spans_blocks():
    # The last level of a full depth-13 table: many row blocks.
    y = np.concatenate(([-np.inf], -0.3 * np.arange(1, 4097)))
    assert_conv_close(_log_self_convolve(y, 8192), ref_log_self_convolve(y, 8192))


@st.composite
def _tilted_inputs(draw):
    """Inputs that the exact formula would take in more than one block, so
    that they run in tilted blocks: sizes lo = 1 .. hi >= 299 with hi past
    7/8 of the table and out_len >= 1.5 size, so at least 224 rows of width
    224 or more. -inf runs stay inside the table."""
    size = draw(st.integers(300, 2100))
    kind = draw(st.sampled_from(["line", "binomial", "walk"]))
    scale = draw(st.sampled_from([1.0, 50.0, 1e6, 1e300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i = np.arange(size)
    if kind == "line":  # steep: slopes up to 30 per size, with a little noise
        y = rng.uniform(-30.0, 30.0) * i + rng.uniform(-1e-3, 1e-3, size)
    elif kind == "binomial":  # ln C(m, i), concave and steep at both ends
        m = size - 1 + int(rng.integers(0, 4 * size))
        lg = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m + 1)))))
        y = lg[m] - lg[i] - lg[m - i]
    else:  # a rough random walk
        y = np.cumsum(rng.normal(0.0, rng.uniform(0.1, 5.0), size))
    y = y * scale
    y[0] = -np.inf
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(size // 4, 3 * size // 4))
        y[start : start + draw(st.integers(1, size // 8))] = -np.inf
    out_len = draw(st.integers(size + size // 2, 2 * size + 2))
    return y, out_len


@given(_tilted_inputs())
@settings(max_examples=40, deadline=None)
def test_tilted_convolution_matches_reference(case):
    y, out_len = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_self_convolve(y, out_len)
    assert_conv_close(got, ref_log_self_convolve(y, out_len))


def test_tilted_rows_fall_back_to_the_exact_formula(monkeypatch):
    # Noise of 1e6 leaves most rows' scaled sums below e^-600, and the gap
    # between two runs of sizes leaves rows with no finite term at all: all
    # of them take the exact formula, and the rows without terms stay -inf.
    rng = np.random.default_rng(38)
    y = rng.uniform(-1.0, 1.0, 1001) * 1e6
    y[0] = -np.inf
    y[101:900] = -np.inf
    exact = []
    rows = dp._exact_rows
    monkeypatch.setattr(dp, "_exact_rows", lambda f, b: exact.append(len(b)) or rows(f, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_self_convolve(y, 2000)
    want = ref_log_self_convolve(y, 2000)
    assert_conv_close(got, want)
    assert np.isneginf(want[201:901]).all() and np.isfinite(want[901:1101]).all()
    assert sum(exact) > 500


def _ln_binomials(m):
    """ln C(m, a) for a = 0 .. m, each the log of the exact integer."""
    out, c = [], 1
    for a in range(m + 1):
        out.append(math.log(c))
        c = c * (m - a) // (a + 1)
    return np.array(out)


def test_zero_tables_stay_as_close_as_the_exact_formula(monkeypatch):
    # The zero family's table is ln C(2^n, a); its last levels run in tilted
    # blocks, and their error may at most double that of the exact formula.
    def error(n):
        want = _ln_binomials(1 << n)
        got = dp_W(zero_spec(), n, allow_large=True).ln_w
        return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))

    tilted = [error(n) for n in range(10, 14)]
    monkeypatch.setattr(dp, "_TILT_MAX_TOP", 0)
    exact = [error(n) for n in range(10, 14)]
    assert all(t <= 2.0 * e for t, e in zip(tilted, exact)), (tilted, exact)


def test_maxterm_is_bit_identical_to_reference(monkeypatch):
    # Past depth 8 a level larger than one block fills its rows by monotone
    # argmax where its float certificate holds, and forms every entry where
    # it fails; either way every table has the reference's bits.
    bracketed, formed = [], []
    rows = dp._bracketed_rows

    def counted(gains, new, reach, top_a):
        # entries formed per bracketed level, through the gains it is handed
        def count(*args):
            g = gains(*args)
            formed[-1] += g.size
            return g

        bracketed.append(reach)
        formed.append(0)
        rows(count, new, reach, top_a)

    monkeypatch.setattr(dp, "_bracketed_rows", counted)

    def check(spec, n, m_max=None):
        got = dp_W_maxterm(spec, n, m_max=m_max).ln_w
        assert got.tobytes() == ref_maxterm(spec, n, m_max).tobytes(), (n, m_max)

    rng = np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in list(range(13)) + [9, 10, 11, 12] * 2:
            spec = random_first_order(n, rng)
            for m_max in (None, int(rng.integers(0, (1 << n) + 3))):
                check(spec, n, m_max)
        assert bracketed
        # a huge h_1 fails the certificate on the last level only (sizes up
        # to 4096), a scale of 1e9 on all four levels past one block
        h = random_first_order(12, rng).h.array(12)
        h[1] = 1e9
        bracketed.clear()
        check(FirstOrderClustering(HSequence(h), 50.0), 12)
        assert bracketed == [512, 1024, 2048]
        bracketed.clear()
        check(random_first_order(12, rng, scale=1e9), 12)
        assert bracketed == []
        # The bench's maxterm presets, full at depths 10 and 12 and truncated
        # where reach is not a power of two. Each bracketed level forms at
        # most 5 reach log2(reach) entries: the sampled rows and the halving
        # strides form 2.1-4.2 times that here, and strides anchored at
        # s, 2s, .. instead of at reach, whose rows above the last multiple
        # of s read a sentinel argmax top_a and pad their whole stride to
        # it, form 5.9-6.7 times that at m_max = 3000.
        for preset in ("first:linear:3ln2", "first:logcorrected"):
            for n, m_max, reaches in ((10, None, [512, 1024]),
                                      (12, None, [512, 1024, 2048, 4096]),
                                      (12, 3000, [512, 1024, 2048, 3000]),
                                      (14, 4000, [512, 1024, 2048] + [4000] * 3)):
                bracketed.clear()
                formed.clear()
                check(parse_preset(preset), n, m_max)
                assert bracketed == reaches, (preset, n, m_max)
                for reach, count in zip(bracketed, formed):
                    assert count <= 5 * reach * math.log2(reach), (preset, n, reach, count)


# The full-row kernels that the triangular ones replace: every level updates
# all ancestor rows, and the square term reads row min(d, last).


def ref_levels(H, j, n, ratio=False):
    j = np.atleast_1d(np.asarray(j, dtype=float))
    last = len(H) - 1
    neg = -H
    f = j - H[:, :1]
    r = np.ones_like(f) if ratio else None
    yield f, r
    for d in range(1, n + 1):
        s = min(d, last)
        u = LN2 + f
        v = neg[:, d : d + 1] + 2.0 * f[s : s + 1]
        new = np.logaddexp(u, v)
        if ratio:
            r = np.exp(u - new) * r + 2.0 * np.exp(v - new) * r[s : s + 1]
        f = new
        yield f, r


def ref_dp_W(spec, n):
    H, const = dp._weights(spec, n)
    full = 1 << n
    last = len(H) - 1
    f = np.full((last + 1, 2), -np.inf)
    f[:, 1] = -H[:, 0]
    for d in range(1, n + 1):
        size = 1 << d
        conv = ref_full_log_self_convolve(f[min(d, last)], size)
        keep = np.full((last + 1, size + 1), -np.inf)
        keep[:, 1 : f.shape[1]] = LN2 + f[:, 1:]
        f = np.logaddexp(keep, -H[:, d : d + 1] + conv)
    ln_w = np.full(full + 1, -np.inf)
    ln_w[0] = 0.0
    ln_w[1:] = -const + f[-1, 1:]
    return ln_w


def ref_full_log_self_convolve(y, out_len):
    """The blocked convolution without the exponent floor."""
    c = np.full(out_len + 1, NEG_INF)
    live = np.flatnonzero(y[1:] > NEG_INF) + 1
    if live.size == 0:
        return c
    lo, hi = int(live[0]), int(live[-1])
    top = hi - lo
    last = min(out_len - 2 * lo, 2 * top)
    if last < 0:
        return c
    rows = last // 2 + 1
    width = min(rows - 1, top) + 1
    step = max(1, dp._BLOCK // (2 * width))
    buf = np.full((2, top + 1 + width), NEG_INF)
    buf[0, : top + 1] = y[lo : hi + 1]
    buf[1, : top + 1] = y[lo : hi + 1][::-1]
    win = np.lib.stride_tricks.sliding_window_view(buf, width + 1, axis=1)
    fwd, back = win[0], win[1, :, :width]
    out = c[2 * lo : 2 * lo + last + 1]
    for p0 in range(0, rows, step):
        p1 = min(p0 + step, rows)
        k = min(p1 - 1, top - p0) + 1
        b = back[top - p1 + 1 : top - p0 + 1, :k][::-1]
        t = np.empty((p1 - p0, 2, k))
        np.add(fwd[p0:p1, :k], b, out=t[:, 0])
        np.add(fwd[p0:p1, 1 : k + 1], b, out=t[:, 1])
        mx = t.max(axis=2)
        shift = np.where(mx > NEG_INF, mx, 0.0)
        t -= shift[:, :, None]
        np.exp(t, out=t)
        s = t.sum(axis=2)
        s *= 2.0
        s[:, 0] -= t[:, 0, 0]
        with np.errstate(divide="ignore"):
            vals = (shift + np.log(s)).reshape(-1)
        seg = out[2 * p0 : 2 * p1]
        seg[:] = vals[: len(seg)]
    return c


def ref_sampler(spec, n, j):
    """A Sampler whose tables are built from the full-row levels."""
    sampler = Sampler.__new__(Sampler)
    sampler.spec, sampler.depth, sampler.j = spec, n, j
    H, const = dp._weights(spec, n)
    levels = [f[:, 0] for f, _ in ref_levels(H, j, n)]
    last = len(H) - 1
    keep, split = np.zeros((2, n + 1, last + 1))
    for d in range(1, n + 1):
        keep[d] = levels[d - 1]
        split[d] = -H[:, d] + 2.0 * levels[d - 1][min(d, last)]
    sampler._set_tables(keep, split, -const + levels[n][last])
    return sampler


def hexes(values):
    return [float(x).hex() for x in np.atleast_1d(values)]


_TRIANGLE_DEPTHS = (0, 1, 2, 3, 8, 16, 60)


def _triangle_specs():
    rng = np.random.default_rng(13)
    return [dgff_spec()] + [random_second_order(60, rng) for _ in range(20)]


def _sparse_j(spec, n):
    """A J whose draws hold at most a few dozen leaves on average."""
    j, step = 1.0, 1.0
    while dp_density(spec, n, j) * (1 << n) > 32.0:
        j, step = j - step, 2.0 * step
    return j


def test_triangular_levels_are_bit_identical(monkeypatch):
    grid = np.array([-3.0 + 0.05 * i for i in range(121)])
    specs = _triangle_specs()
    got, want = [], []
    for out, kernel, make in ((got, dp._levels, Sampler),
                              (want, ref_levels, ref_sampler)):
        monkeypatch.setattr(dp, "_levels", kernel)
        for spec in specs:
            for n in _TRIANGLE_DEPTHS:
                j = _sparse_j(spec, n)
                for x in (-2.5, 0.0, 0.7):
                    out.append(hexes(zeta(spec, n, x)) + hexes(dp_density(spec, n, x)))
                out.append(hexes(zeta(spec, n, grid)))
                out.append(hexes(dp_density(spec, n, grid)))
                out.append(hexes(bisect_upper(spec, n, 0.5, 0.0)))
                sampler = make(spec, n, j)
                out.append(hexes(sampler.ln_z))
                out.append([s.leaves for s in sampler.sample_many(3, seed=n)])
    assert got == want


def test_triangular_dp_w_is_bit_identical():
    for spec in _triangle_specs():
        for n in (0, 1, 2, 3, 8):
            assert hexes(dp_W(spec, n).ln_w) == hexes(ref_dp_W(spec, n))


def test_triangular_level_shapes():
    # Second-order level d holds the rows a = d+1 .. n+1 only; first order
    # holds its single row.
    n = 6
    for spec, rows in ((dgff_spec(), lambda d: n + 1 - d),
                       (first_linear(1.0), lambda d: 1)):
        H, _ = dp._weights(spec, n)
        shapes = [f.shape for f, _ in dp._levels(H, [0.0, 1.0], n)]
        assert shapes == [(rows(d), 2) for d in range(n + 1)]


def shared_second_order(n, rng, kind):
    """Random second-order weights at depth n whose rows a = 1 .. n repeat
    the root row's weights on a prefix of their columns 0 .. a-1.

    ``kind`` sets the prefix of each row: "random" (any length, so the rows
    that agree need not be all rows from some age on), "all" (every column),
    "none" (no column), or "zeros" (random, with zeros in the root row that
    some rows hold as -0.0, which does not agree).
    """
    table = np.cumsum(rng.exponential(1.0 / (n + 2), size=(n + 2, n + 2)), axis=1)
    root = table[n + 1]
    if kind == "zeros":
        root[rng.random(n + 2) < 0.3] = 0.0
    for a in range(1, n + 1):
        p = {"all": a, "none": 0}.get(kind, int(rng.integers(0, a + 1)))
        row = table[a, :p]
        row[:] = root[:p]
        if kind == "zeros":
            row[(row == 0.0) & (rng.random(p) < 0.5)] = -0.0
    return SecondOrderClustering(HArray(table), float(rng.exponential(1.0)))


_SHARE_KINDS = ("random", "all", "none", "zeros")


def test_shared_rows_are_bit_identical(monkeypatch):
    lattice = np.linspace(-3.0, 3.0, 121)
    rng = np.random.default_rng(29)
    cases = [(shared_second_order(n, rng, _SHARE_KINDS[n % 4]), n) for n in range(65)]
    cases.append((dgff_spec(), 200))
    grids = ([0.5], np.concatenate(([-0.0, 0.0], rng.choice(lattice, 11))), lattice)
    shared = set()
    for spec, n in cases:
        H, _ = dp._weights(spec, n)
        if dp._level_ends(H, n, len(lattice)) != [len(H)] * (n + 1):
            shared.add("dgff" if n == 200 else _SHARE_KINDS[n % 4])
    assert shared == {"random", "all", "zeros", "dgff"}

    def outputs():
        out = []
        for spec, n in cases:
            for grid in grids:
                out.append(hexes(zeta(spec, n, grid)) + hexes(dp_density(spec, n, grid)))
            out.append(hexes(dp_Z(spec, n, 0.5).ln))
            out.append(hexes(bisect_upper(spec, n, 0.5, 0.0)))
            with monkeypatch.context() as m:
                m.setattr(dp, "_BLOCK", 2048)  # 31 points per chunk at depth 64
                out.append(hexes(zeta(spec, n, lattice)) + hexes(dp_density(spec, n, lattice)))
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outputs()
        monkeypatch.setattr(dp, "_levels", ref_levels)
        want = outputs()
    assert got == want


def test_shared_row_work_counts(monkeypatch):
    # Row updates of a level pass over 121 J values, levels 0 .. n: a change
    # that switches sharing off for dgff, or on where no row agrees, fails.
    grid = np.linspace(-3.0, 3.0, 121)

    def rows(spec, n, width):
        H, _ = dp._weights(spec, n)
        return sum(len(f) for f, _ in dp._levels(H, grid[:width], n))

    def saved(H, n):
        return sum(len(H) - end for end in dp._row_plan(H, n))

    assert rows(dgff_spec(), 60, 1) == 1891
    assert rows(dgff_spec(), 60, 121) <= 931
    rng = np.random.default_rng(31)
    for n in (8, 16, 60):
        for spec in [random_second_order(n, rng) for _ in range(20)]:
            assert rows(spec, n, 121) == (n + 1) * (n + 2) // 2
        assert rows(shared_second_order(n, rng, "none"), n, 121) == (n + 1) * (n + 2) // 2
    # Rows agree bit for bit: -0.0 does not stand for 0.0.
    n = 60
    zeros = np.zeros((n + 2, n + 2))
    assert saved(zeros, n) == (n + 1) * (n + 2) // 2 - (n + 1)
    signed = zeros.copy()
    signed[1 : n + 1, 0] = -0.0
    assert saved(signed, n) == 0
    few = zeros.copy()
    few[1:59, 0] = 1.0
    assert saved(few, n) == 119  # rows 59 .. 61 agree
    # Every row agrees, yet a one-point grid keeps every row at any depth,
    # whatever the work rule: the sampler reads every ancestor age.
    monkeypatch.setattr(dp, "_SHARE_WORK", 1)
    for n in (1, 60, 1000, dp.MAX_DEPTH):
        zeros = np.zeros((n + 2, n + 2))
        assert dp._level_ends(zeros, n, 1) == [n + 2] * (n + 1)
    assert dp._level_ends(zeros, n, 2) == list(range(2, n + 3))


def test_convolution_floor_is_bit_identical(monkeypatch):
    # Interior -inf entries leave output sizes without any finite term, and
    # a spread of over 1400 puts shifted terms below numpy's slow exp range.
    # Every input takes the exact formula: tilted rows have other bits.
    monkeypatch.setattr(dp, "_TILT_MAX_TOP", 0)
    rng = np.random.default_rng(21)
    cases = [np.array([-np.inf, 0.0, -np.inf, -np.inf, -np.inf, -5.0])]
    for size in (2, 9, 40, 300, 2049):
        y = rng.uniform(-1.0, 1.0, size) * rng.choice([1.0, 400.0, 800.0])
        y[0] = -np.inf
        y[rng.random(size) < 0.3] = -np.inf
        y[size // 3 : size // 2] = -np.inf
        cases.append(y)
    cases.append(np.concatenate(([-np.inf], -1500.0 * np.arange(1, 200))))
    cases.append(np.full(7, -np.inf))
    for y in cases:
        for out_len in (0, 3, len(y), 2 * len(y)):
            want = ref_full_log_self_convolve(y, out_len)
            assert hexes(_log_self_convolve(y, out_len)) == hexes(want)


def test_j_batches_keep_memory_bounded(traced_peak):
    # _levels runs over chunks of J, so a long grid at depth 100 holds
    # tables of a few _BLOCK entries, not one (102 x 4096) table per level.
    spec, grid = dgff_spec(), np.linspace(-2.0, 6.0, 4096)
    dp.zeta(spec, 100, grid[:2])  # weights and imports outside the trace
    assert traced_peak(lambda: dp.zeta(spec, 100, grid)) < 6 << 20


def test_j_chunks_change_no_float(monkeypatch):
    grid = np.linspace(-3.0, 3.0, 121)
    cases = [(spec, n) for spec in (dgff_spec(), first_linear(3 * LN2), zero_spec())
             for n in (0, 1, 5, 16)]
    want = [hexes(zeta(s, n, grid)) + hexes(dp_density(s, n, grid)) for s, n in cases]
    monkeypatch.setattr(dp, "_BLOCK", 64)
    got = [hexes(zeta(s, n, grid)) + hexes(dp_density(s, n, grid)) for s, n in cases]
    assert got == want


# One-point first-order passes run as a float chain (dp._chain); these pin
# its floats to the root row of a _levels pass at the same J.

_BENCH_PRESETS = ("zero", "first:linear:2", "first:linear:3ln2",
                  "first:logcorrected", "dgff")
_CHAIN_DEPTHS = (0, 1, 2, 16, 60, 200, dp.MAX_DEPTH)
_LATTICE = [-3.0 + 0.05 * i for i in range(121)]


def levels_root(spec, n, j):
    """(ln Z_n, rho_n) at one J from the root row of a _levels pass."""
    H, const = dp._weights(spec, n)
    for f, r in dp._levels(H, np.array([j]), n, ratio=True):
        pass
    occupied = -const + f[-1]
    ln_z = np.logaddexp(0.0, occupied)
    return ln_z, np.exp(occupied - ln_z) * r[-1] / (1 << n)


def assert_chain_matches_levels(spec, n, j):
    ln_z, rho = levels_root(spec, n, j)
    assert hexes(dp_Z(spec, n, j).ln) == hexes(ln_z)
    assert hexes(zeta(spec, n, j)) == hexes(ln_z / (1 << n))
    assert hexes(dp_density(spec, n, j)) == hexes(rho)


def test_one_point_chain_is_bit_identical():
    rng = np.random.default_rng(37)
    specs = [parse_preset(name) for name in _BENCH_PRESETS]
    specs += [random_first_order(dp.MAX_DEPTH, rng) for _ in range(30)]
    specs.append(random_first_order(dp.MAX_DEPTH, rng, scale=2.0**-12))
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for spec in specs:
            for n in _CHAIN_DEPTHS:
                try:
                    dp._weights(spec, n)
                except SpecConfigError:
                    continue  # the weights carry ln Z out of float range
                inside = float(np.nextafter(_range_bound(n), 0.0))
                js = [-0.0, 0.0, inside, -inside] + rng.choice(_LATTICE, 6).tolist()
                for j in js:
                    if abs(j) < _range_bound(n):
                        assert_chain_matches_levels(spec, n, j)
                        cases += 1
    # every depth is reached, MAX_DEPTH by zero and the small random weights
    assert cases >= 1500


@given(st.integers(0, 2**32 - 1), st.integers(0, 80),
       st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([0.01, 1.0, 30.0]))
@settings(max_examples=200, deadline=None)
def test_one_point_chain_matches_levels_on_random_weights(seed, n, j, scale):
    spec = random_first_order(n, np.random.default_rng(seed), scale=scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_chain_matches_levels(spec, n, j)


def test_only_one_point_first_order_passes_take_the_chain(monkeypatch):
    calls = []
    levels = dp._levels
    monkeypatch.setattr(dp, "_levels", lambda *a, **k: calls.append(a[2]) or levels(*a, **k))
    for fn in (zeta, dp_density):
        for spec, n, j, want in ((first_linear(3 * LN2), 60, 0.5, 0),
                                 (first_linear(3 * LN2), 60, [0.5], 0),
                                 (zero_spec(), 16, np.array([-1.0]), 0),
                                 (first_linear(3 * LN2), 60, [0.5, 1.0], 1),
                                 (dgff_spec(), 60, 0.5, 1)):
            calls.clear()
            fn(spec, n, j)
            assert len(calls) == want, (fn.__name__, spec, j)
    calls.clear()
    dp_Z(first_linear(2.0), 16, 0.5)
    assert calls == []


def test_float_logaddexp_is_numpys():
    # The chain's floats rest on this identity: numpy's float64 logaddexp
    # is x == y ? x + ln2 : max + log1p(exp(-|x - y|)) on libm's exp and
    # log1p, which dp._logaddexp computes through math.
    rng = np.random.default_rng(41)
    x = rng.normal(0.0, 1.0, 20000) * rng.choice([1e-3, 1.0, 30.0, 1e6, 1e300], 20000)
    gap = rng.normal(0.0, 1.0, 20000) * rng.choice([0.0, 1e-12, 1.0, 45.0, 800.0], 20000)
    y = x + gap
    assert (x == y).sum() >= 3000 and (np.abs(x - y) > 40.0).sum() >= 3000
    inf = np.inf
    x = np.concatenate((x, [0.0, -0.0, 0.0, inf, -inf, inf, -inf, 5.0, 5.0, 1e308]))
    y = np.concatenate((y, [0.0, 0.0, -0.0, inf, -inf, -inf, 7.0, -inf, 50.0, -1e308]))
    with np.errstate(over="ignore"):  # 1e308 - -1e308 is inf
        want = np.logaddexp(x, y)
    got = np.array([dp._logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())])
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (
        "np.logaddexp no longer equals max + log1p(exp(-|x - y|)) on libm, "
        "so dp._chain's floats differ from _levels's: first at x=%r, y=%r"
        % (x[bad[0]], y[bad[0]]))


def test_two_dimensional_j_is_refused():
    # so are a ragged list and text, which numpy cannot read as floats
    grid = [[0.0, 1.0], [2.0, 3.0]]
    for j in (grid, np.array(grid), np.zeros((1, 1)), np.zeros((1, 1, 1)),
              [[0, 1], [2]], "abc"):
        for fn, spec, n in ((zeta, first_linear(2.0), 8), (dp_density, dgff_spec(), 8),
                            (zeta, dgff_spec(), 8), (dp_density, zero_spec(), 3),
                            (oracle.enum_zeta, first_linear(2.0), 2),
                            (oracle.enum_density, dgff_spec(), 2)):
            with pytest.raises(SpecConfigError, match="'j'"):
                fn(spec, n, j)


def test_numpy_integer_depths_compute_at_their_value():
    spec = first_linear(3 * LN2)
    for n in (np.int64(8), np.int32(3), np.uint8(2), np.int64(100)):
        m = int(n)
        assert zeta(spec, n, 0.5) == zeta(spec, m, 0.5)
        assert dp_density(spec, n, [0.5, 1.0]).tolist() == dp_density(spec, m, [0.5, 1.0]).tolist()
        assert dp_Z(dgff_spec(), n, 0.5) == dp_Z(dgff_spec(), m, 0.5)
        assert Sampler(spec, n, 0.5).ln_z == Sampler(spec, m, 0.5).ln_z
        assert type(Sampler(spec, n, 0.5).depth) is int
    for n in (np.int64(3), np.int32(2)):
        m = int(n)
        assert hexes(dp_W(dgff_spec(), n).ln_w) == hexes(dp_W(dgff_spec(), m).ln_w)
        assert hexes(dp_W_maxterm(spec, n).ln_w) == hexes(dp_W_maxterm(spec, m).ln_w)
        assert oracle.enum_zeta(spec, n, 0.5) == oracle.enum_zeta(spec, m, 0.5)
        assert hexes(oracle.enum_W(dgff_spec(), n).ln_w) == hexes(oracle.enum_W(dgff_spec(), m).ln_w)
    assert hexes(dp_W(spec, 8, m_max=np.int64(3)).ln_w) == hexes(dp_W(spec, 8, m_max=3).ln_w)


def test_non_integer_depths_and_sizes_are_refused():
    spec = first_linear(3 * LN2)
    for n in (True, False, np.bool_(True), 8.0, 3.7, "8", None):
        for fn in (lambda: zeta(spec, n, 0.5), lambda: dp_density(spec, n, 0.5),
                   lambda: dp_Z(spec, n, 0.5), lambda: dp_W(spec, n),
                   lambda: dp_W_maxterm(spec, n), lambda: Sampler(spec, n, 0.5),
                   lambda: oracle.enum_zeta(spec, n, 0.5), lambda: dp._weights(spec, n)):
            with pytest.raises(SpecConfigError, match="'depth'"):
                fn()
    for m_max in (3.7, 3.0, True, "3"):
        for fn in (dp_W, dp_W_maxterm, oracle.enum_W):
            with pytest.raises(SpecConfigError, match="'m_max'"):
                fn(spec, 3, m_max=m_max)
