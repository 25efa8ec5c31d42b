import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwckit import analysis, dp
from pwckit.analysis import (
    BracketError,
    Kappa1Report,
    OmegaCurve,
    binary_entropy,
    bisect_upper,
    certificate_first,
    certificate_second,
    estimate_jstar,
    kappa1,
    kappa2,
    laplace_first,
    laplace_second,
    legendre,
    minimal_certificate_depth,
    slope_estimate,
    tail_bound,
    tauberian_first,
    tauberian_second,
)
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
    first_logcorrected,
    random_first_order,
    random_second_order,
    zero_spec,
)
from pwckit.patterns import entropy2

LN2 = math.log(2.0)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
    arr = binary_entropy(np.array([0.25, 0.75]))
    assert arr[0] == pytest.approx(arr[1], abs=1e-15)


def test_legendre_zero_spec_matches_zeta():
    # On the zero spec omega is the entropy curve and the transform must
    # recover zeta up to the stated grid gap.
    for n in (6, 9):
        table = dp.dp_W(zero_spec(), n)
        curve = OmegaCurve.from_table(table)
        gap_bound = math.log((1 << n) + 1) / (1 << n)
        for j in (-2.0, 0.0, 1.0, 3.0):
            res = legendre(curve, j)
            z = dp.zeta(zero_spec(), n, j)
            assert 0.0 <= z - res.zeta <= gap_bound + 1e-9
            # The maximizer sits near the mean density.
            rho = dp.dp_density(zero_spec(), n, j)
            assert abs(res.eps_star - rho) <= 2.0 / (1 << n)


def test_legendre_reports_ties():
    curve = OmegaCurve(2, np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, 0.0]))
    res = legendre(curve, 0.0)
    assert not res.unique
    assert res.ties == (0.0, 0.5, 1.0)
    assert res.eps_star == 0.0


def test_kappa1_linear_3ln2():
    rep = kappa1(first_linear(3 * LN2))
    assert rep.converged
    assert rep.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.lower_bound == pytest.approx(2 * LN2 + math.log(3.0), abs=1e-12)


def test_kappa1_divergent_for_slow_weights():
    rep = kappa1(first_linear(0.5))  # h_k = k/2 < (ln2) k
    assert math.isinf(rep.value)
    assert not rep.converged


def test_kappa1_finite_list():
    h = HSequence.from_values([0.0, 3.0, 6.0])
    rep = kappa1(FirstOrderClustering(h))
    want = 2 * math.exp(-3.0) + 4 * math.exp(-6.0)
    assert rep.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "spec,value,terms,converged",
    [
        (first_linear(2.0), 0.37112250518172546, 27, True),
        (first_linear(3 * LN2), 0.33333333333333315, 25, True),
        (first_logcorrected(), math.inf, 200000, False),
        (zero_spec(), math.inf, 49, False),
        (FirstOrderClustering(HSequence.from_values([0.0, 3.0, 6.0])),
         0.10948914544239333, 2, False),
    ],
    ids=["linear2", "linear3ln2", "logcorrected", "zero", "list"],
)
def test_kappa1_pinned(spec, value, terms, converged):
    # values of the term-by-term loop the blockwise sum replaced
    rep = kappa1(spec)
    assert rep.terms_used == terms
    assert rep.converged is converged
    assert rep.value == pytest.approx(value, rel=1e-13)


def test_kappa1_of_an_empty_sum_certifies_nothing():
    # h_0 alone: no age k >= 1 to sum, so no lower bound on J*
    rep = kappa1(FirstOrderClustering(HSequence.from_values([1.0])))
    assert rep == Kappa1Report(math.inf, -math.inf, 0, False)


def test_kappa2_dgff_finite():
    rep = kappa2(dgff_spec(), k_max=100000)
    # Converges to 1 + 2 zeta(3/2) ~ 6.2248 like 1/sqrt(k); at the cutoff
    # the sup is still rising, which must be flagged.
    assert rep.at_cutoff
    assert 6.0 < rep.value < 6.2248
    assert math.isfinite(rep.lower_bound)


def test_kappa2_divergent_array():
    rep = kappa2(SecondOrderClustering(HArray.from_function(lambda k, l: 0.0)),
                 k_max=4096)
    assert math.isinf(rep.value)


def test_laplace_first_pure_log_for_boundary_family():
    # h_k = (ln2) k has g+ = 0, so the diagnostic is exactly ln(1/s).
    curve = laplace_first(first_linear(LN2), [0.25, 0.125, 1.0 / 64])
    assert np.allclose(curve.diag, [math.log(4), math.log(8), math.log(64)],
                       atol=1e-12)
    assert not any(curve.divergent)


def test_laplace_first_depressed_by_positive_g():
    # h_k = 3 (ln2) k has g_k = 2 (ln2) k, pulling the diagnostic down.
    s = [0.25, 0.125]
    base = laplace_first(first_linear(LN2), s)
    low = laplace_first(first_linear(3 * LN2), s)
    assert all(x < y for x, y in zip(low.diag, base.diag))


def test_laplace_rejects_bad_grid():
    with pytest.raises(ValueError):
        laplace_first(first_linear(LN2), [0.5, -0.1])
    with pytest.raises(ValueError):
        laplace_first(first_linear(LN2), [1.5])


def test_laplace_second_guard_and_values():
    spec = dgff_spec()
    with pytest.raises(SpecConfigError, match="'s-grid'.*--allow-large"):
        laplace_second(spec, [1.0 / 512])
    curve = laplace_second(spec, [0.25, 0.0625])
    assert curve.kind == "laplace-second"
    assert all(math.isfinite(d) for d in curve.diag)


def test_tauberian_verdicts():
    # ln k -> infinity: certified no-transition trend.
    assert tauberian_first(first_linear(LN2)).verdict == "no-transition-supported"
    # -k/2 - ln k ... u_k -> -inf: says nothing.
    assert (
        tauberian_first(first_linear(3 * LN2)).verdict
        == "inconclusive-for-this-test"
    )
    # The boundary family u_k = 0: flat, inconclusive.
    assert tauberian_first(first_logcorrected()).verdict == "inconclusive"


def test_tauberian_second_checks_decomposition():
    h1 = lambda l: LN2 * l
    h2 = lambda d: 0.5 * d
    spec = SecondOrderClustering(
        HArray.from_function(lambda k, l: LN2 * l + 0.5 * (k - l))
    )
    rep = tauberian_second(spec, h1, h2, k_max=2000)
    assert rep.verdict in (
        "no-transition-supported",
        "inconclusive-for-this-test",
        "inconclusive",
    )
    with pytest.raises(ValueError):
        tauberian_second(spec, h1, lambda d: 0.4 * d, k_max=2000)
    with pytest.raises(SpecConfigError, match="k_max"):
        tauberian_second(spec, h1, h2, k_max=0)


def test_tail_bound_decreases_with_depth():
    spec = first_linear(3 * LN2)
    tails = [tail_bound(spec, n) for n in (4, 8, 12)]
    assert all(x > y > 0 for x, y in zip(tails, tails[1:]))
    assert tail_bound(zero_spec(), 5) == 0.0


def test_tail_bound_closed_form_linear():
    # For h_k = c k: 2 sum_{k>n} c k 2^-k = 2 c (n+2) 2^-n.
    c = 3 * LN2
    for n in (6, 10):
        want = 2.0 * c * (n + 2.0) * 2.0**-n
        assert tail_bound(first_linear(c), n) == pytest.approx(want, rel=1e-9)


def test_kappa1_not_stopped_by_tiny_growing_terms():
    # h_k = 100: the terms 2^k e^-100 start tiny but grow, so kappa_1 = inf
    # and zeta(J) = ln(1 + e^(J - 200)) > 0 for every J: no transition.
    spec = FirstOrderClustering(HSequence.from_function(lambda k: 100.0 + 0 * k))
    rep = kappa1(spec)
    assert math.isinf(rep.value) and not rep.converged
    report = estimate_jstar(spec, [4, 8])
    assert math.isinf(report.kappa_value)
    assert report.verdict == "no-transition-supported"


def test_kappa1_underflowing_terms():
    # h_k = 1000: every term 2^k e^-1000 of the first block underflows, but
    # the terms grow, so kappa_1 = inf and there is no transition.
    spec = FirstOrderClustering(HSequence.from_function(lambda k: 1000.0 + 0 * k))
    rep = kappa1(spec)
    assert math.isinf(rep.value) and not rep.converged
    report = estimate_jstar(spec, [4, 8])
    assert math.isinf(report.kappa_value)
    assert report.verdict == "no-transition-supported"
    # Ten values 1000: kappa_1 = 1022 e^-1000 underflows, its bound must not.
    rep = kappa1(FirstOrderClustering(HSequence.from_values([1000.0] * 10), 1000.0))
    assert rep.lower_bound == pytest.approx(
        2000.0 + 2 * LN2 - math.log(1022.0), rel=1e-12
    )


def test_laplace_first_not_stopped_by_zero_prefix():
    # g_k = max(0, k - 5000) is 0 over the whole first block of ages.
    spec = FirstOrderClustering(
        HSequence.from_function(lambda k: LN2 * k + np.maximum(0, k - 5000))
    )
    s = np.array([2.0**-10, 2.0**-12])
    curve = laplace_first(spec, s)
    k = np.arange(1, 200000)
    want = [math.log(1 / x) - x * float((np.exp(-x * k) * np.maximum(0, k - 5000)).sum())
            for x in s]
    assert curve.diag == pytest.approx(want, rel=1e-9)
    assert curve.diag[0] == pytest.approx(-0.826021, abs=1e-6)


def test_laplace_second_not_stopped_by_zero_rows():
    # g_{l,d} = max(0, d - 12): the rows d <= 12 are 0.
    spec = SecondOrderClustering(
        HArray.from_function(lambda k, l: LN2 * l + np.maximum(0, k - l - 12))
    )
    s = 1.0 / 16
    curve = laplace_second(spec, [s])
    d = np.arange(1, 2000)
    rows = np.exp(-2 * s * d) * np.maximum(0, d - 12) / (1 - math.exp(-s))
    assert curve.diag[0] == pytest.approx(
        math.log(1 / s) - 2 * s * s * float(rows.sum()), rel=1e-9
    )


def reference_laplace_first(spec, s_values):
    """The block loop laplace_first ran before it shared its damped sum with
    laplace_second, as its reference."""
    h = spec.h
    k_limit = math.inf if h.has_tail else h.max_age
    s_arr = np.asarray(list(s_values), dtype=float)
    diag = np.empty_like(s_arr)
    divergent = []
    for i, s in enumerate(s_arr):
        total = 0.0
        bad = False
        for ks in analysis._blocks(1, k_limit):
            g = h(ks) - LN2 * ks
            damp = np.exp(-s * ks)
            contrib = float((damp * np.maximum(g, 0.0)).sum())
            total += contrib
            if total > analysis._BLOW_UP:
                bad = True
                break
            if max(contrib, damp[-1]) < analysis._LAPLACE_TOL:
                break
        divergent.append(bad)
        diag[i] = -math.inf if bad else math.log(1.0 / s) - s * total
    return diag, tuple(divergent)


def reference_laplace_second(spec, s_values):
    """The row loop laplace_second ran with its own copy of the block sum,
    as its reference."""
    h = spec.h
    k_limit = math.inf if h.has_tail else h.max_ancestor_age
    s_arr = np.asarray(list(s_values), dtype=float)
    diag = np.empty_like(s_arr)
    divergent = []
    for i, s in enumerate(s_arr):
        total = 0.0
        bad = False
        small_rows = 0
        d = 1
        while d <= k_limit:
            damp = math.exp(-2.0 * s * d)
            row = 0.0
            for ls in analysis._blocks(0, k_limit - d):
                g = h(ls + d, ls) - LN2 * ls
                inner = np.exp(-s * ls)
                contrib = float((inner * np.maximum(g, 0.0)).sum())
                row += contrib
                if damp * row > analysis._BLOW_UP:
                    bad = True
                    break
                if damp * max(contrib, inner[-1]) < analysis._LAPLACE_TOL:
                    break
            total += damp * row
            if bad or total > analysis._BLOW_UP:
                bad = True
                break
            small_rows = small_rows + 1 if damp * row < analysis._LAPLACE_TOL else 0
            if small_rows >= 3 and d > 8 and damp < analysis._LAPLACE_TOL:
                break
            d += 1
        divergent.append(bad)
        diag[i] = -math.inf if bad else math.log(1.0 / s) - 2.0 * s * s * total
    return diag, tuple(divergent)


#: s = 2^-1 .. 2^-8
POW2_GRID = [2.0**-e for e in range(1, 9)]

LAPLACE_FIRST_SPECS = {
    "zero": zero_spec(),
    "linear-ln2": first_linear(LN2),
    "linear2": first_linear(2.0),
    "linear3ln2": first_linear(3 * LN2),
    "logcorrected": first_logcorrected(),
    # runs of five ages with g+ = 0 between runs with g = 3
    "list-zero-runs": FirstOrderClustering(HSequence.from_values(
        [LN2 * k + (3.0 if (k // 5) % 2 else 0.0) for k in range(60)])),
    "zero-prefix": FirstOrderClustering(
        HSequence.from_function(lambda k: LN2 * k + np.maximum(0, k - 5000))),
    # g = k^5 passes the blow-up bound at s = 2^-8 (g = d^8 below, at 2^-5)
    "divergent": FirstOrderClustering(
        HSequence.from_function(lambda k: np.asarray(k, float) ** 5)),
}

LAPLACE_SECOND_SPECS = {
    "dgff": dgff_spec(),
    "zero-rows": SecondOrderClustering(
        HArray.from_function(lambda k, l: LN2 * l + np.maximum(0, k - l - 12))),
    "table": random_second_order(12, np.random.default_rng(5), scale=20.0),
    "divergent": SecondOrderClustering(
        HArray.from_function(lambda k, l: LN2 * l + np.asarray(k - l, float) ** 8)),
}


def _hex(diag, divergent):
    return [float(x).hex() for x in diag], tuple(divergent)


@pytest.mark.parametrize("name", LAPLACE_FIRST_SPECS)
def test_laplace_first_matches_reference_loop(name):
    spec = LAPLACE_FIRST_SPECS[name]
    curve = laplace_first(spec, POW2_GRID)
    want = _hex(*reference_laplace_first(spec, POW2_GRID))
    assert _hex(curve.diag, curve.divergent) == want
    if name == "divergent":
        assert want[1][-1] and not want[1][0]


@pytest.mark.parametrize("name", LAPLACE_SECOND_SPECS)
def test_laplace_second_matches_reference_loop(name):
    spec = LAPLACE_SECOND_SPECS[name]
    curve = laplace_second(spec, POW2_GRID)
    want = _hex(*reference_laplace_second(spec, POW2_GRID))
    assert _hex(curve.diag, curve.divergent) == want
    if name == "divergent":
        assert want[1][-1] and not want[1][0]


#: (function, arguments after the spec, a family it does not serve)
REFUSALS = [
    (kappa1, (), dgff_spec()),
    (kappa1, (), capacity_uniform()),
    (kappa2, (), first_linear(2.0)),
    (kappa2, (), zero_spec()),
    (kappa2, (), capacity_uniform()),
    (laplace_first, ([0.5],), dgff_spec()),
    (laplace_first, ([0.5],), capacity_uniform()),
    (laplace_second, ([0.5],), first_linear(2.0)),
    (laplace_second, ([0.5],), capacity_uniform()),
    (tauberian_first, (), dgff_spec()),
    (tauberian_first, (), capacity_uniform()),
    (tauberian_second, (lambda l: LN2 * l, lambda d: 0.0 * d), first_linear(2.0)),
    (tauberian_second, (lambda l: LN2 * l, lambda d: 0.0 * d), capacity_uniform()),
    (certificate_first, (Fraction(1, 2), 2), dgff_spec()),
    (certificate_first, (Fraction(1, 2), 2), capacity_uniform()),
    (certificate_second, (Fraction(1, 2), 2), first_linear(2.0)),
    (certificate_second, (Fraction(1, 2), 2), capacity_uniform()),
    (tail_bound, (4,), capacity_uniform()),
    (estimate_jstar, ([4],), capacity_uniform()),
]


@pytest.mark.parametrize(
    "fn,args,spec", REFUSALS,
    ids=["%s-%s" % (fn.__name__, spec.variant) for fn, _, spec in REFUSALS],
)
def test_family_refusal_names_variant(fn, args, spec):
    with pytest.raises(UnsupportedVariant, match=repr(spec.variant)) as info:
        fn(spec, *args)
    assert info.value.key == "variant"
    assert str(info.value).startswith("key 'variant': ")


def reference_tail_bound(spec, n):
    """The term-by-term loop tail_bound replaced, as its reference.

    It stops at the first term below 1e-18 max(total, 1), which is wrong
    when tiny terms come before larger ones.
    """
    if spec.variant == "second":
        gamma = lambda k: 2.0 * spec.h(k + 1, k)
        last = 20000 if spec.h.has_tail else spec.h.max_ancestor_age - 1
    else:
        gamma = spec.h
        last = 20000 if spec.h.has_tail else spec.h.max_age
    total = 0.0
    for k in range(n + 1, last + 1):
        term = 2.0 * gamma(k) * math.exp(-k * LN2)
        total += term
        if abs(term) < 1e-18 * max(total, 1.0):
            break
    return total


def test_tail_bound_matches_reference_loop():
    rng = np.random.default_rng(11)
    specs = [zero_spec(), first_linear(2.0), first_linear(3 * LN2),
             first_logcorrected(), dgff_spec()]
    for _ in range(20):
        n = int(rng.integers(1, 14))
        scale = float(10 ** rng.uniform(-2, 3))
        specs += [random_first_order(n, rng, scale), random_second_order(n, rng, scale)]
    for spec in specs:
        for n in range(0, 41):
            assert tail_bound(spec, n).hex() == reference_tail_bound(spec, n).hex()


def test_tail_bound_sums_past_zero_terms():
    # h_k = max(0, k - 20): the tail past n = 8 starts with twelve zero terms
    # and is 2 sum_{k>20} (k - 20) 2^-k = 2^-18.
    spec = FirstOrderClustering(
        HSequence.from_function(lambda k: np.maximum(0, k - 20) + 0.0), 50.0
    )
    assert tail_bound(spec, 8) == pytest.approx(2.0**-18, rel=1e-12)


def test_certificate_tail_sums_past_a_zero_term():
    # logcorrected has g_k = ln k, zero at k = 1; with j = 0 and a0 = 2^41
    # (the Stirling route) the value is -sum_{k=1}^{41} ln(k) 2^-k.
    cert = certificate_first(first_logcorrected(), Fraction(1, 2), 0, n=41)
    assert not cert.exact_evaluation
    want = -sum(math.log(k) * 2.0**-k for k in range(1, 42))
    assert cert.value == pytest.approx(want, rel=1e-12)


def test_estimate_jstar_linear_family():
    spec = first_linear(3 * LN2)
    report = estimate_jstar(spec, [8, 12], label="linear")
    assert report.verdict == "transition-supported"
    assert report.kappa_kind == "kappa1"
    lower = 2 * LN2 + math.log(3.0)
    assert report.lower_bound == pytest.approx(lower, abs=1e-12)
    for n, upper, slope, tail, delta in report.rows():
        assert upper >= lower
        assert math.isfinite(slope)
        assert tail > 0 and delta >= tail
    # Upper estimates tighten with depth.
    assert report.upper[1] < report.upper[0]
    doc = report.to_document()
    assert doc["verdict"] == "transition-supported"
    assert len(doc["jstar_upper"]) == 2


def test_estimate_jstar_fixed_delta():
    spec = first_linear(3 * LN2)
    r1 = estimate_jstar(spec, [8], delta=0.05)
    assert r1.deltas == (0.05,)


def test_estimate_jstar_rejects_capacity():
    with pytest.raises(Exception):
        estimate_jstar(capacity_uniform(), [4])


def test_bisect_bracket_failure_reported():
    # A wildly negative constant keeps zeta large even at J = -1e7.
    spec = FirstOrderClustering(
        HSequence.from_function(lambda k: 3 * LN2 * k), h_const=-1e9
    )
    with pytest.raises(BracketError):
        estimate_jstar(spec, [4])


def reference_bisect_upper(spec, n, delta, tail, iters=80):
    """The scalar bisection that bisect_upper replaced, as its reference.

    Returns the final bracket (lo, hi); hi was the answer.
    """
    H, const = dp._weights(spec, n)
    cond = lambda j: dp._ln_z(H, const, n, j)[0] / (1 << n) - tail > delta
    hi = 1.0
    while not cond(hi):
        hi *= 2
        if hi > 1e7:
            raise BracketError("condition never satisfied up to J = 1e7")
    lo = -1.0
    while cond(lo):
        lo *= 2
        if lo < -1e7:
            raise BracketError("condition holds down to J = -1e7")
    if cond(lo) or not cond(hi):
        raise BracketError("non-monotone bracket at [%g, %g]" % (lo, hi))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: later steps would change nothing
        if cond(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


@st.composite
def random_specs(draw, max_depth):
    """A random first- or second-order spec with weight scale 1e-2 .. 1e3."""
    make = draw(st.sampled_from([random_first_order, random_second_order]))
    n = draw(st.integers(0, max_depth))
    scale = 10.0 ** draw(st.floats(-2.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make(n, rng, scale), n


@given(random_specs(16), st.sampled_from([None, 1e-3, 0.05, 0.5, 2.0]))
@settings(max_examples=80)
def test_multisection_matches_reference_bisection(case, fixed):
    spec, n = case
    tail = tail_bound(spec, n)
    delta = max(1e-6, tail + n * LN2 / (1 << n)) if fixed is None else fixed
    lo, hi = reference_bisect_upper(spec, n, delta, tail)
    got = bisect_upper(spec, n, delta, tail)
    if np.nextafter(lo, math.inf) == hi:
        assert got.hex() == hi.hex()
    else:
        # the step cap stopped the reference short of adjacent floats, which
        # happens only for a crossing within ~1e-8 of 0
        assert lo < got <= hi


def test_multisection_matches_reference_on_presets():
    for spec in (zero_spec(), first_linear(2.0), first_linear(3 * LN2),
                 first_logcorrected(), dgff_spec()):
        for n in (0, 1, 5, 8, 12, 16):
            tail = tail_bound(spec, n)
            delta = max(1e-6, tail + n * LN2 / (1 << n))
            lo, hi = reference_bisect_upper(spec, n, delta, tail)
            assert np.nextafter(lo, math.inf) == hi
            assert bisect_upper(spec, n, delta, tail).hex() == hi.hex()


def uniform_multisection(spec, n, delta, tail):
    """The search before it aimed its grids: every round re-grids the
    crossing cell with 65 uniform points."""
    H, const = dp._weights(spec, n)
    grid = analysis._BRACKET_ENDS[
        np.abs(analysis._BRACKET_ENDS) < dp._range_bound(n)
    ]
    while True:
        ok = dp._ln_z(H, const, n, grid) / (1 << n) - tail > delta
        if len(ok) < 2 or ok[0] or not ok[-1] or (ok[:-1] > ok[1:]).any():
            raise BracketError("not false then true")
        k = int(np.argmax(ok))
        grid = np.unique(np.linspace(grid[k - 1], grid[k], 65))
        if len(grid) == 2:
            return float(grid[1])


def _search_result(search, spec, n, delta, tail):
    try:
        return search(spec, n, delta, tail).hex()
    except BracketError:
        return "BracketError"


@given(random_specs(64),
       st.sampled_from([None, 1e-12, 1e-100, 0.05, 0.5, 2.0]))
@settings(max_examples=100)
def test_aimed_search_matches_uniform_multisection(case, fixed):
    spec, n = case
    tail = tail_bound(spec, n)
    delta = max(1e-6, tail + n * LN2 / (1 << n)) if fixed is None else fixed
    want = _search_result(uniform_multisection, spec, n, delta, tail)
    assert _search_result(bisect_upper, spec, n, delta, tail) == want


def test_aimed_search_matches_uniform_multisection_dgff_deep():
    spec, n = dgff_spec(), 256
    tail = tail_bound(spec, n)
    want = uniform_multisection(spec, n, 1e-100, tail)
    assert bisect_upper(spec, n, 1e-100, tail).hex() == want.hex()


#: a second-order case where rounding makes the condition flicker: it also
#: holds 4 floats below the answer
FLICKER_SPEC = SecondOrderClustering(
    HArray.from_table(np.array([
        [0.02123919272245002, 0.08862309935705819, 0.1632145790200054],
        [0.033353700198645655, 0.10325721742557406, 0.19154419811411483],
        [0.08964270890441561, 0.1770443042955268, 0.2742883634255285],
    ])),
    0.19296384032724212,
)
FLICKER_ROOT = float.fromhex("-0x1.68e5172b9c7b6p-3")


def test_aimed_search_on_a_flickering_condition(monkeypatch):
    H, const = dp._weights(FLICKER_SPEC, 1)
    below = FLICKER_ROOT - np.arange(5) * np.spacing(abs(FLICKER_ROOT))
    ok = dp._ln_z(H, const, 1, below) / 2 > 0.5
    assert ok.tolist() == [True, False, False, False, True]
    assert uniform_multisection(FLICKER_SPEC, 1, 0.5, 0.0) == FLICKER_ROOT
    assert bisect_upper(FLICKER_SPEC, 1, 0.5, 0.0) == FLICKER_ROOT
    # a grid that sees the flicker restarts uniformly and still returns it
    aimed = analysis._aimed_grid
    flicker = below[3:]

    def seeing(a, b, ga, gb):
        inside = flicker[(a < flicker) & (flicker < b)]
        return np.unique(np.concatenate((aimed(a, b, ga, gb), inside)))

    calls = []
    ln_z = dp._ln_z
    monkeypatch.setattr(analysis, "_aimed_grid", seeing)
    monkeypatch.setattr(dp, "_ln_z", lambda *a: calls.append(a[-1]) or ln_z(*a))
    assert bisect_upper(FLICKER_SPEC, 1, 0.5, 0.0) == FLICKER_ROOT
    flickered = [i for i, j in enumerate(calls) if np.isin(flicker, j).all()]
    assert flickered and len(calls[flickered[0] + 1]) == 65


@pytest.mark.parametrize("n", [8, 12, 16])
def test_aimed_search_evaluation_budget(monkeypatch, n):
    calls = [0]
    ln_z = dp._ln_z

    def counting(*args):
        calls[0] += 1
        return ln_z(*args)

    monkeypatch.setattr(dp, "_ln_z", counting)
    for spec in (zero_spec(), first_linear(2.0), first_linear(3 * LN2),
                 first_logcorrected(), dgff_spec()):
        tail = tail_bound(spec, n)
        calls[0] = 0
        bisect_upper(spec, n, max(1e-6, tail + n * LN2 / (1 << n)), tail)
        assert 1 < calls[0] <= 7


def _verdict_or_error(fn, spec, k):
    try:
        return fn(spec, k)
    except UnsupportedVariant as exc:  # tauberian_first serves first order only
        return type(exc)


def two_point_verdict(spec, k_max):
    """The verdict ``estimate_jstar`` reads: u at k_max // 2 + 1 and k_max."""
    return analysis._trend_verdict(*analysis._first_u(spec, k_max))


@st.composite
def finite_list_specs(draw):
    values = draw(st.lists(st.floats(-20.0, 200.0), min_size=1, max_size=40))
    return FirstOrderClustering(HSequence.from_values(values))


TWO_POINT_SPECS = (
    zero_spec(), first_linear(2.0), first_linear(3 * LN2), first_logcorrected(),
    dgff_spec(), FirstOrderClustering(HSequence.from_function(lambda k: 100.0 + 0 * k)),
)


@pytest.mark.parametrize("k", [1, 2, 3, 1000, 100000])
def test_two_point_verdict_matches_tauberian_first(k):
    full = lambda spec, k: tauberian_first(spec, k).verdict
    for spec in TWO_POINT_SPECS:
        want = _verdict_or_error(full, spec, k)
        assert _verdict_or_error(two_point_verdict, spec, k) == want


@given(finite_list_specs(), st.sampled_from([1, 2, 3, 1000, 100000]))
def test_two_point_verdict_matches_on_finite_lists(spec, k):
    assert two_point_verdict(spec, k) == tauberian_first(spec, k).verdict


def test_one_weight_list_verdict_is_inconclusive():
    # a list with only h_0 has no age to read
    spec = FirstOrderClustering(HSequence.from_values([1.0]))
    rep = tauberian_first(spec)
    assert (len(rep.u), rep.verdict) == (0, "inconclusive")
    assert estimate_jstar(spec, [0]).tauberian_verdict == "inconclusive"
    with pytest.raises(SpecConfigError, match="k_max"):
        two_point_verdict(spec, 0)


@given(random_specs(12), st.floats(-50.0, 49.0), st.floats(1.0, 100.0))
def test_zeta_nondecreasing_and_convex_in_j(case, lo, width):
    # What the root search relies on: the condition flips once along J.
    spec, n = case
    j = np.linspace(lo, min(lo + width, 50.0), 41)
    z = dp.zeta(spec, n, j)
    step = np.diff(z)
    assert (step >= -1e-12 * np.maximum(1.0, np.abs(z[:-1]))).all()
    assert (np.diff(step / np.diff(j)) >= -1e-9).all()


def test_estimate_jstar_rejects_bad_fixed_delta():
    for delta in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(SpecConfigError, match="'delta'"):
            estimate_jstar(first_linear(2.0), [4], delta=delta)


def test_slope_estimate_sizing():
    spec = first_linear(3 * LN2)
    slope, a0 = slope_estimate(spec, 10)
    assert 32 <= a0 <= 1 << 10
    table = dp.dp_W(spec, 10, m_max=a0)
    assert slope == pytest.approx(-float(table.ln_w[a0]) / a0, rel=1e-12)


def test_minimal_certificate_depth():
    assert minimal_certificate_depth(Fraction(1, 2), 3) == 6
    assert minimal_certificate_depth(Fraction(1, 4), 3) == 9
    assert minimal_certificate_depth(1, 5) == 5
    assert minimal_certificate_depth(Fraction(3, 4), 2) == 6


def test_certificate_first_small_exact():
    spec = first_linear(LN2)
    cert = certificate_first(spec, Fraction(1, 2), 2)
    assert cert.exact_evaluation
    assert cert.n == 4
    a, b = cert.populations()
    # a_k = (3/2)^(j-k) 2^(n-j) for k <= j: a_2 = 4, a_1 = 6, a_0 = 9.
    assert a == [9, 6, 4, 2, 1]
    assert b == [9, 3, 2, 2, 1]
    p = cert.pattern()
    assert p.is_admissible()
    # Direct evaluation of the certificate sum (g = 0 here).
    want = sum(
        math.log(math.comb(a[k], b[k])) for k in range(1, 5)
    ) / a[0]
    assert cert.value == pytest.approx(want, rel=1e-13)


def test_certificate_first_errors():
    spec = first_linear(LN2)
    with pytest.raises(ValueError):
        certificate_first(spec, Fraction(1, 3), 2)  # not dyadic
    with pytest.raises(ValueError):
        certificate_first(spec, Fraction(3, 2), 2)  # outside (0, 1]
    with pytest.raises(ValueError):
        certificate_first(spec, Fraction(1, 2), 3, n=5)  # below minimal depth
    with pytest.raises(ValueError):
        certificate_first(spec, Fraction(1, 2), -1)


def test_certificate_first_stirling_crossover():
    # Same certificate evaluated exactly (n = 40 keeps a0 under 2^40) and
    # via the Stirling route (n = 41 pushes it over); for g = 0 the value
    # is insensitive to n, so the two routes must agree closely.
    spec = first_linear(LN2)
    lo = certificate_first(spec, Fraction(1, 2), 2, n=40)
    hi = certificate_first(spec, Fraction(1, 2), 2, n=41)
    assert lo.exact_evaluation and not hi.exact_evaluation
    assert hi.value == pytest.approx(lo.value, abs=1e-8)


def test_certificate_increments_toward_ln2():
    spec = first_linear(LN2)
    values = []
    for m in (2, 3, 4, 5):
        t = Fraction(1, 1 << m)
        values.append(certificate_first(spec, t, 4 << m).value)
    for prev, cur in zip(values, values[1:]):
        assert abs((cur - prev) - LN2) < 0.2 * LN2


def test_certificate_second_small_exact():
    spec = dgff_spec()
    cert = certificate_second(spec, Fraction(1, 2), 2)
    assert cert.exact_evaluation
    entries = cert.entries()
    # Row sums 2 b_k, one top entry, and exact column telescoping are all
    # validated internally; spot-check the shape here.
    assert entries[(cert.n + 1, cert.n)] == 1
    p = cert.pattern()
    assert p.is_consistent()
    assert entropy2(p) >= 1


def test_certificate_second_depth_default():
    cert = certificate_second(dgff_spec(), Fraction(1, 2), 1)
    assert cert.n >= 3
    with pytest.raises(ValueError):
        certificate_second(dgff_spec(), Fraction(1, 4), 2, n=3)


def test_certificate_second_stirling_route():
    spec = dgff_spec()
    lo = certificate_second(spec, Fraction(1, 2), 2, n=40)
    hi = certificate_second(spec, Fraction(1, 2), 2, n=41)
    assert lo.exact_evaluation and not hi.exact_evaluation
    # The dgff array has a genuine n-dependent tail, so allow the two
    # depths to differ by that one extra tail term plus Stirling error.
    assert hi.value == pytest.approx(lo.value, abs=1e-4)


def test_estimate_jstar_dgff():
    report = estimate_jstar(dgff_spec(), [10], label="dgff")
    assert report.kappa_kind == "kappa2"
    assert report.kappa_at_cutoff
    assert report.verdict == "transition-supported"
