import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwckit import dp
from pwckit.analysis import (
    BracketError,
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
