import math
from fractions import Fraction

import numpy as np
import pytest

from pwckit import dp
from pwckit.analysis import (
    BracketError,
    OmegaCurve,
    binary_entropy,
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
    capacity_uniform,
    dgff_spec,
    first_linear,
    first_logcorrected,
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
    with pytest.raises(ValueError):
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
    h = first_linear(LN2).h
    cert = certificate_first(h, Fraction(1, 2), 2)
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
    h = first_linear(LN2).h
    with pytest.raises(ValueError):
        certificate_first(h, Fraction(1, 3), 2)  # not dyadic
    with pytest.raises(ValueError):
        certificate_first(h, Fraction(3, 2), 2)  # outside (0, 1]
    with pytest.raises(ValueError):
        certificate_first(h, Fraction(1, 2), 3, n=5)  # below minimal depth
    with pytest.raises(ValueError):
        certificate_first(h, Fraction(1, 2), -1)


def test_certificate_first_stirling_crossover():
    # Same certificate evaluated exactly (n = 40 keeps a0 under 2^40) and
    # via the Stirling route (n = 41 pushes it over); for g = 0 the value
    # is insensitive to n, so the two routes must agree closely.
    h = first_linear(LN2).h
    lo = certificate_first(h, Fraction(1, 2), 2, n=40)
    hi = certificate_first(h, Fraction(1, 2), 2, n=41)
    assert lo.exact_evaluation and not hi.exact_evaluation
    assert hi.value == pytest.approx(lo.value, abs=1e-8)


def test_certificate_increments_toward_ln2():
    h = first_linear(LN2).h
    values = []
    for m in (2, 3, 4, 5):
        t = Fraction(1, 1 << m)
        values.append(certificate_first(h, t, 4 << m).value)
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
