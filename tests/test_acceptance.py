"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single ``[acceptance] NN name: PASS/FAIL`` line before
asserting, so a plain ``pytest -s tests/test_acceptance.py`` doubles as the
release checklist. Tolerances, case counts, and runtime ceilings are part of
the contract and are asserted, not just reported. Randomized criteria run on
pinned seeds: a green run is reproducible, not probabilistic.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from pwckit import dp, oracle
from pwckit.analysis import (
    estimate_jstar,
    kappa1,
    kappa2,
    laplace_first,
    tauberian_first,
)
from pwckit.capacity import (
    ConductanceProfile,
    cap_quadratic,
    cap_reduce,
    cap_table,
)
from pwckit.clustering import (
    FirstOrderClustering,
    HArray,
    HSequence,
    SecondOrderClustering,
    dgff_spec,
    first_linear,
    random_capacity,
    random_first_order,
    random_second_order,
    zero_spec,
)
from pwckit.sampler import sample
from pwckit.tree import LeafSet

from paper import (
    ExactDistribution,
    Pattern2,
    certificate_first,
    check_monotone,
    empirical_density,
    entropy1,
    entropy2,
    enumerate_patterns1,
    pattern2_of,
)

LN2 = math.log(2.0)


def _report(number, name, ok, detail=""):
    line = "[acceptance] %02d %s: %s" % (number, name, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += " (%s)" % detail
    print(line)
    assert ok, detail or name


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_01_zero_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 21):
        for j in range(-3, 4):
            z = dp.zeta(zero_spec(), n, float(j))
            rho = dp.dp_density(zero_spec(), n, float(j))
            worst = max(worst, abs(z - math.log1p(math.exp(j))))
            worst = max(worst, abs(rho - 1.0 / (1.0 + math.exp(-j))))
    elapsed = time.perf_counter() - t0
    _report(1, "zero-closed-form", worst < 1e-10 and elapsed < 1.0,
            "worst=%g elapsed=%.2fs" % (worst, elapsed))


def test_02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    bad = []
    for draw in range(50):
        j = float(rng.uniform(-2.0, 3.0))
        for n in range(1, 5):
            first = random_first_order(n, rng)
            second = random_second_order(n, rng)
            for spec in (first, second):
                if _rel(dp.dp_Z(spec, n, j).ln,
                        oracle.enum_Z(spec, n, j).ln) >= 1e-9:
                    bad.append(("Z", spec.variant, n, draw))
                table = dp.dp_W(spec, n)
                ref = oracle.enum_W(spec, n)
                for a0 in range((1 << n) + 1):
                    x, y = float(table.ln_w[a0]), float(ref.ln_w[a0])
                    if math.isinf(x) and math.isinf(y):
                        continue
                    if _rel(x, y) >= 1e-9:
                        bad.append(("W", spec.variant, n, draw, a0))
            # Capacity has no subtree recursion; its two independent
            # routes are mask enumeration vs composition from cap_table.
            cap = random_capacity(n, rng)
            caps = cap_table(n, cap.profile(n))
            counts = np.array([bin(m).count("1") for m in range(1 << (1 << n))],
                              dtype=float)
            direct = float(
                np.logaddexp.reduce(j * counts - caps)
            )
            if _rel(direct, oracle.enum_Z(cap, n, j).ln) >= 1e-9:
                bad.append(("Zcap", n, draw))
            ref = oracle.enum_W(cap, n)
            for a0 in range((1 << n) + 1):
                grouped = float(np.logaddexp.reduce(-caps[counts == a0]))
                if _rel(grouped, float(ref.ln_w[a0])) >= 1e-9:
                    bad.append(("Wcap", n, draw, a0))
    elapsed = time.perf_counter() - t0
    _report(2, "oracle-equivalence", not bad and elapsed < 120.0,
            "failures=%r elapsed=%.1fs" % (bad[:5], elapsed))


def test_03_entropy_completeness():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        # a0 = 0 is the patternless empty-set term, fixed to W = 1.
        if float(dp.dp_W(zero_spec(), n).ln_w[0]) != 0.0:
            ok = False
        for a0 in range(1, (1 << n) + 1):
            total = sum(entropy1(p) for p in enumerate_patterns1(n, a0))
            if total != math.comb(1 << n, a0):
                ok = False
    # Second order, via exhaustive classification: subsets sharing a
    # pattern must number exactly that pattern's count, and the patterns
    # of one size partition the subsets of that size.
    for n in range(1, 4):
        groups = Counter()
        for mask in range(1, 1 << (1 << n)):
            ls = LeafSet.from_mask(n, mask)
            groups[tuple(sorted(pattern2_of(ls).nonzero().items()))] += 1
        per_size = Counter()
        for key, seen in groups.items():
            p = Pattern2.from_counts(n, dict(key))
            if entropy2(p) != seen:
                ok = False
            per_size[p.size] += seen
        for a0, total in per_size.items():
            if total != math.comb(1 << n, a0):
                ok = False
    elapsed = time.perf_counter() - t0
    _report(3, "entropy-completeness", ok and elapsed < 60.0,
            "elapsed=%.1fs" % elapsed)


def test_04_monotonicity_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for n in (2, 3):
        for spec in (
            random_first_order(n, rng),
            random_second_order(n, rng),
            random_capacity(n, rng),
            first_linear(3 * LN2),
        ):
            rep = check_monotone(spec, n, size_limit=4)
            if not rep.ok:
                ok = False
    # A decreasing weight sequence must produce a witness.
    bad_spec = FirstOrderClustering(
        HSequence([0.0, 5.0, 1.0, 1.0]), h_const=5.0
    )
    rep = check_monotone(bad_spec, 3, size_limit=4)
    witnessed = (not rep.ok) and (
        len(rep.order_violations) + len(rep.subadditive_violations) >= 1
    )
    elapsed = time.perf_counter() - t0
    _report(4, "monotonicity-suites", ok and witnessed and elapsed < 120.0,
            "valid_ok=%r witnessed=%r elapsed=%.1fs" % (ok, witnessed, elapsed))


def test_05_capacity_routes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    for case in range(200):
        n = int(rng.integers(1, 7))
        profile = ConductanceProfile(
            tuple(float(x) for x in rng.lognormal(0.0, 0.7, size=n))
        )
        num = int(rng.integers(1, (1 << n) + 1))
        leaves = tuple(
            int(v) for v in rng.choice(1 << n, size=num, replace=False)
        )
        a = LeafSet(n, leaves)
        x, y = cap_reduce(a, profile), cap_quadratic(a, profile)
        if _rel(x, y) >= 1e-9:
            ok = False
        # Linear bound with C_0 the leaf-edge conductance.
        if x > profile.values[0] * len(a) + 1e-12:
            ok = False
        # Subadditivity against a second random set.
        num_b = int(rng.integers(1, (1 << n) + 1))
        b = LeafSet(
            n,
            tuple(int(v) for v in rng.choice(1 << n, size=num_b, replace=False)),
        )
        union = LeafSet(n, tuple(set(a.leaves) | set(b.leaves)))
        if cap_reduce(union, profile) > x + cap_reduce(b, profile) + 1e-9:
            ok = False
    full_ok = True
    for n in range(1, 9):
        half = ConductanceProfile.uniform(n, 0.5)
        got = cap_reduce(LeafSet(n, tuple(range(1 << n))), half)
        if abs(got - 1.0 / (2.0 - 2.0 ** (1 - n))) >= 1e-12:
            full_ok = False
    elapsed = time.perf_counter() - t0
    _report(5, "capacity-routes", ok and full_ok and elapsed < 60.0,
            "routes=%r full=%r elapsed=%.1fs" % (ok, full_ok, elapsed))


def test_06_wetting_transition_linear3ln2():
    t0 = time.perf_counter()
    spec = first_linear(3 * LN2)
    rep = kappa1(spec)
    lower = 2 * LN2 + math.log(3.0)
    ok = (
        abs(rep.value - 1.0 / 3.0) < 1e-12
        and abs(rep.lower_bound - lower) < 1e-12
    )
    report = estimate_jstar(spec, [18])
    upper = report.jstar_upper[0]
    ok = ok and math.isfinite(upper) and upper >= lower
    ok = ok and report.verdict == "transition-supported"
    elapsed = time.perf_counter() - t0
    _report(6, "wetting-transition", ok and elapsed < 10.0,
            "kappa1=%r upper=%r elapsed=%.1fs" % (rep.value, upper, elapsed))


def test_07_no_transition_boundary():
    t0 = time.perf_counter()
    spec = first_linear(LN2)
    ok = tauberian_first(spec).verdict == "no-transition-supported"
    grid = [2.0 ** (-a) for a in range(2, 11)]
    curve = laplace_first(spec, grid)
    diffs = np.diff(curve.diag)
    ok = ok and bool(np.all(diffs > 0)) and curve.diag[-1] > 5.0
    values = []
    for m in range(2, 9):
        t = Fraction(1, 1 << m)
        values.append(certificate_first(spec, t, 4 << m).value)
    for prev, cur in zip(values, values[1:]):
        if abs((cur - prev) - LN2) >= 0.2 * LN2:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(7, "no-transition-boundary", ok and elapsed < 10.0,
            "increments=%r elapsed=%.1fs" %
            ([round(b - a, 4) for a, b in zip(values, values[1:])], elapsed))


def test_08_second_order_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    ok = True
    for case in range(20):
        steps = rng.exponential(0.5, size=14)
        h = np.concatenate([[0.0], np.cumsum(steps)])
        seq = HSequence([float(x) for x in h])
        const = float(h[-1] + rng.uniform(0.0, 1.0))
        first = FirstOrderClustering(seq, h_const=const)
        # The array depends only on the branching age, not the ancestor age.
        second = SecondOrderClustering(
            HArray(lambda k, l, s=seq: s(l)),
            h_const=const,
        )
        j = float(rng.uniform(-2.0, 3.0))
        for n in (1, 4, 8, 12):
            a = dp.dp_Z(first, n, j).ln
            b = dp.dp_Z(second, n, j).ln
            if _rel(a, b) >= 1e-10:
                ok = False
    elapsed = time.perf_counter() - t0
    _report(8, "second-order-reduction", ok and elapsed < 60.0,
            "elapsed=%.1fs" % elapsed)


def test_09_dgff_preset():
    t0 = time.perf_counter()
    rep = kappa2(dgff_spec(), k_max=100000)
    ok = math.isfinite(rep.value) and rep.at_cutoff
    report = estimate_jstar(dgff_spec(), [16])
    upper = report.jstar_upper[0]
    ok = ok and math.isfinite(upper)
    ok = ok and report.verdict == "transition-supported"
    elapsed = time.perf_counter() - t0
    _report(9, "dgff-preset", ok and elapsed < 60.0,
            "kappa2=%r upper=%r elapsed=%.1fs" % (rep.value, upper, elapsed))


def test_10_sampler_exactness():
    t0 = time.perf_counter()
    spec = FirstOrderClustering(HSequence(lambda k: 1.0 * k))
    dist = ExactDistribution.compute(spec, 3, 0.5)
    draws = sample(spec, 3, 0.5, seed=2026, num_samples=100000)
    counts = Counter(s.mask for s in draws)
    tv = dist.tv_distance({m: c / 100000.0 for m, c in counts.items()})
    ok = tv < 0.02

    # Goodness of fit at the 0.001 level over 20 pinned runs; at that level
    # more than one rejection would be wildly unlikely for a correct sampler.
    small = ExactDistribution.compute(spec, 2, 0.5)
    expected = 5000.0 * np.array([small.prob(m) for m in range(16)])
    rejections = 0
    for run in range(20):
        batch = sample(spec, 2, 0.5, seed=3000 + run, num_samples=5000)
        obs = np.bincount([s.mask for s in batch], minlength=16)
        _, pval = scipy.stats.chisquare(obs, expected)
        if pval < 0.001:
            rejections += 1
    ok = ok and rejections <= 1

    configs = []
    for sp in (zero_spec(), spec, dgff_spec()):
        for n in (2, 3):
            for j in (-1.0, 0.5, 2.0):
                configs.append((sp, n, j))
    configs.append((spec, 4, 1.0))
    configs.append((zero_spec(), 4, 0.0))
    misses = 0
    for idx, (sp, n, j) in enumerate(configs):
        est = empirical_density(sp, n, j, num_samples=3000, seed=4000 + idx)
        lo, hi = est.interval(z=3.0)
        if not (lo <= dp.dp_density(sp, n, j) <= hi):
            misses += 1
    ok = ok and misses == 0 and len(configs) == 20
    elapsed = time.perf_counter() - t0
    _report(10, "sampler-exactness", ok,
            "tv=%.4f rejections=%d misses=%d elapsed=%.1fs"
            % (tv, rejections, misses, elapsed))


def test_11_maxterm_gap():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    ok = True
    for case in range(10):
        n = int(rng.integers(1, 9))
        spec = random_first_order(n, rng)
        full = dp.dp_W(spec, n)
        peak = dp.dp_W_maxterm(spec, n)
        if float(full.ln_w[0]) != 0.0 or float(peak.ln_w[0]) != 0.0:
            ok = False
        for a0 in range(1, (1 << n) + 1):
            gap = float(full.ln_w[a0]) - float(peak.ln_w[a0])
            if not (-1e-9 <= gap <= n * n * math.log(2.0 * a0) + 1e-9):
                ok = False
    elapsed = time.perf_counter() - t0
    _report(11, "maxterm-gap", ok and elapsed < 60.0,
            "elapsed=%.1fs" % elapsed)


def test_12_near_critical_exponent():
    """How the dry density vanishes at J* for h_k = c k, c > ln 2.

    With u_d = e^{-h_{d+1}} F_d the level recursion becomes the map
    u -> f(u) = e^{-c} (2 u + u^2), started at u_0 = e^{J - c}. Its fixed
    point u* = e^c - 2 is hit by u_0 at J* = c + ln(e^c - 2), and its
    multiplier f'(u*) = 2 - 2 e^{-c} = lambda lies in (1, 2). Below u* the
    orbit falls to 0, so ln F_n = O(n) and zeta = 0 for J <= J*. Above it
    ln u_d doubles per level once u_d >> 1, and zeta = G(u_0) with
    G(u) = lim 2^-d ln u_d, so that G(f(u)) = 2 G(u).

    Proved from this: Koenigs' theorem gives an analytic coordinate
    y = u* eps + O(eps^2) near u*, with u_0 = u* e^eps, in which f acts as
    y -> lambda y. So G(lambda y) = 2 G(y), and
    zeta(J* + eps) = eps^alpha P(ln eps + O(eps)) (1 + O(eps)) with
    alpha = ln 2 / ln lambda and P positive and periodic, of period
    ln lambda.

    Not proved, and pinned here: that P is constant to within the tolerance
    (ripples in it would show as slopes that swing with ln eps), and hence
    that rho = zeta' vanishes like eps^beta, beta = alpha - 1 > 0. Then the
    transition is continuous, beta -> 0 as c -> inf and beta -> inf as
    c -> ln 2. Depth 256 stands for the limit. The local log-log slopes of
    rho_256 and zeta_256 between neighbouring eps = 10^-3 .. 10^-10 are
    compared with beta and 1 + beta. The largest deviation measured is
    4.5e-4, at c = 1 between eps = 10^-3 and 10^-4, and it falls tenfold per
    decade of eps, as the O(eps) corrections do; the tolerance is about
    twice that.
    """
    t0 = time.perf_counter()
    eps = 10.0 ** -np.arange(3, 11)
    ok, worst = True, []
    for c in (1.0, 2.0, 3 * LN2):
        spec = first_linear(c)
        j = c + math.log(math.exp(c) - 2.0) + eps
        beta = LN2 / math.log(2.0 - 2.0 * math.exp(-c)) - 1.0
        ln_eps = np.log(eps)
        rho = np.diff(np.log(dp.dp_density(spec, 256, j))) / np.diff(ln_eps)
        zeta = np.diff(np.log(dp.zeta(spec, 256, j))) / np.diff(ln_eps)
        dev = max(np.abs(rho - beta).max(), np.abs(zeta - 1.0 - beta).max())
        worst.append(float(dev))
        ok = ok and dev < 1e-3
    elapsed = time.perf_counter() - t0
    _report(12, "near-critical-exponent", ok and elapsed < 2.0,
            "deviations=%r elapsed=%.2fs" % (worst, elapsed))
