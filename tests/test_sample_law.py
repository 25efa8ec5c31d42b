"""The sampler's law of |A| against the canonical table, at depths 5..12.

At depth n the size of an exact draw has the law

    P(|A| = m) = W_n(m) e^{J m} / Z_n,

with W_n the canonical table of ``dp_W``. ``dp_W`` runs the size convolution,
a code path apart from the sampler's level tables (they share only
``dp._weights``), so matching this law checks the sampler past the depths
where the full law over subsets can be listed.

Each check pools consecutive sizes into bins of expected count at least
``MIN_EXPECTED`` (the tails join their neighbours) and runs an exact
two-sided binomial test per bin. It fails when any bin's p-value is below
``ALPHA`` over the number of bins (Bonferroni), so a correct sampler fails a
check with probability at most ``ALPHA``, whatever the seed.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from pwckit import dp, parse_preset
from pwckit.sampler import sample

#: false-alarm rate per check
ALPHA = 1e-4

#: least expected count of a pooled size bin
MIN_EXPECTED = 10.0


def size_law(spec, n, j):
    """P(|A| = m) for m = 0 .. 2^n from the canonical table."""
    ln_p = dp.dp_W(spec, n).ln_w + j * np.arange((1 << n) + 1) - dp.dp_Z(spec, n, j).ln
    with np.errstate(under="ignore"):
        return np.exp(ln_p)


def size_bins(expected):
    """Bin edges over sizes: each bin holds expected count >= MIN_EXPECTED,
    the last one absorbing a short remainder."""
    edges, acc = [0], 0.0
    for m, e in enumerate(expected):
        acc += e
        if acc >= MIN_EXPECTED:
            edges.append(m + 1)
            acc = 0.0
    if edges[-1] != len(expected):
        if len(edges) > 1:
            edges[-1] = len(expected)
        else:
            edges.append(len(expected))
    return edges


def binomial_p_values(counts, probs, num):
    """Two-sided exact binomial p-values of ``counts`` out of ``num``."""
    lower = binom.cdf(counts, num, probs)
    upper = binom.sf(counts - 1, num, probs)
    return np.minimum(1.0, 2.0 * np.minimum(lower, upper))


def size_law_p_values(spec, n, j, num, seed):
    """Per-bin p-values of ``num`` draws' sizes against the size law."""
    law = size_law(spec, n, j)
    assert math.isclose(law.sum(), 1.0, rel_tol=1e-9)
    sizes = np.array([len(s) for s in sample(spec, n, j, seed=seed, num_samples=num)])
    edges = size_bins(num * law)
    probs = np.add.reduceat(law, edges[:-1])
    counts = np.add.reduceat(np.bincount(sizes, minlength=len(law)), edges[:-1])
    return binomial_p_values(counts, probs, num)


#: the five regimes of the benchmark's sample workload, (preset, J), each at
#: two depths, with draws per depth (about 1e5 leaves or fewer per check)
REGIMES = [
    ("zero", 0.0, ((6, 3000), (10, 600))),
    ("first:linear:3ln2", 0.5, ((5, 2000), (10, 2000))),
    ("first:logcorrected", 1.0, ((5, 4000), (8, 2000))),
    ("dgff", 0.5, ((5, 4000), (8, 2000))),
    ("dgff", 0.5, ((7, 3000), (10, 1000))),
]

CASES = [(preset, n, j, num, 700 + 10 * r + k)
         for r, (preset, j, depths) in enumerate(REGIMES)
         for k, (n, num) in enumerate(depths)]


@pytest.mark.parametrize("preset,n,j,num,seed", CASES,
                         ids=["%s-n%d" % (c[0], c[1]) for c in CASES])
def test_size_law_matches_canonical_table(preset, n, j, num, seed):
    p = size_law_p_values(parse_preset(preset), n, j, num, seed)
    assert p.min() >= ALPHA / len(p), (p.min(), len(p))


def test_size_bins_pool_the_tails():
    assert size_bins([1.0, 2.0, 30.0, 9.0, 3.0]) == [0, 3, 5]
    assert size_bins([4.0, 4.0]) == [0, 2]
    assert size_bins([12.0, 11.0]) == [0, 1, 2]
    # a sampler that draws far from the law fails; the exact law passes
    law = np.array([0.25, 0.5, 0.25])
    assert binomial_p_values(np.array([25, 50, 25]), law, 100).min() == 1.0
    assert binomial_p_values(np.array([50, 30, 20]), law, 100).min() < 1e-5
