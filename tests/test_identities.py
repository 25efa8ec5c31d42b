"""Metamorphic identities of the recursions, past the oracle's depth.

Each identity holds exactly in real arithmetic at every depth, so it checks
the float kernels at sizes that ``pwckit verify`` (one J, depth <= 4) never
reaches: level passes over 121-point J grids at depths up to 64, where
second order follows the row plan and the grid is split into chunks, and
``dp_W`` tables up to depth 12, whose size convolution spans several row
blocks. ``dp._BLOCK`` is lowered to 1536 entries here, so that a
second-order pass at depth n runs chunks of 1536 // (n + 2) J, each past
the row plan's work rule from depth 11 (two chunks of 118 and 3 J) to 64
(six chunks of 23 J or fewer); a chunk's J are computed on their own, so
chunking changes no float.

(a) and (b) hold level by level and row by row, so they cannot see a row
or a J routed to the wrong place; (c) compares the level pass with
``dp_W``, which runs every row and every J at once, so it is the one that
sees the row plan and the chunks, from depth 9 and 11 on.

(a) Z_n depends on J and the age-0 weights only through J - h_0 (second
    order: J - h[k][0] for every ancestor age k). With J, the shift alpha
    and every age-0 weight on the grid of eighths, every shift is exact, so
    ln Z_n keeps every bit.
(b) A nonempty leaf set has |A| - 1 branching points of age >= 1, so
    adding alpha to every weight of age >= 1 gives
    Z_n(J - alpha; h, h_const - alpha). The two sides round differently, so
    they agree to ``REL`` relative to max(1, |ln Z_n|).
(c) sum_m W_n(m) e^{J m} = Z_n(J): the log-sum-exp of ln W_n(m) + J m over
    the canonical table agrees with ln Z_n(J) to ``REL`` as well.

``REL`` = 2^-36 (about 1.5e-11) is 64 n eps at n = 1000, the float ulp
eps = 2^-52, far above what these depths accrue: the largest relative gap
seen over these draws is below 1e-14.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from pwckit import FirstOrderClustering, HArray, HSequence, SecondOrderClustering, dp

REL = 2.0**-36

#: ``dp._BLOCK`` in these tests
BLOCK = 1536

#: a 121-point J grid on the eighths, -7.5 .. 7.5
GRID = np.arange(-60, 61) / 8


def _spec(weights, const):
    """A first-order spec of the weight list, or a second-order one of the
    square table (row k holds h[k][0 .. k-1])."""
    if weights.ndim == 1:
        return FirstOrderClustering(HSequence(weights), const)
    return SecondOrderClustering(HArray([row[:k] for k, row in enumerate(weights)]), const)


@st.composite
def weights(draw, max_depth):
    """``(order, n, weights, const)``: random weights at depth n, age-0
    weights on the eighths, and a constant. In second order row a repeats
    the root row's first floor(u a) weights, for a u drawn in [0, 1], so the
    row plan shares rows, as it does in the dgff triangle (u = 1/2)."""
    order = draw(st.sampled_from(["first", "second"]))
    n = draw(st.integers(0, max_depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n + 1,) if order == "first" else (n + 2, n + 2)
    w = rng.normal(0.0, 2.0, size=shape)
    w[..., 0] = rng.integers(-32, 33, size=shape[:-1]) / 8  # the last axis is the age
    if order == "second":
        u = draw(st.floats(0.0, 1.0))
        for a in range(1, n + 1):
            w[a, : int(u * a)] = w[n + 1, : int(u * a)]
    return order, n, w, float(rng.normal(0.0, 4.0))


def _close(a, b):
    return np.all(np.abs(a - b) <= REL * np.maximum(1.0, np.abs(b)))


@settings(max_examples=25)
@given(weights(64), st.integers(-40, 40))
def test_shifting_j_and_the_age0_weights_keeps_every_bit(case, shift):
    _, n, w, const = case
    alpha = shift / 8
    moved = w.copy()
    moved[..., 0] += alpha
    with mock.patch.object(dp, "_BLOCK", BLOCK):
        ln_z = dp.zeta(_spec(w, const), n, GRID)
        ln_moved = dp.zeta(_spec(moved, const), n, GRID + alpha)
    assert ln_z.tobytes() == ln_moved.tobytes()


@settings(max_examples=25)
@given(weights(64), st.floats(-3.0, 3.0))
def test_adding_alpha_past_age0_shifts_j_and_the_constant(case, alpha):
    _, n, w, const = case
    raised = w.copy()
    raised[..., 1:] += alpha
    with mock.patch.object(dp, "_BLOCK", BLOCK):
        ln_raised = dp.zeta(_spec(raised, const), n, GRID) * 2.0**n
        ln_z = dp.zeta(_spec(w, const - alpha), n, GRID - alpha) * 2.0**n
    assert _close(ln_raised, ln_z)


@settings(max_examples=30)
@given(weights(12))
def test_canonical_table_sums_to_the_partition_function(case):
    _, n, w, const = case
    spec = _spec(w, const)
    with mock.patch.object(dp, "_BLOCK", BLOCK):
        ln_w = dp.dp_W(spec, n, allow_large=True).ln_w
        ln_z = dp.zeta(spec, n, GRID) * 2.0**n
    terms = ln_w[None, :] + GRID[:, None] * np.arange(len(ln_w))
    top = terms.max(axis=1)
    summed = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    assert _close(summed, ln_z)
