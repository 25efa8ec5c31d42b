"""Brute-force enumeration over all leaf subsets at small depth.

Everything here walks the full power set of the 2^n leaves, so depth is
hard-capped at ORACLE_MAX_DEPTH = 4 (65536 subsets). The point is to be an
independent check on the dynamic programs: Phi is assembled from the
per-subset branching profiles (or the electrical capacity table), never from
the level recursions.

The profiles of all subsets come from one table per depth, built the way
``capacity.cap_table`` builds capacities: level by level, the mask of a
depth-d subtree is the pair [hi, lo] of its two half masks. Each mask
carries the age of its top branching point (a leaf is its own top, at age
0). Where both halves are nonempty the age-d root becomes a branching point,
the ancestor of both half tops; otherwise the nonempty half's top carries
over. At the end the top point of every nonempty mask gets the virtual
ancestor n + 1. This bottom-up merge is independent of the consecutive-meet
walk of the tests' branching profiles, which they compare it against.

The table is cached per depth and shared across parameter choices, so
repeated calls with different h or J only pay for a matrix product.

Every sum over subsets is exact up to one final rounding, as the standard
library's fsum is, but runs in numpy: each term is an integer mantissa
times a power of two, the mantissas are accumulated per group and
exponent band in bins that cannot round, and the bins of a group become one
Python int that is divided once (``_exact_sums``). ``enum_W`` sums every
size in one such pass.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import capacity as _capacity
from .clustering import SpecConfigError, check_family
from .dp import NEG_INF, CanonicalTable, LogReal, _check_j

ORACLE_MAX_DEPTH = 4


def _check_depth(n):
    if n > ORACLE_MAX_DEPTH:
        raise SpecConfigError(
            "depth", "enumeration over 2^%d subsets refused; depth <= %d only"
            % (1 << n, ORACLE_MAX_DEPTH)
        )
    if n < 0:
        raise SpecConfigError("depth", "must be nonnegative, got %d" % (n,))


class ProfileTable(NamedTuple):
    """Branching profiles of every subset of the depth-n leaves, rows by mask.

    ``second`` has one column per (ancestor age k, own age l) pair, in the
    order of ``np.tril_indices(n + 2, -1)`` (column k(k-1)/2 + l); ``first``
    sums it over k into the first-order profile b_0 .. b_n; ``sizes`` is
    b_0. The empty set has an all-zero row. Counts are at most 2^n <= 16.
    """

    second: np.ndarray
    first: np.ndarray
    sizes: np.ndarray


@lru_cache(maxsize=None)
def profile_table(n):
    """The profile table at depth n, by merging subtree halves level by level."""
    _check_depth(n)
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
    table = ProfileTable(counts, first, first[:, 0].astype(np.int64))
    for rows in table:
        rows.flags.writeable = False  # shared by every caller through the cache
    return table


@lru_cache(maxsize=None)
def _profile_groups(n):
    """The nonempty first-order profiles at depth n, for ``enum_maxterm``.

    Returns, per profile, the smallest mask with it, its size b_0 and ln of
    its number of masks.
    """
    table = profile_table(n)
    # one key per profile: b_0 .. b_n as base-32 digits (each b_l <= 16)
    key = table.first[1:].astype(np.int64) @ 32 ** np.arange(n + 1)
    _, rep, count = np.unique(key, return_index=True, return_counts=True)
    rep += 1
    groups = (rep, table.sizes[rep], np.array([math.log(c) for c in count]))
    for rows in groups:
        rows.flags.writeable = False  # shared by every caller through the cache
    return groups


def phi_vector(spec, n):
    """Phi for every subset bitmask at depth n, as a float array."""
    _check_depth(n)
    if spec.variant == "capacity":
        return _capacity.cap_table(n, spec.profile(n))
    check_family(spec, ("first", "second"), "phi_vector")
    if spec.variant == "first":
        phi = profile_table(n).first @ spec.h.array(n)
    else:
        phi = profile_table(n).second @ spec.h.array(n)[np.tril_indices(n + 2, -1)]
    phi += spec.h_const_at(n)
    phi[0] = 0.0
    return phi


def _ln_terms(spec, n, j):
    """ln of every subset's Boltzmann term J |A| - Phi(A); J is checked
    after ``phi_vector`` has checked the depth, which bounds J."""
    phi = phi_vector(spec, n)
    _check_j(j, n)
    return j * profile_table(n).sizes - phi


def _exact_sums(values, groups=None, count=1):
    """Correctly rounded sums of nonnegative finite floats, one per group.

    ``groups`` holds the group, in range(count), of each entry of
    ``values``, and broadcasts against it; by default all entries form one
    group. Each sum is the float fsum returns for its group, bit for bit,
    for up to 2^20 entries per group.

    With ``np.frexp``, a value is f 2^e = (hi + lo) 2^(8q - 1106) for
    q = (e + 1080) >> 3 >= 0, an integer hi = floor(f 2^(26 + e % 8)) below
    2^33 and a fraction lo, a multiple of 2^-27. ``np.bincount`` sums hi and
    lo per (group, q) exactly, as no bin reaches 2^53 units in its last
    place. A group's bins then add up to one integer, and int true division
    by a power of two rounds it once, correctly.
    """
    frac, exp = np.frexp(values)
    frac = np.ldexp(frac, (exp & 7) + 26)
    hi = np.floor(frac)
    frac -= hi
    exp += 1080
    exp >>= 3
    q_lo = min(int(exp.min()), 141)  # 8 q_lo <= 1133 keeps the divisor an int
    width = int(exp.max()) - q_lo + 1
    exp -= q_lo
    bins = (exp if groups is None else groups * width + exp).ravel()
    lo_sums = np.bincount(bins, frac.ravel(), count * width).reshape(count, width)
    hi_sums = np.bincount(bins, hi.ravel(), count * width).reshape(count, width)
    # word[g, k] < 2^57 counts units 2^(8 (k + q_lo) - 1133) of group g; hi
    # sits 27 bits above lo: 3 bytes, then a shift by 3. With 8 more bytes a
    # row holds its group's whole integer.
    row = width + 11
    word = np.zeros((count, row), dtype="<i8")
    word[:, :width] = lo_sums * 2.0**27
    word[:, 3:width + 3] += hi_sums.astype(np.int64) << 3
    # byte b of every word, read as one little-endian int, is shifted by 8b
    size = count * row
    octets = word.view(np.uint8).reshape(size, 8).T.tobytes()
    total = sum(int.from_bytes(octets[b * size:(b + 1) * size], "little") << 8 * b
                for b in range(8))
    rows = total.to_bytes(size, "little")
    unit = 1 << (1133 - 8 * q_lo)
    return [int.from_bytes(rows[g * row:(g + 1) * row], "little") / unit
            for g in range(count)]


def _log_sum(ln_terms):
    """ln sum exp over an array, with the max factored out."""
    mx = ln_terms.max()
    return mx + math.log(_exact_sums(np.exp(ln_terms - mx))[0])


def enum_phi(spec, ls):
    """Phi of a single leaf set, via the cached per-mask table."""
    return float(phi_vector(spec, ls.depth)[ls.mask])


def enum_Z(spec, n, j):
    """Grand partition function by direct summation over all subsets."""
    return LogReal(_log_sum(_ln_terms(spec, n, j)))


def enum_zeta(spec, n, j):
    return enum_Z(spec, n, j).ln / (1 << n)


def enum_W(spec, n):
    """Canonical table by summing subsets grouped by size, in one pass.

    Each size's terms are scaled by their largest; a size whose terms are
    all zero (Phi = inf throughout) gets ln W = -inf.
    """
    sizes = profile_table(n).sizes
    neg_phi = -phi_vector(spec, n)
    count = (1 << n) + 1
    mx = np.full(count, NEG_INF)
    np.maximum.at(mx, sizes, neg_phi)
    shift = np.where(mx > NEG_INF, mx, 0.0)  # -inf - -inf would be nan
    sums = _exact_sums(np.exp(neg_phi - shift[sizes]), sizes, count)
    ln_w = np.array([m + math.log(s) if s > 0 else NEG_INF
                     for m, s in zip(mx.tolist(), sums)])
    return CanonicalTable(n, ln_w, kind="sum", source="enum")


def enum_maxterm(spec, n):
    """ln of the single largest Boltzmann term at each size.

    For first-order specs every subset with the same profile has the same
    weight, so the size-a0 maximum over subsets times its multiplicity N(b)
    is what dp_W_maxterm reports; this helper returns the profile-level
    quantity by grouping subsets by profile.
    """
    _check_depth(n)
    check_family(spec, ("first",), "enum_maxterm")
    rep, sizes, ln_count = _profile_groups(n)
    neg_phi = -phi_vector(spec, n)[rep]
    ln_w = np.full((1 << n) + 1, NEG_INF)
    np.maximum.at(ln_w, sizes, ln_count + neg_phi)
    ln_w[0] = 0.0
    return CanonicalTable(n, ln_w, kind="max", source="enum")


def enum_density(spec, n, j):
    """Mean occupied fraction by direct summation."""
    ln_terms = _ln_terms(spec, n, j)
    pop = profile_table(n).sizes
    mx = ln_terms.max()
    w = np.exp(ln_terms - mx)
    occupied, total = _exact_sums(np.stack((w * pop, w)), np.array([[0], [1]]), 2)
    return occupied / total / (1 << n)
