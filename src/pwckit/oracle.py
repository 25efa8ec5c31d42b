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
walk in ``patterns``, which the tests compare it against.

The table is cached per depth and shared across parameter choices, so
repeated calls with different h or J only pay for a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import capacity as _capacity
from .clustering import SpecConfigError, UnsupportedVariant
from .dp import NEG_INF, CanonicalTable, LogReal
from .tree import LeafSet

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


def phi_vector(spec, n):
    """Phi for every subset bitmask at depth n, as a float array."""
    _check_depth(n)
    if spec.variant == "zero":
        return np.zeros(1 << (1 << n))
    if spec.variant == "capacity":
        return _capacity.cap_table(n, spec.profile(n))
    if spec.variant == "first":
        phi = profile_table(n).first @ spec.h.array(n)
    elif spec.variant == "second":
        phi = profile_table(n).second @ spec.h.array(n)[np.tril_indices(n + 2, -1)]
    else:
        raise UnsupportedVariant("unknown variant %r" % (spec.variant,))
    phi += spec.h_const_at(n)
    phi[0] = 0.0
    return phi


def _ln_terms(spec, n, j):
    """ln of every subset's Boltzmann term J |A| - Phi(A)."""
    return j * profile_table(n).sizes - phi_vector(spec, n)


def _log_sum(ln_terms):
    """ln sum exp over an array, with the max factored out and fsum."""
    mx = ln_terms.max()
    return mx + math.log(math.fsum(np.exp(ln_terms - mx)))


def enum_phi(spec, ls):
    """Phi of a single leaf set, via the cached per-mask table."""
    return float(phi_vector(spec, ls.depth)[ls.mask])


def enum_Z(spec, n, j):
    """Grand partition function by direct summation over all subsets."""
    return LogReal(_log_sum(_ln_terms(spec, n, j)))


def enum_zeta(spec, n, j):
    return enum_Z(spec, n, j).ln / (1 << n)


def enum_W(spec, n):
    """Canonical table by grouping subsets by size."""
    sizes = profile_table(n).sizes
    neg_phi = -phi_vector(spec, n)
    ln_w = np.array([_log_sum(neg_phi[sizes == a0]) for a0 in range((1 << n) + 1)])
    return CanonicalTable(n, ln_w, kind="sum", source="enum")


def enum_maxterm(spec, n):
    """ln of the single largest Boltzmann term at each size.

    For first-order specs every subset with the same profile has the same
    weight, so the size-a0 maximum over subsets times its multiplicity N(b)
    is what dp_W_maxterm reports; this helper returns the profile-level
    quantity by grouping subsets by profile.
    """
    _check_depth(n)
    if spec.variant not in ("zero", "first"):
        raise UnsupportedVariant(
            "profile maxima are defined for first-order specs only"
        )
    table = profile_table(n)
    neg_phi = -phi_vector(spec, n)
    # one key per profile: b_0 .. b_n as base-32 digits (each b_l <= 16)
    key = table.first[1:].astype(np.int64) @ 32 ** np.arange(n + 1)
    _, rep, count = np.unique(key, return_index=True, return_counts=True)
    rep += 1  # the smallest mask with each profile
    ln_w = np.full((1 << n) + 1, NEG_INF)
    np.maximum.at(ln_w, table.sizes[rep],
                  [math.log(c) for c in count] + neg_phi[rep])
    ln_w[0] = 0.0
    return CanonicalTable(n, ln_w, kind="max", source="enum")


def enum_density(spec, n, j):
    """Mean occupied fraction by direct summation."""
    ln_terms = _ln_terms(spec, n, j)
    pop = profile_table(n).sizes
    mx = ln_terms.max()
    w = np.exp(ln_terms - mx)
    return math.fsum(w * pop) / math.fsum(w) / (1 << n)


@dataclass(frozen=True)
class ExactDistribution:
    """The full law over subsets at small depth, for sampler validation."""

    depth: int
    j: float
    log_probs: np.ndarray

    @classmethod
    def compute(cls, spec, n, j):
        ln_terms = _ln_terms(spec, n, j)
        log_probs = ln_terms - _log_sum(ln_terms)
        total = math.fsum(np.exp(log_probs))
        if abs(total - 1.0) > 1e-12:
            raise AssertionError(
                "distribution normalizes to %.17g" % (total,)
            )
        return cls(n, j, log_probs)

    def prob(self, subset):
        if isinstance(subset, LeafSet):
            subset = subset.mask
        return math.exp(self.log_probs[subset])

    def probs(self):
        return np.exp(self.log_probs)

    def tv_distance(self, counts):
        """Total variation between the law and empirical mask counts.

        ``counts`` maps bitmask to a draw count (or is a dense array).
        """
        emp = np.zeros(1 << (1 << self.depth))
        if isinstance(counts, dict):
            for mask, c in counts.items():
                emp[mask] = c
        else:
            emp[: len(counts)] = counts
        emp /= emp.sum()
        return 0.5 * float(np.abs(emp - self.probs()).sum())
