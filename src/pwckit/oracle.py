"""Brute-force enumeration over all leaf subsets at small depth.

Everything here walks the full power set of the 2^n leaves, so depth is
hard-capped at ORACLE_MAX_DEPTH = 4 (65536 subsets). The point is to be an
independent check on the dynamic programs: Phi is assembled from the
per-subset branching profiles (or the electrical capacity table), never from
the level recursions.

The profile matrices are cached per depth and shared across parameter
choices, so repeated calls with different h or J only pay for a matrix
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import capacity as _capacity
from .clustering import UnsupportedVariant
from .dp import CanonicalTable
from .logdomain import LogReal, NEG_INF
from .tree import LeafSet, leaf_meet_age

ORACLE_MAX_DEPTH = 4


def _check_depth(n):
    if n > ORACLE_MAX_DEPTH:
        raise ValueError(
            "enumeration over 2^%d subsets refused (depth cap %d)"
            % (1 << n, ORACLE_MAX_DEPTH)
        )
    if n < 0:
        raise ValueError("depth must be nonnegative")


@lru_cache(maxsize=None)
def _popcounts(n):
    return np.array([m.bit_count() for m in range(1 << (1 << n))], dtype=np.int64)


@lru_cache(maxsize=None)
def _pattern1_matrix(n):
    """Rows indexed by leaf-set bitmask, columns by age k = 0 .. n.

    Row m holds the first-order profile b_k of the subset with mask m; the
    empty row is all zero, so Phi contributions must skip mask 0 separately.
    """
    rows = np.zeros((1 << (1 << n), n + 1), dtype=np.int64)
    for mask in range(1, 1 << (1 << n)):
        leaves = [i for i in range(1 << n) if mask >> i & 1]
        rows[mask, 0] = len(leaves)
        for x, y in zip(leaves, leaves[1:]):
            rows[mask, leaf_meet_age(x, y)] += 1
    return rows


@lru_cache(maxsize=None)
def _pattern2_matrix(n):
    """Rows indexed by bitmask, columns by the (ancestor age, own age) pairs
    in the row-major order of ``np.tril_indices(n + 2, -1)``."""
    from collections import defaultdict

    pairs = zip(*(a.tolist() for a in np.tril_indices(n + 2, -1)))
    index = {kl: i for i, kl in enumerate(pairs)}
    rows = np.zeros((1 << (1 << n), len(index)), dtype=np.int64)
    for mask in range(1, 1 << (1 << n)):
        leaves = [i for i in range(1 << n) if mask >> i & 1]
        counts = defaultdict(int)
        _collect_pattern2(leaves, n + 1, counts)
        for kl, c in counts.items():
            rows[mask, index[kl]] = c
    return rows


def _collect_pattern2(leaves, ancestor, out):
    if len(leaves) == 1:
        out[(ancestor, 0)] += 1
        return
    ages = [leaf_meet_age(x, y) for x, y in zip(leaves, leaves[1:])]
    oldest = max(ages)
    out[(ancestor, oldest)] += 1
    start = 0
    for i, age in enumerate(ages):
        if age == oldest:
            _collect_pattern2(leaves[start : i + 1], oldest, out)
            start = i + 1
    _collect_pattern2(leaves[start:], oldest, out)


def phi_vector(spec, n):
    """Phi for every subset bitmask at depth n, as a float array."""
    _check_depth(n)
    if spec.variant == "zero":
        return np.zeros(1 << (1 << n))
    if spec.variant == "capacity":
        return _capacity.cap_table(n, spec.profile(n))
    if spec.variant == "first":
        phi = _pattern1_matrix(n) @ spec.h.array(n)
    elif spec.variant == "second":
        phi = _pattern2_matrix(n) @ spec.h.array(n)[np.tril_indices(n + 2, -1)]
    else:
        raise UnsupportedVariant("unknown variant %r" % (spec.variant,))
    phi += spec.h_const_at(n)
    phi[0] = 0.0
    return phi


def enum_phi(spec, ls):
    """Phi of a single leaf set, via the cached per-mask table."""
    _check_depth(ls.depth)
    return float(phi_vector(spec, ls.depth)[ls.mask])


def enum_Z(spec, n, j):
    """Grand partition function by direct summation over all subsets."""
    _check_depth(n)
    ln_terms = j * _popcounts(n) - phi_vector(spec, n)
    mx = ln_terms.max()
    return LogReal(mx + math.log(math.fsum(np.exp(ln_terms - mx))))


def enum_zeta(spec, n, j):
    return enum_Z(spec, n, j).ln / (1 << n)


def enum_W(spec, n):
    """Canonical table by grouping subsets by size."""
    _check_depth(n)
    pop = _popcounts(n)
    neg_phi = -phi_vector(spec, n)
    ln_w = np.full((1 << n) + 1, NEG_INF)
    for a0 in range(0, (1 << n) + 1):
        vals = neg_phi[pop == a0]
        mx = vals.max()
        ln_w[a0] = mx + math.log(math.fsum(np.exp(vals - mx)))
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
    rows = _pattern1_matrix(n)
    pop = _popcounts(n)
    neg_phi = -phi_vector(spec, n)
    ln_w = np.full((1 << n) + 1, NEG_INF)
    ln_w[0] = 0.0
    for a0 in range(1, (1 << n) + 1):
        sel = np.nonzero(pop == a0)[0]
        groups = {}
        for mask in sel:
            key = rows[mask].tobytes()
            entry = groups.setdefault(key, [0, mask])
            entry[0] += 1
        best = NEG_INF
        for count, mask in groups.values():
            best = max(best, math.log(count) + neg_phi[mask])
        ln_w[a0] = best
    return CanonicalTable(n, ln_w, kind="max", source="enum")


def enum_density(spec, n, j):
    """Mean occupied fraction by direct summation."""
    _check_depth(n)
    pop = _popcounts(n)
    ln_terms = j * pop - phi_vector(spec, n)
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
        _check_depth(n)
        ln_terms = j * _popcounts(n) - phi_vector(spec, n)
        mx = ln_terms.max()
        ln_z = mx + math.log(math.fsum(np.exp(ln_terms - mx)))
        log_probs = ln_terms - ln_z
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
