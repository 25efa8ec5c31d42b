"""Brute-force enumeration over all leaf subsets at small depth.

Everything here sums over the full power set of the 2^n leaves, so depth is
hard-capped at ORACLE_MAX_DEPTH = 4 (65536 subsets). The point is to be an
independent check on the dynamic programs: Phi is assembled from each
subset's branching profile (or electrical network), never from the level
recursions. First- and second-order weights and the constant are read by
``dp._weights``, as the dynamic programs read them, so both routes accept
the same specs and refuse the rest naming the same key; ``enum_W`` sizes
its table with ``dp._table_size``, as ``dp_W`` does.

Phi is invariant under the tree's automorphisms, so every sum runs over the
subsets' shapes, ``tree.shape_table``: 231 classes at depth 4, each counted
with its exact number of masks. The table is built level by level, as
``capacity.cap_classes`` builds capacities, cached per depth and shared
across parameter choices: a call pays for one matrix product over the classes.
``_root`` forms Phi once for ``enum_Z``, ``enum_zeta`` and ``enum_density``;
the last two take a number (float out) or an array of J (array out).

Every sum over subsets is exact up to one final rounding, the float fsum
returns over all masks: ``_exact_sums`` splits each shape's term into two
parts that stay exact times its multiplicity and fsums the products.
``enum_W`` sums every size in one such call.
"""

from __future__ import annotations

import math

import numpy as np

from . import capacity as _capacity
from .clustering import SpecConfigError, check_capacities, check_family
from .dp import (NEG_INF, CanonicalTable, LogReal, _check_j, _one_j, _per_j,
                 _table_size, _weights)
from .tree import SHAPE_MAX_DEPTH, shape_table

ORACLE_MAX_DEPTH = SHAPE_MAX_DEPTH


def _check_depth(n):
    if n > ORACLE_MAX_DEPTH:
        raise SpecConfigError(
            "depth", "enumeration over 2^(2^%d) subsets refused; depth <= %d only"
            % (n, ORACLE_MAX_DEPTH)
        )
    if n < 0:
        raise SpecConfigError("depth", "must be nonnegative, got %d" % (n,))


def _class_phi(spec, n):
    """Phi of every shape at depth n, as a float array by class."""
    _check_depth(n)
    if spec.variant == "capacity":
        caps = _capacity.cap_classes(n, spec.profile(n))
        check_capacities(caps[1:], n, spec.key)
        return caps
    H, const = _weights(spec, n)
    shapes = shape_table(n)
    if spec.variant == "first":
        rows, weights = shapes.first, H[0]
    else:
        rows, weights = shapes.second, H[shapes.columns]
    # BLAS gemv sums the rows of a matrix in blocks, and a short block at the
    # end in another order. Zero rows up to a multiple of 16 put every class
    # in a full block, as every mask was in a per-mask matrix of 2^(2^n)
    # rows, so each class gets the float its masks got there.
    padded = np.zeros((-(-len(rows) // 16) * 16, rows.shape[1]))
    padded[:len(rows)] = rows
    phi = (padded @ weights)[:len(rows)]
    phi += const
    phi[0] = 0.0
    return phi


def phi_vector(spec, n):
    """Phi for every subset bitmask at depth n, as a float array."""
    return _class_phi(spec, n)[shape_table(n).index]


def _exact_sums(values, groups=None, count=1, mult=None):
    """Correctly rounded sums of nonnegative finite floats, one per group.

    ``groups`` holds the group, in range(count), of each entry of
    ``values``, and ``mult`` its integer multiplicity; both broadcast
    against it. By default all entries form one group, each counted once.
    Each sum is the float fsum returns for its group with every value
    repeated its multiplicity, bit for bit, while each multiplicity is
    below 2^26 and every value times its multiplicity is finite.

    A value's top 26 significant bits and its remainder, 27 bits at most,
    stay exact times such a multiplicity, so fsum over these products
    rounds the exact sum once.
    """
    frac, exp = np.frexp(values)
    hi = np.ldexp(np.trunc(np.ldexp(frac, 26)), exp - 26)
    parts = np.stack((hi, values - hi))
    if mult is not None:
        parts *= mult
    if groups is None:
        return [math.fsum(parts.ravel().tolist())]
    keys = np.broadcast_to(groups, parts.shape).ravel()
    order = np.argsort(keys, kind="stable")
    parts = parts.ravel()[order].tolist()
    bounds = np.searchsorted(keys[order], np.arange(count + 1)).tolist()
    return [math.fsum(parts[a:b]) for a, b in zip(bounds, bounds[1:])]


def _root(spec, n, j, ratio=False):
    """``(ln Z_n, rho_n)`` at each J of ``j`` (rho_n None without ``ratio``)
    from one Phi, whose depth check comes before J's, which it bounds."""
    phi = _class_phi(spec, n)
    sizes, mult = shape_table(n).sizes, shape_table(n).mult
    ln_z, rho = [], []
    for x in _check_j(j, n).tolist():
        ln_terms = x * sizes - phi
        mx = ln_terms.max()
        w = np.exp(ln_terms - mx)
        total = _exact_sums(w, mult=mult)[0]
        ln_z.append(mx + math.log(total))
        if ratio:
            rho.append(_exact_sums(w * sizes, mult=mult)[0] / total / (1 << n))
    return np.array(ln_z), np.array(rho) if ratio else None


def enum_phi(spec, ls):
    """Phi of a single leaf set, via its shape."""
    return float(_class_phi(spec, ls.depth)[shape_table(ls.depth).index[ls.mask]])


def enum_Z(spec, n, j):
    """Grand partition function by direct summation over all subsets."""
    return LogReal(float(_root(spec, n, _one_j(j))[0][0]))


def enum_zeta(spec, n, j):
    """zeta_n(J) by direct summation; a float for a number, an array for an array."""
    return _per_j(j, _root(spec, n, j)[0] / (1 << n))


def enum_W(spec, n, m_max=None, allow_large=False):
    """Canonical table by summing subsets grouped by size, in one pass, cut
    to sizes <= m_max; ``dp._table_size`` sizes it, as it sizes ``dp_W``'s.

    Each size's terms are scaled by their largest; a size whose terms are
    all zero (Phi = inf throughout) gets ln W = -inf.
    """
    neg_phi = -_class_phi(spec, n)
    size = _table_size(spec, n, m_max, allow_large, "enum_W")
    shapes = shape_table(n)
    sizes = shapes.sizes
    count = (1 << n) + 1
    mx = np.full(count, NEG_INF)
    np.maximum.at(mx, sizes, neg_phi)
    shift = np.where(mx > NEG_INF, mx, 0.0)  # -inf - -inf would be nan
    sums = _exact_sums(np.exp(neg_phi - shift[sizes]), sizes, count, shapes.mult)
    ln_w = np.array([m + math.log(s) if s > 0 else NEG_INF
                     for m, s in zip(mx.tolist(), sums)])
    return CanonicalTable(n, ln_w[: size + 1], kind="sum")


def enum_maxterm(spec, n):
    """ln of the single largest Boltzmann term at each size.

    For first-order specs every subset with the same profile has the same
    weight, so the size-a0 maximum over subsets times its multiplicity N(b)
    is what dp_W_maxterm reports; this helper returns the profile-level
    quantity by grouping the shapes by first-order profile.
    """
    _check_depth(n)
    check_family(spec, ("first",), "enum_maxterm")
    shapes = shape_table(n)
    neg_phi = -_class_phi(spec, n)
    # one key per nonempty shape's profile: b_0 .. b_n as base-32 digits
    key = shapes.first[1:] @ 32.0 ** np.arange(n + 1)
    _, rep, group = np.unique(key, return_index=True, return_inverse=True)
    count = np.bincount(group, shapes.mult[1:])
    rep += 1
    ln_w = np.full((1 << n) + 1, NEG_INF)
    np.maximum.at(ln_w, shapes.sizes[rep], [math.log(c) for c in count] + neg_phi[rep])
    ln_w[0] = 0.0
    return CanonicalTable(n, ln_w, kind="max")


def enum_density(spec, n, j):
    """Mean occupied fraction by direct summation; J as in ``enum_zeta``."""
    return _per_j(j, _root(spec, n, j, ratio=True)[1])
