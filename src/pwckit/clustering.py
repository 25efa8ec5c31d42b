"""Clustering energy functions on leaf sets, and their parameter families.

A clustering function Phi assigns a nonnegative penalty to every leaf set,
with Phi(empty) = 0. Four families are supported:

* zero:          Phi(A) = 0.
* first order:   Phi(A) = sum_k h_k b_k(A) + h, with b the first-order
                 branching profile and h a constant paid by nonempty sets.
* second order:  Phi(A) = sum_{l<k} h[k][l] b[k][l](A) + h, with b the
                 second-order profile (ancestor-resolved branching counts).
* capacity:      Phi(A) = CAP(A), the electrical capacity between the root
                 and A for a level-indexed conductance profile.

Monotonicity (more clustered sets pay no more, and Phi is subadditive over
disjoint unions) holds for first order when the weight sequence is
nondecreasing and h >= h_n, and for second order when the weight array is
nondecreasing in both indices and h >= h[n+1][n]; capacity is always
monotone. ``check_monotone`` verifies both conditions exhaustively at small
depth rather than trusting those sufficient conditions.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import capacity as cap_mod
from .tree import LeafSet, is_more_clustered, Clustered
from .patterns import pattern1_of, pattern2_of

LN2 = math.log(2.0)

#: ages probed when checking monotonicity of closed-form sequences
_PROBE_LIMIT = 4096

#: slack of the exhaustive monotonicity check, and violations it keeps
_MONOTONE_TOL = 1e-9
_MAX_WITNESSES = 20

#: spread of ln conductance in ``random_capacity``
_CAPACITY_SIGMA = 0.7


class SpecConfigError(ValueError):
    """Raised for malformed parameter documents; names the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__("key %r: %s" % (key, message))


class UnsupportedVariant(SpecConfigError):
    """Raised when an operation has no path for the given family; names the
    key ``variant``."""

    def __init__(self, message):
        super().__init__("variant", message)


# ---------------------------------------------------------------------------
# weight containers


class HSequence:
    """Age-indexed weights h_0, h_1, ... .

    Backed either by an explicit finite list (usable up to its length) or by
    a closed-form callable (usable at any age, required by the asymptotic
    diagnostics). ``tag`` records preset provenance so parameter files can
    round-trip closed forms.

    ``h(k)`` is a float for an int age and an array for an integer array of
    ages, so a closed form receives integer arrays and must broadcast (numpy,
    not ``math``); a constant such as ``lambda k: 0.0`` is expanded.
    """

    def __init__(self, fn=None, values=None, tag=None):
        if (fn is None) == (values is None):
            raise ValueError("provide exactly one of fn or values")
        self._fn = fn
        self._values = None if values is None else np.array(values, dtype=float)
        self.tag = tag

    @classmethod
    def from_values(cls, values):
        return cls(values=values)

    @classmethod
    def from_function(cls, fn, tag=None):
        return cls(fn=fn, tag=tag)

    @property
    def has_tail(self):
        """Whether the sequence is defined at every age."""
        return self._fn is not None

    @property
    def max_age(self):
        return None if self._fn is not None else len(self._values) - 1

    def __call__(self, k):
        if self._fn is not None:
            out = np.full(np.shape(k), self._fn(k), dtype=float)
        else:
            k = np.asarray(k)
            if k.size and k.max() >= len(self._values):
                raise IndexError(
                    "weight sequence has %d entries, age %d requested; use a closed"
                    " form for unbounded ages" % (len(self._values), k.max())
                )
            out = self._values[k]
        return float(out) if out.ndim == 0 else out

    def array(self, kmax):
        """h_0 .. h_kmax as a float array."""
        return self(np.arange(kmax + 1))

    def doc(self):
        """The parameter document: the tag, the list, or {"kind": "function"}."""
        if self.tag is not None:
            return self.tag
        if self._values is not None:
            return {"kind": "list", "values": self._values.tolist()}
        return {"kind": "function"}

    def is_nondecreasing(self, kmax=None):
        """Exact check for lists; dense probe up to ``kmax`` for closed forms."""
        if self._values is not None:
            return bool(np.all(self._values[:-1] <= self._values[1:]))
        h = self.array(_PROBE_LIMIT if kmax is None else kmax)
        return bool(np.all(h[1:] >= h[:-1] - 1e-12))


class HArray:
    """Ancestor-pair weights h[k][l] for 0 <= l < k.

    Backed by a callable or by an explicit table (row k, column l; rows may
    be ragged). ``h(k, l)`` takes ints or broadcasting integer arrays, as
    ``HSequence`` does, and a closed form must broadcast over them.
    """

    def __init__(self, fn=None, table=None, tag=None):
        if (fn is None) == (table is None):
            raise ValueError("provide exactly one of fn or table")
        self._fn, self._table, self.tag = fn, None, tag
        if table is not None:
            # NaN marks missing cells; an extra NaN row and column stand for
            # every cell past the end, onto which lookups clamp their indices
            rows = [np.asarray(r, dtype=float) for r in table]
            width = max(map(len, rows), default=0)
            self._table = np.full((len(rows) + 1, width + 1), np.nan)
            for k, r in enumerate(rows):
                self._table[k, : len(r)] = r

    @classmethod
    def from_table(cls, table):
        return cls(table=table)

    @classmethod
    def from_function(cls, fn, tag=None):
        return cls(fn=fn, tag=tag)

    @property
    def has_tail(self):
        return self._fn is not None

    @property
    def max_ancestor_age(self):
        return None if self._fn is not None else len(self._table) - 2

    def __call__(self, k, l):
        kk, ll = np.broadcast_arrays(k, l)
        if np.any((ll < 0) | (ll >= kk)):
            raise ValueError("ancestor pairs require 0 <= l < k, got (%s, %s)" % (k, l))
        if self._fn is not None:
            out = np.full(kk.shape, self._fn(k, l), dtype=float)
        else:
            rows, cols = self._table.shape
            out = self._table[np.minimum(kk, rows - 1), np.minimum(ll, cols - 1)]
            missing = np.isnan(out)
            if missing.any():
                raise IndexError(
                    "weight table has no entry (%d, %d); use a closed form for "
                    "unbounded ages" % (kk[missing][0], ll[missing][0])
                )
        return float(out) if out.ndim == 0 else out

    def doc(self):
        """The parameter document: the tag, the table (row k holds h[k][0 ..]),
        or {"kind": "function"}."""
        if self.tag is not None:
            return self.tag
        if self._table is not None:
            return {"kind": "table",
                    "values": [r[~np.isnan(r)].tolist() for r in self._table[:-1]]}
        return {"kind": "function"}

    def array(self, depth):
        """Dense (depth+2) x (depth+2) array; entries with l >= k are zero."""
        out = np.zeros((depth + 2, depth + 2))
        k, l = np.tril_indices(depth + 2, -1)
        out[k, l] = self(k, l)
        return out

    def is_nondecreasing(self, kmax=None):
        """Stepwise check of the two-index order on a probe grid.

        Nondecreasing means h[k][l] <= h[k'][l'] whenever k <= k' and
        l <= l'; equivalently every step in k and every step in l (within
        the l < k region) does not decrease. Read row by row, so the probe
        never holds the whole triangle.
        """
        if kmax is None:
            kmax = _PROBE_LIMIT if self._fn is not None else self.max_ancestor_age
        prev = np.empty(0)
        for k in range(1, kmax + 1):
            row = self(k, np.arange(k))
            if np.any(row[1:] < row[:-1] - 1e-12) or np.any(row[:-1] < prev - 1e-12):
                return False
            prev = row
        return True


# ---------------------------------------------------------------------------
# clustering families


@dataclass(frozen=True)
class ZeroClustering:
    """Phi identically zero; the measure is i.i.d. leaf percolation.

    Its weight sequence is h = 0, which makes it the first-order family with
    no penalty wherever a weight sequence is read.
    """

    variant = "zero"
    h = HSequence.from_function(lambda k: 0.0)

    def h_const_at(self, depth):
        return 0.0

    def describe(self):
        return {"variant": "zero"}


@dataclass(frozen=True)
class FirstOrderClustering:
    """Phi(A) = sum_k h_k b_k(A) + h for nonempty A.

    ``h_const=None`` resolves to h_n at depth n, the smallest constant still
    compatible with monotone subadditivity for nondecreasing weights.
    """

    h: HSequence
    h_const: float | None = None

    variant = "first"

    def h_const_at(self, depth):
        return self.h(depth) if self.h_const is None else self.h_const

    def describe(self):
        return {"variant": "first", "h_const": self.h_const, "h": self.h.doc()}


@dataclass(frozen=True)
class SecondOrderClustering:
    """Phi(A) = sum_{l<k} h[k][l] b[k][l](A) + h for nonempty A.

    ``h_const=None`` resolves to h[n+1][n] at depth n.
    """

    h: HArray
    h_const: float | None = None

    variant = "second"

    def h_const_at(self, depth):
        return self.h(depth + 1, depth) if self.h_const is None else self.h_const

    def describe(self):
        return {"variant": "second", "h_const": self.h_const, "h": self.h.doc()}


@dataclass(frozen=True)
class CapacityClustering:
    """Phi(A) = CAP(A) for a level-indexed conductance profile.

    ``conductance(l)`` gives the conductance of every edge whose lower
    endpoint has age l (levels 0 .. n-1 at depth n). Always monotone; since
    CAP(A) <= C_0 |A|, this family never has a wetting transition.
    """

    conductance: HSequence

    variant = "capacity"

    def profile(self, depth):
        try:
            values = self.conductance(np.arange(depth))
        except IndexError as exc:
            raise SpecConfigError(
                "conductance.values", "too short for depth %d: %s" % (depth, exc)
            ) from None
        return cap_mod.ConductanceProfile(tuple(values))

    def h_const_at(self, depth):
        return 0.0

    def describe(self):
        return {"variant": "capacity", "conductance": self.conductance.doc()}


def phi(spec, ls):
    """Clustering penalty of a leaf set under the given family."""
    if len(ls) == 0:
        return 0.0
    if spec.variant in ("zero", "first"):
        p = pattern1_of(ls)
        h = spec.h
        return sum(h(k) * p.b[k] for k in range(ls.depth + 1) if p.b[k]) \
            + spec.h_const_at(ls.depth)
    if spec.variant == "second":
        p = pattern2_of(ls)
        h = spec.h
        return sum(h(k, l) * c for (k, l), c in p.nonzero().items()) \
            + spec.h_const_at(ls.depth)
    if spec.variant == "capacity":
        return cap_mod.cap_reduce(ls, spec.profile(ls.depth))
    raise UnsupportedVariant("unknown variant %r" % (spec.variant,))


# ---------------------------------------------------------------------------
# exhaustive monotonicity check


@dataclass
class MonotoneReport:
    """Outcome of the exhaustive monotonicity check at small depth."""

    depth: int
    size_limit: int
    order_pairs: int = 0
    subadditive_pairs: int = 0
    order_violations: list = field(default_factory=list)
    subadditive_violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.order_violations and not self.subadditive_violations


def check_monotone(spec, depth, size_limit=4):
    """Exhaustively test both monotonicity conditions at the given depth.

    Order condition: for every pair of equal-size sets with A at least as
    clustered as B (decided by bijection search, never by the profile
    filter), Phi(A) <= Phi(B). Subadditivity: for every pair of disjoint
    nonempty sets, Phi(A union B) <= Phi(A) + Phi(B). Sizes are capped at
    ``size_limit`` on each side. Up to ``_MAX_WITNESSES`` violations of each
    kind are kept.
    """
    nleaves = 1 << depth
    report = MonotoneReport(depth, size_limit)
    phis = {}
    sets_by_size = {}
    for mask in range(1, 1 << nleaves):
        m = mask.bit_count()
        if m > 2 * size_limit:
            continue
        ls = LeafSet.from_mask(depth, mask)
        phis[mask] = phi(spec, ls)
        if m <= size_limit:
            sets_by_size.setdefault(m, []).append(ls)

    for m, group in sorted(sets_by_size.items()):
        for a in group:
            for b in group:
                if a is b:
                    continue
                if is_more_clustered(a, b, size_limit=size_limit) is Clustered.YES:
                    report.order_pairs += 1
                    if phis[a.mask] > phis[b.mask] + _MONOTONE_TOL:
                        if len(report.order_violations) < _MAX_WITNESSES:
                            report.order_violations.append(
                                (a.leaves, b.leaves, phis[a.mask], phis[b.mask])
                            )

    for mask_a in range(1, 1 << nleaves):
        if mask_a.bit_count() > size_limit:
            continue
        complement = ((1 << nleaves) - 1) ^ mask_a
        # enumerate nonempty submasks of the complement, each once per ordered pair
        sub = complement
        while sub:
            if sub.bit_count() <= size_limit:
                report.subadditive_pairs += 1
                total = phis[mask_a | sub]
                if total > phis[mask_a] + phis[sub] + _MONOTONE_TOL:
                    if len(report.subadditive_violations) < _MAX_WITNESSES:
                        report.subadditive_violations.append(
                            (
                                LeafSet.from_mask(depth, mask_a).leaves,
                                LeafSet.from_mask(depth, sub).leaves,
                                total,
                                phis[mask_a] + phis[sub],
                            )
                        )
            sub = (sub - 1) & complement
    return report


# ---------------------------------------------------------------------------
# presets


def zero_spec():
    return ZeroClustering()


def first_linear(c):
    """First-order weights h_k = c * k."""
    c = float(c)
    return FirstOrderClustering(
        HSequence.from_function(
            lambda k, c=c: c * k,
            tag={"kind": "preset", "name": "linear", "c": c},
        )
    )


def first_logcorrected():
    """First-order weights h_k = (ln 2) k + ln k, the boundary family."""
    return FirstOrderClustering(
        HSequence.from_function(
            lambda k: LN2 * k + np.log(np.maximum(k, 1)),
            tag={"kind": "preset", "name": "logcorrected"},
        )
    )


def dgff_spec():
    """Second-order weights matching branching random walk barriers:
    h[k][l] = (ln 2) l + 1.5 ln+ min(l, k - l)."""
    return SecondOrderClustering(
        HArray.from_function(
            lambda k, l: LN2 * l + 1.5 * np.log(np.maximum(np.minimum(l, k - l), 1)),
            tag={"kind": "preset", "name": "dgff"},
        )
    )


def capacity_uniform(c=1.0):
    c = float(c)
    return CapacityClustering(
        HSequence.from_function(
            lambda l, c=c: c,
            tag={"kind": "uniform", "value": c},
        )
    )


def _coefficient(text):
    """Parse a slope such as ``2.5``, ``ln2``, or ``3ln2``."""
    if text.endswith("ln2"):
        head = text[: -len("ln2")]
        return (float(head) if head else 1.0) * LN2
    return float(text)


def parse_preset(text):
    """Parse a preset string such as ``first:linear:2.0`` or ``dgff``.

    Linear slopes accept an ``ln2`` suffix (``first:linear:3ln2``), and the
    compact form ``first:linear3ln2`` is tolerated.
    """
    parts = text.split(":")
    try:
        if parts == ["zero"]:
            return zero_spec()
        if parts == ["dgff"]:
            return dgff_spec()
        if parts[0] == "first":
            if len(parts) == 3 and parts[1] == "linear":
                return first_linear(_coefficient(parts[2]))
            if len(parts) == 2 and parts[1].startswith("linear") and parts[1] != "linear":
                return first_linear(_coefficient(parts[1][len("linear") :]))
            if len(parts) == 2 and parts[1] == "logcorrected":
                return first_logcorrected()
        if parts[0] == "capacity" and len(parts) >= 2 and parts[1] == "uniform":
            c = float(parts[2]) if len(parts) == 3 else 1.0
            if 0 < c < math.inf:
                return capacity_uniform(c)
    except ValueError:  # a slope or conductance that is not a number
        pass
    raise SpecConfigError(
        "preset",
        "unknown preset %r; expected zero, first:linear:<c>, "
        "first:logcorrected, dgff, or capacity:uniform[:<c>], with c a number "
        "(positive for capacity)" % (text,),
    )


# ---------------------------------------------------------------------------
# parameter documents (JSON)


def _h_from_doc(doc, key):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecConfigError(key, "expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "list":
        return HSequence.from_values(_numbers(doc.get("values"), key + ".values"))
    if kind == "preset":
        name = doc.get("name")
        if name == "linear":
            if "c" not in doc:
                raise SpecConfigError(key + ".c", "linear preset needs a slope")
            return first_linear(_number(doc["c"], key + ".c")).h
        if name == "logcorrected":
            return first_logcorrected().h
        raise SpecConfigError(key + ".name", "unknown sequence preset %r" % (name,))
    raise SpecConfigError(key + ".kind", "unknown kind %r" % (kind,))


def _number(v, key):
    """A JSON number as a finite float; anything else names ``key``."""
    # type() excludes bool; the comparison rejects nan, inf and too large ints
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise SpecConfigError(key, "expected a finite number, got %r" % (v,))
    return float(v)


def _numbers(values, key, empty=False):
    """A JSON list of finite numbers as floats; anything else names ``key``."""
    if not isinstance(values, list) or not (values or empty):
        raise SpecConfigError(key, "expected a %slist" % ("" if empty else "nonempty "))
    return [_number(v, key) for v in values]


def spec_from_doc(doc):
    """Build a clustering family from a parsed parameter document."""
    if not isinstance(doc, dict):
        raise SpecConfigError("<root>", "expected a JSON object")
    variant = doc.get("variant")
    if variant == "zero":
        return ZeroClustering()
    if variant == "first":
        if "h" not in doc:
            raise SpecConfigError("h", "first-order family needs weights")
        h = _h_from_doc(doc["h"], "h")
        return FirstOrderClustering(h, _const_from_doc(doc))
    if variant == "second":
        hdoc = doc.get("h")
        if not isinstance(hdoc, dict):
            raise SpecConfigError("h", "second-order family needs weights")
        if hdoc.get("kind") == "preset" and hdoc.get("name") == "dgff":
            h = dgff_spec().h
        elif hdoc.get("kind") == "table":
            table = hdoc.get("values")
            if not isinstance(table, list):
                raise SpecConfigError("h.values", "expected a list of rows")
            h = HArray.from_table([_numbers(r, "h.values", empty=True) for r in table])
        else:
            raise SpecConfigError("h.kind", "expected 'table' or the dgff preset")
        return SecondOrderClustering(h, _const_from_doc(doc))
    if variant == "capacity":
        cdoc = doc.get("conductance")
        if not isinstance(cdoc, dict):
            raise SpecConfigError("conductance", "capacity family needs a profile")
        if cdoc.get("kind") == "uniform":
            value = _number(cdoc.get("value", 1.0), "conductance.value")
            if not value > 0:
                raise SpecConfigError("conductance.value", "conductance must be positive")
            return capacity_uniform(value)
        if cdoc.get("kind") == "list":
            values = _numbers(cdoc.get("values"), "conductance.values")
            if any(v <= 0 for v in values):
                raise SpecConfigError("conductance.values", "conductances must be positive")
            return CapacityClustering(HSequence.from_values(values))
        raise SpecConfigError("conductance.kind", "expected 'uniform' or 'list'")
    raise SpecConfigError(
        "variant", "expected zero, first, second, or capacity; got %r" % (variant,)
    )


def _const_from_doc(doc):
    v = doc.get("h_const")
    return None if v is None or v == "default" else _number(v, "h_const")


def load_spec_file(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise SpecConfigError("<file>", "not valid JSON: %s" % (e,))
    return spec_from_doc(doc)


def save_spec_file(spec, path):
    doc = spec.describe()
    if doc.get("h") == {"kind": "function"} or doc.get("conductance") == {"kind": "function"}:
        raise SpecConfigError(
            "h", "cannot serialize an untagged closed form; use a preset or a list"
        )
    if doc.get("h_const", "missing") is None:
        doc["h_const"] = "default"
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# random families for cross-validation harnesses


def random_first_order(depth, rng, scale=1.0):
    """Random nondecreasing weights with a valid constant, for testing."""
    steps = rng.exponential(scale, size=depth + 1)
    steps[0] = rng.uniform(0.0, scale)
    h = np.cumsum(steps)
    h_const = float(h[-1] + rng.exponential(scale))
    return FirstOrderClustering(HSequence.from_values(h), h_const)


def random_second_order(depth, rng, scale=1.0):
    """Random array nondecreasing in both indices, with a valid constant."""
    n = depth
    d = rng.exponential(scale / (n + 2), size=(n + 2, n + 2))
    table = np.cumsum(np.cumsum(d, axis=0), axis=1)
    h = HArray.from_table(table)
    h_const = float(table[n + 1][n] + rng.exponential(scale))
    return SecondOrderClustering(h, h_const)


def random_capacity(depth, rng):
    """Random positive conductance profile."""
    values = np.exp(rng.normal(0.0, _CAPACITY_SIGMA, size=depth))
    return CapacityClustering(HSequence.from_values(values))
