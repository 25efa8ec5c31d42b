"""Clustering energy functions on leaf sets, and their parameter families.

A clustering function Phi assigns a nonnegative penalty to every leaf set,
with Phi(empty) = 0. Three families are supported:

* first order:   Phi(A) = sum_k h_k b_k(A) + h, with b the first-order
                 branching profile and h a constant paid by nonempty sets.
* second order:  Phi(A) = sum_{l<k} h[k][l] b[k][l](A) + h, with b the
                 second-order profile (ancestor-resolved branching counts).
* capacity:      Phi(A) = CAP(A), the electrical capacity between the root
                 and A for a level-indexed conductance profile.

The ``zero`` preset, Phi = 0 (Bernoulli site percolation), is first order
with h = 0.

Monotonicity (more clustered sets pay no more, and Phi is subadditive over
disjoint unions) holds for first order when the weight sequence is
nondecreasing and h >= h_n, and for second order when the weight array is
nondecreasing in both indices and h >= h[n+1][n]; capacity is always
monotone. The tests check both conditions exhaustively at small depth
rather than trusting those sufficient conditions.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LN2 = math.log(2.0)

#: ln Z_n grows like 2^n (it is 2^n ln 2 for the zero preset at J = 0), so
#: past this depth the recursion leaves float range at every J
MAX_DEPTH = 1022

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


def check_family(spec, families, what):
    """Refuse, naming ``variant``, a spec whose family is not one of
    ``families``, and naming ``spec`` anything that is not a spec; ``what``
    names the operation. Every family refusal comes from here."""
    _instance(spec, (FirstOrderClustering, SecondOrderClustering, CapacityClustering),
              "spec")
    if spec.variant not in families:
        raise UnsupportedVariant(
            "%s serves %s specs, not %r" % (what, "/".join(families), spec.variant)
        )


# ---------------------------------------------------------------------------
# argument readers: each returns its argument as the type the code computes
# with, or refuses it naming ``key``; the public callables read through them


def _integer(value, key, lo=0, hi=None, past="must lie in %(lo)d .. %(hi)d, got %(n)d"):
    """``value`` as an int (``operator.index``: a bool or 8.0 is refused), refused
    naming ``key`` below ``lo`` and, with ``past``'s message, above ``hi``."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if n < lo:
                raise SpecConfigError(key, "must be %s, got %d" % (
                    "at least %d" % lo if lo else "nonnegative", n))
            if hi is not None and n > hi:
                raise SpecConfigError(key, past % {"lo": lo, "hi": hi, "n": n})
            return n
    raise SpecConfigError(key, "must be an integer, got %r" % (value,))


def _depth(n, hi=MAX_DEPTH, past="must lie in 0 .. %(hi)d, got %(n)d"):
    """The depth ``n`` as an int in 0 .. ``hi``, the deepest tree of a route
    (``MAX_DEPTH`` for the recursions), refused naming ``depth``."""
    return _integer(n, "depth", 0, hi, past)


def _real(value, key, positive=False, finite=True):
    """``value`` as a float: a real number (not a bool or text), finite unless
    not ``finite``, positive with ``positive``; else refused naming ``key``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int or a fraction past the float range
            x = None
        if x is not None and (not finite or math.isfinite(x)) and (x > 0 or not positive):
            return x
    kind = ("finite " if finite else "") + ("positive " if positive else "")
    raise SpecConfigError(key, "must be a %snumber, got %r" % (kind, value))


def _flag(value, key):
    """``value`` as a bool, from a bool or a numpy bool; else refused naming ``key``."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise SpecConfigError(key, "must be True or False, got %r" % (value,))


def _reals(values, key, scalar=False):
    """``values`` as a one-dimensional float array of numbers (not bools or text),
    else refused naming ``key``; with ``scalar`` a number is a grid of one."""
    try:
        a = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths
        a = np.asarray(None)
    if scalar and a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1 or a.dtype.kind not in "iuf":
        raise SpecConfigError(key, "takes a %sone-dimensional grid of numbers, got %r"
                              % ("number or a " if scalar else "", values))
    return a.astype(float, copy=False)


def _ages(value, key):
    """``value`` as an integer array of ages: an int, a numpy integer or an
    integer array; a bool, a float (even 2.0) or text is refused naming
    ``key``. The range is the container's to check."""
    try:
        a = np.asarray(value)
    except ValueError:  # nested sequences of unequal lengths
        a = np.asarray(None)
    if a.dtype.kind not in "iu":
        raise SpecConfigError(key, "takes an integer age or an integer array of ages,"
                              " got %r" % (value,))
    return a


def _instance(value, kinds, key):
    """``value`` if it is an instance of one of the classes ``kinds``, else refused."""
    if not isinstance(value, kinds):
        raise SpecConfigError(key, "takes a %s, got %r" % (
            " or ".join(k.__name__ for k in kinds), value))
    return value


# ---------------------------------------------------------------------------
# weight containers


class HSequence:
    """Age-indexed weights h_0, h_1, ... .

    A callable ``source`` is a closed form (usable at any age, required by
    the asymptotic diagnostics); any other source is an explicit finite list
    (usable up to its length). ``tag`` records preset provenance so
    parameter files can round-trip closed forms.

    ``h(k)`` is a float for an int age and an array for an integer array of
    ages, so a closed form receives integer arrays and must broadcast (numpy,
    not ``math``); a constant such as ``lambda k: 0.0`` is expanded. An age
    that is no integer (a bool, a float, text) is refused naming ``k``; a
    list refuses an age below 0 or past its end with ``IndexError``.

    Reads share arrays: a closed form's float64 array of the ages' shape is
    returned as the form made it, not copied, and no reader writes into an
    array a weight container returned.
    """

    def __init__(self, source, tag=None):
        self._fn = source if callable(source) else None
        self._values = None if callable(source) else _reals(source, "source").copy()
        self.tag = _instance(tag, (dict, type(None)), "tag")

    @property
    def max_age(self):
        """The last age with a weight: ``math.inf`` for a closed form."""
        return math.inf if self._fn is not None else len(self._values) - 1

    def __call__(self, k):
        ages = _ages(k, "k")
        if self._fn is not None:
            out = _filled(self._fn(k if ages.ndim == 0 else ages), ages.shape)
        else:
            k = ages
            if k.size and k.min() < 0:
                raise IndexError("weight sequence has no age %d: ages start at 0"
                                 % (k.min(),))
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


class HArray:
    """Ancestor-pair weights h[k][l] for 0 <= l < k.

    A callable ``source`` is a closed form; any other source is an explicit
    table (row k, column l; rows may be ragged). ``h(k, l)`` takes ints or
    broadcasting integer arrays, as ``HSequence`` does, and a closed form
    must broadcast over them; an age that is no integer is refused naming
    ``k`` or ``l``, a pair outside 0 <= l < k naming ``l``, and a table
    refuses a missing entry with ``IndexError``.
    Reads share arrays as ``HSequence`` reads do: a closed form's float64
    array of the ages' shape is returned as made, and no reader writes into
    it.
    """

    def __init__(self, source, tag=None):
        self._fn = source if callable(source) else None
        self._table, self.tag = None, _instance(tag, (dict, type(None)), "tag")
        if self._fn is None:
            # NaN marks missing cells; an extra NaN row and column stand for
            # every cell past the end, onto which lookups clamp their indices
            rows = [_reals(r, "source")
                    for r in _instance(source, (list, tuple, np.ndarray), "source")]
            width = max(map(len, rows), default=0)
            self._table = np.full((len(rows) + 1, width + 1), np.nan)
            for k, r in enumerate(rows):
                self._table[k, : len(r)] = r

    @property
    def max_age(self):
        """The last ancestor age k with a row: ``math.inf`` for a closed form."""
        return math.inf if self._fn is not None else len(self._table) - 2

    def __call__(self, k, l):
        kk, ll = _ages(k, "k"), _ages(l, "l")
        outside = (ll < 0) | (ll >= kk)
        if outside.any():
            raise SpecConfigError("l", "ancestor pairs require 0 <= l < k, got (%s, %s)"
                                  % (k, l))
        if self._fn is not None:
            out = _filled(self._fn(k if kk.ndim == 0 else kk, l if ll.ndim == 0 else ll),
                          outside.shape)
        else:
            rows, cols = self._table.shape
            out = self._table[np.minimum(kk, rows - 1), np.minimum(ll, cols - 1)]
            missing = np.isnan(out)
            if missing.any():
                raise IndexError(
                    "weight table has no entry (%d, %d); use a closed form for "
                    "unbounded ages"
                    % (np.broadcast_to(kk, out.shape)[missing][0],
                       np.broadcast_to(ll, out.shape)[missing][0])
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
        k, l = _below_diagonal(depth + 2)
        out[k, l] = self(k, l)
        return out


def _filled(values, shape):
    """A closed form's ``values`` at ages of ``shape``: its float64 array of
    that shape as returned, anything else (a constant, a scalar, another
    dtype) expanded to a new float array."""
    if type(values) is np.ndarray and values.dtype == np.float64 and values.shape == shape:
        return values
    return np.full(shape, values, dtype=float)


@lru_cache(maxsize=16)
def _below_diagonal(size):
    """``np.tril_indices(size, -1)``, read-only: it is shared by every call."""
    pairs = np.tril_indices(size, -1)
    for rows in pairs:
        rows.flags.writeable = False
    return pairs


# ---------------------------------------------------------------------------
# clustering families


@dataclass(frozen=True)
class FirstOrderClustering:
    """Phi(A) = sum_k h_k b_k(A) + h for nonempty A.

    ``h_const=None`` resolves to h_n at depth n, the smallest constant still
    compatible with monotone subadditivity for nondecreasing weights.
    """

    h: HSequence
    h_const: float | None = None

    variant = "first"

    def __post_init__(self):  # h_const is read with the weights (dp._weights)
        _instance(self.h, (HSequence,), "h")

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

    def __post_init__(self):
        _instance(self.h, (HArray,), "h")

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

    def __post_init__(self):
        _instance(self.conductance, (HSequence,), "conductance")

    @property
    def key(self):
        """The spec document's key for the conductances, which refusals name."""
        uniform = self.conductance.doc().get("kind") == "uniform"
        return "conductance.value" if uniform else "conductance.values"

    def profile(self, depth):
        from . import capacity  # which imports this module
        depth = _depth(depth, capacity.DEPTH_MAX)
        try:
            values = self.conductance(np.arange(depth))
        except IndexError as exc:
            raise SpecConfigError(
                "conductance.values", "too short for depth %d: %s" % (depth, exc)
            ) from None
        try:
            return capacity.ConductanceProfile(tuple(values))
        except ValueError as exc:
            raise SpecConfigError(self.key, str(exc)) from None

    def describe(self):
        return {"variant": "capacity", "conductance": self.conductance.doc()}


def check_capacities(caps, depth, key):
    """Refuse capacities of nonempty leaf sets that left the float range.

    At depth >= 1 every such capacity is positive and finite, so 0 or inf
    is a float that underflowed or overflowed; at depth 0 the grounded leaf
    is the root and inf is exact. ``key`` names the conductances.
    """
    caps = np.asarray(caps, dtype=float)
    if depth and caps.size and not 0.0 < caps.min() <= caps.max() < math.inf:
        bad = caps.max() if caps.max() == math.inf else caps.min()
        raise SpecConfigError(
            key, "a capacity at depth %d is %r, outside the float range; "
            "scale the conductances" % (depth, float(bad))
        )


# ---------------------------------------------------------------------------
# presets


def zero_spec():
    """Phi = 0, i.i.d. leaf percolation: first order with h = 0."""
    return first_linear(0.0)


def first_linear(c):
    """First-order weights h_k = c * k, for a finite c."""
    c = _real(c, "c")
    return FirstOrderClustering(
        HSequence(
            lambda k, c=c: c * k,
            tag={"kind": "preset", "name": "linear", "c": c},
        )
    )


def first_logcorrected():
    """First-order weights h_k = (ln 2) k + ln k, the boundary family."""
    return FirstOrderClustering(
        HSequence(
            lambda k: LN2 * k + np.log(np.maximum(k, 1)),
            tag={"kind": "preset", "name": "logcorrected"},
        )
    )


def dgff_spec():
    """Second-order weights matching branching random walk barriers:
    h[k][l] = (ln 2) l + 1.5 ln+ min(l, k - l)."""
    return SecondOrderClustering(
        HArray(
            lambda k, l: LN2 * l + 1.5 * np.log(np.maximum(np.minimum(l, k - l), 1)),
            tag={"kind": "preset", "name": "dgff"},
        )
    )


def capacity_uniform(c=1.0):
    """Conductance c on every edge, for a finite positive c."""
    c = _real(c, "c", positive=True)
    return CapacityClustering(
        HSequence(
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
    parts = _instance(text, (str,), "preset").split(":")
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
            return capacity_uniform(float(parts[2]) if len(parts) == 3 else 1.0)
    except ValueError:  # a slope or conductance that is not a finite number
        pass
    raise SpecConfigError(
        "preset",
        "unknown preset %r; expected zero, first:linear:<c>, "
        "first:logcorrected, dgff, or capacity:uniform[:<c>], with c a finite "
        "number (positive for capacity)" % (text,),
    )


# ---------------------------------------------------------------------------
# parameter documents (JSON)


def _h_from_doc(doc, key):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecConfigError(key, "expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "list":
        return HSequence(_numbers(doc.get("values"), key + ".values"))
    if kind == "preset":
        name = doc.get("name")
        if name == "linear":
            if "c" not in doc:
                raise SpecConfigError(key + ".c", "linear preset needs a slope")
            return first_linear(_real(doc["c"], key + ".c")).h
        if name == "logcorrected":
            return first_logcorrected().h
        raise SpecConfigError(key + ".name", "unknown sequence preset %r" % (name,))
    raise SpecConfigError(key + ".kind", "unknown kind %r" % (kind,))


def _numbers(values, key, empty=False, positive=False):
    """A JSON list of finite (positive) numbers as floats (``_real``);
    anything else names ``key``."""
    if not isinstance(values, list) or not (values or empty):
        raise SpecConfigError(key, "expected a %slist" % ("" if empty else "nonempty "))
    return [_real(v, key, positive) for v in values]


def spec_from_doc(doc):
    """Build a clustering family from a parsed parameter document."""
    variant = _instance(doc, (dict,), "<root>").get("variant")
    if variant == "zero":
        return zero_spec()
    if variant == "first":
        return FirstOrderClustering(_h_from_doc(doc.get("h"), "h"), _const_from_doc(doc))
    if variant == "second":
        hdoc = _instance(doc.get("h"), (dict,), "h")
        if hdoc.get("kind") == "preset" and hdoc.get("name") == "dgff":
            h = dgff_spec().h
        elif hdoc.get("kind") == "table":
            table = _instance(hdoc.get("values"), (list,), "h.values")
            h = HArray([_numbers(r, "h.values", empty=True) for r in table])
        else:
            raise SpecConfigError("h.kind", "expected 'table' or the dgff preset")
        return SecondOrderClustering(h, _const_from_doc(doc))
    if variant == "capacity":
        cdoc = _instance(doc.get("conductance"), (dict,), "conductance")
        if cdoc.get("kind") == "uniform":
            value = cdoc.get("value", 1.0)
            return capacity_uniform(_real(value, "conductance.value", positive=True))
        if cdoc.get("kind") == "list":
            values = _numbers(cdoc.get("values"), "conductance.values", positive=True)
            return CapacityClustering(HSequence(values))
        raise SpecConfigError("conductance.kind", "expected 'uniform' or 'list'")
    raise SpecConfigError(
        "variant", "expected zero, first, second, or capacity; got %r" % (variant,)
    )


def _const_from_doc(doc):
    v = doc.get("h_const")
    return None if v is None or v == "default" else _real(v, "h_const")


def load_spec_file(path):
    with open(_instance(path, (str, os.PathLike), "path")) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise SpecConfigError("<file>", "not valid JSON: %s" % (e,))
    return spec_from_doc(doc)


def save_spec_file(spec, path):
    """Write the parameter document of ``spec``, after checking that
    ``load_spec_file`` accepts it; a refused spec leaves ``path`` untouched."""
    check_family(spec, ("first", "second", "capacity"), "save_spec_file")
    _instance(path, (str, os.PathLike), "path")
    doc = spec.describe()
    for key in ("h", "conductance"):
        if doc.get(key) == {"kind": "function"}:
            raise SpecConfigError(
                key, "cannot serialize an untagged closed form; use a preset or a list"
            )
    if doc.get("h_const", "missing") is None:
        doc["h_const"] = "default"
    spec_from_doc(doc)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


# ---------------------------------------------------------------------------
# random families for cross-validation harnesses


def _random_args(depth, rng, scale=1.0):
    """A depth in 0 .. ``MAX_DEPTH``, a numpy Generator and a positive scale."""
    return (_depth(depth), _instance(rng, (np.random.Generator,), "rng"),
            _real(scale, "scale", positive=True))


def random_first_order(depth, rng, scale=1.0):
    """Random nondecreasing weights with a valid constant, for testing."""
    depth, rng, scale = _random_args(depth, rng, scale)
    steps = rng.exponential(scale, size=depth + 1)
    steps[0] = rng.uniform(0.0, scale)
    h = np.cumsum(steps)
    h_const = float(h[-1] + rng.exponential(scale))
    return FirstOrderClustering(HSequence(h), h_const)


def random_second_order(depth, rng, scale=1.0):
    """Random array nondecreasing in both indices, with a valid constant."""
    n, rng, scale = _random_args(depth, rng, scale)
    d = rng.exponential(scale / (n + 2), size=(n + 2, n + 2))
    table = np.cumsum(np.cumsum(d, axis=0), axis=1)
    h = HArray(table)
    h_const = float(table[n + 1][n] + rng.exponential(scale))
    return SecondOrderClustering(h, h_const)


def random_capacity(depth, rng):
    """Random positive conductance profile."""
    depth, rng, _ = _random_args(depth, rng)
    values = np.exp(rng.normal(0.0, _CAPACITY_SIGMA, size=depth))
    return CapacityClustering(HSequence(values))
