"""Grammar-driven fuzz test of the Python API.

Every callable in ``pwckit.__all__`` has an entry in ``GRAMMAR`` below
naming each of its parameters with a pool of good values and one of bad
values, and so do the public methods that take arguments
(``ConductanceProfile.uniform``, ``LeafSet.from_mask``,
``Sampler.sample``, ``Sampler.sample_many`` and the weight containers' reads
``HSequence.__call__`` and ``HArray.__call__``; an age past a list's or a
table's end is no bad value there, as it keeps its ``IndexError``, which
``dp._weights`` reports naming ``h.values``). A new callable, or a new
parameter, fails ``test_grammar_covers_the_api`` until it is given pools.
For each callable, each example draws a good value for every parameter and
calls it, then once more for every bad value of every parameter, in place
of that parameter's value.

A call with good values must return a result; one with a bad value must
raise a ``SpecConfigError`` naming the parameter: its own name, or the key
of ``KEYS`` for the parameters whose refusals keep the key the command line
prints (``n`` is ``depth``, ``num_samples`` is ``num``, ...), or the key a
``Bad`` value states (a leaf set and a profile of different depths name
``profile``, whichever of the two is wrong). No call may end in another
exception, such as a bare ``TypeError``, ``ValueError``, ``IndexError`` or
``AttributeError``, or warn a ``RuntimeWarning``, and no result may hold a
NaN. A result of ``zeta``, ``dp_density``, ``enum_zeta`` and
``enum_density`` is a float for one J and an array as long as its grid for
a grid. The one exception to the rule is the ``OSError`` of a ``path``
that the file system refuses (a missing file or directory), which names
its path itself. A weight container or spec is also used once it is built
(``USE``), since a constant past float range is refused where the weights
are read, naming ``h_const``.

Left out of ``__all__``:

- the exception classes ``BracketError``, ``SpecConfigError`` and
  ``UnsupportedVariant``: the package raises them, and no caller passes
  them arguments to read;
- the report classes ``CanonicalTable``, ``DiagnosticCurve``,
  ``Kappa1Report``, ``Kappa2Report``, ``LogReal``, ``TauberianReport`` and
  ``WettingReport``: the package fills them from its own results, and
  they only hold those values.

Values that set a call's cost come from small pools (recursion depths up
to 64, table and oracle depths up to 6 and 4, s down to 1/8), so the test
runs in seconds; values far past a cap are in the pools too, since a
refusal costs nothing.
"""

import dataclasses
import inspect
import json
import math
import os
import random
import tempfile
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pwckit
from pwckit import (CapacityClustering, ConductanceProfile, FirstOrderClustering,
                    HArray, HSequence, LeafSet, Sampler, SecondOrderClustering,
                    SpecConfigError, capacity_uniform, dgff_spec, first_linear,
                    first_logcorrected, random_second_order, zero_spec)
from pwckit.analysis import _K_MAX_CAP, K_MAX_DEFAULT
from pwckit.capacity import DEPTH_MAX

LEFT_OUT = {"BracketError", "SpecConfigError", "UnsupportedVariant",
            "CanonicalTable", "DiagnosticCurve", "Kappa1Report", "Kappa2Report",
            "LogReal", "TauberianReport", "WettingReport"}

#: the key a parameter's refusal names, where it is not the parameter's name
KEYS = {"n": "depth", "num_samples": "num", "s_values": "s-grid", "text": "preset",
        "doc": "<root>"}

class Bad(NamedTuple):
    """A bad value whose refusal names ``key`` rather than its parameter's."""
    value: object
    key: str


BIG = 2**31
#: values that are no integer, no number, or nothing at all
NOT_INTS = [2.5, 8.0, True, "x", None, [1]]
NOT_FLAGS = ["no", 1, 0, None, "True"]

#: specs by family; the lists are long enough for every depth drawn with them
FIRST = [zero_spec(), first_linear(2.0), first_logcorrected(),
         FirstOrderClustering(HSequence(np.arange(80) * 1.5), 7.0)]
SECOND = [dgff_spec(), random_second_order(70, np.random.default_rng(5))]
CAPACITY = [capacity_uniform(), capacity_uniform(0.5),
            CapacityClustering(HSequence([1.0, 2.0, 0.5, 1.0, 3.0]))]
NOT_SPECS = [None, "x", first_linear(2.0).h, 5]


def specs(*families):
    """Good specs of ``families``; the bad ones are the other families'
    (naming ``variant``) and values that are no spec (naming ``spec``)."""
    pools = {"first": FIRST, "second": SECOND, "capacity": CAPACITY}
    good = [s for f in families for s in pools[f]]
    other = [Bad(s, "variant") for f in pools if f not in families for s in pools[f]]
    return good, [Bad(v, "spec") for v in NOT_SPECS] + other


DEPTHS = ([0, 1, 3, 8, np.int64(16), 64], [-1, 1023, BIG] + NOT_INTS)
TABLE_DEPTHS = ([0, 1, 3, np.int64(5), 6], [-1, 1023] + NOT_INTS)
ORACLE_DEPTHS = ([0, 1, 2, np.int64(3), 4], [-1, 5, BIG] + NOT_INTS)
SAMPLE_DEPTHS = ([0, 1, 3, 6], [-1, 1023] + NOT_INTS)
ONE_J = ([0.5, -1, 0, 3, np.float64(0.25)],
         [math.nan, math.inf, 1e308, "x", True, None, [0.5], np.array([0.5]),
          [[0, 1], [2]]])
GRID_J = (ONE_J[0] + [[0.5], [-1.0, 0.0, 2.5], np.linspace(-2, 2, 5), (1, 2), []],
          [math.nan, 1e308, "x", "0.5", True, None, [[0, 1], [2, 3]], [[0, 1], [2]],
           [0.5, "a"], [0.5, math.inf], [True, False]])
M_MAX = ([None, 0, 1, 5, np.int64(300)], [-1] + NOT_INTS[:-2] + [[1]])
FLAGS = ([False, True, np.True_], NOT_FLAGS)
K_MAX = ([1, 2, 1000, K_MAX_DEFAULT], [0, -1, _K_MAX_CAP + 1, BIG] + NOT_INTS)
S_GRID = ([[1.0], [0.5, 0.25], np.array([0.125]), (0.5,)],
          [0.5, "a", [], [0], [2], [-1], [math.nan], [[0.5]], [0.5, "a"], None, [True]])
SEEDS = ([0, 1, 2**64, np.int64(7)], [-1, 1.5, True, "x", None])
NUMS = ([1, 2, np.int64(3)], [0, -1, 1.5, True, "x", None])
RNGS = ([np.random.default_rng(1)], [None, 1, "x", np.random.RandomState(0)])
SCALES = ([1.0, 0.5, 2], [0, -1, math.inf, math.nan, "x", True, None])
CONDUCTANCES = ([1.0, 0.5, 3, np.float64(2.0)], [0, -1.0, math.inf, math.nan, "x", True, None])
SLOPES = ([0, 2.0, -1, np.float64(1.5)], [math.inf, math.nan, "x", True, None, 10**400])
NOT_LEAF_SETS = [None, "x", (1, 2), 5]
PROFILE2 = ([ConductanceProfile.uniform(2), ConductanceProfile((1.0, 2.0))],
            [None, "x", (1.0, 2.0), Bad(ConductanceProfile.uniform(3), "profile")])
LEAF_SETS2 = ([LeafSet(2, (1,)), LeafSet(2, ()), LeafSet(2, (0, 3))],
              NOT_LEAF_SETS + [Bad(LeafSet(3, (1,)), "profile")])

#: the run directory holds SPEC, a parameter document, and BAD, a file that
#: is not JSON; path parameters start with @TMP@
SPEC_DOC = {"variant": "first", "h": {"kind": "preset", "name": "linear", "c": 2},
            "h_const": "default"}
PATHS_IN = (["@TMP@/SPEC.json"],
            [None, 5, "@TMP@/MISSING.json", Bad("@TMP@/BAD.json", "<file>")])
PATHS_OUT = (["@TMP@/out.json"], [None, 5, "@TMP@/NO-DIR/out.json"])

#: callable name -> {parameter: (good values, bad values)}; a pool may be a
#: function of the good values drawn before it
GRAMMAR = {
    "zeta": {"spec": specs("first", "second"), "n": DEPTHS, "j": GRID_J},
    "dp_density": {"spec": specs("first", "second"), "n": DEPTHS, "j": GRID_J},
    "dp_Z": {"spec": specs("first", "second"), "n": DEPTHS, "j": ONE_J},
    "dp_W": {"spec": specs("first", "second"), "n": TABLE_DEPTHS, "m_max": M_MAX,
             "allow_large": FLAGS},
    "dp_W_maxterm": {"spec": specs("first"), "n": TABLE_DEPTHS, "m_max": M_MAX,
                     "allow_large": FLAGS},
    "enum_Z": {"spec": specs("first", "second", "capacity"), "n": ORACLE_DEPTHS,
               "j": ONE_J},
    "enum_zeta": {"spec": specs("first", "second", "capacity"), "n": ORACLE_DEPTHS,
                  "j": GRID_J},
    "enum_density": {"spec": specs("first", "second", "capacity"), "n": ORACLE_DEPTHS,
                     "j": GRID_J},
    "enum_W": {"spec": specs("first", "second", "capacity"), "n": ORACLE_DEPTHS,
               "m_max": M_MAX, "allow_large": FLAGS},
    "enum_maxterm": {"spec": specs("first"), "n": ORACLE_DEPTHS},
    "phi_vector": {"spec": specs("first", "second", "capacity"), "n": ORACLE_DEPTHS},
    "enum_phi": {"spec": specs("first", "second", "capacity"),
                 "ls": ([LeafSet(2, (1,)), LeafSet(3, ()), LeafSet(0, (0,))],
                        NOT_LEAF_SETS + [Bad(LeafSet(5, (0,)), "depth")])},
    "kappa1": {"spec": specs("first")},
    "kappa2": {"spec": specs("second"), "k_max": K_MAX},
    "tauberian_first": {"spec": specs("first"), "k_max": K_MAX},
    "laplace_first": {"spec": specs("first"), "s_values": S_GRID, "allow_large": FLAGS},
    "laplace_second": {"spec": specs("second"), "s_values": S_GRID, "allow_large": FLAGS},
    "estimate_jstar": {
        "spec": specs("first", "second"),
        "depths": ([[4], [2, 4], (3,), np.array([4])],
                   [[], 4, None, [-1], [1023], [2.5], [True], [[4]], "x"]),
        "delta": ([None, 0.05, 1e-6], [0, -1, math.nan, math.inf, "x", True,
                                       Bad(1e9, "delta")]),
        "k_max": ([1, 1000, K_MAX_DEFAULT], K_MAX[1])},
    "Sampler": {"spec": specs("first", "second"), "n": SAMPLE_DEPTHS, "j": ONE_J},
    "Sampler.sample": {"rng": ([np.random.default_rng(k) for k in (0, 1, 2)],
                               [None, 5, random.Random(1)]),
                       "_leaves": ([None], [])},
    "Sampler.sample_many": {"num_samples": NUMS, "seed": SEEDS},
    "sample": {"spec": specs("first", "second"), "n": SAMPLE_DEPTHS, "j": ONE_J,
               "seed": SEEDS, "num_samples": NUMS},
    "ConductanceProfile": {
        "values": ([(1.0, 2.0), [0.5], (), np.array([1.0, 1.0, 3.0])],
                   [(1.0, 0.0), (-1,), ("x",), "x", None, 5, [[1.0]], (1.0, 2.0**300),
                    (True,), (math.inf,), (math.nan,)])},
    "ConductanceProfile.uniform": {"depth": ([0, 3, np.int64(20)],
                                             [-1, DEPTH_MAX + 1] + NOT_INTS),
                                   "conductance": CONDUCTANCES},
    "cap_reduce": {"ls": LEAF_SETS2, "profile": PROFILE2},
    "cap_quadratic": {"ls": LEAF_SETS2, "profile": PROFILE2},
    "cap_table": {
        "depth": ([0, 1, 2, 3, 4], [-1, 5, BIG] + NOT_INTS),
        "profile": (lambda a: [ConductanceProfile.uniform(a["depth"]),
                               ConductanceProfile((2.0,) * a["depth"])],
                    [None, "x", Bad(ConductanceProfile.uniform(7), "profile")])},
    "capacity_uniform": {"c": CONDUCTANCES},
    "CapacityClustering": {
        "conductance": ([HSequence([1.0, 2.0]), capacity_uniform(2.0).conductance],
                        [None, "x", [1.0], HArray([[], [1.0]])])},
    "FirstOrderClustering": {
        "h": ([HSequence([0.0, 1.0, 2.0]), first_linear(1.0).h],
              [None, "x", [0.0, 1.0], lambda k: k, dgff_spec().h]),
        "h_const": ([None, 1.0, 5, np.float64(2.0)],
                    [math.nan, math.inf, "x", True, 10**400])},
    "SecondOrderClustering": {
        "h": ([dgff_spec().h, HArray([[], [0.5], [1.0, 1.5], [2.0, 2.5, 3.0]])],
              [None, "x", [[], [0.5]], first_linear(1.0).h]),
        "h_const": ([None, 1.0, 5], [math.nan, -math.inf, "x", True, 10**400])},
    "HSequence": {
        "source": ([[0.0, 1.0], (1, 2, 3), np.arange(3.0), lambda k: 0.5 * k],
                   ["x", 5, None, [[1.0], [2.0, 3.0]], [[1.0, 2.0]], ["a"], [1, None],
                    [True, False]]),
        "tag": ([None, {"kind": "preset", "name": "linear", "c": 0.5}], ["x", 5, [1]])},
    "HArray": {
        "source": ([[[], [0.5]], ((), (1.0,), (1.0, 2.0)), np.zeros((3, 3)),
                    lambda k, l: 0.0 * k],
                   ["x", 5, None, [["a"]], [[[1.0]]], [1.0, 2.0], [[1.0, None]]]),
        "tag": ([None, {"kind": "preset", "name": "dgff"}], ["x", 5, [1]])},
    "LeafSet": {"depth": ([0, 2, np.int64(3), 40], [-1] + NOT_INTS),
                "leaves": ([(), (0,), [0], np.array([0])],
                           [(-1,), ("a",), (1.5,), None, 5, Bad((1 << 41,), "leaves")])},
    "LeafSet.from_mask": {"depth": ([2, 3], [-1] + NOT_INTS),
                          "mask": ([0, 1, 5, np.int64(3)],
                                   [-1, 1.5, "x", True, None, Bad(1 << 16, "leaves")])},
    "HSequence.__call__": {
        "k": ([0, 2, np.int64(1), [0, 2], np.arange(3)],
              [1.5, 2.0, True, "x", None, [0.5], [True], np.array([1.0]), [[0], [1, 2]]])},
    "HArray.__call__": {
        "k": ([1, 2, np.int64(2), np.array([2, 2])], [1.5, 2.0, True, "x", None, [1.0]]),
        "l": (lambda a: [0, a["k"] - 1], [0.5, 0.0, False, "x", None, [0.0], [[0], [0, 0]]])},
    "first_linear": {"c": SLOPES},
    "first_logcorrected": {},
    "dgff_spec": {},
    "zero_spec": {},
    "parse_preset": {"text": (["zero", "dgff", "first:linear:2", "capacity:uniform:0.5"],
                              [1, None, "", "x", "first:linear:inf", "capacity:uniform:-1",
                               b"zero", ["zero"]])},
    "random_first_order": {"depth": ([0, 3, 10], [-1, 1023, BIG] + NOT_INTS),
                           "rng": RNGS, "scale": SCALES},
    "random_second_order": {"depth": ([0, 3, 10], [-1, 1023, BIG] + NOT_INTS),
                            "rng": RNGS, "scale": SCALES},
    "random_capacity": {"depth": ([0, 3, 10], [-1, 1023, BIG] + NOT_INTS), "rng": RNGS},
    "spec_from_doc": {"doc": ([{"variant": "zero"}, SPEC_DOC,
                               {"variant": "capacity",
                                "conductance": {"kind": "uniform", "value": 1.5}}],
                              [None, "x", 5, [], Bad({}, "variant"),
                               Bad({"variant": "first"}, "h")])},
    "load_spec_file": {"path": PATHS_IN},
    "save_spec_file": {
        "spec": ([zero_spec(), first_linear(2.0), dgff_spec(), capacity_uniform(2.0)],
                 [Bad(v, "spec") for v in NOT_SPECS]
                 + [Bad(FirstOrderClustering(HSequence(lambda k: k)), "h")]),
        "path": PATHS_OUT},
}

#: how a built container is used: its weights are read at a small depth
USE = {
    "FirstOrderClustering": lambda spec: pwckit.dp_Z(spec, 1, 0.5),
    "SecondOrderClustering": lambda spec: pwckit.dp_Z(spec, 1, 0.5),
    "CapacityClustering": lambda spec: pwckit.enum_Z(spec, 1, 0.5),
    "HSequence": lambda h: pwckit.dp_Z(FirstOrderClustering(h, 1.0), 1, 0.5),
    "HArray": lambda h: pwckit.dp_Z(SecondOrderClustering(h, 1.0), 0, 0.5),
}

#: the callables whose result is one value per J
PER_J = {"zeta", "dp_density", "enum_zeta", "enum_density"}


#: the small prepared instances whose methods the grammar calls
INSTANCES = {"Sampler": lambda: Sampler(first_linear(2.0), 3, 0.5),
             "HSequence": lambda: HSequence([0.0, 1.0, 2.0]),
             "HArray": lambda: HArray([[], [0.5], [1.0, 1.5]])}


def _callable(name):
    """The callable of a grammar entry: an exported name, or a method of a
    class bound to a class or to a small prepared instance."""
    owner, _, method = name.partition(".")
    if not method:
        return getattr(pwckit, owner)
    if owner in INSTANCES:
        return getattr(INSTANCES[owner](), method)
    return getattr(getattr(pwckit, owner), method)


def test_grammar_covers_the_api():
    # Every public callable but the left-out classes has pools, for exactly
    # its parameters; so have the public methods that take arguments.
    assert set(pwckit.__all__) - LEFT_OUT == {n for n in GRAMMAR if "." not in n}
    assert LEFT_OUT <= set(pwckit.__all__)
    for name, params in GRAMMAR.items():
        assert list(params) == list(inspect.signature(_callable(name)).parameters), name


def _pool(pool, args):
    return pool(args) if callable(pool) and not isinstance(pool, list) else pool


def _nan_free(value):
    """Whether a result holds no NaN, looking into arrays, sequences and the
    package's report and table classes."""
    if isinstance(value, float):
        return not math.isnan(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind != "f" or not np.isnan(value).any()
    if isinstance(value, (list, tuple)):
        return all(map(_nan_free, value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return all(_nan_free(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True


#: what ``_call`` returns for a path the file system refused
OS_REFUSED = object()


def _call(name, kwargs, tmp):
    """The result of the call, or the SpecConfigError it raised; a
    RuntimeWarning is an error."""
    kwargs = {k: v.replace("@TMP@", tmp) if isinstance(v, str) else v
              for k, v in kwargs.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = _callable(name)(**kwargs)
            if name in USE:
                USE[name](result)
        except SpecConfigError as exc:
            return exc
        except OSError:
            path = kwargs.get("path")
            if not (isinstance(path, str) and ("MISSING" in path or "NO-DIR" in path)):
                raise
            return OS_REFUSED
    return result


def _check_result(name, kwargs, result):
    assert not isinstance(result, SpecConfigError), (name, kwargs, result)
    assert _nan_free(result), (name, kwargs)
    if name in PER_J:
        j = kwargs["j"]
        if np.ndim(j) == 0:
            assert isinstance(result, float), (name, kwargs)
        else:
            assert isinstance(result, np.ndarray) and len(result) == len(j), (name, kwargs)


@pytest.mark.parametrize("name", sorted(GRAMMAR))
@settings(max_examples=10)
@given(data=st.data())
def test_api_grammar(name, data):
    params = GRAMMAR[name]
    good = {}
    for param, (pool, _) in params.items():
        good[param] = data.draw(st.sampled_from(_pool(pool, good)), label=param)
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "SPEC.json"), "w") as fh:
            json.dump(SPEC_DOC, fh)
        with open(os.path.join(tmp, "BAD.json"), "w") as fh:
            fh.write("{not json")
        _check_result(name, good, _call(name, good, tmp))
        for param, (_, bad) in params.items():
            for value in bad:
                value, key = value if isinstance(value, Bad) else (value,
                                                                   KEYS.get(param, param))
                kwargs = dict(good, **{param: value})
                result = _call(name, kwargs, tmp)
                if result is OS_REFUSED:
                    continue
                assert isinstance(result, SpecConfigError), (name, param, value, result)
                assert result.key == key, (name, param, value, str(result))
