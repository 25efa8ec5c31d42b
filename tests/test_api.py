import ast
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import pwckit
from pwckit import SpecConfigError


def test_all_is_sorted_without_duplicates():
    assert pwckit.__all__ == sorted(set(pwckit.__all__))


def test_all_entries_resolve():
    for name in pwckit.__all__:
        assert hasattr(pwckit, name), name


def test_all_is_every_public_name_bound_in_the_package():
    bound = {
        name for name, value in vars(pwckit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(pwckit.__all__) == bound


def test_every_module_serves_a_command():
    # The package holds the modules the command line imports, and no other.
    src = Path(pwckit.__file__).parent
    modules = {p.stem for p in src.glob("*.py")} - {"__init__", "__main__", "cli"}
    imported = set()
    for node in ast.walk(ast.parse((src / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                imported.add(node.module)
            else:
                imported.update(alias.name for alias in node.names)
    assert modules == imported


def _raises_unsupported_variant(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "UnsupportedVariant"


def test_one_family_guard_raises_unsupported_variant():
    # Family refusals all go through clustering.check_family, so a new
    # operation cannot hand-write its own check and message.
    src = Path(pwckit.__file__).parent
    raises, in_functions = 0, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        raises += sum(map(_raises_unsupported_variant, ast.walk(tree)))
        in_functions += [
            (path.stem, fn.name)
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if _raises_unsupported_variant(node)
        ]
    assert raises == 1
    assert in_functions == [("clustering", "check_family")]


def test_oracle_reads_weights_through_dp():
    # The oracle takes first- and second-order weights from dp._weights, so
    # both routes accept and refuse the same specs: no weight container or
    # constant is read in oracle.py itself.
    src = Path(pwckit.__file__).parent
    tree = ast.parse((src / "oracle.py").read_text())
    reads = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("h", "h_const_at")
    ]
    assert reads == []


SPEC = pwckit.first_linear(2.0)
RNG = np.random.default_rng(0)


@pytest.mark.parametrize(
    "call,key",
    [
        (lambda: pwckit.sample(SPEC, 3, 0.5, 1.5, 2), "seed"),
        (lambda: pwckit.sample(SPEC, 3, 0.5, 1, 2.5), "num"),
        (lambda: pwckit.sample(SPEC, 3, 0.5, 1, True), "num"),
        (lambda: pwckit.cap_table(2, pwckit.ConductanceProfile.uniform(3)), "profile"),
        (lambda: pwckit.cap_table(5, pwckit.ConductanceProfile.uniform(5)), "depth"),
        (lambda: pwckit.cap_reduce(pwckit.LeafSet(2, (1,)),
                                   pwckit.ConductanceProfile.uniform(3)), "profile"),
        (lambda: pwckit.cap_quadratic(pwckit.LeafSet(2, (1,)),
                                      pwckit.ConductanceProfile.uniform(3)), "profile"),
        (lambda: pwckit.ConductanceProfile.uniform(3, -1.0), "conductance"),
        (lambda: pwckit.ConductanceProfile.uniform(-1), "depth"),
        (lambda: pwckit.LeafSet(2, (9,)), "leaves"),
        (lambda: pwckit.LeafSet(-1, ()), "depth"),
        (lambda: pwckit.random_first_order(-1, RNG), "depth"),
        (lambda: pwckit.random_first_order(2.5, RNG), "depth"),
        (lambda: pwckit.first_linear(float("inf")), "c"),
        (lambda: pwckit.laplace_first(SPEC, 0.5), "s-grid"),
        (lambda: pwckit.laplace_first(SPEC, "a"), "s-grid"),
        (lambda: pwckit.estimate_jstar(SPEC, [4], delta="x"), "delta"),
        (lambda: pwckit.parse_preset(1), "preset"),
        (lambda: pwckit.zeta(None, 3, 0.5), "spec"),
        (lambda: pwckit.dp_W(SPEC, 13, allow_large="no"), "allow_large"),
    ],
    ids=["sample-seed-float", "sample-num-float", "sample-num-bool",
         "cap-table-depth-mismatch", "cap-table-depth-5", "cap-reduce-mismatch",
         "cap-quadratic-mismatch", "uniform-negative-conductance",
         "uniform-negative-depth", "leafset-label-past-end", "leafset-negative-depth",
         "random-negative-depth", "random-float-depth", "first-linear-inf",
         "laplace-scalar-grid", "laplace-text-grid", "estimate-text-delta",
         "preset-not-text", "zeta-no-spec", "dp-w-text-flag"],
)
def test_bad_arguments_name_their_parameter(call, key):
    # Each of these ended in a bare TypeError, ValueError, IndexError or
    # AttributeError, or was accepted, before the API read its arguments
    # through one reader per kind.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpecConfigError) as info:
            call()
    assert info.value.key == key
