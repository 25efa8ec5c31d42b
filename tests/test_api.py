import ast
import types
from pathlib import Path

import pwckit


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
