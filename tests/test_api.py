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
