"""The mutant list (``tests/mutants.py``) stays runnable: every snippet it
mutates is still in its file, once, and every test meant to catch a mutant
still exists. Running the mutants themselves is ``python tests/mutants.py``."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    assert set(mutant) == {"id", "src", "old", "new", "tests", "origin"}
    assert mutant["src"].startswith("src/") and mutant["old"] != mutant["new"]
    assert (ROOT / mutant["src"]).read_text().count(mutant["old"]) == 1
    assert mutant["tests"]
    for test_id in mutant["tests"]:
        path, name = test_id.split("::")
        tree = ast.parse((ROOT / path).read_text())
        names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.split("[")[0] in names, test_id
