"""Mutants of the source that the test suite must catch.

Each entry names a file under ``src/``, an exact snippet ``old`` that occurs
there once, the ``new`` text that replaces it, the tests that must fail on
the mutant, and the change that brought the mutated code in.

    python tests/mutants.py

For each mutant the runner copies ``src/`` into a temporary directory,
applies the mutant there and runs its tests against the copy with
``pytest -x``. A mutant is caught when pytest reports a failed test (exit
code 1); the runner exits 1 if any mutant survives or its tests do not run.
pytest does not collect this file; ``tests/test_mutants.py`` checks the list
itself in tier 1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BIT_IDENTITY = "tests/test_dp.py::test_maxterm_is_bit_identical_to_reference"
_DIVIDE_AND_CONQUER = "max-plus rows by divide and conquer"

MUTANTS = (
    {
        "id": "bracket-starts-past-lower-argmax",
        "src": "src/pwckit/dp.py",
        "old": "lo = np.maximum(arg[np.maximum(t - s, 0)], (t + 1) // 2)",
        "new": "lo = np.maximum(arg[np.maximum(t - s, 0)] + 1, (t + 1) // 2)",
        "tests": [_BIT_IDENTITY],
        "origin": _DIVIDE_AND_CONQUER,
    },
    {
        "id": "bracket-one-short-at-the-top",
        "src": "src/pwckit/dp.py",
        "old": "w = int((np.minimum(arg[t + s], t) + 1 - lo).max())",
        "new": "w = int((np.minimum(arg[t + s], t) - lo).max())",
        "tests": [_BIT_IDENTITY],
        "origin": _DIVIDE_AND_CONQUER,
    },
    {
        "id": "halving-stops-at-two",
        "src": "src/pwckit/dp.py",
        "old": "    while s > 1:\n        s //= 2\n",
        "new": "    while s > 2:\n        s //= 2\n",
        "tests": [_BIT_IDENTITY],
        "origin": _DIVIDE_AND_CONQUER,
    },
)


def run(mutant):
    """pytest's exit code for ``mutant``'s tests on a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / mutant["src"]
        text = path.read_text()
        if text.count(mutant["old"]) != 1:
            raise SystemExit("%s: old snippet not found once in %s" % (mutant["id"], mutant["src"]))
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "-o", "pythonpath=%s" % (src,), *mutant["tests"]]
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        return done.returncode


def main():
    missed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run(mutant)
        verdict = {0: "SURVIVED", 1: "caught"}.get(code, "ERROR (pytest exit %d)" % code)
        missed += code != 1
        print("%-36s %-24s %.1f s" % (mutant["id"], verdict, time.perf_counter() - start))
    print("%d of %d mutants caught" % (len(MUTANTS) - missed, len(MUTANTS)))
    return int(missed > 0)


if __name__ == "__main__":
    sys.exit(main())
