"""Grammar-driven fuzz test of the command line.

Subcommands and flags come from ``cli.build_parser()``, so a new flag is
drawn without editing this file: a flag with its own pool below draws from
it, any other from the pool of its argparse type. For each subcommand,
each example draws a command whose values should all be accepted, then
runs it, and once more for every bad value of every flag of the
subcommand, in place of that flag's value (or added, if it was left out).

Every run must exit 0 or 2 (1 only for ``verify``), and the command with
its good values is never an argparse usage error, so a good value that
argparse would take for a flag (``--j -1e-3``) fails. An exit 2 from ``main``
prints exactly one ``error: key '<k>': ...`` line; argparse's own usage
errors name the flag instead. No output may hold a traceback or a printed
NaN, and every ``--summary`` document must parse as strict JSON.

Values that set a command's cost come from small pools (dynamic-program
depths up to 64, at most three draws, short grids, ``--allow-large`` only
where the guarded cost stays small), so the test runs in seconds; values far
past a cap are in the pools too, since a refusal costs nothing.
"""

import argparse
import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from pwckit import cli

BIG = 2**31
TEXT = ["", "x", "1,,2"]

# Each pool is (good, bad): values a command should accept, then values it
# should refuse.
INTS = ([0, 1, 2, 3], [-1, BIG, "x"])
FLOATS = ([0, 0.5, 1], [-1, 1e308, "nan", "inf", "x"])
TEXTS = (TEXT, TEXT)

#: presets by family
PRESETS = {
    "zero": ["zero", "first:linear:0"],
    "first": ["first:linear:2", "first:linear:3ln2", "first:linear3ln2",
              "first:logcorrected"],
    "second": ["dgff"],
    "capacity": ["capacity:uniform", "capacity:uniform:0.5"],
}
BAD_PRESETS = ["first:linear:x", "first:linear:nan", "first:linear:1e308",
               "capacity:uniform:-1", "capacity:uniform:inf", "second", ""]

POOLS = {
    # the run directory holds SPEC, a document of a family the command serves,
    # OTHER, one of another family, and WRONG, one with a leaf replaced
    "--spec-file": (["@TMP@/SPEC"], ["@TMP@/OTHER", "@TMP@/WRONG", "@TMP@/MISSING.json"]),
    # dynamic-program and oracle depths: cheap up to 64, refused past that
    "--depth": ([0, 1, 2, 3, 4, 5, 8, 12, 16, 64], [-1, 1023, 20000, BIG, ""]),
    "--depths": (["0", "8", "8,12", "4,16", "32", "1,,2"],
                 ["-1", "2000", "2147483648", ",", "x", ""]),
    "--delta": ([0.05, 1e-6, 1e-300, 1], [0, -1, "nan", "inf", "x"]),
    "--k-max": ([1, 2, 1000, 100000], [0, -1, 4194305, BIG, "x"]),
    "--m-max": ([0, 1, 5, 256, 10000000], [-1, BIG, "x"]),
    "--j-grid": (["0", "-3:3:0.5", "0,1,2", "-1", "1,,2", "-40:40:10", "-3e-1"],
                 ["1:2", "0:1:0", "2:1:1", "0:1:1e-300", "0:inf:1", ",", "", "nan",
                  "inf", "-inf", "1e308", "x", "pow2:2:3"]),
    # the last bad grid is refused only for its cost
    "--s-grid": (["1", "0.5,0.25", "pow2:1:2", "pow2:2:1", "pow2:2:10"],
                 ["2", "0", "-1", "nan", "pow2:3", ",", "", "pow2:0:100000000",
                  "pow2:a:b", "1e-9"]),
    "--j": ([0, 0.5, 2, -1, -30, BIG, "-1e-3"], [1e308, "nan", "inf", "-inf", "", "x"]),
    "--num": ([1, 2, 3], [0, -1, "", "x"]),
    "--draws": ([1, 2, 3], [0, -1, ""]),
    "--seed": ([0, 1, 7, BIG, 2**64], [-1, "", "x"]),
    "--tol": ([1e-9, 1e-12, 1e-300, 1], [0, -1, "nan", "inf", ""]),
    "--conductance": ([1.0, 0.5, 2], [0, -1, 1e308, 5e-324, "nan", "inf", "x"]),
    "--subset": (["0", "0,1", "0,5", "1 2 3"], ["-1", "0,9", "0,x", str(BIG), ""]),
    "--out": (["-", "@TMP@/out.txt"], ["@TMP@/NO-DIR/out.txt"]),
    "--summary": (["@TMP@/run.json"], ["@TMP@/NO-DIR/run.json"]),
}

#: depths of the commands whose cost grows fastest with depth
DEPTH_POOLS = {
    "sample": ([0, 1, 2, 3, 5, 10], [-1, 20000, BIG, "x"]),
    "verify": ([1, 2, 3], [0, -1, BIG, ""]),
    "capacity": ([0, 1, 2, 3, 4, 5, 16, 64, 20000], [-1, 4194305, BIG, ""]),
}
#: depths and s grids under --allow-large or --all-subsets, whose cost is
#: unguarded: full tables up to depth 3, s down to 2^-2
CHEAP_DEPTHS = ([0, 1, 2, 3], [-1, 1023, 20000, BIG])
CHEAP_S_GRIDS = (POOLS["--s-grid"][0][:-1], POOLS["--s-grid"][1][:-1])

#: parameter documents by family
SPEC_DOCS = {
    "zero": [{"variant": "zero"}],
    "first": [
        {"variant": "first", "h": {"kind": "list", "values": [0, 1, 2.5, 4]}, "h_const": 5},
        {"variant": "first", "h": {"kind": "preset", "name": "linear", "c": 2}},
        {"variant": "first", "h": {"kind": "preset", "name": "logcorrected"},
         "h_const": "default"},
    ],
    "second": [
        {"variant": "second",
         "h": {"kind": "table", "values": [[], [0.5], [1, 1.5], [2, 2.5, 3]]}},
        {"variant": "second", "h": {"kind": "preset", "name": "dgff"}, "h_const": 9},
    ],
    "capacity": [
        {"variant": "capacity", "conductance": {"kind": "uniform", "value": 1.5}},
        {"variant": "capacity", "conductance": {"kind": "list", "values": [1, 2, 0.5, 1]}},
    ],
}
#: JSON texts a leaf may become; 1e400 and NaN read back as inf and nan
LEAF_TEXTS = ["null", '"text"', "1e400", "NaN", "-1", "[]", "0", str(BIG)]


def _subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        for name, p in sorted(sub.choices.items())
    }


SUBCOMMANDS = _subcommands()


def _leaves(doc, path=()):
    """Paths to every leaf of a parsed document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _families(command, argv):
    """The families a command serves, given its switches."""
    if command == "capacity":
        return ["capacity"]
    if "--maxterm" in argv:
        return ["zero", "first"]
    if command in ("threshold", "sample", "diagnose"):
        return ["zero", "first", "second"]
    return sorted(SPEC_DOCS)


def _documents(families):
    return [doc for family in families for doc in SPEC_DOCS[family]]


@st.composite
def wrong_spec_texts(draw, families):
    """A parameter document of one of ``families`` as JSON text, with one
    leaf replaced."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_documents(families)))))
    *head, last = draw(st.sampled_from(_leaves(doc)))
    parent = doc
    for key in head:
        parent = parent[key]
    parent[last] = "@LEAF@"
    return json.dumps(doc).replace('"@LEAF@"', draw(st.sampled_from(LEAF_TEXTS)))


def _pool(command, flag, kind, argv):
    """The (good, bad) values of a flag, given the switches drawn before it."""
    cheap = "--allow-large" in argv or "--all-subsets" in argv
    if flag == "--preset":
        served = _families(command, argv)
        return ([p for f in served for p in PRESETS[f]],
                BAD_PRESETS + [p for f in PRESETS if f not in served for p in PRESETS[f]])
    if flag == "--depth":
        return CHEAP_DEPTHS if cheap else DEPTH_POOLS.get(command, POOLS[flag])
    if flag == "--s-grid" and cheap:
        return CHEAP_S_GRIDS
    return POOLS.get(flag) or {int: INTS, float: FLOATS}.get(kind, TEXTS)


def _forced(flag, argv):
    """Flags whose default costs too much: verify's 20 draws, and the s grid
    down to 2^-10 under --allow-large."""
    return flag == "--draws" or (flag == "--s-grid" and "--allow-large" in argv)


@st.composite
def commands(draw, command):
    """``(switches, flags, files)``: ``command`` with its switches, all its
    valued flags as ``(flag, good values, bad values, glued)``, and the spec
    texts by file name. A switch, or the good value of an optional flag, is
    given about three times in four; an optional flag left out has no good
    values. Switches come first, so that the pools of cost-bearing values
    can see them. Paths start with ``@TMP@``, the run directory."""
    argv, flags = [command], []
    for action in sorted(SUBCOMMANDS[command], key=lambda a: a.nargs != 0):
        flag = action.option_strings[-1]
        given = action.required or _forced(flag, argv) or draw(st.integers(0, 3)) > 0
        if action.nargs == 0:
            argv += [flag] if given else []
            continue
        good, bad = _pool(command, flag, action.type, argv)
        repeats = draw(st.integers(1, 2)) if isinstance(action, argparse._AppendAction) else 1
        values = [str(draw(st.sampled_from(good))) for _ in range(repeats * given)]
        flags.append((flag, values, [str(v) for v in bad], draw(st.booleans())))
    served = _families(command, argv)
    other = _documents(f for f in SPEC_DOCS if f not in served) or [{}]
    files = {"SPEC": json.dumps(draw(st.sampled_from(_documents(served)))),
             "OTHER": json.dumps(draw(st.sampled_from(other))),
             "WRONG": draw(wrong_spec_texts(served))}
    return argv, flags, files


def _variants(argv, flags):
    """The command with its good values, then with each bad value of each
    flag, given or not, in place of that flag's values. A glued flag is one
    argument, ``--flag=value``."""
    def line(wrong=None, value=None):
        out = list(argv)
        for k, (flag, values, _, glued) in enumerate(flags):
            for v in [value] if k == wrong else values:
                out += ["%s=%s" % (flag, v)] if glued else [flag, v]
        return out

    yield line()
    for k, (_, _, bad, _) in enumerate(flags):
        for value in bad:
            yield line(k, value)


def _reject_constant(name):
    raise ValueError("non-strict JSON constant %s" % (name,))


NAN = re.compile(r"(?<![A-Za-z_])nan(?![A-Za-z_])", re.IGNORECASE)


def _check(argv, tmp, good=False):
    """Run ``argv`` in the run directory ``tmp`` and check its outcome; the
    command with its ``good`` values is no argparse usage error."""
    argv = [a.replace("@TMP@", tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = cli.main(argv), False
        except SystemExit as exc:  # argparse's own usage errors
            code, usage = exc.code, True
    texts, summary = [out.getvalue(), err.getvalue()], None
    for name in ("out.txt", "run.json"):
        path = os.path.join(tmp, name)
        if os.path.exists(path):
            with open(path) as fh:
                texts.append(fh.read())
            os.remove(path)
            summary = texts[-1] if name == "run.json" else summary
    texts = [t.replace(tmp, "@TMP@") for t in texts]
    err = texts[1]

    assert not any("Traceback" in t for t in texts), (argv, err)
    if usage:
        assert not good, (argv, err)
        assert code == 2 and re.search(r"error: .*--[a-z]", err), (argv, err)
        return
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), (argv, err)
    if code == 2:
        assert texts[0] == "" and summary is None, argv
        assert err.count("\n") == 1 and re.match(r"error: key '[^']+': ", err), (argv, err)
        return
    assert not any(NAN.search(t) for t in texts), argv
    if summary is not None:
        json.loads(summary, parse_constant=_reject_constant)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=15)
@given(data=st.data())
def test_cli_grammar(command, data):
    argv, flags, files = data.draw(commands(command))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        for k, line in enumerate(_variants(argv, flags)):
            _check(line, tmp, good=k == 0)
