import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pwckit
from pwckit import cli, dp
from pwckit.cli import main
from pwckit.clustering import dgff_spec, first_linear, load_spec_file, save_spec_file

from test_cli_grammar import SUBCOMMANDS


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    rows = []
    for line in out.splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            float(line.split(" #")[0].rsplit(",", 1)[-1])
        except ValueError:
            continue
        rows.append(line)
    return rows


def test_readme_examples_run(capsys):
    # The library quickstart runs as written, and every line of the
    # command-line block exits 0 through main.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quickstart = text.split("## Library quickstart")[1].split("```python\n")[1]
    exec(compile(quickstart.split("```")[0], "README quickstart", "exec"), {})
    block = text.split("## Command-line interface")[1].split("```\n")[1]
    lines = [line.split() for line in block.splitlines()]
    assert lines and all(line[0] == "pwckit" for line in lines)
    for line in lines:
        assert run(capsys, line[1:])[0] == 0, line


def test_readme_parameter_files_run(tmp_path, capsys):
    # Every JSON block under "Parameter files" loads, and zeta runs on it.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Parameter files")[1].split("\n## ")[0]
    blocks = [b.split("```")[0] for b in section.split("```json\n")[1:]]
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / ("readme%d.json" % i)
        path.write_text(block)
        load_spec_file(str(path))
        argv = ["zeta", "--spec-file", str(path), "--depth", "3", "--j-grid", "0"]
        assert run(capsys, argv)[::2] == (0, ""), block


def test_zeta_zero_closed_form(capsys):
    code, out, err = run(
        capsys,
        ["zeta", "--preset", "zero", "--depth", "6", "--j-grid=-1:1:0.5"],
    )
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "j,zeta_n"
    rows = data_rows(out)
    assert len(rows) == 5
    for row in rows:
        j, z = map(float, row.split(","))
        assert z == pytest.approx(math.log1p(math.exp(j)), abs=1e-12)
    # 17 significant digits survive a text round trip.
    assert float(rows[0].split(",")[1]) == math.log1p(math.exp(-1.0))


def test_zeta_comma_grid(capsys):
    code, out, _ = run(
        capsys, ["zeta", "--preset", "zero", "--depth", "3", "--j-grid", "0,2"]
    )
    assert code == 0
    assert [r.split(",")[0] for r in data_rows(out)] == ["0", "2"]


def test_density_rows_increase(capsys):
    code, out, _ = run(
        capsys,
        ["density", "--preset", "first:linear:3ln2", "--depth", "5",
         "--j-grid=-2:2:1"],
    )
    assert code == 0
    assert "j,rho_n" in out
    vals = [float(r.split(",")[1]) for r in data_rows(out)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert vals == sorted(vals)


def test_canonical_table(capsys):
    code, out, _ = run(
        capsys, ["canonical", "--preset", "zero", "--depth", "3"]
    )
    assert code == 0
    assert "a0,ln_w,omega_n" in out
    rows = data_rows(out)
    assert len(rows) == 9
    a0, ln_w, _ = rows[3].split(",")
    assert int(a0) == 3
    assert float(ln_w) == pytest.approx(math.log(math.comb(8, 3)), rel=1e-12)


def test_canonical_m_max_and_maxterm(capsys):
    code, out, _ = run(
        capsys,
        ["canonical", "--preset", "zero", "--depth", "3", "--m-max", "2",
         "--maxterm"],
    )
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 3
    assert float(rows[1].split(",")[1]) == pytest.approx(math.log(8.0))


@pytest.mark.parametrize("m_max,rows", [(0, 1), (1, 2), (3, 4), (4, 5), (100, 5)])
def test_canonical_capacity_m_max_cuts_the_table(capsys, m_max, rows):
    argv = ["canonical", "--preset", "capacity:uniform", "--depth", "2"]
    _, full, _ = run(capsys, argv)
    code, out, err = run(capsys, argv + ["--m-max", str(m_max)])
    assert (code, err) == (0, "")
    assert data_rows(out) == data_rows(full)[:rows]


def test_canonical_depth_guard(capsys):
    code, out, err = run(
        capsys, ["canonical", "--preset", "zero", "--depth", "13"]
    )
    assert code == 2
    assert "error:" in err


def test_missing_spec_is_usage_error(capsys):
    code, out, err = run(capsys, ["zeta", "--depth", "3", "--j-grid", "0"])
    assert code == 2
    assert "spec" in err


def test_unknown_preset_names_key(capsys):
    code, out, err = run(
        capsys, ["zeta", "--preset", "nope", "--depth", "3", "--j-grid", "0"]
    )
    assert code == 2
    assert "error:" in err and "nope" in err


def test_spec_file_round_trip(tmp_path, capsys):
    path = tmp_path / "spec.json"
    save_spec_file(first_linear(3 * math.log(2.0)), str(path))
    code, out, _ = run(
        capsys,
        ["zeta", "--spec-file", str(path), "--depth", "4", "--j-grid", "0"],
    )
    assert code == 0
    direct_code, direct_out, _ = run(
        capsys,
        ["zeta", "--preset", "first:linear:3ln2", "--depth", "4",
         "--j-grid", "0"],
    )
    assert data_rows(out) == data_rows(direct_out)


def test_zero_document_loads_as_the_zero_preset(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(SPEC_FILES["ZERO-DOC"])
    grid = ["--depth", "5", "--j-grid", "-3:3:0.5"]
    code, out, _ = run(capsys, ["zeta", "--spec-file", str(path)] + grid)
    assert code == 0
    assert out == run(capsys, ["zeta", "--preset", "zero"] + grid)[1]


def test_out_file_and_summary(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    summary_path = tmp_path / "run.json"
    code, out, _ = run(
        capsys,
        ["zeta", "--preset", "zero", "--depth", "3", "--j-grid", "0,1",
         "--out", str(out_path), "--summary", str(summary_path)],
    )
    assert code == 0
    text = out_path.read_text()
    assert "j,zeta_n" in text
    doc = json.loads(summary_path.read_text())
    assert doc["command"] == "zeta"
    assert doc["depth"] == 3


def test_threshold_report(capsys):
    code, out, _ = run(
        capsys,
        ["threshold", "--preset", "first:linear:3ln2", "--depths", "8,10"],
    )
    assert code == 0
    assert "n,jstar_upper,slope_estimate,tail,delta" in out
    assert len(data_rows(out)) == 2
    report_line = [l for l in out.splitlines() if l.startswith("{")]
    assert len(report_line) == 1
    doc = json.loads(report_line[0])
    assert doc["verdict"] == "transition-supported"


def test_sample_deterministic(capsys):
    argv = ["sample", "--preset", "zero", "--depth", "3", "--j", "0.5",
            "--num", "8", "--seed", "11"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    body = [l for l in out1.splitlines() if not l.startswith("#")]
    assert len(body) == 8
    for line in body:
        if line:
            leaves = [int(x) for x in line.split()]
            assert leaves == sorted(leaves)
            assert all(0 <= v < 8 for v in leaves)


def test_sample_capacity_rejected(capsys):
    code, out, err = run(
        capsys,
        ["sample", "--preset", "capacity:uniform", "--depth", "2",
         "--j", "0.0", "--num", "1", "--seed", "0"],
    )
    assert code == 2
    assert "error:" in err


def test_capacity_uniform_values(capsys):
    code, out, _ = run(
        capsys,
        ["capacity", "--depth", "2", "--subset", "0,1",
         "--subset", "0 2", "--subset", "0,1,2,3"],
    )
    assert code == 0
    assert "leaves,cap" in out
    rows = data_rows(out)
    caps = [float(r.rsplit(",", 1)[1]) for r in rows]
    assert caps[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert caps[1] == pytest.approx(1.0, rel=1e-12)
    assert caps[2] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_capacity_all_subsets_guard(capsys):
    code, out, _ = run(capsys, ["capacity", "--depth", "2", "--all-subsets"])
    assert code == 0
    assert len(data_rows(out)) == 16
    code, out, err = run(capsys, ["capacity", "--depth", "5", "--all-subsets"])
    assert code == 2


def test_capacity_depth_zero_is_infinite(capsys):
    # The one leaf of a depth-0 tree is the root: grounding it shorts the
    # root, as cap_table says.
    code, out, err = run(capsys, ["capacity", "--depth", "0", "--subset", "0"])
    assert (code, out, err) == (0, "leaves,cap\n0,inf\n", "")
    code, out, err = run(capsys, ["capacity", "--depth", "0", "--all-subsets"])
    assert (code, out, err) == (0, "leaves,cap\n,0\n0,inf\n", "")


def test_capacity_deep_singleton(capsys):
    # 1500 unit resistors in series: the reduction needs no recursion.
    code, out, err = run(capsys, ["capacity", "--depth", "1500", "--subset", "0"])
    assert (code, err) == (0, "")
    assert float(out.splitlines()[1].split(",")[1]) == 1.0 / 1500


@pytest.mark.parametrize(
    ("conductance", "cap"),
    [("5e-324", 1e-323), ("1e-300", 2e-300), ("1e300", 2e300), ("8e307", 1.6e308)],
)
def test_capacity_at_extreme_conductances(capsys, conductance, cap):
    # Two leaf edges in parallel: CAP = 2c, whether c is subnormal or huge.
    argv = ["capacity", "--depth", "1", "--conductance", conductance, "--subset", "0,1"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert float(data_rows(out)[0].split(",")[1]) == pytest.approx(cap, rel=1e-15, abs=0)


def test_oracle_at_huge_conductance(capsys):
    # At c = 1e308 every capacity at depth 4 is finite (the full set's is
    # c / (1 - 2^-4)), though a sum of two leaf conductances is not.
    for command in ("density", "zeta"):
        argv = [command, "--preset", "capacity:uniform:1e308", "--depth", "4",
                "--j-grid", "0"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (0, "j,%s\n0,0\n" % (
            "rho_n" if command == "density" else "zeta_n"), "")


def test_cost_guard_names_the_flags(capsys):
    code, out, err = run(capsys, ["canonical", "--preset", "zero", "--depth", "13"])
    assert code == 2 and out == ""
    assert err.startswith("error: key 'depth'")
    assert "--allow-large" in err and "--m-max" in err


def test_deepest_depth_stays_finite(capsys):
    # ln Z = 2^n ln(1 + e^J) for the zero family fits a float up to the bound.
    code, out, err = run(
        capsys, ["zeta", "--preset", "zero", "--depth", "1022", "--j-grid=-0.9,0,0.9"]
    )
    assert code == 0 and err == ""
    for row in data_rows(out):
        j, z = map(float, row.split(","))
        assert z == pytest.approx(math.log1p(math.exp(j)), rel=1e-12)
    code, out, err = run(
        capsys, ["density", "--preset", "zero", "--depth", "1022", "--j-grid", "0"]
    )
    assert code == 0 and err == ""
    assert float(data_rows(out)[0].split(",")[1]) == pytest.approx(0.5, rel=1e-12)


def test_diagnose_first_order(capsys):
    code, out, _ = run(
        capsys,
        ["diagnose", "--preset", "first:linear:ln2", "--s-grid", "pow2:2:4",
         "--k-max", "4096"],
    )
    assert code == 0
    assert "# laplace" in out
    assert "s,diag" in out
    assert "k,diag" in out
    assert "verdict=no-transition-supported" in out
    first = data_rows(out)[0].split(",")
    assert float(first[0]) == 0.25
    assert float(first[1].split()[0]) == pytest.approx(math.log(4.0), abs=1e-12)


def test_pow2_grid_reads_either_order(capsys):
    argv = ["diagnose", "--preset", "first:linear:ln2", "--k-max", "64", "--s-grid"]
    code, out, _ = run(capsys, argv + ["pow2:5:2"])
    assert code == 0
    assert out == run(capsys, argv + ["pow2:2:5"])[1]


def test_diagnose_capacity_rejected(capsys):
    code, out, err = run(
        capsys, ["diagnose", "--preset", "capacity:uniform"]
    )
    assert code == 2


def test_verify_passes(capsys):
    code, out, _ = run(
        capsys, ["verify", "--depth", "2", "--draws", "4", "--seed", "1"]
    )
    assert code == 0
    lines = out.splitlines()
    suites = [l.split()[0] for l in lines if l.startswith(("PASS", "FAIL"))]
    assert suites == ["PASS"] * 9
    names = [l.split()[1] for l in lines if l.startswith("PASS")]
    assert names == [
        "zeta-first", "zeta-second", "w-first", "w-second",
        "density-first", "density-second", "maxterm",
        "capacity-dual", "capacity-z",
    ]
    assert any(l.startswith("# 0 failure") for l in lines)


def test_verify_failure_exits_1(monkeypatch, tmp_path, capsys):
    # A density kernel off by one part in 10^6 fails both density suites,
    # and only those: exit 1, and the summary lists the FAIL lines.
    density = dp.dp_density
    monkeypatch.setattr(dp, "dp_density", lambda *a: density(*a) * (1 + 1e-6))
    path = tmp_path / "run.json"
    code, out, _ = run(capsys, ["verify", "--depth", "2", "--draws", "2", "--seed",
                                "1", "--summary", str(path)])
    assert code == 1
    lines = out.splitlines()
    fails = [l for l in lines if l.startswith("FAIL ") and " n=" in l]
    assert [l.split()[1:4] for l in fails] == [
        [suite, "n=%d" % n, "draw=%d:" % draw] for n in (1, 2) for draw in (0, 1)
        for suite in ("density-first", "density-second")]
    suites = [l for l in lines if l.startswith(("PASS ", "FAIL ")) and " n=" not in l]
    assert suites == [
        "PASS zeta-first", "PASS zeta-second", "PASS w-first", "PASS w-second",
        "FAIL density-first", "FAIL density-second", "PASS maxterm",
        "PASS capacity-dual", "PASS capacity-z",
    ]
    assert json.loads(path.read_text())["failures"] == [l[len("FAIL "):] for l in fails]


def test_zeta_grid_with_bare_negative_start(capsys):
    # The dash-leading grid value must work without '=' glue.
    code, out, _ = run(
        capsys,
        ["zeta", "--preset", "zero", "--depth", "10",
         "--j-grid", "-3:3:0.5"],
    )
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 13
    for row in rows:
        j, z = map(float, row.split(","))
        assert abs(z - math.log1p(math.exp(j))) < 1e-10


def test_threshold_linear3ln2_lower_bound(capsys):
    code, out, _ = run(
        capsys,
        ["threshold", "--preset", "first:linear3ln2", "--depths", "8,12,16"],
    )
    assert code == 0
    doc = json.loads([l for l in out.splitlines() if l.startswith("{")][0])
    assert doc["lower_bound"] == pytest.approx(
        2 * math.log(2.0) + math.log(3.0), abs=1e-12
    )
    assert len(data_rows(out)) == 3


def test_verify_documented_invocation(capsys):
    code, out, _ = run(
        capsys, ["verify", "--depth", "3", "--draws", "20", "--seed", "7"]
    )
    assert code == 0
    assert out.count("PASS") == 9


def test_compact_preset_spelling(capsys):
    code, out, _ = run(
        capsys,
        ["zeta", "--preset", "first:linear3ln2", "--depth", "3",
         "--j-grid", "0"],
    )
    assert code == 0


def _reject_constant(name):
    raise ValueError("not strict JSON: %s" % (name,))


def test_threshold_zero_no_transition(capsys):
    code, out, err = run(
        capsys, ["threshold", "--preset", "zero", "--depths", "8", "--k-max", "1000"]
    )
    assert code == 0 and err == ""
    doc = json.loads([l for l in out.splitlines() if l.startswith("{")][0],
                     parse_constant=_reject_constant)
    assert float(doc["kappa_value"]) == math.inf
    assert doc["tauberian_verdict"] == "no-transition-supported"
    assert doc["verdict"] == "no-transition-supported"


def test_zero_is_first_order_with_no_penalty(capsys):
    # The zero preset is first:linear:0, so every command prints the same
    # bytes for both; the threshold report differs only in its label.
    for argv in (
        ["zeta", "--depth", "6", "--j-grid=-1:1:0.5"],
        ["density", "--depth", "6", "--j-grid=-1:1:0.5"],
        ["canonical", "--depth", "4"],
        ["canonical", "--depth", "4", "--maxterm"],
        ["canonical", "--depth", "12", "--m-max", "256"],
        ["sample", "--depth", "5", "--j", "0.3", "--num", "4", "--seed", "7"],
        ["diagnose", "--s-grid", "pow2:2:6", "--k-max", "1000"],
    ):
        zero = run(capsys, argv + ["--preset", "zero"])
        assert zero[0] == 0 and zero[1], argv
        assert run(capsys, argv + ["--preset", "first:linear:0"]) == zero, argv
    docs = []
    for preset in ("zero", "first:linear:0"):
        code, out, err = run(capsys, ["threshold", "--preset", preset,
                                      "--depths", "0,1,4,8", "--k-max", "1000"])
        assert (code, err) == (0, "")
        docs.append(json.loads(out.splitlines()[-1]))
    assert docs[0].pop("label") == "preset:zero"
    assert docs[1].pop("label") == "preset:first:linear:0"
    assert docs[0] == docs[1]


SPEC_FILES = {
    "SHORT": '{"variant": "first", "h": {"kind": "list", "values": [0, 1, 2]}}',
    "NULL-H": '{"variant": "first", "h": {"kind": "list", "values": [0, null, 2]}}',
    "HUGE-H": '{"variant": "first", "h": {"kind": "list", "values": [0, 1e400, 2]}}',
    "TEXT-ROW": '{"variant": "second", "h": {"kind": "table", "values": [[], ["1"]]}}',
    "NULL-ROW": '{"variant": "second", "h": {"kind": "table", "values": [[], [null]]}}',
    "NULL-C": '{"variant": "capacity", "conductance": {"kind": "list", "values": [1, null]}}',
    "NULL-SLOPE": '{"variant": "first", "h": {"kind": "preset", "name": "linear", "c": null}}',
    "TEXT-SLOPE": '{"variant": "first", "h": {"kind": "preset", "name": "linear", "c": "x"}}',
    "HUGE-SLOPE": '{"variant": "first", "h": {"kind": "preset", "name": "linear", "c": 1e400}}',
    "NAN-CONST": ('{"variant": "first", "h": {"kind": "preset", "name": "linear", "c": 2},'
                  ' "h_const": NaN}'),
    "NULL-UNIFORM": '{"variant": "capacity", "conductance": {"kind": "uniform", "value": null}}',
    "NEG-CONST": ('{"variant": "first", "h": {"kind": "preset", "name": "linear", "c": 2},'
                  ' "h_const": -1e9}'),
    "NEG-TAIL": '{"variant": "first", "h": {"kind": "list", "values": [0, -5, -5]}}',
    "NEG-H": ('{"variant": "first", "h": {"kind": "list",'
              ' "values": [0, -1e306, 0, 0, 0, 0, 0, 0, 0, 0, 0]}}'),
    "POS-H": ('{"variant": "first", "h": {"kind": "list", "values": [%s]}}'
              % ", ".join(["1e308"] * 11)),
    "NEG-UNIFORM": '{"variant": "capacity", "conductance": {"kind": "uniform", "value": -1}}',
    "SHORT-C": '{"variant": "capacity", "conductance": {"kind": "list", "values": [1.0, 2.0]}}',
    "HUGE-C": ('{"variant": "capacity", "conductance": {"kind": "list",'
               ' "values": [1.7e308, 1.7e308]}}'),
    "WIDE-C": ('{"variant": "capacity", "conductance": {"kind": "list",'
               ' "values": [1e-200, 1e200]}}'),
    "ROOT-LIST": '[{"variant": "zero"}]',
    "NO-KIND": '{"variant": "first", "h": {"values": [0, 1, 2]}}',
    "NO-SLOPE": '{"variant": "first", "h": {"kind": "preset", "name": "linear"}}',
    "BAD-NAME": '{"variant": "first", "h": {"kind": "preset", "name": "cubic"}}',
    "BAD-KIND": '{"variant": "first", "h": {"kind": "table", "values": [[0]]}}',
    "NO-H-SECOND": '{"variant": "second"}',
    "ROWS-NOT-LIST": '{"variant": "second", "h": {"kind": "table", "values": 3}}',
    "BAD-KIND-SECOND": '{"variant": "second", "h": {"kind": "list", "values": [0]}}',
    "NO-CONDUCTANCE": '{"variant": "capacity"}',
    "ZERO-C": '{"variant": "capacity", "conductance": {"kind": "list", "values": [1, 0]}}',
    "BAD-C-KIND": '{"variant": "capacity", "conductance": {"kind": "table", "values": [1]}}',
    "ZERO-DOC": '{"variant": "zero"}',
}

#: paths under tmp_path that do not exist
MISSING = ("MISSING.json", "NO-DIR/table.csv", "NO-DIR/run.json")


class _Limited(list):
    """An argv that runs in a child interpreter under its own address-space
    cap, because a missing guard would exhaust memory or run without end."""


#: the child's address-space cap, 1.5 GiB
_LIMIT_AS = 3 << 29
_LIMITED_MAIN = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
                 "from pwckit.cli import main; sys.exit(main(sys.argv[1:]))"
                 % (_LIMIT_AS, _LIMIT_AS))


def _child_env():
    """The environment with this checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(pwckit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "argv,key",
    [
        (["zeta", "--preset", "first:linear:2", "--depth", "-1", "--j-grid", "0"],
         "'depth'"),
        (["zeta", "--preset", "zero", "--depth", "-1", "--j-grid", "0"], "'depth'"),
        (["zeta", "--spec-file", "SHORT", "--depth", "5", "--j-grid", "0"],
         "'h.values'"),
        (["canonical", "--spec-file", "SHORT", "--depth", "5"], "'h.values'"),
        (["sample", "--spec-file", "SHORT", "--depth", "5", "--j", "0",
          "--seed", "1"], "'h.values'"),
        (["density", "--preset", "zero", "--depth", "3", "--j-grid", "nan"], "'j'"),
        (["density", "--preset", "zero", "--depth", "3", "--j-grid=-inf,inf"], "'j'"),
        (["sample", "--preset", "dgff", "--depth", "3", "--j", "inf",
          "--seed", "1"], "'j'"),
        (["zeta", "--spec-file", "NULL-H", "--depth", "2", "--j-grid", "0"],
         "'h.values'"),
        (["zeta", "--spec-file", "HUGE-H", "--depth", "2", "--j-grid", "0"],
         "'h.values'"),
        (["zeta", "--spec-file", "TEXT-ROW", "--depth", "0", "--j-grid", "0"],
         "'h.values'"),
        (["zeta", "--spec-file", "NULL-ROW", "--depth", "0", "--j-grid", "0"],
         "'h.values'"),
        (["zeta", "--spec-file", "NULL-C", "--depth", "2", "--j-grid", "0"],
         "'conductance.values'"),
        (["zeta", "--spec-file", "NULL-SLOPE", "--depth", "2", "--j-grid", "0"], "'h.c'"),
        (["zeta", "--spec-file", "TEXT-SLOPE", "--depth", "2", "--j-grid", "0"], "'h.c'"),
        (["zeta", "--spec-file", "HUGE-SLOPE", "--depth", "2", "--j-grid", "0"], "'h.c'"),
        (["zeta", "--spec-file", "NAN-CONST", "--depth", "2", "--j-grid", "0"],
         "'h_const'"),
        (["zeta", "--spec-file", "NULL-UNIFORM", "--depth", "2", "--j-grid", "0"],
         "'conductance.value'"),
        (["sample", "--preset", "zero", "--depth", "2", "--j", "0", "--num", "0",
          "--seed", "1"], "'num'"),
        (["sample", "--preset", "zero", "--depth", "2", "--j", "0", "--num", "-1",
          "--seed", "1"], "'num'"),
        (["canonical", "--preset", "zero", "--depth", "3", "--m-max", "-1"], "'m_max'"),
        (["canonical", "--preset", "zero", "--depth", "3", "--m-max", "-1",
          "--maxterm"], "'m_max'"),
        (["verify", "--depth", "0"], "'depth'"),
        (["verify", "--depth", "-3", "--draws", "1"], "'depth'"),
        (["verify", "--draws", "0"], "'draws'"),
        (["verify", "--seed", "-1"], "'seed'"),
        (["threshold", "--preset", "first:linear:2", "--depths", "4", "--k-max", "0"],
         "'k_max'"),
        (["diagnose", "--preset", "first:linear:2", "--k-max", "0"], "'k_max'"),
        (["threshold", "--preset", "dgff", "--depths", "4", "--k-max", "0"], "'k_max'"),
        (["threshold", "--preset", "dgff", "--depths", ""], "'depths'"),
        (["threshold", "--preset", "dgff", "--depths", "-1"], "'depths'"),
        (["capacity", "--depth", "-1", "--subset", "0"], "'depth'"),
        (["zeta", "--preset", "dgff", "--depth", "2", "--j-grid", "3:1:0.5"], "'j-grid'"),
        (["zeta", "--preset", "dgff", "--depth", "2", "--j-grid", "0:inf:1"], "'j-grid'"),
        (["zeta", "--preset", "dgff", "--depth", "2", "--j-grid", "1e308"], "'j'"),
        (["density", "--preset", "zero", "--depth", "1100", "--j-grid", "0"], "'depth'"),
        (["threshold", "--preset", "first:linear:2", "--depths", "4", "--delta", "1e9"],
         "'delta'"),
        (["threshold", "--preset", "first:linear:2", "--depths", "4", "--delta", "-5"],
         "'delta'"),
        (["threshold", "--spec-file", "NEG-CONST", "--depths", "4"], "'h_const'"),
        (["zeta", "--spec-file", "NEG-H", "--depth", "10", "--j-grid", "0"], "'h.values'"),
        (["density", "--spec-file", "NEG-H", "--depth", "10", "--j-grid", "0"],
         "'h.values'"),
        (["zeta", "--spec-file", "POS-H", "--depth", "10", "--j-grid", "0"], "'h.values'"),
        (["density", "--spec-file", "POS-H", "--depth", "10", "--j-grid", "0"],
         "'h.values'"),
        (["sample", "--spec-file", "POS-H", "--depth", "10", "--j", "0", "--seed", "1"],
         "'h.values'"),
        (["zeta", "--spec-file", "NEG-UNIFORM", "--depth", "2", "--j-grid", "0"],
         "'conductance.value'"),
        (["threshold", "--preset", "dgff", "--depths", "8,x"], "'depths'"),
        (["zeta", "--preset", "zero", "--depth", "2", "--j-grid", "a,b"], "'j-grid'"),
        (["diagnose", "--preset", "first:linear:2", "--s-grid", "pow2:a:3"], "'s-grid'"),
        (["diagnose", "--preset", "first:linear:2", "--s-grid", "2"], "'s-grid'"),
        (["diagnose", "--preset", "first:linear:2", "--s-grid", ","], "'s-grid'"),
        (["diagnose", "--preset", "dgff"], "'s-grid'"),
        (["capacity", "--depth", "3", "--subset", "0,9"], "'subset'"),
        (["capacity", "--depth", "3", "--subset", "0,x"], "'subset'"),
        (["capacity", "--depth", "3", "--subset", "0", "--conductance", "-1"],
         "'conductance'"),
        (["sample", "--preset", "zero", "--depth", "2", "--j", "0", "--seed", "-1"],
         "'seed'"),
        (["zeta", "--preset", "first:linear:x", "--depth", "2", "--j-grid", "0"],
         "'preset'"),
        (["zeta", "--preset", "capacity:uniform:-1", "--depth", "2", "--j-grid", "0"],
         "'preset'"),
        (["canonical", "--preset", "dgff", "--depth", "3", "--maxterm"], "'maxterm'"),
        (["verify", "--depth", "1", "--draws", "1", "--tol", "-1"], "'tol'"),
        (["verify", "--depth", "1", "--draws", "1", "--tol", "nan"], "'tol'"),
        (["zeta", "--spec-file", "MISSING.json", "--depth", "2", "--j-grid", "0"],
         "'spec-file'"),
        (["zeta", "--preset", "zero", "--depth", "2", "--j-grid", "0",
          "--out", "NO-DIR/table.csv"], "'out'"),
        (["zeta", "--preset", "zero", "--depth", "2", "--j-grid", "0",
          "--summary", "NO-DIR/run.json"], "'summary'"),
        (["zeta", "--preset", "capacity:uniform", "--depth", "5", "--j-grid", "0"],
         "'depth'"),
        (["capacity", "--spec-file", "SHORT-C", "--depth", "4", "--subset", "0"],
         "'conductance.values'"),
        (["zeta", "--spec-file", "SHORT-C", "--depth", "4", "--j-grid", "0"],
         "'conductance.values'"),
        (["canonical", "--spec-file", "SHORT-C", "--depth", "3"], "'conductance.values'"),
        (["sample", "--preset", "capacity:uniform", "--depth", "2", "--j", "0",
          "--seed", "1"], "'variant'"),
        (["threshold", "--preset", "capacity:uniform", "--depths", "2"], "'variant'"),
        (["canonical", "--preset", "capacity:uniform", "--depth", "2", "--maxterm"],
         "'maxterm'"),
        (["canonical", "--preset", "capacity:uniform", "--depth", "2", "--m-max", "-1"],
         "'m_max'"),
        (["density", "--preset", "capacity:uniform:1", "--depth", "2",
          "--j-grid", "1e308"], "'j'"),
        (["zeta", "--preset", "capacity:uniform:1", "--depth", "2",
          "--j-grid", "1e308"], "'j'"),
        (["zeta", "--preset", "capacity:uniform:1", "--depth", "2",
          "--j-grid", "nan"], "'j'"),
        (["threshold", "--preset", "zero", "--depths", "2000"], "'depths'"),
        (["zeta", "--preset", "zero", "--depth", "2", "--j-grid", "0:1:1e-300"],
         "'j-grid'"),
        (["diagnose", "--preset", "first:linear:2", "--s-grid", "pow2:0:100000000"],
         "'s-grid'"),
        (["diagnose", "--preset", "first:linear:nan", "--s-grid", "pow2:2:3"],
         "'preset'"),
        (["diagnose", "--preset", "first:linear:inf", "--s-grid", "pow2:2:3"],
         "'preset'"),
        (["diagnose", "--preset", "first:logcorrected", "--s-grid", "1e-9"],
         "'s-grid'"),
        (["zeta", "--preset", "first:linear:1e308", "--depth", "2", "--j-grid", "0"],
         "'h.values'"),
        (["canonical", "--preset", "first:linear:1e308", "--depth", "2"],
         "'h.values'"),
        (["sample", "--preset", "first:linear:1e308", "--depth", "2", "--j", "0",
          "--seed", "1"], "'h.values'"),
        (["threshold", "--preset", "first:linear:1e308", "--depths", "2"],
         "'h.values'"),
        (["threshold", "--preset", "zero", "--depths", "1022"], "'depths'"),
        (["threshold", "--preset", "zero", "--depths", "1021"], "'depths'"),
        (["threshold", "--preset", "first:linear:1e308", "--depths", "0"],
         "'h.values'"),
        (["capacity", "--spec-file", "SHORT", "--depth", "2", "--subset", "0"],
         "'variant'"),
        (["canonical", "--preset", "zero", "--depth", "24", "--m-max", "10000000"],
         "'m_max'"),
        (["threshold", "--preset", "dgff", "--depths", "4", "--k-max", "4194305"],
         "'k_max'"),
        (["threshold", "--preset", "first:linear:2", "--depths", "4", "--k-max",
          "4194305"], "'k_max'"),
        (["diagnose", "--preset", "first:linear:2", "--k-max", "4194305"], "'k_max'"),
        (["diagnose", "--preset", "dgff", "--k-max", "0"], "'k_max'"),
        (["diagnose", "--preset", "dgff", "--k-max", "4194305"], "'k_max'"),
        (["threshold", "--preset", "first:linear:1e300", "--depths", "0"],
         "'h.values'"),
        (["capacity", "--depth", "1", "--conductance", "1.7e308", "--subset", "0,1"],
         "'conductance'"),
        (["capacity", "--depth", "4", "--conductance", "5e-324", "--subset", "0"],
         "'conductance'"),
        (["density", "--preset", "capacity:uniform:1.7e308", "--depth", "4",
          "--j-grid", "0"], "'conductance.value'"),
        (["canonical", "--spec-file", "HUGE-C", "--depth", "2"], "'conductance.values'"),
        (["capacity", "--spec-file", "WIDE-C", "--depth", "2", "--subset", "0"],
         "'conductance.values'"),
        (["zeta", "--spec-file", "WIDE-C", "--depth", "2", "--j-grid", "0"],
         "'conductance.values'"),
        (_Limited(["sample", "--preset", "zero", "--depth", "30", "--j", "0",
                   "--num", "1", "--seed", "1"]), "'depth'"),
        (_Limited(["sample", "--preset", "zero", "--depth", "2", "--j", "0",
                   "--num", "100000000", "--seed", "1"]), "'num'"),
        (["zeta", "--spec-file", "ROOT-LIST", "--depth", "2", "--j-grid", "0"],
         "'<root>'"),
        (["zeta", "--spec-file", "NO-KIND", "--depth", "2", "--j-grid", "0"], "'h'"),
        (["zeta", "--spec-file", "NO-SLOPE", "--depth", "2", "--j-grid", "0"], "'h.c'"),
        (["zeta", "--spec-file", "BAD-NAME", "--depth", "2", "--j-grid", "0"],
         "'h.name'"),
        (["zeta", "--spec-file", "BAD-KIND", "--depth", "2", "--j-grid", "0"],
         "'h.kind'"),
        (["zeta", "--spec-file", "NO-H-SECOND", "--depth", "2", "--j-grid", "0"], "'h'"),
        (["zeta", "--spec-file", "ROWS-NOT-LIST", "--depth", "2", "--j-grid", "0"],
         "'h.values'"),
        (["zeta", "--spec-file", "BAD-KIND-SECOND", "--depth", "2", "--j-grid", "0"],
         "'h.kind'"),
        (["zeta", "--spec-file", "NO-CONDUCTANCE", "--depth", "2", "--j-grid", "0"],
         "'conductance'"),
        (["zeta", "--spec-file", "ZERO-C", "--depth", "2", "--j-grid", "0"],
         "'conductance.values'"),
        (["zeta", "--spec-file", "BAD-C-KIND", "--depth", "2", "--j-grid", "0"],
         "'conductance.kind'"),
        (["zeta", "--preset", "zero", "--depth", "2", "--j-grid", "1:2"], "'j-grid'"),
        (["diagnose", "--preset", "first:linear:2", "--s-grid", "pow2:3"], "'s-grid'"),
        (["capacity", "--depth", "2"], "'subset'"),
        (_Limited(["capacity", "--depth", "4194305", "--subset", "0"]), "'depth'"),
        (_Limited(["capacity", "--depth", "2147483648", "--subset", "0"]), "'depth'"),
        (["zeta", "--preset", "capacity:uniform", "--depth", "20000", "--j-grid", "0"],
         "'depth'"),
        (["zeta", "--preset", "capacity:uniform", "--depth", "2147483648",
          "--j-grid", "0"], "'depth'"),
        (["canonical", "--preset", "capacity:uniform", "--depth", "20000"], "'depth'"),
        (["canonical", "--preset", "capacity:uniform", "--depth", "2147483648"],
         "'depth'"),
        (["threshold", "--spec-file", "NEG-TAIL", "--depths", "0"], "'h.values'"),
    ],
    ids=["depth-first", "depth-zero", "short-list-zeta", "short-list-canonical",
         "short-list-sample", "density-nan", "density-inf", "sample-inf",
         "null-h", "huge-h", "text-row", "null-row", "null-conductance",
         "null-slope", "text-slope", "huge-slope", "nan-const", "null-uniform",
         "num-zero", "num-negative", "m-max-negative", "m-max-negative-maxterm",
         "verify-depth-zero", "verify-depth-negative", "verify-draws-zero",
         "verify-seed-negative", "threshold-k-max-zero", "diagnose-k-max-zero",
         "threshold-k-max-zero-second",
         "threshold-no-depths", "threshold-negative-depth", "capacity-negative-depth",
         "descending-grid", "unbounded-grid", "j-overflow", "depth-overflow",
         "threshold-delta-unreachable", "threshold-delta-negative",
         "threshold-crossing-out-of-range", "zeta-weight-overflow",
         "density-weight-overflow", "zeta-huge-weights", "density-huge-weights",
         "sample-huge-weights", "negative-uniform", "depths-text", "j-grid-text",
         "s-grid-text", "s-grid-outside", "s-grid-empty", "s-grid-second-order-cost",
         "subset-outside", "subset-text", "conductance-negative", "seed-negative",
         "preset-slope-text", "preset-conductance-negative", "maxterm-second-order",
         "verify-tol-negative", "verify-tol-nan", "spec-file-missing",
         "out-unwritable", "summary-unwritable", "capacity-zeta-depth",
         "short-conductance-capacity", "short-conductance-zeta",
         "short-conductance-canonical", "sample-capacity", "threshold-capacity",
         "maxterm-capacity", "m-max-negative-capacity", "capacity-density-j-overflow",
         "capacity-zeta-j-overflow", "capacity-zeta-j-nan", "threshold-depth-overflow",
         "j-grid-too-many-points", "s-grid-exponent-too-large", "preset-slope-nan",
         "preset-slope-inf", "s-grid-first-order-cost", "zeta-slope-overflow",
         "canonical-slope-overflow", "sample-slope-overflow",
         "threshold-slope-overflow", "threshold-depth-no-j-range",
         "threshold-depth-j-range-too-narrow", "threshold-tail-overflow",
         "capacity-first-order", "m-max-past-guard", "threshold-k-max-too-large",
         "threshold-k-max-too-large-first", "diagnose-k-max-too-large",
         "diagnose-k-max-zero-second", "diagnose-k-max-too-large-second",
         "threshold-tail-above-bracket", "capacity-overflow", "capacity-underflow",
         "density-capacity-overflow", "canonical-capacity-overflow",
         "capacity-conductance-spread", "zeta-conductance-spread",
         "sample-draw-past-cap", "sample-num-past-cap", "spec-root-not-object",
         "spec-h-no-kind", "spec-linear-no-slope", "spec-unknown-h-name",
         "spec-unknown-h-kind", "spec-second-no-h", "spec-rows-not-list",
         "spec-second-other-kind", "spec-capacity-no-conductance",
         "spec-conductance-zero", "spec-unknown-conductance-kind",
         "j-grid-two-parts", "s-grid-pow2-one-exponent", "capacity-no-subset",
         "capacity-depth-past-cap", "capacity-depth-2-31", "zeta-oracle-depth-20000",
         "zeta-oracle-depth-2-31", "canonical-oracle-depth-20000",
         "canonical-oracle-depth-2-31", "threshold-tail-below-bracket"],
)
def test_bad_input_exits_2_naming_key(tmp_path, capsys, argv, key):
    for name, text in SPEC_FILES.items():
        (tmp_path / name).write_text(text)
    limited = isinstance(argv, _Limited)
    argv = [str(tmp_path / a) if a in SPEC_FILES or a in MISSING else a for a in argv]
    if limited:
        child = subprocess.run([sys.executable, "-c", _LIMITED_MAIN] + argv,
                               cwd=tmp_path, env=_child_env(), capture_output=True,
                               text=True, timeout=120)
        code, out, err = child.returncode, child.stdout, child.stderr
        assert err.count("\n") == 1
    else:
        code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: key %s" % (key,))


def test_m_max_past_the_guard_needs_allow_large(capsys, monkeypatch):
    # The guard bounds the size a table holds, whether --m-max sets it or
    # the depth does: with both limits at 2, sizes past 4 need --allow-large.
    monkeypatch.setattr(dp, "W_FIRST_MAX_DEPTH", 2)
    monkeypatch.setattr(dp, "W_SECOND_MAX_DEPTH", 2)
    for tail in (["--preset", "zero"], ["--preset", "zero", "--maxterm"],
                 ["--preset", "dgff"]):
        argv = ["canonical", "--depth", "3"] + tail
        for extra, key in (([], "'depth'"), (["--m-max", "5"], "'m_max'")):
            code, out, err = run(capsys, argv + extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: key %s" % (key,))
            assert "--allow-large" in err and "--m-max" in err
        code, out, err = run(capsys, argv + ["--m-max", "5", "--allow-large"])
        assert (code, err) == (0, "")
        assert len(data_rows(out)) == 6
        code, out, err = run(capsys, argv + ["--m-max", "4"])
        assert (code, err) == (0, "")
        assert len(data_rows(out)) == 5


@pytest.mark.parametrize(
    "preset,k_max,digest",
    [
        ("zero", None, "3cb8bcfd28b29c0a7da1eb07d20bd3ff4406183a404d5ab517be2bcb68e3cc38"),
        ("zero", 1, "9871c4be6308eaf970b16cdfe951de2347bd48a67e11523497a3fb05c6f896ba"),
        ("zero", 2, "96d57f4ebb7a35bbb0968f4bfa8911d11f9b26a57bf3d2745278eec24f241c8d"),
        ("zero", 3, "96d57f4ebb7a35bbb0968f4bfa8911d11f9b26a57bf3d2745278eec24f241c8d"),
        ("zero", 1000,
         "010d1798664d27f89080d008c35030cee2eb83424b52ee716ff9212f6af0bd3e"),
        ("first:linear:ln2", None,
         "c180c0ff62c791f65bb74f08a27f4c834151e9ba4da19c79ad3e394cdff8b928"),
        ("first:linear:ln2", 1,
         "7eb52703b5ece7bc4ef4cbf99ac28c0d45386f84612c9da5d02e31aa635a95be"),
        ("first:linear:ln2", 2,
         "6d381ad20efcf98d92be7bbf538969b8b983402695540efaf5283dc2f7d30e89"),
        ("first:linear:ln2", 3,
         "6d381ad20efcf98d92be7bbf538969b8b983402695540efaf5283dc2f7d30e89"),
        ("first:linear:ln2", 1000,
         "74de63f89e1853f7b623e8ab791a0f390b572e26cd5988b32f2b586aa5ebb7ce"),
        ("first:linear:2", None,
         "c36168a9de1da95765646c3bd4393da6d897a70ae625afa3f3a22ee36cca3435"),
        ("first:linear:2", 1,
         "bffa139411b5ffb4c99f0c175f397d3f6f909fd192f0030ef7c178ef5d102072"),
        ("first:linear:2", 2,
         "2b347d0f04dac35ceb989992ededec6202a9f237cc40c7e86033a5e71135f83a"),
        ("first:linear:2", 3,
         "2b347d0f04dac35ceb989992ededec6202a9f237cc40c7e86033a5e71135f83a"),
        ("first:linear:2", 1000,
         "a4854a715f5c7d392775a93c64f8b046ea02282d2494e75d61e83a6568b9e1bd"),
        ("first:linear:3ln2", None,
         "0505d6c64081154429d09ea152f81c814abb8627cb974c0b08dcd7cae785cf89"),
        ("first:linear:3ln2", 1,
         "9b1b0b74142e1b2ffd65afc45c1e51af4ce54228e70a2eeeca9b55bbf7e88889"),
        ("first:linear:3ln2", 2,
         "bf9c3493aafc17bcf403d0fc5b710200751166a2cf3ae713d4a21526aa60a37f"),
        ("first:linear:3ln2", 3,
         "bf9c3493aafc17bcf403d0fc5b710200751166a2cf3ae713d4a21526aa60a37f"),
        ("first:linear:3ln2", 1000,
         "5333839be5ad867317209ea3f26f7bc49c1275c31e2830be4e6e9b29d521e7d1"),
        ("first:logcorrected", None,
         "5d6f2fc6104a4dc20ad2e65f50df8e28f50db0a3ce0042cacae8a099409e1a9d"),
        ("first:logcorrected", 1,
         "cf57538e734fae2ce1ba70dc88937905f39181bf1bfdf02a115ef16b604caa5f"),
        ("first:logcorrected", 2,
         "6941e5034555acd3e93250b1765808c4a0b23c82ceb4be4916426ea9345b09c3"),
        ("first:logcorrected", 3,
         "6941e5034555acd3e93250b1765808c4a0b23c82ceb4be4916426ea9345b09c3"),
        ("first:logcorrected", 1000,
         "9b7946fc93bc002703a7d166616112a46ff3e2c502551ec6023eba5b085cdbc4"),
    ],
)
def test_diagnose_output_pinned(capsys, preset, k_max, digest):
    # Pinned stdout: the Laplace curve, the verdict and u_k at k = 1, 2, 4,
    # ... <= k_max, each u_k formed as when u was evaluated at every age.
    argv = ["diagnose", "--preset", preset]
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "preset,k_max,digest",
    [
        ("first:linear:2", None,
         "f687e4bccd9af4ab247427fcf130eaed15353a32de2917834cd784641fe33bf3"),
        ("first:linear:3ln2", None,
         "a8979f885de12a3deed118c8eb0c86a9f6991efea3605f25f743ad0029d77d79"),
        ("first:logcorrected", None,
         "e0347658a5c77b5020dc05a19654ff87aba74da6be6653bac9888919ce5a1805"),
        ("dgff", None, "25eae10b856d6bfbd24db06c8bba7cc31a1ebe755519744414e37a01ee526601"),
        ("zero", None, "196fe330dfa784745aa2cc5ba8a9cb9dbef9e012f65af7529bf213a8063b22b3"),
        ("dgff", 1000, "b8a129fdce8f3f30e3cabe49272626af583b1de3337697b2b35daab4db945183"),
    ],
)
def test_threshold_output_pinned(capsys, preset, k_max, digest):
    # Pinned stdout: the root search's upper estimates, the slope estimates,
    # tails, deltas and the report with its kappa value and bound.
    argv = ["threshold", "--preset", preset, "--depths", "8,12,16"]
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command,spec,digests",
    [
        ("zeta", "capacity:uniform", [
            "e9f56a03ee76d51fbbfb363a767c947779fcd008a764af2f74de6174d0efef5f",
            "8742d0e4d38533989575e18f0a246bbf5c28bf35307fd1ad04b052b84c39d15a",
            "da17c41993fb32fcf06afcec7d9a3ce5058eeca9c75c68f0c2e9b285b0ddab74",
            "76840b4212c487d773fcd8b003d1f40771824f8a89b87eb5cfa4ca56444bfbe9",
            "f0d0462ccc82901b8702c5a7fbd8abc6f771551ed5a11750e6d659a8f51a1748",
        ]),
        ("density", "capacity:uniform", [
            "6472f3702cbdbf40a816700a42ce6f1750fe4d0da3440b866bf60e29dddf1f29",
            "bae578bae85642779823fb93c511e298b3d4cdf8346c2ca94aab20a6ca531714",
            "ef0edf8a8dfbd33bbb4f019d5c425622f17e289af5a68568afe781827fc7625d",
            "7fbfafadc07b4872b73df64e2ed431ecaa948adb00bf529e55db2f2be24edcc9",
            "6966046b8be1977259107995d2ec8ce66f6b4eeffb1e7fe6ef0c4e5fb712e887",
        ]),
        ("zeta", "capacity:uniform:0.5", [
            "e9f56a03ee76d51fbbfb363a767c947779fcd008a764af2f74de6174d0efef5f",
            "50577d36e4a9e86ee5e37465fe98386d9d6b2ce4f86e4fc8079cd84012a77f25",
            "0da9d542bbb9081785c50bfcd73dde5fd60dc65166bfc76dded4575f05c85e20",
            "030e268d4729408ae79f4c10a64309aed8bf56ecfc6896c39f57a8aebe3b071a",
            "2858081897da9decb19c288197ba8122bdc666372dad340bb9816a75334cb54a",
        ]),
        ("density", "capacity:uniform:0.5", [
            "6472f3702cbdbf40a816700a42ce6f1750fe4d0da3440b866bf60e29dddf1f29",
            "c62c2a4c7b5fb209833b53a90a3f11e511017f8c182a672081e71ed64ed02918",
            "1880533d73996c3169dd3ec7b1ea205205b9207222e8ab0644c74574141c07aa",
            "f0886cede8af3426b0d394675a1689e67842b5b84483ad69693b72add9c33811",
            "365d75d9103479b173bbe026555f9238348e7bdf279e71690dcaea536a46d531",
        ]),
        ("zeta", "LIST-PROFILE", [
            "e9f56a03ee76d51fbbfb363a767c947779fcd008a764af2f74de6174d0efef5f",
            "4e8a4230b74db5a502cad5045a618b6dc8ff3d7fcac82873fea6dcf9aa331a10",
            "aed18de41c5f06cdf4a23b2b9c9fe51190c6c1a4038e03b0421480492e3a44b4",
            "65001c3e97c60b07b6078cdff44cb2ab4498221ecc76bf2f4b94d471566c01a1",
            "1eb67bd4938649442c786993ed014e83f9073a7f608efee7ec49ced8c7cdaa01",
        ]),
        ("density", "LIST-PROFILE", [
            "6472f3702cbdbf40a816700a42ce6f1750fe4d0da3440b866bf60e29dddf1f29",
            "c9876b22567a644a7283a469ff5e74091915150ada9d94aee18dc2314a13b402",
            "9b5690865d8cea77d88665d310ace1dc95c617fa04ae2347bbbb8644f9fc4593",
            "a69526e9788d8c472ec2d76e84c38a0c2ede86c66ef50429b06b81f80fd99fe7",
            "47677ae84633c5b5272fdf2a2c8361bef83d0d9d3a6665e99fb4932785ec1830",
        ]),
    ],
)
def test_capacity_grid_output_pinned(tmp_path, capsys, command, spec, digests):
    # Pinned stdout at depths 0 .. 4 of the oracle's grid, one call over
    # all 121 points: the same floats as a call per point.
    if spec == "LIST-PROFILE":
        path = tmp_path / "profile.json"
        path.write_text('{"variant": "capacity", "conductance": '
                        '{"kind": "list", "values": [1.5, 0.5, 2.0, 0.75]}}')
        spec_args = ["--spec-file", str(path)]
    else:
        spec_args = ["--preset", spec]
    got = []
    for n in range(5):
        code, out, err = run(capsys, [command, *spec_args, "--depth", str(n),
                                      "--j-grid=-3:3:0.05"])
        assert (code, err) == (0, "")
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert got == digests


@pytest.mark.parametrize(
    "seed,digest",
    [(0, "1ce12d24a91fcf3a5cd01bbc4e3faed7ae8885721507892dece4f80ac1f67cb5"),
     (7, "e4936c7a8719cd5a72cf1238a2ebff7170333c10f72fc96a83d17fa1ced7006f")],
)
def test_verify_output_pinned(capsys, seed, digest):
    # Pinned stdout of the oracle checks at depth 4.
    code, out, err = run(capsys, ["verify", "--depth", "4", "--draws", "2",
                                  "--seed", str(seed)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "preset,digest",
    [("capacity:uniform",
      "94a71b54062a6206f81fcd3b7c61af5a45567da83f2c6e1fb807215a8f52168d"),
     ("capacity:uniform:0.5",
      "411acc4d08ca7c8c8c93195fc99dd1d34f7dac9968c3f767f74ba0a4ecb02fdc"),
     ("capacity:uniform:3",
      "5132d2b3bc02d5e76a4a314aaba6e5eff00cc3158e89adb89e060278596c3294")],
)
def test_capacity_canonical_output_pinned(capsys, preset, digest):
    # Pinned stdout, stderr and exit code at depths 0 .. 5 for each --m-max,
    # the refusals of a negative --m-max and of depth 5 among them.
    h = hashlib.sha256()
    for n in range(6):
        for m_max in (None, 0, 1, 3, 7, 100, -1):
            argv = ["canonical", "--preset", preset, "--depth", str(n)]
            if m_max is not None:
                argv += ["--m-max=%d" % (m_max,)]
            code, out, err = run(capsys, argv)
            h.update(("%d\n%s\n%s\n" % (code, out, err)).encode())
    assert h.hexdigest() == digest


def test_rejected_command_keeps_out_file(tmp_path, capsys):
    # The default s grid is refused for second order; the rejected run must
    # leave an existing --out file as it was.
    path = tmp_path / "table.csv"
    path.write_bytes(b"a0,ln_w,omega_n\n0,0,0\n")
    code, out, err = run(capsys, ["diagnose", "--preset", "dgff", "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: key 's-grid'")
    assert path.read_bytes() == b"a0,ln_w,omega_n\n0,0,0\n"


def test_canonical_capacity_depth_zero(capsys):
    # The one leaf is the root, so Phi of the full set is cap = inf and its
    # size has no weight: ln W(1) = -inf, printed without a numpy warning.
    code, out, err = run(
        capsys, ["canonical", "--preset", "capacity:uniform:1.3", "--depth", "0"]
    )
    assert (code, out, err) == (0, "a0,ln_w,omega_n\n0,0,0\n1,-inf,-inf\n", "")


def test_rejected_summary_keeps_out_file(tmp_path, capsys):
    # --out opens before --summary; the summary's failure must not have
    # emptied an existing --out file.
    path = tmp_path / "t.csv"
    path.write_bytes(b"j,zeta_n\n0,1\n")
    code, out, err = run(
        capsys,
        ["zeta", "--preset", "zero", "--depth", "2", "--j-grid", "0",
         "--out", str(path), "--summary", str(tmp_path / "nodir" / "r.json")],
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: key 'summary'")
    assert path.read_bytes() == b"j,zeta_n\n0,1\n"


def test_out_file_replaced_and_device_written(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a longer earlier table\n" * 10)
    argv = ["zeta", "--preset", "zero", "--depth", "2", "--j-grid", "0"]
    code, out, _ = run(capsys, argv + ["--out", str(path)])
    assert (code, out) == (0, "")
    assert path.read_text() == "j,zeta_n\n0,0.69314718055994529\n"
    code, out, err = run(capsys, argv + ["--out", os.devnull,
                                         "--summary", os.devnull])
    assert (code, out, err) == (0, "", "")


def test_capacity_summary(tmp_path, capsys):
    path = tmp_path / "cap.json"
    code, out, _ = run(
        capsys,
        ["capacity", "--depth", "0", "--subset", "0", "--subset", "",
         "--summary", str(path)],
    )
    assert (code, out) == (0, "leaves,cap\n0,inf\n,0\n")
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert doc == {"command": "capacity", "spec": "uniform:1.0", "depth": 0,
                   "subsets": [[0], []], "cap": ["inf", 0.0]}
    code, _, _ = run(
        capsys,
        ["capacity", "--depth", "2", "--conductance", "0.5", "--subset", "0,3",
         "--summary", str(path)],
    )
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert code == 0
    assert (doc["spec"], doc["subsets"]) == ("uniform:0.5", [[0, 3]])
    assert doc["cap"][0] == pytest.approx(0.5, rel=1e-12)


def test_table_rows_keep_their_format(capsys):
    # Each row is formatted in one pass; the text is that of formatting
    # every number on its own with %.17g, -inf included.
    cases = [
        (["canonical", "--preset", "dgff", "--depth", "5"], dp.dp_W(dgff_spec(), 5)),
        (["canonical", "--preset", "first:linear:1.0", "--depth", "6",
          "--m-max", "9", "--maxterm"], dp.dp_W_maxterm(first_linear(1.0), 6, m_max=9)),
    ]
    for argv, table in cases:
        code, out, _ = run(capsys, argv)
        want = ["a0,ln_w,omega_n"] + [
            "%d,%s,%s" % (a0, "%.17g" % float(table.ln_w[a0]),
                          "%.17g" % float(table.omega_values()[a0]))
            for a0 in range(table.m_max + 1)
        ]
        assert (code, out) == (0, "".join(line + "\n" for line in want))
    code, out, _ = run(capsys, ["canonical", "--preset", "capacity:uniform:1.3",
                                "--depth", "0"])
    assert (code, out) == (0, "a0,ln_w,omega_n\n0,0,0\n1,-inf,-inf\n")
    grid = [-1.5, 0.1, 2.0 / 3.0]
    code, out, _ = run(capsys, ["density", "--preset", "dgff", "--depth", "4",
                                "--j-grid", ",".join(repr(j) for j in grid)])
    rows = ["%s,%s" % ("%.17g" % j, "%.17g" % dp.dp_density(dgff_spec(), 4, j))
            for j in grid]
    assert (code, out) == (0, "j,rho_n\n" + "".join(r + "\n" for r in rows))


def test_python_m_pwckit(tmp_path, capsys):
    # The package runs as a module, with the script's exit codes.
    env = _child_env()
    argv = ["zeta", "--preset", "dgff", "--depth", "3", "--j-grid", "0,1"]
    ok = subprocess.run([sys.executable, "-m", "pwckit"] + argv, cwd=tmp_path,
                        env=env, capture_output=True, text=True)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == run(capsys, argv)[1]
    bad = subprocess.run([sys.executable, "-m", "pwckit", "zeta", "--preset", "dgff",
                          "--depth", "-1", "--j-grid", "0"], cwd=tmp_path,
                         env=env, capture_output=True, text=True)
    assert (bad.returncode, bad.stdout) == (2, "")
    assert "depth" in bad.stderr


def test_one_weight_list_spec_runs(tmp_path, capsys):
    # A list holding only h_0 gives the Tauberian trend no age to read: the
    # verdict is inconclusive, where it used to end in an IndexError. Its
    # kappa_1 sum is empty and bounds nothing: no lower bound, and no
    # transition verdict from it.
    spec = tmp_path / "one.json"
    spec.write_text('{"variant": "first", "h": {"kind": "list", "values": [1.0]}}')
    summary = tmp_path / "run.json"
    for argv in (["threshold", "--spec-file", str(spec), "--depths", "0"],
                 ["diagnose", "--spec-file", str(spec)]):
        code, out, err = run(capsys, argv + ["--summary", str(summary)])
        assert (code, err) == (0, "")
        doc = json.loads(summary.read_text(), parse_constant=_reject_constant)
        assert doc["tauberian_verdict"] == "inconclusive"
        if argv[0] == "threshold":
            assert (doc["kappa_value"], doc["lower_bound"]) == ("inf", "-inf")
            assert doc["verdict"] == "inconclusive"


def test_overflowing_weights_diagnose_returns(tmp_path, capsys):
    # Weights past float range make every Laplace point divergent, read
    # without a numpy warning; the first-order NaN sum they gave ran without
    # end, and a second-order table of 1e308 overflowed its sum.
    table = tmp_path / "huge.json"
    table.write_text('{"variant": "second", "h": {"kind": "table", "values": '
                     + str([[1e308] * k for k in range(1, 12)]) + '}}')
    for spec in (["--preset", "first:linear:1e308"], ["--spec-file", str(table)]):
        code, out, err = run(capsys, ["diagnose", *spec, "--s-grid", "pow2:2:3"])
        assert (code, err) == (0, "")
        assert out.splitlines()[2:4] == ["0.25,-inf # divergent",
                                         "0.125,-inf # divergent"]


#: one valid argv per subcommand, every flag kind among them
DISPATCH_ARGVS = {
    "zeta": ["zeta", "--preset", "zero", "--depth", "3", "--j-grid=-1:1:0.5"],
    "density": ["density", "--spec-file", "x.json", "--depth", "5", "--j-grid", "0,2",
                "--out", "o.csv", "--summary", "s.json"],
    "canonical": ["canonical", "--preset", "dgff", "--dep", "4", "--m-max", "7",
                  "--maxterm", "--allow-large"],
    "threshold": ["threshold", "--preset", "zero", "--depths", "8,12", "--delta", "0.5",
                  "--k-max", "1000"],
    "sample": ["sample", "--preset", "zero", "--depth", "4", "--j", "0.5", "--num", "3",
               "--seed", "7"],
    "capacity": ["capacity", "--depth", "2", "--subset", "0,1", "--subset", "3",
                 "--conductance", "2"],
    "verify": ["verify"],
    "diagnose": ["diagnose", "--preset", "first:linear:3ln2", "--s-grid", "pow2:2:5"],
}


def test_dispatch_namespace_matches_the_full_parser():
    # The command word's own parser gives the namespace the full parser gives.
    assert sorted(DISPATCH_ARGVS) == sorted(SUBCOMMANDS)
    for argv in DISPATCH_ARGVS.values():
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv)), argv


def test_dispatch_parses_a_command_once(monkeypatch):
    # A valid command never reaches the full parser.
    def full(*args, **kwargs):
        raise AssertionError("the full parser parsed %r" % (args,))

    monkeypatch.setattr(cli.build_parser(), "parse_known_args", full)
    for argv in DISPATCH_ARGVS.values():
        assert cli._parse(argv).command == argv[0]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"], ["zet", "--preset", "zero"], ["zeta", "-h"], ["sample", "--help"],
    ["zeta", "--preset", "zero", "--depth", "3", "--j-grid", "0", "--bogus"],
    ["zeta", "--preset", "zero", "--depth", "3", "--j-grid", "0", "extra"],
    ["zeta", "--preset", "zero", "--j-grid", "0"],
    ["zeta", "--preset", "zero", "--depth", "x", "--j-grid", "0"],
    ["canonical", "--preset", "zero", "--dep"],
    ["-h", "zeta"], ["zeta", "--", "x"],
])
def test_dispatch_help_and_errors_match_the_full_parser(argv, capsys):
    # Help and usage errors exit with the full parser's code and text.
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    got = outcome(main)
    assert got == outcome(cli.build_parser().parse_args)
    assert got[1] or got[2]
