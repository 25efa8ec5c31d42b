import json
import math
import os
import subprocess
import sys

import pytest

import pwckit
from pwckit import dp
from pwckit.cli import main
from pwckit.clustering import dgff_spec, first_linear, save_spec_file


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
    "NEG-H": ('{"variant": "first", "h": {"kind": "list",'
              ' "values": [0, -1e306, 0, 0, 0, 0, 0, 0, 0, 0, 0]}}'),
    "POS-H": ('{"variant": "first", "h": {"kind": "list", "values": [%s]}}'
              % ", ".join(["1e308"] * 11)),
    "NEG-UNIFORM": '{"variant": "capacity", "conductance": {"kind": "uniform", "value": -1}}',
    "SHORT-C": '{"variant": "capacity", "conductance": {"kind": "list", "values": [1.0, 2.0]}}',
}

#: paths under tmp_path that do not exist
MISSING = ("MISSING.json", "NO-DIR/table.csv", "NO-DIR/run.json")


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
        (["threshold", "--spec-file", "NEG-CONST", "--depths", "4"], "'delta'"),
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
    ],
    ids=["depth-first", "depth-zero", "short-list-zeta", "short-list-canonical",
         "short-list-sample", "density-nan", "density-inf", "sample-inf",
         "null-h", "huge-h", "text-row", "null-row", "null-conductance",
         "null-slope", "text-slope", "huge-slope", "nan-const", "null-uniform",
         "num-zero", "num-negative", "m-max-negative", "m-max-negative-maxterm",
         "verify-depth-zero", "verify-depth-negative", "verify-draws-zero",
         "threshold-k-max-zero", "diagnose-k-max-zero", "threshold-k-max-zero-second",
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
         "maxterm-capacity", "m-max-negative-capacity"],
)
def test_bad_input_exits_2_naming_key(tmp_path, capsys, argv, key):
    for name, text in SPEC_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in SPEC_FILES or a in MISSING else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: key %s" % (key,))


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
                          "%.17g" % float(table.omega(a0)))
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
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(pwckit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
