"""Batch command line front-end.

Subcommands map one-to-one onto the compute modules: zeta and density sweep
a J grid, canonical dumps the size-indexed table, threshold runs the wetting
estimator, sample writes raw draws, capacity evaluates conductances, verify
cross-checks the dynamic programs against brute-force enumeration, and
diagnose prints the Laplace and Tauberian curves.

All tables are comma-separated with an exact header row; floats print with
17 significant digits so parsing them back loses nothing. Lines starting
with '#' are comments. Runs are deterministic: the same flags and seed
produce byte-identical output. Exit codes: 0 ok, 1 verification failure,
2 usage or configuration error, which includes a spec file that cannot be
read and an --out or --summary path that cannot be written.

Commands only compute: each returns its output lines, its summary document
(``sample`` forms it only for --summary) and its exit code, and ``main``
opens --out and --summary and writes them only once the command has
succeeded, emptying neither before both are open, so a rejected command
or an unwritable path leaves existing output files as they were.
``verify`` therefore prints its FAIL lines, then one PASS or FAIL line per
suite, when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import analysis, capacity as capmod, dp, oracle, sampler as sampmod
from .clustering import (
    SpecConfigError,
    _integer,
    _real,
    check_capacities,
    check_family,
    load_spec_file,
    parse_preset,
    random_capacity,
    random_first_order,
    random_second_order,
)
from .tree import LeafSet, _shape_depth, shape_table

#: most points a start:stop:step J grid may hold
_GRID_MAX = 1 << 16

#: pow2:a:b exponents: past 1074, 2^-e is 0
_POW2_MAX = 1074


def _fmt(x):
    return "%.17g" % (float(x),)


def _parse_each(parse, parts, key, text):
    """``parse`` of each part; a part it rejects names ``key``."""
    try:
        return [parse(p) for p in parts]
    except ValueError:
        raise SpecConfigError(key, "%r; expected a list of numbers" % (text,)) from None


def _parse_grid(text):
    """J grids: 'start:stop:step' (inclusive, at most ``_GRID_MAX`` points)
    or a comma list; never empty."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecConfigError("j-grid", "%r; expected start:stop:step" % (text,))
        start, stop, step = _parse_each(float, parts, "j-grid", text)
        if not (step > 0 and math.isfinite((stop - start) / step)):
            raise SpecConfigError(
                "j-grid", "%r; expected finite start and stop and a positive step"
                % (text,)
            )
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count > _GRID_MAX:
            raise SpecConfigError(
                "j-grid", "%r holds more than %d points" % (text, _GRID_MAX)
            )
        grid = [start + i * step for i in range(max(count, 0))]
    else:
        grid = _parse_each(float, [p for p in text.split(",") if p], "j-grid", text)
    if not grid:
        raise SpecConfigError("j-grid", "%r holds no J value" % (text,))
    return grid


def _parse_s_grid(text):
    """s grids: 'pow2:a:b' meaning 2^-a .. 2^-b for exponents in
    0 .. ``_POW2_MAX``, or a comma list."""
    if text.startswith("pow2:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecConfigError("s-grid", "%r; expected pow2:a:b" % (text,))
        a, b = (_integer(e, "s-grid", 0, _POW2_MAX)
                for e in _parse_each(int, parts[1:], "s-grid", text))
        if b < a:
            a, b = b, a
        return [2.0**-e for e in range(a, b + 1)]
    return _parse_each(float, [p for p in text.split(",") if p], "s-grid", text)


@contextlib.contextmanager
def _naming(key, path):
    """An OSError on ``path`` becomes a SpecConfigError naming ``key``."""
    try:
        yield
    except OSError as exc:
        raise SpecConfigError(key, "%r: %s" % (path, exc.strerror or exc)) from None


def _load_spec(args):
    if getattr(args, "spec_file", None):
        with _naming("spec-file", args.spec_file):
            return load_spec_file(args.spec_file)
    if getattr(args, "preset", None):
        return parse_preset(args.preset)
    raise SpecConfigError("spec", "provide --preset or --spec-file")


def _json(document, indent=None):
    """Strict JSON text: +-inf become the strings "inf" and "-inf", NaN raises."""
    def strict(x):
        if isinstance(x, dict):
            return {k: strict(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(v) for v in x]
        if isinstance(x, float) and math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x

    return json.dumps(strict(document), indent=indent, sort_keys=True, allow_nan=False)


def _spec_label(args):
    if getattr(args, "spec_file", None):
        return "file:" + args.spec_file
    return "preset:" + args.preset


# ---------------------------------------------------------------------------
# subcommands: each returns (lines, summary document, exit code)


def _cmd_grid(args):
    """``zeta`` and ``density`` over the J grid: the dynamic program, or for
    capacity specs the enumeration oracle, in one call over the grid."""
    spec = _load_spec(args)
    grid = _parse_grid(args.j_grid)
    n = args.depth
    density = args.command == "density"
    if spec.variant == "capacity":
        kernel = oracle.enum_density if density else oracle.enum_zeta
    else:
        kernel = dp.dp_density if density else dp.zeta
    values = kernel(spec, n, grid).tolist()
    column = "rho_n" if density else "zeta_n"
    lines = ["j," + column]
    lines += ["%.17g,%.17g" % row for row in zip(grid, values)]
    return lines, {
        "command": args.command, "spec": _spec_label(args), "depth": n,
        "j_grid": grid, column: values,
    }, 0


def _cmd_canonical(args):
    """The dynamic program's table, or for capacity specs the enumerated one."""
    spec = _load_spec(args)
    n = args.depth
    if args.maxterm and spec.variant in ("second", "capacity"):
        raise SpecConfigError("maxterm", "the max-plus table is first order only")
    if spec.variant == "capacity":
        kernel = oracle.enum_W
    else:
        kernel = dp.dp_W_maxterm if args.maxterm else dp.dp_W
    table = kernel(spec, n, m_max=args.m_max, allow_large=args.allow_large)
    lines = ["a0,ln_w,omega_n"]
    rows = zip(range(table.m_max + 1), table.ln_w.tolist(),
               table.omega_values().tolist())
    lines += ["%d,%.17g,%.17g" % row for row in rows]
    return lines, {
        "command": "canonical", "spec": _spec_label(args), "depth": n,
        "kind": table.kind, "m_max": table.m_max,
    }, 0


def _cmd_threshold(args):
    """The report document goes to --summary, or after the table if none."""
    spec = _load_spec(args)
    depths = _parse_each(int, [p for p in args.depths.split(",") if p], "depths", args.depths)
    report = analysis.estimate_jstar(spec, depths, delta=args.delta, k_max=args.k_max)
    lines = ["n,jstar_upper,slope_estimate,tail,delta"]
    lines += [
        ",".join([str(n), _fmt(upper), _fmt(slope), _fmt(tail), _fmt(delta)])
        for n, upper, slope, tail, delta in report.rows()
    ]
    doc = dict(report.to_document(), label=_spec_label(args))
    if not args.summary:
        lines += ["# report", _json(doc)]
    return lines, doc, 0


def _nodes(draw):
    """Nodes the sampler's descent visits for ``draw``: n for the first leaf,
    then each leaf b's ancestors below its common one with the leaf a before."""
    x = draw.leaves
    if not x:
        return 0
    return draw.depth + sum((a ^ b).bit_length() - 1 for a, b in zip(x, x[1:]))


def _cmd_sample(args):
    """Leaves print through a table of the names of 0 .. 2^n - 1 when the
    draws hold at least four leaves per leaf of the tree, and through one
    ``str`` per leaf otherwise. A table costs one ``str`` per tree leaf, so it
    pays only when each entry is read several times; the rule keeps deep or
    sparse draws off a 2^n-entry table, and the table lives for this job.
    Counting nodes reads every leaf, so the summary is formed for --summary only."""
    spec = _load_spec(args)
    draws = sampmod.sample(spec, args.depth, args.j, args.seed, args.num)
    leaves = sum(map(len, draws))
    name = str
    if leaves >= 4 << args.depth:
        name = list(map(str, range(1 << args.depth))).__getitem__
    lines = [" ".join(map(name, ls.leaves)) for ls in draws]
    if not args.summary:
        return lines, None, 0
    return lines, {
        "command": "sample", "spec": _spec_label(args), "depth": args.depth,
        "j": args.j, "seed": args.seed, "num": args.num,
        "mean_fraction": leaves / (len(draws) * (1 << args.depth)),
        "leaves": leaves, "empty_draws": sum(1 for ls in draws if not ls),
        "nodes": sum(map(_nodes, draws)),
    }, 0


def _parse_subset(text, depth):
    try:
        return LeafSet(depth, tuple(int(p) for p in text.replace(",", " ").split()))
    except ValueError as exc:
        raise SpecConfigError("subset", "%r: %s" % (text, exc)) from None


def _cmd_capacity(args):
    n = args.depth
    if args.spec_file:
        spec = _load_spec(args)
        check_family(spec, ("capacity",), "the capacity command")
        profile, key = spec.profile(n), spec.key
    else:
        profile = capmod.ConductanceProfile.uniform(n, args.conductance)
        key = "conductance"
    subsets = [_parse_subset(s, n) for s in args.subset or []]
    if args.all_subsets:
        subsets = [LeafSet.from_mask(n, mask) for mask in range(1 << (1 << _shape_depth(n)))]
    if not subsets:
        raise SpecConfigError("subset", "give --subset leaves or --all-subsets")
    caps = [capmod.cap_reduce(ls, profile) for ls in subsets]
    check_capacities([cap for ls, cap in zip(subsets, caps) if len(ls)], n, key)
    lines = ["leaves,cap"]
    lines += [
        "%s,%s" % (" ".join(str(x) for x in ls), _fmt(cap))
        for ls, cap in zip(subsets, caps)
    ]
    source = _spec_label(args) if args.spec_file else "uniform:%r" % (args.conductance,)
    return lines, {
        "command": "capacity", "spec": source, "depth": n,
        "subsets": [list(ls) for ls in subsets], "cap": caps,
    }, 0


def _cmd_diagnose(args):
    spec = _load_spec(args)
    _integer(args.k_max, "k_max", 1, analysis._K_MAX_CAP)
    s_grid = _parse_s_grid(args.s_grid)
    second = spec.variant == "second"  # the analysis family check refuses capacity
    laplace = analysis.laplace_second if second else analysis.laplace_first
    curve = laplace(spec, s_grid, allow_large=args.allow_large)
    tau = None if second else analysis.tauberian_first(spec, k_max=args.k_max)
    lines = ["# laplace %s" % (curve.kind,), "s,diag"]
    lines += [
        "%s,%s%s" % (_fmt(s), _fmt(d), " # divergent" if bad else "")
        for s, d, bad in zip(curve.s, curve.diag, curve.divergent)
    ]
    doc = {
        "command": "diagnose", "spec": _spec_label(args), "laplace_kind": curve.kind,
        "s": curve.s.tolist(), "diag": curve.diag.tolist(),
    }
    if tau is not None:
        lines += ["", "# tauberian verdict=%s" % (tau.verdict,), "k,diag"]
        lines += ["%d,%s" % (k, _fmt(u)) for k, u in zip(tau.k, tau.u)]
        doc["tauberian_verdict"] = tau.verdict
    return lines, doc, 0


# ---------------------------------------------------------------------------
# verification suites (oracle vs dynamic programs)


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _verify_tables(t1, t2, tol):
    if t1.m_max != t2.m_max:
        return "table sizes differ: %d vs %d" % (t1.m_max, t2.m_max)
    for a0 in range(t1.m_max + 1):
        x, y = float(t1.ln_w[a0]), float(t2.ln_w[a0])
        if math.isinf(x) and math.isinf(y):
            continue
        if not _rel_close(x, y, tol):
            return "ln W(%d): %.17g vs %.17g" % (a0, x, y)
    return None


def _cmd_verify(args):
    """Every suite at every depth up to the oracle's and every draw: one FAIL
    line per failed check, in check order, then one PASS or FAIL line per
    suite, family by family (zeta-first, zeta-second, w-first, ...)."""
    for key, lo in (("depth", 1), ("draws", 1), ("seed", 0)):
        _integer(getattr(args, key), key, lo)
    tol = _real(args.tol, "tol", positive=True)
    depth_cap = min(args.depth, oracle.ORACLE_MAX_DEPTH)
    rng = np.random.default_rng(args.seed)
    lines, failures, failed = [], [], {}  # failed: suite -> bool, first-checked order

    def check(suite, n, draw, message):
        failed[suite] = failed.get(suite, False) or message is not None
        if message is not None:
            failures.append("%s n=%d draw=%d: %s" % (suite, n, draw, message))
            lines.append("FAIL " + failures[-1])

    for n in range(1, depth_cap + 1):
        shapes = shape_table(n)
        sizes = shapes.sizes[shapes.index]
        for i in range(args.draws):
            j = float(rng.uniform(-2.0, 3.0))

            for maker, name in (
                (random_first_order, "first"),
                (random_second_order, "second"),
            ):
                spec = maker(n, rng)
                lz_dp = dp.dp_Z(spec, n, j).ln
                lz_en = oracle.enum_Z(spec, n, j).ln
                check("zeta-" + name, n, i,
                      None if _rel_close(lz_dp, lz_en, tol) else
                      "ln Z %.17g vs %.17g at J=%g" % (lz_dp, lz_en, j))
                check("w-" + name, n, i,
                      _verify_tables(dp.dp_W(spec, n), oracle.enum_W(spec, n),
                                     tol))
                r_dp = dp.dp_density(spec, n, j)
                r_en = oracle.enum_density(spec, n, j)
                check("density-" + name, n, i,
                      None if _rel_close(r_dp, r_en, tol) else
                      "rho %.17g vs %.17g at J=%g" % (r_dp, r_en, j))

            spec = random_first_order(n, rng)
            check("maxterm", n, i,
                  _verify_tables(dp.dp_W_maxterm(spec, n),
                                 oracle.enum_maxterm(spec, n), tol))

            spec = random_capacity(n, rng)
            profile = spec.profile(n)
            table = capmod.cap_table(n, profile)
            for _ in range(4):
                mask = int(rng.integers(1, 1 << (1 << n)))
                ls = LeafSet.from_mask(n, mask)
                c_red = capmod.cap_reduce(ls, profile)
                c_quad = capmod.cap_quadratic(ls, profile)
                msg = None
                if not _rel_close(c_red, c_quad, tol):
                    msg = "cap %s: reduce %.17g vs quadratic %.17g" % (
                        sorted(ls), c_red, c_quad)
                elif not _rel_close(c_red, float(table[mask]), tol):
                    msg = "cap %s: reduce %.17g vs table %.17g" % (
                        sorted(ls), c_red, float(table[mask]))
                check("capacity-dual", n, i, msg)
            lz_en = oracle.enum_Z(spec, n, j).ln
            terms = j * sizes - table
            mx = float(terms.max())
            lz_direct = mx + math.log(float(np.exp(terms - mx).sum()))
            check("capacity-z", n, i,
                  None if _rel_close(lz_en, lz_direct, tol) else
                  "ln Z %.17g vs %.17g" % (lz_en, lz_direct))

    families = [suite.split("-")[0] for suite in failed]
    for suite in sorted(failed, key=lambda s: families.index(s.split("-")[0])):
        lines.append("%s %s" % ("FAIL" if failed[suite] else "PASS", suite))
    lines.append("# %d failure(s), depth<=%d, %d draws, seed %d" % (
        len(failures), depth_cap, args.draws, args.seed))
    return lines, {
        "command": "verify", "depth": args.depth, "draws": args.draws,
        "seed": args.seed, "tol": args.tol, "failures": failures,
    }, 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: commands look the
    compute functions up when they run, so patched module attributes apply."""
    parser = argparse.ArgumentParser(
        prog="pwckit",
        description="Exact computations for clustered dry-set measures on "
        "binary-tree leaves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, spec_flags=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if spec_flags:
            p.add_argument("--preset", help="spec preset, e.g. zero, first:linear:3ln2")
            p.add_argument("--spec-file", help="JSON parameter file")
        return p

    for name, help_text in (
        ("zeta", "free energy over a J grid"),
        ("density", "mean dry fraction over a J grid"),
    ):
        p = add(name, _cmd_grid, help_text)
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--j-grid", required=True, help="start:stop:step or list")

    p = add("canonical", _cmd_canonical, "size-resolved table ln W(a0)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--m-max", type=int, help="truncate the table at this size")
    p.add_argument("--maxterm", action="store_true",
                   help="dominant-profile table instead of the full sum")
    p.add_argument("--allow-large", action="store_true",
                   help="override the depth cost guard")

    p = add("threshold", _cmd_threshold, "wetting threshold estimation")
    p.add_argument("--depths", required=True, help="comma list, e.g. 8,12,16")
    p.add_argument("--delta", type=float,
                   help="fixed excess, finite and > 0; default is the per-depth policy")
    p.add_argument("--k-max", type=int, default=analysis.K_MAX_DEFAULT)

    p = add("sample", _cmd_sample, "exact draws, one leaf set per line")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)

    p = add("capacity", _cmd_capacity, "effective conductances of leaf sets",
            spec_flags=False)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--conductance", type=float, default=1.0,
                   help="uniform conductance (ignored with --spec-file)")
    p.add_argument("--spec-file", help="JSON parameter file (capacity variant)")
    p.add_argument("--subset", action="append",
                   help="leaf list such as '0,1,5'; repeatable")
    p.add_argument("--all-subsets", action="store_true")

    p = add("verify", _cmd_verify, "dynamic programs vs enumeration", spec_flags=False)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("diagnose", _cmd_diagnose, "Laplace and Tauberian curves")
    p.add_argument("--s-grid", default="pow2:2:10",
                   help="pow2:a:b for 2^-a..2^-b, or a comma list")
    p.add_argument("--k-max", type=int, default=analysis.K_MAX_DEFAULT)
    p.add_argument("--allow-large", action="store_true")

    for p in sub.choices.values():
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--summary", help="write a JSON run document here")
    return parser


@functools.lru_cache(maxsize=None)
def _commands():
    """Each command word's parser, as ``build_parser()`` holds it."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


@functools.lru_cache(maxsize=None)
def _valued_flags():
    """Every flag of every command that takes a value."""
    return {flag for p in _commands().values() for action in p._actions
            if action.nargs != 0 for flag in action.option_strings}


def _dash_value(text):
    """Whether argparse would take ``text`` for a flag, though it is a value: a
    dash-leading grid ("-3:3:0.5", "-1,2") or number ("-1e-3")."""
    try:
        float(text)
    except ValueError:
        return text.startswith("-") and (":" in text or "," in text)
    return text.startswith("-")


def _join_grid_values(argv):
    """Glue each flag that takes a value to a dash-leading value
    ("--j-grid -3:3:0.5", "--j -1e-3"), which argparse would refuse."""
    out = []
    for tok in argv:
        if out and out[-1] in _valued_flags() and _dash_value(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _write(outputs):
    """Write each ``(key, path, text)`` in one call; '-' is stdout.

    Every path is opened, without truncating it, before any is emptied or
    written, so a path that cannot be opened leaves the others as they
    were. Only regular files are emptied: devices and pipes cannot be. An
    OSError names the key of its path.
    """
    with contextlib.ExitStack() as stack:
        files = []
        for key, path, _ in outputs:
            with _naming(key, path):
                files.append(
                    sys.stdout if path == "-" else stack.enter_context(open(path, "a"))
                )
        for fh, (key, path, text) in zip(files, outputs):
            with _naming(key, path):
                if fh is not sys.stdout and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                fh.write(text)
                if fh is not sys.stdout:
                    fh.close()


def _parse(argv):
    """The namespace of ``argv``, parsed once.

    An argv that starts with a command word goes straight to that command's
    parser, the one ``build_parser()`` hands the rest of the argv to. Any
    other argv, and one that leaves tokens that parser does not take, goes
    through the full parser, so the top-level usage, help and error text are
    always the full parser's.
    """
    if argv:
        command = _commands().get(argv[0])
        if command is not None:
            args, rest = command.parse_known_args(argv[1:])
            if not rest:
                args.command = argv[0]
                return args
    return build_parser().parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(_join_grid_values(list(argv)))
    try:
        lines, summary, code = args.fn(args)
        outputs = [("out", args.out, "\n".join(lines) + "\n" if lines else "")]
        if args.summary:
            outputs.append(("summary", args.summary, _json(summary, indent=2) + "\n"))
        _write(outputs)
    except ValueError as exc:  # SpecConfigError and UnsupportedVariant among them
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
