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
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, capacity as capmod, dp, oracle, sampler as sampmod
from .clustering import (
    SpecConfigError,
    UnsupportedVariant,
    load_spec_file,
    parse_preset,
    random_capacity,
    random_first_order,
    random_second_order,
)
from .tree import LeafSet


def _fmt(x):
    return "%.17g" % (float(x),)


def _parse_grid(text):
    """J grids: 'start:stop:step' (inclusive) or a comma list; never empty."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecConfigError("j-grid", "%r; expected start:stop:step" % (text,))
        start, stop, step = (float(p) for p in parts)
        if not (step > 0 and math.isfinite((stop - start) / step)):
            raise SpecConfigError(
                "j-grid", "%r; expected finite start and stop and a positive step"
                % (text,)
            )
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        grid = [start + i * step for i in range(max(count, 0))]
    else:
        grid = [float(p) for p in text.split(",") if p]
    if not grid:
        raise SpecConfigError("j-grid", "%r holds no J value" % (text,))
    return grid


def _parse_s_grid(text):
    """s grids: 'pow2:a:b' meaning 2^-a .. 2^-b, or a comma list."""
    if text.startswith("pow2:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("s grid %r; expected pow2:a:b" % (text,))
        a, b = int(parts[1]), int(parts[2])
        if b < a:
            a, b = b, a
        return [2.0**-e for e in range(a, b + 1)]
    return [float(p) for p in text.split(",") if p]


def _parse_depths(text):
    return [int(p) for p in text.split(",") if p]


def _load_spec(args):
    if getattr(args, "spec_file", None):
        return load_spec_file(args.spec_file)
    if getattr(args, "preset", None):
        return parse_preset(args.preset)
    raise SpecConfigError("spec", "provide --preset or --spec-file")


class _Out:
    """Output sink; '-' is stdout."""

    def __init__(self, path):
        self.path = path
        self._fh = sys.stdout if path in (None, "-") else open(path, "w")

    def line(self, text=""):
        self._fh.write(text + "\n")

    def close(self):
        if self._fh is not sys.stdout:
            self._fh.close()


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


def _write_summary(args, document):
    if getattr(args, "summary", None):
        with open(args.summary, "w") as fh:
            fh.write(_json(document, indent=2) + "\n")


def _spec_label(args):
    if getattr(args, "spec_file", None):
        return "file:" + args.spec_file
    return "preset:" + args.preset


def _check_oracle_depth(n, why="capacity specs have no dynamic program"):
    if n > oracle.ORACLE_MAX_DEPTH:
        raise SpecConfigError(
            "depth", "%s; depth <= %d only" % (why, oracle.ORACLE_MAX_DEPTH)
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_grid(args):
    """``zeta`` and ``density``: ``args.dp`` over the J grid, or ``args.enum``
    per point for capacity specs, written as column ``args.column``."""
    spec = _load_spec(args)
    grid = _parse_grid(args.j_grid)
    n = args.depth
    if spec.variant == "capacity":
        _check_oracle_depth(n)
        values = [args.enum(spec, n, j) for j in grid]
    else:
        values = args.dp(spec, n, grid).tolist()
    out = _Out(args.out)
    out.line("j," + args.column)
    for j, v in zip(grid, values):
        out.line("%s,%s" % (_fmt(j), _fmt(v)))
    out.close()
    _write_summary(args, {
        "command": args.command, "spec": _spec_label(args), "depth": n,
        "j_grid": grid, args.column: values,
    })
    return 0


def _cmd_canonical(args):
    spec = _load_spec(args)
    n = args.depth
    if spec.variant == "capacity":
        _check_oracle_depth(n)
        table = oracle.enum_W(spec, n)
    elif args.maxterm:
        table = dp.dp_W_maxterm(
            spec, n, m_max=args.m_max, allow_large=args.allow_large
        )
    else:
        table = dp.dp_W(spec, n, m_max=args.m_max, allow_large=args.allow_large)
    out = _Out(args.out)
    out.line("a0,ln_w,omega_n")
    for a0 in range(table.m_max + 1):
        out.line("%d,%s,%s" % (a0, _fmt(table.ln_w[a0]), _fmt(table.omega(a0))))
    out.close()
    _write_summary(args, {
        "command": "canonical", "spec": _spec_label(args), "depth": n,
        "kind": table.kind, "m_max": table.m_max,
    })
    return 0


def _cmd_threshold(args):
    spec = _load_spec(args)
    depths = _parse_depths(args.depths)
    report = analysis.estimate_jstar(
        spec, depths, delta=args.delta, k_max=args.k_max,
        label=_spec_label(args),
    )
    out = _Out(args.out)
    out.line("n,jstar_upper,slope_estimate,tail,delta")
    for n, upper, slope, tail, delta in report.rows():
        out.line(",".join(
            [str(n), _fmt(upper), _fmt(slope), _fmt(tail), _fmt(delta)]
        ))
    doc = report.to_document()
    if getattr(args, "summary", None):
        _write_summary(args, doc)
    else:
        out.line("# report")
        out.line(_json(doc))
    out.close()
    return 0


def _cmd_sample(args):
    spec = _load_spec(args)
    draws = sampmod.sample(spec, args.depth, args.j, args.seed, args.num)
    out = _Out(args.out)
    for ls in draws:
        out.line(" ".join([str(x) for x in ls]))
    out.close()
    mean = sum(len(ls) for ls in draws) / (len(draws) * (1 << args.depth))
    _write_summary(args, {
        "command": "sample", "spec": _spec_label(args), "depth": args.depth,
        "j": args.j, "seed": args.seed, "num": args.num,
        "mean_fraction": mean,
    })
    return 0


def _parse_subset(text, depth):
    leaves = tuple(int(p) for p in text.replace(",", " ").split())
    return LeafSet(depth, leaves)


def _cmd_capacity(args):
    n = args.depth
    if n < 0:
        raise SpecConfigError("depth", "must be nonnegative, got %d" % (n,))
    if args.spec_file:
        spec = load_spec_file(args.spec_file)
        if spec.variant != "capacity":
            raise SpecConfigError(
                "variant", "capacity subcommand needs a capacity spec"
            )
        profile = spec.profile(n)
    else:
        profile = capmod.ConductanceProfile.uniform(n, args.conductance)
    subsets = [_parse_subset(s, n) for s in args.subset or []]
    if args.all_subsets:
        _check_oracle_depth(n, "--all-subsets enumerates 2^%d rows" % (1 << n))
        subsets = [
            LeafSet.from_mask(n, mask) for mask in range(1 << (1 << n))
        ]
    if not subsets:
        raise SpecConfigError("subset", "give --subset leaves or --all-subsets")
    out = _Out(args.out)
    out.line("leaves,cap")
    for ls in subsets:
        out.line("%s,%s" % (
            " ".join(str(x) for x in ls),
            _fmt(capmod.cap_reduce(ls, profile)),
        ))
    out.close()
    return 0


def _cmd_diagnose(args):
    spec = _load_spec(args)
    s_grid = _parse_s_grid(args.s_grid)
    out = _Out(args.out)
    if spec.variant in ("zero", "first"):
        curve = analysis.laplace_first(spec.h, s_grid)
        tau = analysis.tauberian_first(spec.h, k_max=args.k_max)
    elif spec.variant == "second":
        curve = analysis.laplace_second(
            spec, s_grid, allow_large=args.allow_large
        )
        tau = None
    else:
        raise SpecConfigError(
            "variant", "no summability diagnostics for capacity specs"
        )
    out.line("# laplace %s" % (curve.kind,))
    out.line("s,diag")
    for s, d, bad in zip(curve.s, curve.diag, curve.divergent):
        out.line("%s,%s%s" % (_fmt(s), _fmt(d), " # divergent" if bad else ""))
    if tau is not None:
        out.line("")
        out.line("# tauberian verdict=%s" % (tau.verdict,))
        out.line("k,diag")
        k = 1
        while k <= len(tau.u):
            out.line("%d,%s" % (k, _fmt(tau.u[k - 1])))
            k *= 2
    out.close()
    doc = {
        "command": "diagnose", "spec": _spec_label(args),
        "laplace_kind": curve.kind,
        "s": [float(s) for s in curve.s],
        "diag": [float(d) for d in curve.diag],
    }
    if tau is not None:
        doc["tauberian_verdict"] = tau.verdict
    _write_summary(args, doc)
    return 0


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


def _run_verify(args, out):
    tol = args.tol
    failures = []
    depth_cap = min(args.depth, oracle.ORACLE_MAX_DEPTH)
    rng = np.random.default_rng(args.seed)

    def check(suite, n, draw, message):
        if message is not None:
            failures.append((suite, n, draw, message))
            out.line("FAIL %s n=%d draw=%d: %s" % (suite, n, draw, message))

    for n in range(1, depth_cap + 1):
        sizes = oracle.profile_table(n).sizes
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

    return failures


def _cmd_verify(args):
    for key, value in (("depth", args.depth), ("draws", args.draws)):
        if value < 1:
            raise SpecConfigError(key, "must be at least 1, got %d" % (value,))
    out = _Out(args.out)
    failures = _run_verify(args, out)
    suites = (
        "zeta-first", "zeta-second", "w-first", "w-second",
        "density-first", "density-second", "maxterm", "capacity-dual",
        "capacity-z",
    )
    failed = {f[0] for f in failures}
    for suite in suites:
        out.line("%s %s" % ("FAIL" if suite in failed else "PASS", suite))
    out.line("# %d failure(s), depth<=%d, %d draws, seed %d" % (
        len(failures), min(args.depth, oracle.ORACLE_MAX_DEPTH),
        args.draws, args.seed))
    out.close()
    _write_summary(args, {
        "command": "verify", "depth": args.depth, "draws": args.draws,
        "seed": args.seed, "tol": args.tol,
        "failures": ["%s n=%d draw=%d: %s" % f for f in failures],
    })
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_spec_flags(p):
    p.add_argument("--preset", help="spec preset, e.g. zero, first:linear:3ln2")
    p.add_argument("--spec-file", help="JSON parameter file")


def _add_out(p):
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--summary", help="write a JSON run document here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pwckit",
        description="Exact computations for clustered dry-set measures on "
        "binary-tree leaves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, dp_fn, enum_fn, column in (
        ("zeta", "free energy over a J grid", dp.zeta, oracle.enum_zeta,
         "zeta_n"),
        ("density", "mean dry fraction over a J grid", dp.dp_density,
         oracle.enum_density, "rho_n"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_spec_flags(p)
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--j-grid", required=True, help="start:stop:step or list")
        _add_out(p)
        p.set_defaults(fn=_cmd_grid, dp=dp_fn, enum=enum_fn, column=column)

    p = sub.add_parser("canonical", help="size-resolved table ln W(a0)")
    _add_spec_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--m-max", type=int, help="truncate the table at this size")
    p.add_argument("--maxterm", action="store_true",
                   help="dominant-profile table instead of the full sum")
    p.add_argument("--allow-large", action="store_true",
                   help="override the depth cost guard")
    _add_out(p)
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("threshold", help="wetting threshold estimation")
    _add_spec_flags(p)
    p.add_argument("--depths", required=True, help="comma list, e.g. 8,12,16")
    p.add_argument("--delta", type=float,
                   help="fixed excess; default is the per-depth policy")
    p.add_argument("--k-max", type=int, default=100000)
    _add_out(p)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("sample", help="exact draws, one leaf set per line")
    _add_spec_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    _add_out(p)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("capacity", help="effective conductances of leaf sets")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--conductance", type=float, default=1.0,
                   help="uniform conductance (ignored with --spec-file)")
    p.add_argument("--spec-file", help="JSON parameter file (capacity variant)")
    p.add_argument("--subset", action="append",
                   help="leaf list such as '0,1,5'; repeatable")
    p.add_argument("--all-subsets", action="store_true")
    _add_out(p)
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("verify", help="dynamic programs vs enumeration")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_out(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("diagnose", help="Laplace and Tauberian curves")
    _add_spec_flags(p)
    p.add_argument("--s-grid", default="pow2:2:10",
                   help="pow2:a:b for 2^-a..2^-b, or a comma list")
    p.add_argument("--k-max", type=int, default=100000)
    p.add_argument("--allow-large", action="store_true")
    _add_out(p)
    p.set_defaults(fn=_cmd_diagnose)

    return parser


def _join_grid_values(argv):
    """Glue grid flags to dash-leading values ("--j-grid -3:3:0.5")."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--j-grid", "--s-grid") and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and (":" in nxt or "," in nxt):
                out.append("%s=%s" % (tok, nxt))
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_grid_values(list(argv)))
    try:
        return args.fn(args)
    except (SpecConfigError, UnsupportedVariant, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
