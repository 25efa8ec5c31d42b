"""Write bench/reference.json: outputs the benchmark checks against.

Run from the repository root with ``python3 bench/record_reference.py``.
The values come from the library calls behind each CLI subcommand, for
every configuration a workload can generate that has no closed form or
identity to check against. Recording them again on changed code would make
the checks vacuous; do it only when an intended change of results is
reviewed.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as W
from run import import_pwckit


def _sample_entries(ln_w):
    m = len(ln_w) - 1
    picks = sorted({0, 1, 2, m // 4, m // 2, 3 * m // 4, m - 1, m})
    return {str(a): W.encode(float(ln_w[a])) for a in picks}


def record(pk):
    ref = {"sweep": {}, "threshold": {}, "canonical": {}}
    for preset in W.SWEEP_PRESETS:
        if preset == "zero":
            continue  # closed forms
        spec = pk.parse_preset(preset)
        ref["sweep"][preset] = {
            str(n): {
                "zeta": [pk.dp.zeta(spec, n, j) for j in W.LATTICE],
                "density": [pk.dp.dp_density(spec, n, j) for j in W.LATTICE],
            }
            for n in W.SWEEP_DEPTHS
        }
    for preset in W.THRESHOLD_PRESETS:
        spec = pk.parse_preset(preset)
        entry = {}
        for kmax in W.THRESHOLD_KMAX:
            try:
                report = pk.estimate_jstar(spec, list(W.THRESHOLD_DEPTH_SETS[-1]),
                                           k_max=100000 if kmax is None else kmax)
            except TypeError as exc:
                # known defect: kappa1 calls a ZeroClustering
                entry = {"error": type(exc).__name__, "message": str(exc)}
                break
            entry["rows"] = {str(n): [W.encode(x) for x in (u, s, t, d)]
                             for n, u, s, t, d in report.rows()}
            doc = report.to_document()
            entry.setdefault("report", {})[W.kmax_key(kmax)] = {
                key: W.encode(doc[key]) if isinstance(doc[key], float) else doc[key]
                for key in ("kappa_kind", "kappa_value", "kappa_at_cutoff",
                            "lower_bound", "tauberian_verdict", "verdict")
            }
        ref["threshold"][preset] = entry
    tables = [(p, n, "sum") for p, n in W.CANONICAL_FULL]
    tables += [(p, n, "max") for p, n in W.CANONICAL_MAXTERM]
    tables += [(p, n, "m%d" % W.TRUNCATED_M_MAX) for p, n in W.CANONICAL_TRUNCATED]
    tables.append(("first:linear:3ln2", 8, "sum"))  # tables warm-up job
    for preset, n, mode in tables:
        spec = pk.parse_preset(preset)
        if mode == "sum":
            table = pk.dp.dp_W(spec, n)
        elif mode == "max":
            table = pk.dp.dp_W_maxterm(spec, n)
        else:
            table = pk.dp.dp_W(spec, n, m_max=W.TRUNCATED_M_MAX)
        ref["canonical"]["%s/%d/%s" % (preset, n, mode)] = _sample_entries(table.ln_w)
    return ref


def main():
    pk = import_pwckit()
    ref = record(pk)
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print("wrote %s" % (os.path.relpath(W.REFERENCE_PATH),))
    return 0


if __name__ == "__main__":
    sys.exit(main())
