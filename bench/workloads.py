"""Job mixes and output checks for the four benchmark workloads.

A workload is an endless sequence of decks. A deck is the full factorial of
the parameters that set a job's cost, so every deck does the same work and
runs made with different seeds differ only in job order and in parameters
that do not move cost (J values, sampler seeds, leaf subsets). The seed
fixes both through ``random.Random(seed)``.

Every job carries a check of its printed output. Checks use identities
where the model has one (closed forms of the zero family, density against
a central difference of zeta, canonical tables against the partition
function, the two capacity solvers) and otherwise reference values that
``record_reference.py`` wrote from the code the benchmark was defined on.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: J lattice shared by every sweep grid: J_i = -3 + 0.05 i, i = 0..120, the
#: same floats the CLI makes from the grid "-3:3:0.05"
LATTICE = tuple(-3.0 + i * 0.05 for i in range(121))
FULL_GRID = "-3:3:0.05"

SWEEP_PRESETS = ("zero", "first:linear:3ln2", "first:logcorrected", "dgff")
SWEEP_DEPTHS = (16, 32, 60)
#: grid sizes per deck cell; one-point grids come three times (each with its
#: own J) because they are cheap, and the extra samples put the p90 inside the
#: dense middle of the cost distribution instead of on the gap below the
#: large dgff grids
SWEEP_SIZES = (1, 1, 1, 13, 121)

THRESHOLD_PRESETS = ("first:linear:2", "first:linear:3ln2",
                     "first:logcorrected", "dgff", "zero")
#: depth sets from {8, 12, 16}: each depth alone, and the three as one chain
THRESHOLD_DEPTH_SETS = ((8,), (12,), (16,), (8, 12, 16))
THRESHOLD_KMAX = (None, 1000)  # None: the CLI default


def kmax_key(kmax):
    return "default" if kmax is None else str(kmax)

#: (preset, depth, J): dense, all-empty, medium and dgff regimes
SAMPLE_REGIMES = (
    ("zero", 10, 0.0),
    ("first:linear:3ln2", 10, 0.5),
    ("first:logcorrected", 8, 1.0),
    ("dgff", 8, 0.5),
    ("dgff", 10, 0.5),
)
SAMPLE_DRAWS = (10, 30, 50)

CANONICAL_FULL = tuple(
    (p, n) for p in ("first:linear:3ln2", "first:logcorrected", "zero")
    for n in (8, 10, 12)) + (("dgff", 6), ("dgff", 8), ("dgff", 10))
CANONICAL_MAXTERM = tuple(
    (p, n) for p in ("first:linear:3ln2", "first:logcorrected")
    for n in (8, 10, 12))
CANONICAL_TRUNCATED = tuple(
    (p, 16) for p in ("first:linear:3ln2", "first:logcorrected", "zero", "dgff"))
TRUNCATED_M_MAX = 256
VERIFY_RUNS = ((3, 1), (3, 2), (4, 1), (4, 2))  # (depth, draws)
CAPACITY_DEPTHS = (4, 6, 8, 4, 6, 8)

REL_TOL = 1e-9       # `pwckit verify --tol` default
ZERO_TOL = 1e-12     # closed forms of the zero family
DIFF_TOL = 1e-6      # density against a central difference of zeta
DIFF_STEP = 1e-4
SAMPLE_Z = 5.0       # sampler mean within this many standard errors


@dataclass
class Job:
    kind: str
    argv: list
    items: int
    check: Callable[[str, int], Optional[str]]
    expected_error: Optional[str] = None  # exception name of a known defect
    config: int = -1  # position in the deck's factorial order


def _deal(rng, jobs):
    """Number the deck's jobs by their factorial position, then shuffle."""
    for i, job in enumerate(jobs):
        job.config = i
    rng.shuffle(jobs)
    return jobs


def close(a, b, tol):
    if a == b:
        return True
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def table_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError("header %r, expected %r" % (lines[:1], header))
    return [line.split(",") for line in lines[1:]]


class CheckError(Exception):
    """An output that does not match its check."""


def encode(x):
    """JSON-safe float: non-finite values become strings float() reads."""
    return x if math.isfinite(x) else repr(x)


class Context:
    """pwckit handles, reference values and check-side caches."""

    def __init__(self, pwckit):
        self.pk = pwckit
        with open(REFERENCE_PATH) as fh:
            self.ref = json.load(fh)
        self.spec = lru_cache(maxsize=None)(pwckit.parse_preset)
        self.sum_table = lru_cache(maxsize=None)(
            lambda preset, n: pwckit.dp.dp_W(self.spec(preset), n).ln_w)
        self.sample_model = lru_cache(maxsize=None)(self._sample_model)

    def _sample_model(self, preset, n, j):
        """Mean fraction and its per-draw variance, Var(|A|/2^n) = rho'/2^n."""
        spec, dens = self.spec(preset), self.pk.dp.dp_density
        rho = dens(spec, n, j)
        slope = (dens(spec, n, j + DIFF_STEP)
                 - dens(spec, n, j - DIFF_STEP)) / (2 * DIFF_STEP)
        return rho, max(slope, 0.0) / (1 << n)


def _checked(fn):
    """Adapt fn(ctx, text, *params) raising CheckError into a Job check."""
    def make(ctx, *params):
        def check(text, rc):
            if rc != 0:
                return "exit code %r" % (rc,)
            try:
                fn(ctx, text, *params)
            except CheckError as exc:
                return str(exc)
            except (ValueError, IndexError, KeyError) as exc:
                return "unparsable output: %r" % (exc,)
            return None
        return check
    return make


# ---------------------------------------------------------------------------
# sweep


@_checked
def check_sweep(ctx, text, cmd, preset, n, idx, pick):
    rows = table_rows(text, "j,zeta_n" if cmd == "zeta" else "j,rho_n")
    if len(rows) != len(idx):
        raise CheckError("%d rows for %d grid points" % (len(rows), len(idx)))
    values = []
    for (j_txt, v_txt), i in zip(rows, idx):
        j, v = float(j_txt), float(v_txt)
        if j != LATTICE[i]:
            raise CheckError("row J %r, expected %r" % (j, LATTICE[i]))
        if preset == "zero":
            want = math.log1p(math.exp(j)) if cmd == "zeta" \
                else 1.0 / (1.0 + math.exp(-j))
            tol = ZERO_TOL
        else:
            want = float(ctx.ref["sweep"][preset][str(n)][cmd][i])
            tol = REL_TOL
        if not close(v, want, tol):
            raise CheckError("%s(J=%r) = %r, expected %r" % (cmd, j, v, want))
        values.append(v)
    # zeta is convex and nondecreasing in J, so zeta and rho both grow
    for a, b in zip(values, values[1:]):
        if b < a - 1e-15 * max(1.0, abs(a)):
            raise CheckError("%s decreases along the grid" % (cmd,))
    if cmd == "density":
        j = LATTICE[idx[pick]]
        spec, zeta = ctx.spec(preset), ctx.pk.dp.zeta
        diff = (zeta(spec, n, j + DIFF_STEP)
                - zeta(spec, n, j - DIFF_STEP)) / (2 * DIFF_STEP)
        if abs(diff - values[pick]) > DIFF_TOL:
            raise CheckError("rho(J=%r) = %r, central difference %r"
                             % (j, values[pick], diff))


def sweep_deck(rng, ctx):
    jobs = []
    for preset, n, size, cmd in itertools.product(
            SWEEP_PRESETS, SWEEP_DEPTHS, SWEEP_SIZES, ("zeta", "density")):
        if size == len(LATTICE):
            idx, grid = list(range(size)), FULL_GRID
        else:
            idx = sorted(rng.sample(range(len(LATTICE)), size))
            grid = ",".join(repr(LATTICE[i]) for i in idx)
        argv = [cmd, "--preset", preset, "--depth", str(n), "--j-grid=" + grid]
        check = check_sweep(ctx, cmd, preset, n, idx, rng.randrange(size))
        jobs.append(Job(cmd, argv, size, check))
    return _deal(rng, jobs)


# ---------------------------------------------------------------------------
# threshold


@_checked
def check_threshold(ctx, text, preset, depths, kmax):
    lines = text.splitlines()
    if len(lines) != len(depths) + 3 or lines[-2] != "# report":
        raise CheckError("expected %d rows and a report" % (len(depths),))
    rows = table_rows("\n".join(lines[:-2]), "n,jstar_upper,slope_estimate,tail,delta")
    doc = json.loads(lines[-1])
    ref = ctx.ref["threshold"][preset]
    spec = ctx.spec(preset)
    for row, n in zip(rows, depths):
        if int(row[0]) != n:
            raise CheckError("row depth %s, expected %d" % (row[0], n))
        upper, slope, tail, delta = (float(x) for x in row[1:])
        # the defining inequality of the upper estimate, re-evaluated
        if not ctx.pk.dp.zeta(spec, n, upper) - tail > delta:
            raise CheckError("n=%d: zeta(%r) - tail <= delta" % (n, upper))
        if "rows" in ref:
            for got, want, name in zip((upper, slope, tail, delta),
                                       map(float, ref["rows"][str(n)]),
                                       ("jstar_upper", "slope", "tail", "delta")):
                if not close(got, want, REL_TOL):
                    raise CheckError("n=%d %s %r, expected %r" % (n, name, got, want))
    if doc["depths"] != list(depths):
        raise CheckError("report depths %r" % (doc["depths"],))
    want = ref.get("report", {}).get(kmax_key(kmax))
    if want is not None:
        for key, value in want.items():
            got = doc[key]
            same = close(float(got), float(value), REL_TOL) \
                if key in ("kappa_value", "lower_bound") else got == value
            if not same:
                raise CheckError("report %s %r, expected %r" % (key, got, value))


def threshold_deck(rng, ctx):
    jobs = []
    for preset, depths, kmax in itertools.product(
            THRESHOLD_PRESETS, THRESHOLD_DEPTH_SETS, THRESHOLD_KMAX):
        argv = ["threshold", "--preset", preset,
                "--depths", ",".join(map(str, depths))]
        if kmax is not None:
            argv += ["--k-max", str(kmax)]
        expected = ctx.ref["threshold"][preset].get("error")
        jobs.append(Job("threshold", argv, 1,
                        check_threshold(ctx, preset, depths, kmax), expected))
    return _deal(rng, jobs)


# ---------------------------------------------------------------------------
# sample


@_checked
def check_sample(ctx, text, preset, n, j, num):
    lines = text.splitlines()
    if len(lines) != num:
        raise CheckError("%d draws, expected %d" % (len(lines), num))
    size = 0
    for line in lines:
        leaves = [int(x) for x in line.split()]
        if any(b <= a for a, b in zip(leaves, leaves[1:])):
            raise CheckError("leaves not strictly increasing: %r" % (line,))
        if leaves and not (0 <= leaves[0] and leaves[-1] < 1 << n):
            raise CheckError("leaf outside [0, 2^%d): %r" % (n, line))
        size += len(leaves)
    mean = size / (num * (1 << n))
    rho, var = ctx.sample_model(preset, n, j)
    if abs(mean - rho) > SAMPLE_Z * math.sqrt(var / num) + 1e-12:
        raise CheckError("mean fraction %r vs density %r (%d draws)"
                         % (mean, rho, num))


def sample_deck(rng, ctx):
    jobs = []
    for (preset, n, j), num in itertools.product(SAMPLE_REGIMES, SAMPLE_DRAWS):
        argv = ["sample", "--preset", preset, "--depth", str(n), "--j", repr(j),
                "--num", str(num), "--seed", str(rng.randrange(1 << 31))]
        jobs.append(Job("sample", argv, num, check_sample(ctx, preset, n, j, num)))
    return _deal(rng, jobs)


# ---------------------------------------------------------------------------
# tables


@_checked
def check_canonical(ctx, text, preset, n, mode, m_max, js):
    rows = table_rows(text, "a0,ln_w,omega_n")
    if len(rows) != m_max + 1:
        raise CheckError("%d rows, expected %d" % (len(rows), m_max + 1))
    ln_w = []
    for a0, (a_txt, w_txt, o_txt) in enumerate(rows):
        w = float(w_txt)
        if int(a_txt) != a0 or float(o_txt) != w / (1 << n):
            raise CheckError("row %d malformed: %r" % (a0, rows[a0]))
        ln_w.append(w)
    for a0, want in ctx.ref["canonical"]["%s/%d/%s" % (preset, n, mode)].items():
        if not close(ln_w[int(a0)], float(want), REL_TOL):
            raise CheckError("ln W(%s) %r, expected %r" % (a0, ln_w[int(a0)], want))
    if mode == "sum" and m_max == 1 << n:
        # sum_a W(a) e^{J a} is the grand partition function
        spec = ctx.spec(preset)
        for j in js:
            mx = max(w + j * a for a, w in enumerate(ln_w))
            got = mx + math.log(math.fsum(math.exp(w + j * a - mx)
                                          for a, w in enumerate(ln_w)))
            want = ctx.pk.dp.dp_Z(spec, n, j).ln
            if not close(got, want, REL_TOL):
                raise CheckError("logsumexp at J=%r: %r vs ln Z %r" % (j, got, want))
        if preset == "zero":
            m = 1 << n
            for a, w in enumerate(ln_w):
                binom = math.lgamma(m + 1) - math.lgamma(a + 1) - math.lgamma(m - a + 1)
                if not close(w, binom, REL_TOL):
                    raise CheckError("ln W(%d) %r, ln C(%d, %d) %r" % (a, w, m, a, binom))
    if mode == "max":
        full = ctx.sum_table(preset, n)
        for a, w in enumerate(ln_w):
            if w > full[a] + REL_TOL * max(1.0, abs(full[a])):
                raise CheckError("maxterm %r above sum %r at %d" % (w, full[a], a))


@_checked
def check_verify(ctx, text):
    lines = text.splitlines()
    passes = [line for line in lines if line.startswith("PASS ")]
    if len(passes) != 9 or any(line.startswith("FAIL") for line in lines):
        raise CheckError("verify: %d PASS lines: %r" % (len(passes), lines[-10:]))


@_checked
def check_capacity(ctx, text, n, conductance, subsets):
    rows = table_rows(text, "leaves,cap")
    if len(rows) != len(subsets):
        raise CheckError("%d rows for %d subsets" % (len(rows), len(subsets)))
    profile = ctx.pk.ConductanceProfile.uniform(n, conductance)
    for (leaves_txt, cap_txt), leaves in zip(rows, subsets):
        if leaves_txt != " ".join(map(str, leaves)):
            raise CheckError("leaves %r, expected %r" % (leaves_txt, leaves))
        want = ctx.pk.cap_quadratic(ctx.pk.LeafSet(n, tuple(leaves)), profile)
        if not close(float(cap_txt), want, REL_TOL):
            raise CheckError("cap %r, quadratic solver %r" % (cap_txt, want))


def canonical_job(ctx, preset, n, mode, js=()):
    argv = ["canonical", "--preset", preset, "--depth", str(n)]
    m_max = 1 << n
    if mode == "max":
        argv.append("--maxterm")
    elif mode == "m%d" % TRUNCATED_M_MAX:
        argv += ["--m-max", str(TRUNCATED_M_MAX)]
        m_max = TRUNCATED_M_MAX
    return Job("canonical", argv, 1,
               check_canonical(ctx, preset, n, mode, m_max, tuple(js)))


def verify_job(ctx, depth, draws, seed):
    argv = ["verify", "--depth", str(depth), "--draws", str(draws),
            "--seed", str(seed)]
    return Job("verify", argv, 1, check_verify(ctx))


def capacity_job(ctx, n, conductance, subsets):
    argv = ["capacity", "--depth", str(n), "--conductance", repr(conductance)]
    for leaves in subsets:
        argv += ["--subset", ",".join(map(str, leaves))]
    return Job("capacity", argv, 1, check_capacity(ctx, n, conductance, subsets))


def tables_deck(rng, ctx):
    jobs = [canonical_job(ctx, p, n, "sum",
                          [round(rng.uniform(-2.0, 2.0), 3) for _ in range(3)])
            for p, n in CANONICAL_FULL]
    jobs += [canonical_job(ctx, p, n, "max") for p, n in CANONICAL_MAXTERM]
    jobs += [canonical_job(ctx, p, n, "m%d" % TRUNCATED_M_MAX)
             for p, n in CANONICAL_TRUNCATED]
    jobs += [verify_job(ctx, d, k, rng.randrange(1000)) for d, k in VERIFY_RUNS]
    for n in CAPACITY_DEPTHS:
        leaves = range(1 << n)
        subsets = [sorted(rng.sample(leaves, rng.randint(1, min(len(leaves), 8))))
                   for _ in range(rng.randint(1, 3))]
        jobs.append(capacity_job(ctx, n, round(rng.uniform(0.25, 2.0), 3), subsets))
    return _deal(rng, jobs)


# ---------------------------------------------------------------------------
# registry


def _warmup_sweep(ctx):
    return [Job(cmd, [cmd, "--preset", "dgff", "--depth", "16", "--j-grid=0.5"], 1,
                check_sweep(ctx, cmd, "dgff", 16, [70], 0))
            for cmd in ("zeta", "density")]


def _warmup_threshold(ctx):
    return [Job("threshold", ["threshold", "--preset", "first:linear:2",
                              "--depths", "8", "--k-max", "1000"], 1,
                check_threshold(ctx, "first:linear:2", (8,), 1000))]


def _warmup_sample(ctx):
    argv = ["sample", "--preset", "dgff", "--depth", "8", "--j", "0.5",
            "--num", "10", "--seed", "1"]
    return [Job("sample", argv, 10, check_sample(ctx, "dgff", 8, 0.5, 10))]


def _warmup_tables(ctx):
    # verify at depth 4 builds the oracle's per-depth profile matrices
    return [canonical_job(ctx, "first:linear:3ln2", 8, "sum", (0.5,)),
            verify_job(ctx, 4, 1, 0),
            capacity_job(ctx, 4, 0.5, [[0, 3, 9]])]


@dataclass(frozen=True)
class Workload:
    name: str
    deck: Callable
    warmup: Callable
    item: str          # what items_per_s counts
    trace_decks: int   # decks in the traced run; fixed so counts repeat


WORKLOADS = {
    "sweep": Workload("sweep", sweep_deck, _warmup_sweep, "J-grid points", 1),
    "threshold": Workload("threshold", threshold_deck, _warmup_threshold,
                          "reports", 1),
    "sample": Workload("sample", sample_deck, _warmup_sample, "draws", 4),
    "tables": Workload("tables", tables_deck, _warmup_tables, "jobs", 3),
}
