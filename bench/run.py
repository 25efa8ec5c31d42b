"""pwckit benchmark: CLI workloads driven in-process as a closed loop.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

One client runs one ``pwckit.cli.main(argv)`` job at a time in this process,
with no threads, and checks every job's output outside the timed region.
The job list comes from ``--seed`` (see workloads.py). A run executes whole
decks until ``--seconds`` have passed and at least MIN_JOBS jobs ran.

``--trace 0`` reports the end-to-end metrics from an untraced run, plus
``setup_s``, the median over SETUP_PROBES fresh interpreters of the time
from start to the end of warm-up (``import pwckit`` and one job of each
kind in the workload). Times are scaled to reference seconds by canaries,
fixed work outside pwckit timed through the run, so that swings in host
speed cancel (HostSpeed, setup_time). ``--trace 1`` runs a fixed number of
decks twice, each job untraced and traced in alternating order, and reports
per-layer metrics from the traced copy (tracing.py) and the tracing
overhead; spans are written to .bench_out/. ``--workload all`` runs every workload both
ways in child processes and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as W
from tracing import Tracer, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_JOBS = 100
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

perf_counter = time.perf_counter


def import_pwckit():
    """Import pwckit from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pwckit", "__init__.py")):
        sys.exit("bench: no pwckit sources under %s" % (src,))
    sys.path.insert(0, src)
    import pwckit
    import pwckit.cli  # noqa: F401  (not imported by the package itself)
    if os.path.dirname(os.path.dirname(os.path.abspath(pwckit.__file__))) != src:
        sys.exit("bench: pwckit imported from %s, not %s" % (pwckit.__file__, src))
    return pwckit


# ---------------------------------------------------------------------------
# one job


def run_job(pk, job, tracer=None, job_id=0):
    """Run one CLI job; returns (seconds, status, message).

    status is "ok", "defect" (the job raised the known seed defect it is
    marked with), or "wrong" (bad exit code, unexpected exception, or output
    that failed its check). Only "ok" jobs count as passed. With a tracer,
    the job runs traced and its check does not.
    """
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return pk.cli.main(list(job.argv))

    exc = None
    if tracer is not None:
        tracer.install(pk)
    start = perf_counter()
    try:
        rc = tracer.job(job_id, call) if tracer is not None else call()
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a failing job is recorded, the run goes on
        exc = e
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.remove()
    if exc is not None:
        name = type(exc).__name__
        if name == job.expected_error:
            return elapsed, "defect", "known defect: %s: %s" % (name, exc)
        return elapsed, "wrong", "%s: %s" % (name, exc)
    problem = job.check(out.getvalue(), rc)
    if problem is not None:
        return elapsed, "wrong", "%s: %s" % (" ".join(job.argv), problem)
    return elapsed, "ok", None


class Tally:
    """Job outcomes of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = []

    def add(self, status, message):
        self.attempted += 1
        if status != "ok":
            self.failed += 1
        if status == "wrong":
            self.wrong.append(message)

    def result(self, metrics):
        return {"correct": not self.wrong, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def warm_up(pk, workload, ctx):
    """Run the workload's warm-up jobs (checked when ``ctx`` is given)."""
    for job in workload.warmup(ctx):
        if ctx is None:
            with contextlib.redirect_stdout(io.StringIO()):
                pk.cli.main(list(job.argv))
            continue
        status, message = run_job(pk, job)[1:]
        if status != "ok":
            sys.exit("bench: warm-up job failed: %s" % (message,))


# ---------------------------------------------------------------------------
# host speed


#: job time between two canary calls in a run
CANARY_EVERY_S = 0.05
#: canary calls around a moment that set the host speed at that moment
CANARY_NEAR = 7
#: canary time that defines a reference second (about its time on a 2-CPU
#: Xeon host at 2.0 GHz in a fast period, Python 3.11 and numpy 2.4)
CANARY_REF_S = 2.5e-3
LN2 = math.log(2.0)
#: fresh_canary.py, and its time from spawn to ready that defines a reference
#: second of set-up (about its time on the same host in a fast period)
FRESH_CANARY = [sys.executable, os.path.join(HERE, "fresh_canary.py")]
FRESH_REF_S = 0.3


def canary():
    """Fixed work that uses no pwckit code: about half pure-Python float,
    string and dict work, about half numpy ufunc calls on scalars and on
    small arrays, the two kinds of work pwckit's jobs are made of."""
    acc, counts = 0.0, {}
    for i in range(1500):
        x = (i * 0.37) % 5.0
        acc += math.exp(-x) * x
        key = ("%.17g" % acc)[:6]
        counts[key] = counts.get(key, 0) + 1
    y = 0.0
    for _ in range(300):
        y = np.logaddexp(LN2 + 0.5 * y, y - 1.0) - LN2
    a = np.linspace(-3.0, 3.0, 512)
    for _ in range(60):
        a = np.maximum.accumulate(np.logaddexp(a, a[::-1]) - LN2) * 0.5
    return len(counts) + float(y) + float(a[0])


class HostSpeed:
    """Canary timings through a run, to express job times in reference seconds.

    A shared host can change speed by a factor of up to 2 (seen on the
    2-CPU host of the baseline in README.md), in episodes of seconds to
    minutes, longer than a run. A time measured at moment t is scaled by
    CANARY_REF_S over the median of the CANARY_NEAR canary calls nearest to
    t, so runs that fall in different episodes report the same figures. The canary is not pwckit code, so a change to
    pwckit moves the scaled times as much as the raw ones.
    """

    def __init__(self):
        self.at, self.took = [], []

    def tick(self, times=1):
        for _ in range(times):
            start = perf_counter()
            canary()
            end = perf_counter()
            self.at.append(0.5 * (start + end))
            self.took.append(end - start)

    def scale(self, t):
        """Reference seconds per measured second at moment ``t``."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - CANARY_NEAR // 2, len(self.at) - CANARY_NEAR))
        return CANARY_REF_S / statistics.median(self.took[lo:lo + CANARY_NEAR])


# ---------------------------------------------------------------------------
# set-up probes (fresh interpreters)


def probe_main(workload, cold):
    """Child side: import, warm up, report, exit."""
    pk = import_pwckit()
    firsts = {}
    if cold:
        phi_vector = pk.oracle.phi_vector

        def timed(spec, n):
            start = perf_counter()
            result = phi_vector(spec, n)
            firsts.setdefault((n, spec.variant), perf_counter() - start)
            return result

        pk.oracle.phi_vector = timed
    warm_up(pk, W.WORKLOADS[workload], None)
    print(json.dumps({"ready": time.monotonic(),
                      "cold_ms": 1e3 * sum(firsts.values())}))
    return 0


def spawn(argv):
    """Seconds from spawning ``argv`` to the "ready" moment of its report,
    and the report (the last line of its output). Both sides read
    CLOCK_MONOTONIC, which all processes share."""
    start = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("bench: %s failed with exit code %r"
                 % (os.path.basename(argv[1]), done.returncode))
    report = json.loads(done.stdout.splitlines()[-1])
    return report["ready"] - start, report


def probe(workload, cold=False):
    """Seconds from spawning a fresh interpreter to the end of its warm-up,
    and the child's report."""
    return spawn([sys.executable, os.path.abspath(__file__), "--probe",
                  "--workload", workload] + (["--cold"] if cold else []))


# ---------------------------------------------------------------------------
# runs


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def setup_time(name):
    """Median over SETUP_PROBES fresh interpreters of the time to the end of
    warm-up, in reference seconds; also returns the unscaled median.

    Set-up time does not follow the in-process canary (HostSpeed): it is
    interpreter start, imports and memory touched for the first time, and
    it swings with the host in its own way. So each probe is scaled by
    FRESH_REF_S over the geometric mean of the fresh_canary.py runs just
    before and just after it, which do the same kinds of work.
    """
    fresh = [spawn(FRESH_CANARY)[0]]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        seconds = probe(name)[0]
        fresh.append(spawn(FRESH_CANARY)[0])
        raw.append(seconds)
        scaled.append(seconds * FRESH_REF_S / math.sqrt(fresh[-2] * fresh[-1]))
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(pk, workload, ctx, seed, seconds):
    """Untraced closed-loop run of whole decks.

    Every deck holds each job configuration once, so a run holds each one
    ``decks`` times. Job times are scaled to reference seconds (HostSpeed).
    A configuration's latency is the median of its copies, which keeps
    short swings in host speed from deciding where the percentiles fall;
    p50 and p90 are taken over the configurations, and items_per_s is one
    deck's items over the sum of those medians.
    """
    warm_up(pk, workload, ctx)
    setup, setup_raw = setup_time(workload.name)
    rng = random.Random(seed)
    tally = Tally()
    speed = HostSpeed()
    speed.tick(CANARY_NEAR)
    runs, items, decks, since = [], 0, 0, 0.0
    start = perf_counter()
    while perf_counter() - start < seconds or tally.attempted < MIN_JOBS:
        for job in workload.deck(rng, ctx):
            begun = perf_counter()
            elapsed, status, message = run_job(pk, job)
            tally.add(status, message)
            runs.append((job.config, elapsed, begun + 0.5 * elapsed))
            if status == "ok":
                items += job.items
            since += elapsed
            if since >= CANARY_EVERY_S:
                speed.tick()
                since = 0.0
        decks += 1
    wall = perf_counter() - start
    speed.tick(CANARY_NEAR)

    def latencies(scaled):
        copies = {}
        for config, elapsed, mid in runs:
            factor = speed.scale(mid) if scaled else 1.0
            copies.setdefault(config, []).append(elapsed * factor)
        return [statistics.median(v) for v in copies.values()]

    latency, raw = latencies(True), latencies(False)
    p90 = percentile(latency, 90)
    print("# %s seed %d: %d jobs = %d decks x %d configurations in %.1f s; "
          "p90 over %d configurations, %d above it; items are %s"
          % (workload.name, seed, tally.attempted, decks, len(latency), wall,
             len(latency), sum(t > p90 for t in latency), workload.item))
    print("# host speed: %d canary calls, median %.3f ms (reference %.3f ms); "
          "unscaled p50 %.4g ms, p90 %.4g ms, items/s %.6g, setup %.4g s"
          % (len(speed.took), 1e3 * statistics.median(speed.took),
             1e3 * CANARY_REF_S, 1e3 * percentile(raw, 50),
             1e3 * percentile(raw, 90), items / decks / sum(raw), setup_raw))
    metrics = {
        "job_ms_p50": (1e3 * percentile(latency, 50), "ms"),
        "job_ms_p90": (1e3 * p90, "ms"),
        "items_per_s": (items / decks / sum(latency), "items/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
    }
    return tally, metrics


def per_layer(pk, workload, ctx, seed):
    warm_up(pk, workload, ctx)
    cold_ms = probe(workload.name, cold=True)[1]["cold_ms"]
    rng = random.Random(seed)
    jobs = [job for _ in range(workload.trace_decks) for job in workload.deck(rng, ctx)]
    tracer = Tracer()
    tally = Tally()
    plain_s = traced_s = 0.0
    for i, job in enumerate(jobs):
        # alternate which copy runs first so drift and warm caches cancel
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                elapsed, status, message = run_job(pk, job, tracer, i)
                traced_s += elapsed
            else:
                elapsed, status, message = run_job(pk, job)
                plain_s += elapsed
            tally.add(status, message)

    spans, layer_of = tracer.spans, tracer.layer_of
    layers, job_s = summarize(spans, layer_of)
    zero = {"self_s": 0.0, "calls": 0, "work": 0, "spans": 0}
    L = lambda name: layers.get(name, zero)  # noqa: E731
    ms = lambda name: (1e3 * L(name)["self_s"], "ms")  # noqa: E731
    count = lambda n: (n, "count")  # noqa: E731
    descent = [s for s in spans if layer_of[s[0]] == "sampler.descent"]
    draws = len(descent)
    leaves = L("sampler.descent")["work"]
    zeta_evals = sum(1 for s in spans if layer_of[s[0]] == "dp.scalar"
                     and s[3] >= 0 and layer_of[spans[s[3]][0]] == "analysis.bisect")
    metrics = {
        "cli.calls": count(L("cli")["calls"]),
        "cli.self_ms": ms("cli"),
        "clustering.weights.calls": count(L("clustering.weights")["calls"]),
        "clustering.weights.entries": count(L("clustering.weights")["work"]),
        "clustering.weights.self_ms": ms("clustering.weights"),
        "dp.scalar.calls": count(L("dp.scalar")["calls"]),
        "dp.scalar.self_ms": ms("dp.scalar"),
        "dp.scalar.level_steps": count(L("dp.scalar")["work"]),
        "dp.conv.calls": count(L("dp.conv")["calls"]),
        "dp.conv.self_ms": ms("dp.conv"),
        "dp.conv.ops": count(L("dp.conv")["work"]),
        "dp.maxterm.calls": count(L("dp.maxterm")["calls"]),
        "dp.maxterm.self_ms": ms("dp.maxterm"),
        "analysis.bisect.calls": count(L("analysis.bisect")["calls"]),
        "analysis.bisect.zeta_evals": count(zeta_evals),
        "analysis.bisect.self_ms": ms("analysis.bisect"),
        "analysis.series.calls": count(L("analysis.series")["calls"]),
        "analysis.series.self_ms": ms("analysis.series"),
        "analysis.series.terms": count(L("analysis.series")["work"]),
        "analysis.slope.self_ms": ms("analysis.slope"),
        "sampler.tables.calls": count(L("sampler.tables")["calls"]),
        "sampler.tables.self_ms": ms("sampler.tables"),
        "sampler.streams.self_ms": ms("sampler.streams"),
        "sampler.streams.us_per_draw": (
            1e6 * L("sampler.streams")["self_s"] / draws if draws else 0.0, "us"),
        "sampler.descent.self_ms": ms("sampler.descent"),
        "sampler.draws": count(draws),
        "sampler.leaves": count(leaves),
        "sampler.empty_frac": (
            sum(1 for s in descent if s[5] == 0) / draws if draws else 0.0, "frac"),
        "sampler.descent.us_per_leaf": (
            1e6 * L("sampler.descent")["self_s"] / leaves if leaves else 0.0, "us"),
        "oracle.calls": count(L("oracle")["calls"]),
        "oracle.self_ms": ms("oracle"),
        "oracle.cold_ms": (cold_ms, "ms"),
        "capacity.calls": count(L("capacity")["calls"]),
        "capacity.self_ms": ms("capacity"),
        "other.self_ms": ms(None),
        "trace.job_ms": (1e3 * job_s, "ms"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (workload.name, seed))
    tracer.write(path)
    print("# %s seed %d: %d jobs traced (%d decks), %d spans written to %s" % (
        workload.name, seed, len(jobs), workload.trace_decks, len(spans),
        os.path.relpath(path, ROOT)))
    return tally, metrics


def run_all(args):
    """Every workload, untraced and traced, each in its own process."""
    ok = True
    for name in W.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print("%s trace=%d: exit code %d" % (name, trace, done.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print("%-10s trace=%d correct=%s attempted=%d failed=%d (fail_frac %.4f)"
                  % (name, trace, result["correct"], result["attempted"],
                     result["failed"], result["failed"] / result["attempted"]))
            for metric, m in result["metrics"].items():
                print("%-10s %-30s %14.6g %s" % (name, metric, m["value"], m["unit"]))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe_main(args.workload, args.cold)
    if args.workload == "all":
        return run_all(args)
    pk = import_pwckit()
    workload = W.WORKLOADS[args.workload]
    ctx = W.Context(pk)
    if args.trace:
        tally, metrics = per_layer(pk, workload, ctx, args.seed)
    else:
        tally, metrics = end_to_end(pk, workload, ctx, args.seed, args.seconds)
    for message in tally.wrong[:20]:
        print("# WRONG %s" % (message,))
    for metric, (value, unit) in metrics.items():
        print("# %-30s %14.6g %s" % (metric, value, unit))
    print("# %-30s %14.6g frac (failed / attempted)"
          % ("fail_frac", tally.failed / tally.attempted))
    result = tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
