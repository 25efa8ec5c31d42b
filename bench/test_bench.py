"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import random

import pytest

import run as R
import tracing as T
import workloads as W

pk = R.import_pwckit()


@pytest.fixture(scope="module")
def ctx():
    return W.Context(pk)


def test_self_times_add_up_to_job_time():
    layer_of = {T.JOB: None, "cli.main": "cli", "dp.a": "dp", "dp.b": "dp",
                "w": "clustering.weights"}
    spans = [
        ("job", 0.0, 10.0, -1, 0, 0),
        ("cli.main", 1.0, 9.0, 0, 0, 0),
        ("dp.a", 2.0, 6.0, 1, 0, 3),
        ("dp.b", 2.5, 5.0, 2, 0, 4),   # nested in the same layer
        ("w", 3.0, 4.0, 3, 0, 7),
    ]
    layers, job_s = T.summarize(spans, layer_of)
    assert job_s == 10.0
    assert layers[None]["self_s"] == 2.0
    assert layers["cli"]["self_s"] == 4.0
    assert layers["dp"]["self_s"] == 3.0
    assert layers["dp"]["calls"] == 1 and layers["dp"]["work"] == 7
    assert layers["clustering.weights"]["self_s"] == 1.0
    assert sum(v["self_s"] for v in layers.values()) == job_s


def test_install_and_remove_restore_every_target():
    tracer = T.Tracer()
    before = [T._resolve(pk, owner).__dict__[attr] for owner, attr, _, _ in T.TARGETS]
    tracer.install(pk)
    assert pk.dp.dp_Z_first is not before[3]
    tracer.remove()
    after = [T._resolve(pk, owner).__dict__[attr] for owner, attr, _, _ in T.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_traced_run_accounts_for_all_time(ctx):
    jobs = W._warmup_threshold(ctx) + W._warmup_sample(ctx) + [
        W.canonical_job(ctx, "first:linear:3ln2", 8, "max"),
        W.canonical_job(ctx, "dgff", 6, "sum", (0.1,)),
    ]
    tracer = T.Tracer()
    statuses = [R.run_job(pk, job, tracer, i)[1] for i, job in enumerate(jobs)]
    assert not hasattr(pk.dp.dp_Z_first, "__wrapped__")  # removed after each job
    assert statuses == ["ok"] * len(jobs)
    layers, job_s = T.summarize(tracer.spans, tracer.layer_of)
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(job_s, rel=1e-9)
    assert layers["cli"]["calls"] == len(jobs)
    assert layers["analysis.bisect"]["calls"] == 1
    assert layers["analysis.series"]["work"] > 0
    assert layers["sampler.descent"]["spans"] == 10
    # the threshold job's slope estimate builds a truncated table too
    a0 = pk.analysis.slope_a0(pk.parse_preset("first:linear:2"), 8)
    assert layers["dp.conv"]["work"] == T.conv_ops(6, None) + T.conv_ops(8, a0)
    assert layers["dp.maxterm"]["calls"] == 1
    # every scalar call of the threshold job is first order at depth 8
    scalar = [s for s in tracer.spans if tracer.layer_of[s[0]] == "dp.scalar"]
    assert all(s[5] == 8 for s in scalar)


def test_conv_ops_counts_the_convolution_terms():
    counted = [0]
    orig = pk.dp._log_self_convolve

    def counting(y, out_len):
        top = len(y) - 1
        for m in range(2, out_len + 1):
            counted[0] += max(0, min(top, m - 1) - max(1, m - top) + 1)
        return orig(y, out_len)

    pk.dp._log_self_convolve = counting
    try:
        for n, m_max in ((5, None), (7, 40), (6, 3)):
            counted[0] = 0
            pk.dp.dp_W(pk.first_linear(1.0), n, m_max=m_max)
            assert counted[0] == T.conv_ops(n, m_max)
    finally:
        pk.dp._log_self_convolve = orig


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_decks_follow_the_seed(ctx, name):
    deck = W.WORKLOADS[name].deck

    def argvs(seed):
        rng = random.Random(seed)
        return [[j.argv for j in deck(rng, ctx)] for _ in range(2)]

    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)
    configs = lambda seed: sorted(j.config for j in deck(random.Random(seed), ctx))  # noqa: E731
    assert configs(3) == configs(4) == list(range(len(configs(3))))


def _output(job):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = pk.cli.main(list(job.argv))
    return out.getvalue(), rc


def test_checks_pass_good_and_reject_wrong_output(ctx):
    jobs = W._warmup_sweep(ctx) + W._warmup_tables(ctx) + W._warmup_threshold(ctx)
    for job in jobs:
        text, rc = _output(job)
        assert job.check(text, rc) is None, job.argv
        assert job.check(text, 1) is not None
        lines = text.splitlines()
        if job.kind == "verify":
            lines[-2] = "FAIL " + lines[-2][5:]
        else:
            # change the leading digit of the last value in the first data row
            row = 2 if job.kind == "canonical" else 1  # ln W(0) is 0
            head, _, value = lines[row].rpartition(",")
            d = next(k for k, c in enumerate(value) if c in "123456789")
            value = value[:d] + str(int(value[d]) % 9 + 1) + value[d + 1:]
            lines[row] = head + "," + value
        assert job.check("\n".join(lines) + "\n", rc) is not None, job.argv


def test_sample_check_rejects_bad_leaves(ctx):
    job = W._warmup_sample(ctx)[0]
    text, rc = _output(job)
    lines = text.splitlines()
    assert job.check("\n".join(["256"] + lines[1:]) + "\n", rc) is not None
    assert job.check("\n".join(["3 3"] + lines[1:]) + "\n", rc) is not None


def test_zero_threshold_never_counts_as_correct_output_when_it_raises(ctx):
    job = next(j for j in W.threshold_deck(random.Random(0), ctx)
               if "zero" in j.argv)
    status = R.run_job(pk, job)[1]
    assert status in ("defect", "ok")
