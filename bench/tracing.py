"""Span tracer for the benchmark's traced run.

Wrappers are installed on pwckit's module attributes and class methods from
here, so the package itself carries no instrumentation. Every wrapped call
records one span ``(name, start, end, parent, job, work)`` in memory:
``parent`` is the index of the enclosing span (-1 for a job root), ``job``
the job number, and ``work`` a count computed at the boundary from the
call's arguments or result (array entries, level steps, multiply-adds,
series terms, leaves). Self time is a span's duration minus the durations
of its direct children, so the self times of all spans of a job add up to
the job span's duration.
"""

from __future__ import annotations

import json
import time

perf_counter = time.perf_counter

JOB = "job"


def _level_steps(spec, n):
    """Scalar recursion level steps: n (first order), n(n+1)/2 (second)."""
    return n * (n + 1) // 2 if spec.variant == "second" else n


def conv_ops(n, m_max):
    """Multiply-adds of the direct log-domain size convolutions of dp_W.

    Level d convolves a table of sizes 1..min(2^(d-1), cap) with itself up
    to size min(2^d, cap); one convolution runs per level in both orders.
    """
    cap = 1 << n if m_max is None else min(int(m_max), 1 << n)
    ops = 0
    for d in range(1, n + 1):
        top = min(1 << (d - 1), cap)
        for m in range(2, min(1 << d, cap) + 1):
            ops += max(0, min(top, m - 1) - max(1, m - top) + 1)
    return ops


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# (owner, attribute, layer, work(args, kwargs, result) or None).
# Owners are module names or "module.Class"; methods receive self as args[0].
TARGETS = (
    ("cli", "main", "cli", None),
    ("clustering.HSequence", "array", "clustering.weights",
     lambda a, k, r: r.size),
    ("clustering.HArray", "array", "clustering.weights",
     lambda a, k, r: (r.shape[0] - 1) * r.shape[0] // 2),
    ("dp", "dp_Z_first", "dp.scalar", lambda a, k, r: _level_steps(a[0], a[1])),
    ("dp", "dp_Z_second", "dp.scalar", lambda a, k, r: _level_steps(a[0], a[1])),
    ("dp", "dp_density", "dp.scalar", lambda a, k, r: _level_steps(a[0], a[1])),
    ("dp", "dp_W_first", "dp.conv",
     lambda a, k, r: conv_ops(a[1], _arg(a, k, 2, "m_max"))),
    ("dp", "dp_W_second", "dp.conv",
     lambda a, k, r: conv_ops(a[1], _arg(a, k, 2, "m_max"))),
    ("dp", "dp_W_maxterm", "dp.maxterm", None),
    ("analysis", "bisect_upper", "analysis.bisect", None),
    ("analysis", "kappa1", "analysis.series", lambda a, k, r: r.terms_used),
    ("analysis", "kappa2", "analysis.series", lambda a, k, r: sum(r.grid)),
    ("analysis", "tauberian_first", "analysis.series",
     lambda a, k, r: len(r.u)),
    # tail_bound returns a bare float, so its terms are counted as weight
    # evaluations while it runs (see Tracer._call_counting_evals).
    ("analysis", "tail_bound", "analysis.series", "evals"),
    ("analysis", "slope_estimate", "analysis.slope", None),
    ("sampler.Sampler", "__init__", "sampler.tables", None),
    ("sampler.Sampler", "sample_many", "sampler.streams", None),
    ("sampler.Sampler", "sample", "sampler.descent", lambda a, k, r: len(r)),
    ("oracle", "phi_vector", "oracle", None),
    ("oracle", "enum_phi", "oracle", None),
    ("oracle", "enum_Z", "oracle", None),
    ("oracle", "enum_zeta", "oracle", None),
    ("oracle", "enum_W", "oracle", None),
    ("oracle", "enum_maxterm", "oracle", None),
    ("oracle", "enum_density", "oracle", None),
    ("capacity", "cap_reduce", "capacity", None),
    ("capacity", "cap_quadratic", "capacity", None),
    ("capacity", "cap_table", "capacity", None),
)

def _resolve(package, owner):
    module_name, _, class_name = owner.partition(".")
    obj = getattr(package, module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """In-memory span recorder; ``install`` patches pwckit, ``remove`` undoes it."""

    def __init__(self):
        self.spans = []
        self.layer_of = {JOB: None}
        self._stack = []
        self._job = -1
        self._saved = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, work, args, kwargs):
        """Run ``fn`` as a span; ``work(args, kwargs, result)`` is its count."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            parent = self._stack[-1] if self._stack else -1
            self.spans[idx] = (name, start, end, parent, self._job, 0)
        if work is not None:
            self.spans[idx] = self.spans[idx][:5] + (work(args, kwargs, result),)
        return result

    def job(self, job_id, fn, *args):
        """Run ``fn(*args)`` as the root span of job ``job_id``."""
        self._job = job_id
        return self.call(JOB, fn, None, args, {})

    def _call_counting_evals(self, name, fn, args, kwargs):
        """``call`` with weight evaluations (``h(k)``, ``h(k, l)``) as work."""
        count = [0]
        saved = [(cls, cls.__call__) for cls in self._weight_classes]

        def counting(orig):
            def call(obj, *a):
                count[0] += 1
                return orig(obj, *a)
            return call

        for cls, orig in saved:
            cls.__call__ = counting(orig)
        try:
            return self.call(name, fn, lambda a, k, r: count[0], args, kwargs)
        finally:
            for cls, orig in saved:
                cls.__call__ = orig

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every target of TARGETS on the imported ``package``."""
        self._weight_classes = (package.clustering.HSequence,
                                package.clustering.HArray)
        for owner, attr, layer, work in TARGETS:
            obj = _resolve(package, owner)
            orig = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            name = "%s.%s" % (owner, attr)
            self.layer_of[name] = layer
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, self._wrapper(name, orig, work))

    def _wrapper(self, name, fn, work):
        tracer = self
        if work == "evals":
            def traced(*args, **kwargs):
                return tracer._call_counting_evals(name, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer.call(name, fn, work, args, kwargs)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def remove(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans, layer_of):
    """Per-layer totals from spans.

    Returns ``(layers, job_s)``: ``layers[layer]`` holds ``self_s`` (self
    time), ``calls`` (spans entered from outside the layer), ``work`` (sum
    of span work counts) and ``spans``; layer None is the job roots, whose
    self time is job time covered by no span. ``job_s`` is the total
    duration of the job roots, which equals the sum of all self times.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, job, work in spans:
        if parent >= 0:
            child[parent] += end - start
    layers = {}
    job_s = 0.0
    for i, (name, start, end, parent, job, work) in enumerate(spans):
        layer = layer_of[name]
        acc = layers.setdefault(
            layer, {"self_s": 0.0, "calls": 0, "work": 0, "spans": 0})
        acc["self_s"] += (end - start) - child[i]
        acc["work"] += work
        acc["spans"] += 1
        if parent < 0 or layer_of[spans[parent][0]] != layer:
            acc["calls"] += 1
        if parent < 0:
            job_s += end - start
    return layers, job_s
