"""Exact sampling of the dry-set law by top-down decomposition.

The same subtree recursion that computes Z also factorizes the measure: a
nonempty configuration inside a depth-d subtree restricts to the left child
only, the right child only, or both children with relative weights
F_{d-1}(a), F_{d-1}(a), e^{-h[a][d]} F_{d-1}(d)^2, where a is the age of the
governing branching ancestor (a single row in first order; see ``dp``).
After a split both children answer to the new branching point. Descending the
tree and resolving each three-way choice therefore draws A from the exact
finite-volume law, no Markov chain involved.

Choices are made by Gumbel-max over log weights, so extreme J values only
shift the logs instead of underflowing probabilities. Each sample gets its
own child stream spawned from the seed just before it is drawn, which makes
results reproducible independent of batching. The iterative descent reads
that stream in blocks, three variates per node in a fixed depth-first,
left-to-right order, and emits the leaves in increasing order.

The level tables come from ``dp._levels`` at one J, where it reads full
rows: it shares rows that equal the root's only on wider J grids, and a
node may answer to any ancestor age. In second order it keeps at level
d - 1 the ancestor ages a = d .. n+1; a node at level d answers to an age
a > d. The lists of level d are padded at the front with d unused
entries, so the descent indexes them by the ancestor age itself.
"""

from __future__ import annotations

import numpy as np

from . import dp
from .clustering import SpecConfigError, _integer, _real
from .tree import LeafSet


class Sampler:
    """Prepared tables for repeated draws at fixed spec, depth, and J.

    ``j`` is one J: an array, even of one entry, is refused naming ``j``,
    as ``dp_Z`` refuses it."""

    def __init__(self, spec, n, j):
        self.spec = spec
        self.depth = n = dp._depth(n)
        self.j = j
        H, const = dp._weights(spec, n)
        one = dp._check_j(_real(j, "j", finite=False), n)  # one J, as dp_Z reads it
        levels = [f[:, 0] for f, _ in dp._levels(H, one, n)]
        last = len(H) - 1
        # per level d >= 1 and ancestor row, as plain lists for the descent:
        # the log weight of keeping one child and of splitting; after a split
        # both children answer to row min(d, last). Level d - 1 holds rows
        # min(d, last) .. last only, padded at the front to index by age.
        self._keep = [None]
        self._split = [None]
        for d in range(1, n + 1):
            prev = levels[d - 1]
            lo = min(d, last)
            pad = [None] * lo
            self._keep.append(pad + prev.tolist())
            self._split.append(pad + (-H[lo:, d] + 2.0 * prev[0]).tolist())
        self._last = last
        self._ln_occupied = -const + levels[n][-1]
        self.ln_z = float(np.logaddexp(0.0, self._ln_occupied))

    def sample(self, rng):
        """One exact draw; past the empty check ``rng`` is read in blocks."""
        g = rng.gumbel(size=2)
        if g[0] + 0.0 > g[1] + self._ln_occupied:
            return LeafSet(self.depth, ())
        keep, split, last = self._keep, self._split, self._last
        leaves, stack = [], [(self.depth, last, 0)]
        push, pop, gumbel = stack.append, stack.pop, rng.gumbel
        buf, i, end, chunk = [], 0, 0, 48  # chunks stay multiples of the 3 per node
        while stack:
            d, a, base = pop()
            while d:
                if i == end:
                    buf, i, end, chunk = gumbel(size=chunk).tolist(), 0, chunk, 2 * chunk
                k = keep[d][a]
                x0, x1, x2 = buf[i] + k, buf[i + 1] + k, buf[i + 2] + split[d][a]
                i += 3
                d -= 1
                if x1 > x0 or x2 > x0:  # argmax, first index on ties
                    if x1 >= x2:
                        base += 1 << d
                    else:
                        a = d + 1 if d < last else last
                        push((d, a, base + (1 << d)))
            leaves.append(base)
        return LeafSet(self.depth, tuple(leaves))

    def sample_many(self, num_samples, seed):
        """Independent draws on per-sample child streams of ``seed``, each
        spawned just before its draw (the same children as spawning all
        ``num_samples`` at once), past the output guard of ``_check_size``.
        ``seed`` (from 0) is read first, then ``num_samples`` (from 1) naming ``num``."""
        seed, num_samples = _integer(seed, "seed"), _integer(num_samples, "num", 1)
        _check_size(self, num_samples)
        root = np.random.SeedSequence(seed)
        return [self.sample(np.random.default_rng(root.spawn(1)[0]))
                for _ in range(num_samples)]


#: cap on the entries a batch of draws writes, one per leaf and one per draw
SAMPLE_MAX_ENTRIES = 1 << 22


def _check_size(sampler, num_samples):
    """Refuse draws expected to write more than ``SAMPLE_MAX_ENTRIES``
    entries, num (1 + 2^n rho_n(J)) on average, naming ``depth`` when one
    draw alone is past the cap and ``num`` otherwise. rho_n is only
    computed when num (1 + 2^n) is past the cap."""
    n = sampler.depth
    if num_samples * ((1 << n) + 1) <= SAMPLE_MAX_ENTRIES:
        return
    per_draw = 1.0 + (1 << n) * dp.dp_density(sampler.spec, n, sampler.j)
    if per_draw > SAMPLE_MAX_ENTRIES:
        raise SpecConfigError(
            "depth", "one draw at depth %d writes about %.4g entries, past the "
            "cap of %d" % (n, per_draw, SAMPLE_MAX_ENTRIES))
    if num_samples * per_draw > SAMPLE_MAX_ENTRIES:
        raise SpecConfigError(
            "num", "%d draws at depth %d write about %.4g entries, past the cap "
            "of %d; request at most %d" % (num_samples, n, num_samples * per_draw,
                                          SAMPLE_MAX_ENTRIES,
                                          SAMPLE_MAX_ENTRIES // per_draw))


def sample(spec, n, j, seed, num_samples=1):
    """Convenience wrapper: build a Sampler and draw."""
    return Sampler(spec, n, j).sample_many(num_samples, seed)
