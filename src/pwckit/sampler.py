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
own child stream spawned from the seed, which makes results reproducible
independent of batching. The iterative descent reads that stream in blocks,
three variates per node in a fixed depth-first, left-to-right order.

The level tables come from ``dp._levels``, which in second order keeps at
level d - 1 only the ancestor ages a = d .. n+1; a node at level d answers
to an age a > d. The lists of level d are padded at the front with d unused
entries, so the descent indexes them by the ancestor age itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .clustering import SpecConfigError
from .tree import LeafSet


class Sampler:
    """Prepared tables for repeated draws at fixed spec, depth, and J."""

    def __init__(self, spec, n, j):
        self.spec = spec
        self.depth = n
        self.j = j
        H, const = dp._weights(spec, n)
        levels = [f[:, 0] for f, _ in dp._levels(H, j, n)]
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
        buf, i, chunk = [], 0, 48  # chunks stay multiples of the 3 per node
        while stack:
            d, a, base = stack.pop()
            while d > 0:
                if i == len(buf):
                    buf, i, chunk = rng.gumbel(size=chunk).tolist(), 0, 2 * chunk
                k = keep[d][a]
                x0, x1, x2 = buf[i] + k, buf[i + 1] + k, buf[i + 2] + split[d][a]
                i, d = i + 3, d - 1
                if x1 > x0 or x2 > x0:  # argmax, first index on ties
                    if x1 >= x2:
                        base += 1 << d
                    else:
                        a = min(d + 1, last)
                        stack.append((d, a, base + (1 << d)))
            leaves.append(base)
        return LeafSet(self.depth, tuple(leaves))

    def sample_many(self, num_samples, seed):
        """Independent draws on per-sample child streams of ``seed``."""
        if num_samples < 1:
            raise SpecConfigError(
                "num", "need at least one draw, got %d" % (num_samples,)
            )
        streams = np.random.SeedSequence(seed).spawn(num_samples)
        return [self.sample(np.random.default_rng(s)) for s in streams]


def sample(spec, n, j, seed, num_samples=1):
    """Convenience wrapper: build a Sampler and draw."""
    sampler = Sampler(spec, n, j)
    return sampler.sample_many(num_samples, seed)


@dataclass(frozen=True)
class DensityEstimate:
    mean: float
    stderr: float
    num_samples: int

    def interval(self, z=3.0):
        return (self.mean - z * self.stderr, self.mean + z * self.stderr)


def empirical_density(spec, n, j, num_samples, seed):
    """Monte Carlo mean of |A| / 2^n with a normal-approximation error."""
    sampler = Sampler(spec, n, j)
    sizes = np.array(
        [len(s) for s in sampler.sample_many(num_samples, seed)], dtype=float
    )
    fractions = sizes / (1 << n)
    mean = float(fractions.mean())
    stderr = float(fractions.std(ddof=1) / math.sqrt(num_samples))
    return DensityEstimate(mean, stderr, num_samples)
