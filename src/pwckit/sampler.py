"""Exact sampling of the dry-set law by top-down decomposition.

The same subtree recursion that computes Z also factorizes the measure: a
nonempty configuration inside a depth-d subtree restricts to the left child
only, the right child only, or both children with relative weights
F_{d-1}(a), F_{d-1}(a), e^{-h[a][d]} F_{d-1}(d)^2, where a is the age of the
governing branching ancestor (a single row in first order; see ``dp``).
After a split both children answer to the new branching point. Descending the
tree and resolving each three-way choice therefore draws A from the exact
finite-volume law, no Markov chain involved.

Every node's choice reads one uniform from the node's own 64-bit key, so a
draw does not depend on the order in which its nodes are visited:

- a draw's key comes from (seed, draw index): ``np.random.SeedSequence``
  makes a 64-bit state of the seed, and draw i takes the finaliser of that
  state plus (i + 1) times the golden gamma, splitmix64's i-th output;
- the draw's key decides the empty check: the virtual top ancestor (age
  n + 1) is occupied with probability 1 - 1/Z, and the root is its child 0;
- child b (0 left, 1 right) of a node keyed k is keyed by the finaliser of
  k + (b + 1) gamma mod 2^64;
- a key's uniform is its top 53 bits over 2^53; a node keeps its left child
  if u < P(left), its right child if u < P(left or right), and splits
  otherwise.

The draws of a batch therefore descend together, one numpy step per level
over every live node. The nodes are the columns of one int64 block, with a
row each for a node's key, its ancestor age, its draw and its label words.
Splits widen the block with ``np.repeat``, so the columns stay ordered by
(draw, label) and each draw's leaves come out sorted. Labels are built from
the choice bits in 63-bit words and joined into Python ints once per leaf,
so depths up to 1022 take the same descent. A block wider than ``_WIDTH``
is cut and its tail put on a stack, and draws are keyed ``_WIDTH`` at a
time, so live arrays stay small at any batch size. Wider blocks run a
little faster but fragment the heap more: the peak memory of a process
that samples over and over grows with the block width. Draws are
independent of batching: the first k draws do not depend on how many were
requested.

The tables come from ``dp._levels`` at one J, where it reads full rows: it
shares rows that equal the root's only on wider J grids, and a node may
answer to any ancestor age. In second order level d - 1 keeps the ancestor
ages a = d .. n+1, and a node at level d answers to an age a > d. The
tables hold, per level d and ancestor age a, 2^53 P(left) and
2^53 P(left or right), so that a key's top 53 bits compare against them
exactly; entries a < d are unused.
"""

from __future__ import annotations

import numpy as np

from . import dp
from .clustering import SpecConfigError, _instance, _integer, _real
from .tree import LeafSet

#: splitmix64's golden gamma, and what child 0 and child 1 add to their
#: parent's key before the finaliser: gamma and 2 gamma mod 2^64
_GAMMA = 0x9E3779B97F4A7C15
_GAMMAS = np.uint64([_GAMMA, 2 * _GAMMA % (1 << 64)])
_G = _GAMMAS[0]
#: splitmix64's finaliser constants and shifts, and the shift to 53 bits
_M1, _M2 = np.uint64([0xBF58476D1CE4E5B9, 0x94D049BB133111EB])
_S11, _S27, _S30, _S31 = np.uint64([11, 27, 30, 31])

#: bits of a label word: a choice per bit, and int64 holds 63 of them
_WORD = 63

#: nodes a block of the descent steps at once; a wider block is cut
_WIDTH = 1 << 10


def _mix(z, t):
    """Apply the splitmix64 finaliser to the uint64 array ``z`` in place, with
    ``t`` as scratch of the same length, and return ``z``."""
    for shift, mul in ((_S30, _M1), (_S27, _M2), (_S31, None)):
        z ^= np.right_shift(z, shift, out=t)
        if mul is not None:
            z *= mul
    return z


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
        # log weights per level d >= 1 and ancestor age: keep one child, the
        # previous level's row; split, after which both children answer to
        # age min(d, last). Level d - 1 holds ages min(d, last) .. last.
        keep, split = np.zeros((2, n + 1, last + 1))
        for d in range(1, n + 1):
            prev, lo = levels[d - 1], min(d, last)
            keep[d, lo:] = prev
            split[d, lo:] = -H[lo:, d] + 2.0 * prev[0]
        self._set_tables(keep, split, -const + levels[n][-1])

    def _set_tables(self, keep, split, ln_occupied):
        """The choice tables from the log weights of keeping one child and of
        splitting, per (level, ancestor age), and ln(Z - 1)."""
        self._last = keep.shape[1] - 1
        self.ln_z = float(np.logaddexp(0.0, ln_occupied))
        scale = np.ldexp(1.0, 53)
        self._left = scale * np.exp(keep - np.logaddexp(keep + dp.LN2, split))
        self._either = 2.0 * self._left  # left and right weigh the same
        self._nonempty = scale * float(np.exp(ln_occupied - self.ln_z))

    def sample(self, rng, _leaves=None):
        """One exact draw: a batch of one on a 64-bit key read from ``rng``, a
        ``np.random.Generator`` (anything else is refused naming ``rng``).
        ``sample_many`` hands each draw of a batch, already descended, in as
        ``_leaves``, so that every draw leaves through this method once and
        ``rng`` is not read."""
        if _leaves is None:
            rng = _instance(rng, (np.random.Generator,), "rng")
            _leaves = self._draw(rng.integers(1 << 64, dtype=np.uint64, size=1))[0]
        return LeafSet._unchecked(self.depth, _leaves)

    def sample_many(self, num_samples, seed):
        """Independent draws ``0 .. num_samples - 1`` of ``seed``, past the
        output guard of ``_check_size``. ``seed`` (from 0) is read first, then
        ``num_samples`` (from 1) naming ``num``. Draw i is keyed by
        splitmix64's i-th output from the state ``np.random.SeedSequence``
        makes of the seed, so that any nonnegative int seeds it."""
        seed, num_samples = _integer(seed, "seed"), _integer(num_samples, "num", 1)
        _check_size(self, num_samples)
        state = np.random.SeedSequence(seed).generate_state(1, np.uint64)
        draws = []
        for start in range(0, num_samples, _WIDTH):
            keys = np.arange(start + 1, min(start + _WIDTH, num_samples) + 1,
                             dtype=np.uint64) * _G + state
            draws += [self.sample(None, leaves)
                      for leaves in self._draw(_mix(keys, np.empty_like(keys)))]
        return draws

    def _draw(self, keys):
        """The leaves of the draws keyed by ``keys``, a sorted tuple each."""
        n, last, left, either = self.depth, self._last, self._left, self._either
        found = [()] * len(keys)
        live = np.flatnonzero((keys >> _S11) < self._nonempty)
        # one row per field, one column per live node: its key, its ancestor
        # age, its draw, and its label so far in 63-bit words
        block = np.zeros((3 + max(1, -(-n // _WORD)), len(live)), dtype=np.int64)
        root = np.add(keys[live], _G, out=block[0].view(np.uint64))  # child 0 of the top
        _mix(root, np.empty_like(root))
        block[1], block[2] = last, live
        stack = [(n, block)] if len(live) else []
        current, run = None, []  # the draw whose leaves the last block ended in
        # scratch of a block step: uniforms, added gammas, the finaliser's
        # shifts, repeat counts and then child bits, probabilities read by
        # age, and the two choices
        u, gamma, shifted = np.empty((3, 2 * _WIDTH), dtype=np.uint64)
        bit = np.empty(2 * _WIDTH, dtype=np.int64)
        p = np.empty(2 * _WIDTH)
        cut = np.empty((2, 2 * _WIDTH), dtype=bool)
        while stack:
            d, block = stack.pop()
            while True:
                if block.shape[1] > _WIDTH:
                    stack.append((d, block[:, _WIDTH:]))
                    block = block[:, :_WIDTH]
                if not d:
                    break
                r, row = block.shape[1], 3 + (n - d) // _WORD  # the word of this choice
                key, age, word = block[0].view(np.uint64), block[1], block[row]
                top = np.right_shift(key, _S11, out=u[:r])
                right = np.greater_equal(top, left[d].take(age, out=p[:r], mode="clip"),
                                         out=cut[0, :r])  # right, or both
                both = np.greater_equal(top, either[d].take(age, out=p[:r], mode="clip"),
                                        out=cut[1, :r])
                word <<= 1
                word |= right
                first = np.flatnonzero(both)
                if len(first):  # both children answer to age min(d, last)
                    np.copyto(age, min(d, last), where=both)
                    block = block.repeat(np.add(both, 1, out=bit[:r]), axis=1)
                    first += np.arange(len(first))
                    block[row, first] ^= 1  # the left child
                    r = block.shape[1]
                    key, word = block[0].view(np.uint64), block[row]
                key += _GAMMAS.take(np.bitwise_and(word, 1, out=bit[:r]), out=gamma[:r],
                                    mode="clip")
                _mix(key, shifted[:r])
                d -= 1
            draw, words = block[2], block[3:]
            labels = words[0].tolist()
            for i in range(1, len(words)):  # word i holds choices 63 i .. 63 i + 62
                bits = min(_WORD, n - _WORD * i)
                labels = [x << bits | y for x, y in zip(labels, words[i].tolist())]
            # columns run by draw; a draw's leaves may go on in the next block
            starts = np.flatnonzero(np.not_equal(draw[1:], draw[:-1],
                                                 out=cut[0, :len(draw) - 1]))
            starts += 1
            ends = starts.tolist() + [len(draw)]
            for i, a, b in zip(draw[[0] + ends[:-1]].tolist(), [0] + ends[:-1], ends):
                if i != current:
                    if run:
                        found[current] = tuple(run)
                    current, run = i, []
                run += labels[a:b]
        if run:
            found[current] = tuple(run)
        return found


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
