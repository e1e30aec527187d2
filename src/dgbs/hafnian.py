"""Exact matching polynomials and loop hafnians of pattern-reduced kernels.

The workhorse is a subset dynamic program that enumerates all matchings
(optionally with fixed points weighted by the diagonal vector) in a fixed
order.  A DP row is a subset of a kernel's row positions, which are distinct
even when a collision pattern repeats a mode, so every kernel of size n runs
the same plan, built once per n.  :func:`_polynomials` takes one matrix, its
loop weights and P index rows of one length n (the evaluator of pattern
tables, ``probability.StateKernel``, builds them from photon counts), gathers
the P kernels and runs the plan on chunks of them, with the kernels as a
trailing vector axis.

The plan adds each pair term in one of two ways.  Summed, a row holds one
column, the loop hafnian of its subset (Bjorklund, Gupt and Quesada, ACM JEA
2019): this is all that the full, classical and squeezer-only models need.
Resolved, a row keeps its terms apart by the number of matched pairs, which
makes the truncated "k-order" sums a byproduct of the exact computation.  A
subset of s positions holds at most s // 2 pairs, so the rows of level s
carry only the pair counts 0..s // 2: a band of columns that widens by one
every second level.  Column p of a row reads only columns p and p - 1 of its
children, so the pair counts 0..k that a k-order model needs cap the band at
k + 1 columns and keep their bits.  :func:`matching_polynomial` is the
resolved evaluator on one kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, EnumerationBudgetError

SYMMETRY_TOL = 1e-10
MAX_KERNEL_SIZE = 20  # 2N; a DP row is an int64 mask of the 2N positions
# the rows of one chunk's DP, each holding its columns for every pattern of
# the chunk, and the chunk's gathered loop weights and kernels
DP_CHUNK_BYTES = 1 << 20


_PLANS = {}   # kernel size n -> its plan, built on first use


def _plan(n: int) -> tuple:
    """The DP that every kernel of size n runs: a row is a subset of the n
    row positions, as an int64 mask.  Returns the number of rows and, per
    subset size s = 1..n, (i, rest, js, pairs): each row's lowest position
    i, the row of rest = subset - {i} one level down, and for each j of
    rest in increasing order (axis 0) j and the row of rest - {j} two
    levels down."""
    if n in _PLANS:
        return _PLANS[n]

    def low(bits):                        # frexp(2^b) has exponent b + 1
        return (np.frexp(bits)[1] - 1).astype(np.int32)

    # top down: the subsets of each size that the recursion reaches
    levels, children = {0: np.zeros(1, np.int64)}, {}
    reached = {n: [np.array([(1 << n) - 1])]}
    for s in range(n, 0, -1):
        level = levels[s] = np.unique(np.concatenate(reached.pop(s)))
        rest = todo = level ^ (level & -level)
        pairs = np.empty((s - 1, len(level)), dtype=np.int64)
        for k in range(s - 1):
            pairs[k] = rest ^ (todo & -todo)
            todo = todo & (todo - 1)
        children[s] = rest, pairs
        reached.setdefault(s - 1, []).append(rest)
        reached.setdefault(s - 2, []).append(pairs.ravel())
    _PLANS[n] = plan = sum(map(len, levels.values())), [
        (low(levels[s] ^ rest),
         np.searchsorted(levels[s - 1], rest).astype(np.int32),
         low(rest ^ pairs),
         np.searchsorted(levels[max(s - 2, 0)], pairs).astype(np.int32))
        for s, (rest, pairs) in sorted(children.items())]
    return plan


def _evaluate(steps: list, m: np.ndarray, diag: np.ndarray,
              columns: int, summed: bool = False) -> np.ndarray:
    """Run a plan on kernels m (n, n, P) with loop weights diag (n, P),
    giving pair counts 0..columns - 1 as (P, columns), for columns at most
    n // 2 + 1.  The rows of level s carry the pair counts
    0..min(columns, s // 2 + 1) - 1 (a subset of s positions holds at most
    s // 2 pairs), so the top level carries all ``columns``.  If ``summed``
    (with ``columns`` 1), a pair term goes into the row's one column
    instead of the next, and each row holds the loop hafnian of its subset.
    Every entry is summed in the order of the one-kernel recursion, and only
    terms that are zero for every kernel are left out.  The products are
    np.multiply calls: numpy may run ``x * y`` of two large temporaries in
    place as ``y * x``, which for complex values can differ in the last
    bit.  So an entry's bits depend neither on the batch it is part of, at
    any chunk size, nor on ``columns``.  (A recursion that also adds those
    zeros can differ only in the sign of an entry that is itself an exact
    zero.)"""
    shift = 0 if summed else 1    # the column offset of a pair term
    prev = np.ones((1, 1, diag.shape[1]), dtype=complex)
    prev2 = None
    for s, (i, rest, js, pairs) in enumerate(steps, 1):
        # subset = {i} + rest with i its lowest position: i is a fixed
        # point, or i is paired with each j in rest in increasing order
        width = min(columns, s // 2 + 1)
        if width > prev.shape[1]:
            # s even: no fixed point is left beside s // 2 pairs, so that
            # column starts from -0, which adds nothing
            row = np.empty((len(i), width, prev.shape[2]), dtype=complex)
            np.multiply(diag[i][:, None], prev[rest], out=row[:, :-1])
            row[:, -1] = complex(-0.0, -0.0)
        else:
            row = np.multiply(diag[i][:, None], prev[rest])
        if width > shift:   # else no column takes a pair term (korder(0))
            for j, pair in zip(js, pairs):
                row[:, shift:] += np.multiply(m[i, j][:, None],
                                              prev2[pair, :width - shift])
        prev2, prev = prev, row
    return prev[0].T


def _polynomials(m: np.ndarray, diag: np.ndarray, idx: np.ndarray,
                 columns: int = None, summed: bool = False) -> np.ndarray:
    """(P, columns) matching polynomials of the kernels m[idx_p][:, idx_p]
    with loop weights diag[idx_p], for the P rows idx_p of ``idx`` (indices
    into m): pair counts 0..columns - 1, all N + 1 if ``columns`` is None,
    or if ``summed`` their sum, the loop hafnian, as one column.  The
    patterns run the plan of their kernel size together, in chunks whose DP
    rows, loop weights and kernels fit DP_CHUNK_BYTES."""
    count, n = idx.shape
    if n > MAX_KERNEL_SIZE:
        raise EnumerationBudgetError(
            f"kernel size {n} exceeds matching-enumeration budget {MAX_KERNEL_SIZE}")
    if summed:
        columns = 1
    else:
        columns = n // 2 + 1 if columns is None else min(columns, n // 2 + 1)
    rows, steps = _plan(n)
    # a pattern takes its DP rows, its n loop weights and its n x n kernel
    per_chunk = max(1, DP_CHUNK_BYTES // (16 * (columns * rows + n + n * n)))
    out = np.empty((count, columns), dtype=complex)
    for start in range(0, count, per_chunk):
        chunk = idx[start:start + per_chunk].T          # (n, P)
        out[start:start + per_chunk] = _evaluate(
            steps, m[chunk[:, None], chunk[None]], diag[chunk], columns,
            summed)
    return out


def matching_polynomial(m: np.ndarray, diag: np.ndarray = None) -> np.ndarray:
    """Matching sums of a 2N x 2N symmetric matrix, resolved by pair count.

    Entry p of the returned length-(N+1) array sums, over all matchings of
    the 2N indices with exactly p matched pairs (the remaining 2N - 2p
    indices being fixed points), the product of the matched entries m[i, j]
    times the fixed-point weights diag[c]: entry N is the hafnian of m, and
    the sum of the entries its loop hafnian.  Summation order is fixed by
    the subset recursion; this is the evaluator of pattern tables, run on
    the one pattern that covers each index of m once.
    """
    m = np.asarray(m, dtype=complex)
    diag = np.zeros(len(m)) if diag is None else np.asarray(diag)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("matrix must be square")
    if len(m) % 2:
        raise ConfigurationError("Hafnian requires even dimension")
    if diag.shape != (len(m),):
        raise ConfigurationError("diagonal weights must match the kernels")
    if m.size and np.abs(m - m.T).max() > SYMMETRY_TOL * max(
            1.0, np.abs(m).max()):
        raise ConfigurationError("matrix is not symmetric")
    return _polynomials(m, diag.astype(complex), np.arange(len(m))[None])[0]
