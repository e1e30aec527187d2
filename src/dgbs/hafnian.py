"""Exact Hafnian / loop-Hafnian kernels and pattern-indexed reduction.

The workhorse is a subset dynamic program that enumerates all matchings
(optionally with fixed points weighted by the diagonal vector) in a fixed
order, resolved by the number of matched pairs, which makes the truncated
"k-order" sums a byproduct of the exact computation.  A reduced kernel keeps
A's rows in their global order, so a DP row depends only on its subset of
labels (global index, copy number): :func:`pattern_polynomials` runs one DP
per group of patterns over the label subsets the recursion reaches from
them, for a family of loop-weight vectors that share one A, and
:func:`matching_polynomial` is the DP of one pattern covering its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from .errors import ConfigurationError, EnumerationBudgetError

SYMMETRY_TOL = 1e-10
MAX_KERNEL_SIZE = 20  # 2N; one pattern's labels fit one int64 mask
# working set of one DP group: Fibonacci(2N + 2) rows per pattern, each
# 2N + 2 complex numbers (pair counts, temporaries, plan) per family member
DP_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class DetectionPattern:
    """Photon counts per output mode: one validated pattern.  A set of
    patterns is a read-only (P, d) integer counts array instead."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ConfigurationError("photon counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ReducedKernel:
    """Pattern-reduced kernel: 2N x 2N matrix A_n and loop weights gamma~."""

    a_n: np.ndarray
    gamma_tilde: np.ndarray

    def __post_init__(self):
        a_n = np.asarray(self.a_n, dtype=complex)
        gt = np.asarray(self.gamma_tilde, dtype=complex)
        if a_n.ndim != 2 or a_n.shape[0] != a_n.shape[1]:
            raise ConfigurationError("kernel matrix must be square")
        if a_n.shape[0] % 2:
            raise ConfigurationError("kernel matrix must have even dimension")
        if gt.shape != (a_n.shape[0],):
            raise ConfigurationError("gamma~ length must match kernel size")
        object.__setattr__(self, "a_n", a_n)
        object.__setattr__(self, "gamma_tilde", gt)

    @property
    def n_photons(self) -> int:
        return self.a_n.shape[0] // 2


def _pattern_index(d: int, counts) -> np.ndarray:
    """The rows/columns of A (and entries of gamma) that a (P, d) counts
    array of one total N keeps: i and i+d, each repeated n_i times, as
    (P, 2N)."""
    counts = np.asarray(counts, dtype=np.intp)
    if counts.ndim != 2 or counts.shape[1] != d:
        raise ConfigurationError(
            f"patterns have shape {counts.shape}, kernel has {d} modes")
    if (counts.sum(axis=1) != counts[0].sum()).any():
        raise ConfigurationError("a pattern batch must share one photon total")
    modes = np.repeat(np.tile(np.arange(d), len(counts)), counts.ravel())
    modes = modes.reshape(len(counts), -1)
    return np.concatenate([modes, modes + d], axis=1)


def reduce_by_pattern(a, gamma, n: DetectionPattern) -> ReducedKernel:
    """Repeat row/column i and i+d of A (and entry i, i+d of gamma) n_i times."""
    idx = _pattern_index(a.d, [n.counts])[0]
    return ReducedKernel(a.full[np.ix_(idx, idx)], gamma.gamma[idx])


def _labels(idx: np.ndarray) -> np.ndarray:
    """Labels of (P, 2N) nondecreasing kernel indices, index * 32 + copy
    number: distinct within a pattern, and sorted like its indices."""
    pos = np.arange(idx.shape[1])
    first = np.diff(idx, axis=1, prepend=-1) != 0
    return idx * 32 + pos - np.maximum.accumulate(np.where(first, pos, 0), 1)


def _sorted_set(masks: np.ndarray) -> np.ndarray:
    masks = np.sort(masks)  # np.unique's hash table is several times slower
    return masks[np.r_[True, masks[1:] != masks[:-1]]]


@lru_cache(maxsize=16)
def _plan(key: bytes, shape: tuple) -> tuple:
    """The shared DP of a pattern group, from its packed (P, 2N) labels.
    A row is a subset of the labels, as an int64 mask whose bits follow
    label order.  Returns each pattern's top-level row and, per subset size
    s = 1..2N, (i, rest, js, pairs): the index of each row's lowest label i,
    the row of rest = subset - {i} one level down, and for each j of rest in
    increasing order (axis 0) the index of j and the row of rest - {j} two
    levels down."""
    labels = np.frombuffer(key, dtype=np.int64).reshape(shape)
    n = shape[1]
    bits = np.unique(labels)              # mask bit b stands for bits[b]
    index = (bits >> 5).astype(np.int32)
    masks = (1 << np.searchsorted(bits, labels)).sum(axis=1)

    def low_index(low):                   # frexp(2^b) has exponent b + 1
        return index[np.frexp(low)[1] - 1]

    # top down: the subsets of each size that the recursion reaches
    levels, children, reached = {0: np.zeros(1, np.int64)}, {}, {n: [masks]}
    for s in range(n, 0, -1):
        level = levels[s] = _sorted_set(np.concatenate(reached.pop(s)))
        rest = todo = level ^ (level & -level)
        pairs = np.empty((s - 1, len(level)), dtype=np.int64)
        for k in range(s - 1):
            pairs[k] = rest ^ (todo & -todo)
            todo = todo & (todo - 1)
        children[s] = rest, pairs
        reached.setdefault(s - 1, []).append(rest)
        reached.setdefault(s - 2, []).append(pairs.ravel())
    return np.searchsorted(levels[n], masks).astype(np.int32), [
        (low_index(levels[s] ^ rest),
         np.searchsorted(levels[s - 1], rest).astype(np.int32),
         low_index(rest ^ pairs),
         np.searchsorted(levels[max(s - 2, 0)], pairs).astype(np.int32))
        for s, (rest, pairs) in sorted(children.items())]


def _evaluate(plan: tuple, m: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """Run one plan on matrix m and loop weights diags (F, len(m)), giving
    (F, P, N + 1).  A row holds its pair counts 0..N for every family
    member, and every entry is summed in the order of the one-subset
    recursion, so its bits do not depend on the batch it is part of."""
    tops, steps = plan
    prev = np.zeros((1, len(steps) // 2 + 1, len(diags)), dtype=complex)
    prev[0, 0] = 1.0
    prev2, diag = None, diags.T
    for i, rest, js, pairs in steps:
        # subset = {i} + rest with i its lowest label: i is a fixed point,
        # or i is paired with each j in rest in increasing order
        row = diag[i][:, None, :] * prev[rest]
        for j, pair in zip(js, pairs):
            row[:, 1:] += m[i, j][:, None, None] * prev2[pair, :-1]
        prev2, prev = prev, row
    return prev[tops].transpose(2, 0, 1)


def _polynomials(m: np.ndarray, diags: np.ndarray, idx: np.ndarray):
    """(F, P, N + 1) matching polynomials of the kernels m[idx_p][:, idx_p]
    with loop weights diags[f, idx_p], for the P rows idx_p of ``idx``
    (nondecreasing indices into m).  Consecutive patterns share one DP,
    in groups that fit DP_CHUNK_BYTES with their family."""
    count, n = idx.shape
    if n > MAX_KERNEL_SIZE:
        raise EnumerationBudgetError(
            f"kernel size {n} exceeds matching-enumeration budget {MAX_KERNEL_SIZE}")
    asym, mag = np.abs(m - m.T), np.abs(m)
    labels = _labels(idx)
    # Fibonacci(n + 2): the subsets the recursion reaches from n labels
    rows_per_pattern = round(((1 + 5 ** 0.5) / 2) ** (n + 2) / 5 ** 0.5)
    per_call = max(1, DP_CHUNK_BYTES // (16 * (n + 2) * rows_per_pattern))
    out = np.empty((len(diags), count, n // 2 + 1), dtype=complex)
    start = 0
    while start < count:
        # the next group: at most per_call // F patterns whose label union
        # fits 63 mask bits (one pattern always fits, since 2N <= 20)
        group = labels[start:start + max(1, per_call // max(1, len(diags)))]
        first = np.sort(np.unique(group, return_index=True)[1])
        stop = start + (len(group) if len(first) <= 63 else first[63] // n)
        rows = idx[start:stop, :, None], idx[start:stop, None, :]
        if n and (asym[rows].max(axis=(1, 2)) > SYMMETRY_TOL
                  * np.maximum(1.0, mag[rows].max(axis=(1, 2)))).any():
            raise ConfigurationError("matrix is not symmetric")
        plan = _plan(labels[start:stop].tobytes(), (stop - start, n))
        fam = max(1, per_call // (stop - start))
        for f in range(0, len(diags), fam):
            out[f:f + fam, start:stop] = _evaluate(plan, m, diags[f:f + fam])
        start = stop
    return out


def matching_polynomial(m: np.ndarray, diag: np.ndarray = None) -> np.ndarray:
    """Matching sums of a 2N x 2N symmetric matrix, resolved by pair count.

    Entry p of the returned length-(N+1) array sums, over all matchings of
    the 2N indices with exactly p matched pairs (the remaining 2N - 2p
    indices being fixed points), the product of the matched entries m[i, j]
    times the fixed-point weights diag[c].  Summation order is fixed by the
    subset recursion; this is the shared DP of one pattern that covers each
    index of m once.
    """
    m = np.asarray(m, dtype=complex)
    diag = np.zeros(len(m)) if diag is None else np.asarray(diag)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("matrix must be square")
    if len(m) % 2:
        raise ConfigurationError("Hafnian requires even dimension")
    if diag.shape != (len(m),):
        raise ConfigurationError("diagonal weights must match the kernels")
    return _polynomials(m, diag.astype(complex)[None],
                        np.arange(len(m))[None])[0, 0]


def pattern_polynomials(a, gammas, counts) -> np.ndarray:
    """(F, P, N + 1) matching polynomials of the kernels that the P rows of
    a (P, d) counts array of one total N reduce (A, gammas[f]) to, for a
    family of F loop-weight vectors ``gammas`` (F, 2d) that share A.
    Memory grows with neither F nor P."""
    return _polynomials(a.full, np.asarray(gammas, dtype=complex),
                        _pattern_index(a.d, counts))


def hafnian(m: np.ndarray) -> complex:
    """Sum over all perfect matchings of products of matched entries."""
    poly = matching_polynomial(m, None)
    return complex(poly[-1])


def loop_hafnian(k: ReducedKernel) -> complex:
    """Matching sum including fixed points weighted by gamma~, summed over
    pair counts with a compensated sum (real and imaginary separately)."""
    poly = matching_polynomial(k.a_n, k.gamma_tilde)
    return complex(fsum(poly.real), fsum(poly.imag))

