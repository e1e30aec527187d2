"""Exact Hafnian / loop-Hafnian kernels and pattern-indexed reduction.

The workhorse is :func:`matching_polynomial`, a subset dynamic program that
enumerates all matchings of the index set (optionally with fixed points
weighted by the diagonal vector) in a fixed deterministic order.  Its output
is resolved by the number of matched pairs, which makes the truncated
"k-order" sums a byproduct of the exact computation.  The DP has a batch
axis (:func:`matching_polynomials`); :func:`pattern_polynomials` evaluates a
set of detection patterns with it, for a family of loop-weight vectors that
share one A, a bounded chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, fsum

import numpy as np

from .errors import ConfigurationError, EnumerationBudgetError

SYMMETRY_TOL = 1e-10
MAX_KERNEL_SIZE = 20  # 2N; the subset DP allocates 2^(2N) rows
# working set of one batch of the subset DP (see _bytes_per_kernel)
DP_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class DetectionPattern:
    """Photon counts per output mode."""

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

    @property
    def collision_free(self) -> bool:
        return all(c <= 1 for c in self.counts)

    @classmethod
    def from_modes(cls, modes, d: int) -> "DetectionPattern":
        counts = [0] * d
        for m in modes:
            counts[m] += 1
        return cls(tuple(counts))

    def bitmask(self) -> int:
        if not self.collision_free:
            raise ConfigurationError("bitmask defined for collision-free patterns only")
        return sum(1 << i for i, c in enumerate(self.counts) if c)


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


def _pattern_index(d: int, patterns) -> np.ndarray:
    """The rows/columns of A (and entries of gamma) that P patterns of one
    total N keep: i and i+d, each repeated n_i times, as (P, 2N)."""
    counts = np.array([n.counts for n in patterns], dtype=np.intp)
    if counts.shape[1] != d:
        raise ConfigurationError(
            f"pattern has {counts.shape[1]} modes, kernel has {d}")
    if (counts.sum(axis=1) != counts[0].sum()).any():
        raise ConfigurationError("a pattern batch must share one photon total")
    modes = np.repeat(np.tile(np.arange(d), len(counts)), counts.ravel())
    modes = modes.reshape(len(counts), -1)
    return np.concatenate([modes, modes + d], axis=1)


def reduce_by_pattern(a, gamma, n: DetectionPattern) -> ReducedKernel:
    """Repeat row/column i and i+d of A (and entry i, i+d of gamma) n_i times."""
    idx = _pattern_index(a.d, [n])[0]
    return ReducedKernel(a.full[np.ix_(idx, idx)], gamma.gamma[idx])


def matching_polynomials(ms: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """:func:`matching_polynomial` of P kernels of one size: ``ms`` is
    (P, 2N, 2N), ``diags`` is (P, 2N) and the result is (P, N + 1).  A DP
    row holds all P kernels, pair-count-major, and all subsets of one size
    are computed together; every entry is summed in the order of the
    one-subset recursion, so a batch gives the bits of its kernels alone."""
    ms = np.asarray(ms, dtype=complex)
    diags = np.asarray(diags, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ConfigurationError("matrix must be square")
    count, n = ms.shape[:2]
    half = n // 2
    if n % 2:
        raise ConfigurationError("Hafnian requires even dimension")
    if n > MAX_KERNEL_SIZE:
        raise EnumerationBudgetError(
            f"kernel size {n} exceeds matching-enumeration budget {MAX_KERNEL_SIZE}")
    if diags.shape != (count, n):
        raise ConfigurationError("diagonal weights must match the kernels")
    if n and (np.abs(ms - ms.swapaxes(1, 2)).max(axis=(1, 2)) > SYMMETRY_TOL
              * np.maximum(1.0, np.abs(ms).max(axis=(1, 2)))).any():
        raise ConfigurationError("matrix is not symmetric")
    # m[:, i, j] repeated for pair counts 1..N, diag[:, i] for 0..N
    m_rows = np.tile(ms.transpose(1, 2, 0), (1, 1, half))
    d_rows = np.tile(diags.T, (1, half + 1))
    coeff = np.zeros((1 << n, (half + 1) * count), dtype=complex)
    coeff[0, :count] = 1.0
    one_pair_fewer = coeff[:, :-count]
    masks = np.arange(1, 1 << n)
    sizes = sum((masks >> b) & 1 for b in range(n))
    for size in range(1, n + 1):
        # subset = {i} + rest with i its lowest index: i is a fixed point,
        # or i is paired with each j in rest in increasing order
        level = masks[sizes == size]
        low = level & -level
        i = np.frexp(low)[1] - 1          # frexp(2^b) has exponent b + 1
        rest = level ^ low
        row = d_rows[i] * coeff[rest]
        todo = rest.copy()
        for _ in range(size - 1):
            low_j = todo & -todo
            row[:, count:] += m_rows[i, np.frexp(low_j)[1] - 1] \
                * one_pair_fewer[rest ^ low_j]
            todo ^= low_j
        coeff[level] = row
    return coeff[-1].reshape(half + 1, count).T.copy()


def matching_polynomial(m: np.ndarray, diag: np.ndarray = None) -> np.ndarray:
    """Matching sums of a 2N x 2N symmetric matrix, resolved by pair count.

    Entry p of the returned length-(N+1) array sums, over all matchings of
    the 2N indices with exactly p matched pairs (the remaining 2N - 2p
    indices being fixed points), the product of the matched entries m[i, j]
    times the fixed-point weights diag[c].  Summation order is fixed by the
    subset recursion; this is the batch of one of
    :func:`matching_polynomials`.
    """
    m = np.asarray(m, dtype=complex)
    diag = np.zeros(len(m)) if diag is None else np.asarray(diag)
    return matching_polynomials(m[None], diag[None])[0]


def _bytes_per_kernel(n: int) -> int:
    """Bytes of one size-n kernel's DP table, temporaries and inputs."""
    return 16 * (n // 2 + 1) * ((1 << n) + 6 * comb(n, n // 2) + 2 * n * n)


def pattern_polynomials(a, gammas, patterns) -> np.ndarray:
    """(F, P, N + 1) matching polynomials of the kernels that P patterns of
    one total N reduce (A, gammas[f]) to, for a family of F loop-weight
    vectors ``gammas`` (F, 2d) that share A.  Each pattern's reduced A is
    gathered once for the whole family; the (gamma, pattern) kernels are
    evaluated DP_CHUNK_BYTES at a time, so memory grows with neither F
    nor P."""
    gammas = np.asarray(gammas, dtype=complex)
    idx = _pattern_index(a.d, patterns)
    count, n = idx.shape
    per_call = max(1, DP_CHUNK_BYTES // _bytes_per_kernel(n))
    out = np.empty((len(gammas), count, n // 2 + 1), dtype=complex)
    for start in range(0, count, per_call):
        rows = idx[start:start + per_call]
        a_n = a.full[rows[:, :, None], rows[:, None, :]]
        fam = max(1, per_call // len(rows))
        for f in range(0, len(gammas), fam):
            g = gammas[f:f + fam][:, rows]
            size = len(g) * len(rows)
            ms = np.broadcast_to(a_n, (len(g), *a_n.shape))
            out[f:f + fam, start:start + len(rows)] = matching_polynomials(
                ms.reshape(size, n, n), g.reshape(size, n)
            ).reshape(len(g), len(rows), -1)
    return out


def hafnian(m: np.ndarray) -> complex:
    """Sum over all perfect matchings of products of matched entries."""
    poly = matching_polynomial(m, None)
    return complex(poly[-1])


def loop_hafnian(k: ReducedKernel) -> complex:
    """Matching sum including fixed points weighted by gamma~, summed over
    pair counts with a compensated sum (real and imaginary separately)."""
    poly = matching_polynomial(k.a_n, k.gamma_tilde)
    return complex(fsum(poly.real), fsum(poly.imag))

