"""Exact Hafnian / loop-Hafnian kernels and pattern-indexed reduction.

The workhorse is :func:`matching_polynomial`, a subset dynamic program that
enumerates all matchings of the index set (optionally with fixed points
weighted by the diagonal vector) in a fixed deterministic order.  Its output
is resolved by the number of matched pairs, which makes the truncated
"k-order" sums a byproduct of the exact computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import ConfigurationError, EnumerationBudgetError

SYMMETRY_TOL = 1e-10
MAX_KERNEL_SIZE = 20  # 2N; the subset DP allocates 2^(2N) rows


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


def reduce_by_pattern(a, gamma, n: DetectionPattern) -> ReducedKernel:
    """Repeat row/column i and i+d of A (and entry i, i+d of gamma) n_i times."""
    d = a.d
    if n.d != d:
        raise ConfigurationError(f"pattern has {n.d} modes, kernel has {d}")
    idx = [i for i, c in enumerate(n.counts) for _ in range(c)]
    idx = idx + [i + d for i in idx]
    full = a.full
    gvec = gamma.gamma if hasattr(gamma, "gamma") else np.asarray(gamma)
    return ReducedKernel(full[np.ix_(idx, idx)], gvec[idx])


def _check_kernel(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("matrix must be square")
    n = m.shape[0]
    if n % 2:
        raise ConfigurationError("Hafnian requires even dimension")
    if n > MAX_KERNEL_SIZE:
        raise EnumerationBudgetError(
            f"kernel size {n} exceeds matching-enumeration budget {MAX_KERNEL_SIZE}")
    if n and np.abs(m - m.T).max() > SYMMETRY_TOL * max(1.0, np.abs(m).max()):
        raise ConfigurationError("matrix is not symmetric")
    return m


def matching_polynomial(m: np.ndarray, diag: np.ndarray = None) -> np.ndarray:
    """Matching sums of a 2N x 2N symmetric matrix, resolved by pair count.

    Entry p of the returned length-(N+1) array sums, over all matchings of
    the 2N indices with exactly p matched pairs (the remaining 2N - 2p
    indices being fixed points), the product of the matched entries m[i, j]
    times the fixed-point weights diag[c].  Summation order is fixed by the
    subset recursion, independent of any parallel partitioning upstream.
    """
    m = _check_kernel(m)
    n = m.shape[0]
    half = n // 2
    if diag is None:
        diag = np.zeros(n, dtype=complex)
    else:
        diag = np.asarray(diag, dtype=complex)
    if n == 0:
        return np.ones(1, dtype=complex)
    coeff = np.zeros((1 << n, half + 1), dtype=complex)
    coeff[0, 0] = 1.0
    bit_index = {1 << i: i for i in range(n)}
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = bit_index[low]
        rest = mask ^ low
        row = diag[i] * coeff[rest]
        sub = rest
        while sub:
            lowj = sub & -sub
            j = bit_index[lowj]
            row[1:] += m[i, j] * coeff[rest ^ lowj][:-1]
            sub ^= lowj
        coeff[mask] = row
    return coeff[-1]


def hafnian(m: np.ndarray) -> complex:
    """Sum over all perfect matchings of products of matched entries."""
    poly = matching_polynomial(m, None)
    return complex(poly[-1])


def _ordered_sum(values: np.ndarray) -> complex:
    """Deterministic compensated sum (fixed order, real/imag separately)."""
    return complex(fsum(values.real), fsum(values.imag))


def loop_hafnian(k: ReducedKernel) -> complex:
    """Matching sum including fixed points weighted by gamma~."""
    poly = matching_polynomial(k.a_n, k.gamma_tilde)
    return _ordered_sum(poly)

