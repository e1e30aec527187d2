"""Model-comparison statistics: total variation distance and the streaming
likelihood ratio L = prod_i pr(n_i | A) / pr(n_i | B)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .probability import PatternDistribution


def tvd(p: PatternDistribution, q: PatternDistribution) -> float:
    """Total variation distance D = sum_i |p_i - q_i| / 2 on a shared index set."""
    if not np.array_equal(p.patterns, q.patterns):
        raise ConfigurationError("distributions are indexed by different pattern sets")
    return float(np.abs(p.probabilities - q.probabilities).sum() / 2)


@dataclass(frozen=True, eq=False)
class LikelihoodTrace:
    """Per-sample log-ratio increments and the cumulative likelihood ratio.

    A flagged sample has zero probability under at least one model; its
    increment is -inf, +inf or 0 and it is left out of ``log_ratio``.
    """

    increments: np.ndarray
    flagged: list = field(default_factory=list)

    @property
    def sample_count(self) -> int:
        return len(self.increments)

    @cached_property
    def log_ratio(self) -> float:
        """log L summed over the unflagged samples, always finite; summed
        once, on first read.  Zero increments (log p - log p of a pattern
        as likely under both models, the vacuum's among them: always +0.0)
        are left out of the correctly rounded sum, which they cannot
        change."""
        keep = self.increments != 0
        keep[[i for i, *_ in self.flagged]] = False
        return float(math.fsum(self.increments[keep]))

    @property
    def ratio(self) -> float:
        """exp(log_ratio); inf once log L exceeds the float range."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_ratio))


def likelihood_ratio(samples, dists_a: dict, dists_b: dict,
                     codes=None) -> LikelihoodTrace:
    """Streaming likelihood ratio over the samples: their (S, d) counts,
    or, given ``codes``, the (K, d) counts of their distinct patterns, the
    i-th sample being pattern ``codes[i]`` (as :func:`samples_from_csv`
    returns them).  Each distinct pattern's increment is computed once.

    ``dists_a`` and ``dists_b`` map a photon number N to each model's
    fixed-N :class:`PatternDistribution`, so a sample's probability is its
    normalized probability within its own sector.  The two models may come
    from different states (the classical-input comparison).

    A sample with zero probability under either model, a pattern missing
    from its sector's table, or a sector missing from a model's dict is
    flagged: its increment is -inf/+inf (0 if both models give zero) and it
    is reported in ``flagged`` rather than silently dropped.
    """
    if codes is None:   # plain counts: code each distinct row once, here
        samples, codes = _unique_rows(np.asarray(samples))
    patterns, codes = np.asarray(samples), np.asarray(codes)
    if patterns.ndim != 2:   # no samples at all
        patterns = patterns.reshape(0, 0)
    totals = patterns.sum(axis=1)
    pa = _sector_probabilities(patterns, totals, dists_a)
    pb = _sector_probabilities(patterns, totals, dists_b)
    zero = (pa <= 0) | (pb <= 0)
    values = np.zeros(len(patterns))
    values[~zero] = np.log(pa[~zero]) - np.log(pb[~zero])
    values[zero & (pb > 0)] = -np.inf
    values[zero & (pa > 0)] = np.inf
    zero_rows = np.flatnonzero(zero)
    causes = dict(zip(zero_rows.tolist(), zip(
        map(tuple, patterns[zero_rows].tolist()), pa[zero_rows].tolist(),
        pb[zero_rows].tolist())))
    hit = np.flatnonzero(zero[codes])
    flagged = [(i, *causes[k])
               for i, k in zip(hit.tolist(), codes[hit].tolist())]
    return LikelihoodTrace(values[codes], flagged)


def _sector_probabilities(patterns: np.ndarray, totals: np.ndarray,
                          dists: dict) -> np.ndarray:
    """Each pattern's probability in the table of its photon number in
    ``dists``, 0 where the sector or the pattern is missing.  A sector's
    table rows and patterns are coded together, so that one pass finds
    each pattern's row in the table."""
    probs = np.zeros(len(patterns))
    for total, dist in dists.items():
        rows = np.flatnonzero(totals == total)
        table = dist.patterns
        if not len(rows) or table.shape[1] != patterns.shape[1]:
            continue
        _, codes = _unique_rows(np.concatenate(
            [table, patterns[rows].astype(table.dtype)]))
        # the table row of each distinct row, -1 if it is not in the table
        table_row = np.full(len(codes), -1)
        table_row[codes[:len(table)]] = np.arange(len(table))
        found = table_row[codes[len(table):]]
        probs[rows] = np.append(dist.probabilities, 0.0)[found]
    return probs


def _unique_rows(a: np.ndarray) -> tuple:
    """``np.unique(a, axis=0, return_inverse=True)`` up to the order of the
    rows, for an integer array: each row's bytes are one sort key.  (With
    ``axis=0``, numpy sorts the rows field by field, 20x slower.)"""
    a = np.ascontiguousarray(a)
    if a.ndim != 2 or not a.size:
        return np.unique(a, axis=0, return_inverse=True)
    keys, codes = np.unique(a.view(np.dtype((np.void, a.strides[0]))).ravel(),
                            return_inverse=True)
    return keys.view(a.dtype).reshape(len(keys), -1), codes
