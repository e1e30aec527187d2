"""Model-comparison statistics: total variation distance and the streaming
likelihood ratio L = prod_i pr(n_i | A) / pr(n_i | B)."""

from __future__ import annotations

import csv
import io
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


@dataclass(frozen=True)
class LikelihoodTrace:
    """Per-sample log-ratio increments and the cumulative likelihood ratio.

    A flagged sample has zero probability under at least one model; its
    increment is -inf, +inf or 0 and it is left out of ``log_ratio``.
    """

    increments: np.ndarray
    flagged: list = field(default_factory=list)
    model_a: str = ""
    model_b: str = ""

    @property
    def sample_count(self) -> int:
        return len(self.increments)

    @property
    def cumulative_log(self) -> np.ndarray:
        return np.cumsum(self.increments)

    @cached_property
    def log_ratio(self) -> float:
        """log L summed over the unflagged samples, always finite; summed
        once, on first read."""
        keep = np.ones(len(self.increments), dtype=bool)
        keep[[i for i, *_ in self.flagged]] = False
        return float(math.fsum(self.increments[keep]))

    @property
    def ratio(self) -> float:
        """exp(log_ratio); inf once log L exceeds the float range."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_ratio))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["sample", "log_increment", "cumulative_log_L", "L"])
        cum = 0.0
        for i, inc in enumerate(self.increments):
            cum += inc
            writer.writerow([i + 1, f"{inc:.17g}", f"{cum:.17g}", f"{np.exp(cum):.17g}"])
        return buf.getvalue()


def likelihood_ratio(samples, dists_a: dict, dists_b: dict) -> LikelihoodTrace:
    """Streaming likelihood ratio over the (S, d) counts of the samples.

    ``dists_a`` and ``dists_b`` map a photon number N to each model's
    fixed-N :class:`PatternDistribution`, so a sample's probability is its
    normalized probability within its own sector.  The two models may come
    from different states (the classical-input comparison).

    A sample with zero probability under either model, a pattern missing
    from its sector's table, or a sector missing from a model's dict is
    flagged: its increment is -inf/+inf (0 if both models give zero) and it
    is reported in ``flagged`` rather than silently dropped.
    """
    tables_a = {n: dist.as_dict() for n, dist in dists_a.items()}
    tables_b = {n: dist.as_dict() for n, dist in dists_b.items()}
    # each distinct pattern's increment is computed once
    distinct, codes = _unique_rows(np.asarray(samples))
    values, zero = np.zeros(len(distinct)), {}
    for k, counts in enumerate(map(tuple, distinct.tolist())):
        total = sum(counts)
        pa = tables_a.get(total, {}).get(counts, 0.0)
        pb = tables_b.get(total, {}).get(counts, 0.0)
        if pa <= 0 or pb <= 0:
            zero[k] = counts, pa, pb
            values[k] = (-np.inf if pa <= 0 < pb
                         else np.inf if pb <= 0 < pa else 0.0)
        else:
            values[k] = np.log(pa) - np.log(pb)
    hit = np.flatnonzero(np.isin(codes, list(zero)))
    flagged = [(i, *zero[k])
               for i, k in zip(hit.tolist(), codes[hit].tolist())]
    return LikelihoodTrace(values[codes], flagged, model_a=_model_label(dists_a),
                           model_b=_model_label(dists_b))


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


def _model_label(dists: dict) -> str:
    return next(iter(dists.values())).model if dists else ""
