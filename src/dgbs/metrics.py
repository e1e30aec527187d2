"""Model-comparison statistics: total variation distance and the streaming
likelihood ratio L = prod_i pr(n_i | A) / pr(n_i | B)."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .probability import PatternDistribution


def tvd(p: PatternDistribution, q: PatternDistribution) -> float:
    """Total variation distance D = sum_i |p_i - q_i| / 2 on a shared index set."""
    if not np.array_equal(p.patterns, q.patterns):
        raise ConfigurationError("distributions are indexed by different pattern sets")
    return float(np.abs(p.probabilities - q.probabilities).sum() / 2)


@dataclass
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

    @property
    def log_ratio(self) -> float:
        """log L summed over the unflagged samples, always finite."""
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
    samples = np.asarray(samples)
    tables_a = {n: dist.as_dict() for n, dist in dists_a.items()}
    tables_b = {n: dist.as_dict() for n, dist in dists_b.items()}
    # each distinct pattern's increment is computed once; rows are read in
    # blocks, so that no sample's tuple outlives its block
    distinct = {}
    codes = [distinct.setdefault(row, len(distinct))
             for lo in range(0, len(samples), 4096)
             for row in map(tuple, samples[lo:lo + 4096].tolist())]
    values, zero = np.zeros(len(distinct)), {}
    for counts, k in distinct.items():
        total = sum(counts)
        pa = tables_a.get(total, {}).get(counts, 0.0)
        pb = tables_b.get(total, {}).get(counts, 0.0)
        if pa <= 0 or pb <= 0:
            zero[k] = counts, pa, pb
            values[k] = (-np.inf if pa <= 0 < pb
                         else np.inf if pb <= 0 < pa else 0.0)
        else:
            values[k] = np.log(pa) - np.log(pb)
    flagged = [(i, *zero[k]) for i, k in enumerate(codes) if k in zero]
    return LikelihoodTrace(values[codes], flagged, model_a=_model_label(dists_a),
                           model_b=_model_label(dists_b))


def _model_label(dists: dict) -> str:
    return next(iter(dists.values())).model if dists else ""
