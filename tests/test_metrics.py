import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lossy_transfer
from dgbs.errors import ConfigurationError
from dgbs.experiment import SAMPLES_CSV_HEADER, samples_from_csv
from dgbs.metrics import LikelihoodTrace, likelihood_ratio, tvd
from dgbs.probability import (ModelSpec, PatternDistribution, StateKernel,
                              distribution_from_kernel)
from dgbs.states import SourceConfig, build_input_state, propagate


def lookup(dist: PatternDistribution) -> dict:
    """{counts tuple: probability} of ``dist``, the reference lookup."""
    return dict(zip(map(tuple, dist.patterns.tolist()),
                    dist.probabilities.tolist()))


def make_dist(probs, d=2, total=1):
    pats = ((1, 0), (0, 1))
    return PatternDistribution(d, total, True, pats, np.asarray(probs))


class TestTvd:
    def test_basic(self):
        assert tvd(make_dist([0.5, 0.5]), make_dist([0.9, 0.1])) == \
            pytest.approx(0.4)

    def test_identical_is_zero(self):
        d = make_dist([0.3, 0.7])
        assert tvd(d, d) == 0.0

    def test_mismatched_patterns_rejected(self):
        other = PatternDistribution(
            2, 1, True,
            ((0, 1), (1, 0)),
            np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            tvd(make_dist([0.5, 0.5]), other)


class TestLikelihoodTrace:
    def test_cumulative(self):
        tr = LikelihoodTrace(np.array([0.1, -0.3, 0.2]))
        assert tr.log_ratio == pytest.approx(0.0)
        assert tr.ratio == pytest.approx(1.0)

    def test_log_ratio_summed_once(self, monkeypatch):
        sums = []
        monkeypatch.setattr(math, "fsum", lambda xs: sums.append(1) or 2.0)
        tr = LikelihoodTrace(np.array([0.5, 1.5]))
        assert (tr.log_ratio, tr.ratio, tr.log_ratio) == (2.0, math.exp(2.0),
                                                          2.0)
        assert len(sums) == 1

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(values=st.lists(st.floats(-1e6, 1e6) | st.just(0.0), max_size=40),
           flags=st.lists(st.sampled_from([-math.inf, math.inf, 0.0]),
                          max_size=5))
    def test_zero_increments_change_no_bit(self, values, flags):
        # zeros are left out of the sum: the result is fsum over all the
        # unflagged increments, bit for bit
        increments = np.array(values + flags, dtype=float)
        flagged = [(i, (0,), 0.0, 0.0)
                   for i in range(len(values), len(increments))]
        trace = LikelihoodTrace(increments, flagged)
        assert repr(trace.log_ratio) == repr(math.fsum(values))


class TestLikelihoodRatio:
    def kernel(self, alpha, seed=7):
        st = propagate(
            build_input_state(SourceConfig(r=0.4, alpha_mag=alpha), 4),
            lossy_transfer(4, 0.5, seed=seed))
        return StateKernel.from_state(st)

    def tables(self, kern, model=ModelSpec(), totals=(1, 2)):
        return {n: distribution_from_kernel(kern, n, True, model)
                for n in totals}

    def test_true_model_wins_on_average(self):
        kern = self.kernel(0.8)
        dist = distribution_from_kernel(kern, 2, True)
        rng = np.random.default_rng(0)
        idx = rng.choice(len(dist), size=400, p=dist.probabilities)
        samples = dist.patterns[idx]
        tr = likelihood_ratio(samples, self.tables(kern),
                              self.tables(kern, ModelSpec("korder", 0)))
        assert tr.log_ratio > 0

    def test_exact_truncation_gives_unity(self):
        kern = self.kernel(0.8)
        samples = [(1, 1, 0, 0)]
        tr = likelihood_ratio(samples,
                              self.tables(kern, ModelSpec("korder", 2)),
                              self.tables(kern))
        assert tr.ratio == pytest.approx(1.0, rel=1e-10)

    def test_zero_probability_flagged(self):
        kern = self.kernel(0.0)  # no displacement: korder(0) has no N >= 1 mass
        samples = [(1, 0, 0, 0)]
        tr = likelihood_ratio(samples,
                              self.tables(kern, ModelSpec("korder", 0), ()),
                              self.tables(kern))
        assert len(tr.flagged) == 1
        assert tr.increments[0] == -np.inf

    def test_log_ratio_skips_flagged_samples(self):
        kern = self.kernel(0.8)
        samples = [(1, 0, 0, 0), (1, 1, 0, 0)]
        tr = likelihood_ratio(samples, self.tables(kern, totals=(2,)),
                              self.tables(kern, ModelSpec("korder", 0)))
        assert [f[0] for f in tr.flagged] == [0]
        assert tr.increments[0] == -np.inf
        assert tr.log_ratio == tr.increments[1]
        assert math.isfinite(tr.log_ratio)

    def test_separate_kernel_for_model_b(self):
        ka, kb = self.kernel(0.8), self.kernel(0.8, seed=8)
        samples = [(1, 0, 1, 0)]
        same = likelihood_ratio(samples, self.tables(ka), self.tables(ka))
        cross = likelihood_ratio(samples, self.tables(ka), self.tables(kb))
        assert same.ratio == pytest.approx(1.0)
        assert cross.ratio != pytest.approx(1.0)

    def test_sector_normalized_probabilities(self):
        kern = self.kernel(0.6)
        n = (0, 1, 0, 1)
        full, k0 = self.tables(kern), self.tables(kern, ModelSpec("korder", 0))
        tr = likelihood_ratio([n], full, k0)
        want = lookup(full[2])[n] / lookup(k0[2])[n]
        assert tr.ratio == pytest.approx(want, rel=1e-10)

    def test_ratio_overflow_is_inf(self):
        tr = LikelihoodTrace(np.full(1000, 1.0))
        assert tr.log_ratio == pytest.approx(1000.0)
        assert tr.ratio == math.inf


# the mask texts of a samples CSV over 4 modes: 15 is written two ways
MASK_TEXTS = ("discard", "0", "1", "2", "3", "5", "6", "9", "a", "c", "7",
              "b", "e", "0f", "F")
KERNEL = StateKernel.from_state(propagate(
    build_input_state(SourceConfig(r=0.4, alpha_mag=0.8), 4),
    lossy_transfer(4, 0.5, seed=7)))
TABLES = {model: {n: distribution_from_kernel(KERNEL, n, True, model)
                  for n in range(5)}
          for model in (ModelSpec(), ModelSpec("korder", 1))}


def trimmed(tables: dict, totals, missing_masks) -> dict:
    """``tables`` with only the sectors ``totals``, and without the
    patterns of ``missing_masks`` (each sector renormalized)."""
    out = {}
    for n in totals:
        dist = tables[n]
        keep = ~np.isin(dist.patterns @ (1 << np.arange(4)), missing_masks)
        probs = dist.probabilities[keep]
        out[n] = PatternDistribution(
            4, n, True, dist.patterns[keep],
            probs / probs.sum() if probs.sum() > 0 else probs, dist.model)
    return out


class TestLikelihoodFromCodes:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(texts=st.lists(st.sampled_from(MASK_TEXTS), max_size=60),
           min_photons=st.integers(0, 3),
           totals_a=st.sets(st.integers(0, 4)),
           totals_b=st.sets(st.integers(0, 4)),
           missing_a=st.lists(st.integers(0, 15), max_size=4),
           missing_b=st.lists(st.integers(0, 15), max_size=4))
    def test_codes_give_the_counts_likelihood(self, texts, min_photons,
                                              totals_a, totals_b, missing_a,
                                              missing_b):
        # the reader's (distinct patterns, codes) and the plain (S, d)
        # counts give the same trace, bit for bit, with discards, a mask
        # written two ways, patterns and sectors missing from the tables
        text = SAMPLES_CSV_HEADER + "\n" + "".join(
            f"{i},{mask},0\n" for i, mask in enumerate(texts))
        patterns, codes = samples_from_csv(text, 4, min_photons)
        masks = [int(t, 16) for t in texts if t != "discard"]
        counts = np.array([[m >> j & 1 for j in range(4)] for m in masks
                           if bin(m).count("1") >= min_photons],
                          dtype=np.int8).reshape(-1, 4)
        assert len(np.unique(patterns, axis=0)) == len(patterns)
        assert patterns[codes].tobytes() == counts.tobytes()
        dists_a = trimmed(TABLES[ModelSpec()], totals_a, missing_a)
        dists_b = trimmed(TABLES[ModelSpec("korder", 1)], totals_b,
                          missing_b)
        coded = likelihood_ratio(patterns, dists_a, dists_b, codes)
        plain = likelihood_ratio(counts.tolist(), dists_a, dists_b)
        assert coded.increments.tobytes() == plain.increments.tobytes()
        assert coded.flagged == plain.flagged
        assert repr(coded.log_ratio) == repr(plain.log_ratio)
        # each sample looked up in its sector's table by its counts
        flagged = []
        for i, n in enumerate(map(tuple, counts.tolist())):
            pa, pb = (lookup(dists[sum(n)]).get(n, 0.0)
                      if sum(n) in dists else 0.0
                      for dists in (dists_a, dists_b))
            if pa > 0 and pb > 0:
                assert coded.increments[i] == np.log(pa) - np.log(pb)
            else:
                flagged.append((i, n, pa, pb))
                assert coded.increments[i] == (
                    -np.inf if pb > 0 else np.inf if pa > 0 else 0.0)
        assert coded.flagged == flagged
