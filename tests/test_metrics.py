import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import lossy_transfer
from dgbs.errors import ConfigurationError
from dgbs.metrics import LikelihoodTrace, likelihood_ratio, tvd
from dgbs.probability import (ModelSpec, PatternDistribution, StateKernel,
                              distribution_from_kernel)
from dgbs.states import SourceConfig, build_input_state, propagate


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
        assert_allclose(tr.cumulative_log, [0.1, -0.2, 0.0], atol=1e-15)

    def test_log_ratio_summed_once(self, monkeypatch):
        sums = []
        monkeypatch.setattr(math, "fsum", lambda xs: sums.append(1) or 2.0)
        tr = LikelihoodTrace(np.array([0.5, 1.5]))
        assert (tr.log_ratio, tr.ratio, tr.log_ratio) == (2.0, math.exp(2.0),
                                                          2.0)
        assert len(sums) == 1

    def test_csv(self):
        tr = LikelihoodTrace(np.array([math.log(2.0)]))
        lines = tr.to_csv().splitlines()
        assert lines[0] == "sample,log_increment,cumulative_log_L,L"
        assert float(lines[1].split(",")[-1]) == pytest.approx(2.0)


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
        assert tr.model_b == "korder(0)"

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
        want = full[2].as_dict()[n] / k0[2].as_dict()[n]
        assert tr.ratio == pytest.approx(want, rel=1e-10)

    def test_ratio_overflow_is_inf(self):
        tr = LikelihoodTrace(np.full(1000, 1.0))
        assert tr.log_ratio == pytest.approx(1000.0)
        assert tr.ratio == math.inf
