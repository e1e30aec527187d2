import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import lossy_transfer
from dgbs.errors import (ConfigurationError, EnumerationBudgetError,
                         NumericalError)
from dgbs.probability import (ModelSpec, PatternDistribution, StateKernel,
                              all_patterns, distribution_from_kernel,
                              predict_single, predict_twofold)
from dgbs.states import (GammaVector, SourceConfig, TransferMatrix,
                         build_classical_input, build_input_state, propagate)


def kernel_for(cfg, d, eta=0.6, seed=0):
    return StateKernel.from_state(
        propagate(build_input_state(cfg, d), lossy_transfer(d, eta, seed)))


def probability(kern, n, model=ModelSpec()):
    """pr(n) of the one counts row n, through the batched evaluator."""
    return kern.pattern_probabilities([n], model)[0]


class TestModelSpec:
    def test_parse_forms(self):
        assert ModelSpec.parse("korder(4)").k == 4
        assert ModelSpec.parse("k2").k == 2
        assert ModelSpec.parse("full").kind == "full"
        assert ModelSpec.parse("classical").label() == "classical"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("korder")
        with pytest.raises(ConfigurationError):
            ModelSpec("korder", -1)
        with pytest.raises(ConfigurationError):
            ModelSpec("full", k=2)
        with pytest.raises(ConfigurationError):
            ModelSpec("banana")


class TestClosedForms:
    def test_coherent_is_poisson(self):
        kern = StateKernel.from_state(
            build_input_state(SourceConfig(alpha_mag=0.9), 3))
        mean = 0.81
        for n in range(4):
            want = math.exp(-mean) * mean ** n / math.factorial(n)
            got = probability(kern, (0, 0, n))
            assert got == pytest.approx(want, rel=1e-12)

    def test_tmsv_pair_statistics(self):
        r = 0.5
        kern = StateKernel.from_state(build_input_state(SourceConfig(r=r), 3))
        x = math.tanh(r) ** 2
        for n in range(3):
            want = (1 - x) * x ** n
            got = probability(kern, (n, n, 0))
            assert got == pytest.approx(want, rel=1e-12)
        assert probability(kern, (1, 0, 0)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_predict_single_matches_engine(self):
        kern = kernel_for(SourceConfig(r=0.4, alpha_mag=0.6, phi=0.2), 4)
        for j in range(4):
            _, p1 = predict_single(kern, j)
            want = probability(kern, np.eye(4, dtype=int)[j]) / kern.p_vac
            assert p1 == pytest.approx(want, rel=1e-12)

    def test_predict_twofold_matches_engine(self):
        cfg = SourceConfig(r=0.4, alpha_mag=0.6, phi=0.0)
        for phi in (0.0, 0.7, 2.1):
            kern = kernel_for(SourceConfig(r=0.4, alpha_mag=0.6, phi=phi), 4)
            base = kernel_for(cfg, 4)
            _, want = predict_twofold(base, 0, 2, phi)
            got = probability(kern, (1, 0, 1, 0)) / kern.p_vac
            assert got == pytest.approx(want, rel=1e-10)

    def test_predict_twofold_rejects_equal_modes(self):
        kern = kernel_for(SourceConfig(r=0.3), 3)
        with pytest.raises(ConfigurationError):
            predict_twofold(kern, 1, 1)


class TestModels:
    def test_korder_at_n_is_exact(self):
        kern = kernel_for(SourceConfig(r=0.4, alpha_mag=0.8, phi=0.5), 4)
        n = (1, 1, 1, 0)
        full = probability(kern, n)
        assert probability(kern, n, ModelSpec("korder", 3)) == \
            pytest.approx(full, rel=1e-12)

    def test_korder_zero_is_displacement_term(self):
        kern = kernel_for(SourceConfig(r=0.4, alpha_mag=0.8, phi=0.5), 4)
        n = (1, 0, 1, 1)
        got = probability(kern, n, ModelSpec("korder", 0))
        g = kern.gamma.gamma
        want = abs(g[0] * g[2] * g[3]) ** 2 * kern.p_vac
        assert got == pytest.approx(want, rel=1e-12)

    def test_korder_prefix(self):
        kern = kernel_for(SourceConfig(r=0.4, alpha_mag=0.8, phi=0.5), 4)
        n = (1, 1, 1, 0)
        terms = kern.pattern_terms([n])[0]
        for k in range(4):
            want = max(terms[:min(k, 3) + 1].sum().real, 0.0) * kern.p_vac
            assert probability(kern, n, ModelSpec("korder", k)) == want
        full = probability(kern, n)
        assert probability(kern, n, ModelSpec("korder", 99)) == full

    def test_non_real_probability_is_numerical_error(self):
        kern = kernel_for(SourceConfig(r=0.4, alpha_mag=0.8), 3)
        # halves not conjugate: gamma_0 * gamma_{0+d} = (1+1j)^2 = 2j
        bad = StateKernel(kern.a, GammaVector(np.full(6, 1 + 1j)),
                          kern.log_p_vac)
        with pytest.raises(NumericalError):
            probability(bad, (1, 0, 0))

    def test_squeezer_only_matches_blocked_state(self):
        d = 4
        t = lossy_transfer(d, 0.6, seed=0)
        with_disp = StateKernel.from_state(propagate(
            build_input_state(SourceConfig(r=0.4, alpha_mag=0.8), d), t))
        blocked = StateKernel.from_state(propagate(
            build_input_state(SourceConfig(r=0.4, alpha_mag=0.0), d), t))
        for n in ((1, 1, 0, 0), (2, 1, 1, 0)):
            got = probability(with_disp, n, ModelSpec("squeezer_only"))
            want = (probability(blocked, n) / blocked.p_vac
                    * with_disp.p_vac)
            assert got == pytest.approx(want, rel=1e-10)

    def test_vacuum_pattern(self):
        kern = kernel_for(SourceConfig(r=0.3, alpha_mag=0.4), 3)
        assert probability(kern, (0, 0, 0)) == \
            pytest.approx(kern.p_vac)


class TestPatternEnumeration:
    def test_collision_free_count(self):
        pats = all_patterns(5, 2, collision_free=True)
        assert pats.shape == (math.comb(5, 2), 5)
        assert pats.max() == 1

    def test_with_collisions_count(self):
        pats = all_patterns(3, 3, collision_free=False)
        assert pats.shape == (math.comb(5, 2), 3)
        assert set(pats.sum(axis=1)) == {3}

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            all_patterns(40, 20, collision_free=True, budget=1000)

    def test_lexicographic_order_is_stable(self):
        a = all_patterns(4, 2, collision_free=True)
        b = all_patterns(4, 2, collision_free=True)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("collision_free", [True, False])
    def test_matches_itertools_reference(self, collision_free):
        # the count vectors of the multisets of modes: collision-free ones
        # in descending, the others in ascending lexicographic order
        multisets = combinations if collision_free \
            else combinations_with_replacement
        for d in range(1, 9):
            for total in range(8):
                want = sorted((tuple(c.count(m) for m in range(d))
                               for c in multisets(range(d), total)),
                              reverse=collision_free)
                got = all_patterns(d, total, collision_free)
                assert got.shape == (len(want), d)
                assert got.tolist() == [list(c) for c in want]
                assert not got.flags.writeable


class TestDistribution:
    def test_normalized(self):
        st = propagate(build_input_state(SourceConfig(r=0.4, alpha_mag=0.7), 4),
                       lossy_transfer(4, 0.5, seed=2))
        dist = distribution_from_kernel(StateKernel.from_state(st), 2)
        assert dist.probabilities.sum() == pytest.approx(1.0)
        assert len(dist) == math.comb(4, 2)
        assert dist.model == "full"

    def test_json(self):
        st = propagate(build_input_state(SourceConfig(r=0.3, alpha_mag=0.5), 3),
                       lossy_transfer(3, 0.5, seed=2))
        dist = distribution_from_kernel(StateKernel.from_state(st), 1)
        assert '"collision_free": true' in dist.to_json().replace(
            '"collision_free":true', '"collision_free": true')

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            PatternDistribution(2, 1, True,
                                ((1, 0), (0, 1)),
                                np.array([0.2, 0.2]))

    def test_kernel_without_pvac_matches_normalized(self):
        # the p_vac prefactor cancels in normalized fixed-N distributions
        from dgbs.states import a_matrix, gamma_vector
        st = propagate(build_input_state(SourceConfig(r=0.4, alpha_mag=0.7), 4),
                       lossy_transfer(4, 0.5, seed=5))
        full = StateKernel.from_state(st)
        bare = StateKernel(a_matrix(st), gamma_vector(st), 0.0)
        da = distribution_from_kernel(full, 3)
        db = distribution_from_kernel(bare, 3)
        assert_allclose(da.probabilities, db.probabilities, atol=1e-13)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       model=st.sampled_from([ModelSpec(), ModelSpec("korder", 0),
                              ModelSpec("korder", 2),
                              ModelSpec("squeezer_only"),
                              ModelSpec("classical")]),
       total=st.integers(0, 4))
def test_output_phase_gauge_leaves_probabilities_unchanged(d, seed, model,
                                                          total):
    # t -> t diag(e^{i theta}) rotates the phase of each output mode, which
    # photon counting cannot see; collision patterns included
    rng = np.random.default_rng(seed)
    cfg = SourceConfig(r=rng.uniform(0, 0.8), alpha_mag=rng.uniform(0, 1.2),
                       phi=rng.uniform(0, 6.3))
    t = lossy_transfer(d, rng.uniform(0.3, 1), seed)
    rotated = TransferMatrix.square(
        t.t * np.exp(1j * rng.uniform(-math.pi, math.pi, d)))
    build = build_classical_input if model.kind == "classical" \
        else build_input_state
    patterns = all_patterns(d, total, collision_free=False)
    want, got = (StateKernel.from_state(propagate(build(cfg, d), circuit))
                 .pattern_probabilities(patterns, model)
                 for circuit in (t, rotated))
    assert_allclose(got, want, rtol=1e-12, atol=0)
