import math
from dataclasses import replace
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import benchmark_workloads, lossy_transfer
from dgbs.errors import (ConfigurationError, EnumerationBudgetError,
                         NumericalError)
from dgbs.experiment import lock_kernel
from dgbs.probability import (ModelSpec, PatternDistribution, StateKernel,
                              _pattern_index, all_patterns,
                              distribution_from_kernel, predict_single,
                              predict_twofold)
from dgbs.serialize import circuit_from_config
from dgbs.states import (AMatrix, GaussianState, SourceConfig,
                         TransferMatrix, block_swap, build_classical_input,
                         build_input_state, propagate)


def kernel_for(cfg, d, eta=0.6, seed=0):
    return StateKernel.from_state(
        propagate(build_input_state(cfg, d), lossy_transfer(d, eta, seed)))


def probability(kern, n, model=ModelSpec()):
    """pr(n) of the one counts row n, through the batched evaluator."""
    return kern.pattern_probabilities([n], model)[0]


class TestModelSpec:
    def test_parse_forms(self):
        assert ModelSpec.parse("korder(4)").k == 4
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
        g = kern.gamma
        want = abs(g[0] * g[2] * g[3]) ** 2 * kern.p_vac
        assert got == pytest.approx(want, rel=1e-12)

    def test_korder_prefix(self):
        kern = kernel_for(SourceConfig(r=0.4, alpha_mag=0.8, phi=0.5), 4)
        n = (1, 1, 1, 0)
        terms = kern.pattern_terms([n])[0]
        for k in range(3):
            want = max(terms[:k + 1].sum().real, 0.0) * kern.p_vac
            assert probability(kern, n, ModelSpec("korder", k)) == want
        # korder(k) with k >= N is the full model, evaluated the same way
        full = probability(kern, n)
        assert probability(kern, n, ModelSpec("korder", 3)) == full
        assert probability(kern, n, ModelSpec("korder", 99)) == full

    def test_non_real_probability_is_numerical_error(self):
        kern = kernel_for(SourceConfig(r=0.4, alpha_mag=0.8), 3)
        # halves not conjugate: gamma_0 * gamma_{0+d} = (1+1j)^2 = 2j
        bad = StateKernel(kern.a, np.full(6, 1 + 1j), kern.log_p_vac)
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
            all_patterns(40, 20, collision_free=True)

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


@st.composite
def count_batches(draw):
    """A (P, d) counts array of one photon total: each row the counts of
    ``total`` modes drawn with repeats, so collisions are frequent."""
    d = draw(st.integers(1, 15))
    total = draw(st.integers(0, 10))
    rows = draw(st.lists(st.lists(st.integers(0, d - 1), min_size=total,
                                  max_size=total), max_size=8))
    counts = np.zeros((len(rows), d), dtype=np.int64)
    for p, modes in enumerate(rows):
        np.add.at(counts[p], modes, 1)
    return counts


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(counts=count_batches())
@example(counts=np.zeros((0, 4), dtype=np.int64))
@example(counts=np.zeros((3, 5), dtype=np.int64))
@example(counts=np.array([[0, 3, 0, 1], [2, 0, 0, 2], [4, 0, 0, 0]]))
def test_pattern_index_matches_row_by_row_reference(counts):
    # row p: each mode i, then i + d, n_i times
    d = counts.shape[1]
    want = []
    for row in counts.tolist():
        modes = [i for i in range(d) for _ in range(row[i])]
        want.append(modes + [i + d for i in modes])
    total = int(counts[0].sum()) if len(counts) else 0
    index = _pattern_index(counts)
    assert index.shape == (len(counts), 2 * total)
    assert index.tolist() == want


def test_pattern_index_refuses_mixed_totals():
    with pytest.raises(ConfigurationError, match="one photon total"):
        _pattern_index(np.array([[1, 0, 0], [1, 1, 0]]))
    with pytest.raises(ConfigurationError, match="one photon total"):
        _pattern_index(np.array([[0, 0], [0, 1]]))


def test_pattern_index_repeats(rng):
    d = 3
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c = (h + h.conj().T) / 2
    a = AMatrix(d, (b + b.T) / 2, c)
    half = rng.normal(size=d) + 1j * rng.normal(size=d)
    g = np.concatenate([half, half.conj()])
    idx = _pattern_index(np.array([(2, 0, 1)]))[0]
    a_n, gamma_tilde = a.full[np.ix_(idx, idx)], g[idx]
    assert a_n.shape == (6, 6)
    assert len(idx) // 2 == 3
    # first two rows are the duplicated mode-0 row
    assert_allclose(a_n[0], a_n[1])
    assert gamma_tilde[0] == g[0]
    assert gamma_tilde[2] == g[2]
    assert gamma_tilde[3] == np.conj(g[0])


def assert_same_kernel(got: StateKernel, want: StateKernel):
    for x, y in ((got.a.full, want.a.full), (got.gamma, want.gamma),
                 (got.log_p_vac, want.log_p_vac), (got.p_vac, want.p_vac)):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("workload", ["tables-d15", "fringes-d15", "lab-d6"])
def test_for_model_matches_the_state_builders(workload):
    # each seed-0 workload circuit: the classical model reads the classical
    # input's kernel, every other model the quantum input's; the lock reads
    # the quantum kernel at coherent phase 0
    configs, _ = benchmark_workloads().build(workload, 0)
    for config in configs.values():
        source, t = circuit_from_config(config)
        for text in ("full", "korder(2)", "squeezer_only", "classical"):
            model = ModelSpec.parse(text)
            build = build_classical_input if model.kind == "classical" \
                else build_input_state
            assert_same_kernel(
                StateKernel.for_model(source, t, model),
                StateKernel.from_state(propagate(build(source, t.d), t)))
        at_zero = replace(source, phi=0.0)
        assert_same_kernel(lock_kernel(source, t),
                           StateKernel.for_model(at_zero, t))
        assert_same_kernel(lock_kernel(source, t), StateKernel.from_state(
            propagate(build_input_state(at_zero, t.d), t)))


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
        # fractional counts that sum to the total are refused, not truncated
        with pytest.raises(ConfigurationError, match="nonnegative integers"):
            PatternDistribution(3, 2, False, [[1.7, 0.3, 1]], [1.0])
        dist = PatternDistribution(3, 2, False, [[1.0, 0, 1]], [1.0])
        assert dist.patterns.dtype == np.int64
        assert dist.patterns.tolist() == [[1, 0, 1]]

    def test_kernel_without_pvac_matches_normalized(self):
        # the p_vac prefactor cancels in normalized fixed-N distributions
        from dgbs.states import a_matrix
        st = propagate(build_input_state(SourceConfig(r=0.4, alpha_mag=0.7), 4),
                       lossy_transfer(4, 0.5, seed=5))
        full = StateKernel.from_state(st)
        bare = StateKernel(a_matrix(st),
                           st.gamma_and_log_p_vac(st.delta)[0], 0.0)
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


def photon_number_series(kern: StateKernel, n_max: int) -> np.ndarray:
    """P(N) for N = 0..n_max, independent of the pattern tables, from one
    eigendecomposition A X = R diag(lam) R^-1 (X the block swap): with
    a_i = (gamma^T X R)_i (R^-1 gamma)_i and
    c_n = (sum_i a_i lam_i^(n-1) + sum_i lam_i^n / n) / 2, the generating
    function sum_N P_N z^N = p_vac exp(sum_n c_n z^n) gives the recursion
    N P_N = sum_k k c_k P_(N-k) from P_0 = p_vac."""
    x = block_swap(kern.d)
    lam, r = np.linalg.eig(kern.a.full @ x)
    a = (kern.gamma @ x @ r) * np.linalg.solve(r, kern.gamma)
    c = [0.0] + [(np.sum(a * lam ** (n - 1)) + np.sum(lam ** n) / n) / 2
                 for n in range(1, n_max + 1)]
    p = [kern.p_vac]
    for n in range(1, n_max + 1):
        p.append(sum(k * c[k] * p[n - k] for k in range(1, n + 1)) / n)
    return np.array(p)


def assert_sector_sums_match_the_series(kern: StateKernel, n_max: int):
    # every pattern of each photon total, collisions included
    sums = [kern.pattern_probabilities(
        all_patterns(kern.d, total, collision_free=False)).sum()
        for total in range(n_max + 1)]
    series = photon_number_series(kern, n_max)
    assert np.all(np.abs(sums - series) <= 1e-13 * np.abs(series))


@pytest.mark.parametrize("build", [build_input_state, build_classical_input])
@pytest.mark.parametrize("workload", ["tables-d15", "fringes-d15", "lab-d6"])
def test_sector_sums_match_the_photon_number_series(workload, build):
    # the full and classical kernels of each seed-0 workload circuit,
    # N <= 4 at d = 15 and N <= 6 at d = 6 (and the oracle's d = 3)
    configs, _ = benchmark_workloads().build(workload, 0)
    for config in configs.values():
        source, t = circuit_from_config(config)
        kern = StateKernel.from_state(propagate(build(source, t.d), t))
        assert_sector_sums_match_the_series(kern, 4 if t.d == 15 else 6)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       classical=st.booleans())
def test_sector_sums_match_the_series_on_random_states(d, seed, classical):
    # the first d modes of a lossy 4-mode circuit's output, N <= 5
    rng = np.random.default_rng(seed)
    cfg = SourceConfig(r=rng.uniform(0, 0.8), alpha_mag=rng.uniform(0, 1.2),
                       phi=rng.uniform(0, 6.3))
    build = build_classical_input if classical else build_input_state
    state = propagate(build(cfg, 4), lossy_transfer(4, rng.uniform(0.3, 1),
                                                    seed))
    keep = np.r_[0:d, 4:4 + d]
    kern = StateKernel.from_state(GaussianState(
        d, state.sigma[np.ix_(keep, keep)], state.delta[keep]))
    assert_sector_sums_match_the_series(kern, 5)
