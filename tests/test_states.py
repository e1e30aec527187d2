import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies
from numpy.testing import assert_allclose

from conftest import haar_unitary, lossy_transfer
from dgbs.errors import ConfigurationError, NumericalError, PhysicalityError
from dgbs.states import (AMatrix, GammaVector, GaussianState, SourceConfig,
                         TransferMatrix, a_matrix, build_classical_input,
                         build_input_state, closest_classical_state,
                         gamma_vector, log_vacuum_probability, propagate,
                         state_from_a, vacuum_probability, vacuum_state)


class TestGaussianState:
    def test_vacuum(self):
        v = vacuum_state(2)
        assert_allclose(v.sigma, np.eye(4) / 2)
        assert_allclose(v.mean_photons, 0.0, atol=1e-15)
        assert vacuum_probability(v) == pytest.approx(1.0)

    def test_block_structure_enforced(self):
        sigma = np.eye(4) / 2
        sigma[0, 1] = 0.3  # breaks G hermiticity pairing with lower block
        with pytest.raises(PhysicalityError):
            GaussianState(2, sigma, np.zeros(4))

    def test_delta_pairing_enforced(self):
        delta = np.array([1.0, 2.0], dtype=complex)
        with pytest.raises(PhysicalityError):
            GaussianState(1, np.eye(2) / 2, delta)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("where", ["sigma", "delta"])
    def test_non_finite_entries_rejected(self, where, value):
        sigma, delta = np.eye(2, dtype=complex) / 2, np.zeros(2, dtype=complex)
        if where == "sigma":
            sigma[0, 0] = sigma[1, 1] = value
        else:
            delta[:] = value
        with pytest.raises(NumericalError, match="not finite"):
            GaussianState(1, sigma, delta)

    def test_squeezing_beyond_float_range_rejected(self):
        # sinh(400)^2 overflows: the covariance holds inf, which used to
        # stop eigvalsh with a LinAlgError
        with np.errstate(all="ignore"), \
                pytest.raises(NumericalError, match="not finite"):
            build_input_state(SourceConfig(r=400), 3)

    def test_content_hash_stable(self):
        a = vacuum_state(2).content_hash()
        b = vacuum_state(2).content_hash()
        assert a == b and len(a) == 16


class TestSources:
    def test_tmsv_mean_photons(self):
        cfg = SourceConfig(r=0.5)
        st = build_input_state(cfg, 3)
        n = math.sinh(0.5) ** 2
        assert_allclose(st.mean_photons, [n, n, 0.0], atol=1e-12)

    def test_coherent_vacuum_probability(self):
        cfg = SourceConfig(r=0.0, alpha_mag=0.8, phi=1.1)
        st = build_input_state(cfg, 3)
        assert vacuum_probability(st) == pytest.approx(math.exp(-0.64))

    def test_tmsv_vacuum_probability(self):
        st = build_input_state(SourceConfig(r=0.7), 3)
        assert vacuum_probability(st) == pytest.approx(1 / math.cosh(0.7) ** 2)

    def test_source_loss_scales_moments(self):
        cfg = SourceConfig(r=0.4, alpha_mag=0.5, eta_c=0.36)
        st = build_input_state(cfg, 3)
        n = 0.36 * math.sinh(0.4) ** 2
        assert_allclose(st.mean_photons[:2], [n, n], atol=1e-12)
        assert st.mean_photons[2] == pytest.approx(0.36 * 0.25)

    def test_from_detected_means_round_trip(self):
        cfg = SourceConfig.from_detected_means(0.02, 0.7, eta_tot=0.1)
        assert cfg.alpha_mag == pytest.approx(math.sqrt(0.7))
        assert 0.1 * math.sinh(cfg.r) ** 2 == pytest.approx(0.02)

    def test_port_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceConfig(squeezer_ports=(0, 1), coherent_port=1)


class TestTransfer:
    def test_sub_unitarity_enforced(self):
        with pytest.raises(PhysicalityError):
            TransferMatrix.square(1.2 * np.eye(2))

    def test_mode_map_embedding(self):
        t = TransferMatrix(1, 2, np.array([[0.6, 0.8]]), input_ports=(1,))
        e = t.embedded()
        assert_allclose(e[1], [0.6, 0.8])
        assert_allclose(e[0], 0.0)
        assert_allclose(t.mode_map(), e.T)

    def test_propagate_preserves_vacuum(self):
        t = lossy_transfer(3, 0.5, seed=0)
        out = propagate(vacuum_state(3), t)
        assert_allclose(out.sigma, np.eye(6) / 2, atol=1e-12)

    def test_loss_variances_match_closed_form(self):
        # single squeezed-vacuum quadrature variances through loss eta
        r, eta = 0.6, 0.3
        d = 2
        sigma = np.eye(2 * d, dtype=complex) / 2
        sh, ch = math.sinh(r), math.cosh(r)
        sigma[0, 0] += sh ** 2
        sigma[d, d] += sh ** 2
        sigma[0, d] = sigma[d, 0] = sh * ch
        st = propagate(GaussianState(d, sigma, np.zeros(2 * d)),
                       TransferMatrix.square(math.sqrt(eta) * np.eye(d)))
        g = st.gamma_block[0, 0].real
        m = st.m_block[0, 0].real
        v_plus = 2 * (g + m)   # vacuum-is-1 units
        v_minus = 2 * (g - m)
        assert v_plus == pytest.approx(eta * math.exp(2 * r) + 1 - eta)
        assert v_minus == pytest.approx(eta * math.exp(-2 * r) + 1 - eta)


class TestKernel:
    def test_tmsv_b_block(self):
        st = build_input_state(SourceConfig(r=0.45), 3)
        a = a_matrix(st)
        th = math.tanh(0.45)
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = th
        assert_allclose(a.b, want, atol=1e-12)
        assert_allclose(a.c, 0.0, atol=1e-12)

    def test_gamma_coherent(self):
        st = build_input_state(SourceConfig(alpha_mag=0.5, phi=0.3), 3)
        g = gamma_vector(st)
        alpha = 0.5 * np.exp(0.3j)
        assert g.gamma[2] == pytest.approx(np.conj(alpha))
        assert g.gamma[5] == pytest.approx(alpha)

    def test_one_factorisation_per_state(self, monkeypatch):
        import dgbs.states
        from dgbs.probability import StateKernel
        calls = []
        real = dgbs.states.cholesky

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(dgbs.states, "cholesky", counting)
        cfg = SourceConfig(r=0.4, alpha_mag=0.7, phi=0.9)
        st = propagate(build_input_state(cfg, 4), lossy_transfer(4, 0.6, seed=3))
        calls.clear()
        kern = StateKernel.from_state(st)
        assert len(calls) == 1
        assert kern.log_p_vac == log_vacuum_probability(st)
        assert len(calls) == 1

    @pytest.mark.parametrize("low, refused", [(1e-13, True), (1e-11, False)])
    def test_condition_limit(self, low, refused):
        # Sigma_Q = [[g, m], [m, g]] has the eigenvalues g - m = low and
        # g + m = 1, so its condition number is 1 / low; COND_LIMIT is 1e12
        from dgbs.probability import StateKernel
        g, m = (1 + low) / 2, (1 - low) / 2
        sigma = np.array([[g, m], [m, g]], dtype=complex) - np.eye(2) / 2
        st = GaussianState(1, sigma, np.zeros(2))
        if refused:
            with pytest.raises(NumericalError, match="condition number"):
                StateKernel.from_state(st)
        else:
            assert StateKernel.from_state(st).d == 1

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(d=strategies.integers(1, 8),
           seed=strategies.integers(0, 2 ** 32 - 1))
    def test_sigma_q_inverse_matches_scipy(self, d, seed):
        # a lossy circuit fed with displaced single-mode squeezed states
        from scipy.linalg import cho_factor, cho_solve
        rng = np.random.default_rng(seed)
        r, theta = rng.uniform(0, 1.5, d), rng.uniform(-math.pi, math.pi, d)
        g = np.diag(np.cosh(2 * r)) / 2
        m = np.diag(np.exp(1j * theta) * np.sinh(2 * r)) / 2
        alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
        source = GaussianState(d, np.block([[g, m], [m.conj(), g]]),
                              np.concatenate([alpha, alpha.conj()]))
        state = propagate(source, lossy_transfer(d, rng.uniform(0.05, 1), seed))
        sq, inv = state.sigma_q_solve
        ref = cho_solve(cho_factor((sq + sq.conj().T) / 2),
                        np.eye(2 * d, dtype=complex))
        assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(sq @ inv - np.eye(2 * d)).max() <= 1e-12

    def test_state_round_trip(self):
        t = lossy_transfer(4, 0.6, seed=3)
        cfg = SourceConfig(r=0.4, alpha_mag=0.7, phi=0.9)
        st = propagate(build_input_state(cfg, 4), t)
        back = state_from_a(a_matrix(st), gamma_vector(st))
        assert_allclose(back.sigma, st.sigma, atol=1e-10)
        assert_allclose(back.delta, st.delta, atol=1e-10)

    def test_a_matrix_blocks_validated(self):
        with pytest.raises(PhysicalityError):
            AMatrix(2, np.array([[0, 1.0], [0.5, 0]]), np.eye(2))
        with pytest.raises(PhysicalityError):
            AMatrix(2, np.zeros((2, 2)), np.array([[0, 1j], [1j, 0]]))

    def test_unphysical_kernel_rejected(self):
        a = AMatrix(1, np.array([[1.5]]), np.zeros((1, 1)))
        with pytest.raises(PhysicalityError):
            state_from_a(a, GammaVector(np.zeros(2)))

    def test_gamma_from_halves(self):
        g = GammaVector.from_halves(np.array([1 + 2j]))
        assert g.gamma[1] == 1 - 2j


class TestClassical:
    def test_lossless_limit_is_vacuum(self):
        p = closest_classical_state(0.5, 1.0)
        assert p.n_th == pytest.approx(0.0, abs=1e-12)
        assert p.s == pytest.approx(0.0, abs=1e-12)

    def test_v_minus_is_one(self):
        for r, eta in [(0.3, 0.1), (0.6, 0.5), (1.0, 0.8)]:
            p = closest_classical_state(r, eta)
            _, v_minus = p.quad_variances()
            assert v_minus == pytest.approx(1.0, abs=1e-10)

    def test_surrogate_is_physical_and_classical(self):
        cfg = SourceConfig(r=0.3, alpha_mag=1.0, eta_c=0.1)
        st = build_classical_input(cfg, 4)
        # classicality: Sigma - I/2 positive semidefinite (P function exists)
        eigs = np.linalg.eigvalsh(st.sigma - np.eye(8) / 2)
        assert eigs.min() > -1e-10

    def test_surrogate_coherent_attenuated(self):
        cfg = SourceConfig(r=0.3, alpha_mag=1.0, eta_c=0.25)
        st = build_classical_input(cfg, 4)
        assert abs(st.delta[2]) == pytest.approx(0.5)


def test_log_vacuum_probability_consistency():
    st = build_input_state(SourceConfig(r=0.3, alpha_mag=0.4), 3)
    assert math.exp(log_vacuum_probability(st)) == pytest.approx(
        vacuum_probability(st))
