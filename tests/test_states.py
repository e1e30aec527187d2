import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies
from numpy.testing import assert_allclose

from conftest import haar_unitary, lossy_transfer
from dgbs.errors import ConfigurationError, NumericalError, PhysicalityError
from dgbs.fock import expand_inputs
from dgbs.probability import StateKernel
from dgbs.states import (AMatrix, GaussianState, SourceConfig,
                         TransferMatrix, a_matrix, build_classical_input,
                         build_input_state, closest_classical_state,
                         phase_scan, propagate, state_from_a)


def p_vac(state: GaussianState) -> float:
    return math.exp(state.gamma_and_log_p_vac(state.delta)[1])


def mean_photons(state: GaussianState) -> np.ndarray:
    """Per-mode mean photon number <a_j^dag a_j>: the diagonal of the
    covariance's G block less 1/2, plus |delta_j|^2."""
    d = state.d
    return np.diag(state.sigma)[:d].real - 0.5 + np.abs(state.delta[:d]) ** 2


def vacuum(d: int) -> GaussianState:
    """The vacuum: the input state of a source with r = 0 and alpha = 0."""
    return build_input_state(SourceConfig(r=0.0, alpha_mag=0.0), d)


class TestGaussianState:
    def test_vacuum(self):
        v = vacuum(3)
        assert_allclose(v.sigma, np.eye(6) / 2)
        assert_allclose(mean_photons(v), 0.0, atol=1e-15)
        assert p_vac(v) == pytest.approx(1.0)

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


class TestSources:
    def test_tmsv_mean_photons(self):
        cfg = SourceConfig(r=0.5)
        st = build_input_state(cfg, 3)
        n = math.sinh(0.5) ** 2
        assert_allclose(mean_photons(st), [n, n, 0.0], atol=1e-12)

    def test_coherent_vacuum_probability(self):
        cfg = SourceConfig(r=0.0, alpha_mag=0.8, phi=1.1)
        st = build_input_state(cfg, 3)
        assert p_vac(st) == pytest.approx(math.exp(-0.64))

    def test_tmsv_vacuum_probability(self):
        st = build_input_state(SourceConfig(r=0.7), 3)
        assert p_vac(st) == pytest.approx(1 / math.cosh(0.7) ** 2)

    def test_source_loss_scales_moments(self):
        cfg = SourceConfig(r=0.4, alpha_mag=0.5, eta_c=0.36)
        st = build_input_state(cfg, 3)
        n = 0.36 * math.sinh(0.4) ** 2
        assert_allclose(mean_photons(st)[:2], [n, n], atol=1e-12)
        assert mean_photons(st)[2] == pytest.approx(0.36 * 0.25)

    def test_port_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceConfig(squeezer_ports=(0, 1), coherent_port=1)

    @pytest.mark.parametrize("ports, coherent", [((0, 1, 2), 3), ((0,), 2)])
    def test_squeezer_port_count_named(self, ports, coherent):
        # the overlap test read three or one squeezer port as an overlap
        with pytest.raises(ConfigurationError, match=re.escape(
                f"need 2 squeezer ports, got {ports}")):
            SourceConfig(squeezer_ports=ports, coherent_port=coherent)


@pytest.mark.parametrize("bad", [-1, "d", 1.5, True])
@pytest.mark.parametrize("builder", [
    "build_input_state", "build_classical_input", "phase_scan",
    "TransferMatrix", "expand_inputs"])
def test_a_port_outside_the_circuit_is_refused(builder, bad):
    # each was a silently wrong state (-1 is mode d - 1, True is mode 1,
    # and TransferMatrix read 1.5 as 1) or an IndexError; the oracle's
    # expansion spans 2d modes
    d = 6 if builder == "expand_inputs" else 3
    port = d if bad == "d" else bad
    # no squeezer on mode 1, which True equals
    cfg = SourceConfig(r=0.3, alpha_mag=0.5, squeezer_ports=(0, 2),
                       coherent_port=port)
    calls = {
        "build_input_state": lambda: build_input_state(cfg, d),
        "build_classical_input": lambda: build_classical_input(cfg, d),
        "phase_scan": lambda: phase_scan(
            cfg, lossy_transfer(d, 0.5, seed=0), [0.0, 1.0]),
        "TransferMatrix": lambda: TransferMatrix(
            2, d, np.eye(2, d) / 2, input_ports=(0, port)),
        "expand_inputs": lambda: expand_inputs(cfg, d, 2, eps=1.0),
    }
    with pytest.raises(ConfigurationError) as exc:
        calls[builder]()
    assert str(exc.value) == \
        f"input port {port!r} is not a mode of the {d}-mode circuit"


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
        out = propagate(vacuum(3), t)
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
        g = st.sigma[0, 0].real   # the G block
        m = st.sigma[0, d].real   # the M block
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

    def test_constructors_copy_what_they_freeze(self):
        # each stores a read-only copy, so the caller's own contiguous
        # complex arrays, which np.ascontiguousarray hands back as they
        # are, stay writeable
        st = build_input_state(SourceConfig(r=0.3, alpha_mag=0.5), 3)
        sigma, delta = np.array(st.sigma), np.array(st.delta)
        t = 0.8 * np.eye(3, dtype=complex)
        b, c = np.array(a_matrix(st).b), np.array(a_matrix(st).c)
        gamma = np.array(st.gamma_and_log_p_vac(st.delta)[0])
        state = GaussianState(3, sigma, delta)
        transfer = TransferMatrix.square(t)
        a = AMatrix(3, b, c)
        kern = StateKernel(a, gamma, 0.0)
        for given in (sigma, delta, t, b, c, gamma):
            assert given.flags.writeable
        for stored in (state.sigma, state.delta, transfer.t, a.b, a.c,
                       kern.gamma):
            assert not stored.flags.writeable

    def test_gamma_coherent(self):
        st = build_input_state(SourceConfig(alpha_mag=0.5, phi=0.3), 3)
        g = st.gamma_and_log_p_vac(st.delta)[0]
        alpha = 0.5 * np.exp(0.3j)
        assert g[2] == pytest.approx(np.conj(alpha))
        assert g[5] == pytest.approx(alpha)

    def test_one_factorisation_per_state(self, monkeypatch):
        # the eigendecomposition of Sigma_Q that validates a state is its
        # only factorisation: building a kernel or a phase scan adds none
        from dgbs.experiment import simulate_records
        from dgbs.probability import StateKernel
        calls, states = [], []

        def counting(name):
            real = getattr(np.linalg, name)

            def count(*args, **kw):
                calls.append(name)
                return real(*args, **kw)
            return count

        for name in ("eigh", "eigvalsh", "cholesky", "slogdet", "solve"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        post_init = GaussianState.__post_init__

        def validate(state):
            states.append(state)
            post_init(state)

        monkeypatch.setattr(GaussianState, "__post_init__", validate)
        cfg = SourceConfig(r=0.4, alpha_mag=0.7, phi=0.9)
        t = lossy_transfer(4, 0.6, seed=3)
        st = propagate(build_input_state(cfg, 4), t)
        assert calls == ["eigh"] * len(states) and len(states) == 2
        calls.clear()
        kern = StateKernel.from_state(st)
        assert kern.log_p_vac == st.gamma_and_log_p_vac(st.delta)[1]
        assert calls == []
        states.clear()
        phase_scan(cfg, t, np.linspace(0, 6, 7))
        assert calls == ["eigh"] * len(states) and len(states) == 2
        # simulate_records runs its three settings as one scan
        calls.clear()
        states.clear()
        simulate_records(cfg, t, second_input_port=3,
                         phi_grid=np.linspace(0, 6, 7))
        assert calls == ["eigh"] * len(states) and len(states) == 2

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
        sq, inv = state.sigma + np.eye(2 * d) / 2, state.sigma_q_inverse
        factor = cho_factor((sq + sq.conj().T) / 2)
        ref = cho_solve(factor, np.eye(2 * d, dtype=complex))
        assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(sq @ inv - np.eye(2 * d)).max() <= 1e-12
        # log det Sigma_Q = 2 sum log diag L from the Cholesky factor L
        logdet = 2 * np.log(np.diag(factor[0]).real).sum()
        delta = state.delta
        ref_log_p_vac = -(delta.conj() @ ref @ delta).real / 2 - logdet / 2
        _, log_p_vac = state.gamma_and_log_p_vac(delta)
        assert abs(log_p_vac - ref_log_p_vac) <= 1e-13

    def test_state_round_trip(self):
        t = lossy_transfer(4, 0.6, seed=3)
        cfg = SourceConfig(r=0.4, alpha_mag=0.7, phi=0.9)
        st = propagate(build_input_state(cfg, 4), t)
        back = state_from_a(a_matrix(st), st.gamma_and_log_p_vac(st.delta)[0])
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
            state_from_a(a, np.zeros(2))


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
    # a two-mode squeezed vacuum and a coherent beam on separate modes:
    # p_vac = exp(-|alpha|^2) / cosh(r)^2
    st = build_input_state(SourceConfig(r=0.3, alpha_mag=0.4), 3)
    assert p_vac(st) == pytest.approx(math.exp(-0.16) / math.cosh(0.3) ** 2)


def test_array_holding_records_compare_by_identity():
    # numpy's elementwise == made state == state raise ValueError (and so
    # `state in list`), and the generated __hash__ raised TypeError; the
    # classes that hold arrays compare and hash by identity, the scalar
    # configs by value
    from dgbs.experiment import LockResult
    from dgbs.metrics import LikelihoodTrace
    from dgbs.probability import distribution_from_kernel
    from dgbs.reconstruction import MeasurementRecord, ReconstructionResult
    cfg = SourceConfig(r=0.3, alpha_mag=0.5)
    state, twin = build_input_state(cfg, 3), build_input_state(cfg, 3)
    assert state != twin and not state == twin
    assert state in [twin, state] and twin not in [state]
    zeros = np.zeros((2, 2))
    instances = [
        state, lossy_transfer(3, 0.5, seed=0), a_matrix(state),
        distribution_from_kernel(StateKernel.from_state(state), 1),
        LikelihoodTrace(np.zeros(2)),
        MeasurementRecord("blocked", 2, math.inf, np.zeros((3, 1))),
        ReconstructionResult(2, zeros, zeros, np.zeros(2), zeros),
        LockResult(np.zeros(1), np.zeros(1), 0.0, 0.0, False)]
    assert len({hash(x) for x in instances}) == len(instances)
    assert SourceConfig(r=0.3) == SourceConfig(r=0.3)
    assert hash(SourceConfig(r=0.3)) == hash(SourceConfig(r=0.3))
