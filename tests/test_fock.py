import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import haar_unitary, lossy_transfer
from dgbs.errors import ConfigurationError, CutoffError
from dgbs.fock import (FockVector, _interfere, apply_interferometer,
                       choose_cutoff, coherent_fock, dilate_lossy,
                       expand_inputs, input_tail_mass, oracle_probability,
                       tmsv_fock, vacuum_fock)
from dgbs.hafnian import DetectionPattern
from dgbs.probability import StateKernel
from dgbs.states import (SourceConfig, TransferMatrix, build_input_state,
                         propagate)


class TestFockVectors:
    def test_coherent_norm_and_mean(self):
        v = coherent_fock(0.6, cutoff=20)
        assert v.norm_sq() == pytest.approx(1.0, abs=1e-12)
        mean = sum(n * abs(a) ** 2 for (n,), a in v.amplitudes.items())
        assert mean == pytest.approx(0.36, abs=1e-10)

    def test_tmsv_amplitudes(self):
        v = tmsv_fock(0.4, cutoff=10)
        t = math.tanh(0.4)
        assert v.amplitudes[(2, 2)] == pytest.approx(t ** 2 / math.cosh(0.4))
        assert (1, 2) not in v.amplitudes

    def test_tensor(self):
        v = coherent_fock(0.5, 4).tensor(vacuum_fock(1, 4))
        assert v.d == 2
        assert v.amplitudes[(1, 0)] == pytest.approx(
            coherent_fock(0.5, 4).amplitudes[(1,)])

    def test_expand_inputs_cutoff_guard(self):
        cfg = SourceConfig(r=1.2, alpha_mag=2.0)
        with pytest.raises(CutoffError):
            expand_inputs(cfg, 4, cutoff=2, eps=1e-3)


class TestInterferometer:
    def test_preserves_norm_and_photon_number(self):
        psi = tmsv_fock(0.4, 6).tensor(vacuum_fock(1, 6))
        u = haar_unitary(3, seed=2)
        out = apply_interferometer(psi, u)
        assert out.norm_sq() == pytest.approx(psi.norm_sq(), abs=1e-12)
        for ket, amp in out.amplitudes.items():
            assert sum(ket) % 2 == 0  # pair correlations survive

    def test_hong_ou_mandel(self):
        psi = FockVector(2, 2, {(1, 1): 1.0})
        bs = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        out = apply_interferometer(psi, bs)
        assert abs(out.amplitudes.get((1, 1), 0.0)) < 1e-12
        assert abs(out.amplitudes[(2, 0)]) ** 2 == pytest.approx(0.5)

    def test_projected_expansion_keeps_target_amplitudes(self):
        # the oracle's expansion drops monomials that overshoot the pattern
        # in the first modes; the amplitudes that reach it are unchanged
        psi = expand_inputs(SourceConfig(r=0.4, alpha_mag=0.7), 6, cutoff=6,
                            eps=0.05)
        w = dilate_lossy(lossy_transfer(3, 0.5, seed=4))
        full = apply_interferometer(psi, w)
        target = (2, 0, 1)
        kept = _interfere(psi, w, target)
        assert all(all(k <= n for k, n in zip(ket, target))
                   for ket in kept.amplitudes)
        want = {k: v for k, v in full.amplitudes.items() if k[:3] == target}
        assert {k: v for k, v in kept.amplitudes.items()
                if k[:3] == target} == want
        assert len(want) > 0

    def test_rejects_non_unitary(self):
        psi = vacuum_fock(2, 2)
        with pytest.raises(ConfigurationError):
            apply_interferometer(psi, np.eye(2) * 0.5)


class TestDilation:
    def test_unitary_with_top_left_block(self):
        t = lossy_transfer(3, 0.4, seed=1)
        w = dilate_lossy(t)
        assert_allclose(w @ w.conj().T, np.eye(6), atol=1e-10)
        assert_allclose(w[:3, :3], t.mode_map(), atol=1e-12)

    def test_identity_input(self):
        t = TransferMatrix.square(np.eye(2))
        w = dilate_lossy(t)
        assert_allclose(np.abs(w[:2, 2:]), 0.0, atol=1e-12)


class TestOracle:
    def test_matches_engine_lossy(self):
        cfg = SourceConfig(r=0.4, alpha_mag=0.7, phi=0.9)
        t = lossy_transfer(3, 0.5, seed=4)
        kern = StateKernel.from_state(propagate(build_input_state(cfg, 3), t))
        for pat in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 1)]:
            n = DetectionPattern(pat)
            want = kern.pattern_probability(n)
            got = oracle_probability(cfg, t, n)
            assert got == pytest.approx(want, abs=1e-6)

    def test_matches_engine_with_source_loss(self):
        cfg = SourceConfig(r=0.3, alpha_mag=0.5, eta_c=0.6, eta_d=0.8)
        t = TransferMatrix.square(haar_unitary(3, seed=6))
        kern = StateKernel.from_state(propagate(build_input_state(cfg, 3), t))
        n = DetectionPattern((1, 1, 0))
        assert oracle_probability(cfg, t, n) == pytest.approx(
            kern.pattern_probability(n), abs=1e-6)

    def test_pattern_dimension_checked(self):
        cfg = SourceConfig(r=0.2)
        t = TransferMatrix.square(np.eye(3))
        with pytest.raises(ConfigurationError):
            oracle_probability(cfg, t, DetectionPattern((1, 0)))

    def test_tail_mass_decreases(self):
        cfg = SourceConfig(r=0.5, alpha_mag=1.0)
        tails = [input_tail_mass(cfg, c) for c in (4, 8, 12)]
        assert tails[0] > tails[1] > tails[2] > 0

    def test_choose_cutoff_grows_with_brightness(self):
        t = TransferMatrix.square(np.eye(3))
        dim = choose_cutoff(SourceConfig(r=0.1, alpha_mag=0.2), t, 2)
        bright = choose_cutoff(SourceConfig(r=0.5, alpha_mag=1.0), t, 2)
        assert bright > dim

    def test_choose_cutoff_rejects_too_bright(self):
        t = TransferMatrix.square(np.eye(3))
        with pytest.raises(CutoffError):
            choose_cutoff(SourceConfig(r=1.5, alpha_mag=3.0), t, 2)
