import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import haar_unitary, lossy_transfer
from dgbs.errors import ConfigurationError
from dgbs.experiment import (ClickTable, DriftModel, PidConfig,
                             auto_select_pairs, build_error_signal,
                             lock_kernel, pid_lock,
                             sample_patterns, sample_patterns_with_phase,
                             simulate_records, transfer_from_singles,
                             tune_pid_gains, twofold_rates_from_state)
from dgbs.hafnian import DetectionPattern
from dgbs.probability import ModelSpec, StateKernel, predict_twofold
from dgbs.states import SourceConfig, TransferMatrix, build_input_state, propagate


def standard(d=4, eta=0.5, seed=0, **kw):
    cfg = SourceConfig(r=0.4, alpha_mag=0.8, **kw)
    t = lossy_transfer(d, eta, seed)
    return cfg, t, propagate(build_input_state(cfg, d), t)


class TestSampling:
    def test_frequencies_match_probabilities(self):
        _, _, st = standard()
        kern = StateKernel.from_state(st)
        table = sample_patterns(st, ModelSpec(), pulses=200_000, n_max=2, seed=3)
        n = DetectionPattern((1, 0, 1, 0))
        want = kern.pattern_probability(n)
        got = np.mean(table.bitmasks == 0b0101)
        sigma = math.sqrt(want * (1 - want) / len(table))
        assert abs(got - want) < 5 * sigma

    def test_seeded_reproducibility(self):
        _, _, st = standard()
        a = sample_patterns(st, ModelSpec(), 5000, 3, seed=11)
        b = sample_patterns(st, ModelSpec(), 5000, 3, seed=11)
        assert np.array_equal(a.bitmasks, b.bitmasks)

    def test_discard_bucket(self):
        _, _, st = standard()
        table = sample_patterns(st, ModelSpec(), 50_000, n_max=1, seed=0)
        assert (table.bitmasks == -1).any()
        assert table.patterns().sum(axis=1).max() <= 1

    def test_click_table_csv(self):
        _, _, st = standard()
        table = sample_patterns(st, ModelSpec(), 10, 2, seed=0)
        lines = table.to_csv().splitlines()
        assert lines[0] == "pulse,bitmask_hex,phi"
        assert len(lines) == 11

    def test_phase_coupled_sampling(self):
        cfg, t, _ = standard()
        phis = np.array([0.0, 0.0, math.pi / 4, math.pi / 4])
        table = sample_patterns_with_phase(cfg, t, ModelSpec(), phis, 2, seed=0)
        assert len(table) == 4
        assert_allclose(table.phi, phis)


class TestSimulatedRecords:
    def test_noiseless_rates_match_predictions(self):
        cfg, t, st = standard()
        kern = StateKernel.from_state(st)
        recs = simulate_records(cfg, t, second_input_port=3,
                                phi_grid=np.linspace(0, 2 * math.pi, 8,
                                                     endpoint=False),
                                pulses_per_setting=math.inf)
        inp1 = recs["input1"]
        for i, phv in enumerate(inp1.phi):
            _, want = predict_twofold(kern, 0, 2, phv)
            got = (inp1.twofolds[(0, 2)] / inp1.p_vac)[i]
            assert got == pytest.approx(want, rel=1e-9)

    def test_noise_shrinks_with_pulses(self):
        cfg, t, st = standard()
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        exact = simulate_records(cfg, t, phi_grid=grid,
                                 pulses_per_setting=math.inf)
        errs = []
        for pulses in (1e4, 1e7):
            noisy = simulate_records(cfg, t, phi_grid=grid,
                                     pulses_per_setting=pulses, seed=0)
            errs.append(np.abs(noisy["input1"].singles
                               - exact["input1"].singles).max())
        assert errs[1] < errs[0]

    def test_second_port_collision_rejected(self):
        cfg, t, _ = standard()
        with pytest.raises(ConfigurationError):
            simulate_records(cfg, t, second_input_port=0,
                             phi_grid=np.linspace(0, 2 * math.pi, 8,
                                                  endpoint=False))


class TestPhaseLock:
    def setup_method(self):
        cfg, t, _ = standard(d=5, eta=0.6, seed=4)
        kern = lock_kernel(cfg, t)
        pairs = auto_select_pairs(kern, n_pairs=4)
        self.signal = build_error_signal(twofold_rates_from_state(kern), pairs)
        self.drift = DriftModel()

    def test_lock_beats_free_running(self):
        pid = tune_pid_gains(self.drift, self.signal, duration=20.0)
        locked = pid_lock(self.drift, pid, self.signal, duration=40.0, seed=1)
        free = pid_lock(self.drift, PidConfig(), self.signal,
                        duration=40.0, seed=1)
        assert not locked.diverged
        assert locked.residual_std < 0.1 * free.residual_std

    def test_drift_kinds(self):
        rng = np.random.default_rng(0)
        for kind in ("random_walk", "sinusoidal", "composite"):
            trace = DriftModel(kind=kind).trace(10.0, rng)
            assert len(trace) == 100
        with pytest.raises(ConfigurationError):
            DriftModel(kind="brownian_motion")

    def test_sinusoid_amplitude(self):
        rng = np.random.default_rng(0)
        trace = DriftModel(kind="sinusoidal", amplitude=1.8,
                           period=15.0).trace(30.0, rng)
        assert trace.max() - trace.min() == pytest.approx(3.6, abs=0.01)

    def test_error_signal_needs_pairs(self):
        with pytest.raises(ConfigurationError):
            build_error_signal(lambda phi: {}, [])


class TestTransferEstimation:
    def test_recovers_amplitudes(self):
        u = haar_unitary(4, seed=9)
        eta = 0.3
        truth = eta * np.abs(u) ** 2
        rates = 0.07 * truth  # unknown common brightness factor
        got = transfer_from_singles(rates, eta)
        assert_allclose(got, truth, atol=1e-12)

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            transfer_from_singles(np.array([[0.1, -0.1]]), 0.5)
        with pytest.raises(ConfigurationError):
            transfer_from_singles(np.zeros((2, 2)), 0.5)
