import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import haar_unitary, lossy_transfer
from dgbs.errors import ConfigurationError
from dgbs.experiment import (ClickTable, DriftModel, PidConfig,
                             auto_select_pairs, build_error_signal,
                             lock_kernel, pid_lock,
                             sample_patterns, sample_patterns_with_phase,
                             simulate_records, transfer_from_singles,
                             tune_pid_gains)
from dgbs.probability import ModelSpec, StateKernel, predict_twofold
from dgbs.states import SourceConfig, TransferMatrix, build_input_state, propagate


def standard(d=4, eta=0.5, seed=0, **kw):
    cfg = SourceConfig(r=0.4, alpha_mag=0.8, **kw)
    t = lossy_transfer(d, eta, seed)
    return cfg, t, propagate(build_input_state(cfg, d), t)


class TestSampling:
    def test_frequencies_match_probabilities(self):
        kern = StateKernel.from_state(standard()[2])
        table = sample_patterns(kern, ModelSpec(), pulses=200_000, n_max=2,
                                seed=3)
        want = kern.pattern_probabilities([(1, 0, 1, 0)])[0]
        got = np.mean(table.bitmasks == 0b0101)
        sigma = math.sqrt(want * (1 - want) / len(table))
        assert abs(got - want) < 5 * sigma

    def test_seeded_reproducibility(self):
        kern = StateKernel.from_state(standard()[2])
        a = sample_patterns(kern, ModelSpec(), 5000, 3, seed=11)
        b = sample_patterns(kern, ModelSpec(), 5000, 3, seed=11)
        assert np.array_equal(a.bitmasks, b.bitmasks)

    def test_discard_bucket(self):
        kern = StateKernel.from_state(standard()[2])
        table = sample_patterns(kern, ModelSpec(), 50_000, n_max=1, seed=0)
        assert (table.bitmasks == -1).any()
        assert table.patterns().sum(axis=1).max() <= 1

    def test_click_table_csv(self):
        kern = StateKernel.from_state(standard()[2])
        table = sample_patterns(kern, ModelSpec(), 10, 2, seed=0)
        lines = table.to_csv().splitlines()
        assert lines[0] == "pulse,bitmask_hex,phi"
        assert len(lines) == 11

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(pulses=st.integers(0, 300) | st.sampled_from(
               [4095, 4096, 4097, 8193, 10001]),
           d=st.integers(1, 62), seed=st.integers(0, 2 ** 32 - 1),
           phis=st.sampled_from(["zero", "constant", "signed_zeros", "any"]))
    @example(pulses=0, d=3, seed=0, phis="zero")       # empty table
    @example(pulses=1, d=3, seed=0, phis="signed_zeros")
    @example(pulses=11, d=4, seed=1, phis="signed_zeros")   # pulse 9 -> 10
    @example(pulses=10001, d=6, seed=2, phis="any")   # 9999 -> 10000
    @example(pulses=4097, d=62, seed=3, phis="any")   # one row past a block
    @example(pulses=8192, d=2, seed=4, phis="zero")   # two whole blocks
    def test_click_table_csv_matches_csv_writer(self, pulses, d, seed, phis):
        rng = np.random.default_rng(seed)
        masks = rng.integers(-1, 2 ** d, pulses)   # -1: a discard
        special = [-0.0, 0.0, math.pi / 4, -1e-300, 1e300, math.inf, math.nan]
        phi = {"zero": np.zeros(pulses),
               "constant": np.full(pulses, rng.normal()),
               "signed_zeros": rng.choice([-0.0, 0.0], pulses),
               "any": np.where(rng.random(pulses) < 0.5,
                               rng.choice(special, pulses),
                               rng.normal(0, 10, pulses))}[phis]
        table = ClickTable(masks, phi, d)
        assert table.to_csv() == csv_writer_text(table)

    def test_phase_coupled_click_table_csv(self):
        # per-pulse phis of a drifting lock, both zeros among them, over
        # more than one block of rows
        cfg, t, _ = standard()
        rng = np.random.default_rng(4)
        phis = np.cumsum(rng.normal(0, 0.05, 5000))
        phis[::7], phis[3::7] = -0.0, 0.0
        table = sample_patterns_with_phase(cfg, t, ModelSpec(), phis, 3,
                                           seed=5)
        assert (table.bitmasks == -1).any()
        text = table.to_csv()
        assert text == csv_writer_text(table)
        lines = text.splitlines()
        assert lines[1].endswith(",-0") and lines[4].endswith(",0")

    def test_phase_coupled_sampling(self):
        cfg, t, _ = standard()
        phis = np.array([0.0, 0.0, math.pi / 4, math.pi / 4])
        table = sample_patterns_with_phase(cfg, t, ModelSpec(), phis, 2, seed=0)
        assert len(table) == 4
        assert_allclose(table.phi, phis)


def csv_writer_text(table: ClickTable) -> str:
    """A click table's CSV written one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pulse", "bitmask_hex", "phi"])
    for i, (mask, phi) in enumerate(zip(table.bitmasks.tolist(),
                                        table.phi.tolist())):
        writer.writerow([i, format(mask, "x") if mask >= 0 else "discard",
                         f"{phi:.17g}"])
    return buf.getvalue()


class TestSimulatedRecords:
    def test_noiseless_rates_match_predictions(self):
        cfg, t, st = standard()
        kern = StateKernel.from_state(st)
        recs = simulate_records(cfg, t, second_input_port=3,
                                phi_grid=np.linspace(0, 2 * math.pi, 8,
                                                     endpoint=False),
                                pulses_per_setting=math.inf)
        inp1 = recs["input1"]
        twofold = inp1.rates[inp1.d + 1 + inp1.pairs.index((0, 2))]
        for i, phv in enumerate(inp1.phi):
            _, want = predict_twofold(kern, 0, 2, phv)
            got = (twofold / inp1.p_vac)[i]
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
        self.kern = kern = lock_kernel(cfg, t)
        pairs = auto_select_pairs(kern, n_pairs=4)
        self.signal = build_error_signal(kern, pairs)
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
            build_error_signal(self.kern, [])


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
