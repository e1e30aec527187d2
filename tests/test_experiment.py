import cmath
import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lossy_transfer
from dgbs.errors import ConfigurationError
from dgbs.experiment import (DRAW_BLOCK, GUIDE_CELLS, KI_GRID, KP_GRID,
                             LOCK_SETPOINT, ClickTable, DriftModel, PidConfig,
                             _draw, _sampler_patterns, _with_discard,
                             auto_select_pairs, build_error_signal,
                             lock_kernel, pid_lock, sample_patterns,
                             simulate_records, tune_pid_gains)
from dgbs.probability import (ModelSpec, StateKernel, TwofoldFringe,
                              predict_twofold)
from dgbs.serialize import CSV_BLOCK_ROWS, _csv_rows
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
        lines = b"".join(table.to_csv()).splitlines()
        assert lines[0] == b"pulse,bitmask_hex,phi"
        assert len(lines) == 11

    def test_sampler_table_csv(self):
        # a table built from the sampler's draws and its one phi writes the
        # bytes of the same pulses given one by one
        kern = StateKernel.from_state(standard()[2])
        table = sample_patterns(kern, ModelSpec(), 5000, n_max=1, seed=2,
                                phi=-0.0)
        assert (table.bitmasks == -1).any()
        text = b"".join(table.to_csv())
        assert text.splitlines()[1].endswith(b",-0")
        assert text == csv_writer_text(table)
        assert text == b"".join(ClickTable(
            *np.unique(table.bitmasks, return_inverse=True), table.phi,
            kern.d).to_csv())

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(pulses=st.integers(0, 300) | st.sampled_from(
               [4095, 4096, 4097, 8193, 10001]),
           d=st.integers(1, 62), seed=st.integers(0, 2 ** 32 - 1),
           phi=st.sampled_from([-0.0, 0.0, math.pi / 4, -1e-300, 1e300,
                                math.inf, math.nan])
           | st.floats(-30, 30))
    @example(pulses=0, d=3, seed=0, phi=0.0)        # empty table
    @example(pulses=1, d=3, seed=0, phi=-0.0)
    @example(pulses=11, d=4, seed=1, phi=-0.0)      # pulse 9 -> 10
    @example(pulses=10001, d=6, seed=2, phi=math.nan)   # 9999 -> 10000
    @example(pulses=4097, d=62, seed=3, phi=-1e-300)    # one row past a block
    @example(pulses=8192, d=2, seed=4, phi=0.0)     # two whole blocks
    def test_click_table_csv_matches_csv_writer(self, pulses, d, seed, phi):
        rng = np.random.default_rng(seed)
        masks = rng.integers(-1, 2 ** d, pulses)   # -1: a discard
        table = ClickTable(*np.unique(masks, return_inverse=True), phi, d)
        assert b"".join(table.to_csv()) == csv_writer_text(table)


def csv_writer_text(table: ClickTable) -> bytes:
    """The bytes of a click table's CSV written one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pulse", "bitmask_hex", "phi"])
    for i, mask in enumerate(table.bitmasks.tolist()):
        writer.writerow([i, format(mask, "x") if mask >= 0 else "discard",
                         f"{table.phi:.17g}"])
    return buf.getvalue().encode()


def sampler_probabilities(d=6, n_max=4):
    """The sampler's outcome probabilities for the d-mode standard circuit,
    discard bucket last."""
    kern = StateKernel.from_state(standard(d)[2])
    patterns, _ = _sampler_patterns(d, n_max)
    return _with_discard(kern.pattern_probabilities(patterns, ModelSpec()))


EDGE = 1 / GUIDE_CELLS
DRAW_CASES = {
    "sampler-d6": sampler_probabilities(),
    "zeros": np.array([0.0, 0.3, 0.0, 0.0, 0.1, 0.6, 0.0]),
    "one-outcome": np.array([1.0]),
    "all-discard": _with_discard(np.zeros(7)),
    # cdf values on cell edges, the first on the start of cell 1
    "cell-edges": np.array([EDGE, 0.5 - EDGE, 0.0, 0.25, 3 * EDGE,
                            0.25 - 3 * EDGE]),
    "every-edge": np.full(GUIDE_CELLS, EDGE),
    # many cdf values within one cell: its uniforms are searched
    "crowded-cell": np.append(np.full(300, 1e-7), 1 - 3e-5),
}


class TestDraw:
    # _draw makes rng.choice's draws, codes in the smallest unsigned dtype
    @pytest.mark.parametrize("case", DRAW_CASES)
    @pytest.mark.parametrize("pulses", [0, 1, DRAW_BLOCK - 1, DRAW_BLOCK,
                                        DRAW_BLOCK + 1, 3 * DRAW_BLOCK + 7])
    def test_draw_matches_rng_choice(self, case, pulses):
        probs = DRAW_CASES[case]
        for seed in (0, 1, 2 ** 32 - 1):
            want = np.random.default_rng(seed).choice(len(probs), pulses,
                                                      p=probs)
            got = _draw(np.random.default_rng(seed), probs, pulses)
            assert got.dtype == np.min_scalar_type(len(probs))
            assert np.array_equal(got, want)

    def test_draw_leaves_the_generator_as_rng_choice(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        probs = DRAW_CASES["sampler-d6"]
        a.choice(len(probs), 2 * DRAW_BLOCK + 3, p=probs)
        _draw(b, probs, 2 * DRAW_BLOCK + 3)
        assert a.random() == b.random()

    def test_sampler_codes_are_compact(self):
        kern = StateKernel.from_state(standard(6)[2])
        table = sample_patterns(kern, ModelSpec(), 100, 4, seed=0)
        assert table.outcome_codes.dtype == np.uint8

    def test_sample_peak_memory(self):
        # the draw holds its 1-byte codes and one block's uniforms; int64
        # codes and all the uniforms at once held 16 B a pulse
        kern = StateKernel.from_state(standard(6)[2])
        sample_patterns(kern, ModelSpec(), 100, 4, seed=0)   # plans cached
        pulses = 10 ** 6
        tracemalloc.start()
        try:
            table = sample_patterns(kern, ModelSpec(), pulses, 4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == pulses
        assert peak < 3 * pulses   # bytes; 1.5 MB measured


@pytest.mark.parametrize("numbers", [
    range(9_990, 10_010), range(99_999_990, 100_000_010),
    range(10 ** 12 - 10, 10 ** 12 + 10), range(0, 3), range(7, 8),
    range(7, 10 ** 9, 999_983), range(10 ** 16, 10 ** 16 - 50, -7),
    # 10,000 and 10**8 on a block's first row
    range(10_000 - CSV_BLOCK_ROWS, 10_000 + CSV_BLOCK_ROWS),
    range(10 ** 8 - 2 * CSV_BLOCK_ROWS, 10 ** 8 + CSV_BLOCK_ROWS + 5)],
    ids=lambda numbers: f"{numbers.start}-{numbers.stop}")
def test_range_pieces_written_as_str(numbers):
    # two range pieces of different widths in each row, as str writes them
    other = range(len(numbers) - 1, -1, -1)
    text = b"".join(_csv_rows(len(numbers), [numbers, ",", other, "\n"]))
    assert text == "".join(f"{a},{b}\n"
                           for a, b in zip(numbers, other)).encode()


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
        # a tuning run needs 3 drift steps: no gain acts before the third
        with pytest.raises(ConfigurationError, match="fewer than 3"):
            tune_pid_gains(self.drift, self.signal, duration=0.2)
        pid = tune_pid_gains(self.drift, self.signal, duration=20.0)
        locked = pid_lock(self.drift, pid, self.signal, duration=40.0, seed=1)
        free = pid_lock(self.drift, PidConfig(), self.signal,
                        duration=40.0, seed=1)
        assert not locked.diverged
        assert locked.residual_std < 0.1 * free.residual_std

    @pytest.mark.parametrize("seed", range(20))
    def test_tuned_gains_use_the_exact_slope(self, seed):
        # the tuned kp and ki are grid values over dS/dphi at the setpoint,
        # -4 Im(W e^{2 i phi}) of the pairs' one summed fringe
        cfg, t, _ = standard(d=6, eta=0.6, seed=seed)
        kern = lock_kernel(cfg, t)
        pairs = auto_select_pairs(kern)
        weight = sum(sign * TwofoldFringe.of(kern, j, k).weight
                     for j, k, sign in pairs)
        slope = -4 * (weight * cmath.exp(2j * LOCK_SETPOINT)).imag
        pid = tune_pid_gains(self.drift, build_error_signal(kern, pairs),
                             duration=3.0, seed=seed)
        assert min(abs(pid.kp * slope / kp - 1) for kp in KP_GRID) < 1e-12
        assert min(abs(pid.ki * slope - ki) for ki in KI_GRID) \
            < 1e-12 * max(KI_GRID)

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
