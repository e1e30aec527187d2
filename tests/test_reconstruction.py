import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import lossy_transfer
from dgbs import reconstruction
from dgbs.errors import ConfigurationError, NumericalError, SchemaError
from dgbs.experiment import simulate_records
from dgbs.metrics import tvd
from dgbs.probability import (PatternDistribution, StateKernel, all_patterns,
                              distribution_from_kernel)
from dgbs.reconstruction import (FringeFits, MeasurementRecord, fit_fringe,
                                 gauge_fix, reconstruct, records_from_csv,
                                 records_to_csv)
from dgbs.states import SourceConfig, build_input_state, propagate

PHI_GRID = np.linspace(0, 10 * math.pi, 120, endpoint=False)


def csv_writer_text(records) -> str:
    """The records CSV written row by row through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["setting", "phi", "modes", "counts", "pulses"])
    for setting in ("blocked", "input1", "input2"):
        if setting not in records:
            continue
        rec = records[setting]
        finite = np.isfinite(rec.pulses)
        phis = [""] if rec.phi is None else [f"{p:.17g}" for p in rec.phi]
        labels = ["vac", *map(str, range(rec.d)),
                  *(f"{j}:{k}" for j, k in rec.pairs)]
        for i, phi in enumerate(phis):
            for label, rate in zip(labels, rec.rates[:, i]):
                writer.writerow([setting, phi, label,
                                 f"{rate * rec.pulses if finite else rate:.17g}",
                                 rec.pulses if finite else "inf"])
    return buf.getvalue()


def ground_truth(cfg, d, eta, seed):
    t = lossy_transfer(d, eta, seed)
    kern = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
    return t, kern


def reference_fringe_fit(phi, y, sig):
    """(offset, phasor b e^{ic}, residual, covariance) of each row: every
    2-pi window with >= 6 points fitted on its own by lstsq on the
    sqrt(w)-scaled design, then the 5 lowest-residual windows averaged."""
    start, two_pi = phi.min(), 2 * math.pi
    n_windows = max(1, int(np.floor((phi.max() - start) / two_pi + 1e-9)))
    out = []
    for row_y, row_sig in zip(y, sig):
        fits = []
        for w in range(n_windows):
            lo, hi = start + w * two_pi, start + (w + 1) * two_pi
            m = (phi >= lo - 1e-12) & (phi <= hi + 1e-12)
            if m.sum() < 6:
                continue
            p, v, s = phi[m], row_y[m], row_sig[m]
            noiseless = not s.any()
            wt = np.ones_like(s) if noiseless else \
                1 / np.maximum(s, s[s > 0].min()) ** 2
            x = np.stack([np.ones_like(p), np.cos(2 * p), np.sin(2 * p)], 1)
            beta = np.linalg.lstsq(x * np.sqrt(wt)[:, None], v * np.sqrt(wt),
                                   rcond=None)[0]
            rms = math.sqrt(np.sum(wt * (v - x @ beta) ** 2) / np.sum(wt))
            cov = np.zeros((3, 3)) if noiseless else \
                np.linalg.inv(x.T @ (x * wt[:, None]))
            fits.append((rms, beta, cov))
        best = sorted(fits, key=lambda f: f[0])[:5]
        betas = np.array([b for _, b, _ in best])
        out.append((betas[:, 0].mean(), (betas[:, 1] - 1j * betas[:, 2]).mean(),
                    np.mean([r for r, _, _ in best]),
                    sum(c for _, _, c in best) / len(best) ** 2))
    return out


def fit_rows(fits):
    """The rows of ``fits``, each a FringeFits of one row's scalars."""
    return [FringeFits(*(x[i] for x in fits)) for i in range(len(fits.offset))]


def fringe_grid(n_windows, short_tail, rng):
    """phi from 0 to exactly n_windows * 2 pi; each window's points span
    more than 0.98 of it, except a last window of 2-5 points if
    ``short_tail``."""
    points = [0.0, n_windows * 2 * math.pi]
    for w in range(n_windows):
        if short_tail and w == n_windows - 1:
            inner = rng.uniform(0.01, 0.99, rng.integers(1, 5))
        else:
            inner = np.concatenate([rng.uniform(0, 0.01, 1),
                                    rng.uniform(0.99, 1, 1),
                                    rng.uniform(0, 1, rng.integers(4, 20))])
        points += list(2 * math.pi * (w + inner))
    return np.sort(points)


class TestFringeFit:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(kinds=st.lists(st.sampled_from(["weighted", "zero", "zero_window"]),
                          min_size=1, max_size=8),
           n_windows=st.integers(1, 7), short_tail=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(kinds=["zero_window", "zero", "weighted", "weighted"],
             n_windows=7, short_tail=True, seed=0)
    def test_batched_fit_matches_per_window_lstsq(self, kinds, n_windows,
                                                  short_tail, seed):
        rng = np.random.default_rng(seed)
        short_tail = short_tail and n_windows > 1
        phi = fringe_grid(n_windows, short_tail, rng)
        p = len(kinds)
        offset = rng.uniform(0.5, 2, (p, 1))
        amp = rng.uniform(0.05, 0.5, (p, 1)) * offset
        y = offset + amp * np.cos(2 * phi + rng.uniform(-4, 4, (p, 1))) \
            + rng.normal(0, 0.01, (p, len(phi))) * amp
        sig = 0.01 * amp * rng.uniform(0.5, 2, (p, len(phi)))
        sig[rng.uniform(size=sig.shape) < 0.1] = 0.0   # floored sigmas
        w = rng.integers(n_windows)
        for row, kind in zip(sig, kinds):
            if kind == "zero":
                row[:] = 0.0
            elif kind == "zero_window":
                row[(phi >= w * 2 * math.pi) & (phi <= (w + 1) * 2 * math.pi)] = 0
        fits = fit_rows(fit_fringe(phi, y, sig))
        assert len(fits) == p
        # a row fits to the same bits alone as in the batch
        alone = fit_rows(fit_fringe(phi, y[-1:], sig[-1:]))[0]
        assert (alone.offset, alone.amplitude, alone.phase, alone.residual) \
            == (fits[-1].offset, fits[-1].amplitude, fits[-1].phase,
                fits[-1].residual)
        assert alone.covariance.tobytes() == fits[-1].covariance.tobytes()
        for fit, (a, phasor, residual, cov) in zip(
                fits, reference_fringe_fit(phi, y, sig)):
            assert fit.offset == pytest.approx(a, rel=1e-12)
            assert abs(fit.amplitude * np.exp(1j * fit.phase) - phasor) <= \
                1e-12 * abs(phasor)
            assert fit.residual == pytest.approx(residual, rel=1e-12)
            assert_allclose(fit.covariance, cov, rtol=1e-12,
                            atol=1e-12 * np.abs(cov).max())

    def test_exact_recovery(self):
        phi = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        y = 1.3 + 0.4 * np.cos(2 * phi + 0.9)
        fit, = fit_rows(fit_fringe(phi, y[None], np.zeros((1, phi.size))))
        assert fit.offset == pytest.approx(1.3, abs=1e-12)
        assert fit.amplitude == pytest.approx(0.4, abs=1e-12)
        assert fit.phase == pytest.approx(0.9, abs=1e-12)
        assert fit.residual < 1e-12

    def test_noisy_recovery_with_weights(self):
        rng = np.random.default_rng(5)
        phi = np.linspace(0, 2 * math.pi, 48, endpoint=False)
        sig = np.full_like(phi, 0.01)
        y = 1.0 + 0.3 * np.cos(2 * phi - 1.2) + rng.normal(0, 0.01, phi.size)
        fit, = fit_rows(fit_fringe(phi, y[None], sig[None]))
        assert fit.offset == pytest.approx(1.0, abs=0.01)
        assert fit.phase == pytest.approx(-1.2, abs=0.05)
        assert fit.sigma_phase < 0.05

    def test_short_scan_rejected(self):
        phi = np.linspace(0, math.pi, 10)
        with pytest.raises(ConfigurationError):
            fit_fringe(phi, np.ones((1, phi.size)), np.zeros((1, phi.size)))

    @pytest.mark.parametrize("sig", [0.0, 0.01])
    def test_degenerate_grid_rejected(self, sig):
        # six points spanning 2 pi at which sin 2phi is 0 (up to rounding):
        # the design's sin column carries nothing, so its Gram matrix is
        # singular whatever the weights
        phi = np.array([0, 0, 0.5, 1, 1.5, 2]) * math.pi
        y, sigmas = np.ones((2, phi.size)), np.full((2, phi.size), sig)
        with pytest.raises(ConfigurationError, match="degenerate phi grid"):
            fit_fringe(phi, y, sigmas)
        # the same count of points spread over the window fits
        spread = np.linspace(0, 2 * math.pi, 6)
        fit, _ = fit_rows(fit_fringe(spread, 1 + 0.3 * np.cos(2 * spread)
                                     * y, sigmas))
        assert fit.amplitude == pytest.approx(0.3, abs=1e-12)

    def test_overflowing_weights_rejected(self):
        # a sigma whose 1/sigma^2 overflows (a subnormal rate's Poisson
        # sigma) leaves no finite Gram matrix to take eigenvalues of; at
        # phi = 0 its sin 2phi is 0, and inf * 0 puts a NaN in it too
        phi = np.linspace(0, 2 * math.pi, 8)
        for at in (0, 3):
            sig = np.full((1, phi.size), 1e-3)
            sig[0, at] = 1e-160
            with pytest.raises(ConfigurationError, match="overflow"), \
                    np.errstate(over="ignore", invalid="ignore"):
                fit_fringe(phi, np.ones((1, phi.size)), sig)

    def test_windows_average_best(self):
        # seven windows, the third corrupted by large noise: the best five
        # leave it out
        rng = np.random.default_rng(2)
        phi = np.linspace(0, 14 * math.pi, 420, endpoint=False)
        y = 0.8 + 0.2 * np.cos(2 * phi + 0.4) + rng.normal(0, 0.005, phi.size)
        bad = (phi > 4 * math.pi) & (phi < 6 * math.pi)
        y[bad] += rng.normal(0, 2, bad.sum())
        fit, = fit_rows(fit_fringe(phi, y[None],
                                   np.full((1, phi.size), 0.005)))
        assert fit.amplitude == pytest.approx(0.2, abs=0.01)
        assert fit.phase == pytest.approx(0.4, abs=0.05)


class TestRecordsIO:
    def test_csv_round_trip(self):
        cfg = SourceConfig(r=0.3, alpha_mag=0.6)
        t = lossy_transfer(4, 0.5, seed=1)
        recs = simulate_records(cfg, t, second_input_port=3,
                                phi_grid=PHI_GRID[:60],
                                pulses_per_setting=math.inf,
                                include_collisions=True)
        back = records_from_csv(b"".join(records_to_csv(recs)).decode())
        for name, rec in recs.items():
            assert_allclose(back[name].singles, rec.singles, atol=1e-14)
            assert back[name].pairs == rec.pairs
            assert_allclose(back[name].rates[rec.d + 1:],
                            rec.rates[rec.d + 1:], atol=1e-14)
            assert_allclose(back[name].p_vac, rec.p_vac, atol=1e-14)

    def test_bad_header_rejected(self):
        with pytest.raises(SchemaError):
            records_from_csv("nope\n1,2,3\n")

    def test_leading_comments_skipped_and_counted(self):
        recs = simulate_records(SourceConfig(r=0.3, alpha_mag=0.6),
                                lossy_transfer(3, 0.5, seed=1),
                                phi_grid=PHI_GRID[:8],
                                pulses_per_setting=math.inf)
        text = b"".join(records_to_csv(recs)).decode()
        back = records_from_csv("# one\n# two\n" + text)
        for name, rec in recs.items():
            assert back[name].rates.tobytes() == rec.rates.tobytes()
        # line 1-2 comments, line 3 the header, line 4 the first row
        header, first, *rest = text.splitlines()
        bad = "\n".join(["# one", "# two", header, "input3" + first[7:],
                         *rest])
        with pytest.raises(SchemaError, match="line 4: unknown setting"):
            records_from_csv(bad)

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(d=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1),
           noisy=st.booleans(), collisions=st.booleans(),
           second=st.booleans())
    @example(d=12, seed=0, noisy=True, collisions=True, second=True)
    @example(d=11, seed=1, noisy=False, collisions=False, second=True)
    def test_tables_round_trip(self, d, seed, noisy, collisions, second):
        # d >= 3: the squeezer pair and the probe take three input ports
        rng = np.random.default_rng(seed)
        cfg = SourceConfig(r=rng.uniform(0.1, 0.6),
                           alpha_mag=rng.uniform(0.3, 1.2))
        recs = simulate_records(
            cfg, lossy_transfer(d, rng.uniform(0.3, 1), seed),
            second_input_port=3 if second and d > 3 else None,
            phi_grid=np.linspace(0, 2 * math.pi, 12, endpoint=False),
            pulses_per_setting=1e6 if noisy else math.inf,
            seed=seed % 1000, include_collisions=collisions)
        text = b"".join(records_to_csv(recs)).decode()
        assert text == csv_writer_text(recs)
        back = records_from_csv(text)
        assert back.keys() == recs.keys()
        for name, rec in recs.items():
            got = back[name]
            assert got.rates.tobytes() == rec.rates.tobytes()
            assert (got.d, got.pulses, got.pairs) == \
                (rec.d, rec.pulses, rec.pairs)
            assert (got.phi is None and rec.phi is None) or \
                got.phi.tobytes() == rec.phi.tobytes()
        # rows in any order read to the same tables, as long as each
        # setting's phi columns keep their order of first appearance; the
        # grid increases, so a stable sort on phi leaves the settings and
        # the observables shuffled within each column
        header, *rows = text.splitlines()
        rng.shuffle(rows)
        rows.sort(key=lambda row: float(row.split(",")[1] or 0))
        shuffled = records_from_csv("\n".join([header, *rows]) + "\n")
        for name, rec in recs.items():
            assert shuffled[name].rates.tobytes() == rec.rates.tobytes()
        assert reconstruct(back).payload() == reconstruct(recs).payload()

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            MeasurementRecord("blocked", 2, math.inf,
                              np.array([[0.9], [0.1], [1.5]]))


class TestRoundTrip:
    def test_noiseless_with_second_input(self):
        cfg = SourceConfig(r=0.4, alpha_mag=0.8)
        t = lossy_transfer(5, 0.4, seed=7)
        truth = StateKernel.from_state(propagate(build_input_state(cfg, 5), t))
        recs = simulate_records(cfg, t, second_input_port=3,
                                phi_grid=PHI_GRID,
                                pulses_per_setting=math.inf,
                                include_collisions=True)
        res = reconstruct(recs)
        assert res.flags == []
        b2, c2, gmag, _ = gauge_fix(truth.a.b, truth.a.c,
                                    truth.gamma[:5])
        assert_allclose(res.gamma, gmag, atol=1e-10)
        assert_allclose(res.b, b2, atol=1e-10)
        assert_allclose(res.c, c2, atol=1e-10)

    def test_state_at_coherent_phase_zero(self):
        # the phi grid's origin is coherent phase 0: the reconstruction is
        # the state there, whatever the config's phi
        cfg = SourceConfig(r=0.4, alpha_mag=0.8, phi=0.7)
        t = lossy_transfer(6, 0.5, seed=7)
        res = reconstruct(simulate_records(cfg, t, second_input_port=3,
                                           include_collisions=True))
        assert res.flags == []

        def fixed_truth(phi):
            kern = StateKernel.from_state(propagate(
                build_input_state(replace(cfg, phi=phi), 6), t))
            return gauge_fix(kern.a.b, kern.a.c, kern.gamma[:6])

        b0, c0, g0, _ = fixed_truth(0.0)
        assert_allclose(res.gamma, g0, atol=1e-10)
        assert_allclose(res.b, b0, atol=1e-10)
        assert_allclose(res.c, c0, atol=1e-10)
        # B of the gauge-fixed state moves with the coherent phase
        assert np.abs(res.b - fixed_truth(cfg.phi)[0]).max() > 0.1

    @staticmethod
    def flat_04_records():
        """Noiseless d = 6 records whose input-1 (0, 4) fringe is flat, the
        true kernel, and its gauge-fixed B and C."""
        cfg = SourceConfig(r=0.4, alpha_mag=0.8)
        t = lossy_transfer(6, 0.5, seed=7)
        truth = StateKernel.from_state(propagate(build_input_state(cfg, 6), t))
        recs = simulate_records(cfg, t, second_input_port=3)
        rec = recs["input1"]
        rates = rec.rates.copy()
        row = rec.d + 1 + rec.pairs.index((0, 4))
        rates[row] = rates[row].mean()
        recs["input1"] = replace(rec, rates=rates)
        b2, c2, _, _ = gauge_fix(truth.a.b, truth.a.c, truth.gamma[:6])
        return recs, truth, b2, c2

    def test_no_im_sign_without_a_mu_phase(self):
        # a flat input-1 (0, 4) fringe leaves B_04 unknown, so mode 4 has
        # no mu phase; phase 0 in its place gave Im C_24 the wrong sign
        recs, _, _, c2 = self.flat_04_records()
        res = reconstruct(recs)
        assert c2[2, 4].imag > 1e-3
        assert ("mu_phase_undetermined", 4) in res.flags
        assert [f for f in res.flags if 4 in f[1:] and len(f) == 3] == [
            ("im_sign_unknown", j, k)
            for j, k in ((0, 4), (1, 4), (2, 4), (3, 4), (4, 5))]
        assert res.c[2, 4].imag == 0 and (2, 4) in res.fallback_entries
        # the pairs of modes with a mu phase keep their signed Im C
        others = [(j, k) for j in range(6) for k in range(j + 1, 6)
                  if 4 not in (j, k)]
        assert_allclose([res.c[p].imag for p in others],
                        [c2[p].imag for p in others], atol=1e-10)

    def test_fallback_keeps_the_measured_magnitudes(self):
        # the optimizer rotates |C|, not the |Re C| of an unsigned entry
        recs, truth, b2, c2 = self.flat_04_records()
        res = reconstruct(recs)
        out = reconstruction.optimize_undetermined_phases(
            res, distribution_from_kernel(truth, 3), restarts=1)
        assert [e for e in out.optimizer_report["entries"] if 4 in e] == [
            [0, 4], [1, 4], [2, 4], [3, 4], [4, 5]]
        # 20 threefold patterns fix all five phases
        assert out.optimizer_report["free_phases"] == 0
        pairs = [(1, 4), (2, 4), (3, 4), (4, 5)]
        assert_allclose([abs(out.c[p]) for p in pairs],
                        [abs(c2[p]) for p in pairs], rtol=1e-10)
        # the flat fringe reads B_04 = 0, so |C_04| takes |B_04|^2 too
        assert_allclose(abs(out.c[0, 4]),
                        np.hypot(abs(b2[0, 4]), abs(c2[0, 4])), rtol=1e-10)

    def test_threefold_distribution_matches(self):
        cfg = SourceConfig(r=0.35, alpha_mag=0.7)
        t = lossy_transfer(5, 0.5, seed=9)
        truth = StateKernel.from_state(propagate(build_input_state(cfg, 5), t))
        recs = simulate_records(cfg, t, second_input_port=3,
                                phi_grid=PHI_GRID,
                                pulses_per_setting=math.inf,
                                include_collisions=True)
        res = reconstruct(recs)
        da = distribution_from_kernel(res.to_kernel(), 3)
        db = distribution_from_kernel(truth, 3)
        assert tvd(da, db) < 1e-10

    def test_missing_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            reconstruct({})

    def test_fallback_optimizer_without_second_input(self):
        cfg = SourceConfig(r=0.35, alpha_mag=0.7)
        t = lossy_transfer(4, 0.5, seed=3)
        truth = StateKernel.from_state(propagate(build_input_state(cfg, 4), t))
        recs = simulate_records(cfg, t, second_input_port=None,
                                phi_grid=PHI_GRID[:60],
                                pulses_per_setting=math.inf,
                                include_collisions=True)
        three = distribution_from_kernel(truth, 3)
        res = reconstruct(recs, threefolds=three, seed=0)
        assert res.fallback_entries  # Im C signs were undetermined
        assert res.optimizer_report["best_tvd"] < 1e-6

    def test_threefolds_of_other_d_rejected_before_any_fit(self,
                                                          monkeypatch):
        cfg = SourceConfig(r=0.35, alpha_mag=0.7)
        recs = simulate_records(cfg, lossy_transfer(4, 0.5, seed=3),
                                phi_grid=PHI_GRID[:60],
                                include_collisions=True)
        pats = all_patterns(9, 3, collision_free=True)
        three = PatternDistribution(9, 3, True, pats,
                                    np.full(len(pats), 1 / len(pats)))
        fits = []
        monkeypatch.setattr(reconstruction, "fit_fringe",
                            lambda *args: fits.append(args))
        with pytest.raises(ConfigurationError, match="4-mode patterns"):
            reconstruct(recs, threefolds=three)
        assert fits == []

    def test_optimizer_scores_only_domain_errors(self, monkeypatch):
        # a DgbsError scores a phase as the worst fit; a programming error
        # propagates
        cfg = SourceConfig(r=0.35, alpha_mag=0.7)
        t = lossy_transfer(4, 0.5, seed=3)
        truth = StateKernel.from_state(propagate(build_input_state(cfg, 4), t))
        res = reconstruct(simulate_records(cfg, t, phi_grid=PHI_GRID[:60],
                                           include_collisions=True))
        three = distribution_from_kernel(truth, 3)
        assert res.fallback_entries

        def failing(error):
            def evaluate(*args, **kwargs):
                raise error("evaluation failed")
            return evaluate

        monkeypatch.setattr(StateKernel, "pattern_probabilities",
                            failing(NumericalError))
        out = reconstruction.optimize_undetermined_phases(res, three,
                                                          restarts=1)
        assert out.optimizer_report["best_tvd"] == 1.0
        monkeypatch.setattr(StateKernel, "pattern_probabilities",
                            failing(TypeError))
        with pytest.raises(TypeError, match="evaluation failed"):
            reconstruction.optimize_undetermined_phases(res, three,
                                                        restarts=1)

    def test_without_pnr_diagonal_distribution_still_exact(self):
        # B_jj never enters collision-free pattern probabilities
        cfg = SourceConfig(r=0.4, alpha_mag=0.8)
        t = lossy_transfer(5, 0.4, seed=11)
        truth = StateKernel.from_state(propagate(build_input_state(cfg, 5), t))
        recs = simulate_records(cfg, t, second_input_port=3,
                                phi_grid=PHI_GRID,
                                pulses_per_setting=math.inf,
                                include_collisions=False)
        res = reconstruct(recs)
        assert not res.diag_known.any()
        da = distribution_from_kernel(res.to_kernel(), 3)
        db = distribution_from_kernel(truth, 3)
        assert tvd(da, db) < 1e-10

    def test_result_json_round_trips(self):
        import json
        from dgbs.serialize import canonical_json
        cfg = SourceConfig(r=0.3, alpha_mag=0.6)
        t = lossy_transfer(4, 0.5, seed=2)
        recs = simulate_records(cfg, t, second_input_port=3,
                                phi_grid=PHI_GRID[:60],
                                pulses_per_setting=math.inf,
                                include_collisions=True)
        res = reconstruct(recs)
        obj = json.loads(canonical_json(res.payload()))
        assert obj["d"] == 4
        assert len(obj["b"]) == 4


def unsigned_reconstruction(d, seed):
    """The noiseless reconstruction of a d-mode circuit without a second
    input, which leaves its Im C signs to the phase fallback, and the
    circuit's collision-free threefold table."""
    cfg = SourceConfig(r=0.35, alpha_mag=0.7)
    t = lossy_transfer(d, 0.5, seed=seed)
    truth = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
    res = reconstruct(simulate_records(cfg, t, second_input_port=None,
                                       phi_grid=PHI_GRID[:60],
                                       pulses_per_setting=math.inf,
                                       include_collisions=True))
    assert res.fallback_entries
    return res, distribution_from_kernel(truth, 3)


class TestPhaseFit:
    """The structure that the fallback's Levenberg-Marquardt fit relies on:
    each raw threefold probability is a + b cos + c sin in each phase."""

    @pytest.mark.parametrize("d, seed", [(4, 3), (4, 8), (5, 11)])
    @pytest.mark.parametrize("collision_free", [True, False])
    def test_threefolds_are_trigonometric_in_each_phase(self, d, seed,
                                                        collision_free):
        res, _ = unsigned_reconstruction(d, seed)
        patterns = all_patterns(d, 3, collision_free)
        rng = np.random.default_rng(seed)
        phases = rng.uniform(-math.pi, math.pi, len(res.fallback_entries))
        entry = rng.integers(len(phases))
        thetas = rng.uniform(-math.pi, math.pi, 5)
        raw = []
        for theta in thetas:
            phases[entry] = theta
            raw.append(reconstruction._completed(res, phases)
                       .pattern_probabilities(patterns))
        raw = np.array(raw)
        assert (raw > 0).all()   # no value was clamped
        design = np.stack([np.ones(5), np.cos(thetas), np.sin(thetas)], 1)
        coef = np.linalg.lstsq(design, raw, rcond=None)[0]
        assert np.abs(design @ coef - raw).max() <= 1e-12 * raw.max()

    @pytest.mark.parametrize("d, seed", [(4, 3), (5, 11)])
    def test_jacobian_matches_central_difference(self, d, seed):
        res, three = unsigned_reconstruction(d, seed)

        def table(phases):
            return reconstruction._completed(res, phases) \
                .pattern_probabilities(three.patterns)

        def normalised(phases):
            raw = table(phases)
            return raw / raw.sum()

        x = np.random.default_rng(seed).uniform(
            -math.pi, math.pi, len(res.fallback_entries))
        jac = reconstruction._normalised_jacobian(table, x, table(x))
        h = 1e-5
        central = np.array([(normalised(x + h * e) - normalised(x - h * e))
                            / (2 * h) for e in np.eye(len(x))])
        assert np.abs(jac - central).max() <= 1e-6 * np.abs(jac).max()


FLAG_STAGES = (("gamma_clamped",), ("b_undetermined",), ("b_clamped",),
               ("abs_clamped", "gamma_zero", "invalid_argument"),
               ("mu_phase_undetermined",),
               ("epsilon_degenerate", "im_inconsistent", "im_sign_unknown"),
               ("optimized",))


def flag_order(flag):
    """(stage, place in the stage, kind's place within one pair) of a flag.
    Modes come in their order, pairs in label-text order ("4:10" before
    "4:5")."""
    kind, *modes = flag
    stage = next(s for s, kinds in enumerate(FLAG_STAGES) if kind in kinds)
    place = modes[0] if len(modes) == 1 else "%d:%d" % tuple(modes)
    return stage, place, FLAG_STAGES[stage].index(kind)


def zeroed(row):
    return 0 * row


def raised(row):
    return row + row.mean()


# expected flag; the setting edited and the modes of its edited rate row
# (None: the setting is dropped); the edit; whether threefolds are passed
FLAG_CASES = [
    (("gamma_clamped", 4), "input1", (4,), zeroed, False),
    (("b_undetermined", 4, 10), "input1", (4,), zeroed, False),
    (("b_clamped", 1, 2), "blocked", (1, 2), zeroed, False),
    (("abs_clamped", 1, 2), "blocked", (1, 2), zeroed, False),
    (("gamma_zero", 4, 10), "input1", (4,), zeroed, False),
    (("invalid_argument", 1, 2), "input1", (1, 2), raised, False),
    (("mu_phase_undetermined", 4), "input1", (4,), zeroed, False),
    (("epsilon_degenerate", 5, 10), "input2", (5,), zeroed, False),
    (("im_inconsistent", 1, 2), "input2", (1, 2), raised, False),
    (("im_sign_unknown", 1, 2), "input2", None, None, False),
    (("optimized", 1, 2), "input2", (1, 2), raised, True),
]


class TestFlags:
    D = 11   # two-digit modes: label-text and mode order differ

    @pytest.fixture(scope="class")
    def noiseless(self):
        cfg = SourceConfig(r=0.4, alpha_mag=0.8)
        t = lossy_transfer(self.D, 0.5, seed=7)
        recs = simulate_records(
            cfg, t, second_input_port=3,
            phi_grid=np.linspace(0, 2 * math.pi, 12, endpoint=False),
            include_collisions=True)
        assert reconstruct(recs).flags == []
        truth = StateKernel.from_state(propagate(build_input_state(cfg,
                                                                   self.D), t))
        return recs, distribution_from_kernel(truth, 3)

    def test_cases_cover_every_kind(self):
        kinds = {kind for kinds in FLAG_STAGES for kind in kinds}
        assert {case[0][0] for case in FLAG_CASES} == kinds
        assert len(kinds) == 11

    @pytest.mark.parametrize("expected, setting, modes, edit, with_threefolds",
                             FLAG_CASES, ids=[c[0][0] for c in FLAG_CASES])
    def test_flag_kind(self, noiseless, expected, setting, modes, edit,
                       with_threefolds):
        recs, threefolds = noiseless
        recs = dict(recs)
        if modes is None:
            del recs[setting]
        else:
            rec = recs[setting]
            row = 1 + modes[0] if len(modes) == 1 else \
                rec.d + 1 + rec.pairs.index(modes)
            rates = rec.rates.copy()
            rates[row] = edit(rates[row])
            recs[setting] = replace(rec, rates=rates)
        res = reconstruct(recs,
                          threefolds=threefolds if with_threefolds else None)
        assert expected in res.flags
        assert res.flags == sorted(res.flags, key=flag_order)

    def test_pairs_of_every_stage_in_label_order(self, noiseless):
        # "5:10" before "5:6" in the optimized flags, as in the fitted
        # stages, and "0:10" before "0:2" in the im_sign_unknown flags of a
        # run without input2; the fallback entries keep mode order
        recs, threefolds = noiseless
        rec = recs["input2"]
        rates = rec.rates.copy()
        for pair in ((5, 6), (5, 10)):
            rates[rec.d + 1 + rec.pairs.index(pair)] = raised(
                rates[rec.d + 1 + rec.pairs.index(pair)])
        res = reconstruct({**recs, "input2": replace(rec, rates=rates)},
                          threefolds=threefolds)
        assert res.fallback_entries == [(5, 6), (5, 10)]
        assert res.flags[-2:] == [("optimized", 5, 10), ("optimized", 5, 6)]
        flags = reconstruct({name: rec for name, rec in recs.items()
                             if name != "input2"}).flags
        assert flags.index(("im_sign_unknown", 0, 10)) \
            < flags.index(("im_sign_unknown", 0, 2))


class TestGauge:
    def test_gauge_fix_preserves_statistics(self):
        from dgbs.states import AMatrix
        cfg = SourceConfig(r=0.4, alpha_mag=0.8, phi=1.3)
        t = lossy_transfer(4, 0.5, seed=6)
        kern = StateKernel.from_state(propagate(build_input_state(cfg, 4), t))
        b2, c2, gmag, _ = gauge_fix(kern.a.b, kern.a.c, kern.gamma[:4])
        gmag = gmag.astype(complex)
        fixed = StateKernel(AMatrix(4, b2, c2),
                            np.concatenate([gmag, gmag.conj()]), 0.0)
        da = distribution_from_kernel(kern, 2)
        db = distribution_from_kernel(fixed, 2)
        assert tvd(da, db) < 1e-12

    def test_gamma_becomes_real(self):
        g = np.array([1 + 1j, -2.0, 0.5j])
        _, _, mag, theta = gauge_fix(np.zeros((3, 3)), np.zeros((3, 3)), g)
        assert_allclose(mag, np.abs(g))
        assert_allclose(np.abs(g * np.exp(-1j * theta) - mag), 0, atol=1e-15)
