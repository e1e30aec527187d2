"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add -s to stream the
per-criterion lines).  Tolerances are frozen; random draws are seeded.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import haar_unitary, lossy_transfer
from dgbs.cli import main as cli_main
from dgbs.experiment import (DriftModel, PidConfig, auto_select_pairs,
                             build_error_signal, lock_kernel, pid_lock,
                             simulate_records, tune_pid_gains)
from dgbs.fock import oracle_probability
from dgbs.hafnian import matching_polynomial
from dgbs.metrics import tvd
from dgbs.probability import (ModelSpec, StateKernel, all_patterns,
                              distribution_from_kernel)
from dgbs.reconstruction import gauge_fix, reconstruct
from dgbs.serialize import matrix_to_json
from dgbs.states import (SourceConfig, TransferMatrix, build_classical_input,
                         build_input_state, propagate)

PHI_GRID = np.linspace(0, 10 * math.pi, 100, endpoint=False)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def brute_matchings(m, diag):
    n = m.shape[0]

    def rec(idx):
        if not idx:
            yield 1.0 + 0j
            return
        i = idx[0]
        rest = idx[1:]
        for val in rec(rest):
            yield val * diag[i]
        for pos, j in enumerate(rest):
            rem = rest[:pos] + rest[pos + 1:]
            for val in rec(rem):
                yield val * m[i, j]

    return sum(rec(tuple(range(n))))


def test_criterion_1_hafnian_vs_enumerator():
    rng = np.random.default_rng(10)
    start = time.time()
    worst = 0.0
    for n in (2, 4, 6, 8):
        for _ in range(100):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = (m + m.T) / 2
            diag = rng.normal(size=n) + 1j * rng.normal(size=n)
            want_h = brute_matchings(m, np.zeros(n))
            want_l = brute_matchings(m, diag)
            # the hafnian is the top pair count, the loop hafnian the sum
            got_h = complex(matching_polynomial(m)[-1])
            got_l = complex(matching_polynomial(m, diag).sum())
            worst = max(worst,
                        abs(got_h - want_h) / max(abs(want_h), 1e-30),
                        abs(got_l - want_l) / max(abs(want_l), 1e-30))
    elapsed = time.time() - start
    report(1, worst < 1e-10 and elapsed < 10,
           f"400 matrices, worst rel err {worst:.2e}, {elapsed:.1f} s "
           "(tol 1e-10, budget 10 s)")


def test_criterion_2_engine_vs_oracle():
    rng = np.random.default_rng(99)
    start = time.time()
    worst = 0.0
    d = 3
    for _ in range(50):
        eta = rng.uniform(0.3, 1.0)
        u = haar_unitary(d, seed=int(rng.integers(1 << 31)))
        t = TransferMatrix.square(math.sqrt(eta) * u)
        cfg = SourceConfig(r=rng.uniform(0.05, 0.5),
                           alpha_mag=rng.uniform(0.0, 1.0),
                           phi=rng.uniform(0, 2 * math.pi))
        kern = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
        total = int(rng.integers(0, 5))
        pattern = tuple(rng.multinomial(total, np.ones(d) / d))
        err = abs(kern.pattern_probabilities([pattern])[0]
                  - oracle_probability(cfg, t, pattern))
        worst = max(worst, err)
    elapsed = time.time() - start
    report(2, worst < 1e-6 and elapsed < 120,
           f"50 configs, worst abs err {worst:.2e}, {elapsed:.1f} s "
           "(tol 1e-6, budget 120 s)")


def test_criterion_3_korder_endpoints():
    rng = np.random.default_rng(7)
    worst_exact = 0.0
    endpoint_ok = True
    for _ in range(20):
        d = int(rng.integers(3, 7))
        eta = rng.uniform(0.3, 0.9)
        t = TransferMatrix.square(
            math.sqrt(eta) * haar_unitary(d, seed=int(rng.integers(1 << 31))))
        cfg = SourceConfig(r=rng.uniform(0.2, 0.6),
                           alpha_mag=rng.uniform(0.3, 1.2),
                           phi=rng.uniform(0, 2 * math.pi))
        kern = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
        total = int(rng.integers(1, min(d, 5) + 1))
        pats = all_patterns(d, total, collision_free=True)
        full = kern.pattern_probabilities(pats)
        exact_at_n = kern.pattern_probabilities(pats,
                                                ModelSpec("korder", total))
        rel = np.abs(exact_at_n - full) / np.maximum(np.abs(full), 1e-300)
        worst_exact = max(worst_exact, rel.max())
        # error shrinks to zero at k = N; k=0 equals the displacement term
        errs = [np.abs(kern.pattern_probabilities(
            pats, ModelSpec("korder", k)) - full).max()
            for k in range(total + 1)]
        g = kern.gamma
        disp = np.array([abs(np.prod([g[i] for i, c in enumerate(p)
                                      for _ in range(c)])) ** 2
                         for p in pats]) * kern.p_vac
        k0 = kern.pattern_probabilities(pats, ModelSpec("korder", 0))
        endpoint_ok &= errs[total] < 1e-12
        endpoint_ok &= np.abs(k0 - disp).max() < 1e-12
    report(3, worst_exact < 1e-12 and endpoint_ok,
           f"20 states, worst korder(N) rel dev {worst_exact:.2e}; "
           "k=N exact and k=0 equals displacement term (tol 1e-12)")


def test_criterion_4_noiseless_round_trip():
    start = time.time()
    worst_entry = 0.0
    worst_tvd = 0.0
    cases = [(6, 0.5, 0.4, 0.8, s) for s in range(10)]
    cases.append((15, 0.3, 0.55, 1.7, 100))
    for d, eta, r, alpha, seed in cases:
        t = lossy_transfer(d, eta, seed)
        cfg = SourceConfig(r=r, alpha_mag=alpha)
        truth = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
        recs = simulate_records(cfg, t, second_input_port=3,
                                phi_grid=PHI_GRID,
                                pulses_per_setting=math.inf,
                                include_collisions=True)
        res = reconstruct(recs)
        b2, c2, gmag, _ = gauge_fix(truth.a.b, truth.a.c,
                                    truth.gamma[:d])
        worst_entry = max(worst_entry,
                          np.abs(res.b - b2).max(),
                          np.abs(res.c - c2).max(),
                          np.abs(res.gamma - gmag).max())
        worst_tvd = max(worst_tvd, tvd(
            distribution_from_kernel(res.to_kernel(), 3),
            distribution_from_kernel(truth, 3)))
    elapsed = time.time() - start
    report(4, worst_entry < 1e-8 and worst_tvd < 1e-8 and elapsed < 300,
           f"10x d=6 + 1x d=15, worst entry err {worst_entry:.2e}, worst "
           f"threefold TVD {worst_tvd:.2e}, {elapsed:.0f} s "
           "(tol 1e-8, budget 300 s)")


def test_criterion_5_shot_noise_round_trip():
    # threshold 0.05 frozen after the pilot runs (observed 0.008-0.025
    # across seven circuit draws at these rates)
    d = 6
    t = lossy_transfer(d, 0.7, seed=21)
    cfg = SourceConfig(r=0.6, alpha_mag=1.8)
    truth = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
    recs = simulate_records(cfg, t, second_input_port=3, phi_grid=PHI_GRID,
                            pulses_per_setting=1e7, seed=21,
                            include_collisions=True)
    res = reconstruct(recs)
    d4 = tvd(distribution_from_kernel(res.to_kernel(), 4),
             distribution_from_kernel(truth, 4))
    report(5, d4 < 0.05,
           f"1e7 pulses/setting, fourfold TVD {d4:.4f} (threshold 0.05)")


def test_criterion_6_classical_trend():
    d = 15
    t = TransferMatrix.square(haar_unitary(d, seed=60))
    tvds = []
    for n_alpha in (0.0, 0.15, 0.7, 2.2):
        cfg = SourceConfig(r=0.3, alpha_mag=math.sqrt(n_alpha / 0.1),
                           eta_c=0.1)
        full = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
        classical = StateKernel.from_state(
            propagate(build_classical_input(cfg, d), t))
        tvds.append(tvd(
            distribution_from_kernel(full, 2),
            distribution_from_kernel(classical, 2, model=ModelSpec("classical"))))
    monotone = all(a > b for a, b in zip(tvds, tvds[1:]))
    report(6, monotone and tvds[-1] < tvds[0] / 2,
           "twofold TVD(classical, full) over n_alpha {0, 0.15, 0.7, 2.2}: "
           + ", ".join(f"{v:.4f}" for v in tvds)
           + " (strictly decreasing)")


def test_criterion_7_likelihood_trend():
    # fivefold samples exercise the truncation (at four detected photons
    # korder(4) is already the full model); korder(4) patterns whose
    # truncated probability clamps to zero are flagged and dropped from
    # both products, matching the likelihood_ratio convention
    d = 15
    t = TransferMatrix.square(haar_unitary(d, seed=300))
    pats = all_patterns(d, 5, collision_free=True)
    tables = {}
    for n_alpha in (0.7, 2.2):
        cfg = SourceConfig(r=math.asinh(math.sqrt(0.02 / 0.1)),
                           alpha_mag=math.sqrt(n_alpha), eta_c=0.1)
        kern = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
        terms = kern.pattern_terms(pats)
        full = np.maximum(terms.sum(axis=1).real, 0.0)
        k4 = np.maximum(terms[:, :5].sum(axis=1).real, 0.0)
        k0 = np.maximum(terms[:, 0].real, 0.0)
        tables[n_alpha] = (full / full.sum(), k4 / k4.sum(), k0 / k0.sum())

    all_ok = True
    summaries = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        logs = {}
        for n_alpha, (full, k4, k0) in tables.items():
            idx = rng.choice(len(full), size=500, p=full)
            sel = idx[k4[idx] > 0]
            log_k4 = float(np.log(k4[sel]).sum() - np.log(full[sel]).sum())
            log_k0 = float(np.log(k0[sel]).sum() - np.log(full[sel]).sum())
            logs[n_alpha] = (log_k4, log_k0)
        nearer = abs(logs[2.2][0]) < abs(logs[0.7][0])
        k0_below = logs[0.7][1] < logs[0.7][0] and logs[2.2][1] < logs[2.2][0]
        all_ok &= nearer and k0_below
        summaries.append(f"seed {seed}: logL(k4) {logs[0.7][0]:+.2f}@0.7 "
                         f"{logs[2.2][0]:+.2f}@2.2")
    report(7, all_ok,
           "10 seeds, P=500 samples of N>=4: L(korder(4)) nearer 1 at "
           "n_alpha=2.2 and L(korder(0)) < L(korder(4)) throughout; "
           + summaries[0])


def test_criterion_8_phase_lock():
    cfg = SourceConfig(r=0.4, alpha_mag=0.9)
    t = lossy_transfer(6, 0.5, seed=11)
    kern = lock_kernel(cfg, t)
    pairs = auto_select_pairs(kern, n_pairs=5)
    signal = build_error_signal(kern, pairs)
    drift = DriftModel()
    pid = tune_pid_gains(drift, signal, duration=20.0, seed=0)
    locked = pid_lock(drift, pid, signal, duration=60.0, seed=5)
    free = pid_lock(drift, PidConfig(), signal, duration=60.0, seed=5)
    wander = free.phi.max() - free.phi.min()
    ok = (not locked.diverged and locked.residual_std <= math.pi / 50
          and wander >= math.pi)
    report(8, ok,
           f"locked residual std {locked.residual_std:.4f} <= pi/50 = "
           f"{math.pi / 50:.4f}; unlocked wander {wander:.2f} >= pi")


def test_criterion_9_cli_determinism(tmp_path):
    u = haar_unitary(3, seed=42)
    cfg = {
        "version": 1,
        "source": {"r": 0.35, "alpha_mag": 0.6, "phi": 0.0,
                   "squeezer_ports": [0, 1], "coherent_port": 2},
        "transfer": {"t": matrix_to_json(math.sqrt(0.6) * u)},
        "phi_grid": {"start": 0.0, "stop": 4 * math.pi, "num": 32},
        "pulses_per_setting": "inf",
        "include_collisions": True,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    commands = {
        "probs": ["probs", "--config", str(config), "--n-max", "2"],
        "simulate": ["simulate", "--config", str(config), "--seed", "3"],
        "compare": ["compare", "--config", str(config), "--model", "full",
                    "--model-b", "classical", "--n-max", "2"],
        "lock": ["lock", "--config", str(config), "--duration", "20",
                 "--seed", "3"],
        "oracle": ["oracle", "--config", str(config), "--pattern", "1,1,0"],
        "sample": ["sample", "--config", str(config), "--pulses", "500",
                   "--n-max", "2", "--seed", "3"],
    }
    mismatches = []
    for name, argv in commands.items():
        outs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatches.append(name)
    # reconstruct consumes the simulate output
    recon_outs = []
    for run in range(2):
        out = tmp_path / f"reconstruct_{run}"
        assert cli_main(["reconstruct", "--records",
                         str(tmp_path / "simulate_0"), "--seed", "3",
                         "--out", str(out)]) == 0
        recon_outs.append(out.read_bytes())
    if recon_outs[0] != recon_outs[1]:
        mismatches.append("reconstruct")
    report(9, not mismatches,
           "byte-identical reruns for probs, simulate, reconstruct, "
           "compare, lock, oracle, sample"
           + (f"; mismatches: {mismatches}" if mismatches else ""))
