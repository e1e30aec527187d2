"""Batched pattern evaluation is bit-identical to one pattern at a time,
and a phase family to one state per phase.

Every probability table goes through one batched call
(``PhaseFamily.pattern_probabilities``, of which
``StateKernel.pattern_probabilities`` is the family of one), which groups
patterns by photon total and runs the one subset DP plan of their kernel
size on chunks of patterns, for every phase at once.  These properties pin
the batch to the single-pattern results, the truncated k-order DP to the
full one and the family to per-phase states, bit for bit, for any mix of
totals, collisions, models and chunk sizes.  The phase lock's PID loop runs
a batch of gain sets at once; it is pinned to a copy of the scalar loop it
replaced, one gain set at a time.
"""

import csv
import io
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import lossy_transfer
from dgbs import experiment, hafnian
from dgbs.errors import ConfigurationError
from dgbs.experiment import (LOCK_SETPOINT, SETTLE_FRACTION, DriftModel,
                             PidConfig, auto_select_pairs, build_error_signal,
                             lock_kernel, pid_lock, simulate_records,
                             tune_pid_gains)
from dgbs.hafnian import matching_polynomial
from dgbs.probability import (ModelSpec, PhaseFamily, StateKernel,
                              all_patterns, predict_twofold)
from dgbs.reconstruction import MeasurementRecord, records_to_csv
from dgbs.states import (AMatrix, SourceConfig, build_classical_input,
                         build_input_state, propagate)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
MODELS = [ModelSpec(), ModelSpec("korder", 0), ModelSpec("korder", 1),
          ModelSpec("korder", 3), ModelSpec("squeezer_only"),
          ModelSpec("classical")]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_kernels(rng, count, n):
    m = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    diag = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return (m + m.transpose(0, 2, 1)) / 2, diag


def state_kernel(d, seed, model):
    rng = np.random.default_rng(seed)
    cfg = SourceConfig(r=rng.uniform(0, 0.8), alpha_mag=rng.uniform(0, 1.2),
                       phi=rng.uniform(0, 6.3))
    build = build_classical_input if model.kind == "classical" \
        else build_input_state
    return StateKernel.from_state(
        propagate(build(cfg, d), lossy_transfer(d, rng.uniform(0.3, 1), seed)))


def random_amatrix(rng, d):
    (b,), _ = random_kernels(rng, 1, d)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return AMatrix(d, b, (h + h.conj().T) / 2)


def random_family(rng, count, d):
    return rng.normal(size=(count, 2 * d)) + 1j * rng.normal(size=(count, 2 * d))


def reduced(a, gamma, n):
    """The kernel and loop weights that the counts row n reduces (A, gamma)
    to: row/column i and i+d of A, and entries i and i+d of gamma, each
    repeated n_i times."""
    idx = hafnian._pattern_index(a.d, [n])[0]
    return a.full[np.ix_(idx, idx)], gamma[idx]


def assert_rows_match_single_kernels(a, gammas, patterns, batch):
    """Row (f, p) of the shared DP is the DP of pattern p's reduced kernel."""
    for f, gamma in enumerate(gammas):
        for p, n in enumerate(patterns):
            assert same_bits(batch[f, p],
                             matching_polynomial(*reduced(a, gamma, n)))


def full_subset_dp(m, diag):
    """Reference for the summation order: the recursion over all 2^n subsets
    of one kernel in increasing mask order, each subset's lowest index a
    fixed point or paired with each other index in increasing order."""
    n = len(m)
    coeff = np.zeros((1 << n, n // 2 + 1), dtype=complex)
    coeff[0, 0] = 1.0
    for mask in range(1, 1 << n):
        i = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        row = diag[i] * coeff[rest]
        for j in range(i + 1, n):
            if rest >> j & 1:
                row[1:] += m[i, j] * coeff[rest ^ (1 << j)][:-1]
        coeff[mask] = row
    return coeff[-1]


def structured_kernel(rng, n, kind):
    """A random kernel, or one whose exact zeros reach the edges of the
    DP's pair-count band: real entries (every imaginary part is zero), no
    loop weights, or zero diagonal blocks (the A of a state with B = 0)."""
    (m,), (diag,) = random_kernels(rng, 1, n)
    if kind == "real":
        return m.real.astype(complex), diag.real.astype(complex)
    if kind == "zero_diagonal":
        return m, np.zeros(n, dtype=complex)
    if kind == "block_zero":
        m[:n // 2, :n // 2] = m[n // 2:, n // 2:] = 0
    return m, diag


@PROPERTY
@given(n=st.sampled_from([0, 2, 4, 6, 8, 10]), seed=st.integers(0, 2 ** 32 - 1))
def test_dp_matches_full_subset_recursion(n, seed):
    for kind in ("complex", "real", "zero_diagonal", "block_zero"):
        m, diag = structured_kernel(np.random.default_rng(seed), n, kind)
        got, want = matching_polynomial(m, diag), full_subset_dp(m, diag)
        if kind == "complex":
            assert same_bits(got, want)
        else:
            # The reference also adds the zeros of the pair counts that a
            # subset cannot hold, which the DP leaves out.  Where a sum is
            # itself an exact zero, the sign of that zero follows those
            # terms, so -0.0 and 0.0 are taken as one value here (x + 0.0
            # maps -0.0 to 0.0 and keeps every other bit).
            assert same_bits(got + 0.0, want + 0.0), kind


@PROPERTY
@given(d=st.integers(2, 6), total=st.integers(1, 4), families=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30),
       chunk_bytes=st.sampled_from([1, 3000, hafnian.DP_CHUNK_BYTES]))
def test_dp_batch_matches_single_kernels(d, total, families, seed, picks,
                                         chunk_bytes):
    # picks choose a batch of one total, collisions and repeats included
    rng = np.random.default_rng(seed)
    a, gammas = random_amatrix(rng, d), random_family(rng, families, d)
    sector = all_patterns(d, total, collision_free=False)
    patterns = sector[[k % len(sector) for k in picks]]
    with mock.patch.object(hafnian, "DP_CHUNK_BYTES", chunk_bytes):
        batch = hafnian.pattern_polynomials(a, gammas, patterns)
    assert_rows_match_single_kernels(a, gammas, patterns, batch)


def test_repeated_modes_match_full_subset_recursion():
    # d=8, N=4: each pattern repeats one mode four times, 64 distinct
    # (mode, copy) rows over the batch; the plan of kernel size 8 serves all
    d = 8
    rng = np.random.default_rng(8)
    a, gammas = random_amatrix(rng, d), random_family(rng, 2, d)
    patterns = 4 * np.eye(d, dtype=int)
    batch = hafnian.pattern_polynomials(a, gammas, patterns)
    for f, gamma in enumerate(gammas):
        for p, n in enumerate(patterns):
            assert same_bits(batch[f, p], full_subset_dp(*reduced(a, gamma, n)))


@PROPERTY
@given(d=st.integers(3, 5), total=st.integers(1, 4), count=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30),
       data=st.data())
def test_korder_truncation_matches_full_columns(d, total, count, seed, picks,
                                                data):
    # picks choose a batch of one total, collisions and repeats included
    k = data.draw(st.integers(0, total + 1), label="k")
    cfg, t, rng = random_circuit(d, seed)
    family = PhaseFamily.scan(cfg, t, rng.uniform(-10, 40, count))
    sector = all_patterns(d, total, collision_free=False)
    patterns = sector[[p % len(sector) for p in picks]]
    full = family.pattern_terms(patterns)
    assert same_bits(family.pattern_terms(patterns, k + 1),
                     full[:, :, :k + 1])
    # the k-order sum as it was taken from all N + 1 columns
    val = full.reshape(-1, total + 1)[:, :min(k, total) + 1].sum(axis=1)
    want = np.where(val.real < 0.0, 0.0, val.real).reshape(count, -1) \
        * family.p_vac[:, None]
    assert same_bits(family.pattern_probabilities(patterns,
                                                  ModelSpec("korder", k)), want)


def test_one_plan_per_kernel_size(monkeypatch):
    monkeypatch.setattr(hafnian, "_PLANS", {})
    kern = state_kernel(15, 0, ModelSpec())
    patterns = all_patterns(15, 5, collision_free=True)
    kern.pattern_probabilities(patterns)
    plans = dict(hafnian._PLANS)
    assert list(plans) == [10]
    # a second model's table on the same patterns builds no plan
    for model in (ModelSpec("korder", 2), ModelSpec("squeezer_only")):
        kern.pattern_probabilities(patterns, model)
        assert hafnian._PLANS.keys() == plans.keys()
        assert all(hafnian._PLANS[n] is plan for n, plan in plans.items())
    # mixed totals add one plan per new kernel size
    kern.pattern_probabilities(np.concatenate(
        [all_patterns(15, total, collision_free=False) for total in (1, 2, 3)]))
    assert sorted(hafnian._PLANS) == [2, 4, 6, 10]
    assert hafnian._PLANS[10] is plans[10]


def test_non_symmetric_kernel_rejected():
    d = 3
    rng = np.random.default_rng(3)
    a = random_amatrix(rng, d)
    full = a.full.copy()
    full[0, 1] += 1e-3
    skewed = SimpleNamespace(d=d, full=full)
    gammas = random_family(rng, 2, d)
    with pytest.raises(ConfigurationError, match="not symmetric"):
        hafnian.pattern_polynomials(skewed, gammas, [(0, 0, 2), (1, 1, 0)])
    # the check is per kernel: one that avoids rows 0 and 1 passes
    assert same_bits(hafnian.pattern_polynomials(skewed, gammas, [(0, 0, 2)]),
                     hafnian.pattern_polynomials(a, gammas, [(0, 0, 2)]))


@PROPERTY
@given(d=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       model=st.sampled_from(MODELS),
       picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10 ** 6)),
                      min_size=1, max_size=40),
       chunk_bytes=st.sampled_from([1, 3000, 40000, hafnian.DP_CHUNK_BYTES]))
def test_probabilities_match_one_at_a_time(d, seed, model, picks, chunk_bytes):
    # picks choose patterns of mixed totals, collisions and repeats included
    kern = state_kernel(d, seed, model)
    patterns = []
    for total, k in picks:
        sector = all_patterns(d, total, collision_free=False)
        patterns.append(sector[k % len(sector)])
    with mock.patch.object(hafnian, "DP_CHUNK_BYTES", chunk_bytes):
        batch = kern.pattern_probabilities(patterns, model)
    single = [kern.pattern_probabilities([n], model)[0] for n in patterns]
    assert same_bits(batch, single)


@pytest.mark.parametrize("d, total", [(6, 4), (4, 5)])
def test_sector_longer_than_one_chunk(d, total):
    # d=6, N=4: 126 patterns at kernel size 8; d=4, N=5: 56 patterns at
    # kernel size 10; a budget of the DP rows of 20 patterns splits each
    # sector into several chunks
    kern = state_kernel(d, 7, ModelSpec())
    patterns = all_patterns(d, total, collision_free=False)
    rows, _ = hafnian._plan(2 * total)
    with mock.patch.object(hafnian, "DP_CHUNK_BYTES",
                           16 * (total + 1) * rows * 20), \
            mock.patch.object(hafnian, "_evaluate",
                              wraps=hafnian._evaluate) as evaluate:
        terms = kern.pattern_terms(patterns)
    assert evaluate.call_count == math.ceil(len(patterns) / 20)
    for p, n in enumerate(patterns):
        assert same_bits(terms[p], kern.pattern_terms([n])[0])
    for model in MODELS[:5]:
        assert same_bits(kern.pattern_probabilities(patterns, model),
                         [kern.pattern_probabilities([n], model)[0]
                          for n in patterns])


def test_batch_edges():
    kern = state_kernel(3, 0, ModelSpec())
    assert kern.pattern_probabilities(np.empty((0, 3), int)).shape == (0,)
    assert kern.pattern_probabilities([(0, 0, 0)])[0] == kern.p_vac
    with pytest.raises(ConfigurationError):
        kern.pattern_terms([(1, 0, 0), (1, 1, 0)])
    with pytest.raises(ConfigurationError):
        kern.pattern_probabilities([(1, 0)])


# ---------------------------------------------------------------------------
# phase families

def random_circuit(d, seed):
    rng = np.random.default_rng(seed)
    cfg = SourceConfig(r=rng.uniform(0, 0.8), alpha_mag=rng.uniform(0.1, 1.2),
                       phi=rng.uniform(0, 6.3),
                       eta_c=rng.choice([1.0, rng.uniform(0.3, 1)]))
    return cfg, lossy_transfer(d, rng.uniform(0.3, 1), seed), rng


@PROPERTY
@given(d=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 7), model=st.sampled_from(MODELS),
       chunk_bytes=st.sampled_from([1, hafnian.DP_CHUNK_BYTES]))
def test_family_matches_state_per_phase(d, seed, count, model, chunk_bytes):
    cfg, t, rng = random_circuit(d, seed)
    phis = rng.uniform(-10, 40, count)
    classical = model.kind == "classical"
    build = build_classical_input if classical else build_input_state
    patterns = np.concatenate([all_patterns(d, total, collision_free=False)
                               for total in range(4)])
    with mock.patch.object(hafnian, "DP_CHUNK_BYTES", chunk_bytes):
        family = PhaseFamily.scan(cfg, t, phis, classical=classical)
        probs = family.pattern_probabilities(patterns, model)
    for f, phi in enumerate(phis):
        kern = StateKernel.from_state(
            propagate(build(replace(cfg, phi=phi), d), t))
        assert same_bits(family.gammas[f], kern.gamma.gamma)
        assert family.log_p_vac[f] == kern.log_p_vac
        assert same_bits(probs[f], kern.pattern_probabilities(patterns, model))


def per_phase_records(config, t, second_input_port, phi_grid, pulses, seed,
                      include_collisions):
    """simulate_records computed with one state and one kernel per phase
    and one pattern at a time."""
    d = t.d
    modes = [(j,) for j in range(d)] + [
        (j, k) for j in range(d)
        for k in range(j if include_collisions else j + 1, d)]
    patterns = [np.bincount(m, minlength=d) for m in modes]
    rng = np.random.default_rng(seed)
    noisy = np.isfinite(pulses)

    def binomial(rate, n):
        return rng.binomial(int(n), np.clip(rate, 0, 1)) / n

    def rates(cfg):
        kern = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
        return kern.p_vac, np.array([kern.pattern_probabilities([n])[0]
                                     for n in patterns])

    p_vac, r = rates(replace(config, alpha_mag=0.0))
    singles, twofolds = r[:d], r[d:].tolist()
    if noisy:
        singles = binomial(singles, pulses)
        twofolds = [float(binomial(v, pulses)) for v in twofolds]
        p_vac = float(binomial(p_vac, pulses))
    table = np.array([p_vac, *singles, *twofolds])[:, None]
    records = {"blocked": MeasurementRecord("blocked", d, pulses, table,
                                            modes[d:])}
    ports = [("input1", config.coherent_port)]
    if second_input_port is not None:
        ports.append(("input2", second_input_port))
    per_bin = pulses / len(phi_grid) if noisy else math.inf
    for name, port in ports:
        per_phi = [rates(replace(config, coherent_port=port, phi=phi))
                   for phi in phi_grid]
        p_vac = np.array([pv for pv, _ in per_phi])
        r = np.array([rr for _, rr in per_phi]).T
        singles, two = r[:d], list(r[d:])
        if noisy:
            p_vac = binomial(p_vac, per_bin)
            singles = binomial(singles, per_bin)
            two = [binomial(v, per_bin) for v in two]
        table = np.vstack([p_vac, singles, *two])
        records[name] = MeasurementRecord(name, d, per_bin, table, modes[d:],
                                          phi=phi_grid)
    return records


def row_by_row_csv(records):
    """The records CSV written one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["setting", "phi", "modes", "counts", "pulses"])
    for setting in ("blocked", "input1", "input2"):
        rec = records.get(setting)
        if rec is None:
            continue
        finite = np.isfinite(rec.pulses)
        scale = rec.pulses if finite else 1.0
        phis = [None] if rec.phi is None else list(rec.phi)
        for i, phi in enumerate(phis):
            rows = [("vac", rec.p_vac[i])]
            rows += [(str(j), rec.singles[j, i]) for j in range(rec.d)]
            rows += [(f"{j}:{k}", v[i])
                     for (j, k), v in zip(rec.pairs, rec.rates[rec.d + 1:])]
            for label, rate in rows:
                writer.writerow([setting, "" if phi is None else f"{phi:.17g}",
                                 label, f"{rate * scale if finite else rate:.17g}",
                                 rec.pulses if finite else "inf"])
    return buf.getvalue()


@PROPERTY
@given(d=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       nphi=st.integers(1, 6), noisy=st.booleans(), collisions=st.booleans(),
       second=st.booleans(),
       chunk_bytes=st.sampled_from([1, hafnian.DP_CHUNK_BYTES]))
def test_simulate_records_match_state_per_phase(d, seed, nphi, noisy,
                                                collisions, second,
                                                chunk_bytes):
    cfg, t, rng = random_circuit(d, seed)
    phi_grid = np.sort(rng.uniform(0, 4 * math.pi, nphi))
    args = (cfg, t, d - 1 if second else None, phi_grid,
            1e5 if noisy else math.inf, seed % 1000, collisions)
    with mock.patch.object(hafnian, "DP_CHUNK_BYTES", chunk_bytes):
        got = records_to_csv(simulate_records(*args))
    want = per_phase_records(*args)
    assert got == records_to_csv(want) == row_by_row_csv(want)


# ---------------------------------------------------------------------------
# the phase lock: one PID loop over a batch of gain sets

@PROPERTY
@given(d=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1),
       n_pairs=st.integers(1, 15),
       phis=st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_lock_signal_matches_predict_twofold(d, seed, n_pairs, phis):
    cfg, t, _ = random_circuit(d, seed)
    kern = lock_kernel(cfg, t)
    pairs = auto_select_pairs(kern, n_pairs=n_pairs)
    signal = build_error_signal(kern, pairs)
    for phi in phis:
        for j in range(d):
            for k in range(j + 1, d):
                rate = build_error_signal(kern, [(j, k, 1)])(phi)
                assert rate == predict_twofold(kern, j, k, phi)[1]
        want = 0.0
        for j, k, sign in pairs:
            want += sign * predict_twofold(kern, j, k, phi)[1]
        assert signal(phi) == want
    # a (G,) array of phases, one per gain set, is G scalar signals
    assert same_bits(signal(np.array(phis)), [signal(phi) for phi in phis])


def reference_pid_lock(drift, pid, error_signal, duration, seed=0):
    """The scalar PID loop that the batched loop replaced, one gain set at a
    time: the reference for its bits."""
    rng = np.random.default_rng(seed)
    dt = pid.update_interval
    drift_trace = drift.trace(duration, rng)
    n = len(drift_trace)
    target = error_signal(pid.setpoint)
    v = 0.0
    integral = 0.0
    prev_e = None
    phi = np.zeros(n)
    diverged = False
    for i in range(n):
        phi[i] = pid.setpoint + drift_trace[i] + v
        e = error_signal(phi[i]) - target
        integral += e * dt
        deriv = 0.0 if prev_e is None else (e - prev_e) / dt
        prev_e = e
        v = v - (pid.kp * e + pid.ki * integral + pid.kd * deriv)
        if abs(v) > pid.actuator_limit:
            v = math.copysign(pid.actuator_limit, v)
            diverged = True
    settle = int(n * SETTLE_FRACTION)
    residual = float(np.std(phi[settle:] - pid.setpoint))
    if residual > math.pi:
        diverged = True
    times = np.arange(n) * dt
    return SimpleNamespace(times=times, phi=phi, residual_std=residual,
                           diverged=diverged)


def reference_tune(drift, error_signal, duration, seed):
    """The grid scan of ``tune_pid_gains`` with the reference loop: the first
    cell of strictly lowest score wins."""
    setpoint, eps = LOCK_SETPOINT, 1e-4
    slope = (error_signal(setpoint + eps)
             - error_signal(setpoint - eps)) / (2 * eps)
    best = None
    for kp in experiment.KP_GRID:
        for ki in experiment.KI_GRID:
            cfg = PidConfig(kp=kp / slope, ki=ki / slope, setpoint=setpoint)
            res = reference_pid_lock(drift, cfg, error_signal, duration, seed)
            score = math.inf if res.diverged else res.residual_std
            if best is None or score < best[0]:
                best = (score, cfg)
    return best[1]


def lock_signal(d, seed, n_pairs):
    cfg, t, _ = random_circuit(d, seed)
    kern = lock_kernel(cfg, t)
    signal = build_error_signal(kern, auto_select_pairs(kern, n_pairs=n_pairs))
    eps = 1e-4
    slope = (signal(LOCK_SETPOINT + eps)
             - signal(LOCK_SETPOINT - eps)) / (2 * eps)
    return signal, slope


def assert_same_lock(phi, residual, diverged, ref):
    assert same_bits(phi, ref.phi)
    assert same_bits(residual, ref.residual_std)
    assert diverged == ref.diverged


GAIN = st.floats(-60, 60, allow_nan=False)   # in units of 1 / error slope


@PROPERTY
@given(d=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       n_pairs=st.integers(1, 6),
       kind=st.sampled_from(["random_walk", "sinusoidal", "composite"]),
       step=st.sampled_from([0.1, 0.07]), steps=st.floats(0.6, 90),
       update_interval=st.sampled_from([0.1, 0.03]),
       limit=st.sampled_from([1e-3, 0.3, 4 * math.pi]),
       gains=st.lists(st.tuples(GAIN, GAIN, GAIN), min_size=1, max_size=5))
def test_pid_loop_matches_scalar_reference(d, seed, n_pairs, kind, step,
                                           steps, update_interval, limit,
                                           gains):
    # durations that are no multiple of the step; gains and limits that
    # clamp the actuator and drive some locks to divergence
    signal, slope = lock_signal(d, seed, n_pairs)
    assume(slope != 0)
    drift = DriftModel(kind=kind, step_interval=step)
    duration, seed = steps * step, seed % 1000
    pids = [PidConfig(kp=a / slope, ki=b / slope, kd=c / (10 * slope),
                      update_interval=update_interval, actuator_limit=limit)
            for a, b, c in gains]
    refs = [reference_pid_lock(drift, pid, signal, duration, seed)
            for pid in pids]
    for pid, ref in zip(pids, refs):   # G = 1
        got = pid_lock(drift, pid, signal, duration, seed)
        assert same_bits(got.times, ref.times)
        assert_same_lock(got.phi, got.residual_std, got.diverged, ref)
        assert type(got.residual_std) is float
        assert type(got.diverged) is bool
    batch = np.array([[pid.kp, pid.ki, pid.kd] for pid in pids]).T
    phi, residual, diverged = experiment._pid_loop(
        drift, pids[0], batch, signal, duration, seed)
    for g, ref in enumerate(refs):
        assert_same_lock(phi[g], residual[g], diverged[g], ref)


def test_pid_loop_clamp_and_divergence_cases():
    """The kinds of lock the property covers, one of each: a clean lock, a
    clamped actuator and a residual beyond pi with no clamp."""
    signal, slope = lock_signal(5, 3, 4)
    cases = [(DriftModel(), PidConfig(kp=0.6 / slope, ki=0.5 / slope,
                                      kd=0.05 / slope)),
             (DriftModel(), PidConfig(kp=0.6 / slope, actuator_limit=1e-3)),
             (DriftModel(amplitude=5.0), PidConfig())]
    refs = [reference_pid_lock(drift, pid, signal, 12.34, 7)
            for drift, pid in cases]
    assert [ref.diverged for ref in refs] == [False, True, True]
    assert refs[1].residual_std < math.pi < refs[2].residual_std
    for (drift, pid), ref in zip(cases, refs):
        got = pid_lock(drift, pid, signal, 12.34, 7)
        assert_same_lock(got.phi, got.residual_std, got.diverged, ref)


@pytest.mark.parametrize("grid, drift", [
    (None, DriftModel()),
    # no drift: every cell locks with residual 0, a 16-way tie
    (None, DriftModel(kind="sinusoidal", amplitude=0.0)),
    # gains far beyond the loop's stability: every cell diverges
    (((-400.0, 300.0), (-900.0, 700.0, 800.0)), DriftModel()),
])
def test_tune_matches_reference_grid_scan(grid, drift, monkeypatch):
    if grid is not None:
        monkeypatch.setattr(experiment, "KP_GRID", grid[0])
        monkeypatch.setattr(experiment, "KI_GRID", grid[1])
    signal, _ = lock_signal(5, 11, 5)
    want = reference_tune(drift, signal, 9.87, 2)
    got = tune_pid_gains(drift, signal, duration=9.87, seed=2)
    assert got == want
    assert same_bits([got.kp, got.ki, got.kd], [want.kp, want.ki, want.kd])


# ---------------------------------------------------------------------------
# invariances

@PROPERTY
@given(n=st.sampled_from([2, 4, 6, 8]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_matching_polynomial_permutation_invariant(n, seed, data):
    (m,), (diag,) = random_kernels(np.random.default_rng(seed), 1, n)
    perm = np.array(data.draw(st.permutations(range(n))))
    got = matching_polynomial(m[np.ix_(perm, perm)], diag[perm])
    # each pair count sums terms of at most this magnitude
    scale = matching_polynomial(np.abs(m), np.abs(diag)).real
    assert np.all(np.abs(got - matching_polynomial(m, diag))
                  <= 1e-12 * scale + 1e-300)


@PROPERTY
@given(d=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       total=st.integers(1, 5), k=st.integers(0, 3),
       pick=st.integers(0, 10 ** 6))
def test_cumulative_korder_reaches_full_at_n(d, seed, total, k, pick):
    kern = state_kernel(d, seed, ModelSpec())
    sector = all_patterns(d, total, collision_free=False)
    n = [sector[pick % len(sector)]]
    terms = kern.pattern_terms(n)[0]
    assert np.cumsum(terms)[-1] == pytest.approx(terms.sum(), rel=1e-12,
                                                 abs=1e-300)
    full = kern.pattern_probabilities(n)[0]
    assert kern.pattern_probabilities(n, ModelSpec("korder", total))[0] == full
    assert kern.pattern_probabilities(n, ModelSpec("korder", total + k))[0] \
        == full
