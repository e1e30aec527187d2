"""Batched pattern evaluation is bit-identical to one pattern at a time,
and a phase family to one state per phase.

Every probability table goes through one batched call
(``PhaseFamily.pattern_probabilities``, of which
``StateKernel.pattern_probabilities`` is the family of one), which groups
patterns by photon total and runs the one subset DP plan of their kernel
size on chunks of patterns, for every phase at once.  These properties pin
the batch to the single-pattern results, the truncated k-order DP to the
full one and the family to per-phase states, bit for bit, for any mix of
totals, collisions, models and chunk sizes.
"""

import csv
import importlib
import io
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lossy_transfer
from dgbs.errors import ConfigurationError
from dgbs.experiment import (auto_select_pairs, build_error_signal,
                             lock_kernel, simulate_records,
                             twofold_rates_from_state)
from dgbs.hafnian import (DetectionPattern, matching_polynomial,
                          reduce_by_pattern)
from dgbs.probability import (ModelSpec, PhaseFamily, StateKernel,
                              all_patterns, predict_twofold)
from dgbs.reconstruction import MeasurementRecord, records_to_csv
from dgbs.states import (AMatrix, GammaVector, SourceConfig,
                         build_classical_input, build_input_state, propagate)

# the module, not the function ``dgbs.hafnian`` that the package exports
hafnian = importlib.import_module("dgbs.hafnian")
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


def assert_rows_match_single_kernels(a, gammas, patterns, batch):
    """Row (f, p) of the shared DP is the DP of pattern p's reduced kernel."""
    for f, gamma in enumerate(gammas):
        for p, n in enumerate(patterns):
            kern = reduce_by_pattern(a, GammaVector(gamma), DetectionPattern(n))
            assert same_bits(batch[f, p],
                             matching_polynomial(kern.a_n, kern.gamma_tilde))


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


@PROPERTY
@given(n=st.sampled_from([0, 2, 4, 6, 8]), seed=st.integers(0, 2 ** 32 - 1))
def test_dp_matches_full_subset_recursion(n, seed):
    (m,), (diag,) = random_kernels(np.random.default_rng(seed), 1, n)
    assert same_bits(matching_polynomial(m, diag), full_subset_dp(m, diag))


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
            kern = reduce_by_pattern(a, GammaVector(gamma), DetectionPattern(n))
            assert same_bits(batch[f, p],
                             full_subset_dp(kern.a_n, kern.gamma_tilde))


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
    single = [kern.pattern_probability(DetectionPattern(n), model)
              for n in patterns]
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
    singles = [DetectionPattern(n) for n in patterns]
    for p, n in enumerate(singles):
        assert same_bits(terms[p], kern.korder_terms(n))
    for model in MODELS[:5]:
        assert same_bits(kern.pattern_probabilities(patterns, model),
                         [kern.pattern_probability(n, model) for n in singles])


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
    patterns = [DetectionPattern(np.bincount(m, minlength=d)) for m in modes]
    rng = np.random.default_rng(seed)
    noisy = np.isfinite(pulses)

    def binomial(rate, n):
        return rng.binomial(int(n), np.clip(rate, 0, 1)) / n

    def rates(cfg):
        kern = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
        return kern.p_vac, np.array([kern.pattern_probability(n)
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


@PROPERTY
@given(d=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1),
       n_pairs=st.integers(1, 6),
       phis=st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_lock_signal_matches_predict_twofold(d, seed, n_pairs, phis):
    cfg, t, _ = random_circuit(d, seed)
    kern = lock_kernel(cfg, t)
    pairs = auto_select_pairs(kern, n_pairs=n_pairs)
    rates = twofold_rates_from_state(kern)
    signal = build_error_signal(rates, pairs)
    for phi in phis:
        table = rates(phi)
        for (j, k), rate in table.items():
            assert rate == predict_twofold(kern, j, k, phi)[1]
        want = 0.0
        for j, k, sign in pairs:
            want += sign * predict_twofold(kern, j, k, phi)[1]
        assert signal(phi) == want


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
    n = DetectionPattern(sector[pick % len(sector)])
    terms = kern.korder_terms(n)
    assert np.cumsum(terms)[-1] == pytest.approx(terms.sum(), rel=1e-12,
                                                 abs=1e-300)
    full = kern.pattern_probability(n)
    assert kern.pattern_probability(n, ModelSpec("korder", total)) == full
    assert kern.pattern_probability(n, ModelSpec("korder", total + k)) == full
