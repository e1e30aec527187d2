"""Batched pattern evaluation is bit-identical to one pattern at a time,
and a phase scan's members to one state per phase.

Every pattern table goes through one batched call of one kernel
(``StateKernel.pattern_probabilities``), which groups patterns by photon
total and runs the one subset DP plan of their kernel size on chunks of
patterns.  These properties pin the batch to the single-pattern results,
the truncated k-order DP to the full one and a scan's members, as
kernels, to per-phase states, bit for bit, for any mix of totals,
collisions, models and chunk sizes.  The closed-form singles and twofolds
that simulated records read, and the phase lock's closed-form twofolds, are
held to each member's DP within 1e-12, and the records to one state per
phase bit for bit.  The lock's PID loop runs a batch of gain sets at once;
it is pinned to a copy of the scalar loop it replaced, one gain set at a
time.
"""

import cmath
import csv
import io
import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import lossy_transfer
from dgbs import experiment, hafnian
from dgbs.errors import ConfigurationError, NumericalError
from dgbs.experiment import (LOCK_SETPOINT, SETTLE_FRACTION, DriftModel,
                             PidConfig, auto_select_pairs, build_error_signal,
                             lock_kernel, pid_lock, simulate_records,
                             tune_pid_gains)
from dgbs.hafnian import matching_polynomial
from dgbs.probability import (ModelSpec, StateKernel, TwofoldFringe,
                              _pattern_index, all_patterns, low_order_rates,
                              predict_twofold)
from dgbs.reconstruction import MeasurementRecord, records_to_csv
from dgbs.states import (AMatrix, SourceConfig, build_classical_input,
                         build_input_state, phase_scan, propagate)

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


def random_gamma(rng, d):
    return rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)


def members(a, gammas, log_p_vacs):
    """The kernel of each member of a phase scan."""
    return [StateKernel(a, gamma, log_p_vac)
            for gamma, log_p_vac in zip(gammas, log_p_vacs)]


def reduced(a, gamma, n):
    """The kernel and loop weights that the counts row n reduces (A, gamma)
    to: row/column i and i+d of A, and entries i and i+d of gamma, each
    repeated n_i times."""
    idx = _pattern_index(np.asarray([n]))[0]
    return a.full[np.ix_(idx, idx)], gamma[idx]


def assert_rows_match_single_kernels(a, gamma, patterns, batch):
    """Row p of the shared DP is the DP of pattern p's reduced kernel."""
    for p, n in enumerate(patterns):
        assert same_bits(batch[p], matching_polynomial(*reduced(a, gamma, n)))


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


def summed_subset_dp(m, diag):
    """Reference for the summed mode: :func:`full_subset_dp` with each pair
    term added into a subset's one column, the loop hafnian of the subset."""
    n = len(m)
    coeff = np.zeros((1 << n, 1), dtype=complex)
    coeff[0, 0] = 1.0
    for mask in range(1, 1 << n):
        i = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        row = diag[i] * coeff[rest]
        for j in range(i + 1, n):
            if rest >> j & 1:
                row += m[i, j] * coeff[rest ^ (1 << j)]
        coeff[mask] = row
    return coeff[-1]


def loop_hafnian(m, diag):
    """The summed DP on one kernel, as a length-1 array."""
    return hafnian._polynomials(np.asarray(m, dtype=complex), diag,
                                np.arange(len(m))[None], summed=True)[0]


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
@given(n=st.sampled_from([0, 2, 4, 6, 8, 10]), seed=st.integers(0, 2 ** 32 - 1))
def test_summed_dp_matches_summed_subset_recursion(n, seed):
    for kind in ("complex", "real", "zero_diagonal", "block_zero"):
        m, diag = structured_kernel(np.random.default_rng(seed), n, kind)
        got, want = loop_hafnian(m, diag), summed_subset_dp(m, diag)
        if kind == "complex":
            assert same_bits(got, want)
        else:
            # as in test_dp_matches_full_subset_recursion, -0.0 and 0.0
            # are taken as one value
            assert same_bits(got + 0.0, want + 0.0), kind


@PROPERTY
@given(d=st.integers(2, 6), total=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30),
       chunk_bytes=st.sampled_from([1, 3000, hafnian.DP_CHUNK_BYTES]))
def test_dp_batch_matches_single_kernels(d, total, seed, picks, chunk_bytes):
    # picks choose a batch of one total, collisions and repeats included
    rng = np.random.default_rng(seed)
    a, gamma = random_amatrix(rng, d), random_gamma(rng, d)
    sector = all_patterns(d, total, collision_free=False)
    patterns = sector[[k % len(sector) for k in picks]]
    with mock.patch.object(hafnian, "DP_CHUNK_BYTES", chunk_bytes):
        batch = hafnian._polynomials(a.full, gamma, _pattern_index(patterns))
    assert_rows_match_single_kernels(a, gamma, patterns, batch)


def test_repeated_modes_match_full_subset_recursion():
    # d=8, N=4: each pattern repeats one mode four times, 64 distinct
    # (mode, copy) rows over the batch; the plan of kernel size 8 serves all
    d = 8
    rng = np.random.default_rng(8)
    a, gamma = random_amatrix(rng, d), random_gamma(rng, d)
    patterns = 4 * np.eye(d, dtype=int)
    batch = hafnian._polynomials(a.full, gamma, _pattern_index(patterns))
    for p, n in enumerate(patterns):
        assert same_bits(batch[p], full_subset_dp(*reduced(a, gamma, n)))


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
    scan = phase_scan(cfg, t, rng.uniform(-10, 40, count))
    sector = all_patterns(d, total, collision_free=False)
    patterns = sector[[p % len(sector) for p in picks]]
    for kern in members(*scan):
        full = kern.pattern_terms(patterns)
        assert same_bits(kern.pattern_terms(patterns, k + 1), full[:, :k + 1])
        if k < total:
            # the k-order sum as it was taken from all N + 1 columns
            val = full[:, :k + 1].sum(axis=1)
            want = np.where(val.real < 0.0, 0.0, val.real) * kern.p_vac
        else:
            # korder(k) with k >= N is the full model, evaluated the same way
            want = kern.pattern_probabilities(patterns)
        assert same_bits(kern.pattern_probabilities(patterns,
                                                    ModelSpec("korder", k)),
                         want)


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
    rng = np.random.default_rng(3)
    a = random_amatrix(rng, 3)
    diag = random_gamma(rng, 3)
    # the tolerance is relative to the largest entry, if that is above 1
    for full in (a.full, a.full * 1e4):
        tol = hafnian.SYMMETRY_TOL * max(1.0, np.abs(full).max())
        skewed = full.copy()
        skewed[0, 1] += 0.5 * tol
        assert matching_polynomial(skewed, diag).shape == (4,)
        skewed[0, 1] += tol
        with pytest.raises(ConfigurationError, match="not symmetric"):
            matching_polynomial(skewed, diag)


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


@pytest.mark.parametrize("model", [ModelSpec(), ModelSpec("korder", 2)])
def test_chunk_budget_moves_no_bit(model):
    # numpy may run x * y of two large temporaries in place as y * x, and
    # its complex multiply is not bitwise commutative; the DP multiplies
    # with np.multiply, so the d=15 tables of the benchmark's seed-0 state
    # keep their bytes from 1 MiB chunks to 16 MiB ones (under the full
    # model at N = 5, 258 patterns a chunk and then all 3,003 in one)
    cfg = SourceConfig(r=math.asinh(math.sqrt(0.2)),
                       alpha_mag=math.sqrt(2.2), eta_c=0.1)
    kern = StateKernel.from_state(propagate(
        build_input_state(cfg, 15), lossy_transfer(15, 1.0, seed=300)))
    for total in (4, 5):
        patterns = all_patterns(15, total, collision_free=True)
        tables = []
        for budget in (1 << 20, 1 << 24):
            with mock.patch.object(hafnian, "DP_CHUNK_BYTES", budget):
                tables.append(
                    kern.pattern_probabilities(patterns, model).tobytes())
        assert tables[0] == tables[1]


@pytest.mark.parametrize("d, total", [(6, 4), (4, 5)])
def test_sector_longer_than_one_chunk(d, total):
    # d=6, N=4: 126 patterns at kernel size 8; d=4, N=5: 56 patterns at
    # kernel size 10; a budget of the DP rows, loop weights and kernels of
    # 20 patterns splits each sector into several chunks
    kern = state_kernel(d, 7, ModelSpec())
    patterns = all_patterns(d, total, collision_free=False)
    rows, _ = hafnian._plan(2 * total)
    n = 2 * total
    with mock.patch.object(hafnian, "DP_CHUNK_BYTES",
                           16 * ((total + 1) * rows + n + n * n) * 20), \
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
    # an empty batch has no total to share: no terms
    assert kern.pattern_terms(np.empty((0, 3), int)).shape == (0, 1)
    assert kern.pattern_probabilities([(0, 0, 0)])[0] == kern.p_vac
    with pytest.raises(ConfigurationError):
        kern.pattern_terms([(1, 0, 0), (1, 1, 0)])
    with pytest.raises(ConfigurationError):
        kern.pattern_probabilities([(1, 0)])
    # a count is a nonnegative whole number, checked in every row (a row of
    # total 0 too); a float equal to one counts as it, a bool does not, in
    # a bool array or among whole counts; rows of unequal lengths are
    # refused with the same message
    for bad in ([(-1, 1, 0)], [(-1, 2, 0)], [(1.5, 0, 0)], [(np.nan, 0, 0)],
                [(True, False, False)], [(1, True, 1)],
                [(1, 0, 0), np.array([False, True, False])],
                [(1, 0), (1,)], [(1, 0, 0), (1, 0)]):
        with pytest.raises(ConfigurationError, match="nonnegative integers"):
            kern.pattern_probabilities(bad)
        with pytest.raises(ConfigurationError, match="nonnegative integers"):
            kern.pattern_terms(bad)
    whole = [(2, 0, 0), (1, 1, 0), (0, 0, 0)]
    assert same_bits(kern.pattern_probabilities(np.array(whole, float)),
                     kern.pattern_probabilities(whole))
    assert same_bits(kern.pattern_terms([(2.0, 0, 0)]),
                     kern.pattern_terms([(2, 0, 0)]))


# ---------------------------------------------------------------------------
# phase scans

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
    patterns = np.concatenate([all_patterns(d, total, collision_free=False)
                               for total in range(4)])
    with mock.patch.object(hafnian, "DP_CHUNK_BYTES", chunk_bytes):
        a, gammas, log_p_vacs = phase_scan(cfg, t, phis)
        probs = [member.pattern_probabilities(patterns, model)
                 for member in members(a, gammas, log_p_vacs)]
    for f, phi in enumerate(phis):
        kern = StateKernel.from_state(
            propagate(build_input_state(replace(cfg, phi=phi), d), t))
        assert same_bits(gammas[f], kern.gamma)
        assert log_p_vacs[f] == kern.log_p_vac
        assert same_bits(probs[f], kern.pattern_probabilities(patterns, model))


@pytest.mark.parametrize("port", [2, 3])
def test_scan_matches_state_per_phase_at_workload_size(port):
    # the fringes workload's scan, larger stacks than the property draws
    # (numpy could pick other kernels there): d = 15, 100 phases over 10
    # pi, each of its two coherent ports, and a lossy source, so that the
    # displacements pass two doubled maps
    d = 15
    cfg = SourceConfig(r=0.55, alpha_mag=1.7, coherent_port=port, eta_c=0.8)
    t = lossy_transfer(d, 0.3, 100)
    phis = np.linspace(0, 10 * math.pi, 100, endpoint=False)
    _, gammas, log_p_vacs = phase_scan(cfg, t, phis)
    assert gammas.shape == (100, 2 * d) and log_p_vacs.shape == (100,)
    for f, phi in enumerate(phis):
        kern = StateKernel.from_state(
            propagate(build_input_state(replace(cfg, phi=phi), d), t))
        assert same_bits(gammas[f], kern.gamma)
        assert log_p_vacs[f] == kern.log_p_vac


def mixed_members(d, count, rng):
    """(phis, ports, amplitudes) of ``count`` scan members whose coherent
    beam enters any port but the squeezers' (0 and 1), at one of two
    amplitudes or none, the first member at none."""
    ports = rng.integers(2, d, count).tolist()
    amplitudes = rng.choice([0.0, *rng.uniform(0.1, 1.2, 2)], count)
    amplitudes[0] = 0.0
    return rng.uniform(-10, 40, count), ports, amplitudes


@PROPERTY
@given(d=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 9))
def test_mixed_scan_matches_separate_scans(d, seed, count):
    # one scan over mixed ports and amplitudes, as simulate_records runs
    # its three settings: each member's row has the bits of the scan of
    # its own (port, amplitude) and of the state built for it
    cfg, t, rng = random_circuit(d, seed)
    phis, ports, amplitudes = mixed_members(d, count, rng)
    _, gammas, log_p_vacs = phase_scan(cfg, t, phis, ports, amplitudes)
    members = list(zip(ports, amplitudes.tolist()))
    for port, amplitude in set(members):
        own = replace(cfg, coherent_port=port, alpha_mag=amplitude)
        rows = [f for f, m in enumerate(members) if m == (port, amplitude)]
        _, g, log_p = phase_scan(own, t, phis[rows])
        assert same_bits(gammas[rows], g) and same_bits(log_p_vacs[rows], log_p)
        for f in rows:
            kern = StateKernel.from_state(propagate(
                build_input_state(replace(own, phi=phis[f]), d), t))
            assert same_bits(gammas[f], kern.gamma)
            assert log_p_vacs[f] == kern.log_p_vac


def test_scan_members_are_checked_as_sources():
    # a member's port is checked as the coherent port of a source of its
    # own: on the circuit, and off the squeezers
    cfg, t, _ = random_circuit(4, 0)
    for port, message in [(4, "not a mode"), (1, "ports overlap")]:
        with pytest.raises(ConfigurationError, match=message):
            phase_scan(cfg, t, [0.0, 1.0], [2, port], [1.0, 1.0])
    with pytest.raises(ConfigurationError, match="nonnegative"):
        phase_scan(cfg, t, [0.0, 1.0], [2, 3], [1.0, -1.0])
    with pytest.raises(ConfigurationError, match="one port and one amplitude"):
        phase_scan(cfg, t, [0.0, 1.0], [2], [1.0, 1.0])


def twofold_patterns(pairs, d):
    """The singles, then the twofold pattern of each pair, as (d + P, d)."""
    eye = np.eye(d, dtype=np.int64)
    return np.vstack([eye, *(eye[j] + eye[k] for j, k in pairs)])


def assert_low_order_rates_match_the_dp(a, gammas, log_p_vacs, pairs):
    got = low_order_rates(a, gammas, log_p_vacs, pairs)
    patterns = twofold_patterns(pairs, a.d)
    kerns = members(a, gammas, log_p_vacs)
    want = np.hstack([[[kern.p_vac] for kern in kerns],
                      [kern.pattern_probabilities(patterns) for kern in kerns]])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # a member's row has its bits in a scan of any size
    for f in range(len(got)):
        one = low_order_rates(a, gammas[f:f + 1], log_p_vacs[f:f + 1], pairs)
        assert same_bits(one, got[f:f + 1])


@PROPERTY
@given(d=st.integers(3, 7), seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 6))
def test_low_order_rates_match_the_dp(d, seed, count):
    # the closed forms of the singles and twofolds, collisions included,
    # against the loop-hafnian DP, on lossy circuits with mixed ports and
    # an amplitude-0 member
    cfg, t, rng = random_circuit(d, seed)
    scan = phase_scan(cfg, t, *mixed_members(d, count, rng))
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    assert_low_order_rates_match_the_dp(*scan, pairs)


@pytest.mark.parametrize("port", [2, 3])
def test_low_order_rates_match_the_dp_at_workload_size(port):
    d = 15
    cfg = SourceConfig(r=0.55, alpha_mag=1.7, coherent_port=port, eta_c=0.8)
    scan = phase_scan(cfg, lossy_transfer(d, 0.3, 100),
                      np.linspace(0, 10 * math.pi, 20, endpoint=False))
    assert_low_order_rates_match_the_dp(
        *scan, [(j, k) for j in range(d) for k in range(j + 1, d)])


def test_low_order_rates_edges():
    # a negative rate is clamped to 0 and a non-finite one raises, as in
    # pattern_probabilities; the pairs are sorted modes of the circuit
    a = AMatrix(2, np.zeros((2, 2)), np.diag([-0.5, 0.25]))
    scan = (a, np.zeros((1, 4)), [0.0])
    pairs = [(0, 0), (0, 1), (1, 1)]
    got = low_order_rates(*scan, pairs)
    assert got.tolist() == [[1.0, 0.0, 0.25, 0.25, 0.0, 0.0625]]
    assert same_bits(got[0, 1:], members(*scan)[0].pattern_probabilities(
        twofold_patterns(pairs, 2)))
    assert low_order_rates(*scan, []).tolist() == [[1.0, 0.0, 0.25]]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="non-finite"):
        low_order_rates(a, np.full((1, 4), 1e200), [0.0], pairs)
    for bad in ([(1, 0)], [(0, 2)], [(-1, 0)]):
        with pytest.raises(ConfigurationError, match="pairs must be"):
            low_order_rates(*scan, bad)


def per_phase_records(config, t, second_input_port, phi_grid, pulses, seed,
                      include_collisions):
    """simulate_records computed with one state per phase, through the
    same closed forms (``low_order_rates``, held to the
    DP by test_low_order_rates_match_the_dp), and one observable at a time
    for the draws."""
    d = t.d
    pairs = [(j, k) for j in range(d)
             for k in range(j if include_collisions else j + 1, d)]
    rng = np.random.default_rng(seed)
    noisy = np.isfinite(pulses)

    def binomial(rate, n):
        return rng.binomial(int(n), np.clip(rate, 0, 1)) / n

    def rates(cfg):
        kern = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
        row = low_order_rates(kern.a, kern.gamma[None], [kern.log_p_vac],
                              pairs)[0]
        return row[0], row[1:]

    p_vac, r = rates(replace(config, alpha_mag=0.0))
    singles, twofolds = r[:d], r[d:].tolist()
    if noisy:
        singles = binomial(singles, pulses)
        twofolds = [float(binomial(v, pulses)) for v in twofolds]
        p_vac = float(binomial(p_vac, pulses))
    table = np.array([p_vac, *singles, *twofolds])[:, None]
    records = {"blocked": MeasurementRecord("blocked", d, pulses, table,
                                            pairs)}
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
        records[name] = MeasurementRecord(name, d, per_bin, table, pairs,
                                          phi=phi_grid)
    return records


def row_by_row_csv(records):
    """The bytes of the records CSV written one row at a time."""
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
    return buf.getvalue().encode()


@PROPERTY
@given(d=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       nphi=st.integers(1, 6), noisy=st.booleans(), collisions=st.booleans(),
       second=st.booleans())
def test_simulate_records_match_state_per_phase(d, seed, nphi, noisy,
                                                collisions, second):
    # simulate_records scans its three settings as one scan; this pins
    # the scan's rows, the table assembly, the draw order and the CSV
    # bytes to one state per phase
    cfg, t, rng = random_circuit(d, seed)
    phi_grid = np.sort(rng.uniform(0, 4 * math.pi, nphi))
    args = (cfg, t, d - 1 if second else None, phi_grid,
            1e5 if noisy else math.inf, seed % 1000, collisions)
    got = b"".join(records_to_csv(simulate_records(*args)))
    want = per_phase_records(*args)
    assert got == b"".join(records_to_csv(want)) == row_by_row_csv(want)


COUNT_PULSES = [1.0, 1e5, 2.0 ** 53 - 1, 2.0 ** 53, 1e16, 1e17, 1e20,
                math.inf]
COUNT_RATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308,
                     1 - 2 ** -53]),
    st.floats(0, 1))


def count_rate(kind: str, x: float, pulses: float) -> float:
    """The rate ``x``, or for a finite ``pulses`` one whose count (the
    rate times ``pulses``) is near the whole count under x * pulses, that
    count over ``pulses`` ("whole") or half a count above it ("half")."""
    if kind == "rate" or not math.isfinite(pulses):
        return x
    count = math.floor(x * pulses) + (0.5 if kind == "half" else 0)
    return min(count / pulses, 1.0)


@PROPERTY
@given(pulses=st.sampled_from(COUNT_PULSES),
       draws=st.lists(st.tuples(st.sampled_from(["rate", "whole", "half"]),
                                COUNT_RATES), min_size=1, max_size=40))
@example(pulses=2.0 ** 53 - 1, draws=[("rate", 1.0), ("rate", -0.0),
                                      ("whole", 0.5), ("half", 0.5)])
@example(pulses=2.0 ** 53, draws=[("rate", 1.0), ("whole", 1 - 2 ** -53)])
@example(pulses=1e17, draws=[("rate", 1.0), ("whole", 0.1), ("half", 0.1),
                             ("rate", 5e-324)])
@example(pulses=math.inf, draws=[("rate", 0.0), ("rate", -0.0),
                                 ("rate", 1.0), ("rate", 0.5)])
def test_counts_written_as_by_format(pulses, draws):
    # whole counts are written as digits without formatting: the texts are
    # those of .17g for every count, -0.0, 2**53 and exponent forms too
    rates = np.array([count_rate(kind, x, pulses) for kind, x in draws])
    d = len(rates) - 1
    records = {
        "blocked": MeasurementRecord("blocked", d, pulses, rates[:, None]),
        "input1": MeasurementRecord("input1", d, pulses, rates[::-1, None],
                                    phi=[0.5])}
    assert b"".join(records_to_csv(records)) == row_by_row_csv(records)


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
    # the pairs' signed sum is one fringe: its constants summed in pair order
    offset, weight = 0.0, 0j
    for j, k, sign in pairs:
        fringe = TwofoldFringe.of(kern, j, k)
        offset += sign * float(fringe.offset)
        weight += sign * complex(fringe.weight)
    for phi in phis:
        for j in range(d):
            for k in range(j + 1, d):
                rate = build_error_signal(kern, [(j, k, 1)])(phi)
                assert rate == predict_twofold(kern, j, k, phi)[1]
        rotation = cmath.exp(2j * phi)
        assert signal(phi) == offset + 2 * (weight.real * rotation.real
                                            - weight.imag * rotation.imag)
        # and the pair-by-pair sum of rates, to rounding
        rates = [sign * predict_twofold(kern, j, k, phi)[1]
                 for j, k, sign in pairs]
        assert abs(signal(phi) - sum(rates)) <= 1e-12 * sum(map(abs, rates))
    # a (G,) array of phases, one per gain set, is G scalar signals
    assert same_bits(signal(np.array(phis)), [signal(phi) for phi in phis])


@PROPERTY
@given(d=st.integers(3, 7), seed=st.integers(0, 2 ** 32 - 1),
       phis=st.lists(st.floats(-50, 50), min_size=1, max_size=4))
def test_twofold_fringe_matches_the_dp(d, seed, phis):
    # the lock's closed form against the loop-hafnian DP: each pair's
    # fringe of the phase-0 kernel, at phi, is the twofold of the state at
    # phi over its p_vac, and its blocked rate that of the state with no
    # coherent beam
    cfg, t, _ = random_circuit(d, seed)
    kern = lock_kernel(cfg, t)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    fringes = [TwofoldFringe.of(kern, j, k) for j, k in pairs]
    patterns = twofold_patterns(pairs, d)[d:]
    blocked, *at_phi = members(*phase_scan(
        cfg, t, [0.0, *phis], amplitudes=[0.0, *[cfg.alpha_mag] * len(phis)]))

    def twofolds(member):
        return member.pattern_probabilities(patterns) / member.p_vac

    np.testing.assert_allclose([f.blocked for f in fringes],
                               twofolds(blocked), rtol=1e-12, atol=0)
    for phi, member in zip(phis, at_phi):
        rotation = cmath.exp(2j * phi)
        np.testing.assert_allclose([f.rate_at(rotation) for f in fringes],
                                   twofolds(member), rtol=1e-12, atol=0)


def reference_pid_lock(drift, pid, error_signal, duration, seed=0):
    """The scalar PID loop that the batched loop replaced, one gain set at a
    time: the reference for its bits."""
    rng = np.random.default_rng(seed)
    dt = drift.step_interval
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
    setpoint = LOCK_SETPOINT
    slope = (error_signal(setpoint + math.pi / 4)
             - error_signal(setpoint - math.pi / 4))
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
    slope = (signal(LOCK_SETPOINT + math.pi / 4)
             - signal(LOCK_SETPOINT - math.pi / 4))
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
       step=st.sampled_from([0.1, 0.07]), steps=st.floats(1, 90),
       limit=st.sampled_from([1e-3, 0.3, 4 * math.pi]),
       gains=st.lists(st.tuples(GAIN, GAIN, GAIN), min_size=1, max_size=5))
def test_pid_loop_matches_scalar_reference(d, seed, n_pairs, kind, step,
                                           steps, limit, gains):
    # durations that are no multiple of the step, from one step (a trace
    # covers at least one); gains and limits that clamp the actuator and
    # drive some locks to divergence
    signal, slope = lock_signal(d, seed, n_pairs)
    assume(slope != 0)
    drift = DriftModel(kind=kind, step_interval=step)
    duration, seed = steps * step, seed % 1000
    pids = [PidConfig(kp=a / slope, ki=b / slope, kd=c / (10 * slope),
                      actuator_limit=limit) for a, b, c in gains]
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


@PROPERTY
@given(d=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       total=st.integers(1, 5), count=st.integers(1, 3),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=20))
def test_summed_models_match_pair_count_terms(d, seed, total, count, picks):
    # picks choose a batch of one total, collisions and repeats included
    cfg, t, rng = random_circuit(d, seed)
    scan = phase_scan(cfg, t, rng.uniform(-10, 40, count))
    sector = all_patterns(d, total, collision_free=False)
    patterns = sector[[p % len(sector) for p in picks]]
    for kern in members(*scan):
        terms = kern.pattern_terms(patterns)
        # the loop hafnian sums the same terms in another order: the full
        # model agrees with the sum of the pair-count terms to rounding
        val = terms.sum(axis=1).real
        want = np.where(val < 0.0, 0.0, val) * kern.p_vac
        full = kern.pattern_probabilities(patterns)
        scale = np.abs(terms).sum(axis=1) * kern.p_vac
        assert np.all(np.abs(full - want) <= 1e-13 * scale)
        # squeezer-only: zero loop weights give the top column, bit for bit
        top = terms[:, total].real
        want = np.where(top < 0.0, 0.0, top) * kern.p_vac
        assert same_bits(kern.pattern_probabilities(
            patterns, ModelSpec("squeezer_only")), want)
