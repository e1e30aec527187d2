import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import haar_unitary, lossy_transfer
from dgbs import fock
from dgbs.errors import ConfigurationError, CutoffError
from dgbs.fock import (MAX_CUTOFF, FockVector, _input_photon_numbers,
                       _interfere, apply_interferometer, choose_cutoff,
                       coherent_fock, dilate_lossy, expand_inputs,
                       oracle_probability, tmsv_fock)
from dgbs.probability import StateKernel
from dgbs.states import (SourceConfig, TransferMatrix, build_input_state,
                         propagate)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


def _bits(amplitudes):
    """Keys in order with the exact bits of each amplitude."""
    return [(k, complex(v).real.hex(), complex(v).imag.hex())
            for k, v in amplitudes.items()]


def _per_ket_interfere(psi, u, limit):
    """The reference for ``fock._interfere``: each ket expanded on its own,
    from its amp / sqrt(prod n_i!), one creation operator at a time in the
    order of the modes, with the same pruning toward ``limit``."""
    d = psi.d
    m, want = len(limit), sum(limit)
    radix = 1 + max(map(sum, psi.amplitudes), default=0)
    stride = [radix ** j for j in range(d)]
    low_span = radix ** m
    cols = [[(j, complex(u[j, i])) for j in range(d) if u[j, i] != 0]
            for i in range(d)]
    moves = [{} for _ in range(d)]
    for low_digits in itertools.product(*(range(n + 1) for n in limit)):
        low = sum(s * e for s, e in zip(stride, low_digits))
        for i in range(d):
            target = [(stride[j], c) for j, c in cols[i]
                      if j < m and low_digits[j] < limit[j]]
            ancilla = [(stride[j], c) for j, c in cols[i] if j >= m]
            moves[i][low] = (want - sum(low_digits), target, target + ancilla)
    out = {}
    for ket, amp in psi.amplitudes.items():
        left = sum(ket)
        if left < want:
            continue
        scale = math.sqrt(math.prod(map(math.factorial, ket)))
        poly = {0: complex(amp / scale)}
        for i, n_i in enumerate(ket):
            table = moves[i]
            for _ in range(n_i):
                nxt = {}
                for mono, coeff in poly.items():
                    missing, target, steps = table[mono % low_span]
                    for step, cj in steps if missing < left else target:
                        nxt[mono + step] = nxt.get(mono + step, 0.0) \
                            + coeff * cj
                poly = nxt
                left -= 1
        for mono, coeff in poly.items():
            key = tuple(mono // s % radix for s in stride)
            val = coeff * math.sqrt(math.prod(map(math.factorial, key)))
            out[key] = out.get(key, 0.0) + val
    return {k: v for k, v in out.items() if v != 0}


def _source_loss_folded(cfg, t):
    """The transfer with the uniform source loss eta_tot folded in."""
    return TransferMatrix(t.d, t.d, math.sqrt(cfg.eta_tot) * t.embedded())


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

    def test_expand_inputs_cutoff_guard(self):
        cfg = SourceConfig(r=1.2, alpha_mag=2.0)
        with pytest.raises(CutoffError):
            expand_inputs(cfg, 4, cutoff=2, eps=1e-3)


class TestInterferometer:
    def test_preserves_norm_and_photon_number(self):
        # the TMSV on modes 0 and 1, vacuum on mode 2
        psi = FockVector(3, {(na, nb, 0): amp for (na, nb), amp
                             in tmsv_fock(0.4, 6).amplitudes.items()})
        u = haar_unitary(3, seed=2)
        out = apply_interferometer(psi, u)
        assert out.norm_sq() == pytest.approx(psi.norm_sq(), abs=1e-12)
        for ket, amp in out.amplitudes.items():
            assert sum(ket) % 2 == 0  # pair correlations survive

    def test_hong_ou_mandel(self):
        psi = FockVector(2, {(1, 1): 1.0})
        bs = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        out = apply_interferometer(psi, bs)
        assert abs(out.amplitudes.get((1, 1), 0.0)) < 1e-12
        assert abs(out.amplitudes[(2, 0)]) ** 2 == pytest.approx(0.5)

    def test_projected_expansion_keeps_target_amplitudes(self):
        # the oracle expands only the monomials that can still reach the
        # pattern; those that do keep their order and their bits, with and
        # without source loss
        for eta_c in [1.0, 0.6]:
            cfg = SourceConfig(r=0.4, alpha_mag=0.7, eta_c=eta_c)
            psi = expand_inputs(cfg, 6, cutoff=6, eps=0.05)
            t = _source_loss_folded(cfg, lossy_transfer(3, 0.5, seed=4))
            w = dilate_lossy(t)
            full = apply_interferometer(psi, w)
            # (3, 2, 1) has more photons than all kets but those at the
            # cutoff
            for target in [(0, 0, 0), (2, 0, 1), (1, 1, 1), (3, 2, 1)]:
                kept = _interfere(psi, w, target)
                want = {k: v for k, v in full.amplitudes.items()
                        if k[:3] == target}
                assert len(want) > 0, (eta_c, target)
                assert _bits(kept.amplitudes) == _bits(want), (eta_c, target)

    def test_ket_beyond_its_cutoff(self):
        # nothing stops a ket from holding more photons than the cutoff, so
        # the expansion must size its monomial digits from the kets
        amps = {(2, 1): 0.8, (0, 1): 0.6}
        bs = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        out = apply_interferometer(FockVector(2, dict(amps)), bs)
        assert sorted(out.amplitudes) == [(0, 1), (0, 3), (1, 0), (1, 2),
                                          (2, 1), (3, 0)]
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert abs(out.amplitudes[(3, 0)]) == pytest.approx(
            0.8 * math.sqrt(3 / 8))
        kept = _interfere(FockVector(2, dict(amps)), bs, (1, 2))
        assert _bits(kept.amplitudes) == _bits(
            {(1, 2): out.amplitudes[(1, 2)]})

    def test_rejects_non_unitary(self):
        psi = FockVector(2, {(0, 0): 1.0})
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

    @pytest.mark.parametrize("d, seed", [(3, 4), (3, 7), (4, 2), (6, 1)])
    def test_uniform_loss_leaves_exact_zeros(self, d, seed):
        # under uniform loss the ancilla blocks are multiples of the
        # identity: their off-diagonal entries must be exactly 0, not
        # rounding noise that the expansion multiplies by
        w = dilate_lossy(lossy_transfer(d, 0.5, seed=seed))
        off = ~np.eye(d, dtype=bool)
        assert not w[:d, d:][off].any() and not w[d:, :d][off].any()


class TestOracle:
    def test_matches_engine_lossy(self):
        cfg = SourceConfig(r=0.4, alpha_mag=0.7, phi=0.9)
        t = lossy_transfer(3, 0.5, seed=4)
        kern = StateKernel.from_state(propagate(build_input_state(cfg, 3), t))
        for n in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 1)]:
            want = kern.pattern_probabilities([n])[0]
            got = oracle_probability(cfg, t, n)
            assert got == pytest.approx(want, abs=1e-6)

    def test_matches_engine_with_source_loss(self):
        cfg = SourceConfig(r=0.3, alpha_mag=0.5, eta_c=0.6, eta_d=0.8)
        t = TransferMatrix.square(haar_unitary(3, seed=6))
        kern = StateKernel.from_state(propagate(build_input_state(cfg, 3), t))
        n = (1, 1, 0)
        assert oracle_probability(cfg, t, n) == pytest.approx(
            kern.pattern_probabilities([n])[0], abs=1e-6)

    def test_pattern_dimension_checked(self):
        cfg = SourceConfig(r=0.2)
        t = TransferMatrix.square(np.eye(3))
        with pytest.raises(ConfigurationError):
            oracle_probability(cfg, t, (1, 0))

    @pytest.mark.parametrize("cutoff", [3, -1, MAX_CUTOFF + 1])
    def test_cutoff_outside_its_range_rejected(self, cutoff, monkeypatch):
        # below the pattern's total no ket reaches it, and past MAX_CUTOFF
        # the expansion would not end in time: the check comes first, so
        # no expansion starts
        def no_expansion(*args, **kwargs):
            raise AssertionError("a Fock expansion started")

        monkeypatch.setattr(fock, "expand_inputs", no_expansion)
        t = TransferMatrix.square(np.eye(3))
        with pytest.raises(ConfigurationError, match="cutoff"):
            oracle_probability(SourceConfig(r=0.2), t, (2, 1, 1),
                               cutoff=cutoff)

    def test_cutoff_at_the_pattern_total_accepted(self):
        t = TransferMatrix.square(np.eye(3))
        cfg = SourceConfig(alpha_mag=0.3)
        assert oracle_probability(cfg, t, (0, 0, 1), cutoff=1, eps=1.0) == \
            pytest.approx(0.09 * math.exp(-0.09), rel=1e-12)

    def test_tail_mass_decreases(self):
        cfg = SourceConfig(r=0.5, alpha_mag=1.0)
        tails = [_input_photon_numbers(cfg)[c + 1:].sum() for c in (4, 8, 12)]
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


@PROPERTY
@given(d=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
       eta=st.floats(0.2, 1.0), eta_c=st.sampled_from([1.0, 0.7]),
       cutoff=st.integers(2, 6), data=st.data())
def test_oracle_sums_the_full_expansion_bit_for_bit(d, seed, eta, eta_c,
                                                     cutoff, data):
    rng = np.random.default_rng(seed)
    ports = data.draw(st.permutations(range(2 * d)), label="ports")[:3]
    cfg = SourceConfig(r=float(rng.uniform(0.05, 0.6)),
                       alpha_mag=float(rng.uniform(0.0, 1.0)),
                       phi=float(rng.uniform(0.0, 2 * math.pi)),
                       squeezer_ports=tuple(ports[:2]), coherent_port=ports[2],
                       eta_c=eta_c)
    t = lossy_transfer(d, eta, seed=seed % 1000)
    pattern = tuple(data.draw(st.lists(st.integers(0, 3), min_size=d,
                                       max_size=d), label="pattern"))
    # the oracle's steps, with the full expansion in place of the pruned one
    psi = expand_inputs(cfg, 2 * d, cutoff, eps=1.0)
    full = apply_interferometer(psi, dilate_lossy(
        _source_loss_folded(cfg, t) if cfg.eta_tot < 1 else t))
    want = 0.0
    for ket, amp in full.amplitudes.items():
        if ket[:d] == pattern:
            want += abs(amp) ** 2
    if sum(pattern) > cutoff:
        # no ket reaches the pattern, and the oracle refuses such a cutoff
        assert want == 0.0
        with pytest.raises(ConfigurationError, match="cutoff"):
            oracle_probability(cfg, t, pattern, cutoff=cutoff, eps=1.0)
        return
    got = oracle_probability(cfg, t, pattern, cutoff=cutoff, eps=1.0)
    assert float(got).hex() == float(want).hex()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
       cutoff=st.integers(2, 8), data=st.data())
def test_shared_prefixes_keep_the_per_ket_amplitudes(d, seed, cutoff, data):
    # the trie expands a prefix that several kets share once and scales
    # each ket's monomials at its node: against the expansion of each ket
    # on its own, every target amplitude moves by rounding only.  Any
    # arrangement of the ports may come up, the coherent port before the
    # squeezer ports included, and the circuit's loss differs per mode.
    rng = np.random.default_rng(seed)
    ports = data.draw(st.permutations(range(2 * d)), label="ports")[:3]
    cfg = SourceConfig(r=float(rng.uniform(0.05, 0.8)),
                       alpha_mag=float(rng.uniform(0.0, 1.2)),
                       phi=float(rng.uniform(0.0, 2 * math.pi)),
                       squeezer_ports=tuple(ports[:2]), coherent_port=ports[2])
    etas = rng.uniform(0.2, 1.0, d)
    t = TransferMatrix.square(haar_unitary(d, seed % 1000) @ np.diag(
        np.sqrt(etas)) @ haar_unitary(d, seed % 1000 + 1))
    pattern = tuple(data.draw(st.lists(st.integers(0, 3), min_size=d,
                                       max_size=d), label="pattern"))
    psi = expand_inputs(cfg, 2 * d, cutoff, eps=1.0)
    w = dilate_lossy(t)
    want = _per_ket_interfere(psi, w, pattern)
    got = _interfere(psi, w, pattern).amplitudes
    assert list(got) == list(want)
    # terms that cancel can leave an amplitude far below them (1e-6 against
    # rounding of 5e-20), so rounding is bounded relative to the sum of the
    # terms' magnitudes: the same expansion of |amp| through |w|
    magnitudes = _per_ket_interfere(
        FockVector(2 * d, {k: abs(v) for k, v in psi.amplitudes.items()}),
        np.abs(w), pattern)
    for key, amp in want.items():
        assert abs(got[key] - amp) <= 1e-14 * abs(magnitudes[key]), key
