"""Batched pattern evaluation is bit-identical to one pattern at a time.

Every probability table goes through one batched call
(``StateKernel.pattern_probabilities``), which groups patterns by photon
total and runs the subset DP over chunks of patterns.  These properties pin
the batch to the single-pattern results, bit for bit, for any mix of totals,
collisions, models and chunk sizes.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lossy_transfer
from dgbs.errors import ConfigurationError
from dgbs.hafnian import (DetectionPattern, matching_polynomial,
                          matching_polynomials)
from dgbs.probability import ModelSpec, StateKernel, all_patterns
from dgbs.states import (SourceConfig, build_classical_input,
                         build_input_state, propagate)

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


@PROPERTY
@given(n=st.sampled_from([0, 2, 4, 6, 8]), count=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dp_batch_matches_single_kernels(n, count, seed):
    ms, diags = random_kernels(np.random.default_rng(seed), count, n)
    batch = matching_polynomials(ms, diags)
    for p in range(count):
        assert same_bits(batch[p], matching_polynomial(ms[p], diags[p]))


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
    single = [kern.pattern_probability(n, model) for n in patterns]
    assert same_bits(batch, single)


@pytest.mark.parametrize("d, total", [(6, 4), (4, 5)])
def test_sector_longer_than_one_chunk(d, total):
    # d=6, N=4: 126 patterns at kernel size 8; d=4, N=5: 56 patterns at
    # kernel size 10; each spans several chunks of the default budget
    kern = state_kernel(d, 7, ModelSpec())
    patterns = all_patterns(d, total, collision_free=False)
    per_chunk = hafnian.DP_CHUNK_BYTES // hafnian._bytes_per_kernel(2 * total)
    assert len(patterns) > 2 * per_chunk
    terms = kern.pattern_terms(patterns)
    for p, n in enumerate(patterns):
        assert same_bits(terms[p], kern.korder_terms(n))
    for model in MODELS[:5]:
        assert same_bits(kern.pattern_probabilities(patterns, model),
                         [kern.pattern_probability(n, model) for n in patterns])


def test_batch_edges():
    kern = state_kernel(3, 0, ModelSpec())
    assert kern.pattern_probabilities([]).shape == (0,)
    assert kern.pattern_probabilities([DetectionPattern((0, 0, 0))])[0] == \
        kern.p_vac
    with pytest.raises(ConfigurationError):
        kern.pattern_terms([DetectionPattern((1, 0, 0)),
                            DetectionPattern((1, 1, 0))])
    with pytest.raises(ConfigurationError):
        kern.pattern_probabilities([DetectionPattern((1, 0))])
