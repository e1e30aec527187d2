import numpy as np
import pytest
from numpy.testing import assert_allclose

from dgbs.errors import ConfigurationError, EnumerationBudgetError
from dgbs.fock import oracle_probability
from dgbs.hafnian import _polynomials, matching_polynomial
from dgbs.probability import ModelSpec
from dgbs.states import SourceConfig, TransferMatrix


def brute_matchings(m, diag):
    """Independent enumerator: explicit recursion over all matchings with
    fixed points, resolved by pair count."""
    n = m.shape[0]

    def rec(idx):
        if not idx:
            yield 0, 1.0 + 0j
            return
        i = idx[0]
        rest = idx[1:]
        for pairs, val in rec(rest):
            yield pairs, val * diag[i]
        for pos, j in enumerate(rest):
            rem = rest[:pos] + rest[pos + 1:]
            for pairs, val in rec(rem):
                yield pairs + 1, val * m[i, j]

    out = np.zeros(n // 2 + 1, dtype=complex)
    for p, v in rec(tuple(range(n))):
        out[p] += v
    return out


def random_symmetric(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.T) / 2


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_matching_polynomial_against_enumerator(n, rng):
    for _ in range(10):
        m = random_symmetric(n, rng)
        diag = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = matching_polynomial(m, diag)
        want = brute_matchings(m, diag)
        assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        # the summed DP gives their sum, the loop hafnian
        lhaf = _polynomials(m, diag, np.arange(n)[None], summed=True)
        assert_allclose(lhaf[0, 0], want.sum(), rtol=1e-10, atol=1e-12)


def test_hafnian_known_values():
    # the hafnian is the top entry, every index matched:
    # haf of [[0,a],[a,0]] is a; 4x4 closed form a01*a23 + a02*a13 + a03*a12
    a = np.array([[0, 3.0], [3.0, 0]])
    assert matching_polynomial(a)[-1] == pytest.approx(3.0)
    m = random_symmetric(4, np.random.default_rng(0))
    want = m[0, 1] * m[2, 3] + m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
    assert matching_polynomial(m)[-1] == pytest.approx(want)


def test_hafnian_empty():
    assert matching_polynomial(np.zeros((0, 0)))[-1] == 1.0


def test_korder_rejects_negative():
    # The k-order prefix of the matching polynomial is selected through
    # ModelSpec; a negative order is rejected however it is spelled.
    with pytest.raises(ConfigurationError):
        ModelSpec("korder", -1)
    with pytest.raises(ConfigurationError):
        ModelSpec.parse("korder(-1)")


def test_kernel_validation():
    with pytest.raises(ConfigurationError):
        matching_polynomial(np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):
        matching_polynomial(np.array([[0, 1.0], [2.0, 0]]))
    with pytest.raises(EnumerationBudgetError):
        matching_polynomial(np.zeros((22, 22)))


def test_detection_pattern_basics():
    # a pattern is a row of photon counts; the oracle, which takes one
    # pattern at a time, rejects a negative count itself
    t = TransferMatrix.square(np.eye(3))
    with pytest.raises(ConfigurationError, match="nonnegative"):
        oracle_probability(SourceConfig(r=0.2), t, (1, -1, 0))
