"""Brute-force truncated-Fock-space oracle for small systems.

Loss is handled by unitary dilation (sub-unitary d x d map embedded in the
top-left block of a 2d x 2d unitary) followed by marginalizing the ancilla
modes; the state itself stays pure throughout.  Intended for d <= 3 or 4,
used as the independent ground truth behind the loop-Hafnian engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, CutoffError
from .states import SourceConfig, TransferMatrix

UNITARY_TOL = 1e-10   # largest |U U^dag - 1| entry of a unitary
ZERO_TOL = 4 * np.finfo(float).eps   # rounding of a dilation entry, per mode
CUTOFF_TOL = 1e-7   # the probability error an adaptive cutoff stays under
TAIL_TOP = 120      # photons summed per source in the input tail mass
MAX_CUTOFF = 18     # largest total-photon cutoff the oracle expands


@dataclass
class FockVector:
    """Sparse pure state: occupation tuple -> complex amplitude."""

    d: int
    amplitudes: dict = field(default_factory=dict)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    @property
    def truncation_loss(self) -> float:
        return max(0.0, 1.0 - self.norm_sq())


def coherent_fock(alpha: complex, cutoff: int) -> FockVector:
    v = FockVector(1)
    amp = math.exp(-abs(alpha) ** 2 / 2)
    term = complex(amp)
    for n in range(cutoff + 1):
        v.amplitudes[(n,)] = term
        term = term * alpha / math.sqrt(n + 1)
    return v


def tmsv_fock(r: float, cutoff: int) -> FockVector:
    v = FockVector(2)
    t = math.tanh(r)
    amp = 1.0 / math.cosh(r)
    for n in range(cutoff // 2 + 1):
        v.amplitudes[(n, n)] = amp * t ** n
    return v


def expand_inputs(config: SourceConfig, total_modes: int, cutoff: int,
                  eps: float) -> FockVector:
    """TMSV (sum tanh^n r / cosh r |n,n>) and coherent state placed on their
    ports, vacuum elsewhere; total-photon cutoff."""
    ports = (*config.squeezer_ports, config.coherent_port)
    if max(ports) >= total_modes:
        raise ConfigurationError("input port exceeds total modes")
    tm = tmsv_fock(config.r, cutoff)
    coh = coherent_fock(config.alpha_mag * np.exp(1j * config.phi), cutoff)
    out = FockVector(total_modes)
    p, q, c = config.squeezer_ports[0], config.squeezer_ports[1], config.coherent_port
    for (na, nb), va in tm.amplitudes.items():
        for (nc,), vc in coh.amplitudes.items():
            if na + nb + nc > cutoff:
                continue
            key = [0] * total_modes
            key[p], key[q], key[c] = na, nb, nc
            out.amplitudes[tuple(key)] = va * vc
    if out.truncation_loss > eps:
        raise CutoffError(
            f"truncation loss {out.truncation_loss:.3e} exceeds eps={eps:.1e}; "
            "raise the cutoff")
    return out


def apply_interferometer(psi: FockVector, u: np.ndarray) -> FockVector:
    """Apply a_i^dag -> sum_j u[j, i] a_j^dag (u acts like delta' = u delta).

    Passive transformations conserve total photon number, so the total-photon
    cutoff introduces no boundary loss.
    """
    return _interfere(psi, u, ())


def _interfere(psi: FockVector, u: np.ndarray, limit: tuple) -> FockVector:
    """:func:`apply_interferometer` expanded only toward the target ``limit``
    in the first m = len(limit) modes.

    A ket is a sequence of creation operators, applied in one order of the
    modes: those in which the kets hold photons, by their largest exponent
    and then by index (for the oracle's inputs the squeezer ports come
    first and the coherent port last).  These sequences form a trie, which
    the expansion walks depth first: a prefix that several kets share is
    expanded once, from coefficient 1, and each ket reads its monomials at
    its own node and scales them by amp / sqrt(prod n_i!) only there.

    A monomial that has placed ``have`` photons in the target modes can
    reach the target only while no exponent j < m exceeds limit[j] and
    sum(limit) - have <= left, the most creation operators that a ket
    below its node has still to apply; every other monomial is dropped as
    soon as it appears.  ``left`` falls by at least one per operator, and
    exponents and ``have`` only grow, so a dropped monomial never feeds a
    kept one: each kept amplitude sums the same terms in the same order as
    the full expansion, and keeps its bits.  With ``limit=()`` nothing is
    dropped.

    A monomial is one int, digit j (radix 1 + the most photons of any ket)
    the exponent of mode j; the target modes are the low digits.
    """
    u = np.asarray(u, dtype=complex)
    d = psi.d
    if u.shape != (d, d):
        raise ConfigurationError(f"unitary shape {u.shape} != ({d},{d})")
    if np.abs(u @ u.conj().T - np.eye(d)).max() > UNITARY_TOL:
        raise ConfigurationError("interferometer matrix is not unitary")
    m, want = len(limit), sum(limit)
    radix = 1 + max(map(sum, psi.amplitudes), default=0)
    stride = [radix ** j for j in range(d)]
    low_span = radix ** m
    goal = sum(s * e for s, e in zip(stride, limit))
    cols = [[(j, complex(u[j, i])) for j in range(d) if u[j, i] != 0]
            for i in range(d)]
    # per column and per low part (mono % low_span, the target exponents):
    # the photons still missing from the target, and the steps of a
    # monomial that must place them all in target modes, or that may still
    # take an ancilla step; both in the order of j
    moves = [{} for _ in range(d)]
    for low_digits in itertools.product(*(range(n + 1) for n in limit)):
        low = sum(s * e for s, e in zip(stride, low_digits))
        for i in range(d):
            target = [(stride[j], c) for j, c in cols[i]
                      if j < m and low_digits[j] < limit[j]]
            ancilla = [(stride[j], c) for j, c in cols[i] if j >= m]
            moves[i][low] = (want - sum(low_digits), target, target + ancilla)
    kets = [ket for ket in psi.amplitudes if sum(ket) >= want]
    if not kets:
        return FockVector(d)
    top = [max(exponents) for exponents in zip(*kets)]
    order = sorted((i for i in range(d) if top[i]), key=top.__getitem__)
    nodes = _ket_nodes({0: 1.0}, 0,
                       sorted(kets, key=lambda ket: [ket[i] for i in order]),
                       order, moves, low_span)
    # each ket's target monomials at its node, with their coefficients
    reached = {ket: [(mono, coeff) for mono, coeff in poly.items()
                     if mono % low_span == goal] for ket, poly in nodes}
    # each target monomial's occupations, sqrt(prod m_j!) and amplitude,
    # summed over the kets in their order in psi
    found = {}
    for ket in kets:
        factor = complex(psi.amplitudes[ket] / math.sqrt(
            math.prod(map(math.factorial, ket))))
        for mono, coeff in reached[ket]:
            entry = found.get(mono)
            if entry is None:
                key = tuple([mono // s % radix for s in stride])
                entry = found[mono] = [
                    key, math.sqrt(math.prod(map(math.factorial, key))), 0.0]
            entry[2] += coeff * factor * entry[1]
    return FockVector(d, {key: amp for key, _, amp in found.values()
                          if amp != 0})


def _ket_nodes(poly: dict, depth: int, group: list, modes: list,
               moves: list, low_span: int):
    """Each ket of ``group`` with the polynomial at its node of the trie.

    ``poly`` is the polynomial of the prefix of ``depth`` creation
    operators that the kets of ``group`` share; they agree in every mode
    but ``modes``, whose operators are still to apply in that order, and
    are sorted by their exponents there."""
    if not modes:   # one ket, all of whose operators are applied
        yield group[0], poly
        return
    i = modes[0]
    start = 0
    for n in itertools.count():
        stop = start
        while stop < len(group) and group[stop][i] == n:
            stop += 1
        if stop > start:
            yield from _ket_nodes(poly, depth + n, group[start:stop],
                                  modes[1:], moves, low_span)
        if stop == len(group):
            return
        left = max(map(sum, group[stop:])) - depth - n
        poly = _apply_creation(poly, moves[i], low_span, left)
        start = stop


def _apply_creation(poly: dict, table: dict, low_span: int,
                    left: int) -> dict:
    """The monomials of ``poly`` times one creation operator, whose steps
    ``table`` holds per low part, keeping those that can still reach the
    target with ``left`` operators to apply, this one included."""
    nxt = {}
    get = nxt.get
    for mono, coeff in poly.items():
        missing, target, steps = table[mono % low_span]
        for step, cj in (steps if missing < left else
                         target if missing == left else ()):
            key = mono + step
            nxt[key] = get(key, 0.0) + coeff * cj
    return nxt


def dilate_lossy(t: TransferMatrix) -> np.ndarray:
    """Unitary dilation of the mode map S = t.mode_map(): returns a 2d x 2d
    unitary whose top-left d x d block equals S (outputs first, ancillas
    second)."""
    s = t.mode_map()
    d = t.d
    u, sv, vh = np.linalg.svd(s)
    sv = np.clip(sv, 0.0, 1.0)
    c = np.sqrt(1.0 - sv ** 2)
    w = np.zeros((2 * d, 2 * d), dtype=complex)
    w[:d, :d] = s
    w[:d, d:] = u @ np.diag(c) @ u.conj().T
    w[d:, :d] = vh.conj().T @ np.diag(c) @ vh
    w[d:, d:] = -vh.conj().T @ np.diag(sv) @ u.conj().T
    # each entry sums d products of numbers of modulus at most 1, so it is
    # rounded by a few d eps; those that are 0 in exact arithmetic (under
    # uniform loss, off the diagonals of the ancilla blocks) would be left
    # as rounding noise that _interfere multiplies by
    w[np.abs(w) < ZERO_TOL * d] = 0
    if np.abs(w @ w.conj().T - np.eye(2 * d)).max() > UNITARY_TOL:
        raise ConfigurationError("dilation failed to produce a unitary")
    return w


def _input_photon_numbers(config: SourceConfig) -> np.ndarray:
    """Distribution of the (pre-loss) input's total photon number, entry n
    for n photons: TMSV pair statistics convolved with the Poisson coherent
    intensity, both summed up to ``TAIL_TOP`` photons; the sum past entry c
    is the input's tail mass above c photons.  A coherent intensity whose
    powers overflow a float, above about 369 photons, is refused with
    CutoffError: no cutoff up to ``MAX_CUTOFF`` could serve it."""
    x = math.tanh(config.r) ** 2
    top, half = TAIL_TOP, TAIL_TOP // 2
    pdc = (1 - x) * x ** np.arange(half + 1)
    try:
        a2 = config.alpha_mag ** 2
        coh = np.exp(-a2) * np.array([a2 ** n / math.factorial(n)
                                      for n in range(top + 1)])
    except OverflowError:
        raise CutoffError(
            f"no cutoff <= {MAX_CUTOFF} serves the coherent amplitude "
            f"{config.alpha_mag:.6g}; the input is too bright for the Fock "
            "oracle") from None
    total = np.zeros(2 * half + top + 2)
    for n, p in enumerate(pdc):
        total[2 * n:2 * n + top + 1] += p * coh
    return total


def choose_cutoff(config: SourceConfig, t: TransferMatrix,
                  pattern_total: int) -> int:
    """Smallest total-photon cutoff, at most ``MAX_CUTOFF``, whose estimated
    probability error stays under ``CUTOFF_TOL``.

    Two error channels: in a lossy circuit, above-cutoff input components
    can reach the pattern by shedding their extra photons, bounded by the
    tail mass times (1 - eta_min)^extra; in a near-unitary circuit only the
    interference-squared term ~2 (N+1)^2 tail^2 survives.  Both prefactors
    are calibrated against measured engine/oracle deviations.
    """
    sv_min = float(np.linalg.svd(t.mode_map(), compute_uv=False).min())
    eta_min = config.eta_tot * sv_min ** 2
    quad = 2.0 * (pattern_total + 1) ** 2
    numbers = _input_photon_numbers(config)
    for cutoff in range(pattern_total + 2, MAX_CUTOFF + 1):
        tail = float(numbers[cutoff + 1:].sum())
        extra = cutoff + 1 - pattern_total
        est = tail * max(3.0 * (1.0 - eta_min) ** extra, quad * tail)
        if est < CUTOFF_TOL:
            return cutoff
    raise CutoffError(
        f"no cutoff <= {MAX_CUTOFF} reaches tolerance {CUTOFF_TOL:.1e}; "
        "the input is too bright for the Fock oracle")


def checked_pattern(t: TransferMatrix, counts, cutoff: int = None) -> tuple:
    """``counts`` as a tuple of ints, one nonnegative count per output mode
    of ``t``; an explicit ``cutoff`` must lie between its photon total and
    ``MAX_CUTOFF``, or no ket could reach it or the expansion would not end
    in time."""
    pattern = tuple(int(c) for c in counts)
    if len(pattern) != t.d:
        raise ConfigurationError(
            f"pattern has {len(pattern)} modes, the circuit has {t.d}")
    if min(pattern, default=0) < 0:
        raise ConfigurationError("photon counts must be nonnegative")
    if cutoff is not None and not sum(pattern) <= cutoff <= MAX_CUTOFF:
        raise ConfigurationError(
            f"cutoff {cutoff} is outside [{sum(pattern)}, {MAX_CUTOFF}], "
            "from the pattern's photon total to the oracle's largest")
    return pattern


def oracle_probability(config: SourceConfig, t: TransferMatrix, counts,
                       cutoff: int = None, eps: float = 0.05) -> float:
    """Probability of the photon counts ``counts`` (one per output mode) by
    brute-force Fock expansion; the independent cross-check for the
    loop-Hafnian engine.

    Passive evolution is exact within each total-photon sector, so the
    result's error comes only from the input mass above the cutoff; by
    default the cutoff is chosen adaptively to keep that error under
    ``CUTOFF_TOL``.
    """
    pattern = checked_pattern(t, counts, cutoff)
    if cutoff is None:
        cutoff = choose_cutoff(config, t, sum(pattern))
    return _oracle_probability_at(config, t, pattern, cutoff, eps)


def _oracle_probability_at(config, t, pattern, cutoff, eps) -> float:
    d = t.d
    psi = expand_inputs(config, 2 * d, cutoff, eps=eps)
    # uniform source loss eta_tot folds into the transfer before dilation
    if config.eta_tot < 1:
        t = TransferMatrix(d, d, math.sqrt(config.eta_tot) * t.embedded())
    w = dilate_lossy(t)
    psi = _interfere(psi, w, pattern)
    prob = 0.0
    for ket, amp in psi.amplitudes.items():
        if ket[:d] == pattern:
            prob += abs(amp) ** 2
    return prob
