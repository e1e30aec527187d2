"""Pattern probabilities and fixed-N distributions for displaced GBS.

pr(n) = p_vac / prod(n_i!) * lhaf(A~_n), evaluated under four model kinds:
the full quantum model, the k-order truncation, the squeezer-only model
(the loop-free hafnian, times the displaced state's p_vac) and the classical
surrogate (same formula, evaluated on the closest-classical input state built
by the caller).  The full and classical models read the loop hafnian of one
summed subset DP, and the squeezer-only model the same DP with zero loop
weights.  Only a k-order truncation with k below the photon total reads the
pair-count terms of the matching polynomial; korder(k) with k >= N is the
full model.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, EnumerationBudgetError,
                     NumericalError)
from .hafnian import MAX_KERNEL_SIZE, _pattern_index, pattern_polynomials
from .states import (AMatrix, GaussianState, SourceConfig, TransferMatrix,
                     _frozen, a_matrix, check_counts, phase_scan)

PATTERN_BUDGET = 200_000   # the most patterns of one photon total

MODEL_KINDS = ("full", "korder", "squeezer_only", "classical")

# k! for every count a kernel of MAX_KERNEL_SIZE can hold
FACTORIALS = np.array([math.factorial(k)
                       for k in range(MAX_KERNEL_SIZE // 2 + 1)], dtype=float)


@dataclass(frozen=True)
class ModelSpec:
    """Which probability model to evaluate.

    ``classical`` is a labelling convenience: the formula is the full one
    and the classical-ness lives in the surrogate state the caller passes.
    """

    kind: str = "full"
    k: int = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.kind == "korder":
            if self.k is None or self.k < 0:
                raise ConfigurationError("korder model needs k >= 0")
        elif self.k is not None:
            raise ConfigurationError(f"model {self.kind!r} takes no k")

    def label(self) -> str:
        return f"korder({self.k})" if self.kind == "korder" else self.kind

    @classmethod
    def parse(cls, text: str) -> "ModelSpec":
        """The model a --model text names: a kind, or ``korder(k)`` with k
        in ASCII digits (a bare ``korder`` or ``korder()`` gives no k)."""
        if text.startswith("korder"):
            match = re.fullmatch(r"korder(?:\(([0-9]*)\))?", text)
            if match is None:
                raise ConfigurationError(
                    "expected korder(k) with k in ASCII digits")
            return cls("korder", int(match[1]) if match[1] else None)
        return cls(text)


class PhaseFamily:
    """Kernels of one circuit over a scan of the coherent beam.

    A scan of the beam's phase (and port and amplitude) only moves the
    displacement: Sigma_Q, its one solve and A are shared, and only gamma
    and p_vac depend on the member.  Row f of ``gammas`` (F, 2d) and of
    ``log_p_vac`` (F,) belongs to the f-th member, whose
    :class:`StateKernel` is ``StateKernel(a, gammas[f], log_p_vac[f])``.
    :meth:`low_order_rates` gives the closed forms of the singles and
    twofolds of every member at once.
    """

    def __init__(self, a: AMatrix, gammas, log_p_vac):
        self.a = a
        self.gammas = np.asarray(gammas, dtype=complex)
        self.log_p_vac = np.asarray(log_p_vac, dtype=float)
        self.p_vac = np.array([math.exp(v) for v in self.log_p_vac])

    @classmethod
    def scan(cls, config: SourceConfig, t: TransferMatrix, phis,
             ports=None, amplitudes=None) -> "PhaseFamily":
        """The family of ``propagate(build_input_state(replace(config,
        phi=phi, coherent_port=port, alpha_mag=amplitude), t.d), t)`` over
        the members of :func:`phase_scan`, from one state and one Sigma_Q
        solve: the coherent beam's port and amplitude may change from
        member to member (by default the config's)."""
        state, gammas, log_p_vac = phase_scan(config, t, phis, ports,
                                              amplitudes)
        return cls(a_matrix(state), gammas, log_p_vac)

    def low_order_rates(self, pairs) -> np.ndarray:
        """The vacuum, single and twofold probabilities of every member,
        as (F, 1 + d + len(pairs)): column 0 is p_vac, column 1 + j the
        single of mode j, then one column per (j, k) of ``pairs`` (j <= k;
        j == k is the photon-number-resolved pr(2_j)), with the values,
        clamping and errors of :meth:`StateKernel.pattern_probabilities`.

        They are the closed forms of the loop hafnians of kernel size 2
        and 4, with g_j = gammas[:, j] and p'_j = C_jj + |g_j|^2: the
        single is p_vac p'_j, and a pair's twofold is p_vac times
        p'_j p'_k + |B_jk|^2 + |C_jk|^2 + 2 Re(C_jk conj(g_j) g_k)
        + 2 Re(B_jk conj(g_j) conj(g_k)), halved when j == k (its 2!).
        Every complex product is written out in real arithmetic, and no
        sum is a reduction, so a member's row has the same bits in a
        family of any size."""
        d = self.a.d
        j, k = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        if not ((0 <= j) & (j <= k) & (k < d)).all():
            raise ConfigurationError(
                f"pairs must be (j, k) with 0 <= j <= k < {d}")
        gr, gi = self.gammas[:, :d].real, self.gammas[:, :d].imag
        single = self.a.c.diagonal().real + (gr * gr + gi * gi)
        rj, ij, rk, ik = gr[:, j], gi[:, j], gr[:, k], gi[:, k]
        c_jk, b_jk = self.a.c[j, k], self.a.b[j, k]
        cr, ci, br, bi = c_jk.real, c_jk.imag, b_jk.real, b_jk.imag
        pair = single[:, j] * single[:, k]
        pair += (br * br + bi * bi) + (cr * cr + ci * ci)
        # the two Re terms, expanded over the real and imaginary parts of
        # g_j and g_k
        pair += rj * (rk * (2 * (cr + br)) + ik * (2 * (bi - ci)))
        pair += ij * (ik * (2 * (cr - br)) + rk * (2 * (bi + ci)))
        p_vac = self.p_vac[:, None]
        out = np.hstack([p_vac, p_vac * single,
                         p_vac * (pair * np.where(j == k, 0.5, 1.0))])
        if not np.isfinite(out).all():
            raise NumericalError("probability came out non-finite; the state "
                                 "is beyond floating-point range")
        out[out < 0.0] = 0.0
        return out


class StateKernel:
    """Cached (A, gamma, p_vac) triple of a state, and the evaluator of its
    pattern tables."""

    def __init__(self, a: AMatrix, gamma: np.ndarray, log_p_vac: float):
        self.a = a
        # the (2d,) loop weights gamma = delta^dag Sigma_Q^-1, read-only
        self.gamma = _frozen(np.asarray(gamma, dtype=complex))
        self.log_p_vac = float(log_p_vac)
        self.p_vac = math.exp(self.log_p_vac)

    @classmethod
    def from_state(cls, state: GaussianState) -> "StateKernel":
        gamma, log_p_vac = state.gamma_and_log_p_vac(state.delta)
        return cls(a_matrix(state), gamma, log_p_vac)

    @property
    def d(self) -> int:
        return self.a.d

    def pattern_terms(self, counts, columns: int = None) -> np.ndarray:
        """Unnormalized pr(n)/p_vac contributions of the rows of a (P, d)
        counts array of one total N, resolved by pair count, as (P, N + 1),
        or only their first ``columns`` pair counts (with the same bits).
        Entry p is the term in which p photons came from the squeezers:
        cumulative sums give every k-order value at once, and the top entry
        p = N, the loop-free hafnian, is the squeezer-only value."""
        poly = pattern_polynomials(self.a, self.gamma, counts,
                                   columns=columns)
        return poly / FACTORIALS[np.asarray(counts, int)].prod(axis=1)[:, None]

    def pattern_probabilities(self, counts,
                              model: ModelSpec = ModelSpec()) -> np.ndarray:
        """pr(n) under ``model`` for each row of a (P, d) counts array, in
        order; the rows may mix totals and are evaluated one batch per
        total."""
        counts = check_counts(counts, self.d)
        totals = counts.sum(axis=1)
        out = np.full(len(counts), self.p_vac)
        for total in np.unique(totals[totals > 0]).tolist():
            rows = np.flatnonzero(totals == total)
            if model.kind == "korder" and model.k < total:
                # korder(k) sums the pair counts 0..k, so it runs k + 1
                # columns
                val = self.pattern_terms(counts[rows], model.k + 1).sum(axis=1)
            else:
                # the loop hafnian; the squeezer-only model has no loop
                # weights
                gamma = np.zeros(2 * self.d) \
                    if model.kind == "squeezer_only" else self.gamma
                lhaf = pattern_polynomials(self.a, gamma, counts[rows],
                                           summed=True)[:, 0]
                val = lhaf / FACTORIALS[counts[rows]].prod(axis=1)
            bad = np.abs(val.imag) > 1e-9 * np.fmax(1.0, np.abs(val.real))
            if bad.any():
                raise NumericalError(
                    f"probability came out non-real ({complex(val[bad][0])!r}); "
                    "kernel inconsistent")
            # Truncated models can dip slightly negative; clamp at zero.
            out[rows] = np.where(val.real < 0.0, 0.0, val.real) * self.p_vac
        if not np.isfinite(out).all():
            raise NumericalError("probability came out non-finite; the state "
                                 "is beyond floating-point range")
        return out

    # reduced, korder_terms and pattern_probability take one counts row;
    # they are kept only because the benchmark's tracer looks them up by
    # name, and no command calls them
    def reduced(self, counts) -> tuple:
        """(A_n, gamma~): the kernel and loop weights one pattern keeps."""
        idx = _pattern_index(self.d, [counts])[0]
        return self.a.full[np.ix_(idx, idx)], self.gamma[idx]

    def korder_terms(self, counts) -> np.ndarray:
        return self.pattern_terms([counts])[0]

    def pattern_probability(self, counts,
                            model: ModelSpec = ModelSpec()) -> float:
        return float(self.pattern_probabilities([counts], model)[0])


def predict_single(kern: StateKernel, j: int) -> tuple:
    """(p_j, p'_j) = (C_jj, C_jj + |gamma_j|^2), as ratios to p_vac."""
    c_jj = kern.a.c[j, j].real
    return c_jj, c_jj + abs(kern.gamma[j]) ** 2


def predict_twofold(kern: StateKernel, j: int, k: int,
                    phi: float = 0.0) -> tuple:
    """(p_jk, p'_jk) as ratios to p_vac; phi is an extra phase added to the
    state's own displacement phase.  p'_jk(phi) = a + b cos(2 phi + c)."""
    fringe = TwofoldFringe.of(kern, j, k)
    return fringe.blocked, fringe.rate_at(np.exp(2j * phi))


class TwofoldFringe(NamedTuple):
    """The phi-independent parts of one pair's :func:`predict_twofold`:
    p_jk, and p'_jk(phi) = offset + 2 Re(weight e^{2 i phi}) with
    weight = B_jk conj(gamma_j) conj(gamma_k)."""

    blocked: float
    offset: float
    weight: complex

    @classmethod
    def of(cls, kern: "StateKernel", j: int, k: int) -> "TwofoldFringe":
        if j == k:
            raise ConfigurationError(
                "twofold prediction needs two distinct modes")
        b_m, c_m, g = kern.a.b, kern.a.c, kern.gamma
        p_j, p_k = c_m[j, j].real, c_m[k, k].real
        blocked = p_j * p_k + abs(b_m[j, k]) ** 2 + abs(c_m[j, k]) ** 2
        gj, gk = g[j], g[k]
        p1j = p_j + abs(gj) ** 2
        p1k = p_k + abs(gk) ** 2
        offset = (p1j * p1k + abs(b_m[j, k]) ** 2 + abs(c_m[j, k]) ** 2
                  + 2 * (c_m[j, k] * np.conj(gj) * gk).real)
        weight = b_m[j, k] * np.conj(gj) * np.conj(gk)
        if not math.isfinite(blocked + offset + 2 * abs(weight)):
            raise NumericalError(f"twofold fringe of modes {j},{k} came out "
                                 "non-finite; the state is beyond "
                                 "floating-point range")
        return cls(blocked, offset, weight)

    def rate_at(self, rotation) -> float:
        """p'_jk at the phase phi with ``rotation`` = e^{2 i phi}.  The
        real part of the product is written out: numpy's array complex
        multiply may round it differently from the scalar one."""
        w = self.weight
        return self.offset + 2 * (w.real * rotation.real - w.imag * rotation.imag)


def pattern_count(d: int, total: int, collision_free: bool) -> int:
    """The number of d-mode patterns with the given photon total."""
    return math.comb(d if collision_free else total + d - 1, total)


def all_patterns(d: int, total: int, collision_free: bool) -> np.ndarray:
    """The patterns with the given photon total as a read-only (P, d)
    counts array: collision-free rows in descending, the others in
    ascending lexicographic order."""
    count = pattern_count(d, total, collision_free)
    if count > PATTERN_BUDGET:
        raise EnumerationBudgetError(
            f"{count} patterns exceed enumeration budget {PATTERN_BUDGET}")
    # multisets in reverse lexicographic order list the count vectors in
    # lexicographic order
    combos = combinations(range(d), total) if collision_free else \
        reversed(list(combinations_with_replacement(range(d), total)))
    modes = np.fromiter(chain.from_iterable(combos), dtype=np.intp,
                        count=count * total).reshape(count, total)
    cells = (np.arange(count)[:, None] * d + modes).ravel()
    counts = np.bincount(cells, minlength=count * d).reshape(count, d)
    counts.setflags(write=False)
    return counts


@dataclass(frozen=True, eq=False)
class PatternDistribution:
    """Normalized probability table over fixed-N detection patterns, the
    rows of the read-only (P, d) counts array ``patterns``."""

    d: int
    total: int
    collision_free: bool
    patterns: np.ndarray
    probabilities: np.ndarray
    model: str = "full"
    provenance: str = ""

    def __post_init__(self):
        patterns = check_counts(self.patterns, self.d)
        if (patterns.sum(axis=1) != self.total).any() \
                or (self.collision_free and (patterns > 1).any()):
            raise ConfigurationError(
                f"patterns must sum to {self.total} and be collision-free if "
                f"collision_free is {self.collision_free}")
        probs = np.asarray(self.probabilities, dtype=float)
        if len(patterns) != probs.shape[0]:
            raise ConfigurationError("pattern/probability length mismatch")
        if not np.isfinite(probs).all() or probs.size and (
                probs.min() < -1e-12 or abs(probs.sum() - 1) > 1e-9):
            raise ConfigurationError(
                "probabilities must be finite, nonnegative and sum to 1")
        probs = np.clip(probs, 0.0, None)
        s = probs.sum()
        if s > 0:
            probs = probs / s
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "patterns", patterns)

    def __len__(self):
        return len(self.patterns)

    def to_json(self) -> str:
        return json.dumps({
            "d": self.d,
            "total": self.total,
            "collision_free": self.collision_free,
            "model": self.model,
            "provenance": self.provenance,
            "patterns": self.patterns.tolist(),
            "probabilities": self.probabilities.tolist(),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> PatternDistribution:
        """Inverse of :meth:`to_json`, "measured" if no model is given."""
        obj = json.loads(text)
        return cls(obj["d"], obj["total"], obj["collision_free"],
                   obj["patterns"], np.asarray(obj["probabilities"], float),
                   obj.get("model", "measured"), obj.get("provenance", ""))


def distribution_from_kernel(
        kernel: StateKernel, total: int, collision_free: bool = True,
        model: ModelSpec = ModelSpec()) -> PatternDistribution:
    patterns = all_patterns(kernel.d, total, collision_free)
    raw = kernel.pattern_probabilities(patterns, model)
    s = raw.sum()
    if s <= 0:
        raise ConfigurationError("distribution has zero total mass; cannot normalize")
    return PatternDistribution(kernel.d, total, collision_free,
                               patterns, raw / s,
                               model=model.label())
