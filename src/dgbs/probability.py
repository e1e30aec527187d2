"""Pattern probabilities and fixed-N distributions for displaced GBS.

pr(n) = p_vac / prod(n_i!) * lhaf(A~_n), evaluated under four model kinds:
the full quantum model, the k-order truncation, the squeezer-only model
(the loop-free hafnian, times the displaced state's p_vac) and the classical
surrogate (same formula, evaluated on the closest-classical input state built
by the caller).  All four read the pair-count terms of one matching
polynomial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, EnumerationBudgetError,
                     NumericalError)
from .hafnian import MAX_KERNEL_SIZE, _pattern_index, pattern_polynomials
from .states import (AMatrix, GammaVector, GaussianState, SourceConfig,
                     TransferMatrix, a_matrix, gamma_vector,
                     log_vacuum_probability, phase_scan)

DEFAULT_PATTERN_BUDGET = 200_000

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
        text = text.strip()
        if text.startswith("korder"):
            inner = text[len("korder"):].strip("()")
            return cls("korder", int(inner))
        if text.startswith("k") and text[1:].isdigit():
            return cls("korder", int(text[1:]))
        return cls(text)


class PhaseFamily:
    """Kernels of one circuit over a scan of the coherent-beam phase.

    A phase scan only rotates the displacement: Sigma_Q, its one solve and
    A are shared, and only gamma and p_vac depend on phi.  Row f of
    ``gammas`` (F, 2d) and of ``log_p_vac`` (F,) belongs to the f-th phase.
    Every method evaluates all F kernels at once, one DP per photon total;
    :class:`StateKernel` is the family of one.
    """

    def __init__(self, a: AMatrix, gammas, log_p_vac):
        self.a = a
        self.gammas = np.asarray(gammas, dtype=complex)
        self.log_p_vac = np.asarray(log_p_vac, dtype=float)
        self.p_vac = np.array([math.exp(v) for v in self.log_p_vac])

    @classmethod
    def scan(cls, config: SourceConfig, t: TransferMatrix, phis,
             classical: bool = False) -> "PhaseFamily":
        """The family of ``propagate(build_input_state(replace(config,
        phi=phi), t.d), t)`` over ``phis`` (the classical surrogate input
        if ``classical``), from one state and one Sigma_Q solve."""
        state, gammas, log_p_vac = phase_scan(config, t, phis, classical)
        return cls(a_matrix(state), gammas, log_p_vac)

    def pattern_terms(self, counts, columns: int = None) -> np.ndarray:
        """Unnormalized pr(n)/p_vac contributions of the rows of a (P, d)
        counts array of one total N at every phase, resolved by pair count,
        as (F, P, N + 1), or only their first ``columns`` pair counts (with
        the same bits).  Entry p is the term in which p photons came from
        the squeezers: cumulative sums give every k-order value at once,
        and the top entry p = N, the loop-free hafnian, is the
        squeezer-only value."""
        poly = pattern_polynomials(self.a, self.gammas, counts,
                                   columns=columns)
        return poly / FACTORIALS[np.asarray(counts)].prod(axis=1)[:, None]

    def pattern_probabilities(self, counts,
                              model: ModelSpec = ModelSpec()) -> np.ndarray:
        """pr(n) under ``model`` for each row of a (P, d) counts array at
        each phase, as (F, P); the rows may mix totals and are evaluated one
        batch per total."""
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape[1] != self.a.d:
            raise ConfigurationError(
                f"patterns have shape {counts.shape}, state has {self.a.d} modes")
        totals = counts.sum(axis=1)
        out = np.repeat(self.p_vac[:, None], len(counts), axis=1)
        for total in np.unique(totals[totals > 0]).tolist():
            rows = np.flatnonzero(totals == total)
            # korder(k) sums the pair counts 0..k, so it runs k + 1 columns
            columns = min(model.k, total) + 1 if model.kind == "korder" \
                else total + 1
            terms = self.pattern_terms(counts[rows], columns).reshape(
                -1, columns)
            val = terms[:, total] if model.kind == "squeezer_only" \
                else terms.sum(axis=1)
            bad = np.abs(val.imag) > 1e-9 * np.fmax(1.0, np.abs(val.real))
            if bad.any():
                raise NumericalError(
                    f"probability came out non-real ({complex(val[bad][0])!r}); "
                    "kernel inconsistent")
            # Truncated models can dip slightly negative; clamp at zero.
            val = np.where(val.real < 0.0, 0.0, val.real).reshape(len(out), -1)
            out[:, rows] = val * self.p_vac[:, None]
        if not np.isfinite(out).all():
            raise NumericalError("probability came out non-finite; the state "
                                 "is beyond floating-point range")
        return out


class StateKernel:
    """Cached (A, gamma, p_vac) triple of a state; its probabilities are
    those of the family of one (:attr:`family`)."""

    def __init__(self, a: AMatrix, gamma: GammaVector, log_p_vac: float):
        self.a = a
        self.gamma = gamma
        self.log_p_vac = float(log_p_vac)
        self.p_vac = math.exp(self.log_p_vac)

    @classmethod
    def from_state(cls, state: GaussianState) -> "StateKernel":
        return cls(a_matrix(state), gamma_vector(state),
                   log_vacuum_probability(state))

    @property
    def d(self) -> int:
        return self.a.d

    @cached_property
    def family(self) -> PhaseFamily:
        """This kernel as a family of one."""
        return PhaseFamily(self.a, self.gamma.gamma[None], [self.log_p_vac])

    def pattern_terms(self, counts) -> np.ndarray:
        """:meth:`PhaseFamily.pattern_terms` of this kernel, as (P, N + 1)."""
        return self.family.pattern_terms(counts)[0]

    def pattern_probabilities(self, counts,
                              model: ModelSpec = ModelSpec()) -> np.ndarray:
        """pr(n) under ``model`` for each row of a (P, d) counts array, in
        order; the rows may mix totals and are evaluated one batch per
        total."""
        return self.family.pattern_probabilities(counts, model)[0]

    # reduced, korder_terms and pattern_probability take one counts row;
    # they are kept only because the benchmark's tracer looks them up by
    # name, and no command calls them
    def reduced(self, counts) -> tuple:
        """(A_n, gamma~): the kernel and loop weights one pattern keeps."""
        idx = _pattern_index(self.d, [counts])[0]
        return self.a.full[np.ix_(idx, idx)], self.gamma.gamma[idx]

    def korder_terms(self, counts) -> np.ndarray:
        return self.pattern_terms([counts])[0]

    def pattern_probability(self, counts,
                            model: ModelSpec = ModelSpec()) -> float:
        return float(self.pattern_probabilities([counts], model)[0])


def predict_single(kern: StateKernel, j: int) -> tuple:
    """(p_j, p'_j) = (C_jj, C_jj + |gamma_j|^2), as ratios to p_vac."""
    c_jj = kern.a.c[j, j].real
    return c_jj, c_jj + abs(kern.gamma.gamma[j]) ** 2


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
        b_m, c_m, g = kern.a.b, kern.a.c, kern.gamma.gamma
        p_j, p_k = c_m[j, j].real, c_m[k, k].real
        blocked = p_j * p_k + abs(b_m[j, k]) ** 2 + abs(c_m[j, k]) ** 2
        gj, gk = g[j], g[k]
        p1j = p_j + abs(gj) ** 2
        p1k = p_k + abs(gk) ** 2
        offset = (p1j * p1k + abs(b_m[j, k]) ** 2 + abs(c_m[j, k]) ** 2
                  + 2 * (c_m[j, k] * np.conj(gj) * gk).real)
        return cls(blocked, offset, b_m[j, k] * np.conj(gj) * np.conj(gk))

    def rate_at(self, rotation) -> float:
        """p'_jk at the phase phi with ``rotation`` = e^{2 i phi}.  The
        real part of the product is written out: numpy's array complex
        multiply may round it differently from the scalar one."""
        w = self.weight
        return self.offset + 2 * (w.real * rotation.real - w.imag * rotation.imag)


def all_patterns(d: int, total: int, collision_free: bool,
                 budget: int = DEFAULT_PATTERN_BUDGET) -> np.ndarray:
    """The patterns with the given photon total as a read-only (P, d)
    counts array: collision-free rows in descending, the others in
    ascending lexicographic order."""
    count = math.comb(d, total) if collision_free else \
        math.comb(total + d - 1, d - 1)
    if count > budget:
        raise EnumerationBudgetError(
            f"{count} patterns exceed enumeration budget {budget}")
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


@dataclass(frozen=True)
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
        patterns = np.array(self.patterns, dtype=np.int64)
        if patterns.ndim != 2 or patterns.shape[1] != self.d:
            raise ConfigurationError(
                f"patterns must be rows of {self.d} photon counts")
        if (patterns < 0).any() or (patterns.sum(axis=1) != self.total).any() \
                or (self.collision_free and (patterns > 1).any()):
            raise ConfigurationError(
                f"patterns must be nonnegative, sum to {self.total} and be "
                f"collision-free if collision_free is {self.collision_free}")
        probs = np.asarray(self.probabilities, dtype=float)
        if len(patterns) != probs.shape[0]:
            raise ConfigurationError("pattern/probability length mismatch")
        if probs.size and (probs.min() < -1e-12 or abs(probs.sum() - 1) > 1e-9):
            raise ConfigurationError("probabilities must be nonnegative and sum to 1")
        probs = np.clip(probs, 0.0, None)
        s = probs.sum()
        if s > 0:
            probs = probs / s
        probs.setflags(write=False)
        patterns.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "patterns", patterns)

    def __len__(self):
        return len(self.patterns)

    def as_dict(self) -> dict:
        return dict(zip(map(tuple, self.patterns.tolist()),
                        self.probabilities.tolist()))

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


def distribution_from_kernel(kernel: StateKernel, total: int,
                             collision_free: bool = True,
                             model: ModelSpec = ModelSpec(),
                             budget: int = DEFAULT_PATTERN_BUDGET,
                             provenance: str = "") -> PatternDistribution:
    patterns = all_patterns(kernel.d, total, collision_free, budget)
    raw = kernel.pattern_probabilities(patterns, model)
    s = raw.sum()
    if s <= 0:
        raise ConfigurationError("distribution has zero total mass; cannot normalize")
    return PatternDistribution(kernel.d, total, collision_free,
                               patterns, raw / s,
                               model=model.label(), provenance=provenance)
