"""In-situ reconstruction of (A, gamma) from singles/twofold statistics.

Three measurement settings drive the pipeline: coherent beam blocked,
coherent beam in a first input port (phase-scanned), and optionally a second
input port (phase-scanned) which disambiguates the sign of Im C.  All rates
are probabilities per pulse; ratios to the vacuum-pattern rate recover the
p_j, p'_j, p_{j,k}, p'_{j,k} quantities the closed-form inversion uses.

Gauge conventions: gamma is real nonnegative, and the phase of the
second-input response vector mu is referenced to mode 0 (arg mu_0 = 0, up
to a common scan-origin offset solved jointly from the fringe phases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DgbsError, SchemaError
from .probability import PatternDistribution, StateKernel, all_patterns
from .serialize import _csv_rows, _g17_table, _read_csv
from .states import AMatrix

SETTINGS = ("blocked", "input1", "input2")
TWO_PI = 2 * math.pi
BEST_WINDOWS = 5    # a fringe averages at most this many 2-pi windows
GAMMA_FLOOR = 1e-6  # B_jk undetermined if its fringe denominator <= this^2
B_FLOOR = 1e-9      # a pair with |B_jk| <= this gives no mu phase
EPS_FLOOR = 1e-6    # Im(conj(mu_j) mu_k) below this * |mu_j mu_k|: no Im sign
PHASE_INIT_SIGMA = 0.3  # spread of the optimizer's starts around direct phases
LM_STEPS = 100      # the most Levenberg-Marquardt trial steps of one start
LM_TOL = 1e-12      # a start converges on a step this small in every phase
LM_MAX_DAMPING = 1e10  # or relative misfit, or once no step this damped helps
FREE_PHASE_TOL = 1e-8  # Jacobian singular values below this * the largest: 0
# pair flags whose entries the threefold optimizer completes
FALLBACK_FLAGS = ("b_undetermined", "invalid_argument", "epsilon_degenerate",
                  "im_inconsistent", "im_sign_unknown")


# ---------------------------------------------------------------------------
# measurement records

CSV_HEADER = ["setting", "phi", "modes", "counts", "pulses"]


@dataclass(eq=False)
class MeasurementRecord:
    """Rate table of one measurement setting.

    ``rates`` has one row per observable and one column per phi grid point
    (one column for `blocked`, which has no grid): row 0 is the vacuum rate,
    rows 1..d the singles, then one twofold row per pair in ``pairs`` order
    (sorted, j <= k; a diagonal pair (j, j) is the photon-number-resolved
    rate pr(2_j) and is optional).  ``p_vac`` and ``singles`` are
    read-only views of the table."""

    setting: str
    d: int
    pulses: float
    rates: np.ndarray
    pairs: tuple = ()
    phi: np.ndarray = None

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ConfigurationError(f"unknown setting {self.setting!r}")
        if (self.phi is None) != (self.setting == "blocked"):
            raise ConfigurationError("scanned settings need a phi grid, blocked none")
        self.pairs = tuple(map(tuple, self.pairs))
        if list(self.pairs) != sorted(set(self.pairs)) or \
                not all(0 <= j <= k < self.d for j, k in self.pairs):
            raise ConfigurationError("pairs must be sorted, distinct, 0 <= j <= k < d")
        if self.phi is not None:
            self.phi = np.asarray(self.phi, dtype=float)
        # a C-ordered copy: in-memory and CSV-read tables fit to the same bits
        self.rates = np.array(self.rates, dtype=float, order="C")
        self.rates.setflags(write=False)
        shape = (1 + self.d + len(self.pairs),
                 1 if self.phi is None else len(self.phi))
        if self.rates.shape != shape:
            raise ConfigurationError(
                f"rate table has shape {self.rates.shape}, expected {shape}")
        if not ((self.rates >= 0) & (self.rates <= 1)).all():
            raise ConfigurationError("rates outside [0,1]")

    @property
    def p_vac(self) -> np.ndarray:
        return self.rates[0]

    @property
    def singles(self) -> np.ndarray:
        return self.rates[1:self.d + 1]

    def rate_sigma(self, rate: np.ndarray) -> np.ndarray:
        """Poisson counting sigma of a rate, sqrt(counts)/pulses (0 if noiseless)."""
        scale = 1.0 / math.sqrt(self.pulses) if np.isfinite(self.pulses) else 0.0
        return np.sqrt(np.maximum(rate, 0.0)) * scale

    def norm_singles(self) -> np.ndarray:
        """p_j (or p'_j / p''_j): singles / vacuum rate, averaged over phi."""
        return (self.singles / self.p_vac).mean(axis=1)


def records_to_csv(records):
    """Serialize records (dict setting -> MeasurementRecord) to the CSV
    format setting, phi, modes, counts, pulses: one row per table cell,
    phi column by phi column, as bytes yielded in blocks, header first.
    No field needs csv quoting."""
    yield f"{','.join(CSV_HEADER)}\n".encode()
    for rec in (records[s] for s in SETTINGS if s in records):
        phis = [""] if rec.phi is None else \
            [f"{p:.17g}" for p in rec.phi.tolist()]
        labels = ["vac", *map(str, range(rec.d)),
                  *(f"{j}:{k}" for j, k in rec.pairs)]
        if np.isfinite(rec.pulses):
            pulses, counts = str(rec.pulses), rec.rates * rec.pulses
        else:
            pulses, counts = "inf", rec.rates
        # each distinct count (by its bits, so -0.0 stays) written once
        bits, which = np.unique(counts.T.ravel().view(np.int64),
                                return_inverse=True)
        n_phi, n_obs = len(phis), len(labels)
        yield from _csv_rows(n_phi * n_obs, [
            f"{rec.setting},", (phis, np.repeat(np.arange(n_phi), n_obs)),
            ",", (labels, np.tile(np.arange(n_obs), n_phi)), ",",
            (_g17_table(bits.view(float)), which), f",{pulses}\n"])


def records_from_csv(text: str) -> dict:
    """Inverse of :func:`records_to_csv`.  Rows may come in any order; phi
    columns keep their order of first appearance.  Each setting must give
    every (phi, modes) cell of its table once, all with one pulses value.
    ``#`` lines (``dgbs simulate`` writes one) may stand anywhere; error
    line numbers count them."""
    return _read_csv(text, range(5), _records_of_columns, _row_fault, "line",
                     numbers=(3,))


def _records_of_columns(header: list, columns: list, widths: set) -> dict:
    """The records of a records text's header, columns and row lengths;
    None if a row is at fault.  The counts are a float per row, or coded
    if one of them is no number: each setting then parses its own, and
    names the first."""
    if header != CSV_HEADER:
        raise SchemaError("records CSV must start with the standard header")
    (settings, which), phis, labels, counts, pulses = columns
    if widths - {5} or not set(settings) <= set(SETTINGS):
        return None
    return {setting: _table_record(setting, np.flatnonzero(which == code),
                                   phis, labels, counts, pulses)
            for code, setting in enumerate(settings)}


def _row_fault(row: list) -> str:
    """What is wrong with a records row's columns or setting, if anything."""
    if len(row) != 5:
        return "expected 5 columns"
    if row[0] not in SETTINGS:
        return f"unknown setting {row[0]!r}"


def _first_seen(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes`` in order of first appearance."""
    distinct, first = np.unique(codes, return_index=True)
    return distinct[np.argsort(first)]


def _table_record(setting: str, rows: np.ndarray, phi_column: tuple,
                  mode_column: tuple, count_column: np.ndarray | tuple,
                  pulse_column: tuple) -> MeasurementRecord:
    """One setting's record from its ``rows`` of the CSV.  The columns are
    (distinct texts, code per CSV row) pairs, but the counts are a float
    per CSV row unless one of them is no number; then each row's count is
    parsed, to name the first that is none.  Each other distinct text is
    parsed once."""
    scanned = setting != "blocked"
    (phi_texts, phi_codes), (labels, label_codes), \
        (pulse_texts, pulse_codes) = [
            (texts, codes[rows]) for texts, codes in
            (phi_column, mode_column, pulse_column)]
    phis, column_of, modes = {}, {}, {}
    try:
        pulse_set = {float(pulse_texts[c])
                     for c in np.flatnonzero(np.bincount(pulse_codes))}
        if isinstance(count_column, np.ndarray):
            counts = count_column[rows]
        else:
            texts, codes = count_column
            counts = np.array([float(texts[c]) for c in codes[rows].tolist()])
        for c in _first_seen(phi_codes).tolist():
            text = phi_texts[c]
            phi = float(text) if scanned else None
            if not (math.isfinite(phi) if scanned else text == ""):
                raise ValueError(f"bad phi {text!r}")
            column_of[c] = phis.setdefault(phi, len(phis))
        for c in _first_seen(label_codes).tolist():
            label = labels[c]
            parts = [] if label == "vac" else label.split(":")
            if len(parts) > 2 or not all(p.isdecimal() for p in parts):
                raise ValueError(f"bad modes label {label!r}")
            modes[c] = tuple(sorted(map(int, parts)))
    except ValueError as exc:
        raise SchemaError(f"{setting}: {exc}") from None
    if len(pulse_set) != 1 or not min(pulse_set) > 0:
        raise SchemaError(f"{setting}: rows must share one positive pulses "
                          f"value, got {sorted(pulse_set)}")
    d = 1 + max((m[0] for m in modes.values() if len(m) == 1), default=-1)
    pairs = sorted({m for m in modes.values() if len(m) == 2})
    if (1 + d + len(pairs)) * len(phis) > 2 * len(rows):  # no huge tables
        raise SchemaError(f"{setting}: {len(rows)} rows leave most of the "
                          f"table of {d} modes x {len(phis)} phi values empty")
    row_modes = [(), *((j,) for j in range(d)), *pairs]
    row_of = {m: r for r, m in enumerate(row_modes)}
    # the table row of each label code and the column of each phi code
    row_at = np.zeros(len(labels), int)
    column_at = np.zeros(len(phi_texts), int)
    row_at[list(modes)] = [row_of[m] for m in modes.values()]
    column_at[list(column_of)] = list(column_of.values())
    flat = row_at[label_codes] * len(phis) + column_at[phi_codes]
    seen = np.bincount(flat, minlength=len(row_modes) * len(phis))
    if (seen != 1).any():
        cell = int(np.argmax(seen != 1))
        row, col = divmod(cell, len(phis))
        label = ":".join(map(str, row_modes[row])) or "vac"
        raise SchemaError(f"{setting}: {label!r} row at phi {list(phis)[col]} "
                          f"appears {seen[cell]} times")
    table = np.empty((len(row_modes), len(phis)))
    table.flat[flat] = counts
    pulse = pulse_set.pop()
    try:
        return MeasurementRecord(
            setting, d, pulse, table / (pulse if math.isfinite(pulse) else 1.0),
            pairs, phi=list(phis) if scanned else None)
    except ConfigurationError as exc:
        raise SchemaError(f"{setting}: {exc}") from None


# ---------------------------------------------------------------------------
# fringe fitting

def _at_least(x, floor):
    """Python's max(x, floor) elementwise: x unless floor > x (np.maximum
    turns -0.0 into 0.0, and the sign of a zero reaches the output)."""
    return np.where(floor > x, floor, x)


def _libm(func, *args) -> np.ndarray:
    """``func`` of math applied elementwise; numpy's vector cos, sin and
    arctan2 can differ from libm in the last bit (they do with AVX-512),
    libm keeps results host-independent."""
    return np.vectorize(func, otypes=[float])(*args)


class FringeFits(NamedTuple):
    """Fits a + b cos(2 phi + c), b >= 0 and c in [-pi, pi), one per row:
    (P,) ``offset``, ``amplitude``, ``phase`` and ``residual``, and the
    (P, 3, 3) ``covariance`` of the linear basis (1, cos, sin).  The sigma
    properties take any leading shape, a single row's scalars too."""

    offset: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray
    residual: np.ndarray
    covariance: np.ndarray

    @property
    def sigma_offset(self) -> np.ndarray:
        return np.sqrt(_at_least(self.covariance[..., 0, 0], 0.0))

    @property
    def sigma_amplitude(self) -> np.ndarray:
        # delta method in the (cos, sin) coefficients
        cos, sin = _libm(math.cos, self.phase), _libm(math.sin, self.phase)
        return np.where(self.amplitude == 0,
                        np.sqrt(_at_least(self.covariance[..., 1, 1], 0.0)),
                        self._spread(cos, -sin))

    @property
    def sigma_phase(self) -> np.ndarray:
        zero = self.amplitude == 0
        amp = np.where(zero, 1.0, self.amplitude)
        sin, cos = _libm(math.sin, self.phase), _libm(math.cos, self.phase)
        return np.where(zero, math.pi, self._spread(sin / amp, cos / amp))

    def _spread(self, g_cos, g_sin) -> np.ndarray:
        """sqrt(g C g) per row, C the (cos, sin) block of the covariance."""
        g = np.stack([g_cos, g_sin], axis=-1)
        quad = g[..., None, :] @ self.covariance[..., 1:, 1:] @ g[..., :, None]
        return np.sqrt(_at_least(quad[..., 0, 0], 0.0))


def fit_fringe(phi_grid, values, uncertainties) -> FringeFits:
    """Fit each row of the (P, F) ``values`` (sigmas ``uncertainties``) to
    a + b cos(2 phi + c).  Each 2-pi window of the scan (from its smallest
    phi) with >= 6 points is one stacked weighted least-squares fit of all
    rows on {1, cos 2phi, sin 2phi}; each row averages the offsets, phasors
    b e^{ic}, residuals and covariances (over count^2) of its
    ``BEST_WINDOWS`` lowest-residual windows, ties in window order."""
    phi = np.asarray(phi_grid, dtype=float)
    y = np.asarray(values, dtype=float)
    sig = np.asarray(uncertainties, dtype=float)
    if phi.ndim != 1 or len(phi) < 6 or y.ndim != 2 \
            or y.shape[1:] != phi.shape or sig.shape != y.shape:
        raise ConfigurationError("need (P, F) values and uncertainties over "
                                 "a 1-d phi grid of F >= 6 points")
    if not (np.isfinite(sig).all() and (sig >= 0).all()):
        raise ConfigurationError("fringe uncertainties must be finite and >= 0")
    start = phi.min()
    n_windows = max(1, int(np.floor((phi.max() - start) / TWO_PI + 1e-9)))
    fits = []   # per window: (P, 4) offset, amplitude, phase, residual; cov
    for w in range(n_windows):
        lo, hi = start + w * TWO_PI, start + (w + 1) * TWO_PI
        mask = (phi >= lo - 1e-12) & (phi <= hi + 1e-12)
        if mask.sum() < 6:
            continue
        p = phi[mask]
        if p.max() - p.min() < TWO_PI * 0.9:
            raise ConfigurationError("need >= 6 phi samples spanning at least 2 pi")
        # compress keeps rows C-ordered (a boolean column index does not),
        # so each row reduces alone: a row fits to the same bits in any batch
        yw, sw = np.compress(mask, y, axis=1), np.compress(mask, sig, axis=1)
        x = np.column_stack([np.ones_like(p), np.cos(2 * p), np.sin(2 * p)])
        # sigmas floored at the row's smallest positive one in the window;
        # an all-zero row (noiseless) is fitted unweighted, zero covariance
        unweighted = (sw == 0).all(axis=1)
        floor = np.where(sw > 0, sw, np.inf).min(axis=1, keepdims=True)
        wt = 1.0 / np.maximum(sw, floor) ** 2
        wt[unweighted] = 1.0
        xtw = x.T * wt[:, None, :]
        gram = xtw @ x
        if not np.isfinite(gram).all():
            raise ConfigurationError("fringe weights 1/sigma^2 overflow: an "
                                     "uncertainty is below about 1e-154")
        # gram is symmetric positive semidefinite: its condition number is
        # the ratio of its extreme eigenvalues
        w = np.linalg.eigvalsh(gram)
        if (w[:, -1] > 1e10 * w[:, 0]).any():
            raise ConfigurationError("degenerate phi grid: fringe design is rank-deficient")
        beta = np.linalg.solve(gram, xtw @ yw[:, :, None])
        cov = np.linalg.inv(gram)
        cov[unweighted] = 0.0
        resid = yw - (x @ beta)[:, :, 0]
        residual = np.sqrt(np.average(resid ** 2, weights=wt, axis=1))
        b = np.hypot(beta[:, 1, 0], beta[:, 2, 0])
        c = _libm(math.atan2, -beta[:, 2, 0], beta[:, 1, 0])
        c[b == 0] = 0.0
        c[c >= math.pi] -= TWO_PI
        fits.append((np.column_stack([beta[:, 0, 0], b, c, residual]), cov))
    if not fits:
        raise ConfigurationError("scan too short: no full 2-pi window available")
    # (P, windows, ...) in window order; pick each row's best windows
    params, covs = (np.stack(part, axis=1) for part in zip(*fits))
    best = np.argsort(params[:, :, 3], axis=1, kind="stable")[:, :BEST_WINDOWS]
    params = np.take_along_axis(params, best[:, :, None], axis=1)
    covs = np.take_along_axis(covs, best[:, :, None, None], axis=1)
    offset = params[:, :, 0].mean(axis=1)
    phasor = (params[:, :, 1] * np.exp(1j * params[:, :, 2])).mean(axis=1)
    amplitude = np.hypot(phasor.real, phasor.imag)   # np.abs rounds apart
    phase = np.where(amplitude > 0, np.angle(phasor), 0.0)
    residual = params[:, :, 3].mean(axis=1)
    cov = covs.sum(axis=1) / best.shape[1] ** 2
    return FringeFits(offset, amplitude, phase, residual, cov)


# ---------------------------------------------------------------------------
# closed-form inversion helpers

def _wrap(x):
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


def _pair_label(pair) -> str:
    """The label "j:k" of a pair of modes; the sort key of the fitted pairs
    and of every stage of pair flags, so "0:10" comes before "0:2"."""
    return "%d:%d" % pair


def _pair_fits(rec: MeasurementRecord, diagonal: bool) -> tuple:
    """(j, k, rate rows, fits) of the twofold fringes of a scanned setting:
    the pairs in label order, diagonal pairs only if ``diagonal``, and one
    :func:`fit_fringe` of their rows."""
    pairs = sorted((p for p in rec.pairs if diagonal or p[0] != p[1]),
                   key=_pair_label)
    rows = [rec.d + 1 + rec.pairs.index(p) for p in pairs]
    j, k = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    rates = rec.rates[rows]
    return j, k, rows, fit_fringe(rec.phi, rates / rec.p_vac,
                                  rec.rate_sigma(rates) / rec.p_vac)


def _pair_flags(j, k, masks: dict) -> list:
    """(kind, j, k) flags in pair order, the kinds of one pair in the order
    of ``masks`` (kind -> (P,) bool)."""
    hits = np.column_stack(list(masks.values())).tolist()
    return [(kind, a, b) for a, b, hit in zip(j.tolist(), k.tolist(), hits)
            for kind, flagged in zip(masks, hit) if flagged]


# ---------------------------------------------------------------------------
# assembled result and pipeline

@dataclass(eq=False)
class ReconstructionResult:
    d: int
    b: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    c_abs: np.ndarray   # |C| as measured, also where Im C is left unsigned
    mu: np.ndarray = None
    diag_known: np.ndarray = None
    uncertainties: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    fallback_entries: list = field(default_factory=list)
    optimizer_report: dict = None

    def to_a_matrix(self) -> AMatrix:
        """Kernel with undetermined B diagonals left at zero (flagged)."""
        return AMatrix(self.d, (self.b + self.b.T) / 2,
                       (self.c + self.c.conj().T) / 2)

    def to_kernel(self) -> StateKernel:
        """Probability kernel up to the (unknown) p_vac prefactor; valid for
        normalized fixed-N distributions."""
        gamma = self.gamma.astype(complex)
        return StateKernel(self.to_a_matrix(),
                           np.concatenate([gamma, gamma.conj()]), 0.0)

    def payload(self) -> dict:
        """The result as JSON values: each complex entry a [re, im] pair."""
        def cplx(m):
            m = np.asarray(m)
            return np.stack([m.real, m.imag], axis=-1).tolist()

        return {
            "d": self.d,
            "b": cplx(self.b),
            "c": cplx(self.c),
            "gamma": np.asarray(self.gamma, dtype=float).tolist(),
            "mu": None if self.mu is None else cplx(self.mu),
            "diag_known": None if self.diag_known is None
            else np.asarray(self.diag_known, dtype=bool).tolist(),
            "uncertainties": {k: np.asarray(v).tolist()
                              for k, v in self.uncertainties.items()},
            "flags": [list(f) for f in self.flags],
            "fallback_entries": [list(f) for f in self.fallback_entries],
            "optimizer_report": self.optimizer_report,
        }


def check_threefolds(threefolds: PatternDistribution, d: int):
    """Raise ConfigurationError unless ``threefolds`` is indexed by all the
    d-mode patterns of its photon total, the set the optimizer predicts."""
    if not np.array_equal(threefolds.patterns, all_patterns(
            d, threefolds.total, threefolds.collision_free)):
        raise ConfigurationError(
            f"the threefolds are not indexed by all the {d}-mode patterns "
            f"of {threefolds.total} photons")


def reconstruct(records: dict, threefolds: PatternDistribution = None,
                seed: int = 0) -> ReconstructionResult:
    """Full pipeline over the available settings.

    `blocked` and `input1` are required; `input2` is optional (without it
    every significantly-imaginary C entry is routed to the threefold
    optimizer, which runs only when ``threefolds`` is given).
    """
    missing = [s for s in ("blocked", "input1") if s not in records]
    if missing:
        raise ConfigurationError(f"missing measurement settings: {missing}")
    if len({(rec.d, rec.pairs) for rec in records.values()}) > 1:
        raise ConfigurationError("the settings record different observables")
    for setting, rec in records.items():   # every rate is divided by p_vac
        if (rec.p_vac == 0).any():
            at = "" if rec.phi is None else \
                f" at phi {rec.phi[rec.p_vac == 0][0]}"
            raise ConfigurationError(f"{setting}: vacuum rate is 0{at}")
    blocked, input1 = records["blocked"], records["input1"]
    d = blocked.d
    if threefolds is not None:
        check_threefolds(threefolds, d)

    # C_jj = p_j from the blocked setting, with Poisson uncertainties;
    # gamma_j = sqrt(p'_j - C_jj), clamped at zero (and flagged) when shot
    # noise pushes the radicand negative
    c_diag = blocked.norm_singles()
    c_diag_sigma = (blocked.rate_sigma(blocked.singles) / blocked.p_vac)[:, 0]
    rad = input1.norm_singles() - c_diag
    gamma = np.sqrt(np.maximum(rad, 0.0))
    flags = [("gamma_clamped", j) for j in np.flatnonzero(rad < 0).tolist()]

    # |B_jk| = b / (2 gamma_j gamma_k) and arg B_jk = c from the input-1
    # fringes (a diagonal pair's PNR rate pr(2_j)/p_vac has amplitude
    # gamma_j^2 |B_jj|); the blocked excess p_jk - p_j p_k >= |B_jk|^2 caps
    # the noise amplification of a small gamma (flagged as clamped)
    j1, k1, rows, fit1 = _pair_fits(input1, diagonal=True)
    off = j1 != k1
    excess = (blocked.rates[rows] / blocked.p_vac).mean(axis=1) \
        - c_diag[j1] * c_diag[k1]
    denom = np.where(off, 2, 1) * gamma[j1] * gamma[k1]
    undetermined = denom <= GAMMA_FLOOR ** 2
    mag = fit1.amplitude / np.where(undetermined, 1.0, denom)
    cap = np.where(off, np.sqrt(_at_least(excess, 0.0)), math.inf)
    clamped = ~undetermined & (mag > cap)
    kj, kk = j1[~undetermined], k1[~undetermined]
    b = np.zeros((d, d), dtype=complex)
    b[kj, kk] = b[kk, kj] = (np.where(clamped, cap, mag)
                             * np.exp(1j * fit1.phase))[~undetermined]
    diag_known = np.isin(np.arange(d), kj[kj == kk])
    flags += _pair_flags(j1, k1, {"b_undetermined": undetermined})
    flags += _pair_flags(j1, k1, {"b_clamped": clamped})

    # |C_jk|^2 = excess - |B_jk|^2; Re C from the fringe offset; |Im C|
    # from the remainder.  float_power is libm pow, as a scalar ** 2 is
    # (an array ** 2 multiplies, which rounds apart).
    j, k, offset, excess = (x[off] for x in (j1, k1, fit1.offset, excess))
    b_sq = np.float_power(np.hypot(b.real, b.imag), 2)
    c_sq = excess - b_sq[j, k]
    abs_clamped = c_sq < 0
    c_sq[abs_clamped] = 0.0
    g2 = c_diag + np.float_power(gamma, 2)
    denom = 2 * gamma[j] * gamma[k]
    gamma_zero = denom == 0
    re = (offset - g2[j] * g2[k] - b_sq[j, k] - c_sq) \
        / np.where(gamma_zero, 1.0, denom)
    # |Re C| cannot exceed |C|; keeps small-gamma noise amplification
    # from leaking unbounded values into the kernel
    bound = np.sqrt(c_sq)
    invalid = ~gamma_zero & (np.abs(re) > bound)
    re = np.where(invalid, np.copysign(bound, re), re)
    im = np.sqrt(_at_least(c_sq - np.float_power(re, 2), 0.0))
    re_c, abs_im, abs_sq = np.zeros((3, d, d))
    kj, kk = j[~gamma_zero], k[~gamma_zero]
    for m, values in ((re_c, re), (abs_im, im), (abs_sq, c_sq)):
        m[kj, kk] = m[kk, kj] = values[~gamma_zero]
    flags += _pair_flags(j, k, {"abs_clamped": abs_clamped,
                                "gamma_zero": gamma_zero,
                                "invalid_argument": invalid})

    mu = None
    im_c = np.zeros((d, d))
    if "input2" in records:
        input2 = records["input2"]
        j2, k2, _, fit2 = _pair_fits(input2, diagonal=False)
        # second-input response mu: |mu_j| from the singles; phases m_j from
        # y_jk = arg B_jk - c''_jk = m_j + m_k - tau where B is known, with
        # m_0 = 0 (a global mu phase) and the scan-origin offset tau
        # averaged over the triangles (0, j, k)
        mu_mag = np.sqrt(np.maximum(input2.norm_singles() - c_diag, 0.0))
        has_b = np.hypot(b.real, b.imag)[j2, k2] > B_FLOOR
        y = _wrap(np.angle(b[j2, k2]) - fit2.phase)
        from0 = has_b & (j2 == 0)
        y0, has0 = np.zeros(d), np.zeros(d, dtype=bool)
        y0[k2[from0]], has0[k2[from0]] = y[from0], True
        closes = has_b & (j2 != 0) & has0[j2] & has0[k2]
        taus = _wrap(y0[j2] + y0[k2] - y)[closes]
        tau = float(-np.angle(np.exp(1j * taus).mean())) if taus.size else 0.0
        mu = mu_mag * np.exp(1j * np.where(has0, _wrap(y0 + tau), 0.0))
        flags += [("mu_phase_undetermined", m)
                  for m in (np.flatnonzero(~has0[1:]) + 1).tolist()]

        # signed Im C_jk from the fringe offsets r_jk = Re[conj(mu_j) mu_k
        # C_jk] over Im(conj(mu_j) mu_k), degenerate (fallback optimizer)
        # for nearly phase-parallel mu; conj(mu_j) mu_k term by term, as a
        # complex scalar product rounds (numpy's vector one fuses).  A pair
        # of a mode without a mu phase gets no sign: im_sign_unknown.
        p2 = input2.norm_singles()
        r = (fit2.offset - p2[j2] * p2[k2] - b_sq[j2, k2] - abs_sq[j2, k2]) / 2
        u, v = np.conj(mu[j2]), mu[k2]
        cross_re = u.real * v.real - u.imag * v.imag
        cross_im = u.real * v.imag + u.imag * v.real
        degenerate = np.abs(cross_im) < \
            EPS_FLOOR * _at_least(np.hypot(cross_re, cross_im), 1e-30)
        im_est = (cross_re * re_c[j2, k2] - r) \
            / np.where(degenerate, 1.0, cross_im)
        known_im = abs_im[j2, k2]
        known = np.append(True, has0[1:])   # a mu phase, m_0 = 0 included
        phased = known[j2] & known[k2]
        inconsistent = ~degenerate & (known_im > 0) & (
            np.abs(np.abs(im_est) - known_im) > 0.5 * known_im + 1e-8)
        signed = np.where(im_est != 0, np.copysign(known_im, im_est), 0.0)
        sign = phased & ~degenerate
        im_c[j2[sign], k2[sign]] = signed[sign]
        im_c[k2[sign], j2[sign]] = -signed[sign]
        flags += _pair_flags(j2, k2, {
            "epsilon_degenerate": phased & degenerate,
            "im_inconsistent": phased & inconsistent,
            "im_sign_unknown": ~phased & (known_im > 0)})
    else:
        flags += _pair_flags(j, k, {"im_sign_unknown": abs_im[j, k] > 0})

    c = np.diag(c_diag).astype(complex) + re_c * (1 - np.eye(d)) + 1j * im_c
    c = (c + c.conj().T) / 2

    fallback = sorted({(f[1], f[2]) for f in flags if f[0] in FALLBACK_FLAGS})
    labels = list(map(_pair_label, zip(j1.tolist(), k1.tolist())))
    result = ReconstructionResult(
        d=d, b=b, c=c, gamma=gamma, c_abs=np.diag(c_diag) + np.sqrt(abs_sq),
        mu=mu, diag_known=diag_known,
        uncertainties={
            "c_diag": c_diag_sigma,
            "fringe_offset": dict(zip(labels, fit1.sigma_offset.tolist())),
            "fringe_amplitude": dict(zip(labels,
                                         fit1.sigma_amplitude.tolist())),
        },
        flags=flags, fallback_entries=fallback)

    if fallback and threefolds is not None:
        result = optimize_undetermined_phases(result, threefolds, seed=seed)
    return result


def optimize_undetermined_phases(result: ReconstructionResult,
                                 threefolds: PatternDistribution,
                                 restarts: int = 10,
                                 seed: int = 0) -> ReconstructionResult:
    """Phase completion: fit the phases of the flagged entries, at their
    magnitudes ``c_abs``, to the measured threefolds by Levenberg-Marquardt
    on the squared residuals of the normalised table (Marquardt, SIAM J.
    Appl. Math. 11, 1963), with the exact Jacobian of
    :func:`_normalised_jacobian`.  Of ``restarts`` starts, Gaussian around
    the direct estimates where available and uniform in [-pi, pi)
    otherwise, the fit with the smallest TVD wins.  A table that raises a
    DgbsError or has no mass rejects its step, or ends its start if the
    Jacobian needs it; a start without a table scores TVD 1.

    The report's ``free_phases`` counts the directions in which the
    threefolds do not fix the phases near the winner: E less the rank of
    the normalised Jacobian there, whose singular values below
    ``FREE_PHASE_TOL`` times the largest count as zero; None if that
    Jacobian cannot be computed.  Each of its rows sums to 0, so at least
    E - P + 1 phases are free for P patterns."""
    entries = result.fallback_entries
    if not entries:
        return result
    rng = np.random.default_rng(seed)
    target = threefolds.probabilities

    def table(phases):
        """The raw threefold table at ``phases``, or None."""
        try:
            raw = _completed(result, phases).pattern_probabilities(
                threefolds.patterns)
        except DgbsError:
            return None
        return raw if raw.sum() > 0 else None

    def misfit(raw):
        return float(np.square(raw / raw.sum() - target).sum())

    def fit(x):
        """The phases, TVD and convergence of one fit started at ``x``."""
        raw = table(x)
        if raw is None:
            return x, 1.0, False
        cost, lam, converged, jtj = misfit(raw), 1e-3, False, None
        for _ in range(LM_STEPS):
            if jtj is None:
                jac = _normalised_jacobian(table, x, raw)
                if jac is None:
                    break
                jtj, grad = jac @ jac.T, jac @ (raw / raw.sum() - target)
                if not grad.any():
                    converged = True
                    break
                # Marquardt's scaling, floored for an entry without effect
                scale = np.diag(np.maximum(np.diag(jtj),
                                           1e-12 * np.diag(jtj).max()))
            step = np.linalg.solve(jtj + lam * scale, -grad)
            trial = table(x + step)
            new = np.inf if trial is None else misfit(trial)
            if new < cost:
                converged = new >= (1 - LM_TOL) * cost or \
                    np.abs(step).max() <= LM_TOL
                x, raw, cost, lam, jtj = x + step, trial, new, lam / 10, None
            else:
                lam *= 10
                converged = lam > LM_MAX_DAMPING
            if converged:
                break
        return x, float(np.abs(raw / raw.sum() - target).sum() / 2), converged

    direct = np.array([np.angle(result.c[j, k]) if result.c[j, k] != 0
                       else np.nan for j, k in entries])
    fits = []
    for _ in range(restarts):
        init = np.where(np.isnan(direct),
                        rng.uniform(-math.pi, math.pi, size=len(entries)),
                        direct + rng.normal(0, PHASE_INIT_SIGMA,
                                            size=len(entries)))
        fits.append(fit(init))
    phases, best_tvd, converged = min(fits, key=lambda f: f[1])
    kernel = _completed(result, phases)
    raw = table(phases)
    jac = None if raw is None else _normalised_jacobian(table, phases, raw)
    free = None
    if jac is not None:
        sv = np.linalg.svd(jac, compute_uv=False)
        free = len(entries) - int(np.count_nonzero(
            sv > FREE_PHASE_TOL * sv.max()))
    report = {
        "entries": [list(e) for e in entries],
        "best_tvd": best_tvd,
        "tvd_spread": float(np.std([f[1] for f in fits])),
        "phases": [float(x) for x in _wrap(phases)],
        "converged": bool(converged),
        "restarts": restarts,
        "free_phases": free,
    }
    return replace(result, c=kernel.a.c, optimizer_report=report,
                   flags=result.flags + [("optimized", j, k) for j, k
                                         in sorted(entries, key=_pair_label)])


def _completed(result: ReconstructionResult, phases) -> StateKernel:
    """The kernel of ``result`` with its fallback entries C_jk at their
    measured magnitudes and the given phases."""
    c = result.c.copy()
    for (j, k), th in zip(result.fallback_entries, phases):
        val = result.c_abs[j, k] * np.exp(1j * th)
        c[j, k] = val
        c[k, j] = np.conj(val)
    return replace(result, c=c).to_kernel()


def _normalised_jacobian(table, x, raw):
    """The (E, P) Jacobian of raw / raw.sum() in the E phases at ``x``
    (``raw`` is ``table(x)``), or None if ``table`` gives None at a phase
    it needs.  A matching uses each kernel entry at most once, unless a
    pattern holds two photons in both of its modes, as no threefold does.
    So each raw entry is a + b cos(theta) + c sin(theta) in each phase,
    half its difference at theta +- pi/2 is its exact derivative, and the
    quotient rule does the rest."""
    turns = np.eye(len(x)) * (math.pi / 2)
    sides = [table(x + t) for t in (*turns, *-turns)]
    if any(side is None for side in sides):
        return None
    slope = (np.array(sides[:len(x)]) - sides[len(x):]) / 2
    total = raw.sum()
    return (slope - slope.sum(axis=1, keepdims=True) * (raw / total)) / total


# ---------------------------------------------------------------------------
# gauge utilities (used to compare reconstructions against ground truth)

def gauge_fix(b: np.ndarray, c: np.ndarray, gamma: np.ndarray):
    """Rotate output-mode phases so gamma becomes real nonnegative.

    Returns (b', c', |gamma|, theta) with b'_jk = e^{-i(th_j + th_k)} B_jk
    and c'_jk = e^{-i th_j} C_jk e^{i th_k}; photon statistics are invariant.
    """
    gamma = np.asarray(gamma, dtype=complex)
    theta = np.angle(gamma)
    ph = np.exp(-1j * theta)
    b2 = b * np.outer(ph, ph)
    c2 = c * np.outer(ph, ph.conj())
    return b2, c2, np.abs(gamma), theta
