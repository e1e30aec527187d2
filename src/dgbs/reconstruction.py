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

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigurationError, SchemaError
from .metrics import tvd
from .probability import (ModelSpec, PatternDistribution, StateKernel,
                          distribution_from_kernel)
from .states import AMatrix, GammaVector

SETTINGS = ("blocked", "input1", "input2")
TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# measurement records

@dataclass
class MeasurementRecord:
    """Singles/twofold rates for one measurement setting.

    For scanned settings (`input1`, `input2`) the arrays carry one column per
    phi grid point; for `blocked` they are phi-independent scalars/vectors.
    ``twofolds`` maps ordered pairs (j, k) with j <= k; a diagonal key (j, j)
    is the photon-number-resolved two-photon rate pr(2_j) and is optional.
    """

    setting: str
    d: int
    pulses: float
    p_vac: np.ndarray
    singles: np.ndarray
    twofolds: dict
    phi: np.ndarray = None

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ConfigurationError(f"unknown setting {self.setting!r}")
        scanned = self.setting != "blocked"
        if scanned and self.phi is None:
            raise ConfigurationError(f"setting {self.setting!r} requires a phi grid")
        self.p_vac = np.atleast_1d(np.asarray(self.p_vac, dtype=float))
        self.singles = np.asarray(self.singles, dtype=float)
        self.twofolds = {self._pair(k): np.asarray(v, dtype=float)
                         for k, v in self.twofolds.items()}
        if self.phi is not None:
            self.phi = np.asarray(self.phi, dtype=float)
        for name, arr in (("p_vac", self.p_vac), ("singles", self.singles),
                          *((f"twofold{k}", v) for k, v in self.twofolds.items())):
            if arr.min() < 0 or arr.max() > 1:
                raise ConfigurationError(f"{name} rates outside [0,1]")

    @staticmethod
    def _pair(key):
        j, k = key
        return (int(min(j, k)), int(max(j, k)))

    @property
    def sigma_scale(self) -> float:
        """1/sqrt(pulses); zero for noiseless (infinite-pulse) records."""
        return 0.0 if not np.isfinite(self.pulses) else 1.0 / math.sqrt(self.pulses)

    def rate_sigma(self, rate: np.ndarray) -> np.ndarray:
        """Poisson counting sigma of a rate: sqrt(counts)/pulses."""
        return np.sqrt(np.maximum(rate, 0.0)) * self.sigma_scale

    def norm_singles(self) -> np.ndarray:
        """p_j (or p'_j / p''_j): singles divided by the vacuum rate."""
        return self.singles / self.p_vac

    def norm_twofold(self, j: int, k: int) -> np.ndarray:
        return self.twofolds[self._pair((j, k))] / self.p_vac


def records_to_csv(records) -> str:
    """Serialize records (dict setting -> MeasurementRecord) to the CSV
    interchange format: setting, phi, modes, counts, pulses."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["setting", "phi", "modes", "counts", "pulses"])
    for setting in SETTINGS:
        rec = records.get(setting)
        if rec is None:
            continue
        phis = [""] if rec.phi is None else \
            [f"{p:.17g}" for p in rec.phi.tolist()]
        pairs = sorted(rec.twofolds)
        labels = ["vac", *map(str, range(rec.d)),
                  *(f"{j}:{k}" for j, k in pairs)]
        # one row per label, one column per phi bin; unscanned rates repeat
        rates = np.empty((len(labels), len(phis)))
        rates[0] = rec.p_vac if rec.p_vac.size > 1 else rec.p_vac[0]
        rates[1:rec.d + 1] = rec.singles if rec.singles.ndim == 2 \
            else rec.singles[:, None]
        for row, pair in enumerate(pairs, start=rec.d + 1):
            rates[row] = rec.twofolds[pair]
        if np.isfinite(rec.pulses):
            pulses, counts = rec.pulses, rates * rec.pulses
        else:
            pulses, counts = "inf", rates
        for phi, column in zip(phis, counts.T.tolist()):
            writer.writerows([setting, phi, label, f"{c:.17g}", pulses]
                             for label, c in zip(labels, column))
    return buf.getvalue()


def records_from_csv(text: str) -> dict:
    """Inverse of :func:`records_to_csv`."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["setting", "phi", "modes", "counts", "pulses"]:
        raise SchemaError("records CSV must start with the standard header")
    data: dict = {}
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise SchemaError(f"line {line}: expected 5 columns")
        setting, phi_txt, modes, counts, pulses = row
        entry = data.setdefault(setting, {"phis": [], "values": {}, "pulses": None})
        try:
            entry["pulses"] = math.inf if pulses == "inf" else float(pulses)
            phi = None if phi_txt == "" else float(phi_txt)
            entry["values"][(phi, modes)] = float(counts)
        except ValueError as exc:
            raise SchemaError(f"line {line}: {exc}") from exc
        if phi is not None and (not entry["phis"] or entry["phis"][-1] != phi):
            if phi not in entry["phis"]:
                entry["phis"].append(phi)
    records = {}
    for setting, entry in data.items():
        pulses = entry["pulses"]
        scale = 1.0 if not np.isfinite(pulses) else pulses
        labels = {m for (_, m) in entry["values"]}
        d = 1 + max(int(m.split(":")[-1]) for m in labels if m != "vac")
        phis = entry["phis"] or None
        bins = phis if phis else [None]

        def rate(phi, label):
            return entry["values"][(phi, label)] / scale

        p_vac = np.array([rate(p, "vac") for p in bins])
        singles = np.array([[rate(p, str(j)) for p in bins] for j in range(d)])
        twofolds = {}
        for m in sorted(labels):
            if ":" in m:
                j, k = (int(x) for x in m.split(":"))
                twofolds[(j, k)] = np.array([rate(p, m) for p in bins])
        if phis is None:
            singles = singles[:, 0]
            twofolds = {k: v[0] for k, v in twofolds.items()}
        records[setting] = MeasurementRecord(
            setting, d, pulses, p_vac, singles, twofolds,
            phi=np.array(phis) if phis else None)
    return records


# ---------------------------------------------------------------------------
# fringe fitting

@dataclass
class FringeFit:
    """a + b cos(2 phi + c) with b >= 0 and c in [-pi, pi)."""

    offset: float
    amplitude: float
    phase: float
    residual: float
    covariance: np.ndarray  # covariance of the linear basis (1, cos, sin)

    @property
    def sigma_offset(self) -> float:
        return math.sqrt(max(self.covariance[0, 0], 0.0))

    @property
    def sigma_amplitude(self) -> float:
        # delta method in the (cos, sin) coefficients
        if self.amplitude == 0:
            return math.sqrt(max(self.covariance[1, 1], 0.0))
        g = np.array([math.cos(self.phase), -math.sin(self.phase)])
        return math.sqrt(max(g @ self.covariance[1:, 1:] @ g, 0.0))

    @property
    def sigma_phase(self) -> float:
        if self.amplitude == 0:
            return math.pi
        g = np.array([math.sin(self.phase), math.cos(self.phase)]) / self.amplitude
        return math.sqrt(max(g @ self.covariance[1:, 1:] @ g, 0.0))


def fit_fringe(phi_grid, values, uncertainties=None) -> FringeFit:
    """Weighted linear least squares on the basis {1, cos 2phi, sin 2phi}."""
    phi = np.asarray(phi_grid, dtype=float)
    y = np.asarray(values, dtype=float)
    if phi.shape != y.shape or phi.ndim != 1:
        raise ConfigurationError("phi grid and values must be 1-d and equal length")
    if len(phi) < 6 or phi.max() - phi.min() < TWO_PI * 0.9:
        raise ConfigurationError("need >= 6 phi samples spanning at least 2 pi")
    x = np.column_stack([np.ones_like(phi), np.cos(2 * phi), np.sin(2 * phi)])
    if uncertainties is None:
        w = np.ones_like(y)
    else:
        sig = np.asarray(uncertainties, dtype=float)
        if np.all(sig == 0):
            w = np.ones_like(y)
        else:
            floor = sig[sig > 0].min()
            w = 1.0 / np.maximum(sig, floor) ** 2
    xtw = x.T * w
    gram = xtw @ x
    if np.linalg.cond(gram) > 1e10:
        raise ConfigurationError("degenerate phi grid: fringe design is rank-deficient")
    beta = np.linalg.solve(gram, xtw @ y)
    cov = np.linalg.inv(gram)
    if uncertainties is None or np.all(np.asarray(uncertainties) == 0):
        cov = np.zeros((3, 3))
    resid = y - x @ beta
    residual = float(np.sqrt(np.average(resid ** 2, weights=w)))
    a = float(beta[0])
    b = float(np.hypot(beta[1], beta[2]))
    c = float(math.atan2(-beta[2], beta[1])) if b > 0 else 0.0
    if c >= math.pi:
        c -= TWO_PI
    return FringeFit(a, b, c, residual, cov)


def fit_fringe_windows(phi_grid, values, uncertainties=None,
                       n_best: int = 5) -> FringeFit:
    """Fit 2-pi windows of a long scan and average the lowest-residual ones."""
    phi = np.asarray(phi_grid, dtype=float)
    y = np.asarray(values, dtype=float)
    sig = None if uncertainties is None else np.asarray(uncertainties, dtype=float)
    start = phi.min()
    n_windows = max(1, int(np.floor((phi.max() - start) / TWO_PI + 1e-9)))
    fits = []
    for w in range(n_windows):
        lo, hi = start + w * TWO_PI, start + (w + 1) * TWO_PI
        mask = (phi >= lo - 1e-12) & (phi <= hi + 1e-12)
        if mask.sum() < 6:
            continue
        fits.append(fit_fringe(phi[mask], y[mask],
                               None if sig is None else sig[mask]))
    if not fits:
        raise ConfigurationError("scan too short: no full 2-pi window available")
    fits.sort(key=lambda f: f.residual)
    best = fits[:min(n_best, len(fits))]
    m = len(best)
    a = float(np.mean([f.offset for f in best]))
    phasor = np.mean([f.amplitude * np.exp(1j * f.phase) for f in best])
    b = float(abs(phasor))
    c = float(np.angle(phasor)) if b > 0 else 0.0
    cov = sum(f.covariance for f in best) / m ** 2
    residual = float(np.mean([f.residual for f in best]))
    return FringeFit(a, b, c, residual, cov)


# ---------------------------------------------------------------------------
# closed-form inversion steps

def recover_c_diag(blocked: MeasurementRecord):
    """C_jj = p_j from the blocked setting, with Poisson uncertainties."""
    p = blocked.norm_singles()
    if p.ndim != 1:
        raise ConfigurationError("blocked singles must be phi-independent")
    return p.copy(), blocked.rate_sigma(blocked.singles) / blocked.p_vac[0]


def recover_gamma(input1: MeasurementRecord, c_diag: np.ndarray):
    """gamma_j = sqrt(p'_j - C_jj), clamped at zero (and flagged) when shot
    noise pushes the radicand negative."""
    p1 = input1.norm_singles()
    if p1.ndim == 2:
        p1 = p1.mean(axis=1)
    rad = p1 - c_diag
    flags = [j for j, v in enumerate(rad) if v < 0]
    gamma = np.sqrt(np.maximum(rad, 0.0))
    return gamma, flags


def recover_b(fringes: dict, gamma: np.ndarray, gamma_floor: float = 1e-6,
              b_bound: np.ndarray = None):
    """|B_jk| = b / (2 gamma_j gamma_k) and arg B_jk = c, from the input-1
    twofold fringes.  Diagonal keys (j, j) use the PNR rate convention
    pr(2_j)/p_vac, whose fringe amplitude is gamma_j^2 |B_jj|.

    ``b_bound`` (from the blocked correlations, |B_jk|^2 <= p_jk - p_j p_k)
    caps the noise amplification when a gamma is small; capped entries are
    reported as clamped.
    """
    d = len(gamma)
    b = np.zeros((d, d), dtype=complex)
    diag_known = np.zeros(d, dtype=bool)
    flagged = []
    clamped = []
    for (j, k), fit in fringes.items():
        denom = (2 - (j == k)) * gamma[j] * gamma[k]
        if denom <= gamma_floor ** 2:
            flagged.append((j, k))
            continue
        mag = fit.amplitude / denom
        if b_bound is not None and j != k and mag > b_bound[j, k]:
            mag = b_bound[j, k]
            clamped.append((j, k))
        val = mag * np.exp(1j * fit.phase)
        b[j, k] = val
        b[k, j] = val
        if j == k:
            diag_known[j] = True
    return b, diag_known, flagged, clamped


def recover_c_offdiag(blocked: MeasurementRecord, b: np.ndarray,
                      c_diag: np.ndarray, gamma: np.ndarray,
                      fringes: dict):
    """|C_jk|^2 = p_jk - p_j p_k - |B_jk|^2; Re C from the fringe offset;
    |Im C| from the remainder.  Returns (re_c, abs_im_c, flags)."""
    d = len(c_diag)
    re_c = np.zeros((d, d))
    abs_im = np.zeros((d, d))
    abs_sq = np.zeros((d, d))
    flags = []
    for (j, k), fit in fringes.items():
        if j == k:
            continue
        p_jk = float(np.mean(blocked.norm_twofold(j, k)))
        c_sq = p_jk - c_diag[j] * c_diag[k] - abs(b[j, k]) ** 2
        if c_sq < 0:
            flags.append(("abs_clamped", j, k))
            c_sq = 0.0
        gj2 = c_diag[j] + gamma[j] ** 2
        gk2 = c_diag[k] + gamma[k] ** 2
        denom = 2 * gamma[j] * gamma[k]
        if denom == 0:
            flags.append(("gamma_zero", j, k))
            continue
        re = (fit.offset - gj2 * gk2 - abs(b[j, k]) ** 2 - c_sq) / denom
        # |Re C| cannot exceed |C|; keeps small-gamma noise amplification
        # from leaking unbounded values into the kernel
        bound = math.sqrt(c_sq)
        if abs(re) > bound:
            flags.append(("invalid_argument", j, k))
            re = math.copysign(bound, re)
        im_sq = c_sq - re ** 2
        im = math.sqrt(max(im_sq, 0.0))
        for a_, b_ in ((j, k), (k, j)):
            re_c[a_, b_] = re
            abs_im[a_, b_] = im
            abs_sq[a_, b_] = c_sq
    return re_c, abs_im, abs_sq, flags


def _wrap(x):
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


def recover_mu(input2: MeasurementRecord, c_diag: np.ndarray, b: np.ndarray,
               fringes2: dict, b_floor: float = 1e-9):
    """Complex second-input response mu: |mu_j| from singles, phases solved
    jointly from the fringe phases given arg B, with arg(mu_0) = 0 and a
    common scan-origin offset eliminated."""
    d = len(c_diag)
    p2 = input2.norm_singles()
    if p2.ndim == 2:
        p2 = p2.mean(axis=1)
    mag = np.sqrt(np.maximum(p2 - c_diag, 0.0))
    # fringe phase: c''_jk = arg B_jk - m_j - m_k (+ tau) in this convention
    y = {}
    for (j, k), fit in fringes2.items():
        if j == k or abs(b[j, k]) <= b_floor:
            continue
        y[(j, k)] = _wrap(np.angle(b[j, k]) - fit.phase)  # = m_j + m_k - tau
    # y_jk = m_j + m_k - tau; the system is invariant under a uniform shift
    # of all m_j (a global mu phase), so pinning m_0 = 0 is harmless.
    phases = np.zeros(d)
    ref = 0
    taus = []
    for (j, k), val in y.items():
        if j != ref and k != ref and (ref, j) in y and (ref, k) in y:
            taus.append(_wrap(y[(ref, j)] + y[(ref, k)] - val))
    if taus:
        tau = float(-np.angle(np.mean(np.exp(1j * np.array(taus)))))
    else:
        tau = 0.0
    undetermined = []
    for k in range(d):
        if k == ref:
            continue
        if (ref, k) in y:
            phases[k] = float(_wrap(y[(ref, k)] + tau))
        else:
            undetermined.append(k)
    mu = mag * np.exp(1j * phases)
    return mu, tau, undetermined


def resolve_im_sign(mu: np.ndarray, re_c: np.ndarray, abs_im_c: np.ndarray,
                    r_terms: dict, eps_floor: float = 1e-6):
    """Signed Im C_jk from the second-input fringe offsets.

    ``r_terms[(j, k)]`` must hold Re[conj(mu_j) mu_k C_jk].  The inversion
    denominator is Im(conj(mu_j) mu_k); pairs with nearly phase-parallel mu
    components are flagged for the fallback optimizer.
    """
    d = re_c.shape[0]
    im_c = np.zeros((d, d))
    flags = []
    for (j, k), r in r_terms.items():
        if j == k:
            continue
        cross = np.conj(mu[j]) * mu[k]
        denom = cross.imag
        scale = max(abs(cross), 1e-30)
        if abs(denom) < eps_floor * scale:
            flags.append(("epsilon_degenerate", j, k))
            continue
        im_est = (cross.real * re_c[j, k] - r) / denom
        if abs_im_c[j, k] > 0 and abs(abs(im_est) - abs_im_c[j, k]) > \
                0.5 * abs_im_c[j, k] + 1e-8:
            flags.append(("im_inconsistent", j, k))
        signed = math.copysign(abs_im_c[j, k], im_est) if im_est != 0 else 0.0
        im_c[j, k] = signed
        im_c[k, j] = -signed
    return im_c, flags


# ---------------------------------------------------------------------------
# assembled result and pipeline

@dataclass
class ReconstructionResult:
    d: int
    b: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray = None
    diag_known: np.ndarray = None
    uncertainties: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    fallback_entries: list = field(default_factory=list)
    optimizer_report: dict = None

    def to_a_matrix(self) -> AMatrix:
        """Kernel with undetermined B diagonals left at zero (flagged)."""
        b = self.b.copy()
        c = (self.c + self.c.conj().T) / 2
        return AMatrix(self.d, (b + b.T) / 2, c)

    def to_kernel(self) -> StateKernel:
        """Probability kernel up to the (unknown) p_vac prefactor; valid for
        normalized fixed-N distributions."""
        return StateKernel(self.to_a_matrix(),
                           GammaVector.from_halves(self.gamma.astype(complex)),
                           0.0)

    def to_json(self) -> str:
        def cplx(m):
            m = np.asarray(m)
            return [[[float(v.real), float(v.imag)] for v in row] for row in m] \
                if m.ndim == 2 else [[float(v.real), float(v.imag)] for v in m]

        payload = {
            "d": self.d,
            "b": cplx(self.b),
            "c": cplx(self.c),
            "gamma": [float(g) for g in self.gamma],
            "mu": None if self.mu is None else cplx(self.mu),
            "diag_known": None if self.diag_known is None
            else [bool(x) for x in self.diag_known],
            "uncertainties": {k: np.asarray(v).tolist()
                              for k, v in self.uncertainties.items()},
            "flags": [list(f) for f in self.flags],
            "fallback_entries": [list(f) for f in self.fallback_entries],
            "optimizer_report": self.optimizer_report,
        }
        return json.dumps(payload, sort_keys=True)


def _fit_all_fringes(record: MeasurementRecord, n_best: int, weighted: bool):
    fringes = {}
    for (j, k), rates in record.twofolds.items():
        values = rates / record.p_vac
        sig = record.rate_sigma(rates) / record.p_vac if weighted else None
        fringes[(j, k)] = fit_fringe_windows(record.phi, values, sig,
                                             n_best=n_best)
    return fringes


def reconstruct(records: dict, threefolds: PatternDistribution = None,
                seed: int = 0, n_best_windows: int = 5,
                weighted: bool = True) -> ReconstructionResult:
    """Full pipeline over the available settings.

    `blocked` and `input1` are required; `input2` is optional (without it
    every significantly-imaginary C entry is routed to the threefold
    optimizer, which runs only when ``threefolds`` is given).
    """
    missing = [s for s in ("blocked", "input1") if s not in records]
    if missing:
        raise ConfigurationError(f"missing measurement settings: {missing}")
    blocked, input1 = records["blocked"], records["input1"]
    d = blocked.d
    flags = []

    c_diag, c_diag_sigma = recover_c_diag(blocked)
    gamma, gflags = recover_gamma(input1, c_diag)
    flags += [("gamma_clamped", j) for j in gflags]

    fringes1 = _fit_all_fringes(input1, n_best_windows, weighted)
    b_bound = np.full((d, d), np.inf)
    for (j, k) in input1.twofolds:
        if j == k or (j, k) not in blocked.twofolds:
            continue
        p_jk = float(np.mean(blocked.norm_twofold(j, k)))
        cap = math.sqrt(max(p_jk - c_diag[j] * c_diag[k], 0.0))
        b_bound[j, k] = b_bound[k, j] = cap
    b, diag_known, bflags, bclamped = recover_b(fringes1, gamma,
                                                b_bound=b_bound)
    flags += [("b_undetermined", j, k) for j, k in bflags]
    flags += [("b_clamped", j, k) for j, k in bclamped]

    re_c, abs_im, abs_sq, cflags = recover_c_offdiag(
        blocked, b, c_diag, gamma, fringes1)
    flags += cflags

    mu = None
    sign_flags = []
    if "input2" in records:
        input2 = records["input2"]
        fringes2 = _fit_all_fringes(input2, n_best_windows, weighted)
        mu, _tau, mu_undet = recover_mu(input2, c_diag, b, fringes2)
        flags += [("mu_phase_undetermined", k) for k in mu_undet]
        p2 = input2.norm_singles()
        if p2.ndim == 2:
            p2 = p2.mean(axis=1)
        r_terms = {}
        for (j, k), fit in fringes2.items():
            if j == k:
                continue
            r_terms[(j, k)] = (fit.offset - p2[j] * p2[k] - abs(b[j, k]) ** 2
                               - abs_sq[j, k]) / 2
        im_c, sign_flags = resolve_im_sign(mu, re_c, abs_im, r_terms)
        flags += sign_flags
    else:
        im_c = np.zeros((d, d))
        for j in range(d):
            for k in range(j + 1, d):
                if abs_im[j, k] > 0:
                    sign_flags.append(("im_sign_unknown", j, k))
        flags += sign_flags

    c = np.diag(c_diag).astype(complex) + re_c * (1 - np.eye(d)) + 1j * im_c
    c = (c + c.conj().T) / 2

    fallback = sorted({(f[1], f[2]) for f in flags
                       if len(f) == 3 and f[0] in
                       ("b_undetermined", "invalid_argument",
                        "epsilon_degenerate", "im_inconsistent",
                        "im_sign_unknown")})
    result = ReconstructionResult(
        d=d, b=b, c=c, gamma=gamma, mu=mu, diag_known=diag_known,
        uncertainties={
            "c_diag": c_diag_sigma,
            "fringe_offset": {f"{j}:{k}": fringes1[(j, k)].sigma_offset
                              for (j, k) in fringes1},
            "fringe_amplitude": {f"{j}:{k}": fringes1[(j, k)].sigma_amplitude
                                 for (j, k) in fringes1},
        },
        flags=flags, fallback_entries=fallback)

    if fallback and threefolds is not None:
        result = optimize_undetermined_phases(result, threefolds, seed=seed)
    return result


def optimize_undetermined_phases(result: ReconstructionResult,
                                 threefolds: PatternDistribution,
                                 restarts: int = 10, seed: int = 0,
                                 init_sigma: float = 0.3) -> ReconstructionResult:
    """Monte-Carlo phase completion: minimize the TVD between the measured
    threefold distribution and the kernel's prediction over the phases of
    the flagged entries; 10 restarts, Gaussian initials around the direct
    estimates where available, uniform [-pi, pi) otherwise."""
    entries = result.fallback_entries
    if not entries:
        return result
    rng = np.random.default_rng(seed)
    d = result.d
    base_c = result.c.copy()
    mags_c = np.abs(result.c)

    def build(phases):
        c = base_c.copy()
        for (j, k), th in zip(entries, phases):
            val = mags_c[j, k] * np.exp(1j * th)
            c[j, k] = val
            c[k, j] = np.conj(val)
        return replace(result, c=c).to_kernel()

    def objective(phases):
        try:
            dist = distribution_from_kernel(build(phases), threefolds.total,
                                            threefolds.collision_free,
                                            ModelSpec("full"))
        except Exception:
            return 1.0
        return tvd(dist, threefolds)

    direct = np.array([np.angle(base_c[j, k]) if mags_c[j, k] > 0 else np.nan
                       for j, k in entries])
    best = None
    values = []
    for run in range(restarts):
        init = np.where(np.isnan(direct),
                        rng.uniform(-math.pi, math.pi, size=len(entries)),
                        direct + rng.normal(0, init_sigma, size=len(entries)))
        res = minimize(objective, init, method="Nelder-Mead",
                       options={"maxiter": 400 * max(1, len(entries)),
                                "xatol": 1e-6, "fatol": 1e-12})
        values.append(res.fun)
        if best is None or res.fun < best.fun:
            best = res
    kernel = build(best.x)
    report = {
        "entries": [list(e) for e in entries],
        "best_tvd": float(best.fun),
        "tvd_spread": float(np.std(values)),
        "phases": [float(x) for x in _wrap(best.x)],
        "converged": bool(best.success),
        "restarts": restarts,
    }
    out = ReconstructionResult(
        d=d, b=result.b, c=kernel.a.c, gamma=result.gamma, mu=result.mu,
        diag_known=result.diag_known, uncertainties=result.uncertainties,
        flags=result.flags + [("optimized", j, k) for j, k in entries],
        fallback_entries=entries, optimizer_report=report)
    return out


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
