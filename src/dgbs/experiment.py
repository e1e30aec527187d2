"""Synthetic-experiment generation: shot-noise sampling and the samples
CSV, three-setting measurement records, phase drift + PID locking, and
transfer-matrix amplitude estimation from singles rates."""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .errors import ConfigurationError, SchemaError
from .probability import (ModelSpec, PhaseFamily, StateKernel,
                          TwofoldFringe, all_patterns)
from .reconstruction import MeasurementRecord
from .serialize import _codes, _csv_rows, _read_csv, _unique_ints
from .states import (SourceConfig, TransferMatrix, _require_finite,
                     build_input_state, propagate)

PHI_BINS = 64                   # locked phases are quantized per 2 pi
LOCK_SETPOINT = math.pi / 4     # default lock point of the coherent phase
SETTLE_FRACTION = 0.2           # lock-trace head left out of the residual
KP_GRID = (0.3, 0.6, 0.9, 1.2)  # tuned gains, in units of 1 / error slope
KI_GRID = (0.0, 0.5, 2.0, 6.0)
# a drift trace holds one float per step; lab runs use a few hundred
MAX_DRIFT_STEPS = 10 ** 6
TUNING_DURATION = 30.0          # s of drift that tune_pid_gains locks over
SAMPLES_CSV_HEADER = "pulse,bitmask_hex,phi"


# ---------------------------------------------------------------------------
# pattern sampling

class ClickTable:
    """Column-oriented store of per-pulse detection outcomes."""

    def __init__(self, bitmasks: np.ndarray, phi: np.ndarray, d: int):
        self.bitmasks = np.asarray(bitmasks, dtype=np.int64)
        self.phi = np.asarray(phi, dtype=float)
        self.d = d

    def __len__(self):
        return len(self.bitmasks)

    def patterns(self) -> np.ndarray:
        """(P, d) counts of the pulses, discards skipped."""
        masks = self.bitmasks[self.bitmasks >= 0]
        return (masks[:, None] >> np.arange(self.d)) & 1

    def to_csv(self) -> str:
        """pulse, bitmask_hex, phi; each distinct mask and phi formatted
        once (phi by its bits, so that -0.0 and 0.0 stay apart)."""
        masks, which = _unique_ints(self.bitmasks)
        hexes = [format(m, "x") if m >= 0 else "discard"
                 for m in masks.tolist()]
        bits, where = _unique_ints(self.phi.view(np.int64))
        phis = [f"{p:.17g}" for p in bits.view(float).tolist()]
        return SAMPLES_CSV_HEADER + "\n" + _csv_rows(len(self), [
            np.arange(len(self)), ",", (hexes, which), ",", (phis, where),
            "\n"])


def samples_from_csv(text: str, d: int, min_photons: int) -> tuple:
    """The (S, d) counts of the samples of a :meth:`ClickTable.to_csv` text
    with at least ``min_photons`` clicks, and the set of their photon
    numbers.  Only the mask column is read, each distinct mask once."""
    def parse(rows):   # None if a row has no mask field or a bad one
        if next(rows, [])[:2] != SAMPLES_CSV_HEADER.split(",")[:2]:
            raise SchemaError(f"samples CSV must have header "
                              f"{SAMPLES_CSV_HEADER}")
        try:
            texts, which = _codes(map(itemgetter(1), filter(None, rows)))
        except IndexError:
            return None
        masks = [_mask(text, d) for text in texts]
        return None if None in masks else (np.array(masks, np.int64), which)

    def fault(row):
        if _mask("".join(row[1:2]), d) is None:
            return f"{row[1:2]} is not a bitmask over {d} modes"

    masks, which = _read_csv(text, parse, fault, "samples line")
    # the bits of each distinct mask, one byte per count
    bits = (masks[:, None] >> np.arange(d) & 1).astype(np.int8)
    keep = (masks >= 0) & (bits.sum(axis=1) >= min_photons)
    kept = which[keep[which]]   # the codes of the kept samples, in order
    return bits[kept], set(bits[keep].sum(axis=1).tolist())


def _mask(text: str, d: int) -> int:
    """The bitmask over ``d`` modes of a samples mask field, -1 for a
    discard, None unless it is "discard" or plain hex below 2 ** d."""
    if text == "discard":
        return -1
    if text and not text.strip(string.hexdigits) and not int(text, 16) >> d:
        return int(text, 16)


def sample_patterns(kernel: StateKernel, model: ModelSpec, pulses: int,
                    n_max: int, seed: int, phi: float = 0.0) -> ClickTable:
    """Draw i.i.d. collision-free patterns with N <= n_max from the exact
    distribution; residual probability mass goes to a discard bucket."""
    patterns, masks = _sampler_patterns(kernel.d, n_max)
    probs = _with_discard(kernel.pattern_probabilities(patterns, model))
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(probs), size=pulses, p=probs)
    return ClickTable(masks[idx], np.full(pulses, phi), kernel.d)


def _sampler_patterns(d: int, n_max: int) -> tuple:
    """The collision-free patterns with N <= n_max, the sampler's outcomes,
    as (P, d) counts, and their bitmasks followed by -1 for the discard
    bucket."""
    patterns = np.concatenate([all_patterns(d, total, collision_free=True)
                               for total in range(n_max + 1)])
    return patterns, np.append(patterns @ (1 << np.arange(d)), -1)


def _with_discard(probs):
    """The patterns' probabilities, then the discard bucket's, normalised."""
    probs = np.clip(np.append(probs, max(0.0, 1.0 - probs.sum())), 0, None)
    return probs / probs.sum()


def sample_patterns_with_phase(config: SourceConfig, t: TransferMatrix,
                               model: ModelSpec, phi_per_pulse, n_max: int,
                               seed: int) -> ClickTable:
    """Like :func:`sample_patterns` on the circuit ``t`` fed by ``config``,
    with the instantaneous (locked) phase of each pulse as the coherent
    phase.  Phases are quantized to ``PHI_BINS`` bins per 2 pi, and the
    occupied bins are evaluated as one phase family."""
    phi_per_pulse = np.asarray(phi_per_pulse, dtype=float)
    pulses = len(phi_per_pulse)
    width = 2 * math.pi / PHI_BINS
    bins = np.round(phi_per_pulse / width).astype(int)
    occupied = np.unique(bins)
    family = PhaseFamily.scan(config, t, occupied * width,
                              classical=model.kind == "classical")
    patterns, table = _sampler_patterns(t.d, n_max)
    probs = family.pattern_probabilities(patterns, model)
    rng = np.random.default_rng(seed)
    masks = np.empty(pulses, dtype=np.int64)
    for f, b in enumerate(occupied):
        sel = np.nonzero(bins == b)[0]
        p = _with_discard(probs[f])
        masks[sel] = table[rng.choice(len(p), size=len(sel), p=p)]
    return ClickTable(masks, phi_per_pulse, t.d)


# ---------------------------------------------------------------------------
# three-setting measurement records

def _setting_patterns(d: int, include_collisions: bool) -> tuple:
    """The singles and twofold patterns every setting records, as (P, d)
    counts, and the mode pairs (j, k) of the twofolds."""
    pairs = [(j, k) for j in range(d)
             for k in range(j if include_collisions else j + 1, d)]
    eye = np.eye(d, dtype=np.int64)
    j, k = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return np.vstack([eye, eye[j] + eye[k]]), pairs


def _binomial_rates(rng, rate, pulses):
    return rng.binomial(int(pulses), np.clip(rate, 0, 1)) / pulses


def simulate_records(config: SourceConfig, t: TransferMatrix,
                     second_input_port: int = None,
                     phi_grid=None, pulses_per_setting: float = math.inf,
                     seed: int = None,
                     include_collisions: bool = False) -> dict:
    """Generate the three measurement settings the reconstruction consumes.

    With finite ``pulses_per_setting`` every observable receives independent
    binomial counting noise (pulses are split evenly over the phi grid for
    scanned settings); ``math.inf`` yields exact noiseless rates.  Each
    scanned setting is one :class:`PhaseFamily`.
    """
    if phi_grid is None:   # five 2-pi windows
        phi_grid = np.linspace(0, 10 * math.pi, 100, endpoint=False)
    phi_grid = np.asarray(phi_grid, dtype=float)
    rng = np.random.default_rng(seed)
    noisy = np.isfinite(pulses_per_setting)
    d = t.d
    patterns, pairs = _setting_patterns(d, include_collisions)
    records = {}

    blocked_cfg = replace(config, alpha_mag=0.0)
    kernel = StateKernel.from_state(propagate(build_input_state(blocked_cfg, d), t))
    rates = np.append(kernel.p_vac,
                      kernel.pattern_probabilities(patterns))[:, None]
    if noisy:
        # the vacuum rate is drawn after the other observables
        rates[1:] = _binomial_rates(rng, rates[1:], pulses_per_setting)
        rates[0] = _binomial_rates(rng, rates[0], pulses_per_setting)
    records["blocked"] = MeasurementRecord(
        "blocked", d, pulses_per_setting, rates, pairs)

    settings = [("input1", config.coherent_port)]
    if second_input_port is not None:
        settings.append(("input2", second_input_port))
    pulses_per_bin = pulses_per_setting / len(phi_grid) if noisy else math.inf
    for name, port in settings:
        cfg = replace(config, coherent_port=port,
                      squeezer_ports=_avoid_overlap(config.squeezer_ports, port))
        family = PhaseFamily.scan(cfg, t, phi_grid)
        rates = np.vstack([family.p_vac,
                           family.pattern_probabilities(patterns).T])
        if noisy:
            rates = _binomial_rates(rng, rates, pulses_per_bin)
        records[name] = MeasurementRecord(
            name, d, pulses_per_bin, rates, pairs, phi=phi_grid)
    return records


def _avoid_overlap(squeezer_ports, coherent_port):
    if coherent_port not in squeezer_ports:
        return squeezer_ports
    raise ConfigurationError(
        f"second coherent input port {coherent_port} collides with the squeezer ports")


# ---------------------------------------------------------------------------
# phase drift and PID locking

@dataclass(frozen=True)
class DriftModel:
    """Phase drift: random walk, sinusoid, or their sum."""

    kind: str = "composite"
    sigma: float = 0.015          # random-walk step std (rad per step)
    amplitude: float = 1.8        # sinusoid amplitude (rad)
    period: float = 15.0          # sinusoid period (s)
    step_interval: float = 0.1    # s

    def __post_init__(self):
        if self.kind not in ("random_walk", "sinusoidal", "composite"):
            raise ConfigurationError(f"unknown drift kind {self.kind!r}")
        _require_finite(self)
        if self.sigma < 0 or self.period <= 0 or self.step_interval <= 0:
            raise ConfigurationError("need sigma >= 0, period > 0 and step_interval > 0")

    def trace(self, duration: float, rng) -> np.ndarray:
        steps = duration / self.step_interval
        if steps > MAX_DRIFT_STEPS:
            raise ConfigurationError(
                f"duration {duration} is more than {MAX_DRIFT_STEPS} drift "
                f"steps of {self.step_interval} s")
        n = int(round(steps)) if math.isfinite(steps) else 0
        if n < 1:
            raise ConfigurationError(
                f"duration {duration} covers no drift step of "
                f"{self.step_interval} s")
        t = np.arange(n) * self.step_interval
        out = np.zeros(n)
        if self.kind in ("random_walk", "composite"):
            out += np.concatenate([[0.0], np.cumsum(
                rng.normal(0, self.sigma, size=n - 1))])
        if self.kind in ("sinusoidal", "composite"):
            out += self.amplitude * np.sin(2 * math.pi * t / self.period)
        return out


@dataclass(frozen=True)
class PidConfig:
    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    setpoint: float = LOCK_SETPOINT
    update_interval: float = 0.1
    actuator_limit: float = 4 * math.pi

    def __post_init__(self):
        _require_finite(self)
        if self.update_interval <= 0 or self.actuator_limit <= 0:
            raise ConfigurationError("update interval and actuator limit must be positive")


@dataclass
class LockResult:
    times: np.ndarray
    phi: np.ndarray
    setpoint: float
    residual_std: float
    diverged: bool


def lock_kernel(config: SourceConfig, t: TransferMatrix) -> StateKernel:
    """The circuit's kernel at coherent phase 0, the origin of the phase
    that the lock measures and actuates."""
    return StateKernel.from_state(propagate(
        build_input_state(replace(config, phi=0.0), t.d), t))


def build_error_signal(kernel: StateKernel, pairs):
    """S(phi) = sum over (j, k, sign) of sign * p'_{j,k}(phi), exact from
    the phase-0 kernel (:func:`lock_kernel`), for a scalar phi or a (G,)
    array of them; each pair's :class:`TwofoldFringe` is computed once."""
    if not pairs:
        raise ConfigurationError("error signal needs at least one mode pair")
    fringes = [TwofoldFringe.of(kernel, j, k) for j, k, _ in pairs]
    stacked = TwofoldFringe(*(np.array(col)[:, None] for col in zip(*fringes)))
    signs = np.array([sign for _, _, sign in pairs], dtype=float)[:, None]

    def signal(phi):   # accumulate sums in pair order; reduce may go pairwise
        rates = stacked.rate_at(np.exp(2j * np.reshape(phi, -1)))
        return np.add.accumulate(signs * rates)[-1].reshape(np.shape(phi))[()]

    return signal


def auto_select_pairs(kernel: StateKernel, setpoint: float = LOCK_SETPOINT,
                      n_pairs: int = 5):
    """Pick the highest-visibility twofold fringes of the phase-0 kernel
    (:func:`lock_kernel`); signs are chosen so all slopes at the lock point
    add constructively (anti-correlated fringes are weighted by -1)."""
    b, g = kernel.a.b, kernel.gamma.gamma
    candidates = []
    for j in range(kernel.d):
        for k in range(j + 1, kernel.d):
            fringe = TwofoldFringe.of(kernel, j, k)
            amp = 2 * abs(b[j, k] * g[j] * g[k])
            if amp == 0:
                continue
            phase = float(np.angle(fringe.weight))
            slope = -2 * amp * math.sin(2 * setpoint + phase)
            vis = amp / max(fringe.blocked + amp, 1e-30)
            candidates.append((vis, j, k, slope))
    candidates.sort(reverse=True)
    chosen = candidates[:n_pairs]
    if not chosen:
        raise ConfigurationError("no fringing pairs available for an error signal")
    ref_slope = chosen[0][3]
    return [(j, k, 1 if slope * ref_slope > 0 else -1)
            for _, j, k, slope in chosen]


def _pid_loop(drift: DriftModel, pid: PidConfig, gains, error_signal,
              duration: float, seed: int) -> tuple:
    """:func:`pid_lock` for G gain sets, the (kp, ki, kd) rows of ``gains``:
    the (G, n) phases, (G,) residual stds and diverged flags."""
    drift_trace = drift.trace(duration, np.random.default_rng(seed))
    dt, limit, n = pid.update_interval, pid.actuator_limit, len(drift_trace)
    kp, ki, kd = gains
    target = error_signal(pid.setpoint)
    v, integral = np.zeros((2, len(kp)))
    prev_e = None
    phi = np.empty((n, len(kp)))
    diverged = np.zeros(len(kp), dtype=bool)
    for i in range(n):
        phi[i] = pid.setpoint + drift_trace[i] + v
        e = error_signal(phi[i]) - target
        integral = integral + e * dt
        deriv = 0.0 if prev_e is None else (e - prev_e) / dt
        prev_e = e
        v = v - (kp * e + ki * integral + kd * deriv)
        diverged |= np.abs(v) > limit
        v = np.minimum(np.maximum(v, -limit), limit)
    phi = phi.T.copy()   # each residual is a std over one contiguous row
    residual = np.std(phi[:, int(n * SETTLE_FRACTION):] - pid.setpoint, axis=1)
    return phi, residual, diverged | (residual > math.pi)


def pid_lock(drift: DriftModel, pid: PidConfig, error_signal,
             duration: float, seed: int = 0) -> LockResult:
    """Closed-loop simulation from the setpoint at the PID update interval:
    the error is S(phi) - S(setpoint), and the actuator's phase correction
    is clamped to ``pid.actuator_limit`` (a clamp marks the lock diverged)."""
    phi, residual, diverged = _pid_loop(
        drift, pid, np.array([[pid.kp], [pid.ki], [pid.kd]], dtype=float),
        error_signal, duration, seed)
    return LockResult(np.arange(phi.shape[1]) * pid.update_interval, phi[0],
                      pid.setpoint, float(residual[0]), bool(diverged[0]))


def tune_pid_gains(drift: DriftModel, error_signal,
                   duration: float = TUNING_DURATION,
                   seed: int = 0) -> PidConfig:
    """Grid search over ``KP_GRID`` x ``KI_GRID`` (both loop signs) at
    ``LOCK_SETPOINT``, minimizing the locked residual std; the 16 cells
    run as one batch of the PID loop, and the first of equal scores wins."""
    # normalize gains by the error-signal slope at the setpoint
    setpoint, eps = LOCK_SETPOINT, 1e-4
    slope = (error_signal(setpoint + eps) - error_signal(setpoint - eps)) / (2 * eps)
    if slope == 0:
        raise ConfigurationError("error signal has zero slope at the setpoint")
    cells = [(kp, ki) for kp in KP_GRID for ki in KI_GRID]
    kp, ki = np.array(cells).T / slope
    _, residual, diverged = _pid_loop(
        drift, PidConfig(setpoint=setpoint), (kp, ki, np.zeros_like(kp)),
        error_signal, duration, seed)
    score = np.where(diverged, math.inf, residual)
    best = min(range(len(cells)), key=score.__getitem__)
    return PidConfig(kp=kp[best], ki=ki[best], setpoint=setpoint)


# ---------------------------------------------------------------------------
# transfer-matrix amplitude estimation

def transfer_from_singles(rates: np.ndarray, eta_tot: float) -> np.ndarray:
    """|T_ij|^2 = eta_tot * R_ij / sum_j R_ij, row by row."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or (rates < 0).any():
        raise ConfigurationError("rates must be a nonnegative m x d matrix")
    row_sums = rates.sum(axis=1)
    if (row_sums <= 0).any():
        raise ConfigurationError("every input row needs a positive total rate")
    return eta_tot * rates / row_sums[:, None]
