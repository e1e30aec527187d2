"""Synthetic-experiment generation: shot-noise sampling, three-setting
measurement records, phase drift + PID locking, and transfer-matrix
amplitude estimation from singles rates."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .probability import (ModelSpec, PhaseFamily, StateKernel,
                          TwofoldFringe, all_patterns, as_kernel)
from .reconstruction import MeasurementRecord
from .serialize import _csv_rows, _unique_ints
from .states import (SourceConfig, TransferMatrix, build_input_state,
                     propagate)

PHI_BINS = 64                   # locked phases are quantized per 2 pi
LOCK_SETPOINT = math.pi / 4     # default lock point of the coherent phase
SETTLE_FRACTION = 0.2           # lock-trace head left out of the residual
KP_GRID = (0.3, 0.6, 0.9, 1.2)  # tuned gains, in units of 1 / error slope
KI_GRID = (0.0, 0.5, 2.0, 6.0)


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
        return "pulse,bitmask_hex,phi\n" + _csv_rows(len(self), [
            np.arange(len(self)), ",", (hexes, which), ",", (phis, where),
            "\n"])


def sample_patterns(state_or_kernel, model: ModelSpec, pulses: int,
                    n_max: int, seed: int, phi: float = 0.0) -> ClickTable:
    """Draw i.i.d. collision-free patterns with N <= n_max from the exact
    distribution; residual probability mass goes to a discard bucket."""
    kernel = as_kernel(state_or_kernel)
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
        if self.sigma < 0 or self.step_interval <= 0:
            raise ConfigurationError("need sigma >= 0 and step_interval > 0")

    def trace(self, duration: float, rng) -> np.ndarray:
        steps = duration / self.step_interval
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
        if self.update_interval <= 0:
            raise ConfigurationError("update interval must be positive")


@dataclass
class LockResult:
    times: np.ndarray
    phi: np.ndarray
    setpoint: float
    residual_std: float
    diverged: bool


def build_error_signal(twofold_rates, pairs):
    """S(phi) = sum over (j, k, sign) of sign * p'_{j,k}(phi).

    ``twofold_rates`` maps phi to a dict {(j, k): rate}.
    """
    if not pairs:
        raise ConfigurationError("error signal needs at least one mode pair")

    def signal(phi: float) -> float:
        rates = twofold_rates(phi)
        total = 0.0
        for j, k, sign in pairs:
            total += sign * rates[(j, k)]
        return total

    return signal


def lock_kernel(config: SourceConfig, t: TransferMatrix) -> StateKernel:
    """The circuit's kernel at coherent phase 0, the origin of the phase
    that the lock measures and actuates."""
    return StateKernel.from_state(propagate(
        build_input_state(replace(config, phi=0.0), t.d), t))


def twofold_rates_from_state(kernel: StateKernel):
    """phi -> {(j, k): p'_{j,k}} evaluated exactly from the phase-0 kernel
    (:func:`lock_kernel`); each pair's phi-independent constants are
    computed once."""
    fringes = {(j, k): TwofoldFringe.of(kernel, j, k)
               for j in range(kernel.d) for k in range(j + 1, kernel.d)}

    def rates(phi: float) -> dict:
        rotation = np.exp(2j * phi)
        return {pair: f.rate_at(rotation) for pair, f in fringes.items()}

    return rates


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


def pid_lock(drift: DriftModel, pid: PidConfig, error_signal,
             duration: float, seed: int = 0) -> LockResult:
    """Closed-loop simulation from the setpoint at the PID update interval.

    The measured error is S(phi) - S(setpoint); the actuator adds a phase
    correction updated every ``pid.update_interval`` seconds.
    """
    rng = np.random.default_rng(seed)
    dt = pid.update_interval
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
    return LockResult(times, phi, pid.setpoint, residual, diverged)


def tune_pid_gains(drift: DriftModel, error_signal, duration: float = 30.0,
                   seed: int = 0) -> PidConfig:
    """Grid search over ``KP_GRID`` x ``KI_GRID`` (both loop signs) at
    ``LOCK_SETPOINT``, minimizing the locked residual std."""
    # normalize gains by the error-signal slope at the setpoint
    setpoint, eps = LOCK_SETPOINT, 1e-4
    slope = (error_signal(setpoint + eps) - error_signal(setpoint - eps)) / (2 * eps)
    if slope == 0:
        raise ConfigurationError("error signal has zero slope at the setpoint")
    best = None
    for kp in KP_GRID:
        for ki in KI_GRID:
            cfg = PidConfig(kp=kp / slope, ki=ki / slope, setpoint=setpoint)
            res = pid_lock(drift, cfg, error_signal, duration, seed=seed)
            score = math.inf if res.diverged else res.residual_std
            if best is None or score < best[0]:
                best = (score, cfg)
    return best[1]


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
