"""Synthetic-experiment generation: shot-noise sampling and the samples
CSV, three-setting measurement records, and phase drift + PID locking."""

from __future__ import annotations

import cmath
import math
import string
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, SchemaError
from .probability import (ModelSpec, PhaseFamily, StateKernel,
                          TwofoldFringe, all_patterns)
from .reconstruction import MeasurementRecord
from .serialize import _csv_rows, _read_csv
from .states import (SourceConfig, TransferMatrix, _require_finite,
                     build_input_state, propagate)

LOCK_SETPOINT = math.pi / 4     # default lock point of the coherent phase
# the finest phase step (rad) the lock must resolve; a setpoint whose float
# spacing is coarser cannot carry the drift (1e6 has spacing 1.2e-10)
PHASE_RESOLUTION = 1e-9
SETTLE_FRACTION = 0.2           # lock-trace head left out of the residual
KP_GRID = (0.3, 0.6, 0.9, 1.2)  # tuned gains, in units of 1 / error slope
KI_GRID = (0.0, 0.5, 2.0, 6.0)
# a drift trace holds one float per step; lab runs use a few hundred
MAX_DRIFT_STEPS = 10 ** 6
TUNING_DURATION = 30.0          # s of drift that tune_pid_gains locks over
# the fewest drift steps that tell gains apart (none acts before the third)
TUNING_STEPS = 3
# a draw holds its codes, 1 B a pulse up to d = 7 and 2 B up to d = 15,
# and one block of uniforms: a tracemalloc peak of 1.5 MB at 1e6 pulses of
# d = 6, so about 0.1 GB at this bound
MAX_PULSES = 10 ** 8
GUIDE_CELLS = 1 << 12   # cells of the draw's guide table over [0, 1)
DRAW_BLOCK = 1 << 14    # uniforms drawn per rng.random call
SAMPLES_CSV_HEADER = "pulse,bitmask_hex,phi"


# ---------------------------------------------------------------------------
# pattern sampling

class ClickTable:
    """Per-pulse detection outcomes as codes: pulse i saw the bitmask
    ``outcomes[outcome_codes[i]]`` (-1 a discard), every pulse at the one
    coherent phase ``phi``."""

    def __init__(self, outcomes: np.ndarray, outcome_codes: np.ndarray,
                 phi: float, d: int):
        self.outcomes, self.outcome_codes = outcomes, outcome_codes
        self.phi = float(phi)
        self.d = d

    def __len__(self):
        return len(self.outcome_codes)

    @property
    def bitmasks(self) -> np.ndarray:
        return self.outcomes[self.outcome_codes]

    def patterns(self) -> np.ndarray:
        """(P, d) counts of the pulses, discards skipped."""
        masks = self.bitmasks
        masks = masks[masks >= 0]
        return (masks[:, None] >> np.arange(self.d)) & 1

    def to_csv(self):
        """pulse, bitmask_hex, phi: the bytes in blocks, header first; each
        outcome formatted once."""
        hexes = [format(m, "x") if m >= 0 else "discard"
                 for m in self.outcomes.tolist()]
        yield f"{SAMPLES_CSV_HEADER}\n".encode()
        yield from _csv_rows(len(self), [
            range(len(self)), ",", (hexes, self.outcome_codes),
            f",{self.phi:.17g}\n"])


def samples_from_csv(text: str, d: int, min_photons: int) -> tuple:
    """The samples of a :meth:`ClickTable.to_csv` text with at least
    ``min_photons`` clicks, discards left out, as codes: the (K, d) counts
    of the K distinct patterns, and for each kept sample in file order its
    row among them.  Only the mask column is read, each distinct mask
    once, and the (S, d) counts are never built."""
    def parse(header, columns, widths):   # None if a mask is missing or bad
        if header[:2] != SAMPLES_CSV_HEADER.split(",")[:2]:
            raise SchemaError(f"samples CSV must have header "
                              f"{SAMPLES_CSV_HEADER}")
        (texts, which), = columns   # a missing mask is "", no bitmask
        masks = [_mask(text, d) for text in texts]
        return None if None in masks else (np.array(masks, np.int64), which)

    def fault(row):
        if _mask("".join(row[1:2]), d) is None:
            return f"{row[1:2]} is not a bitmask over {d} modes"

    masks, which = _read_csv(text, (1,), parse, fault, "samples line")
    # two texts of one mask ("0f", "F") are one outcome
    outcomes, which_outcome = np.unique(masks, return_inverse=True)
    # the bits of each outcome, one byte per count
    bits = (outcomes[:, None] >> np.arange(d) & 1).astype(np.int8)
    keep = (outcomes >= 0) & (bits.sum(axis=1) >= min_photons)
    # each sample's row among the kept outcomes, -1 if it is left out
    rows = np.where(keep, np.cumsum(keep) - 1, -1)[which_outcome][which]
    return bits[keep], rows[rows >= 0]


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
    return ClickTable(masks, _draw(np.random.default_rng(seed), probs, pulses),
                      phi, kernel.d)


def _draw(rng, probs: np.ndarray, pulses: int) -> np.ndarray:
    """``rng.choice(len(probs), pulses, p=probs)``, the same draws from the
    same uniforms, as codes of ``np.min_scalar_type(len(probs))``.  Each
    uniform u picks ``cdf.searchsorted(u, side="right")``; a guide table
    over ``GUIDE_CELLS`` equal cells of [0, 1) gives it directly for a u in
    a cell that holds no cdf value (Chen and Asau, 1974), and only the
    other uniforms are searched.  The uniforms come ``DRAW_BLOCK`` at a
    time, the draws of one ``rng.random`` call split into blocks."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
    # the outcome at a cell's start holds across a cell with no cdf value
    # inside; len(probs) marks a cell whose uniforms are searched
    start = cdf.searchsorted(edges[:-1], side="right")
    inside = cdf.searchsorted(edges[1:], side="left") - start
    dtype = np.min_scalar_type(len(probs))
    guide = np.where(inside == 0, start, len(probs)).astype(dtype)
    codes = np.empty(pulses, dtype)
    for lo in range(0, pulses, DRAW_BLOCK):
        uniforms = rng.random(min(DRAW_BLOCK, pulses - lo))
        block = guide.take((uniforms * GUIDE_CELLS).astype(np.intp))
        searched = np.flatnonzero(block == len(probs))
        block[searched] = cdf.searchsorted(uniforms[searched], side="right")
        codes[lo:lo + len(block)] = block
    return codes


def _sampler_patterns(d: int, n_max: int) -> tuple:
    """The collision-free patterns with N <= n_max, the sampler's outcomes,
    as (P, d) counts, and their bitmasks followed by -1 for the discard
    bucket.  No collision-free pattern has N > d."""
    patterns = np.concatenate([all_patterns(d, total, collision_free=True)
                               for total in range(min(n_max, d) + 1)])
    return patterns, np.append(patterns @ (1 << np.arange(d)), -1)


def _with_discard(probs):
    """The patterns' probabilities, then the discard bucket's, normalised."""
    probs = np.clip(np.append(probs, max(0.0, 1.0 - probs.sum())), 0, None)
    return probs / probs.sum()


# ---------------------------------------------------------------------------
# three-setting measurement records

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
    scanned settings); ``math.inf`` yields exact noiseless rates.  The
    settings are one :class:`PhaseFamily` of one Sigma_Q factorisation: the
    blocked member (no coherent beam, at the source's phi), then the phi
    grid with the beam at the source's coherent port and, with
    ``second_input_port``, the grid again at that port.  Its singles and
    twofolds are :meth:`PhaseFamily.low_order_rates`.
    """
    if phi_grid is None:   # five 2-pi windows
        phi_grid = np.linspace(0, 10 * math.pi, 100, endpoint=False)
    phi_grid = np.asarray(phi_grid, dtype=float)
    rng = np.random.default_rng(seed)
    noisy = np.isfinite(pulses_per_setting)
    d = t.d
    # every setting records the singles, then the twofold of each pair (j, k)
    pairs = [(j, k) for j in range(d)
             for k in range(j if include_collisions else j + 1, d)]
    settings = [("input1", config.coherent_port)]
    if second_input_port is not None:
        settings.append(("input2", second_input_port))
    n = len(phi_grid)
    family = PhaseFamily.scan(
        config, t, [config.phi, *np.tile(phi_grid, len(settings))],
        ports=[config.coherent_port, *(port for _, port in settings
                                       for _ in range(n))],
        amplitudes=[0.0, *[config.alpha_mag] * (n * len(settings))])
    # (1 + d + len(pairs), 1 + n * len(settings)): one column per member
    rates = family.low_order_rates(pairs).T

    blocked = rates[:, :1]
    if noisy:
        # the vacuum rate is drawn after the other observables
        blocked[1:] = _binomial_rates(rng, blocked[1:], pulses_per_setting)
        blocked[0] = _binomial_rates(rng, blocked[0], pulses_per_setting)
    records = {"blocked": MeasurementRecord(
        "blocked", d, pulses_per_setting, blocked, pairs)}
    pulses_per_bin = pulses_per_setting / n if noisy else math.inf
    for i, (name, _) in enumerate(settings):
        table = rates[:, 1 + i * n:1 + (i + 1) * n]
        if noisy:
            table = _binomial_rates(rng, table, pulses_per_bin)
        records[name] = MeasurementRecord(
            name, d, pulses_per_bin, table, pairs, phi=phi_grid)
    return records


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

    def steps(self, duration: float, run: str = None, least: int = 1) -> int:
        """The number of drift steps in ``duration`` s.  ConfigurationError
        unless it covers at least one step_interval, ``least`` steps and at
        most MAX_DRIFT_STEPS of them, so a nan or inf fails; ``run`` names
        the duration in the message ("duration {duration}" if None)."""
        run = f"duration {duration}" if run is None else run
        steps = duration / self.step_interval
        if steps > MAX_DRIFT_STEPS:
            raise ConfigurationError(
                f"{run} is more than {MAX_DRIFT_STEPS} drift steps of "
                f"{self.step_interval} s")
        if not steps >= 1:
            raise ConfigurationError(
                f"{run} covers no drift step of {self.step_interval} s")
        if round(steps) < least:
            raise ConfigurationError(f"{run} covers fewer than {least} drift "
                                     f"steps of {self.step_interval} s")
        return int(round(steps))

    def trace(self, duration: float, rng) -> np.ndarray:
        n = self.steps(duration)
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
    actuator_limit: float = 4 * math.pi

    def __post_init__(self):
        _require_finite(self)
        if self.actuator_limit <= 0:
            raise ConfigurationError("actuator limit must be positive")


@dataclass(eq=False)
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
    array of them: the signed sum of the pairs' fringes, summed once in pair
    order, is one :class:`TwofoldFringe`, O + 2 Re(W e^{2 i phi})."""
    if not pairs:
        raise ConfigurationError("error signal needs at least one mode pair")
    # Python numbers: a call on one phase then pays no numpy overhead
    offset, weight = 0.0, 0j
    for j, k, sign in pairs:
        fringe = TwofoldFringe.of(kernel, j, k)
        offset += sign * float(fringe.offset)
        weight += sign * complex(fringe.weight)
    total = TwofoldFringe(math.nan, offset, weight)   # no p_jk is read

    def signal(phi):
        if isinstance(phi, float):   # one phase
            try:
                return total.rate_at(cmath.exp(2j * phi))
            except ValueError:   # 2 phi is beyond floating-point range
                raise NumericalError(f"the lock phase {phi} is beyond the "
                                     f"range of the error signal") from None
        return total.rate_at(np.exp(2j * np.asarray(phi)))[()]

    return signal


def auto_select_pairs(kernel: StateKernel, n_pairs: int = 5):
    """Pick the highest-visibility twofold fringes of the phase-0 kernel
    (:func:`lock_kernel`), signed so that all slopes at ``LOCK_SETPOINT``
    add constructively (anti-correlated fringes are weighted by -1)."""
    b, g = kernel.a.b, kernel.gamma
    candidates = []
    for j in range(kernel.d):
        for k in range(j + 1, kernel.d):
            fringe = TwofoldFringe.of(kernel, j, k)
            amp = 2 * abs(b[j, k] * g[j] * g[k])
            if amp == 0:
                continue
            phase = float(np.angle(fringe.weight))
            slope = -2 * amp * math.sin(2 * LOCK_SETPOINT + phase)
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
    """:func:`pid_lock` for the gain sets (kp, ki, kd) = ``gains``: three
    floats for one set, or three (G,) arrays for G sets; the (G, n) phases,
    (G,) residual stds and diverged flags.  One set runs on Python floats,
    where numpy's per-call overhead would cost more than the arithmetic;
    a batch runs each step as a few array operations."""
    drift_trace = drift.trace(duration, np.random.default_rng(seed))
    dt, limit, n = drift.step_interval, pid.actuator_limit, len(drift_trace)
    kp, ki, kd = gains
    if np.ndim(kp):
        def clamp(v):
            return np.minimum(np.maximum(v, -limit), limit)
    else:
        def clamp(v):   # NaN stays NaN, as in np.minimum and np.maximum
            return max(min(v, limit), -limit)
    target = error_signal(pid.setpoint)
    if math.ulp(pid.setpoint) > PHASE_RESOLUTION:
        raise NumericalError(
            f"the lock setpoint {pid.setpoint} is too large to resolve the "
            f"drift: its float spacing {math.ulp(pid.setpoint):.3g} rad is "
            f"coarser than the phase resolution {PHASE_RESOLUTION} rad")
    v = integral = 0.0   # becomes a (G,) array after the first step of a batch
    prev_e = None
    phi = np.empty((n, np.size(kp)))
    diverged = False
    for i, drift_i in enumerate(drift_trace.tolist()):
        phi_i = pid.setpoint + drift_i + v
        phi[i] = phi_i
        e = error_signal(phi_i) - target
        integral = integral + e * dt
        deriv = 0.0 if prev_e is None else (e - prev_e) / dt
        prev_e = e
        v = v - (kp * e + ki * integral + kd * deriv)
        diverged = diverged | (abs(v) > limit)
        v = clamp(v)
    phi = phi.T.copy()   # each residual is a std over one contiguous row
    residual = np.std(phi[:, int(n * SETTLE_FRACTION):] - pid.setpoint, axis=1)
    return phi, residual, diverged | (residual > math.pi)


def pid_lock(drift: DriftModel, pid: PidConfig, error_signal,
             duration: float, seed: int = 0) -> LockResult:
    """Closed-loop simulation from the setpoint, one PID update per drift
    step: the error is S(phi) - S(setpoint), and the actuator's phase
    correction is clamped to ``pid.actuator_limit`` (a clamp marks the lock
    diverged)."""
    phi, residual, diverged = _pid_loop(
        drift, pid, (float(pid.kp), float(pid.ki), float(pid.kd)),
        error_signal, duration, seed)
    times = np.arange(phi.shape[1]) * drift.step_interval
    if not (math.isfinite(times[-1]) and math.isfinite(residual[0])
            and np.isfinite(phi[0]).all()):
        raise NumericalError("the lock trace goes beyond floating-point "
                             "range: check the drift and pid settings")
    return LockResult(times, phi[0], pid.setpoint, float(residual[0]),
                      bool(diverged[0]))


def tune_pid_gains(drift: DriftModel, error_signal,
                   duration: float = TUNING_DURATION,
                   seed: int = 0) -> PidConfig:
    """Grid search over ``KP_GRID`` x ``KI_GRID`` (both loop signs) at
    ``LOCK_SETPOINT``, minimizing the locked residual std; the 16 cells
    run as one batch of the PID loop, and the first of equal scores wins.
    ConfigurationError unless ``duration`` covers ``TUNING_STEPS`` steps."""
    drift.steps(duration, f"the {duration} s gain tuning run", TUNING_STEPS)
    # normalize gains by the error-signal slope at the setpoint: for a
    # fringe in 2 phi, S(phi + pi/4) - S(phi - pi/4) = -4 Im(W e^{2 i phi})
    # is dS/dphi exactly
    setpoint = LOCK_SETPOINT
    slope = (error_signal(setpoint + math.pi / 4)
             - error_signal(setpoint - math.pi / 4))
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
