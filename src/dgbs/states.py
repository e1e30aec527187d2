"""Multimode Gaussian states in the doubled annihilation/creation ordering.

A d-mode Gaussian state is stored as a 2d x 2d covariance matrix ``sigma``
and a length-2d displacement vector ``delta``, with indices 0..d-1 referring
to annihilation operators and d..2d-1 to creation operators.  The covariance
has the block form ``[[G, M], [conj(M), conj(G)]]`` with G Hermitian
(vacuum: G = I/2) and M symmetric.  The displacement satisfies
``delta[j + d] = conj(delta[j])``.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from numpy.linalg import cholesky

from .errors import ConfigurationError, NumericalError, PhysicalityError

BLOCK_TOL = 1e-10
COND_LIMIT = 1e12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def block_swap(d: int) -> np.ndarray:
    """The 2d x 2d matrix X = [[0, I], [I, 0]] swapping the two d-blocks."""
    x = np.zeros((2 * d, 2 * d))
    x[:d, d:] = np.eye(d)
    x[d:, :d] = np.eye(d)
    return x


@dataclass(frozen=True)
class GaussianState:
    """Covariance ``sigma`` and displacement ``delta`` of a d-mode state."""

    d: int
    sigma: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        d = self.d
        sigma = np.asarray(self.sigma, dtype=complex)
        delta = np.asarray(self.delta, dtype=complex)
        if d < 1:
            raise ConfigurationError("mode count must be positive")
        if sigma.shape != (2 * d, 2 * d) or delta.shape != (2 * d,):
            raise ConfigurationError(
                f"expected sigma (2d,2d) and delta (2d,) for d={d}, "
                f"got {sigma.shape} and {delta.shape}")
        if not (np.isfinite(sigma).all() and np.isfinite(delta).all()):
            raise NumericalError("covariance or displacement is not finite")
        g, m = sigma[:d, :d], sigma[:d, d:]
        if (np.abs(g - g.conj().T).max() > BLOCK_TOL
                or np.abs(m - m.T).max() > BLOCK_TOL
                or np.abs(sigma[d:, :d] - m.conj()).max() > BLOCK_TOL
                or np.abs(sigma[d:, d:] - g.conj()).max() > BLOCK_TOL):
            raise PhysicalityError("covariance lacks [[G,M],[M*,G*]] structure")
        if np.abs(delta[d:] - delta[:d].conj()).max() > BLOCK_TOL:
            raise PhysicalityError("displacement is not conjugate-paired")
        eigs = np.linalg.eigvalsh(sigma + np.eye(2 * d) / 2)
        if eigs.min() <= 0:
            raise PhysicalityError(
                f"Sigma_Q not positive definite (min eigenvalue {eigs.min():.3e})")
        # Sigma_Q is Hermitian positive definite: its 2-norm condition
        # number is the ratio of its extreme eigenvalues
        object.__setattr__(self, "_q_cond", eigs[-1] / eigs[0])
        object.__setattr__(self, "sigma", _frozen(sigma))
        object.__setattr__(self, "delta", _frozen(delta))

    @property
    def gamma_block(self) -> np.ndarray:
        """Hermitian block G (annihilation-annihilation correlations)."""
        return self.sigma[:self.d, :self.d]

    @property
    def m_block(self) -> np.ndarray:
        """Symmetric block M (annihilation-annihilation pairing)."""
        return self.sigma[:self.d, self.d:]

    @property
    def mean_photons(self) -> np.ndarray:
        """Per-mode mean photon number <a_j^dag a_j>."""
        occ = np.diag(self.gamma_block).real - 0.5
        return occ + np.abs(self.delta[:self.d]) ** 2

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.round(self.sigma, 12).tobytes())
        h.update(np.round(self.delta, 12).tobytes())
        return h.hexdigest()[:16]

    @cached_property
    def sigma_q_solve(self) -> tuple:
        """(Sigma_Q, Sigma_Q^-1): one condition check and one Cholesky
        factorisation per state, shared by the kernel builders."""
        if self._q_cond > COND_LIMIT:
            raise NumericalError(f"Sigma_Q condition number {self._q_cond:.3e} "
                                 f"exceeds {COND_LIMIT:.1e}")
        sq = q_covariance(self)
        low = cholesky((sq + sq.conj().T) / 2)
        # Sigma_Q^-1 = L^-H (L^-1 I), the order in which LAPACK potrs solves
        inv = np.linalg.solve(low.conj().T,
                              np.linalg.solve(low, np.eye(2 * self.d)))
        return _frozen(sq), _frozen(inv)

    @cached_property
    def sigma_q_logdet(self) -> float:
        """log det Sigma_Q, shared by every displacement of this covariance."""
        sign, logdet = np.linalg.slogdet(self.sigma_q_solve[0])
        if sign.real <= 0:
            raise NumericalError("det Sigma_Q not positive")
        return logdet


def vacuum_state(d: int) -> GaussianState:
    return GaussianState(d, np.eye(2 * d, dtype=complex) / 2,
                         np.zeros(2 * d, dtype=complex))


@dataclass(frozen=True)
class TransferMatrix:
    """Sub-unitary m x d map of input-port to output-port amplitudes.

    ``t[i, j]`` is the amplitude for light entering port ``input_ports[i]``
    to exit output port j.  All loss is folded into the sub-unitarity of t.
    """

    m: int
    d: int
    t: np.ndarray
    input_ports: tuple = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        if t.shape != (self.m, self.d):
            raise ConfigurationError(f"transfer matrix shape {t.shape} != ({self.m},{self.d})")
        ports = self.input_ports
        if ports is None:
            ports = tuple(range(self.m))
        ports = tuple(int(p) for p in ports)
        if len(ports) != self.m or len(set(ports)) != self.m:
            raise ConfigurationError("input ports must be m distinct indices")
        if any(p < 0 or p >= self.d for p in ports):
            raise ConfigurationError("input port index out of range")
        smax = np.linalg.svd(t, compute_uv=False).max() if t.size else 0.0
        if smax > 1 + 1e-12:
            raise PhysicalityError(f"transfer matrix is not sub-unitary (s_max={smax:.6g})")
        object.__setattr__(self, "t", _frozen(t))
        object.__setattr__(self, "input_ports", ports)

    @classmethod
    def square(cls, t: np.ndarray) -> "TransferMatrix":
        t = np.asarray(t, dtype=complex)
        return cls(t.shape[0], t.shape[1], t)

    def embedded(self) -> np.ndarray:
        """d x d matrix with row input_ports[i] taken from t, others zero."""
        e = np.zeros((self.d, self.d), dtype=complex)
        for i, p in enumerate(self.input_ports):
            e[p, :] = self.t[i, :]
        return e

    def mode_map(self) -> np.ndarray:
        """d x d matrix S with a_out = S a_in (i.e. delta' = S delta)."""
        return self.embedded().T


def _require_finite(obj):
    """Every float field of the dataclass ``obj`` must be a finite number."""
    for f in fields(obj):
        x = getattr(obj, f.name)
        if f.type == "float" and (isinstance(x, bool) or not isinstance(
                x, (int, float)) or not abs(x) <= sys.float_info.max):
            raise ConfigurationError(f"{f.name} must be a finite number, got {x!r}")


@dataclass(frozen=True)
class SourceConfig:
    """Two-mode squeezer plus single coherent beam feeding the circuit."""

    r: float = 0.0
    alpha_mag: float = 0.0
    phi: float = 0.0
    squeezer_ports: tuple = (0, 1)
    coherent_port: int = 2
    eta_c: float = 1.0
    eta_g: float = 1.0
    eta_p: float = 1.0
    eta_d: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        for name in ("eta_c", "eta_g", "eta_p", "eta_d"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigurationError(f"{name}={v} outside [0,1]")
        if self.r < 0 or self.alpha_mag < 0:
            raise ConfigurationError("r and alpha_mag must be nonnegative")
        ports = (*self.squeezer_ports, self.coherent_port)
        if len(set(ports)) != 3:
            raise ConfigurationError(f"input ports overlap: {ports}")

    @property
    def eta_tot(self) -> float:
        return self.eta_c * self.eta_g ** 2 * self.eta_p * self.eta_d

    @property
    def n_alpha(self) -> float:
        """Coherent intensity |alpha|^2 before losses."""
        return self.alpha_mag ** 2

    @property
    def n_pdc(self) -> float:
        """Mean detected squeezer photons per pulse and per mode."""
        return self.eta_tot * np.sinh(self.r) ** 2

    @classmethod
    def from_detected_means(cls, n_pdc: float, n_alpha: float,
                            eta_tot: float = None, **kw) -> "SourceConfig":
        """Build a config from detected mean photon numbers.

        ``r = arcsinh(sqrt(n_pdc / eta_tot))`` with ``n_pdc`` the mean per
        squeezer mode.
        """
        if eta_tot is None:
            probe = cls(**kw)
            eta_tot = probe.eta_tot
        if eta_tot <= 0:
            raise ConfigurationError("eta_tot must be positive")
        r = float(np.arcsinh(np.sqrt(n_pdc / eta_tot)))
        return cls(r=r, alpha_mag=float(np.sqrt(n_alpha)), **kw)


def build_input_state(config: SourceConfig, total_modes: int) -> GaussianState:
    """Pre-interferometer state: TMSV on the squeezer ports, coherent
    displacement on the coherent port, vacuum elsewhere.

    The config's efficiency product eta_tot is applied as uniform loss on
    every mode; uniform loss commutes with a unitary circuit, so this covers
    source and detection loss alike.  Mode-dependent circuit loss belongs in
    a sub-unitary transfer matrix instead.
    """
    return _assemble(config, total_modes, *_quantum_input(config, total_modes))


def _quantum_input(config: SourceConfig, d: int) -> tuple:
    """(sigma, coherent amplitude, maps) of :func:`build_input_state`."""
    ports = (*config.squeezer_ports, config.coherent_port)
    if max(ports) >= d:
        raise ConfigurationError(f"input port {max(ports)} >= total modes {d}")
    sigma = np.eye(2 * d, dtype=complex) / 2
    p, q = config.squeezer_ports
    sh, ch = np.sinh(config.r), np.cosh(config.r)
    sigma[p, p] += sh ** 2
    sigma[q, q] += sh ** 2
    sigma[p + d, p + d] += sh ** 2
    sigma[q + d, q + d] += sh ** 2
    sigma[p, q + d] = sigma[q, p + d] = sh * ch
    sigma[p + d, q] = sigma[q + d, p] = sh * ch
    maps = []
    if config.eta_tot < 1:
        maps.append(TransferMatrix.square(np.sqrt(config.eta_tot) * np.eye(d)))
    return sigma, config.alpha_mag, maps


def _coherent_delta(d: int, port: int, amplitude, phi) -> np.ndarray:
    delta = np.zeros(2 * d, dtype=complex)
    alpha = amplitude * np.exp(1j * phi)
    delta[port] = alpha
    delta[port + d] = np.conj(alpha)
    return delta


def _assemble(config: SourceConfig, d: int, sigma, amplitude,
              maps) -> GaussianState:
    """The state with covariance sigma and the coherent beam of amplitude
    ``amplitude`` at the config's port and phase, pushed through ``maps``."""
    state = GaussianState(d, sigma, _coherent_delta(
        d, config.coherent_port, amplitude, config.phi))
    for t in maps:
        state = propagate(state, t)
    return state


def phase_scan(config: SourceConfig, t: TransferMatrix, phis,
               classical: bool = False) -> tuple:
    """(state, gammas, log_p_vacs) of the source through ``t`` over a scan
    of the coherent phase over ``phis``.

    A phase scan only rotates the displacement, so one state (at the
    config's phase) is built and validated, and its Sigma_Q solve serves
    every phase.  Row f of the (F, 2d) ``gammas`` and of ``log_p_vacs`` is
    gamma and log p_vac at ``phis[f]``, computed with the matvecs of
    ``propagate(build_input_state(replace(config, phi=phis[f]), d), t)``
    (:func:`build_classical_input` if ``classical``), so the bits agree.
    """
    d = t.d
    sigma, amplitude, maps = \
        (_classical_input if classical else _quantum_input)(config, d)
    maps = [*maps, t]
    state = _assemble(config, d, sigma, amplitude, maps)
    _, inv = state.sigma_q_solve
    doubled = [_doubled_map(m) for m in maps]
    gammas = np.empty((len(phis), 2 * d), dtype=complex)
    log_p_vacs = np.empty(len(phis))
    for f, phi in enumerate(phis):
        delta = _coherent_delta(d, config.coherent_port, amplitude, phi)
        for s in doubled:
            delta = s @ delta
        if np.abs(delta[d:] - delta[:d].conj()).max() > BLOCK_TOL:
            raise PhysicalityError("displacement is not conjugate-paired")
        gamma = delta.conj() @ inv
        gammas[f] = gamma
        log_p_vacs[f] = _log_vacuum(state, gamma, delta)
    return state, gammas, log_p_vacs


def _doubled_map(t: TransferMatrix) -> np.ndarray:
    """S = T_map (+) conj(T_map), acting on doubled-ordering vectors."""
    s = t.mode_map()
    d = t.d
    s_full = np.zeros((2 * d, 2 * d), dtype=complex)
    s_full[:d, :d] = s
    s_full[d:, d:] = s.conj()
    return s_full


def propagate(state: GaussianState, t: TransferMatrix) -> GaussianState:
    """Push a state through a lossy circuit: Sigma' = S Sigma S^dag +
    (I - S S^dag)/2 and delta' = S delta, with S = T_map (+) conj(T_map)."""
    if state.d != t.d:
        raise ConfigurationError(f"state has {state.d} modes, circuit expects {t.d}")
    d = t.d
    s_full = _doubled_map(t)
    sigma = s_full @ state.sigma @ s_full.conj().T
    sigma += (np.eye(2 * d) - s_full @ s_full.conj().T) / 2
    delta = s_full @ state.delta
    return GaussianState(d, sigma, delta)


def q_covariance(state: GaussianState) -> np.ndarray:
    """Covariance of the state's Q-function, Sigma_Q = Sigma + I/2."""
    return state.sigma + np.eye(2 * state.d) / 2


@dataclass(frozen=True)
class AMatrix:
    """Kernel matrix A = X (I - Sigma_Q^-1), stored via its B and C blocks."""

    d: int
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=complex)
        c = np.asarray(self.c, dtype=complex)
        if b.shape != (self.d, self.d) or c.shape != (self.d, self.d):
            raise ConfigurationError("B and C must both be d x d")
        if np.abs(b - b.T).max() > BLOCK_TOL:
            raise PhysicalityError("B block is not symmetric")
        if np.abs(c - c.conj().T).max() > BLOCK_TOL:
            raise PhysicalityError("C block is not Hermitian")
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "c", _frozen(c))

    @cached_property
    def full(self) -> np.ndarray:
        """The 2d x 2d matrix [[B, C], [C^T, conj(B)]], built once."""
        return _frozen(np.block([[self.b, self.c], [self.c.T, self.b.conj()]]))


def a_matrix(state: GaussianState) -> AMatrix:
    _, inv = state.sigma_q_solve
    a = block_swap(state.d) @ (np.eye(2 * state.d) - inv)
    d = state.d
    b = (a[:d, :d] + a[d:, d:].conj()) / 2
    b = (b + b.T) / 2
    c = (a[:d, d:] + a[d:, :d].T) / 2
    c = (c + c.conj().T) / 2
    return AMatrix(d, b, c)


@dataclass(frozen=True)
class GammaVector:
    """Loop weights gamma = delta^dag Sigma_Q^-1 (length 2d row vector)."""

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma",
                           _frozen(np.asarray(self.gamma, dtype=complex)))

    @property
    def d(self) -> int:
        return self.gamma.shape[0] // 2

    @classmethod
    def from_halves(cls, first: np.ndarray) -> "GammaVector":
        first = np.asarray(first, dtype=complex)
        return cls(np.concatenate([first, first.conj()]))


def gamma_vector(state: GaussianState) -> GammaVector:
    _, inv = state.sigma_q_solve
    return GammaVector(state.delta.conj() @ inv)


def vacuum_probability(state: GaussianState) -> float:
    """p_vac = exp(-delta^dag Sigma_Q^-1 delta / 2) / sqrt(det Sigma_Q)."""
    return float(np.exp(log_vacuum_probability(state)))


def log_vacuum_probability(state: GaussianState) -> float:
    _, inv = state.sigma_q_solve
    return _log_vacuum(state, state.delta.conj() @ inv, state.delta)


def _log_vacuum(state: GaussianState, gamma, delta) -> float:
    """log p_vac = -delta^dag Sigma_Q^-1 delta / 2 - log det Sigma_Q / 2,
    from gamma = delta^dag Sigma_Q^-1 and the state's Sigma_Q."""
    quad = (gamma @ delta).real
    return -quad / 2 - state.sigma_q_logdet / 2


def state_from_a(a: AMatrix, gamma: GammaVector) -> GaussianState:
    """Materialize the state with kernel (A, gamma): Sigma_Q = (I - X A)^-1."""
    d = a.d
    ixa = np.eye(2 * d) - block_swap(d) @ a.full
    try:
        sq = np.linalg.inv(ixa)
    except np.linalg.LinAlgError as exc:
        raise PhysicalityError("I - X A is singular") from exc
    sq = (sq + sq.conj().T) / 2
    eigs = np.linalg.eigvalsh(sq)
    if eigs.min() <= 0:
        raise PhysicalityError(
            f"kernel does not describe a physical state (min Sigma_Q eig {eigs.min():.3e})")
    delta = (gamma.gamma @ sq).conj()
    return GaussianState(d, sq - np.eye(2 * d) / 2, delta)


@dataclass(frozen=True)
class ClassicalStateParams:
    """Squeezed-thermal parameters of the closest classical approximant."""

    a_plus: float
    a_minus: float
    s_c: float
    n_th: float
    s: float

    def quad_variances(self) -> tuple:
        """(V+, V-) of the classical state in vacuum-is-1 units; V- == 1."""
        return ((2 * self.n_th + 1) * np.exp(2 * self.s),
                (2 * self.n_th + 1) * np.exp(-2 * self.s))


def closest_classical_state(r: float, eta: float) -> ClassicalStateParams:
    """Closest classical squeezed thermal state to a lossy squeezed vacuum.

    a_pm = eta e^{+-2r} + (1 - eta); s_c = ln sqrt(a+ a-);
    n = -1/2 + sqrt(1 + 2 sinh(2 s_c) sqrt(a+/a-)) / 2; s = ln(2n+1)/2.
    """
    if r < 0 or not 0 <= eta <= 1:
        raise ConfigurationError("need r >= 0 and eta in [0,1]")
    a_plus = eta * np.exp(2 * r) + (1 - eta)
    a_minus = eta * np.exp(-2 * r) + (1 - eta)
    s_c = np.log(np.sqrt(a_plus * a_minus))
    n_th = -0.5 + 0.5 * np.sqrt(1 + 2 * np.sinh(2 * s_c) * np.sqrt(a_plus / a_minus))
    s = 0.5 * np.log(2 * n_th + 1)
    return ClassicalStateParams(float(a_plus), float(a_minus), float(s_c),
                                float(n_th), float(s))


def build_classical_input(config: SourceConfig, total_modes: int) -> GaussianState:
    """Classical surrogate input: two closest-classical squeezed thermal
    states (opposite squeezing phases) combined on a balanced beam splitter
    at the squeezer ports, plus the coherent beam.

    eta_tot is already folded into the squeezed-thermal parameters, so the
    coherent amplitude is attenuated by sqrt(eta_tot) to match; feed the
    result through a lossless circuit.
    """
    return _assemble(config, total_modes,
                     *_classical_input(config, total_modes))


def _classical_input(config: SourceConfig, d: int) -> tuple:
    """(sigma, coherent amplitude, maps) of :func:`build_classical_input`."""
    params = closest_classical_state(config.r, config.eta_tot)
    v_plus, v_minus = params.quad_variances()
    g = (v_plus + v_minus) / 4          # <a a^dag + a^dag a>/2
    m = (v_plus - v_minus) / 4          # <a a>
    sigma = np.eye(2 * d, dtype=complex) / 2
    p, q = config.squeezer_ports
    for port, sign in ((p, 1.0), (q, -1.0)):
        sigma[port, port] = g
        sigma[port + d, port + d] = g
        sigma[port, port + d] = sign * m
        sigma[port + d, port] = sign * m
    bs = np.eye(d, dtype=complex)
    inv_sqrt2 = 1 / np.sqrt(2)
    bs[p, p] = bs[p, q] = bs[q, p] = inv_sqrt2
    bs[q, q] = -inv_sqrt2
    return (sigma, np.sqrt(config.eta_tot) * config.alpha_mag,
            [TransferMatrix.square(bs)])
