"""Multimode Gaussian states in the doubled annihilation/creation ordering.

A d-mode Gaussian state is stored as a 2d x 2d covariance matrix ``sigma``
and a length-2d displacement vector ``delta``, with indices 0..d-1 referring
to annihilation operators and d..2d-1 to creation operators.  The covariance
has the block form ``[[G, M], [conj(M), conj(G)]]`` with G Hermitian
(vacuum: G = I/2) and M symmetric.  The displacement satisfies
``delta[j + d] = conj(delta[j])``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NumericalError, PhysicalityError

BLOCK_TOL = 1e-10
COND_LIMIT = 1e12


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only C-ordered copy of ``a``; ``a`` stays writeable."""
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


def block_swap(d: int) -> np.ndarray:
    """The 2d x 2d matrix X = [[0, I], [I, 0]] swapping the two d-blocks."""
    x = np.zeros((2 * d, 2 * d))
    x[:d, d:] = np.eye(d)
    x[d:, :d] = np.eye(d)
    return x


@dataclass(frozen=True, eq=False)
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
        # Sigma_Q = Sigma + I/2 = V diag(w) V^H, the state's one
        # factorisation: its check, inverse and log det all read (w, V)
        w, v = np.linalg.eigh(sigma + np.eye(2 * d) / 2)
        if w[0] <= 0:
            raise PhysicalityError(
                f"Sigma_Q not positive definite (min eigenvalue {w[0]:.3e})")
        object.__setattr__(self, "_q_eigh", (w, v))
        object.__setattr__(self, "sigma", _frozen(sigma))
        object.__setattr__(self, "delta", _frozen(delta))

    @cached_property
    def sigma_q_inverse(self) -> np.ndarray:
        """Sigma_Q^-1 = (V / w) V^H, refused when Sigma_Q's condition number
        (max w / min w, as Sigma_Q is Hermitian positive definite) exceeds
        ``COND_LIMIT``."""
        w, v = self._q_eigh
        if w[-1] / w[0] > COND_LIMIT:
            raise NumericalError(f"Sigma_Q condition number {w[-1] / w[0]:.3e} "
                                 f"exceeds {COND_LIMIT:.1e}")
        return _frozen((v / w) @ v.conj().T)

    def gamma_and_log_p_vac(self, delta: np.ndarray) -> tuple:
        """(gamma, log p_vac) of this covariance displaced by ``delta``, a
        (2d,) displacement or a (..., 2d) stack of them: gamma = delta^dag
        Sigma_Q^-1 and log p_vac = -gamma delta / 2 - log det Sigma_Q / 2,
        with log det Sigma_Q = sum log w.  A stack runs numpy's product of
        one vector per item, so each row has the bits of its own call."""
        gamma = (delta.conj()[..., None, :] @ self.sigma_q_inverse)[..., 0, :]
        logdet = np.log(self._q_eigh[0]).sum()
        product = (gamma[..., None, :] @ delta[..., :, None])[..., 0, 0]
        return gamma, -product.real / 2 - logdet / 2


def check_ports(ports, d: int) -> None:
    """ConfigurationError unless each of ``ports`` is a mode of a d-mode
    circuit: an int (a bool is none) from 0 to d - 1."""
    for port in ports:
        if type(port) is not int or not 0 <= port < d:
            raise ConfigurationError(f"input port {port!r} is not a mode of "
                                     f"the {d}-mode circuit")


def check_counts(counts, d: int) -> np.ndarray:
    """A read-only int64 copy of ``counts``, P patterns of photon counts over
    d modes as (P, d); ConfigurationError unless each count is a nonnegative
    whole number (a float such as 1.0 is one, a bool is none).  The rows of
    an array are checked as a whole; those of a sequence one count at a
    time for a bool, which numpy would read as an int."""
    try:
        a = np.asarray(counts)
    except ValueError:   # numpy's rows of unequal lengths
        got = "rows of unequal lengths"
    else:
        # a nan is not its own floor, and from 2**63 on no count is an int64
        if a.ndim == 2 and a.shape[1] == d and a.dtype.kind in "iuf" and not (
                (a < 0) | (a >= 2.0 ** 63) | (a != np.floor(a))).any():
            if isinstance(counts, np.ndarray) or not any(
                    isinstance(c, (bool, np.bool_))
                    for row in counts for c in row):
                return _frozen(a.astype(np.int64, copy=False))
            got = "a bool among its counts"
        else:
            got = f"{a.dtype} array {a.shape}"
    raise ConfigurationError(f"patterns must be rows of {d} nonnegative "
                             f"integers, got {got}")


@dataclass(frozen=True, eq=False)
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
        ports = tuple(range(self.m)) if ports is None else tuple(ports)
        check_ports(ports, self.d)
        if len(ports) != self.m or len(set(ports)) != self.m:
            raise ConfigurationError("input ports must be m distinct indices")
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


def _real(x) -> bool:
    """Whether ``x`` is a finite real number (a bool is none)."""
    return not isinstance(x, bool) and isinstance(x, (int, float)) \
        and abs(x) <= sys.float_info.max


def _require_finite(obj):
    """Every float field of the dataclass ``obj`` must be a finite number."""
    for f in fields(obj):
        x = getattr(obj, f.name)
        if f.type == "float" and not _real(x):
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
        if len(self.squeezer_ports) != 2:
            raise ConfigurationError(f"need 2 squeezer ports, got "
                                     f"{self.squeezer_ports}")
        if len(set(self.ports)) != 3:
            raise ConfigurationError(f"input ports overlap: {self.ports}")

    @property
    def ports(self) -> tuple:
        """The two squeezer ports, then the coherent port."""
        return (*self.squeezer_ports, self.coherent_port)

    @property
    def eta_tot(self) -> float:
        return self.eta_c * self.eta_g ** 2 * self.eta_p * self.eta_d

    @property
    def n_pdc(self) -> float:
        """Mean detected squeezer photons per pulse and per mode."""
        return self.eta_tot * np.sinh(self.r) ** 2


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
    check_ports(config.ports, d)
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


def _coherent_delta(d: int, port, amplitude, phi) -> np.ndarray:
    """The (2d,) displacement of a coherent beam of ``amplitude`` at
    ``port`` and phase ``phi``, or the (F, 2d) stack over (F,) arrays of
    them (a scalar serves every member)."""
    alpha = amplitude * np.exp(1j * phi)
    delta = np.zeros((np.size(alpha), 2 * d), dtype=complex)
    rows = np.arange(len(delta))
    delta[rows, port] = alpha
    delta[rows, port + d] = np.conj(alpha)
    return delta.reshape(*np.shape(alpha), 2 * d)


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
               ports=None, amplitudes=None) -> tuple:
    """(A, gammas, log_p_vacs) of the source through ``t`` over F
    members: member f has its coherent beam at phase ``phis[f]``, port
    ``ports[f]`` (a sequence of ints) and amplitude ``amplitudes[f]``, by
    default the config's ``coherent_port`` and ``alpha_mag``, and its
    kernel is ``StateKernel(A, gammas[f], log_p_vacs[f])``.

    The port, amplitude and phase of the coherent beam only move the
    displacement, so one state (the config's own) is built and validated,
    and its A, Sigma_Q^-1 and log det serve every member; each distinct
    (port, amplitude) is checked as a source config of its own.  The
    (F, 2d) displacements are pushed through each doubled map by one
    stacked matvec, which runs numpy's matvec item by item (a
    ``D @ S.T`` gemm would round apart), and
    :meth:`GaussianState.gamma_and_log_p_vac` takes the stack.  So row f
    of ``gammas`` and of ``log_p_vacs`` has the bits of
    ``propagate(build_input_state(replace(config, phi=phis[f],
    coherent_port=ports[f], alpha_mag=amplitudes[f]), d), t)``.
    """
    d = t.d
    phis = np.asarray(phis, dtype=float)
    if ports is None:
        ports = [config.coherent_port] * len(phis)
    if amplitudes is None:
        amplitudes = [config.alpha_mag] * len(phis)
    ports, amplitudes = list(ports), np.asarray(amplitudes, dtype=float)
    if len(ports) != len(phis) or amplitudes.shape != phis.shape:
        raise ConfigurationError(
            f"a scan needs one port and one amplitude per phase, got "
            f"{len(ports)} ports and {amplitudes.shape} amplitudes for "
            f"{phis.shape} phases")
    for port, amplitude in dict.fromkeys(zip(ports, amplitudes.tolist())):
        check_ports(replace(config, coherent_port=port,
                            alpha_mag=amplitude).ports, d)
    sigma, amplitude, maps = _quantum_input(config, d)
    maps = [*maps, t]
    state = _assemble(config, d, sigma, amplitude, maps)
    deltas = _coherent_delta(d, np.array(ports, dtype=np.intp), amplitudes,
                             phis)
    for m in maps:
        deltas = np.matmul(_doubled_map(m), deltas[:, :, None])[:, :, 0]
    if (np.abs(deltas[:, d:] - deltas[:, :d].conj()) > BLOCK_TOL).any():
        raise PhysicalityError("displacement is not conjugate-paired")
    return a_matrix(state), *state.gamma_and_log_p_vac(deltas)


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


@dataclass(frozen=True, eq=False)
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
    a = block_swap(state.d) @ (np.eye(2 * state.d) - state.sigma_q_inverse)
    d = state.d
    b = (a[:d, :d] + a[d:, d:].conj()) / 2
    b = (b + b.T) / 2
    c = (a[:d, d:] + a[d:, :d].T) / 2
    c = (c + c.conj().T) / 2
    return AMatrix(d, b, c)


def state_from_a(a: AMatrix, gamma: np.ndarray) -> GaussianState:
    """Materialize the state with kernel (A, gamma), gamma the (2d,) loop
    weights: Sigma_Q = (I - X A)^-1."""
    d = a.d
    ixa = np.eye(2 * d) - block_swap(d) @ a.full
    try:
        sq = np.linalg.inv(ixa)
    except np.linalg.LinAlgError as exc:
        raise PhysicalityError("I - X A is singular") from exc
    sq = (sq + sq.conj().T) / 2
    delta = (np.asarray(gamma, dtype=complex) @ sq).conj()
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


def build_classical_input(config: SourceConfig, d: int) -> GaussianState:
    """Classical surrogate input: two closest-classical squeezed thermal
    states (opposite squeezing phases) combined on a balanced beam splitter
    at the squeezer ports, plus the coherent beam.

    eta_tot is already folded into the squeezed-thermal parameters, so the
    coherent amplitude is attenuated by sqrt(eta_tot) to match; feed the
    result through a lossless circuit.
    """
    check_ports(config.ports, d)
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
    amplitude = np.sqrt(config.eta_tot) * config.alpha_mag
    return _assemble(config, d, sigma, amplitude, [TransferMatrix.square(bs)])
