"""JSON interchange: complex matrices, run configs, and content hashes.

Complex matrices are stored as {"shape": [r, c], "data": [[re, im], ...]}
in row-major order.  Configs are dicts with a mandatory integer "version";
hashing canonicalizes with sorted keys and repr-exact floats so equal
configs hash equally byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import SchemaError
from .experiment import DriftModel, PidConfig
from .states import SourceConfig, TransferMatrix

CONFIG_VERSION = 1


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m[None, :]
    return {"shape": [int(m.shape[0]), int(m.shape[1])],
            "data": [[float(v.real), float(v.imag)] for v in m.ravel()]}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        r, c = (int(x) for x in obj["shape"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix object: {exc}") from exc
    if len(data) != r * c:
        raise SchemaError(f"matrix data length {len(data)} != {r}*{c}")
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(r, c)


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"config holds a non-finite number {text}")
    return value


def load_config(path: str) -> dict:
    """Read a versioned config; every number in it must be finite."""
    with open(path) as f:
        try:
            config = json.load(f, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise SchemaError("config must be a JSON object")
    version = config.get("version")
    if version != CONFIG_VERSION:
        raise SchemaError(
            f"unsupported config version {version!r}; expected {CONFIG_VERSION}")
    return config


def source_from_config(config: dict) -> SourceConfig:
    src = config.get("source")
    if not isinstance(src, dict):
        raise SchemaError("config needs a 'source' object")
    kw = dict(src)
    if "squeezer_ports" in kw:
        kw["squeezer_ports"] = tuple(kw["squeezer_ports"])
    try:
        return SourceConfig(**kw)
    except TypeError as exc:
        raise SchemaError(f"bad source config: {exc}") from exc


def transfer_from_config(config: dict) -> TransferMatrix:
    tr = config.get("transfer")
    if not isinstance(tr, dict):
        raise SchemaError("config needs a 'transfer' object")
    t = matrix_from_json(tr.get("t", {}))
    m = int(tr.get("m", t.shape[0]))
    d = int(tr.get("d", t.shape[1]))
    ports = tr.get("input_ports")
    return TransferMatrix(m, d, t, None if ports is None else tuple(ports))


def phi_grid_from_config(config: dict):
    """The config's phi grid, or None (the simulation default) if unset."""
    grid = config.get("phi_grid")
    if grid is None:
        return None
    if isinstance(grid, list):
        return np.asarray(grid, dtype=float)
    try:
        return np.linspace(float(grid["start"]), float(grid["stop"]),
                           int(grid["num"]), endpoint=False)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad phi_grid: {exc}") from exc


def pulses_from_config(config: dict) -> float:
    pulses = config.get("pulses_per_setting", "inf")
    if pulses == "inf":
        return math.inf
    return float(pulses)


def drift_from_config(config: dict) -> DriftModel:
    obj = config.get("drift", {})
    try:
        return DriftModel(**obj)
    except TypeError as exc:
        raise SchemaError(f"bad drift config: {exc}") from exc


def pid_from_config(config: dict) -> PidConfig:
    obj = config.get("pid")
    if obj is None:
        return None
    try:
        return PidConfig(**obj)
    except TypeError as exc:
        raise SchemaError(f"bad pid config: {exc}") from exc
