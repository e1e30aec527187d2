"""JSON interchange: complex matrices, run configs, and content hashes;
and the column-at-a-time helpers of the samples and records CSV text.

Complex matrices are stored as {"shape": [r, c], "data": [[re, im], ...]}
in row-major order.  Configs are dicts with a mandatory integer "version";
hashing canonicalizes with sorted keys and repr-exact floats so equal
configs hash equally byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from itertools import count

import numpy as np

from .errors import SchemaError
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


def drift_from_config(config: dict):
    from .experiment import DriftModel  # experiment imports this module
    obj = config.get("drift", {})
    try:
        return DriftModel(**obj)
    except TypeError as exc:
        raise SchemaError(f"bad drift config: {exc}") from exc


def pid_from_config(config: dict):
    from .experiment import PidConfig
    obj = config.get("pid")
    if obj is None:
        return None
    try:
        return PidConfig(**obj)
    except TypeError as exc:
        raise SchemaError(f"bad pid config: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV text a column at a time: the samples and records writers and readers

CSV_BLOCK_ROWS = 4096   # rows rendered per block, which bounds the memory


def _csv_rows(n: int, pieces) -> str:
    """The text of ``n`` CSV rows, each the concatenation of ``pieces``.

    A piece is a str (the same text in every row), a ``(texts, codes)``
    pair (row i holds ``texts[codes[i]]``; texts are ASCII without NUL) or
    an (n,) array of nonnegative integers, written in decimal.  Each texts
    list becomes a NUL-padded byte table; a block of rows is the tables'
    gathered rows side by side, with the padding dropped."""
    if not n:
        return ""
    columns = []
    for piece in pieces:
        if isinstance(piece, str):
            piece = [piece], np.broadcast_to(np.intp(0), (n,))
        if isinstance(piece, tuple):
            texts, codes = piece
            table = np.array(texts, dtype=bytes)
            piece = table.view(np.uint8).reshape(len(texts), -1), codes
        columns.append(piece)
    blocks = []
    for lo in range(0, n, CSV_BLOCK_ROWS):
        hi = min(lo + CSV_BLOCK_ROWS, n)
        rows = np.hstack([_digits(col[lo:hi]) if isinstance(col, np.ndarray)
                          else col[0].take(col[1][lo:hi], axis=0)
                          for col in columns])
        blocks.append(rows[rows != 0].tobytes().decode())
    return "".join(blocks)


def _digits(values: np.ndarray) -> np.ndarray:
    """(n, width) ASCII digits of nonnegative integers, NUL-padded left."""
    top = int(values.max())
    values = values.astype(np.min_scalar_type(top))  # unsigned: fast division
    power = 10 ** np.arange(len(str(top)) - 1, -1, -1, dtype=values.dtype)
    digits = (values // power[:, None] % 10 + ord("0")).astype(np.uint8)
    digits[(values < power[:, None]) & (power[:, None] > 1)] = 0
    return digits.T


def _codes(texts) -> tuple:
    """The distinct strings of ``texts`` in order of first appearance, and
    the index of each text among them, as an int array."""
    index = defaultdict(count().__next__)
    codes = np.fromiter(map(index.__getitem__, texts), np.intp)
    return list(index), codes


def _unique_ints(values: np.ndarray) -> tuple:
    """``np.unique(values, return_inverse=True)`` of a 1-d int array, by
    counting instead of sorting when the values span fewer integers than
    there are values (a sample's bitmasks, a constant phi)."""
    if len(values) and int(values.max()) - int(values.min()) < len(values):
        low = values.min()
        present = np.bincount(values - low) > 0
        return np.flatnonzero(present) + low, \
            np.cumsum(present)[values - low] - 1
    return np.unique(values, return_inverse=True)
