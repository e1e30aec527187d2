"""JSON interchange: complex matrices, run configs, and content hashes;
and the CSV paths of the samples and records files: the column-at-a-time
writer helpers and the one input path of both readers.

Complex matrices are stored as {"shape": [r, c], "data": [[re, im], ...]}
in row-major order.  Configs are dicts with a mandatory integer "version";
hashing canonicalizes with sorted keys and repr-exact floats so equal
configs hash equally byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from collections import defaultdict
from contextlib import suppress
from itertools import chain, count, islice
from operator import itemgetter

import numpy as np

from .errors import ConfigurationError, SchemaError
from .states import SourceConfig, TransferMatrix, _real

CONFIG_VERSION = 1
MAX_PHI_POINTS = 100_000   # lab phase scans take about 100


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
    if not isinstance(data, list):
        raise SchemaError(f"matrix data must be a list, got {data!r}")
    if len(data) != r * c:
        raise SchemaError(f"matrix data length {len(data)} != {r}*{c}")
    # every entry a [re, im] pair of int or float: one numpy pass; else the
    # entries one at a time, which name the first bad one
    if set(map(type, data)) <= {list} and set(map(len, data)) <= {2} and \
            set(map(type, chain.from_iterable(data))) <= {int, float}:
        with suppress(OverflowError):   # an int beyond float range
            return np.array(data, dtype=float).view(complex).reshape(r, c)
    flat = np.array([_matrix_entry(k, pair) for k, pair in enumerate(data)])
    return flat.reshape(r, c)


def _matrix_entry(k: int, pair) -> complex:
    """Entry ``k`` of a matrix's data: a [re, im] pair of real numbers."""
    if isinstance(pair, list) and len(pair) == 2 and not any(
            isinstance(x, bool) or not isinstance(x, (int, float))
            for x in pair):
        with suppress(OverflowError):
            return complex(*pair)
    raise SchemaError(f"matrix data entry {k} must be a [re, im] pair of "
                      f"real numbers, got {pair!r}")


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


def read_text(path: str) -> str:
    """The whole text of an input file or pipe.  Text that does not decode
    is a ``SchemaError`` naming the path: the decode error names no file."""
    with open(path) as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"cannot read {path}: {exc}") from exc


def load_config(path: str) -> dict:
    """Read a versioned config; every number in it must be finite."""
    try:
        config = json.loads(read_text(path), parse_float=_finite,
                            parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise SchemaError("config must be a JSON object")
    version = config.get("version")
    if version != CONFIG_VERSION:
        raise SchemaError(
            f"unsupported config version {version!r}; expected {CONFIG_VERSION}")
    return config


def source_from_config(config: dict, d: int = None) -> SourceConfig:
    """The config's source; given ``d``, each of its input ports must be a
    mode of a d-mode circuit, checked before the source is built."""
    src = config.get("source")
    if not isinstance(src, dict):
        raise SchemaError("config needs a 'source' object")
    kw = dict(src)
    if "squeezer_ports" in kw:
        kw["squeezer_ports"] = _ports(kw["squeezer_ports"], "source",
                                      "squeezer_ports", 2)
    if d is not None:
        check_ports((*kw.get("squeezer_ports", SourceConfig.squeezer_ports),
                     kw.get("coherent_port", SourceConfig.coherent_port)), d)
    return _from_fields(SourceConfig, kw, "source")


def _ports(ports, name: str, key: str, length: int = None) -> tuple:
    """The ports list ``key`` of the ``name`` config as a tuple, of
    ``length`` entries if given, or SchemaError "bad {name} config: ..."."""
    if not isinstance(ports, list) or length not in (None, len(ports)):
        size = "" if length is None else f" {length}"
        raise SchemaError(f"bad {name} config: {key} must be a list of"
                          f"{size} ports, got {ports!r}")
    return tuple(ports)


def _from_fields(cls, fields, name: str):
    """``cls(**fields)``, each integer in a float field read as a float
    (numpy takes an int past int64 as an object), or SchemaError "bad
    {name} config: ...".  An integer beyond float range is left for
    ``cls`` to refuse."""
    if isinstance(fields, dict):
        reals = {f.name for f in dataclasses.fields(cls) if f.type == "float"}
        fields = {key: float(value) if key in reals and type(value) is int
                  and abs(value) <= sys.float_info.max else value
                  for key, value in fields.items()}
    try:
        return cls(**fields)
    except (TypeError, ConfigurationError) as exc:
        raise SchemaError(f"bad {name} config: {exc}") from exc


def transfer_from_config(config: dict) -> TransferMatrix:
    tr = config.get("transfer")
    if not isinstance(tr, dict):
        raise SchemaError("config needs a 'transfer' object")
    t = matrix_from_json(tr.get("t", {}))
    m, d = tr.get("m", t.shape[0]), tr.get("d", t.shape[1])
    for key, value in (("m", m), ("d", d)):
        if type(value) is not int:   # a bool is no int here
            raise SchemaError(f"bad transfer config: {key} must be an "
                              f"integer, got {value!r}")
    ports = tr.get("input_ports")
    if ports is not None:
        ports = _ports(ports, "transfer", "input_ports")
        check_ports(ports, d, "transfer")
    return _from_fields(TransferMatrix, {"m": m, "d": d, "t": t,
                                         "input_ports": ports}, "transfer")


def circuit_from_config(config: dict) -> tuple:
    """The config's source and transfer matrix; each input port of the
    source must be a mode of the circuit."""
    transfer = transfer_from_config(config)
    return source_from_config(config, transfer.d), transfer


def check_ports(ports, d: int, name: str = "source") -> None:
    """SchemaError unless each of ``ports`` is a mode of a d-mode circuit."""
    for port in ports:
        if type(port) is not int or not 0 <= port < d:
            raise SchemaError(f"bad {name} config: input port {port!r} is "
                              f"not a mode of the {d}-mode circuit")


def phi_grid_from_config(config: dict):
    """The config's phi grid, or None (the simulation default) if unset: a
    non-empty list of phases, or {"start", "stop", "num"} for ``num``
    evenly spaced phases from start, stop excluded."""
    grid = config.get("phi_grid")
    if grid is None:
        return None
    if isinstance(grid, list):
        if not grid:
            raise SchemaError("bad phi_grid: the list is empty")
        for k, phi in enumerate(grid):
            if not _real(phi):
                raise SchemaError(f"bad phi_grid: entry {k} must be a real "
                                  f"number, got {phi!r}")
        return np.array(grid, dtype=float)
    if not (isinstance(grid, dict) and {"start", "stop", "num"} <= grid.keys()):
        raise SchemaError('bad phi_grid: expected a list or an object with '
                          f'"start", "stop" and "num", got {grid!r}')
    start, stop, num = grid["start"], grid["stop"], grid["num"]
    if not (_real(start) and _real(stop)):
        raise SchemaError(f"bad phi_grid: start and stop must be real "
                          f"numbers, got {start!r} and {stop!r}")
    if type(num) is not int or not 1 <= num <= MAX_PHI_POINTS:
        raise SchemaError(f"bad phi_grid: num must be an integer from 1 to "
                          f"{MAX_PHI_POINTS}, got {num!r}")
    # read as floats, as _from_fields does: numpy takes an int past int64
    # as an object
    return np.linspace(float(start), float(stop), num, endpoint=False)


def pulses_from_config(config: dict) -> float:
    """The config's pulses per setting: a positive number, or "inf" (the
    default) for noiseless rates."""
    pulses = config.get("pulses_per_setting", "inf")
    if pulses == "inf":
        return math.inf
    if not _real(pulses) or pulses <= 0:
        raise SchemaError(f'pulses_per_setting must be a positive number or '
                          f'"inf", got {pulses!r}')
    most = np.iinfo(np.int64).max   # the largest count numpy's binomial takes
    if int(float(pulses)) > most:   # float(pulses) is the count drawn
        raise SchemaError(f"pulses_per_setting must be at most {most}, the "
                          f"largest count of the binomial draw, got "
                          f"{pulses!r}")
    return float(pulses)


def drift_from_config(config: dict):
    from .experiment import DriftModel  # experiment imports this module
    return _from_fields(DriftModel, config.get("drift", {}), "drift")


def pid_from_config(config: dict):
    from .experiment import PidConfig
    obj = config.get("pid")
    return None if obj is None else _from_fields(PidConfig, obj, "pid")


# ---------------------------------------------------------------------------
# CSV text a column at a time: the samples and records writers, and the one
# input path of their readers

CSV_BLOCK_ROWS = 4096   # rows rendered per block, which bounds the memory
CSV_BLOCK_CHARS = 1 << 14   # text split into lines per block, bounds memory


def _read_csv(text: str, columns, parse, fault, where: str):
    """``parse(header, coded, widths)`` of the csv rows of ``text`` (all of
    a file or pipe) without its ``#`` lines, which may stand anywhere.
    ``header`` is the first row.  ``coded`` holds, for each index k in
    ``columns``, field k of each nonempty row after the header ("" where a
    row is too short) as a pair: the distinct texts in order of first
    appearance, and each row's index among them, as an int array.
    ``widths`` is the set of those rows' lengths.  If csv cannot read a
    line, or ``parse`` returns None, the rows are read again, and the first
    line csv cannot read, or the first nonempty row after the header for
    which ``fault(row)`` gives a message, raises
    ``SchemaError("{where} N: ...")``, N its line in ``text``."""
    with suppress(csv.Error):
        result = parse(*_coded_columns(text, columns))
        if result is not None:
            return result
    rows = csv.reader(chain.from_iterable(_uncommented(text, True)))
    try:
        rows_after_header = islice(filter(None, rows), 1, None)
        message = next(filter(None, map(fault, rows_after_header)))
    except csv.Error as exc:
        message = exc
    raise SchemaError(f"{where} {rows.line_num}: {message}")


def _coded_columns(text: str, columns) -> tuple:
    """The header, coded ``columns`` and row lengths of :func:`_read_csv`.
    Each block of :func:`_uncommented` is split at commas and line ends,
    and each column's fields coded, while that reads the rows as csv does.
    From the first block that csv may read otherwise, csv reads the rest:
    a block with a quote, CR or NUL, a blank line, a row not as long as the
    header, or a field that csv rejects as longer than
    ``csv.field_size_limit()``; and all of the text if the header has too
    few fields for ``columns``."""
    indexes = [defaultdict(count().__next__) for _ in columns]
    codes = [[np.zeros(0, np.intp)] for _ in columns]
    header, widths = None, set()

    def add(rows: int, fields) -> None:
        """Code ``fields(k)``, the ``rows`` fields of each column k."""
        for index, column, k in zip(indexes, codes, columns):
            column.append(np.fromiter(map(index.__getitem__, fields(k)),
                                      np.intp, rows))

    blocks = _uncommented(text, False)
    for block in blocks:
        fields, width = _split(block.getvalue(), header)
        if fields is None or width <= max(columns):   # csv reads the rest
            rows = csv.reader(chain.from_iterable(chain([block], blocks)))
            header = next(rows, []) if header is None else header
            while batch := list(islice(rows, CSV_BLOCK_ROWS)):
                batch = list(filter(None, batch))
                widths.update(map(len, batch))
                if min(widths, default=0) <= max(columns):   # pad short rows
                    batch = [row + [""] * max(columns) for row in batch]
                add(len(batch), lambda k: map(itemgetter(k), batch))
            break
        if header is None:
            header, fields = fields[:width], fields[width:]
        rows = len(fields) // width
        if rows:
            widths.add(width)
        add(rows, lambda k: fields[k:-1:width])
    return header or [], [(list(index), np.concatenate(column))
                          for index, column in zip(indexes, codes)], widths


# every byte but the comma and the line end, deleted to leave a block's shape
_FIELD_BYTES = bytes(sorted(set(range(256)) - set(b",\n")))


def _split(block: str, header) -> tuple:
    """The fields of the lines of ``block``, line after line, then one "",
    and the number of fields in each line: as many as in ``header``, or if
    it is None in the first line.  (None, 0) unless csv would read each
    line as that many fields split at its commas."""
    block += "" if block.endswith("\n") else "\n"
    width = block.count(",", 0, block.find("\n")) + 1 if header is None \
        else len(header)
    if width < 2 or len(block) > csv.field_size_limit() or \
            '"' in block or "\r" in block or "\0" in block:
        return None, 0
    shape = block.encode(errors="surrogatepass").translate(None, _FIELD_BYTES)
    if shape != (b"," * (width - 1) + b"\n") * (len(shape) // width):
        return None, 0
    return block.replace("\n", ",").split(","), width


def _uncommented(text: str, keep_lines: bool):
    """The lines of ``text``, ends kept, in blocks, without its ``#`` lines,
    or with each of them as "" (an empty row to csv, nothing within a quoted
    field) if ``keep_lines``.  A block of about ``CSV_BLOCK_CHARS`` is split
    by an ``io.StringIO``, which holds 4 bytes a character."""
    start, comment = 0, -1
    while start < len(text):
        if comment < start:   # where the next comment line starts
            comment = start if text.startswith("#", start) else \
                text.find("\n#", start) + 1 or len(text)
        if start == comment:
            end = text.find("\n", start) + 1 or len(text)
            if keep_lines:
                yield [""]
        else:
            end = min(comment, text.find("\n", start + CSV_BLOCK_CHARS) + 1
                      or len(text))
            yield io.StringIO(text[start:end])
        start = end


def _csv_rows(n: int, pieces):
    """The text of ``n`` CSV rows, each the concatenation of ``pieces``,
    yielded a block of ``CSV_BLOCK_ROWS`` rows at a time.

    A piece is a str (the same text in every row), a ``(texts, codes)``
    pair (row i holds ``texts[codes[i]]``; texts are ASCII without NUL) or
    a range of n nonnegative integers, written in decimal and built a
    block at a time.  Each texts list becomes a NUL-padded byte table; a
    block of rows is the tables' gathered rows side by side, with the
    padding dropped."""
    if not n:
        return
    columns = []
    for piece in pieces:
        if isinstance(piece, str):
            piece = [piece], np.broadcast_to(np.intp(0), (n,))
        if isinstance(piece, tuple):
            texts, codes = piece
            table = np.array(texts, dtype=bytes)
            piece = table.view(np.uint8).reshape(len(texts), -1), codes
        columns.append(piece)
    for lo in range(0, n, CSV_BLOCK_ROWS):
        hi = min(lo + CSV_BLOCK_ROWS, n)
        rows = np.hstack([_digits(col.start + col.step * np.arange(lo, hi))
                          if isinstance(col, range)
                          else col[0].take(col[1][lo:hi], axis=0)
                          for col in columns])
        yield rows[rows != 0].tobytes().decode()


def _digits(values: np.ndarray) -> np.ndarray:
    """(n, width) ASCII digits of nonnegative integers, NUL-padded left."""
    top = int(values.max())
    values = values.astype(np.min_scalar_type(top))  # unsigned: fast division
    power = 10 ** np.arange(len(str(top)) - 1, -1, -1, dtype=values.dtype)
    digits = (values // power[:, None] % 10 + ord("0")).astype(np.uint8)
    digits[(values < power[:, None]) & (power[:, None] > 1)] = 0
    return digits.T

