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
from contextlib import contextmanager, suppress
from functools import cache
from itertools import chain, count, islice
from operator import itemgetter

import numpy as np

from .errors import ConfigurationError, SchemaError
from .states import SourceConfig, TransferMatrix, _real, check_ports

CONFIG_VERSION = 1
# the top-level keys of a config, each read by some command
CONFIG_KEYS = ("version", "source", "transfer", "phi_grid",
               "pulses_per_setting", "second_input_port",
               "include_collisions", "drift", "pid", "lock_pairs")
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
    """Read a versioned config: keys from CONFIG_KEYS, every number finite."""
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
    for key in config:
        if key not in CONFIG_KEYS:
            raise SchemaError(f"unknown config key {key!r}")
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
        ports = (*kw.get("squeezer_ports", SourceConfig.squeezer_ports),
                 kw.get("coherent_port", SourceConfig.coherent_port))
        with _schema("source"):
            check_ports(ports, d)
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
    {name} config: ...", a key with no field first.  An integer beyond
    float range is left for ``cls`` to refuse."""
    if isinstance(fields, dict):
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        for key in fields:
            if key not in types:
                raise SchemaError(f"bad {name} config: unknown field {key!r}")
        fields = {key: float(value) if types[key] == "float"
                  and type(value) is int and abs(value) <= sys.float_info.max
                  else value for key, value in fields.items()}
    with _schema(name):
        return cls(**fields)


@contextmanager
def _schema(name: str):
    """Raise a TypeError or ConfigurationError of the block as SchemaError
    "bad {name} config: ..."."""
    try:
        yield
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
    return _from_fields(TransferMatrix, {"m": m, "d": d, "t": t,
                                         "input_ports": ports}, "transfer")


def circuit_from_config(config: dict) -> tuple:
    """The config's source and transfer matrix; each input port of the
    source must be a mode of the circuit."""
    transfer = transfer_from_config(config)
    return source_from_config(config, transfer.d), transfer


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


def _read_csv(text: str, columns, parse, fault, where: str, numbers=()):
    """``parse(header, coded, widths)`` of the csv rows of ``text`` (all of
    a file or pipe) without its ``#`` lines, which may stand anywhere.
    ``header`` is the first row.  ``coded`` holds, for each index k in
    ``columns``, field k of each nonempty row after the header ("" where a
    row is too short): for k in ``numbers``, if each of them is a number,
    as one float array; else as a pair: the distinct texts in order of
    first appearance, and each row's index among them, as an int array.
    ``widths`` is the set of those rows' lengths.  If csv cannot read a
    line, or ``parse`` returns None, the rows are read again, and the first
    line csv cannot read, or the first nonempty row after the header for
    which ``fault(row)`` gives a message, raises
    ``SchemaError("{where} N: ...")``, N its line in ``text``."""
    with suppress(csv.Error):
        result = parse(*_coded_columns(text, columns, numbers))
        if result is not None:
            return result
    rows = csv.reader(chain.from_iterable(_uncommented(text)))
    try:
        rows_after_header = islice(filter(None, rows), 1, None)
        message = next(filter(None, map(fault, rows_after_header)))
    except csv.Error as exc:
        message = exc
    raise SchemaError(f"{where} {rows.line_num}: {message}")


def _coded_columns(text: str, columns, numbers=()) -> tuple:
    """The header, coded ``columns`` and row lengths of :func:`_read_csv`,
    the columns in ``numbers`` parsed with ``float``.  Each block of
    :func:`_blocks` is split at commas and line ends, and each
    column's fields coded or parsed, while that reads the rows as csv does.
    From the first block that csv may read otherwise, csv reads the rest:
    a block with a quote, CR or NUL, a blank line, a row not as long as the
    header, or a field that csv rejects as longer than
    ``csv.field_size_limit()``; and all of the text if the header has too
    few fields for ``columns``.  If a field of a column in ``numbers`` is
    no number, the text is read again with that column coded."""
    indexes = [defaultdict(count().__next__) for _ in columns]
    codes = [[np.zeros(0, float if k in numbers else np.intp)]
             for k in columns]
    header, widths, text_column = None, set(), None

    def add(rows: int, fields):
        """Code ``fields(k)``, the ``rows`` fields of each column k, or
        parse them if k is in ``numbers``.  The first k in ``numbers`` with
        a field that is no number, or None."""
        for index, column, k in zip(indexes, codes, columns):
            if k not in numbers:
                column.append(np.fromiter(map(index.__getitem__, fields(k)),
                                          np.intp, rows))
                continue
            try:
                column.append(np.fromiter(map(float, fields(k)), float, rows))
            except ValueError:
                return k
        return None

    blocks = filter(None, _blocks(text))
    for block in blocks:
        fields, width = _split(block, header)
        if fields is None or width <= max(columns):   # csv reads the rest
            rows = csv.reader(chain.from_iterable(
                map(io.StringIO, chain([block], blocks))))
            header = next(rows, []) if header is None else header
            while text_column is None and (
                    batch := list(islice(rows, CSV_BLOCK_ROWS))):
                batch = list(filter(None, batch))
                widths.update(map(len, batch))
                if min(widths, default=0) <= max(columns):   # pad short rows
                    batch = [row + [""] * max(columns) for row in batch]
                text_column = add(len(batch),
                                  lambda k: map(itemgetter(k), batch))
            break
        if header is None:
            header, fields = fields[:width], fields[width:]
        rows = len(fields) // width
        if rows:
            widths.add(width)
        text_column = add(rows, lambda k: fields[k:-1:width])
        if text_column is not None:
            break
    if text_column is not None:   # read again, that column coded
        return _coded_columns(text, columns, tuple(
            k for k in numbers if k != text_column))
    return header or [], [np.concatenate(column) if k in numbers else
                          (list(index), np.concatenate(column))
                          for index, column, k in zip(indexes, codes, columns)
                          ], widths


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


def _uncommented(text: str):
    """The lines of ``text``, ends kept, in blocks, with each ``#`` line as
    "" (an empty row to csv, nothing within a quoted field).  Each block of
    :func:`_blocks` is split by an ``io.StringIO``, which holds 4 bytes a
    character."""
    for block in _blocks(text):
        yield [""] if block is None else io.StringIO(block)


def _blocks(text: str):
    """The lines of ``text``, ends kept, in blocks of about
    ``CSV_BLOCK_CHARS``, and None for each ``#`` line.  No copy of the
    whole text is held."""
    start, comment = 0, -1
    while start < len(text):
        if comment < start:   # where the next comment line starts
            comment = start if text.startswith("#", start) else \
                text.find("\n#", start) + 1 or len(text)
        if start == comment:
            end = text.find("\n", start) + 1 or len(text)
            yield None
        else:
            end = min(comment, text.find("\n", start + CSV_BLOCK_CHARS) + 1
                      or len(text))
            yield text[start:end]
        start = end


def _csv_rows(n: int, pieces):
    """The bytes of ``n`` CSV rows, each the concatenation of ``pieces``,
    yielded a block of ``CSV_BLOCK_ROWS`` rows at a time.

    A piece is a str (the same text in every row), a ``(texts, codes)``
    pair (row i holds ``texts[codes[i]]``; ``np.asarray(texts,
    dtype=bytes)`` gives the texts as ASCII, whose NULs are padding) or a
    range of n nonnegative integers, written in decimal.  A block is one
    fixed-width record per row with one field per piece, each field filled
    by one whole-field copy: a str as a scalar (once, for every block),
    texts as their ``S{width}`` array gathered by the block's codes, a
    range as the words of :func:`_decimal_words`.  One ``bytes.translate``
    then drops the NUL padding of the block."""
    if not n:
        return
    fields = []   # (field format, piece), texts made an S{width} array
    for piece in pieces:
        if isinstance(piece, str):
            piece = piece.encode()
            fields.append((f"S{len(piece)}", piece))
        elif isinstance(piece, range):
            fields.append(((np.uint32, _word_count(max(piece[0], piece[-1]))),
                           piece))
        else:
            texts, codes = piece
            texts = np.asarray(texts, dtype=bytes)
            fields.append((texts.dtype, (texts, codes)))
    record = np.dtype([(f"f{k}", fmt) for k, (fmt, _) in enumerate(fields)])
    buffer = np.empty(min(n, CSV_BLOCK_ROWS), record)
    for k, (_, piece) in enumerate(fields):
        if isinstance(piece, bytes):   # the same in every block
            buffer[f"f{k}"] = piece
    for lo in range(0, n, CSV_BLOCK_ROWS):
        hi = min(lo + CSV_BLOCK_ROWS, n)
        rows = buffer[:hi - lo]
        for k, (_, piece) in enumerate(fields):
            if isinstance(piece, tuple):
                rows[f"f{k}"] = piece[0].take(piece[1][lo:hi])
            elif isinstance(piece, range):
                block = piece[lo:hi]
                _decimal_words(np.arange(block.start, block.stop, block.step),
                               rows[f"f{k}"])
        yield rows.tobytes().translate(None, b"\0")


def _g17_table(values: np.ndarray) -> np.ndarray:
    """The ``.17g`` texts of the floats ``values`` as a NUL-padded
    ``S{width}`` array.  A whole value with a clear sign bit below 2**53
    is written as its integer digits, as ``.17g`` writes it (an exponent
    comes only from 1e17), by :func:`_decimal_words`, whose leading NULs
    the copy keeps; -0.0, fractions, larger values and non-finite ones
    are formatted one by one."""
    whole = ~np.signbit(values) & (values < 2.0 ** 53) \
        & (values == np.floor(values))
    texts = np.array([f"{v:.17g}" for v in values[~whole].tolist()],
                     dtype=bytes)
    ints = values[whole].astype(np.int64)
    words = np.empty((len(ints), _word_count(int(ints.max(initial=0)))),
                     np.uint32)
    _decimal_words(ints, words)
    width = 4 * words.shape[1]
    table = np.empty(len(values), f"S{max(texts.itemsize, width)}")
    table[~whole] = texts
    table[whole] = words.view(f"S{width}").ravel()
    return table


def _word_count(top: int) -> int:
    """The number of 4-digit groups in the decimal digits of ``top``."""
    return (len(str(top)) + 3) // 4


def _decimal_words(values: np.ndarray, out: np.ndarray) -> None:
    """Write the nonnegative integers ``values`` in decimal into ``out``,
    (n, G) uint32 words of 4 ASCII bytes each, most significant word
    first, with NUL bytes for leading zeros; every value is below
    10 ** (4 G).  Word j from the right holds digit group j of each value
    (``values // 10 ** (4 j) % 10 ** 4``) from :func:`_word_table`: padded
    below the value's leading group, unpadded in it, NUL above it.  Where
    all of ``values`` have their leading group in one place, a word is one
    table lookup; elsewhere the table's part is chosen value by value."""
    if not len(values):
        return
    groups = out.shape[1]
    # unsigned and no wider than the values need: its division is fast
    values = values.astype(np.min_scalar_type(
        min(10 ** (4 * groups), 2 ** 64) - 1), copy=False)
    least, most = int(values.min()), int(values.max())
    table, quotient = _word_table(), values
    for j in range(groups):
        low, high = 10 ** (4 * j), 10 ** (4 * j + 4)
        # one division and no remainder, which numpy computes far slower
        rest = quotient // 10_000
        group, quotient = quotient - rest * 10_000, rest
        if least >= high:   # a padded group of every value
            part = table[:10_000]
        elif most < high and (least >= low or not j):   # every leading group
            part = table[10_000:]
        else:
            part, group = table, np.where(values < high, group + 10_000, group)
            if j:
                group[values < low] = 20_000
        out[:, groups - 1 - j] = part.take(group)


@cache
def _word_table() -> np.ndarray:
    """The words of :func:`_decimal_words` as one uint32 array: the 4
    ASCII digits of each of 0..9999, then each of them with its leading
    zeros NUL (0 keeps its last digit), then a NUL word.  Built on first
    use, so that no import pays for it, from uint8 columns: wider
    temporaries (int64 digits of 10,000 groups) raised the peak RSS."""
    digits = np.stack([np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8),
                                         10 ** (3 - k)), 10 ** k)
                       for k in range(4)], axis=1)
    # a digit is a leading zero if it and all before it are "0"
    lead = np.where(np.logical_or.accumulate(digits != ord("0"), axis=1),
                    digits, 0)
    lead[0, 3] = ord("0")
    return np.concatenate([digits, lead, np.zeros((1, 4), np.uint8)]) \
        .view(np.uint32).ravel()
