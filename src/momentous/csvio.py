"""CSV emission and parsing with an embedded, replayable configuration.

Output files start with comment lines ``# key = value`` carrying the fully
resolved run configuration, followed by one header row and data rows; a
``#`` line after the header is a comment, not configuration. Numbers are
written exactly as ``"%.16e"`` would write them (17 significant digits), so
a written file round-trips bit-exactly and re-running the echoed
configuration reproduces the file byte for byte. The digits come from a
vectorised renderer that computes the correctly rounded 17-digit decimal
in float64/int64 arithmetic; the few values it cannot settle exactly
(near a rounding tie, beyond 1e-270..1e270 in magnitude, or not finite)
are formatted one by one with ``"%.16e"`` itself.

The reader mirrors the writer. It streams the data rows through one
buffer of ``READ_BLOCK`` rows, reused from block to block, so a file is
never held whole. Fields of the shape the writer emits are parsed and
converted to the correctly rounded double in float64/uint64 arithmetic;
the few values it cannot settle exactly (near a rounding midpoint, with a
zero lead digit, or beyond 1e-270..1e270 in magnitude) are converted one
by one with ``float``. A file with any row of another shape (blank lines,
``#`` comments, CRLF, other number syntax, ``nan``, a wrong field count)
is read by ``np.loadtxt`` instead. Either way each value is the double
``float`` makes of its field.

Each model's column schema is its row of :data:`MODELS`; column order is
part of the contract.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import re
import stat
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .diagnostics import G1_COLUMNS, PAIR_COLUMNS
from .integrator import IntegratorConfig
from .model import BT1, L1, CanonicalFrame, ModelParams, Trajectory

__all__ = [
    "CsvFormatError",
    "ModelColumns",
    "MODELS",
    "WRITE_BLOCK",
    "READ_BLOCK",
    "Param",
    "PARAMS",
    "run_config",
    "from_config",
    "write_csv",
    "read_csv",
    "CsvBlocks",
    "config_lines",
    "parse_config_text",
    "emit_xy",
    "validate_columns",
    "validate_header",
    "row_count_fault",
    "grid_fault",
    "trajectory_from_columns",
]


class CsvFormatError(ValueError):
    """File is not a simulation CSV produced by this package."""


class ModelColumns(NamedTuple):
    """One model's file schema, and what reading the file back rebuilds."""

    frame: CanonicalFrame | None  # its labels name the mean columns; None: no moments
    moments: tuple[str, ...]  # the moment columns, in moment_order
    columns: list[str]  # the file columns
    xy_columns: list[str]  # the columns --emit-xy appends

    def layout(self, emit_xy: bool) -> list[str]:
        """The header of a file of this model, in order."""
        return self.columns + self.xy_columns if emit_xy else self.columns

    @property
    def stored(self) -> tuple[str, ...]:
        """The columns a quantum model's file is rebuilt from: the time, the
        means and the moments. Every other column derives from them."""
        return ("t", *self.frame.labels, *self.moments)


# the models the command line runs, by name: the one table of file schemas
MODELS = {
    "sbth": ModelColumns(
        BT1, tuple(G1_COLUMNS), ["t", *BT1.labels, *G1_COLUMNS],
        ["x", "p_x", "G20", "G02", "G11", "E_mean", "E_plus", "E_minus", "U1", "Ux"],
    ),
    "lindblad": ModelColumns(
        L1, tuple(PAIR_COLUMNS),
        ["t", "x", "p", "G20", "G02", "G11", "E_mean", "E_analytic", "U"], [],
    ),
    "classical": ModelColumns(None, (), ["t", "x", "p"], []),
}

# Data rows rendered and written at a time. The renderer's traced peak is
# about 140 bytes per value, its output included: 1.8 MB for a block of a
# 25-column file.
WRITE_BLOCK = 512

# Data rows the reader's buffer holds when every field has the longest
# shape the writer emits (24 bytes and a separator): about 320 kB for a
# 25-column file, small enough for the block's arrays to stay in cache.
READ_BLOCK = 512


class Param(NamedTuple):
    """One run parameter: its config key (the long flag is ``--<key>``), the
    field of ``owner`` it sets, the flag's type and its help text."""

    key: str
    owner: type
    field: str
    type: type
    help: str


# the run parameters; row order is the order of the echoed configuration
PARAMS = (
    Param("m", ModelParams, "m", float, "mass"),
    Param("hbar", ModelParams, "hbar", float, "action scale"),
    Param("lambda", ModelParams, "lambda_damp", float, "damping rate"),
    Param("big-omega", ModelParams, "big_omega", float, "effective frequency"),
    Param("omega0", ModelParams, "omega0", float, "natural frequency"),
    Param("gamma", ModelParams, "gamma", float, "thermal damping rate"),
    Param("omega", ModelParams, "omega", float, "oscillator frequency"),
    Param("omega-prime", ModelParams, "omega_prime", float, "shifted frequency"),
    Param("nbar", ModelParams, "nbar", float, "reservoir occupation"),
    Param("n-level", ModelParams, "n_level", int, "initial excitation level"),
    Param("dt", IntegratorConfig, "dt", float, "integrator step"),
    Param("t-end", IntegratorConfig, "t_end", float, "final time"),
    Param("sample-every", IntegratorConfig, "sample_every", int, "output decimation"),
)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(text: str):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def config_lines(config: dict) -> list[str]:
    """Render a configuration as ``key = value`` lines in dict order,
    skipping None values."""
    return [
        f"{key} = {_format_value(value)}" for key, value in config.items() if value is not None
    ]


def parse_config_text(lines) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks ignored."""
    out = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CsvFormatError(f"malformed config line: {raw.strip()!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = _parse_value(value)
    return out


def write_csv(path, config: dict, columns, blocks=None) -> None:
    """Write a simulation CSV: config comments, header row, data rows.

    ``columns`` lists the table's (name, array) pairs. A table made as it
    is written comes as the list of its column names instead, with
    ``blocks`` yielding its consecutive blocks of rows, each a list of one
    array per column; only one block is held at a time.

    Each value is written byte for byte as ``"%.16e" % value`` would write
    it. Rows are stacked and rendered ``WRITE_BLOCK`` at a time by
    :func:`_render_rows` and written as bytes, so neither the file nor the
    table of its values is ever held whole in memory. The file is written
    beside ``path`` and moved onto it once the last block is in (see
    :func:`_replacing`), so a write that fails, ``blocks`` raising
    included, leaves ``path`` as it was.
    """
    if blocks is None:
        names, blocks = [name for name, _ in columns], [[arr for _, arr in columns]]
    else:
        names = list(columns)
    head = [f"# {line}" for line in config_lines(config)] + [",".join(names)]
    with _replacing(path) as fh:
        fh.write("".join(f"{line}\n" for line in head).encode())
        for block in blocks:
            arrays = [np.asarray(arr, dtype=float) for arr in block]
            n = arrays[0].shape[0]
            if len(arrays) != len(names) or any(a.shape != (n,) for a in arrays):
                raise ValueError("all columns must share one length")
            for start in range(0, n, WRITE_BLOCK):
                fh.write(_render_rows(np.column_stack([a[start:start + WRITE_BLOCK]
                                                       for a in arrays])))


@contextlib.contextmanager
def _replacing(path):
    """A binary file whose bytes replace ``path`` when the block ends
    without an error.

    It is a new file beside ``path`` (beside the file a symbolic link
    names), moved onto it at the end with ``os.replace`` and removed on an
    error. An existing file keeps its permission bits, and one that cannot
    be written, or a directory, fails as writing it in place would. Any
    other existing path, such as a device or a pipe, is written in place.
    """
    target = os.path.realpath(path)
    exists = os.path.exists(target)
    if exists and not os.path.isfile(target):  # a directory fails here
        with open(path, "wb") as fh:
            yield fh
        return
    if exists:
        open(path, "ab").close()  # fails where writing in place would; changes nothing
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, "xb")
    except OSError as exc:  # e.g. no such directory, named as writing path would name it
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if exists:
                os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


# Exact "%.16e" rendering. A finite x != 0 is d.ddddddddddddddddde±XX with
# N = round(|x|·10^(16−E)) in [1e16, 1e17), E = floor(log10|x|). |x|·10^k is
# formed as the unevaluated sum p + t with Dekker's two-product (Dekker,
# Numer. Math. 18, 1971) against 10^k = hi + lo: p + t is within 2^-104 of
# the exact product, about 5e-15 at 1e17, so N = p + floor(t + 1/2) is the
# correctly rounded value unless t is near a half-integer. The product
# neither overflows nor loses bits to underflow while 1e-270 <= |x| <= 1e270.
_FAST_RANGE = (1e-270, 1e270)
_E_MAX = 272  # |E| in the fast range, with room for floor(log10) missing by one
_TIE_GAP = 1e-6  # t within this of a half-integer is left to "%.16e" itself


def _split(a):
    """Veltkamp's split of float64 values into 26- and 27-bit halves."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _words(text_bytes: np.ndarray) -> np.ndarray:
    """Rows of 4 bytes as one native uint32 each (0 bytes are dropped later)."""
    return np.ascontiguousarray(text_bytes, dtype=np.uint8).view(np.uint32).ravel()


@functools.cache
def _render_tables():
    """The renderer's lookup tables, built on first use.

    ``pow10``: the columns hi, hi's split halves and lo of 10^k at row
    ``16 + _E_MAX − k``, with hi + lo within 2^-106 of the power: the
    writer's 10^(16−E) at ``E + _E_MAX``, the reader's 10^(E−16) at
    ``32 − E + _E_MAX``. Then 4-byte words: the digits of 0..9999; the head
    ``[sign, lead digit, ".", 0]`` at ``lead + 10·negative``; the exponent
    ``["e", sign, hundreds, tens]`` and ``[ones, 0, 0, 0]`` at
    ``E + _E_MAX``; and the separator words ``[0, ",", 0, 0]`` and
    ``[0, "\\n", 0, 0]``.
    """
    rows = []
    for k in range(16 + _E_MAX, -16 - _E_MAX - 1, -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int: correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(rows).T
    pow10 = (hi, *_split(hi), lo)

    zero, dot, plus, minus = (ord(c) for c in "0.+-")
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + zero
    lead = np.arange(20)
    heads = np.column_stack([np.where(lead >= 10, minus, 0), lead % 10 + zero,
                             np.full(20, dot), np.zeros(20, int)])
    e = np.arange(-_E_MAX, _E_MAX + 1)
    a = np.abs(e)
    exp_high = np.column_stack([np.full(e.size, ord("e")), np.where(e < 0, minus, plus),
                                np.where(a >= 100, a // 100 + zero, 0), a // 10 % 10 + zero])
    exp_low = np.zeros((e.size, 4), int)
    exp_low[:, 0] = a % 10 + zero
    seps = [[0, ord(","), 0, 0], [0, ord("\n"), 0, 0]]
    return pow10, _words(digits), _words(heads), _words(exp_high), _words(exp_low), _words(seps)


def _scaled(a: np.ndarray, e: np.ndarray, pow10):
    """``a·10^(16−e)`` as ``p + t``: ``p`` its rounded product, ``t`` the rest."""
    hi, hi_high, hi_low, lo = (column[e + _E_MAX] for column in pow10)
    p = a * hi
    a_high, a_low = _split(a)
    t = (((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low) + a * lo
    return p, t


def _decimals(x: np.ndarray):
    """``N`` (the 17 significant digits as one integer, 0 for ±0) and ``E``
    of each value of ``x`` as ``"%.16e"`` writes it, and the mask of the
    values where they are exact. The others (see above) are left to
    ``"%.16e"`` itself."""
    pow10 = _render_tables()[0]
    a = np.abs(x)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, e, pow10)
    # floor(log10) can miss by one next to a power of ten; decide on p + t
    shift = ((p - 1e17) + t >= 0).astype(np.int64) - ((p - 1e16) + t < 0)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        p[moved], t[moved] = _scaled(a[moved], e[moved], pow10)
    rounded = np.floor(t + 0.5)
    exact = fast & (np.abs(t - rounded) <= 0.5 - _TIE_GAP)  # not near a tie
    n = p.astype(np.int64) + rounded.astype(np.int64)
    carry = n == 10**17  # rounded up to the next power of ten
    n[carry] = 10**16
    e += carry
    zero = x == 0.0
    n[zero] = 0
    e[zero] = 0
    return n, e, exact | zero


def _render_rows(block: np.ndarray) -> bytes:
    """The CSV bytes of a 2-D block of float64 rows: each value as
    ``"%.16e"``, a comma between values and a newline after each row.

    Each value fills seven 4-byte words (head, four digit chunks, two
    exponent words holding the separator); the unused bytes are 0 and are
    dropped at the end. Values without exact decimals are formatted one by
    one and copied in.
    """
    _, digits, heads, exp_high, exp_low, (comma, newline) = _render_tables()
    x = block.ravel()
    n, e, exact = _decimals(x)
    # floor division by a constant is fast in numpy, % is not
    lead = n // 10**16
    rest = n - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    out = np.empty((*block.shape, 7), np.uint32)
    words = out.reshape(-1, 7)
    words[:, 0] = heads[lead + 10 * np.signbit(x)]
    for col, part in ((1, high), (3, low)):
        chunk = part // 10**4
        words[:, col] = digits[chunk]
        words[:, col + 1] = digits[part - chunk * 10**4]
    words[:, 5] = exp_high[e + _E_MAX]
    separators = np.full(block.shape[1], comma)
    separators[-1] = newline
    out[..., 6] = exp_low[e + _E_MAX].reshape(block.shape) | separators
    # the rest as "%.16e" writes them, padded with 0 up to the separator
    inexact = np.flatnonzero(~exact)
    text = "".join(("%.16e" % v).ljust(25, "\0") for v in x[inexact].tolist())
    out.view(np.uint8).reshape(-1, 28)[inexact, :25] = np.frombuffer(
        text.encode(), np.uint8).reshape(-1, 25)
    return out.tobytes().translate(None, b"\0")


def read_csv(path, block: int | None = None):
    """Read a simulation CSV back into (config, column arrays).

    ``#`` lines before the header are the configuration; after it they are
    comments and skipped, as are blank lines. Each value is the double
    ``float`` makes of its field. A file whose rows all have the writer's
    shape is parsed block by block (:func:`_read_rows`); any other file is
    read whole by ``np.loadtxt``.

    With ``block``, only the configuration and the header are read yet:
    the second item is a :class:`CsvBlocks` whose ``blocks`` parses the
    data rows as they are read, ``block`` rows at a time.
    """
    if block is not None and block < 1:
        raise ValueError(f"block must be at least 1 row, got {block!r}")
    config_text, header, blocks = _open_table(path, block)
    config = parse_config_text(config_text)
    if block is not None:
        return config, CsvBlocks(header, blocks)
    return config, next(blocks)  # without a block size, the whole table is one block


class CsvBlocks(NamedTuple):
    """A CSV file's header and its data rows, parsed as they are read:
    ``blocks`` yields consecutive blocks of rows as dicts of column arrays,
    can be read once and raises :class:`CsvFormatError` at a row it cannot
    read. A block's arrays are overwritten by the next block."""

    header: list[str]
    blocks: Iterator[dict[str, np.ndarray]]


def _open_table(path, rows: int | None):
    """The configuration lines and the header of a file, and a generator of
    its data rows in blocks of ``rows`` (or one block of them all).

    The rows are parsed by :func:`_read_rows` while they have the writer's
    shape. At the first block that does not, the file is read whole by
    ``np.loadtxt``, and its rows from that block on are served from there.
    """
    fh = open(path, "rb")
    try:
        config_text, header, line = _head(_plain_lines(fh), path)
    except _OtherShape:
        fh.close()
        config_text, header, data = _loadtxt(path)
        return config_text, header, _blocks_of(data, header, rows, 0)
    except BaseException:
        fh.close()
        raise
    return config_text, header, _parsed(fh, line, header, path, rows)


def _parsed(fh, line, header, path, rows):
    """:func:`_open_table`'s generator for a file whose head has the
    writer's shape; ``line`` is its first data row."""
    done = 0  # rows already yielded
    try:
        with fh:
            for data in _read_rows(fh, line, len(header), rows):
                yield dict(zip(header, data.T))
                done += len(data)
            return
    except _OtherShape:
        pass
    yield from _blocks_of(_loadtxt(path)[2], header, rows, done)


def _blocks_of(data: np.ndarray, header, rows: int | None, start: int):
    """The rows of a whole table from ``start`` on, in blocks of ``rows``."""
    rows = rows or max(len(data), 1)
    for first in range(start, len(data), rows):
        yield dict(zip(header, data[first:first + rows].T))


def _loadtxt(path):
    """The configuration lines, the header and the data of a file read by
    ``np.loadtxt``."""
    with open(path) as fh:
        config_text, header, line = _head(fh, path)
        lines = itertools.chain([line], filter(None, map(str.strip, fh)))
        try:
            data = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1] != len(header):
        raise CsvFormatError(f"{path}: {_bad_row(path, len(header)) or 'non-numeric data row'}")
    return config_text, header, data


class _OtherShape(Exception):
    """A line the block reader does not take: the file is read by ``np.loadtxt``."""


def _plain_lines(fh):
    """The lines of a binary file as text, while they read the same as in
    text mode: ASCII, with no carriage return."""
    for raw in fh:
        if b"\r" in raw or not raw.isascii():
            raise _OtherShape
        yield raw.decode()


def _head(lines, path):
    """The configuration lines, the header and the first data row (stripped)
    of a file's lines; the lines after the first data row are left unread."""
    config_text = []
    header = None
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is None:
                config_text.append(line.lstrip("#"))
            continue
        if header is not None:
            return config_text, header, line
        header = [c.strip() for c in line.split(",")]
        twice = [name for name in header if header.count(name) > 1]
        if twice:  # a dict of the columns would keep only the last copy
            raise CsvFormatError(f"{path}: header names column {twice[0]!r} more than once")
    if header is None:
        raise CsvFormatError(f"{path}: no header row found")
    raise CsvFormatError(f"{path}: no data rows after the header")


# Exact parsing of the writer's fields, -?d.dddddddddddddddde[+-]dd(d). A
# field's 17 digits make N = (lead·10^8 + a)·10^8 + b < 10^17, exact in
# uint64 and as the double-double nh + nl. Its value N·10^(E−16) is formed
# as p + t with the writer's Dekker product against 10^(E−16) = hi + lo,
# within 2^-102 of the exact product while 1e-270 <= |value| < 1e270 (see
# above). fl(p + t) is then the correctly rounded value (Clinger, PLDI
# 1990) unless p + t lies within 2^-100 of a rounding midpoint; those
# values, and zero-led or out-of-range ones, are left to float().
_FIELD = 25  # the longest field, with its separator
_READ_PAD = 8  # bytes before the parsed region; the gathers read past its end
_E_RANGE = (-270, 269)
_MIDPOINT_GAP = 2.0**-100
_U = np.uint64
_ZEROS = _U(0x3030303030303030)  # "00000000"


def _read_rows(fh, line: str, width: int, rows: int | None):
    """The data rows of a file, from its first data row ``line`` and the
    rest of ``fh``, as (rows, width) arrays of ``rows`` rows each (the last
    may be shorter), or one array of them all when ``rows`` is None; the
    next array overwrites the one before. Raises :class:`_OtherShape` at
    the first buffer with a row the writer would not write.

    The rows pass through one buffer of ``READ_BLOCK`` rows of the longest
    shape; a row left incomplete at its end starts the next buffer.
    """
    cap = READ_BLOCK * _FIELD * width
    buf = np.zeros(_READ_PAD + cap + 1 + 32, np.uint8)
    # 24 bytes from each offset: a field's two digit groups and its exponent
    window = np.ndarray((buf.size - 23,), "V24", buffer=buf, strides=(1,))
    first = np.frombuffer(line.encode() + b"\n", np.uint8)
    if first.size > _FIELD * width:
        raise _OtherShape  # a row longer than the writer writes
    # rows are no shorter than 23 bytes a field; pages never written stay unmapped
    size = first.size + os.fstat(fh.fileno()).st_size - fh.tell()
    most = size // (23 * width) + 1
    data = np.empty((most if rows is None else min(rows, most), width))
    buf[_READ_PAD:_READ_PAD + first.size] = first
    end = _READ_PAD + first.size  # the end of the bytes not yet parsed
    filled = 0  # rows of data holding this block's rows
    while True:
        got = fh.readinto(memoryview(buf)[end:_READ_PAD + cap])
        end += got
        if not got:
            if end == _READ_PAD:
                if filled:
                    yield data[:filled]
                return
            if buf[end - 1] != ord("\n"):  # the last row, unterminated
                buf[end] = ord("\n")
                end += 1
        tail = max(_READ_PAD, end - _FIELD * width)  # holds a whole row's newline
        newlines = np.flatnonzero(buf[tail:end] == ord("\n"))
        if not newlines.size:
            raise _OtherShape  # a row longer than the writer writes
        stop = tail + int(newlines[-1]) + 1
        values = _parse_rows(buf, window, _READ_PAD, stop, width)
        while len(values):
            taken = values[:len(data) - filled]
            data[filled:filled + len(taken)] = taken
            filled += len(taken)
            values = values[len(taken):]
            if filled == len(data):
                yield data
                filled = 0
        buf[_READ_PAD:_READ_PAD + end - stop] = buf[stop:end]
        end = _READ_PAD + end - stop


def _parse_rows(buf, window, lo: int, hi: int, width: int) -> np.ndarray:
    """The values of the rows in ``buf[lo:hi]`` (ending with a newline) as a
    (rows, width) array; :class:`_OtherShape` unless every field has the
    writer's shape and every row ``width`` fields. Each step is its own
    function, so its temporaries are freed before the next one starts."""
    starts, ends = _field_bounds(buf[lo:hi], width)
    starts += lo
    ends += lo
    negative = buf[starts] == ord("-")
    n, e = _mantissas_and_exponents(buf, window, starts + negative, ends)
    r, unsettled = _nearest_doubles(n, e)
    for k in np.flatnonzero(unsettled).tolist():
        r[k] = abs(float(buf[starts[k]:ends[k]].tobytes()))
    r.view(_U)[:] |= negative.astype(_U) << _U(63)  # the sign bit; zero keeps it too
    return r.reshape(-1, width)


def _field_bounds(text: np.ndarray, width: int):
    """The offsets in ``text`` where each field starts and where its
    separator is; :class:`_OtherShape` unless every line has ``width``
    fields separated by commas."""
    # of a writer's row, only the separators and an exponent's "+" are bytes <= ","
    marks = np.flatnonzero(text <= ord(","))
    kinds = text[marks]
    kept = kinds != ord("+")
    ends, kinds = marks[kept], kinds[kept]
    if ends.size % width:
        raise _OtherShape
    kinds = kinds.reshape(-1, width)
    if not ((kinds[:, :-1] == ord(",")).all() and (kinds[:, -1] == ord("\n")).all()):
        raise _OtherShape
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    return starts, ends


def _mantissas_and_exponents(buf, window, at, ends):
    """``N`` (the 17 digits as one integer) and ``E`` of each field, given
    its lead digit at ``at`` and its separator at ``ends``;
    :class:`_OtherShape` unless each reads d.dddddddddddddddde[+-]dd(d)."""
    long_exp = (ends - at - 22).astype(_U)  # 0: two exponent digits, 1: three
    lead = buf[at] - np.uint8(ord("0"))
    dot = buf[at + 1] ^ np.uint8(ord("."))
    words = window[at + 2].view("<u8").reshape(-1, 3)  # first byte lowest
    # the exponent word "e±dd?" becomes the digit word "000000dd" or "00000ddd"
    exp = words[:, 2]
    exp_sign = (exp & _U(0xFFFF)) - _U(0x2B65)  # "e+": 0, "e-": 0x200
    shift = long_exp << _U(3)
    exp >>= _U(16)
    exp <<= _U(48) - shift
    exp |= _ZEROS >> (_U(16) + shift)
    not_digits = _digit_words(words)
    if (not_digits.any() or dot.any() or (lead > 9).any() or (long_exp >> _U(1)).any()
            or (exp_sign & ~_U(0x200)).any()):
        raise _OtherShape
    n = (lead.astype(_U) * _U(10**8) + words[:, 0]) * _U(10**8) + words[:, 1]
    minus = exp_sign >> _U(9)
    return n, ((exp ^ -minus) + minus).view(np.int64)


def _nearest_doubles(n, e):
    """The double nearest ``N·10^(E−16)``, and the mask of the values it may
    miss (see above), which must be redone; zero is exact."""
    settled = (n >= _U(10**16)) & ((e - _E_RANGE[0]).view(_U) <= _U(_E_RANGE[1] - _E_RANGE[0]))
    # _scaled(a, 32 − E) is a·10^(E−16); an E out of range is clamped and redone
    mirrored = 32 - np.minimum(np.maximum(e, _E_RANGE[0]), _E_RANGE[1])
    pow10 = _render_tables()[0]
    nh = n.astype(np.float64)
    nl = (n - nh.astype(_U)).view(np.int64).astype(np.float64)
    p, t = _scaled(nh, mirrored, pow10)
    t += nl * pow10[0][mirrored + _E_MAX]
    r = p + t
    error = t - (r - p)  # exactly p + t − r
    # half the gap above r; below a power of two the gap is half as wide
    half = ((r.view(_U) & _U(0x7FF0000000000000)) - _U(53 << 52)).view(np.float64)
    gap = r * _MIDPOINT_GAP
    near = (np.abs(np.abs(error) - half) <= gap) | (np.abs(error + 0.5 * half) <= gap)
    return r, (near | ~settled) & (n != 0)


def _digit_words(words: np.ndarray) -> np.ndarray:
    """In place, each little-endian uint64 of eight ASCII digits becomes
    their value, the first digit the most significant (Lemire, Softw. Pract.
    Exp. 51(8), 2021). Returns words that are nonzero where a byte was not a
    digit."""
    words -= _ZEROS
    not_digits = (words + _U(0x0606060606060606)) | words
    not_digits &= _U(0xF0F0F0F0F0F0F0F0)
    words *= _U(10 * 2**8 + 1)  # digit pairs in the even bytes
    words >>= _U(8)
    words &= _U(0x00FF00FF00FF00FF)
    words *= _U(100 * 2**16 + 1)  # groups of four in the even 16-bit lanes
    words >>= _U(16)
    words &= _U(0x0000FFFF0000FFFF)
    words *= _U(10000 * 2**32 + 1)
    words >>= _U(32)
    return not_digits


def _bad_row(path, width: int) -> str | None:
    """The fault of the first data row that is not ``width`` numbers, naming
    its file line (``np.loadtxt`` counts data rows only); None if no row has
    one. A second pass over the file, taken only after a failed read."""
    with open(path) as fh:
        lines = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(fh, 1))
        for number, text in itertools.islice(filter(lambda nl: nl[1], lines), 1, None):
            fields = text.split(",")  # a data row: the header was skipped
            if len(fields) != width:
                return (f"data does not match header width at line {number} "
                        f"({len(fields)} fields, header has {width})")
            for field in fields:
                try:
                    if "_" in field:  # float() takes digit separators, loadtxt not
                        raise ValueError(field)
                    float(field)
                except ValueError:
                    return f"non-numeric data row at line {number} (field {field.strip()!r})"
    return None


def run_config(params: ModelParams, grid: IntegratorConfig) -> dict:
    """The echoed configuration of a run, one key per parameter row."""
    return {p.key: getattr(params if p.owner is ModelParams else grid, p.field) for p in PARAMS}


def from_config(owner: type, config: dict):
    """Build ``owner`` (:class:`ModelParams` or :class:`IntegratorConfig`)
    from config keys; a missing key is passed as None.

    Validation is the dataclass's own; its ``ValueError`` is re-raised with
    field names replaced by config keys.
    """
    rows = [p for p in PARAMS if p.owner is owner]
    try:
        return owner(**{p.field: config.get(p.key) for p in rows})
    except ValueError as exc:
        message = str(exc)
        for p in rows:
            message = re.sub(rf"\b{p.field}\b", p.key, message)
        raise ValueError(message) from None


def emit_xy(config: dict) -> bool:
    """A configuration's ``emit-xy``: False when absent, else it must be a bool."""
    value = config.get("emit-xy", False)
    if not isinstance(value, bool):
        raise CsvFormatError(f"emit-xy must be true or false, got {value!r}")
    return value


def validate_columns(config: dict, columns: dict[str, np.ndarray]) -> str:
    """Hold a file's columns to the run its echo describes; return its model.

    The header must be the echoed model's layout and ``t`` the echoed grid's
    ``sample_times`` bit for bit, else :class:`CsvFormatError` names the
    first column or data row that differs; an unusable echoed parameter is
    a ``ValueError`` naming its key.
    """
    model = validate_header(config, list(columns))
    grid = from_config(IntegratorConfig, config)
    fault = row_count_fault(len(columns["t"]), grid) or grid_fault(columns["t"], grid)
    if fault is not None:
        raise CsvFormatError(fault)
    return model


def validate_header(config: dict, header: list[str]) -> str:
    """The first half of :func:`validate_columns`, which needs no data row:
    the echo's model and parameters, and the header."""
    model = config.get("model")
    if model not in MODELS:
        raise CsvFormatError(f"unknown or missing model in config: {model!r}")
    from_config(ModelParams, config)
    from_config(IntegratorConfig, config)
    layout = MODELS[model].layout(emit_xy(config))
    for k, (found, expected) in enumerate(itertools.zip_longest(header, layout), 1):
        if found != expected:
            raise CsvFormatError(f"header column {k} is {found or '(none)'}, the echoed "
                                 f"{model} layout has {expected or '(none)'}")
    return model


def row_count_fault(n_rows: int, grid: IntegratorConfig) -> str | None:
    """Why a file of ``n_rows`` data rows is not a run on ``grid``, or None."""
    if n_rows != grid.n_samples:
        return (f"{n_rows} data rows, the echoed grid (dt, t-end, sample-every) has "
                f"{grid.n_samples} samples")
    return None


def grid_fault(read: np.ndarray, grid: IntegratorConfig, start: int = 0) -> str | None:
    """The first of the times ``read`` of data rows ``start``, ``start + 1``,
    ... that is not the time of that sample of ``grid`` bit for bit, or
    None. Rows beyond the grid are not compared."""
    ts = grid.block_times(start, start + len(read))
    off = np.flatnonzero(read[:len(ts)].view(np.uint64) != ts.view(np.uint64))
    if not off.size:
        return None
    row = int(off[0])
    return (f"t = {float(read[row])!r} at data row {start + row + 1}, the echoed grid has "
            f"{float(ts[row])!r}")


def trajectory_from_columns(config: dict, columns: dict[str, np.ndarray],
                            rows: slice | None = None) -> Trajectory | None:
    """Reconstruct the run a file's echo describes from its columns.

    Without ``rows``, the file is first held to its echo
    (:func:`validate_columns`) and every data row is rebuilt. With
    ``rows``, a slice of data rows of a file that has passed
    :func:`validate_columns`, only those rows are rebuilt, so a long file
    can be analysed block by block from the table :func:`read_csv` returns.
    The trajectory owns fresh arrays; none of them views the table.
    Classical files return None.
    """
    if rows is None:
        validate_columns(config, columns)
        rows = slice(None)
    frame, moment_columns, _, _ = MODELS[config["model"]]
    if frame is None:
        return None
    ts = np.array(columns["t"][rows])
    means = np.column_stack([columns[c][rows] for c in frame.labels])
    # both triangles straight from the moment columns, in moment_order
    covs = np.empty((len(ts), frame.dim, frame.dim))
    for name, i, j in zip(moment_columns, *np.triu_indices(frame.dim)):
        covs[:, i, j] = covs[:, j, i] = columns[name][rows]
    for arr in (ts, means, covs):  # fresh arrays: the trajectory adopts them
        arr.setflags(write=False)
    return Trajectory(frame, ts, means, covs, from_config(ModelParams, config))
