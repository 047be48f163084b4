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

The reader mirrors the writer. It reads a file once, through one buffer
of ``READ_BLOCK`` rows reused from read to read, so a file is never held
whole. A buffer of rows of the writer's shape is parsed and converted to
the correctly rounded double in float64/uint64 arithmetic; the few values
it cannot settle exactly (near a rounding midpoint, with a zero lead
digit, or beyond 1e-270..1e270 in magnitude) are converted one by one
with ``float``. A buffer with a line of any other shape (blank lines,
``#`` comments, CRLF, other number syntax, ``nan``, a wrong field count)
is parsed line by line, each field by ``float``. Either way each value
is the double ``float`` makes of its field. The rows are regrouped into
blocks by the integrator's rule for its samples, in one reused table.

Each model's column schema is its row of :data:`MODELS`; column order is
part of the contract.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import itertools
import os
import re
import stat
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .diagnostics import G1_COLUMNS, PAIR_COLUMNS, classical_trajectory
from .integrator import IntegratorConfig, _reblocked
from .model import BT1, L1, CanonicalFrame, ModelParams, Trajectory, finite_real, moment_layout

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
    moments: tuple[str, ...]  # the moment columns, in moment_layout's order
    columns: list[str]  # the file columns
    xy_columns: list[str]  # the columns --emit-xy appends

    def layout(self, emit_xy: bool) -> list[str]:
        """The header of a file of this model, in order."""
        return self.columns + self.xy_columns if emit_xy else self.columns

    @property
    def stored(self) -> tuple[str, ...]:
        """The columns a model's file is rebuilt from: the time, and for a
        quantum model the means and the moments. Every other column derives
        from them; a classical file's are the closed form at its times."""
        if self.frame is None:
            return ("t",)
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


def write_csv(path, config: dict, names, blocks) -> None:
    """Write a simulation CSV: config comments, header row, data rows.

    ``names`` are the table's columns, and ``blocks`` yields its
    consecutive blocks of rows, each a list of one array per column; only
    one block is held at a time, and a table held whole is one block.

    Each value is written byte for byte as ``"%.16e" % value`` would write
    it. Rows are stacked and rendered ``WRITE_BLOCK`` at a time by
    :func:`_render_rows` and written as bytes, so neither the file nor the
    table of its values is ever held whole in memory. The file is written
    beside ``path`` and moved onto it once the last block is in (see
    :func:`_replacing`), so a write that fails, ``blocks`` raising
    included, leaves ``path`` as it was.
    """
    names = list(names)
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
    e_row = e + _E_MAX
    hi, hi_high, hi_low, lo = (column[e_row] for column in pow10)
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
    e_row = e + _E_MAX
    words[:, 5] = exp_high[e_row]
    separators = np.full(block.shape[1], comma)
    separators[-1] = newline
    out[..., 6] = exp_low[e_row].reshape(block.shape) | separators
    if not exact.all():
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
    ``float`` makes of its field. The file is read once, front to back, so
    it may be a pipe; a buffer of rows of the writer's shape is parsed as a
    block (:func:`_parse_rows`), any other line by line
    (:func:`_parse_lines`).

    With ``block``, only the configuration and the header are read yet:
    the second item is a :class:`CsvBlocks` whose ``blocks`` parses the
    data rows as they are read, ``block`` rows at a time; ``block`` must
    be an integer >= 1, else ``ValueError`` names it.
    """
    if block is not None:
        block = finite_real("block", block, integral=True)
        if block < 1:
            raise ValueError(f"block must be at least 1 row, got {block!r}")
    rows = _read_rows(path, block)
    config, header = next(rows)
    if block is not None:
        return config, CsvBlocks(header, rows)
    return config, next(rows)  # without a block size, the whole table is one block


class CsvBlocks(NamedTuple):
    """A CSV file's header and its data rows, parsed as they are read:
    ``blocks`` yields consecutive blocks of rows as dicts of column arrays,
    can be read once and raises :class:`CsvFormatError` at a row it cannot
    read. A block's arrays are overwritten by the next block. The file is
    closed when ``blocks`` is read to its end or dropped, read or not."""

    header: list[str]
    blocks: Iterator[dict[str, np.ndarray]]


def _text(raw: bytes, path, number: int) -> str:
    """File line ``number`` decoded as UTF-8."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: line {number} is not UTF-8 text "
                             f"(byte {raw[exc.start]:#04x})") from None


def _head(fh, path):
    """The configuration lines and the header of a binary file, the bytes
    read past the header's line (at most one read of ``READ_BLOCK · _FIELD``
    bytes, so they fit the data buffer), and the header's line number. A
    file whose first line starts with a UTF-8 byte-order mark is refused:
    the mark hides the ``#`` of that line, which would be read as the
    header."""
    config_text = []
    number = 0
    text = b""  # read, not yet split into lines
    while True:
        chunk = fh.read(READ_BLOCK * _FIELD)
        text += chunk
        stop = _line_end(np.frombuffer(text, np.uint8), 0, len(text)) if chunk else len(text)
        parts = text[:stop].splitlines(keepends=True)  # as text mode splits them
        for k, part in enumerate(parts):
            number += 1
            if number == 1 and part.startswith(codecs.BOM_UTF8):
                raise CsvFormatError(f"{path}: line 1 starts with a UTF-8 byte-order mark")
            line = _text(part, path, number).strip()
            if not line:
                continue
            if line.startswith("#"):
                config_text.append(line.lstrip("#"))
                continue
            header = [c.strip() for c in line.split(",")]
            twice = [name for name in header if header.count(name) > 1]
            if twice:  # a dict of the columns would keep only the last copy
                raise CsvFormatError(f"{path}: header names column {twice[0]!r} more than once")
            return config_text, header, b"".join(parts[k + 1:]) + text[stop:], number
        text = text[stop:]
        if not chunk:
            raise CsvFormatError(f"{path}: no header row found")


def _line_end(text: np.ndarray, start: int, end: int) -> int:
    """The offset after the last line end in ``text[start:end]``, or 0: a
    ``\\n``, or a ``\\r`` before the last byte (the last may start a
    ``\\r\\n``)."""
    part = text[start:end]
    ends = part == ord("\n")
    ends[:-1] |= part[:-1] == ord("\r")
    found = np.flatnonzero(ends)
    return start + int(found[-1]) + 1 if found.size else 0


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


def _read_rows(path, rows: int | None):
    """The file at ``path``, opened here and closed when its last block is
    read or the generator is dropped: first (config, header), then its data
    rows in blocks of ``rows`` rows (the last may be shorter; one block when
    None), each a dict of column arrays that the next block overwrites."""
    with open(path, "rb") as fh:
        config_text, header, rest, number = _head(fh, path)
        yield parse_config_text(config_text), header
        width = len(header)
        # rows of the writer's shape are no shorter than 23 bytes a field;
        # pages never written stay unmapped. A pipe has no size to read:
        # its table starts at READ_BLOCK rows and grows as rows come.
        most = READ_BLOCK
        status = os.fstat(fh.fileno())
        if stat.S_ISREG(status.st_mode):  # the bytes after those _head consumed
            most = (len(rest) + status.st_size - fh.tell()) // (23 * width) + 1
        empty = True
        for block in _reblocked(_buffers(fh, rest, number, width, path), rows, width, most):
            empty = False
            yield dict(zip(header, block.T))
    if empty:
        raise CsvFormatError(f"{path}: no data rows after the header")


def _buffers(fh, rest: bytes, number: int, width: int, path):
    """:func:`_read_rows`'s rows as (rows, width) arrays, one for each
    buffer of whole lines: ``rest``, then what is read from ``fh``. A line
    left incomplete at a buffer's end starts the next one; a line longer
    than the buffer is completed by ``fh.readline``."""
    cap = READ_BLOCK * _FIELD * width
    buf = np.zeros(_READ_PAD + cap + 1 + 32, np.uint8)
    # 24 bytes from each offset: a field's two digit groups and its exponent
    window = np.ndarray((buf.size - 23,), "V24", buffer=buf, strides=(1,))
    buf[_READ_PAD:_READ_PAD + len(rest)] = np.frombuffer(rest, np.uint8)
    end = _READ_PAD + len(rest)  # the end of the bytes not yet parsed
    while True:
        room = memoryview(buf)[end:_READ_PAD + cap]
        got = fh.readinto(room)
        end += got
        if room.nbytes and not got:  # no byte where there was room: the end
            if end == _READ_PAD:
                return
            if buf[end - 1] != ord("\n"):  # the last line, unterminated
                buf[end] = ord("\n")
                end += 1
        # a writer's row ends in the tail; a longer line, further back
        stop = (_line_end(buf, max(_READ_PAD, end - _FIELD * width), end)
                or _line_end(buf, _READ_PAD, end))
        if stop:
            try:
                values = _parse_rows(buf, window, _READ_PAD, stop, width)
                lines = len(values)
            except _OtherShape:
                values, lines = _parse_lines(buf[_READ_PAD:stop].tobytes(), number, width, path)
        else:  # the buffer is inside one line
            stop = end
            values, lines = _parse_lines(buf[_READ_PAD:end].tobytes() + fh.readline(), number,
                                         width, path)
        number += lines
        yield values
        buf[_READ_PAD:_READ_PAD + end - stop] = buf[stop:end]
        end = _READ_PAD + end - stop


class _OtherShape(Exception):
    """A buffer :func:`_parse_rows` does not take: :func:`_parse_lines` reads it."""


def _parse_lines(text: bytes, number: int, width: int, path):
    """The values of the data rows in ``text``, the whole lines after file
    line ``number``, as a (rows, width) array, and the count of its lines.
    Blank lines and ``#`` comments are skipped. Each field is the double
    ``float`` makes of it, but one holding ``_`` or a non-ASCII character
    (``float`` takes them, numpy's parser not) is a :class:`CsvFormatError`
    naming its file line, as is a row of another width."""
    rows = []
    lines = text.splitlines()  # as text mode splits them
    for number, raw in enumerate(lines, number + 1):
        line = _text(raw, path, number).split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise CsvFormatError(f"{path}: data does not match header width at line {number} "
                                 f"({len(fields)} fields, header has {width})")
        row = []
        for field in fields:
            field = field.strip()
            try:
                if "_" in field or not field.isascii():
                    raise ValueError(field)
                row.append(float(field))
            except ValueError:
                raise CsvFormatError(f"{path}: non-numeric data row at line {number} "
                                     f"(field {field!r})") from None
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, width), len(lines)


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
    model, _, grid = validate_header(config, list(columns))
    fault = row_count_fault(len(columns["t"]), grid) or grid_fault(columns["t"], grid)
    if fault is not None:
        raise CsvFormatError(fault)
    return model


def validate_header(config: dict, header: list[str]) -> tuple[str, ModelParams, IntegratorConfig]:
    """The first half of :func:`validate_columns`, which needs no data row:
    the echo's model and parameters, and the header. Returns the model,
    the parameters and the grid."""
    model = config.get("model")
    if model not in MODELS:
        raise CsvFormatError(f"unknown or missing model in config: {model!r}")
    params, grid = from_config(ModelParams, config), from_config(IntegratorConfig, config)
    layout = MODELS[model].layout(emit_xy(config))
    for k, (found, expected) in enumerate(itertools.zip_longest(header, layout), 1):
        if found != expected:
            raise CsvFormatError(f"header column {k} is {found or '(none)'}, the echoed "
                                 f"{model} layout has {expected or '(none)'}")
    return model, params, grid


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
                            validate: bool = True) -> Trajectory:
    """Reconstruct the run a file's echo describes from its stored columns:
    the closed form at the file's times for a classical file.

    The file is first held to its echo (:func:`validate_columns`), unless
    ``validate`` is False: then the columns are a block of data rows of a
    file whose header and rows are held to the echo as they are read, so a
    long file can be analysed block by block from the :class:`CsvBlocks`
    :func:`read_csv` returns. The trajectory owns fresh arrays; none of
    them views the columns.
    """
    if validate:
        validate_columns(config, columns)
    frame, moment_columns, _, _ = MODELS[config["model"]]
    params = from_config(ModelParams, config)
    if frame is None:
        return classical_trajectory(params, columns["t"])
    ts = np.array(columns["t"])
    means = np.column_stack([columns[c] for c in frame.labels])
    covs = moment_layout(frame.dim).covariances([columns[c] for c in moment_columns])
    for arr in (ts, means, covs):  # fresh arrays: the trajectory adopts them
        arr.setflags(write=False)
    return Trajectory(frame, ts, means, covs, params)
