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

Each model's column schema is its row of :data:`MODELS`; column order is
part of the contract.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import NamedTuple

import numpy as np

from .diagnostics import G1_COLUMNS, PAIR_COLUMNS
from .integrator import IntegratorConfig
from .model import BT1, L1, CanonicalFrame, ModelParams, Trajectory, covariances_from_moments

__all__ = [
    "CsvFormatError",
    "ModelColumns",
    "MODELS",
    "WRITE_BLOCK",
    "Param",
    "PARAMS",
    "run_config",
    "from_config",
    "write_csv",
    "read_csv",
    "config_lines",
    "parse_config_text",
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

# Data rows rendered and written at a time. The renderer holds a few dozen
# bytes of temporaries per value, so a block of a 25-column file stays under
# a few hundred kilobytes.
WRITE_BLOCK = 512


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


def write_csv(path, config: dict, columns: list[tuple[str, np.ndarray]]) -> None:
    """Write a simulation CSV: config comments, header row, data rows.

    Each value is written byte for byte as ``"%.16e" % value`` would write
    it. Rows are rendered ``WRITE_BLOCK`` at a time by :func:`_render_rows`
    and written as bytes, so the file is never held whole in memory.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr, dtype=float) for _, arr in columns]
    n = arrays[0].shape[0]
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("all columns must share one length")
    data = np.column_stack(arrays)
    head = [f"# {line}" for line in config_lines(config)] + [",".join(names)]
    with open(path, "wb") as fh:
        fh.write("".join(f"{line}\n" for line in head).encode())
        for start in range(0, n, WRITE_BLOCK):
            fh.write(_render_rows(data[start:start + WRITE_BLOCK]))


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

    ``pow10``: the columns hi, hi's split halves and lo of 10^(16−E) at
    ``E + _E_MAX``, with hi + lo within 2^-106 of the power. Then 4-byte
    words: the digits of 0..9999; the head ``[sign, lead digit, ".", 0]`` at
    ``lead + 10·negative``; the exponent ``["e", sign, hundreds, tens]`` and
    ``[ones, 0, 0, 0]`` at ``E + _E_MAX``; and the separator words
    ``[0, ",", 0, 0]`` and ``[0, "\\n", 0, 0]``.
    """
    rows = []
    for k in range(16 + _E_MAX, 16 - _E_MAX - 1, -1):
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


def read_csv(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a simulation CSV back into (config, column arrays).

    ``#`` lines before the header are the configuration; after it they are
    comments and skipped, as are blank lines.
    """
    config_text = []
    header = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header is None:
                    config_text.append(line.lstrip("#"))
                continue
            if header is not None:
                break  # ``line`` is the first data row
            header = [c.strip() for c in line.split(",")]
            twice = [name for name in header if header.count(name) > 1]
            if twice:  # a dict of the columns would keep only the last copy
                raise CsvFormatError(f"{path}: header names column {twice[0]!r} more than once")
        else:
            # checked here because loadtxt only warns on empty input
            if header is None:
                raise CsvFormatError(f"{path}: no header row found")
            raise CsvFormatError(f"{path}: no data rows after the header")
        rows = itertools.chain([line], filter(None, map(str.strip, fh)))
        try:
            data = np.loadtxt(rows, delimiter=",", ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1] != len(header):
        raise CsvFormatError(f"{path}: {_bad_row(path, len(header)) or 'non-numeric data row'}")
    config = parse_config_text(config_text)
    return config, {name: data[:, k] for k, name in enumerate(header)}


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


def trajectory_from_columns(config: dict, columns: dict[str, np.ndarray]) -> Trajectory | None:
    """Reconstruct the run a file's echo describes from its columns.

    The header must be the echoed model's layout and ``t`` the echoed grid's
    ``sample_times`` bit for bit, else :class:`CsvFormatError` names the
    first column or data row that differs. Classical files return None.
    """
    model = config.get("model")
    if model not in MODELS:
        raise CsvFormatError(f"unknown or missing model in config: {model!r}")
    params = from_config(ModelParams, config)
    grid = from_config(IntegratorConfig, config)
    frame, moment_columns, _, _ = MODELS[model]
    layout = MODELS[model].layout(config.get("emit-xy") is True)
    for k, (found, expected) in enumerate(itertools.zip_longest(columns, layout), 1):
        if found != expected:
            raise CsvFormatError(f"header column {k} is {found or '(none)'}, the echoed "
                                 f"{model} layout has {expected or '(none)'}")
    ts, read = grid.sample_times, columns["t"]
    if len(read) != len(ts):
        raise CsvFormatError(f"{len(read)} data rows, the echoed grid (dt, t-end, "
                             f"sample-every) has {len(ts)} samples")
    off = np.flatnonzero(read.view(np.uint64) != ts.view(np.uint64))
    if off.size:
        row = int(off[0])
        raise CsvFormatError(f"t = {float(read[row])!r} at data row {row + 1}, the echoed "
                             f"grid has {float(ts[row])!r}")

    if frame is None:
        return None
    means = np.column_stack([columns[c] for c in frame.labels])
    moments = np.column_stack([columns[c] for c in moment_columns])
    return Trajectory(frame, ts, means, covariances_from_moments(moments, frame.dim), params)
