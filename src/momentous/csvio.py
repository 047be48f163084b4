"""CSV emission and parsing with an embedded, replayable configuration.

Output files start with comment lines ``# key = value`` carrying the fully
resolved run configuration, followed by one header row and data rows; a
``#`` line after the header is a comment, not configuration. Numbers are
written as ``"%.16e"`` (17 significant digits), so a written file
round-trips bit-exactly and re-running the echoed configuration reproduces
the file byte for byte.

Fixed column schemas (column order is part of the contract):

two-oscillator runs
    ``t, x1, p1, p2, x2, G1_2000, G1_1100, G1_1010, G1_1001, G1_0200,
    G1_0110, G1_0101, G1_0020, G1_0011, G1_0002`` plus, when the XY view is
    requested, ``x, p_x, G20, G02, G11, E_mean, E_plus, E_minus, U1, Ux``.
thermal (Lindblad) runs
    ``t, x, p, G20, G02, G11, E_mean, E_analytic, U``.
classical runs
    ``t, x, p``.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

import numpy as np

from .diagnostics import G1_COLUMNS, PAIR_COLUMNS
from .integrator import IntegratorConfig
from .model import BT1, L1, CanonicalFrame, ModelParams, Trajectory, covariances_from_moments

__all__ = [
    "CsvFormatError",
    "SBTH_BASE_COLUMNS",
    "SBTH_XY_COLUMNS",
    "LINDBLAD_COLUMNS",
    "CLASSICAL_COLUMNS",
    "ModelColumns",
    "MODELS",
    "WRITE_BLOCK",
    "GRID_RTOL",
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


SBTH_BASE_COLUMNS = ["t", *BT1.labels, *G1_COLUMNS]
SBTH_XY_COLUMNS = ["x", "p_x", "G20", "G02", "G11", "E_mean", "E_plus", "E_minus", "U1", "Ux"]
LINDBLAD_COLUMNS = ["t", "x", "p", "G20", "G02", "G11", "E_mean", "E_analytic", "U"]
CLASSICAL_COLUMNS = ["t", "x", "p"]


class ModelColumns(NamedTuple):
    """One model's file schema, and what reading the file back rebuilds."""

    frame: CanonicalFrame | None  # its labels name the mean columns; None: no moments
    moments: tuple[str, ...]  # the moment columns, in moment_order
    columns: list[str]  # the file columns
    xy_columns: list[str]  # the columns --emit-xy appends


# the models the command line runs, by name
MODELS = {
    "sbth": ModelColumns(BT1, tuple(G1_COLUMNS), SBTH_BASE_COLUMNS, SBTH_XY_COLUMNS),
    "lindblad": ModelColumns(L1, tuple(PAIR_COLUMNS), LINDBLAD_COLUMNS, []),
    "classical": ModelColumns(None, (), CLASSICAL_COLUMNS, []),
}

# data rows formatted per write
WRITE_BLOCK = 4096

# a time spacing may differ from the first one by this fraction of it; the
# (k*sample_every)*dt grids carry round-off of about k*eps relative, under
# 3e-9 even at MAX_STEPS samples
GRID_RTOL = 1e-6


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

    Each value is written as ``%.16e``. Rows are formatted ``WRITE_BLOCK``
    at a time with one ``%`` operation, so the file is never held whole
    as one string.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr, dtype=float) for _, arr in columns]
    n = arrays[0].shape[0]
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("all columns must share one length")
    data = np.column_stack(arrays)
    row_fmt = ",".join(["%.16e"] * len(arrays)) + "\n"
    with open(path, "w", newline="\n") as fh:
        for line in config_lines(config):
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for start in range(0, n, WRITE_BLOCK):
            block = data[start:start + WRITE_BLOCK]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


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
    """Reconstruct a trajectory from file columns.

    Two-oscillator files rebuild the full BT1 state; thermal files rebuild
    the single-pair state. Classical files carry no moments and return
    None. Raises :class:`CsvFormatError` when required columns are absent.
    """
    params = from_config(ModelParams, config)
    model = config.get("model")
    ts = columns.get("t")
    if ts is None:
        raise CsvFormatError("missing column 't'")
    step = float(ts[1] - ts[0]) if len(ts) > 1 else 1.0
    uniform = np.abs(np.diff(ts) - step) <= GRID_RTOL * step
    if not (step > 0 and uniform.all()):
        row = int(np.argmin(uniform)) + 2  # 1-based data row of the first bad time
        raise CsvFormatError(
            f"non-uniform time grid at data row {row}: t = {float(ts[row - 1])!r} follows "
            f"{float(ts[row - 2])!r}, expected step {step!r} (relative tolerance {GRID_RTOL:g})"
        )

    if model not in MODELS:
        raise CsvFormatError(f"unknown or missing model in config: {model!r}")
    frame, moment_columns, _, _ = MODELS[model]
    if frame is None:
        return None
    missing = [c for c in (*frame.labels, *moment_columns) if c not in columns]
    if missing:
        raise CsvFormatError(f"missing columns: {missing}")
    means = np.column_stack([columns[c] for c in frame.labels])
    moments = np.column_stack([columns[c] for c in moment_columns])
    return Trajectory(frame, ts, means, covariances_from_moments(moments, frame.dim), step, params)
