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

from .integrator import IntegratorConfig
from .model import BT1, L1, ModelParams, Trajectory, moment_order

__all__ = [
    "CsvFormatError",
    "SBTH_BASE_COLUMNS",
    "SBTH_XY_COLUMNS",
    "LINDBLAD_COLUMNS",
    "CLASSICAL_COLUMNS",
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


_G1_NAMES = ["G1_" + "".join(str(e) for e in exps) for exps in moment_order(4)]
SBTH_BASE_COLUMNS = ["t", "x1", "p1", "p2", "x2", *_G1_NAMES]
SBTH_XY_COLUMNS = ["x", "p_x", "G20", "G02", "G11", "E_mean", "E_plus", "E_minus", "U1", "Ux"]
LINDBLAD_COLUMNS = ["t", "x", "p", "G20", "G02", "G11", "E_mean", "E_analytic", "U"]
CLASSICAL_COLUMNS = ["t", "x", "p"]

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
        except ValueError as exc:
            if "number of columns changed" in str(exc):
                problem = "data does not match header width"
            else:
                problem = "non-numeric data row"
            raise CsvFormatError(f"{path}: {problem} ({exc})") from None
    if data.shape[1] != len(header):
        raise CsvFormatError(f"{path}: data does not match header width")
    config = parse_config_text(config_text)
    return config, {name: data[:, k] for k, name in enumerate(header)}


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

    if model == "sbth":
        missing = [c for c in SBTH_BASE_COLUMNS if c not in columns]
        if missing:
            raise CsvFormatError(f"missing columns: {missing}")
        n = len(ts)
        means = np.column_stack([columns[c] for c in ("x1", "p1", "p2", "x2")])
        covs = np.empty((n, 4, 4))
        for exps, name in zip(moment_order(4), _G1_NAMES):
            i = [k for k, e in enumerate(exps) for _ in range(e)]
            covs[:, i[0], i[1]] = columns[name]
            covs[:, i[1], i[0]] = columns[name]
        return Trajectory(BT1, ts, means, covs, step, params)

    if model == "lindblad":
        missing = [c for c in ("x", "p", "G20", "G02", "G11") if c not in columns]
        if missing:
            raise CsvFormatError(f"missing columns: {missing}")
        n = len(ts)
        means = np.column_stack([columns["x"], columns["p"]])
        covs = np.empty((n, 2, 2))
        covs[:, 0, 0] = columns["G20"]
        covs[:, 1, 1] = columns["G02"]
        covs[:, 0, 1] = columns["G11"]
        covs[:, 1, 0] = columns["G11"]
        return Trajectory(L1, ts, means, covs, step, params)

    if model == "classical":
        return None

    raise CsvFormatError(f"unknown or missing model in config: {model!r}")
