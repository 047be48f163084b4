"""Command-line front end: simulate, compare, check, brackets.

Configuration is resolved in a fixed order: built-in defaults, then a
preset (``--preset``), then a config file (``--config`` or the
``MOMENTOUS_CONFIG`` environment variable), then explicit flags. The fully
resolved configuration is echoed into every CSV as ``# key = value`` lines,
and re-running with that echoed configuration reproduces the file byte for
byte.

Exit codes: 0 ok, 1 tolerance or invariant violation, 2 usage/config
error, 3 numerical failure (a non-finite state, a negative variance, or an
arithmetic overflow).

Every command reads a stream a block at a time (the steps of a run, the
rows of a file), and reports the error it would report had it read each
stream whole first. Three rules fix that order:

- a stream before its reader: an error of the stream itself (a non-finite
  step, a row that does not parse) is reported before any error raised
  while its blocks are used (:func:`_outranked_by`);
- compare's order: the grid, judged before any step; then run a's stream,
  then run b's, then the analysis of run a, then that of run b;
- check's file faults before its analysis: the row count, then the first
  row off the grid, then the first error of the analysis.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from .algebra import PAPER_BRACKETS, SymplecticForm, bracket_table, format_bracket
from .csvio import (
    MODELS,
    PARAMS,
    CsvFormatError,
    emit_xy,
    from_config,
    grid_fault,
    parse_config_text,
    read_csv,
    row_count_fault,
    run_config,
    trajectory_from_columns,
    validate_header,
    write_csv,
)
from .diagnostics import (
    AuditJoin,
    CompareJoin,
    CorruptedStateError,
    GridMismatchError,
    Run,
    _column,
    audit,
    audit_tolerance,
    classical_trajectory,
    compare,
    coherent_initial_state,
    trajectory_columns,
)
from .integrator import IntegrationError, IntegratorConfig, TrajectoryBlocks, integrate
from .model import BT1, L1, ModelParams
from .systems import build_lindblad, build_sbth, lindblad_margin, moment_margin

__all__ = ["main", "ConfigError", "PRESETS"]

ENV_CONFIG = "MOMENTOUS_CONFIG"


class ConfigError(ValueError):
    """Unusable run configuration."""


# the three figure presets are the standard run, i.e. the package defaults,
# with the XY columns on; they differ only in which columns one plots
PRESETS = {name: {"emit-xy": True} for name in ("paper-fig1", "paper-fig2", "paper-fig3")}

_CONFIG_KEYS = {"model", *(p.key for p in PARAMS), "emit-xy", "preset", "out", "tol"}

# a derived column of a checked file may differ from its recomputation by
# this fraction of the column's largest magnitude (another BLAS build may
# round differently; a file rebuilt on one platform differs by 0)
_RECOMPUTE_RTOL = 1e-12

# Samples each command holds of a run at a time, whatever the model:
# simulate integrates, audits, derives and writes a block before it steps
# the next; check parses, rebuilds, audits and recomputes one; compare steps
# a block of each run and compares the pair. A block's states or parsed
# rows, run, XY view, energies and columns, with the writer's or the
# parser's buffers, make a traced peak of about 4.6 MB (tracemalloc: 4.56
# MB for simulate, the integrator's 0.46 MB power table included, 4.78 MB
# for check, 4.28 MB for a compare of sbth and lindblad with --out), the
# same at 20 001 and at 80 001 samples. Beyond a block, each command keeps
# only the audit's running summary or compare's running metrics and, in
# check, the derived rows still in doubt against their recomputation, none
# on a file of one platform or one ulp off.
ANALYSIS_BLOCK = 4096


def _load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            cfg = parse_config_text(fh)
        except CsvFormatError as exc:
            raise ConfigError(str(exc)) from None
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "out" in cfg:
        _file_name(cfg["out"])
    emit_xy(cfg)
    return cfg


def _file_name(out):
    """``out`` from a flag or a config file: a non-empty string."""
    if not (isinstance(out, str) and out):
        raise ConfigError(f"out must be a file name, got {out!r}")
    return out


def _resolve(args, extra_file: str | None = None) -> dict:
    """Defaults <- preset <- config file <- explicit flags."""
    cfg = {p.key: getattr(p.owner, p.field) for p in PARAMS}  # the field defaults
    cfg.update({"model": None, "emit-xy": False})
    if getattr(args, "preset", None) is not None:  # a name argparse has checked
        cfg.update(PRESETS[args.preset])
    file_cfg = {}
    path = extra_file or getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        file_cfg = _load_config_file(path)
        if "preset" in file_cfg:
            name = file_cfg.pop("preset")
            if name not in PRESETS:
                raise ConfigError(f"unknown preset {name!r}")
            cfg.update(PRESETS[name])
        cfg.update(file_cfg)
    for p in PARAMS:
        value = getattr(args, p.field, None)
        if value is not None:
            cfg[p.key] = value
    if getattr(args, "model", None) is not None:
        cfg["model"] = args.model
    if getattr(args, "emit_xy", False):
        cfg["emit-xy"] = True
    # when only omega0 was given explicitly, big-omega is the derived one
    omega0_given = "omega0" in file_cfg or getattr(args, "omega0", None) is not None
    big_given = "big-omega" in file_cfg or getattr(args, "big_omega", None) is not None
    if omega0_given and not big_given:
        cfg["big-omega"] = None
    return cfg


def _params_and_grid(cfg: dict) -> tuple[ModelParams, IntegratorConfig]:
    return from_config(ModelParams, cfg), from_config(IntegratorConfig, cfg)


def _tolerance(flag, configs, default: float) -> float:
    """The flag, else the first config's ``tol``, else ``default``, held to
    :func:`audit_tolerance`."""
    values = [flag, *(cfg.get("tol") for cfg in configs)]
    return audit_tolerance(next((v for v in values if v is not None), default))


def _run_model(model: str, params: ModelParams, grid: IntegratorConfig,
               judge_margins: bool = False) -> TrajectoryBlocks:
    """One model's run as ``TrajectoryBlocks`` of ``ANALYSIS_BLOCK``
    samples, stepped (a classical run evaluated in closed form) as the
    blocks are read; the system is built, and the initial state taken, at
    once.

    With ``judge_margins``, the diffusion margins that ``audit`` reports are
    evaluated at the initial state between the build and the first step:
    their overflow depends only on ``params``, so such a run fails
    (``OverflowError``) before it costs any step.
    """
    size = ANALYSIS_BLOCK
    if model == "classical":
        return TrajectoryBlocks(L1, grid, params, (
            classical_trajectory(params, grid.block_times(first, first + size))
            for first in range(0, grid.n_samples, size)))
    if model == "sbth":
        system, (means0, cov0) = build_sbth(params), coherent_initial_state(params, BT1)
    else:
        system, (means0, cov0) = build_lindblad(params), coherent_initial_state(params, L1)
    if judge_margins:
        lindblad_margin(params)
        if model == "sbth":
            moment_margin(params, cov0.pair_determinant(0))
    return integrate(system, means0, cov0, grid, size)


@contextlib.contextmanager
def _outranked_by(blocks):
    """A ``with`` body whose error yields to that of the stream ``blocks``:
    when the body raises, ``blocks`` are read to their end before the error
    is raised again, so an error of the stream itself (a non-finite step, a
    row that does not parse) is the one reported, as when the stream was
    read whole before it was used."""
    try:
        yield
    except Exception:
        for _ in blocks:
            pass
        raise


def _analysed(run: TrajectoryBlocks, tol: float, names: list[str],
              joined: AuditJoin | None):
    """The file columns ``names`` of a run, one block at a time: each
    block's columns are derived from it, once it is audited into
    ``joined`` (None for a model without moments). The run outranks its
    analysis (:func:`_outranked_by`)."""
    with _outranked_by(run.blocks):
        for traj in run.blocks:
            block = Run(traj)
            if joined is not None:
                joined.add(audit(block, tol))
            columns = trajectory_columns(block, names)
            yield [columns[name] for name in names]


def _compared(run_a: TrajectoryBlocks, run_b: TrajectoryBlocks, columns: list[str],
              joined: CompareJoin):
    """The joint table of two runs on one grid (``t``, then each column of
    run a and of run b) a block pair at a time, each pair's metrics folded
    into ``joined``. The first error ends the table, but run a's stream
    outranks run b's (:func:`_outranked_by`), then run a's analysis run
    b's in any block pair: the error of the runs compared whole."""
    blocks_b, fault, a_clean = run_b.blocks, None, True
    for traj_a in run_a.blocks:
        with _outranked_by(run_a.blocks):
            traj_b = next(blocks_b)
        a, b = Run(traj_a), Run(traj_b)
        if fault is None:
            try:
                joined.add(compare(a, b, columns))
            except Exception as exc:
                fault = exc
            else:
                cols = [trajectory_columns(run, columns) for run in (a, b)]
                yield [traj_a.ts, *(side[name] for name in columns for side in cols)]
                continue
        if a_clean:  # the fault may be run b's, which run a's analysis outranks
            try:
                trajectory_columns(a, columns)
            except Exception as exc:
                fault, a_clean = exc, False
    if fault is not None:
        raise fault


def _write(out: str | None, config: dict, names: list[str], blocks) -> None:
    """``write_csv`` of ``blocks`` to ``out`` (None: none); the blocks
    outrank the writing (:func:`_outranked_by`). Either way the blocks are
    read to their end."""
    if out is not None:
        with _outranked_by(blocks):
            write_csv(out, config, names, blocks)
    for _ in blocks:
        pass


class _Recomputed:
    """A file's columns held to their recomputation, block by block.

    A row that differs is a mismatch unless it is within ``_RECOMPUTE_RTOL``
    of its column's scale, the largest finite recomputed magnitude in the
    file. The scale only grows as blocks come in, so a row within it is
    dropped once read; only rows still in doubt are kept, and tested again.
    """

    def __init__(self, names):
        self.names = list(names)
        self.scale = dict.fromkeys(self.names, 0.0)
        self.doubt = dict.fromkeys(self.names, (np.empty(0, int), np.empty(0), np.empty(0)))

    def add(self, start: int, read: dict, recomputed: dict) -> None:
        """Hold ``read``, the columns of data rows ``start``, ``start + 1``,
        ..., to ``recomputed``."""
        for name in self.names:
            file, value = read[name], recomputed[name]
            scale = np.abs(value[np.isfinite(value)]).max(initial=0.0)
            self.scale[name] = max(self.scale[name], float(scale))
            differ = np.flatnonzero(~(file == value))
            if differ.size or self.doubt[name][0].size:
                at, file, value = (np.concatenate(pair) for pair in zip(
                    self.doubt[name], (differ + start, file[differ], value[differ])))
                with np.errstate(invalid="ignore", over="ignore"):
                    off = ~(np.abs(file - value) <= _RECOMPUTE_RTOL * self.scale[name])
                self.doubt[name] = (at[off], file[off], value[off])

    def first_mismatch(self) -> str | None:
        """The first column, in file order, with a mismatch, and its first
        bad data row; None if every column matches."""
        for name in self.names:
            at, file, value = self.doubt[name]
            if at.size:
                return (f"derived column {name} differs at data row {at[0] + 1}: "
                        f"file {float(file[0])!r}, recomputed {float(value[0])!r}")
        return None


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    cfg = _resolve(args)
    model = cfg.get("model")
    if model not in MODELS:
        raise ConfigError(f"--model must be one of {tuple(MODELS)}, got {model!r}")
    params, grid = _params_and_grid(cfg)
    tol = _tolerance(args.tol, [cfg], 1e-9)
    schema = MODELS[model]
    xy_names = schema.xy_columns
    with_xy = emit_xy(cfg) and bool(xy_names)
    out = _file_name(args.out) if args.out is not None else cfg.get("out", f"{model}.csv")
    run = _run_model(model, params, grid, judge_margins=True)
    echo = {"model": model, **run_config(params, grid)}
    if xy_names:  # echoed only by a model that has XY columns
        echo["emit-xy"] = with_xy
    names = schema.layout(with_xy)
    # integrated, audited, derived and written block by block; the file
    # replaces out only once the whole run is in
    joined = AuditJoin(grid.n_samples) if schema.moments else None
    _write(out, echo, names, _analysed(run, tol, names, joined))
    t_last = grid.block_times(grid.n_samples - 1, grid.n_samples)[0]
    print(f"wrote {out} ({grid.n_samples} samples, t in [0, {t_last:g}])")
    if joined is not None:
        print(joined.audit().summary())
    return 0


def cmd_compare(args) -> int:
    out = None if args.out is None else _file_name(args.out)
    configs = []
    for spec in (args.run_a, args.run_b):
        if spec in MODELS:
            side_cfg = _resolve(args)
            side_cfg["model"] = spec
        elif os.path.exists(spec):
            side_cfg = _resolve(args, extra_file=spec)
        else:
            raise ConfigError(f"run spec {spec!r} is neither a model name nor a config file")
        model = side_cfg.get("model")
        if model not in MODELS:
            raise ConfigError(f"run spec {spec!r} resolves to no model")
        configs.append(side_cfg)
    tol = _tolerance(args.tol, configs, 1e-6)
    model_a, model_b = (cfg["model"] for cfg in configs)
    if args.columns is not None:
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
        if not columns:
            raise ConfigError(f"--columns names no column: {args.columns!r}")
        twice = [name for name in columns if columns.count(name) > 1]
        if twice:  # the joint file would name its columns twice
            raise ConfigError(f"--columns names column {twice[0]!r} more than once")
        try:  # trajectory_columns' own rule, before either run is integrated
            for model in (model_a, model_b):  # a classical run is an L1 trajectory
                for name in columns:
                    _column(MODELS[model].frame or L1, name)
        except KeyError as exc:
            raise ConfigError(f"--columns: {exc.args[0]}") from None
    elif None in (MODELS[model_a].frame, MODELS[model_b].frame):
        columns = ["x", "p"]
    else:
        columns = ["x", "p", "G20", "G02", "G11", "E_mean"]
    run_a, run_b = (_run_model(cfg["model"], *_params_and_grid(cfg)) for cfg in configs)
    # the grids, before any step: sample counts, then each time bit for bit
    grid_a, grid_b = run_a.grid, run_b.grid
    if grid_a.n_samples != grid_b.n_samples or any(
            grid_fault(grid_a.block_times(first, first + ANALYSIS_BLOCK), grid_b, first)
            for first in range(0, grid_a.n_samples, ANALYSIS_BLOCK)):
        raise GridMismatchError("trajectories do not share one sampling grid")
    joined = CompareJoin(run_a.n_samples)
    # compared, and the joint table written, block pair by block pair
    names = ["t", *(f"{name}_{side}" for name in columns for side in "ab")]
    _write(out, {"model": f"{model_a}-vs-{model_b}"}, names,
           _compared(run_a, run_b, columns, joined))
    metrics = joined.metrics()
    print(f"comparing {model_a} vs {model_b} on {run_a.n_samples} samples (tol {tol:g})")
    print(f"{'column':>10}  {'max_abs':>12}  {'rms':>12}  {'at_time':>9}")
    for name in columns:
        m = metrics[name]
        print(f"{name:>10}  {m.max_abs:12.5e}  {m.rms:12.5e}  {m.at_time:9.3f}")
    if out is not None:
        print(f"wrote {out}")
    if all(metrics[name].max_abs <= tol for name in columns):  # a NaN is never within tol
        print("PASS: all columns within tolerance")
        return 0
    print("FAIL: tolerance exceeded")
    return 1


def cmd_check(args) -> int:
    config, table = read_csv(args.csv, ANALYSIS_BLOCK)
    with _outranked_by(table.blocks):
        tol = _tolerance(args.tol, [config], 1e-9)
        model, params, grid = validate_header(config, table.header)
    schema = MODELS[model]
    recomputed = _Recomputed(name for name in table.header if name not in schema.stored)
    joined = AuditJoin(grid.n_samples) if schema.moments else None
    # The file is read to its end whatever it holds, so that a row it
    # cannot parse is the error reported; then the row count, then the
    # first row off the grid, then the first error of the analysis.
    rows, off_grid, failure, clean = 0, None, None, True
    for columns in table.blocks:
        start, rows = rows, rows + len(columns["t"])
        off_grid = off_grid or grid_fault(columns["t"], grid, start)
        if off_grid is not None or failure is not None or rows > grid.n_samples:
            continue
        try:
            block = Run(trajectory_from_columns(config, columns, validate=False))
            if joined is not None:
                part = audit(block, tol)
                joined.add(part)
                # while every audit is clean, each block's derived columns are
                # held to their recomputation: a state that fails the audit
                # may have no energies to recompute
                clean = clean and part.ok
            if clean:
                recomputed.add(start, columns, trajectory_columns(block, recomputed.names))
        except Exception as exc:  # raised below, once the file is read
            failure = exc
    fault = row_count_fault(rows, grid) or off_grid
    if fault is not None:
        raise CsvFormatError(fault)
    if joined is None:
        if failure is not None:
            raise failure
        print(f"{args.csv}: classical run, no quantum moments to audit")
    else:
        print(f"audit of {args.csv}")
        if failure is not None:
            raise failure
        result = joined.audit()
        print(result.summary())
        if not result.ok:
            return 1
    mismatch = recomputed.first_mismatch()
    if mismatch is not None:
        print(mismatch)
        return 1
    return 0


def cmd_brackets(args) -> int:
    paper = {frozenset((exps_a, exps_b)) for exps_a, exps_b, _ in PAPER_BRACKETS}
    for exps_a, exps_b, terms in bracket_table(SymplecticForm.quantum(BT1)):
        line = format_bracket(exps_a, exps_b, terms)
        if frozenset((exps_a, exps_b)) in paper:
            line += "  #paper"
        print(line)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_param_flags(sub) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
    sub.add_argument("--config", help=f"config file (default: ${ENV_CONFIG})")
    for p in PARAMS:
        # dest is the field name, which also keeps the help's metavars
        sub.add_argument(f"--{p.key}", type=p.type, dest=p.field, help=p.help)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentous",
        description="Damped-oscillator moment dynamics: simulate, compare, audit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run one model and write a CSV")
    sim.add_argument("--model", choices=MODELS, help="which model to run")
    _add_param_flags(sim)
    sim.add_argument("--emit-xy", action="store_true", default=False,
                     help="append XY-view columns (sbth only)")
    sim.add_argument("--out", help="output CSV path (default <model>.csv)")
    sim.add_argument("--tol", type=float, default=None,
                     help="audit uncertainty tolerance (default 1e-9)")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = subs.add_parser("compare", help="run two configurations and diff their columns")
    cmp_.add_argument("run_a", help="model name or config file")
    cmp_.add_argument("run_b", help="model name or config file")
    _add_param_flags(cmp_)
    cmp_.add_argument("--columns", help="comma-separated column names")
    cmp_.add_argument("--tol", type=float, default=None,
                      help="max-abs tolerance (default 1e-6)")
    cmp_.add_argument("--out", help="optional joint CSV path")
    cmp_.set_defaults(func=cmd_compare)

    chk = subs.add_parser("check", help="re-audit a CSV produced by simulate")
    chk.add_argument("csv", help="CSV file to audit")
    chk.add_argument("--tol", type=float, default=None,
                     help="uncertainty tolerance (default 1e-9)")
    chk.set_defaults(func=cmd_check)

    brk = subs.add_parser("brackets", help="dump the 45 second-moment brackets")
    brk.set_defaults(func=cmd_brackets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IntegrationError, CorruptedStateError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # the package's usage errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
