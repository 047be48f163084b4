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
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .algebra import SymplecticForm, bracket_table, format_bracket
from .csvio import (
    MODELS,
    PARAMS,
    CsvFormatError,
    from_config,
    parse_config_text,
    read_csv,
    run_config,
    trajectory_from_columns,
    write_csv,
)
from .diagnostics import (
    CorruptedStateError,
    audit,
    compare,
    coherent_initial_state,
    trajectory_columns,
)
from .integrator import IntegrationError, IntegratorConfig, integrate
from .model import BT1, L1, ModelParams, Trajectory, finite_real
from .systems import build_lindblad, build_sbth, classical_analytic

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
_DERIVED_RTOL = 1e-12


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
    return cfg


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
    """The flag, else the first config's ``tol``, else ``default``; finite, >= 0."""
    values = [flag, *(cfg.get("tol") for cfg in configs)]
    tol = finite_real("tol", next((v for v in values if v is not None), default))
    if tol < 0.0:
        raise ConfigError(f"tol must be >= 0, got {tol!r}")
    return tol


def _run_model(model: str, params: ModelParams, grid: IntegratorConfig) -> Trajectory:
    """Integrate one model (or evaluate the classical closed form)."""
    if model == "sbth":
        return integrate(build_sbth(params), *coherent_initial_state(params, BT1), grid)
    if model == "lindblad":
        return integrate(build_lindblad(params), *coherent_initial_state(params, L1), grid)
    ts = grid.sample_times
    means0, _ = coherent_initial_state(params, L1)
    x, p = classical_analytic(params, *means0.values, ts)
    covs = np.zeros((len(ts), 2, 2))
    return Trajectory(L1, ts, np.column_stack([x, p]), covs, grid.sample_every * grid.dt, params)


def _report_audit(traj: Trajectory, tol: float) -> bool:
    """Print the audit summary of a run; True when it finds no violation."""
    result = audit(traj, tol)
    print(result.summary())
    return result.ok


def _derived_mismatch(traj: Trajectory, model: str, columns: dict) -> str | None:
    """The first derived column of a file (a schema column other than the
    time, the means and the moments) that its rebuilt run does not
    reproduce, with its first bad data row; None if every one matches."""
    frame, moments, names, xy_names = MODELS[model]
    stored = ("t", *frame.labels, *moments)
    derived = [name for name in names + xy_names if name in columns and name not in stored]
    for name, value in trajectory_columns(traj, derived).items():
        read = columns[name]
        scale = np.abs(value[np.isfinite(value)]).max(initial=0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            off = ~((read == value) | (np.abs(read - value) <= _DERIVED_RTOL * scale))
        if off.any():
            row = int(np.argmax(off))
            return (f"derived column {name} differs at data row {row + 1}: "
                    f"file {float(read[row])!r}, recomputed {float(value[row])!r}")
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
    frame, _, names, xy_names = MODELS[model]
    emit_xy = bool(cfg.get("emit-xy")) and bool(xy_names)
    traj = _run_model(model, params, grid)
    out = args.out or cfg.get("out") or f"{model}.csv"
    echo = {"model": model, **run_config(params, grid)}
    if xy_names:  # echoed only by a model that has XY columns
        echo["emit-xy"] = emit_xy
    names = names + xy_names if emit_xy else names
    cols = trajectory_columns(traj, names)
    write_csv(out, echo, [(name, cols[name]) for name in names])
    print(f"wrote {out} ({traj.n_samples} samples, t in [0, {traj.ts[-1]:g}])")
    if frame is not None:
        _report_audit(traj, tol)
    return 0


def cmd_compare(args) -> int:
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
    traj_a, traj_b = (_run_model(cfg["model"], *_params_and_grid(cfg)) for cfg in configs)
    if args.columns is not None:
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
        if not columns:
            raise ConfigError(f"--columns names no column: {args.columns!r}")
    elif None in (MODELS[model_a].frame, MODELS[model_b].frame):
        columns = ["x", "p"]
    else:
        columns = ["x", "p", "G20", "G02", "G11", "E_mean"]

    try:
        metrics = compare(traj_a, traj_b, columns)
    except KeyError as exc:  # a --columns name no frame defines
        raise ConfigError(f"--columns: {exc.args[0]}") from None
    print(f"comparing {model_a} vs {model_b} on {traj_a.n_samples} samples (tol {tol:g})")
    print(f"{'column':>10}  {'max_abs':>12}  {'rms':>12}  {'at_time':>9}")
    worst = 0.0
    for name in columns:
        m = metrics[name]
        worst = max(worst, m.max_abs)
        print(f"{name:>10}  {m.max_abs:12.5e}  {m.rms:12.5e}  {m.at_time:9.3f}")
    if args.out:
        joint = [("t", traj_a.ts)]
        cols_a = trajectory_columns(traj_a, columns)
        cols_b = trajectory_columns(traj_b, columns)
        for name in columns:
            joint.append((f"{name}_a", cols_a[name]))
            joint.append((f"{name}_b", cols_b[name]))
        write_csv(args.out, {"model": f"{model_a}-vs-{model_b}"}, joint)
        print(f"wrote {args.out}")
    if worst <= tol:
        print("PASS: all columns within tolerance")
        return 0
    print("FAIL: tolerance exceeded")
    return 1


def cmd_check(args) -> int:
    config, columns = read_csv(args.csv)
    tol = _tolerance(args.tol, [config], 1e-9)
    traj = trajectory_from_columns(config, columns)
    if traj is None:
        print(f"{args.csv}: classical run, no quantum moments to audit")
        return 0
    print(f"audit of {args.csv}")
    if not _report_audit(traj, tol):
        return 1  # a state that fails the audit may have no energies to recompute
    mismatch = _derived_mismatch(traj, config["model"], columns)
    if mismatch is not None:
        print(mismatch)
        return 1
    return 0


def cmd_brackets(args) -> int:
    form = SymplecticForm.quantum(BT1)
    for exps_a, exps_b, terms in bracket_table(form):
        line = format_bracket(exps_a, exps_b, terms)
        if frozenset((exps_a, exps_b)) in _TAGGED_BRACKET_PAIRS:
            line += "  #paper"
        print(line)
    return 0


# moment pairs whose brackets appear in the published reference tabulation;
# marked with "#paper" in the dump
_TAGGED_BRACKET_PAIRS = frozenset(
    frozenset(pair)
    for pair in [
        ((2, 0, 0, 0), (1, 0, 1, 0)),
        ((2, 0, 0, 0), (0, 1, 0, 1)),
        ((2, 0, 0, 0), (0, 2, 0, 0)),
        ((0, 2, 0, 0), (1, 0, 1, 0)),
        ((0, 0, 2, 0), (0, 1, 0, 1)),
        ((0, 0, 2, 0), (0, 0, 0, 2)),
        ((0, 0, 0, 2), (1, 0, 1, 0)),
        ((1, 1, 0, 0), (0, 1, 0, 1)),
        ((1, 0, 0, 1), (1, 0, 1, 0)),
        ((1, 0, 0, 1), (0, 1, 0, 1)),
        ((1, 0, 0, 1), (0, 2, 0, 0)),
        ((1, 0, 0, 1), (0, 1, 1, 0)),
        ((1, 0, 0, 1), (0, 0, 2, 0)),
        ((0, 1, 1, 0), (1, 0, 1, 0)),
        ((0, 0, 1, 1), (0, 0, 0, 2)),
        ((0, 1, 1, 0), (0, 1, 0, 1)),
        ((0, 1, 1, 0), (2, 0, 0, 0)),
        ((0, 1, 1, 0), (0, 0, 0, 2)),
        ((1, 1, 0, 0), (1, 0, 1, 0)),
        ((1, 1, 0, 0), (0, 2, 0, 0)),
        ((1, 1, 0, 0), (2, 0, 0, 0)),
        ((0, 0, 1, 1), (1, 0, 1, 0)),
        ((0, 0, 1, 1), (0, 1, 0, 1)),
        ((0, 0, 1, 1), (0, 0, 2, 0)),
        ((1, 0, 1, 0), (0, 1, 0, 1)),
    ]
)


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
