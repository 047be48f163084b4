import importlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import momentous as mm
from momentous import cli, diagnostics
from momentous.csvio import read_csv, PARAMS, SBTH_BASE_COLUMNS, SBTH_XY_COLUMNS, LINDBLAD_COLUMNS
from momentous.csvio import MODELS


def run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# simulate

def test_simulate_sbth_schema(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig1",
               "--t-end", "2", "--out", str(out)) == 0
    config, columns = read_csv(out)
    assert list(columns) == SBTH_BASE_COLUMNS + SBTH_XY_COLUMNS
    assert config["model"] == "sbth"
    assert config["emit-xy"] is True
    assert len(columns["t"]) == math.floor(2.0 / 0.1) + 1


def test_simulate_lindblad_schema(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "lindblad", "--preset", "paper-fig1",
               "--nbar", "2", "--t-end", "2", "--out", str(out)) == 0
    config, columns = read_csv(out)
    assert list(columns) == LINDBLAD_COLUMNS
    assert config["nbar"] == 2.0
    # belts around the mean: x +/- sqrt(G20) reconstructable from columns
    assert columns["G20"][0] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_simulate_classical_flat_amplitude(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "classical", "--lambda", "0",
               "--t-end", "20", "--out", str(out)) == 0
    _, columns = read_csv(out)
    x, p = columns["x"], columns["p"]
    envelope = x**2 + (p / 1.5) ** 2
    assert np.abs(envelope - 4.0).max() <= 1e-12


def test_simulate_requires_model(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--t-end", "2") == 2


def test_bad_preset_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("simulate", "--model", "sbth", "--preset", "nope")
    assert err.value.code == 2


def test_overdamped_flags_rejected():
    assert run("simulate", "--model", "classical", "--omega0", "1.0",
               "--lambda", "1.5", "--t-end", "2") == 2


def test_numerical_blowup_exit_code(tmp_path):
    out = tmp_path / "boom.csv"
    assert run("simulate", "--model", "sbth", "--dt", "30", "--t-end", "3000",
               "--out", str(out)) == 3


def test_overflowing_step_is_exit_3_at_step_1(tmp_path, capsys):
    out = tmp_path / "boom.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would escape main
        assert run("simulate", "--model", "sbth", "--dt", "1e100", "--t-end", "1e100",
                   "--out", str(out)) == 3
    assert "non-finite state at step 1 " in capsys.readouterr().err


def test_config_echo_round_trip(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig2",
               "--t-end", "2", "--out", str(first)) == 0
    config_lines = []
    for line in first.read_text().splitlines():
        if line.startswith("# "):
            config_lines.append(line[2:])
        else:
            break
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("\n".join(config_lines) + "\n")
    assert run("simulate", "--config", str(cfg), "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def _echoed_config(path):
    lines = []
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        lines.append(line[2:])
    return "\n".join(lines) + "\n"


# every parameter off its default; omega0 agrees with big-omega and lambda
_OFF_DEFAULT = {
    "m": "1.25", "hbar": "0.75", "lambda": "0.03", "big-omega": "1.2",
    "omega0": repr(math.hypot(1.2, 0.03)), "gamma": "0.1", "omega": "1.3",
    "omega-prime": "1.4", "nbar": "0.5", "n-level": "2", "dt": "0.002",
    "t-end": "1.5", "sample-every": "7",
}


@pytest.mark.parametrize("model,values,flags", [
    ("sbth", _OFF_DEFAULT, ["--emit-xy"]),
    ("lindblad", _OFF_DEFAULT, []),
    ("classical", _OFF_DEFAULT, []),
    # only omega0 given: big-omega is derived and echoed
    ("sbth", {"omega0": "1.6", "lambda": "0.05", "t-end": "1"}, []),
])
def test_every_parameter_round_trips_through_the_echo(tmp_path, model, values, flags):
    assert {p.key for p in PARAMS} == set(_OFF_DEFAULT)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["simulate", "--model", model, "--out", str(first), *flags]
    for key, value in values.items():
        argv += [f"--{key}", value]
    assert run(*argv) == 0
    cfg = tmp_path / "echo.cfg"
    cfg.write_text(_echoed_config(first))
    assert run("simulate", "--config", str(cfg), "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("param", PARAMS, ids=lambda p: p.key)
def test_bad_parameter_value_is_exit_2_naming_it(tmp_path, capsys, param):
    """NaN for a float parameter and 2.7 for an integer one are rejected
    before any work, from a config file and from a flag."""
    bad = "nan" if param.type is float else "2.7"
    named = re.compile(rf"(?<![\w-]){re.escape(param.key)}(?![\w-])")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"model = lindblad\nt-end = 1\n{param.key} = {bad}\n")
    out = str(tmp_path / "run.csv")
    assert run("simulate", "--config", str(cfg), "--out", out) == 2
    assert named.search(capsys.readouterr().err)
    if param.type is float:
        assert run("simulate", "--model", "sbth", "--t-end", "1",
                   f"--{param.key}", bad, "--out", out) == 2
        assert named.search(capsys.readouterr().err)
    else:
        with pytest.raises(SystemExit) as err:
            run("simulate", "--model", "sbth", f"--{param.key}", bad)
        assert err.value.code == 2
        assert f"--{param.key}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--t-end", "inf"), ("--t-end", "1e13"), ("--dt", "1e-300"),
])
def test_grid_bound_is_exit_2(tmp_path, capsys, flag, value):
    assert run("simulate", "--model", "classical", flag, value,
               "--out", str(tmp_path / "run.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:] in err


def test_env_var_supplies_config(tmp_path, monkeypatch):
    cfg = tmp_path / "default.cfg"
    cfg.write_text("model = lindblad\nt-end = 2\n# a comment\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    out = tmp_path / "env.csv"
    assert run("simulate", "--out", str(out)) == 0
    config, _ = read_csv(out)
    assert config["model"] == "lindblad"
    assert config["t-end"] == 2.0


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = sbth\nwavelength = 3\n")
    assert run("simulate", "--config", str(cfg)) == 2


def test_fig3_energy_column_monotone(tmp_path):
    """Full-length energy preset: E_mean never increases and tracks the
    analytic decay law to 1e-6 relative."""
    out = tmp_path / "fig3.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig3",
               "--out", str(out)) == 0
    _, columns = read_csv(out)
    e = columns["E_mean"]
    assert np.all(np.diff(e) <= 1e-12)
    closed = 4.5 * np.exp(-0.08 * columns["t"]) + 0.75
    assert (np.abs(e - closed) / closed).max() <= 1e-6


# ---------------------------------------------------------------------------
# check

def test_check_accepts_good_runs(tmp_path):
    for model in ("sbth", "lindblad"):
        out = tmp_path / f"{model}.csv"
        assert run("simulate", "--model", model, "--preset", "paper-fig1",
                   "--nbar", "2", "--t-end", "2", "--out", str(out)) == 0
        assert run("check", str(out)) == 0


def test_check_flags_corrupted_file(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig1",
               "--t-end", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    row = lines[data_start + 3].split(",")
    row[SBTH_BASE_COLUMNS.index("G1_2000")] = "0.0"
    lines[data_start + 3] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert run("check", str(out)) == 1


def test_check_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# model = sbth\nt,x1\n1.0,not_a_number\n")
    assert run("check", str(bad)) == 2
    assert run("check", str(tmp_path / "missing.csv")) == 2


def test_check_rejects_non_uniform_grid(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig1",
               "--t-end", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    row = lines[data_start + 6].split(",")
    row[0] = repr(float(row[0]) + 0.03)  # 0.63, still between 0.5 and 0.7
    lines[data_start + 6] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("check", str(out)) == 2
    err = capsys.readouterr().err
    assert "non-uniform time grid at data row 7" in err


def test_check_classical_is_trivially_ok(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "classical", "--t-end", "2",
               "--out", str(out)) == 0
    assert run("check", str(out)) == 0


# ---------------------------------------------------------------------------
# compare

def test_compare_equivalence_point(tmp_path):
    assert run("compare", "sbth", "lindblad", "--preset", "paper-fig3",
               "--t-end", "5") == 0


def test_compare_thermal_occupation_differs(tmp_path):
    assert run("compare", "sbth", "lindblad", "--preset", "paper-fig3",
               "--nbar", "2", "--t-end", "5") == 1


def test_compare_identical_configs(tmp_path):
    assert run("compare", "lindblad", "lindblad", "--t-end", "2") == 0


def test_compare_grid_mismatch(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("model = sbth\nt-end = 4\n")
    b.write_text("model = lindblad\nt-end = 5\n")
    assert run("compare", str(a), str(b)) == 2


def test_compare_joint_csv_and_columns(tmp_path):
    out = tmp_path / "joint.csv"
    assert run("compare", "sbth", "classical", "--t-end", "2",
               "--columns", "x,p", "--out", str(out)) == 0
    _, columns = read_csv(out)
    assert list(columns) == ["t", "x_a", "x_b", "p_a", "p_b"]


@pytest.mark.parametrize("columns, message", [
    ("x,foo", "unknown column 'foo'"),
    (",", "--columns names no column"),
    ("", "--columns names no column"),
])
def test_compare_bad_columns_is_exit_2(capsys, columns, message):
    assert run("compare", "sbth", "lindblad", "--t-end", "1", "--columns", columns) == 2
    out = capsys.readouterr()
    assert message in out.err
    assert "PASS" not in out.out


def test_compare_unknown_spec(tmp_path):
    assert run("compare", "sbth", "no-such-thing") == 2


# ---------------------------------------------------------------------------
# the tolerance: flag, then config, then the default; finite and >= 0

def _corrupted_run(tmp_path, config_line=None):
    """A short sbth run with one zeroed G1_2000 entry (check exits 1)."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--t-end", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    row = lines[data_start + 3].split(",")
    row[SBTH_BASE_COLUMNS.index("G1_2000")] = "0.0"
    lines[data_start + 3] = ",".join(row)
    if config_line is not None:
        lines.insert(0, config_line)
    out.write_text("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1e-3"])
def test_check_bad_tol_flag_is_exit_2(tmp_path, capsys, bad):
    path = _corrupted_run(tmp_path)
    capsys.readouterr()
    assert run("check", str(path), f"--tol={bad}") == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: tol must be") and "violations" not in out.out


@pytest.mark.parametrize("bad", ["nan", "inf", "abc"])
def test_check_bad_tol_config_line_is_exit_2(tmp_path, capsys, bad):
    path = _corrupted_run(tmp_path, f"# tol = {bad}")
    assert run("check", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: tol must be")


def test_compare_infinite_tol_is_exit_2(capsys):
    assert run("compare", "sbth", "lindblad", "--preset", "paper-fig3", "--nbar", "2",
               "--t-end", "2", "--tol", "inf") == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: tol must be finite") and "PASS" not in out.out


def test_simulate_bad_tol_is_exit_2_before_writing(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "lindblad", "--t-end", "2", "--tol", "nan",
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: tol must be finite")
    assert not out.exists()


def test_zero_tol_in_config_is_honoured(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = sbth\nt-end = 2\ntol = 0\n")
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "run.csv")) == 0
    assert "tol 0," in capsys.readouterr().out
    path = _corrupted_run(tmp_path, "# tol = 0")
    capsys.readouterr()
    assert run("check", str(path)) == 1
    assert "tol 0," in capsys.readouterr().out


def test_tol_flag_overrides_config(tmp_path, capsys):
    path = _corrupted_run(tmp_path, "# tol = nan")
    capsys.readouterr()
    assert run("check", str(path), "--tol", "0") == 1
    assert "tol 0," in capsys.readouterr().out


# ---------------------------------------------------------------------------
# brackets

def test_brackets_dump(capsys):
    assert run("brackets") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 45
    tagged = [l for l in lines if l.endswith("#paper")]
    assert len(tagged) == 25
    assert "{G[2000],G[0200]} = 4*G[1100]  #paper" in lines
    assert "{G[2000],G[1010]} = 0  #paper" in lines
    assert "{G[1010],G[0101]} = 1*G[1100] + 1*G[0011]  #paper" in lines


# ---------------------------------------------------------------------------
# one process, many commands

def _in_process(argv, capsys):
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_process(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "COLUMNS": "80"}
    env.pop("MOMENTOUS_CONFIG", None)
    done = subprocess.run([sys.executable, "-m", "momentous.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_commands_in_one_process_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; alternating commands through it
    gives what each command gives in a process of its own."""
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, as in a pipe
    monkeypatch.delenv("MOMENTOUS_CONFIG", raising=False)
    commands = [
        ["simulate", "--model", "sbth", "--preset", "paper-fig1", "--t-end", "3", "--out", "a.csv"],
        ["check", "a.csv"],
        ["compare", "sbth", "lindblad", "--t-end", "3"],
        ["simulate", "--model", "lindblad", "--nbar", "1", "--t-end", "3", "--out", "b.csv"],
        ["check", "b.csv", "--tol", "1e-6"],
        ["compare", "sbth", "lindblad", "--nbar", "2", "--t-end", "3"],
        ["simulate", "--help"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    for argv in commands:
        assert _in_process(argv, capsys) == _fresh_process(argv, fresh), argv
    for name in ("a.csv", "b.csv"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes()


def test_energy_report_once_per_simulate(tmp_path, monkeypatch):
    calls = []
    energy_report = diagnostics.energy_report

    def counted(*args, **kwargs):
        calls.append(args[0])
        return energy_report(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "energy_report", counted)
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--emit-xy", "--t-end", "3", "--out", str(out)) == 0
    assert len(calls) == 1
    assert run("check", str(out)) == 0
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# a corrupted moment state, one audit path, one sample grid

@pytest.mark.parametrize("argv,t_bad", [
    (["--model", "lindblad", "--dt", "2", "--t-end", "200"], "200"),
    (["--model", "sbth", "--dt", "1", "--t-end", "200", "--sample-every", "1", "--emit-xy"], "92"),
])
def test_negative_variance_is_exit_3_naming_its_time(tmp_path, capsys, argv, t_bad):
    """A step too large for the dynamics drives a variance negative while the
    state stays finite: a numerical failure (3), not a usage error (2)."""
    assert run("simulate", *argv, "--out", str(tmp_path / "run.csv")) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: negative diagonal moment at t = {t_bad}; "
        "upstream state is corrupted\n"
    )


def test_simulate_and_check_print_one_audit(tmp_path, capsys):
    out = tmp_path / "run.csv"
    run("simulate", "--model", "sbth", "--dt", "2", "--t-end", "200", "--sample-every", "1",
        "--out", str(out))
    simulated = capsys.readouterr().out.splitlines()
    assert run("check", str(out)) == 1
    checked = capsys.readouterr().out.splitlines()
    assert simulated[0].startswith("wrote ") and checked[0] == f"audit of {out}"
    assert simulated[1:] == checked[1:]
    assert checked[2].startswith("uncertainty violations: 95 ")


def test_models_share_one_sample_grid(params):
    # 23 steps at sample_every 4: the last sample falls before t_end
    grid = mm.IntegratorConfig(dt=0.3, t_end=7.0, sample_every=4)
    assert len(grid.sample_times) == 6
    for model in MODELS:
        traj = cli._run_model(model, params, grid)
        assert np.array_equal(traj.ts, grid.sample_times), model
        assert traj.step == 4 * 0.3
    classical = cli._run_model("classical", params, grid)
    means0, _ = mm.coherent_initial_state(params, mm.L1)
    assert np.array_equal(classical.means[0], means0.values)


def test_traced_call_sites_are_reached(tmp_path, monkeypatch):
    """The benchmark traces the layers by patching these module attributes;
    every command must look them up at call time, or a trace silently
    misses them (a table holding the functions themselves would)."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [(cli, "build_sbth"), (cli, "build_lindblad"), (cli, "integrate"),
                         (diagnostics, "xy_view"), (diagnostics, "energy_report")]:
        count(module, name)
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--emit-xy", "--t-end", "3", "--out", str(out)) == 0
    assert calls == {"build_sbth": 1, "integrate": 1, "xy_view": 1, "energy_report": 1}
    calls.clear()
    assert run("check", str(out)) == 0
    assert calls == {"xy_view": 1, "energy_report": 1}
    calls.clear()
    assert run("compare", "sbth", "lindblad", "--t-end", "3") == 0
    assert calls == {"build_sbth": 1, "build_lindblad": 1, "integrate": 2, "xy_view": 1,
                     "energy_report": 2}


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["momentous"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


# ---------------------------------------------------------------------------
# extreme parameters

_SHORT_GRID = ["--dt", "0.1", "--t-end", "20", "--sample-every", "10"]


@pytest.mark.parametrize("argv,code,named", [
    (["--model", "sbth", "--big-omega", "1e300"], 2, "big-omega"),
    (["--model", "sbth", "--gamma", "1e300"], 3, "thermal diffusion margin"),
    (["--model", "sbth", "--hbar", "1e300"], 2, "hbar"),
    (["--model", "sbth", "--hbar", "1e154", "--lambda", "2"], 3, "moment diffusion margin"),
    (["--model", "lindblad", "--hbar", "1e300"], 2, "hbar"),
    (["--model", "lindblad", "--omega0", "1e300"], 2, "omega0"),
    (["--model", "lindblad", "--lambda", "1e300"], 2, "lambda"),
    (["--model", "classical", "--omega0", "1e300"], 2, "omega0"),
    (["--model", "classical", "--sample-every", "1" + "0" * 150], 2, "sample-every"),
    (["--model", "classical", "--n-level", "1" + "0" * 400], 2, "n-level"),
])
def test_overflowing_parameter_is_exit_2_or_3(tmp_path, capsys, argv, code, named):
    """A float overflow in a parameter's arithmetic is one line on stderr and
    exit 2 naming the parameter, or 3 for a numerical failure; it was an
    OverflowError traceback, exit 1."""
    assert run("simulate", *_SHORT_GRID, *argv, "--out", str(tmp_path / "run.csv")) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err


def test_check_of_an_overflowing_echo_is_exit_2(tmp_path, capsys):
    """A file echoing ``lambda = 1e300`` (as simulate used to write one)."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "lindblad", *_SHORT_GRID, "--out", str(out)) == 0
    text = re.sub(r"# lambda = .*", "# lambda = 1e+300", out.read_text())
    out.write_text(re.sub(r"# omega0 = .*", "# omega0 = 1e+300", text))
    capsys.readouterr()
    assert run("check", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "lambda" in err


def test_other_arithmetic_errors_are_exit_3(capsys, monkeypatch):
    def fail(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "integrate", fail)
    assert run("simulate", "--model", "lindblad", "--t-end", "1") == 3
    assert capsys.readouterr().err == "numerical failure: float division by zero\n"


def test_nan_determinant_file_fails_check(tmp_path, capsys):
    """At nbar = 1e300 the pair determinants overflow to inf - inf = NaN: a
    violation, not a pass and not a warning."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "lindblad", "--nbar", "1e300", *_SHORT_GRID,
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("check", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "uncertainty violations: 20 " in captured.out


_EXTREMES = (0, -1, 1e-300, 1e-150, 1e-8, 1e8, 1e150, 1e300)


def _flag_value(param, value) -> str:
    if param.type is int and float(value).is_integer():
        return str(int(value))
    return repr(float(value))  # an integer flag rejects it: argparse exits 2


def _exit_code(*argv) -> int:
    try:
        return run(*argv)
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


@pytest.mark.parametrize("model", MODELS)
def test_command_line_fuzz(tmp_path, capsys, model):
    """Every parameter flag at extreme values and at seeded random ones of
    any magnitude and sign, one at a time: simulate exits 0, 2 or 3, check
    of a written file exits 0 to 3, and a clean check reports a finite
    minimum determinant. An exception escaping ``main`` fails the test, and
    so does a warning (``filterwarnings = error``)."""
    rng = np.random.default_rng(8)
    out = tmp_path / "run.csv"
    xy = ["--emit-xy"] if MODELS[model].xy_columns else []
    for param in PARAMS:
        drawn = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-300, 300, 2)
        for value in (*_EXTREMES, *drawn):
            flag = f"--{param.key}={_flag_value(param, value)}"
            out.unlink(missing_ok=True)
            capsys.readouterr()
            code = _exit_code("simulate", f"--model={model}", "--dt=0.1", "--t-end=20",
                              "--sample-every=10", flag, f"--out={out}", *xy)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), flag
            if code and "usage:" not in err:
                assert len(err.splitlines()) == 1, (flag, err)
            if not out.exists():
                continue
            code = _exit_code("check", str(out))
            printed = capsys.readouterr()
            assert code in (0, 1, 2, 3), flag
            if code == 0 and model != "classical":
                det = re.search(r"min determinant (\S+)\)", printed.out).group(1)
                assert math.isfinite(float(det)), (flag, det)


# ---------------------------------------------------------------------------
# check: derived columns

def _corrupt(path, column, row, text="-5"):
    """Set ``column`` of 1-based data ``row`` of a CSV to ``text``."""
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[header + row].split(",")
    fields[lines[header].split(",").index(column)] = text
    lines[header + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("model,column", [
    ("sbth", "G20"), ("sbth", "x"), ("sbth", "Ux"), ("sbth", "p_x"), ("sbth", "E_plus"),
    ("lindblad", "E_mean"), ("lindblad", "E_analytic"), ("lindblad", "U"),
])
def test_check_recomputes_derived_columns(tmp_path, capsys, model, column):
    """A derived column the audit does not read, set to -5 in one row: the
    audit stays clean, and check exits 1 naming the column and the row."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", model, "--preset", "paper-fig1", "--t-end", "2",
               "--out", str(out)) == 0
    _corrupt(out, column, 4)
    capsys.readouterr()
    assert run("check", str(out)) == 1
    printed = capsys.readouterr().out
    assert "uncertainty violations: 0 " in printed
    assert printed.splitlines()[-1].startswith(f"derived column {column} differs at data row 4:")


def test_check_tolerates_round_off_in_derived_columns(tmp_path, capsys):
    """A derived value off by 1e-14 of its column's scale, as another BLAS
    build might write it, still checks clean."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig1", "--t-end", "2",
               "--out", str(out)) == 0
    _, columns = read_csv(out)
    scale = np.abs(columns["E_mean"]).max()
    _corrupt(out, "E_mean", 4, f"{columns['E_mean'][3] + 1e-14 * scale:.16e}")
    assert run("check", str(out)) == 0
