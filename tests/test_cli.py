import dataclasses
import importlib
import itertools
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
from momentous.csvio import MODELS, PARAMS, read_csv, trajectory_from_columns, write_csv
from momentous.model import _uncertainty_test


def run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# simulate

def test_simulate_sbth_schema(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig1",
               "--t-end", "2", "--out", str(out)) == 0
    config, columns = read_csv(out)
    assert list(columns) == MODELS["sbth"].columns + MODELS["sbth"].xy_columns
    assert config["model"] == "sbth"
    assert config["emit-xy"] is True
    assert len(columns["t"]) == math.floor(2.0 / 0.1) + 1


def test_simulate_lindblad_schema(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "lindblad", "--preset", "paper-fig1",
               "--nbar", "2", "--t-end", "2", "--out", str(out)) == 0
    config, columns = read_csv(out)
    assert list(columns) == MODELS["lindblad"].columns
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


@pytest.mark.parametrize("every", [2, 7, 10, 100])
@pytest.mark.parametrize(("dt", "failing"), [("1", "step 1816 (t = 1816)"),
                                             ("2", "step 194 (t = 388)")])
def test_a_step_between_samples_fails_at_its_own_step(tmp_path, capsys, dt, failing, every):
    """A step that is not stored is tested for finiteness as it is taken,
    so the step named is the same whichever steps are stored, and no file
    is written."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--dt", dt, "--t-end", "5000",
               "--sample-every", str(every), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"numerical failure: non-finite state at {failing}\n"
    assert list(tmp_path.iterdir()) == []


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


def test_preset_line_in_config_file_acts_as_the_flag(tmp_path):
    cfg = tmp_path / "fig1.cfg"
    cfg.write_text("model = sbth\npreset = paper-fig1\nt-end = 2\n")
    by_file, by_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    assert run("simulate", "--config", str(cfg), "--out", str(by_file)) == 0
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig1", "--t-end", "2",
               "--out", str(by_flag)) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()
    config, columns = read_csv(by_file)
    assert config["emit-xy"] is True and list(columns)[-1] == "Ux"


@pytest.mark.parametrize("text,message", [
    ("model = sbth\npreset = nope\n", "unknown preset 'nope'"),
    ("model = sbth\nt-end 2\n", "malformed config line: 't-end 2'"),
    (None, "config file not found: {cfg}"),
    ("model = sbth\nout = 1\n", "out must be a file name, got 1"),
    ("model = sbth\nout =\n", "out must be a file name, got ''"),
    ("model = sbth\nemit-xy = no\n", "emit-xy must be true or false, got 'no'"),
])
def test_unusable_config_file_is_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    assert run("simulate", "--model", "sbth", "--config", str(cfg),
               "--out", str(tmp_path / "run.csv")) == 2
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("argv", [("simulate", "--model", "sbth"), ("compare", "sbth", "lindblad")])
def test_empty_out_flag_is_exit_2(tmp_path, monkeypatch, capsys, argv):
    """``--out ""`` is refused in the config file's words, before any run;
    it was exit 0, simulate writing ``sbth.csv`` and compare writing nothing."""
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--t-end", "1", "--out", "") == 2
    out = capsys.readouterr()
    assert out.err == "error: out must be a file name, got ''\n" and out.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value, shown", [("no", "'no'"), ("1", "1"), ("", "''")])
def test_check_refuses_an_echoed_emit_xy_that_is_not_a_bool(tmp_path, capsys, value, shown):
    """``simulate --config`` refuses such a value, so a file echoing it
    could not be rerun; ``check`` refuses it with the same words."""
    path = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--t-end", "2", "--out", str(path)) == 0
    path.write_text(path.read_text().replace("# emit-xy = false\n", f"# emit-xy = {value}\n"))
    capsys.readouterr()
    assert run("check", str(path)) == 2
    assert capsys.readouterr().err == f"error: emit-xy must be true or false, got {shown}\n"


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


def _pipe_of(data: bytes) -> int:
    """The read end of a pipe holding ``data`` (under the 64 KiB a pipe
    buffers, so no writer thread is needed), its write end closed."""
    r, w = os.pipe()
    try:
        assert os.write(w, data) == len(data)
    finally:
        os.close(w)
    return r


def test_check_reads_a_pipe(tmp_path, capsys):
    """A file read through a pipe, which has no size and cannot seek, is
    checked and read as the file itself."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig1",
               "--t-end", "2", "--out", str(out)) == 0
    data = out.read_bytes()
    assert len(data) == 12_570
    capsys.readouterr()
    assert run("check", str(out)) == 0
    from_file = capsys.readouterr()
    for read in ("check", "read_csv"):
        r = _pipe_of(data)
        try:
            if read == "check":
                assert run("check", f"/dev/fd/{r}") == 0
                from_pipe = capsys.readouterr()
                assert from_pipe.out.splitlines()[0] == f"audit of /dev/fd/{r}"
                assert from_pipe.out.splitlines()[1:] == from_file.out.splitlines()[1:]
                assert from_pipe.err == ""
            else:
                config, columns = read_csv(f"/dev/fd/{r}")
                expected_config, expected = read_csv(out)
                assert config == expected_config and list(columns) == list(expected)
                for name in expected:
                    assert np.array_equal(columns[name].view(np.uint64),
                                          expected[name].view(np.uint64)), name
        finally:
            os.close(r)


def test_check_flags_corrupted_file(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--preset", "paper-fig1",
               "--t-end", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    row = lines[data_start + 3].split(",")
    row[MODELS["sbth"].columns.index("G1_2000")] = "0.0"
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
    assert "at data row 7, the echoed grid has" in err


def test_check_classical_is_trivially_ok(tmp_path):
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "classical", "--t-end", "2",
               "--out", str(out)) == 0
    assert run("check", str(out)) == 0


def test_check_holds_a_classical_file_to_its_closed_form(tmp_path, capsys):
    """A classical file's x and p are the closed form its echo describes:
    an edited value is exit 1 naming the column and the data row. check
    once exited 0 on any classical file."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "classical", "--dt", "0.01", "--t-end", "2",
               "--sample-every", "10", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("check", str(out)) == 0
    assert capsys.readouterr().out == f"{out}: classical run, no quantum moments to audit\n"
    for column in ("x", "p"):
        edited = tmp_path / f"{column}.csv"
        edited.write_text(out.read_text())
        _corrupt(edited, column, 11, "9.0")  # t = 1
        assert run("check", str(edited)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{edited}: classical run, no quantum moments to audit"
        assert lines[1].startswith(f"derived column {column} differs at data row 11: file 9.0,")


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


def test_compare_refuses_sample_counts_that_differ_before_any_step(tmp_path, capsys,
                                                                    monkeypatch):
    """Runs of different sample counts share no grid: compare refuses them
    once both are built, and reads no block of either. It integrated both
    whole first (0.9 s and 214 MB max RSS for these 800 001 and 790 001
    samples), so a run that diverges was exit 3, not 2."""
    read = []
    integrate = cli.integrate

    def spied(*args):
        run = integrate(*args)
        return dataclasses.replace(run, blocks=(read.append(b) or b for b in run.blocks))

    monkeypatch.setattr(cli, "integrate", spied)
    specs = [("model = sbth\nt-end = 80\n", "model = lindblad\nt-end = 79\n",
              ["--dt", "1e-4"]),
             ("model = sbth\nt-end = 5000\n", "model = lindblad\nt-end = 4999\n",
              ["--dt", "1"])]
    for text_a, text_b, dt in specs:
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text(text_a)
        b.write_text(text_b)
        assert run("compare", str(a), str(b), *dt, "--sample-every", "1") == 2
        assert capsys.readouterr() == ("", "error: trajectories do not share one sampling grid\n")
    assert read == []


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
    ("x,p, x", "--columns names column 'x' more than once"),
])
def test_compare_bad_columns_is_exit_2(capsys, columns, message):
    assert run("compare", "sbth", "lindblad", "--t-end", "1", "--columns", columns) == 2
    out = capsys.readouterr()
    assert message in out.err
    assert "PASS" not in out.out


@pytest.mark.parametrize("columns, message", [
    ("foo", "unknown column 'foo' for frame BT1"),
    ("x,y", "unknown column 'y' for frame L1"),
])
def test_compare_refuses_an_unknown_column_before_integrating(capsys, monkeypatch, columns,
                                                              message):
    """A --columns name is held to the rule trajectory_columns reads columns
    by, for the frames of both runs, before either run is integrated. The
    L1 run has no ``y``: that is an unknown column too, not a frame error."""
    calls = []
    integrate = cli.integrate
    monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args) or integrate(*args))
    assert run("compare", "sbth", "lindblad", "--dt", "1e-4", "--t-end", "8",
               "--columns", columns) == 2
    out = capsys.readouterr()
    assert out.err == f"error: --columns: {message}\n" and out.out == ""
    assert calls == []


def test_compare_unknown_spec(tmp_path):
    assert run("compare", "sbth", "no-such-thing") == 2


def test_compare_spec_without_model_is_exit_2(tmp_path, capsys):
    spec = tmp_path / "grid.cfg"
    spec.write_text("t-end = 2\n")
    assert run("compare", "sbth", str(spec)) == 2
    assert capsys.readouterr().err == f"error: run spec {str(spec)!r} resolves to no model\n"


def test_compare_with_classical_defaults_to_x_and_p(capsys):
    assert run("compare", "classical", "lindblad", "--t-end", "2") == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert [line.split()[0] for line in lines[2:-1]] == ["x", "p"]
    assert lines[-1] == "PASS: all columns within tolerance" and out.err == ""


# ---------------------------------------------------------------------------
# the tolerance: flag, then config, then the default; finite and >= 0

def _corrupted_run(tmp_path, config_line=None):
    """A short sbth run with one zeroed G1_2000 entry (check exits 1)."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--t-end", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    row = lines[data_start + 3].split(",")
    row[MODELS["sbth"].columns.index("G1_2000")] = "0.0"
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
    """An exactly saturating sbth run has no violation at tol 0: its XY view
    is the exact sign pattern halved, with no rounded 1/sqrt(2) bias."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = sbth\nt-end = 2\ntol = 0\n")
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "run.csv")) == 0
    out = capsys.readouterr().out
    assert "tol 0," in out and "uncertainty violations: 0 " in out
    assert run("check", str(tmp_path / "run.csv"), "--tol", "0") == 0
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
    (["--model", "sbth", "--dt", "1", "--t-end", "200", "--sample-every", "1", "--emit-xy"], "89"),
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
    assert checked[3] == "first violation: t = 10, data row 6"


def test_models_share_one_sample_grid(params):
    # 23 steps at sample_every 4: the last sample falls before t_end
    grid = mm.IntegratorConfig(dt=0.3, t_end=7.0, sample_every=4)
    assert len(grid.sample_times) == 6
    for model in MODELS:
        blocks = list(cli._run_model(model, params, grid).blocks)
        ts = np.concatenate([block.ts for block in blocks])
        assert np.array_equal(ts, grid.sample_times), model
        assert ts[1] - ts[0] == 4 * 0.3
    classical = next(cli._run_model("classical", params, grid).blocks)
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


def test_dense_simulate_analyses_block_by_block(tmp_path, traced_peak):
    """A dense simulate audits and derives the XY columns one block of
    samples at a time: no XY view or energy report of the whole run is
    held. It peaked near 360 bytes a sample (run, kept derived columns,
    audit arrays and the writer's block); the bound leaves about 10 %. It
    peaked at 489, holding the whole run's XY view and energies, and at 675
    before the trajectory adopted each layer's arrays without a copy."""
    argv = ("simulate", "--model", "sbth", "--t-end", "20", "--sample-every", "1",
            "--emit-xy", "--out", str(tmp_path / "dense.csv"))
    assert run(*argv) == 0  # lazily built tables and caches
    assert traced_peak(lambda: run(*argv)) <= 400 * 20_001


def test_dense_check_analyses_block_by_block(tmp_path, traced_peak):
    """A dense check rebuilds, audits and recomputes one block of rows of
    the parsed table at a time, keeping only the rows whose derived values
    differ. It peaked near 335 bytes a sample (the table and the audit
    arrays); the bound leaves about 10 %. It peaked at 491, rebuilding the
    whole run and its XY view, and at 638 with the whole-stack transport's
    temporaries as well."""
    out = tmp_path / "dense.csv"
    assert run("simulate", "--model", "sbth", "--t-end", "20", "--sample-every", "1",
               "--emit-xy", "--out", str(out)) == 0
    assert run("check", str(out)) == 0  # lazily built tables and caches
    assert traced_peak(lambda: run("check", str(out))) <= 370 * 20_001


# block sizes below, at and above the 2 001 samples of a dense t-end 2 run
_BLOCK_SIZES = (1, 7, 10_000)


def _outputs(capsys, *argv):
    capsys.readouterr()
    code = run(*argv)
    printed = capsys.readouterr()
    return code, printed.out, printed.err


@pytest.mark.parametrize("argv", [
    ["--model", "sbth", "--emit-xy", "--sample-every", "1", "--t-end", "2"],
    ["--model", "lindblad", "--nbar", "2"],
])
def test_block_size_changes_no_simulate_output(tmp_path, capsys, monkeypatch, argv):
    reference = tmp_path / "reference.csv"
    expected = _outputs(capsys, "simulate", *argv, "--out", str(reference))
    assert expected[0] == 0
    for size in _BLOCK_SIZES:
        monkeypatch.setattr(cli, "ANALYSIS_BLOCK", size)
        out = tmp_path / f"{size}.csv"
        got = _outputs(capsys, "simulate", *argv, "--out", str(out))
        assert got == (0, expected[1].replace(str(reference), str(out)), ""), size
        assert out.read_bytes() == reference.read_bytes(), size


def _check_cases(tmp_path):
    """Files whose check must not depend on the block size, with the exit
    code and a line check prints for each."""
    dense = tmp_path / "dense.csv"
    assert run("simulate", "--model", "sbth", "--emit-xy", "--sample-every", "1",
               "--t-end", "2", "--out", str(dense)) == 0
    short = tmp_path / "short.csv"
    assert run("simulate", "--model", "lindblad", *_SHORT_GRID, "--out", str(short)) == 0
    nan = tmp_path / "nan.csv"  # 1e300 moments at t = 1: a NaN determinant
    nan.write_text(short.read_text())
    for name in ("G20", "G02", "G11"):
        _corrupt(nan, name, 2, "1.0000000000000000e+300")
    violation = tmp_path / "violation.csv"
    violation.write_text(dense.read_text())
    _corrupt(violation, "G1_2000", 2001, "0.0")
    derived = tmp_path / "derived.csv"
    derived.write_text(dense.read_text())
    _corrupt(derived, "E_mean", 2001)
    return [(dense, 0, "uncertainty violations: 0 "),
            (nan, 1, "first violation: t = 1, data row 2"),
            (violation, 1, "first violation: t = 2, data row 2001"),
            (derived, 1, "derived column E_mean differs at data row 2001: file -5.0,")]


def test_block_size_changes_no_check_output(tmp_path, capsys, monkeypatch):
    for path, code, line in _check_cases(tmp_path):
        expected = _outputs(capsys, "check", str(path))
        assert expected[0] == code and expected[2] == "", path
        assert any(printed.startswith(line) for printed in expected[1].splitlines()), path
        for size in _BLOCK_SIZES:
            monkeypatch.setattr(cli, "ANALYSIS_BLOCK", size)
            assert _outputs(capsys, "check", str(path)) == expected, (path, size)
        monkeypatch.undo()


@pytest.mark.parametrize("size", _BLOCK_SIZES)
def test_block_size_keeps_the_first_negative_variance(tmp_path, capsys, monkeypatch, size):
    monkeypatch.setattr(cli, "ANALYSIS_BLOCK", size)
    test_negative_variance_is_exit_3_naming_its_time(
        tmp_path, capsys, ["--model", "sbth", "--dt", "1", "--t-end", "200",
                           "--sample-every", "1", "--emit-xy"], "89")


@pytest.mark.parametrize("size", _BLOCK_SIZES)
def test_a_later_nonfinite_step_beats_an_earlier_negative_variance(tmp_path, capsys,
                                                                   monkeypatch, size):
    """The run reaches a negative variance at t = 89 and a non-finite state
    at step 1813. Analysed as it is integrated, the negative variance
    streams past first; the non-finite step is still the error reported,
    as when the whole run was integrated first, and no file is written."""
    monkeypatch.setattr(cli, "ANALYSIS_BLOCK", size)
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--dt", "1", "--t-end", "5000",
               "--sample-every", "1", "--emit-xy", "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "numerical failure: non-finite state at step 1813 (t = 1813)\n")
    assert list(tmp_path.iterdir()) == []


_COMPARE_FAILURES = {
    "sbth-lindblad-blow-up": (["sbth", "lindblad", "--t-end", "5000"], 3,
                              "numerical failure: non-finite state at step 1813 (t = 1813)\n"),
    # run b fails earlier, at step 1813: run a's error is still the one reported
    "lindblad-sbth-blow-up": (["lindblad", "sbth", "--t-end", "5000"], 3,
                              "numerical failure: non-finite state at step 2329 (t = 2329)\n"),
    "sbth-lindblad-negative": (["sbth", "lindblad", "--t-end", "100"], 3,
                               "numerical failure: negative diagonal moment at t = 89; "
                               "upstream state is corrupted\n"),
    "lindblad-sbth-negative": (["lindblad", "sbth", "--t-end", "100"], 3,
                               "numerical failure: negative diagonal moment at t = 89; "
                               "upstream state is corrupted\n"),
}


@pytest.mark.parametrize("size", _BLOCK_SIZES)
@pytest.mark.parametrize("argv,code,err", _COMPARE_FAILURES.values(), ids=_COMPARE_FAILURES)
def test_compare_reports_its_errors_in_one_order(tmp_path, capsys, monkeypatch, size, argv,
                                                 code, err):
    """compare steps its two runs in lockstep, a block pair at a time, yet
    reports the error the runs compared whole report: run a's integration
    error, then run b's, then the grid, then the analysis. An --out that
    cannot be written comes after all of them; nothing is printed."""
    monkeypatch.setattr(cli, "ANALYSIS_BLOCK", size)
    for out in ([], ["--out", str(tmp_path / "missing" / "joint.csv")]):
        capsys.readouterr()
        assert run("compare", *argv, "--dt", "1", "--sample-every", "1", *out) == code
        assert capsys.readouterr() == ("", err), out


@pytest.mark.parametrize("size", _BLOCK_SIZES)
def test_compare_keeps_the_error_order_across_block_pairs(tmp_path, capsys, monkeypatch, size):
    """Errors found in different block pairs: run a's negative variance at
    t = 92 beats run b's at t = 20, and a grid that parts at t = 62 beats
    the negative variance at t = 20 (both grids have 101 samples; the second
    is (637 k)*dt with dt = 2/637, which is not 2 k from k = 31)."""
    monkeypatch.setattr(cli, "ANALYSIS_BLOCK", size)
    specs = {
        "lindblad": "model = lindblad\ndt = 2\nsample-every = 1\nt-end = 200\n",
        "sbth": "model = sbth\ndt = 1\nsample-every = 2\nt-end = 200\n",
        "parted": f"model = sbth\ndt = {2 / 637!r}\nsample-every = 637\nt-end = 200\n",
    }
    for name, text in specs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    cases = [
        ("sbth", "lindblad", 3, "numerical failure: negative diagonal moment at t = 92; "
                                "upstream state is corrupted\n"),
        ("lindblad", "parted", 2, "error: trajectories do not share one sampling grid\n"),
    ]
    for spec_a, spec_b, code, err in cases:
        capsys.readouterr()
        assert run("compare", str(tmp_path / f"{spec_a}.cfg"),
                   str(tmp_path / f"{spec_b}.cfg")) == code
        assert capsys.readouterr() == ("", err), (spec_a, spec_b)


@pytest.mark.parametrize("size", _BLOCK_SIZES)
def test_compare_to_an_unwritable_out_prints_nothing(tmp_path, capsys, monkeypatch, size):
    """A clean compare whose --out cannot be written is exit 2 in the words
    writing it gives; the table, printed once the joint file is in, is not
    printed."""
    monkeypatch.setattr(cli, "ANALYSIS_BLOCK", size)
    out = tmp_path / "missing" / "joint.csv"
    assert run("compare", "sbth", "lindblad", "--t-end", "2", "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")


def test_check_reports_file_faults_in_their_order(tmp_path, capsys, monkeypatch):
    """check reads the whole file before it reports, so a fault is reported
    whatever block holds it: a row that does not parse before a wrong
    header, the row count before a row off the grid, and a row off the grid
    before an error of the analysis (here the thermal margin of an echoed
    nbar = 1e300 overflows). Each is one line on stderr, and nothing is
    printed."""
    monkeypatch.setattr(cli, "ANALYSIS_BLOCK", 7)
    dense = tmp_path / "dense.csv"
    assert run("simulate", "--model", "lindblad", "--sample-every", "1", "--t-end", "2",
               "--out", str(dense)) == 0
    text = dense.read_text()
    header = text.splitlines().index("t,x,p,G20,G02,G11,E_mean,E_analytic,U")
    unparsed = tmp_path / "unparsed.csv"
    unparsed.write_text(text.replace("t,x,p,", "t,y,p,"))
    _corrupt(unparsed, "E_mean", 2000, "five")
    long = tmp_path / "long.csv"
    long.write_text(text + text.splitlines()[-1] + "\n")
    _corrupt(long, "t", 5, "4.0000000000000001e-03")
    margin = tmp_path / "margin.csv"
    margin.write_text(re.sub(r"# nbar = .*", "# nbar = 1e+300", text))
    _corrupt(margin, "t", 1990, "0.0")
    cases = {
        unparsed: f"non-numeric data row at line {header + 1 + 2000} (field 'five')",
        long: "2002 data rows, the echoed grid (dt, t-end, sample-every) has 2001 samples",
        margin: "t = 0.0 at data row 1990, the echoed grid has 1.989",
    }
    for path, message in cases.items():
        capsys.readouterr()
        assert run("check", str(path)) == 2, path
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith("error: "), path
        assert message in printed.err and len(printed.err.splitlines()) == 1, printed.err


def test_check_reports_an_analysis_failure_once_the_file_is_read(tmp_path, capsys):
    """An error of the analysis is raised once the whole file is read, so a
    row that cannot be read, or a row count off the grid, is reported
    instead. Else a lindblad file's error follows the line naming the file,
    and a classical file's, from its closed-form rebuild, comes alone."""
    grid = ["--dt", "0.1", "--t-end", "2", "--sample-every", "1"]
    lindblad, classical = tmp_path / "lindblad.csv", tmp_path / "classical.csv"
    assert run("simulate", "--model", "lindblad", *grid, "--out", str(lindblad)) == 0
    assert run("simulate", "--model", "classical", *grid, "--out", str(classical)) == 0
    margin, unread = tmp_path / "margin.csv", tmp_path / "unread.csv"
    margin.write_text(re.sub(r"# nbar = .*", "# nbar = 1e300", lindblad.read_text()))
    unread.write_text("".join(margin.read_text().splitlines(keepends=True)[:-1]) + "1.0,oops\n")
    state, short = tmp_path / "state.csv", tmp_path / "short.csv"
    text = re.sub(r"# m = .*", "# m = 1e-300", classical.read_text())
    state.write_text(re.sub(r"# hbar = .*", "# hbar = 10000000000.0", text))
    short.write_text("".join(state.read_text().splitlines(keepends=True)[:-1]))
    cases = [
        (margin, 3, f"audit of {margin}\n",
         "numerical failure: the thermal diffusion margin overflows\n"),
        (unread, 2, "", f"error: {unread}: data does not match header width at line 36 "
                        "(2 fields, header has 9)\n"),
        (state, 3, "", "numerical failure: the coherent initial state overflows\n"),
        (short, 2, "", "error: 20 data rows, the echoed grid (dt, t-end, sample-every) "
                       "has 21 samples\n"),
    ]
    for path, code, out, err in cases:
        capsys.readouterr()
        assert run("check", str(path)) == code, path
        assert capsys.readouterr() == (out, err), path


_FAILING_RUNS = {
    "blow-up": ["--dt", "30", "--t-end", "3e8", "--sample-every", "1"],
    "negative variance": ["--dt", "1", "--t-end", "200", "--sample-every", "1", "--emit-xy"],
}


@pytest.mark.parametrize("argv", _FAILING_RUNS.values(), ids=_FAILING_RUNS)
@pytest.mark.parametrize("existing", [False, True], ids=["new out", "existing out"])
def test_failing_simulate_leaves_its_directory_as_it_was(tmp_path, argv, existing):
    """simulate writes a temporary file beside --out and moves it onto
    --out only once the whole run is clean: a failing run leaves no file,
    not even the temporary one, and an existing --out byte for byte."""
    out = tmp_path / "run.csv"
    if existing:
        assert run("simulate", "--model", "sbth", "--t-end", "2", "--out", str(out)) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert run("simulate", "--model", "sbth", *argv, "--out", str(out)) == 3
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv,code,err", [
    (["--t-end", "2"], 2, "error: [Errno 2] No such file or directory: '{out}'\n"),
    (_FAILING_RUNS["negative variance"], 3,
     "numerical failure: negative diagonal moment at t = 89; upstream state is corrupted\n"),
])
def test_out_in_a_missing_directory(tmp_path, capsys, argv, code, err):
    """An --out that cannot be written is exit 2 in the words writing it
    in place gives, naming --out, not the temporary file; a run that fails
    numerically is still exit 3, reported first."""
    out = tmp_path / "missing" / "run.csv"
    assert run("simulate", "--model", "sbth", *argv, "--out", str(out)) == code
    assert capsys.readouterr().err == err.format(out=out)
    assert run("simulate", "--model", "sbth", "--t-end", "2", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize("command,model,variant", [
    pytest.param("simulate", "sbth", None, id="simulate"),
    pytest.param("check", "sbth", None, id="check"),
    pytest.param("check", "sbth", "ulp-off", id="check-ulp-off"),
    pytest.param("simulate", "classical", None, id="simulate-classical"),
    pytest.param("check", "classical", None, id="check-classical"),
    pytest.param("compare", "sbth", None, id="compare"),
    pytest.param("compare", "sbth", "out", id="compare-out"),
])
def test_dense_memory_is_bounded_by_a_block(tmp_path, traced_peak, command, model, variant):
    """Beyond one block of samples, simulate and check keep only the run's
    audit summary, and compare (against a lindblad run) only the running
    metrics, so doubling the run adds at most 4 bytes a sample to their
    traced peak. So does a file whose derived columns are each one ulp
    off, as another BLAS build may round them: every such row is within
    the recomputation tolerance as soon as it is read. The audit's
    per-sample arrays grew them by about 25 bytes a sample, and the rows
    one ulp off by about 250; holding the whole run or the parsed table,
    by about 360 and 330, and compare holding both runs, by about 480."""
    xy = ["--emit-xy"] if MODELS[model].xy_columns else []
    peaks = []
    for t_end in ("20", "40"):
        out = tmp_path / f"{t_end}.csv"
        dense = ("--t-end", t_end, "--sample-every", "1")
        if command == "compare":
            argv = ("compare", model, "lindblad", *dense,
                    *(["--out", str(out)] if variant == "out" else []))
        else:
            argv = ("simulate", "--model", model, *dense, *xy, "--out", str(out))
        assert run(*argv) == 0  # the file, lazily built tables and caches
        if variant == "ulp-off":
            config, columns = read_csv(out)
            for name in columns:
                if name not in MODELS[model].stored:
                    columns[name] = np.nextafter(columns[name], 0.0)
            write_csv(out, config, list(columns), [list(columns.values())])
        if command == "check":
            argv = ("check", str(out))
            assert run(*argv) == 0
        peaks.append(traced_peak(lambda: run(*argv)))
    assert peaks[1] - peaks[0] <= 4 * 20_000


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
    (["--model", "sbth", "--m", "1e-300", "--hbar", "1e10"], 3, "initial state overflows"),
    (["--model", "classical", "--m", "1e-300", "--hbar", "1e10"], 3, "initial state overflows"),
    (["--model", "sbth", "--m", "1e-300", "--omega", "1e-300"], 3, "initial state overflows"),
    (["--model", "sbth", "--m", "1e200", "--big-omega", "1e100"], 3, "coefficients overflow"),
    # hbar**2/4 and every determinant underflowed to 0: a clean audit at tol 0
    (["--model", "sbth", "--hbar", "1e-300", "--tol", "0"], 2,
     "hbar = 1e-300 is too small: its uncertainty bound underflows"),
    # the system's diffusion source overflows, past every parameter check
    (["--model", "lindblad", "--gamma", "1e300", "--nbar", "1e300"], 3,
     "coefficients overflow (diffusion)"),
    # (hbar*gamma)**2 is finite; its product with nbar*(nbar + 1) is not
    (["--model", "sbth", "--nbar", "1e300"], 3, "thermal diffusion margin"),
    (["--model", "lindblad", "--nbar", "1e300"], 3, "thermal diffusion margin"),
])
def test_overflowing_parameter_is_exit_2_or_3(tmp_path, capsys, argv, code, named):
    """A float overflow in a parameter's arithmetic is one line on stderr and
    exit 2 naming the parameter, or 3 for a numerical failure; it was an
    OverflowError traceback, exit 1. Either way no file is written."""
    out = tmp_path / "run.csv"
    assert run("simulate", *_SHORT_GRID, *argv, "--out", str(out)) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["--gamma", "1e300"], "thermal"),
    (["--hbar", "1e154", "--lambda", "2"], "moment"),
    (["--nbar", "1e300"], "thermal"),
])
def test_overflowing_margin_is_exit_3_before_the_first_step(tmp_path, capsys, monkeypatch,
                                                            argv, named):
    """The margins' overflow depends only on the parameters, so simulate
    refuses the run between the build and the first step; it integrated
    80 000 steps first."""
    def integrate(*args):
        raise AssertionError("integrated a run whose margin overflows")

    monkeypatch.setattr(cli, "integrate", integrate)
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", *argv, "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: the {named} diffusion margin overflows\n")
    assert not out.exists()


def test_compare_of_an_overflowing_initial_state_is_exit_3(capsys):
    assert run("compare", "sbth", "lindblad", "--m", "1e-300", "--hbar", "1e10",
               *_SHORT_GRID) == 3
    out = capsys.readouterr()
    assert out.err == "numerical failure: the coherent initial state overflows\n"
    assert out.out == ""


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
    """A genuine lindblad file whose data row 2 (t = 1) reads 1e300 for G20,
    G02 and G11: its pair determinant is inf - inf = NaN, a violation, not a
    pass and not a warning."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "lindblad", *_SHORT_GRID, "--out", str(out)) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[header].rstrip("\n").split(",")
    fields = lines[header + 2].split(",")
    assert float(fields[0]) == 1.0
    for name in ("G20", "G02", "G11"):
        fields[names.index(name)] = "1.0000000000000000e+300"
    lines[header + 2] = ",".join(fields)
    out.write_text("".join(lines))
    assert run("check", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "uncertainty violations: 1 " in captured.out
    assert "min determinant nan" in captured.out
    assert "\nfirst violation: t = 1, data row 2\n" in captured.out


def test_nan_xy_determinant_shows_in_the_summary(tmp_path, capsys):
    """Moments of 1e300 in the mirror pair of an sbth file's data row 3
    leave the first pair's determinant finite and make the XY view's NaN:
    the summary's minimum determinant is NaN. It read 0.25, Python's min()
    dropping a NaN in its second argument."""
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "sbth", "--dt", "0.1", "--t-end", "2",
               "--sample-every", "1", "--out", str(out)) == 0
    for name in ("G1_0002", "G1_0020", "G1_0011"):
        _corrupt(out, name, 3, "1.0000000000000000e+300")
    capsys.readouterr()
    assert run("check", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ("uncertainty violations: 1 (bound 0.25, tol 1e-09, min determinant nan)"
            in captured.out.splitlines())
    traj = trajectory_from_columns(*read_csv(out))
    u_pair1, _ = _uncertainty_test(traj.covs, traj.params.hbar, 1e-9)
    assert math.isnan(mm.audit(traj).min_uncertainty) and np.isfinite(u_pair1).all()


def test_thermal_margin_of_a_tiny_hbar_is_zero(tmp_path, capsys):
    """The margin's rounded terms near 1.6e-303 once left -3.23791e-319."""
    assert run("simulate", "--model", "lindblad", "--hbar", "1e-150", "--dt", "0.1",
               "--t-end", "2", "--out", str(tmp_path / "run.csv")) == 0
    assert "diffusion margin (thermal model): 0\n" in capsys.readouterr().out


# at nbar = 1e300 the moments overflow: the U1 determinants are NaN, and the
# moment columns differ by up to 1.2e300
_HUGE_NBAR = ("compare", "sbth", "lindblad", "--nbar", "1e300", *_SHORT_GRID)


def _compare_table(out: str) -> dict[str, tuple[float, float]]:
    """(max_abs, rms) per column of a printed compare table."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["column", "max_abs"])
    rows = itertools.takewhile(lambda line: not line.startswith(("PASS", "FAIL", "wrote")),
                               lines[start + 1:])
    return {name: (float(a), float(r)) for name, a, r, _ in map(str.split, rows)}


def test_compare_fails_on_a_nan_difference(capsys):
    assert run(*_HUGE_NBAR, "--columns", "U1") == 1
    out = capsys.readouterr().out
    assert math.isnan(_compare_table(out)["U1"][0])
    assert out.endswith("FAIL: tolerance exceeded\n")


def test_compare_rms_of_huge_differences_is_finite(capsys):
    """Differences near 1e300 square beyond the float range: the rms is
    taken on a scaled difference, with no overflow warning."""
    assert run(*_HUGE_NBAR) == 1
    printed = capsys.readouterr()
    table = _compare_table(printed.out)
    assert table["G02"][0] > 1e299 and printed.err == ""
    assert all(math.isfinite(rms) and rms <= max_abs for max_abs, rms in table.values())


_COMPARE_CASES = {
    "dense-out": ["sbth", "lindblad", "--sample-every", "1", "--t-end", "2", "--out"],
    "fig3-nbar": ["sbth", "lindblad", "--preset", "paper-fig3", "--nbar", "2"],
    "huge-nbar": list(_HUGE_NBAR[1:]),
    "huge-nbar-U1": [*_HUGE_NBAR[1:], "--columns", "U1"],
    "classical": ["classical", "sbth", "--sample-every", "1", "--t-end", "3"],
}


@pytest.mark.parametrize("argv", _COMPARE_CASES.values(), ids=_COMPARE_CASES)
def test_block_size_changes_no_compare_output(tmp_path, capsys, monkeypatch, argv):
    """The printed table, the exit code and the joint file do not depend on
    the size of the block pairs compare folds."""
    def outputs(name):
        out = [str(tmp_path / name)] if argv[-1] == "--out" else []
        code, printed, err = _outputs(capsys, "compare", *argv, *out)
        written = (tmp_path / name).read_bytes() if out else None
        return code, printed.replace(str(tmp_path / name), "joint.csv"), err, written

    expected = outputs("reference.csv")
    assert expected[0] in (0, 1) and expected[2] == ""
    for size in _BLOCK_SIZES:
        monkeypatch.setattr(cli, "ANALYSIS_BLOCK", size)
        assert outputs(f"{size}.csv") == expected, size


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


_JOINT = ("m", "big-omega", "lambda", "hbar", "nbar")


@pytest.mark.parametrize("model", MODELS)
def test_command_line_fuzz(tmp_path, capsys, model):
    """Every parameter flag at extreme values and at seeded random ones of
    any magnitude and sign, one at a time; every parameter as a config-file
    key at 0, -1, 1e-300 and 1e300; and seeded joint draws of m, big-omega,
    lambda, hbar and nbar up to 1e160, where products such as m*big_omega**2
    and (lambda*hbar)**2 overflow. Each time simulate exits 0, 2 or 3, check
    of a written file exits 0 to 3, and a clean check reports a finite
    minimum determinant. An exception escaping ``main`` fails the test, and
    so does a warning (``filterwarnings = error``)."""
    rng = np.random.default_rng(8)
    out = tmp_path / "run.csv"
    cfg = tmp_path / "run.cfg"
    xy = ["--emit-xy"] if MODELS[model].xy_columns else []
    grid = {"dt": "0.1", "t-end": "20", "sample-every": "10"}
    short = [f"--{key}={value}" for key, value in grid.items()]

    def fuzz(case, *argv):
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = _exit_code("simulate", f"--model={model}", *argv, f"--out={out}", *xy)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), case
        if code and "usage:" not in err:
            assert len(err.splitlines()) == 1, (case, err)
        if not out.exists():
            return
        check = _exit_code("check", str(out))
        printed = capsys.readouterr()
        assert check in (0, 1, 2, 3), case
        if check == 0 and model != "classical":
            det = re.search(r"min determinant (\S+)\)", printed.out).group(1)
            assert math.isfinite(float(det)), (case, det)

    for param in PARAMS:
        drawn = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-300, 300, 2)
        for value in (*_EXTREMES, *drawn):
            flag = f"--{param.key}={_flag_value(param, value)}"
            fuzz(flag, *short, flag)
        for value in (0, -1, 1e-300, 1e300):
            lines = {**grid, param.key: _flag_value(param, value)}
            cfg.write_text("".join(f"{key} = {text}\n" for key, text in lines.items()))
            fuzz(lines, f"--config={cfg}")
    joint = np.random.default_rng(9)
    for _ in range(16):
        flags = [f"--{key}={float(value)!r}"
                 for key, value in zip(_JOINT, 10.0 ** joint.uniform(-160, 160, 5))]
        fuzz(flags, *short, *flags)


def test_compare_fuzz(capsys):
    """compare sbth lindblad at the seeded joint draws of the fuzz above, at
    nbar = 1e300 and at the defaults: exit 0 to 3, at most one error line,
    and PASS only when every printed max_abs is finite. A warning fails it
    too."""
    joint = np.random.default_rng(9)
    cases = [[f"--{key}={float(value)!r}"
              for key, value in zip(_JOINT, 10.0 ** joint.uniform(-160, 160, 5))]
             for _ in range(16)]
    for flags in [*cases, ["--nbar=1e300"], ["--nbar=1e300", "--columns=U1"], []]:
        capsys.readouterr()
        code = _exit_code("compare", "sbth", "lindblad", *_SHORT_GRID, *flags)
        printed = capsys.readouterr()
        assert code in (0, 1, 2, 3), flags
        assert len(printed.err.splitlines()) <= 1, (flags, printed.err)
        if "PASS" in printed.out:
            table = _compare_table(printed.out)
            assert all(math.isfinite(max_abs) for max_abs, _ in table.values()), flags


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


@pytest.mark.parametrize("off,code", [(5e-12, 0), (5e-11, 1)])
def test_a_row_in_doubt_is_judged_by_the_whole_file_scale(tmp_path, capsys, monkeypatch,
                                                          off, code):
    """A thermal run at nbar = 10 from the ground state: E_mean grows from
    0.75 to about 15.7. Its first row off by 5e-12 is beyond 1e-12 of the
    first block's scale but within 1e-12 of the file's, so it is held in
    doubt and then cleared (exit 0); off by 5e-11 it is a mismatch named at
    data row 1 (exit 1)."""
    monkeypatch.setattr(cli, "ANALYSIS_BLOCK", 7)
    out = tmp_path / "run.csv"
    assert run("simulate", "--model", "lindblad", "--nbar", "10", "--n-level", "0",
               "--out", str(out)) == 0
    _, columns = read_csv(out)
    _corrupt(out, "E_mean", 1, f"{columns['E_mean'][0] + off:.16e}")
    capsys.readouterr()
    assert run("check", str(out)) == code
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("derived column E_mean differs at data row 1:") == bool(code)


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
