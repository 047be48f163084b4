import math
import re

import numpy as np
import pytest

from momentous import cli
from momentous.csvio import read_csv, PARAMS, SBTH_BASE_COLUMNS, SBTH_XY_COLUMNS, LINDBLAD_COLUMNS


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
