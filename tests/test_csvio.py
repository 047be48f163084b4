"""The CSV reader's contract and the writer's number format."""

import re
import warnings

import numpy as np
import pytest

from momentous import IntegratorConfig, ModelParams, cli
from momentous.csvio import (
    MODELS,
    WRITE_BLOCK,
    CsvFormatError,
    read_csv,
    run_config,
    trajectory_from_columns,
    validate_columns,
    write_csv,
)


# ---------------------------------------------------------------------------
# malformed files: exit 2 from check, one error line, no traceback or warning

MALFORMED = {
    "empty file": "",
    "header only": "# model = sbth\nt,x1\n",
    "header, then blanks and comments": "# model = sbth\nt,x1\n\n# note\n   \n",
    "non-numeric field": "# model = sbth\nt,x1\n0.0,1.0\n1.0,not_a_number\n",
    "ragged row": "# model = sbth\nt,x1\n0.0,1.0\n1.0\n",
    "row wider than the header": "# model = sbth\nt,x1\n0.0,1.0\n1.0,2.0,3.0\n",
    "rows narrower than the header": "# model = sbth\nt,x1,p1\n0.0,1.0\n1.0,2.0\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_is_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["check", str(path)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("text, problem", [
    ("# model = sbth\nt,x1\n0.0,1.0\n1.0,not_a_number\n", "non-numeric data row"),
    ("# model = sbth\nt,x1\n0.0,1.0\n1.0\n", "data does not match header width"),
    ("# model = sbth\nt,x1\n0.0,1.0\n1.0,1_0\n", "non-numeric data row"),
    ("# model = sbth\n\nt,x1\n0.0,1.0\n\n# note\n1.0,2.0,3.0\n",
     "data does not match header width"),
], ids=["non-numeric", "short", "digit separator", "wide after blanks and a comment"])
def test_malformed_row_names_its_file_line(tmp_path, capsys, text, problem):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    line = len(text.splitlines())
    assert f"{problem} at line {line} " in err, err
    assert "at row" not in err, err


def test_column_named_twice_is_exit_2(tmp_path, capsys):
    """A lindblad file with an extra leading G20 column of -5: read as a
    dict, the last copy would win and the negative variance check clean."""
    path = tmp_path / "run.csv"
    assert cli.main(["simulate", "--model", "lindblad", "--t-end", "2", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[header:] = ["G20," + lines[header], *("-5," + row for row in lines[header + 1:])]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: header names column 'G20' more than once\n"


def test_blank_lines_and_crlf_still_read(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_bytes(b"# a = 1\r\n\r\n# b = x\r\nt,x\r\n\r\n0.5,1.5\r\n  \r\n2.5,-3.5e-01\r\n\r\n")
    config, columns = read_csv(path)
    assert config == {"a": 1, "b": "x"}
    assert list(columns) == ["t", "x"]
    assert columns["t"].tolist() == [0.5, 2.5]
    assert columns["x"].tolist() == [1.5, -0.35]


def test_comment_after_header_is_not_config(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("# a = 1\nt,x\n# a = 2\n0.0,1.0\n# b = 3\n1.0,2.0\n")
    config, columns = read_csv(path)
    assert config == {"a": 1}
    assert columns["x"].tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# the time grid of a checked file

def test_rounded_sample_grids_are_uniform():
    """``(k*sample_every)*dt`` grids carry k*eps relative round-off in their
    spacing; a file on such a grid, with a matching echo, is accepted."""
    for dt, every, n in ((1e-3, 1, 2_000_000), (1e-2, 7, 300_000), (1 / 3, 100, 10_000)):
        ts = (np.arange(n) * every) * dt
        grid = IntegratorConfig(dt=dt, t_end=ts[-1], sample_every=every)
        config = {"model": "classical", **run_config(ModelParams(), grid)}
        columns = {"t": ts, "x": np.zeros(n), "p": np.zeros(n)}
        assert validate_columns(config, columns) == "classical"


def test_a_table_off_its_echoed_grid_is_refused():
    """A table one row short, or with one time 1e-9 off its sample, is
    refused naming the row count or that row."""
    grid = IntegratorConfig(dt=0.1, t_end=2.0, sample_every=1)
    config = {"model": "classical", **run_config(ModelParams(), grid)}
    ts = grid.sample_times
    off = ts.copy()
    off[5] = 0.500000001
    for t, message in (
        (ts[:-1], "20 data rows, the echoed grid (dt, t-end, sample-every) has 21 samples"),
        (off, "t = 0.500000001 at data row 6, the echoed grid has 0.5"),
    ):
        columns = {"t": t, "x": np.zeros(len(t)), "p": np.zeros(len(t))}
        with pytest.raises(CsvFormatError, match=re.escape(message)):
            validate_columns(config, columns)


def _set(key, value):
    """Change the echo line of ``key`` to ``value``; None deletes it."""
    def edit(echo, rows):
        line = next(k for k, line in enumerate(echo) if line.startswith(f"# {key} ="))
        echo[line:line + 1] = [] if value is None else [f"# {key} = {value}"]
        return echo, rows
    return edit


def _rows(edit_row, header=lambda names: names):
    """Apply ``edit_row`` to each data row and ``header`` to the header."""
    return lambda echo, rows: (echo, [header(rows[0]), *map(edit_row, rows[1:])])


def _without(name):
    """Delete a column from the header and the data."""
    def edit(echo, rows):
        k = rows[0].index(name)
        return echo, [row[:k] + row[k + 1:] for row in rows]
    return edit


def _swap(a, b):
    """Swap two columns in the header and the data."""
    def edit(echo, rows):
        i, j = rows[0].index(a), rows[0].index(b)
        for row in rows:
            row[i], row[j] = row[j], row[i]
        return echo, rows
    return edit


# an edit of a short simulate file (21 samples), and what the error line names
ECHO_EDITS = {
    "last data row deleted": ("sbth", [], lambda echo, rows: (echo, rows[:-1]),
                              "20 data rows, the echoed grid (dt, t-end, sample-every)"),
    "dt changed": ("sbth", [], _set("dt", 0.002), "has 11 samples"),
    "dt one ulp up": ("lindblad", [], _set("dt", "0.0010000000000000002"),
                      "t = 0.1 at data row 2,"),
    "dt nan": ("sbth", [], _set("dt", "nan"), "dt must be finite"),
    "t-end changed": ("lindblad", [], _set("t-end", 3.0), "has 31 samples"),
    "sample-every changed": ("sbth", [], _set("sample-every", 50), "has 41 samples"),
    "sample-every negative": ("classical", [], _set("sample-every", -3), "sample-every must"),
    "t shifted": ("sbth", [], _rows(lambda row: [repr(float(row[0]) + 5.0), *row[1:]]),
                  "t = 5.0 at data row 1,"),
    **{f"extra column foo ({model})": (
        model, [], _rows(lambda row: [*row, "-5.0"], lambda names: [*names, "foo"]),
        f"header column {len(MODELS[model].columns) + 1} is foo,") for model in MODELS},
    "lindblad without E_mean": ("lindblad", [], _without("E_mean"),
                                "header column 7 is E_analytic, the echoed lindblad layout "
                                "has E_mean"),
    "two columns swapped": ("sbth", [], _swap("x1", "p1"), "header column 2 is p1,"),
    "emit-xy line deleted": ("sbth", ["--emit-xy"], _set("emit-xy", None),
                             "header column 16 is x, the echoed sbth layout has (none)"),
}


@pytest.mark.parametrize("model, flags, edit, named", ECHO_EDITS.values(), ids=ECHO_EDITS.keys())
def test_file_must_be_the_run_its_echo_describes(tmp_path, capsys, model, flags, edit, named):
    path = tmp_path / "run.csv"
    assert cli.main(["simulate", "--model", model, "--t-end", "2", "--out", str(path),
                     *flags]) == 0
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    echo, rows = edit(lines[:header], [line.split(",") for line in lines[header:]])
    path.write_text("\n".join([*echo, *map(",".join, rows)]) + "\n")
    capsys.readouterr()
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err


# ---------------------------------------------------------------------------
# bit-exact and byte-exact round trip

EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, -0.1, 1 / 3,
    *(np.nextafter(10.0**k, side) for k in range(-20, 21, 5) for side in (0.0, np.inf)),
    1e22, 1e23, 9.999999999999999e22,
    np.nan, np.inf, -np.inf,
]


def _oracle_row(row) -> str:
    """The per-value formatting the block writer replaced."""
    return ",".join(f"{v:.16e}" for v in row)


@pytest.mark.parametrize("n_rows", [WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1])
def test_round_trip_bit_and_byte_exact(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    n_cols = 3
    values = rng.integers(0, 2**64, size=n_rows * n_cols, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(values), values, rng.standard_normal(values.size))
    values[: len(EDGES)] = EDGES
    values[-len(EDGES):] = EDGES[::-1]
    data = values.reshape(n_rows, n_cols)
    names = ["t", "a", "b"]

    path = tmp_path / "rt.csv"
    write_csv(path, {"model": "test"}, names, [list(data.T)])

    config, columns = read_csv(path)
    assert config == {"model": "test"}
    back = np.column_stack([columns[name] for name in names])
    assert np.array_equal(back.view(np.uint64), data.view(np.uint64))

    lines = path.read_text().splitlines()
    assert lines[:2] == ["# model = test", "t,a,b"]
    assert lines[2:] == [_oracle_row(row) for row in data]


# ---------------------------------------------------------------------------
# the renderer's contract: every value exactly as "%.16e" writes it

def _contract_values() -> np.ndarray:
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=500_000, dtype=np.uint64).view(np.float64)
    powers = np.array([10.0**k for k in range(-323, 309)])
    # the neighbour below a power of ten rounds up into it: a carry
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # at most 17 significant digits: an exact decimal rounded once more
    count = 30_000
    digits = np.round(rng.random(count) * 10.0 ** rng.integers(1, 18, count))
    short = digits / 10.0 ** rng.integers(-290, 291, count)
    whole = rng.integers(1, 10**17, count).astype(float) * 10.0 ** rng.integers(-22, 23, count)
    # exact ties: j·5^k / 2^(17-k), j odd, has 18 significant digits, the last a 5
    odd = 2 * rng.integers(2**16, 5 * 2**17, 3000) + 1
    ties = np.concatenate([odd * 5.0**k / 2.0 ** (17 - k) for k in range(6)])
    subnormals = rng.integers(1, 2**52, size=1000, dtype=np.uint64).view(np.float64)
    signed = np.concatenate([short, whole, ties, subnormals])
    signed *= np.where(rng.random(signed.size) < 0.5, -1.0, 1.0)
    edges = np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                      2.225073858507201e-308, 1.7976931348623157e308, 1e-270, 1e270,
                      np.nextafter(1e-270, 0.0), np.nextafter(1e270, np.inf), 0.5, 1.0, 9.5, 0.1])
    return np.concatenate([bits, neighbours, -neighbours, signed, edges, -edges])


def test_renderer_writes_every_value_as_percent_format(tmp_path):
    values = _contract_values()
    n_cols = 7
    values = np.concatenate([values, np.zeros(-values.size % n_cols)])
    data = values.reshape(-1, n_cols)
    names = [f"c{k}" for k in range(n_cols)]
    path = tmp_path / "contract.csv"
    write_csv(path, {"model": "test"}, names, [list(data.T)])

    head = f"# model = test\n{','.join(names)}\n"
    row = ",".join(["%.16e"] * n_cols) + "\n"
    expected = head + (row * len(data)) % tuple(values.tolist())
    text = path.read_text()
    if text != expected:
        fields = text[len(head):].replace("\n", ",").split(",")
        k = next(k for k, v in enumerate(values.tolist()) if fields[k] != "%.16e" % v)
        raise AssertionError(f"{values[k]!r} was written as {fields[k]!r}, "
                             f"not {'%.16e' % values[k]!r}")


# ---------------------------------------------------------------------------
# the model table: what simulate writes is what the reader rebuilds

@pytest.mark.parametrize("model", MODELS)
def test_model_table_is_the_file_schema(tmp_path, model):
    frame, moments, names, xy_names = MODELS[model]
    for flags, expected in (([], names), (["--emit-xy"], names + xy_names)):
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--model", model, "--t-end", "1", "--out", str(out),
                         *flags]) == 0
        config, columns = read_csv(out)
        assert list(columns) == expected
        assert ("emit-xy" in config) == bool(xy_names)
    traj = trajectory_from_columns(config, columns)
    if frame is None:  # rebuilt as the closed form at the file's times
        assert moments == () and MODELS[model].stored == ("t",)
        for k, name in enumerate(("x", "p")):
            assert traj.means[:, k].tobytes() == columns[name].tobytes(), name
    else:
        assert traj.frame == frame
        assert set(frame.labels) | set(moments) <= set(names)
        assert len(moments) == frame.dim * (frame.dim + 1) // 2


def test_write_csv_replaces_the_file_only_once_every_block_is_in(tmp_path):
    """A table written block by block goes to a temporary file beside the
    target and is moved onto it at the end. A write whose blocks raise
    leaves the target and its directory as they were; a finished one keeps
    the target's permission bits and writes through a symbolic link."""
    path = tmp_path / "run.csv"
    path.write_text("before\n")
    path.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(path)

    def blocks(fail):
        yield [np.arange(3.0), np.ones(3)]
        if fail:
            raise ArithmeticError("no more rows")
        yield [np.arange(3.0, 5.0), np.ones(2)]

    with pytest.raises(ArithmeticError):
        write_csv(link, {"model": "test"}, ["t", "a"], blocks(True))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "run.csv"]
    assert path.read_text() == "before\n"
    write_csv(link, {"model": "test"}, ["t", "a"], blocks(False))
    assert link.is_symlink() and path.stat().st_mode & 0o777 == 0o640
    whole = tmp_path / "whole.csv"
    write_csv(whole, {"model": "test"}, ["t", "a"], [[np.arange(5.0), np.ones(5)]])
    assert path.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("block", [[np.arange(3.0), np.ones(2)], [np.arange(3.0)]],
                         ids=["unequal lengths", "a column short"])
def test_write_csv_refuses_a_block_that_is_not_one_array_per_column(tmp_path, block):
    with pytest.raises(ValueError, match="all columns must share one length"):
        write_csv(tmp_path / "run.csv", {"model": "test"}, ["t", "a"], [block])
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# memory: each sample stored once

def test_writer_memory_does_not_grow_with_the_row_count(tmp_path, traced_peak):
    """``write_csv`` stacks and renders one block of rows at a time; it
    stacked the whole table first (3.6 MB at 10 000 rows, 9.4 MB at 40 000)."""
    rng = np.random.default_rng(20)
    columns = [(f"c{k}", rng.standard_normal(40_000)) for k in range(25)]

    def write(rows):
        return lambda: write_csv(tmp_path / "w.csv", {}, [n for n, _ in columns],
                                 [[v[:rows] for _, v in columns]])

    write(10_000)()  # the renderer's tables are built on first use
    small, large = traced_peak(write(10_000)), traced_peak(write(40_000))
    assert large <= 1.1 * small, (small, large)


def test_rebuilt_trajectory_stores_each_sample_once(tmp_path, traced_peak):
    """``trajectory_from_columns`` fills the covariances straight from the
    moment columns and hands its arrays over read-only; it stacked the
    moments and copied the result again (2.6 times the stored bytes)."""
    path = tmp_path / "run.csv"
    argv = ["simulate", "--model", "sbth", "--t-end", "10", "--sample-every", "1"]
    assert cli.main([*argv, "--emit-xy", "--out", str(path)]) == 0
    config, columns = read_csv(path)
    traj = trajectory_from_columns(config, columns)
    peak = traced_peak(lambda: trajectory_from_columns(config, columns))
    assert peak <= 1.25 * (traj.means.nbytes + traj.covs.nbytes)
    for arr in (traj.ts, traj.means, traj.covs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    for name, i, j in zip(MODELS["sbth"].moments, *np.triu_indices(4)):
        assert np.array_equal(traj.covs[:, i, j], columns[name])
        assert np.array_equal(traj.covs[:, j, i], columns[name])


def test_rows_of_a_validated_file_rebuild_that_slice_of_its_run(tmp_path):
    """A row range rebuilds those rows of the whole run, into arrays of its
    own: no view of the parsed table outlives the block."""
    path = tmp_path / "run.csv"
    assert cli.main(["simulate", "--model", "sbth", "--t-end", "2", "--sample-every", "1",
                     "--emit-xy", "--out", str(path)]) == 0
    config, columns = read_csv(path)
    assert validate_columns(config, columns) == "sbth"
    whole = trajectory_from_columns(config, columns)
    rows = {name: column[1000:1007] for name, column in columns.items()}
    block = trajectory_from_columns(config, rows, validate=False)
    for name in ("ts", "means", "covs"):
        part = getattr(block, name)
        assert np.array_equal(part, getattr(whole, name)[1000:1007]), name
        assert not any(np.shares_memory(part, column) for column in columns.values()), name
