"""The CSV reader's contract and the writer's number format."""

import warnings

import numpy as np
import pytest

from momentous import IntegratorConfig, ModelParams, cli
from momentous.csvio import (
    WRITE_BLOCK,
    read_csv,
    run_config,
    trajectory_from_columns,
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
    spacing; they must pass the uniform-grid check."""
    for dt, every, n in ((1e-3, 1, 2_000_000), (1e-2, 7, 300_000), (1 / 3, 100, 10_000)):
        ts = (np.arange(n) * every) * dt
        config = {"model": "classical",
                  **run_config(ModelParams(), IntegratorConfig(dt=dt, t_end=1.0))}
        assert trajectory_from_columns(config, {"t": ts}) is None


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
    write_csv(path, {"model": "test"}, [(name, data[:, k]) for k, name in enumerate(names)])

    config, columns = read_csv(path)
    assert config == {"model": "test"}
    back = np.column_stack([columns[name] for name in names])
    assert np.array_equal(back.view(np.uint64), data.view(np.uint64))

    lines = path.read_text().splitlines()
    assert lines[:2] == ["# model = test", "t,a,b"]
    assert lines[2:] == [_oracle_row(row) for row in data]
