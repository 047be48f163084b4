"""The CSV reader returns what ``float`` makes of each field, bit for bit.

The reader reads a file once. A buffer of rows of the writer's shape is
parsed as a block; a buffer with a line of any other shape is parsed line
by line, each field by ``float``. Both must give the values and errors the
reader always gave, so each test here compares with ``float`` or with
``np.loadtxt``, which read the files of other shapes before.
"""

import codecs
import decimal
import gc
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from test_csvio import _contract_values

from momentous import cli, csvio
from momentous.csvio import READ_BLOCK, CsvFormatError, read_csv, write_csv


@pytest.fixture
def writer_shaped_only(monkeypatch):
    """Fail any read that leaves the block parser for the line parser."""
    def refuse(*args, **kwargs):
        raise AssertionError("a file of the writer's shape parsed line by line")
    monkeypatch.setattr(csvio, "_parse_lines", refuse)


def _write_fields(path, rows, names=("t", "a", "b"), ending="\n"):
    head = ["# model = test", ",".join(names)]
    path.write_bytes("".join(line + ending for line in [*head, *map(",".join, rows)]).encode())


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "with nan and inf"])
def test_contract_values_read_back_bit_exact(tmp_path, request, finite):
    """The writer's whole contract set comes back bit for bit; the finite
    values without leaving the block parser, NaNs only as NaN."""
    values = _contract_values()
    if finite:
        request.getfixturevalue("writer_shaped_only")
        values = values[np.isfinite(values)]
    n_cols = 7
    values = np.concatenate([values, np.zeros(-values.size % n_cols)])
    data = values.reshape(-1, n_cols)
    names = [f"c{k}" for k in range(n_cols)]
    path = tmp_path / "contract.csv"
    write_csv(path, {"model": "test"}, names, [list(data.T)])
    _, columns = read_csv(path)
    back = np.column_stack([columns[name] for name in names])
    nan = np.isnan(data)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(_bits(back[~nan]), _bits(data[~nan]))


def _writer_shape(digits: str, exponent: int, negative: bool) -> str:
    """The field "%.16e" writes for 17 significant digits and an exponent."""
    return f"{'-' if negative else ''}{digits[0]}.{digits[1:]}e{exponent:+03d}"


def _near_midpoints(rng, count: int) -> list[str]:
    """17-digit decimals within 1e-17 relative of the midpoint between a
    double and the next one up, in the writer's shape."""
    fields = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # every midpoint of two doubles exactly
        while len(fields) < count:
            x = float(np.ldexp(1.0 + rng.random(), int(rng.integers(-1000, 1000))))
            mid = decimal.Decimal(x) + decimal.Decimal(float(np.spacing(x))) / 2
            sign, digits, exponent = mid.quantize(
                decimal.Decimal(1).scaleb(mid.adjusted() - 16)).as_tuple()
            text = "".join(map(str, digits))
            if len(text) != 17:  # rounded up to the next power of ten
                continue
            near = decimal.Decimal(f"{text[0]}.{text[1:]}e{mid.adjusted()}")
            if abs(near - mid) <= mid * decimal.Decimal("1e-17"):
                fields.append(_writer_shape(text, mid.adjusted(), rng.random() < 0.5))
    return fields


def _exact_midpoints(rng, count: int) -> list[str]:
    """Midpoints of two doubles that 17 digits write exactly: odd·2^j with
    the odd number in [2^53, 2^54); float rounds them half to even."""
    fields = []
    while len(fields) < count:
        j = int(rng.integers(-1, 4))
        odd = 2 * int(rng.integers(2**52, 2**53)) + 1
        mid = decimal.Decimal(odd) * decimal.Decimal(2) ** j
        text = format(mid.normalize(), "f").replace(".", "")
        if len(text.rstrip("0")) <= 17 and mid < decimal.Decimal(10) ** 17:
            digits = (text + "0" * 17)[:17]
            fields.append(_writer_shape(digits, mid.adjusted(), rng.random() < 0.5))
    return fields


def _hard_cases(exponents) -> list[str]:
    """17-digit decimals p·10^(E−16) within 2^-100 relative of a binary
    midpoint q·2^(b−1), q odd in [2^53, 2^54), but not on it: the
    convergents and semiconvergents p/q of 2^(b−1)/10^(E−16) with q in that
    range (the best rational approximations)."""
    fields = []
    for e in exponents:
        # b puts p = q·2^(b−1)/10^(E−16) near 10^16.5 for q near 2^53.5
        centre = math.floor((16.5 - 53.5 * math.log10(2) + e - 16) / math.log10(2))
        for b in range(centre - 2, centre + 3):
            alpha = Fraction(2) ** (b - 1) / Fraction(10) ** (e - 16)
            for p, q in _approximations(alpha, 2**53, 2**54):
                distance = abs(p - alpha * q) / (alpha * q)
                if q % 2 and 10**16 <= p < 10**17 and 0 < distance < Fraction(1, 2**100):
                    fields.append(_writer_shape(str(p), e, False))
    return fields


def _approximations(alpha: Fraction, low: int, high: int):
    """The convergents and semiconvergents p/q of ``alpha`` with low <= q < high."""
    a, b = alpha.numerator, alpha.denominator
    p0, q0, p1, q1 = 0, 1, 1, 0
    while b and q1 < high:
        step = a // b
        for s in range(1, step + 1):
            p, q = p0 + s * p1, q0 + s * q1
            if q >= high:
                break
            if q >= low:
                yield p, q
        p0, q0, p1, q1 = p1, q1, p0 + step * p1, q0 + step * q1
        a, b = b, a - step * b


# the midpoints below 2^53..2^56, the only ones below a power of two that 17
# digits write exactly
LOWER_TIES = ["9.0071992547409915e+15", "1.8014398509481983e+16", "3.6028797018963966e+16",
              "7.2057594037927932e+16"]


def test_near_midpoints_are_correctly_rounded(tmp_path, writer_shaped_only):
    """Fields of the writer's shape close to, or on, a rounding midpoint
    read as float reads them. About one in five of the hard cases rounds the
    wrong way unless such fields are left to float."""
    rng = np.random.default_rng(1990)
    hard = _hard_cases(range(-270, 270, 3))
    assert len(hard) > 1000
    fields = _near_midpoints(rng, 3000) + _exact_midpoints(rng, 600) + hard + LOWER_TIES
    fields += ["-" + field for field in hard[::2]]
    fields += [_writer_shape("10000000000000000", e, False) for e in (-272, -271, -270, 269, 270)]
    rng.shuffle(fields)
    fields += ["0.0000000000000000e+00"] * (-len(fields) % 3)
    rows = [fields[k:k + 3] for k in range(0, len(fields), 3)]
    path = tmp_path / "midpoints.csv"
    _write_fields(path, rows)
    _, columns = read_csv(path)
    back = np.column_stack(list(columns.values()))
    expected = [[float(field) for field in row] for row in rows]
    assert np.array_equal(_bits(back), _bits(expected))


def _longest_fields(rng, n_rows: int, n_cols: int = 3) -> np.ndarray:
    """Values that "%.16e" writes in 24 bytes: negative, three exponent digits."""
    return -rng.random((n_rows, n_cols)) * 10.0 ** rng.integers(-269, -99, (n_rows, n_cols))


@pytest.mark.parametrize("n_rows", [1, READ_BLOCK - 1, READ_BLOCK, READ_BLOCK + 1,
                                    2 * READ_BLOCK + 1])
@pytest.mark.parametrize("longest", [True, False], ids=["longest fields", "mixed fields"])
def test_rows_around_a_block_read_back_bit_exact(tmp_path, writer_shaped_only, n_rows,
                                                 longest):
    """A buffer holds ``READ_BLOCK`` rows of the longest fields exactly, so
    these files end a block on the last byte, one row before or after it."""
    rng = np.random.default_rng(n_rows)
    if longest:
        data = _longest_fields(rng, n_rows)
    else:
        data = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-120, 120, (n_rows, 3))
    path = tmp_path / "block.csv"
    write_csv(path, {"model": "test"}, "tab", [list(data.T)])
    _, columns = read_csv(path)
    back = np.column_stack(list(columns.values()))
    assert np.array_equal(_bits(back), _bits(data))


def test_last_row_without_a_newline(tmp_path, writer_shaped_only):
    rows = [["1.0000000000000000e+00", "-2.5000000000000000e-01", "0.0000000000000000e+00"],
            ["3.0000000000000000e+100", "-0.0000000000000000e+00", "4.0000000000000000e-300"]]
    path = tmp_path / "open.csv"
    _write_fields(path, rows)
    path.write_bytes(path.read_bytes()[:-1])
    _, columns = read_csv(path)
    assert _bits(columns["b"]).tolist() == _bits([0.0, 4e-300]).tolist()
    assert _bits(columns["a"]).tolist() == _bits([-0.25, -0.0]).tolist()


def _loadtxt_reference(path, width):
    """What the reader always returned: np.loadtxt of the stripped,
    non-blank lines after the header."""
    lines = [line.strip() for line in path.read_text().splitlines()]
    data = [line for line in lines if line and not line.startswith("#")][1:]
    return np.loadtxt(data, delimiter=",", ndmin=2).reshape(-1, width)


OTHER_FIELDS = ["1", " 2.5", "+1.0E+00", "-inf", "nan", "1.5e+00", "1.0000000000000000e+5",
                "1.0000000000000000E+05", "01.000000000000000e+05", "1.0000000000000000e+0005",
                "1.0000000000000000e+0000005", "0.5000000000000000e+00", "0.0000000000000001e-270",
                "-0.0000000000000000e-300"]


@pytest.mark.parametrize("field", OTHER_FIELDS)
@pytest.mark.parametrize("row", [0, READ_BLOCK + 3, -1], ids=["first row", "second block",
                                                             "last row"])
def test_other_shapes_read_as_loadtxt_reads_them(tmp_path, field, row):
    rng = np.random.default_rng(7)
    data = _longest_fields(rng, 2 * READ_BLOCK)
    rows = [["%.16e" % v for v in values] for values in data.tolist()]
    rows[row][1] = field
    path = tmp_path / "edited.csv"
    _write_fields(path, rows)
    _, columns = read_csv(path)
    back = np.column_stack(list(columns.values()))
    expected = _loadtxt_reference(path, 3)
    assert np.array_equal(_bits(back), _bits(expected), equal_nan=True)


@pytest.mark.parametrize("edit", ["crlf", "blank line", "comment", "trailing blanks"])
def test_other_lines_read_as_loadtxt_reads_them(tmp_path, edit):
    rng = np.random.default_rng(11)
    rows = [["%.16e" % v for v in values] for values in _longest_fields(rng, 700).tolist()]
    path = tmp_path / "edited.csv"
    _write_fields(path, rows, ending="\r\n" if edit == "crlf" else "\n")
    text = path.read_bytes()
    cut = text.index(b"\n", len(text) // 2) + 1
    insert = {"crlf": b"", "blank line": b"\n  \n", "comment": b"# a note\n",
              "trailing blanks": b""}[edit]
    text = text[:cut] + insert + text[cut:]
    if edit == "trailing blanks":
        text += b"\n\n"
    path.write_bytes(text)
    _, columns = read_csv(path)
    back = np.column_stack(list(columns.values()))
    assert np.array_equal(_bits(back), _bits(_loadtxt_reference(path, 3)))


def test_bare_carriage_returns_end_lines_as_in_text_mode(tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(b"# a = 1\r# b = 2\rt,x\n1.0000000000000000e+00,2.0000000000000000e+00\r"
                     b"3.0000000000000000e+00,4.0000000000000000e+00\n")
    config, columns = read_csv(path)
    assert config == {"a": 1, "b": 2}
    assert columns["x"].tolist() == [2.0, 4.0]


# fields of the writer's length, each wrong in one place
BAD_FIELDS = ["x", "x.0000000000000000e+05", "1:0000000000000000e+05", "1.000000x000000000e+05",
              "1.0000000000000000x+05", "1.0000000000000000e*05", "1.0000000000000000e+0x",
              "1.0000000000000000e+05 2.0000000000000000e+05"]


@pytest.mark.parametrize("field", BAD_FIELDS)
def test_bad_field_in_a_later_block_names_its_file_line(tmp_path, field):
    rng = np.random.default_rng(3)
    rows = [["%.16e" % v for v in values] for values in _longest_fields(rng, 3 * READ_BLOCK)]
    rows[2 * READ_BLOCK + 5][1:] = [field] if " " in field else [field, rows[0][2]]
    path = tmp_path / "bad.csv"
    _write_fields(path, rows)
    line = 2 + 2 * READ_BLOCK + 5 + 1
    with pytest.raises(CsvFormatError, match=f"(non-numeric data row|header width) at line {line} "):
        read_csv(path)


def test_reader_never_holds_the_file(tmp_path, writer_shaped_only):
    """The text passes through one bounded buffer, so on a file of many
    blocks the reader's peak allocation is about the returned array (8 bytes
    a value against 25 bytes of text), and never the file."""
    rng = np.random.default_rng(5)
    data = _longest_fields(rng, 200 * READ_BLOCK)
    path = tmp_path / "big.csv"
    write_csv(path, {"model": "test"}, "tab", [list(data.T)])
    tracemalloc.start()
    try:
        read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size


@pytest.mark.parametrize("other_row", [None, 0, READ_BLOCK + 3, 3 * READ_BLOCK - 1],
                         ids=["writer's shape", "first row", "second buffer", "last row"])
@pytest.mark.parametrize("block", [1, 100, READ_BLOCK, 10_000])
def test_blocks_are_the_whole_table(tmp_path, other_row, block):
    """Read block by block, a file gives the rows it gives read whole, bit
    for bit, ``block`` rows at a time. A row of another shape (here ``1e0``)
    in a later buffer is parsed line by line with the rest of that buffer,
    after the blocks before it have been handed out. Each block's arrays are
    overwritten by the next, so they are copied as they come."""
    rng = np.random.default_rng(11)
    rows = [["%.16e" % v for v in values] for values in _longest_fields(rng, 3 * READ_BLOCK)]
    if other_row is not None:
        rows[other_row][1] = "1e0"
    path = tmp_path / "table.csv"
    _write_fields(path, rows)
    with pytest.raises(ValueError, match="block must be at least 1 row"):
        read_csv(path, 0)
    config, whole = read_csv(path)
    config_too, table = read_csv(path, block)
    assert config_too == config and table.header == list(whole)
    parts = [{name: column.copy() for name, column in part.items()} for part in table.blocks]
    assert [len(part["t"]) for part in parts[:-1]] == [block] * (len(parts) - 1)
    for name, column in whole.items():
        joined = np.concatenate([part[name] for part in parts])
        assert np.array_equal(_bits(joined), _bits(column)), name


@pytest.mark.parametrize("read", [0, 1, 2], ids=["unread", "one block", "every block"])
def test_blocks_dropped_at_any_point_close_the_file(tmp_path, read):
    """The file ``read_csv(path, block)`` opens is closed when its blocks
    are read to the end or dropped, read or not: the garbage collector
    never finds it open."""
    path = tmp_path / "three.csv"
    _write_fields(path, [["0", "1", "2"], ["1", "2", "3"], ["2", "3", "4"]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = read_csv(path, 2)[1]
        for _ in zip(range(read), table.blocks):
            pass
        del table
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("edit", ["comment", "crlf", "bare cr"])
def test_a_line_of_another_shape_keeps_the_read_in_its_buffer(tmp_path, monkeypatch, edit):
    """A ``# note`` line before the last row, or CRLF or bare CR line ends,
    are parsed where the reader meets them, one buffer at a time. Read
    block by block, such a file never has more than a buffer's lines in
    memory, and the line parser sees only the lines of the note's buffer."""
    rng = np.random.default_rng(5)
    data = _longest_fields(rng, 200 * READ_BLOCK)
    path = tmp_path / "big.csv"
    write_csv(path, {"model": "test"}, "tab", [list(data.T)])
    text = path.read_bytes()
    if edit != "comment":
        text = text.replace(b"\n", b"\r\n" if edit == "crlf" else b"\r")
    else:
        cut = text.rindex(b"\n", 0, -1) + 1
        text = text[:cut] + b"# note\n" + text[cut:]
    path.write_bytes(text)
    note = text.count(b"\n") - 1  # the note's file line, in the comment case
    parsed = []  # the file lines each call of the line parser read

    def spy(text, number, width, where):
        values, count = parse_lines(text, number, width, where)
        parsed.append(range(number + 1, number + count + 1))
        return values, count

    parse_lines = csvio._parse_lines
    monkeypatch.setattr(csvio, "_parse_lines", spy)
    tracemalloc.start()
    try:
        _, table = read_csv(path, READ_BLOCK)
        rows = sum(len(block["t"]) for block in table.blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == len(data)
    assert peak < 0.1 * path.stat().st_size
    if edit == "comment":
        assert len(parsed) == 1 and note in parsed[0] and len(parsed[0]) <= READ_BLOCK + 1


@pytest.mark.parametrize("edit", ["comment", "spaces"])
def test_a_line_longer_than_the_buffer(tmp_path, monkeypatch, edit):
    """A line of twice the data buffer, a ``#`` comment after data row
    ``READ_BLOCK + 3`` or spaces leading row ``READ_BLOCK + 4``, leaves a
    buffer with no line end; the line is completed by ``readline`` and
    parsed by the line parser. The values are the unedited file's, read
    whole or by blocks, and a bad field after the spaces names its line."""
    rng = np.random.default_rng(13)
    rows = [["%.16e" % v for v in values] for values in _longest_fields(rng, 3 * READ_BLOCK)]
    cap = READ_BLOCK * csvio._FIELD * 3  # the data buffer of a three-column file
    plain, long = tmp_path / "plain.csv", tmp_path / "long.csv"
    _write_fields(plain, rows)
    if edit == "comment":
        rows.insert(READ_BLOCK + 3, ["#" * 2 * cap])
    else:
        rows[READ_BLOCK + 3][0] = " " * 2 * cap + rows[READ_BLOCK + 3][0]
    _write_fields(long, rows)
    lengths = []  # the bytes each call of the line parser read

    def spy(text, *args):
        lengths.append(len(text))
        return parse_lines(text, *args)

    parse_lines = csvio._parse_lines
    monkeypatch.setattr(csvio, "_parse_lines", spy)
    _, expected = read_csv(plain)
    _, whole = read_csv(long)
    assert max(lengths) > 2 * cap
    _, table = read_csv(long, 100)
    parts = [{name: column.copy() for name, column in part.items()} for part in table.blocks]
    for name, column in expected.items():
        assert np.array_equal(_bits(whole[name]), _bits(column)), name
        joined = np.concatenate([part[name] for part in parts])
        assert np.array_equal(_bits(joined), _bits(column)), name
    if edit == "spaces":
        rows[READ_BLOCK + 3] = [" " * 2 * cap + "1.0", "abc", "2.0"]
        _write_fields(long, rows)
        with pytest.raises(CsvFormatError, match="non-numeric data row at line 518 "):
            read_csv(long)


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "bare cr"])
def test_a_line_end_across_buffers_is_one_line_end(tmp_path, ending):
    """The first buffer (``READ_BLOCK`` rows of the longest fields, from the
    first data row on) here ends on a row's ``\\r``. The read stops before
    it, so a ``\\r\\n`` is never split into two line ends, and a bad field
    further on names its line as text mode counts it."""
    rng = np.random.default_rng(3)
    rows = [["%.16e" % v for v in values] for values in _longest_fields(rng, 3 * READ_BLOCK)]
    cap = READ_BLOCK * csvio._FIELD * 3  # the data buffer of a three-column file
    row = len(",".join(rows[0]))  # a row's bytes before its line end
    rows[0][0] = " " * ((cap - 1 - row) % (row + len(ending))) + rows[0][0]
    rows[-2][1] = "x"
    path = tmp_path / "ends.csv"
    _write_fields(path, rows, ending=ending)
    first = path.read_bytes().index(b"t,a,b" + ending.encode()) + len("t,a,b" + ending)
    assert path.read_bytes()[first + cap - 1:first + cap] == b"\r"
    with pytest.raises(CsvFormatError, match=f"non-numeric data row at line {len(rows) + 1} "):
        read_csv(path)


def test_a_one_column_file_whose_header_ends_a_read(tmp_path):
    """The header's bare ``\\r`` is the last byte of the head's first read,
    so the bytes the head read past it fill a one-column file's data buffer
    to the byte; the read goes on after them."""
    size = READ_BLOCK * csvio._FIELD  # the head's read
    head = b"# model = test\r"
    head += b"#" * (size - len(head) - 3) + b"\rt\r"
    values = np.arange(3 * size) + 0.5
    path = tmp_path / "one.csv"
    path.write_bytes(head + "".join(f"{v}\r" for v in values.tolist()).encode())
    assert path.read_bytes()[size - 1:size] == b"\r"
    _, columns = read_csv(path)
    assert columns["t"].tolist() == values.tolist()


@pytest.mark.parametrize("line", [1, 2 + 2 * READ_BLOCK + 7], ids=["head comment", "data row"])
def test_a_byte_that_is_not_utf8_names_its_file_line(tmp_path, capsys, line):
    rows = [["%.16e" % v for v in values] for values in np.arange(9 * READ_BLOCK).reshape(-1, 3)]
    path = tmp_path / "latin1.csv"
    _write_fields(path, rows)
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b" # caf\xe9"
    path.write_bytes(b"\n".join(lines))
    message = f"{path}: line {line} is not UTF-8 text (byte 0xe9)"
    with pytest.raises(CsvFormatError, match=re.escape(message)):
        read_csv(path)
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_byte_order_mark_is_named_at_line_1(tmp_path, capsys):
    """A UTF-8 byte-order mark hides the ``#`` of the echo's first line,
    which would be read as a one-column header; the file is refused there,
    with exit 2, before any data row is read."""
    path = tmp_path / "bom.csv"
    assert cli.main(["simulate", "--model", "sbth", "--t-end", "2", "--out", str(path)]) == 0
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    capsys.readouterr()
    message = f"{path}: line 1 starts with a UTF-8 byte-order mark"
    with pytest.raises(CsvFormatError, match=re.escape(message)):
        read_csv(path)
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
