import inspect
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdglht import (
    FunctionalDataset,
    Grid,
    GroupSample,
    IngestionError,
    SimConfig,
    ValidationError,
    gen_sample,
    load_csv,
    make_uniform_grid,
    write_csv,
)
from mfdglht.dataset import CHUNK_LINES, CSV_HEADER, _read_rows


def make_csv(rows):
    return "group,obs,component,time_index,value\n" + "\n".join(rows) + "\n"


def test_load_minimal_dataset():
    csv = make_csv(["1,1,1,1,1.0", "1,1,1,2,2.0"])
    ds = load_csv(io.StringIO(csv))
    assert ds.k == 1 and ds.p == 1 and ds.m == 2
    assert np.allclose(ds.group_values(0), [[[1.0, 2.0]]])


def test_duplicate_cell_rejected():
    csv = make_csv(["1,1,1,1,1.0", "1,1,1,1,2.0", "1,1,1,2,0.0"])
    with pytest.raises(IngestionError, match="duplicate cell"):
        load_csv(io.StringIO(csv))


def test_component_count_mismatch_rejected():
    rows = []
    for comp in (1, 2):
        for ti in (1, 2):
            rows.append(f"1,1,{comp},{ti},0.5")
    for comp in (1, 2, 3):
        for ti in (1, 2):
            rows.append(f"2,1,{comp},{ti},0.5")
    with pytest.raises(IngestionError, match="component count mismatch"):
        load_csv(io.StringIO(make_csv(rows)))


def test_missing_cell_named():
    csv = make_csv(["1,1,1,1,1.0", "1,1,1,2,2.0", "1,2,1,1,3.0"])
    with pytest.raises(IngestionError, match=r"missing cell \(group=1, obs=2, component=1, time_index=2\)"):
        load_csv(io.StringIO(csv))


def test_non_finite_value_rejected():
    csv = make_csv(["1,1,1,1,nan", "1,1,1,2,2.0"])
    with pytest.raises(IngestionError, match="non-finite"):
        load_csv(io.StringIO(csv))


def test_comment_lines_ignored():
    csv = "# a comment\ngroup,obs,component,time_index,value\n# another\n1,1,1,1,1.0\n1,1,1,2,2.0\n"
    ds = load_csv(io.StringIO(csv))
    assert ds.m == 2


def test_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    grid = make_uniform_grid(5, 0.0, 1.0)
    groups = tuple(GroupSample(rng.normal(size=(n, 3, 5))) for n in (4, 6))
    ds = FunctionalDataset(grid, groups)
    buf = io.StringIO()
    write_csv(ds, buf)
    again = load_csv(io.StringIO(buf.getvalue()))
    for i in range(2):
        assert np.array_equal(ds.group_values(i), again.group_values(i))
    buf2 = io.StringIO()
    write_csv(again, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_write_csv_golden_text():
    # Signed zero, the smallest subnormal, an inexact decimal and the largest
    # double, each at 17 significant digits; rows run obs, component, time.
    groups = (
        GroupSample(np.array([[[-0.0, 5e-324], [0.1, 2.0]]])),
        GroupSample(np.array([
            [[1.7976931348623157e308, -2.5], [0.0, 1.0]],
            [[3.0, -0.1], [1e-300, 7.0]],
        ])),
    )
    buf = io.StringIO()
    write_csv(FunctionalDataset(make_uniform_grid(2, 0.0, 1.0), groups), buf)
    assert buf.getvalue() == (
        "group,obs,component,time_index,value\n"
        "1,1,1,1,-0\n"
        "1,1,1,2,4.9406564584124654e-324\n"
        "1,1,2,1,0.10000000000000001\n"
        "1,1,2,2,2\n"
        "2,1,1,1,1.7976931348623157e+308\n"
        "2,1,1,2,-2.5\n"
        "2,1,2,1,0\n"
        "2,1,2,2,1\n"
        "2,2,1,1,3\n"
        "2,2,1,2,-0.10000000000000001\n"
        "2,2,2,1,1e-300\n"
        "2,2,2,2,7\n"
    )


def test_write_csv_to_path(tmp_path):
    rng = np.random.default_rng(1)
    ds = FunctionalDataset(make_uniform_grid(4, 0.0, 1.0), (GroupSample(rng.normal(size=(3, 2, 4))),))
    write_csv(ds, tmp_path / "data.csv")
    assert np.array_equal(load_csv(tmp_path / "data.csv").group_values(0), ds.group_values(0))


def test_path_with_newline_loads_as_file(tmp_path):
    # A str path is always a path, whatever characters it holds.
    rng = np.random.default_rng(2)
    group = GroupSample(rng.normal(size=(2, 2, 3)))
    ds = FunctionalDataset(make_uniform_grid(3, 0.0, 1.0), (group,))
    path = tmp_path / "odd\nname.csv"
    write_csv(ds, str(path))
    assert np.array_equal(load_csv(str(path)).group_values(0), ds.group_values(0))


def test_group_sample_rejects_nan():
    with pytest.raises(ValidationError, match="non-finite"):
        GroupSample(np.array([[[np.nan, 0.0]]]))


def test_dataset_rejects_zero_groups():
    grid = make_uniform_grid(3, 0.0, 1.0)
    with pytest.raises(ValidationError):
        FunctionalDataset(grid, ())


def test_dataset_rejects_grid_mismatch():
    grid = make_uniform_grid(3, 0.0, 1.0)
    with pytest.raises(ValidationError, match="time grid mismatch"):
        FunctionalDataset(grid, (GroupSample(np.zeros((1, 1, 4))),))


# --- ingestion errors: one fault per file, exact message, physical line ---

HEADER = "group,obs,component,time_index,value"
INDEX_NAMES = ("group", "obs", "component", "time_index")
# Lines the loader skips: blank, whitespace-only, and comments (indented too).
SKIPPED_LINES = ["", "   ", "\t ", "  # indented comment", "# comment"]


def cell_rows(k=2, n=2, p=2, m=2):
    """Rows of a complete dataset; every value is distinct."""
    rows = []
    for g in range(1, k + 1):
        for o in range(1, n + 1):
            for c in range(1, p + 1):
                for t in range(1, m + 1):
                    rows.append(f"{g},{o},{c},{t},{len(rows) + 1}.25")
    return rows


def layout(rows):
    """A file with a leading comment, then the header, the first data row,
    every kind of skipped line, and the remaining rows."""
    lines = ["# leading comment", "", HEADER, rows[0], *SKIPPED_LINES, *rows[1:]]
    return "\n".join(lines) + "\n"


def line_of(text, row):
    lines = text.split("\n")
    assert lines.count(row) == 1
    return lines.index(row) + 1


def ingestion_message(text):
    with pytest.raises(IngestionError) as info:
        load_csv(io.StringIO(text))
    return str(info.value)


def with_field(row, index, raw):
    parts = row.split(",")
    parts[index] = raw
    return ",".join(parts)


FAULT_AT = 9  # the row replaced by a faulty one lies after every skipped line


def test_skipped_lines_are_accepted():
    ds = load_csv(io.StringIO(layout(cell_rows())))
    assert ds.n == (2, 2) and ds.p == 2 and ds.m == 2
    assert ds.group_values(0)[0, 0].tolist() == [1.25, 2.25]
    assert ds.group_values(1)[1, 1].tolist() == [15.25, 16.25]


@pytest.mark.parametrize("bad", ["1,1,1,1", "2,1,1,2,0.5,7", "2,1,1,2,0.5,"])
def test_wrong_field_count_names_line(bad):
    rows = cell_rows()
    rows[FAULT_AT] = bad
    text = layout(rows)
    assert ingestion_message(text) == (
        f"line {line_of(text, bad)}: expected 5 fields, got {len(bad.split(','))}"
    )


@pytest.mark.parametrize("raw", ["1.0", "x"])
@pytest.mark.parametrize("column", range(4))
def test_non_integer_index_names_line(column, raw):
    rows = cell_rows()
    bad = with_field(rows[FAULT_AT], column, raw)
    rows[FAULT_AT] = bad
    text = layout(rows)
    assert ingestion_message(text) == (
        f"line {line_of(text, bad)}: {INDEX_NAMES[column]} {raw!r} is not an integer"
    )


@pytest.mark.parametrize("raw", ["0", "-1"])
@pytest.mark.parametrize("column", range(4))
def test_index_below_one_names_line(column, raw):
    rows = cell_rows()
    bad = with_field(rows[FAULT_AT], column, raw)
    rows[FAULT_AT] = bad
    text = layout(rows)
    assert ingestion_message(text) == (
        f"line {line_of(text, bad)}: {INDEX_NAMES[column]} must be >= 1, got {int(raw)}"
    )


@pytest.mark.parametrize("raw", ["abc", "", "0.5 # note"])
def test_non_numeric_value_names_line(raw):
    rows = cell_rows()
    bad = with_field(rows[FAULT_AT], 4, raw)
    rows[FAULT_AT] = bad
    text = layout(rows)
    assert ingestion_message(text) == f"line {line_of(text, bad)}: value {raw!r} is not a number"


def test_trailing_comment_is_rejected():
    rows = cell_rows()
    bad = rows[FAULT_AT] + " # note"
    rows[FAULT_AT] = bad
    text = layout(rows)
    value = bad.split(",")[4]
    assert ingestion_message(text) == f"line {line_of(text, bad)}: value {value!r} is not a number"


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_value_names_cell(raw):
    rows = cell_rows()
    rows[FAULT_AT] = with_field(rows[FAULT_AT], 4, raw)
    g, o, c, t = rows[FAULT_AT].split(",")[:4]
    assert ingestion_message(layout(rows)) == (
        f"non-finite value at (group={g}, obs={o}, component={c}, time_index={t})"
    )


def test_duplicate_cell_named():
    rows = cell_rows()
    rows.append(with_field(rows[FAULT_AT], 4, "99.5"))
    g, o, c, t = rows[FAULT_AT].split(",")[:4]
    assert ingestion_message(layout(rows)) == (
        f"duplicate cell (group={g}, obs={o}, component={c}, time_index={t})"
    )


@pytest.mark.parametrize("first", ["1,1,1,1,0.5", "group,obs,component,time,value"])
def test_missing_header_names_line(first):
    text = "# comment\n\n   \n" + first + "\n"
    assert ingestion_message(text) == (
        "line 4: expected header 'group,obs,component,time_index,value'"
    )


@pytest.mark.parametrize("before", ["", "# comment\n", "\n  \n"])
def test_byte_order_mark_before_header_is_ignored(before, tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with one; it is dropped from line 1 only.
    text = "\ufeff" + before + layout(cell_rows())
    clean = load_csv(io.StringIO(before + layout(cell_rows())))
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8")
    for ds in (load_csv(io.StringIO(text)), load_csv(path)):
        assert ds.n == clean.n
        for got, want in zip(ds.groups, clean.groups):
            assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# c\n\ufeff" + HEADER + "\n1,1,1,1,0.5\n",
         "line 2: expected header 'group,obs,component,time_index,value'"),
        ("\ufeff\ufeff" + HEADER + "\n1,1,1,1,0.5\n",
         "line 1: expected header 'group,obs,component,time_index,value'"),
        (HEADER + "\n1,1,1,1,0.5\n\ufeff1,1,1,2,0.5\n", "line 3: group '\\ufeff1' is not an integer"),
    ],
    ids=["after-comment", "twice", "data-row"],
)
def test_byte_order_mark_elsewhere_is_an_error(text, message):
    assert ingestion_message(text) == message


@pytest.mark.parametrize("text", ["", "\n", "# only a comment\n  \n\t\n"])
def test_file_without_header(text):
    assert ingestion_message(text) == "empty file: missing header"


def test_file_without_data_rows():
    assert ingestion_message("# c\n" + HEADER + "\n\n  # c\n") == "no data rows"


def test_gap_in_group_numbering():
    rows = [row.replace("2,", "3,", 1) if row.startswith("2,") else row for row in cell_rows()]
    assert ingestion_message(layout(rows)) == "group 2 has no rows (groups must be numbered 1..k)"


def test_single_missing_cell_named():
    rows = cell_rows()
    dropped = rows.pop(FAULT_AT)  # 2,1,1,2
    g, o, c, t = dropped.split(",")[:4]
    assert ingestion_message(layout(rows)) == (
        f"missing cell (group={g}, obs={o}, component={c}, time_index={t})"
    )


def test_first_missing_cell_named():
    rows = cell_rows(k=2, n=3, p=2, m=3)
    # Cells dropped in file order, the group-2 cell first: the message names
    # the first missing cell in (group, obs, component, time) order.
    drop = ["2,1,1,1", "1,2,2,1", "1,2,1,3"]
    rows = [row for row in rows if row.rsplit(",", 1)[0] not in drop]
    rows = rows[::-1]
    assert ingestion_message(layout(rows)) == (
        "missing cell (group=1, obs=2, component=1, time_index=3)"
    )


def test_component_count_mismatch_named():
    rows = cell_rows() + [f"2,{o},3,{t},0.5" for o in (1, 2) for t in (1, 2)]
    assert ingestion_message(layout(rows)) == (
        "component count mismatch: group 2 has p=3, group 1 has p=2"
    )


def test_single_time_point_is_an_ingestion_error():
    text = make_csv(["1,1,1,1,0.5", "1,2,1,1,0.25"])
    assert ingestion_message(text) == "file uses time_index up to 1; a grid needs at least 2 points"


def test_non_utf8_file_is_an_ingestion_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(layout(cell_rows()).encode().replace(b"3.25", b"3.\xff5"))
    with pytest.raises(IngestionError) as info:
        load_csv(str(path))
    assert str(info.value) == "file is not valid UTF-8: invalid start byte"


@pytest.mark.parametrize(
    "raw, message",
    [
        ("1_0", "obs '1_0' is not an integer"),
        ("٣", "obs '٣' is not an integer"),
        ("99999999999999999999", "obs 99999999999999999999 is out of range"),
    ],
)
def test_index_forms_numpy_does_not_parse_are_rejected(raw, message):
    rows = cell_rows()
    bad = with_field(rows[FAULT_AT], 1, raw)
    rows[FAULT_AT] = bad
    text = layout(rows)
    assert ingestion_message(text) == f"line {line_of(text, bad)}: {message}"


@pytest.mark.parametrize("raw", ["1_0.5", "٣"])
def test_value_forms_numpy_does_not_parse_are_rejected(raw):
    rows = cell_rows()
    bad = with_field(rows[FAULT_AT], 4, raw)
    rows[FAULT_AT] = bad
    text = layout(rows)
    assert ingestion_message(text) == f"line {line_of(text, bad)}: value {raw!r} is not a number"


@pytest.mark.parametrize(
    "column, missing",
    [
        (1, "group=2, obs=1, component=1, time_index=2"),
        (2, "group=2, obs=1, component=1, time_index=2"),
        # time_index sets the grid of every group, so group 1 lacks time 3.
        (3, "group=1, obs=1, component=1, time_index=3"),
    ],
)
def test_absurd_index_reports_first_missing_cell(column, missing):
    rows = cell_rows()
    rows[FAULT_AT] = with_field(rows[FAULT_AT], column, str(2**63 - 1))
    assert ingestion_message(layout(rows)) == f"missing cell ({missing})"


def test_absurd_group_reports_gap():
    rows = cell_rows()
    rows = [with_field(row, 0, str(2**63 - 1)) if row.startswith("2,") else row for row in rows]
    assert ingestion_message(layout(rows)) == "group 2 has no rows (groups must be numbered 1..k)"


def _relabeled(rows, group, label):
    return [with_field(row, 0, label) if row.startswith(f"{group},") else row for row in rows]


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda rows: _relabeled(rows, 2, "4"), "group 2 has no rows (groups must be numbered 1..k)"),
        (lambda rows: _relabeled(rows, 2, str(2**63 - 1)),
         "group 2 has no rows (groups must be numbered 1..k)"),
        (lambda rows: rows[:FAULT_AT] + rows[FAULT_AT + 1:],
         "missing cell (group=2, obs=1, component=1, time_index=2)"),
        # Group 3 misses a cell and group 1 repeats one: groups are checked in order.
        (lambda rows: rows[:-1] + rows[:1], "duplicate cell (group=1, obs=1, component=1, "
                                            "time_index=1)"),
    ],
    ids=["gap", "absurd-group", "missing", "faults-in-two-groups"],
)
def test_rows_out_of_group_order_report_the_same_fault(fault, message):
    rows = fault(cell_rows(k=3))
    assert ingestion_message(layout(rows)) == message
    assert ingestion_message(layout(rows[::-1])) == message


# --- property tests: round trip and single-byte corruption ---

EXTREME_VALUES = [
    5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
]
finite_values = st.one_of(
    st.sampled_from(EXTREME_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def datasets(draw):
    k = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    m = draw(st.integers(2, 6))
    groups = []
    for n in draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)):
        cells = draw(st.lists(finite_values, min_size=n * p * m, max_size=n * p * m))
        groups.append(GroupSample(np.array(cells).reshape(n, p, m)))
    return FunctionalDataset(make_uniform_grid(m, 0.0, 1.0), tuple(groups))


def written(ds):
    buf = io.StringIO()
    write_csv(ds, buf)
    return buf.getvalue()


@settings(max_examples=80, deadline=None)
@given(ds=datasets(), data=st.data())
def test_load_csv_round_trip_with_shuffled_rows_and_skipped_lines(ds, data):
    header, *rows = written(ds).splitlines()
    lines = [header, *data.draw(st.permutations(rows))]
    skipped = SKIPPED_LINES + ["#", "  #1,1,1,1,nan", "\t# x"]
    extras = data.draw(st.lists(
        st.tuples(st.integers(0, len(lines)), st.sampled_from(skipped)), max_size=12
    ))
    for at, line in sorted(extras, key=lambda extra: -extra[0]):
        lines.insert(at, line)
    again = load_csv(io.StringIO("\n".join(lines) + "\n"))
    assert np.array_equal(again.grid.points, ds.grid.points)
    assert again.n == ds.n
    for before, after in zip(ds.groups, again.groups):
        assert before.values.shape == after.values.shape
        assert np.array_equal(before.values.view(np.int64), after.values.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(ds=datasets(), data=st.data())
def test_load_csv_after_one_corrupt_byte_loads_or_raises_ingestion_error(ds, data):
    raw = bytearray(written(ds).encode())
    raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    stream = io.TextIOWrapper(io.BytesIO(bytes(raw)), encoding="utf-8")
    try:
        load_csv(stream)
    except IngestionError:
        pass


# --- the chunked reader: raw lines reach the parser CHUNK_LINES at a time ---

ONE_FAULT_TESTS = [
    test_skipped_lines_are_accepted,
    test_wrong_field_count_names_line,
    test_non_integer_index_names_line,
    test_index_below_one_names_line,
    test_non_numeric_value_names_line,
    test_trailing_comment_is_rejected,
    test_non_finite_value_names_cell,
    test_duplicate_cell_named,
    test_missing_header_names_line,
    test_file_without_header,
    test_file_without_data_rows,
    test_gap_in_group_numbering,
    test_single_missing_cell_named,
    test_first_missing_cell_named,
    test_component_count_mismatch_named,
    test_single_time_point_is_an_ingestion_error,
    test_non_utf8_file_is_an_ingestion_error,
    test_index_forms_numpy_does_not_parse_are_rejected,
    test_value_forms_numpy_does_not_parse_are_rejected,
    test_absurd_index_reports_first_missing_cell,
    test_absurd_group_reports_gap,
]


def parameter_sets(test):
    """Every parameter set of a test's ``parametrize`` marks, as keyword arguments."""
    sets = [{}]
    for mark in getattr(test, "pytestmark", []):
        names = [name.strip() for name in mark.args[0].split(",")]
        rows = [values if len(names) > 1 else (values,) for values in mark.args[1]]
        sets = [{**kwargs, **dict(zip(names, row))} for kwargs in sets for row in rows]
    return sets


@pytest.mark.parametrize("chunk_lines", [1, 2, 3])
def test_one_fault_files_in_small_chunks(chunk_lines, monkeypatch, tmp_path):
    # Chunk boundaries fall before, inside and after the skipped lines and the fault.
    monkeypatch.setattr("mfdglht.dataset.CHUNK_LINES", chunk_lines)
    for test in ONE_FAULT_TESTS:
        for kwargs in parameter_sets(test):
            if "tmp_path" in inspect.signature(test).parameters:
                kwargs["tmp_path"] = tmp_path
            test(**kwargs)


@pytest.mark.parametrize("chunk_lines", [1, 2, 3])
def test_round_trip_property_in_small_chunks(chunk_lines, monkeypatch):
    monkeypatch.setattr("mfdglht.dataset.CHUNK_LINES", chunk_lines)
    test_load_csv_round_trip_with_shuffled_rows_and_skipped_lines()


@pytest.mark.parametrize("chunk_lines", [8, CHUNK_LINES])
def test_index_below_one_after_blank_line_in_clean_chunk(chunk_lines, monkeypatch):
    # The chunk holding the fault parses raw: the parser skips the empty line
    # itself, so its row count is not the line offset.
    monkeypatch.setattr("mfdglht.dataset.CHUNK_LINES", chunk_lines)
    rows = cell_rows()
    bad = with_field(rows[FAULT_AT + 2], 1, "0")
    lines = [HEADER, *rows[:FAULT_AT], "", *rows[FAULT_AT:FAULT_AT + 2], bad, *rows[FAULT_AT + 3:]]
    # In 8-line chunks the second, lines[9:17], opens with a row and holds
    # the empty line and the fault; in default chunks one holds them all.
    assert lines[9] and lines[10] == "" and lines.index(bad) < 17
    text = "\n".join(lines) + "\n"
    assert ingestion_message(text) == f"line {line_of(text, bad)}: obs must be >= 1, got 0"


def long_rows():
    """Rows of a dataset that spans three default chunks."""
    rows = cell_rows(k=2, n=40, p=3, m=300)
    assert 2 * CHUNK_LINES < len(rows) < 3 * CHUNK_LINES
    return rows


@pytest.mark.parametrize(
    "column, raw, message",
    [
        (4, "x", "value 'x' is not a number"),
        (2, "0", "component must be >= 1, got 0"),
        (3, "1,2", "expected 5 fields, got 6"),
    ],
)
def test_fault_in_last_chunk_of_long_file(column, raw, message):
    rows = long_rows()
    bad = with_field(rows[-3], column, raw)
    rows[-3] = bad
    text = "\n".join(["# long file", HEADER, *rows]) + "\n"
    assert line_of(text, bad) > 2 * CHUNK_LINES
    assert ingestion_message(text) == f"line {line_of(text, bad)}: {message}"


def test_skipped_lines_in_every_chunk_load_bit_identically():
    rows = long_rows()
    clean = load_csv(io.StringIO("\n".join([HEADER, *rows]) + "\n"))
    lines = [HEADER]
    for at in range(0, len(rows), 1000):
        lines += ["# a comment", " \t ", *rows[at:at + 1000]]
    commented = load_csv(io.StringIO("\n".join(lines) + "\n"))
    assert commented.n == clean.n
    for before, after in zip(clean.groups, commented.groups):
        assert np.array_equal(before.values.view(np.int64), after.values.view(np.int64))


@pytest.mark.parametrize("chunk_lines", [1, CHUNK_LINES])
def test_malformed_line_is_reported_before_earlier_index_below_one(chunk_lines, monkeypatch):
    # As when the whole file was parsed at once: a line the parser rejects
    # outranks an index below 1 on an earlier line, in any chunk.
    monkeypatch.setattr("mfdglht.dataset.CHUNK_LINES", chunk_lines)
    rows = cell_rows()
    rows[2] = with_field(rows[2], 0, "0")
    bad = with_field(rows[FAULT_AT], 4, "x")
    rows[FAULT_AT] = bad
    text = layout(rows)
    assert ingestion_message(text) == f"line {line_of(text, bad)}: value 'x' is not a number"


def load_outcome(text):
    """The groups ``load_csv`` reads from ``text``, or the message it raises."""
    try:
        return [g.values for g in load_csv(io.StringIO(text)).groups]
    except IngestionError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "column, raw, index",
    [
        (3, "300", np.uint16),  # time_index 256..300 in later chunks: loads
        (3, "70000", np.uint32),  # the last row's time_index: a missing cell
        (1, str(2**63 - 1), np.int64),  # the last row's obs: a missing cell
    ],
)
def test_index_type_widens_across_chunks(column, raw, index, monkeypatch):
    # The rows' index type starts at uint8 and widens as later chunks need:
    # to uint16 at time_index 256, then to ``index`` at the last row.
    rows = cell_rows(k=1, n=1, p=1, m=300)
    rows[-1] = with_field(rows[-1], column, raw)
    text = "\n".join([HEADER, *rows]) + "\n"
    whole = load_outcome(text)
    monkeypatch.setattr("mfdglht.dataset.CHUNK_LINES", 4)
    cells, values = _read_rows(io.StringIO(text), CSV_HEADER)
    assert cells.dtype == index
    assert cells[:, column].tolist() == [int(row.split(",")[column]) for row in rows]
    assert values.tolist() == [float(row.split(",")[4]) for row in rows]
    chunked = load_outcome(text)
    if isinstance(whole, str):
        assert chunked == whole and whole.startswith("missing cell")
    else:
        assert all(np.array_equal(a.view(np.int64), b.view(np.int64))
                   for a, b in zip(whole, chunked))


def _load_csv_peak(path):
    """``load_csv(path)`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        ds = load_csv(path)
        return ds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_csv_peak_memory_per_row(tmp_path, monkeypatch):
    # Read from a path: a StringIO holds its whole text at 4 bytes a character.
    # The rows are kept at 12 bytes (uint8 indices) while the file is read.
    cfg = SimConfig(n=(40, 40, 60, 60), p=6, m=200, scenario="S2", model=3, rho=0.5)
    path = tmp_path / "data.csv"
    write_csv(gen_sample(cfg, [1, 2]), path)
    rows = sum(cfg.n) * cfg.p * cfg.m
    assert _load_csv_peak(path)[1] <= 48 * rows
    # Rows out of group order are gathered group by group, never held twice.
    # Small chunks keep the parser's own peak below the groups' at this size.
    header, *lines = path.read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(np.random.default_rng(5).permutation(lines)))
    monkeypatch.setattr("mfdglht.dataset.CHUNK_LINES", 2**10)
    ds, peak = _load_csv_peak(path)
    shuffled_ds, shuffled_peak = _load_csv_peak(shuffled)
    assert len(shuffled_ds.groups) == len(ds.groups)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(ds.groups, shuffled_ds.groups))
    assert shuffled_peak <= 1.1 * peak


@pytest.mark.parametrize(
    "points, message",
    [
        pytest.param([0.0], "grid needs at least 2 points", id="one-point"),
        pytest.param([0.0, np.nan, 1.0], "grid points must be finite", id="nonfinite"),
    ],
)
def test_grid_rejects_invalid_points(points, message):
    with pytest.raises(ValidationError) as err:
        Grid(np.array(points))
    assert type(err.value) is ValidationError and str(err.value) == message


@pytest.mark.parametrize(
    "values, message",
    [
        pytest.param(np.zeros((3, 5)), "group values must have shape (n_obs, p, m)", id="2-d"),
        pytest.param(np.zeros((0, 2, 5)), "each group needs at least one observation",
                     id="no-rows"),
    ],
)
def test_group_sample_rejects_invalid_values(values, message):
    with pytest.raises(ValidationError) as err:
        GroupSample(values)
    assert type(err.value) is ValidationError and str(err.value) == message


@pytest.mark.parametrize(
    "grid, groups, message",
    [
        pytest.param(make_uniform_grid(5, 0.0, 1.0), [(3, 2, 5), (3, 3, 5)],
                     "component count mismatch: group 2 has p=3, group 1 has p=2",
                     id="component-counts"),
        pytest.param(np.linspace(0.0, 1.0, 5), [(3, 2, 5)], "grid must be a Grid",
                     id="grid-ndarray"),
        pytest.param(None, [(3, 2, 5)], "grid must be a Grid", id="grid-none"),
        pytest.param(make_uniform_grid(5, 0.0, 1.0), [np.zeros((3, 2, 5))],
                     "group 1 is not a GroupSample", id="group-ndarray"),
    ],
)
def test_functional_dataset_rejects_invalid_input(grid, groups, message):
    # A shape stands for a GroupSample of zeros; an array is passed as it is.
    groups = tuple(g if isinstance(g, np.ndarray) else GroupSample(np.zeros(g)) for g in groups)
    with pytest.raises(ValidationError) as err:
        FunctionalDataset(grid, groups)
    assert type(err.value) is ValidationError and str(err.value) == message
