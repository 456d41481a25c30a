"""The one artifact writer: its byte layout, and no file for a non-finite value."""

import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from sidlab import NonFiniteError, artifacts, write_csv, write_json


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def test_json_layout(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": None, "a": [1.5, 2]})
    assert path.read_bytes() == b'{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": null\n}\n'


def test_csv_layout(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, {"name": ["x", "y"], "count": [3, None], "value": [0.1, -2.0]})
    assert path.read_bytes() == b"name,count,value\r\nx,3,0.1\r\ny,,-2.0\r\n"


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_json_refuses_non_finite_and_leaves_no_file(tmp_path, bad):
    path = tmp_path / "a.json"
    path.write_text("{}\n")  # a stale artifact is not left behind either
    with pytest.raises(NonFiniteError):
        # the list is long enough that chunks reach the file before the bad value
        write_json(path, {"a": list(range(10_000)), "b": [0.5, bad]})
    assert not path.exists()


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1.7976931348623157e308, 1e16, 1e-7])
SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | FLOATS
STRINGS = st.text(max_size=6) | st.sampled_from(["a, b", "[1, 2]", "], [", '"', "\n"])
# rows of one width, which take json's C encoder unless a cell is not a scalar
TABLES = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(SCALARS | STRINGS | st.lists(SCALARS, max_size=2), min_size=width, max_size=width),
    max_size=5))
# nested documents: number lists and tables, strings that look like the
# separators the C encoder's text is re-indented at, and empty containers
DOCUMENTS = st.recursive(
    SCALARS | STRINGS | TABLES,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(payload=DOCUMENTS)
def test_json_bytes_are_json_dump_sorted_and_indented(payload):
    want = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.json"
        write_json(path, payload)
        assert path.read_bytes() == want


def test_json_bytes_of_lists_longer_than_one_encoder_call(tmp_path):
    n = artifacts._BATCH
    mixed = [[i, i / 7] for i in range(n)]  # two batches of rows, the second not all numbers
    mixed[-3][1] = "a, b"
    payload = {
        "list": [i / 3 for i in range(2 * n + 1)],
        "table": [[i, -i, 0.5] for i in range(n)],
        "mixed": mixed,
        "long_rows": [[0.25] * (n + 1), [-0.0] * (n + 1)],
        "ragged": [[1.5] * 3, [2.5] * (n - 1)],
    }
    path = tmp_path / "a.json"
    write_json(path, payload)
    assert path.read_bytes() == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["list", "table", "nested", "scalar"])
def test_json_refuses_non_finite_wherever_it_sits(tmp_path, bad, where):
    payload = {"list": [0.5, bad], "table": [[1.0, 2.0], [bad, 3.0]],
               "nested": {"x": [[0.5], {"y": bad}]}, "scalar": bad}[where]
    path = tmp_path / "a.json"
    with pytest.raises(NonFiniteError):
        write_json(path, {"a": [[1, 2]] * 100, "b": payload})
    assert not path.exists()


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_csv_refuses_non_finite_and_leaves_no_file(tmp_path, bad):
    path = tmp_path / "a.csv"
    columns = {"name": ["x"] * 1000 + ["y"], "count": list(range(1000)) + [1],
               "value": [0.5] * 1000 + [bad]}
    with pytest.raises(NonFiniteError):
        write_csv(path, columns)
    assert not path.exists()


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [
    lambda bad: np.array([0.5] * 999 + [bad]),
    lambda bad: [0.5] * 998 + [None, bad],
    lambda bad: np.array([0.5] * 998 + ["a", bad], dtype=object),
], ids=["float_array", "list_with_none", "object_array"])
def test_csv_refuses_non_finite_in_any_kind_of_column(tmp_path, bad, column):
    path = tmp_path / "a.csv"
    path.write_text("stale\n")  # a stale artifact is not left behind either
    with pytest.raises(NonFiniteError, match="value"):
        write_csv(path, {"count": np.arange(1000), "value": column(bad)})
    assert not path.exists()


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (0, 1)])
def test_csv_refuses_columns_of_unequal_length_and_leaves_no_file(tmp_path, lengths):
    path = tmp_path / "a.csv"
    with pytest.raises(ValueError, match="zip"):
        write_csv(path, {"a": np.arange(lengths[0]), "b": [0.5] * lengths[1]})
    assert not path.exists()


INT64 = st.integers(-(2**63), 2**63 - 1)
CELLS = st.none() | st.integers(-(2**70), 2**70) | FLOATS | STRINGS


def columns_of(n):
    """One column of ``n`` cells: an int64 or float64 array, or a list of
    ints, floats, None and strings, one kind or mixed."""
    def lists(cells):
        return st.lists(cells, min_size=n, max_size=n)

    return (lists(INT64).map(lambda v: np.array(v, dtype=np.int64))
            | lists(FLOATS).map(lambda v: np.array(v, dtype=np.float64))
            | lists(st.integers(-(2**70), 2**70)) | lists(FLOATS) | lists(CELLS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_bytes_are_csv_writer_rows(data):
    """The bytes of ``csv.writer`` given the row tuples of Python scalars: an
    int64 column writes ``3``, not ``3.0``, and a float is its ``repr``."""
    n = data.draw(st.integers(0, 6))
    names = data.draw(st.lists(STRINGS, max_size=4, unique=True))
    columns = {name: data.draw(columns_of(n)) for name in names}
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(names)
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    writer.writerows(zip(*cells))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.csv"
        write_csv(path, columns)
        assert path.read_bytes() == want.getvalue().encode("utf-8")

