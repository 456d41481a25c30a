"""The one artifact writer: its byte layout, and no file for a non-finite value."""

from dataclasses import dataclass

import pytest

from sidlab import NonFiniteError, write_csv, write_json


@dataclass
class Row:
    name: str
    count: int | None
    value: float


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def test_json_layout(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": None, "a": [1.5, 2]})
    assert path.read_bytes() == b'{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": null\n}\n'


def test_csv_layout(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, Row, [Row("x", 3, 0.1), Row("y", None, -2.0)])
    assert path.read_bytes() == b"name,count,value\r\nx,3,0.1\r\ny,,-2.0\r\n"


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_json_refuses_non_finite_and_leaves_no_file(tmp_path, bad):
    path = tmp_path / "a.json"
    path.write_text("{}\n")  # a stale artifact is not left behind either
    with pytest.raises(NonFiniteError):
        # the list is long enough that chunks reach the file before the bad value
        write_json(path, {"a": list(range(10_000)), "b": [0.5, bad]})
    assert not path.exists()


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_csv_refuses_non_finite_and_leaves_no_file(tmp_path, bad):
    path = tmp_path / "a.csv"
    rows = [Row("x", i, 0.5) for i in range(1000)] + [Row("y", 1, bad)]
    with pytest.raises(NonFiniteError):
        write_csv(path, Row, rows)
    assert not path.exists()
