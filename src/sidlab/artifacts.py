"""The artifact format: every JSON and CSV file the lab writes goes through here,
and every checkpoint and token map it reads.

A JSON artifact is ``json.dump`` with sorted keys, a two-space indent and a
trailing newline.  A CSV artifact is a header of column names and one row
per index of the columns, in the ``csv`` module's default dialect, where
``None`` is an empty cell.  Neither ever holds NaN or an infinity: a
non-finite float raises :class:`NonFiniteError` and leaves no file behind.
``read_json`` reads a JSON artifact's bytes back, handing its arrays of
floats and its tables of integers to the C kernel ``_floats.c``.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import json.decoder
import json.scanner
import math
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

_FLOATS_SOURCE = Path(__file__).with_name("_floats.c")
_I64, _OUT_I64 = ctypes.c_int64, ctypes.POINTER(ctypes.c_int64)
# read_floats(text, pos, out, cap, end) and read_rows(text, pos, out, cap, width, end)
_FLOATS_SIGNATURES = {
    "read_floats": (_I64, [ctypes.c_char_p, _I64, ctypes.c_void_p, _I64, _OUT_I64]),
    "read_rows": (_I64, [ctypes.c_char_p, _I64, ctypes.c_void_p, _I64, _OUT_I64, _OUT_I64]),
}


class NonFiniteError(ValueError):
    """An artifact would hold NaN or an infinity; nothing was written."""


@contextmanager
def _new_file(path):
    """The opened file, removed again if writing it raises."""
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        Path(path).unlink()
        raise


# json's C encoder, which runs only without an indent, and its Python one
_FLAT = json.JSONEncoder(allow_nan=False)
_INDENTED = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)
# the numbers one call of the C encoder takes at most, so that no long list
# stands in memory as one text
_BATCH = 1024
_CONTAINERS = (list, tuple, dict, str)


def write_json(path, payload) -> None:
    """``payload`` as strict JSON: the bytes of ``json.dump(payload,
    sort_keys=True, indent=2)`` and a newline.

    Number lists and number tables go through json's C encoder, at most
    ``_BATCH`` numbers a call, and are re-indented (``_write_node``).
    """
    with _new_file(path) as fh:
        try:
            _write_node(payload, "\n", fh.write)
        except ValueError as exc:
            raise NonFiniteError(f"{Path(path).name} would hold a non-finite number") from exc
        fh.write("\n")


def _write_node(node, pad: str, write) -> None:
    """``node`` through ``write`` as ``json.dumps(node, sort_keys=True,
    indent=2, allow_nan=False)`` gives it where its lines start with
    ``pad``, a newline and the indent.

    A dict with string keys, and a list that is neither a list of scalars
    (numbers, booleans, nulls) nor a table of rows of one width, are written
    here, item by item; those lists and tables go to ``_write_batches``.  A
    scalar or an empty container is the same text with or without an
    indent: an int or a finite float is its ``repr``, as in both encoders,
    and the C encoder writes the others; other dicts go to the Python
    encoder.
    """
    inner = pad + "  "
    if isinstance(node, dict) and node:
        if not all(type(key) is str for key in node):  # json converts and sorts these
            write(_INDENTED.encode(node).replace("\n", pad))
            return
        opening = "{"
        for key in sorted(node):
            write(f"{opening}{inner}{_FLAT.encode(key)}: ")
            _write_node(node[key], inner, write)
            opening = ","
        write(pad + "}")
        return
    if isinstance(node, (list, tuple)) and node:
        if not any(map(isinstance, node, repeat(_CONTAINERS))):
            _write_batches(node, pad, write, 0)
            return
        first = node[0]
        width = len(first) if isinstance(first, (list, tuple)) else 0
        # a list of tables goes item by item, without a wasted encoding
        if (0 < width <= _BATCH and not isinstance(first[0], _CONTAINERS)
                and all(map(isinstance, node, repeat((list, tuple))))
                and set(map(len, node)) == {width}):
            _write_batches(node, pad, write, width)
            return
        opening = "["
        for item in node:
            write(opening + inner)
            _write_node(item, inner, write)
            opening = ","
        write(pad + "]")
        return
    kind = type(node)
    if kind is int:  # the common scalars without a call of the encoder
        write(int.__repr__(node))
    elif kind is float and math.isfinite(node):
        write(float.__repr__(node))
    else:
        write(_FLAT.encode(node))


def _write_batches(items, pad: str, write, width: int) -> None:
    """The non-empty list ``items`` for ``_write_node``: scalars (width 0),
    or rows of ``width`` items, through the C encoder in batches of at most
    ``_BATCH`` numbers.  In the flat text, ``", "`` separates items and
    ``"], ["`` rows, and become the indented separators; that holds where
    the text has no string and each row is one list, and a batch of rows
    that fails it is written item by item."""
    inner = pad + "  "
    cell = inner + "  "
    opening = "["
    step = _BATCH // max(width, 1)
    for start in range(0, len(items), step):
        batch = items[start : start + step]
        text = _FLAT.encode(batch)
        if not width:
            write(opening + inner + text[1:-1].replace(", ", "," + inner))
        elif text.count("[") == len(batch) + 1 and '"' not in text and "{" not in text:
            body = text[2:-2].replace(", ", "," + cell)
            body = body.replace("]," + cell + "[", inner + "]," + inner + "[" + cell)
            write(opening + inner + "[" + cell + body + inner + "]")
        else:
            for row in batch:
                write(opening + inner)
                _write_node(row, inner, write)
                opening = ","
        opening = ","
    write(pad + "]")


def read_json(data: bytes):
    """The JSON document in the UTF-8 bytes ``data``, as ``json.loads`` reads
    their text, except for two kinds of array, which read to arrays with the
    same values:

    * an array of JSON floats (each with a fraction or an exponent) is a
      float64 array with the bits of ``json.loads``;
    * an array of equal-length, non-empty arrays of JSON integers of at most
      18 digits is an (n_rows, width) int64 array.

    Their ASCII text goes through ``json``'s pure-Python scanner, which
    offers each array to the compiled ``read_floats``, then to ``read_rows``,
    both reading the bytes as they are; an array both decline, and bytes
    that are not ASCII, read as ``json.loads`` reads them.  Raises
    ``ValueError`` for bytes that are not UTF-8 or not JSON, nested too
    deeply included.
    """
    kernel = _floats_kernel()
    try:
        if kernel is None or not data.isascii():
            return json.loads(data.decode("utf-8"))
        text = data.decode("ascii")
        floats = np.empty(len(data) // 4 + 1)  # a float token and its separator take 4 bytes or more
        cells = np.empty(len(data) // 2 + 1, dtype=np.int64)  # an integer cell and its separator, 2
        end, width = ctypes.c_int64(), ctypes.c_int64()

        def parse_array(text_and_pos, scan_once):
            pos = text_and_pos[1]
            try:
                n = kernel.read_floats(data, pos, floats.ctypes.data, len(floats), end)
                if n >= 0:
                    return floats[:n].copy(), end.value
                n = kernel.read_rows(data, pos, cells.ctypes.data, len(cells), width, end)
                if n >= 0:
                    return cells[:n].reshape(-1, width.value).copy(), end.value
            except ctypes.ArgumentError as exc:  # how ctypes reports a RecursionError here
                raise RecursionError(str(exc)) from exc
            return json.decoder.JSONArray(text_and_pos, scan_once)

        decoder = json.JSONDecoder()
        decoder.parse_array = parse_array
        decoder.scan_once = json.scanner.py_make_scanner(decoder)
        try:
            return decoder.decode(text)
        finally:
            # the scanner's closure refers to itself, so parse_array lives until
            # the garbage collector runs; the buffers need not
            data = floats = cells = None
    except RecursionError as exc:
        raise ValueError("the JSON document is nested too deeply") from exc


def write_csv(path, columns: dict) -> None:
    """A header of ``columns``' names, then one row per index of its columns:
    numpy arrays, as the Python scalars of ``tolist``, or lists of cells.
    Columns of unequal length are refused (``zip(strict=True)``)."""
    with _new_file(path) as fh:
        cells = []
        for name, column in columns.items():
            if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
                finite = np.isfinite(column).all()  # one call for a numeric array
                column = column.tolist()
            else:  # a list, or an array of objects or strings: each float cell
                finite = all(math.isfinite(v) for v in column if isinstance(v, float))
            if not finite:
                raise NonFiniteError(f"{Path(path).name} would hold a non-finite number in {name}")
            cells.append(column)
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))


# decimal strings that a reader which does not round correctly gets wrong:
# the subnormal and normal edges, halfway cases, values past either end, and
# 19-digit strings within half a 64-bit ulp of a halfway point between two
# doubles, which a long double product rounded twice gets wrong
_HARD_FLOATS = (
    "5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "1.7976931348623157e308", "1.7976931348623158e308",
    "1e23", "8.98846567431158e307", "9007199254740993.0", "0.1", "-0.0", "1e400",
    "-1e-400", "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126", "3.0E-5", "-7.038531e-26",
    "1134364244112401157e-24", "1760947737541820679e-17", "1120889959805806555e-16",
)


def _kernel_matches_python(kernel) -> bool:
    """``read_floats`` against ``float()``, by bytes, on ``_HARD_FLOATS``, with
    its end offset, and declining an array that holds an integer; ``read_rows``
    on a small table, and declining a table that holds a boolean."""
    text = ("[" + ",\n ".join(_HARD_FLOATS) + " ]").encode("ascii")
    out = np.empty(len(_HARD_FLOATS))
    end, width = ctypes.c_int64(), ctypes.c_int64()
    n = kernel.read_floats(text, 1, out.ctypes.data, len(out), end)
    want = np.array([float(s) for s in _HARD_FLOATS])
    floats = (n == len(out) and end.value == len(text) and out.tobytes() == want.tobytes()
              and kernel.read_floats(b"[0.5, 1]", 1, out.ctypes.data, len(out), end) == -1)
    text = b"[[0, -12], [345678901234567890, 7]]"
    cells = np.empty(4, dtype=np.int64)
    n = kernel.read_rows(text, 1, cells.ctypes.data, len(cells), width, end)
    rows = (n == 4 and width.value == 2 and end.value == len(text)
            and cells.tolist() == [0, -12, 345678901234567890, 7]
            and kernel.read_rows(b"[[0, true]]", 1, cells.ctypes.data, len(cells), width, end)
            == -1)
    return floats and rows


@functools.cache
def _floats_kernel():
    """The compiled ``_floats.c``, or None to read with ``json.loads``.

    Built by ``_native.load`` on the first artifact read of the process,
    never at import, and checked against ``float()`` by
    ``_kernel_matches_python``.
    """
    from . import _native  # the package's C builder, which imports subprocess

    return _native.load(_FLOATS_SOURCE, _FLOATS_SIGNATURES, _kernel_matches_python,
                        ("JSON float", "float()", "artifacts are read with json.loads"))
