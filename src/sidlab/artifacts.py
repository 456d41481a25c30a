"""The artifact format: every JSON and CSV file the lab writes goes through here,
and every checkpoint and token map it reads.

A JSON artifact is ``json.dump`` with sorted keys, a two-space indent and a
trailing newline.  A CSV artifact is a header of a dataclass's field names
and one row per instance, in the ``csv`` module's default dialect, where
``None`` is an empty cell.  Neither ever holds NaN or an infinity: a
non-finite float raises :class:`NonFiniteError` and leaves no file behind.
``read_json`` reads a JSON artifact back, handing its arrays of floats and
its tables of integers to the C kernel ``_floats.c``.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import json
import json.decoder
import json.scanner
import math
from contextlib import contextmanager
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


def write_json(path, payload) -> None:
    """Stream ``payload`` to ``path`` chunk by chunk, as strict JSON."""
    with _new_file(path) as fh:
        try:
            json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NonFiniteError(f"{Path(path).name} would hold a non-finite number") from exc
        fh.write("\n")


def read_json(text: str):
    """The JSON document ``text``, as ``json.loads`` reads it, except for two
    kinds of array, which read to arrays with the same values:

    * an array of JSON floats (each with a fraction or an exponent) is a
      float64 array with the bits of ``json.loads``;
    * an array of equal-length, non-empty arrays of JSON integers of at most
      18 digits is an (n_rows, width) int64 array.

    The document goes through ``json``'s pure-Python scanner, which offers
    each array to the compiled ``read_floats``, then to ``read_rows``; an
    array both decline, and a document that is not ASCII, read as
    ``json.loads`` reads them.  Raises ``ValueError`` for text that is not
    JSON, nested too deeply included.
    """
    kernel = _floats_kernel()
    try:
        if kernel is None or not text.isascii():
            return json.loads(text)
        data = text.encode("ascii")
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


def write_csv(path, row_type, rows) -> None:
    """One header of ``row_type``'s fields, then one row per dataclass in ``rows``."""
    names = [field.name for field in dataclasses.fields(row_type)]
    with _new_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            cells = [getattr(row, name) for name in names]
            if not all(math.isfinite(v) for v in cells if isinstance(v, float)):
                raise NonFiniteError(f"{Path(path).name} would hold a non-finite number: {row}")
            writer.writerow(cells)


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
