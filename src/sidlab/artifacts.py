"""The artifact format: every JSON and CSV file the lab writes goes through here.

A JSON artifact is ``json.dump`` with sorted keys, a two-space indent and a
trailing newline.  A CSV artifact is a header of a dataclass's field names
and one row per instance, in the ``csv`` module's default dialect, where
``None`` is an empty cell.  Neither ever holds NaN or an infinity: a
non-finite float raises :class:`NonFiniteError` and leaves no file behind.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from contextlib import contextmanager
from pathlib import Path


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
