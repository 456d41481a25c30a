"""Tabular conditional-logit models over token sequences.

One model class, ``LogitModel``, scores l(t_m | h, prefix) from one table per
position, in one of two forms:

* cascaded (``CascadedLogitModel``): position m's table has shape
  (C, X**(m-1), X), indexed by context id, base-X prefix integer, and token.
  Every prefix node has its own row of X free logits.
* parallel (``ParallelLogitModel``): position m's table has shape (C, X).
  It is the cascaded table with one node row that every prefix shares.

Routines read every position through the same (C, nodes, X) row view
(:meth:`LogitModel.rows`) and map a prefix to its row with
:meth:`LogitModel.node_index`, so each is written once for both forms.

An item's logit is the sum of its token logits along the path given by a
token map.  Models support an optional lookup counter that tallies the
entries some reads touch (``LookupCounter`` lists which); the benchmark
module uses it to cross-check closed-form operation counts.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .artifacts import json_int, json_numbers, read_json, write_json
from .vocab import CodebookSpec, TokenMap, TokenSeq


class FormError(TypeError):
    """An operation was applied to a model form it does not support."""


class LookupCounter:
    """Counts logit-table entries read: X per ``node_logits`` call, k per item
    and context in ``item_logits``, and X per beam per round in
    ``beam_search``.  Other reads through ``LogitModel.rows`` are not counted:
    the sequence routes, ``check_contexts``' visited rows, the chained log
    probabilities and SGD."""

    def __init__(self):
        self.entries = 0

    def reset(self) -> None:
        self.entries = 0


def _check_context(C: int, h: int) -> slice:
    """The one-context slice of context h, which must lie in [0, C)."""
    if not 0 <= h < C:
        raise ValueError(f"context {h} outside [0, {C})")
    return slice(h, h + 1)


def _check_map(model: "LogitModel", tmap: TokenMap) -> None:
    if tmap.spec != model.spec:
        raise ValueError(f"token map spec {tmap.spec} does not match model spec {model.spec}")


def _table_shape(form: str, spec: CodebookSpec, C: int, m: int) -> tuple[int, ...]:
    """Stored shape of position m's table (m counted from 0)."""
    if form == "cascaded":
        return (C, spec.X**m, spec.X)
    if form == "parallel":
        return (C, spec.X)
    raise FormError(f"unknown model form {form!r}")


class LogitModel:
    """Token logits from one table per position; ``form`` picks the layout."""

    form: str

    def __init__(self, spec: CodebookSpec, C: int, tables: list[np.ndarray]):
        if C < 1:
            raise ValueError(f"C must be >= 1, got {C}")
        if len(tables) != spec.k:
            raise ValueError(f"expected {spec.k} tables, got {len(tables)}")
        for m, tab in enumerate(tables):
            want = _table_shape(self.form, spec, C, m)
            if tab.shape != want:
                raise ValueError(
                    f"position {m + 1} table has shape {tab.shape}, expected {want}"
                )
        self.spec = spec
        self.C = C
        self.tables = [np.asarray(t, dtype=np.float64) for t in tables]
        self.counter: LookupCounter | None = None

    @classmethod
    def random(cls, spec: CodebookSpec, C: int, sigma: float, seed: int) -> "LogitModel":
        """Tables drawn i.i.d. normal(0, sigma) from one seeded generator."""
        rng = np.random.default_rng(seed)
        tables = [
            rng.normal(0.0, sigma, size=_table_shape(cls.form, spec, C, m))
            for m in range(spec.k)
        ]
        return cls(spec, C, tables)

    @classmethod
    def zeros(cls, spec: CodebookSpec, C: int) -> "LogitModel":
        shapes = [_table_shape(cls.form, spec, C, m) for m in range(spec.k)]
        return cls(spec, C, [np.zeros(shape) for shape in shapes])

    def rows(self, m: int) -> np.ndarray:
        """Position m's table as a (C, nodes, X) view: X**m nodes cascaded, 1 parallel.

        Writes through the view reach the table.
        """
        tab = self.tables[m]
        return tab[:, None, :] if self.form == "parallel" else tab

    def node_index(self, prefix_idx):
        """Row of a position's row view that serves a base-X prefix index.

        The index itself (an int or an index array) in the cascaded form; 0 in
        the parallel form, where every prefix shares one row.
        """
        return 0 if self.form == "parallel" else prefix_idx

    def node_logits(self, h: int, prefix: TokenSeq) -> np.ndarray:
        """The X-vector of logits at node (h, prefix); position is len(prefix) + 1."""
        _check_context(self.C, h)
        if len(prefix) >= self.spec.k:
            raise ValueError(f"prefix length {len(prefix)} must be < k={self.spec.k}")
        row = self.rows(len(prefix))[h, self.node_index(self.spec.prefix_index(prefix))]
        if self.counter is not None:
            self.counter.entries += self.spec.X
        return row

    def copy(self) -> "LogitModel":
        return type(self)(self.spec, self.C, [t.copy() for t in self.tables])


class CascadedLogitModel(LogitModel):
    """Prefix-conditioned token logits with one free row per prefix node."""

    form = "cascaded"


class ParallelLogitModel(LogitModel):
    """Position-wise token logits shared across all prefixes."""

    form = "parallel"


FORMS: dict[str, type[LogitModel]] = {
    "cascaded": CascadedLogitModel,
    "parallel": ParallelLogitModel,
}


def item_logits(model: LogitModel, tmap: TokenMap, contexts: slice) -> np.ndarray:
    """Logits of every item in the map in the contexts the slice ``contexts``
    selects, shape (contexts, n_items): each path's token logits added left
    to right from 0.0."""
    _check_map(model, tmap)
    mat = tmap.token_matrix
    prefixes = tmap.prefix_indices
    scores = np.zeros((len(range(model.C)[contexts]), tmap.n_items))
    for m in range(model.spec.k):
        slots = model.node_index(prefixes[m]) * model.spec.X + mat[:, m]  # flat row offsets
        scores += np.take(model.rows(m)[contexts].reshape(len(scores), -1), slots, axis=1)
    if model.counter is not None:
        model.counter.entries += model.spec.k * scores.size
    return scores


# the most table entries a model that the CLI builds, or the benchmark
# instruments, may hold; verify also caps the X**k sequences of its maps
MAX_TABLE_ENTRIES = 10**7


def table_entry_count(spec: CodebookSpec, C: int, form: str) -> int:
    """Total table entries a model of this shape would hold."""
    return sum(math.prod(_table_shape(form, spec, C, m)) for m in range(spec.k))


def model_to_json_dict(model: LogitModel) -> dict:
    """Checkpoint payload; each position's table is flattened context-major,
    then prefix, then token."""
    return {
        "form": model.form,
        "k": model.spec.k,
        "X": model.spec.X,
        "C": model.C,
        "params": [t.ravel(order="C").tolist() for t in model.tables],
    }


def model_from_json_dict(payload: dict) -> LogitModel:
    """The model of a checkpoint payload.  Tables may arrive as lists or, from
    ``artifacts.read_json``, as float64 arrays, which are used without a copy
    (integer tables of one length arrive as the rows of one int64 array)."""
    spec = CodebookSpec(k=json_int(payload, "k"), X=json_int(payload, "X"))
    C = json_int(payload, "C")
    form = str(payload["form"])
    params = payload["params"]
    if len(params) != spec.k:
        raise ValueError(f"checkpoint holds {len(params)} tables, expected k={spec.k}")
    tables = []
    for m in range(spec.k):
        # a float64 cast would take "0.5", a table of booleans or 10**400 without a word
        values = json_numbers(params[m], f"checkpoint params table {m + 1}")
        tables.append(values.reshape(_table_shape(form, spec, C, m)))
    if not all(np.isfinite(t).all() for t in tables):
        raise ValueError("checkpoint params must all be finite")
    return FORMS[form](spec, C, tables)


def save_model(model: LogitModel, path) -> None:
    write_json(path, model_to_json_dict(model))


def load_model(path) -> LogitModel:
    return model_from_json_dict(read_json(Path(path).read_bytes()))
