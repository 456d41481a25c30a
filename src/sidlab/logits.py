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
token map.  Models support an optional lookup counter that tallies how many
table entries each operation touches, which the benchmark module uses to
cross-check closed-form operation counts.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .vocab import CodebookSpec, TokenMap, TokenSeq


class FormError(TypeError):
    """An operation was applied to a model form it does not support."""


class LookupCounter:
    """Counts scalar logit-table entries touched by model reads."""

    def __init__(self):
        self.entries = 0

    def reset(self) -> None:
        self.entries = 0


def _check_context(C: int, h: int) -> None:
    if not 0 <= h < C:
        raise ValueError(f"context {h} outside [0, {C})")


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

    def rows(self, m: int, tables: list[np.ndarray] | None = None) -> np.ndarray:
        """Position m's table as a (C, nodes, X) view: X**m nodes cascaded, 1 parallel.

        Writes through the view reach the table.  ``tables`` (e.g. gradients
        from :meth:`zero_like_tables`) are viewed instead of the model's own.
        """
        tab = (self.tables if tables is None else tables)[m]
        return tab[:, None, :] if self.form == "parallel" else tab

    def node_index(self, prefix_idx):
        """Row of a position's row view that serves a base-X prefix index.

        The index itself (an int or an index array) in the cascaded form; 0 in
        the parallel form, where every prefix shares one row.
        """
        return 0 if self.form == "parallel" else prefix_idx

    def _node_row(self, h: int, prefix: TokenSeq) -> np.ndarray:
        _check_context(self.C, h)
        if len(prefix) >= self.spec.k:
            raise ValueError(f"prefix length {len(prefix)} must be < k={self.spec.k}")
        return self.rows(len(prefix))[h, self.node_index(self.spec.prefix_index(prefix))]

    def node_logits(self, h: int, prefix: TokenSeq) -> np.ndarray:
        """The X-vector of logits at node (h, prefix); position is len(prefix) + 1."""
        row = self._node_row(h, prefix)
        if self.counter is not None:
            self.counter.entries += self.spec.X
        return row

    def token_logit(self, h: int, prefix: TokenSeq, t: int) -> float:
        """Single entry l(t | h, prefix)."""
        if not 0 <= t < self.spec.X:
            raise ValueError(f"token {t} outside [0, {self.spec.X})")
        val = self._node_row(h, prefix)[t]
        if self.counter is not None:
            self.counter.entries += 1
        return float(val)

    def copy(self) -> "LogitModel":
        return type(self)(self.spec, self.C, [t.copy() for t in self.tables])

    def zero_like_tables(self) -> list[np.ndarray]:
        return [np.zeros_like(t) for t in self.tables]

    @property
    def n_params(self) -> int:
        return sum(t.size for t in self.tables)


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


def item_logit(model: LogitModel, h: int, tmap: TokenMap, item: int) -> float:
    """Item logit: the sum of token logits along the item's sequence path."""
    seq = tmap.forward(item)
    return sum(model.token_logit(h, seq[:m], seq[m]) for m in range(len(seq)))


def item_logits_all(model: LogitModel, h: int, tmap: TokenMap) -> np.ndarray:
    """Item logits of every item in the map, shape (n_items,).

    Equivalent to calling :func:`item_logit` per item; vectorized, and counts
    n_items entry reads per position against the attached lookup counter.
    """
    _check_context(model.C, h)
    spec = model.spec
    mat = tmap.token_matrix
    prefixes = tmap.prefix_indices
    n = mat.shape[0]
    scores = np.zeros(n)
    for m in range(spec.k):
        scores += model.rows(m)[h, model.node_index(prefixes[m]), mat[:, m]]
    if model.counter is not None:
        model.counter.entries += spec.k * n
    return scores


def embed_parallel_as_cascaded(model: ParallelLogitModel) -> CascadedLogitModel:
    """Copy a parallel model into cascaded tables (every prefix row identical)."""
    if model.form != "parallel":
        raise FormError("embed_parallel_as_cascaded needs a parallel model")
    spec = model.spec
    tables = [np.repeat(model.rows(m), spec.X**m, axis=1) for m in range(spec.k)]
    return CascadedLogitModel(spec, model.C, tables)


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
    spec = CodebookSpec(k=int(payload["k"]), X=int(payload["X"]))
    C = int(payload["C"])
    form = str(payload["form"])
    params = payload["params"]
    if len(params) != spec.k:
        raise ValueError(f"checkpoint holds {len(params)} tables, expected k={spec.k}")
    tables = [
        np.asarray(params[m], dtype=np.float64).reshape(_table_shape(form, spec, C, m))
        for m in range(spec.k)
    ]
    return FORMS[form](spec, C, tables)


def save_model(model: LogitModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(model), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path) -> LogitModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json_dict(json.load(fh))
