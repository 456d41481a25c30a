"""Token vocabulary layout and item-to-sequence maps.

An item catalogue of N items is addressed by length-k token sequences drawn
from k codebooks of X codes each, so the sequence space has X**k points.  A
``TokenMap`` records the assignment of items to sequences and is the single
place where the bijection premise (every item gets a unique sequence and the
sequence space is exactly covered) is either enforced (``strict`` mode) or
merely measured (``probe`` mode).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .artifacts import read_json, write_json

TokenSeq = tuple[int, ...]

_MODES = ("strict", "probe")


class MalformedSequenceError(ValueError):
    """A token sequence has the wrong length or an out-of-range token."""


class CollisionError(ValueError):
    """Two items were assigned the same token sequence in strict mode."""

    def __init__(self, item_a: int, item_b: int, sequence: TokenSeq):
        self.item_a = item_a
        self.item_b = item_b
        self.sequence = sequence
        super().__init__(
            f"items {item_a} and {item_b} collide on sequence {sequence}"
        )


class CoverageError(ValueError):
    """Strict mode requires exactly X**k items; the catalogue has a different count."""


@dataclass(frozen=True)
class CodebookSpec:
    """Shape of the token vocabulary: k positions, X codes per position.

    Attributes:
        k: number of token positions per item, at least 1.
        X: codebook size per position, at least 2.
    """

    k: int
    X: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.X < 2:
            raise ValueError(f"X must be >= 2, got {self.X}")
        if self.X**self.k > 2**31:
            raise ValueError(
                f"sequence space X**k = {self.X}**{self.k} exceeds 2**31"
            )

    @property
    def sequence_space_size(self) -> int:
        """Number of points in the full sequence space, X**k."""
        return self.X**self.k

    def validate_sequence(self, seq: Iterable[int]) -> TokenSeq:
        """Return ``seq`` as a tuple after checking length and token ranges.

        Raises:
            MalformedSequenceError: wrong length, or a token outside [0, X).
        """
        out = tuple(int(t) for t in seq)
        if len(out) != self.k:
            raise MalformedSequenceError(
                f"sequence {out} has length {len(out)}, expected k={self.k}"
            )
        for t in out:
            if not 0 <= t < self.X:
                raise MalformedSequenceError(
                    f"token {t} outside [0, {self.X}) in sequence {out}"
                )
        return out

    def sequence_to_index(self, seq: TokenSeq) -> int:
        """Encode a full sequence as a base-X integer, first token most significant."""
        return self.prefix_index(seq)

    def prefix_index(self, prefix: TokenSeq) -> int:
        """Base-X integer encoding of a (possibly empty) prefix; empty prefix is 0."""
        idx = 0
        for t in prefix:
            idx = idx * self.X + t
        return idx


def _json_int(payload: dict, key: str) -> int:
    """``payload[key]`` read as a JSON integer: a bool, float or string is refused, not cast."""
    value = payload[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def _holds_bool(cells: list) -> bool:
    """Whether a JSON array, read as lists, holds a boolean at any depth."""
    return any(type(v) is bool or (type(v) is list and _holds_bool(v)) for v in cells)


def prefix_index_arrays(spec: CodebookSpec, token_matrix: np.ndarray) -> np.ndarray:
    """Base-X prefix integer of every item at every position, shape (k, n_items).

    Row m holds the encoded prefix (t_1 .. t_m-1) of each item, row 0 is all
    zeros (empty prefix).
    """
    n = token_matrix.shape[0]
    out = np.zeros((spec.k, n), dtype=np.int64)
    for m in range(1, spec.k):
        out[m] = out[m - 1] * spec.X + token_matrix[:, m - 1]
    return out


class TokenMap:
    """Item-to-sequence assignment with a declared bijection contract.

    The map is one read-only (n_items, k) int64 table, ``token_matrix``, row
    i = item i's sequence; ``prefix_indices`` is :func:`prefix_index_arrays`
    of it.  In ``strict`` mode the constructor guarantees a bijection onto
    the full sequence space (collisions raise :class:`CollisionError`, a wrong
    item count raises :class:`CoverageError`).  In ``probe`` mode any
    assignment is accepted and collisions are left in place so downstream
    checks can measure their effect; the inverse of a colliding sequence is
    the lowest colliding item id.

    Build one from any (n_items, k) integer table, or take the strict
    base-X map from :func:`identity_token_map`.
    """

    def __init__(self, spec: CodebookSpec, forward: list[TokenSeq] | np.ndarray, mode: str):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        try:
            table = np.array(forward)
        except (ValueError, OverflowError) as exc:
            raise MalformedSequenceError(f"token sequences do not form a table: {exc}") from exc
        if table.shape[:1] == (0,):
            raise ValueError("token map needs at least one item")
        if table.ndim != 2 or table.shape[1] != spec.k or table.dtype.kind not in "iu":
            raise MalformedSequenceError(
                f"tokens form a {table.dtype} table of shape {table.shape}, "
                f"expected integers of shape (n_items, k={spec.k})"
            )
        if table.min() < 0 or table.max() >= spec.X:
            raise MalformedSequenceError(f"a token lies outside [0, {spec.X})")
        self.spec = spec
        self.mode = mode
        self.token_matrix = table.astype(np.int64, copy=False)
        self.token_matrix.flags.writeable = False
        self.prefix_indices = prefix_index_arrays(spec, self.token_matrix)
        self.prefix_indices.flags.writeable = False
        # inverse: sequence indices sorted stably, so equal indices keep id order
        codes = self.prefix_indices[-1] * spec.X + self.token_matrix[:, -1]
        self._order = np.argsort(codes, kind="stable")
        self._sorted_codes = codes[self._order]
        repeats = self._order[1:][self._sorted_codes[1:] == self._sorted_codes[:-1]]
        if mode == "strict" and repeats.size:
            item = int(repeats.min())  # the first item whose sequence an earlier item holds
            raise CollisionError(self.inverse(self.forward(item)), item, self.forward(item))
        if mode == "strict" and self.n_items != spec.sequence_space_size:
            raise CoverageError(
                f"strict map needs exactly X**k = {spec.sequence_space_size} items, "
                f"got {self.n_items}"
            )

    @property
    def n_items(self) -> int:
        return len(self.token_matrix)

    def forward(self, item: int) -> TokenSeq:
        """Token sequence assigned to ``item``."""
        if not 0 <= item < self.n_items:
            raise ValueError(f"item {item} outside [0, {self.n_items})")
        return tuple(self.token_matrix[item].tolist())

    def inverse(self, seq: Iterable[int]) -> int | None:
        """Item owning ``seq``, or None if no item was assigned it.

        On probe-mode collisions this is the lowest colliding item id.
        """
        code = self.spec.sequence_to_index(self.spec.validate_sequence(seq))
        pos = int(np.searchsorted(self._sorted_codes, code))
        if pos < self.n_items and self._sorted_codes[pos] == code:
            return int(self._order[pos])
        return None

    def items(self) -> Iterator[tuple[int, TokenSeq]]:
        """(item, sequence) pairs in item-id order."""
        return enumerate(map(tuple, self.token_matrix.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "k": self.spec.k,
            "X": self.spec.X,
            "mode": self.mode,
            "forward": self.token_matrix.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TokenMap":
        """The map of a token-map payload.  Its rows may arrive as lists or,
        from ``artifacts.read_json``, as one int64 table."""
        spec = CodebookSpec(k=_json_int(payload, "k"), X=_json_int(payload, "X"))
        forward = payload["forward"]
        # np.array casts a boolean among integers to 1 or 0
        if isinstance(forward, list) and _holds_bool(forward):
            raise MalformedSequenceError("token map rows must hold integers, not a boolean")
        return cls(spec, forward, str(payload["mode"]))

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "TokenMap":
        return cls.from_json_dict(read_json(Path(path).read_bytes()))


def identity_token_map(spec: CodebookSpec) -> TokenMap:
    """Strict map sending item i to the base-X digits of i (first digit most significant)."""
    items = np.arange(spec.sequence_space_size)
    place = spec.X ** np.arange(spec.k - 1, -1, -1)
    return TokenMap(spec, items[:, None] // place % spec.X, "strict")


@dataclass
class BijectionReport:
    """Audit of how close a map is to a bijection onto the sequence space.

    ``collision_count`` is ``n_items - n_distinct_sequences``.  Per-position
    utilization is the fraction of each codebook actually used; positions
    whose utilization falls below the collapse threshold are flagged.
    """

    n_items: int
    n_distinct_sequences: int
    collision_count: int
    per_position_utilization: list[float]
    collapse_flags: list[bool]
    is_bijective_onto_product: bool
    collapse_threshold: float = 0.75

    def to_json_dict(self) -> dict:
        return asdict(self)


def audit_bijection(tmap: TokenMap, collapse_threshold: float = 0.75) -> BijectionReport:
    """Deterministically audit a map for collisions, coverage, and codebook collapse."""
    if not 0.0 < collapse_threshold <= 1.0:
        raise ValueError(f"collapse threshold must be in (0, 1], got {collapse_threshold}")
    # distinct values are the changes along a sorted array, plus one: the
    # sequences' from the inverse's sorted codes, each position's from a sort
    # of its column (a bincount would allocate X counters, and X may be 2**31)
    codes, columns = tmap._sorted_codes, np.sort(tmap.token_matrix, axis=0)
    n, distinct = len(codes), 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))
    used = 1 + np.count_nonzero(columns[1:] != columns[:-1], axis=0)
    utilization = [u / tmap.spec.X for u in used.tolist()]
    return BijectionReport(
        n_items=n,
        n_distinct_sequences=distinct,
        collision_count=n - distinct,
        per_position_utilization=utilization,
        collapse_flags=[u < collapse_threshold for u in utilization],
        is_bijective_onto_product=n == distinct == tmap.spec.sequence_space_size,
        collapse_threshold=collapse_threshold,
    )
