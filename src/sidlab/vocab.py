"""Token vocabulary layout and item-to-sequence maps.

An item catalogue of N items is addressed by length-k token sequences drawn
from k codebooks of X codes each, so the sequence space has X**k points.  A
``TokenMap`` records the assignment of items to sequences and is the single
place where the bijection premise (every item gets a unique sequence and the
sequence space is exactly covered) is either enforced (``strict`` mode) or
merely measured (``probe`` mode).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

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
        idx = 0
        for t in seq:
            idx = idx * self.X + t
        return idx

    def index_to_sequence(self, idx: int) -> TokenSeq:
        """Inverse of :meth:`sequence_to_index`."""
        if not 0 <= idx < self.sequence_space_size:
            raise ValueError(f"index {idx} outside [0, {self.sequence_space_size})")
        digits = []
        for _ in range(self.k):
            digits.append(idx % self.X)
            idx //= self.X
        return tuple(reversed(digits))

    def prefix_index(self, prefix: TokenSeq) -> int:
        """Base-X integer encoding of a (possibly empty) prefix; empty prefix is 0."""
        idx = 0
        for t in prefix:
            idx = idx * self.X + t
        return idx

    def iter_sequences(self) -> Iterator[TokenSeq]:
        """All X**k sequences in lexicographic (base-X counting) order."""
        for idx in range(self.sequence_space_size):
            yield self.index_to_sequence(idx)


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

    In ``strict`` mode the constructor guarantees the assignment is a bijection
    onto the full sequence space (collisions raise :class:`CollisionError`,
    a wrong item count raises :class:`CoverageError`).  In ``probe`` mode any
    assignment is accepted and collisions are left in place so downstream
    checks can measure their effect; the inverse of a colliding sequence is
    the lowest colliding item id.

    Use :func:`build_token_map` or :func:`identity_token_map` instead of
    calling the constructor with raw data.
    """

    def __init__(self, spec: CodebookSpec, forward: list[TokenSeq], mode: str):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if not forward:
            raise ValueError("token map needs at least one item")
        self.spec = spec
        self.mode = mode
        self._forward = [spec.validate_sequence(s) for s in forward]
        self._matrix: np.ndarray | None = None
        self._prefixes: np.ndarray | None = None
        self._inverse: dict[TokenSeq, int] = {}
        for item, seq in enumerate(self._forward):
            prior = self._inverse.setdefault(seq, item)
            if prior != item and mode == "strict":
                raise CollisionError(prior, item, seq)
        if mode == "strict" and len(self._forward) != spec.sequence_space_size:
            raise CoverageError(
                f"strict map needs exactly X**k = {spec.sequence_space_size} items, "
                f"got {len(self._forward)}"
            )

    @property
    def n_items(self) -> int:
        return len(self._forward)

    def forward(self, item: int) -> TokenSeq:
        """Token sequence assigned to ``item``."""
        if not 0 <= item < len(self._forward):
            raise ValueError(f"item {item} outside [0, {len(self._forward)})")
        return self._forward[item]

    def inverse(self, seq: Iterable[int]) -> int | None:
        """Item owning ``seq``, or None if no item was assigned it.

        On probe-mode collisions this is the lowest colliding item id.
        """
        return self._inverse.get(self.spec.validate_sequence(seq))

    def items(self) -> Iterator[tuple[int, TokenSeq]]:
        """(item, sequence) pairs in item-id order."""
        return enumerate(self._forward)

    @property
    def token_matrix(self) -> np.ndarray:
        """All assigned sequences as an (n_items, k) int array, row i = forward(i).

        Cached; treat as read-only.
        """
        if self._matrix is None:
            self._matrix = np.asarray(self._forward, dtype=np.int64).reshape(
                len(self._forward), self.spec.k
            )
            self._matrix.flags.writeable = False
        return self._matrix

    @property
    def prefix_indices(self) -> np.ndarray:
        """:func:`prefix_index_arrays` of the token matrix, shape (k, n_items).

        Cached; treat as read-only.
        """
        if self._prefixes is None:
            self._prefixes = prefix_index_arrays(self.spec, self.token_matrix)
            self._prefixes.flags.writeable = False
        return self._prefixes

    def to_json_dict(self) -> dict:
        return {
            "k": self.spec.k,
            "X": self.spec.X,
            "mode": self.mode,
            "forward": [list(s) for s in self._forward],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TokenMap":
        spec = CodebookSpec(k=int(payload["k"]), X=int(payload["X"]))
        forward = [tuple(int(t) for t in row) for row in payload["forward"]]
        return cls(spec, forward, str(payload["mode"]))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TokenMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def build_token_map(
    spec: CodebookSpec,
    assignments: list[tuple[int, Iterable[int]]],
    mode: str = "strict",
) -> TokenMap:
    """Build a :class:`TokenMap` from explicit (item id, sequence) pairs.

    Item ids must be exactly 0..N-1 with no duplicates; the order of the
    pairs does not matter.

    Raises:
        MalformedSequenceError: a sequence fails validation against ``spec``.
        CollisionError: strict mode and two items share a sequence.
        CoverageError: strict mode and N != X**k.
    """
    n = len(assignments)
    forward: list[TokenSeq | None] = [None] * n
    for item, seq in assignments:
        item = int(item)
        if not 0 <= item < n:
            raise ValueError(f"item id {item} outside [0, {n})")
        if forward[item] is not None:
            raise ValueError(f"duplicate assignment for item {item}")
        forward[item] = spec.validate_sequence(seq)
    return TokenMap(spec, forward, mode)  # type: ignore[arg-type]


def identity_token_map(spec: CodebookSpec) -> TokenMap:
    """Strict map sending item i to the base-X digits of i (first digit most significant)."""
    forward = [spec.index_to_sequence(i) for i in range(spec.sequence_space_size)]
    return TokenMap(spec, forward, "strict")


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
    collapse_threshold: float = field(default=0.75)

    def to_json_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "n_distinct_sequences": self.n_distinct_sequences,
            "collision_count": self.collision_count,
            "per_position_utilization": self.per_position_utilization,
            "collapse_flags": self.collapse_flags,
            "is_bijective_onto_product": self.is_bijective_onto_product,
            "collapse_threshold": self.collapse_threshold,
        }


def audit_bijection(tmap: TokenMap, collapse_threshold: float = 0.75) -> BijectionReport:
    """Deterministically audit a map for collisions, coverage, and codebook collapse."""
    if not 0.0 < collapse_threshold <= 1.0:
        raise ValueError(f"collapse threshold must be in (0, 1], got {collapse_threshold}")
    sequences = [seq for _, seq in tmap.items()]
    distinct = len(set(sequences))
    utilization = []
    for m in range(tmap.spec.k):
        used = len({seq[m] for seq in sequences})
        utilization.append(used / tmap.spec.X)
    return BijectionReport(
        n_items=len(sequences),
        n_distinct_sequences=distinct,
        collision_count=len(sequences) - distinct,
        per_position_utilization=utilization,
        collapse_flags=[u < collapse_threshold for u in utilization],
        is_bijective_onto_product=(
            len(sequences) == distinct == tmap.spec.sequence_space_size
        ),
        collapse_threshold=collapse_threshold,
    )
