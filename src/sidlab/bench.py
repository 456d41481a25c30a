"""Operation counting for the two loss formulations.

Counted exponential-unit work is the primary evidence: the next-token path
evaluates k softmaxes of width X (k * X exp units), the full-vocabulary path
one softmax over X**k items.  The instrumented lookup counters cross-check
the table-entry traffic of the actual implementations: the next-token loss
reads k * X entries, the full partition 's item enumeration reads k entries
per item (X**k * k total), so counter ratio = ops ratio * k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logits import MAX_TABLE_ENTRIES, CascadedLogitModel, LookupCounter, table_entry_count
from .losses import full_log_partition, ntp_loss
from .vocab import CodebookSpec, identity_token_map


@dataclass(frozen=True)
class SoftmaxOpCount:
    ntp_ops: int
    full_ops: int
    ratio: float


def count_softmax_ops(spec: CodebookSpec) -> SoftmaxOpCount:
    """Closed-form exp-unit counts per loss evaluation and their ratio."""
    ntp = spec.k * spec.X
    full = spec.X**spec.k
    return SoftmaxOpCount(ntp_ops=ntp, full_ops=full, ratio=full / ntp)


@dataclass
class OpsRow:
    k: int
    X: int
    C: int
    ntp_ops: int
    full_ops: int
    ratio: float
    ntp_entries_counted: int | None
    fv_entries_counted: int | None
    ntp_entries_closed: int
    fv_entries_closed: int


def measure_lookup_counts(spec: CodebookSpec, C: int = 1) -> tuple[int, int]:
    """Entries actually touched by one ntp_loss and one full_log_partition call."""
    model = CascadedLogitModel.zeros(spec, C)
    tmap = identity_token_map(spec)
    counter = LookupCounter()
    model.counter = counter
    ntp_loss(model, 0, tmap, 0)
    ntp_entries = counter.entries
    counter.reset()
    full_log_partition(model, 0, tmap)
    fv_entries = counter.entries
    model.counter = None
    return ntp_entries, fv_entries


def ops_sweep(k_values: list[int], X_values: list[int], C: int = 1) -> list[OpsRow]:
    """Closed forms for every (k, X); instrumented counts where the table fits
    under ``MAX_TABLE_ENTRIES``."""
    rows = []
    for k in k_values:
        for X in X_values:
            spec = CodebookSpec(k=k, X=X)
            ops = count_softmax_ops(spec)
            counted: tuple[int, int] | None = None
            if table_entry_count(spec, C, "cascaded") <= MAX_TABLE_ENTRIES:
                counted = measure_lookup_counts(spec, C)
            rows.append(
                OpsRow(
                    k=k,
                    X=X,
                    C=C,
                    ntp_ops=ops.ntp_ops,
                    full_ops=ops.full_ops,
                    ratio=ops.ratio,
                    ntp_entries_counted=None if counted is None else counted[0],
                    fv_entries_counted=None if counted is None else counted[1],
                    ntp_entries_closed=spec.k * spec.X,
                    fv_entries_closed=spec.sequence_space_size * spec.k,
                )
            )
    return rows

