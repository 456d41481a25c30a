"""Sequence losses, partition functions, gradients, and the equivalence check.

Background
----------
Fix a context h and a token map Phi assigning each item a length-k token
sequence.  With per-position conditional logits l(t_m | h, prefix), two
training losses for a positive item i+ with Phi(i+) = (t_1 .. t_k) are:

* Next-token loss (teacher forcing):
      L_ntp = -sum_m [ l(t_m | h, t_1..t_m-1) - log Z_m(h, t_1..t_m-1) ]
  where Z_m is the partition function of the softmax at the visited node.
  This is the negative log of the chained softmax probability of i+, and the
  chained probabilities sum to one over the sequence space by construction.

* Full-vocabulary loss (flat softmax over item logits):
      L_fv = -[ l(h, i+) - log Z_full ],   l(h, i) = sum_m l(t_m | h, ...)
  with Z_full summing exp(item logit) over every item in the map.

Three routes to a sequence-space partition value are implemented so the
identity between them is checked across genuinely different computations:

* ``full_log_partition``: enumerate items through the map (Z_full above).
* ``sequence_log_partition``: enumerate all X**k token sequences directly,
  scoring each by its summed conditional logits.
* ``sequence_log_partition_levelwise``: expand the sequence sum one position
  at a time, sharing prefix partial sums (same value, different float
  grouping); for parallel models ``sequence_log_partition_factored`` adds the
  closed form sum_m log Z_m(h).

Under a strict bijection the sequence-enumeration routes equal Z_full
exactly: both sum exp(summed logits) over the same set.  The loss identity
L_ntp == L_fv is a different matter: it additionally needs the product of
the *visited-node* partition functions to equal Z_full, which holds whenever
Z_m does not depend on the prefix (parallel models, k = 1, or degenerate
tables such as all zeros) and fails for generic cascaded tables, where the
chained softmax and the flat softmax define different distributions over the
same items.  ``check_equivalence`` reports both gaps so either regime is
measured rather than assumed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .logits import FormError, LogitModel, item_logit, item_logits_all
from .vocab import TokenMap


class EmptyInputError(ValueError):
    """log_sum_exp of an empty collection is undefined."""


def log_sum_exp(values) -> float:
    """Numerically stable log(sum(exp(values))) for a non-empty finite array."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInputError("log_sum_exp needs at least one value")
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


def softmax(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


def token_partition(model: LogitModel, h: int, prefix) -> float:
    """log Z_m at node (h, prefix): log sum over exp of the node's X logits."""
    return log_sum_exp(model.node_logits(h, tuple(prefix)))


def ntp_loss(model: LogitModel, h: int, tmap: TokenMap, i_plus: int) -> float:
    """Teacher-forcing next-token loss of item ``i_plus`` under context ``h``.

    Prefixes are always the ground-truth prefixes from the map, never decoded
    tokens.  Touches exactly k * X table entries.
    """
    seq = tmap.forward(i_plus)
    total = 0.0
    for m in range(model.spec.k):
        node = model.node_logits(h, seq[:m])
        total -= float(node[seq[m]]) - log_sum_exp(node)
    return total


def full_log_partition(model: LogitModel, h: int, tmap: TokenMap) -> float:
    """log Z_full by explicit enumeration of every item carried by the map.

    Probe maps are enumerated as-is: colliding items contribute one term
    each, so a duplicated sequence is counted once per owning item.
    """
    return log_sum_exp(item_logits_all(model, h, tmap))


def fv_mle_loss(model: LogitModel, h: int, tmap: TokenMap, i_plus: int) -> float:
    """Flat-softmax negative log likelihood of ``i_plus`` over the item catalogue."""
    return -(item_logit(model, h, tmap, i_plus) - full_log_partition(model, h, tmap))


def sequence_log_partition(model: LogitModel, h: int) -> float:
    """log of the sum over all X**k sequences of exp(summed conditional logits).

    Flat enumeration in lexicographic order, one sequence at a time; needs no
    token map.
    """
    spec = model.spec
    rows = [model.rows(m)[h] for m in range(spec.k)]
    # span[m] consecutive sequences share position m's node row, so sequence
    # idx reads row idx // span[m] (its prefix index, or 0 for a shared row)
    span = [spec.sequence_space_size // r.shape[0] for r in rows]
    scores = np.empty(spec.sequence_space_size)
    for idx, seq in enumerate(spec.iter_sequences()):
        total = 0.0
        for m in range(spec.k):
            total += float(rows[m][idx // span[m], seq[m]])
        scores[idx] = total
    return log_sum_exp(scores)


def sequence_log_partition_levelwise(model: LogitModel, h: int) -> float:
    """Same sum as :func:`sequence_log_partition`, expanded level by level.

    Maintains the accumulated score of every prefix and extends all prefixes
    by one position per step, so partial sums are shared across sequences.
    Agreement with the flat route is a check that the expansion order does
    not matter beyond float rounding.
    """
    scores = np.zeros(1)
    for m in range(model.spec.k):
        # (nodes, X) rows in base-X prefix order; one shared row broadcasts
        scores = (scores[:, None] + model.rows(m)[h]).ravel()
    return log_sum_exp(scores)


def sequence_log_partition_factored(model: LogitModel, h: int) -> float:
    """Parallel-only closed form: sum over positions of log Z_m(h).

    Valid because a parallel model's Z_m does not depend on the prefix, so
    the sequence sum factorizes exactly into a product of per-position
    partition functions.
    """
    if model.form != "parallel":
        raise FormError("factored partition route needs a parallel model")
    return sum(log_sum_exp(model.tables[m][h]) for m in range(model.spec.k))


def ntp_grad(model: LogitModel, h: int, tmap: TokenMap, i_plus: int) -> list[np.ndarray]:
    """Gradient of :func:`ntp_loss` w.r.t. every table entry.

    Nonzero only at the k visited (h, prefix) nodes, where it is
    softmax(node logits) minus the one-hot of the visited token.
    """
    seq = tmap.forward(i_plus)
    grads = model.zero_like_tables()
    for m in range(model.spec.k):
        p = softmax(model.node_logits(h, seq[:m]))
        row = model.rows(m, grads)[h, model.node_index(model.spec.prefix_index(seq[:m]))]
        row += p
        row[seq[m]] -= 1.0
    return grads


def fv_mle_grad(model: LogitModel, h: int, tmap: TokenMap, i_plus: int) -> list[np.ndarray]:
    """Gradient of :func:`fv_mle_loss` w.r.t. every table entry.

    Each item contributes its flat-softmax probability along its own path,
    so entries at nodes the positive item never visits are generally nonzero
    too (through Z_full).
    """
    spec = model.spec
    mat = tmap.token_matrix
    prefixes = tmap.prefix_indices
    p = softmax(item_logits_all(model, h, tmap))
    grads = model.zero_like_tables()
    seq = tmap.forward(i_plus)
    for m in range(spec.k):
        rows = model.rows(m, grads)[h]
        np.add.at(rows, (model.node_index(prefixes[m]), mat[:, m]), p)
        rows[model.node_index(spec.prefix_index(seq[:m])), seq[m]] -= 1.0
    return grads


@dataclass
class EquivalenceReport:
    """Measured agreement between the chained and flat formulations.

    ``z_product`` is the sequence-enumeration partition value (the expanded
    product of per-position sums); ``z_full`` the item-enumeration value.
    ``max_grad_gap`` is the largest absolute difference between the two
    analytic gradients over the k visited-node rows.
    """

    context: int
    item: int
    z_product: float
    z_full: float
    loss_ntp: float
    loss_fv_mle: float
    abs_partition_gap: float
    abs_loss_gap: float
    max_grad_gap: float

    CSV_FIELDS = (
        "context",
        "item",
        "z_product",
        "z_full",
        "loss_ntp",
        "loss_fv_mle",
        "abs_partition_gap",
        "abs_loss_gap",
        "max_grad_gap",
    )

    def csv_row(self) -> list:
        return [getattr(self, name) for name in self.CSV_FIELDS]


def check_equivalence(model: LogitModel, h: int, tmap: TokenMap, i_plus: int) -> EquivalenceReport:
    """Compare both losses, both partition routes, and both gradients.

    Accepts strict or probe maps; on probe maps the partition gap quantifies
    the effect of collisions and missing coverage instead of vanishing.
    """
    log_zprod = sequence_log_partition(model, h)
    log_zfull = full_log_partition(model, h, tmap)
    loss_n = ntp_loss(model, h, tmap, i_plus)
    loss_f = fv_mle_loss(model, h, tmap, i_plus)

    g_ntp = ntp_grad(model, h, tmap, i_plus)
    g_fv = fv_mle_grad(model, h, tmap, i_plus)
    seq = tmap.forward(i_plus)
    grad_gap = 0.0
    for m in range(model.spec.k):
        node = model.node_index(model.spec.prefix_index(seq[:m]))
        delta = np.abs(model.rows(m, g_ntp)[h, node] - model.rows(m, g_fv)[h, node]).max()
        grad_gap = max(grad_gap, float(delta))

    return EquivalenceReport(
        context=h,
        item=i_plus,
        z_product=float(np.exp(log_zprod)),
        z_full=float(np.exp(log_zfull)),
        loss_ntp=loss_n,
        loss_fv_mle=loss_f,
        abs_partition_gap=abs(log_zprod - log_zfull),
        abs_loss_gap=abs(loss_n - loss_f),
        max_grad_gap=grad_gap,
    )


def write_reports_csv(reports: list[EquivalenceReport], path) -> None:
    """One CSV row per report, fixed column order, header always written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EquivalenceReport.CSV_FIELDS)
        for rep in reports:
            writer.writerow(rep.csv_row())


def summarize_reports(reports: list[EquivalenceReport]) -> dict:
    """Aggregate maxima across a batch of reports (zeros for an empty batch)."""
    return {
        "n_reports": len(reports),
        "max_abs_partition_gap": max((r.abs_partition_gap for r in reports), default=0.0),
        "max_abs_loss_gap": max((r.abs_loss_gap for r in reports), default=0.0),
        "max_grad_gap": max((r.max_grad_gap for r in reports), default=0.0),
    }
