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

Three routes to a sequence-space partition value are implemented.

* ``full_log_partition``: enumerate items through the map (Z_full above).
* ``sequence_log_partition``: score all X**k sequences with no map.  Over
  an identity map it makes the same float additions as the item route, so
  the two agree bit for bit.
* ``sequence_log_partition_levelwise``: the product-form recursion
  log Z(node) = LSE_t(l(node, t) + log Z(child)).  Distributivity makes it
  the same sum; its float operations differ, so it agrees to rounding only.
  For parallel models ``sequence_log_partition_factored`` adds the closed
  form sum_m log Z_m(h).

Under a strict bijection every route computes Z_full, summing exp(summed
logits) over the same set.  The loss identity L_ntp == L_fv is a different
matter: it additionally needs the product of the *visited-node* partition
functions to equal Z_full, which holds whenever Z_m does not depend on the
prefix (parallel models, k = 1, or degenerate tables such as all zeros) and
fails for generic cascaded tables, where the chained softmax and the flat
softmax define different distributions over the same items.
``check_contexts`` reports both gaps so either regime is measured rather
than assumed.

Most of a report is shared by every item of one context: log Z by the
sequence route, the item logits, log Z_full and the flat softmax.
``check_contexts`` computes those once per checked context, for a whole
batch of contexts of one model in each numpy pass, and then, per item, only
the k visited nodes' log Z, the item's logit and the k visited rows of both
analytic gradients.  Every step is row-wise, so it makes the float
operations of the per-item routines (the losses here, the gradients in
``tests/reference.py``) in their order, and its reports equal theirs bit for
bit however the contexts are batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logits import FormError, LogitModel, item_logits_all
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


def log_sum_exp_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`log_sum_exp` of each row of a 2-D array, shape (rows,)."""
    mx = rows.max(axis=-1)
    return mx + np.log(np.exp(rows - mx[:, None]).sum(axis=-1))


def softmax(values) -> np.ndarray:
    """Softmax along the last axis: of a vector, or of each row of a 2-D array."""
    arr = np.asarray(values, dtype=np.float64)
    shifted = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


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
    if not 0 <= i_plus < tmap.n_items:
        raise ValueError(f"item {i_plus} outside [0, {tmap.n_items})")
    logits = item_logits_all(model, h, tmap)
    return -(float(logits[i_plus]) - log_sum_exp(logits))


def sequence_log_partition(model: LogitModel, h: int) -> float:
    """log of the sum over all X**k sequences of exp(summed conditional logits).

    Scores every sequence as 0.0 plus its k logits in position order, in
    lexicographic order: the additions :func:`full_log_partition` makes over
    an identity map.  Needs no token map.
    """
    scores = np.zeros(1)
    for m in range(model.spec.k):
        # (nodes, X) rows in base-X prefix order; one shared row broadcasts
        scores = (scores[:, None] + model.rows(m)[h]).ravel()
    return log_sum_exp(scores)


def sequence_log_partition_levelwise(model: LogitModel, h: int) -> float:
    """The same sum by the product-form recursion, from the last position up:
    log Z(node) = LSE_t(l(node, t) + log Z(child)), with log Z = 0 for a
    complete sequence.  Its float operations differ from the flat route's.
    """
    log_z = np.zeros(model.rows(model.spec.k - 1)[h].size)
    for m in reversed(range(model.spec.k)):
        rows = model.rows(m)[h]
        # child (node, t) is row node * X + t one level down; a shared row broadcasts
        log_z = log_sum_exp_rows(rows + log_z.reshape(rows.shape[0], -1))
    return float(log_z[0])


def sequence_log_partition_factored(model: LogitModel, h: int) -> float:
    """Parallel-only closed form: sum over positions of log Z_m(h).

    Valid because a parallel model's Z_m does not depend on the prefix, so
    the sequence sum factorizes exactly into a product of per-position
    partition functions.
    """
    if model.form != "parallel":
        raise FormError("factored partition route needs a parallel model")
    total = 0.0
    for m in range(model.spec.k):
        total += log_sum_exp(model.tables[m][h])
    return total


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


def check_contexts(model: LogitModel, tmap: TokenMap, items) -> list[EquivalenceReport]:
    """Compare both losses, both partition routes and both gradients for each
    context h of ``model`` against the items ``items[h]``, an array of shape
    (C, n_pick).  The reports come in context order, then item order.
    Accepts strict or probe maps; on probe maps the partition gap quantifies
    the effect of collisions and missing coverage instead of vanishing.

    Each context's shared work is done once, for all contexts in one pass:
    log Z by the sequence route, every item logit, log Z_full, the flat
    softmax p, and per position the flat mass of every (node, token), each
    item's p added in item order from 0.0.  Each item then reads only its k
    visited nodes: the node's log Z and softmax row for the chained loss and
    gradient, the mass row minus the one-hot for the flat gradient.  Every
    step works per context or per element, in the order of :func:`ntp_loss`,
    :func:`fv_mle_loss` and the per-item gradient routines of
    ``tests/reference.py``.  So each report equals that file's
    ``composed_report`` bit for bit, whatever the other contexts.  Adds
    k * n_items per context to the attached lookup counter, the count of
    :func:`item_logits_all`.
    """
    spec = model.spec
    items = np.asarray(items, dtype=np.int64)
    if items.ndim != 2 or items.shape[0] != model.C:
        raise ValueError(f"need items of shape ({model.C}, n), got {items.shape}")
    if items.size and not (0 <= items.min() and items.max() < tmap.n_items):
        raise ValueError(f"items must lie in [0, {tmap.n_items}), got {items.tolist()}")
    C, n_pick = items.shape
    mat = tmap.token_matrix
    prefixes = tmap.prefix_indices

    # sequence_log_partition per context: 0.0 plus the k logits, lexicographic order
    scores = np.zeros((C, 1))
    for m in range(spec.k):
        scores = (scores[:, :, None] + model.rows(m)).reshape(C, spec.X ** (m + 1))
    log_zprod = log_sum_exp_rows(scores)
    # item_logits_all per context; each item reads the flat (node, token) slot of its path
    slots = [model.node_index(prefixes[m]) * spec.X + mat[:, m] for m in range(spec.k)]
    logits = np.zeros((C, tmap.n_items))
    for m in range(spec.k):
        logits += np.take(model.rows(m).reshape(C, -1), slots[m], axis=1)
    if model.counter is not None:
        model.counter.entries += C * spec.k * tmap.n_items
    log_zfull = log_sum_exp_rows(logits)
    p = softmax(logits)

    h = np.arange(C)[:, None]
    pick = np.arange(C * n_pick)
    loss_ntp = np.zeros(C * n_pick)
    grad_gap = np.zeros(C * n_pick)
    for m in range(spec.k):
        node_size = model.rows(m)[0].size
        # one block of node_size bins per context, so each bin adds only its context's p
        bins = (slots[m] + h * node_size).ravel()
        mass = np.bincount(bins, weights=p.ravel(), minlength=C * node_size).reshape(C, -1, spec.X)
        nodes = np.broadcast_to(model.node_index(prefixes[m, items]), items.shape)
        tokens = mat[items, m].ravel()
        visited = model.rows(m)[h, nodes].reshape(-1, spec.X)
        loss_ntp -= visited[pick, tokens] - log_sum_exp_rows(visited)
        g_ntp = softmax(visited)
        g_ntp[pick, tokens] -= 1.0
        g_fv = mass[h, nodes].reshape(-1, spec.X)
        g_fv[pick, tokens] -= 1.0
        delta = np.abs(g_ntp - g_fv).max(axis=1)
        # builtin max(gap, delta) semantics: a NaN delta never replaces the gap
        grad_gap = np.where(delta > grad_gap, delta, grad_gap)
    loss_fv = -(np.take_along_axis(logits, items, axis=1) - log_zfull[:, None]).ravel()

    with np.errstate(over="ignore"):  # an infinite partition is write_csv's to reject
        z_product = np.exp(log_zprod)
        z_full = np.exp(log_zfull)
    per_item = np.repeat(np.arange(C), n_pick)
    return [
        EquivalenceReport(*fields)
        for fields in zip(
            per_item.tolist(),
            items.ravel().tolist(),
            z_product[per_item].tolist(),
            z_full[per_item].tolist(),
            loss_ntp.tolist(),
            loss_fv.tolist(),
            np.abs(log_zprod - log_zfull)[per_item].tolist(),
            np.abs(loss_ntp - loss_fv).tolist(),
            grad_gap.tolist(),
        )
    ]


def summarize_reports(reports: list[EquivalenceReport]) -> dict:
    """Aggregate maxima across a batch of reports (zeros for an empty batch)."""
    return {
        "n_reports": len(reports),
        "max_abs_partition_gap": max((r.abs_partition_gap for r in reports), default=0.0),
        "max_abs_loss_gap": max((r.abs_loss_gap for r in reports), default=0.0),
        "max_grad_gap": max((r.max_grad_gap for r in reports), default=0.0),
    }
