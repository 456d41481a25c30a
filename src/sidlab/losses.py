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
* ``sequence_log_partition``: score all X**k sequences with no map
  (``sequence_scores``).  Over an identity map it makes the same float
  additions as the item route, so the two agree bit for bit.
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

Each per-context quantity is built in one place, for the contexts a slice
selects: the item logits by ``logits.item_logits``, the sequence scores by
``sequence_scores``, and each log-sum-exp by ``log_sum_exp_rows``.  The
one-context routines pass a one-context slice; ``check_contexts`` passes
all contexts, then, per item, reads only the k visited nodes' log Z, the
item's logit and the k visited rows of both analytic gradients.  Every step
is row-wise, so it makes the float operations of the per-item routines (the
losses here, the gradients in ``tests/reference.py``) in their order, and
its reports equal theirs bit for bit however the contexts are batched.
"""

from __future__ import annotations

import numpy as np

from .logits import FormError, LogitModel, _check_context, item_logits
from .vocab import TokenMap


class EmptyInputError(ValueError):
    """log_sum_exp of an empty collection is undefined."""


def log_sum_exp(values) -> float:
    """Numerically stable log(sum(exp(values))) for a non-empty finite array."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInputError("log_sum_exp needs at least one value")
    return float(log_sum_exp_rows(arr))


def log_sum_exp_rows(rows: np.ndarray) -> np.ndarray:
    """log(sum(exp(.))) along the last axis of any shape, each row shifted by its maximum."""
    mx = rows.max(axis=-1, keepdims=True)
    return mx[..., 0] + np.log(np.exp(rows - mx).sum(axis=-1))


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
    return log_sum_exp(item_logits(model, tmap, _check_context(model.C, h)))


def fv_mle_loss(model: LogitModel, h: int, tmap: TokenMap, i_plus: int) -> float:
    """Flat-softmax negative log likelihood of ``i_plus`` over the item catalogue."""
    if not 0 <= i_plus < tmap.n_items:
        raise ValueError(f"item {i_plus} outside [0, {tmap.n_items})")
    logits = item_logits(model, tmap, _check_context(model.C, h))[0]
    return -(float(logits[i_plus]) - log_sum_exp(logits))


def sequence_scores(model: LogitModel, contexts: slice) -> np.ndarray:
    """Summed logits of all X**k sequences in lexicographic order, in the
    contexts the slice ``contexts`` selects, shape (contexts, X**k): 0.0 plus
    the k logits in position order, as ``item_logits`` adds an identity map."""
    scores = np.zeros((len(range(model.C)[contexts]), 1))
    for m in range(model.spec.k):
        # (contexts, nodes, X) rows in base-X prefix order; one shared row broadcasts
        scores = (scores[:, :, None] + model.rows(m)[contexts]).reshape(len(scores), -1)
    return scores


def sequence_log_partition(model: LogitModel, h: int) -> float:
    """log of the sum over all X**k sequences of exp(summed conditional logits)."""
    return log_sum_exp(sequence_scores(model, _check_context(model.C, h)))


def sequence_log_partition_levelwise(model: LogitModel, h: int) -> float:
    """The same sum by the product-form recursion, from the last position up:
    log Z(node) = LSE_t(l(node, t) + log Z(child)), with log Z = 0 for a
    complete sequence.  Its float operations differ from the flat route's.
    """
    _check_context(model.C, h)
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
    _check_context(model.C, h)
    total = 0.0
    for m in range(model.spec.k):
        total += log_sum_exp(model.tables[m][h])
    return total


# the columns of equivalence.csv, in order: check_contexts returns one array each.
# z_product is the sequence route's partition value, z_full the item route's;
# max_grad_gap is the largest absolute difference between the two analytic
# gradients over the item's k visited-node rows
REPORT_COLUMNS = ("context", "item", "z_product", "z_full", "loss_ntp", "loss_fv_mle",
                  "abs_partition_gap", "abs_loss_gap", "max_grad_gap")


def check_contexts(model: LogitModel, tmap: TokenMap, items) -> dict[str, np.ndarray]:
    """Compare both losses, both partition routes and both gradients for each
    context h of ``model`` against the items ``items[h]``, an array of shape
    (C, n_pick).  Returns one array per name in ``REPORT_COLUMNS``, with one
    row per item, in context order, then item order.
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
    ``tests/reference.py``.  So each row equals that file's
    ``composed_report`` bit for bit, whatever the other contexts.  Its one
    ``item_logits`` call counts k * n_items entries per context.
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

    log_zprod = log_sum_exp_rows(sequence_scores(model, slice(None)))
    logits = item_logits(model, tmap, slice(None))
    log_zfull = log_sum_exp_rows(logits)
    p = softmax(logits)

    h = np.arange(C)[:, None]
    pick = np.arange(C * n_pick)
    loss_ntp = np.zeros(C * n_pick)
    grad_gap = np.zeros(C * n_pick)
    for m in range(spec.k):
        node_size = model.rows(m)[0].size
        # each item's flat (node, token) slot, in one block of node_size bins per context
        bins = (model.node_index(prefixes[m]) * spec.X + mat[:, m] + h * node_size).ravel()
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
    return dict(zip(REPORT_COLUMNS, (
        per_item, items.ravel(), z_product[per_item], z_full[per_item], loss_ntp, loss_fv,
        np.abs(log_zprod - log_zfull)[per_item], np.abs(loss_ntp - loss_fv), grad_gap,
    )))


def summarize_reports(columns: dict[str, np.ndarray]) -> dict:
    """The row count and each gap column's maximum, taken from 0.0 (the gaps
    are absolute values), so 0.0 with no rows; a NaN anywhere is the maximum."""
    def top(name):
        return float(np.max(columns[name], initial=0.0))

    return {
        "n_reports": len(columns["item"]),
        "max_abs_partition_gap": top("abs_partition_gap"),
        "max_abs_loss_gap": top("abs_loss_gap"),
        "max_grad_gap": top("max_grad_gap"),
    }
