"""Per-item reference routines the tests check the package against.

The package computes item logits, gradients and equivalence reports for
every item of a context at once.  These are the one-item forms of the same
computations, written over the public row reads (``node_logits`` and
``rows``), with the float operations in the order the whole-array routines
must reproduce bit for bit.  The two embedding writers at the end make the
input files ``tokenize`` reads.
"""

import csv
import struct

import numpy as np

from sidlab import (
    CascadedLogitModel,
    EquivalenceReport,
    FormError,
    full_log_partition,
    fv_mle_loss,
    item_logits,
    ntp_loss,
    sequence_log_partition,
    softmax,
)


def item_logit(model, h, tmap, item):
    """Item logit: the sum of token logits along the item's sequence path,
    added left to right from 0.0 like :func:`item_logits`."""
    seq = tmap.forward(item)
    total = 0.0
    for m in range(len(seq)):
        total += float(model.node_logits(h, seq[:m])[seq[m]])
    return total


def _zeros_like(model):
    """A zero model of the same form and shape, whose tables hold a gradient."""
    return type(model).zeros(model.spec, model.C)


def ntp_grad(model, h, tmap, i_plus):
    """Gradient of :func:`ntp_loss` w.r.t. every table entry.

    Nonzero only at the k visited (h, prefix) nodes, where it is
    softmax(node logits) minus the one-hot of the visited token.
    """
    seq = tmap.forward(i_plus)
    grads = _zeros_like(model)
    for m in range(model.spec.k):
        p = softmax(model.node_logits(h, seq[:m]))
        row = grads.rows(m)[h, model.node_index(model.spec.prefix_index(seq[:m]))]
        row += p
        row[seq[m]] -= 1.0
    return grads.tables


def fv_mle_grad(model, h, tmap, i_plus):
    """Gradient of :func:`fv_mle_loss` w.r.t. every table entry.

    Each item contributes its flat-softmax probability along its own path,
    so entries at nodes the positive item never visits are generally nonzero
    too (through Z_full).
    """
    spec = model.spec
    mat = tmap.token_matrix
    prefixes = tmap.prefix_indices
    p = softmax(item_logits(model, tmap, slice(h, h + 1))[0])
    grads = _zeros_like(model)
    seq = tmap.forward(i_plus)
    for m in range(spec.k):
        rows = grads.rows(m)[h]
        np.add.at(rows, (model.node_index(prefixes[m]), mat[:, m]), p)
        rows[model.node_index(spec.prefix_index(seq[:m])), seq[m]] -= 1.0
    return grads.tables


def embed_parallel_as_cascaded(model):
    """Copy a parallel model into cascaded tables (every prefix row identical)."""
    if model.form != "parallel":
        raise FormError("embed_parallel_as_cascaded needs a parallel model")
    spec = model.spec
    tables = [np.repeat(model.rows(m), spec.X**m, axis=1) for m in range(spec.k)]
    return CascadedLogitModel(spec, model.C, tables)


def composed_report(model, h, tmap, i_plus):
    """One item's report composed from the public routines and the gradients
    above, each of which redoes the context-level work: the reference for
    ``check_contexts``."""
    log_zprod = sequence_log_partition(model, h)
    log_zfull = full_log_partition(model, h, tmap)
    loss_n = ntp_loss(model, h, tmap, i_plus)
    loss_f = fv_mle_loss(model, h, tmap, i_plus)
    g_ntp = type(model)(model.spec, model.C, ntp_grad(model, h, tmap, i_plus))
    g_fv = type(model)(model.spec, model.C, fv_mle_grad(model, h, tmap, i_plus))
    seq = tmap.forward(i_plus)
    grad_gap = 0.0
    for m in range(model.spec.k):
        node = model.node_index(model.spec.prefix_index(seq[:m]))
        delta = np.abs(g_ntp.rows(m)[h, node] - g_fv.rows(m)[h, node]).max()
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


def save_embeddings_csv(emb, path):
    """A ``dim0,dim1,...`` header, then each row's floats by ``repr``, so they read back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"dim{j}" for j in range(emb.dim)])
        for row in emb.values:
            writer.writerow([repr(v) for v in row.tolist()])


def save_embeddings_bin(emb, path):
    """Raw little-endian float64 rows behind a 16-byte header (magic, n, dim)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sII", b"SIDEMB64", emb.n_items, emb.dim))
        fh.write(np.ascontiguousarray(emb.values, dtype="<f8").tobytes())
