"""Synthetic worlds, datasets, per-sample SGD on the next-token loss, and KL eval.

The world is a table of target distributions p*(. | h) over N items for C
discrete contexts.  Training is deliberately plain: per-sample SGD with the
teacher-forcing gradient, data reshuffled every epoch from one seed, no
momentum or decay, so whatever the model converges to is attributable to the
loss alone.

Two evaluation views, each one (C, n_items) table, are provided.  ``eval_kl``
scores the flat softmax over summed item logits (the full-partition view the
equivalence checker also uses).  ``eval_kl_chain`` scores the chained softmax,
which is what next-token training fits; for parallel models the two coincide,
for cascaded models they generally do not (see the losses module docstring).

The per-sample SGD epoch runs in a C kernel, ``_sgd.c``, when one can be
used.  ``_sgd_kernel`` builds it through ``_native`` on the first
``train_sgd`` call of a process (never at import), and accepts it only if two
epochs on two threads match the Python loop by bytes.  That Python loop is
the reference: the kernel matches it value for value and so gives the same
bits, and it takes over whenever the kernel cannot be built, loaded or
trusted.  The kernel skips ``exp`` only where a shifted logit is exactly 0.0,
where ``exp`` returns exactly 1.0: at the row maximum's own entry, when that
maximum is finite.

Every context owns its own table rows, so an epoch splits into independent
per-context streams.  The kernel trains one contiguous block of contexts per
CPU the process may use, at most C blocks, each on its own copy of its
block's rows, all walking the one shuffled order: the calling thread trains
the first block and one new thread each other block.  Each context's
samples keep their visiting order and no two threads touch one row, so the
tables and records have the same bits for any number of blocks.  An epoch
is one blocking call, and every thread it started has ended when it returns
or raises.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from math import exp
from pathlib import Path

import numpy as np

from .logits import FORMS, LogitModel, _check_map, item_logits
from .losses import log_sum_exp_rows
from .vocab import CodebookSpec, TokenMap, identity_token_map


class DivergenceError(RuntimeError):
    """The mean epoch loss stopped being finite; lr is too hot for the data."""


@dataclass
class SyntheticWorld:
    """Target conditionals: p_star[h, i] = p*(item i | context h)."""

    C: int
    N: int
    p_star: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.p_star, dtype=np.float64)
        if arr.shape != (self.C, self.N):
            raise ValueError(f"p_star shape {arr.shape} does not match ({self.C}, {self.N})")
        if np.any(arr < 0):
            raise ValueError("p_star entries must be non-negative")
        if not np.allclose(arr.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("p_star rows must sum to 1 within 1e-12")
        self.p_star = arr


def synth_world(C: int, N: int, alpha: float, seed: int, uniform: bool = False) -> SyntheticWorld:
    """Rows drawn from a symmetric Dirichlet(alpha) via normalized Gamma draws.

    ``uniform=True`` is the explicit alpha -> infinity limit: every row is
    exactly 1/N without touching the generator.
    """
    if C < 1 or N < 2:
        raise ValueError(f"need C >= 1 and N >= 2, got C={C}, N={N}")
    if uniform:
        p = np.full((C, N), 1.0 / N)
    else:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        rng = np.random.default_rng(seed)
        g = rng.gamma(alpha, 1.0, size=(C, N))
        with np.errstate(over="ignore", invalid="ignore"):  # SyntheticWorld rejects the inf/NaN rows
            sums = g.sum(axis=1, keepdims=True)
            if np.any(sums == 0.0):
                raise ValueError("degenerate Dirichlet draw: a row of Gamma draws summed to zero")
            p = g / sums
    return SyntheticWorld(C=C, N=N, p_star=p, seed=seed)


@dataclass
class Dataset:
    """Observed (context, positive item) pairs in draw order."""

    contexts: np.ndarray
    items: np.ndarray

    def __post_init__(self):
        self.contexts = np.asarray(self.contexts, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        if self.contexts.shape != self.items.shape or self.contexts.ndim != 1:
            raise ValueError("contexts and items must be matching 1-D arrays")

    def __len__(self) -> int:
        return int(self.contexts.shape[0])


def sample_dataset(world: SyntheticWorld, n_samples: int, seed: int) -> Dataset:
    """Contexts uniform over C, items by inverse CDF from p*(. | h)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    contexts = rng.integers(0, world.C, size=n_samples)
    u = rng.random(n_samples)
    items = np.empty(n_samples, dtype=np.int64)
    cdf = np.cumsum(world.p_star, axis=1)
    for h in range(world.C):
        mask = contexts == h
        items[mask] = np.searchsorted(cdf[h], u[mask], side="right")
    np.clip(items, 0, world.N - 1, out=items)
    return Dataset(contexts=contexts, items=items)


@dataclass
class EpochRecord:
    epoch: int
    mean_ntp_loss: float
    mean_fv_mle_loss: float
    kl: float


def _flat_log_q(model: LogitModel, tmap: TokenMap) -> np.ndarray:
    """Flat-softmax log probability of every item in every context."""
    scores = item_logits(model, tmap, slice(None))
    return scores - log_sum_exp_rows(scores)[:, None]


def _chain_log_q(model: LogitModel, tmap: TokenMap) -> np.ndarray:
    """Chained-softmax log probability of every item in every context: from 0.0,
    per position, the visited token's logit minus its node's log-partition."""
    out = np.zeros((model.C, tmap.n_items))
    for m in range(model.spec.k):
        log_p = model.rows(m) - log_sum_exp_rows(model.rows(m))[..., None]
        out += log_p[:, model.node_index(tmap.prefix_indices[m]), tmap.token_matrix[:, m]]
    return out


def _check_world(model: LogitModel, tmap: TokenMap, world: SyntheticWorld | None) -> None:
    _check_map(model, tmap)
    if world is not None and world.p_star.shape != (model.C, tmap.n_items):
        raise ValueError(
            f"world p_star shape {world.p_star.shape} does not match "
            f"({model.C}, {tmap.n_items})"
        )


def _forward_kl(world: SyntheticWorld, log_q: np.ndarray) -> float:
    total = 0.0
    for h in range(world.C):
        p = world.p_star[h]
        mask = p > 0.0
        total += float((p[mask] * (np.log(p[mask]) - log_q[h][mask])).sum())
    return total / world.C


def eval_kl(model: LogitModel, tmap: TokenMap, world: SyntheticWorld) -> float:
    """Mean over contexts of KL(p* || flat softmax of summed item logits).

    Zero target mass contributes zero (0 * log 0 := 0).
    """
    _check_world(model, tmap, world)
    return _forward_kl(world, _flat_log_q(model, tmap))


def eval_kl_chain(model: LogitModel, tmap: TokenMap, world: SyntheticWorld) -> float:
    """Mean over contexts of KL(p* || chained softmax probabilities).

    The chained view is the distribution next-token training optimizes; it
    equals the flat view exactly when per-node partition values do not depend
    on the prefix.
    """
    _check_world(model, tmap, world)
    return _forward_kl(world, _chain_log_q(model, tmap))


def _epoch_metrics(
    model: LogitModel, tmap: TokenMap, counts: np.ndarray, n: int,
    world: SyntheticWorld | None,
) -> tuple[float, float, float]:
    """Dataset-mean losses at the current parameters, plus eval KL.

    Means are exact: per-(h, i) losses are computed once, weighted by the
    dataset's (h, i) counts and added context by context from 0.0.  The flat
    log probabilities serve both the flat loss and the KL.
    """
    mean_ntp = 0.0
    mean_fv = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is train_sgd's to reject
        ntp = -_chain_log_q(model, tmap)
        log_q_flat = _flat_log_q(model, tmap)
        for h in range(model.C):
            mean_ntp += float((counts[h] * ntp[h]).sum())
            mean_fv += float((counts[h] * -log_q_flat[h]).sum())
        kl = _forward_kl(world, log_q_flat) if world is not None else float("nan")
    return mean_ntp / n, mean_fv / n, kl


def _python_epoch(model: LogitModel, tmap: TokenMap, data: Dataset, lr: float):
    """One SGD epoch on plain Python floats, as ``run(order)`` like ``_epoch``.

    The oracle the compiled kernel must match bit for bit, and its fallback.
    ``run(order)`` runs the epoch serially and writes the tables back to the
    model.  Each visited row is shifted by its first maximum, exponentiated
    with ``math.exp``, summed left to right from 0.0, scaled by lr / sum,
    and the visited token gains lr.
    """
    positions = list(range(model.spec.k))
    rows = [model.rows(m) for m in positions]
    tables_py = [r.tolist() for r in rows]
    node_py = [
        np.broadcast_to(model.node_index(tmap.prefix_indices[m]), tmap.n_items).tolist()
        for m in positions
    ]
    tok_py = [tmap.token_matrix[:, m].tolist() for m in positions]
    ctx_list = data.contexts.tolist()
    item_list = data.items.tolist()
    token_range = list(range(model.spec.X))

    def run(order: np.ndarray) -> None:
        for s in order.tolist():
            h = ctx_list[s]
            i = item_list[s]
            for m in positions:
                row = tables_py[m][h][node_py[m][i]]
                mx = max(row)
                es = [exp(v - mx) for v in row]
                # explicit loop: sum() of floats is compensated from Python 3.12
                total = 0.0
                for e in es:
                    total += e
                scale = lr / total
                for j in token_range:
                    row[j] -= es[j] * scale
                row[tok_py[m][i]] += lr
        for m in positions:
            rows[m][...] = np.asarray(tables_py[m])

    return run


_SGD_SOURCE = Path(__file__).with_name("_sgd.c")
# sgd_epoch(tabs, off, tok, order, n, k, X, lr, es, lo, hi)
_SGD_SIGNATURES = {"sgd_epoch": (None, [
    ctypes.POINTER(ctypes.c_void_p), *[ctypes.c_void_p] * 3, *[ctypes.c_int64] * 3,
    ctypes.c_double, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
])}
_LINE = 8  # float64 entries in a 64-byte cache line


def _workers(C: int) -> int:
    """Blocks an epoch of C contexts splits into: one per CPU this process
    may use, and at most one per context.  The calling thread trains one
    block, so an epoch starts one thread fewer."""
    return min(len(os.sched_getaffinity(0)), C)


def _padded(n: int) -> np.ndarray:
    """n float64 entries that start a 64-byte cache line and have a spare line
    after them, so they share no cache line with any other array."""
    buf = np.empty(n + 2 * _LINE)
    head = -(buf.ctypes.data // 8) % _LINE
    return buf[head : head + n]


def _epoch(kernel, model: LogitModel, tmap: TokenMap, data: Dataset, lr: float, n_workers: int):
    """The Python loop's epoch through the kernel in ``n_workers`` blocks, as
    ``run(order)``.

    ``run(order)`` runs the epoch that visits the samples in ``order``: the
    calling thread trains block 0 and one ``sidlab-sgd`` thread each other
    block, so a single block starts no thread.  It joins every thread it
    started, then raises the caller's error, else the first a thread met,
    and else writes the trained rows to ``model.tables``.

    Every offset and token a sample visits depends only on its (context,
    item) pair, so the index tables hold one row per distinct pair in the
    data, at most min(len(data), C * n_items) rows, sorted by context, and
    each epoch hands the kernel the pair row of each sample in visiting
    order.  The C contexts are split into ``n_workers`` contiguous blocks, so
    a block's pair rows are one range [lo, hi).  Each block trains on its
    own copy of its rows of every table and its own ``exp`` scratch, in one
    buffer that shares no cache line with another block's; the copies carry
    the rows from epoch to epoch.  Pair row p visits, at position m, the
    row at offset ``off[p, m] = ((h - c0) * nodes + node) * X`` of that
    copy, c0 being its block's first context, so both forms share one offset
    scheme.  Every block walks the one shared order and skips the samples of
    other blocks, so each context's samples keep their visiting order, and
    no two threads touch one row: the bits are the Python loop's for any
    ``n_workers``.
    """
    C, k, X = model.C, model.spec.k, model.spec.X
    pairs, visit = np.unique(data.contexts * tmap.n_items + data.items, return_inverse=True)
    h, item = np.divmod(pairs, tmap.n_items)
    # block b holds contexts [bounds[b], bounds[b + 1]) and pair rows [ranges[b], ranges[b + 1])
    bounds = np.arange(n_workers + 1) * C // n_workers
    ranges = np.searchsorted(h, bounds)
    first = bounds[np.searchsorted(bounds, h, side="right") - 1]  # each pair row's block's c0
    nodes = [model.rows(m).shape[1] for m in range(k)]
    off = np.empty((len(pairs), k), dtype=np.int64)
    tok = np.empty_like(off)
    for m in range(k):
        node = np.broadcast_to(model.node_index(tmap.prefix_indices[m]), tmap.n_items)
        off[:, m] = ((h - first) * nodes[m] + node[item]) * X
        tok[:, m] = tmap.token_matrix[item, m]
    path = np.empty(len(data), dtype=np.int64)

    blocks, jobs = [], []
    for b in range(n_workers):
        c0, c1 = int(bounds[b]), int(bounds[b + 1])
        cuts = np.cumsum([0] + [(c1 - c0) * nodes[m] * X for m in range(k)])
        buf = _padded(int(cuts[-1]) + X)
        rows = [buf[cuts[m] : cuts[m + 1]].reshape(c1 - c0, nodes[m], X) for m in range(k)]
        for m in range(k):
            rows[m][...] = model.rows(m)[c0:c1]
        blocks.append((c0, c1, rows))
        tabs = (ctypes.c_void_p * k)(*(r.ctypes.data for r in rows))
        # each array goes in as its .ctypes, which keeps the array alive
        jobs.append((tabs, off.ctypes, tok.ctypes, path.ctypes, len(path), k, X, float(lr),
                     buf[cuts[-1] :].ctypes, int(ranges[b]), int(ranges[b + 1])))

    def run(order: np.ndarray) -> None:
        np.take(visit, order, out=path)
        errors, threads = [], []

        def work(job) -> None:
            try:
                kernel(*job)
            except BaseException as exc:  # re-raised below, in the caller's thread
                errors.append(exc)

        try:
            for job in jobs[1:]:
                thread = threading.Thread(target=work, args=(job,), name="sidlab-sgd")
                thread.start()
                threads.append(thread)
            kernel(*jobs[0])
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        for c0, c1, rows in blocks:
            for m in range(k):
                model.rows(m)[c0:c1] = rows[m]

    return run


def _matches_python(kernel) -> bool:
    """Two epochs on a small fixed case, both forms, kernel vs Python loop, by bytes.

    The kernel runs as ``train_sgd`` runs it, through ``_epoch``, with one
    block per context (two: the caller's and one thread's) whatever the
    host's CPU count, so no host trains with a split this check has not
    seen.  One visited row's only maximum is +inf.  The Python loop turns
    that row to NaN (its shifted maximum is inf - inf), so a kernel that
    skips the maximum's ``exp`` without checking that the maximum is finite
    fails.  An error in a kernel call, on either thread, is raised here.
    """
    spec = CodebookSpec(k=2, X=3)
    tmap = identity_token_map(spec)
    rng = np.random.default_rng(0)
    data = Dataset(contexts=rng.integers(0, 2, 50), items=rng.integers(0, tmap.n_items, 50))
    orders = [rng.permutation(len(data)) for _ in range(2)]
    for cls in FORMS.values():
        base = cls.random(spec, 2, 1.0, seed=1)
        base.rows(1)[1, 0] = (np.inf, 3.1, 4.3)
        py, kern = base.copy(), base.copy()
        for run in (_python_epoch(py, tmap, data, 0.3), _epoch(kernel, kern, tmap, data, 0.3, 2)):
            for order in orders:
                run(order)
        if [t.tobytes() for t in py.tables] != [t.tobytes() for t in kern.tables]:
            return False
    return True


@functools.cache
def _sgd_kernel():
    """The compiled ``sgd_epoch`` of ``_sgd.c``, or None to run the Python loop.

    Built by ``_native.load`` on the first ``train_sgd`` of the process,
    never at import, and checked against the Python loop by
    ``_matches_python``.
    """
    from . import _native  # the package's C builder, which imports subprocess

    lib = _native.load(_SGD_SOURCE, _SGD_SIGNATURES, lambda lib: _matches_python(lib.sgd_epoch),
                       ("SGD", "the Python loop", "training runs the Python loop"))
    return None if lib is None else lib.sgd_epoch


def train_sgd(
    model: LogitModel,
    tmap: TokenMap,
    data: Dataset,
    lr: float,
    epochs: int,
    seed: int,
    world: SyntheticWorld | None = None,
) -> tuple[LogitModel, list[EpochRecord]]:
    """Per-sample SGD on the next-token loss; returns (trained copy, records).

    Each step updates only the k visited nodes with lr * (softmax - onehot).
    One record per epoch holds the exact dataset-mean next-token and
    full-vocabulary losses at end-of-epoch parameters, and eval_kl when a
    world is supplied.  The input model is not modified; lr = 0 is allowed
    and leaves the copy bit-identical.  Epochs run in the compiled kernel
    when it loads, the calling thread training one block of contexts, else
    in the Python loop; both give the same bits.  A divergence at epoch e is
    raised before epoch e + 1 runs.

    Raises:
        ValueError: bad hyperparameters, or a map, dataset or world that
            does not fit the model.
        DivergenceError: a mean epoch loss went non-finite.
    """
    if not lr >= 0:  # NaN too
        raise ValueError(f"lr must be >= 0, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if tmap.mode != "strict":
        raise ValueError("training needs a strict token map")
    _check_world(model, tmap, world)
    if not (0 <= data.contexts.min() and data.contexts.max() < model.C):
        raise ValueError(f"dataset contexts must lie in [0, {model.C})")
    if not (0 <= data.items.min() and data.items.max() < tmap.n_items):
        raise ValueError(f"dataset items must lie in [0, {tmap.n_items})")

    model = model.copy()
    n = len(data)
    rng = np.random.default_rng(seed)
    kernel = _sgd_kernel()
    if kernel is not None:
        run = _epoch(kernel, model, tmap, data, lr, _workers(model.C))
    else:
        run = _python_epoch(model, tmap, data, lr)

    counts = np.zeros((model.C, tmap.n_items))
    np.add.at(counts, (data.contexts, data.items), 1.0)

    records = []
    for epoch in range(1, epochs + 1):
        run(rng.permutation(n))
        mean_ntp, mean_fv, kl = _epoch_metrics(model, tmap, counts, n, world)
        if not np.isfinite(mean_ntp):
            raise DivergenceError(f"mean epoch loss became non-finite at epoch {epoch}")
        records.append(EpochRecord(epoch=epoch, mean_ntp_loss=mean_ntp, mean_fv_mle_loss=mean_fv, kl=kl))
    return model, records
