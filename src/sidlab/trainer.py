"""Synthetic worlds, datasets, per-sample SGD on the next-token loss, and KL eval.

The world is a table of target distributions p*(. | h) over N items for C
discrete contexts.  Training is deliberately plain: per-sample SGD with the
teacher-forcing gradient, data reshuffled every epoch from one seed, no
momentum or decay, so whatever the model converges to is attributable to the
loss alone.

Two evaluation views are provided.  ``eval_kl`` scores the flat softmax over
summed item logits (the full-partition view the equivalence checker also
uses).  ``eval_kl_chain`` scores the chained softmax distribution, which is
what next-token training actually fits; for parallel models the two coincide,
for cascaded models they generally do not (see the losses module docstring).

The per-sample SGD epoch runs in a C kernel, ``_sgd.c``, when one can be
used.  The ``_sgd`` module compiles it with ``cc`` on the first
``train_sgd`` call of a process (never at import), caches it as
``__pycache__/_sgd-<hash>.so`` keyed by source and flags, loads it with
ctypes, and checks it once against the Python loop on a small case.  That
Python loop is the reference: the kernel matches it value for value and so
gives the same bits, and it takes over whenever the kernel cannot be built,
loaded or trusted.  The kernel skips ``exp`` only where a shifted logit is
exactly 0.0, where ``exp`` returns exactly 1.0: at the row maximum's own
entry, when that maximum is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from .logits import LogitModel, item_logits_all
from .losses import log_sum_exp, log_sum_exp_rows
from .vocab import TokenMap


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


def _model_log_probs_flat(model: LogitModel, tmap: TokenMap, h: int) -> np.ndarray:
    scores = item_logits_all(model, h, tmap)
    return scores - log_sum_exp(scores)


def _model_log_probs_chain(model: LogitModel, tmap: TokenMap, h: int) -> np.ndarray:
    """Chained-softmax log probability of every item: the sum over positions of
    the visited token's logit minus its node's log-partition."""
    mat = tmap.token_matrix
    prefixes = tmap.prefix_indices
    out = np.zeros(mat.shape[0])
    for m in range(model.spec.k):
        rows = model.rows(m)[h]
        node = model.node_index(prefixes[m])
        out += rows[node, mat[:, m]] - log_sum_exp_rows(rows)[node]
    return out


def _forward_kl(world: SyntheticWorld, log_q_rows: list[np.ndarray]) -> float:
    total = 0.0
    for h in range(world.C):
        p = world.p_star[h]
        mask = p > 0.0
        total += float((p[mask] * (np.log(p[mask]) - log_q_rows[h][mask])).sum())
    return total / world.C


def eval_kl(model: LogitModel, tmap: TokenMap, world: SyntheticWorld) -> float:
    """Mean over contexts of KL(p* || flat softmax of summed item logits).

    Zero target mass contributes zero (0 * log 0 := 0).
    """
    return _forward_kl(world, [_model_log_probs_flat(model, tmap, h) for h in range(world.C)])


def eval_kl_chain(model: LogitModel, tmap: TokenMap, world: SyntheticWorld) -> float:
    """Mean over contexts of KL(p* || chained softmax probabilities).

    The chained view is the distribution next-token training optimizes; it
    equals the flat view exactly when per-node partition values do not depend
    on the prefix.
    """
    return _forward_kl(world, [_model_log_probs_chain(model, tmap, h) for h in range(world.C)])


def _epoch_metrics(
    model: LogitModel, tmap: TokenMap, counts: np.ndarray, n: int,
    world: SyntheticWorld | None,
) -> tuple[float, float, float]:
    """Dataset-mean losses at the current parameters, plus eval KL.

    Means are exact: per-(h, i) losses are computed once and weighted by the
    dataset's (h, i) counts.  Each context's flat log probabilities serve
    both the flat loss and the KL.
    """
    mean_ntp = 0.0
    mean_fv = 0.0
    log_q_flat = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is train_sgd's to reject
        for h in range(model.C):
            ntp_tab = -_model_log_probs_chain(model, tmap, h)
            log_q_flat.append(_model_log_probs_flat(model, tmap, h))
            w = counts[h]
            mean_ntp += float((w * ntp_tab).sum())
            mean_fv += float((w * -log_q_flat[h]).sum())
        kl = _forward_kl(world, log_q_flat) if world is not None else float("nan")
    mean_ntp /= n
    mean_fv /= n
    return mean_ntp, mean_fv, kl


def _python_epoch(model: LogitModel, tmap: TokenMap, data: Dataset, lr: float):
    """One SGD epoch, ``run(order)``, on plain Python floats.

    The oracle the compiled kernel must match bit for bit, and its fallback.
    Each visited row is shifted by its first maximum, exponentiated with
    ``math.exp``, summed left to right from 0.0, scaled by lr / sum, and the
    visited token gains lr.  Tables are written back to the model per epoch.
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
    when it loads, else in the Python loop; both give the same bits.

    Raises:
        ValueError: bad hyperparameters, or a map, dataset or world that
            does not fit the model.
        DivergenceError: a mean epoch loss went non-finite.
    """
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if tmap.mode != "strict":
        raise ValueError("training needs a strict token map")
    if tmap.spec != model.spec:
        raise ValueError(f"token map spec {tmap.spec} does not match model spec {model.spec}")
    if not (0 <= data.contexts.min() and data.contexts.max() < model.C):
        raise ValueError(f"dataset contexts must lie in [0, {model.C})")
    if not (0 <= data.items.min() and data.items.max() < tmap.n_items):
        raise ValueError(f"dataset items must lie in [0, {tmap.n_items})")
    if world is not None and world.p_star.shape != (model.C, tmap.n_items):
        raise ValueError(
            f"world p_star shape {world.p_star.shape} does not match "
            f"({model.C}, {tmap.n_items})"
        )

    model = model.copy()
    n = len(data)
    rng = np.random.default_rng(seed)
    from . import _sgd  # built and loaded on first use, never at import

    kernel = _sgd.load()
    if kernel is not None:
        run_epoch = _sgd.epoch(kernel, model, tmap, data, lr)
    else:
        run_epoch = _python_epoch(model, tmap, data, lr)

    counts = np.zeros((model.C, tmap.n_items))
    np.add.at(counts, (data.contexts, data.items), 1.0)

    records = []
    for epoch in range(1, epochs + 1):
        run_epoch(rng.permutation(n))
        mean_ntp, mean_fv, kl = _epoch_metrics(model, tmap, counts, n, world)
        if not np.isfinite(mean_ntp):
            raise DivergenceError(f"mean epoch loss became non-finite at epoch {epoch}")
        records.append(EpochRecord(epoch=epoch, mean_ntp_loss=mean_ntp, mean_fv_mle_loss=mean_fv, kl=kl))
    return model, records
