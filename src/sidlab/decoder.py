"""Decoding: beam search over the prefix tree and exact rankings.

All sequences have exactly k tokens (no end marker, no length penalty), so
beam search runs k expansion rounds and returns complete sequences only.
Score ties are broken by lexicographically ascending token order everywhere:
during pruning, in final rankings, and in the exact decoders.  Ranking items
by raw summed logits equals ranking by flat-softmax probability because the
softmax is monotone in the logit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .logits import MAX_TABLE_ENTRIES, FormError, LogitModel, _check_context, item_logits_all
from .vocab import TokenMap, TokenSeq


@dataclass(frozen=True)
class ScoredSequence:
    sequence: TokenSeq
    score: float


def beam_search(model: LogitModel, h: int, beam_width: int, top_k: int) -> list[ScoredSequence]:
    """Width-limited exhaustive-prefix search, best ``top_k`` of the final beam.

    With ``beam_width >= X**(k-1) * X`` no candidate is ever pruned and the
    result is the exact ranking of all sequences.  Each round works on whole
    arrays: it gathers the node rows of all surviving prefixes, adds their
    scores in one broadcast (the additions of a path run left to right from
    0.0) and ranks every candidate with one lexsort, score descending, then
    base-X prefix code ascending, which is lexicographic token order.

    Raises:
        ValueError: a bad width or ``top_k``, a context outside the model, or
            a round of more than ``MAX_TABLE_ENTRIES`` candidates.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    if not 1 <= top_k <= beam_width:
        raise ValueError(f"top_k must be in [1, beam_width], got {top_k}")
    _check_context(model.C, h)
    spec = model.spec
    widest = min(beam_width, spec.X ** (spec.k - 1)) * spec.X
    if widest > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"a beam round would hold {widest} candidates, cap is {MAX_TABLE_ENTRIES}"
        )
    scores = np.zeros(1)
    codes = np.zeros(1, dtype=np.int64)  # base-X prefix index of each beam
    tokens = np.arange(spec.X)
    for m in range(spec.k):
        rows = model.rows(m)[h, model.node_index(codes)]
        if model.counter is not None:
            model.counter.entries += codes.size * spec.X
        with np.errstate(over="ignore"):  # an overflowing path sum is the caller's to reject
            scores = (scores[:, None] + rows).ravel()
        codes = (codes[:, None] * spec.X + tokens).ravel()
        keep = np.lexsort((codes, -scores))[:beam_width]
        scores, codes = scores[keep], codes[keep]
    place = spec.X ** np.arange(spec.k - 1, -1, -1)
    sequences = (codes[:top_k, None] // place % spec.X).tolist()
    return [
        ScoredSequence(sequence=tuple(seq), score=score)
        for seq, score in zip(sequences, scores[:top_k].tolist())
    ]


def exact_topk(model: LogitModel, h: int, tmap: TokenMap, top_k: int) -> list[tuple[int, float]]:
    """Exact item ranking by summed logit, ties by ascending item id.

    Enumerates every item in the map; the reference the beam is checked
    against.
    """
    if not 1 <= top_k <= tmap.n_items:
        raise ValueError(f"top_k must be in [1, {tmap.n_items}], got {top_k}")
    with np.errstate(over="ignore"):  # an overflowing path sum is the caller's to reject
        scores = item_logits_all(model, h, tmap)
    order = np.argsort(-scores, kind="stable")
    return [(int(i), float(scores[i])) for i in order[:top_k]]


def mtp_decode(model: LogitModel, h: int, top_k: int) -> list[ScoredSequence]:
    """Exact top-k sequences for a parallel model without enumerating X**k.

    Sorts each position's tokens once, then runs best-first search over rank
    index vectors (raising one position's rank yields a score no better than
    its parent).  Whole tie classes are drained before ranking so equal-score
    sequences come out in ascending token order, matching the beam rule.

    Raises:
        FormError: the model is cascaded; position-independent combination
            would need prefix-conditioned logits it cannot see.
    """
    if model.form != "parallel":
        raise FormError("mtp_decode needs a parallel model")
    spec = model.spec
    if not 1 <= top_k:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    top_k = min(top_k, spec.sequence_space_size)

    orders = []  # orders[m][r] = token with rank r at position m
    values = []  # values[m][r] = its logit
    for m in range(spec.k):
        row = np.asarray(model.tables[m][h])
        order = np.argsort(-row, kind="stable")
        orders.append(order)
        values.append(row[order])

    def entry(ranks: tuple[int, ...]) -> tuple[float, TokenSeq, tuple[int, ...]]:
        score = 0.0  # left to right from 0.0, as the beam adds a path
        for m, r in enumerate(ranks):
            score += float(values[m][r])
        tokens = tuple(int(orders[m][r]) for m, r in enumerate(ranks))
        return (-score, tokens, ranks)

    start = tuple([0] * spec.k)
    heap = [entry(start)]
    seen = {start}
    popped: list[tuple[float, TokenSeq]] = []
    cutoff: float | None = None
    while heap:
        neg, tokens, ranks = heapq.heappop(heap)
        if cutoff is not None and neg > cutoff:
            break
        popped.append((neg, tokens))
        if cutoff is None and len(popped) == top_k:
            cutoff = neg
        for m in range(spec.k):
            if ranks[m] + 1 < spec.X:
                nxt = ranks[:m] + (ranks[m] + 1,) + ranks[m + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, entry(nxt))
    popped.sort()
    return [ScoredSequence(sequence=toks, score=-neg) for neg, toks in popped[:top_k]]
