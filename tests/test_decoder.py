"""Beam search, exact ranking, and position-independent decoding."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from sidlab import (
    CascadedLogitModel,
    CodebookSpec,
    FormError,
    LookupCounter,
    ParallelLogitModel,
    ScoredSequence,
    beam_search,
    exact_topk,
    identity_token_map,
    mtp_decode,
)
from reference import item_logit


def brute_force_ranking(model, h):
    """All sequences scored by raw summed logits, best first, ties by tokens."""
    spec = model.spec
    scored = []
    for seq in itertools.product(range(spec.X), repeat=spec.k):
        total = 0.0
        pidx = 0
        for m in range(spec.k):
            if model.form == "cascaded":
                total += float(model.tables[m][h, pidx, seq[m]])
                pidx = pidx * spec.X + seq[m]
            else:
                total += float(model.tables[m][h, seq[m]])
        scored.append((total, seq))
    scored.sort(key=lambda c: (-c[0], c[1]))
    return scored


def beam_search_reference(model, h, beam_width, top_k):
    """The per-candidate loop that ``beam_search`` replaced, kept as its oracle."""
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    if not 1 <= top_k <= beam_width:
        raise ValueError(f"top_k must be in [1, beam_width], got {top_k}")
    spec = model.spec
    beams: list[tuple[float, tuple]] = [(0.0, ())]
    for m in range(spec.k):
        candidates = []
        for score, prefix in beams:
            node = model.node_logits(h, prefix)
            for t in range(spec.X):
                candidates.append((score + float(node[t]), prefix + (t,)))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:beam_width]
    return [ScoredSequence(sequence=seq, score=score) for score, seq in beams[:top_k]]


def oracle_tables(cls, spec, kind, seed):
    """Tables for the oracle cases: random draws, integer ties, signed zeros or
    entries near +-1e308 whose path sums overflow."""
    rng = np.random.default_rng(seed)
    model = cls.random(spec, 2, 1.5, seed=seed)
    for table in model.tables:
        if kind == "integer_ties":
            table[...] = np.round(table)
        elif kind == "zeros":
            table[...] = 0.0
        elif kind == "negative_zeros":
            table[...] = -0.0
        elif kind == "near_overflow":
            table[...] = rng.choice([-1.0, 1.0], table.shape) * rng.uniform(0.6, 1.0, table.shape)
            table *= 1e308
    return model


class TestBeamSearchOracle:
    """``beam_search`` against the per-candidate loop, bit for bit."""

    @pytest.mark.parametrize(
        "kind", ["random", "integer_ties", "zeros", "negative_zeros", "near_overflow"]
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_matches_reference_loop_bitwise(self, cls, k, kind):
        for X in range(2, 7):
            spec = CodebookSpec(k=k, X=X)
            model = oracle_tables(cls, spec, kind, seed=10 * k + X)
            n = spec.sequence_space_size
            for width in sorted({1, 2, X, X ** (k - 1), n, n + 1}):
                for top_k in sorted({1, min(3, width), width}):
                    for h in range(model.C):
                        model.counter = LookupCounter()
                        want = beam_search_reference(model, h, width, top_k)
                        want_entries = model.counter.entries
                        model.counter = LookupCounter()
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            got = beam_search(model, h, width, top_k)
                        assert model.counter.entries == want_entries
                        assert [g.sequence for g in got] == [w.sequence for w in want]
                        assert all(type(t) is int for g in got for t in g.sequence)
                        assert [g.score.hex() for g in got] == [w.score.hex() for w in want]

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_near_overflow_tables_reach_both_infinities(self, cls):
        model = oracle_tables(cls, CodebookSpec(k=3, X=4), "near_overflow", seed=3)
        scores = [b.score for b in beam_search(model, 0, 64, 64)]
        assert float("inf") in scores and float("-inf") in scores

    @pytest.mark.parametrize("h", [-1, 2])
    def test_context_is_checked(self, h):
        model = CascadedLogitModel.zeros(CodebookSpec(k=2, X=3), 2)
        with pytest.raises(ValueError, match="context"):
            beam_search(model, h, 3, 1)


class TestBeamSearch:
    def test_argument_validation(self):
        model = ParallelLogitModel.zeros(CodebookSpec(k=2, X=2), 1)
        with pytest.raises(ValueError):
            beam_search(model, 0, 0, 1)
        with pytest.raises(ValueError):
            beam_search(model, 0, 2, 0)
        with pytest.raises(ValueError):
            beam_search(model, 0, 2, 3)

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    @pytest.mark.parametrize("seed", range(5))
    def test_full_width_beam_is_exact(self, cls, seed):
        spec = CodebookSpec(k=3, X=3)
        model = cls.random(spec, 2, 0.9, seed=seed)
        n = spec.sequence_space_size
        for h in range(2):
            beams = beam_search(model, h, beam_width=n, top_k=n)
            expect = brute_force_ranking(model, h)
            assert [b.sequence for b in beams] == [seq for _, seq in expect]
            assert [b.score for b in beams] == [score for score, _ in expect]

    def test_full_width_beam_matches_exact_topk_items(self):
        spec = CodebookSpec(k=2, X=4)
        tmap = identity_token_map(spec)
        for seed in range(5):
            model = CascadedLogitModel.random(spec, 1, 0.8, seed=seed)
            beams = beam_search(model, 0, beam_width=16, top_k=5)
            items = exact_topk(model, 0, tmap, 5)
            for b, (item, score) in zip(beams, items):
                assert tmap.inverse(b.sequence) == item
                assert b.score == pytest.approx(score, abs=1e-12)

    def test_narrow_beam_can_miss_but_stays_sorted(self):
        spec = CodebookSpec(k=2, X=3)
        model = CascadedLogitModel.random(spec, 1, 1.5, seed=7)
        beams = beam_search(model, 0, beam_width=2, top_k=2)
        assert len(beams) == 2
        assert beams[0].score >= beams[1].score

    def test_greedy_is_width_one(self):
        spec = CodebookSpec(k=3, X=4)
        model = CascadedLogitModel.random(spec, 1, 1.0, seed=8)
        (best,) = beam_search(model, 0, beam_width=1, top_k=1)
        # manual greedy walk down the prefix tree
        seq = []
        for m in range(spec.k):
            node = model.node_logits(0, tuple(seq))
            seq.append(int(node.argmax()))
        assert best.sequence == tuple(seq)

    def test_all_zero_ties_break_lexicographically(self):
        spec = CodebookSpec(k=2, X=3)
        model = CascadedLogitModel.zeros(spec, 1)
        beams = beam_search(model, 0, beam_width=9, top_k=4)
        assert [b.sequence for b in beams] == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert all(b.score == 0.0 for b in beams)

    def test_scored_sequence_is_frozen(self):
        s = ScoredSequence(sequence=(0, 1), score=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.score = 2.0


class TestExactTopk:
    def test_matches_item_logit_ranking(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 2, 0.7, seed=9)
        for h in range(2):
            ranked = exact_topk(model, h, tmap, tmap.n_items)
            scores = [item_logit(model, h, tmap, i) for i in range(tmap.n_items)]
            resorted = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            assert [item for item, _ in ranked] == resorted

    def test_ties_break_by_ascending_item_id(self):
        spec = CodebookSpec(k=2, X=2)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.zeros(spec, 1)
        ranked = exact_topk(model, 0, tmap, 4)
        assert [item for item, _ in ranked] == [0, 1, 2, 3]

    def test_top_k_validation(self):
        spec = CodebookSpec(k=1, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.zeros(spec, 1)
        with pytest.raises(ValueError):
            exact_topk(model, 0, tmap, 0)
        with pytest.raises(ValueError):
            exact_topk(model, 0, tmap, 4)


class TestMtpDecode:
    def test_rejects_cascaded_models(self):
        with pytest.raises(FormError):
            mtp_decode(CascadedLogitModel.zeros(CodebookSpec(k=2, X=2), 1), 0, 1)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("top_k", [1, 3, 9, 27])
    def test_matches_exhaustive_beam(self, seed, top_k):
        spec = CodebookSpec(k=3, X=3)
        model = ParallelLogitModel.random(spec, 2, 0.9, seed=seed)
        n = spec.sequence_space_size
        for h in range(2):
            got = mtp_decode(model, h, top_k)
            want = beam_search(model, h, beam_width=n, top_k=top_k)
            assert [g.sequence for g in got] == [w.sequence for w in want]
            for g, w in zip(got, want):
                assert g.score == pytest.approx(w.score, abs=1e-12)

    def test_all_zero_ties_break_lexicographically(self):
        spec = CodebookSpec(k=2, X=3)
        model = ParallelLogitModel.zeros(spec, 1)
        got = mtp_decode(model, 0, 5)
        assert [g.sequence for g in got] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    def test_top_k_clipped_to_sequence_space(self):
        spec = CodebookSpec(k=2, X=2)
        model = ParallelLogitModel.random(spec, 1, 0.5, seed=10)
        got = mtp_decode(model, 0, 100)
        assert len(got) == 4
        with pytest.raises(ValueError):
            mtp_decode(model, 0, 0)

    def test_partial_tie_block_is_fully_ordered(self):
        # two positions with repeated values produce a tie class that spans
        # the cutoff; the drained result must still be lexicographic inside it
        spec = CodebookSpec(k=2, X=3)
        tables = [
            np.array([[1.0, 1.0, 0.0]]),
            np.array([[2.0, 2.0, 2.0]]),
        ]
        model = ParallelLogitModel(spec, 1, tables)
        got = mtp_decode(model, 0, 4)
        # scores: 3.0 for (0,*) and (1,*), 2.0 for (2,*)
        assert [g.sequence for g in got] == [(0, 0), (0, 1), (0, 2), (1, 0)]
        exhaustive = beam_search(model, 0, beam_width=9, top_k=4)
        assert [g.sequence for g in got] == [b.sequence for b in exhaustive]
