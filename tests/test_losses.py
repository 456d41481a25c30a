"""Losses, partition routes, gradients, and the equivalence report.

The oracles here recompute everything from raw table entries with plain
python floats, so agreement is between two genuinely different codepaths.
"""

import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidlab import (
    CascadedLogitModel,
    CodebookSpec,
    EmptyInputError,
    EquivalenceReport,
    FormError,
    LookupCounter,
    ParallelLogitModel,
    TokenMap,
    check_contexts,
    exact_topk,
    full_log_partition,
    fv_mle_loss,
    identity_token_map,
    log_sum_exp,
    mtp_decode,
    ntp_loss,
    sequence_log_partition,
    sequence_log_partition_factored,
    sequence_log_partition_levelwise,
    softmax,
    summarize_reports,
    write_csv,
)
from reference import composed_report, embed_parallel_as_cascaded, fv_mle_grad, item_logit, ntp_grad


def chain_log_prob(model, h, seq):
    """Chained softmax log probability computed from raw tables, no package math."""
    total = 0.0
    for m in range(model.spec.k):
        if model.form == "cascaded":
            pidx = 0
            for t in seq[:m]:
                pidx = pidx * model.spec.X + t
            row = [float(v) for v in model.tables[m][h, pidx]]
        else:
            row = [float(v) for v in model.tables[m][h]]
        z = sum(math.exp(v) for v in row)
        total += row[seq[m]] - math.log(z)
    return total


def flat_log_partition_oracle(model, h, tmap):
    logits = [item_logit(model, h, tmap, i) for i in range(tmap.n_items)]
    return math.log(sum(math.exp(v) for v in logits))


def central_difference(f, model, eps=1e-5):
    """Gradient of f(model) w.r.t. every table entry by central differences."""
    grads = type(model).zeros(model.spec, model.C).tables
    for m, table in enumerate(model.tables):
        it = np.nditer(table, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = table[idx]
            table[idx] = old + eps
            up = f(model)
            table[idx] = old - eps
            down = f(model)
            table[idx] = old
            grads[m][idx] = (up - down) / (2.0 * eps)
    return grads


def assert_grads_close(analytic, numeric, atol=5e-7):
    for a, n in zip(analytic, numeric):
        assert np.max(np.abs(a - n)) < atol


class TestLogSumExp:
    def test_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            log_sum_exp([])

    def test_small_case(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)
        vals = [0.3, -1.2, 2.0]
        assert log_sum_exp(vals) == pytest.approx(
            math.log(sum(math.exp(v) for v in vals)), abs=1e-14
        )

    def test_single_value(self):
        assert log_sum_exp([4.2]) == pytest.approx(4.2, abs=1e-15)

    def test_large_values_do_not_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(
            1000.0 + math.log(2.0), abs=1e-12
        )
        assert log_sum_exp([-1e300, 5.0]) == pytest.approx(5.0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=8
        ),
        shift=st.floats(min_value=-500.0, max_value=500.0),
    )
    def test_shift_invariance(self, values, shift):
        base = log_sum_exp(values)
        shifted = log_sum_exp([v + shift for v in values])
        assert shifted - shift == pytest.approx(base, abs=1e-9)

    def test_softmax_normalizes(self):
        p = softmax([1.0, 2.0, 3.0])
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        z = sum(math.exp(v) for v in [1.0, 2.0, 3.0])
        assert np.allclose(p, [math.exp(v) / z for v in [1.0, 2.0, 3.0]], atol=1e-15)


class TestNtpLoss:
    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_chain_oracle(self, cls, seed):
        spec = CodebookSpec(k=3, X=3)
        tmap = identity_token_map(spec)
        model = cls.random(spec, 2, 0.8, seed=seed)
        for h in range(2):
            for item in (0, 7, 26):
                seq = tmap.forward(item)
                assert ntp_loss(model, h, tmap, item) == pytest.approx(
                    -chain_log_prob(model, h, seq), abs=1e-12
                )

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_chain_probabilities_sum_to_one(self, cls):
        spec = CodebookSpec(k=2, X=4)
        tmap = identity_token_map(spec)
        model = cls.random(spec, 1, 1.0, seed=3)
        total = sum(
            math.exp(-ntp_loss(model, 0, tmap, i)) for i in range(tmap.n_items)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 2, 0.5, seed=11)
        assert ntp_loss(model, 1, tmap, 4) == pytest.approx(
            1.7762977195761191, abs=1e-12
        )
        par = ParallelLogitModel.random(spec, 2, 0.5, seed=11)
        assert ntp_loss(par, 0, tmap, 2) == pytest.approx(2.508475926535634, abs=1e-12)

    def test_touches_exactly_k_times_X_entries(self):
        from sidlab import LookupCounter

        spec = CodebookSpec(k=3, X=4)
        model = CascadedLogitModel.zeros(spec, 1)
        model.counter = LookupCounter()
        ntp_loss(model, 0, identity_token_map(spec), 5)
        assert model.counter.entries == spec.k * spec.X

    def test_node_partition_matches_row(self):
        spec = CodebookSpec(k=2, X=3)
        model = CascadedLogitModel.random(spec, 1, 0.5, seed=2)
        row = [float(v) for v in model.tables[1][0, 2]]
        assert log_sum_exp(model.node_logits(0, (2,))) == pytest.approx(
            math.log(sum(math.exp(v) for v in row)), abs=1e-13
        )


class TestFlatLoss:
    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_matches_flat_oracle(self, cls):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = cls.random(spec, 2, 0.8, seed=4)
        for h in range(2):
            log_z = flat_log_partition_oracle(model, h, tmap)
            assert full_log_partition(model, h, tmap) == pytest.approx(log_z, abs=1e-12)
            for item in (0, 4, 8):
                want = -(item_logit(model, h, tmap, item) - log_z)
                assert fv_mle_loss(model, h, tmap, item) == pytest.approx(want, abs=1e-12)

    def test_frozen_value(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 2, 0.5, seed=11)
        assert fv_mle_loss(model, 1, tmap, 4) == pytest.approx(
            1.788830700057066, abs=1e-12
        )

    def test_flat_probabilities_sum_to_one(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 1, 1.0, seed=5)
        total = sum(
            math.exp(-fv_mle_loss(model, 0, tmap, i)) for i in range(tmap.n_items)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_equals_the_per_item_path_sum_bitwise(self):
        # one item_logits read makes the additions of the per-item path sum
        rng = np.random.default_rng(7)
        for cls in (CascadedLogitModel, ParallelLogitModel):
            for k, X in itertools.product((1, 2, 3), (2, 3, 5)):
                spec = CodebookSpec(k=k, X=X)
                identity = identity_token_map(spec)
                table = identity.token_matrix
                probe = TokenMap(spec, np.vstack([table, table[-1]]), "probe")
                model = cls.random(spec, 2, (0.5, 4.0)[k % 2], seed=int(rng.integers(2**31)))
                for tmap in (identity, probe):
                    for h in range(2):
                        log_z = full_log_partition(model, h, tmap)
                        for i in range(tmap.n_items):
                            want = -(item_logit(model, h, tmap, i) - log_z)
                            got = fv_mle_loss(model, h, tmap, i)
                            assert type(got) is float and got.hex() == want.hex()

    @pytest.mark.parametrize("item", [-1, 9])
    def test_rejects_items_outside_the_map(self, item):
        spec = CodebookSpec(k=2, X=3)
        model = CascadedLogitModel.random(spec, 1, 0.5, seed=3)
        with pytest.raises(ValueError, match="outside"):
            fv_mle_loss(model, 0, identity_token_map(spec), item)


class TestPartitionRoutes:
    """All enumeration routes hit the same value under a strict bijection."""

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    @pytest.mark.parametrize("k,X", [(1, 4), (2, 3), (3, 2), (3, 4)])
    def test_sequence_routes_agree_with_item_route(self, cls, k, X):
        spec = CodebookSpec(k=k, X=X)
        tmap = identity_token_map(spec)
        for seed in range(4):
            model = cls.random(spec, 2, 0.9, seed=seed)
            for h in range(2):
                flat = sequence_log_partition(model, h)
                level = sequence_log_partition_levelwise(model, h)
                item = full_log_partition(model, h, tmap)
                assert abs(flat - item) < 1e-11
                assert abs(level - item) < 1e-11

    @staticmethod
    def per_sequence_log_partition(model, h):
        """The flat route as a per-sequence loop: sequences in lexicographic
        order, each scored by its k logits added left to right from 0.0."""
        spec = model.spec
        scores = []
        for seq in itertools.product(range(spec.X), repeat=spec.k):
            total = 0.0
            for m in range(spec.k):
                node = model.node_index(spec.prefix_index(seq[:m]))
                total += float(model.rows(m)[h, node, seq[m]])
            scores.append(total)
        return log_sum_exp(scores)

    def test_routes_bit_by_bit(self):
        """The flat and item routes make the same additions, so they equal the
        loop exactly; the product-form recursion groups them differently, so
        it agrees to rounding and, somewhere in the sweep, not in the last bit."""
        last_bits_differ = 0
        for cls in (CascadedLogitModel, ParallelLogitModel):
            for k, X in itertools.product(range(1, 4), range(2, 9)):
                spec = CodebookSpec(k=k, X=X)
                tmap = identity_token_map(spec)
                model = cls.random(spec, 2, 3.0, seed=10 * k + X)
                for h in range(2):
                    ref = self.per_sequence_log_partition(model, h)
                    assert sequence_log_partition(model, h) == ref
                    assert full_log_partition(model, h, tmap) == ref
                    level = sequence_log_partition_levelwise(model, h)
                    assert abs(level - ref) <= 1e-12
                    last_bits_differ += level != ref
        assert last_bits_differ > 0

    def test_factored_route_for_parallel(self):
        spec = CodebookSpec(k=3, X=3)
        model = ParallelLogitModel.random(spec, 2, 0.8, seed=6)
        for h in range(2):
            fact = sequence_log_partition_factored(model, h)
            assert fact == pytest.approx(sequence_log_partition(model, h), abs=1e-11)
            # and against the hand-computed product of per-position sums
            want = sum(
                math.log(sum(math.exp(float(v)) for v in model.tables[m][h]))
                for m in range(spec.k)
            )
            assert fact == pytest.approx(want, abs=1e-12)

    def test_factored_route_rejects_cascaded(self):
        with pytest.raises(FormError):
            sequence_log_partition_factored(
                CascadedLogitModel.zeros(CodebookSpec(k=2, X=2), 1), 0
            )

    def test_sequence_enumeration_oracle(self):
        # brute force over itertools.product, fully outside the package
        spec = CodebookSpec(k=3, X=2)
        model = CascadedLogitModel.random(spec, 1, 1.1, seed=7)
        total = 0.0
        for seq in itertools.product(range(2), repeat=3):
            total += math.exp(chain_log_prob(model, 0, seq))
        # chained probabilities over the full space always sum to one ...
        assert total == pytest.approx(1.0, abs=1e-12)
        # ... while the unnormalized sequence sum equals the direct partition
        raw = 0.0
        for seq in itertools.product(range(2), repeat=3):
            s = 0.0
            pidx_by_level = [0, seq[0], seq[0] * 2 + seq[1]]
            for m in range(3):
                s += float(model.tables[m][0, pidx_by_level[m], seq[m]])
            raw += math.exp(s)
        assert sequence_log_partition(model, 0) == pytest.approx(
            math.log(raw), abs=1e-12
        )

    def test_frozen_value(self):
        spec = CodebookSpec(k=2, X=3)
        model = CascadedLogitModel.random(spec, 2, 0.5, seed=11)
        assert sequence_log_partition(model, 0) == pytest.approx(
            2.8121037714510626, abs=1e-12
        )


class TestContextRange:
    """Every per-context entry point refuses a context outside [0, C), as
    ``beam_search`` does, instead of reading another context's rows."""

    @pytest.mark.parametrize("route", [
        lambda model, tmap, h: sequence_log_partition(model, h),
        lambda model, tmap, h: sequence_log_partition_levelwise(model, h),
        lambda model, tmap, h: sequence_log_partition_factored(model, h),
        lambda model, tmap, h: full_log_partition(model, h, tmap),
        lambda model, tmap, h: fv_mle_loss(model, h, tmap, 0),
        lambda model, tmap, h: exact_topk(model, h, tmap, 1),
        lambda model, tmap, h: mtp_decode(model, h, 1),
    ], ids=["sequence", "levelwise", "factored", "full", "fv_mle_loss", "exact_topk", "mtp_decode"])
    @pytest.mark.parametrize("h", [-1, 3])
    def test_context_outside_the_model_is_refused(self, route, h):
        # h = -1 used to read context C - 1 without a word
        spec = CodebookSpec(k=2, X=3)
        model = ParallelLogitModel.random(spec, 3, 1.0, seed=0)
        with pytest.raises(ValueError, match="context"):
            route(model, identity_token_map(spec), h)


class TestLossIdentityScope:
    """Where the two losses coincide and where they provably do not."""

    def test_parallel_losses_agree_to_machine_precision(self):
        spec = CodebookSpec(k=3, X=3)
        tmap = identity_token_map(spec)
        for seed in range(5):
            model = ParallelLogitModel.random(spec, 2, 1.0, seed=seed)
            for h in range(2):
                for item in (0, 13, 26):
                    gap = abs(
                        ntp_loss(model, h, tmap, item) - fv_mle_loss(model, h, tmap, item)
                    )
                    assert gap < 1e-12

    def test_k_equals_one_always_agrees(self):
        spec = CodebookSpec(k=1, X=5)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 2, 1.0, seed=8)
        for h in range(2):
            for item in range(5):
                gap = abs(
                    ntp_loss(model, h, tmap, item) - fv_mle_loss(model, h, tmap, item)
                )
                assert gap < 1e-13

    def test_all_zero_tables_give_log_n_for_both(self):
        for k, X in [(1, 2), (2, 2), (3, 4)]:
            spec = CodebookSpec(k=k, X=X)
            tmap = identity_token_map(spec)
            n = spec.sequence_space_size
            for model in (CascadedLogitModel.zeros(spec, 1), ParallelLogitModel.zeros(spec, 1)):
                assert ntp_loss(model, 0, tmap, 0) == pytest.approx(math.log(n), abs=1e-12)
                assert fv_mle_loss(model, 0, tmap, 0) == pytest.approx(math.log(n), abs=1e-12)

    def test_generic_cascaded_tables_disagree(self):
        # the teacher-forcing denominator is the product of visited-node
        # partitions, which depends on the item's own prefix; the flat
        # denominator does not.  Free cascaded tables expose the difference.
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 1, 0.5, seed=0)
        gaps = [
            abs(ntp_loss(model, 0, tmap, i) - fv_mle_loss(model, 0, tmap, i))
            for i in range(tmap.n_items)
        ]
        assert max(gaps) > 1e-3

    def test_cascaded_with_prefix_constant_rows_agrees(self):
        # a cascaded model whose rows do not depend on the prefix is a
        # parallel model in disguise, so the identity must come back
        spec = CodebookSpec(k=3, X=2)
        tmap = identity_token_map(spec)
        par = ParallelLogitModel.random(spec, 1, 1.0, seed=9)
        casc = embed_parallel_as_cascaded(par)
        for item in range(tmap.n_items):
            gap = abs(ntp_loss(casc, 0, tmap, item) - fv_mle_loss(casc, 0, tmap, item))
            assert gap < 1e-12


class TestGradients:
    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_ntp_grad_matches_finite_differences(self, cls):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = cls.random(spec, 2, 0.6, seed=10)
        for h, item in [(0, 0), (1, 5), (0, 8)]:
            analytic = ntp_grad(model, h, tmap, item)
            numeric = central_difference(
                lambda m: ntp_loss(m, h, tmap, item), model
            )
            assert_grads_close(analytic, numeric)

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_fv_grad_matches_finite_differences(self, cls):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = cls.random(spec, 2, 0.6, seed=11)
        for h, item in [(0, 1), (1, 4)]:
            analytic = fv_mle_grad(model, h, tmap, item)
            numeric = central_difference(
                lambda m: fv_mle_loss(m, h, tmap, item), model
            )
            assert_grads_close(analytic, numeric)

    def test_ntp_grad_structure(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 2, 0.5, seed=12)
        grads = ntp_grad(model, 0, tmap, 4)  # sequence (1, 1)
        # rows the item never visits carry exactly zero gradient
        assert np.all(grads[0][1] == 0.0)
        assert np.all(grads[1][0, 0] == 0.0)
        assert np.all(grads[1][0, 2] == 0.0)
        # each visited row sums to zero (softmax minus one-hot)
        assert grads[0][0, 0].sum() == pytest.approx(0.0, abs=1e-15)
        assert grads[1][0, 1].sum() == pytest.approx(0.0, abs=1e-15)

    def test_gradients_match_for_parallel_but_not_cascaded(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        par = ParallelLogitModel.random(spec, 1, 0.7, seed=13)
        g_ntp = ntp_grad(par, 0, tmap, 2)
        g_fv = fv_mle_grad(par, 0, tmap, 2)
        for a, b in zip(g_ntp, g_fv):
            assert np.max(np.abs(a - b)) < 1e-12
        casc = CascadedLogitModel.random(spec, 1, 0.7, seed=13)
        diffs = [
            np.max(np.abs(a - b))
            for a, b in zip(ntp_grad(casc, 0, tmap, 2), fv_mle_grad(casc, 0, tmap, 2))
        ]
        assert max(diffs) > 1e-3


class TestProbeMaps:
    def test_duplicate_item_shifts_the_partition_by_the_closed_form(self):
        spec = CodebookSpec(k=2, X=3)
        base = identity_token_map(spec).token_matrix
        dup_item = 4
        probe = TokenMap(spec, np.vstack([base, base[dup_item]]), "probe")
        for cls in (CascadedLogitModel, ParallelLogitModel):
            model = cls.random(spec, 1, 0.8, seed=14)
            log_z_seq = sequence_log_partition(model, 0)
            log_z_probe = full_log_partition(model, 0, probe)
            l_dup = item_logit(model, 0, probe, dup_item)
            want = math.log(math.exp(log_z_seq) + math.exp(l_dup))
            assert log_z_probe == pytest.approx(want, abs=1e-12)
            assert abs(log_z_probe - log_z_seq) > 1e-6

    def test_missing_coverage_shrinks_the_partition(self):
        spec = CodebookSpec(k=2, X=2)
        probe = TokenMap(spec, [(0, 0), (1, 1)], "probe")
        model = CascadedLogitModel.random(spec, 1, 0.5, seed=15)
        assert full_log_partition(model, 0, probe) < sequence_log_partition(model, 0)


class TestEquivalenceReport:
    def test_fields_on_strict_parallel(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = ParallelLogitModel.random(spec, 2, 0.5, seed=16)
        rep = check_contexts(model, tmap, [[0], [3]])[1]
        assert rep.context == 1 and rep.item == 3
        assert rep.abs_partition_gap < 1e-11
        assert rep.abs_loss_gap < 1e-12
        assert rep.max_grad_gap < 1e-12
        assert rep.z_product == pytest.approx(rep.z_full, rel=1e-12)

    def test_fields_on_strict_cascaded(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 1, 0.5, seed=0)
        rep = check_contexts(model, tmap, [[4]])[0]
        assert rep.abs_partition_gap < 1e-11  # enumeration identity still exact
        assert rep.abs_loss_gap > 1e-3  # chained vs flat distribution differ

    def test_csv_roundtrip(self, tmp_path):
        spec = CodebookSpec(k=1, X=2)
        tmap = identity_token_map(spec)
        model = ParallelLogitModel.random(spec, 1, 0.5, seed=17)
        reports = check_contexts(model, tmap, [[0, 1]])
        path = tmp_path / "eq.csv"
        write_csv(path, EquivalenceReport, reports)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["context", "item", "z_product", "z_full", "loss_ntp", "loss_fv_mle",
                           "abs_partition_gap", "abs_loss_gap", "max_grad_gap"]
        assert len(rows) == 3
        assert float(rows[1][4]) == pytest.approx(reports[0].loss_ntp, abs=1e-15)

    def test_summaries(self):
        assert summarize_reports([]) == {
            "n_reports": 0,
            "max_abs_partition_gap": 0.0,
            "max_abs_loss_gap": 0.0,
            "max_grad_gap": 0.0,
        }
        spec = CodebookSpec(k=2, X=2)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 1, 0.5, seed=18)
        reports = check_contexts(model, tmap, [[0, 1, 2, 3]])
        summary = summarize_reports(reports)
        assert summary["n_reports"] == 4
        assert summary["max_abs_loss_gap"] == max(r.abs_loss_gap for r in reports)


def typed_fields(report):
    """Each field's type and repr: unlike ==, a -0.0 or a NaN must match exactly."""
    return [(type(v), repr(v)) for v in dataclasses.astuple(report)]


def random_probe(identity, rng):
    """``identity`` plus one item repeating a random item's sequence, and that item."""
    dup = int(rng.integers(identity.n_items))
    table = identity.token_matrix
    return TokenMap(identity.spec, np.vstack([table, table[dup]]), "probe"), dup


class TestCheckContext:
    def test_bitwise_parity_with_the_composed_report(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for cls in (CascadedLogitModel, ParallelLogitModel):
            for k, X in itertools.product((1, 2, 3), range(2, 7)):
                spec = CodebookSpec(k=k, X=X)
                identity = identity_token_map(spec)
                probe, dup = random_probe(identity, rng)
                C = int(rng.integers(1, 4))
                sigma = (0.0, 0.5, 4.0)[X % 3]
                model = cls.random(spec, C, sigma, seed=int(rng.integers(2**31)))
                for tmap in (identity, probe):
                    n_pick = min(4, tmap.n_items)
                    items = [rng.choice(tmap.n_items, n_pick, replace=False) for _ in range(C)]
                    if tmap is probe:  # both owners of the colliding sequence
                        items = [np.append(row, [dup, tmap.n_items - 1]) for row in items]
                    # every context of the model in one pass
                    got = check_contexts(model, tmap, items)
                    want = [composed_report(model, h, tmap, int(i))
                            for h in range(C) for i in items[h]]
                    assert [typed_fields(r) for r in got] == [typed_fields(r) for r in want]
                    checked += len(got)
        assert checked > 500

    @pytest.mark.parametrize("form", ["cascaded", "parallel"])
    def test_bits_do_not_depend_on_the_other_contexts(self, form):
        cls = CascadedLogitModel if form == "cascaded" else ParallelLogitModel
        rng = np.random.default_rng(7)
        spec = CodebookSpec(k=3, X=3)
        model = cls.random(spec, 7, 2.0, seed=8)
        identity = identity_token_map(spec)
        probe, dup = random_probe(identity, rng)
        for tmap in (identity, probe):
            items = np.stack([rng.choice(tmap.n_items, 5, replace=False) for _ in range(7)])
            items[0, :2] = dup, tmap.n_items - 1
            whole = [typed_fields(r) for r in check_contexts(model, tmap, items)]
            want = [typed_fields(composed_report(model, h, tmap, int(i)))
                    for h in range(7) for i in items[h]]
            assert whole == want
            for cut in (1, 3, 6):  # the same contexts checked as two models
                parts = [cls(spec, hi - lo, [t[lo:hi] for t in model.tables]) for lo, hi in
                         ((0, cut), (cut, 7))]
                got = check_contexts(parts[0], tmap, items[:cut]) + [
                    dataclasses.replace(r, context=r.context + cut)
                    for r in check_contexts(parts[1], tmap, items[cut:])
                ]
                assert [typed_fields(r) for r in got] == whole

    def test_no_items(self):
        spec = CodebookSpec(k=2, X=3)
        model = CascadedLogitModel.random(spec, 2, 0.5, seed=21)
        assert check_contexts(model, identity_token_map(spec), np.zeros((2, 0))) == []

    def test_counts_k_entries_per_item_and_context(self):
        spec = CodebookSpec(k=3, X=2)
        model = ParallelLogitModel.random(spec, 3, 0.5, seed=22)
        model.counter = LookupCounter()
        tmap = identity_token_map(spec)
        check_contexts(model, tmap, [[0], [3], [7]])
        assert model.counter.entries == 3 * spec.k * tmap.n_items

    def test_batch_equals_one_item_calls(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        model = CascadedLogitModel.random(spec, 2, 0.5, seed=19)
        reports = check_contexts(model, tmap, [[1, 1, 1], [4, 0, 4]])[3:]
        assert [(r.context, r.item) for r in reports] == [(1, 4), (1, 0), (1, 4)]
        assert reports == [check_contexts(model, tmap, [[1], [i]])[1] for i in (4, 0, 4)]

    @pytest.mark.parametrize("items", [[[-1]], [[0, 9]]])
    def test_rejects_items_outside_the_map(self, items):
        spec = CodebookSpec(k=2, X=3)
        model = CascadedLogitModel.random(spec, 1, 0.5, seed=20)
        with pytest.raises(ValueError):
            check_contexts(model, identity_token_map(spec), items)

    @pytest.mark.parametrize("items", [[0], [[0], [0]], [[[0]]]],
                             ids=["one_dimension", "a_row_per_context_more", "three_dimensions"])
    def test_rejects_items_not_one_row_per_context(self, items):
        spec = CodebookSpec(k=2, X=3)
        model = CascadedLogitModel.random(spec, 1, 0.5, seed=20)
        with pytest.raises(ValueError):
            check_contexts(model, identity_token_map(spec), items)
