"""Acceptance criteria, one test per criterion clause, each printing a
[PASS]/[FAIL] line (collected again in the run's terminal summary).

Every check is implemented exactly as stated, including the ones the
mathematics cannot satisfy.  Those stay red on purpose: the cascaded form's
teacher-forcing denominator is the product of the k visited-node partition
values, which depends on the positive item's own prefix, while the flat
softmax denominator is one number shared by all items.  The two losses (and
the distributions they induce) therefore differ for generic cascaded tables,
and everything downstream of that difference (criteria 1a, 3b, 7) measures
it honestly rather than papering over it.  The partition identity itself
(sequence enumeration vs item enumeration under a strict bijection) is
unconditionally true and stays green in the same sweeps.
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest
from conftest import record_criterion

from sidlab import (
    CascadedLogitModel,
    CodebookSpec,
    ParallelLogitModel,
    TokenMap,
    beam_search,
    check_contexts,
    count_softmax_ops,
    eval_kl,
    eval_kl_chain,
    exact_topk,
    full_log_partition,
    fv_mle_loss,
    identity_token_map,
    item_logits,
    measure_lookup_counts,
    mtp_decode,
    ntp_loss,
    sample_dataset,
    sequence_log_partition,
    sequence_log_partition_factored,
    sequence_log_partition_levelwise,
    synth_world,
    train_sgd,
)
from sidlab.cli import main as cli_main
from sidlab.losses import log_sum_exp_rows

from reference import item_logit, ntp_grad

SWEEP = list(itertools.product([1, 2, 3], [2, 3, 4], [1, 2, 4]))  # (k, X, C)
SIGMA = 0.5


def sweep_models(cls, seeds=(0, 1, 2, 3)):
    """108 models over the full (k, X, C) grid, 4 seeds each."""
    for k, X, C in SWEEP:
        spec = CodebookSpec(k=k, X=X)
        for seed in seeds:
            yield spec, C, cls.random(spec, C, SIGMA, seed=seed * 1000 + k * 100 + X * 10 + C)


def max_loss_gap(model, tmap):
    worst = 0.0
    where = None
    for h in range(model.C):
        for item in range(tmap.n_items):
            gap = abs(ntp_loss(model, h, tmap, item) - fv_mle_loss(model, h, tmap, item))
            if gap > worst:
                worst, where = gap, (model.spec.k, model.spec.X, model.C, h, item)
    return worst, where


def max_partition_gap(model, tmap):
    worst = 0.0
    for h in range(model.C):
        gap = abs(sequence_log_partition(model, h) - full_log_partition(model, h, tmap))
        worst = max(worst, gap)
    return worst


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def fd_gradient(loss_fn, model, table_m, index, eps=1e-5):
    table = model.tables[table_m]
    old = table[index]
    table[index] = old + eps
    up = loss_fn(model)
    table[index] = old - eps
    down = loss_fn(model)
    table[index] = old
    return (up - down) / (2.0 * eps)


class TestCriterion1CascadedEquality:
    """Criterion 1: the claimed loss equality and the partition identity,
    cascaded sweep of 108 random models."""

    def test_1a_loss_equality(self):
        n_models = 0
        n_violating = 0
        worst, where = 0.0, None
        for spec, C, model in sweep_models(CascadedLogitModel):
            n_models += 1
            tmap = identity_token_map(spec)
            gap, at = max_loss_gap(model, tmap)
            if gap > 1e-10:
                n_violating += 1
            if gap > worst:
                worst, where = gap, at
        ok = worst <= 1e-10
        detail = (
            f"max |ntp - fv| = {worst:.6f} at (k,X,C,h,item)={where} over {n_models} "
            f"models, tolerance 1e-10; {n_violating} models exceed it. The "
            "teacher-forcing denominator depends on the item's prefix, the flat "
            "denominator does not, so the equality only holds when every node "
            "partition is prefix-independent (k=1 sub-cases pass, k>=2 fail)."
        )
        assert record_criterion("criterion 1a (cascaded loss equality)", ok, detail), detail

    def test_1b_partition_identity(self):
        n_models = 0
        worst = 0.0
        for spec, C, model in sweep_models(CascadedLogitModel):
            n_models += 1
            tmap = identity_token_map(spec)
            worst = max(worst, max_partition_gap(model, tmap))
        ok = worst <= 1e-10
        detail = (
            f"max |log Z_seq - log Z_full| = {worst:.3e} over {n_models} cascaded "
            "models, tolerance 1e-10 (sequence enumeration vs item enumeration "
            "under the strict bijection)"
        )
        assert record_criterion("criterion 1b (cascaded partition identity)", ok, detail), detail


class TestCriterion2ParallelEquality:
    """Criterion 2: same sweep with parallel models, plus the factorized
    partition route."""

    def test_2_losses_partitions_and_factored_route(self):
        n_models = 0
        worst_loss = 0.0
        worst_partition = 0.0
        worst_factored = 0.0
        for spec, C, model in sweep_models(ParallelLogitModel):
            n_models += 1
            tmap = identity_token_map(spec)
            gap, _ = max_loss_gap(model, tmap)
            worst_loss = max(worst_loss, gap)
            worst_partition = max(worst_partition, max_partition_gap(model, tmap))
            for h in range(C):
                fact = sequence_log_partition_factored(model, h)
                worst_factored = max(
                    worst_factored,
                    abs(fact - sequence_log_partition(model, h)),
                    abs(fact - sequence_log_partition_levelwise(model, h)),
                )
        ok = worst_loss <= 1e-10 and worst_partition <= 1e-10 and worst_factored <= 1e-12
        detail = (
            f"over {n_models} parallel models: max loss gap {worst_loss:.3e} "
            f"(tol 1e-10), max partition gap {worst_partition:.3e} (tol 1e-10), "
            f"max factored-vs-nested gap {worst_factored:.3e} (tol 1e-12)"
        )
        assert record_criterion("criterion 2 (parallel equality + factorization)", ok, detail), detail


class TestCriterion3Gradients:
    """Criterion 3: analytic gradients against central finite differences,
    24 random (model, context, item) triples, both forms."""

    def triples(self):
        rng = np.random.default_rng(99)
        combos = [(1, 3), (2, 2), (2, 4), (3, 3)]
        for cls in (CascadedLogitModel, ParallelLogitModel):
            for k, X in combos:
                for _ in range(3):
                    spec = CodebookSpec(k=k, X=X)
                    C = int(rng.integers(1, 4))
                    model = cls.random(spec, C, SIGMA, seed=int(rng.integers(2**31)))
                    h = int(rng.integers(C))
                    item = int(rng.integers(spec.sequence_space_size))
                    yield spec, model, h, item

    def test_3a_ntp_grad_matches_fd_everywhere(self):
        n_triples = 0
        worst = 0.0
        for spec, model, h, item in self.triples():
            n_triples += 1
            tmap = identity_token_map(spec)
            analytic = ntp_grad(model, h, tmap, item)
            for m, table in enumerate(model.tables):
                it = np.nditer(table, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    numeric = fd_gradient(
                        lambda mod: ntp_loss(mod, h, tmap, item), model, m, idx
                    )
                    worst = max(worst, relative_error(analytic[m][idx], numeric))
        ok = worst <= 1e-4
        detail = (
            f"max relative error {worst:.3e} over every parameter of {n_triples} "
            "triples (step 1e-5, tolerance 1e-4)"
        )
        assert record_criterion("criterion 3a (ntp_grad vs FD of ntp_loss)", ok, detail), detail

    def test_3b_visited_nodes_match_fd_of_fv_loss(self):
        n_triples = 0
        worst, where = 0.0, None
        worst_parallel = 0.0
        for spec, model, h, item in self.triples():
            n_triples += 1
            tmap = identity_token_map(spec)
            analytic = ntp_grad(model, h, tmap, item)
            seq = tmap.forward(item)
            for m in range(spec.k):
                for t in range(spec.X):
                    if model.form == "cascaded":
                        idx = (h, spec.prefix_index(seq[:m]), t)
                    else:
                        idx = (h, t)
                    numeric = fd_gradient(
                        lambda mod: fv_mle_loss(mod, h, tmap, item), model, m, idx
                    )
                    err = relative_error(analytic[m][idx], numeric)
                    if model.form == "parallel":
                        worst_parallel = max(worst_parallel, err)
                    elif err > worst:
                        worst, where = err, (spec.k, spec.X, model.C, h, item)
        ok = max(worst, worst_parallel) <= 1e-4
        detail = (
            f"visited-node ntp_grad vs FD of fv_mle_loss: max relative error "
            f"{worst:.3e} on cascaded triples (worst at (k,X,C,h,item)={where}), "
            f"{worst_parallel:.3e} on parallel triples, tolerance 1e-4. The two "
            "analytic gradients agree only when node partitions are "
            "prefix-independent, so the parallel half passes and the cascaded "
            "half measures the same structural gap as criterion 1a."
        )
        assert record_criterion("criterion 3b (visited nodes vs FD of fv_mle_loss)", ok, detail), detail


class TestCriterion4UniformBaseline:
    def test_4_all_zero_tables_give_log_n(self):
        worst = 0.0
        for k, X in [(1, 2), (2, 2), (3, 4)]:
            spec = CodebookSpec(k=k, X=X)
            tmap = identity_token_map(spec)
            n = spec.sequence_space_size
            for model in (
                CascadedLogitModel.zeros(spec, 2),
                ParallelLogitModel.zeros(spec, 2),
            ):
                for h in range(2):
                    for item in (0, n // 2, n - 1):
                        worst = max(
                            worst,
                            abs(ntp_loss(model, h, tmap, item) - math.log(n)),
                            abs(fv_mle_loss(model, h, tmap, item) - math.log(n)),
                        )
        ok = worst <= 1e-12
        detail = (
            f"both losses at all-zero parameters vs ln N for N in (2, 4, 64), "
            f"both forms: max deviation {worst:.3e}, tolerance 1e-12"
        )
        assert record_criterion("criterion 4 (uniform baseline)", ok, detail), detail


class TestCriterion5DecodingExactness:
    def test_5_beam_equals_exact_and_mtp_equals_beam(self):
        n_models = 0
        beam_mismatches = 0
        worst_score_gap = 0.0
        rng = np.random.default_rng(77)
        for cls in (CascadedLogitModel, ParallelLogitModel):
            for k, X in [(1, 4), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]:
                for _ in range(2):
                    spec = CodebookSpec(k=k, X=X)
                    C = int(rng.integers(1, 4))
                    model = cls.random(spec, C, 0.8, seed=int(rng.integers(2**31)))
                    tmap = identity_token_map(spec)
                    n = spec.sequence_space_size
                    n_models += 1
                    for h in range(C):
                        beams = beam_search(model, h, beam_width=n, top_k=n)
                        ranked = exact_topk(model, h, tmap, n)
                        for b, (item, score) in zip(beams, ranked):
                            if b.sequence != tmap.forward(item):
                                beam_mismatches += 1
                            worst_score_gap = max(worst_score_gap, abs(b.score - score))
                        if model.form == "parallel":
                            got = mtp_decode(model, h, n)
                            if [g.sequence for g in got] != [b.sequence for b in beams]:
                                beam_mismatches += 1
        ok = beam_mismatches == 0 and worst_score_gap <= 1e-12
        detail = (
            f"full-width beam vs exact ranking on {n_models} models: "
            f"{beam_mismatches} order mismatches, max score gap {worst_score_gap:.3e}; "
            "mtp_decode matched the exhaustive beam on every parallel model"
        )
        assert record_criterion("criterion 5 (decoding exactness)", ok, detail), detail


class TestCriterion6CollisionProbe:
    def test_6_injected_collision_shifts_the_partition_by_the_closed_form(self):
        worst_closed_form = 0.0
        smallest_gap = float("inf")
        n_trials = 0
        for cls in (CascadedLogitModel, ParallelLogitModel):
            for seed in range(6):
                spec = CodebookSpec(k=2, X=3)
                identity = identity_token_map(spec)
                dup_item = seed % spec.sequence_space_size
                probe = TokenMap(
                    spec, np.vstack([identity.token_matrix, identity.token_matrix[dup_item]]), "probe"
                )
                model = cls.random(spec, 2, SIGMA, seed=seed)
                reports = check_contexts(model, probe, [[dup_item]] * 2)
                for h in range(2):
                    n_trials += 1
                    partition_gap = float(reports["abs_partition_gap"][h])
                    log_z_seq = sequence_log_partition(model, h)
                    l_dup = item_logit(model, h, probe, probe.n_items - 1)
                    expected = abs(
                        log_z_seq - math.log(math.exp(log_z_seq) + math.exp(l_dup))
                    )
                    worst_closed_form = max(
                        worst_closed_form, abs(partition_gap - expected)
                    )
                    smallest_gap = min(smallest_gap, partition_gap)
        ok = smallest_gap > 1e-6 and worst_closed_form <= 1e-9
        detail = (
            f"over {n_trials} injected-collision trials: smallest partition gap "
            f"{smallest_gap:.3e} (must exceed 1e-6), max deviation from the "
            f"closed-form gap {worst_closed_form:.3e} (tolerance 1e-9)"
        )
        assert record_criterion("criterion 6 (bijection-violation probe)", ok, detail), detail


@pytest.fixture(scope="module")
def desk_scale_run():
    """The pinned consistency experiment: C=4, N=64 (k=3, X=4), alpha 0.3,
    100k samples, lr 0.1, 30 epochs, zeros-initialized cascaded model."""
    spec = CodebookSpec(k=3, X=4)
    tmap = identity_token_map(spec)
    rng = np.random.default_rng(0)
    world_seed, data_seed, shuffle_seed, _ = (int(v) for v in rng.integers(0, 2**31, size=4))
    world = synth_world(4, 64, 0.3, world_seed)
    data = sample_dataset(world, 100_000, data_seed)
    model = CascadedLogitModel.zeros(spec, 4)
    initial_kl = eval_kl(model, tmap, world)
    # train(epochs=e) repeats the first e epochs of the run bit for bit
    train = functools.partial(train_sgd, model, tmap, data, lr=0.1, seed=shuffle_seed,
                              world=world)
    t0 = time.perf_counter()
    trained, records = train(epochs=30)
    runtime = time.perf_counter() - t0
    return {
        "initial_kl": initial_kl,
        "final_kl": records[-1].kl,
        "chain_kl": eval_kl_chain(trained, tmap, world),
        "records": records,
        "runtime": runtime,
        "trained": trained,
        "train": train,
        "tmap": tmap,
        "world": world,
        "data": data,
    }


class TestCriterion7DeskScaleConsistency:
    """Criterion 7: the desk-scale training run must push the flat-softmax
    KL below 0.05 nats and below a quarter of its initial value, with the two
    mean losses agreeing per epoch.  Next-token SGD on cascaded tables drives
    the chained distribution to the target, not the flat one, so the flat KL
    stalls at the mismatch between the two views and all three clauses
    measure that plateau."""

    def test_7a_final_kl_below_abs_threshold(self, desk_scale_run):
        r = desk_scale_run
        ok = r["final_kl"] <= 0.05
        detail = (
            f"final flat-softmax KL {r['final_kl']:.4f} nats vs threshold 0.05 "
            f"(training ran {r['runtime']:.1f}s; the chained-softmax KL of the "
            f"same trained model is {r['chain_kl']:.4f}, i.e. training converged "
            "in the distribution it optimizes)"
        )
        assert record_criterion("criterion 7a (final KL <= 0.05)", ok, detail), detail

    def test_7b_final_kl_below_quarter_of_initial(self, desk_scale_run):
        r = desk_scale_run
        ratio = r["final_kl"] / r["initial_kl"]
        ok = r["final_kl"] <= 0.25 * r["initial_kl"]
        detail = (
            f"final/initial flat KL = {r['final_kl']:.4f}/{r['initial_kl']:.4f} "
            f"= {ratio:.3f} vs required <= 0.25; the flat view plateaus at the "
            "chained-vs-flat mismatch, not at zero"
        )
        assert record_criterion("criterion 7b (final KL <= 0.25 x initial)", ok, detail), detail

    def test_7c_per_epoch_loss_agreement(self, desk_scale_run):
        records = desk_scale_run["records"]
        worst = max(
            abs(rec.mean_ntp_loss - rec.mean_fv_mle_loss) for rec in records
        )
        ok = worst <= 1e-9
        detail = (
            f"max per-epoch |mean ntp - mean fv| = {worst:.4f} vs tolerance 1e-9; "
            "the dataset-mean losses differ whenever the per-item losses do "
            "(criterion 1a), so this gap is the trained-model size of that "
            "same structural difference"
        )
        assert record_criterion("criterion 7c (per-epoch loss agreement)", ok, detail), detail

    def test_7_desk_run_is_pinned_bit_for_bit(self, desk_scale_run):
        # exact values, so any drift in the training or evaluation arithmetic
        # shows here rather than only in the benchmark's output oracle
        r = desk_scale_run
        assert r["initial_kl"] == 0.9669657177122299
        assert r["final_kl"] == 0.4494582405128461
        assert r["chain_kl"] == 0.04061639985945633


def gap_tables(model, tmap):
    """(gap, size), each (C, n_items).  gap(h, i) = sum_m log Z_m - log Z_full(h),
    Z_m the partition of the node item i visits at position m, added from
    0.0 in position order: the loss gap of ``TestGapIdentity``.  size(h, i) =
    sum_m (|l_m| + |log Z_m|) + |log Z_full(h)|, l_m the item's logit at that
    node, bounds every per-item value and partial sum of the losses, the
    log-probabilities and the gap.  Each log Z is the float the trainer's
    evaluations use (``log_sum_exp_rows`` of the same rows)."""
    log_z_full = log_sum_exp_rows(item_logits(model, tmap, slice(None)))[:, None]
    gap = np.zeros((model.C, tmap.n_items))
    size = np.abs(log_z_full) + gap
    for m in range(model.spec.k):
        node = model.node_index(tmap.prefix_indices[m])
        log_z = log_sum_exp_rows(model.rows(m))[:, node]
        gap += log_z
        size += np.abs(log_z) + np.abs(model.rows(m)[:, node, tmap.token_matrix[:, m]])
    return gap - log_z_full, size


def weighted_mean(weights, values, divisor) -> float:
    """sum_h sum_i weights[h, i] values[h, i] / divisor, in the trainer's
    order: one numpy sum per context, added from 0.0, then one division."""
    total = 0.0
    for h in range(len(weights)):
        total += float((weights[h] * values[h]).sum())
    return total / divisor


class TestCriterion7RedValuesAccounted:
    """The desk run's red values are the loss-gap identity of
    ``TestGapIdentity`` averaged two ways, to within a bound derived from the
    operation count.  Both hold with the red checks left as they are.

    The bound.  The floats l_m and log Z of both sides are the same; only
    the additions, subtractions, products and divisions that combine them
    round, each by at most u |result|, u = 2**-53, passing its inputs'
    errors on unamplified (a weight is a count or a probability, a divisor
    at least 1).  A value added into a sum of M terms in any order meets at
    most M - 1 roundings, and the sum's error is at most gamma_D sum |term|
    when each term meets at most D roundings, gamma_D = D u / (1 - D u)."""

    def test_7c_epoch_gap_is_the_count_weighted_mean_gap(self, desk_scale_run):
        # mean_ntp - mean_fv = (1/n) sum_(h,i) count(h, i) gap(h, i).  A term
        # meets: the ntp loss's k subtractions l_m - log Z_m and k additions
        # (fv's k - 1 path additions and one subtraction are fewer), its
        # count product (1), the sum over the N items (N - 1), the C context
        # sums from 0.0 (C - 1), the division by n (1) and the difference of
        # the two means (1): D = 2k + N + C + 1.  The three sides, ntp, fv
        # and the gap, each have |value| <= size, so the bound is
        # gamma_D (1/n) sum count * 3 size.
        r = desk_scale_run
        worst = max(range(len(r["records"])), key=lambda e: abs(
            r["records"][e].mean_ntp_loss - r["records"][e].mean_fv_mle_loss))
        model, records = r["train"](epochs=worst + 1)
        assert records == r["records"][: worst + 1]  # the same epochs, bit for bit
        record = records[-1]
        lhs = record.mean_ntp_loss - record.mean_fv_mle_loss
        assert round(abs(lhs), 4) == 0.6178  # the red value of criterion 7c

        data, tmap = r["data"], r["tmap"]
        counts = np.zeros((model.C, tmap.n_items))
        np.add.at(counts, (data.contexts, data.items), 1.0)
        gap, size = gap_tables(model, tmap)
        rhs = weighted_mean(counts, gap, len(data))
        D = 2 * model.spec.k + tmap.n_items + model.C + 1
        u = 2.0**-53
        bound = D * u / (1 - D * u) * weighted_mean(counts, 3 * size, len(data))
        assert abs(lhs - rhs) <= bound, (lhs, rhs, bound)

    def test_7ab_kl_gap_is_minus_the_target_weighted_mean_gap(self, desk_scale_run):
        # eval_kl - eval_kl_chain = (1/C) sum_h sum_i p*(i|h) (log q_chain -
        # log q_flat) = -(1/C) sum_h sum_i p*(i|h) gap(h, i): the log p* terms
        # are the same floats in both KLs and cancel.  A term meets: the
        # chained log q's 2k roundings (the flat one's k are fewer), log p* -
        # log q (1), the product with p* (1), the N item sums (N - 1), the C
        # context sums from 0.0 (C - 1), the division by C (1) and the
        # difference of the KLs (1): D = 2k + N + C + 2.  The two KL terms
        # are at most |log p*| + size, the gap's size, so the bound is
        # gamma_D (1/C) sum p* (2 |log p*| + 3 size) over the mass the KLs sum.
        r = desk_scale_run
        model, tmap, p_star = r["trained"], r["tmap"], r["world"].p_star
        assert eval_kl(model, tmap, r["world"]) == r["final_kl"]
        lhs = r["final_kl"] - r["chain_kl"]
        assert (round(r["final_kl"], 4), round(r["chain_kl"], 4)) == (0.4495, 0.0406)

        gap, size = gap_tables(model, tmap)
        rhs = -weighted_mean(p_star, gap, model.C)
        log_p = np.log(np.where(p_star > 0.0, p_star, 1.0))
        D = 2 * model.spec.k + tmap.n_items + model.C + 2
        u = 2.0**-53
        bound = D * u / (1 - D * u) * weighted_mean(p_star, 2 * np.abs(log_p) + 3 * size, model.C)
        assert abs(lhs - rhs) <= bound, (lhs, rhs, bound)


class TestCriterion8Complexity:
    def test_8_counted_ratio_and_instrumented_counters(self):
        ref = count_softmax_ops(CodebookSpec(k=3, X=256))
        ratio_exact = (
            ref.ntp_ops == 768
            and ref.full_ops == 16777216
            and ref.ratio == 16777216 / 768
        )
        mismatches = []
        for k in (1, 2, 3):
            for X in (2, 4, 8):
                spec = CodebookSpec(k=k, X=X)
                ntp_entries, fv_entries = measure_lookup_counts(spec)
                if ntp_entries != k * X or fv_entries != k * X**k:
                    mismatches.append((k, X, ntp_entries, fv_entries))
        ok = ratio_exact and not mismatches
        detail = (
            f"(k=3, X=256) ratio = {ref.full_ops}/{ref.ntp_ops} = {ref.ratio:.2f} "
            f"(exact equality with 16777216/768: {ratio_exact}); instrumented "
            f"lookup counters matched closed forms on all 9 swept specs "
            f"(mismatches: {mismatches or 'none'})"
        )
        assert record_criterion("criterion 8 (complexity counts)", ok, detail), detail


class TestCriterion9Determinism:
    def test_9_every_subcommand_is_byte_deterministic(self, tmp_path):
        emb_cfg = {"kind": "synth", "n_items": 12, "dim": 5}
        train_cfg = {
            "seed": 0,
            "world": {"C": 2, "N": 4, "alpha": 0.5},
            "spec": {"k": 2, "X": 2},
            "form": "cascaded",
            "init": "zeros",
            "n_samples": 500,
            "lr": 0.2,
            "epochs": 2,
        }
        configs = {
            "tokenize": {
                "seed": 4, "scheme": "rq_kmeans", "k": 2, "X": 3, "mode": "probe",
                "embeddings": emb_cfg,
            },
            "verify": {"seed": 5, "trials": 6, "tolerance": 1e-10},
            "train": train_cfg,
            "bench": {"k_values": [1, 2, 3], "X_values": [2, 4]},
        }
        artifacts = {
            "tokenize": ["token_map.json", "audit.json", "tokenizer.json", "summary.json"],
            "verify": ["equivalence.csv", "summary.json"],
            "train": [
                "checkpoint_init.json", "checkpoint_final.json", "token_map.json",
                "trace.csv", "summary.json",
            ],
            "bench": ["bench_ops.csv", "summary.json"],
            "decode": ["decode.json"],
        }

        diffs = []
        outputs = {}
        for command, payload in configs.items():
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(payload))
            codes = []
            for run_tag in ("a", "b"):
                out = tmp_path / f"{command}_{run_tag}"
                codes.append(
                    cli_main([command, "--config", str(cfg_path), "--out-dir", str(out)])
                )
            if codes[0] != codes[1]:
                diffs.append(f"{command}: exit codes differ {codes}")
            outputs[command] = tmp_path

        decode_cfg = {
            "checkpoint": str(tmp_path / "train_a" / "checkpoint_final.json"),
            "token_map": str(tmp_path / "train_a" / "token_map.json"),
            "context": 0, "method": "beam", "beam_width": 4, "top_k": 3,
        }
        cfg_path = tmp_path / "decode.json"
        cfg_path.write_text(json.dumps(decode_cfg))
        for run_tag in ("a", "b"):
            out = tmp_path / f"decode_{run_tag}"
            cli_main(["decode", "--config", str(cfg_path), "--out-dir", str(out)])

        for command, names in artifacts.items():
            for name in names:
                a = (tmp_path / f"{command}_a" / name).read_bytes()
                b = (tmp_path / f"{command}_b" / name).read_bytes()
                if a != b:
                    diffs.append(f"{command}: {name} differs between identical runs")
        ok = not diffs
        detail = (
            "all five subcommands re-run with identical configs produced "
            "byte-identical artifacts" if ok else "; ".join(diffs)
        )
        assert record_criterion("criterion 9 (CLI determinism)", ok, detail), detail
