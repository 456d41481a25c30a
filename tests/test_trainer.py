"""Synthetic worlds, sampling, SGD training, and the KL evaluations."""

import csv
import math

import numpy as np
import pytest

from sidlab import (
    CascadedLogitModel,
    CodebookSpec,
    Dataset,
    DivergenceError,
    ParallelLogitModel,
    SyntheticWorld,
    TokenMap,
    beam_search,
    eval_kl,
    eval_kl_chain,
    identity_token_map,
    ntp_loss,
    sample_dataset,
    synth_world,
    train_sgd,
)


class TestSyntheticWorld:
    def test_rows_are_distributions(self):
        world = synth_world(4, 16, alpha=0.3, seed=0)
        assert world.p_star.shape == (4, 16)
        assert np.all(world.p_star >= 0.0)
        assert np.allclose(world.p_star.sum(axis=1), 1.0, atol=1e-12, rtol=0.0)

    def test_deterministic_and_frozen(self):
        a = synth_world(3, 5, 0.7, seed=21)
        b = synth_world(3, 5, 0.7, seed=21)
        assert np.array_equal(a.p_star, b.p_star)
        assert a.p_star[0, 0] == pytest.approx(0.1866943273854512, abs=1e-15)
        assert a.p_star[0, 4] == pytest.approx(0.5175250444646925, abs=1e-15)

    def test_uniform_mode_is_exact(self):
        world = synth_world(2, 8, alpha=1.0, seed=0, uniform=True)
        assert np.all(world.p_star == 1.0 / 8)

    def test_small_alpha_concentrates(self):
        sharp = synth_world(1, 32, alpha=0.05, seed=1)
        flat = synth_world(1, 32, alpha=50.0, seed=1)
        assert sharp.p_star.max() > flat.p_star.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_world(0, 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_world(1, 1, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_world(1, 4, -1.0, seed=0)
        with pytest.raises(ValueError):
            SyntheticWorld(C=1, N=2, p_star=np.array([[0.6, 0.6]]), seed=0)
        with pytest.raises(ValueError):
            SyntheticWorld(C=1, N=2, p_star=np.array([[1.2, -0.2]]), seed=0)


class TestSampleDataset:
    def test_deterministic_and_frozen(self):
        world = synth_world(3, 5, 0.7, seed=21)
        ds = sample_dataset(world, 10, seed=5)
        assert ds.contexts.tolist() == [2, 2, 0, 2, 1, 1, 1, 0, 2, 0]
        assert ds.items.tolist() == [2, 2, 0, 1, 4, 3, 1, 3, 4, 4]

    def test_values_in_range(self):
        world = synth_world(4, 8, 0.5, seed=2)
        ds = sample_dataset(world, 500, seed=3)
        assert len(ds) == 500
        assert ds.contexts.min() >= 0 and ds.contexts.max() < 4
        assert ds.items.min() >= 0 and ds.items.max() < 8

    def test_empirical_frequencies_approach_p_star(self):
        world = synth_world(2, 6, 1.0, seed=4)
        ds = sample_dataset(world, 40000, seed=5)
        for h in range(2):
            items = ds.items[ds.contexts == h]
            freq = np.bincount(items, minlength=6) / len(items)
            assert np.max(np.abs(freq - world.p_star[h])) < 0.02

    def test_zero_probability_items_never_drawn(self):
        p = np.array([[0.5, 0.0, 0.5, 0.0]])
        world = SyntheticWorld(C=1, N=4, p_star=p, seed=0)
        ds = sample_dataset(world, 5000, seed=6)
        assert set(np.unique(ds.items).tolist()) <= {0, 2}

    def test_validation(self):
        world = synth_world(1, 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_dataset(world, 0, seed=0)
        with pytest.raises(ValueError):
            Dataset(contexts=np.zeros(3), items=np.zeros(2))


class TestEvalKl:
    def test_uniform_model_gives_log_n_minus_entropy(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        world = synth_world(3, 9, 0.8, seed=7)
        model = CascadedLogitModel.zeros(spec, 3)
        want = 0.0
        for h in range(3):
            p = world.p_star[h]
            mask = p > 0
            entropy = -(p[mask] * np.log(p[mask])).sum()
            want += math.log(9) - entropy
        want /= 3
        assert eval_kl(model, tmap, world) == pytest.approx(want, abs=1e-12)
        assert eval_kl_chain(model, tmap, world) == pytest.approx(want, abs=1e-12)

    def test_perfect_parallel_factorized_world_reaches_zero(self):
        # build p* as an exact product of per-position marginals, then write
        # those marginals into a parallel model's tables as log probabilities
        spec = CodebookSpec(k=2, X=2)
        tmap = identity_token_map(spec)
        marg = [np.array([0.3, 0.7]), np.array([0.9, 0.1])]
        p = np.outer(marg[0], marg[1]).reshape(1, 4)
        world = SyntheticWorld(C=1, N=4, p_star=p, seed=0)
        model = ParallelLogitModel(
            spec, 1, [np.log(marg[0])[None, :], np.log(marg[1])[None, :]]
        )
        assert eval_kl(model, tmap, world) == pytest.approx(0.0, abs=1e-12)
        assert eval_kl_chain(model, tmap, world) == pytest.approx(0.0, abs=1e-12)

    def test_flat_and_chain_views_differ_for_cascaded_tables(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        world = synth_world(2, 9, 0.4, seed=8)
        model = CascadedLogitModel.random(spec, 2, 0.8, seed=8)
        flat = eval_kl(model, tmap, world)
        chain = eval_kl_chain(model, tmap, world)
        assert abs(flat - chain) > 1e-3


class TestTrainSgd:
    def small_setup(self, seed=0, C=2, alpha=0.6, n=400):
        spec = CodebookSpec(k=2, X=2)
        tmap = identity_token_map(spec)
        world = synth_world(C, spec.sequence_space_size, alpha, seed=seed)
        data = sample_dataset(world, n, seed=seed + 1)
        return spec, tmap, world, data

    def test_validation(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        with pytest.raises(ValueError):
            train_sgd(model, tmap, data, lr=-0.1, epochs=1, seed=0)
        with pytest.raises(ValueError):
            train_sgd(model, tmap, data, lr=0.1, epochs=0, seed=0)
        probe = TokenMap(spec, [(0, 0), (0, 1), (1, 0), (1, 1)], "probe")
        with pytest.raises(ValueError):
            train_sgd(model, probe, data, lr=0.1, epochs=1, seed=0)

    def test_lr_zero_leaves_tables_bit_identical(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.random(spec, 2, 0.5, seed=3)
        trained, trace = train_sgd(model, tmap, data, lr=0.0, epochs=3, seed=0, world=world)
        for a, b in zip(model.tables, trained.tables):
            assert np.array_equal(a, b)
        assert len({rec.kl for rec in trace.records}) == 1

    def test_input_model_is_not_modified(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        before = [t.copy() for t in model.tables]
        train_sgd(model, tmap, data, lr=0.3, epochs=2, seed=0)
        for a, b in zip(before, model.tables):
            assert np.array_equal(a, b)

    def test_trace_mean_matches_direct_dataset_mean(self):
        # with lr = 0 the parameters never move, so the end-of-epoch mean must
        # equal the plain average of per-sample losses at the initial tables
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.random(spec, 2, 0.4, seed=4)
        _, trace = train_sgd(model, tmap, data, lr=0.0, epochs=1, seed=0, world=world)
        direct = np.mean([ntp_loss(model, h, tmap, i) for h, i in data.pairs()])
        assert trace.records[0].mean_ntp_loss == pytest.approx(float(direct), abs=1e-12)

    def test_training_improves_on_the_zero_init(self):
        # plain constant-lr SGD converges within the first epoch here and then
        # jitters, so compare against the untrained model rather than epoch 1
        spec, tmap, world, data = self.small_setup(seed=5, n=800)
        model = CascadedLogitModel.zeros(spec, 2)
        loss_at_init = math.log(spec.sequence_space_size)
        kl_at_init = eval_kl(model, tmap, world)
        _, trace = train_sgd(model, tmap, data, lr=0.1, epochs=8, seed=1, world=world)
        assert trace.records[-1].mean_ntp_loss < loss_at_init - 0.3
        assert trace.records[-1].kl < kl_at_init

    def test_training_is_seed_deterministic(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        t1, _ = train_sgd(model, tmap, data, lr=0.2, epochs=3, seed=9)
        t2, _ = train_sgd(model, tmap, data, lr=0.2, epochs=3, seed=9)
        t3, _ = train_sgd(model, tmap, data, lr=0.2, epochs=3, seed=10)
        for a, b in zip(t1.tables, t2.tables):
            assert np.array_equal(a, b)
        assert any(
            not np.array_equal(a, b) for a, b in zip(t1.tables, t3.tables)
        )

    def test_parallel_form_trains_too(self):
        spec, tmap, world, data = self.small_setup(seed=6, n=800)
        model = ParallelLogitModel.zeros(spec, 2)
        trained, trace = train_sgd(model, tmap, data, lr=0.1, epochs=6, seed=2, world=world)
        assert trace.records[-1].mean_ntp_loss < trace.records[0].mean_ntp_loss
        # for a parallel model the two mean losses are the same number
        for rec in trace.records:
            assert rec.mean_ntp_loss == pytest.approx(rec.mean_fv_mle_loss, abs=1e-10)

    def test_parallel_training_is_pinned_bit_for_bit(self):
        spec = CodebookSpec(k=3, X=3)
        tmap = identity_token_map(spec)
        world = synth_world(2, 27, 0.6, seed=6)
        data = sample_dataset(world, 800, seed=7)
        model = ParallelLogitModel.random(spec, 2, 0.5, seed=3)
        _, trace = train_sgd(model, tmap, data, lr=0.1, epochs=4, seed=2, world=world)
        last = trace.records[-1]
        assert last.mean_ntp_loss == 3.0419141272121353
        assert last.mean_fv_mle_loss == 3.0419141272121353
        assert last.kl == 0.4650074007004259

    def test_near_deterministic_world_recovers_top_items(self):
        spec = CodebookSpec(k=2, X=2)
        tmap = identity_token_map(spec)
        eps = 0.01
        p = np.array(
            [
                [1 - 3 * eps, eps, eps, eps],
                [eps, eps, 1 - 3 * eps, eps],
            ]
        )
        world = SyntheticWorld(C=2, N=4, p_star=p, seed=0)
        data = sample_dataset(world, 1000, seed=7)
        model = CascadedLogitModel.zeros(spec, 2)
        trained, _ = train_sgd(model, tmap, data, lr=0.5, epochs=50, seed=3, world=world)
        for h, want_item in [(0, 0), (1, 2)]:
            (best,) = beam_search(trained, h, beam_width=4, top_k=1)
            assert tmap.inverse(best.sequence) == want_item

    def test_divergence_guard_fires_on_non_finite_math(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        with pytest.raises(DivergenceError):
            train_sgd(model, tmap, data, lr=float("inf"), epochs=1, seed=0)

    def test_kl_is_nan_without_a_world(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        _, trace = train_sgd(model, tmap, data, lr=0.1, epochs=2, seed=0)
        assert all(math.isnan(rec.kl) for rec in trace.records)

    def test_trace_csv_layout(self, tmp_path):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        _, trace = train_sgd(model, tmap, data, lr=0.1, epochs=3, seed=0, world=world)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "mean_ntp_loss", "mean_fv_mle_loss", "kl"]
        assert len(rows) == 4
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3]
        assert float(rows[3][3]) == pytest.approx(trace.records[-1].kl, abs=1e-15)
