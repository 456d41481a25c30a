"""Synthetic worlds, sampling, SGD training, and the KL evaluations."""

import csv
import math
import os
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from sidlab import (
    CascadedLogitModel,
    CodebookSpec,
    Dataset,
    DivergenceError,
    EpochRecord,
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
    write_csv,
)
from sidlab import _native, cli, trainer
from sidlab.trainer import _python_epoch


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
        with pytest.raises(ValueError, match="lr must be >= 0, got nan"):
            train_sgd(model, tmap, data, lr=math.nan, epochs=1, seed=0)
        with pytest.raises(ValueError):
            train_sgd(model, tmap, data, lr=0.1, epochs=0, seed=0)
        probe = TokenMap(spec, [(0, 0), (0, 1), (1, 0), (1, 1)], "probe")
        with pytest.raises(ValueError):
            train_sgd(model, probe, data, lr=0.1, epochs=1, seed=0)

    def test_lr_zero_leaves_tables_bit_identical(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.random(spec, 2, 0.5, seed=3)
        trained, records = train_sgd(model, tmap, data, lr=0.0, epochs=3, seed=0, world=world)
        for a, b in zip(model.tables, trained.tables):
            assert np.array_equal(a, b)
        assert len({rec.kl for rec in records}) == 1

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
        _, records = train_sgd(model, tmap, data, lr=0.0, epochs=1, seed=0, world=world)
        direct = np.mean([ntp_loss(model, h, tmap, i) for h, i in zip(data.contexts.tolist(), data.items.tolist())])
        assert records[0].mean_ntp_loss == pytest.approx(float(direct), abs=1e-12)

    def test_training_improves_on_the_zero_init(self):
        # plain constant-lr SGD converges within the first epoch here and then
        # jitters, so compare against the untrained model rather than epoch 1
        spec, tmap, world, data = self.small_setup(seed=5, n=800)
        model = CascadedLogitModel.zeros(spec, 2)
        loss_at_init = math.log(spec.sequence_space_size)
        kl_at_init = eval_kl(model, tmap, world)
        _, records = train_sgd(model, tmap, data, lr=0.1, epochs=8, seed=1, world=world)
        assert records[-1].mean_ntp_loss < loss_at_init - 0.3
        assert records[-1].kl < kl_at_init

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
        trained, records = train_sgd(model, tmap, data, lr=0.1, epochs=6, seed=2, world=world)
        assert records[-1].mean_ntp_loss < records[0].mean_ntp_loss
        # for a parallel model the two mean losses are the same number
        for rec in records:
            assert rec.mean_ntp_loss == pytest.approx(rec.mean_fv_mle_loss, abs=1e-10)

    def test_parallel_training_is_pinned_bit_for_bit(self):
        spec = CodebookSpec(k=3, X=3)
        tmap = identity_token_map(spec)
        world = synth_world(2, 27, 0.6, seed=6)
        data = sample_dataset(world, 800, seed=7)
        model = ParallelLogitModel.random(spec, 2, 0.5, seed=3)
        _, records = train_sgd(model, tmap, data, lr=0.1, epochs=4, seed=2, world=world)
        last = records[-1]
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

    def test_out_of_range_samples_rejected(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        for contexts, items in [([0, 2], [0, 1]), ([0, -1], [0, 1]), ([0, 1], [0, 4]), ([0, 1], [-1, 0])]:
            with pytest.raises(ValueError):
                train_sgd(model, tmap, Dataset(contexts, items), lr=0.1, epochs=1, seed=0)
        for other in [CodebookSpec(k=2, X=3), CodebookSpec(k=3, X=2)]:
            with pytest.raises(ValueError, match="does not match model spec"):
                train_sgd(model, identity_token_map(other), Dataset([0, 1], [0, 3]), lr=0.1, epochs=1, seed=0)
            for evaluate in (eval_kl, eval_kl_chain):
                with pytest.raises(ValueError, match="does not match model spec"):
                    evaluate(model, identity_token_map(other), world)

    @pytest.mark.parametrize(
        "C,N", [(1, 4), (3, 4), (2, 3), (2, 8)],
        ids=["fewer_contexts", "more_contexts", "fewer_items", "more_items"],
    )
    def test_world_must_match_the_model_and_map(self, C, N):
        # a world of fewer contexts used to average the KL over those alone
        spec, tmap, _, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        world = synth_world(C, N, 0.6, seed=0)
        with pytest.raises(ValueError, match="p_star shape"):
            train_sgd(model, tmap, data, lr=0.1, epochs=1, seed=0, world=world)
        for evaluate in (eval_kl, eval_kl_chain):
            with pytest.raises(ValueError, match="p_star shape"):
                evaluate(model, tmap, world)

    def test_kl_is_nan_without_a_world(self):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        _, records = train_sgd(model, tmap, data, lr=0.1, epochs=2, seed=0)
        assert all(math.isnan(rec.kl) for rec in records)

    def test_trace_csv_layout(self, tmp_path):
        spec, tmap, world, data = self.small_setup()
        model = CascadedLogitModel.zeros(spec, 2)
        _, records = train_sgd(model, tmap, data, lr=0.1, epochs=3, seed=0, world=world)
        path = tmp_path / "trace.csv"
        write_csv(path, cli._columns(EpochRecord, records))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "mean_ntp_loss", "mean_fv_mle_loss", "kl"]
        assert len(rows) == 4
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3]
        assert float(rows[3][3]) == pytest.approx(records[-1].kl, abs=1e-15)


@pytest.fixture(scope="module")
def kernel():
    """The compiled epoch kernel; skipped only where there is no C compiler."""
    loaded = trainer._sgd_kernel()
    if loaded is None and shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert loaded is not None, "cc is on PATH but the SGD kernel did not load"
    return loaded


def library_of(sgd_epoch):
    """A stand-in for ``_native.library`` whose every library holds ``sgd_epoch``."""
    return lambda source: types.SimpleNamespace(sgd_epoch=sgd_epoch)


def train_both(monkeypatch, kernel, *args, **kwargs):
    """train_sgd through the kernel, then through the Python loop.

    Each result is (model, records), or the DivergenceError message.
    """
    results = []
    for loaded in (kernel, None):
        monkeypatch.setattr(trainer, "_sgd_kernel", lambda loaded=loaded: loaded)
        try:
            results.append(train_sgd(*args, **kwargs))
        except DivergenceError as exc:
            results.append(str(exc))
    return results


def assert_same_training(a, b):
    model_a, records_a = a
    model_b, records_b = b
    assert all(np.array_equal(x, y) for x, y in zip(model_a.tables, model_b.tables))
    assert records_a == records_b


def splits(C):
    """The worker counts every split is tested at: 1, 2, 3 and one per context."""
    return sorted({1, 2, 3, C})


class TestCompiledEpoch:
    """The compiled epoch must reproduce the Python loop bit for bit."""

    def test_kernel_loads_where_cc_exists(self, kernel):
        assert trainer._sgd_kernel() is kernel

    def test_importing_sidlab_leaves_the_kernel_module_unloaded(self):
        # importing the cli and the three kernels' modules starts no thread,
        # imports no pool, and builds or loads none of the three kernels,
        # which commands that never train, fit or read a checkpoint would pay
        # for in start-up time and memory
        code = ("import sys, threading, sidlab.cli, sidlab.trainer, sidlab.tokenizer,"
                " sidlab.artifacts; print('sidlab._native' in sys.modules,"
                " 'subprocess' in sys.modules, threading.active_count(),"
                " 'concurrent.futures' in sys.modules,"
                " sidlab.trainer._sgd_kernel.cache_info().currsize,"
                " sidlab.tokenizer._means_kernel.cache_info().currsize,"
                " sidlab.artifacts._floats_kernel.cache_info().currsize)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["False", "False", "1", "False", "0", "0", "0"]

    def test_desk_config_two_epochs(self, monkeypatch, kernel):
        # every split of C contexts into W blocks, C not divisible by W included,
        # against one Python loop run per form and C
        spec = CodebookSpec(k=3, X=4)
        tmap = identity_token_map(spec)
        rng = np.random.default_rng(0)
        world_seed, data_seed, shuffle_seed, _ = (int(v) for v in rng.integers(0, 2**31, size=4))
        for C in (1, 3, 4, 5):
            world = synth_world(C, 64, 0.3, world_seed)
            data = sample_dataset(world, 100_000, data_seed)
            for cls in (CascadedLogitModel, ParallelLogitModel):
                model = cls.zeros(spec, C)
                monkeypatch.setattr(trainer, "_sgd_kernel", lambda: None)
                want = train_sgd(model, tmap, data, 0.1, 2, shuffle_seed, world=world)
                monkeypatch.setattr(trainer, "_sgd_kernel", lambda: kernel)
                for W in splits(C):
                    monkeypatch.setattr(trainer, "_workers", lambda C, W=W: W)
                    got = train_sgd(model, tmap, data, 0.1, 2, shuffle_seed, world=world)
                    assert_same_training(got, want)

    @pytest.mark.parametrize("form", ["cascaded", "parallel"])
    @pytest.mark.parametrize("lr", [0.0, 0.1, 3.0])
    def test_random_specs(self, monkeypatch, kernel, form, lr):
        cls = {"cascaded": CascadedLogitModel, "parallel": ParallelLogitModel}[form]
        rng = np.random.default_rng(int(lr * 10) + len(form))
        for case in range(6):
            spec = CodebookSpec(k=int(rng.integers(1, 4)), X=int(rng.integers(2, 6)))
            C = int(rng.integers(1, 4))
            tmap = identity_token_map(spec)
            world = synth_world(C, spec.sequence_space_size, 0.5, seed=case)
            data = sample_dataset(world, 200, seed=case)
            if case % 2:
                model = cls.random(spec, C, 1.0, seed=case)
            else:
                model = cls.zeros(spec, C)
            a, b = train_both(monkeypatch, kernel, model, tmap, data, lr, 2, seed=case, world=world)
            assert_same_training(a, b)

    @pytest.mark.parametrize("form", ["cascaded", "parallel"])
    def test_infinite_lr_diverges_at_the_same_epoch(self, monkeypatch, kernel, form):
        cls = {"cascaded": CascadedLogitModel, "parallel": ParallelLogitModel}[form]
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        world = synth_world(2, 9, 0.5, seed=1)
        data = sample_dataset(world, 100, seed=2)
        a, b = train_both(
            monkeypatch, kernel, cls.zeros(spec, 2), tmap, data, float("inf"), 3, seed=0, world=world
        )
        assert a == b == "mean epoch loss became non-finite at epoch 1"

    @pytest.mark.parametrize("form", ["cascaded", "parallel"])
    def test_many_samples_over_few_pairs(self, monkeypatch, kernel, form):
        # one pair repeated 10k times among 4 distinct pairs, shuffled together
        cls = {"cascaded": CascadedLogitModel, "parallel": ParallelLogitModel}[form]
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        world = synth_world(2, 9, 0.5, seed=3)
        contexts = np.concatenate([np.zeros(10_000, dtype=np.int64), [1, 0, 1] * 400])
        items = np.concatenate([np.full(10_000, 4), [8, 2, 0] * 400])
        data = Dataset(contexts, items)
        model = cls.random(spec, 2, 0.5, seed=4)
        a, b = train_both(monkeypatch, kernel, model, tmap, data, 0.1, 2, seed=5, world=world)
        assert_same_training(a, b)

    @pytest.mark.parametrize("form", ["cascaded", "parallel"])
    def test_fewer_samples_than_pairs(self, monkeypatch, kernel, form):
        # 40 samples over C * n_items = 192 pairs: most pairs are never visited
        cls = {"cascaded": CascadedLogitModel, "parallel": ParallelLogitModel}[form]
        spec = CodebookSpec(k=3, X=4)
        tmap = identity_token_map(spec)
        world = synth_world(3, 64, 0.5, seed=6)
        data = sample_dataset(world, 40, seed=7)
        model = cls.random(spec, 3, 1.0, seed=8)
        a, b = train_both(monkeypatch, kernel, model, tmap, data, 0.3, 3, seed=9, world=world)
        assert_same_training(a, b)

    @pytest.mark.parametrize("form", ["cascaded", "parallel"])
    @pytest.mark.parametrize("lr", [0.1, 1e308, math.inf])
    def test_one_epoch_equals_the_python_loop_byte_for_byte(self, kernel, form, lr):
        # every other row of both positions gets one of the edge rows below;
        # NaN rows defeat array_equal, so the tables are compared as bytes
        inf, nan, tiny = math.inf, math.nan, 5e-324
        edge_rows = [
            (0.5, 0.5, -1.0, 0.5),  # tied maxima
            (0.0, -0.0, -0.0, 0.0),  # signed zeros: every shifted logit is +-0.0
            (-0.0, -1.0, -0.0, -2.0),
            (tiny, tiny, -tiny, 0.0),  # subnormals
            (2.2e-308, -tiny, 1e-310, 2.2e-308),
            (-inf, 1.0, 2.0, 2.0),
            (-inf, -inf, -inf, -inf),  # inf - inf at every entry
            (inf, 3.1, 4.3, 4.8),  # the only maximum is +inf
            (1.0, inf, 0.0, inf),
            (-inf, inf, 2.0, -inf),
            (nan, 1.0, 2.0, 3.0),  # NaN first: the maximum is NaN
            (1.0, nan, 2.0, 0.5),  # NaN later: skipped by the maximum, not by exp
            (1e308, -1e308, 1e308, 0.0),  # a shifted logit of -inf
        ]
        cls = {"cascaded": CascadedLogitModel, "parallel": ParallelLogitModel}[form]
        spec, C = CodebookSpec(k=2, X=4), len(edge_rows)
        tmap = identity_token_map(spec)
        start = cls.random(spec, C, 1.0, seed=11)
        slots = [(m, h, node) for m in range(spec.k) for h, node in np.ndindex(start.rows(m).shape[:2])]
        slots = slots[::2][: len(edge_rows)]
        assert len(slots) == len(edge_rows)
        for (m, h, node), values in zip(slots, edge_rows):
            start.rows(m)[h, node] = values
        rng = np.random.default_rng(12)
        pairs = np.arange(C * tmap.n_items)  # every (context, item) pair at least once
        pairs = np.concatenate([pairs, rng.integers(0, len(pairs), 300)])
        data = Dataset(contexts=pairs // tmap.n_items, items=pairs % tmap.n_items)
        order = rng.permutation(len(data))
        py = start.copy()
        _python_epoch(py, tmap, data, lr)(order)
        for W in splits(C):
            kern = start.copy()
            trainer._epoch(kernel, kern, tmap, data, lr, W)(order)
            assert [t.tobytes() for t in kern.tables] == [t.tobytes() for t in py.tables]
        m, h, node = slots[edge_rows.index((inf, 3.1, 4.3, 4.8))]
        assert np.isnan(py.rows(m)[h, node]).all()

    @pytest.mark.parametrize(
        "contexts,items",
        [([0] * 10_000 + [1, 1, 0], [4] * 10_000 + [8, 4, 0]), ([2, 0, 1, 0, 2], [7, 7, 3, 7, 0])],
        ids=["repeated_pair", "sparse_pairs"],
    )
    def test_index_table_has_one_row_per_distinct_pair(self, contexts, items):
        # one worker per context: worker h trains pair rows [lo, hi), one per
        # distinct pair of context h, and the ranges tile the index tables
        spec = CodebookSpec(k=2, X=3)
        data = Dataset(contexts, items)
        model = CascadedLogitModel.zeros(spec, 3)
        calls = []

        def recorder(tabs, off, tok, order, n, k, X, lr, es, lo, hi):
            calls.append((lo, hi, n))

        trainer._epoch(recorder, model, identity_token_map(spec), data, 0.1, 3)(np.arange(len(data)))
        pairs = set(zip(data.contexts.tolist(), data.items.tolist()))
        per_context = [sum(h == c for h, _ in pairs) for c in range(3)]
        assert sorted(calls) == [
            (sum(per_context[:c]), sum(per_context[: c + 1]), len(data)) for c in range(3)
        ]

    def test_python_fallback_gives_the_pinned_parallel_run(self, monkeypatch):
        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: None)
        spec = CodebookSpec(k=3, X=3)
        tmap = identity_token_map(spec)
        world = synth_world(2, 27, 0.6, seed=6)
        data = sample_dataset(world, 800, seed=7)
        model = ParallelLogitModel.random(spec, 2, 0.5, seed=3)
        _, records = train_sgd(model, tmap, data, lr=0.1, epochs=4, seed=2, world=world)
        last = records[-1]
        assert last.mean_ntp_loss == last.mean_fv_mle_loss == 3.0419141272121353
        assert last.kl == 0.4650074007004259

    def test_worker_count_follows_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert [trainer._workers(C) for C in (1, 2, 3, 8)] == [1, 2, 3, 3]

    def test_strided_tables_train_like_contiguous_ones(self, monkeypatch, kernel):
        # the kernel trains contiguous copies of the rows, so any layout of
        # the model's tables gives the Python loop's bits
        spec = CodebookSpec(k=1, X=2)
        strided = np.arange(8.0).reshape(2, 4)[:, ::2]
        model = ParallelLogitModel(spec, 2, [strided])
        data = Dataset(contexts=[0, 1, 1, 0], items=[1, 0, 1, 1])
        world = synth_world(2, 2, 0.5, seed=0)
        a, b = train_both(monkeypatch, kernel, model, identity_token_map(spec), data, 0.1, 2, seed=0,
                          world=world)
        assert_same_training(a, b)

    def test_wrong_kernel_fails_the_self_check_and_is_not_used(self, monkeypatch, kernel):
        def doubled_lr(tabs, off, tok, order, n, k, X, lr, es, lo, hi):
            kernel(tabs, off, tok, order, n, k, X, 2 * lr, es, lo, hi)

        monkeypatch.setattr(_native, "library", library_of(doubled_lr))
        with pytest.warns(RuntimeWarning, match="self-check"):
            assert trainer._sgd_kernel.__wrapped__() is None
        monkeypatch.setattr(_native, "library", library_of(kernel))
        assert trainer._sgd_kernel.__wrapped__() is kernel


class TestEpochThreads:
    """Kernel threads end with train_sgd, and their errors reach its caller."""

    def case(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        world = synth_world(3, 9, 0.5, seed=1)
        return CascadedLogitModel.zeros(spec, 3), tmap, sample_dataset(world, 300, seed=2)

    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(trainer, "_workers", lambda C: 3)

    def test_no_thread_outlives_a_normal_return(self, monkeypatch, kernel):
        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: kernel)
        before = threading.active_count()
        _, records = train_sgd(*self.case(), lr=0.1, epochs=4, seed=0)
        assert len(records) == 4
        assert threading.active_count() == before

    def test_no_thread_outlives_a_divergence(self, monkeypatch, kernel):
        # epoch 1's loss is non-finite, so its threads have ended and epoch 2 never starts
        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: kernel)
        before = threading.active_count()
        with pytest.raises(DivergenceError, match="epoch 1"):
            train_sgd(*self.case(), lr=math.inf, epochs=3, seed=0)
        assert threading.active_count() == before

    def test_a_kernel_error_reaches_the_caller_after_every_thread_ends(self, monkeypatch, kernel):
        # block 0 raises on the calling thread; the threads run the real kernel to the end
        def failing(tabs, off, tok, order, n, k, X, lr, es, lo, hi):
            if lo == 0:
                raise ZeroDivisionError("block 0")
            kernel(tabs, off, tok, order, n, k, X, lr, es, lo, hi)

        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: failing)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="block 0"):
            train_sgd(*self.case(), lr=0.1, epochs=3, seed=0)
        assert threading.active_count() == before

    def test_a_thread_error_reaches_the_caller_after_every_thread_ends(self, monkeypatch, kernel):
        # the threads' blocks raise; the caller's block 0 runs the real kernel to the end
        def failing(tabs, off, tok, order, n, k, X, lr, es, lo, hi):
            if lo != 0:
                raise ZeroDivisionError("thread block")
            kernel(tabs, off, tok, order, n, k, X, lr, es, lo, hi)

        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: failing)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="thread block"):
            train_sgd(*self.case(), lr=0.1, epochs=3, seed=0)
        assert threading.active_count() == before

    def test_a_raising_kernel_is_refused_at_load_with_its_own_error(self, monkeypatch, kernel):
        # a kernel of the old signature fails in every block with a TypeError,
        # which the warning names, not as a self-check difference
        def old_signature(tabs, off, tok, order, n, k, X, lr, es):
            kernel(tabs, off, tok, order, n, k, X, lr, es, 0, 0)

        monkeypatch.setattr(_native, "library", library_of(old_signature))
        before = threading.active_count()
        with pytest.warns(RuntimeWarning, match="TypeError") as caught:
            assert trainer._sgd_kernel.__wrapped__() is None
        assert "self-check" not in str(caught[0].message)
        assert threading.active_count() == before

    def test_the_caller_trains_block_0_and_threads_the_others(self, monkeypatch, kernel):
        calls = []

        def recording(tabs, off, tok, order, n, k, X, lr, es, lo, hi):
            calls.append((lo, threading.current_thread()))
            kernel(tabs, off, tok, order, n, k, X, lr, es, lo, hi)

        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: recording)
        train_sgd(*self.case(), lr=0.1, epochs=2, seed=0)
        caller = threading.current_thread()
        assert len(calls) == 6
        for lo, thread in calls:
            if lo == 0:
                assert thread is caller
            else:
                assert thread.name == "sidlab-sgd" and thread is not caller

    def test_one_block_starts_no_thread(self, monkeypatch, kernel):
        monkeypatch.setattr(trainer, "_workers", lambda C: 1)
        before = threading.active_count()
        seen = []

        def recording(tabs, off, tok, order, n, k, X, lr, es, lo, hi):
            seen.append(threading.active_count())
            kernel(tabs, off, tok, order, n, k, X, lr, es, lo, hi)

        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: recording)
        train_sgd(*self.case(), lr=0.1, epochs=2, seed=0)
        assert seen == [before, before]

    @pytest.mark.parametrize("W", [1, 2])
    def test_a_divergence_stops_at_its_own_epoch(self, monkeypatch, kernel, W):
        # W kernel calls per epoch: epoch 1 diverges, and no call of epoch 2 is made
        monkeypatch.setattr(trainer, "_workers", lambda C: W)
        calls = []

        def counting(tabs, off, tok, order, n, k, X, lr, es, lo, hi):
            calls.append(lo)
            kernel(tabs, off, tok, order, n, k, X, lr, es, lo, hi)

        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: counting)
        with pytest.raises(DivergenceError, match="at epoch 1$"):
            train_sgd(*self.case(), lr=math.inf, epochs=3, seed=0)
        assert len(calls) == W

    def test_the_python_loop_stops_at_the_diverging_epoch(self, monkeypatch):
        monkeypatch.setattr(trainer, "_sgd_kernel", lambda: None)
        epochs = []
        python_epoch = trainer._python_epoch

        def counting(*args):
            run = python_epoch(*args)

            def counted(order):
                epochs.append(order)
                run(order)

            return counted

        monkeypatch.setattr(trainer, "_python_epoch", counting)
        with pytest.raises(DivergenceError, match="at epoch 1$"):
            train_sgd(*self.case(), lr=math.inf, epochs=3, seed=0)
        assert len(epochs) == 1

    def test_the_self_check_runs_two_workers_on_any_host(self, monkeypatch, kernel):
        # one CPU would make train_sgd's split one block; the check still splits in two
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        ranges = set()

        def recording(tabs, off, tok, order, n, k, X, lr, es, lo, hi):
            ranges.add((lo, hi))
            kernel(tabs, off, tok, order, n, k, X, lr, es, lo, hi)

        assert trainer._matches_python(recording)
        assert len(ranges) == 2 and all(lo < hi for lo, hi in ranges)


class TestKernelBuild:
    """Where ``_native.library`` builds a kernel library and which one it loads."""

    @pytest.fixture()
    def source(self, tmp_path, kernel):
        # a library cached by an earlier run loads without cc, but these tests build
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        src = tmp_path / "pkg" / "_sgd.c"
        src.parent.mkdir()
        shutil.copy(trainer._SGD_SOURCE, src)
        return src

    @staticmethod
    def built_epoch(source):
        """``sgd_epoch`` of the library built from ``source``, with its signature."""
        fn = _native.library(source).sgd_epoch
        fn.restype, fn.argtypes = trainer._SGD_SIGNATURES["sgd_epoch"]
        return fn

    def test_built_once_under_the_hash_of_source_and_flags(self, source):
        assert trainer._matches_python(self.built_epoch(source))
        (lib,) = (source.parent / "__pycache__").iterdir()
        assert lib.name.startswith("_sgd-") and lib.suffix == ".so"
        assert len(lib.stem) == len("_sgd-") + 16
        built = lib.stat().st_mtime_ns
        _native.library(source)
        assert [p.name for p in lib.parent.iterdir()] == [lib.name]
        assert lib.stat().st_mtime_ns == built
        # an edited source never loads the old library, and its build removes it
        source.write_text(source.read_text() + "/* edited */\n")
        _native.library(source)
        names = [p.name for p in lib.parent.iterdir()]
        assert len(names) == 1 and names[0] != lib.name and names[0].startswith("_sgd-")

    def test_a_build_removes_only_the_other_builds_of_its_source(self, source, monkeypatch):
        cache = source.parent / "__pycache__"
        cache.mkdir()
        kept = ["_floats-0123456789abcdef.so", "._sgd-in-flight.so", "_sgd-notes.txt"]
        for name in kept + ["_sgd-0123456789abcdef.so", "_sgd-fedcba9876543210.so"]:
            (cache / name).write_bytes(b"")
        # a stale file that a concurrent build removes first is skipped
        listed = Path.glob

        def glob_then_remove(self, pattern):
            found = list(listed(self, pattern))
            (cache / "_sgd-fedcba9876543210.so").unlink()
            return found

        monkeypatch.setattr(Path, "glob", glob_then_remove)
        assert trainer._matches_python(self.built_epoch(source))
        built = sorted(p.name for p in cache.iterdir() if p.name not in kept)
        assert len(built) == 1 and built[0].startswith("_sgd-") and built[0].endswith(".so")
        assert len(built[0]) == len("_sgd-.so") + 16 and all((cache / n).exists() for n in kept)

    def test_unwritable_cache_builds_in_a_temporary_directory(self, source, monkeypatch):
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        assert trainer._matches_python(self.built_epoch(source))
        cache = source.parent / "__pycache__"
        assert not cache.exists() or not any(cache.iterdir())

    def test_build_failure_raises(self, source):
        source.write_text("this is not C\n")
        with pytest.raises(Exception):
            _native.library(source)
        assert not any((source.parent / "__pycache__").iterdir())
