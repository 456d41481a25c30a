"""Tabular logit models: shapes, lookups, counters, and serialization."""

import ast
from pathlib import Path

import numpy as np
import pytest

from sidlab import (
    CascadedLogitModel,
    CodebookSpec,
    FormError,
    LogitModel,
    LookupCounter,
    ParallelLogitModel,
    embed_parallel_as_cascaded,
    identity_token_map,
    item_logit,
    item_logits_all,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    prefix_index_arrays,
    save_model,
    table_entry_count,
)

SPEC = CodebookSpec(k=3, X=3)


class TestConstruction:
    def test_cascaded_table_shapes(self):
        model = CascadedLogitModel.zeros(SPEC, C=2)
        assert [t.shape for t in model.tables] == [(2, 1, 3), (2, 3, 3), (2, 9, 3)]
        assert model.n_params == 2 * (3 + 9 + 27)

    def test_parallel_table_shapes(self):
        model = ParallelLogitModel.zeros(SPEC, C=2)
        assert [t.shape for t in model.tables] == [(2, 3)] * 3
        assert model.n_params == 2 * 3 * 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CascadedLogitModel(SPEC, 0, [])
        with pytest.raises(ValueError):
            CascadedLogitModel(SPEC, 1, [np.zeros((1, 1, 3))])
        bad = [np.zeros((1, 1, 3)), np.zeros((1, 3, 3)), np.zeros((1, 8, 3))]
        with pytest.raises(ValueError):
            CascadedLogitModel(SPEC, 1, bad)
        with pytest.raises(ValueError):
            ParallelLogitModel(SPEC, 1, [np.zeros((1, 4))] * 3)

    def test_random_is_seed_deterministic(self):
        a = CascadedLogitModel.random(SPEC, 2, 0.5, seed=9)
        b = CascadedLogitModel.random(SPEC, 2, 0.5, seed=9)
        c = CascadedLogitModel.random(SPEC, 2, 0.5, seed=10)
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta, tb)
        assert not np.array_equal(a.tables[0], c.tables[0])

    def test_copy_is_independent(self):
        model = CascadedLogitModel.random(SPEC, 1, 0.5, seed=0)
        clone = model.copy()
        clone.tables[0][0, 0, 0] += 1.0
        assert model.tables[0][0, 0, 0] != clone.tables[0][0, 0, 0]

    def test_zero_like_tables(self):
        model = ParallelLogitModel.random(SPEC, 2, 0.5, seed=1)
        zeros = model.zero_like_tables()
        assert all(np.all(z == 0.0) and z.shape == t.shape
                   for z, t in zip(zeros, model.tables))


class TestRowView:
    def test_every_position_reads_as_context_node_token(self):
        casc = CascadedLogitModel.zeros(SPEC, C=2)
        par = ParallelLogitModel.zeros(SPEC, C=2)
        assert [casc.rows(m).shape for m in range(3)] == [(2, 1, 3), (2, 3, 3), (2, 9, 3)]
        assert [par.rows(m).shape for m in range(3)] == [(2, 1, 3)] * 3
        assert isinstance(casc, LogitModel) and isinstance(par, LogitModel)

    def test_parallel_view_writes_reach_the_tables(self):
        model = ParallelLogitModel.zeros(SPEC, C=2)
        model.rows(1)[1, 0, 2] = 5.0
        assert model.tables[1][1, 2] == 5.0
        grads = model.zero_like_tables()
        model.rows(2, grads)[0, 0] += 1.0
        assert np.all(grads[2][0] == 1.0) and np.all(grads[2][1] == 0.0)

    def test_node_index(self):
        prefixes = np.array([0, 4, 8])
        assert CascadedLogitModel.zeros(SPEC, 1).node_index(7) == 7
        assert CascadedLogitModel.zeros(SPEC, 1).node_index(prefixes) is prefixes
        assert ParallelLogitModel.zeros(SPEC, 1).node_index(7) == 0


class _FormCompares(ast.NodeVisitor):
    """(line, enclosing function) of every comparison that reads ``x.form``."""

    def __init__(self):
        self.func = "<module>"
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        if any(isinstance(o, ast.Attribute) and o.attr == "form" for o in operands):
            self.found.append((node.lineno, self.func))
        self.generic_visit(node)


class TestOneFormSwitch:
    """New per-form forks fail here: outside ``logits.py`` a model's ``.form``
    may be compared only by the two routines that exist for parallel models
    alone."""

    ALLOWED = {("decoder.py", "mtp_decode"), ("losses.py", "sequence_log_partition_factored")}

    def test_form_is_compared_only_where_allowed(self):
        src = Path(__file__).resolve().parents[1] / "src" / "sidlab"
        offenders, allowed_seen = [], set()
        for path in sorted(src.glob("*.py")):
            if path.name == "logits.py":
                continue
            visitor = _FormCompares()
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            for line, func in visitor.found:
                if (path.name, func) in self.ALLOWED:
                    allowed_seen.add((path.name, func))
                else:
                    offenders.append(f"{path.name}:{line} in {func}")
        assert not offenders, f".form compared outside logits.py: {offenders}"
        assert allowed_seen == self.ALLOWED  # the scan does see real comparisons


class TestLookups:
    def test_node_logits_reads_the_right_row(self):
        model = CascadedLogitModel.random(SPEC, 2, 0.5, seed=3)
        for h in range(2):
            assert np.array_equal(model.node_logits(h, ()), model.tables[0][h, 0])
            assert np.array_equal(model.node_logits(h, (2,)), model.tables[1][h, 2])
            assert np.array_equal(
                model.node_logits(h, (1, 2)), model.tables[2][h, 1 * 3 + 2]
            )

    def test_parallel_ignores_prefix_value(self):
        model = ParallelLogitModel.random(SPEC, 1, 0.5, seed=4)
        assert np.array_equal(model.node_logits(0, (0, 1)), model.node_logits(0, (2, 2)))

    def test_bounds_checks(self):
        model = CascadedLogitModel.zeros(SPEC, 1)
        with pytest.raises(ValueError):
            model.node_logits(1, ())
        with pytest.raises(ValueError):
            model.node_logits(0, (0, 1, 2))  # full-length prefix has no next position
        with pytest.raises(ValueError):
            model.token_logit(0, (), 3)

    def test_token_logit_matches_node_row(self):
        model = CascadedLogitModel.random(SPEC, 1, 0.5, seed=5)
        node = model.node_logits(0, (1,))
        for t in range(3):
            assert model.token_logit(0, (1,), t) == node[t]

    def test_counter_accounting(self):
        model = CascadedLogitModel.zeros(SPEC, 1)
        model.counter = LookupCounter()
        model.node_logits(0, ())
        assert model.counter.entries == 3
        model.token_logit(0, (), 0)
        assert model.counter.entries == 4
        model.counter.reset()
        assert model.counter.entries == 0


class TestItemLogits:
    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_item_logit_is_the_path_sum(self, cls):
        model = cls.random(SPEC, 2, 0.7, seed=6)
        tmap = identity_token_map(SPEC)
        for h in range(2):
            for item in range(tmap.n_items):
                seq = tmap.forward(item)
                expect = sum(
                    model.token_logit(h, seq[:m], seq[m]) for m in range(SPEC.k)
                )
                assert item_logit(model, h, tmap, item) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_vectorized_matches_scalar(self, cls):
        model = cls.random(SPEC, 2, 0.7, seed=7)
        tmap = identity_token_map(SPEC)
        for h in range(2):
            vec = item_logits_all(model, h, tmap)
            scal = np.array([item_logit(model, h, tmap, i) for i in range(tmap.n_items)])
            assert np.allclose(vec, scal, atol=1e-13, rtol=0.0)

    def test_vectorized_counter_is_k_times_items(self):
        model = CascadedLogitModel.zeros(SPEC, 1)
        tmap = identity_token_map(SPEC)
        model.counter = LookupCounter()
        item_logits_all(model, 0, tmap)
        assert model.counter.entries == SPEC.k * tmap.n_items

    def test_prefix_index_arrays_match_spec(self):
        tmap = identity_token_map(SPEC)
        arr = prefix_index_arrays(SPEC, tmap.token_matrix)
        assert arr.shape == (SPEC.k, tmap.n_items)
        for item in range(tmap.n_items):
            seq = tmap.forward(item)
            for m in range(SPEC.k):
                assert arr[m, item] == SPEC.prefix_index(seq[:m])


class TestParallelEmbedding:
    def test_embedding_preserves_all_item_logits(self):
        par = ParallelLogitModel.random(SPEC, 2, 0.6, seed=8)
        casc = embed_parallel_as_cascaded(par)
        tmap = identity_token_map(SPEC)
        assert casc.form == "cascaded"
        for h in range(2):
            a = item_logits_all(par, h, tmap)
            b = item_logits_all(casc, h, tmap)
            assert np.allclose(a, b, atol=1e-15, rtol=0.0)

    def test_embedding_rejects_cascaded_input(self):
        with pytest.raises(FormError):
            embed_parallel_as_cascaded(CascadedLogitModel.zeros(SPEC, 1))


class TestTableEntryCount:
    @pytest.mark.parametrize("k,X,C", [(1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 2, 1)])
    def test_closed_form_matches_actual_sizes(self, k, X, C):
        spec = CodebookSpec(k=k, X=X)
        casc = CascadedLogitModel.zeros(spec, C)
        par = ParallelLogitModel.zeros(spec, C)
        assert table_entry_count(spec, C, "cascaded") == casc.n_params
        assert table_entry_count(spec, C, "parallel") == par.n_params

    def test_unknown_form(self):
        with pytest.raises(FormError):
            table_entry_count(SPEC, 1, "mystery")


class TestSerialization:
    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_json_roundtrip_is_bitwise(self, cls):
        model = cls.random(SPEC, 2, 0.5, seed=12)
        back = model_from_json_dict(model_to_json_dict(model))
        assert back.form == model.form
        assert back.spec == model.spec
        assert back.C == model.C
        for a, b in zip(model.tables, back.tables):
            assert np.array_equal(a, b)

    def test_file_roundtrip(self, tmp_path):
        model = ParallelLogitModel.random(SPEC, 1, 0.5, seed=13)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for a, b in zip(model.tables, back.tables):
            assert np.array_equal(a, b)

    def test_unknown_form_rejected(self):
        payload = model_to_json_dict(CascadedLogitModel.zeros(SPEC, 1))
        payload["form"] = "mystery"
        with pytest.raises(FormError):
            model_from_json_dict(payload)
