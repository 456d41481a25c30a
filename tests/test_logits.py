"""Tabular logit models: shapes, lookups, counters, and serialization."""

import ast
import gc
import json
import math
import random
import shutil
import tracemalloc
from fractions import Fraction
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
    TokenMap,
    beam_search,
    check_contexts,
    decoder,
    eval_kl,
    exact_topk,
    identity_token_map,
    item_logits,
    load_model,
    logits,
    losses,
    model_from_json_dict,
    model_to_json_dict,
    mtp_decode,
    prefix_index_arrays,
    sample_dataset,
    save_model,
    synth_world,
    table_entry_count,
    train_sgd,
)
from sidlab import artifacts, trainer
from reference import embed_parallel_as_cascaded, item_logit

SPEC = CodebookSpec(k=3, X=3)


def read_json(text: str):
    """``artifacts.read_json`` of the document's UTF-8 bytes, as a file holds them."""
    return artifacts.read_json(text.encode("utf-8"))


class TestConstruction:
    def test_cascaded_table_shapes(self):
        model = CascadedLogitModel.zeros(SPEC, C=2)
        assert [t.shape for t in model.tables] == [(2, 1, 3), (2, 3, 3), (2, 9, 3)]
        assert table_entry_count(SPEC, 2, model.form) == 2 * (3 + 9 + 27)

    def test_parallel_table_shapes(self):
        model = ParallelLogitModel.zeros(SPEC, C=2)
        assert [t.shape for t in model.tables] == [(2, 3)] * 3
        assert table_entry_count(SPEC, 2, model.form) == 2 * 3 * 3

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

    def test_zeros_of_the_same_form_match_the_tables(self):
        model = ParallelLogitModel.random(SPEC, 2, 0.5, seed=1)
        zeros = type(model).zeros(SPEC, 2).tables
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
        grads = ParallelLogitModel.zeros(SPEC, C=2)
        grads.rows(2)[0, 0] += 1.0
        assert np.all(grads.tables[2][0] == 1.0) and np.all(grads.tables[2][1] == 0.0)

    def test_node_index(self):
        prefixes = np.array([0, 4, 8])
        assert CascadedLogitModel.zeros(SPEC, 1).node_index(7) == 7
        assert CascadedLogitModel.zeros(SPEC, 1).node_index(prefixes) is prefixes
        assert ParallelLogitModel.zeros(SPEC, 1).node_index(7) == 0


class _Finder(ast.NodeVisitor):
    """(line, enclosing function) of every node a subclass picks."""

    def __init__(self):
        self.func = "<module>"
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer


class _FormCompares(_Finder):
    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        if any(isinstance(o, ast.Attribute) and o.attr == "form" for o in operands):
            self.found.append((node.lineno, self.func))
        self.generic_visit(node)


class _BuiltinSums(_Finder):
    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self.found.append((node.lineno, self.func))
        self.generic_visit(node)


class _KernelPlumbing(_Finder):
    """An import of ``subprocess`` or ``tempfile``, the name ``CDLL``, a
    ``warn`` call, and the text of a kernel's fallback warning."""

    def visit_Import(self, node):
        if any(alias.name in ("subprocess", "tempfile") for alias in node.names):
            self.found.append((node.lineno, self.func))

    def visit_ImportFrom(self, node):
        if node.module in ("subprocess", "tempfile"):
            self.found.append((node.lineno, self.func))

    def visit_Name(self, node):
        if node.id in ("CDLL", "warn"):
            self.found.append((node.lineno, self.func))

    def visit_Attribute(self, node):
        if node.attr in ("CDLL", "warn"):
            self.found.append((node.lineno, self.func))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and "kernel unavailable" in node.value:
            self.found.append((node.lineno, self.func))


def scan_package(finder, allowed, skip=()):
    """Sites ``finder`` picks in src/sidlab outside ``allowed`` (file, function)
    pairs, and the allowed pairs it did see."""
    src = Path(__file__).resolve().parents[1] / "src" / "sidlab"
    offenders, allowed_seen = [], set()
    for path in sorted(src.glob("*.py")):
        if path.name in skip:
            continue
        visitor = finder()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        for line, func in visitor.found:
            if (path.name, func) in allowed:
                allowed_seen.add((path.name, func))
            else:
                offenders.append(f"{path.name}:{line} in {func}")
    return offenders, allowed_seen


class TestOneFormSwitch:
    """New per-form forks fail here: outside ``logits.py`` a model's ``.form``
    may be compared only by the two routines that exist for parallel models
    alone."""

    ALLOWED = {("decoder.py", "mtp_decode"), ("losses.py", "sequence_log_partition_factored")}

    def test_form_is_compared_only_where_allowed(self):
        offenders, allowed_seen = scan_package(_FormCompares, self.ALLOWED, skip={"logits.py"})
        assert not offenders, f".form compared outside logits.py: {offenders}"
        assert allowed_seen == self.ALLOWED  # the scan does see real comparisons


class TestOneKernelLoader:
    """Only ``_native.py`` runs the compiler, loads a library or warns that a
    kernel is unavailable; each kernel's user calls its ``load``."""

    ALLOWED = {("_native.py", "<module>"), ("_native.py", "library"), ("_native.py", "load")}

    def test_only_native_builds_loads_or_warns(self):
        offenders, allowed_seen = scan_package(_KernelPlumbing, self.ALLOWED)
        assert not offenders, f"kernel build, load or warning outside _native.py: {offenders}"
        assert allowed_seen == self.ALLOWED  # the scan does see the real sites


class TestNoBuiltinSum:
    """From Python 3.12 builtin ``sum()`` of floats is compensated, so a float
    sum written with it gives other bits on other interpreters.  Builtin
    ``sum`` may only add integers, at these sites; float sums add left to
    right from 0.0."""

    ALLOWED = {
        ("logits.py", "table_entry_count"),
        ("tokenizer.py", "encode_pq"),  # sum(model.subspace_dims)
    }

    def test_builtin_sum_only_adds_integers(self):
        offenders, allowed_seen = scan_package(_BuiltinSums, self.ALLOWED)
        assert not offenders, f"builtin sum() outside the integer allow-list: {offenders}"
        assert allowed_seen == self.ALLOWED  # the scan does see real calls


class TestPathSumsUnderCompensatedSum:
    """The modules' ``sum`` swapped for ``math.fsum``, a compensated sum like
    Python 3.12's: path sums must still match the left-to-right additions of
    ``item_logits`` and ``beam_search`` bit for bit."""

    @pytest.fixture(autouse=True)
    def compensated_sum(self, monkeypatch):
        for module in (logits, decoder, losses):
            monkeypatch.setattr(module, "sum", math.fsum, raising=False)

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_item_logit_equals_item_logits_all(self, cls):
        for seed in range(20):
            spec = CodebookSpec(k=3 + seed % 2, X=2 + seed % 3)
            model = cls.random(spec, 2, 2.0, seed=seed)
            tmap = identity_token_map(spec)
            table = item_logits(model, tmap, slice(None))
            for h, i in np.ndindex(table.shape):
                assert item_logit(model, h, tmap, i) == table[h, i]

    def test_mtp_equals_exhaustive_beam(self):
        for seed in range(40):
            spec = CodebookSpec(k=3 + seed % 2, X=2 + seed % 3)
            model = ParallelLogitModel.random(spec, 2, 2.0, seed=seed)
            n = spec.sequence_space_size
            for h in range(2):
                mtp = mtp_decode(model, h, n)
                beam = beam_search(model, h, beam_width=n, top_k=n)
                assert [(s.sequence, s.score) for s in mtp] == [
                    (s.sequence, s.score) for s in beam
                ]


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

    def test_counter_accounting(self):
        model = CascadedLogitModel.zeros(SPEC, 1)
        model.counter = LookupCounter()
        model.node_logits(0, ())
        assert model.counter.entries == 3
        model.node_logits(0, (2,))
        assert model.counter.entries == 6
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
                    float(model.rows(m)[h, model.node_index(SPEC.prefix_index(seq[:m])), seq[m]])
                    for m in range(SPEC.k)
                )
                assert item_logit(model, h, tmap, item) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_vectorized_matches_scalar(self, cls):
        model = cls.random(SPEC, 2, 0.7, seed=7)
        tmap = identity_token_map(SPEC)
        for h in range(2):
            vec = item_logits(model, tmap, slice(h, h + 1))
            scal = np.array([[item_logit(model, h, tmap, i) for i in range(tmap.n_items)]])
            assert np.array_equal(vec, scal)

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_all_contexts_equal_the_one_context_slices_bitwise(self, cls):
        model = cls.random(CodebookSpec(k=3, X=4), 5, 3.0, seed=9)
        identity = identity_token_map(model.spec)
        probe = TokenMap(model.spec, identity.token_matrix[::-3], "probe")
        for tmap in (identity, probe):
            whole = item_logits(model, tmap, slice(None))
            parts = np.vstack([item_logits(model, tmap, slice(h, h + 1)) for h in range(5)])
            assert whole.shape == (5, tmap.n_items)
            assert whole.tobytes() == parts.tobytes()

    def test_vectorized_counter_is_k_times_items(self):
        model = CascadedLogitModel.zeros(SPEC, 3)
        tmap = identity_token_map(SPEC)
        model.counter = LookupCounter()
        item_logits(model, tmap, slice(0, 1))
        assert model.counter.entries == SPEC.k * tmap.n_items
        item_logits(model, tmap, slice(None))
        assert model.counter.entries == (1 + 3) * SPEC.k * tmap.n_items  # one context, then all three

    @pytest.mark.parametrize("read", [
        lambda model, tmap: item_logits(model, tmap, slice(None)),
        lambda model, tmap: exact_topk(model, 1, tmap, 2),
        lambda model, tmap: check_contexts(model, tmap, [[0], [3]]),
    ], ids=["item_logits", "exact_topk", "check_contexts"])
    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_a_map_of_another_spec_is_refused(self, cls, read):
        # a k=2, X=2 map on a k=2, X=4 model used to read a sub-tree of its rows
        model = cls.random(CodebookSpec(k=2, X=4), 2, 1.0, seed=1)
        with pytest.raises(ValueError, match="does not match model spec"):
            read(model, identity_token_map(CodebookSpec(k=2, X=2)))

    def test_prefix_index_arrays_match_spec(self):
        tmap = identity_token_map(SPEC)
        arr = prefix_index_arrays(SPEC, tmap.token_matrix)
        assert arr.shape == (SPEC.k, tmap.n_items)
        for item in range(tmap.n_items):
            seq = tmap.forward(item)
            for m in range(SPEC.k):
                assert arr[m, item] == SPEC.prefix_index(seq[:m])


class TestOnePathSumSite:
    """Each routine that needs item path sums takes them for all its
    contexts in one ``item_logits`` call, so a per-context loop fails here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counted(model, tmap, contexts):
            seen.append(contexts)
            return logits.item_logits(model, tmap, contexts)

        for module in (trainer, losses, decoder):
            monkeypatch.setattr(module, "item_logits", counted)
        return seen

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_one_call_per_routine(self, cls, calls):
        model = cls.random(SPEC, 4, 1.0, seed=2)
        tmap = identity_token_map(SPEC)
        world = synth_world(4, tmap.n_items, 0.5, seed=3)
        eval_kl(model, tmap, world)
        check_contexts(model, tmap, np.zeros((4, 3), dtype=np.int64))
        exact_topk(model, 2, tmap, 5)
        assert calls == [slice(None), slice(None), slice(2, 3)]
        calls.clear()
        train_sgd(model, tmap, sample_dataset(world, 300, seed=4), 0.1, 3, seed=5, world=world)
        assert calls == [slice(None)] * 3  # one per epoch's metrics


class TestParallelEmbedding:
    def test_embedding_preserves_all_item_logits(self):
        par = ParallelLogitModel.random(SPEC, 2, 0.6, seed=8)
        casc = embed_parallel_as_cascaded(par)
        tmap = identity_token_map(SPEC)
        assert casc.form == "cascaded"
        a = item_logits(par, tmap, slice(None))
        b = item_logits(casc, tmap, slice(None))
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
        assert table_entry_count(spec, C, "cascaded") == sum(t.size for t in casc.tables)
        assert table_entry_count(spec, C, "parallel") == sum(t.size for t in par.tables)

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_params_rejected(self, bad):
        payload = model_to_json_dict(CascadedLogitModel.random(SPEC, 2, 0.5, seed=14))
        payload["params"][-1][5] = bad
        with pytest.raises(ValueError, match="finite"):
            model_from_json_dict(payload)

    @pytest.mark.parametrize(
        "params",
        [[["0.5", True]], [[True, False]], [[0.5, True]], [[[0.5, False]]], [[0.5, None]],
         [[0.5, 10**400]]],
        ids=["string", "bool", "bool_among_floats", "nested_bool", "null", "huge_int"],
    )
    def test_non_numeric_params_rejected(self, params):
        payload = {"form": "parallel", "k": 1, "X": 2, "C": 1, "params": params}
        with pytest.raises(ValueError, match="must be numbers"):
            model_from_json_dict(payload)

    def test_integer_params_load_as_floats(self):
        payload = {"form": "parallel", "k": 1, "X": 2, "C": 1, "params": [[1, -2]]}
        (table,) = model_from_json_dict(payload).tables
        assert table.dtype == np.float64 and table.tolist() == [[1.0, -2.0]]

    @pytest.mark.parametrize(
        "key,value",
        [("k", 1.9), ("k", 1.0), ("k", True), ("X", "2"), ("X", 2.0), ("C", 1.5), ("C", None)],
        ids=["k_float", "k_integral_float", "k_bool", "X_string", "X_integral_float",
             "C_float", "C_null"],
    )
    def test_headers_must_be_json_integers(self, key, value):
        payload = {"form": "parallel", "k": 1, "X": 2, "C": 1, "params": [[0.1, 0.2]]}
        model_from_json_dict(payload)  # the valid header loads
        payload[key] = value
        with pytest.raises(ValueError, match="must be a JSON integer"):
            model_from_json_dict(payload)


@pytest.fixture(scope="module")
def floats_kernel():
    """The compiled JSON float reader; skipped only where there is no C compiler."""
    loaded = artifacts._floats_kernel()
    if loaded is None and shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert loaded is not None, "cc is on PATH but the JSON float kernel did not load"
    return loaded


def plain(value):
    """``value`` with every float64 array turned back into a list of floats."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value


# tokens the reader must leave to json: the array that holds one reads as json.loads reads it
DECLINED = ["1", "-0", "true", "false", "null", "NaN", "Infinity", "-Infinity", "+1.0", "01.0",
            "-01.5", "1.", ".5", "-.5", "1.e5", "0x1p3", "1e", "1.5e+", "1.5E-", "- 1.5",
            '"1.5"', "[1.5]", "[]", "{}", "1.5 1.5", "", "\u00e9"]


def near_halfway_strings(count: int, seed: int) -> list[str]:
    """``count`` strings w * 10^q with 19 digits in w and |q| <= 27, each off the
    halfway point between two doubles by less than half a 64-bit ulp.  The
    long double value of each rounds onto the halfway point, and rounding that
    to double goes to the even neighbour, whichever side the string lies on."""
    rnd = random.Random(seed)
    found = []
    while len(found) < count:
        value = rnd.uniform(1.0, 10.0) * 10.0 ** rnd.randint(-8, 45)
        ulp = Fraction(math.ulp(value))
        halfway = Fraction(value) + ulp / 2
        q = math.floor(math.log10(value)) - 18
        w = round(halfway / Fraction(10) ** q)
        if 10**18 <= w < 10**19 and 0 < abs(w * Fraction(10) ** q - halfway) < ulp / 2**12:
            found.append(f"{w}e{q}")
    return found


class TestCheckpointReader:
    """read_json reads arrays of JSON floats through the compiled
    kernel, to the bits of json.loads, and leaves every other array to json."""

    def assert_same_bits(self, tokens, sep=", "):
        doc = "[" + sep.join(tokens) + "]"
        got = read_json(doc)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.tobytes() == np.array(json.loads(doc), dtype=np.float64).tobytes()

    def test_kernel_loads_where_cc_exists(self, floats_kernel):
        assert artifacts._floats_kernel() is floats_kernel

    def test_random_bit_patterns(self, floats_kernel):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        self.assert_same_bits([repr(v) for v in values[np.isfinite(values)].tolist()])

    def test_gauss_reprs_and_short_exponent_strings(self, floats_kernel):
        rnd = random.Random(1)
        values = [rnd.gauss(0.0, 1.0) * 10.0 ** rnd.randint(-300, 300) for _ in range(20_000)]
        self.assert_same_bits([repr(v) for v in values], sep=",\n      ")
        for digits in range(0, 21):
            self.assert_same_bits([f"{v:.{digits}e}" for v in values[:2_000]], sep=" ,\t")

    def test_values_the_long_double_path_reads(self, floats_kernel):
        # at most 19 significant digits times 10^q, |q| <= 27; nine in ten
        # random bit patterns fall outside that and go to strtod
        rnd = random.Random(2)
        values = [rnd.gauss(0.0, 1.0) * 10.0 ** rnd.randint(-12, 12) for _ in range(100_000)]
        self.assert_same_bits([repr(v) for v in values])
        for digits in range(20):
            self.assert_same_bits([f"{v:.{digits}e}" for v in values[:5_000]])

    def test_strings_within_half_a_long_double_ulp_of_a_halfway_point(self, floats_kernel):
        self.assert_same_bits(near_halfway_strings(3_000, seed=3))

    @pytest.mark.parametrize("token", artifacts._HARD_FLOATS + (
        "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308", "1e23",
        "9007199254740993.0", "-0.0", "1e400", "1e-400", "-1e400", "4.9406564584124654E-324",
        "0.0e0", "123456789012345678901234567890.5"))
    def test_hard_cases(self, floats_kernel, token):
        self.assert_same_bits([token])
        self.assert_same_bits(["0.5", token, "-2.5"])

    @pytest.mark.parametrize("token", DECLINED)
    def test_declined_tokens_read_as_json_loads_reads_them(self, floats_kernel, token):
        for doc in (f"[{token}]", f"[0.5, {token}]", f"[{token}, 0.5]", f"[0.5,{token},]"):
            try:
                want = json.loads(doc)
            except ValueError:
                with pytest.raises(ValueError):
                    read_json(doc)
                continue
            got = read_json(doc)
            assert isinstance(got, list)  # declined: json read the outer array
            assert repr(plain(got)) == repr(want)

    def test_a_document_that_is_not_ascii_reads_as_json_loads_reads_it(self, floats_kernel):
        doc = '{"form": "caf\u00e9", "params": [[0.5, 1.5]]}'
        assert read_json(doc) == json.loads(doc)

    @pytest.mark.parametrize("depth", [5_000, 100_000])
    def test_nesting_too_deep_is_a_value_error(self, floats_kernel, depth):
        with pytest.raises(ValueError, match="nested too deeply"):
            read_json("[" * depth + "]" * depth)

    @pytest.mark.parametrize("cls", [CascadedLogitModel, ParallelLogitModel])
    def test_checkpoints_load_to_the_bits_of_json_loads(self, tmp_path, floats_kernel, cls):
        model = cls.random(SPEC, 3, 2.0, seed=15)
        model.tables[-1].flat[:6] = (5e-324, -0.0, 1.7976931348623157e308, 1e-300, 0.0, 3.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        want = model_from_json_dict(json.loads(path.read_text()))
        got = load_model(path)
        assert got.form == want.form and got.C == want.C
        for a, b in zip(got.tables, want.tables):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_checkpoint_tables_are_kept_without_a_copy(self, floats_kernel):
        payload = read_json(json.dumps(model_to_json_dict(
            CascadedLogitModel.random(SPEC, 2, 1.0, seed=16))))
        model = model_from_json_dict(payload)
        assert all(np.shares_memory(t, p) for t, p in zip(model.tables, payload["params"]))


# arrays of equal-length rows of JSON integers, which read_rows reads to the table of json.loads
ROWS_READ = ["[[0, 1], [2, 0], [2, 0]]", "[ [0 ,1] ,\n\t[ 2,0 ]\r\n, [-0, 2]]", "[[5]]",
             "[[0, -1, 999999999999999999], [-999999999999999999, 7, 3]]"]
# and arrays it declines, which read as json.loads reads them
ROWS_DECLINED = ["[[0, 1], [2]]", "[]", "[[]]", "[[], []]", "[[0, 1.0]]", "[[0, 1e0]]",
                 "[[0, 1000000000000000000]]", "[[0, -1000000000000000000]]", "[[0, true]]",
                 "[[false, 1]]", "[[0, [1]]]", "[[[0, 1]], [[2, 0]]]", "[[0, null]]", '[[0, "1"]]',
                 "[[0, 1], 2]", "[0, [1, 2]]"]


class TestTableReader:
    """read_json reads an array of equal-length rows of JSON integers into one
    int64 table, and leaves every other array to json."""

    @pytest.mark.parametrize("doc", ROWS_READ)
    def test_rows_read_to_the_table_of_json_loads(self, floats_kernel, doc):
        got = read_json(doc)
        want = np.array(json.loads(doc))
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("doc", ROWS_DECLINED)
    def test_declined_rows_read_as_json_loads_reads_them(self, floats_kernel, doc):
        got = read_json(doc)
        assert isinstance(got, list)
        assert repr(plain(got)) == repr(json.loads(doc))

    @pytest.mark.parametrize("spec", [CodebookSpec(k=1, X=2), CodebookSpec(k=3, X=16),
                                      CodebookSpec(k=2, X=100)], ids=str)
    def test_token_maps_read_to_the_table_of_json_loads(self, tmp_path, floats_kernel, spec):
        identity = identity_token_map(spec)
        table = identity.token_matrix
        rng = np.random.default_rng(spec.X)
        # a probe map whose rows repeat other rows
        probe = TokenMap(spec, np.vstack([table, table[rng.integers(0, len(table), 7)]]), "probe")
        for tmap in (identity, probe):
            path = tmp_path / "map.json"
            tmap.save(path)
            text = path.read_text()
            got = read_json(text)["forward"]
            want = np.array(json.loads(text)["forward"])
            assert got.dtype == want.dtype == np.int64 and got.tobytes() == want.tobytes()
            loaded = TokenMap.load(path)
            assert loaded.token_matrix.tobytes() == tmap.token_matrix.tobytes()
            assert loaded.mode == tmap.mode

    @pytest.mark.parametrize("form", ["parallel", "cascaded"])
    def test_integer_checkpoint_rows_load_to_the_tables_of_json_loads(self, floats_kernel, form):
        # a parallel checkpoint's tables have one length each, so read_rows reads "params"
        params = [[1, -2, 0], [3, 4, -5]] if form == "parallel" else [[1, -2], [3, 4, -5, 6]]
        doc = json.dumps({"form": form, "k": 2, "X": 2 if form == "cascaded" else 3, "C": 1,
                          "params": params})
        got, want = model_from_json_dict(read_json(doc)), model_from_json_dict(json.loads(doc))
        for a, b in zip(got.tables, want.tables):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_no_buffer_outlives_a_parse(self, tmp_path, floats_kernel):
        # the scanner's closure refers to itself, so each parse leaves a cycle
        # that only the garbage collector frees; it must not hold the buffers
        spec = CodebookSpec(k=3, X=16)  # the sizes of the decode-mix benchmark's inputs
        save_model(CascadedLogitModel.random(spec, 8, 1.0, seed=18), tmp_path / "model.json")
        identity_token_map(spec).save(tmp_path / "map.json")
        texts = [(tmp_path / name).read_text() for name in ("model.json", "map.json")]
        for text in texts:
            read_json(text)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                for text in texts:
                    read_json(text)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert grown < 2 * 2**20


# the kernel with each value that strtod reads built by multiplying digits in
# double, which does not round correctly, with integers accepted, or with every
# long double result rounded to double, halfway points included
NAIVE_STRTOD = """
static double naive_strtod(const char *s, char **end)
{
    double sign = 1.0, value = 0.0, scale = 1.0;
    int exp = 0, esign = 1;
    if (*s == '-') { sign = -1.0; s++; }
    for (; *s >= '0' && *s <= '9'; s++) value = value * 10.0 + (*s - '0');
    if (*s == '.')
        for (s++; *s >= '0' && *s <= '9'; s++) { value = value * 10.0 + (*s - '0'); scale *= 10.0; }
    if (*s == 'e' || *s == 'E') {
        s++;
        if (*s == '+' || *s == '-') esign = *s++ == '-' ? -1 : 1;
        for (; *s >= '0' && *s <= '9'; s++) exp = exp * 10 + (*s - '0');
    }
    for (; exp > 0; exp--) scale = esign > 0 ? scale / 10.0 : scale * 10.0;
    *end = (char *)s;
    return sign * value / scale;
}

"""


class TestFloatsKernelLoad:
    """The kernel is checked at load, and without it checkpoints read as before."""

    @pytest.mark.parametrize(
        "edits",
        [[("static const char *number", NAIVE_STRTOD + "static const char *number"),
          ("strtod(start, &parsed)", "naive_strtod(start, &parsed)")],
         [("if (p == whole)", "if (0)")],
         [("(significand & 0x7ff) != 0x400", "1")]],
        ids=["digits_multiplied_in_double", "integers_accepted", "halfway_points_rounded_twice"],
    )
    def test_a_kernel_with_other_values_is_refused_at_load(
        self, tmp_path, monkeypatch, floats_kernel, edits
    ):
        code = artifacts._FLOATS_SOURCE.read_text()
        for old, new in edits:
            assert code.count(old) == 1
            code = code.replace(old, new)
        source = tmp_path / "_floats.c"
        source.write_text(code)
        monkeypatch.setattr(artifacts, "_FLOATS_SOURCE", source)
        with pytest.warns(RuntimeWarning, match="JSON float kernel unavailable, its self-check"):
            assert artifacts._floats_kernel.__wrapped__() is None

    def test_without_a_kernel_checkpoints_read_with_json_loads(self, monkeypatch):
        monkeypatch.setattr(artifacts, "_floats_kernel", lambda: None)
        doc = json.dumps(model_to_json_dict(ParallelLogitModel.random(SPEC, 2, 1.0, seed=17)))
        assert repr(read_json(doc)) == repr(json.loads(doc))
        with pytest.raises(ValueError, match="nested too deeply"):
            read_json("[" * 100_000 + "]" * 100_000)
