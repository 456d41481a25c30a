"""Vocabulary layout, token maps, and bijection audits."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidlab import (
    BijectionReport,
    CodebookSpec,
    CollisionError,
    CoverageError,
    MalformedSequenceError,
    TokenMap,
    audit_bijection,
    identity_token_map,
    prefix_index_arrays,
    write_json,
)


class TestCodebookSpec:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            CodebookSpec(k=0, X=4)
        with pytest.raises(ValueError):
            CodebookSpec(k=2, X=1)
        with pytest.raises(ValueError):
            CodebookSpec(k=40, X=16)  # 16**40 blows the 2**31 cap

    def test_sequence_space_size(self):
        assert CodebookSpec(k=1, X=2).sequence_space_size == 2
        assert CodebookSpec(k=3, X=4).sequence_space_size == 64
        assert CodebookSpec(k=2, X=17).sequence_space_size == 289

    def test_first_token_is_most_significant(self):
        spec = CodebookSpec(k=2, X=4)
        rows = identity_token_map(spec).token_matrix.tolist()
        assert rows[7] == [1, 3]
        assert spec.sequence_to_index((1, 3)) == 7
        assert rows[0] == [0, 0]
        assert rows[15] == [3, 3]

    @pytest.mark.parametrize("k,X", [(1, 2), (2, 3), (3, 4), (4, 2)])
    def test_index_roundtrip_over_full_space(self, k, X):
        spec = CodebookSpec(k=k, X=X)
        seen = set()
        for idx, seq in enumerate(map(tuple, identity_token_map(spec).token_matrix.tolist())):
            assert len(seq) == k
            assert all(0 <= t < X for t in seq)
            assert spec.sequence_to_index(seq) == idx
            seen.add(seq)
        assert len(seen) == spec.sequence_space_size

    def test_identity_rows_are_lexicographic(self):
        seqs = identity_token_map(CodebookSpec(k=2, X=3)).token_matrix.tolist()
        assert seqs == sorted(seqs)
        assert seqs[0] == [0, 0]
        assert seqs[-1] == [2, 2]
        assert len(seqs) == 9

    @pytest.mark.parametrize("k,X", [(1, 2), (1, 5), (2, 3), (3, 4), (4, 2)])
    def test_iter_sequences_matches_index_to_sequence(self, k, X):
        """Row i of the identity table, which enumerates the sequence space, is
        the base-X digits of i, first token most significant."""
        spec = CodebookSpec(k=k, X=X)
        digits = np.unravel_index(np.arange(spec.sequence_space_size), (X,) * k)
        assert np.array_equal(identity_token_map(spec).token_matrix, np.stack(digits, axis=1))

    def test_prefix_index_matches_truncated_encoding(self):
        spec = CodebookSpec(k=3, X=4)
        assert spec.prefix_index(()) == 0
        for seq in map(tuple, identity_token_map(spec).token_matrix.tolist()):
            for m in range(spec.k):
                prefix = seq[:m]
                expect = 0
                for t in prefix:
                    expect = expect * spec.X + t
                assert spec.prefix_index(prefix) == expect

    def test_validate_sequence(self):
        spec = CodebookSpec(k=2, X=3)
        assert spec.validate_sequence([1, 2]) == (1, 2)
        with pytest.raises(MalformedSequenceError):
            spec.validate_sequence((1,))
        with pytest.raises(MalformedSequenceError):
            spec.validate_sequence((1, 2, 0))
        with pytest.raises(MalformedSequenceError):
            spec.validate_sequence((1, 3))
        with pytest.raises(MalformedSequenceError):
            spec.validate_sequence((-1, 0))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        X=st.integers(min_value=2, max_value=7),
        data=st.data(),
    )
    def test_roundtrip_property(self, k, X, data):
        spec = CodebookSpec(k=k, X=X)
        idx = data.draw(st.integers(min_value=0, max_value=spec.sequence_space_size - 1))
        seq = tuple(identity_token_map(spec).token_matrix[idx].tolist())
        assert spec.sequence_to_index(seq) == idx


class TestTokenMap:
    def test_identity_map_is_strict_and_complete(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = identity_token_map(spec)
        assert tmap.mode == "strict"
        assert tmap.n_items == 9
        assert tmap.forward(0) == (0, 0)
        assert tmap.forward(5) == (1, 2)
        for item in range(9):
            assert tmap.inverse(tmap.forward(item)) == item

    def test_strict_collision_raises_with_details(self):
        spec = CodebookSpec(k=1, X=2)
        with pytest.raises(CollisionError) as exc:
            TokenMap(spec, [(0,), (0,)], "strict")
        assert exc.value.item_a == 0
        assert exc.value.item_b == 1
        assert exc.value.sequence == (0,)

    def test_strict_coverage_raises(self):
        spec = CodebookSpec(k=2, X=2)
        with pytest.raises(CoverageError):
            TokenMap(spec, [(0, 0), (0, 1), (1, 0)], "strict")

    def test_probe_accepts_collisions_and_partial_coverage(self):
        spec = CodebookSpec(k=2, X=2)
        tmap = TokenMap(spec, [(0, 1), (0, 1), (1, 1)], "probe")
        assert tmap.n_items == 3
        # colliding sequence resolves to the lowest item id
        assert tmap.inverse((0, 1)) == 0
        assert tmap.inverse((1, 1)) == 2
        assert tmap.inverse((0, 0)) is None

    def test_empty_and_bad_mode_rejected(self):
        spec = CodebookSpec(k=1, X=2)
        with pytest.raises(ValueError):
            TokenMap(spec, [], "strict")
        with pytest.raises(ValueError):
            TokenMap(spec, [(0,)], "lenient")

    def test_forward_bounds(self):
        tmap = identity_token_map(CodebookSpec(k=1, X=3))
        with pytest.raises(ValueError):
            tmap.forward(-1)
        with pytest.raises(ValueError):
            tmap.forward(3)

    def test_token_matrix_matches_forward(self):
        spec = CodebookSpec(k=3, X=2)
        tmap = identity_token_map(spec)
        mat = tmap.token_matrix
        assert mat.shape == (8, 3)
        assert mat.dtype == np.int64
        for item in range(8):
            assert tuple(mat[item]) == tmap.forward(item)
        with pytest.raises(ValueError):
            mat[0, 0] = 1  # cached matrix is read-only

    def test_prefix_indices_are_cached_and_read_only(self):
        spec = CodebookSpec(k=3, X=2)
        tmap = identity_token_map(spec)
        arr = tmap.prefix_indices
        assert arr is tmap.prefix_indices
        assert np.array_equal(arr, prefix_index_arrays(spec, tmap.token_matrix))
        with pytest.raises(ValueError):
            arr[1, 0] = 1

    def test_json_roundtrip(self):
        spec = CodebookSpec(k=2, X=3)
        tmap = TokenMap(spec, [(0, 1), (2, 2), (0, 1)], "probe")
        clone = TokenMap.from_json_dict(tmap.to_json_dict())
        assert clone.spec == tmap.spec
        assert clone.mode == "probe"
        assert [clone.forward(i) for i in range(3)] == [tmap.forward(i) for i in range(3)]

    def test_save_load_file(self, tmp_path):
        tmap = identity_token_map(CodebookSpec(k=2, X=2))
        path = tmp_path / "map.json"
        tmap.save(path)
        payload = json.loads(path.read_text())
        assert payload["mode"] == "strict"
        clone = TokenMap.load(path)
        assert [clone.forward(i) for i in range(4)] == [tmap.forward(i) for i in range(4)]

    @pytest.mark.parametrize(
        "forward",
        [[[0, 1], [1, 1.5]], [[0, 1], [1, 1.0]], [[0, 1], [1]], [[0, 1], [1, 0, 1]], [[0, "1"]],
         [[True, False]], [[0, 2]], [[-1, 0]], [[0, 2**70]]],
        ids=["float", "integral_float", "short_row", "long_row", "string", "bool", "high",
             "negative", "huge"],
    )
    def test_malformed_tables_rejected(self, forward):
        payload = {"k": 2, "X": 2, "mode": "probe", "forward": forward}
        with pytest.raises(MalformedSequenceError):
            TokenMap.from_json_dict(payload)

    @pytest.mark.parametrize(
        "key,value",
        [("k", 1.9), ("k", True), ("k", 2.0), ("X", "2"), ("X", 2.0), ("X", None)],
        ids=["k_float", "k_bool", "k_integral_float", "X_string", "X_integral_float", "X_null"],
    )
    def test_headers_must_be_json_integers(self, key, value):
        payload = {"k": 2, "X": 2, "mode": "probe", "forward": [[0, 1], [1, 0]]}
        TokenMap.from_json_dict(payload)  # the valid header loads
        payload[key] = value
        with pytest.raises(ValueError, match="must be a JSON integer"):
            TokenMap.from_json_dict(payload)

    def test_items_and_forward_yield_python_ints(self):
        table = np.array([[2, 1], [0, 2]], dtype=np.uint8)
        tmap = TokenMap(CodebookSpec(k=2, X=3), table, "probe")
        assert list(tmap.items()) == [(0, (2, 1)), (1, (0, 2))]
        assert all(type(t) is int for _, seq in tmap.items() for t in seq + tmap.forward(1))
        assert tmap.token_matrix.dtype == np.int64

    def test_inverse_of_a_sparse_map_over_a_huge_space(self):
        # the inverse is sorted over the items, never dense over X**k = 2**31 sequences
        top = 2**31 - 1
        tmap = TokenMap(CodebookSpec(k=1, X=2**31), [(top,), (0,), (top,)], "probe")
        assert tmap.inverse((top,)) == 0
        assert tmap.inverse((0,)) == 1
        assert tmap.inverse((5,)) is None


def reference_map(spec, forward, mode):
    """Dict-and-tuple model of a TokenMap: (error fields or None, inverse dict)."""
    inverse = {}
    for item, seq in enumerate(forward):
        prior = inverse.setdefault(seq, item)
        if prior != item and mode == "strict":
            return ("collision", prior, item, seq), None
    if mode == "strict" and len(forward) != spec.sequence_space_size:
        return ("coverage", spec.sequence_space_size, len(forward)), None
    return None, inverse


@st.composite
def token_maps(draw):
    """(spec, forward, mode) with k <= 3, X <= 4 and up to 2 X**k items."""
    spec = CodebookSpec(k=draw(st.integers(1, 3)), X=draw(st.integers(2, 4)))
    space = list(map(tuple, identity_token_map(spec).token_matrix.tolist()))
    if draw(st.booleans()):
        # a bijection with a few rows overwritten: zero, one or several collision groups
        forward = draw(st.permutations(space))
        for _ in range(draw(st.integers(0, 4))):
            forward[draw(st.integers(0, len(space) - 1))] = draw(st.sampled_from(space))
    else:
        forward = draw(st.lists(st.sampled_from(space), min_size=1, max_size=2 * len(space)))
    return spec, forward, draw(st.sampled_from(["strict", "probe"]))


class TestTokenMapParity:
    @settings(max_examples=300, deadline=None)
    @given(case=token_maps())
    def test_matches_the_dict_and_tuple_reference(self, case):
        spec, forward, mode = case
        error, inverse = reference_map(spec, forward, mode)
        if error and error[0] == "collision":
            with pytest.raises(CollisionError) as exc:
                TokenMap(spec, forward, mode)
            assert (exc.value.item_a, exc.value.item_b, exc.value.sequence) == error[1:]
            assert str(exc.value) == "items {} and {} collide on sequence {}".format(*error[1:])
            return
        if error:
            with pytest.raises(CoverageError) as exc:
                TokenMap(spec, forward, mode)
            assert str(exc.value).endswith("exactly X**k = {} items, got {}".format(*error[1:]))
            return
        tmap = TokenMap(spec, forward, mode)
        assert list(tmap.items()) == list(enumerate(forward))
        for seq in map(tuple, identity_token_map(spec).token_matrix.tolist()):
            assert tmap.inverse(seq) == inverse.get(seq)
        distinct = len(set(forward))
        utilization = [len({seq[m] for seq in forward}) / spec.X for m in range(spec.k)]
        assert audit_bijection(tmap).to_json_dict() == {
            "n_items": len(forward),
            "n_distinct_sequences": distinct,
            "collision_count": len(forward) - distinct,
            "per_position_utilization": utilization,
            "collapse_flags": [u < 0.75 for u in utilization],
            "is_bijective_onto_product": len(forward) == distinct == spec.sequence_space_size,
            "collapse_threshold": 0.75,
        }
        payload = {"k": spec.k, "X": spec.X, "mode": mode, "forward": [list(s) for s in forward]}
        assert json.dumps(tmap.to_json_dict()) == json.dumps(payload)


class TestAuditBijection:
    def test_identity_map_audits_clean(self):
        report = audit_bijection(identity_token_map(CodebookSpec(k=3, X=4)))
        assert isinstance(report, BijectionReport)
        assert report.is_bijective_onto_product
        assert report.collision_count == 0
        assert report.n_items == report.n_distinct_sequences == 64
        assert report.per_position_utilization == [1.0, 1.0, 1.0]
        assert report.collapse_flags == [False, False, False]

    def test_collisions_counted(self):
        spec = CodebookSpec(k=2, X=2)
        tmap = TokenMap(spec, [(0, 0), (0, 0), (0, 0), (1, 1)], "probe")
        report = audit_bijection(tmap)
        assert report.n_items == 4
        assert report.n_distinct_sequences == 2
        assert report.collision_count == 2
        assert not report.is_bijective_onto_product

    def test_codebook_collapse_flagged_per_position(self):
        spec = CodebookSpec(k=2, X=4)
        # position 1 uses a single code: utilization 0.25 < 0.75
        seqs = [(0, t) for t in range(4)]
        report = audit_bijection(TokenMap(spec, seqs, "probe"))
        assert report.per_position_utilization == [0.25, 1.0]
        assert report.collapse_flags == [True, False]

    def test_collapse_threshold_is_strict_less_than(self):
        spec = CodebookSpec(k=1, X=4)
        seqs = [(0,), (1,), (2,)]  # utilization exactly 0.75
        report = audit_bijection(TokenMap(spec, seqs, "probe"), collapse_threshold=0.75)
        assert report.collapse_flags == [False]

    def test_threshold_validation(self):
        tmap = identity_token_map(CodebookSpec(k=1, X=2))
        with pytest.raises(ValueError):
            audit_bijection(tmap, collapse_threshold=0.0)
        with pytest.raises(ValueError):
            audit_bijection(tmap, collapse_threshold=1.5)

    def test_full_coverage_with_duplicates_is_not_bijective(self):
        spec = CodebookSpec(k=1, X=2)
        tmap = TokenMap(spec, [(0,), (1,), (1,)], "probe")
        report = audit_bijection(tmap)
        assert report.n_distinct_sequences == 2
        assert not report.is_bijective_onto_product

    def test_audit_json_bytes_match_the_unique_counts(self, tmp_path):
        # probe maps with collisions, and a sparse one over X**k = 2**31 sequences
        rng = np.random.default_rng(7)
        maps = [TokenMap(CodebookSpec(k=1, X=2**31), [(2**31 - 1,), (0,), (2**31 - 1,)], "probe")]
        for _ in range(40):
            spec = CodebookSpec(k=int(rng.integers(1, 4)), X=int(rng.integers(2, 12)))
            n = int(rng.integers(1, 2 * spec.sequence_space_size))
            maps.append(TokenMap(spec, rng.integers(0, spec.X, (n, spec.k)), "probe"))
        for tmap in maps:
            mat, X = tmap.token_matrix, tmap.spec.X
            distinct = len(np.unique(mat, axis=0))
            utilization = [len(np.unique(column)) / X for column in mat.T]
            want = BijectionReport(
                n_items=len(mat), n_distinct_sequences=distinct,
                collision_count=len(mat) - distinct, per_position_utilization=utilization,
                collapse_flags=[u < 0.75 for u in utilization],
                is_bijective_onto_product=len(mat) == distinct == tmap.spec.sequence_space_size,
            )
            write_json(tmp_path / "want.json", want.to_json_dict())
            write_json(tmp_path / "got.json", audit_bijection(tmap).to_json_dict())
            assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
        assert sum(audit_bijection(tmap).collision_count > 0 for tmap in maps) > 30

    def test_report_json_dict_is_plain_data(self):
        report = audit_bijection(identity_token_map(CodebookSpec(k=2, X=2)))
        payload = report.to_json_dict()
        assert payload["is_bijective_onto_product"] is True
        assert json.dumps(payload)  # serializable as-is
