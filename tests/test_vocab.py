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
    build_token_map,
    identity_token_map,
    prefix_index_arrays,
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
        assert spec.index_to_sequence(7) == (1, 3)
        assert spec.sequence_to_index((1, 3)) == 7
        assert spec.index_to_sequence(0) == (0, 0)
        assert spec.index_to_sequence(15) == (3, 3)

    @pytest.mark.parametrize("k,X", [(1, 2), (2, 3), (3, 4), (4, 2)])
    def test_index_roundtrip_over_full_space(self, k, X):
        spec = CodebookSpec(k=k, X=X)
        seen = set()
        for idx in range(spec.sequence_space_size):
            seq = spec.index_to_sequence(idx)
            assert len(seq) == k
            assert all(0 <= t < X for t in seq)
            assert spec.sequence_to_index(seq) == idx
            seen.add(seq)
        assert len(seen) == spec.sequence_space_size

    def test_iter_sequences_is_lexicographic(self):
        spec = CodebookSpec(k=2, X=3)
        seqs = list(spec.iter_sequences())
        assert seqs == sorted(seqs)
        assert seqs[0] == (0, 0)
        assert seqs[-1] == (2, 2)
        assert len(seqs) == 9

    def test_index_to_sequence_range_check(self):
        spec = CodebookSpec(k=2, X=3)
        with pytest.raises(ValueError):
            spec.index_to_sequence(-1)
        with pytest.raises(ValueError):
            spec.index_to_sequence(9)

    def test_prefix_index_matches_truncated_encoding(self):
        spec = CodebookSpec(k=3, X=4)
        assert spec.prefix_index(()) == 0
        for seq in spec.iter_sequences():
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
        assert spec.sequence_to_index(spec.index_to_sequence(idx)) == idx


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

    def test_build_token_map_accepts_any_pair_order(self):
        spec = CodebookSpec(k=1, X=3)
        tmap = build_token_map(spec, [(2, (0,)), (0, (2,)), (1, (1,))], "strict")
        assert tmap.forward(0) == (2,)
        assert tmap.forward(2) == (0,)

    def test_build_token_map_rejects_bad_item_ids(self):
        spec = CodebookSpec(k=1, X=2)
        with pytest.raises(ValueError):
            build_token_map(spec, [(0, (0,)), (0, (1,))], "probe")
        with pytest.raises(ValueError):
            build_token_map(spec, [(0, (0,)), (5, (1,))], "probe")


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

    def test_report_json_dict_is_plain_data(self):
        report = audit_bijection(identity_token_map(CodebookSpec(k=2, X=2)))
        payload = report.to_json_dict()
        assert payload["is_bijective_onto_product"] is True
        assert json.dumps(payload)  # serializable as-is
