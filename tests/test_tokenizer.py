"""Embedding tokenizers: k-means core, RQ, PQ, FSQ, and file formats."""

import itertools
import shutil
import warnings
from collections import Counter

import numpy as np
import pytest

from sidlab import (
    CodebookSpec,
    DegenerateInputError,
    FSQModel,
    ItemEmbeddings,
    SubspaceSplitError,
    encode_fsq,
    encode_pq,
    encode_rq,
    fit_kmeans,
    fit_pq,
    fit_rq_kmeans,
    load_embeddings_bin,
    load_embeddings_csv,
    load_tokenizer,
    nearest_centers,
    save_tokenizer,
    synth_embeddings,
)
from reference import save_embeddings_bin, save_embeddings_csv
from sidlab import _native, tokenizer
from sidlab.tokenizer import split_subspace_dims, squared_distances


def blobs(n_per, centers, spread, seed):
    """Gaussian blobs around the given centers, concatenated in center order."""
    rng = np.random.default_rng(seed)
    parts = [c + spread * rng.standard_normal((n_per, len(c))) for c in centers]
    return np.concatenate(parts)


def screen_case(rng, kind):
    """(points, centers) for the nearest-center sweep, built to stress one way
    the matrix-product screen can be wrong about the exact distances."""
    n, d, X = int(rng.integers(1, 301)), int(rng.integers(1, 71)), int(rng.integers(1, 21))
    pts, ctr = rng.standard_normal((n, d)), rng.standard_normal((X, d))
    if kind == "ties":  # integer grid and a duplicated center: exact ties
        pts = rng.integers(-2, 3, (n, d)).astype(float)
        ctr = rng.integers(-2, 3, (X, d)).astype(float)
        ctr[-1] = ctr[0]
    elif kind == "offset":  # cancellation in |x|^2 - 2 x.c + |c|^2
        pts, ctr = pts + 1e8, ctr + 1e8
    elif kind == "near_ties":  # center pairs a rounding apart, offset by up to 1e6
        pts = pts + 10.0 ** rng.uniform(0, 6)
        ctr = pts[rng.integers(n, size=X)] + 0.1 * ctr
        ctr[1::2] = ctr[0::2][: X // 2] * (1 + 1e-15 * rng.standard_normal((X // 2, d)))
    elif kind == "overflow":  # squares overflow to inf
        scale = 10.0 ** rng.uniform(150, 160)
        pts, ctr = pts * scale, ctr * scale
    elif kind == "underflow":  # terms underflow or go subnormal
        scale = 10.0 ** -rng.uniform(150, 165)
        pts, ctr = pts * scale, ctr * scale
    elif kind == "row_scales":
        pts = pts * 10.0 ** rng.choice([-300, 0, 300], size=(n, 1))
    elif kind == "strided":  # strided rows, as PQ subspaces are
        pts = np.hstack([pts, pts])[:, ::2]
    if rng.random() < 0.3:
        ctr[int(rng.integers(X))] = pts[int(rng.integers(n))]  # an exact zero distance
    return pts, ctr


def tie_rows():
    """The origin and seven permutations of one vector: the origin is at the
    same real distance from every other row, so which center it joins rests
    on the order of the distance sums."""
    rng = np.random.default_rng(22)
    w = rng.uniform(0.1, 1.0, 16).round(2)
    return np.array([np.zeros(16)] + [rng.permutation(w) for _ in range(7)])


class TestEmbeddings:
    def test_validation(self):
        with pytest.raises(ValueError):
            ItemEmbeddings(np.zeros(3))
        with pytest.raises(ValueError):
            ItemEmbeddings(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            ItemEmbeddings(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            ItemEmbeddings(np.array([[np.inf, 0.0]]))

    def test_synth_is_deterministic_and_frozen(self):
        a = synth_embeddings(64, 8, seed=7)
        b = synth_embeddings(64, 8, seed=7)
        assert np.array_equal(a.values, b.values)
        assert a.n_items == 64 and a.dim == 8
        assert a.values.mean() == pytest.approx(-0.1337793266758689, abs=1e-15)
        assert a.values[0, 0] == pytest.approx(0.0012301533574825742, abs=1e-18)
        assert a.values[63, 7] == pytest.approx(-0.0937919279761702, abs=1e-16)
        assert not np.array_equal(a.values, synth_embeddings(64, 8, seed=8).values)

    def test_csv_roundtrip_is_exact(self, tmp_path):
        emb = synth_embeddings(10, 3, seed=1)
        path = tmp_path / "emb.csv"
        save_embeddings_csv(emb, path)
        back = load_embeddings_csv(path)
        assert np.array_equal(back.values, emb.values)
        assert path.read_text().splitlines()[0] == "dim0,dim1,dim2"

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_embeddings_csv(path)

    def test_bin_roundtrip_is_exact(self, tmp_path):
        emb = synth_embeddings(7, 5, seed=2)
        path = tmp_path / "emb.bin"
        save_embeddings_bin(emb, path)
        back = load_embeddings_bin(path)
        assert np.array_equal(back.values, emb.values)

    def test_bin_rejects_corruption(self, tmp_path):
        emb = synth_embeddings(4, 2, seed=0)
        path = tmp_path / "emb.bin"
        save_embeddings_bin(emb, path)
        raw = path.read_bytes()
        (tmp_path / "magic.bin").write_bytes(b"WRONGMAG" + raw[8:])
        with pytest.raises(ValueError):
            load_embeddings_bin(tmp_path / "magic.bin")
        (tmp_path / "short.bin").write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            load_embeddings_bin(tmp_path / "short.bin")
        (tmp_path / "stub.bin").write_bytes(raw[:10])
        with pytest.raises(ValueError):
            load_embeddings_bin(tmp_path / "stub.bin")


class TestKmeansCore:
    def test_squared_distances_direct_formula(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        ctr = np.array([[0.0, 0.0], [0.0, 4.0]])
        d2 = squared_distances(pts, ctr)
        assert np.array_equal(d2, np.array([[0.0, 16.0], [25.0, 9.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 31, 32, 33, 127, 128, 129, 200, 257])
    def test_squared_distances_match_the_broadcast_form_bitwise(self, d):
        # the column-per-center fill must give the bits of the (n, X, d) broadcast
        rng = np.random.default_rng(d)
        for trial in range(4):
            pts = rng.standard_normal((int(rng.integers(1, 200)), d)) * 10.0 ** (trial - 1)
            ctr = rng.standard_normal((int(rng.integers(1, 17)), d)) * 10.0 ** (trial - 1)
            ctr[0] = pts[-1]  # an exact zero distance
            if trial == 2:
                pts, ctr = np.round(pts, 1), np.round(ctr, 1)  # many exact ties
            if trial == 3:
                pts = np.hstack([pts, pts])[:, ::2]  # strided rows, as PQ subspaces are
            want = ((pts[:, None, :] - ctr[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(squared_distances(pts, ctr), want)

    def test_nearest_centers_tie_goes_to_lowest_index(self):
        centers = np.array([[1.0], [1.0], [3.0]])
        assert nearest_centers(np.array([[2.0]]), centers).tolist() == [0]
        # point at 2.0 is also equidistant from centers 1.0 and 3.0
        centers2 = np.array([[3.0], [1.0]])
        assert nearest_centers(np.array([[2.0]]), centers2).tolist() == [0]

    def test_separated_blobs_recovered(self):
        centers = [np.array([0.0, 0.0]), np.array([20.0, 0.0]),
                   np.array([0.0, 20.0]), np.array([20.0, 20.0])]
        pts = blobs(25, centers, 0.3, seed=3)
        fit_centers, assign = fit_kmeans(pts, 4, max_iters=50, rng=np.random.default_rng(0))
        # every blob lands in exactly one cluster
        labels = np.repeat(np.arange(4), 25)
        for blob in range(4):
            got = assign[labels == blob]
            assert len(set(got.tolist())) == 1
        # fitted centers sit near the true ones (in some order)
        matched = sorted(tuple(np.round(c, 0)) for c in fit_centers)
        expect = sorted(tuple(c) for c in centers)
        for got, want in zip(matched, expect):
            assert np.allclose(got, want, atol=1.0)

    def test_fit_is_deterministic_in_the_seed(self):
        pts = blobs(10, [np.zeros(3), np.full(3, 5.0)], 0.5, seed=9)
        c1, a1 = fit_kmeans(pts, 2, max_iters=50, rng=np.random.default_rng(42))
        c2, a2 = fit_kmeans(pts, 2, max_iters=50, rng=np.random.default_rng(42))
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)

    def test_duplicate_points_fewer_distinct_than_clusters(self):
        # 3 clusters over 2 distinct locations forces the empty-cluster path
        pts = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
        centers, assign = fit_kmeans(pts, 3, max_iters=50, rng=np.random.default_rng(1))
        assert centers.shape == (3, 2)
        assert assign.shape == (10,)
        assert np.all((assign >= 0) & (assign < 3))
        # both locations must be represented exactly by some center
        assert any(np.allclose(c, [0.0, 0.0]) for c in centers)
        assert any(np.allclose(c, [10.0, 10.0]) for c in centers)


class TestNearestCenters:
    KINDS = ("plain", "ties", "offset", "near_ties", "overflow", "underflow", "row_scales",
             "strided")

    def test_matches_the_squared_distances_argmin(self):
        rng = np.random.default_rng(9)
        for case in range(2100):
            pts, ctr = screen_case(rng, self.KINDS[case % len(self.KINDS)])
            with np.errstate(over="ignore", invalid="ignore"):
                want = squared_distances(pts, ctr).argmin(axis=1)
                got = nearest_centers(pts, ctr)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), f"case {case}"

    def test_few_rows_reach_the_exact_recheck(self, monkeypatch):
        # every squared_distances call in a fit and encode is the screen's
        # recheck; a bound loose enough to send every row there fails here
        rows = {"_screened": 0, "squared_distances": 0}

        def counted(name):
            fn = getattr(tokenizer, name)

            def wrapped(points, *rest):
                rows[name] += len(points)
                return fn(points, *rest)

            monkeypatch.setattr(tokenizer, name, wrapped)

        counted("_screened")  # every screen, a fit's and nearest_centers'
        counted("squared_distances")
        emb = synth_embeddings(1024, 32, 0)
        encode_rq(fit_rq_kmeans(emb, CodebookSpec(k=3, X=16), seed=0), emb)
        assert rows["_screened"] >= 3 * 1024
        assert rows["squared_distances"] <= 0.01 * rows["_screened"]


class TestResidualKmeans:
    def one_hot_points(self):
        return ItemEmbeddings(np.eye(4))

    def test_single_level_on_one_hot_points_is_lossless(self):
        emb = self.one_hot_points()
        spec = CodebookSpec(k=1, X=4)
        model = fit_rq_kmeans(emb, spec, seed=0)
        # with 4 points and 4 clusters the centroids are the points themselves
        got = sorted(tuple(c) for c in model.codebooks[0])
        want = sorted(tuple(r) for r in np.eye(4))
        assert got == want
        seqs = encode_rq(model, emb)
        assert len(set(seqs)) == 4
        for x, (t,) in zip(emb.values, seqs):
            assert np.allclose(model.codebooks[0][t], x)

    def test_second_level_fits_zero_residuals(self):
        emb = self.one_hot_points()
        spec = CodebookSpec(k=2, X=4)
        model = fit_rq_kmeans(emb, spec, seed=0)
        # level 1 is exact, so level 2 sees all-zero residuals and every
        # centroid collapses onto the origin
        assert np.allclose(model.codebooks[1], 0.0)
        seqs = encode_rq(model, emb)
        for x, seq in zip(emb.values, seqs):
            recon = model.codebooks[0][seq[0]] + model.codebooks[1][seq[1]]
            assert np.allclose(recon, x)

    def test_residual_refinement_reduces_error(self):
        emb = ItemEmbeddings(blobs(30, [np.zeros(4), np.full(4, 8.0)], 1.0, seed=11))
        spec1 = CodebookSpec(k=1, X=2)
        spec2 = CodebookSpec(k=2, X=2)
        m1 = fit_rq_kmeans(emb, spec1, seed=5)
        m2 = fit_rq_kmeans(emb, spec2, seed=5)

        def recon_error(model, spec):
            seqs = encode_rq(model, emb)
            total = 0.0
            for x, seq in zip(emb.values, seqs):
                recon = sum(model.codebooks[m][seq[m]] for m in range(spec.k))
                total += float(((x - recon) ** 2).sum())
            return total

        assert recon_error(m2, spec2) < recon_error(m1, spec1)

    def test_degenerate_input_rejected(self):
        spec = CodebookSpec(k=1, X=4)
        with pytest.raises(DegenerateInputError):
            fit_rq_kmeans(ItemEmbeddings(np.zeros((3, 2))), spec)
        dup = ItemEmbeddings(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateInputError):
            fit_rq_kmeans(dup, spec)

    def test_distinct_rows_compare_as_floats(self):
        # -0.0 and 0.0 make one row, as np.unique counts them; X - 1 distinct rows are too few
        spec = CodebookSpec(k=1, X=3)
        signed = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 3.0], [2.0, 3.0]])
        short = np.repeat(np.eye(2), 3, axis=0)
        for values in (signed, short):
            assert len(np.unique(values, axis=0)) == spec.X - 1
            with pytest.raises(DegenerateInputError, match="need at least X=3 distinct"):
                fit_rq_kmeans(ItemEmbeddings(values), spec)
        signed[-1] = (5.0, 5.0)  # the X-th distinct row comes last
        fit_rq_kmeans(ItemEmbeddings(signed), spec)

    def test_fit_deterministic(self):
        emb = ItemEmbeddings(blobs(8, [np.zeros(2), np.full(2, 6.0)], 0.4, seed=2))
        spec = CodebookSpec(k=2, X=2)
        a = fit_rq_kmeans(emb, spec, seed=3)
        b = fit_rq_kmeans(emb, spec, seed=3)
        for cb_a, cb_b in zip(a.codebooks, b.codebooks):
            assert np.array_equal(cb_a, cb_b)


class TestProductQuantization:
    def test_split_subspace_dims(self):
        assert split_subspace_dims(8, 3) == [3, 3, 2]
        assert split_subspace_dims(6, 2) == [3, 3]
        assert split_subspace_dims(5, 5) == [1, 1, 1, 1, 1]
        assert split_subspace_dims(7, 4) == [2, 2, 2, 1]

    def test_split_rejects_too_few_dims(self):
        with pytest.raises(SubspaceSplitError):
            split_subspace_dims(2, 3)

    def test_fit_on_block_structured_data(self):
        # two separable values in each of two 1-d subspaces
        rng = np.random.default_rng(4)
        left = rng.choice([0.0, 10.0], size=(40, 1))
        right = rng.choice([-5.0, 5.0], size=(40, 1))
        emb = ItemEmbeddings(np.concatenate([left, right], axis=1))
        spec = CodebookSpec(k=2, X=2)
        model = fit_pq(emb, spec, seed=0)
        assert model.subspace_dims == [1, 1]
        seqs = encode_pq(model, emb)
        # same block values must get the same token in that position
        for x, seq in zip(emb.values, seqs):
            recon0 = model.codebooks[0][seq[0]][0]
            recon1 = model.codebooks[1][seq[1]][0]
            assert abs(recon0 - x[0]) < 1.0
            assert abs(recon1 - x[1]) < 1.0

    def test_encode_checks_dims(self):
        emb = synth_embeddings(16, 6, seed=0)
        model = fit_pq(emb, CodebookSpec(k=2, X=4), seed=0)
        with pytest.raises(ValueError):
            encode_pq(model, synth_embeddings(4, 5, seed=0))

    def test_offsets_are_cumulative(self):
        emb = synth_embeddings(20, 7, seed=1)
        model = fit_pq(emb, CodebookSpec(k=3, X=2), seed=1)
        assert model.subspace_dims == [3, 2, 2]
        assert model.offsets == [0, 3, 5]


class TestMemoryLayout:
    def test_embeddings_are_stored_in_c_order(self):
        emb = ItemEmbeddings(np.asfortranarray(synth_embeddings(6, 3, seed=0).values))
        assert emb.values.flags.c_contiguous

    @pytest.mark.parametrize("scheme", ["rq_kmeans", "pq"])
    def test_fortran_and_c_order_give_identical_fits(self, scheme):
        fit, encode = (fit_rq_kmeans, encode_rq) if scheme == "rq_kmeans" else (fit_pq, encode_pq)
        cases = [(tie_rows(), CodebookSpec(k=1, X=2)),
                 (synth_embeddings(200, 9, seed=5).values, CodebookSpec(k=3, X=4))]
        for values, spec in cases:
            c_emb = ItemEmbeddings(np.ascontiguousarray(values))
            f_emb = ItemEmbeddings(np.asfortranarray(values))
            c_model, f_model = fit(c_emb, spec, seed=0), fit(f_emb, spec, seed=0)
            for c_cb, f_cb in zip(c_model.codebooks, f_model.codebooks):
                assert c_cb.tobytes() == f_cb.tobytes()  # np.array_equal takes -0.0 for +0.0
            assert encode(c_model, c_emb) == encode(f_model, f_emb)

    def test_fit_kmeans_ignores_layout(self):
        values = tie_rows()
        c_out = fit_kmeans(values, 2, max_iters=50, rng=np.random.default_rng(0))
        f_out = fit_kmeans(np.asfortranarray(values), 2, max_iters=50, rng=np.random.default_rng(0))
        assert np.array_equal(c_out[0], f_out[0]) and np.array_equal(c_out[1], f_out[1])


class TestFSQ:
    def test_validation(self):
        with pytest.raises(ValueError):
            FSQModel(levels=[], per_dim_bounds=[])
        with pytest.raises(ValueError):
            FSQModel(levels=[4, 4], per_dim_bounds=[(-1.0, 1.0)])
        with pytest.raises(ValueError):
            FSQModel(levels=[0], per_dim_bounds=[(-1.0, 1.0)])
        with pytest.raises(ValueError):
            FSQModel(levels=[4], per_dim_bounds=[(1.0, 1.0)])

    def test_grid_points_round_half_up(self):
        model = FSQModel(levels=[4], per_dim_bounds=[(-1.0, 1.0)])
        # value 0.0 scales to 1.5 grid units; half rounds up to token 2
        cases = {-1.0: 0, -0.5: 1, 0.0: 2, 0.5: 2, 0.6: 2, 0.7: 3, 1.0: 3}
        for value, token in cases.items():
            emb = ItemEmbeddings(np.array([[value]]))
            assert encode_fsq(model, emb) == [(token,)], value

    def test_clamps_out_of_bounds(self):
        model = FSQModel(levels=[4], per_dim_bounds=[(-1.0, 1.0)])
        emb = ItemEmbeddings(np.array([[-5.0], [5.0]]))
        assert encode_fsq(model, emb) == [(0,), (3,)]

    def test_uses_first_k_dimensions_only(self):
        model = FSQModel(levels=[2, 2], per_dim_bounds=[(0.0, 1.0), (0.0, 1.0)])
        emb = ItemEmbeddings(np.array([[0.0, 1.0, 99.0]]))
        assert encode_fsq(model, emb) == [(0, 1)]
        with pytest.raises(ValueError):
            encode_fsq(model, ItemEmbeddings(np.array([[0.5]])))

    def test_k_property(self):
        assert FSQModel(levels=[3, 3, 3], per_dim_bounds=[(-1, 1)] * 3).k == 3


class TestTokenizerSerialization:
    def test_rq_roundtrip(self, tmp_path):
        emb = synth_embeddings(16, 4, seed=6)
        model = fit_rq_kmeans(emb, CodebookSpec(k=2, X=4), seed=6)
        path = tmp_path / "rq.json"
        save_tokenizer(model, path)
        back = load_tokenizer(path)
        for a, b in zip(model.codebooks, back.codebooks):
            assert np.array_equal(a, b)
        assert encode_rq(back, emb) == encode_rq(model, emb)

    def test_pq_roundtrip(self, tmp_path):
        emb = synth_embeddings(16, 5, seed=6)
        model = fit_pq(emb, CodebookSpec(k=2, X=4), seed=6)
        path = tmp_path / "pq.json"
        save_tokenizer(model, path)
        back = load_tokenizer(path)
        assert back.subspace_dims == model.subspace_dims
        assert encode_pq(back, emb) == encode_pq(model, emb)

    def test_fsq_roundtrip(self, tmp_path):
        model = FSQModel(levels=[4, 3], per_dim_bounds=[(-1.0, 1.0), (0.0, 2.0)])
        path = tmp_path / "fsq.json"
        save_tokenizer(model, path)
        back = load_tokenizer(path)
        assert back.levels == model.levels
        assert back.per_dim_bounds == model.per_dim_bounds

    def test_unknown_scheme_rejected(self):
        from sidlab.tokenizer import tokenizer_from_json_dict

        with pytest.raises(ValueError):
            tokenizer_from_json_dict({"scheme": "mystery"})


def fit_kmeans_per_cluster(points, X, max_iters, rng, reseeds):
    """``fit_kmeans`` with one boolean scan per cluster for empty clusters and
    one masked mean per cluster: the reference the grouped fit must match bit
    for bit.  ``reseeds`` counts the empty clusters it re-seeded ("stolen")
    and those it had to leave empty ("kept")."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    centers = tokenizer._kmeans_pp_seed(points, X, rng)
    assign = None
    for _ in range(max_iters):
        new_assign = nearest_centers(points, centers)
        for j in range(X):
            if np.any(new_assign == j):
                continue
            counts = np.bincount(new_assign, minlength=X)
            own = ((points - centers[new_assign]) ** 2).sum(axis=1)
            own[counts[new_assign] <= 1] = -1.0
            idx = int(own.argmax())
            if own[idx] < 0.0:
                reseeds["kept"] += 1
                continue
            reseeds["stolen"] += 1
            centers[j] = points[idx]
            new_assign[idx] = j
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(X):
            members = assign == j
            if np.any(members):
                centers[j] = points[members].mean(axis=0)
    return centers, assign


def kmeans_case(seed, X, d):
    """Points for the grouped-mean sweep: standard normal at seed 0, rounded
    to integers (exact ties and duplicates) at seed 1, and drawn from X // 2
    distinct rows at seed 2, which leaves clusters empty."""
    rng = np.random.default_rng(100 * X + d)
    n = X + 40 + int(rng.integers(0, 60))
    pts = rng.standard_normal((n, d)) * 3.0
    if seed == 1:
        pts = np.round(pts)
    elif seed == 2:
        pts = pts[rng.integers(0, max(1, X // 2), n)]
    return pts


@pytest.fixture(scope="module")
def means_kernel():
    """The compiled cluster-means kernel; skipped only where there is no C compiler."""
    loaded = tokenizer._means_kernel()
    if loaded is None and shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert loaded is not None, "cc is on PATH but the k-means kernel did not load"
    return loaded


class TestGroupedKmeans:
    """fit_kmeans finds empty clusters with one bincount and takes every mean
    in one compiled pass, or on one column or without the kernel over slices
    of one stable sort; each must give the per-cluster bits."""

    @pytest.mark.parametrize("X", [1, 2, 16, 64, 257, 300])
    def test_matches_the_per_cluster_loop_bitwise(self, X, monkeypatch):
        # twice: means through the kernel (where it loads), then through numpy
        reseeds = Counter()
        for kernel in (tokenizer._means_kernel(), None):
            monkeypatch.setattr(tokenizer, "_means_kernel", lambda: kernel)
            for seed in range(3):
                for d in (1, 2, 4, 33):
                    pts = kmeans_case(seed, X, d)
                    got = fit_kmeans(pts, X, max_iters=12, rng=np.random.default_rng(seed))
                    want = fit_kmeans_per_cluster(pts, X, 12, np.random.default_rng(seed), reseeds)
                    # by bytes: np.array_equal takes -0.0 for +0.0
                    assert got[0].tobytes() == want[0].tobytes(), (kernel, seed, d)
                    assert np.array_equal(got[1], want[1]), (kernel, seed, d)
                    assert got[1].dtype == np.int64
        if X >= 16:
            assert reseeds["stolen"] > 0

    def test_reseed_branches_match_the_per_cluster_loop(self, monkeypatch):
        reseeds = Counter()
        cases = [
            (np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5), 3),  # a copy is stolen
            (np.array([[0.0], [1.0], [5.0]]), 5),  # every cluster a singleton: kept empty
            (np.repeat(np.eye(3), [1, 4, 2], axis=0), 6),  # both, in one iteration
        ]
        kernels = (tokenizer._means_kernel(), None)  # the kernel where it loads, then numpy
        for pts, X in cases:
            for seed, kernel in itertools.product(range(4), kernels):
                monkeypatch.setattr(tokenizer, "_means_kernel", lambda: kernel)
                got = fit_kmeans(pts, X, max_iters=50, rng=np.random.default_rng(seed))
                want = fit_kmeans_per_cluster(pts, X, 50, np.random.default_rng(seed), reseeds)
                assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])
        assert reseeds["stolen"] > 0 and reseeds["kept"] > 0

    @pytest.mark.parametrize(
        "seed,offset,screened,rechecked",
        [(0, 0.0, 548_864, 0), (1, 0.0, 614_400, 0), (2, 0.0, 626_688, 0),
         (0, 1e6, 548_864, 160_210)],
    )
    def test_exact_recheck_rows_of_the_tokenize_workload(
        self, monkeypatch, seed, offset, screened, rechecked
    ):
        # one bound per point is at least every per-center bound, so it can only
        # add candidates; on these fits it sends exactly the rows the per-center
        # bound sent to the exact recheck
        rows = Counter()

        def counted(name):
            fn = getattr(tokenizer, name)

            def wrapped(points, *rest):
                rows[name] += len(points)
                return fn(points, *rest)

            monkeypatch.setattr(tokenizer, name, wrapped)

        counted("_screened")  # every screen, a fit's and nearest_centers'
        counted("squared_distances")
        emb = ItemEmbeddings(synth_embeddings(4096, 32, seed).values + offset)
        encode_rq(fit_rq_kmeans(emb, CodebookSpec(k=3, X=16), seed=seed), emb)
        assert rows["_screened"] == screened
        assert rows["squared_distances"] == rechecked


class TestMeansKernel:
    """The compiled means are used only where they give numpy's bits."""

    def test_kernel_loads_where_cc_exists(self, means_kernel):
        assert tokenizer._means_kernel() is means_kernel

    @pytest.mark.parametrize(
        "old,new",
        [("for (int64_t i = 0; i < n; i++)", "for (int64_t i = n - 1; i >= 0; i--)"),
         ("centers[j * d + c] = 0.0;", "centers[j * d + c] = -0.0;"),
         ("if (d < 8) {", "if (1) {"),
         ("next - err > lo + err", "next >= lo")],
        ids=["rows_in_reverse", "sums_from_minus_zero", "seed_sums_in_order",
             "screen_decides_a_tie"],
    )
    def test_a_kernel_with_other_bits_is_refused_at_load(
        self, tmp_path, monkeypatch, means_kernel, old, new
    ):
        # a sum from -0.0 differs from numpy's sum from +0.0 only on an all
        # -0.0 column, which the self-check holds; a seeding round summed in
        # order differs from numpy's pairwise sum from 8 columns on; a screen
        # that decides a row whose two smallest values are equal decides rows
        # that numpy leaves to the exact recheck
        code = tokenizer._MEANS_SOURCE.read_text()
        assert code.count(old) == 1
        source = tmp_path / "_kmeans.c"
        source.write_text(code.replace(old, new))
        monkeypatch.setattr(tokenizer, "_MEANS_SOURCE", source)
        with pytest.warns(RuntimeWarning, match="k-means kernel unavailable, its self-check"):
            assert tokenizer._means_kernel.__wrapped__() is None

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 32, 33, 129, 300])
    def test_a_seeding_round_has_the_bits_of_numpy(self, means_kernel, d):
        # numpy sums a row in order below 8 entries, with eight accumulators
        # up to 128 and by halves above: entries from 1e-8 to 1e8 make any
        # other order of addition show in the bits
        rng = np.random.default_rng(d)
        points = rng.standard_normal((50, d)) * 10.0 ** rng.uniform(-8, 8, (50, d))
        center = rng.standard_normal(d) * 10.0 ** rng.uniform(-8, 8, d)
        points[:, 0] = center[0] = -0.0  # an all -0.0 column
        d2 = np.where(np.arange(50) % 4 == 0, 0.0, np.inf)
        want = np.minimum(d2, ((points - center) ** 2).sum(axis=1))
        assert means_kernel.seed_round(points.ctypes.data, 50, d, center.ctypes.data,
                                       d2.ctypes.data) == 0
        assert d2.tobytes() == want.tobytes()

    def test_the_screen_decides_the_rows_numpy_decides(self, means_kernel):
        # on the same products: the nearest-center sweep's ties, offsets,
        # near ties, overflows and underflows
        rng = np.random.default_rng(10)
        decided = 0
        for case in range(800):
            pts, ctr = screen_case(rng, TestNearestCenters.KINDS[case % 8])
            pts = np.ascontiguousarray(pts)
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                x2, c2 = tokenizer._squared_norms(pts), np.einsum("ij,ij->i", ctr, ctr)
                c_norm = float(np.sqrt(c2.max()))
                scale = 2.0 * (pts.shape[1] + 2) * np.finfo(np.float64).eps
                product = pts @ ctr.T
                got = np.empty(len(pts), dtype=np.int64)
                means_kernel.screen(product.ctypes.data, x2.ctypes.data, c2.ctypes.data, len(pts),
                                    len(ctr), c_norm, scale, tokenizer._SCREEN_MAX,
                                    got.ctypes.data)
                want = tokenizer._numpy_screen(product.T.copy(), x2, c2, c_norm, scale)
            assert np.array_equal(got, want), f"case {case}"
            decided += (got >= 0).sum()
        assert decided > 0

    def test_an_overflowing_seeding_round_is_a_degenerate_input(self, means_kernel):
        # the kernel counts the overflow numpy would raise on, and warns nothing
        points = np.array([[1e308, 0.0], [-1e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="overflow"):
                tokenizer._kmeans_pp_seed(points, 2, np.random.default_rng(0), means_kernel)

    def test_without_a_compiler_the_loader_warns_and_returns_none(self, monkeypatch):
        def no_cc(source):
            raise FileNotFoundError("cc")

        monkeypatch.setattr(_native, "library", no_cc)
        with pytest.warns(RuntimeWarning, match="k-means kernel unavailable, FileNotFoundError"):
            assert tokenizer._means_kernel.__wrapped__() is None

    def test_not_loaded_for_one_column(self, monkeypatch):
        # numpy sums one column pairwise, not row after row
        def unloadable():
            raise AssertionError("the kernel was asked for on one column")

        monkeypatch.setattr(tokenizer, "_means_kernel", unloadable)
        fit_kmeans(kmeans_case(0, 4, 1), 4, max_iters=5, rng=np.random.default_rng(0))


def per_center_recheck(points, centers):
    """Rows the screen with one bound per (point, center) pair leaves
    undecided: more than one candidate, or a bound that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        x2, c2 = (points**2).sum(axis=1), (centers**2).sum(axis=1)
        screen = c2[:, None] - 2.0 * (centers @ points.T) + x2
        err = (np.sqrt(c2)[:, None] + np.sqrt(x2)) ** 2
        unbounded = ~np.all(err < 2.0**1000, axis=0)
        err = err * (2.0 * (points.shape[1] + 2) * np.finfo(np.float64).eps) + 1e-300
        candidates = screen - err <= (screen + err).min(axis=0)
    return unbounded | (candidates.sum(axis=0) != 1)


class TestOneBoundPerPoint:
    def test_rechecks_every_row_the_per_center_bounds_leave_open(self, monkeypatch):
        # centers of very different norms: the per-point bound must be the
        # largest per-center bound, or near ties among the far centers slip by
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((2048, 32)) + 1e6
        ctr = np.vstack([pts[:15] + 0.5 * rng.standard_normal((15, 32)), np.zeros((1, 32))])
        seen = []
        exact = tokenizer.squared_distances

        def recorded(points, centers):
            seen.append(points.copy())
            return exact(points, centers)

        monkeypatch.setattr(tokenizer, "squared_distances", recorded)
        got = nearest_centers(pts, ctr)
        assert np.array_equal(got, exact(pts, ctr).argmin(axis=1))
        want = per_center_recheck(pts, ctr)
        assert want.sum() > 100
        rechecked = np.concatenate(seen) if seen else np.empty((0, 32))
        assert np.isin(pts[want, 0], rechecked[:, 0]).all()


def encode_fsq_per_item(model, emb):
    """FSQ by a per-item, per-dimension Python loop: the whole-column
    encoder's reference."""
    out = []
    for x in emb.values:
        seq = []
        for m, (lv, (lo, hi)) in enumerate(zip(model.levels, model.per_dim_bounds)):
            scaled = (float(x[m]) - lo) / (hi - lo) * (lv - 1)
            t = int(np.floor(scaled + 0.5))
            seq.append(min(max(t, 0), lv - 1))
        out.append(tuple(seq))
    return out


class TestFSQColumns:
    def test_matches_the_per_item_loop(self):
        rng = np.random.default_rng(4)
        for case in range(200):
            k = int(rng.integers(1, 5))
            levels = [int(v) for v in rng.integers(1, 9, k)]
            lows = rng.uniform(-3, 1, k) * 10.0 ** float(rng.integers(-5, 6))
            widths = rng.uniform(0.1, 4, k) * 10.0 ** float(rng.integers(-5, 6))
            bounds = [(float(lo), float(lo + w)) for lo, w in zip(lows, widths)]
            if case % 4 == 0:
                bounds = [(int(np.floor(lo)), int(np.floor(lo)) + 3) for lo in lows]
            model = FSQModel(levels=levels, per_dim_bounds=bounds)
            values = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 40)), k + 1))
            lo, hi = np.array(bounds, dtype=float).T
            values[:, :k] = lo + (hi - lo) * values[:, :k]
            # grid points and the half-way points between them
            half = lo + (hi - lo) * rng.integers(0, 17, (len(values), k)) / 16
            values[::2, :k] = half[::2]
            emb = ItemEmbeddings(values)
            got = encode_fsq(model, emb)
            assert got == encode_fsq_per_item(model, emb), case
            assert all(type(t) is int for seq in got for t in seq)

    @pytest.mark.parametrize(
        "bounds", [(-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308),
                   (0.0, np.nan)],
        ids=["both_inf", "hi_inf", "lo_inf", "width_overflows", "nan"],
    )
    def test_bounds_must_be_finitely_apart(self, bounds):
        with pytest.raises(ValueError, match="finitely apart"):
            FSQModel(levels=[4], per_dim_bounds=[bounds])

    @pytest.mark.parametrize(
        "bounds,value", [((0.0, 1e-320), 0.5), ((-1e308, -1e308 + 1e293), 1.7e308)],
        ids=["scaled_overflows", "offset_overflows"],
    )
    def test_overflow_is_a_degenerate_input(self, bounds, value):
        model = FSQModel(levels=[4], per_dim_bounds=[bounds])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="overflow"):
                encode_fsq(model, ItemEmbeddings(np.array([[value]])))


def near_overflow_points():
    """16 x 2 coordinates near +-1.7e308: differences and squares overflow."""
    rng = np.random.default_rng(0)
    return rng.choice([-1.0, 1.0], (16, 2)) * 1.7e308 * rng.uniform(0.9, 1.0, (16, 2))


class TestOverflow:
    """A fit or encode whose float64 arithmetic overflows raises
    DegenerateInputError and warns nothing."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("fit", [fit_rq_kmeans, fit_pq], ids=["rq", "pq"])
    def test_near_overflow_distances(self, fit):
        with pytest.raises(DegenerateInputError, match="overflow"):
            fit(ItemEmbeddings(near_overflow_points()), CodebookSpec(k=2, X=4))

    def test_overflowing_center_mean(self):
        # distances stay 0 or 1, but eight copies of 1.6e308 sum past float64
        pts = np.stack([np.full(16, 1.6e308), np.arange(16) % 2.0], axis=1)
        with pytest.raises(DegenerateInputError, match="overflow"):
            fit_kmeans(pts, 2, max_iters=50, rng=np.random.default_rng(0))

    def test_encode_distances(self):
        emb = ItemEmbeddings(near_overflow_points())
        rq = tokenizer.RQKmeansModel(CodebookSpec(k=1, X=2), [np.array([[0.0, 0.0], [-1.7e308, 0.0]])])
        pq = tokenizer.PQModel(CodebookSpec(k=2, X=2), [1, 1], [np.array([[0.0], [-1.7e308]])] * 2)
        with pytest.raises(DegenerateInputError):
            encode_rq(rq, emb)
        with pytest.raises(DegenerateInputError):
            encode_pq(pq, emb)
