"""Embedding tokenizers: residual k-means, product quantization, and FSQ.

All fits are deterministic functions of (input, seed, max_iters).  The
k-means is hand-rolled: k-means++ seeding from one generator, Lloyd
iterations to an assignment fixed point or ``max_iters``, empty clusters
re-seeded to the point farthest from its own centroid, ties toward the
lowest centroid index.  Distances are direct (x - c)**2 sums, so exact ties
stay exact, and every nearest-center decision goes through the exact
``nearest_centers``.  Each mean sums its cluster's rows in ascending row
order, numpy's order for a masked mean.  Each k-means++ round, each Lloyd
screen and each Lloyd iteration's means take one pass of the C kernel
``_kmeans.c``, built by ``_native`` on the first fit or encode of a process
(never at import) and used only if it matches numpy's bits and decisions;
on one column (numpy sums a mean's column pairwise), or without the kernel,
a fit runs on numpy.  Float overflow in a fit or an encode raises
``DegenerateInputError``, so no inf or nan reaches an artifact.  Inputs are
copied to C order first: numpy sums the rows of a Fortran-ordered array in
another order, to other bits.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .vocab import CodebookSpec, TokenSeq

_MEANS_SOURCE = Path(__file__).with_name("_kmeans.c")
_P, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# cluster_means(points, assign, n, d, counts, centers, X),
# seed_round(points, n, d, center, d2) and
# screen(product, x2, c2, n, X, c_norm, scale, limit, out)
_MEANS_SIGNATURES = {
    "cluster_means": (None, [_P, _P, _I64, _I64, _P, _P, _I64]),
    "seed_round": (_I64, [_P, _I64, _I64, _P, _P]),
    "screen": (None, [_P, _P, _P, _I64, _I64, _F64, _F64, _F64, _P]),
}
_BIN_MAGIC = b"SIDEMB64"  # 8 bytes; header totals 16 with the two uint32 fields


class DegenerateInputError(ValueError):
    """Too few distinct points for the clusters, or float64 overflow on them."""


class SubspaceSplitError(ValueError):
    """Embedding dimensions cannot be split into k contiguous subspaces."""


@dataclass
class ItemEmbeddings:
    """Dense item vectors, one row per item id."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"embeddings must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("embeddings must be finite")
        self.values = arr

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def synth_embeddings(n_items: int, dim: int, seed: int) -> ItemEmbeddings:
    """Standard-normal embeddings from a seeded generator."""
    rng = np.random.default_rng(seed)
    return ItemEmbeddings(rng.standard_normal((n_items, dim)))


# ---------------------------------------------------------------------------
# embedding file formats


def load_embeddings_csv(path) -> ItemEmbeddings:
    """A ``dim0,dim1,...`` header, then one row of floats per item."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header != [f"dim{j}" for j in range(len(header))]:
            raise ValueError(f"bad embeddings CSV header in {path}")
        rows = [[float(v) for v in row] for row in reader]
    return ItemEmbeddings(np.asarray(rows))


def load_embeddings_bin(path) -> ItemEmbeddings:
    """Raw little-endian float64 rows behind a 16-byte header (magic, n, dim)."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"truncated embeddings header in {path}")
        magic, n, d = struct.unpack("<8sII", header)
        if magic != _BIN_MAGIC:
            raise ValueError(f"bad embeddings magic in {path}")
        payload = fh.read()
    want = n * d * 8
    if len(payload) != want:
        raise ValueError(f"embeddings payload is {len(payload)} bytes, expected {want}")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, d).astype(np.float64)
    return ItemEmbeddings(values)


@contextmanager
def _finite():
    """Overflow or an invalid operation (inf - inf) raises DegenerateInputError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DegenerateInputError(f"float64 {exc}") from exc


# ---------------------------------------------------------------------------
# k-means core


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, X) squared euclidean distances, computed directly so that points
    exactly equidistant from two centers get exactly equal entries.  One
    column per center: no (n, X, d) temporary, the same length-d sums."""
    return np.stack([((points - center) ** 2).sum(axis=1) for center in centers], axis=1)


# no exact column value can round to inf while (|x| + |c|)^2 stays below this
_SCREEN_MAX = 2.0**1000


def nearest_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n,) int64 equal to ``squared_distances(points, centers).argmin(axis=1)``.

    Screens with A = |x|^2 - 2 x.c + |c|^2 from one matrix product.  For any
    summation order, with or without FMA and under underflow, the exact value
    D obeys |A - D| <= 2 (d + 2) eps (|x| + |c|)^2 + 1e-300, eps = 2**-52.
    Each point takes the largest of its bounds, e (|c| -> max |c|): rounding
    is monotone, so that can only add candidates.  A center whose A - e
    exceeds the row's smallest A + e is not the nearest, so a row with one
    candidate is decided.  Other rows, and rows whose A holds a NaN or whose
    e is not finite or so large that D could round to inf, are re-done by
    ``squared_distances``.  After the product, the screen is one pass of the
    compiled ``screen`` of ``_kmeans.c`` (see ``_means_kernel``), or, without
    the kernel, numpy's passes, which read a decided row's index off its one
    candidate flag with a sum, not an argmax.  On the same products both
    decide the same rows, and any sound screen decides only true argmins, so
    the result does not depend on which runs.  A fit takes every |x|^2 once,
    not once per Lloyd iteration.

    A standard-normal RQ fit and encode of 4096 x 32 items (k=3, X=16, seeds
    0-2) re-does none of its 548,864 to 626,688 rows.  With 1e6 added to every
    coordinate, seed 0 re-does 160,210 (29%), as one bound per center did.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    return _screened(points, _squared_norms(points), centers, _means_kernel())


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """Each row's |x|^2 for ``_screened``; an overflow only sends its point to
    the exact recheck."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("ij,ij->i", points, points)


def _screened(points: np.ndarray, x2: np.ndarray, centers: np.ndarray, kernel) -> np.ndarray:
    """``nearest_centers`` of C-contiguous float64 points whose |x|^2 are x2,
    screened by ``kernel``, the compiled ``_kmeans.c``, or by numpy when it
    is None."""
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    n, d = points.shape
    # an overflow here only sends its point to the exact recheck
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = np.einsum("ij,ij->i", centers, centers)
        c_norm = float(np.sqrt(c2.max()))
        scale = 2.0 * (d + 2) * float(np.finfo(np.float64).eps)
        if kernel is None:
            # (X, n) and in place: at n=4096, X=16 each halves numpy's time
            out = _numpy_screen(centers @ points.T, x2, c2, c_norm, scale)
        else:
            # (n, X): the kernel reads each point's products in one row
            product = points @ centers.T
            out = np.empty(n, dtype=np.int64)
            kernel.screen(product.ctypes.data, x2.ctypes.data, c2.ctypes.data, n, len(centers),
                          c_norm, scale, _SCREEN_MAX, out.ctypes.data)
    recheck = out < 0
    if recheck.any():
        out[recheck] = squared_distances(points[recheck], centers).argmin(axis=1)
    return out


def _numpy_screen(screen, x2, c2, c_norm, scale) -> np.ndarray:
    """The compiled ``screen``'s decisions in numpy, from the (X, n) products
    x.c in ``screen``, which it overwrites: each point's one candidate, or -1."""
    X = len(c2)
    screen *= -2.0
    screen += c2[:, None]
    screen += x2
    err = (np.sqrt(x2) + c_norm) ** 2
    # also true for a point or center holding a nan or inf
    unbounded = ~(err < _SCREEN_MAX)
    err *= scale
    err += 1e-300
    best = screen.min(axis=0) + err
    screen -= err
    candidates = screen <= best
    # sums down the columns in the narrowest dtype that holds them, which
    # skips a cast per entry: the candidate count, up to X, and the index of
    # a decided row's one candidate; an undecided row's index may wrap
    flags = candidates.view(np.uint8)
    index = np.arange(X, dtype=np.min_scalar_type(X - 1))
    out = (flags * index[:, None]).sum(axis=0, dtype=index.dtype).astype(np.int64)
    out[unbounded | (flags.sum(axis=0, dtype=np.min_scalar_type(X)) != 1)] = -1
    return out


def _kmeans_pp_seed(points: np.ndarray, X: int, rng: np.random.Generator,
                    kernel=None) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((X, points.shape[1]))
    # numpy's every round's (points - center) ** 2, in one buffer
    scratch = np.empty_like(points) if kernel is None else None
    d2 = np.full(n, np.inf)
    centers[0] = points[int(rng.integers(n))]
    _seed_round(kernel, points, centers[0], d2, scratch)
    for j in range(1, X):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all points coincide with some chosen center; any pick works
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        _seed_round(kernel, points, centers[j], d2, scratch)
    return centers


def _seed_round(kernel, points, center, d2, scratch) -> None:
    """``d2 = minimum(d2, ((points - center) ** 2).sum(axis=1))`` in place,
    with numpy's bits: through ``kernel``, the compiled ``_kmeans.c``, or
    numpy in ``scratch``, a buffer shaped as the points, when it is None.
    C-contiguous float64 arrays."""
    if kernel is None:
        np.subtract(points, center, out=scratch)
        np.minimum(d2, np.multiply(scratch, scratch, out=scratch).sum(axis=1), out=d2)
    # the points are finite, so only an overflow leaves a distance not finite
    elif kernel.seed_round(points.ctypes.data, *points.shape, center.ctypes.data, d2.ctypes.data):
        raise DegenerateInputError("float64 overflow encountered in a k-means++ distance")


def _cluster_means(kernel, points, assign, counts, centers) -> None:
    """Each non-empty cluster's mean in place of its center, with the bits of
    ``points[assign == j].mean(axis=0)``: through ``kernel``, the compiled
    ``_kmeans.c``, or numpy when it is None.  C-contiguous float64 points
    and centers, int64 assign and counts."""
    if kernel is not None:
        kernel.cluster_means(points.ctypes.data, assign.ctypes.data, *points.shape,
                             counts.ctypes.data, centers.ctypes.data, len(centers))
        # the points are finite, so only an overflowing sum leaves the finite range
        if not np.isfinite(centers).all():
            raise DegenerateInputError("float64 overflow encountered in a cluster mean")
        return
    # a stable sort keeps each cluster's rows in ascending order, as a boolean
    # mask does; on a narrow key dtype numpy radix-sorts
    order = np.argsort(assign.astype(np.min_scalar_type(len(centers) - 1)), kind="stable")
    ends = np.cumsum(counts)
    for j in np.flatnonzero(counts):
        centers[j] = points[order[ends[j] - counts[j] : ends[j]]].mean(axis=0)


def _kernel_matches_numpy(kernel) -> bool:
    """Each function of the compiled ``_kmeans.c`` against its numpy code, on
    fixed cases.

    * ``cluster_means``, by bytes: entries from 1e-8 to 1e8 in size, so that
      any other order of addition gives other bits, an empty cluster, and an
      all -0.0 column, whose mean numpy's sum from +0.0 makes +0.0 and a sum
      from the first row would leave -0.0;
    * ``seed_round``, by bytes, on such entries in 3, 9 and 130 columns, one
      of each of numpy's three ways to sum a row, and its overflow count;
    * ``screen``, by decisions on the same products: integer points and a
      duplicated center, so exact ties that must go to the recheck, a point
      holding a NaN and one too large to bound.
    """
    rng = np.random.default_rng(0)
    for d in (2, 5):
        points = rng.standard_normal((60, d)) * 10.0 ** rng.uniform(-8, 8, (60, d))
        points[:, 1] = -0.0
        assign = rng.integers(0, 4, 60)  # cluster 4 of 5 stays empty
        counts = np.bincount(assign, minlength=5)
        got = rng.standard_normal((5, d))
        want = got.copy()
        _cluster_means(kernel, points, assign, counts, got)
        _cluster_means(None, points, assign, counts, want)
        if got.tobytes() != want.tobytes():
            return False
    for d in (3, 9, 130):
        points = rng.standard_normal((20, d)) * 10.0 ** rng.uniform(-8, 8, (20, d))
        center = rng.standard_normal(d) * 10.0 ** rng.uniform(-8, 8, d)
        got = np.where(np.arange(20) % 3 == 0, 0.0, np.inf)  # rows a round must keep
        want = got.copy()
        _seed_round(None, points, center, want, np.empty_like(points))
        if kernel.seed_round(points.ctypes.data, 20, d, center.ctypes.data, got.ctypes.data) != 0:
            return False
        if got.tobytes() != want.tobytes():
            return False
    # the first row's difference overflows, the second's is 1
    points, center = np.array([[1e308, 0.0], [-1e308, 1.0]]), np.array([-1e308, 0.0])
    d2 = np.full(2, np.inf)
    if kernel.seed_round(points.ctypes.data, 2, 2, center.ctypes.data, d2.ctypes.data) != 1:
        return False
    points = rng.integers(-2, 3, (64, 5)).astype(float)
    centers = rng.integers(-2, 3, (6, 5)).astype(float)
    centers[-1] = centers[0]
    points[-2, 0], points[-1] = np.nan, 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = np.einsum("ij,ij->i", points, points)
        c2 = np.einsum("ij,ij->i", centers, centers)
        c_norm, scale = float(np.sqrt(c2.max())), 2.0 * (5 + 2) * float(np.finfo(np.float64).eps)
        product = points @ centers.T
        got = np.zeros(64, dtype=np.int64)
        kernel.screen(product.ctypes.data, x2.ctypes.data, c2.ctypes.data, 64, 6, c_norm, scale,
                      _SCREEN_MAX, got.ctypes.data)
        want = _numpy_screen(product.T.copy(), x2, c2, c_norm, scale)
    return np.array_equal(got, want)


@functools.cache
def _means_kernel():
    """The compiled ``_kmeans.c``, whose ``seed_round``, ``screen`` and
    ``cluster_means`` fits and encodes run, or None to run numpy's code.

    Built by ``_native.load`` on the first fit or encode of the process,
    never at import, and checked against numpy by ``_kernel_matches_numpy``.
    """
    from . import _native  # the package's C builder, which imports subprocess

    return _native.load(_MEANS_SOURCE, _MEANS_SIGNATURES, _kernel_matches_numpy,
                        ("k-means", "numpy", "fits and encodes run on numpy"))


@_finite()
def fit_kmeans(
    points: np.ndarray, X: int, max_iters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd k-means; returns (centers (X, d), assignments (n,))."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    # on one column numpy sums the means pairwise, not row after row as the
    # kernel does, so a fit there runs wholly on numpy
    kernel = _means_kernel() if points.shape[1] >= 2 else None
    x2 = _squared_norms(points)
    centers = _kmeans_pp_seed(points, X, rng, kernel)
    assign = None
    for _ in range(max_iters):
        new_assign = _screened(points, x2, centers, kernel)
        counts = np.bincount(new_assign, minlength=X)
        # a re-seed never empties another cluster: fill the empty ones in order
        for j in np.flatnonzero(counts == 0):
            # re-seed to the point farthest from its centroid, never a cluster's
            # only member (that moves the hole); else keep the empty center
            own = ((points - centers[new_assign]) ** 2).sum(axis=1)
            own[counts[new_assign] <= 1] = -1.0
            idx = int(own.argmax())
            if own[idx] < 0.0:
                continue
            counts[new_assign[idx]] -= 1
            counts[j] += 1
            centers[j] = points[idx]
            new_assign[idx] = j
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        _cluster_means(kernel, points, assign, counts, centers)
    return centers, assign


# ---------------------------------------------------------------------------
# residual k-means (one codebook per level, fitted on residuals)


@dataclass
class RQKmeansModel:
    spec: CodebookSpec
    codebooks: list[np.ndarray]  # k arrays of shape (X, dim)

    def __post_init__(self):
        if len(self.codebooks) != self.spec.k:
            raise ValueError(f"expected {self.spec.k} codebooks, got {len(self.codebooks)}")
        for cb in self.codebooks:
            if cb.shape[0] != self.spec.X:
                raise ValueError(f"codebook has {cb.shape[0]} rows, expected {self.spec.X}")


@_finite()
def fit_rq_kmeans(
    emb: ItemEmbeddings, spec: CodebookSpec, max_iters: int = 50, seed: int = 0
) -> RQKmeansModel:
    """Fit level codebooks on successive residuals.

    Level 1 clusters the raw embeddings; each later level clusters what the
    previous levels failed to explain.  Only level 1 insists on X distinct
    inputs: residuals may legitimately collapse (a perfectly quantized level
    leaves all-zero residuals, and later centroids land on zero).

    Raises:
        DegenerateInputError: fewer than X distinct embedding rows, or overflow.
    """
    if emb.n_items < spec.X:
        raise DegenerateInputError(f"need at least X={spec.X} items, got {emb.n_items}")
    # stops at the X-th distinct row; floats compare as np.unique does, -0.0 == 0.0
    distinct = set()
    for row in emb.values:
        distinct.add(tuple(row.tolist()))
        if len(distinct) == spec.X:
            break
    else:
        raise DegenerateInputError(f"need at least X={spec.X} distinct embedding rows")
    rng = np.random.default_rng(seed)
    residuals = emb.values.copy()
    codebooks = []
    for _ in range(spec.k):
        centers, assign = fit_kmeans(residuals, spec.X, max_iters, rng)
        codebooks.append(centers)
        residuals -= centers[assign]
    return RQKmeansModel(spec=spec, codebooks=codebooks)


@_finite()
def encode_rq(model: RQKmeansModel, emb: ItemEmbeddings) -> list[TokenSeq]:
    """Greedy nearest-centroid walk down the levels, quantizing the running residual."""
    residual = emb.values.copy()
    tokens = []
    for cb in model.codebooks:
        t = nearest_centers(residual, cb)
        tokens.append(t)
        residual -= cb[t]
    return [tuple(seq) for seq in np.stack(tokens, axis=1).tolist()]


# ---------------------------------------------------------------------------
# product quantization (contiguous subspace split, one codebook per subspace)


@dataclass
class PQModel:
    spec: CodebookSpec
    subspace_dims: list[int]
    codebooks: list[np.ndarray]  # k arrays of shape (X, subspace_dims[m])

    def __post_init__(self):
        if len(self.subspace_dims) != self.spec.k or len(self.codebooks) != self.spec.k:
            raise ValueError("need one subspace width and codebook per position")
        for dims, cb in zip(self.subspace_dims, self.codebooks):
            if dims < 1:
                raise ValueError("subspace widths must be positive")
            if cb.shape != (self.spec.X, dims):
                raise ValueError(f"codebook shape {cb.shape} does not match width {dims}")

    @property
    def offsets(self) -> list[int]:
        out, acc = [], 0
        for d in self.subspace_dims:
            out.append(acc)
            acc += d
        return out


def split_subspace_dims(dim: int, k: int) -> list[int]:
    """Contiguous near-equal split; the first dim % k subspaces get the extra column.

    Raises:
        SubspaceSplitError: dim < k leaves some subspace empty.
    """
    if dim < k:
        raise SubspaceSplitError(f"cannot split {dim} dims into {k} non-empty subspaces")
    base, rem = divmod(dim, k)
    return [base + 1 if m < rem else base for m in range(k)]


def fit_pq(
    emb: ItemEmbeddings, spec: CodebookSpec, max_iters: int = 50, seed: int = 0
) -> PQModel:
    """Independent k-means per contiguous subspace."""
    dims = split_subspace_dims(emb.dim, spec.k)
    rng = np.random.default_rng(seed)
    codebooks = []
    offset = 0
    for width in dims:
        block = emb.values[:, offset : offset + width]
        centers, _ = fit_kmeans(block, spec.X, max_iters, rng)
        codebooks.append(centers)
        offset += width
    return PQModel(spec=spec, subspace_dims=dims, codebooks=codebooks)


@_finite()
def encode_pq(model: PQModel, emb: ItemEmbeddings) -> list[TokenSeq]:
    if emb.dim != sum(model.subspace_dims):
        raise ValueError(
            f"embeddings have {emb.dim} dims, model expects {sum(model.subspace_dims)}"
        )
    tokens = [
        nearest_centers(emb.values[:, offset : offset + width], cb)
        for offset, width, cb in zip(model.offsets, model.subspace_dims, model.codebooks)
    ]
    return [tuple(seq) for seq in np.stack(tokens, axis=1).tolist()]


# ---------------------------------------------------------------------------
# finite scalar quantization (training-free per-dimension grid)


@dataclass
class FSQModel:
    """Affine per-dimension grid: dimension m maps [lo, hi] onto 0..levels[m]-1.

    Training-free.  Used for a strict bijection the product of levels must
    cover the catalogue; that is checked where the map is built, not here.
    """

    levels: list[int]
    per_dim_bounds: list[tuple[float, float]]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("need at least one level entry")
        if len(self.per_dim_bounds) != len(self.levels):
            raise ValueError("need one (lo, hi) pair per quantized dimension")
        for lv in self.levels:
            if lv < 1:
                raise ValueError(f"levels must be positive, got {lv}")
        for lo, hi in self.per_dim_bounds:
            if not 0.0 < hi - lo < np.inf:
                raise ValueError(f"bounds must satisfy lo < hi, finitely apart, got ({lo}, {hi})")

    @property
    def k(self) -> int:
        return len(self.levels)


@_finite()
def encode_fsq(model: FSQModel, emb: ItemEmbeddings) -> list[TokenSeq]:
    """Quantize the first k embedding dimensions; round half up, then clamp."""
    if emb.dim < model.k:
        raise ValueError(f"embeddings have {emb.dim} dims, FSQ needs {model.k}")
    lo, hi = np.array(model.per_dim_bounds, dtype=np.float64).T
    top = np.array(model.levels) - 1
    scaled = (emb.values[:, : model.k] - lo) / (hi - lo) * top
    tokens = np.clip(np.floor(scaled + 0.5), 0, top).astype(np.int64)
    return [tuple(seq) for seq in tokens.tolist()]


# ---------------------------------------------------------------------------
# tokenizer model serialization


def tokenizer_to_json_dict(model) -> dict:
    if isinstance(model, (RQKmeansModel, PQModel)):
        out = {"scheme": "pq" if isinstance(model, PQModel) else "rq_kmeans",
               "k": model.spec.k, "X": model.spec.X,
               "codebooks": [cb.tolist() for cb in model.codebooks]}
        if isinstance(model, PQModel):
            out["subspace_dims"] = list(model.subspace_dims)
        return out
    if isinstance(model, FSQModel):
        return {
            "scheme": "fsq",
            "levels": list(model.levels),
            "per_dim_bounds": [list(b) for b in model.per_dim_bounds],
        }
    raise TypeError(f"not a tokenizer model: {type(model)!r}")


def tokenizer_from_json_dict(payload: dict):
    scheme = payload.get("scheme")
    if scheme in ("rq_kmeans", "pq"):
        spec = CodebookSpec(k=int(payload["k"]), X=int(payload["X"]))
        codebooks = [np.asarray(cb, dtype=np.float64) for cb in payload["codebooks"]]
        if scheme == "rq_kmeans":
            return RQKmeansModel(spec=spec, codebooks=codebooks)
        dims = [int(d) for d in payload["subspace_dims"]]
        return PQModel(spec=spec, subspace_dims=dims, codebooks=codebooks)
    if scheme == "fsq":
        return FSQModel(
            levels=[int(v) for v in payload["levels"]],
            per_dim_bounds=[(float(lo), float(hi)) for lo, hi in payload["per_dim_bounds"]],
        )
    raise ValueError(f"unknown tokenizer scheme {scheme!r}")


def save_tokenizer(model, path) -> None:
    write_json(path, tokenizer_to_json_dict(model))


def load_tokenizer(path):
    with open(path, "r", encoding="utf-8") as fh:
        return tokenizer_from_json_dict(json.load(fh))
