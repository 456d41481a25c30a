"""Build, load and check the compiled SGD epoch kernel, ``_sgd.c``.

``library`` is the package's one C build step: it also builds the k-means
kernel, ``_kmeans.c``, for ``tokenizer``, and the JSON array reader,
``_floats.c``, for ``artifacts.read_json``.  ``trainer.train_sgd``,
``tokenizer.fit_kmeans`` and ``artifacts.read_json`` import this module on
first use, so the compiler is not touched when sidlab is imported.
``load`` compiles the epoch kernel with ``cc`` once per process, caches the
library as ``__pycache__/_sgd-<hash>.so`` next to the source, and accepts it
only if two epochs on two threads match the Python loop bit for bit;
otherwise it returns None and the Python loop runs.  ``epoch`` runs the
kernel on one thread per block of contexts, ``workers(C)`` of them: as many
as the CPUs the process may use, and at most C.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from .logits import FORMS, LogitModel
from .trainer import Dataset, _python_epoch
from .vocab import CodebookSpec, TokenMap, identity_token_map

SOURCE = Path(__file__).with_name("_sgd.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
LINE = 8  # float64 entries in a 64-byte cache line


def workers(C: int) -> int:
    """Threads an epoch of C contexts runs on: one per CPU this process may
    use, and at most one per context."""
    return min(len(os.sched_getaffinity(0)), C)


def _padded(n: int) -> np.ndarray:
    """n float64 entries that start a 64-byte cache line and have a spare line
    after them, so they share no cache line with any other array."""
    buf = np.empty(n + 2 * LINE)
    head = -(buf.ctypes.data // 8) % LINE
    return buf[head : head + n]


def epoch(kernel, model: LogitModel, tmap: TokenMap, data: Dataset, lr: float, n_workers: int):
    """The Python loop's epoch through the kernel on ``n_workers`` threads, as
    ``(start, finish)``.

    ``start(order)`` sets the epoch that visits the samples in ``order``
    running and returns at once; ``finish()`` waits for it, raises the first
    error a thread met, and writes the trained rows to ``model.tables``.  In
    between, ``model.tables`` hold the last finished epoch, so the caller may
    read them.  ``finish`` does nothing when no epoch is running.

    Every offset and token a sample visits depends only on its (context,
    item) pair, so the index tables hold one row per distinct pair in the
    data, at most min(len(data), C * n_items) rows, sorted by context, and
    each epoch hands the kernel the pair row of each sample in visiting
    order.  The C contexts are split into ``n_workers`` contiguous blocks, so
    a block's pair rows are one range [lo, hi).  Each thread trains one
    block, on its own copy of the block's rows of every table and its own
    ``exp`` scratch, in one buffer that shares no cache line with another
    thread's; the copies carry the rows from epoch to epoch.  Pair row p
    visits, at position m, the row at offset
    ``off[p, m] = ((h - c0) * nodes + node) * X`` of that copy, c0 being its
    block's first context, so both forms share one offset scheme.  Every
    thread walks the one shared order and skips the samples of other blocks,
    so each context's samples keep their visiting order, and no two threads
    touch one row: the bits are the Python loop's for any ``n_workers``.
    """
    C, k, X = model.C, model.spec.k, model.spec.X
    pairs, visit = np.unique(data.contexts * tmap.n_items + data.items, return_inverse=True)
    h, item = np.divmod(pairs, tmap.n_items)
    # block b holds contexts [bounds[b], bounds[b + 1]) and pair rows [ranges[b], ranges[b + 1])
    bounds = np.arange(n_workers + 1) * C // n_workers
    ranges = np.searchsorted(h, bounds)
    first = bounds[np.searchsorted(bounds, h, side="right") - 1]  # each pair row's block's c0
    nodes = [model.rows(m).shape[1] for m in range(k)]
    off = np.empty((len(pairs), k), dtype=np.int64)
    tok = np.empty_like(off)
    for m in range(k):
        node = np.broadcast_to(model.node_index(tmap.prefix_indices[m]), tmap.n_items)
        off[:, m] = ((h - first) * nodes[m] + node[item]) * X
        tok[:, m] = tmap.token_matrix[item, m]
    path = np.empty(len(data), dtype=np.int64)

    blocks, jobs = [], []
    for b in range(n_workers):
        c0, c1 = int(bounds[b]), int(bounds[b + 1])
        cuts = np.cumsum([0] + [(c1 - c0) * nodes[m] * X for m in range(k)])
        buf = _padded(int(cuts[-1]) + X)
        rows = [buf[cuts[m] : cuts[m + 1]].reshape(c1 - c0, nodes[m], X) for m in range(k)]
        for m in range(k):
            rows[m][...] = model.rows(m)[c0:c1]
        blocks.append((c0, c1, rows))
        tabs = (ctypes.c_void_p * k)(*(r.ctypes.data for r in rows))
        # each array goes in as its .ctypes, which keeps the array alive
        jobs.append((tabs, off.ctypes, tok.ctypes, path.ctypes, len(path), k, X, float(lr),
                     buf[cuts[-1] :].ctypes, int(ranges[b]), int(ranges[b + 1])))
    running, errors = [], []

    def work(job) -> None:
        try:
            kernel(*job)
        except BaseException as exc:  # re-raised by finish in the caller's thread
            errors.append(exc)

    def start(order: np.ndarray) -> None:
        np.take(visit, order, out=path)
        for job in jobs:
            thread = threading.Thread(target=work, args=(job,), name="sidlab-sgd")
            thread.start()
            running.append(thread)

    def finish() -> None:
        if not running:
            return
        while running:
            running[-1].join()
            running.pop()
        if errors:
            exc = errors[0]
            errors.clear()
            raise exc
        for c0, c1, rows in blocks:
            for m in range(k):
                model.rows(m)[c0:c1] = rows[m]

    return start, finish


def library(source: Path) -> ctypes.CDLL:
    """Compile the C file ``source`` with ``cc`` and load it through ctypes.

    The library is cached as ``__pycache__/<stem>-<hash>.so`` next to the
    source, the hash taken over source and flags, so only a build of the
    current source is ever loaded.  It is written under a temporary name and
    renamed into place, so concurrent builds stay correct.  Without a writable
    ``__pycache__`` it is built in a temporary directory, removed after
    loading.  Raises on any failure.
    """
    code = source.read_bytes()
    tag = hashlib.sha256(code + " ".join(CFLAGS).encode()).hexdigest()[:16]
    cache = source.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    scratch = None
    if not os.access(cache, os.W_OK):
        cache = scratch = Path(tempfile.mkdtemp(prefix=f"sidlab{source.stem}-"))
    lib_path = cache / f"{source.stem}-{tag}.so"
    try:
        if not lib_path.is_file():
            fd, tmp = tempfile.mkstemp(prefix=f".{source.stem}-", suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(
                    ["cc", *CFLAGS, "-o", tmp, str(source), "-lm"],
                    check=True, capture_output=True, timeout=120,
                )
                os.chmod(tmp, 0o755)
                os.replace(tmp, lib_path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return ctypes.CDLL(str(lib_path))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def build():
    """``sgd_epoch`` of ``_sgd.c``, built by ``library``, with its ctypes signature."""
    fn = library(SOURCE).sgd_epoch
    fn.restype = None
    fn.argtypes = [ctypes.POINTER(ctypes.c_void_p)] + [ctypes.c_void_p] * 3 + [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_int64,
    ]
    return fn


def matches_python(kernel) -> bool:
    """Two epochs on a small fixed case, both forms, kernel vs Python loop, by bytes.

    The kernel runs as ``train_sgd`` runs it, through ``epoch`` and its
    threads, with one worker per context (two) whatever the host's CPU
    count, so no host trains with a split this check has not seen.  One
    visited row's only maximum is +inf.  The Python loop turns that row to
    NaN (its shifted maximum is inf - inf), so a kernel that skips the
    maximum's ``exp`` without checking that the maximum is finite fails.
    An error in a kernel thread is raised here.
    """
    spec = CodebookSpec(k=2, X=3)
    tmap = identity_token_map(spec)
    rng = np.random.default_rng(0)
    data = Dataset(contexts=rng.integers(0, 2, 50), items=rng.integers(0, tmap.n_items, 50))
    orders = [rng.permutation(len(data)) for _ in range(2)]
    for cls in FORMS.values():
        base = cls.random(spec, 2, 1.0, seed=1)
        base.rows(1)[1, 0] = (np.inf, 3.1, 4.3)
        py, kern = base.copy(), base.copy()
        runners = (_python_epoch(py, tmap, data, 0.3), epoch(kernel, kern, tmap, data, 0.3, 2))
        for begin, finish in runners:
            try:
                for order in orders:
                    begin(order)
                    finish()
            finally:
                finish()
        if [t.tobytes() for t in py.tables] != [t.tobytes() for t in kern.tables]:
            return False
    return True


@functools.cache
def load():
    """The compiled epoch kernel, or None to use the Python loop.

    Built, loaded and checked against the Python loop on the first call of
    the process; None, with a warning, when any step fails or the check
    finds a difference.
    """
    try:
        kernel = build()
        if matches_python(kernel):
            return kernel
        reason = "its self-check differs from the Python loop"
    except Exception as exc:  # no compiler, build or load error: fall back
        reason = repr(exc)
    warnings.warn(
        f"SGD kernel unavailable, {reason}; training runs the Python loop",
        RuntimeWarning, stacklevel=2,
    )
    return None
