"""Build, load and check the compiled SGD epoch kernel, ``_sgd.c``.

``trainer.train_sgd`` imports this module on its first call, so neither the
compiler nor ctypes is touched when sidlab is imported.  ``load`` compiles the
kernel with ``cc`` once per process, caches the library as
``__pycache__/_sgd-<hash>.so`` next to the source, and accepts it only if one
epoch matches the Python loop bit for bit; otherwise it returns None and the
Python loop runs.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .logits import FORMS, LogitModel
from .trainer import Dataset, _python_epoch
from .vocab import CodebookSpec, TokenMap, identity_token_map

SOURCE = Path(__file__).with_name("_sgd.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def epoch(kernel, model: LogitModel, tmap: TokenMap, data: Dataset, lr: float):
    """The Python loop's epoch through the kernel, updating ``model.tables`` in place.

    Every offset and token a sample visits depends only on its (context,
    item) pair, so the index tables hold one row per distinct pair in the
    data, at most min(len(data), C * n_items) rows, and ``run(order)`` hands
    the kernel the pair row of each sample in visiting order.  Pair row p
    visits, at position m, the row at flat offset
    ``off[p, m] = (h * nodes + node) * X`` of that position's (C, nodes, X)
    row view, so both forms share one offset scheme.  The tables must be
    C-contiguous (``LogitModel.copy`` makes them so).
    """
    if not all(t.flags.c_contiguous and t.dtype == np.float64 for t in model.tables):
        raise ValueError("the SGD kernel needs C-contiguous float64 tables")
    k, X = model.spec.k, model.spec.X
    pairs, visit = np.unique(data.contexts * tmap.n_items + data.items, return_inverse=True)
    h, item = np.divmod(pairs, tmap.n_items)
    off = np.empty((len(pairs), k), dtype=np.int64)
    tok = np.empty_like(off)
    for m in range(k):
        nodes = model.rows(m).shape[1]
        node = np.broadcast_to(model.node_index(tmap.prefix_indices[m]), tmap.n_items)
        off[:, m] = (h * nodes + node[item]) * X
        tok[:, m] = tmap.token_matrix[item, m]
    es = np.empty(X)

    def run(order: np.ndarray) -> None:
        path = np.ascontiguousarray(visit[order], dtype=np.int64)
        tabs = (ctypes.c_void_p * k)(*(t.ctypes.data for t in model.tables))
        kernel(tabs, off.ctypes.data, tok.ctypes.data, path.ctypes.data,
               len(path), k, X, float(lr), es.ctypes.data)

    return run


def build():
    """Compile ``_sgd.c`` with ``cc`` and return its ``sgd_epoch`` through ctypes.

    The library is cached as ``__pycache__/_sgd-<hash>.so`` next to the
    source, the hash taken over source and flags, so only a build of the
    current source is ever loaded.  It is written under a temporary name and
    renamed into place, so concurrent builds stay correct.  Without a writable
    ``__pycache__`` it is built in a temporary directory, removed after
    loading.  Raises on any failure.
    """
    code = SOURCE.read_bytes()
    tag = hashlib.sha256(code + " ".join(CFLAGS).encode()).hexdigest()[:16]
    cache = SOURCE.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    scratch = None
    if not os.access(cache, os.W_OK):
        cache = scratch = Path(tempfile.mkdtemp(prefix="sidlab-sgd-"))
    lib_path = cache / f"_sgd-{tag}.so"
    try:
        if not lib_path.is_file():
            fd, tmp = tempfile.mkstemp(prefix=".sgd-", suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(
                    ["cc", *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
                    check=True, capture_output=True, timeout=120,
                )
                os.chmod(tmp, 0o755)
                os.replace(tmp, lib_path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        fn = ctypes.CDLL(str(lib_path)).sgd_epoch
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    fn.restype = None
    fn.argtypes = [ctypes.POINTER(ctypes.c_void_p)] + [ctypes.c_void_p] * 3 + [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p,
    ]
    return fn


def matches_python(kernel) -> bool:
    """One epoch on a small fixed case, both forms, kernel vs Python loop."""
    spec = CodebookSpec(k=2, X=3)
    tmap = identity_token_map(spec)
    rng = np.random.default_rng(0)
    data = Dataset(contexts=rng.integers(0, 2, 50), items=rng.integers(0, tmap.n_items, 50))
    order = rng.permutation(len(data))
    for cls in FORMS.values():
        start = cls.random(spec, 2, 1.0, seed=1)
        py, kern = start.copy(), start.copy()
        _python_epoch(py, tmap, data, 0.3)(order)
        epoch(kernel, kern, tmap, data, 0.3)(order)
        if not all(np.array_equal(a, b) for a, b in zip(py.tables, kern.tables)):
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
