"""Build, load and check the package's C kernels.

sidlab has three: the SGD epoch ``_sgd.c`` (``trainer``), the k-means means
``_kmeans.c`` (``tokenizer``) and the JSON array reader ``_floats.c``
(``artifacts``).  Each user keeps its own source path, signature table and
self-check, and a ``functools.cache``d loader that calls ``load`` on the
first use in a process that needs the kernel.  This module is imported only
there, so importing sidlab neither loads it nor starts the compiler.
``library`` compiles a source with ``cc`` and ``CFLAGS`` and caches the
result under ``__pycache__``; ``load`` accepts a library only if its
self-check passes, and otherwise gives one warning and returns None, so
the caller runs its Python path.  ``CFLAGS`` is the one place the compiler
flags are set.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def library(source: Path) -> ctypes.CDLL:
    """Compile the C file ``source`` with ``cc`` and load it through ctypes.

    The library is cached as ``__pycache__/<stem>-<hash>.so`` next to the
    source, the hash taken over source and flags, so only a build of the
    current source is ever loaded.  It is written under a temporary name and
    renamed into place, so concurrent builds stay correct; then the other
    ``<stem>-*.so`` files, builds of an older source or other flags, are
    removed.  Without a writable ``__pycache__`` it is built in a temporary
    directory, removed after loading.  Raises on any failure.
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
            for stale in cache.glob(f"{source.stem}-*.so"):
                if stale != lib_path:
                    stale.unlink(missing_ok=True)  # another build may have removed it
        return ctypes.CDLL(str(lib_path))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def load(source: Path, signatures: dict, self_check, note: tuple[str, str, str]):
    """The library ``source`` builds, or None to run the Python path.

    ``signatures`` maps each function name to its ``(restype, argtypes)``,
    set before ``self_check(library)`` runs.  ``note`` is ``(kernel,
    oracle, fallback)``: on a failed check, or on any error in the build,
    the load or the check, one ``RuntimeWarning`` "<kernel> kernel
    unavailable, <reason>; <fallback>" is given, where the reason is "its
    self-check differs from <oracle>" or the error's ``repr``.
    """
    kernel, oracle, fallback = note
    try:
        lib = library(source)
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
        if self_check(lib):
            return lib
        reason = f"its self-check differs from {oracle}"
    except Exception as exc:  # no compiler, build or load error: fall back
        reason = repr(exc)
    warnings.warn(f"{kernel} kernel unavailable, {reason}; {fallback}", RuntimeWarning,
                  stacklevel=3)
    return None
