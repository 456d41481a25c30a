"""The package's export list and its data files."""

import fnmatch
import os
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest

import sidlab
from sidlab import _native, artifacts, tokenizer, trainer


def test_all_lists_every_public_name_once():
    # __all__ repeats the imports of __init__.py; a name added to or removed
    # from only one of the two lists fails here
    public = {
        name for name, value in vars(sidlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sidlab.__all__) == public | {"__version__"}
    assert len(sidlab.__all__) == len(set(sidlab.__all__))


def test_every_c_source_is_package_data():
    # an installed sidlab compiles its kernels from these files on first use
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]["sidlab"]
    sources = {path.name for path in Path(sidlab.__file__).parent.glob("*.c")}
    assert {trainer._SGD_SOURCE.name, tokenizer._MEANS_SOURCE.name, artifacts._FLOATS_SOURCE.name} <= sources
    assert all(any(fnmatch.fnmatch(name, glob) for glob in globs) for name in sources)


class Loader(NamedTuple):
    module: types.ModuleType
    name: str  # the functools.cache'd loader
    source: str  # the module's names for its C file and its signature table
    signatures: str
    prefix: str  # of the fallback warning, which pyproject.toml's filterwarnings match


LOADERS = {
    "sgd": Loader(trainer, "_sgd_kernel", "_SGD_SOURCE", "_SGD_SIGNATURES",
                  "SGD kernel unavailable"),
    "means": Loader(tokenizer, "_means_kernel", "_MEANS_SOURCE", "_MEANS_SIGNATURES",
                    "k-means kernel unavailable"),
    "floats": Loader(artifacts, "_floats_kernel", "_FLOATS_SOURCE", "_FLOATS_SIGNATURES",
                     "JSON float kernel unavailable"),
}


@pytest.mark.parametrize("name", LOADERS)
class TestKernelLoaders:
    """Every loader goes through ``_native.load``: a kernel that cannot be
    built or fails its self-check gives None and one warning with the
    loader's own prefix; a kernel that passes is returned."""

    def load(self, monkeypatch, name, library):
        """The loader's result, uncached, with ``library`` for
        ``_native.library``, and the (category, message) of each warning."""
        loader = LOADERS[name]
        monkeypatch.setattr(_native, "library", library)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = getattr(loader.module, loader.name).__wrapped__()
        return loaded, [(w.category, str(w.message)) for w in caught]

    def test_a_failed_build_gives_none_and_the_error(self, monkeypatch, name):
        def no_cc(source):
            raise OSError("cc: not found")

        loaded, caught = self.load(monkeypatch, name, no_cc)
        assert loaded is None
        assert [c for c, _ in caught] == [RuntimeWarning]
        assert caught[0][1].startswith(f"{LOADERS[name].prefix}, {OSError('cc: not found')!r}; ")

    def test_a_failed_self_check_gives_none(self, monkeypatch, name):
        def does_nothing(*args):
            return 0

        loader = LOADERS[name]
        functions = getattr(loader.module, loader.signatures)
        library = types.SimpleNamespace(**{fn: does_nothing for fn in functions})
        loaded, caught = self.load(monkeypatch, name, lambda source: library)
        assert loaded is None
        assert [c for c, _ in caught] == [RuntimeWarning]
        assert caught[0][1].startswith(f"{loader.prefix}, its self-check")

    def test_a_passing_kernel_is_returned(self, monkeypatch, name):
        built = _native.library
        asked = []

        def recorded(source):
            asked.append(source)
            try:
                return built(source)
            except Exception:
                if shutil.which("cc") is None:
                    pytest.skip("no C compiler on PATH")
                raise

        loaded, caught = self.load(monkeypatch, name, recorded)
        loader = LOADERS[name]
        assert loaded is not None and caught == []
        assert asked == [getattr(loader.module, loader.source)]


# run in a child interpreter with AddressSanitizer preloaded: every kernel
# built with sanitizers, which a failed check aborts
SANITIZED_RUN = """
import ctypes
import numpy as np
from sidlab import _native
_native.CFLAGS += ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined")
from sidlab import (CascadedLogitModel, CodebookSpec, artifacts, fit_kmeans, identity_token_map,
                    sample_dataset, synth_world, tokenizer, train_sgd, trainer)

assert trainer._sgd_kernel() is not None and tokenizer._means_kernel() is not None
kernel = artifacts._floats_kernel()
assert kernel is not None
end, width = ctypes.c_int64(), ctypes.c_int64()
floats = b"[0.5, -1e-3, 2.25e10, 1.7976931348623157e308]"
rows = b"[[1, 2, 3], [4, 5, 6]]"
for cap, want in ((4, 4), (3, -1)):  # exactly the token count, then one less
    out = np.empty(cap)
    assert kernel.read_floats(floats, 1, out.ctypes.data, cap, end) == want
for cap, want in ((6, 6), (5, -1)):
    out = np.empty(cap, dtype=np.int64)
    assert kernel.read_rows(rows, 1, out.ctypes.data, cap, width, end) == want

trainer._workers = lambda C: 2
spec = CodebookSpec(k=2, X=3)
world = synth_world(3, 9, 0.5, seed=1)
train_sgd(CascadedLogitModel.zeros(spec, 3), identity_token_map(spec),
          sample_dataset(world, 300, seed=2), lr=0.1, epochs=2, seed=0)
fit_kmeans(np.random.default_rng(0).standard_normal((200, 4)), 8, 10, np.random.default_rng(1))
"""


def test_kernels_run_clean_under_address_and_undefined_behaviour_sanitizers():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    libasan = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isfile(libasan):
        pytest.skip("no AddressSanitizer runtime")
    src = str(Path(sidlab.__file__).resolve().parents[1])
    env = dict(os.environ, LD_PRELOAD=libasan, PYTHONMALLOC="malloc",
               ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", SANITIZED_RUN], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "AddressSanitizer" not in result.stderr and "runtime error" not in result.stderr
