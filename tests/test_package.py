"""The package's export list and its data files."""

import fnmatch
import importlib
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
    # __all__ is read from the one name table: a name listed under two
    # modules appears twice here
    listed = [name for names in sidlab._EXPORTS.values() for name in names]
    assert sidlab.__all__ == ["__version__", *listed]
    assert len(sidlab.__all__) == len(set(sidlab.__all__))
    assert set(sidlab.__all__) <= set(dir(sidlab))


@pytest.mark.parametrize("module", sidlab._EXPORTS)
def test_each_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"sidlab.{module}")
    for name in sidlab._EXPORTS[module]:
        assert getattr(sidlab, name) is vars(defining)[name]
        # resolved afresh each time: the package keeps no copy a monkeypatch
        # or a tracer could leave stale
        assert name not in vars(sidlab)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'sidlab' has no attribute 'EquivalenceReport'"):
        sidlab.EquivalenceReport  # removed from losses, and so from the table
    assert not hasattr(sidlab, "_VERIFY_BATCH_SEQUENCES")  # a cli name the table does not list
    with pytest.raises(ImportError):
        from sidlab import no_such_name  # noqa: F401


def test_import_sidlab_loads_no_submodule_and_from_import_still_gives_them():
    code = ("import sys, sidlab\n"
            "print(sorted(m for m in sys.modules if m.startswith('sidlab.') or m == 'numpy'))\n"
            "from sidlab import tokenizer, trainer, artifacts\n"
            "print([m.__name__ for m in (tokenizer, trainer, artifacts)])\n"
            "print(sidlab.train_sgd is trainer.train_sgd)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout.splitlines() == [
        "[]", "['sidlab.tokenizer', 'sidlab.trainer', 'sidlab.artifacts']", "True",
    ]


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

spec = CodebookSpec(k=2, X=3)
world = synth_world(3, 9, 0.5, seed=1)
for W in (1, 2):  # the caller's block alone, then beside one kernel thread
    trainer._workers = lambda C: W
    train_sgd(CascadedLogitModel.zeros(spec, 3), identity_token_map(spec),
              sample_dataset(world, 300, seed=2), lr=0.1, epochs=2, seed=0)
fit_kmeans(np.random.default_rng(0).standard_normal((200, 4)), 8, 10, np.random.default_rng(1))

# k-means kernels on arrays of exactly the sizes they are given: a seeding
# round on one column and on 129 (two halves), a screen of 300 centers
means = tokenizer._means_kernel()
rng = np.random.default_rng(2)
for d in (1, 129):
    points, center, d2 = rng.standard_normal((5, d)), rng.standard_normal(d), np.full(5, np.inf)
    assert means.seed_round(points.ctypes.data, 5, d, center.ctypes.data, d2.ctypes.data) == 0
    assert d2.tobytes() == ((points - center) ** 2).sum(axis=1).tobytes()
points, centers = rng.standard_normal((7, 3)), rng.standard_normal((300, 3))
x2, c2 = (points**2).sum(axis=1), (centers**2).sum(axis=1)
product, out = points @ centers.T, np.empty(7, dtype=np.int64)
means.screen(product.ctypes.data, x2.ctypes.data, c2.ctypes.data, 7, 300, float(np.sqrt(c2.max())),
             2.0 * 5 * np.finfo(float).eps, 2.0**1000, out.ctypes.data)
nearest = tokenizer.squared_distances(points, centers).argmin(axis=1)
assert ((out == -1) | (out == nearest)).all() and (out >= 0).any()
"""


def test_kernels_run_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    libasan = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isfile(libasan):
        pytest.skip("no AddressSanitizer runtime")
    # a copy of the package, so the sanitized builds never replace the
    # package's own in its __pycache__
    src = tmp_path / "src"
    shutil.copytree(Path(sidlab.__file__).parent, src / "sidlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, LD_PRELOAD=libasan, PYTHONMALLOC="malloc",
               ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", SANITIZED_RUN], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "AddressSanitizer" not in result.stderr and "runtime error" not in result.stderr
