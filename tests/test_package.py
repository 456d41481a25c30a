"""The package's export list and its data files."""

import fnmatch
import types
from pathlib import Path

import pytest

import sidlab
from sidlab import _sgd, artifacts, tokenizer


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
    assert {_sgd.SOURCE.name, tokenizer._MEANS_SOURCE.name, artifacts._FLOATS_SOURCE.name} <= sources
    assert all(any(fnmatch.fnmatch(name, glob) for glob in globs) for name in sources)
