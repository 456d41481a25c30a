"""The package's export list."""

import types

import sidlab


def test_all_lists_every_public_name_once():
    # __all__ repeats the imports of __init__.py; a name added to or removed
    # from only one of the two lists fails here
    public = {
        name for name, value in vars(sidlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sidlab.__all__) == public | {"__version__"}
    assert len(sidlab.__all__) == len(set(sidlab.__all__))
