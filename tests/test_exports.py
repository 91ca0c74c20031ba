"""Every name a package lists in __all__ resolves, so `import *` cannot
fail on a name that was deleted or renamed."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["moealab", "moealab.archives"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(package.__all__) == len(set(package.__all__))
