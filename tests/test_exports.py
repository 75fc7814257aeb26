"""Each package's __all__ names only what the package defines, once."""

import importlib

import pytest

PACKAGES = ("ibetls.kem", "ibetls.handshake", "ibetls.tpkg", "ibetls.simnet")


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve_once_and_star_import_succeeds(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(exported) == len(set(exported)), sorted(
        entry for entry in set(exported) if exported.count(entry) > 1)
    assert [entry for entry in exported if not hasattr(package, entry)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
