"""Every ``repro`` package imports, and every name in its ``__all__``
resolves — so deleting a function cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


PACKAGES = _packages()


def test_every_subpackage_is_found():
    assert {"repro.core", "repro.llm", "repro.relational.sql"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
