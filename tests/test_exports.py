"""Every name a module exports resolves, so a deleted name cannot stay exported."""

import importlib
import pkgutil

import pytest

import cliffscale

MODULES = ["cliffscale"] + sorted(
    info.name for info in pkgutil.walk_packages(cliffscale.__path__, "cliffscale.")
)


def test_both_packages_are_checked():
    assert {"cliffscale", "cliffscale.harmonic"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
