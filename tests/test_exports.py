"""Every name a module exports resolves, and every name it imports is used."""

import ast
import importlib
import inspect
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


# Imported and never called: benchmarks/tracing.py wraps aggregate_trials at
# each of these module names, and curve_to_json at the CLI's.
TRACED_IMPORTS = {
    ("cliffscale.gaussian", "aggregate_trials"),
    ("cliffscale.linreg", "aggregate_trials"),
    ("cliffscale.harmonic.training", "aggregate_trials"),
    ("cliffscale.cli", "curve_to_json"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used(name):
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", ()))
    unused = {bound for bound in imported - used if (name, bound) not in TRACED_IMPORTS}
    assert unused == set()
