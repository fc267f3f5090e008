"""Every name a ``gpgl`` module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import gpgl

MODULES = ["gpgl"] + [
    info.name for info in pkgutil.walk_packages(gpgl.__path__, prefix="gpgl.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_walk_finds_every_module():
    assert {"gpgl.cli", "gpgl.nn", "gpgl.nn.ops", "gpgl.nn.train"} <= set(MODULES)
