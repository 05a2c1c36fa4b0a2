"""The package's public surface: each module's ``__all__`` is the one list."""

import importlib
import pkgutil

import pytest

import poincarewaves

MODULES = [
    importlib.import_module(f"poincarewaves.{name}")
    for name in ("group_kinematics", "lorentz_harmonics", "differential_checks",
                 "photon_plane_waves", "lorentz_sector", "poincare_assembly",
                 "suites")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_all_names_exist(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_library_module_is_listed():
    # cli is the command-line entry point, not part of the library surface.
    names = {info.name for info in pkgutil.iter_modules(poincarewaves.__path__)}
    assert names - {"cli"} == {module.__name__.rpartition(".")[2]
                               for module in MODULES}


def test_package_all_is_the_union_of_module_lists():
    exported = poincarewaves.__all__
    assert len(set(exported)) == len(exported)
    union = {name for module in MODULES for name in module.__all__}
    assert sorted(exported) == sorted({"__version__"} | union)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exports_are_the_module_objects(module):
    for name in module.__all__:
        assert getattr(poincarewaves, name) is getattr(module, name), name
