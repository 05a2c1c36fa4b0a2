"""The package's public surface: each module's ``__all__`` is the one list,
and an argument outside a callable's domain is refused with a ValueError."""

import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest

import poincarewaves
from poincarewaves import (
    PhotonPlaneWave,
    PlaneWaveTerm,
    anti_equation_residual,
    dirac_form_residual,
    dirac_form_scale,
    energy_density,
    maxwell_residuals,
    radial_ladder,
    terminating_2f1,
)

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


NAN, INF, BIG_K = math.nan, math.inf, (1e200, 1e200, 0.0)

#: (id, call, pattern): each call once leaked a NaN, a numpy warning or
#: another exception; the refusal's message names the argument.
DOMAIN_CASES = [
    ("term-amplitude",
     lambda: PlaneWaveTerm([NAN] * 6, (1, 2, 3), 1.0), "amplitude"),
    ("term-kvec", lambda: PlaneWaveTerm([1] * 6, (1, INF, 3), 1.0), "kvec"),
    ("term-omega", lambda: PlaneWaveTerm([1] * 6, (1, 2, 3), NAN), "omega"),
    *((f"phase-{name}", lambda x=x: PlaneWaveTerm([1] * 6, (1, 2, 3), 1.0)
       .phase(x, 0.0), r"\bx=")
      for name, x in (("1e308", (1e308,) * 3), ("inf", (INF, -INF, 0)))),
    *((f"phase-t-{lam}", lambda lam=lam: PhotonPlaneWave((1, 2, 3), lam).value(
        (0, 0, 0), np.float64(1e308 if lam else INF)), r"\bt=") for lam in (1, 0)),
    ("dirac-ME1", lambda: dirac_form_residual(
        PhotonPlaneWave(BIG_K, 1).me1(), "ME1"), "terms"),
    ("dirac-ME6", lambda: dirac_form_residual(
        PhotonPlaneWave(BIG_K, 1).me6(), "ME6"), "terms"),
    ("scale", lambda: dirac_form_scale(
        PhotonPlaneWave(BIG_K, 1).me6()), "terms"),
    ("scale-1.7e200", lambda: dirac_form_scale(
        PhotonPlaneWave((1.7e200, 0, 0), 1).me6()), "terms"),
    ("anti", lambda: anti_equation_residual(
        PhotonPlaneWave(BIG_K, 1).me6()), "terms"),
    ("maxwell", lambda: maxwell_residuals(BIG_K, 1), r"\bk\b"),
    *((f"energy-{value}",
       lambda value=value: energy_density([value, 0, 0, 0, 0, 0]), "psi6")
      for value in (INF, 1e200)),
    *((f"2f1-{x}", lambda x=x: terminating_2f1(-3, 2, 1.5, x), r"\bx\b")
      for x in (NAN, INF, -INF, 1e308)),
    *((f"ladder-{l}", lambda l=l: radial_ladder(l), r"\bl\b")
      for l in (NAN, -5, 1e300)),
]


@pytest.mark.parametrize("call, pattern",
                         [case[1:] for case in DOMAIN_CASES],
                         ids=[case[0] for case in DOMAIN_CASES])
def test_out_of_domain_argument_is_a_value_error(call, pattern):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=pattern):
            call()
