"""The package's public surface: each module's ``__all__`` is the one list,
and an argument outside a callable's domain is refused with a ValueError."""

import cmath
import dataclasses
import importlib
import math
import pkgutil
import re
import warnings

import numpy as np
import pytest

import poincarewaves
from poincarewaves import (
    PhotonPlaneWave,
    PlaneWaveTerm,
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
    ("dirac-ANTI", lambda: dirac_form_residual(
        PhotonPlaneWave(BIG_K, 1).me6(), "ANTI"), "terms"),
    ("maxwell", lambda: maxwell_residuals(BIG_K, 1), r"\bk\b"),
    # Once "not enough values to unpack (expected 3, got 2)".
    *((f"wavevector-{name}-{len(k)}", lambda call=call, k=k: call(k), r"^k\b")
      for name, call in (("eigen", poincarewaves.eigenstructure),
                         ("polarization", poincarewaves.polarization_vectors),
                         ("plane-wave", lambda k: PhotonPlaneWave(k, 1)),
                         ("curl", poincarewaves.curl_matrix))
      for k in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0))),
    *((f"energy-{value}",
       lambda value=value: energy_density([value, 0, 0, 0, 0, 0]), "psi6")
      for value in (INF, 1e200)),
    *((f"2f1-{x}", lambda x=x: terminating_2f1(-3, 2, 1.5, x), r"\bx\b")
      for x in (NAN, INF, -INF, 1e308)),
    *((f"ladder-{l}", lambda l=l: radial_ladder(l), r"\bl\b")
      for l in (NAN, -5, 1e300)),
    # Once (inf+1e+154j), (nan+nanj), an OverflowError, a ZeroDivisionError
    # and, for lam = 5, the value of the +-1 slot.
    *((f"radial-{name}", lambda method=method, lam=lam, r=r: getattr(
        poincarewaves.RadialSolution(1, C=1 + 1j), method)(lam, r), pattern)
      for name, method, lam, r, pattern in (
          ("f-1e308", "f", 1, 1e308, r"\br\b"),
          ("f-nan", "f", 1, NAN, r"\br\b"),
          ("f-10**400", "f", 1, 10**400, r"\br\b"),
          ("f_prime-0", "f_prime", 1, 0, r"\br\b"),
          ("f-lam-5", "f", 5, 1.0, r"\blam\b"))),
    # Once KeyError: 'nosuch'.
    ("tolerance-unknown-check", lambda: poincarewaves.SuiteConfig().tolerance(
        "nosuch"), "^unknown tolerance name 'nosuch'; valid names: "),
    ("record-unknown-check", lambda: poincarewaves.SuiteConfig().record(
        "nosuch", {}, {}, 0.0, 1.0),
     "^unknown tolerance name 'nosuch'; valid names: "),
    # A NaN value, and numpy's "invalid value encountered in multiply".
    *((f"assembled-r-{r}", lambda r=r: poincarewaves.PoincareWaveFunction(
        (1, 2, 3), 1, 1, poincarewaves.RadialSolution(1, C=0.5)).value(
            (0, 0, 0), 0.0, r, poincarewaves.make_angles(0, 0, 1, 0, 0, 0)),
       r"\br\b") for r in (INF, 1e308)),
]


@pytest.mark.parametrize("call, pattern",
                         [case[1:] for case in DOMAIN_CASES],
                         ids=[case[0] for case in DOMAIN_CASES])
def test_out_of_domain_argument_is_a_value_error(call, pattern):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=pattern):
            call()


# ---------------------------------------------------------------------------
# The domain sweep: every public callable, each numeric argument in turn
# ---------------------------------------------------------------------------

def _angles():
    return poincarewaves.make_angles(0.3, 0.1, 1.0, 0.2, 0.4, -0.2)


def _terms(size):
    wave = PhotonPlaneWave((1.0, 2.0, 3.0), 1)
    return wave.me6() if size == 6 else wave.me1()


def _member():
    return poincarewaves.PoincareWaveFunction(
        (1.0, 2.0, 3.0), 1, 1, poincarewaves.RadialSolution(1, C=0.5 + 0.2j))


def _index():
    return poincarewaves.HarmonicIndex(1, 1, 0)


SIX = dict(phi=0.3, epsilon=0.1, theta=1.0, tau=0.2, chi=0.4, vareps=-0.2)
POINT = dict(x=(0.1, -0.2, 0.3), t=0.4)

#: Valid arguments of every public callable, by keyword: name -> factory of
#: (callable, arguments).  A public callable without a factory fails
#: test_every_public_callable_has_a_factory.  "dirac_form_residual-ANTI" is
#: the conjugate-field form of its callable; the methods after the public
#: names are the entries that take a caller's point or radius.
FACTORIES = {
    "ComplexEulerAngles": lambda: (poincarewaves.ComplexEulerAngles, SIX),
    "make_angles": lambda: (poincarewaves.make_angles, SIX),
    "HarmonicIndex": lambda: (poincarewaves.HarmonicIndex,
                              dict(l=1.5, m=0.5, n=-0.5)),
    "terminating_2f1": lambda: (terminating_2f1,
                                dict(a=-3, b=2, c=1.5, x=0.25)),
    "z_sum": lambda: (poincarewaves.z_sum,
                      dict(idx=_index(), theta=1.0, tau=0.3)),
    "z_2f1": lambda: (poincarewaves.z_2f1,
                      dict(idx=_index(), theta=1.0, tau=0.3)),
    "z_sum_grid": lambda: (poincarewaves.z_sum_grid, dict(
        indices=[_index()], thetas=[1.0, 2.0], taus=[0.3])),
    "su2_factor_p": lambda: (poincarewaves.su2_factor_p,
                             dict(l=1, m=1, k=0, theta=1.0)),
    "qu2_factor_jacobi": lambda: (poincarewaves.qu2_factor_jacobi,
                                  dict(l=1, k=0, n=1, tau=0.3)),
    "generalized_m": lambda: (poincarewaves.generalized_m,
                              dict(idx=_index(), angles=_angles())),
    "generalized_m_values": lambda: (poincarewaves.generalized_m_values,
                                     dict(l=1, m=1, n=-1, **SIX)),
    "associated_m": lambda: (poincarewaves.associated_m,
                             dict(l=1, m=1, angles=_angles())),
    "zonal_z": lambda: (poincarewaves.zonal_z, dict(l=1, theta=1.0, tau=0.3)),
    "ResidualRecord": lambda: (poincarewaves.ResidualRecord, dict(
        check_name="demo", indices={"l": 1.0}, point={"theta": 0.5},
        residual=1e-12, scale=1.0, tolerance=1e-10)),
    "make_record": lambda: (poincarewaves.make_record, dict(
        check_name="demo", indices={"l": 1.0}, point={"theta": 0.5},
        residual=1e-12, scale=1.0, tolerance=1e-10)),
    "casimir_x2_residual": lambda: (poincarewaves.casimir_x2_residual,
                                    dict(idx=_index(), angles=_angles())),
    "casimir_y2_residual": lambda: (poincarewaves.casimir_y2_residual, dict(
        idx=poincarewaves.HarmonicIndex(1, 1, 0, True), angles=_angles())),
    "legendre_residual": lambda: (poincarewaves.legendre_residual,
                                  dict(idx=_index(), theta=1.0, tau=0.3)),
    "holomorphy_residual": lambda: (poincarewaves.holomorphy_residual,
                                    dict(idx=_index(), theta=1.0, tau=0.3)),
    "casimir_convergence_order": lambda: (
        poincarewaves.casimir_convergence_order,
        dict(idx=_index(), angles=_angles())),
    "WaveVector": lambda: (poincarewaves.WaveVector,
                           dict(k1=1.0, k2=2.0, k3=3.0)),
    "PolarizationTriple": lambda: (poincarewaves.PolarizationTriple, dict(
        eps_plus=(0.6, 0.8j, 0.0), eps_minus=(0.6, -0.8j, 0.0),
        eps_zero=(0.0, 0.0, 1.0))),
    "PhotonPlaneWave": lambda: (PhotonPlaneWave,
                                dict(k=(1.0, 2.0, 3.0), lam=1, c=1.0)),
    "PlaneWaveTerm": lambda: (PlaneWaveTerm, dict(
        amplitude=(0.1, 0.2j, 0.3, 0.1, -0.2j, 0.3), kvec=(1.0, 2.0, 3.0),
        omega=1.5)),
    "FieldPair": lambda: (poincarewaves.FieldPair,
                          dict(E=(1.0, 0.5, 0.0), B=(0.0, 0.5, 1.0))),
    "commutator_sign": lambda: (poincarewaves.commutator_sign,
                                dict(tolerance=1e-14)),
    "curl_matrix": lambda: (poincarewaves.curl_matrix,
                            dict(k=(1.0, 2.0, 3.0), c=1.0)),
    "eigenstructure": lambda: (poincarewaves.eigenstructure,
                               dict(k=(1.0, 2.0, 3.0), c=1.0)),
    "polarization_vectors": lambda: (poincarewaves.polarization_vectors,
                                     dict(k=(1.0, 2.0, 3.0))),
    "transversality_residual": lambda: (poincarewaves.transversality_residual,
                                        dict(k=(1.0, 2.0, 3.0), lam=1)),
    "dirac_form_residual": lambda: (dirac_form_residual, dict(
        terms=_terms(3), equation="ME1", **POINT, c=1.0)),
    "dirac_form_residual-ANTI": lambda: (dirac_form_residual, dict(
        terms=_terms(6), equation="ANTI", **POINT, c=1.0)),
    "dirac_form_scale": lambda: (dirac_form_scale,
                                 dict(terms=_terms(6), c=1.0)),
    "maxwell_residuals": lambda: (maxwell_residuals, dict(
        k=(1.0, 2.0, 3.0), lam=1, **POINT, c=1.0)),
    "maxwell_residuals_from_terms": lambda: (
        poincarewaves.maxwell_residuals_from_terms,
        dict(e_terms=PhotonPlaneWave((1.0, 2.0, 3.0), 1).fields()[0],
             b_terms=PhotonPlaneWave((1.0, 2.0, 3.0), 1).fields()[1],
             **POINT, c=1.0)),
    "energy_density": lambda: (energy_density,
                               dict(psi6=(0.1, 0.2j, 0.3, 0.1, -0.2j, 0.3))),
    "lagrangian_density_translation": lambda: (
        poincarewaves.lagrangian_density_translation,
        dict(terms=_terms(6), **POINT, c=1.0)),
    "LambdaMatrices": lambda: (poincarewaves.LambdaMatrices, dict(
        lambdas=poincarewaves.build_matrices().lambdas,
        upsilons=poincarewaves.build_matrices().upsilons)),
    "RadialSolution": lambda: (poincarewaves.RadialSolution,
                               dict(l=1, C=0.5 + 0.2j, Cdot=-0.3)),
    "build_matrices": lambda: (poincarewaves.build_matrices,
                               dict(corrected=True)),
    "radial_residual": lambda: (poincarewaves.radial_residual, dict(
        l=1, radial=poincarewaves.RadialSolution(1, C=0.5), r=0.5 + 0.2j)),
    "radial_ladder": lambda: (radial_ladder, dict(l=2)),
    "angular_order": lambda: (poincarewaves.angular_order, dict(l=2)),
    "PoincareWaveFunction": lambda: (poincarewaves.PoincareWaveFunction, dict(
        k=(1.0, 2.0, 3.0), lam=1, l=1,
        radial=poincarewaves.RadialSolution(1, C=0.5), c=1.0)),
    "CatalogMember": lambda: (poincarewaves.CatalogMember,
                              dict(label="psi_+1", wave=_member(), tags=())),
    "SolutionCatalog": lambda: (poincarewaves.SolutionCatalog, dict(
        members=poincarewaves.build_catalog(
            (1.0, 2.0, 3.0), 1, poincarewaves.RadialSolution(1)).members)),
    "build_catalog": lambda: (poincarewaves.build_catalog, dict(
        k=(1.0, 2.0, 3.0), l=1, radial=poincarewaves.RadialSolution(1),
        c=1.0)),
    "physical_filter": lambda: (poincarewaves.physical_filter, dict(
        catalog=poincarewaves.build_catalog(
            (1.0, 2.0, 3.0), 1, poincarewaves.RadialSolution(1)))),
    "SuiteConfig": lambda: (poincarewaves.SuiteConfig,
                            dict(lmax=1, grid_density=2, seed=0, c=1.0)),
    "run_suite": lambda: (poincarewaves.run_suite, dict(
        name="commutators", config=poincarewaves.SuiteConfig())),
    "build_report": lambda: (poincarewaves.build_report, dict(
        name="commutators", config=poincarewaves.SuiteConfig())),
    "report_exit_code": lambda: (poincarewaves.report_exit_code, dict(
        report={"records": [{"flagged": False, "passed": True}]})),
    "PlaneWaveTerm.phase": lambda: (PlaneWaveTerm(
        (0.1, 0.2j, 0.3), (1.0, 2.0, 3.0), 1.5).phase, POINT),
    "PhotonPlaneWave.value": lambda: (
        PhotonPlaneWave((1.0, 2.0, 3.0), 1).value, POINT),
    "PoincareWaveFunction.value": lambda: (_member().value, dict(
        **POINT, r=0.9 - 0.4j, angles=_angles())),
    "PoincareWaveFunction.lorentz_factor": lambda: (
        _member().lorentz_factor, dict(r=0.9 - 0.4j, angles=_angles())),
    "SuiteConfig.record": lambda: (poincarewaves.SuiteConfig().record, dict(
        check="casimir", indices={"l": 1.0}, point={"theta": 0.5},
        residual=1e-12, scale=1.0)),
    "FieldPair.from_value": lambda: (poincarewaves.FieldPair.from_value,
                                     dict(psi6=(0.1, 0.2j, 0.3, 0.1, -0.2j, 0.3))),
    "RadialSolution.f": lambda: (poincarewaves.RadialSolution(1, C=1 + 1j).f,
                                 dict(lam=1, r=0.9 - 0.4j)),
    "RadialSolution.f_prime": lambda: (
        poincarewaves.RadialSolution(1, C=1 + 1j).f_prime,
        dict(lam=1, r=0.9 - 0.4j)),
}

#: Each numeric argument in turn takes each of these values; None stands for
#: the valid value as a 0-d array.
BOUNDARY = [("nan", NAN), ("inf", INF), ("-inf", -INF), ("1e308", 1e308),
            ("-1e308", -1e308), ("10**400", 10**400), ("-10**400", -10**400),
            ("5e-324", 5e-324), ("-0.0", -0.0), ("0-d", None)]


def _is_number(value):
    return (isinstance(value, (int, float, complex, np.number))
            and not isinstance(value, (bool, np.bool_)))


def _slots(arguments):
    """(argument, position) of every numeric argument: a number, or each
    entry of a flat sequence of numbers, whose position is its index."""
    for name, value in arguments.items():
        if _is_number(value):
            yield name, None
        elif (isinstance(value, (tuple, list)) and value
              and all(map(_is_number, value))):
            yield from ((name, i) for i in range(len(value)))


def _finite_result(value):
    """Every number the result holds is finite, recursing into containers
    and dataclass fields."""
    if value is None or isinstance(value, (str, bool, int, np.bool_,
                                           np.integer)):
        return True
    if isinstance(value, (float, complex, np.floating, np.complexfloating)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(_finite_result, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite_result, value))
    if dataclasses.is_dataclass(value):
        return all(_finite_result(getattr(value, field.name))
                   for field in dataclasses.fields(value))
    raise TypeError(f"no finiteness rule for {type(value).__name__}")


SWEEP_CASES = [
    pytest.param(
        name, argument, position, value,
        id=f"{name}-{argument}{'' if position is None else f'[{position}]'}"
           f"-{label}")
    for name, factory in FACTORIES.items()
    for argument, position in _slots(factory()[1])
    for label, value in BOUNDARY
]


def test_every_public_callable_has_a_factory():
    public = {name for name in poincarewaves.__all__
              if callable(getattr(poincarewaves, name))}
    assert sorted(public - set(FACTORIES)) == []


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_factory_arguments_are_valid(name):
    call, arguments = FACTORIES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite_result(call(**arguments))


@pytest.mark.parametrize("name, argument, position, value", SWEEP_CASES)
def test_boundary_argument_gives_a_finite_result_or_names_it(
        name, argument, position, value):
    def boundary(valid):
        return np.array(valid) if value is None else value

    call, arguments = FACTORIES[name]()
    arguments = dict(arguments)
    if position is None:
        arguments[argument] = boundary(arguments[argument])
    else:
        vector = list(arguments[argument])
        vector[position] = boundary(vector[position])
        arguments[argument] = vector
    # A sequence's entries may be named by the singular: thetas -> theta.
    names = {argument, argument[:-1] if argument.endswith("s") else argument}
    pattern = "|".join(rf"\b{re.escape(n)}" for n in sorted(names))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**arguments)
        except ValueError as error:
            assert re.search(pattern, str(error)), str(error)
        else:
            assert _finite_result(result), result
