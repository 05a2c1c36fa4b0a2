"""Hyperspherical harmonics on the Lorentz group and first-order photon waves.

The package evaluates matrix elements of unitary Lorentz-group representations
by several independent routes, the photon (Dirac-form) plane-wave sector with
its polarization eigenstructure, an l = 1 radial system on the complex
two-sphere, and fully assembled wavefunctions on the Poincare group — together
with a cross-verification harness exposed both as a library and as the
``poincarewaves`` command-line tool.

Module map
    group_kinematics     complex Euler angles, SL(2, C) parametrization
    lorentz_harmonics    hyperspherical matrix elements Z, M and their factors
    differential_checks  finite-difference residual records (Casimir, etc.)
    photon_plane_waves   spin matrices, polarization triple, 6-component waves
    lorentz_sector       spin-block matrices, radial system, separated columns
    poincare_assembly    full wavefunctions and the six-member solution catalog
    suites               the verification-suite registry behind ``verify``
    cli                  the ``poincarewaves`` command-line entry point
"""

from .differential_checks import (
    DEFAULT_SCHEME,
    FDScheme,
    ResidualRecord,
    casimir_convergence_order,
    casimir_x2_residual,
    casimir_y2_residual,
    holomorphy_residual,
    legendre_residual,
    make_record,
)
from .group_kinematics import (
    ComplexEulerAngles,
    ComplexSpherePoint,
    SL2CElement,
    angles_to_sl2c,
    make_angles,
    sl2c_to_complex_rotation,
)
from .lorentz_harmonics import (
    HarmonicIndex,
    associated_m,
    generalized_m,
    generalized_m_values,
    qu2_factor_jacobi,
    su2_factor_p,
    terminating_2f1,
    z_2f1,
    z_2f1_grid,
    z_sum,
    z_sum_grid,
    zonal_z,
)
from .lorentz_sector import (
    LambdaMatrices,
    RadialSolution,
    SeparatedSolution,
    build_matrices,
    radial_ladder,
    radial_residual,
    separated_psi,
)
from .photon_plane_waves import (
    NORMALIZATION,
    Eigenstructure,
    FieldPair,
    PhotonPlaneWave,
    PlaneWaveTerm,
    PolarizationTriple,
    SpinMatrices,
    WaveVector,
    anti_equation_residual,
    curl_matrix,
    dirac_form_residual,
    dirac_form_scale,
    eigenstructure,
    energy_density,
    evaluate_terms,
    lagrangian_density_translation,
    maxwell_residuals,
    me1_member,
    me2_member,
    me6_column,
    mode_field_terms,
    plane_wave,
    polarization_vectors,
    spin_matrices,
    transversality_residual,
)
from .poincare_assembly import (
    CatalogMember,
    PoincareWaveFunction,
    SolutionCatalog,
    build_catalog,
    physical_filter,
)
from .suites import (
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    SuiteConfig,
    build_report,
    report_exit_code,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # group_kinematics
    "ComplexEulerAngles", "ComplexSpherePoint", "SL2CElement",
    "angles_to_sl2c", "make_angles", "sl2c_to_complex_rotation",
    # lorentz_harmonics
    "HarmonicIndex", "associated_m", "generalized_m", "generalized_m_values",
    "qu2_factor_jacobi", "su2_factor_p", "terminating_2f1", "z_2f1",
    "z_2f1_grid", "z_sum", "z_sum_grid", "zonal_z",
    # differential_checks
    "DEFAULT_SCHEME", "FDScheme", "ResidualRecord",
    "casimir_convergence_order", "casimir_x2_residual", "casimir_y2_residual",
    "holomorphy_residual", "legendre_residual", "make_record",
    # photon_plane_waves
    "NORMALIZATION", "Eigenstructure", "FieldPair", "PhotonPlaneWave",
    "PlaneWaveTerm", "PolarizationTriple", "SpinMatrices", "WaveVector",
    "anti_equation_residual", "curl_matrix", "dirac_form_residual",
    "dirac_form_scale", "eigenstructure", "energy_density", "evaluate_terms",
    "lagrangian_density_translation", "maxwell_residuals", "me1_member",
    "me2_member", "me6_column", "mode_field_terms", "plane_wave",
    "polarization_vectors", "spin_matrices", "transversality_residual",
    # lorentz_sector
    "LambdaMatrices", "RadialSolution", "SeparatedSolution", "build_matrices",
    "radial_ladder", "radial_residual", "separated_psi",
    # poincare_assembly
    "CatalogMember", "PoincareWaveFunction", "SolutionCatalog", "build_catalog",
    "physical_filter",
    # suites
    "DEFAULT_TOLERANCES", "SUITE_NAMES", "SuiteConfig", "build_report",
    "report_exit_code", "run_suite",
]
