"""Hyperspherical harmonics on the Lorentz group and first-order photon waves.

The package evaluates matrix elements of unitary Lorentz-group representations
by several independent routes, the photon (Dirac-form) plane-wave sector with
its polarization eigenstructure, an l = 1 radial system on the complex
two-sphere, and fully assembled wavefunctions on the Poincare group — together
with a cross-verification harness exposed both as a library and as the
``poincarewaves`` command-line tool.

Module map
    group_kinematics     complex Euler angles and the finite-number gate
    lorentz_harmonics    hyperspherical matrix elements Z, M and their factors
    differential_checks  finite-difference residuals (Casimir, etc.)
    photon_plane_waves   spin matrices, polarization triple, 6-component waves
    lorentz_sector       spin-block matrices, the radial system and its solutions
    poincare_assembly    full wavefunctions and the six-member solution catalog
    suites               the verification-suite registry behind ``verify``
    cli                  the ``poincarewaves`` command-line entry point
"""

from .group_kinematics import *
from .lorentz_harmonics import *
from .differential_checks import *
from .photon_plane_waves import *
from .lorentz_sector import *
from .poincare_assembly import *
from .suites import *

__version__ = "0.1.0"

# Each star import above also binds its submodule here; the package exports
# exactly the names the modules declare in their own ``__all__``.
__all__ = ["__version__"] + [
    name
    for module in (group_kinematics, lorentz_harmonics, differential_checks,
                   photon_plane_waves, lorentz_sector, poincare_assembly, suites)
    for name in module.__all__
]
