"""Assembled wavefunctions: plane-wave columns times boost-rotation factors.

Each member of the solution catalog is an exact product of a translation
plane wave in (x, t) and a scalar boost-rotation factor in (r, angles) --
the two coordinate sets never mix.  This script verifies that factorization
numerically, walks the six-member catalog for one wavevector with its
exclusion tags, and shows which first-order equation each translation
factor solves.
"""

import numpy as np

from poincarewaves import (
    HarmonicIndex,
    PhotonPlaneWave,
    RadialSolution,
    WaveVector,
    build_catalog,
    dirac_form_residual,
    generalized_m,
    make_angles,
    physical_filter,
)

K = WaveVector(1.0, 2.0, 3.0)
RADIAL = RadialSolution(l=2, C=0.7 - 0.2j, Cdot=-0.3 + 1.1j)
ANGLES = make_angles(0.9, 0.4, 1.7, -0.6, 2.2, 0.3)
X, T, R = np.array([0.2, -0.5, 0.8]), 1.3, 0.6 + 0.9j

catalog = build_catalog(K, l=2, radial=RADIAL)

print("Factorization: value == (plane-wave column) * (scalar factor)")
print("--------------------------------------------------------------")
# M^lam_2 at n = 0: the factor reads no chi and no vareps.
ZEROED = make_angles(ANGLES.phi, ANGLES.epsilon, ANGLES.theta, ANGLES.tau,
                     0.0, 0.0)
for member in catalog.members:
    wave = member.wave
    plane = PhotonPlaneWave(K, wave.lam).value(X, T)
    radius = R
    if wave.dotted:
        plane, radius = plane.conjugate(), R.conjugate()
    radial = RADIAL.select(wave.lam, wave.dotted)(radius)
    angular = generalized_m(HarmonicIndex(2, wave.lam, 0, wave.dotted), ZEROED)
    recomposed = plane * (radial * angular)
    gap = np.abs(wave.value(X, T, R, ANGLES) - recomposed).max()
    print(f"{member.label:>10}: max |direct - recomposed| = {gap:.2e}")

print()
print("The six-member catalog and its exclusion tags")
print("---------------------------------------------")
for member in catalog.members:
    tags = ", ".join(member.tags) if member.tags else "(physical)"
    print(f"{member.label:>10}: |k . eps| = {member.transversality:.4f}   {tags}")

physical = physical_filter(catalog)
print(f"physical subset: {[m.label for m in physical]}")

print()
print("Which first-order equation each translation factor solves")
print("----------------------------------------------------------")
for member in catalog.members:
    wave = member.wave
    equation = wave.translation_equation()
    residual = dirac_form_residual([wave.translation_term3()], equation, X, T)
    print(f"{member.label:>10}: solves {equation}, residual = {residual:.2e}"
          f"   (omega = {wave.plane.omega:+.4f})")

print()
print("Conjugation bridge: dotted member == conjugate of undotted member")
print("------------------------------------------------------------------")
conjugate_radial = RadialSolution(l=2, C=RADIAL.Cdot.conjugate(),
                                  Cdot=RADIAL.C.conjugate())
mirror = build_catalog(K, l=2, radial=conjugate_radial)
for lam, label, dotted_label in ((1, "psi_+1", "psi_dot_+1"),
                                 (-1, "psi_-1", "psi_dot_-1")):
    direct = catalog.member(dotted_label).wave.value(X, T, R, ANGLES)
    mirrored = mirror.member(label).wave.value(X, T, R, ANGLES).conjugate()
    gap = np.abs(direct - mirrored).max()
    print(f"{dotted_label:>10} vs conj({label}): max difference = {gap:.2e}")
