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
    PhotonPlaneWave,
    RadialSolution,
    WaveVector,
    build_catalog,
    dirac_form_residual,
    make_angles,
    physical_filter,
    separated_psi,
)

K = WaveVector(1.0, 2.0, 3.0)
RADIAL = RadialSolution(l=2, C=0.7 - 0.2j, Cdot=-0.3 + 1.1j)
ANGLES = make_angles(0.9, 0.4, 1.7, -0.6, 2.2, 0.3)
X, T, R = np.array([0.2, -0.5, 0.8]), 1.3, 0.6 + 0.9j

catalog = build_catalog(K, l=2, radial=RADIAL)

print("Factorization: value == (plane-wave column) * (scalar factor)")
print("--------------------------------------------------------------")
slots = {1: 0, 0: 1, -1: 2}
for member in catalog.members:
    wave = member.wave
    plane = PhotonPlaneWave(K, wave.lam).value(X, T)
    if wave.dotted:
        plane = plane.conjugate()
    separated = separated_psi(2, RADIAL, R, ANGLES)
    triple = separated.psi_dot if wave.dotted else separated.psi
    recomposed = plane * triple[slots[wave.lam]]
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
