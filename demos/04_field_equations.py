"""The first-order photon systems and the classical field equations.

The 6-component column psi = (phi; chi) couples two 3-vector systems: the
upper rows apply the "+" first-order operator (ME2) and the lower rows the
"-" operator (ME1).  Writing phi = E + iB, chi = E - iB recovers the four
classical field equations.  This script shows:

  * the helicity members solve their respective 3-vector systems exactly,
    and complex conjugation swaps the two systems;
  * the conjugate-paired column (u; u*) solves the full 6x6 system;
  * transverse modes satisfy all four classical equations to roundoff while
    the longitudinal mode violates both divergence equations at scale
    N |k| — the transversality exclusion in differential form;
  * the energy density psi^dagger psi equals 2(|E|^2 + |B|^2) and the
    antisymmetrized Lagrangian density vanishes on-shell.
"""

import numpy as np

from poincarewaves import (
    NORMALIZATION,
    FieldPair,
    PhotonPlaneWave,
    dirac_form_residual,
    dirac_form_scale,
    energy_density,
    lagrangian_density_translation,
    maxwell_residuals,
)

K = (1.0, 2.0, 3.0)
X, T = (0.23, -0.41, 0.57), 0.31
norm = float(np.linalg.norm(K))

print("Helicity members and conjugation pairing")
print("----------------------------------------")
for lam in (1, 0, -1):
    wave = PhotonPlaneWave(K, lam)
    u1, u2 = wave.me1(), wave.me2()
    scale = dirac_form_scale(u1)
    conj1 = [term.conjugate() for term in u1]
    print(f"lam={lam:+d}:  ME1 residual {dirac_form_residual(u1, 'ME1', X, T):.2e}"
          f"   ME2 residual {dirac_form_residual(u2, 'ME2', X, T):.2e}"
          f"   conj(ME1 member) in ME2: {dirac_form_residual(conj1, 'ME2', X, T):.2e}"
          f"   (scale {scale:.2e})")

print()
print("The 6x6 column (u; u*)")
print("----------------------")
for lam in (1, 0, -1):
    column = PhotonPlaneWave(K, lam).me6()
    print(f"lam={lam:+d}:  ME6 residual {dirac_form_residual(column, 'ME6', X, T):.2e}"
          f"   on-shell Lagrangian |L| = "
          f"{abs(lagrangian_density_translation(column, X, T)):.2e}")

print()
print("Classical field equations (faraday, ampere, div E, div B)")
print("-----------------------------------------------------------")
karr = np.asarray(K)
x_adapted = tuple(0.7 * karr / (karr @ karr))
for lam in (1, -1, 0):
    residuals = maxwell_residuals(K, lam, x_adapted, T)
    tag = "" if lam else f"   <- divergences fail at scale N|k| = {NORMALIZATION * norm:.3e}"
    print(f"lam={lam:+d}: " + "  ".join(f"{r:.2e}" for r in residuals) + tag)

print()
print("Energy density and its field form")
print("---------------------------------")
psi = sum(term.amplitude * term.phase(X, T) for term in PhotonPlaneWave(K, 1).me6())
pair = FieldPair.from_value(psi)
print(f"psi^dagger psi            = {energy_density(psi):.6e}")
print(f"2 (|E|^2 + |B|^2)         = "
      f"{2 * (np.linalg.norm(pair.E)**2 + np.linalg.norm(pair.B)**2):.6e}")
print(f"2 N^2 (plane-wave value)  = {2 * NORMALIZATION**2:.6e}")
