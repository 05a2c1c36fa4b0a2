"""Polarization eigenstructure of the first-order photon equations.

A plane wave with wavevector k solves the first-order (Dirac-form) photon
system exactly when its amplitude is an eigenvector of the Hermitian curl
matrix M(k) = i c [k x].  The spectrum is always {-c|k|, 0, +c|k|}: two
transverse circular polarizations and one longitudinal zero mode.  Closed
forms for the eigenvectors are compared against a direct numerical
diagonalization, including the continuity of the closed forms through the
degenerate configuration k parallel to the z-axis.
"""

import numpy as np

from poincarewaves import (
    curl_matrix,
    eigenstructure,
    polarization_vectors,
    transversality_residual,
)

K = (1.0, 2.0, 3.0)
norm = float(np.linalg.norm(K))

print(f"Curl matrix for k = {K}  (|k| = {norm:.6f})")
print("---------------------------------------------")
M = curl_matrix(K)
print(np.array_str(M, precision=3, suppress_small=True))
print("Hermitian:", np.allclose(M, M.conj().T))

print()
print("Spectrum and closed-form eigenvectors")
print("-------------------------------------")
eigenvalues, _ = eigenstructure(K)
print("eigenvalues:", np.array_str(eigenvalues, precision=10))
pol = polarization_vectors(K)
for label, lam, eps in [("eps_plus ", 1, pol.eps_plus),
                        ("eps_zero ", 0, pol.eps_zero),
                        ("eps_minus", -1, pol.eps_minus)]:
    action = M @ eps
    expected = lam * norm * eps
    print(f"{label}: |M eps - lam c|k| eps| = "
          f"{np.abs(action - expected).max():.2e}"
          f"   |k . eps| = {transversality_residual(K, lam):.2e}")

print()
print("Degenerate configuration: k along the z-axis")
print("---------------------------------------------")
axis = polarization_vectors((0.0, 0.0, 2.0))
near = polarization_vectors((1e-6, 0.0, 2.0))
print("eps_plus on the axis:   ", np.array_str(axis.eps_plus, precision=6))
print("eps_plus just off-axis: ", np.array_str(near.eps_plus, precision=6))
print(f"largest component jump:  "
      f"{max(np.abs(a - b).max() for a, b in [(axis.eps_plus, near.eps_plus), (axis.eps_minus, near.eps_minus), (axis.eps_zero, near.eps_zero)]):.2e}")
