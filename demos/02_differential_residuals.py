"""Differential identities satisfied by the matrix elements.

The matrix elements are eigenfunctions of two quadratic (Casimir) operators —
one built from the rotation-boost generator combination X, one from its
conjugate partner Y — with eigenvalue l(l+1).  Restricted to the complexified
polar angle they also solve a second-order equation in z = cos(theta_c).
Both facts are checked here with Richardson-extrapolated finite differences;
each check returns a (residual, scale) pair, judged here as the verification
suites judge it: passed = residual <= tolerance * max(1, scale), at the
tolerance 1e-6.
"""

from poincarewaves import (
    HarmonicIndex,
    casimir_convergence_order,
    casimir_x2_residual,
    casimir_y2_residual,
    legendre_residual,
    make_angles,
)

ANGLES = make_angles(0.4, 0.25, 0.9, 0.35, 1.1, -0.2)


def verdict(residual: float, scale: float) -> str:
    return (f"residual {residual:.2e} (scale {scale:.2e})  "
            f"passed={residual <= 1e-6 * max(1.0, scale)}")


print("Casimir residuals (finite differences + Richardson extrapolation)")
print("------------------------------------------------------------------")
for l, m, n in [(1, 1, 0), (2, -1, 1), (1.5, 0.5, -0.5)]:
    print(f"X^2 on Z[{l:>3}, {m:>4}, {n:>4}]: "
          + verdict(*casimir_x2_residual(HarmonicIndex(l, m, n), ANGLES)))
    print("Y^2 on conjugate partner : " + verdict(*casimir_y2_residual(
        HarmonicIndex(l, m, n, dotted=True), ANGLES)))

print()
print("Measured convergence order of the stencil (should be close to 2)")
print("-----------------------------------------------------------------")
idx = HarmonicIndex(1, 1, -1)
print(f"undotted: {casimir_convergence_order(idx, ANGLES):.4f}")
idx = HarmonicIndex(1, 1, -1, dotted=True)
print(f"dotted:   {casimir_convergence_order(idx, ANGLES):.4f}")

print()
print("Second-order equation in z = cos(theta - i tau)")
print("------------------------------------------------")
for l, m, n in [(1, 0, 0), (2, 1, -1), (3, 2, 0)]:
    print(f"l={l}, m={m:>2}, n={n:>2}: "
          + verdict(*legendre_residual(HarmonicIndex(l, m, n), 1.1, 0.3)))
