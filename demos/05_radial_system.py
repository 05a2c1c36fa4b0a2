"""The first-order radial system on the complex radius.

The separated wavefunction triple (f_+1, f_0, f_-1)(r), together with its
conjugate partner evaluated at r*, satisfies four coupled first-order
equations.  With f_0 = sqrt(2l(l+1)) r the inhomogeneous equations admit
f_{+-1} = C sqrt(r) + b r, and the linear coefficient b is forced to
b = 2l(l+1).  The historically printed value b = sqrt(2l(l+1)) misses by
exactly (sqrt(2l(l+1)) - 2l(l+1)) r, which this script measures; the
``paper`` variant is kept for that comparison and reports as flagged in the
verification suites rather than failing them.
"""

import cmath
import math

from poincarewaves import RadialSolution, radial_ladder, radial_residual

RINGS = [radius * cmath.exp(1j * math.pi * j / 8.0)
         for radius in (0.1, 1.0, 10.0) for j in range(-7, 9, 2)]

print("Corrected linear coefficient: all four equations vanish")
print("--------------------------------------------------------")
for l in (1, 2, 3):
    radial = RadialSolution(l=l, C=1.3 - 0.4j, Cdot=0.25 + 2.0j)
    worst = max(max(abs(eq) for eq in radial_residual(l, radial, r))
                for r in RINGS)
    print(f"l={l}: worst |equation| over {len(RINGS)} ring points = {worst:.2e}")

print()
print("Printed linear coefficient: the residual is exactly linear in r")
print("----------------------------------------------------------------")
for l in (1, 2, 3):
    paper = RadialSolution(l=l, C=1.3 - 0.4j, Cdot=0.25 + 2.0j,
                           variant="paper")
    rate = radial_ladder(l) - 2 * l * (l + 1)
    r = 1.0 + 0.5j
    eq1 = radial_residual(l, paper, r)[0]
    print(f"l={l}: eq1({r}) = {eq1:.6f}   predicted rate*r = {rate * r:.6f}"
          f"   |difference| = {abs(eq1 - rate * r):.2e}")

print()
print("C sqrt(r) spans the homogeneous kernel: residuals ignore C entirely")
print("-------------------------------------------------------------------")
base = RadialSolution(l=2, C=0.0, Cdot=0.0)
shifted = RadialSolution(l=2, C=5.0 - 3.0j, Cdot=-2.0 + 1j)
r = 0.3 + 0.8j
delta = max(abs(a - b) for a, b in zip(radial_residual(2, base, r),
                                       radial_residual(2, shifted, r)))
print(f"max |residual(C=0) - residual(C=5-3i)| at r = {r}: {delta:.2e}")
print("(2r d/dr - 1 annihilates C sqrt(r) exactly, so C never enters)")

print()
print("The l = 1, C = 0 case at r = 1")
print("------------------------------")
paper = RadialSolution(l=1, C=0.0, variant="paper")
print(f"f_zero(1) = {paper.f(0, 1.0)}")
print(f"eq1(1)    = {radial_residual(1, paper, 1.0)[0]}"
      "   (= sqrt(2l(l+1)) - 2l(l+1) = 2 - 4)")
corrected = RadialSolution(l=1, C=0.0)
print(f"corrected eq1(1) = {radial_residual(1, corrected, 1.0)[0]}")
