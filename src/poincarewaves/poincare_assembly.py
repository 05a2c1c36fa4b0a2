"""Assembled wavefunctions: translation plane waves times boost-rotation factors.

Each assembled member is an exact product

    psi_lam(x, t, r, angles)
        = [plane-wave 6-column for (k, lam)]
          * f^l_{1,lam}(r) * M^{lam}_l(phi, eps, theta, tau, 0, 0)

with the boost-rotation factor a scalar multiplying both 3-blocks uniformly.
The dotted (conjugate, negative-energy) branch uses the conjugated plane-wave
column exp[-i(k.x - wt)] with conjugated polarization, the dotted radial
functions at r*, and the dotted (conjugated) angular functions.

The full catalog for one wavevector has six members
[psi_+1, psi_0, psi_-1, psi_dot_+1, psi_dot_0, psi_dot_-1]; the physical
subset is exactly {psi_+1, psi_-1}: dotted members are tagged negative-energy
and omitted, longitudinal members are tagged excluded-by-transversality, and
each member's ``transversality`` computes |k . eps_lam| as evidence when read.

r and the spacetime point are independent coordinates of the configuration
space; no constraint ties r to x.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .group_kinematics import ComplexEulerAngles, _finite
from .lorentz_harmonics import HarmonicIndex, _element
from .lorentz_sector import angular_order
from .photon_plane_waves import (
    PhotonPlaneWave,
    PlaneWaveTerm,
    WaveVector,
    _as_wavevector,
    transversality_residual,
)

__all__ = [
    "PoincareWaveFunction",
    "CatalogMember",
    "SolutionCatalog",
    "build_catalog",
    "physical_filter",
    "TAG_NEGATIVE_ENERGY",
    "TAG_OMITTED",
    "TAG_LONGITUDINAL",
]

TAG_NEGATIVE_ENERGY = "negative-energy"
TAG_OMITTED = "omitted"
TAG_LONGITUDINAL = "excluded-by-transversality"


@dataclass(frozen=True)
class PoincareWaveFunction:
    """One assembled member: plane-wave column times boost-rotation scalar."""

    k: WaveVector
    lam: int
    l: int
    radial: object
    dotted: bool = False
    c: float = 1.0
    plane: PhotonPlaneWave = field(init=False, repr=False, compare=False)
    index: HarmonicIndex = field(init=False, repr=False, compare=False)  # (l, lam, 0)

    def __post_init__(self) -> None:
        plane = PhotonPlaneWave(self.k, self.lam, self.c)  # validates k, lam, c
        object.__setattr__(self, "plane", plane)
        object.__setattr__(self, "k", plane.k)
        object.__setattr__(self, "l", angular_order(self.l))
        if self.radial.l != self.l:
            raise ValueError(
                f"the radial solution has order l={self.radial.l!r}, but the "
                f"member has order l={self.l!r}: they must match")
        object.__setattr__(self, "dotted", bool(self.dotted))
        object.__setattr__(self, "index",
                           HarmonicIndex(self.l, self.lam, 0.0, self.dotted))

    def dotted_twin(self) -> "PoincareWaveFunction":
        """This member on the dotted branch, sharing its undotted plane wave."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self), dotted=True,
                          index=HarmonicIndex(self.l, self.lam, 0.0, True))
        return twin

    def translation_value(self, x, t: float) -> np.ndarray:
        """The 6-component plane-wave factor (conjugated on the dotted branch)."""
        base = self.plane.value(x, t)
        return base.conjugate() if self.dotted else base

    def translation_term3(self) -> PlaneWaveTerm:
        """The 3-vector term of the translation factor: the upper block of
        the plane wave's column, conjugated on the dotted branch."""
        upper = self.plane.term._carrying(self.plane.term.amplitude[:3])
        return upper.conjugate() if self.dotted else upper

    def translation_equation(self) -> str:
        """Which first-order equation the translation factor solves exactly.

        The +1 mode with omega = +c|k| solves ME1 and the -1 mode solves ME2;
        conjugation (the dotted branch) swaps them.  The static longitudinal
        factor solves both; ME1 is reported.
        """
        return "ME2" if self.lam and (self.lam == -1) != self.dotted else "ME1"

    def lorentz_factor(self, r: complex, angles: ComplexEulerAngles) -> complex:
        """f^l_{1,lam}(r) * M^{lam}_l, conjugate-branch aware; ValueError
        where r is not finite or the factor overflows a float.

        The undotted element M^{lam}_l at chi = vareps = 0 is computed once
        per angles value and index and kept in the angles' private memo; the
        dotted member reads its conjugate, which is the dotted element bit
        for bit, so the memo changes no value.  A refused element is not
        kept, and either twin raises its error.
        """
        try:
            radius = complex(r)
        except OverflowError:  # an int past the float range: the gate names it
            radius = _finite("r", r, complex)
        if self.dotted:
            radius = radius.conjugate()
        idx = self.index
        memo, key = angles._elements, idx.doubled
        angular = memo.get(key)
        if angular is None:
            L, M, N = key  # validated when the index was built
            angular = memo[key] = _element(
                L, M, N, idx.m, idx.n, angles.phi, angles.epsilon,
                angles.theta, angles.tau, 0.0, 0.0, False)
        if self.dotted:
            angular = angular.conjugate()
        factor = self.radial.f(self.lam, radius, self.dotted) * angular
        if not cmath.isfinite(factor):
            _finite("r", r, complex)
            raise ValueError(f"the Lorentz factor at r={r!r} overflows a float")
        return factor

    def value(self, x, t: float, r: complex,
              angles: ComplexEulerAngles) -> np.ndarray:
        return self.translation_value(x, t) * self.lorentz_factor(r, angles)


@dataclass(frozen=True)
class CatalogMember:
    """One catalog entry with its exclusion tags and evidence."""

    label: str
    wave: PoincareWaveFunction
    tags: tuple[str, ...]

    @property
    def is_physical(self) -> bool:
        return not self.tags

    @property
    def transversality(self) -> float:
        """|k . eps_lam|, the evidence behind the transversality tag."""
        return transversality_residual(self.wave.k, self.wave.lam)


@dataclass(frozen=True)
class SolutionCatalog:
    """The six assembled members for one wavevector, in a fixed order."""

    members: tuple[CatalogMember, ...]

    def member(self, label: str) -> CatalogMember:
        for member in self.members:
            if member.label == label:
                return member
        raise KeyError(label)

    @property
    def physical(self) -> tuple[CatalogMember, ...]:
        return tuple(m for m in self.members if m.is_physical)


_LABELS = {(1, False): "psi_+1", (0, False): "psi_0", (-1, False): "psi_-1",
           (1, True): "psi_dot_+1", (0, True): "psi_dot_0",
           (-1, True): "psi_dot_-1"}


def build_catalog(k, l: int, radial, c: float = 1.0) -> SolutionCatalog:
    """All six members [psi_+1, psi_0, psi_-1, psi_dot_+1, psi_dot_0, psi_dot_-1].

    Dotted members carry the negative-energy/omitted tags; longitudinal
    members carry the transversality-exclusion tag, whose evidence
    |k . eps_0| (= |k|) each member's ``transversality`` computes when read.
    """
    kv = _as_wavevector(k)
    waves = [PoincareWaveFunction(kv, lam, l, radial, False, c)
             for lam in (1, 0, -1)]
    waves += [wave.dotted_twin() for wave in waves]
    members = []
    for wave in waves:
        tags = []
        if wave.dotted:
            tags += [TAG_NEGATIVE_ENERGY, TAG_OMITTED]
        if wave.lam == 0:
            tags.append(TAG_LONGITUDINAL)
        members.append(CatalogMember(label=_LABELS[(wave.lam, wave.dotted)],
                                     wave=wave, tags=tuple(tags)))
    return SolutionCatalog(tuple(members))


def physical_filter(catalog: SolutionCatalog) -> tuple[CatalogMember, ...]:
    """The untagged members: exactly the undotted transverse pair."""
    physical = catalog.physical
    labels = {member.label for member in physical}
    if labels != {"psi_+1", "psi_-1"}:
        raise AssertionError(
            f"physical subset must be psi_+1 and psi_-1, got {sorted(labels)}")
    return physical
