"""Tests for assembled wavefunctions: exact factorization, the conjugate
branch, the six-member catalog, and the physical-photon filter."""

import cmath
import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from poincarewaves import lorentz_harmonics, photon_plane_waves, poincare_assembly
from poincarewaves.group_kinematics import make_angles
from poincarewaves.lorentz_harmonics import HarmonicIndex, generalized_m, z_2f1
from poincarewaves.lorentz_sector import RadialSolution
from poincarewaves.photon_plane_waves import (
    NORMALIZATION,
    PhotonPlaneWave,
    PlaneWaveTerm,
    WaveVector,
    dirac_form_residual,
    dirac_form_scale,
    maxwell_residuals,
    polarization_vectors,
    transversality_residual,
)
from poincarewaves.poincare_assembly import (
    TAG_LONGITUDINAL,
    TAG_NEGATIVE_ENERGY,
    TAG_OMITTED,
    PoincareWaveFunction,
    build_catalog,
    physical_filter,
)

GENERIC_ANGLES = make_angles(0.4, 0.25, 0.9, 0.35, 1.1, -0.2)
K_GENERIC = (1.0, 2.0, 3.0)


def recomposed(k, lam, l, radial, dotted, x, t, r, angles):
    """Plane wave x radial function x M^lam_l, each from its own module."""
    translation = PhotonPlaneWave(k, lam).value(x, t)
    if dotted:
        translation, r = translation.conjugate(), r.conjugate()
    zeroed = make_angles(angles.phi, angles.epsilon, angles.theta, angles.tau,
                         0.0, 0.0)
    angular = generalized_m(HarmonicIndex(l, lam, 0, dotted), zeroed)
    return translation * (radial.select(lam, dotted)(r) * angular)


def random_angles(rng):
    return make_angles(
        float(rng.uniform(0.0, 2 * math.pi - 1e-6)),
        float(rng.normal(scale=0.6)),
        float(rng.uniform(0.15, math.pi - 0.15)),
        float(rng.normal(scale=0.6)),
        float(rng.uniform(-2 * math.pi, 2 * math.pi - 1e-6)),
        float(rng.normal(scale=0.6)),
    )


class TestAssemble:
    def test_longitudinal_at_origin_identity_angles(self):
        radial = RadialSolution(l=1, C=0.7)
        identity = make_angles(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        r = 1.3 + 0.4j
        value = PoincareWaveFunction(K_GENERIC, 0, 1, radial).value(
            (0, 0, 0), 0.0, r, identity)
        eps_zero = polarization_vectors(K_GENERIC).eps_zero
        expected = (NORMALIZATION * np.concatenate([eps_zero, eps_zero])
                    * radial.f(0, r))
        assert np.abs(value - expected).max() < 1e-15

    @pytest.mark.parametrize("lam", [1, 0, -1])
    def test_equals_plane_wave_times_radial_and_angular_factors(self, lam):
        radial = RadialSolution(l=2, C=0.3 - 0.8j, Cdot=1.1 + 0.2j)
        x, t, r = (0.3, -0.7, 1.1), 0.45, 0.9 - 0.4j
        value = PoincareWaveFunction(K_GENERIC, lam, 2, radial).value(
            x, t, r, GENERIC_ANGLES)
        expected = recomposed(K_GENERIC, lam, 2, radial, False, x, t, r,
                              GENERIC_ANGLES)
        assert np.abs(value - expected).max() < 1e-15 * max(
            1.0, np.abs(expected).max())

    @pytest.mark.parametrize("lam", [1, 0, -1])
    def test_dotted_equals_conjugate_plane_wave_times_dotted_factors(self, lam):
        radial = RadialSolution(l=1, C=0.3 - 0.8j, Cdot=1.1 + 0.2j)
        x, t, r = (0.3, -0.7, 1.1), 0.45, 0.9 - 0.4j
        value = PoincareWaveFunction(K_GENERIC, lam, 1, radial,
                                     dotted=True).value(x, t, r, GENERIC_ANGLES)
        expected = recomposed(K_GENERIC, lam, 1, radial, True, x, t, r,
                              GENERIC_ANGLES)
        assert np.abs(value - expected).max() < 1e-15 * max(
            1.0, np.abs(expected).max())

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_lorentz_factor_matches_the_2f1_route(self, l):
        # z_2f1 sums Gauss series, not the folded double sum that
        # generalized_m reads, so this is an independent reference.
        rng = np.random.default_rng(20261018 + l)
        for _ in range(40):
            radial = RadialSolution(l, complex(*rng.normal(size=2)),
                                    complex(*rng.normal(size=2)))
            r = complex(rng.uniform(0.1, 3.0), rng.normal())
            angles = random_angles(rng)
            for member in build_catalog(K_GENERIC, l, radial).members:
                wave = member.wave
                angular = (cmath.exp(-wave.lam * complex(angles.epsilon,
                                                         angles.phi))
                           * z_2f1(HarmonicIndex(l, wave.lam, 0),
                                   angles.theta, angles.tau))
                if wave.dotted:
                    angular, radius = angular.conjugate(), r.conjugate()
                else:
                    radius = r
                reference = radial.select(wave.lam, wave.dotted)(radius) * angular
                assert abs(wave.lorentz_factor(r, angles) - reference) \
                    <= 1e-13 * max(1.0, abs(reference))

    def test_dotted_conjugates_undotted_for_real_rotations(self):
        radial = RadialSolution(l=1, C=0.8, Cdot=0.8)
        rotation_only = make_angles(1.2, 0.0, 0.8, 0.0, 2.1, 0.0)
        x, t, r = (0.5, 0.4, -0.3), 0.9, 2.5
        for lam in (1, 0, -1):
            undotted = PoincareWaveFunction(K_GENERIC, lam, 1, radial).value(
                x, t, r, rotation_only)
            dotted = PoincareWaveFunction(K_GENERIC, lam, 1, radial,
                                          dotted=True).value(x, t, r, rotation_only)
            assert np.abs(dotted - undotted.conjugate()).max() < 1e-13

    def test_factorization_invariant_random_points(self):
        rng = np.random.default_rng(20240818)
        radial = RadialSolution(l=1, C=0.6 + 0.2j, Cdot=-0.4 + 1.0j)
        for _ in range(100):
            k = tuple(rng.normal(size=3))
            if math.hypot(*k) < 1e-2:
                continue
            lam = int(rng.choice([-1, 0, 1]))
            dotted = bool(rng.integers(0, 2))
            x = tuple(rng.normal(size=3))
            t = float(rng.normal())
            r = complex(rng.normal(), rng.normal())
            if abs(r) < 1e-3 or (r.real < 0 and abs(r.imag) < 1e-3):
                continue
            angles = random_angles(rng)
            wave = PoincareWaveFunction(WaveVector(*k), lam, 1, radial, dotted)
            value = wave.value(x, t, r, angles)
            translation = wave.translation_value(x, t)
            factor = wave.lorentz_factor(r, angles)
            # Divide out the translation factor componentwise.
            mask = np.abs(translation) > 1e-6
            ratio = value[mask] / translation[mask]
            assert np.abs(ratio - factor).max() < 1e-12 * max(1.0, abs(factor))
            # And divide out the boost-rotation scalar.
            if abs(factor) > 1e-6:
                assert np.abs(value / factor - translation).max() \
                    < 1e-12 * max(1.0, float(np.abs(translation).max()))

    def test_invalid_helicity_and_order_rejected(self):
        radial = RadialSolution(l=1)
        with pytest.raises(ValueError, match="helicity"):
            PoincareWaveFunction(K_GENERIC, 5, 1, radial).value(
                (0, 0, 0), 0.0, 1.0, GENERIC_ANGLES)
        with pytest.raises(ValueError, match="l must be"):
            PoincareWaveFunction(K_GENERIC, 1, 0, radial).value(
                (0, 0, 0), 0.0, 1.0, GENERIC_ANGLES)
        with pytest.raises(ValueError, match="non-zero"):
            PoincareWaveFunction((0.0, 0.0, 0.0), 1, 1, radial).value(
                (0, 0, 0), 0.0, 1.0, GENERIC_ANGLES)

    @pytest.mark.parametrize("dotted", [False, True])
    def test_plane_wave_column_is_built_once(self, monkeypatch, dotted):
        member = PoincareWaveFunction(K_GENERIC, 1, 1, RadialSolution(l=1),
                                      dotted)
        calls = []
        original = photon_plane_waves.polarization_vectors
        monkeypatch.setattr(photon_plane_waves, "polarization_vectors",
                            lambda k: calls.append(k) or original(k))
        for _ in range(10):
            member.value((0.3, -0.7, 1.1), 0.45, 0.9 - 0.4j, GENERIC_ANGLES)
            member.translation_value((0.3, -0.7, 1.1), 0.45)
            member.translation_term3()
        assert calls == []
        with pytest.raises(ValueError, match="read-only"):
            member.plane.term.amplitude[0] = 0.0

    def test_value_builds_no_index_per_call(self, monkeypatch):
        member = PoincareWaveFunction(K_GENERIC, 1, 1, RadialSolution(l=1))
        assert member.index == lorentz_harmonics.HarmonicIndex(1, 1, 0)
        built = []
        index_class = lorentz_harmonics.HarmonicIndex
        original = index_class.__post_init__
        monkeypatch.setattr(index_class, "__post_init__",
                            lambda self: built.append(self) or original(self))
        lorentz_harmonics._validated_doubled.cache_clear()
        for _ in range(100):
            member.value((0.3, -0.7, 1.1), 0.45, 0.9 - 0.4j, GENERIC_ANGLES)
        assert len(built) <= 1

    def test_radial_solution_of_another_order_rejected(self):
        with pytest.raises(ValueError, match="l=1.*l=2"):
            PoincareWaveFunction(K_GENERIC, 1, 2, RadialSolution(l=1))


class TestCatalog:
    def setup_method(self):
        self.radial = RadialSolution(l=1, C=0.5, Cdot=0.5)
        self.catalog = build_catalog(K_GENERIC, 1, self.radial)

    @pytest.mark.parametrize("k", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_wrong_length_k_rejected(self, k):
        # The same ValueError as PhotonPlaneWave and PoincareWaveFunction.
        with pytest.raises(ValueError):
            build_catalog(k, 1, self.radial)

    def test_six_members_fixed_order(self):
        labels = [member.label for member in self.catalog.members]
        assert labels == ["psi_+1", "psi_0", "psi_-1",
                          "psi_dot_+1", "psi_dot_0", "psi_dot_-1"]

    def test_physical_filter_selects_transverse_pair(self):
        physical = physical_filter(self.catalog)
        assert [member.label for member in physical] == ["psi_+1", "psi_-1"]
        assert all(member.is_physical for member in physical)

    def test_dotted_members_tagged_negative_energy(self):
        for label in ("psi_dot_+1", "psi_dot_0", "psi_dot_-1"):
            member = self.catalog.member(label)
            assert TAG_NEGATIVE_ENERGY in member.tags
            assert TAG_OMITTED in member.tags

    def test_longitudinal_members_tagged_with_evidence(self):
        norm = math.hypot(*K_GENERIC)
        for label in ("psi_0", "psi_dot_0"):
            member = self.catalog.member(label)
            assert TAG_LONGITUDINAL in member.tags
            assert abs(member.transversality - norm) < 1e-12

    def test_dotted_longitudinal_carries_both_tags(self):
        member = self.catalog.member("psi_dot_0")
        assert set(member.tags) == {TAG_NEGATIVE_ENERGY, TAG_OMITTED,
                                    TAG_LONGITUDINAL}

    def test_transverse_evidence_vanishes(self):
        for label in ("psi_+1", "psi_-1", "psi_dot_+1", "psi_dot_-1"):
            assert self.catalog.member(label).transversality < 1e-12

    def test_evidence_is_the_transversality_residual(self):
        for member in self.catalog.members:
            assert member.transversality == transversality_residual(
                K_GENERIC, member.wave.lam)

    def test_catalog_builds_one_polarization_triple_per_member(
            self, monkeypatch):
        calls = []
        original = photon_plane_waves.polarization_vectors
        monkeypatch.setattr(photon_plane_waves, "polarization_vectors",
                            lambda k: calls.append(k) or original(k))
        catalog = build_catalog(K_GENERIC, 1, self.radial)
        # One triple per catalog: the three helicities share their wavevector's
        # triple, and each dotted twin shares its plane.
        assert len(calls) == 1
        # Reading the transversality evidence reuses that triple.
        for member in catalog.members:
            member.transversality
        assert len(calls) == 1
        for lam in ("+1", "0", "-1"):
            assert (catalog.member(f"psi_dot_{lam}").wave.plane
                    is catalog.member(f"psi_{lam}").wave.plane)

    def test_member_values_are_the_factor_products_bit_for_bit(self):
        # value is translation_value * lorentz_factor; lorentz_factor is the
        # radial function times generalized_m_values, each bit for bit.
        rng = np.random.default_rng(20261019)
        for _ in range(50):
            radial = RadialSolution(1, complex(*rng.normal(size=2)),
                                    complex(*rng.normal(size=2)))
            k = tuple(rng.normal(size=3) * rng.uniform(0.5, 3.0))
            x, t = tuple(rng.normal(size=3)), float(rng.normal())
            r = complex(rng.uniform(0.1, 3.0), rng.normal())
            angles = random_angles(rng)
            for member in build_catalog(k, 1, radial).members:
                wave = member.wave
                value = wave.value(x, t, r, angles)
                factor = wave.lorentz_factor(r, angles)
                assert value.tobytes() == (wave.translation_value(x, t)
                                           * factor).tobytes(), member.label
                radius = r.conjugate() if wave.dotted else r
                angular = lorentz_harmonics.generalized_m_values(
                    1, wave.lam, 0, angles.phi, angles.epsilon, angles.theta,
                    angles.tau, 0.0, 0.0, dotted=wave.dotted)
                assert factor == radial.f(wave.lam, radius, wave.dotted) \
                    * angular, member.label

    def test_dotted_twin_is_the_dotted_member(self):
        x, t, r = (0.3, -0.7, 1.1), 0.45, 0.9 - 0.4j
        for lam in (1, 0, -1):
            wave = PoincareWaveFunction(K_GENERIC, lam, 1, self.radial)
            twin = wave.dotted_twin()
            built = PoincareWaveFunction(K_GENERIC, lam, 1, self.radial,
                                         dotted=True)
            assert twin == built and twin.index == built.index
            assert not wave.dotted and wave.index.dotted is False
            assert np.array_equal(twin.value(x, t, r, GENERIC_ANGLES),
                                  built.value(x, t, r, GENERIC_ANGLES))

    def test_longitudinal_evidence_example(self):
        catalog = build_catalog((0.0, 0.0, 2.0), 1, self.radial)
        assert abs(catalog.member("psi_0").transversality - 2.0) < 1e-15

    def test_physical_members_solve_their_translation_equation(self):
        for member in physical_filter(self.catalog):
            terms = [member.wave.translation_term3()]
            equation = member.wave.translation_equation()
            scale = dirac_form_scale(terms)
            for x, t in (((0, 0, 0), 0.0), ((0.3, -0.7, 1.1), 0.45)):
                assert dirac_form_residual(terms, equation, x, t) \
                    < 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("lam", [1, 0, -1])
    @pytest.mark.parametrize("dotted", [False, True])
    def test_translation_term3_is_the_column_upper_block(self, lam, dotted):
        wave = PoincareWaveFunction(K_GENERIC, lam, 1, self.radial, dotted,
                                    c=1.5)
        column = wave.plane.term
        expected = PlaneWaveTerm(column.amplitude[:3], column.kvec,
                                 column.omega)
        if dotted:
            expected = expected.conjugate()
        got = wave.translation_term3()
        assert (got.amplitude.tobytes(), got.kvec.tobytes(), got.omega.hex()) \
            == (expected.amplitude.tobytes(), expected.kvec.tobytes(),
                expected.omega.hex())

    def test_dotted_members_solve_swapped_equation(self):
        plus = self.catalog.member("psi_dot_+1").wave
        minus = self.catalog.member("psi_dot_-1").wave
        assert plus.translation_equation() == "ME2"
        assert minus.translation_equation() == "ME1"
        for wave in (plus, minus):
            terms = [wave.translation_term3()]
            assert dirac_form_residual(terms, wave.translation_equation(),
                                       (0.1, 0.2, 0.3), 0.7) \
                < 1e-12 * max(1.0, dirac_form_scale(terms))

    def test_maxwell_control_physical_versus_longitudinal(self):
        point = ((0.23, -0.41, 0.57), 0.31)
        for member in physical_filter(self.catalog):
            lam = member.wave.lam
            assert max(maxwell_residuals(K_GENERIC, lam, *point)) < 1e-12
        div_residuals = maxwell_residuals(K_GENERIC, 0, *point)[2:]
        assert min(div_residuals) > 0.1 * NORMALIZATION * math.hypot(*K_GENERIC)


def fresh(angles):
    """The same six parameters with an empty element memo."""
    return dataclasses.replace(angles)


def factor_bits(wave, r, angles):
    return np.array(wave.lorentz_factor(r, angles)).tobytes()


class TestSharedElement:
    """Each angles value keeps the undotted angular element per index; the
    dotted twin reads its conjugate.  None of it may show."""

    def setup_method(self):
        self.radial = RadialSolution(l=1, C=0.6 + 0.2j, Cdot=-0.4 + 1.0j)
        self.catalog = build_catalog(K_GENERIC, 1, self.radial)

    @pytest.mark.parametrize("dotted_first", [False, True])
    def test_either_twin_first_gives_the_fresh_bits(self, dotted_first):
        rng = np.random.default_rng(37)
        x, t = (0.3, -0.7, 1.1), 0.45
        for _ in range(20):
            angles = random_angles(rng)
            r = complex(rng.uniform(0.1, 3.0), rng.normal())
            for lam in ("+1", "0", "-1"):
                twins = [self.catalog.member(f"psi_{lam}").wave,
                         self.catalog.member(f"psi_dot_{lam}").wave]
                if dotted_first:
                    twins.reverse()
                for wave in twins:
                    assert factor_bits(wave, r, angles) \
                        == factor_bits(wave, r, fresh(angles))
                    assert wave.value(x, t, r, angles).tobytes() \
                        == wave.value(x, t, r, fresh(angles)).tobytes()

    def test_each_element_is_computed_once_per_angles(self, monkeypatch):
        calls = []
        original = poincare_assembly._element
        monkeypatch.setattr(poincare_assembly, "_element",
                            lambda *args: calls.append(args) or original(*args))
        angles = fresh(GENERIC_ANGLES)
        for _ in range(3):
            for member in self.catalog.members:
                member.wave.value((0.3, -0.7, 1.1), 0.45, 0.9 - 0.4j, angles)
        # One undotted element per helicity, at chi = vareps = 0.
        assert sorted(args[:3] for args in calls) == [(2, -2, 0), (2, 0, 0),
                                                     (2, 2, 0)]
        assert all(args[-3:] == (0.0, 0.0, False) for args in calls)

    def test_evaluating_changes_no_visible_property(self):
        angles = fresh(GENERIC_ANGLES)
        twin = fresh(GENERIC_ANGLES)

        def visible():
            return (angles == twin, hash(angles), repr(angles),
                    dataclasses.asdict(angles), pickle.dumps(angles))

        before = visible()
        for member in self.catalog.members:
            member.wave.lorentz_factor(0.9 - 0.4j, angles)
        assert angles._elements
        assert visible() == before
        for copy in (dataclasses.replace(angles),
                     pickle.loads(pickle.dumps(angles))):
            assert copy == angles and copy._elements == {}

    @pytest.mark.parametrize("dotted_first", [False, True])
    def test_overflowing_epsilon_raises_for_both_twins(self, dotted_first):
        # e^(-m epsilon) with m = 1 and epsilon = -800 overflows a float.
        angles = make_angles(0.3, -800.0, 1.0, 0.2, 0.0, 0.0)
        twins = [self.catalog.member("psi_+1").wave,
                 self.catalog.member("psi_dot_+1").wave]
        if dotted_first:
            twins.reverse()
        messages = []
        for wave in twins:
            with pytest.raises(ValueError, match="out of range") as error:
                wave.lorentz_factor(0.9 - 0.4j, angles)
            messages.append(str(error.value))
            assert angles._elements == {}
        assert messages[0] == messages[1]

    def test_catalogs_sharing_angles_read_the_same_element(self):
        shared = fresh(GENERIC_ANGLES)
        x, t, r = (0.3, -0.7, 1.1), 0.45, 0.9 - 0.4j
        others = [build_catalog((-0.7, 0.4, 2.1), 1, self.radial),
                  build_catalog((3.0, 4.0, 0.0), 2,
                                RadialSolution(l=2, C=0.5, Cdot=0.1j))]
        for catalog in [self.catalog, *others]:
            for member in catalog.members:
                wave = member.wave
                assert wave.value(x, t, r, shared).tobytes() \
                    == wave.value(x, t, r, fresh(shared)).tobytes()
        for first, second in zip(self.catalog.members, others[0].members):
            assert factor_bits(first.wave, r, shared) \
                == factor_bits(second.wave, r, shared)
        # generalized_m reads the angles' own chi and vareps, not the memo.
        for lam in (1, 0, -1):
            index = HarmonicIndex(1, lam, 0)
            assert generalized_m(index, shared) \
                == generalized_m(index, fresh(shared))


def catalog_values(seed, l):
    """Every member's value on seeded catalogs of order l: four wavevectors,
    each with its own complex radial constants and five points (complex r
    in both half-planes, some with Re r < 0) whose angles its six members
    share, stacked as (wavevectors, members, points, components)."""
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(4):
        k = tuple(rng.normal(size=3) * rng.uniform(0.5, 3.0))
        radial = RadialSolution(l, complex(*rng.normal(size=2)),
                                complex(*rng.normal(size=2)))
        points = [(tuple(rng.normal(size=3)), float(rng.normal()),
                   complex(rng.uniform(0.1, 3.0) * cmath.exp(
                       1j * rng.uniform(-0.9 * math.pi, 0.9 * math.pi))),
                   random_angles(rng)) for _ in range(5)]
        values.append([[member.wave.value(*point) for point in points]
                       for member in build_catalog(k, l, radial).members])
    return np.array(values)


#: sha256 of catalog_values(seed, l).tobytes() for all six members: the
#: assembled bits, taken before lorentz_factor shared its angular element
#: between dotted twins.
ASSEMBLED_GOLDEN = [
    (20261020, 1,
     "8b52414dad5b22a418ccb3f4549fef8d5033d64fda788c30ca6278ce948fbfa6"),
    (7, 1,
     "1ab77bc7266e1863341787989a4dac4d482f28d9c28c6a84f5f043851eaa3c7a"),
    (11, 2,
     "a7d9e45a49d30ca5f4d1130c938464642eba57fb6165f523e616c62ab98836f8"),
    (13, 3,
     "8a638fce72cd4d07070bebe6cf0a9233f673e624af4adbb99a82d02b2fa1a8c4"),
]


@pytest.mark.parametrize("seed, l, digest", ASSEMBLED_GOLDEN,
                         ids=[f"seed{seed}-l{l}"
                              for seed, l, _ in ASSEMBLED_GOLDEN])
def test_assembled_bytes_are_pinned(seed, l, digest):
    values = catalog_values(seed, l)
    assert values.shape == (4, 6, 5, 6)
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def selected_member(wave):
    """The translation term and equation picked through the plane wave's
    me1() / me2() members: ME2 where exactly one of lam = -1 and dotted
    holds, else ME1, and the longitudinal factor's reported ME1."""
    [term] = (wave.plane.me2() if (wave.lam == -1) != wave.dotted
              else wave.plane.me1())
    if wave.lam == 0:
        return term, "ME1"
    positive = (wave.lam == 1) != wave.dotted
    return term, "ME1" if positive else "ME2"


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_translation_member_is_the_me1_me2_selection(c):
    rng = np.random.default_rng(35)
    radial = RadialSolution(l=1)
    for _ in range(50):
        k = tuple(float(v) for v in rng.normal(size=3) * 10.0 ** rng.integers(-3, 4))
        for member in build_catalog(k, 1, radial, c).members:
            wave = member.wave
            term, equation = selected_member(wave)
            got = wave.translation_term3()
            assert (got.amplitude.tobytes(), got.kvec.tobytes(),
                    got.omega.hex()) == (term.amplitude.tobytes(),
                                         term.kvec.tobytes(), term.omega.hex())
            assert wave.translation_equation() == equation
