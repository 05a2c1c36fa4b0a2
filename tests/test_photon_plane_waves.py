"""Tests for the translation-sector photon: spin matrices, polarization
eigenstructure, plane waves, first-order residuals, field equations, energy,
and the on-shell Lagrangian."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarewaves import photon_plane_waves
from poincarewaves.photon_plane_waves import (
    ALPHA,
    GAMMA,
    NORMALIZATION,
    FieldPair,
    PhotonPlaneWave,
    PlaneWaveTerm,
    WaveVector,
    anti_equation_residual,
    commutator_sign,
    curl_matrix,
    dirac_form_residual,
    dirac_form_scale,
    eigenstructure,
    energy_density,
    evaluate_terms,
    lagrangian_density_translation,
    maxwell_residuals,
    maxwell_residuals_from_terms,
    polarization_vectors,
    transversality_residual,
)

GENERIC_KS = [
    (0.0, 0.0, 1.0),
    (3.0, 4.0, 0.0),
    (1.0, 1.0, 1.0),
    (1.0, 2.0, 3.0),
    (-0.7, 0.4, 2.1),
    (0.3, -1.9, -0.8),
]

finite_k = st.tuples(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
).filter(lambda k: math.hypot(*k) > 0.1)


class TestSpinMatrices:
    def test_tuples_of_read_only_matrices(self):
        assert isinstance(ALPHA, tuple) and isinstance(GAMMA, tuple)
        assert [m.shape for m in ALPHA] == [(3, 3)] * 3
        assert [m.shape for m in GAMMA] == [(6, 6)] * 4
        for matrix in (*ALPHA, *GAMMA):
            assert matrix.dtype == complex and not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    def test_alphas_hermitian(self):
        for alpha in ALPHA:
            assert np.array_equal(alpha, alpha.conj().T)

    def test_commutator_sign_is_minus_one(self):
        assert commutator_sign() == -1

    def test_commutators_close_with_measured_sign(self):
        s = commutator_sign()
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            lhs = ALPHA[i] @ ALPHA[j] - ALPHA[j] @ ALPHA[i]
            assert np.abs(lhs - s * 1j * ALPHA[k]).max() == 0.0

    def test_gamma0_squares_to_identity(self):
        assert np.array_equal(GAMMA[0] @ GAMMA[0], np.eye(6))

    def test_gamma_adjoint_relation(self):
        # Gamma_mu^dagger = Gamma_0 Gamma_mu Gamma_0 for all four matrices.
        for gamma in GAMMA:
            assert np.abs(gamma.conj().T
                          - GAMMA[0] @ gamma @ GAMMA[0]).max() == 0.0

    def test_gammas_block_structure(self):
        for gamma in GAMMA:
            assert np.abs(gamma[:3, :3]).max() == 0.0
            assert np.abs(gamma[3:, 3:]).max() == 0.0


class TestCurlMatrix:
    def test_zero_wavevector_gives_zero_matrix(self):
        assert np.abs(curl_matrix((0.0, 0.0, 0.0))).max() == 0.0

    def test_unit_z_axis_explicit_entries(self):
        expected = -np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]])
        assert np.abs(curl_matrix((0, 0, 1)) - expected).max() == 0.0

    def test_matches_minus_c_k_dot_alpha(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.normal(size=3)
            c = float(rng.uniform(0.5, 3.0))
            expected = -c * sum(k[i] * ALPHA[i] for i in range(3))
            assert np.abs(curl_matrix(k, c) - expected).max() < 1e-15

    def test_action_is_i_c_cross_product(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = rng.normal(size=3)
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            got = curl_matrix(k) @ a
            assert np.abs(got - 1j * np.cross(k, a)).max() < 1e-13

    def test_hermitian(self):
        m = curl_matrix((1.3, -0.4, 2.2), c=1.7)
        assert np.abs(m - m.conj().T).max() == 0.0

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            curl_matrix((0, 0, 1), c=0.0)

    @pytest.mark.parametrize("c, message", [
        (0.0, "c must be positive, got 0.0"),
        (-1.0, "c must be positive, got -1.0"),
        (math.inf, "c must be finite, got inf"),
        (math.nan, "c must be finite, got nan"),
        (1e-310, "c must have a finite reciprocal 1/c, got 1e-310"),
        (5.5e-309, "c must have a finite reciprocal 1/c, got 5.5e-309"),
        (5e-324, "c must have a finite reciprocal 1/c, got 5e-324"),
    ])
    def test_c_refusals_name_c(self, recwarn, c, message):
        # Below ~5.56e-309, 1/c is inf: the residuals were (nan, nan, 0, ...)
        # with numpy warnings rather than a refusal.
        with pytest.raises(ValueError) as error:
            maxwell_residuals((1, 2, 3), 1, c=c)
        assert str(error.value) == message
        assert not recwarn

    def test_smallest_c_with_a_finite_reciprocal_accepted(self):
        assert all(math.isfinite(value)
                   for value in maxwell_residuals((1, 2, 3), 1, c=5.6e-309))

    @pytest.mark.parametrize("function, k", [
        (curl_matrix, (1e300, 0.0, 1.0)),
        (eigenstructure, (1e300, 0.0, 1.0)),
        (eigenstructure, [(1.0, 0.0, 0.0), (1e300, 0.0, 1.0)]),
    ], ids=["curl", "eigen", "eigen-stack"])
    def test_overflowing_c_k_refused(self, recwarn, function, k):
        # c |k| = 1e310 overflows: one ValueError naming both, no warning.
        with pytest.raises(ValueError) as error:
            function(k, 1e10)
        assert str(error.value) == (
            "c |k| overflows a float: c=10000000000.0, |k|=1e+300")
        assert not recwarn

    def test_largest_finite_c_k_solved(self):
        c = 1e308 / math.sqrt(2.0)
        values, _ = eigenstructure((1.0, 1.0, 0.0), c)
        assert np.isfinite(values).all() and values[2] > 9.9e307


class TestEigenstructure:
    def test_unit_z_axis_eigenvalues(self):
        values, _ = eigenstructure((0, 0, 1))
        assert np.allclose(values, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_returns_the_hermitian_solver_pair(self):
        k = (1.3, -0.4, 2.2)
        pair = eigenstructure(k, c=1.7)
        assert type(pair) is tuple and len(pair) == 2
        values, vectors = np.linalg.eigh(curl_matrix(k, 1.7))
        assert np.array_equal(pair[0], values)
        assert np.array_equal(pair[1], vectors)

    def test_three_four_zero_eigenvalues(self):
        values, _ = eigenstructure((3, 4, 0))
        assert np.allclose(values, [-5.0, 0.0, 5.0], atol=1e-12)

    def test_zero_eigenvector_parallel_to_k(self):
        k = np.array([1.0, 2.0, 3.0])
        _, vectors = eigenstructure(k)
        v = vectors[:, 1]
        overlap = abs(np.vdot(k / np.linalg.norm(k), v))
        assert abs(overlap - 1.0) < 1e-12

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            eigenstructure((0.0, 0.0, 0.0))

    def test_c_scales_spectrum(self):
        values, _ = eigenstructure((0, 0, 2), c=3.0)
        assert np.allclose(values, [-6.0, 0.0, 6.0], atol=1e-12)

    def test_stack_is_bit_identical_to_per_k_calls(self):
        # One (n, 3) stack gives row for row the bytes of one call per k.
        rng = np.random.default_rng(31)
        ks = np.vstack([[(0.0, 0.0, 1.0), (3.0, 4.0, 0.0), (-0.0, 0.0, -2.0)],
                        rng.normal(size=(100, 3))])
        for c in (1.0, 2.5, 3e-5):
            values, vectors = eigenstructure(ks, c)
            assert values.shape == (103, 3) and vectors.shape == (103, 3, 3)
            for k, row_values, row_vectors in zip(ks, values, vectors):
                single_values, single_vectors = eigenstructure(k, c)
                assert row_values.tobytes() == single_values.tobytes()
                assert row_vectors.tobytes() == single_vectors.tobytes()

    def test_list_of_wavevectors_is_a_stack(self):
        # A list of WaveVectors is solved as the (n, 3) stack of their
        # components; a single WaveVector as one k.
        rng = np.random.default_rng(32)
        ks = np.vstack([[(0.0, 0.0, 1.0), (-0.0, 0.0, -2.0)],
                        rng.normal(size=(20, 3))])
        wavevectors = [WaveVector(*k) for k in ks]
        for got, want in zip(eigenstructure(wavevectors, 2.5),
                             eigenstructure(ks, 2.5)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        values, _ = eigenstructure(wavevectors[1])
        assert values.shape == (3,)

    def test_stack_checks_every_wavevector(self):
        with pytest.raises(ValueError, match="non-zero"):
            eigenstructure([(1.0, 2.0, 3.0), (0.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="k3 must be finite"):
            eigenstructure([(1.0, 2.0, 3.0), (1.0, 0.0, math.nan)])
        values, vectors = eigenstructure(np.empty((0, 3)))
        assert values.shape == (0, 3) and vectors.shape == (0, 3, 3)

    def test_random_spectral_completeness(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            k = rng.normal(size=3)
            norm = np.linalg.norm(k)
            if norm < 1e-3:
                continue
            values, vectors = eigenstructure(k)
            assert np.abs(values - np.array([-norm, 0.0, norm])).max() < 1e-10
            pol = polarization_vectors(k)
            for position, eps in ((0, pol.eps_minus), (1, pol.eps_zero),
                                  (2, pol.eps_plus)):
                overlap = abs(np.vdot(vectors[:, position], eps))
                assert abs(overlap - 1.0) < 1e-10


class TestPolarizationVectors:
    def test_longitudinal_along_z(self):
        pol = polarization_vectors((0, 0, 1))
        assert np.abs(pol.eps_zero - np.array([0, 0, 1])).max() == 0.0

    def test_degenerate_limit_along_z(self):
        pol = polarization_vectors((0, 0, 1))
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.abs(pol.eps_plus - np.array([-1, -1j, 0]) * inv_sqrt2).max() < 1e-15
        assert np.abs(pol.eps_minus - np.array([-1, 1j, 0]) * inv_sqrt2).max() < 1e-15

    def test_degenerate_negative_axis(self):
        pol = polarization_vectors((0, 0, -2.0))
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.abs(pol.eps_zero - np.array([0, 0, -1])).max() == 0.0
        assert np.abs(pol.eps_plus - np.array([-1, 1j, 0]) * inv_sqrt2).max() < 1e-15

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_unit_norms_and_transversality(self, k):
        if math.hypot(*k) == 0:
            pytest.skip("zero k")
        pol = polarization_vectors(k)
        karr = np.array(k, dtype=float)
        for eps in (pol.eps_plus, pol.eps_minus, pol.eps_zero):
            assert abs(np.linalg.norm(eps) - 1.0) < 1e-12
        assert abs(karr @ pol.eps_plus) < 1e-12 * np.linalg.norm(karr)
        assert abs(karr @ pol.eps_minus) < 1e-12 * np.linalg.norm(karr)

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_hermitian_orthogonality(self, k):
        pol = polarization_vectors(k)
        assert abs(np.vdot(pol.eps_plus, pol.eps_minus)) < 1e-12
        assert abs(np.vdot(pol.eps_plus, pol.eps_zero)) < 1e-12
        assert abs(np.vdot(pol.eps_minus, pol.eps_zero)) < 1e-12

    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_curl_matrix_eigenrelations(self, k):
        pol = polarization_vectors(k)
        m = curl_matrix(k)
        norm = math.hypot(*k)
        assert np.abs(m @ pol.eps_plus - norm * pol.eps_plus).max() < 1e-12 * max(1, norm)
        assert np.abs(m @ pol.eps_minus + norm * pol.eps_minus).max() < 1e-12 * max(1, norm)
        assert np.abs(m @ pol.eps_zero).max() < 1e-12 * max(1, norm)

    def test_continuity_at_axis(self):
        near = polarization_vectors((1e-6, 0.0, 1.0))
        axis = polarization_vectors((0.0, 0.0, 1.0))
        jump = max(np.abs(a - b).max() for a, b in (
            (near.eps_plus, axis.eps_plus),
            (near.eps_minus, axis.eps_minus),
            (near.eps_zero, axis.eps_zero)))
        # The off-axis point takes the closed form, so the jump is ~1e-6, not 0.
        assert 1e-7 < jump < 1e-5

    @pytest.mark.parametrize("exponent", [-150, -100, -50, -20, -12, -7, -5, -3])
    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (-0.6, 0.8)])
    def test_closed_form_close_to_the_axis(self, exponent, direction):
        for k3 in (1.0, -2.5):
            perp = 10.0 ** exponent * abs(k3)
            k = (direction[0] * perp, direction[1] * perp, k3)
            karr = np.array(k)
            norm = math.hypot(*k)
            pol = polarization_vectors(k)
            m = curl_matrix(k)
            bound = 1e-12 * norm
            for lam, eps in ((1, pol.eps_plus), (-1, pol.eps_minus)):
                assert abs(karr @ eps) <= bound
                assert np.abs(m @ eps - lam * norm * eps).max() <= bound
            assert np.abs(m @ pol.eps_zero).max() <= bound
            assert np.abs(pol.eps_zero - karr / norm).max() <= 1e-15

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            polarization_vectors((0.0, 0.0, 0.0))

    def test_scale_invariant_over_the_float_range(self):
        reference = polarization_vectors((1.0, 2.0, 3.0))
        for exponent in range(-300, 301, 5):
            s = 10.0 ** exponent
            pol = polarization_vectors((s, 2 * s, 3 * s))
            for eps, want in ((pol.eps_plus, reference.eps_plus),
                              (pol.eps_minus, reference.eps_minus),
                              (pol.eps_zero, reference.eps_zero)):
                assert np.abs(eps - want).max() <= 1e-15, s
                assert abs(np.linalg.norm(eps) - 1.0) <= 1e-15, s

    @pytest.mark.parametrize("s", [1e-300, 1e-160, 1e160, 1e300])
    def test_magnitude_at_extreme_scales(self, s):
        magnitude = WaveVector(3 * s, 0.0, -4 * s).magnitude
        assert abs(magnitude - 5 * s) <= 1e-15 * 5 * s

    def test_magnitude_overflow_is_a_domain_error(self):
        with pytest.raises(ValueError, match="overflows a float"):
            WaveVector(1.5e308, 1.5e308, 0.0).magnitude

    @given(finite_k)
    @example((0.0, 1.192092896e-07, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_properties_random(self, k):
        pol = polarization_vectors(k)
        karr = np.array(k, dtype=float)
        norm = np.linalg.norm(karr)
        for eps in (pol.eps_plus, pol.eps_minus, pol.eps_zero):
            assert abs(np.linalg.norm(eps) - 1.0) < 1e-10
        assert abs(karr @ pol.eps_plus) < 1e-10 * max(1, norm)
        assert abs(np.vdot(pol.eps_plus, pol.eps_minus)) < 1e-10


class TestTransversality:
    @pytest.mark.parametrize("k", GENERIC_KS)
    def test_transverse_modes_vanish(self, k):
        assert transversality_residual(k, +1) < 1e-12 * max(1, math.hypot(*k))
        assert transversality_residual(k, -1) < 1e-12 * max(1, math.hypot(*k))

    def test_longitudinal_equals_k_magnitude(self):
        assert abs(transversality_residual((0, 0, 2), 0) - 2.0) < 1e-15

    def test_longitudinal_generic_k(self):
        k = (1.0, 2.0, 3.0)
        assert abs(transversality_residual(k, 0) - math.hypot(*k)) < 1e-12


class TestPlaneWave:
    def test_value_at_origin(self):
        k = (1.0, 2.0, 3.0)
        pol = polarization_vectors(k)
        value = PhotonPlaneWave(k, +1).value((0, 0, 0), 0.0)
        expected = NORMALIZATION * np.concatenate([pol.eps_plus, pol.eps_plus])
        assert np.abs(value - expected).max() < 1e-15

    def test_equal_upper_and_lower_blocks(self):
        wave = PhotonPlaneWave((0.5, -1.0, 2.0), -1)
        value = wave.value((0.3, 0.1, -0.2), 0.7)
        assert np.abs(value[:3] - value[3:]).max() == 0.0

    def test_longitudinal_time_independent(self):
        k = (1.0, 1.0, 1.0)
        x = (0.2, -0.4, 0.9)
        a = PhotonPlaneWave(k, 0).value(x, 0.0)
        b = PhotonPlaneWave(k, 0).value(x, 17.3)
        assert np.abs(a - b).max() == 0.0

    def test_phase_advance_law(self):
        k = (0.0, 0.0, 2.0)
        wave = PhotonPlaneWave(WaveVector(*k), +1, c=1.0)
        x = (0.1, 0.2, 0.3)
        dt = 0.37
        before = wave.value(x, 1.0)
        after = wave.value(x, 1.0 + dt)
        assert np.abs(after - before * np.exp(-1j * wave.omega * dt)).max() < 1e-14

    def test_invalid_helicity_rejected(self):
        with pytest.raises(ValueError, match="helicity"):
            PhotonPlaneWave((0, 0, 1), 2)

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            PhotonPlaneWave((0, 0, 0), 1)

    @pytest.mark.parametrize("x, t", [((0.0, 0.0, 0.0), 1e308),
                                      ((0.0, 0.0, 0.0), -math.inf),
                                      ((0.0, math.nan, 0.0), 0.0)])
    def test_non_finite_phase_is_a_domain_error(self, x, t):
        wave = PhotonPlaneWave(WaveVector(1.0, 2.0, 3.0), +1)
        with pytest.raises(ValueError, match="not finite"):
            wave.term.phase(x, t)
        with pytest.raises(ValueError, match="not finite"):
            PhotonPlaneWave((1.0, 2.0, 3.0), 1).value(x, t)

    def test_phase_matches_numpy_complex_exp(self):
        # cmath.exp and numpy's complex exp share this platform's libm; a
        # libm on which they disagree fails here by name.
        rng = np.random.default_rng(20261017)
        for _ in range(10_000):
            k = rng.normal(size=3) * 10.0 ** rng.uniform(-2, 2)
            x = rng.normal(size=3) * 10.0 ** rng.uniform(-2, 4)
            t = float(rng.normal() * 10.0 ** rng.uniform(-2, 4))
            term = PlaneWaveTerm(np.ones(3), k, float(np.linalg.norm(k)))
            expected = complex(np.exp(1j * (term.kvec @ x - term.omega * t)))
            assert term.phase(x, t) == expected, (k, x, t)

    def test_phase_is_the_matmul_phase_bit_for_bit(self):
        # phase takes k.x by ndarray.dot, under errstate only for a huge or
        # non-finite x: either way it is the phase of numpy's k @ x, signed
        # zeros, subnormals and mixed magnitudes included.
        rng = np.random.default_rng(20261019)
        for _ in range(5_000):
            k, x = _stressed(rng, 3), _stressed(rng, 3)
            t = float(_stressed(rng, 1)[0])
            term = PlaneWaveTerm(np.ones(3), k, 0.5)
            with np.errstate(all="ignore"):  # k @ x may overflow: phase refuses
                angle = term.kvec @ x - term.omega * t
            if math.isfinite(angle):
                assert term.phase(x, t) == cmath.exp(1j * float(angle))
            else:
                with pytest.raises(ValueError, match="not finite"):
                    term.phase(x, t)

    def test_wavevector_computes_its_triple_once(self, monkeypatch):
        calls = []
        original = photon_plane_waves.polarization_vectors
        monkeypatch.setattr(photon_plane_waves, "polarization_vectors",
                            lambda k: calls.append(k) or original(k))
        k = WaveVector(1.0, 2.0, 3.0)
        waves = [PhotonPlaneWave(k, lam) for lam in (1, 0, -1)]
        assert [transversality_residual(k, lam) for lam in (1, 0, -1)] \
            == [transversality_residual((1.0, 2.0, 3.0), lam)
                for lam in (1, 0, -1)]
        assert calls == [k] * 4  # k's triple, then each tuple's own
        assert all(wave.k is k for wave in waves)
        assert k.magnitude == math.hypot(1.0, 2.0, 3.0)
        reference = original(k)
        for lam in (1, 0, -1):
            eps = k._polarizations.select(lam)
            assert eps.tobytes() == reference.select(lam).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                eps[0] = 0.0

    def test_term_is_the_displayed_column_and_read_only(self):
        wave = PhotonPlaneWave(WaveVector(1.0, 2.0, 3.0), -1, c=2.0)
        eps = polarization_vectors((1.0, 2.0, 3.0)).eps_minus
        assert np.array_equal(wave.term.amplitude,
                              NORMALIZATION * np.concatenate([eps, eps]))
        assert wave.term.omega == wave.omega == 2.0 * math.hypot(1.0, 2.0, 3.0)
        for array in (wave.term.amplitude, wave.term.kvec):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def _stressed(rng, *shape, complex_=False):
    """A seeded array mixing signed zeros, subnormals, and magnitudes from
    1e-300 to 1e300 with ordinary ones."""
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0])

    def part():
        exponents = rng.uniform(-300, 300, size=shape) if rng.random() < 0.3 \
            else rng.uniform(-3, 3, size=shape)
        values = rng.normal(size=shape) * 10.0 ** exponents
        special = rng.random(size=shape) < 0.2
        values[special] = rng.choice(specials, size=int(special.sum()))
        return values

    return part() + 1j * part() if complex_ else part()


@pytest.mark.parametrize("left, right, transpose", [
    ((3,), (3,), False),                 # k . x in phase
    ((3,), (3, "c"), False),             # k . eps, k . a
    ((3, 3, "c"), (3, "c"), False),      # (k . alpha) a
    ((6, 6, "c"), (6, "c"), False),      # Gamma a
    ((6, 6, "c"), (6, "c"), True),       # Gamma^T a
    ((6, "c"), (6, "c"), False),         # psi^dagger psi
    ((6, "c"), (6, 6, "c"), False),      # psi-bar Gamma
], ids=["k.x", "k.eps", "kalpha.a", "gamma.a", "gammaT.a", "psi.psi",
        "psibar.gamma"])
def test_small_products_dot_matches_matmul_bit_for_bit(left, right, transpose):
    # The photon layer takes its small products by ndarray.dot, which skips
    # matmul's dispatch: each shape it uses gives matmul's bits.
    rng = np.random.default_rng(20261019)

    def draw(spec):
        dims = [d for d in spec if d != "c"]
        return _stressed(rng, *dims, complex_="c" in spec)

    with np.errstate(all="ignore"):
        for _ in range(2_000):
            a, b = draw(left), draw(right)
            if transpose:
                a = a.T
            assert a.dot(b).tobytes() == (a @ b).tobytes(), (a, b)


def _bits(term):
    return (term.amplitude.tobytes(), term.kvec.tobytes(), term.omega.hex())


class TestModeMembers:
    """Each member is built from the mode's ``term``, bit for bit."""

    @pytest.mark.parametrize("k", GENERIC_KS)
    @pytest.mark.parametrize("lam", [+1, -1, 0])
    def test_members_are_one_family(self, k, lam):
        wave = PhotonPlaneWave(k, lam, c=1.5)
        [u] = wave.me1()
        column = wave.term
        upper = PlaneWaveTerm(column.amplitude[:3], column.kvec, column.omega)
        assert _bits(u) == _bits(upper.conjugate() if lam == -1 else upper)
        [w] = wave.me2()
        assert _bits(w) == _bits(u.conjugate())
        top, bottom = wave.me6()
        zeros = np.zeros(3)
        assert _bits(top) == _bits(PlaneWaveTerm(
            np.concatenate([u.amplitude, zeros]), u.kvec, u.omega))
        conj = u.conjugate()
        assert _bits(bottom) == _bits(PlaneWaveTerm(
            np.concatenate([zeros, conj.amplitude]), conj.kvec, conj.omega))
        e_terms, b_terms = wave.fields()
        carriers = (w, w.conjugate())
        assert [_bits(term) for term in e_terms] == [
            _bits(PlaneWaveTerm(0.5 * term.amplitude, term.kvec, term.omega))
            for term in carriers]
        assert [_bits(term) for term in b_terms] == [
            _bits(PlaneWaveTerm(factor * term.amplitude, term.kvec,
                                term.omega))
            for factor, term in zip((0.5j, -0.5j), carriers)]


POINTS = [((0.0, 0.0, 0.0), 0.0), ((0.3, -0.7, 1.1), 0.45),
          ((-1.2, 0.8, 0.05), -2.3)]


class TestDiracFormResidual:
    @pytest.mark.parametrize("k", GENERIC_KS)
    @pytest.mark.parametrize("lam", [+1, -1, 0])
    def test_me1_member_solves_me1(self, k, lam):
        terms = PhotonPlaneWave(k, lam).me1()
        scale = dirac_form_scale(terms)
        for x, t in POINTS:
            assert dirac_form_residual(terms, "ME1", x, t) < 1e-12 * max(1, scale)

    @pytest.mark.parametrize("k", GENERIC_KS)
    @pytest.mark.parametrize("lam", [+1, -1, 0])
    def test_me2_member_solves_me2(self, k, lam):
        terms = PhotonPlaneWave(k, lam).me2()
        scale = dirac_form_scale(terms)
        for x, t in POINTS:
            assert dirac_form_residual(terms, "ME2", x, t) < 1e-12 * max(1, scale)

    def test_longitudinal_solves_both(self):
        terms = PhotonPlaneWave((1.0, 2.0, 3.0), 0).me1()
        assert dirac_form_residual(terms, "ME1") < 1e-13
        assert dirac_form_residual(terms, "ME2") < 1e-13

    def test_conjugation_swaps_equations(self):
        # If psi solves ME1 then its conjugate solves ME2, including for
        # superpositions across wavevectors.
        terms = [*PhotonPlaneWave((1.0, 2.0, 3.0), +1).me1(),
                 *PhotonPlaneWave((-0.5, 0.3, 1.1), -1).me1()]
        conj = [term.conjugate() for term in terms]
        scale = dirac_form_scale(terms)
        assert dirac_form_residual(terms, "ME1") < 1e-12 * max(1, scale)
        assert dirac_form_residual(conj, "ME2", (0.2, 0.1, -0.4), 0.9) \
            < 1e-12 * max(1, scale)

    def test_random_amplitude_fails(self):
        rng = np.random.default_rng(31)
        k = (1.0, 2.0, 3.0)
        omega = math.hypot(*k)
        for _ in range(10):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            terms = [PlaneWaveTerm(a, np.array(k), omega)]
            scale = dirac_form_scale(terms)
            assert dirac_form_residual(terms, "ME1") > 0.1 * scale
            assert dirac_form_residual(terms, "ME2") > 0.1 * scale

    @pytest.mark.parametrize("k", GENERIC_KS)
    @pytest.mark.parametrize("lam", [+1, -1, 0])
    def test_me6_column_solves_six_by_six(self, k, lam):
        terms = PhotonPlaneWave(k, lam).me6()
        scale = dirac_form_scale(terms)
        for x, t in POINTS:
            assert dirac_form_residual(terms, "ME6", x, t) < 1e-12 * max(1, scale)

    def test_displayed_column_is_not_a_six_by_six_solution(self):
        # The equal-block display (eps; eps) e^{i phi} leaves the upper rows
        # of the 6x6 system nonzero; only the conjugate-paired column solves.
        wave = PhotonPlaneWave(WaveVector(1.0, 2.0, 3.0), +1)
        terms = [wave.term]
        scale = dirac_form_scale(terms)
        assert dirac_form_residual(terms, "ME6") > 0.1 * scale

    def test_c_threading(self):
        k = (0.0, 3.0, 4.0)
        for c in (0.5, 2.0, 299792458.0):
            terms = PhotonPlaneWave(k, +1, c=c).me1()
            scale = dirac_form_scale(terms, c=c)
            assert dirac_form_residual(terms, "ME1", c=c) < 1e-12 * max(1, scale)

    def test_shape_and_name_validation(self):
        three = PhotonPlaneWave((0, 0, 1), +1).me1()
        six = PhotonPlaneWave((0, 0, 1), +1).me6()
        with pytest.raises(ValueError, match="6-component"):
            dirac_form_residual(three, "ME6")
        with pytest.raises(ValueError, match="3-component"):
            dirac_form_residual(six, "ME1")
        with pytest.raises(ValueError, match="equation"):
            dirac_form_residual(three, "ME3")


class TestMaxwellResiduals:
    GENERIC_POINT = ((0.23, -0.41, 0.57), 0.31)

    @pytest.mark.parametrize("k", GENERIC_KS)
    @pytest.mark.parametrize("lam", [+1, -1])
    def test_transverse_modes_satisfy_all_four(self, k, lam):
        for x, t in (*POINTS, self.GENERIC_POINT):
            residuals = maxwell_residuals(k, lam, x, t)
            assert max(residuals) < 1e-12

    def test_longitudinal_divergence_control(self):
        k = (1.0, 2.0, 3.0)
        x, t = self.GENERIC_POINT
        faraday, ampere, div_e, div_b = maxwell_residuals(k, 0, x, t)
        norm = math.hypot(*k)
        assert faraday < 1e-14
        assert ampere < 1e-14
        # Both divergences fail at a generic point, and in quadrature they
        # recover the full longitudinal scale |k| times the normalization.
        assert div_e > 0.1 * NORMALIZATION * norm
        assert div_b > 0.1 * NORMALIZATION * norm
        assert abs(math.hypot(div_e, div_b) - NORMALIZATION * norm) < 1e-12

    def test_static_uniform_fields(self):
        e_terms = [PlaneWaveTerm(np.array([1.0, 0.0, 0.0]), np.zeros(3), 0.0)]
        b_terms = [PlaneWaveTerm(np.array([0.0, -2.0, 5.0]), np.zeros(3), 0.0)]
        residuals = maxwell_residuals_from_terms(e_terms, b_terms,
                                                 (0.4, 0.5, 0.6), 1.2)
        assert residuals == (0.0, 0.0, 0.0, 0.0)

    def test_c_threading(self):
        for c in (0.25, 7.0):
            residuals = maxwell_residuals((1.0, -1.0, 0.5), +1,
                                          (0.1, 0.2, 0.3), 0.7, c=c)
            assert max(residuals) < 1e-12

    def test_fields_are_real(self):
        e_terms, b_terms = PhotonPlaneWave((1.0, 2.0, 3.0), -1).fields()
        for x, t in POINTS:
            e_val = evaluate_terms(e_terms, x, t)
            b_val = evaluate_terms(b_terms, x, t)
            assert np.abs(e_val.imag).max() < 1e-16
            assert np.abs(b_val.imag).max() < 1e-16


class TestEnergyDensity:
    def test_zero_value(self):
        assert energy_density(np.zeros(6)) == 0.0

    def test_unit_electric_field(self):
        # E=(1,0,0), B=0 encodes as (E-iB; E+iB) = (1,0,0,1,0,0).
        psi = np.array([1.0, 0, 0, 1.0, 0, 0], dtype=complex)
        assert abs(energy_density(psi) - 2.0) < 1e-15

    def test_dual_formula_random(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            psi = rng.normal(size=6) + 1j * rng.normal(size=6)
            value = energy_density(psi)
            pair = FieldPair.from_value(psi)
            dual = 2 * float(np.linalg.norm(pair.E) ** 2
                             + np.linalg.norm(pair.B) ** 2)
            assert abs(value - dual) <= 1e-12 * max(1.0, abs(value))

    def test_constant_over_spacetime(self):
        wave = PhotonPlaneWave(WaveVector(1.0, -2.0, 0.5), +1)
        reference = energy_density(wave.value((0, 0, 0), 0.0))
        for x, t in (((0.3, 1.4, -2.2), 0.9), ((5.0, 0.0, 0.1), -3.3)):
            assert abs(energy_density(wave.value(x, t)) - reference) < 1e-14

    def test_field_pair_round_trip(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            psi = rng.normal(size=6) + 1j * rng.normal(size=6)
            pair = FieldPair.from_value(psi)
            back = np.concatenate([pair.E - 1j * pair.B, pair.E + 1j * pair.B])
            assert np.abs(back - psi).max() < 1e-14

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="6-component"):
            energy_density(np.zeros(3))


class TestLagrangianDensity:
    @pytest.mark.parametrize("k", GENERIC_KS)
    @pytest.mark.parametrize("lam", [+1, -1, 0])
    def test_on_shell_vanishes(self, k, lam):
        terms = PhotonPlaneWave(k, lam).me6()
        for x, t in POINTS:
            assert abs(lagrangian_density_translation(terms, x, t)) < 1e-12

    def test_constant_wave_vanishes(self):
        terms = [PlaneWaveTerm(np.arange(1.0, 7.0), np.zeros(3), 0.0)]
        assert lagrangian_density_translation(terms) == 0.0

    def test_off_shell_nonzero(self):
        rng = np.random.default_rng(53)
        k = np.array([1.0, 2.0, 3.0])
        omega = float(np.linalg.norm(k))
        amplitude = rng.normal(size=6) + 1j * rng.normal(size=6)
        terms = [PlaneWaveTerm(amplitude, k, omega)]
        assert abs(lagrangian_density_translation(terms, (0.2, 0.3, 0.4), 0.5)) > 1e-3

    def test_overflow_is_a_domain_error(self, recwarn):
        # At c = 1e307 the products of psi-bar and d psi / dt overflow: a
        # ValueError, not nan with numpy warnings.
        rng = np.random.default_rng(53)
        k = np.array([3.0, 4.0, 0.0])
        terms = [PlaneWaveTerm(rng.normal(size=6) + 1j * rng.normal(size=6),
                               k, 1e307 * 5.0)]
        with pytest.raises(ValueError, match="^Lagrangian density overflows "
                           r"a float at x=\(0.2, 0.3, 0.4\), t=0.5$"):
            lagrangian_density_translation(terms, (0.2, 0.3, 0.4), 0.5, 1e307)
        assert not recwarn

    def test_value_is_purely_imaginary(self):
        rng = np.random.default_rng(54)
        k = np.array([0.4, -1.1, 0.9])
        terms = [PlaneWaveTerm(rng.normal(size=6) + 1j * rng.normal(size=6),
                               k, 2.0)]
        value = lagrangian_density_translation(terms, (0.1, 0.2, 0.3), 0.4)
        assert abs(value.real) < 1e-13 * max(1.0, abs(value))


class TestConjugateFieldEquation:
    @pytest.mark.parametrize("k", GENERIC_KS)
    @pytest.mark.parametrize("lam", [+1, -1, 0])
    def test_on_shell_vanishes(self, k, lam):
        terms = PhotonPlaneWave(k, lam).me6()
        scale = dirac_form_scale(terms)
        for x, t in POINTS:
            assert anti_equation_residual(terms, x, t) < 1e-12 * max(1, scale)

    def test_magnitude_matches_direct_residual(self):
        # The conjugate-field residual equals a unitary times the conjugated
        # direct residual, so the magnitudes agree even off-shell.
        rng = np.random.default_rng(59)
        for _ in range(10):
            k = rng.normal(size=3)
            terms = [PlaneWaveTerm(rng.normal(size=6) + 1j * rng.normal(size=6),
                                   k, float(rng.normal()))]
            x = tuple(rng.normal(size=3))
            t = float(rng.normal())
            direct = dirac_form_residual(terms, "ME6", x, t)
            anti = anti_equation_residual(terms, x, t)
            assert abs(direct - anti) < 1e-12 * max(1.0, direct)


_THREE = PlaneWaveTerm(np.ones(3), (1.0, 2.0, 3.0), 1.0)
_SIX = PlaneWaveTerm(np.ones(6), (1.0, 2.0, 3.0), 1.0)
_X, _T = (0.3, -0.7, 1.1), 0.45


@pytest.mark.parametrize("function, zero, wrong, message", [
    (lambda terms: dirac_form_residual(terms, "ME1", _X, _T), 0.0,
     _SIX, "ME1 residual needs 3-component terms"),
    (lambda terms: dirac_form_residual(terms, "ME2", _X, _T), 0.0,
     _SIX, "ME2 residual needs 3-component terms"),
    (lambda terms: dirac_form_residual(terms, "ME6", _X, _T), 0.0,
     _THREE, "ME6 residual needs 6-component terms"),
    (lambda terms: anti_equation_residual(terms, _X, _T), 0.0,
     _THREE, "conjugate-field residual needs 6-component terms"),
    (lambda terms: maxwell_residuals_from_terms(terms, terms, _X, _T),
     (0.0, 0.0, 0.0, 0.0), _SIX, "Maxwell residual needs 3-component terms"),
    (lambda terms: lagrangian_density_translation(terms, _X, _T), 0j,
     _THREE, "Lagrangian density needs 6-component terms"),
    (lambda terms: evaluate_terms(terms, _X, _T), 0j, None, None),
], ids=["ME1", "ME2", "ME6", "anti", "maxwell", "lagrangian", "evaluate"])
def test_empty_term_list_is_the_zero_wave(function, zero, wrong, message):
    result = function([])
    assert result == zero and type(result) is type(zero)
    if wrong is not None:
        # A wrong-shape term is refused with a clear message, also after a
        # right-shape one.
        right = _SIX if wrong is _THREE else _THREE
        for terms in ([wrong], [right, wrong]):
            with pytest.raises(ValueError, match=f"^{message}$"):
                function(terms)


def _seeded_vectors(seed: int, complex_values: bool):
    """Seeded 3-vectors, some components set to +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        vector = rng.normal(size=3) * 10.0 ** rng.integers(-5, 6, size=3)
        if complex_values:
            vector = vector + 1j * rng.normal(size=3)
        for signed_zero in (0.0, -0.0):
            vector.real[rng.random(3) < 0.2] = signed_zero
            if complex_values:
                vector.imag[rng.random(3) < 0.2] = signed_zero
        yield vector


@pytest.mark.parametrize("complex_values", [False, True])
def test_norm_is_bit_identical_to_numpy(complex_values):
    vectors = [*_seeded_vectors(41, complex_values), np.zeros(3), -np.zeros(3),
               np.array([1.0 + 0j])]
    for vector in vectors:
        ours, numpys = photon_plane_waves._norm(vector), np.linalg.norm(vector)
        assert type(ours) is type(numpys) is np.float64
        assert ours.tobytes() == numpys.tobytes(), vector
    # The empty sum of plane waves is a Python 0j, not an array.
    assert photon_plane_waves._norm(0j).tobytes() == np.linalg.norm(0j).tobytes()


@pytest.mark.parametrize("complex_values", [False, True])
def test_cross_is_bit_identical_to_numpy(complex_values):
    reals = _seeded_vectors(42, False)
    for a, b in zip(reals, _seeded_vectors(43, complex_values)):
        ours, numpys = photon_plane_waves._cross(a, b), np.cross(a, b)
        assert ours.dtype == numpys.dtype
        assert ours.tobytes() == numpys.tobytes(), (a, b)
