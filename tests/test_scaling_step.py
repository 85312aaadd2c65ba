import math

import numpy as np
import pytest

from torusrenorm.errors import ConeViolation, DomainError
from torusrenorm.fourier_field import (
    FourierVectorField,
    mode_l1,
    norm_prime_r,
    norm_r,
)
from torusrenorm.scaling_step import (
    cone_containment_certificate,
    kappa_from_sigma,
    operator_norm_bound,
    random_resonant_field,
    resonant_modes,
    scale_step,
)

GAMMA = (1 + math.sqrt(5)) / 2
OMEGA = np.array([1.0, GAMMA])
RHO, RHO_PRIME = 1.0, 0.9
KAPPA = kappa_from_sigma(0.1)


class TestScaleStep:
    def test_constant_golden(self):
        x = FourierVectorField.constant(OMEGA, width=RHO_PRIME)
        y = scale_step(x, 1, RHO, RHO_PRIME, KAPPA)
        # T_1^{-1} (1, gamma) = (gamma - 1, 1) = (1/gamma) (1, gamma)
        assert np.allclose(y.average(), OMEGA / GAMMA, atol=1e-14)
        assert y.width == RHO

    def test_mode_transport_halves(self):
        x = FourierVectorField({(1, -1): [1e-3, 0]}, RHO_PRIME, 8)
        y = scale_step(x, 1, RHO, RHO_PRIME, KAPPA)
        assert set(y.modes) == {(-1, 0)}
        assert mode_l1((-1, 0)) == 1

    def test_empty_field(self):
        x = FourierVectorField.zero(width=RHO_PRIME)
        y = scale_step(x, 1, RHO, RHO_PRIME, KAPPA)
        assert len(y) == 0

    def test_cone_violation(self):
        x = FourierVectorField({(1, 1): [1e-3, 0]}, RHO_PRIME, 8)
        with pytest.raises(ConeViolation):
            scale_step(x, 1, RHO, RHO_PRIME, KAPPA)

    def test_width_parameters_validated(self):
        x = FourierVectorField.constant(OMEGA, width=RHO_PRIME)
        with pytest.raises(DomainError):
            scale_step(x, 1, 1.0, 0.5, 0.8)

    def test_transport_bijective(self):
        rng = np.random.default_rng(0)
        x = random_resonant_field(OMEGA, 0.1, 1e-3, 24, rng)
        y = scale_step(x, 1, RHO, RHO_PRIME, KAPPA)
        assert len(y) == len(x)

    def test_width_bookkeeping(self):
        # e^{rho ||T*k||} <= e^{(kappa rho - rho') ||k||} e^{rho' ||k||}
        for k in resonant_modes(OMEGA, 0.1, 24).tolist():
            image = (k[1], k[0] + k[1])
            lhs = RHO * mode_l1(image)
            rhs = (KAPPA * RHO - RHO_PRIME) * mode_l1(k) + RHO_PRIME * mode_l1(k)
            assert lhs <= rhs + 1e-12

    def test_omega_Omega_relations(self):
        # T_a^{-1} omega = omega'/alpha' and T_a Omega = -(1/alpha) Omega'
        for alpha in (GAMMA, 1 + math.sqrt(2), math.sqrt(2) + 2):
            a = int(alpha)
            alpha_next = 1.0 / (alpha - a)
            t = np.array([[0.0, 1.0], [1.0, a]])
            t_inv = np.linalg.inv(t)
            omega = np.array([1.0, alpha])
            omega_next = np.array([1.0, alpha_next])
            assert np.allclose(t_inv @ omega, omega_next / alpha_next)
            cap_omega = np.array([1.0, -1.0 / alpha])
            cap_omega_next = np.array([1.0, -1.0 / alpha_next])
            assert np.allclose(t @ cap_omega, -cap_omega_next / alpha)


class TestOperatorNormBound:
    def test_formula_value(self):
        assert operator_norm_bound(1, 1.0, 0.8, 0.7) == pytest.approx(
            6 * math.pi / 0.1 + 3, rel=1e-12
        )

    def test_linear_in_a(self):
        b1 = operator_norm_bound(1, RHO, RHO_PRIME, KAPPA)
        b2 = operator_norm_bound(2, RHO, RHO_PRIME, KAPPA)
        assert b2 == pytest.approx(2 * b1)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            operator_norm_bound(1, 1.0, 0.6, 0.7)

    def test_empirical_norms_within_bound(self):
        rng = np.random.default_rng(42)
        bound = operator_norm_bound(1, RHO, RHO_PRIME, KAPPA)
        worst = 0.0
        for _ in range(100):
            x = random_resonant_field(OMEGA, 0.1, 1e-3, 32, rng)
            y = scale_step(x, 1, RHO, RHO_PRIME, KAPPA)
            ratio = norm_prime_r(y, RHO) / norm_r(x, RHO_PRIME)
            worst = max(worst, ratio)
            assert ratio <= bound
        assert worst > 0  # sanity: fields were not empty


class TestConeCertificate:
    def test_golden_passes(self):
        cert = cone_containment_certificate(OMEGA, 0.1, 1, KAPPA, 50)
        assert cert.passed and cert.witness is None
        assert cert.checked > 0

    def test_kappa_too_small_fails_with_witness(self):
        cert = cone_containment_certificate(OMEGA, 0.1, 1, 0.1, 50)
        assert not cert.passed
        assert cert.witness is not None
        k = cert.witness
        image = (k[1], k[0] + k[1])
        assert mode_l1(image) > 0.1 * mode_l1(k)
        # slope ordering r <= l <= m <= s breaks
        s = cert.slopes
        assert not (s["r"] <= s["l"] <= s["m"] <= s["s"])

    def test_slope_ordering_when_contained(self):
        cert = cone_containment_certificate(OMEGA, 0.1, 1, KAPPA, 30)
        s = cert.slopes
        assert s["r"] <= s["l"] <= s["m"] <= s["s"]

    def test_shrinking_sigma_keeps_containment(self):
        for sigma in (0.1, 0.01, 1e-4):
            cert = cone_containment_certificate(OMEGA, sigma, 1, KAPPA, 40)
            assert cert.passed

    def test_kappa_from_sigma(self):
        assert kappa_from_sigma(0.1) == pytest.approx(1 - 0.7 / 3)
        with pytest.raises(ValueError):
            kappa_from_sigma(0.5)


class TestResonantModes:
    def test_examples(self):
        ks = resonant_modes(OMEGA, 0.25, 6)
        assert ks.dtype == np.int64 and ks.shape[1] == 2
        modes = set(map(tuple, ks.tolist()))
        assert (-3, 2) in modes
        assert (1, 1) not in modes
        assert (0, 0) not in modes
        assert ks.tolist() == sorted(ks.tolist())

    def test_symmetry(self):
        modes = set(map(tuple, resonant_modes(OMEGA, 0.1, 30).tolist()))
        assert all((-k[0], -k[1]) in modes for k in modes)

    def test_random_field_properties(self):
        rng = np.random.default_rng(1)
        x = random_resonant_field(OMEGA, 0.1, 1e-3, 32, rng)
        assert x.is_real_symmetric()
        assert np.allclose(x.average(), 0)
        assert norm_r(x, 0.9) == pytest.approx(1e-3)


class TestDerivativeDelta:
    def test_diagnostic_value(self):
        from torusrenorm.scaling_step import derivative_weight_delta

        delta = derivative_weight_delta(1.0, 0.9, KAPPA)
        assert delta == pytest.approx(KAPPA * (0.9 - KAPPA))
        assert 0 < delta < 0.9 - KAPPA * 1.0
        with pytest.raises(DomainError):
            derivative_weight_delta(1.0, 0.5, 0.8)
