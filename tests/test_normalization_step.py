import inspect
import math

import numpy as np
import pytest

from torusrenorm.errors import NoConvergence, SingularJacobian
from torusrenorm.fourier_field import (
    FarResonant,
    FourierVectorField,
    norm_prime_r,
    norm_r,
    project,
)
from torusrenorm import normalization_step
from torusrenorm.normalization_step import (
    FarSolves,
    TorusMap,
    compose_pullback,
    eliminate_far_perturbation,
)

GAMMA = (1 + math.sqrt(5)) / 2
PSI = np.array([1.0, GAMMA])
SIGMA = 0.1
CONE = FarResonant((1.0, GAMMA), SIGMA)


def displacement(entries, truncation=16, width=0.9):
    return TorusMap(FourierVectorField(entries, width, truncation))


def single_far_mode_field(eps, k=(1, 1), vec=(1.0, 0.5), truncation=12):
    pert = {k: eps * np.asarray(vec, dtype=complex)}
    pert[(-k[0], -k[1])] = np.conj(pert[k])
    return FourierVectorField.constant(PSI, width=0.9, truncation=truncation) + (
        FourierVectorField(pert, 0.9, truncation)
    )


def mixed_perturbation_field(amp, truncation=12, seed=0):
    rng = np.random.default_rng(seed)
    modes = {}
    for k in [(1, 1), (2, -1), (-3, 2), (0, 1), (4, 1)]:
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = c * math.exp(-0.9 * (abs(k[0]) + abs(k[1])))
        modes[k] = c
        modes[(-k[0], -k[1])] = np.conj(c)
    pert = FourierVectorField(modes, 0.9, truncation)
    pert = pert * (amp / norm_prime_r(pert, 1.0))
    return FourierVectorField.constant(PSI, width=0.9, truncation=truncation) + pert


class TestTorusMap:
    def test_zero_average_required(self):
        with pytest.raises(ValueError):
            displacement({(0, 0): [0.1, 0.1]})

    def test_identity(self):
        u = TorusMap.identity()
        assert u.is_identity()
        assert u.du_sup_bound() == 0

    def test_serialization_roundtrip(self):
        u = displacement({(1, 1): [1e-3, 2e-3j], (-1, -1): [1e-3, -2e-3j]})
        data = u.to_dict()
        assert data["displacement"] is True
        v = TorusMap.from_dict(data)
        assert set(v.displacement.modes) == set(u.displacement.modes)


class TestComposePullback:
    def test_identity_map_is_exact(self):
        x = mixed_perturbation_field(1e-2)
        out = compose_pullback(x, TorusMap.identity(truncation=x.truncation))
        diff = out.field - x
        assert norm_r(diff, 0.9) < 1e-12
        assert out.fit.alias_residual < 1e-14

    def test_grid_validation(self):
        x = mixed_perturbation_field(1e-2)
        with pytest.raises(ValueError):
            compose_pullback(x, TorusMap.identity(truncation=16), grid=16)

    def test_constant_field_small_u(self):
        eps = 1e-5
        u = displacement({(2, 1): [eps, -eps], (-2, -1): [eps, -eps]})
        x = FourierVectorField.constant(PSI, width=0.9, truncation=16)
        out = compose_pullback(x, u)
        # average moves only at second order in u (constant ~ (2 pi ||k||)^2 ||psi||)
        assert np.linalg.norm(out.field.average() - PSI) < 2e3 * eps * eps
        # oscillatory part is -(Du)psi + O(u^2)
        osc = out.field.oscillatory()
        expected = {}
        for k, c in u.displacement.modes.items():
            expected[k] = -(2j * np.pi) * (k[0] * PSI[0] + k[1] * PSI[1]) * c
        for k, c in expected.items():
            assert np.allclose(osc.coefficient(k), c, atol=1e-3 * eps)

    def test_linearisation_finite_difference(self):
        x = FourierVectorField.constant(PSI, width=0.9, truncation=12)
        v = {(1, 2): np.array([0.3, -0.2]), (-1, -2): np.array([0.3, -0.2])}
        h = 1e-7
        up = displacement(
            {k: h * c for k, c in v.items()}, truncation=12
        )
        out = compose_pullback(x, up)
        deriv = (out.field - x) * (1.0 / h)
        for k, c in v.items():
            expected = -(2j * np.pi) * (k[0] * PSI[0] + k[1] * PSI[1]) * c
            assert np.allclose(deriv.coefficient(k), expected, atol=1e-5)

    def test_singular_jacobian(self):
        u = displacement({(1, 1): [0.4, 0.4], (-1, -1): [0.4, 0.4]})
        x = FourierVectorField.constant(PSI, width=0.9, truncation=16)
        with pytest.raises(SingularJacobian):
            compose_pullback(x, u)


class TestEliminateFar:
    def test_no_perturbation(self):
        x = FourierVectorField.constant(PSI, width=0.9, truncation=12)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        assert result.map.is_identity()
        assert result.sweeps == 0
        assert np.allclose(result.field.average(), PSI)

    def test_resonant_only_input_identity(self):
        # U = id mode-exactly when the far projection is already zero
        modes = {(-3, 2): np.array([1e-3, 1e-3]), (3, -2): np.array([1e-3, 1e-3])}
        x = FourierVectorField.constant(PSI, width=0.9, truncation=12) + (
            FourierVectorField(modes, 0.9, 12)
        )
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        assert result.map.is_identity()
        assert result.sweeps == 0
        assert set(result.field.modes) == set(x.modes)
        for k in x.modes:
            assert np.array_equal(result.field.modes[k], x.modes[k])

    def test_single_far_mode_quadratic_first_sweep(self):
        eps = 1e-6
        x = single_far_mode_field(eps)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                            tol=1e-14)
        assert result.sweeps <= 3
        assert result.residuals[1] < 1e3 * eps * eps
        assert norm_r(project(result.field, CONE, "outside"), 0.9) <= 1e-14

    def test_quadratic_log_ratio(self):
        eps = 1e-3
        x = single_far_mode_field(eps)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                            tol=1e-13)
        # quadratic regime: residuals well above the representation floor
        rs = [r for r in result.residuals if r > 1e-11]
        assert len(rs) >= 3
        for r_prev, r_next in zip(rs[1:], rs[2:]):
            ratio = math.log(r_next) / math.log(r_prev)
            assert ratio >= 1.8

    def test_mixed_perturbation_converges_quickly(self):
        x = mixed_perturbation_field(1e-3)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                            tol=1e-12)
        assert result.sweeps <= 6
        far = project(result.field, CONE, "outside")
        assert norm_r(far, 0.9) <= 1e-12

    def test_derivative_at_psi_is_resonant_projection(self):
        eps = 1e-6
        base = mixed_perturbation_field(1.0)
        f = base.minus_constant(PSI)  # unit-size direction with mixed modes
        xp = FourierVectorField.constant(PSI, 0.9, 12) + f * eps
        xm = FourierVectorField.constant(PSI, 0.9, 12) + f * (-eps)
        up = eliminate_far_perturbation(PSI, xp.minus_constant(PSI), SIGMA,
                                        tol=1e-13).field
        um = eliminate_far_perturbation(PSI, xm.minus_constant(PSI), SIGMA,
                                        tol=1e-13).field
        deriv = (up - um) * (1.0 / (2 * eps))
        expected = project(f, CONE, "inside")
        diff = deriv - expected
        assert norm_r(diff, 0.9) < 1e-8

    def test_support_inside_far_cone(self):
        x = mixed_perturbation_field(1e-3)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        for k in result.map.displacement.modes:
            assert not CONE.contains(k)

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(normalization_step, "MAX_SWEEPS", 1)
        x = mixed_perturbation_field(3e-2)
        with pytest.raises(NoConvergence):
            eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                       tol=1e-13)

    def test_contraction_estimate_reported(self):
        x = mixed_perturbation_field(1e-4)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        assert result.contraction_lhs <= result.contraction_rhs

    def test_reality_preserved(self):
        x = mixed_perturbation_field(1e-3)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        assert result.field.is_real_symmetric(1e-8)


def test_gmres_failures_are_counted(monkeypatch):
    # restart=1 makes each of the GMRES_MAXITER cycles a single iteration,
    # so the inner solves stop short of their tolerance
    infos = []
    real_gmres = normalization_step.gmres

    def one_iteration(*args, **kwargs):
        z, info = real_gmres(*args, restart=1, **kwargs)
        infos.append(info)
        return z, info

    monkeypatch.setattr(normalization_step, "gmres", one_iteration)
    monkeypatch.setattr(normalization_step, "GMRES_MAXITER", 1)
    x = mixed_perturbation_field(1e-3)
    result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
    assert result.gmres_failures == sum(info != 0 for info in infos) > 0
    assert len(infos) == result.sweeps


def with_average(g, avg):
    """g with its k = 0 coefficient replaced, bit for bit."""
    coeffs = g.coeffs.copy()
    coeffs[:, coeffs.shape[1] // 2] = avg
    return FourierVectorField.from_array(coeffs, g.width, g.truncation)


class TestSolveReuse:
    """A far-mode solve is reused only for a byte-identical problem, and a
    reused elimination equals a fresh one bit for bit."""

    def test_reused_solve_keeps_its_own_average(self):
        g = mixed_perturbation_field(1e-3).minus_constant(PSI)
        # averages far below the resolution of v = psi + E g
        g0 = with_average(g, [1e-18, 0.0])
        g1 = with_average(g, [3e-18, 0.0])
        psi = PSI.astype(complex)
        assert (psi + g0.average()).tobytes() == (psi + g1.average()).tobytes()
        solves = FarSolves()
        first = eliminate_far_perturbation(PSI, g0, SIGMA, solves=solves)
        reused = eliminate_far_perturbation(PSI, g1, SIGMA, solves=solves)
        fresh = eliminate_far_perturbation(PSI, g1, SIGMA)
        assert (first.reused, reused.reused, fresh.reused) == (False, True, False)
        assert solves.counts() == {"computed": 1, "reused": 1}
        assert first.sweeps > 0
        # the stale average of the first problem is not handed back
        assert not np.array_equal(reused.perturbation.average(),
                                  first.perturbation.average())
        for a, b in ((reused.perturbation, fresh.perturbation),
                     (reused.field, fresh.field),
                     (reused.map.displacement, fresh.map.displacement)):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
        for name in ("sweeps", "residuals", "at_floor", "gmres_failures",
                     "fit", "eps_hat", "inside_ball", "contraction_lhs",
                     "contraction_rhs", "du_sup_bound", "grid"):
            assert getattr(reused, name) == getattr(fresh, name), name
        # a caller may change its result without touching the stored solve
        assert reused.residuals is not first.residuals
        assert reused.fit is not first.fit

    def test_key_compares_bytes_not_values(self):
        g = mixed_perturbation_field(1e-3).minus_constant(PSI)
        coeffs = g.coeffs.copy()
        pos = g.support()[0]
        coeffs[0, pos] = complex(np.nextafter(coeffs[0, pos].real, np.inf),
                                 coeffs[0, pos].imag)
        nudged = FourierVectorField.from_array(coeffs, g.width, g.truncation)
        # psi with signed-zero imaginary parts, so that a -0.0 average
        # reaches v = psi + E g as -0.0
        psi = np.array([complex(1.0, -0.0), complex(GAMMA, -0.0)])
        plus_zero = with_average(g, [0.0, 0.0])
        minus_zero = with_average(g, [complex(0.0, -0.0), complex(0.0, -0.0)])
        v_plus = psi + plus_zero.average()
        v_minus = psi + minus_zero.average()
        assert np.array_equal(v_plus, v_minus)
        assert v_plus.tobytes() != v_minus.tobytes()

        solves = FarSolves()
        for field in (g, nudged):
            assert not eliminate_far_perturbation(PSI, field, SIGMA,
                                                  solves=solves).reused
        for field in (plus_zero, minus_zero):
            assert not eliminate_far_perturbation(psi, field, SIGMA,
                                                  solves=solves).reused
        assert eliminate_far_perturbation(psi, minus_zero, SIGMA,
                                          solves=solves).reused
        assert solves.counts() == {"computed": 4, "reused": 1}

    def test_resonant_only_input_makes_no_solve(self):
        solves = FarSolves()
        x = FourierVectorField.constant(PSI, width=0.9, truncation=12)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                            solves=solves)
        assert result.map.is_identity() and not result.reused
        assert solves.counts() == {"computed": 0, "reused": 0}


def direct_phase_chunks(ks, mirror, point1, point2):
    """Reference: every phase grid computed from its own exponent, 48 rows
    at a time, by the whole-chunk expression."""
    for start in range(0, len(ks), 48):
        k = ks[start : start + 48]
        yield start, np.exp(
            (2.0 * math.pi * 1j)
            * (k[:, 0, None, None] * point1 + k[:, 1, None, None] * point2)
        )


class TestMirrorPhases:
    """_pullback_core computes one exponential per +-k pair and returns the
    bytes of the direct loop, signed zeros included."""

    TRUNCATION = 16
    GRID = 24

    def support_field(self, m, unpaired=0, seed=0):
        """m nonzero modes: pairs +-k, one unpaired k if m is odd, and
        `unpaired` pairs with the -k partner replaced by an unpaired k."""
        rng = np.random.default_rng(seed)
        n = len(FourierVectorField.zero(0.9, self.TRUNCATION).index)
        lower = rng.permutation(n // 2)
        pairs, extra = lower[: m // 2], lower[m // 2 : m // 2 + m % 2 + unpaired]
        coeffs = np.zeros((2, n), dtype=complex)
        coeffs[:, pairs] = rng.normal(size=(2, len(pairs))) + 1j * rng.normal(
            size=(2, len(pairs)))
        coeffs[:, n - 1 - pairs] = np.conj(coeffs[:, pairs])
        coeffs[:, extra] = 0.3 - 0.7j
        coeffs[:, n - 1 - pairs[:unpaired]] = 0.0
        x = FourierVectorField.from_array(coeffs, 0.9, self.TRUNCATION)
        assert len(x) == m
        return x

    def displacement_grid(self, imag_size, seed=1):
        rng = np.random.default_rng(seed)
        shape = (2, self.GRID, self.GRID)
        if imag_size is None:
            return np.zeros(shape, dtype=complex)
        return 1e-7 * rng.normal(size=shape) + 1j * imag_size * rng.normal(size=shape)

    def both(self, monkeypatch, h, u_grid, with_derivative):
        mirrors = []
        real_chunks = normalization_step._phase_chunks

        def recorded(ks, mirror, point1, point2):
            mirrors.append(mirror.copy())
            return real_chunks(ks, mirror, point1, point2)

        v = PSI.astype(complex)
        args = (v, h, u_grid, self.GRID, with_derivative)
        monkeypatch.setattr(normalization_step, "_phase_chunks", recorded)
        new = normalization_step._pullback_core(*args)
        monkeypatch.setattr(normalization_step, "_phase_chunks",
                            direct_phase_chunks)
        old = normalization_step._pullback_core(*args)
        monkeypatch.undo()
        for a, b in zip(new, old):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes()
            else:
                assert a == b
        return mirrors[0]

    @pytest.mark.parametrize("m", [1, 47, 48, 49, 80, 150])
    @pytest.mark.parametrize("imag_size", [None, 1e-23])
    @pytest.mark.parametrize("with_derivative", [False, True])
    def test_pairs_share_one_exponential(self, monkeypatch, m, imag_size,
                                         with_derivative):
        h = self.support_field(m)
        mirror = self.both(monkeypatch, h, self.displacement_grid(imag_size),
                           with_derivative)
        assert np.count_nonzero(mirror >= 0) == 2 * (m // 2)

    @pytest.mark.parametrize("with_derivative", [False, True])
    def test_unpaired_modes(self, monkeypatch, with_derivative):
        h = self.support_field(80, unpaired=5)
        mirror = self.both(monkeypatch, h, self.displacement_grid(1e-23),
                           with_derivative)
        assert np.count_nonzero(mirror >= 0) == 70

    @pytest.mark.parametrize("with_derivative", [False, True])
    def test_imaginary_displacement_takes_the_direct_path(
            self, monkeypatch, with_derivative):
        # 2 pi T (max|Im u1| + max|Im u2|) ~ 1e-9, far above 2^-55: the
        # conjugate would differ from the direct grid in the last bits
        h = self.support_field(80)
        mirror = self.both(monkeypatch, h, self.displacement_grid(1e-12),
                           with_derivative)
        assert np.all(mirror == -1)


def test_pullback_core_keeps_the_parameters_tracers_read():
    # the benchmark's pullback hook binds the call's arguments by name
    parameters = inspect.signature(normalization_step._pullback_core).parameters
    assert {"h", "grid"} <= set(parameters)
