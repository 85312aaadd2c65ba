import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from torusrenorm import cli_experiments, normalization_step, renorm_driver
from torusrenorm.errors import DomainExceeded, ZeroSlope
from torusrenorm.fourier_field import FourierVectorField, norm_r
from torusrenorm.number_theory import S, Slope, V, cf_expand
from torusrenorm.renorm_driver import (
    RenormParams,
    basis_change,
    cap_omega_of,
    constant_block,
    constant_split,
    fit_theta,
    lambda_jn,
    linearized_step,
    mixed_perturbation,
    one_step,
    perturbed_state,
    quadratic_remainder_probe,
    renorm_orbit,
    resonant_perturbation,
    stabilize_resonant_perturbation,
    stable_decay_probe,
    transient_step,
    unstable_coordinate,
    unstable_perturbation,
    winding_cone_check,
)

GAMMA = (1 + math.sqrt(5)) / 2
PARAMS = RenormParams()


def constant_state(cf, vec=None):
    alpha = cf.tail_float(0)
    omega = np.array([1.0, alpha])
    f = (
        FourierVectorField.zero(width=0.9, truncation=PARAMS.truncation)
        if vec is None
        else FourierVectorField.constant(vec, 0.9, PARAMS.truncation)
    )
    return perturbed_state(f, cf)


class TestTransient:
    def test_identity_above_one(self):
        x = FourierVectorField.constant([1.0, GAMMA])
        out, omega, applied = transient_step(x, [1.0, GAMMA])
        assert applied == []
        assert np.allclose(omega, [1.0, GAMMA])

    def test_swap_below_one(self):
        x = FourierVectorField.constant([1.0, 1 / GAMMA])
        out, omega, applied = transient_step(x, [1.0, 1 / GAMMA])
        assert applied == ["S"]
        assert omega[1] / omega[0] == pytest.approx(GAMMA)
        assert np.allclose(out.average(), [1 / GAMMA, 1.0])

    def test_negative_slope(self):
        x = FourierVectorField.constant([1.0, -GAMMA])
        out, omega, applied = transient_step(x, [1.0, -GAMMA])
        assert applied == ["V"]
        assert omega[1] / omega[0] == pytest.approx(GAMMA)

    def test_negative_inverse_needs_both(self):
        x = FourierVectorField.constant([1.0, -1 / GAMMA])
        out, omega, applied = transient_step(x, [1.0, -1 / GAMMA])
        assert applied == ["V", "S"]
        assert omega[1] / omega[0] == pytest.approx(GAMMA)

    def test_zero_slope(self):
        x = FourierVectorField.constant([1.0, 0.0])
        with pytest.raises(ZeroSlope):
            transient_step(x, [1.0, 0.0])

    def test_basis_change_preserves_norm(self):
        x = FourierVectorField(
            {(2, -1): [0.1, 0.2], (-2, 1): [0.1, 0.2]}, 0.9, 8
        )
        for m in (S, V):
            y = basis_change(x, m)
            assert norm_r(y, 0.9) == pytest.approx(norm_r(x, 0.9))


class TestOneStep:
    def test_golden_fixed_point_exact(self):
        cf = cf_expand(Slope.golden(), 6)
        state = constant_state(cf)
        out = one_step(state, PARAMS)
        assert len(out.perturbation) == 0
        assert np.allclose(out.omega, [1.0, GAMMA])

    def test_sqrt2_frequency_orbit_periodic(self):
        cf = cf_expand(Slope.sqrt2(), 12)
        state = constant_state(cf)
        alphas = [state.alpha]
        for _ in range(8):
            state = one_step(state, PARAMS)
            alphas.append(state.alpha)
        silver = 1 + math.sqrt(2)
        for a in alphas[1:]:
            assert abs(a - silver) <= 1e-12

    def test_domain_exceeded(self):
        cf = cf_expand(Slope.golden(), 6)
        state = constant_state(cf, vec=0.1 * cap_omega_of(GAMMA))
        with pytest.raises(DomainExceeded):
            one_step(state, PARAMS)

    def test_normalized_average_along_omega(self):
        # after one step the constant part along omega' is exactly omega'
        f0, _ = resonant_perturbation(Slope.golden(), 1e-4, PARAMS, seed=2,
                                      stabilize=False)
        cf = cf_expand(Slope.golden(), 6)
        out = one_step(perturbed_state(f0, cf), PARAMS)
        p, _ = constant_split(out.perturbation.average(), out.omega)
        assert abs(p) < 1e-15

    def test_first_order_model(self):
        # X' - omega' = (I - P E) L f + O(||f||^2)
        cf = cf_expand(Slope.golden(), 6)
        rng_amp = 1e-5
        f0, _ = resonant_perturbation(Slope.golden(), rng_amp, PARAMS, seed=5,
                                      stabilize=False)
        out = one_step(perturbed_state(f0, cf), PARAMS)
        linear = linearized_step(f0, cf, 0, PARAMS)
        err = norm_r(out.perturbation - linear, PARAMS.rho_prime)
        assert err < 50 * rng_amp**2

    def test_contraction_bound(self):
        # ||R(omega + f) - omega'|| <= ||f|| / zeta on sampled f
        cf = cf_expand(Slope.golden(), 6)
        zeta = PARAMS.zeta(cf.tail_float(0), cf.tail_float(1))
        for seed in range(3):
            f0, _ = resonant_perturbation(Slope.golden(), zeta / 20, PARAMS,
                                          seed=seed, stabilize=False)
            out = one_step(perturbed_state(f0, cf), PARAMS)
            lhs = norm_r(out.perturbation, PARAMS.rho_prime)
            assert lhs <= norm_r(f0, PARAMS.rho_prime) / zeta


class TestConstantBlock:
    def test_golden_nu(self):
        cb = constant_block(GAMMA)
        assert cb.nu == pytest.approx(-GAMMA * GAMMA)

    def test_zero_determinant(self):
        for alpha in (GAMMA, math.sqrt(2) + 1, 3.7):
            assert abs(np.linalg.det(constant_block(alpha).matrix)) < 1e-12

    def test_eigenvectors(self):
        for alpha in (GAMMA, 2.4142135623730951, 5.3):
            cb = constant_block(alpha)
            assert np.allclose(cb.matrix @ cb.eigvec_zero, 0, atol=1e-12)
            image = cb.matrix @ cb.eigvec_nu
            assert np.allclose(image, cb.nu * cb.eigvec_nu, atol=1e-10)

    def test_unstable_eigenvalue_exceeds_one(self):
        for alpha in (1.1, GAMMA, 4.9, 12.3):
            assert abs(constant_block(alpha).nu) > 1

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            constant_block(0.8)
        with pytest.raises(ValueError):
            constant_block(3.0)


class TestWindingConeCheck:
    def test_constant_omega_passes(self):
        cf = cf_expand(Slope.golden(), 4)
        check = winding_cone_check(constant_state(cf), PARAMS)
        assert check.passed and check.lhs == 0

    def test_pure_unstable_fails(self):
        cf = cf_expand(Slope.golden(), 4)
        state = constant_state(cf, vec=1e-6 * cap_omega_of(GAMMA))
        check = winding_cone_check(state, PARAMS)
        assert not check.passed
        assert check.rhs == 0

    def test_oscillation_dominates(self):
        cf = cf_expand(Slope.golden(), 4)
        delta = 1e-6
        osc = FourierVectorField(
            {(-3, 2): [10 * delta, 0], (3, -2): [10 * delta, 0]}, 0.9,
            PARAMS.truncation,
        )
        f = osc + FourierVectorField.constant(
            delta * cap_omega_of(GAMMA), 0.9, PARAMS.truncation
        )
        state = perturbed_state(f, cf)
        assert winding_cone_check(state, PARAMS).passed


class TestOrbit:
    def test_fixed_point_orbit_all_zero(self):
        x0 = FourierVectorField.constant([1.0, GAMMA], 0.9, PARAMS.truncation)
        orbit = renorm_orbit(x0, Slope.golden(), 10, PARAMS)
        assert orbit.completed == 10
        assert np.all(orbit.norms == 0)

    def test_resonant_decay(self):
        f0, _ = resonant_perturbation(Slope.golden(), 1e-3, PARAMS, seed=7,
                                      stabilize=False)
        orbit = renorm_orbit(f0, Slope.golden(), 5, PARAMS,
                             x0_is_perturbation=True)
        assert orbit.completed == 5
        assert orbit.theta_hat < 1
        assert np.all(np.diff(orbit.norms[:5]) < 0)

    def test_unstable_growth_and_domain_exceeded(self):
        f0 = unstable_perturbation(GAMMA, 1e-6, PARAMS)
        orbit = renorm_orbit(f0, Slope.golden(), 16, PARAMS,
                             x0_is_perturbation=True)
        assert isinstance(orbit.failure, DomainExceeded)
        cs = [unstable_coordinate(s) for s in orbit.states]
        for i in range(4):
            assert abs(cs[i + 1] / cs[i]) == pytest.approx(GAMMA**2, rel=0.1)

    def test_rational_slope_rejected(self):
        x0 = FourierVectorField.constant([1.0, 1.5], 0.9, PARAMS.truncation)
        with pytest.raises(ValueError):
            renorm_orbit(x0, Slope.rational(3, 2), 10, PARAMS)

    def test_transient_far_clearing(self):
        f0 = mixed_perturbation(Slope.golden(), 1e-4, PARAMS, seed=4)
        orbit = renorm_orbit(f0, Slope.golden(), 3, PARAMS,
                             x0_is_perturbation=True)
        assert orbit.transient_far_cleared > PARAMS.tol
        assert orbit.completed == 3

    def test_fit_theta(self):
        norms = [1.0, 0.5, 0.1, 0.03, 0.009, 0.0027]
        theta = fit_theta(norms, start=2)
        assert theta == pytest.approx(0.3, rel=1e-6)


def count_steps(monkeypatch):
    calls = []
    real_step = renorm_driver.one_step

    def counted(state, params, solves=None):
        calls.append(state.n)
        return real_step(state, params, solves)

    monkeypatch.setattr(renorm_driver, "one_step", counted)
    return calls


def assert_same_orbit(a, b):
    assert cli_experiments.orbit_rows(a) == cli_experiments.orbit_rows(b)
    assert len(a.states) == len(b.states)
    for x, y in zip(a.states, b.states):
        assert x.n == y.n and x.alpha == y.alpha and x.a == y.a
        assert x.perturbation.coeffs.tobytes() == y.perturbation.coeffs.tobytes()


def run_golden_orbit(seed, out_dir):
    """The CLI golden orbit (T=32, 8 steps); returns its manifest results."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli_experiments.main(
            ["orbit", "--slope", "golden", "--perturb", "resonant:1e-3",
             "--steps", "8", "--truncation", "32", "--seed", str(seed),
             "--out", str(out_dir)])
    assert code == 0
    manifest = printed.getvalue().splitlines()[-1]
    return json.loads(Path(manifest).read_text())["results"]


class TestProbeReuse:
    """Every far-mode elimination of an orbit whose problem is byte-identical
    to one its prefix orbit solved reuses that solve; the stabilising probes
    chain this way and the final orbit takes the last probe as its prefix."""

    def test_resumed_orbit_equals_a_fresh_one(self):
        slope = Slope.golden()
        f0, _ = resonant_perturbation(slope, 1e-3, PARAMS, seed=7,
                                      stabilize=False)
        f, _, probe = stabilize_resonant_perturbation(f0, slope, PARAMS)
        assert probe.completed == 6
        resumed = renorm_orbit(f, slope, 8, PARAMS, x0_is_perturbation=True,
                               prefix=probe)
        # the probe's 6 steps are reused, the last 2 computed
        assert resumed.solves.computed == probe.solves.computed + 2
        assert resumed.solves.reused == probe.solves.reused + 6
        fresh = renorm_orbit(f, slope, 8, PARAMS, x0_is_perturbation=True)
        assert fresh.solves.counts() == {"computed": 8, "reused": 0}
        assert len(fresh.states) == 9
        assert_same_orbit(resumed, fresh)

    def test_cli_orbit_reuses_probe_solves_at_seed_2(self, monkeypatch,
                                                     tmp_path):
        # the last correction moves a bit of the perturbation at seed 2
        steps = count_steps(monkeypatch)
        results = run_golden_orbit(2, tmp_path)
        # three 6-step probes, then all 8 steps of the final orbit; the
        # third probe and the final orbit's first 6 steps pose the second
        # probe's problems again
        assert len(steps) == 3 * 6 + 8
        assert results["far_solves"] == {"computed": 14, "reused": 12}

    def test_prefix_of_another_input_changes_nothing(self):
        params = RenormParams(truncation=8)
        slope = Slope.golden()
        f0, _ = resonant_perturbation(slope, 1e-3, params, seed=1,
                                      stabilize=False)
        probe = renorm_orbit(f0, slope, 2, params, x0_is_perturbation=True)
        assert probe.solves.counts() == {"computed": 2, "reused": 0}
        other_sigma = RenormParams(truncation=8, sigma=0.09)
        for x0, p, reused in ((f0 * 1.0, params, 2), (f0 * 1.5, params, 0),
                              (f0, other_sigma, 0)):
            resumed = renorm_orbit(x0, slope, 3, p, x0_is_perturbation=True,
                                   prefix=probe)
            fresh = renorm_orbit(x0, slope, 3, p, x0_is_perturbation=True)
            assert resumed.solves.reused == reused
            assert_same_orbit(resumed, fresh)
            if reused:
                assert resumed.completed == 3
                assert np.array_equal(resumed.norms[:3], probe.norms)


def test_golden_cli_orbit_pullback_work(monkeypatch, tmp_path):
    """The seed-7 golden orbit computes 14 of its 26 far-mode solves and
    evaluates the pullback at most 66 times."""
    calls = []
    real_pullback = normalization_step._pullback_core

    def counted(*args, **kwargs):
        calls.append(1)
        return real_pullback(*args, **kwargs)

    monkeypatch.setattr(normalization_step, "_pullback_core", counted)
    results = run_golden_orbit(7, tmp_path)
    assert len(calls) <= 66
    assert results["far_solves"] == {"computed": 14, "reused": 12}


class TestLambda:
    def test_golden_closed_form(self):
        # Atilde_k = gamma^{k+1}: Lambda_{0,3} = (gamma^9 / sigma)^{1/2}
        cf = cf_expand(Slope.golden(), 8)
        val = lambda_jn(cf, 0.1, 0.0, 0, 3)
        assert val == pytest.approx(math.sqrt(GAMMA**9 / 0.1), rel=1e-9)

    def test_monotone_in_n(self):
        cf = cf_expand(Slope.sqrt2(), 12)
        vals = [lambda_jn(cf, 0.1, 0.0, 1, n) for n in range(2, 9)]
        assert np.all(np.diff(vals) > 0)

    def test_decreasing_in_j(self):
        cf = cf_expand(Slope.sqrt2(), 12)
        vals = [lambda_jn(cf, 0.1, 0.0, j, 7) for j in range(0, 8)]
        assert np.all(np.diff(vals) < 0)

    def test_index_validation(self):
        cf = cf_expand(Slope.golden(), 8)
        with pytest.raises(ValueError):
            lambda_jn(cf, 0.1, 0.0, 4, 3)


class TestStableDecayProbe:
    def test_single_factor_matches_exact(self):
        cf = cf_expand(Slope.golden(), 8)
        rep = stable_decay_probe(cf, 0.1, 24, 0)
        # j = n = 0: one factor; l2 estimate within the l1/l2 equivalence
        assert rep.norm_l1[0] > 0
        assert 0.3 * rep.norm_l1[0] < rep.norm_l2[0] <= 2.0 * rep.norm_l1[0]

    def test_composed_norms_decay_supergeometrically(self):
        cf = cf_expand(Slope.golden(), 10)
        rep = stable_decay_probe(cf, 0.1, 60, 6)
        ratios = rep.log_ratios()
        js = sorted(ratios, reverse=True)
        vals = [ratios[j] for j in js]
        assert len(vals) >= 3
        assert np.all(np.diff(vals) > 0)  # more factors, faster decay

    def test_zero_mode_excluded(self):
        cf = cf_expand(Slope.golden(), 8)
        rep = stable_decay_probe(cf, 0.1, 16, 2)
        assert np.all(rep.surviving >= 0)
        # the probe acts on (I - E): a pure constant has no column at all


class TestQuadraticRemainder:
    def test_exponent_near_two(self):
        probe = quadratic_remainder_probe(Slope.golden(), PARAMS, seed=3)
        assert 1.8 <= probe.exponent <= 2.2

    def test_within_cauchy_bound(self):
        probe = quadratic_remainder_probe(Slope.golden(), PARAMS, seed=3)
        assert np.all(probe.remainders <= probe.bounds)


class TestPeriodicity:
    def test_sqrt3_period_two(self):
        # quadratic irrational with period 2: the frequency orbit alternates
        slope = Slope.quadratic(0, 1, 3, 1)
        cf = cf_expand(slope, 12)
        assert cf.period == (1, 2)
        x0 = FourierVectorField.constant([1.0, math.sqrt(3)], 0.9,
                                         PARAMS.truncation)
        orbit = renorm_orbit(x0, slope, 8, PARAMS)
        alphas = [s.alpha for s in orbit.states]
        for n in range(1, 7):
            assert alphas[n + 2] == pytest.approx(alphas[n], abs=1e-12)
        assert alphas[1] != pytest.approx(alphas[2], abs=1e-3)
