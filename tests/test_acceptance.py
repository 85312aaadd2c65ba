"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np

from torusrenorm.errors import DomainExceeded
from torusrenorm.fourier_field import (
    FarResonant,
    FourierVectorField,
    norm_prime_r,
    norm_r,
    project,
)
from torusrenorm.normalization_step import FarSolves, eliminate_far_perturbation
from torusrenorm.number_theory import QuadraticNumber, Slope, cf_expand
from torusrenorm.renorm_driver import (
    RenormParams,
    RenormState,
    one_step,
    quadratic_remainder_probe,
    renorm_orbit,
    resonant_perturbation,
    stabilize_resonant_perturbation,
    stable_decay_probe,
    unstable_coordinate,
    unstable_perturbation,
)
from torusrenorm.scaling_step import (
    cone_containment_certificate,
    kappa_from_sigma,
    operator_norm_bound,
    random_resonant_field,
    scale_step,
)

GAMMA = (1 + math.sqrt(5)) / 2
PARAMS = RenormParams()
DUST_FLOOR = 1e-16  # strict decay is asserted above this absolute level


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def random_quadratic_slopes(count, seed=0):
    rng = np.random.default_rng(seed)
    nonsquares = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15]
    out = []
    while len(out) < count:
        d = int(rng.choice(nonsquares))
        u = int(rng.integers(-9, 10))
        v = int(rng.integers(1, 6)) * int(rng.choice([-1, 1]))
        w = int(rng.integers(1, 7))
        s = Slope.quadratic(u, v, d, w)
        if float(s) > 0:
            out.append(s)
    return out


def test_criterion_1_cf_golden_values():
    started = time.time()
    golden = cf_expand(Slope.golden(), 30)
    sqrt2 = cf_expand(Slope.sqrt2(), 30)
    elapsed = time.time() - started
    ok = (
        golden.coefficients == [1] * 30
        and golden.period == (0, 1)
        and sqrt2.coefficients == [1] + [2] * 29
        and sqrt2.period == (1, 1)
        and elapsed < 1.0
    )
    report(1, ok, f"gamma=[1,1,...], sqrt2=[1,2,2,...], periods detected, "
                  f"{elapsed:.3f}s")


def test_criterion_2_beta_sandwich():
    gamma = QuadraticNumber.from_surd(1, 1, 5, 2)
    worst_gap = 0.0
    ok = True
    for slope in random_quadratic_slopes(10, seed=2):
        cf = cf_expand(slope, 27)
        for n in range(26):
            beta_prod = cf.beta(n)
            beta_conv = cf.beta_from_convergents(n)
            gap = abs(beta_prod.to_mpf(256) - beta_conv.to_mpf(256))
            worst_gap = max(worst_gap, float(gap))
            ok &= gap < mpmath.mpf("1e-30")
            if n <= 25:
                q_next = cf.q[n + 1]
                ok &= Fraction(1, 2 * q_next) < beta_prod < Fraction(1, q_next)
                ok &= beta_prod.to_mpf(256) <= 1 / gamma.to_mpf(256) ** n
    report(2, ok, f"10 random quadratic irrationals, n <= 25; "
                  f"worst two-way beta gap {worst_gap:.2e}")


def test_criterion_3_cone_containment():
    kappa = kappa_from_sigma(0.1)
    ok = True
    checked = 0
    for alpha in (GAMMA, math.sqrt(2), 1 + math.sqrt(2)):
        cert = cone_containment_certificate(
            (1.0, alpha), 0.1, int(alpha), kappa, 50
        )
        ok &= cert.passed and cert.witness is None
        checked += cert.checked
    report(3, ok, f"exhaustive over ||k||_1 <= 50, three slopes, "
                  f"{checked} resonant modes, zero witnesses")


def test_criterion_4_linear_step_norm_bound():
    rng = np.random.default_rng(42)
    omega = np.array([1.0, GAMMA])
    bound = operator_norm_bound(1, PARAMS.rho, PARAMS.rho_prime, PARAMS.kappa)
    worst = 0.0
    ok = True
    for _ in range(100):
        x = random_resonant_field(omega, PARAMS.sigma, 1e-3, 32, rng,
                                  width=PARAMS.rho_prime)
        y = scale_step(x, 1, PARAMS.rho, PARAMS.rho_prime, PARAMS.kappa)
        ratio = norm_prime_r(y, PARAMS.rho) / norm_r(x, PARAMS.rho_prime)
        worst = max(worst, ratio)
        ok &= ratio <= bound
    report(4, ok, f"100 random resonant fields: worst ratio {worst:.3f} "
                  f"<= bound {bound:.1f} (margin {worst / bound:.2e})")


def test_criterion_5_elimination_contract():
    psi = np.array([1.0, GAMMA])
    sigma = 0.1
    cone = FarResonant((psi[0], psi[1]), sigma)
    trunc = 12

    # (i) U = id mode-exactly on resonant-only input
    res_modes = {(-3, 2): np.array([1e-3, 1e-3]),
                 (3, -2): np.array([1e-3, 1e-3])}
    x_res = FourierVectorField.constant(psi, trunc) + (
        FourierVectorField(res_modes, trunc)
    )
    r_res = eliminate_far_perturbation(psi, x_res.minus_constant(psi), sigma,
                                       PARAMS.tol, PARAMS.rho,
                                       PARAMS.rho_prime)
    part_i = len(r_res.map.displacement) == 0 and r_res.sweeps == 0

    # (ii) far residual <= 1e-12 in <= 6 sweeps at perturbation norm 1e-3
    rng = np.random.default_rng(0)
    modes = {}
    for k in [(1, 1), (2, -1), (-3, 2), (0, 1), (4, 1)]:
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        modes[k] = c * math.exp(-0.9 * (abs(k[0]) + abs(k[1])))
        modes[(-k[0], -k[1])] = np.conj(modes[k])
    pert = FourierVectorField(modes, trunc)
    pert = pert * (1e-3 / norm_prime_r(pert, 1.0))
    x = FourierVectorField.constant(psi, trunc) + pert
    r_mixed = eliminate_far_perturbation(psi, x.minus_constant(psi), sigma,
                                         1e-12, PARAMS.rho, PARAMS.rho_prime)
    far_after = norm_r(project(r_mixed.field, cone, "outside"), 0.9)
    part_ii = r_mixed.sweeps <= 6 and far_after <= 1e-12

    # (iii) convergence order from the first-sweep residual across epsilon
    logs_eps, logs_res = [], []
    for eps in (1e-4, 1e-5, 1e-6):
        x_eps = FourierVectorField.constant(psi, trunc) + pert * (
            eps / 1e-3
        )
        r_eps = eliminate_far_perturbation(
            psi, x_eps.minus_constant(psi), sigma, 1e-13, PARAMS.rho,
            PARAMS.rho_prime)
        logs_eps.append(math.log(eps))
        logs_res.append(math.log(r_eps.residuals[1]))
    order = np.polyfit(logs_eps, logs_res, 1)[0]
    part_iii = order >= 1.8

    # (iv) derivative at psi equals the resonant projection
    eps = 1e-6
    f = pert * (1.0 / norm_r(pert, 0.9))
    xp = FourierVectorField.constant(psi, trunc) + f * eps
    xm = FourierVectorField.constant(psi, trunc) + f * (-eps)
    up = eliminate_far_perturbation(psi, xp.minus_constant(psi), sigma,
                                    1e-13, PARAMS.rho, PARAMS.rho_prime).field
    um = eliminate_far_perturbation(psi, xm.minus_constant(psi), sigma,
                                    1e-13, PARAMS.rho, PARAMS.rho_prime).field
    deriv = (up - um) * (1.0 / (2 * eps))
    part_iv = norm_r(deriv - project(f, cone, "inside"), 0.9) < 1e-8

    ok = part_i and part_ii and part_iii and part_iv
    report(5, ok, f"(i) U=id {part_i}; (ii) {r_mixed.sweeps} sweeps, "
                  f"residual {far_after:.1e}; (iii) order {order:.2f}; "
                  f"(iv) derivative matches {part_iv}")


def test_criterion_6_fixed_point_and_periodicity():
    cf = cf_expand(Slope.golden(), 6)
    state = RenormState(0, FourierVectorField.zero(PARAMS.truncation), cf)
    out = one_step(state, PARAMS)
    dev = norm_r(out.perturbation, PARAMS.rho_prime) + float(
        np.abs(out.omega - np.array([1.0, GAMMA])).sum()
    )
    part_fixed = dev <= 1e-12

    x0 = FourierVectorField.constant([1.0, math.sqrt(2)], PARAMS.truncation)
    f0 = x0.minus_constant(np.array([1.0, float(Slope.sqrt2())]))
    orbit = renorm_orbit(f0, Slope.sqrt2(), 8, PARAMS)
    alphas = [s.alpha for s in orbit.states]
    silver = 1 + math.sqrt(2)
    part_periodic = all(abs(a - silver) <= 1e-12 for a in alphas[1:])
    ok = part_fixed and part_periodic
    report(6, ok, f"fixed-point deviation {dev:.2e}; sqrt2 frequency orbit "
                  f"period 1 from step 1 ({part_periodic})")


def decay_run(slope, seed):
    started = time.time()
    # the secant and the orbit share one table of far-mode solves, as the
    # orbit scenario does
    solves = FarSolves()
    f0 = resonant_perturbation(slope, 1e-3, PARAMS, seed=seed)
    f0, _ = stabilize_resonant_perturbation(f0, slope, PARAMS, solves)
    orbit = renorm_orbit(f0, slope, 8, PARAMS, solves)
    elapsed = time.time() - started
    norms = orbit.norms
    decreasing = all(
        norms[n + 1] < norms[n]
        for n in range(2, len(norms) - 1)
        if norms[n] > DUST_FLOOR
    )
    return orbit, decreasing, elapsed


def test_criterion_7_convergence_experiment():
    e_minus_2 = Slope.real(mpmath.nstr(mpmath.mpf(mpmath.e) - 2, 85), bits=256)
    ok = True
    details = []
    for name, slope, seed in (
        ("golden", Slope.golden(), 7),
        ("silver", Slope.silver(), 11),
        ("e-2@256", e_minus_2, 11),
    ):
        orbit, decreasing, elapsed = decay_run(slope, seed)
        good = (
            orbit.completed == 8
            and orbit.theta_hat is not None
            and orbit.theta_hat < 1
            and decreasing
            and elapsed < 120
        )
        ok &= good
        details.append(f"{name}: theta={orbit.theta_hat:.4f} "
                       f"decay->{orbit.norms[-1]:.1e} {elapsed:.0f}s")
    report(7, ok, "; ".join(details))


def test_criterion_8_unstable_direction():
    f0 = unstable_perturbation(GAMMA, 1e-6, PARAMS)
    orbit = renorm_orbit(f0, Slope.golden(), 16, PARAMS)
    cs = [unstable_coordinate(s) for s in orbit.states]
    factors = [abs(cs[i + 1] / cs[i]) for i in range(4)]
    within = all(abs(f - GAMMA**2) <= 0.1 * GAMMA**2 for f in factors)
    ok = within and isinstance(orbit.failure, DomainExceeded)
    report(8, ok, f"growth factors {[round(f, 4) for f in factors]} "
                  f"(|nu|={GAMMA**2:.4f}), DomainExceeded at step "
                  f"{orbit.failure.step}")


def test_criterion_9_quadratic_remainder():
    probe = quadratic_remainder_probe(Slope.golden(), PARAMS, seed=3)
    ok = 1.8 <= probe.exponent <= 2.2
    report(9, ok, f"Taylor remainder exponent {probe.exponent:.3f} "
                  f"at norms zeta/10, zeta/100")


def test_criterion_10_stable_decay_probe():
    cf = cf_expand(Slope.golden(), 10)
    rep = stable_decay_probe(cf, 6, RenormParams(truncation=60))
    ratios = rep.log_ratios()
    js = sorted(ratios, reverse=True)
    vals = [ratios[j] for j in js]
    lams = [float(rep.lambdas[list(rep.j_values).index(j)]) for j in js]
    increasing = len(vals) >= 3 and bool(np.all(np.diff(vals) > 0))
    lambda_trend = bool(np.all(np.diff(lams) > 0))
    ok = increasing and lambda_trend
    report(10, ok, f"log-ratios {[round(v, 2) for v in vals]} increase with "
                   f"n-j, Lambda trend {[round(v, 1) for v in lams]}")
