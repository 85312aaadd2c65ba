import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from torusrenorm import cli_experiments, normalization_step, renorm_driver
from torusrenorm.errors import DomainExceeded, ZeroInput
from torusrenorm.fourier_field import FourierVectorField, mode_l1, norm_r
from torusrenorm.normalization_step import FarSolves
from torusrenorm.number_theory import S, Slope, V, cf_expand
from torusrenorm.scaling_step import resonant_modes
from torusrenorm.renorm_driver import (
    PROBE_STEPS,
    STABILIZE_ROUNDS,
    RenormParams,
    RenormState,
    basis_change,
    cap_omega_of,
    constant_block,
    constant_split,
    fit_theta,
    lambda_jn,
    linearized_step,
    mixed_perturbation,
    one_step,
    quadratic_remainder_probe,
    renorm_orbit,
    resonant_perturbation,
    stabilize_resonant_perturbation,
    stable_decay_probe,
    transient_slope,
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
        FourierVectorField.zero(truncation=PARAMS.truncation)
        if vec is None
        else FourierVectorField.constant(vec, PARAMS.truncation)
    )
    return RenormState(0, f, cf)


class TestTransient:
    def test_identity_above_one(self):
        slope, applied = transient_slope(Slope.golden())
        assert applied == []
        assert np.allclose([1.0, float(slope)], [1.0, GAMMA])

    def test_swap_below_one(self):
        x = FourierVectorField.constant([1.0, 1 / GAMMA], 32)
        slope, applied = transient_slope(Slope.quadratic(-1, 1, 5, 2))
        assert applied == ["S"]
        assert float(slope) == pytest.approx(GAMMA)
        out = basis_change(x, S)
        assert np.allclose(out.average(), [1 / GAMMA, 1.0])

    def test_negative_slope(self):
        slope, applied = transient_slope(Slope.quadratic(-1, -1, 5, 2))
        assert applied == ["V"]
        assert float(slope) == pytest.approx(GAMMA)

    def test_negative_inverse_needs_both(self):
        slope, applied = transient_slope(Slope.quadratic(1, -1, 5, 2))
        assert applied == ["V", "S"]
        assert float(slope) == pytest.approx(GAMMA)

    def test_zero_slope(self):
        # a zero slope has no continued-fraction expansion to step along
        x = FourierVectorField.constant([1.0, 0.0], 8)
        f = x.minus_constant(np.array([1.0, 0.0]))
        with pytest.raises(ZeroInput):
            renorm_orbit(f, Slope.rational(0, 1), 3, RenormParams(truncation=8))

    def test_basis_change_preserves_norm(self):
        x = FourierVectorField(
            {(2, -1): [0.1, 0.2], (-2, 1): [0.1, 0.2]}, 8
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
        f0 = resonant_perturbation(Slope.golden(), 1e-4, PARAMS, seed=2)
        cf = cf_expand(Slope.golden(), 6)
        out = one_step(RenormState(0, f0, cf), PARAMS)
        p, _ = constant_split(out.perturbation.average(), out.omega)
        assert abs(p) < 1e-15

    def test_first_order_model(self):
        # X' - omega' = (I - P E) L f + O(||f||^2)
        cf = cf_expand(Slope.golden(), 6)
        rng_amp = 1e-5
        f0 = resonant_perturbation(Slope.golden(), rng_amp, PARAMS, seed=5)
        out = one_step(RenormState(0, f0, cf), PARAMS)
        linear = linearized_step(f0, cf, 0, PARAMS)
        err = norm_r(out.perturbation - linear, PARAMS.rho_prime)
        assert err < 50 * rng_amp**2

    def test_contraction_bound(self):
        # ||R(omega + f) - omega'|| <= ||f|| / zeta on sampled f
        cf = cf_expand(Slope.golden(), 6)
        zeta = PARAMS.zeta(cf.tail_float(0), cf.tail_float(1))
        for seed in range(3):
            f0 = resonant_perturbation(Slope.golden(), zeta / 20, PARAMS,
                                       seed=seed)
            out = one_step(RenormState(0, f0, cf), PARAMS)
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
        # orbit constants at steps 5-8 are 1e-20 to 1e-23: the check must
        # not pass them on an absolute threshold
        cf = cf_expand(Slope.golden(), 4)
        for amplitude in (1e-6, 1e-16, 1e-22):
            state = constant_state(cf, vec=amplitude * cap_omega_of(GAMMA))
            check = winding_cone_check(state, PARAMS)
            assert not check.passed, amplitude
            assert check.rhs == 0

    def test_rounding_of_the_omega_split_passes(self):
        # the split of 3.7e-4 omega leaves 1.6e-19 off omega (1e-3 omega
        # leaves exactly 0), inside the slack of a few ulps of ||E X||_1
        cf = cf_expand(Slope.golden(), 4)
        state = constant_state(cf, vec=3.7e-4 * np.array([1.0, cf.tail_float(0)]))
        check = winding_cone_check(state, PARAMS)
        assert check.passed
        assert 0 < check.lhs < 1e-18
        assert check.rhs == 0

    def test_oscillation_dominates(self):
        cf = cf_expand(Slope.golden(), 4)
        delta = 1e-6
        osc = FourierVectorField(
            {(-3, 2): [10 * delta, 0], (3, -2): [10 * delta, 0]},
            PARAMS.truncation,
        )
        f = osc + FourierVectorField.constant(
            delta * cap_omega_of(GAMMA), PARAMS.truncation
        )
        state = RenormState(0, f, cf)
        assert winding_cone_check(state, PARAMS).passed


class TestOrbit:
    def test_fixed_point_orbit_all_zero(self):
        x0 = FourierVectorField.constant([1.0, GAMMA], PARAMS.truncation)
        f0 = x0.minus_constant(np.array([1.0, float(Slope.golden())]))
        orbit = renorm_orbit(f0, Slope.golden(), 10, PARAMS)
        assert orbit.completed == 10
        assert np.all(orbit.norms == 0)

    def test_resonant_decay(self):
        f0 = resonant_perturbation(Slope.golden(), 1e-3, PARAMS, seed=7)
        orbit = renorm_orbit(f0, Slope.golden(), 5, PARAMS)
        assert orbit.completed == 5
        assert orbit.theta_hat < 1
        assert np.all(np.diff(orbit.norms[:5]) < 0)

    def test_unstable_growth_and_domain_exceeded(self):
        f0 = unstable_perturbation(GAMMA, 1e-6, PARAMS)
        orbit = renorm_orbit(f0, Slope.golden(), 16, PARAMS)
        assert isinstance(orbit.failure, DomainExceeded)
        cs = [unstable_coordinate(s) for s in orbit.states]
        for i in range(4):
            assert abs(cs[i + 1] / cs[i]) == pytest.approx(GAMMA**2, rel=0.1)

    def test_rational_slope_rejected(self):
        x0 = FourierVectorField.constant([1.0, 1.5], PARAMS.truncation)
        f0 = x0.minus_constant(np.array([1.0, float(Slope.rational(3, 2))]))
        with pytest.raises(ValueError):
            renorm_orbit(f0, Slope.rational(3, 2), 10, PARAMS)

    def test_transient_far_clearing(self):
        f0 = mixed_perturbation(Slope.golden(), 1e-4, PARAMS, seed=4)
        orbit = renorm_orbit(f0, Slope.golden(), 3, PARAMS)
        assert orbit.transient_far_cleared > PARAMS.tol
        assert orbit.completed == 3

    def test_fit_theta(self):
        norms = [1.0, 0.5, 0.1, 0.03, 0.009, 0.0027]
        theta = fit_theta(norms)
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


# SHA-256 of the seed-7 golden orbit's CSV body and of its manifest results
# (json.dumps with sorted keys)
GOLDEN_SEED7_CSV = (
    "04c0416ade7879e5df6e8cd975ea5f91e8400e5595fcdc78f32107d8186a95a5")
GOLDEN_SEED7_RESULTS = (
    "02223ad8b3f12bcf36d50935e804d800b8a22815bae2dea01d839d526479243e")


def run_golden_orbit(seed, out_dir):
    """The CLI golden orbit (T=32, 8 steps); returns its CSV body, without
    the comment header, and its manifest results."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli_experiments.main(
            ["orbit", "--slope", "golden", "--perturb", "resonant:1e-3",
             "--steps", "8", "--truncation", "32", "--seed", str(seed),
             "--out", str(out_dir)])
    assert code == 0
    csv_path, manifest = printed.getvalue().splitlines()[-2:]
    body = "".join(line for line in
                   Path(csv_path).read_text().splitlines(keepends=True)
                   if not line.startswith("#"))
    return body, json.loads(Path(manifest).read_text())["results"]


class TestProbeReuse:
    """Every far-mode elimination whose problem is byte-identical to one
    already in the run's table of solves reuses that solve; the stabilising
    probes and the final orbit share one table."""

    def test_resumed_orbit_equals_a_fresh_one(self, monkeypatch):
        slope = Slope.golden()
        f0 = resonant_perturbation(slope, 1e-3, PARAMS, seed=7)
        steps = count_steps(monkeypatch)
        solves = FarSolves()
        f, _ = stabilize_resonant_perturbation(f0, slope, PARAMS, solves)
        # every probe orbit completed its steps
        assert len(steps) == STABILIZE_ROUNDS * PROBE_STEPS
        after_secant = solves.counts()
        resumed = renorm_orbit(f, slope, 8, PARAMS, solves)
        # the first 6 steps pose the probes' problems again, the last 2 are new
        assert len(solves) == after_secant["computed"] + 2
        assert solves.reused == after_secant["reused"] + 6
        fresh_solves = FarSolves()
        fresh = renorm_orbit(f, slope, 8, PARAMS, fresh_solves)
        assert fresh_solves.counts() == {"computed": 8, "reused": 0}
        assert len(fresh.states) == 9
        assert_same_orbit(resumed, fresh)

    def test_cli_orbit_reuses_probe_solves_at_seed_2(self, monkeypatch,
                                                     tmp_path):
        # the last correction moves a bit of the perturbation at seed 2
        steps = count_steps(monkeypatch)
        _, results = run_golden_orbit(2, tmp_path)
        # three 6-step probes, then all 8 steps of the final orbit; the
        # third probe and the final orbit's first 6 steps pose the second
        # probe's problems again
        assert len(steps) == 3 * 6 + 8
        assert results["far_solves"] == {"computed": 14, "reused": 12}

    def test_a_shared_table_never_changes_a_result(self):
        params = RenormParams(truncation=8)
        slope = Slope.golden()
        f0 = resonant_perturbation(slope, 1e-3, params, seed=1)
        solves = FarSolves()
        probe = renorm_orbit(f0, slope, 2, params, solves)
        assert solves.counts() == {"computed": 2, "reused": 0}
        other_sigma = RenormParams(truncation=8, sigma=0.09)
        for x0, p, reused in ((f0 * 1.0, params, 2), (f0 * 1.5, params, 0),
                              (f0, other_sigma, 0)):
            reused_before = solves.reused
            resumed = renorm_orbit(x0, slope, 3, p, solves)
            fresh = renorm_orbit(x0, slope, 3, p)
            assert solves.reused - reused_before == reused
            assert_same_orbit(resumed, fresh)
            if reused:
                assert resumed.completed == 3
                assert np.array_equal(resumed.norms[:3], probe.norms)


def test_golden_cli_orbit_pullback_work(monkeypatch, tmp_path):
    """The seed-7 golden orbit computes 14 of its 26 far-mode solves and
    evaluates the pullback at most 66 times.  Every computed solve stalls
    and is accepted at the floor, so the pinned SHA-256 of the CSV body and
    of the manifest results cover the stall and floor branches."""
    calls = []
    real_pullback = normalization_step._pull_back

    def counted(*args, **kwargs):
        calls.append(1)
        return real_pullback(*args, **kwargs)

    monkeypatch.setattr(normalization_step, "_pull_back", counted)
    body, results = run_golden_orbit(7, tmp_path)
    assert len(calls) <= 66
    assert results["far_solves"] == {"computed": 14, "reused": 12}
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN_SEED7_CSV
    assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()
                          ).hexdigest() == GOLDEN_SEED7_RESULTS


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
        rep = stable_decay_probe(cf, 0, RenormParams(truncation=24), 0.0)
        # j = n = 0: one factor; the l2 norm within the l1/l2 equivalence
        assert rep.norm_l1[0] > 0
        assert 0.3 * rep.norm_l1[0] < rep.norm_l2[0] <= 2.0 * rep.norm_l1[0]

    def test_composed_norms_decay_supergeometrically(self):
        cf = cf_expand(Slope.golden(), 10)
        rep = stable_decay_probe(cf, 6, RenormParams(truncation=60), 0.0)
        ratios = rep.log_ratios()
        js = sorted(ratios, reverse=True)
        vals = [ratios[j] for j in js]
        assert len(vals) >= 3
        assert np.all(np.diff(vals) > 0)  # more factors, faster decay

    def test_zero_mode_excluded(self):
        cf = cf_expand(Slope.golden(), 8)
        rep = stable_decay_probe(cf, 2, RenormParams(truncation=16), 0.0)
        assert np.all(rep.surviving >= 0)
        # the probe acts on (I - E): a pure constant has no column at all


def reference_power_iteration_norm(matrix, iters=60, seed=0):
    """Largest singular value by power iteration on A*A, on full-length
    vectors: the estimate the probe made before its l2 norm was exact."""
    rng = np.random.default_rng(seed)
    n = matrix.shape[1]
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = matrix @ v
        v_next = matrix.conj().T @ w
        norm = np.linalg.norm(v_next)
        if norm == 0:
            return 0.0
        sigma = math.sqrt(norm)
        v = v_next / norm
    return float(sigma)


def mode_universe(truncation):
    """The nonzero modes with ||k||_1 <= truncation, sorted."""
    return sorted(
        (k1, k2)
        for k1 in range(-truncation, truncation + 1)
        for k2 in range(-(truncation - abs(k1)), truncation - abs(k1) + 1)
        if (k1, k2) != (0, 0)
    )


def reference_decay_probe(cf, n, params, beta=0.0):
    """The probe's per-mode loop: each resonant mode and its 2x2 block
    carried through the levels one at a time.  Returns the four outputs and,
    per level, the sparse weighted operator on the mode universe (None
    where no mode survives)."""
    sigma, truncation, rho_prime = params.sigma, params.truncation, params.rho_prime
    omegas = [np.array([1.0, cf.tail_float(i)]) for i in range(n + 2)]
    j_values = np.arange(n, -1, -1)
    norms_l1, norms_l2, lambdas, surviving, matrices = [], [], [], [], []
    universe = mode_universe(truncation)
    position = {k: i for i, k in enumerate(universe)}
    for j in j_values:
        best = l2 = 0.0
        alive = 0
        rows, cols, vals = [], [], []
        # rows as Python ints: a huge coefficient overflows int64 products
        modes = resonant_modes(omegas[j], sigma, truncation).tolist()
        for k in map(tuple, modes):
            kk = k
            block = np.eye(2)
            dead = False
            for i in range(j, n + 1):
                a_i = cf.coefficient(i)
                kk = (kk[1], kk[0] + a_i * kk[1])
                t_inv = np.array([[-float(a_i), 1.0], [1.0, 0.0]])
                block = cf.tail_float(i + 1) * (t_inv @ block)
                w = omegas[i + 1]
                if mode_l1(kk) > truncation or abs(
                    w[0] * kk[0] + w[1] * kk[1]
                ) > sigma * mode_l1(kk):
                    dead = True
                    break
            if dead:
                continue
            alive += 1
            weight = math.exp(rho_prime * (mode_l1(kk) - mode_l1(k)))
            best = max(best, max(np.abs(block).sum(axis=0)) * weight)
            l2 = max(l2, weight * np.linalg.norm(block, 2))
            src, dst = position[k], position[kk]
            for r in range(2):
                for c in range(2):
                    rows.append(2 * dst + r)
                    cols.append(2 * src + c)
                    vals.append(block[r, c] * weight)
        size = 2 * len(universe)
        matrices.append(scipy.sparse.coo_matrix(
            (vals, (rows, cols)), shape=(size, size)
        ).tocsr() if vals else None)
        norms_l1.append(best)
        norms_l2.append(l2)
        lambdas.append(lambda_jn(cf, sigma, beta, int(j), n) if n > 0 else np.nan)
        surviving.append(alive)
    return (np.array(norms_l1), np.array(norms_l2), np.array(lambdas),
            np.array(surviving)), matrices


def dense_decay_operator(cf, n, j, params):
    """L_n ... L_j (I - E) as a dense matrix in weighted-l2 coordinates on
    the truncated mode universe, composed factor by factor: each L_i maps
    the block of mode k to that of (k2, k1 + a_i k2) when the image lies
    in the truncation and in the resonant cone of omega_{i+1}."""
    sigma, truncation, rho_prime = params.sigma, params.truncation, params.rho_prime
    universe = mode_universe(truncation)
    position = {k: i for i, k in enumerate(universe)}
    weights = np.repeat([math.exp(rho_prime * mode_l1(k)) for k in universe], 2)

    def cone(omega):
        keep = np.zeros(2 * len(universe))
        for k in map(tuple, resonant_modes(omega, sigma, truncation)):
            keep[2 * position[k]: 2 * position[k] + 2] = 1.0
        return np.diag(keep)

    op = cone((1.0, cf.tail_float(j)))
    for i in range(j, n + 1):
        a_i = cf.coefficient(i)
        t_inv = cf.tail_float(i + 1) * np.array([[-float(a_i), 1.0], [1.0, 0.0]])
        factor = np.zeros((2 * len(universe),) * 2)
        for k, src in position.items():
            dst = position.get((k[1], k[0] + a_i * k[1]))
            if dst is not None:
                factor[2 * dst: 2 * dst + 2, 2 * src: 2 * src + 2] = t_inv
        op = cone((1.0, cf.tail_float(i + 1))) @ factor @ op
    return weights[:, None] * op / weights[None, :]


PROBE_SLOPES = {
    "golden": Slope.golden(),
    "sqrt2": Slope.sqrt2(),
    "(3+2sqrt7)/5": Slope.quadratic(3, 2, 7, 5),
}
EPS = np.finfo(float).eps


class TestDecayProbeBits:
    """The probe transports its surviving modes as arrays and takes both
    norms off the one shared block; every output keeps the bits of the
    per-mode loop, and the power iteration on the per-mode loop's operator
    agrees with the exact l2 norm."""

    @pytest.mark.parametrize("slope", PROBE_SLOPES)
    @pytest.mark.parametrize("truncation, n", [
        (60, 0), (60, 3), (60, 6), (120, 10), (200, 3),
    ])
    def test_matches_the_per_mode_loop(self, slope, truncation, n):
        cf = cf_expand(PROBE_SLOPES[slope], n + 4)
        params = RenormParams(truncation=truncation)
        rep = stable_decay_probe(cf, n, params, 0.0)
        ref, matrices = reference_decay_probe(cf, n, params)
        got = (rep.norm_l1, rep.norm_l2, rep.lambdas, rep.surviving)
        for name, a, b in zip(("norm_l1", "norm_l2", "lambdas", "surviving"),
                              got, ref):
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert np.array_equal(rep.j_values, np.arange(n, -1, -1))
        for exact, mat in zip(rep.norm_l2, matrices):
            power = reference_power_iteration_norm(mat) if mat is not None else 0.0
            assert abs(power - exact) <= 8 * EPS * exact

    def test_huge_coefficient(self):
        # [1; 10^20, 2]: the coefficient exceeds int64 products
        cf = cf_expand(Slope.rational(2 * 10**20 + 3, 2 * 10**20 + 1), 5)
        assert cf.coefficients == [1, 10**20, 2]
        params = RenormParams(truncation=24)
        rep = stable_decay_probe(cf, 1, params, 0.0)
        ref, _ = reference_decay_probe(cf, 1, params)
        for a, b in zip((rep.norm_l1, rep.norm_l2, rep.lambdas,
                         rep.surviving), ref):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("slope", [Slope.quadratic(0, 1, 2, 2),
                                       Slope.quadratic(1, -1, 5, 2)],
                             ids=["sqrt2/2", "(1-sqrt5)/2"])
    def test_slopes_below_one(self, slope):
        # a_0 = 0 and a_0 = -1: the first transport is no shift matrix
        cf = cf_expand(slope, 6)
        assert cf.coefficient(0) < 1
        params = RenormParams(truncation=40)
        rep = stable_decay_probe(cf, 2, params, 0.0)
        ref, _ = reference_decay_probe(cf, 2, params)
        for a, b in zip((rep.norm_l1, rep.norm_l2, rep.lambdas,
                         rep.surviving), ref):
            assert a.tobytes() == b.tobytes()
        assert (rep.surviving > 0).all()

    @pytest.mark.parametrize("slope", PROBE_SLOPES)
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_l2_is_the_dense_operator_norm(self, slope, n):
        cf = cf_expand(PROBE_SLOPES[slope], n + 4)
        params = RenormParams(truncation=12)
        rep = stable_decay_probe(cf, n, params, 0.0)
        for i, j in enumerate(rep.j_values):
            dense = np.linalg.norm(dense_decay_operator(cf, n, int(j), params), 2)
            assert abs(rep.norm_l2[i] - dense) <= 8 * EPS * dense
            assert (rep.norm_l2[i] == 0) == (rep.surviving[i] == 0)

    @pytest.mark.parametrize("shape", [(40, 40), (40, 30)])
    def test_power_iteration_on_zero_matrices(self, shape):
        # the cross-check reads 0.0 where no mode survives, as the probe does
        empty = scipy.sparse.csr_matrix(shape)
        stored_zeros = scipy.sparse.coo_matrix(
            (np.zeros(3), ([0, 5, 7], [1, 2, 9])), shape=shape).tocsr()
        for mat in (empty, stored_zeros):
            assert reference_power_iteration_norm(mat) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_power_iteration_with_empty_rows_and_columns(self, seed):
        # a block-injective operator as the probe builds: 2x2 blocks w_s B
        # between distinct sources and distinct images, most rows and
        # columns empty; max_s w_s ||B||_2 is its norm
        rng = np.random.default_rng(seed)
        size, survivors = 150, 12
        src = rng.choice(size, survivors, replace=False)
        dst = rng.choice(size, survivors, replace=False)
        weight = np.exp(0.9 * rng.integers(-4, 5, survivors))
        block = np.eye(2)
        for a in rng.integers(1, 4, 3):
            block = np.array([[-float(a), 1.0], [1.0, 0.0]]) @ block
        dense = np.zeros((2 * size, 2 * size))
        for s, d, w in zip(src, dst, weight):
            dense[2 * d: 2 * d + 2, 2 * s: 2 * s + 2] = w * block
        exact = weight.max() * np.linalg.norm(block, 2)
        assert abs(np.linalg.norm(dense, 2) - exact) <= 8 * EPS * exact
        power = reference_power_iteration_norm(scipy.sparse.csr_matrix(dense))
        assert abs(power - exact) <= 8 * EPS * exact


def test_decay_probe_power_iteration_work(monkeypatch):
    """The probe iterates nothing: its one norm per level with survivors
    is that of the shared 2x2 block, never of a universe-length vector."""
    shapes = []

    def recorded(x, *args, real=np.linalg.norm, **kwargs):
        shapes.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recorded)
    cf = cf_expand(Slope.golden(), 10)
    rep = stable_decay_probe(cf, 6, RenormParams(truncation=60), 0.0)
    assert shapes == [(2, 2)] * np.count_nonzero(rep.surviving)


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
        x0 = FourierVectorField.constant([1.0, math.sqrt(3)],
                                         PARAMS.truncation)
        f0 = x0.minus_constant(np.array([1.0, float(slope)]))
        orbit = renorm_orbit(f0, slope, 8, PARAMS)
        alphas = [s.alpha for s in orbit.states]
        for n in range(1, 7):
            assert alphas[n + 2] == pytest.approx(alphas[n], abs=1e-12)
        assert alphas[1] != pytest.approx(alphas[2], abs=1e-3)
