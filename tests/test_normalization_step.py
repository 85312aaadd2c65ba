import inspect
import math
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import FrozenInstanceError, replace

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
from torusrenorm import fourier_field, normalization_step
from torusrenorm.normalization_step import (
    FarSolves,
    TorusMap,
    _pull_back,
    eliminate_far_perturbation,
)

GAMMA = (1 + math.sqrt(5)) / 2
PSI = np.array([1.0, GAMMA])
SIGMA = 0.1
CONE = FarResonant((1.0, GAMMA), SIGMA)


def displacement(entries, truncation=16):
    return TorusMap(FourierVectorField(entries, truncation))


def single_far_mode_field(eps, k=(1, 1), vec=(1.0, 0.5), truncation=12):
    pert = {k: eps * np.asarray(vec, dtype=complex)}
    pert[(-k[0], -k[1])] = np.conj(pert[k])
    return FourierVectorField.constant(PSI, truncation=truncation) + (
        FourierVectorField(pert, truncation)
    )


def mixed_perturbation_field(amp, truncation=12, seed=0):
    rng = np.random.default_rng(seed)
    modes = {}
    for k in [(1, 1), (2, -1), (-3, 2), (0, 1), (4, 1)]:
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = c * math.exp(-0.9 * (abs(k[0]) + abs(k[1])))
        modes[k] = c
        modes[(-k[0], -k[1])] = np.conj(c)
    pert = FourierVectorField(modes, truncation)
    pert = pert * (amp / norm_prime_r(pert, 1.0))
    return FourierVectorField.constant(PSI, truncation=truncation) + pert


def pulled_back(x, u):
    """The engine's pullback of x by u: the fitted field (DU)^{-1} X o U
    and the _Pullback it was read from."""
    v = x.average()
    pull = _pull_back(v, x.oscillatory(), u)
    return pull.fit_w.minus_constant(-v), pull


def count_pullbacks(monkeypatch):
    """A list that gains one entry per pullback evaluation (_pull_back
    call)."""
    calls = []
    pull_back = normalization_step._pull_back

    def counting_pull_back(*args, **kwargs):
        calls.append(1)
        return pull_back(*args, **kwargs)

    monkeypatch.setattr(normalization_step, "_pull_back", counting_pull_back)
    return calls


class TestTorusMap:
    def test_zero_average_required(self):
        with pytest.raises(ValueError):
            displacement({(0, 0): [0.1, 0.1]})

    def test_identity(self):
        u = TorusMap.identity()
        assert len(u.displacement) == 0
        assert u.du_sup_bound() == 0


class TestComposePullback:
    def test_identity_map_is_exact(self):
        x = mixed_perturbation_field(1e-2)
        field, pull = pulled_back(x, TorusMap.identity(truncation=x.truncation))
        diff = field - x
        assert norm_r(diff, 0.9) < 1e-12
        assert pull.fit.alias_residual < 1e-14
        assert pull.min_det == 1.0

    def test_constant_field_small_u(self):
        eps = 1e-5
        u = displacement({(2, 1): [eps, -eps], (-2, -1): [eps, -eps]})
        x = FourierVectorField.constant(PSI, truncation=16)
        field, _ = pulled_back(x, u)
        # average moves only at second order in u (constant ~ (2 pi ||k||)^2 ||psi||)
        assert np.linalg.norm(field.average() - PSI) < 2e3 * eps * eps
        # oscillatory part is -(Du)psi + O(u^2)
        osc = field.oscillatory()
        expected = {}
        for k, c in u.displacement.modes.items():
            expected[k] = -(2j * np.pi) * (k[0] * PSI[0] + k[1] * PSI[1]) * c
        for k, c in expected.items():
            assert np.allclose(osc.modes.get(k, 0), c, atol=1e-3 * eps)

    def test_linearisation_finite_difference(self):
        x = FourierVectorField.constant(PSI, truncation=12)
        v = {(1, 2): np.array([0.3, -0.2]), (-1, -2): np.array([0.3, -0.2])}
        h = 1e-7
        up = displacement(
            {k: h * c for k, c in v.items()}, truncation=12
        )
        field, _ = pulled_back(x, up)
        deriv = (field - x) * (1.0 / h)
        for k, c in v.items():
            expected = -(2j * np.pi) * (k[0] * PSI[0] + k[1] * PSI[1]) * c
            assert np.allclose(deriv.modes.get(k, 0), expected, atol=1e-5)

    def test_singular_jacobian(self):
        u = displacement({(1, 1): [0.4, 0.4], (-1, -1): [0.4, 0.4]})
        x = FourierVectorField.constant(PSI, truncation=16)
        with pytest.raises(SingularJacobian):
            pulled_back(x, u)

    def test_vanishing_jacobian_determinant(self):
        # u1 = sin(2 pi theta1) / (2 pi): det DU = 1 + cos(2 pi theta1) >= 0
        # vanishes at theta1 = 1/2, a point of the even collocation grid
        c = 1.0 / (4.0 * math.pi * 1j)
        u = displacement({(1, 0): [c, 0], (-1, 0): [-c, 0]})
        x = FourierVectorField.constant(PSI, truncation=16)
        with pytest.raises(SingularJacobian, match=r"min \|det DU\| = "):
            pulled_back(x, u)


class TestEliminateFar:
    def test_no_perturbation(self):
        x = FourierVectorField.constant(PSI, truncation=12)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        assert len(result.map.displacement) == 0
        assert result.sweeps == 0
        assert np.allclose(result.field.average(), PSI)

    def test_resonant_only_input_identity(self):
        # U = id mode-exactly when the far projection is already zero
        modes = {(-3, 2): np.array([1e-3, 1e-3]), (3, -2): np.array([1e-3, 1e-3])}
        x = FourierVectorField.constant(PSI, truncation=12) + (
            FourierVectorField(modes, 12)
        )
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        assert len(result.map.displacement) == 0
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
        xp = FourierVectorField.constant(PSI, 12) + f * eps
        xm = FourierVectorField.constant(PSI, 12) + f * (-eps)
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
        # the last allowed sweep moves without stalling: it still makes
        # one floor test before the solve gives up
        calls = count_pullbacks(monkeypatch)
        monkeypatch.setattr(normalization_step, "MAX_SWEEPS", 1)
        x = mixed_perturbation_field(3e-2)
        with pytest.raises(NoConvergence):
            eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                       tol=1e-13)
        # the initial state, one trial step and one floor probe
        assert len(calls) == 3

    def test_a_sweep_that_cannot_move_ends_the_solve(self, monkeypatch):
        # at amplitude 100 no trial step of the first sweep lowers the far
        # residual and the floor test fails: every later sweep would repeat
        # that sweep bit for bit, 122 pullbacks in all over MAX_SWEEPS
        calls = count_pullbacks(monkeypatch)
        x = mixed_perturbation_field(100.0)
        with pytest.raises(NoConvergence, match="after 1 sweeps"):
            eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        # the initial state, 9 trial steps and one floor probe
        assert len(calls) == 11

    def test_a_nan_trial_is_rejected_and_a_shorter_step_taken(self, monkeypatch):
        # the first trial step of the first sweep has a NaN far residual;
        # the half step that follows lowers the residual and is accepted
        pull_back = normalization_step._pull_back
        calls = []

        def first_trial_nan(*args, **kwargs):
            pull = pull_back(*args, **kwargs)
            calls.append(1)
            if len(calls) == 2:
                pull = replace(pull, fit_w=pull.fit_w * math.nan)
            return pull

        monkeypatch.setattr(normalization_step, "_pull_back", first_trial_nan)
        x = mixed_perturbation_field(1e-3)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                            tol=1e-12)
        assert result.residuals[1] < result.residuals[0]
        assert norm_r(project(result.field, CONE, "outside"), 0.9) <= 1e-12

    def test_a_singular_trial_is_a_rejected_step(self, monkeypatch):
        # all 9 trial steps of the first sweep meet a singular DU: the sweep
        # cannot move, and the solve ends in NoConvergence, not the error
        pull_back = normalization_step._pull_back
        calls = []

        def singular_trials(*args, **kwargs):
            calls.append(1)
            if 2 <= len(calls) <= 10:
                raise SingularJacobian("det DU changes sign")
            return pull_back(*args, **kwargs)

        monkeypatch.setattr(normalization_step, "_pull_back", singular_trials)
        x = mixed_perturbation_field(1e-3)
        with pytest.raises(NoConvergence, match="after 1 sweeps"):
            eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
        # the initial state, 9 trial steps and one floor probe
        assert len(calls) == 11

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
    return FourierVectorField.from_array(coeffs, g.truncation)


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
                     "contraction_rhs", "du_sup_bound"):
            assert getattr(reused, name) == getattr(fresh, name), name
        # results share the stored solve's parts, which no caller can change
        with pytest.raises(FrozenInstanceError):
            reused.sweeps = 0
        with pytest.raises(FrozenInstanceError):
            reused.fit.floor = 0.0
        assert isinstance(reused.residuals, tuple)

    def test_key_compares_bytes_not_values(self):
        g = mixed_perturbation_field(1e-3).minus_constant(PSI)
        coeffs = g.coeffs.copy()
        pos = g.support()[0]
        coeffs[0, pos] = complex(np.nextafter(coeffs[0, pos].real, np.inf),
                                 coeffs[0, pos].imag)
        nudged = FourierVectorField.from_array(coeffs, g.truncation)
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
        x = FourierVectorField.constant(PSI, truncation=12)
        result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                            solves=solves)
        assert len(result.map.displacement) == 0 and not result.reused
        assert solves.counts() == {"computed": 0, "reused": 0}


def direct_fill_phases(phases, term, runs, k1, k2, p1, p2):
    """Reference: every phase row of the block computed from its own
    exponent, by the whole-block expression with the float modes."""
    phases[:] = np.exp((2.0 * math.pi * 1j)
                       * (k1.real[:, None] * p1 + k2.real[:, None] * p2))


def computed_rows(runs):
    return sum(stop - start for start, stop, source in runs if source is None)


def support_field(m, unpaired=0, seed=0, truncation=16):
    """m nonzero modes: pairs +-k, one unpaired k if m is odd, and
    `unpaired` pairs with the -k partner replaced by an unpaired k."""
    rng = np.random.default_rng(seed)
    n = len(FourierVectorField.zero(truncation).index)
    lower = rng.permutation(n // 2)
    pairs, extra = lower[: m // 2], lower[m // 2 : m // 2 + m % 2 + unpaired]
    coeffs = np.zeros((2, n), dtype=complex)
    coeffs[:, pairs] = rng.normal(size=(2, len(pairs))) + 1j * rng.normal(
        size=(2, len(pairs)))
    coeffs[:, n - 1 - pairs] = np.conj(coeffs[:, pairs])
    coeffs[:, extra] = 0.3 - 0.7j
    coeffs[:, n - 1 - pairs[:unpaired]] = 0.0
    x = FourierVectorField.from_array(coeffs, truncation)
    assert len(x) == m
    return x


def displacement_grid(imag_size, grid=24, seed=1):
    rng = np.random.default_rng(seed)
    shape = (2, grid, grid)
    if imag_size is None:
        return np.zeros(shape, dtype=complex)
    return 1e-7 * rng.normal(size=shape) + 1j * imag_size * rng.normal(size=shape)


class TestMirrorPhases:
    """_pullback_core fills the phase rows one block of grid columns at a
    time, computes one exponential per +-k pair, and returns the bytes of
    the direct loop, signed zeros included, whatever the block width."""

    def both(self, monkeypatch, h, u_grid, with_derivative):
        """The runs of the blocked fill, after checking that it returns the
        bytes of the direct fill."""
        runs = []
        real_fill = normalization_step._fill_phases

        def recorded(phases, term, block_runs, *args):
            runs.append(block_runs)
            return real_fill(phases, term, block_runs, *args)

        v = PSI.astype(complex)
        args = (v, h, u_grid, u_grid.shape[-1], with_derivative)
        monkeypatch.setattr(normalization_step, "_fill_phases", recorded)
        new = normalization_step._pullback_core(*args)
        monkeypatch.setattr(normalization_step, "_fill_phases",
                            direct_fill_phases)
        old = normalization_step._pullback_core(*args)
        monkeypatch.undo()
        assert_same_bytes(new, old)
        return runs[0]

    @pytest.mark.parametrize("m", [1, 47, 48, 49, 80, 150])
    @pytest.mark.parametrize("imag_size", [None, 1e-23])
    @pytest.mark.parametrize("with_derivative", [False, True])
    def test_pairs_share_one_exponential(self, monkeypatch, m, imag_size,
                                         with_derivative):
        h = support_field(m)
        runs = self.both(monkeypatch, h, displacement_grid(imag_size),
                         with_derivative)
        # every pair, not only the 48 nearest the zero mode: 75 rows of 150
        assert computed_rows(runs) == (m + 1) // 2

    @pytest.mark.parametrize("with_derivative", [False, True])
    def test_unpaired_modes(self, monkeypatch, with_derivative):
        h = support_field(80, unpaired=5)
        runs = self.both(monkeypatch, h, displacement_grid(1e-23),
                         with_derivative)
        assert computed_rows(runs) == 80 - 35

    @pytest.mark.parametrize("with_derivative", [False, True])
    def test_imaginary_displacement_takes_the_direct_path(
            self, monkeypatch, with_derivative):
        # 2 pi T (max|Im u1| + max|Im u2|) ~ 1e-9, far above 2^-55: the
        # conjugate would differ from the direct grid in the last bits
        h = support_field(80)
        runs = self.both(monkeypatch, h, displacement_grid(1e-12),
                         with_derivative)
        assert runs == [(0, 80, None)]

    @pytest.mark.parametrize("m", [49, 150])
    @pytest.mark.parametrize("with_derivative", [False, True])
    def test_odd_grid(self, monkeypatch, m, with_derivative):
        # 25^2 = 625 = 1 mod 4 columns; at 150 modes, nine blocks of 64 and
        # one of 49
        runs = self.both(monkeypatch, support_field(m),
                         displacement_grid(1e-23, grid=25), with_derivative)
        assert computed_rows(runs) == (m + 1) // 2

    @pytest.mark.parametrize("grid", [24, 25])
    @pytest.mark.parametrize("m", [47, 80, 150])
    @pytest.mark.parametrize("with_derivative", [False, True])
    def test_block_width_keeps_the_bytes(self, monkeypatch, grid, m,
                                         with_derivative):
        # blocks of 64 and 128 columns set by BLOCK_BYTES, and of 64 and
        # 256 set by MIN_BLOCKS, leave a shorter last block on 25^2
        # columns, and 128 and 256 on 24^2; one block of all columns is the
        # product over the whole grid, as before the blocks
        h = support_field(m, unpaired=3)
        args = (PSI.astype(complex), h, displacement_grid(1e-23, grid=grid),
                grid, with_derivative)
        widths, outputs = [], []
        for block_bytes, min_blocks in ((16 * m * 64, 1), (16 * m * 128, 1),
                                        (2 ** 40, 8), (2 ** 40, 2)):
            monkeypatch.setattr(normalization_step, "BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(normalization_step, "MIN_BLOCKS", min_blocks)
            widths.append(normalization_step._column_width(m, grid * grid))
            outputs.append(normalization_step._pullback_core(*args))
        assert widths == [64, 128, 64, 256]
        monkeypatch.setattr(normalization_step, "_column_width",
                            lambda rows, points: points)
        whole = normalization_step._pullback_core(*args)
        for output in outputs:
            assert_same_bytes(output, whole)


def assert_same_bytes(new, old):
    for a, b in zip(new, old, strict=True):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


def test_column_width_is_a_multiple_of_64_but_in_the_last_block():
    for rows in (1, 2, 10, 32, 42, 80, 150, 600, 10_000):
        for points in (9, 625, 17_424, 18_225, 69_696):
            width = normalization_step._column_width(rows, points)
            assert width == points or (width % 64 == 0 and 0 < width < points)
            assert 16 * rows * width <= max(normalization_step.BLOCK_BYTES,
                                            16 * rows * 64)
            # MIN_BLOCKS blocks or more wherever blocks of 64 columns allow
            assert width <= max(64, points // normalization_step.MIN_BLOCKS)


def test_pullback_peak_memory_is_a_few_blocks():
    # one T = 32 call on 80 modes: the phase rows of all columns, 48 at a
    # time plus 48 held partners, peaked near 27 MB; the blocked rows and
    # the grids of the result stay under 12 MB
    from scipy.fft import next_fast_len

    h = support_field(80, truncation=32)
    grid = next_fast_len(4 * 32 + 1)
    u_grid = displacement_grid(1e-23, grid=grid)
    args = (PSI.astype(complex), h, u_grid, grid, True)
    normalization_step._pullback_core(*args)
    tracemalloc.start()
    try:
        normalization_step._pullback_core(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_pullback_core_keeps_the_parameters_tracers_read():
    # the benchmark's pullback hook binds the call's arguments by name
    parameters = inspect.signature(normalization_step._pullback_core).parameters
    assert {"h", "grid"} <= set(parameters)


MULTI_CORE = len(os.sched_getaffinity(0)) > 1


def on_threads(threads, name, fn):
    """fn, recording in threads[name] the ident of each thread calling it."""

    def recorded(*args, **kwargs):
        threads.setdefault(name, set()).add(threading.get_ident())
        return fn(*args, **kwargs)

    return recorded


def test_only_the_phase_blocks_leave_the_calling_thread(monkeypatch):
    # the benchmark's tracer wraps the field code and the fits, and its span
    # stack is not thread-safe; the worker only fills and contracts blocks
    threads = {}
    for name in ("fit_grid", "project", "norm_r"):
        recorded = on_threads(threads, name, getattr(fourier_field, name))
        monkeypatch.setattr(fourier_field, name, recorded)
        monkeypatch.setattr(normalization_step, name, recorded)
    monkeypatch.setattr(FourierVectorField, "__init__", on_threads(
        threads, "__init__", FourierVectorField.__init__))
    monkeypatch.setattr(normalization_step, "_fill_phases", on_threads(
        threads, "_fill_phases", normalization_step._fill_phases))
    x = mixed_perturbation_field(1e-3, truncation=32)
    eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA)
    caller = {threading.get_ident()}
    for name in ("fit_grid", "project", "norm_r", "__init__"):
        assert threads[name] == caller, name
    # 10 modes on 132^2 grid columns, in 8 blocks of 2,176 and one of 16:
    # the worker took some
    assert (threads["_fill_phases"] > caller) == MULTI_CORE


@pytest.mark.skipif(not MULTI_CORE, reason="one core: no worker is started")
def test_the_worker_is_joined_before_the_pullback_returns(monkeypatch):
    h = support_field(150)
    grid = 64
    args = (PSI.astype(complex), h, displacement_grid(1e-23, grid=grid),
            grid, True)
    baseline = threading.active_count()
    normalization_step._pullback_core(*args)
    assert threading.active_count() == baseline

    # u1 = 0.3 sin(2 pi theta1): det DU = 1 + 0.6 pi cos(2 pi theta1)
    # changes sign.  The determinant is formed while the worker sleeps in
    # its first block; the error waits for the worker
    filling = threading.Event()
    fill = normalization_step._fill_phases
    inverse = normalization_step._inverse_jacobian
    filled = []

    def slow_fill(*fill_args):
        filled.append(threading.get_ident())
        filling.set()
        time.sleep(0.05)
        return fill(*fill_args)

    def inverse_while_filling(*inverse_args):
        assert filling.wait(10)
        return inverse(*inverse_args)

    monkeypatch.setattr(normalization_step, "_fill_phases", slow_fill)
    monkeypatch.setattr(normalization_step, "_inverse_jacobian",
                        inverse_while_filling)
    u_grid = np.zeros((2, grid, grid), dtype=complex)
    u_grid[0] = 0.3 * np.sin(2.0 * math.pi * np.arange(grid) / grid)[:, None]
    with pytest.raises(SingularJacobian, match="changes sign"):
        normalization_step._pullback_core(*args[:2], u_grid, grid, True)
    assert threading.active_count() == baseline
    # 11 blocks of at most 384 columns; the worker took none after the
    # error
    assert len(filled) == 1 and filled[0] != threading.get_ident()


@pytest.mark.skipif(not MULTI_CORE, reason="one core: no worker is started")
@pytest.mark.parametrize("m", [2, 10, 32, 80])
def test_the_worker_fills_blocks_at_small_supports(monkeypatch, m):
    # at least MIN_BLOCKS blocks on 132^2 columns, whatever the support:
    # the calling thread forms (DU)^{-1} only once the worker fills a block
    caller = threading.get_ident()
    fill = normalization_step._fill_phases
    inverse = normalization_step._inverse_jacobian
    worker_fills = threading.Event()

    def recorded_fill(*fill_args):
        if threading.get_ident() != caller:
            worker_fills.set()
        return fill(*fill_args)

    def inverse_once_the_worker_fills(*inverse_args):
        assert worker_fills.wait(10)
        return inverse(*inverse_args)

    monkeypatch.setattr(normalization_step, "_fill_phases", recorded_fill)
    monkeypatch.setattr(normalization_step, "_inverse_jacobian",
                        inverse_once_the_worker_fills)
    grid = 132
    normalization_step._pullback_core(
        PSI.astype(complex), support_field(m),
        displacement_grid(1e-23, grid=grid), grid, True)
    assert worker_fills.is_set()


@pytest.mark.skipif(not MULTI_CORE, reason="one core: no worker is started")
def test_an_error_in_the_worker_is_raised_after_the_join(monkeypatch):
    # the worker's first block raises; the calling thread waits until it
    # has, fills the remaining blocks, joins the worker and re-raises
    class BlockFailure(Exception):
        pass

    caller = threading.get_ident()
    fill = normalization_step._fill_phases
    failed = threading.Event()

    def fail_off_the_caller(*fill_args):
        if threading.get_ident() != caller:
            failed.set()
            raise BlockFailure("worker block")
        assert failed.wait(10)
        return fill(*fill_args)

    monkeypatch.setattr(normalization_step, "_fill_phases", fail_off_the_caller)
    grid = 64
    baseline = threading.active_count()
    with pytest.raises(BlockFailure, match="worker block"):
        normalization_step._pullback_core(
            PSI.astype(complex), support_field(150),
            displacement_grid(1e-23, grid=grid), grid, True)
    assert threading.active_count() == baseline


def test_concurrent_pullbacks_keep_their_bytes():
    # each call owns its buffers: two calls at once on different inputs,
    # each with its worker (10 blocks of 625 columns), give the bytes of
    # serial calls; a short switch interval interleaves the four threads
    grid = 25
    inputs = [(PSI.astype(complex), support_field(80, seed=seed),
               displacement_grid(1e-23, grid=grid, seed=seed), grid, True)
              for seed in (1, 2)]
    serial = [normalization_step._pullback_core(*args) for args in inputs]
    barrier = threading.Barrier(len(inputs))
    outputs = [[] for _ in inputs]

    def call(args, out):
        barrier.wait(timeout=30)
        out.extend(normalization_step._pullback_core(*args) for _ in range(20))

    callers = [threading.Thread(target=call, args=pair)
               for pair in zip(inputs, outputs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for expected, got in zip(serial, outputs, strict=True):
        assert len(got) == 20
        for output in got:
            assert_same_bytes(output, expected)
