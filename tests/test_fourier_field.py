import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torusrenorm
from torusrenorm.fourier_field import (
    FarResonant,
    FourierVectorField,
    Kappa,
    field_from_dict,
    field_to_dict,
    fit_grid,
    load_field,
    norm_prime_r,
    norm_r,
    project,
    save_field,
    winding_ratio,
)

GAMMA = (1 + math.sqrt(5)) / 2
OMEGA = np.array([1.0, GAMMA])


def random_field(rng, truncation=12, n_modes=8, width=1.0, real=True):
    modes = {}
    while len(modes) < 2 * n_modes:
        k = (int(rng.integers(-truncation, truncation + 1)), 0)
        k = (k[0], int(rng.integers(-truncation + abs(k[0]), truncation - abs(k[0]) + 1)))
        if k == (0, 0):
            continue
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = c * math.exp(-1.2 * (abs(k[0]) + abs(k[1])))
        modes[k] = c
        if real:
            modes[(-k[0], -k[1])] = np.conj(c)
    return FourierVectorField(modes, width, truncation)


class TestNorms:
    def test_constant_field(self):
        x = FourierVectorField.constant(OMEGA)
        assert norm_r(x, 1.0) == pytest.approx(1 + GAMMA)
        assert norm_prime_r(x, 1.0) == pytest.approx(1 + GAMMA)

    def test_single_mode(self):
        eps = 1e-3
        x = FourierVectorField({(1, 0): [eps, 0]}, 1.0, 8)
        assert norm_r(x, 1.0) == pytest.approx(eps * math.e)

    def test_additivity_over_disjoint_modes(self):
        x = FourierVectorField(
            {(0, 0): OMEGA, (1, 0): [1e-3, 0]}, 1.0, 8
        )
        assert norm_r(x, 1.0) == pytest.approx(1 + GAMMA + 1e-3 * math.e)

    def test_prime_weight(self):
        eps = 2e-2
        x = FourierVectorField({(1, -1): [0, eps]}, 1.0, 8)
        assert norm_prime_r(x, 0.5) == pytest.approx(eps * (1 + 4 * math.pi) * math.e)

    def test_prime_dominates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = random_field(rng)
            r = float(rng.uniform(0.2, 1.5))
            assert norm_prime_r(x, r) >= norm_r(x, r)

    def test_monotone_in_r(self):
        rng = np.random.default_rng(1)
        x = random_field(rng)
        assert norm_r(x, 0.5) <= norm_r(x, 0.9) <= norm_r(x, 1.3)


class TestProjection:
    def cone(self, sigma=0.25):
        return FarResonant((1.0, GAMMA), sigma)

    def test_resonant_example(self):
        # |psi . (-3, 2)| = |2 gamma - 3| ~ 0.236 <= 0.25 * 5
        assert self.cone().contains((-3, 2))

    def test_far_example(self):
        # |psi . (1, 1)| = 1 + gamma > 0.25 * 2
        assert not self.cone().contains((1, 1))

    def test_zero_mode_resonant(self):
        assert self.cone(1e-9).contains((0, 0))

    def test_complement_partition(self):
        rng = np.random.default_rng(2)
        x = random_field(rng)
        inside = project(x, self.cone(), "inside")
        outside = project(x, self.cone(), "outside")
        back = inside + outside
        assert set(back.modes) == set(x.modes)
        for k in x.modes:
            assert np.allclose(back.modes[k], x.modes[k])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = random_field(rng)
        once = project(x, self.cone(), "outside")
        twice = project(once, self.cone(), "outside")
        assert set(once.modes) == set(twice.modes)

    def test_norm_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = random_field(rng)
            y = project(x, self.cone(), "inside")
            assert norm_r(y, 1.0) <= norm_r(x, 1.0) + 1e-15

    def test_kappa_cone(self):
        cone = Kappa(1, 0.8)
        # T_1* (-3, 2) = (2, -1): 3 <= 0.8 * 5
        assert cone.contains((-3, 2))
        # T_1* (1, 1) = (1, 2): 3 > 0.8 * 2
        assert not cone.contains((1, 1))

    def test_cone_validation(self):
        with pytest.raises(ValueError):
            FarResonant((1.0, GAMMA), 5.0)  # sigma >= ||psi||
        with pytest.raises(ValueError):
            Kappa(1, 0.3)


class TestAverage:
    def test_constant(self):
        x = FourierVectorField.constant(OMEGA)
        assert np.allclose(x.average(), OMEGA)

    def test_zero_average_perturbation(self):
        x = FourierVectorField({(2, 1): [1e-2, 0], (-2, -1): [1e-2, 0]}, 1.0, 8)
        assert np.allclose(x.average(), 0)

    def test_constant_plus_mode(self):
        x = FourierVectorField.constant(OMEGA, truncation=8).__add__(
            FourierVectorField({(1, 0): [0, 1e-3]}, 1.0, 8)
        )
        assert np.allclose(x.average(), OMEGA)


class TestGrid:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        x = random_field(rng, truncation=6) + FourierVectorField.constant(
            OMEGA, truncation=6
        )
        values = x.sample_grid(32)
        fit, report = fit_grid(values, x.width, 6)
        assert set(fit.modes) == set(x.modes)
        for k in x.modes:
            assert np.allclose(fit.modes[k], x.modes[k], atol=1e-13)
        assert report.alias_residual < 1e-13

    def test_fit_floor_drops_noise(self):
        values = np.zeros((2, 16, 16), dtype=complex)
        values[0] += 1.0
        values[1] += 1e-17 * np.random.default_rng(0).normal(size=(16, 16))
        fit, report = fit_grid(values, 1.0, 6)
        assert set(fit.modes) == {(0, 0)}


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        x = random_field(rng) + FourierVectorField.constant(OMEGA, truncation=12)
        path = tmp_path / "field.json"
        save_field(x, path)
        y = load_field(path)
        assert y.width == x.width and y.truncation == x.truncation
        assert set(y.modes) == set(x.modes)
        for k in x.modes:
            assert np.allclose(y.modes[k], x.modes[k])

    def test_dict_schema(self):
        x = FourierVectorField.constant(OMEGA)
        d = field_to_dict(x)
        assert d["modes"][0]["k"] == [0, 0]
        assert "re" in d["modes"][0] and "im" in d["modes"][0]
        assert field_from_dict(d).modes.keys() == x.modes.keys()


class TestWindingRatio:
    def test_constant_exact(self):
        x = FourierVectorField.constant(OMEGA)
        report = winding_ratio(x)
        assert report.status == "ok"
        assert np.allclose(report.direction, OMEGA / (1 + GAMMA))
        assert report.slope == pytest.approx(GAMMA)

    def test_small_resonant_perturbation_keeps_slope(self):
        eps = 1e-4
        pert = {(-3, 2): np.array([eps, eps]), (3, -2): np.array([eps, eps])}
        x = FourierVectorField.constant(OMEGA, truncation=8) + FourierVectorField(
            pert, 1.0, 8
        )
        report = winding_ratio(x, tol=1e-4)
        assert report.status == "ok"
        assert report.slope == pytest.approx(GAMMA, abs=2e-3)

    def test_large_constant_shift_changes_slope(self):
        omega_shift = OMEGA + 0.3 * np.array([1.0, -1.0 / GAMMA])
        x = FourierVectorField.constant(omega_shift, truncation=8) + (
            FourierVectorField({(1, 1): [1e-5, 1e-5], (-1, -1): [1e-5, 1e-5]}, 1.0, 8)
        )
        report = winding_ratio(x, tol=1e-4)
        assert report.status == "ok"
        assert abs(report.slope - GAMMA) > 0.05

    def test_rejects_complex_field(self):
        x = FourierVectorField({(1, 0): [1j, 0]}, 1.0, 4)
        with pytest.raises(ValueError):
            winding_ratio(x)

    def test_inconclusive_when_threshold_unreachable(self):
        x = FourierVectorField.constant([1e-9, 1e-9], truncation=4) + (
            FourierVectorField(
                {(1, 0): [1e-3, 0], (-1, 0): [1e-3, 0]}, 1.0, 4
            )
        )
        report = winding_ratio(x, horizon=50.0)
        assert report.status in ("bounded", "inconclusive")
        assert report.direction is None


def test_import_leaves_scipy_integrate_unloaded():
    # only winding_ratio integrates flows; the package import should not pay for it
    env = dict(os.environ)
    src = str(Path(torusrenorm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, torusrenorm; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
