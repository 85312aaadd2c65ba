import json
import math

import numpy as np
import pytest

from torusrenorm.fourier_field import (
    FarResonant,
    FourierVectorField,
    Kappa,
    ModeIndex,
    fft2,
    field_from_dict,
    field_to_dict,
    fit_grid,
    ifft2,
    load_field,
    next_fast_len,
    norm_prime_r,
    norm_r,
    project,
    save_field,
)

GAMMA = (1 + math.sqrt(5)) / 2
OMEGA = np.array([1.0, GAMMA])


def random_field(rng, truncation=12, n_modes=8, real=True):
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
    return FourierVectorField(modes, truncation)


class TestNorms:
    def test_constant_field(self):
        x = FourierVectorField.constant(OMEGA, 32)
        assert norm_r(x, 1.0) == pytest.approx(1 + GAMMA)
        assert norm_prime_r(x, 1.0) == pytest.approx(1 + GAMMA)

    def test_single_mode(self):
        eps = 1e-3
        x = FourierVectorField({(1, 0): [eps, 0]}, 8)
        assert norm_r(x, 1.0) == pytest.approx(eps * math.e)

    def test_additivity_over_disjoint_modes(self):
        x = FourierVectorField(
            {(0, 0): OMEGA, (1, 0): [1e-3, 0]}, 8
        )
        assert norm_r(x, 1.0) == pytest.approx(1 + GAMMA + 1e-3 * math.e)

    def test_prime_weight(self):
        eps = 2e-2
        x = FourierVectorField({(1, -1): [0, eps]}, 8)
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
        x = FourierVectorField.constant(OMEGA, 32)
        assert np.allclose(x.average(), OMEGA)

    def test_zero_average_perturbation(self):
        x = FourierVectorField({(2, 1): [1e-2, 0], (-2, -1): [1e-2, 0]}, 8)
        assert np.allclose(x.average(), 0)

    def test_constant_plus_mode(self):
        x = FourierVectorField.constant(OMEGA, truncation=8).__add__(
            FourierVectorField({(1, 0): [0, 1e-3]}, 8)
        )
        assert np.allclose(x.average(), OMEGA)


class TestTruncation:
    def test_mixed_truncations_do_not_combine(self):
        x = FourierVectorField.constant(OMEGA, truncation=8)
        y = FourierVectorField({(1, 0): [0, 1e-3]}, 12)
        with pytest.raises(ValueError, match="truncations 8 and 12 differ"):
            x + y
        with pytest.raises(ValueError, match="truncations 12 and 8 differ"):
            y - x

    @pytest.mark.parametrize("truncation", [0.9, 8.0, -1, "8"])
    def test_truncation_must_be_a_non_negative_integer(self, truncation):
        # a width passed as the truncation, constant(v, 0.9), is refused,
        # not floored to truncation 0
        with pytest.raises(ValueError, match="truncation must be"):
            FourierVectorField.constant(OMEGA, truncation)
        with pytest.raises(ValueError, match="truncation must be"):
            FourierVectorField.from_array(np.zeros((2, 145), dtype=complex),
                                          truncation)


@pytest.mark.parametrize("truncation", [*range(41), 120])
def test_mode_index_arrays_match_the_per_mode_comprehension(truncation):
    t = truncation
    k = np.array(
        [(k1, k2) for k1 in range(-t, t + 1)
         for k2 in range(abs(k1) - t, t - abs(k1) + 1)],
        dtype=np.int64,
    )
    index = ModeIndex(t)
    assert index.k.dtype == k.dtype and index.k.flags.c_contiguous
    assert index.k.tobytes() == k.tobytes()
    assert index.l1.tobytes() == np.abs(k).sum(axis=1).tobytes()
    assert index.positions(k).tobytes() == np.arange(len(k)).tobytes()


class TestGrid:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        x = random_field(rng, truncation=6) + FourierVectorField.constant(
            OMEGA, truncation=6
        )
        values = x.sample_grid(32)
        fit, report = fit_grid(values, 6)
        assert set(fit.modes) == set(x.modes)
        for k in x.modes:
            assert np.allclose(fit.modes[k], x.modes[k], atol=1e-13)
        assert report.alias_residual < 1e-13

    def test_fit_floor_drops_noise(self):
        values = np.zeros((2, 16, 16), dtype=complex)
        values[0] += 1.0
        values[1] += 1e-17 * np.random.default_rng(0).normal(size=(16, 16))
        fit, report = fit_grid(values, 6)
        assert set(fit.modes) == {(0, 0)}


def signed_sparse(rng, size):
    """Normal samples with half the entries zeros of either sign."""
    zeros = np.copysign(0.0, rng.normal(size=size))
    return np.where(rng.random(size) < 0.5, zeros, rng.normal(size=size))


@pytest.mark.parametrize("lead, axes", [((2,), (1, 2)), ((2, 2), (2, 3))])
def test_grid_transforms_equal_scipy_fft_bit_for_bit(lead, axes):
    # every grid next_fast_len(2 (T_h + T_u) + 1) of truncations up to 64,
    # in the layouts of the field grids and of the Jacobian grids
    import scipy.fft

    rng = np.random.default_rng(11)
    grids = sorted({next_fast_len(2 * (a + b) + 1)
                    for a in range(1, 65) for b in range(1, 65)})
    for grid in grids:
        size = (*lead, grid, grid)
        # -i at the origin and -0 - 0i elsewhere: the first inverse pass
        # gives -0 - i, whose real part a complex scaling would make +0
        delta = np.full(size, complex(-0.0, -0.0))
        delta[..., 0, 0] = complex(-0.0, -1.0)
        noisy = signed_sparse(rng, size) + 1j * signed_sparse(rng, size)
        for x in (delta, noisy):
            for ours, theirs in ((fft2, scipy.fft.fft2),
                                 (ifft2, scipy.fft.ifft2)):
                assert np.array_equal(
                    ours(x, axes).view(np.int64),
                    theirs(x, axes=axes).view(np.int64)), (grid, ours)


def test_sample_grid_scales_in_place_to_the_bits_of_the_product():
    # values *= G twice, as ifft2(spectrum) * G * G, on every grid of the
    # pullback and on signed zeros
    rng = np.random.default_rng(12)
    grids = sorted({next_fast_len(2 * (a + b) + 1)
                    for a in range(1, 65) for b in range(1, 65)})
    for grid in grids:
        truncation = min(12, (grid - 1) // 2)
        n = len(FourierVectorField.zero(truncation).index)
        coeffs = signed_sparse(rng, (2, n)) + 1j * signed_sparse(rng, (2, n))
        x = FourierVectorField.from_array(coeffs, truncation)
        spec = np.zeros((2, grid, grid), dtype=complex)
        k = x.index.k
        np.add.at(spec, (slice(None), k[:, 0] % grid, k[:, 1] % grid), coeffs)
        expected = ifft2(spec, axes=(1, 2)) * grid * grid
        assert x.sample_grid(grid).tobytes() == expected.tobytes(), grid


def test_next_fast_len_equals_scipy():
    import scipy.fft

    assert [next_fast_len(n) for n in range(1, 20001)] == [
        scipy.fft.next_fast_len(n) for n in range(1, 20001)]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        x = random_field(rng) + FourierVectorField.constant(OMEGA, truncation=12)
        path = tmp_path / "field.json"
        save_field(x, path)
        y = load_field(path)
        assert y.truncation == x.truncation
        assert set(y.modes) == set(x.modes)
        for k in x.modes:
            assert np.allclose(y.modes[k], x.modes[k])

    def test_a_saved_width_is_ignored(self, tmp_path):
        # fields saved while they carried a width load as they do without it
        x = random_field(np.random.default_rng(7)) + FourierVectorField.constant(
            OMEGA, truncation=12)
        data = field_to_dict(x)
        assert "width" not in data
        (tmp_path / "new.json").write_text(json.dumps(data))
        (tmp_path / "old.json").write_text(json.dumps({"width": 0.9, **data}))
        new, old = (load_field(tmp_path / name) for name in ("new.json", "old.json"))
        assert old.truncation == new.truncation == 12
        assert np.array_equal(old.coeffs, new.coeffs)
        assert np.array_equal(new.coeffs, x.coeffs)

    def test_dict_schema(self):
        x = FourierVectorField.constant(OMEGA, 32)
        d = field_to_dict(x)
        assert d["modes"][0]["k"] == [0, 0]
        assert "re" in d["modes"][0] and "im" in d["modes"][0]
        assert field_from_dict(d).modes.keys() == x.modes.keys()

