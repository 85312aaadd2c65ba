"""Property tests of the field layer.

Fields are drawn from a numpy generator seeded by hypothesis, with
coefficients spread over many decades so that every operation rounds.
The per-mode loops below are the reference the vectorised operations
must reproduce: exactly where the arithmetic is the same (transport,
projection, matrix application, serialisation), and to a tolerance set
from float64 where only the summation order differs (the norms).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusrenorm.fourier_field import (
    FarResonant,
    FourierVectorField,
    Kappa,
    field_from_dict,
    field_to_dict,
    fit_grid,
    mode_index,
    mode_l1,
    norm_prime_r,
    norm_r,
    project,
)
from torusrenorm.normalization_step import TorusMap
from torusrenorm.number_theory import GL2Z, D, S, V, t_matrix
from torusrenorm.renorm_driver import basis_change
from torusrenorm.scaling_step import scale_step

PROPERTY = settings(max_examples=40, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
TRUNCATIONS = st.integers(2, 14)
# a sum of a few hundred positive terms, in any order, is this close
NORM_RTOL = 1e-13


def random_modes(rng, truncation, n_modes, accept=lambda k: True):
    """Up to n_modes coefficients on modes with ||k||_1 <= truncation."""
    modes = {}
    for _ in range(n_modes):
        k1 = int(rng.integers(-truncation, truncation + 1))
        rest = truncation - abs(k1)
        k = (k1, int(rng.integers(-rest, rest + 1)))
        if not accept(k):
            continue
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        modes[k] = c * 10.0 ** rng.uniform(-12, 0, size=2)
    return modes


def random_field(seed, truncation, n_modes=40, accept=lambda k: True):
    rng = np.random.default_rng(seed)
    return FourierVectorField(random_modes(rng, truncation, n_modes, accept),
                              truncation)


def same_field(x, y):
    return (
        x.truncation == y.truncation
        and x.modes.keys() == y.modes.keys()
        and all(np.array_equal(x.modes[k], y.modes[k]) for k in x.modes)
    )


def reference_norm(x, r, prime=False):
    return sum(
        (1.0 + 2 * math.pi * mode_l1(k) if prime else 1.0)
        * float(abs(c[0]) + abs(c[1]))
        * math.exp(r * mode_l1(k))
        for k, c in x.modes.items()
    )


def cones(seed):
    rng = np.random.default_rng(seed)
    psi = (1.0, float(rng.uniform(0.2, 3.0)))
    yield FarResonant(psi, float(rng.uniform(0.01, 0.9)))
    yield Kappa(int(rng.integers(1, 5)), float(rng.uniform(0.55, 0.95)))


class TestArrayLayout:
    @PROPERTY
    @given(truncation=st.integers(0, 20))
    def test_mode_index_is_the_sorted_l1_disc(self, truncation):
        index = mode_index(truncation)
        ks = [tuple(k) for k in index.k.tolist()]
        disc = sorted((k1, k2) for k1 in range(-truncation, truncation + 1)
                      for k2 in range(-truncation, truncation + 1)
                      if abs(k1) + abs(k2) <= truncation)
        assert ks == disc
        assert ks[len(ks) // 2] == (0, 0)
        assert ks[::-1] == [(-k1, -k2) for k1, k2 in ks]
        assert list(index.positions(index.k)) == list(range(len(ks)))
        with pytest.raises(ValueError):
            index.positions([(truncation + 1, 0)])

    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS)
    def test_modes_view_agrees_with_the_array(self, seed, truncation):
        x = random_field(seed, truncation)
        index = mode_index(truncation)
        assert x.coeffs.shape == (2, len(index))
        assert not x.coeffs.flags.writeable
        nonzero = {tuple(index.k[i]) for i in range(len(index))
                   if np.any(x.coeffs[:, i] != 0)}
        assert set(x.modes) == nonzero and len(x) == len(nonzero)
        assert list(x.modes) == sorted(x.modes)
        for k, c in x.modes.items():
            assert np.array_equal(c, x.coeffs[:, index.positions([k])[0]])
        with pytest.raises(TypeError):
            x.modes[(0, 0)] = np.zeros(2)


class TestProjection:
    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS)
    def test_inside_plus_outside_is_the_field(self, seed, truncation):
        x = random_field(seed, truncation)
        for cone in cones(seed):
            inside = project(x, cone, "inside")
            outside = project(x, cone, "outside")
            assert same_field(inside + outside, x)
            assert not set(inside.modes) & set(outside.modes)

    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS)
    def test_projection_keeps_the_modes_the_cone_contains(self, seed, truncation):
        x = random_field(seed, truncation)
        for cone in cones(seed):
            inside = project(x, cone, "inside")
            assert set(inside.modes) == {k for k in x.modes if cone.contains(k)}
            for k, c in inside.modes.items():
                assert np.array_equal(c, x.modes[k])


class TestNorms:
    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS, r=st.floats(0.05, 1.5))
    def test_norms_match_the_per_mode_sums(self, seed, truncation, r):
        x = random_field(seed, truncation)
        assert math.isclose(norm_r(x, r), reference_norm(x, r),
                            rel_tol=NORM_RTOL, abs_tol=0.0)
        assert math.isclose(norm_prime_r(x, r), reference_norm(x, r, prime=True),
                            rel_tol=NORM_RTOL, abs_tol=0.0)

    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS, r=st.floats(0.05, 1.5),
           scale=st.floats(1e-6, 1e6))
    def test_norms_are_homogeneous(self, seed, truncation, r, scale):
        x = random_field(seed, truncation)
        for norm in (norm_r, norm_prime_r):
            assert math.isclose(norm(x * scale, r), scale * norm(x, r),
                                rel_tol=1e-12)
            assert math.isclose(norm(x * (-1j * scale), r), scale * norm(x, r),
                                rel_tol=1e-12)

    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS, r=st.floats(0.05, 1.5))
    def test_triangle_inequality(self, seed, truncation, r):
        x = random_field(seed, truncation)
        y = random_field(seed + 1, truncation)
        for norm in (norm_r, norm_prime_r):
            assert norm(x + y, r) <= (norm(x, r) + norm(y, r)) * (1 + 1e-12)
            assert norm(x - y, r) <= (norm(x, r) + norm(y, r)) * (1 + 1e-12)


class TestRoundTrips:
    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS)
    def test_json_round_trip_is_exact(self, seed, truncation):
        x = random_field(seed, truncation)
        back = field_from_dict(json.loads(json.dumps(field_to_dict(x))))
        assert same_field(back, x)

    @PROPERTY
    @given(seed=SEEDS, truncation=st.integers(2, 16), zero=st.booleans())
    def test_map_json_round_trip_is_exact(self, seed, truncation, zero):
        if zero:
            m = TorusMap.identity(truncation)
        else:
            m = TorusMap(random_field(seed, truncation).oscillatory())
        data = json.loads(json.dumps(m.to_dict()))
        assert data["displacement"] is True
        back = TorusMap(field_from_dict(data))
        assert back.truncation == m.truncation
        assert back.displacement.coeffs.tobytes() == (
            m.displacement.coeffs.tobytes()
        )
        assert back.du_sup_bound() == m.du_sup_bound()
        if zero:
            assert len(back.displacement) == 0

    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS)
    def test_grid_round_trip(self, seed, truncation):
        rng = np.random.default_rng(seed)
        modes = random_modes(rng, truncation, 40)
        # the fit drops coefficients below 64 eps max|values| as grid noise;
        # keep every coefficient well above that floor
        modes = {k: 1e-3 * (1.0 + np.abs(c)) * np.exp(1j * np.angle(c))
                 for k, c in modes.items()}
        x = FourierVectorField(modes, truncation)
        grid = 2 * truncation + 1 + int(rng.integers(0, 8))
        fit, report = fit_grid(x.sample_grid(grid), truncation)
        assert set(fit.modes) == set(x.modes)
        for k, c in x.modes.items():
            assert np.allclose(fit.modes[k], c, rtol=0.0, atol=1e-15)
        assert report.alias_residual < 1e-15


class TestTransportIsBitExact:
    @PROPERTY
    @given(seed=SEEDS, truncation=TRUNCATIONS, a=st.integers(1, 9))
    def test_scale_step(self, seed, truncation, a):
        kappa = 0.85
        cone = Kappa(a, kappa)
        x = random_field(seed, truncation, accept=cone.contains)
        t_inv = t_matrix(a).inverse().as_array().astype(float)
        out = scale_step(x, a, 1.0, 0.9, kappa)
        expected = {(k[1], k[0] + a * k[1]): t_inv @ c for k, c in x.modes.items()}
        assert out.modes.keys() == expected.keys()
        for k, c in expected.items():
            assert np.array_equal(out.modes[k], c)

    @PROPERTY
    @given(seed=SEEDS, truncation=st.integers(4, 14),
           word=st.lists(st.sampled_from("VSDT"), min_size=1, max_size=3))
    def test_basis_change(self, seed, truncation, word):
        m = GL2Z(1, 0, 0, 1)
        for letter in word:
            m = m @ {"V": V, "S": S, "D": D, "T": t_matrix(2)}[letter]
        mt = m.transpose()
        stretch = max(abs(mt.a) + abs(mt.c), abs(mt.b) + abs(mt.d))
        x = random_field(seed, truncation,
                         accept=lambda k: stretch * mode_l1(k) <= truncation)
        m_inv = m.inverse().as_array().astype(float)
        out = basis_change(x, m)
        expected = {tuple((mt.as_array() @ k).tolist()): m_inv @ c
                    for k, c in x.modes.items()}
        assert out.modes.keys() == expected.keys()
        for k, c in expected.items():
            assert np.array_equal(out.modes[k], c)
