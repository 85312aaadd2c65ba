import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusrenorm import cli_experiments
from torusrenorm.errors import (
    IndexOutOfRange,
    PoleAtInput,
    PrecisionExhausted,
    ZeroInput,
)
from torusrenorm.number_theory import (
    D,
    GL2Z,
    IDENTITY,
    QuadraticNumber,
    S,
    Slope,
    V,
    act_on_slope,
    cf_expand,
    convergent_matrices,
    diophantine_probe,
    gauss_step,
    t_matrix,
    t_matrix_eigen,
)

GAMMA = (1 + math.sqrt(5)) / 2


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


class TestQuadraticNumber:
    def test_golden_identity(self):
        g = QuadraticNumber.from_surd(1, 1, 5, 2)
        assert g * g == g + 1  # gamma^2 = gamma + 1

    @pytest.mark.parametrize("value", [2, -7, 0, Fraction(1, 2),
                                       Fraction(-22, 7)])
    def test_rationals_hash_as_the_numbers_they_equal(self, value):
        f = Fraction(value)
        x = QuadraticNumber.from_surd(f.numerator, 0, 0, f.denominator)
        assert x == value and hash(x) == hash(value)
        assert value in {x} and x in {value}

    def test_floor_matches_float(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.choice([2, 3, 5, 7, 13]))
            x = QuadraticNumber.from_surd(
                int(rng.integers(-50, 50)),
                int(rng.integers(-20, 20)) or 1,
                d,
                int(rng.integers(1, 9)),
            )
            assert x.floor() == math.floor(float(x) + 0.0), repr(x)

    def test_square_d_rejected(self):
        with pytest.raises(ValueError):
            QuadraticNumber.from_surd(1, 1, 9, 1)

    def test_square_part_extracted(self):
        a = QuadraticNumber.from_surd(0, 1, 8, 2)  # sqrt(8)/2 = sqrt(2)
        b = QuadraticNumber.from_surd(0, 1, 2, 1)
        assert a == b

    def test_ordering(self):
        s2 = QuadraticNumber.from_surd(0, 1, 2, 1)
        assert QuadraticNumber.from_surd(1, 0, 2, 1) < s2 < 2
        assert (-s2).sign() == -1


SQUARE_FREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 1001]
PROPERTY = settings(max_examples=150, deadline=None)


def _operand_bits(x):
    return max(abs(v).bit_length() for v in (x.p, x.q, x.r, x.d))


@functools.lru_cache(maxsize=64)
def _root(d, work):
    with mpmath.workprec(work):
        return mpmath.sqrt(d)


def reference_mpf(x, prec, work=None):
    """x rounded to prec bits from an evaluation at `work` bits, by default
    4 * (operand bits) + prec + 64; far enough for the nearest prec-bit
    value of a quadratic irrational of this height."""
    work = work or 4 * _operand_bits(x) + prec + 64
    with mpmath.workprec(work):
        value = (mpmath.mpf(x.p) + mpmath.mpf(x.q) * _root(x.d, work)) / x.r
    return mpmath.mpf(value, prec=prec)


def reference_float(x, work=None):
    """The nearest float, for a value in the normal range."""
    return float(reference_mpf(x, 53, work))


@st.composite
def surds(draw, bits=700, count=1):
    """count numbers (u + v sqrt(d)) / w of one field, some of them rational,
    with operands of up to `bits` bits."""
    d = draw(st.sampled_from(SQUARE_FREE))
    big = st.integers(-(2**bits), 2**bits)
    out = [QuadraticNumber.from_surd(draw(big), draw(big), d, draw(big.filter(bool)))
           for _ in range(count)]
    return out[0] if count == 1 else out


class TestExactKernel:
    @PROPERTY
    @given(x=surds(), prec=st.integers(2, 300))
    def test_roundings_are_correct(self, x, prec):
        assert x.to_mpf(prec) == reference_mpf(x, prec)
        assert float(x).hex() == reference_float(x).hex()

    @PROPERTY
    @given(xy=surds(bits=300, count=2))
    def test_floor_is_exact(self, xy):
        x, y = xy
        for z in (x, x * y):
            n = z.floor()
            assert n <= z < n + 1

    @PROPERTY
    @given(xyz=surds(bits=600, count=3))
    def test_field_identities_are_exact(self, xyz):
        x, y, z = xyz
        big = x * y * z  # operands of up to ~1800 bits
        for a, b in ((x, y), (big, x), (big, z)):
            if a.sign():
                assert a * a.inverse() == 1
            assert (a + b) - b == a
            if b.sign():
                assert (a * b) / b == a
        assert big.to_mpf(200) == reference_mpf(big, 200)
        assert float(big).hex() == reference_float(big).hex()

    @PROPERTY
    @given(x=surds(bits=200))
    def test_canonical_form(self, x):
        assert x.r > 0 and math.gcd(x.p, x.q, x.r) == 1
        assert (x.d == 0) == (x.q == 0)
        doubled = QuadraticNumber.from_surd(2 * x.p, 2 * x.q, x.d or 2, 2 * x.r)
        assert doubled == x and hash(doubled) == hash(x)

    def test_rational_ties_go_to_even(self):
        # 2**53 + 1 and 2**53 + 3 lie halfway between two floats
        for n in (2**53 + 1, 2**53 + 3, -(2**53) - 1):
            assert float(QuadraticNumber.from_surd(n, 0, 0, 1)) == float(n)
        assert QuadraticNumber.from_surd(5, 0, 0, 8).to_mpf(2) == 0.5
        assert QuadraticNumber.from_surd(7, 0, 0, 8).to_mpf(2) == 1.0
        assert float(QuadraticNumber(Fraction(1, 3), 0, 0)) == 1 / 3

    def test_rational_floats_match_fraction(self):
        # CPython rounds int / int correctly, subnormals included
        rng = random.Random(5)
        panel = [(355, 113), (987, 610), (-22, 7), (60672, 891898132631),
                 (1, 3 * 2**1074), (-(2**1100) + 1, 2**1100 - 3)]
        for _ in range(4000):
            p = rng.getrandbits(rng.randint(1, 1100)) * rng.choice([-1, 1])
            panel.append((p, rng.getrandbits(rng.randint(1, 1100)) or 1))
        for _ in range(1000):
            panel.append((rng.getrandbits(rng.randint(1, 60)) or 1,
                          rng.getrandbits(rng.randint(1000, 1140)) or 1))
        for p, q in panel:
            exact = Fraction(p, q)
            try:
                want = float(exact)
            except OverflowError:
                continue
            got = float(QuadraticNumber(exact, 0, 0))
            assert got.hex() == want.hex(), (p, q)

    def test_overflow_gives_infinity(self):
        huge = QuadraticNumber.from_surd(-(2**1100), 1, 2, 1)
        assert float(huge) == -math.inf
        assert float(huge.inverse()) == -0.0

    def test_misroundings_of_the_working_precision_guess(self):
        # a conversion at 64 + 2 * (operand bits) gave ...021e-65 and ...912e-112
        assert cf_expand(Slope.golden(), 400).beta_float(308) == 2.6473975508860206e-65
        slope = Slope.quadratic(2, 4, 6, 6)
        assert cf_expand(slope, 400).beta_float(223) == 1.0393246589330913e-112

    def test_golden_betas_to_all_256_bits(self):
        cf = cf_expand(Slope.golden(), 400)
        for n in (200, 399):
            beta = cf.beta(n)
            assert beta.to_mpf(256) == reference_mpf(beta, 256, work=4000)

    def test_float_views_match_a_3200_bit_reference(self):
        slopes = [Slope.golden(), Slope.sqrt2(), Slope.silver(),
                  Slope.quadratic(3, 2, 7, 5), *random_quadratic_slopes(40, seed=12)]
        for slope in slopes:
            cf = cf_expand(slope, 400)
            refs = {}
            for exact, floats in ((cf.tails, cf.tail_floats),
                                  (cf.remainders, cf.remainder_floats),
                                  (cf.betas, cf.beta_floats),
                                  (cf.a_tildes, cf.a_tilde_floats)):
                for x, got in zip(exact, floats):
                    if x not in refs:
                        refs[x] = reference_float(x, work=3200)
                    assert got == refs[x], (slope, x)

    def test_cf_expand_makes_no_fraction_and_no_workprec(self, monkeypatch):
        counts = {"Fraction": 0, "workprec": 0}
        new_fraction = Fraction.__new__
        workprec = mpmath.workprec

        def counting_fraction(cls, *args, **kwargs):
            counts["Fraction"] += 1
            return new_fraction(cls, *args, **kwargs)

        def counting_workprec(*args, **kwargs):
            counts["workprec"] += 1
            return workprec(*args, **kwargs)

        slope = Slope.golden()
        monkeypatch.setattr(Fraction, "__new__", counting_fraction)
        monkeypatch.setattr(mpmath, "workprec", counting_workprec)
        cf = cf_expand(slope, 400)
        assert len(cf.beta_floats) == 400
        assert counts == {"Fraction": 0, "workprec": 0}


class TestGL2Z:
    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            GL2Z(2, 0, 0, 1)

    def test_inverse(self):
        m = t_matrix(3)
        assert m @ m.inverse() == IDENTITY

    def test_t_matrix_entries(self):
        assert t_matrix(1) == GL2Z(0, 1, 1, 1)

    def test_t_eigenvalues(self):
        lam, lam2, unstable, _ = t_matrix_eigen(1)
        assert lam == pytest.approx(GAMMA)
        assert unstable[1] == pytest.approx(GAMMA)
        # a=2: solve lam^2 - 2 lam - 1 = 0
        lam, _, _, _ = t_matrix_eigen(2)
        assert lam == pytest.approx(1 + math.sqrt(2))
        assert lam * lam - 2 * lam - 1 == pytest.approx(0, abs=1e-12)


class TestGauss:
    def test_fixed_point_golden(self):
        x = 1 / QuadraticNumber.from_surd(1, 1, 5, 2)
        assert gauss_step(x) == x

    def test_half(self):
        assert gauss_step(Fraction(1, 2)) == 0

    def test_two_fifths(self):
        assert gauss_step(Fraction(2, 5)) == Fraction(1, 2)

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            gauss_step(0.0)


class TestActOnSlope:
    def test_d_inverse_decrements(self):
        a = Slope.golden()
        out = act_on_slope(D.inverse(), a)
        assert out.value == a.value - 1

    def test_s_inverts(self):
        a = Slope.rational(5, 2)
        assert act_on_slope(S, a).value == Fraction(2, 5)

    def test_v_negates(self):
        a = Slope.sqrt2()
        assert act_on_slope(V, a).value == -a.value

    def test_pole(self):
        with pytest.raises(PoleAtInput):
            act_on_slope(S, Slope.rational(0, 1))

    def test_shift_property(self):
        # T_{a_0}^{-1} acting on alpha gives the tail [a_1, a_2, ...]
        for slope in random_quadratic_slopes(6, seed=11):
            cf = cf_expand(slope, 5)
            a0 = cf.coefficients[0]
            if a0 < 1:
                continue
            shifted = act_on_slope(t_matrix(a0).inverse(), slope)
            assert shifted.value == cf.tails[1]


class TestCFExpansion:
    def test_golden_all_ones(self):
        cf = cf_expand(Slope.golden(), 30)
        assert cf.coefficients == [1] * 30
        assert cf.period == (0, 1)
        assert cf.termination == "ok"

    def test_sqrt2(self):
        cf = cf_expand(Slope.sqrt2(), 30)
        assert cf.coefficients == [1] + [2] * 29
        assert cf.period == (1, 1)

    def test_rational_five_halves(self):
        cf = cf_expand(Slope.rational(5, 2), 10)
        assert cf.coefficients == [2, 2]
        assert cf.termination == "rational_exhausted"

    def test_fibonacci_convergents(self):
        cf = cf_expand(Slope.golden(), 8)
        assert cf.q[:5] == [1, 1, 2, 3, 5][:5] or cf.q[:5] == [1, 2, 3, 5, 8]
        # q_{-1}=0, q_0=1, then Fibonacci
        assert cf.q[:5] == [1, 1, 2, 3, 5]

    def test_sqrt2_convergents(self):
        # recurrence with a=[1,2,2]: 1/1, 3/2, 7/5
        cf = cf_expand(Slope.sqrt2(), 5)
        assert (cf.p[0], cf.q[0]) == (1, 1)
        assert (cf.p[1], cf.q[1]) == (3, 2)
        assert (cf.p[2], cf.q[2]) == (7, 5)

    def test_real_e_minus_2(self):
        digits = mpmath.nstr(mpmath.mpf(mpmath.e) - 2, 60)
        cf = cf_expand(Slope.real(digits, bits=200), 20)
        # e - 2 = [0; 1, 2, 1, 1, 4, 1, 1, 6, ...]
        assert cf.coefficients[:9] == [0, 1, 2, 1, 1, 4, 1, 1, 6]

    def test_real_precision_exhausted(self):
        cf = cf_expand(Slope.real("0.125001", bits=24), 30)
        assert cf.termination == "precision_exhausted"
        assert len(cf.coefficients) >= 1

    def test_real_hopeless_precision(self):
        with pytest.raises(PrecisionExhausted):
            val = Slope.real("0.5", bits=4)
            val.value = mpmath.iv.mpf([0.9, 1.1])
            cf_expand(val, 3)

    def test_zero_slope(self):
        with pytest.raises(ZeroInput):
            cf_expand(Slope.rational(0, 3), 4)

    def test_from_cf_coefficients_roundtrip(self):
        coeffs = [2**n for n in range(6)]
        slope = Slope.from_cf_coefficients(coeffs)
        cf = cf_expand(slope, 10)
        assert cf.coefficients == coeffs

    def test_from_cf_trailing_one_normalised(self):
        assert Slope.from_cf_coefficients([1, 1]).value == Fraction(2, 1)


class TestConvergentMatrices:
    def test_identity_seed(self):
        cf = cf_expand(Slope.golden(), 4)
        assert convergent_matrices(cf, -1) == IDENTITY

    def test_rows_and_det(self):
        cf = cf_expand(Slope.sqrt2(), 10)
        for n in range(8):
            m = convergent_matrices(cf, n)
            assert (m.a, m.b) == (cf.convergent(n - 1)[1], cf.convergent(n - 1)[0])
            assert (m.c, m.d) == (cf.q[n], cf.p[n])
            assert m.det == (-1) ** (n + 1)

    def test_product_form(self):
        # P_n = T_n ... T_0, entry-exact
        for slope in random_quadratic_slopes(5, seed=7):
            cf = cf_expand(slope, 8)
            if any(a < 1 for a in cf.coefficients):
                continue  # negative a_0 has no T-product form
            prod = IDENTITY
            for n in range(7):
                prod = t_matrix(cf.coefficients[n]) @ prod
                assert convergent_matrices(cf, n) == prod

    def test_out_of_range(self):
        cf = cf_expand(Slope.golden(), 3)
        with pytest.raises(IndexOutOfRange):
            convergent_matrices(cf, 5)


class TestBetaSequences:
    def test_two_computations_agree_exactly(self):
        for slope in random_quadratic_slopes(10, seed=1):
            cf = cf_expand(slope, 14)
            for n in range(12):
                assert cf.beta(n) == cf.beta_from_convergents(n)

    def test_sandwich(self):
        for slope in random_quadratic_slopes(10, seed=2):
            cf = cf_expand(slope, 14)
            for n in range(12):
                bn = cf.beta(n)
                q_next = cf.q[n + 1]
                assert Fraction(1, 2 * q_next) < bn < Fraction(1, q_next)

    def test_golden_decay_bound(self):
        gamma = QuadraticNumber.from_surd(1, 1, 5, 2)
        for slope in random_quadratic_slopes(6, seed=5):
            cf = cf_expand(slope, 12)
            for n in range(10):
                # beta_n <= gamma^{-n}; compare at 256 bits across fields
                lhs = cf.beta(n).to_mpf(256)
                rhs = 1 / gamma.to_mpf(256) ** n
                assert lhs <= rhs

    def test_golden_ratio_decay_bound(self):
        # beta_n / beta_{j-1} <= gamma^{-(n-j)} for 0 <= j <= n
        gamma = QuadraticNumber.from_surd(1, 1, 5, 2)
        for slope in random_quadratic_slopes(4, seed=8):
            cf = cf_expand(slope, 12)
            for n in range(10):
                for j in range(n + 1):
                    ratio = (cf.beta(n) / cf.beta(j - 1)).to_mpf(128)
                    assert ratio <= 1 / gamma.to_mpf(128) ** (n - j)

    def test_beta_recurrence(self):
        cf = cf_expand(Slope.sqrt2(), 12)
        for n in range(2, 10):
            lhs = cf.beta(n - 2)
            rhs = cf.coefficients[n] * cf.beta(n - 1) + cf.beta(n)
            assert lhs == rhs

    def test_a_tilde_identities(self):
        for slope in random_quadratic_slopes(5, seed=9):
            cf = cf_expand(slope, 12)
            alpha0 = cf.tails[0]
            for n in range(9):
                # Atilde_{n+1} = alpha_0 / beta_n
                assert cf.a_tilde(n + 1) == alpha0 / cf.beta(n)
            if cf.tail_float(0) > 0:
                for n in range(1, 9):
                    tn = cf.a_tilde(n).to_mpf(128)
                    a0 = alpha0.to_mpf(128)
                    assert a0 * cf.q[n] < tn < 2 * a0 * cf.q[n]

    def test_product_bound_on_q(self):
        # A_n <= q_n <= A_n prod(1 + 1/(a_i a_{i-1})), products over i = 1..n
        cf = cf_expand(Slope.silver(), 12)
        prod_a = 1
        bound = Fraction(1)
        for n in range(1, 10):
            prod_a *= cf.coefficients[n]
            bound *= 1 + Fraction(1, cf.coefficients[n] * cf.coefficients[n - 1])
            assert prod_a <= cf.q[n] <= prod_a * bound

    def test_best_approximation(self):
        cf = cf_expand(Slope.sqrt2(), 12)
        alpha = cf.slope.value
        for n in range(10):
            p, q = cf.convergent(n)
            err = alpha * q - p
            err = err if err.sign() > 0 else -err
            assert err < QuadraticNumber(Fraction(1, cf.q[n + 1]), 0, 2)


def _product(values):
    """Left-to-right product of a nonempty list, rebuilt from scratch."""
    out = values[0]
    for v in values[1:]:
        out = out * v
    return out


class TestPrefixTables:
    @staticmethod
    def assert_tables_pinned(cf):
        last = len(cf) - 1
        for n in sorted({*range(0, last, max(1, last // 12)), last}):
            beta = _product(cf.remainders[: n + 1])
            a_tilde = _product(cf.tails[: n + 1])
            assert cf.beta(n) == beta
            assert cf.a_tilde(n) == a_tilde
            assert cf.beta_float(n) == float(beta)
            assert cf.a_tilde_float(n) == float(a_tilde)
            assert cf.tail_float(n) == float(cf.tails[n])
            assert cf.remainder_float(n) == float(cf.remainders[n])

    def test_exact_tables_equal_products(self):
        rng = random.Random(11)
        cases = [(Slope.golden(), 400), (Slope.sqrt2(), 400),
                 (Slope.rational(355, 113), 10)]
        cases += [(s, rng.randint(1, 400)) for s in random_quadratic_slopes(10, seed=4)]
        for slope, n_terms in cases:
            self.assert_tables_pinned(cf_expand(slope, n_terms))

    def test_real_products_at_slope_precision(self):
        with mpmath.workdps(100):
            digits = mpmath.nstr(mpmath.e - 2, 90)
        cf = cf_expand(Slope.real(digits, bits=256), 20)
        b = cf.beta(10)
        # interval arithmetic, so the ratio is an enclosure of the width
        assert b.delta / b.a < mpmath.mpf(2) ** -128

    def test_seeds_and_range(self):
        cf = cf_expand(Slope.golden(), 5)
        assert cf.beta_float(-1) == cf.a_tilde_float(-1) == 1.0
        assert cf.beta(-1) == cf.a_tilde(-1) == 1
        for lookup in (cf.beta, cf.a_tilde, cf.beta_float, cf.a_tilde_float,
                       cf.tail_float, cf.remainder_float):
            with pytest.raises(IndexOutOfRange):
                lookup(5)
            with pytest.raises(IndexOutOfRange):
                lookup(-2)
        for lookup in (cf.tail_float, cf.remainder_float):
            with pytest.raises(IndexOutOfRange):
                lookup(-1)

    def test_cf_scenario_multiplications_linear(self, tmp_path, monkeypatch,
                                                capsys):
        # the golden 400-term table made 478,402 products when each beta_n
        # and Atilde_n was rebuilt from scratch
        calls = 0
        mul = QuadraticNumber.__mul__

        def counting_mul(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(QuadraticNumber, "__mul__", counting_mul)
        n_terms = 400
        code = cli_experiments.main(["cf", "--slope", "golden", "--n-terms",
                                     str(n_terms), "--out", str(tmp_path)])
        assert code == 0
        assert 0 < calls <= 4 * n_terms


class TestDiophantineProbe:
    def test_golden_constant_type(self):
        cf = cf_expand(Slope.golden(), 28)
        probe = diophantine_probe(cf, beta=0.0, n_max=25)
        assert probe.K_q_max < 3
        assert probe.K_a_max < 3
        assert probe.K_beta_max < 3
        assert probe.K_atilde_max < 3

    def test_sqrt2_finite(self):
        cf = cf_expand(Slope.sqrt2(), 28)
        probe = diophantine_probe(cf, beta=0.0, n_max=25)
        for arr in (probe.K_q, probe.K_a, probe.K_beta, probe.K_atilde):
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("slope", [Slope.rational(5, 2),
                                       Slope.real("2.5", bits=53),
                                       Slope.real("2.5", bits=256)],
                             ids=["rational", "real-53", "real-256"])
    def test_exact_zero_remainder_stops_the_probe(self, slope):
        # 2.5 = [2; 2] is exact at any precision: the last remainder is
        # exactly zero and so is its beta, which no K_beta may divide by
        cf = cf_expand(slope, 10)
        assert cf.coefficients == [2, 2] and cf.beta_floats[-1] == 0.0
        probe = diophantine_probe(cf, beta=0.0, n_max=10)
        assert len(probe.n_values) == 0

    def test_geometric_coefficients_escape(self):
        slope = Slope.from_cf_coefficients([2**n for n in range(11)])
        cf = cf_expand(slope, 12)
        probe = diophantine_probe(cf, beta=0.0, n_max=9)
        # per-n constants exposed so the blow-up is visible
        assert probe.K_a[-1] > 8 * probe.K_a[2]
        assert np.all(np.diff(probe.K_a[1:]) > 0)
