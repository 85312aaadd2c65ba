"""Exact continued-fraction arithmetic and integer matrix actions on slopes.

A slope is exact or an interval.  An exact slope is a QuadraticNumber:
a rational (finite expansion) or a quadratic irrational (eventually
periodic expansion), both in exact surd arithmetic.  Any other real is
an interval at a chosen precision, and its digits are emitted only while
certified.  The expansion carries convergents, the approximation
quality sequence beta_n and the tail product sequence Atilde_n, which
drive the renormalisation scheme and its diagnostics.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np
from mpmath import libmp

from .errors import (
    IndexOutOfRange,
    PoleAtInput,
    PrecisionExhausted,
    ZeroInput,
)

DEFAULT_REAL_BITS = 256


# ---------------------------------------------------------------------------
# GL(2,Z)


@dataclass(frozen=True)
class GL2Z:
    """Integer 2x2 matrix [[a, b], [c, d]] with determinant +-1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "GL2Z":
        s = self.det
        return GL2Z(s * self.d, -s * self.b, -s * self.c, s * self.a)

    def transpose(self) -> "GL2Z":
        return GL2Z(self.a, self.c, self.b, self.d)

    def __matmul__(self, other: "GL2Z") -> "GL2Z":
        return GL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.int64)


IDENTITY = GL2Z(1, 0, 0, 1)
# Basis changes: D lowers the slope by one, S swaps coordinates, V flips sign.
D = GL2Z(1, 0, 1, 1)
S = GL2Z(0, 1, 1, 0)
V = GL2Z(-1, 0, 0, 1)


def t_matrix(a: int) -> GL2Z:
    """The shift matrix [[0, 1], [1, a]] = D^a S for one expansion step."""
    if a < 1:
        raise ValueError(f"shift matrix needs a >= 1, got {a}")
    return GL2Z(0, 1, 1, a)


def t_matrix_eigen(a: int):
    """Eigen-data of t_matrix(a): (lambda, -1/lambda, unstable, stable)."""
    lam = (a + math.sqrt(a * a + 4)) / 2
    return lam, -1.0 / lam, (1.0, lam), (1.0, -1.0 / lam)


# ---------------------------------------------------------------------------
# Exact quadratic irrationals


def _square_free_split(d: int):
    """Return (s, core) with d = s*s*core and core square-free."""
    s, core, i = 1, d, 2
    while i * i <= core:
        while core % (i * i) == 0:
            core //= i * i
            s *= i
        i += 1
    return s, core


def _canonical(p: int, q: int, r: int, d: int):
    """(p + q*sqrt(d)) / r with r > 0, gcd(p, q, r) = 1 and d = 0 if q = 0."""
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(p, q, r)
    return p // g, q // g, r // g, d if q else 0


def _scaled_floor(p: int, q: int, r: int, d: int, k: int):
    """divmod((p + floor(q*sqrt(d))) * 2**k, r) for r > 0, d square-free.

    The quotient is floor((p + q*sqrt(d)) / r * 2**k); the remainder is the
    exact one when q = 0.
    """
    if k >= 0:
        p, q = p << k, q << k
    else:
        r <<= -k
    s = isqrt(q * q * d)  # q*sqrt(d) is irrational unless q = 0
    return divmod(p + (s if q >= 0 else -s - 1), r)


@functools.total_ordering
class QuadraticNumber:
    """Exact element (p + q*sqrt(d)) / r of a real quadratic field.

    The four ints are canonical: r > 0, gcd(p, q, r) = 1, d square-free when
    q != 0 and d = 0 when q = 0.  Equality compares them; a rational
    hashes as the int or Fraction it equals.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, a, b, d: int):
        """a + b*sqrt(d) for rationals a and b."""
        a, b = Fraction(a), Fraction(b)
        if b != 0:
            if d <= 0:
                raise ValueError("need d > 0")
            s, core = _square_free_split(d)
            if core == 1:
                raise ValueError(f"d = {d} is a perfect square; use a rational")
            b, d = b * s, core
        self.p, self.q, self.r, self.d = _canonical(
            a.numerator * b.denominator, b.numerator * a.denominator,
            a.denominator * b.denominator, d)

    @classmethod
    def from_surd(cls, u: int, v: int, d: int, w: int) -> "QuadraticNumber":
        """Build (u + v*sqrt(d)) / w."""
        if w == 0:
            raise ValueError("w must be nonzero")
        return cls(Fraction(u, w), Fraction(v, w), d)

    @classmethod
    def _new(cls, p, q, r, d) -> "QuadraticNumber":
        """(p + q*sqrt(d)) / r for d square-free (or q = 0) and r != 0."""
        x = object.__new__(cls)
        x.p, x.q, x.r, x.d = _canonical(p, q, r, d)
        return x

    @staticmethod
    def _coerce(other):
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, int):
            return QuadraticNumber._new(other, 0, 1, 0)
        return QuadraticNumber(other, 0, 0)

    def _common_d(self, other: "QuadraticNumber") -> int:
        if self.d and other.d and self.d != other.d:
            raise ValueError("mixed quadratic fields")
        return self.d or other.d

    def __add__(self, other):
        other = self._coerce(other)
        return QuadraticNumber._new(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            self.r * other.r,
            self._common_d(other),
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber._new(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        d = self._common_d(other)
        return QuadraticNumber._new(
            self.p * other.p + self.q * other.q * d,
            self.p * other.q + self.q * other.p,
            self.r * other.r,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        # r / (p + q sqrt d) = r (p - q sqrt d) / (p^2 - q^2 d)
        norm = self.p * self.p - self.q * self.q * self.d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadraticNumber._new(self.r * self.p, -self.r * self.q, norm, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def sign(self) -> int:
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        # opposite signs: p^2 != q^2 d because d is square-free
        larger = p if p * p > q * q * self.d else q
        return 1 if larger > 0 else -1

    def __eq__(self, other):
        if not isinstance(other, (QuadraticNumber, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return (self.p, self.q, self.r, self.d) == (other.p, other.q, other.r, other.d)

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __hash__(self):
        if self.q == 0:
            return hash(self.p) if self.r == 1 else hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.d))

    def floor(self) -> int:
        return _scaled_floor(self.p, self.q, self.r, self.d, 0)[0]

    __floor__ = floor

    def is_rational(self) -> bool:
        return self.q == 0

    def _nearest(self, prec: int, emin: int | None = None):
        """(m, e) with m * 2**e the prec-bit value nearest to self.

        2**(prec-1) <= |m| < 2**prec, or m = 0 for zero.  With emin, e is
        at least emin and |m| has fewer bits where it must.  A tie, possible
        only when q = 0, goes to the even m.
        """
        sign = self.sign()
        if sign == 0:
            return 0, 0
        p, q, r, d = sign * self.p, sign * self.q, self.r, self.d
        # log2 of |p| + |q|*sqrt(d), to a bit or two; with opposite signs the
        # value is the norm over that sum, which shows any cancellation
        bits = max(p.bit_length(), ((q * q * d).bit_length() + 1) // 2)
        if p < 0 or q < 0:
            bits = (p * p - q * q * d).bit_length() - bits
        k = prec + 2 - bits + r.bit_length()
        scaled, rem = _scaled_floor(p, q, r, d, k)
        while scaled.bit_length() <= prec:
            k += prec + 1 - scaled.bit_length()
            scaled, rem = _scaled_floor(p, q, r, d, k)
        shift = scaled.bit_length() - prec
        if emin is not None:
            shift = max(shift, k + emin)
        m, low, half = scaled >> shift, scaled & ((1 << shift) - 1), 1 << (shift - 1)
        # an irrational or inexact rest lies strictly above its floor
        m += low > half or (low == half and bool(q or rem or m & 1))
        if m >> prec:
            m, shift = m >> 1, shift + 1
        return sign * m, shift - k

    def to_mpf(self, prec_bits: int = 53):
        """The correctly rounded prec_bits-bit value."""
        return mpmath.mpf(self._nearest(prec_bits), prec=prec_bits)

    def __float__(self):
        # correctly rounded: 53 bits, or the subnormal grid 2**-1074
        m, e = self._nearest(53, emin=-1074)
        if m == 0:
            return math.copysign(0.0, self.sign())
        try:
            return math.ldexp(m, e)
        except OverflowError:
            return math.copysign(math.inf, m)

    def __repr__(self):
        if self.q == 0:
            return f"QuadraticNumber({self.p}/{self.r})"
        return f"QuadraticNumber(({self.p} + {self.q}*sqrt({self.d}))/{self.r})"


# ---------------------------------------------------------------------------
# Interval-certified reals (mpmath.iv wrappers)


class _IvPrec:
    """Temporarily set the interval-context precision; bits None (an exact
    slope) leaves it as it is."""

    def __init__(self, bits):
        self.bits = bits

    def __enter__(self):
        self.saved = mpmath.iv.prec
        if self.bits is not None:
            mpmath.iv.prec = self.bits

    def __exit__(self, *exc):
        mpmath.iv.prec = self.saved


def _iv_products(values, bits: int) -> list:
    """Prefix products of intervals, each rounded outward at `bits` as
    mpmath.iv's `*` rounds it."""
    products = itertools.accumulate(
        (v._mpi_ for v in values), lambda u, v: libmp.mpi_mul(u, v, bits))
    return [mpmath.iv.make_mpf(v) for v in products]


# ---------------------------------------------------------------------------
# Slope


class Slope:
    """A frequency slope: its value and the precision of that value.

    bits None  -> an exact QuadraticNumber, rational when value.is_rational()
    bits       -> an mpmath interval at that many bits
    """

    def __init__(self, value, bits: int | None = None):
        self.value = value
        self.bits = bits

    # constructors ---------------------------------------------------------

    @classmethod
    def rational(cls, p: int, q: int) -> "Slope":
        return cls(QuadraticNumber.from_surd(p, 0, 0, q))

    @classmethod
    def quadratic(cls, u: int, v: int, d: int, w: int) -> "Slope":
        if v == 0:
            raise ValueError("v must be nonzero for a quadratic slope")
        return cls(QuadraticNumber.from_surd(u, v, d, w))

    @classmethod
    def real(cls, decimal: str, bits: int = DEFAULT_REAL_BITS) -> "Slope":
        with _IvPrec(bits):
            val = mpmath.iv.mpf(decimal)
        return cls(val, bits)

    @classmethod
    def golden(cls) -> "Slope":
        return cls.quadratic(1, 1, 5, 2)

    @classmethod
    def sqrt2(cls) -> "Slope":
        return cls.quadratic(0, 1, 2, 1)

    @classmethod
    def silver(cls) -> "Slope":
        return cls.quadratic(1, 1, 2, 1)

    @classmethod
    def named(cls, name: str) -> "Slope":
        table = {"golden": cls.golden, "sqrt2": cls.sqrt2, "silver": cls.silver}
        if name not in table:
            raise ValueError(f"unknown named slope {name!r}")
        return table[name]()

    @classmethod
    def from_cf_coefficients(cls, coeffs) -> "Slope":
        """Rational slope with the given (finite) expansion coefficients."""
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if any(a < 1 for a in coeffs[1:]):
            raise ValueError("coefficients beyond the first must be >= 1")
        if len(coeffs) > 1 and coeffs[-1] == 1:
            # canonical form [..., a, 1] == [..., a + 1]
            coeffs = coeffs[:-2] + [coeffs[-2] + 1]
        x = QuadraticNumber.from_surd(coeffs[-1], 0, 0, 1)
        for a in reversed(coeffs[:-1]):
            x = a + 1 / x
        return cls(x)

    # conversions ----------------------------------------------------------

    def __float__(self):
        return float(self.value if self.bits is None else self.value.mid)

    def is_zero(self) -> bool:
        if self.bits is None:
            return self.value.sign() == 0
        return mpmath.mpf(0) in self.value

    def __repr__(self):
        return f"Slope({self.value}, bits={self.bits})"


# ---------------------------------------------------------------------------
# Gauss map


def gauss_step(x):
    """One Gauss-map step x -> {1/x} for x > 0, exact when x is exact."""
    if isinstance(x, (QuadraticNumber, Fraction)):
        if x <= 0:
            raise ZeroInput("gauss_step needs x > 0")
        inv = 1 / x
        return inv - math.floor(inv)
    xf = float(x)
    if xf <= 0:
        raise ZeroInput("gauss_step needs x > 0")
    inv = 1.0 / xf
    return inv - math.floor(inv)


# ---------------------------------------------------------------------------
# Moebius action on slopes


def act_on_slope(m: GL2Z, slope: Slope) -> Slope:
    """Action alpha -> (c + d*alpha) / (a + b*alpha) of [[a,b],[c,d]]."""
    with _IvPrec(slope.bits):
        alpha = slope.value
        denom = m.a + m.b * alpha
        pole = denom == 0 if slope.bits is None else mpmath.mpf(0) in denom
        if pole:
            raise PoleAtInput("slope is a pole of the action")
        return Slope((m.c + m.d * alpha) / denom, slope.bits)


# ---------------------------------------------------------------------------
# Continued-fraction expansion


@dataclass
class CFExpansion:
    """Certified continued-fraction data for a slope.

    coefficients   a_0, a_1, ...  (a_0 = floor(alpha), a_n >= 1)
    tails          alpha_n = [a_n, a_{n+1}, ...] as exact/interval numbers
    remainders     x_n = {alpha_n} = 1/alpha_{n+1}
    p, q           convergent numerators / denominators (big ints)
    period         (start, length) for quadratic irrationals, else None
    termination    'ok' | 'rational_exhausted' | 'precision_exhausted'

    The prefix products betas (beta_n = x_0 ... x_n) and a_tildes
    (Atilde_n = alpha_0 ... alpha_n) and the float views of all four
    sequences are built once, with the expansion.
    """

    slope: Slope
    coefficients: list
    tails: list
    remainders: list
    p: list
    q: list
    period: tuple | None
    termination: str
    betas: list = field(init=False, repr=False)
    a_tildes: list = field(init=False, repr=False)
    tail_floats: list = field(init=False, repr=False)
    remainder_floats: list = field(init=False, repr=False)
    beta_floats: list = field(init=False, repr=False)
    a_tilde_floats: list = field(init=False, repr=False)

    def __post_init__(self):
        # left to right, beta_n = beta_{n-1} x_n
        if self.slope.bits is None:
            self.betas = list(itertools.accumulate(self.remainders, operator.mul))
            self.a_tildes = list(itertools.accumulate(self.tails, operator.mul))
            # a periodic expansion repeats its tails: convert each value once
            to_float = functools.cache(float)
        else:
            self.betas = _iv_products(self.remainders, self.slope.bits)
            self.a_tildes = _iv_products(self.tails, self.slope.bits)
            # float(v.mid): the midpoint at the context's precision
            prec = mpmath.iv.prec

            def to_float(v):
                return libmp.to_float(libmp.mpi_mid(v._mpi_, prec))
        self.tail_floats = [to_float(v) for v in self.tails]
        self.remainder_floats = [to_float(v) for v in self.remainders]
        # through the accessors, so perfbench's spans on beta/a_tilde see them
        self.beta_floats = [to_float(self.beta(n)) for n in range(len(self))]
        self.a_tilde_floats = [to_float(self.a_tilde(n)) for n in range(len(self))]

    def __len__(self):
        return len(self.coefficients)

    @staticmethod
    def _entry(table, n: int, name: str, seed=None):
        """table[n]; n = -1 gives the seed where the sequence has one."""
        if n == -1 and seed is not None:
            return seed
        if not 0 <= n < len(table):
            raise IndexOutOfRange(f"{name} {n} not available")
        return table[n]

    def coefficient(self, n: int) -> int:
        if not 0 <= n < len(self.coefficients):
            raise IndexOutOfRange(f"coefficient {n} not certified")
        return self.coefficients[n]

    def convergent(self, n: int):
        """(p_n, q_n); n = -1 gives the seed (1, 0)."""
        if n == -1:
            return (1, 0)
        if not 0 <= n < len(self.p):
            raise IndexOutOfRange(f"convergent {n} not available")
        return (self.p[n], self.q[n])

    def tail_float(self, n: int) -> float:
        return self._entry(self.tail_floats, n, "tail")

    def remainder_float(self, n: int) -> float:
        return self._entry(self.remainder_floats, n, "remainder")

    def beta(self, n: int):
        """beta_n = x_0 ... x_n (exact/interval); beta_{-1} = 1."""
        return self._entry(self.betas, n, "beta", 1)

    def beta_from_convergents(self, n: int):
        """beta_n via (-1)^n (alpha q_n - p_n); independent of the product."""
        if n == -1:
            return 1
        p, q = self.convergent(n)
        sign = 1 if n % 2 == 0 else -1
        with _IvPrec(self.slope.bits):
            return sign * (self.slope.value * q - p)

    def beta_float(self, n: int) -> float:
        return self._entry(self.beta_floats, n, "beta", 1.0)

    def a_tilde(self, n: int):
        """Atilde_n = alpha_0 ... alpha_n; Atilde_{-1} = 1."""
        return self._entry(self.a_tildes, n, "Atilde", 1)

    def a_tilde_float(self, n: int) -> float:
        return self._entry(self.a_tilde_floats, n, "Atilde", 1.0)


def _expand_exact(alpha: QuadraticNumber, n_terms: int):
    coeffs, tails, remainders = [], [], []
    seen = {}
    x = alpha
    for n in range(n_terms):
        if x in seen:
            # a repeated tail closes the period (rational tails never
            # repeat); the rest repeats the period's terms, the same objects
            start = seen[x]
            for table in (coeffs, tails, remainders):
                table += itertools.islice(itertools.cycle(table[start:]),
                                          n_terms - n)
            return coeffs, tails, remainders, (start, n - start), "ok"
        seen[x] = n
        a = math.floor(x)
        coeffs.append(a)
        tails.append(x)
        rem = x - a
        remainders.append(rem)
        if rem == 0:
            return coeffs, tails, remainders, None, "rational_exhausted"
        x = 1 / rem
    return coeffs, tails, remainders, None, "ok"


def _expand_real(value, bits: int, n_terms: int):
    """The expansion of an interval on its endpoint tuples; `x - a` and
    `1 / rem` round outward at `bits` as mpmath.iv's operators do."""
    coeffs, tails, remainders = [], [], []
    termination = "ok"
    one = (libmp.fone, libmp.fone)
    x = value._mpi_
    for _ in range(n_terms):
        # a digit is certified when both endpoints have the same floor
        a = libmp.to_int(x[0], libmp.round_floor)
        if a != libmp.to_int(x[1], libmp.round_floor):
            termination = "precision_exhausted"
            break
        coeffs.append(a)
        tails.append(x)
        rem = libmp.mpi_sub(x, (libmp.from_int(a, bits, libmp.round_floor),
                                libmp.from_int(a, bits, libmp.round_ceiling)),
                            bits)
        remainders.append(rem)
        if not libmp.mpf_gt(rem[0], libmp.fzero):
            # cannot certify rem > 0: either rational or out of digits
            termination = "precision_exhausted"
            break
        x = libmp.mpi_div(one, rem, bits)
    make = mpmath.iv.make_mpf
    return (coeffs, [make(v) for v in tails], [make(v) for v in remainders],
            None, termination)


def cf_expand(alpha: Slope, n_terms: int) -> CFExpansion:
    """Continued-fraction expansion of a slope, up to n_terms coefficients.

    Rational slopes yield a finite expansion flagged 'rational_exhausted'
    (with the canonical a_N >= 2 ending).  Quadratic irrationals report
    their (pre)period.  High-precision reals stop at the first digit that
    the error interval cannot certify, flagged 'precision_exhausted'.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if alpha.is_zero():
        raise ZeroInput("slope is zero (or its interval contains zero)")

    if alpha.bits is None:
        coeffs, tails, remainders, period, termination = _expand_exact(
            alpha.value, n_terms
        )
    else:
        coeffs, tails, remainders, period, termination = _expand_real(
            alpha.value, alpha.bits, n_terms
        )
        if not coeffs:
            raise PrecisionExhausted("not even the first digit is certified")

    p, q = [], []
    p_prev, q_prev = 1, 0  # (p_{-1}, q_{-1})
    p_cur, q_cur = coeffs[0], 1
    p.append(p_cur)
    q.append(q_cur)
    for a in coeffs[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        p.append(p_cur)
        q.append(q_cur)

    return CFExpansion(
        slope=alpha,
        coefficients=coeffs,
        tails=tails,
        remainders=remainders,
        p=p,
        q=q,
        period=period,
        termination=termination,
    )


def convergent_matrices(cf: CFExpansion, n: int) -> GL2Z:
    """P_n with rows (q_{n-1}, p_{n-1}) and (q_n, p_n); P_{-1} = identity."""
    if n == -1:
        return IDENTITY
    if not 0 <= n < len(cf.p):
        raise IndexOutOfRange(f"P_{n} needs {n + 1} coefficients")
    p_prev, q_prev = cf.convergent(n - 1)
    return GL2Z(q_prev, p_prev, cf.q[n], cf.p[n])


# ---------------------------------------------------------------------------
# Diophantine diagnostics


@dataclass
class DiophantineProbe:
    """Per-n minimal constants for the four order-beta growth bounds.

    K_q[n]      = q_{n+1} / q_n^{1+beta}
    K_a[n]      = a_{n+1} / q_n^beta
    K_beta[n]   = beta_{n+1}^{-1} / (2 beta_n^{-(1+beta)})
    K_atilde[n] = Atilde_{n+1} / (2 Atilde_n^{1+beta})

    The four bounds share one constant in principle but not in practice,
    so each is reported separately together with its running maximum.
    """

    beta_order: float
    n_values: np.ndarray
    K_q: np.ndarray
    K_a: np.ndarray
    K_beta: np.ndarray
    K_atilde: np.ndarray

    @property
    def K_q_max(self):
        return float(np.max(self.K_q)) if len(self.K_q) else math.nan

    @property
    def K_a_max(self):
        return float(np.max(self.K_a)) if len(self.K_a) else math.nan

    @property
    def K_beta_max(self):
        return float(np.max(self.K_beta)) if len(self.K_beta) else math.nan

    @property
    def K_atilde_max(self):
        return float(np.max(self.K_atilde)) if len(self.K_atilde) else math.nan


def diophantine_probe(cf: CFExpansion, beta: float, n_max: int) -> DiophantineProbe:
    """Probe the order-beta diophantine bounds for n <= n_max.

    Uses whatever part of the expansion is certified; the covered range may
    end earlier than n_max for short (rational/real) expansions.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    limit = min(n_max, len(cf.coefficients) - 2)
    if cf.beta_floats[-1] == 0.0:
        # the final remainder is exactly zero (a rational, or a real that is
        # rational at its precision), so beta_{last} degenerates
        limit = min(limit, len(cf.coefficients) - 3)
    ns, kq, ka, kb, kt = [], [], [], [], []
    for n in range(limit + 1):
        qn, qn1 = cf.q[n], cf.q[n + 1]
        an1 = cf.coefficients[n + 1]
        bn, bn1 = cf.beta_floats[n], cf.beta_floats[n + 1]
        tn, tn1 = cf.a_tilde_floats[n], cf.a_tilde_floats[n + 1]
        ns.append(n)
        kq.append(qn1 / qn ** (1 + beta))
        ka.append(an1 / qn**beta)
        kb.append((1.0 / bn1) / (2.0 * (1.0 / bn) ** (1 + beta)))
        kt.append(tn1 / (2.0 * tn ** (1 + beta)))
    return DiophantineProbe(
        beta_order=beta,
        n_values=np.array(ns, dtype=int),
        K_q=np.array(kq),
        K_a=np.array(ka),
        K_beta=np.array(kb),
        K_atilde=np.array(kt),
    )
