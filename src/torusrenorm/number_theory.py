"""Exact continued-fraction arithmetic and integer matrix actions on slopes.

Slopes come in three flavours: rationals (finite expansions), quadratic
irrationals (exact surd arithmetic, eventually periodic expansions) and
high-precision reals (interval arithmetic, digits emitted only while
certified).  The expansion carries convergents, the approximation
quality sequence beta_n and the tail product sequence Atilde_n, which
drive the renormalisation scheme and its diagnostics.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np

from .errors import (
    IndexOutOfRange,
    PoleAtInput,
    PrecisionExhausted,
    ZeroInput,
)

GOLDEN = (1 + math.sqrt(5)) / 2

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

    def apply(self, v):
        """Matrix-vector product; v may hold ints, floats or exact numbers."""
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

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


class QuadraticNumber:
    """Exact element a + b*sqrt(d) of a real quadratic field, d square-free."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        a, b = Fraction(a), Fraction(b)
        if b != 0:
            if d <= 0:
                raise ValueError("need d > 0")
            s, core = _square_free_split(d)
            if core == 1:
                raise ValueError(f"d = {d} is a perfect square; use a rational")
            a, b, d = a, b * s, core
        else:
            d = 0
        self.a, self.b, self.d = a, b, d

    @classmethod
    def from_surd(cls, u: int, v: int, d: int, w: int) -> "QuadraticNumber":
        """Build (u + v*sqrt(d)) / w."""
        if w == 0:
            raise ValueError("w must be nonzero")
        return cls(Fraction(u, w), Fraction(v, w), d)

    def _check_field(self, other: "QuadraticNumber"):
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise ValueError("mixed quadratic fields")

    def _coerce(self, other):
        if isinstance(other, QuadraticNumber):
            return other
        return QuadraticNumber(other, 0, self.d if self.d else 1)

    def __add__(self, other):
        other = self._coerce(other)
        self._check_field(other)
        d = self.d or other.d
        return QuadraticNumber(self.a + other.a, self.b + other.b, d or 1)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d or 1)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_field(other)
        d = self.d or other.d
        return QuadraticNumber(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d or 1,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        # 1/(a + b sqrt d) = (a - b sqrt d) / (a^2 - b^2 d)
        norm = self.a * self.a - self.b * self.b * (self.d or 0)
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadraticNumber(self.a / norm, -self.b / norm, self.d or 1)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d (d square-free, so != )
        bigger_rational = a * a > b * b * self.d
        if a > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def __eq__(self, other):
        if not isinstance(other, (QuadraticNumber, int, Fraction)):
            return NotImplemented
        diff = self - self._coerce(other)
        return diff.a == 0 and diff.b == 0

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def floor(self) -> int:
        if self.b == 0:
            return math.floor(self.a)
        # put over one positive denominator: (A + B sqrt d) / r
        r = self.a.denominator * self.b.denominator
        A = self.a.numerator * self.b.denominator
        B = self.b.numerator * self.a.denominator
        s = isqrt(B * B * self.d)
        floor_b_sqrt = s if B >= 0 else -s - 1
        return (A + floor_b_sqrt) // r

    def is_rational(self) -> bool:
        return self.b == 0

    def _cancellation_safe_bits(self) -> int:
        # a + b*sqrt(d) can cancel down to ~1/(operand sizes); work wide
        ops = (
            self.a.numerator,
            self.a.denominator,
            self.b.numerator,
            self.b.denominator,
            self.d or 1,
        )
        return 64 + 2 * max(abs(int(o)).bit_length() for o in ops)

    def to_mpf(self, prec_bits: int = 53):
        work = max(prec_bits + 10, self._cancellation_safe_bits())
        with mpmath.workprec(work):
            val = mpmath.mpf(self.a.numerator) / self.a.denominator
            if self.b:
                val += (
                    mpmath.mpf(self.b.numerator)
                    / self.b.denominator
                    * mpmath.sqrt(self.d)
                )
        with mpmath.workprec(prec_bits):
            return +val

    def __float__(self):
        return float(self.to_mpf(64))

    def __repr__(self):
        if self.b == 0:
            return f"QuadraticNumber({self.a})"
        return f"QuadraticNumber({self.a} + {self.b}*sqrt({self.d}))"


# ---------------------------------------------------------------------------
# Interval-certified reals (mpmath.iv wrappers)


class _IvPrec:
    """Temporarily set the interval-context precision."""

    def __init__(self, bits):
        self.bits = bits

    def __enter__(self):
        self.saved = mpmath.iv.prec
        mpmath.iv.prec = self.bits

    def __exit__(self, *exc):
        mpmath.iv.prec = self.saved


def _iv_floor_certified(x):
    """Floor of an interval if both endpoints agree, else None."""
    lo = int(mpmath.floor(x.a))
    hi = int(mpmath.floor(x.b))
    return lo if lo == hi else None


# ---------------------------------------------------------------------------
# Slope


class Slope:
    """A frequency slope in one of three representations.

    kind 'rational'   -> Fraction
    kind 'quadratic'  -> QuadraticNumber (irrational)
    kind 'real'       -> mpmath interval together with its precision bits
    """

    def __init__(self, kind: str, value, bits: int | None = None):
        self.kind = kind
        self.value = value
        self.bits = bits
        if kind == "quadratic":
            if value.is_rational():
                raise ValueError("quadratic slope must be irrational")
        elif kind == "real":
            if bits is None:
                raise ValueError("real slope needs a precision")
        elif kind != "rational":
            raise ValueError(f"unknown slope kind {kind!r}")

    # constructors ---------------------------------------------------------

    @classmethod
    def rational(cls, p: int, q: int) -> "Slope":
        return cls("rational", Fraction(p, q))

    @classmethod
    def quadratic(cls, u: int, v: int, d: int, w: int) -> "Slope":
        if v == 0:
            raise ValueError("v must be nonzero for a quadratic slope")
        return cls("quadratic", QuadraticNumber.from_surd(u, v, d, w))

    @classmethod
    def real(cls, decimal: str, bits: int = DEFAULT_REAL_BITS) -> "Slope":
        with _IvPrec(bits):
            val = mpmath.iv.mpf(decimal)
        return cls("real", val, bits)

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
        x = Fraction(coeffs[-1])
        for a in reversed(coeffs[:-1]):
            x = a + 1 / x
        return cls("rational", x)

    # conversions ----------------------------------------------------------

    def __float__(self):
        if self.kind == "rational":
            return float(self.value)
        if self.kind == "quadratic":
            return float(self.value)
        return float(self.value.mid)

    def to_mpf(self, prec_bits: int = 53):
        if self.kind == "rational":
            with mpmath.workprec(prec_bits):
                return mpmath.mpf(self.value.numerator) / self.value.denominator
        if self.kind == "quadratic":
            return self.value.to_mpf(prec_bits)
        with mpmath.workprec(prec_bits):
            return +mpmath.mpf(self.value.mid.a)

    def is_zero(self) -> bool:
        if self.kind == "rational":
            return self.value == 0
        if self.kind == "quadratic":
            return False
        return mpmath.mpf(0) in self.value

    def __repr__(self):
        return f"Slope({self.kind}, {self.value})"


# ---------------------------------------------------------------------------
# Gauss map


def gauss_step(x):
    """One Gauss-map step x -> {1/x} for x > 0, exact when x is exact."""
    if isinstance(x, QuadraticNumber):
        if x.sign() <= 0:
            raise ZeroInput("gauss_step needs x > 0")
        inv = 1 / x
        return inv - inv.floor()
    if isinstance(x, Fraction):
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
    if slope.kind == "rational":
        alpha = slope.value
        denom = m.a + m.b * alpha
        if denom == 0:
            raise PoleAtInput("slope is a pole of the action")
        return Slope("rational", (m.c + m.d * alpha) / denom)
    if slope.kind == "quadratic":
        alpha = slope.value
        denom = alpha * m.b + m.a
        if denom.a == 0 and denom.b == 0:
            raise PoleAtInput("slope is a pole of the action")
        return Slope("quadratic", (alpha * m.d + m.c) / denom)
    with _IvPrec(slope.bits):
        alpha = slope.value
        denom = m.a + m.b * alpha
        if mpmath.mpf(0) in denom:
            raise PoleAtInput("denominator interval contains zero")
        return Slope("real", (m.c + m.d * alpha) / denom, slope.bits)


# ---------------------------------------------------------------------------
# Continued-fraction expansion


def _to_float(value) -> float:
    if isinstance(value, QuadraticNumber):
        return float(value)
    if isinstance(value, (int, Fraction)):
        return float(value)
    return float(value.mid)


def _float_once(value, floats: dict) -> float:
    """_to_float(value); a quadratic value is converted once per dict."""
    if not isinstance(value, QuadraticNumber):
        return _to_float(value)
    # its exact parts as the key: QuadraticNumber.__eq__ builds a difference
    key = (value.a, value.b, value.d)
    out = floats.get(key)
    if out is None:
        out = floats[key] = _to_float(value)
    return out


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
        # left to right, beta_n = beta_{n-1} x_n; intervals at the slope's bits
        real = self.slope.kind == "real"
        with _IvPrec(self.slope.bits) if real else contextlib.nullcontext():
            self.betas = list(itertools.accumulate(self.remainders, operator.mul))
            self.a_tildes = list(itertools.accumulate(self.tails, operator.mul))
        # a periodic expansion repeats its tails: convert each value once
        floats = {}
        self.tail_floats = [_float_once(v, floats) for v in self.tails]
        self.remainder_floats = [_float_once(v, floats) for v in self.remainders]
        # through the accessors, so perfbench's spans on beta/a_tilde see them
        self.beta_floats = [_to_float(self.beta(n)) for n in range(len(self))]
        self.a_tilde_floats = [_to_float(self.a_tilde(n)) for n in range(len(self))]

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
        a = self.slope
        if a.kind == "rational":
            return sign * (a.value * q - p)
        if a.kind == "quadratic":
            return (a.value * q - p) * sign
        with _IvPrec(a.bits):
            return sign * (a.value * q - p)

    def beta_float(self, n: int) -> float:
        return self._entry(self.beta_floats, n, "beta", 1.0)

    def a_tilde(self, n: int):
        """Atilde_n = alpha_0 ... alpha_n; Atilde_{-1} = 1."""
        return self._entry(self.a_tildes, n, "Atilde", 1)

    def a_tilde_float(self, n: int) -> float:
        return self._entry(self.a_tilde_floats, n, "Atilde", 1.0)


def _expand_exact(alpha, n_terms: int):
    """Shared loop for Fraction / QuadraticNumber inputs."""
    coeffs, tails, remainders = [], [], []
    seen = {}
    period = None
    termination = "ok"
    x = alpha
    for n in range(n_terms):
        if isinstance(x, QuadraticNumber):
            key = (x.a, x.b, x.d)
            if key in seen and period is None:
                period = (seen[key], n - seen[key])
            else:
                seen.setdefault(key, n)
            a = x.floor()
        else:
            a = math.floor(x)
        coeffs.append(a)
        tails.append(x)
        rem = x - a
        remainders.append(rem)
        is_zero = rem == 0
        if is_zero:
            termination = "rational_exhausted"
            break
        x = 1 / rem
    # extend the periodic pattern bookkeeping: tails already computed eagerly
    return coeffs, tails, remainders, period, termination


def _expand_real(value, bits: int, n_terms: int):
    coeffs, tails, remainders = [], [], []
    termination = "ok"
    with _IvPrec(bits):
        x = value
        for _ in range(n_terms):
            a = _iv_floor_certified(x)
            if a is None:
                termination = "precision_exhausted"
                break
            coeffs.append(a)
            tails.append(x)
            rem = x - a
            remainders.append(rem)
            if not rem.b > 0:
                # cannot certify rem > 0: either rational or out of digits
                termination = "precision_exhausted"
                break
            if not rem.a > 0:
                termination = "precision_exhausted"
                break
            x = 1 / rem
    return coeffs, tails, remainders, None, termination


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

    if alpha.kind == "real":
        coeffs, tails, remainders, period, termination = _expand_real(
            alpha.value, alpha.bits, n_terms
        )
        if not coeffs:
            raise PrecisionExhausted("not even the first digit is certified")
    else:
        value = alpha.value
        coeffs, tails, remainders, period, termination = _expand_exact(
            value, n_terms
        )

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
    if cf.termination == "rational_exhausted":
        # the final remainder is exactly zero, so beta_{last} degenerates
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
