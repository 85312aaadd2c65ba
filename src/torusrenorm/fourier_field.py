"""Truncated Fourier representation of analytic vector fields on the 2-torus.

A field X(theta) = sum_k f_k exp(2*pi*i k.theta) with truncation T is
stored as one read-only (2, N_T) complex array over the canonical mode
index of T: the l1 disc ||k||_1 <= T in lexicographic (k1, k2) order.
The index, its grid positions, the norm weights and the cone masks are
built on first use and cached per truncation, so norms, projections,
transports and grid transforms are array operations.  The module
provides the two weighted coefficient norms, resonant/contracting cone
projections, grid sampling and fitting (on numpy FFTs that give
scipy.fft's bits) and JSON serialisation.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

TWO_PI = 2.0 * math.pi
# fit_grid chops coefficients below this fraction of the largest grid value
CHOP_REL = 64.0 * np.finfo(float).eps


def fft2(x: np.ndarray, axes) -> np.ndarray:
    """The unscaled 2-D DFT over axes, as scipy.fft.fft2 computes it bit
    for bit: numpy's pocketfft along the first axis, then in place along
    the second (one output array, as in scipy, takes half the time of
    two)."""
    y = np.fft.fft(x, axis=axes[0], out=np.empty(x.shape, dtype=complex))
    return np.fft.fft(y, axis=axes[1], out=y)


def ifft2(x: np.ndarray, axes) -> np.ndarray:
    """The inverse 2-D DFT over axes, as scipy.fft.ifft2 computes it bit for
    bit: unscaled along the first axis, then 1 / (n1 n2) on the real and
    imaginary parts separately (a complex product would flip signed zeros),
    then unscaled in place along the second axis."""
    y = np.fft.ifft(x, axis=axes[0], norm="forward",
                    out=np.empty(x.shape, dtype=complex))
    y.view(np.float64)[...] *= 1.0 / (x.shape[axes[0]] * x.shape[axes[1]])
    return np.fft.ifft(y, axis=axes[1], norm="forward", out=y)


def next_fast_len(n: int) -> int:
    """The least 11-smooth integer >= n, scipy.fft.next_fast_len(n)."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _l1(v) -> float:
    return float(abs(v[0]) + abs(v[1]))


def mode_l1(k) -> int:
    return abs(k[0]) + abs(k[1])


def _truncation(t) -> int:
    """t as an int; anything but a non-negative integer raises ValueError."""
    try:
        if operator.index(t) >= 0:
            return operator.index(t)
    except TypeError:
        pass
    raise ValueError(f"truncation must be a non-negative integer, got {t!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ModeIndex:
    """The modes ||k||_1 <= T in lexicographic (k1, k2) order.

    k[i] is the mode at position i; -k[i] sits at N - 1 - i and the zero
    mode at the centre N // 2.
    """

    __slots__ = ("truncation", "k", "l1", "_table")

    def __init__(self, truncation: int):
        t = truncation
        # row k1 holds k2 = |k1| - t, ..., t - |k1|: 2 (t - |k1|) + 1 modes
        rows = np.arange(-t, t + 1, dtype=np.int64)
        lengths = 2 * (t - np.abs(rows)) + 1
        starts = np.cumsum(lengths) - lengths
        k1 = np.repeat(rows, lengths)
        k2 = np.arange(len(k1)) - np.repeat(starts, lengths) + np.abs(k1) - t
        k = np.stack([k1, k2], axis=1)
        self.truncation = t
        self.k = _frozen(k)
        self.l1 = _frozen(np.abs(k).sum(axis=1))
        table = np.full((2 * t + 1, 2 * t + 1), -1, dtype=np.intp)
        table[k[:, 0] + t, k[:, 1] + t] = np.arange(len(k))
        self._table = _frozen(table)

    def __len__(self):
        return len(self.l1)

    def positions(self, ks) -> np.ndarray:
        """Positions of the modes ks, an (M, 2) integer array."""
        ks = np.asarray(ks, dtype=np.int64).reshape(-1, 2)
        outside = np.abs(ks).sum(axis=1) > self.truncation
        if outside.any():
            k = tuple(int(v) for v in ks[np.argmax(outside)])
            raise ValueError(f"mode {k} outside truncation {self.truncation}")
        t = self.truncation
        return self._table[ks[:, 0] + t, ks[:, 1] + t]


@functools.lru_cache(maxsize=32)
def mode_index(truncation: int) -> ModeIndex:
    return ModeIndex(truncation)


@functools.lru_cache(maxsize=32)
def _grid_positions(truncation: int, grid: int):
    """Grid cell (k1 mod G, k2 mod G) of every mode of the index."""
    k = mode_index(truncation).k
    return _frozen(k[:, 0] % grid), _frozen(k[:, 1] % grid)


@functools.lru_cache(maxsize=64)
def _exp_weights(truncation: int, r: float) -> np.ndarray:
    """exp(r ||k||_1) per position, from math.exp as in the per-mode sums."""
    table = np.array([math.exp(r * n) for n in range(truncation + 1)])
    return _frozen(table[mode_index(truncation).l1])


def _mass(x: "FourierVectorField") -> np.ndarray:
    """||f_k||_1 per position; np.hypot rounds like abs() of one complex."""
    a = np.hypot(x.coeffs.real, x.coeffs.imag)
    return a[0] + a[1]


def _matrix_apply(m, c: np.ndarray) -> np.ndarray:
    """m @ c for every column of c, elementwise: a BLAS matmul may fuse
    multiply-adds and move last bits against the per-mode product."""
    return np.stack([m[0, 0] * c[0] + m[0, 1] * c[1],
                     m[1, 0] * c[0] + m[1, 1] * c[1]])


class FourierVectorField:
    """Immutable truncated Fourier series of a vector field on T^2.

    coeffs is a read-only (2, N_T) complex array over
    mode_index(truncation); modes is a read-only mapping view of the
    nonzero modes, in sorted order.  A field has no width of its own: the
    norms norm_r and norm_prime_r take the width as an argument.
    """

    __slots__ = ("coeffs", "truncation", "_modes")

    def __init__(self, modes, truncation: int):
        index = mode_index(_truncation(truncation))
        coeffs = np.zeros((2, len(index)), dtype=complex)
        if modes:
            keys = [(int(k[0]), int(k[1])) for k in modes]
            positions = index.positions(keys)
            values = [np.asarray(c, dtype=complex) for c in modes.values()]
            if any(c.shape != (2,) for c in values):
                raise ValueError("coefficients must be 2-vectors")
            coeffs[:, positions] = np.array(values).T
        self._set(coeffs, truncation)

    @classmethod
    def from_array(cls, coeffs: np.ndarray, truncation: int):
        """Field over mode_index(truncation) with the complex (2, N_T)
        array coeffs, which it keeps without a copy and marks read-only."""
        x = cls.__new__(cls)
        x._set(coeffs, truncation)
        return x

    def _set(self, coeffs, truncation):
        truncation = _truncation(truncation)
        if coeffs.shape != (2, len(mode_index(truncation))) or coeffs.dtype != complex:
            raise ValueError(f"coefficients must be a complex (2, N_T) array "
                             f"for truncation {truncation}")
        object.__setattr__(self, "coeffs", _frozen(coeffs))
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "_modes", None)

    def __setattr__(self, *args):
        raise AttributeError("FourierVectorField is immutable")

    # constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, vec, truncation: int = 32):
        return cls({(0, 0): np.asarray(vec, dtype=complex)}, truncation)

    @classmethod
    def zero(cls, truncation: int = 32):
        return cls({}, truncation)

    # basic queries ---------------------------------------------------------

    @property
    def index(self) -> ModeIndex:
        return mode_index(self.truncation)

    def support(self) -> np.ndarray:
        """Positions of the nonzero modes, in index (sorted) order."""
        c = self.coeffs
        return np.flatnonzero((c[0] != 0) | (c[1] != 0))

    @property
    def modes(self):
        """Read-only mapping from each nonzero mode to its coefficient."""
        if self._modes is None:
            k = self.index.k
            view = {(int(k[i, 0]), int(k[i, 1])): self.coeffs[:, i]
                    for i in self.support()}
            object.__setattr__(self, "_modes", MappingProxyType(view))
        return self._modes

    def average(self) -> np.ndarray:
        return self.coeffs[:, self.coeffs.shape[1] // 2].copy()

    def __len__(self):
        return len(self.support())

    def is_real_symmetric(self, tol: float = 1e-10) -> bool:
        nz = self.support()
        c = self.coeffs[:, nz]
        c_neg = self.coeffs[:, len(self.index) - 1 - nz]
        gap = np.abs(c_neg - np.conj(c)).sum(axis=0)
        return bool(np.all(gap <= tol * np.maximum(1.0, np.abs(c).sum(axis=0))))

    # algebra ---------------------------------------------------------------

    def _combined(self, other, op):
        if other.truncation != self.truncation:
            raise ValueError(f"truncations {self.truncation} and "
                             f"{other.truncation} differ")
        return FourierVectorField.from_array(op(self.coeffs, other.coeffs),
                                             self.truncation)

    def __add__(self, other):
        return self._combined(other, np.add)

    def __sub__(self, other):
        return self._combined(other, np.subtract)

    def __mul__(self, scalar):
        return FourierVectorField.from_array(self.coeffs * scalar,
                                             self.truncation)

    __rmul__ = __mul__

    def transport(self, mode_map, m) -> "FourierVectorField":
        """Move the coefficient c of mode k to mode mode_map @ k, as m @ c.

        mode_map is an integer 2x2 matrix of determinant +-1; every image
        of a nonzero mode must lie inside the truncation.
        """
        nz = self.support()
        images = self.index.k[nz] @ np.asarray(mode_map, dtype=np.int64).T
        out = np.zeros_like(self.coeffs)
        out[:, self.index.positions(images)] = _matrix_apply(
            np.asarray(m), self.coeffs[:, nz]
        )
        return FourierVectorField.from_array(out, self.truncation)

    def minus_constant(self, vec) -> "FourierVectorField":
        out = self.coeffs.copy()
        z = out.shape[1] // 2
        out[:, z] = out[:, z] - np.asarray(vec, dtype=complex)
        return FourierVectorField.from_array(out, self.truncation)

    def oscillatory(self) -> "FourierVectorField":
        """The field minus its spatial average: (I - E)X."""
        out = self.coeffs.copy()
        out[:, out.shape[1] // 2] = 0
        return FourierVectorField.from_array(out, self.truncation)

    # grids -----------------------------------------------------------------

    def sample_grid(self, grid: int) -> np.ndarray:
        """Values on the uniform grid theta = (j1, j2)/grid, shape (2, G, G)."""
        spec = np.zeros((2, grid, grid), dtype=complex)
        i1, i2 = _grid_positions(self.truncation, grid)
        np.add.at(spec, (slice(None), i1, i2), self.coeffs)
        values = ifft2(spec, axes=(1, 2))
        values *= grid
        values *= grid
        return values

    def __repr__(self):
        return (
            f"FourierVectorField({len(self)} modes, "
            f"truncation={self.truncation})"
        )


@dataclass(frozen=True)
class GridFitReport:
    dropped_mass: float
    alias_residual: float
    floor: float


def fit_grid(values: np.ndarray, truncation: int):
    """Fit grid values (2, G, G) into a truncated field.

    Coefficients below CHOP_REL * max|values| are treated as grid noise
    and dropped; that floor keeps the exponentially weighted norms from
    amplifying FFT round-off.  Mass outside the truncation disc is
    reported as the aliasing residual, dropped noise as dropped_mass.
    """
    grid = values.shape[-1]
    if grid < 2 * truncation + 1:
        raise ValueError(f"grid {grid} cannot resolve truncation {truncation}")
    spec = fft2(values, axes=(1, 2)) / (grid * grid)
    floor = CHOP_REL * max(np.max(np.abs(values)), 1e-300)
    idx = np.fft.fftfreq(grid, d=1.0 / grid).astype(int)
    l1_grid = np.abs(idx)[:, None] + np.abs(idx)[None, :]
    mass = np.abs(spec[0]) + np.abs(spec[1])
    outside = l1_grid > truncation
    alias = float(np.max(mass[outside])) if outside.any() else 0.0
    dropped = float(np.sum(mass[(~outside) & (mass > 0) & (mass < floor)]))
    i1, i2 = _grid_positions(truncation, grid)
    coeffs = spec[:, i1, i2]
    coeffs[:, mass[i1, i2] < floor] = 0
    field = FourierVectorField.from_array(coeffs, truncation)
    return field, GridFitReport(dropped_mass=dropped, alias_residual=alias,
                                floor=floor)


# ---------------------------------------------------------------------------
# norms


def norm_r(x: FourierVectorField, r: float) -> float:
    """sum_k ||f_k||_1 exp(r ||k||_1)."""
    if r <= 0:
        raise ValueError("width must be positive")
    return float(np.sum(_mass(x) * _exp_weights(x.truncation, r)))


def norm_prime_r(x: FourierVectorField, r: float) -> float:
    """sum_k (1 + 2 pi ||k||_1) ||f_k||_1 exp(r ||k||_1)."""
    if r <= 0:
        raise ValueError("width must be positive")
    factors = 1.0 + TWO_PI * x.index.l1
    return float(np.sum(factors * _mass(x) * _exp_weights(x.truncation, r)))


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class FarResonant:
    """Resonance cone for psi: inside = {k : |psi . k| <= sigma ||k||_1}."""

    psi: tuple
    sigma: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        object.__setattr__(self, "psi", (complex(psi[0]), complex(psi[1])))
        if not 0 < self.sigma < _l1(psi):
            raise ValueError("need 0 < sigma < ||psi||")

    def contains(self, k) -> bool:
        dot = self.psi[0] * k[0] + self.psi[1] * k[1]
        return abs(dot) <= self.sigma * mode_l1(k)

    def contains_all(self, ks: np.ndarray) -> np.ndarray:
        """contains() for every row of the (M, 2) integer array ks."""
        dot = self.psi[0] * ks[:, 0] + self.psi[1] * ks[:, 1]
        return np.hypot(dot.real, dot.imag) <= self.sigma * np.abs(ks).sum(axis=1)


@dataclass(frozen=True)
class Kappa:
    """Contracting cone of the shift matrix: inside = {k: ||T_a* k|| <= kappa ||k||}."""

    a: int
    kappa: float

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("need a >= 1")
        if not 0.5 < self.kappa < 1:
            raise ValueError("need 1/2 < kappa < 1")

    def contains(self, k) -> bool:
        # T_a is symmetric, so T_a* k = (k2, k1 + a k2)
        image = (k[1], k[0] + self.a * k[1])
        return mode_l1(image) <= self.kappa * mode_l1(k)

    def contains_all(self, ks: np.ndarray) -> np.ndarray:
        """contains() for every row of the (M, 2) integer array ks."""
        return contracts(ks, self.a, self.kappa)


def contracts(ks: np.ndarray, a: int, kappa: float) -> np.ndarray:
    """||T_a* k||_1 <= kappa ||k||_1 for every row of the (M, 2) integer
    array ks, at any kappa (the Kappa cone asks 1/2 < kappa < 1)."""
    image_l1 = np.abs(ks[:, 1]) + np.abs(ks[:, 0] + a * ks[:, 1])
    return image_l1 <= kappa * np.abs(ks).sum(axis=1)


@functools.lru_cache(maxsize=64)
def cone_mask(cone, truncation: int) -> np.ndarray:
    """Which modes of mode_index(truncation) lie inside the cone."""
    return _frozen(cone.contains_all(mode_index(truncation).k))


def project(x: FourierVectorField, cone, side: str) -> FourierVectorField:
    """Keep the modes inside (resonant/contracting) or outside the cone."""
    if side not in ("inside", "outside"):
        raise ValueError("side must be 'inside' or 'outside'")
    keep = cone_mask(cone, x.truncation)
    if side == "outside":
        keep = ~keep
    return FourierVectorField.from_array(np.where(keep, x.coeffs, 0),
                                         x.truncation)


# ---------------------------------------------------------------------------
# serialisation


def field_to_dict(x: FourierVectorField, displacement: bool = False) -> dict:
    entries = []
    for k, c in x.modes.items():
        entries.append(
            {
                "k": [k[0], k[1]],
                "re": [float(c[0].real), float(c[1].real)],
                "im": [float(c[0].imag), float(c[1].imag)],
            }
        )
    out = {"truncation": x.truncation, "modes": entries}
    if displacement:
        out["displacement"] = True
    return out


def field_from_dict(data: dict) -> FourierVectorField:
    modes = {}
    for entry in data["modes"]:
        k = (int(entry["k"][0]), int(entry["k"][1]))
        modes[k] = np.array(
            [
                entry["re"][0] + 1j * entry["im"][0],
                entry["re"][1] + 1j * entry["im"][1],
            ]
        )
    # a "width" key, which older files carry, is ignored
    return FourierVectorField(modes, data["truncation"])


def save_field(x: FourierVectorField, path):
    with open(path, "w") as fh:
        json.dump(field_to_dict(x), fh, indent=1)


def load_field(path) -> FourierVectorField:
    with open(path) as fh:
        return field_from_dict(json.load(fh))

