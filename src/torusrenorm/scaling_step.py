"""The linear rescaling step of the renormalisation.

Composing a resonant field with the shift matrix T_a transports every
mode k to T_a* k and every coefficient to T_a^{-1} f_k.  On the
contracting cone ||T_a* k|| <= kappa ||k|| this improves analyticity:
the image is bounded in the stronger norm at the wider width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConeViolation, DomainError
from .fourier_field import FourierVectorField, mode_index, mode_l1
from .number_theory import t_matrix


def operator_norm_bound(a: int, rho: float, rho_prime: float, kappa: float) -> float:
    """Norm bound 6 pi a / (rho' - kappa rho) + 3 a of the rescaling step."""
    if not kappa * rho < rho_prime:
        raise DomainError(
            f"need kappa*rho < rho', got {kappa * rho:.4f} >= {rho_prime:.4f}"
        )
    return 6.0 * math.pi * a / (rho_prime - kappa * rho) + 3.0 * a


def scale_step(
    x: FourierVectorField,
    a: int,
    rho: float,
    rho_prime: float,
    kappa: float,
) -> FourierVectorField:
    """Transport modes by T_a* and coefficients by T_a^{-1}.

    Every input mode must satisfy ||T_a* k|| <= kappa ||k||; a violating
    mode raises ConeViolation (dropping it silently would fake the
    analyticity gain).  The output carries the target width rho.
    """
    if not kappa * rho < rho_prime:
        raise DomainError(
            f"need kappa*rho < rho', got {kappa * rho:.4f} >= {rho_prime:.4f}"
        )
    ks = x.index.k[x.support()]
    image_l1 = np.abs(ks[:, 1]) + np.abs(ks[:, 0] + a * ks[:, 1])
    violating = np.flatnonzero(image_l1 > kappa * np.abs(ks).sum(axis=1))
    if violating.size:
        k = tuple(int(v) for v in ks[violating[0]])
        image = (k[1], k[0] + a * k[1])
        raise ConeViolation(
            f"mode {k} maps to {image}: ||T*k||={mode_l1(image)} > "
            f"kappa*||k||={kappa * mode_l1(k):.3f}; sigma/kappa mismatch"
        )
    t = t_matrix(a)
    t_inv = t.inverse().as_array().astype(float)
    # T_a is symmetric, so T_a* k = T_a k
    return x.transport(t.as_array(), t_inv).with_width(rho)


@dataclass
class ConeCertificate:
    """Exhaustive containment check of the resonant cone in the kappa cone.

    slopes holds the bounding-line slopes (m, l) of the resonant cone and
    (s, r) of the contracting cone; containment needs r <= l <= m <= s.
    """

    passed: bool
    witness: tuple | None
    slopes: dict
    checked: int
    k_max: int


def cone_containment_certificate(
    omega, sigma: float, a: int, kappa: float, k_max: int
) -> ConeCertificate:
    """Check ||T_a* k|| <= kappa ||k|| for every resonant k with ||k|| <= k_max."""
    w1, w2 = float(omega[0]), float(omega[1])
    if w1 <= 0 or w2 <= 0:
        raise ValueError("certificate assumes omega with positive entries")
    slopes = {
        "m": -(w1 - sigma) / (w2 + sigma),
        "l": -(w1 + sigma) / (w2 - sigma) if w2 > sigma else -math.inf,
        "s": -(1 - kappa) / (a - 1 + kappa),
        "r": -(1 + kappa) / (a + 1 - kappa),
    }
    witness = None
    checked = 0
    for k1 in range(-k_max, k_max + 1):
        rest = k_max - abs(k1)
        for k2 in range(-rest, rest + 1):
            k = (k1, k2)
            if k == (0, 0):
                continue
            if abs(w1 * k1 + w2 * k2) > sigma * mode_l1(k):
                continue  # far from resonance, not our problem
            checked += 1
            image = (k2, k1 + a * k2)
            if mode_l1(image) > kappa * mode_l1(k):
                witness = k
                return ConeCertificate(False, witness, slopes, checked, k_max)
    return ConeCertificate(True, None, slopes, checked, k_max)


def kappa_from_sigma(sigma: float) -> float:
    """Sufficient contraction factor 1 - (1 - 3 sigma)/3 for omega=(1,alpha)."""
    if not 0 < sigma < 1 / 3:
        raise ValueError("the simplified criterion needs 0 < sigma < 1/3")
    return 1.0 - (1.0 - 3.0 * sigma) / 3.0


def derivative_weight_delta(rho: float, rho_prime: float, kappa: float) -> float:
    """Diagnostic margin delta = kappa (rho' - kappa rho) in the derivative
    bound ||D(X o T_a)|| <= (2 pi kappa / delta) ||X||; any 0 < delta <
    rho' - kappa rho works, this is the conventional choice."""
    if not kappa * rho < rho_prime:
        raise DomainError("need kappa*rho < rho'")
    return kappa * (rho_prime - kappa * rho)


def resonant_modes(omega, sigma: float, truncation: int) -> np.ndarray:
    """The nonzero modes with |omega . k| <= sigma ||k||_1 and ||k||_1 <=
    truncation, as an (M, 2) int64 array in lexicographic order."""
    w1, w2 = float(omega[0]), float(omega[1])
    index = mode_index(truncation)
    k = index.k
    keep = np.abs(w1 * k[:, 0] + w2 * k[:, 1]) <= sigma * index.l1
    keep[len(index) // 2] = False
    return k[keep]


def random_resonant_field(
    omega,
    sigma: float,
    amplitude: float,
    truncation: int,
    rng: np.random.Generator,
    width: float = 0.9,
    n_modes: int | None = None,
) -> FourierVectorField:
    """Reality-symmetric zero-average field supported on the resonant cone.

    Random coefficients on resonant mode pairs (k, -k) -- by default on the
    whole admitted cone, so the deep modes with long contracting chains
    carry mass -- rescaled so the norm at `width` equals `amplitude`.
    """
    ks = resonant_modes(omega, sigma, truncation)
    # one mode of each pair (k, -k): those with k > 0 lexicographically
    candidates = ks[(ks[:, 0] > 0) | ((ks[:, 0] == 0) & (ks[:, 1] > 0))]
    if not len(candidates):
        raise ValueError("no resonant modes inside the truncation")
    if n_modes is None:
        n_modes = len(candidates)
    picks = rng.choice(len(candidates), size=min(n_modes, len(candidates)),
                       replace=False)
    modes = {}
    for i in picks:
        k = tuple(candidates[i].tolist())
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = c * math.exp(-width * mode_l1(k))
        modes[k] = c
        modes[(-k[0], -k[1])] = np.conj(c)
    field = FourierVectorField(modes, width, truncation)
    # the norm summed in pick order: the scale, hence every coefficient
    # drawn for a seed, keeps its bits whatever order norm_r sums in
    size = sum(float(abs(c[0]) + abs(c[1])) * math.exp(width * mode_l1(k))
               for k, c in modes.items())
    return field * (amplitude / float(size))
