"""Eliminating far-from-resonance modes by a change of coordinates.

The map U = id + u, with u supported where |psi . k| > sigma ||k||, kills
the large-divisor modes of (DU)^{-1} X o U.  Newton sweeps built on the
safe divisions u_k = g_k/(2 pi i psi . k) converge quadratically: first
sweep residual O(eps^2), and the derivative of the whole elimination at
psi is exactly the resonant projection.
"""

import math

import numpy as np

from torusrenorm.fourier_field import (
    FarResonant,
    FourierVectorField,
    norm_r,
    project,
)
from torusrenorm.normalization_step import eliminate_far_perturbation

GAMMA = (1 + math.sqrt(5)) / 2
PSI = np.array([1.0, GAMMA])
SIGMA = 0.1
TRUNC = 12
CONE = FarResonant((PSI[0], PSI[1]), SIGMA)


def perturbed(eps, seed=0):
    rng = np.random.default_rng(seed)
    modes = {}
    for k in [(1, 1), (2, -1), (-3, 2), (0, 1), (4, 1)]:
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        modes[k] = c * math.exp(-0.9 * (abs(k[0]) + abs(k[1])))
        modes[(-k[0], -k[1])] = np.conj(modes[k])
    pert = FourierVectorField(modes, 0.9, TRUNC)
    pert = pert * (eps / norm_r(pert, 0.9))
    return FourierVectorField.constant(PSI, 0.9, TRUNC) + pert, pert


print("=== Newton sweep residuals at perturbation 1e-3 ===")
x, _ = perturbed(1e-3)
result = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                    tol=1e-12)
for i, r in enumerate(result.residuals):
    print(f"  sweep {i}: far residual {r:.3e}")
print(f"converged in {result.sweeps} sweeps; displacement on "
      f"{len(result.map.displacement)} far modes, sup|Du| <= "
      f"{result.du_sup_bound:.2e}")
print(f"guaranteed ball radius {result.eps_hat:.1e} "
      f"(inside: {result.inside_ball}) -- the practical basin is far larger")

print("\n=== first-sweep residual is quadratic in the perturbation ===")
print(f"{'eps':>8} {'first sweep':>12} {'ratio to eps^2':>15}")
for eps in (1e-3, 1e-4, 1e-5):
    x, _ = perturbed(eps)
    r = eliminate_far_perturbation(PSI, x.minus_constant(PSI), SIGMA,
                                   tol=1e-13)
    print(f"{eps:>8.0e} {r.residuals[1]:>12.3e} {r.residuals[1] / eps**2:>15.2f}")

print("\n=== the derivative at psi is the resonant projection ===")
eps = 1e-6
_, f = perturbed(1.0, seed=4)
f = f * (1.0 / norm_r(f, 0.9))
x_plus = FourierVectorField.constant(PSI, 0.9, TRUNC) + f * eps
x_minus = FourierVectorField.constant(PSI, 0.9, TRUNC) + f * (-eps)
plus = eliminate_far_perturbation(PSI, x_plus.minus_constant(PSI), SIGMA,
                                  tol=1e-13).field
minus = eliminate_far_perturbation(PSI, x_minus.minus_constant(PSI), SIGMA,
                                   tol=1e-13).field
derivative = (plus - minus) * (1.0 / (2 * eps))
err = norm_r(derivative - project(f, CONE, "inside"), 0.9)
print(f"central difference vs resonant projection: {err:.2e}")
