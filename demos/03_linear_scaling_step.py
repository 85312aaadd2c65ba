"""The linear rescaling step: mode transport, analyticity gain, norm bound.

Composing with the shift matrix T_a sends mode k to T_a* k and multiplies
the coefficient by T_a^{-1}.  On the resonant cone the transported modes
shrink, so the field gains analyticity width: measured operator norms sit
far below the guaranteed bound 6 pi a/(rho' - kappa rho) + 3 a.
"""

import math

import numpy as np

from torusrenorm.fourier_field import FourierVectorField, norm_prime_r, norm_r
from torusrenorm.scaling_step import (
    kappa_from_sigma,
    operator_norm_bound,
    random_resonant_field,
    scale_step,
)

GAMMA = (1 + math.sqrt(5)) / 2
OMEGA = np.array([1.0, GAMMA])
RHO, RHO_PRIME = 1.0, 0.9
SIGMA = 0.1
KAPPA = kappa_from_sigma(SIGMA)

print("=== the constant field is an eigen-direction ===")
x = FourierVectorField.constant(OMEGA, 32)
y = scale_step(x, 1, RHO, RHO_PRIME, KAPPA)
print(f"T_1^(-1) (1, gamma) = {np.real(y.average())}  "
      f"(= (1, gamma)/gamma: same slope, contracted by 1/gamma)")

print("\n=== one oscillatory mode: the l1 norm of k halves ===")
x = FourierVectorField({(1, -1): [1e-3, 0]}, 8)
y = scale_step(x, 1, RHO, RHO_PRIME, KAPPA)
print(f"mode (1,-1) -> {list(y.modes)[0]}")

print("\n=== operator norm against the bound, 100 random resonant fields ===")
bound = operator_norm_bound(1, RHO, RHO_PRIME, KAPPA)
rng = np.random.default_rng(42)
ratios = []
for _ in range(100):
    f = random_resonant_field(OMEGA, SIGMA, 1e-3, 32, rng, width=RHO_PRIME)
    g = scale_step(f, 1, RHO, RHO_PRIME, KAPPA)
    ratios.append(norm_prime_r(g, RHO) / norm_r(f, RHO_PRIME))
ratios = np.array(ratios)
print(f"bound        : {bound:.2f}")
print(f"measured     : min {ratios.min():.3f}  mean {ratios.mean():.3f}  "
      f"max {ratios.max():.3f}")
print(f"worst margin : {ratios.max() / bound:.2e} of the bound")
print("\nthe gap is the analyticity gain: weights e^{rho||T*k||} shrink by")
print("e^{(kappa rho - rho')||k||} per mode before the bound even applies.")
