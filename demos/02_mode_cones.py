"""Resonant and contracting mode cones, and why one fits inside the other.

A mode k is resonant for omega when |omega . k| <= sigma ||k||_1 (the small
divisors); it contracts under the shift matrix when ||T_a* k|| <= kappa
||k||.  The linear step is only useful because the first cone sits inside
the second for kappa >= 1 - (1 - 3 sigma)/3, which we verify exhaustively.
"""

import math

from torusrenorm.fourier_field import FarResonant, Kappa
from torusrenorm.scaling_step import (
    cone_containment_certificate,
    kappa_from_sigma,
    resonant_modes,
)

GAMMA = (1 + math.sqrt(5)) / 2
OMEGA = (1.0, GAMMA)
SIGMA = 0.1
KAPPA = kappa_from_sigma(SIGMA)

print(f"omega = (1, gamma), sigma = {SIGMA}, kappa = {KAPPA:.4f}\n")

print("=== the resonant family within ||k||_1 <= 32 ===")
modes = [k for k in map(tuple, resonant_modes(OMEGA, SIGMA, 32).tolist())
         if k > (0, 0)]
for k in sorted(modes, key=lambda k: abs(k[0]) + abs(k[1]))[:10]:
    divisor = abs(k[0] + GAMMA * k[1])
    image = (k[1], k[0] + k[1])
    shrink = (abs(image[0]) + abs(image[1])) / (abs(k[0]) + abs(k[1]))
    print(f"  k={k!s:>10}  |omega.k|={divisor:.4f}  T*k={image!s:>10}  "
          f"||T*k||/||k||={shrink:.3f}")
print("(these are convergent-numerator pairs: the cone hugs the omega line)")

print("\n=== membership spot checks ===")
cone = FarResonant(OMEGA, 0.25)
print(f"k=(-3, 2): |omega.k| = {abs(-3 + 2 * GAMMA):.4f} -> "
      f"{'resonant' if cone.contains((-3, 2)) else 'far'}")
print(f"k=( 1, 1): |omega.k| = {abs(1 + GAMMA):.4f} -> "
      f"{'resonant' if cone.contains((1, 1)) else 'far'}")
kcone = Kappa(1, 0.8)
print(f"k=(-3, 2) contracts under T_1: {kcone.contains((-3, 2))}")

print("\n=== exhaustive containment certificates ===")
for alpha in (GAMMA, math.sqrt(2), 1 + math.sqrt(2)):
    cert = cone_containment_certificate(
        (1.0, alpha), SIGMA, int(alpha), KAPPA, 50
    )
    s = cert.slopes
    print(f"alpha={alpha:.4f}: checked {cert.checked:>3} resonant modes -> "
          f"{'pass' if cert.passed else 'FAIL'};  boundary slopes "
          f"r={s['r']:.3f} <= l={s['l']:.3f} <= m={s['m']:.3f} <= s={s['s']:.3f}")

print("\n=== a kappa that is too small fails with a witness ===")
cert = cone_containment_certificate(OMEGA, SIGMA, 1, 0.1, 50)
print(f"kappa=0.1: witness {cert.witness} escapes the contracting cone")
