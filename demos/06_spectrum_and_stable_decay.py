"""Derivative diagnostics: the constant block and super-geometric decay.

On constant fields the step derivative is a rank-one 2x2 block with
eigenvalue 0 along omega_n and nu_n = trace along the next orthogonal
direction.  On oscillatory fields, composed truncated linear steps
L_n o ... o L_j contract faster than any geometric rate: each extra
projection stage kills every mode below an exponentially growing size,
which is what the quantities Lambda_{j,n} track.
"""

import math

import numpy as np

from torusrenorm.number_theory import Slope, cf_expand
from torusrenorm.renorm_driver import (
    RenormParams,
    constant_block,
    stable_decay_probe,
)

GAMMA = (1 + math.sqrt(5)) / 2

print("=== constant block along the golden orbit ===")
cb = constant_block(GAMMA)
print(f"G = \n{np.round(cb.matrix, 6)}")
print(f"det G = {np.linalg.det(cb.matrix):.1e}   nu = {cb.nu:.6f} "
      f"(= -gamma^2 = {-GAMMA**2:.6f})")
print(f"G omega = {np.round(cb.matrix @ cb.eigvec_zero, 12)} (stable, eigenvalue 0)")
print(f"G Omega'/ nu = {np.round(cb.matrix @ cb.eigvec_nu / cb.nu, 6)} "
      f"vs Omega' = {np.round(cb.eigvec_nu, 6)}")

print("\n=== nu along an aperiodic orbit (slope e - 2, shifted by S) ===")
import mpmath
slope = Slope.real(mpmath.nstr(mpmath.mpf(mpmath.e) - 2, 60), bits=200)
cf = cf_expand(slope, 12)
for n in range(1, 7):
    alpha = cf.tail_float(n)
    print(f"  n={n}: alpha_n={alpha:.4f}  nu_n={constant_block(alpha).nu:+.4f}")

print("\n=== composed truncated steps: super-geometric decay (golden, n=6) ===")
cf = cf_expand(Slope.golden(), 10)
rep = stable_decay_probe(cf, 6, RenormParams(truncation=60))
ratios = rep.log_ratios()
print(f"{'j':>2} {'surviving':>9} {'||L_n...L_j(I-E)||':>19} {'l2':>10} "
      f"{'Lambda':>8} {'log gain':>9}")
for i, j in enumerate(rep.j_values):
    gain = f"{ratios[int(j)]:.2f}" if int(j) in ratios else "-"
    print(f"{int(j):>2} {int(rep.surviving[i]):>9} {rep.norm_l1[i]:>19.3e} "
          f"{rep.norm_l2[i]:>10.2e} {rep.lambdas[i]:>8.1f} {gain:>9}")
print("each extra factor multiplies the norm by a smaller number: the log")
print("gain grows with n - j alongside Lambda_{j,n}, so no fixed geometric")
print("rate is a lower bound -- the oscillatory part dies super-fast.")
