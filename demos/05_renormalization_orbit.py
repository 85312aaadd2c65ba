"""Iterating the one-step operator: contraction and the unstable direction.

One step = rescale by T_{a_n}, eliminate the new far modes, normalise the
average along omega_{n+1}.  Constant fields with the same slope are fixed
(golden mean) or periodic (quadratic irrationals); nearby fields with the
same winding ratio contract onto the constant orbit, while a constant
component along Omega_0 = (1, -1/alpha) grows by |nu| = gamma^2 per step
until the step's domain ball is exceeded.
"""

import math
import time

from torusrenorm.normalization_step import FarSolves
from torusrenorm.number_theory import Slope
from torusrenorm.renorm_driver import (
    RenormParams,
    renorm_orbit,
    resonant_perturbation,
    stabilize_resonant_perturbation,
    unstable_coordinate,
    unstable_perturbation,
)

GAMMA = (1 + math.sqrt(5)) / 2
PARAMS = RenormParams()

print("=== contracting run: golden slope, winding-preserving perturbation ===")
t0 = time.time()
# the secant's probe orbits and the orbit share one table of far-mode solves
solves = FarSolves()
f0 = resonant_perturbation(Slope.golden(), 1e-3, PARAMS, seed=7)
f0, corrections = stabilize_resonant_perturbation(f0, Slope.golden(), PARAMS,
                                                  solves)
orbit = renorm_orbit(f0, Slope.golden(), 8, PARAMS, solves)
print(f"stabilising corrections along Omega_0: "
      f"{['%.1e' % c for c in corrections]}")
print(f"{'n':>2} {'norm(X_n - omega_n)':>20} {'osc part':>12} {'sweeps':>6}")
for state in orbit.states:
    d = state.diagnostics
    print(f"{state.n:>2} {orbit.norms[state.n]:>20.3e} "
          f"{d.norm_osc if d else 0:>12.3e} "
          f"{d.newton_sweeps if d else '-':>6}")
print(f"fitted geometric rate theta = {orbit.theta_hat:.4f}  "
      f"({time.time() - t0:.1f}s)")

print("\n=== unstable run: 1e-6 along Omega_0 ===")
f0 = unstable_perturbation(GAMMA, 1e-6, PARAMS)
orbit = renorm_orbit(f0, Slope.golden(), 16, PARAMS)
cs = [unstable_coordinate(s) for s in orbit.states]
print(f"{'n':>2} {'Omega coordinate':>17} {'growth factor':>14}")
for n, c in enumerate(cs):
    factor = f"{abs(cs[n] / cs[n - 1]):.4f}" if n else "-"
    print(f"{n:>2} {c:>17.3e} {factor:>14}")
print(f"predicted |nu| = gamma^2 = {GAMMA**2:.4f}")
print(f"orbit rejected at step {orbit.failure.step}: {orbit.failure}")
