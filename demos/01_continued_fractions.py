"""Continued fractions: expansions, convergents, and diophantine growth.

The frequency slope drives everything downstream, so we start with the
arithmetic: exact expansions for quadratic irrationals, interval-certified
digits for decimal input, and the four growth diagnostics that distinguish
constant-type numbers from slopes with exploding coefficients.
"""

import mpmath

from torusrenorm.number_theory import Slope, cf_expand, diophantine_probe

print("=== golden mean and sqrt(2): exact, eventually periodic ===")
for name, slope in [("golden", Slope.golden()), ("sqrt2", Slope.sqrt2())]:
    cf = cf_expand(slope, 30)
    print(f"{name:>7}: a = {cf.coefficients[:10]}...  period {cf.period}")

print("\n=== e - 2 at 256 bits: digits certified by interval arithmetic ===")
digits = mpmath.nstr(mpmath.mpf(mpmath.e) - 2, 85)
cf = cf_expand(Slope.real(digits, bits=256), 30)
print(f"a = {cf.coefficients}")
print(f"termination: {cf.termination} after {len(cf)} certified digits")

print("\n=== convergents of sqrt(2): p/q with the sandwich on beta_n ===")
cf = cf_expand(Slope.sqrt2(), 12)
print(f"{'n':>2} {'p_n':>6} {'q_n':>6} {'beta_n':>12} {'1/(2q_n+1)':>12} {'1/q_n+1':>12}")
for n in range(8):
    print(f"{n:>2} {cf.p[n]:>6} {cf.q[n]:>6} {cf.beta_float(n):>12.3e} "
          f"{1 / (2 * cf.q[n + 1]):>12.3e} {1 / cf.q[n + 1]:>12.3e}")

print("\n=== diophantine probe at order beta = 0 ===")
for name, slope in [
    ("golden", Slope.golden()),
    ("geometric a_n = 2^n", Slope.from_cf_coefficients([2**i for i in range(11)])),
]:
    cf = cf_expand(slope, 28)
    probe = diophantine_probe(cf, 0.0, 25)
    ks = ", ".join(f"{v:.2f}" for v in probe.K_a[:8])
    print(f"{name}: per-n K_a = [{ks} ...], max {probe.K_max['a']:.1f}")
print("bounded K_a marks a constant-type slope; the geometric example escapes.")
