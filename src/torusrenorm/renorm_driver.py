"""The one-step renormalisation operator and its orbit diagnostics.

One step at frequency omega_n = (1, alpha_n): rescale the field by the
shift matrix T_{a_n}, eliminate the far-from-resonance modes of the new
frequency by a change of coordinates, and normalise the average along
omega_{n+1}.  The frequency orbit follows the continued-fraction tails
alpha_n exactly; states internally carry the perturbation X_n - omega_n,
so field round-off stays proportional to the perturbation size rather
than to ||omega||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DomainExceeded
from .fourier_field import (
    FarResonant,
    FourierVectorField,
    norm_r,
    project,
)
from .normalization_step import FarSolves, eliminate_far_perturbation
from .number_theory import CFExpansion, GL2Z, S, Slope, V, act_on_slope, cf_expand
from .scaling_step import (
    kappa_from_sigma,
    random_resonant_field,
    resonant_modes,
    scale_step,
)


# the constant c' of the step's domain radius zeta_n = c'/(alpha_n alpha_{n+1})
C_PRIME = 1e-2
# the stabilising secant: rounds of probe orbits of PROBE_STEPS steps
PROBE_STEPS = 6
STABILIZE_ROUNDS = 3
# the orbit's rate and monotonicity read its norms from step FIT_FROM on
FIT_FROM = 2


@dataclass(frozen=True)
class RenormParams:
    """Shared step parameters; one (rho, rho', kappa, sigma) for every step."""

    sigma: float = 0.1
    rho: float = 1.0
    rho_prime: float = 0.9
    truncation: int = 32
    tol: float = 1e-12

    @property
    def kappa(self) -> float:
        return kappa_from_sigma(self.sigma)

    def zeta(self, alpha: float, alpha_next: float) -> float:
        return C_PRIME / (alpha * alpha_next)


@dataclass
class StepDiagnostics:
    norm_total: float
    norm_osc: float
    const_omega: float
    const_Omega: float
    far_residual: float
    newton_sweeps: int
    normalization: float
    zeta: float


@dataclass(frozen=True)
class RenormState:
    """Snapshot at step n; `perturbation` is X_n - omega_n.  The slope
    alpha_n, the coefficient a_n and omega_n are read off the expansion."""

    n: int
    perturbation: FourierVectorField
    cf: CFExpansion
    diagnostics: StepDiagnostics | None = None

    @property
    def alpha(self) -> float:
        return self.cf.tail_float(self.n)

    @property
    def a(self) -> int:
        return self.cf.coefficient(self.n)

    @property
    def omega(self) -> np.ndarray:
        return omega_of(self.cf, self.n)


def _require_coefficients(cf: CFExpansion, needed: int) -> None:
    """Raise ConfigInvalid unless cf certifies `needed` coefficients."""
    if len(cf.coefficients) < needed:
        raise ConfigInvalid(
            f"slope certifies only {len(cf.coefficients)} coefficients; "
            f"{needed} needed ({cf.termination})"
        )


def omega_of(cf: CFExpansion, n: int) -> np.ndarray:
    return np.array([1.0, cf.tail_float(n)])


def cap_omega_of(alpha: float) -> np.ndarray:
    """The orthogonal direction Omega = (1, -1/alpha)."""
    return np.array([1.0, -1.0 / alpha])


def constant_split(f_avg, omega):
    """Decompose a constant vector as p*omega + c*Omega (orthogonal basis)."""
    omega = np.asarray(omega, float)
    alpha = omega[1] / omega[0]
    cap = cap_omega_of(alpha)
    f_avg = np.asarray(f_avg)
    p = (omega @ f_avg) / (omega @ omega)
    c = (cap @ f_avg) / (cap @ cap)
    return complex(p), complex(c)


# ---------------------------------------------------------------------------
# transient adjustment


def basis_change(x: FourierVectorField, m: GL2Z) -> FourierVectorField:
    """Field transform under a linear change of basis: X -> M^{-1} X o M."""
    m_inv = m.inverse().as_array().astype(float)
    return x.transport(m.transpose().as_array(), m_inv)


def transient_slope(slope: Slope):
    """Apply V (negative slope) and/or S (slope below one) to reach slope > 1.

    Returns (slope, applied) where applied lists the matrices used; a field
    follows by basis_change with the same matrices.
    """
    applied = []
    if float(slope) < 0:
        slope = act_on_slope(V, slope)
        applied.append("V")
    if 0 < float(slope) < 1:
        slope = act_on_slope(S, slope)
        applied.append("S")
    return slope, applied


# ---------------------------------------------------------------------------
# one step


def one_step(
    state: RenormState, params: RenormParams, solves: FarSolves | None = None
) -> RenormState:
    """One renormalisation step: rescale, eliminate far modes, normalise.

    Requires norm_r(X_n - omega_n, rho') < zeta_n = c'/(alpha_n alpha_{n+1});
    raises DomainExceeded otherwise (the expected outcome along the unstable
    constant direction).  The far-mode solve is looked up in and recorded
    to solves, when given.
    """
    cf, n = state.cf, state.n
    alpha, a = state.alpha, state.a
    alpha_next = cf.tail_float(n + 1)
    omega_next = np.array([1.0, alpha_next])
    zeta = params.zeta(alpha, alpha_next)

    f = state.perturbation
    norm_f = norm_r(f, params.rho_prime)
    if norm_f >= zeta:
        raise DomainExceeded(
            f"step {n}: norm {norm_f:.3e} >= zeta {zeta:.3e}",
            step=n, norm=norm_f, bound=zeta,
        )

    g = scale_step(f, a, params.rho, params.rho_prime, params.kappa)

    # T^{-1} omega_n = (x_n, 1) = omega_{n+1}/alpha_{n+1}; the far cone of
    # omega' at sigma equals that of omega'/alpha' at sigma/alpha'
    psi = np.array([cf.remainder_float(n), 1.0])
    sigma_eff = params.sigma / alpha_next
    elim = eliminate_far_perturbation(
        psi, g, sigma_eff, tol=params.tol, rho=params.rho,
        rho_prime=params.rho_prime, solves=solves,
    )
    cone = FarResonant((psi[0], psi[1]), sigma_eff)
    g_res = project(elim.perturbation, cone, "inside")

    e_g = g_res.average()
    z_tilde = complex(omega_next @ e_g) / float(omega_next @ omega_next)
    if abs(alpha_next * z_tilde) >= 0.5:
        raise DomainExceeded(
            f"step {n}: normalisation functional {1 + alpha_next * z_tilde:.3f} "
            "left the half-disc around 1",
            step=n, norm=norm_f, bound=zeta,
        )
    z = 1.0 / alpha_next + z_tilde
    f_next = g_res.minus_constant(z_tilde * omega_next) * (1.0 / z)

    p, c = constant_split(f_next.average(), omega_next)
    diag = StepDiagnostics(
        norm_total=norm_r(f_next, params.rho_prime),
        norm_osc=norm_r(f_next.oscillatory(), params.rho_prime),
        const_omega=abs(p) * float(np.abs(omega_next).sum()),
        const_Omega=abs(c) * float(np.abs(cap_omega_of(alpha_next)).sum()),
        far_residual=elim.residuals[-1],
        newton_sweeps=elim.sweeps,
        normalization=float(abs(1.0 + alpha_next * z_tilde)),
        zeta=zeta,
    )
    return RenormState(n + 1, f_next, cf, diag)


# ---------------------------------------------------------------------------
# the derivative at the fixed constant field


@dataclass
class ConstantBlock:
    """Action of the step derivative on constant fields at slope alpha.

    The 2x2 matrix has determinant zero; eigenvalue 0 on omega = (1, alpha)
    and nu (the trace) on the next orthogonal direction (1, -1/alpha').
    """

    alpha: float
    matrix: np.ndarray
    nu: float
    eigvec_zero: np.ndarray
    eigvec_nu: np.ndarray


def constant_block(alpha: float) -> ConstantBlock:
    if alpha <= 1:
        raise ValueError("constant block needs slope alpha > 1")
    x = alpha - math.floor(alpha)
    if x == 0:
        raise ValueError("integer slope has no next tail")
    alpha_next = 1.0 / x
    mat = (alpha_next / (1.0 + x * x)) * np.array(
        [[-alpha, 1.0], [x * alpha, -x]]
    )
    nu = float(np.trace(mat))
    return ConstantBlock(
        alpha=alpha,
        matrix=mat,
        nu=nu,
        eigvec_zero=np.array([1.0, alpha]),
        eigvec_nu=cap_omega_of(alpha_next),
    )


def linearized_step(
    f: FourierVectorField, cf: CFExpansion, n: int, params: RenormParams
) -> FourierVectorField:
    """Derivative of the step at omega_n applied to f: (I - P E) L f."""
    omega_next = omega_of(cf, n + 1)
    scaled = scale_step(f, cf.coefficient(n), params.rho, params.rho_prime,
                        params.kappa)
    alpha_next = cf.tail_float(n + 1)
    resonant = project(scaled, FarResonant(omega_next, params.sigma), "inside")
    lf = resonant * alpha_next
    proj = complex(omega_next @ lf.average()) / float(omega_next @ omega_next)
    return lf.minus_constant(proj * omega_next)


@dataclass
class WindingConeCheck:
    passed: bool
    lhs: float
    rhs: float


def winding_cone_check(state: RenormState, params: RenormParams) -> WindingConeCheck:
    """Necessary condition for sharing the winding ratio of omega_n:

    || (I - P_n) E(X_n) || <= norm_r((I - E) X_n, rho').
    """
    avg = state.perturbation.average()
    omega = state.omega
    p = complex(omega @ avg) / float(omega @ omega)
    off = avg - p * omega
    lhs = float(abs(off[0]) + abs(off[1]))
    rhs = norm_r(state.perturbation.oscillatory(), params.rho_prime)
    return WindingConeCheck(lhs <= rhs + 1e-15, lhs, rhs)


# ---------------------------------------------------------------------------
# orbit iteration


@dataclass
class OrbitResult:
    states: list
    norms: np.ndarray
    theta_hat: float | None
    failure: DomainExceeded | None
    transient_applied: list
    transient_far_cleared: float

    @property
    def completed(self) -> int:
        return len(self.states) - 1

    def monotone_from(self) -> bool:
        vals = self.norms[FIT_FROM:]
        return bool(np.all(np.diff(vals) < 0)) if len(vals) >= 2 else True

    def theta_hat_running(self, upto: int) -> float | None:
        return fit_theta(self.norms[: upto + 1])


def fit_theta(norms) -> float | None:
    """Geometric rate of the norm sequence by least squares on the log."""
    vals = np.asarray(norms, dtype=float)[FIT_FROM:]
    ns = np.arange(FIT_FROM, FIT_FROM + len(vals))
    keep = vals > 0
    if keep.sum() < 2:
        return None
    slope = np.polyfit(ns[keep], np.log(vals[keep]), 1)[0]
    return float(math.exp(slope))


def renorm_orbit(
    f0: FourierVectorField,
    slope: Slope,
    n_steps: int,
    params: RenormParams,
    solves: FarSolves | None = None,
) -> OrbitResult:
    """Iterate the one-step operator along the expansion of the slope,
    from the perturbation f0 = X_0 - omega_0 (which keeps components far
    below the float granularity of ||omega_0||).

    A transient V/S adjustment (and, if needed, one far-mode elimination)
    brings the input into the resonant-restricted space at slope > 1.
    The orbit stops at the first step failure, which is recorded.  Every
    far-mode solve is looked up in and recorded to solves, when given; the
    result is the same with it or without it.
    """
    slope_t, applied = transient_slope(slope)
    cf = cf_expand(slope_t, n_steps + 2)
    _require_coefficients(cf, n_steps + 2)
    f = f0
    for name in applied:
        f = basis_change(f, V if name == "V" else S)
    omega = omega_of(cf, 0)

    # adjustment part two: clear any far modes of the input
    cone = FarResonant(omega, params.sigma)
    far0 = norm_r(project(f, cone, "outside"), params.rho_prime)
    if far0 > params.tol:
        elim = eliminate_far_perturbation(
            omega, f, params.sigma, tol=params.tol, rho=params.rho,
            rho_prime=params.rho_prime, solves=solves,
        )
        f = project(elim.perturbation, cone, "inside")
    else:
        f = project(f, cone, "inside")
    state = RenormState(0, f, cf)
    states = [state]
    norms = [norm_r(f, params.rho_prime)]
    failure = None
    while state.n < n_steps:
        try:
            state = one_step(state, params, solves)
        except DomainExceeded as exc:
            failure = exc
            break
        states.append(state)
        norms.append(state.diagnostics.norm_total)
    return OrbitResult(
        states=states,
        norms=np.array(norms),
        theta_hat=fit_theta(norms),
        failure=failure,
        transient_applied=applied,
        transient_far_cleared=far0,
    )


# ---------------------------------------------------------------------------
# perturbation generators (all return X_0 - omega_0)


def unstable_perturbation(
    slope_value: float, amplitude: float, params: RenormParams
) -> FourierVectorField:
    """Constant perturbation along the orthogonal direction Omega_0."""
    cap = cap_omega_of(slope_value)
    return FourierVectorField.constant(amplitude * cap, params.truncation)


def unstable_coordinate(state: RenormState) -> float:
    """Component of E(X_n - omega_n) along Omega_n (orthogonal split)."""
    _, c = constant_split(state.perturbation.average(), state.omega)
    return float(np.real(c))


def stabilize_resonant_perturbation(
    f0: FourierVectorField,
    slope: Slope,
    params: RenormParams,
    solves: FarSolves,
):
    """Cancel the unstable constant component seeded by a perturbation.

    Fields sharing the winding ratio of omega lie on the contracting set,
    which is transverse to the constant direction Omega_0.  A probe orbit
    of PROBE_STEPS steps measures the unstable coordinate at its last
    completed step; the Omega_0 correction that lands the field on the
    contracting set is found by STABILIZE_ROUNDS rounds of secant
    iteration, seeded with the model gain prod nu_i from the constant
    blocks at the probe's slopes alpha_i (the V/S transient maps Omega_0
    onto a scalar multiple of itself, so the secant absorbs the frame
    factor).

    The probe orbits share the caller's table of far-mode solves, solves.
    Corrections below the resolution of the far-mode problems leave
    them byte-identical, so the later rounds reuse the earlier rounds'
    solves, and so does an orbit of f given the same table.

    Returns (f, corrections).
    """
    corrections = []
    coords = []
    f = f0
    cap0 = cap_omega_of(float(slope))
    m_prev = None
    for _ in range(STABILIZE_ROUNDS):
        orbit = renorm_orbit(f, slope, PROBE_STEPS, params, solves)
        m = orbit.completed
        if m == 0:
            raise DomainExceeded("probe orbit failed at the first step")
        c_m = unstable_coordinate(orbit.states[m])
        coords.append(c_m)
        if c_m == 0.0:
            break
        if corrections and m == m_prev and coords[-1] != coords[-2]:
            response = (coords[-1] - coords[-2]) / corrections[-1]
            delta = -c_m / response
        else:
            gain = 1.0
            for i in range(m):
                gain *= constant_block(orbit.states[i].alpha).nu
            delta = -c_m / gain
        corrections.append(delta)
        m_prev = m
        f = f + FourierVectorField.constant(delta * cap0, f.truncation)
    return f, corrections


def resonant_perturbation(
    slope: Slope, amplitude: float, params: RenormParams, seed: int
) -> FourierVectorField:
    """Reality-symmetric zero-average perturbation on the resonant cone.

    stabilize_resonant_perturbation corrects it along Omega_0 so that the
    perturbed field keeps the winding ratio of omega_0.
    """
    rng = np.random.default_rng(seed)
    omega0 = np.array([1.0, float(slope)])
    return random_resonant_field(
        omega0, params.sigma, amplitude, params.truncation, rng,
        width=params.rho_prime,
    )


def mixed_perturbation(
    slope: Slope, amplitude: float, params: RenormParams, seed: int
) -> FourierVectorField:
    """Resonant + far + constant perturbation of total size ~ amplitude."""
    rng = np.random.default_rng(seed)
    alpha0 = float(slope)
    omega0 = np.array([1.0, alpha0])
    pert = random_resonant_field(
        omega0, params.sigma, amplitude / 2, params.truncation, rng,
        width=params.rho_prime,
    )
    far = {}
    for k in [(1, 0), (1, 1), (0, 1)]:
        c = (rng.normal(size=2) + 1j * rng.normal(size=2)) * amplitude / 20
        far[k] = c
        far[(-k[0], -k[1])] = np.conj(c)
    return (
        FourierVectorField.constant(amplitude / 4 * cap_omega_of(alpha0),
                                    params.truncation)
        + pert
        + FourierVectorField(far, params.truncation)
    )


# ---------------------------------------------------------------------------
# Lambda and the stable-decay probe


def lambda_jn(cf: CFExpansion, sigma: float, beta: float, j: int, n: int) -> float:
    """Lambda_{j,n} = [Atilde_{n+1} Atilde_n / (sigma Atilde_{j-1}^{2+beta})]^{1/(2+beta)}."""
    if not 0 <= j <= n or n <= 0:
        raise ValueError("need 0 <= j <= n with n > 0")
    num = cf.a_tilde_float(n + 1) * cf.a_tilde_float(n)
    den = sigma * cf.a_tilde_float(j - 1) ** (2.0 + beta)
    return float((num / den) ** (1.0 / (2.0 + beta)))


@dataclass
class DecayProbeReport:
    """Norm table of the composed truncated linear steps L_n ... L_j (I - E).

    norm_l1 and norm_l2 are the exact operator norms in the weighted-l1
    and weighted-l2 field norms (see stable_decay_probe).  Zero entries
    mean that no truncated mode survives all projections.
    """

    n: int
    j_values: np.ndarray
    norm_l1: np.ndarray
    norm_l2: np.ndarray
    lambdas: np.ndarray
    surviving: np.ndarray

    def log_ratios(self):
        """Contraction gained by the extra factor: log(N_{j+1}/N_j), keyed by j.

        Values are positive and, for super-geometric decay, increase as j
        decreases (more composed factors).
        """
        out = {}
        for idx in range(len(self.j_values) - 1):
            n_fewer = self.norm_l1[idx]       # j_values[idx] = j + 1 level
            n_more = self.norm_l1[idx + 1]    # one extra factor
            j = int(self.j_values[idx + 1])
            if n_fewer > 0 and n_more > 0:
                out[j] = math.log(n_fewer / n_more)
        return out


def stable_decay_probe(
    cf: CFExpansion, n: int, params: RenormParams, beta: float = 0.0
) -> DecayProbeReport:
    """||L_n o ... o L_j (I - E)|| on the truncated mode set, exactly.

    Each factor L_i = alpha_{i+1} [resonant projection at omega_{i+1}] o
    [mode transport by T_{a_i}]; a basis mode either dies at some
    projection or transports to a single mode.  The transport
    (k1, k2) -> (k2, k1 + a k2) is a bijection of Z^2, so survivors have
    distinct sources and distinct images, and survivor s carries the
    block w_s B.  The composed operator A is then block-diagonal up to a
    permutation: the weighted-l1 norm is a column maximum, and
    A*A = diag(w_s^2 B^T B) gives ||A||_2 = max_s w_s sigma_max(B).  The
    modes move as one integer array and the block is formed once per j,
    so the work follows the survivors.  The cone width sigma, the
    truncation and rho' are those of params.
    """
    _require_coefficients(cf, n + 2)
    sigma, truncation, rho_prime = params.sigma, params.truncation, params.rho_prime
    omegas = [omega_of(cf, i) for i in range(n + 2)]
    cones = [FarResonant(omega, sigma) for omega in omegas]
    j_values = np.arange(n, -1, -1)
    norms_l1, norms_l2, lambdas, surviving = [], [], [], []
    # e^{rho' d} for every change d of ||k||_1, from math.exp
    exp_table = np.array([math.exp(rho_prime * d)
                          for d in range(-truncation, truncation + 1)])
    for j in j_values:
        k = kk = resonant_modes(omegas[j], sigma, truncation)
        # every surviving mode carries the same coefficient block
        block = np.eye(2)
        for i in range(j, n + 1):
            a_i = cf.coefficient(i)
            t_inv = np.array([[-float(a_i), 1.0], [1.0, 0.0]])
            block = cf.tail_float(i + 1) * (t_inv @ block)
            # a coefficient above 2T kills the same modes: those with kk2 != 0
            a_i = min(a_i, 2 * truncation + 1)
            kk = np.stack([kk[:, 1], kk[:, 0] + a_i * kk[:, 1]], axis=1)
            alive = ((np.abs(kk).sum(axis=1) <= truncation)
                     & cones[i + 1].contains_all(kk))
            k, kk = k[alive], kk[alive]
        best, l2 = 0.0, 0.0
        if len(k):
            weight = exp_table[np.abs(kk).sum(axis=1) - np.abs(k).sum(axis=1)
                               + truncation]
            # both norms are maxima over the survivors' blocks (rounding is
            # monotone, so the largest weight gives the largest product)
            best = np.abs(block).sum(axis=0).max() * weight.max()
            l2 = weight.max() * np.linalg.norm(block, 2)
        norms_l1.append(best)
        norms_l2.append(l2)
        lambdas.append(lambda_jn(cf, sigma, beta, int(j), n) if n > 0 else np.nan)
        surviving.append(len(k))
    return DecayProbeReport(
        n=n,
        j_values=j_values,
        norm_l1=np.array(norms_l1),
        norm_l2=np.array(norms_l2),
        lambdas=np.array(lambdas),
        surviving=np.array(surviving),
    )


# ---------------------------------------------------------------------------
# quadratic remainder of the step at the fixed constant field


@dataclass
class RemainderProbe:
    norms: np.ndarray
    remainders: np.ndarray
    bounds: np.ndarray
    exponent: float


def quadratic_remainder_probe(
    slope: Slope,
    params: RenormParams,
    seed: int = 0,
) -> RemainderProbe:
    """Taylor remainder ||R(omega + f) - omega' - DR(omega) f|| at two sizes.

    Samples f at norms zeta/10 and zeta/100 and fits the scaling exponent,
    which should be 2 for an analytic map with bounded second derivative.
    """
    cf = cf_expand(slope, 4)
    alpha0 = cf.tail_float(0)
    alpha1 = cf.tail_float(1)
    zeta = params.zeta(alpha0, alpha1)

    rng = np.random.default_rng(seed)
    omega0 = np.array([1.0, alpha0])
    direction = random_resonant_field(
        omega0, params.sigma, 1.0, params.truncation, rng,
        width=params.rho_prime, n_modes=4,
    )
    # add a constant component so the remainder sees the normalisation too
    direction = direction + FourierVectorField.constant(
        np.array([0.2, -0.1]), params.truncation)
    direction = direction * (1.0 / norm_r(direction, params.rho_prime))

    sizes, rems, bounds = [], [], []
    for frac in (0.1, 0.01):
        t = frac * zeta
        f = direction * t
        out = one_step(RenormState(0, f, cf), params)
        linear = linearized_step(f, cf, 0, params)
        rem = norm_r(out.perturbation - linear, params.rho_prime)
        sizes.append(t)
        rems.append(rem)
        bounds.append(t * t / (zeta * (zeta - t)))
    exponent = math.log(rems[0] / rems[1]) / math.log(sizes[0] / sizes[1])
    return RemainderProbe(
        norms=np.array(sizes),
        remainders=np.array(rems),
        bounds=np.array(bounds),
        exponent=float(exponent),
    )
