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
import scipy.sparse

from .errors import DomainExceeded
from .fourier_field import (
    FarResonant,
    FourierVectorField,
    mode_index,
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
    """Snapshot at step n; `perturbation` is X_n - omega_n."""

    n: int
    omega: np.ndarray
    alpha: float
    a: int
    perturbation: FourierVectorField
    cf: CFExpansion
    diagnostics: StepDiagnostics | None = None


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


def perturbed_state(f0: FourierVectorField, cf: CFExpansion) -> RenormState:
    """State at n = 0 from the perturbation f0 = X_0 - omega_0."""
    return RenormState(
        n=0,
        omega=omega_of(cf, 0),
        alpha=cf.tail_float(0),
        a=cf.coefficient(0),
        perturbation=f0,
        cf=cf,
    )


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
    far_mass = norm_r(project(elim.perturbation, cone, "outside"),
                      params.rho_prime)
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
    f_next = (g_res.minus_constant(z_tilde * omega_next) * (1.0 / z)).with_width(
        params.rho_prime
    )

    p, c = constant_split(f_next.average(), omega_next)
    diag = StepDiagnostics(
        norm_total=norm_r(f_next, params.rho_prime),
        norm_osc=norm_r(f_next.oscillatory(), params.rho_prime),
        const_omega=abs(p) * float(np.abs(omega_next).sum()),
        const_Omega=abs(c) * float(np.abs(cap_omega_of(alpha_next)).sum()),
        far_residual=far_mass,
        newton_sweeps=elim.sweeps,
        normalization=float(abs(1.0 + alpha_next * z_tilde)),
        zeta=zeta,
    )
    return RenormState(
        n=n + 1,
        omega=omega_next,
        alpha=alpha_next,
        a=cf.coefficient(n + 1),
        perturbation=f_next,
        cf=cf,
        diagnostics=diag,
    )


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
    resonant = project(
        scaled, FarResonant((omega_next[0], omega_next[1]), params.sigma),
        "inside",
    )
    lf = resonant * alpha_next
    proj = complex(omega_next @ lf.average()) / float(omega_next @ omega_next)
    out = lf.minus_constant(proj * omega_next)
    return out.with_width(params.rho_prime)


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
    failure_step: int | None
    transient_applied: list
    transient_far_cleared: float
    # the far-mode solves of this orbit's eliminations
    solves: FarSolves

    @property
    def completed(self) -> int:
        return len(self.states) - 1

    def monotone_from(self, start: int = 2) -> bool:
        vals = self.norms[start:]
        return bool(np.all(np.diff(vals) < 0)) if len(vals) >= 2 else True

    def theta_hat_running(self, upto: int) -> float | None:
        return fit_theta(self.norms[: upto + 1])


def fit_theta(norms, start: int = 2) -> float | None:
    """Geometric rate of the norm sequence by least squares on the log."""
    vals = np.asarray(norms, dtype=float)[start:]
    ns = np.arange(start, start + len(vals))
    keep = vals > 0
    if keep.sum() < 2:
        return None
    slope = np.polyfit(ns[keep], np.log(vals[keep]), 1)[0]
    return float(math.exp(slope))


def renorm_orbit(
    x0: FourierVectorField,
    slope: Slope,
    n_steps: int,
    params: RenormParams,
    x0_is_perturbation: bool = False,
    prefix: OrbitResult | None = None,
) -> OrbitResult:
    """Iterate the one-step operator along the expansion of the slope.

    A transient V/S adjustment (and, if needed, one far-mode elimination)
    brings the input into the resonant-restricted space at slope > 1.
    The orbit stops at the first step failure, which is recorded.
    With x0_is_perturbation the input is taken as X_0 - omega_0, which
    preserves components far below the float granularity of ||omega_0||.
    Each far-mode elimination whose problem is byte-identical to one that
    the prefix orbit solved takes that solve instead of repeating it; the
    prefix may be any earlier orbit, and the result is the same with it or
    without it.
    """
    slope_t, applied = transient_slope(slope)
    cf = cf_expand(slope_t, n_steps + 2)
    if len(cf.coefficients) < n_steps + 2:
        raise ValueError(
            f"slope certifies only {len(cf.coefficients)} coefficients; "
            f"{n_steps + 2} needed ({cf.termination})"
        )
    solves = FarSolves(prefix.solves if prefix is not None else None)
    f = x0 if x0_is_perturbation else x0.minus_constant(
        np.array([1.0, float(slope)])
    )
    for name in applied:
        f = basis_change(f, V if name == "V" else S)
    omega = omega_of(cf, 0)

    # adjustment part two: clear any far modes of the input
    cone = FarResonant((omega[0], omega[1]), params.sigma)
    far0 = norm_r(project(f, cone, "outside"), params.rho_prime)
    if far0 > params.tol:
        elim = eliminate_far_perturbation(
            omega, f, params.sigma, tol=params.tol, rho=params.rho,
            rho_prime=params.rho_prime, solves=solves,
        )
        f = project(elim.perturbation, cone, "inside")
    else:
        f = project(f, cone, "inside")
    state = perturbed_state(f, cf)
    states = [state]
    norms = [norm_r(f, params.rho_prime)]
    failure, failure_step = None, None
    while state.n < n_steps:
        try:
            state = one_step(state, params, solves)
        except DomainExceeded as exc:
            failure = exc
            failure_step = state.n
            break
        states.append(state)
        norms.append(state.diagnostics.norm_total)
    # the result keeps its own solves only, not the prefix's
    solves.earlier = {}
    return OrbitResult(
        states=states,
        norms=np.array(norms),
        theta_hat=fit_theta(norms),
        failure=failure,
        failure_step=failure_step,
        transient_applied=applied,
        transient_far_cleared=far0,
        solves=solves,
    )


# ---------------------------------------------------------------------------
# perturbation generators (all return X_0 - omega_0)


def unstable_perturbation(
    slope_value: float, amplitude: float, params: RenormParams
) -> FourierVectorField:
    """Constant perturbation along the orthogonal direction Omega_0."""
    cap = cap_omega_of(slope_value)
    return FourierVectorField.constant(
        amplitude * cap, width=params.rho_prime, truncation=params.truncation
    )


def unstable_coordinate(state: RenormState) -> float:
    """Component of E(X_n - omega_n) along Omega_n (orthogonal split)."""
    _, c = constant_split(state.perturbation.average(), state.omega)
    return float(np.real(c))


def stabilize_resonant_perturbation(
    f0: FourierVectorField, slope: Slope, params: RenormParams
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

    Each probe orbit is the next one's prefix.  Corrections below the
    resolution of the far-mode problems leave them byte-identical, so the
    later rounds reuse the earlier rounds' solves.

    Returns (f, corrections, probe) with probe the last probe orbit; an
    orbit of f given prefix=probe reuses its solves in the same way.
    """
    corrections = []
    coords = []
    f = f0
    cap0 = cap_omega_of(float(slope))
    m_prev = None
    orbit = None
    for _ in range(STABILIZE_ROUNDS):
        orbit = renorm_orbit(f, slope, PROBE_STEPS, params,
                             x0_is_perturbation=True, prefix=orbit)
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
        f = f + FourierVectorField.constant(
            delta * cap0, width=f.width, truncation=f.truncation
        )
    return f, corrections, orbit


def resonant_perturbation(
    slope: Slope,
    amplitude: float,
    params: RenormParams,
    seed: int,
    stabilize: bool = True,
):
    """Reality-symmetric zero-average perturbation on the resonant cone.

    With stabilize=True the perturbation is corrected along Omega_0 so the
    perturbed field keeps the winding ratio of omega_0 (stays on the
    contracting set); the correction sizes are returned alongside.
    """
    rng = np.random.default_rng(seed)
    omega0 = np.array([1.0, float(slope)])
    pert = random_resonant_field(
        omega0, params.sigma, amplitude, params.truncation, rng,
        width=params.rho_prime,
    )
    corrections = []
    if stabilize:
        pert, corrections, _ = stabilize_resonant_perturbation(
            pert, slope, params
        )
    return pert, corrections


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
        FourierVectorField.constant(
            amplitude / 4 * cap_omega_of(alpha0),
            width=params.rho_prime, truncation=params.truncation,
        )
        + pert
        + FourierVectorField(far, params.rho_prime, params.truncation)
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


def power_iteration_norm(matrix, iters: int = 60, seed: int = 0) -> float:
    """Largest singular value of a sparse operator by power iteration on A*A.

    The products run on the rows and columns that hold entries.  Each norm
    is taken over a full-length buffer, zero off those columns, because
    np.linalg.norm groups its BLAS dot by position.
    """
    rng = np.random.default_rng(seed)
    n = matrix.shape[1]
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    entries = matrix.tocoo()
    rows, row_of = np.unique(entries.row, return_inverse=True)
    cols, col_of = np.unique(entries.col, return_inverse=True)
    sub = scipy.sparse.csr_matrix(
        (entries.data, (row_of, col_of)), shape=(len(rows), len(cols))
    )
    adjoint = sub.conj().T
    full = np.zeros(n, dtype=complex)
    v = v[cols]
    sigma = 0.0
    for _ in range(iters):
        v_next = adjoint @ (sub @ v)
        full[cols] = v_next
        norm = np.linalg.norm(full)
        if norm == 0:
            return 0.0
        sigma = math.sqrt(norm)
        v = v_next / norm
    return float(sigma)


@dataclass
class DecayProbeReport:
    """Norm table of the composed truncated linear steps L_n ... L_j (I - E).

    norm_l1 is the exact operator norm in the weighted-l1 field norm
    (column maximisation: each basis mode transports to a single mode);
    norm_l2 is a power-iteration estimate in weighted-l2 coordinates.
    Zero entries mean that no truncated mode survives all projections.
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
    cf: CFExpansion,
    sigma: float,
    truncation: int,
    n: int,
    params: RenormParams | None = None,
    beta: float = 0.0,
) -> DecayProbeReport:
    """Estimate ||L_n o ... o L_j (I - E)|| on the truncated mode set.

    Each factor L_i = alpha_{i+1} [resonant projection at omega_{i+1}] o
    [mode transport by T_{a_i}]; a basis mode either dies at some
    projection or transports to a single mode, so the weighted-l1 norm is
    an exact column maximum.  A sparse matrix of the survivors feeds the
    power-iteration l2 estimate.  The modes move as one integer array and
    the block is formed once per j, so the work follows the survivors.
    """
    if params is None:
        params = RenormParams(sigma=sigma, truncation=truncation)
    rho_prime = params.rho_prime
    omegas = [omega_of(cf, i) for i in range(n + 2)]
    j_values = np.arange(n, -1, -1)
    norms_l1, norms_l2, lambdas, surviving = [], [], [], []
    # the universe is the mode index without its central zero mode
    index = mode_index(truncation)
    centre = len(index) // 2
    size = 2 * (len(index) - 1)
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
            l1 = np.abs(kk).sum(axis=1)
            w = omegas[i + 1]
            dead = (l1 > truncation) | (
                np.abs(w[0] * kk[:, 0] + w[1] * kk[:, 1]) > sigma * l1
            )
            k, kk = k[~dead], kk[~dead]
        best, l2 = 0.0, 0.0
        if len(k):
            weight = exp_table[np.abs(kk).sum(axis=1) - np.abs(k).sum(axis=1)
                               + truncation]
            # weighted-l1 operator norm is an exact column maximum (rounding
            # is monotone, so the largest weight gives the largest product)
            best = np.abs(block).sum(axis=0).max() * weight.max()
            src, dst = index.positions(k), index.positions(kk)
            src -= src > centre
            dst -= dst > centre
            # per survivor, the entries (r, c) of its block in row order
            rows = (2 * dst[:, None] + [0, 0, 1, 1]).ravel()
            cols = (2 * src[:, None] + [0, 1, 0, 1]).ravel()
            vals = (weight[:, None] * block.ravel()).ravel()
            mat = scipy.sparse.coo_matrix(
                (vals, (rows, cols)), shape=(size, size)
            ).tocsr()
            l2 = power_iteration_norm(mat)
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
    fractions=(0.1, 0.01),
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
        np.array([0.2, -0.1]), width=params.rho_prime,
        truncation=params.truncation,
    )
    direction = direction * (1.0 / norm_r(direction, params.rho_prime))

    sizes, rems, bounds = [], [], []
    for frac in fractions:
        t = frac * zeta
        f = direction * t
        state = perturbed_state(f, cf)
        out = one_step(state, params)
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
