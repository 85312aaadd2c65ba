"""Nonlinear change of coordinates eliminating far-from-resonance modes.

The map U = id + u, with u supported on the far cone of psi, is chosen so
that the pulled-back field (DU)^{-1} X o U has no far-from-resonance
Fourier modes.  Provided |psi . k| > sigma ||k|| on that cone, the
linearised equation is the small-divisor-free division
u_k = g_k / (2 pi i psi . k); Newton sweeps use that division as a
preconditioner for the exact linearisation, so the far residual shrinks
quadratically once inside the contraction region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import NoConvergence, SingularJacobian
from .fourier_field import (
    FarResonant,
    FourierVectorField,
    GridFitReport,
    cone_mask,
    field_from_dict,
    field_to_dict,
    fit_grid,
    norm_prime_r,
    norm_r,
    project,
)

TWO_PI = 2.0 * math.pi
SQRT6 = math.sqrt(6.0)
# smallest |det DU| on the collocation grid that the pullback accepts
DET_TOL = 1e-8
# the far-mode Newton solve: at most MAX_SWEEPS sweeps of at most
# GMRES_MAXITER restart cycles each; a stall within STALL_ACCEPT of the
# initial residual counts as converged at the floor
MAX_SWEEPS = 12
GMRES_MAXITER = 40
STALL_ACCEPT = 1e-6


class TorusMap:
    """Torus diffeomorphism U(theta) = theta + u(theta), u periodic and mean-zero."""

    __slots__ = ("displacement",)

    def __init__(self, displacement: FourierVectorField):
        if np.any(displacement.average() != 0):
            raise ValueError("displacement must have zero average")
        object.__setattr__(self, "displacement", displacement)

    def __setattr__(self, *args):
        raise AttributeError("TorusMap is immutable")

    @classmethod
    def identity(cls, width: float = 1.0, truncation: int = 32) -> "TorusMap":
        return cls(FourierVectorField.zero(width, truncation))

    def is_identity(self) -> bool:
        return len(self.displacement) == 0

    @property
    def truncation(self) -> int:
        return self.displacement.truncation

    def du_sup_bound(self) -> float:
        """Certified bound on sup ||Du||: 2 pi sum_k ||k||_1 ||u_k||_1."""
        u = self.displacement
        mass = np.abs(u.coeffs).sum(axis=0)
        return float(np.sum((TWO_PI * u.index.l1) * mass))

    def to_dict(self) -> dict:
        return field_to_dict(self.displacement, displacement=True)

    @classmethod
    def from_dict(cls, data: dict) -> "TorusMap":
        return cls(field_from_dict(data))

    def __repr__(self):
        return f"TorusMap({len(self.displacement)} displacement modes)"


@dataclass
class PullbackResult:
    field: FourierVectorField
    fit: GridFitReport
    min_jacobian_det: float
    grid: int


PHASE_CHUNK = 48
# exp(x) rounds to exactly 1 for |x| < 2^-54; half of that leaves room for
# the rounding of the bound and of the exponents it bounds
MIRROR_BOUND = 2.0 ** -55


def _phase_chunks(ks, mirror, point1, point2):
    """The phase grids exp(2 pi i k.(theta + u)) of the rows ks, in chunks
    of PHASE_CHUNK rows: yields (first row, (n, G, G) view), the view being
    overwritten by the next chunk.

    mirror[r] is the row of -ks[r], or -1.  Of the pairs (r, mirror[r]) with
    r first, the PHASE_CHUNK nearest the zero mode (the last r) are computed
    once: r's grid is held until its partner's row, which is its complex
    conjugate.  Every other row is computed directly.
    """
    rows = np.arange(len(ks))
    first = np.flatnonzero(mirror > rows)[-PHASE_CHUNK:]
    slot = np.full(len(ks), -1)
    slot[first] = np.arange(len(first))
    conjugated = np.full(len(ks), -1)
    conjugated[mirror[first]] = np.arange(len(first))
    phases = np.empty((PHASE_CHUNK,) + point1.shape, dtype=complex)
    held = np.empty((len(first),) + point1.shape, dtype=complex)
    term = np.empty_like(point2)
    for start in range(0, len(ks), PHASE_CHUNK):
        stop = min(start + PHASE_CHUNK, len(ks))
        for r in range(start, stop):
            row = phases[r - start]
            if conjugated[r] >= 0:
                np.conjugate(held[conjugated[r]], out=row)
                continue
            # exp((2 pi i) * (k1 * point1 + k2 * point2)), elementwise
            np.multiply(ks[r, 0], point1, out=row)
            np.multiply(ks[r, 1], point2, out=term)
            np.add(row, term, out=row)
            np.multiply(TWO_PI * 1j, row, out=row)
            np.exp(row, out=row)
            if slot[r] >= 0:
                held[slot[r]] = row
        yield start, phases[: stop - start]


def _pullback_core(v, h, u_grid, grid, with_derivative=False):
    """Perturbation-form pullback grids for X = v + h (v constant, h oscillatory).

    Uses the identity (DU)^{-1} X o U = v + (DU)^{-1} [h o U - (Du) v], so
    every gridded quantity scales with the perturbation, not with ||v||;
    FFT round-off then stays proportional to the signal being fitted.
    Returns (W, A^{-1}, min |det DU|, Dh o U) with W the bracket term.
    """
    axes = np.arange(grid, dtype=float) / grid
    point1 = axes[:, None] + u_grid[0]
    point2 = axes[None, :] + u_grid[1]

    h_at_u = np.zeros((2, grid, grid), dtype=complex)
    dh_at_u = (
        np.zeros((2, 2, grid, grid), dtype=complex) if with_derivative else None
    )
    # the sorted nonzero modes, 48 at a time; the coefficients reach the
    # contractions as a C-ordered (M, 2) array because BLAS rounding can
    # depend on operand layout, and the pullback's bits must not
    support = h.support()
    all_ks = h.index.k[support].astype(float)
    all_cs = np.ascontiguousarray(h.coeffs[:, support].T)
    # Mirror identity: the exponent z = 2 pi i k.(theta + u) of -k is exactly
    # -z, since rounding to nearest is symmetric: negating k negates every
    # rounded product and sum.  The only real part of z is 2 pi k.Im(u),
    # from the round-off imaginary part of the sampled displacement.  While
    # 2 pi T (max|Im u1| + max|Im u2|) < MIRROR_BOUND, exp(+-Re z) rounds to
    # exactly 1, so cexp(-z) equals conj(cexp(z)) bit for bit (C99 Annex G,
    # sin odd): the grid of -k is the conjugate of the grid of k.
    # Otherwise every row is computed.
    row_of = np.full(len(h.index), -1)
    row_of[support] = np.arange(len(support))
    mirror = row_of[len(h.index) - 1 - support]
    im_u = np.abs(u_grid.imag).max(axis=(1, 2))
    if not TWO_PI * h.truncation * (im_u[0] + im_u[1]) < MIRROR_BOUND:
        mirror[:] = -1
    for start, phases in _phase_chunks(all_ks, mirror, point1, point2):
        ks = all_ks[start : start + PHASE_CHUNK]
        cs = all_cs[start : start + PHASE_CHUNK]
        h_at_u += np.tensordot(cs.T, phases, axes=(1, 0))
        if with_derivative:
            jacs = (TWO_PI * 1j) * np.einsum("mi,mj->ijm", cs, ks)
            dh_at_u += np.tensordot(jacs, phases, axes=(2, 0))

    # DU = I + Du on the grid; u is band-limited so spectral differentiation
    # of its samples is exact
    u_spec = fft2(u_grid, axes=(1, 2))
    k_axis = np.fft.fftfreq(grid, d=1.0 / grid)
    du_spec = np.zeros((2, 2, grid, grid), dtype=complex)
    du_spec[:, 0] = u_spec * ((TWO_PI * 1j) * k_axis)[None, :, None]
    du_spec[:, 1] = u_spec * ((TWO_PI * 1j) * k_axis)[None, None, :]
    du = ifft2(du_spec, axes=(2, 3))
    a11 = 1.0 + du[0, 0]
    a12 = du[0, 1]
    a21 = du[1, 0]
    a22 = 1.0 + du[1, 1]
    det = a11 * a22 - a12 * a21
    min_det = float(np.min(np.abs(det)))
    if min_det < DET_TOL:
        raise SingularJacobian(
            f"min |det DU| = {min_det:.3e} on the collocation grid"
        )
    # a real determinant changing sign vanishes between collocation points
    if np.max(np.abs(det.imag)) < 1e-10 * np.max(np.abs(det.real)):
        if np.min(det.real) < 0.0 < np.max(det.real):
            raise SingularJacobian("det DU changes sign on the collocation grid")
    inv = np.empty((2, 2, grid, grid), dtype=complex)
    inv[0, 0] = a22 / det
    inv[0, 1] = -a12 / det
    inv[1, 0] = -a21 / det
    inv[1, 1] = a11 / det

    v = np.asarray(v, dtype=complex)
    bracket = h_at_u - np.einsum("ij...,j->i...", du, v)
    w = np.einsum("ij...,j...->i...", inv, bracket)
    return w, inv, min_det, dh_at_u


def _perturbation_from_fit(fit_w, avg):
    """Field Eg + fitted W (the pullback minus the reference psi)."""
    return fit_w.minus_constant(-np.asarray(avg, dtype=complex))


def compose_pullback(
    x: FourierVectorField,
    u: TorusMap,
    grid: int | None = None,
) -> PullbackResult:
    """Discrete Fourier fit of (DU)^{-1} X o U on a uniform grid.

    The grid must resolve the product spectrum: at least
    2 * (truncation(X) + truncation(u)) + 1 points per axis.
    """
    required = 2 * (x.truncation + u.truncation) + 1
    if grid is None:
        grid = next_fast_len(required)
    if grid < required:
        raise ValueError(f"grid {grid} below anti-aliasing size {required}")
    u_grid = u.displacement.sample_grid(grid)
    v = x.average()
    w, _, min_det, _ = _pullback_core(v, x.oscillatory(), u_grid, grid)
    fit_w, report = fit_grid(w, x.width, x.truncation)
    fitted = _perturbation_from_fit(fit_w, v)
    return PullbackResult(fitted, report, min_det, grid)


# ---------------------------------------------------------------------------
# elimination of far-from-resonance modes


def guaranteed_ball_radius(psi, sigma: float, rho: float, rho_prime: float) -> float:
    """Radius of the ball around psi on which the elimination is guaranteed."""
    norm_psi = float(abs(psi[0]) + abs(psi[1]))
    return (
        (SQRT6 - 2.0)
        / 12.0
        * sigma
        * min((rho - rho_prime) / (4.0 * math.pi), (3.0 - SQRT6) / 6.0 * sigma / norm_psi)
    )


def contraction_constant(psi, sigma: float) -> float:
    """Factor 2 (1 + max{(2/3)(3 - sqrt 6), 6 (sqrt 6 + 2) ||psi||/sigma})."""
    norm_psi = float(abs(psi[0]) + abs(psi[1]))
    return 2.0 * (
        1.0 + max(2.0 / 3.0 * (3.0 - SQRT6), 6.0 * (SQRT6 + 2.0) * norm_psi / sigma)
    )


@dataclass
class EliminationResult:
    map: TorusMap
    field: FourierVectorField
    perturbation: FourierVectorField
    sweeps: int
    residuals: list
    converged: bool
    eps_hat: float
    inside_ball: bool
    contraction_lhs: float
    contraction_rhs: float
    du_sup_bound: float
    grid: int
    fit: GridFitReport | None = None
    at_floor: bool = False
    gmres_failures: int = 0
    # the Newton solve was taken from an earlier identical problem
    reused: bool = False

    @property
    def contraction_ok(self) -> bool:
        return self.contraction_lhs <= self.contraction_rhs


@dataclass(frozen=True)
class FarSolve:
    """What a far-mode Newton solve yields: a function of its problem alone.

    fit_w is the fitted bracket W of the final pullback v + W; the input's
    average enters the solve only through v.
    """

    map: TorusMap
    fit_w: FourierVectorField
    fit: GridFitReport
    sweeps: int
    residuals: tuple
    at_floor: bool
    gmres_failures: int


class FarSolves:
    """The far-mode Newton solves of one orbit, keyed by the bytes of each
    problem.

    A problem is looked up among this orbit's solves, then among those of
    the earlier orbit the table was started from.  Keys compare byte for
    byte, so a hit returns exactly what a fresh solve would return.
    computed and reused count the eliminations of this orbit and of the
    chain of orbits it was started from, so the last orbit of a run counts
    the whole run.
    """

    def __init__(self, earlier: "FarSolves | None" = None):
        self.solves = {}
        self.earlier = {} if earlier is None else earlier.solves
        self.computed = 0 if earlier is None else earlier.computed
        self.reused = 0 if earlier is None else earlier.reused

    def lookup(self, key) -> FarSolve | None:
        found = self.solves.get(key)
        return found if found is not None else self.earlier.get(key)

    def record(self, key, solve: FarSolve, reused: bool):
        self.solves[key] = solve
        if reused:
            self.reused += 1
        else:
            self.computed += 1

    def counts(self) -> dict:
        return {"computed": self.computed, "reused": self.reused}


def eliminate_far_perturbation(
    psi,
    g0: FourierVectorField,
    sigma: float,
    tol: float = 1e-12,
    rho: float = 1.0,
    rho_prime: float = 0.9,
    solves: FarSolves | None = None,
) -> EliminationResult:
    """Solve [far cone](DU)^{-1} X o U = 0 for U = id + u, u on the far
    cone, with X given as psi + g0; all arithmetic stays at the scale of g0
    so tiny perturbations are not drowned by round-off on psi.

    Newton sweeps: the far residual g of the current pullback is divided
    by the safe divisors 2 pi i psi.k (the preconditioner), then the exact
    linearisation is solved by a few GMRES iterations; a full step is
    taken, falling back to step halving (at most 8) if the residual grows.
    The guaranteed ball is far smaller than the practical Newton basin; it
    is reported, not enforced.

    The Newton solve depends on g0 only through v = psi + E g0 and
    h = (I - E) g0: k = 0 lies inside every FarResonant cone, so the far
    residuals never see E g0.  With solves given, the solve is looked up
    there by the bytes of (psi, sigma, v, h) and of the settings it reads,
    and recorded there; what depends on g0 itself is always recomputed.
    """
    psi = np.asarray(psi, dtype=complex)
    cone = FarResonant((psi[0], psi[1]), sigma)
    truncation = g0.truncation
    width = g0.width
    eps_hat = guaranteed_ball_radius(psi, sigma, rho, rho_prime)
    input_size = norm_prime_r(g0, rho)
    inside_ball = input_size <= eps_hat
    contraction_rhs = contraction_constant(psi, sigma) * input_size
    grid = next_fast_len(4 * truncation + 1)

    far = np.flatnonzero(~cone_mask(cone, truncation))
    if not np.any(g0.coeffs[:, far]):
        # already resonant-only: U = id, mode-exactly
        ident = TorusMap.identity(width, truncation)
        return EliminationResult(
            ident, _perturbation_from_fit(g0, psi), g0, 0, [0.0], True,
            eps_hat, inside_ball, norm_r(g0, rho_prime), contraction_rhs,
            0.0, grid,
        )

    g_avg = g0.average()
    v = psi + g_avg
    h = g0.oscillatory()
    key = (
        psi.tobytes(), v.tobytes(),
        np.array([sigma, width, tol, rho_prime], dtype=float).tobytes(),
        truncation, h.coeffs.tobytes(),
    )
    solve = solves.lookup(key) if solves is not None else None
    reused = solve is not None
    if not reused:
        solve = _far_newton_solve(psi, cone, far, v, h, tol, rho_prime, grid)
    if solves is not None:
        solves.record(key, solve, reused)

    g_final = _perturbation_from_fit(solve.fit_w, g_avg)
    return EliminationResult(
        map=solve.map,
        field=_perturbation_from_fit(g_final, psi),
        perturbation=g_final,
        sweeps=solve.sweeps,
        residuals=list(solve.residuals),
        converged=True,
        eps_hat=eps_hat,
        inside_ball=inside_ball,
        contraction_lhs=norm_r(g_final, rho_prime),
        contraction_rhs=contraction_rhs,
        du_sup_bound=solve.map.du_sup_bound(),
        grid=grid,
        fit=replace(solve.fit),
        at_floor=solve.at_floor,
        gmres_failures=solve.gmres_failures,
        reused=reused,
    )


def _far_newton_solve(psi, cone, far, v, h, tol, rho_prime, grid) -> FarSolve:
    """Newton solve for the displacement on the far modes `far` that clears
    the far residual of the pullback of X = v + h."""
    truncation = h.truncation
    width = h.width
    # the unknowns: the far modes, an interleaved (u_k1, u_k2) pair per mode
    far_k = h.index.k[far]
    divisors = np.repeat(
        (TWO_PI * 1j) * (psi[0] * far_k[:, 0] + psi[1] * far_k[:, 1]), 2
    )
    axes_count = grid * grid

    def displacement_from(uvec):
        coeffs = np.zeros((2, len(h.index)), dtype=complex)
        coeffs[:, far] = uvec.reshape(-1, 2).T
        return TorusMap(FourierVectorField.from_array(coeffs, width, truncation))

    def evaluate(uvec, with_derivative=True):
        """Pullback at the displacement uvec, in perturbation form."""
        u_map = displacement_from(uvec)
        u_grid = u_map.displacement.sample_grid(grid)
        w, inv_jac, _, dh_at_u = _pullback_core(
            v, h, u_grid, grid, with_derivative=with_derivative
        )
        fit_w, fit_report = fit_grid(w, width, truncation)
        far_part = project(fit_w, cone, "outside")
        return {
            "uvec": uvec,
            "map": u_map,
            "w": w,
            "inv_jac": inv_jac,
            "dh_at_u": dh_at_u,
            "fit_w": fit_w,
            "fit": fit_report,
            "far": far_part,
            "res": norm_r(far_part, rho_prime),
        }

    def measured_floor(state):
        """Weighted residual response to the float granularity of u.

        Displacement components spanning many decades share one grid, so
        corrections below eps * sup|u| are absorbed when u is sampled;
        re-evaluating at u (1 + 8 eps) measures the residual resolution
        actually available at this state.  Only the probe's far residual
        is read, so Dh o U is not formed.
        """
        probe = evaluate(state["uvec"] * (1.0 + 8.0 * np.finfo(float).eps),
                         with_derivative=False)
        diff = probe["far"] - state["far"]
        return norm_r(diff, rho_prime)

    current = evaluate(np.zeros(2 * len(far), dtype=complex))
    residuals = [current["res"]]

    idx1 = far_k[:, 0] % grid
    idx2 = far_k[:, 1] % grid
    kfac = (TWO_PI * 1j) * far_k.astype(float)

    def jacobian_matvec(wvec, state):
        # dP = (DU)^{-1} [ (Dh o U) w - (Dw) P(u) ],  P(u) = v + W
        pairs = wvec.reshape(-1, 2).T
        w_spec = np.zeros((2, grid, grid), dtype=complex)
        w_spec[:, idx1, idx2] = pairs
        dw_spec = np.zeros((2, 2, grid, grid), dtype=complex)
        dw_spec[:, 0, idx1, idx2] = pairs * kfac[:, 0]
        dw_spec[:, 1, idx1, idx2] = pairs * kfac[:, 1]
        w_grid = ifft2(w_spec, axes=(1, 2)) * axes_count
        dw_grid = ifft2(dw_spec, axes=(2, 3)) * axes_count
        p_grid = state["w"] + np.asarray(v, dtype=complex)[:, None, None]
        rhs = np.einsum("ij...,j...->i...", state["dh_at_u"], w_grid)
        rhs -= np.einsum("ij...,j...->i...", dw_grid, p_grid)
        dp = np.einsum("ij...,j...->i...", state["inv_jac"], rhs)
        spec = fft2(dp, axes=(1, 2)) / axes_count
        return spec[:, idx1, idx2].T.reshape(-1)

    sweeps = 0
    res = current["res"]
    res0 = res
    converged = res <= tol
    at_floor = False
    stalls = 0
    gmres_failures = 0
    while not converged and sweeps < MAX_SWEEPS:
        sweeps += 1
        gvec = current["far"].coeffs[:, far].T.reshape(-1)
        # right preconditioner: the homological division u_k = g_k/(2 pi i psi.k)
        op = LinearOperator(
            (len(gvec), len(gvec)),
            matvec=lambda z: jacobian_matvec(-z / divisors, current),
            dtype=complex,
        )
        rtol = max(1e-13, min(1e-2, 0.1 * res))
        z, info = gmres(op, -gvec, rtol=rtol, atol=0.0, maxiter=GMRES_MAXITER)
        # a solve that stops short still yields a usable Newton direction;
        # the step test below judges it, the count reports it
        gmres_failures += info != 0
        delta = -z / divisors

        step = 1.0
        best = None
        for _halving in range(9):
            trial = evaluate(current["uvec"] + step * delta)
            if best is None or trial["res"] < best["res"]:
                best = trial
            if trial["res"] < res:
                break
            step *= 0.5
        if best["res"] < res:
            current = best
        res = current["res"]
        residuals.append(res)
        if res <= tol:
            converged = True
            break
        # a residual at the granularity floor of the u representation is
        # numerically unresolvable; accept a stall at that level
        stalls = stalls + 1 if res > 0.5 * residuals[-2] else 0
        if stalls >= 1:
            if res <= max(STALL_ACCEPT * res0, 2.0 * measured_floor(current)):
                converged = True
                at_floor = True
                break

    if not converged and res <= max(
        STALL_ACCEPT * res0, 2.0 * measured_floor(current)
    ):
        converged = True
        at_floor = True
    if not converged:
        raise NoConvergence(
            f"far residual {res:.3e} > tol {tol:.3e} after {sweeps} sweeps"
        )

    return FarSolve(
        map=current["map"],
        fit_w=current["fit_w"],
        fit=current["fit"],
        sweeps=sweeps,
        residuals=tuple(residuals),
        at_floor=at_floor,
        gmres_failures=gmres_failures,
    )
