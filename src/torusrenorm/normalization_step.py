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
import os
import threading
from dataclasses import dataclass

import numpy as np
# scipy is imported where it is called: it loads slower than a `cf` run

from .errors import NoConvergence, SingularJacobian
from .fourier_field import (
    TWO_PI,
    FarResonant,
    FourierVectorField,
    GridFitReport,
    cone_mask,
    field_to_dict,
    fit_grid,
    norm_prime_r,
    norm_r,
    project,
)

SQRT6 = math.sqrt(6.0)
# smallest |det DU| on the collocation grid that the pullback accepts
DET_TOL = 1e-8
# the far-mode Newton solve: at most MAX_SWEEPS sweeps of at most
# GMRES_MAXITER restart cycles each; a stall within STALL_ACCEPT of the
# initial residual counts as converged at the floor
MAX_SWEEPS = 12
GMRES_MAXITER = 40
STALL_ACCEPT = 1e-6


def gmres(*args, **kwargs):
    """scipy.sparse.linalg.gmres, imported when called; the Newton solve
    calls it through this module attribute, which a test may rebind."""
    from scipy.sparse.linalg import gmres as scipy_gmres

    return scipy_gmres(*args, **kwargs)


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
    def identity(cls, truncation: int = 32) -> "TorusMap":
        return cls(FourierVectorField.zero(truncation))

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

    def __repr__(self):
        return f"TorusMap({len(self.displacement)} displacement modes)"


PHASE_CHUNK = 48
# exp(x) rounds to exactly 1 for |x| < 2^-54; half of that leaves room for
# the rounding of the bound and of the exponents it bounds
MIRROR_BOUND = 2.0 ** -55
# bytes of the phase rows of one block of grid columns, and the fewest
# blocks a call is cut into when it has the columns: the two threads that
# share the blocks then both get some at small supports
BLOCK_BYTES = 2 ** 20
MIN_BLOCKS = 8


def _column_width(rows, points):
    """Grid columns per block: at most BLOCK_BYTES of complex phase rows
    and at most points / MIN_BLOCKS columns, rounded down to a multiple of
    64 columns, at least 64, at most all.

    The BLAS product of a chunk with a block of columns gives each column
    the bits of the product with all columns only while every block but
    the last spans a multiple of 4 columns (OpenBLAS 0.3.31 zgemm).
    """
    width = min(BLOCK_BYTES // (16 * max(rows, 1)), points // MIN_BLOCKS)
    return min(max(64, width // 64 * 64), points)


def _phase_runs(mirror):
    """Runs of rows filled alike: (start, stop, None) for rows whose phase
    grids are computed, (start, stop, source) for rows that are the
    conjugates of the rows source, source - 1, ..., source - (stop - start) + 1.

    mirror[r] is the row of -k_r, or -1; the later row of each pair is the
    conjugate of the earlier one.
    """
    rows = np.arange(len(mirror))
    source = np.where(mirror < rows, mirror, -1)
    computed = source < 0
    joined = (computed[1:] & computed[:-1]) | (
        (source[1:] >= 0) & (source[1:] == source[:-1] - 1))
    starts = np.flatnonzero(np.concatenate(([True], ~joined)))[: len(mirror)]
    stops = np.append(starts[1:], len(mirror))
    return [(int(start), int(stop), None if computed[start] else int(source[start]))
            for start, stop in zip(starts, stops)]


def _fill_phases(phases, term, runs, k1, k2, p1, p2):
    """phases[r] = exp(2 pi i (k1[r] p1 + k2[r] p2)) for the rows of runs,
    term being a work array of the shape of phases."""
    for start, stop, source in runs:
        rows = phases[start:stop]
        if source is None:
            np.multiply(k1[start:stop, None], p1, out=rows)
            np.multiply(k2[start:stop, None], p2, out=term[start:stop])
            np.add(rows, term[start:stop], out=rows)
            np.multiply(TWO_PI * 1j, rows, out=rows)
            np.exp(rows, out=rows)
        else:
            count = stop - start
            np.conjugate(phases[source - count + 1 : source + 1][::-1], out=rows)


def _inverse_jacobian(u_grid, grid):
    """Du, (DU)^{-1} and min |det DU| on the grid, DU = I + Du; raises
    SingularJacobian where DU is (nearly) singular."""
    from scipy.fft import fft2, ifft2

    # u is band-limited so spectral differentiation of its samples is exact
    u_spec = fft2(u_grid, axes=(1, 2))
    k_axis = np.fft.fftfreq(grid, d=1.0 / grid)
    du_spec = np.zeros((2, 2, grid, grid), dtype=complex)
    du_spec[:, 0] = u_spec * ((TWO_PI * 1j) * k_axis)[None, :, None]
    du_spec[:, 1] = u_spec * ((TWO_PI * 1j) * k_axis)[None, None, :]
    du = ifft2(du_spec, axes=(2, 3))
    del u_spec, du_spec
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
    return du, inv, min_det


def _pullback_core(v, h, u_grid, grid, with_derivative=False):
    """Perturbation-form pullback grids for X = v + h (v constant, h oscillatory).

    Uses the identity (DU)^{-1} X o U = v + (DU)^{-1} [h o U - (Du) v], so
    every gridded quantity scales with the perturbation, not with ||v||;
    FFT round-off then stays proportional to the signal being fitted.
    Returns (W, A^{-1}, min |det DU|, Dh o U) with W the bracket term.
    """
    points = grid * grid
    axes = np.arange(grid, dtype=float) / grid
    point1 = (axes[:, None] + u_grid[0]).reshape(-1)
    point2 = (axes[None, :] + u_grid[1]).reshape(-1)

    h_at_u = np.zeros((2, points), dtype=complex)
    dh_at_u = (
        np.zeros((2, 2, points), dtype=complex) if with_derivative else None
    )
    # the sorted nonzero modes, 48 at a time; the coefficients reach the
    # contractions as a C-ordered (M, 2) array because BLAS rounding can
    # depend on operand layout, and the pullback's bits must not
    support = h.support()
    all_ks = h.index.k[support].astype(float)
    all_cs = np.ascontiguousarray(h.coeffs[:, support].T)
    chunks = []
    for start in range(0, len(support), PHASE_CHUNK):
        ks = all_ks[start : start + PHASE_CHUNK]
        cs = all_cs[start : start + PHASE_CHUNK]
        jacs = ((TWO_PI * 1j) * np.einsum("mi,mj->ijm", cs, ks)).reshape(4, -1)
        chunks.append((start, start + len(cs), cs.T, jacs))
    # complex factors: a float factor against complex points is cast in the
    # ufunc's buffers, to the same values
    k1 = all_ks[:, 0].astype(complex)
    k2 = all_ks[:, 1].astype(complex)
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
    runs = _phase_runs(mirror)

    # the phase rows of one block of grid columns at a time; every operand
    # of a product is a C-ordered view of the buffers, as with all columns.
    # Two threads take the next block from one range iterator (next() on
    # it is atomic under the GIL), each filling its own buffers and its
    # blocks' columns: a block's bytes do not depend on the thread that
    # computes it
    width = _column_width(len(support), points)
    starts = iter(range(0, points, width))

    def fill_blocks():
        phase_buffer = np.empty(len(support) * width, dtype=complex)
        term_buffer = np.empty_like(phase_buffer)
        for first in starts:
            cols = slice(first, min(first + width, points))
            count = cols.stop - first
            phases = phase_buffer[: len(support) * count].reshape(-1, count)
            term = term_buffer[: len(support) * count].reshape(-1, count)
            _fill_phases(phases, term, runs, k1, k2, point1[cols], point2[cols])
            for start, stop, cs_t, jacs in chunks:
                h_at_u[:, cols] += np.dot(cs_t, phases[start:stop])
                if with_derivative:
                    dh_at_u[:, :, cols] += np.dot(
                        jacs, phases[start:stop]).reshape(2, 2, count)

    failures = []

    def work():
        try:
            fill_blocks()
        except BaseException as exc:
            failures.append(exc)

    worker = None
    if points > width and len(os.sched_getaffinity(0)) > 1:
        worker = threading.Thread(target=work, name="pullback-blocks")
        worker.start()
    try:
        du, inv, min_det = _inverse_jacobian(u_grid, grid)
        fill_blocks()
    finally:
        if worker is not None:
            for _ in starts:  # leave the worker no further block
                pass
            worker.join()
    if failures:
        raise failures[0]
    h_at_u = h_at_u.reshape(2, grid, grid)
    if with_derivative:
        dh_at_u = dh_at_u.reshape(2, 2, grid, grid)

    v = np.asarray(v, dtype=complex)
    bracket = h_at_u - np.einsum("ij...,j->i...", du, v)
    w = np.einsum("ij...,j...->i...", inv, bracket)
    return w, inv, min_det, dh_at_u


@dataclass(frozen=True)
class _Pullback:
    """The pullback v + W of X = v + h by one map: the bracket grid W with
    (DU)^{-1} and Dh o U on the same grid, and the fit of W."""

    map: TorusMap
    w: np.ndarray
    inv_jac: np.ndarray
    dh_at_u: np.ndarray | None
    min_det: float
    fit_w: FourierVectorField
    fit: GridFitReport


def _pull_back(v, h, u, with_derivative=False) -> _Pullback:
    """Sample u, pull X = v + h back by U = id + u and fit W, on the grid of
    next_fast_len(2 * (truncation(h) + truncation(u)) + 1) points per axis
    that resolves the product spectrum."""
    from scipy.fft import next_fast_len

    grid = next_fast_len(2 * (h.truncation + u.truncation) + 1)
    u_grid = u.displacement.sample_grid(grid)
    w, inv_jac, min_det, dh_at_u = _pullback_core(
        v, h, u_grid, grid, with_derivative
    )
    fit_w, fit = fit_grid(w, h.truncation)
    return _Pullback(u, w, inv_jac, dh_at_u, min_det, fit_w, fit)


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


@dataclass(frozen=True)
class FarSolve:
    """What a far-mode Newton solve yields: a function of its problem alone.

    fit_w is the fitted bracket W of the final pullback v + W; the input's
    average enters the solve only through v.  An input without far modes
    is the identity solve: u = 0, W = h, no fit.
    """

    map: TorusMap
    fit_w: FourierVectorField
    fit: GridFitReport | None
    sweeps: int
    residuals: tuple
    at_floor: bool
    gmres_failures: int
    du_sup_bound: float


@dataclass(frozen=True, kw_only=True)
class EliminationResult(FarSolve):
    """A far-mode solve and what depends on the input's average: the
    eliminated field psi + g and its perturbation g, the ball and
    contraction numbers, and whether the solve was taken from the table."""

    field: FourierVectorField
    perturbation: FourierVectorField
    eps_hat: float
    inside_ball: bool
    contraction_lhs: float
    contraction_rhs: float
    reused: bool


class FarSolves(dict):
    """The far-mode Newton solves of one run, keyed by the bytes of each
    problem; the caller owns the table and passes it to every elimination
    of the run.

    Keys compare byte for byte, so a hit returns exactly what a fresh solve
    would return.  Its length counts the problems solved, reused the
    eliminations that found theirs here.
    """

    def __init__(self):
        super().__init__()
        self.reused = 0

    def counts(self) -> dict:
        return {"computed": len(self), "reused": self.reused}


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
    residuals never see E g0.  The solve is looked up in solves (a fresh
    table when none is given) by the bytes of (psi, sigma, v, h) and of the
    settings it reads, and recorded there; an input without far modes takes
    the identity solve, which is never stored.  What depends on g0 itself
    is always recomputed.
    """
    psi = np.asarray(psi, dtype=complex)
    cone = FarResonant((psi[0], psi[1]), sigma)
    truncation = g0.truncation
    eps_hat = guaranteed_ball_radius(psi, sigma, rho, rho_prime)
    input_size = norm_prime_r(g0, rho)
    inside_ball = input_size <= eps_hat
    contraction_rhs = contraction_constant(psi, sigma) * input_size

    far = np.flatnonzero(~cone_mask(cone, truncation))
    g_avg = g0.average()
    h = g0.oscillatory()
    reused = False
    if not np.any(g0.coeffs[:, far]):
        # already resonant-only: U = id, mode-exactly
        solve = FarSolve(map=TorusMap.identity(truncation), fit_w=h, fit=None,
                         sweeps=0, residuals=(0.0,), at_floor=False,
                         gmres_failures=0, du_sup_bound=0.0)
    else:
        v = psi + g_avg
        key = (
            psi.tobytes(), v.tobytes(),
            np.array([sigma, tol, rho_prime], dtype=float).tobytes(),
            truncation, h.coeffs.tobytes(),
        )
        solves = FarSolves() if solves is None else solves
        solve = solves.get(key)
        reused = solve is not None
        if reused:
            solves.reused += 1
        else:
            solve = solves[key] = _far_newton_solve(psi, cone, far, v, h, tol,
                                                    rho_prime)

    g_final = solve.fit_w.minus_constant(-g_avg)
    return EliminationResult(
        **vars(solve),
        field=g_final.minus_constant(-psi),
        perturbation=g_final,
        eps_hat=eps_hat,
        inside_ball=inside_ball,
        contraction_lhs=norm_r(g_final, rho_prime),
        contraction_rhs=contraction_rhs,
        reused=reused,
    )


@dataclass(frozen=True)
class _Iterate:
    """A Newton iterate: the unknowns, their pullback, its far part and the
    weighted far residual."""

    uvec: np.ndarray
    pull: _Pullback
    far: FourierVectorField
    res: float


def _far_newton_solve(psi, cone, far, v, h, tol, rho_prime) -> FarSolve:
    """Newton solve for the displacement on the far modes `far` that clears
    the far residual of the pullback of X = v + h."""
    from scipy.fft import fft2, ifft2
    from scipy.sparse.linalg import LinearOperator

    truncation = h.truncation
    # the unknowns: the far modes, an interleaved (u_k1, u_k2) pair per mode
    far_k = h.index.k[far]
    divisors = np.repeat(
        (TWO_PI * 1j) * (psi[0] * far_k[:, 0] + psi[1] * far_k[:, 1]), 2
    )

    def displacement_from(uvec):
        coeffs = np.zeros((2, len(h.index)), dtype=complex)
        coeffs[:, far] = uvec.reshape(-1, 2).T
        return TorusMap(FourierVectorField.from_array(coeffs, truncation))

    def evaluate(uvec, with_derivative=True):
        """Pullback at the displacement uvec, in perturbation form."""
        pull = _pull_back(v, h, displacement_from(uvec), with_derivative)
        far_part = project(pull.fit_w, cone, "outside")
        return _Iterate(uvec, pull, far_part, norm_r(far_part, rho_prime))

    def measured_floor(state):
        """Weighted residual response to the float granularity of u.

        Displacement components spanning many decades share one grid, so
        corrections below eps * sup|u| are absorbed when u is sampled;
        re-evaluating at u (1 + 8 eps) measures the residual resolution
        actually available at this state.  Only the probe's far residual
        is read, so Dh o U is not formed.
        """
        probe = evaluate(state.uvec * (1.0 + 8.0 * np.finfo(float).eps),
                         with_derivative=False)
        return norm_r(probe.far - state.far, rho_prime)

    def floor_accepts(state):
        """Accept a stall at STALL_ACCEPT * res0 or at twice the measured
        floor; the probe runs only when the first test fails."""
        return (state.res <= STALL_ACCEPT * res0
                or state.res <= 2.0 * measured_floor(state))

    current = evaluate(np.zeros(2 * len(far), dtype=complex))
    res0 = current.res
    residuals = [res0]

    grid = current.pull.w.shape[-1]
    axes_count = grid * grid
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
        p_grid = state.pull.w + np.asarray(v, dtype=complex)[:, None, None]
        rhs = np.einsum("ij...,j...->i...", state.pull.dh_at_u, w_grid)
        rhs -= np.einsum("ij...,j...->i...", dw_grid, p_grid)
        dp = np.einsum("ij...,j...->i...", state.pull.inv_jac, rhs)
        spec = fft2(dp, axes=(1, 2)) / axes_count
        return spec[:, idx1, idx2].T.reshape(-1)

    sweeps = 0
    at_floor = False
    gmres_failures = 0
    while current.res > tol:
        sweeps += 1
        gvec = current.far.coeffs[:, far].T.reshape(-1)
        # right preconditioner: the homological division u_k = g_k/(2 pi i psi.k)
        op = LinearOperator(
            (len(gvec), len(gvec)),
            matvec=lambda z: jacobian_matvec(-z / divisors, current),
            dtype=complex,
        )
        rtol = max(1e-13, min(1e-2, 0.1 * current.res))
        z, info = gmres(op, -gvec, rtol=rtol, atol=0.0, maxiter=GMRES_MAXITER)
        # a solve that stops short still yields a usable Newton direction;
        # the step test below judges it, the count reports it
        gmres_failures += info != 0
        delta = -z / divisors

        # halve the step until a trial lowers the residual; a trial whose DU
        # is singular is rejected like one that does not
        step = 1.0
        moved = False
        for _halving in range(9):
            try:
                trial = evaluate(current.uvec + step * delta)
            except SingularJacobian:
                trial = None
            if trial is not None and trial.res < current.res:
                current, moved = trial, True
                break
            # release a rejected trial's grids before the next is formed
            trial = None
            step *= 0.5
        residuals.append(current.res)
        if current.res <= tol:
            break
        # a residual at the granularity floor of the u representation is
        # numerically unresolvable: a stalled sweep, and the last one, accept
        # it at that level; a sweep that took no step would repeat bit for bit
        last = sweeps == MAX_SWEEPS
        if current.res > 0.5 * residuals[-2] or last:
            at_floor = floor_accepts(current)
            if at_floor or not moved or last:
                break

    if not (at_floor or current.res <= tol):
        raise NoConvergence(f"far residual {current.res:.3e} > tol {tol:.3e} "
                            f"after {sweeps} sweeps")

    return FarSolve(
        map=current.pull.map,
        fit_w=current.pull.fit_w,
        fit=current.pull.fit,
        sweeps=sweeps,
        residuals=tuple(residuals),
        at_floor=at_floor,
        gmres_failures=gmres_failures,
        du_sup_bound=current.pull.map.du_sup_bound(),
    )
