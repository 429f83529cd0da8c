"""Stationary continuum NLSE on the periodic multi-cell domain.

lambda phi = H phi + gamma |phi|^{2 sigma} phi is solved two ways: by the
lattice-seeded reconstruction (split phi into its first-band part
sum_j c_j u_j and the complement phi_perp, solve the complement by a
contraction fixed point where the resolvent is diagonal in the domain
Bloch basis, and correct the lattice amplitudes by Newton steps on the
reduced equation), and by a direct full-grid Newton oracle that knows
nothing about the splitting.  Agreement of the two is the strongest
internal check this module has.

The eigenvalue is always placed at lambda = lambda1 - beta * E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dnls import DnlsState
from .errors import NonConvergenceError, SolverError
from .operators import PeriodicDomain, l2_norm
from .tightbinding import TBParams, ring_coupling
from .wannier import WannierBasis, analyze, synthesize

# successive-iterate gap in H1; the equation residual picks up a factor of
# the spectral radius of H, so this sits well below the outer tolerance
FIXED_POINT_TOL = 1e-14
RESIDUAL_FLOOR = 1e-9
MAX_OUTER = 50
ORACLE_TOL = 1e-11


@dataclass(frozen=True)
class ContinuumState:
    """Accepted continuum solution with its band splitting."""

    phi: np.ndarray
    lam: float
    gamma: float
    sigma: float
    residual_h: float
    c: np.ndarray | None
    perp_h1: float
    iterations: int
    # MINRES iterations summed over the steps of the full-grid oracle
    minres_iterations: int = 0


def _nonlinear_term(phi: np.ndarray, sigma: float) -> np.ndarray:
    return np.abs(phi) ** (2 * sigma) * phi


def solve_perp_fixed_point(c: np.ndarray, e_param: float, tbp: TBParams,
                           dom: PeriodicDomain, wb: WannierBasis,
                           delta0: float, start: np.ndarray | None = None):
    """Contraction fixed point for the out-of-band component.

    Iterates phi_perp <- -gamma (H - lambda)^{-1} P_perp |phi|^{2s} phi
    from `start` (zero when None), with lambda = lambda1 - beta*E applied
    through the exact block-diagonal resolvent.  A nearby start only saves
    iterations: the stop and the certificate are the converged iterate's.
    Returns (phi_perp, h1_certificate), exact zeros when gamma = 0.

    Raises SolverError when the lattice amplitudes exceed the contraction
    budget delta0, when lambda drifts too close to the out-of-band
    spectrum, or when the iteration is observed not to contract (gamma
    too large for this hbar; use a smaller |eta| or smaller hbar).  Both
    iteration failures name hbar, eta, lambda, the iteration and its H1 gap.
    """
    l1 = float(np.abs(c).sum())
    if l1 > delta0:
        raise SolverError(
            f"lattice l1 norm {l1:.3f} exceeds contraction budget delta0={delta0}; "
            "use a smaller |eta| or a larger budget"
        )
    lam = tbp.lambda1 - tbp.beta * e_param
    gap = dom.band_gap(1)
    dist = dom.perp_distance(lam)
    if dist < 0.1 * gap:
        raise SolverError(
            f"resolvent nearly singular: dist(lambda, perp spectrum) = "
            f"{dist:.3e} < 0.1 * gap = {0.1 * gap:.3e}"
        )

    gamma, sigma = tbp.gamma, tbp.sigma
    phi_band = synthesize(wb, c)
    phi_perp = np.zeros_like(phi_band) if start is None else start
    where = f"at hbar={tbp.hbar}, eta={tbp.eta}, lambda={lam:.10g}"
    prev_diff = None
    grow = 0
    for it in range(1, 201):
        rhs = _nonlinear_term(phi_band + phi_perp, sigma)
        new = -gamma * dom.resolvent_perp(rhs, lam)
        diff = dom.h1_norm(new - phi_perp)
        phi_perp = new
        if diff < FIXED_POINT_TOL:
            return phi_perp, dom.h1_norm(phi_perp)
        if prev_diff is not None and diff >= prev_diff:
            grow += 1
            if grow >= 3:
                if diff < 1e-11:
                    # stalled at the roundoff floor; the outer residual
                    # check decides whether this is good enough
                    return phi_perp, dom.h1_norm(phi_perp)
                raise SolverError(
                    f"fixed point not contracting {where} (ratio "
                    f"{diff / prev_diff:.2f}, H1 gap {diff:.3e} at iteration {it}); "
                    "gamma too large for this hbar: use a smaller |eta| or smaller hbar"
                )
        else:
            grow = 0
        prev_diff = diff
    raise NonConvergenceError(f"fixed point exceeded its iteration budget {where} "
                              f"(H1 gap {diff:.3e} at iteration {it})")


def lattice_map(state: DnlsState, wb: WannierBasis) -> np.ndarray:
    """Restrict lattice amplitudes to the domain sites (tails dropped)."""
    n = state.f.size
    k = wb.sites + n // 2
    inside = (k >= 0) & (k < n)
    c = np.zeros(wb.cells)
    c[inside] = state.f[k[inside]]
    return c


def _reduced_residual(c, e_param, tbp, f_remainder):
    """E c - T c + (D c)/beta + eta |c|^{2s} c + (gamma/beta) f."""
    return (e_param * c + ring_coupling(tbp) @ c
            + tbp.eta * np.abs(c) ** (2 * tbp.sigma) * c
            + tbp.gamma / tbp.beta * f_remainder)


def _remainder_term(c, phi, tbp, dom, wb):
    """f_j = <u_j, |phi|^{2s} phi> - c0 |c_j|^{2s} c_j."""
    nl = _nonlinear_term(phi, tbp.sigma)
    return analyze(wb, dom.dx, nl) - tbp.c0 * np.abs(c) ** (2 * tbp.sigma) * c


def check_lattice_invertibility(c, e_param, tbp):
    """(lp, smin): the periodic lattice linearization and its least singular value.

    The linearization is that of the reduced equation: ring_coupling, the
    whole band-1 row over beta, plus the diagonal of E and the
    nonlinearity.  It is real symmetric, so its singular values are the
    magnitudes of its eigenvalues.  Raises SolverError when the smallest
    falls below 1e-6, naming every site index where the near-singular
    direction is within 1e-6 relative of its peak (so both mirror-image
    peaks).
    """
    diag = e_param + tbp.eta * (2 * tbp.sigma + 1) * np.abs(c) ** (2 * tbp.sigma)
    lp = ring_coupling(tbp) + np.diag(diag)
    smin = float(np.abs(np.linalg.eigvalsh(lp)).min())
    if smin < 1e-6:
        nu, vecs = np.linalg.eigh(lp)
        mag = np.abs(vecs[:, np.abs(nu).argmin()])
        sites = np.flatnonzero(mag >= (1 - 1e-6) * mag.max()).tolist()
        raise SolverError(
            f"lattice linearization nearly singular (s_min = {smin:.2e}); "
            f"worst direction peaks at site indices {sites}"
        )
    return lp, smin


def reconstruct_and_correct(state: DnlsState, tbp: TBParams,
                            dom: PeriodicDomain, wb: WannierBasis,
                            delta0: float) -> ContinuumState:
    """Lift a lattice solution to a continuum solution at lambda = lambda1 - beta E.

    Alternates the out-of-band fixed point with Newton corrections of the
    lattice amplitudes (the Jacobian is the linearization of the reduced
    equation, whose linear part is the whole band-1 row) until the full
    continuum residual drops below 1e-9 * max(|lambda|, hbar).

    Raises ValueError at gamma = 0: the equation is then linear and fixes
    no norm, so the Newton steps would collapse onto phi = 0.  The eta = 0
    state is the lattice lift itself (scan writes it as such).
    """
    if tbp.gamma == 0.0:
        raise ValueError("reconstruction needs gamma != 0: at gamma = 0 the "
                         "equation is linear and Newton collapses onto phi = 0")
    e_param = state.e
    lam = tbp.lambda1 - tbp.beta * e_param
    c = lattice_map(state, wb)

    # the entry guard's linearization serves the first Newton step, whose c
    # it was taken at
    lp, _ = check_lattice_invertibility(c, e_param, tbp)

    gamma, sigma = tbp.gamma, tbp.sigma
    tol = RESIDUAL_FLOOR * max(abs(lam), tbp.hbar)

    def _evaluate(cv, start):
        perp, perp_h1 = solve_perp_fixed_point(cv, e_param, tbp, dom, wb,
                                               delta0=delta0, start=start)
        full = synthesize(wb, cv) + perp
        resid = dom.apply_h(full) + gamma * _nonlinear_term(full, sigma) - lam * full
        return full, perp_h1, l2_norm(dom.dx, resid), perp

    # every later fixed point starts from the last accepted phi_perp
    phi, perp_h1, rnorm, warm = _evaluate(c, None)
    history = [rnorm]
    for _ in range(MAX_OUTER - 1):
        # once below tolerance, keep polishing while Newton still gains ground
        stalled = len(history) >= 2 and rnorm > 0.3 * history[-2]
        if rnorm <= tol and (rnorm <= 1e-3 * tol or stalled):
            break
        f_rem = _remainder_term(c, phi, tbp, dom, wb)
        g = _reduced_residual(c, e_param, tbp, f_rem)
        if lp is None:
            lp, _ = check_lattice_invertibility(c, e_param, tbp)
        step = np.linalg.solve(lp, g)
        # line search on the full continuum residual: the lattice
        # linearization omits the remainder couplings, so a step is taken
        # only where it lowers the residual, its scale halved until it does
        scale = 1.0
        for _ in range(9):
            try:
                trial = _evaluate(c - scale * step, warm)
            except SolverError:
                trial = None  # left the contraction ball; shorten
            if trial is not None and trial[2] < rnorm:
                break
            scale *= 0.5
        else:
            break  # no scale lowers the residual; report the last iterate
        phi, perp_h1, rnorm, warm = trial
        c = c - scale * step
        lp = None  # taken again at the new c
        history.append(rnorm)
    if rnorm > tol:
        # above tol, only a line-search break ends the loop short of MAX_OUTER
        if len(history) < MAX_OUTER:
            raise NonConvergenceError(
                f"reconstruction line search stalled after {len(history)} outer "
                f"iterations at residual {rnorm:.2e} (target {tol:.1e}): no step "
                f"scale lowers it", history=history)
        raise NonConvergenceError(
            f"reconstruction did not reach residual {tol:.1e} in {MAX_OUTER} "
            f"outer iterations", history=history)
    return ContinuumState(
        phi=phi, lam=lam, gamma=gamma, sigma=sigma, residual_h=rnorm,
        c=c, perp_h1=perp_h1, iterations=len(history),
    )


def _minres(apply_a, b, apply_m, rtol, maxiter):
    """Preconditioned MINRES for a symmetric A x = b (Paige and Saunders 1975).

    apply_m applies a symmetric positive definite preconditioner.  Stops
    once the recurrence residual, in the preconditioner's norm, is below
    rtol times that of b, and returns (x, iterations).  Raises SolverError
    on a stall: the budget of maxiter iterations spent, or a breakdown of
    the recurrence.  The minimized residual never exceeds that of x = 0, so
    a true residual b - A x at least as large as b is a breakdown too: near
    a singular A the recurrence can report convergence for a huge, wrong x.
    """
    x = np.zeros_like(b)
    y = apply_m(b)
    beta1 = np.sqrt(b @ y)
    if beta1 == 0.0:
        return x, 0
    r1 = r2 = b
    w = w2 = np.zeros_like(b)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    for it in range(1, maxiter + 1):
        # Lanczos step on the preconditioned operator
        v = y / beta
        y = apply_a(v)
        if it > 1:
            y = y - (beta / oldb) * r1
        alfa = v @ y
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = apply_m(r2)
        oldb, beta = beta, np.sqrt(r2 @ y)
        # apply the previous Givens rotation to the new tridiagonal column,
        # then form the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.hypot(gbar, beta)
        if not gamma > 0.0:
            break
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        if phibar <= rtol * beta1:
            r = b - apply_a(x)
            phibar = np.sqrt(r @ apply_m(r))
            if phibar < beta1:
                return x, it
            break
    raise SolverError(f"MINRES stalled after {it} iterations at relative "
                      f"residual {phibar / beta1:.1e}")


def _kinetic_preconditioner(dom: PeriodicDomain, lam: float):
    """(hbar^2 k^2 + max(mean V - lam, 0) + 1)^{-1} on the rfft modes.

    Diagonal in Fourier space and positive definite for every lam.  It
    uses no Bloch block, so the oracle stays independent of the splitting.
    """
    k2 = dom.k[:dom.n // 2 + 1] ** 2
    inv = 1.0 / (dom.hbar**2 * k2 + max(float(dom.vx.mean()) - lam, 0.0) + 1.0)
    return lambda r: np.fft.irfft(inv * np.fft.rfft(r), dom.n)


def direct_newton_oracle(dom: PeriodicDomain, lam: float, gamma: float,
                         sigma: float, phi0: np.ndarray,
                         max_iter: int = 60) -> ContinuumState:
    """Full-grid Newton on the continuum equation, independent of the splitting.

    Each step solves the real symmetric Jacobian
    H + gamma (2 sigma + 1)|phi|^{2 sigma} - lambda matrix-free, by MINRES
    with a Fourier-diagonal preconditioner, to 1e-6 * ORACLE_TOL / |r|
    relative.  Raises SolverError on a MINRES stall (singular Jacobian,
    resonant lambda) or on divergence (last residual reported).
    """
    phi = np.asarray(phi0, dtype=float).copy()
    precondition = _kinetic_preconditioner(dom, lam)
    rnorm = np.inf
    minres_steps = 0
    for it in range(max_iter):
        resid = dom.apply_h(phi) + gamma * _nonlinear_term(phi, sigma) - lam * phi
        rnorm = l2_norm(dom.dx, resid)
        if rnorm <= ORACLE_TOL:
            break
        w = gamma * (2 * sigma + 1) * np.abs(phi) ** (2 * sigma) - lam
        try:
            # this forcing keeps check 9's H1 agreement near 2e-11; a 1e-3
            # forcing moved the oracle's answer by about 1e-9
            step, k = _minres(lambda v: dom.apply_h(v) + w * v, -resid,
                              precondition, 1e-6 * ORACLE_TOL / rnorm, phi.size)
        except SolverError as exc:
            raise SolverError(
                f"singular continuum Jacobian: lambda resonant ({exc})") from exc
        minres_steps += k
        scale = 1.0
        for _ in range(40):
            cand = phi + scale * step
            r_new = dom.apply_h(cand) + gamma * _nonlinear_term(cand, sigma) - lam * cand
            if l2_norm(dom.dx, r_new) < rnorm or scale < 2**-30:
                break
            scale *= 0.5
        if scale < 2**-30:
            raise SolverError(f"oracle Newton diverged; last residual {rnorm:.3e}")
        phi = phi + scale * step
    else:
        raise SolverError(f"oracle Newton did not converge; last residual {rnorm:.3e}")

    return ContinuumState(
        phi=phi, lam=lam, gamma=gamma, sigma=sigma, residual_h=rnorm,
        c=None, perp_h1=0.0, iterations=it + 1,
        minres_iterations=minres_steps,
    )


def peak_cell_mass(phi: np.ndarray, wb: WannierBasis) -> float:
    """Fraction of the L2 mass carried by the best single cell."""
    dens = phi**2
    per_cell = dens.reshape(wb.cells, wb.points_per_cell).sum(axis=1)
    return float(per_cell.max() / dens.sum())
