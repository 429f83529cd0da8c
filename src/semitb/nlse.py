"""Stationary continuum NLSE on the periodic multi-cell domain.

lambda phi = H phi + gamma |phi|^{2 sigma} phi is solved two ways: by the
lattice-seeded reconstruction (split phi into its first-band part
sum_j c_j u_j and the complement phi_perp, solve the complement by a
contraction fixed point where the resolvent is diagonal in the domain
Bloch basis, and correct the lattice amplitudes by Newton steps on the
reduced equation), and by a direct full-grid Newton oracle that knows
nothing about the splitting.  Agreement of the two is the strongest
internal check this module has.

The eigenvalue is always placed at lambda = lambda1 - beta * E; every
state records the resolvent shift actually applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dnls import DnlsState, linearization_lplus, DnlsProblem
from .errors import NonConvergenceError, SolverError
from .operators import PeriodicDomain, l2_norm
from .tightbinding import TBParams, HALF_BANDWIDTH
from .wannier import WannierBasis

DEFAULT_DELTA0 = 2.0
# successive-iterate gap in H1; the equation residual picks up a factor of
# the spectral radius of H, so this sits well below the outer tolerance
FIXED_POINT_TOL = 1e-14
RESIDUAL_FLOOR = 1e-9
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
    norm_l2: float
    iterations: int
    resolvent_shift: float


def project_first_band(phi: np.ndarray, wb: WannierBasis):
    """Split phi into the localized-basis span and its complement.

    Returns (c, phi_band, phi_perp) with c_j = <u_j, phi> by grid
    quadrature, phi_band = sum c_j u_j, phi_perp the remainder.
    """
    c = wb.dx * (wb.u @ phi)
    phi_band = wb.u.T @ c
    return c, phi_band, phi - phi_band


def _nonlinear_term(phi: np.ndarray, sigma: float) -> np.ndarray:
    return np.abs(phi) ** (2 * sigma) * phi


def solve_perp_fixed_point(c: np.ndarray, e_param: float, tbp: TBParams,
                           dom: PeriodicDomain, wb: WannierBasis,
                           delta0: float = DEFAULT_DELTA0,
                           tol: float = FIXED_POINT_TOL,
                           max_iter: int = 200):
    """Contraction fixed point for the out-of-band component.

    Iterates phi_perp <- -gamma (H - lambda)^{-1} P_perp |phi|^{2s} phi
    from zero, with lambda = lambda1 - beta*E applied through the exact
    block-diagonal resolvent.  Returns (phi_perp, h1_certificate).

    Raises SolverError when the lattice amplitudes exceed the contraction
    budget delta0, when lambda drifts too close to the out-of-band
    spectrum, or when the iteration is observed not to contract (gamma
    too large for this hbar; use a smaller |eta| or smaller hbar).
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
    phi_band = wb.u.T @ c
    phi_perp = np.zeros_like(phi_band)
    if gamma == 0.0:
        return phi_perp, 0.0
    prev_diff = None
    grow = 0
    for _ in range(max_iter):
        rhs = _nonlinear_term(phi_band + phi_perp, sigma)
        new = -gamma * dom.resolvent_perp(rhs, lam)
        diff = dom.h1_norm(new - phi_perp)
        phi_perp = new
        if diff < tol:
            return phi_perp, dom.h1_norm(phi_perp)
        if prev_diff is not None and diff >= prev_diff:
            grow += 1
            if grow >= 3:
                if diff < 1e-11:
                    # stalled at the roundoff floor; the outer residual
                    # check decides whether this is good enough
                    return phi_perp, dom.h1_norm(phi_perp)
                raise SolverError(
                    f"fixed point not contracting (ratio {diff / prev_diff:.2f}); "
                    "gamma too large for this hbar: use a smaller |eta| or smaller hbar"
                )
        else:
            grow = 0
        prev_diff = diff
    raise NonConvergenceError("fixed point exceeded its iteration budget")


def lattice_map(state: DnlsState, wb: WannierBasis) -> np.ndarray:
    """Restrict lattice amplitudes to the domain sites (tails dropped)."""
    n = state.f.size
    c = np.zeros(wb.cells)
    for i, s in enumerate(wb.sites):
        k = int(s) + n // 2
        if 0 <= k < n:
            c[i] = state.f[k]
    return c


def _reduced_residual(c, e_param, tbp, f_remainder):
    """E c - T c + eta |c|^{2s} c + (D c)/beta + (gamma/beta) f."""
    eta, sigma, beta = tbp.eta, tbp.sigma, tbp.beta
    tc = np.roll(c, 1) + np.roll(c, -1)
    out = e_param * c - tc + eta * np.abs(c) ** (2 * sigma) * c
    for ell in range(2, HALF_BANDWIDTH + 1):
        d = tbp.h_band[HALF_BANDWIDTH + ell]
        out += d / beta * (np.roll(c, -ell) + np.roll(c, ell))
    if tbp.gamma != 0.0:
        out += tbp.gamma / beta * f_remainder
    return out


def _remainder_term(c, phi, tbp, wb):
    """f_j = <u_j, |phi|^{2s} phi> - c0 |c_j|^{2s} c_j."""
    nl = _nonlinear_term(phi, tbp.sigma)
    return wb.dx * (wb.u @ nl) - tbp.c0 * np.abs(c) ** (2 * tbp.sigma) * c


def check_lattice_invertibility(c, e_param, tbp, min_singular=1e-6,
                                with_residual_band=False):
    """Smallest singular value of the periodic lattice linearization.

    Raises SolverError naming the near-singular direction when it falls
    below min_singular.  With with_residual_band the constant
    beyond-neighbor coupling band over beta is added, which is the exact
    linear part of the reduced equation and matters when the state sits
    close to the band edge.
    """
    prob = DnlsProblem(eta=tbp.eta, sigma=tbp.sigma, n_sites=max(c.size, 11),
                       boundary="periodic")
    lp = linearization_lplus(np.asarray(c, dtype=float), e_param, prob)
    if with_residual_band:
        n = c.size
        for ell in range(2, HALF_BANDWIDTH + 1):
            d = tbp.h_band[HALF_BANDWIDTH + ell] / tbp.beta
            idx = np.arange(n)
            lp[idx, (idx + ell) % n] += d
            lp[idx, (idx - ell) % n] += d
    svals = np.linalg.svd(lp, compute_uv=False)
    smin = float(svals[-1])
    if smin < min_singular:
        _, _, vt = np.linalg.svd(lp)
        site = int(np.argmax(np.abs(vt[-1])))
        raise SolverError(
            f"lattice linearization nearly singular (s_min = {smin:.2e}); "
            f"worst direction peaks at site index {site}"
        )
    return lp, smin


def reconstruct_and_correct(state: DnlsState, tbp: TBParams,
                            dom: PeriodicDomain, wb: WannierBasis,
                            delta0: float = DEFAULT_DELTA0,
                            max_outer: int = 50) -> ContinuumState:
    """Lift a lattice solution to a continuum solution at lambda = lambda1 - beta E.

    Alternates the out-of-band fixed point with Newton corrections of the
    lattice amplitudes (the Jacobian is the lattice linearization plus
    the constant beyond-neighbor coupling band, the exact linear part)
    until the full continuum residual drops below 1e-9 * max(|lambda|, hbar).

    In the linear limit gamma = 0 the banded lattice matrix is
    diagonalized directly and the eigenvector closest to the seed is
    returned; the continuum residual is then zero to roundoff.
    """
    e_param = state.e
    lam = tbp.lambda1 - tbp.beta * e_param
    c = lattice_map(state, wb)

    if tbp.gamma == 0.0:
        return _linear_reconstruction(state, tbp, dom, wb)

    check_lattice_invertibility(c, e_param, tbp)

    gamma, sigma = tbp.gamma, tbp.sigma
    tol = RESIDUAL_FLOOR * max(abs(lam), tbp.hbar)

    def _evaluate(cv):
        perp, perp_h1 = solve_perp_fixed_point(cv, e_param, tbp, dom, wb,
                                               delta0=delta0)
        full = wb.u.T @ cv + perp
        resid = dom.apply_h(full) + gamma * _nonlinear_term(full, sigma) - lam * full
        return full, perp_h1, l2_norm(dom.dx, resid)

    phi, perp_h1, rnorm = _evaluate(c)
    history = [rnorm]
    best = (rnorm, phi, perp_h1, c.copy(), 1)
    escapes = 0
    for it in range(1, max_outer):
        # once below tolerance, keep polishing while Newton still gains ground
        stalled = len(history) >= 2 and rnorm > 0.3 * history[-2]
        if rnorm <= tol and (rnorm <= 1e-3 * tol or stalled):
            break
        f_rem = _remainder_term(c, phi, tbp, wb)
        g = _reduced_residual(c, e_param, tbp, f_rem)
        lp, _ = check_lattice_invertibility(c, e_param, tbp,
                                            with_residual_band=True)
        step = np.linalg.solve(lp, g)
        # line search on the full continuum residual: the lattice
        # linearization omits the remainder couplings, so raw steps can
        # cycle near delocalized states, while strict monotonicity can
        # stall in front of transient humps; prefer improving scales but
        # allow a bounded number of full-step escapes
        trial, scale = None, 1.0
        full_trial = None
        for _ in range(9):
            try:
                cand = _evaluate(c - scale * step)
            except SolverError:
                cand = None  # left the contraction ball; shorten
            if cand is not None:
                if full_trial is None:
                    full_trial = (cand, scale)
                if cand[2] < rnorm:
                    trial = (cand, scale)
                    break
            scale *= 0.5
        if trial is None:
            escapes += 1
            if full_trial is None or escapes > 6:
                break  # nothing acceptable; report the best iterate
            trial = full_trial
        (phi, perp_h1, rnorm), scale = trial
        c = c - scale * step
        history.append(rnorm)
        if rnorm < best[0]:
            best = (rnorm, phi, perp_h1, c.copy(), it + 1)
    if best[0] > tol:
        raise NonConvergenceError(
            f"reconstruction did not reach residual {tol:.1e} in {max_outer} "
            f"outer iterations", history=history)
    rnorm, phi, perp_h1, c, iters = best
    return ContinuumState(
        phi=phi, lam=lam, gamma=gamma, sigma=sigma, residual_h=rnorm,
        c=c, perp_h1=perp_h1,
        norm_l2=l2_norm(dom.dx, phi), iterations=iters,
        resolvent_shift=lam,
    )


def _linear_reconstruction(state, tbp, dom, wb):
    """gamma = 0: diagonalize the banded lattice matrix in the u basis."""
    m = wb.cells
    h = np.zeros((m, m))
    for ell in range(-HALF_BANDWIDTH, HALF_BANDWIDTH + 1):
        val = tbp.h_band[HALF_BANDWIDTH + ell]
        h += val * np.eye(m, k=ell)
        if ell > 0:
            h += val * np.eye(m, k=ell - m)
        elif ell < 0:
            h += val * np.eye(m, k=ell + m)
    w, v = np.linalg.eigh(h)
    seed = lattice_map(state, wb)
    overlaps = np.abs(v.T @ seed)
    pick = int(np.argmax(overlaps))
    c = v[:, pick]
    if c @ seed < 0:
        c = -c
    lam = float(w[pick])
    phi = wb.u.T @ c
    resid = dom.apply_h(phi) - lam * phi
    rnorm = l2_norm(dom.dx, resid)
    return ContinuumState(
        phi=phi, lam=lam, gamma=0.0, sigma=tbp.sigma, residual_h=rnorm,
        c=c, perp_h1=0.0,
        norm_l2=l2_norm(dom.dx, phi), iterations=0, resolvent_shift=lam,
    )


def direct_newton_oracle(dom: PeriodicDomain, lam: float, gamma: float,
                         sigma: float, phi0: np.ndarray,
                         tol: float = ORACLE_TOL,
                         max_iter: int = 60) -> ContinuumState:
    """Full-grid Newton on the continuum equation, independent of the splitting.

    The Jacobian H + gamma (2 sigma + 1)|phi|^{2 sigma} - lambda is real
    symmetric and solved densely.  Raises SolverError on a singular
    Jacobian (resonant lambda) or on divergence (last residual reported).
    """
    phi = np.asarray(phi0, dtype=float).copy()
    hd = dom.dense_h()
    n = phi.size
    rnorm = np.inf
    for it in range(max_iter):
        resid = dom.apply_h(phi) + gamma * _nonlinear_term(phi, sigma) - lam * phi
        rnorm = l2_norm(dom.dx, resid)
        if rnorm <= tol:
            break
        jac = hd + np.diag(gamma * (2 * sigma + 1) * np.abs(phi) ** (2 * sigma) - lam)
        try:
            step = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular continuum Jacobian: lambda resonant") from exc
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
        c=None, perp_h1=0.0,
        norm_l2=l2_norm(dom.dx, phi), iterations=it + 1,
        resolvent_shift=lam,
    )


def peak_cell_mass(phi: np.ndarray, wb: WannierBasis) -> float:
    """Fraction of the L2 mass carried by the best single cell."""
    dens = phi**2
    per_cell = dens.reshape(wb.cells, wb.points_per_cell).sum(axis=1)
    return float(per_cell.max() / dens.sum())


def h1_distance(dom: PeriodicDomain, f: np.ndarray, g: np.ndarray) -> float:
    return dom.h1_norm(f - g)
