"""Lattice parameters of H in the localized basis.

The restriction of H to the first band in the orthonormal localized basis
is a banded circulant lambda1*I - beta*T + D (T the nearest-neighbor
stencil, D the beyond-nearest-neighbor couplings); `ring_coupling` builds
(H - lambda1)/beta from it.  beta is computed from the real-space matrix
element and cross-checked against the first Fourier coefficient of the
band function, which is an independent route through the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bloch import BandData
from .dnls import neighbor_sum
from .errors import BasisError
from .operators import PeriodicDomain
from .wannier import WannierBasis

HALF_BANDWIDTH = 4


@dataclass(frozen=True)
class TBParams:
    """Extracted lattice parameters at one hbar.

    h_band[ell + 4] = <u_0, H u_ell> for ell in -4..4.  dtilde_norm is the
    row sum of the couplings beyond nearest neighbors (the l1-induced
    operator norm of the residual), and dtilde_ratio its ratio to beta.
    gamma and eta are the nonlinearity strength and the effective
    dimensionless combination eta = c0*gamma/beta.
    """

    hbar: float
    sigma: float
    lambda1: float
    beta: float
    c0: float
    gamma: float
    eta: float
    h_band: np.ndarray
    dtilde_norm: float
    dtilde_ratio: float


def h_matrix_elements(wb: WannierBasis, dom: PeriodicDomain,
                      band1_edges: tuple[float, float]):
    """Banded matrix elements <u_0, H u_ell>, |ell| <= 4.

    Returns (h_band, lambda1, beta) with lambda1 the diagonal element and
    beta = -<u_0, H u_1>.  Checks the symmetry of the band, that |beta|
    clears the roundoff floor eps * max|E| of the domain H, its sign under
    the positive-well gauge, and that lambda1 lies inside the first band
    (band1_edges).
    """
    u0 = wb.orbital(0)
    hu0 = dom.apply_h(u0)
    ells = np.arange(-HALF_BANDWIDTH, HALF_BANDWIDTH + 1)
    h_band = np.empty(ells.size)
    for i, ell in enumerate(ells):
        h_band[i] = dom.dx * np.sum(wb.orbital(int(ell)) * hu0)

    asym = np.abs(h_band - h_band[::-1]).max()
    if asym > 1e-10 * max(1.0, np.abs(h_band).max()):
        raise BasisError(f"H matrix elements not symmetric: asymmetry {asym:.2e}")

    lambda1 = float(h_band[HALF_BANDWIDTH])
    beta = -float(h_band[HALF_BANDWIDTH + 1])
    floor = np.finfo(float).eps * np.abs(dom.block_evals).max()
    if abs(beta) < floor:
        raise BasisError(f"hopping |beta| = {abs(beta):.3e} at hbar = {dom.hbar:g} is "
                         f"below the roundoff floor {floor:.3e} = eps * max|E| of H")
    if beta <= 0:
        raise BasisError(
            f"hopping beta = {beta:.3e} <= 0; sign convention violated upstream"
        )
    lo, hi = band1_edges
    if not (lo - 1e-8 <= lambda1 <= hi + 1e-8):
        raise BasisError(
            f"lambda1 = {lambda1:.8g} outside first band [{lo:.8g}, {hi:.8g}]: "
            "basis leaks out of the band subspace"
        )
    return h_band, lambda1, beta


def interaction_constant(wb: WannierBasis, dom: PeriodicDomain, sigma: float,
                         site: int = 0) -> float:
    """c0 = integral of |u_site|^(2*sigma + 2) on the domain grid."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    u = wb.orbital(site)
    return float(dom.dx * np.sum(np.abs(u) ** (2 * sigma + 2)))


def effective_nonlinearity(c0: float, gamma: float, beta: float) -> float:
    """eta = c0*gamma/beta."""
    if beta <= 0:
        raise BasisError(f"beta = {beta:.3e} <= 0")
    return c0 * gamma / beta


def gamma_for_eta(c0: float, eta: float, beta: float) -> float:
    """Inverse map gamma(eta) = eta*beta/c0 used by the multiscale sweep."""
    if beta <= 0:
        raise BasisError(f"beta = {beta:.3e} <= 0")
    return eta * beta / c0


def residual_coupling_norm(h_band: np.ndarray, beta: float):
    """Row sum of |<u_0, H u_ell>| over |ell| >= 2, and its ratio to beta."""
    c = HALF_BANDWIDTH
    tail = np.abs(h_band[:c - 1]).sum() + np.abs(h_band[c + 2:]).sum()
    return float(tail), float(tail / beta)


def ring_coupling(tbp: TBParams, m: int,
                  with_residual_band: bool = True) -> np.ndarray:
    """(H - lambda1)/beta on the first band of an m-cell ring: -T + D/beta.

    The m x m circulant is exactly -1 on lags +-1 and h_band[4 + ell]/beta
    on lags +-ell for 2 <= ell <= 4; without the residual band it is -T.
    """
    out = -neighbor_sum(np.eye(m), "periodic")
    if with_residual_band:
        for ell in range(2, HALF_BANDWIDTH + 1):
            lag = np.roll(np.eye(m), ell, axis=1)
            out += tbp.h_band[HALF_BANDWIDTH + ell] / tbp.beta * (lag + lag.T)
    return out


def band_hopping(bd: BandData) -> float:
    """Independent hopping estimate -mean(E_1(kappa) cos(kappa a))."""
    return -float(np.mean(bd.energies[0] * np.cos(bd.kappa * bd.a)))


def extract_params(wb: WannierBasis, dom: PeriodicDomain, sigma: float,
                   bd: BandData) -> TBParams:
    """Assemble TBParams from a basis built on dom, at gamma = eta = 0; see with_eta.

    bd supplies the first-band edges that lambda1 must lie in.  Raises
    BasisError when bd and dom disagree in hbar or period.
    """
    for name, ours, theirs in (("hbar", bd.hbar, dom.hbar),
                               ("period", bd.a, dom.spec.a)):
        if abs(ours - theirs) > 1e-12 * abs(theirs):
            raise BasisError(f"band data has {name} {ours!r} but the domain "
                             f"has {name} {theirs!r}")
    h_band, lambda1, beta = h_matrix_elements(wb, dom, bd.band_edges(1))
    c0 = interaction_constant(wb, dom, sigma)
    dnorm, dratio = residual_coupling_norm(h_band, beta)
    return TBParams(hbar=dom.hbar, sigma=sigma, lambda1=lambda1, beta=beta,
                    c0=c0, gamma=0.0, eta=0.0, h_band=h_band,
                    dtilde_norm=dnorm, dtilde_ratio=dratio)


def with_eta(tbp: TBParams, eta: float) -> TBParams:
    """Same parameters at a different effective nonlinearity."""
    gamma = gamma_for_eta(tbp.c0, eta, tbp.beta)
    return replace(tbp, gamma=gamma, eta=eta)
