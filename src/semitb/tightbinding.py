"""Lattice parameters of H in the localized basis.

The restriction of H to the first band in the orthonormal localized basis
is the circulant lambda1*I - beta*T + D (T the nearest-neighbor stencil, D
the beyond-nearest-neighbor couplings) of the row <u_ell, H u_0>;
`ring_coupling` builds (H - lambda1)/beta from that row.  beta is
cross-checked against the first Fourier coefficient of the band function,
an independent route through the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bloch import BandData
from .errors import BasisError
from .operators import PeriodicDomain
from .wannier import WannierBasis

@dataclass(frozen=True)
class TBParams:
    """Extracted lattice parameters at one hbar.

    h_row[ell] = <u_ell, H u_0> on the circular lags 0..cells-1, exactly
    symmetric, its sub-floor lags beyond nearest neighbors zeroed; it
    fixes lambda1 = h_row[0], the hopping beta = -h_row[1] and the
    residual norm dtilde_norm.  eta is the effective nonlinearity and
    gamma = eta*beta/c0 the nonlinearity strength it fixes.
    """

    hbar: float
    sigma: float
    c0: float
    eta: float
    h_row: np.ndarray

    @property
    def lambda1(self) -> float:
        return float(self.h_row[0])

    @property
    def beta(self) -> float:
        return -float(self.h_row[1])

    @property
    def gamma(self) -> float:
        return self.eta * self.beta / self.c0

    @property
    def dtilde_norm(self) -> float:
        """Row sum of |<u_ell, H u_0>| over the lags 2..cells-2: the
        l1-induced operator norm of the residual D."""
        return float(np.abs(self.h_row[2:self.h_row.size - 1]).sum())


def h_matrix_elements(wb: WannierBasis, dom: PeriodicDomain,
                      band1_edges: tuple[float, float]):
    """The row <u_ell, H u_0> of the reduced operator on circular lags 0..cells-1.

    Returns h_row (TBParams reads lambda1 = h_row[0], beta = -h_row[1]).
    Checks the row's symmetry, symmetrizes it from lags 0..cells//2, and
    zeroes the lags >= 2 below the roundoff floor eps * max|E| of H; then
    checks |beta| against that floor, its sign under the positive-well
    gauge, and that lambda1 lies inside the first band (band1_edges).
    """
    cells, ppc = wb.cells, wb.points_per_cell
    row = np.empty(cells)
    # one orbital at a time, with no (cells, n) product; each row is the
    # same pairwise sum that np.sum(..., axis=1) of the product takes
    hu0 = dom.apply_h(wb.u0)
    row[wb.sites % cells] = [dom.dx * np.sum(np.roll(wb.u0, s * ppc) * hu0)
                             for s in wb.sites]

    asym = np.abs(row - row[-np.arange(cells)]).max()
    if asym > 1e-10 * max(1.0, np.abs(row).max()):
        raise BasisError(f"H matrix elements not symmetric: asymmetry {asym:.2e}")
    lag = np.minimum(np.arange(cells), cells - np.arange(cells))
    floor = np.finfo(float).eps * np.abs(dom.block_evals).max()
    row = np.where((lag >= 2) & (np.abs(row[lag]) < floor), 0.0, row[lag])

    lambda1, beta = float(row[0]), -float(row[1])
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
    return row


def interaction_constant(wb: WannierBasis, dom: PeriodicDomain, sigma: float) -> float:
    """c0 = integral of |u_0|^(2*sigma + 2) on the domain grid.

    Every orbital is a whole-cell shift of u_0, so c0 is site independent.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return float(dom.dx * np.sum(np.abs(wb.u0) ** (2 * sigma + 2)))


def ring_coupling(tbp: TBParams) -> np.ndarray:
    """(H - lambda1)/beta on the first band of the cells-site ring: -T + D/beta.

    The circulant of h_row/beta with a zero diagonal; it is exactly -1 on
    lags +-1, since beta = -h_row[1].
    """
    lags = np.arange(tbp.h_row.size)
    k = np.where(lags == 0, 0.0, tbp.h_row / tbp.beta)
    return k[(lags[:, None] - lags) % lags.size]


def band_hopping(bd: BandData) -> float:
    """Independent hopping estimate -mean(E_1(kappa) cos(kappa a))."""
    return -float(np.mean(bd.energies[0] * np.cos(bd.kappa * bd.a)))


def extract_params(wb: WannierBasis, dom: PeriodicDomain, sigma: float,
                   bd: BandData) -> TBParams:
    """Assemble TBParams from a basis built on dom, at eta = 0; see with_eta.

    bd supplies the first-band edges that lambda1 must lie in.  Raises
    BasisError when bd and dom disagree in hbar or period, or when the
    domain's first band misses bd's by more than half the band width (or
    the roundoff floor of H, if that is larger): the grid is too coarse,
    and lambda1, the mean of the domain's band, would leave bd's band.
    """
    for name, ours, theirs in (("hbar", bd.hbar, dom.hbar),
                               ("period", bd.a, dom.spec.a)):
        if abs(ours - theirs) > 1e-12 * abs(theirs):
            raise BasisError(f"band data has {name} {ours!r} but the domain "
                             f"has {name} {theirs!r}")
    edges = bd.band_edges(1)
    miss = float(np.abs(np.subtract(dom.band_edges(1), edges)).max())
    bound = max(0.5 * (edges[1] - edges[0]),
                100 * np.finfo(float).eps * np.abs(dom.block_evals).max())
    if miss > bound:
        raise BasisError(
            f"the domain's first band misses the Floquet band by {miss:.2e} > "
            f"{bound:.2e} at hbar = {dom.hbar:g}: numerics.points_per_cell = "
            f"{dom.points_per_cell} is too coarse a grid for this potential")
    h_row = h_matrix_elements(wb, dom, edges)
    return TBParams(hbar=dom.hbar, sigma=sigma,
                    c0=interaction_constant(wb, dom, sigma), eta=0.0, h_row=h_row)


def with_eta(tbp: TBParams, eta: float) -> TBParams:
    """Same parameters at a different effective nonlinearity; gamma follows."""
    return replace(tbp, eta=eta)
