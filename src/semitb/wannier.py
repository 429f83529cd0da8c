"""Real localized first-band basis on a periodic multi-cell grid.

The construction runs in three steps.  First the first-band Bloch vectors
of the periodic domain's half stack, quasimomenta 0..cells//2, are brought
into a smooth gauge: block 0 is made its own conjugate mirror, the phases
are parallel transported along the half zone, and the winding against the
conjugate mirror at the zone edge is spread uniformly, so the zone average
W1 is real by construction; its sign makes it positive at the well.
W1 is kept as a diagnostic; the basis itself does not depend on the
gauge.  Second, a semiclassical well profile exp(-d(x, x0)/hbar) at the
central well is projected onto the first band by the spectral projector
of the periodic domain; its
lattice translates v_j carry the tunneling action in their overlaps (the
zone average itself has exactly orthonormal translates, which would leave
nothing to measure).  Third, the translates are symmetrically
orthogonalized: their Gram matrix is circulant on the periodic domain, so
the inverse square root is computed from its Fourier symbol, truncated to
a small band of lags.  The result is orthonormal to machine precision,
exactly translation covariant, lies in the domain's first band, and
agrees with the zone average up to exponentially small corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import warnings

import numpy as np

from .errors import BasisError, GaugeError
from .operators import PeriodicDomain, domain_sites, l2_norm
from .potential import action_profile

_ALIGN_FLOOR = 0.9
_ALIGN_SMOOTH = 0.99


@dataclass(frozen=True)
class WannierBasis:
    """Orthonormal localized basis u_j on a periodic multi-cell grid.

    The grid belongs to the PeriodicDomain the basis was built on; the
    basis keeps only what it adds to it.  u0 is the orbital of site 0,
    and every other orbital is its circular shift by whole cells, so the
    cell count and the points per cell follow from the array sizes and
    the sites from the domain_grid convention.  u[i] is the orbital of
    sites[i], built once from u0 on first use.  w is W1, the zone average
    of the domain's gauge-fixed first band (`fix_gauge`), and v0 the
    band-projected well seed whose translates were orthogonalized.
    overlaps[ell] holds <v_0, v_ell> - delta on circular lags, and
    lowdin[ell] the banded inverse-square-root coefficients that build u0
    from the translates.
    """

    w: np.ndarray
    v0: np.ndarray
    u0: np.ndarray
    overlaps: np.ndarray
    lowdin: np.ndarray

    @property
    def cells(self) -> int:
        return self.overlaps.size

    @property
    def points_per_cell(self) -> int:
        return self.u0.size // self.cells

    @property
    def sites(self) -> np.ndarray:
        return domain_sites(self.cells)

    @cached_property
    def u(self) -> np.ndarray:
        ppc = self.points_per_cell
        return np.stack([np.roll(self.u0, s * ppc) for s in self.sites])


def fix_gauge(dom: PeriodicDomain) -> np.ndarray:
    """W1: the zone average of the domain's first band in a smooth real gauge.

    Block r of the domain holds the modes g = r + cells*m, so its band-1
    vector is the Bloch function at kappa_r = 2 pi r / (cells a) with
    plane-wave coefficients indexed by m.  V is real, so block -r is the
    conjugate mirror (m -> -m-1) of block r, and the gauge is fixed on
    the half stack, blocks 0..cells//2: one phase makes block 0 its own
    conjugate mirror (m -> -m); parallel transport aligns each later block
    with the previous one (their overlap over matching m made real
    positive); the winding theta of the last block against its conjugate
    mirror, the first block of the other half, is spread as
    theta * r / cells.  The mirrored half then follows smoothly, and W1,
    scattered from the half stack by one irfft, is real.  This is the
    1-D maximally localized gauge up to a sign and a whole-cell
    translation, so W1 is made positive at its peak and moved by whole
    cells onto the site-0 well.  It has unit norm on the domain grid.  A
    phase on any block vector changes nothing.

    Raises GaugeError when an overlap along the half zone or at its edge
    falls below 0.9 (band degenerate or the domain too short).
    """
    cells, ppc = dom.cells, dom.points_per_cell
    rows = np.arange(len(dom.block_evecs))[:, None]
    m = (dom.g[dom.block_index[:len(rows)]] - rows) // cells
    # columns hold m = -top-1..top, so reversing them maps m -> -m-1
    top = max(m.max(), -m.min() - 1)
    col = m + top + 1
    c = np.zeros((len(rows), 2 * top + 2), dtype=complex)
    c[rows, col] = dom.block_evecs[:, :, 0]
    c[0] *= np.exp(-0.5j * np.angle(np.sum(c[0, 1:] * c[0, :0:-1])))

    links = np.sum(np.conj(c[:-1]) * c[1:], axis=1)
    mags = np.abs(links)
    # the edge link <c_last, its conjugate mirror> is conj(sum_m c[m] c[-m-1])
    min_link = min(mags.min(initial=np.inf), abs(np.sum(c[-1] * c[-1, ::-1])))
    if min_link < _ALIGN_FLOOR:
        raise GaugeError(f"adjacent Bloch overlap {min_link:.3f} < "
                         f"{_ALIGN_FLOOR}; increase cells")
    if min_link < _ALIGN_SMOOTH:
        warnings.warn(f"gauge smoothness marginal: min adjacent overlap "
                      f"{min_link:.4f}", stacklevel=2)
    c[1:] *= np.cumprod(np.conj(links) / mags)[:, None]

    theta = -np.angle(np.sum(c[-1] * c[-1, ::-1]))
    c *= np.exp(1j * theta * rows / cells)

    w = dom._from_half(c[rows, col])
    peak = int(np.argmax(np.abs(w)))
    if w[peak] < 0:
        w = -w
    w = np.roll(w, -int(dom.sites[peak // ppc]) * ppc)
    return w / l2_norm(dom.dx, w)


def build_orthonormal_basis(dom: PeriodicDomain, w: np.ndarray,
                            lowdin_band: int = 6) -> WannierBasis:
    """Orthonormalize band-projected well states over the periodic domain.

    The seed is a semiclassical well profile exp(-d(x, x0)/hbar) built
    from the tabulated action distance (its tails carry the tunneling
    action, so the overlaps of its translates do too), projected onto the
    first band by the domain's spectral projector, so the basis spans
    exactly the subspace that the domain resolvent complements.
    The translates have a circulant Gram matrix; the inverse square root
    is taken through the Fourier symbol (1 + a(kappa))^(-1/2), truncated
    to lags |ell| <= lowdin_band, which is exact up to the exponentially
    small dropped coefficients.  w is the zone average `fix_gauge(dom)`,
    kept in the basis as a diagnostic.

    Raises BasisError when the domain is too short for the lag band, or
    the overlap matrix stops being positive definite (hbar too large for
    a localized basis).
    """
    cells, points_per_cell = dom.cells, dom.points_per_cell
    if cells <= 2 * lowdin_band + 1:
        raise BasisError(f"cells={cells} too small for lag band {lowdin_band}")
    if cells < 12:
        warnings.warn(f"cells={cells} leaves no trusted interior sites",
                      stacklevel=2)

    x, dx = dom.x, dom.dx
    g = np.exp(-action_profile(dom.spec, x) / dom.hbar)
    g /= np.sqrt(dx * np.sum(g**2))
    v0 = dom.project_band1(g)

    vf = np.fft.fft(v0)
    corr = np.fft.ifft(vf * np.conj(vf)).real * dx
    gram = corr[np.arange(cells) * points_per_cell]  # <v_0, v_ell> on circular lags

    symbol = np.fft.fft(gram).real
    if symbol.min() <= 1e-12 or np.abs(gram - (np.arange(cells) == 0)).sum() >= 1.0:
        raise BasisError(
            "overlap matrix ill-conditioned (||A|| >= 1): hbar too large "
            "for an exponentially localized basis"
        )

    bsym = 1.0 / np.sqrt(symbol)
    b = np.fft.ifft(bsym).real
    lag = np.minimum(np.arange(cells), cells - np.arange(cells))
    b = np.where(lag <= lowdin_band, b, 0.0)

    u0 = np.zeros_like(v0)
    for ell in np.flatnonzero(b):
        u0 += b[ell] * np.roll(v0, ell * points_per_cell)

    overlaps = gram.copy()
    overlaps[0] -= 1.0

    return WannierBasis(w=w, v0=v0, u0=u0, overlaps=overlaps, lowdin=b)


def pair_overlap_l1(wb: WannierBasis, dx: float, ell: int) -> float:
    """L1 norm of the orbital pair product u_0 u_ell on the domain grid."""
    u0 = wb.u0
    return float(dx * np.abs(u0 * np.roll(u0, ell * wb.points_per_cell)).sum())
