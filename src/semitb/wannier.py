"""Real localized first-band basis on a periodic multi-cell grid.

The construction runs in three steps.  First the first-band Bloch vectors
of the periodic domain's half stack, quasimomenta 0..cells//2, are brought
into a smooth gauge.  They are real, so the gauge is a sign per block,
set by parallel transport along the half zone; a well half a cell from
the grid's cell edges adds a Zak phase pi at the zone edge, spread
uniformly.  The zone average W1 is real by construction and positive at
the well; `semitb wannier` writes it as a diagnostic, and the basis
neither stores it nor depends on the gauge.  Second, a semiclassical
well profile exp(-d(x, x0)/hbar) at the central well is projected onto
the first band by the spectral projector of the periodic domain; its
lattice translates v_j carry the tunneling action in their overlaps
(the zone average itself has exactly orthonormal translates, which would
leave nothing to measure).  Third, the translates are symmetrically
orthogonalized: their Gram matrix is circulant on the periodic domain,
so the inverse square root is computed from its Fourier symbol,
truncated to a small band of lags.  The result
is orthonormal to machine precision, exactly translation covariant, lies
in the domain's first band, and agrees with the zone average up to
exponentially small corrections.  Every orbital is u0 moved by whole
cells, so synthesis and analysis are circulant products on the
(cells, ppc) reshape (`synthesize`, `analyze`), with no orbital stack.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    and that of site s is np.roll(u0, s * points_per_cell), so the cell
    count and the points per cell follow from the array sizes and the
    sites from the domain_grid convention.  overlaps[ell] holds
    <v_0, v_ell> - delta on circular lags, v_0 the band-projected well
    seed whose translates were orthogonalized.  The zone average W1 is
    not kept: `fix_gauge(dom)` computes it from the domain.
    """

    u0: np.ndarray
    overlaps: np.ndarray

    @property
    def cells(self) -> int:
        return self.overlaps.size

    @property
    def points_per_cell(self) -> int:
        return self.u0.size // self.cells

    @property
    def sites(self) -> np.ndarray:
        return domain_sites(self.cells)


def _ring_lags(cells: int) -> np.ndarray:
    q = np.arange(cells)
    return (q[:, None] - q) % cells  # (q - p) mod cells


def synthesize(wb: WannierBasis, c: np.ndarray) -> np.ndarray:
    """sum_j c_j u_j on the domain grid, c indexed like wb.sites.

    Row q of u_j on the (cells, ppc) reshape is row q - s_j of u0's: the
    sum is the circulant of c (by site mod cells) times that reshape.
    """
    ring = np.roll(c, wb.sites[0])
    return (ring[_ring_lags(wb.cells)] @ wb.u0.reshape(wb.cells, -1)).ravel()


def analyze(wb: WannierBasis, dx: float, f: np.ndarray) -> np.ndarray:
    """<u_j, f> = dx sum_x u_j(x) f(x), indexed like wb.sites.

    Entry (q, p) of f u0^T on the (cells, ppc) reshapes pairs row q of f
    with row p of u0: site s_j sums those with q - p = s_j (mod cells).
    """
    pairs = f.reshape(wb.cells, -1) @ wb.u0.reshape(wb.cells, -1).T
    ring = np.take_along_axis(pairs, _ring_lags(wb.cells), axis=1).sum(axis=0)
    return dx * np.roll(ring, -wb.sites[0])


def fix_gauge(dom: PeriodicDomain) -> np.ndarray:
    """W1: the zone average of the domain's first band in a smooth real gauge.

    Block r of the domain holds the modes g = r + cells*m, so its band-1
    vector is the Bloch function at kappa_r = 2 pi r / (cells a) with
    plane-wave coefficients indexed by m.  The blocks are real and block
    -r is the mirror (m -> -m-1) of block r, so the gauge is fixed on the
    half stack, blocks 0..cells//2, by signs: block 0, the ground state
    of an even V at kappa = 0, is its own mirror (m -> -m); parallel
    transport makes each later block's overlap with the previous one
    positive.  The last block's overlap with its mirror, the first block
    of the other half, is then positive, or negative when the well sits
    half a cell from the grid's cell edges (x0 = 0): that Zak phase pi is
    the one step that is not a sign, spread as the phase -pi r / cells.
    The mirrored half then follows smoothly, and W1, scattered from the
    half stack by one irfft, is real.  This is the 1-D maximally
    localized gauge up to a sign and a whole-cell translation, so W1 is
    made positive at its peak and moved by whole cells onto the site-0
    well.  It has unit norm on the domain grid.  A sign on any block
    vector changes nothing.

    Raises GaugeError when an overlap along the half zone or at its edge
    falls below 0.9 (band degenerate or the domain too short).
    """
    cells, ppc = dom.cells, dom.points_per_cell
    rows = np.arange(len(dom.block_evecs))[:, None]
    m = (dom.g[dom.block_index[:len(rows)]] - rows) // cells
    # columns hold m = -top-1..top, so reversing them maps m -> -m-1
    top = max(m.max(), -m.min() - 1)
    col = m + top + 1
    c = np.zeros((len(rows), 2 * top + 2))
    c[rows, col] = dom.block_evecs[:, :, 0]

    links = np.sum(c[:-1] * c[1:], axis=1)
    # the edge link <c_last, its mirror> is sum_m c[m] c[-m-1]
    edge = np.sum(c[-1] * c[-1, ::-1])
    min_link = min(np.abs(links).min(initial=np.inf), abs(edge))
    if min_link < _ALIGN_FLOOR:
        raise GaugeError(f"adjacent Bloch overlap {min_link:.3f} < "
                         f"{_ALIGN_FLOOR}; increase cells")
    if min_link < _ALIGN_SMOOTH:
        warnings.warn(f"gauge smoothness marginal: min adjacent overlap "
                      f"{min_link:.4f}", stacklevel=2)
    c[1:] *= np.cumprod(np.sign(links))[:, None]
    if edge < 0:
        c = c * np.exp(-1j * np.pi * rows / cells)

    w = dom._from_half(c[rows, col])
    peak = int(np.argmax(np.abs(w)))
    if w[peak] < 0:
        w = -w
    w = np.roll(w, -int(dom.sites[peak // ppc]) * ppc)
    return w / l2_norm(dom.dx, w)


def build_orthonormal_basis(dom: PeriodicDomain, lowdin_band: int = 6) -> WannierBasis:
    """Orthonormalize band-projected well states over the periodic domain.

    The seed is a semiclassical well profile exp(-d(x, x0)/hbar) built
    from the tabulated action distance (its tails carry the tunneling
    action, so the overlaps of its translates do too), projected onto the
    first band by the domain's spectral projector, so the basis spans
    exactly the subspace that the domain resolvent complements.
    The translates have a circulant Gram matrix; the inverse square root
    is taken through the Fourier symbol (1 + a(kappa))^(-1/2), truncated
    to lags |ell| <= lowdin_band, which is exact up to the exponentially
    small dropped coefficients.  The result does not depend on the gauge
    of `fix_gauge`, which the basis does not read.

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

    b = np.fft.ifft(1.0 / np.sqrt(symbol)).real
    lag = np.minimum(np.arange(cells), cells - np.arange(cells))
    b = np.where(lag <= lowdin_band, b, 0.0)

    u0 = np.zeros_like(v0)
    for ell in np.flatnonzero(b):
        u0 += b[ell] * np.roll(v0, ell * points_per_cell)

    overlaps = gram.copy()
    overlaps[0] -= 1.0

    return WannierBasis(u0=u0, overlaps=overlaps)


def pair_overlap_l1(wb: WannierBasis, dx: float, ell: int) -> float:
    """L1 norm of the orbital pair product u_0 u_ell on the domain grid."""
    u0 = wb.u0
    return float(dx * np.abs(u0 * np.roll(u0, ell * wb.points_per_cell)).sum())
