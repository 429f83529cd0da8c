"""Real localized first-band basis on a periodic multi-cell grid.

The construction runs in three steps.  First the first-band Bloch family
is brought into a smooth real gauge: eigenvector phases are parallel
transported along the kappa grid, the residual winding across the zone
boundary is spread uniformly, and one global phase makes the zone average
real and positive at the well.  The zone average is kept as a diagnostic;
the basis itself does not depend on the gauge.  Second, a semiclassical
well profile exp(-d(x, x0)/hbar) at the central well is projected onto
the first band by the spectral projector of the periodic domain; its
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

from dataclasses import dataclass, replace
from functools import cached_property
import warnings

import numpy as np

from .bloch import BandData
from .errors import BasisError, GaugeError
from .operators import PeriodicDomain, domain_grid, domain_sites
from .potential import action_profile

_ALIGN_FLOOR = 0.9
_ALIGN_SMOOTH = 0.99
_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class WannierBasis:
    """Orthonormal localized basis u_j on a periodic multi-cell grid.

    The grid belongs to the PeriodicDomain the basis was built on; the
    basis keeps only what it adds to it.  u0 is the orbital of site 0,
    and every other orbital is its circular shift by whole cells, so the
    cell count and the points per cell follow from the array sizes and
    the sites from the domain_grid convention.  u[i] is the orbital of
    sites[i], built once from u0 on first use.  w is the zone average of
    the gauge-fixed first band and v0 the band-projected well seed whose
    translates were orthogonalized.  overlaps[ell] holds <v_0, v_ell> -
    delta on circular lags, and lowdin[ell] the banded inverse-square-root
    coefficients that build u0 from the translates.
    """

    w: np.ndarray
    v0: np.ndarray
    u0: np.ndarray
    overlaps: np.ndarray
    lowdin: np.ndarray
    lowdin_band: int

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

    def site_index(self, j: int) -> int:
        sites = self.sites
        idx = int(j - sites[0])
        if not 0 <= idx < self.cells:
            raise IndexError(f"site {j} outside domain sites "
                             f"[{sites[0]}, {sites[-1]}]")
        return idx

    def orbital(self, j: int) -> np.ndarray:
        return self.u[self.site_index(j)]


def fix_gauge(bd: BandData) -> BandData:
    """Fix the first-band gauge so the zone average is real and positive.

    Parallel transport aligns each eigenvector with its kappa neighbor
    (overlap of the periodic parts made real positive); the closure
    winding over the zone is distributed evenly across the grid; a final
    global phase makes the zone average real with positive value at the
    well.  A phase on the starting eigenvector must not change any
    downstream observable beyond a global sign.

    Raises GaugeError when adjacent overlaps fall below 0.9 (kappa grid
    too coarse) or the average cannot be made real to 1e-8.
    """
    a = bd.a
    nk = bd.n_kappa
    c = bd.coeffs[0].copy()

    min_link = np.inf
    for i in range(1, nk):
        o = a * np.vdot(c[i - 1], c[i])
        m = abs(o)
        min_link = min(min_link, m)
        if m < _ALIGN_FLOOR:
            raise GaugeError(
                f"adjacent Bloch overlap {m:.3f} < {_ALIGN_FLOOR}; "
                "increase n_kappa"
            )
        c[i] = c[i] * (np.conj(o) / m)
    if min_link < _ALIGN_SMOOTH:
        warnings.warn(
            f"gauge smoothness marginal: min adjacent overlap {min_link:.4f}",
            stacklevel=2,
        )

    # closure across the zone boundary: coefficients at kappa + b are the
    # mode-shifted coefficients at kappa
    shifted = np.roll(c[0], -1)
    shifted[-1] = 0.0
    z = a * np.vdot(c[-1], shifted)
    theta = np.angle(z)
    c = c * np.exp(1j * theta * np.arange(nk) / nk)[:, None]

    # global phase from the zone average on a probe grid around the well
    probe, dxp, _ = domain_grid(a, 10, 32)
    wavg = _zone_average(bd, c, probe)
    z2 = dxp * np.sum(wavg**2)
    c = c * np.exp(-0.5j * np.angle(z2))
    wavg = _zone_average(bd, c, probe)
    if wavg.real[np.argmax(np.abs(wavg))] < 0:  # positive at the well peak
        c = -c
        wavg = -wavg
    resid = np.abs(wavg.imag).max() / np.abs(wavg).max()
    if resid > _IMAG_TOL:
        raise GaugeError(f"zone average not real after gauge fix: "
                         f"imaginary residue {resid:.2e}")

    coeffs = bd.coeffs.copy()
    coeffs[0] = c
    return replace(bd, coeffs=coeffs, gauge_fixed=True)


def _zone_average(bd: BandData, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mean over the kappa grid of the band-1 Bloch functions on x."""
    phases = np.exp(1j * np.outer(x, bd.b * bd.modes))
    acc = np.zeros(x.size, dtype=complex)
    for i, k in enumerate(bd.kappa):
        acc += np.exp(1j * k * x) * (phases @ c[i])
    return acc / bd.n_kappa


def wannier_function(bd: BandData, x: np.ndarray) -> np.ndarray:
    """Zone average of the gauge-fixed first band, L2-normalized on x.

    The trapezoidal rule on the periodic kappa grid is a plain mean.
    """
    if not bd.gauge_fixed:
        raise GaugeError("gauge must be fixed before building the zone average")
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    if not np.allclose(np.diff(x), dx, rtol=0, atol=1e-12 * abs(dx) + 1e-300):
        raise ValueError("grid must be uniform")
    w = _zone_average(bd, bd.coeffs[0], x)
    resid = np.abs(w.imag).max() / np.abs(w).max()
    if resid > _IMAG_TOL:
        raise GaugeError(f"zone average has imaginary residue {resid:.2e}")
    w = w.real
    w = w / np.sqrt(dx * np.sum(w**2))
    return w


def build_orthonormal_basis(bd: BandData, dom: PeriodicDomain,
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
    small dropped coefficients.  bd supplies only the zone average w.

    Raises BasisError when bd and dom disagree in hbar or period, or the
    overlap matrix stops being positive definite (hbar too large for a
    localized basis).
    """
    if not bd.gauge_fixed:
        raise GaugeError("gauge must be fixed before building the basis")
    for name, ours, theirs in (("hbar", bd.hbar, dom.hbar),
                               ("period", bd.a, dom.spec.a)):
        if abs(ours - theirs) > 1e-12 * abs(theirs):
            raise BasisError(f"band data has {name} {ours!r} but the domain "
                             f"has {name} {theirs!r}")
    cells, points_per_cell = dom.cells, dom.points_per_cell
    if cells <= 2 * lowdin_band + 1:
        raise BasisError(f"cells={cells} too small for lag band {lowdin_band}")
    if cells < 12:
        warnings.warn(f"cells={cells} leaves no trusted interior sites",
                      stacklevel=2)

    x, dx = dom.x, dom.dx
    w = wannier_function(bd, x)

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

    return WannierBasis(w=w, v0=v0, u0=u0, overlaps=overlaps, lowdin=b,
                        lowdin_band=lowdin_band)


@dataclass(frozen=True)
class BasisDiagnostics:
    sup_sum: float
    pair_l1: dict


def basis_diagnostics(wb: WannierBasis, dom: PeriodicDomain) -> BasisDiagnostics:
    """sup_x sum_j |u_j(x)| and the L1 norms of orbital pair products, lags 0..4."""
    sup_sum = float(np.abs(wb.u).sum(axis=0).max())
    u0 = wb.u0
    pair = {}
    for ell in range(5):
        pair[ell] = float(dom.dx * np.abs(u0 * np.roll(u0, ell * wb.points_per_cell)).sum())
    return BasisDiagnostics(sup_sum=sup_sum, pair_l1=pair)
