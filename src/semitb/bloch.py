"""Floquet eigenproblem in a plane-wave basis.

For each quasimomentum kappa in the Brillouin zone [-b/2, b/2), b = 2*pi/a,
the operator -hbar^2 d^2/dx^2 + V(x) acting on functions with boundary
condition phi(x + a) = exp(i*kappa*a) phi(x) is represented on the modes
exp(i*(kappa + 2*pi*m/a)*x).  The matrix is banded with the Fourier
support of V, and only the lowest n_bands energies are computed, on the
half zone [-b/2, 0]: a real V has E_n(-kappa) = E_n(kappa).  V is even,
so its coefficients are real and so is the matrix.  A tridiagonal matrix
(sin2, a free particle) is solved by Sturm bisection in numpy, a wider
band by scipy's banded symmetric solver.  The Bloch vectors the pipeline
uses come from the periodic domain (`operators`).
Band widths are exponentially small in 1/hbar, so the spectrally accurate
plane-wave discretization is required; finite differences would bury them
in O(h^2) error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import Error
from .potential import PotentialSpec


@dataclass(frozen=True)
class FloquetConfig:
    """Discretization of the Floquet eigenproblem.

    n_pw plane-wave modes (odd, symmetric around zero), n_kappa points on
    the Brillouin zone (even, so kappa = 0 and kappa = -b/2 are on the
    grid), n_bands bands kept.
    """

    hbar: float
    n_pw: int = 129
    n_kappa: int = 64
    n_bands: int = 5

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.n_bands < 2:
            raise ValueError("n_bands must be >= 2: the first gap needs band 2")
        if self.n_pw % 2 != 1:
            raise ValueError("n_pw must be odd (symmetric mode set)")
        if self.n_pw < 2 * self.n_bands + 9:
            raise ValueError("n_pw must be >= 2*n_bands + 9")
        if self.n_kappa % 2 != 0 or self.n_kappa < 8:
            raise ValueError("n_kappa must be even and >= 8")


@dataclass(frozen=True)
class BandData:
    """Band energies on a kappa grid.

    energies[n, i] = E_n(kappa_i), sorted ascending in n.
    """

    a: float
    hbar: float
    kappa: np.ndarray
    energies: np.ndarray

    @property
    def b(self) -> float:
        return 2 * np.pi / self.a

    @property
    def n_bands(self) -> int:
        return self.energies.shape[0]

    def band_edges(self, n: int) -> tuple[float, float]:
        """(alpha_n, beta_n) = (min, max) of band n, 1-based."""
        e = self.energies[n - 1]
        return float(e.min()), float(e.max())


def floquet_band(spec: PotentialSpec, n_pw: int) -> np.ndarray:
    """The potential part of the Floquet matrix on n_pw modes, in lower
    band storage.

    Row d holds the d-th subdiagonal of the Toeplitz block vhat[|m - n|],
    the constant coefficient of k = d padded with d zeros.  There are
    K + 1 rows, K the half-bandwidth: the largest k with |vhat[k]| >
    n_pw * eps * max|vhat|, 0 if there is none.  The entries dropped
    beyond it sit below the backward error of a dense eigensolver.  K = 1
    for sin2, len(coeffs) for cos-series and 0 for a free particle.  The
    storage depends on neither hbar nor kappa: the kinetic diagonal
    hbar^2 (kappa + 2 pi m / a)^2 adds to row 0.
    """
    # spec.vhat (k >= 0), padded with zeros or truncated to the n_pw - 1
    # couplings the mode set has room for
    vhat = np.zeros(n_pw)
    vhat[:spec.vhat.size] = spec.vhat[:n_pw]
    mag = np.abs(vhat)
    above = np.flatnonzero(mag > n_pw * np.finfo(float).eps * mag.max())
    d = np.arange(above.max(initial=0) + 1)[:, None]  # 0 .. K
    return np.where(np.arange(n_pw) < n_pw - d, vhat[d], 0)


def solve_bands(spec: PotentialSpec, cfg: FloquetConfig) -> BandData:
    """Lowest n_bands energies of the Floquet matrix at every zone kappa.

    The matrix is hbar^2 (kappa + 2 pi m / a)^2 on the diagonal plus the
    Toeplitz potential block vhat[|m - n|]: it is real symmetric by
    construction, and only its lower band, `floquet_band`, is stored.  It
    is filled once; only its diagonal changes with kappa, and the
    diagonals of all solved kappa are built at once.

    Only the half zone kappa_0 = -b/2 .. kappa_{n_kappa/2} = 0 is solved:
    V is real, so H(-kappa) = P H(kappa) P with P the mode reversal
    m -> -m, and E_n(-kappa) = E_n(kappa) fills the rest.  For K <= 1 the
    matrix is tridiagonal and `_tridiagonal_lowest` solves every kappa at
    once in numpy; a wider band goes through `eig_banded`, one kappa at a
    time.  Either way the energies come ascending and scipy.linalg is
    loaded only for K >= 2.

    Warns if the top kept band reaches a quarter of the plane-wave cutoff
    energy, which signals basis truncation.
    """
    a, hbar = spec.a, cfg.hbar
    b = 2 * np.pi / a
    kappa = -b / 2 + b * np.arange(cfg.n_kappa) / cfg.n_kappa
    band = floquet_band(spec, cfg.n_pw)
    modes = np.arange(cfg.n_pw) - cfg.n_pw // 2
    half = cfg.n_kappa // 2 + 1
    # row i: the Floquet matrix's diagonal at kappa_i
    diagonal = band[0] + hbar**2 * np.add.outer(kappa[:half], b * modes) ** 2

    nb = cfg.n_bands
    energies = np.empty((nb, cfg.n_kappa))
    if len(band) <= 2:
        e2 = band[1, 0] ** 2 if len(band) == 2 else 0.0
        energies[:, :half] = _tridiagonal_lowest(diagonal, e2, nb).T
    else:
        for i, d in enumerate(diagonal):
            energies[:, i] = _floquet_eig(band, d, (0, nb - 1))
    # kappa_{n_kappa - i} = -kappa_i
    energies[:, half:] = energies[:, half - 2:0:-1]

    cutoff = hbar**2 * (np.pi * cfg.n_pw / a) ** 2 / 4
    if energies[nb - 1].max() > cutoff:
        warnings.warn(
            f"top kept band reaches {energies[nb - 1].max():.3g}, above the "
            f"plane-wave safety cutoff {cutoff:.3g}; increase n_pw",
            stacklevel=2,
        )
    return BandData(a=a, hbar=hbar, kappa=kappa, energies=energies)


# the interior probes of a bracket in one quadrisection pass
_PROBES = np.array([0.25, 0.5, 0.75])


def _tridiagonal_lowest(d: np.ndarray, e2: float, n_bands: int) -> np.ndarray:
    """Lowest n_bands eigenvalues of each row's tridiagonal matrix, ascending.

    Row r of d (shape (rows, n)) is the diagonal of a real symmetric
    tridiagonal matrix whose off-diagonal entries all have modulus
    sqrt(e2); the result has shape (rows, n_bands).  Sturm-sequence
    bisection (Barth, Martin and Wilkinson, Numer. Math. 9, 386 (1967)):
    the LDL^T pivots q_i = (d_i - sigma) - e2 / q_{i-1} of T - sigma have
    as many negative entries as T has eigenvalues below sigma, and in
    IEEE arithmetic this count is exact for a matrix a few ulps from T
    (Demmel, Dhillon and Ren, ETNA 3, 116 (1995)).  Eigenvalue j starts
    in Weyl's bracket d_(j) -+ 2 sqrt(e2), d_(j) the sorted diagonal; every
    pass counts at three interior points of every bracket and keeps the
    quarter that holds it, until no bracket moves: the ends are then
    adjacent doubles.
    """
    n = d.shape[1]
    radius = 2 * np.sqrt(e2)
    centre = np.sort(d, axis=1)[:, :n_bands]
    lo, hi = centre - radius, centre + radius
    j = np.arange(n_bands)[:, None]
    # with e2 > 0 an exact zero pivot gives q = -inf next, as IEEE carries
    # it, and 0 / 0 cannot occur
    e2 = max(e2, np.finfo(float).tiny)
    diag = d.T[:, :, None, None]
    q = np.empty((n, *lo.shape, _PROBES.size))
    ratio = np.empty(q.shape[1:])
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            probes = lo[..., None] + (hi - lo)[..., None] * _PROBES
            np.subtract(diag, probes, out=q)
            for i in range(1, n):
                np.divide(e2, q[i - 1], out=ratio)
                q[i] -= ratio
            below = np.count_nonzero(q < 0, axis=0)
            # probes with at most j eigenvalues below them lie under lambda_j
            s = np.count_nonzero(below <= j, axis=-1)[..., None]
            ends = np.concatenate((lo[..., None], probes, hi[..., None]), axis=-1)
            new_lo = np.take_along_axis(ends, s, -1)[..., 0]
            new_hi = np.take_along_axis(ends, s + 1, -1)[..., 0]
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                return (lo + hi) / 2
            lo, hi = new_lo, new_hi


def _floquet_eig(band: np.ndarray, diagonal: np.ndarray,
                 select: tuple[int, int]) -> np.ndarray:
    """Eigenvalues select[0]..select[1] (0-based) of the Floquet matrix with
    the lower band storage band and the diagonal diagonal."""
    # scipy.linalg costs about half of the package's import time, and only
    # a band wider than tridiagonal needs it
    import scipy.linalg

    band = band.copy()
    band[0] = diagonal
    try:
        return scipy.linalg.eig_banded(band, lower=True, eigvals_only=True,
                                       select="i", select_range=select)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise Error("banded eigensolver failed on a Floquet matrix") from exc


def band_metrics(bd: BandData, n: int) -> dict:
    """Width and gap above band n (1-based): beta_n - alpha_n, alpha_{n+1} - beta_n."""
    if not 1 <= n <= bd.n_bands - 1:
        raise ValueError(f"band index {n} out of range 1..{bd.n_bands - 1}")
    alpha_n, beta_n = bd.band_edges(n)
    alpha_next, _ = bd.band_edges(n + 1)
    return {"width": beta_n - alpha_n, "gap_above": alpha_next - beta_n}
