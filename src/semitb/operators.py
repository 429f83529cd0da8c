"""Spectral Hamiltonian on a periodic multi-cell domain.

The domain covers `cells` lattice periods with a uniform grid and periodic
boundary.  The sampled potential repeats every `points_per_cell` points,
so its discrete Fourier transform couples only plane-wave modes whose
indices agree modulo `cells`, and the Hamiltonian splits into `cells`
independent blocks, one per domain quasimomentum.  The blocks are
gathered from that transform, so they hold exactly the operator that
`apply_h` and `dense_h` apply.  Diagonalizing them yields the complete
eigenbasis of the discrete operator, which makes the first-band
projector and the resolvent on its complement exact and cheap.  The
blocks are kept as one `(cells, points_per_cell, ...)` stack: a single
stacked `eigh` builds them, and the projector and the resolvent act on
all of them at once through stacked matrix products.

V is real, so block -r (mod cells) is the complex conjugate of block r:
the resolvent of a real input needs only its `rfft` and the blocks
0..cells//2, about half of them, and the other modes follow by conjugate
mirror.  The H1 norm is read off the `rfft` by Parseval's identity.
"""

from __future__ import annotations

import numpy as np

from .potential import PotentialSpec


def domain_sites(cells: int) -> np.ndarray:
    """Integer cell indices of the domain, from -((cells-1)//2) upward.

    An even cell count extends one extra site to the right.
    """
    return -((cells - 1) // 2) + np.arange(cells)


def domain_grid(a: float, cells: int, points_per_cell: int):
    """Uniform grid over `cells` periods centered on the well at x = 0.

    Returns (x, dx, sites) with sites from domain_sites.
    """
    sites = domain_sites(cells)
    dx = a / points_per_cell
    x = (sites[0] - 0.5) * a + dx * np.arange(cells * points_per_cell)
    return x, dx, sites


def l2_norm(dx: float, f: np.ndarray) -> float:
    return float(np.sqrt(dx * np.sum(np.abs(f) ** 2)))


class PeriodicDomain:
    """Discrete -hbar^2 d2/dx2 + V on the periodic multi-cell grid."""

    def __init__(self, spec: PotentialSpec, hbar: float, cells: int,
                 points_per_cell: int):
        self.spec = spec
        self.hbar = float(hbar)
        self.cells = int(cells)
        self.points_per_cell = int(points_per_cell)
        self.x, self.dx, self.sites = domain_grid(spec.a, cells, points_per_cell)
        self.n = self.x.size
        self.vx = np.asarray(spec.v(self.x), dtype=float)
        self.length = spec.a * cells
        g = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)
        self.g = g
        self.k = 2 * np.pi * g / self.length
        self._kinetic = self.hbar**2 * self.k**2
        self._build_blocks()
        # rfft weights of the H1 norm: an interior mode stands for its
        # conjugate partner too; the even-n Nyquist mode has no real derivative
        j = np.arange(self.n // 2 + 1)
        nyq = 2 * j == self.n
        self._h1_weight = ((1 + ~nyq * self.k[j] ** 2) * np.where((j == 0) | nyq, 1, 2)
                           * self.dx / self.n)
        self._dense = None

    def _build_blocks(self):
        # row r holds the modes g = r (mod cells) in increasing order; the
        # sampled V couples modes g, g' through fft(vx)[(g - g') mod n] / n,
        # so each block gathers those and adds the kinetic diagonal
        self.block_index = np.lexsort((self.g, self.g % self.cells)).reshape(
            self.cells, self.points_per_cell)
        vg = np.fft.fft(self.vx) / self.n
        gb = self.g[self.block_index]
        h = vg[(gb[:, :, None] - gb[:, None, :]) % self.n]
        off = np.arange(self.points_per_cell)
        h[:, off, off] += self._kinetic[self.block_index]
        self.block_evals, self.block_evecs = np.linalg.eigh(h)
        # the half stack (blocks 0..cells//2, flattened) reads a mode i > n//2
        # as conj(rfft[n - i]); result mode j <= n//2 is the stack's entry, or
        # the conjugate of mode n - j where the stack does not hold j
        half, m = self.n // 2 + 1, (self.cells // 2 + 1) * self.points_per_cell
        idx = self.block_index.ravel()[:m]
        self._half_in = np.where(idx < half, idx, half + self.n - idx)
        pos, j = np.argsort(self.block_index.ravel()), np.arange(half)
        self._half_out = np.where(pos[j] < m, pos[j], m + pos[-j % self.n])

    # -- operator applications ------------------------------------------------

    def apply_h(self, phi: np.ndarray) -> np.ndarray:
        """H phi with the Laplacian applied by Fourier multiplication."""
        out = np.fft.ifft(self._kinetic * np.fft.fft(phi))
        if np.isrealobj(phi):
            out = out.real
        return out + self.vx * phi

    def h1_norm(self, phi: np.ndarray) -> float:
        """H1 norm of a real grid function, by Parseval on its rfft."""
        f = np.fft.rfft(phi)
        return float(np.sqrt(self._h1_weight @ (f.real**2 + f.imag**2)))

    def project_band1(self, phi: np.ndarray) -> np.ndarray:
        """Spectral projector onto the lowest band of the domain operator."""
        fb = np.fft.fft(phi)[self.block_index]
        v0 = self.block_evecs[:, :, 0]
        coef = np.matmul(np.conj(v0)[:, None, :], fb[:, :, None])[:, :, 0]
        out = np.empty(self.n, dtype=complex)
        out[self.block_index] = v0 * coef
        res = np.fft.ifft(out)
        return res.real if np.isrealobj(phi) else res

    def resolvent_perp(self, phi: np.ndarray, z: float) -> np.ndarray:
        """(H - z)^{-1} restricted to the complement of the first band.

        A complex input is resolved as R(Re phi) + i R(Im phi) in one pass.
        """
        cplx = np.iscomplexobj(phi)
        f = np.stack((phi.real, phi.imag)) if cplx else phi
        h = self.cells // 2 + 1
        rf = np.fft.rfft(f)
        fb = np.concatenate((rf, rf.conj()), axis=-1)[..., self._half_in]
        fb = fb.reshape(f.shape[:-1] + (h, self.points_per_cell))
        v = self.block_evecs[:h]
        # V^H f per block, as conj(f^H V), so V^H is never materialized
        coef = np.matmul(fb.conj()[..., None, :], v)[..., 0, :].conj()
        coef[..., 0] = 0.0
        coef[..., 1:] /= self.block_evals[:h, 1:] - z
        back = np.matmul(v, coef[..., None]).reshape(f.shape[:-1] + (-1,))
        out = np.fft.irfft(np.concatenate((back, back.conj()), axis=-1)
                           [..., self._half_out], self.n)
        return out[0] + 1j * out[1] if cplx else out

    # -- spectral data ---------------------------------------------------------

    def band_energies(self, n: int) -> np.ndarray:
        """E_n on the domain quasimomenta (1-based band index)."""
        return self.block_evals[:, n - 1]

    def band_edges(self, n: int) -> tuple[float, float]:
        e = self.band_energies(n)
        return float(e.min()), float(e.max())

    def band_gap(self, n: int) -> float:
        return self.band_edges(n + 1)[0] - self.band_edges(n)[1]

    def perp_distance(self, z: float) -> float:
        """Distance from z to the spectrum excluding the first band."""
        return float(np.abs(self.block_evals[:, 1:] - z).min())

    def dense_h(self) -> np.ndarray:
        """Dense real-symmetric matrix of the operator (cached)."""
        if self._dense is None:
            col = np.fft.ifft(self._kinetic).real
            i = np.arange(self.n)
            mat = col[(i[:, None] - i[None, :]) % self.n] + np.diag(self.vx)
            self._dense = 0.5 * (mat + mat.T)
        return self._dense
