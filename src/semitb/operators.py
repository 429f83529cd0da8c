"""Spectral Hamiltonian on a periodic multi-cell domain.

The domain covers `cells` lattice periods with a uniform grid and periodic
boundary.  The sampled potential repeats every `points_per_cell` points,
so its discrete Fourier transform couples only plane-wave modes whose
indices agree modulo `cells`, and the Hamiltonian splits into `cells`
independent blocks, one per domain quasimomentum.  V is even, so each
block is real symmetric, built from vhat in closed form (`half_blocks`)
as exactly the operator that `apply_h` and `dense_h` apply.  Block -r
(mod cells) is the mirror of block r (modes g -> -g): one real stacked
`eigh` diagonalizes the half stack, blocks 0..cells//2, into float64
`block_evals` and `block_evecs` of `cells//2 + 1` rows: the complete
eigenbasis, which makes the first-band projector and the resolvent on
its complement exact and cheap.  A caller that kept that pair (the CLI's
bundle cache) passes it back, and no eigendecomposition runs.

Every method takes real grid functions, in one layout: the `rfft` (a
complex input raises TypeError).  The projector and the resolvent apply
the real eigenvectors to its half stack as (re, im) column pairs, the
other modes following by conjugate mirror.  H is applied through the
`rfft` symbol, and the H1 norm by Parseval.
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


def half_stack_shape(cells: int, points_per_cell: int) -> tuple[int, int]:
    """Shape of block_evals; block_evecs has one more axis of points_per_cell."""
    return cells // 2 + 1, points_per_cell


def l2_norm(dx: float, f: np.ndarray) -> float:
    return float(np.sqrt(dx * np.sum(np.abs(f) ** 2)))


def _rfft(phi: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(phi):
        raise TypeError("PeriodicDomain takes real grid functions only; "
                        "the rfft would drop this input's imaginary part")
    return np.fft.rfft(phi)


class PeriodicDomain:
    """Discrete -hbar^2 d2/dx2 + V on the periodic multi-cell grid."""

    def __init__(self, spec: PotentialSpec, hbar: float, cells: int,
                 points_per_cell: int,
                 blocks: tuple[np.ndarray, np.ndarray] | None = None):
        """blocks, when given, is (block_evals, block_evecs) of a domain built
        from the same arguments; it is taken in place of the stacked eigh.
        Raises ValueError when its shapes are not this domain's half stack,
        or its dtypes are not float64.
        """
        self.spec = spec
        self.hbar = float(hbar)
        self.cells = int(cells)
        self.points_per_cell = int(points_per_cell)
        self.x, self.dx, self.sites = domain_grid(spec.a, cells, points_per_cell)
        self.n = self.x.size
        self.vx = np.asarray(spec.v(self.x), dtype=float)
        self.length = spec.a * cells
        self.g = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)
        self.k = 2 * np.pi * self.g / self.length
        self._build_blocks(blocks)
        # the rfft symbol of -hbar^2 d2/dx2, and the rfft weights of the H1
        # norm: an interior mode stands for its conjugate partner too; the
        # even-n Nyquist mode has no real derivative
        j = np.arange(self.n // 2 + 1)
        k2 = self.k[j] ** 2
        self._symbol = self.hbar**2 * k2
        nyq = 2 * j == self.n
        self._h1_weight = ((1 + ~nyq * k2) * np.where((j == 0) | nyq, 1, 2)
                           * self.dx / self.n)

    def _build_blocks(self, blocks):
        # row r holds the modes g = r (mod cells) in increasing order, from
        # the least g >= -(n//2) in that class up in steps of cells; only the
        # half stack, blocks 0..cells//2, is diagonalized
        cells, ppc, n = self.cells, self.points_per_cell, self.n
        g0 = -(n // 2) + (np.arange(cells) + n // 2) % cells
        self.block_index = (g0[:, None] + cells * np.arange(ppc)) % n
        idx = self.block_index[:cells // 2 + 1]
        if blocks is None:
            blocks = np.linalg.eigh(self.half_blocks())
        self.block_evals, self.block_evecs = blocks
        got = (self.block_evals.shape, self.block_evecs.shape,
               self.block_evals.dtype, self.block_evecs.dtype)
        want = half_stack_shape(cells, ppc)
        if got != (want, want + (ppc,), np.float64, np.float64):
            raise ValueError(f"block eigenpairs of shapes {got[:2]}, dtypes {got[2]}, "
                             f"{got[3]} are not the half stack {want} of {cells} "
                             f"cells of {ppc} points in float64")
        # the half stack reads a mode i > n//2 as conj(rfft[n - i]); result
        # mode j <= n//2 is the flattened stack's entry, or the conjugate of
        # mode n - j where the stack does not hold j
        half, m = n // 2 + 1, idx.size
        self._half_in = np.where(idx < half, idx, half + n - idx)
        pos, j = np.empty(n, dtype=int), np.arange(half)
        pos[self.block_index.ravel()] = np.arange(n)
        self._half_out = np.where(pos[j] < m, pos[j], m + pos[-j % n])

    def half_blocks(self) -> np.ndarray:
        """The real symmetric blocks 0..cells//2 of H, (cells//2 + 1, ppc, ppc).

        The grid starts at x = (sites[0] - 1/2) a, so the sampled V couples
        modes g - g' = cells * l of a block through fft(vx)[cells * l] / n,
        the sum of (-1)^k vhat_|k| over k = l (mod ppc): one circulant for
        every block, aliases folded in, plus the kinetic diagonal.
        """
        ppc, vhat = self.points_per_cell, self.spec.vhat
        k = np.arange(1 - vhat.size, vhat.size)
        lag = np.bincount(k % ppc, weights=(1 - 2 * (k % 2)) * vhat[np.abs(k)],
                          minlength=ppc)
        j = np.arange(ppc)
        idx = self.block_index[:self.cells // 2 + 1]
        h = np.repeat(lag[None, (j[:, None] - j) % ppc], len(idx), axis=0)
        h[:, j, j] += self.hbar**2 * self.k[idx] ** 2
        return h

    # -- operator applications ------------------------------------------------

    def _to_half(self, phi: np.ndarray) -> np.ndarray:
        """The rfft of a real phi as blocks 0..cells//2 in (re, im) pairs,
        (cells//2 + 1, ppc, 2)."""
        rf = _rfft(phi)
        fb = np.concatenate((rf, rf.conj()))[self._half_in]
        return fb.view(float).reshape(*fb.shape, 2)

    def _from_half(self, fb: np.ndarray) -> np.ndarray:
        """The real grid function whose rfft, as blocks 0..cells//2, is fb."""
        fb = fb.ravel()
        return np.fft.irfft(np.concatenate((fb, fb.conj()))[self._half_out], self.n)

    def apply_h(self, phi: np.ndarray) -> np.ndarray:
        """H phi with the Laplacian applied by Fourier multiplication."""
        return np.fft.irfft(self._symbol * _rfft(phi), self.n) + self.vx * phi

    def h1_norm(self, phi: np.ndarray) -> float:
        """H1 norm of a real grid function, by Parseval on its rfft."""
        f = _rfft(phi)
        return float(np.sqrt(self._h1_weight @ (f.real**2 + f.imag**2)))

    def project_band1(self, phi: np.ndarray) -> np.ndarray:
        """Spectral projector onto the lowest band of the domain operator."""
        v0 = self.block_evecs[:, :, :1]
        coef = np.matmul(v0.transpose(0, 2, 1), self._to_half(phi))
        return self._from_half((v0 * coef).view(complex))

    def resolvent_perp(self, phi: np.ndarray, z: float) -> np.ndarray:
        """(H - z)^{-1} on the complement of the first band, for a real phi."""
        v, evals = self.block_evecs, self.block_evals
        # V^T f per block, the real and imaginary parts of f as two columns
        coef = np.matmul(v.transpose(0, 2, 1), self._to_half(phi))
        coef[:, 0] = 0.0
        coef[:, 1:] /= (evals[:, 1:] - z)[:, :, None]
        return self._from_half(np.matmul(v, coef).view(complex))

    # -- spectral data ---------------------------------------------------------

    def band_edges(self, n: int) -> tuple[float, float]:
        """(min, max) of E_n over the domain quasimomenta (1-based band index)."""
        e = self.block_evals[:, n - 1]
        return float(e.min()), float(e.max())

    def band_gap(self, n: int) -> float:
        return self.band_edges(n + 1)[0] - self.band_edges(n)[1]

    def perp_distance(self, z: float) -> float:
        """Distance from z to the spectrum excluding the first band."""
        return float(np.abs(self.block_evals[:, 1:] - z).min())

    def dense_h(self) -> np.ndarray:
        """Dense real-symmetric matrix of the operator, built on each call."""
        # the circulant of the symbol's irfft, made exactly symmetric, + diag(V)
        i = np.arange(self.n)
        col = np.fft.irfft(self._symbol, self.n)
        col = 0.5 * (col + col[-i % self.n])
        mat = col[(i[:, None] - i) % self.n]
        mat[i, i] += self.vx
        return mat
