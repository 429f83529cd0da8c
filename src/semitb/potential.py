"""Periodic potentials with a single nondegenerate well per cell.

A potential is its real cell Fourier coefficient vector vhat_0 .. vhat_K
on the period a: both families are even, V(-x) = V(x), so V = vhat_0 +
2 sum_k vhat_k cos(k b x), and one kernel evaluates V and its
derivatives from it.  This module maps the potential families onto that
vector, locates and validates the well, and tabulates
the Agmon action d(x0, x), the integral of sqrt(V) from the well, by one
bisected Gauss-Legendre rule; over one period it is the tunneling action
s0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import PotentialError, QuadratureError

_SCAN_POINTS = 1024
_CURVATURE_TOL = 1e-8
_GL_NODES = 32
_GL_AGREE = 64  # two bisection levels agree to _GL_AGREE*eps*s0
_MAX_PANELS = 4096


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """A periodic potential normalized so that min V = 0.

    Attributes:
        a: lattice period.
        vhat: real coefficients vhat_0 .. vhat_K of exp(+-i k b x),
            b = 2 pi / a; read-only.
        x0: location of the well minimum inside [-a/2, a/2): 0 or -a/2.
        family: family tag ("sin2", "cos-series", "free").
    """

    a: float
    vhat: np.ndarray
    x0: float
    family: str

    def __post_init__(self):
        vhat = np.array(self.vhat, dtype=float)
        vhat.flags.writeable = False
        object.__setattr__(self, "vhat", vhat)

    def v(self, x, order: int = 0) -> np.ndarray:
        """The order-th derivative of V at x (any shape):
        delta_{order,0} vhat_0 + 2 sum_k vhat_k d^order/dx^order cos(k b x)."""
        kb = 2 * math.pi / self.a * np.arange(1, self.vhat.size)
        x = np.asarray(x, dtype=float)
        # d^p/dt^p cos t is cos, -sin, -cos, sin for p = 0, 1, 2, 3 mod 4
        waves = (np.cos, np.sin)[order % 2](np.multiply.outer(x.ravel(), kb))
        amp = (1, -1, -1, 1)[order % 4] * kb**order * 2 * self.vhat[1:]
        series = np.dot(waves, amp).reshape(x.shape)
        return series + self.vhat[0] if order == 0 else series

    @property
    def curvature(self) -> float:
        """V''(x0), strictly positive except in free test mode."""
        return float(self.v(self.x0, 2))


def _family_vhat(family: str, params: dict) -> np.ndarray:
    """The coefficient vector of a family before normalization."""
    if family == "sin2":
        v0 = float(params["v0"])
        return np.array([v0 / 2, -v0 / 4])
    if family == "cos-series":
        coeffs = np.asarray(params["coeffs"], dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise PotentialError("cos-series requires a nonempty coefficient list")
        return np.concatenate(([coeffs.sum()], -coeffs / 2))
    raise PotentialError(f"unknown potential family {family!r}")


def make_potential(family: str, **params) -> PotentialSpec:
    """Build and validate a PotentialSpec.

    Args:
        family: one of "sin2" (v0, a): V0 sin^2(pi x / a), the vector
            {0: V0/2, 1: -V0/4}; "cos-series" (a, coeffs): the sum
            sum_k c_k (1 - cos(2 pi k x / a)), {0: sum c_k, k: -c_k/2}.
        **params: family parameters, see above.

    Returns:
        PotentialSpec with the well located by a grid scan refined by
        Newton iteration on V', and vhat_0 shifted by -V(x0) so that the
        minimum is zero.

    Raises:
        PotentialError: period not positive, degenerate well curvature,
            or more than one equally deep well per period.
    """
    vhat = _family_vhat(family, params)
    a = float(params["a"])
    if a <= 0:
        raise PotentialError(f"period must be positive, got {a}")
    raw = PotentialSpec(a=a, vhat=vhat, x0=0.0, family=family)

    xs = -a / 2 + a * np.arange(_SCAN_POINTS) / _SCAN_POINTS
    vals = raw.v(xs)
    scale = float(vals.max() - vals.min())
    if scale <= _CURVATURE_TOL * max(1.0, abs(float(vals.max()))):
        raise PotentialError("potential is flat: degenerate minimum")

    x0 = _refine_minimum(raw, float(xs[np.argmin(vals)]))
    x0 = (x0 + a / 2) % a - a / 2
    curv = float(raw.v(x0, 2))
    if curv <= _CURVATURE_TOL:
        raise PotentialError(f"degenerate minimum: V''(x0) = {curv:.3e} <= tol")

    _check_unique_minimum(raw, xs, vals, x0, scale)

    vhat = raw.vhat.copy()
    vhat[0] -= float(raw.v(x0))
    return dataclasses.replace(raw, vhat=vhat, x0=x0)


def free_potential(a: float) -> PotentialSpec:
    """Test-only spec with V = 0, bypassing the degenerate-well rejection."""
    return PotentialSpec(a=float(a), vhat=[0.0], x0=0.0, family="free")


def _refine_minimum(spec, x_start):
    x = x_start
    for _ in range(60):
        g = float(spec.v(x, 1))
        h = float(spec.v(x, 2))
        if h <= 0:
            break
        step = g / h
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


def _check_unique_minimum(spec, xs, vals, x0, scale):
    a = spec.a
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    is_local_min = (vals <= left) & (vals <= right)
    candidates = xs[is_local_min]
    minima = []
    for c in candidates:
        xr = _refine_minimum(spec, float(c))
        xr = (xr + a / 2) % a - a / 2
        if not any(abs(xr - m) < 1e-6 * a or abs(abs(xr - m) - a) < 1e-6 * a for m in minima):
            minima.append(xr)
    vmin = float(spec.v(x0))
    equal_depth = [m for m in minima if float(spec.v(m)) - vmin < 1e-8 * scale]
    if len(equal_depth) > 1:
        raise PotentialError(
            f"{len(equal_depth)} equally deep minima per period; a single well is required"
        )


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in legval's operation order."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], n >= 2.

    numpy.polynomial.legendre.leggauss(n) step for step, so the two agree
    bit for bit, without importing numpy.polynomial: eigenvalues of the
    symmetric companion matrix, one Newton step, weights from P_n' and
    P_{n-1}, then symmetrization.
    """
    k = np.arange(n)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    dc = np.where(k % 2 != n % 2, 2.0 * k + 1, 0.0)  # P_n' in the P_k basis
    df = _legval(x, dc)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    return x, w * (2.0 / w.sum())


def _signed_action(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """Signed action from x0: m*s0 + d(x0, x0 + r) for x = x0 + m*a + r.

    The cell [x0, x0 + a] has the well on its edges, so sqrt(V) is analytic
    inside; it is bisected into panels until two levels agree to
    _GL_AGREE*eps*s0 (QuadratureError past _MAX_PANELS panels), and each
    distinct offset r then adds one partial panel to the whole ones before it.
    """
    nodes, weights = _gauss_legendre(_GL_NODES)

    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        s = (0.5 * (lo + hi))[..., None] + half[..., None] * nodes
        return half * (np.sqrt(np.maximum(spec.v(s), 0.0)) @ weights)

    a, x0 = spec.a, spec.x0
    edges = np.array([x0, x0 + a])
    fine = rule(edges[:-1], edges[1:])
    while True:
        edges = np.insert(edges, np.arange(1, edges.size),
                          0.5 * (edges[:-1] + edges[1:]))
        coarse, fine = fine, rule(edges[:-1], edges[1:])
        s0 = float(fine.sum())
        gap = float(np.abs(coarse - fine.reshape(-1, 2).sum(axis=1)).sum())
        if gap <= _GL_AGREE * np.finfo(float).eps * s0:
            break
        if fine.size >= _MAX_PANELS:
            raise QuadratureError(
                f"{spec.family} action: {fine.size} panels still disagree by "
                f"{gap:.3e} (s0 = {s0:.6g})", achieved=gap)

    rel = np.asarray(x, dtype=float) - x0
    m = np.floor(rel / a)
    offsets, inverse = np.unique(rel - m * a, return_inverse=True)
    cum = np.concatenate([[0.0], np.cumsum(fine)])
    j = np.maximum(np.searchsorted(edges, x0 + offsets, side="right") - 1, 0)
    arm = cum[j] + rule(edges[j], x0 + offsets)
    return m * s0 + arm[inverse].reshape(rel.shape)


def action_profile(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """Action distance d(x0, x) = |m*s0 + d(x0, x0 + r)| to every point of x.

    With x = x0 + m*a + r, 0 <= r < a, by the period additivity of d.
    """
    return np.abs(_signed_action(spec, x))


def tunneling_action(spec: PotentialSpec) -> float:
    """The adjacent-well action s0 = d(x0, x0 + a)."""
    return float(_signed_action(spec, np.array([spec.x0 + spec.a]))[0])
