"""Periodic potentials with a single nondegenerate well per cell.

Provides the potential families used throughout the package, locates and
validates the well, and tabulates the Agmon action d(x0, x), the integral
of sqrt(V) from the well, by one bisected Gauss-Legendre rule; over one
period it is the tunneling action s0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PotentialError, QuadratureError

_SCAN_POINTS = 1024
_CURVATURE_TOL = 1e-8
_PERIODICITY_RTOL = 1e-12
_GL_NODES = 32
_GL_AGREE = 64  # two bisection levels agree to _GL_AGREE*eps*s0
_MAX_PANELS = 4096


@dataclass(frozen=True)
class PotentialSpec:
    """A periodic potential normalized so that min V = 0.

    Attributes:
        a: lattice period.
        v: V, vectorized over numpy arrays.
        x0: location of the well minimum inside [-a/2, a/2).
        curvature: V''(x0), strictly positive except in free test mode.
        family: family tag ("sin2", "cos-series", "custom-samples", "free").
        knots: custom-samples spline knots in [0, a); empty otherwise.
    """

    a: float
    v: Callable[[np.ndarray], np.ndarray]
    x0: float
    curvature: float
    family: str = "custom-samples"
    knots: tuple = ()


def _raw_family(family: str, params: dict):
    """Return (v, dv, d2v, a, knots) for a family before normalization."""
    if family == "sin2":
        v0 = float(params["v0"])
        a = float(params["a"])
        w = math.pi / a

        def v(x):
            return v0 * np.sin(w * np.asarray(x)) ** 2

        def dv(x):
            return v0 * w * np.sin(2 * w * np.asarray(x))

        def d2v(x):
            return 2 * v0 * w**2 * np.cos(2 * w * np.asarray(x))

        return v, dv, d2v, a, ()

    if family == "cos-series":
        a = float(params["a"])
        coeffs = np.asarray(params["coeffs"], dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise PotentialError("cos-series requires a nonempty coefficient list")
        ks = 2 * math.pi * np.arange(1, coeffs.size + 1) / a

        def v(x):
            x = np.asarray(x, dtype=float)
            acc = np.zeros_like(x, dtype=float)
            for c, k in zip(coeffs, ks):
                acc = acc + c * (1.0 - np.cos(k * x))
            return acc

        def dv(x):
            x = np.asarray(x, dtype=float)
            acc = np.zeros_like(x, dtype=float)
            for c, k in zip(coeffs, ks):
                acc = acc + c * k * np.sin(k * x)
            return acc

        def d2v(x):
            x = np.asarray(x, dtype=float)
            acc = np.zeros_like(x, dtype=float)
            for c, k in zip(coeffs, ks):
                acc = acc + c * k**2 * np.cos(k * x)
            return acc

        return v, dv, d2v, a, ()

    if family == "custom-samples":
        a = float(params["a"])
        samples = np.asarray(params["samples"], dtype=float)
        if samples.ndim != 1 or samples.size < 8:
            raise PotentialError("custom-samples requires >= 8 samples over one period")
        from scipy.interpolate import CubicSpline  # slow; this family only

        # periodic C2 spline on [0, a]; sample grid excludes the endpoint
        xs = np.linspace(0.0, a, samples.size + 1)
        ys = np.concatenate([samples, samples[:1]])
        cs = CubicSpline(xs, ys, bc_type="periodic")
        d1 = cs.derivative(1)
        d2 = cs.derivative(2)

        def v(x):
            return cs(np.mod(np.asarray(x, dtype=float), a))

        def dv(x):
            return d1(np.mod(np.asarray(x, dtype=float), a))

        def d2v(x):
            return d2(np.mod(np.asarray(x, dtype=float), a))

        return v, dv, d2v, a, tuple(xs[:-1].tolist())

    raise PotentialError(f"unknown potential family {family!r}")


def make_potential(family: str, **params) -> PotentialSpec:
    """Build and validate a PotentialSpec.

    Args:
        family: one of "sin2" (v0, a), "cos-series" (a, coeffs),
            "custom-samples" (a, samples).
        **params: family parameters, see above.

    Returns:
        PotentialSpec with the minimum normalized to zero and the well
        located by a grid scan refined by Newton iteration on V'.

    Raises:
        PotentialError: period not positive, degenerate well curvature,
            or more than one equally deep well per period.
    """
    raw_v, raw_dv, raw_d2v, a, knots = _raw_family(family, params)
    if a <= 0:
        raise PotentialError(f"period must be positive, got {a}")

    xs = -a / 2 + a * np.arange(_SCAN_POINTS) / _SCAN_POINTS
    vals = np.asarray(raw_v(xs), dtype=float)
    _check_periodicity(raw_v, xs, vals)

    scale = float(vals.max() - vals.min())
    if scale <= _CURVATURE_TOL * max(1.0, abs(float(vals.max()))):
        raise PotentialError("potential is flat: degenerate minimum")

    x0 = _refine_minimum(raw_dv, raw_d2v, float(xs[np.argmin(vals)]), a)
    x0 = (x0 + a / 2) % a - a / 2
    curv = float(raw_d2v(x0))
    if curv <= _CURVATURE_TOL:
        raise PotentialError(f"degenerate minimum: V''(x0) = {curv:.3e} <= tol")

    _check_unique_minimum(raw_v, raw_dv, raw_d2v, xs, vals, x0, a, scale)

    vmin = float(raw_v(x0))

    def v(x):
        return raw_v(x) - vmin

    return PotentialSpec(a=a, v=v, x0=x0, curvature=curv, family=family,
                         knots=knots)


def free_potential(a: float) -> PotentialSpec:
    """Test-only spec with V = 0, bypassing the degenerate-well rejection."""
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return PotentialSpec(a=float(a), v=zero, x0=0.0, curvature=0.0,
                         family="free")


def _check_periodicity(v, xs, vals):
    a = (xs[1] - xs[0]) * len(xs)
    shifted = np.asarray(v(xs + a), dtype=float)
    ref = max(1.0, float(np.abs(vals).max()))
    err = float(np.abs(shifted - vals).max())
    if err > _PERIODICITY_RTOL * ref:
        raise PotentialError(f"potential not periodic: relative error {err / ref:.3e}")


def _refine_minimum(dv, d2v, x_start, a):
    x = x_start
    for _ in range(60):
        g = float(dv(x))
        h = float(d2v(x))
        if h <= 0:
            break
        step = g / h
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


def _check_unique_minimum(v, dv, d2v, xs, vals, x0, a, scale):
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    is_local_min = (vals <= left) & (vals <= right)
    candidates = xs[is_local_min]
    minima = []
    for c in candidates:
        xr = _refine_minimum(dv, d2v, float(c), a)
        xr = (xr + a / 2) % a - a / 2
        if not any(abs(xr - m) < 1e-6 * a or abs(abs(xr - m) - a) < 1e-6 * a for m in minima):
            minima.append(xr)
    vmin = float(v(x0))
    equal_depth = [m for m in minima if float(v(m)) - vmin < 1e-8 * scale]
    if len(equal_depth) > 1:
        raise PotentialError(
            f"{len(equal_depth)} equally deep minima per period; a single well is required"
        )


def _signed_action(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """Signed action from x0: m*s0 + d(x0, x0 + r) for x = x0 + m*a + r.

    The panels of [x0, x0 + a] start at the knots, with the well on an edge
    so that sqrt(V) is analytic on each, and are all bisected until two levels
    agree to _GL_AGREE*eps*s0 (QuadratureError past _MAX_PANELS panels); each
    distinct offset r then adds one partial panel to the whole ones before it.
    """
    from numpy.polynomial.legendre import leggauss  # off the CLI import path

    nodes, weights = leggauss(_GL_NODES)

    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        s = (0.5 * (lo + hi))[..., None] + half[..., None] * nodes
        return half * (np.sqrt(np.maximum(spec.v(s), 0.0)) @ weights)

    a, x0 = spec.a, spec.x0
    knots = np.mod(np.asarray(spec.knots, dtype=float) - x0, a)
    edges = x0 + np.unique(np.concatenate([[0.0, a], knots]))
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
