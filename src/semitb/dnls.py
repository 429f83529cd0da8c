"""Stationary discrete NLS on a truncated lattice with zero ends.

Solves E F_k - (F_{k+1} + F_{k-1}) + eta |F_k|^{2 sigma} F_k = 0 with the
unit-norm constraint by a bordered Newton iteration in (F, E), continued
from the decoupled large-|eta| limit where the solution is a single-site
delta.  One Newton loop runs a stack of starts, each member on its own:
newton_solve is a stack of one, and the brute-force oracle stacks them all.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, SolverError, TailFitError

log = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass(frozen=True)
class DnlsProblem:
    """The lattice equation on n_sites sites with zero ends; boundary is "zero" alone."""

    eta: float
    sigma: float = 1.0
    n_sites: int = 41
    boundary: str = "zero"

    def __post_init__(self):
        # production runs use >= 11 sites; small lattices stay available for
        # brute-force cross checks
        if self.n_sites < 3:
            raise ValueError("n_sites must be >= 3")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.boundary != "zero":
            raise ValueError(f"unknown boundary {self.boundary!r}")


@dataclass(frozen=True)
class DnlsState:
    """An accepted solution: real F with unit norm and tiny residual."""

    eta: float
    sigma: float
    f: np.ndarray
    e: float
    residual_norm: float

    @property
    def participation(self) -> float:
        """1 / sum F^4, the effective number of occupied sites."""
        return float(1.0 / np.sum(self.f**4))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.f))


def neighbor_sum(f: np.ndarray) -> np.ndarray:
    """T F along the last axis: the nearest-neighbor stencil with zero ends,
    the one source of T."""
    out = np.zeros_like(f)
    out[..., :-1] += f[..., 1:]
    out[..., 1:] += f[..., :-1]
    return out


@functools.cache
def _stencil(n: int) -> np.ndarray:
    """T as a read-only n x n matrix, built once per size."""
    t = neighbor_sum(np.eye(n))
    t.flags.writeable = False
    return t


def dnls_residual(f: np.ndarray, e, prob: DnlsProblem) -> np.ndarray:
    """Componentwise E F - (T F) + eta |F|^{2 sigma} F, per row of F (E one per row)."""
    return (np.asarray(e)[..., None] * f - neighbor_sum(f)
            + prob.eta * np.abs(f) ** (2 * prob.sigma) * f)


def linearization_lplus(f: np.ndarray, e, prob: DnlsProblem) -> np.ndarray:
    """Real linearization at F: E + eta (2 sigma + 1)|F|^{2 sigma} - T, per row of F."""
    n = np.shape(f)[-1]
    out = np.zeros(np.shape(f) + (n,)) - _stencil(n)
    idx = np.arange(n)
    out[..., idx, idx] = (np.asarray(e)[..., None] + prob.eta * (2 * prob.sigma + 1)
                          * np.abs(f) ** (2 * prob.sigma))
    return out


def _newton_stack(prob: DnlsProblem, f0: np.ndarray, e0: np.ndarray) -> list:
    """Bordered Newton in (F, E) with the norm constraint on a (B, n) stack.

    Each member has its own damped line search, stop and acceptance, and
    reduces along its own row, so its bits do not depend on the stack.
    Returns per member its DnlsState or the error it fails with.
    """
    f, e = np.array(f0, dtype=float), np.array(e0, dtype=float)
    n = f.shape[1]
    where = f"(eta={prob.eta}, n_sites={n})"
    history, out = [[] for _ in e], [None] * e.size
    # fl, el are the rows of the live members; they are scattered back to
    # f, e and gathered anew only when a member stops
    live, fl, el = np.arange(e.size), f, e
    for it in range(1, 61):
        r = dnls_residual(fl, el, prob)
        g = 0.5 * (np.vecdot(fl, fl) - 1.0)
        res = np.sqrt(np.vecdot(r, r) + g * g)
        for i, v in zip(live, res):
            history[i].append(float(v))
        go = ~(res < 1e-13)
        if not go.all():
            f[live], e[live] = fl, el
            live, fl, el, r, g, res = live[go], fl[go], el[go], r[go], g[go], res[go]
        if not live.size:
            break
        jac = np.zeros((live.size, n + 1, n + 1))
        jac[:, :n, :n] = linearization_lplus(fl, el, prob)
        jac[:, :n, n] = jac[:, n, :n] = fl
        rhs = -np.concatenate([r, g[:, None]], axis=1)
        try:
            step = np.linalg.solve(jac, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # a singular member must not sink the stack: solve one by one
            step, ok = np.empty_like(rhs), np.ones(live.size, dtype=bool)
            for k in range(live.size):
                try:
                    step[k] = np.linalg.solve(jac[k], rhs[k])
                except np.linalg.LinAlgError:
                    ok[k] = False
                    out[live[k]] = SolverError(
                        f"singular bordered Jacobian at Newton iteration {it} {where}")
            f[live], e[live] = fl, el
            live, fl, el, res, step = live[ok], fl[ok], el[ok], res[ok], step[ok]
        df, de = step[:, :n], step[:, n]
        scale, search = np.ones(live.size), np.ones(live.size, dtype=bool)
        for _ in range(40):
            f_new = fl + scale[:, None] * df
            r_new = dnls_residual(f_new, el + scale * de, prob)
            g_new = 0.5 * (np.vecdot(f_new, f_new) - 1.0)
            search &= ~((np.sqrt(np.vecdot(r_new, r_new) + g_new * g_new) < res)
                        | (scale < 1e-8))
            if not search.any():
                break
            scale[search] *= 0.5
        fl = fl + scale[:, None] * df
        el = el + scale * de
    f[live], e[live] = fl, el
    r = dnls_residual(f, e, prob)
    rnorm = np.sqrt(np.vecdot(r, r))
    stalled = ((rnorm > RESIDUAL_TOL)
               | (np.abs(np.sqrt(np.vecdot(f, f)) - 1.0) > NORM_TOL))
    for i in np.flatnonzero(stalled):
        out[i] = out[i] or NonConvergenceError(
            f"Newton stalled at residual {rnorm[i]:.3e} after "
            f"{len(history[i])} iterations {where}", history=history[i])
    return [o or DnlsState(eta=prob.eta, sigma=prob.sigma, f=f[i].copy(), e=e[i],
                           residual_norm=float(rnorm[i]))
            for i, o in enumerate(out)]


def newton_solve(prob: DnlsProblem, f0: np.ndarray, e0: float) -> DnlsState:
    """Bordered Newton in (F, E) with the norm constraint: a stack of one."""
    (out,) = _newton_stack(prob, [f0], [e0])
    if isinstance(out, Exception):
        raise out
    return out


def _band_top(n_sites: int) -> float:
    """lambda_max(T), the top of the linear band: 2 cos(pi/(n+1))."""
    return 2.0 * np.cos(np.pi / (n_sites + 1))


def solve_anticontinuum(prob: DnlsProblem, seed_site: int,
                        eta_path) -> dict[float, DnlsState]:
    """Continue the single-site branch from the decoupled limit.

    The path must start at |eta| >= 50, where F = delta is a good seed.  A
    step fails when Newton does, or when it converges into the linear band,
    -sign(eta) E <= lambda_max(T): the localized branch lies outside it, so
    such a state belongs to another branch.  A failed step is halved, at
    most 40 times per path point, within a budget of 10000 steps.  Returns
    {eta: DnlsState} for the path points reached, in path order; where the
    branch is lost, one warning names the last eta reached, the target and
    the cause.
    """
    eta_path = [float(v) for v in eta_path]
    if abs(eta_path[0]) < 50:
        raise ValueError("continuation path must start at |eta| >= 50")
    if any(abs(b) > abs(a) + 1e-12 for a, b in zip(eta_path, eta_path[1:])):
        raise ValueError("continuation path must have decreasing |eta|")
    if not -(prob.n_sites // 2) <= seed_site <= (prob.n_sites - 1) // 2:
        raise ValueError("seed site outside the lattice")

    n = prob.n_sites
    top = _band_top(n)
    f = np.zeros(n)
    f[seed_site + n // 2] = 1.0
    eta = eta_path[0]
    e = -eta
    states = {}
    try:
        for target in eta_path:
            step, depth = target - eta, 0
            for _ in range(10000):
                nxt = target if abs(step) >= abs(target - eta) else eta + step
                try:
                    state = newton_solve(dataclasses.replace(prob, eta=nxt), f, e)
                    if -np.sign(nxt) * state.e <= top:
                        raise SolverError(
                            f"Newton converged to E={state.e:.6g} at eta={nxt}, inside "
                            f"the linear band (-sign(eta) E <= lambda_max(T) = {top:.6g})")
                except SolverError:
                    depth += 1
                    step *= 0.5
                    if depth > 40 or abs(step) < 1e-9 * max(1.0, abs(target)):
                        raise
                    continue
                f, e, eta = state.f, state.e, nxt
                if eta == target:
                    states[target] = state
                    break
            else:
                raise SolverError("the step budget of 10000 steps ran out")
    except SolverError as exc:
        log.warning("single-site branch lost between eta=%.6g and %.6g: %s",
                    eta, target, exc)
    return states


def decay_rate(f: np.ndarray) -> float:
    """Least-squares tail rate of log|F_j| against distance from the peak,
    the negated slope of fit_line.

    Requires a localized profile (participation < N/4) and at least four
    sites with |F| inside [1e-12, 1e-2].
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    part = 1.0 / np.sum(f**4) * (f @ f) ** 2
    if part >= n / 4:
        raise TailFitError(f"profile delocalized: participation {part:.1f} >= N/4")
    peak = int(np.argmax(np.abs(f)))
    dist = np.abs(np.arange(n) - peak)
    mag = np.abs(f)
    mask = (mag >= 1e-12) & (mag <= 1e-2)
    if mask.sum() < 4:
        raise TailFitError(f"only {int(mask.sum())} usable tail sites (< 4)")
    return -fit_line(dist[mask], np.log(mag[mask]))[0]


def fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through (xs, ys).

    The centred closed form: slope = sum (x - xm)(y - ym) / sum (x - xm)^2
    and intercept = ym - slope xm, so no SVD least squares runs.  The
    abscissas must not all be equal.
    """
    xm, ym = xs.mean(), ys.mean()
    dx = xs - xm
    slope = float(dx @ (ys - ym) / (dx @ dx))
    return slope, float(ym - slope * xm)


def operator_l1_norm(mat: np.ndarray) -> float:
    """Induced l1 -> l1 norm: maximum absolute column sum."""
    return float(np.abs(mat).sum(axis=0).max())


def _splitmix64(seed: int, n: int) -> np.ndarray:
    """The first n outputs of the splitmix64 stream of seed, as uint64.

    Steele, Lea and Flood, OOPSLA 2014.  The oracle starts draw from it
    rather than from numpy.random, whose import loads secrets, hmac and
    hashlib, and with hashlib OpenSSL, into the process.
    """
    z = (np.uint64(seed % 2**64)
         + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, n: int) -> np.ndarray:
    """n uniforms on [0, 1), from the top 53 bits of each output."""
    return (_splitmix64(seed, n) >> np.uint64(11)) * 2.0**-53


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Unit normals, two from each pair (u[2k], u[2k+1]) of uniforms."""
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))  # 1 - u in (0, 1]
    t = 2.0 * np.pi * u[1::2]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1).ravel()


def random_starts(prob: DnlsProblem, n_starts: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton starts (f0, e0) from one draw of seed's stream.

    The rows of f0 are unit vectors along normal draws; e0 is uniform on
    [-3, 3) - eta, drawn after every row.
    """
    n = n_starts * prob.n_sites
    u = _uniforms(seed, n + n % 2 + n_starts)
    f0 = _box_muller(u[:n + n % 2])[:n].reshape(n_starts, prob.n_sites)
    f0 /= np.linalg.norm(f0, axis=1, keepdims=True)
    return f0, 6.0 * u[n + n % 2:] - 3.0 - prob.eta


def brute_force_states(prob: DnlsProblem, n_starts: int = 200,
                       seed: int = 0) -> list[DnlsState]:
    """Newton from random unit seeds in one stack; converged states in seed order."""
    f0, e0 = random_starts(prob, n_starts, seed)
    return [s for s in _newton_stack(prob, f0, e0) if isinstance(s, DnlsState)]


def linear_ground_state(n_sites: int, sigma: float) -> DnlsState:
    """The eta = 0 reference: top eigenvector of the neighbor-sum stencil,
    recorded with the sigma of the branch it closes.

    It has a closed form, f_j = sin(pi j/(N+1)) for j = 1..N, normalized;
    its eigenvalue is _band_top, the one lambda_max(T) of the
    continuation's band test.  This is the state the focusing branch
    connects to as eta -> 0-, with all positive amplitudes and
    participation proportional to N.
    """
    f = np.sin(np.pi / (n_sites + 1) * np.arange(1, n_sites + 1))
    f /= np.linalg.norm(f)
    return DnlsState(eta=0.0, sigma=sigma, f=f, e=float(_band_top(n_sites)),
                     residual_norm=0.0)
