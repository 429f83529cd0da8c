"""Acceptance checks for the reference configuration.

Each criterion is one function returning a CheckResult; `run_all` executes
them in order and `semitb verify` prints one pass/fail line per criterion.
Reference setup: V(x) = 8 sin^2(pi x), a = 1, sigma = 1, hbar ladder
{0.25, 0.2, 0.16, 0.125, 0.1}, 32 cells x 64 points, 41 lattice sites.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from . import bloch, dnls, nlse, scan, tightbinding, wannier
from .potential import free_potential, tunneling_action

REFERENCE_LADDER = (0.25, 0.2, 0.16, 0.125, 0.1)
REFERENCE_ETAS = (0.0, -0.5, -1.0, -2.0, -3.0, -5.0, -8.0, -12.0, -20.0,
                  -30.0, -50.0)
# contraction budget for the reference run: the lattice l1 norms at
# moderate eta reach ~5, so the budget sits above that
ORACLE_HBAR = 0.15
ORACLE_ETA = -3.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def reference_config():
    from .cli import RunConfig

    return RunConfig(family="sin2", v0=8.0, a=1.0, delta0=8.0,
                     hbar_ladder=REFERENCE_LADDER, eta_values=REFERENCE_ETAS,
                     sigma=1.0)


class Context:
    """Shared lazily-built state for the acceptance run."""

    def __init__(self, cfg=None, jobs: int = 1, workdir: str | None = None):
        self.cfg = cfg if cfg is not None else reference_config()
        self.jobs = jobs
        self.workdir = workdir
        self._spec = None
        self._s0 = None
        self._bundles = {}
        self._ladder_states = None
        self._reports = {}
        self._tmp = None

    # -- shared building blocks -------------------------------------------

    @property
    def spec(self):
        if self._spec is None:
            self._spec = self.cfg.potential()
        return self._spec

    @property
    def s0(self):
        if self._s0 is None:
            self._s0 = tunneling_action(self.spec).s0
        return self._s0

    def bundle(self, hbar: float) -> scan.PipelineBundle:
        if hbar not in self._bundles:
            self._bundles[hbar] = scan.build_pipeline(
                self.spec, hbar, self.cfg.numerics(), self.cfg.sigma,
                jobs=self.jobs)
        return self._bundles[hbar]

    @property
    def ladder_states(self):
        if self._ladder_states is None:
            plan = self.cfg.plan(out_dir=None)
            self._ladder_states, _ = scan._dnls_ladder(plan)
        return self._ladder_states

    def report(self, run: int) -> scan.TransitionReport:
        if run not in self._reports:
            if self._tmp is None:
                self._tmp = tempfile.mkdtemp(prefix="semitb_verify_",
                                             dir=self.workdir)
            out = os.path.join(self._tmp, f"run{run}")
            plan = self.cfg.plan(out_dir=out)
            bundles = {h: self.bundle(h) for h in self.cfg.hbar_ladder}
            self._reports[run] = scan.run_sweep(plan, bundles)
        return self._reports[run]

    def cleanup(self):
        if self._tmp and os.path.isdir(self._tmp):
            shutil.rmtree(self._tmp, ignore_errors=True)


def _fit_slope(xs, ys) -> float:
    return scan.fit_exponential_law(xs, ys).slope


# -- criteria ------------------------------------------------------------------


def check_free_particle_bands(ctx: Context) -> CheckResult:
    """Fourier-basis sanity: with V = 0 the bands are folded parabolas."""
    spec = free_potential(1.0)
    cfg = bloch.FloquetConfig(hbar=0.3, n_pw=41, n_kappa=16, n_bands=6)
    bd = bloch.solve_bands(spec, cfg)
    b = bd.b
    worst = 0.0
    for i, k in enumerate(bd.kappa):
        exact = np.sort((cfg.hbar * (k + b * bd.modes)) ** 2)[: bd.n_bands]
        worst = max(worst, float(np.abs(bd.energies[:, i] - exact).max()))
    return CheckResult("free-particle bands", worst <= 1e-10,
                       f"max |E - parabola| = {worst:.2e} (tol 1e-10)")


def check_harmonic_law(ctx: Context) -> CheckResult:
    """lambda1 = hbar sqrt(V''(x0)/2) + O(hbar^2) with a stable constant."""
    omega_half = np.sqrt(ctx.spec.curvature / 2.0)
    ratios = []
    for hb in ctx.cfg.hbar_ladder:
        lam1 = ctx.bundle(hb).tbp.lambda1
        ratios.append(abs(lam1 - hb * omega_half) / hb**2)
    spread = max(ratios) / min(ratios)
    return CheckResult(
        "harmonic law for lambda1", spread <= 2.0,
        f"|lambda1 - hbar*sqrt(V''/2)|/hbar^2 in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], spread {spread:.3f} (tol 2)")


def check_gap_scaling(ctx: Context) -> CheckResult:
    """First gap is of order hbar: log-log slope 1 +- 0.1."""
    gaps = [ctx.bundle(h).gap1 for h in ctx.cfg.hbar_ladder]
    slope = _fit_slope(np.log(ctx.cfg.hbar_ladder), np.log(gaps))
    return CheckResult("gap scaling ~ hbar", 0.9 <= slope <= 1.1,
                       f"log(gap) vs log(hbar) slope = {slope:.4f} "
                       f"(want 1 +- 0.1)")


def check_tunneling_rates(ctx: Context) -> CheckResult:
    """Four independent estimators recover the tunneling action."""
    inv = [1.0 / h for h in ctx.cfg.hbar_ladder]
    cols = {
        "beta": ([ctx.bundle(h).tbp.beta for h in ctx.cfg.hbar_ladder], 0.10),
        "width": ([ctx.bundle(h).width1 for h in ctx.cfg.hbar_ladder], 0.10),
        "|a1|": ([abs(ctx.bundle(h).wb.overlaps[1])
                  for h in ctx.cfg.hbar_ladder], 0.10),
        "u0u1_L1": ([wannier.basis_diagnostics(ctx.bundle(h).wb).pair_l1[1]
                     for h in ctx.cfg.hbar_ladder], 0.15),
    }
    details, ok = [], True
    for name, (vals, tol) in cols.items():
        ratio = -_fit_slope(inv, np.log(vals)) / ctx.s0
        ok = ok and (1 - tol <= ratio <= 1 + tol)
        details.append(f"{name}: {ratio:.3f} (tol {tol:.0%})")
    return CheckResult("tunneling-rate consistency", ok, "; ".join(details))


def check_hopping_cross_oracle(ctx: Context) -> CheckResult:
    """Real-space hopping equals the band Fourier coefficient."""
    worst = 0.0
    for hb in ctx.cfg.hbar_ladder:
        bun = ctx.bundle(hb)
        ref = tightbinding.band_hopping(bun.bd)
        worst = max(worst, abs(bun.tbp.beta - ref) / abs(ref))
    return CheckResult("hopping cross-oracle", worst <= 1e-6,
                       f"max relative difference {worst:.2e} (tol 1e-6)")


def check_dnls_solver(ctx: Context) -> CheckResult:
    """Residual/norm quality, Jacobian correctness, brute-force match."""
    problems = []
    for eta, s in ctx.ladder_states.items():
        if eta == 0.0:
            continue
        if s.residual_norm > 1e-10:
            problems.append(f"residual {s.residual_norm:.1e} at eta={eta}")
        if abs(s.norm - 1.0) > 1e-12:
            problems.append(f"norm defect {abs(s.norm - 1):.1e} at eta={eta}")

    prob = dnls.DnlsProblem(eta=-3.0, sigma=1.0, n_sites=21)
    rng = np.random.default_rng(11)
    worst_fd = 0.0
    f = rng.standard_normal(21)
    f /= np.linalg.norm(f)
    e = 2.5
    lp = dnls.linearization_lplus(f, e, prob)
    for _ in range(20):
        v = rng.standard_normal(21)
        v /= np.linalg.norm(v)
        eps = 1e-6
        fd = (dnls.dnls_residual(f + eps * v, e, prob)
              - dnls.dnls_residual(f - eps * v, e, prob)) / (2 * eps)
        worst_fd = max(worst_fd, float(np.linalg.norm(fd - lp @ v)
                                       / np.linalg.norm(lp @ v)))
    if worst_fd > 1e-6:
        problems.append(f"Jacobian FD mismatch {worst_fd:.1e}")

    small = dnls.DnlsProblem(eta=-8.0, sigma=1.0, n_sites=7)
    cont = dnls.solve_anticontinuum(
        dnls.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=7), 0, [-50.0, -8.0])
    target = cont.at_eta(-8.0)
    candidates = dnls.brute_force_states(small, n_starts=200, seed=3)
    dist = np.inf
    for cand in candidates:
        for sgn in (1.0, -1.0):
            dist = min(dist, float(np.abs(sgn * cand.f - target.f).max()))
    if dist > 1e-8:
        problems.append(f"brute-force oracle distance {dist:.1e}")

    detail = (f"ladder residuals <= 1e-10, Jacobian FD err {worst_fd:.1e}, "
              f"oracle linf {dist:.1e}")
    if problems:
        detail = "; ".join(problems)
    return CheckResult("dnls solver quality", not problems, detail)


def check_anticontinuum(ctx: Context) -> CheckResult:
    """Single-site regime at eta = -50 and the measured energy convention."""
    s = ctx.ladder_states[-50.0]
    prob = dnls.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=ctx.cfg.n_sites)
    lp = dnls.linearization_lplus(s.f, s.e, prob)
    inv_norm = dnls.operator_l1_norm(np.linalg.inv(lp))
    d_minus = abs(s.e - 50.0)      # distance to E = -eta
    d_shift = abs(s.e - 52.0)      # distance to E = 2 - eta
    conv = "-eta" if d_minus < d_shift else "2-eta"
    ok = (s.participation < 1.05 and inv_norm <= 2.0 and d_minus <= 10 / 50.0)
    return CheckResult(
        "anticontinuum regime", ok,
        f"P = {s.participation:.4f} (<1.05), ||Lp^-1||_1 = {inv_norm:.3f} "
        f"(<=2), |E-(-eta)| = {d_minus:.2e}, |E-(2-eta)| = {d_shift:.2f}: "
        f"matches the {conv} convention")


def check_perp_smallness(ctx: Context) -> CheckResult:
    """Out-of-band component at eta = -2 decays exponentially in 1/hbar."""
    rows = {r[0]: r[4] for r in ctx.report(1).continuum_rows
            if abs(r[1] + 2.0) < 1e-12}
    ladder = [h for h in ctx.cfg.hbar_ladder if h in rows]
    vals = [rows[h] for h in ladder]
    if len(vals) < 4:
        return CheckResult("perp component decay", False,
                           f"only {len(vals)} points available")
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    slope = -_fit_slope([1.0 / h for h in ladder], np.log(vals))
    ok = monotone and slope >= 0.5 * ctx.s0
    return CheckResult(
        "perp component decay", ok,
        f"monotone={monotone}, slope = {slope:.3f} = {slope / ctx.s0:.2f}*S0 "
        f"(want >= 0.5*S0)")


def check_reconstruction_closeness(ctx: Context) -> CheckResult:
    """H1 distance to the lattice lift decays; oracle agrees."""
    rows = {r[0]: r[5] for r in ctx.report(1).continuum_rows
            if abs(r[1] + 3.0) < 1e-12}
    ladder = [h for h in ctx.cfg.hbar_ladder if h in rows]
    vals = [rows[h] for h in ladder]
    if len(vals) < 4:
        return CheckResult("reconstruction closeness", False,
                           f"only {len(vals)} points available")
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    alpha = -_fit_slope([1.0 / h for h in ladder], np.log(vals))
    pointwise = all(v < 1.0 for v in vals)

    bun = ctx.bundle(ORACLE_HBAR)
    tbp = tightbinding.with_eta(bun.tbp, ORACLE_ETA)
    state = ctx.ladder_states[ORACLE_ETA]
    cs = nlse.reconstruct_and_correct(state, tbp, bun.dom, bun.wb,
                                      delta0=ctx.cfg.delta0)
    seed = cs.phi + 1e-3 * np.sin(bun.dom.x)
    orc = nlse.direct_newton_oracle(bun.dom, cs.lam, tbp.gamma, tbp.sigma, seed)
    agree = bun.dom.h1_norm(orc.phi - cs.phi)

    ok = monotone and alpha > 0 and pointwise and agree <= 1e-7
    return CheckResult(
        "reconstruction closeness", ok,
        f"monotone={monotone}, fitted alpha = {alpha:.3f} "
        f"({alpha / ctx.s0:.2f}*S0), oracle H1 agreement {agree:.2e} (tol 1e-7)")


def check_localization_transition(ctx: Context) -> CheckResult:
    """Participation collapses from the linear value to one site."""
    p0 = ctx.ladder_states[0.0].participation
    p50 = ctx.ladder_states[-50.0].participation
    mass = None
    for r in ctx.report(1).continuum_rows:
        if abs(r[0] - 0.125) < 1e-12 and abs(r[1] + 50.0) < 1e-12:
            mass = r[8]
    ok = p0 > 10 and p50 < 1.05 and mass is not None and mass > 0.95
    return CheckResult(
        "localization transition", ok,
        f"P(0) = {p0:.1f} (>10), P(-50) = {p50:.4f} (<1.05), peak-cell mass "
        f"at hbar=0.125 = {mass if mass is None else f'{mass:.4f}'} (>0.95)")


def check_determinism(ctx: Context) -> CheckResult:
    """Re-running the sweep reproduces every output byte for byte."""
    r1, r2 = ctx.report(1), ctx.report(2)
    names = ["params.csv", "dnls_ladder.csv", "continuum.csv",
             "transition.csv", "fits.json"]
    mismatched = []
    for name in names:
        p1 = [p for p in r1.written if p.endswith(name)]
        p2 = [p for p in r2.written if p.endswith(name)]
        if not p1 or not p2 or not filecmp.cmp(p1[0], p2[0], shallow=False):
            mismatched.append(name)
    return CheckResult("determinism", not mismatched,
                       "byte-identical outputs" if not mismatched
                       else f"mismatch in {', '.join(mismatched)}")


CRITERIA = (
    ("1", check_free_particle_bands),
    ("2", check_harmonic_law),
    ("3", check_gap_scaling),
    ("4", check_tunneling_rates),
    ("5", check_hopping_cross_oracle),
    ("6", check_dnls_solver),
    ("7", check_anticontinuum),
    ("8", check_perp_smallness),
    ("9", check_reconstruction_closeness),
    ("10", check_localization_transition),
    ("11", check_determinism),
)


def run_all(cfg=None, jobs: int = 1, workdir: str | None = None):
    """Run every acceptance criterion; never aborts on a single failure."""
    ctx = Context(cfg, jobs=jobs, workdir=workdir)
    results = []
    try:
        for num, fn in CRITERIA:
            try:
                res = fn(ctx)
            except Exception as exc:  # noqa: BLE001 - report, don't abort
                res = CheckResult(fn.__name__.replace("check_", "").replace("_", " "),
                                  False, f"raised {type(exc).__name__}: {exc}")
            res.name = f"{num}. {res.name}"
            results.append(res)
    finally:
        ctx.cleanup()
    return results
