"""Acceptance checks for a run configuration.

Each criterion is one function returning (passed, detail) under the name
`_criterion` gives it; `run_all` executes them in order into CheckResults,
and `semitb verify` prints one pass/fail line per criterion.
The thresholds are set for the reference configuration, `reference.ini`
at the repository root.
"""

from __future__ import annotations

import filecmp
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bloch, dnls, nlse, scan, tightbinding
from .errors import Error
from .potential import free_potential, tunneling_action

ORACLE_HBAR = 0.15
ORACLE_ETA = -3.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


class Context:
    """Lazily built state of one acceptance run.

    Per hbar it keeps what the bundle cache keeps: the BandData and the
    WannierBasis fields.  It keeps no PipelineBundle: `bundle` builds one
    from those parts on every call, and each caller drops it before it
    asks for the next, so at most one is alive.  Each sweep thus derives
    its own domains and lattice parameters, and criterion 11 compares two
    sweeps that share only the bands and the basis.  Sweep n writes its
    outputs to out_dir/run<n>.
    """

    def __init__(self, cfg, out_dir: str):
        self.cfg = cfg
        self.out_dir = out_dir
        self._parts = {}
        self._reports = {}

    # -- shared building blocks -------------------------------------------

    @cached_property
    def spec(self):
        return self.cfg.potential()

    @cached_property
    def s0(self):
        return tunneling_action(self.spec)

    def bundle(self, hbar: float) -> scan.PipelineBundle:
        if hbar in self._parts:
            bd, wb = self._parts[hbar]
            return scan.build_pipeline(self.cfg, hbar, bd=bd, wb=wb)
        bun = scan.build_pipeline(self.cfg, hbar)
        self._parts[hbar] = (bun.bd, bun.wb)
        return bun

    def bands(self, hbar: float) -> bloch.BandData:
        """The BandData of a hbar whose bundle was built."""
        return self._parts[hbar][0]

    @property
    def ladder_states(self):
        return self.report(1).lattice_states

    def report(self, run: int) -> scan.TransitionReport:
        if run not in self._reports:
            out = os.path.join(self.out_dir, f"run{run}")
            self._reports[run] = scan.run_sweep(self.cfg, self.bundle, out_dir=out)
        return self._reports[run]


def _ladder_params(ctx: Context) -> dict:
    """{hbar: (lambda1, beta)} from the params.csv rows of the sweep."""
    return {row[0]: (row[1], row[2]) for row in ctx.report(1).params_rows}


def _published_fit(ctx: Context, name: str) -> dict:
    """The fits.json entry of the sweep; raises when the fit was unavailable."""
    entry = ctx.report(1).fits[name]
    if not entry["available"]:
        raise Error(f"fit {name} unavailable: {entry['reason']}")
    return entry


def _published_decay(ctx: Context, column: str, eta: float, fit: str):
    """(values, monotone, S0 estimate) of a continuum.csv column at eta.

    The values run down the ladder over the hbar the sweep delivered;
    monotone says they strictly decrease, and the estimate is the fit's.
    Raises Error on fewer than four values.
    """
    rows = scan.continuum_column(ctx.report(1).continuum_rows, column, eta)
    vals = [rows[h] for h in ctx.cfg.hbar_ladder if h in rows]
    if len(vals) < 4:
        raise Error(f"only {len(vals)} points available")
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    return vals, monotone, _published_fit(ctx, fit)["s0_estimate"]


def _criterion(name: str):
    """Give a check the name `run_all` prints for it, whether it returns or raises."""
    def named(check):
        check.title = name
        return check
    return named


# -- criteria ------------------------------------------------------------------


@_criterion("free-particle bands")
def check_free_particle_bands(ctx: Context) -> tuple[bool, str]:
    """Fourier-basis sanity: with V = 0 the bands are folded parabolas."""
    spec = free_potential(1.0)
    cfg = bloch.FloquetConfig(hbar=0.3, n_pw=41, n_kappa=16, n_bands=6)
    bd = bloch.solve_bands(spec, cfg)
    modes = np.arange(cfg.n_pw) - cfg.n_pw // 2
    worst = 0.0
    for i, k in enumerate(bd.kappa):
        exact = np.sort((cfg.hbar * (k + bd.b * modes)) ** 2)[: bd.n_bands]
        worst = max(worst, float(np.abs(bd.energies[:, i] - exact).max()))
    return worst <= 1e-10, f"max |E - parabola| = {worst:.2e} (tol 1e-10)"


@_criterion("harmonic law for lambda1")
def check_harmonic_law(ctx: Context) -> tuple[bool, str]:
    """lambda1 = hbar sqrt(V''(x0)/2) + O(hbar^2) with a stable constant."""
    omega_half = np.sqrt(ctx.spec.curvature / 2.0)
    params = _ladder_params(ctx)
    ratios = []
    for hb in ctx.cfg.hbar_ladder:
        lam1 = params[hb][0]
        ratios.append(abs(lam1 - hb * omega_half) / hb**2)
    spread = max(ratios) / min(ratios)
    return (
        spread <= 2.0,
        f"|lambda1 - hbar*sqrt(V''/2)|/hbar^2 in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], spread {spread:.3f} (tol 2)")


@_criterion("gap scaling ~ hbar")
def check_gap_scaling(ctx: Context) -> tuple[bool, str]:
    """First gap is of order hbar: log-log slope 1 +- 0.1."""
    slope = _published_fit(ctx, "gap_loglog")["slope"]
    return (0.9 <= slope <= 1.1,
            f"log(gap) vs log(hbar) slope = {slope:.4f} (want 1 +- 0.1)")


@_criterion("tunneling-rate consistency")
def check_tunneling_rates(ctx: Context) -> tuple[bool, str]:
    """Four independent estimators recover the tunneling action."""
    cols = {
        "beta": ("hopping_beta", 0.10),
        "width": ("band_width", 0.10),
        "|a1|": ("overlap_a1", 0.10),
        "u0u1_L1": ("pair_l1_u0u1", 0.15),
    }
    details, ok = [], True
    for name, (fit, tol) in cols.items():
        ratio = _published_fit(ctx, fit)["s0_ratio"]
        ok = ok and (1 - tol <= ratio <= 1 + tol)
        details.append(f"{name}: {ratio:.3f} (tol {tol:.0%})")
    return ok, "; ".join(details)


@_criterion("hopping cross-oracle")
def check_hopping_cross_oracle(ctx: Context) -> tuple[bool, str]:
    """Real-space hopping equals the band Fourier coefficient."""
    params = _ladder_params(ctx)
    worst = 0.0
    for hb in ctx.cfg.hbar_ladder:
        ref = tightbinding.band_hopping(ctx.bands(hb))
        worst = max(worst, abs(params[hb][1] - ref) / abs(ref))
    return worst <= 1e-6, f"max relative difference {worst:.2e} (tol 1e-6)"


@_criterion("dnls solver quality")
def check_dnls_solver(ctx: Context) -> tuple[bool, str]:
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
    # a unit point and 20 unit directions: the f rows of 21 starts
    (f, *directions), _ = dnls.random_starts(prob, 21, seed=11)
    worst_fd = 0.0
    e = 2.5
    lp = dnls.linearization_lplus(f, e, prob)
    for v in directions:
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
    return not problems, detail


@_criterion("anticontinuum regime")
def check_anticontinuum(ctx: Context) -> tuple[bool, str]:
    """Single-site regime at eta = -50 and the measured energy convention."""
    s = ctx.ladder_states[-50.0]
    prob = dnls.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=ctx.cfg.n_sites)
    lp = dnls.linearization_lplus(s.f, s.e, prob)
    inv_norm = dnls.operator_l1_norm(np.linalg.inv(lp))
    d_minus = abs(s.e - 50.0)      # distance to E = -eta
    d_shift = abs(s.e - 52.0)      # distance to E = 2 - eta
    conv = "-eta" if d_minus < d_shift else "2-eta"
    ok = (s.participation < 1.05 and inv_norm <= 2.0 and d_minus <= 10 / 50.0)
    return (
        ok,
        f"P = {s.participation:.4f} (<1.05), ||Lp^-1||_1 = {inv_norm:.3f} "
        f"(<=2), |E-(-eta)| = {d_minus:.2e}, |E-(2-eta)| = {d_shift:.2f}: "
        f"matches the {conv} convention")


@_criterion("perp component decay")
def check_perp_smallness(ctx: Context) -> tuple[bool, str]:
    """Out-of-band component at eta = -2 decays exponentially in 1/hbar."""
    _, monotone, slope = _published_decay(ctx, "perp_h1", -2.0, "perp_h1_eta_-2")
    ok = monotone and slope >= 0.5 * ctx.s0
    return (
        ok,
        f"monotone={monotone}, slope = {slope:.3f} = {slope / ctx.s0:.2f}*S0 "
        f"(want >= 0.5*S0)")


@_criterion("reconstruction closeness")
def check_reconstruction_closeness(ctx: Context) -> tuple[bool, str]:
    """H1 distance to the lattice lift decays; oracle agrees."""
    vals, monotone, alpha = _published_decay(ctx, "h1_error", -3.0,
                                             "h1_error_eta_-3")
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
    return (
        ok,
        f"monotone={monotone}, fitted alpha = {alpha:.3f} "
        f"({alpha / ctx.s0:.2f}*S0), oracle H1 agreement {agree:.2e} (tol 1e-7; "
        f"oracle {orc.iterations} Newton / {orc.minres_iterations} MINRES steps, "
        f"residual_h {orc.residual_h:.2e} oracle, {cs.residual_h:.2e} reconstruction)")


@_criterion("localization transition")
def check_localization_transition(ctx: Context) -> tuple[bool, str]:
    """Participation collapses from the linear value to one site."""
    p0 = ctx.ladder_states[0.0].participation
    p50 = ctx.ladder_states[-50.0].participation
    mass = scan.continuum_column(ctx.report(1).continuum_rows, "peak_cell_mass",
                                 -50.0).get(0.125)
    ok = p0 > 10 and p50 < 1.05 and mass is not None and mass > 0.95
    return (
        ok,
        f"P(0) = {p0:.1f} (>10), P(-50) = {p50:.4f} (<1.05), peak-cell mass "
        f"at hbar=0.125 = {mass if mass is None else f'{mass:.4f}'} (>0.95)")


@_criterion("determinism")
def check_determinism(ctx: Context) -> tuple[bool, str]:
    """A second sweep reproduces every output byte for byte.

    It shares only the bands and the basis with the first: each hbar's
    domain and lattice parameters are derived again.
    """
    ctx.report(1)
    ctx.report(2)
    names = ["params.csv", "dnls_ladder.csv", "continuum.csv",
             "transition.csv", "fits.json"]
    run1, run2 = (os.path.join(ctx.out_dir, run) for run in ("run1", "run2"))
    mismatched = [name for name in names
                  if not filecmp.cmp(os.path.join(run1, name),
                                     os.path.join(run2, name), shallow=False)]
    return (not mismatched,
            f"mismatch in {', '.join(mismatched)}" if mismatched
            else "byte-identical outputs")


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


def run_all(cfg):
    """Run every acceptance criterion; never aborts on a single failure."""
    results = []
    with tempfile.TemporaryDirectory(prefix="semitb_verify_") as tmp:
        ctx = Context(cfg, tmp)
        for num, fn in CRITERIA:
            try:
                passed, detail = fn(ctx)
            except Exception as exc:  # noqa: BLE001 - report, don't abort
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(f"{num}. {fn.title}", passed, detail))
    return results
