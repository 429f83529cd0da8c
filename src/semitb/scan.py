"""Parameter sweeps over (hbar, eta), exponential-law fits, and the
localization-transition report.

gamma is always derived from eta through gamma = eta * beta / c0, so every
sweep point sits on the joint small-hbar small-gamma limit.  Per-point
solver failures are recorded as gaps and never abort a sweep.  All outputs
are written deterministically (fixed iteration order, shortest round-trip
float formatting), so identical configurations reproduce identical bytes.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import dnls, nlse, tightbinding
from .bloch import BandData, FloquetConfig, band_metrics, solve_bands
from .errors import Error, SolverError, TailFitError
from .operators import PeriodicDomain
from .potential import PotentialSpec, tunneling_action
from .wannier import WannierBasis, basis_diagnostics, build_orthonormal_basis, fix_gauge

log = logging.getLogger(__name__)

PARTICIPATION_CROSSING = 1.5


@dataclass(frozen=True)
class Numerics:
    n_pw: int = 129
    n_kappa: int = 64
    cells: int = 32
    points_per_cell: int = 64
    lowdin_band: int = 6
    n_bands: int = 5
    delta0: float = 2.0


@dataclass(frozen=True)
class SweepPlan:
    spec: PotentialSpec
    hbar_ladder: tuple
    eta_values: tuple
    sigma: float = 1.0
    n_sites: int = 41
    seed_site: int = 0
    numerics: Numerics = field(default_factory=Numerics)
    out_dir: str | None = None

    def __post_init__(self):
        ladder = tuple(float(h) for h in self.hbar_ladder)
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("hbar ladder must be strictly decreasing")
        if len(ladder) < 4:
            raise ValueError("hbar ladder needs >= 4 points for slope fits")
        if not any(abs(e) < 1e-15 for e in self.eta_values):
            raise ValueError("eta list must include 0 (linear reference)")


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    n_points: int


def fit_exponential_law(xs, ys, window=None) -> FitResult:
    """Least-squares line through (xs, ys) with optional amplitude window.

    The window (lo, hi) keeps points whose raw quantity exp(y) lies inside
    it.  Raises Error on fewer than four usable points or a degenerate
    abscissa spread.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(ys) & np.isfinite(xs)
    if window is not None:
        lo, hi = window
        keep &= (np.exp(ys) >= lo) & (np.exp(ys) <= hi)
    xs, ys = xs[keep], ys[keep]
    if xs.size < 4:
        raise Error(f"fit needs >= 4 points, have {xs.size}")
    if xs.max() - xs.min() < 1e-6:
        raise Error("degenerate abscissa spread")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r2=r2, n_points=int(xs.size))


@dataclass
class PipelineBundle:
    """Everything derived from (potential, hbar) that sweeps reuse."""

    spec: PotentialSpec
    hbar: float
    bd: BandData
    wb: WannierBasis
    dom: PeriodicDomain
    tbp: tightbinding.TBParams
    width1: float
    gap1: float


def gauged_bands(spec: PotentialSpec, hbar: float, numerics: Numerics,
                 jobs: int = 1) -> BandData:
    """Floquet bands at hbar with the first-band gauge fixed."""
    cfg = FloquetConfig(hbar=hbar, n_pw=numerics.n_pw, n_kappa=numerics.n_kappa,
                        n_bands=numerics.n_bands)
    return fix_gauge(solve_bands(spec, cfg, jobs=jobs))


def build_pipeline(spec: PotentialSpec, hbar: float, numerics: Numerics,
                   sigma: float, bd: BandData | None = None,
                   wb: WannierBasis | None = None,
                   jobs: int = 1) -> PipelineBundle:
    """Build the bundle at one hbar, reusing the bands and basis passed in.

    bd must be gauge fixed (as `gauged_bands` returns it); whatever the
    caller does not pass is built here, the band solve on `jobs` threads.
    """
    if bd is None:
        bd = gauged_bands(spec, hbar, numerics, jobs=jobs)
    dom = PeriodicDomain(spec, hbar, numerics.cells, numerics.points_per_cell)
    if wb is None:
        wb = build_orthonormal_basis(bd, dom, numerics.lowdin_band)
    tbp = tightbinding.extract_params(wb, dom, sigma=sigma, bd=bd)
    m = band_metrics(bd, 1)
    return PipelineBundle(spec=spec, hbar=hbar, bd=bd, wb=wb, dom=dom, tbp=tbp,
                          width1=m["width"], gap1=m["gap_above"])


@dataclass
class TransitionReport:
    s0: float
    params_rows: list
    dnls_rows: list
    continuum_rows: list
    transition_rows: list
    fits: dict
    gaps: list
    eta_crossing: float | None
    written: list


PARAMS_HEADER = ("hbar", "lambda1", "beta", "C0", "gamma", "eta", "D_norm",
                 "S0", "gap", "width")
DNLS_COLUMNS = ("eta", "E", "residual", "P", "tau")
CONTINUUM_HEADER = ("hbar", "eta", "lambda", "E", "perp_h1", "h1_error",
                    "iterations", "residual_h", "peak_cell_mass")
TRANSITION_HEADER = ("eta", "E", "P", "tau")


def dnls_header(n_sites: int) -> list:
    """dnls_ladder.csv header: DNLS_COLUMNS, then one F column per site."""
    return [*DNLS_COLUMNS, *(f"F{j}" for j in range(n_sites))]


def _eta_order(etas):
    return sorted(etas, key=lambda e: (-abs(e), e))


def params_rows(bundles: dict, hbar_ladder, eta_values, s0: float) -> list:
    """params.csv rows (PARAMS_HEADER): one per (hbar, eta) point."""
    rows = []
    for hb in hbar_ladder:
        bun = bundles[hb]
        for eta in _eta_order(eta_values):
            tbp = tightbinding.with_eta(bun.tbp, eta)
            rows.append([hb, tbp.lambda1, tbp.beta, tbp.c0, tbp.gamma, tbp.eta,
                         tbp.dtilde_norm, s0, bun.gap1, bun.width1])
    return rows


def dnls_rows(lattice_states: dict) -> list:
    """dnls_ladder.csv rows (dnls_header): one per lattice state.

    tau is None where the profile has no fittable tail.
    """
    rows = []
    for eta in _eta_order(lattice_states):
        s = lattice_states[eta]
        try:
            tau = dnls.decay_rate(s.f)
        except TailFitError:
            tau = None
        rows.append([s.eta, s.e, s.residual_norm, s.participation, tau]
                    + [float(v) for v in s.f])
    return rows


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return repr(v) if np.isfinite(v) else ""
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _dnls_ladder(plan: SweepPlan):
    """Continue the single-site branch through the requested eta values.

    Returns ({eta: DnlsState}, turning) with the eta = 0 entry filled by
    the delocalized linear reference state.
    """
    states = {}
    turning = False
    for sign in (-1.0, 1.0):
        branch = sorted({float(e) for e in plan.eta_values if sign * e > 0},
                        key=abs, reverse=True)
        if not branch:
            continue
        anchor = sign * max(50.0, abs(branch[0]))
        path = [anchor] + [e for e in branch if abs(e) < abs(anchor)]
        prob = dnls.DnlsProblem(eta=anchor, sigma=plan.sigma,
                                n_sites=plan.n_sites, boundary="zero")
        result = dnls.solve_anticontinuum(prob, plan.seed_site, path)
        turning = turning or result.turning_point
        for s in result.states:
            if any(abs(s.eta - e) < 1e-12 for e in plan.eta_values):
                states[s.eta] = s
    if any(abs(e) < 1e-15 for e in plan.eta_values):
        states[0.0] = dnls.linear_ground_state(plan.n_sites, "zero")
    return states, turning


def run_sweep(plan: SweepPlan, bundles: dict) -> TransitionReport:
    """Execute the full (hbar, eta) sweep and assemble the report.

    bundles maps every ladder hbar to its PipelineBundle (the CLI builds
    them through its cache).
    """
    s0 = tunneling_action(plan.spec).s0
    ladder = [float(h) for h in plan.hbar_ladder]

    lattice_states, turning = _dnls_ladder(plan)
    if turning:
        log.warning("continuation hit a turning point; ladder incomplete")

    lattice_rows = dnls_rows(lattice_states)
    transition_rows = [r[:2] + r[3:5] for r in lattice_rows]
    point_rows = params_rows(bundles, ladder, plan.eta_values, s0)

    continuum_rows, gaps = [], []
    continuum_states = {}
    for hb in ladder:
        bun = bundles[hb]
        for eta in _eta_order(plan.eta_values):
            state = lattice_states.get(eta)
            if state is None:
                gaps.append({"hbar": hb, "eta": eta, "reason": "no lattice state"})
                continue
            tbp = tightbinding.with_eta(bun.tbp, eta)
            if eta == 0.0:
                # linear reference row: the reconstruction is the reference
                lam = tbp.lambda1 - tbp.beta * state.e
                continuum_rows.append([hb, eta, lam, state.e, 0.0, 0.0, 0, 0.0, 1.0])
                continue
            try:
                cs = nlse.reconstruct_and_correct(
                    state, tbp, bun.dom, bun.wb, delta0=plan.numerics.delta0)
                seed = bun.wb.u.T @ nlse.lattice_map(state, bun.wb)
                herr = bun.dom.h1_norm(cs.phi - seed)
                mass = nlse.peak_cell_mass(cs.phi, bun.wb)
                continuum_rows.append([
                    hb, eta, cs.lam, state.e, cs.perp_h1, herr,
                    cs.iterations, cs.residual_h, mass,
                ])
                continuum_states[(hb, eta)] = cs
            except (SolverError, Error) as exc:
                gaps.append({"hbar": hb, "eta": eta, "reason": str(exc)})

    eta_crossing = _participation_crossing(lattice_states)

    fits = _assemble_fits(plan, bundles, continuum_rows, s0)
    fits["transition"] = {
        "eta_at_participation_1.5": eta_crossing,
        "participation_at_eta0": (lattice_states[0.0].participation
                                  if 0.0 in lattice_states else None),
    }
    fits["gaps"] = gaps

    written = []
    if plan.out_dir:
        os.makedirs(plan.out_dir, exist_ok=True)
        paths = {
            "params.csv": (PARAMS_HEADER, point_rows),
            "dnls_ladder.csv": (dnls_header(plan.n_sites), lattice_rows),
            "continuum.csv": (CONTINUUM_HEADER, continuum_rows),
            "transition.csv": (TRANSITION_HEADER, transition_rows),
        }
        for name, (header, rows) in paths.items():
            path = os.path.join(plan.out_dir, name)
            _write_csv(path, header, rows)
            written.append(path)
        fits_path = os.path.join(plan.out_dir, "fits.json")
        with open(fits_path, "w", encoding="utf-8") as fh:
            json.dump(fits, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(fits_path)
        written.extend(_write_state_bundles(plan, lattice_states,
                                            continuum_states))

    return TransitionReport(
        s0=s0, params_rows=point_rows, dnls_rows=lattice_rows,
        continuum_rows=continuum_rows, transition_rows=transition_rows,
        fits=fits, gaps=gaps, eta_crossing=eta_crossing, written=written,
    )


def _participation_crossing(lattice_states) -> float | None:
    """Interpolated |eta| where participation first drops below 1.5 sites.

    A diagnostic convention, not a claimed critical point.
    """
    pts = sorted(((abs(e), s.participation) for e, s in lattice_states.items()),
                 key=lambda t: t[0])
    prev = None
    for ae, p in pts:
        if p < PARTICIPATION_CROSSING and prev is not None:
            ae0, p0 = prev
            t = (p0 - PARTICIPATION_CROSSING) / (p0 - p)
            return float(ae0 + t * (ae - ae0))
        if p < PARTICIPATION_CROSSING:
            return float(ae)
        prev = (ae, p)
    return None


def _assemble_fits(plan, bundles, continuum_rows, s0) -> dict:
    ladder = [float(h) for h in plan.hbar_ladder]
    inv = [1.0 / h for h in ladder]
    fits = {}

    def _try(name, xs, ys, ratio_to_s0=False):
        try:
            fr = fit_exponential_law(xs, ys)
        except Error as exc:
            fits[name] = {"available": False, "reason": str(exc)}
            return
        entry = {"available": True, "slope": fr.slope, "intercept": fr.intercept,
                 "r2": fr.r2, "n_points": fr.n_points}
        if ratio_to_s0:
            entry["s0_estimate"] = -fr.slope
            entry["s0_ratio"] = -fr.slope / s0
        fits[name] = entry

    beta = [bundles[h].tbp.beta for h in ladder]
    width = [bundles[h].width1 for h in ladder]
    gap = [bundles[h].gap1 for h in ladder]
    a1 = [abs(bundles[h].wb.overlaps[1]) for h in ladder]
    u0u1 = [basis_diagnostics(bundles[h].wb).pair_l1[1] for h in ladder]

    _try("hopping_beta", inv, np.log(beta), ratio_to_s0=True)
    _try("band_width", inv, np.log(width), ratio_to_s0=True)
    _try("overlap_a1", inv, np.log(a1), ratio_to_s0=True)
    _try("pair_l1_u0u1", inv, np.log(u0u1), ratio_to_s0=True)
    _try("gap_loglog", np.log(ladder), np.log(gap))

    for eta_target, name in ((-2.0, "perp_h1_eta_-2"), (-3.0, "h1_error_eta_-3")):
        col = 4 if name.startswith("perp") else 5
        vals = {}
        for row in continuum_rows:
            if abs(row[1] - eta_target) < 1e-12 and row[col] > 0:
                vals[row[0]] = row[col]
        xs = [1.0 / h for h in ladder if h in vals]
        ys = [np.log(vals[h]) for h in ladder if h in vals]
        _try(name, xs, ys, ratio_to_s0=True)

    fits["s0_quadrature"] = s0
    return fits


def _write_state_bundles(plan, lattice_states, continuum_states):
    out = []
    state_dir = os.path.join(plan.out_dir, "states")
    os.makedirs(state_dir, exist_ok=True)
    for eta in _eta_order(lattice_states):
        s = lattice_states[eta]
        path = os.path.join(state_dir, f"dnls_eta{eta:+.6g}.npz")
        np.savez(path, eta=s.eta, sigma=s.sigma, e=s.e, f=s.f,
                 residual=s.residual_norm)
        out.append(path)
    for (hb, eta) in sorted(continuum_states):
        cs = continuum_states[(hb, eta)]
        path = os.path.join(state_dir, f"continuum_h{hb:g}_eta{eta:+.6g}.npz")
        np.savez(path, hbar=hb, eta=eta, lam=cs.lam, gamma=cs.gamma,
                 sigma=cs.sigma, phi=cs.phi, c=cs.c, perp_h1=cs.perp_h1,
                 residual_h=cs.residual_h, resolvent_shift=cs.resolvent_shift)
        out.append(path)
    return out
