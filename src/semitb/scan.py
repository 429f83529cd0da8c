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
from dataclasses import dataclass

import numpy as np

from . import dnls, nlse, tightbinding
from .bloch import BandData, FloquetConfig, band_metrics, solve_bands
from .cache import write_file, write_npz
from .errors import Error, TailFitError
from .operators import PeriodicDomain, l2_norm
from .potential import tunneling_action
from .wannier import (WannierBasis, build_orthonormal_basis, fix_gauge,
                      pair_overlap_l1, synthesize)

log = logging.getLogger(__name__)

PARTICIPATION_CROSSING = 1.5


def fit_exponential_law(xs, ys) -> dict:
    """Least-squares line through the finite points of (xs, ys), in
    dnls.fit_line's closed form.

    Returns the fit's fits.json fields: slope, intercept, r2 and n_points.
    Raises Error on fewer than four usable points or a degenerate
    abscissa spread.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(ys) & np.isfinite(xs)
    xs, ys = xs[keep], ys[keep]
    if xs.size < 4:
        raise Error(f"fit needs >= 4 points, have {xs.size}")
    if xs.max() - xs.min() < 1e-6:
        raise Error("degenerate abscissa spread")
    slope, intercept = dnls.fit_line(xs, ys)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": slope, "intercept": intercept, "r2": r2,
            "n_points": int(xs.size)}


@dataclass
class PipelineBundle:
    """Everything derived from (potential, hbar) that sweeps reuse."""

    bd: BandData
    wb: WannierBasis
    dom: PeriodicDomain
    tbp: tightbinding.TBParams


def band_data(cfg, hbar: float) -> BandData:
    """Floquet bands of the cli.RunConfig potential at hbar."""
    fc = FloquetConfig(hbar=hbar, n_pw=cfg.n_pw, n_kappa=cfg.n_kappa,
                       n_bands=cfg.n_bands)
    return solve_bands(cfg.potential(), fc)


def build_pipeline(cfg, hbar: float, bd: BandData | None = None,
                   wb: WannierBasis | None = None,
                   blocks: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> PipelineBundle:
    """Build the bundle of a cli.RunConfig at one hbar, reusing bd, wb and
    the domain's block eigenpairs (see PeriodicDomain).

    Whatever the caller does not pass is built here.
    """
    if bd is None:
        bd = band_data(cfg, hbar)
    dom = PeriodicDomain(cfg.potential(), hbar, cfg.cells, cfg.points_per_cell,
                         blocks=blocks)
    if wb is None:
        fix_gauge(dom)  # the gauge guard: raises GaugeError on a bad band
        wb = build_orthonormal_basis(dom, cfg.lowdin_band)
    tbp = tightbinding.extract_params(wb, dom, sigma=cfg.sigma, bd=bd)
    return PipelineBundle(bd=bd, wb=wb, dom=dom, tbp=tbp)


@dataclass
class TransitionReport:
    lattice_states: dict
    params_rows: list
    continuum_rows: list
    fits: dict
    gaps: list
    written: list


PARAMS_HEADER = ("hbar", "lambda1", "beta", "C0", "gamma", "eta", "D_norm",
                 "S0", "gap", "width")
DNLS_COLUMNS = ("eta", "E", "residual", "P", "tau")
CONTINUUM_HEADER = ("hbar", "eta", "lambda", "E", "perp_h1", "h1_error",
                    "iterations", "residual_h", "peak_cell_mass")
TRANSITION_HEADER = ("eta", "E", "P", "tau")


def continuum_column(rows, name: str, eta: float) -> dict:
    """{hbar: value} of the continuum.csv column `name` on the rows at eta."""
    hb, at, col = (CONTINUUM_HEADER.index(c) for c in ("hbar", "eta", name))
    return {r[hb]: r[col] for r in rows if abs(r[at] - eta) < 1e-12}


def dnls_header(n_sites: int) -> list:
    """dnls_ladder.csv header: DNLS_COLUMNS, then one F column per site."""
    return [*DNLS_COLUMNS, *(f"F{j}" for j in range(n_sites))]


def _eta_order(etas):
    return sorted(etas, key=lambda e: (-abs(e), e))


def params_rows(hb: float, bun: PipelineBundle, eta_values, s0: float) -> list:
    """params.csv rows (PARAMS_HEADER) of one hbar: one per eta point."""
    rows = []
    m = band_metrics(bun.bd, 1)
    for eta in _eta_order(eta_values):
        tbp = tightbinding.with_eta(bun.tbp, eta)
        rows.append([hb, tbp.lambda1, tbp.beta, tbp.c0, tbp.gamma, tbp.eta,
                     tbp.dtilde_norm, s0, m["gap_above"], m["width"]])
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
    write_file(path, lambda fh: fh.writelines(
        (",".join(_fmt(v) for v in row) + "\n").encode() for row in [header, *rows]))


def _dnls_ladder(cfg):
    """Continue the single-site branch through the eta values of a cli.RunConfig.

    Returns ({eta: DnlsState}, turning) with the eta = 0 entry filled by
    the delocalized linear reference state, which `cli.parse_config`
    makes sure the eta list asks for.
    """
    states = {}
    turning = False
    for sign in (-1.0, 1.0):
        branch = sorted({float(e) for e in cfg.eta_values if sign * e > 0},
                        key=abs, reverse=True)
        if not branch:
            continue
        anchor = sign * max(50.0, abs(branch[0]))
        path = [anchor] + [e for e in branch if abs(e) < abs(anchor)]
        prob = dnls.DnlsProblem(eta=anchor, sigma=cfg.sigma, n_sites=cfg.n_sites)
        result = dnls.solve_anticontinuum(prob, cfg.seed_site, path)
        turning = turning or result.turning_point
        for s in result.states:
            if any(abs(s.eta - e) < 1e-12 for e in cfg.eta_values):
                states[s.eta] = s
    states[0.0] = dnls.linear_ground_state(cfg.n_sites)
    return states, turning


def run_sweep(cfg, bundle_of, out_dir: str) -> TransitionReport:
    """Execute the full (hbar, eta) sweep of a cli.RunConfig and write its outputs.

    bundle_of(hbar) returns the PipelineBundle of one ladder hbar (the CLI
    builds it through its cache).  The sweep asks for each hbar once, in
    ladder order, and holds one bundle at a time: a row keeps only its
    CSV rows and the scalars the fits read.  The outputs are written to
    out_dir, each row's continuum states as the row ends.  The report also
    carries the lattice states, {eta: DnlsState}.
    """
    s0 = tunneling_action(cfg.potential())
    ladder = [float(h) for h in cfg.hbar_ladder]

    lattice_states, turning = _dnls_ladder(cfg)
    if turning:
        log.warning("continuation hit a turning point; ladder incomplete")

    lattice_rows = dnls_rows(lattice_states)

    state_dir = os.path.join(out_dir, "states")
    point_rows, continuum_rows, gaps, fit_scalars, state_paths = [], [], [], [], {}
    for hb in ladder:
        bun = bundle_of(hb)
        point_rows += params_rows(hb, bun, cfg.eta_values, s0)
        m = band_metrics(bun.bd, 1)
        fit_scalars.append((bun.tbp.beta, m["width"], m["gap_above"],
                            abs(bun.wb.overlaps[1]),
                            pair_overlap_l1(bun.wb, bun.dom.dx, 1)))
        rows, row_gaps, paths = _sweep_row(cfg, hb, bun, lattice_states, state_dir)
        continuum_rows += rows
        gaps += row_gaps
        state_paths.update(paths)
        del bun  # dropped before the next hbar's bundle is built

    fits = _assemble_fits(ladder, fit_scalars, continuum_rows, s0)
    fits["transition"] = {
        "eta_at_participation_1.5": _participation_crossing(lattice_states),
        "participation_at_eta0": lattice_states[0.0].participation,
    }
    fits["gaps"] = gaps

    written = []
    paths = {
        "params.csv": (PARAMS_HEADER, point_rows),
        "dnls_ladder.csv": (dnls_header(cfg.n_sites), lattice_rows),
        "continuum.csv": (CONTINUUM_HEADER, continuum_rows),
        "transition.csv": (TRANSITION_HEADER, [r[:2] + r[3:5] for r in lattice_rows]),
    }
    for name, (header, rows) in paths.items():
        path = os.path.join(out_dir, name)
        _write_csv(path, header, rows)
        written.append(path)
    fits_path = os.path.join(out_dir, "fits.json")
    text = json.dumps(fits, indent=2, sort_keys=True) + "\n"
    write_file(fits_path, lambda fh: fh.write(text.encode()))
    written.append(fits_path)
    written.extend(_write_dnls_states(state_dir, lattice_states))
    written.extend(state_paths[k] for k in sorted(state_paths))

    return TransitionReport(
        lattice_states=lattice_states, params_rows=point_rows,
        continuum_rows=continuum_rows, fits=fits, gaps=gaps, written=written,
    )


def _sweep_row(cfg, hb, bun, lattice_states, state_dir):
    """The eta row of one hbar: (continuum rows, gaps, {(hbar, eta): state path}).

    The row's continuum states are written to state_dir as the row ends,
    and none is kept.
    """
    rows, gaps, states = [], [], {}
    for eta in _eta_order(cfg.eta_values):
        state = lattice_states.get(eta)
        if state is None:
            gaps.append({"hbar": hb, "eta": eta, "reason": "no lattice state"})
            continue
        tbp = tightbinding.with_eta(bun.tbp, eta)
        seed = synthesize(bun.wb, nlse.lattice_map(state, bun.wb))
        if eta == 0.0:
            # linear reference row: the reconstruction is the lattice lift
            lam = tbp.lambda1 - tbp.beta * state.e
            rnorm = l2_norm(bun.dom.dx, bun.dom.apply_h(seed) - lam * seed)
            mass = nlse.peak_cell_mass(seed, bun.wb)
            rows.append([hb, eta, lam, state.e, 0.0, 0.0, 0, rnorm, mass])
            continue
        try:
            cs = nlse.reconstruct_and_correct(
                state, tbp, bun.dom, bun.wb, delta0=cfg.delta0)
            herr = bun.dom.h1_norm(cs.phi - seed)
            mass = nlse.peak_cell_mass(cs.phi, bun.wb)
            rows.append([
                hb, eta, cs.lam, state.e, cs.perp_h1, herr,
                cs.iterations, cs.residual_h, mass,
            ])
            states[eta] = cs
        except Error as exc:
            gaps.append({"hbar": hb, "eta": eta, "reason": str(exc)})
    paths = {(hb, eta): _write_continuum_state(state_dir, hb, eta, cs)
             for eta, cs in states.items()}
    return rows, gaps, paths


def _participation_crossing(lattice_states) -> float | None:
    """Interpolated |eta| where participation first drops below 1.5 sites.

    A diagnostic convention, not a claimed critical point.  The first
    point, eta = 0, spans 2(N+1)/3 >= 8/3 sites, so it never crosses.
    """
    pts = sorted(((abs(e), s.participation) for e, s in lattice_states.items()),
                 key=lambda t: t[0])
    for (ae0, p0), (ae, p) in zip(pts, pts[1:]):
        if p < PARTICIPATION_CROSSING:
            t = (p0 - PARTICIPATION_CROSSING) / (p0 - p)
            return float(ae0 + t * (ae - ae0))
    return None


def _assemble_fits(ladder, fit_scalars, continuum_rows, s0) -> dict:
    """fits.json entries.  fit_scalars holds one (beta, width1, gap1, |a1|,
    pair_l1[1]) tuple per ladder hbar, in ladder order."""
    inv = [1.0 / h for h in ladder]
    fits = {}

    def _try(name, xs, ys, ratio_to_s0=False):
        try:
            entry = {"available": True, **fit_exponential_law(xs, ys)}
        except Error as exc:
            fits[name] = {"available": False, "reason": str(exc)}
            return
        if ratio_to_s0:
            entry["s0_estimate"] = -entry["slope"]
            entry["s0_ratio"] = -entry["slope"] / s0
        fits[name] = entry

    beta, width, gap, a1, u0u1 = zip(*fit_scalars)

    _try("hopping_beta", inv, np.log(beta), ratio_to_s0=True)
    _try("band_width", inv, np.log(width), ratio_to_s0=True)
    _try("overlap_a1", inv, np.log(a1), ratio_to_s0=True)
    _try("pair_l1_u0u1", inv, np.log(u0u1), ratio_to_s0=True)
    _try("gap_loglog", np.log(ladder), np.log(gap))

    for eta_target, col, name in ((-2.0, "perp_h1", "perp_h1_eta_-2"),
                                  (-3.0, "h1_error", "h1_error_eta_-3")):
        vals = {h: v for h, v in
                continuum_column(continuum_rows, col, eta_target).items() if v > 0}
        xs = [1.0 / h for h in ladder if h in vals]
        ys = [np.log(vals[h]) for h in ladder if h in vals]
        _try(name, xs, ys, ratio_to_s0=True)

    fits["s0_quadrature"] = s0
    return fits


def _write_dnls_states(state_dir, lattice_states):
    out = []
    for eta in _eta_order(lattice_states):
        s = lattice_states[eta]
        path = os.path.join(state_dir, f"dnls_eta{eta:+.6g}.npz")
        write_npz(path, eta=s.eta, sigma=s.sigma, e=s.e, f=s.f,
                  residual=s.residual_norm)
        out.append(path)
    return out


def _write_continuum_state(state_dir, hb, eta, cs):
    path = os.path.join(state_dir, f"continuum_h{hb:g}_eta{eta:+.6g}.npz")
    write_npz(path, hbar=hb, eta=eta, lam=cs.lam, gamma=cs.gamma,
              sigma=cs.sigma, phi=cs.phi, c=cs.c, perp_h1=cs.perp_h1,
              residual_h=cs.residual_h)
    return path
