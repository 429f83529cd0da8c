"""Correctness gate for one workload run; needs no stored reference.

For `scan` the gate recomputes, from the files the run wrote:
  * the continuum residual ||H phi + gamma |phi|^{2 sigma} phi - lambda phi||
    of every states/continuum_*.npz with PeriodicDomain.apply_h, against
    1e-9 * max(|lambda|, hbar);
  * the lattice residual of every states/dnls_*.npz, against 1e-10;
  * beta from params.csv against band_hopping of the cached band data,
    to 1e-6 relative;
  * the four S0 estimators in fits.json, against the criterion-4 bands;
and it accounts for every (hbar, eta) point: delivered in continuum.csv or
listed as a gap in fits.json.  For `verify` it parses the printed table:
all 11 criteria must be reported and none but criterion 3 may fail.

The tolerances are written out here rather than imported, so that a change
to the program's own tolerances cannot loosen the gate.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os
import re
from dataclasses import dataclass, field

CONTINUUM_RTOL = 1e-9       # times max(|lambda|, hbar)
LATTICE_TOL = 1e-10
HOPPING_RTOL = 1e-6
# allowed |s0_ratio - 1| per fits.json estimator, as criterion 4 sets them
S0_TOLERANCES = {"hopping_beta": 0.10, "band_width": 0.10,
                 "overlap_a1": 0.10, "pair_l1_u0u1": 0.15}
HASHED_OUTPUTS = ("params.csv", "dnls_ladder.csv", "continuum.csv",
                  "transition.csv", "fits.json")
N_CRITERIA = 11
RED_BY_DESIGN = {3}


@dataclass
class GateResult:
    ok: bool
    attempted: int          # (hbar, eta) points, or criteria for verify
    failed: int             # gaps plus points failing the gate / failed criteria
    problems: list = field(default_factory=list)
    sha256: dict = field(default_factory=dict)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _key(hbar, eta):
    return (round(float(hbar), 12), round(float(eta), 12))


def check_scan(ini_path: str) -> GateResult:
    """Gate the outputs a `semitb scan` run left in its output directory."""
    import numpy as np
    from semitb import cli, dnls, tightbinding
    from semitb.operators import PeriodicDomain, l2_norm

    cfg = cli.parse_config(ini_path)
    out = cfg.output_dir
    problems = []

    points = {_key(h, e) for h in cfg.hbar_ladder for e in cfg.eta_values}
    with open(os.path.join(out, "fits.json"), encoding="utf-8") as fh:
        fits = json.load(fh)
    gaps = {_key(g["hbar"], g["eta"]) for g in fits["gaps"]}
    with open(os.path.join(out, "continuum.csv"), encoding="utf-8") as fh:
        delivered = {_key(r["hbar"], r["eta"]) for r in csv.DictReader(fh)}
    if delivered & gaps:
        problems.append(f"{len(delivered & gaps)} points both delivered and gaps")
    if delivered | gaps != points:
        problems.append(f"{len(points - delivered - gaps)} points unaccounted, "
                        f"{len((delivered | gaps) - points)} unexpected")

    spec = cfg.potential()
    domains = {}
    bad_points = set()
    nonlinear = {p for p in delivered if p[1] != 0.0}
    seen = set()
    for path in sorted(glob.glob(os.path.join(out, "states", "continuum_*.npz"))):
        with np.load(path) as z:
            hb, eta, lam = float(z["hbar"]), float(z["eta"]), float(z["lam"])
            gamma, sigma, phi = float(z["gamma"]), float(z["sigma"]), z["phi"]
        if hb not in domains:
            domains[hb] = PeriodicDomain(spec, hb, cfg.cells, cfg.points_per_cell)
        dom = domains[hb]
        resid = dom.apply_h(phi) + gamma * np.abs(phi) ** (2 * sigma) * phi - lam * phi
        rnorm = l2_norm(dom.dx, resid)
        tol = CONTINUUM_RTOL * max(abs(lam), hb)
        seen.add(_key(hb, eta))
        if not rnorm <= tol:
            bad_points.add(_key(hb, eta))
            problems.append(f"continuum residual {rnorm:.2e} > {tol:.2e} "
                            f"at hbar={hb:g}, eta={eta:g}")
    if seen != nonlinear:
        problems.append(f"{len(nonlinear ^ seen)} continuum state files "
                        "missing or unexpected")

    dnls_files = sorted(glob.glob(os.path.join(out, "states", "dnls_*.npz")))
    if not dnls_files:
        problems.append("no lattice state files")
    for path in dnls_files:
        with np.load(path) as z:
            f, e = z["f"], float(z["e"])
            prob = dnls.DnlsProblem(eta=float(z["eta"]), sigma=float(z["sigma"]),
                                    n_sites=f.size, boundary="zero")
        rnorm = float(np.linalg.norm(dnls.dnls_residual(f, e, prob)))
        if not rnorm <= LATTICE_TOL:
            problems.append(f"lattice residual {rnorm:.2e} in "
                            f"{os.path.basename(path)}")

    cache = cli.BundleCache(cfg.cache_dir)
    with open(os.path.join(out, "params.csv"), encoding="utf-8") as fh:
        beta = {float(r["hbar"]): float(r["beta"]) for r in csv.DictReader(fh)}
    for hb in cfg.hbar_ladder:
        bd = cache.load_bands(cli.config_hash(cfg, hb))
        if bd is None or hb not in beta:
            problems.append(f"no band data or beta at hbar={hb:g}")
            continue
        ref = tightbinding.band_hopping(bd)
        rel = abs(beta[hb] - ref) / abs(ref)
        if not rel <= HOPPING_RTOL:
            problems.append(f"beta off band_hopping by {rel:.1e} at hbar={hb:g}")

    for name, tol in S0_TOLERANCES.items():
        ratio = fits.get(name, {}).get("s0_ratio")
        if ratio is None or not abs(ratio - 1.0) <= tol:
            problems.append(f"S0 estimator {name} = {ratio} (tol {tol:.0%})")

    return GateResult(
        ok=not problems, attempted=len(points),
        failed=len(gaps) + len(bad_points), problems=problems,
        sha256={n: _sha256(os.path.join(out, n)) for n in HASHED_OUTPUTS})


_CRITERION_LINE = re.compile(r"^\[(PASS|FAIL)\] (\d+)\. ")


def check_verify(stdout: str, exit_code: int) -> GateResult:
    """Gate the table `semitb verify` printed."""
    status = {}
    for line in stdout.splitlines():
        m = _CRITERION_LINE.match(line)
        if m:
            status[int(m.group(2))] = m.group(1) == "PASS"
    problems = []
    if sorted(status) != list(range(1, N_CRITERIA + 1)):
        problems.append(f"criteria reported: {sorted(status)}")
    failing = {n for n, ok in status.items() if not ok}
    if failing - RED_BY_DESIGN:
        problems.append(f"criteria failing: {sorted(failing)}")
    if exit_code != (1 if failing else 0):
        problems.append(f"exit code {exit_code} with failing {sorted(failing)}")
    return GateResult(ok=not problems, attempted=N_CRITERIA,
                      failed=N_CRITERIA - sum(status.values()),
                      problems=problems)
