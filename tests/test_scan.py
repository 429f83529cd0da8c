import filecmp
import json
import math

import numpy as np
import pytest

import semitb as st
from semitb.errors import Error
from semitb.scan import Numerics, SweepPlan, fit_exponential_law, run_sweep

ETAS = (0.0, -2.0, -3.0, -8.0, -50.0)
LADDER = (0.25, 0.2, 0.16, 0.125)


@pytest.fixture(scope="module")
def mini_bundles(bundle_factory):
    return {h: bundle_factory(h) for h in LADDER}


def _plan(ref_spec, out_dir=None):
    return SweepPlan(spec=ref_spec, hbar_ladder=LADDER, eta_values=ETAS,
                     sigma=1.0, n_sites=41, numerics=Numerics(delta0=8.0),
                     out_dir=out_dir)


def test_fit_exponential_law_exact():
    xs = np.array([4.0, 5.0, 6.25, 8.0, 10.0])
    ys = -1.8 * xs + 1.0
    fr = fit_exponential_law(xs, ys)
    assert abs(fr.slope + 1.8) < 1e-12
    assert abs(fr.intercept - 1.0) < 1e-12
    assert abs(fr.r2 - 1.0) < 1e-12


def test_fit_exponential_law_errors():
    with pytest.raises(Error):
        fit_exponential_law([1, 2, 3], [1, 2, 3])
    with pytest.raises(Error):
        fit_exponential_law([1.0] * 5, [1, 2, 3, 4, 5])


def test_fit_window_filters_amplitudes():
    xs = np.arange(8.0)
    ys = -xs
    fr = fit_exponential_law(xs, ys, window=(math.exp(-6.5), 1.5))
    assert fr.n_points == 7


def test_plan_validation(ref_spec):
    with pytest.raises(ValueError):
        SweepPlan(spec=ref_spec, hbar_ladder=(0.1, 0.2, 0.3, 0.4),
                  eta_values=ETAS)
    with pytest.raises(ValueError):
        SweepPlan(spec=ref_spec, hbar_ladder=LADDER, eta_values=(-2.0, -8.0))
    with pytest.raises(ValueError):
        SweepPlan(spec=ref_spec, hbar_ladder=(0.25, 0.2, 0.16),
                  eta_values=ETAS)


def test_sweep_report_contents(ref_spec, mini_bundles, tmp_path):
    plan = _plan(ref_spec, out_dir=str(tmp_path / "run"))
    rep = run_sweep(plan, bundles=mini_bundles)
    assert not rep.gaps
    assert len(rep.params_rows) == len(LADDER) * len(ETAS)
    assert len(rep.continuum_rows) == len(LADDER) * len(ETAS)
    assert len(rep.dnls_rows) == len(ETAS)
    assert rep.eta_crossing is not None and 2.0 < rep.eta_crossing < 12.0
    assert abs(rep.s0 - math.sqrt(8.0) * 2 / math.pi) < 1e-10
    for name in ("params.csv", "dnls_ladder.csv", "continuum.csv",
                 "transition.csv", "fits.json"):
        assert any(p.endswith(name) for p in rep.written)
    fits = json.loads((tmp_path / "run" / "fits.json").read_text())
    for key in ("hopping_beta", "band_width", "overlap_a1", "pair_l1_u0u1"):
        assert fits[key]["available"]
    # the four estimators agree pairwise within 20 percent
    ratios = [fits[k]["s0_ratio"] for k in
              ("hopping_beta", "band_width", "overlap_a1", "pair_l1_u0u1")]
    for ri in ratios:
        for rj in ratios:
            assert abs(ri / rj - 1.0) <= 0.2


def test_sweep_determinism(ref_spec, mini_bundles, tmp_path):
    rep1 = run_sweep(_plan(ref_spec, str(tmp_path / "a")), bundles=mini_bundles)
    rep2 = run_sweep(_plan(ref_spec, str(tmp_path / "b")), bundles=mini_bundles)
    for name in ("params.csv", "dnls_ladder.csv", "continuum.csv",
                 "transition.csv", "fits.json"):
        p1 = next(p for p in rep1.written if p.endswith(name))
        p2 = next(p for p in rep2.written if p.endswith(name))
        assert filecmp.cmp(p1, p2, shallow=False), name


def test_sweep_records_gaps_without_aborting(ref_spec, mini_bundles):
    plan = SweepPlan(spec=ref_spec, hbar_ladder=LADDER, eta_values=ETAS,
                     sigma=1.0, n_sites=41, numerics=Numerics(delta0=1e-3),
                     out_dir=None)
    rep = run_sweep(plan, bundles=mini_bundles)
    assert rep.gaps  # every nonlinear point exceeds the tiny budget
    kept = {(r[0], r[1]) for r in rep.continuum_rows}
    assert all(eta == 0.0 for _, eta in kept)


def test_linear_reference_row(ref_spec, mini_bundles):
    rep = run_sweep(_plan(ref_spec), bundles=mini_bundles)
    rows = [r for r in rep.continuum_rows if r[1] == 0.0]
    assert len(rows) == len(LADDER)
    for r in rows:
        assert r[5] == 0.0  # H1 error against the linear reference is zero


def test_participation_monotone_in_eta(ref_spec, mini_bundles):
    rep = run_sweep(_plan(ref_spec), bundles=mini_bundles)
    by_abs_eta = sorted(rep.transition_rows, key=lambda r: abs(r[0]))
    ps = [r[2] for r in by_abs_eta]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(ps, ps[1:]))


def test_gap_fit_regression_value(ref_spec, mini_bundles):
    # desk-scale value of the gap log-log slope; the asymptotic law
    # (slope -> 1) is only reached at much smaller hbar
    rep = run_sweep(_plan(ref_spec), bundles=mini_bundles)
    entry = rep.fits["gap_loglog"]
    assert entry["available"] and entry["r2"] > 0.95
    assert 0.76 <= entry["slope"] <= 0.86
