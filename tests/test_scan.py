import csv
import dataclasses
import filecmp
import gc
import itertools
import json
import math
import os
import types
import weakref

import numpy as np
import pytest

from semitb import nlse
from semitb.cli import _validate
from semitb.dnls import linear_ground_state
from semitb.errors import ConfigError, Error
from semitb.operators import l2_norm
from semitb.wannier import synthesize
from semitb.scan import (CONTINUUM_HEADER, _dnls_ladder, _participation_crossing,
                         continuum_column, fit_exponential_law, run_sweep)

ETAS = (0.0, -2.0, -3.0, -8.0, -50.0)
LADDER = (0.25, 0.2, 0.16, 0.125)


@pytest.fixture(scope="module")
def mini_bundles(bundle_factory):
    return {h: bundle_factory(h) for h in LADDER}


@pytest.fixture(scope="module")
def cfg(ref_cfg):
    return dataclasses.replace(ref_cfg, hbar_ladder=LADDER, eta_values=ETAS)


def test_fit_exponential_law_exact():
    xs = np.array([4.0, 5.0, 6.25, 8.0, 10.0])
    ys = -1.8 * xs + 1.0
    fr = fit_exponential_law(xs, ys)
    assert abs(fr["slope"] + 1.8) < 1e-12
    assert abs(fr["intercept"] - 1.0) < 1e-12
    assert abs(fr["r2"] - 1.0) < 1e-12
    assert fr["n_points"] == 5


def test_fit_exponential_law_matches_polyfit_on_seeded_data():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        xs = 1.0 / np.sort(rng.uniform(0.08, 0.3, n))[::-1]  # 1/hbar of a ladder
        ys = rng.uniform(-2.5, -1.0) * xs + rng.uniform(-3.0, 3.0) + rng.normal(0.0, 0.1, n)
        fr = fit_exponential_law(xs, ys)
        slope, intercept = np.polyfit(xs, ys, 1)
        assert abs(fr["slope"] - slope) <= 1e-12 * abs(slope)
        assert abs(fr["intercept"] - intercept) <= 1e-12 * abs(intercept)


def test_fit_exponential_law_errors():
    with pytest.raises(Error, match=r"fit needs >= 4 points, have 3"):
        fit_exponential_law([1, 2, 3], [1, 2, 3])
    with pytest.raises(Error, match=r"fit needs >= 4 points, have 3"):
        fit_exponential_law([1, 2, 3, 4], [1, 2, np.nan, 4])  # non-finite dropped
    with pytest.raises(Error, match=r"degenerate abscissa spread"):
        fit_exponential_law([1.0] * 5, [1, 2, 3, 4, 5])


def test_continuum_column_reads_rows_by_header_name():
    assert CONTINUUM_HEADER[4:6] == ("perp_h1", "h1_error")
    rows = [[hb, eta, 0, 0, 1e-3 * hb, 2e-3 * hb, 3, 0, 0.9]
            for hb in (0.2, 0.1) for eta in (-2.0, -3.0)]
    assert continuum_column(rows, "perp_h1", -2.0) == {0.2: 2e-4, 0.1: 1e-4}
    assert continuum_column(rows, "h1_error", -3.0 + 1e-13) == {0.2: 4e-4, 0.1: 2e-4}
    assert continuum_column(rows, "iterations", -5.0) == {}


def test_plan_validation(cfg):
    for bad, match in (
            (dict(hbar_ladder=(0.1, 0.2, 0.3, 0.4)), r"sweep\.hbar.*decreasing"),
            (dict(eta_values=(-2.0, -8.0)), r"sweep\.eta.*include 0"),
            (dict(hbar_ladder=(0.25, 0.2, 0.16)), r"sweep\.hbar.*>= 4 points"),
            (dict(cells=13), r"numerics\.cells.*numerics\.lowdin_band = 6")):
        with pytest.raises(ConfigError, match=match):
            _validate(dataclasses.replace(cfg, **bad))
    _validate(dataclasses.replace(cfg, cells=14))


def test_participation_crossing_interpolates_or_is_none():
    # participation falls with |eta|; the crossing of 1.5 sites is
    # interpolated between the last point above it and the first below it
    def states(parts):
        return {eta: types.SimpleNamespace(participation=p) for eta, p in parts.items()}

    assert _participation_crossing(states({0.0: 10.0, -1.0: 3.0, -2.0: 1.2, -5.0: 1.01})) \
        == pytest.approx(1.0 + (3.0 - 1.5) / (3.0 - 1.2))
    # the sort is by |eta|, whatever the sign or the dict order
    assert _participation_crossing(states({-2.0: 1.2, 0.0: 10.0, 1.0: 3.0})) \
        == pytest.approx(1.0 + (3.0 - 1.5) / (3.0 - 1.2))
    assert _participation_crossing(states({0.0: 10.0, -1.0: 3.0, -2.0: 1.6})) is None
    # the eta = 0 state, always first, spans 2(N+1)/3 >= 8/3 sites: never below 1.5
    for n in (3, 4, 21, 41):
        assert linear_ground_state(n).participation == pytest.approx(2 * (n + 1) / 3)


def test_sweep_report_contents(cfg, mini_bundles, tmp_path):
    rep = run_sweep(cfg, mini_bundles.__getitem__, out_dir=str(tmp_path / "run"))
    assert not rep.gaps
    assert len(rep.params_rows) == len(LADDER) * len(ETAS)
    assert len(rep.continuum_rows) == len(LADDER) * len(ETAS)
    for name in ("params.csv", "dnls_ladder.csv", "continuum.csv",
                 "transition.csv", "fits.json"):
        assert any(p.endswith(name) for p in rep.written)
    ladder = (tmp_path / "run" / "dnls_ladder.csv").read_text().splitlines()
    assert len(ladder) == 1 + len(ETAS)
    fits = json.loads((tmp_path / "run" / "fits.json").read_text())
    crossing = fits["transition"]["eta_at_participation_1.5"]
    assert crossing is not None and 2.0 < crossing < 12.0
    assert abs(fits["s0_quadrature"] - math.sqrt(8.0) * 2 / math.pi) < 1e-10
    for key in ("hopping_beta", "band_width", "overlap_a1", "pair_l1_u0u1"):
        assert fits[key]["available"]
    # the four estimators agree pairwise within 20 percent
    ratios = [fits[k]["s0_ratio"] for k in
              ("hopping_beta", "band_width", "overlap_a1", "pair_l1_u0u1")]
    for ri in ratios:
        for rj in ratios:
            assert abs(ri / rj - 1.0) <= 0.2


def test_sweep_holds_one_bundle_at_a_time(cfg, bundle_factory, tmp_path):
    out = tmp_path / "run"
    asked, watched = [], []

    def bundle_of(hb):
        gc.collect()
        assert all(ref() is None for ref in watched), "an earlier bundle is alive"
        for done in asked:  # a finished row has written its states
            for eta in ETAS[1:]:
                assert (out / "states" / f"continuum_h{done:g}_eta{eta:+.6g}.npz").exists()
        asked.append(hb)
        bun = dataclasses.replace(bundle_factory(hb))  # a fresh object to watch
        watched.append(weakref.ref(bun))
        return bun

    run_sweep(cfg, bundle_of, out_dir=str(out))
    assert asked == list(LADDER)


def test_written_order_is_files_then_dnls_then_continuum(cfg, mini_bundles, tmp_path):
    # semitb scan prints one line per written path, in this order
    out = tmp_path / "run"
    rep = run_sweep(cfg, mini_bundles.__getitem__, out_dir=str(out))
    files = [out / name for name in ("params.csv", "dnls_ladder.csv", "continuum.csv",
                                     "transition.csv", "fits.json")]
    dnls = [out / "states" / f"dnls_eta{eta:+.6g}.npz"
            for eta in (-50.0, -8.0, -3.0, -2.0, 0.0)]
    continuum = [out / "states" / f"continuum_h{hb:g}_eta{eta:+.6g}.npz"
                 for hb, eta in sorted(itertools.product(LADDER, ETAS[1:]))]
    assert rep.written == [str(p) for p in files + dnls + continuum]


def test_state_files_hold_exactly_their_keys(cfg, mini_bundles, tmp_path):
    rep = run_sweep(cfg, mini_bundles.__getitem__, out_dir=str(tmp_path / "run"))
    want = {"dnls": {"eta", "sigma", "e", "f", "residual"},
            "continuum": {"hbar", "eta", "lam", "gamma", "sigma", "phi", "c",
                          "perp_h1", "residual_h"}}
    states = {p: os.path.basename(p).split("_")[0]
              for p in rep.written if p.endswith(".npz")}
    assert set(states.values()) == set(want)
    for path, kind in states.items():
        with np.load(path) as z:
            assert set(z.files) == want[kind], path


def test_sweep_determinism(cfg, mini_bundles, tmp_path):
    rep1 = run_sweep(cfg, mini_bundles.__getitem__, out_dir=str(tmp_path / "a"))
    rep2 = run_sweep(cfg, mini_bundles.__getitem__, out_dir=str(tmp_path / "b"))
    for name in ("params.csv", "dnls_ladder.csv", "continuum.csv",
                 "transition.csv", "fits.json"):
        p1 = next(p for p in rep1.written if p.endswith(name))
        p2 = next(p for p in rep2.written if p.endswith(name))
        assert filecmp.cmp(p1, p2, shallow=False), name


def test_sweep_records_gaps_without_aborting(cfg, mini_bundles, tmp_path):
    rep = run_sweep(dataclasses.replace(cfg, delta0=1e-3), mini_bundles.__getitem__,
                    out_dir=str(tmp_path))
    assert rep.gaps  # every nonlinear point exceeds the tiny budget
    kept = {(r[0], r[1]) for r in rep.continuum_rows}
    assert all(eta == 0.0 for _, eta in kept)


def test_linear_reference_row(cfg, mini_bundles, tmp_path):
    rep = run_sweep(cfg, mini_bundles.__getitem__, out_dir=str(tmp_path))
    rows = [r for r in rep.continuum_rows if r[1] == 0.0]
    assert len(rows) == len(LADDER)
    state = _dnls_ladder(cfg)[0][0.0]
    for r in rows:
        assert r[5] == 0.0  # H1 error against the linear reference is zero
        # the delocalized lift (participation 28 sites) spreads its mass
        assert abs(r[8] - 0.0487) < 1e-4 and r[8] < 0.1
        # residual_h is measured on the lift, not assumed
        bun = mini_bundles[r[0]]
        lift = synthesize(bun.wb, nlse.lattice_map(state, bun.wb))
        resid = bun.dom.apply_h(lift) - r[2] * lift
        assert r[7] == l2_norm(bun.dom.dx, resid) > 0.0


def test_participation_monotone_in_eta(cfg, mini_bundles, tmp_path):
    run_sweep(cfg, mini_bundles.__getitem__, out_dir=str(tmp_path))
    with open(tmp_path / "transition.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(ETAS)
    ps = [float(r["P"]) for r in sorted(rows, key=lambda r: abs(float(r["eta"])))]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(ps, ps[1:]))


def test_gap_fit_regression_value(cfg, mini_bundles, tmp_path):
    # desk-scale value of the gap log-log slope; the asymptotic law
    # (slope -> 1) is only reached at much smaller hbar
    rep = run_sweep(cfg, mini_bundles.__getitem__, out_dir=str(tmp_path))
    entry = rep.fits["gap_loglog"]
    assert entry["available"] and entry["r2"] > 0.95
    assert 0.76 <= entry["slope"] <= 0.86
