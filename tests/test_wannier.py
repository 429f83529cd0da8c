import dataclasses

import numpy as np
import pytest

import semitb as st
from semitb.cli import BundleCache
from semitb.errors import BasisError, GaugeError
from semitb.operators import PeriodicDomain, l2_norm
from semitb.potential import action_profile
from semitb.wannier import fix_gauge


def test_gauge_produces_real_positive_wannier(bundle_factory):
    bun = bundle_factory(0.2)
    w = bun.wb.w
    # realness is enforced inside wannier_function; the sign convention is
    # positive at the well peak
    assert w[np.argmax(np.abs(w))] > 0
    assert abs(l2_norm(bun.dom.dx, w) - 1.0) < 1e-10


def test_gauge_idempotent(ref_spec):
    bd = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.2))
    bd1 = fix_gauge(bd)
    bd2 = fix_gauge(bd1)
    assert np.abs(bd2.coeffs[0] - bd1.coeffs[0]).max() < 1e-12


def test_gauge_seed_phase_changes_nothing_but_sign(ref_spec):
    bd = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.2))
    coeffs = bd.coeffs.copy()
    coeffs[0, 0] = coeffs[0, 0] * np.exp(0.7j)
    rotated = dataclasses.replace(bd, coeffs=coeffs)
    dom = PeriodicDomain(ref_spec, 0.2, 32, 64)
    wb_a = st.build_orthonormal_basis(fix_gauge(bd), dom)
    wb_b = st.build_orthonormal_basis(fix_gauge(rotated), dom)
    sign = np.sign(np.sum(wb_a.w * wb_b.w))
    assert np.abs(wb_a.u - sign * wb_b.u).max() < 1e-10
    assert np.abs(wb_a.overlaps - wb_b.overlaps).max() < 1e-10
    tb_a = st.extract_params(wb_a, dom, sigma=1.0, bd=bd)
    tb_b = st.extract_params(wb_b, dom, sigma=1.0, bd=rotated)
    assert abs(tb_a.beta - tb_b.beta) < 1e-10
    assert abs(tb_a.c0 - tb_b.c0) < 1e-10


def test_gauge_rejects_degenerate_band():
    spec = st.free_potential(1.0)
    bd = st.solve_bands(spec, st.FloquetConfig(hbar=0.3, n_pw=41, n_kappa=16,
                                               n_bands=3))
    with pytest.raises(GaugeError):
        fix_gauge(bd)


def test_orthonormality_and_translation_covariance(bundle_factory):
    bun = bundle_factory(0.2)
    wb = bun.wb
    gram = bun.dom.dx * (wb.u @ wb.u.T)
    assert np.abs(gram - np.eye(wb.cells)).max() < 1e-8
    u0 = wb.orbital(0)
    for j in (-5, -1, 2, 7):
        assert np.abs(wb.orbital(j)
                      - np.roll(u0, j * wb.points_per_cell)).max() < 1e-8


def test_dense_lowdin_cross_check(ref_spec):
    # odd cell count, symbol-truncated coefficients vs dense inverse sqrt
    bd = fix_gauge(st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.25, n_kappa=62)))
    dom = PeriodicDomain(ref_spec, 0.25, 31, 64)
    wb = st.build_orthonormal_basis(bd, dom)
    v = np.stack([np.roll(wb.v0, s * wb.points_per_cell) for s in dom.sites])
    gram = dom.dx * (v @ v.T)
    vals, vecs = np.linalg.eigh(gram)
    binv = vecs @ np.diag(vals**-0.5) @ vecs.T
    u_dense = binv @ v
    assert np.abs(u_dense - wb.u).max() < 1e-10


def test_first_band_leakage(bundle_factory, ref_spec):
    bun = bundle_factory(0.16)
    u0 = bun.wb.orbital(0)
    leak = l2_norm(bun.dom.dx, u0 - bun.dom.project_band1(u0))
    assert leak < 1e-6


def test_wannier_function_requires_gauge(ref_spec):
    bd = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.2))
    with pytest.raises(GaugeError):
        st.wannier_function(bd, np.linspace(-4, 4, 512, endpoint=False))


def test_wannier_close_to_oscillator_ground_state(bundle_factory, ref_spec):
    dists = []
    for hb in (0.2, 0.1):
        bun = bundle_factory(hb)
        x, dx = bun.dom.x, bun.dom.dx
        width = np.sqrt(ref_spec.curvature / 2) / (2 * hb)
        g = np.exp(-width * x**2)
        g /= np.sqrt(dx * np.sum(g**2))
        dists.append(l2_norm(dx, bun.wb.w - g))
    assert dists[0] < 0.08 and dists[1] < 0.04
    assert dists[1] < dists[0]


def test_wannier_tail_follows_action_rate(bundle_factory, ref_spec):
    # fitted rate approaches -1 from above as hbar decreases; +-25% at the
    # smallest hbar (the WKB amplitude factor biases the desk-scale fit)
    slopes = []
    for hb in (0.2, 0.16, 0.1):
        bun = bundle_factory(hb)
        d = action_profile(ref_spec, bun.dom.x)
        aw = np.abs(bun.wb.w)
        mask = (aw >= 1e-10) & (aw <= 1e-3)
        slopes.append(np.polyfit(d[mask] / hb, np.log(aw[mask]), 1)[0])
    assert all(abs(b + 1) < abs(a + 1) for a, b in zip(slopes, slopes[1:]))
    assert -1.25 < slopes[-1] < -0.75


def test_overlap_slope_recovers_action(bundle_factory, ref_s0):
    hbars = (0.25, 0.2, 0.16, 0.125, 0.1)
    a1 = [abs(bundle_factory(h).wb.overlaps[1]) for h in hbars]
    slope = -np.polyfit([1 / h for h in hbars], np.log(a1), 1)[0]
    assert 0.9 <= slope / ref_s0 <= 1.1


def test_lowdin_leading_order(bundle_factory):
    for hb in (0.2, 0.1):
        wb = bundle_factory(hb).wb
        a1 = wb.overlaps[1]
        assert abs(wb.lowdin[1] + 0.5 * a1) < 0.01 * abs(a1)


def test_first_band_completeness(bundle_factory):
    bun = bundle_factory(0.16)
    wb, bd, dom = bun.wb, bun.bd, bun.dom
    for i in (4, 20, 50):
        phi = st.bloch_on_grid(bd, 1, bd.kappa[i], dom.x)
        coeffs = dom.dx * (wb.u @ phi)
        total = float(np.sum(np.abs(coeffs) ** 2))
        ref = l2_norm(dom.dx, phi) ** 2
        assert abs(total - ref) / ref < 1e-6


def test_diagnostics_scalings(bundle_factory, ref_s0):
    def diagnostics(hbar):
        bun = bundle_factory(hbar)
        return st.basis_diagnostics(bun.wb, bun.dom)

    d2, d1 = diagnostics(0.2), diagnostics(0.1)
    r = (d2.sup_sum * np.sqrt(0.2)) / (d1.sup_sum * np.sqrt(0.1))
    assert 0.5 <= r <= 2.0
    for d in (d2, d1):
        assert d.pair_l1[2] <= 10 * d.pair_l1[1] ** 2
    hbars = (0.25, 0.2, 0.16, 0.125, 0.1)
    vals = [diagnostics(h).pair_l1[1] for h in hbars]
    slope = -np.polyfit([1 / h for h in hbars], np.log(vals), 1)[0]
    assert 0.85 <= slope / ref_s0 <= 1.15


def test_incommensurate_domain_builds_basis(ref_spec):
    # 24 cells on a 64-point kappa grid: the domain projector seeds the
    # basis, so no kappa point needs to be shared with the domain
    bd = fix_gauge(st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.2)))
    dom = PeriodicDomain(ref_spec, 0.2, 24, 64)
    wb = st.build_orthonormal_basis(bd, dom)
    gram = dom.dx * (wb.u @ wb.u.T)
    assert np.abs(gram - np.eye(wb.cells)).max() < 1e-8
    u0 = wb.orbital(0)
    for j in (-5, -1, 2, 7):
        assert np.abs(wb.orbital(j)
                      - np.roll(u0, j * wb.points_per_cell)).max() < 1e-8
    beta = st.extract_params(wb, dom, sigma=1.0, bd=bd).beta
    ref = st.band_hopping(bd)
    assert abs(beta - ref) / ref < 1e-6


def test_band_domain_mismatch_named(ref_spec):
    bd = fix_gauge(st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.2)))
    with pytest.raises(BasisError, match=r"hbar 0\.2 .* hbar 0\.25"):
        st.build_orthonormal_basis(bd, PeriodicDomain(ref_spec, 0.25, 32, 64))
    wide = st.make_potential("sin2", v0=8.0, a=2.0)
    with pytest.raises(BasisError, match=r"period 1\.0 .* period 2\.0"):
        st.build_orthonormal_basis(bd, PeriodicDomain(wide, 0.2, 32, 64))


def test_small_domain_warns(ref_spec):
    bd = fix_gauge(st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.25, n_kappa=16)))
    with pytest.warns(UserWarning, match="interior"):
        st.build_orthonormal_basis(bd, PeriodicDomain(ref_spec, 0.25, 8, 64),
                                   lowdin_band=3)


def test_basis_bundle_roundtrip(tmp_path, bundle_factory):
    wb = bundle_factory(0.2).wb
    cache = BundleCache(str(tmp_path))
    cache.store_basis("key", wb)
    back = cache.load_basis("key")
    for name in ("w", "v0", "u0", "overlaps", "lowdin"):
        assert np.array_equal(getattr(back, name), getattr(wb, name)), name
    assert np.array_equal(back.u, wb.u)
    assert back.cells == wb.cells and back.lowdin_band == wb.lowdin_band


def test_basis_bundle_version_mismatch(tmp_path, bundle_factory):
    wb = bundle_factory(0.2).wb
    cache = BundleCache(str(tmp_path))
    np.savez(cache.basis_path("key"), version=np.int64(99), w=wb.w, v0=wb.v0,
             u0=wb.u0, overlaps=wb.overlaps, lowdin=wb.lowdin, lowdin_band=6)
    assert cache.load_basis("key") is None


def test_even_and_odd_cell_counts(ref_spec):
    bd = fix_gauge(st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.25, n_kappa=64)))
    wb_even = st.build_orthonormal_basis(bd, PeriodicDomain(ref_spec, 0.25, 32, 32))
    assert wb_even.sites[0] == -15 and wb_even.sites[-1] == 16
    bd_odd = fix_gauge(st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.25, n_kappa=62)))
    wb_odd = st.build_orthonormal_basis(bd_odd,
                                        PeriodicDomain(ref_spec, 0.25, 31, 32))
    assert wb_odd.sites[0] == -15 and wb_odd.sites[-1] == 15
