import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import semitb as st
from conftest import bloch_on_grid, full_zone_eigh, lowdin_parts, orbitals
from semitb.cli import BundleCache
from semitb.errors import BasisError, GaugeError
from semitb.operators import PeriodicDomain, l2_norm
from semitb.potential import action_profile
from semitb.wannier import analyze, fix_gauge, synthesize


def _plane_wave_w1(bd, dom):
    """W1 from the plane-wave Bloch functions of bd on the grid of dom.

    The reference construction the domain gauge replaced: the band-1
    functions at every kappa of bd, parallel transported along the grid
    by the overlaps of their periodic parts over one cell, the closure
    winding to kappa_0 + b spread evenly, then the zone average, made
    real by one global phase and positive at its peak, with unit norm.
    """
    cell = dom.x[:dom.points_per_cell]
    periodic = np.stack([bloch_on_grid(dom.spec, bd.hbar, 1, k, cell)
                         * np.exp(-1j * k * cell) for k in bd.kappa])
    links = np.sum(np.conj(periodic[:-1]) * periodic[1:], axis=1)
    assert np.abs(links).min() / np.sum(np.abs(periodic[0]) ** 2) > 0.99
    periodic[1:] *= np.cumprod(np.conj(links) / np.abs(links))[:, None]
    closure = np.vdot(periodic[-1], np.exp(-1j * bd.b * cell) * periodic[0])
    periodic *= np.exp(1j * np.angle(closure) * np.arange(bd.kappa.size)
                       / bd.kappa.size)[:, None]
    w = np.mean(np.exp(1j * np.outer(bd.kappa, dom.x))
                * np.tile(periodic, dom.cells), axis=0)
    w *= np.exp(-0.5j * np.angle(np.sum(w**2)))
    w *= np.sign(w.real[np.argmax(np.abs(w))])
    assert np.abs(w.imag).max() < 1e-8 * np.abs(w).max()
    return w.real / l2_norm(dom.dx, w.real)


def test_gauge_produces_real_positive_wannier(bundle_factory):
    bun = bundle_factory(0.2)
    w = bun.wb.w
    # realness is enforced inside fix_gauge; the sign convention is
    # positive at the well peak, which lies in the cell of site 0
    peak = np.argmax(np.abs(w))
    assert w[peak] > 0 and abs(bun.dom.x[peak]) < 0.5 * bun.dom.spec.a
    assert abs(l2_norm(bun.dom.dx, w) - 1.0) < 1e-10


@pytest.mark.parametrize("hbar", [0.25, 0.2, 0.16, 0.125, 0.1])
def test_w1_matches_plane_wave_reference(bundle_factory, hbar):
    bun = bundle_factory(hbar)
    ref = _plane_wave_w1(bun.bd, bun.dom)
    assert np.abs(bun.wb.w - ref).max() <= 1e-12


def test_w1_of_the_edge_well_matches_plane_wave_reference(edge_spec):
    # the well at the grid's cell edges: the gauge is signs alone
    hb = 0.25
    dom = PeriodicDomain(edge_spec, hb, 32, 64)
    bd = st.solve_bands(edge_spec, st.FloquetConfig(hbar=hb))
    w = fix_gauge(dom)
    peak = np.argmax(np.abs(w))
    assert w[peak] > 0 and dom.x[peak] == edge_spec.x0
    assert np.abs(w - _plane_wave_w1(bd, dom)).max() <= 1e-12


def _with_band1(dom, vecs):
    """A copy of dom whose band-1 vectors are the first cells//2 + 1 rows of
    the real vecs."""
    out = copy.copy(dom)
    out.block_evecs = dom.block_evecs.copy()
    out.block_evecs[:, :, 0] = vecs[:len(dom.block_evecs)]
    return out


def test_gauge_idempotent(ref_spec, edge_spec):
    # the block vectors of W1, moved back by the whole cells that took it
    # onto the site-0 well, are the gauge-fixed band-1 vectors: real for
    # the well at the grid's cell edges, and turned by the spread Zak phase
    # exp(-i pi r / cells) for the well half a cell from them; the gauge
    # leaves their signs as they are
    for spec, zak in ((edge_spec, 0.0), (ref_spec, np.pi)):
        dom = PeriodicDomain(spec, 0.2, 32, 64)
        w = fix_gauge(dom)
        unwind = np.exp(1j * zak * np.arange(dom.cells) / dom.cells)[:, None]
        moved = [unwind * np.fft.fft(np.roll(w, s * dom.points_per_cell))
                 [dom.block_index] for s in dom.sites]
        gauged = min(moved, key=lambda blocks: np.abs(blocks.imag).max())
        assert np.abs(gauged.imag).max() <= 1e-13 * np.abs(gauged).max()
        gauged = gauged.real / np.linalg.norm(gauged.real, axis=1, keepdims=True)
        assert np.abs(fix_gauge(_with_band1(dom, gauged)) - w).max() < 1e-12


@pytest.fixture(scope="module")
def dom_02(ref_spec):
    return PeriodicDomain(ref_spec, 0.2, 32, 64)


@pytest.fixture(scope="module")
def band1_02(dom_02):
    """Real band-1 vectors of blocks 0..cells//2 from the full-zone
    reference eigh, each turned by the phase of its largest entry."""
    vecs = full_zone_eigh(dom_02)[1][:dom_02.cells // 2 + 1, :, 0]
    top = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=1)[:, None], axis=1)
    vecs = vecs * np.conj(top) / np.abs(top)
    assert np.abs(vecs.imag).max() <= 1e-13
    return vecs.real


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(flips=hst.lists(hst.booleans(), min_size=17, max_size=17))
def test_gauge_seed_phase_changes_nothing_but_sign(dom_02, band1_02, flips):
    # the seed vectors come from an eigensolver of their own, the sign of
    # each block flipped at random
    w = fix_gauge(dom_02)
    turned = band1_02 * np.where(flips, -1.0, 1.0)[:, None]
    w_turned = fix_gauge(_with_band1(dom_02, turned))
    sign = np.sign(np.sum(w * w_turned))
    assert np.abs(w - sign * w_turned).max() <= 1e-12


def test_gauge_rejects_degenerate_band():
    # free band-1 vectors jump from mode m = 0 to m = -1 at half the zone
    dom = PeriodicDomain(st.free_potential(1.0), 0.3, 16, 16)
    with pytest.raises(GaugeError):
        fix_gauge(dom)


def _orbital(wb, site):
    """u_site, synthesized from the unit amplitude on that site."""
    return synthesize(wb, (wb.sites == site).astype(float))


def test_orthonormality_and_translation_covariance(bundle_factory):
    bun = bundle_factory(0.2)
    wb = bun.wb
    u = orbitals(wb)
    gram = bun.dom.dx * (u @ u.T)
    assert np.abs(gram - np.eye(wb.cells)).max() < 1e-8
    for j in (-5, -1, 2, 7):
        assert np.abs(_orbital(wb, j)
                      - np.roll(wb.u0, j * wb.points_per_cell)).max() < 1e-8


@pytest.mark.parametrize("cells, ppc", [(32, 64), (31, 33)])
def test_synthesis_and_analysis_match_rolled_orbitals(ref_spec, cells, ppc):
    dom = PeriodicDomain(ref_spec, 0.25, cells, ppc)
    wb = st.build_orthonormal_basis(dom, fix_gauge(dom), lowdin_band=4)
    u, rng = orbitals(wb), np.random.default_rng(5)
    c, f = rng.standard_normal(cells), rng.standard_normal(dom.n)
    ref = u.T @ c
    assert np.abs(synthesize(wb, c) - ref).max() <= 1e-14 * np.abs(ref).max()
    ref = dom.dx * (u @ f)
    assert np.abs(analyze(wb, dom.dx, f) - ref).max() <= 1e-14 * np.abs(ref).max()


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(hbar=hst.sampled_from([0.25, 0.2, 0.16, 0.125, 0.1]), data=hst.data())
def test_orbitals_are_translates_on_drawn_lags(bundle_factory, hbar, data):
    # u_{j+ell} is u_j moved by ell whole cells, for every site pair on the ring
    wb = bundle_factory(hbar).wb
    lo, hi = int(wb.sites[0]), int(wb.sites[-1])
    j = data.draw(hst.integers(lo, hi), label="site")
    ell = data.draw(hst.integers(lo - j, hi - j), label="lag")
    moved = np.roll(_orbital(wb, j), ell * wb.points_per_cell)
    assert np.abs(_orbital(wb, j + ell) - moved).max() <= 1e-14 * np.abs(moved).max()


def test_dense_lowdin_cross_check(ref_spec):
    # odd cell count, symbol-truncated coefficients vs dense inverse sqrt
    dom = PeriodicDomain(ref_spec, 0.25, 31, 64)
    wb = st.build_orthonormal_basis(dom, fix_gauge(dom))
    v0, _ = lowdin_parts(dom)
    v = np.stack([np.roll(v0, s * wb.points_per_cell) for s in dom.sites])
    gram = dom.dx * (v @ v.T)
    vals, vecs = np.linalg.eigh(gram)
    binv = vecs @ np.diag(vals**-0.5) @ vecs.T
    u_dense = binv @ v
    assert np.abs(u_dense - orbitals(wb)).max() < 1e-10


def test_first_band_leakage(bundle_factory, ref_spec):
    bun = bundle_factory(0.16)
    u0 = bun.wb.u0
    leak = l2_norm(bun.dom.dx, u0 - bun.dom.project_band1(u0))
    assert leak < 1e-6


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
        bun = bundle_factory(hb)
        a1 = bun.wb.overlaps[1]
        lowdin = lowdin_parts(bun.dom)[1]
        assert abs(lowdin[1] + 0.5 * a1) < 0.01 * abs(a1)


def test_first_band_completeness(bundle_factory):
    bun = bundle_factory(0.16)
    wb, bd, dom = bun.wb, bun.bd, bun.dom
    for i in (4, 20, 50):
        phi = bloch_on_grid(dom.spec, bd.hbar, 1, bd.kappa[i], dom.x)
        coeffs = analyze(wb, dom.dx, phi)
        total = float(np.sum(np.abs(coeffs) ** 2))
        ref = l2_norm(dom.dx, phi) ** 2
        assert abs(total - ref) / ref < 1e-6


def test_diagnostics_scalings(bundle_factory, ref_s0):
    def sup_sum(hbar):
        # sup_x sum_j |u_j(x)|
        return float(np.abs(orbitals(bundle_factory(hbar).wb)).sum(axis=0).max())

    def pair_l1(hbar, ell):
        bun = bundle_factory(hbar)
        return st.pair_overlap_l1(bun.wb, bun.dom.dx, ell)

    r = (sup_sum(0.2) * np.sqrt(0.2)) / (sup_sum(0.1) * np.sqrt(0.1))
    assert 0.5 <= r <= 2.0
    for hb in (0.2, 0.1):
        assert pair_l1(hb, 2) <= 10 * pair_l1(hb, 1) ** 2
    hbars = (0.25, 0.2, 0.16, 0.125, 0.1)
    vals = [pair_l1(h, 1) for h in hbars]
    slope = -np.polyfit([1 / h for h in hbars], np.log(vals), 1)[0]
    assert 0.85 <= slope / ref_s0 <= 1.15


def test_incommensurate_domain_builds_basis(ref_spec):
    # 24 cells on a 64-point kappa grid: the domain projector seeds the
    # basis, so no kappa point needs to be shared with the domain
    bd = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.2))
    dom = PeriodicDomain(ref_spec, 0.2, 24, 64)
    wb = st.build_orthonormal_basis(dom, fix_gauge(dom))
    u = orbitals(wb)
    gram = dom.dx * (u @ u.T)
    assert np.abs(gram - np.eye(wb.cells)).max() < 1e-8
    for j in (-5, -1, 2, 7):
        assert np.abs(_orbital(wb, j)
                      - np.roll(wb.u0, j * wb.points_per_cell)).max() < 1e-8
    beta = st.extract_params(wb, dom, sigma=1.0, bd=bd).beta
    ref = st.band_hopping(bd)
    assert abs(beta - ref) / ref < 1e-6


def test_band_domain_mismatch_named(bundle_factory, ref_spec):
    bun = bundle_factory(0.25)
    bd = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.2))
    with pytest.raises(BasisError, match=r"hbar 0\.2 .* hbar 0\.25"):
        st.extract_params(bun.wb, bun.dom, sigma=1.0, bd=bd)
    wide = st.make_potential("sin2", v0=8.0, a=2.0)
    with pytest.raises(BasisError, match=r"period 1\.0 .* period 2\.0"):
        st.extract_params(bun.wb, PeriodicDomain(wide, 0.2, 32, 64), sigma=1.0,
                          bd=bd)


def test_small_domain_warns(ref_spec):
    dom = PeriodicDomain(ref_spec, 0.25, 8, 64)
    with pytest.warns(UserWarning, match="interior"):
        st.build_orthonormal_basis(dom, fix_gauge(dom), lowdin_band=3)


def test_basis_bundle_roundtrip(tmp_path, bundle_factory):
    wb = bundle_factory(0.2).wb
    cache = BundleCache(str(tmp_path))
    cache.store_basis("key", wb)
    back = cache.load_basis("key")
    for name in ("w", "u0", "overlaps"):
        assert np.array_equal(getattr(back, name), getattr(wb, name)), name
    assert back.cells == wb.cells


def test_basis_bundle_version_mismatch(tmp_path, bundle_factory):
    wb = bundle_factory(0.2).wb
    cache = BundleCache(str(tmp_path))
    np.savez(cache.basis_path("key"), version=np.int64(99), w=wb.w, u0=wb.u0,
             overlaps=wb.overlaps)
    assert cache.load_basis("key") is None


def test_even_and_odd_cell_counts(ref_spec):
    def basis(cells, ppc):
        dom = PeriodicDomain(ref_spec, 0.25, cells, ppc)
        return dom, st.build_orthonormal_basis(dom, fix_gauge(dom))

    wb_even = basis(32, 32)[1]
    assert wb_even.sites[0] == -15 and wb_even.sites[-1] == 16
    wb_odd = basis(31, 32)[1]
    assert wb_odd.sites[0] == -15 and wb_odd.sites[-1] == 15
    # an odd count of cells or points gives block rows whose plane-wave
    # indices m do not all start at the same position; W1 still matches
    # the plane-wave reference
    bd = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.25))
    for cells, ppc in ((31, 32), (32, 33), (31, 33)):
        dom, wb = basis(cells, ppc)
        assert np.abs(wb.w - _plane_wave_w1(bd, dom)).max() <= 1e-12
