import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from conftest import EDGE_COEFFS, REF_CFG, bloch_on_grid

import semitb as st
from semitb.bloch import _floquet_diagonal, _floquet_eig, _tridiagonal_lowest
from semitb.cli import BundleCache, cmd_bands
from semitb.scan import band_data


def test_free_particle_bands_exact():
    # the numerics of verify check 1: with no off-diagonal, a probe on the
    # diagonal would divide 0 by 0, and the solve must raise no numpy
    # floating-point warning
    spec = st.free_potential(1.0)
    cfg = st.FloquetConfig(hbar=0.3, n_pw=41, n_kappa=16, n_bands=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd = st.solve_bands(spec, cfg)
    for i, k in enumerate(bd.kappa):
        exact = np.sort((0.3 * (k + bd.b * bd.modes)) ** 2)[:6]
        assert np.abs(bd.energies[:, i] - exact).max() <= 1e-10


def test_free_bands_touch_at_crossings():
    spec = st.free_potential(1.0)
    bd = st.solve_bands(spec, st.FloquetConfig(hbar=0.3, n_pw=41, n_kappa=16,
                                               n_bands=4))
    assert st.band_metrics(bd, 1)["gap_above"] <= 1e-12


def test_band_symmetry_and_ordering(bundle_factory):
    bd = bundle_factory(0.2).bd
    # kappa grid contains +k and -k pairs away from the zone edge
    for i in range(1, bd.kappa.size // 2):
        j = bd.kappa.size - i
        assert np.abs(bd.energies[:, i] - bd.energies[:, j]).max() < 1e-10
    for n in range(1, bd.n_bands):
        assert bd.band_edges(n)[1] <= bd.band_edges(n + 1)[0] + 1e-12


def test_harmonic_bottom_edge_shallow_well():
    spec = st.make_potential("sin2", v0=1.0, a=1.0)
    consts = []
    for hb in (0.2, 0.1, 0.05):
        bd = st.solve_bands(spec, st.FloquetConfig(hbar=hb))
        alpha1 = bd.band_edges(1)[0]
        consts.append(abs(alpha1 - np.pi * hb) / hb**2)
    assert max(consts) / min(consts) < 2.2
    assert all(2.0 < c < 6.0 for c in consts)


def test_gap_over_hbar_bounded_shallow_well():
    spec = st.make_potential("sin2", v0=1.0, a=1.0)
    ratios = []
    for hb in (0.2, 0.1):
        bd = st.solve_bands(spec, st.FloquetConfig(hbar=hb))
        ratios.append(st.band_metrics(bd, 1)["gap_above"] / hb)
    assert all(1.5 < r < 8.0 for r in ratios)
    assert 0.5 <= ratios[0] / ratios[1] <= 2.0


def test_width_slope_recovers_action_shallow_well():
    spec = st.make_potential("sin2", v0=1.0, a=1.0)
    s0 = st.tunneling_action(spec)
    hbars = (0.25, 0.2, 0.15, 0.125, 0.1)
    widths = []
    for hb in hbars:
        bd = st.solve_bands(spec, st.FloquetConfig(hbar=hb))
        widths.append(st.band_metrics(bd, 1)["width"])
    slope = -np.polyfit([1 / h for h in hbars], np.log(widths), 1)[0]
    assert 0.9 <= slope / s0 <= 1.1


def test_band_edges_at_zone_center_or_boundary(ref_spec):
    bd = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.2, n_kappa=128))
    idx = int(np.argmin(bd.energies[0]))
    k = bd.kappa[idx]
    assert min(abs(k), abs(abs(k) - bd.b / 2)) < 1e-9


def test_first_band_nondegenerate(bundle_factory):
    for hb in (0.25, 0.1):
        bun = bundle_factory(hb)
        assert bun.gap1 > 10 * bun.width1


def test_bloch_on_grid_norm_and_conjugation(bundle_factory):
    bd = bundle_factory(0.2).bd
    x = np.arange(256) / 256  # one cell
    dx = 1.0 / 256
    k = bd.kappa[5]
    phi = bloch_on_grid(bd, 1, k, x)
    assert abs(dx * np.sum(np.abs(phi) ** 2) - 1.0) < 1e-10
    phim = bloch_on_grid(bd, 1, -k, x)
    ov = dx * np.sum(np.conj(phim) * np.conj(phi))
    assert abs(abs(ov) - 1.0) < 1e-10


def test_bloch_kappa_folding(bundle_factory):
    # kappa and kappa + b solve two mode-shifted matrices; they give the same
    # Bloch function up to the phase each eigenvector comes back with
    bd = bundle_factory(0.2).bd
    x = np.linspace(-2, 2, 101)
    k = bd.kappa[9] + 0.31 * (bd.kappa[1] - bd.kappa[0])  # off the solved grid
    shifted, phi = (bloch_on_grid(bd, 1, kk, x) for kk in (k + bd.b, k))
    phase = np.vdot(phi, shifted) / np.vdot(phi, phi)
    assert abs(abs(phase) - 1.0) < 1e-10
    assert np.abs(shifted - phase * phi).max() < 1e-10


def test_plane_wave_count_saturated(ref_spec):
    e1 = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.1)).energies[0]
    e2 = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.1, n_pw=259)).energies[0]
    assert np.abs(e1 - e2).max() < 1e-10


def test_truncation_warning_fires():
    spec = st.make_potential("sin2", v0=8.0, a=1.0)
    with pytest.warns(UserWarning, match="n_pw"):
        st.solve_bands(spec, st.FloquetConfig(hbar=0.05, n_pw=19, n_bands=5,
                                              n_kappa=8))


def test_config_validation():
    with pytest.raises(ValueError):
        st.FloquetConfig(hbar=-0.1)
    with pytest.raises(ValueError):
        st.FloquetConfig(hbar=0.1, n_pw=128)  # even
    with pytest.raises(ValueError):
        st.FloquetConfig(hbar=0.1, n_pw=15, n_bands=5)  # too small
    with pytest.raises(ValueError):
        st.FloquetConfig(hbar=0.1, n_kappa=63)  # odd
    with pytest.raises(ValueError, match="n_bands"):
        st.FloquetConfig(hbar=0.1, n_bands=1)  # no first gap


def test_band_csv_shape(tmp_path, ref_cfg, bundle_factory):
    bd = bundle_factory(0.2).bd
    cfg = dataclasses.replace(ref_cfg, hbar_ladder=(0.2,), output_dir=str(tmp_path),
                              cache_dir=str(tmp_path / "cache"))
    cmd_bands(cfg)
    lines = (tmp_path / "bands_h0.2.csv").read_text().splitlines()
    assert lines[0] == "n,kappa,E"
    assert len(lines) == 1 + bd.n_bands * bd.kappa.size
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(table[:, 0], np.repeat(np.arange(1, bd.n_bands + 1),
                                                 bd.kappa.size))
    assert np.array_equal(table[:, 1], np.tile(bd.kappa, bd.n_bands))
    assert np.array_equal(table[:, 2], bd.energies.ravel())


def test_bundle_roundtrip(tmp_path, bundle_factory):
    bd = bundle_factory(0.2).bd
    cache = BundleCache(str(tmp_path))
    cache.store_bands("key", bd)
    back = cache.load_bands("key")
    assert np.array_equal(back.energies, bd.energies)
    assert np.array_equal(back.band, bd.band)


def test_bundle_version_mismatch(tmp_path, bundle_factory):
    bd = bundle_factory(0.2).bd
    cache = BundleCache(str(tmp_path))
    np.savez(cache.band_path("key"), version=np.int64(999), a=bd.a,
             hbar=bd.hbar, kappa=bd.kappa, energies=bd.energies, band=bd.band)
    assert cache.load_bands("key") is None


def _sturm_lowest(diag, off, dps=40):
    """Lowest eigenvalue of a real symmetric tridiagonal matrix with constant
    off-diagonal, by Sturm-sequence bisection in mpmath arithmetic."""
    with mpmath.workdps(dps):
        d = [mpmath.mpf(x) for x in diag]
        e2 = mpmath.mpf(off) ** 2
        tiny = mpmath.mpf(10) ** (-2 * dps)  # stands in for an exact zero pivot

        def below(x):  # eigenvalues < x: negative pivots of LDL^T of T - x
            count, q = 0, d[0] - x
            for di in d[1:]:
                count += q < 0
                q = di - x - e2 / (q or tiny)
            return count + (q < 0)

        hi = min(d)  # Rayleigh quotient of a unit vector
        lo = hi - 2 * abs(mpmath.mpf(off))  # Gershgorin
        assert below(lo) == 0 and below(hi) >= 1
        while hi - lo > mpmath.mpf(10) ** (-dps + 5) * abs(hi):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) >= 1 else (mid, hi)
        return (lo + hi) / 2


@pytest.mark.parametrize("hbar", REF_CFG.hbar_ladder)
def test_band_width_matches_high_precision_sturm(ref_cfg, hbar):
    # the exact sin2 Floquet matrix at a = 1: V0/2 + hbar^2 (kappa + 2 pi m)^2 on
    # the diagonal and -V0/4 beside it; band 1 has its edges at kappa = 0, -pi
    assert (ref_cfg.family, ref_cfg.a) == ("sin2", 1.0), \
        "the Sturm oracle is written for the sin2 lattice of period 1"
    bd = band_data(ref_cfg, hbar)
    v0, m = ref_cfg.v0, [int(k) for k in bd.modes]
    edges = []
    for kappa in (mpmath.mpf(0), -mpmath.pi):
        with mpmath.workdps(40):
            diag = [v0 / 2 + mpmath.mpf(hbar) ** 2 * (kappa + 2 * mpmath.pi * k) ** 2
                    for k in m]
        edges.append(_sturm_lowest(diag, -v0 / 4))
    # each edge within 4 ulp of the 40-digit one (measured: at most 4, at hbar 0.1)
    mid = bd.kappa.size // 2
    assert bd.kappa[0] == -np.pi and bd.kappa[mid] == 0
    got = bd.energies[0, [mid, 0]]
    assert _ulps(got, np.array([float(e) for e in edges])) <= 4
    with mpmath.workdps(40):
        want = float(abs(edges[0] - edges[1]))
    got = st.band_metrics(bd, 1)["width"]
    assert abs(got - want) <= 1e-8 * want


def _ulps(got, want):
    """Largest |got - want| in units in the last place of want."""
    return float((np.abs(got - want) / np.spacing(np.abs(want))).max())


def _banded_reference(bd):
    """eig_banded at every kappa of bd, energies[n, i] as in the BandData."""
    return np.array([_floquet_eig(bd, k, (0, bd.n_bands - 1))
                     for k in bd.kappa]).T


@pytest.mark.parametrize("hbar", REF_CFG.hbar_ladder)
def test_tridiagonal_bands_match_eig_banded(ref_cfg, hbar):
    # at hbar = 0.125 some Sturm pivots are exactly zero; they must count
    # right without a numpy floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd = band_data(ref_cfg, hbar)
    assert bd.band.shape[0] == 2
    # measured: at most 4 ulp at every kappa of the ladder
    assert _ulps(bd.energies, _banded_reference(bd)) <= 4
    # the half kappa_{n/2+1} .. kappa_{n-1} is mirrored from -kappa; solved
    # there directly it agrees to the same 4 ulp
    half = bd.kappa.size // 2 + 1
    direct = _tridiagonal_lowest(_floquet_diagonal(bd, bd.kappa[half:]),
                                 bd.band[1, 0] ** 2, bd.n_bands).T
    assert _ulps(bd.energies[:, half:], direct) <= 4


def _eigh_reference(spec, cfg):
    """Full-spectrum dense eigh of every Floquet block."""
    modes = np.arange(cfg.n_pw) - cfg.n_pw // 2
    vhat = _looped_fourier(spec, cfg.n_pw - 1)
    vblock = vhat[modes[:, None] - modes[None, :] + cfg.n_pw - 1]
    b = 2 * np.pi / spec.a
    kappa = -b / 2 + b * np.arange(cfg.n_kappa) / cfg.n_kappa
    return [np.linalg.eigh(vblock + np.diag(cfg.hbar**2 * (k + b * modes) ** 2))
            for k in kappa]


_SPECS = {
    "sin2": (lambda: st.make_potential("sin2", v0=8.0, a=1.0), 1),
    "cos-series-2": (lambda: st.make_potential("cos-series", a=1.0,
                                               coeffs=[4.0, 1.0]), 2),
    "cos-series-3": (lambda: st.make_potential("cos-series", a=1.0,
                                               coeffs=[4.0, 1.0, 0.5]), 3),
    # c1 < 0: the well at the cell edge
    "cos-series-edge": (lambda: st.make_potential("cos-series", a=1.0,
                                                  coeffs=EDGE_COEFFS), 3),
    "free": (lambda: st.free_potential(1.0), 0),
}


@pytest.mark.parametrize("family", sorted(_SPECS))
def test_solver_agrees_with_full_eigh_at_every_bandwidth(family):
    make, want_k = _SPECS[family]
    spec = make()
    cfg = st.FloquetConfig(hbar=0.2, n_pw=41, n_kappa=8, n_bands=5)
    bd = st.solve_bands(spec, cfg)
    assert bd.band.shape[0] == want_k + 1
    scale = np.abs(bd.energies).max()
    # 64 points over one cell resolve the 41 modes exactly, so the grid sum
    # is the plane-wave inner product
    x = spec.a * np.arange(64) / 64
    for i, (w, u) in enumerate(_eigh_reference(spec, cfg)):
        assert np.abs(bd.energies[:, i] - w[:cfg.n_bands]).max() <= 1e-11 * scale
        waves = np.exp(1j * np.outer(x, bd.kappa[i] + bd.b * bd.modes))
        for n in range(cfg.n_bands):
            # the free bands are degenerate at kappa = 0 and -pi, so each
            # Bloch function is compared with the whole reference eigenspace
            space = waves @ u[:, np.abs(w - bd.energies[n, i]) <= 1e-9 * scale]
            phi = bloch_on_grid(bd, n + 1, bd.kappa[i], x) * np.sqrt(spec.a)
            assert np.linalg.norm(space.conj().T @ phi) / 64 >= 1 - 1e-12


# V0 = 7.615339, a benchmark draw, once lost an ulp of vhat_0 to sampling
@pytest.mark.parametrize("v0", [8.0, 7.615339])
def test_sin2_coefficients_are_exact(v0):
    spec = st.make_potential("sin2", v0=v0, a=1.0)
    band = st.solve_bands(spec, st.FloquetConfig(hbar=0.2, n_pw=41, n_kappa=8)).band
    # the diagonal and the first subdiagonal of the Toeplitz block
    assert band.dtype == float and np.array_equal(band[:, 0], [v0 / 2, -v0 / 4])


def _looped_fourier(spec, kmax):
    """The even coefficient vector of spec, indexed by k + kmax for
    |k| <= kmax, one mode at a time."""
    out = np.zeros(2 * kmax + 1)
    for k, c in enumerate(spec.vhat[:kmax + 1]):
        out[kmax + k] = c
        out[kmax - k] = c
    return out


@pytest.mark.parametrize("make, want_k", [
    (lambda: st.make_potential("sin2", v0=8.0, a=1.0), 1),
    (lambda: st.make_potential("cos-series", a=1.0, coeffs=[4.0, 1.0, 0.5]), 3),
    (lambda: st.make_potential("cos-series", a=1.0, coeffs=EDGE_COEFFS), 3),
    (lambda: st.free_potential(1.0), 0),
], ids=["sin2", "cos-series-3", "cos-series-edge", "free"])
def test_band_storage_is_the_toeplitz_block_diagonals(make, want_k):
    spec = make()
    cfg = st.FloquetConfig(hbar=0.2, n_pw=129, n_kappa=8)
    vhat = _looped_fourier(spec, cfg.n_pw - 1)
    modes = np.arange(cfg.n_pw)
    vblock = vhat[modes[:, None] - modes[None, :] + cfg.n_pw - 1]
    want = np.array([np.pad(np.diagonal(vblock, -d), (0, d))
                     for d in range(want_k + 1)])
    band = st.solve_bands(spec, cfg).band
    assert band.dtype == want.dtype and np.array_equal(band, want)
