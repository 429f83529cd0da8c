import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from conftest import EDGE_COEFFS, REF_CFG, bloch_on_grid

import semitb as st
from semitb.bloch import _floquet_eig, _tridiagonal_lowest, floquet_band
from semitb.cache import CACHE_VERSION
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
    modes = np.arange(41) - 20
    for i, k in enumerate(bd.kappa):
        exact = np.sort((0.3 * (k + bd.b * modes)) ** 2)[:6]
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


def test_bloch_on_grid_norm_and_conjugation(ref_spec):
    x = np.arange(256) / 256  # one cell
    dx = 1.0 / 256
    k = -np.pi + 5 * 2 * np.pi / REF_CFG.n_kappa
    phi = bloch_on_grid(ref_spec, 0.2, 1, k, x)
    assert abs(dx * np.sum(np.abs(phi) ** 2) - 1.0) < 1e-10
    phim = bloch_on_grid(ref_spec, 0.2, 1, -k, x)
    ov = dx * np.sum(np.conj(phim) * np.conj(phi))
    assert abs(abs(ov) - 1.0) < 1e-10


def test_bloch_kappa_folding(bundle_factory):
    # kappa and kappa + b solve two mode-shifted matrices; they give the same
    # Bloch function up to the phase each eigenvector comes back with
    bun = bundle_factory(0.2)
    bd = bun.bd
    x = np.linspace(-2, 2, 101)
    k = bd.kappa[9] + 0.31 * (bd.kappa[1] - bd.kappa[0])  # off the solved grid
    shifted, phi = (bloch_on_grid(bun.dom.spec, bd.hbar, 1, kk, x)
                    for kk in (k + bd.b, k))
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
    # the band bundle holds the energies on the kappa grid and nothing else
    with np.load(cache.band_path("key")) as z:
        assert z.files == ["version", "a", "hbar", "kappa", "energies"]
    back = cache.load_bands("key")
    assert (back.a, back.hbar) == (bd.a, bd.hbar)
    assert np.array_equal(back.kappa, bd.kappa)
    assert np.array_equal(back.energies, bd.energies)


def test_bundle_with_band_storage_is_served(tmp_path, ref_spec, bundle_factory):
    # a bundle that also holds the Floquet band storage, as version 12 once
    # wrote, is served: the extra member is not read
    bd = bundle_factory(0.2).bd
    cache = BundleCache(str(tmp_path))
    np.savez(cache.band_path("key"), version=np.int64(CACHE_VERSION), a=bd.a,
             hbar=bd.hbar, kappa=bd.kappa, energies=bd.energies,
             band=floquet_band(ref_spec, REF_CFG.n_pw))
    back = cache.load_bands("key")
    assert np.array_equal(back.energies, bd.energies)
    assert np.array_equal(back.kappa, bd.kappa)


def test_bundle_version_mismatch(tmp_path, bundle_factory):
    bd = bundle_factory(0.2).bd
    cache = BundleCache(str(tmp_path))
    np.savez(cache.band_path("key"), version=np.int64(999), a=bd.a,
             hbar=bd.hbar, kappa=bd.kappa, energies=bd.energies)
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
    v0, m = ref_cfg.v0, range(-(ref_cfg.n_pw // 2), ref_cfg.n_pw // 2 + 1)
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


def _diagonals(band, bd, kappa):
    """Row i: the diagonal of the Floquet matrix with band storage band, at
    the hbar and period of bd, at kappa[i]."""
    modes = np.arange(band.shape[1]) - band.shape[1] // 2
    return band[0] + bd.hbar**2 * np.add.outer(kappa, bd.b * modes) ** 2


def _banded_reference(band, bd):
    """eig_banded at every kappa of bd, energies[n, i] as in the BandData."""
    return np.array([_floquet_eig(band, d, (0, bd.n_bands - 1))
                     for d in _diagonals(band, bd, bd.kappa)]).T


@pytest.mark.parametrize("hbar", REF_CFG.hbar_ladder)
def test_tridiagonal_bands_match_eig_banded(ref_cfg, hbar):
    # at hbar = 0.125 some Sturm pivots are exactly zero; they must count
    # right without a numpy floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd = band_data(ref_cfg, hbar)
    band = floquet_band(ref_cfg.potential(), ref_cfg.n_pw)
    assert band.shape[0] == 2
    # measured: at most 4 ulp at every kappa of the ladder
    assert _ulps(bd.energies, _banded_reference(band, bd)) <= 4
    # the half kappa_{n/2+1} .. kappa_{n-1} is mirrored from -kappa; solved
    # there directly it agrees to the same 4 ulp
    half = bd.kappa.size // 2 + 1
    direct = _tridiagonal_lowest(_diagonals(band, bd, bd.kappa[half:]),
                                 band[1, 0] ** 2, bd.n_bands).T
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
    assert floquet_band(spec, cfg.n_pw).shape[0] == want_k + 1
    modes = np.arange(cfg.n_pw) - cfg.n_pw // 2
    scale = np.abs(bd.energies).max()
    # 64 points over one cell resolve the 41 modes exactly, so the grid sum
    # is the plane-wave inner product
    x = spec.a * np.arange(64) / 64
    for i, (w, u) in enumerate(_eigh_reference(spec, cfg)):
        assert np.abs(bd.energies[:, i] - w[:cfg.n_bands]).max() <= 1e-11 * scale
        waves = np.exp(1j * np.outer(x, bd.kappa[i] + bd.b * modes))
        for n in range(cfg.n_bands):
            # the free bands are degenerate at kappa = 0 and -pi, so each
            # Bloch function is compared with the whole reference eigenspace
            space = waves @ u[:, np.abs(w - bd.energies[n, i]) <= 1e-9 * scale]
            phi = bloch_on_grid(spec, cfg.hbar, n + 1, bd.kappa[i], x,
                                n_pw=cfg.n_pw) * np.sqrt(spec.a)
            assert np.linalg.norm(space.conj().T @ phi) / 64 >= 1 - 1e-12


# V0 = 7.615339, a benchmark draw, once lost an ulp of vhat_0 to sampling
@pytest.mark.parametrize("v0", [8.0, 7.615339])
def test_sin2_coefficients_are_exact(v0):
    spec = st.make_potential("sin2", v0=v0, a=1.0)
    band = floquet_band(spec, 41)
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
    n_pw = 129
    vhat = _looped_fourier(spec, n_pw - 1)
    modes = np.arange(n_pw)
    vblock = vhat[modes[:, None] - modes[None, :] + n_pw - 1]
    want = np.array([np.pad(np.diagonal(vblock, -d), (0, d))
                     for d in range(want_k + 1)])
    band = floquet_band(spec, n_pw)
    assert band.dtype == want.dtype and np.array_equal(band, want)


# solve_bands energies at hbar = 0.2 on 41 modes, 8 kappa and 5 bands, over
# the half zone kappa_0 = -pi .. kappa_4 = 0, frozen from the solver as it
# was when its band storage also lived in BandData: a layout change must
# leave every bit of them in place
_FROZEN_ENERGIES = {
    "sin2": [
        [1.6735977226919698, 1.6730465769680696, 1.6717189870337692,
         1.670395605327482, 1.6698486678935365],
        [4.718759722035093, 4.731240500583462, 4.762619018211961,
         4.795992474227477, 4.810481440321336],
        [7.644708895833764, 7.4818598421173235, 7.218419885581291,
         7.024416064525605, 6.9542736609109035],
        [8.583045725328429, 8.826987536497594, 9.338861866381642,
         9.962081642135015, 10.57764087773132],
        [14.07643989852238, 13.148062595648899, 12.266515121010258,
         11.443204765772194, 10.763131740246255],
    ],
    "free": [
        [0.3947841760435744, 0.2220660990245106, 0.0986960440108936,
         0.0246740110027234, 0.0],
        [0.3947841760435744, 0.616850275068085, 0.8882643960980424,
         1.2090265391334465, 1.5791367041742976],
        [3.5530575843921697, 2.985555331329531, 2.46740110027234,
         1.9985948912205953, 1.5791367041742976],
        [3.5530575843921697, 4.169907859460255, 4.836106156533786,
         5.551652475612764, 6.3165468166971905],
        [9.86960440108936, 8.907317971983145, 7.994379564882381,
         7.130789179787063, 6.3165468166971905],
    ],
    "cos-series-2": [
        [2.2539930438255555, 2.2536882535453935, 2.2529532688457574,
         2.252219474298975, 2.2519158741761705],
        [6.051033608859567, 6.065788009319101, 6.103428415821386,
         6.144440472102111, 6.1626081350913084],
        [9.035789179797238, 8.683305149785818, 8.338003671508224,
         8.109164209131725, 8.028034995262052],
        [9.246184004588704, 9.67822197010369, 10.268344355872374,
         10.925134429119856, 11.586591859041564],
        [15.077754710827497, 14.142063897935111, 13.256084398910366,
         12.425160815466336, 11.706047204180015],
    ],
    "cos-series-edge": [
        [1.8390960602197624, 1.8387485970075255, 1.8379108657786607,
         1.8370747117005648, 1.8367288256472083],
        [5.390170091964541, 5.402785863247134, 5.434610948560929,
         5.46864117301024, 5.483478738360617],
        [8.651988127178118, 8.222352016456854, 7.882470179461137,
         7.661866435956821, 7.584582800243121],
        [8.66613042885349, 9.17621014402116, 9.761897063019836,
         10.401600609370055, 10.92491866799971],
        [14.557096811876766, 13.655516531490946, 12.776040786348677,
         11.961828618939249, 11.38062287189812],
    ],
}


@pytest.mark.parametrize("family", sorted(_FROZEN_ENERGIES))
def test_energies_match_frozen_values_bit_for_bit(family):
    spec = _SPECS[family][0]()
    bd = st.solve_bands(spec, st.FloquetConfig(hbar=0.2, n_pw=41, n_kappa=8,
                                               n_bands=5))
    assert np.array_equal(bd.energies[:, :5], _FROZEN_ENERGIES[family])
    assert np.array_equal(bd.energies[:, 5:], bd.energies[:, 3:0:-1])
