import ast
import inspect

import numpy as np
import pytest

import semitb as st
from conftest import EDGE_COEFFS, full_zone_eigh
from semitb import operators
from semitb.operators import PeriodicDomain

PPC = 16


@pytest.fixture(scope="module", params=[5, 6], ids=["odd", "even"])
def dom(request, ref_spec):
    return PeriodicDomain(ref_spec, 0.25, request.param, PPC)


def _input(dom):
    return np.random.default_rng(11).standard_normal(dom.n)


def test_block_index_is_a_permutation(dom):
    assert dom.block_index.shape == (dom.cells, PPC)
    assert np.array_equal(np.sort(dom.block_index.ravel()), np.arange(dom.n))
    residues = dom.g[dom.block_index] % dom.cells
    assert np.all(residues == np.arange(dom.cells)[:, None])


@pytest.mark.parametrize("cells, ppc", [(32, 64), (6, 16), (5, 16), (5, 15)])
def test_index_maps_match_the_sorted_construction(ref_spec, cells, ppc):
    dom = PeriodicDomain(ref_spec, 0.25, cells, ppc)
    # block r by a stable sort on (g mod cells, g), and the half stack's
    # scatter back to rfft modes through the sort's inverse permutation
    ref = np.lexsort((dom.g, dom.g % cells)).reshape(cells, ppc)
    assert np.array_equal(dom.block_index, ref)
    pos, j = np.argsort(ref.ravel()), np.arange(dom.n // 2 + 1)
    m = (cells // 2 + 1) * ppc
    ref_out = np.where(pos[j] < m, pos[j], m + pos[-j % dom.n])
    assert np.array_equal(dom._half_out, ref_out)


def test_given_blocks_replace_the_eigh(dom, ref_spec, monkeypatch):
    blocks = (dom.block_evals, dom.block_evecs)
    monkeypatch.setattr(np.linalg, "eigh", None)  # a call would raise
    again = PeriodicDomain(ref_spec, 0.25, dom.cells, PPC, blocks=blocks)
    assert again.block_evecs is dom.block_evecs
    f, z = _input(dom), float(dom.block_evals[:, 0].mean())
    assert np.array_equal(again.resolvent_perp(f, z), dom.resolvent_perp(f, z))
    cut = (dom.block_evals[:-1], dom.block_evecs[:-1])
    for wrong, other_ppc in ((cut, PPC), (blocks, PPC + 1)):
        with pytest.raises(ValueError, match="not the half stack"):
            PeriodicDomain(ref_spec, 0.25, dom.cells, other_ppc, blocks=wrong)
    # the eigenpairs of the complex blocks an older build stored
    for wrong in ((blocks[0], blocks[1].astype(complex)),
                  (blocks[0].astype(np.float32), blocks[1])):
        with pytest.raises(ValueError, match=f"{wrong[0].dtype}, {wrong[1].dtype}"):
            PeriodicDomain(ref_spec, 0.25, dom.cells, PPC, blocks=wrong)


def _reassembled(evals, evecs):
    """The block matrices V diag(E) V^H of a stack of eigenpairs."""
    return (evecs * evals[:, None, :]) @ np.conj(evecs).transpose(0, 2, 1)


def test_blocks_reassemble_dense_h_in_fourier_space(dom):
    half = dom.cells // 2 + 1
    assert dom.block_evals.shape == (half, PPC)
    assert dom.block_evecs.shape == (half, PPC, PPC)
    assert dom.block_evals.dtype == dom.block_evecs.dtype == np.float64
    ref = _reassembled(*full_zone_eigh(dom))[:half]
    assert np.abs(_reassembled(dom.block_evals, dom.block_evecs) - ref).max() <= 1e-12


def _perp_residual(dom, f, z):
    """||(H - z) R f - (f - P f)|| / ||f|| with H applied on the grid."""
    u = dom.resolvent_perp(f, z)
    resid = dom.apply_h(u) - z * u - (f - dom.project_band1(f))
    return np.linalg.norm(resid) / np.linalg.norm(f)


def test_resolvent_solves_the_perp_equation(dom):
    z = float(dom.block_evals[:, 0].mean())
    assert _perp_residual(dom, _input(dom), z) <= 1e-12


def test_resolvent_kills_the_first_band(dom):
    z = float(dom.block_evals[:, 0].mean())
    f = _input(dom)
    perp = dom.resolvent_perp(f, z)
    scale = np.linalg.norm(perp)
    band = dom.project_band1(f)
    assert np.linalg.norm(dom.resolvent_perp(band, z)) <= 1e-12 * scale
    assert np.linalg.norm(dom.project_band1(perp)) <= 1e-12 * scale


def test_complex_input_is_refused(dom):
    f = _input(dom) + 1j * _input(dom)
    for apply in (dom.apply_h, dom.project_band1,
                  lambda phi: dom.resolvent_perp(phi, 0.0)):
        with pytest.raises(TypeError, match="real grid functions"):
            apply(f)


def _full_block_resolvent(dom, ref, phi, z):
    """The resolvent on all `cells` blocks of the full FFT, from the
    full-zone reference eigenpairs ref, with no use of the conjugate
    symmetry of the blocks."""
    evals, v = ref
    fb = np.fft.fft(phi)[dom.block_index]
    coef = np.matmul(np.conj(fb)[:, None, :], v)[:, 0, :].conj()
    coef[:, 0] = 0.0
    coef[:, 1:] /= evals[:, 1:] - z
    out = np.empty(dom.n, dtype=complex)
    out[dom.block_index] = np.matmul(v, coef[:, :, None])[:, :, 0]
    return np.fft.ifft(out).real


def _full_block_projector(dom, ref, phi):
    """The band-1 projector on all `cells` blocks of the full FFT."""
    fb = np.fft.fft(phi)[dom.block_index]
    v0 = ref[1][:, :, 0]
    coef = np.matmul(np.conj(v0)[:, None, :], fb[:, :, None])[:, :, 0]
    out = np.empty(dom.n, dtype=complex)
    out[dom.block_index] = v0 * coef
    return np.fft.ifft(out).real


def _half_stack_resolvent(dom, phi, z):
    """The half-stack resolvent written out in one piece: the rfft gathered
    into blocks 0..cells//2 as (re, im) pairs, two stacked real products,
    the mirror scattered back through irfft."""
    h = dom.cells // 2 + 1
    rf = np.fft.rfft(phi)
    fb = np.concatenate((rf, rf.conj()))[dom._half_in].reshape(h, -1)
    pairs = np.stack((fb.real, fb.imag), axis=-1)
    v = dom.block_evecs[:h]
    coef = np.matmul(v.transpose(0, 2, 1), pairs)
    coef[:, 0] = 0.0
    coef[:, 1:] /= (dom.block_evals[:h, 1:] - z)[:, :, None]
    back = np.matmul(v, coef)
    back = (back[..., 0] + 1j * back[..., 1]).reshape(-1)
    return np.fft.irfft(np.concatenate((back, back.conj()))[dom._half_out], dom.n)


def _gradient_h1_norm(dom, phi):
    """H1 norm from the FFT gradient on the grid; its real part drops the
    even-n Nyquist mode."""
    grad = np.fft.ifft(1j * dom.k * np.fft.fft(phi)).real
    return float(np.sqrt(dom.dx * np.sum(phi**2) + dom.dx * np.sum(grad**2)))


SHAPES = [(5, 16), (6, 16), (31, 33), (32, 64)]


@pytest.mark.parametrize("cells, ppc", SHAPES)
def test_half_spectrum_resolvent_matches_full_blocks(ref_spec, cells, ppc):
    dom = PeriodicDomain(ref_spec, 0.25, cells, ppc)
    z = float(dom.block_evals[:, 0].mean())
    f = _input(dom)
    got = dom.resolvent_perp(f, z)
    ref = _full_block_resolvent(dom, full_zone_eigh(dom), f, z)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.array_equal(got, _half_stack_resolvent(dom, f, z))


@pytest.mark.parametrize("cells, ppc", SHAPES + [(5, 15)])
def test_half_spectrum_projector_matches_full_blocks(ref_spec, cells, ppc):
    dom = PeriodicDomain(ref_spec, 0.25, cells, ppc)
    f = _input(dom)
    got = dom.project_band1(f)
    ref = _full_block_projector(dom, full_zone_eigh(dom), f)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("edge", [False, True], ids=["sin2", "edge"])
@pytest.mark.parametrize("cells, ppc", SHAPES)
def test_half_stack_spectrum_matches_full_zone(ref_spec, edge_spec, edge,
                                               cells, ppc):
    dom = PeriodicDomain(edge_spec if edge else ref_spec, 0.25, cells, ppc)
    evals, evecs = full_zone_eigh(dom)
    for n in (1, 2):
        ref = evals[:, n - 1]
        assert np.allclose(dom.band_edges(n), (ref.min(), ref.max()),
                           rtol=0, atol=1e-11)
    assert abs(dom.band_gap(1) - (evals[:, 1].min() - evals[:, 0].max())) <= 1e-11
    for z in (evals[:, 0].mean(), evals[:, 1].mean(), evals[:, 2].max() + 0.3):
        assert abs(dom.perp_distance(z) - np.abs(evals[:, 1:] - z).min()) <= 1e-11
    # reference block cells - r holds the modes -g of domain block r, and
    # is its mirror
    pos = np.argsort(dom.block_index.ravel()) % ppc
    ref_blocks, blocks = _reassembled(evals, evecs), _reassembled(dom.block_evals,
                                                                  dom.block_evecs)
    scale = np.abs(evals).max()
    for r in range(dom.cells // 2 + 1):
        mirror = pos[-dom.block_index[r] % dom.n]
        ref = ref_blocks[-r % cells][mirror[:, None], mirror]
        assert np.abs(ref - blocks[r]).max() <= 1e-13 * scale
        assert np.abs(evals[-r % cells] - dom.block_evals[r]).max() <= 1e-13 * scale


def _fft_gathered_blocks(dom):
    """Blocks 0..cells//2 gathered from fft(vx), each entry of modes g, g'
    the coefficient fft(vx)[g - g'] / n, plus the kinetic diagonal: complex,
    with FFT roundoff in the imaginary parts."""
    n, idx = dom.n, dom.block_index[:dom.cells // 2 + 1]
    gb = dom.g[idx]
    h = (np.fft.fft(dom.vx) / n)[(gb[:, :, None] - gb[:, None, :]) % n]
    off = np.arange(dom.points_per_cell)
    h[:, off, off] += dom.hbar**2 * dom.k[idx] ** 2
    return h


_BLOCK_SPECS = {
    "sin2": dict(family="sin2", v0=8.0),
    "cos-series-3": dict(family="cos-series", coeffs=[4.0, 1.0, 0.5]),
    "cos-series-edge": dict(family="cos-series", coeffs=EDGE_COEFFS),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_SPECS))
@pytest.mark.parametrize("cells, ppc", SHAPES + [(5, 15), (6, 4), (5, 3), (5, 2)])
def test_blocks_from_vhat_match_the_fft_gathered_blocks(name, cells, ppc):
    # ppc <= 2K on the last three grids: the circulant folds aliases in
    spec = st.make_potential(a=1.0, **_BLOCK_SPECS[name])
    dom = PeriodicDomain(spec, 0.25, cells, ppc)
    got, ref = dom.half_blocks(), _fft_gathered_blocks(dom)
    assert got.dtype == np.float64 and np.array_equal(got, got.transpose(0, 2, 1))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("cells, ppc", SHAPES + [(5, 15)])
def test_rfft_apply_h_matches_complex_fft_form(ref_spec, cells, ppc):
    dom = PeriodicDomain(ref_spec, 0.25, cells, ppc)
    f = _input(dom)
    kinetic = dom.hbar**2 * dom.k**2
    ref = np.fft.ifft(kinetic * np.fft.fft(f)).real + dom.vx * f
    assert np.linalg.norm(dom.apply_h(f) - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("cells, ppc", SHAPES + [(5, 15)])
def test_parseval_h1_matches_gradient_form(ref_spec, cells, ppc):
    # n = cells * ppc is odd on (31, 33) and (5, 15); on even n the random
    # input carries a Nyquist mode, which has no real derivative
    dom = PeriodicDomain(ref_spec, 0.25, cells, ppc)
    random = _input(dom)
    smooth = np.exp(np.cos(2 * np.pi * dom.x / dom.length))
    for f in (random, smooth):
        ref = _gradient_h1_norm(dom, f)
        assert abs(dom.h1_norm(f) - ref) <= 1e-13 * ref


def test_operators_import_nothing_from_bloch():
    # the criterion-5 oracle compares BandData with the domain blocks, so
    # the blocks must not be built from the band solver's coefficients
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(operators))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not [m for m in imported if "bloch" in m.split(".")]
