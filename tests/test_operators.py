import numpy as np
import pytest

from semitb.operators import PeriodicDomain

PPC = 16


@pytest.fixture(scope="module", params=[5, 6], ids=["odd", "even"])
def dom(request, ref_spec):
    return PeriodicDomain(ref_spec, 0.25, request.param, PPC)


def _inputs(dom):
    rng = np.random.default_rng(11)
    real = rng.standard_normal(dom.n)
    return real, real + 1j * rng.standard_normal(dom.n)


def test_block_index_is_a_permutation(dom):
    assert dom.block_index.shape == (dom.cells, PPC)
    assert np.array_equal(np.sort(dom.block_index.ravel()), np.arange(dom.n))
    residues = dom.g[dom.block_index] % dom.cells
    assert np.all(residues == np.arange(dom.cells)[:, None])


def _fourier_h(dom):
    """dense_h in the fft basis, minus its couplings across the Nyquist edge.

    On the grid V couples mode g to g +- m also where that wraps past n/2
    (|g - g'| > n/2); the Bloch blocks hold the unwrapped coupling only.
    """
    n = dom.n
    h = np.fft.fft(dom.dense_h() @ np.fft.ifft(np.eye(n), axis=0), axis=0)
    wrap = np.abs(dom.g[:, None] - dom.g[None, :]) > n // 2
    h[wrap] = 0.0
    return h


def test_blocks_reassemble_dense_h_in_fourier_space(dom):
    v = dom.block_evecs
    blocks = (v * dom.block_evals[:, None, :]) @ np.conj(v).transpose(0, 2, 1)
    assembled = np.zeros((dom.n, dom.n), dtype=complex)
    bi = dom.block_index
    assembled[bi[:, :, None], bi[:, None, :]] = blocks
    assert np.abs(assembled - _fourier_h(dom)).max() <= 1e-12


def test_resolvent_solves_the_perp_equation(dom):
    z = float(dom.block_evals[:, 0].mean())
    h = _fourier_h(dom)
    _, cplx = _inputs(dom)
    u = np.fft.fft(dom.resolvent_perp(cplx, z))
    rhs = np.fft.fft(cplx - dom.project_band1(cplx))
    assert np.linalg.norm(h @ u - z * u - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_real_input_takes_the_real_part(dom):
    # the blocks keep mode -n/2 but not +n/2, so they do not commute with
    # complex conjugation and the real part solves the equation above only
    # up to that edge; a real input returns exactly that real part
    z = float(dom.block_evals[:, 0].mean())
    real, _ = _inputs(dom)
    for op in (dom.project_band1, lambda f: dom.resolvent_perp(f, z)):
        out = op(real)
        ref = op(real.astype(complex)).real
        assert np.isrealobj(out)
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_resolvent_kills_the_first_band(dom):
    z = float(dom.block_evals[:, 0].mean())
    for f in _inputs(dom):
        perp = dom.resolvent_perp(f, z)
        scale = np.linalg.norm(perp)
        band = dom.project_band1(f)
        assert np.linalg.norm(dom.resolvent_perp(band, z)) <= 1e-12 * scale
        assert np.linalg.norm(dom.project_band1(perp)) <= 1e-12 * scale
