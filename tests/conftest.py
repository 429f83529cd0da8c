import pathlib

import numpy as np
import pytest

import semitb as st
from semitb.cli import parse_config
from semitb.potential import action_profile
from semitb.scan import build_pipeline

# the reference RunConfig: sin2 potential, reference numerics, sigma 1
REF_CFG = parse_config(str(pathlib.Path(__file__).resolve().parent.parent
                           / "reference.ini"))


def full_zone_eigh(dom):
    """eigh of all `cells` Bloch blocks of dom.dense_h() in Fourier space.

    A reference for the domain's half stack that owes nothing to its
    block gather or its conjugate mirror: row r of the returned
    (evals, evecs) is block r, in the domain's block_index order.
    """
    h = np.fft.fft(np.fft.ifft(dom.dense_h(), axis=1), axis=0)
    bi = dom.block_index
    return np.linalg.eigh(h[bi[:, :, None], bi[:, None, :]])


@pytest.fixture(scope="session")
def ref_spec():
    return st.make_potential("sin2", v0=8.0, a=1.0)


# a 3-term cos-series with c1 < 0: the well sits at the cell edge, x0 = -a/2
EDGE_COEFFS = [-4.0, 1.0, 0.5]


@pytest.fixture(scope="session")
def edge_spec():
    return st.make_potential("cos-series", a=1.0, coeffs=EDGE_COEFFS)


def bloch_on_grid(bd, n, kappa, x):
    """Bloch function of band n (1-based) at any kappa, evaluated on x.

    The plane-wave reference for the domain's band-1 blocks: it solves
    the Floquet matrix of bd at this kappa alone, with its eigenvector,
    by scipy's banded solver, and scales the function to unit L2 norm
    over one cell.  Its sign is whatever the eigensolver returns.
    """
    import scipy.linalg

    modes = bd.modes
    band = bd.band.copy()
    band[0] = bd.band[0] + bd.hbar**2 * (kappa + bd.b * modes) ** 2
    _, u = scipy.linalg.eig_banded(band, lower=True, select="i",
                                   select_range=(n - 1, n - 1))
    x = np.asarray(x, dtype=float)
    return np.exp(1j * np.outer(x, kappa + bd.b * modes)) @ u[:, 0] / np.sqrt(bd.a)


def orbitals(wb):
    """The (cells, n) stack of the basis orbitals, row i that of wb.sites[i]."""
    return np.stack([np.roll(wb.u0, s * wb.points_per_cell) for s in wb.sites])


def lowdin_parts(dom, lowdin_band=6):
    """(v0, b): the band-projected well seed and the banded Lowdin
    coefficients that build_orthonormal_basis(dom, ...) combines into u0,
    rebuilt from its inputs."""
    g = np.exp(-action_profile(dom.spec, dom.x) / dom.hbar)
    v0 = dom.project_band1(g / np.sqrt(dom.dx * np.sum(g**2)))
    translates = np.stack([np.roll(v0, ell * dom.points_per_cell)
                           for ell in range(dom.cells)])
    gram = dom.dx * translates @ v0
    b = np.fft.ifft(1 / np.sqrt(np.fft.fft(gram).real)).real
    lag = np.minimum(np.arange(dom.cells), dom.cells - np.arange(dom.cells))
    return v0, np.where(lag <= lowdin_band, b, 0.0)


@pytest.fixture(scope="session")
def ref_s0(ref_spec):
    return st.tunneling_action(ref_spec)


@pytest.fixture(scope="session")
def ref_cfg():
    return REF_CFG


@pytest.fixture(scope="session")
def bundle_factory(ref_cfg):
    """Session-cached pipeline bundles at the reference configuration."""
    cache = {}

    def get(hbar):
        if hbar not in cache:
            cache[hbar] = build_pipeline(ref_cfg, hbar)
        return cache[hbar]

    return get


@pytest.fixture(scope="session")
def ladder_states():
    """Single-site branch states at the reference eta values."""
    prob = st.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=41)
    path = [-50.0, -30.0, -20.0, -12.0, -8.0, -5.0, -3.0, -2.0]
    cont = st.solve_anticontinuum(prob, 0, path)
    assert not cont.turning_point
    return {s.eta: s for s in cont.states}
