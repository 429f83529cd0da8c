import pathlib

import numpy as np
import pytest

import semitb as st
from semitb.cli import parse_config
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


# 8 sin^2(pi x) + 1.5 sin(2 pi x) + 0.7 cos(6 pi x + 0.4), exactly
SKEW_VHAT = {0: 4.0, 1: -2.0 - 0.75j, 3: 0.35 * np.exp(0.4j)}


@pytest.fixture(scope="session")
def skew_spec():
    """A well with no mirror symmetry: its Bloch blocks are complex."""
    return st.make_potential("fourier", a=1.0, vhat=SKEW_VHAT)


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
