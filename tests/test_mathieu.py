"""Band data of the reference sin2 lattice against Mathieu's equation.

For V = V0 sin^2(pi x) on a cell of length 1, the Floquet problem is
Mathieu's equation y'' + (a - 2q cos 2z) y = 0 with z = pi x,
q = V0 / (4 pi^2 hbar^2) and E = V0/2 + pi^2 hbar^2 a.  Band 1 is
[a_0(q), b_1(q)] and the first gap is a_1(q) - b_1(q).  The characteristic
values come from scipy.special (Zhang-Jin continued fractions), imported
inside the test: the package never calls it, so this route to the band
data shares no code with the Floquet solve.
"""

import numpy as np
import pytest

from conftest import REF_CFG
from semitb.bloch import band_metrics
from semitb.scan import fit_exponential_law

EPS = np.finfo(float).eps


def _mathieu_band1(v0, hbar):
    """(bottom, width, first gap) of band 1 from the characteristic values."""
    from scipy.special import mathieu_a, mathieu_b

    q = v0 / (4 * np.pi**2 * hbar**2)
    a0, b1, a1 = mathieu_a(0, q), mathieu_b(1, q), mathieu_a(1, q)
    scale = np.pi**2 * hbar**2
    return v0 / 2 + scale * a0, scale * (b1 - a0), scale * (a1 - b1)


@pytest.fixture(scope="module")
def v0(ref_cfg):
    assert (ref_cfg.family, ref_cfg.a) == ("sin2", 1.0), \
        "the Mathieu oracle is written for the sin2 lattice of period 1"
    return ref_cfg.v0


@pytest.mark.parametrize("hbar", REF_CFG.hbar_ladder)
def test_band1_matches_mathieu_characteristic_values(v0, bundle_factory, hbar):
    bd = bundle_factory(hbar).bd
    bottom, width, gap = _mathieu_band1(v0, hbar)
    got = band_metrics(bd, 1)
    # one eigenvalue is good to eps * max|E|; width and gap are differences
    # of two eigenvalues
    floor = EPS * np.abs(bd.energies).max()
    assert abs(bd.band_edges(1)[0] - bottom) <= floor
    assert abs(got["gap_above"] - gap) <= 2 * floor
    assert abs(got["width"] - width) <= 2 * floor


@pytest.mark.parametrize("hbar", REF_CFG.hbar_ladder)
def test_band1_width_follows_dlmf_asymptotics(v0, bundle_factory, hbar):
    # DLMF 28.8.2 at m = 0 with h = sqrt(q):
    # b_1 - a_0 ~ 2^5 (2/pi)^(1/2) h^(3/2) e^(-4h) (1 - 7/(32h)) + O(h^-2)
    h = np.sqrt(v0) / (2 * np.pi * hbar)
    law = (np.pi**2 * hbar**2 * 2**5 * np.sqrt(2 / np.pi) * h**1.5
           * np.exp(-4 * h) * (1 - 7 / (32 * h)))
    width = band_metrics(bundle_factory(hbar).bd, 1)["width"]
    assert abs(law / width - 1) <= 0.06 / h**2


def test_gap_slope_is_the_mathieu_slope(v0, bundle_factory):
    # criterion 3 reads 0.8075 on the reference ladder: that is the slope of
    # the exact sin2 gap there, not a program defect.  On the ladder scaled
    # by 1/5 the same law gives a slope inside 1 +- 0.1.
    logs = np.log(REF_CFG.hbar_ladder)
    gaps = [band_metrics(bundle_factory(hb).bd, 1)["gap_above"]
            for hb in REF_CFG.hbar_ladder]
    exact = [_mathieu_band1(v0, hb)[2] for hb in REF_CFG.hbar_ladder]
    slope = fit_exponential_law(logs, np.log(gaps))["slope"]
    want = fit_exponential_law(logs, np.log(exact))["slope"]
    assert abs(want - 0.8075018005375549) <= 1e-12
    assert abs(slope - want) <= 1e-9
    small = [_mathieu_band1(v0, hb / 5)[2] for hb in REF_CFG.hbar_ladder]
    assert 0.9 <= fit_exponential_law(logs, np.log(small))["slope"] <= 1.1
