import dataclasses

import numpy as np
import pytest

import semitb as st
from conftest import full_zone_eigh, orbitals
from semitb.errors import BasisError
from semitb.scan import build_pipeline
from semitb.tightbinding import band_hopping, ring_coupling


def test_lambda1_is_band_average(bundle_factory):
    for hb in (0.2, 0.125):
        bun = bundle_factory(hb)
        assert abs(bun.tbp.lambda1 - np.mean(bun.bd.energies[0])) < 1e-8
        lo, hi = bun.bd.band_edges(1)
        assert lo - 1e-8 <= bun.tbp.lambda1 <= hi + 1e-8


@pytest.mark.parametrize("hb", [0.25, 0.2, 0.16, 0.125, 0.1])
def test_h_row_is_the_product_form_bit_for_bit(bundle_factory, hb):
    # the row from the whole (cells, n) product <u_ell, H u_0>, then
    # folded onto lags and cut below the floor as h_matrix_elements does
    bun = bundle_factory(hb)
    wb, dom, cells = bun.wb, bun.dom, bun.wb.cells
    raw = np.empty(cells)
    raw[wb.sites % cells] = dom.dx * np.sum(orbitals(wb) * dom.apply_h(wb.u0), axis=1)
    lag = np.minimum(np.arange(cells), cells - np.arange(cells))
    floor = np.finfo(float).eps * np.abs(dom.block_evals).max()
    ref = np.where((lag >= 2) & (np.abs(raw[lag]) < floor), 0.0, raw[lag])
    row = st.h_matrix_elements(wb, dom, bun.bd.band_edges(1))
    assert np.array_equal(row, ref)
    assert np.array_equal(bun.tbp.h_row, ref)


def test_hopping_positive_and_cross_checked(bundle_factory):
    for hb in (0.25, 0.16, 0.1):
        bun = bundle_factory(hb)
        ref = band_hopping(bun.bd)
        assert bun.tbp.beta > 0
        assert abs(bun.tbp.beta - ref) / ref < 1e-6


def test_hopping_slope_recovers_action(bundle_factory, ref_s0):
    hbars = (0.25, 0.2, 0.16, 0.125, 0.1)
    betas = [bundle_factory(h).tbp.beta for h in hbars]
    slope = -np.polyfit([1 / h for h in hbars], np.log(betas), 1)[0]
    assert 0.9 <= slope / ref_s0 <= 1.1


def test_h_band_symmetric_and_uniform(bundle_factory, ref_spec):
    bun = bundle_factory(0.2)
    h = bun.tbp.h_row
    assert np.abs(h - h[-np.arange(h.size)]).max() < 1e-10 * max(1.0, np.abs(h).max())
    # diagonal element is site independent: recompute from a shifted orbital
    c0_shift = bun.dom.dx * np.sum(np.abs(orbitals(bun.wb)[5 - bun.wb.sites[0]]) ** 4)
    assert abs(c0_shift - bun.tbp.c0) < 1e-8


def test_interaction_constant_degenerate_power(bundle_factory):
    bun = bundle_factory(0.2)
    assert abs(st.interaction_constant(bun.wb, bun.dom, 0.0) - 1.0) < 1e-10


def test_interaction_constant_refuses_a_negative_power(bundle_factory):
    bun = bundle_factory(0.2)
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        st.interaction_constant(bun.wb, bun.dom, -0.5)


def test_interaction_constant_scaling(bundle_factory):
    c2 = bundle_factory(0.2).tbp.c0 * np.sqrt(0.2)
    c1 = bundle_factory(0.1).tbp.c0 * np.sqrt(0.1)
    assert 0.5 <= c2 / c1 <= 2.0


def test_effective_nonlinearity_algebra(bundle_factory):
    tbp = bundle_factory(0.16).tbp
    assert st.with_eta(tbp, 0.0).gamma == 0.0
    t = st.with_eta(tbp, -3.0)
    assert abs(t.c0 * t.gamma / t.beta - t.eta) < 1e-12
    assert t.gamma == -3.0 * tbp.beta / tbp.c0
    assert (t.lambda1, t.beta, t.dtilde_norm) == (tbp.lambda1, tbp.beta,
                                                  tbp.dtilde_norm)


def test_gamma_shrinks_exponentially(bundle_factory):
    g2 = st.with_eta(bundle_factory(0.2).tbp, -3.0).gamma
    g1 = st.with_eta(bundle_factory(0.1).tbp, -3.0).gamma
    assert abs(g2) > 100 * abs(g1)


def test_a_new_row_moves_every_derived_parameter(bundle_factory):
    # lambda1, beta, gamma and D_norm are read off h_row: replacing the row
    # moves all four, with nothing else to keep in step
    tbp = st.with_eta(bundle_factory(0.25).tbp, -2.0)
    row = 2.0 * tbp.h_row
    row[[2, -2]] += 1e-3
    new = dataclasses.replace(tbp, h_row=row)
    assert [f.name for f in dataclasses.fields(new)] == ["hbar", "sigma", "c0",
                                                         "eta", "h_row"]
    assert new.lambda1 == float(row[0]) == 2.0 * tbp.lambda1
    assert new.beta == -float(row[1]) == 2.0 * tbp.beta
    assert new.gamma == -2.0 * new.beta / tbp.c0 == 2.0 * tbp.gamma
    assert new.dtilde_norm == float(np.abs(row[2:row.size - 1]).sum())
    assert new.dtilde_norm > tbp.dtilde_norm
    assert np.array_equal(ring_coupling(new)[0, [1, -1]], [-1.0, -1.0])


def test_residual_coupling_structure(bundle_factory):
    ratios = []
    for hb in (0.25, 0.2, 0.16, 0.125, 0.1):
        tbp = bundle_factory(hb).tbp
        h = tbp.h_row
        assert abs(h[2]) < abs(h[1])
        assert abs(h[2] - h[-2]) <= 1e-10 * max(1.0, abs(h[2]))
        # the beyond-nearest-neighbor couplings, relative to the hopping
        ratio = tbp.dtilde_norm / tbp.beta
        assert ratio < 0.1
        ratios.append(ratio)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_parameters_stable_under_grid_doubling(ref_spec):
    bd = st.solve_bands(ref_spec, st.FloquetConfig(hbar=0.16))
    tb = {}
    for ppc in (64, 128):
        dom = st.PeriodicDomain(ref_spec, 0.16, 32, ppc)
        wb = st.build_orthonormal_basis(dom)
        tb[ppc] = st.extract_params(wb, dom, sigma=1.0, bd=bd)
    assert abs(tb[64].lambda1 - tb[128].lambda1) < 1e-10
    assert abs(tb[64].beta - tb[128].beta) / tb[64].beta < 1e-8
    assert abs(tb[64].c0 - tb[128].c0) / tb[64].c0 < 1e-8


def test_sign_violation_detected(bundle_factory):
    bun = bundle_factory(0.2)
    # a cell-alternating sign on u0 makes <u_0, H u_1> positive
    bad = dataclasses.replace(bun.wb, u0=bun.wb.u0 * np.cos(np.pi * bun.dom.x
                                                           / bun.dom.spec.a))
    with pytest.raises(BasisError, match="sign convention"):
        st.h_matrix_elements(bad, bun.dom, bun.bd.band_edges(1))


def test_band_leakage_detected(bundle_factory):
    bun = bundle_factory(0.2)
    with pytest.raises(BasisError):
        st.h_matrix_elements(bun.wb, bun.dom, band1_edges=(0.0, 0.1))


def test_beta_below_roundoff_floor_refused(ref_cfg):
    # at hbar = 0.05 beta ~ 1e-15 sits below eps * max|E| ~ 2.4e-14
    with pytest.raises(BasisError, match="roundoff floor"):
        build_pipeline(ref_cfg, 0.05)


def test_ring_coupling_is_the_galerkin_matrix(bundle_factory):
    for hb in (0.25, 0.16, 0.1):
        bun = bundle_factory(hb)
        u, m = orbitals(bun.wb), bun.wb.cells
        galerkin = bun.dom.dx * u @ np.array([bun.dom.apply_h(r) for r in u]).T
        k = ring_coupling(bun.tbp)
        lattice = bun.tbp.lambda1 * np.eye(m) + bun.tbp.beta * k
        assert np.abs(lattice - galerkin).max() <= 1e-10
        lag = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
        expect = np.zeros((m, m))
        expect[(lag == 1) | (lag == m - 1)] = -1.0
        for ell in range(2, m - 1):
            expect[lag == ell] = bun.tbp.h_row[ell] / bun.tbp.beta
        assert np.array_equal(k, expect)
        assert np.array_equal(k, k.T)


def test_h_row_is_the_band_of_the_domain(bundle_factory):
    # the row's Fourier transform is band 1 of the domain only if the basis
    # spans exactly the domain's band-1 subspace
    for hb in (0.25, 0.2, 0.16, 0.125, 0.1):
        bun = bundle_factory(hb)
        band = np.fft.ifft(full_zone_eigh(bun.dom)[0][:, 0]).real
        assert np.abs(bun.tbp.h_row - band).max() <= 1e-12


def test_sub_floor_lags_cut(bundle_factory):
    # lag 5 (3.7e-11) clears the floor eps * max|E| (5.6e-13) at hbar = 0.25;
    # lag 2 (2.1e-14) falls below it (9.1e-14) at hbar = 0.1
    row = bundle_factory(0.25).tbp.h_row
    assert abs(row[5]) > 1e-11 and row[5] == row[-5]
    tbp = bundle_factory(0.1).tbp
    assert tbp.h_row[2] == 0.0 and tbp.dtilde_norm == 0.0
