import dataclasses

import numpy as np
import pytest

import semitb as st
from conftest import bloch_on_grid, orbitals
from semitb.dnls import linear_ground_state
from semitb.errors import NonConvergenceError, SolverError
from semitb.nlse import (
    _kinetic_preconditioner,
    _minres,
    _nonlinear_term,
    _reduced_residual,
    _remainder_term,
    check_lattice_invertibility,
    lattice_map,
)
from semitb.operators import PeriodicDomain, l2_norm
from semitb.potential import action_profile
from semitb.tightbinding import ring_coupling, with_eta
from semitb.wannier import analyze, synthesize


def _split(phi, bun):
    """(c, phi_band, phi_perp) with c_j = <u_j, phi> by grid quadrature."""
    c = analyze(bun.wb, bun.dom.dx, phi)
    band = synthesize(bun.wb, c)
    return c, band, phi - band


def test_projection_recovers_single_orbital(bundle_factory):
    bun = bundle_factory(0.16)
    wb = bun.wb
    c, band, perp = _split(orbitals(wb)[3 - wb.sites[0]], bun)
    expect = np.zeros(wb.cells)
    expect[3 - wb.sites[0]] = 1.0
    assert np.abs(c - expect).max() < 1e-8
    assert l2_norm(bun.dom.dx, perp) < 1e-8


def test_projection_annihilates_second_band(bundle_factory):
    bun = bundle_factory(0.16)
    phi = bloch_on_grid(bun.dom.spec, bun.bd.hbar, 2, bun.bd.kappa[8], bun.dom.x).real
    phi /= l2_norm(bun.dom.dx, phi)
    c, _, _ = _split(phi, bun)
    assert np.linalg.norm(c) <= 1e-6


def test_projection_pythagoras(bundle_factory):
    bun = bundle_factory(0.16)
    rng = np.random.default_rng(8)
    phi = rng.standard_normal(bun.dom.n)
    phi /= l2_norm(bun.dom.dx, phi)
    c, band, perp = _split(phi, bun)
    assert abs(l2_norm(bun.dom.dx, band) - np.linalg.norm(c)) < 1e-8
    total = np.linalg.norm(c) ** 2 + l2_norm(bun.dom.dx, perp) ** 2
    assert abs(total - 1.0) < 1e-10


def test_spectral_projector_idempotent(bundle_factory):
    dom = bundle_factory(0.16).dom
    rng = np.random.default_rng(9)
    phi = rng.standard_normal(dom.n)
    once = dom.project_band1(phi)
    twice = dom.project_band1(once)
    assert l2_norm(dom.dx, twice - once) <= 1e-10


def test_perp_zero_without_nonlinearity(bundle_factory, ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, 0.0)
    c = lattice_map(ladder_states[-3.0], bun.wb)
    perp, h1 = st.solve_perp_fixed_point(c, 2.5, tbp, bun.dom, bun.wb, delta0=8.0)
    assert h1 == 0.0 and np.abs(perp).max() == 0.0
    # a start is never returned in place of the exact zeros
    perp, h1 = st.solve_perp_fixed_point(c, 2.5, tbp, bun.dom, bun.wb,
                                         delta0=8.0, start=np.ones(bun.dom.n))
    assert h1 == 0.0 and np.abs(perp).max() == 0.0


def test_perp_warm_start_reaches_the_zero_start_fixed_point(
        bundle_factory, ladder_states, monkeypatch):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    s = ladder_states[-3.0]
    c = lattice_map(s, bun.wb)
    calls = []
    kernel = PeriodicDomain.resolvent_perp

    def counted(self, phi, z):
        calls.append(z)
        return kernel(self, phi, z)

    monkeypatch.setattr(PeriodicDomain, "resolvent_perp", counted)

    def solve(cv, start=None):
        del calls[:]
        out = st.solve_perp_fixed_point(cv, s.e, tbp, bun.dom, bun.wb,
                                        delta0=8.0, start=start)
        return out, len(calls)

    (cold, cold_h1), cold_calls = solve(c)
    # the fixed point of a slightly larger c, as a late Newton step leaves it
    (nearby, _), _ = solve(1.0001 * c)
    assert bun.dom.h1_norm(nearby - cold) > 1e-4 * cold_h1
    (warm, warm_h1), warm_calls = solve(c, start=nearby)
    assert bun.dom.h1_norm(warm - cold) <= 1e-12
    assert abs(warm_h1 - cold_h1) <= 1e-12
    assert warm_calls < cold_calls


def test_reconstruction_is_independent_of_earlier_solves(bundle_factory,
                                                         ladder_states):
    # the warm start lives inside one call: a solve at another (hbar, eta)
    # in between leaves no trace
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    first = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom,
                                       bun.wb, delta0=8.0)
    other = bundle_factory(0.2)
    st.reconstruct_and_correct(ladder_states[-5.0], with_eta(other.tbp, -5.0),
                               other.dom, other.wb, delta0=8.0)
    again = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom,
                                       bun.wb, delta0=8.0)
    assert np.array_equal(first.phi, again.phi)
    assert np.array_equal(first.c, again.c)
    assert first.iterations == again.iterations


def test_perp_not_contracting_names_its_cause(bundle_factory, ladder_states):
    bun = bundle_factory(0.25)
    tbp = with_eta(bun.tbp, -2000.0)
    s = ladder_states[-2.0]
    c = lattice_map(s, bun.wb)
    with pytest.raises(SolverError, match="not contracting") as err:
        st.solve_perp_fixed_point(c, s.e, tbp, bun.dom, bun.wb, delta0=100.0)
    msg = str(err.value)
    lam = tbp.lambda1 - tbp.beta * s.e
    for part in ("hbar=0.25", "eta=-2000.0", f"lambda={lam:.10g}",
                 "ratio 1.47", "H1 gap", "at iteration"):
        assert part in msg


def test_perp_budget_names_its_cause(bundle_factory, ladder_states,
                                     monkeypatch):
    # a map whose successive gaps shrink by only 1 % a step never grows and
    # never meets the tolerance, so it runs into the 200-step budget
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    s = ladder_states[-3.0]
    calls = []

    def slow(self, phi, z):
        calls.append(z)
        return -(1 - 0.99 ** len(calls)) / tbp.gamma * np.ones(self.n)

    monkeypatch.setattr(PeriodicDomain, "resolvent_perp", slow)
    with pytest.raises(NonConvergenceError, match="iteration budget") as err:
        st.solve_perp_fixed_point(lattice_map(s, bun.wb), s.e, tbp, bun.dom,
                                  bun.wb, delta0=8.0)
    msg = str(err.value)
    assert len(calls) == 200
    for part in ("hbar=0.16", "eta=-3.0", "lambda=", "H1 gap",
                 "at iteration 200"):
        assert part in msg


def test_perp_first_iterate_homogeneity(bundle_factory, ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    s = ladder_states[-3.0]
    c = lattice_map(s, bun.wb)
    lam = tbp.lambda1 - tbp.beta * s.e

    def first_iterate(cv):
        band = synthesize(bun.wb, cv)
        return -tbp.gamma * bun.dom.resolvent_perp(_nonlinear_term(band, 1.0), lam)

    ratio = (bun.dom.h1_norm(first_iterate(2 * c))
             / bun.dom.h1_norm(first_iterate(c)))
    assert abs(ratio - 8.0) <= 0.4  # 2^(2 sigma + 1) for sigma = 1, +-5%


def test_perp_norm_decreases_with_hbar(bundle_factory, ladder_states):
    s = ladder_states[-2.0]
    out = []
    for hb in (0.2, 0.1):
        bun = bundle_factory(hb)
        tbp = with_eta(bun.tbp, -2.0)
        c = lattice_map(s, bun.wb)
        _, h1 = st.solve_perp_fixed_point(c, s.e, tbp, bun.dom, bun.wb, delta0=8.0)
        out.append(h1)
    assert out[1] < out[0]


def test_perp_budget_guard(bundle_factory, ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -2.0)
    c = lattice_map(ladder_states[-2.0], bun.wb)
    with pytest.raises(SolverError, match="budget"):
        st.solve_perp_fixed_point(c, ladder_states[-2.0].e, tbp, bun.dom,
                                  bun.wb, delta0=1.0)


def test_perp_resolvent_guard(bundle_factory, ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -2.0)
    c = lattice_map(ladder_states[-2.0], bun.wb)
    # place lambda = lambda1 - beta E in the middle of the second band
    target = float(np.mean(bun.dom.band_edges(2)))
    e_bad = (tbp.lambda1 - target) / tbp.beta
    with pytest.raises(SolverError, match="singular"):
        st.solve_perp_fixed_point(c, e_bad, tbp, bun.dom, bun.wb, delta0=8.0)


@pytest.mark.parametrize("eta", [-3.0, -8.0])
def test_reconstruction_takes_only_improving_steps(bundle_factory, ladder_states,
                                                   monkeypatch, eta):
    # with an unreachable tolerance the Newton loop runs until no step
    # scale lowers the continuum residual; every accepted step lowered it
    monkeypatch.setattr(st.nlse, "RESIDUAL_FLOOR", 1e-30)
    bun = bundle_factory(0.16)
    with pytest.raises(NonConvergenceError) as err:
        st.reconstruct_and_correct(ladder_states[eta], with_eta(bun.tbp, eta),
                                   bun.dom, bun.wb, delta0=8.0)
    history = np.array(err.value.history)
    assert history.size >= 2 and np.all(np.diff(history) < 0)
    # the error names the stall, the iterations it ran and where it stopped
    assert (f"line search stalled after {history.size} outer iterations at "
            f"residual {history[-1]:.2e}") in str(err.value)


def test_reconstruction_quality(bundle_factory, ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    cs = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom, bun.wb,
                                    delta0=8.0)
    assert cs.residual_h <= 1e-9 * max(abs(cs.lam), 0.16)
    # Rayleigh identity
    num = bun.dom.dx * np.sum(cs.phi * (bun.dom.apply_h(cs.phi)
                                       + tbp.gamma * np.abs(cs.phi) ** 2 * cs.phi))
    ray = num / (bun.dom.dx * np.sum(cs.phi**2))
    assert abs(ray - cs.lam) < 1e-8


def test_reconstruction_error_decays(bundle_factory, ladder_states):
    errs, norms = [], []
    for hb in (0.2, 0.1):
        bun = bundle_factory(hb)
        tbp = with_eta(bun.tbp, -3.0)
        cs = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom,
                                        bun.wb, delta0=8.0)
        seed = synthesize(bun.wb, lattice_map(ladder_states[-3.0], bun.wb))
        errs.append(bun.dom.h1_norm(cs.phi - seed))
        norms.append(abs(l2_norm(bun.dom.dx, cs.phi) - 1.0))
    assert errs[1] < errs[0] < 1.0
    assert norms[1] < norms[0]


def test_linear_limit_reproduces_band_state(bundle_factory):
    # at gamma = 0 the reduced operator lambda1 + beta * ring_coupling is H
    # on the first band, so its eigenvector nearest the lifted seed lifts
    # to a domain eigenstate
    bun = bundle_factory(0.16)
    tbp = bun.tbp
    seed = lattice_map(linear_ground_state(41), bun.wb)
    w, v = np.linalg.eigh(tbp.lambda1 * np.eye(bun.wb.cells)
                          + tbp.beta * ring_coupling(tbp))
    pick = int(np.argmax(np.abs(v.T @ seed)))
    lam, phi = w[pick], synthesize(bun.wb, v[:, pick])
    assert l2_norm(bun.dom.dx, bun.dom.apply_h(phi) - lam * phi) <= 1e-10
    # the delocalized seed picks the zone-center state at the band bottom
    alpha1 = bun.dom.band_edges(1)[0]
    assert abs(lam - alpha1) < 1e-9
    phi_ref = bloch_on_grid(bun.dom.spec, bun.bd.hbar, 1, 0.0, bun.dom.x).real
    phi_ref /= l2_norm(bun.dom.dx, phi_ref)
    sgn = np.sign(np.sum(phi_ref * phi))
    assert l2_norm(bun.dom.dx, phi / l2_norm(bun.dom.dx, phi)
                   - sgn * phi_ref) < 1e-7


def test_reconstruction_refuses_zero_gamma(bundle_factory):
    # at gamma = 0 the Newton steps would collapse onto phi = 0 and report
    # convergence; the eta = 0 state is the lattice lift instead
    bun = bundle_factory(0.16)
    with pytest.raises(ValueError, match="gamma != 0"):
        st.reconstruct_and_correct(linear_ground_state(41), with_eta(bun.tbp, 0.0),
                                   bun.dom, bun.wb, delta0=8.0)


def test_lattice_invertibility_guard(bundle_factory):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, 0.0)
    # E exactly on the spectrum of -ring_coupling makes the linearization singular
    e_sing = -np.linalg.eigvalsh(ring_coupling(tbp))[3]
    c = np.zeros(bun.wb.cells)
    with pytest.raises(SolverError, match="singular"):
        check_lattice_invertibility(c, e_sing, tbp)
    # c mirror-symmetric about the seed site (index 15): the nondegenerate
    # near-singular direction has equal peaks at the mirror indices 7 and
    # 23, and both are named, also after a 1-ulp change of c
    tbp = with_eta(bun.tbp, -3.0)
    c = np.exp(-np.abs(bun.wb.sites) / 2.0)
    nu = np.linalg.eigvalsh(check_lattice_invertibility(c, 0.0, tbp)[0])
    assert np.diff(nu).min() > 1e-3
    bumped = c.copy()
    bumped[18] = np.nextafter(c[18], 2.0)
    messages = []
    for cv in (c, bumped):
        with pytest.raises(SolverError, match=r"site indices \[7, 23\]") as err:
            check_lattice_invertibility(cv, 5e-7 - nu[12], tbp)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def _svd_guard(lp):
    """The guard by SVD: (s_min, message of its SolverError or None)."""
    _, svals, vt = np.linalg.svd(lp)
    smin = float(svals[-1])
    if smin >= 1e-6:
        return smin, None
    mag = np.abs(vt[-1])
    sites = np.flatnonzero(mag >= (1 - 1e-6) * mag.max()).tolist()
    return smin, (f"lattice linearization nearly singular (s_min = {smin:.2e}); "
                  f"worst direction peaks at site indices {sites}")


def test_lattice_invertibility_matches_the_svd(bundle_factory):
    # random symmetric linearizations: a random symmetric ring row and a
    # random nonlinear diagonal; the eigenvalue route gives the SVD's s_min
    # and, once E makes it near-singular, the SVD's message
    bun = bundle_factory(0.16)
    rng = np.random.default_rng(5)
    lag = np.minimum(np.arange(bun.wb.cells), bun.wb.cells - np.arange(bun.wb.cells))
    for _ in range(10):
        row = rng.standard_normal(bun.wb.cells // 2 + 1)[lag]
        row[[1, -1]] = -abs(row[1])
        tbp = dataclasses.replace(with_eta(bun.tbp, -1.0), h_row=row,
                                  beta=-row[1], eta=rng.uniform(-5, 0))
        c = rng.standard_normal(bun.wb.cells)
        lp, smin = check_lattice_invertibility(c, 0.0, tbp)
        want, _ = _svd_guard(lp)
        assert abs(smin - want) <= 1e-12 * want
        nu = np.linalg.eigvalsh(lp)
        e_sing = 3e-7 - nu[rng.integers(nu.size)]
        _, message = _svd_guard(check_lattice_invertibility(c, 0.0, tbp)[0]
                                + e_sing * np.eye(nu.size))
        with pytest.raises(SolverError) as err:
            check_lattice_invertibility(c, e_sing, tbp)
        assert str(err.value) == message


def test_reduced_jacobian_matches_finite_differences(bundle_factory,
                                                     ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    s = ladder_states[-3.0]
    c = lattice_map(s, bun.wb)
    # the remainder is held fixed: the Jacobian is the lattice part only
    f_rem = _remainder_term(c, synthesize(bun.wb, c), tbp, bun.dom, bun.wb)
    lp, _ = check_lattice_invertibility(c, s.e, tbp)
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = rng.standard_normal(c.size)
        v /= np.linalg.norm(v)
        eps = 1e-6
        fd = (_reduced_residual(c + eps * v, s.e, tbp, f_rem)
              - _reduced_residual(c - eps * v, s.e, tbp, f_rem)) / (2 * eps)
        assert np.linalg.norm(fd - lp @ v) / np.linalg.norm(lp @ v) < 1e-6


def test_continuum_jacobian_matches_finite_differences(bundle_factory,
                                                       ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    cs = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom, bun.wb,
                                    delta0=8.0)
    lam, gamma = cs.lam, tbp.gamma
    phi = cs.phi
    rng = np.random.default_rng(12)

    def residual(p):
        return bun.dom.apply_h(p) + gamma * np.abs(p) ** 2 * p - lam * p

    for _ in range(20):
        v = rng.standard_normal(phi.size)
        v /= l2_norm(bun.dom.dx, v)
        jv = (bun.dom.apply_h(v) + 3 * gamma * phi**2 * v - lam * v)
        eps = 1e-6
        fd = (residual(phi + eps * v) - residual(phi - eps * v)) / (2 * eps)
        assert (l2_norm(bun.dom.dx, fd - jv)
                / max(l2_norm(bun.dom.dx, jv), 1e-30)) < 1e-6


def test_state_tail_follows_action_rate(bundle_factory, ref_spec):
    prob = st.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=41)
    s50 = st.solve_anticontinuum(prob, 0, [-50.0]).at_eta(-50.0)
    bun = bundle_factory(0.1)
    tbp = with_eta(bun.tbp, -50.0)
    cs = st.reconstruct_and_correct(s50, tbp, bun.dom, bun.wb, delta0=8.0)
    d = action_profile(ref_spec, bun.dom.x)
    aphi = np.abs(cs.phi)
    cell0 = np.abs(bun.dom.x) <= 0.5
    floor = aphi[cell0].min()
    mask = cell0 & (aphi >= 10 * floor) & (aphi <= 0.1 * aphi.max())
    slope = np.polyfit(d[mask] / 0.1, np.log(aphi[mask]), 1)[0]
    assert -1.25 < slope < -0.75


def test_oracle_agrees_with_reconstruction(bundle_factory, ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    cs = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom, bun.wb,
                                    delta0=8.0)
    seed = cs.phi + 1e-3 * np.sin(bun.dom.x)
    orc = st.direct_newton_oracle(bun.dom, cs.lam, tbp.gamma, 1.0, seed)
    assert orc.residual_h <= 1e-11
    assert bun.dom.h1_norm(orc.phi - cs.phi) <= 1e-7


def test_oracle_keeps_exact_linear_state(bundle_factory):
    bun = bundle_factory(0.16)
    phi = bloch_on_grid(bun.dom.spec, bun.bd.hbar, 1, 0.0, bun.dom.x).real
    phi /= l2_norm(bun.dom.dx, phi)
    lam = float(bun.bd.energies[0, np.argmin(np.abs(bun.bd.kappa))])
    orc = st.direct_newton_oracle(bun.dom, lam, 0.0, 1.0, phi)
    assert l2_norm(bun.dom.dx, orc.phi - phi) < 1e-11


def test_oracle_below_spectrum_defocusing_vanishes(bundle_factory):
    bun = bundle_factory(0.16)
    phi = bloch_on_grid(bun.dom.spec, bun.bd.hbar, 1, 0.0, bun.dom.x).real
    phi /= l2_norm(bun.dom.dx, phi)
    lam = bun.dom.band_edges(1)[0] - 0.5
    orc = st.direct_newton_oracle(bun.dom, lam, 0.5, 1.0, 0.5 * phi,
                                  max_iter=200)
    assert l2_norm(bun.dom.dx, orc.phi) < 1e-8


def test_oracle_iteration_budget(bundle_factory, ladder_states):
    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    cs = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom, bun.wb,
                                    delta0=8.0)
    with pytest.raises(SolverError):
        st.direct_newton_oracle(bun.dom, cs.lam, tbp.gamma, 1.0,
                                cs.phi + 0.05 * np.sin(bun.dom.x), max_iter=1)


def test_minres_matches_dense_solve_on_indefinite_system():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    evals = np.concatenate((-np.linspace(0.5, 3.0, 15), np.linspace(0.3, 5.0, 25)))
    a = (q * evals) @ q.T
    b = rng.standard_normal(40)
    want = np.linalg.solve(a, b)
    scale = 1.0 / (1.0 + np.abs(np.diag(a)))
    for precondition in (lambda r: r, lambda r: scale * r):
        x, iters = _minres(lambda v: a @ v, b, precondition, 1e-14, 400)
        assert 0 < iters < 400
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_minres_stalls_on_a_resonant_jacobian(bundle_factory):
    # gamma = 0 and lambda the lowest domain eigenvalue: H - lambda is
    # singular along the positive ground state, which a constant excites
    dom = bundle_factory(0.16).dom
    lam = float(dom.block_evals[0, 0])
    with pytest.raises(SolverError, match="MINRES stalled"):
        _minres(lambda v: dom.apply_h(v) - lam * v, np.ones(dom.n),
                _kinetic_preconditioner(dom, lam), 1e-12, dom.n)


def test_oracle_names_a_resonant_lambda(bundle_factory):
    # from the constant start c the Jacobian is H + 3 gamma c^2 - lambda, so
    # lambda = E0 + 3 gamma c^2 makes it singular along the ground state,
    # and the residual has a component c^3 <1, u_ground> along it
    dom = bundle_factory(0.16).dom
    c = 0.1
    lam = float(dom.block_evals[0, 0]) + 3 * c**2
    with pytest.raises(SolverError, match="singular continuum Jacobian: lambda resonant"):
        st.direct_newton_oracle(dom, lam, 1.0, 1.0, np.full(dom.n, c))


def test_oracle_stays_matrix_free(bundle_factory, ladder_states):
    import tracemalloc

    bun = bundle_factory(0.16)
    tbp = with_eta(bun.tbp, -3.0)
    cs = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom, bun.wb,
                                    delta0=8.0)
    seed = cs.phi + 1e-3 * np.sin(bun.dom.x)
    assert (bun.dom.cells, bun.dom.points_per_cell) == (32, 64)
    tracemalloc.start()
    try:
        orc = st.direct_newton_oracle(bun.dom, cs.lam, tbp.gamma, 1.0, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orc.residual_h <= 1e-11 and orc.minres_iterations > 0
    # a dense 2048 x 2048 matrix alone would be 32 MB
    assert peak < 4 * 2**20


def test_domain_doubling_stability(ref_cfg, ladder_states):
    import dataclasses

    from semitb.scan import build_pipeline

    lams, resids = [], []
    for cells in (32, 64):
        bun = build_pipeline(dataclasses.replace(ref_cfg, cells=cells), 0.16)
        tbp = with_eta(bun.tbp, -3.0)
        cs = st.reconstruct_and_correct(ladder_states[-3.0], tbp, bun.dom,
                                        bun.wb, delta0=8.0)
        lams.append(cs.lam)
        resids.append(cs.residual_h)
    assert abs(lams[0] - lams[1]) < 1e-9
    assert all(r <= 1e-9 for r in resids)
