import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import semitb as st
from conftest import FOLDS, REF_CFG, lost_interval
from semitb import dnls
from semitb.dnls import (
    brute_force_states,
    linear_ground_state,
    newton_solve,
    operator_l1_norm,
)
from semitb.errors import NonConvergenceError, SolverError, TailFitError
from semitb.scan import _dnls_ladder


def test_residual_decoupled_delta():
    prob = st.DnlsProblem(eta=-5.0, sigma=1.0, n_sites=11)
    f = np.zeros(11)
    f[5] = 1.0
    r = st.dnls_residual(f, -prob.eta, prob)
    assert abs(r[5]) < 1e-15            # E = -eta kills the seeded site
    assert abs(r[4] + 1.0) < 1e-15 and abs(r[6] + 1.0) < 1e-15
    assert np.abs(r[[0, 1, 2, 3, 7, 8, 9, 10]]).max() < 1e-15


def test_residual_plane_wave_linear_spectrum():
    # the chain's standing waves sin(pi m j/(N+1)) have the exact
    # eigenvalues 2cos(pi m/(N+1)) of T
    n = 16
    prob = st.DnlsProblem(eta=0.0, sigma=1.0, n_sites=n)
    j = np.arange(1, n + 1)
    for m in (1, 3, 5):
        k = np.pi * m / (n + 1)
        f = np.sin(k * j) * np.sqrt(2 / (n + 1))
        assert abs(np.linalg.norm(f) - 1.0) < 1e-14
        assert np.abs(st.dnls_residual(f, 2 * np.cos(k), prob)).max() < 1e-14
        # the same eigenvalue written as -2cos belongs to the staggered wave,
        # mode N + 1 - m
        fs = (-1.0) ** (j + 1) * f
        assert np.abs(st.dnls_residual(fs, -2 * np.cos(k), prob)).max() < 1e-14


def test_rayleigh_orthogonality():
    rng = np.random.default_rng(2)
    prob = st.DnlsProblem(eta=-1.3, sigma=1.0, n_sites=17)
    f = rng.standard_normal(17)
    f /= np.linalg.norm(f)
    t = np.zeros(17)
    t[:-1] += f[1:]
    t[1:] += f[:-1]
    e = float(f @ t - prob.eta * np.sum(np.abs(f) ** 4))
    assert abs(f @ st.dnls_residual(f, e, prob)) < 1e-12


def test_linearization_spectrum_linear_case():
    n = 16
    prob = st.DnlsProblem(eta=0.0, sigma=1.0, n_sites=n)
    e = 0.7
    lp = st.linearization_lplus(np.zeros(n), e, prob)
    expect = np.sort(e - 2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    assert np.abs(np.sort(np.linalg.eigvalsh(lp)) - expect).max() < 1e-12


def test_linearization_anticontinuum_diagonal():
    prob = st.DnlsProblem(eta=-7.0, sigma=1.0, n_sites=11)
    f = np.zeros(11)
    f[5] = 1.0
    e = 7.0
    lp = st.linearization_lplus(f, e, prob)
    assert abs(lp[5, 5] - (e + 3 * prob.eta)) < 1e-14
    off = [lp[i, i] for i in range(11) if i != 5]
    assert np.abs(np.array(off) - e).max() < 1e-14


def test_stencil_matrices_match_explicit_tridiagonal():
    rng = np.random.default_rng(5)
    for n in (3, 7, 41):
        t = np.zeros((n, n))
        idx = np.arange(n - 1)
        t[idx, idx + 1] = t[idx + 1, idx] = 1.0
        prob = st.DnlsProblem(eta=-2.5, sigma=1.0, n_sites=n)
        f = rng.standard_normal(n)
        lp = st.linearization_lplus(f, 0.7, prob)
        assert np.array_equal(lp, np.diag(0.7 - 7.5 * f**2) - t)
        # the closed-form reference state against eigh's top eigenpair
        s = linear_ground_state(n, 1.0)
        assert s.e == dnls._band_top(n)
        w, v = np.linalg.eigh(t)
        assert abs(s.e - w[-1]) <= 4 * np.spacing(s.e)
        top = v[:, -1] * np.sign(v[np.argmax(np.abs(v[:, -1])), -1])
        assert np.abs(s.f - top).max() <= 1e-14
        assert np.linalg.norm(t @ s.f - s.e * s.f) <= 1e-14


def test_linearization_matches_finite_differences():
    rng = np.random.default_rng(11)
    prob = st.DnlsProblem(eta=-3.0, sigma=1.0, n_sites=15)
    f = rng.standard_normal(15)
    f /= np.linalg.norm(f)
    lp = st.linearization_lplus(f, 2.1, prob)
    for _ in range(20):
        v = rng.standard_normal(15)
        v /= np.linalg.norm(v)
        eps = 1e-6
        fd = (st.dnls_residual(f + eps * v, 2.1, prob)
              - st.dnls_residual(f - eps * v, 2.1, prob)) / (2 * eps)
        ref = lp @ v
        assert np.linalg.norm(fd - ref) / np.linalg.norm(ref) < 1e-6


def test_anticontinuum_energy_and_localization(ladder_states):
    s = ladder_states[-50.0]
    assert abs(s.e + s.eta) <= 10 / abs(s.eta)
    assert s.participation < 1.01
    assert s.residual_norm <= 1e-10
    assert abs(np.linalg.norm(s.f) - 1.0) <= 1e-12


def test_anticontinuum_inverse_bound(ladder_states):
    s = ladder_states[-50.0]
    prob = st.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=41)
    lp = st.linearization_lplus(s.f, s.e, prob)
    assert operator_l1_norm(np.linalg.inv(lp)) <= 2.0


def test_translated_seed_gives_translated_branch():
    prob = st.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=41)
    s0 = st.solve_anticontinuum(prob, 0, [-50.0])[-50.0]
    s3 = st.solve_anticontinuum(prob, 3, [-50.0])[-50.0]
    assert np.abs(np.roll(s0.f, 3) - s3.f).max() < 1e-10


def test_continuation_path_validation():
    prob = st.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=21)
    with pytest.raises(ValueError):
        st.solve_anticontinuum(prob, 0, [-20.0, -8.0])     # starts too low
    with pytest.raises(ValueError):
        st.solve_anticontinuum(prob, 0, [-50.0, -8.0, -20.0])  # |eta| grows
    with pytest.raises(ValueError):
        st.solve_anticontinuum(prob, 30, [-50.0])          # seed off lattice
    even = st.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=20)  # sites -10..9
    assert st.solve_anticontinuum(even, -10, [-50.0])[-50.0].f.argmax() == 0
    with pytest.raises(ValueError, match="seed site"):
        st.solve_anticontinuum(even, 10, [-50.0])


def test_decay_rate_values(ladder_states):
    tau50 = st.decay_rate(ladder_states[-50.0].f)
    assert abs(tau50 - np.log(50)) / np.log(50) < 0.2
    etas = sorted(ladder_states, key=abs, reverse=True)
    taus = [st.decay_rate(ladder_states[e].f) for e in etas if abs(e) >= 2]
    assert all(b < a for a, b in zip(taus, taus[1:]))


def _polyfit_rate(f):
    """decay_rate's reference: SVD least squares on the same tail sites."""
    mag = np.abs(f)
    dist = np.abs(np.arange(f.size) - np.argmax(mag))
    mask = (mag >= 1e-12) & (mag <= 1e-2)
    return -np.polyfit(dist[mask], np.log(mag[mask]), 1)[0]


def test_decay_rate_matches_polyfit_on_ladder_tails(ladder_states):
    for eta, s in ladder_states.items():
        tau = st.decay_rate(s.f)
        assert abs(tau - _polyfit_rate(s.f)) <= 1e-12 * abs(tau), eta


def test_fit_line_matches_polyfit_on_seeded_data():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        xs = np.sort(rng.uniform(-3.0, 12.0, n))
        ys = rng.normal(-2.0, 1.5) * xs + rng.normal(0.0, 5.0) + rng.normal(0.0, 0.3, n)
        slope, intercept = dnls.fit_line(xs, ys)
        want = np.polyfit(xs, ys, 1)
        assert abs(slope - want[0]) <= 1e-12 * abs(want[0])
        assert abs(intercept - want[1]) <= 1e-12 * abs(want[1])
        # a peak at site 0 with a noisy exponential tail of n sites
        f = np.zeros(41)
        f[0] = 1.0
        f[1:n + 1] = np.exp(-0.7 * np.arange(1, n + 1) + rng.normal(0.0, 0.2, n)) * 1e-3
        assert abs(st.decay_rate(f) - _polyfit_rate(f)) <= 1e-12 * st.decay_rate(f)


def test_decay_rate_error_paths():
    with pytest.raises(TailFitError, match=r"profile delocalized: participation .* >= N/4"):
        st.decay_rate(linear_ground_state(41, 1.0).f)
    f = np.zeros(41)
    f[20] = 1.0
    with pytest.raises(TailFitError, match=r"only 0 usable tail sites \(< 4\)"):
        st.decay_rate(f)
    f[21:24] = 1e-3  # three tail sites are one too few
    with pytest.raises(TailFitError, match=r"only 3 usable tail sites \(< 4\)"):
        st.decay_rate(f)


def test_sign_flipped_solution_also_solves(ladder_states):
    s = ladder_states[-8.0]
    prob = st.DnlsProblem(eta=-8.0, sigma=1.0, n_sites=41)
    r = st.dnls_residual(-s.f, s.e, prob)
    assert np.linalg.norm(r) <= 1e-10


def test_brute_force_oracle_matches_continuation():
    prob = st.DnlsProblem(eta=-8.0, sigma=1.0, n_sites=7)
    target = st.solve_anticontinuum(
        st.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=7), 0,
        [-50.0, -8.0])[-8.0]
    best = np.inf
    for cand in brute_force_states(prob, n_starts=200, seed=3):
        for sgn in (1.0, -1.0):
            best = min(best, float(np.abs(sgn * cand.f - target.f).max()))
    assert best <= 1e-8


def _draws(prob, n_starts, seed):
    """The brute-force starts as (f0, e0) pairs, from the oracle's own draw."""
    f0, e0 = dnls.random_starts(prob, n_starts, seed)
    return list(zip(f0, e0.tolist()))


# criterion 6's oracle: 200 starts at seed 3 on 7 sites at eta = -8
_CRITERION_6 = (st.DnlsProblem(eta=-8.0, sigma=1.0, n_sites=7), 200, 3)


def _splitmix64_reference(seed, n):
    """splitmix64 in Python integers, mod 2**64."""
    out = []
    for _ in range(n):
        seed = (seed + 0x9E3779B97F4A7C15) % 2**64
        z = seed
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 3, 11, 1234567, 2**64 - 1])
def test_generator_is_splitmix64(seed):
    got = [int(z) for z in dnls._splitmix64(seed, 8)]
    assert got == _splitmix64_reference(seed, 8)
    if seed == 1234567:  # the published first output of this seed
        assert got[0] == 6457827717110365317


def test_generator_moments():
    u = dnls._uniforms(11, 10**5)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005 and abs(u.var() - 1 / 12) < 0.002
    z = dnls._box_muller(dnls._uniforms(12, 10**5))
    assert z.size == 10**5 and np.isfinite(z).all()
    assert abs(z.mean()) < 0.015 and abs(z.var() - 1.0) < 0.02
    assert abs((z**3).mean()) < 0.05 and abs((z**4).mean() - 3.0) < 0.1


def test_random_starts_are_unit_rows_then_shifted_energies():
    f0, e0 = dnls.random_starts(*_CRITERION_6)
    assert f0.shape == (200, 7) and e0.shape == (200,)
    assert np.allclose(np.linalg.norm(f0, axis=1), 1.0, rtol=0, atol=1e-15)
    # the energies come after all 1400 normals, uniform on [-3, 3) + 8
    assert np.array_equal(e0, 6.0 * dnls._uniforms(3, 1600)[1400:] - 3.0 + 8.0)
    assert e0.min() >= 5.0 and e0.max() < 11.0


def _same_state(a, b):
    return (np.array_equal(a.f, b.f) and a.e == b.e
            and a.residual_norm == b.residual_norm)


def test_singular_member_fails_alone():
    prob = _CRITERION_6[0]
    # the first three criterion-6 starts: one stalls, two converge
    starts = [(np.zeros(7), 8.0)] + _draws(*_CRITERION_6)[:3]
    out = dnls._newton_stack(prob, np.array([f for f, _ in starts]),
                             [e for _, e in starts])
    assert isinstance(out[0], SolverError)
    assert "eta=-8.0" in str(out[0]) and "n_sites=7" in str(out[0])
    with pytest.raises(SolverError, match=r"singular .* iteration 1 \(eta=-8\.0"):
        newton_solve(prob, np.zeros(7), 8.0)
    for got, (f0, e0) in zip(out[1:], starts[1:]):
        try:
            solo = newton_solve(prob, f0, e0)
        except NonConvergenceError as exc:
            assert isinstance(got, NonConvergenceError)
            assert got.history == exc.history and str(got) == str(exc)
        else:
            assert _same_state(got, solo)


def test_stall_names_its_cause():
    # the first start of the criterion-6 oracle stalls for the full budget
    prob = _CRITERION_6[0]
    f0, e0 = _draws(*_CRITERION_6)[0]
    with pytest.raises(NonConvergenceError,
                       match=r"after 60 iterations \(eta=-8\.0, n_sites=7\)") as err:
        newton_solve(prob, f0, e0)
    assert len(err.value.history) == 60


def test_brute_force_oracle_keeps_its_states():
    # 129 of the 200 criterion-6 starts converge, in seed order: the first
    # start stalls and the next two converge, as they do alone
    prob, n_starts, seed = _CRITERION_6
    states = brute_force_states(prob, n_starts=n_starts, seed=seed)
    assert len(states) == 129
    assert all(s.residual_norm <= 1e-10 and abs(s.norm - 1.0) <= 1e-12
               for s in states)
    draws = _draws(*_CRITERION_6)
    assert all(_same_state(states[k], newton_solve(prob, *draws[k + 1]))
               for k in (0, 1))


def _property(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    database=None)


_SEEDS = hst.integers(0, 2**32 - 1)
_SITES = hst.integers(3, 21)
_ETAS = hst.floats(-20.0, -1.0)


@_property(10)
@given(seed=_SEEDS, n_sites=_SITES, eta=_ETAS)
def test_brute_force_is_a_stack_of_solo_solves(seed, n_sites, eta):
    # a start that stalls costs 60 Newton steps alone, so the stack is short
    prob = st.DnlsProblem(eta=eta, sigma=1.0, n_sites=n_sites)
    solo = []
    for f0, e0 in _draws(prob, 5, seed):
        try:
            solo.append(newton_solve(prob, f0, e0))
        except (SolverError, NonConvergenceError):
            continue
    stacked = brute_force_states(prob, n_starts=5, seed=seed)
    assert len(stacked) == len(solo)
    assert all(_same_state(a, b) for a, b in zip(stacked, solo))


@_property(20)
@given(seed=_SEEDS, n_sites=_SITES, eta=_ETAS)
def test_sign_flipped_start_gives_sign_flipped_state(seed, n_sites, eta):
    prob = st.DnlsProblem(eta=eta, sigma=1.0, n_sites=n_sites)
    f0, e0 = _draws(prob, 1, seed)[0]
    try:
        s = newton_solve(prob, f0, e0)
    except SolverError as exc:
        with pytest.raises(type(exc)):
            newton_solve(prob, -f0, e0)
        return
    t = newton_solve(prob, -f0, e0)
    assert np.array_equal(t.f, -s.f) and t.e == s.e
    assert t.residual_norm == s.residual_norm


def test_no_normalized_solution_below_band_bottom():
    rng = np.random.default_rng(0)
    for eta in (1e-6, -1e-6):
        prob = st.DnlsProblem(eta=eta, sigma=1.0, n_sites=21)
        for _ in range(50):
            f0 = rng.standard_normal(21)
            f0 /= np.linalg.norm(f0)
            e0 = rng.uniform(-4.0, 4.0)
            try:
                s = newton_solve(prob, f0, e0)
            except (SolverError, NonConvergenceError):
                continue
            assert s.e >= -2.0 - 1e-3


def test_problem_validation():
    with pytest.raises(ValueError):
        st.DnlsProblem(eta=-1.0, sigma=0.0)
    with pytest.raises(ValueError):
        st.DnlsProblem(eta=-1.0, sigma=1.0, n_sites=2)
    with pytest.raises(ValueError):
        st.DnlsProblem(eta=-1.0, sigma=1.0, boundary="absorbing")
    # the zero-boundary chain is the only lattice; the ring stencil is gone
    with pytest.raises(ValueError, match="unknown boundary 'periodic'"):
        st.DnlsProblem(eta=-1.0, sigma=1.0, boundary="periodic")
    assert st.DnlsProblem(eta=-1.0, boundary="zero") == st.DnlsProblem(eta=-1.0)


def _ladder_state(cfg, eta, others=()):
    cfg = dataclasses.replace(cfg, eta_values=(0.0, eta, *others))
    return _dnls_ladder(cfg)[eta]


def test_coarse_eta_list_stays_on_the_branch(ref_cfg):
    # one step from -50 to -1 converges into the linear band (E = 1.16249,
    # P = 27.85); the band test halves it back onto the branch
    s = _ladder_state(ref_cfg, -1.0)
    assert abs(s.e - 2.06339) < 1e-5 and abs(s.participation - 11.79) < 1e-2
    ref = _dnls_ladder(ref_cfg)[-1.0]
    assert np.abs(s.f - ref.f).max() <= 1e-10


_REF_NEG_ETAS = hst.sampled_from([e for e in REF_CFG.eta_values if e < 0])


@_property(20)
@given(eta=_REF_NEG_ETAS, a=hst.lists(_REF_NEG_ETAS, max_size=4),
       b=hst.lists(_REF_NEG_ETAS, max_size=4))
def test_branch_state_does_not_depend_on_the_other_etas(ref_cfg, eta, a, b):
    sa, sb = _ladder_state(ref_cfg, eta, a), _ladder_state(ref_cfg, eta, b)
    assert np.abs(sa.f - sb.f).max() <= 1e-10


@pytest.mark.xfail(strict=True, reason="a jump that stays above lambda_max(T) "
                   "needs a step control on the change of F")
def test_jump_above_the_band_stays_on_the_branch(ref_cfg):
    # -50 -> -25.75 -> -1.5 lands on E = 2.00646, P = 26.0, out of the band
    # but off the branch (E = 2.14490, P = 7.72)
    s = _ladder_state(ref_cfg, -1.5)
    ref = _ladder_state(ref_cfg, -1.5, ref_cfg.eta_values)
    assert np.abs(s.f - ref.f).max() <= 1e-10


def test_persistent_rejection_names_the_band(monkeypatch, caplog):
    # above |eta| = 30 Newton is the real one; below it lands on the second
    # linear mode, inside the band, so the steps toward -20 are halved until
    # they give up near -30, and the one warning gives the band as the cause
    w, v = np.linalg.eigh(dnls.neighbor_sum(np.eye(11)))
    real = dnls.newton_solve

    def in_band_below_30(prob, f0, e0):
        if prob.eta <= -30.0:
            return real(prob, f0, e0)
        return dnls.DnlsState(eta=prob.eta, sigma=prob.sigma, f=v[:, -2], e=w[-2],
                              residual_norm=0.0)

    monkeypatch.setattr(dnls, "newton_solve", in_band_below_30)
    prob = st.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=11)
    with caplog.at_level("WARNING", logger="semitb.dnls"):
        states = st.solve_anticontinuum(prob, 0, [-50.0, -20.0, -10.0])
    assert list(states) == [-50.0]
    (record,) = caplog.records
    assert re.fullmatch(
        r"single-site branch lost between eta=-30 and -20: Newton converged to "
        r"E=1\.73205 at eta=-29\.9\d*, inside the linear band "
        r"\(-sign\(eta\) E <= lambda_max\(T\) = 1\.93185\)", record.getMessage())


def test_ladder_states_lie_above_the_band(ref_cfg):
    top = 2 * np.cos(np.pi / 42)
    assert abs(dnls._band_top(41) - 1.99441) < 1e-5
    states = _dnls_ladder(ref_cfg)
    assert all(s.e > top for eta, s in states.items() if eta != 0.0)


@pytest.mark.parametrize("sigma", sorted(FOLDS))
def test_continuation_stops_at_the_fold_and_names_it(sigma, caplog):
    path = [-50.0, -8.0, -5.5, -5.0, -4.0, -3.0, -2.0]
    prob = st.DnlsProblem(eta=-50.0, sigma=sigma, n_sites=21)
    with caplog.at_level("WARNING", logger="semitb.dnls"):
        states = st.solve_anticontinuum(prob, 0, path)
    fold = FOLDS[sigma]
    assert list(states) == [eta for eta in path if eta < fold]
    last, target = lost_interval(caplog.records)
    assert abs(last - fold) < 5e-4 and fold < target
    assert target == path[len(states)]  # the first point past the fold
    assert "Newton stalled" in caplog.text
