import math

import mpmath
import numpy as np
import pytest
import sympy
from conftest import EDGE_COEFFS
from hypothesis import given, settings
from hypothesis import strategies as hst

import semitb as st
from semitb import potential
from semitb.errors import PotentialError, QuadratureError
from semitb.potential import action_profile


def test_sin2_reference_well():
    spec = st.make_potential("sin2", v0=1.0, a=1.0)
    assert abs(spec.x0) < 1e-12
    assert abs(spec.curvature - 2 * math.pi**2) < 1e-10
    assert abs(float(spec.v(spec.x0))) < 1e-14


def test_sin2_scaled_curvature_against_symbolic_derivative():
    x = sympy.symbols("x")
    expr = 5 * sympy.sin(sympy.pi * x / 2) ** 2
    oracle = float(sympy.diff(expr, x, 2).subs(x, 0))
    spec = st.make_potential("sin2", v0=5.0, a=2.0)
    assert abs(oracle - 5 * math.pi**2 / 2) < 1e-12
    assert abs(spec.curvature - oracle) < 1e-10


def test_constant_potential_rejected():
    with pytest.raises(PotentialError, match="flat"):
        st.make_potential("cos-series", a=1.0, coeffs=[0.0])


def test_double_well_cell_rejected():
    # 1 - cos(4 pi x / a) has two equally deep minima per period
    with pytest.raises(PotentialError):
        st.make_potential("cos-series", a=1.0, coeffs=[0.0, 1.0])


@pytest.mark.parametrize("family, params, match", [
    ("sin2", dict(v0=8.0, a=0.0), "period must be positive, got 0.0"),
    ("cos-series", dict(a=-1.0, coeffs=[4.0]), "period must be positive, got -1.0"),
    ("cos-series", dict(a=1.0, coeffs=[]), "nonempty coefficient list"),
], ids=["sin2-a-zero", "cos-series-a-negative", "cos-series-empty"])
def test_invalid_family_parameters_rejected(family, params, match):
    with pytest.raises(PotentialError, match=match):
        st.make_potential(family, **params)


def test_unknown_family_rejected():
    # one spelling per family: near-miss spellings are unknown too
    for family in ("quartic", "cos_series", "Fourier", "custom-samples"):
        with pytest.raises(PotentialError, match="unknown potential family"):
            st.make_potential(family, a=1.0, coeffs=[4.0], vhat={1: -0.5})


def test_agmon_distance_analytic_values():
    spec = st.make_potential("sin2", v0=1.0, a=1.0)
    d = action_profile(spec, np.array([spec.x0, spec.x0 + 1.0]))
    assert d[0] == 0.0
    assert abs(d[1] - 2 / math.pi) < 1e-10
    spec4 = st.make_potential("sin2", v0=4.0, a=1.0)
    assert abs(action_profile(spec4, np.array([spec4.x0 + 1.0]))[0]
               - 4 / math.pi) < 1e-10


def test_agmon_distance_symmetric():
    # sin2 is even about its well, so the action is too, also past a cell
    # edge
    spec = st.make_potential("sin2", v0=2.0, a=1.0)
    s = np.array([0.3, 0.9, 1.7])
    left = action_profile(spec, spec.x0 - s)
    right = action_profile(spec, spec.x0 + s)
    assert np.abs(left - right).max() < 1e-12


def test_tunneling_action_values():
    spec = st.make_potential("sin2", v0=1.0, a=1.0)
    assert abs(st.tunneling_action(spec) - 2 / math.pi) < 1e-10
    spec2 = st.make_potential("sin2", v0=1.0, a=2.0)
    assert abs(st.tunneling_action(spec2) - 4 / math.pi) < 1e-10


def test_action_additivity_over_periods():
    spec = st.make_potential("sin2", v0=3.0, a=1.0)
    s0 = st.tunneling_action(spec)
    k = np.arange(1, 5)
    d = action_profile(spec, spec.x0 + k * spec.a)
    assert np.abs(d - k * s0).max() < 1e-12


def test_action_just_below_cell_edges():
    # one ulp below x0 + k*a, rel - floor(rel/a)*a can round to a tiny
    # negative offset, which belongs to the first panel, not the last
    spec = st.make_potential("cos-series", a=0.7, coeffs=[1.0] * 10)
    s0 = st.tunneling_action(spec)
    k = np.arange(1, 40)
    x = np.nextafter(spec.x0 + k * spec.a, -np.inf)
    rel = x - spec.x0
    assert np.any(rel - np.floor(rel / spec.a) * spec.a < 0)
    assert np.abs(action_profile(spec, x) - k * s0).max() <= 1e-12 * s0


def _property(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    database=None)


# a leading harmonic bounded away from zero keeps x = 0 the only well
_COEFFS = hst.tuples(hst.floats(0.2, 1.0),
                     hst.lists(hst.floats(0.0, 1.0), max_size=3)).map(
                         lambda t: [t[0], *t[1]])


@_property(20)
@given(coeffs=_COEFFS, c=hst.floats(0.3, 4.0))
def test_action_scaling_homogeneity(coeffs, c):
    s0 = st.tunneling_action(st.make_potential("cos-series", a=1.0,
                                               coeffs=coeffs))
    scaled = st.make_potential("cos-series", a=1.0,
                               coeffs=[c**2 * ck for ck in coeffs])
    assert abs(st.tunneling_action(scaled) - c * s0) <= 1e-12 * c * s0


@_property(20)
@given(coeffs=_COEFFS, k=hst.integers(0, 50), r=hst.floats(0.0, 1.0,
                                                           exclude_max=True))
def test_action_period_additivity(coeffs, k, r):
    spec = st.make_potential("cos-series", a=1.0, coeffs=coeffs)
    s0 = st.tunneling_action(spec)
    d = action_profile(spec, spec.x0 + np.array([k * spec.a + r, r]))
    assert abs(d[0] - (k * s0 + d[1])) <= 1e-12 * max(1, k) * s0


def test_action_refinement_failure_is_named(monkeypatch):
    # ten equal harmonics need 16 panels; at 8 the two levels still differ
    spec = st.make_potential("cos-series", a=1.0, coeffs=[1.0] * 10)
    s0 = st.tunneling_action(spec)
    monkeypatch.setattr(potential, "_MAX_PANELS", 8)
    with pytest.raises(QuadratureError) as info:
        st.tunneling_action(spec)
    assert info.value.achieved > potential._GL_AGREE * np.finfo(float).eps * s0
    assert "cos-series" in str(info.value) and "8 panels" in str(info.value)


@pytest.mark.parametrize("n", [8, 16, potential._GL_NODES])
def test_gauss_legendre_rule_is_numpys_bit_for_bit(n):
    from numpy.polynomial.legendre import leggauss

    nodes, weights = potential._gauss_legendre(n)
    ref_nodes, ref_weights = leggauss(n)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_periodicity_of_families():
    specs = [
        st.make_potential("sin2", v0=8.0, a=1.0),
        st.make_potential("cos-series", a=2.0, coeffs=[1.0, 0.3]),
        st.make_potential("cos-series", a=1.0, coeffs=EDGE_COEFFS),
    ]
    for spec in specs:
        xs = np.linspace(-spec.a / 2, spec.a / 2, 1000, endpoint=False)
        v = np.asarray(spec.v(xs))
        vs = np.asarray(spec.v(xs + spec.a))
        assert np.abs(vs - v).max() <= 1e-12 * max(1.0, np.abs(v).max())


def _cos_series(coeffs, x, order):
    """The order-th derivative of sum_k c_k (1 - cos(2 pi k x)) in closed
    form, before its minimum is subtracted."""
    t = 2 * np.pi * x
    terms = [(1 - np.cos(k * t), 2 * np.pi * k * np.sin(k * t),
              4 * np.pi**2 * k**2 * np.cos(k * t))[order] * c
             for k, c in enumerate(coeffs, start=1)]
    return sum(terms)


@pytest.mark.parametrize("coeffs, x0", [([4.0, 1.0, 0.5], 0.0),
                                        (EDGE_COEFFS, -0.5)],
                         ids=["centre", "edge"])
def test_kernel_matches_the_cos_series_closed_form(coeffs, x0):
    spec = st.make_potential("cos-series", a=1.0, coeffs=coeffs)
    assert spec.x0 == x0
    x = np.linspace(-2.0, 2.0, 801).reshape(3, 267)
    vmin = _cos_series(coeffs, x0, 0)
    assert abs(spec.curvature - _cos_series(coeffs, x0, 2)) <= 1e-12 * spec.curvature
    assert np.abs(spec.v(x) - (_cos_series(coeffs, x, 0) - vmin)).max() <= 1e-12
    for order, scale in ((1, 2 * np.pi), (2, 4 * np.pi**2)):
        err = np.abs(spec.v(x, order) - _cos_series(coeffs, x, order)).max()
        assert err <= 1e-12 * scale * sum(np.abs(coeffs))


def test_cos_series_coefficients():
    # {0: sum c_k, k: -c_k / 2}; V(x0) = 0 moves vhat_0 by roundoff only
    coeffs = [4.0, 1.0, 0.5]
    vhat = st.make_potential("cos-series", a=1.0, coeffs=coeffs).vhat
    assert np.array_equal(vhat[1:], [-2.0, -0.5, -0.25])
    assert abs(vhat[0] - 5.5) <= 1e-14 and vhat.dtype == float


def test_fourier_coefficients_refused():
    # the complex coefficient family is gone: every even potential is a
    # cos-series, and a vhat mapping is no family at all
    for vhat in ({0: 4.0, 1: -2.0}, {0: 4.0, 1: -2.0 - 0.75j}):
        with pytest.raises(PotentialError, match="unknown potential family 'fourier'"):
            st.make_potential("fourier", a=1.0, vhat=vhat)


def test_agmon_tabulation_monotone_from_well():
    spec = st.make_potential("sin2", v0=2.0, a=1.0)
    grid = np.linspace(-2.0, 2.0, 257)
    d = action_profile(spec, grid)
    mid = np.argmin(np.abs(grid))
    assert d[mid] < 1e-12
    assert np.all(np.diff(d[mid:]) >= -1e-12)
    assert np.all(np.diff(d[:mid + 1]) <= 1e-12)


def test_agmon_tabulation_matches_sin2_closed_form():
    # V = V0 sin^2(pi x): d(x0, x0 + m + r) = m s0 + sqrt(V0)(1 - cos pi r)/pi
    spec = st.make_potential("sin2", v0=8.0, a=1.0)
    x, _, _ = st.domain_grid(spec.a, 32, 64)
    rel = x - spec.x0
    m = np.floor(rel)
    r = rel - m
    root = math.sqrt(8.0)
    ref = np.abs(m * 2 * root / math.pi + root * (1 - np.cos(np.pi * r)) / math.pi)
    assert np.abs(action_profile(spec, x) - ref).max() <= 1e-13


def _mpmath_action(f, x0, a, offsets):
    """Reference (s0, d(x0, x0 + r) per offset r) from mpmath.quad."""
    arms = np.array([float(mpmath.quad(f, [x0, x0 + r])) for r in offsets])
    return float(mpmath.quad(f, [x0, x0 + a])), arms


def test_agmon_tabulation_matches_pointwise_quadrature():
    coeffs = [4.0, 1.0, 0.5]
    cos_series = st.make_potential("cos-series", a=1.0, coeffs=coeffs)

    def root_cos(t):
        return mpmath.sqrt(mpmath.fsum(
            c * (1 - mpmath.cos(2 * mpmath.pi * (k + 1) * t))
            for k, c in enumerate(coeffs)))

    # the well at the cell edge, x0 = -a/2
    edge = st.make_potential("cos-series", a=1.0, coeffs=EDGE_COEFFS)
    vmin = mpmath.mpf(float(_cos_series(EDGE_COEFFS, edge.x0, 0)))

    def root_edge(t):
        v = mpmath.fsum(c * (1 - mpmath.cos(2 * mpmath.pi * (k + 1) * t))
                        for k, c in enumerate(EDGE_COEFFS))
        return mpmath.sqrt(max(v - vmin, 0))

    offsets = np.random.default_rng(7).uniform(0.0, 1.0, 12)
    m = np.arange(-2, 3)[:, None]
    for spec, f in ((cos_series, root_cos), (edge, root_edge)):
        with mpmath.workdps(20):
            s0, arms = _mpmath_action(f, spec.x0, spec.a, offsets)
        d = action_profile(spec, spec.x0 + m * spec.a + offsets)
        assert abs(st.tunneling_action(spec) - s0) <= 1e-12
        assert np.abs(d - np.abs(m * s0 + arms)).max() <= 1e-12


def test_free_potential_test_mode():
    spec = st.free_potential(2.0)
    assert spec.family == "free"
    assert float(spec.v(0.7)) == 0.0
