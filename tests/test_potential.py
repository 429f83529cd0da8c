import math

import numpy as np
import pytest
import sympy

import semitb as st
from semitb.errors import PotentialError
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
    with pytest.raises(PotentialError):
        st.make_potential("custom-samples", a=1.0, samples=np.zeros(32))


def test_double_well_cell_rejected():
    # 1 - cos(4 pi x / a) has two equally deep minima per period
    with pytest.raises(PotentialError):
        st.make_potential("cos-series", a=1.0, coeffs=[0.0, 1.0])


def test_unknown_family_rejected():
    with pytest.raises(PotentialError):
        st.make_potential("quartic", a=1.0)


def test_agmon_distance_analytic_values():
    spec = st.make_potential("sin2", v0=1.0, a=1.0)
    assert abs(st.agmon_distance(spec, 0.0, 1.0) - 2 / math.pi) < 1e-10
    assert st.agmon_distance(spec, 0.3, 0.3) == 0.0
    spec4 = st.make_potential("sin2", v0=4.0, a=1.0)
    assert abs(st.agmon_distance(spec4, 0.0, 1.0) - 4 / math.pi) < 1e-10


def test_agmon_distance_symmetric():
    spec = st.make_potential("sin2", v0=2.0, a=1.0)
    assert abs(st.agmon_distance(spec, -0.3, 0.9)
               - st.agmon_distance(spec, 0.9, -0.3)) < 1e-12


def test_tunneling_action_values():
    spec = st.make_potential("sin2", v0=1.0, a=1.0)
    assert abs(st.tunneling_action(spec) - 2 / math.pi) < 1e-10
    spec2 = st.make_potential("sin2", v0=1.0, a=2.0)
    assert abs(st.tunneling_action(spec2) - 4 / math.pi) < 1e-10


def test_action_additivity_over_periods():
    spec = st.make_potential("sin2", v0=3.0, a=1.0)
    s0 = st.tunneling_action(spec)
    for k in range(1, 5):
        d = st.agmon_distance(spec, spec.x0, spec.x0 + k * spec.a)
        assert abs(d - k * s0) < 1e-8


def test_action_scaling_homogeneity():
    rng = np.random.default_rng(4)
    coeffs = rng.uniform(0.2, 1.0, size=3)
    base = st.make_potential("cos-series", a=1.0, coeffs=coeffs)
    s0 = st.tunneling_action(base)
    for c in (0.5, 2.0, 3.7):
        scaled = st.make_potential("cos-series", a=1.0, coeffs=c**2 * coeffs)
        assert abs(st.tunneling_action(scaled) - c * s0) < 1e-10


def test_periodicity_of_families():
    specs = [
        st.make_potential("sin2", v0=8.0, a=1.0),
        st.make_potential("cos-series", a=2.0, coeffs=[1.0, 0.3]),
    ]
    for spec in specs:
        xs = np.linspace(-spec.a / 2, spec.a / 2, 1000, endpoint=False)
        v = np.asarray(spec.v(xs))
        vs = np.asarray(spec.v(xs + spec.a))
        assert np.abs(vs - v).max() <= 1e-12 * max(1.0, np.abs(v).max())


def test_custom_samples_spline_matches_source():
    a = 1.0
    xs = a * np.arange(256) / 256
    samples = 8.0 * np.sin(np.pi * xs) ** 2 + 5.0  # offset removed by normalization
    spec = st.make_potential("custom-samples", a=a, samples=samples)
    assert abs(spec.x0) < 1e-6
    assert abs(float(spec.v(spec.x0))) < 1e-12
    assert abs(spec.curvature - 16 * np.pi**2) / (16 * np.pi**2) < 1e-3
    s0 = st.tunneling_action(spec)
    assert abs(s0 - np.sqrt(8.0) * 2 / np.pi) < 1e-3


def test_agmon_tabulation_monotone_from_well():
    spec = st.make_potential("sin2", v0=2.0, a=1.0)
    grid = np.linspace(-2.0, 2.0, 257)
    d = action_profile(spec, grid)
    mid = np.argmin(np.abs(grid))
    assert d[mid] < 1e-12
    assert np.all(np.diff(d[mid:]) >= -1e-12)
    assert np.all(np.diff(d[:mid + 1]) <= 1e-12)


def test_agmon_tabulation_matches_pointwise_quadrature():
    spec = st.make_potential("sin2", v0=8.0, a=1.0)
    dom = st.PeriodicDomain(spec, 0.2, 32, 64)
    d = action_profile(spec, dom.x)
    ref = np.array([st.agmon_distance(spec, spec.x0, xi) for xi in dom.x])
    assert np.abs(d - ref).max() <= 1e-12


def test_free_potential_test_mode():
    spec = st.free_potential(2.0)
    assert spec.family == "free"
    assert float(spec.v(0.7)) == 0.0
