"""No module-level import goes unused, the heavy ones wait for their use,
and the package itself reads every name it exports.

No linter ships with the test dependencies, so an AST scan stands in for
one over the package modules (`__init__.py` is left out: it re-exports)
and the test files.
"""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import semitb

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "semitb").glob("*.py")
                 if p.name != "__init__.py")
FILES = MODULES + sorted((ROOT / "tests").glob("*.py"))

# exports that no package module reads, each with the reason it stays
UNREAD_EXPORTS = {"bloch_on_grid": "plane-wave reference of the tests"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in bound.items()
                    if name not in used)
    assert not unused, f"unused imports in {path.name}: {', '.join(unused)}"


def test_every_export_is_read_by_the_package():
    read = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exports = {name for name in semitb.__all__
               if not inspect.ismodule(getattr(semitb, name))}
    assert sorted(exports - read - set(UNREAD_EXPORTS)) == []
    assert set(UNREAD_EXPORTS) <= exports - read  # no stale allowlist entry


def _loaded_after(code, modules):
    """Those of `modules` that a fresh interpreter has loaded after `code`."""
    code += f"; import sys; print(*(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return out.stdout.split()


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.linalg (the band solve) is imported on first use, and
    # scipy.integrate and scipy.interpolate by nothing
    assert _loaded_after("import semitb.cli", ("scipy.linalg", "scipy.integrate",
                                               "scipy.interpolate")) == []


def test_action_loads_no_scipy_integrate_special_optimize_or_interpolate():
    # the action is a Gauss-Legendre rule in numpy; scipy.linalg alone loads
    # none of these modules either
    code = ("import numpy, semitb.cli; "
            "from semitb.potential import action_profile, make_potential, "
            "tunneling_action; "
            "spec = make_potential('sin2', v0=8.0, a=1.0); "
            "tunneling_action(spec); action_profile(spec, numpy.linspace(-2, 2, 9))")
    assert _loaded_after(code, ("scipy.integrate", "scipy.special",
                                "scipy.optimize", "scipy.interpolate")) == []


_SOLVE = ("import semitb as st; "
          "st.solve_bands({spec}, st.FloquetConfig(hbar=0.2, n_pw=41, n_kappa=8))")


@pytest.mark.parametrize("spec, loaded", [
    # tridiagonal: Sturm bisection in numpy
    ("st.make_potential('sin2', v0=8.0, a=1.0)", []),
    ("st.free_potential(1.0)", []),
    # half-bandwidth 2: the banded solver
    ("st.make_potential('cos-series', a=1.0, coeffs=[4.0, 1.0])", ["scipy.linalg"]),
], ids=["sin2", "free", "cos-series-2"])
def test_band_solve_loads_scipy_linalg_only_beyond_tridiagonal(spec, loaded):
    assert _loaded_after(_SOLVE.format(spec=spec), ("scipy.linalg",)) == loaded


def test_no_potential_family_loads_scipy_interpolate():
    # every family is a coefficient vector evaluated in numpy: no spline
    code = ("import cmath, semitb as st; "
            "st.make_potential('sin2', v0=8.0, a=1.0); "
            "st.make_potential('cos-series', a=1.0, coeffs=[4.0, 1.0]); "
            "st.free_potential(1.0); "
            "skew = st.make_potential('fourier', a=1.0, vhat={0: 4.0, "
            "1: -2.0 - 0.75j, 3: 0.35 * cmath.exp(0.4j)}); "
            "st.solve_bands(skew, st.FloquetConfig(hbar=0.2, n_pw=41, n_kappa=8))")
    assert _loaded_after(code, ("scipy.interpolate",)) == []
