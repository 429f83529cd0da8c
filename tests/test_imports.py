"""No module-level import goes unused, the heavy ones wait for their use,
and the package itself reads every name it exports and every field of the
dataclasses it defines, and passes every defaulted parameter somewhere.

No linter ships with the test dependencies, so an AST scan stands in for
one over the package modules (`__init__.py` is left out: it re-exports)
and the test files.
"""

import ast
import collections
import dataclasses
import importlib
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
UNREAD_EXPORTS = {}

# dataclass fields that no package module reads as an attribute, each with
# the reason it stays
UNREAD_FIELDS = {
    "RunConfig.v0": "read by getattr through cli._FAMILY_FIELD",
    "RunConfig.coeffs": "read by getattr through cli._FAMILY_FIELD",
}

# defaulted parameters that no call site in the package passes, each with
# the reason it stays
UNPASSED_PARAMETERS = {
    "nlse.direct_newton_oracle.max_iter": "the tests force a non-convergence with it",
    "cli.main.argv": "None for the console entry point, which reads sys.argv",
}


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


def _package_reads():
    """(names, attribute names) that the package modules load."""
    names, attrs = set(), set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def test_every_export_is_read_by_the_package():
    names, attrs = _package_reads()
    read = names | attrs
    exports = {name for name in semitb.__all__
               if not inspect.ismodule(getattr(semitb, name))}
    assert sorted(exports - read - set(UNREAD_EXPORTS)) == []
    assert set(UNREAD_EXPORTS) <= exports - read  # no stale allowlist entry


def test_every_dataclass_field_is_read_by_the_package():
    # a match by name: a field counts as read wherever any attribute of
    # that name is loaded, so a shared name can hide an unread field
    _, attrs = _package_reads()
    unread = set()
    for path in MODULES:
        module = importlib.import_module(f"semitb.{path.stem}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                unread |= {f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                           if f.name not in attrs}
    assert sorted(unread - set(UNREAD_FIELDS)) == []
    assert set(UNREAD_FIELDS) <= unread  # no stale allowlist entry


def _defaulted_parameters(tree, prefix):
    """(qualified name, callee name, parameter, call position or None) of
    every defaulted parameter of the functions and methods in tree.

    A method's position counts its call arguments after self, and an
    __init__ is called by its class name.
    """
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
            elif isinstance(child, ast.FunctionDef):
                qual = f"{prefix}.{child.name}"
                callee = child.name
                if callee == "__init__":
                    callee = prefix.rsplit(".", 1)[-1]
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((f"{qual}.{arg.arg}", callee, arg.arg, i - in_class))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((f"{qual}.{arg.arg}", callee, arg.arg, None))
                visit(child, qual, False)
            else:
                visit(child, prefix, in_class)

    visit(tree, prefix, False)
    return found


def test_every_defaulted_parameter_is_passed_by_the_package():
    # a match by callee name, as the field check matches by attribute name:
    # a parameter counts as passed wherever a call of a function of that
    # name gives it by keyword or reaches its position
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    passed = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                passed[name].append(({k.arg for k in node.keywords}, len(node.args)))
    unpassed = set()
    for stem, tree in trees.items():
        for qual, callee, param, position in _defaulted_parameters(tree, stem):
            if not any(param in keywords or (position is not None and n > position)
                       for keywords, n in passed[callee]):
                unpassed.add(qual)
    assert sorted(unpassed - set(UNPASSED_PARAMETERS)) == []
    assert set(UNPASSED_PARAMETERS) <= unpassed  # no stale allowlist entry


# the numpy.linalg routines the package may call: symmetric eigen solves,
# linear solves, the inverse and norms
NUMPY_LINALG_CALLS = {"eigh", "eigvalsh", "solve", "inv", "norm"}

# least squares, SVD, QR and the general eigen solver, from any module
REFUSED_CALLS = {"polyfit", "lstsq", "svd", "pinv", "qr", "eig"}


def _dotted(node):
    """'np.linalg.eigh' for a Name or Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_package_calls_no_svd_least_squares_qr_or_general_eigen():
    # a straight-line fit has a closed form and every eigenproblem here is
    # symmetric, so no run needs LAPACK's SVD, QR or nonsymmetric routines
    refused, linalg_calls = [], set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [_dotted(node.func) or ""]
            else:
                continue
            for name in names:
                *module, attr = name.split(".")
                if attr in REFUSED_CALLS:
                    refused.append(f"{path.name}:{node.lineno} {name}")
                if module[:1] in (["np"], ["numpy"]) and module[-1:] == ["linalg"]:
                    linalg_calls.add(attr)
    assert refused == []
    assert sorted(linalg_calls - NUMPY_LINALG_CALLS) == []
    assert linalg_calls == NUMPY_LINALG_CALLS  # no stale allowlist entry


# calls that write the file system; the package makes them only in
# cache.write_file, the one writer, which makes the directory and renames a
# finished file into place
WRITE_CALLS = {f"{module}.{name}" for module in ("np", "numpy")
               for name in ("save", "savez", "savez_compressed")}
WRITE_CALLS |= {f"os.{name}" for name in ("makedirs", "mkdir", "replace", "rename")}


def _calls_by_function(tree, prefix):
    """(qualified name of the enclosing function or class, Call) of every
    call in tree."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                found.append((where, child))
            visit(child, where)

    visit(tree, prefix)
    return found


def _opens_for_writing(call):
    """True for a call of open whose mode is not a literal read mode."""
    if _dotted(call.func) != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt"))
               for m in modes)


def test_every_file_is_written_by_the_one_writer():
    # a file written anywhere else could be left torn under its name, or
    # leave a directory behind that a run made before it failed
    writes = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, call in _calls_by_function(tree, path.stem):
            name = _dotted(call.func)
            if name in WRITE_CALLS or _opens_for_writing(call):
                writes.append(f"{where} {name}")
    assert sorted(writes) == ["cache.write_file open", "cache.write_file os.makedirs",
                              "cache.write_file os.replace"]


def _loaded_after(code, modules):
    """Those of `modules` that a fresh interpreter has loaded after `code`."""
    code += f"; import sys; print(*(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return out.stdout.splitlines()[-1].split()  # after whatever `code` printed


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
    code = ("import semitb as st; "
            "st.make_potential('sin2', v0=8.0, a=1.0); "
            "st.make_potential('cos-series', a=1.0, coeffs=[4.0, 1.0]); "
            "st.free_potential(1.0)")
    assert _loaded_after(code, ("scipy.interpolate",)) == []


_SMALL_RUN = """\
[potential]
family = sin2
v0 = 8.0
a = 1.0

[numerics]
n_pw = 33
n_kappa = 16
cells = 16
points_per_cell = 32
lowdin_band = 4
delta0 = 8.0

[sweep]
hbar = 0.3, 0.25, 0.2, 0.15
eta = 0, -2, -50
sigma = 1.0
n_sites = 21

[io]
output_dir = {out}
cache_dir = {cache}
"""


def test_scan_and_verify_load_no_openssl_numpy_random_or_polynomial(tmp_path):
    # the cache key's sha256 is CPython's built-in one, the oracle starts
    # come from dnls's own generator and the action's rule is numpy-only
    ini = tmp_path / "run.ini"
    ini.write_text(_SMALL_RUN.format(out=tmp_path / "out", cache=tmp_path / "cache"))
    code = ("import semitb.cli as cli; "
            f"codes = [cli.main(['--config', {str(ini)!r}, cmd]) "
            "for cmd in ('scan', 'verify')]; "
            "assert codes[0] == 0 and codes[1] in (0, 1), codes")
    assert _loaded_after(code, ("hashlib", "_hashlib", "numpy.random",
                                "numpy.polynomial")) == []
