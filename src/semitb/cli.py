"""Command-line entry point: config parsing and subcommands.

Configuration is an INI file with [potential], [numerics], [sweep] and
[io] sections.  Cache bundles (cache.BundleCache) are keyed by a hash of
the potential and numerics fields plus hbar, so a stale cache is never
silently reused.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import dataclasses
import functools
import glob
import importlib.util
import json
import logging
import os
import sys

import numpy as np

from . import bloch, scan
from .cache import CACHE_VERSION, BundleCache
from .errors import ConfigError, Error, PotentialError
from .potential import PotentialSpec, make_potential, tunneling_action

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# sha256 from CPython's built-in module, which gives hashlib's digests
# without mapping OpenSSL's libcrypto into the process
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


_REQUIRED = dataclasses.MISSING

# (section, key, attribute, kind, default): the one list of INI fields.
# The attributes stay flat on RunConfig because perfbench/gate.py reads them.
_FIELDS = (
    ("potential", "family", "family", str, _REQUIRED),
    ("potential", "v0", "v0", float, None),
    ("potential", "a", "a", float, _REQUIRED),
    ("potential", "coeffs", "coeffs", "floats", None),
    ("numerics", "n_pw", "n_pw", int, 129),
    ("numerics", "n_kappa", "n_kappa", int, 64),
    ("numerics", "cells", "cells", int, 32),
    ("numerics", "points_per_cell", "points_per_cell", int, 64),
    ("numerics", "lowdin_band", "lowdin_band", int, 6),
    ("numerics", "n_bands", "n_bands", int, 5),
    ("numerics", "delta0", "delta0", float, 8.0),
    ("sweep", "hbar", "hbar_ladder", "floats", _REQUIRED),
    ("sweep", "eta", "eta_values", "floats", _REQUIRED),
    ("sweep", "sigma", "sigma", float, _REQUIRED),
    ("sweep", "n_sites", "n_sites", int, 41),
    ("sweep", "seed_site", "seed_site", int, 0),
    ("io", "output_dir", "output_dir", str, "out"),
    ("io", "cache_dir", "cache_dir", str, "cache"),
)

# (section, key) pairs read by no run that the parser still accepts, unparsed
# and unstored: perfbench/workloads.py writes "formats = csv, json" into
# every INI it makes
_RETIRED = {("io", "formats")}


# the one [potential] field each family reads besides a; it is required
# for that family and refused for every other
_FAMILY_FIELD = {"sin2": "v0", "cos-series": "coeffs"}


class _RunConfigMethods:
    def potential(self) -> PotentialSpec:
        own = _FAMILY_FIELD.get(self.family)
        if own is None:
            raise ConfigError(f"potential.family: unsupported family {self.family!r}")
        for field in _FAMILY_FIELD.values():
            given = getattr(self, field) not in (None, ())
            if given and field != own:
                raise ConfigError(f"potential.{field}: not read by family {self.family}")
            if not given and field == own:
                raise ConfigError(f"potential.{field}: required by family {self.family}")
        try:
            return make_potential(self.family, a=self.a, **{own: getattr(self, own)})
        except PotentialError as exc:
            raise ConfigError(f"potential.{own}: {exc}") from exc


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(attr, tuple if kind == "floats" else kind,
      dataclasses.field(default=default))
     for _, _, attr, kind, default in _FIELDS],
    bases=(_RunConfigMethods,), namespace={"__module__": __name__},
    frozen=True, kw_only=True)


def _convert(section, key, kind, raw):
    try:
        if kind is str:
            return raw.strip()
        if kind is int:
            return int(raw)
        # + 0.0 turns -0.0 into 0.0, so -0 is written as the 0 it counts as
        value = (float(raw) + 0.0 if kind is float
                 else tuple(float(t) + 0.0 for t in raw.replace(",", " ").split()))
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    if np.isfinite(value).all():
        return value
    raise ConfigError(f"{section}.{key}: {raw.strip()!r} is not finite")


def parse_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    known = {row[:2] for row in _FIELDS} | _RETIRED
    for section in [*dict.fromkeys(row[0] for row in _FIELDS), *cp.sections()]:
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")
        for key in cp.options(section):
            if (section, key) not in known:
                raise ConfigError(f"{section}.{key}: unknown field")
    values = {}
    for section, key, attr, kind, default in _FIELDS:
        if cp.has_option(section, key):
            values[attr] = _convert(section, key, kind, cp.get(section, key))
        elif default is _REQUIRED:
            raise ConfigError(f"{section}.{key}: required field missing")
    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    # the Newton and contraction steps need a Lipschitz Jacobian of |phi|^{2 sigma} phi
    if cfg.sigma < 0.5:
        raise ConfigError("sweep.sigma: must be >= 1/2")
    if cfg.delta0 <= 0:
        raise ConfigError("numerics.delta0: must be positive")
    if any(h <= 0 for h in cfg.hbar_ladder):
        raise ConfigError("sweep.hbar: entries must be positive")
    ladder = cfg.hbar_ladder
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("sweep.hbar: ladder must be strictly decreasing")
    if len(ladder) < 4:
        raise ConfigError("sweep.hbar: ladder needs >= 4 points for slope fits")
    if 0.0 not in cfg.eta_values:
        raise ConfigError("sweep.eta: must include 0 exactly (linear reference)")
    if len(set(cfg.eta_values)) < len(cfg.eta_values):
        raise ConfigError("sweep.eta: values must be distinct (-0 counts as 0)")
    for section, key, least in (("sweep", "n_sites", 3), ("numerics", "points_per_cell", 2),
                                ("numerics", "lowdin_band", 0)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{section}.{key}: {getattr(cfg, key)} must be >= {least}")
    if not -(cfg.n_sites // 2) <= cfg.seed_site <= (cfg.n_sites - 1) // 2:
        raise ConfigError(f"sweep.seed_site: {cfg.seed_site} outside the lattice of "
                          f"sweep.n_sites = {cfg.n_sites} sites")
    try:
        bloch.FloquetConfig(hbar=ladder[0], n_pw=cfg.n_pw, n_kappa=cfg.n_kappa,
                            n_bands=cfg.n_bands)
    except ValueError as exc:
        # each of its messages opens with the field it rejects
        raise ConfigError(f"numerics.{str(exc).split()[0]}: {exc}") from exc
    if cfg.cells <= 2 * cfg.lowdin_band + 1:
        raise ConfigError(f"numerics.cells: {cfg.cells} too small for "
                          f"numerics.lowdin_band = {cfg.lowdin_band} "
                          f"(need cells > 2*lowdin_band + 1)")
    if cfg.a <= 0:
        raise ConfigError("potential.a: must be positive")
    for key in ("output_dir", "cache_dir"):
        _refuse_non_directory(f"io.{key}", getattr(cfg, key))
    cfg.potential()  # an unknown family fails here, whatever the subcommand


def _refuse_non_directory(key: str, path: str):
    """A directory the run writes to must not be an existing file."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise ConfigError(f"{key}: {path!r} exists and is not a directory")


def config_hash(cfg: RunConfig, hbar: float) -> str:
    """Short hash over the potential and numerics fields and hbar.

    The cached bands and basis do not depend on delta0, which budgets only
    the reconstruction, nor on the sweep's sigma, so both are left out.
    """
    payload = {attr: getattr(cfg, attr) for section, _, attr, _, _ in _FIELDS
               if section in ("potential", "numerics") and attr != "delta0"}
    payload["version"] = CACHE_VERSION
    payload["hbar"] = hbar
    blob = json.dumps(payload, sort_keys=True)
    return _sha256(blob.encode()).hexdigest()[:16]


def _pipeline_bundle(cfg: RunConfig, cache: BundleCache, hb: float):
    """The PipelineBundle of one hbar, its bands, basis and domain blocks
    through the cache."""
    key = config_hash(cfg, hb)
    bd = cache.load_bands(key)
    wb = cache.load_basis(key)
    blocks = cache.load_domain(key, cfg.cells, cfg.points_per_cell)
    bun = scan.build_pipeline(cfg, hb, bd=bd, wb=wb, blocks=blocks)
    if bd is None:
        cache.store_bands(key, bun.bd)
    if wb is None:
        cache.store_basis(key, bun.wb)
    if blocks is None:
        cache.store_domain(key, bun.dom)
    log.info("pipeline hbar=%g %s", hb, "(cached bands)" if bd is not None else "")
    return bun


# -- subcommands ----------------------------------------------------------------


def cmd_bands(cfg: RunConfig) -> int:
    """Solve the Floquet bands and write bands_h*.csv."""
    cache = BundleCache(cfg.cache_dir)
    for hb in cfg.hbar_ladder:
        key = config_hash(cfg, hb)
        bd = cache.load_bands(key)
        if bd is None:
            bd = scan.band_data(cfg, hb)
            cache.store_bands(key, bd)
        else:
            print(f"bands hbar={hb:g}: served from cache")
        out = os.path.join(cfg.output_dir, f"bands_h{hb:g}.csv")
        scan._write_csv(out, ("n", "kappa", "E"),
                        ((n + 1, k, e) for n in range(bd.n_bands)
                         for k, e in zip(bd.kappa, bd.energies[n])))
        print(f"wrote {out}")
    return EXIT_OK


def cmd_wannier(cfg: RunConfig) -> int:
    """Build the localized basis and write wannier_h*.csv."""
    cache = BundleCache(cfg.cache_dir)
    for hb in cfg.hbar_ladder:
        bun = _pipeline_bundle(cfg, cache, hb)
        out = os.path.join(cfg.output_dir, f"wannier_h{hb:g}.csv")
        scan._write_csv(out, ("x", "W", "u0"),
                        zip(bun.dom.x, scan.fix_gauge(bun.dom), bun.wb.u0))
        print(f"wrote {out}")
        del bun  # dropped before the next hbar's bundle is built
    return EXIT_OK


def cmd_params(cfg: RunConfig) -> int:
    """Extract the lattice parameters into params.csv."""
    cache = BundleCache(cfg.cache_dir)
    s0 = tunneling_action(cfg.potential())
    rows = []
    for hb in cfg.hbar_ladder:
        rows += scan.params_rows(hb, _pipeline_bundle(cfg, cache, hb),
                                 cfg.eta_values, s0)
    out = os.path.join(cfg.output_dir, "params.csv")
    scan._write_csv(out, scan.PARAMS_HEADER, rows)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_dnls(cfg: RunConfig) -> int:
    """Continue the DNLS branch into dnls_ladder.csv."""
    states = scan._dnls_ladder(cfg)
    out = os.path.join(cfg.output_dir, "dnls_ladder.csv")
    scan._write_csv(out, scan.dnls_header(cfg.n_sites), scan.dnls_rows(states))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_scan(cfg: RunConfig) -> int:
    """Run the (hbar, eta) sweep and write every output."""
    cache = BundleCache(cfg.cache_dir)
    report = scan.run_sweep(cfg, functools.partial(_pipeline_bundle, cfg, cache),
                            out_dir=cfg.output_dir)
    for path in report.written:
        print(f"wrote {path}")
    if report.gaps:
        print(f"{len(report.gaps)} sweep points failed; see fits.json gaps")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Check the 11 acceptance criteria, one line each."""
    from . import acceptance
    results = acceptance.run_all(cfg)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name:<{width}}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semitb",
        description="Semiclassical tight-binding reduction of the periodic "
                    "stationary NLSE: bands, localized bases, lattice "
                    "parameters, DNLS branches, continuum reconstruction.")
    p.add_argument("--config", default="run.ini", help="run configuration file")
    p.add_argument("--cache", default=None, help="override cache directory")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.set_defaults(func=fn)
    return p


_COMMANDS = {
    "bands": cmd_bands,
    "wannier": cmd_wannier,
    "params": cmd_params,
    "dnls": cmd_dnls,
    "scan": cmd_scan,
    "verify": cmd_verify,
}


# thread setters of the OpenBLAS builds numpy (64-bit ints) and scipy ship
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads")


@contextlib.contextmanager
def _blas_on_one_thread():
    """Run numpy's and scipy's OpenBLAS on one thread, unless the user chose.

    The stacked problems here are small: a second BLAS thread costs CPU
    time and adds jitter, and it buys no wall time.  A build not loaded yet
    reads OPENBLAS_NUM_THREADS when it loads, so the variable is set for
    the block and removed after it; a caller in the same process does not
    inherit it.  A loaded build is reached by RTLD_NOLOAD, which never
    loads one, and set through its own setter; a library or setter that is
    not there is skipped.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        for pkg in ("numpy", "scipy"):
            # wheels keep their bundled libraries in <package>.libs beside it
            libs = os.path.dirname(importlib.util.find_spec(pkg).origin) + ".libs"
            for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
                try:
                    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                except OSError:
                    continue  # not loaded in this process
                for name in _BLAS_SETTERS:
                    if hasattr(lib, name):
                        getattr(lib, name)(1)
                        break
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)


def main(argv=None) -> int:
    with _blas_on_one_thread():
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        try:
            cfg = parse_config(args.config)
            if args.cache:
                _refuse_non_directory("--cache", args.cache)
                cfg = dataclasses.replace(cfg, cache_dir=args.cache)
            return args.func(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except Error as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
