"""Command-line entry point: config parsing, caching, subcommands.

Configuration is an INI file with [potential], [numerics], [sweep] and
[io] sections.  Cache bundles are keyed by a hash of the potential and
numerics fields plus hbar, so a stale cache is never silently reused.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import io
import json
import logging
import os
import sys

from . import bloch, scan, wannier
from .errors import ConfigError, Error, NonConvergenceError, SolverError
from .potential import PotentialSpec, make_potential, tunneling_action

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

CACHE_VERSION = 2


_REQUIRED = dataclasses.MISSING

# (section, key, attribute, kind, default): the one list of INI fields.
# The attributes stay flat on RunConfig because perfbench/gate.py reads them.
_FIELDS = (
    ("potential", "family", "family", str, _REQUIRED),
    ("potential", "v0", "v0", float, _REQUIRED),
    ("potential", "a", "a", float, _REQUIRED),
    ("potential", "coeffs", "coeffs", "floats", ()),
    *(("numerics", f.name, f.name, type(f.default), f.default)
      for f in dataclasses.fields(scan.Numerics)),
    ("sweep", "hbar", "hbar_ladder", "floats", _REQUIRED),
    ("sweep", "eta", "eta_values", "floats", _REQUIRED),
    ("sweep", "sigma", "sigma", float, _REQUIRED),
    ("sweep", "n_sites", "n_sites", int, 41),
    ("sweep", "seed_site", "seed_site", int, 0),
    ("io", "output_dir", "output_dir", str, "out"),
    ("io", "cache_dir", "cache_dir", str, "cache"),
    ("io", "formats", "formats", "strs", ("csv", "json")),
)


class _RunConfigMethods:
    def numerics(self) -> scan.Numerics:
        return scan.Numerics(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(scan.Numerics)})

    def potential(self) -> PotentialSpec:
        if self.family == "sin2":
            return make_potential("sin2", v0=self.v0, a=self.a)
        if self.family in ("cos-series", "cos_series"):
            return make_potential("cos-series", a=self.a, coeffs=list(self.coeffs))
        raise ConfigError(f"potential.family: unsupported family {self.family!r}")

    def plan(self, out_dir=None) -> scan.SweepPlan:
        return scan.SweepPlan(
            spec=self.potential(), hbar_ladder=self.hbar_ladder,
            eta_values=self.eta_values, sigma=self.sigma, n_sites=self.n_sites,
            seed_site=self.seed_site, numerics=self.numerics(),
            out_dir=out_dir if out_dir is not None else self.output_dir,
        )


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(attr, tuple if kind in ("floats", "strs") else kind,
      dataclasses.field(default=default))
     for _, _, attr, kind, default in _FIELDS],
    bases=(_RunConfigMethods,), namespace={"__module__": __name__},
    frozen=True, kw_only=True)


def _convert(section, key, kind, raw):
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind is str:
            return raw.strip()
        if kind == "floats":
            return tuple(float(t) for t in raw.replace(",", " ").split())
        if kind == "strs":
            return tuple(t.strip() for t in raw.replace(",", " ").split() if t.strip())
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    raise ConfigError(f"{section}.{key}: unknown field kind")


def _format(kind, value) -> str:
    if kind == "floats":
        return ", ".join(repr(v) for v in value)
    if kind == "strs":
        return ", ".join(value)
    return repr(value) if kind is float else str(value)


def parse_config(path: str, allow_low_sigma: bool = False) -> RunConfig:
    """Parse and validate a run configuration file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in dict.fromkeys(row[0] for row in _FIELDS):
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")
        known = {key for sec, key, *_ in _FIELDS if sec == section}
        for key in cp.options(section):
            if key not in known:
                raise ConfigError(f"{section}.{key}: unknown field")
    values = {}
    for section, key, attr, kind, default in _FIELDS:
        if cp.has_option(section, key):
            values[attr] = _convert(section, key, kind, cp.get(section, key))
        elif default is _REQUIRED:
            raise ConfigError(f"{section}.{key}: required field missing")
    cfg = RunConfig(**values)
    _validate(cfg, allow_low_sigma)
    return cfg


def _validate(cfg: RunConfig, allow_low_sigma: bool):
    if cfg.sigma <= 0:
        raise ConfigError("sweep.sigma: must be positive")
    if cfg.sigma < 0.5 and not allow_low_sigma:
        raise ConfigError(
            "sweep.sigma: below 1/2 needs --allow-low-sigma (reduced-model "
            "regularity is not guaranteed there)")
    if cfg.delta0 <= 0:
        raise ConfigError("numerics.delta0: must be positive")
    if any(h <= 0 for h in cfg.hbar_ladder):
        raise ConfigError("sweep.hbar: entries must be positive")
    if cfg.a <= 0:
        raise ConfigError("potential.a: must be positive")


def serialize_config(cfg: RunConfig) -> str:
    """Round-trippable INI text for a RunConfig."""
    cp = configparser.ConfigParser()
    for section, key, attr, kind, _ in _FIELDS:
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = _format(kind, getattr(cfg, attr))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_hash(cfg: RunConfig, hbar: float | None = None) -> str:
    """Short hash over potential + numerics fields (and hbar when given).

    delta0 budgets only the reconstruction, so it is left out; sigma is in.
    """
    payload = {attr: getattr(cfg, attr) for section, _, attr, _, _ in _FIELDS
               if section in ("potential", "numerics") and attr != "delta0"}
    payload.update(version=CACHE_VERSION, sigma=cfg.sigma)
    if hbar is not None:
        payload["hbar"] = hbar
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class BundleCache:
    """Band and basis bundles on disk, keyed by configuration hash."""

    def __init__(self, cache_dir: str):
        self.dir = cache_dir

    def band_path(self, key: str) -> str:
        return os.path.join(self.dir, f"bands_{key}.npz")

    def basis_path(self, key: str) -> str:
        return os.path.join(self.dir, f"basis_{key}.npz")

    def _load(self, path, loader):
        if not os.path.exists(path):
            return None
        try:
            return loader(path)
        except (Error, OSError, ValueError, KeyError) as exc:
            log.warning("cache bundle %s unusable (%s); rebuilding", path, exc)
            return None

    def load_bands(self, key: str):
        return self._load(self.band_path(key), bloch.load_band_data)

    def store_bands(self, key: str, bd) -> None:
        os.makedirs(self.dir, exist_ok=True)
        bloch.save_band_data(bd, self.band_path(key))

    def load_basis(self, key: str):
        return self._load(self.basis_path(key), wannier.load_basis)

    def store_basis(self, key: str, wb) -> None:
        os.makedirs(self.dir, exist_ok=True)
        wannier.save_basis(wb, self.basis_path(key))


def _pipeline_bundles(cfg: RunConfig, cache: BundleCache | None, jobs: int = 1):
    """One PipelineBundle per ladder hbar, with bands and basis cached."""
    spec = cfg.potential()
    bundles = {}
    for hb in cfg.hbar_ladder:
        key = config_hash(cfg, hb)
        bd = cache.load_bands(key) if cache else None
        wb = cache.load_basis(key) if cache else None
        bun = scan.build_pipeline(spec, hb, cfg.numerics(), cfg.sigma,
                                  bd=bd, wb=wb, jobs=jobs)
        if cache and bd is None:
            cache.store_bands(key, bun.bd)
        if cache and wb is None:
            cache.store_basis(key, bun.wb)
        bundles[hb] = bun
        log.info("pipeline hbar=%g %s", hb,
                 "(cached bands)" if bd is not None else "")
    return bundles


# -- subcommands ----------------------------------------------------------------


def cmd_bands(cfg: RunConfig, args) -> int:
    cache = BundleCache(args.cache or cfg.cache_dir)
    spec = cfg.potential()
    os.makedirs(cfg.output_dir, exist_ok=True)
    for hb in cfg.hbar_ladder:
        key = config_hash(cfg, hb)
        bd = cache.load_bands(key)
        if bd is None:
            bd = scan.gauged_bands(spec, hb, cfg.numerics(), jobs=args.jobs)
            cache.store_bands(key, bd)
        else:
            print(f"bands hbar={hb:g}: served from cache")
        out = os.path.join(cfg.output_dir, f"bands_h{hb:g}.csv")
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(bloch.band_csv(bd))
        print(f"wrote {out}")
    return EXIT_OK


def cmd_wannier(cfg: RunConfig, args) -> int:
    cache = BundleCache(args.cache or cfg.cache_dir)
    bundles = _pipeline_bundles(cfg, cache, jobs=args.jobs)
    os.makedirs(cfg.output_dir, exist_ok=True)
    for hb, bun in bundles.items():
        out = os.path.join(cfg.output_dir, f"wannier_h{hb:g}.csv")
        wb = bun.wb
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,W,u0\n")
            u0 = wb.orbital(0)
            for i in range(wb.n_grid):
                fh.write(f"{wb.x[i]!r},{wb.w[i]!r},{u0[i]!r}\n")
        print(f"wrote {out}")
    return EXIT_OK


def cmd_params(cfg: RunConfig, args) -> int:
    cache = BundleCache(args.cache or cfg.cache_dir)
    bundles = _pipeline_bundles(cfg, cache, jobs=args.jobs)
    os.makedirs(cfg.output_dir, exist_ok=True)
    s0 = tunneling_action(cfg.potential()).s0
    rows = scan.params_rows(bundles, cfg.hbar_ladder, cfg.eta_values, s0)
    out = os.path.join(cfg.output_dir, "params.csv")
    scan._write_csv(out, scan.PARAMS_HEADER, rows)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_dnls(cfg: RunConfig, args) -> int:
    states, turning = scan._dnls_ladder(cfg.plan())
    rows = scan.dnls_rows(states)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, "dnls_ladder.csv")
    scan._write_csv(out, scan.dnls_header(cfg.n_sites), rows)
    written = [out]
    if "json" in cfg.formats:
        n = len(scan.DNLS_COLUMNS)
        records = [dict(zip(scan.DNLS_COLUMNS, r[:n]), F=r[n:]) for r in rows]
        jout = os.path.join(cfg.output_dir, "dnls_ladder.json")
        with open(jout, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(jout)
    if turning:
        print("warning: continuation stopped at a turning point")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_scan(cfg: RunConfig, args) -> int:
    cache = BundleCache(args.cache or cfg.cache_dir)
    bundles = _pipeline_bundles(cfg, cache, jobs=args.jobs)
    report = scan.run_sweep(cfg.plan(), bundles)
    for path in report.written:
        print(f"wrote {path}")
    if report.gaps:
        print(f"{len(report.gaps)} sweep points failed; see fits.json gaps")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    from . import acceptance
    results = acceptance.run_all(cfg, jobs=args.jobs)
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
    p.add_argument("--jobs", type=int, default=1, help="worker pool size")
    p.add_argument("--cache", default=None, help="override cache directory")
    p.add_argument("--allow-low-sigma", action="store_true",
                   help="permit sigma < 1/2 (exploratory lattice-only mode)")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = parse_config(args.config, allow_low_sigma=args.allow_low_sigma)
        return args.func(cfg, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, SolverError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
