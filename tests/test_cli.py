import argparse
import configparser
import errno
import functools
import hashlib
import importlib.util
import io
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from conftest import REF_CFG, orbitals

import semitb.cache as cache_module
import semitb.cli as cli
from semitb.errors import BasisError, ConfigError, GaugeError, NonConvergenceError
from semitb.operators import PeriodicDomain

GOOD = """\
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


def _write(tmp_path, text=None):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    cfg.write_text((text or GOOD).format(out=out, cache=cache))
    return cfg


def test_parse_and_roundtrip(tmp_path):
    cos_series = GOOD.replace("family = sin2\nv0 = 8.0",
                              "family = cos-series\ncoeffs = 4.0, -0.5")
    for text in (GOOD, cos_series):
        cfg = cli.parse_config(str(_write(tmp_path, text)))
        assert cfg.hbar_ladder == (0.3, 0.25, 0.2, 0.15)
        assert cfg.n_bands == 5  # omitted: the default
    assert cfg.family == "cos-series" and cfg.coeffs == (4.0, -0.5)


def test_negative_zero_eta_is_the_linear_reference(tmp_path):
    path = _write(tmp_path, GOOD.replace("eta = 0, -2, -50", "eta = -0.0, -2, -50"))
    etas = cli.parse_config(str(path)).eta_values
    assert etas == (0.0, -2.0, -50.0)
    assert math.copysign(1.0, etas[0]) == 1.0  # stored as 0.0, not -0.0


def test_negative_zero_eta_writes_the_outputs_of_zero(tmp_path):
    # -0 once reached params.csv and continuum.csv as -0.0, while the
    # ladder and the state file names spelt it 0.0 and +0
    outs = []
    for name, eta in (("zero", "0"), ("negative-zero", "-0")):
        run = tmp_path / name
        run.mkdir()
        text = GOOD.replace("eta = 0, -2, -50", f"eta = {eta}, -2, -50")
        path = run / "run.ini"
        path.write_text(text.format(out=run / "out", cache=tmp_path / "cache"))
        assert cli.main(["--config", str(path), "scan"]) == cli.EXIT_OK
        outs.append(run / "out")
    names = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                           if p.is_file())
    assert Path("states", "dnls_eta+0.npz") in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    for csv_name in ("params.csv", "continuum.csv"):
        cells = (outs[1] / csv_name).read_text().replace("\n", ",").split(",")
        assert "0.0" in cells and "-0.0" not in cells


def test_delta0_defaults_to_the_reference_value(tmp_path):
    # the lattice l1 norms reach about 5 at moderate eta: a budget of 2
    # refused every eta >= -3 point of the reference sweep
    cfg = cli.parse_config(str(_write(tmp_path, GOOD.replace("delta0 = 8.0\n", ""))))
    assert cfg.delta0 == REF_CFG.delta0 == 8.0


def test_cache_flag_overrides_the_config(tmp_path):
    path = _write(tmp_path)
    other = tmp_path / "other"
    assert cli.main(["--config", str(path), "--cache", str(other), "bands"]) == 0
    assert len(list(other.iterdir())) == 4  # one band bundle per ladder hbar
    assert not (tmp_path / "cache").exists()


def test_missing_section_named(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[numerics]\nn_pw = 33\n")
    with pytest.raises(ConfigError, match=r"potential"):
        cli.parse_config(str(path))


def test_unknown_field_named(tmp_path):
    text = GOOD.replace("[sweep]", "[sweep]\nwavelength = 3")
    with pytest.raises(ConfigError, match="wavelength"):
        cli.parse_config(str(_write(tmp_path, text)))


def test_unknown_family_exits_config_error(tmp_path, capsys):
    path = _write(tmp_path, GOOD.replace("family = sin2", "family = square"))
    assert cli.main(["--config", str(path), "dnls"]) == cli.EXIT_CONFIG
    assert "potential.family" in capsys.readouterr().err


def test_bad_value_named(tmp_path):
    text = GOOD.replace("v0 = 8.0", "v0 = eight")
    with pytest.raises(ConfigError, match=r"potential\.v0"):
        cli.parse_config(str(_write(tmp_path, text)))


def test_missing_required_field_named(tmp_path):
    text = GOOD.replace("sigma = 1.0\n", "")
    with pytest.raises(ConfigError, match=r"sweep\.sigma"):
        cli.parse_config(str(_write(tmp_path, text)))


def test_low_sigma_gate(tmp_path, capsys):
    # sigma < 1/2 is refused outright: no flag lifts the refusal
    path = _write(tmp_path, GOOD.replace("sigma = 1.0", "sigma = 0.3"))
    with pytest.raises(ConfigError, match=r"sweep\.sigma: must be >= 1/2"):
        cli.parse_config(str(path))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(path), "--allow-low-sigma", "dnls"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --allow-low-sigma" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_config_error_exit_code(tmp_path):
    rc = cli.main(["--config", str(tmp_path / "absent.ini"), "bands"])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("key, name, other", [("output_dir", "out", "cache"),
                                             ("cache_dir", "cache", "out")])
def test_a_file_named_as_an_io_directory_is_a_config_error(tmp_path, capsys, key, name,
                                                           other):
    # refused before anything is built: `dnls` once ran its whole ladder and
    # then reported os.makedirs' "[Errno 17] File exists" as a config error
    path = _write(tmp_path)
    (tmp_path / name).write_text("")
    with pytest.raises(ConfigError, match=rf"io\.{key}: .* exists and is not a directory"):
        cli.parse_config(str(path))
    assert cli.main(["--config", str(path), "scan"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: io.{key}: ")
    assert not (tmp_path / other).exists()


def test_a_file_named_by_the_cache_flag_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path)
    (tmp_path / "other").write_text("")
    rc = cli.main(["--config", str(path), "--cache", str(tmp_path / "other"), "scan"])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --cache: ")
    assert not (tmp_path / "out").exists()


def test_an_os_error_during_a_run_is_an_io_error(tmp_path, capsys):
    # the states directory cannot be made where a file of that name sits
    path = _write(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "states").write_text("")
    assert cli.main(["--config", str(path), "scan"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("I/O error: [Errno 17] File exists") and "config error" not in err


def test_a_value_error_is_a_program_fault_not_a_config_error(tmp_path, monkeypatch):
    def fault(cfg):
        raise ValueError("a program fault")

    monkeypatch.setattr(cli.scan, "_dnls_ladder", fault)
    with pytest.raises(ValueError, match="a program fault"):
        cli.main(["--config", str(_write(tmp_path)), "dnls"])


@pytest.mark.parametrize("error", [NonConvergenceError, BasisError, GaugeError])
def test_a_solver_error_exits_3(tmp_path, monkeypatch, capsys, error):
    # every semitb error raised during a run exits 3 under one prefix
    def fault(cfg):
        raise error("budget exceeded")

    monkeypatch.setattr(cli.scan, "_dnls_ladder", fault)
    assert cli.main(["--config", str(_write(tmp_path)), "dnls"]) == cli.EXIT_SOLVER
    assert capsys.readouterr().err == "error: budget exceeded\n"
    assert not (tmp_path / "out").exists()


def test_bands_command_caches(tmp_path, capsys):
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "bands"]) == 0
    out1 = capsys.readouterr().out
    assert "served from cache" not in out1
    first = (tmp_path / "out" / "bands_h0.3.csv").read_bytes()

    assert cli.main(["--config", str(path), "bands"]) == 0
    out2 = capsys.readouterr().out
    assert "served from cache" in out2
    second = (tmp_path / "out" / "bands_h0.3.csv").read_bytes()
    assert first == second


def test_dnls_command_writes_ladder(tmp_path, capsys):
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "dnls"]) == 0
    ladder = (tmp_path / "out" / "dnls_ladder.csv").read_text().splitlines()
    assert ladder[0].startswith("eta,E,residual,P,tau,F0")
    assert len(ladder) == 1 + 3  # three eta values
    assert {float(line.split(",")[0]) for line in ladder[1:]} == {-50.0, -2.0, 0.0}
    assert capsys.readouterr().out.count("wrote ") == 1


@functools.cache
def _perfbench_workloads():
    """perfbench/workloads.py, loaded from its file: the INIs the benchmark writes."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source", ["formats-json", "perfbench"])
def test_retired_formats_key_is_accepted_and_ignored(tmp_path, capsys, source):
    if source == "perfbench":
        path = tmp_path / "run.ini"
        path.write_text(_perfbench_workloads().make_ini(
            "scan_cold", 1, str(tmp_path / "out"), str(tmp_path / "cache")))
    else:
        path = _write(tmp_path, GOOD.replace("cache_dir = {cache}\n",
                                             "cache_dir = {cache}\nformats = json\n"))
    # the key is neither parsed nor stored: the config is the one without it
    bare = tmp_path / "bare.ini"
    bare.write_text("".join(line for line in path.read_text().splitlines(True)
                            if not line.startswith("formats")))
    assert bare.read_text() != path.read_text()
    assert cli.parse_config(str(path)) == cli.parse_config(str(bare))
    assert "formats" not in cli.RunConfig.__dataclass_fields__
    assert cli.main(["--config", str(path), "dnls"]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["dnls_ladder.csv"]
    assert capsys.readouterr().out.count("wrote ") == 1


@pytest.mark.parametrize("section, line", [
    ("io", "format = csv"), ("io", "formats_extra = json"), ("sweep", "formats = csv")])
def test_unknown_key_beside_the_retired_one_refused(tmp_path, section, line):
    text = GOOD.replace(f"[{section}]", f"[{section}]\n{line}")
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=rf"{section}\.{key}: unknown field"):
        cli.parse_config(str(_write(tmp_path, text)))


def test_retired_keys_are_unread_and_still_written_by_perfbench():
    # once no workload INI carries a retired key, the parser need not
    # accept it: delete its entry from cli._RETIRED
    workloads = _perfbench_workloads()
    written = set()
    for name in workloads.WORKLOADS:
        cp = configparser.ConfigParser()
        cp.read_string(workloads.make_ini(name, 0, "o", "c"))
        written |= {(section, key) for section in cp.sections()
                    for key in cp.options(section)}
    assert not cli._RETIRED & {(section, key) for section, key, *_ in cli._FIELDS}
    assert cli._RETIRED <= written, cli._RETIRED - written


def test_stale_cache_rebuilt(tmp_path, capsys):
    path = _write(tmp_path)
    cfg = cli.parse_config(str(path))
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    key = cli.config_hash(cfg, 0.3)
    (cache_dir / f"bands_{key}.npz").write_bytes(b"not an npz archive")
    assert cli.main(["--config", str(path), "bands"]) == 0
    out = (tmp_path / "out" / "bands_h0.3.csv").read_text()
    assert out.startswith("n,kappa,E")


def test_torn_bundle_rebuilt(tmp_path, caplog):
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "bands"]) == 0
    cfg = cli.parse_config(str(path))
    cache = cli.BundleCache(cfg.cache_dir)
    key = cli.config_hash(cfg, cfg.hbar_ladder[0])
    bundle = tmp_path / "cache" / f"bands_{key}.npz"
    whole = bundle.read_bytes()
    bundle.write_bytes(whole[:len(whole) // 2])  # what a killed write leaves
    with caplog.at_level(logging.WARNING, logger="semitb.cache"):
        assert cache.load_bands(key) is None
    assert str(bundle) in caplog.text and "rebuilding" in caplog.text
    assert cli.main(["--config", str(path), "bands"]) == 0
    assert bundle.read_bytes() == whole


class _DiskFull(io.FileIO):
    """A file that takes 100 bytes and then fails as a full disk does."""

    def __init__(self, *args):
        super().__init__(*args)
        self.room = 100

    def write(self, b):
        b = memoryview(b).cast("B")
        if len(b) > self.room:
            super().write(b[:self.room])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(b)
        return super().write(b)


def _files(root):
    """{relative path: bytes} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("kind, command", [("bundle", "bands"), ("state", "scan"),
                                           ("csv", "dnls")])
def test_a_write_cut_short_leaves_the_old_file_or_none(tmp_path, monkeypatch, capsys,
                                                       kind, command):
    # every file goes through cache.write_file: a write that fails part way
    # leaves the file it would replace under its name, or none, and no
    # temporary file.  A warm scan's first write is a state file, and dnls
    # writes only its CSV.
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), command]) == 0
    root = tmp_path / ("cache" if kind == "bundle" else "out")
    before = _files(root)
    assert any(name.endswith(".csv" if kind == "csv" else ".npz") for name in before)
    cfg = cli.parse_config(str(path))
    cache = cli.BundleCache(cfg.cache_dir)
    key = cli.config_hash(cfg, cfg.hbar_ladder[0])

    def cut_short():
        if kind == "bundle":
            with pytest.raises(OSError, match="No space left on device"):
                cache.store_bands(key, cli.scan.band_data(cfg, cfg.hbar_ladder[0]))
        else:
            assert cli.main(["--config", str(path), command]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err.startswith("I/O error: [Errno 28]")

    monkeypatch.setattr(cache_module, "open", _DiskFull, raising=False)
    capsys.readouterr()
    cut_short()
    assert _files(root) == before
    shutil.rmtree(root)
    cut_short()
    assert _files(root) == {}


@pytest.mark.parametrize("edit, key", [
    (("hbar = 0.3, 0.25, 0.2, 0.15", "hbar = 0.3, 0.2, 0.25, 0.15"), r"sweep\.hbar"),
    (("hbar = 0.3, 0.25, 0.2, 0.15", "hbar = 0.3, 0.25, 0.2"), r"sweep\.hbar"),
    (("eta = 0, -2, -50", "eta = -2, -50"), r"sweep\.eta"),
    (("eta = 0, -2, -50", "eta = 1e-16, -2, -50"), r"sweep\.eta"),
    (("cells = 16\n", "cells = 12\nlowdin_band = 6\n"), r"numerics\.cells"),
    (("n_sites = 21", "n_sites = 21\nseed_site = 11"), r"sweep\.seed_site"),
    (("n_sites = 21", "n_sites = 20\nseed_site = 10"), r"sweep\.seed_site"),
    (("n_sites = 21", "n_sites = 2"), r"sweep\.n_sites"),
    (("eta = 0, -2, -50", "eta = 0, -0.5, -inf"), r"sweep\.eta"),
    (("delta0 = 8.0", "delta0 = nan"), r"numerics\.delta0"),
    (("delta0 = 8.0", "delta0 = inf"), r"numerics\.delta0"),
    (("sigma = 1.0", "sigma = nan"), r"sweep\.sigma"),
    (("hbar = 0.3, 0.25, 0.2, 0.15", "hbar = 0.3, nan, 0.2, 0.15"), r"sweep\.hbar"),
    (("points_per_cell = 32", "points_per_cell = 0"), r"numerics\.points_per_cell"),
    # one point per cell leaves one mode per block: no band 2 and no gap
    (("points_per_cell = 32", "points_per_cell = 1"),
     r"numerics\.points_per_cell: 1 must be >= 2"),
    # a repeated eta, -0 among the zeros, would repeat its rows
    (("eta = 0, -2, -50", "eta = 0, -0, -2, -50"), r"sweep\.eta: .*distinct"),
    (("eta = 0, -2, -50", "eta = 0, -2, -50, -2.0"), r"sweep\.eta: .*distinct"),
    # a key is refused in a section that no field belongs to
    (("[io]", "[plot]\ndpi = 300\n\n[io]"), r"plot\.dpi: unknown field"),
    (("cells = 16\n", "cells = 16\nlowdin_band = -1\n"), r"numerics\.lowdin_band"),
    (("n_pw = 33", "n_pw = 128"), r"numerics\.n_pw"),
    (("n_pw = 33", "n_pw = 17"), r"numerics\.n_pw"),
    (("n_kappa = 16", "n_kappa = 6"), r"numerics\.n_kappa"),
    (("n_kappa = 16", "n_kappa = 16\nn_bands = 1"), r"numerics\.n_bands"),
    (("family = sin2", "family = cos_series\ncoeffs = 4.0"), r"potential\.family"),
    # each family reads its own field and refuses the other's
    (("v0 = 8.0\n", ""), r"error: potential\.v0"),
    (("v0 = 8.0", "v0 = 8.0\ncoeffs = 1, 2, 3"), r"error: potential\.coeffs"),
    (("family = sin2", "family = cos-series\ncoeffs = 4.0"), r"error: potential\.v0"),
    (("family = sin2\nv0 = 8.0", "family = cos-series"), r"error: potential\.coeffs"),
    # a family field that make_potential refuses: two equal wells per cell
    (("family = sin2\nv0 = 8.0", "family = cos-series\ncoeffs = 0, 1"),
     r"error: potential\.coeffs: 2 equally deep minima"),
    (("sigma = 1.0", "sigma = 0"), r"sweep\.sigma: must be >= 1/2"),
    # |phi|^{2 sigma} phi has a Lipschitz Jacobian only for sigma >= 1/2
    (("sigma = 1.0", "sigma = 0.3"), r"sweep\.sigma: must be >= 1/2"),
    (("delta0 = 8.0", "delta0 = -1"), r"numerics\.delta0: must be positive"),
    (("hbar = 0.3, 0.25, 0.2, 0.15", "hbar = 0.3, 0.25, 0.2, 0"),
     r"sweep\.hbar: entries must be positive"),
    (("v0 = 8.0\na = 1.0", "v0 = 8.0\na = 0"), r"potential\.a: must be positive"),
], ids=["hbar-order", "hbar-count", "eta-zero", "eta-near-zero", "cells-lowdin",
        "seed-site", "seed-site-even", "n-sites", "eta-inf",
        "delta0-nan", "delta0-inf", "sigma-nan", "hbar-nan", "points-per-cell",
        "points-per-cell-1", "eta-zero-twice", "eta-repeated", "unknown-section",
        "lowdin-band", "n-pw-even", "n-pw-few", "n-kappa", "n-bands",
        "family-alias", "sin2-without-v0", "sin2-with-coeffs",
        "cos-series-with-v0", "cos-series-without-coeffs", "two-wells",
        "sigma-zero", "sigma-low", "delta0-negative", "hbar-zero", "a-zero"])
def test_config_errors_exit_before_any_build(tmp_path, capsys, edit, key):
    text = GOOD.replace("lowdin_band = 4\n", "") if "lowdin" in edit[1] else GOOD
    assert edit[0] in text
    path = _write(tmp_path, text.replace(*edit))
    assert cli.main(["--config", str(path), "scan"]) == cli.EXIT_CONFIG
    assert re.search(key, capsys.readouterr().err)
    cache = tmp_path / "cache"
    assert not cache.exists() or not any(cache.iterdir())
    assert not (tmp_path / "out").exists()


def test_wannier_command_writes_plain_floats(tmp_path):
    path = _write(tmp_path)
    cfg = cli.parse_config(str(path))
    assert cli.main(["--config", str(path), "wannier"]) == 0
    dom = PeriodicDomain(cfg.potential(), cfg.hbar_ladder[0], cfg.cells,
                         cfg.points_per_cell)
    for hb in cfg.hbar_ladder:
        lines = (tmp_path / "out" / f"wannier_h{hb:g}.csv").read_text().splitlines()
        assert lines[0] == "x,W,u0"
        table = np.array([[float(v) for v in line.split(",")]
                          for line in lines[1:]])
        assert table.shape == (dom.n, 3)
        assert np.array_equal(table[:, 0], dom.x)
        for col in (1, 2):  # W and u0 are L2-normalized on the grid
            assert abs(dom.dx * np.sum(table[:, col] ** 2) - 1.0) < 1e-8


def test_basis_bundle_with_a_w_member_is_served(tmp_path):
    # a bundle of the same version that still carries W1 as a member w: it
    # is served, w unread, and the warm wannier table, whose W column is
    # computed from the domain, is the cold one byte for byte
    path = _write(tmp_path)
    cfg = cli.parse_config(str(path))
    assert cli.main(["--config", str(path), "wannier"]) == 0
    cold = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert len(cold) == len(cfg.hbar_ladder)
    cache = cli.BundleCache(cfg.cache_dir)
    for hb in cfg.hbar_ladder:
        key = cli.config_hash(cfg, hb)
        wb = cache.load_basis(key)
        dom = PeriodicDomain(cfg.potential(), hb, cfg.cells, cfg.points_per_cell)
        np.savez(cache.basis_path(key), version=np.int64(cli.CACHE_VERSION),
                 w=cli.scan.fix_gauge(dom), u0=wb.u0, overlaps=wb.overlaps)
    shutil.rmtree(tmp_path / "out")
    stored = {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
    assert cli.main(["--config", str(path), "wannier"]) == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == cold
    assert {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()} == stored


def test_version1_basis_bundle_rebuilt(tmp_path):
    path = _write(tmp_path)
    cfg = cli.parse_config(str(path))
    fresh = cli.BundleCache(str(tmp_path / "fresh"))
    assert cli.main(["--config", str(path), "--cache", fresh.dir, "params"]) == 0
    want = (tmp_path / "out" / "params.csv").read_bytes()

    # the version-1 layout: a copy of the domain grid and every cell shift
    # of u0, stored under the key the current configuration hashes to; the
    # fields the basis no longer has are stood in for by arrays of their
    # shapes
    cache = cli.BundleCache(str(tmp_path / "cache"))
    (tmp_path / "cache").mkdir()
    dom = PeriodicDomain(cfg.potential(), cfg.hbar_ladder[0], cfg.cells,
                         cfg.points_per_cell)
    keys = [cli.config_hash(cfg, hb) for hb in cfg.hbar_ladder]
    for hb, key in zip(cfg.hbar_ladder, keys):
        wb = fresh.load_basis(key)
        np.savez(cache.basis_path(key), version=np.int64(1), a=cfg.a, hbar=hb,
                 cells=np.int64(wb.cells),
                 points_per_cell=np.int64(wb.points_per_cell), x=dom.x,
                 dx=dom.dx, sites=dom.sites, w=wb.u0, v0=wb.u0, u=orbitals(wb),
                 overlaps=wb.overlaps, lowdin=wb.overlaps,
                 lowdin_band=np.int64(cfg.lowdin_band), decay_rate=0.5)
    (tmp_path / "out" / "params.csv").unlink()
    assert cli.main(["--config", str(path), "params"]) == 0
    assert (tmp_path / "out" / "params.csv").read_bytes() == want
    for key in keys:
        with np.load(cache.basis_path(key)) as z:
            assert int(z["version"]) == cli.CACHE_VERSION == 12
            assert "u" not in z.files
        got, ref = cache.load_basis(key), fresh.load_basis(key)
        assert np.array_equal(got.u0, ref.u0)


@pytest.mark.parametrize("attr, kind, path_of", [("bd", "bands", "band_path"),
                                                 ("wb", "basis", "basis_path")])
def test_bundle_holds_exactly_its_dataclass_fields(tmp_path, bundle_factory,
                                                   attr, kind, path_of):
    obj = getattr(bundle_factory(0.2), attr)
    cache = cli.BundleCache(str(tmp_path))
    getattr(cache, f"store_{kind}")("key", obj)
    path = getattr(cache, path_of)("key")
    hints = typing.get_type_hints(type(obj))
    with np.load(path) as z:
        assert set(z.files) == {"version", *hints}
        assert int(z["version"]) == cli.CACHE_VERSION
        stored = dict(z)
    back = getattr(cache, f"load_{kind}")("key")
    for name, declared in hints.items():
        got, want = getattr(back, name), getattr(obj, name)
        if declared is np.ndarray:
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert type(got) is declared and got == want, name
    # a file of any other version is never served
    for version in (cli.CACHE_VERSION - 1, cli.CACHE_VERSION + 1):
        np.savez(path, **{**stored, "version": np.int64(version)})
        assert getattr(cache, f"load_{kind}")("key") is None


def test_params_command(tmp_path):
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "params"]) == 0
    rows = (tmp_path / "out" / "params.csv").read_text().splitlines()
    assert rows[0] == "hbar,lambda1,beta,C0,gamma,eta,D_norm,S0,gap,width"
    assert len(rows) == 1 + 4 * 3


@pytest.mark.parametrize("ppc, hbar, command", [
    (4, 0.25, "params"), (8, 0.16, "params"), (12, 0.1, "params"),
    (2, 0.25, "wannier"), (2, 0.25, "scan")],
    ids=["4-0.25", "8-0.16", "12-0.1", "2-0.25-wannier", "2-0.25-scan"])
def test_coarse_grid_named(tmp_path, capsys, ppc, hbar, command):
    # the domain's first band misses the Floquet band by more than half its
    # width: the grid is named, not the sign or band checks that follow
    # (at ppc 8, hbar 0.16 the miss, 3.3e-4, is just below the width).
    # Nothing was written, so no output directory was made either.
    text = GOOD.replace("points_per_cell = 32", f"points_per_cell = {ppc}")
    text = text.replace("hbar = 0.3, 0.25, 0.2, 0.15",
                        "hbar = 0.25, 0.2, 0.16, 0.1")
    path = _write(tmp_path, text)
    assert cli.main(["--config", str(path), command]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert f"numerics.points_per_cell = {ppc} is too coarse" in err
    assert f"at hbar = {hbar:g}" in err
    assert not (tmp_path / "out").exists()


def test_config_hash_sensitivity(tmp_path, monkeypatch):
    cfg = cli.parse_config(str(_write(tmp_path)))
    base = cli.config_hash(cfg, 0.3)
    assert cli.config_hash(cfg, 0.25) != base
    import dataclasses

    bumped = dataclasses.replace(cfg, n_pw=65)
    assert cli.config_hash(bumped, 0.3) != base
    for unkeyed in (dict(delta0=4.0), dict(sigma=2.0)):
        assert cli.config_hash(dataclasses.replace(cfg, **unkeyed), 0.3) == base
    monkeypatch.setattr(cli, "CACHE_VERSION", cli.CACHE_VERSION + 1)
    assert cli.config_hash(cfg, 0.3) != base


def test_cache_key_is_the_hashlib_digest():
    # the built-in sha256 gives hashlib's digests, so a cache keyed by
    # hashlib.sha256 is still hit: the key of the reference config at
    # hbar = 0.25 is pinned to the hashlib value
    assert cli.config_hash(REF_CFG, 0.25) == "64ab316a4af94817"
    for payload in (b"", b"abc", bytes(range(256)) * 5, "ħ = 0.25".encode()):
        assert cli._sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()


def test_sigma_change_served_from_cache(tmp_path, monkeypatch):
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "params"]) == 0
    cache = tmp_path / "cache"
    filled = {p.name: (p.stat().st_mtime_ns, p.read_bytes())
              for p in cache.iterdir()}
    assert len(filled) == 3 * 4  # bands, basis and domain per ladder hbar

    hits = []
    for name in ("load_bands", "load_basis", "load_domain"):
        load = getattr(cli.BundleCache, name)

        def counted(self, key, *shape, load=load):
            got = load(self, key, *shape)
            hits.append(got is not None)
            return got

        monkeypatch.setattr(cli.BundleCache, name, counted)
    path.write_text(path.read_text().replace("sigma = 1.0", "sigma = 2.0"))
    assert cli.main(["--config", str(path), "params"]) == 0
    assert hits == [True] * len(filled)
    assert {p.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in cache.iterdir()} == filled


def test_params_and_dnls_match_scan(tmp_path):
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "scan"]) == 0
    out = tmp_path / "out"
    from_scan = {n: (out / n).read_bytes()
                 for n in ("params.csv", "dnls_ladder.csv")}
    for name in from_scan:
        (out / name).unlink()
    assert cli.main(["--config", str(path), "params"]) == 0
    assert cli.main(["--config", str(path), "dnls"]) == 0
    for name, data in from_scan.items():
        assert (out / name).read_bytes() == data, name


SCAN_OUTPUTS = ("params.csv", "dnls_ladder.csv", "continuum.csv",
                "transition.csv", "fits.json")


def _scan_outputs(tmp_path):
    assert cli.main(["--config", str(tmp_path / "run.ini"), "scan"]) == 0
    return {name: (tmp_path / "out" / name).read_bytes()
            for name in SCAN_OUTPUTS}


def _state_arrays(tmp_path):
    arrays = {}
    for path in sorted((tmp_path / "out" / "states").glob("*.npz")):
        with np.load(path) as z:
            arrays[path.name] = dict(z)
    return arrays


def test_scan_warm_cache_reproduces_cold(tmp_path, monkeypatch):
    # a warm scan takes bands, basis and the domain's block eigenpairs from
    # the cache and writes what a cold scan writes; with no lattice guard
    # failing on this config, it runs no eigh at all (the eta = 0 state has
    # a closed form); neither runs a complex eigh, and neither fits a line
    # by least squares
    _write(tmp_path)
    eighs, lstsqs = [], []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        eighs.append((np.iscomplexobj(a), a.ndim))
        return eigh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        lstsqs.append(args)
        raise AssertionError("least squares called")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    monkeypatch.setattr(np, "polyfit", refused)
    cold, cold_states = _scan_outputs(tmp_path), _state_arrays(tmp_path)
    assert not any(is_complex for is_complex, _ in eighs)
    # one real stacked block eigh per ladder hbar
    assert sum(ndim == 3 for _, ndim in eighs) == 4
    kinds = sorted(p.name.split("_")[0] for p in (tmp_path / "cache").iterdir())
    assert kinds == ["bands"] * 4 + ["basis"] * 4 + ["domain"] * 4
    shutil.rmtree(tmp_path / "out")
    eighs.clear()
    assert _scan_outputs(tmp_path) == cold
    assert eighs == [] and lstsqs == []
    warm_states = _state_arrays(tmp_path)
    assert warm_states.keys() == cold_states.keys() and len(cold_states) > 4
    for name, arrays in cold_states.items():
        assert arrays.keys() == warm_states[name].keys(), name
        for field, value in arrays.items():
            assert np.array_equal(warm_states[name][field], value), (name, field)


def test_torn_or_misshapen_domain_bundle_rebuilt(tmp_path, caplog):
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "params"]) == 0
    cfg = cli.parse_config(str(path))
    cache = cli.BundleCache(cfg.cache_dir)
    key = cli.config_hash(cfg, cfg.hbar_ladder[0])
    shape = (cfg.cells, cfg.points_per_cell)
    bundle = Path(cache.domain_path(key))
    whole = cache.load_domain(key, *shape)
    assert whole[0].shape == (cfg.cells // 2 + 1, cfg.points_per_cell)
    assert whole[0].dtype == whole[1].dtype == np.float64

    def assert_rebuilt(why):
        with caplog.at_level(logging.WARNING, logger="semitb.cache"):
            assert cache.load_domain(key, *shape) is None
        assert str(bundle) in caplog.text and why in caplog.text
        caplog.clear()
        assert cli.main(["--config", str(path), "params"]) == 0
        again = cache.load_domain(key, *shape)
        assert all(np.array_equal(a, b) for a, b in zip(again, whole))

    data = bundle.read_bytes()
    bundle.write_bytes(data[:len(data) // 2])  # what a killed write leaves
    assert_rebuilt("rebuilding")
    # a readable bundle of this version whose stack is one block short
    np.savez(bundle, version=np.int64(cli.CACHE_VERSION),
             block_evals=whole[0][:-1], block_evecs=whole[1][:-1])
    assert_rebuilt("block_evals has shape")
    # the stack of another grid, stored under this key
    np.savez(bundle, version=np.int64(cli.CACHE_VERSION),
             block_evals=whole[0][:, :-1], block_evecs=whole[1][:, :-1, :-1])
    assert_rebuilt("has shape")
    # the complex eigenvectors an older build stored, under this version:
    # neither the cache nor the domain takes them
    np.savez(bundle, version=np.int64(cli.CACHE_VERSION),
             block_evals=whole[0], block_evecs=whole[1].astype(complex))
    with np.load(bundle) as z:
        stored = (z["block_evals"], z["block_evecs"])
    with pytest.raises(ValueError, match="dtypes float64, complex128"):
        PeriodicDomain(cfg.potential(), cfg.hbar_ladder[0], *shape, blocks=stored)
    assert_rebuilt("and dtype complex128")


def test_storing_the_reference_stack_copies_no_array(tmp_path, bundle_factory):
    dom = bundle_factory(0.25).dom
    assert dom.block_evecs.nbytes > 2**19
    cache = cli.BundleCache(str(tmp_path))
    tracemalloc.start()
    try:
        cache.store_domain("key", dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20
    with np.load(cache.domain_path("key")) as z:
        assert sorted(z.files) == ["block_evals", "block_evecs", "version"]
        assert np.array_equal(z["block_evecs"], dom.block_evecs)
        assert z["block_evecs"].dtype == dom.block_evecs.dtype
        assert np.array_equal(z["block_evals"], dom.block_evals)


def test_every_subcommand_has_help():
    lines = cli.build_parser().format_help().splitlines()
    for name in cli._COMMANDS:
        line = next(ln for ln in lines if ln.split()[:1] == [name])
        assert len(line.split()) > 1, f"subcommand {name} has no help text"


def test_the_parser_has_exactly_the_documented_options():
    # a new flag must change this test and README's CLI section together
    parser = cli.build_parser()
    options = {tuple(a.option_strings) for a in parser._actions if a.option_strings}
    assert options == {("-h", "--help"), ("--config",), ("--cache",),
                       ("-v", "--verbose")}
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["bands", "wannier", "params", "dnls", "scan", "verify"]
    assert all(not any(a.option_strings and a.dest != "help" for a in sp._actions)
               for sp in sub.choices.values())


SRC = Path(cli.__file__).resolve().parents[1]
NUMPY_OPENBLAS = list(Path(np.__file__).parent.with_name("numpy.libs")
                      .glob("*openblas*.so*"))

# prints numpy's and scipy's OpenBLAS thread counts (a build not loaded
# yet is left out) before and after importing semitb.cli, and after main
_BLAS_PROBE = """
import ctypes, glob, importlib.util, json, os, sys

GETTERS = {"numpy": "scipy_openblas_get_num_threads64_",
           "scipy": "scipy_openblas_get_num_threads"}

def threads():
    out = {}
    for pkg, getter in GETTERS.items():
        libs = os.path.dirname(importlib.util.find_spec(pkg).origin) + ".libs"
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            out[pkg] = getattr(lib, getter)()
    return out

import numpy
default = threads()
import semitb.cli as cli
imported = threads()
env = os.environ.get("OPENBLAS_NUM_THREADS")
rc = cli.main(["--config", sys.argv[1], "bands"])
print(json.dumps({"default": default, "imported": imported,
                  "env_after_import": env, "rc": rc, "after": threads()}))
"""


def _run_python(args, **env):
    """Run sys.executable with args on semitb's source tree and the given
    BLAS thread variables (none inherited); return its stdout."""
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env={**child_env, **env},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not NUMPY_OPENBLAS, reason="numpy is not built on OpenBLAS")
def test_main_runs_blas_on_one_thread(tmp_path):
    for family, loaded in (
            # a tridiagonal band solve runs in numpy and loads no scipy BLAS
            ("family = sin2\nv0 = 8.0", {"numpy"}),
            # two cosines give half-bandwidth 2: eig_banded loads scipy's build
            ("family = cos-series\ncoeffs = 4.0, -0.5", {"numpy", "scipy"})):
        path = _write(tmp_path, GOOD.replace("family = sin2\nv0 = 8.0", family))
        # one fresh interpreter per case: pinned by main, and set by the user
        for env, want in (({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)):
            shutil.rmtree(tmp_path / "cache", ignore_errors=True)
            got = json.loads(_run_python(["-c", _BLAS_PROBE, str(path)], **env)
                             .splitlines()[-1])
            # importing the library touches no thread state and loads no scipy BLAS
            assert got["imported"] == got["default"]
            assert set(got["default"]) == {"numpy"}
            assert got["env_after_import"] == env.get("OPENBLAS_NUM_THREADS")
            # main pins every build loaded by the end of the run unless the
            # user chose
            assert got["rc"] == 0
            assert got["after"] == dict.fromkeys(loaded, want)


def test_main_leaves_the_environment_as_it_found_it(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    path = _write(tmp_path)
    for args in (["bands"], ["params"]):
        before = dict(os.environ)
        assert cli.main(["--config", str(path), *args]) == 0
        assert dict(os.environ) == before


def test_blas_thread_count_changes_no_scan_output(tmp_path):
    outputs = []
    for name, env in (("pinned", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        (tmp_path / name).mkdir()
        path = _write(tmp_path / name)
        _run_python(["-m", "semitb.cli", "--config", str(path), "scan"], **env)
        outputs.append({out: (tmp_path / name / "out" / out).read_bytes()
                        for out in SCAN_OUTPUTS})
    assert outputs[0] == outputs[1]
