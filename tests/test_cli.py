import filecmp
import os

import pytest

import semitb.cli as cli
from semitb.errors import ConfigError
from semitb.scan import Numerics

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
    cos_series = GOOD.replace("family = sin2",
                              "family = cos-series\ncoeffs = 4.0, -0.5")
    for text in (GOOD, cos_series):
        cfg = cli.parse_config(str(_write(tmp_path, text)))
        assert cfg.hbar_ladder == (0.3, 0.25, 0.2, 0.15)
        assert cfg.n_bands == Numerics().n_bands  # omitted: the default
        path2 = tmp_path / "round.ini"
        path2.write_text(cli.serialize_config(cfg))
        assert cli.parse_config(str(path2)) == cfg
    assert cfg.family == "cos-series" and cfg.coeffs == (4.0, -0.5)


def test_missing_section_named(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[numerics]\nn_pw = 33\n")
    with pytest.raises(ConfigError, match=r"potential"):
        cli.parse_config(str(path))


def test_unknown_field_named(tmp_path):
    text = GOOD.replace("[sweep]", "[sweep]\nwavelength = 3")
    with pytest.raises(ConfigError, match="wavelength"):
        cli.parse_config(str(_write(tmp_path, text)))


def test_bad_value_named(tmp_path):
    text = GOOD.replace("v0 = 8.0", "v0 = eight")
    with pytest.raises(ConfigError, match=r"potential\.v0"):
        cli.parse_config(str(_write(tmp_path, text)))


def test_missing_required_field_named(tmp_path):
    text = GOOD.replace("sigma = 1.0\n", "")
    with pytest.raises(ConfigError, match=r"sweep\.sigma"):
        cli.parse_config(str(_write(tmp_path, text)))


def test_low_sigma_gate(tmp_path):
    text = GOOD.replace("sigma = 1.0", "sigma = 0.3")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match="allow-low-sigma"):
        cli.parse_config(str(path))
    cfg = cli.parse_config(str(path), allow_low_sigma=True)
    assert cfg.sigma == 0.3


def test_main_config_error_exit_code(tmp_path):
    rc = cli.main(["--config", str(tmp_path / "absent.ini"), "bands"])
    assert rc == cli.EXIT_CONFIG


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
    import json

    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "dnls"]) == 0
    ladder = (tmp_path / "out" / "dnls_ladder.csv").read_text().splitlines()
    assert ladder[0].startswith("eta,E,residual,P,tau,F0")
    assert len(ladder) == 1 + 3  # three eta values
    records = json.loads((tmp_path / "out" / "dnls_ladder.json").read_text())
    assert len(records) == 3 and {r["eta"] for r in records} == {-50.0, -2.0, 0.0}


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


def test_params_command(tmp_path):
    path = _write(tmp_path)
    assert cli.main(["--config", str(path), "params"]) == 0
    rows = (tmp_path / "out" / "params.csv").read_text().splitlines()
    assert rows[0] == "hbar,lambda1,beta,C0,gamma,eta,D_norm,S0,gap,width"
    assert len(rows) == 1 + 4 * 3


def test_config_hash_sensitivity(tmp_path, monkeypatch):
    cfg = cli.parse_config(str(_write(tmp_path)))
    base = cli.config_hash(cfg, 0.3)
    assert cli.config_hash(cfg, 0.25) != base
    import dataclasses

    bumped = dataclasses.replace(cfg, n_pw=65)
    assert cli.config_hash(bumped, 0.3) != base
    monkeypatch.setattr(cli, "CACHE_VERSION", cli.CACHE_VERSION + 1)
    assert cli.config_hash(cfg, 0.3) != base


def test_params_and_dnls_match_scan(tmp_path):
    import json

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

    lines = (out / "dnls_ladder.csv").read_text().splitlines()
    header = lines[0].split(",")
    records = json.loads((out / "dnls_ladder.json").read_text())
    assert len(records) == len(lines) - 1
    for rec, line in zip(records, lines[1:]):
        row = dict(zip(header, line.split(",")))
        for key in ("eta", "E", "residual", "P", "tau"):
            want = float(row[key]) if row[key] else None
            assert rec[key] == want, key
        assert rec["F"] == [float(row[f"F{j}"]) for j in range(len(header) - 5)]


SCAN_OUTPUTS = ("params.csv", "dnls_ladder.csv", "continuum.csv",
                "transition.csv", "fits.json")


def _scan_outputs(tmp_path, *flags):
    assert cli.main(["--config", str(tmp_path / "run.ini"), *flags, "scan"]) == 0
    return {name: (tmp_path / "out" / name).read_bytes()
            for name in SCAN_OUTPUTS}


def test_scan_warm_cache_reproduces_cold(tmp_path):
    _write(tmp_path)
    cold = _scan_outputs(tmp_path)
    assert any((tmp_path / "cache").glob("basis_*.npz"))
    assert _scan_outputs(tmp_path) == cold


def test_scan_jobs_reproduce_serial(tmp_path):
    _write(tmp_path)
    serial = _scan_outputs(tmp_path, "--jobs", "1", "--cache",
                           str(tmp_path / "cache1"))
    threaded = _scan_outputs(tmp_path, "--jobs", "2", "--cache",
                             str(tmp_path / "cache2"))
    assert threaded == serial
