"""Whole-workload checks: each traced run yields its layer metrics, the
predicted zeros hold, and the untraced run prints every end-to-end metric.

    python3 -m pytest -q perfbench/workload_checks.py

Each workload case runs run.py once with a 1-second window (about 20-35 s
each), so this file is kept out of the default test collection.  The last
case checks that the scan gate rejects corrupted outputs.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
from workloads import make_ini  # noqa: E402

ALL = ("potential.tunneling_action.calls", "operators.PeriodicDomain.calls",
       "operators.resolvent_perp.calls", "operators.resolvent_perp.s",
       "operators.apply_h.calls", "operators.apply_h.s",
       "tightbinding.extract_params.s", "dnls.solve_anticontinuum.s",
       "dnls.newton_solve.calls", "nlse.reconstruct_and_correct.calls",
       "nlse.reconstruct_and_correct.s", "nlse.reconstruct_and_correct.p50_ms",
       "nlse.reconstruct_and_correct.p90_ms", "nlse.solve_perp_fixed_point.calls",
       "nlse.solve_perp_fixed_point.s", "nlse.solve_perp_fixed_point.useful_ratio",
       "nlse.solve_perp_fixed_point.per_reconstruct",
       "nlse.resolvent_per_fixed_point", "nlse.outer_iterations",
       "scan.run_sweep.calls", "scan.run_sweep.s", "scan.run_sweep.self_s",
       "scan.points", "scan.output_bytes", "cli.parse_config.s")
BUILDS = ("bloch.solve_bands.calls", "bloch.solve_bands.s",
          "wannier.fix_gauge.calls", "wannier.fix_gauge.s",
          "wannier.build_orthonormal_basis.calls",
          "wannier.build_orthonormal_basis.s")
ORACLES = ("operators.dense_h.calls", "operators.dense_h.s",
           "dnls.brute_force_states.calls", "dnls.brute_force_states.s",
           "dnls.brute_force_states.useful_ratio",
           "nlse.direct_newton_oracle.calls", "nlse.direct_newton_oracle.s",
           "nlse.direct_newton_oracle.iterations")
CHECKS = tuple(f"acceptance.check_{i}.s" for i in range(1, 12))

# (metrics that must be positive, metrics that must be exactly zero)
EXPECT = {
    "scan_cold": (ALL + BUILDS + ("cli.cache.misses", "cli.cache.bytes_written",
                                  "cli.cache.store.s", "cli.cache.load.s"),
                  ORACLES + CHECKS + ("cli.cache.hits",)),
    "scan_warm_eta": (ALL + ("cli.cache.hits", "cli.cache.load.s"),
                      BUILDS + ORACLES + CHECKS
                      + ("cli.cache.misses", "cli.cache.bytes_written",
                         "cli.cache.store.s")),
    "verify": (ALL + BUILDS + ORACLES + CHECKS,
               ("cli.cache.hits", "cli.cache.misses",
                "cli.cache.bytes_written")),
}


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECT))
def test_traced_run_yields_its_layer_metrics(workload):
    res = _run(workload, 1)
    assert res["correct"] and res["failed"] == 0
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER_METRICS)
    positive, zero = EXPECT[workload]
    assert [k for k in positive if not metrics[k] > 0] == []
    assert [k for k in zero if metrics[k] != 0] == []
    if workload == "scan_warm_eta":
        assert metrics["scan.points"] == 155


@pytest.mark.parametrize("workload", sorted(EXPECT))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    res = _run(workload, 0)
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.E2E_METRICS
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_scan_gate_rejects_corrupted_outputs(tmp_path):
    import numpy as np

    sys.path.insert(0, os.path.join(ROOT, "src"))
    ini = tmp_path / "run.ini"
    ini.write_text(make_ini("scan_cold", 1, str(tmp_path / "out"),
                            str(tmp_path / "cache")))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "semitb.cli", "--config", str(ini),
                    "scan"], env=env, capture_output=True, timeout=180,
                   check=True)
    assert gate.check_scan(str(ini)).ok

    states = tmp_path / "out" / "states"
    for pattern, field, delta in (("continuum_h0.1_eta-3*.npz", "phi", 1e-6),
                                  ("dnls_eta-8*.npz", "f", 1e-8)):
        path = next(states.glob(pattern))
        good = dict(np.load(path))
        bad = dict(good)
        bad[field] = good[field] + delta
        np.savez(path, **bad)
        res = gate.check_scan(str(ini))
        assert not res.ok and len(res.problems) == 1, res.problems
        np.savez(path, **good)
    assert gate.check_scan(str(ini)).ok
