"""Fast checks of the benchmark's own parts: inputs, tracer, gate, BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The checks that run whole workloads are in workload_checks.py.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_ini, sweep_values  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_ini_is_a_pure_function_of_the_seed(workload):
    a = make_ini(workload, 7, "o", "c")
    assert a == make_ini(workload, 7, "o", "c")
    # verify runs the pinned reference config whatever the seed
    assert (a == make_ini(workload, 8, "o", "c")) == (workload == "verify")


def test_ini_draws_stay_in_their_ranges(tmp_path):
    from semitb import cli

    for seed in range(20):
        v0, etas = sweep_values("scan_cold", seed)
        assert 7.6 <= v0 <= 8.4 and len(etas) == 11
        v0, etas = sweep_values("scan_warm_eta", seed)
        assert v0 == 8.0 and etas[0] == 0.0 and len(set(etas)) == 31
        assert all(-50.0 <= e <= -0.5 for e in etas[1:])
    path = tmp_path / "run.ini"
    path.write_text(make_ini("scan_warm_eta", 3, "o", "c"))
    cfg = cli.parse_config(str(path))
    assert cfg.eta_values == sweep_values("scan_warm_eta", 3)[1]
    assert len(cfg.hbar_ladder) * len(cfg.eta_values) == 155


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_METRICS)
    for m in spec["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"])


@pytest.fixture
def tracer():
    t = tracing.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_patches_every_import_site(tracer):
    import semitb
    from semitb import acceptance, bloch, cli, scan

    assert tracer.unpatched_references() == []
    for fn in (scan.solve_bands, scan.fix_gauge, scan.build_orthonormal_basis,
               bloch.solve_bands, cli.tunneling_action, semitb.solve_bands,
               acceptance.tunneling_action):
        assert hasattr(fn, "__wrapped__")
    assert all(hasattr(fn, "__wrapped__") for _, fn in acceptance.CRITERIA)
    tracer.uninstall()
    assert not hasattr(scan.solve_bands, "__wrapped__")
    assert scan.solve_bands is bloch.solve_bands
    assert not any(hasattr(fn, "__wrapped__") for _, fn in acceptance.CRITERIA)


def test_tracer_records_calls_nesting_and_self_time(tracer):
    import numpy as np
    from semitb import dnls, make_potential
    from semitb.operators import PeriodicDomain

    prob = dnls.DnlsProblem(eta=-50.0, sigma=1.0, n_sites=11)
    dnls.solve_anticontinuum(prob, 0, [-50.0, -20.0])
    dom = PeriodicDomain(make_potential("sin2", v0=8.0, a=1.0), 0.3, 4, 16)
    phi = np.cos(dom.x)
    dom.apply_h(phi)
    dom.resolvent_perp(phi, 0.0)

    s = tracer.summary()
    assert s["dnls.solve_anticontinuum.calls"] == 1
    assert s["dnls.newton_solve.calls"] >= 2
    assert s["dnls.newton_solve.failures"] == 0
    assert tracer.nested[("dnls.solve_anticontinuum", "dnls.newton_solve")] \
        == s["dnls.newton_solve.calls"]
    assert 0 < tracer.self_s["dnls.solve_anticontinuum"] \
        < s["dnls.solve_anticontinuum.s"]
    assert s["operators.PeriodicDomain.calls"] == 1
    assert s["operators.apply_h.calls"] == 1
    assert s["operators.resolvent_perp.calls"] == 1


def test_empty_summary_names_every_metric_with_a_number():
    s = tracing.Tracer().summary()
    assert list(s) == list(tracing.LAYER_METRICS)
    assert all(v == 0 and math.isfinite(v) for v in s.values())


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))
    assert tracing._percentile(values, 50) == 10
    assert tracing._percentile(values, 90) == 18
    assert tracing._percentile([], 90) == 0.0


def _verify_table(failing=(3,), drop=()):
    lines = []
    for n in range(1, 12):
        if n not in drop:
            tag = "FAIL" if n in failing else "PASS"
            lines.append(f"[{tag}] {n}. criterion {n}  detail")
    return "\n".join(lines + ["10/11 checks passed"])


def test_verify_gate_accepts_only_criterion_3_red():
    ok = gate.check_verify(_verify_table(), exit_code=1)
    assert ok.ok and ok.attempted == 11 and ok.failed == 1
    assert gate.check_verify(_verify_table(failing=()), exit_code=0).ok
    assert not gate.check_verify(_verify_table(failing=(3, 5)), 1).ok
    assert not gate.check_verify(_verify_table(drop=(7,)), 1).ok
    assert not gate.check_verify(_verify_table(), exit_code=0).ok
