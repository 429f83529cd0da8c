"""semitb benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Each timed run is one child interpreter driving `semitb.cli.main`
with the default --jobs 1, as a user runs it.  All files go under
.perfbench_work/ in the checkout.  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` (timed runs, and those
whose outputs failed the gate or whose child crashed) and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it holds the provenance, sample counts and output hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import gate
from tracing import LAYER_METRICS, median_summary
from workloads import WORKLOADS, make_ini

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150

E2E_METRICS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
               "peak_rss_mb": "MB", "pass_ratio": "ratio"}
TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s",
                 "trace.overhead_s")
PER_LAYER_METRICS = LAYER_METRICS + TRACE_METRICS


class ChildError(RuntimeError):
    pass


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    setup_s: float
    record: dict
    stdout: str


def spawn(ini, result_path, cli_args=(), trace=False, setup_only=False):
    """Run child.py once and wait for it; wall and CPU come from wait4."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--ini", ini,
           "--result", result_path]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else ["--", *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env["TMPDIR"] = os.path.join(os.path.dirname(result_path), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = result_path + ".log"
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}: {stdout[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return ChildRun(wall_s=t1 - t0, cpu_s=usage.ru_utime + usage.ru_stime,
                    setup_s=record["t_setup"] - t0, record=record,
                    stdout=stdout)


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # never let git search the directories above the checkout
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "semitb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(workload, seed, record):
    import numpy
    import scipy

    np_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": record["python"],
        "numpy": record["numpy"],
        "scipy": record["scipy"],
        "numpy_blas": f"{np_blas['name']} {np_blas['version']}",
        "scipy_blas": f"{sp_blas['name']} {sp_blas['version']}",
        "blas_threads_seen_by_child": record["blas_threads"],
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
    }


def run(workload, seed, seconds, trace):
    wl = WORKLOADS[workload]
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_dir, cache_dir = os.path.join(work, "out"), os.path.join(work, "cache")
    ini = os.path.join(work, "run.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(make_ini(workload, seed, out_dir, cache_dir))
    cli_args = ["--config", ini, wl.command]

    def result_path(tag):
        return os.path.join(work, f"{tag}.json")

    # untimed: warm the file cache (and byte-compile src on a fresh checkout)
    first = spawn(ini, result_path("warm_probe"), setup_only=True)
    if not first.record["semitb_file"].startswith(SRC + os.sep):
        raise ChildError(f"semitb imported from {first.record['semitb_file']}")
    if wl.warm_up:
        spawn(ini, result_path("warm_up"), ["--config", ini, "params"])
    setups = [spawn(ini, result_path(f"probe{i}"), setup_only=True).setup_s
              for i in range(SETUP_PROBES)]

    runs, gates, crashed = [], [], None
    t_start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        if wl.cold_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        t_iter = time.monotonic()
        try:
            r = spawn(ini, result_path(f"run{len(runs)}"), cli_args, trace=traced)
            g = check_outputs(wl, ini, r)
        except (ChildError, OSError, KeyError, ValueError) as exc:
            crashed = f"{type(exc).__name__}: {exc}"
            break
        runs.append((r, traced))
        gates.append(g)
        now = time.monotonic()
        enough = len(runs) >= (2 if trace else 1)
        if enough and now - t_start + (now - t_iter) > seconds:
            break

    failed_runs = sum(not g.ok for g in gates) + (crashed is not None)
    untraced = [r for r, t in runs if not t]
    details = {
        "samples": {"timed_runs": len(untraced),
                    "traced_runs": len(runs) - len(untraced),
                    "setup": len(setups) + len(untraced)},
        "problems": [p for g in gates for p in g.problems]
                    + ([crashed] if crashed else []),
        "output_sha256": gates[-1].sha256 if gates else {},
        "outputs_identical_across_runs": len({json.dumps(g.sha256, sort_keys=True)
                                              for g in gates}) <= 1,
        "values": {"wall_s": [r.wall_s for r, _ in runs],
                   "cpu_s": [r.cpu_s for r, _ in runs],
                   "traced": [t for _, t in runs],
                   "setup_s": setups + [r.setup_s for r, _ in runs]},
        "points_attempted": sum(g.attempted for g in gates),
        "points_failed": sum(g.failed for g in gates),
    }
    traced_runs = [r for r, t in runs if t]
    if not untraced or (trace and not traced_runs):
        return None, details, first.record

    if trace:
        metrics = median_summary([r.record["layers"] for r in traced_runs])
        untraced_wall = statistics.median(r.wall_s for r in untraced)
        traced_wall = statistics.median(r.wall_s for r in traced_runs)
        metrics.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        metrics = {k: {"value": metrics[k], "unit": _layer_unit(k)}
                   for k in PER_LAYER_METRICS}
    else:
        attempted = details["points_attempted"]
        values = {
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "cpu_s": statistics.median(r.cpu_s for r in untraced),
            "setup_s": statistics.median(setups + [r.setup_s for r in untraced]),
            "peak_rss_mb": statistics.median(r.record["peak_rss_mb"]
                                             for r in untraced),
            "pass_ratio": (attempted - details["points_failed"]) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in E2E_METRICS.items()}

    result = {"correct": failed_runs == 0,
              "attempted": len(runs) + (crashed is not None),
              "failed": failed_runs, "metrics": metrics}
    return result, details, runs[-1][0].record


def check_outputs(wl, ini, r):
    """Gate one finished run; a scan that exited non-zero is a crash."""
    if wl.command == "verify":
        return gate.check_verify(r.stdout, r.record["exit_code"])
    if r.record["exit_code"] != 0:
        raise ChildError(f"semitb {wl.command} exited {r.record['exit_code']}: "
                         f"{r.stdout[-2000:]}")
    return gate.check_scan(ini)


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "per_reconstruct", "per_fixed_point")):
        return "ratio"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semitb", "cli.py")):
        print(f"no semitb sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the gate imports the program it checks

    result, details, record = run(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    if result is None:
        print(json.dumps(details), file=sys.stderr)
        return 1
    info = {"provenance": provenance(args.workload, args.seed, record),
            **details}
    with open(os.path.join(WORK, args.workload, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**info, **result}, fh, indent=2)
    for name, m in result["metrics"].items():
        if not args.trace:
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
